//! vkvm — the KVM (Linux 6.5) model.
//!
//! A from-scratch L0 hypervisor with full nested VMX and nested SVM
//! emulation, mirroring the structure of
//! `arch/x86/kvm/{vmx,svm}/nested.c`: VMX-instruction emulation for L1,
//! the three-group consistency checks on VMCS12, `prepare_vmcs02`-style
//! merging, nested VM-exit reflection, and the host-only ioctl surface.
//!
//! Two of the paper's six bugs are seeded here (Table 6 rows 1 and 3):
//!
//! - **CVE-2023-30456** — missing IA-32e/`CR4.PAE` consistency check on
//!   VMCS12 combined with a literal interpretation of `CR4.PAE` in the
//!   shadow-paging path; triggers a UBSAN array-index-out-of-bounds when
//!   EPT is disabled by module parameter.
//! - **Spurious triple fault** — an invalid-but-well-formed EPTP/nCR3
//!   root fails `mmu_check_root()` and vkvm wrongly synthesizes a
//!   triple-fault exit to L1 although L2 never ran (fixed upstream by
//!   loading a dummy root backed by the zero page).

mod blocks;
mod svm_nested;
mod vmx_nested;

pub use blocks::{ABlk, IBlk};

use std::sync::OnceLock;

use nf_silicon::GuestInstr;
use nf_vmx::{Vmcb, VmxCapabilities};
use nf_x86::{CpuVendor, Efer, Msr};

use crate::api::{HvConfig, IoctlOp, L0Hypervisor, L1Result, L2Result};
use crate::l1::NestedL1State;
use crate::Instrumentation;

/// Guest-physical memory size of the L1 VM; roots beyond this limit fail
/// `mmu_check_root()`.
pub const GUEST_MEM_LIMIT: u64 = 0x2000_0000;

/// Seeded-bug switches; `false` means the vulnerable (as-evaluated) code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VkvmBugs {
    /// Apply the CVE-2023-30456 fix (commit 112e660: add the missing
    /// CR0/CR4 consistency checks).
    pub cve_2023_30456_fixed: bool,
    /// Apply the dummy-root fix (commit 0e3223d8d).
    pub dummy_root_fixed: bool,
    /// Test-only misvirtualization switch (`true` = *inject* the bug):
    /// a reflected HLT exit is misreported to L1 as a PAUSE exit, in
    /// both the VMCS12 exit-reason field and the reflected reason. No
    /// sanitizer fires — the exec completes with wrong guest-visible
    /// state, exactly the class only the differential oracle can see.
    /// Unreachable from any [`HvConfig`]; enabled only by differential
    /// self-tests and the `diff_oracle` seeded-bug bench arm.
    pub misreport_hlt_exit: bool,
}

/// vkvm's instrumentation (`vmx/nested.c`, then `svm/nested.c`),
/// registered once per process.
fn instrumentation() -> &'static Instrumentation {
    static COV: OnceLock<Instrumentation> = OnceLock::new();
    COV.get_or_init(|| {
        Instrumentation::register(
            ("arch/x86/kvm/vmx/nested.c", IBlk::register),
            Some(("arch/x86/kvm/svm/nested.c", ABlk::register)),
        )
    })
}

/// The KVM model.
pub struct Vkvm {
    /// The L1 state every backend shares.
    pub(crate) core: NestedL1State,
    /// Capabilities exposed to L1 (module-parameter filtered).
    pub(crate) exposed_caps: VmxCapabilities,
    /// Capabilities of the physical CPU underneath.
    pub(crate) hw_caps: VmxCapabilities,
    /// Bug switches.
    pub bugs: VkvmBugs,

    // --- Nested SVM state beyond the core.
    pub(crate) vmcb02: Option<Vmcb>,

    // --- Fault injection (tests only): next allocation fails.
    pub(crate) fail_next_alloc: bool,
}

impl Vkvm {
    /// Boots a vkvm host with `config`.
    pub fn new(config: HvConfig) -> Self {
        let exposed = config.features.sanitized(config.vendor);
        Vkvm {
            exposed_caps: VmxCapabilities::from_features(exposed),
            hw_caps: crate::hw_caps(config.vendor),
            bugs: VkvmBugs::default(),
            core: NestedL1State::new(config, instrumentation()),
            vmcb02: None,
            fail_next_alloc: false,
        }
    }

    /// Hits an Intel nested.c block.
    pub(crate) fn cov_i(&mut self, b: IBlk) {
        self.core.hit_intel(b.idx());
    }

    /// Hits an AMD nested.c block.
    pub(crate) fn cov_a(&mut self, b: ABlk) {
        self.core.hit_amd(b.idx());
    }

    /// Fault injection: the next nested-state allocation fails, covering
    /// the allocation-failure arm (rare-path testing, §5.2).
    pub fn inject_alloc_failure(&mut self) {
        self.fail_next_alloc = true;
    }

    /// The capability surface exposed to L1 (module-parameter filtered).
    pub fn exposed_capabilities(&self) -> &VmxCapabilities {
        &self.exposed_caps
    }
}

impl L0Hypervisor for Vkvm {
    fn name(&self) -> &'static str {
        "vkvm"
    }

    fn core(&self) -> &NestedL1State {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NestedL1State {
        &mut self.core
    }

    fn reset_guest(&mut self) {
        self.core.reset();
        self.vmcb02 = None;
    }

    fn l1_exec(&mut self, instr: GuestInstr) -> L1Result {
        if let Some(r) = self.core.l1_preamble() {
            return r;
        }
        use GuestInstr::*;
        match (self.core.config.vendor, instr) {
            // --- Intel VMX emulation (vmx/nested.c).
            (CpuVendor::Intel, Vmxon(addr)) => self.handle_vmxon(addr),
            (CpuVendor::Intel, Vmxoff) => self.handle_vmxoff(),
            (CpuVendor::Intel, Vmclear(addr)) => self.handle_vmclear(addr),
            (CpuVendor::Intel, Vmptrld(addr)) => self.handle_vmptrld(addr),
            (CpuVendor::Intel, Vmptrst) => {
                self.cov_i(IBlk::HandleVmptrst);
                L1Result::Ok(self.core.current_vmptr.unwrap_or(u64::MAX))
            }
            (CpuVendor::Intel, Vmread(enc)) => self.handle_vmread(enc),
            (CpuVendor::Intel, Vmwrite(enc, val)) => self.handle_vmwrite(enc, val),
            (CpuVendor::Intel, Vmlaunch) => self.nested_vmx_run(true),
            (CpuVendor::Intel, Vmresume) => self.nested_vmx_run(false),
            (CpuVendor::Intel, Vmcall) => {
                self.cov_i(IBlk::HandleVmcallL1);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Invept(t)) => self.handle_invept(t),
            (CpuVendor::Intel, Invvpid(t)) => self.handle_invvpid(t),
            (CpuVendor::Intel, Rdmsr(idx))
                if (Msr::VmxBasic.index()..=Msr::VmxVmfunc.index()).contains(&idx) =>
            {
                self.cov_i(IBlk::NestedVmxMsrRead);
                L1Result::Ok(crate::capability_msr(&self.exposed_caps, idx))
            }
            (CpuVendor::Intel, Wrmsr(idx, _))
                if (Msr::VmxBasic.index()..=Msr::VmxVmfunc.index()).contains(&idx) =>
            {
                self.cov_i(IBlk::NestedVmxMsrWrite);
                L1Result::Fault("#GP")
            }
            // SVM instructions on Intel hardware are undefined opcodes.
            (CpuVendor::Intel, Vmrun(_) | Vmload(_) | Vmsave(_) | Stgi | Clgi | Skinit) => {
                L1Result::Fault("#UD")
            }

            // --- AMD SVM emulation (svm/nested.c).
            (CpuVendor::Amd, Vmrun(addr)) => self.nested_svm_run(addr),
            (CpuVendor::Amd, Vmload(addr)) => self.handle_vmload(addr),
            (CpuVendor::Amd, Vmsave(addr)) => self.handle_vmsave(addr),
            // No interrupt or NMI delivery is modelled, so GIF holds
            // nothing back: both only hit the handler.
            (CpuVendor::Amd, Stgi | Clgi) => {
                self.cov_a(ABlk::HandleStgiClgi);
                L1Result::Ok(0)
            }
            (CpuVendor::Amd, Vmmcall) => {
                self.cov_a(ABlk::HandleVmmcall);
                L1Result::Ok(0)
            }
            (CpuVendor::Amd, Skinit) => L1Result::Fault("#UD"),
            // VMX instructions on AMD hardware are undefined opcodes.
            (
                CpuVendor::Amd,
                Vmxon(_) | Vmxoff | Vmclear(_) | Vmptrld(_) | Vmptrst | Vmread(_) | Vmwrite(..)
                | Vmlaunch | Vmresume | Invept(_) | Invvpid(_),
            ) => L1Result::Fault("#UD"),

            // --- Vendor-neutral L1 state updates (handled in vmx.c/svm.c,
            // outside the instrumented nested files).
            (_, MovToCr(nf_silicon::CrIndex::Cr0, v)) => {
                self.core.cr0 = v;
                L1Result::Ok(0)
            }
            (_, MovToCr(nf_silicon::CrIndex::Cr4, v)) => {
                self.core.cr4 = v;
                L1Result::Ok(0)
            }
            (_, MovFromCr(nf_silicon::CrIndex::Cr0)) => L1Result::Ok(self.core.cr0),
            (_, MovFromCr(nf_silicon::CrIndex::Cr4)) => L1Result::Ok(self.core.cr4),
            (_, Wrmsr(idx, v)) if idx == Msr::Efer.index() => {
                if Efer::new(v).check_reserved().is_err() {
                    return L1Result::Fault("#GP");
                }
                self.core.efer = v;
                L1Result::Ok(0)
            }
            (_, Rdmsr(idx)) if idx == Msr::Efer.index() => L1Result::Ok(self.core.efer),
            // Everything else executes without touching nested code.
            _ => L1Result::Ok(0),
        }
    }

    fn l2_exec(&mut self, instr: GuestInstr) -> L2Result {
        if let Some(r) = self.core.l2_preamble() {
            return r;
        }
        match self.core.config.vendor {
            CpuVendor::Intel => self.l2_exec_vmx(instr),
            CpuVendor::Amd => self.l2_exec_svm(instr),
        }
    }

    fn host_ioctl(&mut self, op: IoctlOp) {
        match (self.core.config.vendor, op) {
            (CpuVendor::Intel, IoctlOp::GetNestedState) => self.cov_i(IBlk::IoctlGetNested),
            (CpuVendor::Intel, IoctlOp::SetNestedState) => self.cov_i(IBlk::IoctlSetNested),
            (CpuVendor::Intel, IoctlOp::FreeNestedState) => self.cov_i(IBlk::IoctlFreeNested),
            (CpuVendor::Intel, IoctlOp::HardwareSetup) => self.cov_i(IBlk::HwSetup),
            (CpuVendor::Intel, IoctlOp::HardwareUnsetup) => self.cov_i(IBlk::HwUnsetup),
            (CpuVendor::Amd, IoctlOp::GetNestedState | IoctlOp::SetNestedState) => {
                self.cov_a(ABlk::IoctlNestedAmd)
            }
            (CpuVendor::Amd, IoctlOp::HardwareSetup | IoctlOp::HardwareUnsetup) => {
                self.cov_a(ABlk::HwSetupAmd)
            }
            (CpuVendor::Amd, IoctlOp::FreeNestedState) => self.cov_a(ABlk::IoctlNestedAmd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_coverage::ExecTrace;
    use nf_silicon::{golden_vmcs, VmInstrError};

    fn intel_kvm() -> Vkvm {
        Vkvm::new(HvConfig::default_for(CpuVendor::Intel))
    }

    #[test]
    fn vmxon_requires_cr4_vmxe() {
        let mut kvm = intel_kvm();
        kvm.core.cr4 = nf_x86::Cr4::PAE; // VMXE clear
        assert_eq!(
            kvm.l1_exec(GuestInstr::Vmxon(0x1000)),
            L1Result::Fault("#UD")
        );
        kvm.core.cr4 |= nf_x86::Cr4::VMXE;
        assert_eq!(kvm.l1_exec(GuestInstr::Vmxon(0x1000)), L1Result::Ok(0));
    }

    #[test]
    fn nested_disabled_blocks_vmxon() {
        let mut cfg = HvConfig::default_for(CpuVendor::Intel);
        cfg.nested = false;
        let mut kvm = Vkvm::new(cfg);
        kvm.core.cr4 |= nf_x86::Cr4::VMXE;
        assert_eq!(
            kvm.l1_exec(GuestInstr::Vmxon(0x1000)),
            L1Result::Fault("#UD")
        );
    }

    #[test]
    fn full_init_sequence_reaches_l2() {
        let mut kvm = intel_kvm();
        kvm.core.cr4 |= nf_x86::Cr4::VMXE;
        assert_eq!(kvm.l1_exec(GuestInstr::Vmxon(0x1000)), L1Result::Ok(0));
        assert_eq!(kvm.l1_exec(GuestInstr::Vmclear(0x2000)), L1Result::Ok(0));
        kvm.l1_stage_vmcs_region(0x2000, kvm.exposed_caps.revision_id);
        assert_eq!(kvm.l1_exec(GuestInstr::Vmptrld(0x2000)), L1Result::Ok(0));
        // Write a golden VMCS12 field by field, as the harness does.
        let golden = golden_vmcs(&kvm.exposed_caps);
        for &f in nf_vmx::VmcsField::ALL {
            if f.writable() {
                let r = kvm.l1_exec(GuestInstr::Vmwrite(f.encoding(), golden.read(f)));
                assert_eq!(r, L1Result::Ok(0), "{}", f.name());
            }
        }
        match kvm.l1_exec(GuestInstr::Vmlaunch) {
            L1Result::L2Entered { runnable } => assert!(runnable),
            other => panic!("expected L2 entry, got {other:?}"),
        }
        assert!(kvm.core.in_l2);
    }

    #[test]
    fn vmlaunch_without_vmptrld_vmfails() {
        let mut kvm = intel_kvm();
        kvm.core.cr4 |= nf_x86::Cr4::VMXE;
        assert_eq!(kvm.l1_exec(GuestInstr::Vmxon(0x1000)), L1Result::Ok(0));
        assert_eq!(
            kvm.l1_exec(GuestInstr::Vmlaunch),
            L1Result::VmFail(VmInstrError::FailInvalid)
        );
    }

    #[test]
    fn vmx_capability_msr_reads_hit_nested_code() {
        let mut kvm = intel_kvm();
        let r = kvm.l1_exec(GuestInstr::Rdmsr(Msr::VmxBasic.index()));
        assert_eq!(r, L1Result::Ok(VmxCapabilities::REVISION as u64));
        let trace = kvm.take_trace();
        assert!(!trace.is_empty());
    }

    #[test]
    fn swap_trace_hands_over_and_recycles() {
        let mut kvm = intel_kvm();
        kvm.l1_exec(GuestInstr::Rdmsr(Msr::VmxBasic.index()));
        let mut scratch = ExecTrace::new();
        kvm.swap_trace(&mut scratch);
        assert!(!scratch.is_empty(), "the exec's trace came out");
        assert!(kvm.take_trace().is_empty(), "the hv got the cleared one");
        // The swapped-out buffer is reusable: clear and swap back in.
        scratch.clear();
        kvm.l1_exec(GuestInstr::Rdmsr(Msr::VmxBasic.index()));
        kvm.swap_trace(&mut scratch);
        assert_eq!(scratch.len(), 1);
    }

    #[test]
    fn ioctl_surface_covers_host_only_blocks() {
        let mut kvm = intel_kvm();
        kvm.host_ioctl(IoctlOp::GetNestedState);
        kvm.host_ioctl(IoctlOp::SetNestedState);
        let trace = kvm.take_trace();
        let mut set = nf_coverage::LineSet::for_map(kvm.coverage_map());
        set.add_trace(kvm.coverage_map(), &trace);
        assert_eq!(set.count(), 48 + 60);
    }
}
