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

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use nf_coverage::{CovMap, ExecTrace, FileId};
use nf_silicon::GuestInstr;
use nf_vmx::{MsrArea, Vmcb, Vmcs, VmxCapabilities};
use nf_x86::{CpuVendor, Efer, Msr};

use crate::api::{HvConfig, HvSnapshot, IoctlOp, L0Hypervisor, L1Result, L2Result};
use crate::fault::{RestoreFault, SharedFaults};
use crate::sanitizer::HostHealth;
use crate::store::{
    digest_msr_area, digest_vmcb, digest_vmcs, msr_area_bytes, share_map, share_opt, vmcb_bytes,
    vmcs_bytes, SnapshotStore,
};
use crate::{restore_fields, Instrumentation};

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

/// The mutable-state image of a [`Vkvm`] instance (see
/// [`crate::HvSnapshot`]). Compare snapshots with `==` to assert
/// round-trip identity; the fields themselves are an internal detail.
#[derive(Debug, Clone, PartialEq)]
pub struct VkvmSnapshot {
    bugs: VkvmBugs,
    l1_cr0: u64,
    l1_cr4: u64,
    l1_efer: u64,
    vmxon_region: Option<u64>,
    vmcs12_mem: BTreeMap<u64, Arc<Vmcs>>,
    current_vmptr: Option<u64>,
    msr_area_mem: BTreeMap<u64, Arc<MsrArea>>,
    vmcs02: Option<Arc<Vmcs>>,
    in_l2: bool,
    gif: bool,
    vmcb12_mem: BTreeMap<u64, Arc<Vmcb>>,
    current_vmcb: Option<u64>,
    vmcb02: Option<Vmcb>,
    fail_next_alloc: bool,
    health: HostHealth,
}

impl VkvmSnapshot {
    /// Interns every `Arc`-held component into `store`, canonicalizing
    /// the handles; returns the bytes newly resident.
    pub(crate) fn intern_into(&mut self, store: &mut SnapshotStore) -> usize {
        let mut new = 0;
        for v in self.vmcs12_mem.values_mut() {
            let d = digest_vmcs(v);
            new += store.vmcs.intern(v, d, vmcs_bytes());
        }
        for a in self.msr_area_mem.values_mut() {
            let d = digest_msr_area(a);
            let bytes = msr_area_bytes(a);
            new += store.msr.intern(a, d, bytes);
        }
        if let Some(v) = self.vmcs02.as_mut() {
            let d = digest_vmcs(v);
            new += store.vmcs.intern(v, d, vmcs_bytes());
        }
        for b in self.vmcb12_mem.values_mut() {
            let d = digest_vmcb(b);
            new += store.vmcb.intern(b, d, vmcb_bytes());
        }
        new
    }

    /// Releases every `Arc`-held component from `store`; returns the
    /// bytes freed.
    pub(crate) fn release_from(&self, store: &mut SnapshotStore) -> usize {
        let mut freed = 0;
        for v in self.vmcs12_mem.values() {
            freed += store.vmcs.release(v, digest_vmcs(v));
        }
        for a in self.msr_area_mem.values() {
            freed += store.msr.release(a, digest_msr_area(a));
        }
        if let Some(v) = self.vmcs02.as_ref() {
            freed += store.vmcs.release(v, digest_vmcs(v));
        }
        for b in self.vmcb12_mem.values() {
            freed += store.vmcb.release(b, digest_vmcb(b));
        }
        freed
    }

    /// Heap footprint of the heavy components as if each were owned
    /// outright (the deep-copy baseline's budget accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.vmcs12_mem.len() * vmcs_bytes()
            + self
                .msr_area_mem
                .values()
                .map(|a| msr_area_bytes(a))
                .sum::<usize>()
            + self.vmcs02.as_ref().map_or(0, |_| vmcs_bytes())
            + self.vmcb12_mem.len() * vmcb_bytes()
    }
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
    config: HvConfig,
    /// Capabilities exposed to L1 (module-parameter filtered).
    pub(crate) exposed_caps: VmxCapabilities,
    /// Capabilities of the physical CPU underneath.
    pub(crate) hw_caps: VmxCapabilities,
    /// Bug switches.
    pub bugs: VkvmBugs,

    cov: &'static Instrumentation,
    pub(crate) trace: ExecTrace,
    pub(crate) health: HostHealth,

    // --- L1 vCPU state (the guest-visible registers L0 tracks).
    pub(crate) l1_cr0: u64,
    pub(crate) l1_cr4: u64,
    pub(crate) l1_efer: u64,

    // --- Nested VMX state.
    pub(crate) vmxon_region: Option<u64>,
    pub(crate) vmcs12_mem: BTreeMap<u64, Vmcs>,
    pub(crate) current_vmptr: Option<u64>,
    pub(crate) msr_area_mem: BTreeMap<u64, MsrArea>,
    pub(crate) vmcs02: Option<Vmcs>,
    pub(crate) in_l2: bool,

    // --- Nested SVM state.
    pub(crate) gif: bool,
    pub(crate) vmcb12_mem: BTreeMap<u64, Vmcb>,
    pub(crate) current_vmcb: Option<u64>,
    pub(crate) vmcb02: Option<Vmcb>,

    // --- Fault injection (tests only): next allocation fails.
    pub(crate) fail_next_alloc: bool,

    // --- Deterministic fault injection (instrumentation, not VM
    // state: deliberately excluded from snapshots).
    pub(crate) faults: Option<SharedFaults>,
}

impl Vkvm {
    /// Boots a vkvm host with `config`.
    pub fn new(config: HvConfig) -> Self {
        let exposed = config.features.sanitized(config.vendor);
        Vkvm {
            exposed_caps: VmxCapabilities::from_features(exposed),
            hw_caps: crate::hw_caps(config.vendor),
            bugs: VkvmBugs::default(),
            cov: instrumentation(),
            trace: ExecTrace::new(),
            health: HostHealth::new(),
            l1_cr0: nf_x86::Cr0::PE | nf_x86::Cr0::PG | nf_x86::Cr0::NE,
            l1_cr4: nf_x86::Cr4::PAE,
            l1_efer: Efer::LME | Efer::LMA,
            vmxon_region: None,
            vmcs12_mem: BTreeMap::new(),
            current_vmptr: None,
            msr_area_mem: BTreeMap::new(),
            vmcs02: None,
            in_l2: false,
            gif: true,
            vmcb12_mem: BTreeMap::new(),
            current_vmcb: None,
            vmcb02: None,
            config,
            fail_next_alloc: false,
            faults: None,
        }
    }

    /// Hits an Intel nested.c block.
    pub(crate) fn cov_i(&mut self, b: IBlk) {
        self.trace.hit(self.cov.intel[b.idx()]);
    }

    /// Hits an AMD nested.c block.
    pub(crate) fn cov_a(&mut self, b: ABlk) {
        self.trace.hit(self.cov.amd[b.idx()]);
    }

    /// Whether nested virtualization is exposed at all (module param).
    pub(crate) fn nested_on(&self) -> bool {
        self.config.nested
            && match self.config.vendor {
                CpuVendor::Intel => self.config.features.contains(nf_x86::CpuFeature::Vmx),
                CpuVendor::Amd => self.config.features.contains(nf_x86::CpuFeature::Svm),
            }
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

    /// Emulates an L1 `rdmsr` of the nested capability MSRs
    /// (`vmx_get_vmx_msr` analog). Non-VMX MSRs live outside nested.c.
    fn nested_vmx_msr_read(&mut self, index: u32) -> L1Result {
        self.cov_i(IBlk::NestedVmxMsrRead);
        let caps = &self.exposed_caps;
        let value = match index {
            x if x == Msr::VmxBasic.index() => caps.revision_id as u64,
            x if x == Msr::VmxPinbasedCtls.index() || x == Msr::VmxTruePinbasedCtls.index() => {
                let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::PinBased);
                (a0 as u64) | ((a1 as u64) << 32)
            }
            x if x == Msr::VmxProcbasedCtls.index() || x == Msr::VmxTrueProcbasedCtls.index() => {
                let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::ProcBased);
                (a0 as u64) | ((a1 as u64) << 32)
            }
            x if x == Msr::VmxProcbasedCtls2.index() => {
                let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::ProcBased2);
                (a0 as u64) | ((a1 as u64) << 32)
            }
            x if x == Msr::VmxExitCtls.index() || x == Msr::VmxTrueExitCtls.index() => {
                let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::Exit);
                (a0 as u64) | ((a1 as u64) << 32)
            }
            x if x == Msr::VmxEntryCtls.index() || x == Msr::VmxTrueEntryCtls.index() => {
                let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::Entry);
                (a0 as u64) | ((a1 as u64) << 32)
            }
            x if x == Msr::VmxCr0Fixed0.index() => caps.cr0_fixed0(false),
            x if x == Msr::VmxCr0Fixed1.index() => caps.cr0_fixed1(),
            x if x == Msr::VmxCr4Fixed0.index() => caps.cr4_fixed0(),
            x if x == Msr::VmxCr4Fixed1.index() => caps.cr4_fixed1(),
            _ => 0,
        };
        L1Result::Ok(value)
    }
}

impl L0Hypervisor for Vkvm {
    fn name(&self) -> &'static str {
        "vkvm"
    }

    fn vendor(&self) -> CpuVendor {
        self.config.vendor
    }

    fn config(&self) -> &HvConfig {
        &self.config
    }

    fn reset_guest(&mut self) {
        self.l1_cr0 = nf_x86::Cr0::PE | nf_x86::Cr0::PG | nf_x86::Cr0::NE;
        self.l1_cr4 = nf_x86::Cr4::PAE;
        self.l1_efer = Efer::LME | Efer::LMA;
        self.vmxon_region = None;
        self.vmcs12_mem.clear();
        self.current_vmptr = None;
        self.msr_area_mem.clear();
        self.vmcs02 = None;
        self.in_l2 = false;
        self.gif = true;
        self.vmcb12_mem.clear();
        self.current_vmcb = None;
        self.vmcb02 = None;
    }

    fn reboot_host(&mut self) {
        self.reset_guest();
        self.health = HostHealth::new();
    }

    fn snapshot(&self) -> HvSnapshot {
        HvSnapshot::Vkvm(VkvmSnapshot {
            bugs: self.bugs,
            l1_cr0: self.l1_cr0,
            l1_cr4: self.l1_cr4,
            l1_efer: self.l1_efer,
            vmxon_region: self.vmxon_region,
            vmcs12_mem: share_map(&self.vmcs12_mem),
            current_vmptr: self.current_vmptr,
            msr_area_mem: share_map(&self.msr_area_mem),
            vmcs02: share_opt(&self.vmcs02),
            in_l2: self.in_l2,
            gif: self.gif,
            vmcb12_mem: share_map(&self.vmcb12_mem),
            current_vmcb: self.current_vmcb,
            vmcb02: self.vmcb02,
            fail_next_alloc: self.fail_next_alloc,
            health: self.health.clone(),
        })
    }

    fn restore(&mut self, snap: &HvSnapshot) {
        let HvSnapshot::Vkvm(s) = snap else {
            panic!("vkvm cannot restore a {} snapshot", snap.backend());
        };
        restore_fields!(copy: self, s, [
            bugs, l1_cr0, l1_cr4, l1_efer, vmxon_region, current_vmptr,
            in_l2, gif, current_vmcb, vmcb02, fail_next_alloc,
        ]);
        restore_fields!(clone: self, s, [health]);
        restore_fields!(shared: self, s, [
            vmcs12_mem, msr_area_mem, vmcs02, vmcb12_mem,
        ]);
    }

    fn install_faults(&mut self, faults: SharedFaults) {
        self.faults = Some(faults);
    }

    fn try_restore(&mut self, snap: &HvSnapshot) -> Result<(), RestoreFault> {
        if let Some(f) = &self.faults {
            f.borrow_mut().check_restore()?;
        }
        self.restore(snap);
        Ok(())
    }

    fn l1_exec(&mut self, instr: GuestInstr) -> L1Result {
        if self.health.dead {
            return L1Result::HostDead;
        }
        crate::fault::tick(&self.faults, &mut self.health);
        if self.health.dead {
            return L1Result::HostDead;
        }
        use GuestInstr::*;
        match (self.config.vendor, instr) {
            // --- Intel VMX emulation (vmx/nested.c).
            (CpuVendor::Intel, Vmxon(addr)) => self.handle_vmxon(addr),
            (CpuVendor::Intel, Vmxoff) => self.handle_vmxoff(),
            (CpuVendor::Intel, Vmclear(addr)) => self.handle_vmclear(addr),
            (CpuVendor::Intel, Vmptrld(addr)) => self.handle_vmptrld(addr),
            (CpuVendor::Intel, Vmptrst) => {
                self.cov_i(IBlk::HandleVmptrst);
                L1Result::Ok(self.current_vmptr.unwrap_or(u64::MAX))
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
                self.nested_vmx_msr_read(idx)
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
            (CpuVendor::Amd, Stgi) => {
                self.cov_a(ABlk::HandleStgiClgi);
                self.gif = true;
                L1Result::Ok(0)
            }
            (CpuVendor::Amd, Clgi) => {
                self.cov_a(ABlk::HandleStgiClgi);
                self.gif = false;
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
                self.l1_cr0 = v;
                L1Result::Ok(0)
            }
            (_, MovToCr(nf_silicon::CrIndex::Cr4, v)) => {
                self.l1_cr4 = v;
                L1Result::Ok(0)
            }
            (_, MovFromCr(nf_silicon::CrIndex::Cr0)) => L1Result::Ok(self.l1_cr0),
            (_, MovFromCr(nf_silicon::CrIndex::Cr4)) => L1Result::Ok(self.l1_cr4),
            (_, Wrmsr(idx, v)) if idx == Msr::Efer.index() => {
                if Efer::new(v).check_reserved().is_err() {
                    return L1Result::Fault("#GP");
                }
                self.l1_efer = v;
                L1Result::Ok(0)
            }
            (_, Rdmsr(idx)) if idx == Msr::Efer.index() => L1Result::Ok(self.l1_efer),
            // Everything else executes without touching nested code.
            _ => L1Result::Ok(0),
        }
    }

    fn l2_exec(&mut self, instr: GuestInstr) -> L2Result {
        if self.health.dead {
            return L2Result::HostDead;
        }
        crate::fault::tick(&self.faults, &mut self.health);
        if self.health.dead {
            return L2Result::HostDead;
        }
        if !self.in_l2 {
            return L2Result::NoGuest;
        }
        match self.config.vendor {
            CpuVendor::Intel => self.l2_exec_vmx(instr),
            CpuVendor::Amd => self.l2_exec_svm(instr),
        }
    }

    fn l1_stage_vmcs_region(&mut self, addr: u64, revision: u32) {
        let vmcs = self.vmcs12_mem.entry(addr).or_default();
        vmcs.revision_id = revision;
    }

    fn l1_stage_vmcb(&mut self, addr: u64, vmcb: Vmcb) {
        self.vmcb12_mem.insert(addr, vmcb);
    }

    fn l1_stage_msr_area(&mut self, addr: u64, area: MsrArea) {
        self.msr_area_mem.insert(addr, area);
    }

    fn host_ioctl(&mut self, op: IoctlOp) {
        match (self.config.vendor, op) {
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

    fn coverage_map(&self) -> &CovMap {
        &self.cov.map
    }

    fn trace(&self) -> &ExecTrace {
        &self.trace
    }

    fn swap_trace(&mut self, trace: &mut ExecTrace) {
        std::mem::swap(&mut self.trace, trace);
    }

    fn intel_file(&self) -> FileId {
        self.cov.intel_file
    }

    fn amd_file(&self) -> Option<FileId> {
        self.cov.amd_file
    }

    fn health(&self) -> &HostHealth {
        &self.health
    }

    fn observe_guest(&self) -> crate::api::GuestObservation {
        use crate::api::GuestObservation;
        match self.config.vendor {
            CpuVendor::Intel => GuestObservation {
                cr0: self.l1_cr0,
                cr4: self.l1_cr4,
                efer: self.l1_efer,
                vmx_on: self.vmxon_region.is_some(),
                current_vmptr: self.current_vmptr.unwrap_or(u64::MAX),
                in_l2: self.in_l2,
                vmcs12_digest: self
                    .current_vmptr
                    .map(|p| GuestObservation::digest_vmcs(&self.vmcs12_mem[&p]))
                    .unwrap_or(0),
            },
            CpuVendor::Amd => GuestObservation {
                cr0: self.l1_cr0,
                cr4: self.l1_cr4,
                efer: self.l1_efer,
                vmx_on: false,
                current_vmptr: self.current_vmcb.unwrap_or(u64::MAX),
                in_l2: self.in_l2,
                vmcs12_digest: self
                    .current_vmcb
                    .map(|a| GuestObservation::digest_vmcb(&self.vmcb12_mem[&a]))
                    .unwrap_or(0),
            },
        }
    }

    fn health_mut(&mut self) -> &mut HostHealth {
        &mut self.health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_silicon::{golden_vmcs, VmInstrError};

    fn intel_kvm() -> Vkvm {
        Vkvm::new(HvConfig::default_for(CpuVendor::Intel))
    }

    #[test]
    fn vmxon_requires_cr4_vmxe() {
        let mut kvm = intel_kvm();
        kvm.l1_cr4 = nf_x86::Cr4::PAE; // VMXE clear
        assert_eq!(
            kvm.l1_exec(GuestInstr::Vmxon(0x1000)),
            L1Result::Fault("#UD")
        );
        kvm.l1_cr4 |= nf_x86::Cr4::VMXE;
        assert_eq!(kvm.l1_exec(GuestInstr::Vmxon(0x1000)), L1Result::Ok(0));
    }

    #[test]
    fn nested_disabled_blocks_vmxon() {
        let mut cfg = HvConfig::default_for(CpuVendor::Intel);
        cfg.nested = false;
        let mut kvm = Vkvm::new(cfg);
        kvm.l1_cr4 |= nf_x86::Cr4::VMXE;
        assert_eq!(
            kvm.l1_exec(GuestInstr::Vmxon(0x1000)),
            L1Result::Fault("#UD")
        );
    }

    #[test]
    fn full_init_sequence_reaches_l2() {
        let mut kvm = intel_kvm();
        kvm.l1_cr4 |= nf_x86::Cr4::VMXE;
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
        assert!(kvm.in_l2);
    }

    #[test]
    fn vmlaunch_without_vmptrld_vmfails() {
        let mut kvm = intel_kvm();
        kvm.l1_cr4 |= nf_x86::Cr4::VMXE;
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
