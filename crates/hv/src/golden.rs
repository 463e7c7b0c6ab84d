//! The silicon golden model as a backend — bare-metal reference for the
//! differential oracle.
//!
//! [`SiliconGolden`] answers one question: *what would the scenario have
//! done on real hardware, with no L0 hypervisor in between?* It
//! implements [`L0Hypervisor`] so the differential oracle can drive it
//! through the exact harness path the real backends take, but there is
//! no emulation layer inside: the VMCS12 the scenario builds **is** the
//! VMCS the modeled CPU runs, `vmlaunch` is [`nf_silicon::try_vmentry`]
//! on it directly (no `prepare_vmcs02` merge), and L2 exits are decided
//! by [`nf_silicon::vmx_exit_for`] against that same VMCS. Every exit
//! goes to L1 — there is no "handled by L0" arm because there is no L0.
//!
//! Two modeling decisions keep the reference comparable to the backends:
//!
//! - **Capability surface.** The golden model exposes exactly the
//!   capabilities the backend configuration exposes (the sanitized
//!   feature set). A configuration that hides VMX/SVM hides it here
//!   too; otherwise every non-nested config would trivially diverge.
//! - **No policy, no bugs.** Where backends add policy on top of the
//!   architecture (KVM's activity-state refusal, VirtualBox's lenient
//!   `vmxoff`), the golden model follows the SDM/APM via the shared
//!   `nf_silicon` checks. Those deliberate policy deltas are what the
//!   conformance allowlist documents.

use nf_silicon::vmentry::EntryFailure;
use nf_silicon::{
    check_vmrun, launch_state_check, svm_exit_for, vmclear_check, vmptrld_check, vmread_check,
    vmwrite_check, vmx_exit_for, vmxon_check, GuestInstr, VmInstrError,
};
use nf_vmx::{ExitReason, SvmExitCode, VmcsField, VmcsState, VmxCapabilities};
use nf_x86::{CpuVendor, Cr0, Cr4, Efer, Msr};

use std::sync::OnceLock;

use crate::api::{HvConfig, IoctlOp, L0Hypervisor, L1Result, L2Result};
use crate::l1::NestedL1State;
use crate::Instrumentation;

crate::hv_blocks! {
    /// Instrumented blocks of the golden model. Coverage here is not a
    /// fuzzing signal (the reference is not under test); the blocks
    /// exist so the golden model satisfies the same instrumentation
    /// contract as every other backend.
    pub enum GBlk {
        Vmxon = 8,
        Vmxoff = 4,
        Vmclear = 6,
        Vmptrld = 8,
        VmreadVmwrite = 6,
        EntryChecks = 18,
        EntryOk = 4,
        EntryFail = 6,
        VmxExit = 10,
        Vmrun = 12,
        SvmExit = 8,
        Passthrough = 4,
    }
}

/// The golden model's instrumentation (one file), registered once per
/// process.
fn instrumentation() -> &'static Instrumentation {
    static COV: OnceLock<Instrumentation> = OnceLock::new();
    COV.get_or_init(|| Instrumentation::register(("nf-silicon/golden-model", GBlk::register), None))
}

/// The bare-metal reference backend (see the module docs).
pub struct SiliconGolden {
    /// The L1 state every backend shares. The VMCS12 the scenario
    /// builds is the live VMCS, so the core's `vmcs02` stays `None`.
    core: NestedL1State,
    caps: VmxCapabilities,
    l2_runnable: bool,
}

impl SiliconGolden {
    /// Boots the golden reference with `config`.
    pub fn new(config: HvConfig) -> Self {
        let exposed = config.features.sanitized(config.vendor);
        SiliconGolden {
            caps: VmxCapabilities::from_features(exposed),
            core: NestedL1State::new(config, instrumentation()),
            l2_runnable: false,
        }
    }

    fn cov(&mut self, b: GBlk) {
        self.core.hit_intel(b.idx());
    }

    /// The hardware delivers a VM-entry-failure exit (SDM 26.8): the
    /// exit reason lands in the (live) VMCS and control returns to L1.
    fn entry_fail(&mut self, reason: ExitReason) -> L1Result {
        self.cov(GBlk::EntryFail);
        let encoded = reason.encode(true);
        let vmcs = self.core.current_vmcs_mut();
        vmcs.write(VmcsField::VmExitReason, encoded as u64);
        vmcs.write(VmcsField::ExitQualification, 0);
        L1Result::L2EntryFailed { reason: encoded }
    }

    /// `vmlaunch`/`vmresume` straight on the scenario's VMCS — the whole
    /// point of the golden model: no merge, no policy, just the
    /// architectural checks in SDM order.
    fn vmx_enter(&mut self, launch: bool) -> L1Result {
        self.cov(GBlk::EntryChecks);
        if self.core.vmxon_region.is_none() {
            return L1Result::Fault("#UD");
        }
        if self.core.current_vmptr.is_none() {
            return L1Result::VmFail(VmInstrError::FailInvalid);
        }
        if let Err(e) = launch_state_check(self.core.current_vmcs().state, !launch) {
            return L1Result::VmFail(e);
        }
        let vmcs12 = self.core.current_vmcs().clone();
        let area = self.core.entry_msr_load(&vmcs12).unwrap_or_default();
        match nf_silicon::try_vmentry(&vmcs12, &self.caps.clone(), &area) {
            Ok(outcome) => {
                self.cov(GBlk::EntryOk);
                self.core.in_l2 = true;
                self.l2_runnable = outcome.runnable;
                self.core.current_vmcs_mut().state = VmcsState::Launched;
                L1Result::L2Entered {
                    runnable: outcome.runnable,
                }
            }
            Err(EntryFailure::InvalidControls(_)) => {
                L1Result::VmFail(VmInstrError::EntryInvalidControls)
            }
            Err(EntryFailure::InvalidHostState(_)) => {
                L1Result::VmFail(VmInstrError::EntryInvalidHostState)
            }
            Err(EntryFailure::InvalidGuestState(_)) => {
                self.entry_fail(ExitReason::EntryFailGuestState)
            }
            Err(EntryFailure::MsrLoad(..)) => self.entry_fail(ExitReason::EntryFailMsrLoad),
        }
    }

    fn l2_exec_vmx(&mut self, instr: GuestInstr) -> L2Result {
        let Some(reason) = vmx_exit_for(instr, self.core.current_vmcs()) else {
            return L2Result::NoExit;
        };
        self.cov(GBlk::VmxExit);
        // The exit writes straight into the live VMCS and control
        // returns to L1 — the guest fields are already there.
        let encoded = reason.encode(false);
        let vmcs = self.core.current_vmcs_mut();
        vmcs.write(VmcsField::VmExitReason, encoded as u64);
        vmcs.write(VmcsField::ExitQualification, 0);
        self.core.in_l2 = false;
        L2Result::ReflectedToL1(encoded)
    }

    /// `vmrun` straight on the scenario's VMCB (APM 15.5 checks only).
    fn svm_enter(&mut self, addr: u64) -> L1Result {
        self.cov(GBlk::Vmrun);
        if !self.core.nested_on() || self.core.efer & Efer::SVME == 0 {
            return L1Result::Fault("#UD");
        }
        let Some(vmcb12) = self.core.vmcb12_mem.get(&addr).copied() else {
            return L1Result::Fault("#GP");
        };
        self.core.current_vmcb = Some(addr);
        match check_vmrun(&vmcb12, true) {
            Ok(outcome) => {
                self.cov(GBlk::EntryOk);
                self.core.in_l2 = true;
                self.l2_runnable = outcome.runnable;
                L1Result::L2Entered {
                    runnable: outcome.runnable,
                }
            }
            Err(_) => {
                self.cov(GBlk::EntryFail);
                self.core.current_vmcb_mut().control.exitcode = SvmExitCode::Invalid as u32 as u64;
                L1Result::L2EntryFailed {
                    reason: SvmExitCode::Invalid as u32,
                }
            }
        }
    }

    fn l2_exec_svm(&mut self, instr: GuestInstr) -> L2Result {
        let Some(code) = svm_exit_for(instr, self.core.current_vmcb()) else {
            return L2Result::NoExit;
        };
        self.cov(GBlk::SvmExit);
        self.core.current_vmcb_mut().control.exitcode = code as u32 as u64;
        self.core.in_l2 = false;
        L2Result::ReflectedToL1(code as u32)
    }
}

impl L0Hypervisor for SiliconGolden {
    fn name(&self) -> &'static str {
        "golden"
    }

    fn core(&self) -> &NestedL1State {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NestedL1State {
        &mut self.core
    }

    fn reset_guest(&mut self) {
        self.core.reset();
        self.l2_runnable = false;
    }

    fn l1_exec(&mut self, instr: GuestInstr) -> L1Result {
        if let Some(r) = self.core.l1_preamble() {
            return r;
        }
        use GuestInstr::*;
        match (self.core.config.vendor, instr) {
            // --- Intel VMX, straight from the SDM.
            (CpuVendor::Intel, Vmxon(addr)) => {
                self.cov(GBlk::Vmxon);
                if !self.core.nested_on() || self.core.cr4 & Cr4::VMXE == 0 {
                    return L1Result::Fault("#UD");
                }
                if vmxon_check(
                    Cr0::new(self.core.cr0),
                    Cr4::new(self.core.cr4),
                    Efer::new(self.core.efer),
                    addr,
                )
                .is_err()
                {
                    if !nf_x86::addr::page_aligned(addr) || !nf_x86::addr::phys_in_width(addr) {
                        return L1Result::VmFail(VmInstrError::FailInvalid);
                    }
                    return L1Result::Fault("#GP");
                }
                self.core.vmxon_region = Some(addr);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmxoff) => {
                self.cov(GBlk::Vmxoff);
                if self.core.vmxon_region.is_none() {
                    return L1Result::Fault("#UD");
                }
                self.core.vmxoff();
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmclear(addr)) => {
                self.cov(GBlk::Vmclear);
                let Some(vmxon) = self.core.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                if let Err(e) = vmclear_check(addr, vmxon) {
                    return L1Result::VmFail(e);
                }
                self.core.vmclear(addr, self.caps.revision_id);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmptrld(addr)) => {
                self.cov(GBlk::Vmptrld);
                let Some(vmxon) = self.core.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                let revision = self.caps.revision_id;
                let region_rev = self.core.staged_revision(addr, revision);
                if let Err(e) = vmptrld_check(addr, vmxon, region_rev, revision) {
                    return L1Result::VmFail(e);
                }
                self.core.vmptrld(addr, revision);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmptrst) => {
                self.cov(GBlk::Passthrough);
                L1Result::Ok(self.core.current_vmptr.unwrap_or(u64::MAX))
            }
            (CpuVendor::Intel, Vmread(enc)) => {
                self.cov(GBlk::VmreadVmwrite);
                if self.core.current_vmptr.is_none() {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                match vmread_check(enc) {
                    Err(e) => L1Result::VmFail(e),
                    Ok(field) => L1Result::Ok(self.core.current_vmcs().read(field)),
                }
            }
            (CpuVendor::Intel, Vmwrite(enc, val)) => {
                self.cov(GBlk::VmreadVmwrite);
                if self.core.current_vmptr.is_none() {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                match vmwrite_check(enc) {
                    Err(e) => L1Result::VmFail(e),
                    Ok(field) => {
                        self.core.current_vmcs_mut().write(field, val);
                        L1Result::Ok(0)
                    }
                }
            }
            (CpuVendor::Intel, Vmlaunch) => self.vmx_enter(true),
            (CpuVendor::Intel, Vmresume) => self.vmx_enter(false),
            (CpuVendor::Intel, Vmcall) => {
                self.cov(GBlk::Passthrough);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Invept(t)) => {
                self.cov(GBlk::Passthrough);
                if self.core.vmxon_region.is_none() {
                    return L1Result::Fault("#UD");
                }
                if !(1..=2).contains(&t) {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Invvpid(t)) => {
                self.cov(GBlk::Passthrough);
                if self.core.vmxon_region.is_none() {
                    return L1Result::Fault("#UD");
                }
                if t > 3 {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                L1Result::Ok(0)
            }
            // Capability MSRs read the same exposed surface the backends
            // advertise.
            (CpuVendor::Intel, Rdmsr(idx))
                if (Msr::VmxBasic.index()..=Msr::VmxVmfunc.index()).contains(&idx) =>
            {
                self.cov(GBlk::Passthrough);
                L1Result::Ok(crate::capability_msr(&self.caps, idx))
            }
            (CpuVendor::Intel, Wrmsr(idx, _))
                if (Msr::VmxBasic.index()..=Msr::VmxVmfunc.index()).contains(&idx) =>
            {
                L1Result::Fault("#GP")
            }
            (CpuVendor::Intel, Vmrun(_) | Vmload(_) | Vmsave(_) | Stgi | Clgi | Skinit) => {
                L1Result::Fault("#UD")
            }

            // --- AMD SVM, straight from the APM.
            (CpuVendor::Amd, Vmrun(addr)) => self.svm_enter(addr),
            (CpuVendor::Amd, Vmload(addr) | Vmsave(addr)) => {
                self.cov(GBlk::Passthrough);
                if self.core.efer & Efer::SVME == 0 {
                    return L1Result::Fault("#UD");
                }
                if !self.core.vmcb12_mem.contains_key(&addr) {
                    return L1Result::Fault("#GP");
                }
                L1Result::Ok(0)
            }
            (CpuVendor::Amd, Stgi | Clgi | Vmmcall) => {
                self.cov(GBlk::Passthrough);
                L1Result::Ok(0)
            }
            (CpuVendor::Amd, Skinit) => L1Result::Fault("#UD"),
            (
                CpuVendor::Amd,
                Vmxon(_) | Vmxoff | Vmclear(_) | Vmptrld(_) | Vmptrst | Vmread(_) | Vmwrite(..)
                | Vmlaunch | Vmresume | Invept(_) | Invvpid(_),
            ) => L1Result::Fault("#UD"),

            // --- Vendor-neutral L1 state updates.
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

    fn host_ioctl(&mut self, _op: IoctlOp) {
        // Bare metal has no host-side ioctl surface.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_silicon::golden_vmcs;

    fn intel_golden() -> SiliconGolden {
        SiliconGolden::new(HvConfig::default_for(CpuVendor::Intel))
    }

    fn boot_to_l2(g: &mut SiliconGolden) -> L1Result {
        g.core.cr4 |= Cr4::VMXE;
        assert_eq!(g.l1_exec(GuestInstr::Vmxon(0x1000)), L1Result::Ok(0));
        assert_eq!(g.l1_exec(GuestInstr::Vmclear(0x2000)), L1Result::Ok(0));
        g.l1_stage_vmcs_region(0x2000, g.caps.revision_id);
        assert_eq!(g.l1_exec(GuestInstr::Vmptrld(0x2000)), L1Result::Ok(0));
        let golden = golden_vmcs(&g.caps);
        for &f in VmcsField::ALL {
            if f.writable() {
                let r = g.l1_exec(GuestInstr::Vmwrite(f.encoding(), golden.read(f)));
                assert_eq!(r, L1Result::Ok(0), "{}", f.name());
            }
        }
        g.l1_exec(GuestInstr::Vmlaunch)
    }

    #[test]
    fn golden_vmcs_enters_l2_directly() {
        let mut g = intel_golden();
        match boot_to_l2(&mut g) {
            L1Result::L2Entered { runnable } => assert!(runnable),
            other => panic!("expected direct entry, got {other:?}"),
        }
        assert!(g.core.in_l2);
    }

    #[test]
    fn every_exit_reaches_l1() {
        // HLT exits (HLT_EXITING is in the golden template) and there is
        // no L0 to swallow it: the exit always reaches L1.
        let mut g = intel_golden();
        assert!(matches!(boot_to_l2(&mut g), L1Result::L2Entered { .. }));
        match g.l2_exec(GuestInstr::Hlt) {
            L2Result::ReflectedToL1(r) => {
                assert_eq!(r, ExitReason::Hlt.encode(false));
            }
            other => panic!("expected an exit to L1, got {other:?}"),
        }
        assert!(!g.core.in_l2);
        // The exit reason is architecturally visible in the live VMCS.
        assert_eq!(
            g.l1_exec(GuestInstr::Vmread(VmcsField::VmExitReason.encoding())),
            L1Result::Ok(ExitReason::Hlt.encode(false) as u64)
        );
    }

    #[test]
    fn activity_state_follows_the_sdm_not_kvm_policy() {
        // Activity 3 (wait-for-SIPI) is architecturally valid: the golden
        // model enters (not runnable) where KVM's policy refuses.
        let mut g = intel_golden();
        g.core.cr4 |= Cr4::VMXE;
        assert_eq!(g.l1_exec(GuestInstr::Vmxon(0x1000)), L1Result::Ok(0));
        assert_eq!(g.l1_exec(GuestInstr::Vmclear(0x2000)), L1Result::Ok(0));
        g.l1_stage_vmcs_region(0x2000, g.caps.revision_id);
        assert_eq!(g.l1_exec(GuestInstr::Vmptrld(0x2000)), L1Result::Ok(0));
        let mut golden = golden_vmcs(&g.caps);
        golden.write(VmcsField::GuestActivityState, 3);
        for &f in VmcsField::ALL {
            if f.writable() {
                g.l1_exec(GuestInstr::Vmwrite(f.encoding(), golden.read(f)));
            }
        }
        match g.l1_exec(GuestInstr::Vmlaunch) {
            L1Result::L2Entered { runnable } => assert!(!runnable),
            other => panic!("expected entry per SDM, got {other:?}"),
        }
    }

    #[test]
    fn reset_guest_returns_to_the_boot_state() {
        let mut g = intel_golden();
        let boot = g.observe_guest();
        let entered = boot_to_l2(&mut g);
        assert!(matches!(entered, L1Result::L2Entered { .. }));
        let dirty = g.observe_guest();
        assert_ne!(boot, dirty);
        g.reset_guest();
        assert_eq!(g.observe_guest(), boot);
        assert!(!g.core.in_l2 && g.core.vmxon_region.is_none());
        // The same walk from the reset state lands on the same state.
        assert_eq!(boot_to_l2(&mut g), entered);
        assert_eq!(g.observe_guest(), dirty);
    }

    #[test]
    fn svm_golden_vmcb_enters() {
        let mut g = SiliconGolden::new(HvConfig::default_for(CpuVendor::Amd));
        g.core.efer |= Efer::SVME;
        g.l1_stage_vmcb(0x5000, nf_silicon::golden_vmcb());
        match g.l1_exec(GuestInstr::Vmrun(0x5000)) {
            L1Result::L2Entered { runnable } => assert!(runnable),
            other => panic!("expected vmrun entry, got {other:?}"),
        }
        match g.l2_exec(GuestInstr::Hlt) {
            L2Result::ReflectedToL1(code) => {
                assert_eq!(code, SvmExitCode::Hlt as u32);
            }
            other => panic!("expected #VMEXIT, got {other:?}"),
        }
    }

    #[test]
    fn observation_tracks_vmx_state() {
        let mut g = intel_golden();
        let before = g.observe_guest();
        assert!(!before.vmx_on);
        assert_eq!(before.current_vmptr, u64::MAX);
        assert_eq!(before.vmcs12_digest, 0);
        assert!(matches!(boot_to_l2(&mut g), L1Result::L2Entered { .. }));
        let after = g.observe_guest();
        assert!(after.vmx_on && after.in_l2);
        assert_eq!(after.current_vmptr, 0x2000);
        assert_ne!(after.vmcs12_digest, 0);
    }
}
