//! vxen — the Xen 4.18 model.
//!
//! Xen's nested virtualization (`vvmx.c` / `nestedsvm.c`) differs from
//! KVM's in the failure modes the paper found (Table 6 rows 4–6), all
//! seeded here:
//!
//! - **Activity-state pass-through** (Intel, fixed by citation \[11\]): vxen copies
//!   the VMCS12 activity state into VMCS02 without sanitizing it. A
//!   WAIT-FOR-SIPI guest enters and never runs; the host spins waiting
//!   for an exit and the watchdog declares the whole machine hung.
//! - **`LMA && !PG` corruption** (AMD, Xen issue #216): the APM permits
//!   a VMCB with `EFER.LMA = 1` and `CR0.PG = 0`; vxen's merge assumes it
//!   cannot happen and corrupts `int_ctl`, erroneously enabling AVIC and
//!   producing an `AVIC_NOACCEL` exit that an assertion rejects.
//! - **VGIF assertion** (AMD, Xen issue #215): on a failed `vmrun`,
//!   `nsvm_vcpu_vmexit_inject()` assumes the virtual GIF is set whenever
//!   VGIF is enabled; an L1 that enables VGIF with `V_GIF = 0` and then
//!   fails a `vmrun` trips the `ASSERT(vgif)`.

mod blocks;

pub use blocks::{XABlk, XIBlk};

use nf_silicon::vmentry::EntryFailure;
use nf_silicon::{
    check_vmrun, golden_vmcb, launch_state_check, svm_exit_for, vmclear_check, vmptrld_check,
    vmread_check, vmwrite_check, vmx_exit_for, vmxon_check, GuestInstr, VmInstrError,
};
use nf_vmx::controls::proc2;
use nf_vmx::vmcb::int_ctl;
use nf_vmx::{ExitReason, MsrArea, SvmExitCode, Vmcb, VmcsField, VmcsState, VmxCapabilities};
use nf_x86::{CpuFeature, CpuVendor, Cr0, Cr4, Efer};

use std::sync::OnceLock;

use crate::api::{HvConfig, IoctlOp, L0Hypervisor, L1Result, L2Result};
use crate::l1::NestedL1State;
use crate::Instrumentation;

/// Seeded-bug switches for vxen; `false` = vulnerable (as evaluated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VxenBugs {
    /// Sanitize the VMCS12 activity state (the fix of citation \[11\]).
    pub activity_state_fixed: bool,
    /// Reject `LMA && !PG` VMCBs before merging (issue #216 fix).
    pub lma_pg_fixed: bool,
    /// Tolerate `vgif == 0` in the exit-injection path (issue #215 fix).
    pub vgif_assert_fixed: bool,
}

/// vxen's instrumentation (`vmx/vvmx.c`, then `svm/nestedsvm.c`),
/// registered once per process.
fn instrumentation() -> &'static Instrumentation {
    static COV: OnceLock<Instrumentation> = OnceLock::new();
    COV.get_or_init(|| {
        Instrumentation::register(
            ("xen/arch/x86/hvm/vmx/vvmx.c", XIBlk::register),
            Some(("xen/arch/x86/hvm/svm/nestedsvm.c", XABlk::register)),
        )
    })
}

/// The Xen model.
pub struct Vxen {
    /// The L1 state every backend shares.
    core: NestedL1State,
    exposed_caps: VmxCapabilities,
    /// Capabilities of the physical CPU underneath.
    pub(crate) hw_caps: VmxCapabilities,
    /// Bug switches.
    pub bugs: VxenBugs,

    /// Set when the merge corrupted int_ctl (bug #5): the next L2 action
    /// produces the spurious `AVIC_NOACCEL` exit.
    avic_corrupted: bool,
    vmcb02: Option<Vmcb>,
}

impl Vxen {
    /// Boots a vxen host with `config`.
    pub fn new(config: HvConfig) -> Self {
        let exposed = config.features.sanitized(config.vendor);
        Vxen {
            exposed_caps: VmxCapabilities::from_features(exposed),
            hw_caps: crate::hw_caps(config.vendor),
            bugs: VxenBugs::default(),
            core: NestedL1State::new(config, instrumentation()),
            avic_corrupted: false,
            vmcb02: None,
        }
    }

    fn cov_i(&mut self, b: XIBlk) {
        self.core.hit_intel(b.idx());
    }

    fn cov_a(&mut self, b: XABlk) {
        self.core.hit_amd(b.idx());
    }

    // --- Intel (vvmx.c) -------------------------------------------------

    fn nvmx_run(&mut self, launch: bool) -> L1Result {
        self.cov_i(XIBlk::NvmxRunEntry);
        if self.core.vmxon_region.is_none() {
            return L1Result::Fault("#UD");
        }
        if self.core.current_vmptr.is_none() {
            self.cov_i(XIBlk::VmFailHelpers);
            return L1Result::VmFail(VmInstrError::FailInvalid);
        }
        if let Err(e) = launch_state_check(self.core.current_vmcs().state, !launch) {
            self.cov_i(XIBlk::NvmxLaunchStateErr);
            return L1Result::VmFail(e);
        }
        let vmcs12 = self.core.current_vmcs().clone();

        self.cov_i(XIBlk::CheckCtls);
        let exposed = self.exposed_caps.clone();
        if nf_silicon::check_vm_controls(&vmcs12, &exposed).is_err() {
            self.cov_i(XIBlk::CtlsErrArm);
            return L1Result::VmFail(VmInstrError::EntryInvalidControls);
        }
        self.cov_i(XIBlk::CheckHost);
        if nf_silicon::check_host_state(&vmcs12, &exposed).is_err() {
            self.cov_i(XIBlk::HostErrArm);
            return L1Result::VmFail(VmInstrError::EntryInvalidHostState);
        }
        self.cov_i(XIBlk::CheckGuest);
        if let Err(EntryFailure::InvalidGuestState(_)) =
            nf_silicon::check_guest_state(&vmcs12, &exposed)
        {
            self.cov_i(XIBlk::GuestErrArm);
            return self.nvmx_entry_fail(ExitReason::EntryFailGuestState);
        }
        // NOTE: unlike KVM, vxen does NOT restrict the activity state —
        // the pass-through below is bug #4. The fixed code rejects
        // anything beyond Active/HLT here.
        let act = vmcs12.read(VmcsField::GuestActivityState);
        if self.bugs.activity_state_fixed && act > 1 {
            self.cov_i(XIBlk::GuestErrArm);
            return self.nvmx_entry_fail(ExitReason::EntryFailGuestState);
        }

        self.cov_i(XIBlk::MsrLoadChecks);
        if let Some(area) = self.core.entry_msr_load(&vmcs12) {
            if nf_silicon::check_msr_load(&area).is_err() {
                self.cov_i(XIBlk::MsrLoadErr);
                return self.nvmx_entry_fail(ExitReason::EntryFailMsrLoad);
            }
        }

        // Merge into VMCS02.
        self.cov_i(XIBlk::Prep02);
        self.cov_i(XIBlk::VvmcsAccess);
        let hw = self.hw_caps.clone();
        let mut vmcs02 = crate::vmcs02_template(self.core.config.vendor).clone();
        vmcs02.copy_guest_state_from(&vmcs12);
        vmcs02.write(VmcsField::VmcsLinkPointer, u64::MAX);
        for f in [
            VmcsField::Cr0GuestHostMask,
            VmcsField::Cr4GuestHostMask,
            VmcsField::Cr0ReadShadow,
            VmcsField::Cr4ReadShadow,
            VmcsField::ExceptionBitmap,
        ] {
            vmcs02.write(f, vmcs12.read(f));
        }
        let proc12 = vmcs12.read(VmcsField::CpuBasedVmExecControl) as u32;
        let proc212 = vmcs12.read(VmcsField::SecondaryVmExecControl) as u32;
        vmcs02.write(
            VmcsField::CpuBasedVmExecControl,
            hw.round_control(
                nf_vmx::CtrlKind::ProcBased,
                proc12 | vmcs02.read(VmcsField::CpuBasedVmExecControl) as u32,
            ) as u64,
        );
        vmcs02.write(
            VmcsField::VmEntryControls,
            hw.round_control(
                nf_vmx::CtrlKind::Entry,
                vmcs12.read(VmcsField::VmEntryControls) as u32,
            ) as u64,
        );
        let ept_on = self.core.config.features.contains(CpuFeature::Ept);
        if ept_on && proc212 & proc2::ENABLE_EPT != 0 {
            self.cov_i(XIBlk::Prep02Ept);
            let eptp12 = vmcs12.read(VmcsField::EptPointer);
            if !nf_silicon::eptp_valid(eptp12) {
                self.cov_i(XIBlk::Prep02EptErr);
                return self.nvmx_entry_fail(ExitReason::EntryFailGuestState);
            }
            vmcs02.write(VmcsField::EptPointer, nf_silicon::GOLDEN_EPTP);
        } else {
            self.cov_i(XIBlk::Prep02ShadowPath);
            let p2 = vmcs02.read(VmcsField::SecondaryVmExecControl) as u32 & !proc2::ENABLE_EPT;
            vmcs02.write(VmcsField::SecondaryVmExecControl, p2 as u64);
            vmcs02.write(VmcsField::EptPointer, 0);
        }

        // BUG #4 (Table 6 row 4): the activity state is copied verbatim
        // from VMCS12 into VMCS02 — including SHUTDOWN / WAIT-FOR-SIPI.
        self.cov_i(XIBlk::ActivityCopy);
        vmcs02.write(VmcsField::GuestActivityState, act);

        match nf_silicon::try_vmentry(&vmcs02, &hw, &MsrArea::new()) {
            Ok(outcome) => {
                self.cov_i(XIBlk::Prep02Ok);
                self.core.vmcs02 = Some(vmcs02);
                self.core.in_l2 = true;
                self.core.current_vmcs_mut().state = VmcsState::Launched;
                if !outcome.runnable && act == 3 {
                    // The WAIT-FOR-SIPI guest blocks every interrupt but
                    // SIPIs; vxen spins in the entry path and the whole
                    // host stops making progress.
                    self.core.health.watchdog_hang(
                        "xen-wait-for-sipi",
                        "watchdog: host unresponsive after nested entry (activity=wait-for-SIPI)",
                    );
                    return L1Result::HostDead;
                }
                L1Result::L2Entered {
                    runnable: outcome.runnable,
                }
            }
            Err(_) => {
                self.cov_i(XIBlk::EntryFailDeliver);
                self.nvmx_entry_fail(ExitReason::EntryFailGuestState)
            }
        }
    }

    fn nvmx_entry_fail(&mut self, reason: ExitReason) -> L1Result {
        self.cov_i(XIBlk::EntryFailDeliver);
        let encoded = reason.encode(true);
        self.core
            .current_vmcs_mut()
            .write(VmcsField::VmExitReason, encoded as u64);
        L1Result::L2EntryFailed { reason: encoded }
    }

    fn l2_exec_vmx(&mut self, instr: GuestInstr) -> L2Result {
        let vmcs02 = self.core.vmcs02.as_ref().expect("in_l2");
        let Some(reason) = vmx_exit_for(instr, vmcs02) else {
            return L2Result::NoExit;
        };
        self.cov_i(XIBlk::L2ExitDispatch);
        self.cov_i(XIBlk::ReflectDecide);
        let reflect = reason.is_vmx_instruction()
            || reason == ExitReason::Cpuid
            || reason == ExitReason::Xsetbv
            || vmx_exit_for(instr, self.core.current_vmcs()).is_some();
        if reflect {
            self.cov_i(XIBlk::Sync12);
            self.cov_i(XIBlk::VvmcsSync);
            let encoded = reason.encode(false);
            self.core
                .sync_vmcs12_guest_state()
                .write(VmcsField::VmExitReason, encoded as u64);
            self.cov_i(XIBlk::ReflectDeliver);
            if reason == ExitReason::ExceptionNmi {
                self.cov_i(XIBlk::InjectToL1);
            }
            self.core.in_l2 = false;
            L2Result::ReflectedToL1(encoded)
        } else {
            self.cov_i(XIBlk::L0Handle);
            self.cov_i(XIBlk::EmuArms);
            self.cov_i(XIBlk::ResumeL2);
            L2Result::HandledByL0
        }
    }

    // --- AMD (nestedsvm.c) ----------------------------------------------

    fn nsvm_run(&mut self, addr: u64) -> L1Result {
        self.cov_a(XABlk::SvmRunEntry);
        if !self.core.nested_on() || self.core.efer & Efer::SVME == 0 {
            self.cov_a(XABlk::SvmNoSvmErr);
            return L1Result::Fault("#UD");
        }
        let Some(vmcb12) = self.core.vmcb12_mem.get(&addr).copied() else {
            self.cov_a(XABlk::VmcbAddrErr);
            return L1Result::Fault("#GP");
        };
        self.core.current_vmcb = Some(addr);

        self.cov_a(XABlk::CheckSave);
        if let Err(failure) = check_vmrun(&vmcb12, true) {
            let arm = match failure.0.rule {
                "svm.asid_zero" | "svm.vmrun_intercept" => XABlk::CtrlErrArm,
                _ => XABlk::SaveErrArm,
            };
            self.cov_a(arm);
            // BUG #6 (Table 6 row 6): the failed vmrun is reported to L1
            // through nsvm_vcpu_vmexit_inject(), which asserts that the
            // virtual GIF is set whenever VGIF is enabled.
            return self.nsvm_vmexit_inject(SvmExitCode::Invalid as u32, &vmcb12);
        }
        self.cov_a(XABlk::CheckCtrl);

        // FIXED code rejects the ambiguous LMA && !PG state up front.
        let lma_no_pg = vmcb12.save.efer & Efer::LMA != 0 && vmcb12.save.cr0 & Cr0::PG == 0;
        if self.bugs.lma_pg_fixed && lma_no_pg {
            self.cov_a(XABlk::SaveErrArm);
            return self.nsvm_vmexit_inject(SvmExitCode::Invalid as u32, &vmcb12);
        }

        self.cov_a(XABlk::VmcbMerge);
        self.cov_a(XABlk::MsrpmMerge);
        self.cov_a(XABlk::IopmMerge);
        self.cov_a(XABlk::TlbCtl);
        let mut vmcb02 = golden_vmcb();
        vmcb02.save = vmcb12.save;
        vmcb02.control.intercepts = vmcb12.control.intercepts | golden_vmcb().control.intercepts;
        vmcb02.control.guest_asid = vmcb12.control.guest_asid.max(1);

        let np = self.core.config.features.contains(CpuFeature::NestedPaging)
            && vmcb12.control.np_enable & 1 != 0;
        if np {
            self.cov_a(XABlk::MergeNp);
            if !nf_x86::addr::phys_in_width(vmcb12.control.ncr3) {
                self.cov_a(XABlk::MergeNpErr);
                return self.nsvm_vmexit_inject(SvmExitCode::Invalid as u32, &vmcb12);
            }
            vmcb02.control.np_enable = 1;
        } else {
            vmcb02.control.np_enable = 0;
        }

        // int_ctl merge — BUG #5 (Table 6 row 5) lives here: with the
        // ambiguous LMA && !PG state the mode bookkeeping underflows and
        // the AVIC-enable bit leaks into VMCB02.
        self.cov_a(XABlk::MergeIntCtl);
        let mut ic = vmcb12.control.int_ctl & (int_ctl::V_INTR_MASKING | int_ctl::V_IGN_TPR);
        if self.core.config.features.contains(CpuFeature::VGif) {
            self.cov_a(XABlk::MergeVgif);
            ic |= vmcb12.control.int_ctl & (int_ctl::V_GIF | int_ctl::V_GIF_ENABLE);
        }
        if self.core.config.features.contains(CpuFeature::Avic) {
            self.cov_a(XABlk::MergeAvic);
        }
        if lma_no_pg && !self.bugs.lma_pg_fixed {
            ic |= int_ctl::AVIC_ENABLE;
            self.avic_corrupted = true;
        }
        vmcb02.control.int_ctl = ic;
        if self.core.config.features.contains(CpuFeature::Lbrv) {
            self.cov_a(XABlk::MergeLbr);
        }

        match check_vmrun(&vmcb02, true) {
            Ok(outcome) => {
                self.cov_a(XABlk::VmrunOk);
                if self.avic_corrupted {
                    // BUG #5 epilogue: the corrupted AVIC enable makes
                    // the (stalled) guest's very first fetch produce an
                    // AVIC_NOACCEL exit Xen cannot handle.
                    self.avic_corrupted = false;
                    self.cov_a(XABlk::L2Dispatch);
                    self.core.health.assert_that(
                        "xen-avic-noaccel",
                        false,
                        "unexpected VMEXIT_AVIC_NOACCEL without AVIC support",
                    );
                    self.core.current_vmcb_mut().control.exitcode =
                        SvmExitCode::AvicNoaccel as u32 as u64;
                    return L1Result::L2EntryFailed {
                        reason: SvmExitCode::AvicNoaccel as u32,
                    };
                }
                self.vmcb02 = Some(vmcb02);
                self.core.in_l2 = true;
                L1Result::L2Entered {
                    runnable: outcome.runnable,
                }
            }
            Err(_) => self.nsvm_vmexit_inject(SvmExitCode::Invalid as u32, &vmcb12),
        }
    }

    /// `nsvm_vcpu_vmexit_inject()`: reports a #VMEXIT to L1 — with the
    /// VGIF assertion of Xen issue #215.
    fn nsvm_vmexit_inject(&mut self, code: u32, vmcb12: &Vmcb) -> L1Result {
        self.cov_a(XABlk::VmexitInvalid);
        self.cov_a(XABlk::VmexitInject);
        let vgif_enabled = self.core.config.features.contains(CpuFeature::VGif)
            && vmcb12.control.int_ctl & int_ctl::V_GIF_ENABLE != 0;
        if vgif_enabled && !self.bugs.vgif_assert_fixed {
            let vgif_set = vmcb12.control.int_ctl & int_ctl::V_GIF != 0;
            if self
                .core
                .health
                .assert_that("xen-vgif-assert", vgif_set, "vmcb->_vintr.fields.vgif")
            {
                // Debug builds crash the host on a failed ASSERT.
                return L1Result::HostDead;
            }
        }
        self.core.current_vmcb_mut().control.exitcode = code as u64;
        L1Result::L2EntryFailed { reason: code }
    }

    fn l2_exec_svm(&mut self, instr: GuestInstr) -> L2Result {
        let vmcb02 = self.vmcb02.as_ref().expect("in_l2");
        let Some(code) = svm_exit_for(instr, vmcb02) else {
            return L2Result::NoExit;
        };
        self.cov_a(XABlk::L2Dispatch);
        self.cov_a(XABlk::ReflectDecideA);
        let reflect =
            code.is_svm_instruction() || svm_exit_for(instr, self.core.current_vmcb()).is_some();
        if reflect {
            self.cov_a(XABlk::Sync12A);
            let save02 = self.vmcb02.as_ref().expect("live").save;
            let vmcb12m = self.core.current_vmcb_mut();
            vmcb12m.save = save02;
            vmcb12m.control.exitcode = code as u32 as u64;
            self.cov_a(XABlk::ReflectDeliverA);
            self.core.in_l2 = false;
            L2Result::ReflectedToL1(code as u32)
        } else {
            self.cov_a(XABlk::L0HandleA);
            self.cov_a(XABlk::EmuArmsA);
            L2Result::HandledByL0
        }
    }
}

impl L0Hypervisor for Vxen {
    fn name(&self) -> &'static str {
        "vxen"
    }

    fn core(&self) -> &NestedL1State {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NestedL1State {
        &mut self.core
    }

    fn reset_guest(&mut self) {
        self.core.reset();
        self.avic_corrupted = false;
        self.vmcb02 = None;
    }

    fn l1_exec(&mut self, instr: GuestInstr) -> L1Result {
        if let Some(r) = self.core.l1_preamble() {
            return r;
        }
        use GuestInstr::*;
        match (self.core.config.vendor, instr) {
            (CpuVendor::Intel, Vmxon(addr)) => {
                self.cov_i(XIBlk::NvmxHandleVmxon);
                if !self.core.nested_on() || self.core.cr4 & Cr4::VMXE == 0 {
                    self.cov_i(XIBlk::NvmxVmxonErr);
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
                    self.cov_i(XIBlk::NvmxVmxonErr);
                    return L1Result::Fault("#GP");
                }
                self.cov_i(XIBlk::NvmxSetupDomain);
                self.core.vmxon_region = Some(addr);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmxoff) => {
                self.cov_i(XIBlk::NvmxHandleVmxoff);
                self.core.vmxoff();
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmclear(addr)) => {
                self.cov_i(XIBlk::NvmxHandleVmclear);
                let Some(vmxon) = self.core.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                if let Err(e) = vmclear_check(addr, vmxon) {
                    self.cov_i(XIBlk::NvmxVmclearErr);
                    return L1Result::VmFail(e);
                }
                self.core.vmclear(addr, self.exposed_caps.revision_id);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmptrld(addr)) => {
                self.cov_i(XIBlk::NvmxHandleVmptrld);
                let Some(vmxon) = self.core.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                let rev = self.exposed_caps.revision_id;
                let region_rev = self.core.staged_revision(addr, rev);
                if let Err(e) = vmptrld_check(addr, vmxon, region_rev, rev) {
                    self.cov_i(XIBlk::NvmxVmptrldErr);
                    return L1Result::VmFail(e);
                }
                self.core.vmptrld(addr, rev);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmptrst) => {
                self.cov_i(XIBlk::NvmxHandleVmptrld);
                L1Result::Ok(self.core.current_vmptr.unwrap_or(u64::MAX))
            }
            (CpuVendor::Intel, Vmread(enc)) => {
                self.cov_i(XIBlk::NvmxHandleVmread);
                if self.core.current_vmptr.is_none() {
                    self.cov_i(XIBlk::NvmxVmreadErr);
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                match vmread_check(enc) {
                    Err(e) => {
                        self.cov_i(XIBlk::NvmxVmreadErr);
                        L1Result::VmFail(e)
                    }
                    Ok(field) => L1Result::Ok(self.core.current_vmcs().read(field)),
                }
            }
            (CpuVendor::Intel, Vmwrite(enc, val)) => {
                self.cov_i(XIBlk::NvmxHandleVmwrite);
                if self.core.current_vmptr.is_none() {
                    self.cov_i(XIBlk::NvmxVmwriteErr);
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                match vmwrite_check(enc) {
                    Err(e) => {
                        self.cov_i(XIBlk::NvmxVmwriteErr);
                        L1Result::VmFail(e)
                    }
                    Ok(field) => {
                        self.core.current_vmcs_mut().write(field, val);
                        L1Result::Ok(0)
                    }
                }
            }
            (CpuVendor::Intel, Vmlaunch) => self.nvmx_run(true),
            (CpuVendor::Intel, Vmresume) => self.nvmx_run(false),
            (CpuVendor::Intel, Vmcall) => {
                self.cov_i(XIBlk::NvmxIntrIntercept);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Invept(t)) | (CpuVendor::Intel, Invvpid(t)) => {
                self.cov_i(XIBlk::NvmxHandleInveptInvvpid);
                if t > 3 {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Rdmsr(idx))
                if (nf_x86::Msr::VmxBasic.index()..=nf_x86::Msr::VmxVmfunc.index())
                    .contains(&idx) =>
            {
                self.cov_i(XIBlk::NvmxMsrRead);
                L1Result::Ok(self.exposed_caps.revision_id as u64)
            }
            (CpuVendor::Intel, Vmrun(_) | Vmload(_) | Vmsave(_) | Stgi | Clgi | Skinit) => {
                L1Result::Fault("#UD")
            }

            (CpuVendor::Amd, Vmrun(addr)) => self.nsvm_run(addr),
            (CpuVendor::Amd, Vmload(addr)) => {
                self.cov_a(XABlk::HandleVmloadX);
                if self.core.vmcb12_mem.contains_key(&addr) {
                    L1Result::Ok(0)
                } else {
                    L1Result::Fault("#GP")
                }
            }
            (CpuVendor::Amd, Vmsave(addr)) => {
                self.cov_a(XABlk::HandleVmsaveX);
                if self.core.vmcb12_mem.contains_key(&addr) {
                    L1Result::Ok(0)
                } else {
                    L1Result::Fault("#GP")
                }
            }
            (CpuVendor::Amd, Stgi) => {
                self.cov_a(XABlk::HandleStgiX);
                L1Result::Ok(0)
            }
            (CpuVendor::Amd, Clgi) => {
                self.cov_a(XABlk::HandleClgiX);
                L1Result::Ok(0)
            }
            (CpuVendor::Amd, Vmmcall) => {
                self.cov_a(XABlk::HandleVmmcallX);
                L1Result::Ok(0)
            }
            (
                CpuVendor::Amd,
                Vmxon(_) | Vmxoff | Vmclear(_) | Vmptrld(_) | Vmptrst | Vmread(_) | Vmwrite(..)
                | Vmlaunch | Vmresume | Invept(_) | Invvpid(_) | Skinit,
            ) => L1Result::Fault("#UD"),

            (_, MovToCr(nf_silicon::CrIndex::Cr0, v)) => {
                self.core.cr0 = v;
                L1Result::Ok(0)
            }
            (_, MovToCr(nf_silicon::CrIndex::Cr4, v)) => {
                self.core.cr4 = v;
                L1Result::Ok(0)
            }
            (_, Wrmsr(idx, v)) if idx == nf_x86::Msr::Efer.index() => {
                if Efer::new(v).check_reserved().is_err() {
                    return L1Result::Fault("#GP");
                }
                self.core.efer = v;
                L1Result::Ok(0)
            }
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
            (CpuVendor::Intel, IoctlOp::GetNestedState) => self.cov_i(XIBlk::MigrationSave),
            (CpuVendor::Intel, IoctlOp::SetNestedState) => self.cov_i(XIBlk::MigrationRestore),
            (CpuVendor::Intel, IoctlOp::FreeNestedState | IoctlOp::HardwareUnsetup) => {
                self.cov_i(XIBlk::NvmxTeardown)
            }
            (CpuVendor::Intel, IoctlOp::HardwareSetup) => self.cov_i(XIBlk::NvmxSetupDomain),
            (CpuVendor::Amd, IoctlOp::HardwareSetup | IoctlOp::SetNestedState) => {
                self.cov_a(XABlk::HostIoctlSvm)
            }
            (CpuVendor::Amd, _) => self.cov_a(XABlk::SvmTeardown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitizer::CrashKind;
    use nf_silicon::golden_vmcs;

    fn intel_xen() -> Vxen {
        let mut xen = Vxen::new(HvConfig::default_for(CpuVendor::Intel));
        xen.core.cr4 |= Cr4::VMXE;
        xen
    }

    fn init_to_vmptrld(xen: &mut Vxen) {
        assert_eq!(xen.l1_exec(GuestInstr::Vmxon(0x1000)), L1Result::Ok(0));
        assert_eq!(xen.l1_exec(GuestInstr::Vmclear(0x2000)), L1Result::Ok(0));
        assert_eq!(xen.l1_exec(GuestInstr::Vmptrld(0x2000)), L1Result::Ok(0));
    }

    fn write_golden(xen: &mut Vxen) {
        let golden = golden_vmcs(&xen.exposed_caps);
        for &f in VmcsField::ALL {
            if f.writable() {
                xen.l1_exec(GuestInstr::Vmwrite(f.encoding(), golden.read(f)));
            }
        }
    }

    #[test]
    fn golden_state_enters_l2() {
        let mut xen = intel_xen();
        init_to_vmptrld(&mut xen);
        write_golden(&mut xen);
        assert!(matches!(
            xen.l1_exec(GuestInstr::Vmlaunch),
            L1Result::L2Entered { runnable: true }
        ));
    }

    #[test]
    fn wait_for_sipi_hangs_the_host() {
        let mut xen = intel_xen();
        init_to_vmptrld(&mut xen);
        write_golden(&mut xen);
        xen.l1_exec(GuestInstr::Vmwrite(
            VmcsField::GuestActivityState.encoding(),
            3,
        ));
        assert_eq!(xen.l1_exec(GuestInstr::Vmlaunch), L1Result::HostDead);
        assert!(xen.health().dead);
        assert_eq!(xen.health().reports[0].kind, CrashKind::HostHang);
        assert_eq!(xen.health().reports[0].bug_id, "xen-wait-for-sipi");
    }

    #[test]
    fn activity_fix_rejects_wait_for_sipi() {
        let mut xen = intel_xen();
        xen.bugs.activity_state_fixed = true;
        init_to_vmptrld(&mut xen);
        write_golden(&mut xen);
        xen.l1_exec(GuestInstr::Vmwrite(
            VmcsField::GuestActivityState.encoding(),
            3,
        ));
        assert!(matches!(
            xen.l1_exec(GuestInstr::Vmlaunch),
            L1Result::L2EntryFailed { .. }
        ));
        assert!(!xen.health().dead);
    }

    fn amd_xen(vgif: bool) -> Vxen {
        let mut cfg = HvConfig::default_for(CpuVendor::Amd);
        if vgif {
            cfg.features.insert(CpuFeature::VGif);
        }
        let mut xen = Vxen::new(cfg);
        xen.core.efer |= Efer::SVME;
        xen
    }

    #[test]
    fn lma_without_pg_corrupts_avic() {
        let mut xen = amd_xen(false);
        let mut vmcb = golden_vmcb();
        vmcb.save.cr0 &= !Cr0::PG; // EFER still has LMA: the ambiguous state.
        xen.l1_stage_vmcb(0x5000, vmcb);
        // The corrupted entry produces the spurious AVIC_NOACCEL exit
        // before the stalled guest ever executes.
        assert_eq!(
            xen.l1_exec(GuestInstr::Vmrun(0x5000)),
            L1Result::L2EntryFailed {
                reason: SvmExitCode::AvicNoaccel as u32
            }
        );
        assert!(xen.health().anomalous());
        assert_eq!(xen.health().reports[0].bug_id, "xen-avic-noaccel");
    }

    #[test]
    fn lma_pg_fix_rejects_ambiguous_state() {
        let mut xen = amd_xen(false);
        xen.bugs.lma_pg_fixed = true;
        let mut vmcb = golden_vmcb();
        vmcb.save.cr0 &= !Cr0::PG;
        xen.l1_stage_vmcb(0x5000, vmcb);
        assert!(matches!(
            xen.l1_exec(GuestInstr::Vmrun(0x5000)),
            L1Result::L2EntryFailed { .. }
        ));
        assert!(!xen.health().anomalous());
    }

    #[test]
    fn vgif_assert_on_failed_vmrun() {
        let mut xen = amd_xen(true);
        let mut vmcb = golden_vmcb();
        vmcb.control.int_ctl |= int_ctl::V_GIF_ENABLE; // vGIF on, V_GIF = 0
        vmcb.save.cr4 = 1 << 15; // reserved CR4 bit -> vmrun fails
        xen.l1_stage_vmcb(0x5000, vmcb);
        assert_eq!(xen.l1_exec(GuestInstr::Vmrun(0x5000)), L1Result::HostDead);
        assert!(xen.health().anomalous());
        assert_eq!(xen.health().reports[0].bug_id, "xen-vgif-assert");
        assert_eq!(xen.health().reports[0].kind, CrashKind::AssertFail);
    }

    #[test]
    fn vgif_fix_reports_clean_failure() {
        let mut xen = amd_xen(true);
        xen.bugs.vgif_assert_fixed = true;
        let mut vmcb = golden_vmcb();
        vmcb.control.int_ctl |= int_ctl::V_GIF_ENABLE;
        vmcb.save.cr4 = 1 << 15;
        xen.l1_stage_vmcb(0x5000, vmcb);
        assert!(matches!(
            xen.l1_exec(GuestInstr::Vmrun(0x5000)),
            L1Result::L2EntryFailed { .. }
        ));
        assert!(!xen.health().anomalous());
    }

    #[test]
    fn vgif_set_does_not_assert() {
        let mut xen = amd_xen(true);
        let mut vmcb = golden_vmcb();
        vmcb.control.int_ctl |= int_ctl::V_GIF_ENABLE | int_ctl::V_GIF;
        vmcb.save.cr4 = 1 << 15;
        xen.l1_stage_vmcb(0x5000, vmcb);
        assert!(matches!(
            xen.l1_exec(GuestInstr::Vmrun(0x5000)),
            L1Result::L2EntryFailed { .. }
        ));
        assert!(!xen.health().anomalous());
    }
}
