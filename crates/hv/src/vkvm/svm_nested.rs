//! vkvm's nested SVM emulation (`svm/nested.c` analog).

use nf_silicon::{check_vmrun, golden_vmcb, svm_exit_for, GuestInstr};
use nf_vmx::vmcb::int_ctl;
use nf_vmx::{SvmExitCode, Vmcb};
use nf_x86::{CpuFeature, Efer};

use super::{ABlk, Vkvm, GUEST_MEM_LIMIT};
use crate::api::{L1Result, L2Result};

impl Vkvm {
    /// `nested_svm_run`: emulates `vmrun` from L1.
    pub(crate) fn nested_svm_run(&mut self, addr: u64) -> L1Result {
        self.cov_a(ABlk::HandleVmrunEntry);
        if !self.core.nested_on() || self.core.efer & Efer::SVME == 0 {
            self.cov_a(ABlk::VmrunNoSvm);
            return L1Result::Fault("#UD");
        }
        let Some(vmcb12) = self.core.vmcb12_mem.get(&addr).copied() else {
            self.cov_a(ABlk::VmrunBadVmcbAddr);
            return L1Result::Fault("#GP");
        };
        self.core.current_vmcb = Some(addr);

        // nested_vmcb_check_save: the save-area sanity checks KVM applies
        // before building VMCB02.
        self.cov_a(ABlk::NestedVmcbCheckSave);
        if let Err(failure) = check_vmrun(&vmcb12, true) {
            let arm = match failure.0.rule {
                "svm.cr0_upper" | "svm.cr0_nw_cd" => ABlk::SaveCr0Err,
                "svm.cr3_mbz" | "svm.cr4_reserved" | "svm.lme_pg_pae" | "svm.lme_pg_pe"
                | "svm.cs_l_d" => ABlk::SaveCr34Err,
                "svm.efer_reserved" | "svm.guest_svme" => ABlk::SaveEferErr,
                "svm.dr_upper" => ABlk::SaveDrErr,
                "svm.asid_zero" => ABlk::CtrlAsidErr,
                "svm.vmrun_intercept" => ABlk::CtrlVmrunInterceptErr,
                _ => ABlk::CtrlNpErr,
            };
            self.cov_a(arm);
            return self.svm_entry_fail_to_l1();
        }
        self.cov_a(ABlk::NestedVmcbCheckCtrl);

        // Nested paging plumbing: nCR3 must reference visible guest
        // memory (mmu_check_root, shared with the Intel path — Table 6
        // row 3 lists this bug on both vendors).
        let np = self.core.config.features.contains(CpuFeature::NestedPaging)
            && vmcb12.control.np_enable & 1 != 0;
        if np && vmcb12.control.ncr3 >= GUEST_MEM_LIMIT {
            self.cov_a(ABlk::NestedRootCheckFail);
            if !self.bugs.dummy_root_fixed {
                self.core.health.assert_that(
                    "kvm-spurious-triple-fault",
                    false,
                    "shutdown exit without L2 entry (nCR3 invisible)",
                );
                self.core.current_vmcb_mut().control.exitcode = SvmExitCode::Shutdown as u32 as u64;
                return L1Result::L2EntryFailed {
                    reason: SvmExitCode::Shutdown as u32,
                };
            }
            self.core
                .health
                .printk(6, "svm: using dummy root for invisible nCR3");
        }

        // prepare VMCB02.
        self.cov_a(ABlk::PrepVmcb02);
        let mut vmcb02 = golden_vmcb();
        vmcb02.save = vmcb12.save;
        vmcb02.control.intercepts = vmcb12.control.intercepts | golden_vmcb().control.intercepts;
        vmcb02.control.guest_asid = vmcb12.control.guest_asid.max(1);
        vmcb02.control.event_inj = vmcb12.control.event_inj;
        if np {
            self.cov_a(ABlk::PrepVmcb02Npt);
            vmcb02.control.np_enable = 1;
            vmcb02.control.ncr3 = golden_vmcb().control.ncr3;
        } else {
            vmcb02.control.np_enable = 0;
        }
        // KVM sanitizes int_ctl: AVIC is never enabled for L2, and vGIF
        // passes through only when the feature is configured.
        let mut ic = vmcb12.control.int_ctl & (int_ctl::V_INTR_MASKING | int_ctl::V_IGN_TPR);
        if self.core.config.features.contains(CpuFeature::Avic) {
            self.cov_a(ABlk::PrepVmcb02Avic);
        }
        if self.core.config.features.contains(CpuFeature::VGif) {
            self.cov_a(ABlk::PrepVmcb02VGif);
            ic |= vmcb12.control.int_ctl & (int_ctl::V_GIF | int_ctl::V_GIF_ENABLE);
        }
        vmcb02.control.int_ctl = ic;
        if self.core.config.features.contains(CpuFeature::Lbrv) {
            self.cov_a(ABlk::PrepVmcb02Lbr);
            vmcb02.control.lbr_ctl = vmcb12.control.lbr_ctl & 1;
        }

        // Hardware performs the real vmrun on VMCB02.
        match check_vmrun(&vmcb02, true) {
            Ok(outcome) => {
                self.cov_a(ABlk::VmrunOk);
                self.vmcb02 = Some(vmcb02);
                self.core.in_l2 = true;
                L1Result::L2Entered {
                    runnable: outcome.runnable,
                }
            }
            Err(failure) => {
                self.core.health.printk(
                    3,
                    format!("svm: vmcb02 rejected unexpectedly: {}", failure.0.rule),
                );
                self.svm_entry_fail_to_l1()
            }
        }
    }

    /// Delivers `VMEXIT_INVALID` to L1.
    fn svm_entry_fail_to_l1(&mut self) -> L1Result {
        self.cov_a(ABlk::EntryFailToL1Amd);
        self.core.current_vmcb_mut().control.exitcode = SvmExitCode::Invalid as u32 as u64;
        L1Result::L2EntryFailed {
            reason: SvmExitCode::Invalid as u32,
        }
    }

    pub(crate) fn handle_vmload(&mut self, addr: u64) -> L1Result {
        self.cov_a(ABlk::HandleVmload);
        if self.core.efer & Efer::SVME == 0 {
            return L1Result::Fault("#UD");
        }
        if !self.core.vmcb12_mem.contains_key(&addr) {
            return L1Result::Fault("#GP");
        }
        L1Result::Ok(0)
    }

    pub(crate) fn handle_vmsave(&mut self, addr: u64) -> L1Result {
        self.cov_a(ABlk::HandleVmsave);
        if self.core.efer & Efer::SVME == 0 {
            return L1Result::Fault("#UD");
        }
        if !self.core.vmcb12_mem.contains_key(&addr) {
            return L1Result::Fault("#GP");
        }
        L1Result::Ok(0)
    }

    /// Nested #VMEXIT dispatch for a live L2 (AMD side).
    pub(crate) fn l2_exec_svm(&mut self, instr: GuestInstr) -> L2Result {
        let vmcb02 = self.vmcb02.as_ref().expect("in_l2 implies vmcb02");
        let vmcb12 = *self.core.current_vmcb();
        // Same merge as the Intel side: KVM folds every intercept L1
        // programmed into VMCB02, so an L1-requested #VMEXIT always
        // occurs and carries the code L1's intercepts produce.
        let code12 = svm_exit_for(instr, &vmcb12);
        let Some(code) = code12.or_else(|| svm_exit_for(instr, vmcb02)) else {
            return L2Result::NoExit;
        };
        self.cov_a(ABlk::ExitDispatchAmd);
        self.cov_a(ABlk::ReflectDecideAmd);

        let reflect = code12.is_some();
        if reflect {
            self.cov_a(ABlk::SyncVmcb12);
            let save02 = self.vmcb02.as_ref().expect("live").save;
            let vmcb12m = self.core.current_vmcb_mut();
            vmcb12m.save = save02;
            vmcb12m.control.exitcode = code as u32 as u64;
            self.cov_a(ABlk::ReflectDeliverAmd);
            self.core.in_l2 = false;
            L2Result::ReflectedToL1(code as u32)
        } else {
            self.cov_a(ABlk::L0HandleAmd);
            let arm = match code {
                SvmExitCode::Msr => ABlk::EmuMsrAmd,
                SvmExitCode::Ioio => ABlk::EmuIoAmd,
                SvmExitCode::Cpuid => ABlk::EmuCpuidAmd,
                _ => ABlk::L0HandleAmd,
            };
            self.cov_a(arm);
            L2Result::HandledByL0
        }
    }

    /// Virtual-NMI plumbing (asynchronous events, out of fuzzing scope).
    pub fn handle_vnmi(&mut self) {
        self.cov_a(ABlk::VnmiArm);
    }

    /// Fault-injection arm for nested-state allocation on AMD.
    pub fn amd_alloc_failure(&mut self) {
        self.cov_a(ABlk::AllocFailAmd);
    }

    /// Returns whether the nested guest's VMRUN intercept is set — used
    /// by integration tests asserting intercept merging.
    pub fn vmcb02_intercepts(&self) -> Option<u64> {
        self.vmcb02.as_ref().map(|v| v.control.intercepts)
    }

    /// Exposes VMCB02's int_ctl for sanitization tests.
    pub fn vmcb02_int_ctl(&self) -> Option<u64> {
        self.vmcb02.as_ref().map(|v| v.control.int_ctl)
    }

    /// Stages a VMCB and runs it in one step (test helper mirroring the
    /// harness flow).
    pub fn stage_and_run(&mut self, addr: u64, vmcb: Vmcb) -> L1Result {
        use crate::api::L0Hypervisor;
        self.l1_stage_vmcb(addr, vmcb);
        self.l1_exec(GuestInstr::Vmrun(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{HvConfig, L0Hypervisor};
    use nf_vmx::vmcb::intercept;
    use nf_x86::CpuVendor;

    fn amd_kvm() -> Vkvm {
        let mut kvm = Vkvm::new(HvConfig::default_for(CpuVendor::Amd));
        kvm.core.efer |= Efer::SVME;
        kvm
    }

    #[test]
    fn golden_vmcb_enters_l2() {
        let mut kvm = amd_kvm();
        match kvm.stage_and_run(0x5000, golden_vmcb()) {
            L1Result::L2Entered { runnable } => assert!(runnable),
            other => panic!("expected L2 entry, got {other:?}"),
        }
        assert!(kvm.core.in_l2);
    }

    #[test]
    fn vmrun_without_svme_uds() {
        let mut kvm = amd_kvm();
        kvm.core.efer = Efer::LME | Efer::LMA;
        assert_eq!(
            kvm.stage_and_run(0x5000, golden_vmcb()),
            L1Result::Fault("#UD")
        );
    }

    #[test]
    fn asid_zero_fails_with_vmexit_invalid() {
        let mut kvm = amd_kvm();
        let mut vmcb = golden_vmcb();
        vmcb.control.guest_asid = 0;
        match kvm.stage_and_run(0x5000, vmcb) {
            L1Result::L2EntryFailed { reason } => {
                assert_eq!(reason, SvmExitCode::Invalid as u32)
            }
            other => panic!("expected entry failure, got {other:?}"),
        }
    }

    #[test]
    fn invalid_ncr3_triggers_spurious_shutdown_bug() {
        let mut kvm = amd_kvm();
        let mut vmcb = golden_vmcb();
        vmcb.control.ncr3 = GUEST_MEM_LIMIT + 0x1000;
        match kvm.stage_and_run(0x5000, vmcb) {
            L1Result::L2EntryFailed { reason } => {
                assert_eq!(reason, SvmExitCode::Shutdown as u32)
            }
            other => panic!("expected spurious shutdown, got {other:?}"),
        }
        assert!(kvm.health().anomalous(), "assertion report expected");
    }

    #[test]
    fn dummy_root_fix_suppresses_spurious_shutdown() {
        let mut kvm = amd_kvm();
        kvm.bugs.dummy_root_fixed = true;
        let mut vmcb = golden_vmcb();
        vmcb.control.ncr3 = GUEST_MEM_LIMIT + 0x1000;
        match kvm.stage_and_run(0x5000, vmcb) {
            L1Result::L2Entered { .. } => {}
            other => panic!("expected dummy-root entry, got {other:?}"),
        }
        assert!(!kvm.health().anomalous());
    }

    #[test]
    fn avic_never_enabled_for_l2() {
        let mut cfg = HvConfig::default_for(CpuVendor::Amd);
        cfg.features.insert(CpuFeature::Avic);
        let mut kvm = Vkvm::new(cfg);
        kvm.core.efer |= Efer::SVME;
        let mut vmcb = golden_vmcb();
        vmcb.control.int_ctl = int_ctl::AVIC_ENABLE | int_ctl::V_INTR_MASKING;
        match kvm.stage_and_run(0x5000, vmcb) {
            L1Result::L2Entered { .. } => {}
            other => panic!("{other:?}"),
        }
        let ic = kvm.vmcb02_int_ctl().unwrap();
        assert_eq!(ic & int_ctl::AVIC_ENABLE, 0, "KVM sanitizes AVIC for L2");
        assert_ne!(ic & int_ctl::V_INTR_MASKING, 0);
    }

    #[test]
    fn l2_exits_reflect_per_vmcb12_intercepts() {
        let mut kvm = amd_kvm();
        let mut vmcb = golden_vmcb();
        vmcb.control.intercepts |= intercept::PAUSE;
        assert!(matches!(
            kvm.stage_and_run(0x5000, vmcb),
            L1Result::L2Entered { .. }
        ));
        // PAUSE intercepted by L1's VMCB -> reflected.
        assert_eq!(
            kvm.l2_exec(GuestInstr::Pause),
            L2Result::ReflectedToL1(SvmExitCode::Pause as u32)
        );
        assert!(!kvm.core.in_l2);
    }

    #[test]
    fn l2_nop_runs_natively() {
        let mut kvm = amd_kvm();
        assert!(matches!(
            kvm.stage_and_run(0x5000, golden_vmcb()),
            L1Result::L2Entered { .. }
        ));
        assert_eq!(kvm.l2_exec(GuestInstr::Nop), L2Result::NoExit);
        assert!(kvm.core.in_l2);
    }
}
