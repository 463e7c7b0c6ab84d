//! vkvm's nested VMX emulation (`vmx/nested.c` analog).

use nf_silicon::vmentry::EntryFailure;
use nf_silicon::{
    launch_state_check, vmclear_check, vmptrld_check, vmread_check, vmwrite_check, vmx_exit_for,
    vmxon_check, GuestInstr, VmInstrError,
};
use nf_vmx::controls::{entry as ec, proc, proc2};
use nf_vmx::{ExitReason, MsrArea, Vmcs, VmcsField, VmcsState};
use nf_x86::{CpuFeature, Cr0, Cr4, Efer, PagingMode};

use super::{IBlk, Vkvm, GUEST_MEM_LIMIT};
use crate::api::L1Result;

impl Vkvm {
    pub(crate) fn handle_vmxon(&mut self, addr: u64) -> L1Result {
        self.cov_i(IBlk::HandleVmxon);
        if !self.core.nested_on() {
            self.cov_i(IBlk::VmxonNotEnabled);
            return L1Result::Fault("#UD");
        }
        if self.core.cr4 & Cr4::VMXE == 0 {
            self.cov_i(IBlk::VmxonNotEnabled);
            return L1Result::Fault("#UD");
        }
        if let Err(_e) = vmxon_check(
            Cr0::new(self.core.cr0),
            Cr4::new(self.core.cr4),
            Efer::new(self.core.efer),
            addr,
        ) {
            // Distinguish register preconditions (#GP) from a bad region.
            if !nf_x86::addr::page_aligned(addr) || !nf_x86::addr::phys_in_width(addr) {
                self.cov_i(IBlk::VmxonBadAddr);
                return L1Result::VmFail(VmInstrError::FailInvalid);
            }
            self.cov_i(IBlk::VmxonGp);
            return L1Result::Fault("#GP");
        }
        self.cov_i(IBlk::VmxonOk);
        // First vmxon sets up the nested MSR/control state
        // (nested_vmx_setup_ctls_msrs analog).
        self.cov_i(IBlk::NestedEarlyInit);
        self.core.vmxon_region = Some(addr);
        L1Result::Ok(0)
    }

    pub(crate) fn handle_vmxoff(&mut self) -> L1Result {
        self.cov_i(IBlk::HandleVmxoff);
        if self.core.vmxon_region.is_none() {
            return L1Result::Fault("#UD");
        }
        self.core.vmxoff();
        L1Result::Ok(0)
    }

    pub(crate) fn handle_vmclear(&mut self, addr: u64) -> L1Result {
        self.cov_i(IBlk::HandleVmclear);
        let Some(vmxon) = self.core.vmxon_region else {
            return L1Result::Fault("#UD");
        };
        match vmclear_check(addr, vmxon) {
            Err(VmInstrError::VmclearBadAddress) => {
                self.cov_i(IBlk::VmclearBadAddr);
                return L1Result::VmFail(VmInstrError::VmclearBadAddress);
            }
            Err(e) => {
                self.cov_i(IBlk::VmclearVmxonPtr);
                return L1Result::VmFail(e);
            }
            Ok(()) => {}
        }
        self.cov_i(IBlk::VmclearOk);
        self.flush_shadow_vmcs();
        self.core.vmclear(addr, self.exposed_caps.revision_id);
        L1Result::Ok(0)
    }

    pub(crate) fn handle_vmptrld(&mut self, addr: u64) -> L1Result {
        self.cov_i(IBlk::HandleVmptrld);
        let Some(vmxon) = self.core.vmxon_region else {
            return L1Result::Fault("#UD");
        };
        let revision = self.exposed_caps.revision_id;
        let region_rev = self.core.staged_revision(addr, revision);
        match vmptrld_check(addr, vmxon, region_rev, revision) {
            Err(VmInstrError::VmptrldBadAddress) => {
                self.cov_i(IBlk::VmptrldBadAddr);
                return L1Result::VmFail(VmInstrError::VmptrldBadAddress);
            }
            Err(VmInstrError::VmptrldVmxonPointer) => {
                self.cov_i(IBlk::VmptrldVmxonPtr);
                return L1Result::VmFail(VmInstrError::VmptrldVmxonPointer);
            }
            Err(e) => {
                self.cov_i(IBlk::VmptrldBadRev);
                return L1Result::VmFail(e);
            }
            Ok(()) => {}
        }
        self.cov_i(IBlk::VmptrldOk);
        self.cov_i(IBlk::NestedGetVmptr);
        if self.core.current_vmptr.is_some_and(|cur| cur != addr) {
            self.cov_i(IBlk::NestedReleaseVmcs12);
        }
        self.core.vmptrld(addr, revision);
        L1Result::Ok(0)
    }

    pub(crate) fn handle_vmread(&mut self, encoding: u32) -> L1Result {
        self.cov_i(IBlk::HandleVmread);
        if self.core.current_vmptr.is_none() {
            self.cov_i(IBlk::VmreadNoVmcs);
            return L1Result::VmFail(VmInstrError::FailInvalid);
        }
        match vmread_check(encoding) {
            Err(e) => {
                self.cov_i(IBlk::VmreadBadField);
                L1Result::VmFail(e)
            }
            Ok(field) => {
                self.cov_i(IBlk::VmreadOk);
                L1Result::Ok(self.core.current_vmcs().read(field))
            }
        }
    }

    pub(crate) fn handle_vmwrite(&mut self, encoding: u32, value: u64) -> L1Result {
        self.cov_i(IBlk::HandleVmwrite);
        if self.core.current_vmptr.is_none() {
            self.cov_i(IBlk::VmwriteNoVmcs);
            return L1Result::VmFail(VmInstrError::FailInvalid);
        }
        match vmwrite_check(encoding) {
            Err(VmInstrError::VmwriteReadOnly) => {
                self.cov_i(IBlk::VmwriteRo);
                L1Result::VmFail(VmInstrError::VmwriteReadOnly)
            }
            Err(e) => {
                self.cov_i(IBlk::VmwriteBadField);
                L1Result::VmFail(e)
            }
            Ok(field) => {
                if self
                    .core
                    .config
                    .features
                    .contains(CpuFeature::VmcsShadowing)
                {
                    self.cov_i(IBlk::VmwriteShadow);
                    self.cov_i(IBlk::NestedMarkDirty);
                } else {
                    self.cov_i(IBlk::VmwriteOk);
                }
                self.core.current_vmcs_mut().write(field, value);
                L1Result::Ok(0)
            }
        }
    }

    pub(crate) fn handle_invept(&mut self, typ: u64) -> L1Result {
        self.cov_i(IBlk::HandleInvept);
        if self.core.vmxon_region.is_none() {
            return L1Result::Fault("#UD");
        }
        if !(1..=2).contains(&typ) {
            self.cov_i(IBlk::InveptBadType);
            return L1Result::VmFail(VmInstrError::FailInvalid);
        }
        if self.core.config.features.contains(CpuFeature::Ept) {
            self.cov_i(IBlk::NestedEptInvalidation);
        }
        L1Result::Ok(0)
    }

    pub(crate) fn handle_invvpid(&mut self, typ: u64) -> L1Result {
        self.cov_i(IBlk::HandleInvvpid);
        if self.core.vmxon_region.is_none() {
            return L1Result::Fault("#UD");
        }
        if typ > 3 {
            self.cov_i(IBlk::InvvpidBadType);
            return L1Result::VmFail(VmInstrError::FailInvalid);
        }
        if self.core.config.features.contains(CpuFeature::Vpid) {
            self.cov_i(IBlk::NestedVpidSync);
        }
        L1Result::Ok(0)
    }

    /// Maps a silicon entry-failure rule to the vkvm error arm it mirrors.
    fn ctl_arm(rule: &str, detail: &str) -> IBlk {
        match rule {
            "ctrl.capability" if detail.starts_with("pin") => IBlk::CtlPinErr,
            "ctrl.capability" => IBlk::CtlProcErr,
            "ctrl.capability2" => IBlk::CtlProc2Err,
            "ctrl.cr3_target_count" => IBlk::CtlCr3CountErr,
            "ctrl.io_bitmap_addr" => IBlk::CtlIoBitmapErr,
            "ctrl.msr_bitmap_addr" => IBlk::CtlMsrBitmapErr,
            "ctrl.vapic_addr" | "ctrl.tpr_threshold" | "ctrl.apicv_requires_tpr_shadow" => {
                IBlk::CtlTprErr
            }
            "ctrl.eptp" | "ctrl.ug_requires_ept" => IBlk::CtlEptpErr,
            "ctrl.vpid_zero" => IBlk::CtlVpidErr,
            "ctrl.posted_intr_deps" | "ctrl.posted_intr_nv" | "ctrl.posted_intr_desc" => {
                IBlk::CtlPostedIntrErr
            }
            "ctrl.msr_area_addr" => IBlk::CtlMsrAreaErr,
            "ctrl.shadow_bitmap" => IBlk::CtlShadowErr,
            r if r.starts_with("event.") => IBlk::CtlEventInjErr,
            _ => IBlk::CtlShadowErr,
        }
    }

    fn host_arm(rule: &str) -> IBlk {
        match rule {
            "host.cr0_fixed" | "host.cr4_fixed" | "host.cr4_pae" | "host.addr_space_size" => {
                IBlk::HostCrErr
            }
            "host.cr3_width" => IBlk::HostCr3Err,
            "host.selector_rpl_ti" | "host.cs_null" | "host.tr_null" => IBlk::HostSelErr,
            "host.canonical" => IBlk::HostCanonErr,
            "host.efer_reserved" | "host.efer_lma_lme" => IBlk::HostEferErr,
            _ => IBlk::HostPatErr,
        }
    }

    fn guest_arm(rule: &str) -> IBlk {
        match rule {
            "guest.cr0_fixed" | "guest.ia32e_pg" => IBlk::GuestCr0Err,
            "guest.cr4_fixed" | "guest.pcide_requires_ia32e" => IBlk::GuestCr4Err,
            "guest.cr3_width" => IBlk::GuestCr3Err,
            r if r.starts_with("guest.efer") => IBlk::GuestEferErr,
            "guest.debugctl_reserved" | "guest.dr7_upper" => IBlk::GuestDbgErr,
            r if r.starts_with("guest.tr") || r.starts_with("guest.ldtr") => {
                IBlk::GuestTrLdtrChecks
            }
            r if r.starts_with("guest.cs")
                || r.starts_with("guest.ss")
                || r.starts_with("guest.seg")
                || r.starts_with("guest.v86") =>
            {
                IBlk::GuestSegChecks
            }
            "guest.dtable_base" | "guest.dtable_limit" => IBlk::GuestDtErr,
            "guest.rip_upper" | "guest.rip_canonical" | "guest.rflags" | "guest.vm86_mode" => {
                IBlk::GuestRipRflagsErr
            }
            "guest.activity_reserved" | "guest.hlt_blocking" => IBlk::GuestActivityErr,
            "guest.interruptibility" => IBlk::GuestIntrErr,
            "guest.vmcs_link" => IBlk::GuestLinkPtrErr,
            "guest.pdpte" => IBlk::GuestPdpteErr,
            _ => IBlk::GuestPatPerfErr,
        }
    }

    /// `nested_vmx_run`: emulates `vmlaunch`/`vmresume` from L1.
    pub(crate) fn nested_vmx_run(&mut self, launch: bool) -> L1Result {
        self.cov_i(IBlk::NestedRunEntry);
        if self.core.vmxon_region.is_none() {
            return L1Result::Fault("#UD");
        }
        if self.core.current_vmptr.is_none() {
            self.cov_i(IBlk::RunNoVmcs);
            return L1Result::VmFail(VmInstrError::FailInvalid);
        }
        if let Err(e) = launch_state_check(self.core.current_vmcs().state, !launch) {
            self.cov_i(IBlk::RunLaunchStateErr);
            self.cov_i(IBlk::VmFailHelpers);
            return L1Result::VmFail(e);
        }
        let vmcs12 = self.core.current_vmcs().clone();

        // Group 1: control fields, checked against the *exposed* caps.
        self.cov_i(IBlk::CheckCtlsEntry);
        let exposed = self.exposed_caps.clone();
        if let Err(failure) = nf_silicon::check_vm_controls(&vmcs12, &exposed) {
            if let EntryFailure::InvalidControls(e) = &failure {
                self.cov_i(Self::ctl_arm(e.rule, &e.detail));
            }
            self.cov_i(IBlk::VmFailHelpers);
            return L1Result::VmFail(VmInstrError::EntryInvalidControls);
        }
        self.cov_i(IBlk::CheckCtlsOk);

        // Group 2: host state.
        self.cov_i(IBlk::CheckHostEntry);
        if let Err(failure) = nf_silicon::check_host_state(&vmcs12, &exposed) {
            if let EntryFailure::InvalidHostState(e) = &failure {
                self.cov_i(Self::host_arm(e.rule));
            }
            self.cov_i(IBlk::VmFailHelpers);
            return L1Result::VmFail(VmInstrError::EntryInvalidHostState);
        }
        self.cov_i(IBlk::CheckHostOk);

        // Group 3: guest state.
        self.cov_i(IBlk::CheckGuestEntry);
        let entryv = vmcs12.read(VmcsField::VmEntryControls) as u32;
        let ia32e = entryv & ec::IA32E_MODE_GUEST != 0;
        let guest_cr4 = vmcs12.read(VmcsField::GuestCr4);

        // The fixed kernel adds the consistency check KVM was missing
        // (CVE-2023-30456, commit 112e660); the vulnerable kernel relies
        // on the hardware quirk and sails through.
        if self.bugs.cve_2023_30456_fixed && ia32e && guest_cr4 & Cr4::PAE == 0 {
            self.cov_i(IBlk::GuestCr4Err);
            return self.entry_fail_to_l1(ExitReason::EntryFailGuestState);
        }

        if let Err(failure) = nf_silicon::check_guest_state(&vmcs12, &exposed) {
            if let EntryFailure::InvalidGuestState(e) = &failure {
                self.cov_i(Self::guest_arm(e.rule));
            }
            return self.entry_fail_to_l1(ExitReason::EntryFailGuestState);
        }
        // KVM refuses nested activity states beyond Active/HLT, avoiding
        // the class of bug Xen shipped (activity-state pass-through).
        let act = vmcs12.read(VmcsField::GuestActivityState);
        if act > 1 {
            self.cov_i(IBlk::GuestActivityErr);
            return self.entry_fail_to_l1(ExitReason::EntryFailGuestState);
        }
        self.cov_i(IBlk::CheckGuestOk);

        // VM-entry MSR-load list: KVM validates values with full wrmsr
        // semantics (the check VirtualBox lacked).
        self.cov_i(IBlk::MsrLoadWalk);
        if let Some(area) = self.core.entry_msr_load(&vmcs12) {
            if let Err(failure) = nf_silicon::check_msr_load(&area) {
                let arm = if failure.rule() == "msrload.non_canonical" {
                    IBlk::MsrLoadNonCanonical
                } else {
                    IBlk::MsrLoadBadMsr
                };
                self.cov_i(arm);
                return self.entry_fail_to_l1(ExitReason::EntryFailMsrLoad);
            }
        }
        self.cov_i(IBlk::MsrLoadOk);

        // prepare_vmcs02 and commit.
        match self.prepare_vmcs02(&vmcs12) {
            Ok(vmcs02) => {
                // Hardware performs the real entry on VMCS02.
                match nf_silicon::try_vmentry(&vmcs02, &self.hw_caps.clone(), &MsrArea::new()) {
                    Ok(outcome) => {
                        self.cov_i(IBlk::Prep02Ok);
                        self.core.vmcs02 = Some(vmcs02);
                        self.core.in_l2 = true;
                        self.core.current_vmcs_mut().state = VmcsState::Launched;
                        L1Result::L2Entered {
                            runnable: outcome.runnable,
                        }
                    }
                    Err(failure) => {
                        // "This should never happen": KVM's checks passed
                        // but hardware rejected VMCS02.
                        self.cov_i(IBlk::HwEntryFailWarn);
                        self.core.health.printk(
                            3,
                            format!("vmx: vmcs02 entry failed unexpectedly: {}", failure.rule()),
                        );
                        self.entry_fail_to_l1(ExitReason::EntryFailGuestState)
                    }
                }
            }
            Err(result) => result,
        }
    }

    /// Delivers a VM-entry-failure exit to L1 (SDM 26.8).
    fn entry_fail_to_l1(&mut self, reason: ExitReason) -> L1Result {
        self.cov_i(IBlk::EntryFailToL1);
        let encoded = reason.encode(true);
        let vmcs12 = self.core.current_vmcs_mut();
        vmcs12.write(VmcsField::VmExitReason, encoded as u64);
        vmcs12.write(VmcsField::ExitQualification, 0);
        L1Result::L2EntryFailed { reason: encoded }
    }

    /// `prepare_vmcs02`: merges VMCS12 (guest half) with vkvm's own host
    /// context into the VMCS the hardware actually runs.
    fn prepare_vmcs02(&mut self, vmcs12: &Vmcs) -> Result<Vmcs, L1Result> {
        self.cov_i(IBlk::Prep02Entry);
        if self.fail_next_alloc {
            self.fail_next_alloc = false;
            self.cov_i(IBlk::AllocFailArm);
            return Err(L1Result::VmFail(VmInstrError::FailInvalid));
        }

        let hw = self.hw_caps.clone();
        let mut vmcs02 = crate::vmcs02_template(self.core.config.vendor).clone();

        // Control merge: L1's controls ORed with L0's own requirements.
        self.cov_i(IBlk::Prep02CtrlMerge);
        let pin12 = vmcs12.read(VmcsField::PinBasedVmExecControl) as u32;
        let proc12 = vmcs12.read(VmcsField::CpuBasedVmExecControl) as u32;
        let proc212 = vmcs12.read(VmcsField::SecondaryVmExecControl) as u32;
        let pin02 = hw.round_control(
            nf_vmx::CtrlKind::PinBased,
            pin12 | vmcs02.read(VmcsField::PinBasedVmExecControl) as u32,
        );
        let proc02 = hw.round_control(
            nf_vmx::CtrlKind::ProcBased,
            proc12 | vmcs02.read(VmcsField::CpuBasedVmExecControl) as u32,
        );
        let mut proc202 = hw.round_control(
            nf_vmx::CtrlKind::ProcBased2,
            proc212 | vmcs02.read(VmcsField::SecondaryVmExecControl) as u32,
        );
        vmcs02.write(VmcsField::PinBasedVmExecControl, pin02 as u64);
        vmcs02.write(VmcsField::CpuBasedVmExecControl, proc02 as u64);
        vmcs02.write(
            VmcsField::VmEntryControls,
            hw.round_control(
                nf_vmx::CtrlKind::Entry,
                vmcs12.read(VmcsField::VmEntryControls) as u32,
            ) as u64,
        );
        vmcs02.write(
            VmcsField::ExceptionBitmap,
            vmcs12.read(VmcsField::ExceptionBitmap),
        );
        for f in [
            VmcsField::Cr0GuestHostMask,
            VmcsField::Cr4GuestHostMask,
            VmcsField::Cr0ReadShadow,
            VmcsField::Cr4ReadShadow,
            VmcsField::Cr3TargetCount,
            VmcsField::Cr3TargetValue0,
            VmcsField::Cr3TargetValue1,
            VmcsField::Cr3TargetValue2,
            VmcsField::Cr3TargetValue3,
            VmcsField::VmEntryIntrInfoField,
            VmcsField::VmEntryExceptionErrorCode,
            VmcsField::VmEntryInstructionLen,
        ] {
            vmcs02.write(f, vmcs12.read(f));
        }

        // Guest-state copy.
        self.cov_i(IBlk::Prep02GuestCopy);
        vmcs02.copy_guest_state_from(vmcs12);
        vmcs02.write(VmcsField::VmcsLinkPointer, u64::MAX);

        let ept_on = self.core.config.features.contains(CpuFeature::Ept);
        let l1_wants_ept = proc212 & proc2::ENABLE_EPT != 0;
        if ept_on && l1_wants_ept {
            // Nested EPT: L0 shadows L1's EPT tables.
            self.cov_i(IBlk::Prep02EptPath);
            let eptp12 = vmcs12.read(VmcsField::EptPointer);
            let root = eptp12 & !0xfffu64;
            if root >= GUEST_MEM_LIMIT {
                // mmu_check_root() failure: the root is well-formed but
                // points outside guest memory.
                self.cov_i(IBlk::Prep02EptBadRoot);
                if !self.bugs.dummy_root_fixed {
                    // BUG (Table 6 row 3): synthesize a triple-fault exit
                    // to L1 although L2 never started.
                    self.core.health.assert_that(
                        "kvm-spurious-triple-fault",
                        false,
                        "triple-fault exit without L2 entry",
                    );
                    self.core.current_vmcs_mut().write(
                        VmcsField::VmExitReason,
                        ExitReason::TripleFault.encode(false) as u64,
                    );
                    return Err(L1Result::L2EntryFailed {
                        reason: ExitReason::TripleFault.encode(false),
                    });
                }
                // FIXED: load a dummy root backed by the zero page; any
                // L2 access faults cleanly afterwards.
                self.core
                    .health
                    .printk(6, "vmx: using dummy root for invisible guest root");
            }
            vmcs02.write(VmcsField::EptPointer, nf_silicon::GOLDEN_EPTP);
        } else {
            // Shadow paging: L0 walks L2's page tables in software.
            self.cov_i(IBlk::Prep02ShadowPaging);
            proc202 &= !proc2::ENABLE_EPT;
            vmcs02.write(VmcsField::EptPointer, 0);

            let cr0 = nf_x86::Cr0::new(vmcs12.read(VmcsField::GuestCr0));
            let cr4 = nf_x86::Cr4::new(vmcs12.read(VmcsField::GuestCr4));
            let entryv = vmcs12.read(VmcsField::VmEntryControls) as u32;
            // EFER as the hardware will see it after entry: IA-32e mode
            // forces LME/LMA; otherwise the loaded (and already checked)
            // value applies, or the pre-entry reset value of zero.
            let efer = if entryv & ec::IA32E_MODE_GUEST != 0 {
                nf_x86::Efer::new(Efer::LME | Efer::LMA)
            } else if entryv & ec::LOAD_EFER != 0 {
                nf_x86::Efer::new(vmcs12.read(VmcsField::GuestIa32Efer))
            } else {
                nf_x86::Efer::new(0)
            };
            // Hardware walks with the derived (quirk-aware) mode; the
            // vulnerable MMU sizes its root cache from the literal bits.
            let hw_levels = PagingMode::derive(cr0, cr4, efer).walk_levels();
            let sw_levels = if self.bugs.cve_2023_30456_fixed {
                hw_levels
            } else {
                PagingMode::derive_literal(cr0, cr4, efer).walk_levels()
            };
            if hw_levels >= 3 {
                self.cov_i(IBlk::Prep02PdptWalk);
                self.cov_i(IBlk::PdptLoadHelpers);
            }
            if hw_levels > 0 {
                let root_cache = vec![0u64; sw_levels.max(1)];
                // Walk from the top level down, indexing the root cache
                // the way the shadow MMU does (CVE-2023-30456 site).
                let top = hw_levels - 1;
                self.core
                    .health
                    .ubsan_index("CVE-2023-30456", top, root_cache.len());
            }
        }
        vmcs02.write(VmcsField::SecondaryVmExecControl, proc202 as u64);

        if self.core.config.features.contains(CpuFeature::Vpid) && proc212 & proc2::ENABLE_VPID != 0
        {
            self.cov_i(IBlk::Prep02VpidPath);
            vmcs02.write(VmcsField::Vpid, vmcs12.read(VmcsField::Vpid));
        }
        if self.core.config.features.contains(CpuFeature::Apicv)
            && proc12 & proc::USE_TPR_SHADOW != 0
        {
            self.cov_i(IBlk::Prep02ApicvPath);
        }
        if pin12 & nf_vmx::controls::pin::PREEMPTION_TIMER != 0 {
            self.cov_i(IBlk::Prep02PreemptTimer);
        }
        self.cov_i(IBlk::MiscHelpers);
        Ok(vmcs02)
    }

    /// Nested VM-exit dispatch for a live L2 (Intel side).
    pub(crate) fn l2_exec_vmx(&mut self, instr: GuestInstr) -> crate::api::L2Result {
        use crate::api::L2Result;
        let vmcs02 = self.core.vmcs02.as_ref().expect("in_l2 implies vmcs02");
        // KVM builds VMCS02 by merging its own exit policy with every
        // exit control L1 programmed (MSR/IO bitmaps, CR masks, the
        // exception bitmap), so an exit L1 asked for always occurs even
        // where L0's own policy would let the instruction run natively.
        // The model expresses that merge by consulting VMCS12 directly:
        // its decision both forces the exit and names the reason L1
        // observes.
        let reason12 = vmx_exit_for(instr, self.core.current_vmcs());
        let Some(reason) = reason12.or_else(|| vmx_exit_for(instr, vmcs02)) else {
            return L2Result::NoExit;
        };
        self.cov_i(IBlk::ExitDispatchEntry);
        self.cov_i(IBlk::ReflectDecide);

        let reflect = reason12.is_some();

        if reflect {
            let arm = match reason {
                ExitReason::ExceptionNmi => IBlk::ReflectExc,
                ExitReason::Cpuid => {
                    // KVM computes the guest's CPUID view before
                    // reflecting the exit.
                    self.cov_i(IBlk::L0EmulateCpuid);
                    IBlk::ReflectCpuid
                }
                ExitReason::Hlt => IBlk::ReflectHlt,
                ExitReason::CrAccess => IBlk::ReflectCr,
                ExitReason::IoInstruction => IBlk::ReflectIo,
                ExitReason::Rdmsr | ExitReason::Wrmsr => IBlk::ReflectMsr,
                ExitReason::EptViolation | ExitReason::EptMisconfig => IBlk::ReflectEptViolation,
                ExitReason::TripleFault => IBlk::ReflectTripleFault,
                ExitReason::PreemptionTimer => IBlk::ReflectPreempt,
                ExitReason::DrAccess => IBlk::ReflectDr,
                ExitReason::Pause => IBlk::ReflectPause,
                ExitReason::Invlpg | ExitReason::Invpcid => IBlk::ReflectInvlpg,
                ExitReason::Rdtsc | ExitReason::Rdtscp => IBlk::ReflectRdtsc,
                ExitReason::Xsetbv => IBlk::ReflectXsetbv,
                ExitReason::Mwait | ExitReason::Monitor => IBlk::ReflectMwaitMonitor,
                ExitReason::Rdrand | ExitReason::Rdseed => IBlk::ReflectRdrand,
                ExitReason::Wbinvd => IBlk::ReflectWbinvd,
                _ => IBlk::ReflectVmxInstr,
            };
            self.cov_i(arm);

            // Sync guest state VMCS02 -> VMCS12 and deliver the exit.
            self.cov_i(IBlk::SyncVmcs12);
            // Seeded misvirtualization (test-only, see `VkvmBugs`): the
            // exit is delivered, the host stays healthy, but L1 is told
            // the wrong reason.
            let encoded = if self.bugs.misreport_hlt_exit && reason == ExitReason::Hlt {
                ExitReason::Pause.encode(false)
            } else {
                reason.encode(false)
            };
            let vmcs12 = self.core.sync_vmcs12_guest_state();
            vmcs12.write(VmcsField::VmExitReason, encoded as u64);
            vmcs12.write(VmcsField::ExitQualification, 0);
            if self
                .core
                .config
                .features
                .contains(CpuFeature::VmcsShadowing)
            {
                self.cov_i(IBlk::CopyShadowToVmcs12);
                self.cov_i(IBlk::NestedCacheShadowVmcs12);
            }
            self.cov_i(IBlk::SwitchToVmcs01);
            self.cov_i(IBlk::ReflectDeliver);
            if reason == ExitReason::ExceptionNmi {
                self.cov_i(IBlk::InjectEventToL1);
            }
            self.core.in_l2 = false;
            L2Result::ReflectedToL1(encoded)
        } else {
            self.cov_i(IBlk::L0HandleExit);
            let arm = match reason {
                ExitReason::Cpuid => IBlk::L0EmulateCpuid,
                ExitReason::IoInstruction => IBlk::L0EmulateIo,
                ExitReason::Rdmsr | ExitReason::Wrmsr => IBlk::L0EmulateMsr,
                ExitReason::CrAccess => IBlk::L0EmulateCr,
                ExitReason::Hlt => IBlk::L0EmulateHlt,
                _ => IBlk::L0EmulateOther,
            };
            self.cov_i(arm);
            self.cov_i(IBlk::ResumeL2);
            L2Result::HandledByL0
        }
    }

    /// Unreachable-by-fuzzing optional features (the paper's ≤2% rare
    /// residue): exercised only by targeted tests, never by the harness
    /// templates.
    pub fn handle_encls_exit(&mut self) {
        self.cov_i(IBlk::SgxArm);
    }

    /// Intel PT context switch for nested guests (rare residue).
    pub fn handle_pt_nested(&mut self) {
        self.cov_i(IBlk::IntelPtArm);
    }

    /// Hyper-V enlightened-VMCS path (rare residue).
    pub fn handle_evmcs(&mut self) {
        self.cov_i(IBlk::EvmcsArm);
    }

    /// Posted-interrupt acceleration (asynchronous events, out of scope).
    pub fn handle_posted_interrupt(&mut self) {
        self.cov_i(IBlk::PostedIntrAccel);
    }

    /// `BUG_ON` arm: only a kernel-debugging build reaches this.
    pub fn trigger_bug_on(&mut self) {
        self.cov_i(IBlk::BugOnArm);
        self.core
            .health
            .host_crash("vkvm-bug-on", "kernel BUG at vmx/nested.c");
    }

    /// SMM transitions interact with nested state (host-only path).
    pub fn smm_transition(&mut self, entering: bool) {
        if entering {
            self.cov_i(IBlk::SmmEnterNested);
        } else {
            self.cov_i(IBlk::SmmLeaveNested);
        }
    }

    /// Shadow-VMCS write-back on vmclear-like flushes (shadowing only).
    pub(crate) fn flush_shadow_vmcs(&mut self) {
        if self
            .core
            .config
            .features
            .contains(CpuFeature::VmcsShadowing)
        {
            self.cov_i(IBlk::CopyVmcs12ToShadow);
        }
    }
}
