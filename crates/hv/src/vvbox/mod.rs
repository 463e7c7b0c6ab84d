//! vvbox — the Oracle VirtualBox 7.0.12 model (Intel only).
//!
//! VirtualBox's nested VMX implementation validates most of VMCS12 but
//! **skips the canonicality check on VM-entry MSR-load values**
//! (CVE-2024-21106, Table 6 row 2): a non-canonical address loaded into
//! `MSR_KERNEL_GS_BASE` reaches a host-context `wrmsr` and raises a
//! general protection fault in the host — the exact log line the paper
//! quotes is reproduced in the health report.

mod blocks;

pub use blocks::VBlk;

use nf_silicon::{
    launch_state_check, vmclear_check, vmptrld_check, vmread_check, vmwrite_check, vmx_exit_for,
    vmxon_check, GuestInstr, VmInstrError,
};
use nf_vmx::{ExitReason, MsrArea, Vmcb, VmcsField, VmcsState, VmxCapabilities};
use nf_x86::addr::VirtAddr;
use nf_x86::{CpuVendor, Cr0, Cr4, Efer, Msr};

use std::sync::OnceLock;

use crate::api::{HvConfig, IoctlOp, L0Hypervisor, L1Result, L2Result};
use crate::l1::NestedL1State;
use crate::Instrumentation;

/// Seeded-bug switch; `false` = vulnerable (as evaluated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VvboxBugs {
    /// Validate MSR-load values with full `wrmsr` semantics (the
    /// CVE-2024-21106 fix).
    pub msr_load_fixed: bool,
}

/// vvbox's instrumentation (the nested part of
/// `VMXAllTemplate.cpp.h`), registered once per process.
fn instrumentation() -> &'static Instrumentation {
    static COV: OnceLock<Instrumentation> = OnceLock::new();
    COV.get_or_init(|| {
        Instrumentation::register(
            ("VMMAll/VMXAllTemplate.cpp.h (nested)", VBlk::register),
            None,
        )
    })
}

/// The VirtualBox model.
pub struct Vvbox {
    /// The L1 state every backend shares.
    core: NestedL1State,
    exposed_caps: VmxCapabilities,
    /// Capabilities of the physical CPU underneath.
    pub(crate) hw_caps: VmxCapabilities,
    /// Bug switches.
    pub bugs: VvboxBugs,

    /// MSR values the (unvalidated) load list queued for the host
    /// context; consumed at the next host-context switch.
    pending_host_msrs: Vec<(u32, u64)>,
}

impl Vvbox {
    /// Boots a vvbox host with `config` (vendor must be Intel).
    pub fn new(config: HvConfig) -> Self {
        assert_eq!(
            config.vendor,
            CpuVendor::Intel,
            "VirtualBox nested VMX model is Intel-only"
        );
        let exposed = config.features.sanitized(config.vendor);
        Vvbox {
            exposed_caps: VmxCapabilities::from_features(exposed),
            hw_caps: crate::hw_caps(config.vendor),
            bugs: VvboxBugs::default(),
            core: NestedL1State::new(config, instrumentation()),
            pending_host_msrs: Vec::new(),
        }
    }

    fn cov(&mut self, b: VBlk) {
        self.core.hit_intel(b.idx());
    }

    /// Delivers a VM-entry-failure exit to L1 through the current VMCS.
    fn entry_fail(&mut self, reason: ExitReason) -> L1Result {
        let encoded = reason.encode(true);
        self.core
            .current_vmcs_mut()
            .write(VmcsField::VmExitReason, encoded as u64);
        L1Result::L2EntryFailed { reason: encoded }
    }

    fn vmlaunch(&mut self, launch: bool) -> L1Result {
        self.cov(VBlk::VmlaunchEmul);
        if self.core.vmxon_region.is_none() {
            return L1Result::Fault("#UD");
        }
        if self.core.current_vmptr.is_none() {
            return L1Result::VmFail(VmInstrError::FailInvalid);
        }
        if let Err(e) = launch_state_check(self.core.current_vmcs().state, !launch) {
            self.cov(VBlk::LaunchStateErr);
            return L1Result::VmFail(e);
        }
        let vmcs12 = self.core.current_vmcs().clone();

        self.cov(VBlk::CheckCtls);
        let exposed = self.exposed_caps.clone();
        if nf_silicon::check_vm_controls(&vmcs12, &exposed).is_err() {
            self.cov(VBlk::CtlsErr);
            return L1Result::VmFail(VmInstrError::EntryInvalidControls);
        }
        self.cov(VBlk::CheckHost);
        if nf_silicon::check_host_state(&vmcs12, &exposed).is_err() {
            self.cov(VBlk::HostErr);
            return L1Result::VmFail(VmInstrError::EntryInvalidHostState);
        }
        self.cov(VBlk::CheckGuest);
        if nf_silicon::check_guest_state(&vmcs12, &exposed).is_err() {
            self.cov(VBlk::GuestErr);
            return self.entry_fail(ExitReason::EntryFailGuestState);
        }
        let act = vmcs12.read(VmcsField::GuestActivityState);
        if act > 1 {
            self.cov(VBlk::GuestErr);
            return self.entry_fail(ExitReason::EntryFailGuestState);
        }

        // VM-entry MSR-load processing — CVE-2024-21106 site. VirtualBox
        // checks only that the MSR index is *known*, not that the value
        // is legal for the MSR.
        self.cov(VBlk::MsrLoadWalk);
        if let Some(area) = self.core.entry_msr_load(&vmcs12) {
            for e in &area.entries {
                let Some(msr) = Msr::from_index(e.index) else {
                    self.cov(VBlk::MsrLoadUnknownMsr);
                    return self.entry_fail(ExitReason::EntryFailMsrLoad);
                };
                if self.bugs.msr_load_fixed
                    && msr.requires_canonical()
                    && !VirtAddr(e.value).is_canonical()
                {
                    // FIXED: reject like KVM does.
                    self.cov(VBlk::MsrLoadReject);
                    return self.entry_fail(ExitReason::EntryFailMsrLoad);
                }
                // BUG: values are queued for the host-context wrmsr
                // without validation.
                self.pending_host_msrs.push((e.index, e.value));
            }
        }

        // Merge and real entry.
        self.cov(VBlk::Merge02);
        let hw = self.hw_caps.clone();
        let mut vmcs02 = crate::vmcs02_template(self.core.config.vendor).clone();
        vmcs02.copy_guest_state_from(&vmcs12);
        vmcs02.write(VmcsField::VmcsLinkPointer, u64::MAX);
        vmcs02.write(
            VmcsField::VmEntryControls,
            hw.round_control(
                nf_vmx::CtrlKind::Entry,
                vmcs12.read(VmcsField::VmEntryControls) as u32,
            ) as u64,
        );
        for f in [
            VmcsField::Cr0GuestHostMask,
            VmcsField::Cr4GuestHostMask,
            VmcsField::Cr0ReadShadow,
            VmcsField::Cr4ReadShadow,
        ] {
            vmcs02.write(f, vmcs12.read(f));
        }

        match nf_silicon::try_vmentry(&vmcs02, &hw, &MsrArea::new()) {
            Ok(outcome) => {
                self.cov(VBlk::EntryOk);
                // The queued host MSR values hit the host context now.
                let pending = std::mem::take(&mut self.pending_host_msrs);
                for (index, value) in pending {
                    let msr = Msr::from_index(index).expect("checked above");
                    if msr.requires_canonical() && !VirtAddr(value).is_canonical() {
                        self.cov(VBlk::HostGpArm);
                        self.core.health.host_crash(
                            "CVE-2024-21106",
                            format!(
                                "general protection fault, probably for non-canonical \
                                 address {value:#x}"
                            ),
                        );
                        return L1Result::HostDead;
                    }
                }
                self.core.vmcs02 = Some(vmcs02);
                self.core.in_l2 = true;
                self.core.current_vmcs_mut().state = VmcsState::Launched;
                L1Result::L2Entered {
                    runnable: outcome.runnable,
                }
            }
            Err(_) => {
                self.cov(VBlk::GuestErr);
                self.pending_host_msrs.clear();
                self.entry_fail(ExitReason::EntryFailGuestState)
            }
        }
    }
}

impl L0Hypervisor for Vvbox {
    fn name(&self) -> &'static str {
        "vvbox"
    }

    fn core(&self) -> &NestedL1State {
        &self.core
    }

    fn core_mut(&mut self) -> &mut NestedL1State {
        &mut self.core
    }

    fn reset_guest(&mut self) {
        self.core.reset();
        self.pending_host_msrs.clear();
    }

    fn l1_exec(&mut self, instr: GuestInstr) -> L1Result {
        if let Some(r) = self.core.l1_preamble() {
            return r;
        }
        use GuestInstr::*;
        match instr {
            Vmxon(addr) => {
                self.cov(VBlk::VmxonEmul);
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
                    return L1Result::Fault("#GP");
                }
                self.core.vmxon_region = Some(addr);
                L1Result::Ok(0)
            }
            Vmxoff => {
                self.cov(VBlk::VmxonEmul);
                self.core.vmxoff();
                L1Result::Ok(0)
            }
            Vmclear(addr) => {
                self.cov(VBlk::VmclearEmul);
                let Some(vmxon) = self.core.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                if let Err(e) = vmclear_check(addr, vmxon) {
                    return L1Result::VmFail(e);
                }
                self.core.vmclear(addr, self.exposed_caps.revision_id);
                L1Result::Ok(0)
            }
            Vmptrld(addr) => {
                self.cov(VBlk::VmptrldEmul);
                let Some(vmxon) = self.core.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                let rev = self.exposed_caps.revision_id;
                let region_rev = self.core.staged_revision(addr, rev);
                if let Err(e) = vmptrld_check(addr, vmxon, region_rev, rev) {
                    return L1Result::VmFail(e);
                }
                self.core.vmptrld(addr, rev);
                L1Result::Ok(0)
            }
            Vmptrst => L1Result::Ok(self.core.current_vmptr.unwrap_or(u64::MAX)),
            Vmread(enc) => {
                self.cov(VBlk::VmreadVmwriteEmul);
                if self.core.current_vmptr.is_none() {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                match vmread_check(enc) {
                    Err(e) => L1Result::VmFail(e),
                    Ok(f) => L1Result::Ok(self.core.current_vmcs().read(f)),
                }
            }
            Vmwrite(enc, val) => {
                self.cov(VBlk::VmreadVmwriteEmul);
                if self.core.current_vmptr.is_none() {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                match vmwrite_check(enc) {
                    Err(e) => L1Result::VmFail(e),
                    Ok(f) => {
                        self.core.current_vmcs_mut().write(f, val);
                        L1Result::Ok(0)
                    }
                }
            }
            Vmlaunch => self.vmlaunch(true),
            Vmresume => self.vmlaunch(false),
            Vmcall => L1Result::Ok(0),
            Invept(_) | Invvpid(_) => {
                self.cov(VBlk::InveptInvvpidEmul);
                L1Result::Ok(0)
            }
            Vmrun(_) | Vmload(_) | Vmsave(_) | Stgi | Clgi | Skinit => L1Result::Fault("#UD"),
            MovToCr(nf_silicon::CrIndex::Cr4, v) => {
                self.core.cr4 = v;
                L1Result::Ok(0)
            }
            MovToCr(nf_silicon::CrIndex::Cr0, v) => {
                self.core.cr0 = v;
                L1Result::Ok(0)
            }
            // No reserved-bit check: VirtualBox's EFER write is lenient.
            Wrmsr(idx, v) if idx == Msr::Efer.index() => {
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
        let vmcs02 = self.core.vmcs02.as_ref().expect("in_l2");
        let Some(reason) = vmx_exit_for(instr, vmcs02) else {
            return L2Result::NoExit;
        };
        self.cov(VBlk::ExitDispatch);
        let reflect = reason.is_vmx_instruction()
            || reason == ExitReason::Cpuid
            || vmx_exit_for(instr, self.core.current_vmcs()).is_some();
        if reflect {
            self.cov(VBlk::Sync12);
            let encoded = reason.encode(false);
            self.core
                .current_vmcs_mut()
                .write(VmcsField::VmExitReason, encoded as u64);
            self.core.in_l2 = false;
            L2Result::ReflectedToL1(encoded)
        } else {
            self.cov(VBlk::L0Handle);
            L2Result::HandledByL0
        }
    }

    fn l1_stage_vmcb(&mut self, _addr: u64, _vmcb: Vmcb) {
        // VirtualBox's model has no AMD nested support.
    }

    fn host_ioctl(&mut self, op: IoctlOp) {
        if matches!(op, IoctlOp::GetNestedState | IoctlOp::SetNestedState) {
            self.cov(VBlk::SavedStateLoad);
        } else {
            self.cov(VBlk::HmSetup);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitizer::CrashKind;
    use nf_silicon::golden_vmcs;
    use nf_vmx::MsrAreaEntry;

    fn vbox() -> Vvbox {
        let mut vb = Vvbox::new(HvConfig::default_for(CpuVendor::Intel));
        vb.core.cr4 |= Cr4::VMXE;
        vb
    }

    fn boot_to_golden(vb: &mut Vvbox) {
        assert_eq!(vb.l1_exec(GuestInstr::Vmxon(0x1000)), L1Result::Ok(0));
        assert_eq!(vb.l1_exec(GuestInstr::Vmclear(0x2000)), L1Result::Ok(0));
        assert_eq!(vb.l1_exec(GuestInstr::Vmptrld(0x2000)), L1Result::Ok(0));
        let golden = golden_vmcs(&vb.exposed_caps);
        for &f in VmcsField::ALL {
            if f.writable() {
                vb.l1_exec(GuestInstr::Vmwrite(f.encoding(), golden.read(f)));
            }
        }
    }

    #[test]
    fn golden_state_enters() {
        let mut vb = vbox();
        boot_to_golden(&mut vb);
        assert!(matches!(
            vb.l1_exec(GuestInstr::Vmlaunch),
            L1Result::L2Entered { runnable: true }
        ));
    }

    #[test]
    fn cve_2024_21106_non_canonical_kernel_gs_base() {
        let mut vb = vbox();
        boot_to_golden(&mut vb);
        vb.l1_stage_msr_area(
            0x6000,
            MsrArea {
                entries: vec![MsrAreaEntry {
                    index: Msr::KernelGsBase.index(),
                    value: 0x8000_0000_0000_0000,
                }],
            },
        );
        vb.l1_exec(GuestInstr::Vmwrite(
            VmcsField::VmEntryMsrLoadAddr.encoding(),
            0x6000,
        ));
        vb.l1_exec(GuestInstr::Vmwrite(
            VmcsField::VmEntryMsrLoadCount.encoding(),
            1,
        ));
        assert_eq!(vb.l1_exec(GuestInstr::Vmlaunch), L1Result::HostDead);
        assert!(vb.health().dead);
        assert_eq!(vb.health().reports[0].kind, CrashKind::HostCrash);
        assert_eq!(vb.health().reports[0].bug_id, "CVE-2024-21106");
        assert!(vb.health().reports[0].message.contains("non-canonical"));
    }

    #[test]
    fn msr_load_fix_rejects_cleanly() {
        let mut vb = vbox();
        vb.bugs.msr_load_fixed = true;
        boot_to_golden(&mut vb);
        vb.l1_stage_msr_area(
            0x6000,
            MsrArea {
                entries: vec![MsrAreaEntry {
                    index: Msr::KernelGsBase.index(),
                    value: 0x8000_0000_0000_0000,
                }],
            },
        );
        vb.l1_exec(GuestInstr::Vmwrite(
            VmcsField::VmEntryMsrLoadAddr.encoding(),
            0x6000,
        ));
        vb.l1_exec(GuestInstr::Vmwrite(
            VmcsField::VmEntryMsrLoadCount.encoding(),
            1,
        ));
        match vb.l1_exec(GuestInstr::Vmlaunch) {
            L1Result::L2EntryFailed { reason } => {
                assert_eq!(reason & 0xffff, ExitReason::EntryFailMsrLoad as u16 as u32);
            }
            other => panic!("expected clean MSR-load failure, got {other:?}"),
        }
        assert!(!vb.health().dead);
    }

    #[test]
    fn canonical_msr_load_is_harmless() {
        let mut vb = vbox();
        boot_to_golden(&mut vb);
        vb.l1_stage_msr_area(
            0x6000,
            MsrArea {
                entries: vec![MsrAreaEntry {
                    index: Msr::KernelGsBase.index(),
                    value: 0xffff_8800_0000_0000,
                }],
            },
        );
        vb.l1_exec(GuestInstr::Vmwrite(
            VmcsField::VmEntryMsrLoadAddr.encoding(),
            0x6000,
        ));
        vb.l1_exec(GuestInstr::Vmwrite(
            VmcsField::VmEntryMsrLoadCount.encoding(),
            1,
        ));
        assert!(matches!(
            vb.l1_exec(GuestInstr::Vmlaunch),
            L1Result::L2Entered { .. }
        ));
    }
}
