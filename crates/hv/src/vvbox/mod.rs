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

use std::collections::BTreeMap;

use nf_coverage::{CovMap, ExecTrace, FileId};
use nf_silicon::{
    launch_state_check, vmclear_check, vmptrld_check, vmread_check, vmwrite_check, vmx_exit_for,
    vmxon_check, GuestInstr, VmInstrError,
};
use nf_vmx::{ExitReason, MsrArea, Vmcb, Vmcs, VmcsField, VmcsState, VmxCapabilities};
use nf_x86::addr::VirtAddr;
use nf_x86::{CpuFeature, CpuVendor, Cr0, Cr4, Efer, Msr};

use std::sync::{Arc, OnceLock};

use crate::api::{HvConfig, HvSnapshot, IoctlOp, L0Hypervisor, L1Result, L2Result};
use crate::fault::{RestoreFault, SharedFaults};
use crate::sanitizer::HostHealth;
use crate::store::{
    digest_msr_area, digest_vmcs, msr_area_bytes, share_map, share_opt, vmcs_bytes, SnapshotStore,
};
use crate::{restore_fields, Instrumentation};

/// Seeded-bug switch; `false` = vulnerable (as evaluated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VvboxBugs {
    /// Validate MSR-load values with full `wrmsr` semantics (the
    /// CVE-2024-21106 fix).
    pub msr_load_fixed: bool,
}

/// The mutable-state image of a [`Vvbox`] instance (see
/// [`crate::HvSnapshot`]). Compare snapshots with `==` to assert
/// round-trip identity; the fields themselves are an internal detail.
#[derive(Debug, Clone, PartialEq)]
pub struct VvboxSnapshot {
    bugs: VvboxBugs,
    l1_cr0: u64,
    l1_cr4: u64,
    l1_efer: u64,
    vmxon_region: Option<u64>,
    vmcs12_mem: BTreeMap<u64, Arc<Vmcs>>,
    current_vmptr: Option<u64>,
    msr_area_mem: BTreeMap<u64, Arc<MsrArea>>,
    vmcs02: Option<Arc<Vmcs>>,
    in_l2: bool,
    pending_host_msrs: Vec<(u32, u64)>,
    health: HostHealth,
}

impl VvboxSnapshot {
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
    }
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
    config: HvConfig,
    exposed_caps: VmxCapabilities,
    /// Capabilities of the physical CPU underneath.
    pub(crate) hw_caps: VmxCapabilities,
    /// Bug switches.
    pub bugs: VvboxBugs,

    cov: &'static Instrumentation,
    trace: ExecTrace,
    health: HostHealth,

    l1_cr0: u64,
    l1_cr4: u64,
    l1_efer: u64,

    vmxon_region: Option<u64>,
    vmcs12_mem: BTreeMap<u64, Vmcs>,
    current_vmptr: Option<u64>,
    msr_area_mem: BTreeMap<u64, MsrArea>,
    vmcs02: Option<Vmcs>,
    in_l2: bool,
    /// MSR values the (unvalidated) load list queued for the host
    /// context; consumed at the next host-context switch.
    pending_host_msrs: Vec<(u32, u64)>,

    /// Deterministic fault injection (instrumentation, not VM state:
    /// deliberately excluded from snapshots).
    faults: Option<SharedFaults>,
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
            cov: instrumentation(),
            trace: ExecTrace::new(),
            health: HostHealth::new(),
            l1_cr0: Cr0::PE | Cr0::PG | Cr0::NE,
            l1_cr4: Cr4::PAE,
            l1_efer: Efer::LME | Efer::LMA,
            vmxon_region: None,
            vmcs12_mem: BTreeMap::new(),
            current_vmptr: None,
            msr_area_mem: BTreeMap::new(),
            vmcs02: None,
            in_l2: false,
            pending_host_msrs: Vec::new(),
            config,
            faults: None,
        }
    }

    fn cov(&mut self, b: VBlk) {
        self.trace.hit(self.cov.intel[b.idx()]);
    }

    fn vmlaunch(&mut self, launch: bool) -> L1Result {
        self.cov(VBlk::VmlaunchEmul);
        if self.vmxon_region.is_none() {
            return L1Result::Fault("#UD");
        }
        let Some(ptr) = self.current_vmptr else {
            return L1Result::VmFail(VmInstrError::FailInvalid);
        };
        if let Err(e) = launch_state_check(self.vmcs12_mem[&ptr].state, !launch) {
            self.cov(VBlk::LaunchStateErr);
            return L1Result::VmFail(e);
        }
        let vmcs12 = self.vmcs12_mem[&ptr].clone();

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
            let encoded = ExitReason::EntryFailGuestState.encode(true);
            let v = self.vmcs12_mem.get_mut(&ptr).expect("staged");
            v.write(VmcsField::VmExitReason, encoded as u64);
            return L1Result::L2EntryFailed { reason: encoded };
        }
        let act = vmcs12.read(VmcsField::GuestActivityState);
        if act > 1 {
            self.cov(VBlk::GuestErr);
            let encoded = ExitReason::EntryFailGuestState.encode(true);
            let v = self.vmcs12_mem.get_mut(&ptr).expect("staged");
            v.write(VmcsField::VmExitReason, encoded as u64);
            return L1Result::L2EntryFailed { reason: encoded };
        }

        // VM-entry MSR-load processing — CVE-2024-21106 site. VirtualBox
        // checks only that the MSR index is *known*, not that the value
        // is legal for the MSR.
        self.cov(VBlk::MsrLoadWalk);
        let count = vmcs12.read(VmcsField::VmEntryMsrLoadCount) as usize;
        if count > 0 {
            let addr = vmcs12.read(VmcsField::VmEntryMsrLoadAddr);
            let mut area = self.msr_area_mem.get(&addr).cloned().unwrap_or_default();
            area.entries.truncate(count);
            for e in &area.entries {
                let Some(msr) = Msr::from_index(e.index) else {
                    self.cov(VBlk::MsrLoadUnknownMsr);
                    let encoded = ExitReason::EntryFailMsrLoad.encode(true);
                    let v = self.vmcs12_mem.get_mut(&ptr).expect("staged");
                    v.write(VmcsField::VmExitReason, encoded as u64);
                    return L1Result::L2EntryFailed { reason: encoded };
                };
                if self.bugs.msr_load_fixed
                    && msr.requires_canonical()
                    && !VirtAddr(e.value).is_canonical()
                {
                    // FIXED: reject like KVM does.
                    self.cov(VBlk::MsrLoadReject);
                    let encoded = ExitReason::EntryFailMsrLoad.encode(true);
                    let v = self.vmcs12_mem.get_mut(&ptr).expect("staged");
                    v.write(VmcsField::VmExitReason, encoded as u64);
                    return L1Result::L2EntryFailed { reason: encoded };
                }
                // BUG: values are queued for the host-context wrmsr
                // without validation.
                self.pending_host_msrs.push((e.index, e.value));
            }
        }

        // Merge and real entry.
        self.cov(VBlk::Merge02);
        let hw = self.hw_caps.clone();
        let mut vmcs02 = crate::vmcs02_template(self.config.vendor).clone();
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
                        self.health.host_crash(
                            "CVE-2024-21106",
                            format!(
                                "general protection fault, probably for non-canonical \
                                 address {value:#x}"
                            ),
                        );
                        return L1Result::HostDead;
                    }
                }
                self.vmcs02 = Some(vmcs02);
                self.in_l2 = true;
                self.vmcs12_mem.get_mut(&ptr).expect("staged").state = VmcsState::Launched;
                L1Result::L2Entered {
                    runnable: outcome.runnable,
                }
            }
            Err(_) => {
                self.cov(VBlk::GuestErr);
                self.pending_host_msrs.clear();
                let encoded = ExitReason::EntryFailGuestState.encode(true);
                let v = self.vmcs12_mem.get_mut(&ptr).expect("staged");
                v.write(VmcsField::VmExitReason, encoded as u64);
                L1Result::L2EntryFailed { reason: encoded }
            }
        }
    }
}

impl L0Hypervisor for Vvbox {
    fn name(&self) -> &'static str {
        "vvbox"
    }

    fn vendor(&self) -> CpuVendor {
        self.config.vendor
    }

    fn config(&self) -> &HvConfig {
        &self.config
    }

    fn reset_guest(&mut self) {
        self.l1_cr0 = Cr0::PE | Cr0::PG | Cr0::NE;
        self.l1_cr4 = Cr4::PAE;
        self.l1_efer = Efer::LME | Efer::LMA;
        self.vmxon_region = None;
        self.vmcs12_mem.clear();
        self.current_vmptr = None;
        self.msr_area_mem.clear();
        self.vmcs02 = None;
        self.in_l2 = false;
        self.pending_host_msrs.clear();
    }

    fn reboot_host(&mut self) {
        self.reset_guest();
        self.health = HostHealth::new();
    }

    fn snapshot(&self) -> HvSnapshot {
        HvSnapshot::Vvbox(VvboxSnapshot {
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
            pending_host_msrs: self.pending_host_msrs.clone(),
            health: self.health.clone(),
        })
    }

    fn restore(&mut self, snap: &HvSnapshot) {
        let HvSnapshot::Vvbox(s) = snap else {
            panic!("vvbox cannot restore a {} snapshot", snap.backend());
        };
        restore_fields!(copy: self, s, [
            bugs, l1_cr0, l1_cr4, l1_efer, vmxon_region, current_vmptr, in_l2,
        ]);
        restore_fields!(clone: self, s, [pending_host_msrs, health]);
        restore_fields!(shared: self, s, [vmcs12_mem, msr_area_mem, vmcs02]);
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
        match instr {
            Vmxon(addr) => {
                self.cov(VBlk::VmxonEmul);
                if !self.config.nested
                    || !self.config.features.contains(CpuFeature::Vmx)
                    || self.l1_cr4 & Cr4::VMXE == 0
                {
                    return L1Result::Fault("#UD");
                }
                if vmxon_check(
                    Cr0::new(self.l1_cr0),
                    Cr4::new(self.l1_cr4),
                    Efer::new(self.l1_efer),
                    addr,
                )
                .is_err()
                {
                    return L1Result::Fault("#GP");
                }
                self.vmxon_region = Some(addr);
                L1Result::Ok(0)
            }
            Vmxoff => {
                self.cov(VBlk::VmxonEmul);
                self.vmxon_region = None;
                self.current_vmptr = None;
                self.in_l2 = false;
                L1Result::Ok(0)
            }
            Vmclear(addr) => {
                self.cov(VBlk::VmclearEmul);
                let Some(vmxon) = self.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                if let Err(e) = vmclear_check(addr, vmxon) {
                    return L1Result::VmFail(e);
                }
                let rev = self.exposed_caps.revision_id;
                let v = self.vmcs12_mem.entry(addr).or_insert_with(|| {
                    let mut v = Vmcs::new();
                    v.revision_id = rev;
                    v
                });
                v.state = VmcsState::Clear;
                if self.current_vmptr == Some(addr) {
                    self.current_vmptr = None;
                }
                L1Result::Ok(0)
            }
            Vmptrld(addr) => {
                self.cov(VBlk::VmptrldEmul);
                let Some(vmxon) = self.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                let rev = self.exposed_caps.revision_id;
                let region_rev = self
                    .vmcs12_mem
                    .get(&addr)
                    .map(|v| v.revision_id)
                    .unwrap_or(rev);
                if let Err(e) = vmptrld_check(addr, vmxon, region_rev, rev) {
                    return L1Result::VmFail(e);
                }
                self.vmcs12_mem.entry(addr).or_insert_with(|| {
                    let mut v = Vmcs::new();
                    v.revision_id = rev;
                    v
                });
                self.current_vmptr = Some(addr);
                L1Result::Ok(0)
            }
            Vmptrst => L1Result::Ok(self.current_vmptr.unwrap_or(u64::MAX)),
            Vmread(enc) => {
                self.cov(VBlk::VmreadVmwriteEmul);
                let Some(ptr) = self.current_vmptr else {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                };
                match vmread_check(enc) {
                    Err(e) => L1Result::VmFail(e),
                    Ok(f) => L1Result::Ok(self.vmcs12_mem[&ptr].read(f)),
                }
            }
            Vmwrite(enc, val) => {
                self.cov(VBlk::VmreadVmwriteEmul);
                let Some(ptr) = self.current_vmptr else {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                };
                match vmwrite_check(enc) {
                    Err(e) => L1Result::VmFail(e),
                    Ok(f) => {
                        self.vmcs12_mem.get_mut(&ptr).expect("staged").write(f, val);
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
                self.l1_cr4 = v;
                L1Result::Ok(0)
            }
            MovToCr(nf_silicon::CrIndex::Cr0, v) => {
                self.l1_cr0 = v;
                L1Result::Ok(0)
            }
            Wrmsr(idx, v) if idx == Msr::Efer.index() => {
                self.l1_efer = v;
                L1Result::Ok(0)
            }
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
        let vmcs02 = self.vmcs02.as_ref().expect("in_l2");
        let Some(reason) = vmx_exit_for(instr, vmcs02) else {
            return L2Result::NoExit;
        };
        self.cov(VBlk::ExitDispatch);
        let ptr = self.current_vmptr.expect("in_l2");
        let vmcs12 = &self.vmcs12_mem[&ptr];
        let reflect = reason.is_vmx_instruction()
            || reason == ExitReason::Cpuid
            || vmx_exit_for(instr, vmcs12).is_some();
        if reflect {
            self.cov(VBlk::Sync12);
            let encoded = reason.encode(false);
            let vmcs12 = self.vmcs12_mem.get_mut(&ptr).expect("staged");
            vmcs12.write(VmcsField::VmExitReason, encoded as u64);
            self.in_l2 = false;
            L2Result::ReflectedToL1(encoded)
        } else {
            self.cov(VBlk::L0Handle);
            L2Result::HandledByL0
        }
    }

    fn l1_stage_vmcs_region(&mut self, addr: u64, revision: u32) {
        let vmcs = self.vmcs12_mem.entry(addr).or_default();
        vmcs.revision_id = revision;
    }

    fn l1_stage_vmcb(&mut self, _addr: u64, _vmcb: Vmcb) {
        // VirtualBox's model has no AMD nested support.
    }

    fn l1_stage_msr_area(&mut self, addr: u64, area: MsrArea) {
        self.msr_area_mem.insert(addr, area);
    }

    fn host_ioctl(&mut self, op: IoctlOp) {
        if matches!(op, IoctlOp::GetNestedState | IoctlOp::SetNestedState) {
            self.cov(VBlk::SavedStateLoad);
        } else {
            self.cov(VBlk::HmSetup);
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
        None
    }

    fn health(&self) -> &HostHealth {
        &self.health
    }

    fn observe_guest(&self) -> crate::api::GuestObservation {
        use crate::api::GuestObservation;
        GuestObservation {
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
        }
    }

    fn health_mut(&mut self) -> &mut HostHealth {
        &mut self.health
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
        vb.l1_cr4 |= Cr4::VMXE;
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
