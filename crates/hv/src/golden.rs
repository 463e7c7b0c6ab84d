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

use std::collections::BTreeMap;

use nf_coverage::{CovMap, ExecTrace, FileId};
use nf_silicon::vmentry::EntryFailure;
use nf_silicon::{
    check_vmrun, launch_state_check, svm_exit_for, vmclear_check, vmptrld_check, vmread_check,
    vmwrite_check, vmx_exit_for, vmxon_check, GuestInstr, VmInstrError,
};
use nf_vmx::{ExitReason, MsrArea, SvmExitCode, Vmcb, Vmcs, VmcsField, VmcsState, VmxCapabilities};
use nf_x86::{CpuFeature, CpuVendor, Cr0, Cr4, Efer, Msr};

use std::sync::{Arc, OnceLock};

use crate::api::{
    GuestObservation, HvConfig, HvSnapshot, IoctlOp, L0Hypervisor, L1Result, L2Result,
};
use crate::fault::{RestoreFault, SharedFaults};
use crate::sanitizer::HostHealth;
use crate::store::{
    digest_msr_area, digest_vmcb, digest_vmcs, msr_area_bytes, share_map, vmcb_bytes, vmcs_bytes,
    SnapshotStore,
};
use crate::{restore_fields, Instrumentation};

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

/// The mutable-state image of a [`SiliconGolden`] instance (see
/// [`crate::HvSnapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenSnapshot {
    l1_cr0: u64,
    l1_cr4: u64,
    l1_efer: u64,
    vmxon_region: Option<u64>,
    vmcs12_mem: BTreeMap<u64, Arc<Vmcs>>,
    current_vmptr: Option<u64>,
    msr_area_mem: BTreeMap<u64, Arc<MsrArea>>,
    in_l2: bool,
    l2_runnable: bool,
    vmcb12_mem: BTreeMap<u64, Arc<Vmcb>>,
    current_vmcb: Option<u64>,
    health: HostHealth,
}

impl GoldenSnapshot {
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
            + self.vmcb12_mem.len() * vmcb_bytes()
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
    config: HvConfig,
    caps: VmxCapabilities,

    cov: &'static Instrumentation,
    trace: ExecTrace,
    health: HostHealth,

    // --- L1 vCPU state.
    l1_cr0: u64,
    l1_cr4: u64,
    l1_efer: u64,

    // --- VMX state: the VMCS12 the scenario builds is the live VMCS.
    vmxon_region: Option<u64>,
    vmcs12_mem: BTreeMap<u64, Vmcs>,
    current_vmptr: Option<u64>,
    msr_area_mem: BTreeMap<u64, MsrArea>,
    in_l2: bool,
    l2_runnable: bool,

    // --- SVM state.
    vmcb12_mem: BTreeMap<u64, Vmcb>,
    current_vmcb: Option<u64>,

    // Instrumentation, not VM state: excluded from snapshots.
    faults: Option<SharedFaults>,
}

impl SiliconGolden {
    /// Boots the golden reference with `config`.
    pub fn new(config: HvConfig) -> Self {
        let exposed = config.features.sanitized(config.vendor);
        SiliconGolden {
            caps: VmxCapabilities::from_features(exposed),
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
            in_l2: false,
            l2_runnable: false,
            vmcb12_mem: BTreeMap::new(),
            current_vmcb: None,
            faults: None,
            config,
        }
    }

    fn cov(&mut self, b: GBlk) {
        self.trace.hit(self.cov.intel[b.idx()]);
    }

    /// Whether hardware virtualization is visible to the scenario at
    /// all, mirroring the backends' `nested` gate (module docs).
    fn virt_exposed(&self) -> bool {
        self.config.nested
            && match self.config.vendor {
                CpuVendor::Intel => self.config.features.contains(CpuFeature::Vmx),
                CpuVendor::Amd => self.config.features.contains(CpuFeature::Svm),
            }
    }

    /// Capability-MSR reads, answered from the same exposed surface the
    /// backends advertise (`nested_vmx_msr_read` analog).
    fn capability_msr_read(&mut self, index: u32) -> L1Result {
        self.cov(GBlk::Passthrough);
        let caps = &self.caps;
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

    /// The hardware delivers a VM-entry-failure exit (SDM 26.8): the
    /// exit reason lands in the (live) VMCS and control returns to L1.
    fn entry_fail(&mut self, ptr: u64, reason: ExitReason) -> L1Result {
        self.cov(GBlk::EntryFail);
        let encoded = reason.encode(true);
        let vmcs = self.vmcs12_mem.get_mut(&ptr).expect("current vmcs staged");
        vmcs.write(VmcsField::VmExitReason, encoded as u64);
        vmcs.write(VmcsField::ExitQualification, 0);
        L1Result::L2EntryFailed { reason: encoded }
    }

    /// `vmlaunch`/`vmresume` straight on the scenario's VMCS — the whole
    /// point of the golden model: no merge, no policy, just the
    /// architectural checks in SDM order.
    fn vmx_enter(&mut self, launch: bool) -> L1Result {
        self.cov(GBlk::EntryChecks);
        if self.vmxon_region.is_none() {
            return L1Result::Fault("#UD");
        }
        let Some(ptr) = self.current_vmptr else {
            return L1Result::VmFail(VmInstrError::FailInvalid);
        };
        if let Err(e) = launch_state_check(self.vmcs12_mem[&ptr].state, !launch) {
            return L1Result::VmFail(e);
        }
        let vmcs12 = self.vmcs12_mem[&ptr].clone();
        let count = vmcs12.read(VmcsField::VmEntryMsrLoadCount) as usize;
        let mut area = MsrArea::new();
        if count > 0 {
            let addr = vmcs12.read(VmcsField::VmEntryMsrLoadAddr);
            area = self.msr_area_mem.get(&addr).cloned().unwrap_or_default();
            area.entries.truncate(count);
        }
        match nf_silicon::try_vmentry(&vmcs12, &self.caps.clone(), &area) {
            Ok(outcome) => {
                self.cov(GBlk::EntryOk);
                self.in_l2 = true;
                self.l2_runnable = outcome.runnable;
                self.vmcs12_mem.get_mut(&ptr).expect("staged").state = VmcsState::Launched;
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
                self.entry_fail(ptr, ExitReason::EntryFailGuestState)
            }
            Err(EntryFailure::MsrLoad(..)) => self.entry_fail(ptr, ExitReason::EntryFailMsrLoad),
        }
    }

    fn l2_exec_vmx(&mut self, instr: GuestInstr) -> L2Result {
        let ptr = self.current_vmptr.expect("in_l2 implies current vmcs");
        let Some(reason) = vmx_exit_for(instr, &self.vmcs12_mem[&ptr]) else {
            return L2Result::NoExit;
        };
        self.cov(GBlk::VmxExit);
        // The exit writes straight into the live VMCS and control
        // returns to L1 — the guest fields are already there.
        let encoded = reason.encode(false);
        let vmcs = self.vmcs12_mem.get_mut(&ptr).expect("staged");
        vmcs.write(VmcsField::VmExitReason, encoded as u64);
        vmcs.write(VmcsField::ExitQualification, 0);
        self.in_l2 = false;
        L2Result::ReflectedToL1(encoded)
    }

    /// `vmrun` straight on the scenario's VMCB (APM 15.5 checks only).
    fn svm_enter(&mut self, addr: u64) -> L1Result {
        self.cov(GBlk::Vmrun);
        if !self.virt_exposed() || self.l1_efer & Efer::SVME == 0 {
            return L1Result::Fault("#UD");
        }
        let Some(vmcb12) = self.vmcb12_mem.get(&addr).copied() else {
            return L1Result::Fault("#GP");
        };
        self.current_vmcb = Some(addr);
        match check_vmrun(&vmcb12, true) {
            Ok(outcome) => {
                self.cov(GBlk::EntryOk);
                self.in_l2 = true;
                self.l2_runnable = outcome.runnable;
                L1Result::L2Entered {
                    runnable: outcome.runnable,
                }
            }
            Err(_) => {
                self.cov(GBlk::EntryFail);
                let vmcb = self.vmcb12_mem.get_mut(&addr).expect("staged");
                vmcb.control.exitcode = SvmExitCode::Invalid as u32 as u64;
                L1Result::L2EntryFailed {
                    reason: SvmExitCode::Invalid as u32,
                }
            }
        }
    }

    fn l2_exec_svm(&mut self, instr: GuestInstr) -> L2Result {
        let addr = self.current_vmcb.expect("in_l2 implies current vmcb");
        let vmcb12 = self.vmcb12_mem[&addr];
        let Some(code) = svm_exit_for(instr, &vmcb12) else {
            return L2Result::NoExit;
        };
        self.cov(GBlk::SvmExit);
        let vmcb = self.vmcb12_mem.get_mut(&addr).expect("staged");
        vmcb.control.exitcode = code as u32 as u64;
        self.in_l2 = false;
        L2Result::ReflectedToL1(code as u32)
    }
}

impl L0Hypervisor for SiliconGolden {
    fn name(&self) -> &'static str {
        "golden"
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
        self.in_l2 = false;
        self.l2_runnable = false;
        self.vmcb12_mem.clear();
        self.current_vmcb = None;
    }

    fn reboot_host(&mut self) {
        self.reset_guest();
        self.health = HostHealth::new();
    }

    fn snapshot(&self) -> HvSnapshot {
        HvSnapshot::Golden(GoldenSnapshot {
            l1_cr0: self.l1_cr0,
            l1_cr4: self.l1_cr4,
            l1_efer: self.l1_efer,
            vmxon_region: self.vmxon_region,
            vmcs12_mem: share_map(&self.vmcs12_mem),
            current_vmptr: self.current_vmptr,
            msr_area_mem: share_map(&self.msr_area_mem),
            in_l2: self.in_l2,
            l2_runnable: self.l2_runnable,
            vmcb12_mem: share_map(&self.vmcb12_mem),
            current_vmcb: self.current_vmcb,
            health: self.health.clone(),
        })
    }

    fn restore(&mut self, snap: &HvSnapshot) {
        let HvSnapshot::Golden(s) = snap else {
            panic!("golden cannot restore a {} snapshot", snap.backend());
        };
        restore_fields!(copy: self, s, [
            l1_cr0, l1_cr4, l1_efer, vmxon_region, current_vmptr,
            in_l2, l2_runnable, current_vmcb,
        ]);
        restore_fields!(clone: self, s, [health]);
        restore_fields!(shared: self, s, [vmcs12_mem, msr_area_mem, vmcb12_mem]);
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
            // --- Intel VMX, straight from the SDM.
            (CpuVendor::Intel, Vmxon(addr)) => {
                self.cov(GBlk::Vmxon);
                if !self.virt_exposed() || self.l1_cr4 & Cr4::VMXE == 0 {
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
                    if !nf_x86::addr::page_aligned(addr) || !nf_x86::addr::phys_in_width(addr) {
                        return L1Result::VmFail(VmInstrError::FailInvalid);
                    }
                    return L1Result::Fault("#GP");
                }
                self.vmxon_region = Some(addr);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmxoff) => {
                self.cov(GBlk::Vmxoff);
                if self.vmxon_region.is_none() {
                    return L1Result::Fault("#UD");
                }
                self.vmxon_region = None;
                self.current_vmptr = None;
                self.in_l2 = false;
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmclear(addr)) => {
                self.cov(GBlk::Vmclear);
                let Some(vmxon) = self.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                if let Err(e) = vmclear_check(addr, vmxon) {
                    return L1Result::VmFail(e);
                }
                let revision = self.caps.revision_id;
                let vmcs = self.vmcs12_mem.entry(addr).or_insert_with(|| {
                    let mut v = Vmcs::new();
                    v.revision_id = revision;
                    v
                });
                vmcs.state = VmcsState::Clear;
                if self.current_vmptr == Some(addr) {
                    self.current_vmptr = None;
                }
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmptrld(addr)) => {
                self.cov(GBlk::Vmptrld);
                let Some(vmxon) = self.vmxon_region else {
                    return L1Result::Fault("#UD");
                };
                let revision = self.caps.revision_id;
                let region_rev = self
                    .vmcs12_mem
                    .get(&addr)
                    .map(|v| v.revision_id)
                    .unwrap_or(revision);
                if let Err(e) = vmptrld_check(addr, vmxon, region_rev, revision) {
                    return L1Result::VmFail(e);
                }
                self.vmcs12_mem.entry(addr).or_insert_with(|| {
                    let mut v = Vmcs::new();
                    v.revision_id = revision;
                    v
                });
                self.current_vmptr = Some(addr);
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Vmptrst) => {
                self.cov(GBlk::Passthrough);
                L1Result::Ok(self.current_vmptr.unwrap_or(u64::MAX))
            }
            (CpuVendor::Intel, Vmread(enc)) => {
                self.cov(GBlk::VmreadVmwrite);
                let Some(ptr) = self.current_vmptr else {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                };
                match vmread_check(enc) {
                    Err(e) => L1Result::VmFail(e),
                    Ok(field) => L1Result::Ok(self.vmcs12_mem[&ptr].read(field)),
                }
            }
            (CpuVendor::Intel, Vmwrite(enc, val)) => {
                self.cov(GBlk::VmreadVmwrite);
                let Some(ptr) = self.current_vmptr else {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                };
                match vmwrite_check(enc) {
                    Err(e) => L1Result::VmFail(e),
                    Ok(field) => {
                        self.vmcs12_mem
                            .get_mut(&ptr)
                            .expect("current vmcs staged")
                            .write(field, val);
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
                if self.vmxon_region.is_none() {
                    return L1Result::Fault("#UD");
                }
                if !(1..=2).contains(&t) {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Invvpid(t)) => {
                self.cov(GBlk::Passthrough);
                if self.vmxon_region.is_none() {
                    return L1Result::Fault("#UD");
                }
                if t > 3 {
                    return L1Result::VmFail(VmInstrError::FailInvalid);
                }
                L1Result::Ok(0)
            }
            (CpuVendor::Intel, Rdmsr(idx))
                if (Msr::VmxBasic.index()..=Msr::VmxVmfunc.index()).contains(&idx) =>
            {
                self.capability_msr_read(idx)
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
                if self.l1_efer & Efer::SVME == 0 {
                    return L1Result::Fault("#UD");
                }
                if !self.vmcb12_mem.contains_key(&addr) {
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
            _ => L1Result::Ok(0),
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

    fn host_ioctl(&mut self, _op: IoctlOp) {
        // Bare metal has no host-side ioctl surface.
    }

    fn observe_guest(&self) -> GuestObservation {
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

    fn health_mut(&mut self) -> &mut HostHealth {
        &mut self.health
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
        g.l1_cr4 |= Cr4::VMXE;
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
        assert!(g.in_l2);
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
        assert!(!g.in_l2);
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
        g.l1_cr4 |= Cr4::VMXE;
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
    fn snapshot_round_trips() {
        let mut g = intel_golden();
        let boot = g.snapshot();
        assert!(matches!(boot_to_l2(&mut g), L1Result::L2Entered { .. }));
        let dirty = g.snapshot();
        assert_ne!(boot, dirty);
        g.restore(&boot);
        assert_eq!(g.snapshot(), boot);
        g.restore(&dirty);
        assert_eq!(g.snapshot(), dirty);
    }

    #[test]
    fn svm_golden_vmcb_enters() {
        let mut g = SiliconGolden::new(HvConfig::default_for(CpuVendor::Amd));
        g.l1_efer |= Efer::SVME;
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
