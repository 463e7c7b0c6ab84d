//! The nested-L1 state core every backend model shares.
//!
//! The paper's targets differ in nested *policy* — which checks run,
//! what reaches L1, which bug is seeded — over the same L1 state: the
//! guest's control registers, its VMXON region and VMCS12 images, the
//! staged MSR areas and VMCBs, and whether a nested guest is live.
//! [`NestedL1State`] holds that state once, together with the
//! instrumentation every backend carries, and implements what is
//! identical across the four models:
//!
//! - the reset a fresh fuzz-harness VM boots from;
//! - the guest observation the differential oracle compares;
//! - the per-instruction preamble (dead host, fault tick) with the
//!   core's invariants as a `debug_assert!`;
//! - the coverage hits, behind one recording switch: a host with
//!   recording off runs every instruction exactly as before but never
//!   touches its trace (the differential oracle's replays, whose
//!   coverage nobody reads);
//! - the VMX-instruction state updates (VMCLEAR, VMPTRLD, VMXOFF) and
//!   the current-VMCS/VMCB accessors.
//!
//! Each backend embeds one, hands it out through
//! [`L0Hypervisor::core`](crate::L0Hypervisor::core), and keeps only
//! its policy: its checks, its coverage hits, its error mapping, its
//! seeded bugs and a few extras of its own.

use std::collections::BTreeMap;

use nf_coverage::ExecTrace;
use nf_vmx::{MsrArea, Vmcb, Vmcs, VmcsField, VmcsState};
use nf_x86::{CpuFeature, CpuVendor, Cr0, Cr4, Efer};

use crate::api::{GuestObservation, HvConfig, L1Result, L2Result};
use crate::fault::SharedFaults;
use crate::sanitizer::HostHealth;
use crate::Instrumentation;

/// L1's CR0 at boot: protected mode with paging.
const BOOT_CR0: u64 = Cr0::PE | Cr0::PG | Cr0::NE;
/// L1's CR4 at boot.
const BOOT_CR4: u64 = Cr4::PAE;
/// L1's EFER at boot: long mode, active.
const BOOT_EFER: u64 = Efer::LME | Efer::LMA;

/// The L1 state every backend model shares (see the module docs).
///
/// The fields are crate-visible: backends read and write them directly
/// and route only the updates that are identical across models through
/// the methods below.
pub struct NestedL1State {
    /// The active configuration.
    pub(crate) config: HvConfig,
    /// The backend's instrumentation, one per process.
    pub(crate) cov: &'static Instrumentation,
    /// The in-flight execution trace.
    pub(crate) trace: ExecTrace,
    /// Whether coverage hits land in `trace` (see
    /// [`Self::set_recording`]). Instrumentation, not VM state: a reset
    /// keeps it.
    recording: bool,
    /// Sanitizer / log / watchdog state.
    pub(crate) health: HostHealth,
    /// Deterministic fault injection (instrumentation, not VM state:
    /// a reset keeps it).
    pub(crate) faults: Option<SharedFaults>,

    // --- L1 vCPU state (the guest-visible registers L0 tracks).
    pub(crate) cr0: u64,
    pub(crate) cr4: u64,
    pub(crate) efer: u64,

    // --- Nested VMX state.
    /// The VMXON region while L1 is in VMX operation.
    pub(crate) vmxon_region: Option<u64>,
    /// Every VMCS region L1 has staged, cleared or loaded, by address.
    pub(crate) vmcs12_mem: BTreeMap<u64, Vmcs>,
    /// The current-VMCS pointer: always an entry of `vmcs12_mem`.
    pub(crate) current_vmptr: Option<u64>,
    /// MSR load/store areas L1 has staged, by address.
    pub(crate) msr_area_mem: BTreeMap<u64, MsrArea>,
    /// The VMCS the hardware runs for L2. The golden model runs VMCS12
    /// itself and leaves this `None`.
    pub(crate) vmcs02: Option<Vmcs>,
    /// Whether a nested guest is live.
    pub(crate) in_l2: bool,

    // --- Nested SVM state.
    /// Every VMCB L1 has staged, by address.
    pub(crate) vmcb12_mem: BTreeMap<u64, Vmcb>,
    /// The VMCB of the last `vmrun`: always an entry of `vmcb12_mem`.
    pub(crate) current_vmcb: Option<u64>,
}

impl NestedL1State {
    /// A freshly booted L1 under `config`, instrumented by `cov`.
    pub(crate) fn new(config: HvConfig, cov: &'static Instrumentation) -> Self {
        NestedL1State {
            config,
            cov,
            trace: ExecTrace::new(),
            recording: true,
            health: HostHealth::new(),
            faults: None,
            cr0: BOOT_CR0,
            cr4: BOOT_CR4,
            efer: BOOT_EFER,
            vmxon_region: None,
            vmcs12_mem: BTreeMap::new(),
            current_vmptr: None,
            msr_area_mem: BTreeMap::new(),
            vmcs02: None,
            in_l2: false,
            vmcb12_mem: BTreeMap::new(),
            current_vmcb: None,
        }
    }

    /// Puts the L1 state back to its boot values and empties the kernel
    /// log and pending reports, keeping the configuration, the trace,
    /// the recording switch, the fault hook and `health.dead` (the
    /// watchdog reads it before the next exec and reboots).
    pub(crate) fn reset(&mut self) {
        self.health.log.clear();
        self.health.reports.clear();
        self.cr0 = BOOT_CR0;
        self.cr4 = BOOT_CR4;
        self.efer = BOOT_EFER;
        self.vmxon_region = None;
        self.vmcs12_mem.clear();
        self.current_vmptr = None;
        self.msr_area_mem.clear();
        self.vmcs02 = None;
        self.in_l2 = false;
        self.vmcb12_mem.clear();
        self.current_vmcb = None;
    }

    /// Whether coverage hits are recorded (the default).
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Turns coverage recording on or off. A host with recording off
    /// runs every instruction exactly as a recording one, with the same
    /// results, guest state and health, but its trace stays empty:
    /// turning recording off drops what the trace held, and later hits
    /// touch nothing.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        if !on {
            self.trace.clear();
        }
    }

    /// Records a hit of block `idx` of the Intel-side (or only) file.
    #[inline]
    pub(crate) fn hit_intel(&mut self, idx: usize) {
        if self.recording {
            self.trace.hit(self.cov.intel[idx]);
        }
    }

    /// Records a hit of block `idx` of the AMD-side file.
    #[inline]
    pub(crate) fn hit_amd(&mut self, idx: usize) {
        if self.recording {
            self.trace.hit(self.cov.amd[idx]);
        }
    }

    /// The preamble every guest instruction shares: a dead host runs
    /// nothing; otherwise the fault injector ticks, which may kill it.
    /// Returns whether the instruction runs.
    #[inline]
    fn begin_instr(&mut self) -> bool {
        debug_assert!(self.is_in_valid_state(), "nested-L1 state invariant broken");
        if self.health.dead {
            return false;
        }
        crate::fault::tick(&self.faults, &mut self.health);
        !self.health.dead
    }

    /// The preamble of `l1_exec`: `Some(HostDead)` when the
    /// instruction must not run.
    #[inline]
    pub(crate) fn l1_preamble(&mut self) -> Option<L1Result> {
        (!self.begin_instr()).then_some(L1Result::HostDead)
    }

    /// The preamble of `l2_exec`: `Some(HostDead)` or `Some(NoGuest)`
    /// when the instruction must not run.
    #[inline]
    pub(crate) fn l2_preamble(&mut self) -> Option<L2Result> {
        if !self.begin_instr() {
            return Some(L2Result::HostDead);
        }
        (!self.in_l2).then_some(L2Result::NoGuest)
    }

    /// The invariants every backend keeps between instructions:
    ///
    /// - a current VMCS is staged, and L1 is in VMX operation;
    /// - a current VMCB is staged;
    /// - a live L2 runs on a current VMCS (Intel) or VMCB (AMD);
    /// - a host with recording off holds no hit.
    pub(crate) fn is_in_valid_state(&self) -> bool {
        let vmcs_ok = self
            .current_vmptr
            .is_none_or(|p| self.vmcs12_mem.contains_key(&p) && self.vmxon_region.is_some());
        let vmcb_ok = self
            .current_vmcb
            .is_none_or(|a| self.vmcb12_mem.contains_key(&a));
        let l2_ok = !self.in_l2
            || match self.config.vendor {
                CpuVendor::Intel => self.current_vmptr.is_some(),
                CpuVendor::Amd => self.current_vmcb.is_some(),
            };
        let trace_ok = self.recording || self.trace.is_empty();
        vmcs_ok && vmcb_ok && l2_ok && trace_ok
    }

    /// The guest-visible architectural state (see [`GuestObservation`]).
    pub(crate) fn observe(&self) -> GuestObservation {
        let (vmx_on, current, digest) = match self.config.vendor {
            CpuVendor::Intel => (
                self.vmxon_region.is_some(),
                self.current_vmptr,
                self.current_vmptr
                    .map_or(0, |_| GuestObservation::digest_vmcs(self.current_vmcs())),
            ),
            CpuVendor::Amd => (
                false,
                self.current_vmcb,
                self.current_vmcb
                    .map_or(0, |_| GuestObservation::digest_vmcb(self.current_vmcb())),
            ),
        };
        GuestObservation {
            cr0: self.cr0,
            cr4: self.cr4,
            efer: self.efer,
            vmx_on,
            current_vmptr: current.unwrap_or(u64::MAX),
            in_l2: self.in_l2,
            vmcs12_digest: digest,
        }
    }

    /// Whether nested virtualization is exposed at all: the `nested`
    /// module parameter and the vendor's VMX/SVM feature.
    pub(crate) fn nested_on(&self) -> bool {
        self.config.nested
            && match self.config.vendor {
                CpuVendor::Intel => self.config.features.contains(CpuFeature::Vmx),
                CpuVendor::Amd => self.config.features.contains(CpuFeature::Svm),
            }
    }

    /// The revision id L1 staged at `addr`, or `default` when it
    /// staged nothing there.
    pub(crate) fn staged_revision(&self, addr: u64, default: u32) -> u32 {
        self.vmcs12_mem
            .get(&addr)
            .map_or(default, |v| v.revision_id)
    }

    /// The VM-entry MSR-load list `vmcs12` names: L1's staged area at
    /// the load address, cut to the load count. `None` when the count
    /// is 0; an address with nothing staged reads as an empty area.
    pub(crate) fn entry_msr_load(&self, vmcs12: &Vmcs) -> Option<MsrArea> {
        let count = vmcs12.read(VmcsField::VmEntryMsrLoadCount) as usize;
        if count == 0 {
            return None;
        }
        let addr = vmcs12.read(VmcsField::VmEntryMsrLoadAddr);
        let mut area = self.msr_area_mem.get(&addr).cloned().unwrap_or_default();
        area.entries.truncate(count);
        Some(area)
    }

    /// The VMCS region at `addr`, created with `revision` on first use.
    fn region(&mut self, addr: u64, revision: u32) -> &mut Vmcs {
        self.vmcs12_mem.entry(addr).or_insert_with(|| {
            let mut v = Vmcs::new();
            v.revision_id = revision;
            v
        })
    }

    /// The state change of a VMCLEAR of `addr` that passed the
    /// backend's checks. Clearing the current VMCS also ends a live L2:
    /// it ran on that VMCS.
    pub(crate) fn vmclear(&mut self, addr: u64, revision: u32) {
        self.region(addr, revision).state = VmcsState::Clear;
        if self.current_vmptr == Some(addr) {
            self.current_vmptr = None;
            self.in_l2 = false;
        }
    }

    /// The state change of a VMPTRLD of `addr` that passed the
    /// backend's checks.
    pub(crate) fn vmptrld(&mut self, addr: u64, revision: u32) {
        self.region(addr, revision);
        self.current_vmptr = Some(addr);
    }

    /// The state change of a VMXOFF: L1 leaves VMX operation.
    pub(crate) fn vmxoff(&mut self) {
        self.vmxon_region = None;
        self.current_vmptr = None;
        self.in_l2 = false;
    }

    /// The current VMCS12.
    ///
    /// # Panics
    ///
    /// Panics when no VMCS is current; callers check `current_vmptr`
    /// first, and a live Intel L2 always has one.
    #[inline]
    pub(crate) fn current_vmcs(&self) -> &Vmcs {
        let ptr = self.current_vmptr.expect("no current VMCS");
        &self.vmcs12_mem[&ptr]
    }

    /// Mutable form of [`Self::current_vmcs`].
    #[inline]
    pub(crate) fn current_vmcs_mut(&mut self) -> &mut Vmcs {
        let ptr = self.current_vmptr.expect("no current VMCS");
        self.vmcs12_mem.get_mut(&ptr).expect("current VMCS staged")
    }

    /// The current VMCB12.
    ///
    /// # Panics
    ///
    /// Panics when no VMCB is current; a live AMD L2 always has one.
    #[inline]
    pub(crate) fn current_vmcb(&self) -> &Vmcb {
        let addr = self.current_vmcb.expect("no current VMCB");
        &self.vmcb12_mem[&addr]
    }

    /// Mutable form of [`Self::current_vmcb`].
    #[inline]
    pub(crate) fn current_vmcb_mut(&mut self) -> &mut Vmcb {
        let addr = self.current_vmcb.expect("no current VMCB");
        self.vmcb12_mem.get_mut(&addr).expect("current VMCB staged")
    }

    /// Copies VMCS02's guest state back into the current VMCS12 (the
    /// sync half of reflecting an L2 exit) and returns the VMCS12 for
    /// the exit fields.
    pub(crate) fn sync_vmcs12_guest_state(&mut self) -> &mut Vmcs {
        let vmcs02 = self.vmcs02.as_ref().expect("a live L2 runs on VMCS02");
        let ptr = self.current_vmptr.expect("no current VMCS");
        let vmcs12 = self.vmcs12_mem.get_mut(&ptr).expect("current VMCS staged");
        vmcs12.copy_guest_state_from(vmcs02);
        vmcs12
    }
}

#[cfg(test)]
mod tests {
    use nf_silicon::{golden_vmcs, CrIndex, GuestInstr};
    use nf_vmx::VmxCapabilities;

    use crate::{HvConfig, L0Hypervisor, L1Result, L2Result, SiliconGolden, Vkvm, Vvbox, Vxen};

    use super::*;

    /// Walks `hv` (Intel) through VMXON, VMCLEAR, VMPTRLD of 0x2000 and a
    /// golden VMCS12 to a live L2.
    fn boot_to_l2(hv: &mut dyn L0Hypervisor) {
        let config = hv.config();
        let caps = VmxCapabilities::from_features(config.features.sanitized(config.vendor));
        hv.l1_exec(GuestInstr::MovToCr(CrIndex::Cr4, Cr4::VMXE | Cr4::PAE));
        assert_eq!(hv.l1_exec(GuestInstr::Vmxon(0x1000)), L1Result::Ok(0));
        assert_eq!(hv.l1_exec(GuestInstr::Vmclear(0x2000)), L1Result::Ok(0));
        hv.l1_stage_vmcs_region(0x2000, caps.revision_id);
        assert_eq!(hv.l1_exec(GuestInstr::Vmptrld(0x2000)), L1Result::Ok(0));
        let golden = golden_vmcs(&caps);
        for &f in nf_vmx::VmcsField::ALL {
            if f.writable() {
                hv.l1_exec(GuestInstr::Vmwrite(f.encoding(), golden.read(f)));
            }
        }
        assert!(
            matches!(hv.l1_exec(GuestInstr::Vmlaunch), L1Result::L2Entered { .. }),
            "{}: golden VMCS12 enters L2",
            hv.name()
        );
    }

    #[test]
    fn vmclear_of_the_current_vmcs_ends_a_live_l2() {
        let config = HvConfig::default_for(CpuVendor::Intel);
        let backends: [Box<dyn L0Hypervisor>; 4] = [
            Box::new(Vkvm::new(config.clone())),
            Box::new(Vxen::new(config.clone())),
            Box::new(Vvbox::new(config.clone())),
            Box::new(SiliconGolden::new(config)),
        ];
        for mut hv in backends {
            boot_to_l2(hv.as_mut());
            assert!(hv.observe_guest().in_l2);
            assert_eq!(hv.l1_exec(GuestInstr::Vmclear(0x2000)), L1Result::Ok(0));
            assert!(hv.core().is_in_valid_state(), "{}", hv.name());
            assert_eq!(
                hv.l2_exec(GuestInstr::Hlt),
                L2Result::NoGuest,
                "{}",
                hv.name()
            );
            let seen = hv.observe_guest();
            assert!(!seen.in_l2, "{}", hv.name());
            assert_eq!(seen.current_vmptr, u64::MAX, "{}", hv.name());
        }
    }

    #[test]
    fn a_live_l2_without_a_current_vmcs_is_invalid() {
        let mut hv = Vkvm::new(HvConfig::default_for(CpuVendor::Intel));
        boot_to_l2(&mut hv);
        assert!(hv.core.is_in_valid_state());
        hv.core.current_vmptr = None;
        assert!(!hv.core.is_in_valid_state());
    }

    #[test]
    fn a_non_recording_host_holding_a_hit_is_invalid() {
        let probe = GuestInstr::Rdmsr(nf_x86::Msr::VmxBasic.index());
        let mut hv = Vkvm::new(HvConfig::default_for(CpuVendor::Intel));
        hv.l1_exec(probe);
        assert!(!hv.core.trace.is_empty());
        assert!(hv.core.is_in_valid_state(), "a recording host holds hits");
        hv.core.set_recording(false);
        assert!(hv.core.trace.is_empty(), "turning recording off drops them");
        hv.l1_exec(probe);
        assert!(hv.core.trace.is_empty());
        assert!(hv.core.is_in_valid_state());
        hv.core.trace.hit(hv.core.cov.intel[0]);
        assert!(!hv.core.is_in_valid_state());
    }
}
