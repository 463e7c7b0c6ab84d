//! The hypervisor-facing API: what a fuzz-harness VM can do to an L0
//! hypervisor, and what comes back.
//!
//! The harness plays both L1 hypervisor and L2 guest (paper §3.3). Every
//! interaction goes through two calls:
//!
//! - [`L0Hypervisor::l1_exec`] — L1 executes an instruction. Sensitive
//!   instructions trap to L0, which emulates them (this is the nested
//!   virtualization interface: `vmxon`, `vmwrite`, `vmlaunch`, `vmrun`…).
//! - [`L0Hypervisor::l2_exec`] — once a nested guest is live, drive it
//!   with one instruction; silicon decides the exit against VMCS02/VMCB02
//!   and L0 decides whether to reflect it to L1.

use nf_coverage::{CovMap, ExecTrace, FileId};
use nf_silicon::{GuestInstr, VmInstrError};
use nf_x86::{CpuVendor, FeatureSet};

use crate::fault::SharedFaults;
use crate::l1::NestedL1State;
use crate::sanitizer::HostHealth;

/// A vCPU/host configuration produced by the vCPU configurator through a
/// per-hypervisor adapter (paper §3.5, §4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HvConfig {
    /// Which vendor's virtualization the host CPU provides.
    pub vendor: CpuVendor,
    /// Enabled hardware-assisted virtualization features (module
    /// parameters such as `ept=`, `npt=`, `avic=` …).
    pub features: FeatureSet,
    /// Whether nested virtualization is exposed to guests at all
    /// (`kvm-intel.nested=1` analog).
    pub nested: bool,
}

impl HvConfig {
    /// The out-of-the-box configuration for `vendor` with nesting on.
    pub fn default_for(vendor: CpuVendor) -> Self {
        HvConfig {
            vendor,
            features: FeatureSet::default_for(vendor),
            nested: true,
        }
    }
}

/// Result of L1 executing one instruction under L0 emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L1Result {
    /// Completed; `rflags`-style success, with an optional read value.
    Ok(u64),
    /// The emulated VMX instruction failed (`VMfailValid`/`VMfailInvalid`).
    VmFail(VmInstrError),
    /// L0 injected a fault into L1 (`#GP`, `#UD`, …).
    Fault(&'static str),
    /// A nested VM entry succeeded; L2 is live.
    L2Entered {
        /// `false` when the entered L2 cannot make progress (stalled
        /// activity state) — the host must still stay responsive.
        runnable: bool,
    },
    /// The nested entry failed with a VM-entry-failure exit delivered to
    /// L1 (Intel reason 33/34, AMD `VMEXIT_INVALID`).
    L2EntryFailed {
        /// Raw exit reason / exit code delivered to L1.
        reason: u32,
    },
    /// The host became unable to continue (crash or hang); the agent's
    /// watchdog will restart it.
    HostDead,
}

/// Result of driving the live L2 guest with one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Result {
    /// No exit: the instruction ran natively inside L2.
    NoExit,
    /// L0 handled the exit itself and resumed L2.
    HandledByL0,
    /// L0 reflected the exit to L1 (raw reason / exit code); the harness
    /// is now executing its L1 exit handler.
    ReflectedToL1(u32),
    /// There is no live L2 (entry failed or never attempted).
    NoGuest,
    /// The host became unable to continue.
    HostDead,
}

/// The guest-visible architectural state of the L1/L2 stack at the end
/// of one execution — the per-backend half of the differential oracle's
/// canonical observation.
///
/// Only state an L1 hypervisor could itself read is captured: control
/// registers, VMX-operation status, and a digest of the *current*
/// VMCS12 (every field, as `vmread` would return it). L0-internal
/// bookkeeping (VMCS02 contents, shadow structures, health state) is
/// deliberately excluded — two backends that present identical state to
/// their guest must produce identical observations, whatever their
/// internals do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuestObservation {
    /// L1's CR0.
    pub cr0: u64,
    /// L1's CR4.
    pub cr4: u64,
    /// L1's EFER.
    pub efer: u64,
    /// Whether L1 is in VMX operation (`vmxon` without `vmxoff`).
    pub vmx_on: bool,
    /// The current-VMCS pointer (`vmptrst`); `u64::MAX` when none.
    pub current_vmptr: u64,
    /// Whether a nested guest is live.
    pub in_l2: bool,
    /// FNV-1a digest over `(encoding, value)` of every field of the
    /// current VMCS12; `0` when no VMCS is current.
    pub vmcs12_digest: u64,
}

impl GuestObservation {
    /// Digests a VMCS the way every backend must: FNV-1a over
    /// `(encoding, value)` of [`nf_vmx::VmcsField::ALL`] in order.
    pub fn digest_vmcs(vmcs: &nf_vmx::Vmcs) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &f in nf_vmx::VmcsField::ALL {
            mix(u64::from(f.encoding()));
            mix(vmcs.read(f));
        }
        h
    }

    /// Digests a VMCB's guest-visible scalar fields (AMD side of
    /// [`Self::digest_vmcs`]): the save-area register file plus the
    /// control fields an L1 hypervisor reads back after `#VMEXIT`.
    pub fn digest_vmcb(vmcb: &nf_vmx::Vmcb) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let c = &vmcb.control;
        for v in [
            c.intercepts,
            c.iopm_base_pa,
            c.msrpm_base_pa,
            c.tsc_offset,
            u64::from(c.guest_asid),
            c.int_ctl,
            c.interrupt_shadow,
            c.exitcode,
            c.exitinfo1,
            c.exitinfo2,
            c.exitintinfo,
            c.np_enable,
            c.event_inj,
            c.ncr3,
            c.lbr_ctl,
            c.nrip,
        ] {
            mix(v);
        }
        let s = &vmcb.save;
        for v in [
            s.efer,
            s.cr0,
            s.cr3,
            s.cr4,
            s.dr6,
            s.dr7,
            s.rflags,
            s.rip,
            s.rsp,
            s.rax,
            u64::from(s.cpl),
        ] {
            mix(v);
        }
        h
    }
}

/// Host-side ioctl-style operations — the interface Syzkaller fuzzes and
/// the paper's threat model excludes for NecoFuzz (§3.1, §5.2). Blocks
/// reachable only through these calls form the coverage residue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoctlOp {
    /// `KVM_GET_NESTED_STATE` analog (live migration save).
    GetNestedState,
    /// `KVM_SET_NESTED_STATE` analog (live migration restore).
    SetNestedState,
    /// vCPU teardown / nested state free.
    FreeNestedState,
    /// Module load-time hardware setup.
    HardwareSetup,
    /// Module unload-time cleanup.
    HardwareUnsetup,
}

/// The L0 hypervisor under test.
///
/// Every backend embeds a [`NestedL1State`] — the L1 state the models
/// share — and exposes it through [`Self::core`] /
/// [`Self::core_mut`]. The plumbing methods are defaults over that
/// core; a backend implements only its name, the reset of its own
/// extras, and its policy: [`Self::l1_exec`], [`Self::l2_exec`] and
/// [`Self::host_ioctl`].
pub trait L0Hypervisor {
    /// Short name, e.g. `"vkvm"`.
    fn name(&self) -> &'static str;

    /// The shared nested-L1 state core.
    fn core(&self) -> &NestedL1State;

    /// Mutable access to the shared nested-L1 state core.
    fn core_mut(&mut self) -> &mut NestedL1State;

    /// CPU vendor this instance was booted on.
    fn vendor(&self) -> CpuVendor {
        self.core().config.vendor
    }

    /// The active configuration.
    fn config(&self) -> &HvConfig {
        &self.core().config
    }

    /// Resets guest-visible state, the kernel log and pending reports
    /// for a fresh fuzz-harness VM boot, keeping cumulative coverage.
    /// Models the agent relaunching the UEFI executor (§4.5). A live
    /// host lands exactly where a freshly built instance starts; a dead
    /// host stays dead for the watchdog.
    fn reset_guest(&mut self);

    /// Fully reboots the host (watchdog path): revives a dead host too.
    /// Like a guest reset, it keeps the core's recording switch.
    fn reboot_host(&mut self) {
        self.reset_guest();
        self.core_mut().health = HostHealth::new();
    }

    /// Installs a deterministic fault-injection handle (see
    /// [`crate::fault`]): once installed, every guest instruction ticks
    /// the injector.
    fn install_faults(&mut self, faults: SharedFaults) {
        self.core_mut().faults = Some(faults);
    }

    /// L1 executes `instr`; L0 traps and emulates if it is sensitive.
    fn l1_exec(&mut self, instr: GuestInstr) -> L1Result;

    /// Models L1 writing a VMCS region header (revision id) into its own
    /// memory before `vmptrld` — a plain store, invisible to L0.
    fn l1_stage_vmcs_region(&mut self, addr: u64, revision: u32) {
        self.core_mut()
            .vmcs12_mem
            .entry(addr)
            .or_default()
            .revision_id = revision;
    }

    /// Models L1 building a VMCB in its own memory before `vmrun`.
    fn l1_stage_vmcb(&mut self, addr: u64, vmcb: nf_vmx::Vmcb) {
        self.core_mut().vmcb12_mem.insert(addr, vmcb);
    }

    /// Models L1 building an MSR-load/store area in its own memory.
    fn l1_stage_msr_area(&mut self, addr: u64, area: nf_vmx::MsrArea) {
        self.core_mut().msr_area_mem.insert(addr, area);
    }

    /// Drives the live L2 guest with `instr`.
    fn l2_exec(&mut self, instr: GuestInstr) -> L2Result;

    /// Host-side ioctl interface (outside the NecoFuzz threat model).
    fn host_ioctl(&mut self, op: IoctlOp);

    /// Captures the guest-visible architectural state for the
    /// differential oracle (see [`GuestObservation`] for exactly what
    /// is — and is not — comparable across backends).
    fn observe_guest(&self) -> GuestObservation {
        self.core().observe()
    }

    /// The instrumentation registry.
    fn coverage_map(&self) -> &CovMap {
        &self.core().cov.map
    }

    /// Read-only view of the in-flight execution trace.
    fn trace(&self) -> &ExecTrace {
        &self.core().trace
    }

    /// Swaps the in-flight execution trace with `trace` — the
    /// zero-allocation collection path. The caller hands in a *cleared*
    /// trace (its buffers are reused for the next execution) and
    /// receives the current one; see `nf_coverage::ExecScratch` for the
    /// ownership protocol.
    fn swap_trace(&mut self, trace: &mut ExecTrace) {
        std::mem::swap(&mut self.core_mut().trace, trace);
    }

    /// Takes (and clears) the block trace of the current execution.
    ///
    /// Allocating convenience form of [`Self::swap_trace`]: the
    /// hypervisor is left with a fresh (empty, capacity-less) trace, so
    /// per-exec callers should prefer the swap. Kept for one-shot
    /// inspection and as the compat ("before") path of the `hotpath`
    /// bench.
    fn take_trace(&mut self) -> ExecTrace {
        let mut trace = ExecTrace::new();
        self.swap_trace(&mut trace);
        trace
    }

    /// The instrumented file holding Intel nested-virtualization code.
    fn intel_file(&self) -> FileId {
        self.core().cov.intel_file
    }

    /// The instrumented file holding AMD nested-virtualization code,
    /// if the hypervisor has one.
    fn amd_file(&self) -> Option<FileId> {
        self.core().cov.amd_file
    }

    /// Sanitizer / log / watchdog state.
    fn health(&self) -> &HostHealth {
        &self.core().health
    }

    /// Mutable health access for the agent (to drain reports).
    fn health_mut(&mut self) -> &mut HostHealth {
        &mut self.core_mut().health
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_vendor() {
        let c = HvConfig::default_for(CpuVendor::Intel);
        assert!(c.nested);
        assert_eq!(c.vendor, CpuVendor::Intel);
        assert!(c.features.contains(nf_x86::CpuFeature::Vmx));
        let a = HvConfig::default_for(CpuVendor::Amd);
        assert!(a.features.contains(nf_x86::CpuFeature::Svm));
    }
}
