//! The execution engine: the iteration hot path.
//!
//! The paper's whole premise is that a fuzz-harness VM makes each
//! fuzzing iteration cheap by avoiding guest-OS reboots (§3.2, §4.5):
//! the agent relaunches the harness VM's UEFI executor, and the VM is
//! regenerated from its input on every exec. The engine realizes that
//! on the simulator side with one path:
//!
//! - **Guest reset per exec.** While the vCPU config stays the same,
//!   the active hypervisor instance is reused and
//!   [`L0Hypervisor::reset_guest`] puts it back where a freshly built
//!   instance starts. Nothing is recorded or replayed: the harness VM
//!   needs no state from the previous exec.
//! - **A fresh instance per config flip.** When the configurator
//!   changes the [`HvConfig`], the factory builds a new instance (the
//!   modeled module reload), and the validator is rebuilt for the new
//!   capabilities with its learned corrections carried over. A flip
//!   that leaves the feature set unchanged (only `nested` moved) keeps
//!   the validator as is: a validator is a pure function of its
//!   [`VmxCapabilities`] and its corrections.
//! - **Reusable execution scratch.** The engine owns the
//!   [`ExecScratch`] of the zero-allocation hot path: per iteration the
//!   hypervisor's trace is *swapped* (not cloned) into the scratch,
//!   projected onto the reusable AFL bitmap with a targeted wipe of the
//!   previous projection, and the line set is cleared in place — the
//!   steady-state loop performs no heap allocation (the `hotpath`
//!   bench's counting allocator enforces this).
//! - **Nothing to collect on a replay.** The differential oracle's
//!   agents run on a factory whose instances have coverage recording
//!   off ([`nf_hv::NestedL1State::set_recording`]): their traces stay
//!   empty, so a replay never calls
//!   [`collect_coverage`](ExecutionEngine::collect_coverage) and leaves
//!   nothing behind for the next exec.
//! - **Only what is read is built.** The scratch (a 64 KiB bitmap) is
//!   built with the engine when its host records coverage, and on first
//!   use otherwise; a capability-changing flip rebuilds the validator on
//!   its next [`validator_mut`](ExecutionEngine::validator_mut), not in
//!   [`prepare`](ExecutionEngine::prepare). An engine that stages and
//!   collects every exec sees no difference; a differential replay
//!   agent, which only runs VMs another agent staged on a host that
//!   records nothing, never allocates the one nor rebuilds the other.
//!
//! `crates/hv/tests/reset_equivalence.rs` checks the reset: after a
//! random prefix, a reset instance runs a random probe exactly like a
//! fresh one.

use std::cell::OnceCell;

use nf_coverage::ExecScratch;
use nf_fuzz::MAP_SIZE;
use nf_hv::{FaultPlan, HvConfig, L0Hypervisor, SharedFaults};
use nf_vmx::VmxCapabilities;
use nf_x86::FeatureSet;

use crate::validator::VmStateValidator;

/// The engine's mode. The engine has one path; nothing reads the
/// value, which stays only because perfbench passes it to
/// [`ExecutionEngine::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// The only value.
    Snapshot,
}

/// Counters describing how the engine serviced the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Hypervisor instances built through the factory: the first one
    /// plus one per config flip.
    pub factory_builds: u64,
    /// Always 0: kept only because perfbench reads it.
    pub cache_hits: u64,
    /// Execs serviced by a guest reset of the active instance (every
    /// exec that did not flip the config).
    pub guest_resets: u64,
    /// Config flips where the validator was kept because the feature
    /// set was unchanged.
    pub validator_reuses: u64,
    /// Validator rebuilds (new capabilities, corrections carried
    /// over): one per capability-changing flip that a
    /// [`validator_mut`](ExecutionEngine::validator_mut) call followed.
    pub validator_rebuilds: u64,
}

/// The engine: owns the active hypervisor instance, the factory that
/// builds the next one, and the VM state validator.
pub struct ExecutionEngine {
    factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
    hv: Box<dyn L0Hypervisor>,
    validator: VmStateValidator,
    /// Feature set the validator is derived from, or is due to be
    /// rebuilt for (`None` when the initial capabilities were not
    /// derived from the initial config's features — the first flip
    /// then always rebuilds).
    validator_features: Option<FeatureSet>,
    /// Set by a capability-changing flip: the feature set the next
    /// [`validator_mut`](Self::validator_mut) rebuilds the validator
    /// for.
    rebuild_for: Option<FeatureSet>,
    /// The reusable per-execution buffers (trace, AFL bitmap, lines):
    /// built with the engine when its host records coverage, on first
    /// use otherwise.
    scratch: OnceCell<ExecScratch>,
    /// The shared fault injector, when a plan is installed; handed to
    /// the active instance and every instance the factory builds later.
    faults: Option<SharedFaults>,
    stats: EngineStats,
}

impl ExecutionEngine {
    /// Boots an engine on `factory` with the given initial config and
    /// validator capabilities. `_mode` is ignored (see [`EngineMode`]).
    pub fn new(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        config: HvConfig,
        validator_caps: VmxCapabilities,
        _mode: EngineMode,
    ) -> Self {
        let features = config.features;
        let hv = factory(config);
        let validator_features =
            (VmxCapabilities::from_features(features) == validator_caps).then_some(features);
        let scratch = OnceCell::new();
        if hv.core().recording() {
            scratch.get_or_init(|| ExecScratch::new(hv.coverage_map(), MAP_SIZE));
        }
        ExecutionEngine {
            factory,
            hv,
            validator: VmStateValidator::new(validator_caps),
            validator_features,
            rebuild_for: None,
            scratch,
            faults: None,
            stats: EngineStats {
                factory_builds: 1,
                ..EngineStats::default()
            },
        }
    }

    /// Installs a deterministic fault plan: builds the shared
    /// [`FaultInjector`](nf_hv::FaultInjector) and hands it to the
    /// active instance and every instance built from here on. A zero
    /// plan installs an injector that never fires.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Non-consuming form of [`with_fault_plan`](Self::with_fault_plan).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let faults = nf_hv::fault::shared(plan);
        self.hv.install_faults(faults.clone());
        self.faults = Some(faults);
    }

    /// The shared fault-injector handle, when a plan is installed (the
    /// agent opens each execution on it; campaign summaries read its
    /// fired counters).
    pub fn faults(&self) -> Option<SharedFaults> {
        self.faults.clone()
    }

    /// Hot-path counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The active hypervisor instance.
    pub fn hv(&self) -> &dyn L0Hypervisor {
        self.hv.as_ref()
    }

    /// Mutable access to the active instance (the harness drives it).
    pub fn hv_mut(&mut self) -> &mut dyn L0Hypervisor {
        self.hv.as_mut()
    }

    /// The validator as last built (exposes the oracle-correction
    /// state). After a capability-changing flip its rebuild waits for
    /// the next [`validator_mut`](Self::validator_mut); the corrections
    /// it carries over are the ones shown here.
    pub fn validator(&self) -> &VmStateValidator {
        &self.validator
    }

    /// Mutable validator access (the generation pipeline learns).
    /// Rebuilds the validator first when a flip changed the
    /// capabilities since the last call.
    pub fn validator_mut(&mut self) -> &mut VmStateValidator {
        if let Some(features) = self.rebuild_for.take() {
            self.validator = VmStateValidator::with_corrections_of(
                VmxCapabilities::from_features(features),
                &self.validator,
            );
            self.stats.validator_rebuilds += 1;
        }
        &mut self.validator
    }

    /// The per-execution scratch buffers. After
    /// [`ExecutionEngine::collect_coverage`], `scratch.bitmap`,
    /// `scratch.lines`, and `scratch.trace` describe the latest
    /// execution; they stay valid until the next collection.
    pub fn scratch(&self) -> &ExecScratch {
        self.scratch
            .get_or_init(|| ExecScratch::new(self.hv.coverage_map(), MAP_SIZE))
    }

    /// Mutable scratch access (benches and tests that drive the
    /// collection protocol by hand).
    pub fn scratch_mut(&mut self) -> &mut ExecScratch {
        self.scratch();
        self.scratch
            .get_mut()
            .expect("scratch() builds the scratch")
    }

    /// Collects the just-finished execution's coverage into the
    /// reusable scratch, allocation-free: zeroes the bitmap bytes the
    /// previous exec's projection recorded, swaps the hypervisor's
    /// trace out (handing the cleared one back in), and projects it
    /// onto the scratch bitmap and line set.
    pub fn collect_coverage(&mut self) {
        self.scratch();
        let scratch = self
            .scratch
            .get_mut()
            .expect("scratch() builds the scratch");
        scratch.begin_exec();
        self.hv.swap_trace(&mut scratch.trace);
        scratch.project(self.hv.coverage_map());
    }

    /// Watchdog slow path: fully reboots the active host, clearing its
    /// health state — a modeled machine power-cycle (§3.2).
    pub fn reboot(&mut self) {
        self.hv.reboot_host();
    }

    /// Iteration fast path: makes the active instance run `config` in
    /// freshly-booted guest state. A changed config builds a fresh
    /// instance through the factory and, when its feature set changed,
    /// marks the validator for a rebuild on its next use; an unchanged
    /// one resets the guest of the active instance.
    pub fn prepare(&mut self, config: &HvConfig) {
        if self.hv.config() == config {
            self.hv.reset_guest();
            self.stats.guest_resets += 1;
            return;
        }
        self.hv = (self.factory)(config.clone());
        if let Some(faults) = &self.faults {
            self.hv.install_faults(faults.clone());
        }
        self.stats.factory_builds += 1;
        if self.validator_features == Some(config.features) {
            self.stats.validator_reuses += 1;
        } else {
            // A validator is a pure function of its capabilities and
            // corrections, and corrections only change through
            // `validator_mut`: rebuilding there, once, for the latest
            // features, equals rebuilding at every flip before it.
            self.rebuild_for = Some(config.features);
            self.validator_features = Some(config.features);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_hv::Vkvm;
    use nf_x86::{CpuFeature, CpuVendor, FeatureSet};

    fn kvm_factory() -> Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>> {
        Box::new(|c| Box::new(Vkvm::new(c)))
    }

    fn engine() -> ExecutionEngine {
        let config = HvConfig::default_for(CpuVendor::Intel);
        let caps = VmxCapabilities::from_features(
            FeatureSet::default_for(CpuVendor::Intel).sanitized(CpuVendor::Intel),
        );
        ExecutionEngine::new(kvm_factory(), config, caps, EngineMode::Snapshot)
    }

    fn flipped_config() -> HvConfig {
        let mut config = HvConfig::default_for(CpuVendor::Intel);
        config.features.remove(CpuFeature::Ept);
        config
    }

    #[test]
    fn every_config_flip_builds_a_fresh_instance() {
        let mut e = engine();
        let base = HvConfig::default_for(CpuVendor::Intel);
        let other = flipped_config();
        for _ in 0..3 {
            e.prepare(&other);
            e.prepare(&base);
        }
        e.prepare(&base);
        let stats = e.stats();
        assert_eq!(stats.factory_builds, 7);
        assert_eq!(stats.guest_resets, 1, "only the unchanged config resets");
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(e.hv().config(), &base);
    }

    #[test]
    fn an_unchanged_config_resets_to_the_fresh_instance_state() {
        // The reset path must land on exactly the state a factory build
        // starts in: the engine reuses the instance on that promise.
        let config = HvConfig::default_for(CpuVendor::Intel);
        let caps = VmxCapabilities::from_features(
            FeatureSet::default_for(CpuVendor::Intel).sanitized(CpuVendor::Intel),
        );
        let factories: [fn(HvConfig) -> Box<dyn L0Hypervisor>; 2] = [
            |c| Box::new(Vkvm::new(c)),
            |c| Box::new(nf_hv::Vxen::new(c)),
        ];
        for factory in factories {
            let fresh = factory(config.clone());
            let mut e = ExecutionEngine::new(
                Box::new(factory),
                config.clone(),
                caps.clone(),
                EngineMode::Snapshot,
            );
            e.hv_mut().l1_exec(nf_silicon::GuestInstr::MovToCr(
                nf_silicon::CrIndex::Cr4,
                nf_x86::Cr4::VMXE | nf_x86::Cr4::PAE,
            ));
            e.hv_mut().l1_exec(nf_silicon::GuestInstr::Vmxon(0x1000));
            assert_ne!(
                e.hv().observe_guest(),
                fresh.observe_guest(),
                "probe must dirty state"
            );
            e.collect_coverage();
            e.prepare(&config);
            assert_eq!(e.stats().guest_resets, 1);
            assert_eq!(e.stats().factory_builds, 1, "{}", e.hv().name());
            assert_eq!(e.hv().observe_guest(), fresh.observe_guest());
            assert_eq!(e.hv().health(), fresh.health(), "{}", e.hv().name());
        }
    }

    #[test]
    fn nested_only_flip_reuses_the_validator() {
        // `nested` is not part of the capability surface: flipping it
        // must swap the instance but keep the validator untouched.
        let mut e = engine();
        e.validator_mut().apply_known_quirk();
        let corrections_ptr = e.validator().corrections.as_ptr();
        let mut nested_off = HvConfig::default_for(CpuVendor::Intel);
        nested_off.nested = false;
        e.prepare(&nested_off);
        assert_eq!(e.stats().validator_reuses, 1);
        assert_eq!(e.stats().validator_rebuilds, 0);
        assert_eq!(
            e.validator().corrections.as_ptr(),
            corrections_ptr,
            "same caps must share the validator, not clone it"
        );
        // A capability-changing flip still rebuilds, on the next use.
        e.prepare(&flipped_config());
        e.validator_mut();
        assert_eq!(e.stats().validator_rebuilds, 1);
    }

    #[test]
    fn flips_rebuild_the_validator_once_on_first_use() {
        // An engine whose validator never generates — a differential
        // replay agent's — rebuilds nothing however often the config
        // flips; the first use rebuilds once, for the latest features,
        // with every correction carried over.
        let mut e = engine();
        e.validator_mut().apply_known_quirk();
        e.validator_mut()
            .corrections
            .push(crate::validator::Correction {
                rule: "cr4_pae_quirk",
                detail: "learned".into(),
            });
        let base = HvConfig::default_for(CpuVendor::Intel);
        for _ in 0..3 {
            e.prepare(&flipped_config());
            e.prepare(&base);
        }
        e.prepare(&flipped_config());
        assert_eq!(e.stats().validator_rebuilds, 0, "{:?}", e.stats());
        assert_eq!(e.validator().corrections.len(), 1);
        let eager = VmStateValidator::with_corrections_of(
            VmxCapabilities::from_features(flipped_config().features),
            e.validator(),
        );
        let rebuilt = e.validator_mut();
        assert_eq!(format!("{rebuilt:?}"), format!("{eager:?}"));
        assert_eq!(e.stats().validator_rebuilds, 1);
        e.validator_mut();
        assert_eq!(e.stats().validator_rebuilds, 1, "one rebuild per flip");
    }

    #[test]
    fn a_non_recording_engine_builds_its_scratch_on_first_use() {
        assert!(
            engine().scratch.get().is_some(),
            "a recording host's engine"
        );
        let config = HvConfig::default_for(CpuVendor::Intel);
        let caps = VmxCapabilities::from_features(config.features);
        let mut e = ExecutionEngine::new(
            Box::new(|c| {
                let mut hv: Box<dyn L0Hypervisor> = Box::new(Vkvm::new(c));
                hv.core_mut().set_recording(false);
                hv
            }),
            config.clone(),
            caps,
            EngineMode::Snapshot,
        );
        for _ in 0..3 {
            e.prepare(&flipped_config());
            e.prepare(&config);
        }
        assert!(e.scratch.get().is_none(), "nothing asked for the scratch");
        e.collect_coverage();
        assert_eq!(e.scratch().bitmap.len(), MAP_SIZE);
        assert!(e.scratch().lines.count() == 0 && e.scratch().edges().is_empty());
    }

    #[test]
    fn collect_coverage_recycles_the_scratch() {
        let mut e = engine();
        let probe = nf_silicon::GuestInstr::Rdmsr(nf_x86::Msr::VmxBasic.index());
        e.hv_mut().l1_exec(probe);
        e.collect_coverage();
        let first_bitmap = e.scratch().bitmap.clone();
        let first_lines = e.scratch().lines.clone();
        assert!(!e.scratch().trace.is_empty());
        assert!(first_bitmap.iter().any(|&b| b != 0));
        assert!(first_lines.count() > 0);

        // A second identical exec reproduces the same scratch contents:
        // the wipe left no residue and the swap handed a clean trace
        // back to the hypervisor.
        e.prepare(&HvConfig::default_for(CpuVendor::Intel));
        e.hv_mut().l1_exec(probe);
        e.collect_coverage();
        assert_eq!(e.scratch().bitmap, first_bitmap);
        assert_eq!(e.scratch().lines, first_lines);

        // An empty exec leaves an all-zero bitmap and empty lines.
        e.prepare(&HvConfig::default_for(CpuVendor::Intel));
        e.collect_coverage();
        assert!(e.scratch().bitmap.iter().all(|&b| b == 0));
        assert_eq!(e.scratch().lines.count(), 0);
        assert!(e.scratch().trace.is_empty());
    }
}
