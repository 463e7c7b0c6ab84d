//! The persistent-execution engine: the iteration hot path.
//!
//! The paper's whole premise is that a fuzz-harness VM makes each
//! fuzzing iteration cheap by avoiding guest-OS reboots (§3.2, §4.5).
//! The engine realizes that on the simulator side:
//!
//! - **Snapshot restore instead of reboot.** A boot-time
//!   [`HvSnapshot`] is captured once per hypervisor instance; before
//!   every test case the engine *restores* it (delta copy of dirtied
//!   state) instead of re-deriving boot state.
//! - **Booted-image cache.** The vCPU configurator flips the
//!   [`HvConfig`] constantly; instead of re-running the hypervisor
//!   factory on every flip, the engine keeps an LRU-bounded cache of
//!   booted instances keyed by config, and a flip restores a cached
//!   image.
//! - **Memoized validator corrections.** The [`VmStateValidator`] is a
//!   pure function of its [`VmxCapabilities`] plus the corrections
//!   learned from the oracle; when a config flip leaves the
//!   capabilities unchanged (e.g. only the `nested` switch moved), the
//!   engine reuses the validator as-is instead of rebuilding it and
//!   re-cloning its correction history.
//!
//! - **Reusable execution scratch.** The engine owns the
//!   [`ExecScratch`] of the zero-allocation hot path: per iteration the
//!   hypervisor's trace is *swapped* (not cloned) into the scratch,
//!   projected onto the reusable AFL bitmap with a targeted wipe of the
//!   previous projection, and the line set is cleared in place — the
//!   steady-state loop performs no heap allocation (the `hotpath`
//!   bench's counting allocator enforces this).
//!
//! [`EngineMode::Rebuild`] preserves the original full-rebuild
//! semantics for A/B measurement (`necofuzz --engine rebuild`, the
//! `throughput` bench). The two modes are **bit-identical** in
//! observable results — `tests/engine_equivalence.rs` asserts
//! [`crate::campaign::CampaignResult`] equality over the whole
//! backend × mode × mask grid.

use nf_coverage::ExecScratch;
use nf_fuzz::MAP_SIZE;
use nf_hv::{FaultPlan, HvConfig, HvSnapshot, L0Hypervisor, RestoreFault, SharedFaults};
use nf_vmx::VmxCapabilities;
use nf_x86::FeatureSet;

use crate::validator::VmStateValidator;

/// How the engine turns a config change / iteration boundary into a
/// runnable hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Snapshot-based persistent execution: boot images are cached per
    /// config and restored via [`L0Hypervisor::restore`].
    Snapshot,
    /// The original semantics: re-run the factory on every config
    /// change and re-derive boot state with
    /// [`L0Hypervisor::reset_guest`] each iteration.
    Rebuild,
}

impl EngineMode {
    /// Parses the CLI spelling (`snapshot` / `rebuild`).
    pub fn parse(s: &str) -> Option<EngineMode> {
        match s {
            "snapshot" => Some(EngineMode::Snapshot),
            "rebuild" => Some(EngineMode::Rebuild),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Snapshot => "snapshot",
            EngineMode::Rebuild => "rebuild",
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Default number of booted images the snapshot cache keeps (beyond
/// the active one). The configurator's sanitized feature space is
/// small; a handful of images covers the vast majority of flips.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

/// Bounded retry budget for a faulted snapshot restore: transient
/// faults clear under retry; a restore still failing after this many
/// attempts is treated as permanent and the image is quarantined.
pub const MAX_RESTORE_RETRIES: u32 = 3;

/// A fault the engine surfaced as a value instead of a panic. The
/// engine's own `prepare` path *services* these (retry, then quarantine
/// and degrade) — the type exists so callers and tests can observe what
/// happened rather than unwinding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A snapshot restore failed past the retry budget; the image was
    /// quarantined and serviced by a factory rebuild.
    RestoreFailed(RestoreFault),
    /// The engine needed a boot image that was missing (snapshot-mode
    /// invariant broken); serviced by a guest reset.
    MissingBootImage,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RestoreFailed(fault) => write!(f, "boot restore failed: {fault}"),
            EngineError::MissingBootImage => write!(f, "snapshot mode lost its boot image"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Counters describing how the engine serviced the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Hypervisor instances built through the factory (cold boots).
    pub factory_builds: u64,
    /// Config flips serviced from the booted-image cache.
    pub cache_hits: u64,
    /// Iteration resets serviced by snapshot restore.
    pub snapshot_restores: u64,
    /// Config flips where the validator was reused because the
    /// capabilities were unchanged.
    pub validator_reuses: u64,
    /// Config flips where the validator was rebuilt (new capabilities,
    /// corrections carried over).
    pub validator_rebuilds: u64,
    /// Boot restores retried after a transient restore fault.
    pub restore_retries: u64,
    /// Transient restore faults observed (each cleared by a retry).
    pub restore_transient_faults: u64,
    /// Virtual backoff units waited across restore retries (exponential:
    /// 2, 4, 8, ... per successive attempt of one restore).
    pub restore_backoff_units: u64,
    /// Boot images quarantined after an unrecoverable restore fault.
    pub quarantined_images: u64,
    /// Executions serviced in degraded mode: the boot image was
    /// quarantined and the instance rebuilt from the factory.
    pub degraded_mode: u64,
}

/// One parked booted image: the instance plus its boot snapshot.
///
/// The snapshot is boxed: [`HvSnapshot`] holds VMCS/VMCB images
/// inline, and cache rotation must move pointers, not kilobytes.
struct CachedImage {
    config: HvConfig,
    hv: Box<dyn L0Hypervisor>,
    boot: Box<HvSnapshot>,
}

/// One parked validator, keyed by the feature set it was derived from.
///
/// A validator is a pure function of its [`VmxCapabilities`] (itself a
/// pure function of the feature set) plus the corrections learned from
/// the oracle. Corrections are append-only and shared across the whole
/// campaign, so `validator.corrections.len()` acts as a staleness
/// stamp: a parked validator whose correction count still matches the
/// active history is *identical* to what a fresh
/// [`VmStateValidator::with_corrections_of`] rebuild would produce,
/// and can be reused as-is.
struct ParkedValidator {
    features: FeatureSet,
    validator: VmStateValidator,
}

/// The engine: owns the active hypervisor instance, the booted-image
/// cache, and the (memoized) VM state validator.
pub struct ExecutionEngine {
    factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
    mode: EngineMode,
    hv: Box<dyn L0Hypervisor>,
    /// Boot image of the active instance (`Snapshot` mode only).
    boot: Option<Box<HvSnapshot>>,
    /// Parked booted images, least-recently-used first.
    cache: Vec<CachedImage>,
    capacity: usize,
    validator: VmStateValidator,
    /// Feature set the active validator was derived from (`None` when
    /// the initial capabilities were not derived from the initial
    /// config's features — the memo shortcut then misses once).
    validator_features: Option<FeatureSet>,
    /// Parked validators, least-recently-used first (`Snapshot` mode).
    validator_pool: Vec<ParkedValidator>,
    /// The reusable per-execution buffers (trace, AFL bitmap, lines).
    scratch: ExecScratch,
    /// The shared fault injector, when a plan is installed; handed to
    /// the active instance, every cached image, and every instance the
    /// factory builds later.
    faults: Option<SharedFaults>,
    stats: EngineStats,
}

impl ExecutionEngine {
    /// Boots an engine on `factory` with the given initial config and
    /// validator capabilities.
    pub fn new(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        config: HvConfig,
        validator_caps: VmxCapabilities,
        mode: EngineMode,
    ) -> Self {
        let features = config.features;
        let hv = factory(config);
        let boot = match mode {
            EngineMode::Snapshot => Some(Box::new(hv.snapshot())),
            EngineMode::Rebuild => None,
        };
        let validator_features = if VmxCapabilities::from_features(features) == validator_caps {
            Some(features)
        } else {
            None
        };
        let scratch = ExecScratch::new(hv.coverage_map(), MAP_SIZE);
        ExecutionEngine {
            factory,
            mode,
            hv,
            boot,
            cache: Vec::new(),
            capacity: DEFAULT_CACHE_CAPACITY,
            validator: VmStateValidator::new(validator_caps),
            validator_features,
            validator_pool: Vec::new(),
            scratch,
            faults: None,
            stats: EngineStats {
                factory_builds: 1,
                ..EngineStats::default()
            },
        }
    }

    /// Bounds both the booted-image cache and the validator pool
    /// (snapshot mode). `0` disables caching entirely — every config
    /// flip becomes a cold boot, and every capability-changing flip a
    /// validator rebuild (only the active-features shortcut survives).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.set_cache_capacity(capacity);
        self
    }

    /// Non-consuming form of
    /// [`with_cache_capacity`](Self::with_cache_capacity).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Installs a deterministic fault plan: builds the shared
    /// [`FaultInjector`](nf_hv::FaultInjector) and hands it to the
    /// active instance, every cached image, and every instance booted
    /// from here on. A zero plan installs an injector that never fires.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Non-consuming form of [`with_fault_plan`](Self::with_fault_plan).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let faults = nf_hv::fault::shared(plan);
        self.hv.install_faults(faults.clone());
        for image in &mut self.cache {
            image.hv.install_faults(faults.clone());
        }
        self.faults = Some(faults);
    }

    /// The shared fault-injector handle, when a plan is installed (the
    /// agent opens each execution on it; campaign summaries read its
    /// fired counters).
    pub fn faults(&self) -> Option<SharedFaults> {
        self.faults.clone()
    }

    /// The engine's mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
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

    /// The validator (exposes the oracle-correction state).
    pub fn validator(&self) -> &VmStateValidator {
        &self.validator
    }

    /// Mutable validator access (the generation pipeline learns).
    pub fn validator_mut(&mut self) -> &mut VmStateValidator {
        &mut self.validator
    }

    /// The per-execution scratch buffers. After
    /// [`ExecutionEngine::collect_coverage`], `scratch.bitmap`,
    /// `scratch.lines`, and `scratch.trace` describe the latest
    /// execution; they stay valid until the next collection.
    pub fn scratch(&self) -> &ExecScratch {
        &self.scratch
    }

    /// Mutable scratch access (benches and tests that drive the
    /// collection protocol by hand).
    pub fn scratch_mut(&mut self) -> &mut ExecScratch {
        &mut self.scratch
    }

    /// Collects the just-finished execution's coverage into the
    /// reusable scratch, allocation-free: zeroes the bitmap bytes the
    /// previous exec's projection recorded, swaps the hypervisor's
    /// trace out (handing the cleared one back in), and projects it
    /// onto the scratch bitmap and line set.
    pub fn collect_coverage(&mut self) {
        self.scratch.begin_exec();
        self.hv.swap_trace(&mut self.scratch.trace);
        self.scratch.project(self.hv.coverage_map());
    }

    /// Drops the just-finished execution's trace without projecting
    /// it — for executions whose coverage nobody reads. The trace is
    /// swapped out and cleared, and the hypervisor gets an empty one
    /// back, as after [`collect_coverage`](Self::collect_coverage). The
    /// scratch bitmap and line set keep the last collected execution;
    /// the scratch trace is left empty.
    pub fn discard_trace(&mut self) {
        self.scratch.trace.clear();
        self.hv.swap_trace(&mut self.scratch.trace);
        self.scratch.trace.clear();
    }

    /// Watchdog slow path: fully reboots the active host, clearing its
    /// health state. Deliberately *not* snapshot-based — a dead host
    /// models a real machine power-cycle (§3.2).
    pub fn reboot(&mut self) {
        self.hv.reboot_host();
    }

    /// Iteration fast path: makes the active instance run `config` in
    /// freshly-booted guest state.
    ///
    /// In `Rebuild` mode this is the original agent behavior: a config
    /// change re-runs the factory and the validator rebuild, and every
    /// call re-derives boot state via `reset_guest`. In `Snapshot` mode
    /// a config change swaps in a cached booted image (cold-booting
    /// only on a cache miss) and every call restores the boot snapshot.
    pub fn prepare(&mut self, config: &HvConfig) {
        if self.hv.config() != config {
            self.switch_config(config);
        } else {
            self.reset();
        }
    }

    /// Resets guest state without a config change.
    fn reset(&mut self) {
        match self.mode {
            EngineMode::Rebuild => self.hv.reset_guest(),
            EngineMode::Snapshot => {
                if let Err(error) = self.restore_boot() {
                    self.service_restore_failure(error);
                }
            }
        }
    }

    /// Restores the boot image with bounded retry: transient restore
    /// faults re-roll under retry (with exponential virtual backoff,
    /// counted in [`EngineStats::restore_backoff_units`]); a permanent
    /// fault — or a transient one outlasting [`MAX_RESTORE_RETRIES`] —
    /// surfaces as a value for
    /// [`service_restore_failure`](Self::service_restore_failure) to
    /// degrade on.
    fn restore_boot(&mut self) -> Result<(), EngineError> {
        let mut attempt = 0u32;
        loop {
            let Some(boot) = self.boot.as_ref() else {
                return Err(EngineError::MissingBootImage);
            };
            match self.hv.try_restore(boot) {
                Ok(()) => {
                    self.stats.snapshot_restores += 1;
                    return Ok(());
                }
                Err(RestoreFault::Transient) if attempt < MAX_RESTORE_RETRIES => {
                    attempt += 1;
                    self.stats.restore_transient_faults += 1;
                    self.stats.restore_retries += 1;
                    self.stats.restore_backoff_units += 1u64 << attempt;
                }
                Err(fault) => return Err(EngineError::RestoreFailed(fault)),
            }
        }
    }

    /// Graceful degradation after [`restore_boot`](Self::restore_boot)
    /// gave up: quarantine the poisoned boot image, rebuild the
    /// instance from the factory (re-entering snapshot servicing with a
    /// fresh boot capture), and count the degraded execution. A missing
    /// boot image (broken invariant, not a fault) degrades to a plain
    /// guest reset instead of panicking.
    fn service_restore_failure(&mut self, error: EngineError) {
        self.stats.degraded_mode += 1;
        match error {
            EngineError::MissingBootImage => self.hv.reset_guest(),
            EngineError::RestoreFailed(_) => {
                if self.boot.take().is_some() {
                    self.stats.quarantined_images += 1;
                }
                let config = self.hv.config().clone();
                self.hv = self.build_instance(config);
                self.boot = Some(Box::new(self.hv.snapshot()));
            }
        }
    }

    /// Runs the factory and installs the fault injector (when present)
    /// into the new instance — the single path every boot goes through.
    fn build_instance(&mut self, config: HvConfig) -> Box<dyn L0Hypervisor> {
        let mut hv = (self.factory)(config);
        if let Some(faults) = &self.faults {
            hv.install_faults(faults.clone());
        }
        self.stats.factory_builds += 1;
        hv
    }

    /// Services a config flip: swap (or rebuild) the instance, then
    /// memoize-or-rebuild the validator.
    fn switch_config(&mut self, config: &HvConfig) {
        match self.mode {
            EngineMode::Rebuild => {
                self.hv = self.build_instance(config.clone());
                // Parity with the original path: reset the (already
                // fresh) guest state unconditionally.
                self.hv.reset_guest();
            }
            EngineMode::Snapshot => {
                let incoming = match self.cache.iter().position(|c| c.config == *config) {
                    Some(i) => {
                        self.stats.cache_hits += 1;
                        self.cache.remove(i)
                    }
                    None => {
                        let hv = self.build_instance(config.clone());
                        let boot = Box::new(hv.snapshot());
                        CachedImage {
                            config: config.clone(),
                            hv,
                            boot,
                        }
                    }
                };
                let outgoing_config = self.hv.config().clone();
                let outgoing_hv = std::mem::replace(&mut self.hv, incoming.hv);
                // A missing outgoing boot image (broken invariant, e.g.
                // mid-quarantine) just means the outgoing instance is
                // not parkable; drop it instead of panicking.
                if let Some(boot) = self.boot.replace(incoming.boot) {
                    let outgoing = CachedImage {
                        config: outgoing_config,
                        hv: outgoing_hv,
                        boot,
                    };
                    if self.capacity > 0 {
                        self.cache.push(outgoing);
                        if self.cache.len() > self.capacity {
                            self.cache.remove(0);
                        }
                    }
                }
                // The cached image was parked mid-campaign (or is
                // freshly booted): restore its boot state either way.
                if let Err(error) = self.restore_boot() {
                    self.service_restore_failure(error);
                }
            }
        }
        match self.mode {
            // Parity with the original agent: recompute the validator
            // (and re-clone its correction history) on every flip.
            EngineMode::Rebuild => {
                self.validator = VmStateValidator::with_corrections_of(
                    VmxCapabilities::from_features(config.features),
                    &self.validator,
                );
                self.stats.validator_rebuilds += 1;
            }
            EngineMode::Snapshot => self.switch_validator(config.features),
        }
    }

    /// Memoized validator switch (`Snapshot` mode): a validator is a
    /// pure function of (feature set, correction history), so parked
    /// validators whose correction count still matches the active
    /// history are reused verbatim — see [`ParkedValidator`].
    fn switch_validator(&mut self, features: FeatureSet) {
        if self.validator_features == Some(features) {
            // Capability-neutral flip (e.g. only `nested` moved): the
            // active validator is exactly what a rebuild would produce.
            self.stats.validator_reuses += 1;
            return;
        }
        let stamp = self.validator.corrections.len();
        let parked = match self
            .validator_pool
            .iter()
            .position(|p| p.features == features)
        {
            Some(i) if self.validator_pool[i].validator.corrections.len() == stamp => {
                Some(self.validator_pool.remove(i).validator)
            }
            Some(i) => {
                // Stale: corrections were learned since it was parked.
                self.validator_pool.remove(i);
                None
            }
            None => None,
        };
        let next = match parked {
            Some(v) => {
                self.stats.validator_reuses += 1;
                v
            }
            None => {
                self.stats.validator_rebuilds += 1;
                VmStateValidator::with_corrections_of(
                    VmxCapabilities::from_features(features),
                    &self.validator,
                )
            }
        };
        let prev = std::mem::replace(&mut self.validator, next);
        if let Some(prev_features) = self.validator_features {
            if self.capacity > 0 {
                self.validator_pool.push(ParkedValidator {
                    features: prev_features,
                    validator: prev,
                });
                if self.validator_pool.len() > self.capacity {
                    self.validator_pool.remove(0);
                }
            }
        }
        self.validator_features = Some(features);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_hv::{Vkvm, Vxen};
    use nf_x86::{CpuFeature, CpuVendor, FeatureSet};

    fn kvm_factory() -> Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>> {
        Box::new(|c| Box::new(Vkvm::new(c)))
    }

    fn engine(mode: EngineMode) -> ExecutionEngine {
        let config = HvConfig::default_for(CpuVendor::Intel);
        let caps = VmxCapabilities::from_features(
            FeatureSet::default_for(CpuVendor::Intel).sanitized(CpuVendor::Intel),
        );
        ExecutionEngine::new(kvm_factory(), config, caps, mode)
    }

    fn flipped_config() -> HvConfig {
        let mut config = HvConfig::default_for(CpuVendor::Intel);
        config.features.remove(CpuFeature::Ept);
        config
    }

    #[test]
    fn config_flip_round_trip_hits_the_cache() {
        let mut e = engine(EngineMode::Snapshot);
        let base = HvConfig::default_for(CpuVendor::Intel);
        let other = flipped_config();
        e.prepare(&other);
        assert_eq!(e.stats().factory_builds, 2, "first flip cold-boots");
        e.prepare(&base);
        e.prepare(&other);
        e.prepare(&base);
        let stats = e.stats();
        assert_eq!(stats.factory_builds, 2, "round trips must not rebuild");
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(e.hv().config(), &base);
    }

    #[test]
    fn rebuild_mode_pays_the_factory_on_every_flip() {
        let mut e = engine(EngineMode::Rebuild);
        let base = HvConfig::default_for(CpuVendor::Intel);
        let other = flipped_config();
        for _ in 0..3 {
            e.prepare(&other);
            e.prepare(&base);
        }
        assert_eq!(e.stats().factory_builds, 7);
        assert_eq!(e.stats().cache_hits, 0);
    }

    #[test]
    fn nested_only_flip_reuses_the_validator() {
        // `nested` is not part of the capability surface: flipping it
        // must swap the instance but keep the validator untouched.
        let mut e = engine(EngineMode::Snapshot);
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
        // A capability-changing flip still rebuilds.
        e.prepare(&flipped_config());
        assert_eq!(e.stats().validator_rebuilds, 1);
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let mut e = engine(EngineMode::Snapshot).with_cache_capacity(2);
        let mut configs = Vec::new();
        for n in 0..4u32 {
            let mut c = HvConfig::default_for(CpuVendor::Intel);
            for (i, f) in [CpuFeature::Ept, CpuFeature::Vpid].iter().enumerate() {
                if n & (1 << i) != 0 {
                    c.features.remove(*f);
                }
            }
            configs.push(c);
        }
        for c in &configs {
            e.prepare(c);
        }
        assert!(e.cache.len() <= 2, "cache exceeded its bound");
        // The least-recently-used image (configs[0]) was evicted: going
        // back is a cold boot, not a hit.
        let hits = e.stats().cache_hits;
        let builds = e.stats().factory_builds;
        e.prepare(&configs[0]);
        assert_eq!(e.stats().cache_hits, hits);
        assert_eq!(e.stats().factory_builds, builds + 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut e = engine(EngineMode::Snapshot).with_cache_capacity(0);
        let base = HvConfig::default_for(CpuVendor::Intel);
        let other = flipped_config();
        e.prepare(&other);
        e.prepare(&base);
        assert_eq!(e.stats().factory_builds, 3);
        assert_eq!(e.stats().cache_hits, 0);
    }

    #[test]
    fn restore_equals_reset_guest_state() {
        // The boot snapshot restore must land on exactly the state
        // `reset_guest` lands on — the bit-identity between the two
        // engine modes rests on this.
        let config = HvConfig::default_for(CpuVendor::Intel);
        for mut hv in [
            Box::new(Vkvm::new(config.clone())) as Box<dyn L0Hypervisor>,
            Box::new(Vxen::new(config.clone())) as Box<dyn L0Hypervisor>,
        ] {
            let boot = hv.snapshot();
            hv.l1_exec(nf_silicon::GuestInstr::MovToCr(
                nf_silicon::CrIndex::Cr4,
                nf_x86::Cr4::VMXE | nf_x86::Cr4::PAE,
            ));
            hv.l1_exec(nf_silicon::GuestInstr::Vmxon(0x1000));
            assert_ne!(hv.snapshot(), boot, "probe must dirty state");
            hv.reset_guest();
            let via_reset = hv.snapshot();
            hv.restore(&boot);
            let via_restore = hv.snapshot();
            assert_eq!(via_restore, via_reset, "{}", hv.name());
            assert_eq!(via_restore, boot, "{}", hv.name());
        }
    }

    #[test]
    fn collect_coverage_recycles_the_scratch() {
        let mut e = engine(EngineMode::Snapshot);
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

    #[test]
    fn discard_trace_drops_the_exec_and_keeps_the_last_collection() {
        let mut e = engine(EngineMode::Snapshot);
        let probe = nf_silicon::GuestInstr::Rdmsr(nf_x86::Msr::VmxBasic.index());
        e.hv_mut().l1_exec(probe);
        e.collect_coverage();
        let collected = e.scratch().clone();

        // A discarded exec leaves the hypervisor on an empty trace and
        // the scratch's bitmap and lines on the last collected exec.
        for _ in 0..2 {
            e.prepare(&HvConfig::default_for(CpuVendor::Intel));
            e.hv_mut().l1_exec(probe);
            e.hv_mut().l1_exec(probe);
            assert!(!e.hv().trace().is_empty());
            e.discard_trace();
            assert!(e.hv().trace().is_empty());
            assert!(e.scratch().trace.is_empty());
            assert_eq!(e.scratch().bitmap, collected.bitmap);
            assert_eq!(e.scratch().lines, collected.lines);
        }

        // Collection after a discard sees only its own exec.
        e.prepare(&HvConfig::default_for(CpuVendor::Intel));
        e.hv_mut().l1_exec(probe);
        e.collect_coverage();
        assert_eq!(e.scratch().bitmap, collected.bitmap);
        assert_eq!(e.scratch().lines, collected.lines);
        assert_eq!(e.scratch().trace, collected.trace);
    }

    #[test]
    fn mode_parse_round_trips() {
        for mode in [EngineMode::Snapshot, EngineMode::Rebuild] {
            assert_eq!(EngineMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(EngineMode::parse("warp"), None);
    }
}
