//! The agent program (paper §4.5): the central coordinator between the
//! fuzzer, the fuzz-harness VM, and the target L0 hypervisor.
//!
//! Per test case the agent: applies the vCPU configuration (switching
//! the host image through the [`ExecutionEngine`] when it changed),
//! embeds the fuzzing input into the executor, runs the two harness
//! phases, collects coverage into the AFL bitmap, monitors the
//! sanitizers/kernel log for anomalies, saves crashing inputs, and
//! restarts the host through the watchdog when it died.
//!
//! The hot path is delegated to the engine: instead of rebooting the
//! host each iteration, the engine resets the guest of the active
//! hypervisor instance and builds a fresh one only when the vCPU
//! config changes (see [`crate::engine`]) — and instead of allocating
//! a fresh bitmap, line set, and trace per execution, the engine's
//! [`nf_coverage::ExecScratch`] is recycled:
//! [`Agent::run_iteration`] returns an [`IterationResult`] that
//! *borrows* the scratch buffers, valid until the next iteration.
//! [`Agent::run_iteration_alloc`] keeps the original allocating
//! sequence callable as the compat reference of the `hotpath` bench and
//! the `hotpath_equivalence` suite.

use std::sync::Arc;

use nf_coverage::LineSet;
use nf_fuzz::{ExecFeedback, FuzzInput, MAP_SIZE};
use nf_hv::{CrashKind, FaultPlan, HvConfig, L0Hypervisor, SharedFaults, DEFAULT_WATCHDOG_FUEL};
use nf_vmx::{MsrArea, Vmcb, Vmcs, VmxCapabilities};
use nf_x86::CpuVendor;

use crate::configurator::VcpuConfigurator;
use crate::engine::{EngineMode, EngineStats, ExecutionEngine};
use crate::harness::{ExecObserver, ExecutionHarness, InitPlan, NopObserver};
use crate::input::InputView;
use crate::triage::CrashTriage;
use crate::validator::VmStateValidator;

/// Component toggles for the ablation study (paper §5.3, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentMask {
    /// VM execution harness: template order/argument/repetition mutation.
    pub harness: bool,
    /// VM state validator: round + oracle + selective invalidation.
    pub validator: bool,
    /// vCPU configurator: feature bit-array mutation.
    pub configurator: bool,
}

impl ComponentMask {
    /// Everything on ("with ALL").
    pub const ALL: ComponentMask = ComponentMask {
        harness: true,
        validator: true,
        configurator: true,
    };
    /// Everything off ("w/o ALL").
    pub const NONE: ComponentMask = ComponentMask {
        harness: false,
        validator: false,
        configurator: false,
    };
}

/// A vulnerability discovery record (the saved, timestamped report of
/// §4.5 — virtual time stands in for the timestamp).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugFind {
    /// Stable bug identifier (matches the Table 6 seeds).
    pub bug_id: String,
    /// Detector that fired.
    pub kind: CrashKind,
    /// Diagnostic message.
    pub message: String,
    /// Execution index at which the bug was first seen.
    pub exec: u64,
    /// The input that triggered it (saved for reproduction). Shared:
    /// when one execution fires several detectors, the input is cloned
    /// once and every report holds the same buffer.
    pub input: Arc<FuzzInput>,
}

/// Result of one fuzzing iteration, borrowing the engine's reusable
/// [`nf_coverage::ExecScratch`] — valid until the next iteration on the
/// same agent. The allocating twin is [`AllocIterationResult`].
#[derive(Debug)]
pub struct IterationResult<'a> {
    /// AFL bitmap of the execution.
    pub bitmap: &'a [u8],
    /// The bitmap bytes the execution turned non-zero, each exactly
    /// once, in first-hit order ([`nf_coverage::ExecScratch::edges`]) —
    /// what [`nf_fuzz::Fuzzer::report_edges`] visits instead of the
    /// whole map.
    pub edges: &'a [u32],
    /// Line coverage of this execution alone (corpus-entry evidence).
    pub lines: &'a LineSet,
    /// Feedback for the engine.
    pub feedback: ExecFeedback,
}

/// Owned result of one fuzzing iteration, produced by the compat
/// allocating path ([`Agent::run_iteration_alloc`]).
#[derive(Debug)]
pub struct AllocIterationResult {
    /// AFL bitmap of the execution.
    pub bitmap: Vec<u8>,
    /// Line coverage of this execution alone.
    pub lines: LineSet,
    /// Feedback for the engine.
    pub feedback: ExecFeedback,
}

/// A generated fuzz-harness VM: everything steps 1–3 of the iteration
/// loop derive from one input, ready for steps 4–5 on any agent whose
/// host was prepared for `config`.
pub(crate) struct StagedVm<'a> {
    config: HvConfig,
    vmcs12: Vmcs,
    msr_area: MsrArea,
    vmcb12: Vmcb,
    plan: InitPlan,
    /// The runtime-phase bytes (the input's, or the fixed template
    /// under the harness ablation).
    runtime: &'a [u8],
}

/// The agent: owns the execution engine and the per-campaign state.
pub struct Agent {
    engine: ExecutionEngine,
    vendor: CpuVendor,
    harness: ExecutionHarness,
    configurator: VcpuConfigurator,
    mask: ComponentMask,
    execs: u64,
    restarts: u64,
    /// Cumulative covered lines (across reboots and reconfigurations).
    pub cumulative: LineSet,
    /// The crash-triage index: saved vulnerability reports,
    /// deduplicated by bug id, in discovery order.
    triage: CrashTriage,
    /// The engine's shared fault injector, when a plan is installed:
    /// the agent opens every execution on it (exec index + input
    /// digest), which is what keeps the fault schedule a pure function
    /// of the campaign position.
    faults: Option<SharedFaults>,
    /// Per-exec instruction-fuel budget of the exec watchdog.
    watchdog_fuel: u64,
}

impl Agent {
    /// Creates an agent fuzzing the hypervisor produced by `factory`.
    pub fn new(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        vendor: CpuVendor,
        mask: ComponentMask,
    ) -> Self {
        let configurator = VcpuConfigurator::new(vendor);
        let (features, nested) = configurator.default_config();
        let config = HvConfig {
            vendor,
            features,
            nested,
        };
        let caps = VmxCapabilities::from_features(
            nf_x86::FeatureSet::default_for(vendor).sanitized(vendor),
        );
        let engine = ExecutionEngine::new(factory, config, caps, EngineMode::Snapshot);
        let cumulative = LineSet::for_map(engine.hv().coverage_map());
        Agent {
            engine,
            vendor,
            harness: ExecutionHarness::new(vendor),
            configurator,
            mask,
            execs: 0,
            restarts: 0,
            cumulative,
            triage: CrashTriage::new(),
            faults: None,
            watchdog_fuel: DEFAULT_WATCHDOG_FUEL,
        }
    }

    /// Same as [`Agent::new`]; `_mode` is ignored (see [`EngineMode`]).
    pub fn with_engine(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        vendor: CpuVendor,
        mask: ComponentMask,
        _mode: EngineMode,
    ) -> Self {
        Agent::new(factory, vendor, mask)
    }

    /// Installs a deterministic fault plan (`--fault-plan`): the engine
    /// builds the shared injector, hands it to every hypervisor
    /// instance, and the agent opens each execution on it.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.engine.set_fault_plan(plan);
        self.faults = self.engine.faults();
        self
    }

    /// Sets the exec watchdog's per-execution instruction-fuel budget
    /// (`--watchdog-fuel`; [`DEFAULT_WATCHDOG_FUEL`] by default). Only
    /// consulted when a fault plan is installed — the injector is the
    /// fuel meter.
    pub fn with_watchdog_fuel(mut self, fuel: u64) -> Self {
        self.watchdog_fuel = fuel;
        self
    }

    /// Total injected faults fired so far as `(hangs, host deaths)` —
    /// zero when no plan is installed.
    pub fn faults_fired(&self) -> (u64, u64) {
        match &self.faults {
            Some(f) => {
                let f = f.borrow();
                (f.hangs_fired, f.deaths_fired)
            }
            None => (0, 0),
        }
    }

    /// No-op, kept only because perfbench calls it; the product never
    /// does.
    pub fn with_prefix_cache(self, _enabled: bool) -> Self {
        self
    }

    /// No-op, kept only because perfbench calls it; the product never
    /// does.
    pub fn with_cache_capacity(self, _capacity: usize) -> Self {
        self
    }

    /// No-op, kept only because perfbench calls it; the product never
    /// does.
    pub fn with_prefix_budget(self, _bytes: usize) -> Self {
        self
    }

    /// No-op, kept only because perfbench calls it; the product never
    /// does.
    pub fn with_prefix_store(self, _mode: crate::campaign::PrefixStoreMode) -> Self {
        self
    }

    /// The hypervisor under test (for inspection in tests/benches).
    pub fn hv(&self) -> &dyn L0Hypervisor {
        self.engine.hv()
    }

    /// The guest-visible architectural state after the last iteration —
    /// the final-state half of the differential oracle's canonical
    /// observation (see [`nf_hv::GuestObservation`]).
    pub fn observe_guest(&self) -> nf_hv::GuestObservation {
        self.engine.hv().observe_guest()
    }

    /// The validator (exposes the oracle-correction state).
    pub fn validator(&self) -> &VmStateValidator {
        self.engine.validator()
    }

    /// The engine's hot-path counters (factory builds, guest resets, …).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Number of executions performed.
    pub fn execs(&self) -> u64 {
        self.execs
    }

    /// Number of watchdog restarts.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The crash-triage index (unique finds in discovery order).
    pub fn triage(&self) -> &CrashTriage {
        &self.triage
    }

    /// Mutable triage access — checkpoint resume replays the persisted
    /// find records back into the index.
    pub fn triage_mut(&mut self) -> &mut CrashTriage {
        &mut self.triage
    }

    /// Restores the lifetime counters from a checkpoint. The exec
    /// index drives the watchdog-restart schedule and the fault
    /// injector's exec-indexed draws, so resume continuity depends on
    /// it.
    pub fn restore_counters(&mut self, execs: u64, restarts: u64) {
        self.execs = execs;
        self.restarts = restarts;
    }

    /// Restores the fault injector's fire counters from a checkpoint,
    /// so the campaign's final [`crate::campaign::FaultCounters`] keep
    /// counting from where the interrupted run stood. A no-op without
    /// an installed plan.
    pub fn restore_faults_fired(&mut self, hangs: u64, deaths: u64) {
        if let Some(faults) = &self.faults {
            let mut f = faults.borrow_mut();
            f.hangs_fired = hangs;
            f.deaths_fired = deaths;
        }
    }

    /// Re-learns persisted oracle corrections into the validator
    /// (checkpoint resume): each `(rule, detail)` pair re-applies its
    /// state fix and re-records the correction, so post-resume
    /// generation matches the interrupted run's. Unknown rules are
    /// ignored (forward compatibility).
    pub fn restore_corrections(&mut self, corrections: &[(String, String)]) {
        let v = self.engine.validator_mut();
        for (rule, detail) in corrections {
            v.restore_correction(rule, detail.clone());
        }
    }

    /// Coverage fraction of the vendor-matching nested file.
    pub fn coverage_fraction(&self) -> f64 {
        let hv = self.engine.hv();
        let map = hv.coverage_map();
        let file = match self.vendor {
            CpuVendor::Intel => hv.intel_file(),
            CpuVendor::Amd => match hv.amd_file() {
                Some(f) => f,
                None => hv.intel_file(),
            },
        };
        self.cumulative.fraction_of(map, file)
    }

    /// Runs one fuzzing iteration with `input` on the zero-allocation
    /// hot path: coverage lands in the engine's reusable scratch and
    /// the returned [`IterationResult`] borrows it (valid until the
    /// next iteration).
    pub fn run_iteration(&mut self, input: &FuzzInput) -> IterationResult<'_> {
        self.run_iteration_with(input, &mut NopObserver)
    }

    /// [`run_iteration`](Self::run_iteration) with an [`ExecObserver`]
    /// watching the harness-visible events of the execution — the
    /// differential oracle's recording hook. The observed and plain
    /// paths are the same monomorphized code (the plain path passes
    /// [`NopObserver`]), so coverage, triage, and feedback are
    /// bit-identical whether or not an observer is attached.
    pub fn run_iteration_with<O: ExecObserver>(
        &mut self,
        input: &FuzzInput,
        observer: &mut O,
    ) -> IterationResult<'_> {
        self.execute(input, observer);

        // 6. Coverage collection, allocation-free: targeted bitmap
        // wipe + trace swap + in-place line accounting.
        self.engine.collect_coverage();
        self.cumulative.union_with(&self.engine.scratch().lines);

        // 7. Anomaly detection.
        let feedback = self.drain_reports(input);

        let scratch = self.engine.scratch();
        IterationResult {
            bitmap: &scratch.bitmap,
            edges: scratch.edges(),
            lines: &scratch.lines,
            feedback,
        }
    }

    /// The original allocating iteration — the "before" the `hotpath`
    /// bench measures against and the oracle `tests/hotpath_equivalence.rs`
    /// replays. Semantically bit-identical to [`Agent::run_iteration`]
    /// (same executions, same coverage, same triage); it differs only
    /// in buffer handling: a fresh trace, bitmap, and line set per
    /// call.
    pub fn run_iteration_alloc(&mut self, input: &FuzzInput) -> AllocIterationResult {
        self.execute(input, &mut NopObserver);

        // 6. Coverage collection, one fresh buffer per exec (the
        // pre-scratch sequence).
        let trace = self.engine.hv_mut().take_trace();
        let map = self.engine.hv().coverage_map();
        let mut lines = LineSet::for_map(map);
        lines.add_trace(map, &trace);
        self.cumulative.union_with(&lines);
        let mut bitmap = vec![0u8; MAP_SIZE];
        trace.fill_afl_bitmap(&mut bitmap);

        // 7. Anomaly detection.
        let feedback = self.drain_reports(input);

        AllocIterationResult {
            bitmap,
            lines,
            feedback,
        }
    }

    /// Steps 1–5 of the iteration loop: watchdog, vCPU configuration,
    /// harness-VM generation, init phase, runtime phase. Shared by the
    /// scratch and compat collection paths.
    fn execute<O: ExecObserver>(&mut self, input: &FuzzInput, observer: &mut O) {
        let vm = self.stage(input);
        self.run_staged(&vm, observer);
    }

    /// Steps 1–3 of the iteration loop: opens the execution on this
    /// agent's host (see [`Agent::open_staged`]) and generates the
    /// fuzz-harness VM `input` describes — vCPU configuration, VMCS12,
    /// MSR area, VMCB12, and the init plan.
    ///
    /// The VM depends only on the input and on the validator's learned
    /// corrections, never on the backend, so agents whose validators
    /// learned in lockstep can all run the one staged VM.
    pub(crate) fn stage<'a>(&mut self, input: &'a FuzzInput) -> StagedVm<'a> {
        let view = InputView::new(input);

        // 2. vCPU configuration (a pure function of the input bytes).
        let (features, nested) = if self.mask.configurator {
            self.configurator.generate(view.vcpu_cfg())
        } else {
            self.configurator.default_config()
        };
        let config = HvConfig {
            vendor: self.vendor,
            features,
            nested,
        };
        self.open(input, &config);

        // 3. Generate the fuzz-harness VM content.
        let (vmcs12, msr_area, vmcb12) = if self.mask.validator {
            let validator = self.engine.validator_mut();
            let (vmcs, area) =
                validator.generate(view.vmcs_seed(), view.mutate_bytes(), view.msr_area_bytes());
            let vmcb = validator.generate_vmcb(view.vmcs_seed(), view.mutate_bytes());
            (vmcs, area, vmcb)
        } else {
            // Ablation: the golden template with a few raw overwrites
            // from the input (harness argument mutation only).
            let caps = VmxCapabilities::from_features(features);
            let mut vmcs = nf_silicon::golden_vmcs(&caps);
            let seed = view.vmcs_seed();
            for i in 0..4usize {
                let idx =
                    seed.get(i * 3).copied().unwrap_or(0) as usize % nf_vmx::VmcsField::ALL.len();
                let field = nf_vmx::VmcsField::ALL[idx];
                let value = u64::from_le_bytes([
                    seed.get(i * 3 + 1).copied().unwrap_or(0),
                    seed.get(i * 3 + 2).copied().unwrap_or(0),
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                ]);
                vmcs.write(field, value);
            }
            let area = VmStateValidator::raw_msr_area(view.msr_area_bytes(), 1);
            let mut vmcb = nf_silicon::golden_vmcb();
            if let Some(&b) = seed.first() {
                vmcb.save.cr0 ^= (b as u64) << 28;
            }
            (vmcs, area, vmcb)
        };

        // The init plan and runtime bytes steps 4–5 execute.
        let revision = VmxCapabilities::REVISION;
        let plan = if self.mask.harness {
            self.harness.mutated_plan(revision, view.init_bytes())
        } else {
            self.harness.canonical_plan(revision)
        };
        // Fixed runtime template for the harness ablation: a
        // deterministic exit mix.
        const FIXED: [u8; 24] = [
            0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 13, 0, 0, 0, 14, 0, 0, 0,
        ];
        let runtime: &[u8] = if self.mask.harness {
            view.runtime_bytes()
        } else {
            &FIXED
        };
        StagedVm {
            config,
            vmcs12,
            msr_area,
            vmcb12,
            plan,
            runtime,
        }
    }

    /// Steps 1–2 of the iteration loop for a VM another agent staged
    /// from the same `input`: counts the execution, restarts a dead
    /// host, opens the fault injector, and prepares the host for the
    /// staged configuration — everything [`Agent::stage`] does before
    /// generation.
    pub(crate) fn open_staged(&mut self, input: &FuzzInput, vm: &StagedVm) {
        self.open(input, &vm.config);
    }

    fn open(&mut self, input: &FuzzInput, config: &HvConfig) {
        self.execs += 1;

        // 1. Watchdog: a dead host is restarted before the next test
        // case, whatever else this iteration changes (paper §3.2). This
        // is the slow path — a modeled power-cycle.
        if self.engine.hv().health().dead {
            self.engine.reboot();
            self.restarts += 1;
        }

        // 1b. Open the execution on the fault injector: the agent's own
        // exec counter indexes schedule-driven faults (so a resumed
        // campaign continues the schedule exactly) and the input's
        // content digest indexes hangs (so a hanging input hangs again
        // on replay). Also re-arms the exec watchdog's fuel budget.
        if let Some(faults) = &self.faults {
            faults
                .borrow_mut()
                .begin_exec(self.execs, input_digest(input), self.watchdog_fuel);
        }

        // 2. The engine builds a fresh instance for a changed config
        // and resets the guest of the active one otherwise.
        self.engine.prepare(config);
    }

    /// Steps 4–5 of the iteration loop: runs a staged VM's init and
    /// runtime phases on this agent's prepared host.
    fn run_staged<O: ExecObserver>(&mut self, vm: &StagedVm, observer: &mut O) {
        // 4. Initialization phase.
        let init = self.harness.run_init_observed(
            self.engine.hv_mut(),
            &vm.plan,
            &vm.vmcs12,
            &vm.vmcb12,
            &vm.msr_area,
            observer,
        );

        // 5. Runtime phase.
        if !init.host_dead {
            self.harness.run_runtime_observed(
                self.engine.hv_mut(),
                vm.runtime,
                init.l2_live,
                observer,
            );
        }
    }

    /// Steps 4–5 for an execution whose coverage and finds nobody
    /// reads — the differential oracle's replays, which keep only the
    /// observer's record, the guest state, and the host's health.
    /// Runs the staged VM on a host built with coverage recording off
    /// (see [`crate::DifferentialRunner::new`]), so there is no trace to
    /// collect or drop, and reduces the sanitizer reports to the
    /// returned crash flag.
    pub(crate) fn replay_staged<O: ExecObserver>(
        &mut self,
        vm: &StagedVm,
        observer: &mut O,
    ) -> bool {
        self.run_staged(vm, observer);
        let reports = &mut self.engine.hv_mut().health_mut().reports;
        let crashed = !reports.is_empty();
        reports.clear();
        crashed
    }

    /// Drains sanitizer/log reports into the triage index (O(1) dedup
    /// by bug id, first-seen provenance) without an intermediate
    /// collect. A report whose bug id the triage already holds is
    /// dropped before anything is allocated for it; the triggering
    /// input is cloned *once*, at the exec's first new id, and shared
    /// across every new find of the execution. The report vector is
    /// drained in place, so the host keeps its capacity for the next
    /// crashing exec.
    fn drain_reports(&mut self, input: &FuzzInput) -> ExecFeedback {
        let reports = &mut self.engine.hv_mut().health_mut().reports;
        if reports.is_empty() {
            return ExecFeedback { crashed: false };
        }
        let mut shared: Option<Arc<FuzzInput>> = None;
        for report in reports.drain(..) {
            if self.triage.contains(report.bug_id) {
                continue;
            }
            let input = Arc::clone(shared.get_or_insert_with(|| Arc::new(input.clone())));
            self.triage.record(BugFind {
                bug_id: report.bug_id.to_string(),
                kind: report.kind,
                message: report.message,
                exec: self.execs,
                input,
            });
        }
        ExecFeedback { crashed: true }
    }

    /// Fast-forwards the validator to its converged state: every
    /// oracle correction a long campaign learns (the CR4.PAE quirk and
    /// both seeded Bochs bugs) is applied up front, with matching
    /// `Correction` records so validator rebuilds carry them across
    /// configuration flips.
    ///
    /// Crash inputs are saved mid-campaign, where (some of) these
    /// corrections were already learned — the generated harness VM
    /// depends on them. Replay tooling ([`crate::triage::ReplayOracle`])
    /// uses this to reconstruct that first-seen context.
    pub fn converge_validator(&mut self) {
        let v = self.engine.validator_mut();
        v.apply_known_quirk();
        v.apply_ss_rpl_fix();
        v.apply_tr_type_fix();
        for rule in ["cr4_pae_quirk", "guest.ss_rpl", "tr_type_legacy"] {
            v.corrections.push(crate::validator::Correction {
                rule,
                detail: "assumed converged for replay".into(),
            });
        }
    }
}

/// FNV-1a content digest of a fuzz input — the hang-fault index, so it
/// must depend on nothing but the bytes.
fn input_digest(input: &FuzzInput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &input.bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl VmStateValidator {
    /// Rebuilds a validator for new capabilities while *keeping* the
    /// corrections already learned from the oracle (the model, not the
    /// configuration, is what was corrected).
    pub fn with_corrections_of(caps: VmxCapabilities, previous: &VmStateValidator) -> Self {
        let mut v = VmStateValidator::new(caps);
        for c in &previous.corrections {
            match c.rule {
                "cr4_pae_quirk" => v.apply_known_quirk(),
                "guest.ss_rpl" => v.apply_ss_rpl_fix(),
                "tr_type_legacy" => v.apply_tr_type_fix(),
                _ => {}
            }
        }
        v.corrections = previous.corrections.clone();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_hv::Vkvm;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn agent(vendor: CpuVendor, mask: ComponentMask) -> Agent {
        Agent::new(Box::new(|cfg| Box::new(Vkvm::new(cfg))), vendor, mask)
    }

    #[test]
    fn iteration_produces_coverage() {
        let mut a = agent(CpuVendor::Intel, ComponentMask::ALL);
        let mut rng = SmallRng::seed_from_u64(1);
        let input = FuzzInput::random(&mut rng);
        let result = a.run_iteration(&input);
        assert!(
            result.bitmap.iter().any(|&b| b != 0),
            "trace must project to the bitmap"
        );
        assert!(a.coverage_fraction() > 0.0);
    }

    #[test]
    fn coverage_accumulates_monotonically() {
        let mut a = agent(CpuVendor::Intel, ComponentMask::ALL);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut last = 0.0;
        for _ in 0..50 {
            a.run_iteration(&FuzzInput::random(&mut rng));
            let now = a.coverage_fraction();
            assert!(now >= last, "cumulative coverage cannot drop");
            last = now;
        }
        assert!(
            last > 0.3,
            "50 boundary-state iterations should cover >30%, got {last}"
        );
    }

    #[test]
    fn ablated_agent_covers_less() {
        let mut rng = SmallRng::seed_from_u64(3);
        let inputs: Vec<FuzzInput> = (0..60).map(|_| FuzzInput::random(&mut rng)).collect();
        let mut full = agent(CpuVendor::Intel, ComponentMask::ALL);
        let mut none = agent(CpuVendor::Intel, ComponentMask::NONE);
        for input in &inputs {
            full.run_iteration(input);
            none.run_iteration(input);
        }
        assert!(
            full.coverage_fraction() > none.coverage_fraction(),
            "with ALL {:.3} must beat w/o ALL {:.3}",
            full.coverage_fraction(),
            none.coverage_fraction()
        );
    }

    #[test]
    fn finds_are_deduplicated() {
        // Drive vkvm's CVE directly: EPT off via configurator bytes is
        // fiddly, so use many random inputs and rely on dedup semantics.
        let mut a = agent(CpuVendor::Intel, ComponentMask::ALL);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..300 {
            a.run_iteration(&FuzzInput::random(&mut rng));
        }
        let mut ids: Vec<&str> = a.triage().iter().map(|f| f.bug_id.as_str()).collect();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "find list must be id-unique");
    }

    #[test]
    fn identical_caps_share_the_validator_across_config_flips() {
        // Regression: validator corrections used to be recomputed from
        // scratch on every config change even when the VmxCapabilities
        // were identical. The engine memoizes; nested-only flips (same
        // caps) must leave the validator untouched.
        let mut a = agent(CpuVendor::Intel, ComponentMask::ALL);
        let mut input = FuzzInput::zeroed();
        for i in 0..20 {
            // Byte 4 of the vCPU config word holds the keep-base bits
            // (32..35) and the nested bits (36..39): 0x11 = VMX kept +
            // nested on, 0x01 = VMX kept + nested off. Features — and
            // therefore capabilities — never change.
            input.bytes[crate::input::InputLayout::VCPU_CFG.offset + 4] =
                if i % 2 == 0 { 0x11 } else { 0x01 };
            a.run_iteration(&input);
        }
        let stats = a.engine_stats();
        assert_eq!(
            stats.validator_rebuilds, 1,
            "only the initial flip away from the default features may \
             rebuild: {stats:?}"
        );
        assert!(
            stats.validator_reuses >= 19,
            "same-caps flips must reuse the validator: {stats:?}"
        );
    }

    #[test]
    fn scratch_and_alloc_iterations_are_bit_identical() {
        // The borrowed (scratch) path and the compat allocating path
        // must produce the same bitmaps, lines, feedback, and triage —
        // the invariant `tests/hotpath_equivalence.rs` scales up to
        // whole campaign grids.
        let mut rng = SmallRng::seed_from_u64(8);
        let inputs: Vec<FuzzInput> = (0..120).map(|_| FuzzInput::random(&mut rng)).collect();
        let mut scratch = agent(CpuVendor::Intel, ComponentMask::ALL);
        let mut alloc = agent(CpuVendor::Intel, ComponentMask::ALL);
        for (i, input) in inputs.iter().enumerate() {
            let b = alloc.run_iteration_alloc(input);
            let a = scratch.run_iteration(input);
            assert_eq!(a.bitmap, &b.bitmap[..], "bitmap diverged at exec {i}");
            assert_eq!(a.lines, &b.lines, "lines diverged at exec {i}");
            assert_eq!(a.feedback.crashed, b.feedback.crashed, "exec {i}");
        }
        assert_eq!(scratch.triage(), alloc.triage());
        assert_eq!(scratch.restarts(), alloc.restarts());
        assert_eq!(scratch.coverage_fraction(), alloc.coverage_fraction());
    }

    #[test]
    fn multi_report_exec_shares_one_input_buffer() {
        // One execution can fire several detectors; the drain must
        // clone the triggering input once and share it across every
        // saved find (Arc), not clone per report.
        let mut a = agent(CpuVendor::Intel, ComponentMask::ALL);
        for (id, kind) in [
            ("bug-a", nf_hv::CrashKind::Ubsan),
            ("bug-b", nf_hv::CrashKind::Kasan),
        ] {
            a.engine
                .hv_mut()
                .health_mut()
                .reports
                .push(nf_hv::CrashReport {
                    kind,
                    bug_id: id,
                    message: format!("report {id}"),
                });
        }
        let input = FuzzInput::zeroed();
        let feedback = a.drain_reports(&input);
        assert!(feedback.crashed);
        let finds = a.triage().finds();
        assert_eq!(finds.len(), 2);
        assert!(
            std::sync::Arc::ptr_eq(&finds[0].input, &finds[1].input),
            "both finds must hold the same shared buffer"
        );
        assert_eq!(*finds[0].input, input);
        // The reports were drained in place; steady state is clean.
        assert!(a.engine.hv().health().reports.is_empty());
        assert!(!a.drain_reports(&input).crashed);
    }

    #[test]
    fn known_bug_ids_keep_their_first_find_and_the_host_keeps_its_buffer() {
        let mut a = agent(CpuVendor::Intel, ComponentMask::ALL);
        let report = |id| nf_hv::CrashReport {
            kind: nf_hv::CrashKind::Ubsan,
            bug_id: id,
            message: format!("report {id}"),
        };
        let first = FuzzInput::zeroed();
        a.engine.hv_mut().health_mut().reports.push(report("bug-a"));
        assert!(a.drain_reports(&first).crashed);

        // A known id next to a new one: the known find keeps its first
        // exec and input, the new one gets this exec's input.
        let mut second = FuzzInput::zeroed();
        second.bytes[0] = 1;
        a.execs = 7;
        let reports = &mut a.engine.hv_mut().health_mut().reports;
        reports.extend([report("bug-a"), report("bug-b"), report("bug-a")]);
        assert!(a.drain_reports(&second).crashed);
        let finds = a.triage().finds();
        assert_eq!(finds.len(), 2);
        assert_eq!((finds[0].bug_id.as_str(), finds[0].exec), ("bug-a", 0));
        assert_eq!(*finds[0].input, first);
        assert_eq!((finds[1].bug_id.as_str(), finds[1].exec), ("bug-b", 7));
        assert_eq!(*finds[1].input, second);
        assert_eq!(std::sync::Arc::strong_count(&finds[1].input), 1);

        // Only known ids: still a crash, nothing recorded, and the
        // host's report vector keeps its capacity.
        a.engine.hv_mut().health_mut().reports.push(report("bug-b"));
        assert!(a.drain_reports(&second).crashed);
        assert_eq!(a.triage().finds().len(), 2);
        let reports = &a.engine.hv().health().reports;
        assert!(reports.is_empty() && reports.capacity() >= 3);
    }

    #[test]
    fn amd_agent_runs() {
        let mut a = agent(CpuVendor::Amd, ComponentMask::ALL);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            a.run_iteration(&FuzzInput::random(&mut rng));
        }
        assert!(a.coverage_fraction() > 0.2, "got {}", a.coverage_fraction());
    }
}
