//! Stage replay of `Agent::run_iteration`.
//!
//! The product's agent runs one execution as a single call. To see
//! where that call's time goes without touching product code, this
//! module re-runs the same steps through the public functions the
//! agent itself calls, with a span around each stage:
//!
//! | span | public function |
//! |---|---|
//! | `engine.reboot` | `ExecutionEngine::reboot` (watchdog slow path) |
//! | `configurator.generate` | `VcpuConfigurator::generate` |
//! | `engine.prepare` | `ExecutionEngine::prepare` |
//! | `validator.generate` | `VmStateValidator::generate` + `generate_vmcb` |
//! | `harness.mutated_plan` | `ExecutionHarness::mutated_plan` |
//! | `harness.run_init` | `ExecutionHarness::run_init` |
//! | `harness.run_runtime` | `ExecutionHarness::run_runtime` |
//! | `engine.collect_coverage` | `ExecutionEngine::collect_coverage` |
//! | `triage.record` | `CrashTriage::record` |
//!
//! It mirrors the product configuration every workload uses: all
//! components on, snapshot engine, no prefix cache, no fault plan.
//! The traced run checks it against `Agent::run_iteration` on every
//! execution (bitmap, lines and crash flag), so a product change that
//! the replay no longer follows fails the run instead of skewing it.

use std::sync::Arc;

use necofuzz::campaign::HvFactory;
use necofuzz::checkpoint::CampaignCheckpoint;
use necofuzz::{
    BugFind, CrashTriage, EngineMode, ExecutionEngine, ExecutionHarness, InputView,
    VcpuConfigurator,
};
use nf_coverage::{ExecScratch, LineSet};
use nf_fuzz::FuzzInput;
use nf_hv::HvConfig;
use nf_vmx::VmxCapabilities;
use nf_x86::{CpuVendor, FeatureSet};

use crate::trace::Tracer;

/// The replayed agent: the same engine, harness, configurator and
/// triage an `Agent` owns, driven step by step.
pub struct StageReplay {
    engine: ExecutionEngine,
    vendor: CpuVendor,
    harness: ExecutionHarness,
    configurator: VcpuConfigurator,
    execs: u64,
    restarts: u64,
    cumulative: LineSet,
    triage: CrashTriage,
}

impl StageReplay {
    /// A replay agent on `factory`, built like `Agent::with_engine`
    /// with every component on and the snapshot engine.
    pub fn new(factory: HvFactory, vendor: CpuVendor) -> Self {
        let configurator = VcpuConfigurator::new(vendor);
        let (features, nested) = configurator.default_config();
        let config = HvConfig {
            vendor,
            features,
            nested,
        };
        let caps =
            VmxCapabilities::from_features(FeatureSet::default_for(vendor).sanitized(vendor));
        let engine = ExecutionEngine::new(factory, config, caps, EngineMode::Snapshot);
        let cumulative = LineSet::for_map(engine.hv().coverage_map());
        StageReplay {
            engine,
            vendor,
            harness: ExecutionHarness::new(vendor),
            configurator,
            execs: 0,
            restarts: 0,
            cumulative,
            triage: CrashTriage::new(),
        }
    }

    /// Restores the agent-side state of a checkpoint, as
    /// `Campaign::resume_from_checkpoint` does for its agent.
    pub fn restore(&mut self, ck: &CampaignCheckpoint) {
        self.execs = ck.agent_execs;
        self.restarts = ck.agent_restarts;
        self.cumulative = LineSet::from_words(ck.cumulative.clone());
        let validator = self.engine.validator_mut();
        for (rule, detail) in &ck.corrections {
            validator.restore_correction(rule, detail.clone());
        }
        for find in &ck.finds {
            self.triage.record(find.clone().into_find());
        }
    }

    /// Runs one execution, one span per stage, all under exec id
    /// `id`. Returns the crash flag; coverage is left in
    /// [`StageReplay::scratch`].
    pub fn run_iteration(&mut self, input: &FuzzInput, t: &mut Tracer, id: u64) -> bool {
        self.execs += 1;
        let view = InputView::new(input);
        let engine = &mut self.engine;

        if engine.hv().health().dead {
            t.span("engine.reboot", id, || engine.reboot());
            self.restarts += 1;
        }

        let configurator = &self.configurator;
        let (features, nested) = t.span("configurator.generate", id, || {
            configurator.generate(view.vcpu_cfg())
        });
        let config = HvConfig {
            vendor: self.vendor,
            features,
            nested,
        };
        t.span("engine.prepare", id, || engine.prepare(&config));

        let (vmcs12, msr_area, vmcb12) = t.span("validator.generate", id, || {
            let validator = engine.validator_mut();
            let (vmcs, area) =
                validator.generate(view.vmcs_seed(), view.mutate_bytes(), view.msr_area_bytes());
            let vmcb = validator.generate_vmcb(view.vmcs_seed(), view.mutate_bytes());
            (vmcs, area, vmcb)
        });

        let harness = self.harness;
        let plan = t.span("harness.mutated_plan", id, || {
            harness.mutated_plan(VmxCapabilities::REVISION, view.init_bytes())
        });
        let init = t.span("harness.run_init", id, || {
            harness.run_init(engine.hv_mut(), &plan, &vmcs12, &vmcb12, &msr_area)
        });
        if !init.host_dead {
            t.span("harness.run_runtime", id, || {
                harness.run_runtime(engine.hv_mut(), view.runtime_bytes(), init.l2_live)
            });
        }

        t.span("engine.collect_coverage", id, || engine.collect_coverage());
        self.cumulative.union_with(&engine.scratch().lines);

        let health = engine.hv_mut().health_mut();
        if health.reports.is_empty() {
            return false;
        }
        let reports = std::mem::take(&mut health.reports);
        let shared = Arc::new(input.clone());
        for report in reports {
            let find = BugFind {
                bug_id: report.bug_id.to_string(),
                kind: report.kind,
                message: report.message,
                exec: self.execs,
                input: Arc::clone(&shared),
            };
            let triage = &mut self.triage;
            t.span("triage.record", id, || triage.record(find));
        }
        true
    }

    /// The last execution's bitmap, lines and trace.
    pub fn scratch(&self) -> &ExecScratch {
        self.engine.scratch()
    }

    /// Cumulative covered lines.
    pub fn cumulative(&self) -> &LineSet {
        &self.cumulative
    }

    /// Coverage fraction of the vendor-matching nested file, computed
    /// like `Agent::coverage_fraction`.
    pub fn coverage_fraction(&self) -> f64 {
        let hv = self.engine.hv();
        let file = match self.vendor {
            CpuVendor::Intel => hv.intel_file(),
            CpuVendor::Amd => hv.amd_file().unwrap_or_else(|| hv.intel_file()),
        };
        self.cumulative.fraction_of(hv.coverage_map(), file)
    }

    /// Executions run (including those restored from a checkpoint).
    pub fn execs(&self) -> u64 {
        self.execs
    }

    /// Watchdog reboots.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Unique finds in discovery order.
    pub fn triage(&self) -> &CrashTriage {
        &self.triage
    }
}
