//! Campaign runner: virtual-time fuzzing runs with hourly sampling and
//! cross-worker corpus sync.
//!
//! The paper runs 48-hour (Table 2) and 24-hour (Tables 3/4) campaigns,
//! reporting medians of five runs. A campaign here advances a virtual
//! clock at a fixed executions-per-hour rate, samples coverage each
//! virtual hour (Figures 3/4), and records vulnerability discoveries.
//!
//! A [`Campaign`] is resumable: `run_execs(n)` advances the clock in
//! steps, so a *sync group* (AFL++-style main/secondary fleets) can
//! interleave its members one execution at a time and gossip
//! [`CorpusDelta`]s over a [`DeltaBus`] in between —
//! [`run_campaign_group`] is that loop, and the orchestrator's
//! `SyncGroup` seam feeds it whole grid cells.
//!
//! A campaign that arms the differential oracle replays its inputs on a
//! thread of its own, one batch behind the primary agent (the oracle
//! lane of [`crate::differential`]): [`Campaign::run_execs`] pushes
//! every executed input to the lane, each virtual hour drains it, and
//! [`Campaign::into_result`] finishes it. Such a campaign keeps two
//! cores busy; its result is what replaying inline produced.
//!
//! [`CorpusDelta`]: nf_fuzz::CorpusDelta

use nf_fuzz::{
    DeltaBus, FuzzInput, Fuzzer, GossipNode, Mode, MutationStats, MutationStrategy, SeqDelta,
    SyncMode, SyncStats, SyncTopology,
};
use nf_hv::{FaultPlan, HvConfig, L0Hypervisor, DEFAULT_WATCHDOG_FUEL};
use nf_x86::CpuVendor;

use crate::agent::{Agent, BugFind, ComponentMask};
use crate::differential::{DivergenceStats, OracleLane, OracleMode};
use crate::engine::{EngineMode, EngineStats};

/// Executions one virtual hour stands for. The paper's harness reaches
/// hundreds of executions per second on bare metal; the simulation
/// compresses that to a benchmark-friendly rate with the same shape.
pub const EXECS_PER_HOUR: u32 = 250;

/// The type of [`CampaignConfig::prefix_store`]. Nothing reads it; it
/// stays only because perfbench names the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixStoreMode {
    /// The only value.
    Cow,
}

/// Configuration of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Vendor of the modeled host CPU.
    pub vendor: CpuVendor,
    /// Virtual duration in hours (48 for Table 2, 24 for Tables 3/4).
    pub hours: u32,
    /// Executions per virtual hour.
    pub execs_per_hour: u32,
    /// RNG seed (one per run; the paper uses five runs).
    pub seed: u64,
    /// Feedback mode (Table 5 compares Guided vs Unguided).
    pub mode: Mode,
    /// Component toggles (Table 3 / Figure 4).
    pub mask: ComponentMask,
    /// Unused: kept only because perfbench reads it.
    pub engine: EngineMode,
    /// Unused: kept only because perfbench reads it.
    pub prefix_cache: bool,
    /// Unused: kept only because perfbench reads it.
    pub cache_capacity: usize,
    /// Unused: kept only because perfbench reads it.
    pub prefix_budget: usize,
    /// Unused: kept only because perfbench reads it.
    pub prefix_store: PrefixStoreMode,
    /// Corpus sync switch. `0` (the default) never syncs; any `n > 0`
    /// makes a group of two or more members gossip corpus deltas
    /// (`--sync-interval`). The value only switches syncing on —
    /// publication is novelty-driven, not clocked. A lone campaign
    /// ignores the setting.
    pub sync_interval: u32,
    /// Gossip graph of a synced group (`--sync-topology`).
    pub sync_topology: SyncTopology,
    /// How guided mode turns queue parents into children: the classic
    /// byte-blind havoc stack (default, bit-identical to the original
    /// engine) or the structure-aware scenario operators (`--mutator
    /// structured`). Unguided campaigns ignore the setting — random
    /// generation never consults a parent.
    pub strategy: MutationStrategy,
    /// Anomaly oracle: sanitizers only (default), or sanitizers plus
    /// the cross-backend differential oracle (`--oracle differential`).
    pub oracle: OracleMode,
    /// Backend set of the differential oracle (names as understood by
    /// [`crate::differential::backend_factory`]); ignored in
    /// [`OracleMode::Sanitizer`] campaigns. Every generated input is
    /// additionally replayed on each of these and the observations
    /// diffed pairwise — the primary agent's own execution stream is
    /// untouched, so exploration is bit-identical with the oracle on
    /// or off.
    pub diff_backends: Vec<String>,
    /// Deterministic fault plan (`--fault-plan`): injected hangs and
    /// host deaths, scheduled as a pure function of (plan, exec index,
    /// input content). `None` (the default) installs nothing; a
    /// zero-rate plan is bit-identical to `None`.
    pub fault_plan: Option<FaultPlan>,
    /// Per-execution instruction-fuel budget of the exec watchdog
    /// (`--watchdog-fuel`); only metered when a fault plan is
    /// installed.
    pub watchdog_fuel: u64,
}

impl CampaignConfig {
    /// The standard NecoFuzz configuration for `vendor` and `seed`.
    ///
    /// Coverage guidance is off by default: the paper found breadth-first
    /// exploration slightly ahead of guided mode on this target (§5.6)
    /// and ships NecoFuzz accordingly.
    pub fn necofuzz(vendor: CpuVendor, hours: u32, seed: u64) -> Self {
        CampaignConfig {
            vendor,
            hours,
            execs_per_hour: EXECS_PER_HOUR,
            seed,
            mode: Mode::Unguided,
            mask: ComponentMask::ALL,
            engine: EngineMode::Snapshot,
            prefix_cache: false,
            cache_capacity: 0,
            prefix_budget: 0,
            prefix_store: PrefixStoreMode::Cow,
            sync_interval: 0,
            sync_topology: SyncTopology::Tree,
            strategy: MutationStrategy::Havoc,
            oracle: OracleMode::Sanitizer,
            diff_backends: Vec::new(),
            fault_plan: None,
            watchdog_fuel: DEFAULT_WATCHDOG_FUEL,
        }
    }

    /// Sets the executions-per-virtual-hour rate.
    pub fn with_execs_per_hour(mut self, execs_per_hour: u32) -> Self {
        self.execs_per_hour = execs_per_hour;
        self
    }

    /// Sets the feedback mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the component-ablation mask.
    pub fn with_mask(mut self, mask: ComponentMask) -> Self {
        self.mask = mask;
        self
    }

    /// Sets the corpus sync switch (`0` = never, any `n > 0` = gossip).
    pub fn with_sync_interval(mut self, sync_interval: u32) -> Self {
        self.sync_interval = sync_interval;
        self
    }

    /// Does nothing: watermark gossip is the only sync protocol. Kept
    /// only because perfbench calls it.
    pub fn with_sync_mode(self, _mode: SyncMode) -> Self {
        self
    }

    /// Sets the gossip topology.
    pub fn with_sync_topology(mut self, sync_topology: SyncTopology) -> Self {
        self.sync_topology = sync_topology;
        self
    }

    /// Sets the guided-mode mutation strategy.
    pub fn with_strategy(mut self, strategy: MutationStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the anomaly oracle mode.
    pub fn with_oracle(mut self, oracle: OracleMode) -> Self {
        self.oracle = oracle;
        self
    }

    /// Sets the differential-oracle backend set.
    pub fn with_diff_backends(mut self, backends: &[&str]) -> Self {
        self.diff_backends = backends.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Installs a deterministic fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the exec watchdog's per-execution fuel budget.
    pub fn with_watchdog_fuel(mut self, fuel: u64) -> Self {
        self.watchdog_fuel = fuel;
        self
    }
}

/// One hourly coverage sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourSample {
    /// Virtual hour (1-based; hour 0 is the pre-run state).
    pub hour: u32,
    /// Coverage fraction of the vendor-matching nested file.
    pub coverage: f64,
}

/// Injected faults that actually fired during a campaign. Semantic —
/// the schedule is a pure function of (plan, exec stream) — so equal
/// configurations must produce equal counters, and the determinism
/// suites compare them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Hung execs the watchdog classified (content-indexed hang faults
    /// plus genuine fuel exhaustion).
    pub hangs: u64,
    /// Silent host deaths injected mid-exec.
    pub deaths: u64,
}

/// Trailing zero-coverage-delta hours before the plateau alarm trips.
pub const PLATEAU_ALARM_HOURS: u32 = 6;

/// End-of-campaign health alarms, derived from the hourly samples (so
/// they are as deterministic as the samples themselves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthAlarms {
    /// Coverage made no progress for the trailing
    /// [`PLATEAU_ALARM_HOURS`] virtual hours or more.
    pub coverage_plateau: bool,
    /// Length of the trailing zero-delta streak, in virtual hours.
    pub plateau_hours: u32,
    /// Corpus yield collapsed: the last quarter of the run queued less
    /// than a quarter of what the first quarter did (only judged once
    /// the first quarter queued enough to be meaningful).
    pub yield_degraded: bool,
}

/// Derives the end-of-campaign alarms from the hourly coverage samples
/// and the per-hour corpus-size marks.
fn compute_alarms(hourly: &[HourSample], corpus_marks: &[u64]) -> HealthAlarms {
    let mut plateau_hours = 0u32;
    for w in hourly.windows(2).rev() {
        if w[1].coverage == w[0].coverage {
            plateau_hours += 1;
        } else {
            break;
        }
    }
    let mut yield_degraded = false;
    let n = corpus_marks.len();
    if n >= 8 {
        let quarter = n / 4;
        let first = corpus_marks[quarter - 1];
        let last = corpus_marks[n - 1] - corpus_marks[n - 1 - quarter];
        yield_degraded = first >= 8 && last * 4 < first;
    }
    HealthAlarms {
        coverage_plateau: plateau_hours >= PLATEAU_ALARM_HOURS,
        plateau_hours,
        yield_degraded,
    }
}

/// Result of one campaign run.
///
/// `PartialEq` compares every *semantic* field; the orchestrator's
/// equivalence tests rely on it to show parallel execution is
/// bit-identical to serial, and the checkpoint suites rely on it to
/// show a resumed campaign converges to the uninterrupted one. The
/// [`EngineStats`] counters are excluded: they describe *how* the
/// engine serviced the run (factory builds, guest resets), which
/// legitimately differs between equivalent executions.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Hourly coverage samples (index 0 = after the first hour).
    pub hourly: Vec<HourSample>,
    /// Final coverage fraction.
    pub final_coverage: f64,
    /// Cumulative covered lines (for the Table 2 set algebra).
    pub lines: nf_coverage::LineSet,
    /// The coverage map geometry of the target.
    pub map: nf_coverage::CovMap,
    /// File the fraction was computed over.
    pub file: nf_coverage::FileId,
    /// Vulnerability discoveries, in find order.
    pub finds: Vec<BugFind>,
    /// Total executions.
    pub execs: u64,
    /// Watchdog restarts.
    pub restarts: u64,
    /// The final corpus (queue + virgin bitmap + provenance) — for
    /// persistence (`--corpus-dir`) and offline minimization.
    pub corpus: nf_fuzz::Corpus,
    /// Corpus entries adopted from sync-group siblings.
    pub adopted: u64,
    /// Mutation-side statistics: per-operator scheduling stats
    /// (structured strategy) and the havoc arm counters — the source
    /// of `mutator_yield`'s per-operator table and its smoke gate.
    pub mutation: MutationStats,
    /// Differential-oracle counters (all zero in sanitizer-only
    /// campaigns). Divergence findings themselves are appended to
    /// `finds` after the sanitizer findings, in discovery order.
    pub divergence: DivergenceStats,
    /// Executions spent replaying inputs on the differential backend
    /// set (on top of `execs`) — the oracle's overhead denominator in
    /// `BENCH_diff.json`.
    pub diff_execs: u64,
    /// Execution-engine counters (factory builds, guest resets,
    /// validator rebuilds). Diagnostic only: excluded from
    /// `PartialEq`, since a resumed campaign services the same
    /// execution stream with a different number of builds.
    pub engine_stats: EngineStats,
    /// Sync-cost counters (deltas published/applied, segments merged,
    /// words scanned, adoptions). Diagnostic only: excluded from
    /// `PartialEq` like `engine_stats` — they describe how knowledge
    /// moved, not what was learned.
    pub sync: SyncStats,
    /// Injected faults that fired. Semantic (schedule-determined) and
    /// therefore *included* in `PartialEq`: equal configurations must
    /// observe the identical fault sequence.
    pub faults: FaultCounters,
    /// End-of-campaign health alarms (coverage plateau, yield
    /// degradation), derived from the hourly samples; included in
    /// `PartialEq`.
    pub alarms: HealthAlarms,
}

impl PartialEq for CampaignResult {
    fn eq(&self, other: &Self) -> bool {
        self.hourly == other.hourly
            && self.final_coverage == other.final_coverage
            && self.lines == other.lines
            && self.map == other.map
            && self.file == other.file
            && self.finds == other.finds
            && self.execs == other.execs
            && self.restarts == other.restarts
            && self.corpus == other.corpus
            && self.adopted == other.adopted
            && self.mutation == other.mutation
            && self.divergence == other.divergence
            && self.diff_execs == other.diff_execs
            && self.faults == other.faults
            && self.alarms == other.alarms
    }
}

/// Where a campaign's virtual clock stands: the samples and marks taken
/// so far, the hour and the execs into it, and the adoptions made.
struct Clock {
    hourly: Vec<HourSample>,
    hour: u32,
    hour_execs: u32,
    corpus_marks: Vec<u64>,
    adopted: u64,
}

impl Clock {
    /// A fresh clock at hour 0. The series grow as hours complete, so
    /// an absurd `--hours` reserves nothing before the first exec.
    fn start() -> Clock {
        Clock {
            hourly: Vec::new(),
            hour: 0,
            hour_execs: 0,
            corpus_marks: Vec::new(),
            adopted: 0,
        }
    }
}

/// A resumable campaign: agent + fuzzer + the virtual clock.
///
/// `run_campaign` drives one to completion in a single call; sync
/// groups advance members one execution at a time and gossip corpus
/// deltas in between.
pub struct Campaign {
    agent: Agent,
    fuzzer: Fuzzer,
    cfg: CampaignConfig,
    hourly: Vec<HourSample>,
    hour: u32,
    /// Executions already run inside the current (incomplete) virtual
    /// hour — the sync group runner advances campaigns in sub-hour
    /// steps.
    hour_execs: u32,
    /// Corpus size at each completed hour (yield-degradation input).
    corpus_marks: Vec<u64>,
    adopted: u64,
    /// Sync-cost counters for this worker (diagnostic).
    sync_stats: SyncStats,
    /// The reusable child buffer of the zero-allocation exec loop:
    /// every iteration's input is generated into this scratch in place
    /// (`Fuzzer::next_input_into`) instead of allocating per exec.
    input: FuzzInput,
    /// The differential oracle's lane (`--oracle differential` only):
    /// the thread that replays every executed input on the oracle's
    /// own agents — including one for the primary backend's name — so
    /// the primary agent's stream, and with it exploration, stays
    /// bit-identical either way.
    diff: Option<OracleLane>,
    /// Periodic checkpointing: `(directory, interval-in-hours)`.
    /// Runtime state, not configuration — set via
    /// [`Campaign::set_checkpoint`], never part of [`CampaignConfig`]
    /// (a campaign's result is a pure function of its config; where it
    /// checkpoints is not allowed to influence that).
    checkpoint: Option<(std::path::PathBuf, u32)>,
}

impl Campaign {
    /// Creates a campaign as sync-group worker 0.
    pub fn new(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        cfg: &CampaignConfig,
    ) -> Self {
        Campaign::with_worker(factory, cfg, 0)
    }

    /// Creates a campaign with an explicit sync-group worker id (the
    /// gossip origin id; plan order in a grid).
    pub fn with_worker(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        cfg: &CampaignConfig,
        worker: u32,
    ) -> Self {
        let agent = Campaign::make_agent(factory, cfg);
        let mut fuzzer = Fuzzer::with_strategy(cfg.seed, cfg.mode, cfg.strategy);
        fuzzer.set_worker(worker);
        Campaign::assemble(agent, fuzzer, cfg, Clock::start())
    }

    /// Creates a campaign resuming from a persisted corpus.
    pub fn with_corpus(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        cfg: &CampaignConfig,
        corpus: nf_fuzz::Corpus,
    ) -> Self {
        let agent = Campaign::make_agent(factory, cfg);
        let fuzzer = Fuzzer::with_corpus_strategy(cfg.seed, cfg.mode, cfg.strategy, corpus);
        Campaign::assemble(agent, fuzzer, cfg, Clock::start())
    }

    /// The one constructor body behind every way to create a campaign:
    /// a fresh one starts its clock at hour 0, a resumed one at its
    /// checkpoint's.
    fn assemble(agent: Agent, fuzzer: Fuzzer, cfg: &CampaignConfig, clock: Clock) -> Self {
        Campaign {
            agent,
            fuzzer,
            diff: OracleLane::of_campaign(cfg),
            cfg: cfg.clone(),
            hourly: clock.hourly,
            hour: clock.hour,
            hour_execs: clock.hour_execs,
            corpus_marks: clock.corpus_marks,
            adopted: clock.adopted,
            sync_stats: SyncStats::default(),
            input: FuzzInput::zeroed(),
            checkpoint: None,
        }
    }

    /// Builds the campaign's agent, applying every fault knob the
    /// config carries — shared by all constructors and the replay
    /// oracle, so fresh, resumed and replaying agents are configured
    /// identically.
    pub(crate) fn make_agent(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        cfg: &CampaignConfig,
    ) -> Agent {
        let mut agent = Agent::new(factory, cfg.vendor, cfg.mask);
        if let Some(plan) = cfg.fault_plan {
            agent = agent
                .with_fault_plan(plan)
                .with_watchdog_fuel(cfg.watchdog_fuel);
        }
        agent
    }

    /// Virtual hours completed so far.
    pub fn hours_done(&self) -> u32 {
        self.hour
    }

    /// The configured virtual-hour budget.
    pub fn hours_total(&self) -> u32 {
        self.cfg.hours
    }

    /// Corpus entries adopted from sync-group siblings.
    pub fn adopted(&self) -> u64 {
        self.adopted
    }

    /// `true` once the configured budget is exhausted.
    pub fn is_complete(&self) -> bool {
        self.hour >= self.cfg.hours
    }

    /// Executions performed so far.
    pub fn execs(&self) -> u64 {
        self.agent.execs()
    }

    /// Cumulative covered lines so far.
    pub fn lines(&self) -> &nf_coverage::LineSet {
        &self.agent.cumulative
    }

    /// The target's coverage geometry: the map and the vendor-matching
    /// nested file (for cross-member union accounting in benches).
    pub fn coverage_geometry(&self) -> (nf_coverage::CovMap, nf_coverage::FileId) {
        let hv = self.agent.hv();
        let file = match self.cfg.vendor {
            CpuVendor::Intel => hv.intel_file(),
            CpuVendor::Amd => hv.amd_file().unwrap_or_else(|| hv.intel_file()),
        };
        (hv.coverage_map().clone(), file)
    }

    /// Current coverage fraction of the vendor-matching nested file.
    pub fn coverage_fraction(&self) -> f64 {
        self.agent.coverage_fraction()
    }

    /// Advances the virtual clock by up to `n` hours (clamped to the
    /// configured budget), sampling coverage at each hour boundary.
    pub fn run_hours(&mut self, n: u32) {
        let until = (self.hour + n).min(self.cfg.hours);
        while self.hour < until {
            if self.cfg.execs_per_hour == 0 {
                // An hour that carries no executions still ticks the
                // clock and samples.
                self.sample_hour();
                continue;
            }
            self.run_execs(self.cfg.execs_per_hour - self.hour_execs);
        }
    }

    /// Advances the campaign by up to `n` executions (clamped to the
    /// configured budget), sampling coverage whenever the exec count
    /// crosses an hour boundary. The exec sequence is identical to
    /// [`Campaign::run_hours`]'s — the sync group loop uses sub-hour
    /// steps to consume gossip at iteration boundaries, without
    /// changing what any single worker executes.
    pub fn run_execs(&mut self, n: u32) {
        for _ in 0..n {
            if self.hour >= self.cfg.hours {
                return;
            }
            // Zero-allocation exec loop: the child is generated into
            // the reusable scratch, the iteration result borrows the
            // engine's scratch buffers, and the fuzzer observes them
            // in place, visiting only the exec's touched edges.
            self.fuzzer.next_input_into(&mut self.input);
            let result = self.agent.run_iteration(&self.input);
            self.fuzzer.report_edges(
                &self.input,
                result.bitmap,
                result.edges,
                result.lines,
                result.feedback,
            );
            if let Some(lane) = &mut self.diff {
                lane.push(&self.input, self.agent.execs());
            }
            self.hour_execs += 1;
            if self.hour_execs >= self.cfg.execs_per_hour {
                self.hour_execs = 0;
                self.sample_hour();
            }
        }
    }

    /// Ticks the virtual clock one hour: waits for the oracle lane to
    /// replay the hour's inputs, samples coverage, marks the corpus
    /// size (the yield-degradation series), and writes a checkpoint
    /// when one is due.
    fn sample_hour(&mut self) {
        if let Some(lane) = &mut self.diff {
            lane.drain();
        }
        self.hour += 1;
        self.hourly.push(HourSample {
            hour: self.hour,
            coverage: self.agent.coverage_fraction(),
        });
        self.corpus_marks.push(self.fuzzer.corpus().len() as u64);
        self.maybe_checkpoint();
    }

    /// Arms periodic checkpointing: every `interval` virtual hours the
    /// campaign's full resumable state is written to `dir` (atomically:
    /// a sibling temp directory is renamed into place). Checkpointing
    /// is runtime plumbing, not campaign identity — it never enters
    /// [`CampaignConfig`] and has no effect on the exec sequence.
    pub fn set_checkpoint(&mut self, dir: impl Into<std::path::PathBuf>, interval: u32) {
        self.checkpoint = Some((dir.into(), interval.max(1)));
    }

    /// Writes a checkpoint if one is armed and due this hour. Write
    /// failures are reported on stderr and disarm further attempts
    /// rather than aborting the campaign.
    fn maybe_checkpoint(&mut self) {
        let Some((dir, interval)) = self.checkpoint.clone() else {
            return;
        };
        if !self.hour.is_multiple_of(interval) && self.hour < self.cfg.hours {
            return;
        }
        if let Err(error) = crate::checkpoint::write_checkpoint(self, &dir) {
            eprintln!(
                "necofuzz: checkpoint to {} failed at hour {}: {error}; disabling checkpoints",
                dir.display(),
                self.hour
            );
            self.checkpoint = None;
        }
    }

    /// The live corpus (queue + virgin bitmap + provenance) — the
    /// checkpoint writer persists it via [`nf_fuzz::Corpus::save_to`].
    pub fn corpus(&self) -> &nf_fuzz::Corpus {
        self.fuzzer.corpus()
    }

    /// Gathers everything a resume needs into a
    /// [`crate::checkpoint::CampaignCheckpoint`]. Called at hour
    /// boundaries only, where no generated input is pending a report.
    pub(crate) fn checkpoint_snapshot(&self) -> crate::checkpoint::CampaignCheckpoint {
        let (fault_hangs, fault_deaths) = self.agent.faults_fired();
        crate::checkpoint::CampaignCheckpoint {
            seed: self.cfg.seed,
            hour: self.hour,
            hour_execs: self.hour_execs,
            adopted: self.adopted,
            hourly: self.hourly.clone(),
            corpus_marks: self.corpus_marks.clone(),
            fuzzer: self.fuzzer.checkpoint_state(),
            agent_execs: self.agent.execs(),
            agent_restarts: self.agent.restarts(),
            cumulative: self.agent.cumulative.as_words().to_vec(),
            corrections: self
                .agent
                .validator()
                .corrections
                .iter()
                .map(|c| (c.rule.to_string(), c.detail.clone()))
                .collect(),
            finds: self
                .agent
                .triage()
                .finds()
                .iter()
                .map(crate::checkpoint::FindRecord::of)
                .collect(),
            fault_hangs,
            fault_deaths,
        }
    }

    /// Reconstructs a campaign from a checkpoint directory and
    /// continues it under `cfg`. The resumed campaign's remaining exec
    /// stream — and with it the final [`CampaignResult`] — is
    /// *identical* to what the interrupted run would have produced:
    /// every piece of state the stream depends on is restored exactly.
    ///
    /// `cfg` must be the interrupted campaign's configuration (the CLI
    /// re-derives it from the same flags); a mismatched seed, a
    /// checkpoint past `cfg.hours`, and a part-run hour that already
    /// reached `cfg.execs_per_hour` are rejected. Differential-oracle
    /// campaigns are not resumable — the oracle's replay agents hold
    /// their own unpersisted state.
    pub fn resume_from_checkpoint(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        cfg: &CampaignConfig,
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Campaign> {
        if cfg.oracle == OracleMode::Differential {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "checkpoint resume does not support the differential oracle",
            ));
        }
        let (ck, corpus) = crate::checkpoint::read_checkpoint(dir.as_ref())?;
        if ck.seed != cfg.seed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "checkpoint was taken under seed {}, not {} — refusing to mix streams",
                    ck.seed, cfg.seed
                ),
            ));
        }
        if ck.hour > cfg.hours {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "checkpoint stands at hour {}, past this campaign's {} hours",
                    ck.hour, cfg.hours
                ),
            ));
        }
        if ck.hour_execs != 0 && ck.hour_execs >= cfg.execs_per_hour {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "checkpoint ran {} execs into its hour; this campaign runs {} per hour",
                    ck.hour_execs, cfg.execs_per_hour
                ),
            ));
        }
        let mut agent = Campaign::make_agent(factory, cfg);
        agent.restore_counters(ck.agent_execs, ck.agent_restarts);
        agent.cumulative = nf_coverage::LineSet::from_words(ck.cumulative);
        agent.restore_corrections(&ck.corrections);
        agent.restore_faults_fired(ck.fault_hangs, ck.fault_deaths);
        for find in ck.finds {
            agent.triage_mut().record(find.into_find());
        }
        let fuzzer = Fuzzer::from_checkpoint(cfg.mode, cfg.strategy, corpus, ck.fuzzer);
        let clock = Clock {
            hourly: ck.hourly,
            hour: ck.hour,
            hour_execs: ck.hour_execs,
            corpus_marks: ck.corpus_marks,
            adopted: ck.adopted,
        };
        Ok(Campaign::assemble(agent, fuzzer, cfg, clock))
    }

    /// Turns on corpus recording regardless of feedback mode, so an
    /// unguided member still contributes its novel inputs to its
    /// gossip deltas. `run_campaign_group` calls this for every member
    /// of an actually-syncing group; a lone campaign keeps mode
    /// defaults.
    pub fn enable_sync_recording(&mut self) {
        self.fuzzer.set_recording(true);
    }

    /// `true` when this worker has observed novelty it has not yet
    /// published — the async publish-on-novelty trigger.
    pub fn has_unpublished_novelty(&self) -> bool {
        self.fuzzer.corpus().has_unpublished()
    }

    /// Publishes this worker's accumulated novelty onto the group's
    /// delta bus (sharded watermark scan) and self-watermarks the
    /// record so topology echoes terminate. Returns `true` when a
    /// record was actually published (an all-foreign watermark window
    /// can produce an empty delta, which is dropped).
    pub fn publish_async(&mut self, bus: &mut DeltaBus, node: &mut GossipNode) -> bool {
        let delta = self
            .fuzzer
            .corpus_mut()
            .take_delta_async(&mut self.sync_stats);
        if delta.is_empty() {
            return false;
        }
        let rec = bus.publish_own(delta);
        node.note_published(&rec);
        self.sync_stats.deltas_published += 1;
        true
    }

    /// Applies one inbound gossip record by *evidence merge*: foreign
    /// entries join the queue with their classified bitmaps, and
    /// their line evidence is folded straight into this campaign's
    /// coverage accounting — no replay, so adoption costs zero
    /// executions. Returns the number of entries adopted.
    pub fn apply_async(&mut self, rec: &SeqDelta) -> usize {
        let before = self.fuzzer.corpus().len();
        let adopted = self
            .fuzzer
            .corpus_mut()
            .apply_delta(&rec.delta, &mut self.sync_stats);
        if adopted > 0 {
            for entry in self.fuzzer.corpus().entries().skip(before) {
                self.agent.cumulative.union_with(&entry.lines);
            }
            self.adopted += adopted as u64;
        }
        adopted
    }

    /// Finishes the campaign (running any remaining budget) and
    /// produces its result.
    pub fn into_result(mut self) -> CampaignResult {
        if !self.is_complete() {
            let rest = self.cfg.hours - self.hour;
            self.run_hours(rest);
        }
        let oracle = self.diff.take().map(OracleLane::finish).unwrap_or_default();
        let (map, file) = self.coverage_geometry();
        let agent = &self.agent;
        let final_coverage = agent.coverage_fraction();
        let mut finds = agent.triage().finds().to_vec();
        finds.extend(oracle.finds);
        let engine_stats = agent.engine_stats();
        let (hangs, deaths) = agent.faults_fired();
        let alarms = compute_alarms(&self.hourly, &self.corpus_marks);
        CampaignResult {
            faults: FaultCounters { hangs, deaths },
            alarms,
            hourly: self.hourly,
            final_coverage,
            lines: agent.cumulative.clone(),
            map,
            file,
            finds,
            execs: agent.execs(),
            restarts: agent.restarts(),
            mutation: self.fuzzer.mutation_stats(),
            corpus: std::mem::take(self.fuzzer.corpus_mut()),
            adopted: self.adopted,
            divergence: oracle.stats,
            diff_execs: oracle.backend_execs,
            engine_stats,
            sync: self.sync_stats,
        }
    }
}

/// Boxed hypervisor factory: builds a fresh L0 for a given [`HvConfig`].
pub type HvFactory = Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>;

/// One sync-group member: a hypervisor factory plus its campaign config.
pub type GroupMember = (HvFactory, CampaignConfig);

/// Runs one campaign of NecoFuzz against the hypervisor `factory`.
pub fn run_campaign(
    factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
    cfg: &CampaignConfig,
) -> CampaignResult {
    let mut campaign = Campaign::new(factory, cfg);
    campaign.run_hours(cfg.hours);
    campaign.into_result()
}

/// Runs a sync group: campaigns that pool their corpora.
///
/// With two or more members and a non-zero `sync_interval`, the
/// members gossip corpus deltas while they run (watermark gossip over
/// their `sync_topology`; see [`run_campaign_group_observed`]).
/// Otherwise they run exactly like independent `run_campaign` calls
/// and produce bit-identical results to them.
///
/// Worker ids are member indices, so the whole group is a pure
/// function of its (ordered) member list: results are deterministic at
/// any host parallelism.
pub fn run_campaign_group(members: Vec<GroupMember>) -> Vec<CampaignResult> {
    run_campaign_group_observed(members, |_| {})
}

/// [`run_campaign_group`] with a per-hour observer: after every virtual
/// hour — and, after the last one, once the group has gossiped to
/// quiescence — `observe` sees the member states. This is the seam
/// benches and progress reporting use to sample time-to-coverage
/// without re-implementing the sync protocol; the observer cannot
/// influence the run, so results are identical to the unobserved call.
pub fn run_campaign_group_observed(
    members: Vec<GroupMember>,
    mut observe: impl FnMut(&[Campaign]),
) -> Vec<CampaignResult> {
    let Some(first) = members.first() else {
        return Vec::new();
    };
    let hours = first.1.hours;
    let interval = first.1.sync_interval;
    let topology = first.1.sync_topology;
    // A hard assert: in release builds a mismatched member would
    // silently finish its surplus hours unsynced, voiding the group's
    // determinism guarantee.
    assert!(
        members
            .iter()
            .all(|(_, cfg)| cfg.hours == hours && cfg.sync_interval == interval),
        "sync-group members must share hours and sync_interval"
    );
    assert!(
        members.iter().all(|(_, cfg)| cfg.sync_topology == topology),
        "sync-group members must share sync_topology"
    );
    if interval > 0 && members.len() > 1 {
        return run_synced_group(members, observe);
    }
    // An unsynced group's members must be bit-identical to isolated
    // `run_campaign` calls — including their corpora — so neither
    // worker ids nor forced recording may leak in.
    let mut campaigns: Vec<Campaign> = members
        .into_iter()
        .map(|(factory, cfg)| Campaign::new(factory, &cfg))
        .collect();
    for _ in 0..hours {
        for c in &mut campaigns {
            c.run_hours(1);
        }
        observe(&campaigns);
    }
    campaigns.into_iter().map(Campaign::into_result).collect()
}

/// The synced group runner: watermark gossip, no barrier. Workers
/// advance in single-execution steps; after each step a worker
/// publishes its unpublished novelty onto the [`DeltaBus`]
/// (watermark-sequenced), drains its topology peers' fresh records,
/// evidence-merges them, and relays them onward. At the end of the
/// final hour the group gossips to quiescence, so the last hourly
/// observation — and the results — see a converged fleet.
///
/// Determinism: workers step in worker-id order (the group is one
/// scheduling unit), the bus assigns sequence numbers in publish
/// order, and drains scan peers in fixed order — the whole run is a
/// pure function of (member list, topology), reproducible at any host
/// parallelism.
fn run_synced_group(
    members: Vec<GroupMember>,
    mut observe: impl FnMut(&[Campaign]),
) -> Vec<CampaignResult> {
    let hours = members[0].1.hours;
    let execs_per_hour = members[0].1.execs_per_hour;
    let topology = members[0].1.sync_topology;
    let n = members.len() as u32;
    let mut campaigns: Vec<Campaign> = members
        .into_iter()
        .enumerate()
        .map(|(worker, (factory, cfg))| Campaign::with_worker(factory, &cfg, worker as u32))
        .collect();
    for c in &mut campaigns {
        c.enable_sync_recording();
    }
    let mut bus = DeltaBus::new(n as usize);
    let mut nodes: Vec<GossipNode> = (0..n).map(|w| GossipNode::new(w, n, topology)).collect();

    // One gossip turn for worker `w`: publish on novelty, then drain,
    // apply, and relay the fresh inbound records. Returns how many
    // records moved (the quiescence signal).
    let turn = |c: &mut Campaign, node: &mut GossipNode, bus: &mut DeltaBus, w: u32| {
        let mut moved = 0usize;
        if c.has_unpublished_novelty() && c.publish_async(bus, node) {
            moved += 1;
        }
        for rec in node.drain(bus) {
            c.apply_async(&rec);
            bus.relay(w, rec);
            moved += 1;
        }
        moved
    };

    for done in 0..hours {
        for _ in 0..execs_per_hour {
            for (w, c) in campaigns.iter_mut().enumerate() {
                c.run_execs(1);
                turn(c, &mut nodes[w], &mut bus, w as u32);
            }
        }
        if execs_per_hour == 0 {
            // An hour that carries no executions still ticks every
            // member's clock, as `Campaign::run_hours` does.
            for c in &mut campaigns {
                c.run_hours(1);
            }
        }
        if done + 1 == hours {
            // Final drain: keep gossiping (no more executions) until a
            // full round moves nothing, so in-flight knowledge lands
            // before the last observation.
            loop {
                let mut moved = 0;
                for (w, c) in campaigns.iter_mut().enumerate() {
                    moved += turn(c, &mut nodes[w], &mut bus, w as u32);
                }
                if moved == 0 {
                    break;
                }
            }
        }
        observe(&campaigns);
    }
    campaigns.into_iter().map(Campaign::into_result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_hv::Vkvm;

    fn kvm_factory() -> Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>> {
        Box::new(|cfg| Box::new(Vkvm::new(cfg)))
    }

    #[test]
    fn short_campaign_produces_samples() {
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 3, 0).with_execs_per_hour(40);
        let result = run_campaign(kvm_factory(), &cfg);
        assert_eq!(result.hourly.len(), 3);
        assert_eq!(result.execs, 120);
        assert!(result.final_coverage > 0.3, "got {}", result.final_coverage);
        // Hourly samples are monotone.
        for w in result.hourly.windows(2) {
            assert!(w[1].coverage >= w[0].coverage);
        }
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 2, 9).with_execs_per_hour(30);
        let a = run_campaign(kvm_factory(), &cfg);
        let b = run_campaign(kvm_factory(), &cfg);
        assert_eq!(a.final_coverage, b.final_coverage);
        assert_eq!(a.execs, b.execs);
        assert_eq!(a.corpus, b.corpus);
    }

    #[test]
    fn resumed_campaign_carries_corpus_knowledge_and_is_deterministic() {
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 2, 3)
            .with_execs_per_hour(40)
            .with_mode(Mode::Guided);
        let first = run_campaign(kvm_factory(), &cfg);
        let queued = first.corpus.len();
        assert!(queued > 0, "guided leg must promote entries");

        let resume = |corpus: nf_fuzz::Corpus| {
            Campaign::with_corpus(kvm_factory(), &cfg, corpus).into_result()
        };
        let a = resume(first.corpus.clone());
        let b = resume(first.corpus.clone());
        assert_eq!(a, b, "resume must be a pure function of (cfg, corpus)");
        // The queue is carried over (and only ever grows from there),
        // and the loaded virgin knowledge suppresses re-promotion of
        // inputs the first leg already found interesting.
        assert!(a.corpus.len() >= queued);
        assert!(
            a.corpus.len() - queued < queued,
            "resumed leg re-promoted too much: {} new vs {queued} carried",
            a.corpus.len() - queued
        );
        assert_eq!(
            a.corpus.worker(),
            first.corpus.worker(),
            "worker id travels with the corpus"
        );
    }

    #[test]
    fn structured_campaigns_are_deterministic_and_record_provenance() {
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 3, 5)
            .with_execs_per_hour(40)
            .with_mode(Mode::Guided)
            .with_strategy(MutationStrategy::Structured);
        let a = run_campaign(kvm_factory(), &cfg);
        let b = run_campaign(kvm_factory(), &cfg);
        assert_eq!(a, b, "structured runs must be a pure function of cfg");
        assert_eq!(a.mutation.strategy, MutationStrategy::Structured);
        assert!(a.mutation.operators.iter().any(|s| s.generated > 0));
        assert!(
            a.corpus.entries().any(|e| e.provenance.op.is_some()),
            "queued structured children must carry operator provenance"
        );
    }

    #[test]
    fn different_seeds_explore_differently() {
        let mk = |seed| CampaignConfig::necofuzz(CpuVendor::Intel, 2, seed).with_execs_per_hour(30);
        let a = run_campaign(kvm_factory(), &mk(1));
        let b = run_campaign(kvm_factory(), &mk(2));
        // Coverage may coincide, but the covered line sets rarely do.
        assert!(
            a.lines != b.lines || (a.final_coverage - b.final_coverage).abs() > 0.0,
            "two seeds should not be bit-identical"
        );
    }

    #[test]
    fn stepped_campaign_equals_one_shot() {
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 4, 7).with_execs_per_hour(30);
        let one_shot = run_campaign(kvm_factory(), &cfg);
        let mut stepped = Campaign::new(kvm_factory(), &cfg);
        stepped.run_hours(1);
        stepped.run_hours(2);
        stepped.run_hours(1);
        assert!(stepped.is_complete());
        assert_eq!(stepped.into_result(), one_shot);
    }

    #[test]
    fn checkpoint_resume_converges_to_uninterrupted_result() {
        // Guided mode + an aggressive fault plan, so every piece of
        // checkpointed state is live: queue, scheduler, triage finds,
        // learned corrections, and fault counters.
        let dir = std::env::temp_dir().join(format!(
            "nf-checkpoint-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 4, 5)
            .with_execs_per_hour(40)
            .with_mode(Mode::Guided)
            .with_fault_plan(FaultPlan::uniform(9, 0.05));
        let baseline = run_campaign(kvm_factory(), &cfg);

        let mut interrupted = Campaign::new(kvm_factory(), &cfg);
        interrupted.set_checkpoint(&dir, 1);
        interrupted.run_hours(2);
        // The "kill": every in-memory structure is lost; only the
        // hour-2 checkpoint on disk survives.
        drop(interrupted);

        let mut resumed =
            Campaign::resume_from_checkpoint(kvm_factory(), &cfg, &dir).expect("resume");
        assert_eq!(resumed.hours_done(), 2, "resume continues at hour 2");
        resumed.run_hours(cfg.hours);
        let result = resumed.into_result();
        assert_eq!(
            result, baseline,
            "kill+resume must converge to the uninterrupted result"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_seed_mismatch_and_missing_dirs() {
        let dir = std::env::temp_dir().join(format!(
            "nf-checkpoint-guard-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 2, 5).with_execs_per_hour(20);
        assert!(
            Campaign::resume_from_checkpoint(kvm_factory(), &cfg, &dir).is_err(),
            "missing checkpoint dir must fail loudly"
        );
        let mut campaign = Campaign::new(kvm_factory(), &cfg);
        campaign.set_checkpoint(&dir, 1);
        campaign.run_hours(1);
        let other = CampaignConfig::necofuzz(CpuVendor::Intel, 2, 6).with_execs_per_hour(20);
        assert!(
            Campaign::resume_from_checkpoint(kvm_factory(), &other, &dir).is_err(),
            "a different seed is a different stream, not a continuation"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_checkpoints_that_do_not_fit_the_config() {
        let dir = std::env::temp_dir().join(format!(
            "nf-checkpoint-fit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = |hours, eph| {
            CampaignConfig::necofuzz(CpuVendor::Intel, hours, 5).with_execs_per_hour(eph)
        };
        let resume =
            |cfg: &CampaignConfig| Campaign::resume_from_checkpoint(kvm_factory(), cfg, &dir);
        let rejected = |result: std::io::Result<Campaign>| {
            result.err().map(|e| e.kind()) == Some(std::io::ErrorKind::InvalidInput)
        };

        // A checkpoint at hour 2 fits a 2-hour budget (already
        // complete) but not a 1-hour one, which it has overrun.
        let mut campaign = Campaign::new(kvm_factory(), &cfg(4, 20));
        campaign.set_checkpoint(&dir, 1);
        campaign.run_hours(2);
        assert!(
            rejected(resume(&cfg(1, 20))),
            "hour 2 is past a 1-hour budget"
        );
        assert!(resume(&cfg(2, 20)).expect("fits").is_complete());

        // 30 execs into an hour fits 40 execs per hour, not 30 or 20:
        // `run_hours` runs the hour's `execs_per_hour - hour_execs`.
        let mut campaign = Campaign::new(kvm_factory(), &cfg(4, 40));
        campaign.run_execs(30);
        crate::checkpoint::write_checkpoint(&campaign, &dir).expect("checkpoint mid-hour");
        for eph in [30, 20] {
            assert!(
                rejected(resume(&cfg(4, eph))),
                "30 execs into a {eph}-exec hour"
            );
        }
        let mut resumed = resume(&cfg(4, 40)).expect("fits");
        resumed.run_hours(4);
        assert_eq!(
            resumed.into_result(),
            run_campaign(kvm_factory(), &cfg(4, 40))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn huge_hour_budgets_start_without_reserving_every_hour() {
        // A sample and a corpus mark per budgeted hour, reserved up
        // front, would be a 68 GB request here.
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, u32::MAX, 2);
        let mut campaign = Campaign::new(kvm_factory(), &cfg);
        campaign.run_execs(10);
        assert_eq!(campaign.execs(), 10);
        assert_eq!(campaign.hours_done(), 0);
        assert!(!campaign.is_complete());
    }

    #[test]
    fn into_result_runs_remaining_budget() {
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 3, 1).with_execs_per_hour(20);
        let partial = Campaign::new(kvm_factory(), &cfg);
        let result = partial.into_result();
        assert_eq!(result.execs, 60, "unfinished budget must be run");
        assert_eq!(result.hourly.len(), 3);
    }

    #[test]
    fn synced_group_members_share_corpus_entries() {
        let mk = |seed| {
            CampaignConfig::necofuzz(CpuVendor::Intel, 4, seed)
                .with_execs_per_hour(40)
                .with_mode(Mode::Guided)
                .with_sync_interval(1)
        };
        let members = (0..3).map(|s| (kvm_factory(), mk(s))).collect();
        let results = run_campaign_group(members);
        assert_eq!(results.len(), 3);
        assert!(
            results.iter().any(|r| r.adopted > 0),
            "guided siblings must adopt at least one entry: {:?}",
            results.iter().map(|r| r.adopted).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unsynced_group_is_bit_identical_to_lone_campaigns() {
        let mk = |seed, interval: u32| {
            CampaignConfig::necofuzz(CpuVendor::Intel, 3, seed)
                .with_execs_per_hour(30)
                .with_mode(Mode::Guided)
                .with_sync_interval(interval)
        };
        let lone: Vec<CampaignResult> = (0..2)
            .map(|s| run_campaign(kvm_factory(), &mk(s, 0)))
            .collect();
        // interval == 0: never sync.
        let group = run_campaign_group((0..2).map(|s| (kvm_factory(), mk(s, 0))).collect());
        for (worker, (g, l)) in group.iter().zip(&lone).enumerate() {
            assert_eq!(g.hourly, l.hourly, "worker {worker} diverged");
            assert_eq!(g.finds, l.finds);
            assert_eq!(g.lines, l.lines);
            assert_eq!(g.execs, l.execs);
            assert_eq!(g.adopted, 0);
        }
    }

    #[test]
    fn zero_exec_synced_groups_tick_every_hour_like_lone_campaigns() {
        let mk = |seed| {
            CampaignConfig::necofuzz(CpuVendor::Intel, 3, seed)
                .with_execs_per_hour(0)
                .with_sync_interval(1)
        };
        let mut seen = Vec::new();
        let group = run_campaign_group_observed(
            (0..2).map(|s| (kvm_factory(), mk(s))).collect(),
            |members| seen.push(members.iter().map(Campaign::hours_done).collect::<Vec<_>>()),
        );
        assert_eq!(
            seen,
            vec![vec![1, 1], vec![2, 2], vec![3, 3]],
            "the observer must see hours 1..=3 tick"
        );
        for (worker, g) in group.iter().enumerate() {
            let lone = run_campaign(kvm_factory(), &mk(worker as u64));
            assert_eq!(g.hourly, lone.hourly, "worker {worker} sampled differently");
            assert_eq!(g.final_coverage, lone.final_coverage);
            assert_eq!(g.lines, lone.lines);
            assert_eq!(g.finds, lone.finds);
            assert_eq!(g.alarms, lone.alarms);
            assert_eq!((g.execs, g.adopted), (0, 0));
        }
    }
}
