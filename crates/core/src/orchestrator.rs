//! Parallel campaign orchestrator: plans a grid of campaigns and fans
//! them out over a worker pool.
//!
//! The paper's evaluation is a grid of *independent* campaigns — five
//! seeds × {Intel, AMD} × {KVM, Xen, VirtualBox} × component masks,
//! each 24–48 virtual hours (§5.1). Every campaign is a pure function
//! of its [`CampaignConfig`], so the grid parallelizes perfectly:
//!
//! - [`CampaignPlan`] enumerates the cartesian product of backends ×
//!   vendors × modes × masks × seeds in a **deterministic order**;
//! - [`CampaignExecutor`] runs the jobs on a `std::thread` pool
//!   (`jobs(n)`, default = available parallelism) and returns results
//!   **in plan order**, so output is byte-identical to a serial run;
//! - [`SyncGroup`] is the corpus-sharing seam: when a plan's base
//!   config sets a `sync_interval`, grid cells that share (backend,
//!   vendor, mode, mask, budget) gossip their corpora across seeds —
//!   the group becomes one scheduling unit whose members interleave
//!   one execution at a time, so plan-order determinism and the
//!   serial==parallel guarantee survive the sharing;
//! - [`Task`] is the generic unit the executor schedules — baseline
//!   tools (Syzkaller, IRIS, the test suites) join the same pool via
//!   [`CampaignExecutor::execute`].
//!
//! Determinism is preserved because nothing is shared *between
//! scheduling units*: an unsynced job owns its hypervisor, fuzzer, and
//! agent; a sync group owns all of its members and steps them, and
//! their gossip, in worker-id order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use nf_fuzz::{Mode, MutationStrategy};
use nf_hv::{HvConfig, L0Hypervisor};
use nf_x86::CpuVendor;

use crate::agent::ComponentMask;
use crate::campaign::{run_campaign, run_campaign_group_observed, CampaignConfig, CampaignResult};
use crate::differential::{backend_maker, OracleMode};

/// A hypervisor factory shareable across worker threads.
pub type SharedFactory = Arc<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor> + Send + Sync>;

/// A named hypervisor backend of the plan grid.
#[derive(Clone)]
pub struct Backend {
    name: String,
    factory: SharedFactory,
}

impl Backend {
    /// A backend built from a factory closure.
    pub fn new<F>(name: impl Into<String>, factory: F) -> Self
    where
        F: Fn(HvConfig) -> Box<dyn L0Hypervisor> + Send + Sync + 'static,
    {
        Backend {
            name: name.into(),
            factory: Arc::new(factory),
        }
    }

    /// The backend the backend table holds under `name` (see
    /// [`crate::differential::backend_factory`]).
    pub fn named(name: &str) -> Option<Self> {
        let make = backend_maker(name)?;
        Some(Backend::new(name, move |cfg| make()(cfg)))
    }

    /// The backend's display name (`vkvm`, `vxen`, `vvbox`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adapts the shared factory to the boxed form `run_campaign` takes.
    pub fn factory(&self) -> Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>> {
        let f = Arc::clone(&self.factory);
        Box::new(move |cfg| f(cfg))
    }
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backend").field("name", &self.name).finish()
    }
}

/// One scheduled campaign: a backend plus its full configuration.
#[derive(Debug, Clone)]
pub struct CampaignJob {
    /// The hypervisor under test.
    pub backend: Backend,
    /// The campaign configuration (vendor, seed, mode, mask, budget).
    pub cfg: CampaignConfig,
}

impl CampaignJob {
    /// A human-readable label (`vkvm/Intel/unguided/seed3`).
    pub fn label(&self) -> String {
        format!("{}/seed{}", self.label_without_seed(), self.cfg.seed)
    }

    /// The label's seed-independent prefix (`vkvm/Intel/unguided`) —
    /// the display form of the job's grid cell. A cell with a non-zero
    /// `sync_interval` carries its `/async-<topology>` tag here; the
    /// label a run prints is [`SyncGroup::label`], which drops the tag
    /// when the cell's group has one member and so never syncs.
    pub fn label_without_seed(&self) -> String {
        self.cell_label(self.cfg.sync_interval > 0)
    }

    /// The cell label, with the sync tag when `synced`.
    fn cell_label(&self, synced: bool) -> String {
        let mode = match self.cfg.mode {
            Mode::Guided => "guided",
            Mode::Unguided => "unguided",
        };
        let mask = if self.cfg.mask == ComponentMask::ALL {
            String::new()
        } else {
            format!(
                "/h{}v{}c{}",
                u8::from(self.cfg.mask.harness),
                u8::from(self.cfg.mask.validator),
                u8::from(self.cfg.mask.configurator)
            )
        };
        // Havoc (the default) stays unlabeled so existing labels — and
        // the determinism suites diffing them — are unchanged.
        let strategy = match self.cfg.strategy {
            MutationStrategy::Havoc => "",
            MutationStrategy::Structured => "/structured",
        };
        // Sanitizer mode (the default) likewise stays unlabeled.
        let oracle = match self.cfg.oracle {
            OracleMode::Sanitizer => String::new(),
            OracleMode::Differential => format!("/diff[{}]", self.cfg.diff_backends.join("+")),
        };
        // Unsynced cells stay unlabeled; synced cells carry their
        // gossip topology, which also keys them into distinct sync
        // groups via `cell_key`.
        let sync = if synced {
            format!("/async-{}", self.cfg.sync_topology)
        } else {
            String::new()
        };
        format!(
            "{}/{}/{mode}{mask}{strategy}{oracle}{sync}",
            self.backend.name, self.cfg.vendor
        )
    }

    /// The sync-group identity: every axis except the seed, including
    /// the budget (members step through the same exec schedule).
    fn cell_key(&self) -> String {
        format!(
            "{}|{}h|{}eph|sync{}",
            self.label_without_seed(),
            self.cfg.hours,
            self.cfg.execs_per_hour,
            self.cfg.sync_interval
        )
    }

    /// Runs the campaign to completion on the calling thread.
    pub fn run(&self) -> CampaignResult {
        run_campaign(self.backend.factory(), &self.cfg)
    }
}

/// A cartesian grid of campaigns: backends × vendors × modes × masks ×
/// seeds, fanned out from one base [`CampaignConfig`].
///
/// Every other knob — budget, sync, strategy, oracle, fault
/// plan — is the base config's, declared once there. Each axis
/// defaults to the base's own value, so a plan with one backend and no
/// axis set is exactly one job running the base config.
///
/// The grid expands in a fixed nesting order (backend, then vendor,
/// then mode, then mask, then seed), so a plan is a deterministic,
/// reproducible description of an experiment — the executor's results
/// come back in exactly this order regardless of worker count.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    base: CampaignConfig,
    backends: Vec<Backend>,
    vendors: Vec<CpuVendor>,
    modes: Vec<Mode>,
    masks: Vec<ComponentMask>,
    seeds: Vec<u64>,
}

impl CampaignPlan {
    /// A plan fanning `base` out; every axis starts at the base's own
    /// value and the backend list starts empty.
    pub fn new(base: CampaignConfig) -> Self {
        CampaignPlan {
            backends: Vec::new(),
            vendors: vec![base.vendor],
            modes: vec![base.mode],
            masks: vec![base.mask],
            seeds: vec![base.seed],
            base,
        }
    }

    /// Adds a backend to the grid.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backends.push(backend);
        self
    }

    /// Sets the vendor axis.
    pub fn vendors(mut self, vendors: &[CpuVendor]) -> Self {
        self.vendors = vendors.to_vec();
        self
    }

    /// Sets the feedback-mode axis.
    pub fn modes(mut self, modes: &[Mode]) -> Self {
        self.modes = modes.to_vec();
        self
    }

    /// Sets the component-mask axis (Table 3's ablation grid).
    pub fn masks(mut self, masks: &[ComponentMask]) -> Self {
        self.masks = masks.to_vec();
        self
    }

    /// Sets the seed axis (the paper uses five runs, seeds 0..5).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Number of jobs the grid expands to.
    pub fn len(&self) -> usize {
        self.backends.len()
            * self.vendors.len()
            * self.modes.len()
            * self.masks.len()
            * self.seeds.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into jobs, in deterministic plan order.
    pub fn jobs(&self) -> Vec<CampaignJob> {
        let mut jobs = Vec::with_capacity(self.len());
        for backend in &self.backends {
            for &vendor in &self.vendors {
                for &mode in &self.modes {
                    for &mask in &self.masks {
                        for &seed in &self.seeds {
                            jobs.push(CampaignJob {
                                backend: backend.clone(),
                                cfg: CampaignConfig {
                                    vendor,
                                    seed,
                                    mode,
                                    mask,
                                    ..self.base.clone()
                                },
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// A scheduling unit of corpus-sharing campaigns: the jobs of one grid
/// cell (same backend, vendor, mode, mask, and budget) across
/// seeds, with their plan indices.
///
/// A group runs as **one** pool task: its members interleave one
/// execution at a time in worker-id (= plan) order and gossip corpus
/// deltas over their topology
/// ([`crate::campaign::run_campaign_group`]). Because the group — not
/// the member — is the unit the executor schedules, host parallelism
/// cannot reorder the exchanges: plan-order determinism and the
/// serial==parallel guarantee hold with sharing enabled.
pub struct SyncGroup {
    jobs: Vec<(usize, CampaignJob)>,
}

impl SyncGroup {
    /// Partitions jobs into scheduling units, preserving plan order:
    /// jobs with `sync_interval == 0` become singleton groups (they run
    /// like isolated campaigns, so coalescing them would only
    /// serialize parallelizable work); syncing jobs coalesce per grid
    /// cell in first-occurrence order.
    pub fn partition(jobs: Vec<CampaignJob>) -> Vec<SyncGroup> {
        let mut groups: Vec<SyncGroup> = Vec::new();
        let mut cell_group: BTreeMap<String, usize> = BTreeMap::new();
        for (index, job) in jobs.into_iter().enumerate() {
            if job.cfg.sync_interval == 0 {
                groups.push(SyncGroup {
                    jobs: vec![(index, job)],
                });
                continue;
            }
            let key = job.cell_key();
            match cell_group.get(&key) {
                Some(&g) => groups[g].jobs.push((index, job)),
                None => {
                    cell_group.insert(key, groups.len());
                    groups.push(SyncGroup {
                        jobs: vec![(index, job)],
                    });
                }
            }
        }
        groups
    }

    /// Number of member campaigns.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the group has no members.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// `true` when the members will actually exchange corpora: more
    /// than one member and a non-zero `sync_interval`.
    pub fn is_synced(&self) -> bool {
        self.jobs.len() > 1 && self.jobs[0].1.cfg.sync_interval > 0
    }

    /// Display label: the cell with a member count for a synced group,
    /// else the single job's label. Only a synced group's label carries
    /// the `/async-<topology>` tag: a one-member group runs alone
    /// whatever its interval.
    pub fn label(&self) -> String {
        let job = &self.jobs[0].1;
        if self.is_synced() {
            format!(
                "sync[{} x{} seeds]",
                job.label_without_seed(),
                self.jobs.len()
            )
        } else {
            format!("{}/seed{}", job.cell_label(false), job.cfg.seed)
        }
    }

    /// Runs the group to completion on the calling thread; returns
    /// `(plan index, result)` pairs in member order.
    pub fn run(self) -> Vec<(usize, CampaignResult)> {
        self.run_observed(|_| {})
    }

    /// [`run`](Self::run) with a per-hour observer over the member
    /// campaigns (see [`run_campaign_group_observed`]).
    pub fn run_observed(
        self,
        observe: impl FnMut(&[crate::campaign::Campaign]),
    ) -> Vec<(usize, CampaignResult)> {
        let (indices, members): (Vec<usize>, Vec<_>) = self
            .jobs
            .into_iter()
            .map(|(index, job)| (index, (job.backend.factory(), job.cfg)))
            .unzip();
        indices
            .into_iter()
            .zip(run_campaign_group_observed(members, observe))
            .collect()
    }
}

/// A progress event, delivered once per completed job.
#[derive(Debug, Clone)]
pub struct Progress {
    /// Plan index of the job that just finished.
    pub index: usize,
    /// Total jobs in this execution.
    pub total: usize,
    /// Jobs completed so far (including this one); reaches `total`.
    pub completed: usize,
    /// The job's label.
    pub label: String,
    /// One-line result summary (coverage and finds for campaigns).
    pub summary: String,
}

/// A generic unit of work the executor can schedule: baseline runs
/// (Syzkaller, IRIS, the fixed suites) join campaigns on one pool
/// through this type.
pub struct Task<T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send>,
    retry: Option<Box<dyn Fn() -> T + Send>>,
    summarize: Box<dyn Fn(&T) -> String + Send>,
}

impl<T> Task<T> {
    /// A task running `run`, reported under `label`.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Task {
            label: label.into(),
            run: Box::new(run),
            retry: None,
            summarize: Box::new(|_| String::new()),
        }
    }

    /// Attaches a restart path: if `run` (or a previous retry) panics,
    /// the executor discards the wreckage and calls `retry` on the
    /// same worker — up to [`MAX_TASK_RESTARTS`] times, after which
    /// the panic propagates. Campaigns are pure functions of their
    /// config, so a retry that rebuilds from config is a
    /// *deterministic* restart: the rerun's result is identical to
    /// what the panicked attempt would have produced.
    pub fn with_retry(mut self, retry: impl Fn() -> T + Send + 'static) -> Self {
        self.retry = Some(Box::new(retry));
        self
    }

    /// Attaches a result summarizer for progress events.
    pub fn with_summary(mut self, summarize: impl Fn(&T) -> String + Send + 'static) -> Self {
        self.summarize = Box::new(summarize);
        self
    }
}

/// How many times the executor restarts a panicked task before letting
/// the panic propagate: transient wreckage (a poisoned allocation, a
/// fault-injection test harness gone wrong) gets a second chance; a
/// deterministic crash still fails loudly instead of looping.
pub const MAX_TASK_RESTARTS: u32 = 2;

type ProgressFn = dyn Fn(&Progress) + Send + Sync;
type EpochFn = dyn Fn(&EpochProgress) + Send + Sync;

/// An hourly heartbeat from a running [`SyncGroup`]: synced fleets are
/// one scheduling unit, so without this a multi-hour fleet would emit
/// no output until every member finished.
#[derive(Debug, Clone)]
pub struct EpochProgress {
    /// The group's display label.
    pub label: String,
    /// Virtual hours completed by every member.
    pub hours_done: u32,
    /// The group's total virtual-hour budget.
    pub hours_total: u32,
    /// Best member coverage fraction so far.
    pub best_coverage: f64,
}

/// Fans campaign jobs out over a `std::thread` worker pool.
///
/// Results always come back in submission order; worker count only
/// changes wall-clock time, never output. Campaigns are seeded
/// per-job, so `jobs(32)` and `jobs(1)` produce identical results.
pub struct CampaignExecutor {
    workers: usize,
    progress: Option<Arc<ProgressFn>>,
    epoch: Option<Arc<EpochFn>>,
    /// Panicked tasks restarted so far (across every `run`/`execute`
    /// call on this executor) — the supervision observability counter.
    restarts: std::sync::atomic::AtomicU64,
}

impl CampaignExecutor {
    /// An executor sized to the host's available parallelism.
    pub fn new() -> Self {
        CampaignExecutor {
            workers: default_jobs(),
            progress: None,
            epoch: None,
            restarts: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Panicked tasks this executor has restarted (a worker panic with
    /// a retry path attached counts once per restart attempt).
    pub fn worker_restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// Sets the worker-pool width; `0` restores the default (all
    /// available cores).
    pub fn jobs(mut self, n: usize) -> Self {
        self.workers = if n == 0 { default_jobs() } else { n };
        self
    }

    /// The configured worker-pool width.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Registers a per-job completion callback.
    ///
    /// The callback runs on worker threads, possibly concurrently with
    /// itself; `completed` is the only cross-job field.
    pub fn on_progress(mut self, f: impl Fn(&Progress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Registers an hourly heartbeat for multi-member [`SyncGroup`]s
    /// (singleton groups stay silent — they already report through
    /// [`on_progress`](Self::on_progress) at a useful cadence). Runs on
    /// worker threads; purely observational, never affects results.
    pub fn on_epoch(mut self, f: impl Fn(&EpochProgress) + Send + Sync + 'static) -> Self {
        self.epoch = Some(Arc::new(f));
        self
    }

    /// Runs every job of `plan`; results are in plan order.
    pub fn run(&self, plan: &CampaignPlan) -> Vec<CampaignResult> {
        self.run_jobs(plan.jobs())
    }

    /// Runs explicit campaign jobs; results are in submission order.
    ///
    /// Jobs with a non-zero `sync_interval` are partitioned into
    /// [`SyncGroup`]s first — each group is one scheduling unit, so
    /// corpus sharing cannot perturb determinism. Unsynced jobs run
    /// exactly as before, one task each.
    pub fn run_jobs(&self, jobs: Vec<CampaignJob>) -> Vec<CampaignResult> {
        let total = jobs.len();
        let tasks: Vec<Task<Vec<(usize, CampaignResult)>>> = SyncGroup::partition(jobs)
            .into_iter()
            .map(|group| {
                let epoch = self.epoch.clone().filter(|_| group.len() > 1);
                let label = group.label();
                let task_label = label.clone();
                // The restart path: campaigns are pure functions of
                // their configs, so re-running the whole group from a
                // cloned job list reproduces exactly what the panicked
                // attempt would have returned (the hourly heartbeat is
                // skipped on reruns — it is observational only).
                let retry_jobs = group.jobs.clone();
                let run = move || match epoch {
                    Some(epoch) => group.run_observed(|members| {
                        epoch(&EpochProgress {
                            label: label.clone(),
                            hours_done: members[0].hours_done(),
                            hours_total: members[0].hours_total(),
                            best_coverage: members
                                .iter()
                                .map(crate::campaign::Campaign::coverage_fraction)
                                .fold(0.0, f64::max),
                        });
                    }),
                    None => group.run(),
                };
                Task::new(task_label, run)
                    .with_retry(move || {
                        SyncGroup {
                            jobs: retry_jobs.clone(),
                        }
                        .run()
                    })
                    .with_summary(|results: &Vec<(usize, CampaignResult)>| {
                        match results.as_slice() {
                            [(_, r)] => format!(
                                "cov {:.1}%, {} finds",
                                r.final_coverage * 100.0,
                                r.finds.len()
                            ),
                            many => {
                                let adopted: u64 = many.iter().map(|(_, r)| r.adopted).sum();
                                let best = many
                                    .iter()
                                    .map(|(_, r)| r.final_coverage)
                                    .fold(0.0, f64::max);
                                format!(
                                    "{} members, best cov {:.1}%, {adopted} adoptions",
                                    many.len(),
                                    best * 100.0
                                )
                            }
                        }
                    })
            })
            .collect();
        let mut slots: Vec<Option<CampaignResult>> = (0..total).map(|_| None).collect();
        for (index, result) in self.execute(tasks).into_iter().flatten() {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("job produced no result"))
            .collect()
    }

    /// Runs arbitrary tasks on the pool; results are in submission
    /// order. This is the seam baseline tools share with campaigns.
    pub fn execute<T: Send>(&self, tasks: Vec<Task<T>>) -> Vec<T> {
        let total = tasks.len();
        let workers = self.workers.min(total).max(1);
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let queue: Vec<Mutex<Option<Task<T>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let task = queue[index]
                        .lock()
                        .expect("task queue poisoned")
                        .take()
                        .expect("task claimed twice");
                    // Worker supervision: a panicking task is caught,
                    // its wreckage dropped whole, and — when the task
                    // carries a retry path — deterministically
                    // restarted on this worker. AssertUnwindSafe is
                    // sound here because each task owns all of its
                    // state: nothing half-mutated survives the drop.
                    let label = task.label.clone();
                    let retry = task.retry;
                    let mut outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(task.run));
                    let mut attempt = 0;
                    let result = loop {
                        match outcome {
                            Ok(result) => break result,
                            Err(payload) => {
                                let Some(retry) = &retry else {
                                    std::panic::resume_unwind(payload);
                                };
                                attempt += 1;
                                if attempt > MAX_TASK_RESTARTS {
                                    std::panic::resume_unwind(payload);
                                }
                                eprintln!(
                                    "necofuzz: worker task {label:?} panicked; \
                                     restarting ({attempt}/{MAX_TASK_RESTARTS})"
                                );
                                self.restarts.fetch_add(1, Ordering::SeqCst);
                                outcome =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(retry));
                            }
                        }
                    };
                    if let Some(progress) = &self.progress {
                        progress(&Progress {
                            index,
                            total,
                            completed: completed.fetch_add(1, Ordering::SeqCst) + 1,
                            label: task.label.clone(),
                            summary: (task.summarize)(&result),
                        });
                    }
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without storing a result")
            })
            .collect()
    }
}

impl Default for CampaignExecutor {
    fn default() -> Self {
        CampaignExecutor::new()
    }
}

/// The default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_hv::{Vkvm, Vxen};

    fn small_base() -> CampaignConfig {
        CampaignConfig::necofuzz(CpuVendor::Intel, 2, 0).with_execs_per_hour(30)
    }

    fn small_plan_of(base: CampaignConfig) -> CampaignPlan {
        CampaignPlan::new(base)
            .backend(Backend::new("vkvm", |c| Box::new(Vkvm::new(c))))
            .backend(Backend::new("vxen", |c| Box::new(Vxen::new(c))))
            .vendors(&[CpuVendor::Intel, CpuVendor::Amd])
            .seeds(0..3)
    }

    fn small_plan() -> CampaignPlan {
        small_plan_of(small_base())
    }

    #[test]
    fn a_plan_without_axes_is_its_base_config() {
        let base = CampaignConfig::necofuzz(CpuVendor::Amd, 3, 11)
            .with_execs_per_hour(17)
            .with_mode(Mode::Guided)
            .with_strategy(MutationStrategy::Structured)
            .with_sync_interval(2)
            .with_fault_plan(nf_hv::FaultPlan::uniform(4, 0.02))
            .with_watchdog_fuel(999);
        let jobs = CampaignPlan::new(base.clone())
            .backend(Backend::named("vkvm").expect("vkvm is in the table"))
            .jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(format!("{:?}", jobs[0].cfg), format!("{base:?}"));
    }

    #[test]
    fn plan_expands_in_deterministic_order() {
        let plan = small_plan();
        assert_eq!(plan.len(), 12);
        let labels: Vec<String> = plan.jobs().iter().map(|j| j.label()).collect();
        assert_eq!(labels[0], "vkvm/Intel/unguided/seed0");
        assert_eq!(labels[1], "vkvm/Intel/unguided/seed1");
        assert_eq!(labels[3], "vkvm/AMD/unguided/seed0");
        assert_eq!(labels[6], "vxen/Intel/unguided/seed0");
        // Expansion is stable across calls.
        let again: Vec<String> = plan.jobs().iter().map(|j| j.label()).collect();
        assert_eq!(labels, again);
    }

    #[test]
    fn parallel_results_match_serial_exactly() {
        let plan = small_plan();
        let serial = CampaignExecutor::new().jobs(1).run(&plan);
        let parallel = CampaignExecutor::new().jobs(4).run(&plan);
        assert_eq!(serial.len(), parallel.len());
        for (index, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s, p, "job {index} diverged between jobs=1 and jobs=4");
        }
    }

    #[test]
    fn progress_fires_once_per_job_and_reaches_total() {
        let plan = small_plan();
        let events: Arc<Mutex<Vec<Progress>>> = Arc::default();
        let sink = Arc::clone(&events);
        let results = CampaignExecutor::new()
            .jobs(4)
            .on_progress(move |p| sink.lock().unwrap().push(p.clone()))
            .run(&plan);
        assert_eq!(results.len(), plan.len());
        let events = events.lock().unwrap();
        assert_eq!(events.len(), plan.len(), "one event per job");
        let mut indices: Vec<usize> = events.iter().map(|p| p.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..plan.len()).collect::<Vec<_>>());
        assert!(events.iter().any(|p| p.completed == plan.len()));
        assert!(events.iter().all(|p| p.total == plan.len()));
        assert!(events.iter().all(|p| p.summary.contains("cov")));
    }

    #[test]
    fn generic_tasks_preserve_submission_order() {
        let tasks: Vec<Task<usize>> = (0..64)
            .map(|i| Task::new(format!("t{i}"), move || i * i))
            .collect();
        let results = CampaignExecutor::new().jobs(8).execute(tasks);
        assert_eq!(results, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sync_groups_partition_per_cell_in_plan_order() {
        let plan = small_plan_of(small_base().with_sync_interval(1));
        let groups = SyncGroup::partition(plan.jobs());
        // 2 backends × 2 vendors = 4 cells of 3 seeds each.
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|g| g.len() == 3 && g.is_synced()));
        assert!(groups[0].label().starts_with("sync[vkvm/Intel"));
        // Without an interval every job is its own unit.
        let solo = SyncGroup::partition(small_plan().jobs());
        assert_eq!(solo.len(), 12);
        assert!(solo.iter().all(|g| !g.is_synced()));
    }

    #[test]
    fn synced_grid_is_identical_serial_and_parallel() {
        let plan = small_plan_of(small_base().with_sync_interval(1)).modes(&[Mode::Guided]);
        let serial = CampaignExecutor::new().jobs(1).run(&plan);
        let parallel = CampaignExecutor::new().jobs(8).run(&plan);
        assert_eq!(serial.len(), parallel.len());
        for (index, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s, p,
                "synced job {index} diverged between jobs=1 and jobs=8"
            );
        }
        assert!(
            serial.iter().any(|r| r.adopted > 0),
            "the grid must actually exchange corpus entries"
        );
    }

    #[test]
    fn structured_grid_is_labeled_and_identical_serial_and_parallel() {
        let plan = small_plan_of(small_base().with_strategy(MutationStrategy::Structured))
            .seeds(0..2)
            .modes(&[Mode::Guided]);
        let labels: Vec<String> = plan.jobs().iter().map(|j| j.label()).collect();
        assert!(
            labels.iter().all(|l| l.contains("/structured/")),
            "structured cells must be distinguishable: {labels:?}"
        );
        let serial = CampaignExecutor::new().jobs(1).run(&plan);
        let parallel = CampaignExecutor::new().jobs(4).run(&plan);
        for (index, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s, p, "structured job {index} diverged across jobs=1/4");
        }
    }

    #[test]
    fn panicked_tasks_with_a_retry_path_restart_deterministically() {
        use std::sync::atomic::AtomicU64;
        // Task 3 panics on its first attempt and computes normally on
        // retry; every other task is healthy. The pool must deliver
        // the full in-order result set and count exactly one restart.
        let trips = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Task<usize>> = (0..8)
            .map(|i| {
                let trips = Arc::clone(&trips);
                Task::new(format!("t{i}"), move || {
                    if i == 3 && trips.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("injected worker death");
                    }
                    i * 10
                })
                .with_retry(move || i * 10)
            })
            .collect();
        let executor = CampaignExecutor::new().jobs(4);
        let results = executor.execute(tasks);
        assert_eq!(results, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(executor.worker_restarts(), 1);
    }

    #[test]
    fn retry_exhaustion_and_retryless_panics_propagate() {
        // A task that keeps dying must not loop forever — after
        // MAX_TASK_RESTARTS attempts the panic propagates to the
        // caller. Same for a panic with no retry path at all.
        let hopeless: Vec<Task<usize>> =
            vec![Task::new("doomed", || panic!("always")).with_retry(|| panic!("still dead"))];
        let executor = CampaignExecutor::new().jobs(1);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| executor.execute(hopeless)));
        assert!(outcome.is_err(), "exhausted retries must propagate");
        assert_eq!(executor.worker_restarts() as u32, MAX_TASK_RESTARTS);

        let bare: Vec<Task<usize>> = vec![Task::new("no-retry", || panic!("gone"))];
        let executor = CampaignExecutor::new().jobs(1);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| executor.execute(bare)));
        assert!(outcome.is_err(), "retryless panics must propagate");
        assert_eq!(executor.worker_restarts(), 0);
    }

    #[test]
    fn campaign_jobs_carry_a_retry_path_through_run_jobs() {
        // run_jobs attaches a rebuild-from-config retry to every
        // scheduled group; this test can't crash a real campaign
        // mid-flight, but it can pin the deterministic-restart
        // contract the retry path rests on: re-running a cloned job
        // list reproduces the original results exactly.
        let plan = small_plan().seeds(0..1);
        let jobs = plan.jobs();
        let first = CampaignExecutor::new().jobs(2).run_jobs(jobs.clone());
        let second = CampaignExecutor::new().jobs(2).run_jobs(jobs);
        assert_eq!(first, second, "a rebuilt job list must reproduce results");
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        let executor = CampaignExecutor::new().jobs(0);
        assert_eq!(executor.worker_count(), default_jobs());
        assert!(executor.worker_count() >= 1);
    }
}
