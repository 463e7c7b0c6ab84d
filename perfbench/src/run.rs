//! The untraced run: end-to-end metrics and output checks.
//!
//! A run holds a fixed number of campaigns, each with its own seed
//! derived from the run's seed, and runs the whole set a fixed number
//! of times (passes). Each campaign runs on the product path the
//! `necofuzz` CLI takes: `Campaign` stepped one virtual hour at a
//! time, the resume through `Campaign::resume_from_checkpoint`, and
//! the fleet through `run_campaign_group_observed`.
//!
//! Campaigns are deterministic, so every pass repeats the same work;
//! the run checks that it does. Each virtual hour of each campaign is
//! timed in every pass and counts at its fastest. On a shared host the
//! same work swings by 30% from one second to the next, and that swing
//! only ever adds time, so the fastest of passes spread over the run
//! reads what the program costs rather than what the neighbours did.
//! Set-up is timed in slices between campaigns for the same reason.
//! Slower drift, over minutes, moves all code alike; the run samples a
//! fixed reference kernel between campaigns ([`HostSpeed`]) and reports
//! its timings in reference-host seconds, with the wall-clock readings
//! printed beside them.
//!
//! A campaign's result is checked and reduced as soon as it ends, so
//! the process never holds more than one campaign's state and
//! `peak_rss_mib` stays the peak of one campaign.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use necofuzz::campaign::{run_campaign_group_observed, Campaign, CampaignResult};
use necofuzz::checkpoint::{read_checkpoint, write_checkpoint};

use crate::host::{peak_rss_mib, HostSample, HostSpeed};
use crate::stats::{mean, median};
use crate::workload::{Spec, Workload};

/// Wall seconds of repeated constructions `setup_s` is the median of,
/// spread over the run.
const SETUP_SECONDS: f64 = 1.0;
/// Wall seconds of host-speed samples, spread over the run.
const SPEED_SECONDS: f64 = 0.5;

/// Operations attempted and failed, tallied per kind.
#[derive(Debug, Default)]
pub struct Checks {
    tally: BTreeMap<String, (u64, u64)>,
    notes: Vec<String>,
}

impl Checks {
    /// Counts `expected` operations of kind `what`, of which `done`
    /// succeeded.
    pub fn ops(&mut self, what: &str, expected: u64, done: u64) {
        let failed = expected.abs_diff(done);
        let entry = self.tally.entry(what.to_string()).or_default();
        entry.0 += expected;
        entry.1 += failed;
        if failed > 0 {
            self.notes.push(format!("{what}: {done} of {expected}"));
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.ops(what, 1, u64::from(ok));
    }

    /// Operations attempted, over every kind.
    pub fn attempted(&self) -> u64 {
        self.tally.values().map(|t| t.0).sum()
    }

    /// Operations failed, over every kind.
    pub fn failed(&self) -> u64 {
        self.tally.values().map(|t| t.1).sum()
    }

    /// `(attempted, failed)` of one kind; zeros if it never ran.
    pub fn of(&self, what: &str) -> (u64, u64) {
        self.tally.get(what).copied().unwrap_or_default()
    }

    /// One line per failure.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// One metric reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics `BENCHMARK.json` lists (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Diagnostics printed beside the metrics only.
    pub extra: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
}

/// What one campaign (or fleet) measured in one pass.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Wall seconds of each virtual hour of the exec phase.
    pub hour_s: Vec<f64>,
    /// Campaign execs in the exec phase (all members for the fleet).
    pub execs: u64,
    /// Exec-phase hours and execs up to the first hour boundary where
    /// coverage reached the workload's level.
    pub to_level: Option<(usize, u64)>,
    /// The campaign's results (the fleet's eight, in worker order).
    pub results: Vec<CampaignResult>,
}

/// What a campaign's passes must agree on.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    execs: u64,
    to_level: Option<(usize, u64)>,
    coverage: f64,
    finds: usize,
    hourly: Vec<f64>,
}

impl CampaignRun {
    fn outcome(&self) -> Outcome {
        Outcome {
            execs: self.execs,
            to_level: self.to_level,
            coverage: union_coverage(&self.results),
            finds: unique_finds(&self.results),
            hourly: self.results[0].hourly.iter().map(|h| h.coverage).collect(),
        }
    }
}

/// One campaign of a run: its outcome and each exec-phase hour's
/// fastest time over the passes so far.
struct Measured {
    outcome: Outcome,
    best_hour_s: Vec<f64>,
}

impl Measured {
    /// Folds in another pass's timings.
    fn add_pass(&mut self, hour_s: &[f64]) {
        for (best, &s) in self.best_hour_s.iter_mut().zip(hour_s) {
            *best = best.min(s);
        }
    }

    fn exec_s(&self) -> f64 {
        self.best_hour_s.iter().sum()
    }

    /// Seconds and execs to the level. A campaign that never reaches
    /// it counts its whole exec phase, so slower coverage shows as a
    /// longer time rather than as a failed run.
    fn to_level(&self) -> (f64, u64) {
        match self.outcome.to_level {
            Some((hours, execs)) => (self.best_hour_s[..hours].iter().sum(), execs),
            None => (self.exec_s(), self.outcome.execs),
        }
    }
}

/// A working directory inside the benchmark's own tree, removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh directory unique to this process, this call
    /// and `tag`.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Steps `campaign` hour by hour to its budget, timing each hour.
fn step_hours(campaign: &mut Campaign, cov_level: f64) -> (Vec<f64>, u64, Option<(usize, u64)>) {
    let execs_before = campaign.execs();
    let mut hour_s = Vec::new();
    let mut to_level = None;
    let mut last = Instant::now();
    while !campaign.is_complete() {
        campaign.run_hours(1);
        let now = Instant::now();
        hour_s.push((now - last).as_secs_f64());
        last = now;
        if to_level.is_none() && campaign.coverage_fraction() >= cov_level {
            to_level = Some((hour_s.len(), campaign.execs() - execs_before));
        }
    }
    (hour_s, campaign.execs() - execs_before, to_level)
}

/// Runs one campaign of a lone-campaign workload; for `kvm-amd-ckpt`
/// the campaign is the resume from `checkpoint_a` writing hourly
/// checkpoints to `checkpoint_b`.
pub fn run_campaign(
    w: Workload,
    spec: &Spec,
    base_seed: u64,
    ckpt: Option<(&Path, &Path)>,
    checks: &mut Checks,
) -> CampaignRun {
    let cfg = w.config(spec, base_seed);
    let mut campaign = match ckpt {
        Some((a, b)) => {
            let resumed = Campaign::resume_from_checkpoint(w.factory(), &cfg, a);
            checks.check("resume from checkpoint A", resumed.is_ok());
            let mut campaign = resumed.unwrap_or_else(|_| Campaign::new(w.factory(), &cfg));
            campaign.set_checkpoint(b, 1);
            campaign
        }
        None => Campaign::new(w.factory(), &cfg),
    };
    let (hour_s, execs, to_level) = step_hours(&mut campaign, spec.cov_level);
    CampaignRun {
        hour_s,
        execs,
        to_level,
        results: vec![campaign.into_result()],
    }
}

/// Runs one fleet through `run_campaign_group_observed`.
pub fn run_fleet(w: Workload, spec: &Spec, base_seed: u64) -> CampaignRun {
    let mut hour_s = Vec::new();
    let mut to_level = None;
    let mut last = Instant::now();
    let results = run_campaign_group_observed(w.members(spec, base_seed), |members| {
        let now = Instant::now();
        hour_s.push((now - last).as_secs_f64());
        last = now;
        if to_level.is_none()
            && members
                .iter()
                .all(|c| c.coverage_fraction() >= spec.cov_level)
        {
            to_level = Some((hour_s.len(), members.iter().map(Campaign::execs).sum()));
        }
    });
    CampaignRun {
        hour_s,
        execs: results.iter().map(|r| r.execs).sum(),
        to_level,
        results,
    }
}

/// Writes checkpoint A of `base_seed`'s campaign: the state after the
/// first virtual hour.
pub fn write_checkpoint_a(
    w: Workload,
    spec: &Spec,
    base_seed: u64,
    dir: &Path,
) -> std::io::Result<()> {
    let mut campaign = Campaign::new(w.factory(), &w.config(spec, base_seed));
    campaign.run_hours(1);
    write_checkpoint(&campaign, dir)
}

/// The output checks every campaign of every workload passes.
fn check_results(w: Workload, spec: &Spec, run: &CampaignRun, checks: &mut Checks) {
    for r in &run.results {
        checks.ops("execs of the budget", spec.budget(), r.execs);
        let monotone = r.hourly.len() == spec.hours as usize
            && r.hourly.windows(2).all(|h| h[1].coverage >= h[0].coverage);
        checks.check("hourly coverage never drops", monotone);
        let mut ids: Vec<&str> = r.finds.iter().map(|f| f.bug_id.as_str()).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        checks.check("find ids are unique", ids.len() == n);
    }
    if w == Workload::FleetAsync8 {
        let union = union_coverage(&run.results);
        for r in &run.results {
            checks.check(
                "member ends at the fleet's union coverage",
                r.final_coverage == union,
            );
        }
    }
}

/// Coverage fraction of the union of the members' covered lines.
fn union_coverage(results: &[CampaignResult]) -> f64 {
    let mut lines = results[0].lines.clone();
    for r in &results[1..] {
        lines.union_with(&r.lines);
    }
    lines.fraction_of(&results[0].map, results[0].file)
}

/// Distinct bug ids a campaign (or fleet) found.
fn unique_finds(results: &[CampaignResult]) -> usize {
    let mut ids: Vec<&str> = results
        .iter()
        .flat_map(|r| r.finds.iter().map(|f| f.bug_id.as_str()))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// The `kvm-amd-ckpt` persistence checks: the final checkpoint reads
/// back, and it is the last hour's. A failed write only prints a
/// stderr line and stops checkpointing, which would otherwise read as
/// a speed-up.
fn check_final_checkpoint(spec: &Spec, dir: &Path, checks: &mut Checks) {
    let hour = read_checkpoint(dir).map(|(ck, _)| ck.hour);
    checks.check("read the final checkpoint", hour.is_ok());
    checks.check(
        "final checkpoint is the last hour's",
        hour.ok() == Some(spec.hours),
    );
}

/// `w`'s starting state, built as the CLI builds it: the campaign, the
/// resume from checkpoint A (`a`), the primary agent plus the oracle's
/// replay agents, or all eight fleet members.
fn start_state(w: Workload, spec: &Spec, seed0: u64, a: &Path) -> std::io::Result<Vec<Campaign>> {
    let cfg = w.config(spec, seed0);
    match w {
        Workload::KvmIntelHavoc | Workload::XenDiff3 => Ok(vec![Campaign::new(w.factory(), &cfg)]),
        Workload::KvmAmdCkpt => {
            Campaign::resume_from_checkpoint(w.factory(), &cfg, a).map(|c| vec![c])
        }
        Workload::FleetAsync8 => Ok(w
            .members(spec, seed0)
            .into_iter()
            .enumerate()
            .map(|(m, (factory, cfg))| Campaign::with_worker(factory, &cfg, m as u32))
            .collect()),
    }
}

/// Builds `w`'s starting state repeatedly for about `seconds` (at
/// least once), adding each construction's seconds to `samples`; each
/// state is dropped outside the timed interval.
fn time_setup(
    w: Workload,
    spec: &Spec,
    (seed0, a): (u64, &Path),
    seconds: f64,
    samples: &mut Vec<f64>,
    checks: &mut Checks,
) {
    let started = Instant::now();
    let (mut built, mut ok) = (0, 0);
    loop {
        let t = Instant::now();
        let state = start_state(w, spec, seed0, a);
        samples.push(t.elapsed().as_secs_f64());
        built += 1;
        ok += u64::from(state.is_ok());
        drop(state);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    checks.ops("build the starting state", built, ok);
}

/// Runs campaign `k` of the run with seed `seed` on the product path,
/// with its output checks.
fn run_one(
    w: Workload,
    spec: &Spec,
    seed: u64,
    k: usize,
    work: &Path,
    checks: &mut Checks,
) -> std::io::Result<CampaignRun> {
    let base = w.campaign_seed(seed, k);
    let run = match w {
        Workload::FleetAsync8 => run_fleet(w, spec, base),
        Workload::KvmAmdCkpt => {
            // Every pass resumes the same checkpoint A, written once.
            let a = work.join(format!("a{k}"));
            let b = work.join(format!("b{k}"));
            if !a.exists() {
                write_checkpoint_a(w, spec, base, &a)?;
            }
            let run = run_campaign(w, spec, base, Some((&a, &b)), checks);
            check_final_checkpoint(spec, &b, checks);
            // A failed write is already counted; removing B only
            // gives the next pass the same empty directory.
            let _ = std::fs::remove_dir_all(&b);
            run
        }
        _ => run_campaign(w, spec, base, None, checks),
    };
    check_results(w, spec, &run, checks);
    Ok(run)
}

/// The untraced run of `w` with run seed `seed`.
pub fn run_untraced(w: Workload, spec: &Spec, seed: u64) -> std::io::Result<Report> {
    let host_before = HostSample::now();
    let mut checks = Checks::default();
    let work = WorkDir::new(w.name())?;

    // Campaign 0's checkpoint A is also the state the set-up resumes.
    let seed0 = w.campaign_seed(seed, 0);
    let a0 = work.path().join("a0");
    if w == Workload::KvmAmdCkpt {
        write_checkpoint_a(w, spec, seed0, &a0)?;
    }
    let slices = (spec.campaigns * spec.passes) as f64;
    let slice = SETUP_SECONDS / slices;
    let mut setup_samples = Vec::new();
    let mut speed = HostSpeed::default();

    let mut measured: Vec<Measured> = Vec::with_capacity(spec.campaigns);
    for pass in 0..spec.passes {
        for k in 0..spec.campaigns {
            let setup = (seed0, a0.as_path());
            time_setup(w, spec, setup, slice, &mut setup_samples, &mut checks);
            speed.sample(SPEED_SECONDS / slices);
            let run = run_one(w, spec, seed, k, work.path(), &mut checks)?;
            let outcome = run.outcome();
            if pass == 0 {
                measured.push(Measured {
                    outcome,
                    best_hour_s: run.hour_s,
                });
            } else {
                let m = &mut measured[k];
                checks.check(
                    "a pass repeats the campaign's outcome",
                    outcome == m.outcome,
                );
                m.add_pass(&run.hour_s);
            }
        }
    }

    let col = |f: &dyn Fn(&Measured) -> f64| measured.iter().map(f).collect::<Vec<f64>>();
    let rate = median(&mut col(&|m| m.outcome.execs as f64 / m.exec_s()));
    let to_cov = mean(&col(&|m| m.to_level().0));
    let setup = median(&mut setup_samples);
    let factor = speed.factor();
    let metrics = vec![
        metric("execs_per_s", rate / factor, "1/s"),
        metric("time_to_cov_s", to_cov * factor, "s"),
        metric(
            "execs_to_cov",
            mean(&col(&|m| m.to_level().1 as f64)),
            "count",
        ),
        metric(
            "final_coverage",
            mean(&col(&|m| m.outcome.coverage)),
            "fraction",
        ),
        metric(
            "unique_finds",
            mean(&col(&|m| m.outcome.finds as f64)),
            "count",
        ),
        metric("setup_s", setup * factor, "s"),
        metric("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB"),
    ];
    let host = HostSample::now().since(&host_before);
    let at_level = measured.iter().filter(|m| m.outcome.to_level.is_some());
    let extra = vec![
        metric("campaigns", measured.len() as f64, "count"),
        metric("campaigns_at_level", at_level.count() as f64, "count"),
        metric("passes", spec.passes as f64, "count"),
        metric("wall.execs_per_s", rate, "1/s"),
        metric("wall.time_to_cov_s", to_cov, "s"),
        metric("wall.setup_s", setup, "s"),
        metric("host.speed_factor", factor, "ratio"),
        metric("host.steal_s", host.steal_s, "s"),
        metric("host.runqueue_wait_s", host.runqueue_wait_s, "s"),
    ];
    Ok(Report {
        metrics,
        extra,
        checks,
    })
}
