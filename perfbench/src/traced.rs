//! The traced run: per-layer metrics from spans.
//!
//! A traced run re-drives the first campaign (or fleet) of the run
//! through the public functions its product loop calls, with a span
//! around each call, and runs the same campaign untraced on the
//! product path as its twin. End-to-end metrics never come from here.
//!
//! Loop-level spans wrap `Fuzzer::next_input_into`, the stage replay
//! of `Agent::run_iteration` (see [`crate::replay`]),
//! `Fuzzer::report_observed`, `DifferentialRunner::observe_exec`,
//! `write_checkpoint` and `Campaign::resume_from_checkpoint`. The fleet
//! is re-driven through `Campaign::run_execs`, `publish_async`,
//! `apply_async`, `GossipNode::drain` and `DeltaBus::relay`, because
//! the async group loop is private. Spans named `check.*` are the
//! benchmark's own fidelity work and are left out of `trace.product_s`.
//!
//! Fidelity is checked as the run goes, each check feeding the run's
//! failure count: the replay against `Agent::run_iteration` on every
//! exec (bitmap, lines, crash flag), the re-driven campaign against
//! its untraced twin, the resumed `kvm-amd-ckpt` campaign against the
//! uninterrupted one, and the share of the exec phase the spans cover.

use std::collections::BTreeMap;
use std::path::Path;

use necofuzz::campaign::{Campaign, CampaignConfig, CampaignResult, HourSample};
use necofuzz::checkpoint::{read_checkpoint, write_checkpoint};
use necofuzz::{Agent, DifferentialRunner, OracleMode};
use nf_coverage::LineSet;
use nf_fuzz::{DeltaBus, ExecFeedback, FuzzInput, Fuzzer, GossipNode};

use crate::host::HostSample;
use crate::replay::StageReplay;
use crate::run::{metric, run_campaign, run_fleet, write_checkpoint_a, Checks, Report, WorkDir};
use crate::stats::percentile;
use crate::trace::{span_cost_ns, SpanStats, Tracer};
use crate::workload::{Spec, Workload};

/// Least share of the exec phase the spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Check kind: the stage replay against `Agent::run_iteration`.
pub const CHECK_REPLAY: &str = "stage replay equals Agent::run_iteration";
/// Check kind: the traced campaign against its untraced twin.
pub const CHECK_TWIN: &str = "traced result equals the untraced one";
/// Check kind: the re-driven fleet against the product's group runner.
pub const CHECK_FLEET: &str = "re-driven fleet equals run_campaign_group_observed";
/// Check kind: the resumed campaign against the uninterrupted one.
pub const CHECK_RESUME: &str = "resumed campaign equals the uninterrupted one";
/// Check kind: span coverage of the exec phase.
pub const CHECK_COVERAGE: &str = "spans cover the exec phase";

/// Counts the traced loop makes beside its spans.
#[derive(Debug, Default, Clone, Copy)]
struct LoopCounts {
    /// `report_observed` calls that found new coverage.
    novel: u64,
    /// Unique blocks summed over execs.
    unique_blocks: u64,
    /// Checkpoint entries written, summed over writes.
    ckpt_entries: u64,
    /// Entries new since the previous write, summed over writes.
    ckpt_fresh: u64,
    /// Gossip records applied.
    records: u64,
    /// Entries those records offered.
    offered: u64,
    /// Entries adopted from them.
    adopted: u64,
}

/// What a traced campaign produced, in the shape the comparison with
/// its untraced twin needs.
struct TracedOutcome {
    hourly: Vec<HourSample>,
    final_coverage: f64,
    lines: LineSet,
    finds: Vec<necofuzz::BugFind>,
    execs: u64,
    restarts: u64,
    corpus: nf_fuzz::Corpus,
    mutation: nf_fuzz::MutationStats,
    divergence: necofuzz::DivergenceStats,
    diff_execs: u64,
}

impl TracedOutcome {
    /// `true` when every field the twin's result shares is equal.
    fn equals(&self, twin: &CampaignResult) -> bool {
        self.hourly == twin.hourly
            && self.final_coverage == twin.final_coverage
            && self.lines == twin.lines
            && self.finds == twin.finds
            && self.execs == twin.execs
            && self.restarts == twin.restarts
            && self.corpus == twin.corpus
            && self.mutation == twin.mutation
            && self.divergence == twin.divergence
            && self.diff_execs == twin.diff_execs
    }
}

/// The reference agent, built like `Campaign`'s own.
fn reference_agent(w: Workload, cfg: &CampaignConfig) -> Agent {
    Agent::with_engine(w.factory(), cfg.vendor, cfg.mask, cfg.engine)
        .with_prefix_cache(cfg.prefix_cache)
        .with_cache_capacity(cfg.cache_capacity)
        .with_prefix_budget(cfg.prefix_budget)
        .with_prefix_store(cfg.prefix_store)
}

/// The differential runner, built like `Campaign`'s own.
fn diff_runner(cfg: &CampaignConfig) -> Option<DifferentialRunner> {
    (cfg.oracle == OracleMode::Differential).then(|| {
        DifferentialRunner::new(&cfg.diff_backends, cfg.vendor, cfg.mask, cfg.engine)
            .with_prefix_cache(cfg.prefix_cache)
            .with_cache_capacity(cfg.cache_capacity)
            .with_prefix_budget(cfg.prefix_budget)
            .with_prefix_store(cfg.prefix_store)
    })
}

/// Re-drives one lone campaign with spans. For `kvm-amd-ckpt`, `ckpt`
/// names checkpoint A (resumed from) and directory B (written hourly):
/// the product resume is traced as `checkpoint.resume`, and that
/// resumed `Campaign` is stepped in lockstep (`check.campaign`) so
/// `write_checkpoint` has the campaign it takes.
fn trace_campaign(
    w: Workload,
    spec: &Spec,
    base_seed: u64,
    ckpt: Option<(&Path, &Path)>,
    t: &mut Tracer,
    counts: &mut LoopCounts,
    checks: &mut Checks,
) -> std::io::Result<(TracedOutcome, (u64, u64))> {
    let cfg = w.config(spec, base_seed);
    let mut replay = StageReplay::new(w.factory(), cfg.vendor);
    let mut reference = reference_agent(w, &cfg);
    let mut diff = diff_runner(&cfg);
    let mut hourly = Vec::with_capacity(cfg.hours as usize);
    let mut hour = 0;
    let mut shadow = None;
    let mut fuzzer = match ckpt {
        Some((a, _)) => {
            let resumed = t.span("checkpoint.resume", 0, || {
                Campaign::resume_from_checkpoint(w.factory(), &cfg, a)
            })?;
            shadow = Some(resumed);
            let (ck, corpus) = read_checkpoint(a)?;
            replay.restore(&ck);
            reference.restore_counters(ck.agent_execs, ck.agent_restarts);
            reference.cumulative = LineSet::from_words(ck.cumulative.clone());
            reference.restore_corrections(&ck.corrections);
            for find in &ck.finds {
                reference.triage_mut().record(find.clone().into_find());
            }
            hourly = ck.hourly.clone();
            hour = ck.hour;
            Fuzzer::from_checkpoint(cfg.mode, cfg.strategy, corpus, ck.fuzzer)
        }
        None => {
            let mut fuzzer = Fuzzer::with_strategy(cfg.seed, cfg.mode, cfg.strategy);
            fuzzer.set_worker(0);
            fuzzer
        }
    };

    let mut input = FuzzInput::zeroed();
    let mut written = fuzzer.corpus().len() as u64;
    let (mut traced, mut matched) = (0u64, 0u64);
    let phase_start = t.now();
    while hour < cfg.hours {
        for _ in 0..cfg.execs_per_hour {
            let id = replay.execs() + 1;
            t.span("fuzz.next_input", id, || fuzzer.next_input_into(&mut input));
            t.begin("agent.run_iteration", id);
            let crashed = replay.run_iteration(&input, t, id);
            t.end();
            let scratch = replay.scratch();
            let same = t.span("check.reference", id, || {
                counts.unique_blocks += scratch.trace.unique_blocks().count() as u64;
                let r = reference.run_iteration(&input);
                r.bitmap == &scratch.bitmap[..]
                    && r.lines == &scratch.lines
                    && r.feedback.crashed == crashed
            });
            traced += 1;
            matched += u64::from(same);
            let novel = t.span("fuzz.report_observed", id, || {
                fuzzer.report_observed(
                    &input,
                    &scratch.bitmap,
                    &scratch.lines,
                    ExecFeedback { crashed },
                )
            });
            counts.novel += u64::from(novel);
            if let Some(diff) = &mut diff {
                let exec = replay.execs();
                t.span("differential.observe_exec", id, || {
                    diff.observe_exec(&input, exec)
                });
            }
        }
        hour += 1;
        hourly.push(HourSample {
            hour,
            coverage: replay.coverage_fraction(),
        });
        if let (Some(shadow), Some((_, b))) = (&mut shadow, ckpt) {
            let id = replay.execs();
            t.span("check.campaign", id, || shadow.run_hours(1));
            let wrote = t.span("checkpoint.write", id, || write_checkpoint(shadow, b));
            checks.check("checkpoint write", wrote.is_ok());
            let len = shadow.corpus().len() as u64;
            counts.ckpt_entries += len;
            counts.ckpt_fresh += len - written.min(len);
            written = len;
        }
    }
    let phase = (phase_start, t.now());
    checks.ops(CHECK_REPLAY, traced, matched);
    if let Some(shadow) = shadow {
        checks.check(
            "resumed campaign agrees with the replay",
            shadow.lines() == replay.cumulative(),
        );
    }

    let mut finds = replay.triage().finds().to_vec();
    let (divergence, diff_execs) = match &diff {
        Some(diff) => {
            finds.extend(diff.triage().finds().iter().cloned());
            (diff.stats(), diff.backend_execs())
        }
        None => Default::default(),
    };
    let outcome = TracedOutcome {
        hourly,
        final_coverage: replay.coverage_fraction(),
        lines: replay.cumulative().clone(),
        finds,
        execs: replay.execs(),
        restarts: replay.restarts(),
        mutation: fuzzer.mutation_stats(),
        corpus: std::mem::take(fuzzer.corpus_mut()),
        divergence,
        diff_execs,
    };
    Ok((outcome, phase))
}

/// One gossip turn of fleet member `w`, as the product's async group
/// loop takes it, with spans. Returns how many records moved.
fn gossip_turn(
    c: &mut Campaign,
    node: &mut GossipNode,
    bus: &mut DeltaBus,
    (w, id): (u32, u64),
    t: &mut Tracer,
    counts: &mut LoopCounts,
) -> usize {
    let mut moved = 0;
    if c.has_unpublished_novelty()
        && t.span("campaign.publish_async", id, || c.publish_async(bus, node))
    {
        moved += 1;
    }
    for rec in t.span("sync.drain", id, || node.drain(bus)) {
        counts.records += 1;
        counts.offered += rec.delta.entries.len() as u64;
        counts.adopted += t.span("campaign.apply_async", id, || c.apply_async(&rec)) as u64;
        t.span("sync.relay", id, || bus.relay(w, rec));
        moved += 1;
    }
    moved
}

/// Re-drives one fleet with spans, through the same public calls the
/// product's async group loop makes, in the same order.
fn trace_fleet(
    w: Workload,
    spec: &Spec,
    base_seed: u64,
    t: &mut Tracer,
    counts: &mut LoopCounts,
) -> (Vec<CampaignResult>, (u64, u64)) {
    let members = w.members(spec, base_seed);
    let n = members.len() as u32;
    let topology = members[0].1.sync_topology;
    let phase_start = t.now();
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
    let mut id = 0u64;
    for done in 0..spec.hours {
        for _ in 0..spec.execs_per_hour {
            for (worker, c) in campaigns.iter_mut().enumerate() {
                id += 1;
                t.span("campaign.run_execs", id, || c.run_execs(1));
                let node = &mut nodes[worker];
                gossip_turn(c, node, &mut bus, (worker as u32, id), t, counts);
            }
        }
        if done + 1 == spec.hours {
            loop {
                let mut moved = 0;
                for (worker, c) in campaigns.iter_mut().enumerate() {
                    let node = &mut nodes[worker];
                    moved += gossip_turn(c, node, &mut bus, (worker as u32, id), t, counts);
                }
                if moved == 0 {
                    break;
                }
            }
        }
    }
    let phase = (phase_start, t.now());
    (
        campaigns.into_iter().map(Campaign::into_result).collect(),
        phase,
    )
}

/// Seconds of self time of `name`, or zero when it never ran.
fn self_s(stats: &BTreeMap<&'static str, SpanStats>, name: &str) -> f64 {
    stats.get(name).map_or(0.0, |s| s.self_s)
}

/// Spans recorded under `name`.
fn calls(stats: &BTreeMap<&'static str, SpanStats>, name: &str) -> f64 {
    stats.get(name).map_or(0.0, |s| s.calls as f64)
}

/// `num / den`, or zero for an empty denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Re-drives the run's first campaign (or fleet) with spans and checks
/// it against the product path. Returns the twin's results and the
/// exec phase's bounds on the tracer's clock.
fn trace_first(
    w: Workload,
    spec: &Spec,
    base: u64,
    work: &Path,
    t: &mut Tracer,
    counts: &mut LoopCounts,
    checks: &mut Checks,
) -> std::io::Result<(Vec<CampaignResult>, (u64, u64))> {
    if w == Workload::FleetAsync8 {
        let twin = run_fleet(w, spec, base).results;
        let (traced, phase) = trace_fleet(w, spec, base, t, counts);
        checks.check(CHECK_FLEET, traced == twin);
        return Ok((twin, phase));
    }
    let dirs = (w == Workload::KvmAmdCkpt).then(|| {
        (
            work.join("a"),
            work.join("b-untraced"),
            work.join("b-traced"),
        )
    });
    if let Some((a, _, _)) = &dirs {
        write_checkpoint_a(w, spec, base, a)?;
    }
    let untraced = dirs.as_ref().map(|(a, b, _)| (a.as_path(), b.as_path()));
    let twin = run_campaign(w, spec, base, untraced, checks).results;
    if dirs.is_some() {
        let uninterrupted = run_campaign(w, spec, base, None, checks).results;
        checks.check(CHECK_RESUME, twin == uninterrupted);
    }
    let traced = dirs.as_ref().map(|(a, _, b)| (a.as_path(), b.as_path()));
    let (outcome, phase) = trace_campaign(w, spec, base, traced, t, counts, checks)?;
    checks.check(CHECK_TWIN, outcome.equals(&twin[0]));
    Ok((twin, phase))
}

/// The traced run of `w`'s first campaign for run seed `seed`. Spans
/// are written to `out/<workload>.spans.tsv` in this directory.
pub fn run_traced(w: Workload, spec: &Spec, seed: u64) -> std::io::Result<Report> {
    let host_before = HostSample::now();
    let work = WorkDir::new(&format!("{}-traced", w.name()))?;
    let base = w.campaign_seed(seed, 0);
    let mut checks = Checks::default();
    let mut counts = LoopCounts::default();
    let mut t = Tracer::new();
    let (twin, phase) = trace_first(w, spec, base, work.path(), &mut t, &mut counts, &mut checks)?;

    let stats = t.stats();
    let phase_ns = (phase.1 - phase.0) as f64;
    let coverage = ratio(t.covered_ns(phase.0, phase.1, |_| true) as f64, phase_ns);
    checks.check(CHECK_COVERAGE, coverage >= MIN_SPAN_COVERAGE);
    let product_ns = t.covered_ns(phase.0, phase.1, |name| !name.starts_with("check."));
    let overhead = ratio(t.spans().len() as f64 * span_cost_ns(), phase_ns);

    let engine = twin
        .iter()
        .fold(necofuzz::EngineStats::default(), |mut a, r| {
            a.factory_builds += r.engine_stats.factory_builds;
            a.cache_hits += r.engine_stats.cache_hits;
            a
        });
    let cold_flips = engine.factory_builds.saturating_sub(twin.len() as u64);
    let words_scanned: u64 = twin.iter().map(|r| r.sync.words_scanned).sum();
    let mut durations = stats
        .get("agent.run_iteration")
        .map_or(Vec::new(), |s| s.durations.clone());
    let execs = calls(&stats, "agent.run_iteration");
    let host = HostSample::now().since(&host_before);
    let s = |name| self_s(&stats, name);

    let metrics = vec![
        metric("fuzz.next_input.self_s", s("fuzz.next_input"), "s"),
        metric(
            "fuzz.report_observed.self_s",
            s("fuzz.report_observed"),
            "s",
        ),
        metric(
            "fuzz.report_observed.novel_ratio",
            ratio(counts.novel as f64, calls(&stats, "fuzz.report_observed")),
            "fraction",
        ),
        metric(
            "coverage.unique_blocks_per_exec",
            ratio(counts.unique_blocks as f64, execs),
            "blocks",
        ),
        metric(
            "harness.mutated_plan.self_s",
            s("harness.mutated_plan"),
            "s",
        ),
        metric("harness.run_init.self_s", s("harness.run_init"), "s"),
        metric("harness.run_runtime.self_s", s("harness.run_runtime"), "s"),
        metric("validator.generate.self_s", s("validator.generate"), "s"),
        metric(
            "configurator.generate.self_s",
            s("configurator.generate"),
            "s",
        ),
        metric("engine.prepare.self_s", s("engine.prepare"), "s"),
        metric(
            "engine.collect_coverage.self_s",
            s("engine.collect_coverage"),
            "s",
        ),
        metric(
            "engine.cache_hit_ratio",
            ratio(
                engine.cache_hits as f64,
                (engine.cache_hits + cold_flips) as f64,
            ),
            "fraction",
        ),
        metric(
            "engine.factory_builds",
            engine.factory_builds as f64,
            "count",
        ),
        metric(
            "engine.reboots",
            twin.iter().map(|r| r.restarts).sum::<u64>() as f64,
            "count",
        ),
        metric("agent.run_iteration.calls", execs, "count"),
        metric(
            "agent.run_iteration.p50_us",
            percentile(&mut durations, 50.0) as f64 / 1e3,
            "us",
        ),
        metric(
            "agent.run_iteration.p99_us",
            percentile(&mut durations, 99.0) as f64 / 1e3,
            "us",
        ),
        metric("agent.run_iteration.self_s", s("agent.run_iteration"), "s"),
        metric(
            "triage.record.calls",
            calls(&stats, "triage.record"),
            "count",
        ),
        metric("triage.record.self_s", s("triage.record"), "s"),
        metric(
            "differential.observe_exec.self_s",
            s("differential.observe_exec"),
            "s",
        ),
        metric(
            "differential.backend_execs",
            twin[0].diff_execs as f64,
            "count",
        ),
        metric(
            "differential.divergences",
            twin[0].divergence.divergences as f64,
            "count",
        ),
        metric(
            "differential.crash_skipped",
            twin[0].divergence.crash_skipped as f64,
            "count",
        ),
        metric("campaign.run_execs.self_s", s("campaign.run_execs"), "s"),
        metric(
            "campaign.publish_async.calls",
            calls(&stats, "campaign.publish_async"),
            "count",
        ),
        metric(
            "campaign.publish_async.self_s",
            s("campaign.publish_async"),
            "s",
        ),
        metric(
            "campaign.apply_async.records",
            counts.records as f64,
            "count",
        ),
        metric(
            "campaign.apply_async.self_s",
            s("campaign.apply_async"),
            "s",
        ),
        metric("sync.drain.self_s", s("sync.drain"), "s"),
        metric("sync.relay.self_s", s("sync.relay"), "s"),
        metric(
            "sync.adopt_ratio",
            ratio(counts.adopted as f64, counts.offered as f64),
            "fraction",
        ),
        metric("sync.words_scanned", words_scanned as f64, "count"),
        metric(
            "checkpoint.write.calls",
            calls(&stats, "checkpoint.write"),
            "count",
        ),
        metric("checkpoint.write.self_s", s("checkpoint.write"), "s"),
        metric(
            "checkpoint.write.entries",
            counts.ckpt_entries as f64,
            "count",
        ),
        metric(
            "checkpoint.write.fresh_ratio",
            ratio(counts.ckpt_fresh as f64, counts.ckpt_entries as f64),
            "fraction",
        ),
        metric("checkpoint.resume.self_s", s("checkpoint.resume"), "s"),
        metric("trace.exec_phase_s", phase_ns * 1e-9, "s"),
        metric("trace.product_s", product_ns as f64 * 1e-9, "s"),
        metric("trace.span_coverage", coverage, "fraction"),
        metric("trace.overhead_share", overhead, "fraction"),
        metric("host.steal_s", host.steal_s, "s"),
        metric("host.runqueue_wait_s", host.runqueue_wait_s, "s"),
    ];

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)?;
    t.write_tsv(&out_dir.join(format!("{}.spans.tsv", w.name())))?;

    Ok(Report {
        metrics,
        extra: Vec::new(),
        checks,
    })
}
