//! Differential-oracle determinism: arming the cross-backend oracle
//! must keep every reproducibility guarantee the orchestrator makes.
//!
//! 1. **same seed + backend set ⇒ same signatures**: two runs of the
//!    same differential campaign are structurally identical, down to
//!    the divergence findings and their discovery execs.
//! 2. **serial == parallel**: a synced differential grid run with
//!    `jobs(1)` equals the same grid with `jobs(8)` — the oracle's
//!    replay agents live inside the campaign, so worker count cannot
//!    reorder observations.
//! 3. **lone == group**: a never-syncing group member reproduces the
//!    plain lone campaign bit-for-bit, divergence stats included. Any
//!    non-zero interval syncs, `sync_interval = hours` included:
//!    gossip is not clocked.
//! 4. **`BENCH_diff.json` is bit-reproducible**: the committed
//!    artifact regenerates byte-for-byte through the same pipeline the
//!    `diff_oracle` binary runs.
//! 5. **the oracle lane replays what an inline loop replays**: a
//!    differential `Campaign` replays on a thread of its own, one batch
//!    behind the primary; its result equals a hand-driven synchronous
//!    loop of `Fuzzer`, `Agent` and `DifferentialRunner::observe_exec`,
//!    however the campaign is stepped and wherever the hour boundaries
//!    fall in a batch.

use necofuzz::campaign::{run_campaign, Campaign, CampaignConfig, CampaignResult, HourSample};
use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignPlan};
use necofuzz::{
    backend_factory, Agent, DifferentialRunner, EngineMode, OracleMode, SEEDED_HLT_BACKEND,
};
use nf_bench::diff_bench::{self, SEEDED_SIGNATURE};
use nf_fuzz::{FuzzInput, Fuzzer, Mode};
use nf_hv::{CrashKind, Vkvm};
use nf_x86::CpuVendor;

const HOURS: u32 = 4;
const EXECS_PER_HOUR: u32 = 120;
const PAIR: [&str; 2] = [SEEDED_HLT_BACKEND, "golden"];

/// The seeded-bug backend as an orchestrator target: fuzzing the buggy
/// hypervisor while diffing it against golden is the configuration
/// whose findings are deterministic *and* non-empty at this budget.
fn buggy_backend() -> Backend {
    Backend::new(SEEDED_HLT_BACKEND, |c| {
        let mut hv = Vkvm::new(c);
        hv.bugs.misreport_hlt_exit = true;
        Box::new(hv)
    })
}

fn differential_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig::necofuzz(CpuVendor::Intel, HOURS, seed)
        .with_execs_per_hour(EXECS_PER_HOUR)
        .with_mode(Mode::Unguided)
        .with_oracle(OracleMode::Differential)
        .with_diff_backends(&PAIR)
}

#[test]
fn same_seed_and_backend_set_reproduce_identical_signatures() {
    let factory = || backend_factory(SEEDED_HLT_BACKEND).expect("known backend");
    let first = run_campaign(factory(), &differential_cfg(0));
    let second = run_campaign(factory(), &differential_cfg(0));
    assert_eq!(
        first, second,
        "same seed + backend set must reproduce exactly"
    );

    let signatures: Vec<&str> = first
        .finds
        .iter()
        .filter(|f| f.kind == CrashKind::Divergence)
        .map(|f| f.bug_id.as_str())
        .collect();
    assert!(
        signatures.contains(&SEEDED_SIGNATURE),
        "the planted divergence must be among the findings: {signatures:?}"
    );
    assert!(first.diff_execs > 0 && first.divergence.execs_compared > 0);
}

#[test]
fn differential_grid_serial_equals_parallel() {
    for mode in [Mode::Unguided, Mode::Guided] {
        let base = differential_cfg(0).with_mode(mode).with_sync_interval(1);
        let plan = CampaignPlan::new(base).backend(buggy_backend()).seeds(0..3);
        let serial = CampaignExecutor::new().jobs(1).run(&plan);
        let parallel = CampaignExecutor::new().jobs(8).run(&plan);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s, p,
                "differential {mode:?} job {i} diverged across jobs=1/jobs=8"
            );
        }
        // The grid must actually sync and the oracle must actually
        // run.
        assert!(
            serial.iter().any(|r| r.adopted > 0),
            "{mode:?}: no exchange"
        );
        assert!(serial.iter().all(|r| r.diff_execs > 0));
    }
}

#[test]
fn lone_campaign_equals_never_and_final_boundary_synced_members() {
    let lone: Vec<_> = (0..3)
        .map(|seed| {
            run_campaign(
                backend_factory(SEEDED_HLT_BACKEND).expect("known backend"),
                &differential_cfg(seed),
            )
        })
        .collect();

    let plan = CampaignPlan::new(differential_cfg(0).with_sync_interval(0))
        .backend(buggy_backend())
        .seeds(0..3);
    let grouped = CampaignExecutor::new().jobs(4).run(&plan);
    assert_eq!(grouped.len(), lone.len());
    for (i, (member, plain)) in grouped.iter().zip(&lone).enumerate() {
        assert_eq!(
            member.divergence, plain.divergence,
            "divergence stats diverged for seed {i}"
        );
        assert_eq!(member, plain, "result diverged for seed {i}");
    }
}

#[test]
fn bench_diff_json_reproduces_byte_for_byte() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_diff.json");
    let committed =
        std::fs::read_to_string(path).expect("BENCH_diff.json is committed at the workspace root");
    let report = diff_bench::run(24, 120);
    assert_eq!(
        report.json, committed,
        "BENCH_diff.json drifted from the pipeline; regenerate with \
         `cargo run --release -p nf-bench --bin diff_oracle`"
    );
    // The committed artifact must witness the headline claims.
    assert!(report.seeded_found && report.replay_validated);
    assert_eq!(report.conformance.divergences, 0);
    assert_eq!(report.conformance_findings, 0);
    assert!(report.exploration_unchanged);
}

/// A differential campaign driven by hand on one thread, the way the
/// inline oracle loop ran: every exec is replayed right after the
/// primary ran it. Returns the result fields the loop determines.
fn synchronous_reference(target: &str, cfg: &CampaignConfig) -> CampaignResult {
    let factory = backend_factory(target).expect("known backend");
    let mut agent = Agent::new(factory, cfg.vendor, cfg.mask);
    let mut fuzzer = Fuzzer::with_strategy(cfg.seed, cfg.mode, cfg.strategy);
    fuzzer.set_worker(0);
    let mut diff = DifferentialRunner::new(
        &cfg.diff_backends,
        cfg.vendor,
        cfg.mask,
        EngineMode::Snapshot,
    );
    let mut input = FuzzInput::zeroed();
    let mut hourly = Vec::new();
    for hour in 1..=cfg.hours {
        for _ in 0..cfg.execs_per_hour {
            fuzzer.next_input_into(&mut input);
            let r = agent.run_iteration(&input);
            fuzzer.report_edges(&input, r.bitmap, r.edges, r.lines, r.feedback);
            diff.observe_exec(&input, agent.execs());
        }
        hourly.push(HourSample {
            hour,
            coverage: agent.coverage_fraction(),
        });
    }
    // The rest of the result comes from a sanitizer-only twin: the
    // primary stream does not depend on the oracle.
    let mut twin = run_campaign(
        backend_factory(target).expect("known backend"),
        &CampaignConfig {
            oracle: OracleMode::Sanitizer,
            diff_backends: Vec::new(),
            ..cfg.clone()
        },
    );
    assert_eq!(twin.hourly, hourly, "the primary stream is the twin's");
    assert_eq!(twin.lines, agent.cumulative);
    assert_eq!(twin.finds, agent.triage().finds());
    assert_eq!(&twin.corpus, fuzzer.corpus());
    twin.finds.extend(diff.triage().finds().iter().cloned());
    twin.divergence = diff.stats();
    twin.diff_execs = diff.backend_execs();
    twin
}

#[test]
fn the_oracle_lane_replays_what_an_inline_loop_replays() {
    // 37 execs an hour: hour boundaries fall mid-batch (batches are 16
    // inputs), so every hour drains a partial batch.
    let sets: [(&str, CpuVendor, &[&str]); 3] = [
        ("vxen", CpuVendor::Intel, &["vxen", "golden"]),
        ("vxen", CpuVendor::Intel, &["vxen", "vvbox", "golden"]),
        ("vxen", CpuVendor::Amd, &["vxen", "golden"]),
    ];
    for (target, vendor, backends) in sets {
        let cfg = CampaignConfig::necofuzz(vendor, 3, 5)
            .with_execs_per_hour(37)
            .with_oracle(OracleMode::Differential)
            .with_diff_backends(backends);
        let what = format!("{backends:?} {vendor:?}");
        let reference = synchronous_reference(target, &cfg);
        assert!(
            reference.divergence.execs_compared == 111 && reference.diff_execs > 0,
            "{what}: the oracle must run: {:?}",
            reference.divergence
        );
        let factory = || backend_factory(target).expect("known backend");

        // The gossip runner's stride: one exec at a time.
        let mut stepped = Campaign::new(factory(), &cfg);
        while !stepped.is_complete() {
            stepped.run_execs(1);
        }
        assert_eq!(stepped.into_result(), reference, "{what}: run_execs(1)");

        let mut hourly = Campaign::new(factory(), &cfg);
        for _ in 0..cfg.hours {
            hourly.run_hours(1);
        }
        assert_eq!(hourly.into_result(), reference, "{what}: run_hours(1)");

        let one_shot = Campaign::new(factory(), &cfg).into_result();
        assert_eq!(one_shot, reference, "{what}: into_result");
    }
}

#[test]
fn dropping_a_differential_campaign_mid_batch_returns() {
    let cfg = differential_cfg(2);
    for execs in [5, 16, 40] {
        let mut campaign = Campaign::new(
            backend_factory(SEEDED_HLT_BACKEND).expect("known backend"),
            &cfg,
        );
        campaign.run_execs(execs);
        drop(campaign);
    }
}
