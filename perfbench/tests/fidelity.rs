//! Fidelity of the traced run and consistency of the benchmark with
//! `BENCHMARK.json`, on budgets small enough for a debug build.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! from the repository root (a debug build passes too, more slowly).

use perfbench::run::{run_untraced, Report};
use perfbench::traced::{
    run_traced, CHECK_COVERAGE, CHECK_FLEET, CHECK_REPLAY, CHECK_RESUME, CHECK_TWIN,
};
use perfbench::workload::{Spec, Workload};

/// `w`'s spec cut to a few hundred execs.
fn tiny(w: Workload) -> Spec {
    let (hours, execs_per_hour) = match w {
        Workload::KvmIntelHavoc => (3, 100),
        Workload::KvmAmdCkpt => (3, 150),
        Workload::XenDiff3 => (2, 100),
        Workload::FleetAsync8 => (3, 20),
    };
    Spec {
        hours,
        execs_per_hour,
        campaigns: 2,
        ..w.spec()
    }
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not reported"))
        .value
}

/// Asserts that `kind` ran `attempted` times without a failure.
fn passed(report: &Report, kind: &str, attempted: u64) {
    assert_eq!(report.checks.of(kind), (attempted, 0), "{kind}");
}

/// The checks every traced run makes, whatever the workload.
fn traced(w: Workload) -> Report {
    let report = run_traced(w, &tiny(w), 3).expect("traced run");
    assert_eq!(report.checks.failed(), 0, "{:?}", report.checks.notes());
    passed(&report, CHECK_COVERAGE, 1);
    let coverage = value(&report, "trace.span_coverage");
    assert!(coverage >= 0.95, "spans cover {coverage} of the exec phase");
    let overhead = value(&report, "trace.overhead_share");
    assert!(
        overhead > 0.0 && overhead < 1.0,
        "trace.overhead_share {overhead}"
    );
    report
}

#[test]
fn traced_havoc_campaign_replays_every_exec_and_equals_the_untraced_one() {
    let w = Workload::KvmIntelHavoc;
    let report = traced(w);
    passed(&report, CHECK_REPLAY, tiny(w).budget());
    passed(&report, CHECK_TWIN, 1);
}

#[test]
fn traced_amd_resume_replays_every_exec_and_equals_the_uninterrupted_campaign() {
    let w = Workload::KvmAmdCkpt;
    let spec = tiny(w);
    let report = traced(w);
    // The first hour is checkpoint A's; the replay starts from it.
    passed(
        &report,
        CHECK_REPLAY,
        spec.budget() - u64::from(spec.execs_per_hour),
    );
    passed(&report, CHECK_TWIN, 1);
    passed(&report, CHECK_RESUME, 1);
    assert_eq!(
        value(&report, "checkpoint.write.calls"),
        f64::from(spec.hours - 1)
    );
}

#[test]
fn traced_differential_campaign_replays_every_exec_and_equals_the_untraced_one() {
    let w = Workload::XenDiff3;
    let report = traced(w);
    passed(&report, CHECK_REPLAY, tiny(w).budget());
    passed(&report, CHECK_TWIN, 1);
    assert!(value(&report, "differential.backend_execs") > 0.0);
}

#[test]
fn redriven_fleet_equals_the_group_runner() {
    let report = traced(Workload::FleetAsync8);
    passed(&report, CHECK_FLEET, 1);
    assert!(value(&report, "campaign.publish_async.calls") > 0.0);
}

/// The values of `field` inside the list `key` of `BENCHMARK.json`.
fn listed(json: &str, key: &str, field: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let list = &json[start..];
    let list = &list[..list.find(']').expect("the list is closed")];
    list.split(&format!("\"{field}\":"))
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted value").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_every_workload_and_metric_the_runs_report() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed(&json, "workloads", "name"), workloads);

    let w = Workload::KvmIntelHavoc;
    let untraced = run_untraced(w, &tiny(w), 3).expect("untraced run");
    let traced = traced(w);
    for (key, report) in [("end_to_end", &untraced), ("per_layer", &traced)] {
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let units: Vec<&str> = report.metrics.iter().map(|m| m.unit).collect();
        assert_eq!(listed(&json, key, "name"), names, "{key} names");
        assert_eq!(listed(&json, key, "unit"), units, "{key} units");
    }
}

#[test]
fn untraced_runs_pass_their_output_checks() {
    for w in Workload::ALL {
        let report = run_untraced(w, &tiny(w), 5).expect("untraced run");
        assert_eq!(
            report.checks.failed(),
            0,
            "{}: {:?}",
            w.name(),
            report.checks.notes()
        );
        for m in &report.metrics {
            // A few hundred execs may find no bug; every other metric
            // is positive on any budget.
            let positive = m.value > 0.0 || (m.name == "unique_finds" && m.value == 0.0);
            assert!(
                m.value.is_finite() && positive,
                "{}/{} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn outcome_metrics_repeat_exactly_for_a_seed() {
    let w = Workload::FleetAsync8;
    let outcomes = || {
        let report = run_untraced(w, &tiny(w), 7).expect("untraced run");
        ["execs_to_cov", "final_coverage", "unique_finds"].map(|name| value(&report, name))
    };
    assert_eq!(outcomes(), outcomes());
}
