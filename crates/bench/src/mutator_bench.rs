//! The deterministic pipeline behind the `mutator_yield` bench binary:
//! structured scenario mutation vs classic havoc on the guided
//! campaign path, reported as time-to-coverage-level ratios.
//!
//! Extracted from the binary so the emitted JSON is *testable*:
//! everything here is a pure function of `(hours, execs_per_hour,
//! seeds)`, so `BENCH_mutators.json` is bit-reproducible, and
//! `tests/hotpath_equivalence.rs` regenerates it through this module
//! and compares byte-for-byte against the committed file. The binary
//! adds only CLI parsing, table printing, and the CI smoke gate.

use necofuzz::campaign::{Campaign, CampaignConfig, CampaignResult};
use nf_fuzz::{Mode, MutationStats, MutationStrategy, Operator, HAVOC_ARMS};
use nf_stats::{execs_to_level, median};
use nf_x86::CpuVendor;

use crate::factory;

/// Seeds of the comparison (medianed; Klees et al.'s repeated runs).
pub const SEEDS: [u64; 5] = [0, 1, 2, 3, 4];

/// The ratio the CI gate demands: structured must reach the havoc
/// level in at most this fraction of the havoc budget (median).
pub const GATE_RATIO: f64 = 0.75;

/// One strategy's run on one seed: the hourly growth curve plus the
/// campaign result (operator stats, final coverage).
pub struct StrategyRun {
    /// `(execs, coverage)` at every virtual hour.
    pub curve: Vec<(u64, f64)>,
    /// The finished campaign.
    pub result: CampaignResult,
}

/// Runs one guided campaign on the product path, sampling the coverage
/// growth curve at every virtual hour.
pub fn run_strategy(strategy: MutationStrategy, seed: u64, hours: u32, eph: u32) -> StrategyRun {
    let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, hours, seed)
        .with_execs_per_hour(eph)
        .with_mode(Mode::Guided)
        .with_strategy(strategy);
    let mut campaign = Campaign::new(factory("vkvm"), &cfg);
    let mut curve = Vec::with_capacity(hours as usize);
    while !campaign.is_complete() {
        campaign.run_hours(1);
        curve.push((campaign.execs(), campaign.coverage_fraction()));
    }
    StrategyRun {
        curve,
        result: campaign.into_result(),
    }
}

/// One seed's havoc-vs-structured comparison.
pub struct SeedRow {
    /// The RNG seed both strategies ran on.
    pub seed: u64,
    /// The havoc baseline's final coverage (= the target level).
    pub havoc_final: f64,
    /// The havoc baseline's execution budget.
    pub havoc_execs: u64,
    /// Executions at which structured first reached the havoc level.
    pub structured_execs_to_level: Option<u64>,
    /// Structured coverage at budget exhaustion.
    pub structured_final: f64,
}

impl SeedRow {
    /// `structured execs-to-level / havoc budget`; `None` while the
    /// level was never reached (treated as ratio 1.0+ by the gate).
    pub fn ratio(&self) -> Option<f64> {
        self.structured_execs_to_level
            .map(|e| e as f64 / self.havoc_execs as f64)
    }
}

/// Aggregated per-operator stats across the structured runs.
fn operator_table(runs: &[MutationStats]) -> Vec<(Operator, u64, u64)> {
    Operator::ALL
        .iter()
        .map(|&op| {
            let (mut generated, mut queued) = (0u64, 0u64);
            for stats in runs {
                let s = &stats.operators[op.index()];
                generated += s.generated;
                queued += s.queued;
            }
            (op, generated, queued)
        })
        .collect()
}

/// The complete bench output: per-seed rows, operator aggregates, the
/// gate verdict, and the serialized `BENCH_mutators.json` contents.
pub struct MutatorReport {
    /// Per-seed comparison rows, in seed order.
    pub rows: Vec<SeedRow>,
    /// `(operator, generated, queued)` aggregated over all seeds.
    pub ops: Vec<(Operator, u64, u64)>,
    /// Classic havoc arm executions aggregated over all seeds.
    pub havoc_arms: [u64; HAVOC_ARMS],
    /// Median of the per-seed ratios (never-reached counts as 1.0).
    pub median_ratio: f64,
    /// `median_ratio <= GATE_RATIO`.
    pub gate_pass: bool,
    /// Each structured run's mutation stats, in seed order.
    pub structured_stats: Vec<MutationStats>,
    /// The first seed's whole structured run (the smoke gate re-runs
    /// that cell once to check bit-reproducibility).
    pub first_structured: Option<StrategyRun>,
    /// The JSON document (what the binary writes to disk).
    pub json: String,
}

#[allow(clippy::too_many_arguments)]
fn build_json(
    hours: u32,
    eph: u32,
    rows: &[SeedRow],
    ops: &[(Operator, u64, u64)],
    havoc_arms: &[u64; HAVOC_ARMS],
    median_ratio: f64,
    gate_pass: bool,
) -> String {
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            let reached = match r.structured_execs_to_level {
                Some(e) => format!("\"execs_to_level\": {e}, \"reached\": true"),
                None => "\"execs_to_level\": null, \"reached\": false".to_string(),
            };
            format!(
                "    {{\"seed\": {}, \"havoc_final_coverage\": {:.4}, \"havoc_execs\": {}, \
                 {reached}, \"ratio\": {}, \"structured_final_coverage\": {:.4}}}",
                r.seed,
                r.havoc_final,
                r.havoc_execs,
                r.ratio().map_or("null".to_string(), |x| format!("{x:.4}")),
                r.structured_final
            )
        })
        .collect();
    let op_json: Vec<String> = ops
        .iter()
        .map(|&(op, generated, queued)| {
            format!(
                "    {{\"operator\": \"{}\", \"generated\": {generated}, \"queued\": {queued}, \
                 \"yield\": {:.4}}}",
                op.name(),
                queued as f64 / generated.max(1) as f64
            )
        })
        .collect();
    let arms: Vec<String> = havoc_arms.iter().map(u64::to_string).collect();
    format!(
        "{{\n  \"bench\": \"mutator_yield\",\n  \"unit\": \"execs_to_level_ratio\",\n  \
         \"metric\": \"structured executions to reach the havoc baseline's final coverage, \
         as a fraction of the havoc budget (guided campaigns, medians over seeds)\",\n  \
         \"config\": {{\"target\": \"vkvm\", \"vendor\": \"intel\", \"mode\": \"guided\", \
         \"hours\": {hours}, \"execs_per_hour\": {eph}, \"seeds\": {}}},\n  \
         \"seeds\": [\n{}\n  ],\n  \"operators\": [\n{}\n  ],\n  \
         \"havoc_arm_execs\": [{}],\n  \
         \"summary\": {{\"median_ratio\": {median_ratio:.4}, \"gate_ratio\": {GATE_RATIO}, \
         \"structured_reaches_havoc_level_within_gate\": {gate_pass}}}\n}}\n",
        rows.len(),
        row_json.join(",\n"),
        op_json.join(",\n"),
        arms.join(", "),
    )
}

/// Runs the whole bench pipeline: per seed, a havoc baseline campaign
/// (its endpoint is the target level) and a structured campaign next
/// to it, then the aggregate tables and the gate verdict.
pub fn run(hours: u32, eph: u32, seeds: &[u64]) -> MutatorReport {
    let mut rows = Vec::new();
    let mut structured_stats = Vec::new();
    let mut havoc_arms = [0u64; HAVOC_ARMS];
    let mut first_structured: Option<StrategyRun> = None;
    for &seed in seeds {
        let havoc = run_strategy(MutationStrategy::Havoc, seed, hours, eph);
        let structured = run_strategy(MutationStrategy::Structured, seed, hours, eph);
        rows.push(SeedRow {
            seed,
            havoc_final: havoc.result.final_coverage,
            havoc_execs: havoc.result.execs,
            structured_execs_to_level: execs_to_level(
                &structured.curve,
                havoc.result.final_coverage,
            ),
            structured_final: structured.result.final_coverage,
        });
        for (arm, &n) in havoc.result.mutation.havoc_arms.iter().enumerate() {
            havoc_arms[arm] += n;
        }
        structured_stats.push(structured.result.mutation.clone());
        if first_structured.is_none() {
            first_structured = Some(structured);
        }
    }

    // A never-reached level counts as the full budget (ratio 1.0) so
    // the median cannot be flattered by dropping bad seeds.
    let ratios: Vec<f64> = rows.iter().map(|r| r.ratio().unwrap_or(1.0)).collect();
    let median_ratio = median(&ratios);
    let gate_pass = median_ratio <= GATE_RATIO;
    let ops = operator_table(&structured_stats);
    let json = build_json(
        hours,
        eph,
        &rows,
        &ops,
        &havoc_arms,
        median_ratio,
        gate_pass,
    );
    MutatorReport {
        rows,
        ops,
        havoc_arms,
        median_ratio,
        gate_pass,
        structured_stats,
        first_structured,
        json,
    }
}
