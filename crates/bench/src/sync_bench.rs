//! The deterministic pipeline behind the `sync_speedup` bench binary:
//! corpus-synced worker fleets vs unsynced ones at equal total
//! execution budget, reported as time-to-coverage-level.
//!
//! Extracted from the binary so the emitted JSON is *testable*:
//! everything here is a pure function of `(hours, execs_per_hour)` —
//! fixed seeds, a deterministic gossip schedule — so `BENCH_sync.json`
//! is bit-reproducible, and `tests/hotpath_equivalence.rs` regenerates
//! it through this module and compares byte-for-byte against the
//! committed file. The binary adds only CLI parsing, table printing,
//! and the CI smoke gate.
//!
//! Each fleet size is measured unsynced and — from two workers up —
//! synced by watermark gossip over the default tree topology. Unsynced
//! rows keep the original JSON row shape; synced rows carry a
//! `"mode": "async-tree"` tag and the per-fleet sync-cost counters.

use necofuzz::campaign::{run_campaign_group_observed, Campaign, CampaignConfig, GroupMember};
use nf_coverage::{CovMap, FileId, LineSet};
use nf_fuzz::{Mode, SyncStats, SyncTopology};
use nf_x86::CpuVendor;

use crate::factory;

/// Fleet sizes measured — the single source for the main loop, the
/// JSON summary, and the smoke gate, so adding a size cannot silently
/// escape the CI comparison.
pub const FLEET_SIZES: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The sizes the CI smoke gate runs: small enough to finish in
/// seconds, and each with a synced cell to compare against its
/// unsynced twin.
pub const SMOKE_FLEET_SIZES: [u32; 3] = [2, 4, 8];

/// Large fleets sliced off a fixed total budget would get zero whole
/// virtual hours under the legacy `hours / n` layout, so from this
/// size up the budget is re-laid-out as `LARGE_FLEET_HOURS` hours at
/// `budget / (hours * n)` execs per hour instead.
const LARGE_FLEET_MIN: u32 = 16;

/// Hours per member in the large-fleet layout: `9 * 64` divides the
/// standard 2880-exec budget exactly.
const LARGE_FLEET_HOURS: u32 = 9;

/// The virtual-time layout of an `n`-worker fleet splitting the
/// `hours * execs_per_hour` budget: members run `.0` hours at `.1`
/// execs per hour. Sizes up to 8 keep the original `hours / n` slicing
/// (so their cells reproduce the historical numbers exactly); larger
/// fleets hold `LARGE_FLEET_HOURS` (9) hours and shrink the hourly rate.
pub fn fleet_layout(n: u32, hours: u32, execs_per_hour: u32) -> (u32, u32) {
    if n < LARGE_FLEET_MIN {
        (hours / n, execs_per_hour)
    } else {
        (
            LARGE_FLEET_HOURS,
            hours * execs_per_hour / (LARGE_FLEET_HOURS * n),
        )
    }
}

/// One fleet measurement.
pub struct SyncCell {
    /// Fleet size.
    pub workers: u32,
    /// Whether the fleet gossiped corpus deltas at all.
    pub synced: bool,
    /// Total executions (across workers) when every member's own
    /// coverage first reached the target level; `None` if the budget
    /// ran out first.
    pub execs_to_target: Option<u64>,
    /// Worst member's own coverage at budget exhaustion.
    pub final_min: f64,
    /// Union coverage of the fleet at budget exhaustion.
    pub final_union: f64,
    /// Corpus entries adopted from siblings (by evidence merge).
    pub adoptions: u64,
    /// Actual executions at budget exhaustion. Adoption merges
    /// recorded evidence instead of replaying, so a synced cell runs
    /// exactly its unsynced twin's generation budget; the JSON reports
    /// it so coverage comparisons can be read against each cell's real
    /// cost.
    pub total_execs: u64,
    /// Fleet-summed sync-cost counters.
    pub sync: SyncStats,
}

/// The complete bench output: the baseline target, every cell, and the
/// serialized `BENCH_sync.json` contents.
pub struct SyncReport {
    /// The single-worker baseline's final coverage (the target level).
    pub target: f64,
    /// The baseline's execution budget.
    pub budget: u64,
    /// Virtual hours per (whole) budget.
    pub hours: u32,
    /// Executions per virtual hour.
    pub execs_per_hour: u32,
    /// Every fleet cell, in fleet-size-major, (unsynced, synced) order.
    pub cells: Vec<SyncCell>,
    /// The JSON document (what the binary writes to disk).
    pub json: String,
}

/// Runs an `n`-worker unguided fleet at `hours_each` hours per worker,
/// measuring when every member reaches `target` coverage on its own.
///
/// The fleet runs on the product sync path —
/// [`run_campaign_group_observed`], the same loop `necofuzz
/// --sync-interval` ships — with the hourly observer doing the
/// time-to-coverage bookkeeping, so the bench measures exactly the
/// protocol users get.
fn run_fleet(
    n: u32,
    hours_each: u32,
    execs_per_hour: u32,
    synced: bool,
    target: f64,
    map: &CovMap,
    file: FileId,
) -> SyncCell {
    let members: Vec<GroupMember> = (0..n)
        .map(|worker| {
            let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, hours_each, worker as u64)
                .with_execs_per_hour(execs_per_hour)
                .with_mode(Mode::Unguided)
                .with_sync_interval(u32::from(synced))
                .with_sync_topology(SyncTopology::Tree);
            (factory("vkvm"), cfg)
        })
        .collect();
    let total_lines = map.file_lines(file) as f64;

    let mut execs_to_target = None;
    let mut final_min = 0.0;
    let mut final_union = 0.0;
    let results = run_campaign_group_observed(members, |members| {
        final_min = members
            .iter()
            .map(Campaign::coverage_fraction)
            .fold(f64::INFINITY, f64::min);
        let mut union = LineSet::for_map(map);
        for member in members {
            union.union_with(member.lines());
        }
        final_union = union.count_in(map, file) as f64 / total_lines;
        if execs_to_target.is_none() && final_min >= target {
            execs_to_target = Some(members.iter().map(Campaign::execs).sum());
        }
    });
    let mut sync = SyncStats::default();
    for r in &results {
        sync.absorb(&r.sync);
    }
    SyncCell {
        workers: n,
        synced,
        execs_to_target,
        final_min,
        final_union,
        adoptions: results.iter().map(|r| r.adopted).sum(),
        total_execs: results.iter().map(|r| r.execs).sum(),
        sync,
    }
}

fn build_json(
    target: f64,
    budget: u64,
    baseline_hours: u32,
    execs_per_hour: u32,
    sizes: &[u32],
    cells: &[SyncCell],
) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let reached = match c.execs_to_target {
                Some(execs) => format!("\"execs_to_target\": {execs}, \"reached\": true"),
                None => "\"execs_to_target\": null, \"reached\": false".to_string(),
            };
            if c.synced {
                format!(
                    "    {{\"workers\": {}, \"synced\": true, \"mode\": \"async-tree\", {reached}, \
                     \"final_min_coverage\": {:.4}, \"final_union_coverage\": {:.4}, \
                     \"adoptions\": {}, \"total_execs\": {}, \"deltas_published\": {}, \
                     \"deltas_applied\": {}, \"segments_merged\": {}, \"words_scanned\": {}}}",
                    c.workers,
                    c.final_min,
                    c.final_union,
                    c.adoptions,
                    c.total_execs,
                    c.sync.deltas_published,
                    c.sync.deltas_applied,
                    c.sync.segments_merged,
                    c.sync.words_scanned
                )
            } else {
                format!(
                    "    {{\"workers\": {}, \"synced\": false, {reached}, \
                     \"final_min_coverage\": {:.4}, \"final_union_coverage\": {:.4}, \
                     \"adoptions\": {}, \"total_execs\": {}}}",
                    c.workers, c.final_min, c.final_union, c.adoptions, c.total_execs
                )
            }
        })
        .collect();
    let cell = |n: u32, synced: bool| cells.iter().find(|c| c.workers == n && c.synced == synced);
    let synced_beats_unsynced = sizes
        .iter()
        .all(|&n| match (cell(n, true), cell(n, false)) {
            (Some(s), Some(u)) => s.final_min >= u.final_min,
            _ => true,
        });
    let best_multi = cells
        .iter()
        .filter(|c| c.synced && c.workers > 1)
        .filter_map(|c| c.execs_to_target)
        .min();
    let speedup = best_multi.map(|e| budget as f64 / e as f64).unwrap_or(0.0);
    format!(
        "{{\n  \"bench\": \"sync_speedup\",\n  \"unit\": \"total_execs\",\n  \
         \"metric\": \"total executions until every fleet member's own coverage \
         reaches the baseline level\",\n  \
         \"baseline\": {{\"mode\": \"unguided\", \"workers\": 1, \"hours\": {baseline_hours}, \
         \"execs_per_hour\": {execs_per_hour}, \"budget_execs\": {budget}, \
         \"target_coverage\": {target:.4}}},\n  \
         \"cells\": [\n{}\n  ],\n  \"summary\": {{\
         \"synced_beats_unsynced_at_equal_budget\": {synced_beats_unsynced}, \
         \"best_synced_multi_execs_to_target\": {}, \
         \"speedup_vs_baseline_budget\": {speedup:.2}}}\n}}\n",
        rows.join(",\n"),
        best_multi.map_or("null".to_string(), |e| e.to_string()),
    )
}

/// The shared pipeline: the single-worker unguided baseline (whose
/// endpoint is the level every fleet must reach), then for every size
/// in `sizes` an unsynced cell and, from two workers up, a synced one
/// (a 1-worker "fleet" has no peers to gossip with).
fn run_sizes(hours: u32, execs_per_hour: u32, sizes: &[u32]) -> SyncReport {
    let budget = u64::from(hours) * u64::from(execs_per_hour);
    let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, hours, 0)
        .with_execs_per_hour(execs_per_hour)
        .with_mode(Mode::Unguided);
    let mut baseline = Campaign::new(factory("vkvm"), &cfg);
    baseline.run_hours(hours);
    let target = baseline.coverage_fraction();
    let (map, file) = baseline.coverage_geometry();

    let mut cells = Vec::new();
    for &n in sizes {
        let (hours_each, eph) = fleet_layout(n, hours, execs_per_hour);
        for synced in [false, true] {
            if synced && n < 2 {
                continue;
            }
            cells.push(run_fleet(n, hours_each, eph, synced, target, &map, file));
        }
    }
    let json = build_json(target, budget, hours, execs_per_hour, sizes, &cells);
    SyncReport {
        target,
        budget,
        hours,
        execs_per_hour,
        cells,
        json,
    }
}

/// Runs the whole bench pipeline over [`FLEET_SIZES`].
pub fn run(hours: u32, execs_per_hour: u32) -> SyncReport {
    run_sizes(hours, execs_per_hour, &FLEET_SIZES)
}

/// The CI smoke variant: [`SMOKE_FLEET_SIZES`] only.
pub fn run_smoke(hours: u32, execs_per_hour: u32) -> SyncReport {
    run_sizes(hours, execs_per_hour, &SMOKE_FLEET_SIZES)
}
