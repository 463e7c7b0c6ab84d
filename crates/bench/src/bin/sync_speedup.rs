//! Sync speedup: time-to-coverage-level of corpus-synced worker fleets
//! vs unsynced ones, at equal total execution budget.
//!
//! The paper runs its grids as fleets of independent campaigns; the
//! shared-corpus runtime lets a fleet behave like one AFL++
//! main/secondary group. This bench quantifies the payoff of gossip
//! sync:
//!
//! - the **baseline** is the product configuration — one unguided
//!   worker spending the whole budget; its final coverage is the
//!   *target level*;
//! - each **cell** runs `n` workers (`n` ∈ 1/2/4/8/16/32/64, unguided,
//!   seeds `0..n`) splitting the same total generation budget
//!   (`fleet_layout` slices it into whole virtual hours), and records
//!   the total executions until **every** worker's own coverage
//!   reaches the target level — a fleet is only as reproducible as its
//!   weakest member — plus the worst member's coverage at budget
//!   exhaustion. Every size runs **unsynced**, and from two workers up
//!   also **synced** (watermark gossip over the tree topology: sharded
//!   deltas published on novelty, absorbed at iteration boundaries
//!   without replay).
//!
//! Unsynced fleets cannot reach the level: each member is capped by
//! its own `1/n` budget. Synced fleets converge every member to the
//! fleet union, crossing the level while the single-worker baseline
//! is still crawling along its plateau, at no extra executions: the
//! gossip costs O(n) segment-sharded merges spread over the run —
//! visible in the `words_scanned` column.
//!
//! The whole pipeline lives in [`nf_bench::sync_bench`] (fleets run on
//! the product sync path, the loop behind `necofuzz --sync-interval`),
//! so the bench measures the shipped protocol and
//! `tests/hotpath_equivalence.rs` can regenerate `BENCH_sync.json` and
//! hold it byte-for-byte. Everything is deterministic (fixed seeds,
//! deterministic gossip schedule), so the emitted file is
//! bit-reproducible. Flags: `--out PATH` (default `BENCH_sync.json`),
//! `--smoke` (tiny budget over the 2/4/8 sizes; exit 1 unless every
//! synced cell covers at least as much as its unsynced twin at equal
//! budget and some synced multi-worker fleet reaches the level — the
//! CI gate), `--jobs N` (accepted for CLI uniformity; cells run
//! serially because each is itself a fleet).

use nf_bench::hr;
use nf_bench::sync_bench::{self, SyncReport, SMOKE_FLEET_SIZES};

fn usage() -> ! {
    eprintln!("usage: sync_speedup [--smoke] [--jobs N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_sync.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().cloned().unwrap_or_else(|| usage()),
            "--jobs" => {
                it.next().unwrap_or_else(|| usage());
            }
            j if j.starts_with("--jobs=") => {}
            _ => usage(),
        }
    }
    // The smoke budget: 24 virtual hours at half the full exec rate
    // gives the 8-worker cell three hours per member, and the whole
    // gate still finishes in seconds.
    let (hours, execs_per_hour) = if smoke { (24, 60) } else { (24, 120) };

    let report: SyncReport = if smoke {
        sync_bench::run_smoke(hours, execs_per_hour)
    } else {
        sync_bench::run(hours, execs_per_hour)
    };

    hr("Sync speedup: corpus-synced fleets vs unsynced (equal total budget)");
    println!(
        "baseline: 1 unguided worker, {hours}h x {execs_per_hour} execs/h = {} execs, \
         coverage {:.1}% (the target level)",
        report.budget,
        report.target * 100.0
    );
    println!(
        "\n{:<8} {:<9} {:>16} {:>10} {:>11} {:>10} {:>12} {:>13}",
        "workers",
        "sync",
        "execs_to_target",
        "min_cov",
        "union_cov",
        "adoptions",
        "total_execs",
        "words_scanned"
    );
    for cell in &report.cells {
        println!(
            "{:<8} {:<9} {:>16} {:>9.1}% {:>10.1}% {:>10} {:>12} {:>13}",
            cell.workers,
            if cell.synced { "async" } else { "-" },
            cell.execs_to_target
                .map_or("-".to_string(), |e| e.to_string()),
            cell.final_min * 100.0,
            cell.final_union * 100.0,
            cell.adoptions,
            cell.total_execs,
            cell.sync.words_scanned
        );
    }

    std::fs::write(&out, &report.json).expect("write bench output");
    println!("\nwrote {out}");

    if smoke {
        // CI gate: at equal total budget, syncing must never cost the
        // fleet coverage, and some synced multi-worker fleet must
        // reach the baseline level before exhausting the budget.
        let cells = &report.cells;
        let mut failures = Vec::new();
        for n in SMOKE_FLEET_SIZES {
            let twin = |synced: bool| {
                cells
                    .iter()
                    .find(|c| c.workers == n && c.synced == synced)
                    .unwrap()
            };
            let (synced, unsynced) = (twin(true), twin(false));
            if synced.final_min < unsynced.final_min {
                failures.push(format!(
                    "{n} workers: synced min {:.3} < unsynced min {:.3}",
                    synced.final_min, unsynced.final_min
                ));
            }
        }
        if !cells
            .iter()
            .any(|c| c.synced && c.workers > 1 && c.execs_to_target.is_some())
        {
            failures.push("no synced multi-worker fleet reached the baseline level".into());
        }
        if !failures.is_empty() {
            eprintln!("FAIL: {failures:?}");
            std::process::exit(1);
        }
        println!("smoke OK: synced >= unsynced on every fleet size, target level reached");
    }
}
