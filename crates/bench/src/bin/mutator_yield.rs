//! Mutator yield: structured scenario mutation vs classic havoc on the
//! guided campaign path.
//!
//! Byte-blind havoc wastes most of the iteration loop's throughput on
//! semantically dead children — bit flips land mid-way through VMCS
//! field encodings and init-step argument pairs. The structure-aware
//! engine (`--mutator structured`) mutates at the granularity of the
//! scenario's actual interface objects: whole VMCS fields at their own
//! width, MSR-area entries over the architectural index dictionary,
//! 4-byte-aligned runtime steps, init-step directives. This bench
//! quantifies the payoff as **time to coverage level**:
//!
//! - per seed, a **havoc** guided campaign runs the full budget; its
//!   final coverage is that seed's *target level*;
//! - a **structured** campaign (same seed, same budget, same RNG
//!   stream) runs next to it, and we record the execution count at
//!   which it first reaches the havoc level ([`nf_stats::execs_to_level`]
//!   over the hourly growth curve).
//!
//! The headline ratio is `structured execs-to-level / havoc budget`,
//! medianed over seeds: below 1.0 means structured converts raw
//! exec/s into coverage faster than havoc; the CI gate demands ≤ 0.75.
//! The whole pipeline lives in [`nf_bench::mutator_bench`] (both
//! campaigns run on the product guided path — exactly what `necofuzz
//! --guided --mutator ...` ships), so `tests/hotpath_equivalence.rs`
//! can regenerate `BENCH_mutators.json` and hold it byte-for-byte;
//! everything is a pure function of the seeds, so the emitted file is
//! bit-reproducible.
//!
//! Flags: `--out PATH` (default `BENCH_mutators.json`), `--smoke`
//! (small budget; the CI gate — asserts the ratio, that every operator
//! of both strategies actually ran, and that a repeated cell is
//! bit-identical), `--jobs N` (accepted for CLI uniformity; cells are
//! a handful of serial campaigns).

use nf_bench::hr;
use nf_bench::mutator_bench::{self, GATE_RATIO, SEEDS};
use nf_fuzz::MutationStrategy;

fn usage() -> ! {
    eprintln!("usage: mutator_yield [--smoke] [--jobs N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_mutators.json".to_string();
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
    // The smoke budget must still be large enough that the structured
    // profile draws every one of the 11 operators at least once per
    // run (the all-operators gate below) — a few hundred guided execs
    // make that overwhelmingly certain while the gate stays fast.
    let (hours, eph, seeds): (u32, u32, &[u64]) = if smoke {
        (12, 60, &SEEDS[..3])
    } else {
        (24, 120, &SEEDS)
    };

    hr("Mutator yield: structured scenario mutation vs havoc (guided campaigns)");
    println!(
        "{:<6} {:>12} {:>12} {:>16} {:>8} {:>12}",
        "seed", "havoc_cov", "havoc_execs", "structured@lvl", "ratio", "struct_cov"
    );

    let report = mutator_bench::run(hours, eph, seeds);
    for row in &report.rows {
        println!(
            "{:<6} {:>11.1}% {:>12} {:>16} {:>8} {:>11.1}%",
            row.seed,
            row.havoc_final * 100.0,
            row.havoc_execs,
            row.structured_execs_to_level
                .map_or("-".to_string(), |e| e.to_string()),
            row.ratio().map_or("-".to_string(), |x| format!("{x:.2}")),
            row.structured_final * 100.0
        );
    }

    println!("\nper-operator yield (structured, all seeds):");
    for &(op, generated, queued) in &report.ops {
        println!(
            "  {:<18} generated {generated:>6}  queued {queued:>4}",
            op.name()
        );
    }
    println!(
        "\nmedian ratio {:.2} (gate {GATE_RATIO}) — structured reaches the havoc \
         level in {:.0}% of the havoc budget",
        report.median_ratio,
        report.median_ratio * 100.0
    );

    std::fs::write(&out, &report.json).expect("write bench output");
    println!("wrote {out}");

    if smoke {
        let mut failures = Vec::new();
        if !report.gate_pass {
            failures.push(format!(
                "median ratio {:.3} exceeds the {GATE_RATIO} gate",
                report.median_ratio
            ));
        }
        // Every mutation primitive of both strategies must have run:
        // the gate is sized so a silently dead operator cannot hide.
        for (seed, stats) in seeds.iter().zip(&report.structured_stats) {
            if !stats.all_exercised() {
                let dead: Vec<&str> = stats
                    .operators
                    .iter()
                    .filter(|s| s.generated == 0)
                    .map(|s| s.op.name())
                    .collect();
                failures.push(format!("seed {seed}: operators never ran: {dead:?}"));
            }
        }
        if report.havoc_arms.contains(&0) {
            failures.push(format!(
                "havoc arms not all exercised: {:?}",
                report.havoc_arms
            ));
        }
        // Bit-reproducibility: repeating the first structured cell
        // must reproduce the main loop's run exactly.
        let first = report.first_structured.expect("seeds is non-empty");
        let again = mutator_bench::run_strategy(MutationStrategy::Structured, seeds[0], hours, eph);
        if again.curve != first.curve || again.result != first.result {
            failures.push("structured cell is not bit-reproducible".to_string());
        }
        if !failures.is_empty() {
            eprintln!("FAIL: {failures:?}");
            std::process::exit(1);
        }
        println!("smoke OK: ratio within gate, every operator exercised, bit-reproducible");
    }
}
