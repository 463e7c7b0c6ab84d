//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each binary in `src/bin/` prints the rows/series of one table or
//! figure; the Criterion benches in `benches/` wrap the same drivers.
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! not the authors' testbed); the *shape* — who wins, by what factor,
//! where curves saturate — is the reproduced quantity (see
//! `EXPERIMENTS.md`).
//!
//! Every driver fans its campaign grid out through the
//! [`necofuzz::orchestrator`] worker pool: pass `--jobs N` to any bench
//! binary (or set `NF_JOBS`) to bound the pool; the default uses every
//! available core. Parallelism never changes output — results are
//! reduced in deterministic plan order — so `--jobs 1` and `--jobs 32`
//! print byte-identical tables.

pub mod diff_bench;
pub mod mutator_bench;
pub mod sync_bench;

use necofuzz::campaign::{CampaignConfig, CampaignResult, HvFactory};
use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignJob};
use necofuzz::{backend_factory, ComponentMask};
use nf_coverage::LineSet;
use nf_fuzz::Mode;
use nf_x86::CpuVendor;

/// Number of repeated runs per configuration (Klees et al.; paper §5.1).
pub const RUNS: u64 = 5;

/// Scaled virtual campaign lengths: the paper's 48 h / 24 h compress to
/// the same execution budget shape at bench-friendly wall-clock cost.
pub const HOURS_LONG: u32 = 48;
/// Ablation/Xen campaigns run 24 virtual hours.
pub const HOURS_SHORT: u32 = 24;
/// Executions per virtual hour for the experiment drivers.
pub const EXECS_PER_HOUR: u32 = 120;

/// The orchestrator backend `name` resolves to in necofuzz's backend
/// table (`vkvm`, `vxen`, `vvbox`, ...).
///
/// # Panics
///
/// Panics on a name the table does not hold.
pub fn backend(name: &str) -> Backend {
    Backend::named(name).unwrap_or_else(|| panic!("unknown backend {name:?}"))
}

/// The hypervisor factory `name` resolves to in necofuzz's backend
/// table.
///
/// # Panics
///
/// Panics on a name the table does not hold.
pub fn factory(name: &str) -> HvFactory {
    backend_factory(name).unwrap_or_else(|| panic!("unknown backend {name:?}"))
}

/// Worker-pool width for the experiment drivers: `--jobs N` (or
/// `--jobs=N`) on the command line, else the `NF_JOBS` environment
/// variable, else `0` (auto: every available core). A malformed value
/// is a usage error (exit 2), matching the `necofuzz` CLI.
pub fn jobs_arg() -> usize {
    let bad = |v: &str| -> ! {
        eprintln!("invalid --jobs value {v:?}: expected a non-negative integer");
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            let v = args.next().unwrap_or_else(|| bad("<missing>"));
            return v.parse().unwrap_or_else(|_| bad(&v));
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            return v.parse().unwrap_or_else(|_| bad(v));
        }
    }
    std::env::var("NF_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The shared executor of the experiment drivers: sized by
/// [`jobs_arg`], reporting per-job completions on stderr (stdout stays
/// byte-identical across worker counts).
pub fn executor() -> CampaignExecutor {
    CampaignExecutor::new().jobs(jobs_arg()).on_progress(|p| {
        eprintln!(
            "[{:>3}/{}] {:<40} {}",
            p.completed, p.total, p.label, p.summary
        );
    })
}

/// Runs NecoFuzz `RUNS` times (seeds `0..RUNS`) against the named
/// backend on the worker pool and returns the per-run results in seed
/// order.
pub fn necofuzz_runs(
    target: &str,
    vendor: CpuVendor,
    hours: u32,
    mode: Mode,
    mask: ComponentMask,
) -> Vec<CampaignResult> {
    let jobs = (0..RUNS)
        .map(|seed| CampaignJob {
            backend: backend(target),
            cfg: CampaignConfig::necofuzz(vendor, hours, seed)
                .with_execs_per_hour(EXECS_PER_HOUR)
                .with_mode(mode)
                .with_mask(mask),
        })
        .collect();
    executor().run_jobs(jobs)
}

/// Median final coverage of a run set.
pub fn median_coverage(results: &[CampaignResult]) -> f64 {
    nf_stats::median(&results.iter().map(|r| r.final_coverage).collect::<Vec<_>>())
}

/// The run whose final coverage is the median (for set algebra on a
/// representative line set).
pub fn median_run(results: &[CampaignResult]) -> &CampaignResult {
    let med = median_coverage(results);
    results
        .iter()
        .min_by(|a, b| {
            (a.final_coverage - med)
                .abs()
                .partial_cmp(&(b.final_coverage - med).abs())
                .expect("no NaNs")
        })
        .expect("non-empty")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a `cov% / #line` pair for a line set restricted to `file`.
pub fn cov_row(lines: &LineSet, map: &nf_coverage::CovMap, file: nf_coverage::FileId) -> String {
    let covered = lines.count_in(map, file);
    let total = map.file_lines(file);
    format!("{:>6}  {:>6}", pct(covered as f64 / total as f64), covered)
}

/// Prints a Markdown-ish separator line.
pub fn hr(title: &str) {
    println!("\n================ {title} ================");
}
