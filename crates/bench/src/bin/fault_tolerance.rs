//! Fault tolerance: campaign behavior under deterministic fault
//! injection, and the cost of surviving it.
//!
//! The grid runs the same guided campaign under a fault-rate sweep
//! (`0`, `1%`, `5%` — each rate split by [`FaultPlan::uniform`]
//! across hung vmexit loops, transient and permanent restore
//! failures, and silent host deaths) and reports what the runtime did
//! to absorb the faults: watchdog reaps, restore retries and their
//! exponential backoff, image quarantines, factory rebuilds,
//! degraded-mode execs.
//!
//! The **overhead** metric is a deterministic model cost, not wall
//! clock: engine service operations (snapshot restores + retries +
//! factory builds + degraded rebuilds) per execution, normalized to
//! the zero-fault cell. The zero-fault cell itself must be
//! bit-identical to a campaign with no plan armed at all — the
//! injection seam is free when idle.
//!
//! A **kill + resume** section checkpoints the 5%-fault campaign
//! every virtual hour, drops it cold halfway through (everything not
//! checkpointed is lost), resumes from the checkpoint directory, and
//! compares the converged `CampaignResult` against the uninterrupted
//! baseline with full structural equality.
//!
//! Results are written to `BENCH_faults.json` (schema in README.md),
//! byte-reproducible across hosts; wall-clock rates go to stderr.
//! Flags: `--out PATH` (default `BENCH_faults.json`), `--smoke`
//! (tiny budget; exit 1 unless the zero-fault cell is identical, the
//! 1% overhead is under 1.3x, faults actually fire at 5%, and
//! kill + resume converges — the CI gate), `--jobs N` (accepted for
//! CLI uniformity; the cells are sequential and deterministic).

use std::time::Instant;

use necofuzz::campaign::{run_campaign, Campaign, CampaignConfig, CampaignResult};
use nf_bench::{factory, hr, pct};
use nf_fuzz::Mode;
use nf_hv::FaultPlan;
use nf_x86::CpuVendor;

/// The fault-rate grid, zero first (the normalization cell).
const RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Seed of the fault schedule (independent of the fuzzing seed).
const FAULT_SEED: u64 = 0xfa17;

/// Campaign seed shared by every cell: the cells differ only in the
/// fault rate.
const CAMPAIGN_SEED: u64 = 5;

/// The 1%-cell overhead gate: surviving a 1% fault rate must cost
/// less than 1.3x the zero-fault engine service work per exec.
const OVERHEAD_GATE: f64 = 1.3;

/// One fault-rate cell.
struct FaultCell {
    rate: f64,
    execs: u64,
    coverage: f64,
    finds: usize,
    hangs: u64,
    deaths: u64,
    restores: u64,
    retries: u64,
    backoff_units: u64,
    quarantines: u64,
    rebuilds: u64,
    degraded: u64,
}

impl FaultCell {
    /// Engine service operations per execution — the work spent
    /// getting each exec a healthy, booted instance.
    fn service_ops_per_exec(&self) -> f64 {
        (self.restores + self.retries + self.rebuilds + self.degraded) as f64
            / self.execs.max(1) as f64
    }
}

fn campaign_config(hours: u32, eph: u32, rate: Option<f64>) -> CampaignConfig {
    let mut cfg = CampaignConfig::necofuzz(CpuVendor::Intel, hours, CAMPAIGN_SEED)
        .with_execs_per_hour(eph)
        .with_mode(Mode::Guided);
    if let Some(rate) = rate {
        cfg = cfg.with_fault_plan(FaultPlan::uniform(FAULT_SEED, rate));
    }
    cfg
}

fn cell_of(rate: f64, result: &CampaignResult) -> FaultCell {
    let es = &result.engine_stats;
    FaultCell {
        rate,
        execs: result.execs,
        coverage: result.final_coverage,
        finds: result.finds.len(),
        hangs: result.faults.hangs,
        deaths: result.faults.deaths,
        restores: es.snapshot_restores,
        retries: es.restore_retries,
        backoff_units: es.restore_backoff_units,
        quarantines: es.quarantined_images,
        rebuilds: es.factory_builds,
        degraded: es.degraded_mode,
    }
}

fn fault_cell(rate: f64, hours: u32, eph: u32) -> FaultCell {
    let started = Instant::now();
    let result = run_campaign(factory("vkvm"), &campaign_config(hours, eph, Some(rate)));
    eprintln!(
        "rate {rate:.2}: {:.0} execs/sec wall-clock (model numbers are virtual)",
        result.execs as f64 / started.elapsed().as_secs_f64()
    );
    cell_of(rate, &result)
}

/// The kill + resume measurement: checkpoint the 5%-fault campaign
/// hourly, drop it cold at the midpoint, resume, and compare against
/// the uninterrupted run.
struct ResumeCell {
    killed_at_hour: u32,
    hours: u32,
    identical: bool,
    coverage: f64,
    baseline_coverage: f64,
}

fn resume_cell(hours: u32, eph: u32) -> ResumeCell {
    let cfg = campaign_config(hours, eph, Some(0.05));
    let baseline = run_campaign(factory("vkvm"), &cfg);

    let dir = std::env::temp_dir().join(format!("nf-bench-faults-ckpt-{}", std::process::id()));
    let split = hours / 2;
    let mut partial = Campaign::new(factory("vkvm"), &cfg);
    partial.set_checkpoint(&dir, 1);
    partial.run_hours(split);
    drop(partial); // the kill: everything not checkpointed is lost

    let resumed = Campaign::resume_from_checkpoint(factory("vkvm"), &cfg, &dir)
        .expect("resume from checkpoint");
    assert_eq!(resumed.hours_done(), split, "checkpoint lags the kill");
    let result = resumed.into_result();
    std::fs::remove_dir_all(&dir).ok();

    ResumeCell {
        killed_at_hour: split,
        hours,
        identical: result == baseline,
        coverage: result.final_coverage,
        baseline_coverage: baseline.final_coverage,
    }
}

fn write_json(path: &str, cells: &[FaultCell], resume: &ResumeCell, zero_identical: bool) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"rate\": {:.2}, \"execs\": {}, \"coverage\": {:.4}, \
                 \"finds\": {}, \"hangs\": {}, \"deaths\": {}, \"restores\": {}, \
                 \"retries\": {}, \"backoff_units\": {}, \"quarantines\": {}, \
                 \"rebuilds\": {}, \"degraded\": {}, \"service_ops_per_exec\": {:.4}}}",
                c.rate,
                c.execs,
                c.coverage,
                c.finds,
                c.hangs,
                c.deaths,
                c.restores,
                c.retries,
                c.backoff_units,
                c.quarantines,
                c.rebuilds,
                c.degraded,
                c.service_ops_per_exec(),
            )
        })
        .collect();
    let base = cells[0].service_ops_per_exec();
    let overhead_1pct = cells[1].service_ops_per_exec() / base;
    let json = format!(
        "{{\n  \"bench\": \"fault_tolerance\",\n  \"version\": 1,\n  \
         \"unit\": \"engine_service_ops\",\n  \
         \"description\": \"campaigns under deterministic fault injection: each rate is \
         split across hung vmexit loops, transient/permanent restore failures, and silent \
         host deaths; service_ops_per_exec = (snapshot restores + \
         retries + factory builds + degraded rebuilds) / execs; overhead_1pct normalizes \
         the 1% cell to the zero-fault cell. resume kills the 5% campaign cold at its \
         midpoint and resumes from the hourly checkpoint. Virtual cost model, \
         byte-reproducible; wall-clock goes to stderr.\",\n  \
         \"cells\": [\n{}\n  ],\n  \
         \"resume\": {{\"killed_at_hour\": {}, \"hours\": {}, \"identical\": {}, \
         \"coverage\": {:.4}, \"baseline_coverage\": {:.4}}},\n  \
         \"summary\": {{\"zero_fault_identical\": {}, \"overhead_1pct\": {:.4}, \
         \"overhead_gate\": {:.1}, \"faults_fired_at_5pct\": {}, \
         \"resume_identical\": {}}}\n}}\n",
        rows.join(",\n"),
        resume.killed_at_hour,
        resume.hours,
        resume.identical,
        resume.coverage,
        resume.baseline_coverage,
        zero_identical,
        overhead_1pct,
        OVERHEAD_GATE,
        cells[2].hangs + cells[2].deaths > 0,
        resume.identical,
    );
    std::fs::write(path, json).expect("write bench output");
}

fn usage() -> ! {
    eprintln!("usage: fault_tolerance [--smoke] [--jobs N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_faults.json".to_string();
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
    let (hours, eph) = if smoke { (4, 60) } else { (8, 120) };

    // The idle-seam gate: a zero-rate plan must leave the campaign
    // bit-identical to one with no plan armed at all.
    let unarmed = run_campaign(factory("vkvm"), &campaign_config(hours, eph, None));
    let zeroed = run_campaign(factory("vkvm"), &campaign_config(hours, eph, Some(0.0)));
    let zero_identical = unarmed == zeroed;

    let cells: Vec<FaultCell> = RATES.iter().map(|&r| fault_cell(r, hours, eph)).collect();
    let resume = resume_cell(hours, eph);

    hr("Fault tolerance: campaign health under a fault-rate sweep");
    println!(
        "{:<6} {:>6} {:>9} {:>6} {:>6} {:>7} {:>9} {:>8} {:>9} {:>9} {:>9}",
        "rate",
        "execs",
        "coverage",
        "hangs",
        "deaths",
        "retries",
        "backoff",
        "degraded",
        "rebuilds",
        "quarant.",
        "ops/exec"
    );
    for c in &cells {
        println!(
            "{:<6.2} {:>6} {:>9} {:>6} {:>6} {:>7} {:>9} {:>8} {:>9} {:>9} {:>9.4}",
            c.rate,
            c.execs,
            pct(c.coverage),
            c.hangs,
            c.deaths,
            c.retries,
            c.backoff_units,
            c.degraded,
            c.rebuilds,
            c.quarantines,
            c.service_ops_per_exec(),
        );
    }
    let overhead_1pct = cells[1].service_ops_per_exec() / cells[0].service_ops_per_exec();
    println!();
    println!("zero-fault cell identical to unarmed campaign: {zero_identical}");
    println!("1% fault-rate service overhead: {overhead_1pct:.4}x (gate < {OVERHEAD_GATE:.1}x)");
    println!(
        "kill at hour {} of {} + resume: identical={} (coverage {} vs baseline {})",
        resume.killed_at_hour,
        resume.hours,
        resume.identical,
        pct(resume.coverage),
        pct(resume.baseline_coverage),
    );

    write_json(&out, &cells, &resume, zero_identical);
    println!("\nwrote {out}");

    if smoke {
        let mut failures = Vec::new();
        if !zero_identical {
            failures.push("zero-rate plan perturbed the campaign".to_string());
        }
        if overhead_1pct >= OVERHEAD_GATE {
            failures.push(format!(
                "1% fault-rate overhead {overhead_1pct:.4}x breaches the {OVERHEAD_GATE:.1}x gate"
            ));
        }
        if cells[2].hangs + cells[2].deaths == 0 {
            failures.push("no faults fired at the 5% rate".to_string());
        }
        if !resume.identical {
            failures.push("kill + resume diverged from the uninterrupted run".to_string());
        }
        if !failures.is_empty() {
            eprintln!("FAIL: {failures:?}");
            std::process::exit(1);
        }
        println!(
            "smoke OK: idle seam free, 1% overhead {overhead_1pct:.4}x < {OVERHEAD_GATE:.1}x, \
             faults fire at 5%, kill + resume identical"
        );
    }
}
