//! Fault tolerance: campaign behavior under deterministic fault
//! injection, and the cost of surviving it.
//!
//! The grid runs the same guided campaign under a fault-rate sweep
//! (`0`, `1%`, `5%` — each rate split by [`FaultPlan::uniform`]
//! between hung vmexit loops and silent host deaths) and reports what
//! the runtime did to absorb the faults: hung execs reaped, hosts
//! rebooted by the watchdog, and the engine work around them.
//!
//! The **overhead** metric is a deterministic model cost, not wall
//! clock: engine service operations (guest resets + factory builds +
//! watchdog reboots) per execution, normalized to the zero-fault cell.
//! The zero-fault cell itself must be bit-identical to a campaign with
//! no plan armed at all — the injection seam is free when idle.
//!
//! A **kill + resume** section checkpoints the 5%-fault campaign
//! every virtual hour and drops it cold at several points: the
//! midpoint hour boundary plus seeded exec positions, which mostly
//! fall mid-hour and lose the partial hour since the last checkpoint.
//! Each kill resumes from the checkpoint directory, and the converged
//! `CampaignResult` is compared against the uninterrupted baseline
//! with full structural equality.
//!
//! Results are written to `BENCH_faults.json` (schema in README.md),
//! byte-reproducible across hosts; wall-clock rates go to stderr.
//! Flags: `--out PATH` (default `BENCH_faults.json`), `--smoke`
//! (tiny budget; exit 1 unless the zero-fault cell is identical, the
//! 1% overhead is under 1.3x, faults actually fire at 5%, and every
//! kill + resume converges — the CI gate), `--jobs N` (accepted for
//! CLI uniformity; the cells are sequential and deterministic).

use std::time::Instant;

use necofuzz::campaign::{run_campaign, Campaign, CampaignConfig, CampaignResult};
use nf_bench::{factory, hr, pct};
use nf_fuzz::Mode;
use nf_hv::FaultPlan;
use nf_x86::CpuVendor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The fault-rate grid, zero first (the normalization cell).
const RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// Seed of the fault schedule (independent of the fuzzing seed).
const FAULT_SEED: u64 = 0xfa17;

/// Campaign seed shared by every cell: the cells differ only in the
/// fault rate.
const CAMPAIGN_SEED: u64 = 5;

/// Seed of the kill points (independent of both other seeds).
const KILL_SEED: u64 = 0x4b11;

/// Seeded kill points drawn on top of the midpoint.
const SEEDED_KILLS: usize = 3;

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
    resets: u64,
    rebuilds: u64,
    reboots: u64,
}

impl FaultCell {
    /// Engine service operations per execution — the work spent
    /// getting each exec a healthy, freshly booted instance.
    fn service_ops_per_exec(&self) -> f64 {
        (self.resets + self.rebuilds + self.reboots) as f64 / self.execs.max(1) as f64
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
    FaultCell {
        rate,
        execs: result.execs,
        coverage: result.final_coverage,
        finds: result.finds.len(),
        hangs: result.faults.hangs,
        deaths: result.faults.deaths,
        resets: result.engine_stats.guest_resets,
        rebuilds: result.engine_stats.factory_builds,
        reboots: result.restarts,
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

/// One kill + resume of the 5%-fault campaign.
struct ResumeCell {
    /// Executions the killed campaign ran.
    killed_at_exec: u64,
    /// Virtual hour of the last checkpoint, where the resume starts.
    checkpoint_hour: u32,
    /// Executions after that checkpoint, lost with the kill.
    lost_execs: u64,
    identical: bool,
}

/// Where the 5%-fault campaign is killed: the midpoint hour boundary
/// (a kill right after a checkpoint, losing nothing), then seeded exec
/// positions after the first checkpoint.
fn kill_points(hours: u32, eph: u32) -> Vec<u64> {
    let (eph, total) = (u64::from(eph), u64::from(hours) * u64::from(eph));
    let mut rng = SmallRng::seed_from_u64(KILL_SEED);
    let mut points = vec![u64::from(hours / 2) * eph];
    points.extend((0..SEEDED_KILLS).map(|_| rng.gen_range(eph..total)));
    points
}

/// Runs the 5%-fault campaign for `kill` execs with hourly checkpoints,
/// drops it cold (everything not checkpointed is lost), resumes, and
/// compares the result against the uninterrupted `baseline`.
fn resume_cell(cfg: &CampaignConfig, baseline: &CampaignResult, kill: u64) -> ResumeCell {
    let dir = std::env::temp_dir().join(format!(
        "nf-bench-faults-ckpt-{}-{kill}",
        std::process::id()
    ));
    let mut partial = Campaign::new(factory("vkvm"), cfg);
    partial.set_checkpoint(&dir, 1);
    partial.run_execs(u32::try_from(kill).expect("kill point fits the campaign"));
    drop(partial); // the kill

    let resumed = Campaign::resume_from_checkpoint(factory("vkvm"), cfg, &dir)
        .expect("resume from checkpoint");
    let checkpoint_hour = resumed.hours_done();
    let lost_execs = kill - u64::from(checkpoint_hour) * u64::from(cfg.execs_per_hour);
    let result = resumed.into_result();
    std::fs::remove_dir_all(&dir).ok();

    ResumeCell {
        killed_at_exec: kill,
        checkpoint_hour,
        lost_execs,
        identical: result == *baseline,
    }
}

fn resume_cells(hours: u32, eph: u32) -> Vec<ResumeCell> {
    let cfg = campaign_config(hours, eph, Some(0.05));
    let baseline = run_campaign(factory("vkvm"), &cfg);
    kill_points(hours, eph)
        .into_iter()
        .map(|kill| resume_cell(&cfg, &baseline, kill))
        .collect()
}

fn write_json(
    path: &str,
    cells: &[FaultCell],
    resumes: &[ResumeCell],
    (hours, eph): (u32, u32),
    zero_identical: bool,
) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"rate\": {:.2}, \"execs\": {}, \"coverage\": {:.4}, \
                 \"finds\": {}, \"hangs\": {}, \"deaths\": {}, \"resets\": {}, \
                 \"rebuilds\": {}, \"reboots\": {}, \"service_ops_per_exec\": {:.4}}}",
                c.rate,
                c.execs,
                c.coverage,
                c.finds,
                c.hangs,
                c.deaths,
                c.resets,
                c.rebuilds,
                c.reboots,
                c.service_ops_per_exec(),
            )
        })
        .collect();
    let kills: Vec<String> = resumes
        .iter()
        .map(|r| {
            format!(
                "      {{\"killed_at_exec\": {}, \"checkpoint_hour\": {}, \
                 \"lost_execs\": {}, \"identical\": {}}}",
                r.killed_at_exec, r.checkpoint_hour, r.lost_execs, r.identical
            )
        })
        .collect();
    let base = cells[0].service_ops_per_exec();
    let overhead_1pct = cells[1].service_ops_per_exec() / base;
    let json = format!(
        "{{\n  \"bench\": \"fault_tolerance\",\n  \"version\": 2,\n  \
         \"unit\": \"engine_service_ops\",\n  \
         \"description\": \"campaigns under deterministic fault injection: each rate is \
         split between hung vmexit loops (half) and silent host deaths (an eighth); \
         service_ops_per_exec = (guest resets + factory builds + watchdog reboots) / execs; \
         overhead_1pct normalizes the 1% cell to the zero-fault cell. resume kills the 5% \
         campaign cold at its midpoint hour and at seeded exec positions, and resumes each \
         kill from the hourly checkpoint, losing the execs run since it. Virtual cost \
         model, byte-reproducible; wall-clock goes to stderr.\",\n  \
         \"cells\": [\n{}\n  ],\n  \
         \"resume\": {{\"hours\": {hours}, \"execs_per_hour\": {eph}, \"kills\": [\n{}\n    ]}},\n  \
         \"summary\": {{\"zero_fault_identical\": {}, \"overhead_1pct\": {:.4}, \
         \"overhead_gate\": {:.1}, \"faults_fired_at_5pct\": {}, \
         \"resume_identical\": {}}}\n}}\n",
        rows.join(",\n"),
        kills.join(",\n"),
        zero_identical,
        overhead_1pct,
        OVERHEAD_GATE,
        cells[2].hangs + cells[2].deaths > 0,
        resumes.iter().all(|r| r.identical),
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
    let resumes = resume_cells(hours, eph);

    hr("Fault tolerance: campaign health under a fault-rate sweep");
    println!(
        "{:<6} {:>6} {:>9} {:>6} {:>6} {:>7} {:>9} {:>8} {:>9}",
        "rate", "execs", "coverage", "hangs", "deaths", "resets", "rebuilds", "reboots", "ops/exec"
    );
    for c in &cells {
        println!(
            "{:<6.2} {:>6} {:>9} {:>6} {:>6} {:>7} {:>9} {:>8} {:>9.4}",
            c.rate,
            c.execs,
            pct(c.coverage),
            c.hangs,
            c.deaths,
            c.resets,
            c.rebuilds,
            c.reboots,
            c.service_ops_per_exec(),
        );
    }
    let overhead_1pct = cells[1].service_ops_per_exec() / cells[0].service_ops_per_exec();
    println!();
    println!("zero-fault cell identical to unarmed campaign: {zero_identical}");
    println!("1% fault-rate service overhead: {overhead_1pct:.4}x (gate < {OVERHEAD_GATE:.1}x)");
    for r in &resumes {
        println!(
            "kill at exec {} of {} + resume from hour {} ({} execs lost): identical={}",
            r.killed_at_exec,
            u64::from(hours) * u64::from(eph),
            r.checkpoint_hour,
            r.lost_execs,
            r.identical,
        );
    }

    write_json(&out, &cells, &resumes, (hours, eph), zero_identical);
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
        for r in resumes.iter().filter(|r| !r.identical) {
            failures.push(format!(
                "kill at exec {} + resume diverged from the uninterrupted run",
                r.killed_at_exec
            ));
        }
        if !failures.is_empty() {
            eprintln!("FAIL: {failures:?}");
            std::process::exit(1);
        }
        println!(
            "smoke OK: idle seam free, 1% overhead {overhead_1pct:.4}x < {OVERHEAD_GATE:.1}x, \
             faults fire at 5%, all {} kill + resume runs identical",
            resumes.len()
        );
    }
}
