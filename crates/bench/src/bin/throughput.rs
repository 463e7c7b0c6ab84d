//! Throughput: execs/sec of the snapshot persistent-execution engine
//! vs the original full-rebuild path, across the backend × vendor grid.
//!
//! Two workloads per cell, fanned out through the orchestrator's
//! worker pool (both engines are timed inside the same task, on the
//! same thread, so pool scheduling cannot skew the ratio):
//!
//! - **config-churn** — the hot path this engine exists for: every
//!   execution flips the vCPU configuration (the configurator's
//!   behavior under fuzzing), so the rebuild engine pays a full
//!   hypervisor-factory boot per exec while the snapshot engine
//!   restores a cached booted image.
//! - **campaign** — an end-to-end `run_campaign` with all components
//!   on; the shared per-iteration work (validator, harness, silicon)
//!   dilutes the ratio, and the two engines' `CampaignResult`s are
//!   asserted bit-identical.
//!
//! Results are written to `BENCH_throughput.json` (schema in
//! README.md). Flags: `--jobs N` / `NF_JOBS` (pool width),
//! `--out PATH` (default `BENCH_throughput.json`), `--smoke` (tiny
//! budget; exit 1 unless snapshot ≥ rebuild on every churn cell — the
//! CI gate).

use std::time::Instant;

use necofuzz::campaign::{run_campaign, CampaignConfig, HvFactory};
use necofuzz::orchestrator::Task;
use necofuzz::{ComponentMask, EngineMode, ExecutionEngine};
use nf_bench::{executor, hr};
use nf_fuzz::Mode;
use nf_hv::HvConfig;
use nf_silicon::GuestInstr;
use nf_vmx::VmxCapabilities;
use nf_x86::{CpuFeature, CpuVendor, FeatureSet};

/// One grid cell's measurements for one workload.
struct CellResult {
    backend: &'static str,
    vendor: CpuVendor,
    workload: &'static str,
    rebuild_eps: f64,
    snapshot_eps: f64,
    /// Campaign workload only: engines produced equal results.
    identical: Option<bool>,
}

impl CellResult {
    fn speedup(&self) -> f64 {
        self.snapshot_eps / self.rebuild_eps
    }
}

/// The alternating configuration ring of the churn workload: feature
/// flips (capability-changing) and nested flips (capability-neutral),
/// the two kinds of churn the configurator produces.
fn churn_configs(vendor: CpuVendor) -> Vec<HvConfig> {
    let toggles: [&[CpuFeature]; 4] = match vendor {
        CpuVendor::Intel => [
            &[],
            &[CpuFeature::Ept],
            &[CpuFeature::Vpid],
            &[CpuFeature::Ept, CpuFeature::Vpid],
        ],
        CpuVendor::Amd => [
            &[],
            &[CpuFeature::NestedPaging],
            &[CpuFeature::Avic],
            &[CpuFeature::NestedPaging, CpuFeature::Avic],
        ],
    };
    let mut ring = Vec::new();
    for (i, off) in toggles.iter().enumerate() {
        let mut config = HvConfig::default_for(vendor);
        for &f in *off {
            config.features.remove(f);
        }
        config.nested = i % 2 == 0;
        ring.push(config);
    }
    ring
}

/// Times `execs` churn iterations: every exec reconfigures the host
/// and runs one probe. Returns execs/sec.
fn churn_eps(factory: HvFactory, vendor: CpuVendor, mode: EngineMode, execs: u32) -> f64 {
    let ring = churn_configs(vendor);
    let caps = VmxCapabilities::from_features(FeatureSet::default_for(vendor).sanitized(vendor));
    let mut engine = ExecutionEngine::new(factory, HvConfig::default_for(vendor), caps, mode);
    let probe = match vendor {
        CpuVendor::Intel => GuestInstr::Rdmsr(nf_x86::Msr::VmxBasic.index()),
        CpuVendor::Amd => GuestInstr::Stgi,
    };
    let start = Instant::now();
    for i in 0..execs {
        engine.prepare(&ring[i as usize % ring.len()]);
        engine.hv_mut().l1_exec(probe);
        engine.hv_mut().take_trace();
    }
    execs as f64 / start.elapsed().as_secs_f64()
}

/// Times a full campaign (all components on, configurator churning)
/// and returns (execs/sec, result).
fn campaign_eps(
    factory: HvFactory,
    vendor: CpuVendor,
    mode: EngineMode,
    hours: u32,
    execs_per_hour: u32,
) -> (f64, necofuzz::CampaignResult) {
    let cfg = CampaignConfig::necofuzz(vendor, hours, 0)
        .with_execs_per_hour(execs_per_hour)
        .with_mode(Mode::Unguided)
        .with_mask(ComponentMask::ALL)
        .with_engine(mode);
    let start = Instant::now();
    let result = run_campaign(factory, &cfg);
    let eps = result.execs as f64 / start.elapsed().as_secs_f64();
    (eps, result)
}

fn vendor_key(vendor: CpuVendor) -> &'static str {
    match vendor {
        CpuVendor::Intel => "intel",
        CpuVendor::Amd => "amd",
    }
}

fn write_json(path: &str, cells: &[CellResult], churn_execs: u32, hours: u32, execs_per_hour: u32) {
    let mut rows = Vec::new();
    for c in cells {
        let identical = match c.identical {
            Some(b) => format!(", \"identical\": {b}"),
            None => String::new(),
        };
        rows.push(format!(
            "    {{\"backend\": \"{}\", \"vendor\": \"{}\", \"workload\": \"{}\", \
             \"rebuild_eps\": {:.1}, \"snapshot_eps\": {:.1}, \"speedup\": {:.2}{}}}",
            c.backend,
            vendor_key(c.vendor),
            c.workload,
            c.rebuild_eps,
            c.snapshot_eps,
            c.speedup(),
            identical
        ));
    }
    let churn: Vec<&CellResult> = cells
        .iter()
        .filter(|c| c.workload == "config_churn")
        .collect();
    let min_speedup = churn
        .iter()
        .map(|c| c.speedup())
        .fold(f64::INFINITY, f64::min);
    let all_identical = cells.iter().all(|c| c.identical.unwrap_or(true));
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"unit\": \"execs_per_sec\",\n  \
         \"workloads\": {{\n    \"config_churn\": {{\"execs\": {churn_execs}, \
         \"description\": \"every exec flips the vCPU config; rebuild pays a \
         factory boot, snapshot restores a cached image\"}},\n    \
         \"campaign\": {{\"hours\": {hours}, \"execs_per_hour\": {execs_per_hour}, \
         \"description\": \"end-to-end run_campaign, all components on\"}}\n  }},\n  \
         \"cells\": [\n{}\n  ],\n  \"summary\": {{\"config_churn_min_speedup\": {:.2}, \
         \"campaign_results_identical\": {}}}\n}}\n",
        rows.join(",\n"),
        min_speedup,
        all_identical
    );
    std::fs::write(path, json).expect("write bench output");
}

fn usage() -> ! {
    eprintln!("usage: throughput [--smoke] [--jobs N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_throughput.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().cloned().unwrap_or_else(|| usage()),
            // `--jobs` is consumed by nf_bench::jobs_arg / executor().
            "--jobs" => {
                it.next().unwrap_or_else(|| usage());
            }
            j if j.starts_with("--jobs=") => {}
            _ => usage(),
        }
    }
    let (churn_execs, hours, execs_per_hour) = if smoke {
        (2_000, 2, 100)
    } else {
        (20_000, 12, 150)
    };

    let grid = [
        ("vkvm", CpuVendor::Intel),
        ("vkvm", CpuVendor::Amd),
        ("vxen", CpuVendor::Intel),
        ("vxen", CpuVendor::Amd),
        ("vvbox", CpuVendor::Intel),
    ];

    // One task per cell; both engines are timed inside the task so the
    // ratio is scheduling-independent. Results come back in grid order.
    let tasks: Vec<Task<Vec<CellResult>>> = grid
        .iter()
        .map(|&(backend, vendor)| {
            let factory = move || nf_bench::factory(backend);
            Task::new(format!("throughput/{backend}/{vendor}"), move || {
                // Warm-up (page in code, fill allocator pools), then
                // measure rebuild and snapshot back to back.
                churn_eps(factory(), vendor, EngineMode::Snapshot, churn_execs / 10);
                let churn_rebuild = churn_eps(factory(), vendor, EngineMode::Rebuild, churn_execs);
                let churn_snapshot =
                    churn_eps(factory(), vendor, EngineMode::Snapshot, churn_execs);
                let (camp_rebuild, r_rebuild) = campaign_eps(
                    factory(),
                    vendor,
                    EngineMode::Rebuild,
                    hours,
                    execs_per_hour,
                );
                let (camp_snapshot, r_snapshot) = campaign_eps(
                    factory(),
                    vendor,
                    EngineMode::Snapshot,
                    hours,
                    execs_per_hour,
                );
                vec![
                    CellResult {
                        backend,
                        vendor,
                        workload: "config_churn",
                        rebuild_eps: churn_rebuild,
                        snapshot_eps: churn_snapshot,
                        identical: None,
                    },
                    CellResult {
                        backend,
                        vendor,
                        workload: "campaign",
                        rebuild_eps: camp_rebuild,
                        snapshot_eps: camp_snapshot,
                        identical: Some(r_snapshot == r_rebuild),
                    },
                ]
            })
            .with_summary(|cells: &Vec<CellResult>| {
                format!("churn speedup {:.1}x", cells[0].speedup())
            })
        })
        .collect();

    let cells: Vec<CellResult> = executor().execute(tasks).into_iter().flatten().collect();

    hr("Throughput: snapshot engine vs full rebuild (execs/sec)");
    println!(
        "{:<7} {:<6} {:<13} {:>14} {:>14} {:>9}  identical",
        "target", "CPU", "workload", "rebuild", "snapshot", "speedup"
    );
    for c in &cells {
        println!(
            "{:<7} {:<6} {:<13} {:>14.0} {:>14.0} {:>8.1}x  {}",
            c.backend,
            vendor_key(c.vendor),
            c.workload,
            c.rebuild_eps,
            c.snapshot_eps,
            c.speedup(),
            c.identical.map(|b| b.to_string()).unwrap_or_default()
        );
    }

    write_json(&out, &cells, churn_execs, hours, execs_per_hour);
    println!("\nwrote {out}");

    let broken: Vec<&CellResult> = cells
        .iter()
        .filter(|c| c.identical == Some(false))
        .collect();
    if !broken.is_empty() {
        eprintln!("FAIL: campaign results diverged between engines");
        std::process::exit(1);
    }
    if smoke {
        // CI gate: the snapshot engine must win every churn cell.
        let losing: Vec<String> = cells
            .iter()
            .filter(|c| c.workload == "config_churn" && c.speedup() < 1.0)
            .map(|c| format!("{}/{}", c.backend, vendor_key(c.vendor)))
            .collect();
        if !losing.is_empty() {
            eprintln!("FAIL: snapshot slower than rebuild on {losing:?}");
            std::process::exit(1);
        }
        println!("smoke OK: snapshot >= rebuild on every config-churn cell");
    }
}
