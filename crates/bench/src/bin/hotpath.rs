//! Hot path: execs/sec and allocations/exec of the zero-allocation
//! iteration loop vs the compat byte-wise/allocating mode.
//!
//! The execution engine keeps reboots out of the iteration loop (a
//! guest reset per exec); this bench measures what was left — the
//! per-exec buffer churn and byte-at-a-time bitmap scans the
//! scratch/word-level engine eliminates. Two workloads, each run in
//! both modes:
//!
//! - **feedback_loop** — the exec feedback cycle at full rate: input
//!   generation, guest reset, a fixed L1 probe sequence, coverage
//!   collection, and the virgin-map novelty scan. The *hotpath* mode is
//!   the product path (`Fuzzer::next_input_into`, trace swap,
//!   `ExecScratch` reuse, and `Fuzzer::report_edges` with the exec's
//!   `ExecScratch::edges`, whose `Corpus::observe` runs the novelty
//!   kernel `bitmap::segments::merge_edges_marking` over the touched
//!   bytes only); the *compat*
//!   mode replays the original sequence (`next_input` allocation,
//!   `take_trace`, fresh `vec![0; MAP_SIZE]` + `LineSet` per exec,
//!   byte-wise `bitmap::bytewise::merge_raw`). Both modes are asserted
//!   to produce identical virgin maps and cumulative line coverage.
//! - **campaign** — an end-to-end `run_campaign` (all components on)
//!   vs a hand-written campaign loop on `Agent::run_iteration_alloc`
//!   that reports bare bitmaps (`Fuzzer::report_observed`, a whole-map
//!   scan per exec); the results are asserted bit-identical.
//!
//! A counting global allocator measures **allocations per steady-state
//! exec** on the feedback loop: the hotpath mode must perform exactly
//! zero (after a short warm-up that sizes the reusable buffers).
//!
//! Results are written to `BENCH_hotpath.json` (schema in README.md).
//! Flags: `--out PATH` (default `BENCH_hotpath.json`), `--smoke` (tiny
//! budget; exit 1 unless the feedback loop is ≥ 2x faster than compat
//! with zero steady-state allocations and both workloads' results are
//! identical — the CI gate), `--jobs N` (accepted for CLI uniformity;
//! the mode pairs must share a core for a clean ratio).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use necofuzz::campaign::{run_campaign, CampaignConfig};
use necofuzz::{Agent, ComponentMask, EngineMode, ExecutionEngine};
use nf_bench::{factory, hr};
use nf_coverage::{bitmap, LineSet};
use nf_fuzz::{ExecFeedback, FuzzInput, Fuzzer, Mode, MAP_SIZE};
use nf_hv::HvConfig;
use nf_silicon::{CrIndex, GuestInstr};
use nf_vmx::VmxCapabilities;
use nf_x86::{CpuVendor, FeatureSet, Msr};

/// Allocation-event counter: every `alloc`/`realloc`/`alloc_zeroed`
/// bumps the counter (frees are not events — the gate is about churn,
/// not leaks). The harness snapshots the counter around the measured
/// region, so setup and reporting cost nothing.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One mode's feedback-loop measurement plus the state the
/// identical-results check compares.
struct FeedbackSide {
    eps: f64,
    allocs_per_exec: f64,
    virgin: Vec<u8>,
    cumulative: LineSet,
}

/// The fixed L1 probe sequence every feedback-loop exec runs: CR4
/// setup, `vmxon`, and two nested-capability MSR reads — enough to
/// exercise several instrumented blocks without staging guest memory.
fn run_probes(engine: &mut ExecutionEngine) {
    let hv = engine.hv_mut();
    hv.l1_exec(GuestInstr::MovToCr(
        CrIndex::Cr4,
        nf_x86::Cr4::VMXE | nf_x86::Cr4::PAE,
    ));
    hv.l1_exec(GuestInstr::Vmxon(0x1000));
    hv.l1_exec(GuestInstr::Rdmsr(Msr::VmxBasic.index()));
    hv.l1_exec(GuestInstr::Rdmsr(Msr::VmxProcbasedCtls.index()));
}

fn feedback_engine() -> (ExecutionEngine, HvConfig) {
    let vendor = CpuVendor::Intel;
    let config = HvConfig::default_for(vendor);
    let caps = VmxCapabilities::from_features(FeatureSet::default_for(vendor).sanitized(vendor));
    (
        ExecutionEngine::new(factory("vkvm"), config.clone(), caps, EngineMode::Snapshot),
        config,
    )
}

/// The product hot path: scratch reuse end to end. Returns the
/// measured rate and the allocation events per measured exec (the
/// zero-allocation gate).
fn feedback_hotpath(warmup: u32, execs: u32) -> FeedbackSide {
    let (mut engine, config) = feedback_engine();
    let mut fuzzer = Fuzzer::new(0, Mode::Unguided);
    let mut input = FuzzInput::zeroed();
    let mut cumulative = LineSet::for_map(engine.hv().coverage_map());
    let mut iter = |engine: &mut ExecutionEngine, fuzzer: &mut Fuzzer, cumulative: &mut LineSet| {
        fuzzer.next_input_into(&mut input);
        engine.prepare(&config);
        run_probes(engine);
        engine.collect_coverage();
        cumulative.union_with(&engine.scratch().lines);
        let scratch = engine.scratch();
        fuzzer.report_edges(
            &input,
            &scratch.bitmap,
            scratch.edges(),
            &scratch.lines,
            ExecFeedback { crashed: false },
        );
    };
    for _ in 0..warmup {
        iter(&mut engine, &mut fuzzer, &mut cumulative);
    }
    let allocs_before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..execs {
        iter(&mut engine, &mut fuzzer, &mut cumulative);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = ALLOC_EVENTS.load(Ordering::Relaxed) - allocs_before;
    FeedbackSide {
        eps: execs as f64 / elapsed,
        allocs_per_exec: allocs as f64 / execs as f64,
        virgin: fuzzer.corpus().virgin().to_vec(),
        cumulative,
    }
}

/// The compat ("before") mode: the original allocating sequence with
/// byte-wise bitmap scans — fresh input, trace, line set, and bitmap
/// per exec, `bitmap::bytewise::merge_raw` for novelty.
fn feedback_compat(warmup: u32, execs: u32) -> FeedbackSide {
    let (mut engine, config) = feedback_engine();
    let mut fuzzer = Fuzzer::new(0, Mode::Unguided);
    let mut virgin = vec![0xffu8; MAP_SIZE];
    let mut cumulative = LineSet::for_map(engine.hv().coverage_map());
    let iter = |engine: &mut ExecutionEngine,
                fuzzer: &mut Fuzzer,
                virgin: &mut Vec<u8>,
                cumulative: &mut LineSet| {
        let input = fuzzer.next_input();
        let _ = input; // executed for its RNG stream; probes are fixed
        engine.prepare(&config);
        run_probes(engine);
        let trace = engine.hv_mut().take_trace();
        let map = engine.hv().coverage_map();
        let mut lines = LineSet::for_map(map);
        lines.add_trace(map, &trace);
        cumulative.union_with(&lines);
        let mut raw = vec![0u8; MAP_SIZE];
        trace.fill_afl_bitmap(&mut raw);
        bitmap::bytewise::merge_raw(virgin, &raw);
    };
    for _ in 0..warmup {
        iter(&mut engine, &mut fuzzer, &mut virgin, &mut cumulative);
    }
    let allocs_before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..execs {
        iter(&mut engine, &mut fuzzer, &mut virgin, &mut cumulative);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = ALLOC_EVENTS.load(Ordering::Relaxed) - allocs_before;
    FeedbackSide {
        eps: execs as f64 / elapsed,
        allocs_per_exec: allocs as f64 / execs as f64,
        virgin,
        cumulative,
    }
}

/// One workload's before/after cell.
struct CellResult {
    workload: &'static str,
    compat_eps: f64,
    hotpath_eps: f64,
    compat_allocs: Option<f64>,
    hotpath_allocs: Option<f64>,
    identical: bool,
}

impl CellResult {
    fn speedup(&self) -> f64 {
        self.hotpath_eps / self.compat_eps
    }
}

/// End-to-end campaign cell: `run_campaign` (the product scratch loop)
/// vs a manual driver on the allocating iteration, asserted
/// bit-identical.
fn campaign_cell(hours: u32, eph: u32) -> CellResult {
    let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, hours, 0).with_execs_per_hour(eph);

    let start = Instant::now();
    let product = run_campaign(factory("vkvm"), &cfg);
    let hotpath_eps = product.execs as f64 / start.elapsed().as_secs_f64();

    // The pre-scratch campaign loop: allocate per exec, sample hourly.
    let start = Instant::now();
    let mut agent = Agent::new(factory("vkvm"), CpuVendor::Intel, ComponentMask::ALL);
    let mut fuzzer = Fuzzer::with_strategy(cfg.seed, cfg.mode, cfg.strategy);
    fuzzer.set_worker(0);
    let mut hourly = Vec::new();
    for _ in 0..hours {
        for _ in 0..eph {
            let input = fuzzer.next_input();
            let result = agent.run_iteration_alloc(&input);
            fuzzer.report_observed(&input, &result.bitmap, &result.lines, result.feedback);
        }
        hourly.push(agent.coverage_fraction());
    }
    let compat_eps = agent.execs() as f64 / start.elapsed().as_secs_f64();

    let identical = product
        .hourly
        .iter()
        .map(|h| h.coverage)
        .eq(hourly.iter().copied())
        && product.final_coverage == agent.coverage_fraction()
        && product.lines == agent.cumulative
        && product.execs == agent.execs()
        && product.restarts == agent.restarts()
        && product.finds == agent.triage().finds()
        && &product.corpus == fuzzer.corpus();
    CellResult {
        workload: "campaign",
        compat_eps,
        hotpath_eps,
        compat_allocs: None,
        hotpath_allocs: None,
        identical,
    }
}

fn write_json(path: &str, cells: &[CellResult], feedback_execs: u32, hours: u32, eph: u32) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let allocs = match (c.compat_allocs, c.hotpath_allocs) {
                (Some(compat), Some(hot)) => format!(
                    ", \"compat_allocs_per_exec\": {compat:.2}, \
                     \"hotpath_allocs_per_exec\": {hot:.2}"
                ),
                _ => String::new(),
            };
            format!(
                "    {{\"workload\": \"{}\", \"compat_eps\": {:.1}, \"hotpath_eps\": {:.1}, \
                 \"speedup\": {:.2}{allocs}, \"identical\": {}}}",
                c.workload,
                c.compat_eps,
                c.hotpath_eps,
                c.speedup(),
                c.identical
            )
        })
        .collect();
    let feedback = cells
        .iter()
        .find(|c| c.workload == "feedback_loop")
        .expect("feedback cell");
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"unit\": \"execs_per_sec\",\n  \
         \"workloads\": {{\n    \"feedback_loop\": {{\"execs\": {feedback_execs}, \
         \"description\": \"input generation + guest reset + probes + coverage \
         collection + virgin-map novelty; hotpath reuses scratch buffers and visits only \
         the exec's touched edges, compat allocates per exec and scans byte-wise\"}},\n    \
         \"campaign\": {{\"hours\": {hours}, \"execs_per_hour\": {eph}, \
         \"description\": \"end-to-end run_campaign (edge-list novelty) vs the allocating \
         iteration (run_iteration_alloc) reporting bare bitmaps (a whole-map scan per exec), \
         results bit-identical\"}}\n  }},\n  \
         \"cells\": [\n{}\n  ],\n  \"summary\": {{\"feedback_loop_speedup\": {:.2}, \
         \"steady_state_allocs_per_exec\": {:.2}, \"results_identical\": {}}}\n}}\n",
        rows.join(",\n"),
        feedback.speedup(),
        feedback.hotpath_allocs.unwrap_or(0.0),
        cells.iter().all(|c| c.identical),
    );
    std::fs::write(path, json).expect("write bench output");
}

fn usage() -> ! {
    eprintln!("usage: hotpath [--smoke] [--jobs N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_hotpath.json".to_string();
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
    let (feedback_execs, hours, eph) = if smoke {
        (20_000u32, 4, 100)
    } else {
        (200_000u32, 12, 150)
    };
    let warmup = (feedback_execs / 10).max(100);

    // Feedback loop: compat first, then hotpath (same order every run;
    // both sides share the warmed process).
    let compat = feedback_compat(warmup, feedback_execs);
    let hot = feedback_hotpath(warmup, feedback_execs);
    let feedback_cell = CellResult {
        workload: "feedback_loop",
        compat_eps: compat.eps,
        hotpath_eps: hot.eps,
        compat_allocs: Some(compat.allocs_per_exec),
        hotpath_allocs: Some(hot.allocs_per_exec),
        identical: compat.virgin == hot.virgin && compat.cumulative == hot.cumulative,
    };

    let cells = vec![feedback_cell, campaign_cell(hours, eph)];

    hr("Hot path: scratch + word-level engine vs compat allocating mode (execs/sec)");
    println!(
        "{:<14} {:>14} {:>14} {:>9} {:>14} {:>15}  identical",
        "workload", "compat", "hotpath", "speedup", "compat allocs", "hotpath allocs"
    );
    for c in &cells {
        println!(
            "{:<14} {:>14.0} {:>14.0} {:>8.1}x {:>14} {:>15}  {}",
            c.workload,
            c.compat_eps,
            c.hotpath_eps,
            c.speedup(),
            c.compat_allocs
                .map_or("-".to_string(), |a| format!("{a:.2}/exec")),
            c.hotpath_allocs
                .map_or("-".to_string(), |a| format!("{a:.2}/exec")),
            c.identical
        );
    }

    write_json(&out, &cells, feedback_execs, hours, eph);
    println!("\nwrote {out}");

    let broken: Vec<&str> = cells
        .iter()
        .filter(|c| !c.identical)
        .map(|c| c.workload)
        .collect();
    if !broken.is_empty() {
        eprintln!("FAIL: hotpath results diverged from the compat mode on {broken:?}");
        std::process::exit(1);
    }
    if smoke {
        // CI gate: ≥2x on the iteration loop, zero steady-state
        // allocations on the product path.
        let feedback = &cells[0];
        let mut failures = Vec::new();
        if feedback.speedup() < 2.0 {
            failures.push(format!(
                "feedback loop speedup {:.2}x below the 2x gate",
                feedback.speedup()
            ));
        }
        if feedback.hotpath_allocs != Some(0.0) {
            failures.push(format!(
                "hot path allocated {:.2} times/exec at steady state (must be 0)",
                feedback.hotpath_allocs.unwrap_or(f64::NAN)
            ));
        }
        if !failures.is_empty() {
            eprintln!("FAIL: {failures:?}");
            std::process::exit(1);
        }
        println!("smoke OK: >=2x iteration-loop speedup, zero steady-state allocations");
    }
}
