//! Prefix cache: scenario units skipped per exec as a function of how
//! much consecutive inputs share.
//!
//! The snapshot trie (engine prefix cache) restores the deepest cached
//! ancestor of an input's scenario-prefix chain and executes only the
//! suffix. This bench drives the product execution path
//! (`Agent::run_iteration` with `--prefix-cache` semantics) over
//! workloads with a controlled **prefix share**: every input in a cell
//! keeps the first `share * RUNTIME_STEPS` runtime records of a fixed
//! base scenario and randomizes the rest, so consecutive execs agree
//! on exactly that much of the instruction stream (plus the whole init
//! plan, which the cell holds constant).
//!
//! The reported speedup is a **deterministic model cost**, not wall
//! clock: every scenario unit (init step or runtime record) costs 1,
//! `units_total` is what full replay would execute, `units_skipped`
//! comes from the engine's own counters, and
//! `model_speedup = units_total / units_executed`. The virtual-time
//! model keeps `BENCH_prefix.json` byte-reproducible across hosts;
//! measured wall-clock rates go to stderr only.
//!
//! A second, **budget-constrained** grid compares the trie's two
//! snapshot stores head-to-head: the content-addressed copy-on-write
//! store (`cow`, the default) against self-contained deep copies
//! (`deep`, PR 7 semantics). Each cell rotates a working set of
//! distinct base scenarios under a fixed byte budget, so the store
//! that fits more boundaries into the budget serves more restores.
//! The CoW store charges each unique blob once (event-log chains cost
//! their suffix, snapshot components and traces dedup across nodes),
//! so at tight budgets it strictly out-speeds the deep store — the
//! `cow_beats_deep` gate.
//!
//! A separate **identical** check runs small campaigns — solo and
//! sync-grouped, both strategies, both vendors — with the prefix cache
//! on and off and asserts the `CampaignResult`s compare equal: the
//! cache is a pure execution-cost optimization.
//!
//! Results are written to `BENCH_prefix.json` (v2 schema in
//! README.md). Flags: `--out PATH` (default `BENCH_prefix.json`),
//! `--smoke` (tiny budget; exit 1 unless model speedup rises
//! monotonically with the share, the high-share cell is ≥ 2x, the CoW
//! store dedups (ratio > 1.0) and strictly beats the deep store at the
//! smallest budget, and every A/B campaign pair is identical — the CI
//! gate), `--jobs N` (accepted for CLI uniformity; the cells are
//! sequential and deterministic).

use std::time::Instant;

use necofuzz::campaign::{run_campaign, run_campaign_group, CampaignConfig, GroupMember};
use necofuzz::{Agent, ComponentMask, EngineMode, ExecutionHarness, PrefixStoreMode};
use nf_bench::{factory, hr};
use nf_fuzz::scenario::InputLayout;
use nf_fuzz::{FuzzInput, Mode, MutationStrategy};
use nf_x86::CpuVendor;

/// The prefix-share grid: the fraction of the runtime record stream
/// consecutive inputs have in common.
const SHARES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.95];

/// Capture at every boundary and never evict inside a cell: the cells
/// measure the restore geometry, not the capture policy (the policy's
/// hit/eviction behavior is exercised by the equivalence suite).
const CELL_BUDGET: usize = 64 << 20;

/// The byte-budget grid of the store comparison, smallest first. The
/// smallest budget is the `cow_beats_deep` gate cell.
const BUDGETS: [usize; 3] = [256 << 10, 1 << 20, 8 << 20];

/// The (prefix share, rotating base count) pairs of the budget grid.
/// Deeper chains get fewer bases so every cell's working set lands in
/// the same byte range: small enough that the CoW store (charging
/// unique blobs once) holds every chain at the smallest budget, large
/// enough that the deep-copy store cannot — under round-robin access
/// an LRU trie that cannot hold the full set serves no restores at
/// all, so the smallest budget is where the stores separate.
const BUDGET_GRID: [(f64, usize); 2] = [(0.25, 4), (0.5, 3)];

/// One share cell's deterministic model measurement.
struct ShareCell {
    share: f64,
    execs: u32,
    units_total: u64,
    units_skipped: u64,
    hits: u64,
    misses: u64,
    captures: u64,
    evictions: u64,
}

impl ShareCell {
    fn units_executed(&self) -> u64 {
        self.units_total - self.units_skipped
    }

    fn model_speedup(&self) -> f64 {
        self.units_total as f64 / self.units_executed() as f64
    }
}

/// Runs one share cell: `execs` iterations on the product path, every
/// input sharing the first `share` of the base scenario's runtime
/// records. Deterministic in (share, execs).
fn share_cell(share: f64, execs: u32) -> ShareCell {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut agent = Agent::with_engine(
        factory("vkvm"),
        CpuVendor::Intel,
        ComponentMask::ALL,
        EngineMode::Snapshot,
    )
    .with_prefix_cache(true)
    .with_prefix_threshold(1)
    .with_prefix_budget(CELL_BUDGET);

    // One fixed base scenario per cell grid; the same seed for every
    // share so the cells differ only in how much of it they keep.
    let mut rng = SmallRng::seed_from_u64(7);
    let base = FuzzInput::random(&mut rng);

    // Scenario units per exec: the (fixed) mutated init plan plus one
    // unit per runtime record. The cell never touches the init section
    // or the staged images, so the plan — and with it the chain length
    // — is constant across the cell. The revision argument parameterizes
    // a step's payload, never the step count.
    let init_bytes = &base.bytes[InputLayout::INIT.range()];
    let plan_units = ExecutionHarness::new(CpuVendor::Intel)
        .mutated_plan(1, init_bytes)
        .steps
        .len() as u64;
    let units_per_exec = plan_units + InputLayout::RUNTIME_STEPS as u64;

    let shared_records = (share * InputLayout::RUNTIME_STEPS as f64).round() as usize;
    let run = InputLayout::RUNTIME;
    let tail_start = run.offset + shared_records * InputLayout::STEP_BYTES;

    let mut input = base.clone();
    let start = Instant::now();
    for _ in 0..execs {
        input.bytes[run.offset..run.range().end].copy_from_slice(&base.bytes[run.range()]);
        rng.fill(&mut input.bytes[tail_start..run.range().end]);
        agent.run_iteration(&input);
    }
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "share {share:.2}: {:.0} execs/sec wall-clock (model numbers are virtual)",
        execs as f64 / elapsed
    );

    let stats = agent.engine_stats();
    ShareCell {
        share,
        execs,
        units_total: units_per_exec * execs as u64,
        units_skipped: stats.prefix_units_skipped,
        hits: stats.prefix_hits,
        misses: stats.prefix_misses,
        captures: stats.prefix_captures,
        evictions: stats.prefix_evictions,
    }
}

/// One budget-constrained store-comparison cell.
struct BudgetCell {
    store: PrefixStoreMode,
    budget: usize,
    share: f64,
    execs: u32,
    units_total: u64,
    units_skipped: u64,
    hits: u64,
    misses: u64,
    captures: u64,
    evictions: u64,
    bytes_resident: u64,
    nodes_resident: u64,
    dedup_ratio: f64,
    max_hit_depth: u64,
}

impl BudgetCell {
    fn units_executed(&self) -> u64 {
        self.units_total - self.units_skipped
    }

    fn model_speedup(&self) -> f64 {
        self.units_total as f64 / self.units_executed() as f64
    }
}

/// Runs one budget cell: `execs` iterations rotating through `bases`
/// distinct base scenarios, each exec keeping the first `share` of its
/// base's runtime records and randomizing the rest, under `budget`
/// bytes of trie with the given snapshot store. Deterministic in
/// (store, budget, share, bases, execs).
fn budget_cell(
    store: PrefixStoreMode,
    budget: usize,
    share: f64,
    bases: usize,
    execs: u32,
) -> BudgetCell {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let mut agent = Agent::with_engine(
        factory("vkvm"),
        CpuVendor::Intel,
        ComponentMask::ALL,
        EngineMode::Snapshot,
    )
    .with_prefix_cache(true)
    .with_prefix_threshold(2)
    .with_prefix_budget(budget)
    .with_prefix_store(store);

    // The same base working set for every (store, budget) pair: the
    // seed covers base generation only, so cells differ in nothing but
    // the store policy under test.
    let mut rng = SmallRng::seed_from_u64(11);
    let bases: Vec<FuzzInput> = (0..bases).map(|_| FuzzInput::random(&mut rng)).collect();
    let harness = ExecutionHarness::new(CpuVendor::Intel);
    let plan_units: Vec<u64> = bases
        .iter()
        .map(|b| {
            harness
                .mutated_plan(1, &b.bytes[InputLayout::INIT.range()])
                .steps
                .len() as u64
        })
        .collect();

    let shared_records = (share * InputLayout::RUNTIME_STEPS as f64).round() as usize;
    let run = InputLayout::RUNTIME;
    let tail_start = run.offset + shared_records * InputLayout::STEP_BYTES;

    let mut units_total = 0u64;
    let mut input = FuzzInput::zeroed();
    let start = Instant::now();
    for i in 0..execs {
        let slot = i as usize % bases.len();
        input.bytes.copy_from_slice(&bases[slot].bytes);
        rng.fill(&mut input.bytes[tail_start..run.range().end]);
        agent.run_iteration(&input);
        units_total += plan_units[slot] + InputLayout::RUNTIME_STEPS as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "store {store} budget {budget} share {share:.2}: {:.0} execs/sec wall-clock",
        execs as f64 / elapsed
    );

    let stats = agent.engine_stats();
    BudgetCell {
        store,
        budget,
        share,
        execs,
        units_total,
        units_skipped: stats.prefix_units_skipped,
        hits: stats.prefix_hits,
        misses: stats.prefix_misses,
        captures: stats.prefix_captures,
        evictions: stats.prefix_evictions,
        bytes_resident: stats.prefix_bytes_resident,
        nodes_resident: stats.prefix_nodes,
        dedup_ratio: stats.prefix_dedup_ratio(),
        max_hit_depth: stats.prefix_max_hit_depth,
    }
}

fn budget_cells(execs: u32) -> Vec<BudgetCell> {
    let mut cells = Vec::new();
    for &budget in &BUDGETS {
        for &(share, bases) in &BUDGET_GRID {
            for store in [PrefixStoreMode::Cow, PrefixStoreMode::DeepCopy] {
                cells.push(budget_cell(store, budget, share, bases, execs));
            }
        }
    }
    cells
}

/// The gate comparison: at the smallest budget, the CoW store's model
/// speedup must strictly exceed the deep store's at every share.
fn cow_beats_deep(cells: &[BudgetCell]) -> bool {
    let min_budget = BUDGETS[0];
    BUDGET_GRID.iter().all(|&(share, _)| {
        let at = |store: PrefixStoreMode| {
            cells
                .iter()
                .find(|c| c.store == store && c.budget == min_budget && c.share == share)
                .expect("grid covers the gate cell")
                .model_speedup()
        };
        at(PrefixStoreMode::Cow) > at(PrefixStoreMode::DeepCopy)
    })
}

/// One A/B identity cell: the same campaign with the prefix cache on
/// and off, compared with `CampaignResult`'s equality (which spans
/// coverage curves, corpus, triage, divergence — everything except the
/// engine counters).
struct AbCell {
    label: &'static str,
    identical: bool,
}

fn ab_solo(label: &'static str, target: &str, cfg: CampaignConfig) -> AbCell {
    let cached = run_campaign(factory(target), &cfg.clone().with_prefix_cache(true));
    let full = run_campaign(factory(target), &cfg.with_prefix_cache(false));
    AbCell {
        label,
        identical: cached == full,
    }
}

/// The synced-fleet A/B cell: a two-member vkvm sync group, prefix
/// cache on vs off, every member's result compared.
fn ab_group(label: &'static str, hours: u32, eph: u32) -> AbCell {
    let run = |prefix: bool| {
        let members: Vec<GroupMember> = (0..2)
            .map(|seed| {
                let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, hours, seed)
                    .with_execs_per_hour(eph)
                    .with_mode(Mode::Guided)
                    .with_sync_interval(2)
                    .with_prefix_cache(prefix);
                (factory("vkvm"), cfg) as GroupMember
            })
            .collect();
        run_campaign_group(members)
    };
    AbCell {
        label,
        identical: run(true) == run(false),
    }
}

fn identity_cells(hours: u32, eph: u32) -> Vec<AbCell> {
    let base = |vendor, seed| {
        CampaignConfig::necofuzz(vendor, hours, seed)
            .with_execs_per_hour(eph)
            .with_mode(Mode::Guided)
    };
    vec![
        ab_solo("vkvm/intel/guided", "vkvm", base(CpuVendor::Intel, 1)),
        ab_solo(
            "vxen/amd/structured",
            "vxen",
            base(CpuVendor::Amd, 2).with_strategy(MutationStrategy::Structured),
        ),
        ab_group("vkvm/intel/synced-x2", hours, eph),
    ]
}

fn write_json(path: &str, cells: &[ShareCell], budget: &[BudgetCell], ab: &[AbCell]) {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"share\": {:.2}, \"execs\": {}, \"units_total\": {}, \
                 \"units_executed\": {}, \"units_skipped\": {}, \"model_speedup\": {:.2}, \
                 \"hits\": {}, \"misses\": {}, \"captures\": {}, \"evictions\": {}}}",
                c.share,
                c.execs,
                c.units_total,
                c.units_executed(),
                c.units_skipped,
                c.model_speedup(),
                c.hits,
                c.misses,
                c.captures,
                c.evictions,
            )
        })
        .collect();
    let budget_rows: Vec<String> = budget
        .iter()
        .map(|c| {
            format!(
                "    {{\"store\": \"{}\", \"budget\": {}, \"share\": {:.2}, \"execs\": {}, \
                 \"units_total\": {}, \"units_executed\": {}, \"units_skipped\": {}, \
                 \"model_speedup\": {:.2}, \"hits\": {}, \"misses\": {}, \"captures\": {}, \
                 \"evictions\": {}, \"bytes_resident\": {}, \"nodes_resident\": {}, \
                 \"dedup_ratio\": {:.2}, \"max_hit_depth\": {}}}",
                c.store,
                c.budget,
                c.share,
                c.execs,
                c.units_total,
                c.units_executed(),
                c.units_skipped,
                c.model_speedup(),
                c.hits,
                c.misses,
                c.captures,
                c.evictions,
                c.bytes_resident,
                c.nodes_resident,
                c.dedup_ratio,
                c.max_hit_depth,
            )
        })
        .collect();
    let ab_rows: Vec<String> = ab
        .iter()
        .map(|c| {
            format!(
                "    {{\"campaign\": \"{}\", \"identical\": {}}}",
                c.label, c.identical
            )
        })
        .collect();
    let high = cells.last().expect("share grid");
    let max_dedup = budget
        .iter()
        .filter(|c| c.store == PrefixStoreMode::Cow)
        .map(|c| c.dedup_ratio)
        .fold(1.0f64, f64::max);
    let json = format!(
        "{{\n  \"bench\": \"prefix_speedup\",\n  \"version\": 2,\n  \
         \"unit\": \"model_scenario_units\",\n  \
         \"description\": \"snapshot-trie prefix cache: every scenario unit (init step or \
         runtime record) costs 1; units_skipped are restored from cached mid-scenario \
         snapshots instead of re-executed; model_speedup = units_total / units_executed. \
         budget_cells compare the content-addressed CoW store against deep-copied nodes \
         under tight byte budgets over a rotating base working set. Virtual cost model, \
         byte-reproducible; wall-clock goes to stderr.\",\n  \
         \"cells\": [\n{}\n  ],\n  \"budget_cells\": [\n{}\n  ],\n  \
         \"identity\": [\n{}\n  ],\n  \
         \"summary\": {{\"high_share_speedup\": {:.2}, \"monotone\": {}, \
         \"cow_beats_deep_at_min_budget\": {}, \"max_cow_dedup_ratio\": {:.2}, \
         \"results_identical\": {}}}\n}}\n",
        rows.join(",\n"),
        budget_rows.join(",\n"),
        ab_rows.join(",\n"),
        high.model_speedup(),
        cells
            .windows(2)
            .all(|w| w[1].model_speedup() > w[0].model_speedup()),
        cow_beats_deep(budget),
        max_dedup,
        ab.iter().all(|c| c.identical),
    );
    std::fs::write(path, json).expect("write bench output");
}

fn usage() -> ! {
    eprintln!("usage: prefix_speedup [--smoke] [--jobs N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = "BENCH_prefix.json".to_string();
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
    let (execs, budget_execs, hours, eph) = if smoke {
        (80u32, 64u32, 3, 60)
    } else {
        (400u32, 240u32, 6, 120)
    };

    let cells: Vec<ShareCell> = SHARES.iter().map(|&s| share_cell(s, execs)).collect();
    let bcells = budget_cells(budget_execs);
    let ab = identity_cells(hours, eph);

    hr("Prefix cache: scenario units skipped vs prefix share (model cost)");
    println!(
        "{:<7} {:>6} {:>12} {:>14} {:>14} {:>9} {:>7} {:>8}",
        "share",
        "execs",
        "units_total",
        "units_executed",
        "units_skipped",
        "speedup",
        "hits",
        "misses"
    );
    for c in &cells {
        println!(
            "{:<7.2} {:>6} {:>12} {:>14} {:>14} {:>8.2}x {:>7} {:>8}",
            c.share,
            c.execs,
            c.units_total,
            c.units_executed(),
            c.units_skipped,
            c.model_speedup(),
            c.hits,
            c.misses
        );
    }
    println!();
    hr("Snapshot store under byte budgets: CoW vs deep copy (model cost)");
    println!(
        "{:<6} {:>9} {:<6} {:>6} {:>9} {:>6} {:>10} {:>6} {:>6} {:>10}",
        "store",
        "budget",
        "share",
        "execs",
        "speedup",
        "hits",
        "evictions",
        "nodes",
        "dedup",
        "hit_depth"
    );
    for c in &bcells {
        println!(
            "{:<6} {:>9} {:<6.2} {:>6} {:>8.2}x {:>6} {:>10} {:>6} {:>6.2} {:>10}",
            c.store.name(),
            c.budget,
            c.share,
            c.execs,
            c.model_speedup(),
            c.hits,
            c.evictions,
            c.nodes_resident,
            c.dedup_ratio,
            c.max_hit_depth
        );
    }
    println!();
    for c in &ab {
        println!("identical {:<22} {}", c.label, c.identical);
    }

    write_json(&out, &cells, &bcells, &ab);
    println!("\nwrote {out}");

    let broken: Vec<&str> = ab
        .iter()
        .filter(|c| !c.identical)
        .map(|c| c.label)
        .collect();
    if !broken.is_empty() {
        eprintln!("FAIL: prefix-cached campaigns diverged from full replay on {broken:?}");
        std::process::exit(1);
    }
    if smoke {
        let mut failures = Vec::new();
        if !cells
            .windows(2)
            .all(|w| w[1].model_speedup() > w[0].model_speedup())
        {
            failures.push("model speedup is not monotone in the prefix share".to_string());
        }
        let high = cells.last().expect("share grid");
        if high.model_speedup() < 2.0 {
            failures.push(format!(
                "high-share model speedup {:.2}x below the 2x gate",
                high.model_speedup()
            ));
        }
        if cells.iter().any(|c| c.hits == 0) {
            failures.push("a share cell never hit the prefix cache".to_string());
        }
        for c in bcells
            .iter()
            .filter(|c| c.store == PrefixStoreMode::Cow && c.dedup_ratio <= 1.0)
        {
            failures.push(format!(
                "cow cell (budget {}, share {:.2}) dedup ratio {:.2} is not > 1.0",
                c.budget, c.share, c.dedup_ratio
            ));
        }
        if !cow_beats_deep(&bcells) {
            failures.push(format!(
                "cow store does not strictly beat deep copies at the {} B budget",
                BUDGETS[0]
            ));
        }
        if !failures.is_empty() {
            eprintln!("FAIL: {failures:?}");
            std::process::exit(1);
        }
        println!(
            "smoke OK: monotone model speedup, >=2x at high share, \
             cow dedups and beats deep at min budget, A/B identical"
        );
    }
}
