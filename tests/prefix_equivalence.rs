//! Prefix-cache equivalence: resuming from a mid-scenario snapshot and
//! executing only the suffix must be **bit-identical** to full replay.
//!
//! Three layers of evidence:
//!
//! - a campaign grid (backend × vendor × strategy × sync interval) run
//!   twice — prefix cache on and off — and compared whole-result with
//!   `==` (hourly samples, line sets, finds, corpora: everything);
//! - a proptest sweep at the agent layer comparing the *complete*
//!   per-execution event streams (every init step, every L2 result,
//!   every L1 action) under randomized seeds, vendors, masks, capture
//!   thresholds — including snapshot-at-every-boundary — and an
//!   adversarially tiny byte budget that forces constant eviction;
//! - a replay-oracle regression: a real campaign find reproduces and
//!   minimizes byte-identically through the prefix-cached path.

use necofuzz::campaign::{CampaignConfig, CampaignResult};
use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignPlan};
use necofuzz::{Agent, ComponentMask, EngineMode, PrefixStoreMode, ReplayOracle};
use nf_fuzz::{FuzzInput, Mode, MutationStrategy};
use nf_hv::{HvConfig, L0Hypervisor, L1Result, L2Result, Vkvm, Vvbox, Vxen};
use nf_x86::CpuVendor;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The equivalence grid: `shape` turns the base config (seed 1, 8 h at
/// 40 execs/h, prefix cache on or off) into a plan.
fn plan(
    prefix: bool,
    backend: Backend,
    vendors: &[CpuVendor],
    shape: &impl Fn(CampaignConfig) -> CampaignPlan,
) -> CampaignPlan {
    let base = CampaignConfig::necofuzz(CpuVendor::Intel, 8, 1)
        .with_execs_per_hour(40)
        .with_prefix_cache(prefix);
    shape(base)
        .backend(backend)
        .vendors(vendors)
        .modes(&[Mode::Unguided, Mode::Guided])
}

fn assert_equivalent(
    backend: fn() -> Backend,
    vendors: &[CpuVendor],
    shape: impl Fn(CampaignConfig) -> CampaignPlan,
) -> Vec<CampaignResult> {
    let executor = CampaignExecutor::new();
    let cached = executor.run(&plan(true, backend(), vendors, &shape));
    let full = executor.run(&plan(false, backend(), vendors, &shape));
    assert_eq!(cached.len(), full.len());
    let labels: Vec<String> = plan(true, backend(), vendors, &shape)
        .jobs()
        .iter()
        .map(|j| j.label())
        .collect();
    for ((c, f), label) in cached.iter().zip(&full).zip(&labels) {
        assert_eq!(c, f, "campaign diverged with the prefix cache on: {label}");
    }
    // The cached leg must actually exercise the trie — a grid where the
    // cache never fires would prove nothing.
    let hits: u64 = cached.iter().map(|r| r.engine_stats.prefix_hits).sum();
    assert!(hits > 0, "prefix cache never hit across the grid");
    assert!(
        cached
            .iter()
            .all(|r| r.engine_stats.prefix_units_skipped >= r.engine_stats.prefix_hits),
        "every hit must skip at least its restore depth"
    );
    cached
}

#[test]
fn vkvm_campaigns_match_with_prefix_cache() {
    assert_equivalent(
        || Backend::new("vkvm", |c| Box::new(Vkvm::new(c))),
        &[CpuVendor::Intel, CpuVendor::Amd],
        CampaignPlan::new,
    );
}

#[test]
fn vxen_campaigns_match_with_prefix_cache() {
    assert_equivalent(
        || Backend::new("vxen", |c| Box::new(Vxen::new(c))),
        &[CpuVendor::Intel, CpuVendor::Amd],
        CampaignPlan::new,
    );
}

#[test]
fn vvbox_campaigns_match_with_prefix_cache() {
    assert_equivalent(
        || Backend::new("vvbox", |c| Box::new(Vvbox::new(c))),
        &[CpuVendor::Intel],
        CampaignPlan::new,
    );
}

#[test]
fn structured_campaigns_match_with_prefix_cache() {
    assert_equivalent(
        || Backend::new("vkvm", |c| Box::new(Vkvm::new(c))),
        &[CpuVendor::Intel],
        |base| CampaignPlan::new(base.with_strategy(MutationStrategy::Structured)),
    );
}

#[test]
fn synced_fleets_match_with_prefix_cache() {
    assert_equivalent(
        || Backend::new("vkvm", |c| Box::new(Vkvm::new(c))),
        &[CpuVendor::Intel],
        |base| CampaignPlan::new(base.with_sync_interval(2)).seeds(0..3),
    );
}

/// Records **every** execution event verbatim — unlike the
/// differential oracle's canonical observation, which deliberately
/// drops L0-policy results. For prefix equivalence nothing may differ,
/// policy included.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct FullTrace {
    events: Vec<String>,
}

impl necofuzz::ExecObserver for FullTrace {
    fn on_init_step(&mut self, result: &L1Result) {
        self.events.push(format!("init:{result:?}"));
    }

    fn on_l2_result(&mut self, result: &L2Result) {
        self.events.push(format!("l2:{result:?}"));
    }

    fn on_l1_action(&mut self, result: &L1Result) {
        self.events.push(format!("l1:{result:?}"));
    }
}

fn agent_pair(
    vendor: CpuVendor,
    mask: ComponentMask,
    threshold: u32,
    budget: usize,
    store: PrefixStoreMode,
) -> (Agent, Agent) {
    let factory = || {
        Box::new(|c: HvConfig| Box::new(Vkvm::new(c)) as Box<dyn L0Hypervisor>)
            as Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>
    };
    let cached = Agent::with_engine(factory(), vendor, mask, EngineMode::Snapshot)
        .with_prefix_cache(true)
        .with_prefix_threshold(threshold)
        .with_prefix_budget(budget)
        .with_prefix_store(store);
    let full = Agent::with_engine(factory(), vendor, mask, EngineMode::Snapshot);
    (cached, full)
}

fn assert_streams_match(
    seed: u64,
    vendor: CpuVendor,
    mask: ComponentMask,
    threshold: u32,
    budget: usize,
    store: PrefixStoreMode,
) {
    let (mut cached, mut full) = agent_pair(vendor, mask, threshold, budget, store);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut input = FuzzInput::zeroed();
    let mut base = FuzzInput::zeroed();
    base.fill_random(&mut rng);
    for exec in 0..60u64 {
        // Mostly-shared prefixes: mutate a few bytes of a fixed base so
        // the trie sees deep common ancestors (the interesting case),
        // with periodic fully-random inputs (the cold-miss case).
        if exec % 7 == 0 {
            input.fill_random(&mut rng);
        } else {
            input.bytes.copy_from_slice(&base.bytes);
            for _ in 0..rng.gen_range(0..4) {
                let i = rng.gen_range(0..input.bytes.len());
                input.bytes[i] = rng.gen();
            }
        }
        let mut trace_cached = FullTrace::default();
        let mut trace_full = FullTrace::default();
        let fb_cached = cached
            .run_iteration_with(&input, &mut trace_cached)
            .feedback;
        let fb_full = full.run_iteration_with(&input, &mut trace_full).feedback;
        assert_eq!(
            trace_cached, trace_full,
            "event streams diverged at exec {exec} (seed={seed} vendor={vendor} \
             mask={mask:?} threshold={threshold} budget={budget} store={store})"
        );
        assert_eq!(fb_cached, fb_full, "feedback diverged at exec {exec}");
        assert_eq!(
            cached.observe_guest(),
            full.observe_guest(),
            "final guest state diverged at exec {exec}"
        );
    }
    assert_eq!(cached.coverage_fraction(), full.coverage_fraction());
    assert_eq!(cached.restarts(), full.restarts());
    assert_eq!(cached.triage(), full.triage());
}

fn masks() -> [ComponentMask; 4] {
    [
        ComponentMask::ALL,
        ComponentMask {
            harness: false,
            ..ComponentMask::ALL
        },
        ComponentMask {
            validator: false,
            ..ComponentMask::ALL
        },
        ComponentMask::NONE,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized agent-level sweep: threshold 1 snapshots at *every*
    /// boundary, and the 4 KiB budget cannot hold even one node, so
    /// insertion and eviction churn on every execution — under both
    /// snapshot stores (content-addressed CoW and deep copy).
    #[test]
    fn prefix_restored_streams_equal_full_replay(
        seed in any::<u64>(),
        amd in any::<bool>(),
        mask_idx in 0usize..4,
        threshold in 1u32..4,
        tiny_budget in any::<bool>(),
        deep_store in any::<bool>(),
    ) {
        let vendor = if amd { CpuVendor::Amd } else { CpuVendor::Intel };
        let budget = if tiny_budget { 4 << 10 } else { 8 << 20 };
        let store = if deep_store {
            PrefixStoreMode::DeepCopy
        } else {
            PrefixStoreMode::Cow
        };
        assert_streams_match(seed, vendor, masks()[mask_idx], threshold, budget, store);
    }
}

#[test]
fn adversarial_eviction_stays_equivalent_and_actually_evicts() {
    for store in [PrefixStoreMode::Cow, PrefixStoreMode::DeepCopy] {
        let (mut cached, mut full) =
            agent_pair(CpuVendor::Intel, ComponentMask::ALL, 1, 4 << 10, store);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut input = FuzzInput::zeroed();
        input.fill_random(&mut rng);
        for _ in 0..20 {
            let mut a = FullTrace::default();
            let mut b = FullTrace::default();
            cached.run_iteration_with(&input, &mut a);
            full.run_iteration_with(&input, &mut b);
            assert_eq!(a, b, "store {store} diverged from full replay");
        }
        let stats = cached.engine_stats();
        assert!(
            stats.prefix_evictions > 0,
            "a 4 KiB budget must evict under {store}: {stats:?}"
        );
        assert!(
            stats.prefix_captures > stats.prefix_evictions / 2,
            "capture should keep retrying under churn ({store}): {stats:?}"
        );
    }
}

/// The two snapshot stores must be execution-equivalent to *each
/// other* under tiny-budget churn — same event streams, same hit and
/// eviction counters — differing only in byte accounting (the CoW
/// store charges unique blobs once, so it retains at least as many
/// nodes in the same budget).
#[test]
fn cow_and_deep_stores_are_execution_equivalent_under_churn() {
    let pair = |store| agent_pair(CpuVendor::Intel, ComponentMask::ALL, 1, 48 << 10, store).0;
    let mut cow = pair(PrefixStoreMode::Cow);
    let mut deep = pair(PrefixStoreMode::DeepCopy);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut input = FuzzInput::zeroed();
    let mut base = FuzzInput::zeroed();
    base.fill_random(&mut rng);
    for exec in 0..30u64 {
        if exec % 5 == 0 {
            input.fill_random(&mut rng);
        } else {
            input.bytes.copy_from_slice(&base.bytes);
            let i = rng.gen_range(0..input.bytes.len());
            input.bytes[i] = rng.gen();
        }
        let mut a = FullTrace::default();
        let mut b = FullTrace::default();
        let fa = cow.run_iteration_with(&input, &mut a).feedback;
        let fb = deep.run_iteration_with(&input, &mut b).feedback;
        assert_eq!(a, b, "stores diverged at exec {exec}");
        assert_eq!(fa, fb, "feedback diverged at exec {exec}");
    }
    assert_eq!(cow.coverage_fraction(), deep.coverage_fraction());
    assert_eq!(cow.triage(), deep.triage());
    let (cs, ds) = (cow.engine_stats(), deep.engine_stats());
    assert!(cs.prefix_captures > 0, "churn must capture: {cs:?}");
    assert!(
        cs.prefix_bytes_resident <= ds.prefix_bytes_resident || cs.prefix_nodes >= ds.prefix_nodes,
        "CoW must not retain less per byte than deep copies: {cs:?} vs {ds:?}"
    );
    assert!(
        cs.prefix_dedup_ratio() >= 1.0 && (ds.prefix_dedup_ratio() - 1.0).abs() < f64::EPSILON,
        "only the CoW store dedups: {cs:?} vs {ds:?}"
    );
}

#[test]
fn replay_oracle_reproduces_and_minimizes_identically_through_the_cache() {
    use necofuzz::campaign::run_campaign;

    // The short Xen/Intel campaign that reliably hits the
    // wait-for-SIPI hang (Table 6 bug #4) — run it prefix-cached, then
    // prove the find replays and minimizes byte-identically both ways.
    let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 4, 0)
        .with_execs_per_hour(120)
        .with_prefix_cache(true);
    let result = run_campaign(Box::new(|c| Box::new(Vxen::new(c))), &cfg);
    let find = result
        .finds
        .iter()
        .find(|f| f.bug_id == "xen-wait-for-sipi")
        .expect("the prefix-cached campaign must still find the hang");

    let oracle = |prefix: bool| {
        ReplayOracle::new(
            |c| Box::new(Vxen::new(c)),
            &cfg.clone().with_prefix_cache(prefix),
        )
    };
    let cached = oracle(true);
    let full = oracle(false);
    assert!(cached.reproduces(&find.bug_id, &find.input));
    assert_eq!(
        cached.replay(&find.input, None),
        full.replay(&find.input, None),
        "replay findings must match across cache modes"
    );
    let min_cached = cached.minimize(&find.bug_id, &find.input);
    let min_full = full.minimize(&find.bug_id, &find.input);
    assert_eq!(
        min_cached.bytes, min_full.bytes,
        "minimized reproducers must be byte-identical across cache modes"
    );
    assert!(cached.reproduces(&find.bug_id, &min_cached));
}
