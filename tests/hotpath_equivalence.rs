//! Hot-path equivalence: the zero-allocation exec loop must be
//! bit-identical to the allocating path it replaced.
//!
//! Two layers of evidence:
//!
//! 1. **Campaign grid vs the allocating driver.** A driver built on
//!    the compat pieces — `Fuzzer::next_input` (allocating) and
//!    `Agent::run_iteration_alloc` (fresh trace/bitmap/lines per exec)
//!    — replays the product campaign protocol, lone and synced, havoc
//!    and structured. Results, corpora, and triage must match the
//!    product path (`run_campaign` / `run_campaign_group`, which runs
//!    on `Fuzzer::next_input_into` + scratch-borrowing
//!    `run_iteration`) exactly.
//! 2. **Committed bench files.** `BENCH_sync.json` and
//!    `BENCH_mutators.json` were generated before this engine existed
//!    and are bit-reproducible; regenerating them through
//!    `nf_bench::{sync_bench, mutator_bench}` on the new hot path must
//!    reproduce the committed bytes exactly.

use necofuzz::campaign::{
    run_campaign, run_campaign_group, CampaignConfig, CampaignResult, GroupMember,
};
use necofuzz::Agent;
use nf_fuzz::{DeltaBus, Fuzzer, GossipNode, Mode, MutationStrategy, SyncStats};
use nf_x86::CpuVendor;

fn factory() -> necofuzz::campaign::HvFactory {
    nf_bench::factory("vkvm")
}

/// A campaign driven entirely on the compat allocating path: the exact
/// loop `Campaign::run_hours` ships, with every scratch-reusing call
/// replaced by its allocating twin, and a sync group's gossip turn
/// spelled out on the corpus and bus calls.
struct AllocCampaign {
    agent: Agent,
    fuzzer: Fuzzer,
    cfg: CampaignConfig,
    hourly: Vec<f64>,
    hour_execs: u32,
    adopted: u64,
    /// What the corpus sync calls record (diagnostic, never compared).
    sync: SyncStats,
}

impl AllocCampaign {
    fn new(cfg: &CampaignConfig, worker: u32) -> Self {
        let agent = Agent::new(factory(), cfg.vendor, cfg.mask);
        let mut fuzzer = Fuzzer::with_strategy(cfg.seed, cfg.mode, cfg.strategy);
        fuzzer.set_worker(worker);
        AllocCampaign {
            agent,
            fuzzer,
            cfg: cfg.clone(),
            hourly: Vec::new(),
            hour_execs: 0,
            adopted: 0,
            sync: SyncStats::default(),
        }
    }

    fn run_hours(&mut self, n: u32) {
        for _ in 0..n * self.cfg.execs_per_hour {
            self.run_exec();
        }
    }

    /// One execution, sampling coverage when it completes an hour.
    fn run_exec(&mut self) {
        let input = self.fuzzer.next_input();
        let result = self.agent.run_iteration_alloc(&input);
        self.fuzzer
            .report_observed(&input, &result.bitmap, &result.lines, result.feedback);
        self.hour_execs += 1;
        if self.hour_execs == self.cfg.execs_per_hour {
            self.hour_execs = 0;
            self.hourly.push(self.agent.coverage_fraction());
        }
    }

    /// One gossip turn of worker `w`: publish unpublished novelty,
    /// then drain the peers' fresh records, evidence-merge each one
    /// (folding the adopted entries' lines into the coverage) and
    /// relay it. Returns how many records moved.
    fn gossip(&mut self, node: &mut GossipNode, bus: &mut DeltaBus, w: u32) -> usize {
        let mut moved = 0;
        let corpus = self.fuzzer.corpus_mut();
        if corpus.has_unpublished() {
            let delta = corpus.take_delta_async(&mut self.sync);
            if !delta.is_empty() {
                node.note_published(&bus.publish_own(delta));
                moved += 1;
            }
        }
        for rec in node.drain(bus) {
            let before = self.fuzzer.corpus().len();
            let adopted = self
                .fuzzer
                .corpus_mut()
                .apply_delta(&rec.delta, &mut self.sync);
            for entry in self.fuzzer.corpus().entries().skip(before) {
                self.agent.cumulative.union_with(&entry.lines);
            }
            self.adopted += adopted as u64;
            bus.relay(w, rec);
            moved += 1;
        }
        moved
    }

    /// Asserts this alloc-path campaign landed exactly where the
    /// product result did.
    fn assert_matches(&self, product: &CampaignResult, label: &str) {
        let got: Vec<f64> = product.hourly.iter().map(|h| h.coverage).collect();
        assert_eq!(self.hourly, got, "{label}: hourly coverage diverged");
        assert_eq!(
            self.agent.coverage_fraction(),
            product.final_coverage,
            "{label}: final coverage diverged"
        );
        assert_eq!(
            self.agent.cumulative, product.lines,
            "{label}: covered-line sets diverged"
        );
        assert_eq!(self.agent.execs(), product.execs, "{label}: execs diverged");
        assert_eq!(
            self.agent.restarts(),
            product.restarts,
            "{label}: restarts diverged"
        );
        assert_eq!(
            self.agent.triage().finds(),
            &product.finds[..],
            "{label}: triage diverged"
        );
        assert_eq!(
            self.fuzzer.corpus(),
            &product.corpus,
            "{label}: corpora diverged"
        );
        assert_eq!(self.adopted, product.adopted, "{label}: adoptions diverged");
    }
}

/// The seeded grid: both strategies, plus the product-default unguided
/// mode, each as a lone campaign and as a 2-worker synced group.
fn grid() -> Vec<(&'static str, CampaignConfig)> {
    let base = |seed| CampaignConfig::necofuzz(CpuVendor::Intel, 5, seed).with_execs_per_hour(40);
    vec![
        ("unguided/havoc", base(3)),
        (
            "guided/havoc",
            base(4)
                .with_mode(Mode::Guided)
                .with_strategy(MutationStrategy::Havoc),
        ),
        (
            "guided/structured",
            base(5)
                .with_mode(Mode::Guided)
                .with_strategy(MutationStrategy::Structured),
        ),
    ]
}

#[test]
fn lone_campaigns_match_the_allocating_path() {
    for (label, cfg) in grid() {
        let product = run_campaign(factory(), &cfg);
        let mut alloc = AllocCampaign::new(&cfg, 0);
        alloc.run_hours(cfg.hours);
        alloc.assert_matches(&product, label);
    }
}

#[test]
fn synced_groups_match_the_allocating_path() {
    for (label, cfg) in grid() {
        let cfg = cfg.with_sync_interval(1);
        let members: Vec<GroupMember> = (0..2)
            .map(|w| {
                let mut m = cfg.clone();
                m.seed = cfg.seed + w;
                (factory(), m)
            })
            .collect();
        let product = run_campaign_group(members);

        // Replay the group protocol on the alloc path: members step
        // one exec at a time in worker-id order, each followed by its
        // gossip turn, and after the last hour the group keeps
        // draining until no record moves.
        let n = 2u32;
        let mut campaigns: Vec<AllocCampaign> = (0..n)
            .map(|w| {
                let mut m = cfg.clone();
                m.seed = cfg.seed + u64::from(w);
                let mut c = AllocCampaign::new(&m, w);
                c.fuzzer.set_recording(true);
                c
            })
            .collect();
        let mut bus = DeltaBus::new(n as usize);
        let mut nodes: Vec<GossipNode> = (0..n)
            .map(|w| GossipNode::new(w, n, cfg.sync_topology))
            .collect();
        for _ in 0..cfg.hours * cfg.execs_per_hour {
            for (w, c) in campaigns.iter_mut().enumerate() {
                c.run_exec();
                c.gossip(&mut nodes[w], &mut bus, w as u32);
            }
        }
        loop {
            let mut moved = 0;
            for (w, c) in campaigns.iter_mut().enumerate() {
                moved += c.gossip(&mut nodes[w], &mut bus, w as u32);
            }
            if moved == 0 {
                break;
            }
        }
        for (worker, (alloc, result)) in campaigns.iter().zip(&product).enumerate() {
            alloc.assert_matches(result, &format!("{label} synced worker {worker}"));
        }
    }
}

/// The committed bench files were produced by the pre-scratch engine;
/// regenerating them on the new hot path must reproduce every byte.
#[test]
fn bench_sync_json_reproduces_byte_for_byte() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_sync.json"))
            .expect("committed BENCH_sync.json");
    let report = nf_bench::sync_bench::run(24, 120);
    assert_eq!(
        report.json, committed,
        "BENCH_sync.json no longer reproduces on the new hot path"
    );
}

#[test]
fn bench_mutators_json_reproduces_byte_for_byte() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_mutators.json"))
            .expect("committed BENCH_mutators.json");
    let report = nf_bench::mutator_bench::run(24, 120, &nf_bench::mutator_bench::SEEDS);
    assert_eq!(
        report.json, committed,
        "BENCH_mutators.json no longer reproduces on the new hot path"
    );
}
