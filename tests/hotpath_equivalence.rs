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
use nf_fuzz::{Fuzzer, Mode, MutationStrategy, SharedCorpus};
use nf_x86::CpuVendor;

fn factory() -> necofuzz::campaign::HvFactory {
    nf_bench::factory("vkvm")
}

/// A campaign driven entirely on the compat allocating path: the exact
/// loop `Campaign::run_hours` ships, with every scratch-reusing call
/// replaced by its allocating twin.
struct AllocCampaign {
    agent: Agent,
    fuzzer: Fuzzer,
    cfg: CampaignConfig,
    hourly: Vec<f64>,
    adopted: u64,
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
            adopted: 0,
        }
    }

    fn run_hours(&mut self, n: u32) {
        for _ in 0..n {
            for _ in 0..self.cfg.execs_per_hour {
                let input = self.fuzzer.next_input();
                let result = self.agent.run_iteration_alloc(&input);
                self.fuzzer
                    .report_observed(&input, &result.bitmap, &result.lines, result.feedback);
            }
            self.hourly.push(self.agent.coverage_fraction());
        }
    }

    fn adopt(&mut self, shared: &SharedCorpus) {
        let inputs = shared.adopt_into(self.fuzzer.corpus_mut());
        for input in &inputs {
            let result = self.agent.run_iteration_alloc(input);
            self.fuzzer
                .report_observed(input, &result.bitmap, &result.lines, result.feedback);
        }
        self.adopted += inputs.len() as u64;
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
/// mode, each as a lone campaign and as a 2-worker hourly-synced group.
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

        // Replay the exact group protocol (lockstep hours, publish →
        // commit → adopt at interior boundaries) on the alloc path.
        let mut campaigns: Vec<AllocCampaign> = (0..2u32)
            .map(|w| {
                let mut m = cfg.clone();
                m.seed = cfg.seed + u64::from(w);
                let mut c = AllocCampaign::new(&m, w);
                c.fuzzer.set_recording(true);
                c
            })
            .collect();
        let shared = SharedCorpus::new();
        for done in 1..=cfg.hours {
            for c in &mut campaigns {
                c.run_hours(1);
            }
            if done < cfg.hours && done % cfg.sync_interval == 0 {
                for c in &mut campaigns {
                    let delta = c.fuzzer.corpus_mut().take_delta();
                    shared.publish(delta);
                }
                shared.commit_epoch();
                for c in &mut campaigns {
                    c.adopt(&shared);
                }
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
