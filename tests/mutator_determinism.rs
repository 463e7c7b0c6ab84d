//! Mutation-strategy determinism: introducing the structured scenario
//! engine must not perturb the original havoc engine by a single bit.
//!
//! 1. **havoc == default**: `--mutator havoc` (the explicit strategy)
//!    reproduces the default-configured campaigns — guided and
//!    unguided, lone and synced — bit-identically, corpora included.
//!    Together with the `sync_determinism` and `hotpath_equivalence`
//!    suites (which run the default path) this pins the havoc stream
//!    to its pre-structured behavior.
//! 2. **structured is deterministic**: a structured campaign is a pure
//!    function of its config, and genuinely different from havoc.

use necofuzz::campaign::{run_campaign, run_campaign_group, CampaignConfig, GroupMember};
use necofuzz::MutationStrategy;
use nf_fuzz::Mode;
use nf_hv::Vkvm;
use nf_x86::CpuVendor;

const HOURS: u32 = 3;
const EXECS_PER_HOUR: u32 = 40;

fn factory() -> necofuzz::campaign::HvFactory {
    Box::new(|c| Box::new(Vkvm::new(c)))
}

fn cfg(seed: u64, mode: Mode) -> CampaignConfig {
    CampaignConfig::necofuzz(CpuVendor::Intel, HOURS, seed)
        .with_execs_per_hour(EXECS_PER_HOUR)
        .with_mode(mode)
}

#[test]
fn explicit_havoc_reproduces_default_campaigns_bit_identically() {
    for mode in [Mode::Guided, Mode::Unguided] {
        for seed in 0..3 {
            let default = run_campaign(factory(), &cfg(seed, mode));
            let explicit = run_campaign(
                factory(),
                &cfg(seed, mode).with_strategy(MutationStrategy::Havoc),
            );
            assert_eq!(
                default, explicit,
                "--mutator havoc diverged from the default ({mode:?}, seed {seed})"
            );
            assert_eq!(default.corpus, explicit.corpus);
        }
    }
}

#[test]
fn explicit_havoc_reproduces_synced_groups_bit_identically() {
    let members = |strategy: Option<MutationStrategy>| -> Vec<GroupMember> {
        (0..3)
            .map(|seed| {
                let mut c = cfg(seed, Mode::Guided).with_sync_interval(1);
                if let Some(s) = strategy {
                    c = c.with_strategy(s);
                }
                (factory(), c)
            })
            .collect()
    };
    let default = run_campaign_group(members(None));
    let explicit = run_campaign_group(members(Some(MutationStrategy::Havoc)));
    assert_eq!(default, explicit, "synced havoc group diverged");
    assert!(
        default.iter().any(|r| r.adopted > 0),
        "the group must actually exchange corpus entries"
    );
}

#[test]
fn structured_campaigns_are_deterministic_and_distinct_from_havoc() {
    let structured = |seed| {
        run_campaign(
            factory(),
            &cfg(seed, Mode::Guided).with_strategy(MutationStrategy::Structured),
        )
    };
    let a = structured(1);
    let b = structured(1);
    assert_eq!(a, b, "structured runs must be pure functions of the config");

    let havoc = run_campaign(factory(), &cfg(1, Mode::Guided));
    assert_ne!(
        a.lines, havoc.lines,
        "the two strategies must explore differently"
    );
    // The seed corpus and RNG stream are shared; only the
    // parent→child transform differs — so execs line up exactly.
    assert_eq!(a.execs, havoc.execs);
}

#[test]
fn unguided_campaigns_ignore_the_strategy() {
    // Unguided generation never consults a queue parent, so the
    // strategy must be inert there.
    let havoc = run_campaign(factory(), &cfg(2, Mode::Unguided));
    let structured = run_campaign(
        factory(),
        &cfg(2, Mode::Unguided).with_strategy(MutationStrategy::Structured),
    );
    assert_eq!(havoc.hourly, structured.hourly);
    assert_eq!(havoc.lines, structured.lines);
    assert_eq!(havoc.finds, structured.finds);
}
