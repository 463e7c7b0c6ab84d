//! Golden-model conformance suite: across random scenarios, agent
//! configurations and vendors, `vkvm` must show its L1
//! guest exactly what the bare-metal [`nf_hv::SiliconGolden`] model
//! would — every divergence must fall under the explicit
//! intentional-quirk [`necofuzz::ALLOWLIST`]. A single non-allowlisted
//! divergence here is a false positive of the differential oracle
//! (and would poison every campaign that arms it).
//!
//! `vxen`/`vvbox` are deliberately *not* conformance targets: their
//! models encode real misbehavior (Xen's activity-state passthrough,
//! VirtualBox's missing MSR-load checks), so their divergences against
//! golden are true positives the oracle exists to find.

use necofuzz::differential::{allowed_by, DifferentialRunner, DivergenceSite, ObsResult};
use necofuzz::{ComponentMask, EngineMode, ALLOWLIST};
use nf_fuzz::FuzzInput;
use nf_x86::CpuVendor;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn conformance_pair() -> Vec<String> {
    vec!["vkvm".to_string(), "golden".to_string()]
}

/// Component-mask grid: the full agent plus each component ablated —
/// conformance may not depend on which scenario generator produced the
/// input.
fn masks() -> [ComponentMask; 4] {
    let ablate = |f: fn(&mut ComponentMask)| {
        let mut m = ComponentMask::ALL;
        f(&mut m);
        m
    };
    [
        ComponentMask::ALL,
        ablate(|m| m.harness = false),
        ablate(|m| m.validator = false),
        ablate(|m| m.configurator = false),
    ]
}

/// Runs `execs` random inputs through the conformance pair and asserts
/// every divergence was allowlisted (no triage findings).
fn assert_conformant(seed: u64, vendor: CpuVendor, mask: ComponentMask, execs: u64) {
    let mut runner =
        DifferentialRunner::new(&conformance_pair(), vendor, mask, EngineMode::Snapshot);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut input = FuzzInput::zeroed();
    for exec in 0..execs {
        input.fill_random(&mut rng);
        runner.observe_exec(&input, exec);
    }
    let findings: Vec<String> = runner
        .triage()
        .iter()
        .map(|f| format!("{} ({})", f.bug_id, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "non-allowlisted vkvm/golden divergence under seed={seed} vendor={vendor} \
         mask={mask:?}: {findings:?}"
    );
    assert_eq!(runner.stats().divergences, 0);
    assert_eq!(runner.stats().execs_compared, execs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The conformance grid: random seed x vendor x component mask,
    /// each cell diffing a batch of random scenarios. `_engine` once
    /// chose between two execution engines; it is still drawn so every
    /// case keeps the seed, vendor and mask it has always run.
    #[test]
    fn vkvm_conforms_to_golden(
        seed in any::<u64>(),
        amd in any::<bool>(),
        _engine in any::<bool>(),
        mask_idx in 0usize..4,
    ) {
        let vendor = if amd { CpuVendor::Amd } else { CpuVendor::Intel };
        assert_conformant(seed, vendor, masks()[mask_idx], 50);
    }
}

#[test]
fn conformance_holds_over_a_long_run_and_exercises_the_allowlist() {
    let mut runner = DifferentialRunner::new(
        &conformance_pair(),
        CpuVendor::Intel,
        ComponentMask::ALL,
        EngineMode::Snapshot,
    );
    let mut rng = SmallRng::seed_from_u64(0);
    let mut input = FuzzInput::zeroed();
    for exec in 0..1000u64 {
        input.fill_random(&mut rng);
        runner.observe_exec(&input, exec);
    }
    let stats = runner.stats();
    assert!(
        runner.triage().is_empty(),
        "false positive on the clean pair"
    );
    assert_eq!(stats.divergences, 0);
    // The run is long enough that the intentional quirks actually
    // occur — an allowlist nothing ever matches would be untested dead
    // weight — and some executions crash (owned by the sanitizers).
    assert!(stats.allowed > 0, "allowlist never exercised: {stats:?}");
    assert!(
        stats.crash_skipped > 0,
        "crash-skip never exercised: {stats:?}"
    );
}

#[test]
fn allowlist_is_the_reviewed_two_rule_table() {
    // The table is policy, reviewed rule by rule: additions must be
    // deliberate (update this list alongside the docs), and every rule
    // carries its justification.
    let names: Vec<&str> = ALLOWLIST.iter().map(|r| r.name).collect();
    assert_eq!(names, ["l0-entry-hardening", "entry-check-order"]);
    for rule in ALLOWLIST {
        assert!(
            !rule.why.is_empty(),
            "rule {} is missing its justification",
            rule.name
        );
    }
    // Spot-check the policy's teeth: an exit-reason disagreement is
    // never an intentional quirk, on any orientation of any pair.
    let reflected = DivergenceSite::Event {
        index: 0,
        a: ObsResult::Reflected(0x28),
        b: ObsResult::Reflected(0xc),
    };
    for (a, b) in [("vkvm", "golden"), ("golden", "vkvm"), ("vkvm", "vxen")] {
        assert!(allowed_by(a, b, &reflected).is_none());
    }
}
