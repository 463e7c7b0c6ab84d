//! Divergence findings survive the whole reproduction pipeline: the
//! planted misvirtualization is found by diffing (and only by
//! diffing — every sanitizer stays silent), its reproducer minimizes
//! under the signature-preserving oracle without flipping to a
//! different divergence, and `necofuzz corpus repro` recovers the
//! recorded backend pair from the saved crash file and replays the
//! first-divergent exit.

use nf_fuzz::FuzzInput;
use nf_x86::CpuVendor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use necofuzz::differential::{DifferentialRunner, SEEDED_HLT_BACKEND};
use necofuzz::triage::minimize_input;
use necofuzz::{
    backend_factory, CampaignConfig, ComponentMask, EngineMode, OracleMode, ReplayOracle,
};

/// The planted bug's divergence signature: the buggy vkvm reflects
/// PAUSE (0x28) where bare metal reflects HLT (0xc).
const SEEDED_SIGNATURE: &str = "diff_vkvm-hltbug+golden_rfl28vrflc";

fn seeded_pair() -> Vec<String> {
    vec![SEEDED_HLT_BACKEND.to_string(), "golden".to_string()]
}

/// The replay oracle of a differential campaign fuzzing the seeded-bug
/// backend against `golden`.
fn seeded_oracle() -> ReplayOracle {
    let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 1, 0)
        .with_oracle(OracleMode::Differential)
        .with_diff_backends(&[SEEDED_HLT_BACKEND, "golden"]);
    ReplayOracle::new(
        backend_factory(SEEDED_HLT_BACKEND).expect("known backend"),
        &cfg,
    )
}

/// Finds the planted HLT-misreport divergence by random search: the
/// bug needs an input that reaches L2 with HLT exiting armed and
/// executes HLT there, which a few hundred random inputs reliably
/// contain. Some divergent inputs only fire against the exact oracle
/// corrections the search runner's validators had learned by that
/// point, so the search keeps going until one reproduces from a clean
/// context — the contract every saved finding must meet.
fn find_seeded_divergence() -> (String, FuzzInput) {
    let mut runner = DifferentialRunner::new(
        &seeded_pair(),
        CpuVendor::Intel,
        ComponentMask::ALL,
        EngineMode::Snapshot,
    );
    let oracle = seeded_oracle();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut input = FuzzInput::zeroed();
    for exec in 0..2000u64 {
        input.fill_random(&mut rng);
        // `divergences`, not the triage length: the triage dedups by
        // signature, and later replayable hits of an already-recorded
        // signature are exactly what this search is after.
        let before = runner.stats().divergences;
        runner.observe_exec(&input, exec);
        if runner.stats().divergences > before && oracle.reproduces(SEEDED_SIGNATURE, &input) {
            return (SEEDED_SIGNATURE.to_string(), input.clone());
        }
    }
    panic!("no clean-context seeded divergence within 2000 random inputs");
}

#[test]
fn seeded_bug_is_found_by_diffing_and_missed_by_sanitizers() {
    let (bug_id, input) = find_seeded_divergence();
    assert_eq!(bug_id, SEEDED_SIGNATURE);

    // The differential oracle replays it from clean runners.
    let oracle = seeded_oracle();
    let replayed = oracle.replay(&input, None);
    assert!(
        replayed.iter().any(|(id, _, _)| id == SEEDED_SIGNATURE),
        "divergence replay lost the signature: {replayed:?}"
    );

    // The sanitizer oracle cannot see the planted bug: replaying the
    // same input on the buggy backend finds exactly what it finds on
    // clean vkvm — the misreported exit reason leaves the host
    // healthy, so the lie is only visible against a second backend.
    let replay_sanitizers = |backend: &str| {
        ReplayOracle::new(
            backend_factory(backend).expect("known backend"),
            &CampaignConfig::necofuzz(CpuVendor::Intel, 1, 0),
        )
        .replay(&input, None)
    };
    let buggy = replay_sanitizers(SEEDED_HLT_BACKEND);
    assert_eq!(
        buggy,
        replay_sanitizers("vkvm"),
        "the planted bug must add nothing the sanitizer oracle can see"
    );
    assert!(
        !buggy.iter().any(|(id, _, _)| id == SEEDED_SIGNATURE),
        "sanitizers cannot name the divergence"
    );
}

#[test]
fn minimization_preserves_the_divergence_signature() {
    let (bug_id, input) = find_seeded_divergence();
    let oracle = seeded_oracle();
    let minimized = oracle.minimize(&bug_id, &input);
    let nonzero = |input: &FuzzInput| input.bytes.iter().filter(|&&b| b != 0).count();
    assert!(
        nonzero(&minimized) < nonzero(&input),
        "minimization made no progress: {} -> {}",
        nonzero(&input),
        nonzero(&minimized)
    );
    assert!(
        oracle.reproduces(&bug_id, &minimized),
        "minimized reproducer no longer diverges with the original signature"
    );
}

#[test]
fn signature_check_rejects_truncations_that_flip_the_divergent_exit() {
    // A crafted scenario whose truncation still diverges — but
    // differently: byte 0 selects which exit the backends disagree on,
    // so zeroing it keeps the input divergent while flipping the
    // signature. A naive "still diverges" minimizer (the plain crash
    // minimizer's condition) happily zeroes it; the signature check
    // `ReplayOracle::minimize` applies to divergence ids must keep it.
    let mut input = FuzzInput::zeroed();
    input.bytes[0] = 5;
    input.bytes[100] = 9;
    let signature = |input: &FuzzInput| {
        if input.bytes[0] != 0 {
            "rfl1vrfl2"
        } else {
            "rfl3vrfl4"
        }
    };
    let original = signature(&input);

    let naive = minimize_input(&input, |_| true); // "any divergence counts"
    assert_ne!(
        signature(&naive),
        original,
        "this scenario must flip under naive truncation to be a regression test"
    );

    let kept = minimize_input(&input, |candidate| signature(candidate) == original);
    assert_eq!(signature(&kept), original);
    assert_ne!(kept.bytes[0], 0, "the signature-carrying byte must survive");
    assert_eq!(
        kept.bytes[100], 0,
        "bytes the signature ignores must be dropped"
    );
}

#[test]
fn corpus_repro_cli_replays_divergence_findings_across_the_recorded_pair() {
    let (bug_id, input) = find_seeded_divergence();

    // Save the crash file exactly as a campaign would (`save_crashes`
    // embeds the bug id — and thus the backend pair — in the name).
    let dir = std::env::temp_dir().join(format!("nf_divergence_repro_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("crash-s007-exec000298-{bug_id}.bin"));
    std::fs::write(&path, &input.bytes).expect("write crash input");

    let repro = |path: &std::path::Path, extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_necofuzz"))
            .args(["corpus", "repro", path.to_str().expect("utf-8 path")])
            .args(extra)
            .output()
            .expect("run necofuzz corpus repro")
    };
    let output = repro(&path, &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);

    // A recovered pair goes through the same backend/vendor check as
    // `--diff-backends`: VirtualBox's model is Intel-only, so replaying
    // a vvbox pair on AMD is a usage error, not a panic.
    let vvbox = dir.join("crash-s000-exec000001-diff_vvbox+golden_x.bin");
    std::fs::write(&vvbox, &input.bytes).expect("write crash input");
    let amd = repro(&vvbox, &["--vendor", "amd"]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        amd.status.code(),
        Some(2),
        "a vvbox pair on AMD must be rejected\nstderr: {}",
        String::from_utf8_lossy(&amd.stderr)
    );
    assert!(
        String::from_utf8_lossy(&amd.stderr).contains("vvbox supports only --vendor intel"),
        "missing vendor diagnostic: {}",
        String::from_utf8_lossy(&amd.stderr)
    );

    assert!(
        output.status.success(),
        "corpus repro exited {:?}\nstdout: {stdout}\nstderr: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    // It recovered the pair from the filename, replayed differentially,
    // and printed the first-divergent exit.
    assert!(
        stdout.contains("replaying across vkvm-hltbug+golden"),
        "missing pair detection: {stdout}"
    );
    assert!(
        stdout.contains(SEEDED_SIGNATURE),
        "missing signature: {stdout}"
    );
    assert!(
        stdout.contains("reflected(0x28) != reflected(0xc)"),
        "missing first-divergent exit diff: {stdout}"
    );
}
