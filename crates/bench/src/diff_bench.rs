//! The deterministic pipeline behind the `diff_oracle` bench binary:
//! what the cross-backend differential oracle finds — and costs — at a
//! fixed execution budget.
//!
//! Three arms, all pure functions of `(hours, execs_per_hour)` so
//! `BENCH_diff.json` is bit-reproducible and
//! `tests/diff_determinism.rs` can regenerate it and hold it
//! byte-for-byte:
//!
//! - **seeded** — a campaign against [`SEEDED_HLT_BACKEND`] (a vkvm
//!   whose reflect path misreports HLT exits as PAUSE; invisible to
//!   every sanitizer) diffed against `golden`. The oracle must find
//!   the planted misvirtualization ([`SEEDED_SIGNATURE`]), and the
//!   reproducer is minimized under the signature-preserving
//!   [`necofuzz::ReplayOracle`] built from the arm's own config, and
//!   replay-validated.
//! - **conformance** — the same budget against clean `vkvm` + `golden`.
//!   Every divergent observation must be covered by the intentional-
//!   quirk [`necofuzz::ALLOWLIST`]; a single non-allowlisted
//!   divergence is a false positive and fails the smoke gate.
//! - **overhead** — the same campaign with the oracle off. The
//!   differential oracle replays every input on every configured
//!   backend, so its cost is a deterministic multiple of the primary
//!   exec count; the arm also proves exploration is bit-identical
//!   with the oracle on or off (same execs, same coverage).

use necofuzz::campaign::{Campaign, CampaignConfig, CampaignResult};
use necofuzz::{backend_factory, OracleMode, ReplayOracle, SEEDED_HLT_BACKEND};
use nf_fuzz::Mode;
use nf_hv::CrashKind;
use nf_x86::CpuVendor;

/// The divergence signature of the planted HLT-misreport bug: against
/// `golden`, the buggy backend reflects PAUSE (reason 0x28) where bare
/// metal reflects HLT (reason 0xc).
pub const SEEDED_SIGNATURE: &str = "diff_vkvm-hltbug+golden_rfl28vrflc";

/// One divergence finding row of the seeded arm.
pub struct DiffFinding {
    /// The `(backend pair, site tag)` signature.
    pub bug_id: String,
    /// Campaign execution index of first detection.
    pub exec: u64,
    /// Human-readable first-divergent-site description.
    pub message: String,
}

/// The complete bench output plus the serialized `BENCH_diff.json`.
pub struct DiffReport {
    /// Virtual hours per campaign.
    pub hours: u32,
    /// Executions per virtual hour.
    pub execs_per_hour: u32,
    /// Divergence findings of the seeded arm, in discovery order.
    pub seeded_finds: Vec<DiffFinding>,
    /// Whether [`SEEDED_SIGNATURE`] is among them (the detection gate).
    pub seeded_found: bool,
    /// Non-zero bytes of the seeded reproducer before minimization.
    pub minimized_before: usize,
    /// Non-zero bytes after signature-preserving minimization.
    pub minimized_after: usize,
    /// Whether a clean replay of the minimized input still produces
    /// the exact seeded signature.
    pub replay_validated: bool,
    /// Sanitizer-kind findings of the seeded campaign (the planted bug
    /// must not be among them — it is silent at host level).
    pub seeded_sanitizer_finds: usize,
    /// Conformance-arm counters (`divergences` must be 0).
    pub conformance: necofuzz::DivergenceStats,
    /// Unique non-allowlisted divergence findings on the clean pair —
    /// the false-positive count, gated to 0.
    pub conformance_findings: usize,
    /// Primary-agent executions with the oracle armed.
    pub primary_execs: u64,
    /// Differential replay executions across the backend set.
    pub diff_execs: u64,
    /// Executions of the identical campaign with the oracle off.
    pub baseline_execs: u64,
    /// `(primary + diff) / baseline` — the deterministic cost factor.
    pub overhead_factor: f64,
    /// Whether exploration was bit-identical with the oracle on/off
    /// (same exec count, same final coverage).
    pub exploration_unchanged: bool,
    /// The JSON document (what the binary writes to disk).
    pub json: String,
}

/// The config of one unguided arm of the given budget, with the
/// differential oracle replaying across `diff_backends` (empty =
/// sanitizer oracle only).
fn arm_config(diff_backends: &[&str], hours: u32, execs_per_hour: u32) -> CampaignConfig {
    let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, hours, 0)
        .with_execs_per_hour(execs_per_hour)
        .with_mode(Mode::Unguided);
    if diff_backends.is_empty() {
        return cfg;
    }
    cfg.with_oracle(OracleMode::Differential)
        .with_diff_backends(diff_backends)
}

/// Runs one arm ([`arm_config`]) against `target`.
fn run_arm(
    target: &str,
    diff_backends: &[&str],
    hours: u32,
    execs_per_hour: u32,
) -> CampaignResult {
    let cfg = arm_config(diff_backends, hours, execs_per_hour);
    let factory = backend_factory(target).expect("known backend");
    let mut campaign = Campaign::new(factory, &cfg);
    campaign.run_hours(hours);
    campaign.into_result()
}

fn build_json(r: &DiffReport) -> String {
    let finds: Vec<String> = r
        .seeded_finds
        .iter()
        .map(|f| {
            format!(
                "      {{\"bug_id\": \"{}\", \"exec\": {}, \"message\": \"{}\"}}",
                f.bug_id, f.exec, f.message
            )
        })
        .collect();
    let finds = if finds.is_empty() {
        String::new()
    } else {
        format!("\n{}\n    ", finds.join(",\n"))
    };
    let c = &r.conformance;
    format!(
        "{{\n  \"bench\": \"diff_oracle\",\n  \
         \"metric\": \"divergences found and replay overhead of the cross-backend \
         differential oracle at a fixed execution budget\",\n  \
         \"budget\": {{\"hours\": {}, \"execs_per_hour\": {}}},\n  \
         \"seeded\": {{\n    \
         \"backends\": [\"{}\", \"golden\"],\n    \
         \"seeded_signature\": \"{}\",\n    \"seeded_found\": {},\n    \
         \"divergence_findings\": [{finds}],\n    \
         \"sanitizer_findings\": {},\n    \
         \"minimized_reproducer\": {{\"nonzero_bytes_before\": {}, \
         \"nonzero_bytes_after\": {}, \"replay_validated\": {}}}\n  }},\n  \
         \"conformance\": {{\n    \"backends\": [\"vkvm\", \"golden\"],\n    \
         \"execs_compared\": {}, \"divergences\": {}, \"allowed\": {}, \
         \"crash_skipped\": {},\n    \"false_positive_findings\": {}\n  }},\n  \
         \"overhead\": {{\n    \"baseline_execs\": {}, \"primary_execs\": {}, \
         \"diff_execs\": {},\n    \"execs_factor\": {:.2}, \
         \"exploration_unchanged\": {}\n  }}\n}}\n",
        r.hours,
        r.execs_per_hour,
        SEEDED_HLT_BACKEND,
        SEEDED_SIGNATURE,
        r.seeded_found,
        r.seeded_sanitizer_finds,
        r.minimized_before,
        r.minimized_after,
        r.replay_validated,
        c.execs_compared,
        c.divergences,
        c.allowed,
        c.crash_skipped,
        r.conformance_findings,
        r.baseline_execs,
        r.primary_execs,
        r.diff_execs,
        r.overhead_factor,
        r.exploration_unchanged,
    )
}

/// Runs the whole bench pipeline: seeded arm, conformance arm,
/// oracle-off baseline.
pub fn run(hours: u32, execs_per_hour: u32) -> DiffReport {
    let seeded_pair = [SEEDED_HLT_BACKEND, "golden"];
    let seeded = run_arm(SEEDED_HLT_BACKEND, &seeded_pair, hours, execs_per_hour);
    let seeded_finds: Vec<DiffFinding> = seeded
        .finds
        .iter()
        .filter(|f| f.kind == CrashKind::Divergence)
        .map(|f| DiffFinding {
            bug_id: f.bug_id.clone(),
            exec: f.exec,
            message: f.message.clone(),
        })
        .collect();
    let seeded_sanitizer_finds = seeded.finds.len() - seeded_finds.len();

    let planted = seeded.finds.iter().find(|f| f.bug_id == SEEDED_SIGNATURE);
    let (minimized_before, minimized_after, replay_validated) = match planted {
        Some(find) => {
            let oracle = ReplayOracle::new(
                backend_factory(SEEDED_HLT_BACKEND).expect("known backend"),
                &arm_config(&seeded_pair, hours, execs_per_hour),
            );
            let minimized = oracle.minimize(&find.bug_id, &find.input);
            let nonzero =
                |input: &nf_fuzz::FuzzInput| input.bytes.iter().filter(|&&b| b != 0).count();
            (
                nonzero(&find.input),
                nonzero(&minimized),
                oracle.reproduces(&find.bug_id, &minimized),
            )
        }
        None => (0, 0, false),
    };

    let conf = run_arm("vkvm", &["vkvm", "golden"], hours, execs_per_hour);
    let conformance_findings = conf
        .finds
        .iter()
        .filter(|f| f.kind == CrashKind::Divergence)
        .count();

    let baseline = run_arm(SEEDED_HLT_BACKEND, &[], hours, execs_per_hour);
    let overhead_factor = (seeded.execs + seeded.diff_execs) as f64 / baseline.execs as f64;
    let exploration_unchanged =
        baseline.execs == seeded.execs && baseline.final_coverage == seeded.final_coverage;

    let mut report = DiffReport {
        hours,
        execs_per_hour,
        seeded_found: planted.is_some(),
        seeded_finds,
        minimized_before,
        minimized_after,
        replay_validated,
        seeded_sanitizer_finds,
        conformance: conf.divergence,
        conformance_findings,
        primary_execs: seeded.execs,
        diff_execs: seeded.diff_execs,
        baseline_execs: baseline.execs,
        overhead_factor,
        exploration_unchanged,
        json: String::new(),
    };
    report.json = build_json(&report);
    report
}
