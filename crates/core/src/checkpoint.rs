//! Campaign checkpoint persistence: periodic on-disk snapshots of a
//! running campaign and the resume path that continues from one.
//!
//! A checkpoint captures everything the exec stream depends on — the
//! mutation RNG position, the corpus, the adaptive scheduler, the
//! cumulative coverage, the triage index, the learned oracle
//! corrections, and the fault-injection fire counters — so a campaign
//! killed at any point and resumed from its last checkpoint converges
//! to the *identical* [`crate::campaign::CampaignResult`] an
//! uninterrupted run produces. `fault_tolerance --smoke` gates that
//! equality; the proptest suite covers it across backend × vendor ×
//! strategy.
//!
//! The format is a versioned, dependency-free text STATE file next to
//! a standard corpus save:
//!
//! ```text
//! dir/
//!   STATE     key-value lines (counters, RNG words, finds, corrections)
//!   corpus/   [`Corpus::save_to`] tree
//! ```
//!
//! Writes are atomic at directory granularity: the whole tree is
//! staged into a sibling `<dir>.tmp` and swapped into place with
//! renames (the previous checkpoint briefly becomes `<dir>.old`), so a
//! host that dies mid-checkpoint leaves either the old complete
//! checkpoint or the new one — never a torn mix. The reader falls back
//! to `<dir>.old` when a crash landed between the two renames.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nf_fuzz::{Corpus, FuzzInput, FuzzerState, Operator, ProfileState, HAVOC_ARMS};
use nf_hv::CrashKind;

use crate::agent::BugFind;
use crate::campaign::{Campaign, HourSample};

/// On-disk checkpoint format version (bump on layout changes).
const FORMAT_VERSION: u32 = 1;

/// One persisted triage find (a [`BugFind`] flattened for the STATE
/// file; the input travels as raw bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct FindRecord {
    /// Stable bug identifier.
    pub bug_id: String,
    /// Detector that fired.
    pub kind: CrashKind,
    /// Diagnostic message.
    pub message: String,
    /// Execution index of first sighting.
    pub exec: u64,
    /// The triggering input's bytes.
    pub input: Vec<u8>,
}

impl FindRecord {
    /// Flattens a live triage find for persistence.
    pub fn of(find: &BugFind) -> FindRecord {
        FindRecord {
            bug_id: find.bug_id.clone(),
            kind: find.kind,
            message: find.message.clone(),
            exec: find.exec,
            input: find.input.bytes.clone(),
        }
    }

    /// Rebuilds the live triage record (the inverse of
    /// [`FindRecord::of`]).
    pub fn into_find(self) -> BugFind {
        BugFind {
            bug_id: self.bug_id,
            kind: self.kind,
            message: self.message,
            exec: self.exec,
            input: Arc::new(FuzzInput { bytes: self.input }),
        }
    }
}

/// Everything a [`Campaign`] needs besides its corpus to continue
/// exactly where it stood — the in-memory image of a STATE file.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// The campaign's RNG seed — a resume guard: resuming under a
    /// different seed is a config mismatch, not a continuation.
    pub seed: u64,
    /// Virtual hours completed.
    pub hour: u32,
    /// Executions inside the current incomplete hour (always zero for
    /// checkpoints written at hour boundaries; kept for generality).
    pub hour_execs: u32,
    /// Corpus entries adopted from sync-group siblings.
    pub adopted: u64,
    /// Hourly coverage samples so far.
    pub hourly: Vec<HourSample>,
    /// Corpus size at each completed hour (yield-alarm input).
    pub corpus_marks: Vec<u64>,
    /// The fuzzer's non-corpus state (RNG position, counters,
    /// scheduler).
    pub fuzzer: FuzzerState,
    /// The agent's lifetime exec count.
    pub agent_execs: u64,
    /// The agent's watchdog-restart count.
    pub agent_restarts: u64,
    /// The cumulative covered-line set, as raw bitset words.
    pub cumulative: Vec<u64>,
    /// Learned oracle corrections, as `(rule, detail)` pairs in
    /// discovery order.
    pub corrections: Vec<(String, String)>,
    /// Unique triage finds in discovery order.
    pub finds: Vec<FindRecord>,
    /// Injected hang faults fired so far.
    pub fault_hangs: u64,
    /// Injected host-death faults fired so far.
    pub fault_deaths: u64,
}

/// Writes `campaign`'s full resumable state to `dir` atomically.
pub fn write_checkpoint(campaign: &Campaign, dir: &Path) -> io::Result<()> {
    let state = campaign.checkpoint_snapshot();
    let tmp = sibling(dir, ".tmp");
    let old = sibling(dir, ".old");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp)?;
    std::fs::write(tmp.join("STATE"), render_state(&state))?;
    campaign.corpus().save_to(tmp.join("corpus"))?;
    let _ = std::fs::remove_dir_all(&old);
    if dir.exists() {
        std::fs::rename(dir, &old)?;
    }
    std::fs::rename(&tmp, dir)?;
    let _ = std::fs::remove_dir_all(&old);
    Ok(())
}

/// Loads a checkpoint previously written by [`write_checkpoint`],
/// falling back to the `<dir>.old` backup when `dir` itself has no
/// readable STATE (a host death between the two swap renames).
pub fn read_checkpoint(dir: &Path) -> io::Result<(CampaignCheckpoint, Corpus)> {
    let (dir, text) = match std::fs::read_to_string(dir.join("STATE")) {
        Ok(text) => (dir.to_path_buf(), text),
        Err(primary) => {
            let old = sibling(dir, ".old");
            if !old.join("STATE").is_file() {
                return Err(primary);
            }
            let text = std::fs::read_to_string(old.join("STATE"))?;
            (old, text)
        }
    };
    let state = parse_state(&text)?;
    let corpus = Corpus::load_from(dir.join("corpus"))?;
    Ok((state, corpus))
}

/// `dir` with `suffix` appended to its final component — the
/// staging/backup siblings of the atomic swap.
fn sibling(dir: &Path, suffix: &str) -> PathBuf {
    let mut os = dir.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Serializes a checkpoint into the STATE text format.
fn render_state(state: &CampaignCheckpoint) -> String {
    let mut out = String::new();
    out.push_str(&format!("necofuzz-checkpoint v{FORMAT_VERSION}\n"));
    out.push_str(&format!("seed {}\n", state.seed));
    out.push_str(&format!("hour {}\n", state.hour));
    out.push_str(&format!("hour_execs {}\n", state.hour_execs));
    out.push_str(&format!("adopted {}\n", state.adopted));
    let f = &state.fuzzer;
    out.push_str(&format!(
        "rng {} {} {} {}\n",
        f.rng[0], f.rng[1], f.rng[2], f.rng[3]
    ));
    out.push_str(&format!("fuzzer_execs {}\n", f.execs));
    out.push_str(&format!("fuzzer_crashes {}\n", f.crashes));
    out.push_str(&format!("fuzzer_queue_adds {}\n", f.queue_adds));
    out.push_str(&format!("fuzzer_recording {}\n", u8::from(f.recording)));
    out.push_str(&format!("havoc_arms{}\n", join(&f.havoc_arms)));
    out.push_str(&format!("profile_weights{}\n", join(&f.profile.weights)));
    out.push_str(&format!(
        "profile_generated{}\n",
        join(&f.profile.generated)
    ));
    out.push_str(&format!("profile_queued{}\n", join(&f.profile.queued)));
    out.push_str(&format!("agent_execs {}\n", state.agent_execs));
    out.push_str(&format!("agent_restarts {}\n", state.agent_restarts));
    out.push_str(&format!("fault_hangs {}\n", state.fault_hangs));
    out.push_str(&format!("fault_deaths {}\n", state.fault_deaths));
    out.push_str(&format!("cumulative{}\n", join(&state.cumulative)));
    // Coverage fractions round-trip through their IEEE bit patterns —
    // decimal formatting would lose the exact-equality guarantee.
    out.push_str("hourly");
    for sample in &state.hourly {
        out.push_str(&format!(" {}:{}", sample.hour, sample.coverage.to_bits()));
    }
    out.push('\n');
    out.push_str(&format!("corpus_marks{}\n", join(&state.corpus_marks)));
    for (rule, detail) in &state.corrections {
        out.push_str(&format!("correction {rule} {}\n", hex(detail.as_bytes())));
    }
    for find in &state.finds {
        out.push_str(&format!(
            "find {} {} {} {} {}\n",
            kind_name(find.kind),
            find.exec,
            hex(find.bug_id.as_bytes()),
            hex(find.message.as_bytes()),
            hex(&find.input),
        ));
    }
    out
}

/// Parses a STATE file (the inverse of [`render_state`]).
fn parse_state(text: &str) -> io::Result<CampaignCheckpoint> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    if header != format!("necofuzz-checkpoint v{FORMAT_VERSION}") {
        return Err(bad(format!("unsupported checkpoint format: {header:?}")));
    }
    let mut state = CampaignCheckpoint {
        seed: 0,
        hour: 0,
        hour_execs: 0,
        adopted: 0,
        hourly: Vec::new(),
        corpus_marks: Vec::new(),
        fuzzer: FuzzerState {
            rng: [0; 4],
            execs: 0,
            crashes: 0,
            queue_adds: 0,
            havoc_arms: [0; HAVOC_ARMS],
            recording: false,
            profile: ProfileState {
                weights: [0; Operator::COUNT],
                generated: [0; Operator::COUNT],
                queued: [0; Operator::COUNT],
            },
        },
        agent_execs: 0,
        agent_restarts: 0,
        cumulative: Vec::new(),
        corrections: Vec::new(),
        finds: Vec::new(),
        fault_hangs: 0,
        fault_deaths: 0,
    };
    for line in lines {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "seed" => state.seed = num(rest)?,
            "hour" => state.hour = num(rest)?,
            "hour_execs" => state.hour_execs = num(rest)?,
            "adopted" => state.adopted = num(rest)?,
            "rng" => state.fuzzer.rng = fixed(rest)?,
            "fuzzer_execs" => state.fuzzer.execs = num(rest)?,
            "fuzzer_crashes" => state.fuzzer.crashes = num(rest)?,
            "fuzzer_queue_adds" => state.fuzzer.queue_adds = num(rest)?,
            "fuzzer_recording" => state.fuzzer.recording = num::<u8>(rest)? != 0,
            "havoc_arms" => state.fuzzer.havoc_arms = fixed(rest)?,
            "profile_weights" => state.fuzzer.profile.weights = fixed(rest)?,
            "profile_generated" => state.fuzzer.profile.generated = fixed(rest)?,
            "profile_queued" => state.fuzzer.profile.queued = fixed(rest)?,
            "agent_execs" => state.agent_execs = num(rest)?,
            "agent_restarts" => state.agent_restarts = num(rest)?,
            "fault_hangs" => state.fault_hangs = num(rest)?,
            "fault_deaths" => state.fault_deaths = num(rest)?,
            "cumulative" => state.cumulative = list(rest)?,
            "hourly" => {
                state.hourly = rest
                    .split_whitespace()
                    .map(|pair| {
                        let (hour, bits) = pair
                            .split_once(':')
                            .ok_or_else(|| bad(format!("bad hourly sample: {pair:?}")))?;
                        Ok(HourSample {
                            hour: num(hour)?,
                            coverage: f64::from_bits(num(bits)?),
                        })
                    })
                    .collect::<io::Result<_>>()?;
            }
            "corpus_marks" => state.corpus_marks = list(rest)?,
            "correction" => {
                let (rule, detail) = rest
                    .split_once(' ')
                    .ok_or_else(|| bad(format!("bad correction line: {line:?}")))?;
                state
                    .corrections
                    .push((rule.to_string(), utf8(unhex(detail)?)?));
            }
            "find" => {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let [kind, exec, bug_id, message, input] = fields[..] else {
                    return Err(bad(format!("bad find line: {line:?}")));
                };
                state.finds.push(FindRecord {
                    bug_id: utf8(unhex(bug_id)?)?,
                    kind: kind_from_name(kind)
                        .ok_or_else(|| bad(format!("unknown crash kind: {kind:?}")))?,
                    message: utf8(unhex(message)?)?,
                    exec: num(exec)?,
                    input: unhex(input)?,
                });
            }
            _ => {} // Unknown keys are skipped (forward compatibility).
        }
    }
    Ok(state)
}

/// Stable persistence token of a [`CrashKind`].
fn kind_name(kind: CrashKind) -> &'static str {
    match kind {
        CrashKind::HostCrash => "host_crash",
        CrashKind::HostHang => "host_hang",
        CrashKind::Ubsan => "ubsan",
        CrashKind::Kasan => "kasan",
        CrashKind::AssertFail => "assert_fail",
        CrashKind::Warning => "warning",
        CrashKind::Divergence => "divergence",
        CrashKind::HungExec => "hung_exec",
    }
}

/// Inverse of [`kind_name`].
fn kind_from_name(name: &str) -> Option<CrashKind> {
    Some(match name {
        "host_crash" => CrashKind::HostCrash,
        "host_hang" => CrashKind::HostHang,
        "ubsan" => CrashKind::Ubsan,
        "kasan" => CrashKind::Kasan,
        "assert_fail" => CrashKind::AssertFail,
        "warning" => CrashKind::Warning,
        "divergence" => CrashKind::Divergence,
        "hung_exec" => CrashKind::HungExec,
        _ => return None,
    })
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Space-prefixed join of an integer slice (`" 1 2 3"`, empty for an
/// empty slice) — the value half of a list line.
fn join<T: std::fmt::Display>(values: &[T]) -> String {
    values.iter().map(|v| format!(" {v}")).collect()
}

fn num<T: std::str::FromStr>(token: &str) -> io::Result<T> {
    token
        .trim()
        .parse()
        .map_err(|_| bad(format!("bad number: {token:?}")))
}

fn list<T: std::str::FromStr>(rest: &str) -> io::Result<Vec<T>> {
    rest.split_whitespace().map(num).collect()
}

fn fixed<T: std::str::FromStr + Copy + Default, const N: usize>(rest: &str) -> io::Result<[T; N]> {
    let values: Vec<T> = list(rest)?;
    if values.len() != N {
        return Err(bad(format!("expected {N} values, got {}", values.len())));
    }
    let mut out = [T::default(); N];
    out.copy_from_slice(&values);
    Ok(out)
}

/// Lowercase hex encoding; the empty string encodes as `-` so every
/// field stays a single whitespace-delimited token.
fn hex(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Inverse of [`hex`].
fn unhex(s: &str) -> io::Result<Vec<u8>> {
    if s == "-" {
        return Ok(Vec::new());
    }
    if !s.len().is_multiple_of(2) || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(bad(format!("bad hex field: {s:?}")));
    }
    Ok((0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect())
}

fn utf8(bytes: Vec<u8>) -> io::Result<String> {
    String::from_utf8(bytes).map_err(|_| bad("non-UTF-8 text field".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> CampaignCheckpoint {
        CampaignCheckpoint {
            seed: 7,
            hour: 3,
            hour_execs: 0,
            adopted: 2,
            hourly: vec![
                HourSample {
                    hour: 1,
                    coverage: 0.125,
                },
                HourSample {
                    hour: 2,
                    coverage: 0.37281,
                },
            ],
            corpus_marks: vec![5, 9],
            fuzzer: FuzzerState {
                rng: [1, u64::MAX, 3, 4],
                execs: 500,
                crashes: 2,
                queue_adds: 17,
                havoc_arms: [1, 2, 3, 4, 5, 6, 7],
                recording: true,
                profile: ProfileState {
                    weights: [8; Operator::COUNT],
                    generated: [3; Operator::COUNT],
                    queued: [1; Operator::COUNT],
                },
            },
            agent_execs: 500,
            agent_restarts: 1,
            cumulative: vec![0xdead_beef, 0, u64::MAX],
            corrections: vec![
                ("cr4_pae_quirk".to_string(), "learned at exec 3".to_string()),
                ("guest.ss_rpl".to_string(), String::new()),
            ],
            finds: vec![FindRecord {
                bug_id: "kvm-bug-1".to_string(),
                kind: CrashKind::Kasan,
                message: "slab-out-of-bounds in vmcs12 copy".to_string(),
                exec: 123,
                input: vec![0, 1, 2, 255],
            }],
            fault_hangs: 4,
            fault_deaths: 1,
        }
    }

    #[test]
    fn state_round_trips_exactly() {
        let state = sample_state();
        let parsed = parse_state(&render_state(&state)).expect("parse");
        assert_eq!(parsed, state);
    }

    #[test]
    fn empty_fields_and_exotic_floats_round_trip() {
        let mut state = sample_state();
        state.hourly = vec![HourSample {
            hour: 1,
            coverage: f64::from_bits(0x7ff8_0000_0000_0001), // a NaN payload
        }];
        state.finds[0].message = String::new();
        state.finds[0].input = Vec::new();
        state.cumulative = Vec::new();
        let parsed = parse_state(&render_state(&state)).expect("parse");
        assert_eq!(parsed.hourly[0].coverage.to_bits(), 0x7ff8_0000_0000_0001);
        assert_eq!(parsed.finds, state.finds);
        assert_eq!(parsed.cumulative, state.cumulative);
    }

    #[test]
    fn version_and_kind_guards_reject_garbage() {
        assert!(parse_state("necofuzz-checkpoint v99\n").is_err());
        let torn = render_state(&sample_state()).replace("kasan", "gremlin");
        assert!(parse_state(&torn).is_err());
    }

    #[test]
    fn every_crash_kind_has_a_stable_token() {
        for kind in [
            CrashKind::HostCrash,
            CrashKind::HostHang,
            CrashKind::Ubsan,
            CrashKind::Kasan,
            CrashKind::AssertFail,
            CrashKind::Warning,
            CrashKind::Divergence,
            CrashKind::HungExec,
        ] {
            assert_eq!(kind_from_name(kind_name(kind)), Some(kind));
        }
    }
}
