//! Cross-backend differential oracle: N-way replay with a golden-model
//! reference.
//!
//! The sanitizer oracle (`nf_hv::sanitizer`) only catches bugs that
//! make the *host* misbehave — memory errors, asserts, hangs. A whole
//! class of nested-virtualization bugs is silent at the host level:
//! the hypervisor stays healthy but tells its L1 guest the wrong thing
//! (a misreported exit reason, a dropped field sync, a wrong error
//! form). This module detects those by running every scenario on a
//! configurable set of backends — any subset of `vkvm`/`vxen`/`vvbox`
//! plus [`nf_hv::SiliconGolden`], the bare-metal reference model — and
//! diffing what each backend *showed its guest*.
//!
//! # Observation canonicalization
//!
//! A backend's [`ExecObservation`] records only L1-visible events:
//!
//! - the [`nf_hv::L1Result`] of every initialization step;
//! - every runtime exit **reflected to L1** (the raw reason L1's exit
//!   handler reads), and a terminal host death;
//! - the [`nf_hv::L1Result`] of every L1 exit-handler action;
//! - the final [`nf_hv::GuestObservation`]: control registers, VMX
//!   status, current-VMCS pointer, and a digest of the VMCS12 as
//!   `vmread` would return it.
//!
//! Deliberately **not** recorded: `NoExit`, `HandledByL0`, and
//! `NoGuest` runtime results. Whether L0 handles an exit itself or
//! lets L2 run natively is L0 *policy* — two correct hypervisors may
//! legitimately differ — while every reflected exit and every emulated
//! instruction result is architecture, where they may not.
//!
//! # Divergence findings
//!
//! Observations are diffed pairwise. The first divergent site — event,
//! stream length, or final-state field — becomes a
//! [`nf_hv::CrashKind::Divergence`] finding in the campaign's
//! [`crate::triage::CrashTriage`], deduplicated by the
//! `(backend pair, site tag)` signature (the event *index* is excluded
//! so one root cause surfacing at different steps stays one bug). The
//! runner remembers the typed signatures it has met, so a repeat — most
//! divergent pairs are — is dropped without formatting its bug id; the
//! triage stays the source of truth for which ids are known.
//! Executions where either side crashed or died are skipped — the
//! sanitizer oracle owns those. Known-intentional backend quirks are
//! filtered by an explicit [`AllowRule`] table.
//!
//! # Replays record no coverage
//!
//! Only the observations are compared, so the replays need nothing
//! else: every host a [`DifferentialRunner`] builds, the first one and
//! each one a config flip builds, has coverage recording off
//! ([`nf_hv::NestedL1State::set_recording`]). It runs every instruction
//! exactly as a recording host but never touches its trace, and the
//! runner never collects one.
//!
//! # The oracle lane
//!
//! A differential [`crate::Campaign`] does not replay inline: every
//! campaign that arms the oracle owns an oracle lane, a thread that
//! owns the campaign's [`DifferentialRunner`] and runs
//! [`DifferentialRunner::observe_exec`] on each `(input, exec index)`,
//! in execution order, while the primary agent runs ahead. The primary
//! copies each executed input into a recycled slot of a batch of 16
//! inputs and hands full batches over a channel that holds at most one
//! waiting batch, so the lane trails the primary by one or two batches
//! and one campaign keeps two cores busy. A divergence find keeps the
//! slot's buffer instead of a copy of it (the primary gives the slot a
//! new one), so the finds' inputs live in the primary thread's heap.
//!
//! - The runner is not `Send`: the lane's thread builds it from the
//!   config's backend names when the first batch arrives, so a campaign
//!   that never executes never starts a thread.
//! - Every virtual hour the campaign *drains* the lane (hands over the
//!   partial batch and waits until every batch has come home), so an
//!   hour's oracle work is done when the hour returns; finishing drains
//!   too, then joins the thread for the runner's finds, counters and
//!   backend execs.
//! - Dropping a campaign closes its lane and joins it. A panic on the
//!   lane is raised again on the campaign's thread with its payload,
//!   so a supervisor that restarts panicked campaigns restarts this one.
//!
//! The replays are the calls the inline loop made, in the same order,
//! on the same inputs, so results do not change; only where and when
//! they run does.
//!
//! [`crate::triage::ReplayOracle`] is the replay/minimization half:
//! built from a differential campaign's config, it re-runs divergence
//! findings on fresh runners (cold then converged validators), and its
//! minimizer only accepts truncations that preserve the *divergence
//! signature* — a reproducer that merely still crashes, or diverges
//! somewhere else, is rejected.

use std::collections::HashSet;
use std::fmt::{self, Write as _};
use std::panic::resume_unwind;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use nf_fuzz::FuzzInput;
use nf_hv::{CrashKind, GuestObservation, L1Result, L2Result, SiliconGolden, Vkvm, Vvbox, Vxen};
use nf_x86::CpuVendor;

use crate::agent::{Agent, BugFind, ComponentMask};
use crate::campaign::{CampaignConfig, HvFactory};
use crate::engine::EngineMode;
use crate::harness::ExecObserver;
use crate::triage::CrashTriage;

/// Which anomaly oracle a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// The default: sanitizer/log/watchdog detectors only.
    Sanitizer,
    /// Sanitizers plus the cross-backend differential oracle: every
    /// input is replayed on the configured backend set and the
    /// canonical observations are diffed pairwise.
    Differential,
}

impl OracleMode {
    /// Parses the CLI spelling (`sanitizer` / `differential`).
    pub fn parse(s: &str) -> Option<OracleMode> {
        match s {
            "sanitizer" => Some(OracleMode::Sanitizer),
            "differential" => Some(OracleMode::Differential),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            OracleMode::Sanitizer => "sanitizer",
            OracleMode::Differential => "differential",
        }
    }
}

impl std::fmt::Display for OracleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Name of the seeded-misvirtualization vkvm variant: a `vkvm` whose
/// reflect path misreports HLT exits to L1 as PAUSE exits (see
/// `VkvmBugs::misreport_hlt_exit`). The bug is invisible to every
/// sanitizer — the host stays healthy — and exists so differential
/// self-tests and the `diff_oracle` bench can prove the oracle catches
/// what the sanitizers cannot. Not reachable from any product
/// configuration.
pub const SEEDED_HLT_BACKEND: &str = "vkvm-hltbug";

/// Makes a backend's boxed factory. The factory is a capture-free
/// closure, so boxing it allocates nothing.
pub(crate) type FactoryMaker = fn() -> HvFactory;

/// The backend table: every hypervisor a campaign, the differential
/// oracle, the CLI or a bench can name — `(name, factory maker, models
/// AMD)`. `golden` is the [`SiliconGolden`] bare-metal reference, and
/// [`SEEDED_HLT_BACKEND`] is test-only. VirtualBox's nested support is
/// Intel-only, so `vvbox` rejects AMD.
const BACKENDS: &[(&str, FactoryMaker, bool)] = &[
    ("vkvm", || Box::new(|c| Box::new(Vkvm::new(c))), true),
    ("vxen", || Box::new(|c| Box::new(Vxen::new(c))), true),
    ("vvbox", || Box::new(|c| Box::new(Vvbox::new(c))), false),
    (
        "golden",
        || Box::new(|c| Box::new(SiliconGolden::new(c))),
        true,
    ),
    (
        SEEDED_HLT_BACKEND,
        || {
            Box::new(|c| {
                let mut hv = Vkvm::new(c);
                hv.bugs.misreport_hlt_exit = true;
                Box::new(hv)
            })
        },
        true,
    ),
];

/// Resolves a backend name to a hypervisor factory through the backend
/// table (`vkvm`, `vxen`, `vvbox`, `golden`, and the test-only
/// [`SEEDED_HLT_BACKEND`]).
pub fn backend_factory(name: &str) -> Option<HvFactory> {
    backend_maker(name).map(|make| make())
}

/// The table's factory maker for `name`: a plain function pointer, so
/// it can back a `Send + Sync` orchestrator [`crate::Backend`].
pub(crate) fn backend_maker(name: &str) -> Option<FactoryMaker> {
    BACKENDS.iter().find(|b| b.0 == name).map(|b| b.1)
}

/// Checks that `name` is in the backend table and models `vendor`;
/// the error is the diagnostic the CLI prints before exiting 2.
pub fn check_backend(name: &str, vendor: CpuVendor) -> Result<(), String> {
    match BACKENDS.iter().find(|b| b.0 == name) {
        None => Err(format!("unknown backend {name:?}")),
        Some(&(_, _, false)) if vendor == CpuVendor::Amd => {
            Err(format!("{name} supports only --vendor intel"))
        }
        Some(_) => Ok(()),
    }
}

/// One canonical L1-visible event result, backend-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObsResult {
    /// Instruction completed with a read value (`L1Result::Ok`).
    Ok(u64),
    /// VMX instruction failed (`VMfail*`); the VM-instruction error
    /// number.
    VmFail(u32),
    /// A fault was injected into L1 (`#GP`, `#UD`, …).
    Fault(&'static str),
    /// A nested entry succeeded.
    L2Entered {
        /// Whether the entered L2 can make progress.
        runnable: bool,
    },
    /// A nested entry failed with an entry-failure exit (raw encoded
    /// reason).
    EntryFailed(u32),
    /// A runtime exit was reflected to L1 (raw encoded reason).
    Reflected(u32),
    /// The host died at this point; the stream ends here.
    HostDead,
}

impl ObsResult {
    fn of_l1(result: &L1Result) -> ObsResult {
        match result {
            L1Result::Ok(v) => ObsResult::Ok(*v),
            L1Result::VmFail(e) => ObsResult::VmFail(*e as u32),
            L1Result::Fault(name) => ObsResult::Fault(name),
            L1Result::L2Entered { runnable } => ObsResult::L2Entered {
                runnable: *runnable,
            },
            L1Result::L2EntryFailed { reason } => ObsResult::EntryFailed(*reason),
            L1Result::HostDead => ObsResult::HostDead,
        }
    }

    /// Filename-safe signature fragment (`[a-z0-9]` only) used in
    /// divergence bug ids, as a `Display` adapter: formatting it
    /// allocates nothing.
    pub fn sig(&self) -> impl fmt::Display + '_ {
        struct Sig<'a>(&'a ObsResult);
        impl fmt::Display for Sig<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    ObsResult::Ok(v) => write!(f, "ok{v:x}"),
                    ObsResult::VmFail(e) => write!(f, "fail{e:x}"),
                    ObsResult::Fault(name) => {
                        f.write_str("flt")?;
                        name.trim_start_matches('#')
                            .chars()
                            .try_for_each(|c| f.write_char(c.to_ascii_lowercase()))
                    }
                    ObsResult::L2Entered { runnable: true } => f.write_str("l2run"),
                    ObsResult::L2Entered { runnable: false } => f.write_str("l2stall"),
                    ObsResult::EntryFailed(r) => write!(f, "efail{r:x}"),
                    ObsResult::Reflected(r) => write!(f, "rfl{r:x}"),
                    ObsResult::HostDead => f.write_str("dead"),
                }
            }
        }
        Sig(self)
    }
}

impl fmt::Display for ObsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsResult::Ok(v) => write!(f, "ok({v:#x})"),
            ObsResult::VmFail(e) => write!(f, "vmfail({e})"),
            ObsResult::Fault(name) => write!(f, "fault({name})"),
            ObsResult::L2Entered { runnable } => write!(f, "l2-entered(runnable={runnable})"),
            ObsResult::EntryFailed(r) => write!(f, "entry-failed({r:#x})"),
            ObsResult::Reflected(r) => write!(f, "reflected({r:#x})"),
            ObsResult::HostDead => write!(f, "host-dead"),
        }
    }
}

/// The canonical record of one execution on one backend: the
/// L1-visible event stream plus the final guest-visible state. The
/// buffer is reusable ([`ExecObservation::clear`]) so the steady-state
/// differential loop allocates nothing once the event vectors have
/// grown to their working size.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecObservation {
    /// L1-visible events in execution order.
    pub events: Vec<ObsResult>,
    /// Guest-visible architectural state after the run.
    pub final_state: GuestObservation,
    /// Whether the sanitizers fired or the host died — such executions
    /// are exempt from diffing (the sanitizer oracle owns them).
    pub crashed: bool,
}

impl ExecObservation {
    /// Resets the observation for the next execution, keeping the
    /// event buffer's capacity.
    pub fn clear(&mut self) {
        self.events.clear();
        self.final_state = GuestObservation::default();
        self.crashed = false;
    }
}

impl ExecObserver for ExecObservation {
    fn on_init_step(&mut self, result: &L1Result) {
        self.events.push(ObsResult::of_l1(result));
    }

    fn on_l2_result(&mut self, result: &L2Result) {
        match result {
            L2Result::ReflectedToL1(reason) => self.events.push(ObsResult::Reflected(*reason)),
            L2Result::HostDead => self.events.push(ObsResult::HostDead),
            // NoExit / HandledByL0 / NoGuest are L0 policy, not
            // L1-visible architecture: recording them would turn
            // legitimate L0 design differences into divergences.
            L2Result::NoExit | L2Result::HandledByL0 | L2Result::NoGuest => {}
        }
    }

    fn on_l1_action(&mut self, result: &L1Result) {
        self.events.push(ObsResult::of_l1(result));
    }
}

/// Where two observations first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceSite {
    /// The event streams disagree at `index`.
    Event {
        /// Position in the event stream (not part of the signature).
        index: usize,
        /// First backend's event.
        a: ObsResult,
        /// Second backend's event.
        b: ObsResult,
    },
    /// One event stream is a strict prefix of the other.
    SeqLen {
        /// First backend's stream length.
        a: usize,
        /// Second backend's stream length.
        b: usize,
    },
    /// Event streams match; a final guest-visible state field differs.
    State {
        /// Name of the differing [`GuestObservation`] field.
        field: &'static str,
        /// First backend's value.
        a: u64,
        /// Second backend's value.
        b: u64,
    },
}

impl DivergenceSite {
    /// The deduplication tag: what diverged, not where. Event sites
    /// drop the step index so one root cause surfacing at different
    /// positions collapses into one bug id. A `Display` adapter, like
    /// [`ObsResult::sig`].
    pub fn tag(&self) -> impl fmt::Display + '_ {
        struct Tag<'a>(&'a DivergenceSite);
        impl fmt::Display for Tag<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    DivergenceSite::Event { a, b, .. } => write!(f, "{}v{}", a.sig(), b.sig()),
                    DivergenceSite::SeqLen { a, b } => write!(f, "len{a}v{b}"),
                    DivergenceSite::State { field, .. } => write!(f, "f_{field}"),
                }
            }
        }
        Tag(self)
    }

    /// Human-readable description for finding messages and `corpus
    /// repro` output.
    pub fn describe(&self, a_name: &str, b_name: &str) -> String {
        match self {
            DivergenceSite::Event { index, a, b } => {
                format!("{a_name} vs {b_name} at event {index}: {a} != {b}")
            }
            DivergenceSite::SeqLen { a, b } => {
                format!("{a_name} vs {b_name}: event streams end at {a} != {b} events")
            }
            DivergenceSite::State { field, a, b } => {
                format!("{a_name} vs {b_name}: final {field} differs: {a:#x} != {b:#x}")
            }
        }
    }
}

/// A divergence site's typed signature: exactly the fields its
/// [`DivergenceSite::tag`] is formatted from. Equal signatures of one
/// backend pair format equal bug ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SiteSig {
    Event(ObsResult, ObsResult),
    SeqLen(usize, usize),
    State(&'static str),
}

impl SiteSig {
    fn of(site: &DivergenceSite) -> SiteSig {
        match *site {
            DivergenceSite::Event { a, b, .. } => SiteSig::Event(a, b),
            DivergenceSite::SeqLen { a, b } => SiteSig::SeqLen(a, b),
            DivergenceSite::State { field, .. } => SiteSig::State(field),
        }
    }
}

/// Diffs two canonical observations; `None` when they are equivalent.
/// Only the *first* divergent site is reported: after a control-flow
/// split (one backend in L2, the other back in L1) later events are
/// not comparable, and the final state inherits the split.
pub fn diff_observations(a: &ExecObservation, b: &ExecObservation) -> Option<DivergenceSite> {
    for (index, (ra, rb)) in a.events.iter().zip(&b.events).enumerate() {
        if ra != rb {
            return Some(DivergenceSite::Event {
                index,
                a: *ra,
                b: *rb,
            });
        }
    }
    if a.events.len() != b.events.len() {
        return Some(DivergenceSite::SeqLen {
            a: a.events.len(),
            b: b.events.len(),
        });
    }
    let (fa, fb) = (&a.final_state, &b.final_state);
    for (field, va, vb) in [
        ("cr0", fa.cr0, fb.cr0),
        ("cr4", fa.cr4, fb.cr4),
        ("efer", fa.efer, fb.efer),
        ("vmx_on", u64::from(fa.vmx_on), u64::from(fb.vmx_on)),
        ("current_vmptr", fa.current_vmptr, fb.current_vmptr),
        ("in_l2", u64::from(fa.in_l2), u64::from(fb.in_l2)),
        ("vmcs12_digest", fa.vmcs12_digest, fb.vmcs12_digest),
    ] {
        if va != vb {
            return Some(DivergenceSite::State {
                field,
                a: va,
                b: vb,
            });
        }
    }
    None
}

/// One intentional-quirk rule of the conformance allowlist: a named,
/// documented predicate over `(backend pair, divergence site)`.
/// Divergences a rule matches are counted (`allowed`) but not
/// reported. The table is deliberately explicit — every entry is a
/// *decision* that a behavioral difference is in-spec, reviewable in
/// one place.
pub struct AllowRule {
    /// Short rule name (shown in stats and docs).
    pub name: &'static str,
    /// Why the divergence is intentional.
    pub why: &'static str,
    matches: fn(&str, &str, &DivergenceSite) -> bool,
}

impl AllowRule {
    /// Whether this rule covers a divergence between backends `a` and
    /// `b` at `site` (the site's `a`/`b` sides correspond to the names
    /// in order; rules check both orientations themselves where the
    /// quirk is directional).
    pub fn matches(&self, a: &str, b: &str, site: &DivergenceSite) -> bool {
        (self.matches)(a, b, site)
    }
}

impl std::fmt::Debug for AllowRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllowRule")
            .field("name", &self.name)
            .finish()
    }
}

fn event_pair(site: &DivergenceSite) -> Option<(ObsResult, ObsResult)> {
    match site {
        DivergenceSite::Event { a, b, .. } => Some((*a, *b)),
        _ => None,
    }
}

/// The intentional backend quirks the conformance suite tolerates.
/// Everything else that diverges is a finding.
pub static ALLOWLIST: &[AllowRule] = &[
    AllowRule {
        name: "l0-entry-hardening",
        why: "bare metal completes VM entries that software L0s refuse by \
              policy: entry into a waiting activity state (the guest is \
              entered but stalled) and entries covered by software-only \
              consistency checks such as KVM's CVE-2023-30456 fix (IA-32e \
              mode without PAE, which the hardware quirk tolerates). \
              Refusing an entry bare metal would take is fail-safe, so \
              only the golden side completing the entry is allowed; a \
              backend *entering* where bare metal refuses stays a finding.",
        matches: |a, b, site| match event_pair(site) {
            Some((ObsResult::L2Entered { .. }, ObsResult::EntryFailed(_))) => a == "golden",
            Some((ObsResult::EntryFailed(_), ObsResult::L2Entered { .. })) => b == "golden",
            _ => false,
        },
    },
    AllowRule {
        name: "entry-check-order",
        why: "when a VM entry violates several classes of checks at \
              once, the reported entry-failure reason reflects whichever \
              check a backend runs first (vkvm rejects bad activity \
              states as invalid-guest-state before walking the MSR-load \
              list; bare metal orders them the other way). Either way \
              the entry is refused and L1 sees an entry-failure exit.",
        matches: |_a, _b, site| {
            matches!(
                event_pair(site),
                Some((ObsResult::EntryFailed(_), ObsResult::EntryFailed(_)))
            )
        },
    },
];

/// The first allowlist rule covering a divergence, if any.
pub fn allowed_by(a: &str, b: &str, site: &DivergenceSite) -> Option<&'static AllowRule> {
    ALLOWLIST.iter().find(|rule| rule.matches(a, b, site))
}

/// Per-campaign differential-oracle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DivergenceStats {
    /// Executions replayed across the backend set and diffed.
    pub execs_compared: u64,
    /// Divergent (pair, execution) observations that were reported
    /// (triage dedups them into unique findings).
    pub divergences: u64,
    /// Divergences covered by the [`ALLOWLIST`].
    pub allowed: u64,
    /// Pair comparisons skipped because one side crashed or died (the
    /// sanitizer oracle owns those executions).
    pub crash_skipped: u64,
}

/// The N-way replay engine behind the differential oracle: one
/// [`Agent`] per configured backend, a reusable
/// [`ExecObservation`] per backend, and its own divergence
/// [`CrashTriage`].
///
/// Every backend replays the same input sequence, and the generated
/// harness VM depends only on the input and the validator's learned
/// corrections — never on the backend — so each backend receives the
/// *same* VM per input, and observations differ only where backend
/// behavior differs. The runner therefore generates it once, on the
/// first backend's agent, and hands it to the others.
pub struct DifferentialRunner {
    names: Vec<String>,
    agents: Vec<Agent>,
    obs: Vec<ExecObservation>,
    triage: CrashTriage,
    stats: DivergenceStats,
    /// Every `(pair, site signature)` reported so far: its bug id is in
    /// `triage`, so a repeat needs no id formatted.
    seen: HashSet<(usize, usize, SiteSig)>,
}

impl DifferentialRunner {
    /// A runner over `backends` (at least two; see [`backend_factory`]
    /// for the known names). Every host its agents build has coverage
    /// recording off (see the module docs). `_engine` is ignored (see
    /// [`EngineMode`]).
    ///
    /// # Panics
    ///
    /// Panics on fewer than two backends or an unknown backend name —
    /// both are configuration errors the CLI rejects up front.
    pub fn new(
        backends: &[String],
        vendor: CpuVendor,
        mask: ComponentMask,
        _engine: EngineMode,
    ) -> Self {
        assert!(
            backends.len() >= 2,
            "differential oracle needs at least two backends, got {backends:?}"
        );
        let agents = backends
            .iter()
            .map(|name| {
                let factory = backend_factory(name)
                    .unwrap_or_else(|| panic!("unknown differential backend {name:?}"));
                Agent::new(non_recording(factory), vendor, mask)
            })
            .collect();
        DifferentialRunner {
            names: backends.to_vec(),
            agents,
            obs: vec![ExecObservation::default(); backends.len()],
            triage: CrashTriage::new(),
            stats: DivergenceStats::default(),
            seen: HashSet::new(),
        }
    }

    /// The runner a campaign config arms (`None` unless its oracle is
    /// [`OracleMode::Differential`]): the one a differential campaign's
    /// lane builds, and the one [`crate::triage::ReplayOracle`]
    /// replays a divergence on.
    pub(crate) fn of_campaign(cfg: &CampaignConfig) -> Option<Self> {
        (cfg.oracle == OracleMode::Differential).then(|| {
            DifferentialRunner::new(
                &cfg.diff_backends,
                cfg.vendor,
                cfg.mask,
                EngineMode::Snapshot,
            )
        })
    }

    /// No-op, kept only because perfbench calls it; the product never
    /// does.
    pub fn with_prefix_cache(self, _enabled: bool) -> Self {
        self
    }

    /// No-op, kept only because perfbench calls it; the product never
    /// does.
    pub fn with_cache_capacity(self, _capacity: usize) -> Self {
        self
    }

    /// No-op, kept only because perfbench calls it; the product never
    /// does.
    pub fn with_prefix_budget(self, _bytes: usize) -> Self {
        self
    }

    /// No-op, kept only because perfbench calls it; the product never
    /// does.
    pub fn with_prefix_store(self, _mode: crate::campaign::PrefixStoreMode) -> Self {
        self
    }

    /// The configured backend names, in order.
    pub fn backends(&self) -> &[String] {
        &self.names
    }

    /// The oracle's counters so far.
    pub fn stats(&self) -> DivergenceStats {
        self.stats
    }

    /// The divergence findings so far (unique by signature, discovery
    /// order).
    pub fn triage(&self) -> &CrashTriage {
        &self.triage
    }

    /// Total backend executions performed (the replay cost the
    /// `diff_oracle` bench reports as overhead).
    pub fn backend_execs(&self) -> u64 {
        self.agents.iter().map(Agent::execs).sum()
    }

    /// Fast-forwards every backend's validator to its converged state
    /// (see [`Agent::converge_validator`]) — the replay context
    /// [`crate::triage::ReplayOracle`] uses for late-campaign findings.
    pub fn converge_validators(&mut self) {
        for agent in &mut self.agents {
            agent.converge_validator();
        }
    }

    /// The replay agent of backend `name`, for inspection in tests.
    pub fn agent(&self, name: &str) -> Option<&Agent> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(&self.agents[i])
    }

    /// The last recorded observation of backend `name`, for
    /// inspection in tests and `corpus repro` reporting.
    pub fn observation(&self, name: &str) -> Option<&ExecObservation> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(&self.obs[i])
    }

    /// Replays `input` on every backend, records the canonical
    /// observations, and diffs them pairwise. New divergences are
    /// recorded as [`CrashKind::Divergence`] findings under `exec` (the
    /// campaign's execution index).
    ///
    /// The harness VM is generated once, by the first backend's agent;
    /// every other agent only prepares its host for the staged
    /// configuration and runs the same VM. A replay's coverage and
    /// sanitizer finds are never read: its host records no coverage
    /// and its reports reduce to a crash flag, so each backend costs one
    /// model execution and nothing more.
    pub fn observe_exec(&mut self, input: &FuzzInput, exec: u64) {
        self.observe(input, exec, || Arc::new(input.clone()));
    }

    /// [`observe_exec`](Self::observe_exec), with the buffer the
    /// exec's new finds share coming from `share` (called at most once
    /// per exec).
    fn observe(&mut self, input: &FuzzInput, exec: u64, share: impl Fn() -> Arc<FuzzInput>) {
        self.stats.execs_compared += 1;
        let (first, others) = self
            .agents
            .split_first_mut()
            .expect("a runner has at least two backends");
        let vm = first.stage(input);
        for agent in others {
            agent.open_staged(input, &vm);
        }
        for (agent, ob) in self.agents.iter_mut().zip(&mut self.obs) {
            ob.clear();
            let crashed = agent.replay_staged(&vm, ob);
            ob.final_state = agent.observe_guest();
            ob.crashed = crashed || agent.hv().health().dead;
        }
        let mut shared: Option<Arc<FuzzInput>> = None;
        for i in 0..self.obs.len() {
            for j in i + 1..self.obs.len() {
                if self.obs[i].crashed || self.obs[j].crashed {
                    self.stats.crash_skipped += 1;
                    continue;
                }
                let Some(site) = diff_observations(&self.obs[i], &self.obs[j]) else {
                    continue;
                };
                let (a, b) = (&self.names[i], &self.names[j]);
                if allowed_by(a, b, &site).is_some() {
                    self.stats.allowed += 1;
                    continue;
                }
                self.stats.divergences += 1;
                if !self.seen.insert((i, j, SiteSig::of(&site))) {
                    continue;
                }
                let bug_id = format!("diff_{a}+{b}_{}", site.tag());
                if self.triage.contains(&bug_id) {
                    continue;
                }
                let input = Arc::clone(shared.get_or_insert_with(&share));
                self.triage.record(BugFind {
                    bug_id,
                    kind: CrashKind::Divergence,
                    message: site.describe(a, b),
                    exec,
                    input,
                });
            }
        }
    }
}

/// Inputs the primary hands an [`OracleLane`] at a time.
const LANE_BATCH: usize = 16;

/// What an oracle lane's replays found: the divergence finds (unique by
/// signature, discovery order), the oracle's counters, and the backend
/// executions the replays took.
#[derive(Debug, Default)]
pub(crate) struct OracleOutcome {
    pub(crate) finds: Vec<BugFind>,
    pub(crate) stats: DivergenceStats,
    pub(crate) backend_execs: u64,
}

/// What an [`OracleLane`] runs on its thread: a replayer of executed
/// inputs that reports an [`OracleOutcome`] once the lane finishes.
pub(crate) trait Replayer {
    /// Replays the input the campaign executed as its `exec`-th. A find
    /// keeps the buffer by cloning the `Arc`.
    fn replay(&mut self, input: &Arc<FuzzInput>, exec: u64);
    /// What the replays found.
    fn into_outcome(self) -> OracleOutcome;
}

impl Replayer for DifferentialRunner {
    fn replay(&mut self, input: &Arc<FuzzInput>, exec: u64) {
        self.observe(input, exec, || Arc::clone(input));
    }

    fn into_outcome(self) -> OracleOutcome {
        OracleOutcome {
            backend_execs: self.backend_execs(),
            stats: self.stats,
            finds: self.triage.into_finds(),
        }
    }
}

/// A batch of executed inputs with their exec indices. Its slots are
/// recycled: a batch that comes home from the lane is refilled in
/// place, except for a slot whose buffer a divergence find kept, which
/// the primary replaces. The buffers are allocated by the primary's
/// thread, so the finds' inputs outlive the lane without keeping its
/// allocator arena resident.
struct Batch {
    slots: Vec<(Arc<FuzzInput>, u64)>,
    len: usize,
}

impl Batch {
    /// An empty batch; its slots are allocated as it fills.
    fn new() -> Batch {
        Batch {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn push(&mut self, input: &FuzzInput, exec: u64) {
        match self.slots.get_mut(self.len) {
            Some((slot, at)) => {
                match Arc::get_mut(slot) {
                    Some(buffer) => buffer.bytes.clone_from(&input.bytes),
                    None => *slot = Arc::new(input.clone()),
                }
                *at = exec;
            }
            None => self.slots.push((Arc::new(input.clone()), exec)),
        }
        self.len += 1;
    }
}

/// A running lane: the channel batches go out on (holding at most one
/// waiting batch), the one they come home on, and the thread.
struct Running {
    out: SyncSender<Batch>,
    home: Receiver<Batch>,
    thread: JoinHandle<OracleOutcome>,
}

/// A differential campaign's oracle lane (see the module docs): replays
/// every pushed input on a thread of its own, one batch behind the
/// primary, through the [`Replayer`] its builder makes there.
pub(crate) struct OracleLane<R: Replayer = DifferentialRunner> {
    /// Builds the replayer on the lane's thread; taken when it starts.
    build: Option<Box<dyn FnOnce() -> R + Send>>,
    /// The batch the primary is filling.
    filling: Batch,
    /// Batches that came home during a drain, ready to refill.
    spare: Vec<Batch>,
    /// Batches handed over and not yet home.
    in_flight: usize,
    running: Option<Running>,
}

impl OracleLane {
    /// The lane of a campaign config (`None` unless its oracle is
    /// [`OracleMode::Differential`]). Starts no thread: the first batch
    /// does.
    pub(crate) fn of_campaign(cfg: &CampaignConfig) -> Option<Self> {
        (cfg.oracle == OracleMode::Differential).then(|| {
            let cfg = cfg.clone();
            OracleLane::new(move || {
                DifferentialRunner::of_campaign(&cfg).expect("the config arms the oracle")
            })
        })
    }
}

impl<R: Replayer + 'static> OracleLane<R> {
    /// A lane whose thread replays through what `build` makes there.
    pub(crate) fn new(build: impl FnOnce() -> R + Send + 'static) -> Self {
        OracleLane {
            build: Some(Box::new(build)),
            filling: Batch::new(),
            spare: Vec::new(),
            in_flight: 0,
            running: None,
        }
    }

    /// Queues the campaign's `exec`-th input for replay, handing the
    /// batch over once it is full (blocking while the lane still has a
    /// full batch waiting).
    pub(crate) fn push(&mut self, input: &FuzzInput, exec: u64) {
        self.filling.push(input, exec);
        if self.filling.len == LANE_BATCH {
            self.hand_over();
        }
    }

    /// Replays everything pushed so far before returning: hands over
    /// the partial batch and waits until every batch is home.
    pub(crate) fn drain(&mut self) {
        if self.filling.len > 0 {
            self.hand_over();
        }
        while self.in_flight > 0 {
            match self.running.as_ref().map(|running| running.home.recv()) {
                Some(Ok(batch)) => {
                    self.in_flight -= 1;
                    self.spare.push(batch);
                }
                _ => self.raise(),
            }
        }
    }

    /// Drains the lane, closes it, and joins its thread for the
    /// replayer's outcome. A lane that never started replayed nothing
    /// and found nothing.
    pub(crate) fn finish(mut self) -> OracleOutcome {
        self.drain();
        match self.running.take() {
            Some(running) => join(running).unwrap_or_else(|payload| resume_unwind(payload)),
            None => OracleOutcome::default(),
        }
    }

    /// Sends the filling batch to the lane, starting the lane first if
    /// this is its first batch, and takes up an empty one: a spare, the
    /// batch the lane finished while the send waited, or a new one.
    fn hand_over(&mut self) {
        let batch = std::mem::replace(&mut self.filling, Batch::new());
        let running = self.running.get_or_insert_with(|| start(&mut self.build));
        if running.out.send(batch).is_err() {
            self.raise();
        }
        self.in_flight += 1;
        if let Some(spare) = self.spare.pop() {
            self.filling = spare;
        } else if let Ok(home) = running.home.try_recv() {
            self.in_flight -= 1;
            self.filling = home;
        }
    }

    /// The lane hung up: its thread panicked. Raises the panic again
    /// here, with the lane's payload.
    fn raise(&mut self) -> ! {
        let running = self.running.take().expect("only a running lane hangs up");
        let Err(payload) = join(running) else {
            unreachable!("a lane hangs up only by panicking")
        };
        resume_unwind(payload)
    }
}

impl<R: Replayer> Drop for OracleLane<R> {
    /// Closes the lane and joins its thread, which stops after the
    /// batch it is replaying. A panic on the lane is raised again here
    /// unless this thread is already unwinding.
    fn drop(&mut self) {
        if let Some(running) = self.running.take() {
            if let Err(payload) = join(running) {
                if !std::thread::panicking() {
                    resume_unwind(payload);
                }
            }
        }
    }
}

/// Starts a lane's thread on the replayer `build` makes there.
fn start<R: Replayer + 'static>(build: &mut Option<Box<dyn FnOnce() -> R + Send>>) -> Running {
    let build = build.take().expect("a lane starts once");
    let (out, inbox) = mpsc::sync_channel::<Batch>(1);
    let (home_tx, home) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("oracle-lane".into())
        .spawn(move || replay_batches(build(), inbox, home_tx))
        .expect("spawn the oracle lane");
    Running { out, home, thread }
}

/// The lane's thread: replays each batch in order and sends it home,
/// until the campaign closes the lane or stops taking batches back.
fn replay_batches<R: Replayer>(
    mut replayer: R,
    inbox: Receiver<Batch>,
    home: Sender<Batch>,
) -> OracleOutcome {
    for mut batch in inbox {
        for (input, exec) in &batch.slots[..batch.len] {
            replayer.replay(input, *exec);
        }
        batch.len = 0;
        if home.send(batch).is_err() {
            break;
        }
    }
    replayer.into_outcome()
}

/// Closes a lane and joins its thread: the replayer's outcome, or the
/// payload of the panic that ended the lane.
fn join(running: Running) -> std::thread::Result<OracleOutcome> {
    let Running { out, home, thread } = running;
    drop(out);
    drop(home);
    thread.join()
}

/// Wraps a backend factory so every instance it builds has coverage
/// recording off: the differential oracle reads a replay's
/// observation, never its coverage.
fn non_recording(factory: HvFactory) -> HvFactory {
    Box::new(move |config| {
        let mut hv = factory(config);
        hv.core_mut().set_recording(false);
        hv
    })
}

/// Parses a divergence bug id (`diff_{a}+{b}_{tag}`) into its backend
/// pair. Backend names never contain `_` or `+`, so the pair is the
/// segment between the `diff_` prefix and the next `_`. Used by
/// `corpus repro` to recover the recorded pair from a saved crash
/// filename.
pub fn parse_divergence_pair(bug_id: &str) -> Option<(String, String)> {
    let rest = bug_id.split("diff_").nth(1)?;
    let pair = rest.split('_').next()?;
    let (a, b) = pair.split_once('+')?;
    if a.is_empty() || b.is_empty() {
        return None;
    }
    Some((a.to_string(), b.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_mode_parses_its_own_names() {
        for mode in [OracleMode::Sanitizer, OracleMode::Differential] {
            assert_eq!(OracleMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(OracleMode::parse("hybrid"), None);
    }

    #[test]
    fn sigs_are_filename_safe() {
        let all = [
            ObsResult::Ok(0xdead),
            ObsResult::VmFail(7),
            ObsResult::Fault("#GP"),
            ObsResult::L2Entered { runnable: true },
            ObsResult::L2Entered { runnable: false },
            ObsResult::EntryFailed(0x8000_0021),
            ObsResult::Reflected(0x28),
            ObsResult::HostDead,
        ];
        let sigs: Vec<String> = all.iter().map(|r| r.sig().to_string()).collect();
        for sig in &sigs {
            assert!(
                sig.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()),
                "sig {sig:?} is not filename-safe"
            );
        }
        // Distinct results must have distinct signatures — the bug id
        // is the deduplication key.
        let mut unique = sigs.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), sigs.len(), "sig collision in {sigs:?}");
    }

    #[test]
    fn event_tag_drops_the_index() {
        let early = DivergenceSite::Event {
            index: 3,
            a: ObsResult::Reflected(0x28),
            b: ObsResult::Reflected(0xc),
        };
        let late = DivergenceSite::Event {
            index: 40,
            a: ObsResult::Reflected(0x28),
            b: ObsResult::Reflected(0xc),
        };
        assert_eq!(early.tag().to_string(), late.tag().to_string());
        assert_eq!(early.tag().to_string(), "rfl28vrflc");
    }

    fn obs(events: &[ObsResult]) -> ExecObservation {
        ExecObservation {
            events: events.to_vec(),
            ..ExecObservation::default()
        }
    }

    #[test]
    fn diff_reports_first_divergent_site() {
        let a = obs(&[ObsResult::Ok(1), ObsResult::Reflected(0xc)]);
        let b = obs(&[ObsResult::Ok(1), ObsResult::Reflected(0x28)]);
        assert_eq!(
            diff_observations(&a, &b),
            Some(DivergenceSite::Event {
                index: 1,
                a: ObsResult::Reflected(0xc),
                b: ObsResult::Reflected(0x28),
            })
        );
        assert_eq!(diff_observations(&a, &a), None);
    }

    #[test]
    fn diff_reports_length_then_state() {
        let short = obs(&[ObsResult::Ok(1)]);
        let long = obs(&[ObsResult::Ok(1), ObsResult::Ok(2)]);
        assert_eq!(
            diff_observations(&short, &long),
            Some(DivergenceSite::SeqLen { a: 1, b: 2 })
        );
        let mut state = short.clone();
        state.final_state.cr4 = 0x2000;
        assert_eq!(
            diff_observations(&short, &state),
            Some(DivergenceSite::State {
                field: "cr4",
                a: 0,
                b: 0x2000,
            })
        );
    }

    #[test]
    fn entry_hardening_rule_is_directional() {
        let golden_entered = DivergenceSite::Event {
            index: 0,
            a: ObsResult::L2Entered { runnable: false },
            b: ObsResult::EntryFailed(0x8000_0021),
        };
        // golden completing the entry is the allowed quirk...
        assert_eq!(
            allowed_by("golden", "vkvm", &golden_entered).map(|r| r.name),
            Some("l0-entry-hardening")
        );
        // ...a software backend entering where bare metal refuses is a
        // finding.
        assert!(allowed_by("vkvm", "golden", &golden_entered).is_none());
    }

    #[test]
    fn entry_check_order_rule_needs_both_sides_failed() {
        let both_failed = DivergenceSite::Event {
            index: 0,
            a: ObsResult::EntryFailed(0x8000_0021),
            b: ObsResult::EntryFailed(0x8000_0022),
        };
        assert_eq!(
            allowed_by("vkvm", "golden", &both_failed).map(|r| r.name),
            Some("entry-check-order")
        );
        let reflected = DivergenceSite::Event {
            index: 0,
            a: ObsResult::Reflected(0x28),
            b: ObsResult::Reflected(0xc),
        };
        assert!(allowed_by("vkvm", "golden", &reflected).is_none());
    }

    #[test]
    fn divergence_pair_roundtrips_through_the_bug_id() {
        let site = DivergenceSite::Event {
            index: 16,
            a: ObsResult::Reflected(0x28),
            b: ObsResult::Reflected(0xc),
        };
        let bug_id = format!("diff_{SEEDED_HLT_BACKEND}+golden_{}", site.tag());
        assert_eq!(
            parse_divergence_pair(&bug_id),
            Some((SEEDED_HLT_BACKEND.to_string(), "golden".to_string()))
        );
        // The saved-crash filename embeds the bug id; the pair must
        // survive the wrapping.
        let path = format!("out/crash-s007-exec000298-{bug_id}.bin");
        assert_eq!(
            parse_divergence_pair(&path),
            Some((SEEDED_HLT_BACKEND.to_string(), "golden".to_string()))
        );
        assert_eq!(parse_divergence_pair("wdt_hang_l1"), None);
        assert_eq!(parse_divergence_pair("diff_nopair"), None);
    }

    #[test]
    fn replay_hosts_record_nothing_across_config_flips() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let backends = ["vxen", "vvbox", "golden"].map(String::from);
        let mut runner = DifferentialRunner::new(
            &backends,
            CpuVendor::Intel,
            ComponentMask::ALL,
            EngineMode::Snapshot,
        );
        let mut rng = SmallRng::seed_from_u64(21);
        for exec in 0..40 {
            // A new input flips the config (a fresh host); its repeat
            // keeps it (a guest reset of the same host).
            let input = FuzzInput::random(&mut rng);
            for _ in 0..2 {
                runner.observe_exec(&input, exec);
                for (name, agent) in runner.names.iter().zip(&runner.agents) {
                    assert!(!agent.hv().core().recording(), "{name} records");
                    assert!(agent.hv().trace().is_empty(), "{name} holds a hit");
                }
            }
        }
        for (name, agent) in runner.names.iter().zip(&runner.agents) {
            let stats = agent.engine_stats();
            assert!(
                stats.factory_builds > 1 && stats.guest_resets > 0,
                "{name}: the inputs must flip and keep the config: {stats:?}"
            );
        }
    }

    /// A lane consumer that panics on the exec index `at`.
    struct PanicsAt {
        at: u64,
    }

    impl Replayer for PanicsAt {
        fn replay(&mut self, _input: &Arc<FuzzInput>, exec: u64) {
            if exec == self.at {
                panic!("replay of exec {exec} exploded");
            }
        }

        fn into_outcome(self) -> OracleOutcome {
            OracleOutcome::default()
        }
    }

    /// The message of a caught `panic!` with a formatted message.
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        *payload
            .downcast::<String>()
            .expect("a formatted panic message")
    }

    #[test]
    fn a_panic_on_the_lane_is_raised_on_the_pushing_thread() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let input = FuzzInput::zeroed();
        let expected = |at| format!("replay of exec {at} exploded");
        // Whichever call meets the dead lane first raises its panic:
        // a push whose hand-over finds the lane gone, or the drain.
        let pushed = catch_unwind(AssertUnwindSafe(|| {
            let mut lane = OracleLane::new(|| PanicsAt { at: 3 });
            for exec in 1..=50 * LANE_BATCH as u64 {
                lane.push(&input, exec);
            }
            lane.drain();
        }));
        assert_eq!(message(pushed.expect_err("the lane panicked")), expected(3));

        // Finishing raises it too, and so does dropping the lane.
        let finished = catch_unwind(AssertUnwindSafe(|| {
            let mut lane = OracleLane::new(|| PanicsAt { at: 5 });
            for exec in 1..=5 {
                lane.push(&input, exec);
            }
            lane.finish()
        }));
        assert_eq!(
            message(finished.expect_err("the lane panicked")),
            expected(5)
        );
        let dropped = catch_unwind(AssertUnwindSafe(|| {
            let mut lane = OracleLane::new(|| PanicsAt { at: 7 });
            for exec in 1..=LANE_BATCH as u64 {
                lane.push(&input, exec);
            }
            drop(lane);
        }));
        assert_eq!(
            message(dropped.expect_err("the lane panicked")),
            expected(7)
        );
    }

    #[test]
    fn a_lane_replays_in_order_and_starts_with_its_first_batch() {
        use std::sync::Mutex;

        /// Logs every `(exec, first input byte)` it replays.
        struct Log(Arc<Mutex<Vec<(u64, u8)>>>);
        impl Replayer for Log {
            fn replay(&mut self, input: &Arc<FuzzInput>, exec: u64) {
                self.0.lock().unwrap().push((exec, input.bytes[0]));
            }
            fn into_outcome(self) -> OracleOutcome {
                OracleOutcome::default()
            }
        }

        let log = Arc::new(Mutex::new(Vec::new()));
        let logger = || {
            let log = Arc::clone(&log);
            move || Log(log)
        };
        let unstarted = OracleLane::new(logger());
        assert!(unstarted.running.is_none(), "a new lane starts no thread");
        unstarted.finish();

        // 100 inputs: full batches, a partial batch drained in the
        // middle, and a partial batch the finish hands over.
        let mut lane = OracleLane::new(logger());
        let mut input = FuzzInput::zeroed();
        for exec in 1..=100u64 {
            input.bytes[0] = exec as u8;
            lane.push(&input, exec);
            if exec == 41 {
                lane.drain();
                assert_eq!(lane.in_flight, 0);
                assert_eq!(log.lock().unwrap().len(), 41, "a drain replays all");
            }
        }
        lane.finish();
        let want: Vec<(u64, u8)> = (1..=100u64).map(|e| (e, e as u8)).collect();
        assert_eq!(*log.lock().unwrap(), want, "every exec once, in order");
    }

    #[test]
    fn unknown_backend_names_have_no_factory() {
        for name in ["vkvm", "vxen", "vvbox", "golden", SEEDED_HLT_BACKEND] {
            assert!(backend_factory(name).is_some(), "{name} must resolve");
            assert_eq!(check_backend(name, CpuVendor::Intel), Ok(()));
        }
        assert!(backend_factory("qemu").is_none());
        assert!(check_backend("qemu", CpuVendor::Intel).is_err());
        // VirtualBox's nested model is Intel-only; the check refuses
        // what `Vvbox::new` would assert on.
        assert!(check_backend("vvbox", CpuVendor::Amd).is_err());
        assert_eq!(check_backend("golden", CpuVendor::Amd), Ok(()));
    }
}
