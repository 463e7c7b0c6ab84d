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
//! [`crate::triage::ReplayOracle`] is the replay/minimization half:
//! built from a differential campaign's config, it re-runs divergence
//! findings on fresh runners (cold then converged validators), and its
//! minimizer only accepts truncations that preserve the *divergence
//! signature* — a reproducer that merely still crashes, or diverges
//! somewhere else, is rejected.

use std::collections::HashSet;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use nf_fuzz::FuzzInput;
use nf_hv::{CrashKind, GuestObservation, L1Result, L2Result, SiliconGolden, Vkvm, Vvbox, Vxen};
use nf_x86::CpuVendor;

use crate::agent::{Agent, BugFind, ComponentMask};
use crate::campaign::HvFactory;
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
                let input = shared
                    .get_or_insert_with(|| Arc::new(input.clone()))
                    .clone();
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
