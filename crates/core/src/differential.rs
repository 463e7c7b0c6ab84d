//! Cross-backend differential oracle: N-way snapshot replay with a
//! golden-model reference.
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
//! so one root cause surfacing at different steps stays one bug).
//! Executions where either side crashed or died are skipped — the
//! sanitizer oracle owns those. Known-intentional backend quirks are
//! filtered by an explicit [`AllowRule`] table.
//!
//! [`DiffOracle`] is the replay/minimization half: like
//! [`crate::triage::ReplayOracle`] it re-runs findings from clean
//! agents (cold then converged validator), and its minimizer only
//! accepts truncations that preserve the *divergence signature* — a
//! reproducer that merely still crashes, or diverges somewhere else,
//! is rejected.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use nf_fuzz::FuzzInput;
use nf_hv::{CrashKind, GuestObservation, L1Result, L2Result, SiliconGolden, Vkvm, Vvbox, Vxen};
use nf_x86::CpuVendor;

use crate::agent::{Agent, BugFind, ComponentMask};
use crate::campaign::HvFactory;
use crate::engine::EngineMode;
use crate::harness::ExecObserver;
use crate::triage::{minimize_input, CrashTriage};

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

/// Resolves a differential-backend name to a hypervisor factory.
///
/// Known names: `vkvm`, `vxen`, `vvbox`, `golden` (the
/// [`SiliconGolden`] bare-metal reference), and
/// [`SEEDED_HLT_BACKEND`] (test-only).
pub fn backend_factory(name: &str) -> Option<HvFactory> {
    Some(match name {
        "vkvm" => Box::new(|c| Box::new(Vkvm::new(c))),
        "vxen" => Box::new(|c| Box::new(Vxen::new(c))),
        "vvbox" => Box::new(|c| Box::new(Vvbox::new(c))),
        "golden" => Box::new(|c| Box::new(SiliconGolden::new(c))),
        SEEDED_HLT_BACKEND => Box::new(|c| {
            let mut hv = Vkvm::new(c);
            hv.bugs.misreport_hlt_exit = true;
            Box::new(hv)
        }),
        _ => return None,
    })
}

/// One canonical L1-visible event result, backend-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// snapshot-backed [`Agent`] per configured backend, a reusable
/// [`ExecObservation`] per backend, and its own divergence
/// [`CrashTriage`].
///
/// Every backend replays the same input sequence, so their validators
/// learn the same corrections in lockstep and each backend receives
/// the *same* generated harness VM per input — observations differ
/// only where backend behavior differs.
pub struct DifferentialRunner {
    names: Vec<String>,
    agents: Vec<Agent>,
    obs: Vec<ExecObservation>,
    triage: CrashTriage,
    stats: DivergenceStats,
    /// The bug id of the divergence being reported, rebuilt in place
    /// for each one.
    bug_id: String,
}

impl DifferentialRunner {
    /// A runner over `backends` (at least two; see [`backend_factory`]
    /// for the known names).
    ///
    /// # Panics
    ///
    /// Panics on fewer than two backends or an unknown backend name —
    /// both are configuration errors the CLI rejects up front.
    pub fn new(
        backends: &[String],
        vendor: CpuVendor,
        mask: ComponentMask,
        engine: EngineMode,
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
                Agent::with_engine(factory, vendor, mask, engine)
            })
            .collect();
        DifferentialRunner {
            names: backends.to_vec(),
            agents,
            obs: vec![ExecObservation::default(); backends.len()],
            triage: CrashTriage::new(),
            stats: DivergenceStats::default(),
            bug_id: String::new(),
        }
    }

    /// Enables prefix-cached execution on every backend agent. The
    /// 1+N replay structure of the oracle makes the trie especially
    /// effective: each backend replays the *same* input, so the shared
    /// scenario prefix is hot on every agent after the first exec.
    pub fn with_prefix_cache(mut self, enabled: bool) -> Self {
        self.agents = self
            .agents
            .into_iter()
            .map(|a| a.with_prefix_cache(enabled))
            .collect();
        self
    }

    /// Sets the booted-image cache capacity of every backend agent.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.agents = self
            .agents
            .into_iter()
            .map(|a| a.with_cache_capacity(capacity))
            .collect();
        self
    }

    /// Sets the prefix trie's byte budget on every backend agent.
    pub fn with_prefix_budget(mut self, bytes: usize) -> Self {
        self.agents = self
            .agents
            .into_iter()
            .map(|a| a.with_prefix_budget(bytes))
            .collect();
        self
    }

    /// Selects the prefix trie's snapshot store on every backend agent.
    pub fn with_prefix_store(mut self, mode: crate::engine::PrefixStoreMode) -> Self {
        self.agents = self
            .agents
            .into_iter()
            .map(|a| a.with_prefix_store(mode))
            .collect();
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
    /// [`DiffOracle`] uses for late-campaign findings.
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
    pub fn observe_exec(&mut self, input: &FuzzInput, exec: u64) {
        self.stats.execs_compared += 1;
        for (agent, ob) in self.agents.iter_mut().zip(&mut self.obs) {
            ob.clear();
            let crashed = agent.run_iteration_with(input, ob).feedback.crashed;
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
                self.bug_id.clear();
                write!(self.bug_id, "diff_{a}+{b}_{}", site.tag()).expect("String write");
                if self.triage.contains(&self.bug_id) {
                    continue;
                }
                let input = shared
                    .get_or_insert_with(|| Arc::new(input.clone()))
                    .clone();
                self.triage.record(BugFind {
                    bug_id: self.bug_id.clone(),
                    kind: CrashKind::Divergence,
                    message: site.describe(a, b),
                    exec,
                    input,
                });
            }
        }
    }
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

/// Replay/minimization oracle for divergence findings — the
/// differential twin of [`crate::triage::ReplayOracle`].
///
/// Replays run against *fresh* runners, trying the cold validator
/// context first and the converged one second (saved findings depend
/// on which oracle corrections were learned at discovery time).
/// Minimization fixes the reproducing context once and only accepts
/// truncations under which the exact divergence signature — the bug
/// id — still fires, so the minimized reproducer stays *divergent*,
/// not merely anomalous.
pub struct DiffOracle {
    backends: Vec<String>,
    vendor: CpuVendor,
    mask: ComponentMask,
    engine: EngineMode,
    prefix_cache: bool,
    cache_capacity: usize,
    prefix_budget: usize,
}

impl DiffOracle {
    /// An oracle replaying across `backends` with the given agent
    /// configuration (backend names as for [`backend_factory`]).
    pub fn new(
        backends: &[String],
        vendor: CpuVendor,
        mask: ComponentMask,
        engine: EngineMode,
    ) -> Self {
        DiffOracle {
            backends: backends.to_vec(),
            vendor,
            mask,
            engine,
            prefix_cache: false,
            cache_capacity: crate::engine::DEFAULT_CACHE_CAPACITY,
            prefix_budget: crate::engine::DEFAULT_PREFIX_BUDGET,
        }
    }

    /// Routes every replay through the prefix-cached execution path,
    /// matching the engine configuration the campaign ran with
    /// (divergence signatures reproduce bit-identically either way).
    pub fn with_prefix_cache(mut self, enabled: bool) -> Self {
        self.prefix_cache = enabled;
        self
    }

    /// Sets the booted-image cache capacity of the replay agents.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the prefix trie's byte budget of the replay agents.
    pub fn with_prefix_budget(mut self, bytes: usize) -> Self {
        self.prefix_budget = bytes;
        self
    }

    /// Replays `input` from clean runners; returns the divergence
    /// findings it triggers, in detection order.
    pub fn replay(&self, input: &FuzzInput) -> Vec<(String, CrashKind, String)> {
        for converged in [false, true] {
            let mut runner = self.runner(converged);
            runner.observe_exec(input, 0);
            if !runner.triage().is_empty() {
                return runner
                    .triage()
                    .iter()
                    .map(|f| (f.bug_id.clone(), f.kind, f.message.clone()))
                    .collect();
            }
        }
        Vec::new()
    }

    /// `true` when a clean replay of `input` (cold or converged
    /// validators) reproduces the divergence signature `bug_id`.
    pub fn reproduces(&self, bug_id: &str, input: &FuzzInput) -> bool {
        [false, true]
            .iter()
            .any(|&converged| self.reproduces_in(bug_id, input, converged))
    }

    /// [`minimize_input`] against this oracle for `bug_id`: every
    /// truncation candidate must reproduce the *same signature* in the
    /// context fixed from the original input.
    pub fn minimize(&self, bug_id: &str, input: &FuzzInput) -> FuzzInput {
        let Some(converged) = [false, true]
            .into_iter()
            .find(|&c| self.reproduces_in(bug_id, input, c))
        else {
            return input.clone();
        };
        minimize_input(input, |candidate| {
            self.reproduces_in(bug_id, candidate, converged)
        })
    }

    fn reproduces_in(&self, bug_id: &str, input: &FuzzInput, converged: bool) -> bool {
        let mut runner = self.runner(converged);
        runner.observe_exec(input, 0);
        runner.triage().contains(bug_id)
    }

    fn runner(&self, converged: bool) -> DifferentialRunner {
        let mut runner =
            DifferentialRunner::new(&self.backends, self.vendor, self.mask, self.engine)
                .with_prefix_cache(self.prefix_cache)
                .with_cache_capacity(self.cache_capacity)
                .with_prefix_budget(self.prefix_budget);
        if converged {
            runner.converge_validators();
        }
        runner
    }
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
    fn unknown_backend_names_have_no_factory() {
        for name in ["vkvm", "vxen", "vvbox", "golden", SEEDED_HLT_BACKEND] {
            assert!(backend_factory(name).is_some(), "{name} must resolve");
        }
        assert!(backend_factory("qemu").is_none());
    }
}
