//! Crash triage: the indexed vulnerability-report store.
//!
//! The agent used to keep a flat `Vec<BugFind>` and linear-scan it on
//! every crash; this module promotes that into a [`CrashTriage`] index:
//! O(1) dedup by bug id via a `HashSet`, first-seen provenance kept in
//! discovery order (the order every report and test relies on), and a
//! greedy input-truncation reproducer minimizer validated against the
//! engine — the saved input is whittled down to the bytes that still
//! retrigger the bug.

use std::collections::HashSet;

use nf_fuzz::FuzzInput;
use nf_hv::{CrashKind, FaultPlan, HvConfig, L0Hypervisor};

use crate::agent::BugFind;
use crate::campaign::{Campaign, CampaignConfig};
use crate::differential::{DifferentialRunner, OracleMode};

/// The deduplicating crash index. Replaces the agent's linear-scan
/// `Vec<BugFind>`: membership is a hash lookup, discovery order is
/// preserved for reporting.
#[derive(Debug, Clone, Default)]
pub struct CrashTriage {
    finds: Vec<BugFind>,
    ids: HashSet<String>,
}

impl CrashTriage {
    /// An empty index.
    pub fn new() -> Self {
        CrashTriage::default()
    }

    /// Records a report unless its bug id is already known. Returns
    /// `true` when this was the first sighting (the find keeps its
    /// first-seen provenance forever).
    pub fn record(&mut self, find: BugFind) -> bool {
        if self.ids.contains(&find.bug_id) {
            return false;
        }
        self.ids.insert(find.bug_id.clone());
        self.finds.push(find);
        true
    }

    /// `true` if a bug with this id was already recorded.
    pub fn contains(&self, bug_id: &str) -> bool {
        self.ids.contains(bug_id)
    }

    /// The finds in discovery order.
    pub fn finds(&self) -> &[BugFind] {
        &self.finds
    }

    /// The finds in discovery order, by value.
    pub fn into_finds(self) -> Vec<BugFind> {
        self.finds
    }

    /// Iterates the finds in discovery order.
    pub fn iter(&self) -> std::slice::Iter<'_, BugFind> {
        self.finds.iter()
    }

    /// Number of unique bugs recorded.
    pub fn len(&self) -> usize {
        self.finds.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.finds.is_empty()
    }
}

impl PartialEq for CrashTriage {
    fn eq(&self, other: &Self) -> bool {
        self.finds == other.finds
    }
}

impl<'a> IntoIterator for &'a CrashTriage {
    type Item = &'a BugFind;
    type IntoIter = std::slice::Iter<'a, BugFind>;

    fn into_iter(self) -> Self::IntoIter {
        self.finds.iter()
    }
}

/// Greedily minimizes a reproducer: zeroes ever-smaller aligned blocks
/// of the input and keeps each zeroing that still reproduces (as judged
/// by `reproduces`). The result is the same length — fuzz inputs are
/// fixed-size — but only the bytes the bug actually needs survive.
///
/// `reproduces` must return `true` for the original input; the
/// function asserts it and returns the input unchanged otherwise.
pub fn minimize_input(
    input: &FuzzInput,
    mut reproduces: impl FnMut(&FuzzInput) -> bool,
) -> FuzzInput {
    if !reproduces(input) {
        return input.clone();
    }
    let mut current = input.clone();
    let mut block = current.bytes.len() / 2;
    while block >= 16 {
        let mut off = 0;
        while off < current.bytes.len() {
            let end = (off + block).min(current.bytes.len());
            if current.bytes[off..end].iter().any(|&b| b != 0) {
                let mut candidate = current.clone();
                candidate.bytes[off..end].fill(0);
                if reproduces(&candidate) {
                    current = candidate;
                }
            }
            off = end;
        }
        block /= 2;
    }
    current
}

/// The replay oracle: re-runs a saved finding under the configuration
/// of the campaign that found it, and reports whether it fires again.
/// This is the "validated against the engine" half of reproducer
/// minimization.
///
/// Replays are faithful to the campaign's config: sanitizer findings
/// run through the agent [`Campaign`] builds (with the fault plan
/// reduced by [`FaultPlan::replay_subset`]: an input that hung under
/// injection hangs again, while faults tied to the original
/// campaign's exec positions never fire spuriously), and divergence
/// findings run through the campaign's differential runner, whose
/// minimizer only accepts truncations that keep the exact divergence
/// signature — the bug id.
pub struct ReplayOracle {
    factory: std::rc::Rc<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
    cfg: CampaignConfig,
}

impl ReplayOracle {
    /// An oracle replaying against `factory` (the campaign's target)
    /// under the campaign configuration `cfg`.
    pub fn new(
        factory: impl Fn(HvConfig) -> Box<dyn L0Hypervisor> + 'static,
        cfg: &CampaignConfig,
    ) -> Self {
        ReplayOracle {
            factory: std::rc::Rc::new(factory),
            cfg: CampaignConfig {
                fault_plan: cfg.fault_plan.as_ref().map(FaultPlan::replay_subset),
                ..cfg.clone()
            },
        }
    }

    /// Replays `input` from a clean context; returns the bugs it
    /// triggers, in detection order — the divergence findings under a
    /// differential config, the sanitizer findings otherwise.
    ///
    /// Two contexts are tried: a *cold* one (no oracle corrections —
    /// the early-campaign validator), then a *converged* one
    /// ([`crate::Agent::converge_validator`] — the late-campaign
    /// validator crash inputs were usually saved under). The harness
    /// VM generated from an input depends on which corrections were
    /// learned at discovery time, so a single context cannot reproduce
    /// every find. The first context in which `expect` (the bug the
    /// input was saved for) fires wins; without one, or when it fires
    /// in neither, the first context in which anything fires.
    pub fn replay(
        &self,
        input: &FuzzInput,
        expect: Option<&str>,
    ) -> Vec<(String, CrashKind, String)> {
        let divergence = self.cfg.oracle == OracleMode::Differential;
        let mut found = None;
        for converged in [false, true] {
            let triage = self.run(input, converged, divergence);
            if triage.is_empty() {
                continue;
            }
            if expect.is_none_or(|id| triage.contains(id)) {
                found = Some(triage);
                break;
            }
            found.get_or_insert(triage);
        }
        found.map_or_else(Vec::new, |triage| {
            triage
                .iter()
                .map(|f| (f.bug_id.clone(), f.kind, f.message.clone()))
                .collect()
        })
    }

    /// `true` when a clean replay of `input` (cold or converged
    /// validator) retriggers `bug_id`.
    pub fn reproduces(&self, bug_id: &str, input: &FuzzInput) -> bool {
        [false, true]
            .iter()
            .any(|&converged| self.reproduces_in(bug_id, input, converged))
    }

    /// [`minimize_input`] against this oracle for `bug_id`.
    ///
    /// The reproducing validator context is established once from the
    /// original input (cold first, like [`replay`](Self::replay)) and
    /// every truncation candidate is judged in that context alone —
    /// trying both per candidate would double the engine boots for no
    /// benefit, since a candidate only needs to reproduce somewhere
    /// and the original's context is the natural witness.
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

    /// One replay of `input` in a fixed validator context.
    fn reproduces_in(&self, bug_id: &str, input: &FuzzInput, converged: bool) -> bool {
        self.run(input, converged, bug_id.starts_with("diff_"))
            .contains(bug_id)
    }

    /// The one per-kind replay: `input` through a fresh differential
    /// runner (`divergence`) or a fresh agent, built exactly as the
    /// campaign builds them; returns the findings it recorded.
    fn run(&self, input: &FuzzInput, converged: bool, divergence: bool) -> CrashTriage {
        if divergence {
            let Some(mut runner) = DifferentialRunner::of_campaign(&self.cfg) else {
                return CrashTriage::new();
            };
            if converged {
                runner.converge_validators();
            }
            runner.observe_exec(input, 0);
            return runner.triage().clone();
        }
        let factory = std::rc::Rc::clone(&self.factory);
        let mut agent = Campaign::make_agent(Box::new(move |cfg| factory(cfg)), &self.cfg);
        if converged {
            agent.converge_validator();
        }
        agent.run_iteration(input);
        agent.triage().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(id: &str, exec: u64) -> BugFind {
        BugFind {
            bug_id: id.to_string(),
            kind: CrashKind::Ubsan,
            message: format!("report {id}"),
            exec,
            input: std::sync::Arc::new(FuzzInput::zeroed()),
        }
    }

    #[test]
    fn triage_dedups_and_keeps_first_seen() {
        let mut t = CrashTriage::new();
        assert!(t.record(find("a", 10)));
        assert!(t.record(find("b", 20)));
        assert!(!t.record(find("a", 30)), "duplicate id rejected");
        assert_eq!(t.len(), 2);
        assert!(t.contains("a") && t.contains("b") && !t.contains("c"));
        assert_eq!(t.finds()[0].exec, 10, "first-seen provenance kept");
        let order: Vec<&str> = t.iter().map(|f| f.bug_id.as_str()).collect();
        assert_eq!(order, ["a", "b"], "discovery order stable");
    }

    #[test]
    fn triage_equality_ignores_index_internals() {
        let mut a = CrashTriage::new();
        let mut b = CrashTriage::new();
        a.record(find("x", 1));
        b.record(find("x", 1));
        b.record(find("x", 2)); // rejected duplicate
        assert_eq!(a, b);
    }

    #[test]
    fn minimize_input_zeroes_irrelevant_bytes() {
        // The "bug" only needs byte 100 == 0x41.
        let mut input = FuzzInput::zeroed();
        for (i, b) in input.bytes.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        input.bytes[100] = 0x41;
        let minimized = minimize_input(&input, |c| c.bytes[100] == 0x41);
        assert_eq!(minimized.bytes[100], 0x41);
        assert_eq!(minimized.bytes.len(), input.bytes.len());
        let nonzero = minimized.bytes.iter().filter(|&&b| b != 0).count();
        assert!(
            nonzero <= 16,
            "only the load-bearing block survives, got {nonzero} non-zero bytes"
        );
    }

    #[test]
    fn minimize_input_returns_original_when_not_reproducing() {
        let input = FuzzInput::zeroed();
        let out = minimize_input(&input, |_| false);
        assert_eq!(out, input);
    }

    #[test]
    fn hung_exec_finds_reproduce_only_under_the_campaigns_fault_plan() {
        use crate::campaign::run_campaign;
        use nf_fuzz::Mode;
        use nf_x86::CpuVendor;

        // The oracle replays under the content-indexed subset of the
        // campaign's fault plan: every hang it saved hangs again, and
        // none does once the plan is gone.
        let kvm = |c| Box::new(nf_hv::Vkvm::new(c)) as Box<dyn L0Hypervisor>;
        let plan = FaultPlan::uniform(9, 0.05);
        let mut hangs = 0;
        for seed in 5..8 {
            let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 4, seed)
                .with_execs_per_hour(40)
                .with_mode(Mode::Guided)
                .with_fault_plan(plan);
            let result = run_campaign(Box::new(kvm), &cfg);
            let planned = ReplayOracle::new(kvm, &cfg);
            // Schedule-indexed faults are tied to the campaign's exec
            // positions, so the oracle keeps only the hang class.
            assert_eq!(planned.cfg.fault_plan, Some(plan.replay_subset()));
            let unplanned = ReplayOracle::new(
                kvm,
                &CampaignConfig {
                    fault_plan: None,
                    ..cfg.clone()
                },
            );
            for find in result
                .finds
                .iter()
                .filter(|f| f.kind == CrashKind::HungExec)
            {
                hangs += 1;
                assert!(
                    planned.reproduces(&find.bug_id, &find.input),
                    "seed {seed}: {} must hang again under the campaign's plan",
                    find.bug_id
                );
                assert!(
                    !unplanned.reproduces(&find.bug_id, &find.input),
                    "seed {seed}: {} hung without a fault plan",
                    find.bug_id
                );
            }
        }
        assert!(hangs > 0, "a 5% plan must hang some exec over three seeds");
    }

    #[test]
    fn oracle_replays_and_minimizes_a_real_campaign_find() {
        use crate::campaign::run_campaign;
        use nf_x86::CpuVendor;

        // A short Xen/Intel campaign reliably hits the wait-for-SIPI
        // hang (Table 6 bug #4).
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 4, 0).with_execs_per_hour(120);
        let result = run_campaign(Box::new(|c| Box::new(nf_hv::Vxen::new(c))), &cfg);
        let find = result
            .finds
            .iter()
            .find(|f| f.bug_id == "xen-wait-for-sipi")
            .expect("the campaign must find the hang");

        let oracle = ReplayOracle::new(|c| Box::new(nf_hv::Vxen::new(c)), &cfg);
        assert!(
            oracle.reproduces(&find.bug_id, &find.input),
            "the saved input must replay against a clean engine"
        );
        let minimized = oracle.minimize(&find.bug_id, &find.input);
        assert!(
            oracle.reproduces(&find.bug_id, &minimized),
            "the minimized input must still trigger the bug"
        );
        let before = find.input.bytes.iter().filter(|&&b| b != 0).count();
        let after = minimized.bytes.iter().filter(|&&b| b != 0).count();
        assert!(
            after < before / 4,
            "truncation must strip most of the input: {before} -> {after} non-zero bytes"
        );
    }
}
