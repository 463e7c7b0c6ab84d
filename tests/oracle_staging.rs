//! Staged differential replay equivalence: a [`DifferentialRunner`]
//! generates each input's harness VM once and runs it on every backend,
//! skipping the coverage projection and triage that nothing reads. It
//! must observe exactly what running the whole iteration loop on every
//! backend observes.
//!
//! The reference below is the runner's original body: one
//! `Agent::run_iteration_with` per backend per input, then the pairwise
//! diff. Both sides see the same inputs; every backend's observation
//! and crash flag, the divergence counters, the backend exec count, and
//! the divergence finds must agree after every input — across both
//! shipped backend sets and both vendors.

use std::fmt::Write as _;
use std::sync::Arc;

use necofuzz::differential::{allowed_by, diff_observations, DivergenceStats, ExecObservation};
use necofuzz::{
    backend_factory, Agent, BugFind, ComponentMask, CrashTriage, DifferentialRunner, EngineMode,
    InputLayout,
};
use nf_fuzz::FuzzInput;
use nf_hv::CrashKind;
use nf_x86::CpuVendor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Inputs per configuration.
const INPUTS: usize = 300;

/// The runner as it was before staging: every backend runs the full
/// iteration loop on every input.
struct Reference {
    names: Vec<String>,
    agents: Vec<Agent>,
    obs: Vec<ExecObservation>,
    triage: CrashTriage,
    stats: DivergenceStats,
}

impl Reference {
    fn new(backends: &[String], vendor: CpuVendor, mask: ComponentMask) -> Self {
        let agents = backends
            .iter()
            .map(|name| {
                let factory = backend_factory(name).expect("known backend");
                Agent::new(factory, vendor, mask)
            })
            .collect();
        Reference {
            names: backends.to_vec(),
            agents,
            obs: vec![ExecObservation::default(); backends.len()],
            triage: CrashTriage::new(),
            stats: DivergenceStats::default(),
        }
    }

    fn backend_execs(&self) -> u64 {
        self.agents.iter().map(Agent::execs).sum()
    }

    fn observe_exec(&mut self, input: &FuzzInput, exec: u64) {
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
                let mut bug_id = String::new();
                write!(bug_id, "diff_{a}+{b}_{}", site.tag()).expect("String write");
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

/// Random inputs, half of them runtime-section variants of a few base
/// inputs: those share every scenario unit up to the runtime phase.
fn inputs(seed: u64) -> Vec<FuzzInput> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bases: Vec<FuzzInput> = (0..6).map(|_| FuzzInput::random(&mut rng)).collect();
    let runtime = InputLayout::RUNTIME;
    (0..INPUTS)
        .map(|i| {
            if i % 2 == 0 {
                return FuzzInput::random(&mut rng);
            }
            let mut input = bases[rng.gen_range(0..bases.len())].clone();
            for _ in 0..rng.gen_range(1..4) {
                let at = runtime.offset + runtime.len / 2 + rng.gen_range(0..runtime.len / 2);
                input.bytes[at] = rng.gen();
            }
            input
        })
        .collect()
}

/// Runs [`inputs`] through a runner and the reference side by side,
/// asserting they agree after every input; returns the runner's
/// counters.
fn assert_staged_replay_matches_reference(
    backends: &[&str],
    vendor: CpuVendor,
    mask: ComponentMask,
    seed: u64,
) -> DivergenceStats {
    let backends: Vec<String> = backends.iter().map(|s| s.to_string()).collect();
    let what = format!("{backends:?} {vendor:?}");
    let mut runner = DifferentialRunner::new(&backends, vendor, mask, EngineMode::Snapshot);
    let mut reference = Reference::new(&backends, vendor, mask);
    for (exec, input) in inputs(seed).iter().enumerate() {
        let exec = exec as u64;
        runner.observe_exec(input, exec);
        reference.observe_exec(input, exec);
        for (name, want) in backends.iter().zip(&reference.obs) {
            let got = runner.observation(name).expect("configured backend");
            assert_eq!(got, want, "{what}: {name} observation at exec {exec}");
        }
        assert_eq!(
            runner.stats(),
            reference.stats,
            "{what}: stats at exec {exec}"
        );
        assert_eq!(
            runner.backend_execs(),
            reference.backend_execs(),
            "{what}: backend execs at exec {exec}"
        );
    }
    assert_eq!(
        runner.triage(),
        &reference.triage,
        "{what}: divergence finds"
    );
    runner.stats()
}

#[test]
fn staged_replay_matches_full_iterations_on_the_conformance_pair() {
    for vendor in [CpuVendor::Intel, CpuVendor::Amd] {
        let total = assert_staged_replay_matches_reference(
            &["vkvm", "golden"],
            vendor,
            ComponentMask::ALL,
            11,
        );
        assert!(
            total.crash_skipped > 0,
            "{vendor:?}: inputs must crash vkvm: {total:?}"
        );
    }
}

#[test]
fn staged_replay_matches_full_iterations_on_three_backends() {
    let total = assert_staged_replay_matches_reference(
        &["vxen", "vvbox", "golden"],
        CpuVendor::Intel,
        ComponentMask::ALL,
        12,
    );
    assert!(
        total.crash_skipped > 0 && total.divergences > 0,
        "inputs must exercise crashes and divergences: {total:?}"
    );
}

#[test]
fn staged_replay_matches_full_iterations_on_amd_xen() {
    // The VirtualBox model is Intel-only, so the AMD side of the
    // three-backend set is Xen against the golden model.
    let total = assert_staged_replay_matches_reference(
        &["vxen", "golden"],
        CpuVendor::Amd,
        ComponentMask::ALL,
        13,
    );
    assert!(
        total.crash_skipped + total.divergences > 0,
        "inputs must exercise crashes or divergences: {total:?}"
    );
}

#[test]
fn staged_replay_matches_full_iterations_with_every_component_ablated() {
    // The ablated agent stages golden templates and the fixed runtime
    // exit mix instead of validator output and input bytes.
    assert_staged_replay_matches_reference(
        &["vxen", "vvbox", "golden"],
        CpuVendor::Intel,
        ComponentMask::NONE,
        14,
    );
}
