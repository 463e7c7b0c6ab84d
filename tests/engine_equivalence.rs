//! Engine equivalence: the snapshot-based persistent-execution engine
//! must be **bit-identical** to the original full-rebuild path.
//!
//! A 24-virtual-hour campaign is run twice — once per
//! [`necofuzz::EngineMode`] — for every backend × vendor × feedback
//! mode × component mask cell, and the two [`CampaignResult`]s are
//! compared with `==` (hourly samples, line sets, coverage map, finds,
//! exec/restart counters: everything). The grid fans out through the
//! orchestrator, so this doubles as a parallel-execution check.

use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignPlan};
use necofuzz::{CampaignConfig, ComponentMask, EngineMode};
use nf_fuzz::Mode;
use nf_hv::{Vkvm, Vvbox, Vxen};
use nf_x86::CpuVendor;

/// The ablation masks of Table 3 plus the two extremes.
fn masks() -> Vec<ComponentMask> {
    vec![
        ComponentMask::ALL,
        ComponentMask {
            harness: false,
            ..ComponentMask::ALL
        },
        ComponentMask {
            validator: false,
            ..ComponentMask::ALL
        },
        ComponentMask {
            configurator: false,
            ..ComponentMask::ALL
        },
        ComponentMask::NONE,
    ]
}

fn plan(engine: EngineMode, backend: Backend, vendors: &[CpuVendor]) -> CampaignPlan {
    let base = CampaignConfig::necofuzz(CpuVendor::Intel, 24, 1)
        .with_execs_per_hour(20)
        .with_engine(engine);
    CampaignPlan::new(base)
        .backend(backend)
        .vendors(vendors)
        .modes(&[Mode::Unguided, Mode::Guided])
        .masks(&masks())
}

fn assert_equivalent(backend: fn() -> Backend, vendors: &[CpuVendor]) {
    let executor = CampaignExecutor::new();
    let snapshot = executor.run(&plan(EngineMode::Snapshot, backend(), vendors));
    let rebuild = executor.run(&plan(EngineMode::Rebuild, backend(), vendors));
    assert_eq!(snapshot.len(), rebuild.len());
    let labels: Vec<String> = plan(EngineMode::Snapshot, backend(), vendors)
        .jobs()
        .iter()
        .map(|j| j.label())
        .collect();
    for ((s, r), label) in snapshot.iter().zip(&rebuild).zip(&labels) {
        assert_eq!(s, r, "campaign diverged between engines: {label}");
    }
    // The grid must exercise the interesting paths, not degenerate ones.
    assert!(snapshot.iter().all(|r| r.execs == 24 * 20));
    assert!(snapshot.iter().any(|r| r.final_coverage > 0.3));
}

#[test]
fn vkvm_campaigns_match_across_engines() {
    assert_equivalent(
        || Backend::new("vkvm", |c| Box::new(Vkvm::new(c))),
        &[CpuVendor::Intel, CpuVendor::Amd],
    );
}

#[test]
fn vxen_campaigns_match_across_engines() {
    assert_equivalent(
        || Backend::new("vxen", |c| Box::new(Vxen::new(c))),
        &[CpuVendor::Intel, CpuVendor::Amd],
    );
}

#[test]
fn vvbox_campaigns_match_across_engines() {
    assert_equivalent(
        || Backend::new("vvbox", |c| Box::new(Vvbox::new(c))),
        &[CpuVendor::Intel],
    );
}
