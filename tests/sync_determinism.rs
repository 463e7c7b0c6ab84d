//! Sync determinism: corpus sharing must not cost the orchestrator its
//! two core guarantees.
//!
//! 1. **serial == parallel**: a synced grid run with `jobs(1)` is
//!    element-for-element identical to the same grid with `jobs(8)` —
//!    the `SyncGroup` is the scheduling unit, so worker count cannot
//!    reorder the delta exchanges.
//! 2. **off == never**: `sync_interval = 0` (never sync) reproduces
//!    today's unsynced results bit-for-bit. Any non-zero interval
//!    syncs, `sync_interval = hours` included: gossip is not clocked,
//!    so no boundary leaves an exchange without effect.

use necofuzz::campaign::{run_campaign, CampaignConfig};
use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignPlan};
use nf_fuzz::Mode;
use nf_hv::{Vkvm, Vxen};
use nf_x86::CpuVendor;

const HOURS: u32 = 3;
const EXECS_PER_HOUR: u32 = 40;

fn grid(mode: Mode, sync_interval: u32) -> CampaignPlan {
    let base = CampaignConfig::necofuzz(CpuVendor::Intel, HOURS, 0)
        .with_execs_per_hour(EXECS_PER_HOUR)
        .with_mode(mode)
        .with_sync_interval(sync_interval);
    CampaignPlan::new(base)
        .backend(Backend::new("vkvm", |c| Box::new(Vkvm::new(c))))
        .backend(Backend::new("vxen", |c| Box::new(Vxen::new(c))))
        .vendors(&[CpuVendor::Intel, CpuVendor::Amd])
        .seeds(0..3)
}

#[test]
fn synced_grid_serial_equals_parallel() {
    for mode in [Mode::Guided, Mode::Unguided] {
        let plan = grid(mode, 1);
        let serial = CampaignExecutor::new().jobs(1).run(&plan);
        let parallel = CampaignExecutor::new().jobs(8).run(&plan);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s, p,
                "synced {mode:?} job {i} diverged across jobs=1/jobs=8"
            );
        }
        // The grid must actually share: each (backend, vendor) cell
        // syncs its three seeds.
        assert!(
            serial.iter().any(|r| r.adopted > 0),
            "{mode:?} grid exchanged nothing"
        );
    }
}

#[test]
fn never_sync_and_final_boundary_sync_match_unsynced_results() {
    // "Today's results": plain run_campaign, no sync machinery at all.
    let unsynced: Vec<_> = (0..3)
        .map(|seed| {
            let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, HOURS, seed)
                .with_execs_per_hour(EXECS_PER_HOUR)
                .with_mode(Mode::Guided);
            run_campaign(Box::new(|c| Box::new(Vkvm::new(c))), &cfg)
        })
        .collect();

    let base = CampaignConfig::necofuzz(CpuVendor::Intel, HOURS, 0)
        .with_execs_per_hour(EXECS_PER_HOUR)
        .with_mode(Mode::Guided)
        .with_sync_interval(0);
    let plan = CampaignPlan::new(base)
        .backend(Backend::new("vkvm", |c| Box::new(Vkvm::new(c))))
        .seeds(0..3);
    let results = CampaignExecutor::new().jobs(4).run(&plan);
    assert_eq!(results.len(), unsynced.len());
    for (i, (grouped, plain)) in results.iter().zip(&unsynced).enumerate() {
        assert_eq!(
            grouped.hourly, plain.hourly,
            "hourly curve diverged for seed {i}"
        );
        assert_eq!(grouped.lines, plain.lines, "seed {i}");
        assert_eq!(grouped.finds, plain.finds, "seed {i}");
        assert_eq!(grouped.execs, plain.execs, "seed {i}");
        assert_eq!(grouped.restarts, plain.restarts, "seed {i}");
        assert_eq!(grouped.adopted, 0, "seed {i}");
        // Full structural equality — the corpus too: a never-
        // exchanging group must not leak worker ids or forced
        // recording into its members.
        assert_eq!(grouped, plain, "result diverged for seed {i}");
    }
}

#[test]
fn synced_fleet_members_converge_on_shared_coverage() {
    // The point of the exchange: every member of a synced cell ends at
    // least as covered as its unsynced twin, and the worst member
    // improves strictly (the fleet pools discoveries).
    let unsynced = CampaignExecutor::new()
        .jobs(1)
        .run(&grid(Mode::Unguided, 0));
    let synced = CampaignExecutor::new()
        .jobs(1)
        .run(&grid(Mode::Unguided, 1));
    let min = |rs: &[necofuzz::CampaignResult]| {
        rs.iter()
            .map(|r| r.final_coverage)
            .fold(f64::INFINITY, f64::min)
    };
    assert!(
        min(&synced) > min(&unsynced),
        "worst synced member {:.4} must beat worst unsynced member {:.4}",
        min(&synced),
        min(&unsynced)
    );
}
