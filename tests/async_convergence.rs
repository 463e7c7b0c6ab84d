//! Gossip convergence: the watermark sync protocol must earn its keep
//! without giving up the repo's determinism guarantees.
//!
//! 1. **Determinism**: a synced group re-run with the same seeds and
//!    topology reproduces every member bit-for-bit (results *and*
//!    sync-cost counters) — gossip is scheduled, not racy.
//! 2. **Convergence**: after the final drain-to-quiescence, every
//!    member's own coverage equals the fleet union, and that union is
//!    exactly the union of the same seeds run as lone campaigns —
//!    unguided members never consult a queue parent, so sync changes
//!    *who* knows what, never *what* is found, and each member runs
//!    its lone twin's execs and finds.
//! 3. **Topology-independence**: ring and tree fleets converge to the
//!    same union (the gossip graph is a transport, not an oracle).
//! 4. **Orchestrator**: synced grids keep serial == parallel, carry the
//!    `/async-<topology>` cell label (unsynced cells carry none), and
//!    record sync work in the result counters.

use necofuzz::campaign::{
    run_campaign, run_campaign_group_observed, CampaignConfig, CampaignResult, GroupMember,
    HvFactory,
};
use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignPlan};
use nf_coverage::LineSet;
use nf_fuzz::{Mode, SyncTopology};
use nf_hv::Vkvm;
use nf_x86::CpuVendor;

const HOURS: u32 = 3;
const EXECS_PER_HOUR: u32 = 60;

fn vkvm() -> HvFactory {
    Box::new(|c| Box::new(Vkvm::new(c)))
}

fn member_cfg(worker: u32, topology: SyncTopology, fuzz_mode: Mode) -> CampaignConfig {
    CampaignConfig::necofuzz(CpuVendor::Intel, HOURS, u64::from(worker))
        .with_execs_per_hour(EXECS_PER_HOUR)
        .with_mode(fuzz_mode)
        .with_sync_interval(1)
        .with_sync_topology(topology)
}

fn group(n: u32, topology: SyncTopology, fuzz_mode: Mode) -> Vec<GroupMember> {
    (0..n)
        .map(|worker| (vkvm(), member_cfg(worker, topology, fuzz_mode)))
        .collect()
}

/// Runs the group and returns the results plus the final fleet union
/// and worst-member line counts (own coverage, from the last hourly
/// observation).
fn run_group(n: u32, topology: SyncTopology, fuzz_mode: Mode) -> (Vec<CampaignResult>, u32, u32) {
    let mut union_lines = 0u32;
    let mut min_lines = u32::MAX;
    let results = run_campaign_group_observed(group(n, topology, fuzz_mode), |members| {
        let (map, file) = members[0].coverage_geometry();
        let mut union = LineSet::for_map(&map);
        for member in members {
            union.union_with(member.lines());
        }
        union_lines = union.count_in(&map, file);
        min_lines = members
            .iter()
            .map(|m| m.lines().count_in(&map, file))
            .min()
            .unwrap();
    });
    (results, union_lines, min_lines)
}

#[test]
fn async_group_is_deterministic_for_fixed_seed_and_topology() {
    for topology in [SyncTopology::Tree, SyncTopology::Ring] {
        for fuzz_mode in [Mode::Unguided, Mode::Guided] {
            let (a, union_a, min_a) = run_group(4, topology, fuzz_mode);
            let (b, union_b, min_b) = run_group(4, topology, fuzz_mode);
            assert_eq!(a.len(), b.len());
            for (worker, (ra, rb)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    ra, rb,
                    "{topology} {fuzz_mode:?} worker {worker} diverged across reruns"
                );
                // CampaignResult equality excludes diagnostics, so
                // hold the sync counters to the same standard by hand.
                assert_eq!(
                    ra.sync, rb.sync,
                    "{topology} {fuzz_mode:?} worker {worker} sync counters diverged"
                );
            }
            assert_eq!((union_a, min_a), (union_b, min_b));
        }
    }
}

#[test]
fn async_union_matches_single_campaign_union_on_same_seeds() {
    for n in [2u32, 4, 8] {
        let (gossip, async_union, async_min) = run_group(n, SyncTopology::Tree, Mode::Unguided);
        // The reference: the same seeds, each run alone and unsynced.
        let singles: Vec<CampaignResult> = (0..n)
            .map(|worker| {
                let cfg =
                    member_cfg(worker, SyncTopology::Tree, Mode::Unguided).with_sync_interval(0);
                run_campaign(vkvm(), &cfg)
            })
            .collect();
        let (map, file) = (&singles[0].map, singles[0].file);
        let mut union = LineSet::for_map(map);
        for single in &singles {
            union.union_with(&single.lines);
        }
        assert_eq!(
            async_union,
            union.count_in(map, file),
            "{n}-worker fleet knows a different union than its seeds run alone"
        );
        // Drain-to-quiescence: by the last observation every member
        // holds the whole fleet's knowledge.
        assert_eq!(
            async_min, async_union,
            "{n}-worker async fleet left a member behind"
        );
        // Unguided members run their lone twins' exec streams: sync
        // moves knowledge, never what a member executes or finds.
        for (worker, (member, single)) in gossip.iter().zip(&singles).enumerate() {
            assert_eq!(member.execs, single.execs, "{n} workers, worker {worker}");
            assert_eq!(member.finds, single.finds, "{n} workers, worker {worker}");
        }
        // Adoption merges evidence instead of replaying: the exec
        // budget is untouched.
        let budget = u64::from(n) * u64::from(HOURS) * u64::from(EXECS_PER_HOUR);
        let async_execs: u64 = gossip.iter().map(|r| r.execs).sum();
        assert_eq!(async_execs, budget, "async adoption must not replay");
        // The fleets actually exchanged something.
        assert!(gossip.iter().all(|r| r.sync.deltas_published > 0));
        assert!(gossip.iter().all(|r| r.sync.deltas_applied > 0));
    }
}

#[test]
fn ring_and_tree_converge_to_the_same_union() {
    let (_, tree_union, tree_min) = run_group(8, SyncTopology::Tree, Mode::Unguided);
    let (_, ring_union, ring_min) = run_group(8, SyncTopology::Ring, Mode::Unguided);
    assert_eq!(tree_union, ring_union, "gossip graph changed the union");
    assert_eq!(tree_min, tree_union);
    assert_eq!(ring_min, ring_union);
}

fn async_plan(sync_interval: u32, topology: SyncTopology) -> CampaignPlan {
    let base = CampaignConfig::necofuzz(CpuVendor::Intel, HOURS, 0)
        .with_execs_per_hour(EXECS_PER_HOUR)
        .with_sync_interval(sync_interval)
        .with_sync_topology(topology);
    CampaignPlan::new(base)
        .backend(Backend::new("vkvm", |c| Box::new(Vkvm::new(c))))
        .seeds(0..4)
}

#[test]
fn orchestrated_async_grid_is_identical_serial_and_parallel() {
    let plan = async_plan(1, SyncTopology::Tree);
    let serial = CampaignExecutor::new().jobs(1).run(&plan);
    let parallel = CampaignExecutor::new().jobs(8).run(&plan);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "async job {i} diverged across jobs=1/jobs=8");
        assert_eq!(s.sync, p.sync, "async job {i} sync counters diverged");
    }
    assert!(
        serial.iter().any(|r| r.adopted > 0),
        "async grid exchanged nothing"
    );
}

#[test]
fn async_cells_are_labeled_with_their_topology() {
    for (topology, tag) in [
        (SyncTopology::Tree, "async-tree"),
        (SyncTopology::Ring, "async-ring"),
    ] {
        let jobs = async_plan(1, topology).jobs();
        assert_eq!(jobs.len(), 4);
        for job in &jobs {
            let label = job.label();
            assert!(
                label.contains(tag),
                "async label {label:?} does not name its topology"
            );
        }
    }
    // An unsynced cell carries no sync tag, whatever its topology.
    for topology in [SyncTopology::Tree, SyncTopology::Ring] {
        for job in async_plan(0, topology).jobs() {
            let label = job.label();
            assert!(
                !label.contains("async"),
                "unsynced label {label:?} grew a sync tag"
            );
        }
    }
}
