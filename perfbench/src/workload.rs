//! The benchmark's workloads: what each one runs, on which product
//! configuration, and the budget and coverage level it is measured at.
//! `README.md` in this directory says why each one was chosen and how
//! its level was picked.

use necofuzz::campaign::{CampaignConfig, GroupMember, HvFactory};
use necofuzz::{backend_factory, OracleMode};
use nf_fuzz::{Mode, MutationStrategy, SyncMode, SyncTopology};
use nf_x86::CpuVendor;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `necofuzz --target vkvm --vendor intel --guided` (havoc).
    KvmIntelHavoc,
    /// `necofuzz --target vkvm --vendor amd --guided --mutator
    /// structured --resume-checkpoint A --checkpoint-dir B`.
    KvmAmdCkpt,
    /// `necofuzz --target vxen --oracle differential --diff-backends
    /// vxen,vvbox,golden`, unguided.
    XenDiff3,
    /// `necofuzz --guided --runs 8 --sync-interval 1 --sync-mode async
    /// --sync-topology tree` on vkvm/Intel.
    FleetAsync8,
}

/// Run length the campaign counts of [`Workload::spec`] are sized for,
/// in seconds, on the 2-vCPU reference host (see `README.md`).
pub const REFERENCE_SECONDS: u64 = 20;

/// Budget and shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Virtual hours per campaign.
    pub hours: u32,
    /// Executions per virtual hour (per member for the fleet).
    pub execs_per_hour: u32,
    /// Campaigns (fleets, for `fleet-async8`) one untraced run holds.
    pub campaigns: usize,
    /// Times an untraced run repeats its whole set of campaigns; each
    /// virtual hour counts at its fastest pass.
    pub passes: usize,
    /// Campaigns per fleet; `1` for the lone-campaign workloads.
    pub members: usize,
    /// Coverage fraction `time_to_cov_s` waits for, checked at every
    /// virtual-hour boundary of the exec phase; for the fleet every
    /// member must reach it.
    pub cov_level: f64,
}

impl Spec {
    /// Executions one campaign (one fleet member) is budgeted.
    pub fn budget(&self) -> u64 {
        u64::from(self.hours) * u64::from(self.execs_per_hour)
    }

    /// The spec with its campaign count scaled from
    /// [`REFERENCE_SECONDS`] to a run of `seconds` (at least one).
    pub fn scaled_to(self, seconds: u64) -> Spec {
        let campaigns = (self.campaigns as u64).saturating_mul(seconds) / REFERENCE_SECONDS;
        Spec {
            campaigns: campaigns.max(1) as usize,
            ..self
        }
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::KvmIntelHavoc,
        Workload::KvmAmdCkpt,
        Workload::XenDiff3,
        Workload::FleetAsync8,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvmIntelHavoc => "kvm-intel-havoc",
            Workload::KvmAmdCkpt => "kvm-amd-ckpt",
            Workload::XenDiff3 => "xen-diff3",
            Workload::FleetAsync8 => "fleet-async8",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's budget, passes and coverage level.
    ///
    /// Per-campaign time to a coverage level varies by 20–30% from one
    /// campaign seed to the next, so the two workloads that climb
    /// (`kvm-intel-havoc`, `fleet-async8`) run many short campaigns
    /// and average them; their level is the one with the least
    /// seed-to-seed variation that every campaign tried reaches by
    /// about two thirds of its budget. On the other two, coverage tops
    /// out before the first hour boundary of the exec phase, so their
    /// level is one every seed has reached there. The fleet's level
    /// varies most between seeds, so it spends its time on campaigns
    /// rather than on a third pass.
    pub fn spec(self) -> Spec {
        match self {
            Workload::KvmIntelHavoc => Spec {
                hours: 24,
                execs_per_hour: 250,
                campaigns: 14,
                passes: 3,
                members: 1,
                cov_level: 0.785,
            },
            Workload::KvmAmdCkpt => Spec {
                hours: 4,
                execs_per_hour: 12_000,
                campaigns: 4,
                passes: 3,
                members: 1,
                cov_level: 0.82,
            },
            Workload::XenDiff3 => Spec {
                hours: 4,
                execs_per_hour: 1_500,
                campaigns: 6,
                passes: 3,
                members: 1,
                cov_level: 0.87,
            },
            Workload::FleetAsync8 => Spec {
                hours: 16,
                execs_per_hour: 50,
                campaigns: 20,
                passes: 2,
                members: 8,
                cov_level: 0.785,
            },
        }
    }

    /// The hypervisor model the workload fuzzes.
    pub fn factory(self) -> HvFactory {
        let target = match self {
            Workload::XenDiff3 => "vxen",
            _ => "vkvm",
        };
        backend_factory(target).expect("the workload targets are known backends")
    }

    /// The campaign configuration the equivalent `necofuzz` command
    /// line builds, for one campaign seed.
    pub fn config(self, spec: &Spec, seed: u64) -> CampaignConfig {
        let vendor = match self {
            Workload::KvmAmdCkpt => CpuVendor::Amd,
            _ => CpuVendor::Intel,
        };
        let cfg = CampaignConfig::necofuzz(vendor, spec.hours, seed)
            .with_execs_per_hour(spec.execs_per_hour);
        match self {
            Workload::KvmIntelHavoc => cfg.with_mode(Mode::Guided),
            Workload::KvmAmdCkpt => cfg
                .with_mode(Mode::Guided)
                .with_strategy(MutationStrategy::Structured),
            Workload::XenDiff3 => cfg
                .with_oracle(OracleMode::Differential)
                .with_diff_backends(&["vxen", "vvbox", "golden"]),
            Workload::FleetAsync8 => cfg
                .with_mode(Mode::Guided)
                .with_sync_interval(1)
                .with_sync_mode(SyncMode::Async)
                .with_sync_topology(SyncTopology::Tree),
        }
    }

    /// The campaign seed of campaign `k` of the run with seed `seed`
    /// (for the fleet: the seed of its first member; members take
    /// consecutive seeds, like `necofuzz --runs 8 --seed N`).
    pub fn campaign_seed(self, seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(1 << 16)
            .wrapping_add(k as u64)
            .wrapping_mul(self.spec().members as u64)
    }

    /// The members of one campaign: a single campaign, or the fleet's
    /// eight, in worker order.
    pub fn members(self, spec: &Spec, base_seed: u64) -> Vec<GroupMember> {
        (0..spec.members as u64)
            .map(|m| (self.factory(), self.config(spec, base_seed.wrapping_add(m))))
            .collect()
    }
}
