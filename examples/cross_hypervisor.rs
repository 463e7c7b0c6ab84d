//! Hypervisor-agnostic fuzzing (paper RQ3): the same NecoFuzz generator
//! drives KVM, Xen, and VirtualBox models, and finds each target's own
//! bugs — nothing in the generator is hypervisor-specific.
//!
//! Demonstrates two things:
//!
//! 1. the per-hypervisor `HvAdapter`s translating one vCPU feature
//!    configuration into each host's own control interface (§3.5);
//! 2. the campaign orchestrator fanning the five-target campaign grid
//!    out over a worker pool — the per-target results print in plan
//!    order no matter which worker finishes first.
//!
//! Every campaign runs on the execution engine: each iteration resets
//! the guest, and the configurator's config flips build a fresh
//! instance through each hypervisor's factory (see
//! `docs/ARCHITECTURE.md`, "The execution engine").
//!
//! ```text
//! cargo run --release --example cross_hypervisor
//! ```

use necofuzz::campaign::CampaignConfig;
use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignJob};
use necofuzz::{HvAdapter, KvmAdapter, VboxAdapter, XenAdapter};
use nf_hv::{Vkvm, Vvbox, Vxen};
use nf_x86::{CpuVendor, FeatureSet};

fn main() {
    // The per-hypervisor adapters show how one configuration fans out to
    // each host's own interface (§3.5).
    let features = FeatureSet::default_for(CpuVendor::Intel);
    println!("one vCPU configuration, three host interfaces:");
    let (_, kvm_cmd) = KvmAdapter {
        vendor: CpuVendor::Intel,
    }
    .apply(features, true);
    let (_, xen_cmd) = XenAdapter {
        vendor: CpuVendor::Intel,
    }
    .apply(features, true);
    let (_, vbox_cmd) = VboxAdapter.apply(features, true);
    println!("  kvm : {kvm_cmd}");
    println!("  xen : {xen_cmd}");
    println!("  vbox: {vbox_cmd}");

    let targets: Vec<(Backend, CpuVendor)> = vec![
        (
            Backend::new("vkvm", |c| Box::new(Vkvm::new(c))),
            CpuVendor::Intel,
        ),
        (
            Backend::new("vkvm", |c| Box::new(Vkvm::new(c))),
            CpuVendor::Amd,
        ),
        (
            Backend::new("vxen", |c| Box::new(Vxen::new(c))),
            CpuVendor::Intel,
        ),
        (
            Backend::new("vxen", |c| Box::new(Vxen::new(c))),
            CpuVendor::Amd,
        ),
        (
            Backend::new("vvbox", |c| Box::new(Vvbox::new(c))),
            CpuVendor::Intel,
        ),
    ];
    let jobs: Vec<CampaignJob> = targets
        .iter()
        .map(|(backend, vendor)| CampaignJob {
            backend: backend.clone(),
            cfg: CampaignConfig {
                execs_per_hour: 150,
                ..CampaignConfig::necofuzz(*vendor, 8, 1)
            },
        })
        .collect();

    println!("\nfuzzing every target with the identical generator:");
    let results = CampaignExecutor::new().run_jobs(jobs);
    for ((backend, vendor), result) in targets.iter().zip(&results) {
        let bug_list: Vec<String> = result
            .finds
            .iter()
            .map(|f| format!("{} ({})", f.bug_id, f.kind))
            .collect();
        println!(
            "  {:<12} coverage {:>5.1}%  restarts {:>2}  bugs: {}",
            format!("{}/{vendor}", backend.name()),
            result.final_coverage * 100.0,
            result.restarts,
            if bug_list.is_empty() {
                "none".into()
            } else {
                bug_list.join(", ")
            },
        );
    }
}
