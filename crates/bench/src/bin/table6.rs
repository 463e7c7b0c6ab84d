//! Table 6: newly discovered vulnerabilities across hypervisors.
//!
//! Runs NecoFuzz campaigns against the three hypervisor models (KVM on
//! Intel and AMD, Xen on Intel and AMD, VirtualBox on Intel) and reports
//! every Table 6 bug with its detector, matching the paper's six finds.

use necofuzz::orchestrator::CampaignJob;
use nf_bench::*;
use nf_fuzz::Mode;
use nf_x86::CpuVendor;

fn main() {
    hr("Table 6 — vulnerability discovery");
    println!(
        "{:<4} {:<12} {:<7} {:<28} {:<18} found at exec",
        "No", "Hypervisor", "CPU", "Bug id", "Detector"
    );
    let mut no = 0;
    let targets = [
        ("vkvm", CpuVendor::Intel, HOURS_LONG),
        ("vkvm", CpuVendor::Amd, HOURS_LONG),
        ("vxen", CpuVendor::Intel, HOURS_SHORT),
        ("vxen", CpuVendor::Amd, HOURS_SHORT),
        ("vvbox", CpuVendor::Intel, HOURS_SHORT),
    ];
    // All five targets × RUNS seeds go out as one 25-job batch; the
    // per-target budgets differ, so this is an explicit job list
    // rather than a cartesian plan.
    let jobs: Vec<CampaignJob> = targets
        .iter()
        .flat_map(|&(name, vendor, hours)| {
            (0..RUNS).map(move |seed| CampaignJob {
                backend: backend(name),
                cfg: necofuzz::CampaignConfig::necofuzz(vendor, hours, seed)
                    .with_execs_per_hour(EXECS_PER_HOUR)
                    .with_mode(Mode::Unguided),
            })
        })
        .collect();
    let results = executor().run_jobs(jobs);

    let mut all_found = std::collections::BTreeSet::new();
    for ((name, vendor, _), target_results) in targets.iter().zip(results.chunks(RUNS as usize)) {
        // vGIF is an optional feature the configurator must enable; the
        // Xen/AMD campaign explores it via the feature bit-array.
        let mut finds = Vec::new();
        for result in target_results {
            for f in &result.finds {
                if !finds
                    .iter()
                    .any(|(id, _, _): &(String, _, _)| *id == f.bug_id)
                {
                    finds.push((f.bug_id.clone(), f.kind, f.exec));
                }
            }
        }
        for (id, kind, exec) in finds {
            no += 1;
            all_found.insert(id.clone());
            println!(
                "{:<4} {:<12} {:<7} {:<28} {:<18} {}",
                no,
                name,
                format!("{vendor}"),
                id,
                format!("{kind}"),
                exec
            );
        }
    }
    println!("\nUnique bugs found: {}", all_found.len());
    for expected in [
        "CVE-2023-30456",
        "CVE-2024-21106",
        "kvm-spurious-triple-fault",
        "xen-wait-for-sipi",
        "xen-avic-noaccel",
        "xen-vgif-assert",
    ] {
        println!(
            "  [{}] {}",
            if all_found.contains(expected) {
                "found"
            } else {
                "  -  "
            },
            expected
        );
    }
}
