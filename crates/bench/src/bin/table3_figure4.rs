//! Table 3 + Figure 4: contribution of each VM-generator component.
//!
//! NecoFuzz with each component selectively disabled, 24 virtual hours,
//! median of five runs: coverage at the end (Table 3) and the hourly
//! progression (Figure 4), on Intel and AMD.

use necofuzz::orchestrator::CampaignPlan;
use necofuzz::{CampaignConfig, ComponentMask};
use nf_bench::*;
use nf_x86::CpuVendor;

fn main() {
    let variants: [(&str, ComponentMask); 5] = [
        ("with ALL", ComponentMask::ALL),
        (
            "w/o VM execution harness",
            ComponentMask {
                harness: false,
                ..ComponentMask::ALL
            },
        ),
        (
            "w/o VM state validator",
            ComponentMask {
                validator: false,
                ..ComponentMask::ALL
            },
        ),
        (
            "w/o vCPU configurator",
            ComponentMask {
                configurator: false,
                ..ComponentMask::ALL
            },
        ),
        ("w/o ALL", ComponentMask::NONE),
    ];
    for vendor in [CpuVendor::Intel, CpuVendor::Amd] {
        hr(&format!("Table 3 — component ablation at 24 h ({vendor})"));
        // The whole ablation — every mask × every seed — is one plan;
        // the orchestrator fans the 25 campaigns out together and hands
        // results back in plan order (mask-major, seed-minor).
        let base =
            CampaignConfig::necofuzz(vendor, HOURS_SHORT, 0).with_execs_per_hour(EXECS_PER_HOUR);
        let plan = CampaignPlan::new(base)
            .backend(backend("vkvm"))
            .masks(&variants.map(|(_, mask)| mask))
            .seeds(0..RUNS);
        let results = executor().run(&plan);

        let mut curves = Vec::new();
        for ((name, _), runs) in variants.iter().zip(results.chunks(RUNS as usize)) {
            let med = median_coverage(runs);
            println!("{:<28} {}", name, pct(med));
            let curve: Vec<f64> = (0..HOURS_SHORT as usize)
                .map(|h| {
                    nf_stats::median(
                        &runs
                            .iter()
                            .map(|r| r.hourly[h].coverage)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            curves.push((*name, curve));
        }
        hr(&format!(
            "Figure 4 — ablation coverage over time ({vendor})"
        ));
        print!("{:>5}", "hour");
        for (name, _) in &curves {
            print!(" {:>26}", name);
        }
        println!();
        for h in 0..HOURS_SHORT as usize {
            print!("{:>5}", h + 1);
            for (_, curve) in &curves {
                print!(" {:>26}", pct(curve[h]));
            }
            println!();
        }
    }
}
