//! Figure 3: coverage transition over 48 virtual hours for
//! nested-virtualization-specific code — NecoFuzz vs Syzkaller, with
//! IRIS's termination coverage as the reference line; (a) Intel, (b) AMD.

use necofuzz::orchestrator::Task;
use nf_bench::*;
use nf_fuzz::Mode;
use nf_x86::CpuVendor;

fn main() {
    for vendor in [CpuVendor::Intel, CpuVendor::Amd] {
        hr(&format!("Figure 3 — coverage over time ({vendor})"));
        let neco = necofuzz_runs(
            "vkvm",
            vendor,
            HOURS_LONG,
            Mode::Unguided,
            necofuzz::ComponentMask::ALL,
        );
        // The syzkaller runs ride the same worker pool.
        let syz = executor().execute(
            (0..RUNS)
                .map(|seed| {
                    Task::new(format!("syzkaller/{vendor}/seed{seed}"), move || {
                        nf_baselines::syzkaller(
                            factory("vkvm"),
                            vendor,
                            HOURS_LONG,
                            EXECS_PER_HOUR,
                            seed,
                        )
                    })
                    .with_summary(|r| format!("cov {:.1}%", r.final_coverage * 100.0))
                })
                .collect(),
        );
        let iris_cov = if vendor == CpuVendor::Intel {
            Some(nf_baselines::iris(factory("vkvm"), 0).final_coverage)
        } else {
            None
        };

        println!(
            "{:>5} {:>10} {:>10} {:>10}",
            "hour", "NecoFuzz", "Syzkaller", "IRIS"
        );
        for h in 0..HOURS_LONG as usize {
            let n_med = nf_stats::median(
                &neco
                    .iter()
                    .map(|r| r.hourly[h].coverage)
                    .collect::<Vec<_>>(),
            );
            let s_med = nf_stats::median(&syz.iter().map(|r| r.hourly[h]).collect::<Vec<_>>());
            println!(
                "{:>5} {:>10} {:>10} {:>10}",
                h + 1,
                pct(n_med),
                pct(s_med),
                iris_cov.map(pct).unwrap_or_else(|| "-".into())
            );
        }
    }
}
