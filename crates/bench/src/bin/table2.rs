//! Table 2: KVM code coverage for nested-virtualization-specific code.
//!
//! NecoFuzz vs Syzkaller (median of 5 × 48 virtual hours), IRIS (at
//! termination), Selftests and KVM-unit-tests (single run), on Intel and
//! AMD, with the `A∩B` / `A−B` set-algebra rows, plus the Klees-style
//! statistics (Mann-Whitney U, Cohen's d).

use necofuzz::orchestrator::Task;
use nf_bench::*;
use nf_fuzz::Mode;
use nf_x86::CpuVendor;

fn main() {
    for vendor in [CpuVendor::Intel, CpuVendor::Amd] {
        hr(&format!("Table 2 — KVM nested coverage ({vendor})"));
        let neco = necofuzz_runs(
            "vkvm",
            vendor,
            HOURS_LONG,
            Mode::Unguided,
            necofuzz::ComponentMask::ALL,
        );
        // The baselines join the same worker pool as one task batch:
        // RUNS syzkaller campaigns, then the two deterministic suites.
        let mut baseline_tasks: Vec<Task<nf_baselines::BaselineResult>> = (0..RUNS)
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
            .collect();
        baseline_tasks.push(Task::new(format!("selftests/{vendor}"), move || {
            nf_baselines::selftests(factory("vkvm"), vendor)
        }));
        baseline_tasks.push(Task::new(format!("kvm-unit-tests/{vendor}"), move || {
            nf_baselines::kvm_unit_tests(factory("vkvm"), vendor)
        }));
        let mut baselines = executor().execute(baseline_tasks);
        let kut = baselines.pop().expect("kvm-unit-tests result");
        let selft = baselines.pop().expect("selftests result");
        let syz = baselines;

        let neco_med = median_run(&neco);
        let syz_cov: Vec<f64> = syz.iter().map(|r| r.final_coverage).collect();
        let syz_med_idx = {
            let med = nf_stats::median(&syz_cov);
            (0..syz.len())
                .min_by(|&a, &b| {
                    (syz_cov[a] - med)
                        .abs()
                        .partial_cmp(&(syz_cov[b] - med).abs())
                        .expect("no NaN")
                })
                .expect("non-empty")
        };
        let syz_med = &syz[syz_med_idx];

        let map = &neco_med.map;
        let file = neco_med.file;
        let total = map.file_lines(file);

        println!("{:<28} {:>7} {:>7}", "row", "cov%", "#line");
        println!("{:<28} {:>7} {:>7}", "Total", "100%", total);
        let row = |name: &str, lines: &nf_coverage::LineSet| {
            println!(
                "{:<28} {:>7} {:>7}",
                name,
                pct(lines.count_in(map, file) as f64 / total as f64),
                lines.count_in(map, file)
            );
        };
        row("NecoFuzz", &neco_med.lines);
        row("Syzkaller", &syz_med.lines);
        row("Syzkaller-NecoFuzz", &syz_med.lines.minus(&neco_med.lines));
        row("NecoFuzz-Syzkaller", &neco_med.lines.minus(&syz_med.lines));
        row(
            "NecoFuzz∩Syzkaller",
            &neco_med.lines.intersect(&syz_med.lines),
        );
        if vendor == CpuVendor::Intel {
            let iris = nf_baselines::iris(factory("vkvm"), 0);
            row("IRIS", &iris.lines);
        } else {
            println!("{:<28} {:>7} {:>7}", "IRIS", "-", "-");
        }
        row("Selftests", &selft.lines);
        row("Selftests-NecoFuzz", &selft.lines.minus(&neco_med.lines));
        row("NecoFuzz-Selftests", &neco_med.lines.minus(&selft.lines));
        row(
            "NecoFuzz∩Selftests",
            &neco_med.lines.intersect(&selft.lines),
        );
        row("KVM-unit-tests", &kut.lines);

        // Klees-et-al. statistics.
        let neco_cov: Vec<f64> = neco.iter().map(|r| r.final_coverage).collect();
        let (lo, hi) = nf_stats::median_ci(&neco_cov);
        let (u, p) = nf_stats::mann_whitney_u(&neco_cov, &syz_cov);
        let d = nf_stats::cohens_d(&neco_cov, &syz_cov);
        println!(
            "\nNecoFuzz median {} (CI {}..{}), Syzkaller median {}",
            pct(nf_stats::median(&neco_cov)),
            pct(lo),
            pct(hi),
            pct(nf_stats::median(&syz_cov)),
        );
        println!(
            "improvement {:.1}x, Mann-Whitney U={u:.1} p={p:.4}, Cohen's d={d:.2}",
            nf_stats::median(&neco_cov) / nf_stats::median(&syz_cov).max(1e-9),
        );
    }
}
