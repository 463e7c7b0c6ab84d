//! Table 4: Xen coverage of nested-virtualization-specific code after
//! 24 virtual hours — NecoFuzz (median of five runs) vs the Xen Test
//! Framework, with the set-algebra rows.

use nf_bench::*;
use nf_fuzz::Mode;
use nf_x86::CpuVendor;

fn main() {
    for vendor in [CpuVendor::Intel, CpuVendor::Amd] {
        hr(&format!("Table 4 — Xen nested coverage at 24 h ({vendor})"));
        let neco = necofuzz_runs(
            "vxen",
            vendor,
            HOURS_SHORT,
            Mode::Unguided,
            necofuzz::ComponentMask::ALL,
        );
        let xtf = nf_baselines::xtf(factory("vxen"), vendor);
        let neco_med = median_run(&neco);
        let map = &neco_med.map;
        let file = neco_med.file;
        let total = map.file_lines(file);

        println!("{:<24} {:>7} {:>7}", "row", "cov%", "#line");
        println!("{:<24} {:>7} {:>7}", "Instrumented", "100%", total);
        let row = |name: &str, lines: &nf_coverage::LineSet| {
            println!(
                "{:<24} {:>7} {:>7}",
                name,
                pct(lines.count_in(map, file) as f64 / total as f64),
                lines.count_in(map, file)
            );
        };
        row("NecoFuzz", &neco_med.lines);
        row("XTF", &xtf.lines);
        row("NecoFuzz∩XTF", &neco_med.lines.intersect(&xtf.lines));
        row("NecoFuzz-XTF", &neco_med.lines.minus(&xtf.lines));
        row("XTF-NecoFuzz", &xtf.lines.minus(&neco_med.lines));

        let cov: Vec<f64> = neco.iter().map(|r| r.final_coverage).collect();
        let (lo, hi) = nf_stats::median_ci(&cov);
        println!(
            "\nNecoFuzz median {} (CI {}..{}), XTF {} -> +{:.1} pp",
            pct(nf_stats::median(&cov)),
            pct(lo),
            pct(hi),
            pct(xtf.final_coverage),
            (nf_stats::median(&cov) - xtf.final_coverage) * 100.0
        );
    }
}
