//! Table 5: the effect of coverage guidance in NecoFuzz.
//!
//! 48 virtual hours on KVM, Intel and AMD, guided vs unguided. The
//! paper's counter-intuitive finding: guidance does *not* help (and
//! slightly hurts), because rounding collapses coverage-guided
//! micro-variations into equivalent post-rounding states (§5.4, §5.6).

use necofuzz::orchestrator::CampaignPlan;
use necofuzz::CampaignConfig;
use nf_bench::*;
use nf_fuzz::Mode;
use nf_x86::CpuVendor;

fn main() {
    hr("Table 5 — effect of coverage guidance (KVM, 48 h)");
    // The full 2-vendor × 2-mode × RUNS-seed grid is one plan; results
    // come back vendor-major, then mode, then seed.
    let base = CampaignConfig::necofuzz(CpuVendor::Intel, HOURS_LONG, 0)
        .with_execs_per_hour(EXECS_PER_HOUR);
    let plan = CampaignPlan::new(base)
        .backend(backend("vkvm"))
        .vendors(&[CpuVendor::Intel, CpuVendor::Amd])
        .modes(&[Mode::Unguided, Mode::Guided])
        .seeds(0..RUNS);
    let results = executor().run(&plan);
    let cell = |vendor_idx: usize, mode_idx: usize| {
        let start = (vendor_idx * 2 + mode_idx) * RUNS as usize;
        pct(median_coverage(&results[start..start + RUNS as usize]))
    };

    println!("{:<26} {:>10} {:>10}", "", "Intel", "AMD");
    for (mode_idx, name) in [(0, "w/o coverage guidance"), (1, "with coverage guidance")] {
        println!(
            "{:<26} {:>10} {:>10}",
            name,
            cell(0, mode_idx),
            cell(1, mode_idx)
        );
    }
}
