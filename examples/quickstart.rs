//! Quickstart: the smallest end-to-end NecoFuzz run — fuzz the KVM
//! model for four virtual hours on one core and print what it found.
//!
//! Expected output: a per-hour coverage ramp (the `#` bars saturate
//! around 80% of the modeled `nested.c`), the execution/restart
//! counters, and any Table 6 bugs the short run tripped over. Each
//! iteration resets the guest of the model instead of rebooting it,
//! and a vCPU config change builds a fresh instance. For a multi-run,
//! multi-core version of the same
//! thing, see the `necofuzz` binary's `--runs`/`--jobs` flags or the
//! `cross_hypervisor` example.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use necofuzz::campaign::{run_campaign, CampaignConfig};
use nf_hv::Vkvm;
use nf_x86::CpuVendor;

fn main() {
    let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 4, 0);
    println!(
        "NecoFuzz quickstart: fuzzing vkvm/Intel for {} virtual hours...",
        cfg.hours
    );

    let result = run_campaign(Box::new(|c| Box::new(Vkvm::new(c))), &cfg);

    println!("\nexecutions        : {}", result.execs);
    println!("watchdog restarts : {}", result.restarts);
    println!(
        "nested.c coverage : {:.1}% ({} / {} lines)",
        result.final_coverage * 100.0,
        result.lines.count_in(&result.map, result.file),
        result.map.file_lines(result.file),
    );
    println!("\ncoverage per virtual hour:");
    for s in &result.hourly {
        let bars = "#".repeat((s.coverage * 50.0) as usize);
        println!("  h{:>2} {:>6.1}% {}", s.hour, s.coverage * 100.0, bars);
    }
    if result.finds.is_empty() {
        println!("\nno anomalies this run — try more hours or another seed");
    } else {
        println!("\nvulnerabilities found:");
        for f in &result.finds {
            println!(
                "  [{}] {} at exec {}: {}",
                f.kind, f.bug_id, f.exec, f.message
            );
        }
    }
}
