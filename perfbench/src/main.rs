//! `perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload in this process, on one thread, and
//! prints every metric as `workload/metric value unit`, then one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced run gives the per-layer ones. A flag given twice
//! takes its last value, so the default seed can sit in
//! `BENCHMARK.json`'s command ahead of the caller's flags. See
//! `README.md` in this directory for the workloads and metrics.

use perfbench::run::{run_untraced, Report};
use perfbench::traced::run_traced;
use perfbench::workload::{Workload, REFERENCE_SECONDS};

fn usage() -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: perfbench --workload {} --seed N [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = REFERENCE_SECONDS;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let (Some(w), Some(seed)) = (workload, seed) else {
        usage()
    };
    if seconds == 0 {
        usage();
    }
    let spec = w.spec().scaled_to(seconds);

    let report = if trace {
        run_traced(w, &spec, seed)
    } else {
        run_untraced(w, &spec, seed)
    };
    let mut report = report.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", w.name());
        std::process::exit(1);
    });
    print_report(w, &mut report);
}

fn print_report(w: Workload, report: &mut Report) {
    for m in &report.metrics {
        report.checks.check(
            &format!("{} is a finite number", m.name),
            m.value.is_finite(),
        );
    }
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{}/{} {} {}", w.name(), m.name, m.value, m.unit);
    }
    let checks = &report.checks;
    let (attempted, failed) = (checks.attempted(), checks.failed());
    let fail_share = failed as f64 / attempted.max(1) as f64;
    println!("{}/fail_share {fail_share} fraction", w.name());
    for note in checks.notes() {
        eprintln!("perfbench: {}: failed: {note}", w.name());
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        metrics.join(", ")
    );
}
