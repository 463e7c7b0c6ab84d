//! Process and host readings: peak memory, the two noise diagnostics
//! from `/proc` that tell a disturbed run from a program change, and
//! the host's speed.

use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cumulative host counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// CPU time stolen by the hypervisor from all CPUs, in seconds
    /// (`/proc/stat`, `steal` column of the `cpu` line).
    pub steal_s: f64,
    /// Time this process waited on a run queue, in seconds
    /// (`/proc/self/schedstat`, second field; reads zero on kernels
    /// without scheduler statistics).
    pub runqueue_wait_s: f64,
}

impl HostSample {
    /// Reads the counters now; missing files read as zero.
    pub fn now() -> HostSample {
        HostSample {
            steal_s: read_steal_s().unwrap_or(0.0),
            runqueue_wait_s: read_runqueue_wait_s().unwrap_or(0.0),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &HostSample) -> HostSample {
        HostSample {
            steal_s: self.steal_s - earlier.steal_s,
            runqueue_wait_s: self.runqueue_wait_s - earlier.runqueue_wait_s,
        }
    }
}

/// Kernel clock ticks per second of the `/proc/stat` counters; Linux
/// reports them in `USER_HZ`, which is 100 on every mainstream
/// architecture.
const USER_HZ: f64 = 100.0;

fn read_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / USER_HZ)
}

fn read_runqueue_wait_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().nth(1)?.parse().ok()?;
    Some(ns * 1e-9)
}

/// Steps of one reference sample.
const REFERENCE_STEPS: u64 = 500_000;

/// Seconds one reference sample takes on the reference host (see
/// `README.md`): about its median there when the benchmark was
/// defined. It only sets the unit of the reported timings.
const REFERENCE_SAMPLE_S: f64 = 1.0e-3;

/// The host's speed, read from a fixed piece of work that shares no
/// code with the product: a multiply chain that walks a 1 MiB table.
///
/// On a shared host the speed of all code drifts together by up to
/// ~50% over minutes, which no amount of repetition inside a 20 s run
/// averages out. Samples taken between campaigns read that drift, and
/// the run's timings are reported at the reference host's speed.
pub struct HostSpeed {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed {
            table: vec![1; 1 << 17],
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Takes reference samples for about `seconds` (at least one).
    pub fn sample(&mut self, seconds: f64) {
        let started = Instant::now();
        loop {
            let t = Instant::now();
            std::hint::black_box(reference_work(&mut self.table));
            self.samples.push(t.elapsed().as_secs_f64());
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    /// This host's speed over the samples so far relative to the
    /// reference host: above 1 when faster. Wall seconds times this
    /// factor are reference-host seconds.
    pub fn factor(&mut self) -> f64 {
        REFERENCE_SAMPLE_S / crate::stats::median(&mut self.samples)
    }
}

fn reference_work(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..REFERENCE_STEPS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        let j = (x >> 40) as usize & mask;
        acc ^= table[j];
        table[j] = table[j].wrapping_add(x);
    }
    acc
}
