//! Deterministic fault injection for the L0 hypervisor models.
//!
//! Long-haul fleets must survive backends that hang and hosts that die
//! mid-campaign — and the tolerance machinery that survives them can
//! only be tested if such failures can be *provoked on demand,
//! reproducibly*. This module is that seam: a [`FaultPlan`] names
//! per-class fault rates plus a seed, and a [`FaultInjector`] turns the
//! plan into a schedule that is a pure function of `(plan, exec index,
//! input content)` — the same plan on the same campaign produces the
//! identical fault sequence, every run.
//!
//! Two fault classes are modeled (paper §3.2's watchdog motivation):
//!
//! - **Hung exec** — a vmexit loop that never terminates. *Content*-
//!   indexed (a hash of the fuzz input decides), so a hanging input
//!   hangs again on replay: the agent's fuel watchdog classifies it as
//!   a [`CrashKind::HungExec`](crate::CrashKind::HungExec) finding that
//!   is deduped, minimized, and replay-validated like any crash.
//! - **Delayed host death** — the host dies silently mid-exec after a
//!   bounded number of instructions (no sanitizer report; only the
//!   watchdog notices). *Schedule*-indexed (the exec index decides).
//!
//! All backends consult the injector through one shared handle
//! ([`SharedFaults`]) installed by
//! [`L0Hypervisor::install_faults`](crate::L0Hypervisor::install_faults):
//! every guest instruction ticks the injector ([`tick`]).

use std::cell::RefCell;
use std::rc::Rc;

use crate::sanitizer::HostHealth;

/// Default per-exec instruction-fuel budget of the exec watchdog. Far
/// above what any real scenario consumes (a full init + runtime pass is
/// a few hundred instructions), so a fault-free campaign never trips
/// it and a zero-rate plan stays bit-identical to no plan at all.
pub const DEFAULT_WATCHDOG_FUEL: u64 = 1 << 20;

/// Fuel consumed per instruction once an exec is hung: the modeled
/// vmexit loop spins this many times per driven instruction, so the
/// watchdog budget exhausts within a handful of instructions instead
/// of after a million.
const HANG_SPIN_COST: u64 = 1 << 16;

/// Hung-exec findings are bucketed into this many stable bug ids so a
/// campaign can surface several distinct hang sites (deduped per
/// bucket) while `bug_id` stays `&'static str` like every sanitizer id.
const HANG_BUCKETS: usize = 4;

static HANG_BUG_IDS: [&str; HANG_BUCKETS] = [
    "fault-hung-exec-0",
    "fault-hung-exec-1",
    "fault-hung-exec-2",
    "fault-hung-exec-3",
];

/// A seeded, per-class fault schedule. Rates are expressed in parts
/// per 65536 (`p16`); `0` everywhere (the [`Default`]) injects nothing.
///
/// The plan is pure data: two campaigns given equal plans (and equal
/// configs) observe the identical fault sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Hung-exec rate (content-indexed), parts per 65536.
    pub hang_p16: u32,
    /// Delayed host-death rate (schedule-indexed), parts per 65536.
    pub host_death_p16: u32,
}

impl FaultPlan {
    /// A composite plan injecting both classes at shares of an overall
    /// `rate` (0.0..=1.0): half of it in hangs and an eighth in host
    /// deaths.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let p16 = |f: f64| (f * 65536.0) as u32;
        FaultPlan {
            seed,
            hang_p16: p16(rate / 2.0),
            host_death_p16: p16(rate / 8.0),
        }
    }

    /// The content-indexed subset of the plan: only fault classes that
    /// are a pure function of the *input* survive. Replay and
    /// minimization install this subset so a hanging input hangs again
    /// wherever it is replayed, while schedule-indexed faults (tied to
    /// the original campaign's exec positions) don't fire spuriously.
    pub fn replay_subset(&self) -> Self {
        FaultPlan {
            seed: self.seed,
            hang_p16: self.hang_p16,
            ..FaultPlan::default()
        }
    }
}

// Decision streams: a distinct constant per fault class keeps the
// per-class schedules independent even under one seed.
const STREAM_HANG: u64 = 0x6861_6e67; // "hang"
const STREAM_DEATH: u64 = 0x6465_6164; // "dead"

/// SplitMix64-style finalizer over the plan seed, a class stream, and
/// two schedule coordinates — the single source of every fault
/// decision.
fn mix(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(a)
        .wrapping_mul(0x94d0_49bb_1331_11eb)
        .wrapping_add(b);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether a roll at probability `p16`/65536 fires.
fn fires(word: u64, p16: u32) -> bool {
    p16 > 0 && (word & 0xffff) < u64::from(p16)
}

/// The deterministic fault scheduler. One injector is shared (via
/// [`SharedFaults`]) between the agent (which opens each exec) and
/// every hypervisor instance the engine boots (which tick it per
/// instruction).
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Remaining instruction fuel of the current exec.
    fuel: u64,
    /// Whether the current exec is scheduled to hang, and under which
    /// bucketed bug id.
    hang: Option<&'static str>,
    /// Instructions until the host silently dies this exec.
    death_in: Option<u64>,
    /// Hung execs the watchdog classified.
    pub hangs_fired: u64,
    /// Silent host deaths injected.
    pub deaths_fired: u64,
}

impl FaultInjector {
    /// An injector for `plan`, idle until the first
    /// [`FaultInjector::begin_exec`].
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            fuel: DEFAULT_WATCHDOG_FUEL,
            hang: None,
            death_in: None,
            hangs_fired: 0,
            deaths_fired: 0,
        }
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Opens execution `exec` over an input with content digest
    /// `input_digest`, arming this exec's faults and resetting the
    /// watchdog fuel to `fuel`. Passing the agent's own exec counter
    /// (not an internal one) keeps the schedule exact across
    /// checkpoint/resume.
    pub fn begin_exec(&mut self, exec: u64, input_digest: u64, fuel: u64) {
        self.fuel = fuel;
        let h = mix(self.plan.seed, STREAM_HANG, input_digest, 0);
        self.hang =
            fires(h, self.plan.hang_p16).then(|| HANG_BUG_IDS[(h >> 16) as usize % HANG_BUCKETS]);
        let d = mix(self.plan.seed, STREAM_DEATH, exec, 0);
        // Die 1..=64 instructions in: deep enough that part of the
        // scenario executed, silent (no report) — only the agent's
        // watchdog notices at the next iteration.
        self.death_in = fires(d, self.plan.host_death_p16).then(|| 1 + ((d >> 16) & 63));
    }

    /// One guest instruction executed: burns fuel (a hung exec spins a
    /// vmexit loop and burns `HANG_SPIN_COST` per instruction), fires
    /// the scheduled host death, and — when the fuel budget exhausts —
    /// classifies the exec as hung: a [`HostHealth::hung_exec`] report
    /// plus host death, which the agent's watchdog then services.
    pub fn on_instr(&mut self, health: &mut HostHealth) {
        if health.dead {
            return;
        }
        if let Some(left) = self.death_in.as_mut() {
            *left -= 1;
            if *left == 0 {
                self.death_in = None;
                self.deaths_fired += 1;
                // Silent: the host stops responding with no report —
                // the class only a watchdog can observe.
                health.dead = true;
                return;
            }
        }
        let cost = if self.hang.is_some() {
            HANG_SPIN_COST
        } else {
            1
        };
        self.fuel = self.fuel.saturating_sub(cost);
        if self.fuel == 0 {
            if let Some(bug_id) = self.hang.take() {
                self.hangs_fired += 1;
                health.hung_exec(bug_id, "exec exceeded its watchdog fuel budget");
            } else {
                // Fuel exhausted without an injected hang: a genuinely
                // runaway exec (possible under tiny --watchdog-fuel).
                self.hangs_fired += 1;
                health.hung_exec(
                    "fault-hung-exec-0",
                    "exec exceeded its watchdog fuel budget",
                );
            }
        }
    }

    /// Whether the current exec is scheduled to hang (diagnostic).
    pub fn hang_pending(&self) -> bool {
        self.hang.is_some()
    }
}

/// The shared injector handle: one per (single-threaded) campaign,
/// cloned into every hypervisor instance the engine boots.
pub type SharedFaults = Rc<RefCell<FaultInjector>>;

/// Builds a [`SharedFaults`] handle for `plan`.
pub fn shared(plan: FaultPlan) -> SharedFaults {
    Rc::new(RefCell::new(FaultInjector::new(plan)))
}

/// Per-instruction injector consult, shared by every backend's
/// `l1_exec`/`l2_exec`: ticks the injector (fuel, hangs, delayed
/// death) against the instance's health surface. A `None` handle (no
/// plan installed) is free.
#[inline]
pub fn tick(faults: &Option<SharedFaults>, health: &mut HostHealth) {
    if let Some(f) = faults {
        f.borrow_mut().on_instr(health);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        let mut health = HostHealth::new();
        for exec in 0..200 {
            inj.begin_exec(exec, exec.wrapping_mul(0x9e37), DEFAULT_WATCHDOG_FUEL);
            for _ in 0..64 {
                inj.on_instr(&mut health);
            }
        }
        assert!(!health.dead);
        assert!(health.reports.is_empty());
        assert_eq!(inj.hangs_fired + inj.deaths_fired, 0);
    }

    #[test]
    fn schedules_are_plan_deterministic() {
        let plan = FaultPlan::uniform(7, 0.05);
        let run = || {
            let mut inj = FaultInjector::new(plan);
            let mut health = HostHealth::new();
            let mut log = Vec::new();
            for exec in 0..400u64 {
                inj.begin_exec(exec, mix(1, 2, exec, 3), DEFAULT_WATCHDOG_FUEL);
                // Longer than the deepest scheduled death (64 instrs)
                // and a hung exec's fuel horizon (16 spins).
                for _ in 0..80 {
                    inj.on_instr(&mut health);
                }
                log.push((health.dead, health.reports.len()));
                health = HostHealth::new();
            }
            (log, inj.hangs_fired, inj.deaths_fired)
        };
        assert_eq!(run(), run());
        let (_, hangs, deaths) = run();
        assert!(hangs > 0, "5% plan must hang something in 400 execs");
        assert!(deaths > 0, "5% plan must kill something in 400 execs");
    }

    #[test]
    fn hangs_are_content_indexed() {
        let plan = FaultPlan {
            seed: 3,
            hang_p16: 65536 / 50,
            ..FaultPlan::default()
        };
        // Find a hanging digest, then verify it hangs at any exec index.
        let mut inj = FaultInjector::new(plan);
        let mut health = HostHealth::new();
        let digest = (0..10_000u64)
            .find(|&d| {
                inj.begin_exec(0, d, DEFAULT_WATCHDOG_FUEL);
                inj.hang_pending()
            })
            .expect("a 2% hang rate hits within 10k digests");
        for exec in [0, 17, 123_456] {
            inj.begin_exec(exec, digest, DEFAULT_WATCHDOG_FUEL);
            assert!(inj.hang_pending(), "hangs must not depend on exec index");
        }
        // And the hang actually exhausts the fuel into a report.
        inj.begin_exec(9, digest, DEFAULT_WATCHDOG_FUEL);
        for _ in 0..64 {
            inj.on_instr(&mut health);
        }
        assert!(health.dead);
        assert_eq!(health.reports.len(), 1);
        assert_eq!(health.reports[0].kind, crate::CrashKind::HungExec);
        assert!(health.reports[0].bug_id.starts_with("fault-hung-exec-"));
    }

    #[test]
    fn replay_subset_keeps_only_content_faults() {
        let plan = FaultPlan::uniform(5, 0.05);
        let sub = plan.replay_subset();
        assert_eq!(sub.hang_p16, plan.hang_p16);
        assert_eq!(sub.seed, plan.seed);
        assert_eq!(sub.host_death_p16, 0);
    }
}
