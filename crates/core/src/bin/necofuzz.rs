//! The `necofuzz` command-line fuzzer.
//!
//! ```text
//! necofuzz [--target vkvm|vxen|vvbox] [--vendor intel|amd]
//!          [--hours N] [--execs-per-hour N] [--seed N] [--runs N]
//!          [--jobs N] [--guided] [--mutator havoc|structured]
//!          [--no-harness] [--no-validator] [--no-configurator]
//!          [--oracle sanitizer|differential] [--diff-backends LIST]
//!          [--sync-interval N] [--sync-topology ring|tree]
//!          [--corpus-dir DIR]
//!          [--resume-corpus DIR] [--out DIR] [--bench-out PATH]
//!          [--fault-plan SEED:RATE] [--watchdog-fuel N]
//!          [--checkpoint-dir DIR] [--checkpoint-interval N]
//!          [--resume-checkpoint DIR]
//! necofuzz corpus stat DIR
//! necofuzz corpus minimize DIR [--out DIR]
//! necofuzz corpus repro FILE [--target T] [--vendor V]
//!          [--minimize] [--out FILE]
//! ```
//!
//! Runs one campaign — or, with `--runs N`, a whole grid of campaigns
//! (seeds `seed..seed+N`) fanned out over the orchestrator's worker
//! pool (`--jobs`, default = all cores) — against the chosen hypervisor
//! model. A campaign with `--oracle differential` replays on one extra
//! thread, so `--jobs N` then runs up to `2N` threads. Like the paper's
//! agent (§4.5), every unique crashing input is saved to a timestamped
//! file under `--out` for later reproduction. Parallelism never changes
//! results: output is reduced in seed order.
//!
//! `--sync-interval N` (any `N > 0`) makes the runs an AFL++-style
//! sync group that gossips corpus deltas (novel queue entries +
//! virgin-bitmap knowledge): workers publish sharded deltas the moment
//! they observe novelty and absorb their neighbours' deltas at
//! iteration boundaries, exactly once, over the `--sync-topology`
//! graph (`tree`, the default, or `ring`). A group is deterministic
//! for a fixed seed set and topology. `--corpus-dir DIR` persists each
//! run's final corpus to `DIR/seedNNN/` for the `corpus` subcommand:
//! `stat` summarizes a saved corpus, `minimize` runs the
//! afl-cmin-style greedy set cover over line coverage, and `repro`
//! replays a saved crash input against a clean engine (with
//! `--minimize`, greedily truncating it to the bytes the bug needs).
//! `--resume-corpus DIR` starts a single campaign from a saved corpus
//! (queue and virgin-bitmap knowledge carried over) instead of the
//! default seed set.
//!
//! `--mutator` selects how guided mode turns queue parents into
//! children: `havoc` (default) is the classic byte-blind stack,
//! bit-identical to the original engine; `structured` runs the
//! scenario mutation engine — section-typed operators (init-step,
//! runtime-step, VMCS-field, MSR-entry, vCPU-bit) scheduled by an
//! adaptive profile, with per-operator provenance recorded on every
//! queued entry (shown by `corpus stat`).
//!
//! Every iteration resets the guest of the active hypervisor instance;
//! a vCPU config change builds a fresh instance through the factory.
//! `--bench-out PATH` records the run's throughput (total execs,
//! wall-clock seconds, overall execs/sec, and per-run exec/restart
//! counts) as JSON for offline comparison.
//!
//! `--oracle differential` arms the cross-backend differential oracle
//! on top of the sanitizers: every executed input is replayed across
//! `--diff-backends` (comma-separated; default `<target>,golden`) and
//! the canonical L1-visible observations are diffed pairwise, turning
//! silent misvirtualizations into `divergence` findings. The replays run
//! on a thread of the campaign's own, one batch of inputs behind the
//! fuzzing agent, and every virtual hour waits for them. Divergence
//! crash files embed their backend pair in the bug id, and `corpus
//! repro` detects them automatically: the input is replayed across the
//! recorded pair and the first divergent exit is printed (with
//! `--minimize`, truncation candidates must preserve the exact
//! divergence signature, not merely still crash).
//!
//! `--fault-plan SEED:RATE` arms deterministic fault injection in
//! every backend the run touches: half of `RATE` (a fraction in
//! `[0, 1]`) goes to hung vmexit loops and an eighth to silent host
//! deaths, all scheduled by `SEED` independently of the fuzzing seed.
//! The
//! same plan against the same campaign reproduces the same faults,
//! fault counters, and findings, byte for byte. `--watchdog-fuel N`
//! sets the per-execution fuel budget after which the exec watchdog
//! reaps a runaway execution as a `hung_exec` finding (default
//! 1 Mi instruction-cost units).
//!
//! `--checkpoint-dir DIR` (single campaign only) persists a crash-safe
//! checkpoint — corpus, RNG position, scheduler state, coverage,
//! corrections, findings — to `DIR` every `--checkpoint-interval`
//! virtual hours (default every hour), each write atomic via a
//! stage-and-swap. `--resume-checkpoint DIR` restarts a killed
//! campaign from its last checkpoint and converges to the exact
//! result the uninterrupted run would have produced. Differential
//! oracle campaigns are not checkpointable (the oracle's replay
//! agents hold unpersisted state).
//!
//! `--out` and `--corpus-dir` are created before the first campaign
//! starts; a path that cannot be created, like any other output write
//! that fails, exits 2 with a one-line diagnostic.

use std::str::FromStr;

use necofuzz::campaign::{Campaign, CampaignConfig, CampaignResult};
use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignPlan};
use necofuzz::{backend_factory, check_backend, parse_divergence_pair, OracleMode, ReplayOracle};
use nf_fuzz::corpus::Corpus;
use nf_fuzz::{FuzzInput, Mode, MutationStrategy, Operator, SyncTopology, INPUT_LEN};
use nf_hv::FaultPlan;
use nf_x86::CpuVendor;

fn usage() -> ! {
    eprintln!(
        "usage: necofuzz [--target vkvm|vxen|vvbox] [--vendor intel|amd] [--hours N]\n\
         \x20               [--execs-per-hour N] [--seed N] [--runs N] [--jobs N]\n\
         \x20               [--guided] [--mutator havoc|structured]\n\
         \x20               [--no-harness] [--no-validator] [--no-configurator]\n\
         \x20               [--oracle sanitizer|differential] [--diff-backends LIST]\n\
         \x20               [--sync-interval N] [--sync-topology ring|tree]\n\
         \x20               [--corpus-dir DIR]\n\
         \x20               [--resume-corpus DIR] [--out DIR] [--bench-out PATH]\n\
         \x20               [--fault-plan SEED:RATE] [--watchdog-fuel N]\n\
         \x20               [--checkpoint-dir DIR] [--checkpoint-interval N]\n\
         \x20               [--resume-checkpoint DIR]\n\
         \x20      necofuzz corpus stat DIR\n\
         \x20      necofuzz corpus minimize DIR [--out DIR]\n\
         \x20      necofuzz corpus repro FILE [--target T] [--vendor V]\n\
         \x20               [--minimize] [--out FILE]\n\
         a campaign with --oracle differential replays on one extra thread"
    );
    std::process::exit(2);
}

/// Parses a flag value, or exits with the usage text.
fn num<T: FromStr>(value: String) -> T {
    value.parse().unwrap_or_else(|_| usage())
}

/// Prints a diagnostic and exits 2 (a usage error).
fn reject(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Writes an output file, or exits 2 with a one-line diagnostic.
fn write_output(path: &str, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| reject(format_args!("write {path}: {e}")));
}

/// The hypervisors `--target` may name; the backend table's other
/// entries (`golden`, the seeded-bug vkvm) only serve as diff backends.
const TARGETS: [&str; 3] = ["vkvm", "vxen", "vvbox"];

/// What the flags shared by a campaign run and `corpus repro` set: the
/// target's name and the campaign config every other flag writes into.
struct Flags {
    target: String,
    cfg: CampaignConfig,
}

impl Flags {
    fn new() -> Self {
        Flags {
            target: "vkvm".to_string(),
            cfg: CampaignConfig::necofuzz(CpuVendor::Intel, 24, 0),
        }
    }

    /// Applies `arg` if it is a shared flag (target, vendor); `false`
    /// when it is not one.
    fn shared(&mut self, arg: &str, value: &mut impl FnMut() -> String) -> bool {
        match arg {
            "--target" => self.target = value(),
            "--vendor" => {
                self.cfg.vendor = match value().as_str() {
                    "intel" => CpuVendor::Intel,
                    "amd" => CpuVendor::Amd,
                    _ => usage(),
                }
            }
            _ => return false,
        }
        true
    }

    /// The `--target` backend, checked against the vendor.
    fn target_backend(&self) -> Backend {
        if !TARGETS.contains(&self.target.as_str()) {
            usage();
        }
        check_backend(&self.target, self.cfg.vendor).unwrap_or_else(|e| reject(e));
        Backend::named(&self.target).expect("every target is in the backend table")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("corpus") {
        corpus_main(&args[1..]);
        return;
    }
    let mut flags = Flags::new();
    let mut runs = 1u64;
    let mut jobs = 0usize; // 0 = available parallelism
    let mut corpus_dir: Option<String> = None;
    let mut resume_corpus: Option<String> = None;
    let mut out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut fault_plan: Option<(u64, f64)> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut checkpoint_interval = 0u32; // 0 = unset; defaults to 1 with --checkpoint-dir
    let mut resume_checkpoint: Option<String> = None;
    let mut topology_set = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        if flags.shared(arg, &mut value) {
            continue;
        }
        let cfg = &mut flags.cfg;
        match arg.as_str() {
            "--hours" => cfg.hours = num(value()),
            "--execs-per-hour" => cfg.execs_per_hour = num(value()),
            "--seed" => cfg.seed = num(value()),
            "--runs" => runs = num(value()),
            "--jobs" => jobs = num(value()),
            "--guided" => cfg.mode = Mode::Guided,
            "--mutator" => {
                cfg.strategy = MutationStrategy::parse(&value()).unwrap_or_else(|| usage());
            }
            "--no-harness" => cfg.mask.harness = false,
            "--no-validator" => cfg.mask.validator = false,
            "--no-configurator" => cfg.mask.configurator = false,
            "--oracle" => cfg.oracle = OracleMode::parse(&value()).unwrap_or_else(|| usage()),
            "--diff-backends" => {
                cfg.diff_backends = value().split(',').map(str::to_string).collect();
            }
            "--sync-interval" => cfg.sync_interval = num(value()),
            "--sync-topology" => {
                cfg.sync_topology = SyncTopology::parse(&value()).unwrap_or_else(|| usage());
                topology_set = true;
            }
            "--corpus-dir" => corpus_dir = Some(value()),
            "--resume-corpus" => resume_corpus = Some(value()),
            "--out" => out = Some(value()),
            "--bench-out" => bench_out = Some(value()),
            "--fault-plan" => {
                let v = value();
                let (s, r) = v.split_once(':').unwrap_or_else(|| usage());
                fault_plan = Some((num(s.to_string()), num(r.to_string())));
            }
            "--watchdog-fuel" => cfg.watchdog_fuel = num(value()),
            "--checkpoint-dir" => checkpoint_dir = Some(value()),
            "--checkpoint-interval" => checkpoint_interval = num(value()),
            "--resume-checkpoint" => resume_checkpoint = Some(value()),
            _ => usage(),
        }
    }
    if runs == 0 {
        usage();
    }
    let cfg = &mut flags.cfg;
    if cfg.seed.checked_add(runs).is_none() {
        reject(format_args!(
            "--seed {} --runs {runs}: the seed range must end at or below {}",
            cfg.seed,
            u64::MAX
        ));
    }
    if topology_set && cfg.sync_interval == 0 {
        reject("--sync-topology needs --sync-interval N (any N > 0 switches gossip on)");
    }
    if let Some((_, rate)) = fault_plan {
        if !(0.0..=1.0).contains(&rate) {
            reject("--fault-plan: RATE must be a fraction within [0, 1]");
        }
    }
    if cfg.watchdog_fuel == 0 {
        reject("--watchdog-fuel must be at least 1 (a zero budget starves every exec)");
    }
    if checkpoint_interval != 0 && checkpoint_dir.is_none() {
        reject("--checkpoint-interval requires --checkpoint-dir (it paces checkpoint writes)");
    }
    // A lone campaign — resumed from a corpus or a checkpoint, or
    // checkpointing — runs on `Campaign` directly: the checkpoint and
    // corpus seams live there, not on the orchestrator's grid.
    let lone = if resume_checkpoint.is_some() {
        Some("--resume-checkpoint")
    } else if checkpoint_dir.is_some() {
        Some("--checkpoint-dir")
    } else {
        resume_corpus.as_ref().map(|_| "--resume-corpus")
    };
    if let Some(flag) = lone {
        if runs != 1 {
            reject(format_args!(
                "{flag} drives exactly one campaign; drop --runs"
            ));
        }
        if cfg.sync_interval != 0 {
            reject(format_args!(
                "{flag} runs a lone campaign; drop --sync-interval"
            ));
        }
        if flag != "--resume-corpus" && cfg.oracle == OracleMode::Differential {
            reject(format_args!("{flag} does not support the differential oracle (its replay agents hold unpersisted state)"));
        }
        if bench_out.is_some() {
            reject(format_args!(
                "{flag} does not record throughput; drop --bench-out"
            ));
        }
    }
    if resume_checkpoint.is_some() && resume_corpus.is_some() {
        reject("--resume-checkpoint restores its own corpus; drop --resume-corpus");
    }
    match cfg.oracle {
        OracleMode::Sanitizer => {
            if !cfg.diff_backends.is_empty() {
                reject("--diff-backends requires --oracle differential");
            }
        }
        OracleMode::Differential => {
            if cfg.diff_backends.is_empty() {
                cfg.diff_backends = vec![flags.target.clone(), "golden".to_string()];
            }
            if cfg.diff_backends.len() < 2 {
                reject("--diff-backends needs at least two backends to diff");
            }
            for name in &cfg.diff_backends {
                check_backend(name, cfg.vendor)
                    .unwrap_or_else(|e| reject(format_args!("--diff-backends: {e}")));
            }
        }
    }
    cfg.fault_plan = fault_plan.map(|(plan_seed, rate)| FaultPlan::uniform(plan_seed, rate));
    let backend = flags.target_backend();
    let target = backend.name();
    for (flag, dir) in [("--out", &out), ("--corpus-dir", &corpus_dir)] {
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| reject(format_args!("{flag} {dir}: {e}")));
        }
    }
    let cfg = flags.cfg;
    let CampaignConfig {
        vendor,
        hours,
        execs_per_hour,
        seed,
        mode,
        ..
    } = cfg;

    if lone.is_some() {
        let mut campaign = if let Some(dir) = &resume_corpus {
            let loaded = load_corpus(&resolve_corpus_dir(dir));
            println!(
                "necofuzz: resuming from {dir} ({} entries, worker {}) — target={target} \
                 vendor={vendor} hours={hours} execs/h={execs_per_hour} seed={seed} mode={mode:?}",
                loaded.len(),
                loaded.worker()
            );
            Campaign::with_corpus(backend.factory(), &cfg, loaded)
        } else if let Some(dir) = &resume_checkpoint {
            let campaign = Campaign::resume_from_checkpoint(backend.factory(), &cfg, dir)
                .unwrap_or_else(|e| reject(format_args!("--resume-checkpoint {dir}: {e}")));
            println!(
                "necofuzz: resumed checkpoint {dir} at hour {}/{} — target={target} \
                 vendor={vendor} seed={seed} mode={mode:?}",
                campaign.hours_done(),
                campaign.hours_total()
            );
            campaign
        } else {
            println!(
                "necofuzz: target={target} vendor={vendor} hours={hours} \
                 execs/h={execs_per_hour} seed={seed} mode={mode:?} \
                 checkpointing every {}h",
                checkpoint_interval.max(1)
            );
            Campaign::new(backend.factory(), &cfg)
        };
        if let Some(ck_dir) = &checkpoint_dir {
            campaign.set_checkpoint(ck_dir, checkpoint_interval.max(1));
        }
        let result = campaign.into_result();
        report_run(seed, &result, false);
        if let Some(dir) = &out {
            save_crashes(dir, seed, &result);
        }
        if let Some(dir) = &corpus_dir {
            save_corpus(dir, seed, &result);
        }
        std::process::exit(i32::from(!result.finds.is_empty()));
    }

    let oracle_desc = match cfg.oracle {
        OracleMode::Sanitizer => cfg.oracle.to_string(),
        OracleMode::Differential => format!("{}[{}]", cfg.oracle, cfg.diff_backends.join("+")),
    };
    let sync_desc = if runs > 1 && cfg.sync_interval > 0 {
        format!("async-{}", cfg.sync_topology)
    } else {
        "off".to_string()
    };
    let fault_desc = match fault_plan {
        Some((plan_seed, rate)) => format!("{plan_seed}:{rate}"),
        None => "off".to_string(),
    };
    println!(
        "necofuzz: target={target} vendor={vendor} hours={hours} execs/h={execs_per_hour} \
         seeds={seed}..{} runs={runs} mode={mode:?} mutator={} \
         oracle={oracle_desc} sync={sync_desc} faults={fault_desc} \
         components[harness={} validator={} configurator={}]",
        seed + runs,
        cfg.strategy,
        cfg.mask.harness,
        cfg.mask.validator,
        cfg.mask.configurator
    );

    let plan = CampaignPlan::new(cfg)
        .backend(backend)
        .seeds(seed..seed + runs);
    let executor = CampaignExecutor::new()
        .jobs(jobs)
        .on_progress(|p| {
            eprintln!(
                "[{:>3}/{}] {:<40} {}",
                p.completed, p.total, p.label, p.summary
            );
        })
        // Synced fleets are one scheduling unit; without the hourly
        // heartbeat a long fleet would print nothing until it finished.
        .on_epoch(|e| {
            eprintln!(
                "[{:>3}h/{}h] {:<40} best cov {:.1}%",
                e.hours_done,
                e.hours_total,
                e.label,
                e.best_coverage * 100.0
            );
        });
    let started = std::time::Instant::now();
    let results = executor.run(&plan);
    let elapsed = started.elapsed().as_secs_f64();

    let mut unique_finds = 0usize;
    for (run, result) in results.iter().enumerate() {
        let run_seed = seed + run as u64;
        report_run(run_seed, result, runs > 1);
        unique_finds += result.finds.len();
        if let Some(dir) = &out {
            save_crashes(dir, run_seed, result);
        }
        if let Some(dir) = &corpus_dir {
            save_corpus(dir, run_seed, result);
        }
    }

    if runs > 1 {
        let coverages: Vec<f64> = results.iter().map(|r| r.final_coverage).collect();
        let mut ids: Vec<&str> = results
            .iter()
            .flat_map(|r| r.finds.iter().map(|f| f.bug_id.as_str()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        println!(
            "\n{} runs: median coverage {:.1}%, {} unique bug(s): {:?}",
            runs,
            nf_stats::median(&coverages) * 100.0,
            ids.len(),
            ids
        );
    }

    if let Some(path) = &bench_out {
        save_bench(path, elapsed, &results);
    }

    if unique_finds > 0 {
        std::process::exit(1);
    }
}

/// The `corpus` subcommand: offline corpus tooling.
///
/// - `stat DIR` — entry/coverage summary of a saved corpus;
/// - `minimize DIR [--out DIR]` — afl-cmin-style greedy set cover over
///   line coverage, saved back (or to `--out`);
/// - `repro FILE [--target T] [--vendor V] [--minimize] [--out FILE]`
///   — replay a saved crash input against a clean engine; with
///   `--minimize`, greedily truncate it to the bytes the bug still
///   needs (every candidate validated by re-execution).
fn corpus_main(args: &[String]) {
    let mut it = args.iter();
    let action = it.next().map(String::as_str).unwrap_or_else(|| usage());
    let path = it.next().cloned().unwrap_or_else(|| usage());
    let mut flags = Flags::new();
    let mut minimize = false;
    let mut out: Option<String> = None;
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        // Reject flags the chosen action ignores: `corpus stat DIR
        // --minimize` silently doing nothing would read as success.
        let only_repro = |flag: &str| {
            if action != "repro" {
                reject(format_args!(
                    "corpus {action}: {flag} applies only to repro"
                ));
            }
        };
        match arg.as_str() {
            "--minimize" => {
                only_repro("--minimize");
                minimize = true;
            }
            "--out" => {
                if action == "stat" {
                    reject("corpus stat: --out is not supported");
                }
                out = Some(value());
            }
            flag => {
                if !flags.shared(flag, &mut value) {
                    usage();
                }
                only_repro(flag);
            }
        }
    }

    let path = match action {
        "stat" | "minimize" => resolve_corpus_dir(&path),
        _ => path,
    };
    match action {
        "stat" => {
            let corpus = load_corpus(&path);
            let lines = corpus.line_union();
            println!(
                "corpus {path}: {} entries (worker {}), {} bitmap bits seen, \
                 {} lines of entry evidence",
                corpus.len(),
                corpus.worker(),
                corpus.seen_bits(),
                lines.count()
            );
            // Per-operator provenance: which mutation operator earned
            // how much of the queue. The yield ratio is the operator's
            // share of all queued entries — on a havoc or unguided
            // corpus everything lands in the untyped bucket.
            let total = corpus.len().max(1);
            println!("operator provenance (queue-yield ratios):");
            for (op, count) in corpus.operator_census() {
                println!(
                    "  {:<24} {count:>5}  {:>5.1}%",
                    op.map_or("untyped (seed/havoc)", Operator::name),
                    count as f64 * 100.0 / total as f64
                );
            }
            for (i, entry) in corpus.entries().enumerate() {
                println!(
                    "  [{i:4}] worker {} exec {:>7}  {:>4} edges  {:>5} lines  energy {}  via {}",
                    entry.provenance.worker,
                    entry.provenance.exec,
                    entry.cov.len(),
                    entry.lines.count(),
                    entry.energy,
                    entry.provenance.op.map_or("-", Operator::name)
                );
            }
        }
        "minimize" => {
            let corpus = load_corpus(&path);
            let before = (corpus.len(), corpus.line_union().count());
            let minimized = corpus.minimize();
            assert_eq!(
                minimized.line_union(),
                corpus.line_union(),
                "minimize must preserve exact line coverage"
            );
            let dest = out.unwrap_or_else(|| path.clone());
            minimized
                .save_to(&dest)
                .unwrap_or_else(|e| reject(format_args!("save minimized corpus to {dest}: {e}")));
            println!(
                "minimized {path}: {} -> {} entries ({} lines preserved), wrote {dest}",
                before.0,
                minimized.len(),
                before.1
            );
        }
        "repro" => {
            let bytes =
                std::fs::read(&path).unwrap_or_else(|e| reject(format_args!("read {path}: {e}")));
            let mut input = FuzzInput::zeroed();
            let n = bytes.len().min(INPUT_LEN);
            input.bytes[..n].copy_from_slice(&bytes[..n]);

            // Divergence findings carry their backend pair in the bug
            // id — and therefore in the saved crash filename. Those
            // replay across the recorded pair with the differential
            // oracle (printing the first-divergent exit); everything
            // else replays against the single --target sanitizer
            // oracle.
            let mut cfg = flags.cfg.clone();
            let (factory, miss) = match parse_divergence_pair(&path) {
                Some((a, b)) => {
                    for name in [&a, &b] {
                        check_backend(name, cfg.vendor)
                            .unwrap_or_else(|e| reject(format_args!("corpus repro: {path}: {e}")));
                    }
                    println!("{path}: divergence finding, replaying across {a}+{b}");
                    cfg.oracle = OracleMode::Differential;
                    cfg.diff_backends = vec![a.clone(), b.clone()];
                    // The pair's first backend stands in for the
                    // campaign's target; divergence replays never run it.
                    let factory = backend_factory(&a).expect("checked above");
                    (
                        factory,
                        format!("no divergence reproduced between {a} and {b}"),
                    )
                }
                None => (
                    flags.target_backend().factory(),
                    format!("no anomaly reproduced on {}/{}", flags.target, cfg.vendor),
                ),
            };
            let oracle = ReplayOracle::new(factory, &cfg);
            let bugs = oracle.replay(&input, recorded_bug_id(&path));
            if bugs.is_empty() {
                println!("{path}: {miss}");
                std::process::exit(1);
            }
            for (id, kind, message) in &bugs {
                println!("{path}: reproduced [{kind}] {id}: {message}");
            }
            if minimize {
                let bug_id = &bugs[0].0;
                let minimized = oracle.minimize(bug_id, &input);
                let nonzero = minimized.bytes.iter().filter(|&&b| b != 0).count();
                let dest = out.unwrap_or_else(|| format!("{path}.min.bin"));
                write_output(&dest, &minimized.bytes);
                println!(
                    "minimized reproducer for {bug_id}: {} -> {} non-zero bytes, wrote {dest}",
                    input.bytes.iter().filter(|&&b| b != 0).count(),
                    nonzero
                );
            }
        }
        _ => usage(),
    }
}

/// The bug id a saved crash file's name records
/// (`crash-sNNN-execNNNNNN-<bug id>.bin`, as [`save_crashes`] writes it).
fn recorded_bug_id(path: &str) -> Option<&str> {
    let name = std::path::Path::new(path).file_name()?.to_str()?;
    let rest = name.strip_prefix("crash-s")?.strip_suffix(".bin")?;
    let (_, rest) = rest.split_once("-exec")?;
    rest.split_once('-').map(|(_, bug_id)| bug_id)
}

/// Resolves a `corpus` subcommand directory argument: a corpus dir is
/// used as-is, while a `--corpus-dir` parent holding exactly one
/// `seedNNN` corpus descends into it (several are ambiguous — they are
/// listed so the user can pick one).
fn resolve_corpus_dir(path: &str) -> String {
    if std::path::Path::new(path).join("MANIFEST").exists() {
        return path.to_string();
    }
    let mut seeds: Vec<String> = std::fs::read_dir(path)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.path().join("MANIFEST").exists())
                .map(|e| e.path().display().to_string())
                .collect()
        })
        .unwrap_or_default();
    seeds.sort();
    match seeds.len() {
        0 => path.to_string(), // let load_corpus report the real error
        1 => seeds.pop().expect("one element"),
        _ => {
            eprintln!("{path} holds several corpora; pick one of:");
            for s in &seeds {
                eprintln!("  {s}");
            }
            std::process::exit(2);
        }
    }
}

/// Persists a run's final corpus to `dir/seedNNN/` (the layout the
/// `corpus` subcommand and `--resume-corpus` read back).
fn save_corpus(dir: &str, run_seed: u64, result: &CampaignResult) {
    let run_dir = format!("{dir}/seed{run_seed:03}");
    result
        .corpus
        .save_to(&run_dir)
        .unwrap_or_else(|e| reject(format_args!("save corpus to {run_dir}: {e}")));
    println!(
        "saved corpus ({} entries) to {run_dir}",
        result.corpus.len()
    );
}

fn load_corpus(path: &str) -> Corpus {
    Corpus::load_from(path).unwrap_or_else(|e| {
        eprintln!("load corpus from {path}: {e}");
        std::process::exit(2);
    })
}

/// Writes the run's throughput record (`--bench-out`): execs/sec
/// overall and per seed, for offline comparison.
fn save_bench(path: &str, elapsed: f64, results: &[CampaignResult]) {
    let total_execs: u64 = results.iter().map(|r| r.execs).sum();
    let per_run: Vec<String> = results
        .iter()
        .map(|r| format!("{{\"execs\": {}, \"restarts\": {}}}", r.execs, r.restarts))
        .collect();
    let json = format!(
        "{{\n  \"total_execs\": {total_execs},\n  \
         \"elapsed_sec\": {elapsed:.3},\n  \"execs_per_sec\": {:.1},\n  \
         \"runs\": [{}]\n}}\n",
        total_execs as f64 / elapsed,
        per_run.join(", ")
    );
    write_output(path, json);
    println!("wrote {path}");
}

fn report_run(run_seed: u64, result: &CampaignResult, multi: bool) {
    let prefix = if multi {
        format!("[seed {run_seed}] ")
    } else {
        String::new()
    };
    println!(
        "\n{prefix}coverage {:.1}% ({}/{} lines of {}), {} execs, {} watchdog restarts",
        result.final_coverage * 100.0,
        result.lines.count_in(&result.map, result.file),
        result.map.file_lines(result.file),
        result.map.file_name(result.file),
        result.execs,
        result.restarts,
    );
    let sync = &result.sync;
    if sync.deltas_published + sync.deltas_applied > 0 {
        println!(
            "{prefix}sync: {} deltas published / {} applied, {} entries adopted, \
             {} segments merged, {} words scanned",
            sync.deltas_published,
            sync.deltas_applied,
            sync.adoptions,
            sync.segments_merged,
            sync.words_scanned,
        );
    }
    if result.diff_execs > 0 {
        println!(
            "{prefix}differential: {} execs diffed ({} backend replays), \
             {} divergent observations, {} allowed as intentional quirks, \
             {} crash-skipped",
            result.divergence.execs_compared,
            result.diff_execs,
            result.divergence.divergences,
            result.divergence.allowed,
            result.divergence.crash_skipped,
        );
    }
    let faults = &result.faults;
    if faults.hangs + faults.deaths > 0 {
        println!(
            "{prefix}faults: {} hung exec(s) reaped by the watchdog, \
             {} silent host death(s) injected",
            faults.hangs, faults.deaths,
        );
    }
    if result.alarms.coverage_plateau {
        println!(
            "{prefix}alarm: coverage plateaued — no new lines for the \
             trailing {} virtual hour(s)",
            result.alarms.plateau_hours,
        );
    }
    if result.alarms.yield_degraded {
        println!(
            "{prefix}alarm: corpus yield degraded — the last quarter of \
             the run queued under a quarter of what the first quarter did",
        );
    }

    if result.finds.is_empty() {
        println!("{prefix}no anomalies detected");
    } else {
        println!("{prefix}{} unique anomalies:", result.finds.len());
        for f in &result.finds {
            println!(
                "  [{:<17}] {} at exec {}: {}",
                format!("{}", f.kind),
                f.bug_id,
                f.exec,
                f.message
            );
        }
    }
}

/// Saves crashing inputs for reproduction (§4.5: "saves the current
/// fuzzing input to a timestamped file within a designated directory";
/// `main` creates the directory before the first campaign).
fn save_crashes(dir: &str, run_seed: u64, result: &CampaignResult) {
    for f in &result.finds {
        let stem = format!("{dir}/crash-s{run_seed:03}-exec{:06}-{}", f.exec, f.bug_id);
        let path = format!("{stem}.bin");
        write_output(&path, &f.input.bytes);
        write_output(
            &format!("{stem}.txt"),
            format!("{} via {}\n{}\n", f.bug_id, f.kind, f.message),
        );
        println!("saved {path}");
    }
}
