//! Process-spawn coverage for the fault-tolerance CLI surface:
//!
//! - every invalid flag combination exits 2 with a pointed diagnostic
//!   (never a silent partial run), and so does an output path that
//!   cannot be written, before any campaign runs;
//! - a faulty campaign reports its fault counters;
//! - `--checkpoint-dir` + kill + `--resume-checkpoint` converges to
//!   the exact stdout of the uninterrupted run.

use std::process::{Command, Output};

fn necofuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_necofuzz"))
        .args(args)
        .output()
        .expect("spawn necofuzz")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn invalid_fault_tolerance_flags_exit_2() {
    // (args, needle expected somewhere in stderr)
    let cases: &[(&[&str], &str)] = &[
        (&["--watchdog-fuel", "0"], "--watchdog-fuel"),
        (&["--fault-plan", "3:1.5"], "[0, 1]"),
        (&["--fault-plan", "3:-0.1"], "[0, 1]"),
        (&["--fault-plan", "nonsense"], "usage"),
        (&["--fault-plan", "3:notarate"], "usage"),
        (&["--checkpoint-interval", "2"], "--checkpoint-dir"),
        (
            &["--resume-checkpoint", "/tmp/x", "--runs", "2"],
            "exactly one campaign",
        ),
        (
            &["--checkpoint-dir", "/tmp/x", "--runs", "3"],
            "exactly one campaign",
        ),
        (
            &["--resume-checkpoint", "/tmp/x", "--resume-corpus", "/tmp/y"],
            "--resume-corpus",
        ),
        (
            &["--checkpoint-dir", "/tmp/x", "--sync-interval", "1"],
            "--sync-interval",
        ),
        (
            &["--checkpoint-dir", "/tmp/x", "--oracle", "differential"],
            "differential",
        ),
        (
            &["--checkpoint-dir", "/tmp/x", "--bench-out", "/tmp/b.json"],
            "--bench-out",
        ),
        (
            &["--resume-checkpoint", "/nonexistent/nf-checkpoint"],
            "--resume-checkpoint",
        ),
    ];
    for (args, needle) in cases {
        let out = necofuzz(args);
        let stderr = stderr_of(&out);
        assert_eq!(
            out.status.code(),
            Some(2),
            "necofuzz {args:?} must exit 2, got {:?}\nstderr: {stderr}",
            out.status.code()
        );
        assert!(
            stderr.to_lowercase().contains(&needle.to_lowercase()),
            "necofuzz {args:?} stderr must mention {needle:?}: {stderr}"
        );
    }
}

#[test]
fn usage_errors_exit_2_before_any_campaign_runs() {
    let scratch = std::env::temp_dir().join(format!("nf-cli-usage-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    // A regular file: no directory can be created below it, on any OS.
    let file = scratch.join("file");
    std::fs::write(&file, [0u8; 64]).expect("write scratch file");
    let file = file.to_str().expect("utf-8 temp dir");
    let below_file = format!("{file}/x");
    let corpus = scratch.join("corpus");
    necofuzz::Corpus::new()
        .save_to(&corpus)
        .expect("save an empty corpus");
    let corpus = corpus.to_str().expect("utf-8 temp dir");

    let short = ["--hours", "1", "--execs-per-hour", "10"];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["--seed", "18446744073709551615"], "--seed"),
        (
            vec!["--seed", "18446744073709551614", "--runs", "3"],
            "--seed",
        ),
        ([&short[..], &["--out", &below_file]].concat(), "--out"),
        (
            [&short[..], &["--corpus-dir", &below_file]].concat(),
            "--corpus-dir",
        ),
        (
            vec!["corpus", "minimize", corpus, "--out", &below_file],
            "minimized corpus",
        ),
        (vec!["--prefix-cache"], "usage"),
        (vec!["--prefix-budget", "1"], "usage"),
        (vec!["corpus", "repro", file, "--prefix-cache"], "usage"),
    ];
    for (args, needle) in &cases {
        let out = necofuzz(args);
        let stderr = stderr_of(&out);
        assert_eq!(
            out.status.code(),
            Some(2),
            "necofuzz {args:?} must exit 2, got {:?}\nstderr: {stderr}",
            out.status.code()
        );
        assert!(
            stderr.contains(needle),
            "necofuzz {args:?} stderr must mention {needle:?}: {stderr}"
        );
        if *needle != "usage" {
            assert_eq!(
                stderr.lines().count(),
                1,
                "necofuzz {args:?} must print a one-line diagnostic: {stderr}"
            );
        }
        assert!(
            out.stdout.is_empty(),
            "necofuzz {args:?} must fail before any campaign runs: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn oversized_corpus_manifest_counts_exit_2() {
    // An entry count sized up front would abort the process (4e9,
    // exit 134) or overflow the capacity (u64::MAX, exit 101).
    let dir = std::env::temp_dir().join(format!("nf-cli-count-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    necofuzz::Corpus::new()
        .save_to(&dir)
        .expect("save an empty corpus");
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest");
    let path = dir.to_str().expect("utf-8 temp dir");
    for count in ["4000000000", "18446744073709551615"] {
        let tampered = manifest.replace("entries 0\n", &format!("entries {count}\n"));
        std::fs::write(dir.join("MANIFEST"), tampered).expect("tamper");
        for args in [
            vec!["corpus", "stat", path],
            vec![
                "--resume-corpus",
                path,
                "--hours",
                "1",
                "--execs-per-hour",
                "10",
            ],
        ] {
            let out = necofuzz(&args);
            let stderr = stderr_of(&out);
            assert_eq!(
                out.status.code(),
                Some(2),
                "necofuzz {args:?} with entries {count} must exit 2: {stderr}"
            );
            assert!(
                stderr.contains("load corpus from"),
                "necofuzz {args:?} must name the failed load: {stderr}"
            );
            assert!(out.stdout.is_empty(), "nothing may run: {args:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_plan_runs_report_their_counters() {
    let out = necofuzz(&[
        "--hours",
        "2",
        "--execs-per-hour",
        "60",
        "--guided",
        "--seed",
        "5",
        "--fault-plan",
        "9:0.05",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("faults="),
        "banner must show the armed plan: {stdout}"
    );
    assert!(
        stdout.contains("faults:") && stdout.contains("reaped by the watchdog"),
        "fault counters must be reported: {stdout}"
    );
    // Injected hangs surface as findings, so the run exits 1.
    assert_eq!(out.status.code(), Some(1), "hung-exec findings exit 1");
}

#[test]
fn checkpoint_kill_resume_converges_to_the_uninterrupted_stdout() {
    let dir = std::env::temp_dir().join(format!("nf-cli-ckpt-{}", std::process::id()));
    let dir = dir.to_str().expect("utf-8 temp dir");
    std::fs::remove_dir_all(dir).ok();

    let common = [
        "--execs-per-hour",
        "60",
        "--guided",
        "--seed",
        "5",
        "--fault-plan",
        "9:0.05",
    ];

    // "Kill" after 2 of 3 hours: run a 2-hour campaign that checkpoints
    // every hour — its final checkpoint is exactly what a SIGKILL at
    // the hour-2 boundary of the 3-hour run would have left behind.
    let mut partial: Vec<&str> = vec!["--hours", "2", "--checkpoint-dir", dir];
    partial.extend_from_slice(&common);
    let out = necofuzz(&partial);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));

    let mut resumed: Vec<&str> = vec!["--hours", "3", "--resume-checkpoint", dir];
    resumed.extend_from_slice(&common);
    let resumed = necofuzz(&resumed);

    let mut straight: Vec<&str> = vec!["--hours", "3"];
    straight.extend_from_slice(&common);
    let straight = necofuzz(&straight);
    std::fs::remove_dir_all(dir).ok();

    assert_eq!(resumed.status.code(), straight.status.code());
    let tail = |out: &Output| -> String {
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        // Skip each run's banner line (they legitimately differ); all
        // result reporting after it must match byte for byte.
        match text.split_once('\n') {
            Some((_, rest)) => rest.to_string(),
            None => text,
        }
    };
    assert_eq!(
        tail(&resumed),
        tail(&straight),
        "resumed run must report exactly what the uninterrupted run does"
    );
}
