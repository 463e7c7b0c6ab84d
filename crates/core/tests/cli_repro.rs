//! Process-spawn coverage for reproduction and corpus persistence:
//!
//! - every crash file a short `--out` campaign saves — sanitizer
//!   findings on vkvm (Intel and AMD), sanitizer and divergence
//!   findings of a vxen differential campaign — replays through
//!   `necofuzz corpus repro` and reports the bug its name records
//!   (paper §4.5: crashing inputs are saved for later reproduction);
//! - a `--corpus-dir` corpus goes through `corpus stat`, `corpus
//!   minimize --out` and back into a campaign with `--resume-corpus`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn necofuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_necofuzz"))
        .args(args)
        .output()
        .expect("spawn necofuzz")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf-cli-repro-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 path")
}

/// The number in `text` right after the first occurrence of `before`.
fn count_after(text: &str, before: &str) -> usize {
    let rest = &text[text
        .find(before)
        .unwrap_or_else(|| panic!("no {before:?} in {text}"))
        + before.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no count after {before:?} in {text}"))
}

#[test]
fn saved_crash_files_reproduce_and_corpora_round_trip() {
    let campaigns: [(&str, &str, &[&str]); 3] = [
        ("vkvm", "intel", &[]),
        ("vkvm", "amd", &[]),
        ("vxen", "intel", &["--oracle", "differential"]),
    ];
    for (target, vendor, extra) in campaigns {
        let dir = scratch(&format!("{target}-{vendor}"));
        let mut args = vec!["--target", target, "--vendor", vendor, "--seed", "3"];
        args.extend_from_slice(&["--hours", "2", "--execs-per-hour", "60"]);
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--out", path_str(&dir)]);
        let run = necofuzz(&args);
        assert_eq!(run.status.code(), Some(1), "{target}/{vendor} finds bugs");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("crash dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "bin"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "{target}/{vendor} saved no crash file");
        for file in &files {
            let name = file.file_stem().and_then(|s| s.to_str()).expect("name");
            // crash-sNNN-execNNNNNN-<bug id>
            let bug_id = name.splitn(4, '-').nth(3).expect("bug id in the name");
            let repro = necofuzz(&[
                "corpus",
                "repro",
                path_str(file),
                "--target",
                target,
                "--vendor",
                vendor,
            ]);
            let stdout = stdout_of(&repro);
            assert!(
                repro.status.success()
                    && stdout
                        .lines()
                        .any(|l| l.contains("reproduced [") && l.contains(&format!("] {bug_id}:"))),
                "{} did not reproduce {bug_id} (exit {:?}):\n{stdout}",
                file.display(),
                repro.status.code()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // --corpus-dir -> corpus stat -> corpus minimize --out ->
    // --resume-corpus.
    let corpora = scratch("corpus");
    let minimized = corpora.join("minimized");
    let saved = necofuzz(&[
        "--guided",
        "--hours",
        "2",
        "--execs-per-hour",
        "50",
        "--corpus-dir",
        path_str(&corpora),
    ]);
    assert!(saved.status.code().is_some_and(|c| c <= 1));
    let entries = count_after(&stdout_of(&saved), "saved corpus (");
    assert!(entries > 0, "a guided campaign queues entries");

    let stat = necofuzz(&["corpus", "stat", path_str(&corpora)]);
    assert!(stat.status.success());
    assert_eq!(count_after(&stdout_of(&stat), "seed000: "), entries);

    let min = necofuzz(&[
        "corpus",
        "minimize",
        path_str(&corpora),
        "--out",
        path_str(&minimized),
    ]);
    assert!(min.status.success());
    let min_out = stdout_of(&min);
    assert_eq!(count_after(&min_out, ": "), entries);
    let kept = count_after(&min_out, " -> ");
    assert!(
        (1..=entries).contains(&kept),
        "minimize keeps a non-empty subset: {min_out}"
    );

    let resumed = necofuzz(&[
        "--guided",
        "--hours",
        "2",
        "--execs-per-hour",
        "50",
        "--resume-corpus",
        path_str(&minimized),
    ]);
    assert!(resumed.status.code().is_some_and(|c| c <= 1));
    let banner = format!("resuming from {} (", path_str(&minimized));
    assert_eq!(
        count_after(&stdout_of(&resumed), &banner),
        kept,
        "the resumed campaign starts from the minimized queue"
    );
    std::fs::remove_dir_all(&corpora).ok();
}
