//! Property tests for the corpus invariants the shared-corpus runtime
//! leans on:
//!
//! - `minimize` preserves the exact line-coverage union and never
//!   grows the corpus;
//! - `save_to`/`load_from` round-trips bit-identically, for guided and
//!   unguided corpora alike;
//! - sync deltas never re-publish foreign entries.

use nf_coverage::LineSet;
use nf_fuzz::{Corpus, ExecFeedback, Fuzzer, Mode, SyncStats, MAP_SIZE};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Grows a corpus by `execs` synthetic executions driven by `seed`:
/// random inputs, random sparse bitmaps, random line spans — the shape
/// of real agent feedback without the hypervisor.
fn grown_fuzzer(seed: u64, mode: Mode, execs: usize) -> Fuzzer {
    let mut fuzzer = Fuzzer::new(seed, mode);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    for _ in 0..execs {
        let input = fuzzer.next_input();
        let mut bitmap = vec![0u8; MAP_SIZE];
        for _ in 0..rng.gen_range(1..8usize) {
            let edge = rng.gen_range(0..MAP_SIZE);
            bitmap[edge] = rng.gen_range(1..=255);
        }
        let mut lines = LineSet::default();
        mark_span(
            &mut lines,
            rng.gen_range(0..512u32),
            rng.gen_range(1..32u32),
        );
        fuzzer.report_observed(
            &input,
            &bitmap,
            &lines,
            ExecFeedback {
                crashed: rng.gen_range(0..50u8) == 0,
            },
        );
    }
    fuzzer
}

/// Marks `count` consecutive lines starting at `start`.
fn mark_span(set: &mut LineSet, start: u32, count: u32) {
    let block = nf_coverage::BlockDef {
        id: nf_coverage::BlockId(0),
        file: nf_coverage::FileId(0),
        line_start: start,
        line_count: count,
        label: "span",
    };
    set.add_block(&block);
}

fn temp_dir(tag: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "nf-corpus-prop-{tag}-{}-{case}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn minimize_preserves_line_coverage_and_never_grows(seed in 0u64..1 << 32, execs in 10usize..120) {
        let fuzzer = grown_fuzzer(seed, Mode::Guided, execs);
        let corpus = fuzzer.corpus();
        let minimized = corpus.minimize();
        prop_assert_eq!(
            minimized.line_union(),
            corpus.line_union(),
            "minimize must preserve the exact covered-line union"
        );
        prop_assert!(
            minimized.len() <= corpus.len(),
            "minimize must never grow the corpus: {} > {}",
            minimized.len(),
            corpus.len()
        );
        prop_assert!(!minimized.is_empty(), "a seeded corpus never minimizes to nothing");
        // Idempotence: minimizing a minimal cover changes nothing more.
        let again = minimized.minimize();
        prop_assert_eq!(again.len(), minimized.len());
        prop_assert_eq!(again.line_union(), minimized.line_union());
    }

    #[test]
    fn save_load_round_trips_guided_and_unguided(seed in 0u64..1 << 32, execs in 5usize..80) {
        for (tag, mode) in [("guided", Mode::Guided), ("unguided", Mode::Unguided)] {
            let mut fuzzer = grown_fuzzer(seed, mode, execs);
            if seed % 2 == 0 {
                // Half the cases persist mid-sync state too.
                fuzzer.corpus_mut().take_delta_async(&mut SyncStats::default());
            }
            let corpus = fuzzer.corpus();
            let dir = temp_dir(tag, seed);
            corpus.save_to(&dir).expect("save corpus");
            let loaded = Corpus::load_from(&dir).expect("load corpus");
            std::fs::remove_dir_all(&dir).ok();
            prop_assert_eq!(
                corpus,
                &loaded,
                "{} corpus must round-trip bit-identically",
                tag
            );
        }
    }

    #[test]
    fn deltas_share_only_local_discoveries(seed in 0u64..1 << 32) {
        let mut a = grown_fuzzer(seed, Mode::Guided, 40);
        a.set_worker(0);
        let mut b = Fuzzer::new(seed.wrapping_add(1), Mode::Guided);
        b.set_worker(1);

        let mut stats = SyncStats::default();
        let from_a = a.corpus_mut().take_delta_async(&mut stats);
        b.corpus_mut().take_delta_async(&mut stats);
        let adopted = b.corpus_mut().apply_delta(&from_a, &mut stats);
        prop_assert!(adopted > 0, "a fresh corpus adopts A's discoveries");

        // B adopted A's entries; B's next delta must not re-export them.
        let leak = b.corpus_mut().take_delta_async(&mut stats);
        prop_assert!(
            leak.entries.iter().all(|e| e.provenance.worker == 1),
            "foreign entries must never be re-published"
        );
    }
}

#[test]
fn campaign_shaped_corpus_round_trips() {
    // The exact corpus a guided fuzzing loop produces (with culling
    // exercised) survives persistence bit-identically.
    let mut fuzzer = grown_fuzzer(7, Mode::Guided, 700);
    for _ in 0..3 {
        fuzzer.next_input();
    }
    let dir = temp_dir("campaign", 7);
    fuzzer.corpus().save_to(&dir).expect("save");
    let loaded = Corpus::load_from(&dir).expect("load");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(fuzzer.corpus(), &loaded);
    assert!(loaded.len() > 5, "the loop must have promoted entries");
}
