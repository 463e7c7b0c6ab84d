//! Equivalence property suite for the bitmap engine: every word-wise
//! operation, and the novelty kernel and classifier fed a bare map's
//! non-zero bytes, must be bit-identical to its byte-at-a-time reference
//! (`bitmap::bytewise`) — return values *and* mutated state — across
//! random maps including the adversarial shapes: all-0x00 (maximum
//! skip), all-0xff (no skip), sparse/dense mixes, mismatched lengths,
//! and tail remainders (lengths not a multiple of the 8-byte word).

use nf_coverage::bitmap;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The whole-map novelty merge as `Fuzzer::report_observed` runs it on
/// a bare raw map: list the non-zero bytes with the block-skipping
/// scan, then feed them to the one novelty kernel.
fn merge_raw(virgin: &mut [u8], raw: &[u8]) -> bool {
    let mut edges = vec![7u32]; // stale garbage: nonzero_into must clear
    bitmap::nonzero_into(raw, &mut edges);
    bitmap::segments::merge_edges_marking(virgin, raw, &edges, &mut 0)
}

/// A bare raw map's classified form as corpus promotion builds it:
/// the listed non-zero bytes, classified.
fn classify(raw: &[u8]) -> Vec<(u32, u8)> {
    let mut edges = Vec::new();
    bitmap::nonzero_into(raw, &mut edges);
    bitmap::classify_edges(raw, &edges)
}

/// A raw hit-count bitmap of one of the shapes the engine meets:
/// `0` all-zero (an empty exec), `1` all-0xff (saturated), `2` sparse
/// (a realistic exec: a handful of edges), `3` dense random, `4` very
/// sparse (see [`edge_sparse_raw`]).
fn raw_map(rng: &mut SmallRng, len: usize, shape: u8) -> Vec<u8> {
    match shape {
        0 => vec![0; len],
        1 => vec![0xff; len],
        2 => {
            let mut raw = vec![0u8; len];
            for _ in 0..len / 16 {
                raw[rng.gen_range(0..len.max(1))] = rng.gen_range(1..=255);
            }
            raw
        }
        3 => (0..len).map(|_| rng.gen()).collect(),
        _ => edge_sparse_raw(rng, len),
    }
}

/// A handful of non-zero counts on the first or last byte of
/// skip blocks, plus the map's final byte: almost every block is
/// skipped, and each hit sits on a block edge.
fn edge_sparse_raw(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    let mut raw = vec![0u8; len];
    if len == 0 {
        return raw;
    }
    let block = bitmap::SKIP_BLOCK_BYTES;
    for _ in 0..rng.gen_range(1..=4) {
        let start = rng.gen_range(0..len.div_ceil(block)) * block;
        let at = if rng.gen() {
            start
        } else {
            (start + block - 1).min(len - 1)
        };
        raw[at] = rng.gen_range(1..=255);
    }
    raw[len - 1] = rng.gen_range(1..=255);
    raw
}

/// A virgin map: `0` all-virgin, `1` all-seen (maximum skip), `2`
/// mostly seen (late campaign), `3` random.
fn virgin_map(rng: &mut SmallRng, len: usize, shape: u8) -> Vec<u8> {
    match shape {
        0 => vec![0xff; len],
        1 => vec![0; len],
        2 => (0..len)
            .map(|_| if rng.gen_range(0..16u8) == 0 { 0xff } else { 0 })
            .collect(),
        _ => (0..len).map(|_| rng.gen()).collect(),
    }
}

/// Lengths covering the word-loop edge cases: empty, sub-word, exact
/// words, tail remainders, a short last skip block, and a full AFL
/// map.
fn pick_len(rng: &mut SmallRng) -> usize {
    const LENS: [usize; 9] = [0, 1, 7, 8, 9, 64, 100, 300, 1 << 16];
    LENS[rng.gen_range(0..LENS.len())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn classify_matches_bytewise(seed in 0u64..1 << 48) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = pick_len(&mut rng);
        let shape = rng.gen_range(0..5u8);
        let raw = raw_map(&mut rng, len, shape);
        let mut edges = vec![7u32]; // stale garbage: _into must clear
        bitmap::nonzero_into(&raw, &mut edges);
        let classified = bitmap::classify_edges(&raw, &edges);
        prop_assert_eq!(&classified, &bitmap::bytewise::classify(&raw));
        let indices: Vec<u32> = classified.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(&edges, &indices, "the edge list is the classified indices, in order");
    }

    #[test]
    fn merge_raw_matches_bytewise(seed in 0u64..1 << 48) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (vlen, rlen) = (pick_len(&mut rng), pick_len(&mut rng));
        let vshape = rng.gen_range(0..4u8);
        let rshape = rng.gen_range(0..4u8);
        let raw = raw_map(&mut rng, rlen, rshape);
        let mut edge_virgin = virgin_map(&mut rng, vlen, vshape);
        let mut byte_virgin = edge_virgin.clone();
        let novel_edges = merge_raw(&mut edge_virgin, &raw);
        let novel_bytes = bitmap::bytewise::merge_raw(&mut byte_virgin, &raw);
        prop_assert_eq!(novel_edges, novel_bytes, "novelty verdict diverged");
        prop_assert_eq!(&edge_virgin, &byte_virgin, "virgin state diverged");
        // Idempotence: a second merge of the same raw map finds nothing.
        prop_assert!(!merge_raw(&mut edge_virgin, &raw));
    }

    #[test]
    fn merge_raw_agrees_with_the_sparse_novelty_test(seed in 0u64..1 << 48) {
        // The raw-map scan and the classified-map test are two views of
        // the same question: "would this exec teach `virgin` anything?"
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = pick_len(&mut rng);
        let rshape = rng.gen_range(0..4u8);
        let vshape = rng.gen_range(0..4u8);
        let raw = raw_map(&mut rng, len, rshape);
        let virgin = virgin_map(&mut rng, len, vshape);
        let sparse_says = bitmap::is_novel_against(&classify(&raw), &virgin);
        let mut scratch = virgin.clone();
        prop_assert_eq!(merge_raw(&mut scratch, &raw), sparse_says);
    }

    #[test]
    fn cleared_since_matches_bytewise(seed in 0u64..1 << 48) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (tlen, nlen) = (pick_len(&mut rng), pick_len(&mut rng));
        let tshape = rng.gen_range(0..4u8);
        let then = virgin_map(&mut rng, tlen, tshape);
        // Bias towards realistic deltas: `now` is `then` with a few more
        // bits seen — but raw random pairs must agree too.
        let nshape = rng.gen_range(0..4u8);
        let now = if rng.gen() {
            let mut now = virgin_map(&mut rng, nlen, 3);
            bitmap::merge_virgin(&mut now, &then);
            now
        } else {
            virgin_map(&mut rng, nlen, nshape)
        };
        let mut via_into = vec![(9u32, 9u8)];
        bitmap::cleared_since_into(&then, &now, &mut via_into);
        prop_assert_eq!(&via_into, &bitmap::bytewise::cleared_since(&then, &now));
        prop_assert_eq!(&via_into, &bitmap::cleared_since(&then, &now));
        // Round trip: applying the delta to `then` reproduces the
        // merge — on equal lengths the delta is exactly what moved.
        if then.len() == now.len() {
            let mut replay = then.clone();
            bitmap::apply_cleared(&mut replay, &via_into);
            let mut merged = then.clone();
            bitmap::merge_virgin(&mut merged, &now);
            prop_assert_eq!(replay, merged);
        }
    }

    #[test]
    fn merge_virgin_matches_bytewise(seed in 0u64..1 << 48) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (dlen, slen) = (pick_len(&mut rng), pick_len(&mut rng));
        let sshape = rng.gen_range(0..4u8);
        let dshape = rng.gen_range(0..4u8);
        let src = virgin_map(&mut rng, slen, sshape);
        let mut word_dst = virgin_map(&mut rng, dlen, dshape);
        let mut byte_dst = word_dst.clone();
        bitmap::merge_virgin(&mut word_dst, &src);
        bitmap::bytewise::merge_virgin(&mut byte_dst, &src);
        prop_assert_eq!(word_dst, byte_dst);
    }
}
