//! Property suite for the sharded virgin-map algebra
//! (`bitmap::segments`): the edge-list novelty kernel must equal the
//! byte-wise whole-map merge in any edge order, and every masked sweep
//! must be bit-identical to its whole-map counterpart whenever the
//! dirty mask covers the segments that moved — across random maps
//! including the adversarial shapes: all-0x00, all-0xff, hits only on
//! skip-block edges, sub-segment maps, tail remainders, and maps longer
//! than the 64-bit mask can address (tail saturation).

use nf_coverage::bitmap::{self, segments};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A raw hit-count bitmap: `0` all-zero, `1` all-0xff (saturated),
/// `2` sparse (a realistic exec), `3` dense random, `4` very sparse
/// (see [`edge_sparse_raw`]).
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

/// `raw`'s edge list as `Fuzzer::report_observed` lists a bare map,
/// then shuffled: the kernel's contract allows any order.
fn shuffled_edges(rng: &mut SmallRng, raw: &[u8]) -> Vec<u32> {
    let mut edges = Vec::new();
    bitmap::nonzero_into(raw, &mut edges);
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    edges
}

/// The novelty kernel over `raw`'s whole edge list, in shuffled order.
fn merge_marking(rng: &mut SmallRng, virgin: &mut [u8], raw: &[u8], dirty: &mut u64) -> bool {
    let edges = shuffled_edges(rng, raw);
    segments::merge_edges_marking(virgin, raw, &edges, dirty)
}

/// A virgin map: `0` all-virgin, `1` all-seen, `2` mostly seen (late
/// campaign), `3` random.
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

/// Lengths covering the segment-loop edge cases: empty, sub-word,
/// sub-segment, exact segment, segment + tail, the full AFL map
/// (exactly 64 segments), and an oversized map that saturates the
/// mask's last bit.
fn pick_len(rng: &mut SmallRng) -> usize {
    const LENS: [usize; 9] = [
        0,
        1,
        100,
        1024,
        1025,
        4096 + 7,
        1 << 16,
        (1 << 16) + 9,
        80_000,
    ];
    LENS[rng.gen_range(0..LENS.len())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn marking_merge_matches_merge_raw(seed in 0u64..1 << 48) {
        // The raw map's non-zero bytes in shuffled order, with block-edge
        // hits (shape 4) and counts saturated at 255 (shape 1, plus one
        // forced byte): virgin map, verdict, dirty mask and promoted
        // evidence must all equal the byte-wise whole-map forms.
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = pick_len(&mut rng);
        let (rshape, vshape) = (rng.gen_range(0..5u8), rng.gen_range(0..4u8));
        let mut raw = raw_map(&mut rng, len, rshape);
        if len > 0 {
            raw[rng.gen_range(0..len)] = 0xff;
        }
        let edges = shuffled_edges(&mut rng, &raw);
        let before = virgin_map(&mut rng, len, vshape);
        let mut marked = before.clone();
        let mut plain = before.clone();
        let mut dirty = 0u64;
        let novel_marked = segments::merge_edges_marking(&mut marked, &raw, &edges, &mut dirty);
        let novel_plain = bitmap::bytewise::merge_raw(&mut plain, &raw);
        prop_assert_eq!(novel_marked, novel_plain, "novelty verdict diverged");
        prop_assert_eq!(&marked, &plain, "virgin state diverged");
        prop_assert_eq!(novel_marked, dirty != 0, "novelty must mark a segment");
        let moved = bitmap::bytewise::cleared_since(&before, &plain);
        prop_assert_eq!(dirty, segments::segments_of(&moved), "dirty mask diverged");
        prop_assert_eq!(
            bitmap::classify_edges(&raw, &edges),
            bitmap::bytewise::classify(&raw),
            "promoted evidence diverged"
        );
    }

    #[test]
    fn marked_segments_cover_every_moved_byte(seed in 0u64..1 << 48) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = pick_len(&mut rng);
        let (rshape, vshape) = (rng.gen_range(0..5u8), rng.gen_range(0..4u8));
        let raw = raw_map(&mut rng, len, rshape);
        let before = virgin_map(&mut rng, len, vshape);
        let mut after = before.clone();
        let mut dirty = 0u64;
        merge_marking(&mut rng, &mut after, &raw, &mut dirty);
        let moved = bitmap::cleared_since(&before, &after);
        prop_assert_eq!(segments::segments_of(&moved) & !dirty, 0,
            "a byte moved in an unmarked segment");
    }

    #[test]
    fn masked_cleared_since_matches_whole_map(seed in 0u64..1 << 48) {
        // Drive `now` from `then` through the marking merge, so the
        // mask is exactly the honest record of what moved.
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = pick_len(&mut rng);
        let tshape = rng.gen_range(0..4u8);
        let then = virgin_map(&mut rng, len, tshape);
        let mut now = then.clone();
        let mut dirty = 0u64;
        for _ in 0..rng.gen_range(0..3usize) {
            let rshape = rng.gen_range(0..5u8);
            let raw = raw_map(&mut rng, len, rshape);
            merge_marking(&mut rng, &mut now, &raw, &mut dirty);
        }
        let mut masked = vec![(9u32, 9u8)]; // stale garbage: must clear
        segments::cleared_since_segments(&then, &now, dirty, &mut masked);
        prop_assert_eq!(&masked, &bitmap::cleared_since(&then, &now));
        // A full mask is always a safe over-approximation.
        let mut full = Vec::new();
        segments::cleared_since_segments(&then, &now, u64::MAX, &mut full);
        prop_assert_eq!(&full, &bitmap::cleared_since(&then, &now));
    }

    #[test]
    fn masked_merge_virgin_matches_whole_map(seed in 0u64..1 << 48) {
        // When the mask covers every segment where `src` knows more
        // than `dst`, the masked merge equals the whole-map merge.
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = pick_len(&mut rng);
        let (sshape, dshape) = (rng.gen_range(0..4u8), rng.gen_range(0..4u8));
        let src = virgin_map(&mut rng, len, sshape);
        let mut masked_dst = virgin_map(&mut rng, len, dshape);
        let mut whole_dst = masked_dst.clone();
        let dirty = segments::segments_of(&bitmap::cleared_since(&masked_dst, &src));
        segments::merge_virgin_segments(&mut masked_dst, &src, dirty);
        bitmap::merge_virgin(&mut whole_dst, &src);
        prop_assert_eq!(&masked_dst, &whole_dst);
    }

    #[test]
    fn copy_segments_snapshots_exactly_the_mask(seed in 0u64..1 << 48) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = pick_len(&mut rng);
        let (sshape, oshape) = (rng.gen_range(0..4u8), rng.gen_range(0..4u8));
        let src = virgin_map(&mut rng, len, sshape);
        let orig = virgin_map(&mut rng, len, oshape);
        let dirty: u64 = rng.gen();
        let mut dst = orig.clone();
        segments::copy_segments(&mut dst, &src, dirty);
        for seg in 0..segments::segment_count(len) {
            let range = segments::segment_range(seg, len);
            let expect = if dirty & (1u64 << seg) != 0 { &src } else { &orig };
            prop_assert_eq!(&dst[range.clone()], &expect[range]);
        }
        // Full mask == plain copy; empty mask == no-op.
        let mut full = orig.clone();
        segments::copy_segments(&mut full, &src, u64::MAX);
        prop_assert_eq!(&full, &src);
        let mut none = orig.clone();
        segments::copy_segments(&mut none, &src, 0);
        prop_assert_eq!(&none, &orig);
    }

    #[test]
    fn segment_ranges_tile_the_map(seed in 0u64..1 << 48) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = pick_len(&mut rng);
        let count = segments::segment_count(len);
        prop_assert_eq!(count == 0, len == 0);
        let mut covered = 0usize;
        for seg in 0..count {
            let range = segments::segment_range(seg, len);
            prop_assert_eq!(range.start, covered, "segments must abut");
            covered = range.end;
        }
        prop_assert_eq!(covered, len, "segments must cover the map");
    }
}
