//! Property suite for the sharded virgin-map algebra
//! (`bitmap::segments`): every masked sweep must be bit-identical to
//! its whole-map counterpart whenever the dirty mask covers the
//! segments that moved — across random maps including the adversarial
//! shapes: all-0x00, all-0xff, hits only on skip-block edges,
//! sub-segment maps, tail remainders, and maps longer than the 64-bit
//! mask can address (tail saturation).

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
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = pick_len(&mut rng);
        let (rshape, vshape) = (rng.gen_range(0..5u8), rng.gen_range(0..4u8));
        let raw = raw_map(&mut rng, len, rshape);
        let mut marked = virgin_map(&mut rng, len, vshape);
        let mut plain = marked.clone();
        let mut dirty = 0u64;
        let novel_marked = segments::merge_raw_marking(&mut marked, &raw, &mut dirty);
        let novel_plain = bitmap::merge_raw(&mut plain, &raw);
        prop_assert_eq!(novel_marked, novel_plain, "novelty verdict diverged");
        prop_assert_eq!(&marked, &plain, "virgin state diverged");
        prop_assert_eq!(novel_marked, dirty != 0, "novelty must mark a segment");
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
        segments::merge_raw_marking(&mut after, &raw, &mut dirty);
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
            segments::merge_raw_marking(&mut now, &raw, &mut dirty);
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
