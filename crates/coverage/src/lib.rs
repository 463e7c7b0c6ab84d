//! Coverage collection for the NecoFuzz reproduction.
//!
//! Models the paper's measurement pipeline (§4.1, §5.1): KCOV-style
//! basic-block traces, mapped to source lines (`addr2line`), restricted
//! to the nested-virtualization source files, with an AFL++-compatible
//! bitmap projection for the fuzzer's feedback loop.
//!
//! A *block* is a basic block of hypervisor code; each block statically
//! declares how many `nested.c` source lines it stands for. Line
//! coverage is span-weighted: `covered lines / total lines`, exactly the
//! quantity Table 2 reports. Cross-tool set algebra (`A∩B`, `A−B`)
//! operates on line sets.
//!
//! Everything on the per-execution path is built for reuse: the
//! [`ExecTrace`] hit index is dense and clears in O(touched blocks),
//! [`ExecScratch`] bundles the buffers one fuzzing iteration needs so
//! the steady-state loop performs no heap allocation, and it lists the
//! bitmap bytes each execution touched, so novelty
//! ([`bitmap::segments::merge_edges_marking`]) visits only those. The
//! rest of the [`bitmap`] set algebra operates on `u64` words with
//! early-exit skipping of uninteresting words (AFL++ `has_new_bits`
//! style); all of it stays bit-identical to the byte-at-a-time
//! reference kept in [`bitmap::bytewise`].

/// Identifies one instrumented source file (e.g. `vmx/nested.c`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u16);

/// Identifies one instrumented basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Static description of an instrumented block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockDef {
    /// The block's id (dense, assigned by the map).
    pub id: BlockId,
    /// File the block lives in.
    pub file: FileId,
    /// First line of the block in the *global* line index space.
    pub line_start: u32,
    /// Number of source lines the block spans.
    pub line_count: u32,
    /// Human-readable label (function/branch), for reports.
    pub label: &'static str,
}

/// The instrumentation registry of one hypervisor build: every file and
/// block, with the line geometry used by all coverage accounting.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CovMap {
    files: Vec<(String, u32)>, // (name, total lines)
    blocks: Vec<BlockDef>,
    next_line: u32,
}

impl CovMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        CovMap::default()
    }

    /// Registers an instrumented source file.
    pub fn add_file(&mut self, name: impl Into<String>) -> FileId {
        let id = FileId(self.files.len() as u16);
        self.files.push((name.into(), 0));
        id
    }

    /// Registers a block spanning `line_count` lines of `file`.
    pub fn add_block(&mut self, file: FileId, line_count: u32, label: &'static str) -> BlockId {
        assert!(line_count > 0, "a block must span at least one line");
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockDef {
            id,
            file,
            line_start: self.next_line,
            line_count,
            label,
        });
        self.next_line += line_count;
        self.files[file.0 as usize].1 += line_count;
        id
    }

    /// Total instrumented lines in `file`.
    pub fn file_lines(&self, file: FileId) -> u32 {
        self.files[file.0 as usize].1
    }

    /// Name of `file`.
    pub fn file_name(&self, file: FileId) -> &str {
        &self.files[file.0 as usize].0
    }

    /// Total lines across all files.
    pub fn total_lines(&self) -> u32 {
        self.next_line
    }

    /// Number of registered blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Looks up a block definition.
    pub fn block(&self, id: BlockId) -> &BlockDef {
        &self.blocks[id.0 as usize]
    }

    /// Iterates all block definitions.
    pub fn blocks(&self) -> impl Iterator<Item = &BlockDef> {
        self.blocks.iter()
    }
}

/// The basic-block trace of a single execution (one fuzzing iteration).
///
/// Hit order is preserved for the AFL edge projection; hit sets feed the
/// cumulative line accounting. The hit index is *dense and reusable*:
/// per-block counts live in a flat vector indexed by block id, and
/// [`ExecTrace::clear`] resets only the touched slots, so a trace can be
/// recycled across millions of executions without reallocating (the
/// `BTreeMap` it replaced allocated a node per distinct block per exec).
#[derive(Debug, Default, Clone)]
pub struct ExecTrace {
    order: Vec<BlockId>,
    /// Dense per-block hit counts, indexed by block id.
    counts: Vec<u32>,
    /// Blocks with a non-zero count, in first-hit order.
    uniq: Vec<u32>,
}

/// Semantic equality: two traces are equal when they recorded the same
/// hit sequence. `counts` and `uniq` are derived from `order` (and
/// `counts` may carry trailing zeros on a recycled buffer), so only the
/// sequence is compared.
impl PartialEq for ExecTrace {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}

impl Eq for ExecTrace {}

/// Walks the AFL++ edge projection of `order`: each (previous, current)
/// block pair hashes to a bitmap index. The `% size` fold is
/// strength-reduced to a mask when the map size is a power of two (the
/// shipped `MAP_SIZE` always is; the modulo survives for odd sizes).
#[inline]
fn project_edges(order: &[BlockId], size: usize, mut visit: impl FnMut(usize)) {
    let mask = size - 1;
    let pow2 = size.is_power_of_two();
    let mut prev: u32 = 0;
    for &BlockId(cur) in order {
        let hash = ((prev.wrapping_mul(0x9e37_79b9)) ^ cur.wrapping_mul(0x85eb_ca6b)) as usize;
        visit(if pow2 { hash & mask } else { hash % size });
        prev = cur.wrapping_shr(1).wrapping_add(cur << 7);
    }
}

impl ExecTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        ExecTrace::default()
    }

    /// Records a block hit. Inlined into every model's instrumentation
    /// site: this runs on every block hit of every execution.
    #[inline]
    pub fn hit(&mut self, id: BlockId) {
        self.order.push(id);
        let idx = id.0 as usize;
        if idx >= self.counts.len() {
            self.grow_counts(idx);
        }
        let count = &mut self.counts[idx];
        if *count == 0 {
            self.uniq.push(id.0);
        }
        *count += 1;
    }

    /// Widens the count index to cover block `idx` — once per block id
    /// over a recycled trace's lifetime, so kept off the inlined path.
    #[cold]
    #[inline(never)]
    fn grow_counts(&mut self, idx: usize) {
        self.counts.resize(idx + 1, 0);
    }

    /// Unique blocks hit, in first-hit order.
    pub fn unique_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.uniq.iter().map(|&b| BlockId(b))
    }

    /// Number of times `id` was hit.
    pub fn hits_of(&self, id: BlockId) -> u32 {
        self.counts.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Number of hits (including repeats).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if nothing was hit.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Clears the trace for reuse, keeping every buffer's capacity.
    /// O(touched blocks), not O(instrumented blocks).
    pub fn clear(&mut self) {
        self.order.clear();
        for &b in &self.uniq {
            self.counts[b as usize] = 0;
        }
        self.uniq.clear();
    }

    /// Projects the trace onto an AFL++-style edge bitmap: each
    /// (previous, current) block pair hashes to a bitmap byte, which
    /// saturating-increments — the shared-memory interface the agent
    /// exposes to the fuzzer (§4.1).
    pub fn fill_afl_bitmap(&self, bitmap: &mut [u8]) {
        let size = bitmap.len();
        if size == 0 {
            return;
        }
        project_edges(&self.order, size, |edge| {
            bitmap[edge] = bitmap[edge].saturating_add(1);
        });
    }
}

/// The reusable per-execution buffers of the zero-allocation hot path:
/// one of these lives for a whole campaign and is recycled every
/// iteration, so the steady-state execution loop performs no heap
/// allocation at all.
///
/// Ownership protocol (see `nf_core::engine`): call
/// [`ExecScratch::begin_exec`] before collecting a new execution, swap
/// the hypervisor's trace into [`ExecScratch::trace`], then
/// [`ExecScratch::project`] it. The invariant the targeted wipe and
/// the edge-list novelty kernel rely on: `bitmap` is non-zero exactly
/// at the bytes `project` recorded in its edge list
/// ([`ExecScratch::edges`]); a caller that writes `bitmap` must keep
/// that pairing.
#[derive(Debug, Clone)]
pub struct ExecScratch {
    /// Raw AFL hit-count bitmap of the latest execution.
    pub bitmap: Vec<u8>,
    /// Line coverage of the latest execution.
    pub lines: LineSet,
    /// The latest execution's trace (the swap target of
    /// `L0Hypervisor::swap_trace`).
    pub trace: ExecTrace,
    /// The bitmap bytes [`ExecScratch::project`] turned non-zero, in
    /// first-hit order: one entry per unique edge, and exactly the
    /// bytes [`ExecScratch::begin_exec`] zeroes.
    edges: Vec<u32>,
}

impl ExecScratch {
    /// A scratch sized for `map`'s line geometry and a `map_size`-byte
    /// AFL bitmap.
    pub fn new(map: &CovMap, map_size: usize) -> Self {
        ExecScratch {
            bitmap: vec![0; map_size],
            lines: LineSet::for_map(map),
            trace: ExecTrace::new(),
            edges: Vec::new(),
        }
    }

    /// Rotates the scratch into a new execution: zeroes the bitmap
    /// bytes the previous projection recorded (one store per unique
    /// edge) and clears the per-exec buffers in place (capacities
    /// kept).
    pub fn begin_exec(&mut self) {
        for &edge in &self.edges {
            self.bitmap[edge as usize] = 0;
        }
        self.edges.clear();
        self.trace.clear();
        self.lines.clear();
    }

    /// The bitmap bytes the latest [`ExecScratch::project`] turned
    /// non-zero, in first-hit order: each non-zero byte of
    /// [`ExecScratch::bitmap`] exactly once — the list the novelty
    /// kernel ([`bitmap::segments::merge_edges_marking`]) walks instead
    /// of the whole map.
    pub fn edges(&self) -> &[u32] {
        &self.edges
    }

    /// Projects [`ExecScratch::trace`] (typically just swapped out of a
    /// hypervisor) into the line set and the AFL bitmap — the
    /// [`ExecTrace::fill_afl_bitmap`] projection — recording every
    /// bitmap byte it turns non-zero.
    pub fn project(&mut self, map: &CovMap) {
        self.lines.add_trace(map, &self.trace);
        let (bitmap, edges) = (&mut self.bitmap, &mut self.edges);
        if bitmap.is_empty() {
            return;
        }
        project_edges(&self.trace.order, bitmap.len(), |edge| {
            if bitmap[edge] == 0 {
                edges.push(edge as u32);
            }
            bitmap[edge] = bitmap[edge].saturating_add(1);
        });
    }
}

pub mod bitmap {
    //! Set algebra on AFL-style virgin bitmaps.
    //!
    //! A *virgin map* starts all-ones; every hit-count bucket a fuzzer
    //! observes clears its bit. The corpus-sync merge path (see
    //! `nf_fuzz::corpus`) exchanges coverage between workers as sparse
    //! *classified maps* — `(byte index, bucket bits)` pairs — and
    //! combines virgin maps so that siblings stop re-exploring each
    //! other's territory.
    //!
    //! Novelty is O(touched edges), not O(map): the per-execution
    //! kernel [`segments::merge_edges_marking`] and the promotion
    //! classifier [`classify_edges`] visit only the bytes an execution
    //! turned non-zero, as listed by `ExecScratch::edges` (a few dozen
    //! of the 64 Ki). A caller holding only a bare raw map lists its
    //! non-zero bytes with [`nonzero_into`] first.
    //!
    //! The whole-map scan [`nonzero_into`] first ORs each
    //! [`SKIP_BLOCK_BYTES`]-byte block and skips the all-zero ones, then
    //! skips all-zero `u64` words inside the rest; the
    //! delta/merge sweeps skip unchanged or all-seen words — the AFL++
    //! `has_new_bits`/`classify_counts` trick. Results are
    //! bit-identical to the byte-at-a-time reference implementations
    //! kept in [`bytewise`] (the compat mode of the `hotpath` bench;
    //! `crates/coverage/tests/bitmap_words.rs` and `bitmap_segments.rs`
    //! hold the equivalence property suites).

    /// Classifies a raw hit count into its AFL bucket.
    pub const fn bucket(count: u8) -> u8 {
        match count {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 4,
            4..=7 => 8,
            8..=15 => 16,
            16..=31 => 32,
            32..=127 => 64,
            _ => 128,
        }
    }

    /// [`bucket`] of every byte value: the lookup the novelty kernel
    /// buckets through.
    const BUCKETS: [u8; 256] = {
        let mut table = [0u8; 256];
        let mut count = 0;
        while count < 256 {
            table[count] = bucket(count as u8);
            count += 1;
        }
        table
    };

    /// Reads an 8-byte chunk as a little-endian word.
    #[inline]
    fn word(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
    }

    /// Bytes per raw-map block the per-exec scans test with one OR and
    /// skip when all-zero.
    pub const SKIP_BLOCK_BYTES: usize = 128;

    /// The [`SKIP_BLOCK_BYTES`]-byte blocks of `raw` holding a non-zero
    /// byte, in map order, with their start offsets (the last block is
    /// shorter when the map length is not a multiple of the block).
    fn nonzero_blocks(raw: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
        raw.chunks(SKIP_BLOCK_BYTES)
            .enumerate()
            .filter(|(_, block)| !block_is_zero(block))
            .map(|(i, block)| (i * SKIP_BLOCK_BYTES, block))
    }

    /// `true` when every byte of `block` is zero. A full block is one
    /// branch-free OR over a fixed-size array, which vectorizes.
    #[inline]
    fn block_is_zero(block: &[u8]) -> bool {
        match <&[u8; SKIP_BLOCK_BYTES]>::try_from(block) {
            Ok(full) => full.iter().fold(0, |acc, &b| acc | b) == 0,
            Err(_) => block.iter().all(|&b| b == 0),
        }
    }

    /// The indices of `raw`'s non-zero bytes, in index order, into a
    /// caller-owned buffer (cleared first): the edge list of a bare raw
    /// map, for callers that have no `ExecScratch::edges`. Skips
    /// all-zero blocks, then all-zero words.
    pub fn nonzero_into(raw: &[u8], out: &mut Vec<u32>) {
        out.clear();
        for (base, block) in nonzero_blocks(raw) {
            let mut chunks = block.chunks_exact(8);
            let mut at = base;
            for chunk in chunks.by_ref() {
                if word(chunk) != 0 {
                    for (k, &b) in chunk.iter().enumerate() {
                        if b != 0 {
                            out.push((at + k) as u32);
                        }
                    }
                }
                at += 8;
            }
            for (k, &b) in chunks.remainder().iter().enumerate() {
                if b != 0 {
                    out.push((at + k) as u32);
                }
            }
        }
    }

    /// Projects a raw hit-count bitmap onto its sparse classified form
    /// restricted to `edges`: `(index, bucket)` pairs in index order.
    /// Equal to [`bytewise::classify`]`(raw)` when `edges` lists each
    /// non-zero byte of `raw` exactly once, in any order (the contract
    /// of `ExecScratch::edges` and [`nonzero_into`]). Corpus promotion
    /// builds an entry's evidence with it, visiting only the touched
    /// bytes.
    pub fn classify_edges(raw: &[u8], edges: &[u32]) -> Vec<(u32, u8)> {
        let mut cov: Vec<(u32, u8)> = edges
            .iter()
            .map(|&e| (e, bucket(raw[e as usize])))
            .collect();
        cov.sort_unstable_by_key(|&(i, _)| i);
        cov
    }

    /// Clears the bucket of hit count `count` from the virgin byte,
    /// bucketing through [`BUCKETS`]; `true` when one of its bits was
    /// still virgin.
    #[inline]
    fn clear_bucket(virgin: &mut u8, count: u8) -> bool {
        let bucketed = BUCKETS[count as usize];
        let fresh = bucketed & *virgin != 0;
        *virgin &= !bucketed;
        fresh
    }

    /// Returns `true` if any bit of the classified map `cov` is still
    /// virgin in `virgin` — i.e. executing this input would teach the
    /// holder of `virgin` something new.
    pub fn is_novel_against(cov: &[(u32, u8)], virgin: &[u8]) -> bool {
        cov.iter()
            .any(|&(i, bits)| virgin.get(i as usize).is_some_and(|&v| bits & v != 0))
    }

    /// Clears every bit of the classified map `cov` from `virgin`.
    /// Returns `true` if at least one bit was still set.
    pub fn merge_classified(virgin: &mut [u8], cov: &[(u32, u8)]) -> bool {
        let mut new_bits = false;
        for &(i, bits) in cov {
            if let Some(v) = virgin.get_mut(i as usize) {
                if bits & *v != 0 {
                    *v &= !bits;
                    new_bits = true;
                }
            }
        }
        new_bits
    }

    /// Merges two virgin maps: after the call, `dst` treats as seen
    /// everything either map had seen (bitwise AND — virgin bits are
    /// set while *unseen*). Unconditionally word-parallel: a branchless
    /// AND sweep vectorizes (no skip test — unlike the scans above,
    /// every word costs one AND either way, so skipping would only add
    /// a data-dependent branch).
    pub fn merge_virgin(dst: &mut [u8], src: &[u8]) {
        let n = dst.len().min(src.len());
        let words = n / 8;
        for (d, s) in dst[..words * 8]
            .chunks_exact_mut(8)
            .zip(src[..words * 8].chunks_exact(8))
        {
            let merged = word(d) & word(s);
            d.copy_from_slice(&merged.to_le_bytes());
        }
        for k in words * 8..n {
            dst[k] &= src[k];
        }
    }

    /// The sparse set of bits seen in `now` but not yet in `then`
    /// (both virgin maps): the coverage delta between two watermarks.
    /// Allocating wrapper around [`cleared_since_into`].
    pub fn cleared_since(then: &[u8], now: &[u8]) -> Vec<(u32, u8)> {
        let mut out = Vec::new();
        cleared_since_into(then, now, &mut out);
        out
    }

    /// [`cleared_since`] into a caller-owned buffer (cleared first),
    /// for callers holding a long-lived scratch; the sync path's delta
    /// owns its result and reaches the same word loop through the
    /// allocating wrapper. Skips words where nothing was virgin or
    /// nothing moved.
    pub fn cleared_since_into(then: &[u8], now: &[u8], out: &mut Vec<(u32, u8)>) {
        out.clear();
        let n = then.len().min(now.len());
        let words = n / 8;
        for w in 0..words {
            let i = w * 8;
            let t = word(&then[i..i + 8]);
            if t == 0 || t == word(&now[i..i + 8]) {
                continue;
            }
            for k in i..i + 8 {
                let cleared = then[k] & !now[k];
                if cleared != 0 {
                    out.push((k as u32, cleared));
                }
            }
        }
        for k in words * 8..n {
            let cleared = then[k] & !now[k];
            if cleared != 0 {
                out.push((k as u32, cleared));
            }
        }
    }

    /// Applies a sparse cleared-bits delta to a virgin map.
    pub fn apply_cleared(virgin: &mut [u8], cleared: &[(u32, u8)]) {
        for &(i, bits) in cleared {
            if let Some(v) = virgin.get_mut(i as usize) {
                *v &= !bits;
            }
        }
    }

    pub mod segments {
        //! Sharded virgin-map algebra for the async sync path.
        //!
        //! The map is cut into fixed [`SEGMENT_BYTES`]-byte segments —
        //! 64 of them for the 64 KiB AFL map, so the set of *dirty*
        //! segments (touched since the last delta) fits one `u64` mask.
        //! `Corpus::observe` marks segments as it clears virgin bits;
        //! the delta/merge sweeps then visit only masked segments and
        //! skip the untouched ones wholesale, on top of the word-level
        //! skips inside each segment. A map longer than 64 segments
        //! saturates into the last mask bit (bit 63 covers the tail),
        //! which only costs precision, never correctness.
        //!
        //! `crates/coverage/tests/bitmap_segments.rs` holds the
        //! property suite pinning every masked sweep bit-identical to
        //! its whole-map counterpart.

        /// Bytes per virgin-map segment: 64 KiB / 64 mask bits.
        pub const SEGMENT_BYTES: usize = 1024;

        /// Number of segments covering a `len`-byte map (at least 1 for
        /// a non-empty map, capped at the 64 mask bits).
        pub fn segment_count(len: usize) -> usize {
            len.div_ceil(SEGMENT_BYTES).clamp(usize::from(len > 0), 64)
        }

        /// Byte range of segment `seg` within a `len`-byte map. The
        /// last segment absorbs any tail (remainder bytes and, on
        /// oversized maps, everything past the 64th segment).
        pub fn segment_range(seg: usize, len: usize) -> core::ops::Range<usize> {
            let start = (seg * SEGMENT_BYTES).min(len);
            let end = if seg + 1 >= segment_count(len) {
                len
            } else {
                ((seg + 1) * SEGMENT_BYTES).min(len)
            };
            start..end
        }

        /// The mask bit covering byte index `i`.
        fn segment_of_byte(i: usize) -> u64 {
            1u64 << (i / SEGMENT_BYTES).min(63)
        }

        /// The per-execution novelty kernel of `Corpus::observe`:
        /// buckets the raw count of every listed byte of `raw`, clears
        /// the newly seen bucket bits from `virgin`, and marks every
        /// segment it cleared a bit in. Returns `true` when at least
        /// one bit was still virgin; `dirty` only ever gains bits.
        ///
        /// `edges` indexes `raw`; when it lists each non-zero byte of
        /// `raw` (in any order — `ExecScratch::edges` or
        /// [`super::nonzero_into`]), the result is bit-identical to the
        /// whole-map merge [`super::bytewise::merge_raw`], at the cost
        /// of the listed bytes only. Indices past `virgin` are skipped,
        /// as the whole-map merge stops at the shorter map.
        pub fn merge_edges_marking(
            virgin: &mut [u8],
            raw: &[u8],
            edges: &[u32],
            dirty: &mut u64,
        ) -> bool {
            let mut new_bits = false;
            for &edge in edges {
                let k = edge as usize;
                if let Some(v) = virgin.get_mut(k) {
                    if super::clear_bucket(v, raw[k]) {
                        *dirty |= segment_of_byte(k);
                        new_bits = true;
                    }
                }
            }
            new_bits
        }

        /// [`super::cleared_since_into`] restricted to the segments in
        /// `dirty` — bit-identical output when `dirty` covers every
        /// segment that moved (which the marking merge guarantees).
        /// Returns the number of bytes actually scanned, the async
        /// path's `words_scanned` cost signal (in bytes, folded to
        /// words by the caller).
        pub fn cleared_since_segments(
            then: &[u8],
            now: &[u8],
            dirty: u64,
            out: &mut Vec<(u32, u8)>,
        ) -> u64 {
            out.clear();
            let n = then.len().min(now.len());
            let mut scanned = 0u64;
            for seg in 0..segment_count(n) {
                if dirty & (1u64 << seg.min(63)) == 0 {
                    continue;
                }
                let range = segment_range(seg, n);
                scanned += range.len() as u64;
                append_cleared(&then[range.clone()], &now[range.clone()], range.start, out);
            }
            scanned
        }

        /// The [`super::cleared_since_into`] word loop over one
        /// segment, emitting indices rebased by `base`.
        fn append_cleared(then: &[u8], now: &[u8], base: usize, out: &mut Vec<(u32, u8)>) {
            let n = then.len();
            let words = n / 8;
            for w in 0..words {
                let i = w * 8;
                let t = super::word(&then[i..i + 8]);
                if t == 0 || t == super::word(&now[i..i + 8]) {
                    continue;
                }
                for k in i..i + 8 {
                    let cleared = then[k] & !now[k];
                    if cleared != 0 {
                        out.push(((base + k) as u32, cleared));
                    }
                }
            }
            for k in words * 8..n {
                let cleared = then[k] & !now[k];
                if cleared != 0 {
                    out.push(((base + k) as u32, cleared));
                }
            }
        }

        /// [`super::merge_virgin`] restricted to the segments in
        /// `dirty`; untouched segments of `dst` keep their bytes.
        /// Returns the number of bytes swept.
        pub fn merge_virgin_segments(dst: &mut [u8], src: &[u8], dirty: u64) -> u64 {
            let n = dst.len().min(src.len());
            let mut scanned = 0u64;
            for seg in 0..segment_count(n) {
                if dirty & (1u64 << seg.min(63)) == 0 {
                    continue;
                }
                let range = segment_range(seg, n);
                scanned += range.len() as u64;
                super::merge_virgin(&mut dst[range.clone()], &src[range]);
            }
            scanned
        }

        /// Copies the segments in `dirty` from `src` into `dst` — the
        /// watermark snapshot after a delta, touching only the bytes
        /// the delta could have moved.
        pub fn copy_segments(dst: &mut [u8], src: &[u8], dirty: u64) {
            let n = dst.len().min(src.len());
            for seg in 0..segment_count(n) {
                if dirty & (1u64 << seg.min(63)) == 0 {
                    continue;
                }
                let range = segment_range(seg, n);
                dst[range.clone()].copy_from_slice(&src[range]);
            }
        }

        /// The segment mask touched by a sparse cleared-bits delta —
        /// how a receiver learns which of its segments an inbound
        /// [`super::apply_cleared`] moved.
        pub fn segments_of(cleared: &[(u32, u8)]) -> u64 {
            cleared
                .iter()
                .fold(0u64, |m, &(i, _)| m | segment_of_byte(i as usize))
        }
    }

    pub mod bytewise {
        //! Byte-at-a-time reference implementations of the word-level
        //! operations above — the semantics oracle.
        //!
        //! These are the original (pre-word-engine) loops, kept
        //! callable forever: the `bitmap_words` and `bitmap_segments`
        //! property suites assert the product forms bit-identical to
        //! them, and the `hotpath` bench's compat mode measures them as
        //! the "before" in its speedup ratio. Not for production call
        //! sites.

        use super::bucket;

        /// Projects a raw hit-count bitmap onto its sparse classified
        /// form: `(index, bucket)` pairs for every non-zero byte, in
        /// index order — the reference [`super::classify_edges`] is
        /// held to.
        pub fn classify(raw: &[u8]) -> Vec<(u32, u8)> {
            raw.iter()
                .enumerate()
                .filter(|(_, &b)| b != 0)
                .map(|(i, &b)| (i as u32, bucket(b)))
                .collect()
        }

        /// Byte-wise whole-map novelty merge (the original
        /// `Corpus::observe` scan): the reference
        /// [`super::segments::merge_edges_marking`] is held to.
        pub fn merge_raw(virgin: &mut [u8], raw: &[u8]) -> bool {
            let mut new_bits = false;
            let n = virgin.len().min(raw.len());
            for (v, &b) in virgin[..n].iter_mut().zip(raw) {
                let bucketed = bucket(b);
                if bucketed & *v != 0 {
                    *v &= !bucketed;
                    new_bits = true;
                }
            }
            new_bits
        }

        /// Byte-wise [`super::merge_virgin`].
        pub fn merge_virgin(dst: &mut [u8], src: &[u8]) {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d &= s;
            }
        }

        /// Byte-wise [`super::cleared_since`].
        pub fn cleared_since(then: &[u8], now: &[u8]) -> Vec<(u32, u8)> {
            then.iter()
                .zip(now)
                .enumerate()
                .filter_map(|(i, (&t, &n))| {
                    let cleared = t & !n;
                    (cleared != 0).then_some((i as u32, cleared))
                })
                .collect()
        }
    }
}

/// A set of covered source lines in the global line index space.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LineSet {
    bits: Vec<u64>,
}

impl LineSet {
    /// Creates an empty set sized for `map`.
    pub fn for_map(map: &CovMap) -> Self {
        LineSet {
            bits: vec![0; (map.total_lines() as usize).div_ceil(64)],
        }
    }

    fn grow(&mut self, line: u32) {
        let word = line as usize / 64;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
    }

    /// Marks every line of `block` covered, a whole word of lines per
    /// store.
    pub fn add_block(&mut self, block: &BlockDef) {
        if block.line_count == 0 {
            return;
        }
        let (start, last) = (block.line_start, block.line_start + block.line_count - 1);
        self.grow(last);
        let (first_word, last_word) = (start as usize / 64, last as usize / 64);
        // Bits `start % 64..` of the first word, `..=last % 64` of the last.
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - last % 64);
        if first_word == last_word {
            self.bits[first_word] |= head & tail;
        } else {
            self.bits[first_word] |= head;
            self.bits[first_word + 1..last_word].fill(u64::MAX);
            self.bits[last_word] |= tail;
        }
    }

    /// Adds every block of an execution trace.
    pub fn add_trace(&mut self, map: &CovMap, trace: &ExecTrace) {
        for id in trace.unique_blocks() {
            self.add_block(map.block(id));
        }
    }

    /// Clears every bit in place, keeping the allocation — the scratch
    /// reuse path ([`ExecScratch`]) calls this once per execution.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Returns `true` if `line` is covered.
    pub fn contains(&self, line: u32) -> bool {
        self.bits
            .get(line as usize / 64)
            .is_some_and(|w| w & (1 << (line % 64)) != 0)
    }

    /// Number of covered lines.
    pub fn count(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of covered lines belonging to `file`.
    pub fn count_in(&self, map: &CovMap, file: FileId) -> u32 {
        map.blocks()
            .filter(|b| b.file == file)
            .map(|b| {
                (b.line_start..b.line_start + b.line_count)
                    .filter(|&l| self.contains(l))
                    .count() as u32
            })
            .sum()
    }

    /// Union (`A ∪ B`), in place.
    pub fn union_with(&mut self, other: &LineSet) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (i, w) in other.bits.iter().enumerate() {
            self.bits[i] |= w;
        }
    }

    /// Intersection (`A ∩ B`), the Table 2 `A∩B` rows.
    pub fn intersect(&self, other: &LineSet) -> LineSet {
        let n = self.bits.len().min(other.bits.len());
        LineSet {
            bits: (0..n).map(|i| self.bits[i] & other.bits[i]).collect(),
        }
    }

    /// Difference (`A − B`), the Table 2 `A-B` rows.
    pub fn minus(&self, other: &LineSet) -> LineSet {
        LineSet {
            bits: self
                .bits
                .iter()
                .enumerate()
                .map(|(i, w)| w & !other.bits.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }

    /// `self.minus(other).count()` without materializing the
    /// difference set — corpus minimization calls this once per
    /// (round × entry) pair, where the allocation would dominate.
    pub fn minus_count(&self, other: &LineSet) -> u32 {
        self.bits
            .iter()
            .enumerate()
            .map(|(i, w)| (w & !other.bits.get(i).copied().unwrap_or(0)).count_ones())
            .sum()
    }

    /// The raw 64-line words backing the set (for serialization).
    pub fn as_words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a set from raw words produced by [`LineSet::as_words`].
    /// The round-trip is bit-identical.
    pub fn from_words(bits: Vec<u64>) -> Self {
        LineSet { bits }
    }

    /// Coverage fraction over the lines of `file` (0.0..=1.0).
    pub fn fraction_of(&self, map: &CovMap, file: FileId) -> f64 {
        let total = map.file_lines(file);
        if total == 0 {
            return 0.0;
        }
        self.count_in(map, file) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_map() -> (CovMap, FileId, Vec<BlockId>) {
        let mut map = CovMap::new();
        let f = map.add_file("vmx/nested.c");
        let ids = vec![
            map.add_block(f, 10, "check_a"),
            map.add_block(f, 5, "check_b"),
            map.add_block(f, 20, "commit"),
        ];
        (map, f, ids)
    }

    #[test]
    fn line_geometry() {
        let (map, f, _) = small_map();
        assert_eq!(map.total_lines(), 35);
        assert_eq!(map.file_lines(f), 35);
        assert_eq!(map.block(BlockId(1)).line_start, 10);
        assert_eq!(map.block_count(), 3);
    }

    #[test]
    fn trace_to_lineset() {
        let (map, f, ids) = small_map();
        let mut trace = ExecTrace::new();
        trace.hit(ids[0]);
        trace.hit(ids[0]); // repeat hits count once for lines
        trace.hit(ids[2]);
        let mut set = LineSet::for_map(&map);
        set.add_trace(&map, &trace);
        assert_eq!(set.count(), 30);
        assert_eq!(set.count_in(&map, f), 30);
        assert!((set.fraction_of(&map, f) - 30.0 / 35.0).abs() < 1e-12);
    }

    #[test]
    fn set_algebra() {
        let (map, _, ids) = small_map();
        let mut a = LineSet::for_map(&map);
        a.add_block(map.block(ids[0]));
        a.add_block(map.block(ids[1]));
        let mut b = LineSet::for_map(&map);
        b.add_block(map.block(ids[1]));
        b.add_block(map.block(ids[2]));

        assert_eq!(a.intersect(&b).count(), 5);
        assert_eq!(a.minus(&b).count(), 10);
        assert_eq!(b.minus(&a).count(), 20);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 35);
    }

    #[test]
    fn multi_file_restriction() {
        let mut map = CovMap::new();
        let intel = map.add_file("vmx/nested.c");
        let amd = map.add_file("svm/nested.c");
        let bi = map.add_block(intel, 7, "intel_blk");
        let ba = map.add_block(amd, 3, "amd_blk");
        let mut set = LineSet::for_map(&map);
        set.add_block(map.block(bi));
        set.add_block(map.block(ba));
        assert_eq!(set.count_in(&map, intel), 7);
        assert_eq!(set.count_in(&map, amd), 3);
        assert_eq!(map.file_name(amd), "svm/nested.c");
    }

    #[test]
    fn afl_bitmap_projection_deterministic_and_order_sensitive() {
        let (_, _, ids) = small_map();
        let mut t1 = ExecTrace::new();
        t1.hit(ids[0]);
        t1.hit(ids[1]);
        let mut t2 = ExecTrace::new();
        t2.hit(ids[1]);
        t2.hit(ids[0]);

        let mut b1 = vec![0u8; 1 << 16];
        let mut b1b = vec![0u8; 1 << 16];
        let mut b2 = vec![0u8; 1 << 16];
        t1.fill_afl_bitmap(&mut b1);
        t1.fill_afl_bitmap(&mut b1b);
        t2.fill_afl_bitmap(&mut b2);
        assert_eq!(b1, b1b, "projection must be deterministic");
        assert_ne!(b1, b2, "edge projection must be order sensitive");
    }

    #[test]
    fn lineset_words_round_trip() {
        let (map, _, ids) = small_map();
        let mut set = LineSet::for_map(&map);
        set.add_block(map.block(ids[1]));
        let rebuilt = LineSet::from_words(set.as_words().to_vec());
        assert_eq!(set, rebuilt);
        assert_eq!(rebuilt.count(), 5);
    }

    /// The product classification of a bare raw map: its non-zero
    /// bytes listed by the block-skipping scan, then classified.
    fn classify(raw: &[u8]) -> Vec<(u32, u8)> {
        let mut edges = Vec::new();
        bitmap::nonzero_into(raw, &mut edges);
        bitmap::classify_edges(raw, &edges)
    }

    #[test]
    fn bitmap_classify_and_novelty() {
        let mut raw = vec![0u8; 64];
        raw[3] = 1;
        raw[10] = 5;
        let cov = classify(&raw);
        assert_eq!(cov, vec![(3, 1), (10, 8)]);
        assert_eq!(cov, bitmap::bytewise::classify(&raw));

        let mut virgin = vec![0xff; 64];
        assert!(bitmap::is_novel_against(&cov, &virgin));
        assert!(bitmap::merge_classified(&mut virgin, &cov));
        assert!(!bitmap::is_novel_against(&cov, &virgin));
        assert!(!bitmap::merge_classified(&mut virgin, &cov));
        // A higher hit bucket on a merged edge is novel again.
        raw[10] = 200;
        assert!(bitmap::is_novel_against(&classify(&raw), &virgin));
    }

    #[test]
    fn bitmap_virgin_merge_and_delta() {
        let mut a = vec![0xffu8; 16];
        let mut b = vec![0xffu8; 16];
        a[0] &= !0x01;
        b[5] &= !0x10;
        let before = a.clone();
        bitmap::merge_virgin(&mut a, &b);
        assert_eq!(a[0], 0xfe, "own bits kept");
        assert_eq!(a[5], 0xef, "sibling bits adopted");

        let cleared = bitmap::cleared_since(&before, &a);
        assert_eq!(cleared, vec![(5, 0x10)]);
        let mut c = vec![0xffu8; 16];
        bitmap::apply_cleared(&mut c, &cleared);
        assert_eq!(c[5], 0xef);
    }

    #[test]
    fn empty_trace_clears() {
        let mut t = ExecTrace::new();
        assert!(t.is_empty());
        t.hit(BlockId(0));
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn dense_trace_index_counts_and_recycles() {
        let mut t = ExecTrace::new();
        t.hit(BlockId(7));
        t.hit(BlockId(2));
        t.hit(BlockId(7));
        assert_eq!(t.hits_of(BlockId(7)), 2);
        assert_eq!(t.hits_of(BlockId(2)), 1);
        assert_eq!(t.hits_of(BlockId(100)), 0);
        let uniq: Vec<BlockId> = t.unique_blocks().collect();
        assert_eq!(uniq, vec![BlockId(7), BlockId(2)], "first-hit order");
        t.clear();
        assert_eq!(t.hits_of(BlockId(7)), 0);
        assert_eq!(t.unique_blocks().count(), 0);
        // Reuse after clear behaves like a fresh trace.
        t.hit(BlockId(2));
        assert_eq!(t.hits_of(BlockId(2)), 1);
        assert_eq!(t.unique_blocks().collect::<Vec<_>>(), vec![BlockId(2)]);
    }

    #[test]
    fn wipe_undoes_fill_exactly() {
        let (map, _, ids) = small_map();
        // Power-of-two and odd sizes exercise both index folds.
        for size in [1usize << 16, 1000] {
            let mut scratch = ExecScratch::new(&map, size);
            for &id in &[ids[0], ids[1], ids[0], ids[2]] {
                scratch.trace.hit(id);
            }
            scratch.project(&map);
            assert!(scratch.bitmap.iter().any(|&b| b != 0));
            scratch.begin_exec();
            assert!(
                scratch.bitmap.iter().all(|&b| b == 0),
                "begin_exec must restore the all-zero map at size {size}"
            );
            assert!(scratch.edges.is_empty());
        }
    }

    #[test]
    fn project_records_exactly_the_nonzero_bitmap_bytes() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let (mut map, f, mut ids) = small_map();
        ids.extend((0..37).map(|_| map.add_block(f, 1, "blk")));
        // One edge hit 300 times (its byte saturates at 255); a walk
        // that revisits the a->b edge; an empty trace; then random
        // walks, some of them saturating a self-edge.
        let mut traces = vec![
            (vec![ids[0]; 300], Some(255)),
            (vec![ids[0], ids[1], ids[0], ids[1], ids[2]], Some(2)),
            (Vec::new(), Some(0)),
        ];
        let mut rng = SmallRng::seed_from_u64(19);
        for _ in 0..24 {
            let walk: Vec<BlockId> = if rng.gen_range(0..4u8) == 0 {
                vec![ids[rng.gen_range(0..ids.len())]; rng.gen_range(256..400usize)]
            } else {
                (0..rng.gen_range(1..200usize))
                    .map(|_| ids[rng.gen_range(0..ids.len())])
                    .collect()
            };
            traces.push((walk, None));
        }
        // Power-of-two and odd sizes; the 64- and 1-byte maps fold many
        // edges onto one byte.
        for size in [1usize << 16, 1000, 64, 1] {
            // One recycled scratch per size: the list must never carry
            // residue from the previous projection.
            let mut scratch = ExecScratch::new(&map, size);
            for (trace, peak) in &traces {
                scratch.begin_exec();
                for &id in trace {
                    scratch.trace.hit(id);
                }
                scratch.project(&map);
                let mut edges = scratch.edges().to_vec();
                edges.sort_unstable();
                let nonzero: Vec<u32> = (0..size as u32)
                    .filter(|&i| scratch.bitmap[i as usize] != 0)
                    .collect();
                assert_eq!(edges, nonzero, "size {size}, {} hits", trace.len());
                // The small maps fold several edges onto one byte, so a
                // walk's peak count holds on the two large ones only.
                if let Some(peak) = peak.filter(|_| size >= 1000) {
                    assert_eq!(scratch.bitmap.iter().max(), Some(&peak));
                }
                // The recorded bytes hold the trace's AFL projection.
                let mut expected = vec![0u8; size];
                scratch.trace.fill_afl_bitmap(&mut expected);
                assert_eq!(scratch.bitmap, expected);
            }
        }
    }

    #[test]
    fn scratch_round_trips_executions_without_residue() {
        let (map, _, ids) = small_map();
        let mut scratch = ExecScratch::new(&map, 1 << 16);
        scratch.begin_exec();
        scratch.trace.hit(ids[0]);
        scratch.trace.hit(ids[2]);
        scratch.project(&map);
        assert_eq!(scratch.lines.count(), 30);
        let first_bitmap = scratch.bitmap.clone();
        assert!(first_bitmap.iter().any(|&b| b != 0));

        // Next exec hits a different block: no residue from the first.
        scratch.begin_exec();
        scratch.trace.hit(ids[1]);
        scratch.project(&map);
        assert_eq!(scratch.lines.count(), 5);
        let mut expected = vec![0u8; 1 << 16];
        let mut fresh = ExecTrace::new();
        fresh.hit(ids[1]);
        fresh.fill_afl_bitmap(&mut expected);
        assert_eq!(scratch.bitmap, expected, "scratch equals a fresh buffer");
    }

    #[test]
    fn add_block_sets_exactly_the_block_lines() {
        // Spans starting anywhere in the first two words and reaching
        // into the first three: inside one word, across one boundary,
        // and over whole words.
        for start in 0..130u32 {
            for count in 1..140u32 {
                let block = BlockDef {
                    id: BlockId(0),
                    file: FileId(0),
                    line_start: start,
                    line_count: count,
                    label: "span",
                };
                let mut set = LineSet::default();
                set.add_block(&block);
                let end = start + count;
                for line in 0..end + 64 {
                    assert_eq!(
                        set.contains(line),
                        (start..end).contains(&line),
                        "{start}+{count}"
                    );
                }
                assert_eq!(set.as_words().len() as u32, (end - 1) / 64 + 1);
            }
        }
    }

    #[test]
    fn lineset_clear_keeps_capacity() {
        let (map, _, ids) = small_map();
        let mut set = LineSet::for_map(&map);
        set.add_block(map.block(ids[2]));
        assert_eq!(set.count(), 20);
        set.clear();
        assert_eq!(set.count(), 0);
        assert_eq!(set, LineSet::for_map(&map), "cleared == freshly sized");
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let mut raw = vec![0u8; 100]; // tail remainder (100 % 8 != 0)
        raw[3] = 1;
        raw[64] = 9;
        raw[99] = 255;
        let mut edges = vec![7];
        bitmap::nonzero_into(&raw, &mut edges);
        assert_eq!(edges, vec![3, 64, 99], "buffer cleared first");

        let mut buf = Vec::new();
        let then = vec![0xffu8; 100];
        let mut now = then.clone();
        now[5] &= !0x11;
        now[99] &= !0x80;
        bitmap::cleared_since_into(&then, &now, &mut buf);
        assert_eq!(buf, bitmap::cleared_since(&then, &now));
        assert_eq!(buf, vec![(5, 0x11), (99, 0x80)]);
    }

    #[test]
    fn merge_raw_matches_bytewise_and_detects_novelty() {
        let mut raw = vec![0u8; 96];
        raw[0] = 1;
        raw[42] = 7;
        raw[95] = 200;
        let mut edges = Vec::new();
        bitmap::nonzero_into(&raw, &mut edges);
        assert_eq!(edges, vec![0, 42, 95]);
        let mut edge_virgin = vec![0xffu8; 96];
        let mut byte_virgin = vec![0xffu8; 96];
        let mut dirty = 0u64;
        let merge = bitmap::segments::merge_edges_marking;
        assert!(merge(&mut edge_virgin, &raw, &edges, &mut dirty));
        assert!(bitmap::bytewise::merge_raw(&mut byte_virgin, &raw));
        assert_eq!(edge_virgin, byte_virgin);
        assert_eq!(dirty, 1, "all three bytes sit in segment 0");
        // Re-merging the same map finds nothing new in either form.
        assert!(!merge(&mut edge_virgin, &raw, &edges, &mut dirty));
        assert!(!bitmap::bytewise::merge_raw(&mut byte_virgin, &raw));
        assert_eq!(edge_virgin, byte_virgin);
        let cov = bitmap::classify_edges(&raw, &[95, 0, 42]);
        assert_eq!(
            cov,
            bitmap::bytewise::classify(&raw),
            "any edge order, index-sorted"
        );
    }
}
