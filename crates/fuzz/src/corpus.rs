//! The corpus: the fuzzer's central data structure, extracted into a
//! first-class subsystem shared across the whole stack.
//!
//! AFL++ runs fleets as one main and many secondary instances that
//! periodically exchange queue entries; the corpus-quality literature
//! (Görz et al.) shows that a shared, minimized, persisted corpus is
//! what keeps long-running harness fleets productive. This module
//! provides the pieces:
//!
//! - [`Corpus`] — queue entries with energy and per-entry provenance,
//!   plus the virgin bitmap (the novelty oracle);
//! - [`CorpusDelta`] — the novel entries and virgin bits cleared since
//!   a sync watermark, the unit workers exchange;
//! - [`SharedCorpus`] — an `Arc<RwLock<_>>` epoch-synced pool with
//!   deterministic worker-id-ordered merges;
//! - [`Corpus::minimize`] — afl-cmin-style greedy weighted set cover
//!   over line coverage;
//! - [`Corpus::save_to`] / [`Corpus::load_from`] — versioned,
//!   dependency-free persistence to a directory layout.
//!
//! Determinism: every operation is a pure function of its inputs —
//! merges iterate staged deltas in worker-id order, adoption scans the
//! pool in publication order — so a synced campaign group produces the
//! same results at any host parallelism.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, RwLock};

use nf_coverage::bitmap::segments;
use nf_coverage::{bitmap, LineSet};

use crate::scenario::{same_affinity, Operator};
use crate::sync::SyncStats;
use crate::{FuzzInput, INPUT_LEN, MAP_SIZE};

/// Where a corpus entry came from: the worker that discovered it, the
/// execution index at which it was promoted, and — for structured
/// mutation — the operator that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// Sync-group worker id of the discovering campaign (plan order).
    pub worker: u32,
    /// Execution index at which the entry produced new coverage.
    pub exec: u64,
    /// The scenario operator that generated the input (`None` for
    /// seeds, havoc children, and unguided/random inputs) — the field
    /// `corpus stat` aggregates into per-operator yield ratios.
    pub op: Option<Operator>,
}

/// One queue entry: an interesting input plus its scheduling state and
/// the coverage that made it interesting.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// The promoted input.
    pub input: FuzzInput,
    /// Number of havoc children per queue cycle.
    pub energy: u32,
    /// Children generated in the current cycle.
    pub fuzzed: u32,
    /// Sparse classified bitmap of the discovering execution — the
    /// novelty evidence other workers test against their own virgin map.
    pub cov: Vec<(u32, u8)>,
    /// Line coverage of the discovering execution (for `minimize`).
    pub lines: LineSet,
    /// Discovery provenance.
    pub provenance: Provenance,
}

/// The sync payload: everything a worker learned since its last
/// watermark — locally discovered entries plus the virgin bits cleared.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusDelta {
    /// The publishing worker (merge order key).
    pub worker: u32,
    /// Entries discovered locally since the watermark.
    pub entries: Vec<CorpusEntry>,
    /// Virgin bits cleared since the watermark (sparse).
    pub cleared: Vec<(u32, u8)>,
}

impl CorpusDelta {
    /// `true` when the delta carries no new information.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.cleared.is_empty()
    }
}

/// The corpus: entries + energy + virgin bitmap + provenance. Owns the
/// state that used to live privately inside `Fuzzer`.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    virgin: Vec<u8>,
    cursor: usize,
    worker: u32,
    /// Entries below this index were already shared (or are seeds).
    synced_entries: usize,
    /// Snapshot of the virgin map at the last watermark.
    synced_virgin: Vec<u8>,
    /// Virgin-map segments this worker's own observations touched
    /// since the watermark ([`segments`] mask). The async delta path
    /// scans only these; inbound foreign knowledge moves `virgin` and
    /// `synced_virgin` in step, so it never needs a mark.
    dirty_segs: u64,
    /// Pool entries already scanned during adoption. Transient: the
    /// index is relative to one live [`SharedCorpus`], so it is reset
    /// by persistence and minimization rather than carried over —
    /// a stale cursor would silently skip a new pool's early entries.
    pool_cursor: usize,
}

/// AFL's queue-culling bounds: past `CULL_AT` entries the oldest
/// `CULL_BY` are dropped.
const CULL_AT: usize = 512;
const CULL_BY: usize = 128;

impl Corpus {
    /// An empty corpus for worker 0 with an all-virgin bitmap.
    pub fn new() -> Self {
        Corpus {
            entries: Vec::new(),
            virgin: vec![0xff; MAP_SIZE],
            cursor: 0,
            worker: 0,
            synced_entries: 0,
            synced_virgin: vec![0xff; MAP_SIZE],
            dirty_segs: 0,
            pool_cursor: 0,
        }
    }

    /// Sets the sync-group worker id (merge ordering key). Seeds and
    /// RNG streams are unaffected.
    pub fn set_worker(&mut self, worker: u32) {
        self.worker = worker;
    }

    /// The sync-group worker id.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Number of queue entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the entries in queue order.
    pub fn entries(&self) -> impl Iterator<Item = &CorpusEntry> {
        self.entries.iter()
    }

    /// The virgin bitmap (1-bits are unseen buckets).
    pub fn virgin(&self) -> &[u8] {
        &self.virgin
    }

    /// Number of bitmap bucket-bits seen so far (cleared virgin bits).
    pub fn seen_bits(&self) -> u64 {
        self.virgin
            .iter()
            .map(|&v| u64::from((!v).count_ones() as u8))
            .sum()
    }

    /// Union of the line coverage attached to all entries.
    pub fn line_union(&self) -> LineSet {
        let mut union = LineSet::default();
        for e in &self.entries {
            union.union_with(&e.lines);
        }
        union
    }

    /// Per-operator provenance census over the queue, in operator
    /// table order with the `None` bucket (seeds, havoc children,
    /// unguided inputs, adopted entries discovered that way) first.
    /// `corpus stat` turns this into queue-yield ratios.
    pub fn operator_census(&self) -> Vec<(Option<Operator>, usize)> {
        let mut untyped = 0usize;
        let mut counts = [0usize; Operator::COUNT];
        for e in &self.entries {
            match e.provenance.op {
                Some(op) => counts[op.index()] += 1,
                None => untyped += 1,
            }
        }
        let mut census = vec![(None, untyped)];
        census.extend(
            Operator::ALL
                .iter()
                .map(|&op| (Some(op), counts[op.index()])),
        );
        census
    }

    /// Seeds the queue with an entry that has no coverage evidence
    /// (used for the initial corpus; seed entries sit below the sync
    /// watermark and are never shared — every worker has its own).
    pub fn push_seed(&mut self, input: FuzzInput) {
        self.entries.push(CorpusEntry {
            input,
            energy: 8,
            fuzzed: 0,
            cov: Vec::new(),
            lines: LineSet::default(),
            provenance: Provenance {
                worker: self.worker,
                exec: 0,
                op: None,
            },
        });
        self.synced_entries = self.entries.len();
    }

    /// Picks the next parent input for mutation and advances the
    /// energy-driven cursor (AFL's queue cycling). Returns `None` on an
    /// empty queue. Allocating wrapper around
    /// [`Corpus::schedule_next_into`].
    pub fn schedule_next(&mut self) -> Option<FuzzInput> {
        let mut parent = FuzzInput::zeroed();
        self.schedule_next_into(&mut parent).then_some(parent)
    }

    /// [`Corpus::schedule_next`] into a caller-owned buffer: copies the
    /// scheduled parent's bytes into `out` (no allocation — every queue
    /// entry is input-length) and advances the cursor. Returns `false`
    /// on an empty queue, leaving `out` untouched.
    pub fn schedule_next_into(&mut self, out: &mut FuzzInput) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        let idx = self.cursor % self.entries.len();
        out.copy_from(&self.entries[idx].input);
        self.entries[idx].fuzzed += 1;
        if self.entries[idx].fuzzed >= self.entries[idx].energy {
            self.entries[idx].fuzzed = 0;
            self.batch_by_affinity(idx);
            self.cursor += 1;
        }
        true
    }

    /// Prefix-affinity batching: when the cursor leaves an entry, pull
    /// the nearest queued entry in its affinity group
    /// ([`same_affinity`]) into the next slot, so consecutive parents
    /// share their early scenario. No cache reads that order; the
    /// batching stays only until a comparison of campaign outcomes
    /// shows whether reordering every guided schedule helps. Membership
    /// is a byte comparison made on the fly (nothing is stored or
    /// persisted), the scan is a small fixed window, and the reorder is
    /// a single swap strictly above the sync watermark — published
    /// entries never move, every entry is still scheduled exactly as
    /// often, and the result is a pure function of the corpus state.
    fn batch_by_affinity(&mut self, idx: usize) {
        const WINDOW: usize = 8;
        let next = idx + 1;
        // Entries at or below the watermark were already shared; moving
        // them would corrupt the next sync delta. Wraparound also keeps
        // the queue untouched: the cycle restart is a natural batch
        // boundary.
        if next >= self.entries.len() || next < self.synced_entries {
            return;
        }
        let kin = |j: usize| same_affinity(&self.entries[idx].input, &self.entries[j].input);
        if kin(next) {
            return;
        }
        let end = (next + 1 + WINDOW).min(self.entries.len());
        if let Some(found) = (next + 1..end).find(|&j| kin(j)) {
            self.entries.swap(next, found);
        }
    }

    /// Borrows the input of entry `idx mod len` (splice donor).
    pub fn donor(&self, idx: usize) -> &FuzzInput {
        &self.entries[idx % self.entries.len()].input
    }

    /// Tests an execution's bitmap against the virgin map, clearing
    /// every newly seen bucket. Returns `true` on novelty. With `queue`
    /// set to `Some((exec, op))`, a novel input is promoted into the
    /// queue with its coverage evidence, the exec index that found it
    /// and the mutation operator (if any) that produced it.
    ///
    /// `edges` lists each non-zero byte of `raw_bitmap` exactly once,
    /// in any order (`ExecScratch::edges`, or
    /// `bitmap::nonzero_into` for a bare map); only those bytes are
    /// visited, never the rest of the 64 KiB.
    pub fn observe(
        &mut self,
        input: &FuzzInput,
        raw_bitmap: &[u8],
        edges: &[u32],
        lines: &LineSet,
        queue: Option<(u64, Option<Operator>)>,
    ) -> bool {
        // The per-execution novelty kernel, marking the touched
        // segments for the sharded async delta scan.
        let new_bits = segments::merge_edges_marking(
            &mut self.virgin,
            raw_bitmap,
            edges,
            &mut self.dirty_segs,
        );
        if let (true, Some((exec, op))) = (new_bits, queue) {
            self.entries.push(CorpusEntry {
                input: input.clone(),
                energy: 8,
                fuzzed: 0,
                // The entry owns its evidence, so the allocation is
                // inherent; it is built from the touched bytes alone.
                cov: bitmap::classify_edges(raw_bitmap, edges),
                lines: lines.clone(),
                provenance: Provenance {
                    worker: self.worker,
                    exec,
                    op,
                },
            });
            // Bound queue growth like AFL's culling.
            if self.entries.len() > CULL_AT {
                self.entries.drain(0..CULL_BY);
                self.cursor = 0;
                self.synced_entries = self.synced_entries.saturating_sub(CULL_BY);
            }
        }
        new_bits
    }

    /// Takes the delta since the last watermark — locally discovered
    /// entries plus the virgin bits cleared — and advances the
    /// watermark. Foreign (adopted) entries are never re-published.
    pub fn take_delta(&mut self) -> CorpusDelta {
        let delta = CorpusDelta {
            worker: self.worker,
            entries: self.entries[self.synced_entries..]
                .iter()
                .filter(|e| e.provenance.worker == self.worker)
                .cloned()
                .collect(),
            cleared: bitmap::cleared_since(&self.synced_virgin, &self.virgin),
        };
        self.synced_entries = self.entries.len();
        self.synced_virgin.copy_from_slice(&self.virgin);
        self.dirty_segs = 0;
        delta
    }

    /// `true` when this worker has observed novelty it has not yet
    /// published — the async publish-on-novelty signal. Foreign
    /// knowledge applied via [`Corpus::apply_delta`] never raises it
    /// (the topology relays the original records instead).
    pub fn has_unpublished(&self) -> bool {
        self.dirty_segs != 0
    }

    /// [`Corpus::take_delta`] for the async path: the cleared-bits
    /// scan and the watermark snapshot sweep only the virgin-map
    /// segments local observations touched, skipping the rest of the
    /// 64 KiB wholesale. Scan costs are recorded into `stats`. The
    /// emitted delta is identical to the whole-map scan's (the marking
    /// merge guarantees the mask covers every moved byte, pinned by
    /// `bitmap_segments` proptests).
    pub fn take_delta_async(&mut self, stats: &mut SyncStats) -> CorpusDelta {
        let mut cleared = Vec::new();
        let scanned = segments::cleared_since_segments(
            &self.synced_virgin,
            &self.virgin,
            self.dirty_segs,
            &mut cleared,
        );
        stats.segments_merged += u64::from(self.dirty_segs.count_ones());
        stats.words_scanned += scanned / 8;
        let delta = CorpusDelta {
            worker: self.worker,
            entries: self.entries[self.synced_entries..]
                .iter()
                .filter(|e| e.provenance.worker == self.worker)
                .cloned()
                .collect(),
            cleared,
        };
        segments::copy_segments(&mut self.synced_virgin, &self.virgin, self.dirty_segs);
        self.synced_entries = self.entries.len();
        self.dirty_segs = 0;
        delta
    }

    /// Merges one inbound async delta: foreign entries still novel to
    /// this worker join the queue with their coverage evidence
    /// (*evidence merge* — no replay; the async loop folds the
    /// entries' line sets into the campaign's accounting instead), and
    /// the delta's cleared bits are applied to `virgin` *and*
    /// `synced_virgin` in step, so adopted knowledge is never
    /// re-published — downstream propagation is the relay's job.
    /// Returns the number of entries adopted.
    pub fn apply_delta(&mut self, delta: &CorpusDelta, stats: &mut SyncStats) -> usize {
        if delta.worker == self.worker {
            return 0; // own echo: the watermark should have caught it
        }
        let mut adopted = 0;
        for entry in &delta.entries {
            if entry.provenance.worker == self.worker {
                continue; // our discovery, relayed back around
            }
            if !bitmap::is_novel_against(&entry.cov, &self.virgin) {
                continue; // already covered locally
            }
            bitmap::merge_classified(&mut self.virgin, &entry.cov);
            bitmap::merge_classified(&mut self.synced_virgin, &entry.cov);
            self.entries.push(CorpusEntry {
                energy: 8,
                fuzzed: 0,
                ..entry.clone()
            });
            adopted += 1;
        }
        bitmap::apply_cleared(&mut self.virgin, &delta.cleared);
        bitmap::apply_cleared(&mut self.synced_virgin, &delta.cleared);
        stats.deltas_applied += 1;
        stats.adoptions += adopted as u64;
        stats.segments_merged += u64::from(segments::segments_of(&delta.cleared).count_ones());
        stats.words_scanned += delta.cleared.len() as u64;
        adopted
    }

    /// Adopts foreign pool entries that are still novel to this worker
    /// and merges the pool's virgin knowledge. Returns the adopted
    /// inputs, in pool order, so the caller can *replay* them — AFL++
    /// secondaries execute synced entries rather than only mutating
    /// them, which is what imports the siblings' coverage into this
    /// worker's own accounting. Deterministic: the pool is scanned in
    /// publication order from this corpus's own cursor.
    fn adopt(&mut self, pool: &PoolState) -> Vec<FuzzInput> {
        let mut adopted = Vec::new();
        for entry in &pool.entries[self.pool_cursor.min(pool.entries.len())..] {
            if entry.provenance.worker == self.worker {
                continue; // our own discovery, already queued locally
            }
            if !bitmap::is_novel_against(&entry.cov, &self.virgin) {
                continue; // a sibling (or we) already covered this
            }
            bitmap::merge_classified(&mut self.virgin, &entry.cov);
            adopted.push(entry.input.clone());
            self.entries.push(CorpusEntry {
                energy: 8,
                fuzzed: 0,
                ..entry.clone()
            });
        }
        self.pool_cursor = pool.entries.len();
        bitmap::merge_virgin(&mut self.virgin, &pool.virgin);
        // Adopted entries and merged bits are shared knowledge already;
        // fold them into the watermark so the next delta stays local.
        self.synced_entries = self.entries.len();
        self.synced_virgin.copy_from_slice(&self.virgin);
        self.dirty_segs = 0;
        adopted
    }

    /// afl-cmin: the smallest entry subset (greedy weighted set cover
    /// over line coverage) whose union covers exactly the same lines.
    ///
    /// Each greedy round picks the entry covering the most still
    ///-uncovered lines, tie-broken by queue position (the earliest
    /// queued entry wins) so minimization is deterministic. The
    /// result never grows the corpus and preserves the exact line
    /// union; scheduling state is reset, the virgin map is kept (the
    /// coverage knowledge is unchanged — only redundant carriers go).
    pub fn minimize(&self) -> Corpus {
        let target = self.line_union();
        let mut covered = LineSet::default();
        let mut picked = vec![false; self.entries.len()];
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (i, e) in self.entries.iter().enumerate() {
                if picked[i] {
                    continue;
                }
                let gain = e.lines.minus_count(&covered);
                if gain > 0 && best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, i));
                }
            }
            match best {
                Some((_, i)) => {
                    picked[i] = true;
                    covered.union_with(&self.entries[i].lines);
                }
                None => break,
            }
            if covered == target {
                break;
            }
        }
        let mut entries: Vec<CorpusEntry> = self
            .entries
            .iter()
            .zip(&picked)
            .filter(|(_, &p)| p)
            .map(|(e, _)| CorpusEntry {
                fuzzed: 0,
                ..e.clone()
            })
            .collect();
        if entries.is_empty() {
            // Keep the queue schedulable: retain the first entry even
            // when no entry carries line evidence (e.g. seed-only).
            if let Some(first) = self.entries.first() {
                entries.push(CorpusEntry {
                    fuzzed: 0,
                    ..first.clone()
                });
            }
        }
        let synced = entries.len();
        Corpus {
            entries,
            virgin: self.virgin.clone(),
            cursor: 0,
            worker: self.worker,
            synced_entries: synced,
            synced_virgin: self.virgin.clone(),
            dirty_segs: 0,
            pool_cursor: 0,
        }
    }

    /// Serializes the corpus to `dir` (created if missing):
    ///
    /// ```text
    /// dir/
    ///   MANIFEST            version, worker, cursors, entry count
    ///   virgin.bin          the virgin bitmap
    ///   synced_virgin.bin   the watermark snapshot
    ///   entries/NNNNNN.bin  one length-prefixed record per entry
    /// ```
    ///
    /// The format is versioned and dependency-free; `load_from`
    /// round-trips bit-identically (the transient pool cursor is not
    /// persisted — a loaded corpus starts fresh against any pool).
    ///
    /// The save is atomic at directory granularity: the whole tree is
    /// staged into a sibling `<dir>.tmp` and swapped into place with
    /// renames, so a crash mid-save (or a concurrent reader) never
    /// observes a torn half-written corpus — `dir` is always either
    /// the previous complete save or the new one.
    pub fn save_to(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        let tmp = sibling(dir, ".tmp");
        let old = sibling(dir, ".old");
        let _ = std::fs::remove_dir_all(&tmp);
        self.write_tree(&tmp)?;
        let _ = std::fs::remove_dir_all(&old);
        if dir.exists() {
            std::fs::rename(dir, &old)?;
        }
        std::fs::rename(&tmp, dir)?;
        let _ = std::fs::remove_dir_all(&old);
        Ok(())
    }

    /// Writes the corpus tree into `dir` directly (no staging) — the
    /// body of [`Corpus::save_to`], always pointed at a fresh temp
    /// directory.
    fn write_tree(&self, dir: &Path) -> io::Result<()> {
        let entries_dir = dir.join("entries");
        std::fs::create_dir_all(&entries_dir)?;
        std::fs::write(
            dir.join("MANIFEST"),
            format!(
                "necofuzz-corpus v{FORMAT_VERSION}\nworker {}\ncursor {}\n\
                 synced_entries {}\ndirty_segs {}\nmap_size {}\nentries {}\n",
                self.worker,
                self.cursor,
                self.synced_entries,
                self.dirty_segs,
                self.virgin.len(),
                self.entries.len()
            ),
        )?;
        std::fs::write(dir.join("virgin.bin"), &self.virgin)?;
        std::fs::write(dir.join("synced_virgin.bin"), &self.synced_virgin)?;
        for (i, entry) in self.entries.iter().enumerate() {
            let file = std::fs::File::create(entries_dir.join(format!("{i:06}.bin")))?;
            let mut w = io::BufWriter::new(file);
            write_entry(&mut w, entry)?;
            // Dropping the writer would flush too, but swallow the error.
            w.flush()?;
        }
        Ok(())
    }

    /// Loads a corpus previously written by [`Corpus::save_to`].
    pub fn load_from(dir: impl AsRef<Path>) -> io::Result<Corpus> {
        let dir = dir.as_ref();
        let manifest = std::fs::read_to_string(dir.join("MANIFEST"))?;
        let mut lines = manifest.lines();
        let header = lines.next().unwrap_or_default();
        // v1 records lack the operator-provenance byte; they load with
        // untyped provenance, so pre-structured corpora stay usable.
        let version = match header {
            "necofuzz-corpus v1" => 1,
            h if h == format!("necofuzz-corpus v{FORMAT_VERSION}") => FORMAT_VERSION,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unsupported corpus format: {header:?}"),
                ))
            }
        };
        let mut fields: BTreeMap<&str, u64> = BTreeMap::new();
        for line in lines {
            if let Some((key, value)) = line.split_once(' ') {
                fields.insert(
                    key,
                    value.parse().map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad manifest line: {line:?}"),
                        )
                    })?,
                );
            }
        }
        let field = |key: &str| {
            fields.get(key).copied().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("manifest misses {key}"))
            })
        };
        let count = field("entries")? as usize;
        let map_size = field("map_size")? as usize;
        if map_size != MAP_SIZE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corpus map_size {map_size} does not match this build's {MAP_SIZE}"),
            ));
        }
        let virgin = std::fs::read(dir.join("virgin.bin"))?;
        let synced_virgin = std::fs::read(dir.join("synced_virgin.bin"))?;
        if virgin.len() != map_size || synced_virgin.len() != map_size {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "virgin bitmap size does not match the manifest",
            ));
        }
        // The count is untrusted until every entry file has loaded:
        // reserve no more than a culled queue holds, so a bogus count
        // fails at its first missing file instead of at allocation.
        let mut entries = Vec::with_capacity(count.min(CULL_AT));
        for i in 0..count {
            let bytes = std::fs::read(dir.join("entries").join(format!("{i:06}.bin")))?;
            entries.push(read_entry(&mut bytes.as_slice(), version)?);
        }
        // Saves from before the sharded async path lack the mask;
        // reconstruct it from the watermark diff so the invariant
        // "the mask covers every moved segment" holds on load too.
        let dirty_segs = match fields.get("dirty_segs") {
            Some(&mask) => mask,
            None => segments::segments_of(&bitmap::cleared_since(&synced_virgin, &virgin)),
        };
        Ok(Corpus {
            entries,
            virgin,
            cursor: field("cursor")? as usize,
            worker: field("worker")? as u32,
            synced_entries: field("synced_entries")? as usize,
            synced_virgin,
            dirty_segs,
            pool_cursor: 0,
        })
    }
}

impl Default for Corpus {
    fn default() -> Self {
        Corpus::new()
    }
}

/// `dir` with `suffix` appended to its final component (`corpus` →
/// `corpus.tmp`) — the staging/backup siblings of the atomic save.
fn sibling(dir: &Path, suffix: &str) -> std::path::PathBuf {
    let mut os = dir.as_os_str().to_os_string();
    os.push(suffix);
    std::path::PathBuf::from(os)
}

/// On-disk format version (bump on layout changes). v2 added the
/// operator-provenance byte to every entry record.
const FORMAT_VERSION: u32 = 2;
/// Per-entry record magic: `b"NFE1"`.
const ENTRY_MAGIC: u32 = 0x4e46_4531;

fn write_entry(w: &mut impl io::Write, entry: &CorpusEntry) -> io::Result<()> {
    w.write_all(&ENTRY_MAGIC.to_le_bytes())?;
    w.write_all(&(entry.input.bytes.len() as u32).to_le_bytes())?;
    w.write_all(&entry.input.bytes)?;
    w.write_all(&entry.energy.to_le_bytes())?;
    w.write_all(&entry.fuzzed.to_le_bytes())?;
    w.write_all(&entry.provenance.worker.to_le_bytes())?;
    w.write_all(&entry.provenance.exec.to_le_bytes())?;
    w.write_all(&[entry.provenance.op.map_or(0, Operator::code)])?;
    w.write_all(&(entry.cov.len() as u32).to_le_bytes())?;
    for &(i, b) in &entry.cov {
        w.write_all(&i.to_le_bytes())?;
        w.write_all(&[b])?;
    }
    let words = entry.lines.as_words();
    w.write_all(&(words.len() as u32).to_le_bytes())?;
    for &word in words {
        w.write_all(&word.to_le_bytes())?;
    }
    Ok(())
}

fn read_entry(r: &mut impl io::Read, version: u32) -> io::Result<CorpusEntry> {
    fn u32_of(r: &mut impl io::Read) -> io::Result<u32> {
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }
    fn u64_of(r: &mut impl io::Read) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }
    if u32_of(r)? != ENTRY_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad corpus entry magic",
        ));
    }
    let input_len = u32_of(r)? as usize;
    // Mutators index up to INPUT_LEN unconditionally, so a short input
    // would panic mid-campaign — reject it at load time instead.
    if input_len != INPUT_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corpus entry input is {input_len} bytes, expected {INPUT_LEN}"),
        ));
    }
    let mut bytes = vec![0u8; input_len];
    r.read_exact(&mut bytes)?;
    let energy = u32_of(r)?;
    let fuzzed = u32_of(r)?;
    let worker = u32_of(r)?;
    let exec = u64_of(r)?;
    let op = if version >= 2 {
        let mut op_code = [0u8; 1];
        r.read_exact(&mut op_code)?;
        match op_code[0] {
            0 => None,
            c => Some(Operator::from_code(c).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown operator code {c} in corpus entry"),
                )
            })?),
        }
    } else {
        None // v1 predates operator provenance
    };
    let cov_len = u32_of(r)? as usize;
    let mut cov = Vec::with_capacity(cov_len.min(MAP_SIZE));
    for _ in 0..cov_len {
        let i = u32_of(r)?;
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        cov.push((i, b[0]));
    }
    let word_len = u32_of(r)? as usize;
    let mut words = Vec::with_capacity(word_len.min(1 << 20));
    for _ in 0..word_len {
        words.push(u64_of(r)?);
    }
    Ok(CorpusEntry {
        input: FuzzInput { bytes },
        energy,
        fuzzed,
        cov,
        lines: LineSet::from_words(words),
        provenance: Provenance { worker, exec, op },
    })
}

/// The merged pool behind a [`SharedCorpus`].
#[derive(Debug, Default)]
struct PoolState {
    /// Pool-novel entries in commit order (epoch, then worker id).
    entries: Vec<CorpusEntry>,
    /// Group-wide virgin map (what *someone* in the group has seen).
    virgin: Vec<u8>,
    /// Deltas published in the current epoch, keyed (= ordered) by
    /// worker id.
    staged: BTreeMap<u32, CorpusDelta>,
    /// Completed sync epochs.
    epoch: u64,
}

/// The cross-worker corpus pool: an epoch-synced shared view.
///
/// Usage per sync boundary: every member [`publish`]es its
/// [`CorpusDelta`], one call to [`commit_epoch`] merges the staged
/// deltas *in worker-id order*, then every member [`adopt_into`]s the
/// pool. All three steps are deterministic, so a group produces the
/// same corpora no matter how its members are scheduled.
///
/// [`publish`]: SharedCorpus::publish
/// [`commit_epoch`]: SharedCorpus::commit_epoch
/// [`adopt_into`]: SharedCorpus::adopt_into
#[derive(Debug, Clone)]
pub struct SharedCorpus {
    inner: Arc<RwLock<PoolState>>,
}

impl Default for SharedCorpus {
    /// Same as [`SharedCorpus::new`]. A derived default would leave the
    /// group virgin map empty, making every published entry look
    /// already-covered — the pool would silently drop everything.
    fn default() -> Self {
        SharedCorpus::new()
    }
}

impl SharedCorpus {
    /// An empty pool with an all-virgin group bitmap.
    pub fn new() -> Self {
        SharedCorpus {
            inner: Arc::new(RwLock::new(PoolState {
                virgin: vec![0xff; MAP_SIZE],
                ..PoolState::default()
            })),
        }
    }

    /// Stages a worker's delta for the current epoch. Re-publishing in
    /// the same epoch replaces the previous stage.
    pub fn publish(&self, delta: CorpusDelta) {
        let mut pool = self.inner.write().expect("corpus pool poisoned");
        pool.staged.insert(delta.worker, delta);
    }

    /// Merges every staged delta in worker-id order and opens the next
    /// epoch. Entries already covered by the pool's virgin map are
    /// dropped (a sibling published the same discovery first); the
    /// survivor order is (epoch, worker id, discovery order) —
    /// deterministic for a fixed publish set.
    pub fn commit_epoch(&self) -> u64 {
        let mut pool = self.inner.write().expect("corpus pool poisoned");
        let staged = std::mem::take(&mut pool.staged);
        for (_, delta) in staged {
            for entry in delta.entries {
                if bitmap::is_novel_against(&entry.cov, &pool.virgin) {
                    bitmap::merge_classified(&mut pool.virgin, &entry.cov);
                    pool.entries.push(entry);
                }
            }
            bitmap::apply_cleared(&mut pool.virgin, &delta.cleared);
        }
        pool.epoch += 1;
        pool.epoch
    }

    /// Merges the pool into `corpus`: foreign entries still novel to
    /// the worker join its queue, and the group-wide virgin knowledge
    /// is folded in so the worker stops re-exploring what siblings
    /// covered. Returns the adopted inputs in pool order — replay them
    /// to import the siblings' coverage (AFL++ secondary semantics).
    pub fn adopt_into(&self, corpus: &mut Corpus) -> Vec<FuzzInput> {
        let pool = self.inner.read().expect("corpus pool poisoned");
        corpus.adopt(&pool)
    }

    /// Completed sync epochs.
    pub fn epoch(&self) -> u64 {
        self.inner.read().expect("corpus pool poisoned").epoch
    }

    /// Entries accumulated in the pool.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("corpus pool poisoned")
            .entries
            .len()
    }

    /// `true` when no entry has been pooled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn lines_over(range: std::ops::Range<u32>) -> LineSet {
        let mut map = nf_coverage::CovMap::new();
        let f = map.add_file("t.c");
        map.add_block(f, 64, "blk");
        let mut set = LineSet::for_map(&map);
        let block = nf_coverage::BlockDef {
            id: nf_coverage::BlockId(0),
            file: f,
            line_start: range.start,
            line_count: range.end - range.start,
            label: "span",
        };
        set.add_block(&block);
        set
    }

    fn entry(worker: u32, exec: u64, edge: u32, lines: std::ops::Range<u32>) -> CorpusEntry {
        CorpusEntry {
            input: FuzzInput::zeroed(),
            energy: 8,
            fuzzed: 0,
            cov: vec![(edge, 1)],
            lines: lines_over(lines),
            provenance: Provenance {
                worker,
                exec,
                op: None,
            },
        }
    }

    fn observed(corpus: &mut Corpus, edge: usize, lines: std::ops::Range<u32>, exec: u64) -> bool {
        let mut bitmap = vec![0u8; MAP_SIZE];
        bitmap[edge] = 1;
        let mut rng = SmallRng::seed_from_u64(exec);
        let input = FuzzInput::random(&mut rng);
        let op = Operator::from_code((exec % 4) as u8);
        let edges = [edge as u32];
        corpus.observe(
            &input,
            &bitmap,
            &edges,
            &lines_over(lines),
            Some((exec, op)),
        )
    }

    #[test]
    fn observe_queues_on_novelty_only() {
        let mut c = Corpus::new();
        assert!(observed(&mut c, 10, 0..4, 1));
        assert_eq!(c.len(), 1);
        assert!(!observed(&mut c, 10, 0..4, 2), "same edge, no novelty");
        assert_eq!(c.len(), 1);
        assert!(observed(&mut c, 11, 4..8, 3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.line_union().count(), 8);
    }

    #[test]
    fn scheduling_batches_queue_neighbors_by_prefix_affinity() {
        use crate::scenario::InputLayout;
        let mut rng = SmallRng::seed_from_u64(11);
        let base = FuzzInput::random(&mut rng);
        // Same early prefix as `base`: only the runtime tail differs.
        let mut kin = base.clone();
        let run = InputLayout::RUNTIME;
        kin.bytes[run.offset + run.len - 1] ^= 0xff;
        // Different init directives, so different affinity groups.
        let mut other_a = base.clone();
        other_a.bytes[InputLayout::INIT.offset] ^= 0x11;
        let mut other_b = base.clone();
        other_b.bytes[InputLayout::INIT.offset] ^= 0x22;
        assert!(same_affinity(&base, &kin));
        assert!(!same_affinity(&base, &other_a));

        let mut c = Corpus::new();
        for (i, input) in [&base, &other_a, &other_b, &kin].into_iter().enumerate() {
            let mut bitmap = vec![0u8; MAP_SIZE];
            bitmap[10 + i] = 1;
            let edges = [10 + i as u32];
            let queue = Some((i as u64, None));
            assert!(c.observe(input, &bitmap, &edges, &lines_over(0..1), queue));
        }
        // Drain the head entry's energy; when the cursor advances, the
        // nearest affinity sibling (queued last) is pulled into the
        // next slot.
        for _ in 0..8 {
            assert_eq!(c.schedule_next().unwrap(), base);
        }
        let order: Vec<&FuzzInput> = c.entries().map(|e| &e.input).collect();
        assert_eq!(order, vec![&base, &kin, &other_b, &other_a]);

        // Published entries never move: past the sync watermark the
        // same drain leaves the queue untouched.
        c.take_delta();
        for _ in 0..8 {
            assert_eq!(c.schedule_next().unwrap(), kin);
        }
        let order: Vec<&FuzzInput> = c.entries().map(|e| &e.input).collect();
        assert_eq!(order, vec![&base, &kin, &other_b, &other_a]);
    }

    #[test]
    fn delta_contains_only_local_news_since_watermark() {
        let mut c = Corpus::new();
        c.push_seed(FuzzInput::zeroed());
        observed(&mut c, 10, 0..4, 1);
        let delta = c.take_delta();
        assert_eq!(delta.entries.len(), 1, "seed entries are not shared");
        assert!(!delta.cleared.is_empty());

        let empty = c.take_delta();
        assert!(empty.is_empty(), "watermark advanced: {empty:?}");
        observed(&mut c, 11, 4..8, 2);
        assert_eq!(c.take_delta().entries.len(), 1);
    }

    #[test]
    fn async_delta_equals_whole_map_delta() {
        let mut a = Corpus::new();
        a.push_seed(FuzzInput::zeroed());
        observed(&mut a, 10, 0..4, 1); // segment 0
        observed(&mut a, 5000, 4..8, 2); // segment 4
        let mut b = a.clone();
        let mut stats = SyncStats::default();
        let sharded = a.take_delta_async(&mut stats);
        let whole = b.take_delta();
        assert_eq!(sharded, whole, "masked scan must equal the whole-map scan");
        assert_eq!(a, b, "watermark state must agree");
        assert_eq!(stats.segments_merged, 2, "only touched segments swept");
        assert!(!a.has_unpublished());
    }

    #[test]
    fn apply_delta_adopts_exactly_once_and_stays_local() {
        let mut src = Corpus::new();
        src.set_worker(1);
        observed(&mut src, 10, 0..4, 1);
        let mut pub_stats = SyncStats::default();
        let delta = src.take_delta_async(&mut pub_stats);

        let mut dst = Corpus::new(); // worker 0
        let mut stats = SyncStats::default();
        assert_eq!(dst.apply_delta(&delta, &mut stats), 1);
        assert_eq!(dst.len(), 1);
        assert!(
            !dst.has_unpublished(),
            "adoption must not trigger publication — relays forward the original"
        );
        assert!(
            dst.take_delta_async(&mut stats).is_empty(),
            "adopted knowledge is never re-published"
        );
        assert_eq!(
            dst.apply_delta(&delta, &mut stats),
            0,
            "re-apply is a no-op"
        );
        assert_eq!(stats.adoptions, 1);
        assert_eq!(stats.deltas_applied, 2);
    }

    #[test]
    fn pool_merges_in_worker_order_and_dedups() {
        let shared = SharedCorpus::new();
        // Worker 2 publishes first, but worker 1's duplicate of edge 5
        // must win the pool slot because merges are worker-id ordered.
        shared.publish(CorpusDelta {
            worker: 2,
            entries: vec![entry(2, 7, 5, 0..4), entry(2, 9, 6, 4..8)],
            cleared: vec![],
        });
        shared.publish(CorpusDelta {
            worker: 1,
            entries: vec![entry(1, 3, 5, 0..4)],
            cleared: vec![],
        });
        shared.commit_epoch();
        assert_eq!(shared.len(), 2, "edge-5 duplicate deduped");

        let mut adopter = Corpus::new();
        adopter.set_worker(3);
        let adopted = shared.adopt_into(&mut adopter);
        assert_eq!(adopted.len(), 2);
        assert_eq!(adopter.entries().next().unwrap().provenance.worker, 1);
        // Re-adoption is a no-op (pool cursor advanced).
        assert!(shared.adopt_into(&mut adopter).is_empty());
        // The adopter's next delta must not re-publish foreign entries.
        assert_eq!(adopter.take_delta().entries.len(), 0);
    }

    #[test]
    fn adoption_skips_own_and_known_coverage() {
        let shared = SharedCorpus::new();
        shared.publish(CorpusDelta {
            worker: 0,
            entries: vec![entry(0, 1, 5, 0..4)],
            cleared: vec![],
        });
        shared.publish(CorpusDelta {
            worker: 1,
            entries: vec![entry(1, 2, 6, 4..8)],
            cleared: vec![],
        });
        shared.commit_epoch();

        let mut own = Corpus::new(); // worker 0: its own entry must not bounce back
        observed(&mut own, 6, 4..8, 9); // and it already knows edge 6
        let adopted = shared.adopt_into(&mut own);
        assert!(adopted.is_empty(), "own entry skipped, known edge skipped");
        // But the group virgin map was folded in: edge 5 is now known.
        assert_eq!(own.virgin()[5] & 1, 0);
    }

    #[test]
    fn default_pool_accepts_entries_like_new() {
        let shared = SharedCorpus::default();
        shared.publish(CorpusDelta {
            worker: 0,
            entries: vec![entry(0, 1, 5, 0..4)],
            cleared: vec![],
        });
        shared.commit_epoch();
        assert_eq!(shared.len(), 1, "default pool must not drop entries");
    }

    #[test]
    fn minimize_preserves_line_union_and_shrinks() {
        let mut c = Corpus::new();
        observed(&mut c, 1, 0..8, 1); // superset carrier
        observed(&mut c, 2, 0..4, 2); // redundant
        observed(&mut c, 3, 4..8, 3); // redundant
        observed(&mut c, 4, 8..12, 4); // unique tail
        let min = c.minimize();
        assert_eq!(min.line_union(), c.line_union());
        assert_eq!(min.len(), 2, "cover = superset + tail");
        assert!(min.virgin() == c.virgin(), "coverage knowledge kept");
    }

    #[test]
    fn minimize_of_seed_only_corpus_keeps_one_entry() {
        let mut c = Corpus::new();
        c.push_seed(FuzzInput::zeroed());
        c.push_seed(FuzzInput::zeroed());
        let min = c.minimize();
        assert_eq!(min.len(), 1);
    }

    #[test]
    fn operator_census_buckets_provenance() {
        let mut c = Corpus::new();
        c.push_seed(FuzzInput::zeroed());
        observed(&mut c, 10, 0..4, 1); // op code 1 = InitArg
        observed(&mut c, 11, 4..8, 2); // op code 2 = InitReorder
        observed(&mut c, 12, 8..12, 4); // 4 % 4 = 0 -> untyped
        let census = c.operator_census();
        assert_eq!(census[0], (None, 2), "seed + untyped entry");
        assert_eq!(census[1], (Some(Operator::InitArg), 1));
        assert_eq!(census[2], (Some(Operator::InitReorder), 1));
        let total: usize = census.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, c.len(), "census must partition the queue");
    }

    #[test]
    fn save_load_round_trips_bit_identically() {
        let dir = std::env::temp_dir().join(format!("nf-corpus-test-{}", std::process::id()));
        let mut c = Corpus::new();
        c.set_worker(4);
        c.push_seed(FuzzInput::zeroed());
        observed(&mut c, 10, 0..4, 1);
        observed(&mut c, 11, 4..8, 2);
        c.take_delta();
        observed(&mut c, 12, 8..12, 3);
        c.schedule_next();

        c.save_to(&dir).expect("save");
        let loaded = Corpus::load_from(&dir).expect("load");
        assert_eq!(c, loaded, "round-trip must be bit-identical");

        // Saving a minimized corpus over the old one drops stale files.
        let min = c.minimize();
        min.save_to(&dir).expect("re-save");
        assert_eq!(Corpus::load_from(&dir).expect("re-load"), min);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn buffered_entry_files_match_unbuffered_writes_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("nf-corpus-buf-{}", std::process::id()));
        let reference = sibling(&dir, ".ref");
        let mut c = Corpus::new();
        c.set_worker(3);
        c.push_seed(FuzzInput::zeroed());
        for k in 0..6 {
            observed(&mut c, 10 + k as usize, k * 4..k * 4 + 4, u64::from(k) + 1);
        }
        c.save_to(&dir).expect("save");

        // The write loop before buffering: one `write` per field on an
        // unbuffered file.
        std::fs::create_dir_all(&reference).expect("reference dir");
        for (i, entry) in c.entries.iter().enumerate() {
            let mut f =
                std::fs::File::create(reference.join(format!("{i:06}.bin"))).expect("create");
            write_entry(&mut f, entry).expect("unbuffered write");
        }

        let saved = std::fs::read_dir(dir.join("entries"))
            .expect("entries")
            .count();
        assert_eq!(saved, c.len(), "one file per entry");
        for i in 0..c.len() {
            let name = format!("{i:06}.bin");
            assert_eq!(
                std::fs::read(dir.join("entries").join(&name)).expect("saved entry"),
                std::fs::read(reference.join(&name)).expect("reference entry"),
                "entry {name}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&reference).ok();
    }

    #[test]
    fn truncated_entry_files_fail_to_load() {
        let dir = std::env::temp_dir().join(format!("nf-corpus-trunc-{}", std::process::id()));
        let mut c = Corpus::new();
        c.push_seed(FuzzInput::zeroed());
        observed(&mut c, 10, 0..4, 1);
        c.save_to(&dir).expect("save");
        let path = dir.join("entries").join("000001.bin");
        let whole = std::fs::read(&path).expect("entry");
        for len in (0..whole.len()).step_by(7).chain([whole.len() - 1]) {
            std::fs::write(&path, &whole[..len]).expect("truncate");
            assert!(
                Corpus::load_from(&dir).is_err(),
                "entry cut to {len} of {} bytes must not load",
                whole.len()
            );
        }
        std::fs::write(&path, &whole).expect("restore");
        assert_eq!(Corpus::load_from(&dir).expect("whole entry loads"), c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_save_never_tears_the_previous_corpus() {
        // Regression: `save_to` used to write into the live directory,
        // so a crash mid-save left a torn mix of old and new records.
        // The atomic staging swap must leave the previous complete
        // save untouched by anything short of the final rename — and
        // clean up the debris on the next save.
        let dir = std::env::temp_dir().join(format!("nf-corpus-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut first = Corpus::new();
        first.set_worker(1);
        first.push_seed(FuzzInput::zeroed());
        observed(&mut first, 10, 0..4, 1);
        first.save_to(&dir).expect("first save");

        // Simulate a host death mid-second-save: the staging tree
        // exists (half-written, even) but the swap never happened.
        let tmp = sibling(&dir, ".tmp");
        std::fs::create_dir_all(tmp.join("entries")).expect("stage");
        std::fs::write(tmp.join("MANIFEST"), "necofuzz-corpus v").expect("torn manifest");
        assert_eq!(
            Corpus::load_from(&dir).expect("old save must load"),
            first,
            "the live directory is still the previous complete save"
        );

        // The next save sweeps the debris and lands atomically.
        let mut second = first.clone();
        observed(&mut second, 11, 4..8, 2);
        second.save_to(&dir).expect("second save");
        assert!(!tmp.exists(), "stale staging debris must be swept");
        assert!(!sibling(&dir, ".old").exists(), "backup must be swept");
        assert_eq!(Corpus::load_from(&dir).expect("reload"), second);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_corpora_load_with_untyped_provenance() {
        // Pre-structured corpora (format v1: no operator byte) must
        // stay loadable — users resume long campaigns from them.
        let dir = std::env::temp_dir().join(format!("nf-corpus-v1-{}", std::process::id()));
        let mut c = Corpus::new();
        c.set_worker(2);
        c.push_seed(FuzzInput::zeroed());
        observed(&mut c, 10, 0..4, 1);
        observed(&mut c, 11, 4..8, 2);
        c.save_to(&dir).expect("save");

        // Rewrite the save as v1: drop each record's op byte (right
        // after the u32 worker + u64 exec provenance) and downgrade
        // the manifest header.
        let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest");
        std::fs::write(
            dir.join("MANIFEST"),
            manifest.replace(
                &format!("necofuzz-corpus v{FORMAT_VERSION}"),
                "necofuzz-corpus v1",
            ),
        )
        .expect("downgrade manifest");
        let op_byte_at = 4 + 4 + INPUT_LEN + 4 + 4 + 4 + 8;
        for i in 0..c.len() {
            let path = dir.join("entries").join(format!("{i:06}.bin"));
            let mut bytes = std::fs::read(&path).expect("entry");
            bytes.remove(op_byte_at);
            std::fs::write(&path, bytes).expect("rewrite entry");
        }

        let loaded = Corpus::load_from(&dir).expect("v1 corpus must load");
        std::fs::remove_dir_all(&dir).ok();
        assert!(loaded.entries().all(|e| e.provenance.op.is_none()));
        let mut expected = c.clone();
        for e in &mut expected.entries {
            e.provenance.op = None;
        }
        assert_eq!(loaded, expected, "v1 load differs only in op provenance");
    }

    #[test]
    fn oversized_manifest_counts_fail_at_the_first_missing_entry() {
        // A MANIFEST count is untrusted: reserving it up front would
        // abort the process (4e9 entries) or overflow the capacity
        // (u64::MAX) before any entry file is read.
        let dir = std::env::temp_dir().join(format!("nf-corpus-count-{}", std::process::id()));
        let mut c = Corpus::new();
        c.push_seed(FuzzInput::zeroed());
        observed(&mut c, 10, 0..4, 1);
        c.save_to(&dir).expect("save");
        let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest");
        for count in ["4000000000", "18446744073709551615"] {
            let tampered = manifest.replace("entries 2\n", &format!("entries {count}\n"));
            assert_ne!(tampered, manifest, "the count line must be rewritten");
            std::fs::write(dir.join("MANIFEST"), tampered).expect("tamper");
            let err = Corpus::load_from(&dir).expect_err("entry 000002.bin does not exist");
            assert_eq!(err.kind(), io::ErrorKind::NotFound, "count {count}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_wrong_version() {
        let dir = std::env::temp_dir().join(format!("nf-corpus-badver-{}", std::process::id()));
        Corpus::new().save_to(&dir).expect("save");
        std::fs::write(
            dir.join("MANIFEST"),
            "necofuzz-corpus v999\nworker 0\ncursor 0\nsynced_entries 0\n\
             pool_cursor 0\nmap_size 65536\nentries 0\n",
        )
        .expect("tamper");
        assert!(Corpus::load_from(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
