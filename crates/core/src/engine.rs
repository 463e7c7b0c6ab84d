//! The persistent-execution engine: the iteration hot path.
//!
//! The paper's whole premise is that a fuzz-harness VM makes each
//! fuzzing iteration cheap by avoiding guest-OS reboots (§3.2, §4.5).
//! The engine realizes that on the simulator side:
//!
//! - **Snapshot restore instead of reboot.** A boot-time
//!   [`HvSnapshot`] is captured once per hypervisor instance; before
//!   every test case the engine *restores* it (delta copy of dirtied
//!   state) instead of re-deriving boot state.
//! - **Booted-image cache.** The vCPU configurator flips the
//!   [`HvConfig`] constantly; instead of re-running the hypervisor
//!   factory on every flip, the engine keeps an LRU-bounded cache of
//!   booted instances keyed by config, and a flip restores a cached
//!   image.
//! - **Memoized validator corrections.** The [`VmStateValidator`] is a
//!   pure function of its [`VmxCapabilities`] plus the corrections
//!   learned from the oracle; when a config flip leaves the
//!   capabilities unchanged (e.g. only the `nested` switch moved), the
//!   engine reuses the validator as-is instead of rebuilding it and
//!   re-cloning its correction history.
//!
//! - **Reusable execution scratch.** The engine owns the
//!   [`ExecScratch`] of the zero-allocation hot path: per iteration the
//!   hypervisor's trace is *swapped* (not cloned) into the scratch,
//!   projected onto the reusable AFL bitmap with a targeted wipe of the
//!   previous projection, and the line set is cleared in place — the
//!   steady-state loop performs no heap allocation (the `hotpath`
//!   bench's counting allocator enforces this).
//!
//! [`EngineMode::Rebuild`] preserves the original full-rebuild
//! semantics for A/B measurement (`necofuzz --engine rebuild`, the
//! `throughput` bench). The two modes are **bit-identical** in
//! observable results — `tests/engine_equivalence.rs` asserts
//! [`crate::campaign::CampaignResult`] equality over the whole
//! backend × mode × mask grid.

use std::collections::BTreeMap;
use std::sync::Arc;

use nf_coverage::{ExecScratch, ExecTrace};
use nf_fuzz::MAP_SIZE;
use nf_hv::store::{Digest128, InternStore, SnapshotStore};
use nf_hv::{FaultPlan, HvConfig, HvSnapshot, L0Hypervisor, RestoreFault, SharedFaults};
use nf_vmx::VmxCapabilities;
use nf_x86::FeatureSet;

use crate::harness::{ExecEvent, ExecPhase};
use crate::validator::VmStateValidator;

/// How the engine turns a config change / iteration boundary into a
/// runnable hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Snapshot-based persistent execution: boot images are cached per
    /// config and restored via [`L0Hypervisor::restore`].
    Snapshot,
    /// The original semantics: re-run the factory on every config
    /// change and re-derive boot state with
    /// [`L0Hypervisor::reset_guest`] each iteration.
    Rebuild,
}

impl EngineMode {
    /// Parses the CLI spelling (`snapshot` / `rebuild`).
    pub fn parse(s: &str) -> Option<EngineMode> {
        match s {
            "snapshot" => Some(EngineMode::Snapshot),
            "rebuild" => Some(EngineMode::Rebuild),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::Snapshot => "snapshot",
            EngineMode::Rebuild => "rebuild",
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Default number of booted images the snapshot cache keeps (beyond
/// the active one). The configurator's sanitized feature space is
/// small; a handful of images covers the vast majority of flips.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

/// Default byte budget of the mid-scenario snapshot trie. Nodes are a
/// few kilobytes each (a [`HvSnapshot`] plus the partial trace and
/// event log), so the default holds a deep working set while still
/// exercising eviction on long campaigns.
pub const DEFAULT_PREFIX_BUDGET: usize = 8 << 20;

/// Default hotness threshold before a scenario boundary is captured
/// into the trie: a prefix must be seen this many times before it pays
/// for a snapshot. `1` captures at every boundary (the exhaustive
/// setting the equivalence tests use).
pub const DEFAULT_PREFIX_THRESHOLD: u32 = 2;

/// Slots in the fixed-size direct-mapped prefix-hotness table (a power
/// of two; collisions replace, so the table never allocates or grows).
const HOT_SLOTS: usize = 4096;

/// Bounded retry budget for a faulted snapshot restore: transient
/// faults clear under retry; a restore still failing after this many
/// attempts is treated as permanent and the image is quarantined.
pub const MAX_RESTORE_RETRIES: u32 = 3;

/// A fault the engine surfaced as a value instead of a panic. The
/// engine's own `prepare` path *services* these (retry, then quarantine
/// and degrade) — the type exists so callers and tests can observe what
/// happened rather than unwinding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A snapshot restore failed past the retry budget; the image was
    /// quarantined and serviced by a factory rebuild.
    RestoreFailed(RestoreFault),
    /// The engine needed a boot image that was missing (snapshot-mode
    /// invariant broken); serviced by a guest reset.
    MissingBootImage,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RestoreFailed(fault) => write!(f, "boot restore failed: {fault}"),
            EngineError::MissingBootImage => write!(f, "snapshot mode lost its boot image"),
        }
    }
}

impl std::error::Error for EngineError {}

/// How the prefix trie stores the state a node captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixStoreMode {
    /// Content-addressed copy-on-write store (the default): heavy
    /// snapshot components, trace blobs, and event-log segments are
    /// interned by content digest and shared across nodes; the byte
    /// budget charges each unique blob once, so the same budget holds
    /// many times more boundaries.
    Cow,
    /// Deep-copied nodes (PR 7 semantics): every node owns its whole
    /// snapshot, trace, and event log, and the budget charges the full
    /// footprint of every node. Kept as the A/B baseline the
    /// `prefix_speedup` bench measures the CoW store against.
    DeepCopy,
}

impl PrefixStoreMode {
    /// Parses the CLI/bench spelling (`cow` / `deep`).
    pub fn parse(s: &str) -> Option<PrefixStoreMode> {
        match s {
            "cow" => Some(PrefixStoreMode::Cow),
            "deep" => Some(PrefixStoreMode::DeepCopy),
            _ => None,
        }
    }

    /// The CLI/bench spelling.
    pub fn name(self) -> &'static str {
        match self {
            PrefixStoreMode::Cow => "cow",
            PrefixStoreMode::DeepCopy => "deep",
        }
    }
}

impl std::fmt::Display for PrefixStoreMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Content digest of an event-log segment (framed per event so
/// adjacent segments cannot alias a merged one).
fn events_digest(events: &[ExecEvent]) -> u128 {
    use std::fmt::Write as _;
    let mut d = Digest128::new();
    let mut buf = String::new();
    for e in events {
        buf.clear();
        write!(buf, "{e:?}").expect("formatting into a String cannot fail");
        d.bytes(buf.as_bytes());
        d.byte(0xff);
    }
    d.value()
}

/// Footprint charged for an event-log segment.
fn events_bytes(events: &[ExecEvent]) -> usize {
    std::mem::size_of_val(events)
}

/// Counters describing how the engine serviced the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Hypervisor instances built through the factory (cold boots).
    pub factory_builds: u64,
    /// Config flips serviced from the booted-image cache.
    pub cache_hits: u64,
    /// Iteration resets serviced by snapshot restore.
    pub snapshot_restores: u64,
    /// Config flips where the validator was reused because the
    /// capabilities were unchanged.
    pub validator_reuses: u64,
    /// Config flips where the validator was rebuilt (new capabilities,
    /// corrections carried over).
    pub validator_rebuilds: u64,
    /// Executions that restored a mid-scenario snapshot from the
    /// prefix trie (deepest cached ancestor).
    pub prefix_hits: u64,
    /// Prefix-cache lookups that found no cached ancestor.
    pub prefix_misses: u64,
    /// Scenario units (init steps + runtime steps) whose re-execution
    /// was skipped by restoring a cached prefix.
    pub prefix_units_skipped: u64,
    /// Mid-scenario snapshots captured into the trie.
    pub prefix_captures: u64,
    /// Trie nodes evicted by the byte-budgeted LRU policy.
    pub prefix_evictions: u64,
    /// Bytes currently resident in the trie (unique blobs charged once
    /// under the CoW store, full per-node footprints under deep copy).
    pub prefix_bytes_resident: u64,
    /// Nodes currently resident in the trie.
    pub prefix_nodes: u64,
    /// Cumulative blob bytes offered to the content-addressed store by
    /// trie captures (zero under the deep-copy store).
    pub prefix_blob_bytes_interned: u64,
    /// The unique subset of [`EngineStats::prefix_blob_bytes_interned`]:
    /// blob bytes that were new to the store when offered.
    pub prefix_blob_bytes_unique: u64,
    /// Deepest prefix (in scenario units) ever restored from the trie.
    pub prefix_max_hit_depth: u64,
    /// Boot restores retried after a transient restore fault.
    pub restore_retries: u64,
    /// Transient restore faults observed (each cleared by a retry).
    pub restore_transient_faults: u64,
    /// Virtual backoff units waited across restore retries (exponential:
    /// 2, 4, 8, ... per successive attempt of one restore).
    pub restore_backoff_units: u64,
    /// Boot images quarantined after an unrecoverable restore fault.
    pub quarantined_images: u64,
    /// Prefix-trie nodes quarantined after their restore faulted.
    pub quarantined_prefix_nodes: u64,
    /// Mid-scenario snapshot captures discarded for a corrupt digest.
    pub captures_corrupted: u64,
    /// Executions serviced in degraded mode: the boot image was
    /// quarantined and the instance rebuilt from the factory.
    pub degraded_mode: u64,
}

impl EngineStats {
    /// Blob-store dedup ratio: bytes offered per byte actually stored.
    /// `1.0` means no structural sharing (every blob was unique — also
    /// the deep-copy store's fixed answer); `2.0` means every blob was
    /// stored once but offered twice.
    pub fn prefix_dedup_ratio(&self) -> f64 {
        if self.prefix_blob_bytes_unique == 0 {
            1.0
        } else {
            self.prefix_blob_bytes_interned as f64 / self.prefix_blob_bytes_unique as f64
        }
    }
}

/// One parked booted image: the instance plus its boot snapshot.
///
/// The snapshot is boxed: [`HvSnapshot`] holds VMCS/VMCB images
/// inline, and cache rotation must move pointers, not kilobytes.
struct CachedImage {
    config: HvConfig,
    hv: Box<dyn L0Hypervisor>,
    boot: Box<HvSnapshot>,
}

/// One parked validator, keyed by the feature set it was derived from.
///
/// A validator is a pure function of its [`VmxCapabilities`] (itself a
/// pure function of the feature set) plus the corrections learned from
/// the oracle. Corrections are append-only and shared across the whole
/// campaign, so `validator.corrections.len()` acts as a staleness
/// stamp: a parked validator whose correction count still matches the
/// active history is *identical* to what a fresh
/// [`VmStateValidator::with_corrections_of`] rebuild would produce,
/// and can be reused as-is.
struct ParkedValidator {
    features: FeatureSet,
    validator: VmStateValidator,
}

/// One interned event-log segment: the observer-visible events between
/// two captured boundaries of one execution. A node's event log is a
/// *chain* of segments — child nodes share every parent segment by
/// handle and add one suffix segment, so a deep prefix's log costs its
/// own suffix, not a fresh copy of the whole history.
#[derive(Clone)]
struct EventSeg {
    digest: u128,
    events: Arc<Vec<ExecEvent>>,
}

/// One mid-scenario checkpoint: the VM state, in-flight trace, and
/// observable event log of a scenario prefix, keyed in the trie by the
/// prefix's rolling hash.
///
/// The key is the whole identity: it covers the hypervisor config, the
/// generated VMCS/VMCB/MSR-area image digests, and every scenario unit
/// up to the boundary (see `Agent`'s chain construction), so a node can
/// only ever be restored into an execution whose prefix is
/// bit-identical to the one that captured it. Config flips and learned
/// validator corrections change the key's root — stale nodes become
/// unreachable and age out through the LRU budget.
struct PrefixNode {
    /// Scenario units (init steps + runtime steps) the prefix covers.
    depth: usize,
    snapshot: Box<HvSnapshot>,
    /// The in-flight coverage trace at the boundary ([`HvSnapshot`]
    /// excludes instrumentation, so it is captured separately).
    trace: Arc<ExecTrace>,
    trace_digest: u128,
    /// The observer-visible events of the prefix as a shared segment
    /// chain, composed in order on restore.
    segments: Vec<EventSeg>,
    /// The phase machine at the boundary (guest liveness, exit count).
    phase: ExecPhase,
    /// Bytes this node's capture charged against the budget (full
    /// footprint under deep copy; newly-resident delta under CoW, where
    /// the refund is recomputed from the store at eviction instead).
    bytes: usize,
    /// LRU stamp (monotone clock; smallest = evict first).
    stamp: u64,
}

impl PrefixNode {
    /// The node's structural overhead outside the blob stores.
    fn overhead_bytes(&self) -> usize {
        std::mem::size_of::<PrefixNode>() + self.segments.len() * std::mem::size_of::<EventSeg>()
    }
}

/// The snapshot trie and its policy state. Logically a trie over
/// scenario prefixes — the chain *is* the tree structure, so nodes
/// never store edges; physically a hash-keyed node map plus a
/// stamp-ordered eviction index, both O(log n) per operation.
struct PrefixCache {
    enabled: bool,
    mode: PrefixStoreMode,
    budget: usize,
    threshold: u32,
    /// Nodes keyed by prefix hash.
    nodes: BTreeMap<u64, PrefixNode>,
    /// Stamp-ordered eviction index (`stamp -> key`). Stamps are unique
    /// (the clock bumps on every touch/insert), so the first entry *is*
    /// the stalest node — eviction pops it in O(log n) instead of the
    /// O(n) stalest-scan this index replaced.
    by_stamp: BTreeMap<u64, u64>,
    /// Total bytes charged against the budget.
    bytes: usize,
    /// Monotone LRU clock (deterministic: bumps on touch/insert only).
    clock: u64,
    /// Direct-mapped `(key, count)` hotness table (fixed size, replace
    /// on collision): a boundary is captured once its prefix has been
    /// seen `threshold` times.
    hot: Vec<(u64, u32)>,
    /// Reusable trace buffer for restores (the hypervisor's cleared
    /// trace is parked here between them).
    spare: ExecTrace,
    /// The current execution's segment chain: the segments covering the
    /// events already captured (or restored) this exec, extended at
    /// each captured boundary. Reset by [`ExecutionEngine::prefix_restore`].
    cur_segments: Vec<EventSeg>,
    /// Events covered by `cur_segments`.
    cur_covered: usize,
    /// Content-addressed snapshot-component store, shared with the
    /// engine's booted-image LRU.
    snapshots: SnapshotStore,
    /// Interned boundary traces.
    traces: InternStore<ExecTrace>,
    /// Interned event-log segments.
    events: InternStore<Vec<ExecEvent>>,
}

impl PrefixCache {
    fn new() -> Self {
        PrefixCache {
            enabled: false,
            mode: PrefixStoreMode::Cow,
            budget: DEFAULT_PREFIX_BUDGET,
            threshold: DEFAULT_PREFIX_THRESHOLD,
            nodes: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
            bytes: 0,
            clock: 0,
            hot: vec![(0, 0); HOT_SLOTS],
            spare: ExecTrace::new(),
            cur_segments: Vec::new(),
            cur_covered: 0,
            snapshots: SnapshotStore::new(),
            traces: InternStore::new(),
            events: InternStore::new(),
        }
    }

    /// Bumps the hotness of `key`; `true` once it crossed the capture
    /// threshold.
    fn note_hot(&mut self, key: u64) -> bool {
        let slot = &mut self.hot[(key as usize) & (HOT_SLOTS - 1)];
        if slot.0 != key {
            *slot = (key, 1);
        } else {
            slot.1 = slot.1.saturating_add(1);
        }
        slot.1 >= self.threshold
    }

    /// Cumulative blob bytes offered across the three stores.
    fn interned_bytes(&self) -> u64 {
        self.snapshots.interned_bytes()
            + self.traces.interned_bytes()
            + self.events.interned_bytes()
    }

    /// Cumulative blob bytes that were new across the three stores.
    fn unique_bytes(&self) -> u64 {
        self.snapshots.unique_bytes() + self.traces.unique_bytes() + self.events.unique_bytes()
    }

    /// Releases an evicted node's blobs from the stores and returns the
    /// bytes to refund against the budget. Under CoW the refund is
    /// whatever the stores actually freed (a shared blob frees nothing
    /// until its last holder goes) plus the node overhead; under deep
    /// copy it is the full footprint the capture charged.
    fn release_node(&mut self, node: PrefixNode) -> usize {
        match self.mode {
            PrefixStoreMode::Cow => {
                let mut freed = self.snapshots.release(&node.snapshot);
                freed += self.traces.release(&node.trace, node.trace_digest);
                for seg in &node.segments {
                    freed += self.events.release(&seg.events, seg.digest);
                }
                freed + node.overhead_bytes()
            }
            PrefixStoreMode::DeepCopy => node.bytes,
        }
    }
}

/// The engine: owns the active hypervisor instance, the booted-image
/// cache, and the (memoized) VM state validator.
pub struct ExecutionEngine {
    factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
    mode: EngineMode,
    hv: Box<dyn L0Hypervisor>,
    /// Boot image of the active instance (`Snapshot` mode only).
    boot: Option<Box<HvSnapshot>>,
    /// Parked booted images, least-recently-used first.
    cache: Vec<CachedImage>,
    capacity: usize,
    validator: VmStateValidator,
    /// Feature set the active validator was derived from (`None` when
    /// the initial capabilities were not derived from the initial
    /// config's features — the memo shortcut then misses once).
    validator_features: Option<FeatureSet>,
    /// Parked validators, least-recently-used first (`Snapshot` mode).
    validator_pool: Vec<ParkedValidator>,
    /// The reusable per-execution buffers (trace, AFL bitmap, lines).
    scratch: ExecScratch,
    /// The mid-scenario snapshot trie (`Snapshot` mode, off by default).
    prefix: PrefixCache,
    /// The shared fault injector, when a plan is installed; handed to
    /// the active instance, every cached image, and every instance the
    /// factory builds later.
    faults: Option<SharedFaults>,
    stats: EngineStats,
}

impl ExecutionEngine {
    /// Boots an engine on `factory` with the given initial config and
    /// validator capabilities.
    pub fn new(
        factory: Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>,
        config: HvConfig,
        validator_caps: VmxCapabilities,
        mode: EngineMode,
    ) -> Self {
        let features = config.features;
        let hv = factory(config);
        let mut prefix = PrefixCache::new();
        let boot = match mode {
            EngineMode::Snapshot => {
                let mut boot = Box::new(hv.snapshot());
                // Boot images share the trie's component store (their
                // blobs dedup against mid-scenario snapshots) but are
                // never charged against the trie's byte budget.
                prefix.snapshots.intern(&mut boot);
                Some(boot)
            }
            EngineMode::Rebuild => None,
        };
        let validator_features = if VmxCapabilities::from_features(features) == validator_caps {
            Some(features)
        } else {
            None
        };
        let scratch = ExecScratch::new(hv.coverage_map(), MAP_SIZE);
        ExecutionEngine {
            factory,
            mode,
            hv,
            boot,
            cache: Vec::new(),
            capacity: DEFAULT_CACHE_CAPACITY,
            validator: VmStateValidator::new(validator_caps),
            validator_features,
            validator_pool: Vec::new(),
            scratch,
            prefix,
            faults: None,
            stats: EngineStats {
                factory_builds: 1,
                ..EngineStats::default()
            },
        }
    }

    /// Bounds both the booted-image cache and the validator pool
    /// (snapshot mode). `0` disables caching entirely — every config
    /// flip becomes a cold boot, and every capability-changing flip a
    /// validator rebuild (only the active-features shortcut survives).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.set_cache_capacity(capacity);
        self
    }

    /// Non-consuming form of
    /// [`with_cache_capacity`](Self::with_cache_capacity).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Installs a deterministic fault plan: builds the shared
    /// [`FaultInjector`](nf_hv::FaultInjector) and hands it to the
    /// active instance, every cached image, and every instance booted
    /// from here on. A zero plan installs an injector that never fires.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Non-consuming form of [`with_fault_plan`](Self::with_fault_plan).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let faults = nf_hv::fault::shared(plan);
        self.hv.install_faults(faults.clone());
        for image in &mut self.cache {
            image.hv.install_faults(faults.clone());
        }
        self.faults = Some(faults);
    }

    /// The shared fault-injector handle, when a plan is installed (the
    /// agent opens each execution on it; campaign summaries read its
    /// fired counters).
    pub fn faults(&self) -> Option<SharedFaults> {
        self.faults.clone()
    }

    /// Enables (or disables) the mid-scenario snapshot trie. Only
    /// effective in `Snapshot` mode — prefix restores are snapshot
    /// restores, and `Rebuild` exists precisely to measure life without
    /// them.
    pub fn with_prefix_cache(mut self, enabled: bool) -> Self {
        self.set_prefix_cache(enabled);
        self
    }

    /// Non-consuming form of [`with_prefix_cache`](Self::with_prefix_cache).
    pub fn set_prefix_cache(&mut self, enabled: bool) {
        self.prefix.enabled = enabled;
    }

    /// Sets the trie's byte budget (LRU-evicted past it). `0` keeps the
    /// trie permanently empty — every capture is immediately evicted.
    pub fn set_prefix_budget(&mut self, bytes: usize) {
        self.prefix.budget = bytes;
    }

    /// Sets the capture hotness threshold (`1` = snapshot at every
    /// scenario boundary).
    pub fn set_prefix_threshold(&mut self, threshold: u32) {
        self.prefix.threshold = threshold.max(1);
    }

    /// Selects the trie's snapshot store ([`PrefixStoreMode::Cow`] by
    /// default; [`PrefixStoreMode::DeepCopy`] is the A/B baseline).
    pub fn with_prefix_store(mut self, mode: PrefixStoreMode) -> Self {
        self.set_prefix_store(mode);
        self
    }

    /// Non-consuming form of [`with_prefix_store`](Self::with_prefix_store).
    /// Switching modes clears the trie (nodes captured under one
    /// accounting scheme cannot be refunded under the other), releasing
    /// every node under the outgoing mode first.
    pub fn set_prefix_store(&mut self, mode: PrefixStoreMode) {
        if self.prefix.mode == mode {
            return;
        }
        while let Some((_, key)) = self.prefix.by_stamp.pop_first() {
            let node = self
                .prefix
                .nodes
                .remove(&key)
                .expect("stamp index tracks nodes");
            let refund = self.prefix.release_node(node);
            self.prefix.bytes = self.prefix.bytes.saturating_sub(refund);
        }
        debug_assert!(self.prefix.nodes.is_empty());
        self.prefix.bytes = 0;
        self.prefix.cur_segments.clear();
        self.prefix.cur_covered = 0;
        self.prefix.mode = mode;
        self.stats.prefix_bytes_resident = 0;
        self.stats.prefix_nodes = 0;
    }

    /// `true` when the prefix trie is active (enabled and in `Snapshot`
    /// mode).
    pub fn prefix_enabled(&self) -> bool {
        self.prefix.enabled && self.mode == EngineMode::Snapshot
    }

    /// Looks up the deepest cached ancestor of a prefix-hash chain and
    /// restores it: VM state from the node's snapshot, the in-flight
    /// trace from the node's recorded partial trace. `chain[k]` must be
    /// the rolling hash after `k` scenario units (`chain[0]` = the
    /// post-boot root, which is never a node — that case is the plain
    /// boot restore [`prepare`](Self::prepare) already performed).
    ///
    /// Returns the restored node's key for
    /// [`prefix_node_events`](Self::prefix_node_events) /
    /// [`prefix_node_phase`](Self::prefix_node_phase) /
    /// [`prefix_node_depth`](Self::prefix_node_depth); the key stays
    /// valid until the node is evicted.
    ///
    /// Also begins the execution's segment-chain bookkeeping: on a hit
    /// the node's event-segment chain becomes the current chain (later
    /// captures extend it with suffix segments), on a miss the chain
    /// starts empty.
    pub fn prefix_restore(&mut self, chain: &[u64]) -> Option<u64> {
        if !self.prefix_enabled() {
            return None;
        }
        self.prefix.cur_segments.clear();
        self.prefix.cur_covered = 0;
        let found = chain
            .iter()
            .skip(1)
            .rev()
            .find(|k| self.prefix.nodes.contains_key(k))
            .copied();
        let Some(key) = found else {
            self.stats.prefix_misses += 1;
            return None;
        };
        let node = self.prefix.nodes.get_mut(&key).expect("just found");
        // Prefix restores share the boot path's retry budget; a node
        // whose restore still faults is quarantined (evicted and
        // released) and the lookup degrades to a miss — the hypervisor
        // is untouched on failure (`try_restore` asks the injector
        // before mutating), so it still holds the boot state `prepare`
        // established and a full replay is safe.
        let mut attempt = 0u32;
        let quarantine = loop {
            match self.hv.try_restore(&node.snapshot) {
                Ok(()) => break false,
                Err(RestoreFault::Transient) if attempt < MAX_RESTORE_RETRIES => {
                    attempt += 1;
                    self.stats.restore_transient_faults += 1;
                    self.stats.restore_retries += 1;
                    self.stats.restore_backoff_units += 1u64 << attempt;
                }
                Err(_) => break true,
            }
        };
        if quarantine {
            let stamp = node.stamp;
            self.prefix.by_stamp.remove(&stamp);
            let node = self.prefix.nodes.remove(&key).expect("just found");
            let refund = self.prefix.release_node(node);
            self.prefix.bytes = self.prefix.bytes.saturating_sub(refund);
            self.stats.quarantined_prefix_nodes += 1;
            self.stats.prefix_bytes_resident = self.prefix.bytes as u64;
            self.stats.prefix_nodes = self.prefix.nodes.len() as u64;
            self.stats.prefix_misses += 1;
            return None;
        }
        let node = self.prefix.nodes.get_mut(&key).expect("just found");
        // The hypervisor's trace is empty at execution start (the last
        // collection swapped a cleared one in); park it as the next
        // spare and hand the prefix's partial trace over.
        self.prefix.spare.copy_from(&node.trace);
        self.hv.swap_trace(&mut self.prefix.spare);
        self.prefix.by_stamp.remove(&node.stamp);
        node.stamp = self.prefix.clock;
        self.prefix.by_stamp.insert(node.stamp, key);
        self.prefix.clock += 1;
        self.prefix.cur_segments = node.segments.clone();
        self.prefix.cur_covered = node.segments.iter().map(|s| s.events.len()).sum();
        self.stats.prefix_hits += 1;
        self.stats.prefix_units_skipped += node.depth as u64;
        self.stats.prefix_max_hit_depth = self.stats.prefix_max_hit_depth.max(node.depth as u64);
        Some(key)
    }

    /// The recorded observer events of a restored node (replay these
    /// into the execution's observer before running the suffix),
    /// composed in order from the node's shared segment chain.
    pub fn prefix_node_events(&self, key: u64) -> impl Iterator<Item = &ExecEvent> + '_ {
        self.prefix.nodes[&key]
            .segments
            .iter()
            .flat_map(|s| s.events.iter())
    }

    /// The phase machine at a restored node's boundary.
    pub fn prefix_node_phase(&self, key: u64) -> ExecPhase {
        self.prefix.nodes[&key].phase
    }

    /// The number of scenario units a restored node covers.
    pub fn prefix_node_depth(&self, key: u64) -> usize {
        self.prefix.nodes[&key].depth
    }

    /// Notes that live execution crossed a scenario boundary whose
    /// prefix hash is `key`: bumps the boundary's hotness and, once hot
    /// and absent from the trie, captures a node under the byte-budgeted
    /// LRU policy.
    ///
    /// Under [`PrefixStoreMode::Cow`] the capture is a delta against
    /// the current chain: snapshot components, the boundary trace, and
    /// the event suffix since the last captured (or restored) boundary
    /// are interned, so the budget is charged only for bytes that were
    /// not already resident. Under [`PrefixStoreMode::DeepCopy`] the
    /// node is self-contained and charged its full footprint.
    ///
    /// Never called for boundaries past a host death — execution stops
    /// there, so the state is not a resumable prefix.
    pub fn prefix_note_boundary(
        &mut self,
        key: u64,
        depth: usize,
        phase: ExecPhase,
        events: &[ExecEvent],
    ) {
        if !self.prefix_enabled() || !self.prefix.note_hot(key) {
            return;
        }
        if self.prefix.cur_covered > events.len() {
            // Direct callers (tests, benches) may present a shorter log
            // than the chain already covers; start the chain over.
            self.prefix.cur_segments.clear();
            self.prefix.cur_covered = 0;
        }
        if self.prefix.nodes.contains_key(&key) {
            return;
        }
        // Injected capture corruption: the snapshot would come back
        // with a bad digest, so discard the capture (perf-only — the
        // boundary is simply not cached this time around).
        if let Some(faults) = &self.faults {
            if faults.borrow_mut().check_capture() {
                self.stats.captures_corrupted += 1;
                return;
            }
        }
        let mut trace = ExecTrace::new();
        trace.copy_from(self.hv.trace());
        let trace_digest = trace.content_digest();
        let trace_bytes = trace.approx_bytes();
        let mut trace = Arc::new(trace);
        let mut snapshot = Box::new(self.hv.snapshot());
        let mut segments = match self.prefix.mode {
            PrefixStoreMode::Cow => {
                // Extend the current chain with this boundary's suffix
                // (skipped when empty — the chain already covers it).
                let suffix = &events[self.prefix.cur_covered..];
                let mut segs = self.prefix.cur_segments.clone();
                if !suffix.is_empty() {
                    segs.push(EventSeg {
                        digest: events_digest(suffix),
                        events: Arc::new(suffix.to_vec()),
                    });
                }
                segs
            }
            PrefixStoreMode::DeepCopy => {
                // Self-contained single segment holding the full log.
                if events.is_empty() {
                    Vec::new()
                } else {
                    vec![EventSeg {
                        digest: events_digest(events),
                        events: Arc::new(events.to_vec()),
                    }]
                }
            }
        };
        let charged = match self.prefix.mode {
            PrefixStoreMode::Cow => {
                let mut new = self.prefix.snapshots.intern(&mut snapshot);
                new += self
                    .prefix
                    .traces
                    .intern(&mut trace, trace_digest, trace_bytes);
                for seg in &mut segments {
                    let seg_bytes = events_bytes(&seg.events);
                    new += self
                        .prefix
                        .events
                        .intern(&mut seg.events, seg.digest, seg_bytes);
                }
                new
            }
            PrefixStoreMode::DeepCopy => {
                std::mem::size_of::<HvSnapshot>()
                    + snapshot.heap_bytes()
                    + trace_bytes
                    + segments
                        .iter()
                        .map(|s| events_bytes(&s.events))
                        .sum::<usize>()
            }
        };
        let stamp = self.prefix.clock;
        self.prefix.clock += 1;
        let node = PrefixNode {
            depth,
            snapshot,
            trace,
            trace_digest,
            segments,
            phase,
            bytes: 0,
            stamp,
        };
        let bytes = node.overhead_bytes() + charged;
        self.prefix.cur_segments = node.segments.clone();
        self.prefix.cur_covered = events.len();
        self.prefix.by_stamp.insert(stamp, key);
        self.prefix.nodes.insert(key, PrefixNode { bytes, ..node });
        self.prefix.bytes += bytes;
        self.stats.prefix_captures += 1;
        // Byte-budgeted LRU: evict stalest-stamp nodes until the trie
        // fits (possibly including the one just captured when the
        // budget is smaller than a single node). The stamp index makes
        // each eviction O(log n): its first entry is the stalest node.
        while self.prefix.bytes > self.prefix.budget {
            let Some((_, stale_key)) = self.prefix.by_stamp.pop_first() else {
                break;
            };
            let evicted = self
                .prefix
                .nodes
                .remove(&stale_key)
                .expect("stamp index tracks nodes");
            let refund = self.prefix.release_node(evicted);
            self.prefix.bytes = self.prefix.bytes.saturating_sub(refund);
            self.stats.prefix_evictions += 1;
        }
        if self.prefix.nodes.is_empty() {
            // Self-heal any shared-blob accounting drift once the trie
            // is empty (an empty trie charges nothing by definition).
            self.prefix.bytes = 0;
        }
        self.stats.prefix_bytes_resident = self.prefix.bytes as u64;
        self.stats.prefix_nodes = self.prefix.nodes.len() as u64;
        self.stats.prefix_blob_bytes_interned = self.prefix.interned_bytes();
        self.stats.prefix_blob_bytes_unique = self.prefix.unique_bytes();
    }

    /// The engine's mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Hot-path counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The active hypervisor instance.
    pub fn hv(&self) -> &dyn L0Hypervisor {
        self.hv.as_ref()
    }

    /// Mutable access to the active instance (the harness drives it).
    pub fn hv_mut(&mut self) -> &mut dyn L0Hypervisor {
        self.hv.as_mut()
    }

    /// The validator (exposes the oracle-correction state).
    pub fn validator(&self) -> &VmStateValidator {
        &self.validator
    }

    /// Mutable validator access (the generation pipeline learns).
    pub fn validator_mut(&mut self) -> &mut VmStateValidator {
        &mut self.validator
    }

    /// The per-execution scratch buffers. After
    /// [`ExecutionEngine::collect_coverage`], `scratch.bitmap`,
    /// `scratch.lines`, and `scratch.trace` describe the latest
    /// execution; they stay valid until the next collection.
    pub fn scratch(&self) -> &ExecScratch {
        &self.scratch
    }

    /// Mutable scratch access (benches and tests that drive the
    /// collection protocol by hand).
    pub fn scratch_mut(&mut self) -> &mut ExecScratch {
        &mut self.scratch
    }

    /// Collects the just-finished execution's coverage into the
    /// reusable scratch, allocation-free: zeroes the bitmap bytes the
    /// previous exec's projection recorded, swaps the hypervisor's
    /// trace out (handing the cleared one back in), and projects it
    /// onto the scratch bitmap and line set.
    pub fn collect_coverage(&mut self) {
        self.scratch.begin_exec();
        self.hv.swap_trace(&mut self.scratch.trace);
        self.scratch.project(self.hv.coverage_map());
    }

    /// Drops the just-finished execution's trace without projecting
    /// it — for executions whose coverage nobody reads. The trace is
    /// swapped out and cleared, and the hypervisor gets an empty one
    /// back, as after [`collect_coverage`](Self::collect_coverage). The
    /// scratch bitmap and line set keep the last collected execution;
    /// the scratch trace is left empty.
    pub fn discard_trace(&mut self) {
        self.scratch.trace.clear();
        self.hv.swap_trace(&mut self.scratch.trace);
        self.scratch.trace.clear();
    }

    /// Watchdog slow path: fully reboots the active host, clearing its
    /// health state. Deliberately *not* snapshot-based — a dead host
    /// models a real machine power-cycle (§3.2).
    pub fn reboot(&mut self) {
        self.hv.reboot_host();
    }

    /// Iteration fast path: makes the active instance run `config` in
    /// freshly-booted guest state.
    ///
    /// In `Rebuild` mode this is the original agent behavior: a config
    /// change re-runs the factory and the validator rebuild, and every
    /// call re-derives boot state via `reset_guest`. In `Snapshot` mode
    /// a config change swaps in a cached booted image (cold-booting
    /// only on a cache miss) and every call restores the boot snapshot.
    pub fn prepare(&mut self, config: &HvConfig) {
        if self.hv.config() != config {
            self.switch_config(config);
        } else {
            self.reset();
        }
    }

    /// Resets guest state without a config change.
    fn reset(&mut self) {
        match self.mode {
            EngineMode::Rebuild => self.hv.reset_guest(),
            EngineMode::Snapshot => {
                if let Err(error) = self.restore_boot() {
                    self.service_restore_failure(error);
                }
            }
        }
    }

    /// Restores the boot image with bounded retry: transient restore
    /// faults re-roll under retry (with exponential virtual backoff,
    /// counted in [`EngineStats::restore_backoff_units`]); a permanent
    /// fault — or a transient one outlasting [`MAX_RESTORE_RETRIES`] —
    /// surfaces as a value for
    /// [`service_restore_failure`](Self::service_restore_failure) to
    /// degrade on.
    fn restore_boot(&mut self) -> Result<(), EngineError> {
        let mut attempt = 0u32;
        loop {
            let Some(boot) = self.boot.as_ref() else {
                return Err(EngineError::MissingBootImage);
            };
            match self.hv.try_restore(boot) {
                Ok(()) => {
                    self.stats.snapshot_restores += 1;
                    return Ok(());
                }
                Err(RestoreFault::Transient) if attempt < MAX_RESTORE_RETRIES => {
                    attempt += 1;
                    self.stats.restore_transient_faults += 1;
                    self.stats.restore_retries += 1;
                    self.stats.restore_backoff_units += 1u64 << attempt;
                }
                Err(fault) => return Err(EngineError::RestoreFailed(fault)),
            }
        }
    }

    /// Graceful degradation after [`restore_boot`](Self::restore_boot)
    /// gave up: quarantine the poisoned boot image, rebuild the
    /// instance from the factory (re-entering snapshot servicing with a
    /// fresh boot capture), and count the degraded execution. A missing
    /// boot image (broken invariant, not a fault) degrades to a plain
    /// guest reset instead of panicking.
    fn service_restore_failure(&mut self, error: EngineError) {
        self.stats.degraded_mode += 1;
        match error {
            EngineError::MissingBootImage => self.hv.reset_guest(),
            EngineError::RestoreFailed(_) => {
                if let Some(poisoned) = self.boot.take() {
                    self.prefix.snapshots.release(&poisoned);
                    self.stats.quarantined_images += 1;
                }
                let config = self.hv.config().clone();
                self.hv = self.build_instance(config);
                let mut boot = Box::new(self.hv.snapshot());
                self.prefix.snapshots.intern(&mut boot);
                self.boot = Some(boot);
            }
        }
    }

    /// Runs the factory and installs the fault injector (when present)
    /// into the new instance — the single path every boot goes through.
    fn build_instance(&mut self, config: HvConfig) -> Box<dyn L0Hypervisor> {
        let mut hv = (self.factory)(config);
        if let Some(faults) = &self.faults {
            hv.install_faults(faults.clone());
        }
        self.stats.factory_builds += 1;
        hv
    }

    /// Services a config flip: swap (or rebuild) the instance, then
    /// memoize-or-rebuild the validator.
    fn switch_config(&mut self, config: &HvConfig) {
        match self.mode {
            EngineMode::Rebuild => {
                self.hv = self.build_instance(config.clone());
                // Parity with the original path: reset the (already
                // fresh) guest state unconditionally.
                self.hv.reset_guest();
            }
            EngineMode::Snapshot => {
                let incoming = match self.cache.iter().position(|c| c.config == *config) {
                    Some(i) => {
                        self.stats.cache_hits += 1;
                        self.cache.remove(i)
                    }
                    None => {
                        let hv = self.build_instance(config.clone());
                        let mut boot = Box::new(hv.snapshot());
                        self.prefix.snapshots.intern(&mut boot);
                        CachedImage {
                            config: config.clone(),
                            hv,
                            boot,
                        }
                    }
                };
                let outgoing_config = self.hv.config().clone();
                let outgoing_hv = std::mem::replace(&mut self.hv, incoming.hv);
                // A missing outgoing boot image (broken invariant, e.g.
                // mid-quarantine) just means the outgoing instance is
                // not parkable; drop it instead of panicking.
                if let Some(boot) = self.boot.replace(incoming.boot) {
                    let outgoing = CachedImage {
                        config: outgoing_config,
                        hv: outgoing_hv,
                        boot,
                    };
                    if self.capacity > 0 {
                        self.cache.push(outgoing);
                        if self.cache.len() > self.capacity {
                            let dropped = self.cache.remove(0);
                            self.prefix.snapshots.release(&dropped.boot);
                        }
                    } else {
                        self.prefix.snapshots.release(&outgoing.boot);
                    }
                }
                // The cached image was parked mid-campaign (or is
                // freshly booted): restore its boot state either way.
                if let Err(error) = self.restore_boot() {
                    self.service_restore_failure(error);
                }
            }
        }
        match self.mode {
            // Parity with the original agent: recompute the validator
            // (and re-clone its correction history) on every flip.
            EngineMode::Rebuild => {
                self.validator = VmStateValidator::with_corrections_of(
                    VmxCapabilities::from_features(config.features),
                    &self.validator,
                );
                self.stats.validator_rebuilds += 1;
            }
            EngineMode::Snapshot => self.switch_validator(config.features),
        }
    }

    /// Memoized validator switch (`Snapshot` mode): a validator is a
    /// pure function of (feature set, correction history), so parked
    /// validators whose correction count still matches the active
    /// history are reused verbatim — see [`ParkedValidator`].
    fn switch_validator(&mut self, features: FeatureSet) {
        if self.validator_features == Some(features) {
            // Capability-neutral flip (e.g. only `nested` moved): the
            // active validator is exactly what a rebuild would produce.
            self.stats.validator_reuses += 1;
            return;
        }
        let stamp = self.validator.corrections.len();
        let parked = match self
            .validator_pool
            .iter()
            .position(|p| p.features == features)
        {
            Some(i) if self.validator_pool[i].validator.corrections.len() == stamp => {
                Some(self.validator_pool.remove(i).validator)
            }
            Some(i) => {
                // Stale: corrections were learned since it was parked.
                self.validator_pool.remove(i);
                None
            }
            None => None,
        };
        let next = match parked {
            Some(v) => {
                self.stats.validator_reuses += 1;
                v
            }
            None => {
                self.stats.validator_rebuilds += 1;
                VmStateValidator::with_corrections_of(
                    VmxCapabilities::from_features(features),
                    &self.validator,
                )
            }
        };
        let prev = std::mem::replace(&mut self.validator, next);
        if let Some(prev_features) = self.validator_features {
            if self.capacity > 0 {
                self.validator_pool.push(ParkedValidator {
                    features: prev_features,
                    validator: prev,
                });
                if self.validator_pool.len() > self.capacity {
                    self.validator_pool.remove(0);
                }
            }
        }
        self.validator_features = Some(features);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_hv::{Vkvm, Vxen};
    use nf_x86::{CpuFeature, CpuVendor, FeatureSet};

    fn kvm_factory() -> Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>> {
        Box::new(|c| Box::new(Vkvm::new(c)))
    }

    fn engine(mode: EngineMode) -> ExecutionEngine {
        let config = HvConfig::default_for(CpuVendor::Intel);
        let caps = VmxCapabilities::from_features(
            FeatureSet::default_for(CpuVendor::Intel).sanitized(CpuVendor::Intel),
        );
        ExecutionEngine::new(kvm_factory(), config, caps, mode)
    }

    fn flipped_config() -> HvConfig {
        let mut config = HvConfig::default_for(CpuVendor::Intel);
        config.features.remove(CpuFeature::Ept);
        config
    }

    #[test]
    fn config_flip_round_trip_hits_the_cache() {
        let mut e = engine(EngineMode::Snapshot);
        let base = HvConfig::default_for(CpuVendor::Intel);
        let other = flipped_config();
        e.prepare(&other);
        assert_eq!(e.stats().factory_builds, 2, "first flip cold-boots");
        e.prepare(&base);
        e.prepare(&other);
        e.prepare(&base);
        let stats = e.stats();
        assert_eq!(stats.factory_builds, 2, "round trips must not rebuild");
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(e.hv().config(), &base);
    }

    #[test]
    fn rebuild_mode_pays_the_factory_on_every_flip() {
        let mut e = engine(EngineMode::Rebuild);
        let base = HvConfig::default_for(CpuVendor::Intel);
        let other = flipped_config();
        for _ in 0..3 {
            e.prepare(&other);
            e.prepare(&base);
        }
        assert_eq!(e.stats().factory_builds, 7);
        assert_eq!(e.stats().cache_hits, 0);
    }

    #[test]
    fn nested_only_flip_reuses_the_validator() {
        // `nested` is not part of the capability surface: flipping it
        // must swap the instance but keep the validator untouched.
        let mut e = engine(EngineMode::Snapshot);
        e.validator_mut().apply_known_quirk();
        let corrections_ptr = e.validator().corrections.as_ptr();
        let mut nested_off = HvConfig::default_for(CpuVendor::Intel);
        nested_off.nested = false;
        e.prepare(&nested_off);
        assert_eq!(e.stats().validator_reuses, 1);
        assert_eq!(e.stats().validator_rebuilds, 0);
        assert_eq!(
            e.validator().corrections.as_ptr(),
            corrections_ptr,
            "same caps must share the validator, not clone it"
        );
        // A capability-changing flip still rebuilds.
        e.prepare(&flipped_config());
        assert_eq!(e.stats().validator_rebuilds, 1);
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let mut e = engine(EngineMode::Snapshot).with_cache_capacity(2);
        let mut configs = Vec::new();
        for n in 0..4u32 {
            let mut c = HvConfig::default_for(CpuVendor::Intel);
            for (i, f) in [CpuFeature::Ept, CpuFeature::Vpid].iter().enumerate() {
                if n & (1 << i) != 0 {
                    c.features.remove(*f);
                }
            }
            configs.push(c);
        }
        for c in &configs {
            e.prepare(c);
        }
        assert!(e.cache.len() <= 2, "cache exceeded its bound");
        // The least-recently-used image (configs[0]) was evicted: going
        // back is a cold boot, not a hit.
        let hits = e.stats().cache_hits;
        let builds = e.stats().factory_builds;
        e.prepare(&configs[0]);
        assert_eq!(e.stats().cache_hits, hits);
        assert_eq!(e.stats().factory_builds, builds + 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut e = engine(EngineMode::Snapshot).with_cache_capacity(0);
        let base = HvConfig::default_for(CpuVendor::Intel);
        let other = flipped_config();
        e.prepare(&other);
        e.prepare(&base);
        assert_eq!(e.stats().factory_builds, 3);
        assert_eq!(e.stats().cache_hits, 0);
    }

    #[test]
    fn restore_equals_reset_guest_state() {
        // The boot snapshot restore must land on exactly the state
        // `reset_guest` lands on — the bit-identity between the two
        // engine modes rests on this.
        let config = HvConfig::default_for(CpuVendor::Intel);
        for mut hv in [
            Box::new(Vkvm::new(config.clone())) as Box<dyn L0Hypervisor>,
            Box::new(Vxen::new(config.clone())) as Box<dyn L0Hypervisor>,
        ] {
            let boot = hv.snapshot();
            hv.l1_exec(nf_silicon::GuestInstr::MovToCr(
                nf_silicon::CrIndex::Cr4,
                nf_x86::Cr4::VMXE | nf_x86::Cr4::PAE,
            ));
            hv.l1_exec(nf_silicon::GuestInstr::Vmxon(0x1000));
            assert_ne!(hv.snapshot(), boot, "probe must dirty state");
            hv.reset_guest();
            let via_reset = hv.snapshot();
            hv.restore(&boot);
            let via_restore = hv.snapshot();
            assert_eq!(via_restore, via_reset, "{}", hv.name());
            assert_eq!(via_restore, boot, "{}", hv.name());
        }
    }

    #[test]
    fn collect_coverage_recycles_the_scratch() {
        let mut e = engine(EngineMode::Snapshot);
        let probe = nf_silicon::GuestInstr::Rdmsr(nf_x86::Msr::VmxBasic.index());
        e.hv_mut().l1_exec(probe);
        e.collect_coverage();
        let first_bitmap = e.scratch().bitmap.clone();
        let first_lines = e.scratch().lines.clone();
        assert!(!e.scratch().trace.is_empty());
        assert!(first_bitmap.iter().any(|&b| b != 0));
        assert!(first_lines.count() > 0);

        // A second identical exec reproduces the same scratch contents:
        // the wipe left no residue and the swap handed a clean trace
        // back to the hypervisor.
        e.prepare(&HvConfig::default_for(CpuVendor::Intel));
        e.hv_mut().l1_exec(probe);
        e.collect_coverage();
        assert_eq!(e.scratch().bitmap, first_bitmap);
        assert_eq!(e.scratch().lines, first_lines);

        // An empty exec leaves an all-zero bitmap and empty lines.
        e.prepare(&HvConfig::default_for(CpuVendor::Intel));
        e.collect_coverage();
        assert!(e.scratch().bitmap.iter().all(|&b| b == 0));
        assert_eq!(e.scratch().lines.count(), 0);
        assert!(e.scratch().trace.is_empty());
    }

    #[test]
    fn discard_trace_drops_the_exec_and_keeps_the_last_collection() {
        let mut e = engine(EngineMode::Snapshot);
        let probe = nf_silicon::GuestInstr::Rdmsr(nf_x86::Msr::VmxBasic.index());
        e.hv_mut().l1_exec(probe);
        e.collect_coverage();
        let collected = e.scratch().clone();

        // A discarded exec leaves the hypervisor on an empty trace and
        // the scratch's bitmap and lines on the last collected exec.
        for _ in 0..2 {
            e.prepare(&HvConfig::default_for(CpuVendor::Intel));
            e.hv_mut().l1_exec(probe);
            e.hv_mut().l1_exec(probe);
            assert!(!e.hv().trace().is_empty());
            e.discard_trace();
            assert!(e.hv().trace().is_empty());
            assert!(e.scratch().trace.is_empty());
            assert_eq!(e.scratch().bitmap, collected.bitmap);
            assert_eq!(e.scratch().lines, collected.lines);
        }

        // Collection after a discard sees only its own exec.
        e.prepare(&HvConfig::default_for(CpuVendor::Intel));
        e.hv_mut().l1_exec(probe);
        e.collect_coverage();
        assert_eq!(e.scratch().bitmap, collected.bitmap);
        assert_eq!(e.scratch().lines, collected.lines);
        assert_eq!(e.scratch().trace, collected.trace);
    }

    #[test]
    fn mode_parse_round_trips() {
        for mode in [EngineMode::Snapshot, EngineMode::Rebuild] {
            assert_eq!(EngineMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(EngineMode::parse("warp"), None);
    }

    #[test]
    fn prefix_cache_requires_snapshot_mode() {
        let mut rebuild = engine(EngineMode::Rebuild);
        rebuild.set_prefix_cache(true);
        assert!(!rebuild.prefix_enabled(), "rebuild mode has no snapshots");
        assert_eq!(rebuild.prefix_restore(&[1, 2, 3]), None);
        assert_eq!(rebuild.stats().prefix_misses, 0, "disabled != miss");

        let mut snapshot = engine(EngineMode::Snapshot);
        assert!(!snapshot.prefix_enabled(), "off by default");
        snapshot.set_prefix_cache(true);
        assert!(snapshot.prefix_enabled());
    }

    #[test]
    fn hotness_threshold_gates_capture() {
        let mut e = engine(EngineMode::Snapshot);
        e.set_prefix_cache(true);
        e.set_prefix_threshold(2);
        let phase = crate::harness::ExecPhase::boot();
        e.prefix_note_boundary(0xabc, 1, phase, &[]);
        assert_eq!(e.stats().prefix_captures, 0, "first sighting is cold");
        e.prefix_note_boundary(0xabc, 1, phase, &[]);
        assert_eq!(e.stats().prefix_captures, 1, "second sighting is hot");
        e.prefix_note_boundary(0xabc, 1, phase, &[]);
        assert_eq!(e.stats().prefix_captures, 1, "already cached");
        assert_eq!(e.prefix.nodes.len(), 1);
    }

    #[test]
    fn prefix_restore_picks_the_deepest_cached_ancestor() {
        let mut e = engine(EngineMode::Snapshot);
        e.set_prefix_cache(true);
        e.set_prefix_threshold(1);
        let phase = crate::harness::ExecPhase::boot();
        // chain[k] is the rolling hash after k units; cache depths 2
        // and 5 of a 7-unit scenario.
        let chain: Vec<u64> = (0..8).map(|k| 0x1000 + k).collect();
        e.prefix_note_boundary(chain[2], 2, phase, &[]);
        e.prefix_note_boundary(chain[5], 5, phase, &[]);
        let idx = e.prefix_restore(&chain).expect("ancestor cached");
        assert_eq!(e.prefix_node_depth(idx), 5, "deepest wins");
        assert_eq!(e.stats().prefix_hits, 1);
        assert_eq!(e.stats().prefix_units_skipped, 5);
        // A chain sharing only the shallow prefix restores depth 2.
        let mut short = chain[..3].to_vec();
        short.push(0x9999);
        let idx = e.prefix_restore(&short).expect("shallow ancestor");
        assert_eq!(e.prefix_node_depth(idx), 2);
        // chain[0] is the boot root — never a node, so a chain that
        // shares nothing is a miss.
        assert_eq!(e.prefix_restore(&[chain[0], 0x7777]), None);
        assert_eq!(e.stats().prefix_misses, 1);
    }

    #[test]
    fn byte_budget_evicts_the_stalest_node() {
        let mut e = engine(EngineMode::Snapshot);
        e.set_prefix_cache(true);
        e.set_prefix_threshold(1);
        // Deep copy charges every node its full footprint, so the
        // budget arithmetic below is exact (under CoW these identical
        // captures would dedup to a fraction of the bytes).
        e.set_prefix_store(PrefixStoreMode::DeepCopy);
        let phase = crate::harness::ExecPhase::boot();
        e.prefix_note_boundary(1, 1, phase, &[]);
        let node_bytes = e.prefix.bytes;
        assert!(node_bytes > 0);
        // Room for exactly two nodes.
        e.set_prefix_budget(node_bytes * 2);
        e.prefix_note_boundary(2, 2, phase, &[]);
        assert_eq!(e.prefix.nodes.len(), 2);
        assert_eq!(e.stats().prefix_evictions, 0);
        // Freshen node 1, then overflow: node 2 is now the stalest.
        e.prefix_restore(&[0, 1]);
        e.prefix_note_boundary(3, 3, phase, &[]);
        assert_eq!(e.stats().prefix_evictions, 1);
        let keys: Vec<u64> = e.prefix.nodes.keys().copied().collect();
        assert_eq!(keys, vec![1, 3], "LRU evicts the least recently used");
        assert_eq!(e.prefix.bytes, node_bytes * 2);
        assert_eq!(e.stats().prefix_bytes_resident, (node_bytes * 2) as u64);
        assert_eq!(e.stats().prefix_nodes, 2);
    }

    #[test]
    fn stamp_index_matches_linear_scan_eviction_order() {
        // Regression for the O(n) stalest-scan -> stamp-index move: a
        // pseudo-random interleaving of captures and restores must
        // evict in exactly the order the old linear scan produced.
        let mut e = engine(EngineMode::Snapshot);
        e.set_prefix_cache(true);
        e.set_prefix_threshold(1);
        e.set_prefix_store(PrefixStoreMode::DeepCopy);
        let phase = crate::harness::ExecPhase::boot();
        e.prefix_note_boundary(1, 1, phase, &[]);
        let node_bytes = e.prefix.bytes;
        e.set_prefix_budget(node_bytes * 4);
        // Linear-scan model: (key, stamp) pairs, min-stamp evicts.
        let mut model: Vec<(u64, u64)> = vec![(1, 0)];
        let mut clock = 1u64;
        let mut evicted_model = Vec::new();
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        for key in 2..30u64 {
            // Pseudo-random touch of an existing node first.
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = model[(lcg >> 33) as usize % model.len()].0;
            if e.prefix_restore(&[0, pick]).is_some() {
                let slot = model
                    .iter_mut()
                    .find(|(k, _)| *k == pick)
                    .expect("model tracks");
                slot.1 = clock;
                clock += 1;
            }
            e.prefix_note_boundary(key, 1, phase, &[]);
            model.push((key, clock));
            clock += 1;
            while model.len() * node_bytes > node_bytes * 4 {
                let stalest = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, s))| *s)
                    .map(|(i, _)| i)
                    .expect("non-empty");
                evicted_model.push(model.remove(stalest).0);
            }
        }
        let mut model_keys: Vec<u64> = model.iter().map(|(k, _)| *k).collect();
        model_keys.sort_unstable();
        let keys: Vec<u64> = e.prefix.nodes.keys().copied().collect();
        assert_eq!(keys, model_keys, "surviving set diverged from linear scan");
        assert_eq!(e.stats().prefix_evictions as usize, evicted_model.len());
    }

    #[test]
    fn cow_store_dedups_identical_captures() {
        let mut e = engine(EngineMode::Snapshot);
        e.set_prefix_cache(true);
        e.set_prefix_threshold(1);
        // The probe leaves a non-empty coverage trace — the blob the
        // second capture dedups against.
        e.hv_mut()
            .l1_exec(nf_silicon::GuestInstr::Rdmsr(nf_x86::Msr::VmxBasic.index()));
        e.prefix_note_boundary(1, 1, crate::harness::ExecPhase::boot(), &[]);
        let first = e.prefix.bytes;
        // Same hypervisor state captured under a different key: every
        // blob dedups, so the second node costs only its overhead.
        e.prefix_note_boundary(2, 2, crate::harness::ExecPhase::boot(), &[]);
        let second = e.prefix.bytes - first;
        assert!(
            second < first,
            "dedup must make the second identical capture cheaper \
             (first {first} B, second {second} B)"
        );
        assert!(e.stats().prefix_dedup_ratio() > 1.0);
        assert!(e.stats().prefix_blob_bytes_interned > e.stats().prefix_blob_bytes_unique);
    }

    #[test]
    fn switching_store_mode_clears_the_trie() {
        let mut e = engine(EngineMode::Snapshot);
        e.set_prefix_cache(true);
        e.set_prefix_threshold(1);
        let phase = crate::harness::ExecPhase::boot();
        e.prefix_note_boundary(1, 1, phase, &[]);
        e.prefix_note_boundary(2, 2, phase, &[]);
        assert_eq!(e.prefix.nodes.len(), 2);
        e.set_prefix_store(PrefixStoreMode::DeepCopy);
        assert_eq!(e.prefix.nodes.len(), 0);
        assert_eq!(e.prefix.bytes, 0);
        assert!(e.prefix.by_stamp.is_empty());
        // Same mode again is a no-op (no clear, no release).
        e.prefix_note_boundary(3, 3, phase, &[]);
        e.set_prefix_store(PrefixStoreMode::DeepCopy);
        assert_eq!(e.prefix.nodes.len(), 1);
    }

    #[test]
    fn restore_tracks_max_hit_depth() {
        let mut e = engine(EngineMode::Snapshot);
        e.set_prefix_cache(true);
        e.set_prefix_threshold(1);
        let phase = crate::harness::ExecPhase::boot();
        let chain: Vec<u64> = (0..8).map(|k| 0x2000 + k).collect();
        e.prefix_note_boundary(chain[2], 2, phase, &[]);
        e.prefix_note_boundary(chain[6], 6, phase, &[]);
        e.prefix_restore(&chain[..4]).expect("depth-2 ancestor");
        assert_eq!(e.stats().prefix_max_hit_depth, 2);
        e.prefix_restore(&chain).expect("depth-6 ancestor");
        assert_eq!(e.stats().prefix_max_hit_depth, 6);
        e.prefix_restore(&chain[..4])
            .expect("depth-2 ancestor again");
        assert_eq!(
            e.stats().prefix_max_hit_depth,
            6,
            "gauge is a high-water mark"
        );
    }

    #[test]
    fn mode_switch_keeps_boot_images_released_in_balance() {
        // Boot images live in the same store as trie nodes; cache
        // eviction and zero-capacity drops must release them without
        // unbalancing the refcounts (release panics on imbalance).
        let mut e = engine(EngineMode::Snapshot).with_cache_capacity(1);
        let base = HvConfig::default_for(CpuVendor::Intel);
        let mut configs = vec![base.clone(), flipped_config()];
        let mut vpid_off = base.clone();
        vpid_off.features.remove(CpuFeature::Vpid);
        configs.push(vpid_off);
        for _ in 0..2 {
            for c in &configs {
                e.prepare(c);
            }
        }
        let mut zero = engine(EngineMode::Snapshot).with_cache_capacity(0);
        for c in &configs {
            zero.prepare(c);
        }
    }

    #[test]
    fn prefix_restore_round_trips_hypervisor_state() {
        let mut e = engine(EngineMode::Snapshot);
        e.set_prefix_cache(true);
        e.set_prefix_threshold(1);
        // Perturb the hypervisor past boot, capture, reset and perturb
        // differently, then restore: the captured state must come back
        // exactly.
        use nf_silicon::{CrIndex, GuestInstr};
        use nf_x86::Cr4;
        e.hv_mut()
            .l1_exec(GuestInstr::MovToCr(CrIndex::Cr4, Cr4::VMXE | Cr4::PAE));
        let captured = e.hv().observe_guest();
        e.prefix_note_boundary(0x55, 3, crate::harness::ExecPhase::boot(), &[]);
        e.prepare(&HvConfig::default_for(CpuVendor::Intel));
        e.hv_mut().l1_exec(GuestInstr::MovToCr(CrIndex::Cr4, 0));
        let idx = e.prefix_restore(&[0, 0x55]).expect("cached");
        assert_eq!(e.prefix_node_depth(idx), 3);
        assert_eq!(e.hv().observe_guest(), captured);
    }
}
