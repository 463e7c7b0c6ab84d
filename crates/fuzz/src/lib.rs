//! An AFL++-style coverage-guided fuzzing engine.
//!
//! The paper extends AFL++ to drive fuzz-harness VMs (§4.1): the fuzzer
//! produces 2 KiB binary inputs, the agent maps hypervisor coverage onto
//! a shared-memory bitmap, and new bitmap bytes promote inputs into the
//! queue. This crate reproduces that loop:
//!
//! - [`FuzzInput`] — the 2 KiB input buffer;
//! - deterministic + havoc mutators (bit flips, arithmetic, block copy,
//!   splice);
//! - a [`corpus::Corpus`] with energy assignment, a virgin-bitmap
//!   novelty test, cross-worker sync deltas, persistence, and
//!   afl-cmin-style minimization;
//! - two modes: [`Mode::Guided`] (classic AFL feedback) and
//!   [`Mode::Unguided`] (black-box breadth-first), the comparison of the
//!   paper's Table 5.

pub mod corpus;
pub mod scenario;
pub mod sync;

use nf_coverage::LineSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use corpus::{Corpus, CorpusDelta, CorpusEntry, Provenance};
pub use scenario::{
    same_affinity, InputLayout, MutatorProfile, Operator, OperatorStats, ProfileState, Scenario,
    SectionSpan,
};
pub use sync::{DeltaBus, GossipNode, SeqDelta, SyncMode, SyncStats, SyncTopology};

/// Size of one fuzzing input (paper §4.1: "2KiB of binary data").
pub const INPUT_LEN: usize = 2048;

/// Size of the coverage bitmap shared between agent and fuzzer.
pub const MAP_SIZE: usize = 1 << 16;

/// One fuzzing input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzInput {
    /// The raw bytes handed to the VM generator.
    pub bytes: Vec<u8>,
}

impl FuzzInput {
    /// An all-zero input.
    pub fn zeroed() -> Self {
        FuzzInput {
            bytes: vec![0; INPUT_LEN],
        }
    }

    /// A uniformly random input.
    pub fn random(rng: &mut SmallRng) -> Self {
        let mut input = FuzzInput::zeroed();
        input.fill_random(rng);
        input
    }

    /// Refills this input with uniformly random bytes in place — the
    /// zero-allocation form of [`FuzzInput::random`]; both consume the
    /// identical RNG stream, so the generated inputs are bit-equal.
    pub fn fill_random(&mut self, rng: &mut SmallRng) {
        rng.fill(&mut self.bytes[..]);
    }

    /// Overwrites this input with `other`'s bytes in place (no
    /// allocation when the lengths already match — they always do on
    /// the campaign path, where every input is [`INPUT_LEN`] bytes).
    pub fn copy_from(&mut self, other: &FuzzInput) {
        self.bytes.resize(other.bytes.len(), 0);
        self.bytes.copy_from_slice(&other.bytes);
    }

    /// Reads a little-endian `u16` at `off` (zero beyond the end).
    pub fn u16_at(&self, off: usize) -> u16 {
        let lo = self.bytes.get(off).copied().unwrap_or(0) as u16;
        let hi = self.bytes.get(off + 1).copied().unwrap_or(0) as u16;
        lo | (hi << 8)
    }

    /// Reads a little-endian `u32` at `off`.
    pub fn u32_at(&self, off: usize) -> u32 {
        self.u16_at(off) as u32 | ((self.u16_at(off + 2) as u32) << 16)
    }

    /// Reads a little-endian `u64` at `off`.
    pub fn u64_at(&self, off: usize) -> u64 {
        self.u32_at(off) as u64 | ((self.u32_at(off + 4) as u64) << 32)
    }

    /// Borrows `len` bytes at `off` (clamped to the buffer).
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        let start = off.min(self.bytes.len());
        let end = (off + len).min(self.bytes.len());
        &self.bytes[start..end]
    }
}

/// Feedback mode (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Coverage-guided: queue + havoc on interesting inputs.
    Guided,
    /// Black-box breadth-first: fresh random inputs every iteration —
    /// the mode the paper found slightly *better* for this target.
    Unguided,
}

/// Execution feedback the agent reports back to the fuzzer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecFeedback {
    /// The execution produced a crash/anomaly report.
    pub crashed: bool,
}

/// How guided mode turns a queue parent into a child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MutationStrategy {
    /// The classic byte-blind havoc stack. Bit-identical to the
    /// original engine — the determinism suites replay against it.
    #[default]
    Havoc,
    /// The structure-aware [`scenario`] engine: section-typed operators
    /// scheduled by an adaptive [`MutatorProfile`].
    Structured,
}

impl MutationStrategy {
    /// Parses a CLI value (`havoc` / `structured`).
    pub fn parse(s: &str) -> Option<MutationStrategy> {
        match s {
            "havoc" => Some(MutationStrategy::Havoc),
            "structured" => Some(MutationStrategy::Structured),
            _ => None,
        }
    }
}

impl std::fmt::Display for MutationStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MutationStrategy::Havoc => "havoc",
            MutationStrategy::Structured => "structured",
        })
    }
}

/// Number of arms in the classic havoc stack.
pub const HAVOC_ARMS: usize = 7;

/// Mutation-side statistics of one engine: the structured profile's
/// per-operator stats plus the havoc stack-arm counters. Which half is
/// live depends on [`MutationStrategy`]; the other stays zero.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MutationStats {
    /// The strategy the engine ran.
    pub strategy: MutationStrategy,
    /// Per-operator scheduling stats (structured strategy).
    pub operators: Vec<OperatorStats>,
    /// Executions of each classic havoc arm (havoc strategy).
    pub havoc_arms: [u64; HAVOC_ARMS],
}

impl MutationStats {
    /// `true` when every mutation primitive of the strategy ran at
    /// least once (the `mutator_yield --smoke` gate).
    pub fn all_exercised(&self) -> bool {
        match self.strategy {
            MutationStrategy::Havoc => self.havoc_arms.iter().all(|&n| n > 0),
            MutationStrategy::Structured => {
                !self.operators.is_empty() && self.operators.iter().all(|s| s.generated > 0)
            }
        }
    }
}

/// Persistable snapshot of a [`Fuzzer`]'s mutable state *besides* the
/// corpus: the RNG position, the lifetime counters, and the adaptive
/// scheduler. Taken at report boundaries (no input pending a report),
/// so the in-flight provenance slot is always empty and never
/// persisted. The corpus travels separately through its own
/// persistence format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzerState {
    /// Raw xoshiro256++ state words of the mutation RNG.
    pub rng: [u64; 4],
    /// Total executions reported.
    pub execs: u64,
    /// Total crashing executions reported.
    pub crashes: u64,
    /// Inputs promoted into the queue.
    pub queue_adds: u64,
    /// Per-arm execution counts of the classic havoc stack.
    pub havoc_arms: [u64; HAVOC_ARMS],
    /// Whether novel inputs are recorded into the corpus.
    pub recording: bool,
    /// The adaptive operator scheduler's learned state.
    pub profile: ProfileState,
}

/// The fuzzing engine: mutation scheduling and RNG state on top of a
/// [`Corpus`] (which owns the queue, energy, and virgin bitmap).
pub struct Fuzzer {
    rng: SmallRng,
    mode: Mode,
    strategy: MutationStrategy,
    corpus: Corpus,
    /// The adaptive operator scheduler (structured strategy only; the
    /// havoc path never touches it, keeping havoc streams bit-stable).
    profile: MutatorProfile,
    /// Operator that produced the last generated input, consumed by the
    /// next report so queued entries carry operator provenance.
    last_op: Option<Operator>,
    /// Per-arm execution counts of the classic havoc stack.
    havoc_arms: [u64; HAVOC_ARMS],
    /// Record novel inputs into the corpus. On by default in guided
    /// mode; a sync group turns it on in unguided mode too, so
    /// breadth-first workers still contribute their discoveries to
    /// their gossip deltas (generation is unaffected — unguided inputs
    /// never come from the queue).
    recording: bool,
    execs: u64,
    crashes: u64,
    queue_adds: u64,
    /// Reusable edge-list buffer of [`Fuzzer::report_observed`], which
    /// lists a bare bitmap's non-zero bytes into it.
    edges: Vec<u32>,
}

impl Fuzzer {
    /// Creates an engine with a deterministic seed and the default
    /// (havoc) mutation strategy.
    pub fn new(seed: u64, mode: Mode) -> Self {
        Fuzzer::with_strategy(seed, mode, MutationStrategy::Havoc)
    }

    /// Creates an engine with an explicit mutation strategy. The seed
    /// corpus and RNG stream are identical across strategies; only the
    /// parent→child transform differs.
    pub fn with_strategy(seed: u64, mode: Mode, strategy: MutationStrategy) -> Self {
        let mut f = Fuzzer {
            rng: SmallRng::seed_from_u64(seed),
            mode,
            strategy,
            corpus: Corpus::new(),
            profile: MutatorProfile::balanced(),
            last_op: None,
            havoc_arms: [0; HAVOC_ARMS],
            recording: mode == Mode::Guided,
            execs: 0,
            crashes: 0,
            queue_adds: 0,
            edges: Vec::new(),
        };
        // Seed corpus: one zero input and a few random ones.
        f.corpus.push_seed(FuzzInput::zeroed());
        for _ in 0..4 {
            let input = FuzzInput::random(&mut f.rng);
            f.corpus.push_seed(input);
        }
        f
    }

    /// Creates an engine resuming from a persisted corpus (the corpus
    /// replaces the default seed set; the RNG stream is still a pure
    /// function of `seed`).
    pub fn with_corpus(seed: u64, mode: Mode, corpus: Corpus) -> Self {
        Fuzzer::with_corpus_strategy(seed, mode, MutationStrategy::Havoc, corpus)
    }

    /// [`Fuzzer::with_corpus`] with an explicit mutation strategy.
    pub fn with_corpus_strategy(
        seed: u64,
        mode: Mode,
        strategy: MutationStrategy,
        corpus: Corpus,
    ) -> Self {
        Fuzzer {
            rng: SmallRng::seed_from_u64(seed),
            mode,
            strategy,
            corpus,
            profile: MutatorProfile::balanced(),
            last_op: None,
            havoc_arms: [0; HAVOC_ARMS],
            recording: mode == Mode::Guided,
            execs: 0,
            crashes: 0,
            queue_adds: 0,
            edges: Vec::new(),
        }
    }

    /// Snapshots the engine's non-corpus mutable state for checkpoint
    /// persistence. Call only at a report boundary (every generated
    /// input already reported) — the campaign's hour boundaries are.
    pub fn checkpoint_state(&self) -> FuzzerState {
        debug_assert!(
            self.last_op.is_none(),
            "checkpoint with an unreported input in flight"
        );
        FuzzerState {
            rng: self.rng.state(),
            execs: self.execs,
            crashes: self.crashes,
            queue_adds: self.queue_adds,
            havoc_arms: self.havoc_arms,
            recording: self.recording,
            profile: self.profile.state(),
        }
    }

    /// Rebuilds an engine from a persisted corpus plus a
    /// [`FuzzerState`] snapshot. The result generates exactly the
    /// input stream the snapshotted engine would have generated next —
    /// the checkpoint/resume convergence guarantee rests on this.
    pub fn from_checkpoint(
        mode: Mode,
        strategy: MutationStrategy,
        corpus: Corpus,
        state: FuzzerState,
    ) -> Self {
        Fuzzer {
            rng: SmallRng::from_state(state.rng),
            mode,
            strategy,
            corpus,
            profile: MutatorProfile::from_state(state.profile),
            last_op: None,
            havoc_arms: state.havoc_arms,
            recording: state.recording,
            execs: state.execs,
            crashes: state.crashes,
            queue_adds: state.queue_adds,
            edges: Vec::new(),
        }
    }

    /// Overrides corpus recording of novel inputs (see the field doc:
    /// sync groups record in unguided mode too).
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    /// The mode this engine runs in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The mutation strategy this engine runs.
    pub fn strategy(&self) -> MutationStrategy {
        self.strategy
    }

    /// Mutation-side statistics: per-operator scheduling stats and the
    /// havoc arm counters.
    pub fn mutation_stats(&self) -> MutationStats {
        MutationStats {
            strategy: self.strategy,
            operators: self.profile.stats(),
            havoc_arms: self.havoc_arms,
        }
    }

    /// Total executions reported so far.
    pub fn execs(&self) -> u64 {
        self.execs
    }

    /// Total crashing executions reported so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Number of inputs promoted into the queue.
    pub fn queue_len(&self) -> usize {
        self.corpus.len()
    }

    /// The corpus (queue + virgin bitmap + provenance).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Mutable corpus access (sync delta exchange, persistence).
    pub fn corpus_mut(&mut self) -> &mut Corpus {
        &mut self.corpus
    }

    /// Sets the sync-group worker id recorded in entry provenance.
    pub fn set_worker(&mut self, worker: u32) {
        self.corpus.set_worker(worker);
    }

    /// Produces the next input to execute. Allocating wrapper around
    /// [`Fuzzer::next_input_into`]; the two consume identical RNG
    /// streams and produce bit-equal inputs.
    pub fn next_input(&mut self) -> FuzzInput {
        let mut out = FuzzInput::zeroed();
        self.next_input_into(&mut out);
        out
    }

    /// Writes the next input to execute into the caller's reusable
    /// buffer — the zero-allocation generation path. The scheduled
    /// parent is copied into `out` and the child is mutated in place
    /// (no `clone` per child); unguided mode refills the buffer with
    /// fresh random bytes.
    pub fn next_input_into(&mut self, out: &mut FuzzInput) {
        self.last_op = None;
        match self.mode {
            Mode::Unguided => out.fill_random(&mut self.rng),
            Mode::Guided => {
                if !self.corpus.schedule_next_into(out) {
                    // A minimized-to-nothing corpus degrades to random.
                    out.fill_random(&mut self.rng);
                    return;
                }
                match self.strategy {
                    MutationStrategy::Havoc => self.havoc_in_place(out),
                    MutationStrategy::Structured => {
                        // The scenario engine works in its decoded IR,
                        // which owns its buffers; only the final encode
                        // is copied back into the caller's scratch.
                        let (child, op) = self.profile.mutate(out, &mut self.rng);
                        self.last_op = Some(op);
                        out.copy_from(&child);
                    }
                }
            }
        }
    }

    /// AFL havoc stage, mutating the buffer in place: block copies move
    /// within the buffer (`copy_within`) and splices copy straight from
    /// the donor entry, so no arm allocates.
    fn havoc_in_place(&mut self, input: &mut FuzzInput) {
        let stacking = 1 << self.rng.gen_range(1..6); // 2..32 mutations
        for _ in 0..stacking {
            let arm = self.rng.gen_range(0..HAVOC_ARMS);
            self.havoc_arms[arm] += 1;
            match arm {
                0 => {
                    // Single bit flip.
                    let bit = self.rng.gen_range(0..INPUT_LEN * 8);
                    input.bytes[bit / 8] ^= 1 << (bit % 8);
                }
                1 => {
                    // Random byte set.
                    let off = self.rng.gen_range(0..INPUT_LEN);
                    input.bytes[off] = self.rng.gen();
                }
                2 => {
                    // Interesting value.
                    let off = self.rng.gen_range(0..INPUT_LEN);
                    const INTERESTING: [u8; 9] = [0, 1, 2, 3, 0x7f, 0x80, 0xff, 0x40, 0x20];
                    input.bytes[off] = INTERESTING[self.rng.gen_range(0..INTERESTING.len())];
                }
                3 => {
                    // Arithmetic +-.
                    let off = self.rng.gen_range(0..INPUT_LEN);
                    let delta = self.rng.gen_range(1..=35u8);
                    if self.rng.gen() {
                        input.bytes[off] = input.bytes[off].wrapping_add(delta);
                    } else {
                        input.bytes[off] = input.bytes[off].wrapping_sub(delta);
                    }
                }
                4 => {
                    // Block copy within the input (memmove semantics —
                    // identical to the staging copy it replaces).
                    let len = self.rng.gen_range(1..64usize);
                    let src = self.rng.gen_range(0..INPUT_LEN - len);
                    let dst = self.rng.gen_range(0..INPUT_LEN - len);
                    input.bytes.copy_within(src..src + len, dst);
                }
                5 => {
                    // Word overwrite with random value.
                    let off = self.rng.gen_range(0..INPUT_LEN - 8);
                    let v: u64 = self.rng.gen();
                    input.bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
                }
                _ => {
                    // Splice: copy a block from another corpus entry.
                    if !self.corpus.is_empty() {
                        let other = self.rng.gen_range(0..self.corpus.len());
                        let len = self.rng.gen_range(16..256usize);
                        let off = self.rng.gen_range(0..INPUT_LEN - len);
                        input.bytes[off..off + len]
                            .copy_from_slice(&self.corpus.donor(other).bytes[off..off + len]);
                    }
                }
            }
        }
    }

    /// Reports an execution's bitmap. Returns `true` when the input
    /// produced new coverage (and, in guided mode, was queued).
    ///
    /// Queued entries carry no line evidence through this method; the
    /// campaign loop uses [`Fuzzer::report_edges`] so corpus entries
    /// record the line coverage `minimize` operates on.
    pub fn report(&mut self, input: &FuzzInput, bitmap: &[u8], feedback: ExecFeedback) -> bool {
        self.report_observed(input, bitmap, &LineSet::default(), feedback)
    }

    /// [`Fuzzer::report`] with the execution's line coverage attached
    /// as the queued entry's evidence (provenance for sync and the set
    /// `minimize` covers).
    ///
    /// For a bare bitmap: lists its non-zero bytes (a block-skipping
    /// scan of the whole map, into a buffer the fuzzer keeps) and
    /// reports them through [`Fuzzer::report_edges`], so both entries
    /// leave identical state. The campaign loop, which already holds
    /// the exec's edge list, calls `report_edges` directly.
    pub fn report_observed(
        &mut self,
        input: &FuzzInput,
        bitmap: &[u8],
        lines: &LineSet,
        feedback: ExecFeedback,
    ) -> bool {
        let mut edges = std::mem::take(&mut self.edges);
        nf_coverage::bitmap::nonzero_into(bitmap, &mut edges);
        let novel = self.report_edges(input, bitmap, &edges, lines, feedback);
        self.edges = edges;
        novel
    }

    /// Reports an execution whose touched bitmap bytes are already
    /// listed: `edges` holds each non-zero byte of `bitmap` exactly
    /// once, in any order (`ExecScratch::edges`). Novelty and promotion
    /// visit those bytes only, not the whole map. Returns `true` when
    /// the input produced new coverage (and, when recording, was
    /// queued).
    pub fn report_edges(
        &mut self,
        input: &FuzzInput,
        bitmap: &[u8],
        edges: &[u32],
        lines: &LineSet,
        feedback: ExecFeedback,
    ) -> bool {
        self.execs += 1;
        if feedback.crashed {
            self.crashes += 1;
        }
        let op = self.last_op.take();
        let queue = self.recording.then_some((self.execs, op));
        let new_bits = self.corpus.observe(input, bitmap, edges, lines, queue);
        if new_bits && self.recording {
            self.queue_adds += 1;
            // Adaptive scheduling: a queued child credits every
            // operator of the stack that produced it, so productive
            // operators earn weight.
            if op.is_some() {
                self.profile.credit_last();
            }
        }
        new_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Fuzzer::new(7, Mode::Guided);
        let mut b = Fuzzer::new(7, Mode::Guided);
        for _ in 0..10 {
            assert_eq!(a.next_input(), b.next_input());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Fuzzer::new(1, Mode::Unguided);
        let mut b = Fuzzer::new(2, Mode::Unguided);
        assert_ne!(a.next_input(), b.next_input());
    }

    #[test]
    fn inputs_are_full_length() {
        let mut f = Fuzzer::new(0, Mode::Guided);
        for _ in 0..5 {
            assert_eq!(f.next_input().bytes.len(), INPUT_LEN);
        }
    }

    #[test]
    fn novelty_detection_and_queueing() {
        let mut f = Fuzzer::new(0, Mode::Guided);
        let before = f.queue_len();
        let input = FuzzInput::zeroed();
        let mut bitmap = vec![0u8; MAP_SIZE];
        bitmap[42] = 1;
        assert!(f.report(&input, &bitmap, ExecFeedback::default()));
        assert_eq!(f.queue_len(), before + 1);
        // Same bitmap again: no novelty.
        assert!(!f.report(&input, &bitmap, ExecFeedback::default()));
        assert_eq!(f.queue_len(), before + 1);
        // Higher hit bucket on the same edge: novelty again.
        bitmap[42] = 16;
        assert!(f.report(&input, &bitmap, ExecFeedback::default()));
    }

    #[test]
    fn unguided_mode_never_queues() {
        let mut f = Fuzzer::new(0, Mode::Unguided);
        let before = f.queue_len();
        let mut bitmap = vec![0u8; MAP_SIZE];
        bitmap[1] = 1;
        assert!(f.report(&FuzzInput::zeroed(), &bitmap, ExecFeedback::default()));
        assert_eq!(f.queue_len(), before);
    }

    #[test]
    fn crash_accounting() {
        let mut f = Fuzzer::new(0, Mode::Guided);
        let bitmap = vec![0u8; MAP_SIZE];
        f.report(
            &FuzzInput::zeroed(),
            &bitmap,
            ExecFeedback { crashed: true },
        );
        f.report(
            &FuzzInput::zeroed(),
            &bitmap,
            ExecFeedback { crashed: false },
        );
        assert_eq!(f.crashes(), 1);
        assert_eq!(f.execs(), 2);
    }

    #[test]
    fn accessors_read_little_endian() {
        let mut input = FuzzInput::zeroed();
        input.bytes[10..18].copy_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(input.u16_at(10), 0x7788);
        assert_eq!(input.u32_at(10), 0x5566_7788);
        assert_eq!(input.u64_at(10), 0x1122_3344_5566_7788);
        // Out-of-range reads return zero.
        assert_eq!(
            input.u64_at(INPUT_LEN - 2),
            input.u16_at(INPUT_LEN - 2) as u64
        );
    }

    /// Reports an always-novel bitmap so every generated child queues.
    fn report_novel(f: &mut Fuzzer, input: &FuzzInput, edge: usize) {
        let mut bitmap = vec![0u8; MAP_SIZE];
        bitmap[edge] = 1;
        f.report(input, &bitmap, ExecFeedback::default());
    }

    #[test]
    fn structured_children_carry_operator_provenance_and_credit() {
        let mut f = Fuzzer::with_strategy(11, Mode::Guided, MutationStrategy::Structured);
        for i in 0..40 {
            let input = f.next_input();
            report_novel(&mut f, &input, i + 1);
        }
        let typed = f
            .corpus()
            .entries()
            .filter(|e| e.provenance.op.is_some())
            .count();
        assert!(typed > 0, "structured children must record their operator");
        let stats = f.mutation_stats();
        assert_eq!(stats.strategy, MutationStrategy::Structured);
        assert!(stats.operators.iter().any(|s| s.queued > 0));
        let base = MutatorProfile::balanced().stats()[0].weight;
        assert!(
            stats.operators.iter().any(|s| s.weight > base),
            "queued children must grow operator weight"
        );
        assert_eq!(stats.havoc_arms, [0; HAVOC_ARMS], "havoc half stays dead");
    }

    #[test]
    fn havoc_children_never_carry_operator_provenance() {
        let mut f = Fuzzer::new(11, Mode::Guided);
        for i in 0..40 {
            let input = f.next_input();
            report_novel(&mut f, &input, i + 1);
        }
        assert!(
            f.corpus().entries().all(|e| e.provenance.op.is_none()),
            "havoc provenance must stay untyped"
        );
        let stats = f.mutation_stats();
        assert!(stats.operators.iter().all(|s| s.generated == 0));
        assert!(stats.havoc_arms.iter().any(|&n| n > 0));
    }

    #[test]
    fn havoc_strategy_is_bit_identical_to_default_engine() {
        let mut a = Fuzzer::new(21, Mode::Guided);
        let mut b = Fuzzer::with_strategy(21, Mode::Guided, MutationStrategy::Havoc);
        for i in 0..30 {
            let ia = a.next_input();
            let ib = b.next_input();
            assert_eq!(ia, ib, "input {i} diverged");
            report_novel(&mut a, &ia, i + 1);
            report_novel(&mut b, &ib, i + 1);
        }
        assert_eq!(a.corpus(), b.corpus());
    }

    #[test]
    fn in_place_generation_is_bit_identical_to_allocating() {
        // The scratch-buffer path must replay the allocating path's
        // exact RNG stream for every mode × strategy combination —
        // campaign determinism (and the committed BENCH files) rest on
        // this.
        for (mode, strategy) in [
            (Mode::Unguided, MutationStrategy::Havoc),
            (Mode::Guided, MutationStrategy::Havoc),
            (Mode::Guided, MutationStrategy::Structured),
        ] {
            let mut alloc = Fuzzer::with_strategy(17, mode, strategy);
            let mut scratch = Fuzzer::with_strategy(17, mode, strategy);
            let mut buf = FuzzInput::zeroed();
            for i in 0..25 {
                let a = alloc.next_input();
                scratch.next_input_into(&mut buf);
                assert_eq!(a, buf, "{mode:?}/{strategy:?} diverged at input {i}");
                report_novel(&mut alloc, &a, i + 1);
                report_novel(&mut scratch, &buf, i + 1);
            }
            assert_eq!(alloc.corpus(), scratch.corpus());
        }
    }

    #[test]
    fn havoc_preserves_length_and_changes_content() {
        let mut f = Fuzzer::new(3, Mode::Guided);
        let base = FuzzInput::zeroed();
        let mut child = base.clone();
        f.havoc_in_place(&mut child);
        assert_eq!(child.bytes.len(), INPUT_LEN);
        assert_ne!(child, base, "havoc should change something");
    }
}
