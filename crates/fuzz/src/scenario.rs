//! Structure-aware scenario mutation: a typed IR over the 2 KiB input
//! and a weighted profile of section-aware mutation operators.
//!
//! The agent partitions the fuzz input across the harness, validator,
//! and configurator (paper §3.2), but byte-blind havoc knows nothing of
//! that partition: bit flips land mid-way through VMCS field encodings
//! and init-step argument pairs, so most children are semantically dead
//! and the snapshot engine's throughput win is spent re-executing
//! noise. Interface-format-aware virtualization fuzzers (IRIS, FuzzBox)
//! mutate at the granularity of the target's actual interface objects;
//! this module brings that to the scenario level:
//!
//! - [`InputLayout`] — the single shared schema of the input's seven
//!   sections. Both sides of the stack consume it: the mutators here
//!   and the `InputView`/harness/validator decode in `necofuzz`. No
//!   other code states a section offset.
//! - [`Scenario`] — a typed, **lossless** IR of one input:
//!   [`Scenario::decode`] ∘ [`Scenario::encode`] is the identity on
//!   every 2 KiB input (property-tested), so structured mutation
//!   composes with splicing, persistence, and replay.
//! - [`Operator`] — the section-aware operators: init-step
//!   reorder/duplicate/drop/argument mutation, 4-byte-aligned
//!   runtime-step opcode and operand mutation, VMCS mutation at field
//!   granularity (driven by the `nf_vmx::field` width/offset tables),
//!   MSR-area entry mutation over the `nf_x86::msr` index dictionary,
//!   vCPU feature-bit flips, and AFL-parity wide interesting values.
//! - [`MutatorProfile`] — weighted operator scheduling that adapts:
//!   operators whose offspring get queued earn weight, so the profile
//!   drifts toward whatever the target currently rewards.
//!
//! Everything is a pure function of the RNG stream, so structured
//! campaigns are exactly as reproducible as havoc ones.

use std::ops::Range;

use nf_vmx::{MsrArea, Vmcs, VmcsField};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::{FuzzInput, INPUT_LEN};

/// One contiguous section of the 2 KiB input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionSpan {
    /// Byte offset of the section inside the input.
    pub offset: usize,
    /// Section length in bytes.
    pub len: usize,
}

impl SectionSpan {
    /// First byte past the section.
    pub const fn end(self) -> usize {
        self.offset + self.len
    }

    /// The section immediately following this one.
    pub const fn then(self, len: usize) -> SectionSpan {
        SectionSpan {
            offset: self.end(),
            len,
        }
    }

    /// The section as an index range.
    pub fn range(self) -> Range<usize> {
        self.offset..self.end()
    }
}

/// The single shared schema of the 2 KiB fuzz input.
///
/// Section offsets are derived, never stated: each span is defined as
/// `then(len)` of its predecessor, and the lengths of the structured
/// sections come from the structures themselves ([`Vmcs::BYTES`],
/// [`MsrArea::ENTRY_BYTES`]). A layout-guard test asserts no raw
/// section offset survives anywhere else in the workspace.
pub struct InputLayout;

impl InputLayout {
    /// Meta bytes: phase gates, iteration limits.
    pub const META: SectionSpan = SectionSpan { offset: 0, len: 8 };
    /// Init-phase template mutations (order/argument/repetition).
    pub const INIT: SectionSpan = Self::META.then(64);
    /// Runtime-phase instruction selection and arguments.
    pub const RUNTIME: SectionSpan = Self::INIT.then(Self::RUNTIME_STEPS * Self::STEP_BYTES);
    /// Raw VMCS seed (the full serialized 8000-bit layout; reused as
    /// the VMCB seed on AMD).
    pub const VMCS_SEED: SectionSpan = Self::RUNTIME.then(Vmcs::BYTES);
    /// Post-rounding selective-invalidation directives.
    pub const MUTATE: SectionSpan = Self::VMCS_SEED.then(28);
    /// vCPU configuration bit-array.
    pub const VCPU_CFG: SectionSpan = Self::MUTATE.then(8);
    /// MSR-load-area entries.
    pub const MSR_AREA: SectionSpan = Self::VCPU_CFG.then(Self::MSR_ENTRIES * MsrArea::ENTRY_BYTES);
    /// Unassigned padding up to the 2 KiB input end.
    pub const TAIL: SectionSpan = SectionSpan {
        offset: Self::MSR_AREA.end(),
        len: INPUT_LEN - Self::MSR_AREA.end(),
    };

    /// Bytes per runtime step record (selector + two operands + context).
    pub const STEP_BYTES: usize = 4;
    /// Number of runtime step records.
    pub const RUNTIME_STEPS: usize = 80;
    /// Number of MSR-load-area entries.
    pub const MSR_ENTRIES: usize = 8;

    /// `(ctrl, arg)` pairs steering per-init-step argument corruption.
    pub const INIT_PAIRS: usize = 12;
    /// Offset (inside [`Self::INIT`]) of the adjacent-swap directives:
    /// a count byte followed by swap indices.
    pub const INIT_ORDER: usize = Self::INIT_PAIRS * 2;
    /// Maximum adjacent swaps the harness performs (the count byte is
    /// taken modulo `INIT_SWAPS_MAX + 1`), so only the first
    /// `INIT_SWAPS_MAX` index bytes after the count are live.
    pub const INIT_SWAPS_MAX: usize = 2;
    /// Length of the swap-directive block.
    pub const INIT_ORDER_LEN: usize = 6;
    /// Offset (inside [`Self::INIT`]) of the duplication directive pair.
    pub const INIT_DUP: usize = Self::INIT_ORDER + Self::INIT_ORDER_LEN;
    /// Offset (inside [`Self::INIT`]) of the drop directive pair.
    pub const INIT_DROP: usize = Self::INIT_DUP + 2;
    /// Offset (inside [`Self::INIT`]) of the unassigned init bytes.
    pub const INIT_REST: usize = Self::INIT_DROP + 2;
}

/// FNV-1a offset basis: the root of every scenario-prefix hash chain
/// (the same constants as the hypervisor state digests, so the two
/// hash families stay consistent across the workspace).
const PREFIX_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PREFIX_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The root of a scenario-prefix hash chain (the empty prefix).
///
/// The prefix cache keys mid-scenario snapshots by a rolling hash over
/// everything that shapes execution up to an instruction boundary:
/// callers fold the execution context (hypervisor config, generated
/// VMCS/VMCB/MSR images) into the root first, then extend once per
/// scenario instruction. Two inputs share a cached ancestor exactly
/// when their chains agree through that boundary.
pub const fn prefix_root() -> u64 {
    PREFIX_OFFSET
}

/// Extends a rolling scenario-prefix hash with one canonical byte unit.
///
/// Pure FNV-1a over the bytes, seeded by `h` — associative-free and
/// order-sensitive, so `prefix_extend(prefix_extend(root, a), b)`
/// differs from any reordering. Callers frame variable-length units
/// with [`prefix_extend_u64`] discriminants to keep encodings
/// prefix-free.
pub fn prefix_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(PREFIX_PRIME);
    }
    h
}

/// Extends a rolling scenario-prefix hash with one little-endian `u64`
/// (discriminants, lengths, digests).
pub fn prefix_extend_u64(h: u64, v: u64) -> u64 {
    prefix_extend(h, &v.to_le_bytes())
}

/// Whether two inputs share a scheduling affinity group: byte equality
/// of every section that shapes the *early* execution prefix (init
/// directives, VMCS seed, invalidation directives, vCPU config, MSR
/// area, and the first half of the runtime steps). Corpus scheduling
/// batches consecutive parents by it so back-to-back executions share
/// deep snapshot ancestors. Sections are compared in that order and
/// the comparison stops at the first differing byte, which for two
/// unrelated inputs is almost always the first.
pub fn same_affinity(a: &FuzzInput, b: &FuzzInput) -> bool {
    let same = |s: SectionSpan| a.bytes[s.range()] == b.bytes[s.range()];
    let run = InputLayout::RUNTIME;
    same(InputLayout::INIT)
        && same(InputLayout::VMCS_SEED)
        && same(InputLayout::MUTATE)
        && same(InputLayout::VCPU_CFG)
        && same(InputLayout::MSR_AREA)
        && same(SectionSpan {
            offset: run.offset,
            len: run.len / 2,
        })
}

/// The init section, decoded: the knobs `ExecutionHarness::mutated_plan`
/// reads, each in its own field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitDirectives {
    /// `(ctrl, arg)` pairs: the high ctrl nibble selects a corruption
    /// arm per canonical init step, `arg` parameterizes it.
    pub args: Vec<(u8, u8)>,
    /// Adjacent-swap directives: count byte, then swap indices.
    pub order: Vec<u8>,
    /// Step-duplication directive `(gate, index)`.
    pub dup: (u8, u8),
    /// Step-drop directive `(gate, index)`.
    pub drop: (u8, u8),
    /// Unassigned init bytes (kept for lossless round-trip).
    pub rest: Vec<u8>,
}

/// One 4-byte runtime step record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStep {
    /// Instruction-template selector (Table 1 row).
    pub sel: u8,
    /// First operand byte.
    pub a: u8,
    /// Second operand byte.
    pub b: u8,
    /// Context byte.
    pub ctx: u8,
}

/// One MSR-load-area slot: `(index, value)` as the harness stages it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsrSlot {
    /// Raw MSR index.
    pub index: u32,
    /// Raw value (value legality is exactly what the L0 must check).
    pub value: u64,
}

/// A typed, lossless view of one 2 KiB fuzz input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Meta bytes.
    pub meta: Vec<u8>,
    /// Init-phase directives.
    pub init: InitDirectives,
    /// Runtime steps, 4-byte aligned.
    pub runtime: Vec<RuntimeStep>,
    /// The raw VMCS seed bytes (field-granular access via
    /// [`Scenario::read_field`]/[`Scenario::write_field`]).
    pub vmcs_seed: Vec<u8>,
    /// Selective-invalidation directives.
    pub directives: Vec<u8>,
    /// The vCPU configuration word.
    pub vcpu_cfg: u64,
    /// MSR-load-area slots.
    pub msr_area: Vec<MsrSlot>,
    /// Unassigned tail bytes (kept for lossless round-trip).
    pub tail: Vec<u8>,
}

impl Scenario {
    /// Decodes an input into the typed IR. Total: every byte of the
    /// input lands in exactly one field, so [`Scenario::encode`]
    /// reproduces the input bit-identically.
    pub fn decode(input: &FuzzInput) -> Scenario {
        let bytes = &input.bytes;
        let sec = |s: SectionSpan| &bytes[s.range()];

        let init_bytes = sec(InputLayout::INIT);
        let init = InitDirectives {
            args: (0..InputLayout::INIT_PAIRS)
                .map(|i| (init_bytes[i * 2], init_bytes[i * 2 + 1]))
                .collect(),
            order: init_bytes[InputLayout::INIT_ORDER..InputLayout::INIT_DUP].to_vec(),
            dup: (
                init_bytes[InputLayout::INIT_DUP],
                init_bytes[InputLayout::INIT_DUP + 1],
            ),
            drop: (
                init_bytes[InputLayout::INIT_DROP],
                init_bytes[InputLayout::INIT_DROP + 1],
            ),
            rest: init_bytes[InputLayout::INIT_REST..].to_vec(),
        };

        let runtime = sec(InputLayout::RUNTIME)
            .chunks(InputLayout::STEP_BYTES)
            .map(|c| RuntimeStep {
                sel: c[0],
                a: c[1],
                b: c[2],
                ctx: c[3],
            })
            .collect();

        let msr_area = sec(InputLayout::MSR_AREA)
            .chunks(MsrArea::ENTRY_BYTES)
            .map(|c| MsrSlot {
                index: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                value: u64::from_le_bytes([c[4], c[5], c[6], c[7], c[8], c[9], c[10], c[11]]),
            })
            .collect();

        Scenario {
            meta: sec(InputLayout::META).to_vec(),
            init,
            runtime,
            vmcs_seed: sec(InputLayout::VMCS_SEED).to_vec(),
            directives: sec(InputLayout::MUTATE).to_vec(),
            vcpu_cfg: input.u64_at(InputLayout::VCPU_CFG.offset),
            msr_area,
            tail: sec(InputLayout::TAIL).to_vec(),
        }
    }

    /// Serializes the IR back into the 2 KiB input layout.
    pub fn encode(&self) -> FuzzInput {
        let mut bytes = vec![0u8; INPUT_LEN];
        bytes[InputLayout::META.range()].copy_from_slice(&self.meta);

        let init = &mut bytes[InputLayout::INIT.range()];
        for (i, &(ctrl, arg)) in self.init.args.iter().enumerate() {
            init[i * 2] = ctrl;
            init[i * 2 + 1] = arg;
        }
        init[InputLayout::INIT_ORDER..InputLayout::INIT_DUP].copy_from_slice(&self.init.order);
        init[InputLayout::INIT_DUP] = self.init.dup.0;
        init[InputLayout::INIT_DUP + 1] = self.init.dup.1;
        init[InputLayout::INIT_DROP] = self.init.drop.0;
        init[InputLayout::INIT_DROP + 1] = self.init.drop.1;
        init[InputLayout::INIT_REST..].copy_from_slice(&self.init.rest);

        for (i, step) in self.runtime.iter().enumerate() {
            let off = InputLayout::RUNTIME.offset + i * InputLayout::STEP_BYTES;
            bytes[off..off + InputLayout::STEP_BYTES]
                .copy_from_slice(&[step.sel, step.a, step.b, step.ctx]);
        }

        bytes[InputLayout::VMCS_SEED.range()].copy_from_slice(&self.vmcs_seed);
        bytes[InputLayout::MUTATE.range()].copy_from_slice(&self.directives);
        bytes[InputLayout::VCPU_CFG.range()].copy_from_slice(&self.vcpu_cfg.to_le_bytes());

        for (i, slot) in self.msr_area.iter().enumerate() {
            let off = InputLayout::MSR_AREA.offset + i * MsrArea::ENTRY_BYTES;
            bytes[off..off + 4].copy_from_slice(&slot.index.to_le_bytes());
            bytes[off + 4..off + 12].copy_from_slice(&slot.value.to_le_bytes());
        }

        bytes[InputLayout::TAIL.range()].copy_from_slice(&self.tail);
        FuzzInput { bytes }
    }

    /// Reads a VMCS field out of the raw seed, at the offset and width
    /// the `nf_vmx::field` tables assign it.
    pub fn read_field(&self, field: VmcsField) -> u64 {
        let mut buf = [0u8; 8];
        let span = &self.vmcs_seed[field.seed_offset()..field.seed_offset() + field.seed_len()];
        buf[..span.len()].copy_from_slice(span);
        u64::from_le_bytes(buf)
    }

    /// Writes a VMCS field into the raw seed, masked to the field width.
    pub fn write_field(&mut self, field: VmcsField, value: u64) {
        let value = value & field.width().mask();
        let le = value.to_le_bytes();
        self.vmcs_seed[field.seed_offset()..field.seed_offset() + field.seed_len()]
            .copy_from_slice(&le[..field.seed_len()]);
    }
}

/// AFL's 8-bit interesting values.
pub const INTERESTING_8: [i8; 9] = [-128, -1, 0, 1, 16, 32, 64, 100, 127];

/// AFL's 16-bit interesting values (the 8-bit set plus the 16-bit
/// boundary cases).
pub const INTERESTING_16: [i16; 19] = [
    -128, -1, 0, 1, 16, 32, 64, 100, 127, // INTERESTING_8
    -32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767,
];

/// AFL's 32-bit interesting values (the 16-bit set plus the 32-bit
/// boundary cases).
pub const INTERESTING_32: [i32; 27] = [
    -128,
    -1,
    0,
    1,
    16,
    32,
    64,
    100,
    127, // INTERESTING_8
    -32768,
    -129,
    128,
    255,
    256,
    512,
    1000,
    1024,
    4096,
    32767, // 16-bit extension
    -2147483648,
    -100663046,
    -32769,
    32768,
    65535,
    65536,
    100663045,
    2147483647,
];

/// 64-bit interesting values: the 32-bit set extended with the i64
/// extremes and the canonical-address boundaries VM-entry MSR checks
/// care about (CVE-2024-21106 territory).
pub const INTERESTING_64: [i64; 31] = [
    -128,
    -1,
    0,
    1,
    16,
    32,
    64,
    100,
    127, // INTERESTING_8
    -32768,
    -129,
    128,
    255,
    256,
    512,
    1000,
    1024,
    4096,
    32767, // 16-bit extension
    -2147483648,
    -100663046,
    -32769,
    32768,
    65535,
    65536,
    100663045,
    2147483647, // 32-bit extension
    i64::MIN + 1,
    i64::MAX,
    0x0000_7fff_ffff_ffff,           // last canonical low-half address
    0xffff_8000_0000_0000u64 as i64, // first canonical high-half address
];

/// A section-aware mutation operator.
///
/// Operators are the unit of provenance and of adaptive scheduling:
/// every structured child records the operator that produced it, and
/// operators whose children get queued earn scheduling weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operator {
    /// Mutate one init-step `(ctrl, arg)` pair (argument corruption).
    InitArg,
    /// Mutate the adjacent-swap directives (step reordering).
    InitReorder,
    /// Toggle/retarget the step-duplication directive.
    InitDup,
    /// Toggle/retarget the step-drop directive.
    InitDrop,
    /// Replace runtime-step selectors (4-byte-aligned opcode mutation).
    RuntimeOpcode,
    /// Mutate runtime-step operand/context bytes, selector kept.
    RuntimeOperand,
    /// Mutate whole VMCS fields at their own width and offset.
    VmcsField,
    /// Mutate the selective-invalidation directives the validator reads.
    VmcsDirective,
    /// Rewrite one MSR-area slot from the index dictionary +
    /// interesting values.
    MsrEntry,
    /// Flip vCPU feature / keep-base / nested bits.
    VcpuBits,
    /// AFL-parity wide interesting values: 16/32/64-bit, both
    /// endiannesses, anywhere in the input.
    WideInteresting,
}

impl Operator {
    /// Every operator, in scheduling-table order.
    pub const ALL: [Operator; 11] = [
        Operator::InitArg,
        Operator::InitReorder,
        Operator::InitDup,
        Operator::InitDrop,
        Operator::RuntimeOpcode,
        Operator::RuntimeOperand,
        Operator::VmcsField,
        Operator::VmcsDirective,
        Operator::MsrEntry,
        Operator::VcpuBits,
        Operator::WideInteresting,
    ];

    /// Number of operators.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index into the scheduling tables.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable display name (used by `corpus stat` and the bench JSON).
    pub const fn name(self) -> &'static str {
        match self {
            Operator::InitArg => "init_arg",
            Operator::InitReorder => "init_reorder",
            Operator::InitDup => "init_dup",
            Operator::InitDrop => "init_drop",
            Operator::RuntimeOpcode => "runtime_opcode",
            Operator::RuntimeOperand => "runtime_operand",
            Operator::VmcsField => "vmcs_field",
            Operator::VmcsDirective => "vmcs_directive",
            Operator::MsrEntry => "msr_entry",
            Operator::VcpuBits => "vcpu_bits",
            Operator::WideInteresting => "wide_interesting",
        }
    }

    /// Persistence code (`0` is reserved for "no operator": seeds,
    /// havoc children, unguided inputs).
    pub const fn code(self) -> u8 {
        self as u8 + 1
    }

    /// Inverse of [`Operator::code`].
    pub fn from_code(code: u8) -> Option<Operator> {
        match code {
            0 => None,
            c => Self::ALL.get(c as usize - 1).copied(),
        }
    }
}

/// Initial scheduling weight of every operator.
const BASE_WEIGHT: u32 = 8;
/// Weight earned per queued child.
const CREDIT_STEP: u32 = 2;
/// Adaptive weight ceiling (8x the base: a hot operator dominates
/// without starving the rest).
const WEIGHT_CAP: u32 = 64;

/// Per-operator scheduling statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorStats {
    /// The operator.
    pub op: Operator,
    /// Children generated by this operator.
    pub generated: u64,
    /// Children that earned a queue slot (new coverage).
    pub queued: u64,
    /// Current scheduling weight.
    pub weight: u32,
}

/// Persistable snapshot of a [`MutatorProfile`]: the learned weights
/// and lifetime counters. The pending credit stack is deliberately
/// absent — checkpoints are taken at report boundaries, where the
/// credit decision for the last child has already landed and the stack
/// is dead state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileState {
    /// Current scheduling weight per operator, in table order.
    pub weights: [u32; Operator::COUNT],
    /// Children generated per operator.
    pub generated: [u64; Operator::COUNT],
    /// Children queued per operator.
    pub queued: [u64; Operator::COUNT],
}

/// The weighted, adaptive operator scheduler.
///
/// Selection is a weighted draw over [`Operator::ALL`]; a queued child
/// credits its operator with `CREDIT_STEP` weight up to `WEIGHT_CAP`.
/// Pure function of the RNG stream and the credit sequence, so
/// campaigns stay bit-reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutatorProfile {
    weights: [u32; Operator::COUNT],
    generated: [u64; Operator::COUNT],
    queued: [u64; Operator::COUNT],
    /// Operators drawn by the most recent [`MutatorProfile::mutate`]
    /// stack, pending a [`MutatorProfile::credit_last`] decision.
    last_stack: Vec<Operator>,
}

impl Default for MutatorProfile {
    fn default() -> Self {
        MutatorProfile::balanced()
    }
}

impl MutatorProfile {
    /// A profile with every operator at the base weight.
    pub fn balanced() -> Self {
        MutatorProfile {
            weights: [BASE_WEIGHT; Operator::COUNT],
            generated: [0; Operator::COUNT],
            queued: [0; Operator::COUNT],
            last_stack: Vec::new(),
        }
    }

    /// Current per-operator statistics, in table order.
    pub fn stats(&self) -> Vec<OperatorStats> {
        Operator::ALL
            .iter()
            .map(|&op| OperatorStats {
                op,
                generated: self.generated[op.index()],
                queued: self.queued[op.index()],
                weight: self.weights[op.index()],
            })
            .collect()
    }

    /// Snapshots the learned weights and counters for persistence.
    pub fn state(&self) -> ProfileState {
        ProfileState {
            weights: self.weights,
            generated: self.generated,
            queued: self.queued,
        }
    }

    /// Rebuilds a scheduler from a persisted snapshot (the inverse of
    /// [`MutatorProfile::state`]); future draws continue exactly as the
    /// snapshotted scheduler's would.
    pub fn from_state(state: ProfileState) -> Self {
        MutatorProfile {
            weights: state.weights,
            generated: state.generated,
            queued: state.queued,
            last_stack: Vec::new(),
        }
    }

    /// Credits an operator whose child was queued: its scheduling
    /// weight grows (capped), so productive operators run more often.
    pub fn credit(&mut self, op: Operator) {
        self.queued[op.index()] += 1;
        self.weights[op.index()] = (self.weights[op.index()] + CREDIT_STEP).min(WEIGHT_CAP);
    }

    /// Weighted operator draw.
    fn pick(&self, rng: &mut SmallRng) -> Operator {
        let total: u32 = self.weights.iter().sum();
        let mut ticket = rng.gen_range(0..total);
        for &op in &Operator::ALL {
            let w = self.weights[op.index()];
            if ticket < w {
                return op;
            }
            ticket -= w;
        }
        Operator::WideInteresting // unreachable: tickets < total
    }

    /// Produces one structured child of `parent`: AFL's havoc stacking
    /// lifted to the operator level (FuzzBox-style format-mutation
    /// blending) — 2..=32 weighted operator draws compose into one
    /// child, each applied at its own internal intensity, so a child
    /// can cross several sections while every individual change stays
    /// semantically aligned. Returns the child and the *lead* (first
    /// drawn) operator for entry provenance; every drawn operator is
    /// remembered for crediting via [`MutatorProfile::credit_last`].
    pub fn mutate(&mut self, parent: &FuzzInput, rng: &mut SmallRng) -> (FuzzInput, Operator) {
        let stacking = 1 << rng.gen_range(1..6); // 2..32 draws (AFL parity)
        self.last_stack.clear();
        // Stay in the IR across scenario draws — decode ∘ encode is the
        // identity, so hopping out only for the byte-level operator
        // composes losslessly while sparing a 2 KiB round-trip per draw.
        let mut scenario = Scenario::decode(parent);
        for _ in 0..stacking {
            let op = self.pick(rng);
            self.generated[op.index()] += 1;
            self.last_stack.push(op);
            match op {
                Operator::WideInteresting => {
                    scenario = Scenario::decode(&wide_interesting(scenario.encode(), rng));
                }
                _ => apply_scenario_op(op, &mut scenario, rng),
            }
        }
        let lead = self.last_stack[0];
        (scenario.encode(), lead)
    }

    /// Credits every operator of the most recent [`mutate`] stack: the
    /// child was queued, so each participating operator earns weight.
    ///
    /// [`mutate`]: MutatorProfile::mutate
    pub fn credit_last(&mut self) {
        let stack = std::mem::take(&mut self.last_stack);
        for &op in &stack {
            self.credit(op);
        }
        self.last_stack = stack;
    }
}

/// The MSR-index fuzz dictionary, built once — `MsrEntry` draws from
/// it on the mutation hot path, and the table never changes.
fn msr_dictionary() -> &'static [u32] {
    static DICT: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    DICT.get_or_init(nf_x86::msr::index_dictionary)
}

/// Applies one scenario-level operator in place.
fn apply_scenario_op(op: Operator, s: &mut Scenario, rng: &mut SmallRng) {
    match op {
        Operator::InitArg => {
            // Retarget 1-4 (ctrl, arg) pairs. The high ctrl nibble is
            // what mutated_plan dispatches on, so draw it from the arm
            // vocabulary (0x1_..0x5_ are live arms; higher nibbles are
            // deliberate no-ops that restore the canonical step).
            for _ in 0..rng.gen_range(1..=4u32) {
                let i = rng.gen_range(0..s.init.args.len());
                let arm = rng.gen_range(0..=7u8);
                let low: u8 = rng.gen();
                s.init.args[i] = (arm << 4 | (low & 0x0f), rng.gen());
            }
        }
        Operator::InitReorder => {
            // New swap count + one retargeted swap index, drawn from
            // the *live* slots only — the harness performs at most
            // INIT_SWAPS_MAX swaps, so the later index bytes are dead
            // and mutating them would produce semantically identical
            // children.
            s.init.order[0] = rng.gen();
            let i = rng.gen_range(1..=InputLayout::INIT_SWAPS_MAX);
            s.init.order[i] = rng.gen();
        }
        Operator::InitDup => {
            // The gate fires on the low bits; half the draws arm it,
            // half disarm, and the index byte is always refreshed.
            let gate: u8 = rng.gen();
            s.init.dup = (if rng.gen() { gate | 0x3 } else { gate & !0x3 }, rng.gen());
        }
        Operator::InitDrop => {
            let gate: u8 = rng.gen();
            s.init.drop = (if rng.gen() { gate | 0x7 } else { gate & !0x7 }, rng.gen());
        }
        Operator::RuntimeOpcode => {
            // Reselect 1-16 step opcodes; operands survive, so a step
            // keeps its arguments across instruction-template changes.
            for _ in 0..rng.gen_range(1..=16u32) {
                let i = rng.gen_range(0..s.runtime.len());
                s.runtime[i].sel = rng.gen();
            }
        }
        Operator::RuntimeOperand => {
            // Mutate the operand/context bytes of 1-8 steps.
            for _ in 0..rng.gen_range(1..=8u32) {
                let i = rng.gen_range(0..s.runtime.len());
                let step = &mut s.runtime[i];
                match rng.gen_range(0..3u32) {
                    0 => step.a = rng.gen(),
                    1 => step.b = rng.gen(),
                    _ => step.ctx = rng.gen(),
                }
            }
        }
        Operator::VmcsField => {
            // Mutate 1-16 whole fields at their own width: bit flips,
            // width-sized interesting values, small arithmetic, or a
            // fresh random value (the validator rounds whatever lands
            // here toward validity, so field-granular entropy turns
            // into near-boundary states rather than noise).
            for _ in 0..rng.gen_range(1..=16u32) {
                let field = VmcsField::ALL[rng.gen_range(0..VmcsField::ALL.len())];
                let width = field.width().bits();
                let value = match rng.gen_range(0..4u32) {
                    0 => {
                        let mut v = s.read_field(field);
                        for _ in 0..rng.gen_range(1..=4u32) {
                            v ^= 1 << rng.gen_range(0..width);
                        }
                        v
                    }
                    1 => INTERESTING_64[rng.gen_range(0..INTERESTING_64.len())] as u64,
                    2 => {
                        let delta = rng.gen_range(1..=35u64);
                        if rng.gen() {
                            s.read_field(field).wrapping_add(delta)
                        } else {
                            s.read_field(field).wrapping_sub(delta)
                        }
                    }
                    _ => rng.gen(),
                };
                s.write_field(field, value);
            }
        }
        Operator::VmcsDirective => {
            // The validator reads (field-selector, bit-selector) tuples
            // out of this section; refresh 1-8 of its bytes.
            for _ in 0..rng.gen_range(1..=8u32) {
                let i = rng.gen_range(0..s.directives.len());
                s.directives[i] = rng.gen();
            }
        }
        Operator::MsrEntry => {
            // Entry-level rewrite of 1-4 slots: index from the
            // architectural dictionary, value from the 64-bit
            // interesting set (the canonical-address boundaries live
            // there) or raw entropy.
            let dict = msr_dictionary();
            for _ in 0..rng.gen_range(1..=4u32) {
                let slot = rng.gen_range(0..s.msr_area.len());
                let index = dict[rng.gen_range(0..dict.len())];
                let value = if rng.gen() {
                    INTERESTING_64[rng.gen_range(0..INTERESTING_64.len())] as u64
                } else {
                    rng.gen()
                };
                s.msr_area[slot] = MsrSlot { index, value };
            }
        }
        Operator::VcpuBits => {
            // The config word steers the whole HvConfig, so both scales
            // matter: fine bit flips walk the feature lattice one step
            // at a time, region rewrites jump to a fresh configuration
            // (the configurator masks each region to its own vocabulary,
            // so a random draw is always a *valid* configuration). Live
            // regions: feature bits 0..22, keep-base 32..35, nested
            // 36..40.
            if rng.gen() {
                for _ in 0..rng.gen_range(1..=3u32) {
                    let bit = match rng.gen_range(0..4u32) {
                        0..=1 => rng.gen_range(0..22u32),
                        2 => 32 + rng.gen_range(0..3u32),
                        _ => 36 + rng.gen_range(0..4u32),
                    };
                    s.vcpu_cfg ^= 1 << bit;
                }
            } else {
                let fresh: u64 = rng.gen();
                match rng.gen_range(0..3u32) {
                    0 => s.vcpu_cfg = (s.vcpu_cfg & !0x3f_ffff) | (fresh & 0x3f_ffff),
                    1 => s.vcpu_cfg = (s.vcpu_cfg & !(0xff << 32)) | (fresh & (0xff << 32)),
                    _ => s.vcpu_cfg = fresh,
                }
            }
        }
        Operator::WideInteresting => unreachable!("byte-level operator"),
    }
}

/// AFL-parity wide interesting-value mutation: a 16/32/64-bit value
/// from the interesting tables, written at a random offset in either
/// endianness. Byte-level on purpose — it is the one operator that
/// crosses section boundaries, keeping plain havoc's reach available
/// to the structured profile — but confined to the *live* span (init
/// through MSR area): the reserved meta bytes and the unassigned tail
/// are dead to the decode side, and spending entropy there is exactly
/// the waste this engine exists to avoid.
fn wide_interesting(mut input: FuzzInput, rng: &mut SmallRng) -> FuzzInput {
    let bytes = match rng.gen_range(0..3u32) {
        0 => {
            let v = INTERESTING_16[rng.gen_range(0..INTERESTING_16.len())] as u16;
            if rng.gen() {
                v.to_be_bytes().to_vec()
            } else {
                v.to_le_bytes().to_vec()
            }
        }
        1 => {
            let v = INTERESTING_32[rng.gen_range(0..INTERESTING_32.len())] as u32;
            if rng.gen() {
                v.to_be_bytes().to_vec()
            } else {
                v.to_le_bytes().to_vec()
            }
        }
        _ => {
            let v = INTERESTING_64[rng.gen_range(0..INTERESTING_64.len())] as u64;
            if rng.gen() {
                v.to_be_bytes().to_vec()
            } else {
                v.to_le_bytes().to_vec()
            }
        }
    };
    let live = InputLayout::INIT.offset..InputLayout::MSR_AREA.end();
    let off = rng.gen_range(live.start..=live.end - bytes.len());
    input.bytes[off..off + bytes.len()].copy_from_slice(&bytes);
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn layout_sections_are_contiguous_and_fill_the_input() {
        let spans = [
            InputLayout::META,
            InputLayout::INIT,
            InputLayout::RUNTIME,
            InputLayout::VMCS_SEED,
            InputLayout::MUTATE,
            InputLayout::VCPU_CFG,
            InputLayout::MSR_AREA,
            InputLayout::TAIL,
        ];
        let mut expected = 0;
        for s in spans {
            assert_eq!(s.offset, expected, "sections must be contiguous");
            expected = s.end();
        }
        assert_eq!(expected, INPUT_LEN, "layout must cover the full input");
        assert_eq!(InputLayout::VMCS_SEED.len, Vmcs::BYTES);
        // Compile-time: the init sub-geometry fits inside the section.
        const _: () = assert!(InputLayout::INIT_REST < InputLayout::INIT.len);
    }

    #[test]
    fn prefix_hash_is_deterministic_and_order_sensitive() {
        let a = prefix_extend(prefix_root(), &[1, 2, 3]);
        assert_eq!(a, prefix_extend(prefix_root(), &[1, 2, 3]));
        assert_ne!(a, prefix_extend(prefix_root(), &[3, 2, 1]));
        assert_ne!(a, prefix_root());
        // Extending is associative over concatenation: hashing a full
        // chain equals hashing its pieces in sequence — the property
        // the rolling per-unit chain relies on.
        let ab = prefix_extend(prefix_extend(prefix_root(), &[1, 2]), &[3]);
        assert_eq!(a, ab);
        assert_eq!(
            prefix_extend_u64(prefix_root(), 7),
            prefix_extend(prefix_root(), &7u64.to_le_bytes())
        );
    }

    #[test]
    fn prefix_affinity_keys_on_scenario_shape_not_runtime_tail() {
        let mut rng = SmallRng::seed_from_u64(9);
        let base = FuzzInput::random(&mut rng);
        assert!(same_affinity(&base, &base.clone()), "reflexive");
        // The back half of the runtime section — the part a deep trie
        // hit never re-executes differently — must not split affinity
        // groups.
        let mut tail = base.clone();
        let run = InputLayout::RUNTIME;
        tail.bytes[run.offset + run.len - 1] ^= 0xff;
        assert!(same_affinity(&tail, &base));
        tail.bytes[run.offset + run.len / 2] ^= 0xff;
        assert!(same_affinity(&base, &tail));
        // So must the meta bytes and the unassigned tail.
        let mut outside = base.clone();
        outside.bytes[InputLayout::META.offset] ^= 0xff;
        outside.bytes[InputLayout::TAIL.end() - 1] ^= 0xff;
        assert!(same_affinity(&base, &outside));
        // One differing byte in any keyed section — at its first or
        // its last byte — splits the group, in both argument orders.
        let keyed = [
            InputLayout::INIT,
            InputLayout::VMCS_SEED,
            InputLayout::MUTATE,
            InputLayout::VCPU_CFG,
            InputLayout::MSR_AREA,
            SectionSpan {
                offset: run.offset,
                len: run.len / 2,
            },
        ];
        for span in keyed {
            for at in [span.offset, span.end() - 1] {
                let mut other = base.clone();
                other.bytes[at] ^= 0x01;
                assert!(!same_affinity(&base, &other), "byte {at}");
                assert!(!same_affinity(&other, &base), "byte {at}");
            }
        }
    }

    #[test]
    fn decode_encode_is_identity_on_random_inputs() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..64 {
            let input = FuzzInput::random(&mut rng);
            assert_eq!(Scenario::decode(&input).encode(), input);
        }
        let zero = FuzzInput::zeroed();
        assert_eq!(Scenario::decode(&zero).encode(), zero);
    }

    #[test]
    fn field_accessors_match_vmcs_deserialization() {
        let mut rng = SmallRng::seed_from_u64(2);
        let input = FuzzInput::random(&mut rng);
        let s = Scenario::decode(&input);
        let vmcs = Vmcs::from_bytes(&s.vmcs_seed);
        for &f in VmcsField::ALL {
            assert_eq!(s.read_field(f), vmcs.read(f), "{}", f.name());
        }
    }

    #[test]
    fn write_field_masks_to_width_and_stays_in_span() {
        let mut s = Scenario::decode(&FuzzInput::zeroed());
        s.write_field(VmcsField::GuestEsSelector, 0xffff_ffff);
        assert_eq!(s.read_field(VmcsField::GuestEsSelector), 0xffff);
        // The neighbouring field is untouched.
        assert_eq!(s.read_field(VmcsField::GuestCsSelector), 0);
    }

    #[test]
    fn every_operator_produces_a_changed_full_length_child() {
        let mut rng = SmallRng::seed_from_u64(3);
        let parent = FuzzInput::random(&mut rng);
        for &op in &Operator::ALL {
            // Drive the op directly (bypassing the weighted pick) until
            // it visibly changes the parent; every operator must be
            // able to within a few draws.
            let mut changed = false;
            for _ in 0..16 {
                let child = match op {
                    Operator::WideInteresting => wide_interesting(parent.clone(), &mut rng),
                    _ => {
                        let mut s = Scenario::decode(&parent);
                        apply_scenario_op(op, &mut s, &mut rng);
                        s.encode()
                    }
                };
                assert_eq!(child.bytes.len(), INPUT_LEN);
                if child != parent {
                    changed = true;
                    break;
                }
            }
            assert!(changed, "{} never changed the input", op.name());
        }
    }

    #[test]
    fn operators_touch_only_their_own_section() {
        let mut rng = SmallRng::seed_from_u64(4);
        let parent = FuzzInput::random(&mut rng);
        let section_of = |op: Operator| match op {
            Operator::InitArg | Operator::InitReorder | Operator::InitDup | Operator::InitDrop => {
                InputLayout::INIT
            }
            Operator::RuntimeOpcode | Operator::RuntimeOperand => InputLayout::RUNTIME,
            Operator::VmcsField => InputLayout::VMCS_SEED,
            Operator::VmcsDirective => InputLayout::MUTATE,
            Operator::MsrEntry => InputLayout::MSR_AREA,
            Operator::VcpuBits => InputLayout::VCPU_CFG,
            Operator::WideInteresting => unreachable!(),
        };
        for &op in &Operator::ALL {
            if op == Operator::WideInteresting {
                continue; // deliberately section-crossing
            }
            let span = section_of(op);
            for _ in 0..8 {
                let mut s = Scenario::decode(&parent);
                apply_scenario_op(op, &mut s, &mut rng);
                let child = s.encode();
                for (i, (&a, &b)) in parent.bytes.iter().zip(&child.bytes).enumerate() {
                    if a != b {
                        assert!(
                            span.range().contains(&i),
                            "{} changed byte {i} outside {span:?}",
                            op.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn operator_codes_round_trip() {
        for &op in &Operator::ALL {
            assert_eq!(Operator::from_code(op.code()), Some(op));
        }
        assert_eq!(Operator::from_code(0), None);
        assert_eq!(Operator::from_code(200), None);
    }

    #[test]
    fn profile_adapts_toward_credited_operators() {
        let mut profile = MutatorProfile::balanced();
        for _ in 0..100 {
            profile.credit(Operator::VmcsField);
        }
        let stats = profile.stats();
        let vmcs = stats.iter().find(|s| s.op == Operator::VmcsField).unwrap();
        let other = stats.iter().find(|s| s.op == Operator::InitArg).unwrap();
        assert_eq!(vmcs.weight, WEIGHT_CAP, "credit must cap, not overflow");
        assert_eq!(vmcs.queued, 100);
        assert_eq!(other.weight, BASE_WEIGHT);
        // The hot operator now dominates the draw.
        let mut rng = SmallRng::seed_from_u64(5);
        let picks = (0..400)
            .filter(|_| profile.pick(&mut rng) == Operator::VmcsField)
            .count();
        assert!(picks > 100, "capped operator must dominate: {picks}/400");
    }

    #[test]
    fn profile_mutation_is_deterministic() {
        let parent = FuzzInput::zeroed();
        let run = || {
            let mut profile = MutatorProfile::balanced();
            let mut rng = SmallRng::seed_from_u64(9);
            (0..32)
                .map(|_| profile.mutate(&parent, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn interesting_tables_nest() {
        for &v in &INTERESTING_8 {
            assert!(INTERESTING_16.contains(&(v as i16)));
        }
        for &v in &INTERESTING_16 {
            assert!(INTERESTING_32.contains(&(v as i32)));
        }
        for &v in &INTERESTING_32 {
            assert!(INTERESTING_64.contains(&(v as i64)));
        }
    }
}
