//! The VM execution harness (paper §3.3, §4.2).
//!
//! The harness is the part of the fuzz-harness VM that executes
//! instructions. It operates in two phases:
//!
//! - **Initialization phase**: a domain-specific template of the VMX/SVM
//!   setup sequence (`vmxon` → `vmclear` → `vmptrld` → `vmwrite`* →
//!   `vmlaunch`). Fuzzing input mutates instruction *ordering*,
//!   *argument values*, and *repetition counts* while preserving enough
//!   structure to avoid immediate termination.
//! - **Runtime phase**: a library of exit-triggering instruction
//!   templates (Table 1) executed in L2 and, on reflected exits, in the
//!   L1 handler context, with operands derived from fuzzing input.

use nf_fuzz::InputLayout;
use nf_hv::{L0Hypervisor, L1Result, L2Result};
use nf_silicon::{CrIndex, GuestInstr};
use nf_vmx::{MsrArea, Vmcb, Vmcs, VmcsField};
use nf_x86::msr::ALL_MSRS;
use nf_x86::{CpuVendor, Cr0, Cr4, Efer};

use crate::validator::MSR_AREA_GPA;

/// Guest-physical addresses the harness uses for its regions.
pub const VMXON_GPA: u64 = 0x1000;
/// VMCS12 region address.
pub const VMCS12_GPA: u64 = 0x2000;
/// VMCB12 region address.
pub const VMCB12_GPA: u64 = 0x5000;

/// One step of the initialization template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStep {
    /// Set `CR4.VMXE` (+ the other `vmxon` preconditions).
    EnableVmx,
    /// Set `CR4.VMXE` but leave CR0 in a state `vmxon` rejects with #GP.
    EnableVmxBadCr0,
    /// Set `EFER.SVME`.
    EnableSvm,
    /// `vmxon` with an address.
    Vmxon(u64),
    /// `vmclear` with an address.
    Vmclear(u64),
    /// Write the VMCS region revision header.
    StageRevision(u32),
    /// `vmptrld` with an address.
    Vmptrld(u64),
    /// Write the generated VMCS12 through `vmwrite`s.
    WriteVmcs,
    /// Stage the MSR-load area in guest memory.
    StageMsrArea,
    /// `vmlaunch`.
    Launch,
    /// Stage the generated VMCB12 in guest memory.
    StageVmcb,
    /// `vmrun` with an address.
    Vmrun(u64),
}

/// One observable unit of a harness execution: the result of an init
/// step, an L2 instruction, or an L1 exit-handler action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecEvent {
    /// An initialization step completed (fires
    /// [`ExecObserver::on_init_step`]).
    Init(L1Result),
    /// A live L2 guest ran one instruction (fires
    /// [`ExecObserver::on_l2_result`]).
    L2(L2Result),
    /// The L1 exit handler ran one action (fires
    /// [`ExecObserver::on_l1_action`]).
    L1(L1Result),
}

impl ExecEvent {
    /// Fires the observer hook this event corresponds to.
    pub fn replay<O: ExecObserver>(&self, observer: &mut O) {
        match self {
            ExecEvent::Init(r) => observer.on_init_step(r),
            ExecEvent::L2(r) => observer.on_l2_result(r),
            ExecEvent::L1(r) => observer.on_l1_action(r),
        }
    }
}

/// The harness phase machine threaded across scenario units: whether a
/// nested guest is live, whether the host died, and the VM-exit count.
/// [`ExecPhase::apply`] is the transition function both phase loops
/// use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPhase {
    /// A nested guest is live.
    pub l2_live: bool,
    /// The host died (execution stops).
    pub host_dead: bool,
    /// VM exits triggered so far in the runtime phase.
    pub exits: u32,
}

impl ExecPhase {
    /// The phase at the start of an execution (no guest, host alive).
    pub fn boot() -> Self {
        ExecPhase {
            l2_live: false,
            host_dead: false,
            exits: 0,
        }
    }

    /// Applies one event's phase transition.
    pub fn apply(&mut self, event: &ExecEvent) {
        match event {
            ExecEvent::Init(r) | ExecEvent::L1(r) => match r {
                L1Result::L2Entered { runnable } => self.l2_live = *runnable,
                L1Result::HostDead => self.host_dead = true,
                _ => {}
            },
            ExecEvent::L2(r) => match r {
                L2Result::NoExit => {}
                L2Result::HandledByL0 => self.exits += 1,
                L2Result::ReflectedToL1(_) => {
                    self.exits += 1;
                    self.l2_live = false;
                }
                L2Result::NoGuest => self.l2_live = false,
                L2Result::HostDead => self.host_dead = true,
            },
        }
    }
}

/// The executable initialization plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitPlan {
    /// Steps in execution order.
    pub steps: Vec<InitStep>,
}

/// Outcome of running the initialization phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitOutcome {
    /// A nested guest is live (entry succeeded and it can run).
    pub l2_live: bool,
    /// The host died during initialization (watchdog territory).
    pub host_dead: bool,
}

/// Observes the L1-visible events of one harness execution — the seam
/// the differential oracle records its canonical observation through
/// (see `crate::differential`).
///
/// Every hook has a no-op default, and the plain
/// [`ExecutionHarness::run_init`] / [`ExecutionHarness::run_runtime`]
/// entry points go through [`NopObserver`]: the observed variants are
/// monomorphized, so the unobserved hot path stays bit-identical to
/// the pre-observer code.
pub trait ExecObserver {
    /// One initialization step completed with `result`.
    fn on_init_step(&mut self, result: &L1Result) {
        let _ = result;
    }

    /// The live L2 guest ran one instruction with `result`.
    fn on_l2_result(&mut self, result: &L2Result) {
        let _ = result;
    }

    /// The L1 exit handler executed one action with `result`.
    fn on_l1_action(&mut self, result: &L1Result) {
        let _ = result;
    }
}

/// The observer behind the plain (unobserved) harness entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopObserver;

impl ExecObserver for NopObserver {}

/// The VM execution harness.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionHarness {
    /// Vendor of the virtual CPU the harness runs on.
    pub vendor: CpuVendor,
}

impl ExecutionHarness {
    /// Creates a harness for `vendor`.
    pub fn new(vendor: CpuVendor) -> Self {
        ExecutionHarness { vendor }
    }

    /// The canonical (unmutated) initialization template.
    pub fn canonical_plan(&self, revision: u32) -> InitPlan {
        let steps = match self.vendor {
            CpuVendor::Intel => vec![
                InitStep::EnableVmx,
                InitStep::Vmxon(VMXON_GPA),
                InitStep::Vmclear(VMCS12_GPA),
                InitStep::StageRevision(revision),
                InitStep::Vmptrld(VMCS12_GPA),
                InitStep::WriteVmcs,
                InitStep::StageMsrArea,
                InitStep::Launch,
            ],
            CpuVendor::Amd => vec![
                InitStep::EnableSvm,
                InitStep::StageVmcb,
                InitStep::Vmrun(VMCB12_GPA),
            ],
        };
        InitPlan { steps }
    }

    /// Builds a mutated initialization plan from the init-section bytes:
    /// byte pairs drive step swaps, duplications, skips, and argument
    /// corruption, preserving overall structure (paper §4.2). The
    /// section's sub-geometry — where the `(ctrl, arg)` pairs end and
    /// the order/duplication/drop directives sit — comes from
    /// [`InputLayout`], the same schema the structure-aware mutators
    /// write through.
    pub fn mutated_plan(&self, revision: u32, init_bytes: &[u8]) -> InitPlan {
        let mut plan = self.canonical_plan(revision);
        let b = |i: usize| init_bytes.get(i).copied().unwrap_or(0);

        // Argument corruption: low-probability, targeted. One (ctrl,
        // arg) pair per canonical step, from the pair region.
        debug_assert!(plan.steps.len() <= InputLayout::INIT_PAIRS);
        for (i, step) in plan.steps.iter_mut().enumerate() {
            let ctrl = b(i * 2);
            let arg = b(i * 2 + 1);
            match step {
                InitStep::Vmxon(addr) if ctrl & 0xf0 == 0x10 => {
                    *addr = VMXON_GPA + arg as u64; // misalignment arm
                }
                InitStep::EnableVmx if ctrl & 0xf0 == 0x50 => {
                    *step = InitStep::EnableVmxBadCr0;
                }
                InitStep::Vmclear(addr) | InitStep::Vmptrld(addr) => {
                    if ctrl & 0xf0 == 0x20 {
                        *addr = VMXON_GPA; // the vmxon-pointer arm
                    } else if ctrl & 0xf0 == 0x30 {
                        *addr = VMCS12_GPA + ((arg as u64) << 12); // other region
                    } else if ctrl & 0xf0 == 0x50 {
                        *addr = VMCS12_GPA | (arg as u64 | 1); // misaligned
                    }
                }
                InitStep::StageRevision(rev) if ctrl & 0xf0 == 0x40 => {
                    *rev = revision ^ (arg as u32 + 1); // bad-revision arm
                }
                InitStep::Vmrun(addr) if ctrl & 0xf0 == 0x10 => {
                    *addr = VMCB12_GPA + ((arg as u64 + 1) << 12); // unstaged VMCB
                }
                _ => {}
            }
        }
        // Order mutation: swap adjacent steps (the count modulus is
        // part of the shared schema — mutators only target live slots).
        let swaps = b(InputLayout::INIT_ORDER) as usize % (InputLayout::INIT_SWAPS_MAX + 1);
        for s in 0..swaps {
            let i = b(InputLayout::INIT_ORDER + 1 + s) as usize
                % plan.steps.len().saturating_sub(1).max(1);
            plan.steps.swap(i, i + 1);
        }
        // Repetition: duplicate one step.
        if b(InputLayout::INIT_DUP) & 0x3 == 0x3 {
            let i = b(InputLayout::INIT_DUP + 1) as usize % plan.steps.len();
            let step = plan.steps[i];
            plan.steps.insert(i, step);
        }
        // Skip: drop one step (never the final launch).
        if b(InputLayout::INIT_DROP) & 0x7 == 0x7 && plan.steps.len() > 2 {
            let i = b(InputLayout::INIT_DROP + 1) as usize % (plan.steps.len() - 1);
            plan.steps.remove(i);
        }
        plan
    }

    /// Executes an initialization plan against the L0 hypervisor.
    #[allow(clippy::too_many_arguments)]
    pub fn run_init(
        &self,
        hv: &mut dyn L0Hypervisor,
        plan: &InitPlan,
        vmcs12: &Vmcs,
        vmcb12: &Vmcb,
        msr_area: &MsrArea,
    ) -> InitOutcome {
        self.run_init_observed(hv, plan, vmcs12, vmcb12, msr_area, &mut NopObserver)
    }

    /// [`run_init`](Self::run_init) with an [`ExecObserver`] seeing the
    /// [`L1Result`] of every step, including a terminal `HostDead`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_init_observed<O: ExecObserver>(
        &self,
        hv: &mut dyn L0Hypervisor,
        plan: &InitPlan,
        vmcs12: &Vmcs,
        vmcb12: &Vmcb,
        msr_area: &MsrArea,
        observer: &mut O,
    ) -> InitOutcome {
        let mut phase = ExecPhase::boot();
        for step in &plan.steps {
            let result = self.exec_init_step(hv, *step, vmcs12, vmcb12, msr_area);
            observer.on_init_step(&result);
            phase.apply(&ExecEvent::Init(result));
            if phase.host_dead {
                return InitOutcome {
                    l2_live: false,
                    host_dead: true,
                };
            }
        }
        InitOutcome {
            l2_live: phase.l2_live,
            host_dead: false,
        }
    }

    /// Executes one initialization step — the per-unit kernel of
    /// [`run_init_observed`](Self::run_init_observed).
    pub fn exec_init_step(
        &self,
        hv: &mut dyn L0Hypervisor,
        step: InitStep,
        vmcs12: &Vmcs,
        vmcb12: &Vmcb,
        msr_area: &MsrArea,
    ) -> L1Result {
        match step {
            InitStep::EnableVmx => {
                hv.l1_exec(GuestInstr::MovToCr(CrIndex::Cr4, Cr4::VMXE | Cr4::PAE));
                hv.l1_exec(GuestInstr::MovToCr(
                    CrIndex::Cr0,
                    Cr0::PE | Cr0::PG | Cr0::NE,
                ))
            }
            InitStep::EnableVmxBadCr0 => {
                hv.l1_exec(GuestInstr::MovToCr(CrIndex::Cr4, Cr4::VMXE | Cr4::PAE));
                // CR0.NE clear: vmxon must #GP.
                hv.l1_exec(GuestInstr::MovToCr(CrIndex::Cr0, Cr0::PE | Cr0::PG))
            }
            InitStep::EnableSvm => hv.l1_exec(GuestInstr::Wrmsr(
                nf_x86::Msr::Efer.index(),
                Efer::LME | Efer::LMA | Efer::SVME,
            )),
            InitStep::Vmxon(addr) => hv.l1_exec(GuestInstr::Vmxon(addr)),
            InitStep::Vmclear(addr) => hv.l1_exec(GuestInstr::Vmclear(addr)),
            InitStep::StageRevision(rev) => {
                hv.l1_stage_vmcs_region(VMCS12_GPA, rev);
                L1Result::Ok(0)
            }
            InitStep::Vmptrld(addr) => hv.l1_exec(GuestInstr::Vmptrld(addr)),
            InitStep::WriteVmcs => {
                let mut last = L1Result::Ok(0);
                for &f in VmcsField::ALL {
                    if f.writable() {
                        last = hv.l1_exec(GuestInstr::Vmwrite(f.encoding(), vmcs12.read(f)));
                    }
                }
                last
            }
            InitStep::StageMsrArea => {
                hv.l1_stage_msr_area(MSR_AREA_GPA, msr_area.clone());
                L1Result::Ok(0)
            }
            InitStep::Launch => hv.l1_exec(GuestInstr::Vmlaunch),
            InitStep::StageVmcb => {
                hv.l1_stage_vmcb(VMCB12_GPA, *vmcb12);
                L1Result::Ok(0)
            }
            InitStep::Vmrun(addr) => hv.l1_exec(GuestInstr::Vmrun(addr)),
        }
    }

    /// Decodes one L2 instruction template from a 4-byte step record
    /// (selector, two argument bytes, context byte).
    pub fn decode_l2_instr(&self, step: &[u8]) -> GuestInstr {
        let sel = step.first().copied().unwrap_or(0);
        let a = step.get(1).copied().unwrap_or(0);
        let b = step.get(2).copied().unwrap_or(0);
        let arg16 = u16::from_le_bytes([a, b]);
        let arg64 = ((a as u64) << 8 | b as u64) << ((sel as u64 % 8) * 8);
        match sel % 28 {
            0 => GuestInstr::Cpuid(a as u32),
            1 => GuestInstr::Hlt,
            2 => GuestInstr::In(arg16),
            3 => GuestInstr::Out(arg16, b as u32),
            4 => GuestInstr::Rdmsr(ALL_MSRS[a as usize % ALL_MSRS.len()].index()),
            5 => GuestInstr::Wrmsr(ALL_MSRS[a as usize % ALL_MSRS.len()].index(), arg64),
            6 => GuestInstr::Rdmsr(arg16 as u32), // raw index: unknown-MSR arms
            7 => GuestInstr::MovToCr(CrIndex::Cr0, arg64 | Cr0::PE),
            8 => GuestInstr::MovToCr(CrIndex::Cr3, arg64),
            9 => GuestInstr::MovToCr(CrIndex::Cr4, arg64),
            10 => GuestInstr::MovToCr(CrIndex::Cr8, (a & 0xf) as u64),
            11 => GuestInstr::MovFromCr(CrIndex::Cr3),
            12 => GuestInstr::MovToDr(a % 8, arg64),
            13 => GuestInstr::Rdtsc,
            14 => GuestInstr::Pause,
            15 => GuestInstr::Rdrand,
            16 => GuestInstr::Invlpg(arg64),
            17 => GuestInstr::Wbinvd,
            18 => GuestInstr::Xsetbv(arg64 & 0x7),
            19 => GuestInstr::Mwait,
            20 => GuestInstr::Monitor,
            21 => GuestInstr::Rdpmc,
            22 => GuestInstr::Rdseed,
            23 => GuestInstr::Vmcall,
            // Nested-nested attempts: VMX/SVM instructions from L2.
            24 => match self.vendor {
                CpuVendor::Intel => GuestInstr::Vmxon(arg64 & !0xfff),
                CpuVendor::Amd => GuestInstr::Vmrun(arg64 & !0xfff),
            },
            // Foreign-vendor instruction: #UD -> exception/shutdown exits.
            25 => match self.vendor {
                CpuVendor::Intel => GuestInstr::Vmrun(arg64 & !0xfff),
                CpuVendor::Amd => GuestInstr::Vmxon(arg64 & !0xfff),
            },
            // Memory access: EPT-violation / #GP / triple-fault paths.
            26 => GuestInstr::TouchMemory(arg64),
            _ => GuestInstr::Nop,
        }
    }

    /// Decodes one L1 exit-handler action.
    pub fn decode_l1_action(&self, step: &[u8]) -> GuestInstr {
        let sel = step.first().copied().unwrap_or(0);
        let a = step.get(1).copied().unwrap_or(0);
        let b = step.get(2).copied().unwrap_or(0);
        let value = u16::from_le_bytes([a, b]) as u64;
        let arg64 = || ((a as u64) << 8 | b as u64) << ((sel as u64 % 8) * 8);
        let resume = || match self.vendor {
            CpuVendor::Intel => GuestInstr::Vmresume,
            CpuVendor::Amd => GuestInstr::Vmrun(VMCB12_GPA),
        };
        match sel % 16 {
            0..=4 => resume(),
            5 => GuestInstr::Vmread(VmcsField::ALL[a as usize % VmcsField::ALL.len()].encoding()),
            6 => GuestInstr::Vmwrite(
                VmcsField::ALL[a as usize % VmcsField::ALL.len()].encoding(),
                value << (b % 48),
            ),
            7 => match self.vendor {
                CpuVendor::Intel => GuestInstr::Vmlaunch,
                CpuVendor::Amd => GuestInstr::Vmrun(VMCB12_GPA),
            },
            8 => GuestInstr::Rdmsr(ALL_MSRS[a as usize % ALL_MSRS.len()].index()),
            9 => match self.vendor {
                // Writes to the VMX capability MSRs #GP from a guest.
                CpuVendor::Intel => GuestInstr::Wrmsr(0x480 + (a as u32 % 18), value),
                CpuVendor::Amd => GuestInstr::Vmload(VMCB12_GPA),
            },
            10 => match self.vendor {
                // Raw invept/invvpid types: > 3 exercises the bad-type arms.
                CpuVendor::Intel => GuestInstr::Invept((a % 6) as u64),
                CpuVendor::Amd => GuestInstr::Vmsave(VMCB12_GPA),
            },
            11 => match self.vendor {
                CpuVendor::Intel => GuestInstr::Invvpid((a % 6) as u64),
                CpuVendor::Amd => GuestInstr::Stgi,
            },
            12 => match self.vendor {
                CpuVendor::Intel => GuestInstr::Vmptrst,
                CpuVendor::Amd => GuestInstr::Clgi,
            },
            13 => match self.vendor {
                // Load a different (zero-initialized) VMCS region, or
                // tear VMX down entirely.
                CpuVendor::Intel => {
                    if a & 1 == 0 {
                        GuestInstr::Vmptrld(VMCS12_GPA + 0x1000)
                    } else {
                        GuestInstr::Vmxoff
                    }
                }
                CpuVendor::Amd => GuestInstr::Vmmcall,
            },
            14 => match self.vendor {
                // Raw (frequently invalid) field encodings.
                CpuVendor::Intel => {
                    if a & 1 == 0 {
                        GuestInstr::Vmread(value as u32)
                    } else {
                        GuestInstr::Vmwrite(value as u32, arg64())
                    }
                }
                CpuVendor::Amd => resume(),
            },
            _ => GuestInstr::Vmcall,
        }
    }

    /// Runs the runtime phase: the tight L2/L1 loop of §4.2. Returns the
    /// number of VM exits the loop triggered.
    pub fn run_runtime(
        &self,
        hv: &mut dyn L0Hypervisor,
        runtime_bytes: &[u8],
        l2_live: bool,
    ) -> u32 {
        self.run_runtime_observed(hv, runtime_bytes, l2_live, &mut NopObserver)
    }

    /// [`run_runtime`](Self::run_runtime) with an [`ExecObserver`]
    /// seeing every [`L2Result`] and L1-action [`L1Result`].
    pub fn run_runtime_observed<O: ExecObserver>(
        &self,
        hv: &mut dyn L0Hypervisor,
        runtime_bytes: &[u8],
        l2_live: bool,
        observer: &mut O,
    ) -> u32 {
        let mut phase = ExecPhase {
            l2_live,
            host_dead: false,
            exits: 0,
        };
        for step in runtime_bytes.chunks(InputLayout::STEP_BYTES) {
            let event = self.exec_runtime_step(hv, step, phase.l2_live);
            event.replay(observer);
            phase.apply(&event);
            if phase.host_dead {
                break;
            }
        }
        phase.exits
    }

    /// Executes one 4-byte runtime step record — an L2 instruction when
    /// a nested guest is live, an L1 exit-handler action otherwise. The
    /// per-unit kernel of
    /// [`run_runtime_observed`](Self::run_runtime_observed).
    pub fn exec_runtime_step(
        &self,
        hv: &mut dyn L0Hypervisor,
        step: &[u8],
        l2_live: bool,
    ) -> ExecEvent {
        if l2_live {
            ExecEvent::L2(hv.l2_exec(self.decode_l2_instr(step)))
        } else {
            ExecEvent::L1(hv.l1_exec(self.decode_l1_action(step)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_hv::{HvConfig, Vkvm};
    use nf_silicon::{golden_vmcb, golden_vmcs};
    use nf_vmx::VmxCapabilities;
    use nf_x86::FeatureSet;

    fn intel_setup() -> (Vkvm, ExecutionHarness, Vmcs) {
        let kvm = Vkvm::new(HvConfig::default_for(CpuVendor::Intel));
        let harness = ExecutionHarness::new(CpuVendor::Intel);
        let caps = VmxCapabilities::from_features(FeatureSet::default_for(CpuVendor::Intel));
        let vmcs = golden_vmcs(&caps);
        (kvm, harness, vmcs)
    }

    #[test]
    fn exec_phase_tracks_the_scenario_state_machine() {
        let mut phase = ExecPhase::boot();
        assert!(!phase.l2_live && !phase.host_dead && phase.exits == 0);
        phase.apply(&ExecEvent::Init(L1Result::L2Entered { runnable: true }));
        assert!(phase.l2_live);
        phase.apply(&ExecEvent::L2(L2Result::HandledByL0));
        assert_eq!(phase.exits, 1);
        phase.apply(&ExecEvent::L2(L2Result::ReflectedToL1(0x28)));
        assert_eq!(phase.exits, 2);
        assert!(!phase.l2_live, "a reflected exit returns control to L1");
        phase.apply(&ExecEvent::L1(L1Result::L2Entered { runnable: false }));
        assert!(!phase.l2_live, "a stalled entry is not live");
        phase.apply(&ExecEvent::L2(L2Result::HostDead));
        assert!(phase.host_dead);
    }

    #[test]
    fn exec_event_replay_fires_the_matching_observer_hook() {
        #[derive(Default)]
        struct Counts(u32, u32, u32);
        impl ExecObserver for Counts {
            fn on_init_step(&mut self, _: &L1Result) {
                self.0 += 1;
            }
            fn on_l2_result(&mut self, _: &L2Result) {
                self.1 += 1;
            }
            fn on_l1_action(&mut self, _: &L1Result) {
                self.2 += 1;
            }
        }
        let mut counts = Counts::default();
        ExecEvent::Init(L1Result::Ok(0)).replay(&mut counts);
        ExecEvent::L2(L2Result::NoExit).replay(&mut counts);
        ExecEvent::L2(L2Result::NoGuest).replay(&mut counts);
        ExecEvent::L1(L1Result::Ok(1)).replay(&mut counts);
        assert_eq!((counts.0, counts.1, counts.2), (1, 2, 1));
    }

    #[test]
    fn canonical_plan_boots_l2_on_vkvm() {
        let (mut kvm, harness, vmcs) = intel_setup();
        let plan = harness.canonical_plan(VmxCapabilities::REVISION);
        let out = harness.run_init(&mut kvm, &plan, &vmcs, &golden_vmcb(), &MsrArea::new());
        assert!(out.l2_live, "golden state must reach L2");
        assert!(!out.host_dead);
    }

    #[test]
    fn canonical_amd_plan_boots_l2() {
        let mut kvm = Vkvm::new(HvConfig::default_for(CpuVendor::Amd));
        let harness = ExecutionHarness::new(CpuVendor::Amd);
        let caps = VmxCapabilities::from_features(FeatureSet::default_for(CpuVendor::Intel));
        let plan = harness.canonical_plan(VmxCapabilities::REVISION);
        let out = harness.run_init(
            &mut kvm,
            &plan,
            &golden_vmcs(&caps),
            &golden_vmcb(),
            &MsrArea::new(),
        );
        assert!(out.l2_live);
    }

    #[test]
    fn mutated_plans_preserve_structure() {
        let harness = ExecutionHarness::new(CpuVendor::Intel);
        let plan = harness.mutated_plan(7, &[0u8; 64]);
        assert_eq!(plan, harness.canonical_plan(7), "zero bytes = canonical");
        let mutated = harness.mutated_plan(7, &[0xff; 64]);
        assert!(!mutated.steps.is_empty());
        assert!(mutated.steps.len() <= harness.canonical_plan(7).steps.len() + 1);
    }

    #[test]
    fn runtime_loop_triggers_exits() {
        let (mut kvm, harness, vmcs) = intel_setup();
        let plan = harness.canonical_plan(VmxCapabilities::REVISION);
        let out = harness.run_init(&mut kvm, &plan, &vmcs, &golden_vmcb(), &MsrArea::new());
        assert!(out.l2_live);
        // Step records selecting cpuid (always exits, always reflected).
        let steps = [0u8, 1, 0, 0, 0, 2, 0, 0];
        let exits = harness.run_runtime(&mut kvm, &steps, true);
        assert!(exits >= 1, "cpuid from L2 must exit");
    }

    #[test]
    fn l2_decoder_covers_table1_classes() {
        use nf_silicon::InstrClass;
        let harness = ExecutionHarness::new(CpuVendor::Intel);
        let mut classes = std::collections::BTreeSet::new();
        for sel in 0..=255u8 {
            let instr = harness.decode_l2_instr(&[sel, 1, 2, 3]);
            classes.insert(format!("{:?}", instr.class()));
        }
        for want in [
            "VmxInstruction",
            "PrivilegedRegister",
            "IoMsr",
            "Misc",
            "Plain",
        ] {
            assert!(classes.contains(want), "missing class {want}");
        }
        let _ = InstrClass::Misc;
    }
}
