//! Reset equivalence (proptest) for every backend and vendor: the
//! execution engine reuses one instance across the execs of a config,
//! calling `reset_guest` between them (`reboot_host` once the host
//! died). That is only sound if a reset instance is indistinguishable
//! from a freshly built one, whatever ran on it before.
//!
//! Indistinguishable means: the same probe stream gets the same result
//! at every step, records the same trace, and ends in the same
//! [`nf_hv::GuestObservation`] and [`HostHealth`] (kernel log and
//! reports included). Every step runs through the backend's
//! instruction preamble, so in the dev profile the nested-L1 core's
//! invariant `debug_assert!` checks each one too.
//!
//! The differential oracle's replays run on hosts with coverage
//! recording off, which is only sound if the switch changes nothing but
//! the trace: a non-recording host must answer every step, and end
//! every reset, reboot and host death, exactly like a recording one,
//! with its trace empty throughout.

use nf_coverage::ExecTrace;
use nf_hv::vkvm::GUEST_MEM_LIMIT;
use nf_hv::{
    FaultPlan, GuestObservation, HostHealth, HvConfig, L0Hypervisor, L1Result, L2Result,
    SiliconGolden, Vkvm, Vvbox, Vxen, DEFAULT_WATCHDOG_FUEL,
};
use nf_silicon::{golden_vmcb, golden_vmcs, CrIndex, GuestInstr, GOLDEN_EPTP};
use nf_vmx::{MsrArea, MsrAreaEntry, Vmcs, VmcsField, VmxCapabilities};
use nf_x86::{CpuVendor, Cr0, Cr4, FeatureSet};
use proptest::prelude::*;

/// Builds a freshly booted instance of one grid cell.
type Build = fn() -> Box<dyn L0Hypervisor>;

/// Every (backend, vendor) cell of the grid (vvbox is Intel-only),
/// the golden reference included.
fn grid() -> [(&'static str, CpuVendor, Build); 7] {
    [
        ("vkvm", CpuVendor::Intel, || {
            Box::new(Vkvm::new(HvConfig::default_for(CpuVendor::Intel)))
        }),
        ("vkvm", CpuVendor::Amd, || {
            Box::new(Vkvm::new(HvConfig::default_for(CpuVendor::Amd)))
        }),
        ("vxen", CpuVendor::Intel, || {
            Box::new(Vxen::new(HvConfig::default_for(CpuVendor::Intel)))
        }),
        ("vxen", CpuVendor::Amd, || {
            Box::new(Vxen::new(HvConfig::default_for(CpuVendor::Amd)))
        }),
        ("vvbox", CpuVendor::Intel, || {
            Box::new(Vvbox::new(HvConfig::default_for(CpuVendor::Intel)))
        }),
        ("golden", CpuVendor::Intel, || {
            Box::new(SiliconGolden::new(HvConfig::default_for(CpuVendor::Intel)))
        }),
        ("golden", CpuVendor::Amd, || {
            Box::new(SiliconGolden::new(HvConfig::default_for(CpuVendor::Amd)))
        }),
    ]
}

/// What one guest instruction returned.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    L1(L1Result),
    L2(L2Result),
}

/// Everything a probe stream can observe of an instance.
#[derive(Debug, PartialEq)]
struct Probe {
    steps: Vec<Step>,
    trace: ExecTrace,
    guest: GuestObservation,
    health: HostHealth,
}

/// Decodes one fuzz step into a hypervisor interaction, recording the
/// result of every instruction it runs. Covers the whole mutable
/// surface: VMX/SVM instruction emulation, CR/MSR state, region
/// staging, the L2 dispatch path, the init sequences that reach a live
/// nested guest, and the host's health: with `a` odd, those sequences
/// point the nested root (EPTP, nCR3) outside guest memory, which
/// vkvm's seeded dummy-root bug answers with an assertion report and a
/// kernel log line on a live host.
fn drive_step(
    hv: &mut dyn L0Hypervisor,
    caps: &VmxCapabilities,
    step: &[u8; 4],
    out: &mut Vec<Step>,
) {
    let [sel, a, b, c] = *step;
    let addr = 0x1000u64 * (1 + (a % 8) as u64);
    let val = u64::from(b) << 8 | u64::from(c);
    let mut l1 = |hv: &mut dyn L0Hypervisor, instr| out.push(Step::L1(hv.l1_exec(instr)));
    match sel % 20 {
        0 => {
            // Walk the canonical init sequence so later steps can hit
            // the post-vmxon / post-vmptrld / in-L2 states.
            let mut golden = golden_vmcs(caps);
            if a & 1 == 1 {
                golden.write(VmcsField::EptPointer, GUEST_MEM_LIMIT | GOLDEN_EPTP & 0xfff);
            }
            init_walk(hv, caps, &golden, out);
        }
        1 => {
            l1(
                hv,
                GuestInstr::Wrmsr(
                    nf_x86::Msr::Efer.index(),
                    nf_x86::Efer::LME | nf_x86::Efer::LMA | nf_x86::Efer::SVME,
                ),
            );
            let mut vmcb = golden_vmcb();
            if a & 1 == 1 {
                vmcb.control.ncr3 = GUEST_MEM_LIMIT;
            }
            hv.l1_stage_vmcb(0x5000, vmcb);
            l1(hv, GuestInstr::Vmrun(0x5000));
        }
        2 => l1(hv, GuestInstr::Vmxon(addr)),
        3 => l1(hv, GuestInstr::Vmclear(addr)),
        4 => {
            hv.l1_stage_vmcs_region(addr, u32::from(b));
            l1(hv, GuestInstr::Vmptrld(addr));
        }
        5 => l1(hv, GuestInstr::Vmwrite(u32::from(b), val)),
        6 => l1(hv, GuestInstr::Vmread(u32::from(b))),
        7 => l1(hv, GuestInstr::Vmlaunch),
        8 => l1(hv, GuestInstr::Vmresume),
        9 => l1(hv, GuestInstr::MovToCr(CrIndex::Cr4, val)),
        10 => l1(hv, GuestInstr::MovToCr(CrIndex::Cr0, val | Cr0::PE)),
        11 => l1(hv, GuestInstr::Wrmsr(u32::from(b), val)),
        12 => l1(hv, GuestInstr::Rdmsr(0x480 + u32::from(b % 18))),
        13 => hv.l1_stage_msr_area(addr, nf_vmx::MsrArea::new()),
        14 => l1(hv, GuestInstr::Vmrun(addr)),
        15 => l1(hv, GuestInstr::Stgi),
        16 => l1(hv, GuestInstr::Clgi),
        17 => out.push(Step::L2(hv.l2_exec(GuestInstr::Cpuid(u32::from(a))))),
        18 => out.push(Step::L2(hv.l2_exec(GuestInstr::Hlt))),
        _ => l1(hv, GuestInstr::Vmxoff),
    }
}

/// L1's init sequence: VMXON, VMCLEAR and VMPTRLD of 0x2000, a VMWRITE
/// of every writable field of `vmcs`, then VMLAUNCH.
fn init_walk(hv: &mut dyn L0Hypervisor, caps: &VmxCapabilities, vmcs: &Vmcs, out: &mut Vec<Step>) {
    let mut l1 = |hv: &mut dyn L0Hypervisor, instr| out.push(Step::L1(hv.l1_exec(instr)));
    l1(hv, GuestInstr::MovToCr(CrIndex::Cr4, Cr4::VMXE | Cr4::PAE));
    l1(
        hv,
        GuestInstr::MovToCr(CrIndex::Cr0, Cr0::PE | Cr0::PG | Cr0::NE),
    );
    l1(hv, GuestInstr::Vmxon(0x1000));
    l1(hv, GuestInstr::Vmclear(0x2000));
    hv.l1_stage_vmcs_region(0x2000, caps.revision_id);
    l1(hv, GuestInstr::Vmptrld(0x2000));
    for &f in VmcsField::ALL {
        if f.writable() {
            l1(hv, GuestInstr::Vmwrite(f.encoding(), vmcs.read(f)));
        }
    }
    l1(hv, GuestInstr::Vmlaunch);
}

fn caps_for(vendor: CpuVendor) -> VmxCapabilities {
    VmxCapabilities::from_features(FeatureSet::default_for(vendor).sanitized(vendor))
}

/// Runs every 4-byte step of `bytes`, returning each instruction's
/// result.
fn drive(hv: &mut dyn L0Hypervisor, caps: &VmxCapabilities, bytes: &[u8]) -> Vec<Step> {
    let mut steps = Vec::new();
    for chunk in bytes.chunks_exact(4) {
        drive_step(
            hv,
            caps,
            &[chunk[0], chunk[1], chunk[2], chunk[3]],
            &mut steps,
        );
    }
    steps
}

/// Runs `bytes` as one exec and collects what it observed.
fn probe(hv: &mut dyn L0Hypervisor, caps: &VmxCapabilities, bytes: &[u8]) -> Probe {
    let steps = drive(hv, caps, bytes);
    Probe {
        steps,
        trace: hv.take_trace(),
        guest: hv.observe_guest(),
        health: hv.health().clone(),
    }
}

/// Prepares `hv` for the next exec the way the agent and engine do:
/// the previous exec's trace is collected, a dead host is rebooted by
/// the watchdog, and a live one gets a guest reset.
fn reset_for_next_exec(hv: &mut dyn L0Hypervisor) {
    hv.take_trace();
    if hv.health().dead {
        hv.reboot_host();
    } else {
        hv.reset_guest();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core property: any prefix, then a reset, then any probe —
    /// the probe sees exactly what it sees on a fresh instance.
    #[test]
    fn a_reset_instance_runs_any_probe_like_a_fresh_one(
        prefix in proptest::collection::vec(any::<u8>(), 24),
        suffix in proptest::collection::vec(any::<u8>(), 40),
    ) {
        for (name, vendor, build) in grid() {
            let caps = caps_for(vendor);
            let mut hv = build();
            drive(hv.as_mut(), &caps, &prefix);
            reset_for_next_exec(hv.as_mut());
            let reused = probe(hv.as_mut(), &caps, &suffix);
            let fresh = probe(build().as_mut(), &caps, &suffix);
            prop_assert_eq!(reused, fresh, "{}/{} reset vs fresh", name, vendor);
        }
    }

    /// Replay: one instance reused across a run of execs, reset between
    /// them, then across the same run again, answers every exec exactly
    /// as it did the first time — however many resets came before.
    #[test]
    fn a_reset_instance_replays_every_exec_step_for_step(
        execs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 20), 3),
    ) {
        for (name, vendor, build) in grid() {
            let caps = caps_for(vendor);
            let mut hv = build();
            let mut first = Vec::new();
            for exec in &execs {
                first.push(probe(hv.as_mut(), &caps, exec));
                reset_for_next_exec(hv.as_mut());
            }
            for (i, exec) in execs.iter().enumerate() {
                let replayed = probe(hv.as_mut(), &caps, exec);
                prop_assert_eq!(&replayed, &first[i], "{}/{} exec {} replay", name, vendor, i);
                reset_for_next_exec(hv.as_mut());
            }
        }
    }
}

/// One op of a recording-switch run, by `op % 4`: a guest reset, a
/// watchdog reboot, or (twice as likely) an exec of `bytes` with a
/// host death scheduled at its `index`, as the fault plan decides.
fn run_op(
    hv: &mut dyn L0Hypervisor,
    caps: &VmxCapabilities,
    faults: &nf_hv::SharedFaults,
    index: u64,
    op: u8,
    bytes: &[u8],
) -> Vec<Step> {
    match op % 4 {
        0 => {
            hv.reset_guest();
            Vec::new()
        }
        1 => {
            hv.reboot_host();
            Vec::new()
        }
        _ => {
            faults
                .borrow_mut()
                .begin_exec(index, 0, DEFAULT_WATCHDOG_FUEL);
            drive(hv, caps, bytes)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The recording switch: a host with recording off runs any op
    /// sequence, resets, reboots and injected host deaths included,
    /// with the same per-step results, guest state and health as a
    /// recording host, and never holds a hit.
    #[test]
    fn a_non_recording_host_runs_every_step_like_a_recording_one(
        ops in proptest::collection::vec(any::<u8>(), 8),
        execs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 24), 8),
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan {
            seed,
            host_death_p16: 1 << 13,
            ..FaultPlan::default()
        };
        for (name, vendor, build) in grid() {
            let caps = caps_for(vendor);
            let (mut recording, mut silent) = (build(), build());
            let (on, off) = (nf_hv::fault::shared(plan), nf_hv::fault::shared(plan));
            recording.install_faults(on.clone());
            silent.install_faults(off.clone());
            silent.core_mut().set_recording(false);
            for (i, (&op, bytes)) in ops.iter().zip(&execs).enumerate() {
                let at = format!("{name}/{vendor} op {i}");
                let want = run_op(recording.as_mut(), &caps, &on, i as u64, op, bytes);
                let got = run_op(silent.as_mut(), &caps, &off, i as u64, op, bytes);
                prop_assert_eq!(got, want, "{} steps", at);
                prop_assert_eq!(silent.observe_guest(), recording.observe_guest(), "{}", at);
                prop_assert_eq!(silent.health(), recording.health(), "{}", at);
                prop_assert!(!silent.core().recording(), "{}: the switch was kept", at);
                prop_assert!(silent.trace().is_empty(), "{}: a hit was recorded", at);
            }
        }
    }
}

/// The branch the property takes only when a random prefix happens to
/// kill the host: a host that died mid-exec and was rebooted by the
/// watchdog runs a probe like a freshly built one.
#[test]
fn a_rebooted_host_runs_probes_like_a_fresh_one() {
    let kill = FaultPlan {
        seed: 1,
        host_death_p16: 1 << 16,
        ..FaultPlan::default()
    };
    // The init walk (step 0) runs more instructions than the latest
    // scheduled death (64), so every cell dies during it.
    let prefix = [0, 1, 2, 3, 9, 200, 7, 7, 1, 0, 0, 0];
    let suffix = [0, 0, 0, 0, 6, 0, 0x1e, 0, 18, 0, 0, 0, 12, 3, 0, 0];
    for (name, vendor, build) in grid() {
        let caps = caps_for(vendor);
        let mut hv = build();
        let faults = nf_hv::fault::shared(kill);
        faults.borrow_mut().begin_exec(0, 0, DEFAULT_WATCHDOG_FUEL);
        hv.install_faults(faults);
        drive(hv.as_mut(), &caps, &prefix);
        assert!(hv.health().dead, "{name}/{vendor}: the plan kills the host");
        reset_for_next_exec(hv.as_mut());
        let reused = probe(hv.as_mut(), &caps, &suffix);
        let fresh = probe(build().as_mut(), &caps, &suffix);
        assert_eq!(reused, fresh, "{name}/{vendor} reboot vs fresh");
    }
}

/// The golden VMX init walk with a VM-entry MSR-load list at 0x3000
/// that queues a non-canonical FS base, then names an unknown MSR.
/// vvbox queues host MSR values unvalidated (CVE-2024-21106) and fails
/// the entry at the unknown index, leaving the FS base queued for the
/// next entry of this instance.
fn queue_a_poisoned_host_msr(hv: &mut dyn L0Hypervisor, caps: &VmxCapabilities) {
    let area = MsrArea {
        entries: vec![
            MsrAreaEntry {
                index: nf_x86::Msr::FsBase.index(),
                value: 1 << 63,
            },
            MsrAreaEntry {
                index: 0x1234,
                value: 0,
            },
        ],
    };
    hv.l1_stage_msr_area(0x3000, area);
    let mut golden = golden_vmcs(caps);
    golden.write(VmcsField::VmEntryMsrLoadAddr, 0x3000);
    golden.write(VmcsField::VmEntryMsrLoadCount, 2);
    init_walk(hv, caps, &golden, &mut Vec::new());
}

/// Backend state beyond the core that the step vocabulary cannot
/// reach: vvbox's host MSR queue. A reset must drop what a failed entry
/// left queued, or the next exec's first good entry loads it.
#[test]
fn a_reset_drops_host_msrs_a_failed_entry_queued() {
    let caps = caps_for(CpuVendor::Intel);
    let probe_steps = [0, 0, 0, 0];

    // Without a reset the queued value reaches the host context.
    let mut vbox = Vvbox::new(HvConfig::default_for(CpuVendor::Intel));
    queue_a_poisoned_host_msr(&mut vbox, &caps);
    assert!(
        !vbox.health().dead,
        "the failed entry leaves the host alive"
    );
    let crashed = probe(&mut vbox, &caps, &probe_steps);
    assert_eq!(crashed.steps.last(), Some(&Step::L1(L1Result::HostDead)));

    for (name, vendor, build) in grid() {
        let caps = caps_for(vendor);
        let mut hv = build();
        queue_a_poisoned_host_msr(hv.as_mut(), &caps);
        reset_for_next_exec(hv.as_mut());
        let reused = probe(hv.as_mut(), &caps, &probe_steps);
        let fresh = probe(build().as_mut(), &caps, &probe_steps);
        assert_eq!(
            reused, fresh,
            "{name}/{vendor} reset after a queued host MSR"
        );
    }
}
