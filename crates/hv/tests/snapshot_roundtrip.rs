//! Snapshot round-trip properties (proptest) for every backend and
//! vendor: `restore(snapshot(hv))` must leave all guest-visible and
//! health state identical, no matter what instruction stream ran
//! before the capture or between capture and restore.
//!
//! State identity is asserted through the snapshots themselves —
//! [`HvSnapshot`] captures exactly the guest-visible + health surface
//! and compares with `==` — plus behavioral probes (the same
//! instruction must produce the same result before and after a
//! restore).

use nf_hv::{HvConfig, HvSnapshot, L0Hypervisor, SiliconGolden, Vkvm, Vvbox, Vxen};
use nf_silicon::{golden_vmcb, golden_vmcs, CrIndex, GuestInstr};
use nf_vmx::VmxCapabilities;
use nf_x86::{CpuVendor, Cr0, Cr4, FeatureSet};
use proptest::prelude::*;

/// Every (backend, vendor) cell of the grid (vvbox is Intel-only),
/// the golden reference included.
fn grid() -> Vec<(&'static str, CpuVendor, Box<dyn L0Hypervisor>)> {
    let mk = |vendor| HvConfig::default_for(vendor);
    vec![
        (
            "vkvm",
            CpuVendor::Intel,
            Box::new(Vkvm::new(mk(CpuVendor::Intel))) as _,
        ),
        (
            "vkvm",
            CpuVendor::Amd,
            Box::new(Vkvm::new(mk(CpuVendor::Amd))) as _,
        ),
        (
            "vxen",
            CpuVendor::Intel,
            Box::new(Vxen::new(mk(CpuVendor::Intel))) as _,
        ),
        (
            "vxen",
            CpuVendor::Amd,
            Box::new(Vxen::new(mk(CpuVendor::Amd))) as _,
        ),
        (
            "vvbox",
            CpuVendor::Intel,
            Box::new(Vvbox::new(mk(CpuVendor::Intel))) as _,
        ),
        (
            "golden",
            CpuVendor::Intel,
            Box::new(SiliconGolden::new(mk(CpuVendor::Intel))) as _,
        ),
        (
            "golden",
            CpuVendor::Amd,
            Box::new(SiliconGolden::new(mk(CpuVendor::Amd))) as _,
        ),
    ]
}

/// Decodes one fuzz step into a hypervisor interaction. Covers the
/// whole mutable surface: VMX/SVM instruction emulation, CR/MSR state,
/// region staging, the L2 dispatch path, and the init sequence that
/// reaches a live nested guest.
fn drive_step(hv: &mut dyn L0Hypervisor, caps: &VmxCapabilities, step: &[u8; 4]) {
    let [sel, a, b, c] = *step;
    let addr = 0x1000u64 * (1 + (a % 8) as u64);
    let val = u64::from(b) << 8 | u64::from(c);
    match sel % 20 {
        0 => {
            // Walk the canonical init sequence so later steps can hit
            // the post-vmxon / post-vmptrld / in-L2 states.
            hv.l1_exec(GuestInstr::MovToCr(CrIndex::Cr4, Cr4::VMXE | Cr4::PAE));
            hv.l1_exec(GuestInstr::MovToCr(
                CrIndex::Cr0,
                Cr0::PE | Cr0::PG | Cr0::NE,
            ));
            hv.l1_exec(GuestInstr::Vmxon(0x1000));
            hv.l1_exec(GuestInstr::Vmclear(0x2000));
            hv.l1_stage_vmcs_region(0x2000, caps.revision_id);
            hv.l1_exec(GuestInstr::Vmptrld(0x2000));
            let golden = golden_vmcs(caps);
            for &f in nf_vmx::VmcsField::ALL {
                if f.writable() {
                    hv.l1_exec(GuestInstr::Vmwrite(f.encoding(), golden.read(f)));
                }
            }
            hv.l1_exec(GuestInstr::Vmlaunch);
        }
        1 => {
            hv.l1_exec(GuestInstr::Wrmsr(
                nf_x86::Msr::Efer.index(),
                nf_x86::Efer::LME | nf_x86::Efer::LMA | nf_x86::Efer::SVME,
            ));
            hv.l1_stage_vmcb(0x5000, golden_vmcb());
            hv.l1_exec(GuestInstr::Vmrun(0x5000));
        }
        2 => {
            hv.l1_exec(GuestInstr::Vmxon(addr));
        }
        3 => {
            hv.l1_exec(GuestInstr::Vmclear(addr));
        }
        4 => {
            hv.l1_stage_vmcs_region(addr, u32::from(b));
            hv.l1_exec(GuestInstr::Vmptrld(addr));
        }
        5 => {
            hv.l1_exec(GuestInstr::Vmwrite(u32::from(b), val));
        }
        6 => {
            hv.l1_exec(GuestInstr::Vmread(u32::from(b)));
        }
        7 => {
            hv.l1_exec(GuestInstr::Vmlaunch);
        }
        8 => {
            hv.l1_exec(GuestInstr::Vmresume);
        }
        9 => {
            hv.l1_exec(GuestInstr::MovToCr(CrIndex::Cr4, val));
        }
        10 => {
            hv.l1_exec(GuestInstr::MovToCr(CrIndex::Cr0, val | Cr0::PE));
        }
        11 => {
            hv.l1_exec(GuestInstr::Wrmsr(u32::from(b), val));
        }
        12 => {
            hv.l1_exec(GuestInstr::Rdmsr(0x480 + u32::from(b % 18)));
        }
        13 => {
            hv.l1_stage_msr_area(addr, nf_vmx::MsrArea::new());
        }
        14 => {
            hv.l1_exec(GuestInstr::Vmrun(addr));
        }
        15 => {
            hv.l1_exec(GuestInstr::Stgi);
        }
        16 => {
            hv.l1_exec(GuestInstr::Clgi);
        }
        17 => {
            hv.l2_exec(GuestInstr::Cpuid(u32::from(a)));
        }
        18 => {
            hv.l2_exec(GuestInstr::Hlt);
        }
        _ => {
            hv.l1_exec(GuestInstr::Vmxoff);
        }
    }
}

fn caps_for(vendor: CpuVendor) -> VmxCapabilities {
    VmxCapabilities::from_features(FeatureSet::default_for(vendor).sanitized(vendor))
}

fn drive(hv: &mut dyn L0Hypervisor, caps: &VmxCapabilities, bytes: &[u8]) {
    for chunk in bytes.chunks_exact(4) {
        drive_step(hv, caps, &[chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core property: snapshot → arbitrary execution → restore
    /// lands on exactly the captured state, for every backend/vendor.
    #[test]
    fn restore_after_arbitrary_execution_is_identity(
        prefix in proptest::collection::vec(any::<u8>(), 24),
        suffix in proptest::collection::vec(any::<u8>(), 40),
    ) {
        for (name, vendor, mut hv) in grid() {
            let caps = caps_for(vendor);
            drive(hv.as_mut(), &caps, &prefix);
            hv.take_trace();
            let captured = hv.snapshot();
            drive(hv.as_mut(), &caps, &suffix);
            hv.restore(&captured);
            prop_assert_eq!(
                hv.snapshot(), captured.clone(),
                "{}/{} state diverged after restore", name, vendor
            );
        }
    }

    /// Immediate round trip: `restore(snapshot(hv))` on an undirtied
    /// instance is an identity (the delta restore copies nothing).
    #[test]
    fn immediate_roundtrip_is_identity(
        prefix in proptest::collection::vec(any::<u8>(), 32),
    ) {
        for (name, vendor, mut hv) in grid() {
            let caps = caps_for(vendor);
            drive(hv.as_mut(), &caps, &prefix);
            let captured = hv.snapshot();
            hv.restore(&captured);
            prop_assert_eq!(
                hv.snapshot(), captured.clone(),
                "{}/{} immediate round trip", name, vendor
            );
        }
    }

    /// Behavioral identity: a restored host answers a probe exactly as
    /// it did at capture time (state equality is not just structural).
    #[test]
    fn restored_host_replays_probe_results(
        prefix in proptest::collection::vec(any::<u8>(), 24),
        probe_sel in any::<u8>(),
        probe_args in proptest::collection::vec(any::<u8>(), 3),
    ) {
        let step = [probe_sel, probe_args[0], probe_args[1], probe_args[2]];
        for (name, vendor, mut hv) in grid() {
            let caps = caps_for(vendor);
            drive(hv.as_mut(), &caps, &prefix);
            let captured = hv.snapshot();
            drive_step(hv.as_mut(), &caps, &step);
            let first = hv.snapshot();
            hv.restore(&captured);
            drive_step(hv.as_mut(), &caps, &step);
            prop_assert_eq!(
                hv.snapshot(), first.clone(),
                "{}/{} probe replay diverged", name, vendor
            );
        }
    }
}

/// Restoring a foreign backend's snapshot is a programming error.
#[test]
#[should_panic(expected = "cannot restore")]
fn cross_backend_restore_panics() {
    let kvm = Vkvm::new(HvConfig::default_for(CpuVendor::Intel));
    let snap: HvSnapshot = kvm.snapshot();
    let mut xen = Vxen::new(HvConfig::default_for(CpuVendor::Intel));
    xen.restore(&snap);
}

/// Boot snapshots make `reset_guest` + health reset redundant: the
/// fast path the execution engine runs on.
#[test]
fn boot_snapshot_equals_reboot_state() {
    for (name, vendor, mut hv) in grid() {
        let caps = caps_for(vendor);
        let boot = hv.snapshot();
        drive(hv.as_mut(), &caps, &[0, 1, 2, 3, 9, 200, 7, 7, 1, 0, 0, 0]);
        hv.reboot_host();
        assert_eq!(hv.snapshot(), boot, "{name}/{vendor} reboot vs boot image");
    }
}
