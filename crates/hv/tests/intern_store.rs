//! Property tests for the content-addressed snapshot store.
//!
//! Three families of invariants:
//!
//! - **Refcount accounting** ([`InternStore`]): under arbitrary
//!   interleavings of intern and release, the store's resident bytes
//!   and blob count always equal a naïve model's, every intern return
//!   value is exactly the bytes made newly resident, and a balanced
//!   sequence drains the store to empty.
//! - **Collision safety**: blobs deliberately interned under one shared
//!   digest never alias — value-distinct blobs stay independently
//!   refcounted and round-trip through release untouched.
//! - **Delta-compose ≡ deep copy** ([`SnapshotStore`]): restoring a
//!   hypervisor from an interned snapshot (heavy components swapped
//!   onto canonical shared `Arc`s) lands on exactly the same state as
//!   restoring from a pristine deep clone captured at the same moment,
//!   for every backend/vendor cell and any execution in between.

use std::collections::HashMap;
use std::sync::Arc;

use nf_hv::{HvConfig, InternStore, L0Hypervisor, SiliconGolden, SnapshotStore, Vkvm, Vvbox, Vxen};
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

/// Compact fuzz-step decoder: enough surface to populate every heavy
/// snapshot component (VMCS images, VMCBs, MSR areas) on both vendors.
fn drive_step(hv: &mut dyn L0Hypervisor, caps: &VmxCapabilities, step: &[u8; 4]) {
    let [sel, a, b, c] = *step;
    let addr = 0x1000u64 * (1 + (a % 8) as u64);
    let val = u64::from(b) << 8 | u64::from(c);
    match sel % 8 {
        0 => {
            // The canonical VMX init walk: reaches a loaded, launched
            // vmcs12 so later vmwrites land in staged images.
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
            // The SVM walk: EFER.SVME, a staged golden VMCB, VMRUN.
            hv.l1_exec(GuestInstr::Wrmsr(
                nf_x86::Msr::Efer.index(),
                nf_x86::Efer::LME | nf_x86::Efer::LMA | nf_x86::Efer::SVME,
            ));
            hv.l1_stage_vmcb(0x5000, golden_vmcb());
            hv.l1_exec(GuestInstr::Vmrun(0x5000));
        }
        2 => {
            hv.l1_stage_vmcs_region(addr, caps.revision_id);
            hv.l1_exec(GuestInstr::Vmptrld(addr));
        }
        3 => {
            hv.l1_exec(GuestInstr::Vmwrite(u32::from(b), val));
        }
        4 => {
            hv.l1_exec(GuestInstr::Wrmsr(u32::from(b), val));
        }
        5 => {
            hv.l1_stage_msr_area(addr, nf_vmx::MsrArea::new());
        }
        6 => {
            hv.l2_exec(GuestInstr::Cpuid(u32::from(a)));
        }
        _ => {
            hv.l1_exec(GuestInstr::Rdmsr(0x480 + u32::from(b % 18)));
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

/// The model the refcount property checks against: digest → list of
/// (value, refs, bytes), mirroring the store's collision chains.
#[derive(Default)]
struct Model {
    chains: HashMap<u64, Vec<(Vec<u8>, usize, usize)>>,
}

impl Model {
    fn intern(&mut self, value: &[u8], digest: u64, bytes: usize) -> usize {
        let chain = self.chains.entry(digest).or_default();
        if let Some(e) = chain.iter_mut().find(|e| e.0 == value) {
            e.1 += 1;
            return 0;
        }
        chain.push((value.to_vec(), 1, bytes));
        bytes
    }

    fn release(&mut self, value: &[u8], digest: u64) -> usize {
        let chain = self.chains.get_mut(&digest).expect("model holds digest");
        let idx = chain.iter().position(|e| e.0 == value).expect("model blob");
        chain[idx].1 -= 1;
        if chain[idx].1 > 0 {
            return 0;
        }
        chain.remove(idx).2
    }

    fn resident_bytes(&self) -> usize {
        self.chains.values().flatten().map(|e| e.2).sum()
    }

    fn blob_count(&self) -> usize {
        self.chains.values().map(Vec::len).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary intern/release interleavings: the store's accounting
    /// always matches the naïve model, intern-by-intern.
    #[test]
    fn refcounts_match_a_naive_model(
        ops in proptest::collection::vec(any::<u32>(), 120),
    ) {
        let mut store: InternStore<Vec<u8>> = InternStore::new();
        let mut model = Model::default();
        // Live handles the test still owes a release for.
        let mut held: Vec<(Arc<Vec<u8>>, u64)> = Vec::new();
        for op in ops {
            // A narrow value/digest space forces dedup hits, collision
            // chains (digest = value % 3 maps many values to one
            // digest), and interleaved multi-holder releases.
            let value = vec![(op % 7) as u8; 1 + (op % 5) as usize];
            let digest = u64::from(op % 3);
            let bytes = value.len() * 10;
            if op % 4 != 0 || held.is_empty() {
                let mut blob = Arc::new(value.clone());
                let charged = store.intern(&mut blob, u128::from(digest), bytes);
                prop_assert_eq!(charged, model.intern(&value, digest, bytes));
                held.push((blob, digest));
            } else {
                let (blob, digest) = held.swap_remove((op / 4) as usize % held.len());
                let freed = store.release(&blob, u128::from(digest));
                prop_assert_eq!(freed, model.release(&blob, digest));
            }
            prop_assert_eq!(store.resident_bytes(), model.resident_bytes());
            prop_assert_eq!(store.blob_count(), model.blob_count());
        }
        // Balance the books: after releasing every held handle the
        // store must be empty again.
        for (blob, digest) in held.drain(..) {
            store.release(&blob, u128::from(digest));
        }
        prop_assert_eq!(store.resident_bytes(), 0);
        prop_assert_eq!(store.blob_count(), 0);
    }

    /// Value-distinct blobs interned under one digest never alias:
    /// each keeps its own refcount and round-trips through release
    /// with its own footprint.
    #[test]
    fn colliding_digests_round_trip_without_aliasing(
        values in proptest::collection::vec(any::<u64>(), 24),
    ) {
        const DIGEST: u128 = 0xdead_beef;
        let mut store: InternStore<u64> = InternStore::new();
        let mut held: Vec<Arc<u64>> = Vec::new();
        for v in &values {
            let mut blob = Arc::new(*v);
            store.intern(&mut blob, DIGEST, 8);
            held.push(blob);
        }
        let mut unique: Vec<u64> = values.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(store.blob_count(), unique.len());
        prop_assert_eq!(store.resident_bytes(), unique.len() * 8);
        for v in &unique {
            let refs = store.refs(&Arc::new(*v), DIGEST);
            let want = values.iter().filter(|x| *x == v).count();
            prop_assert_eq!(refs, want, "refcount of {} under collision", v);
        }
        // Distinct blobs sharing the digest must not have been
        // canonicalized onto each other.
        for (i, a) in held.iter().enumerate() {
            for b in &held[i + 1..] {
                if **a != **b {
                    prop_assert!(!Arc::ptr_eq(a, b), "distinct blobs aliased");
                }
            }
        }
        for blob in held.drain(..) {
            store.release(&blob, DIGEST);
        }
        prop_assert_eq!(store.blob_count(), 0);
        prop_assert_eq!(store.resident_bytes(), 0);
    }

    /// Interning a snapshot is value-preserving, dedups a back-to-back
    /// capture completely, and releases back to an empty store — for
    /// every backend/vendor cell.
    #[test]
    fn snapshot_interning_preserves_value_and_balances(
        prefix in proptest::collection::vec(any::<u8>(), 24),
    ) {
        for (name, vendor, mut hv) in grid() {
            let caps = caps_for(vendor);
            drive(hv.as_mut(), &caps, &prefix);
            let pristine = hv.snapshot();
            let mut store = SnapshotStore::new();
            let mut first = pristine.clone();
            let charged = store.intern(&mut first);
            prop_assert_eq!(charged, store.resident_bytes());
            prop_assert!(
                first == pristine,
                "{}/{} interning changed the snapshot's value", name, vendor
            );
            // A back-to-back capture of the unchanged host dedups to
            // zero newly-resident bytes.
            let mut second = hv.snapshot();
            prop_assert_eq!(
                store.intern(&mut second), 0,
                "{}/{} identical capture charged bytes", name, vendor
            );
            prop_assert_eq!(store.release(&second), 0, "other holder remains");
            let freed = store.release(&first);
            prop_assert_eq!(freed, charged, "{}/{} release imbalance", name, vendor);
            prop_assert_eq!(store.resident_bytes(), 0);
            prop_assert_eq!(store.blob_count(), 0);
        }
    }

    /// The tentpole equivalence: restoring from an interned snapshot
    /// (shared canonical components, delta-composed at restore time)
    /// must land on exactly the state a deep-copy restore lands on.
    #[test]
    fn interned_restore_equals_deep_copy_restore(
        prefix in proptest::collection::vec(any::<u8>(), 24),
        suffix in proptest::collection::vec(any::<u8>(), 32),
    ) {
        for (name, vendor, mut hv) in grid() {
            let caps = caps_for(vendor);
            drive(hv.as_mut(), &caps, &prefix);
            let deep = hv.snapshot();
            let mut store = SnapshotStore::new();
            let mut interned = deep.clone();
            store.intern(&mut interned);
            drive(hv.as_mut(), &caps, &suffix);

            hv.restore(&interned);
            let via_interned = hv.snapshot();
            drive(hv.as_mut(), &caps, &suffix);
            hv.restore(&deep);
            let via_deep = hv.snapshot();

            prop_assert!(
                via_interned == via_deep,
                "{}/{} interned restore diverged from deep-copy restore",
                name, vendor
            );
            prop_assert!(
                via_deep == deep,
                "{}/{} restore is not an identity", name, vendor
            );
        }
    }
}
