//! The content-addressed, refcounted snapshot blob store.
//!
//! A [`crate::HvSnapshot`] is dominated by a handful of heavy
//! components: per-address [`Vmcs`] / [`Vmcb`] images and MSR
//! load/store areas. Consecutive mid-scenario snapshots of the same
//! execution differ in at most one or two of them — everything else is
//! byte-identical — so deep-copying every component into every trie
//! node (PR 7's layout) pays for the same kilobytes over and over and
//! burns the byte budget on duplicates.
//!
//! This module is the copy-on-write alternative. Snapshot structs hold
//! their heavy components behind [`Arc`] handles; an [`InternStore`]
//! keys each blob by a 128-bit FNV-1a content digest and swaps
//! value-equal blobs onto one canonical `Arc`, refcounted by explicit
//! `intern` / `release` calls. The store reports exactly how many bytes
//! an intern made *newly* resident (0 on a dedup hit) and how many a
//! release freed (0 while other holders remain), so the trie's budget
//! accounting can charge each unique blob once — the same budget holds
//! many times more boundaries. Digest collisions are handled, not
//! assumed away: entries with one digest form a chain and are value-
//! compared, so two distinct blobs never alias.
//!
//! [`SnapshotStore`] bundles one typed store per component kind and
//! dispatches whole snapshots. Every heavy component sits in the
//! shared nested-L1 half of a snapshot, so the walk exists once, next
//! to that type in [`crate::l1`]. Restores stay value-based delta
//! copies — see [`SharedRestore`].

use std::collections::BTreeMap;
use std::sync::Arc;

use nf_vmx::{MsrArea, MsrAreaEntry, Vmcb, Vmcs};

use crate::api::HvSnapshot;

/// 128-bit FNV-1a offset basis.
pub const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
pub const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 128-bit FNV-1a hasher for blob content digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest128(u128);

impl Digest128 {
    /// Starts a digest at the offset basis.
    pub fn new() -> Self {
        Digest128(FNV128_OFFSET)
    }

    /// Folds one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u128::from(b);
        self.0 = self.0.wrapping_mul(FNV128_PRIME);
    }

    /// Folds a byte slice.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Folds a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u128 {
        self.0
    }
}

impl Default for Digest128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Content digest of a [`Vmcs`]: every field in catalogue order plus
/// the lifecycle state and revision id (the parts its equality covers).
pub fn digest_vmcs(v: &Vmcs) -> u128 {
    let mut d = Digest128::new();
    for &f in nf_vmx::VmcsField::ALL {
        d.u64(v.read(f));
    }
    d.byte(v.state as u8);
    d.u32(v.revision_id);
    d.value()
}

/// Content digest of a [`Vmcb`] (its full serialized image).
pub fn digest_vmcb(v: &Vmcb) -> u128 {
    let mut d = Digest128::new();
    d.bytes(&v.to_bytes());
    d.value()
}

/// Content digest of an [`MsrArea`] (its entry list in order).
pub fn digest_msr_area(a: &MsrArea) -> u128 {
    let mut d = Digest128::new();
    for e in &a.entries {
        d.u32(e.index);
        d.u64(e.value);
    }
    d.value()
}

/// Resident footprint charged for one [`Vmcs`] blob.
pub fn vmcs_bytes() -> usize {
    std::mem::size_of::<Vmcs>()
}

/// Resident footprint charged for one [`Vmcb`] blob.
pub fn vmcb_bytes() -> usize {
    std::mem::size_of::<Vmcb>()
}

/// Resident footprint charged for one [`MsrArea`] blob.
pub fn msr_area_bytes(a: &MsrArea) -> usize {
    std::mem::size_of::<MsrArea>() + a.entries.len() * std::mem::size_of::<MsrAreaEntry>()
}

struct InternEntry<T> {
    blob: Arc<T>,
    refs: usize,
    bytes: usize,
}

/// A content-addressed, refcounted blob store for one component type.
///
/// Blobs are keyed by a caller-supplied 128-bit digest; entries sharing
/// a digest form a chain and are distinguished by value comparison, so
/// the store is correct even under digest collisions. Refcounts are
/// explicit: every [`InternStore::intern`] must be balanced by one
/// [`InternStore::release`] of the same blob (releasing a blob the
/// store does not hold is a caller bug and panics).
///
/// The digest is a parameter rather than a trait method so foreign
/// types (e.g. `nf_coverage::ExecTrace`, event-log segments) can be
/// interned by downstream crates without orphan-rule contortions.
pub struct InternStore<T> {
    chains: BTreeMap<u128, Vec<InternEntry<T>>>,
    resident_bytes: usize,
    blob_count: usize,
    interned_bytes: u64,
    unique_bytes: u64,
}

impl<T: PartialEq> InternStore<T> {
    /// An empty store.
    pub fn new() -> Self {
        InternStore {
            chains: BTreeMap::new(),
            resident_bytes: 0,
            blob_count: 0,
            interned_bytes: 0,
            unique_bytes: 0,
        }
    }

    /// Interns `blob` under `digest`, charging `bytes` for its
    /// footprint. When a value-equal blob is already resident, its
    /// refcount is bumped and `blob` is swapped onto the canonical
    /// `Arc` (the duplicate's memory is dropped with the caller's last
    /// clone); otherwise the blob becomes resident with refcount 1.
    ///
    /// Returns the bytes this call made *newly* resident: `bytes` for a
    /// first-time blob, `0` for a dedup hit — the delta the caller's
    /// budget accounting should charge.
    pub fn intern(&mut self, blob: &mut Arc<T>, digest: u128, bytes: usize) -> usize {
        self.interned_bytes += bytes as u64;
        let chain = self.chains.entry(digest).or_default();
        for entry in chain.iter_mut() {
            if Arc::ptr_eq(&entry.blob, blob) || *entry.blob == **blob {
                entry.refs += 1;
                *blob = Arc::clone(&entry.blob);
                return 0;
            }
        }
        chain.push(InternEntry {
            blob: Arc::clone(blob),
            refs: 1,
            bytes,
        });
        self.resident_bytes += bytes;
        self.blob_count += 1;
        self.unique_bytes += bytes as u64;
        bytes
    }

    /// Releases one reference to `blob` (previously interned under
    /// `digest`). Returns the bytes freed: the blob's recorded
    /// footprint when this was the last reference, `0` while other
    /// holders remain.
    ///
    /// # Panics
    ///
    /// Panics if the store holds no matching blob under `digest` —
    /// an unbalanced release is a refcounting bug.
    pub fn release(&mut self, blob: &Arc<T>, digest: u128) -> usize {
        let chain = self
            .chains
            .get_mut(&digest)
            .expect("release of a digest the store does not hold");
        let idx = chain
            .iter()
            .position(|e| Arc::ptr_eq(&e.blob, blob) || *e.blob == **blob)
            .expect("release of a blob the store does not hold");
        chain[idx].refs -= 1;
        if chain[idx].refs > 0 {
            return 0;
        }
        let freed = chain.remove(idx).bytes;
        if chain.is_empty() {
            self.chains.remove(&digest);
        }
        self.resident_bytes -= freed;
        self.blob_count -= 1;
        freed
    }

    /// Current refcount of a resident blob (`0` when absent) — test and
    /// invariant-check surface.
    pub fn refs(&self, blob: &Arc<T>, digest: u128) -> usize {
        self.chains
            .get(&digest)
            .and_then(|chain| {
                chain
                    .iter()
                    .find(|e| Arc::ptr_eq(&e.blob, blob) || *e.blob == **blob)
            })
            .map_or(0, |e| e.refs)
    }

    /// Bytes currently resident (each unique blob charged once).
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Number of unique blobs currently resident.
    pub fn blob_count(&self) -> usize {
        self.blob_count
    }

    /// Cumulative bytes offered to [`InternStore::intern`].
    pub fn interned_bytes(&self) -> u64 {
        self.interned_bytes
    }

    /// Cumulative bytes that were new to the store (the unique subset
    /// of [`InternStore::interned_bytes`]; their ratio is the dedup
    /// ratio).
    pub fn unique_bytes(&self) -> u64 {
        self.unique_bytes
    }
}

impl<T: PartialEq> Default for InternStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// One typed [`InternStore`] per heavy snapshot component, plus
/// whole-snapshot dispatch: [`SnapshotStore::intern`] walks every
/// `Arc`-held component of an [`HvSnapshot`] through the matching
/// store (canonicalizing its handles in place), and
/// [`SnapshotStore::release`] walks them back out.
pub struct SnapshotStore {
    /// Interned VMCS images (`vmcs12_mem` entries and `vmcs02`).
    pub vmcs: InternStore<Vmcs>,
    /// Interned VMCB images (`vmcb12_mem` entries).
    pub vmcb: InternStore<Vmcb>,
    /// Interned MSR load/store areas.
    pub msr: InternStore<MsrArea>,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        SnapshotStore {
            vmcs: InternStore::new(),
            vmcb: InternStore::new(),
            msr: InternStore::new(),
        }
    }

    /// Interns every shared component of `snap`, swapping its handles
    /// onto the canonical `Arc`s. Returns the bytes newly resident
    /// (each component already held by an earlier snapshot charges 0).
    pub fn intern(&mut self, snap: &mut HvSnapshot) -> usize {
        snap.core_mut().intern_into(self)
    }

    /// Releases every shared component of a previously interned `snap`.
    /// Returns the bytes freed (components still held elsewhere free 0).
    pub fn release(&mut self, snap: &HvSnapshot) -> usize {
        snap.core().release_from(self)
    }

    /// Bytes currently resident across all component stores.
    pub fn resident_bytes(&self) -> usize {
        self.vmcs.resident_bytes() + self.vmcb.resident_bytes() + self.msr.resident_bytes()
    }

    /// Unique blobs currently resident across all component stores.
    pub fn blob_count(&self) -> usize {
        self.vmcs.blob_count() + self.vmcb.blob_count() + self.msr.blob_count()
    }

    /// Cumulative bytes offered across all component stores.
    pub fn interned_bytes(&self) -> u64 {
        self.vmcs.interned_bytes() + self.vmcb.interned_bytes() + self.msr.interned_bytes()
    }

    /// Cumulative bytes that were new across all component stores.
    pub fn unique_bytes(&self) -> u64 {
        self.vmcs.unique_bytes() + self.vmcb.unique_bytes() + self.msr.unique_bytes()
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Value-based delta restore of a live component from a snapshot's
/// shared (`Arc`-held) image.
///
/// Semantically identical to cloning the image into the field:
/// after the call the live value equals the snapshot value. The work is
/// finer-grained, though — per entry rather than per map — so restoring
/// across a boundary that touched one VMCS clones one VMCS, not the
/// whole map.
pub trait SharedRestore<S> {
    /// Makes `self` equal to the snapshot image `snap`, cloning only
    /// the entries that differ.
    fn restore_from(&mut self, snap: &S);
}

impl<K: Ord + Copy, V: Clone + PartialEq> SharedRestore<BTreeMap<K, Arc<V>>> for BTreeMap<K, V> {
    fn restore_from(&mut self, snap: &BTreeMap<K, Arc<V>>) {
        self.retain(|k, _| snap.contains_key(k));
        for (k, v) in snap {
            match self.get_mut(k) {
                Some(cur) if *cur == **v => {}
                Some(cur) => *cur = (**v).clone(),
                None => {
                    self.insert(*k, (**v).clone());
                }
            }
        }
    }
}

impl<V: Clone + PartialEq> SharedRestore<Option<Arc<V>>> for Option<V> {
    fn restore_from(&mut self, snap: &Option<Arc<V>>) {
        match (self.as_mut(), snap) {
            (Some(cur), Some(v)) if *cur == **v => {}
            (Some(cur), Some(v)) => *cur = (**v).clone(),
            (None, Some(v)) => *self = Some((**v).clone()),
            (_, None) => *self = None,
        }
    }
}

/// Wraps every value of a live component map into a fresh `Arc` — the
/// snapshot-capture half of the shared layout (interning then dedups
/// the fresh `Arc`s onto canonical ones).
pub(crate) fn share_map<K: Ord + Copy, V: Clone>(live: &BTreeMap<K, V>) -> BTreeMap<K, Arc<V>> {
    live.iter()
        .map(|(&k, v)| (k, Arc::new(v.clone())))
        .collect()
}

/// [`share_map`] for optional components.
pub(crate) fn share_opt<V: Clone>(live: &Option<V>) -> Option<Arc<V>> {
    live.as_ref().map(|v| Arc::new(v.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_equal_blobs_and_canonicalizes_handles() {
        let mut store: InternStore<Vec<u8>> = InternStore::new();
        let mut a = Arc::new(vec![1u8, 2, 3]);
        let mut b = Arc::new(vec![1u8, 2, 3]);
        assert_eq!(store.intern(&mut a, 7, 100), 100);
        assert_eq!(store.intern(&mut b, 7, 100), 0, "dedup charges nothing");
        assert!(Arc::ptr_eq(&a, &b), "handles canonicalized");
        assert_eq!(store.resident_bytes(), 100);
        assert_eq!(store.blob_count(), 1);
        assert_eq!(store.refs(&a, 7), 2);
        assert_eq!(store.interned_bytes(), 200);
        assert_eq!(store.unique_bytes(), 100);
    }

    #[test]
    fn release_frees_only_the_last_reference() {
        let mut store: InternStore<u64> = InternStore::new();
        let mut a = Arc::new(42u64);
        store.intern(&mut a, 1, 8);
        let mut b = Arc::new(42u64);
        store.intern(&mut b, 1, 8);
        assert_eq!(store.release(&a, 1), 0, "one holder remains");
        assert_eq!(store.resident_bytes(), 8);
        assert_eq!(store.release(&b, 1), 8, "last release frees");
        assert_eq!(store.resident_bytes(), 0);
        assert_eq!(store.blob_count(), 0);
    }

    #[test]
    fn digest_collisions_keep_distinct_blobs_apart() {
        let mut store: InternStore<u64> = InternStore::new();
        let mut a = Arc::new(1u64);
        let mut b = Arc::new(2u64);
        // Same digest, different values: both must stay resident and
        // independently refcounted.
        assert_eq!(store.intern(&mut a, 9, 8), 8);
        assert_eq!(store.intern(&mut b, 9, 8), 8);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(store.blob_count(), 2);
        assert_eq!(store.release(&a, 9), 8);
        assert_eq!(store.refs(&b, 9), 1, "collision partner untouched");
    }

    #[test]
    #[should_panic(expected = "release of a blob the store does not hold")]
    fn unbalanced_release_panics() {
        let mut store: InternStore<u64> = InternStore::new();
        let mut a = Arc::new(1u64);
        store.intern(&mut a, 3, 8);
        let stranger = Arc::new(2u64);
        store.release(&stranger, 3);
    }

    #[test]
    fn shared_restore_matches_clone_semantics() {
        let mut live: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        live.insert(1, vec![1]);
        live.insert(2, vec![2]);
        let mut snap: BTreeMap<u64, Arc<Vec<u8>>> = BTreeMap::new();
        snap.insert(2, Arc::new(vec![2]));
        snap.insert(3, Arc::new(vec![3]));
        live.restore_from(&snap);
        let want: BTreeMap<u64, Vec<u8>> = snap.iter().map(|(&k, v)| (k, (**v).clone())).collect();
        assert_eq!(live, want);

        let mut opt: Option<Vec<u8>> = Some(vec![9]);
        opt.restore_from(&None);
        assert_eq!(opt, None);
        opt.restore_from(&Some(Arc::new(vec![4])));
        assert_eq!(opt, Some(vec![4]));
    }

    #[test]
    fn component_digests_separate_unequal_blobs() {
        let mut a = Vmcs::new();
        let b = a.clone();
        assert_eq!(digest_vmcs(&a), digest_vmcs(&b));
        a.write(nf_vmx::VmcsField::GuestRip, 0x1234);
        assert_ne!(digest_vmcs(&a), digest_vmcs(&b));

        let mut m = MsrArea::new();
        let n = m.clone();
        assert_eq!(digest_msr_area(&m), digest_msr_area(&n));
        m.entries.push(MsrAreaEntry {
            index: 0x10,
            value: 5,
        });
        assert_ne!(digest_msr_area(&m), digest_msr_area(&n));

        let mut v = Vmcb::default();
        let w = v;
        assert_eq!(digest_vmcb(&v), digest_vmcb(&w));
        v.save.rip = 0xfff0;
        assert_ne!(digest_vmcb(&v), digest_vmcb(&w));
    }
}
