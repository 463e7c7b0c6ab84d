//! VMCS storage, lifecycle state, and fuzz-oriented serialization.

use crate::field::{FieldGroup, FieldWidth, VmcsField, FIELD_COUNT, SEED_OFFSETS, STATE_BITS};
use nf_x86::segment::{AccessRights, Segment, Selector};
use nf_x86::SegReg;

/// Lifecycle state of a VMCS region (SDM 24.1): tracked by the CPU and —
/// in nested operation — re-tracked in software by the L0 hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmcsState {
    /// `vmclear` has been executed; the region is inactive.
    #[default]
    Clear,
    /// The region is the current VMCS (`vmptrld`) but never launched.
    Loaded,
    /// A `vmlaunch` succeeded; only `vmresume` is valid now.
    Launched,
}

/// Number of guest-state fields ([`FieldGroup::Guest`]).
const GUEST_COUNT: usize = {
    let mut count = 0;
    let mut i = 0;
    while i < FIELD_COUNT {
        if matches!(VmcsField::ALL[i].group(), FieldGroup::Guest) {
            count += 1;
        }
        i += 1;
    }
    count
};

/// Storage slots of the guest-state fields, in catalogue order: what
/// [`Vmcs::copy_guest_state_from`] copies.
const GUEST_SLOTS: [u8; GUEST_COUNT] = {
    let mut slots = [0u8; GUEST_COUNT];
    let mut n = 0;
    let mut i = 0;
    while i < FIELD_COUNT {
        if matches!(VmcsField::ALL[i].group(), FieldGroup::Guest) {
            slots[n] = i as u8;
            n += 1;
        }
        i += 1;
    }
    slots
};

/// A virtual-machine control structure.
///
/// Field values are stored in a dense array indexed by
/// [`VmcsField::index`]. Writes are masked to the field width, matching
/// hardware behaviour where the upper bits of a 16/32-bit field are
/// ignored by `vmwrite`.
///
/// # Examples
///
/// ```
/// use nf_vmx::{Vmcs, VmcsField};
///
/// let mut vmcs = Vmcs::new();
/// vmcs.write(VmcsField::GuestRip, 0xfff0);
/// assert_eq!(vmcs.read(VmcsField::GuestRip), 0xfff0);
/// // 16-bit fields are truncated like hardware does.
/// vmcs.write(VmcsField::GuestCsSelector, 0x12_0008);
/// assert_eq!(vmcs.read(VmcsField::GuestCsSelector), 0x0008);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vmcs {
    values: [u64; FIELD_COUNT],
    /// Lifecycle state, maintained by `vmclear`/`vmptrld`/`vmlaunch`.
    pub state: VmcsState,
    /// Revision identifier from `IA32_VMX_BASIC`.
    pub revision_id: u32,
}

impl Default for Vmcs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vmcs {
    /// Serialized size in bytes (8000 bits = 1000 bytes).
    pub const BYTES: usize = STATE_BITS as usize / 8;

    /// Creates a zeroed VMCS in the `Clear` state.
    pub fn new() -> Self {
        Vmcs {
            values: [0; FIELD_COUNT],
            state: VmcsState::Clear,
            revision_id: 0,
        }
    }

    /// Reads a field.
    pub fn read(&self, field: VmcsField) -> u64 {
        self.values[field.index()]
    }

    /// Writes a field, masking the value to the field width.
    pub fn write(&mut self, field: VmcsField, value: u64) {
        self.values[field.index()] = value & field.write_mask();
    }

    /// Copies every guest-state field ([`FieldGroup::Guest`]) from `src`
    /// and leaves every other field, the lifecycle state and the
    /// revision as they are: the VMCS12 ↔ VMCS02 guest-state sync of a
    /// nested entry or a reflected exit. Walks the guest-state slots
    /// only and allocates nothing.
    pub fn copy_guest_state_from(&mut self, src: &Vmcs) {
        for &slot in &GUEST_SLOTS {
            self.values[slot as usize] = src.values[slot as usize];
        }
    }

    /// Serializes every field, in catalogue order, into the flat
    /// little-endian byte layout the fuzzer mutates (16-bit fields take 2
    /// bytes, 32-bit 4 bytes, 64-bit/natural 8 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::BYTES);
        for &f in VmcsField::ALL {
            let v = self.read(f);
            match f.width() {
                FieldWidth::W16 => out.extend_from_slice(&(v as u16).to_le_bytes()),
                FieldWidth::W32 => out.extend_from_slice(&(v as u32).to_le_bytes()),
                FieldWidth::W64 | FieldWidth::Natural => out.extend_from_slice(&v.to_le_bytes()),
            }
        }
        debug_assert_eq!(out.len(), Self::BYTES);
        out
    }

    /// Deserializes a VMCS from fuzz bytes. Missing bytes read as zero, so
    /// any input length is accepted (the agent hands the harness whatever
    /// slice of the 2 KiB input is assigned to the VMCS section): a short
    /// input is zero-padded to [`Vmcs::BYTES`] first, then every field is
    /// read as the 8 bytes at its [`SEED_OFFSETS`] entry, masked to its
    /// width. Bytes past the layout are ignored.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        // Every field starts at most 8 bytes before the layout's end.
        const _: () = assert!(SEED_OFFSETS[FIELD_COUNT - 1] + 8 <= Vmcs::BYTES);
        let padded;
        let seed: &[u8; Self::BYTES] = match bytes.first_chunk() {
            Some(seed) => seed,
            None => {
                let mut buf = [0u8; Self::BYTES];
                buf[..bytes.len()].copy_from_slice(bytes);
                padded = buf;
                &padded
            }
        };
        let mut vmcs = Vmcs::new();
        for (&f, &off) in VmcsField::ALL.iter().zip(&SEED_OFFSETS) {
            let le = seed[off..off + 8].try_into().expect("8 bytes");
            vmcs.values[f.index()] = u64::from_le_bytes(le) & f.write_mask();
        }
        vmcs
    }

    /// Hamming distance in bits between two VMCSs over the serialized
    /// 8000-bit layout (the Figure 5 metric).
    pub fn hamming_distance(&self, other: &Vmcs) -> u32 {
        let mut dist = 0;
        for &f in VmcsField::ALL {
            dist += (self.read(f) ^ other.read(f)).count_ones();
        }
        dist
    }

    /// Reads a full segment quadruple out of the guest-state area.
    pub fn guest_segment(&self, reg: SegReg) -> Segment {
        let (sel, base, limit, ar) = match reg {
            SegReg::Es => (
                VmcsField::GuestEsSelector,
                VmcsField::GuestEsBase,
                VmcsField::GuestEsLimit,
                VmcsField::GuestEsArBytes,
            ),
            SegReg::Cs => (
                VmcsField::GuestCsSelector,
                VmcsField::GuestCsBase,
                VmcsField::GuestCsLimit,
                VmcsField::GuestCsArBytes,
            ),
            SegReg::Ss => (
                VmcsField::GuestSsSelector,
                VmcsField::GuestSsBase,
                VmcsField::GuestSsLimit,
                VmcsField::GuestSsArBytes,
            ),
            SegReg::Ds => (
                VmcsField::GuestDsSelector,
                VmcsField::GuestDsBase,
                VmcsField::GuestDsLimit,
                VmcsField::GuestDsArBytes,
            ),
            SegReg::Fs => (
                VmcsField::GuestFsSelector,
                VmcsField::GuestFsBase,
                VmcsField::GuestFsLimit,
                VmcsField::GuestFsArBytes,
            ),
            SegReg::Gs => (
                VmcsField::GuestGsSelector,
                VmcsField::GuestGsBase,
                VmcsField::GuestGsLimit,
                VmcsField::GuestGsArBytes,
            ),
            SegReg::Ldtr => (
                VmcsField::GuestLdtrSelector,
                VmcsField::GuestLdtrBase,
                VmcsField::GuestLdtrLimit,
                VmcsField::GuestLdtrArBytes,
            ),
            SegReg::Tr => (
                VmcsField::GuestTrSelector,
                VmcsField::GuestTrBase,
                VmcsField::GuestTrLimit,
                VmcsField::GuestTrArBytes,
            ),
        };
        Segment {
            selector: Selector(self.read(sel) as u16),
            base: self.read(base),
            limit: self.read(limit) as u32,
            ar: AccessRights::new(self.read(ar) as u32),
        }
    }

    /// Writes a full segment quadruple into the guest-state area.
    pub fn set_guest_segment(&mut self, reg: SegReg, seg: Segment) {
        let (sel, base, limit, ar) = match reg {
            SegReg::Es => (
                VmcsField::GuestEsSelector,
                VmcsField::GuestEsBase,
                VmcsField::GuestEsLimit,
                VmcsField::GuestEsArBytes,
            ),
            SegReg::Cs => (
                VmcsField::GuestCsSelector,
                VmcsField::GuestCsBase,
                VmcsField::GuestCsLimit,
                VmcsField::GuestCsArBytes,
            ),
            SegReg::Ss => (
                VmcsField::GuestSsSelector,
                VmcsField::GuestSsBase,
                VmcsField::GuestSsLimit,
                VmcsField::GuestSsArBytes,
            ),
            SegReg::Ds => (
                VmcsField::GuestDsSelector,
                VmcsField::GuestDsBase,
                VmcsField::GuestDsLimit,
                VmcsField::GuestDsArBytes,
            ),
            SegReg::Fs => (
                VmcsField::GuestFsSelector,
                VmcsField::GuestFsBase,
                VmcsField::GuestFsLimit,
                VmcsField::GuestFsArBytes,
            ),
            SegReg::Gs => (
                VmcsField::GuestGsSelector,
                VmcsField::GuestGsBase,
                VmcsField::GuestGsLimit,
                VmcsField::GuestGsArBytes,
            ),
            SegReg::Ldtr => (
                VmcsField::GuestLdtrSelector,
                VmcsField::GuestLdtrBase,
                VmcsField::GuestLdtrLimit,
                VmcsField::GuestLdtrArBytes,
            ),
            SegReg::Tr => (
                VmcsField::GuestTrSelector,
                VmcsField::GuestTrBase,
                VmcsField::GuestTrLimit,
                VmcsField::GuestTrArBytes,
            ),
        };
        self.write(sel, seg.selector.0 as u64);
        self.write(base, seg.base);
        self.write(limit, seg.limit as u64);
        self.write(ar, seg.ar.0 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_masking_on_write() {
        let mut v = Vmcs::new();
        v.write(VmcsField::GuestEsSelector, 0xffff_ffff);
        assert_eq!(v.read(VmcsField::GuestEsSelector), 0xffff);
        v.write(VmcsField::GuestActivityState, 0x1_0000_0003);
        assert_eq!(v.read(VmcsField::GuestActivityState), 3);
        v.write(VmcsField::GuestCr3, u64::MAX);
        assert_eq!(v.read(VmcsField::GuestCr3), u64::MAX);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut v = Vmcs::new();
        for (i, &f) in VmcsField::ALL.iter().enumerate() {
            v.write(f, (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), Vmcs::BYTES);
        let back = Vmcs::from_bytes(&bytes);
        for &f in VmcsField::ALL {
            assert_eq!(back.read(f), v.read(f), "{}", f.name());
        }
    }

    #[test]
    fn from_bytes_tolerates_short_input() {
        let v = Vmcs::from_bytes(&[0xff; 3]);
        assert_eq!(v.read(VmcsField::Vpid), 0xffff);
        assert_eq!(v.read(VmcsField::PostedIntrNv), 0x00ff);
        assert_eq!(v.read(VmcsField::EptpIndex), 0);
    }

    /// Reference decode: the field-by-field cursor walk over the
    /// input, reading each missing byte as zero.
    fn from_bytes_reference(bytes: &[u8]) -> Vmcs {
        let mut vmcs = Vmcs::new();
        let mut off = 0usize;
        let get = |off: usize, n: usize| -> u64 {
            let mut buf = [0u8; 8];
            for (i, b) in buf.iter_mut().enumerate().take(n) {
                *b = bytes.get(off + i).copied().unwrap_or(0);
            }
            u64::from_le_bytes(buf)
        };
        for &f in VmcsField::ALL {
            let n = (f.width().bits() / 8) as usize;
            vmcs.write(f, get(off, n));
            off += n;
        }
        vmcs
    }

    #[test]
    fn from_bytes_matches_the_reference_decode_at_every_length() {
        // splitmix64: random bytes without a dependency.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next_byte = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        };
        for len in 0..=Vmcs::BYTES + 8 {
            let bytes: Vec<u8> = (0..len).map(|_| next_byte()).collect();
            assert_eq!(
                Vmcs::from_bytes(&bytes),
                from_bytes_reference(&bytes),
                "length {len}"
            );
        }
    }

    #[test]
    fn hamming_distance_basics() {
        let a = Vmcs::new();
        let mut b = Vmcs::new();
        assert_eq!(a.hamming_distance(&b), 0);
        b.write(VmcsField::GuestCr0, 0b1011);
        assert_eq!(a.hamming_distance(&b), 3);
        assert_eq!(b.hamming_distance(&a), 3);
    }

    #[test]
    fn segment_quadruple_roundtrip() {
        let mut v = Vmcs::new();
        let seg = Segment::flat_code64();
        v.set_guest_segment(SegReg::Cs, seg);
        assert_eq!(v.guest_segment(SegReg::Cs), seg);
        // Writing CS does not disturb SS.
        assert_eq!(v.guest_segment(SegReg::Ss), Segment::default());
    }

    #[test]
    fn guest_state_copy_moves_exactly_the_guest_fields() {
        // Every field of both VMCSs holds a value no other field holds.
        let mut src = Vmcs::new();
        let mut dst = Vmcs::new();
        for (i, &f) in VmcsField::ALL.iter().enumerate() {
            src.write(f, 0x100 + i as u64);
            dst.write(f, 0x400 + i as u64);
        }
        src.state = VmcsState::Launched;
        src.revision_id = 7;
        let before = dst.clone();
        dst.copy_guest_state_from(&src);
        for &f in VmcsField::ALL {
            let expect = if f.group() == FieldGroup::Guest {
                &src
            } else {
                &before
            };
            assert_eq!(dst.read(f), expect.read(f), "{}", f.name());
        }
        assert_eq!(dst.state, before.state);
        assert_eq!(dst.revision_id, before.revision_id);
    }

    #[test]
    fn lifecycle_default_is_clear() {
        assert_eq!(Vmcs::new().state, VmcsState::Clear);
    }
}
