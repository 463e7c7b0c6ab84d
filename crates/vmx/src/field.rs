//! The VMCS field catalogue.
//!
//! The layout follows Intel SDM Volume 3, Appendix B: fields are grouped
//! by width (16/32/64-bit and natural-width) and by area (control,
//! read-only data, guest state, host state), with their architectural
//! encodings. The catalogue defines **165 fields spanning exactly 8000
//! bits** — the VM-state geometry the paper's Figure 5 experiment is
//! defined over (natural-width fields serialize as 64 bits).

/// Field width class (SDM B.1–B.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldWidth {
    /// 16-bit fields.
    W16,
    /// 32-bit fields.
    W32,
    /// 64-bit fields.
    W64,
    /// Natural-width fields (64-bit on the modeled processor).
    Natural,
}

impl FieldWidth {
    /// Number of bits this field contributes to the serialized VM state.
    pub const fn bits(self) -> u32 {
        match self {
            FieldWidth::W16 => 16,
            FieldWidth::W32 => 32,
            FieldWidth::W64 | FieldWidth::Natural => 64,
        }
    }

    /// Mask of representable values.
    pub const fn mask(self) -> u64 {
        match self {
            FieldWidth::W16 => 0xffff,
            FieldWidth::W32 => 0xffff_ffff,
            FieldWidth::W64 | FieldWidth::Natural => u64::MAX,
        }
    }
}

/// VMCS area a field belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldGroup {
    /// VM-execution, VM-entry and VM-exit control fields.
    Control,
    /// Read-only exit-information fields.
    ReadOnly,
    /// Guest-state area.
    Guest,
    /// Host-state area.
    Host,
}

macro_rules! vmcs_fields {
    ($( $variant:ident => ($enc:literal, $width:ident, $group:ident), )+) => {
        /// A VMCS field (SDM Appendix B).
        ///
        /// Variant names follow the SDM/KVM field naming, camel-cased per
        /// Rust convention.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u16)]
        #[allow(clippy::enum_variant_names)]
        pub enum VmcsField {
            $(
                #[doc = concat!("VMCS field `", stringify!($variant), "`.")]
                $variant,
            )+
        }

        impl VmcsField {
            /// Every field, in serialization order.
            pub const ALL: &'static [VmcsField] = &[$(VmcsField::$variant),+];
        }

        /// Architectural encoding of every field, indexed by
        /// [`VmcsField::index`].
        const ENCODINGS: [u32; FIELD_COUNT] = [$($enc),+];
        /// Width class of every field, indexed by [`VmcsField::index`].
        const WIDTHS: [FieldWidth; FIELD_COUNT] = [$(FieldWidth::$width),+];
        /// Area of every field, indexed by [`VmcsField::index`].
        const GROUPS: [FieldGroup; FIELD_COUNT] = [$(FieldGroup::$group),+];
        /// Catalogue name of every field, indexed by [`VmcsField::index`].
        const NAMES: [&str; FIELD_COUNT] = [$(stringify!($variant)),+];
    };
}

vmcs_fields! {
    // --- 16-bit control fields (B.1.1).
    Vpid => (0x0000, W16, Control),
    PostedIntrNv => (0x0002, W16, Control),
    EptpIndex => (0x0004, W16, Control),
    // --- 16-bit guest-state fields (B.1.2).
    GuestEsSelector => (0x0800, W16, Guest),
    GuestCsSelector => (0x0802, W16, Guest),
    GuestSsSelector => (0x0804, W16, Guest),
    GuestDsSelector => (0x0806, W16, Guest),
    GuestFsSelector => (0x0808, W16, Guest),
    GuestGsSelector => (0x080a, W16, Guest),
    GuestLdtrSelector => (0x080c, W16, Guest),
    GuestTrSelector => (0x080e, W16, Guest),
    GuestIntrStatus => (0x0810, W16, Guest),
    PmlIndex => (0x0812, W16, Guest),
    // --- 16-bit host-state fields (B.1.3).
    HostEsSelector => (0x0c00, W16, Host),
    HostCsSelector => (0x0c02, W16, Host),
    HostSsSelector => (0x0c04, W16, Host),
    HostDsSelector => (0x0c06, W16, Host),
    HostFsSelector => (0x0c08, W16, Host),
    HostGsSelector => (0x0c0a, W16, Host),
    HostTrSelector => (0x0c0c, W16, Host),
    // --- 64-bit control fields (B.2.1).
    IoBitmapA => (0x2000, W64, Control),
    IoBitmapB => (0x2002, W64, Control),
    MsrBitmap => (0x2004, W64, Control),
    VmExitMsrStoreAddr => (0x2006, W64, Control),
    VmExitMsrLoadAddr => (0x2008, W64, Control),
    VmEntryMsrLoadAddr => (0x200a, W64, Control),
    ExecutiveVmcsPointer => (0x200c, W64, Control),
    PmlAddress => (0x200e, W64, Control),
    TscOffset => (0x2010, W64, Control),
    VirtualApicPageAddr => (0x2012, W64, Control),
    ApicAccessAddr => (0x2014, W64, Control),
    PostedIntrDescAddr => (0x2016, W64, Control),
    VmFunctionControl => (0x2018, W64, Control),
    EptPointer => (0x201a, W64, Control),
    EoiExitBitmap0 => (0x201c, W64, Control),
    EoiExitBitmap1 => (0x201e, W64, Control),
    EoiExitBitmap2 => (0x2020, W64, Control),
    EoiExitBitmap3 => (0x2022, W64, Control),
    EptpListAddress => (0x2024, W64, Control),
    VmreadBitmap => (0x2026, W64, Control),
    VmwriteBitmap => (0x2028, W64, Control),
    VeInfoAddress => (0x202a, W64, Control),
    XssExitBitmap => (0x202c, W64, Control),
    EnclsExitingBitmap => (0x202e, W64, Control),
    SpptPointer => (0x2030, W64, Control),
    TscMultiplier => (0x2032, W64, Control),
    HlatPointer => (0x2040, W64, Control),
    // --- 64-bit read-only data field (B.2.2).
    GuestPhysicalAddress => (0x2400, W64, ReadOnly),
    // --- 64-bit guest-state fields (B.2.3).
    VmcsLinkPointer => (0x2800, W64, Guest),
    GuestIa32Debugctl => (0x2802, W64, Guest),
    GuestIa32Pat => (0x2804, W64, Guest),
    GuestIa32Efer => (0x2806, W64, Guest),
    GuestIa32PerfGlobalCtrl => (0x2808, W64, Guest),
    GuestPdpte0 => (0x280a, W64, Guest),
    GuestPdpte1 => (0x280c, W64, Guest),
    GuestPdpte2 => (0x280e, W64, Guest),
    GuestPdpte3 => (0x2810, W64, Guest),
    GuestBndcfgs => (0x2812, W64, Guest),
    GuestIa32RtitCtl => (0x2814, W64, Guest),
    GuestIa32Pkrs => (0x2818, W64, Guest),
    // --- 64-bit host-state fields (B.2.4).
    HostIa32Pat => (0x2c00, W64, Host),
    HostIa32Efer => (0x2c02, W64, Host),
    HostIa32PerfGlobalCtrl => (0x2c04, W64, Host),
    HostIa32Pkrs => (0x2c06, W64, Host),
    // --- 32-bit control fields (B.3.1).
    PinBasedVmExecControl => (0x4000, W32, Control),
    CpuBasedVmExecControl => (0x4002, W32, Control),
    ExceptionBitmap => (0x4004, W32, Control),
    PageFaultErrorCodeMask => (0x4006, W32, Control),
    PageFaultErrorCodeMatch => (0x4008, W32, Control),
    Cr3TargetCount => (0x400a, W32, Control),
    VmExitControls => (0x400c, W32, Control),
    VmExitMsrStoreCount => (0x400e, W32, Control),
    VmExitMsrLoadCount => (0x4010, W32, Control),
    VmEntryControls => (0x4012, W32, Control),
    VmEntryMsrLoadCount => (0x4014, W32, Control),
    VmEntryIntrInfoField => (0x4016, W32, Control),
    VmEntryExceptionErrorCode => (0x4018, W32, Control),
    VmEntryInstructionLen => (0x401a, W32, Control),
    TprThreshold => (0x401c, W32, Control),
    SecondaryVmExecControl => (0x401e, W32, Control),
    PleGap => (0x4020, W32, Control),
    PleWindow => (0x4022, W32, Control),
    // --- 32-bit read-only data fields (B.3.2).
    VmInstructionError => (0x4400, W32, ReadOnly),
    VmExitReason => (0x4402, W32, ReadOnly),
    VmExitIntrInfo => (0x4404, W32, ReadOnly),
    VmExitIntrErrorCode => (0x4406, W32, ReadOnly),
    IdtVectoringInfoField => (0x4408, W32, ReadOnly),
    IdtVectoringErrorCode => (0x440a, W32, ReadOnly),
    VmExitInstructionLen => (0x440c, W32, ReadOnly),
    VmxInstructionInfo => (0x440e, W32, ReadOnly),
    // --- 32-bit guest-state fields (B.3.3).
    GuestEsLimit => (0x4800, W32, Guest),
    GuestCsLimit => (0x4802, W32, Guest),
    GuestSsLimit => (0x4804, W32, Guest),
    GuestDsLimit => (0x4806, W32, Guest),
    GuestFsLimit => (0x4808, W32, Guest),
    GuestGsLimit => (0x480a, W32, Guest),
    GuestLdtrLimit => (0x480c, W32, Guest),
    GuestTrLimit => (0x480e, W32, Guest),
    GuestGdtrLimit => (0x4810, W32, Guest),
    GuestIdtrLimit => (0x4812, W32, Guest),
    GuestEsArBytes => (0x4814, W32, Guest),
    GuestCsArBytes => (0x4816, W32, Guest),
    GuestSsArBytes => (0x4818, W32, Guest),
    GuestDsArBytes => (0x481a, W32, Guest),
    GuestFsArBytes => (0x481c, W32, Guest),
    GuestGsArBytes => (0x481e, W32, Guest),
    GuestLdtrArBytes => (0x4820, W32, Guest),
    GuestTrArBytes => (0x4822, W32, Guest),
    GuestInterruptibilityInfo => (0x4824, W32, Guest),
    GuestActivityState => (0x4826, W32, Guest),
    GuestSmbase => (0x4828, W32, Guest),
    GuestSysenterCs => (0x482a, W32, Guest),
    VmxPreemptionTimerValue => (0x482e, W32, Guest),
    // --- 32-bit host-state field (B.3.4).
    HostIa32SysenterCs => (0x4c00, W32, Host),
    // --- Natural-width control fields (B.4.1).
    Cr0GuestHostMask => (0x6000, Natural, Control),
    Cr4GuestHostMask => (0x6002, Natural, Control),
    Cr0ReadShadow => (0x6004, Natural, Control),
    Cr4ReadShadow => (0x6006, Natural, Control),
    Cr3TargetValue0 => (0x6008, Natural, Control),
    Cr3TargetValue1 => (0x600a, Natural, Control),
    Cr3TargetValue2 => (0x600c, Natural, Control),
    Cr3TargetValue3 => (0x600e, Natural, Control),
    // --- Natural-width read-only data fields (B.4.2).
    ExitQualification => (0x6400, Natural, ReadOnly),
    IoRcx => (0x6402, Natural, ReadOnly),
    IoRsi => (0x6404, Natural, ReadOnly),
    IoRdi => (0x6406, Natural, ReadOnly),
    IoRip => (0x6408, Natural, ReadOnly),
    GuestLinearAddress => (0x640a, Natural, ReadOnly),
    // --- Natural-width guest-state fields (B.4.3).
    GuestCr0 => (0x6800, Natural, Guest),
    GuestCr3 => (0x6802, Natural, Guest),
    GuestCr4 => (0x6804, Natural, Guest),
    GuestEsBase => (0x6806, Natural, Guest),
    GuestCsBase => (0x6808, Natural, Guest),
    GuestSsBase => (0x680a, Natural, Guest),
    GuestDsBase => (0x680c, Natural, Guest),
    GuestFsBase => (0x680e, Natural, Guest),
    GuestGsBase => (0x6810, Natural, Guest),
    GuestLdtrBase => (0x6812, Natural, Guest),
    GuestTrBase => (0x6814, Natural, Guest),
    GuestGdtrBase => (0x6816, Natural, Guest),
    GuestIdtrBase => (0x6818, Natural, Guest),
    GuestDr7 => (0x681a, Natural, Guest),
    GuestRsp => (0x681c, Natural, Guest),
    GuestRip => (0x681e, Natural, Guest),
    GuestRflags => (0x6820, Natural, Guest),
    GuestPendingDbgExceptions => (0x6822, Natural, Guest),
    GuestSysenterEsp => (0x6824, Natural, Guest),
    GuestSysenterEip => (0x6826, Natural, Guest),
    GuestSCet => (0x6828, Natural, Guest),
    GuestSsp => (0x682a, Natural, Guest),
    GuestIntrSspTableAddr => (0x682c, Natural, Guest),
    // --- Natural-width host-state fields (B.4.4).
    HostCr0 => (0x6c00, Natural, Host),
    HostCr3 => (0x6c02, Natural, Host),
    HostCr4 => (0x6c04, Natural, Host),
    HostFsBase => (0x6c06, Natural, Host),
    HostGsBase => (0x6c08, Natural, Host),
    HostTrBase => (0x6c0a, Natural, Host),
    HostGdtrBase => (0x6c0c, Natural, Host),
    HostIdtrBase => (0x6c0e, Natural, Host),
    HostIa32SysenterEsp => (0x6c10, Natural, Host),
    HostIa32SysenterEip => (0x6c12, Natural, Host),
    HostRsp => (0x6c14, Natural, Host),
    HostRip => (0x6c16, Natural, Host),
    HostSCet => (0x6c18, Natural, Host),
    HostSsp => (0x6c1a, Natural, Host),
}

/// Number of fields in the catalogue.
pub const FIELD_COUNT: usize = VmcsField::ALL.len();

/// Total serialized VM-state size in bits (the paper's "8,000-bit VM
/// state across 165 fields").
pub const STATE_BITS: u32 = {
    let mut total = 0;
    let mut i = 0;
    while i < VmcsField::ALL.len() {
        total += VmcsField::ALL[i].width().bits();
        i += 1;
    }
    total
};

/// Byte offset of every field inside the serialized seed layout, in
/// catalogue order — the geometry [`crate::Vmcs::from_bytes`] decodes
/// and structure-aware mutators write through. Derived from the width
/// table, so the two can never drift apart.
pub const SEED_OFFSETS: [usize; FIELD_COUNT] = {
    let mut offsets = [0usize; FIELD_COUNT];
    let mut off = 0usize;
    let mut i = 0;
    while i < FIELD_COUNT {
        offsets[i] = off;
        off += (VmcsField::ALL[i].width().bits() / 8) as usize;
        i += 1;
    }
    offsets
};

/// Mask of the bits `vmwrite` keeps in every field (its width's
/// [`FieldWidth::mask`]), indexed by [`VmcsField::index`].
const WRITE_MASKS: [u64; FIELD_COUNT] = {
    let mut masks = [0u64; FIELD_COUNT];
    let mut i = 0;
    while i < FIELD_COUNT {
        masks[i] = WIDTHS[i].mask();
        i += 1;
    }
    masks
};

/// Rows of [`ENCODING_SLOTS`]: one per 1 KiB block of encodings
/// (`enc >> 10`) below `0x7000`, the first block no field lies in.
const ENCODING_ROWS: usize = 28;
/// Columns of [`ENCODING_SLOTS`], indexed by `(enc >> 1) & 0x1ff`; no
/// block of the catalogue uses a column at or past this bound.
const ENCODING_COLS: usize = 64;
/// An [`ENCODING_SLOTS`] entry no field occupies.
const NO_FIELD: u8 = u8::MAX;

/// The decode table behind [`VmcsField::from_encoding`]: the field
/// index stored in the slot its encoding addresses. Every catalogue
/// encoding is even and below `0x7000`, so the row and column bits
/// determine it completely; the build fails unless each one lands in a
/// slot of its own.
const ENCODING_SLOTS: [[u8; ENCODING_COLS]; ENCODING_ROWS] = {
    assert!(
        FIELD_COUNT < NO_FIELD as usize,
        "field index must fit a slot"
    );
    let mut slots = [[NO_FIELD; ENCODING_COLS]; ENCODING_ROWS];
    let mut i = 0;
    while i < FIELD_COUNT {
        let enc = ENCODINGS[i];
        assert!(enc & 1 == 0, "encodings are even");
        assert!(
            enc < (ENCODING_ROWS as u32) << 10,
            "encodings lie below 0x7000"
        );
        let (row, col) = ((enc >> 10) as usize, ((enc >> 1) & 0x1ff) as usize);
        assert!(col < ENCODING_COLS, "encoding column outside the table");
        assert!(slots[row][col] == NO_FIELD, "two encodings share a slot");
        slots[row][col] = i as u8;
        i += 1;
    }
    slots
};

impl VmcsField {
    /// Dense index of the field inside [`VmcsField::ALL`], used as the
    /// storage slot.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Architectural field encoding (the `vmread`/`vmwrite` operand).
    pub const fn encoding(self) -> u32 {
        ENCODINGS[self as usize]
    }

    /// Looks a field up by architectural encoding — the decode behind
    /// every `vmread`/`vmwrite`: a bounds test and one load from the
    /// encoding table.
    pub const fn from_encoding(enc: u32) -> Option<VmcsField> {
        let col = ((enc >> 1) & 0x1ff) as usize;
        if enc & 1 != 0 || enc >= (ENCODING_ROWS as u32) << 10 || col >= ENCODING_COLS {
            return None;
        }
        match ENCODING_SLOTS[(enc >> 10) as usize][col] {
            NO_FIELD => None,
            slot => Some(VmcsField::ALL[slot as usize]),
        }
    }

    /// Width class of the field.
    pub const fn width(self) -> FieldWidth {
        WIDTHS[self as usize]
    }

    /// Area the field belongs to.
    pub const fn group(self) -> FieldGroup {
        GROUPS[self as usize]
    }

    /// Field name as written in the SDM-derived catalogue.
    pub const fn name(self) -> &'static str {
        NAMES[self as usize]
    }

    /// The bits a `vmwrite` of the field keeps: its width's
    /// [`FieldWidth::mask`].
    pub(crate) const fn write_mask(self) -> u64 {
        WRITE_MASKS[self as usize]
    }

    /// Byte offset of the field in the serialized seed layout (the
    /// little-endian byte stream `Vmcs::from_bytes` reads).
    pub const fn seed_offset(self) -> usize {
        SEED_OFFSETS[self as usize]
    }

    /// Byte length of the field in the serialized seed layout.
    pub const fn seed_len(self) -> usize {
        (self.width().bits() / 8) as usize
    }

    /// Returns `true` if `vmwrite` from a guest hypervisor may set the
    /// field (read-only data fields reject writes with a VMX instruction
    /// error on real hardware).
    pub const fn writable(self) -> bool {
        !matches!(self.group(), FieldGroup::ReadOnly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn paper_geometry_165_fields_8000_bits() {
        assert_eq!(FIELD_COUNT, 165);
        assert_eq!(STATE_BITS, 8000);
    }

    #[test]
    fn encodings_unique() {
        let encs: BTreeSet<u32> = VmcsField::ALL.iter().map(|f| f.encoding()).collect();
        assert_eq!(encs.len(), FIELD_COUNT);
    }

    #[test]
    fn encoding_width_class_consistent() {
        for &f in VmcsField::ALL {
            // SDM encodes the width class in encoding bits 14:13.
            let class = (f.encoding() >> 13) & 3;
            let expected = match f.width() {
                FieldWidth::W16 => 0,
                FieldWidth::W64 => 1,
                FieldWidth::W32 => 2,
                FieldWidth::Natural => 3,
            };
            assert_eq!(class, expected, "{}", f.name());
        }
    }

    /// Reference decode for `from_encoding`: a linear scan of the
    /// catalogue.
    fn from_encoding_scan(enc: u32) -> Option<VmcsField> {
        VmcsField::ALL.iter().copied().find(|f| f.encoding() == enc)
    }

    #[test]
    fn from_encoding_roundtrip() {
        for &f in VmcsField::ALL {
            assert_eq!(VmcsField::from_encoding(f.encoding()), Some(f));
        }
        // Exhaustive over the 16-bit encoding space.
        for enc in 0..=u32::from(u16::MAX) {
            assert_eq!(
                VmcsField::from_encoding(enc),
                from_encoding_scan(enc),
                "{enc:#x}"
            );
        }
        // Bits above 15 never alias a field, however the low half reads.
        let cr0 = VmcsField::GuestCr0.encoding();
        for enc in [0x1_0000 | cr0, 0x8000_0000 | cr0, 0xdead_0000, u32::MAX] {
            assert_eq!(VmcsField::from_encoding(enc), None, "{enc:#x}");
            assert_eq!(from_encoding_scan(enc), None, "{enc:#x}");
        }
        for &f in VmcsField::ALL {
            for bit in 16..32 {
                assert_eq!(VmcsField::from_encoding(f.encoding() | 1 << bit), None);
            }
        }
    }

    #[test]
    fn read_only_fields_not_writable() {
        assert!(!VmcsField::VmExitReason.writable());
        assert!(!VmcsField::ExitQualification.writable());
        assert!(VmcsField::GuestCr0.writable());
        assert!(VmcsField::PinBasedVmExecControl.writable());
    }

    #[test]
    fn indices_dense_and_ordered() {
        for (i, &f) in VmcsField::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn seed_offsets_match_serialization_geometry() {
        // The offset table is exactly the cursor Vmcs::from_bytes walks:
        // contiguous, in catalogue order, ending at the 1000-byte seed.
        let mut off = 0usize;
        for &f in VmcsField::ALL {
            assert_eq!(f.seed_offset(), off, "{}", f.name());
            off += f.seed_len();
        }
        assert_eq!(off, STATE_BITS as usize / 8);
    }

    #[test]
    fn group_census_matches_sdm_shape() {
        let count = |g: FieldGroup| VmcsField::ALL.iter().filter(|f| f.group() == g).count();
        assert_eq!(count(FieldGroup::Control), 3 + 27 + 18 + 8);
        assert_eq!(count(FieldGroup::ReadOnly), 1 + 8 + 6);
        assert_eq!(count(FieldGroup::Host), 7 + 4 + 1 + 14);
        assert_eq!(count(FieldGroup::Guest), 10 + 12 + 23 + 23);
    }
}
