//! The AMD-V virtual machine control block (VMCB).
//!
//! AMD splits the VMCB into a *control area* (intercepts, TLB/ASID
//! control, virtual interrupt state, nested paging) and a *save area*
//! (guest register state). Layout follows APM Vol. 2 Appendix B, reduced
//! to the fields the framework's harness, checks, and seeded bugs touch.

use nf_x86::segment::{AccessRights, Segment, Selector};
use nf_x86::SegReg;

/// Intercept bits in the modeled intercept vector.
///
/// Real VMCBs spread intercepts over five 32-bit words; the model packs
/// the ones it uses into a single 64-bit word with APM-faithful names.
pub mod intercept {
    /// Intercept INTR.
    pub const INTR: u64 = 1 << 0;
    /// Intercept NMI.
    pub const NMI: u64 = 1 << 1;
    /// Intercept CPUID.
    pub const CPUID: u64 = 1 << 2;
    /// Intercept HLT.
    pub const HLT: u64 = 1 << 3;
    /// Intercept INVLPG.
    pub const INVLPG: u64 = 1 << 4;
    /// Intercept IOIO_PROT (use the I/O permission map).
    pub const IOIO_PROT: u64 = 1 << 5;
    /// Intercept MSR_PROT (use the MSR permission map).
    pub const MSR_PROT: u64 = 1 << 6;
    /// Intercept CR0 writes.
    pub const CR0_WRITE: u64 = 1 << 7;
    /// Intercept CR3 writes.
    pub const CR3_WRITE: u64 = 1 << 8;
    /// Intercept CR4 writes.
    pub const CR4_WRITE: u64 = 1 << 9;
    /// Intercept VMRUN — must be set for any legal VMCB (APM 15.5).
    pub const VMRUN: u64 = 1 << 10;
    /// Intercept VMMCALL.
    pub const VMMCALL: u64 = 1 << 11;
    /// Intercept VMLOAD.
    pub const VMLOAD: u64 = 1 << 12;
    /// Intercept VMSAVE.
    pub const VMSAVE: u64 = 1 << 13;
    /// Intercept STGI.
    pub const STGI: u64 = 1 << 14;
    /// Intercept CLGI.
    pub const CLGI: u64 = 1 << 15;
    /// Intercept SKINIT.
    pub const SKINIT: u64 = 1 << 16;
    /// Intercept RDTSC.
    pub const RDTSC: u64 = 1 << 17;
    /// Intercept RDPMC.
    pub const RDPMC: u64 = 1 << 18;
    /// Intercept PAUSE.
    pub const PAUSE: u64 = 1 << 19;
    /// Intercept shutdown events.
    pub const SHUTDOWN: u64 = 1 << 20;
}

/// `int_ctl` bits (APM B.1, offset 0x60).
pub mod int_ctl {
    /// Virtual TPR (bits 7:0 in hardware; modeled as a flag-free field).
    pub const V_IRQ: u64 = 1 << 8;
    /// Virtual GIF value — the bit Xen's `nsvm_vcpu_vmexit_inject`
    /// asserts on (paper bug #6).
    pub const V_GIF: u64 = 1 << 9;
    /// Ignore virtual TPR.
    pub const V_IGN_TPR: u64 = 1 << 20;
    /// Virtual interrupt masking.
    pub const V_INTR_MASKING: u64 = 1 << 24;
    /// Virtual GIF enable (vGIF feature).
    pub const V_GIF_ENABLE: u64 = 1 << 25;
    /// AVIC enable — erroneously set by Xen's bug #5 path.
    pub const AVIC_ENABLE: u64 = 1 << 31;
}

/// VMCB control area (modeled subset of APM Table B-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VmcbControl {
    /// Packed intercept vector (see [`intercept`]).
    pub intercepts: u64,
    /// I/O permission-map base physical address.
    pub iopm_base_pa: u64,
    /// MSR permission-map base physical address.
    pub msrpm_base_pa: u64,
    /// TSC offset.
    pub tsc_offset: u64,
    /// Guest ASID; zero is reserved for the host and illegal in a VMCB.
    pub guest_asid: u32,
    /// TLB control byte.
    pub tlb_control: u8,
    /// Virtual interrupt control (see [`int_ctl`]).
    pub int_ctl: u64,
    /// Interrupt shadow state.
    pub interrupt_shadow: u64,
    /// Exit code written by the CPU on #VMEXIT.
    pub exitcode: u64,
    /// Exit info 1.
    pub exitinfo1: u64,
    /// Exit info 2.
    pub exitinfo2: u64,
    /// Exit interrupt info.
    pub exitintinfo: u64,
    /// Nested-paging enable (bit 0) and SEV bits (modeled: bit 0 only).
    pub np_enable: u64,
    /// AVIC APIC_BAR.
    pub avic_apic_bar: u64,
    /// Event injection field.
    pub event_inj: u64,
    /// Nested page-table CR3.
    pub ncr3: u64,
    /// LBR virtualization enable (bit 0), virtual VMLOAD/VMSAVE (bit 1).
    pub lbr_ctl: u64,
    /// VMCB clean bits.
    pub vmcb_clean: u32,
    /// Next sequential instruction pointer (decode assist).
    pub nrip: u64,
    /// AVIC backing page pointer.
    pub avic_backing_page: u64,
    /// AVIC logical table pointer.
    pub avic_logical_table: u64,
    /// AVIC physical table pointer.
    pub avic_physical_table: u64,
    /// Pause-filter count.
    pub pause_filter_count: u16,
    /// Pause-filter threshold.
    pub pause_filter_thresh: u16,
}

/// VMCB save area (modeled subset of APM Table B-2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VmcbSave {
    /// Segment registers in VMCS-compatible quadruples.
    pub es: Segment,
    /// Code segment.
    pub cs: Segment,
    /// Stack segment.
    pub ss: Segment,
    /// Data segment.
    pub ds: Segment,
    /// `FS` segment.
    pub fs: Segment,
    /// `GS` segment.
    pub gs: Segment,
    /// Global descriptor table (base/limit carried in a [`Segment`]).
    pub gdtr: Segment,
    /// Local descriptor table.
    pub ldtr: Segment,
    /// Interrupt descriptor table.
    pub idtr: Segment,
    /// Task register.
    pub tr: Segment,
    /// Current privilege level.
    pub cpl: u8,
    /// Extended feature enable register.
    pub efer: u64,
    /// Control register 4.
    pub cr4: u64,
    /// Control register 3.
    pub cr3: u64,
    /// Control register 0.
    pub cr0: u64,
    /// Debug register 7.
    pub dr7: u64,
    /// Debug register 6.
    pub dr6: u64,
    /// Flags register.
    pub rflags: u64,
    /// Instruction pointer.
    pub rip: u64,
    /// Stack pointer.
    pub rsp: u64,
    /// Accumulator (saved/restored by `vmrun`).
    pub rax: u64,
    /// SYSCALL target address.
    pub star: u64,
    /// 64-bit SYSCALL target.
    pub lstar: u64,
    /// Compatibility SYSCALL target.
    pub cstar: u64,
    /// SYSCALL flag mask.
    pub sfmask: u64,
    /// Swapped GS base.
    pub kernel_gs_base: u64,
    /// SYSENTER code segment.
    pub sysenter_cs: u64,
    /// SYSENTER stack pointer.
    pub sysenter_esp: u64,
    /// SYSENTER instruction pointer.
    pub sysenter_eip: u64,
    /// Guest PAT.
    pub g_pat: u64,
    /// Debug control MSR.
    pub dbgctl: u64,
}

/// A full VMCB: control plus save area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Vmcb {
    /// Control area.
    pub control: VmcbControl,
    /// Save area.
    pub save: VmcbSave,
}

/// The fields of a full-length serialized VMCB, read in layout order
/// (the decode half of [`Vmcb::to_bytes`]).
struct Fields<'a> {
    layout: &'a [u8; Vmcb::BYTES],
    off: usize,
}

impl Fields<'_> {
    /// The next `N` bytes of the layout.
    #[inline(always)]
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let field = *self.layout[self.off..]
            .first_chunk()
            .expect("field lies within the layout");
        self.off += N;
        field
    }

    #[inline(always)]
    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    #[inline(always)]
    fn skip(&mut self, n: usize) {
        self.off += n;
    }
}

impl Vmcb {
    /// Serialized size in bytes of the fuzz layout.
    pub const BYTES: usize = 13 * 8 // control u64 block 1
        + 4 + 1 + 2 + 2 + 1 // asid, tlb, pause filter pair, pad
        + 9 * 8 // control u64 block 2
        + 4 + 4 // vmcb_clean + pad
        + 10 * Self::SEG_BYTES
        + 1 + 7 // cpl + pad
        + 17 * 8; // save u64 fields

    const SEG_BYTES: usize = 2 + 4 + 4 + 8;

    /// Serializes to the flat fuzz layout (little-endian, fixed order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::BYTES);
        let c = &self.control;
        for v in [
            c.intercepts,
            c.iopm_base_pa,
            c.msrpm_base_pa,
            c.tsc_offset,
            c.int_ctl,
            c.interrupt_shadow,
            c.exitcode,
            c.exitinfo1,
            c.exitinfo2,
            c.exitintinfo,
            c.np_enable,
            c.avic_apic_bar,
            c.event_inj,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&c.guest_asid.to_le_bytes());
        out.push(c.tlb_control);
        out.extend_from_slice(&c.pause_filter_count.to_le_bytes());
        out.extend_from_slice(&c.pause_filter_thresh.to_le_bytes());
        out.push(0);
        for v in [
            c.ncr3,
            c.lbr_ctl,
            c.nrip,
            c.avic_backing_page,
            c.avic_logical_table,
            c.avic_physical_table,
            0,
            0,
            0,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&c.vmcb_clean.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        let s = &self.save;
        for seg in [
            s.es, s.cs, s.ss, s.ds, s.fs, s.gs, s.gdtr, s.ldtr, s.idtr, s.tr,
        ] {
            out.extend_from_slice(&seg.selector.0.to_le_bytes());
            out.extend_from_slice(&seg.ar.0.to_le_bytes());
            out.extend_from_slice(&seg.limit.to_le_bytes());
            out.extend_from_slice(&seg.base.to_le_bytes());
        }
        out.push(s.cpl);
        out.extend_from_slice(&[0u8; 7]);
        for v in [
            s.efer,
            s.cr4,
            s.cr3,
            s.cr0,
            s.dr7,
            s.dr6,
            s.rflags,
            s.rip,
            s.rsp,
            s.rax,
            s.star,
            s.lstar,
            s.cstar,
            s.sfmask,
            s.kernel_gs_base,
            s.sysenter_cs,
            s.g_pat,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        debug_assert_eq!(out.len(), Self::BYTES);
        out
    }

    /// Deserializes from fuzz bytes; missing bytes read as zero.
    ///
    /// Input shorter than [`Vmcb::BYTES`] is zero-padded once up
    /// front, so every field is one fixed-width little-endian read
    /// from a full-length layout, on one path whatever the length.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let padded;
        let layout: &[u8; Self::BYTES] = match bytes.first_chunk() {
            Some(layout) => layout,
            None => {
                let mut buf = [0u8; Self::BYTES];
                buf[..bytes.len()].copy_from_slice(bytes);
                padded = buf;
                &padded
            }
        };
        let mut f = Fields { layout, off: 0 };
        let mut vmcb = Vmcb::default();
        {
            let c = &mut vmcb.control;
            c.intercepts = f.u64();
            c.iopm_base_pa = f.u64();
            c.msrpm_base_pa = f.u64();
            c.tsc_offset = f.u64();
            c.int_ctl = f.u64();
            c.interrupt_shadow = f.u64();
            c.exitcode = f.u64();
            c.exitinfo1 = f.u64();
            c.exitinfo2 = f.u64();
            c.exitintinfo = f.u64();
            c.np_enable = f.u64();
            c.avic_apic_bar = f.u64();
            c.event_inj = f.u64();
            c.guest_asid = u32::from_le_bytes(f.take());
            c.tlb_control = u8::from_le_bytes(f.take());
            c.pause_filter_count = u16::from_le_bytes(f.take());
            c.pause_filter_thresh = u16::from_le_bytes(f.take());
            f.skip(1);
            c.ncr3 = f.u64();
            c.lbr_ctl = f.u64();
            c.nrip = f.u64();
            c.avic_backing_page = f.u64();
            c.avic_logical_table = f.u64();
            c.avic_physical_table = f.u64();
            f.skip(3 * 8);
            c.vmcb_clean = u32::from_le_bytes(f.take());
            f.skip(4);
        }
        {
            let s = &mut vmcb.save;
            for seg in [
                &mut s.es,
                &mut s.cs,
                &mut s.ss,
                &mut s.ds,
                &mut s.fs,
                &mut s.gs,
                &mut s.gdtr,
                &mut s.ldtr,
                &mut s.idtr,
                &mut s.tr,
            ] {
                *seg = Segment {
                    selector: Selector(u16::from_le_bytes(f.take())),
                    ar: AccessRights::new(u32::from_le_bytes(f.take())),
                    limit: u32::from_le_bytes(f.take()),
                    base: f.u64(),
                };
            }
            s.cpl = u8::from_le_bytes(f.take());
            f.skip(7);
            for field in [
                &mut s.efer,
                &mut s.cr4,
                &mut s.cr3,
                &mut s.cr0,
                &mut s.dr7,
                &mut s.dr6,
                &mut s.rflags,
                &mut s.rip,
                &mut s.rsp,
                &mut s.rax,
                &mut s.star,
                &mut s.lstar,
                &mut s.cstar,
                &mut s.sfmask,
                &mut s.kernel_gs_base,
                &mut s.sysenter_cs,
                &mut s.g_pat,
            ] {
                *field = f.u64();
            }
        }
        debug_assert_eq!(f.off, Self::BYTES);
        vmcb
    }

    /// Returns the segment for `reg` (GDTR/IDTR are not addressable this
    /// way; they are separate fields in the save area).
    pub fn segment(&self, reg: SegReg) -> Segment {
        match reg {
            SegReg::Es => self.save.es,
            SegReg::Cs => self.save.cs,
            SegReg::Ss => self.save.ss,
            SegReg::Ds => self.save.ds,
            SegReg::Fs => self.save.fs,
            SegReg::Gs => self.save.gs,
            SegReg::Ldtr => self.save.ldtr,
            SegReg::Tr => self.save.tr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_x86::Efer;

    #[test]
    fn serialization_roundtrip() {
        let mut v = Vmcb::default();
        v.control.intercepts = intercept::VMRUN | intercept::CPUID;
        v.control.guest_asid = 7;
        v.control.int_ctl = int_ctl::V_GIF_ENABLE;
        v.control.ncr3 = 0xabc000;
        v.save.efer = Efer::SVME | Efer::LME;
        v.save.cr0 = 0x8000_0011;
        v.save.cs = Segment::flat_code64();
        v.save.cpl = 3;
        v.save.kernel_gs_base = 0xffff_8000_0000_0000;
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), Vmcb::BYTES);
        let back = Vmcb::from_bytes(&bytes);
        assert_eq!(back, v);
    }

    #[test]
    fn from_bytes_tolerates_any_length() {
        let v = Vmcb::from_bytes(&[0xaa; 16]);
        assert_eq!(v.control.intercepts, 0xaaaa_aaaa_aaaa_aaaa);
        assert_eq!(v.control.msrpm_base_pa, 0);
        let empty = Vmcb::from_bytes(&[]);
        assert_eq!(empty, Vmcb::default());
    }

    /// Reference decode: a byte cursor over the input, reading each
    /// missing byte as zero.
    fn from_bytes_reference(bytes: &[u8]) -> Vmcb {
        let mut off = 0usize;
        let mut take = |n: usize| -> u64 {
            let mut buf = [0u8; 8];
            for (i, b) in buf.iter_mut().enumerate().take(n) {
                *b = bytes.get(off + i).copied().unwrap_or(0);
            }
            off += n;
            u64::from_le_bytes(buf)
        };
        let mut v = Vmcb::default();
        let c = &mut v.control;
        c.intercepts = take(8);
        c.iopm_base_pa = take(8);
        c.msrpm_base_pa = take(8);
        c.tsc_offset = take(8);
        c.int_ctl = take(8);
        c.interrupt_shadow = take(8);
        c.exitcode = take(8);
        c.exitinfo1 = take(8);
        c.exitinfo2 = take(8);
        c.exitintinfo = take(8);
        c.np_enable = take(8);
        c.avic_apic_bar = take(8);
        c.event_inj = take(8);
        c.guest_asid = take(4) as u32;
        c.tlb_control = take(1) as u8;
        c.pause_filter_count = take(2) as u16;
        c.pause_filter_thresh = take(2) as u16;
        take(1);
        c.ncr3 = take(8);
        c.lbr_ctl = take(8);
        c.nrip = take(8);
        c.avic_backing_page = take(8);
        c.avic_logical_table = take(8);
        c.avic_physical_table = take(8);
        take(8);
        take(8);
        take(8);
        c.vmcb_clean = take(4) as u32;
        take(4);
        let s = &mut v.save;
        for seg in [
            &mut s.es,
            &mut s.cs,
            &mut s.ss,
            &mut s.ds,
            &mut s.fs,
            &mut s.gs,
            &mut s.gdtr,
            &mut s.ldtr,
            &mut s.idtr,
            &mut s.tr,
        ] {
            seg.selector = Selector(take(2) as u16);
            seg.ar = AccessRights::new(take(4) as u32);
            seg.limit = take(4) as u32;
            seg.base = take(8);
        }
        s.cpl = take(1) as u8;
        take(7);
        for field in [
            &mut s.efer,
            &mut s.cr4,
            &mut s.cr3,
            &mut s.cr0,
            &mut s.dr7,
            &mut s.dr6,
            &mut s.rflags,
            &mut s.rip,
            &mut s.rsp,
            &mut s.rax,
            &mut s.star,
            &mut s.lstar,
            &mut s.cstar,
            &mut s.sfmask,
            &mut s.kernel_gs_base,
            &mut s.sysenter_cs,
            &mut s.g_pat,
        ] {
            *field = take(8);
        }
        v
    }

    #[test]
    fn from_bytes_matches_the_reference_decode_at_every_length() {
        // splitmix64: random bytes without a dependency.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next_byte = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        };
        for len in 0..=Vmcb::BYTES + 8 {
            let bytes: Vec<u8> = (0..len).map(|_| next_byte()).collect();
            assert_eq!(
                Vmcb::from_bytes(&bytes),
                from_bytes_reference(&bytes),
                "length {len}"
            );
        }
    }

    #[test]
    fn segment_accessor() {
        let mut v = Vmcb::default();
        v.save.fs = Segment::flat_data();
        assert_eq!(v.segment(SegReg::Fs), Segment::flat_data());
        assert_eq!(v.segment(SegReg::Cs), Segment::default());
    }
}
