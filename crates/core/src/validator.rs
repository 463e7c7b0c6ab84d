//! The VM state validator (paper §3.4, §4.3).
//!
//! The validator turns raw fuzz bytes into VM states **near the boundary
//! between valid and invalid**:
//!
//! 1. deserialize the raw bytes as a VMCS (or VMCB);
//! 2. *round* every field group to a specification-compliant value —
//!    sequentially over control, host-state, and guest-state fields so
//!    that inter-group constraints can be corrected deterministically;
//! 3. *verify* the result against the physical CPU (the `nf-silicon`
//!    oracle), detecting and correcting the validator's own modeling
//!    errors at runtime;
//! 4. *selectively invalidate*: flip 1–8 bits in 1–3 fields chosen by
//!    the fuzzing input, pushing the state across subtle validity
//!    boundaries.
//!
//! The rounding/prediction logic models the Bochs-derived
//! `VMenterLoadCheck{VmControls,HostState,GuestState}` routines — and
//! ships with two deliberately seeded "Bochs bugs" (mirroring the two
//! the authors found and fixed upstream, Bochs PR #51) plus no initial
//! knowledge of the CR4.PAE silent-rounding quirk. All three are
//! discovered and corrected by the oracle loop during fuzzing.

use nf_silicon::vmentry::{EntryFailure, EntryOutcome};
use nf_vmx::controls::{entry as ec, exit as xc, pin, proc, proc2};
use nf_vmx::vmcb::intercept;
use nf_vmx::{CtrlKind, MsrArea, MsrAreaEntry, Vmcb, Vmcs, VmcsField, VmxCapabilities};
use nf_x86::addr::{round_phys, VirtAddr};
use nf_x86::msr::{pat_rounded, ALL_MSRS};
use nf_x86::{Cr0, Cr4, Efer, Msr, RFlags, SegReg};

/// Guest-physical address where the harness stages the MSR-load area.
pub const MSR_AREA_GPA: u64 = 0x6000;

/// A modeling error the oracle loop detected and corrected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Correction {
    /// Stable identifier of the corrected rule.
    pub rule: &'static str,
    /// What happened.
    pub detail: String,
}

/// Outcome of one oracle verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleVerdict {
    /// Model and hardware agree.
    Agree,
    /// The model predicted validity but hardware rejected the state
    /// (a missing constraint was learned).
    MissedConstraint(&'static str),
    /// The model predicted rejection but hardware accepted the state
    /// (an over-strict constraint was dropped, or a quirk was learned).
    OverStrict(&'static str),
}

/// The VM state validator.
#[derive(Debug, Clone)]
pub struct VmStateValidator {
    caps: VmxCapabilities,
    /// Seeded Bochs bug A: the SS.RPL == CS.RPL guest check is missing
    /// (under-constraint). `true` = still buggy.
    bochs_bug_ss_rpl: bool,
    /// Seeded Bochs bug B: TR type 3 (16-bit busy TSS) is rejected even
    /// outside IA-32e mode (over-constraint). `true` = still buggy.
    bochs_bug_tr_type: bool,
    /// Whether the CR4.PAE-assumed-in-IA-32e hardware quirk has been
    /// learned from the oracle.
    knows_pae_quirk: bool,
    /// Corrections applied so far, in discovery order.
    pub corrections: Vec<Correction>,
}

impl VmStateValidator {
    /// Creates a validator for the capability surface the harness VM
    /// sees (its "physical CPU").
    pub fn new(caps: VmxCapabilities) -> Self {
        VmStateValidator {
            caps,
            bochs_bug_ss_rpl: true,
            bochs_bug_tr_type: true,
            knows_pae_quirk: false,
            corrections: Vec::new(),
        }
    }

    /// Returns `true` once all seeded modeling errors have been fixed.
    pub fn fully_corrected(&self) -> bool {
        !self.bochs_bug_ss_rpl && !self.bochs_bug_tr_type && self.knows_pae_quirk
    }

    /// Marks the CR4.PAE quirk as known (used when re-deriving a
    /// validator for a new configuration without re-learning).
    pub fn apply_known_quirk(&mut self) {
        self.knows_pae_quirk = true;
    }

    /// Applies the SS.RPL fix (Bochs bug A).
    pub fn apply_ss_rpl_fix(&mut self) {
        self.bochs_bug_ss_rpl = false;
    }

    /// Applies the TR-type fix (Bochs bug B).
    pub fn apply_tr_type_fix(&mut self) {
        self.bochs_bug_tr_type = false;
    }

    /// Re-applies one persisted correction by rule name and re-records
    /// it — the checkpoint-resume path re-learning what the
    /// interrupted campaign's oracle loop already learned. Returns
    /// `false` for unknown rule names (which are skipped, keeping old
    /// checkpoints loadable).
    pub fn restore_correction(&mut self, rule: &str, detail: String) -> bool {
        let rule: &'static str = match rule {
            "cr4_pae_quirk" => {
                self.apply_known_quirk();
                "cr4_pae_quirk"
            }
            "guest.ss_rpl" => {
                self.apply_ss_rpl_fix();
                "guest.ss_rpl"
            }
            "tr_type_legacy" => {
                self.apply_tr_type_fix();
                "tr_type_legacy"
            }
            _ => return false,
        };
        self.corrections.push(Correction { rule, detail });
        true
    }

    // --- Rounding (Bochs-derived `VMenterLoadCheck*` + corrections) ----

    /// Rounds the control-field group (`VMenterLoadCheckVmControls`).
    fn round_controls(&self, v: &mut Vmcs) {
        let caps = &self.caps;
        let pinv = caps.round_control(
            CtrlKind::PinBased,
            v.read(VmcsField::PinBasedVmExecControl) as u32,
        );
        let mut procv = caps.round_control(
            CtrlKind::ProcBased,
            v.read(VmcsField::CpuBasedVmExecControl) as u32,
        );
        let mut proc2v = caps.round_control(
            CtrlKind::ProcBased2,
            v.read(VmcsField::SecondaryVmExecControl) as u32,
        );
        if proc2v != 0 {
            procv = caps.round_control(CtrlKind::ProcBased, procv | proc::SECONDARY_CONTROLS);
        }
        // Unrestricted guest requires EPT.
        if proc2v & proc2::UNRESTRICTED_GUEST != 0 && proc2v & proc2::ENABLE_EPT == 0 {
            proc2v = caps.round_control(CtrlKind::ProcBased2, proc2v | proc2::ENABLE_EPT);
            if proc2v & proc2::ENABLE_EPT == 0 {
                proc2v &= !proc2::UNRESTRICTED_GUEST;
            }
        }
        let mut exitv =
            caps.round_control(CtrlKind::Exit, v.read(VmcsField::VmExitControls) as u32);
        exitv |= xc::HOST_ADDR_SPACE_SIZE; // the modeled host is 64-bit
        let mut entryv =
            caps.round_control(CtrlKind::Entry, v.read(VmcsField::VmEntryControls) as u32);
        entryv &= !(ec::ENTRY_TO_SMM | ec::DEACT_DUAL_MONITOR);
        v.write(VmcsField::PinBasedVmExecControl, pinv as u64);
        v.write(VmcsField::CpuBasedVmExecControl, procv as u64);
        v.write(VmcsField::SecondaryVmExecControl, proc2v as u64);
        v.write(VmcsField::VmExitControls, exitv as u64);
        v.write(VmcsField::VmEntryControls, entryv as u64);

        // Physical-address fields: align and clamp.
        for f in [
            VmcsField::IoBitmapA,
            VmcsField::IoBitmapB,
            VmcsField::MsrBitmap,
            VmcsField::VirtualApicPageAddr,
            VmcsField::ApicAccessAddr,
            VmcsField::VmreadBitmap,
            VmcsField::VmwriteBitmap,
            VmcsField::PmlAddress,
        ] {
            v.write(f, round_phys(v.read(f)));
        }
        // Posted interrupts: satisfy the dependency chain or drop it.
        if pinv & pin::POSTED_INTR != 0 {
            let deps_ok =
                proc2v & proc2::VIRT_INTR_DELIVERY != 0 && exitv & xc::ACK_INTR_ON_EXIT != 0;
            if deps_ok {
                v.write(
                    VmcsField::PostedIntrNv,
                    v.read(VmcsField::PostedIntrNv) & 0xff,
                );
                v.write(
                    VmcsField::PostedIntrDescAddr,
                    round_phys(v.read(VmcsField::PostedIntrDescAddr)) & !0x3f,
                );
            } else {
                v.write(
                    VmcsField::PinBasedVmExecControl,
                    (pinv & !pin::POSTED_INTR) as u64,
                );
            }
        }
        // APIC virtualization requires the TPR shadow.
        if procv & proc::USE_TPR_SHADOW == 0 {
            let cleaned = proc2v
                & !(proc2::VIRT_X2APIC | proc2::APIC_REGISTER_VIRT | proc2::VIRT_INTR_DELIVERY);
            v.write(VmcsField::SecondaryVmExecControl, cleaned as u64);
        } else {
            v.write(
                VmcsField::TprThreshold,
                v.read(VmcsField::TprThreshold) & 0xf,
            );
        }
        // EPTP: keep the fuzz-chosen address bits but force a legal
        // format (WB, 4-level walk, reserved clear).
        if proc2v & proc2::ENABLE_EPT != 0 {
            let addr = round_phys(v.read(VmcsField::EptPointer));
            v.write(VmcsField::EptPointer, addr | 6 | (3 << 3));
        }
        if proc2v & proc2::ENABLE_VPID != 0 && v.read(VmcsField::Vpid) == 0 {
            v.write(VmcsField::Vpid, 1);
        }
        v.write(
            VmcsField::Cr3TargetCount,
            v.read(VmcsField::Cr3TargetCount) % 5,
        );
        // Small preemption-timer values keep timer exits reachable
        // within the runtime phase's iteration budget.
        v.write(
            VmcsField::VmxPreemptionTimerValue,
            v.read(VmcsField::VmxPreemptionTimerValue) % 4,
        );
        // MSR areas: small counts at the staged address.
        for (count_f, addr_f) in [
            (
                VmcsField::VmExitMsrStoreCount,
                VmcsField::VmExitMsrStoreAddr,
            ),
            (VmcsField::VmExitMsrLoadCount, VmcsField::VmExitMsrLoadAddr),
            (
                VmcsField::VmEntryMsrLoadCount,
                VmcsField::VmEntryMsrLoadAddr,
            ),
        ] {
            let count = v.read(count_f) % 4;
            v.write(count_f, count);
            if count != 0 {
                v.write(addr_f, MSR_AREA_GPA);
            }
        }
        // Event injection: round to a deliverable event or clear it.
        let inj = nf_x86::EventInjection(v.read(VmcsField::VmEntryIntrInfoField) as u32);
        if inj.valid() && inj.check().is_err() {
            let vector = nf_x86::Vector((inj.0 & 0xff) as u8 & 31);
            let fixed = nf_x86::EventInjection::build(
                vector,
                nf_x86::EventType::HardException,
                vector.has_error_code(),
                true,
            );
            v.write(VmcsField::VmEntryIntrInfoField, fixed.0 as u64);
        }
    }

    /// Rounds the host-state group (`VMenterLoadCheckHostState`).
    fn round_host(&self, v: &mut Vmcs) {
        let caps = &self.caps;
        v.write(
            VmcsField::HostCr0,
            caps.round_cr0(v.read(VmcsField::HostCr0), false),
        );
        v.write(
            VmcsField::HostCr4,
            caps.round_cr4(v.read(VmcsField::HostCr4)) | Cr4::PAE,
        );
        v.write(
            VmcsField::HostCr3,
            v.read(VmcsField::HostCr3) & ((1 << 46) - 1),
        );
        // Selectors: clear TI/RPL, keep the index; CS/TR must be nonzero.
        for f in [
            VmcsField::HostEsSelector,
            VmcsField::HostCsSelector,
            VmcsField::HostSsSelector,
            VmcsField::HostDsSelector,
            VmcsField::HostFsSelector,
            VmcsField::HostGsSelector,
            VmcsField::HostTrSelector,
        ] {
            v.write(f, v.read(f) & 0xfff8);
        }
        if v.read(VmcsField::HostCsSelector) == 0 {
            v.write(VmcsField::HostCsSelector, 0x08);
        }
        if v.read(VmcsField::HostTrSelector) == 0 {
            v.write(VmcsField::HostTrSelector, 0x40);
        }
        for f in [
            VmcsField::HostFsBase,
            VmcsField::HostGsBase,
            VmcsField::HostTrBase,
            VmcsField::HostGdtrBase,
            VmcsField::HostIdtrBase,
            VmcsField::HostIa32SysenterEsp,
            VmcsField::HostIa32SysenterEip,
            VmcsField::HostRip,
            VmcsField::HostRsp,
        ] {
            v.write(f, VirtAddr(v.read(f)).canonicalized().0);
        }
        // Inter-group constraint: the exit controls (group 1) force a
        // 64-bit host, so EFER/PAT loaded on exit must agree.
        let exitv = v.read(VmcsField::VmExitControls) as u32;
        if exitv & xc::LOAD_PAT != 0 {
            v.write(
                VmcsField::HostIa32Pat,
                pat_rounded(v.read(VmcsField::HostIa32Pat)),
            );
        }
        if exitv & xc::LOAD_EFER != 0 {
            let efer = (v.read(VmcsField::HostIa32Efer) & Efer::DEFINED) | Efer::LME | Efer::LMA;
            v.write(VmcsField::HostIa32Efer, efer);
        }
    }

    /// Rounds the guest-state group (`VMenterLoadCheckGuestState`).
    fn round_guest(&self, v: &mut Vmcs) {
        let caps = &self.caps;
        let proc2v =
            if v.read(VmcsField::CpuBasedVmExecControl) as u32 & proc::SECONDARY_CONTROLS != 0 {
                v.read(VmcsField::SecondaryVmExecControl) as u32
            } else {
                0
            };
        let unrestricted = proc2v & proc2::UNRESTRICTED_GUEST != 0;
        let entryv = v.read(VmcsField::VmEntryControls) as u32;
        let ia32e = entryv & ec::IA32E_MODE_GUEST != 0;

        let mut cr0 = caps.round_cr0(v.read(VmcsField::GuestCr0), unrestricted);
        let mut cr4 = caps.round_cr4(v.read(VmcsField::GuestCr4));
        if ia32e {
            // Inter-group constraint from the entry controls: IA-32e
            // needs paging. Until the oracle teaches the validator the
            // CR4.PAE quirk, the SDM reading forces PAE too (paper §4.3:
            // "if IA32_EFER.LME is set ... while CR4.PAE is unset, the
            // validator forces this bit to 1").
            cr0 |= Cr0::PG | Cr0::PE;
            if !self.knows_pae_quirk {
                cr4 |= Cr4::PAE;
            }
        } else {
            cr4 &= !Cr4::PCIDE;
        }
        v.write(VmcsField::GuestCr0, cr0);
        v.write(VmcsField::GuestCr4, cr4);
        v.write(
            VmcsField::GuestCr3,
            v.read(VmcsField::GuestCr3) & ((1 << 46) - 1),
        );

        if entryv & ec::LOAD_EFER != 0 {
            let mut efer = v.read(VmcsField::GuestIa32Efer) & Efer::DEFINED;
            if ia32e {
                efer |= Efer::LMA | Efer::LME;
            } else {
                efer &= !Efer::LMA;
                if cr0 & Cr0::PG != 0 {
                    efer &= !Efer::LME;
                }
            }
            v.write(VmcsField::GuestIa32Efer, efer);
        }
        if entryv & ec::LOAD_DEBUG_CONTROLS != 0 {
            v.write(
                VmcsField::GuestDr7,
                (v.read(VmcsField::GuestDr7) & 0xffff_ffff) | (1 << 10),
            );
            v.write(
                VmcsField::GuestIa32Debugctl,
                v.read(VmcsField::GuestIa32Debugctl) & 0xffc3,
            );
        }
        if entryv & ec::LOAD_PAT != 0 {
            v.write(
                VmcsField::GuestIa32Pat,
                pat_rounded(v.read(VmcsField::GuestIa32Pat)),
            );
        }
        if entryv & ec::LOAD_PERF_GLOBAL_CTRL != 0 {
            v.write(
                VmcsField::GuestIa32PerfGlobalCtrl,
                v.read(VmcsField::GuestIa32PerfGlobalCtrl) & 0x7_0000_000f,
            );
        }

        let mut rflags = RFlags::new(v.read(VmcsField::GuestRflags)).rounded();
        if ia32e || cr0 & Cr0::PE == 0 {
            rflags = RFlags::new(rflags.0 & !RFlags::VM);
        }
        v.write(VmcsField::GuestRflags, rflags.0);
        let v86 = rflags.has(RFlags::VM);
        if v86 {
            // Virtual-8086 mode pins base/limit/AR of every user segment
            // (SDM 26.3.1.2); only the selectors keep fuzz entropy.
            for reg in [
                SegReg::Cs,
                SegReg::Ss,
                SegReg::Ds,
                SegReg::Es,
                SegReg::Fs,
                SegReg::Gs,
            ] {
                let mut s = v.guest_segment(reg);
                s.base = (s.selector.0 as u64) << 4;
                s.limit = 0xffff;
                s.ar = nf_x86::AccessRights::new(0xf3);
                v.set_guest_segment(reg, s);
            }
        }

        // Segments. The raw AR bits are mapped onto the nearest legal
        // shape, keeping as much fuzz entropy as possible. (In V86 mode
        // the segments were already pinned above.)
        if !v86 {
            let cs = {
                let mut s = v.guest_segment(SegReg::Cs);
                // Legal types map to themselves (rounding must be
                // idempotent); everything else folds onto the nearest one.
                let legal: &[u8] = if unrestricted {
                    &[3, 9, 11, 15]
                } else {
                    &[9, 11, 13, 15]
                };
                let raw_t = s.ar.typ();
                let t = if legal.contains(&raw_t) {
                    raw_t
                } else {
                    legal[((raw_t >> 1) & 3) as usize]
                };
                s.ar = nf_x86::AccessRights::build(
                    t,
                    true,
                    s.ar.dpl(),
                    true,
                    false,
                    ia32e,
                    s.ar.db() && !ia32e,
                    s.ar.granularity(),
                );
                s = s.round_granularity();
                s.base &= 0xffff_ffff;
                s
            };
            v.set_guest_segment(SegReg::Cs, cs);

            let mut ss = v.guest_segment(SegReg::Ss);
            if !ss.ar.unusable() {
                let t = if ss.ar.typ() & 4 != 0 { 7 } else { 3 };
                ss.ar = nf_x86::AccessRights::build(
                    t,
                    true,
                    ss.ar.dpl(),
                    true,
                    false,
                    false,
                    ss.ar.db(),
                    ss.ar.granularity(),
                );
                ss = ss.round_granularity();
                ss.base &= 0xffff_ffff;
            }
            // Bochs bug A (seeded): the SS.RPL == CS.RPL constraint is
            // missing from the model, so rounding leaves the fuzzed RPL —
            // the oracle will reject such states until the bug is corrected.
            if !self.bochs_bug_ss_rpl {
                ss.selector = nf_x86::Selector((ss.selector.0 & !3) | (cs.selector.0 & 3));
            }
            v.set_guest_segment(SegReg::Ss, ss);

            for reg in [SegReg::Ds, SegReg::Es, SegReg::Fs, SegReg::Gs] {
                let mut s = v.guest_segment(reg);
                if s.ar.unusable() {
                    s.ar = nf_x86::AccessRights::new(nf_x86::AccessRights::UNUSABLE);
                } else {
                    let code = s.ar.typ() & 8 != 0;
                    let t = if code { 0xb } else { 0x3 }; // readable code / writable data, accessed
                    s.ar = nf_x86::AccessRights::build(
                        t,
                        true,
                        s.ar.dpl(),
                        true,
                        false,
                        false,
                        s.ar.db(),
                        s.ar.granularity(),
                    );
                    s = s.round_granularity();
                }
                s.base = VirtAddr(s.base).canonicalized().0;
                v.set_guest_segment(reg, s);
            }
        }

        let mut tr = v.guest_segment(SegReg::Tr);
        // Bochs bug B (seeded): the model believes TR must always be a
        // 64-bit busy TSS (type 11); legacy type 3 is legal off IA-32e.
        let tr_type = if self.bochs_bug_tr_type || ia32e {
            11
        } else if tr.ar.typ() == 3 {
            3
        } else {
            11
        };
        tr.ar = nf_x86::AccessRights::build(
            tr_type,
            false,
            0,
            true,
            false,
            false,
            false,
            tr.ar.granularity(),
        );
        tr.selector = nf_x86::Selector(tr.selector.0 & !0x4);
        tr = tr.round_granularity();
        tr.base = VirtAddr(tr.base).canonicalized().0;
        v.set_guest_segment(SegReg::Tr, tr);

        let mut ldtr = v.guest_segment(SegReg::Ldtr);
        if !ldtr.ar.unusable() {
            ldtr.ar = nf_x86::AccessRights::build(2, false, 0, true, false, false, false, false);
            ldtr.selector = nf_x86::Selector(ldtr.selector.0 & !0x4);
            ldtr.limit &= 0xffff;
            ldtr.base = VirtAddr(ldtr.base).canonicalized().0;
        }
        v.set_guest_segment(SegReg::Ldtr, ldtr);

        for (base_f, limit_f) in [
            (VmcsField::GuestGdtrBase, VmcsField::GuestGdtrLimit),
            (VmcsField::GuestIdtrBase, VmcsField::GuestIdtrLimit),
        ] {
            v.write(base_f, VirtAddr(v.read(base_f)).canonicalized().0);
            v.write(limit_f, v.read(limit_f) & 0xffff);
        }

        let rip = v.read(VmcsField::GuestRip);
        if ia32e {
            v.write(VmcsField::GuestRip, VirtAddr(rip).canonicalized().0);
        } else {
            v.write(VmcsField::GuestRip, rip & 0xffff_ffff);
        }

        // Activity state: all four architectural states are *valid* for
        // entry (which is precisely what makes Xen's pass-through bug
        // reachable); reserved values are rounded away.
        v.write(
            VmcsField::GuestActivityState,
            v.read(VmcsField::GuestActivityState) % 4,
        );
        let intr = nf_x86::Interruptibility(v.read(VmcsField::GuestInterruptibilityInfo) as u32)
            .rounded(RFlags::new(v.read(VmcsField::GuestRflags)));
        let intr = if v.read(VmcsField::GuestActivityState) == 1 {
            nf_x86::Interruptibility(
                intr.0 & !(nf_x86::Interruptibility::STI | nf_x86::Interruptibility::MOV_SS),
            )
        } else {
            intr
        };
        v.write(VmcsField::GuestInterruptibilityInfo, intr.0 as u64);
        v.write(
            VmcsField::GuestPendingDbgExceptions,
            v.read(VmcsField::GuestPendingDbgExceptions) & (0xf | (1 << 12) | (1 << 14)),
        );
        let shadowing = proc2v & proc2::VMCS_SHADOWING != 0;
        if !shadowing || v.read(VmcsField::VmcsLinkPointer) != u64::MAX {
            v.write(VmcsField::VmcsLinkPointer, u64::MAX);
        }
        // PDPTEs: clear reserved bits when present.
        for f in [
            VmcsField::GuestPdpte0,
            VmcsField::GuestPdpte1,
            VmcsField::GuestPdpte2,
            VmcsField::GuestPdpte3,
        ] {
            let p = v.read(f);
            if p & 1 != 0 {
                v.write(f, p & !0b1_1110_0110);
            }
        }
    }

    /// Full sequential rounding: control → host → guest (paper §4.3).
    pub fn round(&self, raw: &Vmcs) -> Vmcs {
        let mut v = raw.clone();
        // Read-only data fields cannot be written through `vmwrite`; the
        // effective VMCS12 content is whatever the last exit stored —
        // zero before the first launch.
        for &f in VmcsField::ALL {
            if !f.writable() {
                v.write(f, 0);
            }
        }
        // Bochs's validation model zeroes fields of features it does not
        // implement; keep only their low bits as mutation targets.
        for f in [
            VmcsField::EoiExitBitmap0,
            VmcsField::EoiExitBitmap1,
            VmcsField::EoiExitBitmap2,
            VmcsField::EoiExitBitmap3,
            VmcsField::XssExitBitmap,
            VmcsField::EnclsExitingBitmap,
            VmcsField::TscOffset,
            VmcsField::TscMultiplier,
            VmcsField::ExecutiveVmcsPointer,
            VmcsField::SpptPointer,
            VmcsField::HlatPointer,
            VmcsField::GuestBndcfgs,
            VmcsField::GuestIa32RtitCtl,
            VmcsField::GuestIa32Pkrs,
            VmcsField::HostIa32Pkrs,
            VmcsField::GuestSCet,
            VmcsField::GuestSsp,
            VmcsField::GuestIntrSspTableAddr,
            VmcsField::HostSCet,
            VmcsField::HostSsp,
            VmcsField::GuestSmbase,
            VmcsField::VmFunctionControl,
            VmcsField::EptpListAddress,
            VmcsField::VeInfoAddress,
            VmcsField::EptpIndex,
        ] {
            v.write(f, v.read(f) & 0xffff);
        }
        self.round_controls(&mut v);
        self.round_host(&mut v);
        self.round_guest(&mut v);
        v
    }

    /// The Bochs-derived *prediction*: what the model believes the CPU
    /// will do with this state, derived from the oracle's verdict on it
    /// (`try_vmentry` is pure, so one run serves both sides).
    /// Deviations from `nf-silicon` are exactly the seeded modeling
    /// errors.
    fn predict(
        &self,
        vmcs: &Vmcs,
        oracle: &Result<EntryOutcome, EntryFailure>,
    ) -> Result<(), &'static str> {
        // Model-specific over-strictness first.
        let entryv = vmcs.read(VmcsField::VmEntryControls) as u32;
        let ia32e = entryv & ec::IA32E_MODE_GUEST != 0;
        if !self.knows_pae_quirk && ia32e && vmcs.read(VmcsField::GuestCr4) & Cr4::PAE == 0 {
            return Err("bochs.cr4_pae_sdm");
        }
        if self.bochs_bug_tr_type && !ia32e {
            let tr = vmcs.guest_segment(SegReg::Tr);
            if tr.ar.typ() == 3 {
                return Err("bochs.tr_type_legacy");
            }
        }
        match oracle {
            Ok(_) => Ok(()),
            Err(failure) => {
                let rule = failure.rule();
                // Model-specific under-constraint: the missing SS.RPL
                // check makes the model blind to this failure.
                if self.bochs_bug_ss_rpl && rule == "guest.ss_rpl" {
                    return Ok(());
                }
                Err(rule)
            }
        }
    }

    /// Verifies a state on the physical CPU and corrects the model on
    /// disagreement (paper §3.4: "using hardware behavior as ground
    /// truth to detect and correct modeling inaccuracies at runtime").
    pub fn verify_on_oracle(&mut self, vmcs: &Vmcs, msr_area: &MsrArea) -> OracleVerdict {
        let oracle = nf_silicon::try_vmentry(vmcs, &self.caps, msr_area);
        let prediction = self.predict(vmcs, &oracle);
        match (prediction, oracle) {
            (Ok(()), Ok(_)) => OracleVerdict::Agree,
            (Err(_), Err(_)) => OracleVerdict::Agree,
            (Ok(()), Err(failure)) => {
                let rule = match failure {
                    EntryFailure::InvalidGuestState(ref e) if e.rule == "guest.ss_rpl" => {
                        self.bochs_bug_ss_rpl = false;
                        self.corrections.push(Correction {
                            rule: "guest.ss_rpl",
                            detail: "learned missing constraint: SS.RPL must equal CS.RPL".into(),
                        });
                        "guest.ss_rpl"
                    }
                    ref f => {
                        let r = f.rule();
                        self.corrections.push(Correction {
                            rule: "oracle.missed",
                            detail: format!("hardware rejected a predicted-valid state: {r}"),
                        });
                        "oracle.missed"
                    }
                };
                OracleVerdict::MissedConstraint(rule)
            }
            (Err(rule), Ok(_)) => {
                match rule {
                    "bochs.cr4_pae_sdm" => {
                        self.knows_pae_quirk = true;
                        self.corrections.push(Correction {
                            rule: "cr4_pae_quirk",
                            detail: "learned quirk: CPU assumes CR4.PAE in IA-32e mode".into(),
                        });
                    }
                    "bochs.tr_type_legacy" => {
                        self.bochs_bug_tr_type = false;
                        self.corrections.push(Correction {
                            rule: "tr_type_legacy",
                            detail: "dropped over-strict check: TR type 3 is legal outside \
                                     IA-32e"
                                .into(),
                        });
                    }
                    other => {
                        self.corrections.push(Correction {
                            rule: "oracle.overstrict",
                            detail: format!("hardware accepted a predicted-invalid state: {other}"),
                        });
                    }
                }
                OracleVerdict::OverStrict(rule)
            }
        }
    }

    /// Selective invalidation (paper §4.3): flips 1–8 bits in 1–3 fields
    /// chosen by the mutation directives.
    pub fn mutate(&self, vmcs: &Vmcs, directives: &[u8]) -> Vmcs {
        let mut v = vmcs.clone();
        let d = |i: usize| directives.get(i).copied().unwrap_or(0);
        let field_count = 1 + (d(0) % 3) as usize;
        for fi in 0..field_count {
            let base = 1 + fi * 9;
            let idx = ((d(base) as usize) << 8 | d(base + 1) as usize) % VmcsField::ALL.len();
            let field = VmcsField::ALL[idx];
            let width = field.width().bits();
            let bit_count = 1 + (d(base + 2) % 8) as u32;
            let mut value = v.read(field);
            for bi in 0..bit_count {
                // AFL-style bias: half of the flips target the low
                // (architecturally defined) bit region, where the
                // security-critical semantics live (paper §4.3: "focusing
                // bit flips on security-critical areas").
                let raw = d(base + 3 + bi as usize) as u32;
                let bit = if raw & 1 == 0 {
                    (raw >> 1) % width.min(16)
                } else {
                    raw % width
                };
                value ^= 1 << bit;
            }
            v.write(field, value);
        }
        v
    }

    /// The full generation pipeline: raw seed → round → oracle verify →
    /// selective invalidation. Returns the near-boundary VMCS and the
    /// staged MSR area.
    pub fn generate(
        &mut self,
        seed: &[u8],
        directives: &[u8],
        msr_bytes: &[u8],
    ) -> (Vmcs, MsrArea) {
        let raw = Vmcs::from_bytes(seed);
        let rounded = self.round(&raw);
        let msr_area = self.round_msr_area(&rounded, msr_bytes);
        self.verify_on_oracle(&rounded, &msr_area);
        let near_boundary = self.mutate(&rounded, directives);
        // A second oracle comparison on the perturbed state doubles as
        // the self-test of the model's failure prediction.
        self.verify_on_oracle(&near_boundary, &msr_area);
        (near_boundary, msr_area)
    }

    /// Builds the MSR-load area the VMCS references: indices are rounded
    /// onto the architectural MSR catalogue; **values are kept raw** —
    /// value legality is exactly what the L0 hypervisor must check
    /// (CVE-2024-21106 territory).
    pub fn round_msr_area(&self, vmcs: &Vmcs, msr_bytes: &[u8]) -> MsrArea {
        let count = vmcs.read(VmcsField::VmEntryMsrLoadCount) as usize;
        let mut area = MsrArea::from_bytes(msr_bytes, count);
        for e in &mut area.entries {
            e.index = ALL_MSRS[e.index as usize % ALL_MSRS.len()].index();
        }
        area
    }

    // --- AMD (VMCB) side -------------------------------------------------

    /// Rounds a raw VMCB to a `vmrun`-accepted state, mirroring the APM
    /// canonicalization checks. `EFER.LMA` is deliberately left as the
    /// fuzz input chose it: the APM does not constrain it, and the
    /// `LMA && !PG` states this produces are the paper's Xen bugs.
    pub fn round_vmcb(&self, raw: &Vmcb) -> Vmcb {
        let mut v = *raw;
        v.control.intercepts |= intercept::VMRUN;
        if v.control.guest_asid == 0 {
            v.control.guest_asid = 1;
        }
        v.save.efer = (v.save.efer & Efer::DEFINED) | Efer::SVME;
        v.save.cr0 &= 0xffff_ffff & Cr0::DEFINED;
        if v.save.cr0 & Cr0::NW != 0 && v.save.cr0 & Cr0::CD == 0 {
            v.save.cr0 &= !Cr0::NW;
        }
        v.save.cr3 &= (1 << 46) - 1;
        v.save.cr4 &= Cr4::DEFINED;
        v.save.dr6 &= 0xffff_ffff;
        v.save.dr7 &= 0xffff_ffff;
        if v.save.efer & Efer::LME != 0 && v.save.cr0 & Cr0::PG != 0 {
            v.save.cr4 |= Cr4::PAE;
            v.save.cr0 |= Cr0::PE;
            if v.save.cs.ar.long() && v.save.cs.ar.db() {
                v.save.cs.ar.0 &= !(1 << 14);
            }
        }
        v.control.np_enable &= 1;
        v.control.ncr3 &= (1 << 46) - 1;
        v.control.iopm_base_pa = round_phys(v.control.iopm_base_pa);
        v.control.msrpm_base_pa = round_phys(v.control.msrpm_base_pa);
        v.save.g_pat = pat_rounded(v.save.g_pat);
        v
    }

    /// Bit-level VMCB mutation over the serialized layout.
    pub fn mutate_vmcb(&self, vmcb: &Vmcb, directives: &[u8]) -> Vmcb {
        let mut bytes = vmcb.to_bytes();
        let d = |i: usize| directives.get(i).copied().unwrap_or(0);
        let flips = 1 + (d(0) % 8) as usize;
        for i in 0..flips {
            let off = (d(1 + i * 2) as usize) << 8 | d(2 + i * 2) as usize;
            let off = off % bytes.len();
            bytes[off] ^= 1 << (d(3 + i) % 8);
        }
        Vmcb::from_bytes(&bytes)
    }

    /// Full AMD pipeline: raw → round → oracle verify → mutate.
    pub fn generate_vmcb(&mut self, seed: &[u8], directives: &[u8]) -> Vmcb {
        let raw = Vmcb::from_bytes(seed);
        let rounded = self.round_vmcb(&raw);
        // Oracle comparison on the AMD side: VMRUN accept/reject.
        let predicted = nf_silicon::check_vmrun(&rounded, true).is_ok();
        if !predicted {
            self.corrections.push(Correction {
                rule: "svm.round_incomplete",
                detail: "vmrun oracle rejected a rounded VMCB".into(),
            });
        }
        self.mutate_vmcb(&rounded, directives)
    }

    /// Builds a raw MSR area directly from bytes (used by harness code
    /// that bypasses the validator in ablation runs).
    pub fn raw_msr_area(msr_bytes: &[u8], count: usize) -> MsrArea {
        let mut area = MsrArea::from_bytes(msr_bytes, count);
        for e in &mut area.entries {
            e.index = ALL_MSRS[e.index as usize % ALL_MSRS.len()].index();
        }
        area
    }
}

/// Helper: a canonical MSR-load entry for tests and examples.
pub fn msr_entry(msr: Msr, value: u64) -> MsrAreaEntry {
    MsrAreaEntry {
        index: msr.index(),
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_x86::segment::Segment;
    use nf_x86::{CpuVendor, FeatureSet};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn caps() -> VmxCapabilities {
        VmxCapabilities::from_features(FeatureSet::default_for(CpuVendor::Intel))
    }

    fn random_seed(rng: &mut SmallRng) -> Vec<u8> {
        let mut bytes = vec![0u8; Vmcs::BYTES];
        rng.fill(&mut bytes[..]);
        bytes
    }

    #[test]
    fn rounded_random_states_pass_oracle_after_corrections() {
        let mut validator = VmStateValidator::new(caps());
        let mut rng = SmallRng::seed_from_u64(42);
        // Warm-up: let the oracle loop correct the seeded model bugs.
        for _ in 0..64 {
            let seed = random_seed(&mut rng);
            let raw = Vmcs::from_bytes(&seed);
            let rounded = validator.round(&raw);
            validator.verify_on_oracle(&rounded, &MsrArea::new());
        }
        assert!(!validator.bochs_bug_ss_rpl, "SS.RPL bug must be learned");
        // After corrections, rounding must be sound: every rounded state
        // enters on the oracle.
        let mut accepted = 0;
        for _ in 0..64 {
            let seed = random_seed(&mut rng);
            let rounded = validator.round(&Vmcs::from_bytes(&seed));
            if nf_silicon::try_vmentry(&rounded, &caps(), &MsrArea::new()).is_ok() {
                accepted += 1;
            }
        }
        assert!(accepted >= 62, "rounding soundness: {accepted}/64 accepted");
    }

    /// Builds a valid legacy-mode (non-IA-32e) VMCS.
    fn legacy_vmcs() -> Vmcs {
        let mut v = nf_silicon::golden_vmcs(&caps());
        let entry = v.read(VmcsField::VmEntryControls) & !(ec::IA32E_MODE_GUEST as u64);
        v.write(VmcsField::VmEntryControls, entry);
        v.write(VmcsField::GuestIa32Efer, 0);
        let mut cs = Segment::flat_code64();
        cs.ar = nf_x86::AccessRights::build(0xb, true, 0, true, false, false, true, true);
        v.set_guest_segment(SegReg::Cs, cs);
        v.write(VmcsField::GuestRip, 0x1000);
        assert!(
            nf_silicon::try_vmentry(&v, &caps(), &MsrArea::new()).is_ok(),
            "legacy probe state must be oracle-valid"
        );
        v
    }

    #[test]
    fn oracle_teaches_the_pae_quirk() {
        let mut validator = VmStateValidator::new(caps());
        // IA-32e guest with CR4.PAE = 0: the SDM says invalid, hardware
        // silently assumes PAE. The oracle comparison must teach it.
        let mut probe = nf_silicon::golden_vmcs(&caps());
        probe.write(
            VmcsField::GuestCr4,
            probe.read(VmcsField::GuestCr4) & !Cr4::PAE,
        );
        let verdict = validator.verify_on_oracle(&probe, &MsrArea::new());
        assert_eq!(verdict, OracleVerdict::OverStrict("bochs.cr4_pae_sdm"));
        assert!(validator.knows_pae_quirk);
        // Second encounter: model and hardware now agree.
        assert_eq!(
            validator.verify_on_oracle(&probe, &MsrArea::new()),
            OracleVerdict::Agree
        );
    }

    #[test]
    fn oracle_corrects_bochs_bug_ss_rpl() {
        let mut validator = VmStateValidator::new(caps());
        let mut probe = nf_silicon::golden_vmcs(&caps());
        let mut ss = probe.guest_segment(SegReg::Ss);
        ss.selector = nf_x86::Selector(ss.selector.0 | 3); // RPL 3 != CS.RPL 0
        probe.set_guest_segment(SegReg::Ss, ss);
        let verdict = validator.verify_on_oracle(&probe, &MsrArea::new());
        assert_eq!(verdict, OracleVerdict::MissedConstraint("guest.ss_rpl"));
        assert!(!validator.bochs_bug_ss_rpl);
        assert_eq!(
            validator.verify_on_oracle(&probe, &MsrArea::new()),
            OracleVerdict::Agree
        );
    }

    #[test]
    fn oracle_corrects_bochs_bug_tr_type() {
        let mut validator = VmStateValidator::new(caps());
        let mut probe = legacy_vmcs();
        let mut tr = probe.guest_segment(SegReg::Tr);
        tr.ar = nf_x86::AccessRights::build(3, false, 0, true, false, false, false, false);
        probe.set_guest_segment(SegReg::Tr, tr);
        assert!(
            nf_silicon::try_vmentry(&probe, &caps(), &MsrArea::new()).is_ok(),
            "16-bit busy TSS is legal outside IA-32e"
        );
        let verdict = validator.verify_on_oracle(&probe, &MsrArea::new());
        assert_eq!(verdict, OracleVerdict::OverStrict("bochs.tr_type_legacy"));
        assert!(!validator.bochs_bug_tr_type);
    }

    #[test]
    fn fuzzing_loop_corrects_ss_rpl_quickly() {
        // The SS.RPL gap surfaces on most random states: the generation
        // loop must self-correct within a handful of iterations.
        let mut validator = VmStateValidator::new(caps());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut directives = [0u8; 28];
        for _ in 0..64 {
            let seed = random_seed(&mut rng);
            rng.fill(&mut directives[..]);
            let _ = validator.generate(&seed, &directives, &[]);
            if !validator.bochs_bug_ss_rpl {
                break;
            }
        }
        assert!(
            !validator.bochs_bug_ss_rpl,
            "Bochs bug A must be corrected by fuzzing"
        );
        let rules: Vec<&str> = validator.corrections.iter().map(|c| c.rule).collect();
        assert!(rules.contains(&"guest.ss_rpl"));
    }

    #[test]
    fn mutation_respects_field_widths() {
        let validator = VmStateValidator::new(caps());
        let golden = nf_silicon::golden_vmcs(&caps());
        for d0 in 0..=255u8 {
            let directives = [
                d0,
                d0.wrapping_mul(7),
                3,
                61,
                13,
                5,
                1,
                2,
                3,
                4,
                99,
                0,
                7,
                8,
            ];
            let mutated = validator.mutate(&golden, &directives);
            for &f in VmcsField::ALL {
                assert_eq!(mutated.read(f) & !f.width().mask(), 0, "{}", f.name());
            }
        }
    }

    #[test]
    fn mutation_stays_near_boundary() {
        let validator = VmStateValidator::new(caps());
        let golden = nf_silicon::golden_vmcs(&caps());
        let directives = [2u8, 0, 5, 3, 1, 2, 3, 4, 5, 6, 0, 9, 2, 7, 8, 9, 1, 2];
        let mutated = validator.mutate(&golden, &directives);
        let dist = golden.hamming_distance(&mutated);
        assert!(
            (1..=24).contains(&dist),
            "1-3 fields x 1-8 bits, got {dist}"
        );
    }

    #[test]
    fn rounded_vmcb_passes_vmrun() {
        let validator = VmStateValidator::new(caps());
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..64 {
            let mut bytes = vec![0u8; Vmcb::BYTES];
            rng.fill(&mut bytes[..]);
            let rounded = validator.round_vmcb(&Vmcb::from_bytes(&bytes));
            assert!(
                nf_silicon::check_vmrun(&rounded, true).is_ok(),
                "rounded VMCB must vmrun"
            );
        }
    }

    #[test]
    fn vmcb_rounding_preserves_lma_ambiguity() {
        let validator = VmStateValidator::new(caps());
        let mut vmcb = nf_silicon::golden_vmcb();
        vmcb.save.cr0 &= !Cr0::PG; // LMA stays set: the ambiguous state
        let rounded = validator.round_vmcb(&vmcb);
        assert_ne!(
            rounded.save.efer & Efer::LMA,
            0,
            "LMA must survive rounding"
        );
        assert_eq!(rounded.save.cr0 & Cr0::PG, 0);
    }

    #[test]
    fn msr_area_indices_rounded_values_raw() {
        let validator = VmStateValidator::new(caps());
        let mut vmcs = nf_silicon::golden_vmcs(&caps());
        vmcs.write(VmcsField::VmEntryMsrLoadCount, 2);
        let bytes: Vec<u8> = (0..24).map(|i| (i * 37) as u8).collect();
        let area = validator.round_msr_area(&vmcs, &bytes);
        assert_eq!(area.entries.len(), 2);
        for e in &area.entries {
            assert!(
                Msr::from_index(e.index).is_some(),
                "index rounded onto catalogue"
            );
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let mut v1 = VmStateValidator::new(caps());
        let mut v2 = VmStateValidator::new(caps());
        let seed = vec![0x5au8; Vmcs::BYTES];
        let directives = [9u8; 28];
        let (a, _) = v1.generate(&seed, &directives, &[]);
        let (b, _) = v2.generate(&seed, &directives, &[]);
        assert_eq!(a, b);
    }
}
