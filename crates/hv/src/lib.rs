//! The L0 hypervisors under test.
//!
//! NecoFuzz is evaluated against KVM, Xen, and VirtualBox (paper §5).
//! This crate provides faithful *models* of the three: from-scratch L0
//! hypervisors with full nested-virtualization emulation running on the
//! `nf-silicon` CPU model, instrumented with kcov-style line coverage
//! restricted to their nested-virtualization source files, and seeded
//! with the six vulnerabilities of Table 6 (each individually togglable
//! so regression tests can verify both the vulnerable and fixed
//! behaviour).
//!
//! | Model | Stands in for | Nested files |
//! |---|---|---|
//! | [`Vkvm`] | KVM, Linux 6.5 | `vmx/nested.c`, `svm/nested.c` |
//! | [`Vxen`] | Xen 4.18 | `vmx/vvmx.c`, `svm/nestedsvm.c` |
//! | [`Vvbox`] | VirtualBox 7.0.12 | `VMXAllTemplate.cpp` (nested part) |
//! | [`SiliconGolden`] | bare metal (the differential oracle's reference) | none: the `nf-silicon` checks, no L0 |
//!
//! The four differ only in policy. The L1 state they share — control
//! registers, VMXON region, VMCS12/VMCB12 images, staged MSR areas,
//! health, trace and fault hook — lives in one [`NestedL1State`]
//! core, which also owns its reset, snapshot/restore and the
//! VMX-instruction state updates; most [`L0Hypervisor`] methods are
//! defaults over it.

pub mod api;
pub mod fault;
pub mod golden;
pub mod l1;
pub mod sanitizer;
pub mod store;
pub mod vkvm;
pub mod vvbox;
pub mod vxen;

pub use api::{GuestObservation, HvConfig, HvSnapshot, IoctlOp, L0Hypervisor, L1Result, L2Result};
pub use fault::{FaultInjector, FaultPlan, RestoreFault, SharedFaults, DEFAULT_WATCHDOG_FUEL};
pub use golden::{GoldenSnapshot, SiliconGolden};
pub use l1::NestedL1State;
pub use sanitizer::{CrashKind, CrashReport, HostHealth, LogLine};
pub use store::{Digest128, InternStore, SharedRestore, SnapshotStore};
pub use vkvm::{Vkvm, VkvmSnapshot};
pub use vvbox::{Vvbox, VvboxSnapshot};
pub use vxen::{Vxen, VxenSnapshot};

use std::sync::OnceLock;

use nf_coverage::{BlockId, CovMap, FileId};
use nf_vmx::{Vmcs, VmxCapabilities};
use nf_x86::{CpuVendor, FeatureSet, Msr};

/// Capabilities of the physical CPU beneath the VMX backend models:
/// everything the vendor offers.
pub(crate) fn hw_caps(vendor: CpuVendor) -> VmxCapabilities {
    VmxCapabilities::from_features(FeatureSet::full(vendor))
}

/// The value an L1 `rdmsr` of VMX capability MSR `index` reads on a
/// CPU exposing `caps` (`vmx_get_vmx_msr` analog): the basic, control
/// and fixed-bit MSRs; `0` for any other index.
pub(crate) fn capability_msr(caps: &VmxCapabilities, index: u32) -> u64 {
    match index {
        x if x == Msr::VmxBasic.index() => caps.revision_id as u64,
        x if x == Msr::VmxPinbasedCtls.index() || x == Msr::VmxTruePinbasedCtls.index() => {
            let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::PinBased);
            (a0 as u64) | ((a1 as u64) << 32)
        }
        x if x == Msr::VmxProcbasedCtls.index() || x == Msr::VmxTrueProcbasedCtls.index() => {
            let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::ProcBased);
            (a0 as u64) | ((a1 as u64) << 32)
        }
        x if x == Msr::VmxProcbasedCtls2.index() => {
            let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::ProcBased2);
            (a0 as u64) | ((a1 as u64) << 32)
        }
        x if x == Msr::VmxExitCtls.index() || x == Msr::VmxTrueExitCtls.index() => {
            let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::Exit);
            (a0 as u64) | ((a1 as u64) << 32)
        }
        x if x == Msr::VmxEntryCtls.index() || x == Msr::VmxTrueEntryCtls.index() => {
            let (a0, a1) = caps.allowed(nf_vmx::CtrlKind::Entry);
            (a0 as u64) | ((a1 as u64) << 32)
        }
        x if x == Msr::VmxCr0Fixed0.index() => caps.cr0_fixed0(false),
        x if x == Msr::VmxCr0Fixed1.index() => caps.cr0_fixed1(),
        x if x == Msr::VmxCr4Fixed0.index() => caps.cr4_fixed0(),
        x if x == Msr::VmxCr4Fixed1.index() => caps.cr4_fixed1(),
        _ => 0,
    }
}

/// The VMCS02 every nested `vmlaunch`/`vmresume` of vkvm, vxen and
/// vvbox starts from: [`nf_silicon::golden_vmcs`] of [`hw_caps`],
/// built once per process and vendor on first use.
pub(crate) fn vmcs02_template(vendor: CpuVendor) -> &'static Vmcs {
    static TEMPLATES: [OnceLock<Vmcs>; 2] = [OnceLock::new(), OnceLock::new()];
    let slot = match vendor {
        CpuVendor::Intel => 0,
        CpuVendor::Amd => 1,
    };
    TEMPLATES[slot].get_or_init(|| nf_silicon::golden_vmcs(&hw_caps(vendor)))
}

/// Registers one instrumented file's blocks into a map (the
/// `register` function [`hv_blocks!`] generates).
type RegisterBlocks = fn(&mut CovMap, FileId) -> Vec<BlockId>;

/// A backend's instrumentation: its coverage map with the ids of its
/// instrumented files and of every block in them. Each backend builds
/// its own once per process, in a `OnceLock`, and every instance holds
/// a `&'static` reference to it, so booting an instance registers
/// nothing.
pub(crate) struct Instrumentation {
    /// The registry [`L0Hypervisor::coverage_map`] returns.
    pub(crate) map: CovMap,
    /// The file holding the Intel-side (or only) nested code.
    pub(crate) intel_file: FileId,
    /// The file holding the AMD-side nested code, if any.
    pub(crate) amd_file: Option<FileId>,
    /// Block ids of the Intel-side file, indexed by block `idx()`.
    pub(crate) intel: Vec<BlockId>,
    /// Block ids of the AMD-side file (empty without one).
    pub(crate) amd: Vec<BlockId>,
}

impl Instrumentation {
    /// Registers the Intel-side file, then the AMD-side one if given,
    /// then the blocks of each in that order.
    pub(crate) fn register(
        intel: (&str, RegisterBlocks),
        amd: Option<(&str, RegisterBlocks)>,
    ) -> Self {
        let (intel_name, register_intel) = intel;
        let mut map = CovMap::new();
        let intel_file = map.add_file(intel_name);
        let amd_file = amd.map(|(name, _)| map.add_file(name));
        let intel_blocks = register_intel(&mut map, intel_file);
        let amd_blocks = match (amd, amd_file) {
            (Some((_, register_amd)), Some(file)) => register_amd(&mut map, file),
            _ => Vec::new(),
        };
        Instrumentation {
            map,
            intel_file,
            amd_file,
            intel: intel_blocks,
            amd: amd_blocks,
        }
    }
}

/// Delta restore of snapshot fields: each field is copied back only
/// when it differs from the captured value, so restoring onto a mostly
/// clean instance does no allocation or deep copying.
///
/// `copy:` fields are plain-`Copy` scalars; `clone:` fields own heap
/// state (vectors, health) and are cloned only when dirtied. The
/// `Arc`-shared components of the L1 core restore per entry instead
/// (see [`store::SharedRestore`]).
macro_rules! restore_fields {
    (copy: $hv:expr, $snap:expr, [$($f:ident),* $(,)?]) => {
        $( if $hv.$f != $snap.$f { $hv.$f = $snap.$f; } )*
    };
    (clone: $hv:expr, $snap:expr, [$($f:ident),* $(,)?]) => {
        $( if $hv.$f != $snap.$f { $hv.$f = $snap.$f.clone(); } )*
    };
}
pub(crate) use restore_fields;

/// Declares an instrumented-block enum: each variant is one basic block
/// of hypervisor code with a static source-line span.
///
/// The generated type offers [`ALL`](#), `idx`, `name`, `total_lines`,
/// and `register` (which adds every block to a [`nf_coverage::CovMap`]
/// in declaration order, returning the assigned ids).
#[macro_export]
macro_rules! hv_blocks {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($blk:ident = $lines:expr,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        $vis enum $name { $($blk),+ }

        impl $name {
            /// Every block with its line span, in declaration order.
            $vis const ALL: &'static [($name, u32)] = &[$(($name::$blk, $lines)),+];

            /// Dense index of the block.
            $vis const fn idx(self) -> usize {
                self as usize
            }

            /// Block label, used in coverage reports.
            $vis const fn name(self) -> &'static str {
                match self { $($name::$blk => stringify!($blk)),+ }
            }

            /// Sum of the line spans of all blocks.
            $vis const fn total_lines() -> u32 {
                let mut total = 0;
                let mut i = 0;
                while i < Self::ALL.len() {
                    total += Self::ALL[i].1;
                    i += 1;
                }
                total
            }

            /// Registers every block into `map` under `file`; the result
            /// is indexed by [`Self::idx`].
            $vis fn register(
                map: &mut nf_coverage::CovMap,
                file: nf_coverage::FileId,
            ) -> Vec<nf_coverage::BlockId> {
                Self::ALL.iter().map(|(b, l)| map.add_block(file, *l, b.name())).collect()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::GBlk;
    use crate::vkvm::{ABlk, IBlk};
    use crate::vvbox::VBlk;
    use crate::vxen::{XABlk, XIBlk};

    #[test]
    fn every_instance_of_a_backend_shares_one_coverage_map() {
        // Reference registration: every file, then every file's blocks.
        let fresh = |files: &[(&str, RegisterBlocks)]| {
            let mut map = CovMap::new();
            let ids: Vec<FileId> = files.iter().map(|&(name, _)| map.add_file(name)).collect();
            for (&(_, register), &file) in files.iter().zip(&ids) {
                register(&mut map, file);
            }
            map
        };
        let intel = HvConfig::default_for(CpuVendor::Intel);
        let amd = HvConfig::default_for(CpuVendor::Amd);
        type Pair = (Box<dyn L0Hypervisor>, Box<dyn L0Hypervisor>);
        let cases: [(Pair, CovMap, Option<FileId>); 4] = [
            (
                (
                    Box::new(Vkvm::new(intel.clone())),
                    Box::new(Vkvm::new(amd.clone())),
                ),
                fresh(&[
                    ("arch/x86/kvm/vmx/nested.c", IBlk::register),
                    ("arch/x86/kvm/svm/nested.c", ABlk::register),
                ]),
                Some(FileId(1)),
            ),
            (
                (
                    Box::new(Vxen::new(intel.clone())),
                    Box::new(Vxen::new(amd.clone())),
                ),
                fresh(&[
                    ("xen/arch/x86/hvm/vmx/vvmx.c", XIBlk::register),
                    ("xen/arch/x86/hvm/svm/nestedsvm.c", XABlk::register),
                ]),
                Some(FileId(1)),
            ),
            (
                (
                    Box::new(Vvbox::new(intel.clone())),
                    Box::new(Vvbox::new(intel.clone())),
                ),
                fresh(&[("VMMAll/VMXAllTemplate.cpp.h (nested)", VBlk::register)]),
                None,
            ),
            (
                (
                    Box::new(SiliconGolden::new(intel.clone())),
                    Box::new(SiliconGolden::new(amd.clone())),
                ),
                fresh(&[("nf-silicon/golden-model", GBlk::register)]),
                None,
            ),
        ];
        for ((a, b), expected, amd_file) in &cases {
            assert!(
                std::ptr::eq(a.coverage_map(), b.coverage_map()),
                "{}: one map per process",
                a.name()
            );
            assert_eq!(a.coverage_map(), expected, "{}", a.name());
            assert_eq!(a.intel_file(), FileId(0), "{}", a.name());
            assert_eq!(a.amd_file(), *amd_file, "{}", a.name());
        }
    }

    #[test]
    fn vmcs02_template_is_the_golden_vmcs_of_every_vmx_backend() {
        for vendor in [CpuVendor::Intel, CpuVendor::Amd] {
            let config = HvConfig::default_for(vendor);
            let mut hw = vec![
                Vkvm::new(config.clone()).hw_caps,
                Vxen::new(config.clone()).hw_caps,
            ];
            if vendor == CpuVendor::Intel {
                hw.push(Vvbox::new(config).hw_caps);
            }
            for caps in &hw {
                assert_eq!(vmcs02_template(vendor), &nf_silicon::golden_vmcs(caps));
            }
        }
    }
}
