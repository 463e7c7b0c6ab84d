//! Cross-crate integration tests: the full NecoFuzz pipeline against
//! every hypervisor model, the Table 6 bug-discovery ground truth, and
//! the coverage relationships the paper's tables depend on.

use necofuzz::campaign::{run_campaign, CampaignConfig};
use necofuzz::ComponentMask;
use nf_fuzz::Mode;
use nf_hv::{CrashKind, HvConfig, L0Hypervisor, Vkvm, Vvbox, Vxen};
use nf_x86::CpuVendor;

type Factory = Box<dyn Fn(HvConfig) -> Box<dyn L0Hypervisor>>;

fn kvm() -> Factory {
    Box::new(|c| Box::new(Vkvm::new(c)))
}

fn xen() -> Factory {
    Box::new(|c| Box::new(Vxen::new(c)))
}

fn vbox() -> Factory {
    Box::new(|c| Box::new(Vvbox::new(c)))
}

fn campaign(
    factory: Factory,
    vendor: CpuVendor,
    hours: u32,
    seed: u64,
) -> necofuzz::CampaignResult {
    let cfg = CampaignConfig::necofuzz(vendor, hours, seed)
        .with_execs_per_hour(150)
        .with_mode(Mode::Unguided)
        .with_mask(ComponentMask::ALL);
    run_campaign(factory, &cfg)
}

/// Collect the union of bug ids found over a few seeds.
fn finds_over_seeds(factory: fn() -> Factory, vendor: CpuVendor, hours: u32) -> Vec<String> {
    let mut ids = std::collections::BTreeSet::new();
    for seed in 0..3 {
        for f in campaign(factory(), vendor, hours, seed).finds {
            ids.insert(f.bug_id);
        }
    }
    ids.into_iter().collect()
}

#[test]
fn necofuzz_finds_the_kvm_bugs() {
    let ids = finds_over_seeds(kvm, CpuVendor::Intel, 24);
    assert!(
        ids.iter().any(|i| i == "kvm-spurious-triple-fault"),
        "bug #3 (spurious triple fault) expected, got {ids:?}"
    );
    assert!(
        ids.iter().any(|i| i == "CVE-2023-30456"),
        "bug #1 (CVE-2023-30456) expected, got {ids:?}"
    );
}

#[test]
fn necofuzz_finds_the_xen_intel_hang() {
    let ids = finds_over_seeds(xen, CpuVendor::Intel, 8);
    assert!(
        ids.iter().any(|i| i == "xen-wait-for-sipi"),
        "bug #4 (wait-for-SIPI hang) expected, got {ids:?}"
    );
}

#[test]
fn necofuzz_finds_the_xen_amd_bugs() {
    let ids = finds_over_seeds(xen, CpuVendor::Amd, 16);
    assert!(
        ids.iter().any(|i| i == "xen-avic-noaccel"),
        "bug #5 (AVIC_NOACCEL) expected, got {ids:?}"
    );
    assert!(
        ids.iter().any(|i| i == "xen-vgif-assert"),
        "bug #6 (VGIF assertion) expected, got {ids:?}"
    );
}

#[test]
fn necofuzz_finds_the_virtualbox_cve() {
    let ids = finds_over_seeds(vbox, CpuVendor::Intel, 8);
    assert!(
        ids.iter().any(|i| i == "CVE-2024-21106"),
        "bug #2 (CVE-2024-21106) expected, got {ids:?}"
    );
}

#[test]
fn fixed_hypervisors_survive_the_same_campaign() {
    // With every Table 6 fix applied, the same inputs find nothing.
    let factory: Factory = Box::new(|c| {
        let mut kvm = Vkvm::new(c);
        kvm.bugs.cve_2023_30456_fixed = true;
        kvm.bugs.dummy_root_fixed = true;
        Box::new(kvm)
    });
    let result = campaign(factory, CpuVendor::Intel, 12, 0);
    assert!(
        result.finds.is_empty(),
        "patched vkvm must be clean, found {:?}",
        result.finds.iter().map(|f| &f.bug_id).collect::<Vec<_>>()
    );

    let factory: Factory = Box::new(|c| {
        let mut x = Vxen::new(c);
        x.bugs.activity_state_fixed = true;
        x.bugs.lma_pg_fixed = true;
        x.bugs.vgif_assert_fixed = true;
        Box::new(x)
    });
    let result = campaign(factory, CpuVendor::Amd, 12, 0);
    assert!(result.finds.is_empty(), "patched vxen must be clean");
}

#[test]
fn watchdog_restarts_keep_the_campaign_alive() {
    // Xen/Intel campaigns hit the host-hang bug; the watchdog restarts
    // and the campaign still makes coverage progress afterwards.
    let result = campaign(xen(), CpuVendor::Intel, 12, 1);
    if result.finds.iter().any(|f| f.kind == CrashKind::HostHang) {
        assert!(result.restarts > 0, "a hang implies a watchdog restart");
    }
    assert!(
        result.final_coverage > 0.4,
        "coverage {}",
        result.final_coverage
    );
    assert_eq!(result.execs, 12 * 150);
}

#[test]
fn coverage_ordering_matches_table2() {
    // NecoFuzz > Syzkaller on both vendors; the AMD gap is dramatic.
    let neco_i = campaign(kvm(), CpuVendor::Intel, 24, 0).final_coverage;
    let neco_a = campaign(kvm(), CpuVendor::Amd, 24, 0).final_coverage;
    let syz_i = nf_baselines::syzkaller(kvm(), CpuVendor::Intel, 24, 150, 0).final_coverage;
    let syz_a = nf_baselines::syzkaller(kvm(), CpuVendor::Amd, 24, 150, 0).final_coverage;
    assert!(neco_i > syz_i, "Intel: {neco_i} vs {syz_i}");
    assert!(neco_a > 3.0 * syz_a, "AMD: {neco_a} vs {syz_a}");
    assert!(neco_i > 0.7, "NecoFuzz Intel too low: {neco_i}");
}

#[test]
fn necofuzz_subsumes_most_of_syzkaller() {
    // Table 2's set rows: Syzkaller-minus-NecoFuzz is small and mostly
    // the ioctl-only surface NecoFuzz's threat model excludes.
    let neco = campaign(kvm(), CpuVendor::Intel, 24, 0);
    let syz = nf_baselines::syzkaller(kvm(), CpuVendor::Intel, 24, 150, 0);
    let syz_only = syz.lines.minus(&neco.lines).count();
    let neco_only = neco.lines.minus(&syz.lines).count();
    assert!(
        neco_only > 2 * syz_only,
        "NecoFuzz-unique ({neco_only}) must dwarf Syzkaller-unique ({syz_only})"
    );
}

#[test]
fn ablation_ordering_matches_table3() {
    let mut cov = std::collections::BTreeMap::new();
    for (name, mask) in [
        ("all", ComponentMask::ALL),
        (
            "no_validator",
            ComponentMask {
                validator: false,
                ..ComponentMask::ALL
            },
        ),
        ("none", ComponentMask::NONE),
    ] {
        let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 12, 0)
            .with_execs_per_hour(150)
            .with_mask(mask);
        cov.insert(name, run_campaign(kvm(), &cfg).final_coverage);
    }
    assert!(cov["all"] > cov["no_validator"], "{cov:?}");
    assert!(cov["no_validator"] > cov["none"], "{cov:?}");
}

#[test]
fn xen_campaign_beats_xtf_by_a_wide_margin() {
    let neco = campaign(xen(), CpuVendor::Intel, 12, 0).final_coverage;
    let xtf = nf_baselines::xtf(xen(), CpuVendor::Intel).final_coverage;
    assert!(neco > xtf + 0.3, "Table 4 gap: {neco} vs {xtf}");
}

#[test]
fn orchestrator_grid_matches_serial_loop() {
    // The public-API contract the bench drivers rely on: a plan run on
    // a pool is element-for-element identical to the hand-written
    // serial loop it replaced.
    use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignPlan};

    let plan =
        CampaignPlan::new(CampaignConfig::necofuzz(CpuVendor::Intel, 2, 0).with_execs_per_hour(40))
            .backend(Backend::new("vkvm", |c| Box::new(Vkvm::new(c))))
            .vendors(&[CpuVendor::Intel, CpuVendor::Amd])
            .seeds(0..3);
    let pooled = CampaignExecutor::new().jobs(4).run(&plan);

    let mut serial = Vec::new();
    for vendor in [CpuVendor::Intel, CpuVendor::Amd] {
        for seed in 0..3 {
            let cfg = CampaignConfig::necofuzz(vendor, 2, seed).with_execs_per_hour(40);
            serial.push(run_campaign(kvm(), &cfg));
        }
    }

    assert_eq!(pooled.len(), serial.len());
    for (i, (p, s)) in pooled.iter().zip(&serial).enumerate() {
        assert_eq!(p, s, "plan job {i} diverged from the serial loop");
    }
}

#[test]
fn agent_restores_validator_corrections_across_reconfigurations() {
    // The configurator changes configs constantly; corrections learned
    // from the oracle must survive (the model is config-independent).
    let result = campaign(kvm(), CpuVendor::Intel, 8, 3);
    assert!(result.execs > 0);
    // Internal invariant exercised via a fresh agent:
    let mut agent = necofuzz::Agent::new(kvm(), CpuVendor::Intel, ComponentMask::ALL);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(9);
    for _ in 0..300 {
        let input = nf_fuzz::FuzzInput::random(&mut rng);
        agent.run_iteration(&input);
    }
    assert!(
        !agent.validator().corrections.is_empty(),
        "oracle corrections must have occurred and persisted"
    );
}
