//! Criterion benches wrapping the paper's experiment drivers.
//!
//! One bench per table/figure, at reduced iteration budgets so the
//! whole suite finishes in minutes; the `src/bin/` binaries run the
//! full-budget versions and print the paper-formatted rows.

use criterion::{criterion_group, criterion_main, Criterion};
use necofuzz::campaign::{run_campaign, CampaignConfig};
use necofuzz::orchestrator::{CampaignExecutor, CampaignPlan};
use necofuzz::{ComponentMask, VmStateValidator};
use nf_bench::{backend, factory};
use nf_fuzz::Mode;
use nf_vmx::{Vmcs, VmxCapabilities};
use nf_x86::{CpuVendor, FeatureSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mini_campaign(vendor: CpuVendor, mode: Mode, mask: ComponentMask, seed: u64) -> f64 {
    let cfg = CampaignConfig::necofuzz(vendor, 4, seed)
        .with_execs_per_hour(60)
        .with_mode(mode)
        .with_mask(mask);
    run_campaign(factory("vkvm"), &cfg).final_coverage
}

/// Table 2 / Figure 3: NecoFuzz and Syzkaller coverage campaigns on KVM.
fn bench_table2_figure3(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_figure3");
    g.sample_size(10);
    for vendor in [CpuVendor::Intel, CpuVendor::Amd] {
        g.bench_function(format!("necofuzz_kvm_{vendor}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                mini_campaign(vendor, Mode::Unguided, ComponentMask::ALL, seed)
            })
        });
        g.bench_function(format!("syzkaller_kvm_{vendor}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                nf_baselines::syzkaller(factory("vkvm"), vendor, 4, 60, seed).final_coverage
            })
        });
    }
    g.finish();
}

/// Table 3 / Figure 4: component-ablation campaigns.
fn bench_table3_figure4(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3_figure4");
    g.sample_size(10);
    let variants: [(&str, ComponentMask); 3] = [
        (
            "wo_harness",
            ComponentMask {
                harness: false,
                ..ComponentMask::ALL
            },
        ),
        (
            "wo_validator",
            ComponentMask {
                validator: false,
                ..ComponentMask::ALL
            },
        ),
        (
            "wo_configurator",
            ComponentMask {
                configurator: false,
                ..ComponentMask::ALL
            },
        ),
    ];
    for (name, mask) in variants {
        g.bench_function(name, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                mini_campaign(CpuVendor::Intel, Mode::Unguided, mask, seed)
            })
        });
    }
    g.finish();
}

/// Table 4: NecoFuzz on the Xen model.
fn bench_table4(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    for vendor in [CpuVendor::Intel, CpuVendor::Amd] {
        g.bench_function(format!("necofuzz_xen_{vendor}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let cfg = CampaignConfig::necofuzz(vendor, 4, seed).with_execs_per_hour(60);
                run_campaign(factory("vxen"), &cfg).final_coverage
            })
        });
    }
    g.bench_function("xtf_xen", |b| {
        b.iter(|| nf_baselines::xtf(factory("vxen"), CpuVendor::Intel).final_coverage)
    });
    g.finish();
}

/// Table 5: guided vs unguided engine modes.
fn bench_table5(c: &mut Criterion) {
    let mut g = c.benchmark_group("table5");
    g.sample_size(10);
    for (name, mode) in [("unguided", Mode::Unguided), ("guided", Mode::Guided)] {
        g.bench_function(name, |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                mini_campaign(CpuVendor::Intel, mode, ComponentMask::ALL, seed)
            })
        });
    }
    g.finish();
}

/// Table 6: campaigns against the bug-seeded targets (finds per run).
fn bench_table6(c: &mut Criterion) {
    let mut g = c.benchmark_group("table6");
    g.sample_size(10);
    g.bench_function("bug_hunt_vvbox", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 2, seed).with_execs_per_hour(60);
            run_campaign(factory("vvbox"), &cfg).finds.len()
        })
    });
    g.bench_function("bug_hunt_vxen_amd", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let cfg = CampaignConfig::necofuzz(CpuVendor::Amd, 2, seed).with_execs_per_hour(60);
            run_campaign(factory("vxen"), &cfg).finds.len()
        })
    });
    g.finish();
}

/// Figure 5: the validator's round+verify pipeline per state.
fn bench_figure5(c: &mut Criterion) {
    let caps = VmxCapabilities::from_features(
        FeatureSet::default_for(CpuVendor::Intel).sanitized(CpuVendor::Intel),
    );
    let mut g = c.benchmark_group("figure5");
    g.bench_function("round_and_hamming", |b| {
        let validator = VmStateValidator::new(caps.clone());
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| {
            let mut seed = vec![0u8; Vmcs::BYTES];
            rng.fill(&mut seed[..]);
            let raw = Vmcs::from_bytes(&seed);
            let rounded = validator.round(&raw);
            raw.hamming_distance(&rounded)
        })
    });
    g.bench_function("oracle_verify", |b| {
        let mut validator = VmStateValidator::new(caps.clone());
        let mut rng = SmallRng::seed_from_u64(6);
        b.iter(|| {
            let mut seed = vec![0u8; Vmcs::BYTES];
            rng.fill(&mut seed[..]);
            let rounded = validator.round(&Vmcs::from_bytes(&seed));
            validator.verify_on_oracle(&rounded, &nf_vmx::MsrArea::new())
        })
    });
    g.finish();
}

/// Orchestrator: the same 2-vendor × 3-seed grid, serial vs fanned out.
/// The speedup of `jobs_auto` over `jobs_1` is the orchestrator's whole
/// point; outputs are identical either way.
fn bench_orchestrator(c: &mut Criterion) {
    let plan = || {
        CampaignPlan::new(CampaignConfig::necofuzz(CpuVendor::Intel, 2, 0).with_execs_per_hour(60))
            .backend(backend("vkvm"))
            .vendors(&[CpuVendor::Intel, CpuVendor::Amd])
            .seeds(0..3)
    };
    let mut g = c.benchmark_group("orchestrator");
    g.sample_size(10);
    g.bench_function("grid_jobs_1", |b| {
        b.iter(|| CampaignExecutor::new().jobs(1).run(&plan()).len())
    });
    g.bench_function("grid_jobs_auto", |b| {
        b.iter(|| CampaignExecutor::new().run(&plan()).len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table2_figure3,
    bench_table3_figure4,
    bench_table4,
    bench_table5,
    bench_table6,
    bench_figure5,
    bench_orchestrator
);
criterion_main!(benches);
