//! Criterion microbenches for the bitmap engine: each product
//! operation against its byte-at-a-time reference
//! (`nf_coverage::bitmap::bytewise`) on realistic map shapes.
//!
//! The interesting regimes: a *sparse* raw bitmap (one exec's handful
//! of edges — the per-exec novelty kernel `Corpus::observe` runs,
//! `segments::merge_edges_marking`, timed over the exec's edge list
//! against the full-map scan a bare bitmap needs first), a
//! *mostly-seen* virgin map (late campaign), and a *churning* delta
//! (the sync path). The product forms win by visiting only the touched
//! bytes or skipping whole blocks and words; the shapes here make the
//! costs visible.

use criterion::{criterion_group, criterion_main, Criterion};
use nf_coverage::bitmap::{self, segments};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const MAP_SIZE: usize = 1 << 16;

/// A raw bitmap with `edges` scattered non-zero counts — the shape one
/// execution produces.
fn sparse_raw(edges: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut raw = vec![0u8; MAP_SIZE];
    for _ in 0..edges {
        raw[rng.gen_range(0..MAP_SIZE)] = rng.gen_range(1..=255);
    }
    raw
}

/// The non-zero bytes of `raw` — the list `ExecScratch::edges` hands
/// the product loop.
fn edges_of(raw: &[u8]) -> Vec<u32> {
    let mut edges = Vec::new();
    bitmap::nonzero_into(raw, &mut edges);
    edges
}

/// The product novelty kernel, with a throwaway dirty-segment mask.
fn observe(virgin: &mut [u8], raw: &[u8], edges: &[u32]) -> bool {
    segments::merge_edges_marking(virgin, raw, edges, &mut 0)
}

/// A bare bitmap's novelty (`Fuzzer::report_observed`): the
/// block-skipping full-map scan lists the edges, then the kernel runs.
fn observe_bare(virgin: &mut [u8], raw: &[u8], edges: &mut Vec<u32>) -> bool {
    bitmap::nonzero_into(raw, edges);
    segments::merge_edges_marking(virgin, raw, edges, &mut 0)
}

/// A virgin map after `execs` distinct sparse executions were merged.
fn warmed_virgin(execs: u64) -> Vec<u8> {
    let mut virgin = vec![0xffu8; MAP_SIZE];
    for seed in 0..execs {
        let raw = sparse_raw(40, seed);
        observe(&mut virgin, &raw, &edges_of(&raw));
    }
    virgin
}

fn bench_novelty(c: &mut Criterion) {
    let mut g = c.benchmark_group("novelty");
    g.sample_size(200);
    let raw = sparse_raw(40, 1);
    let edges = edges_of(&raw);
    let virgin = warmed_virgin(50);
    let mut buf = Vec::new();
    // Every form writes only the raw map's non-zero bytes, so restoring
    // those re-arms the novelty without a 64 KiB copy per iteration.
    let rearm = |v: &mut [u8]| {
        for &e in &edges {
            v[e as usize] = virgin[e as usize];
        }
    };
    g.bench_function("edges", |b| {
        let mut v = virgin.clone();
        b.iter(|| {
            rearm(&mut v);
            observe(&mut v, &raw, &edges)
        })
    });
    g.bench_function("full_map_scan", |b| {
        let mut v = virgin.clone();
        b.iter(|| {
            rearm(&mut v);
            observe_bare(&mut v, &raw, &mut buf)
        })
    });
    g.bench_function("bytewise", |b| {
        let mut v = virgin.clone();
        b.iter(|| {
            rearm(&mut v);
            bitmap::bytewise::merge_raw(&mut v, &raw)
        })
    });
    // Steady state: nothing novel, the merge is pure overhead.
    let mut seen = virgin.clone();
    observe(&mut seen, &raw, &edges);
    g.bench_function("edges_no_novelty", |b| {
        let mut v = seen.clone();
        b.iter(|| observe(&mut v, &raw, &edges))
    });
    g.bench_function("full_map_scan_no_novelty", |b| {
        let mut v = seen.clone();
        b.iter(|| observe_bare(&mut v, &raw, &mut buf))
    });
    g.bench_function("bytewise_no_novelty", |b| {
        let mut v = seen.clone();
        b.iter(|| bitmap::bytewise::merge_raw(&mut v, &raw))
    });
    g.finish();
}

fn bench_classify(c: &mut Criterion) {
    let mut g = c.benchmark_group("classify");
    g.sample_size(200);
    let raw = sparse_raw(40, 2);
    let edges = edges_of(&raw);
    g.bench_function("edges", |b| b.iter(|| bitmap::classify_edges(&raw, &edges)));
    g.bench_function("bytewise", |b| b.iter(|| bitmap::bytewise::classify(&raw)));
    g.finish();
}

fn bench_delta_and_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta_merge");
    g.sample_size(200);
    let then = warmed_virgin(50);
    let mut now = then.clone();
    let raw = sparse_raw(40, 3);
    observe(&mut now, &raw, &edges_of(&raw));
    let mut buf = Vec::new();
    g.bench_function("cleared_since_words_into", |b| {
        b.iter(|| bitmap::cleared_since_into(&then, &now, &mut buf))
    });
    g.bench_function("cleared_since_bytewise", |b| {
        b.iter(|| bitmap::bytewise::cleared_since(&then, &now))
    });
    g.bench_function("merge_virgin_words", |b| {
        let mut dst = then.clone();
        b.iter(|| bitmap::merge_virgin(&mut dst, &now))
    });
    g.bench_function("merge_virgin_bytewise", |b| {
        let mut dst = then.clone();
        b.iter(|| bitmap::bytewise::merge_virgin(&mut dst, &now))
    });
    g.finish();
}

criterion_group!(
    bitmap_ops,
    bench_novelty,
    bench_classify,
    bench_delta_and_merge
);
criterion_main!(bitmap_ops);
