//! Criterion microbenches for the word-level bitmap engine: each
//! operation against its byte-at-a-time reference
//! (`nf_coverage::bitmap::bytewise`) on realistic map shapes.
//!
//! The interesting regimes: a *sparse* raw bitmap (one exec's handful
//! of edges — the per-exec novelty scan `Corpus::observe` runs,
//! `segments::merge_raw_marking`), a *mostly-seen* virgin map (late
//! campaign — merges mostly skip), and a *churning* delta (the sync
//! path). The product forms win by skipping whole blocks and words;
//! the shapes here make the skip rates visible.

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

/// The product novelty kernel, with a throwaway dirty-segment mask.
fn observe(virgin: &mut [u8], raw: &[u8]) -> bool {
    segments::merge_raw_marking(virgin, raw, &mut 0)
}

/// A virgin map after `execs` distinct sparse executions were merged.
fn warmed_virgin(execs: u64) -> Vec<u8> {
    let mut virgin = vec![0xffu8; MAP_SIZE];
    for seed in 0..execs {
        observe(&mut virgin, &sparse_raw(40, seed));
    }
    virgin
}

fn bench_merge_raw(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge_raw_marking");
    g.sample_size(200);
    let raw = sparse_raw(40, 1);
    let virgin = warmed_virgin(50);
    g.bench_function("blocks", |b| b.iter(|| observe(&mut virgin.clone(), &raw)));
    g.bench_function("bytewise", |b| {
        b.iter(|| bitmap::bytewise::merge_raw(&mut virgin.clone(), &raw))
    });
    // Steady state: nothing novel, the scan is pure overhead.
    let mut seen = virgin.clone();
    observe(&mut seen, &raw);
    g.bench_function("blocks_no_novelty", |b| {
        let mut v = seen.clone();
        b.iter(|| observe(&mut v, &raw))
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
    let mut buf = Vec::new();
    g.bench_function("blocks_into", |b| {
        b.iter(|| bitmap::classify_into(&raw, &mut buf))
    });
    g.bench_function("bytewise", |b| b.iter(|| bitmap::bytewise::classify(&raw)));
    g.finish();
}

fn bench_delta_and_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta_merge");
    g.sample_size(200);
    let then = warmed_virgin(50);
    let mut now = then.clone();
    observe(&mut now, &sparse_raw(40, 3));
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
    bench_merge_raw,
    bench_classify,
    bench_delta_and_merge
);
criterion_main!(bitmap_ops);
