//! Criterion benchmarks for violation detection: index build at two
//! scales (the hash-join fast path should scale ~linearly) and the
//! own-row query used per augmented example.

use criterion::{criterion_group, criterion_main, Criterion};
use holo_constraints::ViolationEngine;
use holo_datagen::{generate, DatasetKind};
use std::hint::black_box;

fn bench_engine_build(c: &mut Criterion) {
    for rows in [1_000usize, 4_000] {
        let g = generate(DatasetKind::Hospital, rows, 5);
        c.bench_function(&format!("violation_engine_build_hospital_{rows}"), |b| {
            b.iter(|| black_box(ViolationEngine::build(&g.dirty, &g.constraints)))
        });
    }
}

fn bench_override_query(c: &mut Criterion) {
    let g = generate(DatasetKind::Hospital, 2_000, 5);
    let engine = ViolationEngine::build(&g.dirty, &g.constraints);
    c.bench_function("violation_override_query", |b| {
        let mut t = 0usize;
        b.iter(|| {
            t = (t + 1) % g.dirty.n_tuples();
            let mut values = g.dirty.tuple_values(t);
            values[3] = "Springfield";
            black_box(engine.vector(&g.dirty, &values, Some(t)))
        })
    });
    c.bench_function("violation_tuple_vector", |b| {
        let mut t = 0usize;
        b.iter(|| {
            t = (t + 1) % g.dirty.n_tuples();
            black_box(engine.tuple_vector(t))
        })
    });
}

fn bench_fd_discovery(c: &mut Criterion) {
    let g = generate(DatasetKind::Adult, 2_000, 7);
    c.bench_function("fd_discovery_single_lhs_adult_2000", |b| {
        b.iter(|| black_box(holo_constraints::discovery::discover_fds(&g.dirty, false)))
    });
}

criterion_group!(
    benches,
    bench_engine_build,
    bench_override_query,
    bench_fd_discovery
);
criterion_main!(benches);
