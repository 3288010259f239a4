//! The refit benchmark: what the sharded trainer buys on the hot path
//! of a few-shot system.
//!
//! **`refit_with` at 1 thread vs. 8**, asserted so CI keeps the claim
//! honest: the sharded SGD loop (plus the already-parallel
//! featurization it feeds on) must produce *bitwise-identical* scores
//! at any thread count, and on hardware with ≥ 8 cores the 8-thread
//! refit must finish ≥ 3× faster. On smaller machines the determinism
//! bar still holds and the measured ratio is reported without the
//! speedup assertion (a 1-core container cannot demonstrate parallel
//! speedup, only correctness).
//!
//! The summary line prints a JSON object; `BENCH_refit.json` in the
//! repo root is a committed snapshot of it (the perf trajectory's
//! entry for this subsystem).

use criterion::{criterion_group, criterion_main, Criterion};
use holo_data::{CellId, Dataset, DatasetBuilder, GroundTruth, Schema};
use holo_eval::FitContext;
use holo_trace::Stopwatch;
use holodetect::{FittedHoloDetect, HoloDetect, HoloDetectConfig};
use std::hint::black_box;

/// Scenario-suite scale: the worlds the streaming scenarios refit over.
const WORLD_ROWS: usize = 1_000;
/// Thread count the speedup bar is stated against.
const PAR_THREADS: usize = 8;

/// A scenario-sized world with realistic value repetition and a typo
/// tail (same shape the stream bench and scenario suite use).
fn world(rows: usize) -> (Dataset, Dataset) {
    let cities = [
        "Chicago",
        "Madison",
        "Springfield",
        "Evanston",
        "Rockford",
        "Peoria",
    ];
    let mut b = DatasetBuilder::new(Schema::new(["Zip", "City", "State"]));
    for i in 0..rows {
        let c = i % cities.len();
        b.push_row(&[
            format!("60{:03}", c * 7),
            cities[c].to_string(),
            "IL".to_string(),
        ]);
    }
    let clean = b.build();
    let mut dirty = clean.clone();
    for i in 0..rows / 50 {
        dirty.set_value(i * 97 % rows, 1, &format!("Chicag{i}"));
    }
    (clean, dirty)
}

/// Fit the model the refit rounds reload, serialized so every round
/// starts from the identical artifact bytes.
fn staged_model() -> Vec<u8> {
    let (clean, dirty) = world(WORLD_ROWS);
    let truth = GroundTruth::from_pair(&clean, &dirty);
    let train = truth.label_tuples(&dirty, &(0..120).collect::<Vec<_>>());
    let dcs =
        holo_constraints::parse_constraints("Zip -> City", dirty.schema()).expect("constraints");
    let mut cfg = HoloDetectConfig::fast();
    cfg.epochs = 10;
    let model = HoloDetect::new(cfg).fit_model(&FitContext {
        dirty: &dirty,
        train: &train,
        sampling: None,
        constraints: &dcs,
        seed: 3,
    });
    let mut buf = Vec::new();
    model.save_to(&mut buf).expect("save");
    buf
}

/// One timed refit from the staged artifact at the given thread count;
/// returns the wall-clock and the refitted model's probe scores.
fn timed_refit(artifact: &[u8], threads: usize, probe: &Dataset) -> (f64, Vec<u32>) {
    let mut model =
        FittedHoloDetect::load_from(&mut std::io::Cursor::new(artifact.to_vec())).expect("load");
    model.set_threads(threads);
    let clock = Stopwatch::start();
    let refitted = model.refit_with(Vec::new()).expect("refit");
    let secs = clock.elapsed_secs();
    let cells: Vec<CellId> = probe.cell_ids().collect();
    let scores = refitted.raw_scores(probe, &cells).expect("score");
    (secs, scores.iter().map(|s| s.to_bits()).collect())
}

fn bench_thread_sweep(c: &mut Criterion) -> (f64, f64) {
    let artifact = staged_model();
    let mut b = DatasetBuilder::new(Schema::new(["Zip", "City", "State"]));
    b.push_row(&["60007", "Chicago", "IL"]);
    b.push_row(&["60014", "Madson", "IL"]);
    b.push_row(&["98765", "Opaque", "ZZ"]);
    let probe = b.build();

    c.bench_function("refit_with_1_thread_1000rows", |bch| {
        bch.iter(|| black_box(timed_refit(&artifact, 1, &probe)))
    });
    c.bench_function("refit_with_8_threads_1000rows", |bch| {
        bch.iter(|| black_box(timed_refit(&artifact, PAR_THREADS, &probe)))
    });

    // Direct wall-clock (best-of) for the asserted claims and the JSON
    // summary: best-of filters scheduler noise, which matters most for
    // the parallel run.
    let rounds = 3;
    let (mut secs_1, mut secs_8) = (f64::INFINITY, f64::INFINITY);
    let (mut bits_1, mut bits_8) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let (s, bits) = timed_refit(&artifact, 1, &probe);
        secs_1 = secs_1.min(s);
        bits_1 = bits;
        let (s, bits) = timed_refit(&artifact, PAR_THREADS, &probe);
        secs_8 = secs_8.min(s);
        bits_8 = bits;
    }
    assert_eq!(
        bits_1, bits_8,
        "8-thread refit must score bitwise-identically to 1-thread"
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores >= PAR_THREADS {
        assert!(
            secs_8 * 3.0 <= secs_1,
            "8-thread refit ({secs_8:.3}s) must beat 1-thread ({secs_1:.3}s) \
             by >= 3x on {cores}-core hardware"
        );
    }
    (secs_1, secs_8)
}

fn bench_refit(c: &mut Criterion) {
    let (refit_1t, refit_8t) = bench_thread_sweep(c);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    println!(
        "\nBENCH_refit summary (paste into BENCH_refit.json):\n\
         {{\"world_rows\": {WORLD_ROWS}, \
         \"cores\": {cores}, \
         \"refit_secs_1_thread\": {refit_1t:.3}, \
         \"refit_secs_8_threads\": {refit_8t:.3}, \
         \"refit_speedup_x\": {:.2}, \
         \"refit_bitwise_equal\": true}}",
        refit_1t / refit_8t.max(1e-12),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_refit
}
criterion_main!(benches);
