//! The streaming benchmark: what `holo-stream` buys over the
//! alternatives it replaces.
//!
//! Three measurements, each asserted so CI keeps the claims honest:
//!
//! * **`apply_delta` vs. full rebuild** — maintaining the fitted
//!   representation through a single-row append must beat rebuilding
//!   the count-based state (violation indexes included) from scratch by
//!   ≥ 10× on a ≥ 1k-row reference. This is the economic case for the
//!   subsystem: the rebuild is `O(reference)`, the delta `O(block)`.
//! * **ingest throughput** — durable-logged, incrementally-applied,
//!   drift-measured rows per second through `LiveModel::ingest_rows`.
//! * **scoring latency during a background refit** — scoring through a
//!   live session while `refit_to_disk` retrains on a snapshot must
//!   keep succeeding at latencies comparable to quiet-time scoring
//!   (the refit holds no lock scoring needs beyond the snapshot read).
//!
//! The summary line prints a JSON object; `BENCH_stream.json` in the
//! repo root is a committed snapshot of it (the perf trajectory's
//! seed).

use criterion::{criterion_group, criterion_main, Criterion};
use holo_data::{CellId, Dataset, DatasetBuilder, DeltaOp, GroundTruth, Schema};
use holo_eval::FitContext;
use holo_features::{FeatureConfig, Featurizer};
use holo_stream::{LiveModel, StreamConfig};
use holo_trace::Stopwatch;
use holodetect::{HoloDetect, HoloDetectConfig};
use std::hint::black_box;

/// Reference size for the delta-vs-rebuild comparison (the acceptance
/// bar demands ≥ 1k rows).
const REFERENCE_ROWS: usize = 1_200;

/// A ≥ 1k-row reference with realistic value repetition and a typo tail.
fn reference(rows: usize) -> Dataset {
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
    // A few FD-violating typos so the violation indexes have real work.
    let mut d = b.build();
    for i in 0..rows / 100 {
        d.set_value(i * 97 % rows, 1, &format!("Chicag{i}"));
    }
    d
}

fn bench_apply_delta_vs_rebuild(c: &mut Criterion) -> (f64, f64) {
    let d = reference(REFERENCE_ROWS);
    let dcs = holo_constraints::parse_constraints("Zip -> City", d.schema()).expect("constraints");
    let mut live = Featurizer::fit(&d, &dcs, FeatureConfig::fast());
    let baseline = Featurizer::fit(&d, &dcs, FeatureConfig::fast());

    let append = |i: usize| DeltaOp::Append {
        values: vec![format!("60{:03}", i % 42), "Chicago".into(), "IL".into()],
    };

    c.bench_function("apply_delta_single_append_1200rows", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            live.apply_delta(black_box(&append(i))).expect("apply");
        })
    });
    c.bench_function("full_counter_rebuild_1200rows", |b| {
        b.iter(|| black_box(baseline.rebuilt_at(&d)))
    });

    // Direct wall-clock for the asserted ratio and the JSON summary.
    let clock = Stopwatch::start();
    let delta_rounds = 200;
    for i in 0..delta_rounds {
        live.apply_delta(&append(1000 + i)).expect("apply");
    }
    let delta_secs = clock.elapsed_secs() / delta_rounds as f64;

    let clock = Stopwatch::start();
    let rebuild_rounds = 5;
    for _ in 0..rebuild_rounds {
        black_box(baseline.rebuilt_at(&d));
    }
    let rebuild_secs = clock.elapsed_secs() / rebuild_rounds as f64;

    assert!(
        delta_secs * 10.0 < rebuild_secs,
        "apply_delta ({delta_secs:.6}s) must beat a full rebuild \
         ({rebuild_secs:.6}s) by ≥ 10x on a {REFERENCE_ROWS}-row reference"
    );
    (delta_secs, rebuild_secs)
}

/// Fit a small servable model and stage its artifact + log in temp.
fn staged_live(tag: &str, rows: usize) -> (LiveModel, std::path::PathBuf, std::path::PathBuf) {
    let clean = reference(rows);
    let mut dirty = clean.clone();
    dirty.set_value(0, 1, "Chixago");
    let truth = GroundTruth::from_pair(&clean, &dirty);
    let train = truth.label_tuples(&dirty, &(0..60).collect::<Vec<_>>());
    let dcs =
        holo_constraints::parse_constraints("Zip -> City", dirty.schema()).expect("constraints");
    let mut cfg = HoloDetectConfig::fast();
    cfg.epochs = 8;
    let model = HoloDetect::new(cfg).fit_model(&FitContext {
        dirty: &dirty,
        train: &train,
        sampling: None,
        constraints: &dcs,
        seed: 3,
    });
    let stamp = format!("{}-{tag}", std::process::id());
    let artifact = std::env::temp_dir().join(format!("holo-bench-stream-{stamp}.holoart"));
    let log = std::env::temp_dir().join(format!("holo-bench-stream-{stamp}.dlog"));
    std::fs::remove_file(&log).ok();
    model.save(&artifact).expect("save");
    let live = LiveModel::open(&artifact, &log, StreamConfig::default()).expect("open live");
    (live, artifact, log)
}

fn bench_ingest_throughput(c: &mut Criterion) -> f64 {
    let (live, artifact, log) = staged_live("ingest", 400);
    let batch: Vec<Vec<String>> = (0..100)
        .map(|i| {
            vec![
                format!("60{:03}", i % 42),
                "Chicago".to_string(),
                "IL".to_string(),
            ]
        })
        .collect();

    c.bench_function("ingest_100_row_batch", |b| {
        b.iter(|| live.ingest_rows(black_box(batch.clone())).expect("ingest"))
    });

    let clock = Stopwatch::start();
    let rounds = 10;
    for _ in 0..rounds {
        live.ingest_rows(batch.clone()).expect("ingest");
    }
    let rows_per_sec = (rounds * batch.len()) as f64 / clock.elapsed_secs();
    assert!(
        rows_per_sec > 100.0,
        "streaming ingest unreasonably slow: {rows_per_sec:.0} rows/s"
    );
    std::fs::remove_file(&artifact).ok();
    std::fs::remove_file(&log).ok();
    rows_per_sec
}

fn bench_scoring_during_refit(c: &mut Criterion) -> (f64, f64) {
    let (live, artifact, log) = staged_live("refit", 400);
    let live = std::sync::Arc::new(live);
    let mut b = DatasetBuilder::new(Schema::new(["Zip", "City", "State"]));
    b.push_row(&["60007", "Chicago", "IL"]);
    b.push_row(&["60014", "Madson", "IL"]);
    let probe = b.build();
    let cells: Vec<CellId> = probe.cell_ids().collect();

    // Quiet-time latency.
    let quiet = median_score_latency(&live, &probe, &cells, 40);
    c.bench_function("score_batch_quiet", |b| {
        b.iter(|| black_box(live.score_batch(&probe, &cells).expect("score")))
    });

    // Latency while refits run continuously in the background.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let refitter = {
        let live = std::sync::Arc::clone(&live);
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                live.refit_now().expect("refit");
            }
        })
    };
    let busy = median_score_latency(&live, &probe, &cells, 40);
    c.bench_function("score_batch_during_background_refit", |b| {
        b.iter(|| black_box(live.score_batch(&probe, &cells).expect("score")))
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    refitter.join().expect("refitter");

    assert!(
        live.refits_total() >= 1,
        "the background refitter never completed a refit"
    );
    std::fs::remove_file(&artifact).ok();
    std::fs::remove_file(&log).ok();
    (quiet, busy)
}

fn median_score_latency(live: &LiveModel, d: &Dataset, cells: &[CellId], rounds: usize) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let clock = Stopwatch::start();
            black_box(live.score_batch(d, cells).expect("score"));
            clock.elapsed_secs()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_stream(c: &mut Criterion) {
    let (delta_secs, rebuild_secs) = bench_apply_delta_vs_rebuild(c);
    let rows_per_sec = bench_ingest_throughput(c);
    let (quiet, busy) = bench_scoring_during_refit(c);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    println!(
        "\nBENCH_stream summary (paste into BENCH_stream.json):\n\
         {{\"reference_rows\": {REFERENCE_ROWS}, \
         \"cores\": {cores}, \
         \"apply_delta_append_secs\": {delta_secs:.6}, \
         \"full_rebuild_secs\": {rebuild_secs:.6}, \
         \"delta_speedup_x\": {:.1}, \
         \"ingest_rows_per_sec\": {rows_per_sec:.0}, \
         \"score_ms_quiet\": {:.3}, \
         \"score_ms_during_refit\": {:.3}}}",
        rebuild_secs / delta_secs.max(1e-12),
        quiet * 1e3,
        busy * 1e3,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stream
}
criterion_main!(benches);
