//! The detect-hospital world and scoring loop. The benchmark and the
//! allocator probe both compile this file, so the two sides of the
//! allocator A/B run exactly the same code. It may use only holodetect,
//! holo-data, holo-datagen and holo-eval: none of them links holo-prof.

use holo_data::{CellId, TrainingSet};
use holo_datagen::{generate, DatasetKind, GeneratedDataset};
use holo_eval::{FitContext, Split, SplitConfig, TrainedModel};
use holodetect::{FittedHoloDetect, HoloDetect, HoloDetectConfig};
use std::time::Instant;

/// Tuples in the Hospital world (Table 1: 1,000 × 19).
pub const ROWS: usize = 1000;
/// Fraction of tuples labeled as the training set `T`.
pub const TRAIN_FRAC: f64 = 0.10;
/// Rows per `score_batch` call in a scoring pass: the shape of one
/// serve-hospital request, so per-call latency is comparable with it.
pub const ROWS_PER_CALL: usize = 4;

/// A Hospital world with Table 1's error mass and a labeled 10% of tuples.
pub struct World {
    pub g: GeneratedDataset,
    pub train: TrainingSet,
    /// Every cell of the dirty dataset, row-major.
    pub cells: Vec<CellId>,
}

pub fn world(seed: u64) -> World {
    let g = generate(DatasetKind::Hospital, ROWS, seed);
    let split = Split::new(
        &g.dirty,
        SplitConfig {
            train_frac: TRAIN_FRAC,
            sampling_frac: 0.0,
            seed,
        },
    );
    let train = split.training_set(&g.dirty, &g.truth);
    let cells = g.dirty.cell_ids().collect();
    World { g, train, cells }
}

/// The detector configuration every workload fits with.
pub fn config() -> HoloDetectConfig {
    HoloDetectConfig::fast()
}

/// AUG with [`config`], as a library user calls it.
pub fn fit(w: &World, seed: u64) -> FittedHoloDetect {
    HoloDetect::new(config()).fit_model(&FitContext {
        dirty: &w.g.dirty,
        train: &w.train,
        sampling: None,
        constraints: &w.g.constraints,
        seed,
    })
}

/// One pass of `score_batch` over every cell, [`ROWS_PER_CALL`] rows'
/// cells per call.
pub struct Pass {
    pub scores: Vec<f64>,
    pub secs: f64,
    /// Wall time of each call, ms.
    pub call_ms: Vec<f64>,
    pub failed_calls: usize,
}

/// Cells per `score_batch` call.
pub fn chunk(w: &World) -> usize {
    ROWS_PER_CALL * w.g.dirty.n_attrs()
}

pub fn score_pass(model: &FittedHoloDetect, w: &World) -> Pass {
    let mut scores = Vec::with_capacity(w.cells.len());
    let mut call_ms = Vec::new();
    let mut failed_calls = 0;
    let start = Instant::now();
    for cells in w.cells.chunks(chunk(w)) {
        let t = Instant::now();
        match model.score_batch(&w.g.dirty, cells) {
            Ok(s) => scores.extend(s),
            Err(_) => failed_calls += 1,
        }
        call_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let secs = start.elapsed().as_secs_f64();
    Pass {
        scores,
        secs,
        call_ms,
        failed_calls,
    }
}

/// FNV-1a over the scores' bits: equal checksums mean bitwise-equal scores.
pub fn checksum(scores: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in scores {
        for b in s.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
