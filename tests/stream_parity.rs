//! The streaming subsystem's hard guarantee, tested end to end at the
//! trained-model level:
//!
//! For **any** sequence of appended rows applied to a fitted model
//! through `apply_delta` (the maintained reference only grows), a
//! subsequent `score_batch` is **bitwise-identical** to a model whose
//! count-based representation was rebuilt from scratch over the dataset
//! at the same epoch (same frozen embeddings/classifier — exactly what
//! `rebuild_representation_at` produces).
//!
//! Fitting is expensive, so one model is fitted once and every property
//! case clones it through the in-memory snapshot path (`save_to` /
//! `load_from`) — which doubles as a continuous test that snapshots are
//! faithful.

use holodetect_repro::core::{FittedHoloDetect, HoloDetect, HoloDetectConfig};
use holodetect_repro::data::{CellId, Dataset, DatasetBuilder, DeltaOp, GroundTruth, Schema};
use holodetect_repro::eval::{FitContext, TrainedModel};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The fitted model, serialized once (with a denial constraint so the
/// violation indexes are exercised).
fn snapshot() -> &'static [u8] {
    static SNAP: OnceLock<Vec<u8>> = OnceLock::new();
    SNAP.get_or_init(|| {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for _ in 0..25 {
            b.push_row(&["60612", "Chicago"]);
            b.push_row(&["53703", "Madison"]);
        }
        let clean = b.build();
        let mut dirty = clean.clone();
        dirty.set_value(0, 1, "Cxhicago");
        dirty.set_value(7, 1, "Madxison");
        let truth = GroundTruth::from_pair(&clean, &dirty);
        let mut cfg = HoloDetectConfig::fast();
        cfg.epochs = 8;
        let train = truth.label_tuples(&dirty, &(0..20).collect::<Vec<_>>());
        let dcs = holodetect_repro::constraints::parse_constraints("Zip -> City", dirty.schema())
            .expect("constraints");
        let model = HoloDetect::new(cfg).fit_model(&FitContext {
            dirty: &dirty,
            train: &train,
            sampling: None,
            constraints: &dcs,
            seed: 3,
        });
        let mut buf = Vec::new();
        model.save_to(&mut buf).expect("snapshot");
        buf
    })
}

fn fresh_model() -> FittedHoloDetect {
    FittedHoloDetect::load_from(&mut std::io::Cursor::new(snapshot())).expect("load snapshot")
}

/// Turn generated `(zip, city)` picks into appends mixing seen values,
/// unseen ones and the FD-violating typo.
fn appends(raw: &[(u8, u8)]) -> Vec<DeltaOp> {
    let zips = ["60612", "53703", "94110", "10001"];
    let cities = ["Chicago", "Madison", "Springfield", "Cxhicago", "SF"];
    raw.iter()
        .map(|&(z, c)| DeltaOp::Append {
            values: vec![
                zips[z as usize % zips.len()].to_string(),
                cities[c as usize % cities.len()].to_string(),
            ],
        })
        .collect()
}

fn score_bits(model: &FittedHoloDetect, d: &Dataset, cells: &[CellId]) -> Vec<u64> {
    model
        .score_batch(d, cells)
        .expect("score")
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

proptest! {
    /// Random append sequences: incremental maintenance scores
    /// bitwise-identically to a from-scratch rebuild at the same epoch,
    /// on the (grown) reference and on a foreign batch.
    #[test]
    fn random_interleavings_score_bitwise_equal_to_rebuild(
        raw in proptest::collection::vec((0u8..8, 0u8..8), 1..18)
    ) {
        let mut live = fresh_model();
        let mut rebuilt = fresh_model();
        let ops = appends(&raw);

        // A foreign batch with seen and unseen values. Scoring it between
        // appends warms the neighbour memo while the candidates change,
        // so a stale memoized distance shows up in the final comparison.
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        b.push_row(&["60612", "Chicago"]);
        b.push_row(&["60612", "Springfield"]);
        b.push_row(&["99999", "Nowhere"]);
        let batch = b.build();
        let batch_cells: Vec<CellId> = batch.cell_ids().collect();

        // The dataset at the final epoch, replayed independently.
        let mut replica = live.artifact().expect("fitted").reference().clone();
        for op in &ops {
            live.apply_delta(op).expect("incremental apply");
            replica.apply_delta(op).expect("replica apply");
            score_bits(&live, &batch, &batch_cells);
        }
        rebuilt.rebuild_representation_at(&replica).expect("rebuild");

        // Parity on the maintained reference itself (sampled cells)…
        let reference = live.artifact().expect("fitted").reference().clone();
        prop_assert_eq!(reference.n_tuples(), replica.n_tuples());
        let cells: Vec<CellId> = reference.cell_ids().step_by(3).take(40).collect();
        prop_assert_eq!(
            score_bits(&live, &reference, &cells),
            score_bits(&rebuilt, &replica, &cells)
        );

        // …and on the foreign batch.
        prop_assert_eq!(
            score_bits(&live, &batch, &batch_cells),
            score_bits(&rebuilt, &batch, &batch_cells)
        );
    }
}
