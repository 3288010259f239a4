//! The parallel-refit acceptance bar, tested end to end at the
//! trained-model level (alongside the `stream_parity` suite):
//! `refit_with` at any worker-thread count scores **bitwise-identical**
//! to single-threaded at the same seed. The trainer's shard
//! decomposition is fixed (independent of thread count) and the
//! gradient reduction runs in slot order, so threads only change *who*
//! computes each shard, never *what* is summed.

use holodetect_repro::core::{FittedHoloDetect, HoloDetect, HoloDetectConfig};
use holodetect_repro::data::{CellId, Dataset, DatasetBuilder, GroundTruth, Schema};
use holodetect_repro::eval::FitContext;
use std::sync::OnceLock;

/// One fitted model, serialized once — every case reloads it through
/// the snapshot path, so all refits start from identical bytes.
fn snapshot() -> &'static [u8] {
    static SNAP: OnceLock<Vec<u8>> = OnceLock::new();
    SNAP.get_or_init(|| {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for _ in 0..30 {
            b.push_row(&["60612", "Chicago"]);
            b.push_row(&["53703", "Madison"]);
            b.push_row(&["61801", "Urbana"]);
        }
        let clean = b.build();
        let mut dirty = clean.clone();
        dirty.set_value(0, 1, "Cxhicago");
        dirty.set_value(7, 1, "Madxison");
        dirty.set_value(13, 1, "Urbxana");
        let truth = GroundTruth::from_pair(&clean, &dirty);
        let mut cfg = HoloDetectConfig::fast();
        cfg.epochs = 9;
        let train = truth.label_tuples(&dirty, &(0..24).collect::<Vec<_>>());
        let dcs = holodetect_repro::constraints::parse_constraints("Zip -> City", dirty.schema())
            .expect("constraints");
        let model = HoloDetect::new(cfg).fit_model(&FitContext {
            dirty: &dirty,
            train: &train,
            sampling: None,
            constraints: &dcs,
            seed: 5,
        });
        let mut buf = Vec::new();
        model.save_to(&mut buf).expect("snapshot");
        buf
    })
}

fn probe() -> Dataset {
    let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
    b.push_row(&["60612", "Chicago"]);
    b.push_row(&["60612", "Chicxago"]);
    b.push_row(&["99999", "Nowhere"]);
    b.build()
}

/// Refit the snapshot at the given thread count and return the
/// refitted model's probe scores as bit patterns.
fn refit_bits(threads: usize) -> Vec<u32> {
    let mut model =
        FittedHoloDetect::load_from(&mut std::io::Cursor::new(snapshot())).expect("load");
    model.set_threads(threads);
    let refitted = model.refit_with(Vec::new()).expect("refit");
    let d = probe();
    let cells: Vec<CellId> = d.cell_ids().collect();
    refitted
        .raw_scores(&d, &cells)
        .expect("score")
        .iter()
        .map(|s| s.to_bits())
        .collect()
}

#[test]
fn n_thread_refit_is_bitwise_equal_to_single_thread() {
    let single = refit_bits(1);
    for threads in [2, 4, 8, 32] {
        assert_eq!(
            single,
            refit_bits(threads),
            "{threads}-thread refit diverged from single-threaded"
        );
    }
}
