//! The traced run's in-process replays: the benchmark's own spans around
//! each public call into a layer, and the per-layer metrics derived from
//! them. Nothing here adds tracing inside the program.

use crate::spans::{self, Tracer};
use crate::{metric, server, Outcome};
use holo_data::{CellId, Dataset, DatasetBuilder, Schema, TrainingSet};
use holo_eval::TrainedModel;
use holodetect::trainer::{Pipeline, TrainExample};
use holodetect::{FittedHoloDetect, HoloDetectConfig};
use holodetect_repro::constraints::DenialConstraint;
use holodetect_repro::serve::{json, Json};
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer the workload does no work in reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("features.fit_s", "s"),
    ("features.featurize_train_s", "s"),
    ("features.us_per_cell.reference", "us"),
    ("features.us_per_cell.foreign", "us"),
    ("features.apply_delta_us_per_row", "us"),
    ("features.nn_cache_hit_ratio", "ratio"),
    ("channel.learn_s", "s"),
    ("channel.augment_s", "s"),
    ("core.train_s", "s"),
    ("core.calibrate_s", "s"),
    ("core.forward_us_per_cell", "us"),
    ("core.score_rest_us_per_cell", "us"),
    ("core.artifact_save_s", "s"),
    ("core.artifact_load_s", "s"),
    ("core.refit_with_s", "s"),
    ("adapt.refit_s", "s"),
    ("adapt.augment_s", "s"),
    ("adapt.channel_learn_s", "s"),
    ("data.log_append_us_per_row", "us"),
    ("stream.ingest_rows_per_s", "rows/s"),
    ("stream.ingest_p50_ms", "ms"),
    ("stream.refit_s", "s"),
    ("stream.ingest_ms_per_row", "ms"),
    ("stream.drift_update_ms_per_row", "ms"),
    ("stream.refit_to_disk_s", "s"),
    ("stream.install_s", "s"),
    ("stream.state_lock_wait_us_per_req", "us"),
    ("serve.json_us_per_req", "us"),
    ("serve.http_overhead_ms_per_req", "ms"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.requests_per_call", "count"),
    ("prof.allocs_per_cell", "count"),
    ("prof.alloc_bytes_per_cell", "bytes"),
    ("prof.alloc_tax_x", "ratio"),
    ("trace.layer_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The root span every replay runs under; layer spans are its descendants.
pub const REPLAY: &str = "replay";

/// The largest share of a replay's wall time the layer spans may leave
/// unaccounted for.
const RECONCILE_TOLERANCE: f64 = 0.10;

/// Spans timed to calibrate the cost of recording one.
const CALIBRATION_SPANS: usize = 100_000;

/// Measured per-layer values, by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Reconciles the replays, writes the spans out, and reports every
    /// per-layer metric.
    pub fn finish(mut self, tr: &Tracer, workload: &str, seed: u64, out: &mut Outcome) {
        let spans = tr.spans();
        let share = spans::reconcile(spans, REPLAY);
        out.check((share - 1.0).abs() <= RECONCILE_TOLERANCE, || {
            format!("layer self-times cover {share:.3} of the replay wall time")
        });
        self.set("trace.layer_share", share);
        // What recording the spans cost: a calibrated per-span cost times
        // the spans recorded, over the replays' wall time.
        let mut probe = Tracer::new();
        let t = std::time::Instant::now();
        for _ in 0..CALIBRATION_SPANS {
            let open = probe.enter("calibration");
            probe.exit(open);
        }
        let per_span_us = t.elapsed().as_secs_f64() * 1e6 / CALIBRATION_SPANS as f64;
        let wall_us = spans::root_wall_us(spans, REPLAY);
        self.set(
            "trace.overhead_share",
            per_span_us * spans.len() as f64 / wall_us.max(1.0),
        );
        let path = server::target_dir().join(format!("holobench-spans-{workload}-{seed}.jsonl"));
        match std::fs::write(&path, spans::to_json_lines(spans)) {
            Ok(()) => eprintln!(
                "holobench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "holobench: could not write spans to {}: {e}",
                path.display()
            ),
        }
        let by_name = spans::self_time_by_name(spans);
        let mut names: Vec<_> = by_name.iter().collect();
        names.sort_by(|a, b| b.1.total_cmp(a.1));
        for (name, us) in names {
            eprintln!("holobench: self time {name:<32} {:>12.1} ms", us / 1e3);
        }
        for &(name, unit) in PER_LAYER {
            out.layers
                .push(metric(name, self.0.get(name).copied().unwrap_or(0.0), unit));
        }
    }
}

/// Seconds of self time spent in spans named `name`.
pub fn self_s(tr: &Tracer, name: &str) -> f64 {
    spans::self_time_by_name(tr.spans())
        .get(name)
        .copied()
        .unwrap_or(0.0)
        / 1e6
}

/// Microseconds of total time spent in spans named `name`.
pub fn total_us(tr: &Tracer, name: &str) -> f64 {
    spans::total_time_by_name(tr.spans())
        .get(name)
        .copied()
        .unwrap_or(0.0)
}

/// What a fit is run on.
pub struct FitInputs<'a> {
    pub dirty: &'a Dataset,
    pub constraints: &'a [DenialConstraint],
    pub train: &'a TrainingSet,
    pub seed: u64,
}

/// Replays `HoloDetect::fit_model` (AUG) call by call through the public
/// `Pipeline` API, each call in a span, as one operation. Returns the
/// tuned threshold, which must equal the fitted model's: the replay does
/// the same work.
pub fn replay_fit(
    tr: &mut Tracer,
    cfg: &HoloDetectConfig,
    inp: &FitInputs<'_>,
    layers: &mut Layers,
) -> f64 {
    tr.next_op();
    let root = tr.enter(REPLAY);
    let pipeline = tr.time("features.fit", || {
        Pipeline::fit(cfg, inp.dirty, inp.constraints, inp.seed)
    });
    let (train, hold) = tr.time("core.split_holdout", || pipeline.split_holdout(inp.train));
    let holdout = TrainExample::from_training_set(&hold);
    let mut examples = TrainExample::from_training_set(&train);
    let policy = tr.time("channel.learn", || pipeline.learn_channel(&train));
    examples.extend(tr.time("channel.augment", || {
        pipeline.augment_examples(&train, &policy, None)
    }));
    let mut tune = holdout.clone();
    tune.extend(tr.time("channel.augment", || {
        pipeline.augment_examples(&hold, &policy, None)
    }));
    // The tuning weights of fit_strategy's AUG arm.
    let (p_t, n_t) = inp.train.class_counts();
    let prior = (n_t as f64 / (p_t + n_t).max(1) as f64).max(0.002);
    let n_err = tune.iter().filter(|e| e.label.is_error()).count().max(1);
    let n_cor = (tune.len() - n_err.min(tune.len())).max(1);
    let weights: Vec<f64> = tune
        .iter()
        .map(|e| {
            if e.label.is_error() {
                prior / n_err as f64
            } else {
                (1.0 - prior) / n_cor as f64
            }
        })
        .collect();
    let (x, y) = tr.time("features.featurize_train", || pipeline.featurize(&examples));
    let model = tr.time("core.train", || pipeline.train_model(&x, &y));
    let calibrate = tr.enter("core.calibrate");
    let (hx, ht) = tr.time("features.featurize_holdout", || {
        pipeline.featurize(&holdout)
    });
    let platt = pipeline.calibrate_scores(&model.scores(&hx), &ht);
    let (tx, tt) = tr.time("features.featurize_tune", || pipeline.featurize(&tune));
    let probs = pipeline.predict_proba(&model, &platt, &tx);
    let threshold = pipeline.select_threshold_probs(&probs, &tt, &weights);
    tr.exit(calibrate);
    tr.exit(root);
    for (metric_name, span) in [
        ("features.fit_s", "features.fit"),
        ("features.featurize_train_s", "features.featurize_train"),
        ("channel.learn_s", "channel.learn"),
        ("channel.augment_s", "channel.augment"),
        ("core.train_s", "core.train"),
        ("core.calibrate_s", "core.calibrate"),
    ] {
        layers.set(metric_name, self_s(tr, span));
    }
    threshold
}

/// Times `save_to` into memory and `load_from` back; returns the copy.
/// Runs inside whatever span is open.
pub fn replay_artifact(
    tr: &mut Tracer,
    model: &FittedHoloDetect,
    layers: &mut Layers,
) -> Result<FittedHoloDetect, String> {
    let mut bytes = Vec::new();
    tr.time("core.artifact_save", || model.save_to(&mut bytes))
        .map_err(|e| e.to_string())?;
    let copy = tr
        .time("core.artifact_load", || {
            FittedHoloDetect::load_from(&mut bytes.as_slice())
        })
        .map_err(|e| e.to_string())?;
    layers.set(
        "core.artifact_save_s",
        total_us(tr, "core.artifact_save") / 1e6,
    );
    layers.set(
        "core.artifact_load_s",
        total_us(tr, "core.artifact_load") / 1e6,
    );
    Ok(copy)
}

/// Totals of a scoring replay.
#[derive(Default)]
pub struct ScoreTotals {
    pub cells: usize,
    /// Wall time of each `score_batch` call, ms.
    pub score_ms: Vec<f64>,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub score_us: f64,
    pub featurize_us: f64,
    pub forward_us: f64,
}

impl ScoreTotals {
    /// Reports the per-cell layer split; `features_metric` names the
    /// featurize metric (reference or foreign cells).
    pub fn report(&self, layers: &mut Layers, features_metric: &'static str) {
        let cells = self.cells.max(1) as f64;
        layers.set(features_metric, self.featurize_us / cells);
        layers.set("core.forward_us_per_cell", self.forward_us / cells);
        layers.set(
            "core.score_rest_us_per_cell",
            (self.score_us - self.featurize_us - self.forward_us) / cells,
        );
        layers.set("prof.allocs_per_cell", self.allocs as f64 / cells);
        layers.set("prof.alloc_bytes_per_cell", self.alloc_bytes as f64 / cells);
    }
}

/// One scored batch: `score_batch` inside a span with the allocation
/// counters read around it, then the same cells through
/// `featurize_cells` and the forward pass alone.
fn score_one(
    tr: &mut Tracer,
    model: &FittedHoloDetect,
    data: &Dataset,
    cells: &[CellId],
    t: &mut ScoreTotals,
) -> Result<Vec<f64>, String> {
    let pipeline = model.pipeline().ok_or("degenerate model")?;
    let open = tr.enter("core.score_batch");
    let before = holo_prof::alloc_totals();
    let scores = model.score_batch(data, cells);
    let after = holo_prof::alloc_totals();
    let us = tr.exit(open);
    let scores = scores.map_err(|e| e.to_string())?;
    let open = tr.enter("features.featurize_cells");
    let x = pipeline.featurize_cells(data, cells);
    t.featurize_us += tr.exit(open);
    let open = tr.enter("core.forward");
    std::hint::black_box(model.proba_features(&x));
    t.forward_us += tr.exit(open);
    t.score_us += us;
    t.score_ms.push(us / 1e3);
    t.cells += cells.len();
    t.allocs += after.allocs - before.allocs;
    t.alloc_bytes += after.bytes - before.bytes;
    Ok(scores)
}

/// Scores `cells` of `data` in `chunk`-cell calls.
pub fn replay_cells(
    tr: &mut Tracer,
    model: &FittedHoloDetect,
    data: &Dataset,
    cells: &[CellId],
    chunk: usize,
) -> Result<ScoreTotals, String> {
    let mut t = ScoreTotals::default();
    for c in cells.chunks(chunk) {
        tr.next_op();
        let root = tr.enter(REPLAY);
        score_one(tr, model, data, c, &mut t)?;
        tr.exit(root);
    }
    Ok(t)
}

/// Replays HTTP score requests in-process: decode the body as the server
/// does, score, and encode a response-shaped document.
pub fn replay_requests(
    tr: &mut Tracer,
    model: &FittedHoloDetect,
    schema: &Schema,
    bodies: &[String],
) -> Result<(ScoreTotals, f64), String> {
    let mut t = ScoreTotals::default();
    let mut json_us = 0.0;
    for body in bodies {
        tr.next_op();
        let root = tr.enter(REPLAY);
        let open = tr.enter("serve.json");
        let data = decode_rows(body, schema)?;
        json_us += tr.exit(open);
        let cells: Vec<CellId> = data.cell_ids().collect();
        let scores = score_one(tr, model, &data, &cells, &mut t)?;
        let open = tr.enter("serve.json");
        let doc = Json::Obj(vec![
            ("model".into(), Json::Str("model".into())),
            ("generation".into(), Json::Num(0.0)),
            (
                "scores".into(),
                Json::Arr(scores.into_iter().map(Json::Num).collect()),
            ),
        ]);
        std::hint::black_box(doc.to_string());
        json_us += tr.exit(open);
        tr.exit(root);
    }
    let per_req = json_us / bodies.len().max(1) as f64;
    Ok((t, per_req))
}

/// Scores every body once, untimed, so the neighbour memo is as warm as
/// a server's that has seen the request stream before.
pub fn warm(model: &FittedHoloDetect, schema: &Schema, bodies: &[String]) -> Result<(), String> {
    for body in bodies {
        let data = decode_rows(body, schema)?;
        let cells: Vec<CellId> = data.cell_ids().collect();
        model
            .score_batch(&data, &cells)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `{"rows": [...]}` into a dataset of `schema`.
pub fn decode_rows(body: &str, schema: &Schema) -> Result<Dataset, String> {
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("no rows array")?;
    let mut b = DatasetBuilder::new(schema.clone()).with_capacity(rows.len());
    for row in rows {
        let values = schema
            .names()
            .iter()
            .map(|n| {
                row.get(n)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("row lacks {n:?}"))
            })
            .collect::<Result<Vec<&str>, String>>()?;
        b.push_row(&values);
    }
    Ok(b.build())
}

/// `hits / (hits + misses)` of the featurizer's neighbour memo between
/// two snapshots.
pub fn hit_ratio(before: holodetect::CacheStats, after: holodetect::CacheStats) -> f64 {
    let hits = after.hits.saturating_sub(before.hits) as f64;
    let misses = after.misses.saturating_sub(before.misses) as f64;
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}
