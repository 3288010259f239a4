//! The fitted HoloDetect model: the reusable, persistable product of
//! `fit`.
//!
//! [`FittedHoloDetect`] wraps a [`ModelArtifact`] — the fully *owned*
//! bundle of everything fitting produced: the representation `Q`
//! (inside the [`Pipeline`], which owns a copy of the reference
//! dataset), the trained wide-and-deep classifier `M`, the Platt scaler
//! of §4.2, the holdout-tuned decision threshold, and the training
//! examples behind the classifier. Nothing borrows the fit context, so
//! the model is `'static`: it implements [`holo_eval::TrainedModel`],
//! scoring cell batches of **any** schema-compatible dataset — the fit
//! data or a CSV loaded long after — from many threads, without
//! re-training.
//!
//! Artifacts persist: [`FittedHoloDetect::save`] writes a versioned
//! binary file (hand-rolled codec, no registry dependencies) and
//! [`FittedHoloDetect::load`] restores it in a fresh process with
//! bitwise-identical scoring behaviour. Train once on a reference
//! sample; deploy the file; score incoming batches for the artifact's
//! whole life.
//!
//! [`FittedHoloDetect::refit_with`] is the explicit incremental hook the
//! active-learning and self-training strategies drive their labeling
//! loops through; on a degenerate model it returns a typed error rather
//! than panicking.

use crate::config::HoloDetectConfig;
use crate::model::{BranchStyle, WideDeepModel};
use crate::trainer::{Pipeline, TrainExample};
use holo_channel::AugmentStrategy;
use holo_data::{binio, CellId, Dataset, Label};
use holo_eval::{ModelError, TrainedModel};
use holo_features::Featurizer;
use holo_nn::{Matrix, Param, PlattScaler};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Artifact file magic (8 bytes).
const MAGIC: &[u8; 8] = b"HOLOARTF";
/// Current artifact format version.
const FORMAT_VERSION: u32 = 1;

/// A fitted HoloDetect model (any strategy).
pub struct FittedHoloDetect {
    method: &'static str,
    state: Option<ModelArtifact>,
}

/// The owned, serializable product of fitting: representation,
/// classifier, calibration, threshold, and the training examples behind
/// them (kept so [`FittedHoloDetect::refit_with`] can extend them).
pub struct ModelArtifact {
    pipeline: Pipeline,
    /// The training examples behind `model` — kept so `refit_with` can
    /// extend them.
    examples: Vec<TrainExample>,
    /// Calibration set (the §6.1 holdout).
    holdout: Vec<TrainExample>,
    /// A distinct weighted threshold-tuning set, or `None` when the
    /// holdout itself (unit weights) tunes the threshold.
    tune: Option<(Vec<TrainExample>, Vec<f64>)>,
    model: WideDeepModel,
    platt: PlattScaler,
    threshold: f64,
}

impl ModelArtifact {
    /// The pipeline (configuration + fitted representation `Q`).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The reference dataset the artifact was fitted over.
    pub fn reference(&self) -> &Dataset {
        self.pipeline.reference()
    }

    /// The holdout-tuned decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl FittedHoloDetect {
    /// The degenerate model fitted from an empty training set: every
    /// cell scores 0 (no evidence of errors).
    pub(crate) fn degenerate(method: &'static str) -> Self {
        FittedHoloDetect {
            method,
            state: None,
        }
    }

    /// Featurize → train → calibrate → tune the threshold. `tune` is a
    /// distinct weighted tuning set, or `None` to tune on the holdout
    /// itself (unit weights).
    pub(crate) fn train(
        method: &'static str,
        pipeline: Pipeline,
        examples: Vec<TrainExample>,
        holdout: Vec<TrainExample>,
        tune: Option<(Vec<TrainExample>, Vec<f64>)>,
    ) -> Self {
        let (x, y) = pipeline.featurize(&examples);
        let model = pipeline.train_model(&x, &y);
        // Featurize + score the holdout once; calibration and — when
        // the holdout doubles as the tuning set — threshold tuning
        // share the pass.
        let (platt, threshold) = if holdout.is_empty() {
            let platt = PlattScaler::identity();
            let threshold = match &tune {
                Some((t, w)) => pipeline.select_threshold_weighted(&model, &platt, t, w),
                None => f64::from(pipeline.cfg.decision_threshold),
            };
            (platt, threshold)
        } else {
            let (hx, htargets) = pipeline.featurize(&holdout);
            let scores = model.scores(&hx);
            let platt = pipeline.calibrate_scores(&scores, &htargets);
            let threshold = match &tune {
                Some((t, w)) => pipeline.select_threshold_weighted(&model, &platt, t, w),
                None => {
                    let probs: Vec<f32> = scores.iter().map(|&s| platt.prob(s)).collect();
                    let weights = vec![1.0; holdout.len()];
                    pipeline.select_threshold_probs(&probs, &htargets, &weights)
                }
            };
            (platt, threshold)
        };
        FittedHoloDetect {
            method,
            state: Some(ModelArtifact {
                pipeline,
                examples,
                holdout,
                tune,
                model,
                platt,
                threshold,
            }),
        }
    }

    /// The incremental hook: extend the training set and re-train the
    /// classifier (representation `Q` is reused, not re-fitted), then
    /// re-calibrate and re-tune. Iterative strategies (ActiveL's
    /// labeling loops, SemiL's pseudo-label rounds) are built on this,
    /// and it is the entry point for future online-learning work.
    ///
    /// # Errors
    ///
    /// [`ModelError::Degenerate`] when the model was fitted from an
    /// empty training set: it has no pipeline to retrain, and silently
    /// dropping the caller's labels would be worse. Fit with a non-empty
    /// `T` first.
    pub fn refit_with(self, extra: Vec<TrainExample>) -> Result<Self, ModelError> {
        let Some(mut s) = self.state else {
            return Err(ModelError::Degenerate {
                method: self.method.to_owned(),
            });
        };
        s.examples.extend(extra);
        Ok(Self::train(
            self.method,
            s.pipeline,
            s.examples,
            s.holdout,
            s.tune,
        ))
    }

    /// The method name (as the paper's tables print it).
    pub fn method(&self) -> &'static str {
        self.method
    }

    /// The holdout-tuned decision threshold in calibrated-probability
    /// space.
    pub fn threshold(&self) -> f64 {
        self.state.as_ref().map_or(0.5, |s| s.threshold)
    }

    /// The underlying artifact (`None` for the degenerate model).
    pub fn artifact(&self) -> Option<&ModelArtifact> {
        self.state.as_ref()
    }

    /// The underlying pipeline (`None` for the degenerate model).
    pub fn pipeline(&self) -> Option<&Pipeline> {
        self.state.as_ref().map(|s| &s.pipeline)
    }

    /// Number of training examples behind the current classifier.
    pub fn n_train_examples(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.examples.len())
    }

    /// Lifetime hit/miss/eviction counters of the featurizer's
    /// nearest-neighbour memo (all-zero for the degenerate model, which
    /// has no featurizer). Surfaced per served model as the
    /// `holo_features_nn_cache_*` metrics families.
    pub fn nn_cache_stats(&self) -> holo_features::CacheStats {
        self.state
            .as_ref()
            .map(|s| s.pipeline.featurizer.nn_cache_stats())
            .unwrap_or_default()
    }

    /// Raw classifier margins `z_error − z_correct` for a cell batch of
    /// `data` — the uncalibrated scores the Platt scaler maps to
    /// probabilities. Validates `data` and `cells` like
    /// [`TrainedModel::score_batch`]: incompatible inputs are typed
    /// errors, never garbage margins.
    pub fn raw_scores(&self, data: &Dataset, cells: &[CellId]) -> Result<Vec<f32>, ModelError> {
        match &self.state {
            None => {
                ModelError::check_cells(data, cells)?;
                Ok(vec![0.0; cells.len()])
            }
            Some(s) => {
                ModelError::check_schema(s.pipeline.reference().schema(), data)?;
                ModelError::check_cells(data, cells)?;
                if cells.is_empty() {
                    return Ok(Vec::new());
                }
                let x = s.pipeline.featurize_cells(data, cells);
                Ok(s.model.scores(&x))
            }
        }
    }

    /// Uncalibrated softmax error probabilities for pre-featurized rows
    /// — the hook iterative strategies poll between refits.
    pub fn proba_features(&self, x: &Matrix) -> Vec<f32> {
        match &self.state {
            None => vec![0.0; x.rows()],
            Some(s) => s.model.predict_proba(x),
        }
    }

    /// Apply one reference-dataset delta (an appended row) to the
    /// fitted state in place of a refit: the owned representation `Q`
    /// (inside the featurizer) advances one epoch with the guarantee that
    /// scoring afterwards is bitwise-identical to a model whose
    /// count-based representation was rebuilt from scratch over the
    /// grown dataset (the classifier, calibration, and learned embeddings
    /// are frozen between refits — exactly what
    /// [`FittedHoloDetect::rebuild_representation_at`] reproduces).
    ///
    /// An append moves no existing row, so the stored training, holdout
    /// and tuning examples keep addressing their cells and
    /// [`FittedHoloDetect::refit_with`] stays valid after any delta
    /// sequence.
    ///
    /// # Errors
    ///
    /// [`ModelError::Degenerate`] for a model with no fitted state;
    /// [`ModelError::Format`] for a row whose arity does not match the
    /// schema — nothing is half-applied.
    pub fn apply_delta(&mut self, op: &holo_data::DeltaOp) -> Result<(), ModelError> {
        let Some(s) = &mut self.state else {
            return Err(ModelError::Degenerate {
                method: self.method.to_owned(),
            });
        };
        s.pipeline
            .featurizer
            .apply_delta(op)
            .map_err(|e| ModelError::Format(e.to_string()))
    }

    /// Override the worker-thread count used by subsequent refits
    /// (featurization micro-batches and the sharded SGD loop both read
    /// `cfg.threads`). A no-op for the degenerate model. Thread count
    /// never changes scores: the trainer's shard decomposition is fixed,
    /// so N-thread refit is bitwise-equal to single-thread.
    pub fn set_threads(&mut self, threads: usize) {
        if let Some(s) = &mut self.state {
            s.pipeline.cfg.threads = threads.max(1);
        }
    }

    /// Replace the representation's count-based state with one rebuilt
    /// from scratch over `d` (embeddings, classifier, and calibration
    /// untouched) — the reference implementation
    /// [`FittedHoloDetect::apply_delta`] is held bitwise-equal to, and
    /// how an adaptive refit folds repaired cells into the reference.
    ///
    /// # Errors
    /// [`ModelError::Degenerate`] for a model with no fitted state.
    pub fn rebuild_representation_at(&mut self, d: &Dataset) -> Result<(), ModelError> {
        let Some(s) = &mut self.state else {
            return Err(ModelError::Degenerate {
                method: self.method.to_owned(),
            });
        };
        s.pipeline.featurizer = s.pipeline.featurizer.rebuilt_at(d);
        Ok(())
    }

    /// Persist the fitted model to a versioned binary artifact file.
    /// The artifact is self-contained: reloading it in a fresh process
    /// ([`FittedHoloDetect::load`]) reproduces scores bit for bit.
    pub fn save(&self, path: &Path) -> Result<(), ModelError> {
        let mut w = BufWriter::new(File::create(path)?);
        self.save_to(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// [`FittedHoloDetect::save`] into any writer (the streaming refit
    /// path snapshots models into memory without touching disk).
    pub fn save_to<W: Write>(&self, w: &mut W) -> Result<(), ModelError> {
        let mut w = w;
        w.write_all(MAGIC)?;
        binio::write_u32(&mut w, FORMAT_VERSION)?;
        binio::write_str(&mut w, self.method)?;
        binio::write_bool(&mut w, self.state.is_some())?;
        if let Some(s) = &self.state {
            write_config(&mut w, &s.pipeline.cfg)?;
            binio::write_u64(&mut w, s.pipeline.seed)?;
            s.pipeline.featurizer.write_to(&mut w)?;
            write_examples(&mut w, &s.examples)?;
            write_examples(&mut w, &s.holdout)?;
            binio::write_bool(&mut w, s.tune.is_some())?;
            if let Some((t, weights)) = &s.tune {
                write_examples(&mut w, t)?;
                binio::write_usize(&mut w, weights.len())?;
                for &x in weights {
                    binio::write_f64(&mut w, x)?;
                }
            }
            write_model_params(&mut w, &s.model)?;
            binio::write_f32(&mut w, s.platt.a)?;
            binio::write_f32(&mut w, s.platt.b)?;
            binio::write_f64(&mut w, s.threshold)?;
        }
        Ok(())
    }

    /// Load an artifact written by [`FittedHoloDetect::save`].
    ///
    /// # Errors
    ///
    /// [`ModelError::Format`] for a wrong magic, an unsupported format
    /// version, or internally inconsistent contents;
    /// [`ModelError::Io`] for read failures (including truncation).
    pub fn load(path: &Path) -> Result<Self, ModelError> {
        let mut r = BufReader::new(File::open(path)?);
        Self::load_from(&mut r)
    }

    /// [`FittedHoloDetect::load`] from any reader (the streaming refit
    /// path clones models through an in-memory snapshot).
    pub fn load_from<R: Read>(r: &mut R) -> Result<Self, ModelError> {
        let mut r = r;
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(ModelError::Format("not a HoloDetect artifact file".into()));
        }
        let version = binio::read_u32(&mut r)?;
        if version != FORMAT_VERSION {
            return Err(ModelError::Format(format!(
                "unsupported artifact format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let method = intern_method(&binio::read_str(&mut r)?)?;
        if !binio::read_bool(&mut r)? {
            return Ok(FittedHoloDetect::degenerate(method));
        }
        let cfg = read_config(&mut r)?;
        let seed = binio::read_u64(&mut r)?;
        let featurizer = Featurizer::read_from(&mut r)?;
        let pipeline = Pipeline::from_parts(cfg, featurizer, seed);
        let examples = read_examples(&mut r)?;
        let holdout = read_examples(&mut r)?;
        let tune = if binio::read_bool(&mut r)? {
            let t = read_examples(&mut r)?;
            let n = binio::read_usize(&mut r)?;
            let mut weights = Vec::with_capacity(binio::bounded_cap(n, 8));
            for _ in 0..n {
                weights.push(binio::read_f64(&mut r)?);
            }
            if weights.len() != t.len() {
                return Err(ModelError::Format("tuning weights arity mismatch".into()));
            }
            Some((t, weights))
        } else {
            None
        };
        // Rebuild the model skeleton exactly as `train_model` does, then
        // overwrite every parameter with the saved weights.
        let mut model = WideDeepModel::with_branch_style(
            pipeline.featurizer.layout().clone(),
            pipeline.cfg.hidden_dim,
            pipeline.cfg.dropout,
            seed,
            pipeline.cfg.branch_style,
        );
        read_model_params(&mut r, &mut model)?;
        let platt = PlattScaler {
            a: binio::read_f32(&mut r)?,
            b: binio::read_f32(&mut r)?,
        };
        let threshold = binio::read_f64(&mut r)?;
        Ok(FittedHoloDetect {
            method,
            state: Some(ModelArtifact {
                pipeline,
                examples,
                holdout,
                tune,
                model,
                platt,
                threshold,
            }),
        })
    }
}

impl TrainedModel for FittedHoloDetect {
    /// Platt-calibrated error probability per cell of `data` (§4.2) —
    /// the fit-time dataset or any schema-compatible batch.
    fn score_batch(&self, data: &Dataset, cells: &[CellId]) -> Result<Vec<f64>, ModelError> {
        match &self.state {
            None => {
                ModelError::check_cells(data, cells)?;
                Ok(vec![0.0; cells.len()])
            }
            Some(s) => {
                ModelError::check_schema(s.pipeline.reference().schema(), data)?;
                ModelError::check_cells(data, cells)?;
                if cells.is_empty() {
                    return Ok(Vec::new());
                }
                let x = s.pipeline.featurize_cells(data, cells);
                Ok(s.pipeline
                    .predict_proba(&s.model, &s.platt, &x)
                    .into_iter()
                    .map(f64::from)
                    .collect())
            }
        }
    }

    fn default_threshold(&self) -> f64 {
        self.threshold()
    }
}

/// Map a deserialized method name back to the `'static` strategy name.
fn intern_method(name: &str) -> Result<&'static str, ModelError> {
    for known in ["AUG", "SuperL", "SemiL", "ActiveL", "Resampling"] {
        if name == known {
            return Ok(known);
        }
    }
    Err(ModelError::Format(format!(
        "unknown method name {name:?} in artifact"
    )))
}

fn write_config<W: Write>(w: &mut W, cfg: &HoloDetectConfig) -> io::Result<()> {
    binio::write_usize(w, cfg.epochs)?;
    binio::write_usize(w, cfg.batch_size)?;
    binio::write_f32(w, cfg.lr)?;
    binio::write_usize(w, cfg.hidden_dim)?;
    binio::write_f32(w, cfg.dropout)?;
    binio::write_f64(w, cfg.holdout_frac)?;
    binio::write_usize(w, cfg.platt_epochs)?;
    binio::write_f32(w, cfg.decision_threshold)?;
    binio::write_f64(w, cfg.augment.alpha)?;
    binio::write_f64(w, cfg.augment.temperature)?;
    binio::write_u8(
        w,
        match cfg.augment.strategy {
            AugmentStrategy::Learned => 0,
            AugmentStrategy::NoPolicy => 1,
            AugmentStrategy::Random => 2,
        },
    )?;
    binio::write_u64(w, cfg.augment.seed)?;
    binio::write_usize(w, cfg.augment.max_attempt_factor)?;
    cfg.features.write_to(w)?;
    binio::write_usize(w, cfg.min_error_examples)?;
    binio::write_u8(
        w,
        match cfg.branch_style {
            BranchStyle::Highway => 0,
            BranchStyle::PlainDense => 1,
        },
    )?;
    binio::write_usize(w, cfg.threads)?;
    binio::write_u64(w, cfg.seed)
}

fn read_config<R: Read>(r: &mut R) -> Result<HoloDetectConfig, ModelError> {
    let epochs = binio::read_usize(r)?;
    let batch_size = binio::read_usize(r)?;
    let lr = binio::read_f32(r)?;
    let hidden_dim = binio::read_usize(r)?;
    let dropout = binio::read_f32(r)?;
    // Checked here, not by the dropout layer's assert while the model
    // skeleton is built (NaN fails the range test too).
    if !(0.0..1.0).contains(&dropout) {
        return Err(ModelError::Format(format!(
            "dropout {dropout} outside [0, 1)"
        )));
    }
    let holdout_frac = binio::read_f64(r)?;
    let platt_epochs = binio::read_usize(r)?;
    let decision_threshold = binio::read_f32(r)?;
    // Struct literal fields evaluate in source order, matching the
    // write order above.
    let augment = holo_channel::AugmentConfig {
        alpha: binio::read_f64(r)?,
        temperature: binio::read_f64(r)?,
        strategy: match binio::read_u8(r)? {
            0 => AugmentStrategy::Learned,
            1 => AugmentStrategy::NoPolicy,
            2 => AugmentStrategy::Random,
            t => return Err(ModelError::Format(format!("bad augment strategy tag {t}"))),
        },
        seed: binio::read_u64(r)?,
        max_attempt_factor: binio::read_usize(r)?,
    };
    let features = holo_features::FeatureConfig::read_from(r)?;
    let min_error_examples = binio::read_usize(r)?;
    let branch_style = match binio::read_u8(r)? {
        0 => BranchStyle::Highway,
        1 => BranchStyle::PlainDense,
        t => return Err(ModelError::Format(format!("bad branch style tag {t}"))),
    };
    Ok(HoloDetectConfig {
        epochs,
        batch_size,
        lr,
        hidden_dim,
        dropout,
        holdout_frac,
        platt_epochs,
        decision_threshold,
        augment,
        features,
        min_error_examples,
        branch_style,
        threads: binio::read_usize(r)?,
        seed: binio::read_u64(r)?,
    })
}

fn write_examples<W: Write>(w: &mut W, xs: &[TrainExample]) -> io::Result<()> {
    binio::write_usize(w, xs.len())?;
    for e in xs {
        binio::write_u32(w, e.cell.tuple)?;
        binio::write_u32(w, e.cell.attr)?;
        binio::write_str(w, &e.value)?;
        binio::write_u8(w, u8::from(e.label.is_error()))?;
    }
    Ok(())
}

fn read_examples<R: Read>(r: &mut R) -> io::Result<Vec<TrainExample>> {
    let n = binio::read_usize(r)?;
    let mut out = Vec::with_capacity(binio::bounded_cap(n, 48));
    for _ in 0..n {
        let tuple = binio::read_u32(r)? as usize;
        let attr = binio::read_u32(r)? as usize;
        let value = binio::read_str(r)?;
        let label = match binio::read_u8(r)? {
            0 => Label::Correct,
            1 => Label::Error,
            t => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad label tag {t}"),
                ))
            }
        };
        out.push(TrainExample {
            cell: CellId::new(tuple, attr),
            value,
            label,
        });
    }
    Ok(out)
}

fn write_model_params<W: Write>(w: &mut W, model: &WideDeepModel) -> io::Result<()> {
    let mut n = 0usize;
    model.for_each_param(|_| n += 1);
    binio::write_usize(w, n)?;
    let mut res: io::Result<()> = Ok(());
    model.for_each_param(|p| {
        if res.is_err() {
            return;
        }
        res = (|| {
            binio::write_usize(w, p.value.rows())?;
            binio::write_usize(w, p.value.cols())?;
            binio::write_f32_slice(w, p.value.data())
        })();
    });
    res
}

#[allow(clippy::needless_range_loop)]
fn read_model_params<R: Read>(r: &mut R, model: &mut WideDeepModel) -> Result<(), ModelError> {
    let mut expected = 0usize;
    model.for_each_param(|_| expected += 1);
    let n = binio::read_usize(r)?;
    if n != expected {
        return Err(ModelError::Format(format!(
            "artifact has {n} parameter tensors, model skeleton expects {expected}"
        )));
    }
    let mut res: Result<(), ModelError> = Ok(());
    model.for_each_param_mut(|p| {
        if res.is_err() {
            return;
        }
        res = (|| {
            let rows = binio::read_usize(r)?;
            let cols = binio::read_usize(r)?;
            let data = binio::read_f32_slice(r)?;
            if (rows, cols) != p.value.shape() || data.len() != rows * cols {
                return Err(ModelError::Format(format!(
                    "parameter shape {rows}x{cols} disagrees with skeleton {:?}",
                    p.value.shape()
                )));
            }
            *p = Param::new(Matrix::from_vec(rows, cols, data));
            Ok(())
        })();
    });
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::HoloDetect;
    use holo_data::{DatasetBuilder, GroundTruth, Schema};
    use holo_eval::FitContext;

    fn world() -> (Dataset, GroundTruth) {
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
        (dirty, truth)
    }

    fn fitted(dirty: &Dataset, truth: &GroundTruth) -> FittedHoloDetect {
        fitted_under(dirty, truth, &[])
    }

    fn fitted_under(
        dirty: &Dataset,
        truth: &GroundTruth,
        constraints: &[holo_constraints::DenialConstraint],
    ) -> FittedHoloDetect {
        let mut cfg = HoloDetectConfig::fast();
        cfg.epochs = 10;
        let train = truth.label_tuples(dirty, &(0..20).collect::<Vec<_>>());
        let ctx = FitContext {
            dirty,
            train: &train,
            sampling: None,
            constraints,
            seed: 3,
        };
        HoloDetect::new(cfg).fit_model(&ctx)
    }

    /// `bytes` with the first occurrence of `old` overwritten by `new`
    /// (of the same length).
    fn splice(bytes: &[u8], old: &[u8], new: &[u8]) -> Vec<u8> {
        assert_eq!(old.len(), new.len());
        let at = bytes
            .windows(old.len())
            .position(|w| w == old)
            .expect("pattern occurs in the artifact");
        let mut out = bytes.to_vec();
        out[at..at + new.len()].copy_from_slice(new);
        out
    }

    #[test]
    fn mutated_dropout_and_constraint_attr_are_typed_errors() {
        use holo_constraints::{parse_constraints, Operand};
        let (dirty, truth) = world();
        let dcs = parse_constraints("Zip -> City", dirty.schema()).unwrap();
        let model = fitted_under(&dirty, &truth, &dcs);
        let mut bytes = Vec::new();
        model.save_to(&mut bytes).unwrap();
        let load = |b: Vec<u8>| FittedHoloDetect::load_from(&mut std::io::Cursor::new(b));
        let pipeline = &model.artifact().unwrap().pipeline;

        // A dropout outside [0, 1) once built the model skeleton into
        // the dropout layer's assert.
        let mut cfg = pipeline.cfg.clone();
        let mut old = Vec::new();
        write_config(&mut old, &cfg).unwrap();
        for bad in [2.0, -0.5, 1.0, f32::NAN] {
            cfg.dropout = bad;
            let mut new = Vec::new();
            write_config(&mut new, &cfg).unwrap();
            let res = load(splice(&bytes, &old, &new));
            assert!(matches!(res, Err(ModelError::Format(_))), "dropout {bad}");
        }

        // A constraint attribute past the schema once indexed out of
        // bounds while the violation engine was built.
        let dc = &pipeline.featurizer.constraints()[0];
        let mut bad = dc.clone();
        bad.predicates[0].left = Operand::Var {
            tuple: 0,
            attr: 1000,
        };
        let (mut old, mut new) = (Vec::new(), Vec::new());
        dc.write_to(&mut old).unwrap();
        bad.write_to(&mut new).unwrap();
        assert!(load(splice(&bytes, &old, &new)).is_err());

        // The unmutated bytes still load.
        assert!(load(bytes).is_ok());
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("holo-fitted-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip_is_bitwise_identical() {
        let (dirty, truth) = world();
        let model = fitted(&dirty, &truth);
        let cells: Vec<CellId> = dirty.cell_ids().take(40).collect();
        let before = model.score_batch(&dirty, &cells).unwrap();

        let path = tmp_path("roundtrip.bin");
        model.save(&path).unwrap();
        let loaded = FittedHoloDetect::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.method(), model.method());
        assert_eq!(loaded.threshold(), model.threshold());
        assert_eq!(loaded.n_train_examples(), model.n_train_examples());
        let after = loaded.score_batch(&dirty, &cells).unwrap();
        assert_eq!(
            before.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            after.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "reloaded artifact scores are not bitwise-identical"
        );
    }

    #[test]
    fn degenerate_model_roundtrips_and_refit_errors() {
        let deg = FittedHoloDetect::degenerate("AUG");
        let path = tmp_path("degenerate.bin");
        deg.save(&path).unwrap();
        let loaded = FittedHoloDetect::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.artifact().is_none());
        assert_eq!(loaded.method(), "AUG");
        // refit_with on a degenerate model is a typed error, not a panic.
        let Err(err) = loaded.refit_with(Vec::new()) else {
            panic!("degenerate refit should error")
        };
        assert!(matches!(err, ModelError::Degenerate { .. }));
    }

    #[test]
    fn load_rejects_wrong_magic_and_version() {
        let path = tmp_path("badmagic.bin");
        std::fs::write(&path, b"NOTANARTIFACT___").unwrap();
        assert!(matches!(
            FittedHoloDetect::load(&path),
            Err(ModelError::Format(_))
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        binio::write_u32(&mut buf, FORMAT_VERSION + 9).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let Err(err) = FittedHoloDetect::load(&path) else {
            panic!("future version should be rejected")
        };
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn schema_mismatch_scores_are_an_error() {
        let (dirty, truth) = world();
        let model = fitted(&dirty, &truth);
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "Town"]));
        b.push_row(&["60612", "Chicago"]);
        let other = b.build();
        assert!(matches!(
            model.score_batch(&other, &[CellId::new(0, 0)]),
            Err(ModelError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn apply_delta_scores_bitwise_equal_to_rebuilt_representation() {
        use holo_data::DeltaOp;
        let (dirty, truth) = world();
        let live = fitted(&dirty, &truth);
        // Two independent copies via an in-memory snapshot (also
        // exercising save_to/load_from).
        let mut buf = Vec::new();
        live.save_to(&mut buf).unwrap();
        let mut live = FittedHoloDetect::load_from(&mut std::io::Cursor::new(&buf)).unwrap();
        let mut baseline = FittedHoloDetect::load_from(&mut std::io::Cursor::new(&buf)).unwrap();

        let ops = [
            DeltaOp::Append {
                values: vec!["60612".into(), "Chicagoland".into()],
            },
            DeltaOp::Append {
                values: vec!["94103".into(), "SF".into()],
            },
            DeltaOp::Append {
                values: vec!["60612".into(), "Chicago".into()],
            },
        ];
        let mut replica = baseline.artifact().unwrap().reference().clone();
        for op in &ops {
            live.apply_delta(op).unwrap();
            replica.apply_delta(op).unwrap();
        }
        baseline.rebuild_representation_at(&replica).unwrap();

        // Scoring the grown reference and a foreign batch must agree bit
        // for bit between incremental maintenance and a full rebuild.
        let reference = live.artifact().unwrap().reference().clone();
        let cells: Vec<CellId> = reference.cell_ids().collect();
        let a = live.score_batch(&reference, &cells).unwrap();
        let b = baseline.score_batch(&reference, &cells).unwrap();
        assert_eq!(
            a.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );
        let mut fb = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        fb.push_row(&["60612", "Chicagoland"]);
        fb.push_row(&["94103", "Berkeley"]);
        let foreign = fb.build();
        let fc: Vec<CellId> = foreign.cell_ids().collect();
        let a = live.score_batch(&foreign, &fc).unwrap();
        let b = baseline.score_batch(&foreign, &fc).unwrap();
        assert_eq!(
            a.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn appends_change_scores_and_refit_survives_them() {
        use holo_data::DeltaOp;
        let (dirty, truth) = world();
        let mut model = fitted(&dirty, &truth);
        let n_examples = model.n_train_examples();

        // A foreign tuple whose value is unseen at fit time…
        let mut fb = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        fb.push_row(&["60612", "Streeterville"]);
        let foreign = fb.build();
        let before = model.score_batch(&foreign, &[CellId::new(0, 1)]).unwrap()[0];
        // …streamed into the reference thirty times becomes normal.
        for _ in 0..30 {
            model
                .apply_delta(&DeltaOp::Append {
                    values: vec!["60612".into(), "Streeterville".into()],
                })
                .unwrap();
        }
        let after = model.score_batch(&foreign, &[CellId::new(0, 1)]).unwrap()[0];
        assert_ne!(
            before.to_bits(),
            after.to_bits(),
            "ingest must be visible in scores"
        );

        // Appends move no row: the example set is untouched, and
        // refit_with still runs on it over the grown reference.
        assert_eq!(model.n_train_examples(), n_examples);
        let refitted = model.refit_with(Vec::new()).unwrap();
        let cells: Vec<CellId> = refitted
            .artifact()
            .unwrap()
            .reference()
            .cell_ids()
            .take(20)
            .collect();
        let reference = refitted.artifact().unwrap().reference().clone();
        let scores = refitted.score_batch(&reference, &cells).unwrap();
        assert!(scores.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn degenerate_apply_delta_is_typed() {
        let mut deg = FittedHoloDetect::degenerate("AUG");
        assert!(matches!(
            deg.apply_delta(&holo_data::DeltaOp::Append {
                values: vec!["60612".into(), "Chicago".into()]
            }),
            Err(ModelError::Degenerate { .. })
        ));
    }

    #[test]
    fn scores_unseen_dataset_via_reference_statistics() {
        let (dirty, truth) = world();
        let model = fitted(&dirty, &truth);
        // A fresh batch the model never saw, same schema.
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        b.push_row(&["60612", "Chicago"]); // consistent with reference
        b.push_row(&["60612", "Chixcago"]); // typo'd unseen value
        let batch = b.build();
        let cells: Vec<CellId> = batch.cell_ids().collect();
        let scores = model.score_batch(&batch, &cells).unwrap();
        assert_eq!(scores.len(), 4);
        assert!(scores.iter().all(|p| (0.0..=1.0).contains(p)));
        // The typo'd city must look more suspicious than the clean one.
        assert!(
            scores[3] > scores[1],
            "typo {:.4} should outscore clean {:.4}",
            scores[3],
            scores[1]
        );
    }
}
