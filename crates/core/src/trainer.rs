//! The shared training pipeline: channel learning, augmentation,
//! featurization, joint training, and Platt calibration.

use crate::config::HoloDetectConfig;
use crate::model::{matrix_from_rows, WideDeepModel};
use holo_channel::{augment, augment_to_ratio, NaiveBayesRepair, Policy, RepairConfig};
use holo_constraints::DenialConstraint;
use holo_data::{CellId, Dataset, Label, TrainingSet};
use holo_features::Featurizer;
use holo_nn::{Matrix, PlattScaler};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One training example: a cell, the value to featurize it with (observed
/// or synthetic), and its label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainExample {
    /// The cell providing tuple context.
    pub cell: CellId,
    /// The value the cell is featurized with.
    pub value: String,
    /// Correct or error.
    pub label: Label,
}

impl TrainExample {
    /// Convert the labeled cells of `T` into train examples (observed
    /// values).
    pub fn from_training_set(t: &TrainingSet) -> Vec<TrainExample> {
        t.examples()
            .iter()
            .map(|ex| TrainExample {
                cell: ex.cell,
                value: ex.observed.clone(),
                label: ex.label(),
            })
            .collect()
    }
}

/// The fitted pipeline for one detection run. Fully owned — the
/// configuration, the representation model `Q`, and (inside the
/// featurizer) a copy of the reference dataset — so a fitted detector is
/// `'static`: it outlives the `HoloDetect` instance that created it
/// *and* the dataset it was fitted on, and can featurize cells of any
/// schema-compatible dataset handed in later.
pub struct Pipeline {
    /// Configuration (owned — cloned at fit time).
    pub cfg: HoloDetectConfig,
    /// The fitted representation model `Q` (owns the reference dataset).
    pub featurizer: Featurizer,
    /// The run seed (combined with `cfg.seed`).
    pub seed: u64,
}

impl Pipeline {
    /// Fit the representation over the dirty dataset (the pipeline keeps
    /// its own copy as the reference).
    pub fn fit(
        cfg: &HoloDetectConfig,
        dirty: &Dataset,
        constraints: &[DenialConstraint],
        run_seed: u64,
    ) -> Self {
        let featurizer = Featurizer::fit(dirty, constraints, cfg.features.clone());
        let seed = cfg.seed.wrapping_add(run_seed);
        Pipeline {
            cfg: cfg.clone(),
            featurizer,
            seed,
        }
    }

    /// Rebuild a pipeline from deserialized parts (artifact loading).
    pub(crate) fn from_parts(cfg: HoloDetectConfig, featurizer: Featurizer, seed: u64) -> Self {
        Pipeline {
            cfg,
            featurizer,
            seed,
        }
    }

    /// The reference dataset the pipeline was fitted over.
    pub fn reference(&self) -> &Dataset {
        self.featurizer.reference()
    }

    /// Split `T` into (train, holdout) after a seeded shuffle — the 10%
    /// holdout drives hyper-parameter decisions and Platt scaling (§6.1).
    pub fn split_holdout(&self, t: &TrainingSet) -> (TrainingSet, TrainingSet) {
        let mut examples = t.examples().to_vec();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x5111));
        examples.shuffle(&mut rng);
        let mut shuffled = TrainingSet::new();
        for ex in examples {
            shuffled.insert(ex);
        }
        shuffled.split_holdout(self.cfg.holdout_frac)
    }

    /// Learn the noisy channel from `T`'s error pairs, topping up with
    /// Naive-Bayes weak supervision when errors are scarce (§5.4).
    pub fn learn_channel(&self, t: &TrainingSet) -> Policy {
        let mut pairs = t.error_pairs();
        if pairs.len() < self.cfg.min_error_examples {
            let nb = NaiveBayesRepair::build(self.reference(), RepairConfig::default());
            pairs.extend(nb.harvest_examples(self.reference()));
        }
        Policy::from_pairs(&pairs)
    }

    /// Algorithm 4 over the correct examples of `t`, producing synthetic
    /// error [`TrainExample`]s in their source cells' tuple contexts.
    /// `target_ratio` forces the Figure 6 error ratio instead of
    /// balancing.
    pub fn augment_examples(
        &self,
        t: &TrainingSet,
        policy: &Policy,
        target_ratio: Option<f64>,
    ) -> Vec<TrainExample> {
        let corrects: Vec<(CellId, String)> = t
            .examples()
            .iter()
            .filter(|e| !e.label().is_error())
            .map(|e| (e.cell, e.observed.clone()))
            .collect();
        let values: Vec<String> = corrects.iter().map(|(_, v)| v.clone()).collect();
        let n_errors = t.examples().len() - corrects.len();
        let swap_pool = self.swap_pool();
        let mut aug_cfg = self.cfg.augment.clone();
        aug_cfg.seed = self.seed.wrapping_add(0xA06);
        let generated = match target_ratio {
            Some(r) => augment_to_ratio(&values, n_errors, r, policy, &swap_pool, &aug_cfg),
            None => augment(&values, n_errors, policy, &swap_pool, &aug_cfg),
        };
        generated
            .into_iter()
            .map(|g| TrainExample {
                cell: corrects[g.source].0,
                value: g.dirty,
                label: Label::Error,
            })
            .collect()
    }

    /// Featurize training examples (cells of the reference dataset) into
    /// a matrix plus 0/1 targets.
    pub fn featurize(&self, examples: &[TrainExample]) -> (Matrix, Vec<usize>) {
        let cells: Vec<(CellId, Option<String>)> = examples
            .iter()
            .map(|e| {
                let observed = self.reference().cell_value(e.cell);
                if e.value == observed {
                    (e.cell, None)
                } else {
                    (e.cell, Some(e.value.clone()))
                }
            })
            .collect();
        let rows = self
            .featurizer
            .features_batch(self.reference(), &cells, self.cfg.threads);
        let targets = examples
            .iter()
            .map(|e| usize::from(e.label.is_error()))
            .collect();
        (matrix_from_rows(&rows), targets)
    }

    /// Featurize plain cells (observed values) of `data` — the reference
    /// dataset or any later schema-compatible batch.
    pub fn featurize_cells(&self, data: &Dataset, cells: &[CellId]) -> Matrix {
        let work: Vec<(CellId, Option<String>)> = cells.iter().map(|&c| (c, None)).collect();
        let rows = self
            .featurizer
            .features_batch(data, &work, self.cfg.threads);
        matrix_from_rows(&rows)
    }

    /// Train the wide-and-deep model on featurized examples, sharding
    /// each mini-batch over `cfg.threads` workers (bitwise-identical to
    /// single-threaded training at the same seed).
    pub fn train_model(&self, x: &Matrix, targets: &[usize]) -> WideDeepModel {
        let mut model = WideDeepModel::with_branch_style(
            self.featurizer.layout().clone(),
            self.cfg.hidden_dim,
            self.cfg.dropout,
            self.seed,
            self.cfg.branch_style,
        );
        model.train_threaded(
            x,
            targets,
            self.cfg.epochs,
            self.cfg.batch_size,
            self.cfg.lr,
            self.cfg.threads,
        );
        model
    }

    /// Platt-scale on holdout examples; identity when the holdout is
    /// empty, single-class, or the fit came out non-monotone (negative
    /// slope), which would invert the score ordering.
    pub fn calibrate(&self, model: &WideDeepModel, holdout: &[TrainExample]) -> PlattScaler {
        if holdout.is_empty() {
            return PlattScaler::identity();
        }
        let (x, targets) = self.featurize(holdout);
        self.calibrate_scores(&model.scores(&x), &targets)
    }

    /// [`Pipeline::calibrate`] from pre-computed holdout scores — lets
    /// a caller that already featurized and scored the holdout reuse
    /// that work.
    pub fn calibrate_scores(&self, scores: &[f32], targets: &[usize]) -> PlattScaler {
        if scores.is_empty() {
            return PlattScaler::identity();
        }
        let labels: Vec<bool> = targets.iter().map(|&t| t == 1).collect();
        if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
            return PlattScaler::identity();
        }
        let platt = PlattScaler::fit(scores, &labels, self.cfg.platt_epochs);
        if platt.a <= 0.0 {
            PlattScaler::identity()
        } else {
            platt
        }
    }

    /// Platt-calibrated error probabilities for featurized cells — the
    /// scoring rule a fitted model serves.
    pub fn predict_proba(
        &self,
        model: &WideDeepModel,
        platt: &PlattScaler,
        x: &Matrix,
    ) -> Vec<f32> {
        model.scores(x).into_iter().map(|s| platt.prob(s)).collect()
    }

    /// Tune the decision threshold on the holdout (the §6.1 "hold-out
    /// set used for hyper parameter tuning"): grid-search the calibrated
    /// probability threshold maximizing weighted holdout F1. Falls back
    /// to the configured default when the holdout is empty or
    /// single-class. Weights let a tuning set whose class mix differs
    /// from the deployment distribution (e.g. a holdout balanced with
    /// synthetic errors) stand in for it: each example contributes its
    /// weight to the weighted confusion counts, so the selected
    /// threshold maximizes the *estimated deployment* F1.
    pub fn select_threshold_weighted(
        &self,
        model: &WideDeepModel,
        platt: &PlattScaler,
        examples: &[TrainExample],
        weights: &[f64],
    ) -> f64 {
        assert_eq!(examples.len(), weights.len(), "weights arity");
        if examples.is_empty() {
            return f64::from(self.cfg.decision_threshold);
        }
        let (x, targets) = self.featurize(examples);
        let probs = self.predict_proba(model, platt, &x);
        self.select_threshold_probs(&probs, &targets, weights)
    }

    /// [`Pipeline::select_threshold_weighted`] from pre-computed
    /// calibrated probabilities — lets a caller that already scored the
    /// tuning set reuse that work.
    pub fn select_threshold_probs(&self, probs: &[f32], targets: &[usize], weights: &[f64]) -> f64 {
        assert_eq!(probs.len(), weights.len(), "weights arity");
        if probs.is_empty() || targets.iter().all(|&t| t == 1) || targets.iter().all(|&t| t == 0) {
            return f64::from(self.cfg.decision_threshold);
        }
        // Grid-search calibrated thresholds; ties keep the lowest
        // (recall-leaning) cut, matching the error-detection emphasis.
        let mut best = (f64::from(self.cfg.decision_threshold), -1.0f64);
        for step in 1..20 {
            let thr = f64::from(step) * 0.05;
            let (mut tp, mut fp, mut fn_) = (0.0f64, 0.0f64, 0.0f64);
            for ((&p, &t), &w) in probs.iter().zip(targets).zip(weights) {
                match (f64::from(p) >= thr, t == 1) {
                    (true, true) => tp += w,
                    (true, false) => fp += w,
                    (false, true) => fn_ += w,
                    (false, false) => {}
                }
            }
            let f1 = if tp == 0.0 {
                0.0
            } else {
                2.0 * tp / (2.0 * tp + fp + fn_)
            };
            if f1 > best.1 {
                best = (thr, f1);
            }
        }
        best.0
    }

    /// Final labels from probabilities at a threshold.
    pub fn labels_from_proba(&self, probs: &[f32], threshold: f64) -> Vec<Label> {
        probs
            .iter()
            .map(|&p| {
                if f64::from(p) >= threshold {
                    Label::Error
                } else {
                    Label::Correct
                }
            })
            .collect()
    }

    /// A pool of alternative values for the random-swap strategy: one
    /// representative per distinct value, capped for memory.
    fn swap_pool(&self) -> Vec<String> {
        let d = self.reference();
        let mut pool = Vec::new();
        'outer: for a in 0..d.n_attrs() {
            let mut seen = std::collections::HashSet::new();
            for &s in d.column(a) {
                if seen.insert(s) {
                    pool.push(d.pool().resolve(s).to_owned());
                    if pool.len() >= 1000 {
                        break 'outer;
                    }
                }
            }
        }
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_data::{DatasetBuilder, GroundTruth, Schema};

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

    fn training_set(dirty: &Dataset, truth: &GroundTruth, tuples: &[usize]) -> TrainingSet {
        truth.label_tuples(dirty, tuples)
    }

    #[test]
    fn channel_learned_from_labeled_errors() {
        let (dirty, truth) = world();
        let cfg = HoloDetectConfig::fast();
        let t = training_set(&dirty, &truth, &(0..10).collect::<Vec<_>>());
        let p = Pipeline::fit(&cfg, &dirty, &[], 0);
        let policy = p.learn_channel(&t);
        assert!(!policy.is_empty());
        // The x-typo channel should be represented.
        assert!(policy
            .entries()
            .iter()
            .any(|(t, _)| t.to == "x" || t.to.contains('x')));
    }

    #[test]
    fn augmentation_balances_examples() {
        let (dirty, truth) = world();
        let cfg = HoloDetectConfig::fast();
        let tuples: Vec<usize> = (0..20).collect();
        let t = training_set(&dirty, &truth, &tuples);
        let p = Pipeline::fit(&cfg, &dirty, &[], 0);
        let policy = p.learn_channel(&t);
        let aug = p.augment_examples(&t, &policy, None);
        let (correct, errors) = t.class_counts();
        assert!(!aug.is_empty());
        assert!(aug.len() <= correct - errors);
        for a in &aug {
            assert_eq!(a.label, Label::Error);
            assert_ne!(a.value, dirty.cell_value(a.cell));
        }
    }

    #[test]
    fn featurize_roundtrip_dims() {
        let (dirty, truth) = world();
        let cfg = HoloDetectConfig::fast();
        let t = training_set(&dirty, &truth, &[0, 1, 2]);
        let p = Pipeline::fit(&cfg, &dirty, &[], 0);
        let examples = TrainExample::from_training_set(&t);
        let (x, y) = p.featurize(&examples);
        assert_eq!(x.rows(), examples.len());
        assert_eq!(x.cols(), p.featurizer.layout().total_dim());
        assert_eq!(y.len(), examples.len());
        assert_eq!(y.iter().sum::<usize>(), 1); // one error among labeled rows
    }

    #[test]
    fn holdout_split_respects_fraction() {
        let (dirty, truth) = world();
        let cfg = HoloDetectConfig::fast();
        let t = training_set(&dirty, &truth, &(0..20).collect::<Vec<_>>());
        let p = Pipeline::fit(&cfg, &dirty, &[], 0);
        let (train, hold) = p.split_holdout(&t);
        assert_eq!(train.len() + hold.len(), t.len());
        assert_eq!(hold.len(), (t.len() as f64 * 0.1).round() as usize);
    }

    #[test]
    fn end_to_end_small_training_run() {
        let (dirty, truth) = world();
        let mut cfg = HoloDetectConfig::fast();
        cfg.epochs = 15;
        let t = training_set(&dirty, &truth, &(0..20).collect::<Vec<_>>());
        let p = Pipeline::fit(&cfg, &dirty, &[], 0);
        let (train, hold) = p.split_holdout(&t);
        let policy = p.learn_channel(&train);
        let mut examples = TrainExample::from_training_set(&train);
        examples.extend(p.augment_examples(&train, &policy, None));
        let (x, y) = p.featurize(&examples);
        let model = p.train_model(&x, &y);
        let platt = p.calibrate(&model, &TrainExample::from_training_set(&hold));
        let eval: Vec<CellId> = (40..50)
            .flat_map(|t| [CellId::new(t, 0), CellId::new(t, 1)])
            .collect();
        let xe = p.featurize_cells(&dirty, &eval);
        let probs = p.predict_proba(&model, &platt, &xe);
        assert_eq!(probs.len(), eval.len());
        assert!(probs.iter().all(|&pr| (0.0..=1.0).contains(&pr)));
        let labels = p.labels_from_proba(&probs, 0.5);
        assert_eq!(labels.len(), eval.len());
    }
}
