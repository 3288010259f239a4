//! LR — supervised logistic regression over engineered features.
//!
//! §6.1: "a supervised logistic regression model that classifies cells
//! as erroneous or correct. The features of this model correspond to
//! pairwise co-occurrence statistics of attribute values and constraint
//! violations." Its consistently poor Table 2 performance is the paper's
//! argument for representation learning over engineered linear features.

use holo_constraints::ViolationEngine;
use holo_data::{CellId, Dataset};
use holo_eval::{ConstantScore, Detector, FitContext, ModelError, TrainedModel};
use holo_features::wide::{CoocModel, EmpiricalModel};
use holo_nn::{Adam, Dense, Matrix, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The logistic-regression baseline.
#[derive(Debug)]
pub struct LogisticRegression {
    /// Training epochs over `T`.
    pub epochs: usize,
    /// Learning rate for ADAM.
    pub lr: f32,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            epochs: 200,
            lr: 0.05,
        }
    }
}

struct LrFeatures {
    cooc: CoocModel,
    empirical: Vec<EmpiricalModel>,
    violations: Option<ViolationEngine>,
    n_constraints: usize,
    /// The fit-time dataset, owned: value statistics and violation
    /// indexes are anchored here while tuple context comes from the
    /// dataset being scored.
    reference: Dataset,
}

impl LrFeatures {
    fn fit(d: &Dataset, constraints: &[holo_constraints::DenialConstraint]) -> Self {
        let violations = (!constraints.is_empty()).then(|| ViolationEngine::build(d, constraints));
        let n_constraints = violations.as_ref().map_or(0, ViolationEngine::len);
        LrFeatures {
            cooc: CoocModel::fit(d, 1.0),
            empirical: (0..d.n_attrs())
                .map(|a| EmpiricalModel::fit(d, a))
                .collect(),
            violations,
            n_constraints,
            reference: d.clone(),
        }
    }

    fn dim(&self) -> usize {
        self.reference.n_attrs().saturating_sub(1) + 1 + self.n_constraints
    }

    /// Features of cell `cell` of `data` holding `value`. Violation
    /// counts exclude the cell's own row only when `data` is the owned
    /// reference (compared by pointer); every other dataset is foreign.
    fn vector(&self, data: &Dataset, cell: CellId, value: &str) -> Vec<f32> {
        let (t, a) = (cell.t(), cell.a());
        let mut v = self.cooc.features(data, t, a, value);
        v.push(self.empirical[a].prob(value));
        if let Some(engine) = &self.violations {
            let mut values = data.tuple_values(t);
            values[a] = value;
            let own = std::ptr::eq(data, &self.reference).then_some(t);
            let counts = engine.vector(&self.reference, &values, own);
            v.extend(counts.iter().map(|&c| (1.0 + c as f32).ln()));
        }
        v
    }
}

/// The fitted LR model: the engineered-feature extractor plus the
/// trained linear classifier — owned and `'static`, reusable over cell
/// batches of any schema-compatible dataset.
struct LrModel {
    feats: LrFeatures,
    net: Sequential,
}

impl TrainedModel for LrModel {
    fn score_batch(&self, data: &Dataset, cells: &[CellId]) -> Result<Vec<f64>, ModelError> {
        ModelError::check_schema(self.feats.reference.schema(), data)?;
        ModelError::check_cells(data, cells)?;
        if cells.is_empty() {
            return Ok(Vec::new());
        }
        let rows: Vec<Vec<f32>> = cells
            .iter()
            .map(|&c| self.feats.vector(data, c, data.cell_value(c)))
            .collect();
        let x = matrix_from(&rows, self.feats.dim());
        let p = self.net.predict_proba(&x);
        Ok((0..cells.len()).map(|i| f64::from(p.get(i, 1))).collect())
    }
}

impl Detector for LogisticRegression {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn fit(&self, ctx: &FitContext<'_>) -> Box<dyn TrainedModel> {
        let train = ctx.train;
        if train.is_empty() {
            return Box::new(ConstantScore(0.0));
        }
        let feats = LrFeatures::fit(ctx.dirty, ctx.constraints);
        // Assemble training matrix over the owned reference: training
        // cells are reference cells.
        let rows: Vec<Vec<f32>> = train
            .examples()
            .iter()
            .map(|ex| feats.vector(&feats.reference, ex.cell, &ex.observed))
            .collect();
        let targets: Vec<usize> = train
            .examples()
            .iter()
            .map(|ex| usize::from(ex.label().is_error()))
            .collect();
        let x = matrix_from(&rows, feats.dim());

        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let mut net = Sequential::new().push(Dense::new(feats.dim(), 2, &mut rng));
        let mut opt = Adam::new(self.lr);
        for _ in 0..self.epochs {
            net.train_batch(&x, &targets, &mut opt);
        }
        Box::new(LrModel { feats, net })
    }
}

fn matrix_from(rows: &[Vec<f32>], dim: usize) -> Matrix {
    let mut data = Vec::with_capacity(rows.len() * dim);
    for r in rows {
        debug_assert_eq!(r.len(), dim);
        data.extend_from_slice(r);
    }
    Matrix::from_vec(rows.len(), dim, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_data::{DatasetBuilder, GroundTruth, Label, LabeledCell, Schema, TrainingSet};

    /// A separable world: swapped City values have near-zero
    /// co-occurrence with their Zip, clean ones co-occur often.
    fn world() -> (Dataset, GroundTruth) {
        let mut cb = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for i in 0..60 {
            if i % 2 == 0 {
                cb.push_row(&["60612", "Chicago"]);
            } else {
                cb.push_row(&["53703", "Madison"]);
            }
        }
        let clean = cb.build();
        let mut dirty = clean.clone();
        for t in [0, 10, 20, 30] {
            dirty.set_value(t, 1, "Madison"); // swaps
        }
        let truth = GroundTruth::from_pair(&clean, &dirty);
        (dirty, truth)
    }

    #[test]
    fn learns_swap_detection_from_labels() {
        let (dirty, truth) = world();
        // Label 30 tuples.
        let mut train = TrainingSet::new();
        for t in 0..30 {
            for a in 0..2 {
                let cell = CellId::new(t, a);
                train.insert(LabeledCell {
                    cell,
                    observed: dirty.cell_value(cell).to_owned(),
                    truth: truth.true_value(cell, &dirty).to_owned(),
                });
            }
        }
        let eval: Vec<CellId> = (30..60)
            .flat_map(|t| (0..2).map(move |a| CellId::new(t, a)))
            .collect();
        let ctx = FitContext {
            dirty: &dirty,
            train: &train,
            sampling: None,
            constraints: &[],
            seed: 1,
        };
        let model = LogisticRegression::default().fit(&ctx);
        let scores = model.score_batch(&dirty, &eval).unwrap();
        assert!(scores.iter().all(|p| (0.0..=1.0).contains(p)));
        let labels = model
            .predict_batch(&dirty, &eval, model.default_threshold())
            .unwrap();
        let mut correct = 0;
        for (cell, label) in eval.iter().zip(&labels) {
            if *label == truth.label(*cell) {
                correct += 1;
            }
        }
        let acc = correct as f64 / eval.len() as f64;
        assert!(acc > 0.9, "LR accuracy {acc}");
    }

    #[test]
    fn empty_training_set_predicts_correct() {
        let (dirty, _) = world();
        let train = TrainingSet::new();
        let eval: Vec<CellId> = dirty.cell_ids().take(10).collect();
        let ctx = FitContext {
            dirty: &dirty,
            train: &train,
            sampling: None,
            constraints: &[],
            seed: 0,
        };
        let model = LogisticRegression::default().fit(&ctx);
        let labels = model
            .predict_batch(&dirty, &eval, model.default_threshold())
            .unwrap();
        assert!(labels.iter().all(|&l| l == Label::Correct));
    }
}
