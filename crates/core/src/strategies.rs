//! Training strategies: AUG plus the comparison paradigms of §6.1.
//!
//! Every strategy is a different way of *fitting* — they all produce a
//! [`FittedHoloDetect`] and never touch evaluation cells. The iterative
//! paradigms (SemiL, ActiveL) run their labeling loops through the
//! fitted model's explicit [`FittedHoloDetect::refit_with`] hook rather
//! than hiding retraining inside a one-shot detect call.

use crate::fitted::FittedHoloDetect;
use crate::trainer::{Pipeline, TrainExample};
use holo_data::{CellId, Label, TrainingSet};
use holo_eval::FitContext;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How the model is trained.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Data augmentation (the paper's AUG). `target_ratio` forces a
    /// specific post-augmentation error ratio (Figure 6); `None` balances
    /// classes per Algorithm 4.
    Augmentation {
        /// Forced error ratio, or `None` for class balance.
        target_ratio: Option<f64>,
    },
    /// Train on `T` only (SuperL).
    Supervised,
    /// Self-training \[64\] (SemiL): iteratively add high-confidence
    /// pseudo-labels from the unlabeled pool.
    SemiSupervised {
        /// Self-training rounds.
        rounds: usize,
        /// Minimum confidence to accept a pseudo-label.
        confidence: f32,
        /// Cap on pseudo-labels added per round.
        max_per_round: usize,
    },
    /// Uncertainty-sampling active learning \[57\] (ActiveL).
    ActiveLearning {
        /// Number of labeling loops `k`.
        loops: usize,
        /// Labels acquired per loop (paper: 50).
        per_loop: usize,
    },
    /// Minority-class oversampling, the traditional imbalance remedy
    /// compared against in Table 3.
    Resampling,
}

impl Strategy {
    /// The method name as the paper's tables print it.
    pub fn method_name(&self) -> &'static str {
        match self {
            Strategy::Augmentation { .. } => "AUG",
            Strategy::Supervised => "SuperL",
            Strategy::SemiSupervised { .. } => "SemiL",
            Strategy::ActiveLearning { .. } => "ActiveL",
            Strategy::Resampling => "Resampling",
        }
    }

    /// The paper's ActiveL setting (k loops, 50 labels per loop).
    pub fn active(loops: usize) -> Self {
        Strategy::ActiveLearning {
            loops,
            per_loop: 50,
        }
    }

    /// The paper's SemiL setting.
    pub fn semi_default() -> Self {
        Strategy::SemiSupervised {
            rounds: 3,
            confidence: 0.95,
            max_per_round: 500,
        }
    }
}

/// Run the strategy-specific training pipeline, producing a reusable
/// fitted model. Consumes the pipeline (the fitted model owns it).
pub fn fit_strategy(
    strategy: &Strategy,
    pipeline: Pipeline,
    ctx: &FitContext<'_>,
) -> FittedHoloDetect {
    let method = strategy.method_name();
    if ctx.train.is_empty() {
        return FittedHoloDetect::degenerate(method);
    }
    let (train, hold) = pipeline.split_holdout(ctx.train);
    let holdout_examples = TrainExample::from_training_set(&hold);
    let mut examples = TrainExample::from_training_set(&train);

    match strategy {
        Strategy::Augmentation { target_ratio } => {
            let policy = pipeline.learn_channel(&train);
            examples.extend(pipeline.augment_examples(&train, &policy, *target_ratio));
            // Threshold tuning set: the natural holdout plus synthetic
            // errors generated from the holdout's correct cells, weighted
            // so the class masses match the error prior estimated from T.
            let mut tune = holdout_examples.clone();
            tune.extend(pipeline.augment_examples(&hold, &policy, None));
            let (p_t, n_t) = ctx.train.class_counts();
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
            FittedHoloDetect::train(
                method,
                pipeline,
                examples,
                holdout_examples,
                Some((tune, weights)),
            )
        }
        Strategy::Supervised => train_plain(method, pipeline, examples, holdout_examples),
        Strategy::Resampling => {
            let examples = resample(examples, pipeline.seed);
            train_plain(method, pipeline, examples, holdout_examples)
        }
        Strategy::SemiSupervised {
            rounds,
            confidence,
            max_per_round,
        } => semi_supervised(
            method,
            pipeline,
            examples,
            holdout_examples,
            ctx,
            *rounds,
            *confidence,
            *max_per_round,
        ),
        Strategy::ActiveLearning { loops, per_loop } => active_learning(
            method,
            pipeline,
            examples,
            holdout_examples,
            ctx,
            *loops,
            *per_loop,
        ),
    }
}

/// Train with the holdout doubling as the (unit-weight) tuning set.
fn train_plain(
    method: &'static str,
    pipeline: Pipeline,
    examples: Vec<TrainExample>,
    holdout: Vec<TrainExample>,
) -> FittedHoloDetect {
    FittedHoloDetect::train(method, pipeline, examples, holdout, None)
}

/// Oversample the minority (error) class by cycling its examples.
fn resample(mut examples: Vec<TrainExample>, seed: u64) -> Vec<TrainExample> {
    let errors: Vec<TrainExample> = examples
        .iter()
        .filter(|e| e.label.is_error())
        .cloned()
        .collect();
    let n_correct = examples.len() - errors.len();
    if errors.is_empty() || errors.len() >= n_correct {
        return examples;
    }
    let needed = n_correct - errors.len();
    for i in 0..needed {
        examples.push(errors[i % errors.len()].clone());
    }
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x4e5));
    examples.shuffle(&mut rng);
    examples
}

#[allow(clippy::too_many_arguments)]
fn semi_supervised(
    method: &'static str,
    pipeline: Pipeline,
    base: Vec<TrainExample>,
    holdout: Vec<TrainExample>,
    ctx: &FitContext<'_>,
    rounds: usize,
    confidence: f32,
    max_per_round: usize,
) -> FittedHoloDetect {
    // The unlabeled pool: a deterministic sample of the dataset's cells
    // outside `T` (fitting never looks at evaluation batches).
    let mut pool: Vec<CellId> = ctx
        .dirty
        .cell_ids()
        .filter(|&c| !ctx.train.contains(c))
        .collect();
    let mut rng = StdRng::seed_from_u64(pipeline.seed.wrapping_add(0x5e81));
    pool.shuffle(&mut rng);
    pool.truncate((max_per_round * 4).max(1000).min(pool.len()));
    // Featurize against the pipeline's owned reference (identical to
    // ctx.dirty at fit time): its cells are reference cells, whose
    // violation counts exclude their own row.
    let pool_x = pipeline.featurize_cells(pipeline.reference(), &pool);

    let mut fitted = train_plain(method, pipeline, base, holdout);
    let mut claimed: std::collections::HashSet<CellId> = std::collections::HashSet::new();
    for _ in 0..rounds {
        let probs = fitted.proba_features(&pool_x);
        let mut acquired: Vec<TrainExample> = Vec::new();
        for (i, &p) in probs.iter().enumerate() {
            if acquired.len() >= max_per_round {
                break;
            }
            let cell = pool[i];
            if claimed.contains(&cell) {
                continue;
            }
            let label = if p >= confidence {
                Label::Error
            } else if p <= 1.0 - confidence {
                Label::Correct
            } else {
                continue;
            };
            claimed.insert(cell);
            acquired.push(TrainExample {
                cell,
                value: ctx.dirty.cell_value(cell).to_owned(),
                label,
            });
        }
        if acquired.is_empty() {
            break;
        }
        fitted = fitted
            .refit_with(acquired)
            .expect("refitting a freshly trained (non-degenerate) model");
    }
    fitted
}

fn active_learning(
    method: &'static str,
    pipeline: Pipeline,
    base: Vec<TrainExample>,
    holdout: Vec<TrainExample>,
    ctx: &FitContext<'_>,
    loops: usize,
    per_loop: usize,
) -> FittedHoloDetect {
    let empty = TrainingSet::new();
    let sampling: &TrainingSet = ctx.sampling.unwrap_or(&empty);
    // Featurize the sampling pool once; loops only refit and gather.
    let pool: Vec<&holo_data::LabeledCell> = sampling.examples().iter().collect();
    let pool_x = if pool.is_empty() {
        None
    } else {
        let cells: Vec<CellId> = pool.iter().map(|e| e.cell).collect();
        Some(pipeline.featurize_cells(pipeline.reference(), &cells))
    };

    let mut fitted = train_plain(method, pipeline, base, holdout);
    let mut used: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for _ in 0..loops {
        let Some(px) = &pool_x else { break };
        if used.len() >= pool.len() {
            break;
        }
        let probs = fitted.proba_features(px);
        // Most uncertain first.
        let mut order: Vec<usize> = (0..pool.len()).filter(|i| !used.contains(i)).collect();
        order.sort_by(|&a, &b| {
            let ua = (probs[a] - 0.5).abs();
            let ub = (probs[b] - 0.5).abs();
            ua.total_cmp(&ub)
        });
        let mut acquired = Vec::with_capacity(per_loop);
        for &i in order.iter().take(per_loop) {
            used.insert(i);
            let ex = pool[i];
            acquired.push(TrainExample {
                cell: ex.cell,
                value: ex.observed.clone(),
                label: ex.label(),
            });
        }
        fitted = fitted
            .refit_with(acquired)
            .expect("refitting a freshly trained (non-degenerate) model");
    }
    fitted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_match_paper() {
        assert_eq!(
            Strategy::Augmentation { target_ratio: None }.method_name(),
            "AUG"
        );
        assert_eq!(Strategy::Supervised.method_name(), "SuperL");
        assert_eq!(Strategy::semi_default().method_name(), "SemiL");
        assert_eq!(Strategy::active(5).method_name(), "ActiveL");
        assert_eq!(Strategy::Resampling.method_name(), "Resampling");
    }

    #[test]
    fn active_constructor_uses_50_labels() {
        if let Strategy::ActiveLearning { loops, per_loop } = Strategy::active(10) {
            assert_eq!(loops, 10);
            assert_eq!(per_loop, 50);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn resample_balances_classes() {
        let mk = |t: usize, label: Label| TrainExample {
            cell: CellId::new(t, 0),
            value: "v".into(),
            label,
        };
        let mut examples = vec![mk(0, Label::Error)];
        for t in 1..10 {
            examples.push(mk(t, Label::Correct));
        }
        let out = resample(examples, 1);
        let errors = out.iter().filter(|e| e.label.is_error()).count();
        assert_eq!(errors, 9);
        assert_eq!(out.len(), 18);
    }

    #[test]
    fn resample_noop_without_errors() {
        let examples = vec![TrainExample {
            cell: CellId::new(0, 0),
            value: "v".into(),
            label: Label::Correct,
        }];
        assert_eq!(resample(examples.clone(), 0), examples);
    }
}
