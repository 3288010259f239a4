//! Adaptive refit: turn ≤ `max_labels` operator labels on the drifted
//! slice into a re-learned error channel and an amplified training set.
//!
//! This is HoloDetect's §5 few-shot loop pointed at drift instead of at
//! the initial fit: the labeled rows' `(clean, observed)` error pairs
//! go through Algorithm 1 ([`holo_channel::learn_transformations`]) and
//! Algorithm 2 ([`holo_channel::Policy`]) to learn the *drifted*
//! channel, Algorithm 4 ([`holo_channel::augment_to_ratio`]) amplifies
//! the handful of real examples into a balanced synthetic set in the
//! labeled cells' own tuple contexts, and the combined examples feed
//! `FittedHoloDetect::refit_with` — which re-trains the classifier,
//! re-calibrates, and re-tunes the threshold over the maintained
//! representation. A plain `refit_with(vec![])` retrains on the stale
//! fit-time example set and cannot recover from a changed channel (the
//! census scenario sat at PR-AUC 0.27 before and after); this path can.

use crate::ProbePool;
use holo_channel::{augment_to_ratio, AugmentConfig, Policy};
use holo_data::{CellId, Dataset, Label};
use holo_eval::{ModelError, TrainedModel};
use holo_trace::stage;
use holodetect::trainer::TrainExample;
use holodetect::FittedHoloDetect;

/// One operator label: a reference row index plus the row's *clean*
/// values in schema order. Cells whose clean value differs from the
/// observed reference value are error examples (and channel pairs);
/// cells that match are correct examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLabel {
    /// Row index into the live model's maintained reference dataset.
    pub row: usize,
    /// The clean values, in schema order.
    pub clean: Vec<String>,
}

/// Target error fraction of the adaptation examples after
/// augmentation (Figure 6's forced ratio).
const TARGET_ERROR_RATIO: f64 = 0.5;

/// Fraction of the post-refit training set the *fresh* examples
/// (labeled cells + their amplified errors) should occupy. The stale
/// fit-time examples teach the pre-drift channel; left unweighted, a
/// few dozen fresh examples drown in thousands of stale ones and the
/// retrained classifier barely moves. The trainer has no per-example
/// weights, so the weight is realised by replicating the fresh set
/// (capped at [`MAX_REPLICATION`]).
const FRESH_WEIGHT: f64 = 0.5;

/// Upper bound on the fresh-set replication factor — keeps a tiny label
/// batch against a huge fit-time set from exploding the training
/// matrix.
const MAX_REPLICATION: usize = 25;

/// Reference cells (outside the labeled rows, strided across the whole
/// dataset) the learned channel is *broadcast* into: the drifted
/// transformations are re-applied in these unrelated tuple contexts so
/// the classifier sees the new error class against many different
/// co-occurrence/constraint neighbourhoods, not just the handful of
/// labeled rows (HoloDetect §5.2's augmentation argument, pointed at
/// adaptation).
const BROADCAST_CONTEXTS: usize = 256;

/// Cap on the value pool backing the random-swap augmentation move.
const MAX_SWAP_POOL: usize = 1000;

/// Knobs for [`AdaptiveRefit`].
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Label budget: at most this many labeled rows are consumed per
    /// refit (the paper's few-shot regime — default 20).
    pub max_labels: usize,
    /// RNG seed for the augmentation pass (fixed → deterministic refit).
    pub seed: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            max_labels: 20,
            seed: 0xADA7,
        }
    }
}

/// What one adaptation pass produced (for logs and the `/refit` body).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptReport {
    /// Labeled rows consumed (after the budget cut).
    pub labeled_rows: usize,
    /// Real error cells among them.
    pub error_cells: usize,
    /// Correct cells among them.
    pub correct_cells: usize,
    /// Synthetic error examples generated by augmentation.
    pub synthetic_errors: usize,
    /// Distinct transformations in the learned drift channel.
    pub channel_size: usize,
    /// Synthetic errors broadcast into unlabeled reference contexts
    /// (up to 256 strided reference cells outside the labeled rows).
    pub broadcast_errors: usize,
    /// Labeled error cells repaired into the reference before the
    /// retrain.
    pub repaired_cells: usize,
    /// Replication factor applied to the fresh examples so they reach
    /// half of the post-refit training set, capped at 25 (1 = no
    /// replication was needed; 0 = no fresh examples at all).
    pub replication: usize,
}

/// Wall-clock attribution for one adaptation pass, kept apart from
/// [`AdaptReport`] so the report stays deterministic (and `Eq`) for a
/// fixed seed. Each field is the duration of the `holo_trace::stage`
/// of the same name, which also lands in the caller's current trace
/// (the live model's refit timeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptTiming {
    /// Turning labeled rows into per-cell examples and channel pairs.
    pub label_drain_micros: u64,
    /// Learning the drifted channel (Algorithms 1 + 2) from the pairs.
    pub channel_learn_micros: u64,
    /// Amplifying and broadcasting the channel (Algorithm 4).
    pub augment_micros: u64,
    /// `FittedHoloDetect::refit_with` — the expensive retrain itself.
    pub refit_with_micros: u64,
}

/// The label → channel → augment → refit pipeline. Stateless besides
/// its configuration; every method is deterministic for a fixed seed.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveRefit {
    cfg: AdaptConfig,
}

impl AdaptiveRefit {
    /// A pipeline with the given knobs.
    pub fn new(cfg: AdaptConfig) -> Self {
        AdaptiveRefit { cfg }
    }

    /// The configured knobs.
    pub fn config(&self) -> &AdaptConfig {
        &self.cfg
    }

    /// Build refit examples from `labels` against `reference`: one
    /// example per labeled cell (observed value, error iff it differs
    /// from the clean value) plus synthetic errors amplified from the
    /// learned channel into the labeled cells' tuple contexts. At most
    /// `max_labels` labels are consumed, oldest first.
    ///
    /// # Errors
    /// [`ModelError::CellOutOfBounds`] for a label row outside the
    /// reference; [`ModelError::Format`] for a label whose arity does
    /// not match the reference schema.
    pub fn examples(
        &self,
        reference: &Dataset,
        labels: &[RowLabel],
    ) -> Result<(Vec<TrainExample>, AdaptReport), ModelError> {
        let (examples, report, _) = self.examples_timed(reference, labels)?;
        Ok((examples, report))
    }

    /// [`AdaptiveRefit::examples`] timed as the `label-drain`,
    /// `channel-learn` and `augment` stages (an [`AdaptTiming`] with
    /// `refit_with_micros` left zero — only [`AdaptiveRefit::refit_timed`]
    /// runs the retrain).
    fn examples_timed(
        &self,
        reference: &Dataset,
        labels: &[RowLabel],
    ) -> Result<(Vec<TrainExample>, AdaptReport, AdaptTiming), ModelError> {
        let mut timing = AdaptTiming::default();
        let drain = stage("label-drain");
        let nt = reference.n_tuples();
        let na = reference.n_attrs();
        let budget = labels.len().min(self.cfg.max_labels);
        let mut report = AdaptReport {
            labeled_rows: budget,
            ..AdaptReport::default()
        };
        let mut examples: Vec<TrainExample> = Vec::new();
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut corrects: Vec<(CellId, String)> = Vec::new();
        for label in labels.iter().take(budget) {
            if label.row >= nt {
                return Err(ModelError::CellOutOfBounds {
                    cell: CellId::new(label.row, 0),
                    n_tuples: nt,
                    n_attrs: na,
                });
            }
            if label.clean.len() != na {
                return Err(ModelError::Format(format!(
                    "label for row {} has arity {}, reference schema has {}",
                    label.row,
                    label.clean.len(),
                    na
                )));
            }
            for (a, clean) in label.clean.iter().enumerate() {
                let cell = CellId::new(label.row, a);
                let observed = reference.value(label.row, a);
                if observed == clean {
                    report.correct_cells += 1;
                    corrects.push((cell, clean.clone()));
                    examples.push(TrainExample {
                        cell,
                        value: observed.to_owned(),
                        label: Label::Correct,
                    });
                } else {
                    report.error_cells += 1;
                    pairs.push((clean.clone(), observed.to_owned()));
                    examples.push(TrainExample {
                        cell,
                        value: observed.to_owned(),
                        label: Label::Error,
                    });
                }
            }
        }
        timing.label_drain_micros = drain.end();

        // Algorithm 1 + 2 on the drifted error pairs.
        let channel = stage("channel-learn");
        let policy = Policy::from_pairs(&pairs);
        report.channel_size = policy.len();
        timing.channel_learn_micros = channel.end();

        // Algorithm 4: amplify the few real errors to the target ratio,
        // in the labeled correct cells' own tuple contexts.
        let augment = stage("augment");
        let values: Vec<String> = corrects.iter().map(|(_, v)| v.clone()).collect();
        let aug_cfg = AugmentConfig {
            seed: self.cfg.seed,
            ..AugmentConfig::default()
        };
        let synthetic = augment_to_ratio(
            &values,
            report.error_cells,
            TARGET_ERROR_RATIO,
            &policy,
            &swap_pool(reference, MAX_SWAP_POOL),
            &aug_cfg,
        );
        report.synthetic_errors = synthetic.len();
        for g in synthetic {
            let Some(&(cell, _)) = corrects.get(g.source) else {
                // `source` indexes `values`, which parallels `corrects`;
                // an out-of-range index would be an augment bug.
                return Err(ModelError::Format(format!(
                    "augmentation returned out-of-range source {}",
                    g.source
                )));
            };
            examples.push(TrainExample {
                cell,
                value: g.dirty,
                label: Label::Error,
            });
        }

        // Broadcast the channel into unlabeled reference contexts: a
        // strided cell sample spanning the whole dataset, each paired
        // with its observed (presumed-correct) value as a Correct
        // example and fed to the channel for Error variants. Cells of
        // labeled rows are skipped — the loop above covered them with
        // actual labels.
        if !pairs.is_empty() {
            let labeled: std::collections::HashSet<usize> =
                labels.iter().take(budget).map(|l| l.row).collect();
            let total = nt.saturating_mul(na);
            let stride = (total / BROADCAST_CONTEXTS).max(1);
            let mut ctx: Vec<(CellId, String)> = Vec::new();
            let mut idx = 0usize;
            while idx < total && ctx.len() < BROADCAST_CONTEXTS {
                let (t, a) = (idx / na, idx % na);
                if !labeled.contains(&t) {
                    ctx.push((CellId::new(t, a), reference.value(t, a).to_owned()));
                }
                idx += stride;
            }
            let ctx_values: Vec<String> = ctx.iter().map(|(_, v)| v.clone()).collect();
            let bcast_cfg = AugmentConfig {
                seed: self.cfg.seed.wrapping_add(0xB0_CA57),
                ..AugmentConfig::default()
            };
            let bcast =
                augment_to_ratio(&ctx_values, 0, TARGET_ERROR_RATIO, &policy, &[], &bcast_cfg);
            report.broadcast_errors = bcast.len();
            for g in bcast {
                let Some(&(cell, _)) = ctx.get(g.source) else {
                    return Err(ModelError::Format(format!(
                        "broadcast augmentation returned out-of-range source {}",
                        g.source
                    )));
                };
                examples.push(TrainExample {
                    cell,
                    value: g.dirty,
                    label: Label::Error,
                });
                // Balance: the context's real value as a Correct
                // example, so the broadcast teaches the transformation,
                // not "these cells are all errors".
                examples.push(TrainExample {
                    cell,
                    value: g.clean,
                    label: Label::Correct,
                });
            }
        }
        timing.augment_micros = augment.end();
        Ok((examples, report, timing))
    }

    /// The whole adaptive path: build examples from `labels` and hand
    /// them to [`FittedHoloDetect::refit_with`]. Consumes the model
    /// like `refit_with` does; with an empty `labels` slice this *is*
    /// `refit_with(vec![])`.
    ///
    /// # Errors
    /// Everything [`AdaptiveRefit::examples`] rejects, plus
    /// [`ModelError::Degenerate`] from `refit_with` for a model with no
    /// fitted state.
    pub fn refit(
        &self,
        model: FittedHoloDetect,
        labels: &[RowLabel],
    ) -> Result<(FittedHoloDetect, AdaptReport), ModelError> {
        let (refitted, report, _) = self.refit_timed(model, labels)?;
        Ok((refitted, report))
    }

    /// [`AdaptiveRefit::refit`] plus wall-clock attribution for every
    /// phase. Building the examples, weighting them and repairing the
    /// labeled cells run as the `adapt` stage (with `label-drain`,
    /// `channel-learn` and `augment` inside it), the retrain as the
    /// `refit_with` stage.
    ///
    /// # Errors
    /// Exactly those of [`AdaptiveRefit::refit`].
    pub fn refit_timed(
        &self,
        model: FittedHoloDetect,
        labels: &[RowLabel],
    ) -> Result<(FittedHoloDetect, AdaptReport, AdaptTiming), ModelError> {
        let Some(artifact) = model.artifact() else {
            return Err(ModelError::Degenerate {
                method: model.method().to_owned(),
            });
        };
        let adapt = stage("adapt");
        let (examples, mut report, mut timing) =
            self.examples_timed(artifact.reference(), labels)?;
        let examples = Self::weight_fresh(examples, model.n_train_examples(), &mut report);
        // The labels are ground truth — fold them into the
        // representation: every labeled error cell is repaired to its
        // clean value on a copy of the reference, and the count-based
        // statistics (co-occurrence, violations, frequencies) every
        // *other* cell is scored against are rebuilt over that copy,
        // purging the drifted values. The error examples above keep
        // their observed values — they now featurize as drifted values
        // in clean contexts, which is exactly the contrast the
        // classifier must learn. `examples_timed` checked every label
        // inside the budget against the reference's shape.
        let reference = artifact.reference();
        let mut repaired: Option<Dataset> = None;
        let budget = labels.len().min(self.cfg.max_labels);
        for label in labels.iter().take(budget) {
            for (a, clean) in label.clean.iter().enumerate() {
                let current = repaired.as_ref().unwrap_or(reference);
                if current.value(label.row, a) != clean {
                    repaired
                        .get_or_insert_with(|| reference.clone())
                        .set_value(label.row, a, clean);
                    report.repaired_cells += 1;
                }
            }
        }
        let mut model = model;
        if let Some(repaired) = repaired {
            model.rebuild_representation_at(&repaired)?;
        }
        drop(adapt);
        let train = stage("refit_with");
        let refitted = model.refit_with(examples)?;
        timing.refit_with_micros = train.end();
        Ok((refitted, report, timing))
    }

    /// Replicate the fresh example set until it makes up
    /// [`FRESH_WEIGHT`] of the post-refit training data (`stale` stale
    /// examples plus the replicated fresh set), capped at
    /// [`MAX_REPLICATION`] copies. Replication keeps the fresh set's
    /// internal error ratio intact — it scales the whole slice, not
    /// just the error examples.
    fn weight_fresh(
        fresh: Vec<TrainExample>,
        stale: usize,
        report: &mut AdaptReport,
    ) -> Vec<TrainExample> {
        if fresh.is_empty() {
            report.replication = 0;
            return fresh;
        }
        let w = FRESH_WEIGHT;
        // reps·|fresh| / (stale + reps·|fresh|) ≥ w  ⇒  solve for reps.
        let needed = (w * stale as f64) / ((1.0 - w) * fresh.len() as f64);
        let reps = (needed.ceil() as usize).clamp(1, MAX_REPLICATION);
        report.replication = reps;
        if reps == 1 {
            return fresh;
        }
        let mut out = Vec::with_capacity(fresh.len() * reps);
        for _ in 0..reps {
            out.extend(fresh.iter().cloned());
        }
        out
    }

    /// Spot-check `labels` against the model's current predictions and
    /// fold each labeled cell into `probes` (the
    /// [`crate::DriftSignal::Probe`] feed). Labels that fail validation
    /// are skipped — probing is advisory and must never fail an ingest.
    pub fn probe(
        &self,
        model: &FittedHoloDetect,
        labels: &[RowLabel],
        probes: &mut ProbePool,
    ) -> Result<(), ModelError> {
        let Some(artifact) = model.artifact() else {
            return Ok(());
        };
        let reference = artifact.reference();
        let na = reference.n_attrs();
        let threshold = model.threshold();
        let mut cells = Vec::new();
        let mut truths = Vec::new();
        for label in labels {
            if label.row >= reference.n_tuples() || label.clean.len() != na {
                continue;
            }
            for (a, clean) in label.clean.iter().enumerate() {
                cells.push(CellId::new(label.row, a));
                truths.push(reference.value(label.row, a) != clean);
            }
        }
        if cells.is_empty() {
            return Ok(());
        }
        let scores = model.score_batch(reference, &cells)?;
        for (&score, &labeled_error) in scores.iter().zip(truths.iter()) {
            probes.record(score >= threshold, labeled_error);
        }
        Ok(())
    }
}

/// A pool of alternative values for the random-swap augmentation move:
/// one representative per distinct value, capped for memory (the same
/// shape the fit-time trainer uses).
fn swap_pool(d: &Dataset, cap: usize) -> Vec<String> {
    let mut pool = Vec::new();
    let mut seen = std::collections::HashSet::new();
    'outer: for a in 0..d.n_attrs() {
        for t in 0..d.n_tuples() {
            let v = d.value(t, a);
            if seen.insert(v.to_owned()) {
                pool.push(v.to_owned());
                if pool.len() >= cap {
                    break 'outer;
                }
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_data::{DatasetBuilder, Schema};

    fn reference() -> Dataset {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for i in 0..10 {
            if i % 2 == 0 {
                b.push_row(&["60612", "Chicago"]);
            } else {
                b.push_row(&["53703", "Madison"]);
            }
        }
        // Two drifted rows: in-domain swaps (zip/city mismatch).
        b.push_row(&["60612", "Madison"]);
        b.push_row(&["53703", "Chicago"]);
        b.build()
    }

    #[test]
    fn labels_split_into_error_and_correct_examples() {
        let d = reference();
        let labels = vec![
            RowLabel {
                row: 10,
                clean: vec!["60612".into(), "Chicago".into()], // City is an error
            },
            RowLabel {
                row: 0,
                clean: vec!["60612".into(), "Chicago".into()], // all correct
            },
        ];
        let (examples, report) = AdaptiveRefit::default().examples(&d, &labels).unwrap();
        assert_eq!(report.labeled_rows, 2);
        assert_eq!(report.error_cells, 1);
        assert_eq!(report.correct_cells, 3);
        assert!(report.channel_size > 0, "swap pair must learn a channel");
        // Real examples first, then synthetic.
        let real = &examples[..4];
        assert_eq!(
            real.iter().filter(|e| e.label == Label::Error).count(),
            1,
            "one real error example"
        );
        assert!(
            report.synthetic_errors > 0,
            "augmentation must amplify the single error"
        );
        // Real + amplified + broadcast (each broadcast error pairs with
        // a Correct example of its context's real value).
        assert_eq!(
            examples.len(),
            4 + report.synthetic_errors + 2 * report.broadcast_errors
        );
        // Synthetic errors live in labeled correct cells' contexts.
        for e in &examples[4..4 + report.synthetic_errors] {
            assert_eq!(e.label, Label::Error);
            assert!(real.iter().any(|r| r.cell == e.cell));
        }
        // Broadcast examples live *outside* the labeled rows.
        assert!(report.broadcast_errors > 0, "channel must broadcast");
        for e in &examples[4 + report.synthetic_errors..] {
            assert!(e.cell.t() != 10 && e.cell.t() != 0, "broadcast context");
        }
    }

    #[test]
    fn weight_fresh_replicates_to_the_target_share() {
        let fresh = vec![TrainExample {
            cell: CellId::new(0, 0),
            value: "v".into(),
            label: Label::Error,
        }];
        let mut report = AdaptReport::default();
        // 1 fresh example vs 10 stale → 10 copies reach parity.
        let out = AdaptiveRefit::weight_fresh(fresh.clone(), 10, &mut report);
        assert_eq!(out.len(), 10);
        assert_eq!(report.replication, 10);
        // The cap wins when parity would need more copies.
        let out = AdaptiveRefit::weight_fresh(fresh.clone(), 1000, &mut report);
        assert_eq!(out.len(), MAX_REPLICATION);
        assert_eq!(report.replication, 25);
        // No fresh examples → nothing to replicate.
        let out = AdaptiveRefit::weight_fresh(Vec::new(), 10, &mut report);
        assert!(out.is_empty());
        assert_eq!(report.replication, 0);
    }

    #[test]
    fn budget_caps_consumed_labels() {
        let d = reference();
        let labels: Vec<RowLabel> = (0..5)
            .map(|row| RowLabel {
                row,
                clean: vec!["60612".into(), "Chicago".into()],
            })
            .collect();
        let adapt = AdaptiveRefit::new(AdaptConfig {
            max_labels: 2,
            ..AdaptConfig::default()
        });
        let (_, report) = adapt.examples(&d, &labels).unwrap();
        assert_eq!(report.labeled_rows, 2);
    }

    #[test]
    fn bad_labels_are_typed_errors() {
        let d = reference();
        let out_of_range = vec![RowLabel {
            row: 99,
            clean: vec!["a".into(), "b".into()],
        }];
        assert!(matches!(
            AdaptiveRefit::default().examples(&d, &out_of_range),
            Err(ModelError::CellOutOfBounds { .. })
        ));
        let bad_arity = vec![RowLabel {
            row: 0,
            clean: vec!["only-one".into()],
        }];
        assert!(matches!(
            AdaptiveRefit::default().examples(&d, &bad_arity),
            Err(ModelError::Format(_))
        ));
    }

    #[test]
    fn no_labels_means_no_examples() {
        let d = reference();
        let (examples, report) = AdaptiveRefit::default().examples(&d, &[]).unwrap();
        assert!(examples.is_empty());
        assert_eq!(report, AdaptReport::default());
    }

    #[test]
    fn refit_repairs_each_differing_labeled_cell_once() {
        let dirty = reference();
        let mut clean = dirty.clone();
        clean.set_value(10, 1, "Chicago");
        clean.set_value(11, 1, "Madison");
        let truth = holo_data::GroundTruth::from_pair(&clean, &dirty);
        let train = truth.label_tuples(&dirty, &(0..dirty.n_tuples()).collect::<Vec<_>>());
        let dcs = holo_constraints::parse_constraints("Zip -> City", dirty.schema()).unwrap();
        let mut cfg = holodetect::HoloDetectConfig::fast();
        cfg.epochs = 4;
        let model = holodetect::HoloDetect::new(cfg).fit_model(&holo_eval::FitContext {
            dirty: &dirty,
            train: &train,
            sampling: None,
            constraints: &dcs,
            seed: 7,
        });
        let fix = RowLabel {
            row: 10,
            clean: vec!["60612".into(), "Chicago".into()], // City differs
        };
        let agree = RowLabel {
            row: 0,
            clean: vec!["60612".into(), "Chicago".into()], // equals the reference
        };
        // What the repair must leave behind: the pre-refit representation
        // rebuilt over the reference with the one cell repaired.
        let mut repaired = model.artifact().unwrap().reference().clone();
        repaired.set_value(10, 1, "Chicago");
        let expected = model
            .artifact()
            .unwrap()
            .pipeline()
            .featurizer
            .rebuilt_at(&repaired);

        let labels = [fix.clone(), fix, agree];
        let (refitted, report) = AdaptiveRefit::default().refit(model, &labels).unwrap();
        assert_eq!(report.repaired_cells, 1, "a cell named twice counts once");
        let featurizer = &refitted.artifact().unwrap().pipeline().featurizer;
        let reference = featurizer.reference();
        assert_eq!(reference.value(10, 1), "Chicago");
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for cell in reference.cell_ids() {
            assert_eq!(
                bits(featurizer.features(reference, cell)),
                bits(expected.features(expected.reference(), cell)),
                "{cell}"
            );
        }
    }

    #[test]
    fn examples_are_deterministic() {
        let d = reference();
        let labels = vec![RowLabel {
            row: 10,
            clean: vec!["60612".into(), "Chicago".into()],
        }];
        let adapt = AdaptiveRefit::default();
        let a = adapt.examples(&d, &labels).unwrap();
        let b = adapt.examples(&d, &labels).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
