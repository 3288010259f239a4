//! Training data `T`, labels `E_c`, and ground truth.
//!
//! §3.1 of the paper: a training dataset `T = {(c, v_c, v*_c)}` provides,
//! for a subset of cells, the observed value and the true value; the
//! label `E_c` is `-1` (error) when they differ and `+1` (correct)
//! otherwise. Ground truth over the *whole* dataset is only used by the
//! evaluation harness.

use crate::cell::CellId;
use crate::dataset::Dataset;
use std::collections::HashMap;

/// The binary label of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// `E_c = +1`: the observed value equals the true value.
    Correct,
    /// `E_c = -1`: the observed value differs from the true value.
    Error,
}

impl Label {
    /// The paper's signed encoding: `+1` correct, `-1` error.
    #[inline]
    pub fn signed(self) -> i8 {
        match self {
            Label::Correct => 1,
            Label::Error => -1,
        }
    }

    /// `true` for [`Label::Error`].
    #[inline]
    pub fn is_error(self) -> bool {
        matches!(self, Label::Error)
    }
}

/// One labeled cell from the training set: `(c, v_c, v*_c)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledCell {
    /// Which cell.
    pub cell: CellId,
    /// The observed (possibly dirty) value `v_c`.
    pub observed: String,
    /// The true value `v*_c`.
    pub truth: String,
}

impl LabeledCell {
    /// The label implied by observed vs truth.
    #[inline]
    pub fn label(&self) -> Label {
        if self.observed == self.truth {
            Label::Correct
        } else {
            Label::Error
        }
    }
}

/// The training dataset `T`: a set of labeled cells over `C_T ⊂ C_D`.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    examples: Vec<LabeledCell>,
    by_cell: HashMap<CellId, usize>,
}

impl TrainingSet {
    /// An empty training set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one labeled cell. Replaces any previous label for the same cell.
    pub fn insert(&mut self, ex: LabeledCell) {
        if let Some(&i) = self.by_cell.get(&ex.cell) {
            self.examples[i] = ex;
        } else {
            self.by_cell.insert(ex.cell, self.examples.len());
            self.examples.push(ex);
        }
    }

    /// All examples in insertion order.
    #[inline]
    pub fn examples(&self) -> &[LabeledCell] {
        &self.examples
    }

    /// Number of labeled cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// `true` when no cells are labeled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Whether `cell` is part of `T` (such cells are excluded from
    /// prediction, per §3.1: predict on `C_D \ C_T`).
    #[inline]
    pub fn contains(&self, cell: CellId) -> bool {
        self.by_cell.contains_key(&cell)
    }

    /// Look up the example for a cell.
    pub fn get(&self, cell: CellId) -> Option<&LabeledCell> {
        self.by_cell.get(&cell).map(|&i| &self.examples[i])
    }

    /// Count of (correct, error) examples.
    pub fn class_counts(&self) -> (usize, usize) {
        let errors = self
            .examples
            .iter()
            .filter(|e| e.label().is_error())
            .count();
        (self.examples.len() - errors, errors)
    }

    /// The error pairs `(v*, v)` with `v ≠ v*`, the seed set `L` for
    /// transformation learning (§5.4).
    pub fn error_pairs(&self) -> Vec<(String, String)> {
        self.examples
            .iter()
            .filter(|e| e.label().is_error())
            .map(|e| (e.truth.clone(), e.observed.clone()))
            .collect()
    }

    /// Split off the last `frac` of examples as a holdout (hyper-parameter
    /// tuning + Platt scaling, §4.2). Returns `(train, holdout)`.
    /// Caller is responsible for shuffling beforehand if desired.
    pub fn split_holdout(&self, frac: f64) -> (TrainingSet, TrainingSet) {
        assert!(
            (0.0..1.0).contains(&frac),
            "holdout fraction must be in [0,1)"
        );
        let n_hold = ((self.examples.len() as f64) * frac).round() as usize;
        let cut = self.examples.len() - n_hold;
        let mut train = TrainingSet::new();
        let mut hold = TrainingSet::new();
        for (i, ex) in self.examples.iter().enumerate() {
            if i < cut {
                train.insert(ex.clone());
            } else {
                hold.insert(ex.clone());
            }
        }
        (train, hold)
    }
}

/// Evaluation-only ground truth: which cells of a dirty dataset are
/// erroneous, and what their true values are.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// True value for every *erroneous* cell; cells absent here are correct.
    errors: HashMap<CellId, String>,
    n_cells: usize,
}

impl GroundTruth {
    /// Diff a clean/dirty dataset pair produced by an error injector.
    ///
    /// # Panics
    /// Panics if the datasets differ in schema or row count.
    pub fn from_pair(clean: &Dataset, dirty: &Dataset) -> Self {
        assert!(
            clean.same_shape(dirty),
            "clean/dirty datasets must share shape"
        );
        let mut errors = HashMap::new();
        for t in 0..clean.n_tuples() {
            for a in 0..clean.n_attrs() {
                let (cv, dv) = (clean.value(t, a), dirty.value(t, a));
                if cv != dv {
                    errors.insert(CellId::new(t, a), cv.to_owned());
                }
            }
        }
        GroundTruth {
            errors,
            n_cells: clean.n_cells(),
        }
    }

    /// The true label of a cell.
    #[inline]
    pub fn label(&self, cell: CellId) -> Label {
        if self.errors.contains_key(&cell) {
            Label::Error
        } else {
            Label::Correct
        }
    }

    /// The true value of a cell, given its observed value in `dirty`.
    pub fn true_value<'a>(&'a self, cell: CellId, dirty: &'a Dataset) -> &'a str {
        match self.errors.get(&cell) {
            Some(v) => v,
            None => dirty.cell_value(cell),
        }
    }

    /// Number of erroneous cells.
    #[inline]
    pub fn n_errors(&self) -> usize {
        self.errors.len()
    }

    /// Total cells the truth covers.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Iterate over `(cell, true_value)` for erroneous cells.
    pub fn error_cells(&self) -> impl Iterator<Item = (CellId, &str)> {
        self.errors.iter().map(|(c, v)| (*c, v.as_str()))
    }

    /// Build the training set labeling **all cells of the given tuples**
    /// (the paper labels whole tuples: "the amount of training data to be
    /// 5% of the total dataset" counts tuples).
    pub fn label_tuples(&self, dirty: &Dataset, tuples: &[usize]) -> TrainingSet {
        let mut t = TrainingSet::new();
        for &row in tuples {
            for a in 0..dirty.n_attrs() {
                let cell = CellId::new(row, a);
                let observed = dirty.cell_value(cell).to_owned();
                let truth = self.true_value(cell, dirty).to_owned();
                t.insert(LabeledCell {
                    cell,
                    observed,
                    truth,
                });
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::schema::Schema;

    fn pair() -> (Dataset, Dataset) {
        let mut cb = DatasetBuilder::new(Schema::new(["City", "Zip"]));
        cb.push_row(&["Chicago", "60612"]);
        cb.push_row(&["Madison", "53703"]);
        let clean = cb.build();
        let mut db = DatasetBuilder::new(Schema::new(["City", "Zip"]));
        db.push_row(&["Cicago", "60612"]); // typo in City
        db.push_row(&["Madison", "53703"]);
        let dirty = db.build();
        (clean, dirty)
    }

    #[test]
    fn label_signs() {
        assert_eq!(Label::Correct.signed(), 1);
        assert_eq!(Label::Error.signed(), -1);
        assert!(Label::Error.is_error());
        assert!(!Label::Correct.is_error());
    }

    #[test]
    fn labeled_cell_label() {
        let ok = LabeledCell {
            cell: CellId::new(0, 0),
            observed: "a".into(),
            truth: "a".into(),
        };
        let bad = LabeledCell {
            cell: CellId::new(0, 1),
            observed: "a".into(),
            truth: "b".into(),
        };
        assert_eq!(ok.label(), Label::Correct);
        assert_eq!(bad.label(), Label::Error);
    }

    #[test]
    fn ground_truth_from_pair() {
        let (clean, dirty) = pair();
        let gt = GroundTruth::from_pair(&clean, &dirty);
        assert_eq!(gt.n_errors(), 1);
        assert_eq!(gt.label(CellId::new(0, 0)), Label::Error);
        assert_eq!(gt.label(CellId::new(0, 1)), Label::Correct);
        assert_eq!(gt.true_value(CellId::new(0, 0), &dirty), "Chicago");
        assert_eq!(gt.true_value(CellId::new(1, 0), &dirty), "Madison");
    }

    #[test]
    fn label_tuples_builds_training_set() {
        let (clean, dirty) = pair();
        let gt = GroundTruth::from_pair(&clean, &dirty);
        let t = gt.label_tuples(&dirty, &[0]);
        assert_eq!(t.len(), 2);
        assert!(t.contains(CellId::new(0, 0)));
        assert!(!t.contains(CellId::new(1, 0)));
        let (p, n) = t.class_counts();
        assert_eq!((p, n), (1, 1));
    }

    #[test]
    fn error_pairs_orients_truth_first() {
        let (clean, dirty) = pair();
        let gt = GroundTruth::from_pair(&clean, &dirty);
        let t = gt.label_tuples(&dirty, &[0, 1]);
        let pairs = t.error_pairs();
        assert_eq!(pairs, vec![("Chicago".to_owned(), "Cicago".to_owned())]);
    }

    #[test]
    fn training_set_insert_replaces() {
        let mut t = TrainingSet::new();
        let c = CellId::new(0, 0);
        t.insert(LabeledCell {
            cell: c,
            observed: "a".into(),
            truth: "a".into(),
        });
        t.insert(LabeledCell {
            cell: c,
            observed: "a".into(),
            truth: "b".into(),
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(c).unwrap().label(), Label::Error);
    }

    #[test]
    fn split_holdout_partitions() {
        let mut t = TrainingSet::new();
        for i in 0..10 {
            t.insert(LabeledCell {
                cell: CellId::new(i, 0),
                observed: "v".into(),
                truth: "v".into(),
            });
        }
        let (train, hold) = t.split_holdout(0.2);
        assert_eq!(train.len(), 8);
        assert_eq!(hold.len(), 2);
        for ex in hold.examples() {
            assert!(!train.contains(ex.cell));
        }
    }

    #[test]
    #[should_panic(expected = "share shape")]
    fn shape_mismatch_panics() {
        let (clean, _) = pair();
        let other = DatasetBuilder::new(Schema::new(["X"])).build();
        GroundTruth::from_pair(&clean, &other);
    }
}
