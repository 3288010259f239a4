//! Score-distribution drift detection: streaming fixed-bin histograms
//! of calibrated error scores, compared between a fit-time baseline and
//! the rows ingested since, via PSI and KS statistics.
//!
//! First-moment aggregates miss quiet drift: an error channel that
//! swaps in-domain values moves almost no mass in the constraint
//! violation rate or the mean score (in the census scenario neither
//! moves by more than ~0.0002 while PR-AUC collapses from 0.68 to
//! 0.27). The *shape* of the score distribution still moves — mass
//! leaves the confident bins for the uncertain middle — and that is
//! what the Population Stability Index and the Kolmogorov–Smirnov
//! statistic over per-attribute histograms measure. Both are O(1) per
//! scored cell (one bucket increment) and O(bins) per report.
//!
//! NaN scores are a hard, typed error everywhere in this module: a NaN
//! calibrated probability means the model itself is broken, and folding
//! it into a bucket would silently corrupt every later drift decision.

use holo_eval::ModelError;

/// Proportion floor applied inside [`psi`] so empty bins cannot produce
/// infinite log-ratios (the standard PSI smoothing).
const PSI_FLOOR: f64 = 1e-4;

/// Which drift signal crossed its threshold (the monitor's diagnosis —
/// surfaced through `GET /drift` and `holo_stream::DriftReport` so a
/// refit decision is never a bare bool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriftSignal {
    /// A per-attribute score histogram moved by PSI.
    Psi,
    /// A per-attribute score histogram moved by KS.
    Ks,
    /// Labeled spot checks disagree with the model's predictions.
    Probe,
}

impl DriftSignal {
    /// Every signal, in report order.
    pub const ALL: [DriftSignal; 3] = [DriftSignal::Psi, DriftSignal::Ks, DriftSignal::Probe];

    /// The stable wire name (`GET /drift`'s `"fired"` array).
    pub fn name(self) -> &'static str {
        match self {
            DriftSignal::Psi => "psi",
            DriftSignal::Ks => "ks",
            DriftSignal::Probe => "probe",
        }
    }
}

impl std::fmt::Display for DriftSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fixed-bin histogram of calibrated scores in `[0, 1]`, built
/// streamingly: one saturating bucket increment per score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreHistogram {
    bins: Vec<u64>,
    total: u64,
}

impl ScoreHistogram {
    /// An empty histogram with `n_bins` equal-width bins over `[0, 1]`
    /// (clamped to at least 2 — one bin cannot express a shape).
    pub fn new(n_bins: usize) -> Self {
        ScoreHistogram {
            bins: vec![0; n_bins.max(2)],
            total: 0,
        }
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// Total scores recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Record one calibrated score. Scores outside `[0, 1]` clamp into
    /// the edge bins (calibration guarantees the range; clamping keeps
    /// a float-rounding 1.0000001 from being treated as corruption).
    ///
    /// # Errors
    /// [`ModelError::Format`] for a NaN score — a NaN calibrated
    /// probability is model corruption and must fail loudly, not skew a
    /// bucket.
    pub fn record(&mut self, score: f64) -> Result<(), ModelError> {
        if score.is_nan() {
            return Err(ModelError::Format(
                "NaN score cannot be folded into a drift histogram \
                 (calibrated probabilities are never NaN; the model is corrupt)"
                    .into(),
            ));
        }
        let n = self.bins.len();
        let clamped = score.clamp(0.0, 1.0);
        let idx = ((clamped * n as f64) as usize).min(n.saturating_sub(1));
        if let Some(bin) = self.bins.get_mut(idx) {
            *bin = bin.saturating_add(1);
        }
        self.total = self.total.saturating_add(1);
        Ok(())
    }

    /// Build a histogram from a score iterator.
    ///
    /// # Errors
    /// [`ModelError::Format`] on the first NaN score.
    pub fn from_scores<I: IntoIterator<Item = f64>>(
        n_bins: usize,
        scores: I,
    ) -> Result<Self, ModelError> {
        let mut h = ScoreHistogram::new(n_bins);
        for s in scores {
            h.record(s)?;
        }
        Ok(h)
    }

    /// Per-bin proportions (empty histogram → all zeros).
    fn proportions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins.len()];
        }
        let t = self.total as f64;
        self.bins.iter().map(|&c| c as f64 / t).collect()
    }
}

/// Bin-arity guard shared by [`psi`] and [`ks`].
fn check_bins(base: &ScoreHistogram, recent: &ScoreHistogram) -> Result<(), ModelError> {
    if base.n_bins() != recent.n_bins() {
        return Err(ModelError::Format(format!(
            "drift histograms have different bin counts ({} vs {})",
            base.n_bins(),
            recent.n_bins()
        )));
    }
    Ok(())
}

/// Population Stability Index between two score histograms:
/// `Σ (pᵢ − qᵢ)·ln(pᵢ/qᵢ)` with proportions floored at `1e-4` so empty
/// bins cannot blow the log up. Symmetric, 0 for identical
/// distributions, and grows monotonically as mass moves between bins.
/// Either side empty (no evidence yet) reports 0.
///
/// # Errors
/// [`ModelError::Format`] when the histograms' bin counts differ.
pub fn psi(base: &ScoreHistogram, recent: &ScoreHistogram) -> Result<f64, ModelError> {
    check_bins(base, recent)?;
    if base.total() == 0 || recent.total() == 0 {
        return Ok(0.0);
    }
    let sum = base
        .proportions()
        .iter()
        .zip(recent.proportions().iter())
        .map(|(&p, &q)| {
            let p = p.max(PSI_FLOOR);
            let q = q.max(PSI_FLOOR);
            (p - q) * (p / q).ln()
        })
        .sum::<f64>();
    Ok(sum)
}

/// Kolmogorov–Smirnov statistic between two score histograms: the
/// maximum absolute gap between the binned CDFs, in `[0, 1]`. Either
/// side empty (no evidence yet) reports 0.
///
/// # Errors
/// [`ModelError::Format`] when the histograms' bin counts differ.
pub fn ks(base: &ScoreHistogram, recent: &ScoreHistogram) -> Result<f64, ModelError> {
    check_bins(base, recent)?;
    if base.total() == 0 || recent.total() == 0 {
        return Ok(0.0);
    }
    let mut cum_p = 0.0;
    let mut cum_q = 0.0;
    let mut max_gap: f64 = 0.0;
    for (&p, &q) in base.proportions().iter().zip(recent.proportions().iter()) {
        cum_p += p;
        cum_q += q;
        max_gap = max_gap.max((cum_p - cum_q).abs());
    }
    Ok(max_gap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(counts: &[u64]) -> ScoreHistogram {
        let mut h = ScoreHistogram::new(counts.len());
        h.bins = counts.to_vec();
        h.total = counts.iter().sum();
        h
    }

    #[test]
    fn recording_buckets_scores() {
        let mut h = ScoreHistogram::new(4);
        for s in [0.0, 0.1, 0.3, 0.6, 0.9, 1.0] {
            h.record(s).unwrap();
        }
        assert_eq!(h.counts(), &[2, 1, 1, 2]);
        assert_eq!(h.total(), 6);
        // Out-of-range clamps into the edge bins instead of erroring.
        h.record(-0.5).unwrap();
        h.record(1.5).unwrap();
        assert_eq!(h.counts(), &[3, 1, 1, 3]);
    }

    #[test]
    fn nan_score_is_a_hard_error() {
        let mut h = ScoreHistogram::new(4);
        assert!(matches!(h.record(f64::NAN), Err(ModelError::Format(_))));
        assert!(ScoreHistogram::from_scores(4, [0.1, f64::NAN]).is_err());
    }

    #[test]
    fn identical_distributions_are_zero() {
        let a = hist(&[10, 20, 30, 40]);
        assert_eq!(psi(&a, &a).unwrap(), 0.0);
        assert_eq!(ks(&a, &a).unwrap(), 0.0);
        // Same shape at a different scale is still identical.
        let b = hist(&[1, 2, 3, 4]);
        assert!(psi(&a, &b).unwrap().abs() < 1e-12);
        assert!(ks(&a, &b).unwrap().abs() < 1e-12);
    }

    #[test]
    fn empty_sides_report_zero_not_infinity() {
        let a = hist(&[5, 5]);
        let empty = ScoreHistogram::new(2);
        assert_eq!(psi(&a, &empty).unwrap(), 0.0);
        assert_eq!(ks(&empty, &a).unwrap(), 0.0);
        assert_eq!(psi(&empty, &empty).unwrap(), 0.0);
    }

    #[test]
    fn mismatched_bins_are_a_typed_error() {
        let a = ScoreHistogram::new(4);
        let b = ScoreHistogram::new(8);
        assert!(psi(&a, &b).is_err());
        assert!(ks(&a, &b).is_err());
    }

    #[test]
    fn shape_shift_with_preserved_mean_is_visible() {
        // Mean-preserving shape change: mass leaves the edges for the
        // middle. The mean sees nothing; PSI and KS do.
        let base = hist(&[50, 0, 0, 50]);
        let recent = hist(&[0, 50, 50, 0]);
        assert!(psi(&base, &recent).unwrap() > 1.0);
        assert!(ks(&base, &recent).unwrap() >= 0.5);
    }

    #[test]
    fn one_bin_clamps_to_two() {
        assert_eq!(ScoreHistogram::new(0).n_bins(), 2);
        assert_eq!(ScoreHistogram::new(1).n_bins(), 2);
    }
}
