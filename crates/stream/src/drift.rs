//! Drift detection between epochs.
//!
//! Three model-grounded signals, all measured on the rows ingested
//! since the last (re)fit and compared against a baseline anchored at
//! that fit:
//!
//! * **PSI** and **KS** — per-attribute score-*shape* statistics from
//!   `holo-adapt`: fixed-bin histograms of the calibrated error scores
//!   the model itself assigns, compared via the Population Stability
//!   Index and the Kolmogorov–Smirnov statistic. They catch the quiet
//!   drift a first moment misses — census-style in-domain swaps move
//!   almost no mean mass but dissolve the confident bimodal score shape.
//! * **probe** — the disagreement rate between operator labels and the
//!   model's own thresholded predictions over a bounded ring of recent
//!   spot checks (every label posted to a live model doubles as one).
//!
//! Each signal fires past a fixed threshold. A [`DriftReport`] carries
//! every signal's value and verdict as a [`SignalStat`], and which
//! signals fired is derived from those — a refit decision is a
//! diagnosis, never a bare bool. This extends the adaptation-gap
//! framing of AED (Yeh et al., 2024): few-shot detectors degrade
//! quietly under distribution shift, so the monitor watches the
//! quantities the model's own machinery already exposes.

use holo_adapt::{ks, psi, DriftSignal, ProbePool, ScoreHistogram};
use holo_eval::ModelError;

/// Per-attribute PSI past which the PSI signal fires (the conventional
/// "significant shift" PSI cut).
const PSI_THRESHOLD: f64 = 0.25;
/// Per-attribute KS statistic past which the KS signal fires.
const KS_THRESHOLD: f64 = 0.2;
/// Probe disagreement rate past which the probe signal fires.
const PROBE_THRESHOLD: f64 = 0.3;
/// Probe checks required before the probe signal may fire (a single
/// disagreeing label must not trigger a retrain).
const MIN_PROBE_LABELS: u64 = 8;
/// Bins in the drift score histograms. Calibrated error scores
/// concentrate near zero (a healthy model scores almost every cell well
/// under its threshold), so the shape signals need bins fine enough to
/// resolve movement *inside* that low-score mass — at 10 bins the census
/// quiet swap drift is invisible (PSI ≈ 0.04), at 40 bins it is loud
/// (PSI ≈ 0.85).
const SCORE_BINS: usize = 40;

/// Running drift state for one live model.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    /// Per-attribute score histograms of the reference sample at the
    /// last (re)fit.
    baseline: Vec<ScoreHistogram>,
    /// Per-attribute score histograms of the rows ingested since.
    recent: Vec<ScoreHistogram>,
    /// Labeled spot checks against the current model.
    probes: ProbePool,
    /// Rows ingested since the last (re)fit.
    rows: u64,
}

/// One signal's point-in-time value against its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalStat {
    /// Which signal.
    pub signal: DriftSignal,
    /// Its current value (max PSI, max KS, or disagreement rate).
    pub value: f64,
    /// The threshold it fires past.
    pub threshold: f64,
    /// Whether it currently fires.
    pub fired: bool,
}

/// A point-in-time view of the drift state (the `GET .../drift` body).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Rows ingested since the last (re)fit.
    pub rows_since_refit: u64,
    /// Per-attribute PSI between the baseline and recent score
    /// histograms (index = attribute position).
    pub psi: Vec<f64>,
    /// Per-attribute KS statistics, same indexing.
    pub ks: Vec<f64>,
    /// Labeled spot checks in the probe window.
    pub probe_checked: u64,
    /// Their disagreement rate (`0` when empty).
    pub probe_disagreement: f64,
    /// Every signal's value against its threshold, in
    /// [`DriftSignal::ALL`] order.
    pub signals: Vec<SignalStat>,
}

impl DriftReport {
    /// The largest per-attribute PSI (`0` with no attributes).
    pub fn psi_max(&self) -> f64 {
        max(&self.psi)
    }

    /// The largest per-attribute KS statistic (`0` with no attributes).
    pub fn ks_max(&self) -> f64 {
        max(&self.ks)
    }

    /// Every signal currently past its threshold, in
    /// [`DriftSignal::ALL`] order.
    pub fn fired(&self) -> Vec<DriftSignal> {
        self.signals
            .iter()
            .filter(|s| s.fired)
            .map(|s| s.signal)
            .collect()
    }

    /// Whether this report calls for a refit: at least `min_rows` rows
    /// arrived since the last one and at least one signal fired.
    pub fn would_refit(&self, min_rows: u64) -> bool {
        self.rows_since_refit >= min_rows && self.signals.iter().any(|s| s.fired)
    }
}

impl DriftMonitor {
    /// A monitor tracking `n_attrs` per-attribute score histograms. The
    /// baseline histograms start empty — feed the fit-time sample
    /// through [`DriftMonitor::record_baseline_scores`] to arm PSI/KS
    /// (an unarmed monitor reports 0 for both: no evidence, no drift).
    pub fn new(n_attrs: usize) -> Self {
        DriftMonitor {
            baseline: vec![ScoreHistogram::new(SCORE_BINS); n_attrs],
            recent: vec![ScoreHistogram::new(SCORE_BINS); n_attrs],
            probes: ProbePool::default(),
            rows: 0,
        }
    }

    /// Arm the baseline histograms from the fit-time reference sample.
    /// `scores` must be in row-major `(tuple, attr)` order over whole
    /// tuples, so score `i` belongs to attribute `i % n_attrs` — the
    /// same layout ingest uses.
    ///
    /// # Errors
    /// [`ModelError::Format`] on a NaN score (model corruption).
    pub fn record_baseline_scores(&mut self, scores: &[f64]) -> Result<(), ModelError> {
        let na = self.baseline.len().max(1);
        for (i, &s) in scores.iter().enumerate() {
            if let Some(h) = self.baseline.get_mut(i % na) {
                h.record(s)?;
            }
        }
        Ok(())
    }

    /// Fold `rows` ingested rows into the recent window. `scores` are
    /// the new rows' cell scores in row-major `(tuple, attr)` order, so
    /// score `i` belongs to attribute `i % n_attrs`.
    ///
    /// # Errors
    /// [`ModelError::Format`] on a NaN score — a NaN calibrated
    /// probability means the model is corrupt, and folding it into the
    /// statistics would silently poison every later drift decision.
    pub fn record_batch(&mut self, rows: u64, scores: &[f64]) -> Result<(), ModelError> {
        let na = self.recent.len().max(1);
        for (i, &s) in scores.iter().enumerate() {
            if let Some(h) = self.recent.get_mut(i % na) {
                h.record(s)?;
            }
        }
        self.rows = self.rows.saturating_add(rows);
        Ok(())
    }

    /// The probe pool, for spot-checking labels against the model
    /// (`holo_adapt::AdaptiveRefit::probe`).
    pub fn probes_mut(&mut self) -> &mut ProbePool {
        &mut self.probes
    }

    /// The current report.
    pub fn report(&self) -> DriftReport {
        // Both sides of every pair share a bin count by construction,
        // so the statistics cannot fail; 0.0 is the safe fallback.
        let psi_per_attr: Vec<f64> = self
            .baseline
            .iter()
            .zip(self.recent.iter())
            .map(|(b, r)| psi(b, r).unwrap_or(0.0))
            .collect();
        let ks_per_attr: Vec<f64> = self
            .baseline
            .iter()
            .zip(self.recent.iter())
            .map(|(b, r)| ks(b, r).unwrap_or(0.0))
            .collect();
        let probe_checked = self.probes.checked();
        let probe_disagreement = self.probes.disagreement();
        let stat = |signal, value: f64, threshold, armed: bool| SignalStat {
            signal,
            value,
            threshold,
            fired: armed && value > threshold,
        };
        let signals = vec![
            stat(DriftSignal::Psi, max(&psi_per_attr), PSI_THRESHOLD, true),
            stat(DriftSignal::Ks, max(&ks_per_attr), KS_THRESHOLD, true),
            stat(
                DriftSignal::Probe,
                probe_disagreement,
                PROBE_THRESHOLD,
                probe_checked >= MIN_PROBE_LABELS,
            ),
        ];
        DriftReport {
            rows_since_refit: self.rows,
            psi: psi_per_attr,
            ks: ks_per_attr,
            probe_checked,
            probe_disagreement,
            signals,
        }
    }
}

/// The largest value of a per-attribute series (`0` when empty).
fn max(series: &[f64]) -> f64 {
    series.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` rows of `n`×2 scores, row-major, alternating the two values.
    fn flat_scores(n: usize, a: f64, b: f64) -> Vec<f64> {
        (0..n).flat_map(|_| [a, b]).collect()
    }

    #[test]
    fn no_ingest_means_no_drift() {
        let r = DriftMonitor::new(2).report();
        assert_eq!(r.rows_since_refit, 0);
        assert_eq!(r.signals.len(), DriftSignal::ALL.len());
        assert!(r.fired().is_empty());
        assert!(!r.would_refit(0));
    }

    #[test]
    fn batches_accumulate_into_the_recent_window() {
        let mut m = DriftMonitor::new(2);
        m.record_batch(5, &flat_scores(5, 0.5, 0.5)).unwrap();
        m.record_batch(5, &flat_scores(5, 0.5, 0.5)).unwrap();
        assert_eq!(m.report().rows_since_refit, 10);
        // A fresh monitor — what a refit installs — starts empty.
        assert_eq!(DriftMonitor::new(2).report().rows_since_refit, 0);
    }

    #[test]
    fn quiet_shape_drift_fires_psi_and_ks_not_the_means() {
        // The census signature: baseline scores confidently bimodal,
        // recent scores uncertain — with the *mean preserved*, so a
        // first-moment signal would stay quiet.
        let mut m = DriftMonitor::new(2);
        // Arm the baseline: scores at the edges, mean 0.5.
        let base: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 0.05 } else { 0.95 })
            .collect();
        m.record_baseline_scores(&base).unwrap();
        // Recent: everything in the middle, mean still 0.5.
        let recent: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 0.45 } else { 0.55 })
            .collect();
        m.record_batch(100, &recent).unwrap();
        let r = m.report();
        assert!(r.psi_max() > 0.25, "psi_max {}", r.psi_max());
        assert!(r.ks_max() > 0.2, "ks_max {}", r.ks_max());
        assert_eq!(r.fired(), vec![DriftSignal::Psi, DriftSignal::Ks]);
        assert!(r.would_refit(100));
        assert!(!r.would_refit(101), "too few rows since the last refit");
    }

    #[test]
    fn fired_lists_exactly_the_signals_that_fired() {
        let mut m = DriftMonitor::new(2);
        m.record_baseline_scores(&flat_scores(50, 0.05, 0.05))
            .unwrap();
        m.record_batch(50, &flat_scores(50, 0.05, 0.9)).unwrap();
        // An armed probe that agrees often enough to stay quiet.
        for i in 0..8 {
            m.probes_mut().record(i == 0, false);
        }
        let r = m.report();
        let signals: Vec<DriftSignal> = r.signals.iter().map(|s| s.signal).collect();
        assert_eq!(signals, DriftSignal::ALL);
        let fired: Vec<DriftSignal> = r
            .signals
            .iter()
            .filter(|s| s.fired)
            .map(|s| s.signal)
            .collect();
        assert_eq!(fired, vec![DriftSignal::Psi, DriftSignal::Ks]);
        assert_eq!(r.fired(), fired);
        for s in &r.signals {
            assert_eq!(s.fired, s.value > s.threshold, "{s:?}");
        }
    }

    #[test]
    fn unarmed_baseline_reports_zero_shape_drift() {
        let mut m = DriftMonitor::new(2);
        m.record_batch(50, &flat_scores(50, 0.9, 0.9)).unwrap();
        let r = m.report();
        assert_eq!(r.psi_max(), 0.0, "no baseline evidence, no PSI");
        assert_eq!(r.ks_max(), 0.0);
        assert!(!r.fired().contains(&DriftSignal::Psi));
    }

    #[test]
    fn probe_signal_needs_volume_then_fires() {
        let mut m = DriftMonitor::new(2);
        // Disagreements below the volume floor stay quiet.
        for _ in 0..7 {
            m.probes_mut().record(false, true);
        }
        assert!(!m.report().fired().contains(&DriftSignal::Probe));
        m.probes_mut().record(false, true);
        let r = m.report();
        assert_eq!(r.probe_checked, 8);
        assert_eq!(r.probe_disagreement, 1.0);
        assert_eq!(r.fired(), vec![DriftSignal::Probe]);
    }

    #[test]
    fn nan_scores_are_hard_errors() {
        let mut m = DriftMonitor::new(2);
        assert!(m.record_batch(1, &[0.2, f64::NAN]).is_err());
        assert!(m.record_baseline_scores(&[f64::NAN]).is_err());
    }
}
