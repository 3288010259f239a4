//! # holo-adapt
//!
//! Few-shot drift adaptation: score-distribution drift *detection* and
//! channel-learning *refit* — the HoloDetect §5 loop pointed at a live,
//! drifting model instead of at the initial fit.
//!
//! ## Why this crate exists
//!
//! The scenario suite proved a real production failure mode: census
//! swap-drift moves neither the violation rate nor the mean score (by
//! more than ~0.0002) while PR-AUC collapses from 0.68 to 0.27, and
//! a label-free `refit_with(vec![])` retrains on the stale fit-time
//! examples and stays at 0.27. Both halves of the live loop were blind:
//!
//! 1. **Detection** ([`detect`], [`probe`]) — per-attribute
//!    [`ScoreHistogram`]s of calibrated scores, compared between a
//!    fit-time baseline and the rows ingested since via the Population
//!    Stability Index ([`psi`]) and the Kolmogorov–Smirnov statistic
//!    ([`ks`]). Both are O(1) per scored cell and see *shape* changes
//!    the mean cannot. A [`ProbePool`] of labeled spot checks adds a
//!    direct "the model is wrong" signal. Which statistic crossed its
//!    threshold is a [`DriftSignal`] — consumed by
//!    `holo_stream::DriftMonitor`, which watches these three signals
//!    alone, and surfaced through `GET /drift`.
//! 2. **Adaptation** ([`refit`]) — [`AdaptiveRefit`] takes ≤ 20
//!    [`RowLabel`]s on the drifted slice, learns the drifted error
//!    channel from their `(clean, observed)` pairs
//!    (`holo_channel::Policy::from_pairs`, Algorithms 1–2), amplifies
//!    the few real errors with `holo_channel::augment_to_ratio`
//!    (Algorithm 4) in the labeled cells' own tuple contexts, and hands
//!    the combined examples to `FittedHoloDetect::refit_with` — which
//!    re-trains, re-calibrates, and re-tunes the threshold.
//!
//! Everything is deterministic for a fixed seed, NaN scores are typed
//! hard errors, and the ingest/refit hot paths are panic-free by
//! `holo-lint` policy.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod detect;
pub mod probe;
pub mod refit;

pub use detect::{ks, psi, DriftSignal, ScoreHistogram};
pub use probe::{ProbePool, DEFAULT_PROBE_CAPACITY};
pub use refit::{AdaptConfig, AdaptReport, AdaptTiming, AdaptiveRefit, RowLabel};
