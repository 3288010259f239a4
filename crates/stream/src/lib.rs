//! # holo-stream
//!
//! Streaming ingest with incremental model maintenance and
//! drift-triggered refit: the layer that turns the frozen
//! fit → save → serve lifecycle into a living one.
//!
//! A served HoloDetect artifact scores against the reference dataset it
//! was fitted on — but production reference data is never frozen: rows
//! arrive continuously and error distributions drift. Refitting per
//! batch is economically absurd (artifact load is ~350× cheaper than a
//! refit per the bench notes, and a refit is *far* more expensive than
//! a load), so this crate keeps a served model current three ways:
//!
//! * **Incremental maintenance** — every ingested row becomes a
//!   [`holo_data::DeltaOp::Append`] in a durable
//!   [`holo_data::DeltaLog`] and is applied to the fitted state through
//!   `FittedHoloDetect::apply_delta`, which appends to the owned
//!   reference copy, the violation indexes, and every count-based
//!   representation model with the repo's established parity bar:
//!   scoring after any append sequence is **bitwise-identical** to a
//!   from-scratch rebuild of the count-based state at the same epoch.
//! * **Drift monitoring** — [`drift::DriftMonitor`] tracks three
//!   signals of ingested rows against a baseline anchored at the last
//!   (re)fit: per-attribute PSI and KS statistics of the model's own
//!   calibrated scores from `holo-adapt` (which catch the quiet
//!   in-domain drift a first moment misses), and a labeled spot-check
//!   probe pool. Each signal's value and verdict is part of the report
//!   ([`drift::DriftReport`], [`drift::SignalStat`]).
//! * **Background refit** — [`scheduler::RefitScheduler`] watches the
//!   drift signals off the hot path and, once one fires, refits
//!   on a snapshot (classifier + calibration + threshold re-learned
//!   over the maintained representation), persists the result, and
//!   hot-swaps it into serving with [`live::LiveModel::reload_install`]
//!   — scoring never blocks on a refit. When operator labels were posted
//!   ([`live::LiveModel::add_labels`]), the refit takes the *adaptive*
//!   path: `holo_adapt::AdaptiveRefit` learns the drifted error channel
//!   from ≤ `refit_label_budget` labels, amplifies it by augmentation,
//!   and extends the training set — recovering quality a label-free
//!   retrain cannot.
//!
//! [`live::LiveModel`] is the concurrency boundary tying the three
//! together: scoring takes a read lock, ingest a brief write lock, and
//! the refit's expensive training runs on a snapshot outside every
//! lock. The durable invariant is `artifact ⊕ delta-log = state`: the
//! on-disk artifact always corresponds to the log's compaction horizon,
//! so a crashed process reopens the artifact, replays the log tail, and
//! resumes at the exact epoch it died at.
//!
//! Every maintenance path is timed by `holo_trace::stage`: ingest runs
//! the `log-append` / `apply-delta` / `drift-update` stages inside the
//! caller's current trace (holo-serve's `POST .../rows` request trace),
//! and each refit runs under a trace of its own whose stages — snapshot,
//! the adaptive phases, retrain, persist, plus the install — make up a
//! [`holo_trace::RefitTimeline`], retained in a bounded ring
//! ([`live::LiveModel::refit_timelines`]) that holo-serve pages as
//! `GET /v1/models/{name}/refits`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod drift;
pub mod live;
pub mod scheduler;

pub use drift::{DriftMonitor, DriftReport, SignalStat};
pub use holo_adapt::{DriftSignal, RowLabel};
pub use holo_trace::RefitTimeline;
pub use live::{IngestReport, LiveModel, StreamConfig};
pub use scheduler::RefitScheduler;
