//! Workspace umbrella crate: re-exports the public API of every
//! HoloDetect reproduction crate so examples and integration tests can
//! use a single dependency.
//!
//! # The fit → save → load → score lifecycle
//!
//! The detector API is staged the way a deployment is: train the noisy
//! channel + augmentation + wide-and-deep model **once** on a reference
//! sample, persist the resulting artifact, and score any number of cell
//! batches — of the fit dataset or of schema-compatible datasets loaded
//! long after — through the resulting [`eval::TrainedModel`]:
//!
//! ```no_run
//! use holodetect_repro::core::{FittedHoloDetect, HoloDetect, HoloDetectConfig};
//! use holodetect_repro::eval::{Detector, FitContext, TrainedModel};
//! use std::path::Path;
//! # fn ctx() -> FitContext<'static> { unimplemented!() }
//! # fn batch() -> holodetect_repro::data::Dataset { unimplemented!() }
//! # fn cells() -> Vec<holodetect_repro::data::CellId> { unimplemented!() }
//!
//! let detector = HoloDetect::new(HoloDetectConfig::default());
//! let model = detector.fit_model(&ctx());      // learn once (expensive)
//! model.save(Path::new("detector.holoart"))?;  // deploy the file
//!
//! // …in a later process:
//! let served = FittedHoloDetect::load(Path::new("detector.holoart"))?;
//! let incoming = batch();                      // unseen data, same schema
//! let probs = served.score_batch(&incoming, &cells())?;
//! let labels = served.predict_batch(&incoming, &cells(), served.default_threshold())?;
//! # Ok::<(), holodetect_repro::eval::ModelError>(())
//! ```
//!
//! Models are owned and `'static` (no borrow of the fit context
//! survives), `Send + Sync` (batches can be scored concurrently from
//! many threads — the hook sharding/batching/serving layers build on),
//! and defensive (schema mismatches and out-of-range cells are typed
//! [`eval::ModelError`]s, never garbage scores). A reloaded artifact
//! scores bit-identically to the in-process model. The one-call
//! [`eval::Detector::detect`] shim remains for harness one-liners.
//!
//! # Crates
//!
//! * [`data`] — datasets, cells, labels, ground truth,
//! * [`text`] — tokenization, n-grams, edit distance,
//! * [`constraints`] — denial constraints and violation detection,
//! * [`embed`] — skip-gram embeddings,
//! * [`channel`] — the noisy channel: transformation learning,
//!   policies, augmentation (Algorithms 1–4), weak supervision,
//! * [`features`] — the multi-granularity representation `Q`,
//! * [`nn`] — the neural substrate: layers, ADAM, Platt scaling,
//! * [`core`] — the HoloDetect pipeline and its training strategies,
//! * [`baselines`] — the competing methods of Table 2,
//! * [`eval`] — the detector API, splits, metrics, multi-seed runs,
//! * [`datagen`] — simulated stand-ins for the paper's five datasets,
//! * [`serve`] — the std-only serving subsystem: HTTP scoring server,
//!   model registry with hot reload, metrics,
//! * [`stream`] — streaming ingest: durable delta logs, incremental
//!   model maintenance (bitwise-equal to a rebuild at the same epoch),
//!   drift monitoring, and background drift-triggered refit,
//! * [`scenarios`] — the multi-dataset scenario suite: paper-style
//!   schemas driven through fit → serve → stream → drift → refit with
//!   PR-AUC/F1 tracked per schema and gated in CI against
//!   `BENCH_scenarios.json`,
//! * [`adapt`] — few-shot drift adaptation: PSI/KS score-distribution
//!   drift detection, labeled probe pools, and the label → channel →
//!   augment → refit pipeline that recovers quality on quiet drift,
//! * [`trace`] — request-scoped span tracing: monotonic span trees, a
//!   bounded ring-buffer recorder with slow-request exemplars, and
//!   refit timelines, surfaced as `/v1/trace/*` endpoints and
//!   per-stage `/metrics` histograms by [`serve`].

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub use holo_adapt as adapt;
pub use holo_baselines as baselines;
pub use holo_channel as channel;
pub use holo_constraints as constraints;
pub use holo_data as data;
pub use holo_datagen as datagen;
pub use holo_embed as embed;
pub use holo_eval as eval;
pub use holo_features as features;
pub use holo_nn as nn;
pub use holo_scenarios as scenarios;
pub use holo_serve as serve;
pub use holo_stream as stream;
pub use holo_text as text;
pub use holo_trace as trace;
pub use holodetect as core;
