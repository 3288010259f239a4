//! # holo-trace
//!
//! Request-scoped span tracing for the serving stack: the instrumentation
//! seam that turns "the p99 got slow" into "validate grew 4× while
//! score stayed flat".
//!
//! `/metrics` aggregates answer *how much*; they cannot answer *where*.
//! A scored request crosses HTTP parse → validation → `score_batch` →
//! JSON encode, and a background refit crosses snapshot → adapt
//! (label-drain, channel-learn, augment) → `refit_with` → persist →
//! install. This crate records both paths as cheap
//! monotonic-clock span trees so exemplars (individual slow requests)
//! and aggregates (per-stage histograms) are derived from the *same*
//! measurements and can never disagree.
//!
//! ## Pieces
//!
//! * [`Stopwatch`] — the workspace's single monotonic-clock helper,
//!   re-exported from `holo-prof` (the layer below this one, where the
//!   clock now lives so lock/pool profiling and spans share it).
//!   Everything that times anything (scenario runner, bench bins, the
//!   spans below) goes through it instead of ad-hoc
//!   [`std::time::Instant`] arithmetic.
//! * [`Tracer`] / [`TraceBuilder`] — build one span tree per request:
//!   `tracer.span("score")` opens the root (`span_since` backdates it,
//!   e.g. to a request's first byte), `.child("validate")` nests,
//!   [`TraceBuilder::finish`] closes everything and hands the completed
//!   [`Trace`] to the recorder. Trace ids are u64s from a process-wide
//!   counter mixed through splitmix64, rendered as 16 hex digits.
//! * [`SpanRecorder`] — a bounded ring buffer of completed traces
//!   (fixed byte budget, overwrite-oldest) plus a slow-request exemplar
//!   store keeping the N worst traces per endpoint, plus per-stage
//!   duration histograms accumulated as traces arrive.
//! * [`RefitTimeline`] / [`TimelineRing`] — durable phase-duration
//!   records for model refits, kept per live model and served as
//!   `GET /v1/models/{name}/refits`.
//!
//! ## Example
//!
//! ```
//! use holo_trace::{RecorderConfig, SpanRecorder, Tracer, Value};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(SpanRecorder::new(RecorderConfig::default()));
//! let tracer = Tracer::new(Arc::clone(&recorder));
//!
//! let mut t = tracer.span("/v1/models/{name}/score");
//! t.child("validate");
//! t.annotate("rows", Value::U64(10));
//! t.close();
//! t.child_micros("score", 1_900);
//! t.child_micros("encode", 450);
//! let trace = t.finish();
//!
//! assert_eq!(recorder.get(trace.id).map(|t| t.spans.len()), Some(4));
//! assert!(trace.stage_micros("score") >= 1_900);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod recorder;
mod refit;
mod span;

pub use holo_prof::{duration_micros, nonzero_micros, Stopwatch};
pub use recorder::{RecorderConfig, SpanRecorder, StageStat, STAGE_BOUNDS_MICROS};
pub use refit::{RefitPhase, RefitTimeline, TimelineRing};
pub use span::{format_trace_id, parse_trace_id, Span, Trace, TraceBuilder, Tracer, Value};
