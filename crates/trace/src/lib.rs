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
//! install. This crate records both paths as cheap monotonic-clock
//! span trees, timed by one [`stage`] guard, so exemplars (individual
//! slow requests) and aggregates (per-stage histograms and allocation
//! totals) are derived from the *same* measurements and can never
//! disagree.
//!
//! ## Pieces
//!
//! * [`Stopwatch`] — the workspace's single monotonic-clock helper,
//!   re-exported from `holo-prof` (the layer below this one, where the
//!   clock now lives so lock/pool profiling and spans share it).
//!   Everything that times anything (scenario runner, bench bins, the
//!   spans below) goes through it instead of ad-hoc
//!   [`std::time::Instant`] arithmetic.
//! * [`stage`] — the one way a stage is timed. The guard reads the
//!   clock and the thread's allocation counters on entry, opens a
//!   child span when the thread has a current trace, and on close
//!   (drop, or [`Stage::end`], which returns the microseconds) closes
//!   the span with the stage's `allocs` and `alloc_bytes` noted on it.
//!   Without a current trace it only times.
//! * [`ActiveTrace`] — a trace installed as the thread's current one,
//!   so stages inside code that takes no trace parameter (ingest,
//!   refit) still land in it. [`ActiveTrace::begin`] is the one way to
//!   start a trace. A trace begun while another is current shadows it
//!   until it finishes; finishing or dropping uninstalls it.
//!   [`ActiveTrace::finish`] only returns the completed [`Trace`]: a
//!   trace is built once and then moved, never copied. The server
//!   moves each finished request trace into its recorder once
//!   `/metrics` has counted it. Trace ids are u64s from a process-wide
//!   counter mixed through splitmix64, rendered as 16 hex digits.
//! * [`SpanRecorder`] — a bounded ring buffer of completed traces
//!   (fixed byte budget, overwrite-oldest) plus a slow-request exemplar
//!   store keeping the N worst traces per endpoint, plus per-stage
//!   duration histograms and allocation totals, and one histogram of
//!   every trace's root span, accumulated as traces arrive. The ring
//!   and the exemplar store share one `Arc` per trace.
//! * [`RefitTimeline`] / [`TimelineRing`] — the span trees of model
//!   refits, kept per live model and served as
//!   `GET /v1/models/{name}/refits`.
//!
//! ## Example
//!
//! ```
//! use holo_trace::{stage, ActiveTrace, RecorderConfig, SpanRecorder, Stopwatch, Value};
//!
//! let recorder = SpanRecorder::new(RecorderConfig::default());
//! let trace = ActiveTrace::begin("/v1/models/{name}/score", Stopwatch::start());
//! {
//!     let validate = stage("validate");
//!     let rows: Vec<u64> = Vec::with_capacity(10);
//!     validate.note("rows", Value::U64(rows.capacity() as u64));
//! }
//! let score_micros = stage("score").end();
//! let trace = trace.finish();
//! assert_eq!(trace.stage_micros("score"), score_micros);
//!
//! let (id, total_micros) = (trace.id, trace.total_micros);
//! recorder.record(trace);
//! assert_eq!(recorder.get(id).map(|t| t.spans.len()), Some(3));
//! let (stages, roots) = recorder.stages();
//! let validate = stages.into_iter().find(|s| s.stage == "validate");
//! assert!(validate.is_some_and(|s| s.alloc_bytes >= 80));
//! assert_eq!((roots.count, roots.sum_micros), (1, total_micros));
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod recorder;
mod refit;
mod span;

pub use holo_prof::Stopwatch;
pub use recorder::{RecorderConfig, SpanRecorder, StageStat, STAGE_BOUNDS_MICROS};
pub use refit::{RefitTimeline, TimelineRing};
pub use span::{
    format_trace_id, note, parse_trace_id, stage, ActiveTrace, Span, Stage, Trace, Value,
};
