//! # holo-serve
//!
//! A std-only concurrent model-serving subsystem: the layer that turns a
//! saved HoloDetect artifact (`FittedHoloDetect::save`) into a
//! long-running network service.
//!
//! The paper's economics are train-rarely / score-constantly: few-shot
//! fitting is the expensive step, and inference over incoming cells is
//! cheap and embarrassingly batchable. This crate is the deployment
//! shape of that split — a HoloClean-style detector session as a server:
//! load artifacts once, keep them resident, and answer detection queries
//! over tuples as they arrive.
//!
//! ## Why std-only
//!
//! The workspace builds offline — there is no registry to pull an HTTP
//! framework, async runtime, or JSON crate from. Like
//! [`holo_data::binio`] before it, the entire stack is hand-rolled over
//! std and threads:
//!
//! * [`http`] — an HTTP/1.1 server on `std::net::TcpListener`: fixed
//!   worker pool, keep-alive, request-size limits, per-connection panic
//!   isolation (a poisoned request costs a 500, never a worker), and
//!   graceful drain-then-join shutdown.
//! * [`json`] — a tokenizer/printer for the wire format with depth and
//!   node caps on untrusted input; printing uses shortest-roundtrip
//!   float formatting so scores survive the wire bit for bit.
//! * [`registry`] — [`registry::ModelRegistry`]: names → `Arc`-held
//!   loaded artifacts behind one read-mostly lock, with atomic hot-swap
//!   reload from disk (`POST /v1/models/{name}/reload`). Entries are
//!   **static** (immutable artifact) or **live** (a
//!   `holo_stream::LiveModel` with streaming ingest, drift monitoring,
//!   and background drift-triggered refit — endpoints
//!   `POST .../rows`, `GET .../drift`, `POST .../refit`).
//! * [`metrics`] — saturating counters bumped once per request from
//!   its finished trace, per-category [`holo_eval::ModelError`] counts,
//!   and the trace recorder's latency histograms on `GET /metrics`,
//!   rendered as parseable Prometheus text format.
//! * [`app`] — the endpoints, request/response schemas, and the
//!   `ModelError` → HTTP status mapping.
//!
//! Every request is traced through `holo-trace`: each request begins a
//! trace on its worker, every `holo_trace::stage` it runs (`parse` /
//! `validate` / `score` / `encode`, and the live model's ingest and
//! install stages) becomes a span noting its time and allocations, and
//! the trace id is echoed as the `x-holo-trace` response header. Once
//! `/metrics` has counted the finished trace, it is moved into the
//! recorder, whose bounded in-memory ring
//! ([`holo_trace::RecorderConfig`]'s default 1 MiB) is served by
//! `GET /v1/trace/recent`, `/v1/trace/{id}`, and `/v1/trace/slow`; the
//! request-latency and per-stage latency histograms land on
//! `GET /metrics`.
//!
//! The stack is continuously profiled through `holo-prof`: the serving
//! locks (model registry, HTTP accept queue) are instrumented
//! [`holo_prof::ProfMutex`]/[`holo_prof::ProfRwLock`] wrappers, the
//! worker pools book busy/idle time, and the counting allocator's
//! per-thread counters give every stage span its allocation notes.
//! `GET /v1/prof` serves the snapshot — allocation scopes summed from
//! the recorded stage spans — and `/metrics` carries the `holo_prof_*`
//! families.
//!
//! ## Scoring concurrency
//!
//! Each score request is scored by one `score_batch` call on the HTTP
//! worker that parsed it, so at most `--workers` calls run at once.
//! Each call spreads its featurization over the model's `cfg.threads`.
//!
//! ## Quickstart
//!
//! ```text
//! holo-serve --model food=food.holoart --addr 127.0.0.1:7878 --workers 8
//! curl -s localhost:7878/v1/models/food/score \
//!   -d '{"rows": [{"Zip": "60612", "City": "Cxhicago"}]}'
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod app;
pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;

pub use app::{error_status, start, RunningServer};
pub use holo_trace::{format_trace_id, parse_trace_id, SpanRecorder, Trace};
pub use http::{HttpConfig, Request, Response, ServerHandle};
pub use json::{parse as parse_json, Json, JsonError, ParseLimits};
pub use metrics::{model_error_category, Metrics};
pub use registry::{ModelRegistry, ServedModel};
