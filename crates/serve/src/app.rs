//! The serving application: endpoint routing, JSON ingest/egress, and
//! the [`ModelError`] → HTTP status mapping.
//!
//! ## Endpoints
//!
//! | Endpoint                        | Meaning                                   |
//! |---------------------------------|-------------------------------------------|
//! | `POST /v1/models/{name}/score`  | calibrated error probability per cell     |
//! | `POST /v1/models/{name}/predict`| thresholded labels (+ scores)             |
//! | `POST /v1/models/{name}/reload` | atomic hot-swap from the artifact file    |
//! | `POST /v1/models/{name}/rows`   | streaming ingest (live models only)       |
//! | `GET /v1/models/{name}/drift`   | drift report (live models only)           |
//! | `POST /v1/models/{name}/labels` | operator labels for adaptation (live only)|
//! | `POST /v1/models/{name}/refit`  | forced refit + hot swap (live models only)|
//! | `GET /v1/models/{name}/refits`  | recent refit timelines (live models only) |
//! | `GET /v1/trace/recent`          | most recent request traces                |
//! | `GET /v1/trace/{id}`            | one trace by its `x-holo-trace` id        |
//! | `GET /v1/trace/slow`            | slowest retained traces per endpoint      |
//! | `GET /v1/prof`                  | profiling snapshot: allocs, locks, pools  |
//! | `GET /healthz`                  | liveness + registered model names         |
//! | `GET /metrics`                  | counters, histograms, stream gauges       |
//!
//! ## Profiling
//!
//! `GET /v1/prof` snapshots the in-process profiler (`holo-prof`):
//! global heap counters, the top allocation scopes (each stage's
//! `allocs`/`alloc_bytes` notes summed over this server's recorded
//! traces), every instrumented lock ranked hottest-wait-first, and
//! per-pool worker utilization. All counters are cumulative and
//! monotone for the life of the server. Traces answer *where the time
//! went* per request; this page answers *why* — which lock scoring
//! waited on, which stage allocates, whether the worker pools are
//! saturated.
//!
//! ## Tracing
//!
//! Every request is traced: the handler begins a `holo-trace` trace
//! named after the *normalized* endpoint (`/v1/models/{name}/score`,
//! never the raw path — label cardinality stays bounded) as the
//! worker's current trace, so every `holo_trace::stage` the request
//! runs becomes a child span carrying its allocation notes (`parse`,
//! `validate`, `score`, `encode`; `log-append` / `apply-delta` /
//! `drift-update` on ingest; `install` on refit and reload), and
//! echoes the trace id back as the `x-holo-trace` response header.
//! Finished traces land in a bounded in-memory ring
//! ([`holo_trace::SpanRecorder`]) the three `/v1/trace/*` endpoints
//! page, and their span durations feed the
//! `holo_trace_stage_micros{stage=...}` histograms on `/metrics`.
//!
//! The four streaming endpoints answer 409 for a model served
//! statically; registering a `holo_stream::LiveModel` through
//! [`ModelRegistry::insert_live`] enables them (see the README's
//! Streaming section and the `holo-serve --stream` flag).
//!
//! A `/labels` body carries labeled rows — the row index into the
//! served reference plus that row's *clean* values, shaped like any
//! other row object and validated through the same
//! [`Schema::row_from_pairs`] path:
//!
//! ```json
//! {"labels": [{"row": 50, "values": {"Zip": "60612", "City": "Chicago"}}]}
//! ```
//!
//! Accepted labels feed the probe drift signal immediately and buffer
//! for the next refit, which takes the adaptive path (channel learning
//! and augmentation over ≤ `refit_label_budget` labels). `GET /drift`
//! reports the three signals — PSI and KS over the per-attribute score
//! histograms, and probe disagreement — each against its threshold,
//! which fired, whether a refit is due, and the pending label count.
//!
//! A score/predict body carries schema-shaped rows plus (optionally) the
//! target cells:
//!
//! ```json
//! {"rows": [{"Zip": "60612", "City": "Chicago"}],
//!  "cells": [{"row": 0, "attr": "City"}]}
//! ```
//!
//! Rows are validated into the model's fitted schema through
//! [`Schema::row_from_pairs`] — unknown columns, missing columns, and
//! duplicates are 400s with the offending name in the message, never
//! silently reordered data. Omitting `"cells"` scores every cell.
//!
//! ## Error mapping
//!
//! Typed [`ModelError`]s map onto statuses ([`error_status`]): client-
//! shaped failures (`SchemaMismatch`, `CellOutOfBounds`) are 400s, an
//! unusable degenerate model is a 409, and artifact I/O or format
//! failures (reloads) are 500s. Every mapped error's category is also
//! noted on the request's trace and counted from it in the metrics, so
//! a schema-mismatch storm is visible on `GET /metrics` as such.

use crate::http::{self, Handler, HttpConfig, Request, Response, ServerHandle};
use crate::json::{self, Json, ParseLimits};
use crate::metrics::{
    alloc_scopes, escape_label, model_error_category, render_nn_cache_metrics, render_prof_metrics,
    render_stage_histograms, write_family_header, Metrics, CATEGORY_NOTE, CELLS_SCORED_NOTE,
    REFIT_ENDPOINT, RELOAD_ENDPOINT, STATUS_NOTE,
};
use crate::registry::{ModelRegistry, ServedModel};
use holo_data::{CellId, Dataset, DatasetBuilder, Schema};
use holo_eval::ModelError;
use holo_trace::{
    format_trace_id, parse_trace_id, stage, RecorderConfig, SpanRecorder, Trace, Value,
};
use std::io;
use std::sync::Arc;

/// Traces `GET /v1/trace/recent` returns at most.
const RECENT_TRACES_SERVED: usize = 32;
/// Timelines `GET /v1/models/{name}/refits` returns at most.
const REFIT_TIMELINES_SERVED: usize = 16;

/// The HTTP status a [`ModelError`] maps to.
pub fn error_status(e: &ModelError) -> u16 {
    match e {
        ModelError::SchemaMismatch { .. } | ModelError::CellOutOfBounds { .. } => 400,
        ModelError::Degenerate { .. } => 409,
        ModelError::Io(_) | ModelError::Format(_) => 500,
    }
}

/// One live registry entry on the metrics page: name, session, and its
/// drift report (taken once so the page is a consistent snapshot).
type LivePageEntry = (
    String,
    Arc<holo_stream::LiveModel>,
    holo_stream::DriftReport,
);

/// Formats one gauge value from a [`LivePageEntry`].
type GaugeFn<'a> = &'a dyn Fn(&LivePageEntry) -> String;

/// Shared state behind the handler closure.
struct App {
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    limits: ParseLimits,
    recorder: Arc<SpanRecorder>,
}

/// A running serving stack: HTTP server + registry.
pub struct RunningServer {
    /// Captured at bind time so `addr()` never depends on whether the
    /// handle has been taken for shutdown.
    addr: std::net::SocketAddr,
    http: Option<ServerHandle>,
}

impl RunningServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Graceful shutdown: drain in-flight HTTP requests, then join
    /// every worker.
    pub fn shutdown(mut self) {
        if let Some(h) = self.http.take() {
            h.shutdown();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if let Some(h) = self.http.take() {
            h.shutdown();
        }
    }
}

/// Bind `addr` and serve the registry. Returns once listening.
pub fn start(
    addr: &str,
    cfg: HttpConfig,
    registry: Arc<ModelRegistry>,
) -> io::Result<RunningServer> {
    let app = Arc::new(App {
        registry,
        metrics: Arc::new(Metrics::new()),
        limits: ParseLimits::default(),
        recorder: Arc::new(SpanRecorder::new(RecorderConfig::default())),
    });
    let handler: Handler = {
        let app = Arc::clone(&app);
        Arc::new(move |req: &Request| app.route(req))
    };
    // Count the responses the HTTP layer answers itself (oversized or
    // malformed requests, and the 500 of a handler that panicked) so
    // request storms and panics show up on /metrics.
    let observer = {
        let metrics = Arc::clone(&app.metrics);
        Arc::new(move |status: u16| metrics.record_protocol_error(status))
    };
    let http = http::serve_with_observer(addr, cfg, handler, Some(observer))?;
    Ok(RunningServer {
        addr: http.addr(),
        http: Some(http),
    })
}

/// A handler-level failure: status + message (+ the typed model error
/// when there is one, whose category the response and trace carry).
struct Failure {
    status: u16,
    msg: String,
    model_error: Option<ModelError>,
}

impl Failure {
    fn bad_request(msg: impl Into<String>) -> Self {
        Failure {
            status: 400,
            msg: msg.into(),
            model_error: None,
        }
    }

    fn not_found(msg: impl Into<String>) -> Self {
        Failure {
            status: 404,
            msg: msg.into(),
            model_error: None,
        }
    }

    fn model(e: ModelError) -> Self {
        Failure {
            status: error_status(&e),
            msg: e.to_string(),
            model_error: Some(e),
        }
    }

    /// The error response; a model error's category is also noted on
    /// the request's trace, which `/metrics` counts it from.
    fn into_response(self) -> Response {
        let mut body = vec![("error".to_string(), Json::Str(self.msg))];
        if let Some(e) = &self.model_error {
            let category = model_error_category(e);
            body.push(("category".to_string(), Json::Str(category.to_string())));
            holo_trace::note(CATEGORY_NOTE, Value::Str(category.to_string()));
        }
        Response::json(self.status, Json::Obj(body).to_string())
    }
}

impl App {
    fn route(&self, req: &Request) -> Response {
        // The trace starts at the request's first byte, so `parse`
        // sits at offset 0 and the handler's stages follow it.
        let trace = self.recorder.begin(endpoint_label(req), req.received);
        holo_trace::note("method", Value::Str(req.method.clone()));
        if req.parse_micros > 0 {
            trace.child_at("parse", 0, req.parse_micros);
        }
        let resp = self.dispatch(req).unwrap_or_else(Failure::into_response);
        holo_trace::note(STATUS_NOTE, Value::U64(u64::from(resp.status)));
        // The finished trace is the request's one record: the recorder
        // has its latency and stages, the metrics count its outcome.
        let trace = trace.finish();
        self.metrics.observe(&trace);
        resp.with_header("x-holo-trace", format_trace_id(trace.id))
    }

    fn dispatch(&self, req: &Request) -> Result<Response, Failure> {
        let segments: Vec<&str> = req
            .path_only()
            .split('/')
            .filter(|s| !s.is_empty())
            .collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Ok(self.healthz()),
            ("GET", ["metrics"]) => Ok(Response::text(200, self.metrics_page())),
            ("POST", ["v1", "models", name, "score"]) => self.score(req, name, false),
            ("POST", ["v1", "models", name, "predict"]) => self.score(req, name, true),
            ("POST", ["v1", "models", name, "reload"]) => self.reload(name),
            ("POST", ["v1", "models", name, "rows"]) => self.ingest_rows(req, name),
            ("GET", ["v1", "models", name, "drift"]) => self.drift(name),
            ("POST", ["v1", "models", name, "labels"]) => self.labels(req, name),
            ("POST", ["v1", "models", name, "refit"]) => self.refit(name),
            ("GET", ["v1", "models", name, "refits"]) => self.refit_timelines(name),
            ("GET", ["v1", "trace", "recent"]) => Ok(self.trace_recent()),
            ("GET", ["v1", "trace", "slow"]) => Ok(self.trace_slow()),
            ("GET", ["v1", "trace", id]) => self.trace_by_id(id),
            ("GET", ["v1", "prof"]) => Ok(self.prof_page()),
            (_, ["healthz" | "metrics"])
            | (_, ["v1", "trace", _])
            | (_, ["v1", "prof"])
            | (
                _,
                ["v1", "models", _, "score" | "predict" | "reload" | "rows" | "drift" | "labels" | "refit" | "refits"],
            ) => Err(Failure {
                status: 405,
                msg: format!("method {} not allowed here", req.method),
                model_error: None,
            }),
            _ => Err(Failure::not_found(format!(
                "no such endpoint: {}",
                req.path_only()
            ))),
        }
    }

    /// The `/metrics` page: global counters (ingested rows and received
    /// labels summed over the live models), per-model streaming gauges
    /// (epoch, rows since refit, refits, generation, pending labels,
    /// per-attribute PSI/KS) for every live registry entry, and the
    /// per-stage trace histograms. Every family carries `# HELP`/`# TYPE`
    /// and every label value is escaped — the whole page stays parseable
    /// Prometheus text format.
    fn metrics_page(&self) -> String {
        let (stages, requests) = self.recorder.stages();
        let mut page = self.metrics.render(&requests);
        use std::fmt::Write as _;
        let mut lives = Vec::new();
        for name in self.registry.names() {
            let Some(model) = self.registry.get(&name) else {
                continue;
            };
            let Some(live) = model.live().cloned() else {
                continue;
            };
            let report = live.drift_report();
            lives.push((name, live, report));
        }
        // Each live model counts its own successful ingests and label
        // posts; the process totals are their sums (0 with none live).
        let (rows, labels) = lives
            .iter()
            .fold((0u64, 0u64), |(rows, labels), (_, live, _)| {
                (
                    rows.saturating_add(live.rows_ingested()),
                    labels.saturating_add(live.labels_received()),
                )
            });
        for (family, help, total) in [
            (
                "holo_serve_rows_ingested_total",
                "Rows accepted by streaming ingest.",
                rows,
            ),
            (
                "holo_serve_labels_received_total",
                "Operator labels accepted by /labels calls.",
                labels,
            ),
        ] {
            write_family_header(&mut page, family, help, "counter");
            let _ = writeln!(page, "{family} {total}");
        }
        if !lives.is_empty() {
            let gauges: [(&str, &str, GaugeFn<'_>); 5] = [
                (
                    "holo_stream_epoch",
                    "Ops applied since the original fit.",
                    &|(_, live, _)| live.epoch().to_string(),
                ),
                (
                    "holo_stream_rows_since_refit",
                    "Rows ingested since the last refit.",
                    &|(_, _, report)| report.rows_since_refit.to_string(),
                ),
                (
                    "holo_stream_refits_total",
                    "Completed refits over this process's lifetime.",
                    &|(_, live, _)| live.refits_total().to_string(),
                ),
                (
                    "holo_stream_generation",
                    "Hot-swap count (0 until the first install).",
                    &|(_, live, _)| live.generation().to_string(),
                ),
                (
                    "holo_stream_labels_pending",
                    "Operator labels buffered for the next adaptive refit.",
                    &|(_, live, _)| live.labels_pending().to_string(),
                ),
            ];
            for (family, help, value) in gauges {
                write_family_header(&mut page, family, help, "gauge");
                for entry in &lives {
                    let _ = writeln!(
                        page,
                        "{family}{{model=\"{}\"}} {}",
                        escape_label(&entry.0),
                        value(entry)
                    );
                }
            }
            // Per-attribute shape-drift gauges: the values behind the PSI
            // and KS drift signals.
            for (stat, help) in [
                ("psi", "Per-attribute PSI of recent scores vs the baseline."),
                (
                    "ks",
                    "Per-attribute KS statistic of recent scores vs the baseline.",
                ),
            ] {
                write_family_header(&mut page, &format!("holo_adapt_{stat}"), help, "gauge");
                for (name, live, report) in &lives {
                    let series = if stat == "psi" {
                        &report.psi
                    } else {
                        &report.ks
                    };
                    let names = live.schema().names();
                    for (i, v) in series.iter().enumerate() {
                        let attr = names.get(i).map(String::as_str).unwrap_or("?");
                        let _ = writeln!(
                            page,
                            "holo_adapt_{stat}{{model=\"{}\",attr=\"{}\"}} {v}",
                            escape_label(name),
                            escape_label(attr)
                        );
                    }
                }
            }
        }
        let recorder = &self.recorder;
        for (family, help, value) in [
            (
                "holo_trace_recorded_total",
                "Traces delivered to the span recorder.",
                recorder.recorded_total(),
            ),
            (
                "holo_trace_evicted_total",
                "Traces evicted from (or refused by) the recorder ring.",
                recorder.evicted_total(),
            ),
        ] {
            write_family_header(&mut page, family, help, "counter");
            let _ = writeln!(page, "{family} {value}");
        }
        write_family_header(
            &mut page,
            "holo_trace_ring_bytes_used",
            "Approximate bytes the trace ring currently holds.",
            "gauge",
        );
        let _ = writeln!(
            page,
            "holo_trace_ring_bytes_used {}",
            recorder.ring_bytes_used()
        );
        render_stage_histograms(&stages, &mut page);
        // Profiler families (allocation scopes, lock waits, pool
        // ratios) and per-model neighbour-cache effectiveness.
        render_prof_metrics(&stages, &mut page);
        let mut nn_stats = Vec::new();
        for name in self.registry.names() {
            if let Some(model) = self.registry.get(&name) {
                nn_stats.push((name, model.nn_cache_stats()));
            }
        }
        render_nn_cache_metrics(&nn_stats, &mut page);
        page
    }

    /// The live session behind `name`, or the typed failures: 404 for
    /// an unknown model, 409 for one served statically (streaming was
    /// not enabled for it).
    fn live_session(&self, name: &str) -> Result<std::sync::Arc<holo_stream::LiveModel>, Failure> {
        let model = self
            .registry
            .get(name)
            .ok_or_else(|| Failure::not_found(format!("no model named {name:?}")))?;
        model.live().cloned().ok_or_else(|| Failure {
            status: 409,
            msg: format!("model {name:?} is not served in streaming mode"),
            model_error: None,
        })
    }

    /// `POST /v1/models/{name}/rows` — batched streaming ingest. The
    /// body is the same `{"rows": [...]}` shape scoring takes; every
    /// row is validated into the fitted schema, appended durably to the
    /// delta log, and folded into the maintained model before the call
    /// returns (read-your-writes: a subsequent score sees the rows).
    fn ingest_rows(&self, req: &Request, name: &str) -> Result<Response, Failure> {
        let live = self.live_session(name)?;
        let validate = stage("validate");
        let body = std::str::from_utf8(&req.body)
            .map_err(|_| Failure::bad_request("request body is not utf-8"))?;
        let doc = json::parse_with_limits(body, &self.limits)
            .map_err(|e| Failure::bad_request(e.to_string()))?;
        let rows = doc
            .get("rows")
            .ok_or_else(|| Failure::bad_request("missing \"rows\" array"))?
            .as_arr()
            .ok_or_else(|| Failure::bad_request("\"rows\" must be an array of objects"))?;
        let validated = validated_rows(rows, live.schema())?;
        validate.note("rows", Value::U64(validated.len() as u64));
        drop(validate);
        let report = live.ingest_rows(validated).map_err(Failure::model)?;
        holo_trace::note("model", Value::Str(name.to_string()));
        Ok(Response::json(
            200,
            Json::Obj(vec![
                ("model".into(), Json::Str(name.into())),
                ("appended".into(), Json::Num(report.appended as f64)),
                ("epoch".into(), Json::Num(report.epoch as f64)),
            ])
            .to_string(),
        ))
    }

    /// `GET /v1/models/{name}/drift` — the three-signal drift report:
    /// per-attribute PSI/KS shape statistics, the probe pool, every
    /// signal against its threshold, which fired, whether a refit is
    /// due, and the pending label count. Signals, `fired` and
    /// `would_refit` all come from one monitor snapshot.
    fn drift(&self, name: &str) -> Result<Response, Failure> {
        let live = self.live_session(name)?;
        let r = live.drift_report();
        let names = live.schema().names();
        let per_attr = |series: &[f64]| {
            Json::Obj(
                series
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let attr = names.get(i).map(String::as_str).unwrap_or("?");
                        (attr.to_string(), Json::Num(v))
                    })
                    .collect(),
            )
        };
        let signals = r
            .signals
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("signal".into(), Json::Str(s.signal.name().into())),
                    ("value".into(), Json::Num(s.value)),
                    ("threshold".into(), Json::Num(s.threshold)),
                    ("fired".into(), Json::Bool(s.fired)),
                ])
            })
            .collect::<Vec<_>>();
        let fired = r
            .fired()
            .iter()
            .map(|s| Json::Str(s.name().into()))
            .collect::<Vec<_>>();
        Ok(Response::json(
            200,
            Json::Obj(vec![
                ("model".into(), Json::Str(name.into())),
                ("epoch".into(), Json::Num(live.epoch() as f64)),
                ("generation".into(), Json::Num(live.generation() as f64)),
                (
                    "rows_since_refit".into(),
                    Json::Num(r.rows_since_refit as f64),
                ),
                ("psi".into(), per_attr(&r.psi)),
                ("psi_max".into(), Json::Num(r.psi_max())),
                ("ks".into(), per_attr(&r.ks)),
                ("ks_max".into(), Json::Num(r.ks_max())),
                ("probe_checked".into(), Json::Num(r.probe_checked as f64)),
                ("probe_disagreement".into(), Json::Num(r.probe_disagreement)),
                ("fired".into(), Json::Arr(fired)),
                ("signals".into(), Json::Arr(signals)),
                (
                    "labels_pending".into(),
                    Json::Num(live.labels_pending() as f64),
                ),
                ("refits_total".into(), Json::Num(live.refits_total() as f64)),
                (
                    "would_refit".into(),
                    Json::Bool(r.would_refit(live.config().min_rows_between_refits)),
                ),
            ])
            .to_string(),
        ))
    }

    /// `POST /v1/models/{name}/labels` — accept operator labels on the
    /// served reference. Each label names a row index and that row's
    /// clean values; the values object is validated into the fitted
    /// schema through [`Schema::row_from_pairs`], exactly like scoring
    /// rows. Accepted labels immediately feed the probe drift signal
    /// and buffer for the next (adaptive) refit.
    fn labels(&self, req: &Request, name: &str) -> Result<Response, Failure> {
        let live = self.live_session(name)?;
        let body = std::str::from_utf8(&req.body)
            .map_err(|_| Failure::bad_request("request body is not utf-8"))?;
        let doc = json::parse_with_limits(body, &self.limits)
            .map_err(|e| Failure::bad_request(e.to_string()))?;
        let items = doc
            .get("labels")
            .ok_or_else(|| Failure::bad_request("missing \"labels\" array"))?
            .as_arr()
            .ok_or_else(|| Failure::bad_request("\"labels\" must be an array of objects"))?;
        let schema = live.schema().clone();
        let mut labels = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let row = item.get("row").and_then(Json::as_f64).ok_or_else(|| {
                Failure::bad_request(format!("labels[{i}]: missing numeric \"row\""))
            })?;
            if row < 0.0 || row.fract() != 0.0 || row > u32::MAX as f64 {
                return Err(Failure::bad_request(format!(
                    "labels[{i}]: \"row\" {row} is not a valid row index"
                )));
            }
            let values = item.get("values").ok_or_else(|| {
                Failure::bad_request(format!("labels[{i}]: missing \"values\" object"))
            })?;
            let clean = validated_rows(std::slice::from_ref(values), &schema)
                .map_err(|f| Failure::bad_request(format!("labels[{i}]: {}", f.msg)))?
                .pop()
                .ok_or_else(|| Failure::bad_request(format!("labels[{i}]: empty values")))?;
            labels.push(holo_stream::RowLabel {
                row: row as usize,
                clean,
            });
        }
        let accepted = live.add_labels(labels).map_err(Failure::model)?;
        let r = live.drift_report();
        Ok(Response::json(
            200,
            Json::Obj(vec![
                ("model".into(), Json::Str(name.into())),
                ("accepted".into(), Json::Num(accepted as f64)),
                (
                    "labels_pending".into(),
                    Json::Num(live.labels_pending() as f64),
                ),
                ("probe_checked".into(), Json::Num(r.probe_checked as f64)),
                ("probe_disagreement".into(), Json::Num(r.probe_disagreement)),
                (
                    "would_refit".into(),
                    Json::Bool(r.would_refit(live.config().min_rows_between_refits)),
                ),
            ])
            .to_string(),
        ))
    }

    /// `POST /v1/models/{name}/refit` — force a refit now: retrain on a
    /// snapshot (scoring continues), persist, and hot-swap through the
    /// live session's generation-bumped install.
    fn refit(&self, name: &str) -> Result<Response, Failure> {
        let live = self.live_session(name)?;
        let base_epoch = live.refit_to_disk().map_err(Failure::model)?;
        let generation = live.reload_install().map_err(Failure::model)?;
        Ok(Response::json(
            200,
            Json::Obj(vec![
                ("model".into(), Json::Str(name.into())),
                ("refit_epoch".into(), Json::Num(base_epoch as f64)),
                ("epoch".into(), Json::Num(live.epoch() as f64)),
                ("generation".into(), Json::Num(generation as f64)),
            ])
            .to_string(),
        ))
    }

    fn healthz(&self) -> Response {
        let models = self
            .registry
            .names()
            .into_iter()
            .map(Json::Str)
            .collect::<Vec<_>>();
        let body = Json::Obj(vec![
            ("status".into(), Json::Str("ok".into())),
            ("models".into(), Json::Arr(models)),
            (
                "uptime_secs".into(),
                Json::Num(self.metrics.uptime().as_secs() as f64),
            ),
        ]);
        Response::json(200, body.to_string())
    }

    fn reload(&self, name: &str) -> Result<Response, Failure> {
        match self.registry.reload(name) {
            None => Err(Failure::not_found(format!("no model named {name:?}"))),
            Some(Err(e)) => Err(Failure::model(e)),
            Some(Ok(model)) => Ok(Response::json(
                200,
                Json::Obj(vec![
                    ("model".into(), Json::Str(model.name().into())),
                    ("generation".into(), Json::Num(model.generation() as f64)),
                ])
                .to_string(),
            )),
        }
    }

    fn score(&self, req: &Request, name: &str, predict: bool) -> Result<Response, Failure> {
        holo_trace::note("model", Value::Str(name.to_string()));
        let validate = stage("validate");
        let model = self
            .registry
            .get(name)
            .ok_or_else(|| Failure::not_found(format!("no model named {name:?}")))?;
        let body = std::str::from_utf8(&req.body)
            .map_err(|_| Failure::bad_request("request body is not utf-8"))?;
        let doc = json::parse_with_limits(body, &self.limits)
            .map_err(|e| Failure::bad_request(e.to_string()))?;

        let (data, cells) = self.ingest(&doc, &model)?;
        validate.note("rows", Value::U64(data.n_tuples() as u64));
        validate.note("cells", Value::U64(cells.len() as u64));
        drop(validate);

        let score = stage("score");
        let result = guarded(|| model.score_batch(&data, &cells));
        drop(score);
        let (scores, generation, model_threshold) = result.map_err(Failure::model)?;
        holo_trace::note(CELLS_SCORED_NOTE, Value::U64(scores.len() as u64));

        let _encode = stage("encode");
        let mut out = vec![
            ("model".to_string(), Json::Str(model.name().into())),
            ("generation".to_string(), Json::Num(generation as f64)),
        ];
        if predict {
            let threshold = match doc.get("threshold") {
                None => model_threshold,
                Some(t) => t
                    .as_f64()
                    .ok_or_else(|| Failure::bad_request("\"threshold\" must be a number"))?,
            };
            let labels = scores
                .iter()
                .map(|&p| Json::Str(if p >= threshold { "error" } else { "correct" }.into()))
                .collect();
            out.push(("threshold".into(), Json::Num(threshold)));
            out.push(("labels".into(), Json::Arr(labels)));
        }
        out.push((
            "scores".into(),
            Json::Arr(scores.into_iter().map(Json::Num).collect()),
        ));
        Ok(Response::json(200, Json::Obj(out).to_string()))
    }

    /// `GET /v1/prof` — one consistent JSON snapshot of the in-process
    /// profiler: global heap counters, top allocation scopes (heaviest
    /// first, summed from this server's recorded stage spans),
    /// instrumented locks (hottest wait first), and worker-pool
    /// utilization. Every counter is cumulative, so successive
    /// snapshots are monotone non-decreasing.
    fn prof_page(&self) -> Response {
        let totals = holo_prof::alloc_totals();
        let scopes = alloc_scopes(&self.recorder.stages().0)
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("scope".into(), Json::Str(s.stage.clone())),
                    ("allocs".into(), Json::Num(s.allocs as f64)),
                    ("bytes".into(), Json::Num(s.alloc_bytes as f64)),
                ])
            })
            .collect::<Vec<_>>();
        let locks = holo_prof::lock_snapshots()
            .into_iter()
            .map(|l| {
                Json::Obj(vec![
                    ("lock".into(), Json::Str(l.lock.to_string())),
                    ("acquires".into(), Json::Num(l.acquires as f64)),
                    ("contended".into(), Json::Num(l.contended as f64)),
                    ("wait_micros".into(), Json::Num(l.wait_micros as f64)),
                    ("hold_micros".into(), Json::Num(l.hold_micros as f64)),
                ])
            })
            .collect::<Vec<_>>();
        let pools = holo_prof::pool_snapshots()
            .into_iter()
            .map(|p| {
                Json::Obj(vec![
                    ("pool".into(), Json::Str(p.pool.to_string())),
                    ("busy_micros".into(), Json::Num(p.busy_micros as f64)),
                    ("idle_micros".into(), Json::Num(p.idle_micros as f64)),
                    ("tasks".into(), Json::Num(p.tasks as f64)),
                    ("busy_ratio".into(), Json::Num(p.busy_ratio)),
                ])
            })
            .collect::<Vec<_>>();
        Response::json(
            200,
            Json::Obj(vec![
                ("enabled".into(), Json::Bool(true)),
                (
                    "alloc".into(),
                    Json::Obj(vec![
                        ("allocs".into(), Json::Num(totals.allocs as f64)),
                        ("bytes".into(), Json::Num(totals.bytes as f64)),
                        ("freed_bytes".into(), Json::Num(totals.freed_bytes as f64)),
                        ("live_bytes".into(), Json::Num(totals.live_bytes as f64)),
                        ("peak_bytes".into(), Json::Num(totals.peak_bytes as f64)),
                    ]),
                ),
                ("scopes".into(), Json::Arr(scopes)),
                ("locks".into(), Json::Arr(locks)),
                ("pools".into(), Json::Arr(pools)),
            ])
            .to_string(),
        )
    }

    /// `GET /v1/trace/recent` — the newest traces still in the ring.
    fn trace_recent(&self) -> Response {
        let traces = self.recorder.recent(RECENT_TRACES_SERVED);
        Response::json(
            200,
            Json::Obj(vec![(
                "traces".into(),
                Json::Arr(traces.iter().map(trace_json).collect()),
            )])
            .to_string(),
        )
    }

    /// `GET /v1/trace/{id}` — one trace by its `x-holo-trace` id.
    fn trace_by_id(&self, id: &str) -> Result<Response, Failure> {
        let parsed = parse_trace_id(id)
            .ok_or_else(|| Failure::bad_request(format!("invalid trace id {id:?}")))?;
        let trace = self.recorder.get(parsed).ok_or_else(|| {
            Failure::not_found(format!("no trace {id:?} (the ring may have evicted it)"))
        })?;
        Ok(Response::json(200, trace_json(&trace).to_string()))
    }

    /// `GET /v1/trace/slow` — the slowest retained traces per endpoint.
    fn trace_slow(&self) -> Response {
        let slow = self
            .recorder
            .slow()
            .into_iter()
            .map(|(endpoint, traces)| {
                Json::Obj(vec![
                    ("endpoint".into(), Json::Str(endpoint)),
                    (
                        "traces".into(),
                        Json::Arr(traces.iter().map(trace_json).collect()),
                    ),
                ])
            })
            .collect();
        Response::json(
            200,
            Json::Obj(vec![("endpoints".into(), Json::Arr(slow))]).to_string(),
        )
    }

    /// `GET /v1/models/{name}/refits` — the last few refit timelines,
    /// newest first: trigger, phases with durations, installed or not.
    fn refit_timelines(&self, name: &str) -> Result<Response, Failure> {
        let live = self.live_session(name)?;
        let refits = live
            .refit_timelines(REFIT_TIMELINES_SERVED)
            .into_iter()
            .map(|t| {
                Json::Obj(vec![
                    ("trigger".into(), Json::Str(t.trigger.clone())),
                    ("base_epoch".into(), Json::Num(t.base_epoch as f64)),
                    ("installed".into(), Json::Bool(t.installed())),
                    ("total_micros".into(), Json::Num(t.total_micros() as f64)),
                    (
                        "phases".into(),
                        Json::Arr(
                            t.phases()
                                .into_iter()
                                .map(|(phase, micros)| {
                                    Json::Obj(vec![
                                        ("phase".into(), Json::Str(phase)),
                                        ("micros".into(), Json::Num(micros as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Ok(Response::json(
            200,
            Json::Obj(vec![
                ("model".into(), Json::Str(name.into())),
                ("refits".into(), Json::Arr(refits)),
            ])
            .to_string(),
        ))
    }

    /// Decode `{"rows": [...], "cells": [...]}` into a dataset batch
    /// shaped by the model's fitted schema, plus the target cells.
    fn ingest(&self, doc: &Json, model: &ServedModel) -> Result<(Dataset, Vec<CellId>), Failure> {
        let rows = doc
            .get("rows")
            .ok_or_else(|| Failure::bad_request("missing \"rows\" array"))?
            .as_arr()
            .ok_or_else(|| Failure::bad_request("\"rows\" must be an array of objects"))?;

        // The fitted schema shapes the batch; a degenerate artifact has
        // none, so the first row's keys define it.
        let schema = match model.schema() {
            Some(s) => s.clone(),
            None => schema_from_first_row(rows)?,
        };

        let mut b = DatasetBuilder::new(schema.clone()).with_capacity(rows.len());
        for row in validated_rows(rows, &schema)? {
            b.push_row(&row);
        }
        let data = b.build();

        let cells = match doc.get("cells") {
            None => data.cell_ids().collect(),
            Some(spec) => {
                let arr = spec
                    .as_arr()
                    .ok_or_else(|| Failure::bad_request("\"cells\" must be an array"))?;
                let mut out = Vec::with_capacity(arr.len());
                for (i, c) in arr.iter().enumerate() {
                    out.push(
                        parse_cell(c, &schema)
                            .map_err(|msg| Failure::bad_request(format!("cells[{i}]: {msg}")))?,
                    );
                }
                out
            }
        };
        Ok((data, cells))
    }
}

/// Run scoring behind panic isolation: a panic in model code becomes a
/// typed `format` error (a counted 500), not an untyped worker-level 500.
fn guarded<T>(f: impl FnOnce() -> Result<T, ModelError>) -> Result<T, ModelError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err(ModelError::Format("model panicked while scoring".into())))
}

/// The normalized endpoint label a request's trace is filed under.
/// Path parameters become placeholders and unknown paths collapse to
/// one bucket: the label keys the slow-exemplar store and the stage
/// histograms, so it is one of these constants, never client bytes.
fn endpoint_label(req: &Request) -> &'static str {
    let segments: Vec<&str> = req
        .path_only()
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match segments.as_slice() {
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["v1", "models", _, "score"] => "/v1/models/{name}/score",
        ["v1", "models", _, "predict"] => "/v1/models/{name}/predict",
        ["v1", "models", _, "reload"] => RELOAD_ENDPOINT,
        ["v1", "models", _, "rows"] => "/v1/models/{name}/rows",
        ["v1", "models", _, "drift"] => "/v1/models/{name}/drift",
        ["v1", "models", _, "labels"] => "/v1/models/{name}/labels",
        ["v1", "models", _, "refit"] => REFIT_ENDPOINT,
        ["v1", "models", _, "refits"] => "/v1/models/{name}/refits",
        ["v1", "trace", "recent"] => "/v1/trace/recent",
        ["v1", "trace", "slow"] => "/v1/trace/slow",
        ["v1", "trace", _] => "/v1/trace/{id}",
        ["v1", "prof"] => "/v1/prof",
        _ => "/unmatched",
    }
}

/// A [`Value`] annotation as JSON.
fn value_json(v: &Value) -> Json {
    match v {
        Value::U64(x) => Json::Num(*x as f64),
        Value::F64(x) => Json::Num(*x),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
    }
}

/// A note list as a JSON object.
fn notes_json(notes: &[(&'static str, Value)]) -> Json {
    Json::Obj(
        notes
            .iter()
            .map(|(k, v)| ((*k).to_owned(), value_json(v)))
            .collect(),
    )
}

/// A completed [`Trace`] in the shape the `/v1/trace/*` endpoints serve:
/// spans carry parent *indices* into the flat span array (index 0 is
/// the root), offsets are microseconds from trace start.
fn trace_json(t: &Trace) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::Str(format_trace_id(t.id))),
        ("endpoint".into(), Json::Str(t.endpoint.clone())),
        ("total_micros".into(), Json::Num(t.total_micros as f64)),
        ("notes".into(), notes_json(&t.notes)),
        (
            "spans".into(),
            Json::Arr(
                t.spans
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(s.name.clone())),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("start_micros".into(), Json::Num(s.start_micros as f64)),
                            (
                                "duration_micros".into(),
                                Json::Num(s.duration_micros as f64),
                            ),
                            ("notes".into(), notes_json(&s.notes)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Validate a JSON `"rows"` array into schema-ordered value vectors —
/// the one parsing/validation path for every endpoint that takes rows
/// (`/score`, `/predict`, `/rows`), so the accepted row shape and the
/// error wording can never diverge between scoring and ingest.
fn validated_rows(rows: &[Json], schema: &Schema) -> Result<Vec<Vec<String>>, Failure> {
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let obj = row
            .as_obj()
            .ok_or_else(|| Failure::bad_request(format!("rows[{i}] is not an object")))?;
        let mut pairs = Vec::with_capacity(obj.len());
        for (key, value) in obj {
            pairs.push((
                key.as_str(),
                cell_string(value).ok_or_else(|| {
                    Failure::bad_request(format!(
                        "rows[{i}].{key:?} must be a string, number, or bool"
                    ))
                })?,
            ));
        }
        let row = schema
            .row_from_pairs(pairs)
            .map_err(|e| Failure::bad_request(format!("rows[{i}]: {e}")))?;
        out.push(row.into_values());
    }
    Ok(out)
}

/// The cell-value string of a scalar JSON value.
fn cell_string(v: &Json) -> Option<String> {
    match v {
        Json::Str(s) => Some(s.clone()),
        Json::Num(x) => Some(Json::Num(*x).to_string()),
        Json::Bool(b) => Some(b.to_string()),
        _ => None,
    }
}

/// For degenerate models only: derive a schema from the first row's
/// keys (the server has no fitted schema to validate against).
fn schema_from_first_row(rows: &[Json]) -> Result<Schema, Failure> {
    let Some(first) = rows.first() else {
        return Ok(Schema::new(Vec::<String>::new()));
    };
    let obj = first
        .as_obj()
        .ok_or_else(|| Failure::bad_request("rows[0] is not an object"))?;
    let mut names = Vec::with_capacity(obj.len());
    for (k, _) in obj {
        if names.contains(k) {
            return Err(Failure::bad_request(format!(
                "rows[0] repeats column {k:?}"
            )));
        }
        names.push(k.clone());
    }
    Ok(Schema::new(names))
}

/// Parse `{"row": n, "attr": name-or-index}` into a [`CellId`].
fn parse_cell(c: &Json, schema: &Schema) -> Result<CellId, String> {
    let row = c
        .get("row")
        .and_then(Json::as_f64)
        .ok_or("missing numeric \"row\"")?;
    if row < 0.0 || row.fract() != 0.0 || row > u32::MAX as f64 {
        return Err(format!("\"row\" {row} is not a valid row index"));
    }
    let attr = match c.get("attr") {
        Some(Json::Str(name)) => schema
            .attr_index(name)
            .ok_or_else(|| format!("unknown attribute {name:?}"))?,
        Some(Json::Num(x)) if *x >= 0.0 && x.fract() == 0.0 && *x < schema.len() as f64 => {
            *x as usize
        }
        Some(Json::Num(x)) => return Err(format!("attribute index {x} out of range")),
        _ => return Err("missing \"attr\" (name or index)".into()),
    };
    Ok(CellId::new(row as usize, attr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_errors_map_to_documented_statuses() {
        assert_eq!(
            error_status(&ModelError::SchemaMismatch {
                expected: vec![],
                found: vec![]
            }),
            400
        );
        assert_eq!(
            error_status(&ModelError::CellOutOfBounds {
                cell: CellId::new(0, 0),
                n_tuples: 0,
                n_attrs: 0
            }),
            400
        );
        assert_eq!(
            error_status(&ModelError::Degenerate {
                method: "AUG".into()
            }),
            409
        );
        assert_eq!(error_status(&ModelError::Io(io::Error::other("x"))), 500);
        assert_eq!(error_status(&ModelError::Format("x".into())), 500);
    }

    #[test]
    fn panicking_model_code_is_a_typed_error() {
        let r = guarded::<()>(|| panic!("poisoned model"));
        let Err(ModelError::Format(msg)) = r else {
            panic!("panic was not converted to a typed error")
        };
        assert!(msg.contains("panicked"));
        // Non-panicking work passes through untouched.
        assert_eq!(guarded(|| Ok(vec![0.5])).unwrap(), vec![0.5]);
    }

    #[test]
    fn parse_cell_resolves_names_and_indexes() {
        let schema = Schema::new(["Zip", "City"]);
        let by_name = json::parse(r#"{"row": 2, "attr": "City"}"#).unwrap();
        assert_eq!(parse_cell(&by_name, &schema).unwrap(), CellId::new(2, 1));
        let by_index = json::parse(r#"{"row": 0, "attr": 0}"#).unwrap();
        assert_eq!(parse_cell(&by_index, &schema).unwrap(), CellId::new(0, 0));
        for bad in [
            r#"{"attr": "City"}"#,
            r#"{"row": -1, "attr": "City"}"#,
            r#"{"row": 1.5, "attr": "City"}"#,
            r#"{"row": 0, "attr": "Nope"}"#,
            r#"{"row": 0, "attr": 7}"#,
            r#"{"row": 0}"#,
        ] {
            let c = json::parse(bad).unwrap();
            assert!(parse_cell(&c, &schema).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn cell_string_accepts_scalars_only() {
        assert_eq!(cell_string(&Json::Str("x".into())), Some("x".into()));
        assert_eq!(cell_string(&Json::Num(60612.0)), Some("60612".into()));
        assert_eq!(cell_string(&Json::Bool(true)), Some("true".into()));
        assert_eq!(cell_string(&Json::Null), None);
        assert_eq!(cell_string(&Json::Arr(vec![])), None);
    }
}
