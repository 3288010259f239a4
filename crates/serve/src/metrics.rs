//! Serving metrics: counters and histograms, rendered as a
//! Prometheus text-exposition-format page at `GET /metrics`.
//!
//! Three hard rules, all enforced here rather than hoped for:
//!
//! * **Bucket bounds are monotonic.** Every histogram on the page —
//!   request latency, trace stages, lock waits — goes through one
//!   writer ([`write_histogram`]), which rejects a bound list that is
//!   not strictly increasing and emits *cumulative* counts, so the
//!   `le`-series a scraper ingests is non-decreasing by construction.
//!   The const bound lists it is handed
//!   (`holo_trace::STAGE_BOUNDS_MICROS`,
//!   `holo_prof::LOCK_WAIT_BOUNDS_MICROS`) are checked at compile time.
//! * **Counters saturate.** Every increment is a `saturating_add`
//!   compare-exchange — a long-lived server pegs at `u64::MAX` instead
//!   of wrapping to zero and faking a counter reset.
//! * **The page parses.** Every family gets its `# HELP` / `# TYPE`
//!   preamble ([`write_family_header`]) and every dynamic label value
//!   is escaped ([`escape_label`]), so a standard Prometheus scraper
//!   ingests the whole page — there is a unit test that parses the full
//!   exposition output line by line.
//!
//! A handled request is counted once, from its finished trace
//! ([`Metrics::observe`]): its status class, its [`ModelError`]
//! category, its scored cells, and the hot swap a successful reload or
//! refit made. Outcomes are counted *per category*, so a storm of
//! schema-mismatch requests is visible as such on the metrics page
//! rather than drowned in a generic error total. Request latency (the
//! recorder's histogram of every trace's root span), per-stage latency
//! histograms ([`render_stage_histograms`]) and per-stage allocation
//! totals ([`render_prof_metrics`]) are derived from the trace
//! recorder's spans, so `/metrics` aggregates and `/v1/trace/*`
//! exemplars can never disagree.

use holo_eval::ModelError;
use holo_prof::{assert_bounds, sat_add, LockSnapshot};
use holo_trace::{StageStat, Trace, Value};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The trace note a request's response status is recorded under.
pub(crate) const STATUS_NOTE: &str = "status";
/// The trace note a failed request's [`ModelError`] category is
/// recorded under.
pub(crate) const CATEGORY_NOTE: &str = "category";
/// The trace note a score or predict request's scored-cell count is
/// recorded under, once `score_batch` succeeded.
pub(crate) const CELLS_SCORED_NOTE: &str = "cells_scored";
/// The endpoint label of `POST /v1/models/{name}/reload`.
pub(crate) const RELOAD_ENDPOINT: &str = "/v1/models/{name}/reload";
/// The endpoint label of `POST /v1/models/{name}/refit`.
pub(crate) const REFIT_ENDPOINT: &str = "/v1/models/{name}/refit";

/// Writes the `# HELP` / `# TYPE` preamble for a metric family, as the
/// Prometheus text exposition format requires before its first sample.
pub fn write_family_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Escapes a label *value* per the Prometheus text exposition format:
/// backslash, double-quote, and newline must be backslash-escaped.
/// Every dynamically-sourced label (model names, stage names) goes
/// through this before interpolation.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Writes one histogram family: its `# HELP`/`# TYPE` preamble, then
/// per series a cumulative `{name}_bucket` line per bound plus `+Inf`,
/// `{name}_count` and `{name}_sum`. Each series is its rendered label
/// pairs (already escaped, e.g. `stage="score"`, or empty), one
/// non-cumulative count per bound plus the overflow bucket, its count
/// and its sum. Every histogram on `/metrics` is written here.
///
/// # Panics
/// Panics unless `bounds` are non-empty and strictly increasing
/// ([`assert_bounds`]).
pub fn write_histogram<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    bounds: &[u64],
    series: impl IntoIterator<Item = (String, &'a [u64], u64, u64)>,
) {
    assert_bounds(bounds);
    write_family_header(out, name, help, "histogram");
    for (labels, buckets, count, sum) in series {
        let (sep, braced) = match labels.as_str() {
            "" => ("", String::new()),
            l => (",", format!("{{{l}}}")),
        };
        let mut acc = 0u64;
        for (bound, n) in bounds.iter().zip(buckets) {
            acc = acc.saturating_add(*n);
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {acc}");
        }
        acc = acc.saturating_add(buckets.get(bounds.len()).copied().unwrap_or(0));
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {acc}");
        let _ = writeln!(out, "{name}_count{braced} {count}");
        let _ = writeln!(out, "{name}_sum{braced} {sum}");
    }
}

/// Renders the per-stage latency histograms derived from recorded
/// trace spans as one `holo_trace_stage_micros` histogram family
/// labeled by stage name.
pub fn render_stage_histograms(stages: &[StageStat], out: &mut String) {
    write_histogram(
        out,
        "holo_trace_stage_micros",
        "Per-stage latency derived from recorded trace spans.",
        &holo_trace::STAGE_BOUNDS_MICROS,
        stages.iter().map(|s| {
            let labels = format!("stage=\"{}\"", escape_label(&s.stage));
            (labels, s.buckets.as_slice(), s.count, s.sum_micros)
        }),
    );
}

/// The stages that allocated, heaviest (by bytes) first; name breaks
/// ties so the ordering is deterministic. These are `/v1/prof`'s
/// allocation scopes and the `holo_prof_alloc_bytes` series.
pub fn alloc_scopes(stages: &[StageStat]) -> Vec<&StageStat> {
    let mut scopes: Vec<&StageStat> = stages.iter().filter(|s| s.allocs > 0).collect();
    scopes.sort_by(|a, b| {
        b.alloc_bytes
            .cmp(&a.alloc_bytes)
            .then(a.stage.cmp(&b.stage))
    });
    scopes
}

/// Renders the `holo_prof_lock_wait_micros` histogram family, one
/// series per instrumented lock.
fn render_lock_waits(locks: &[LockSnapshot], out: &mut String) {
    write_histogram(
        out,
        "holo_prof_lock_wait_micros",
        "Microseconds spent blocked on each instrumented lock (contended acquisitions only).",
        &holo_prof::LOCK_WAIT_BOUNDS_MICROS,
        locks.iter().map(|l| {
            let labels = format!("lock=\"{}\"", escape_label(l.lock));
            (labels, &l.wait_buckets[..], l.contended, l.wait_micros)
        }),
    );
}

/// Renders the `holo_prof_*` families: global heap counters from the
/// counting allocator (`holo-prof`), per-stage allocation totals from
/// this server's recorded `stages`, per-lock wait histograms, and
/// worker-pool busy ratios.
///
/// Pure rendering — the families are always present, so a scraper
/// never sees one appear mid-flight.
pub fn render_prof_metrics(stages: &[StageStat], out: &mut String) {
    let totals = holo_prof::alloc_totals();
    for (name, help, value) in [
        (
            "holo_prof_allocations_total",
            "Heap allocations observed by the counting allocator.",
            totals.allocs,
        ),
        (
            "holo_prof_allocated_bytes_total",
            "Cumulative heap bytes allocated process-wide.",
            totals.bytes,
        ),
    ] {
        write_family_header(out, name, help, "counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, help, value) in [
        (
            "holo_prof_heap_live_bytes",
            "Currently live heap bytes (allocated minus freed).",
            totals.live_bytes,
        ),
        (
            "holo_prof_heap_peak_bytes",
            "High-water mark of live heap bytes.",
            totals.peak_bytes,
        ),
    ] {
        write_family_header(out, name, help, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    write_family_header(
        out,
        "holo_prof_alloc_bytes",
        "Heap bytes allocated inside each traced stage, summed from recorded spans.",
        "counter",
    );
    for s in alloc_scopes(stages) {
        let scope = escape_label(&s.stage);
        let _ = writeln!(
            out,
            "holo_prof_alloc_bytes{{scope=\"{scope}\"}} {}",
            s.alloc_bytes
        );
    }
    let locks = holo_prof::lock_snapshots();
    render_lock_waits(&locks, out);
    write_family_header(
        out,
        "holo_prof_lock_acquires_total",
        "Successful acquisitions per instrumented lock.",
        "counter",
    );
    for snap in &locks {
        let lock = escape_label(snap.lock);
        let _ = writeln!(
            out,
            "holo_prof_lock_acquires_total{{lock=\"{lock}\"}} {}",
            snap.acquires
        );
    }
    write_family_header(
        out,
        "holo_prof_lock_hold_micros_total",
        "Microseconds instrumented lock guards were held.",
        "counter",
    );
    for snap in &locks {
        let lock = escape_label(snap.lock);
        let _ = writeln!(
            out,
            "holo_prof_lock_hold_micros_total{{lock=\"{lock}\"}} {}",
            snap.hold_micros
        );
    }
    write_family_header(
        out,
        "holo_prof_worker_busy_ratio",
        "Busy over busy-plus-idle time per worker pool.",
        "gauge",
    );
    let pools = holo_prof::pool_snapshots();
    for p in &pools {
        let pool = escape_label(p.pool);
        let _ = writeln!(
            out,
            "holo_prof_worker_busy_ratio{{pool=\"{pool}\"}} {:.6}",
            p.busy_ratio
        );
    }
    write_family_header(
        out,
        "holo_prof_worker_tasks_total",
        "Tasks completed per worker pool.",
        "counter",
    );
    for p in &pools {
        let pool = escape_label(p.pool);
        let _ = writeln!(
            out,
            "holo_prof_worker_tasks_total{{pool=\"{pool}\"}} {}",
            p.tasks
        );
    }
}

/// Renders the `holo_features_nn_cache_*` families: per-model
/// neighbour-cache effectiveness, sourced from each served model's
/// featurizer ([`holodetect::CacheStats`]). Hit/miss/eviction counters
/// are cumulative for the featurizer's lifetime (they survive cache
/// clears); entries and capacity are point-in-time gauges.
pub fn render_nn_cache_metrics(stats: &[(String, holodetect::CacheStats)], out: &mut String) {
    for (name, help) in [
        (
            "holo_features_nn_cache_hits_total",
            "Neighbour-cache lookups served from cache, per model.",
        ),
        (
            "holo_features_nn_cache_misses_total",
            "Neighbour-cache lookups that had to recompute, per model.",
        ),
        (
            "holo_features_nn_cache_evictions_total",
            "Neighbour-cache entries evicted to make room, per model.",
        ),
    ] {
        write_family_header(out, name, help, "counter");
        for (model, s) in stats {
            let model = escape_label(model);
            let value = match name {
                "holo_features_nn_cache_hits_total" => s.hits,
                "holo_features_nn_cache_misses_total" => s.misses,
                _ => s.evictions,
            };
            let _ = writeln!(out, "{name}{{model=\"{model}\"}} {value}");
        }
    }
    for (name, help) in [
        (
            "holo_features_nn_cache_entries",
            "Neighbour-cache entries currently resident, per model.",
        ),
        (
            "holo_features_nn_cache_capacity",
            "Neighbour-cache capacity, per model.",
        ),
    ] {
        write_family_header(out, name, help, "gauge");
        for (model, s) in stats {
            let model = escape_label(model);
            let value = if name == "holo_features_nn_cache_entries" {
                s.entries
            } else {
                s.capacity
            };
            let _ = writeln!(out, "{name}{{model=\"{model}\"}} {value}");
        }
    }
}

/// [`ModelError`] categories, in render order.
pub const MODEL_ERROR_CATEGORIES: [&str; 5] = [
    "schema_mismatch",
    "cell_out_of_bounds",
    "degenerate",
    "io",
    "format",
];

/// The stable category label of a [`ModelError`].
pub fn model_error_category(e: &ModelError) -> &'static str {
    match e {
        ModelError::SchemaMismatch { .. } => MODEL_ERROR_CATEGORIES[0],
        ModelError::CellOutOfBounds { .. } => MODEL_ERROR_CATEGORIES[1],
        ModelError::Degenerate { .. } => MODEL_ERROR_CATEGORIES[2],
        ModelError::Io(_) => MODEL_ERROR_CATEGORIES[3],
        ModelError::Format(_) => MODEL_ERROR_CATEGORIES[4],
    }
}

/// All serving metrics, shared across the HTTP workers.
pub struct Metrics {
    started: Instant,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    cells_scored_total: AtomicU64,
    reloads_total: AtomicU64,
    stream_refits_total: AtomicU64,
    model_errors: [AtomicU64; MODEL_ERROR_CATEGORIES.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh metrics, every counter at zero.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            cells_scored_total: AtomicU64::new(0),
            reloads_total: AtomicU64::new(0),
            stream_refits_total: AtomicU64::new(0),
            model_errors: Default::default(),
        }
    }

    /// Seconds since the server started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Count one handled request from its finished trace: the status
    /// class of its `status` note, the [`ModelError`] category of its
    /// `category` note, the cells of its `cells_scored` note, and, on a
    /// 2xx from `/reload` or `/refit`, the hot swap it made (a refit is
    /// also a stream refit). Its latency is the trace recorder's.
    pub fn observe(&self, trace: &Trace) {
        let mut status = 0;
        for (key, value) in &trace.notes {
            match (*key, value) {
                (STATUS_NOTE, Value::U64(s)) => status = *s,
                (CATEGORY_NOTE, Value::Str(category)) => {
                    for (c, counter) in MODEL_ERROR_CATEGORIES.iter().zip(&self.model_errors) {
                        if *c == category.as_str() {
                            sat_add(counter, 1);
                        }
                    }
                }
                (CELLS_SCORED_NOTE, Value::U64(n)) => sat_add(&self.cells_scored_total, *n),
                _ => {}
            }
        }
        sat_add(self.class(status), 1);
        let refit = trace.endpoint == REFIT_ENDPOINT;
        if (200..300).contains(&status) && (refit || trace.endpoint == RELOAD_ENDPOINT) {
            sat_add(&self.reloads_total, 1);
            if refit {
                sat_add(&self.stream_refits_total, 1);
            }
        }
    }

    /// Record an error response the HTTP layer wrote itself, with no
    /// trace: a protocol-level error (400/413/431/501) before any
    /// handler ran, or the 500 for a handler that panicked. Counted in
    /// its status class but not the latency histogram (no handler
    /// finished the request).
    pub fn record_protocol_error(&self, status: u16) {
        sat_add(self.class(u64::from(status)), 1);
    }

    /// The response counter of `status`'s class.
    fn class(&self, status: u64) -> &AtomicU64 {
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
    }

    /// The serving families of the `GET /metrics` page. `requests` is
    /// the trace recorder's stat of every trace's root span, written as
    /// the request-latency histogram.
    pub fn render(&self, requests: &StageStat) -> String {
        let mut out = String::with_capacity(4096);
        write_family_header(
            &mut out,
            "holo_serve_uptime_seconds",
            "Seconds since the server started.",
            "gauge",
        );
        let _ = writeln!(out, "holo_serve_uptime_seconds {}", self.uptime().as_secs());
        let classes = [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ]
        .map(|(class, counter)| (class, counter.load(Ordering::Relaxed)));
        write_family_header(
            &mut out,
            "holo_serve_requests_total",
            "Requests received, protocol errors included.",
            "counter",
        );
        let total = classes
            .iter()
            .fold(0u64, |acc, (_, n)| acc.saturating_add(*n));
        let _ = writeln!(out, "holo_serve_requests_total {total}");
        write_family_header(
            &mut out,
            "holo_serve_responses_total",
            "Responses by status class.",
            "counter",
        );
        for (class, n) in classes {
            let _ = writeln!(out, "holo_serve_responses_total{{class=\"{class}\"}} {n}");
        }
        for (name, help, counter) in [
            (
                "holo_serve_cells_scored_total",
                "Cells scored by successful score_batch calls.",
                &self.cells_scored_total,
            ),
            (
                "holo_serve_model_reloads_total",
                "Successful model hot-swaps.",
                &self.reloads_total,
            ),
            (
                "holo_serve_stream_refits_total",
                "Completed endpoint-driven streaming refits.",
                &self.stream_refits_total,
            ),
        ] {
            write_family_header(&mut out, name, help, "counter");
            let _ = writeln!(out, "{name} {}", counter.load(Ordering::Relaxed));
        }
        write_family_header(
            &mut out,
            "holo_serve_model_errors_total",
            "Typed scoring/loading failures by category.",
            "counter",
        );
        for (cat, counter) in MODEL_ERROR_CATEGORIES.iter().zip(&self.model_errors) {
            let _ = writeln!(
                out,
                "holo_serve_model_errors_total{{category=\"{cat}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        write_histogram(
            &mut out,
            "holo_serve_request_latency_micros",
            "End-to-end request latency in microseconds, from the request's first byte.",
            &holo_trace::STAGE_BOUNDS_MICROS,
            [(
                String::new(),
                requests.buckets.as_slice(),
                requests.count,
                requests.sum_micros,
            )],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_data::CellId;

    /// A finished trace of `endpoint` carrying `notes`, as `App::route`
    /// hands it to [`Metrics::observe`].
    fn trace_of(endpoint: &str, notes: Vec<(&'static str, Value)>) -> Trace {
        Trace {
            endpoint: endpoint.to_string(),
            notes,
            ..Trace::default()
        }
    }

    /// The request-latency stat of requests taking `micros` each.
    fn requests(micros: &[u64]) -> StageStat {
        let mut buckets = vec![0; holo_trace::STAGE_BOUNDS_MICROS.len() + 1];
        for &m in micros {
            buckets[holo_prof::bucket_index(&holo_trace::STAGE_BOUNDS_MICROS, m)] += 1;
        }
        StageStat {
            stage: String::new(),
            buckets,
            count: micros.len() as u64,
            sum_micros: micros.iter().sum(),
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    /// One histogram family of a single unlabeled series against
    /// `bounds`.
    fn histogram(bounds: &[u64], buckets: &[u64], count: u64, sum: u64) -> String {
        let mut out = String::new();
        let series = (String::new(), buckets, count, sum);
        write_histogram(&mut out, "h", "Test.", bounds, [series]);
        out
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_bounds_are_rejected() {
        histogram(&[10, 5, 20], &[0; 4], 0, 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_bounds_are_rejected() {
        histogram(&[10, 10], &[0; 3], 0, 0);
    }

    #[test]
    fn cumulative_series_is_monotone_nondecreasing() {
        let bounds = [2, 4, 8, 16];
        let mut buckets = [0; 5];
        for v in 0..40 {
            buckets[holo_prof::bucket_index(&bounds, v % 20)] += 1;
        }
        let page = histogram(&bounds, &buckets, 40, 380);
        let cum: Vec<u64> = page
            .lines()
            .filter(|l| l.starts_with("h_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(cum.len(), bounds.len() + 1, "{page}");
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "{cum:?}");
        assert_eq!(*cum.last().unwrap(), 40);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let out = histogram(&[10, 100], &[u64::MAX, 0, 7], u64::MAX, 9);
        // Cumulative counts stay non-decreasing and peg at MAX.
        assert_eq!(
            out.lines().skip(2).collect::<Vec<_>>(),
            [
                format!("h_bucket{{le=\"10\"}} {}", u64::MAX),
                format!("h_bucket{{le=\"100\"}} {}", u64::MAX),
                format!("h_bucket{{le=\"+Inf\"}} {}", u64::MAX),
                format!("h_count {}", u64::MAX),
                "h_sum 9".to_string(),
            ]
        );
    }

    #[test]
    fn scored_cells_count_successes_only() {
        let m = Metrics::new();
        // A failed call notes a model error and no scored cells.
        m.observe(&trace_of(
            "/v1/models/{name}/score",
            vec![
                (CATEGORY_NOTE, Value::Str("format".into())),
                (STATUS_NOTE, Value::U64(500)),
            ],
        ));
        let page = m.render(&requests(&[]));
        assert!(page.contains("holo_serve_cells_scored_total 0"), "{page}");
        // A 2xx score with cells counts them.
        m.observe(&trace_of(
            "/v1/models/{name}/score",
            vec![
                (CELLS_SCORED_NOTE, Value::U64(100)),
                (STATUS_NOTE, Value::U64(200)),
            ],
        ));
        let page = m.render(&requests(&[]));
        assert!(page.contains("holo_serve_cells_scored_total 100"), "{page}");
        assert!(page.contains("holo_serve_responses_total{class=\"2xx\"} 1"));
        assert!(page.contains("holo_serve_model_reloads_total 0"));
    }

    #[test]
    fn protocol_errors_count_in_request_and_class_totals() {
        let m = Metrics::new();
        m.record_protocol_error(431);
        m.record_protocol_error(501);
        let page = m.render(&requests(&[]));
        assert!(page.contains("holo_serve_requests_total 2"), "{page}");
        assert!(page.contains("holo_serve_responses_total{class=\"4xx\"} 1"));
        assert!(page.contains("holo_serve_responses_total{class=\"5xx\"} 1"));
        // No latency observation was faked for them.
        assert!(page.contains("holo_serve_request_latency_micros_count 0"));
    }

    #[test]
    fn model_errors_are_counted_per_category() {
        let m = Metrics::new();
        let failed = |category: &str, status| {
            trace_of(
                "/v1/models/{name}/score",
                vec![
                    (CATEGORY_NOTE, Value::Str(category.into())),
                    (STATUS_NOTE, Value::U64(status)),
                ],
            )
        };
        let schema = ModelError::SchemaMismatch {
            expected: vec!["A".into()],
            found: vec!["B".into()],
        };
        let oob = ModelError::CellOutOfBounds {
            cell: CellId::new(9, 9),
            n_tuples: 1,
            n_attrs: 1,
        };
        for e in [&schema, &schema, &oob, &ModelError::Format("bad".into())] {
            m.observe(&failed(
                model_error_category(e),
                u64::from(crate::error_status(e)),
            ));
        }
        let page = m.render(&requests(&[]));
        assert!(page.contains("holo_serve_model_errors_total{category=\"schema_mismatch\"} 2"));
        assert!(page.contains("holo_serve_model_errors_total{category=\"cell_out_of_bounds\"} 1"));
        assert!(page.contains("holo_serve_model_errors_total{category=\"format\"} 1"));
        assert!(page.contains("holo_serve_model_errors_total{category=\"io\"} 0"));
        assert!(
            page.contains("holo_serve_responses_total{class=\"4xx\"} 3"),
            "{page}"
        );
        assert!(page.contains("holo_serve_responses_total{class=\"5xx\"} 1"));
        assert!(page.contains("holo_serve_cells_scored_total 0"));
    }

    #[test]
    fn successful_reloads_and_refits_count_as_hot_swaps() {
        let m = Metrics::new();
        let with_status =
            |endpoint, status| trace_of(endpoint, vec![(STATUS_NOTE, Value::U64(status))]);
        m.observe(&with_status(REFIT_ENDPOINT, 200));
        m.observe(&with_status(RELOAD_ENDPOINT, 200));
        // Failed swaps and other endpoints count nothing.
        m.observe(&with_status(REFIT_ENDPOINT, 409));
        m.observe(&with_status(RELOAD_ENDPOINT, 500));
        m.observe(&with_status("/v1/models/{name}/refits", 200));
        let page = m.render(&requests(&[]));
        assert!(page.contains("holo_serve_model_reloads_total 2"), "{page}");
        assert!(page.contains("holo_serve_stream_refits_total 1"), "{page}");
        assert!(page.contains("holo_serve_requests_total 5"), "{page}");
    }

    #[test]
    fn render_includes_latency_and_batch_series() {
        let m = Metrics::new();
        for status in [200, 404, 500] {
            m.observe(&trace_of(
                "/healthz",
                vec![(STATUS_NOTE, Value::U64(status))],
            ));
        }
        m.observe(&trace_of(
            "/v1/models/{name}/predict",
            vec![
                (CELLS_SCORED_NOTE, Value::U64(40)),
                (STATUS_NOTE, Value::U64(200)),
            ],
        ));
        let page = m.render(&requests(&[300, 30_000_000])); // one beyond the last bound
        assert!(page.contains("holo_serve_requests_total 4"));
        assert!(page.contains("holo_serve_responses_total{class=\"2xx\"} 2"));
        assert!(page.contains("holo_serve_responses_total{class=\"4xx\"} 1"));
        assert!(page.contains("holo_serve_responses_total{class=\"5xx\"} 1"));
        assert!(page.contains("holo_serve_request_latency_micros_bucket{le=\"500\"} 1"));
        assert!(page.contains("holo_serve_request_latency_micros_bucket{le=\"1000000\"} 1"));
        assert!(page.contains("holo_serve_request_latency_micros_bucket{le=\"+Inf\"} 2"));
        assert!(page.contains("holo_serve_request_latency_micros_sum 30000300"));
        assert!(page.contains("holo_serve_cells_scored_total 40"));
    }

    #[test]
    fn escape_label_handles_all_reserved_characters() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label(r"a\b"), r"a\\b");
        assert_eq!(escape_label("a\nb"), r"a\nb");
        assert_eq!(escape_label("m\"x\\y\nz"), "m\\\"x\\\\y\\nz");
    }

    /// Check one `key="value"` label pair list for well-formedness:
    /// quotes balanced, reserved characters escaped.
    fn assert_labels_well_formed(labels: &str, line: &str) {
        let inner = labels
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .unwrap_or_else(|| panic!("unbalanced label braces: {line}"));
        let mut rest = inner;
        loop {
            let (key, after_key) = rest
                .split_once("=\"")
                .unwrap_or_else(|| panic!("label without =\" in: {line}"));
            assert!(
                !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad label name {key:?} in: {line}"
            );
            // Scan the value to its closing unescaped quote.
            let mut escaped = false;
            let mut close = None;
            for (i, c) in after_key.char_indices() {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => {
                        close = Some(i);
                        break;
                    }
                    (false, '\n') => panic!("raw newline in label value: {line}"),
                    _ => {}
                }
            }
            let close = close.unwrap_or_else(|| panic!("unterminated label value: {line}"));
            match after_key.get(close + 1..) {
                None | Some("") => break,
                Some(tail) => {
                    rest = tail
                        .strip_prefix(',')
                        .unwrap_or_else(|| panic!("junk after label value: {line}"));
                }
            }
        }
    }

    /// The satellite contract: the full exposition output parses. Every
    /// sample line is `name[{labels}] value`, and every sample belongs
    /// to a family that declared `# HELP` and `# TYPE` first.
    pub(crate) fn assert_exposition_parses(page: &str) {
        let mut helped = std::collections::BTreeSet::new();
        let mut types = std::collections::BTreeMap::new();
        for line in page.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has name and text");
                assert!(!help.trim().is_empty(), "empty HELP for {name}");
                assert!(helped.insert(name.to_string()), "duplicate HELP {name}");
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("TYPE name");
                let kind = parts.next().expect("TYPE kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown TYPE {kind} on: {line}"
                );
                assert!(
                    helped.contains(name),
                    "TYPE before HELP for {name} (or HELP missing)"
                );
                assert!(
                    types.insert(name.to_string(), kind.to_string()).is_none(),
                    "duplicate TYPE {name}"
                );
            } else if !line.is_empty() {
                let (series, value) = line.rsplit_once(' ').expect("sample has a value");
                assert!(
                    value.parse::<f64>().is_ok(),
                    "unparseable sample value on: {line}"
                );
                let (name, labels) = match series.find('{') {
                    Some(i) => series.split_at(i),
                    None => (series, ""),
                };
                if !labels.is_empty() {
                    assert_labels_well_formed(labels, line);
                }
                // Histogram samples resolve to their family name.
                let family = ["_bucket", "_count", "_sum"]
                    .iter()
                    .find_map(|suf| name.strip_suffix(suf))
                    .filter(|f| types.get(*f).map(String::as_str) == Some("histogram"))
                    .unwrap_or(name);
                assert!(
                    types.contains_key(family),
                    "sample {name} has no # TYPE declaration"
                );
            }
        }
        assert!(!types.is_empty(), "page declared no metric families");
    }

    #[test]
    fn full_exposition_output_parses() {
        let m = Metrics::new();
        m.observe(&trace_of(
            REFIT_ENDPOINT,
            vec![(STATUS_NOTE, Value::U64(200))],
        ));
        m.observe(&trace_of(
            "/v1/models/{name}/score",
            vec![
                (CATEGORY_NOTE, Value::Str("format".into())),
                (STATUS_NOTE, Value::U64(500)),
            ],
        ));
        m.record_protocol_error(431);
        let mut page = m.render(&requests(&[300]));
        // Include the trace-derived stage family with a label value that
        // needs escaping, exactly as `/metrics` serves it.
        render_stage_histograms(
            &[holo_trace::StageStat {
                stage: "score\"odd\\name".to_string(),
                buckets: vec![1; holo_trace::STAGE_BOUNDS_MICROS.len() + 1],
                count: 13,
                sum_micros: 999,
                allocs: 0,
                alloc_bytes: 0,
            }],
            &mut page,
        );
        assert_exposition_parses(&page);
    }

    #[test]
    fn prof_families_render_and_parse() {
        // Touch each instrument so at least one labelled sample exists.
        let m = holo_prof::ProfMutex::new("metrics-test-lock", 0u8);
        drop(m.lock().unwrap());
        let p = holo_prof::PoolStats::register("metrics-test-pool");
        p.record_busy(300);
        p.record_idle(100);
        // Allocation scopes are the stages that allocated, heaviest first.
        let stage = |name: &str, allocs, alloc_bytes| StageStat {
            stage: name.to_string(),
            buckets: Vec::new(),
            count: 1,
            sum_micros: 1,
            allocs,
            alloc_bytes,
        };
        let stages = [
            stage("/v1/models/{name}/score", 0, 0),
            stage("encode", 3, 300),
            stage("score", 9, 9_000),
        ];
        let mut out = String::new();
        render_prof_metrics(&stages, &mut out);
        assert!(out.contains(
            "holo_prof_alloc_bytes{scope=\"score\"} 9000\nholo_prof_alloc_bytes{scope=\"encode\"} 300\n"
        ));
        assert!(!out.contains("scope=\"/v1/models"));
        assert!(out.contains("# TYPE holo_prof_lock_wait_micros histogram"));
        assert!(out.contains("holo_prof_lock_acquires_total{lock=\"metrics-test-lock\"}"));
        assert!(out.contains("holo_prof_worker_busy_ratio{pool=\"metrics-test-pool\"} 0.75"));
        assert!(out.contains("holo_prof_worker_tasks_total{pool=\"metrics-test-pool\"}"));
        assert!(out.contains("holo_prof_heap_live_bytes"));
        // The lock-wait le-series is cumulative and ends at +Inf.
        assert!(out
            .contains("holo_prof_lock_wait_micros_bucket{lock=\"metrics-test-lock\",le=\"+Inf\"}"));
        assert_exposition_parses(&out);
    }

    #[test]
    fn nn_cache_families_render_per_model_and_parse() {
        let stats = vec![
            (
                "orders".to_string(),
                holodetect::CacheStats {
                    hits: 10,
                    misses: 4,
                    evictions: 1,
                    entries: 3,
                    capacity: 8,
                },
            ),
            ("cust\"omers".to_string(), holodetect::CacheStats::default()),
        ];
        let mut out = String::new();
        render_nn_cache_metrics(&stats, &mut out);
        assert!(out.contains("holo_features_nn_cache_hits_total{model=\"orders\"} 10"));
        assert!(out.contains("holo_features_nn_cache_misses_total{model=\"orders\"} 4"));
        assert!(out.contains("holo_features_nn_cache_evictions_total{model=\"orders\"} 1"));
        assert!(out.contains("holo_features_nn_cache_entries{model=\"orders\"} 3"));
        assert!(out.contains("holo_features_nn_cache_capacity{model=\"orders\"} 8"));
        // Escaped model name stays well-formed.
        assert!(out.contains("model=\"cust\\\"omers\""));
        assert_exposition_parses(&out);
    }

    #[test]
    fn stage_histograms_render_cumulative_with_escaped_labels() {
        let mut buckets = vec![0; holo_trace::STAGE_BOUNDS_MICROS.len() + 1];
        buckets[0] = 2;
        buckets[1] = 1;
        *buckets.last_mut().unwrap() = 1;
        let mut out = String::new();
        render_stage_histograms(
            &[StageStat {
                stage: "log-append".to_string(),
                buckets,
                count: 4,
                sum_micros: 2_000_400,
                allocs: 0,
                alloc_bytes: 0,
            }],
            &mut out,
        );
        assert!(out.contains("# TYPE holo_trace_stage_micros histogram"));
        assert!(out.contains("holo_trace_stage_micros_bucket{stage=\"log-append\",le=\"100\"} 2"));
        assert!(out.contains("holo_trace_stage_micros_bucket{stage=\"log-append\",le=\"250\"} 3"));
        assert!(out.contains("holo_trace_stage_micros_bucket{stage=\"log-append\",le=\"+Inf\"} 4"));
        assert!(out.contains("holo_trace_stage_micros_count{stage=\"log-append\"} 4"));
        assert!(out.contains("holo_trace_stage_micros_sum{stage=\"log-append\"} 2000400"));
    }

    /// Pins the text of every histogram family on `/metrics` — request
    /// latency, trace stages (one label needing escapes) and lock waits —
    /// byte for byte against the golden file.
    #[test]
    fn histograms_render_byte_identical_to_the_golden_page() {
        let mut out = String::new();
        // Observations 1, 10, 11, 100 and 5000 against bounds 10, 100, 1000.
        write_histogram(
            &mut out,
            "holo_test_latency_micros",
            "Test latency.",
            &[10, 100, 1000],
            [(String::new(), &[2, 2, 0, 1][..], 5, 5122)],
        );
        let stage = |name: &str, buckets: Vec<u64>, count, sum_micros| StageStat {
            stage: name.to_string(),
            buckets,
            count,
            sum_micros,
            allocs: 0,
            alloc_bytes: 0,
        };
        let n = holo_trace::STAGE_BOUNDS_MICROS.len();
        let mut score = vec![0; n + 1];
        (score[0], score[3], score[n]) = (2, 1, 4);
        render_stage_histograms(
            &[
                stage("score", score, 7, 4_000_321),
                stage("odd\"st\\age", vec![1; n + 1], 13, 999),
            ],
            &mut out,
        );
        let lock = |lock, contended, wait_micros, wait_buckets| LockSnapshot {
            lock,
            acquires: 40,
            contended,
            wait_micros,
            hold_micros: 90_000,
            wait_buckets,
        };
        render_lock_waits(
            &[
                lock("state", 6, 31_337, [1, 0, 2, 0, 0, 1, 0, 0, 1, 0, 1]),
                lock("quiet", 0, 0, [0; holo_prof::LOCK_WAIT_BUCKETS + 1]),
            ],
            &mut out,
        );
        assert_eq!(out, include_str!("../tests/data/histograms.golden.txt"));
        assert_exposition_parses(&out);
    }
}
