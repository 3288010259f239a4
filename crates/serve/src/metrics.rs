//! Serving metrics: counters and histograms, rendered as a
//! Prometheus text-exposition-format page at `GET /metrics`.
//!
//! Three hard rules, all enforced here rather than hoped for:
//!
//! * **Bucket bounds are monotonic.** [`Histogram::new`] rejects any
//!   non-strictly-increasing bound list at construction, and every
//!   histogram on the page — request latency, trace stages, lock waits
//!   — goes through one writer ([`write_histogram`]) that emits
//!   *cumulative* counts, so the `le`-series a scraper ingests is
//!   non-decreasing by construction.
//! * **Counters saturate.** Every increment is a `saturating_add`
//!   compare-exchange — a long-lived server pegs at `u64::MAX` instead
//!   of wrapping to zero and faking a counter reset.
//! * **The page parses.** Every family gets its `# HELP` / `# TYPE`
//!   preamble ([`write_family_header`]) and every dynamic label value
//!   is escaped ([`escape_label`]), so a standard Prometheus scraper
//!   ingests the whole page — there is a unit test that parses the full
//!   exposition output line by line.
//!
//! [`ModelError`] outcomes are counted *per category*, so a storm of
//! schema-mismatch requests is visible as such on the metrics page
//! rather than drowned in a generic error total. Per-stage latency
//! histograms ([`render_stage_histograms`]) and per-stage allocation
//! totals ([`render_prof_metrics`]) are derived from the trace
//! recorder's spans, so `/metrics` aggregates and `/v1/trace/*`
//! exemplars can never disagree.

use holo_eval::ModelError;
use holo_prof::{bucket_index, sat_add, LockSnapshot};
use holo_trace::StageStat;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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
pub fn write_histogram<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    bounds: &[u64],
    series: impl IntoIterator<Item = (String, &'a [u64], u64, u64)>,
) {
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

/// A fixed-bound histogram with saturating counters.
pub struct Histogram {
    bounds: Vec<u64>,
    /// One per bound, plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Build with the given upper bounds.
    ///
    /// # Panics
    /// Panics unless the bounds are non-empty and strictly increasing —
    /// a non-monotonic bucket list silently misroutes observations, so
    /// it is rejected at construction, not at scrape time.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation (saturating everywhere).
    pub fn observe(&self, v: u64) {
        sat_add(&self.buckets[bucket_index(&self.bounds, v)], 1);
        sat_add(&self.count, 1);
        sat_add(&self.sum, v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Cumulative counts per bound (`le`-style), then the total; each
    /// entry saturates rather than wrapping.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for b in &self.buckets {
            acc = acc.saturating_add(b.load(Ordering::Relaxed));
            out.push(acc);
        }
        out
    }

    fn render(&self, name: &str, help: &str, out: &mut String) {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let sum = self.sum.load(Ordering::Relaxed);
        let series = (String::new(), buckets.as_slice(), self.count(), sum);
        write_histogram(out, name, help, &self.bounds, [series]);
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
    requests_total: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    cells_scored_total: AtomicU64,
    reloads_total: AtomicU64,
    stream_refits_total: AtomicU64,
    /// Request latency in microseconds.
    latency_micros: Histogram,
    model_errors: [AtomicU64; MODEL_ERROR_CATEGORIES.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh metrics with the standard bucket layouts.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            cells_scored_total: AtomicU64::new(0),
            reloads_total: AtomicU64::new(0),
            stream_refits_total: AtomicU64::new(0),
            latency_micros: Histogram::new(vec![
                100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
                1_000_000,
            ]),
            model_errors: Default::default(),
        }
    }

    /// Seconds since the server started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Record one finished request.
    pub fn record_response(&self, status: u16, latency: Duration) {
        sat_add(&self.requests_total, 1);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        sat_add(class, 1);
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.latency_micros.observe(micros);
    }

    /// Record cells that were actually scored (successful calls only —
    /// an error storm must not inflate the scored total).
    pub fn record_scored_cells(&self, cells: usize) {
        sat_add(&self.cells_scored_total, cells as u64);
    }

    /// Record a typed scoring/loading failure by category.
    pub fn record_model_error(&self, e: &ModelError) {
        let cat = model_error_category(e);
        let idx = MODEL_ERROR_CATEGORIES
            .iter()
            .position(|c| *c == cat)
            .expect("known category");
        sat_add(&self.model_errors[idx], 1);
    }

    /// Record an error response the HTTP layer wrote itself: a
    /// protocol-level error (400/413/431/501) before any handler ran,
    /// or the 500 for a handler that panicked. Counted in the request
    /// total and status classes but not the latency histogram (no
    /// handler finished the request).
    pub fn record_protocol_error(&self, status: u16) {
        sat_add(&self.requests_total, 1);
        let class = match status {
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        sat_add(class, 1);
    }

    /// Record a successful model hot-swap.
    pub fn record_reload(&self) {
        sat_add(&self.reloads_total, 1);
    }

    /// Record a completed (endpoint-driven) streaming refit.
    pub fn record_stream_refit(&self) {
        sat_add(&self.stream_refits_total, 1);
    }

    /// Total requests recorded so far.
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// The `GET /metrics` page.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        write_family_header(
            &mut out,
            "holo_serve_uptime_seconds",
            "Seconds since the server started.",
            "gauge",
        );
        let _ = writeln!(out, "holo_serve_uptime_seconds {}", self.uptime().as_secs());
        write_family_header(
            &mut out,
            "holo_serve_requests_total",
            "Requests received, protocol errors included.",
            "counter",
        );
        let _ = writeln!(out, "holo_serve_requests_total {}", self.requests_total());
        write_family_header(
            &mut out,
            "holo_serve_responses_total",
            "Responses by status class.",
            "counter",
        );
        for (class, counter) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ] {
            let _ = writeln!(
                out,
                "holo_serve_responses_total{{class=\"{class}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
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
        self.latency_micros.render(
            "holo_serve_request_latency_micros",
            "End-to-end request latency in microseconds.",
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_data::CellId;

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_bounds_are_rejected() {
        Histogram::new(vec![10, 5, 20]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_bounds_are_rejected() {
        Histogram::new(vec![10, 10]);
    }

    #[test]
    fn observations_land_in_the_right_buckets() {
        let h = Histogram::new(vec![10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        // le=10 → {1,10}; le=100 → +{11,100}; le=1000 → +{}; +Inf → +{5000}.
        assert_eq!(h.cumulative(), vec![2, 4, 4, 5]);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn cumulative_series_is_monotone_nondecreasing() {
        let h = Histogram::new(vec![2, 4, 8, 16]);
        for v in 0..40 {
            h.observe(v % 20);
        }
        let cum = h.cumulative();
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "{cum:?}");
        assert_eq!(*cum.last().unwrap(), h.count());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let h = Histogram::new(vec![10]);
        h.count.store(u64::MAX, Ordering::Relaxed);
        h.sum.store(u64::MAX - 1, Ordering::Relaxed);
        h.buckets[0].store(u64::MAX, Ordering::Relaxed);
        h.observe(3);
        assert_eq!(h.count(), u64::MAX, "count wrapped");
        assert_eq!(h.sum.load(Ordering::Relaxed), u64::MAX, "sum wrapped");
        // Cumulative rendering saturates too (MAX + overflow bucket).
        h.observe(99);
        let cum = h.cumulative();
        assert_eq!(cum, vec![u64::MAX, u64::MAX]);
    }

    #[test]
    fn scored_cells_count_successes_only() {
        let m = Metrics::new();
        // A failed call records a model error and no scored cells.
        m.record_model_error(&ModelError::Format("model panicked while scoring".into()));
        let page = m.render();
        assert!(page.contains("holo_serve_cells_scored_total 0"), "{page}");
        m.record_scored_cells(100);
        assert!(m.render().contains("holo_serve_cells_scored_total 100"));
    }

    #[test]
    fn protocol_errors_count_in_request_and_class_totals() {
        let m = Metrics::new();
        m.record_protocol_error(431);
        m.record_protocol_error(501);
        let page = m.render();
        assert!(page.contains("holo_serve_requests_total 2"), "{page}");
        assert!(page.contains("holo_serve_responses_total{class=\"4xx\"} 1"));
        assert!(page.contains("holo_serve_responses_total{class=\"5xx\"} 1"));
        // No latency observation was faked for them.
        assert!(page.contains("holo_serve_request_latency_micros_count 0"));
    }

    #[test]
    fn model_errors_are_counted_per_category() {
        let m = Metrics::new();
        m.record_model_error(&ModelError::SchemaMismatch {
            expected: vec!["A".into()],
            found: vec!["B".into()],
        });
        m.record_model_error(&ModelError::SchemaMismatch {
            expected: vec![],
            found: vec![],
        });
        m.record_model_error(&ModelError::CellOutOfBounds {
            cell: CellId::new(9, 9),
            n_tuples: 1,
            n_attrs: 1,
        });
        m.record_model_error(&ModelError::Format("bad".into()));
        let page = m.render();
        assert!(page.contains("holo_serve_model_errors_total{category=\"schema_mismatch\"} 2"));
        assert!(page.contains("holo_serve_model_errors_total{category=\"cell_out_of_bounds\"} 1"));
        assert!(page.contains("holo_serve_model_errors_total{category=\"format\"} 1"));
        assert!(page.contains("holo_serve_model_errors_total{category=\"io\"} 0"));
    }

    #[test]
    fn render_includes_latency_and_batch_series() {
        let m = Metrics::new();
        m.record_response(200, Duration::from_micros(300));
        m.record_response(404, Duration::from_micros(80));
        m.record_response(500, Duration::from_secs(30)); // beyond last bound
        m.record_scored_cells(40);
        let page = m.render();
        assert!(page.contains("holo_serve_requests_total 3"));
        assert!(page.contains("holo_serve_responses_total{class=\"2xx\"} 1"));
        assert!(page.contains("holo_serve_responses_total{class=\"4xx\"} 1"));
        assert!(page.contains("holo_serve_responses_total{class=\"5xx\"} 1"));
        assert!(page.contains("holo_serve_request_latency_micros_bucket{le=\"+Inf\"} 3"));
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
        m.record_response(200, Duration::from_micros(300));
        m.record_response(500, Duration::from_secs(30));
        m.record_protocol_error(431);
        m.record_scored_cells(40);
        m.record_model_error(&ModelError::Format("bad".into()));
        m.record_reload();
        m.record_stream_refit();
        let mut page = m.render();
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
        let h = Histogram::new(vec![10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        h.render("holo_test_latency_micros", "Test latency.", &mut out);
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
