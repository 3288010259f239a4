//! Span trees: one [`Trace`] per request, built by a [`TraceBuilder`].
//!
//! A trace is a flat `Vec` of spans in creation order whose tree shape
//! is carried by parent *indices* — index 0 is always the root span
//! (named after the endpoint), and every other span's parent index is
//! strictly smaller than its own. That representation is what makes
//! the recorder's byte accounting and the JSON rendering in holo-serve
//! trivial: no boxes, no recursion, clone is a memcpy of strings.
//!
//! All offsets are microseconds on the builder's own monotonic clock
//! ([`crate::Stopwatch`]), relative to trace start.

use crate::recorder::SpanRecorder;
use holo_prof::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A typed span/trace annotation value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter-like values (row counts, byte sizes, epochs).
    U64(u64),
    /// Measurements (scores, rates).
    F64(f64),
    /// Labels (model names, error categories).
    Str(String),
    /// Boolean flags.
    Bool(bool),
}

/// One completed span inside a [`Trace`].
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name, e.g. `"score"` or `"apply-delta"`.
    pub name: String,
    /// Index of the parent span within [`Trace::spans`]; `None` only
    /// for the root span at index 0.
    pub parent: Option<usize>,
    /// Start offset from trace start, in microseconds.
    pub start_micros: u64,
    /// Duration in microseconds.
    pub duration_micros: u64,
    /// Typed key/value annotations attached while the span was open.
    pub notes: Vec<(String, Value)>,
}

/// A completed span tree for one request (or one background unit of
/// work), as stored in the [`SpanRecorder`].
#[derive(Debug, Clone)]
pub struct Trace {
    /// Process-unique trace id (rendered via [`format_trace_id`]).
    pub id: u64,
    /// Normalized endpoint label, e.g. `"/v1/models/{name}/score"`.
    pub endpoint: String,
    /// End-to-end duration in microseconds (the root span's duration).
    pub total_micros: u64,
    /// Spans in creation order; index 0 is the root.
    pub spans: Vec<Span>,
    /// Trace-level annotations (status code, model name, …).
    pub notes: Vec<(String, Value)>,
}

impl Trace {
    /// Sum of the durations of every span named `name` (0 if absent).
    pub fn stage_micros(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0u64, |acc, s| acc.saturating_add(s.duration_micros))
    }

    /// Approximate heap + inline footprint, used by the recorder's
    /// ring-buffer byte budget. Deliberately an over-estimate: strings
    /// count their length plus a fixed per-node overhead.
    pub fn approx_bytes(&self) -> usize {
        const TRACE_OVERHEAD: usize = 64;
        const SPAN_OVERHEAD: usize = 48;
        const NOTE_OVERHEAD: usize = 32;
        let note_bytes = |notes: &[(String, Value)]| {
            notes.iter().fold(0usize, |acc, (k, v)| {
                let vlen = match v {
                    Value::Str(s) => s.len(),
                    _ => 8,
                };
                acc.saturating_add(NOTE_OVERHEAD + k.len() + vlen)
            })
        };
        let span_bytes = self.spans.iter().fold(0usize, |acc, s| {
            acc.saturating_add(SPAN_OVERHEAD + s.name.len() + note_bytes(&s.notes))
        });
        TRACE_OVERHEAD + self.endpoint.len() + span_bytes + note_bytes(&self.notes)
    }
}

/// Renders a trace id as the 16-hex-digit form used in the
/// `x-holo-trace` response header and the `/v1/trace/{id}` path.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses the hex form produced by [`format_trace_id`].
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Process-wide trace sequence; ids are this counter mixed through
/// splitmix64 so consecutive requests get well-scattered ids.
static NEXT_TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

fn next_trace_id() -> u64 {
    // fetch_update instead of fetch_add: the lint suite's
    // counter-discipline rule reserves the fetch_add family for the
    // saturating-counter idiom; a wrapping sequence is spelled out.
    let seq = NEXT_TRACE_SEQ
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.wrapping_add(1))
        })
        .unwrap_or(0);
    splitmix64(seq)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hands out [`TraceBuilder`]s bound to a shared [`SpanRecorder`].
#[derive(Clone)]
pub struct Tracer {
    recorder: Arc<SpanRecorder>,
}

impl Tracer {
    /// Creates a tracer recording finished traces into `recorder`.
    pub fn new(recorder: Arc<SpanRecorder>) -> Self {
        Tracer { recorder }
    }

    /// The recorder finished traces are delivered to.
    pub fn recorder(&self) -> &Arc<SpanRecorder> {
        &self.recorder
    }

    /// Starts a new trace whose root span is named `endpoint`.
    ///
    /// The endpoint label should be *normalized* (path parameters
    /// replaced by placeholders) — it keys the slow-exemplar store, so
    /// unbounded label cardinality would unbound its memory.
    pub fn span(&self, endpoint: &str) -> TraceBuilder {
        self.span_since(endpoint, Stopwatch::start())
    }

    /// [`Tracer::span`] for a trace whose clock started at `started`
    /// (e.g. when a request's first bytes arrived), so work measured
    /// before the builder existed can be attached at its true offset
    /// with [`TraceBuilder::child_at`].
    pub fn span_since(&self, endpoint: &str, started: Stopwatch) -> TraceBuilder {
        TraceBuilder::with_recorder(endpoint, Some(Arc::clone(&self.recorder)), started)
    }
}

struct OpenSpan {
    name: String,
    parent: Option<usize>,
    start_micros: u64,
    end_micros: Option<u64>,
    notes: Vec<(String, Value)>,
}

/// An in-progress span tree. Obtained from [`Tracer::span`] (recorded
/// on finish) or [`TraceBuilder::detached`] (not recorded).
///
/// The builder is stack-shaped: [`TraceBuilder::child`] opens a span
/// nested under the currently open one, [`TraceBuilder::close`] closes
/// the innermost open span. Any shape of open/close sequence yields a
/// well-formed tree: closes past the root are ignored and spans still
/// open at [`TraceBuilder::finish`] are closed there. Durations
/// measured elsewhere (another thread, a returned report) are attached
/// as already-completed children via [`TraceBuilder::child_micros`].
pub struct TraceBuilder {
    id: u64,
    endpoint: String,
    clock: Stopwatch,
    spans: Vec<OpenSpan>,
    /// Indices into `spans` of currently-open spans; the root (index 0)
    /// is always at the bottom.
    stack: Vec<usize>,
    notes: Vec<(String, Value)>,
    recorder: Option<Arc<SpanRecorder>>,
}

impl TraceBuilder {
    fn with_recorder(
        endpoint: &str,
        recorder: Option<Arc<SpanRecorder>>,
        clock: Stopwatch,
    ) -> Self {
        let root = OpenSpan {
            name: endpoint.to_string(),
            parent: None,
            start_micros: 0,
            end_micros: None,
            notes: Vec::new(),
        };
        TraceBuilder {
            id: next_trace_id(),
            endpoint: endpoint.to_string(),
            clock,
            spans: vec![root],
            stack: vec![0],
            notes: Vec::new(),
            recorder,
        }
    }

    /// A builder with no recorder attached; [`TraceBuilder::finish`]
    /// just returns the trace. Used by tests and standalone callers.
    pub fn detached(endpoint: &str) -> Self {
        Self::with_recorder(endpoint, None, Stopwatch::start())
    }

    /// This trace's id (echoed to clients before the trace finishes).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Microseconds since the trace started, on the trace's own clock.
    pub fn elapsed_micros(&self) -> u64 {
        self.clock.elapsed_micros()
    }

    fn current(&self) -> usize {
        self.stack.last().copied().unwrap_or(0)
    }

    /// Opens a span named `name` nested under the currently open span.
    pub fn child(&mut self, name: &str) -> &mut Self {
        let parent = self.current();
        let start = self.clock.elapsed_micros();
        self.spans.push(OpenSpan {
            name: name.to_string(),
            parent: Some(parent),
            start_micros: start,
            end_micros: None,
            notes: Vec::new(),
        });
        self.stack.push(self.spans.len() - 1);
        self
    }

    /// Closes the innermost open span. Ignored once only the root
    /// remains open — the root closes at [`TraceBuilder::finish`].
    pub fn close(&mut self) -> &mut Self {
        if self.stack.len() > 1 {
            if let Some(idx) = self.stack.pop() {
                let end = self.clock.elapsed_micros();
                if let Some(span) = self.spans.get_mut(idx) {
                    span.end_micros = Some(end.max(span.start_micros));
                }
            }
        }
        self
    }

    /// Attaches an already-completed child span (duration measured
    /// elsewhere) ending now, under the currently open span.
    pub fn child_micros(&mut self, name: &str, duration_micros: u64) -> &mut Self {
        let now = self.clock.elapsed_micros();
        self.child_at(name, now.saturating_sub(duration_micros), duration_micros)
    }

    /// Attaches an already-completed child span with an explicit start
    /// offset, under the currently open span. The start offset is
    /// clamped to be no earlier than the parent's.
    pub fn child_at(&mut self, name: &str, start_micros: u64, duration_micros: u64) -> &mut Self {
        let parent = self.current();
        let parent_start = self.spans.get(parent).map(|p| p.start_micros).unwrap_or(0);
        let start = start_micros.max(parent_start);
        self.spans.push(OpenSpan {
            name: name.to_string(),
            parent: Some(parent),
            start_micros: start,
            end_micros: Some(start.saturating_add(duration_micros)),
            notes: Vec::new(),
        });
        self
    }

    /// Annotates the currently open span with a typed key/value pair.
    pub fn annotate(&mut self, key: &str, value: Value) -> &mut Self {
        let idx = self.current();
        if let Some(span) = self.spans.get_mut(idx) {
            span.notes.push((key.to_string(), value));
        }
        self
    }

    /// Annotates the trace itself (status, model name, …) rather than
    /// any one span.
    pub fn note(&mut self, key: &str, value: Value) -> &mut Self {
        self.notes.push((key.to_string(), value));
        self
    }

    /// Closes every open span (root included), records the completed
    /// trace into the tracer's recorder, and returns it.
    pub fn finish(mut self) -> Trace {
        let clock_end = self.clock.elapsed_micros();
        while let Some(idx) = self.stack.pop() {
            if let Some(span) = self.spans.get_mut(idx) {
                if span.end_micros.is_none() {
                    span.end_micros = Some(clock_end.max(span.start_micros));
                }
            }
        }
        // The trace covers every span: a completed child attached with
        // an explicit start (child_at), or one clamped forward to its
        // parent's start, may end past this builder's own elapsed time.
        let end = self
            .spans
            .iter()
            .fold(clock_end, |acc, s| acc.max(s.end_micros.unwrap_or(0)));
        if let Some(root) = self.spans.get_mut(0) {
            root.end_micros = Some(end);
        }
        let spans = self
            .spans
            .into_iter()
            .map(|s| {
                let span_end = s.end_micros.unwrap_or(end).max(s.start_micros);
                Span {
                    name: s.name,
                    parent: s.parent,
                    start_micros: s.start_micros,
                    duration_micros: span_end - s.start_micros,
                    notes: s.notes,
                }
            })
            .collect();
        let trace = Trace {
            id: self.id,
            endpoint: self.endpoint,
            total_micros: end,
            spans,
            notes: self.notes,
        };
        if let Some(recorder) = self.recorder.take() {
            recorder.record(trace.clone());
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_roundtrip() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert_eq!(parse_trace_id(&format_trace_id(a)), Some(a));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id("00000000000000000"), None);
    }

    #[test]
    fn builder_yields_rooted_tree() {
        let mut t = TraceBuilder::detached("/score");
        t.child("validate");
        t.annotate("rows", Value::U64(3));
        t.close();
        t.child("score");
        t.child("featurize");
        // leave featurize and score open: finish must close them.
        let trace = t.finish();
        assert_eq!(trace.spans.len(), 4);
        let root = &trace.spans[0];
        assert_eq!(root.name, "/score");
        assert_eq!(root.parent, None);
        assert_eq!(root.duration_micros, trace.total_micros);
        for (i, s) in trace.spans.iter().enumerate().skip(1) {
            let p = s.parent.expect("non-root spans have parents");
            assert!(p < i);
            assert!(s.start_micros >= trace.spans[p].start_micros);
            assert!(s.start_micros + s.duration_micros <= trace.total_micros);
        }
        assert_eq!(trace.spans[3].parent, Some(2)); // featurize under score
    }

    #[test]
    fn excess_closes_are_ignored() {
        let mut t = TraceBuilder::detached("/x");
        t.close().close();
        t.child("a");
        t.close().close().close();
        let trace = t.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(0));
    }

    #[test]
    fn span_since_places_earlier_work_before_later_stages() {
        let tracer = Tracer::new(Arc::new(SpanRecorder::new(
            crate::recorder::RecorderConfig::default(),
        )));
        let started = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let parse = started.elapsed_micros();
        let mut t = tracer.span_since("/x", started);
        t.child_at("parse", 0, parse);
        t.child("validate");
        t.close();
        let trace = t.finish();
        assert_eq!(trace.spans[1].start_micros, 0);
        let validate = &trace.spans[2];
        assert!(
            validate.start_micros >= parse,
            "validate starts after parse"
        );
        assert!(trace.total_micros >= parse + validate.duration_micros);
    }

    #[test]
    fn completed_children_clamp_into_parent() {
        let mut t = TraceBuilder::detached("/x");
        t.child_micros("log-append", 5_000);
        t.child_at("score", 0, 250);
        let trace = t.finish();
        assert_eq!(trace.stage_micros("log-append"), 5_000);
        assert_eq!(trace.stage_micros("score"), 250);
        assert_eq!(trace.stage_micros("absent"), 0);
        for s in &trace.spans {
            assert!(s.start_micros <= trace.total_micros.max(s.start_micros));
        }
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let small = TraceBuilder::detached("/a").finish();
        let mut b = TraceBuilder::detached("/a");
        b.child("a-much-longer-span-name");
        b.annotate("key", Value::Str("value".into()));
        let big = b.finish();
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
