//! Span trees: one [`Trace`] per request, and the [`stage`] guard that
//! times every stage into them.
//!
//! A trace is a flat `Vec` of spans in creation order whose tree shape
//! is carried by parent *indices* — index 0 is always the root span
//! (named after the endpoint), and every other span's parent index is
//! strictly smaller than its own. That representation is what makes
//! the recorder's byte accounting and the JSON rendering in holo-serve
//! trivial: no boxes, no recursion, clone is a memcpy of strings.
//!
//! All offsets are microseconds on the trace's own monotonic clock
//! ([`crate::Stopwatch`]), relative to trace start.
//!
//! ## The current trace
//!
//! [`SpanRecorder::begin`] and [`ActiveTrace::detached`] install a trace as
//! the calling thread's *current* one, so code that cannot take a trace
//! parameter (the live model's ingest and refit, the adaptive refit)
//! still records its stages into it. A trace begun while another is
//! current shadows it until it finishes. Finishing or dropping an
//! [`ActiveTrace`] uninstalls it, so a panic unwinding out of a handler
//! never leaves its trace behind for the thread's next request.

use crate::recorder::SpanRecorder;
use holo_prof::Stopwatch;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The note key a closed [`Stage`] records its allocation count under.
pub(crate) const ALLOCS_NOTE: &str = "allocs";
/// The note key a closed [`Stage`] records its allocated bytes under.
pub(crate) const ALLOC_BYTES_NOTE: &str = "alloc_bytes";

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
    pub notes: Vec<(&'static str, Value)>,
}

/// A completed span tree for one request (or one background unit of
/// work), as stored in the [`SpanRecorder`].
#[derive(Debug, Clone, Default)]
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
    pub notes: Vec<(&'static str, Value)>,
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
        let note_bytes = |notes: &[(&'static str, Value)]| {
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

impl SpanRecorder {
    /// Starts a trace whose root span is named `endpoint` and whose
    /// clock started at `started` (e.g. when a request's first bytes
    /// arrived, so work measured before the trace existed can be
    /// attached at its true offset with [`ActiveTrace::child_at`]), and
    /// installs it as the calling thread's current trace. It is
    /// recorded here when [`ActiveTrace::finish`] is called.
    ///
    /// The endpoint label should be *normalized* (path parameters
    /// replaced by placeholders) — it keys the slow-exemplar store, so
    /// unbounded label cardinality would unbound its memory.
    pub fn begin(self: &Arc<Self>, endpoint: &str, started: Stopwatch) -> ActiveTrace {
        ActiveTrace::install(TraceBuilder::new(endpoint, Some(Arc::clone(self)), started))
    }
}

struct OpenSpan {
    name: String,
    parent: Option<usize>,
    start_micros: u64,
    end_micros: Option<u64>,
    notes: Vec<(&'static str, Value)>,
}

/// The in-progress span tree behind an [`ActiveTrace`]. Stages open
/// spans nested under the innermost open one and close them in any
/// order; spans still open at [`TraceBuilder::finish`] are closed there.
struct TraceBuilder {
    id: u64,
    endpoint: String,
    clock: Stopwatch,
    spans: Vec<OpenSpan>,
    /// Indices into `spans` of currently-open spans; the root (index 0)
    /// is always at the bottom.
    stack: Vec<usize>,
    notes: Vec<(&'static str, Value)>,
    recorder: Option<Arc<SpanRecorder>>,
}

impl TraceBuilder {
    fn new(endpoint: &str, recorder: Option<Arc<SpanRecorder>>, clock: Stopwatch) -> Self {
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

    fn current(&self) -> usize {
        self.stack.last().copied().unwrap_or(0)
    }

    /// Opens a span named `name` under the innermost open span,
    /// returning its index.
    fn open(&mut self, name: &str) -> usize {
        let parent = self.current();
        let start = self.clock.elapsed_micros();
        self.spans.push(OpenSpan {
            name: name.to_string(),
            parent: Some(parent),
            start_micros: start,
            end_micros: None,
            notes: Vec::new(),
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        idx
    }

    /// Closes the stage span at `idx` after `micros`, noting the
    /// stage's allocations on it.
    fn close_stage(&mut self, idx: usize, micros: u64, allocs: u64, bytes: u64) {
        if let Some(span) = self.spans.get_mut(idx) {
            span.end_micros = Some(span.start_micros.saturating_add(micros));
            span.notes.push((ALLOCS_NOTE, Value::U64(allocs)));
            span.notes.push((ALLOC_BYTES_NOTE, Value::U64(bytes)));
        }
        if idx != 0 {
            self.stack.retain(|&i| i != idx);
        }
    }

    /// Attaches an already-completed child span with an explicit start
    /// offset, under the innermost open span. The start offset is
    /// clamped to be no earlier than the parent's.
    fn child_at(&mut self, name: &str, start_micros: u64, duration_micros: u64) {
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
    }

    fn annotate(&mut self, idx: usize, key: &'static str, value: Value) {
        if let Some(span) = self.spans.get_mut(idx) {
            span.notes.push((key, value));
        }
    }

    /// Closes every open span (root included), records the completed
    /// trace into its recorder, if any, and returns it. The builder is
    /// left empty: a stage that outlives its trace closes into nothing.
    fn finish(&mut self) -> Trace {
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
        let spans = std::mem::take(&mut self.spans)
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
            endpoint: std::mem::take(&mut self.endpoint),
            total_micros: end,
            spans,
            notes: std::mem::take(&mut self.notes),
        };
        if let Some(recorder) = self.recorder.take() {
            recorder.record(trace.clone());
        }
        trace
    }
}

type SharedBuilder = Rc<RefCell<TraceBuilder>>;

thread_local! {
    /// The traces installed on this thread, the current one last.
    static CURRENT: RefCell<Vec<SharedBuilder>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's current trace, if one is installed.
fn current() -> Option<SharedBuilder> {
    CURRENT
        .try_with(|c| c.try_borrow().ok().and_then(|v| v.last().cloned()))
        .ok()
        .flatten()
}

/// A trace installed as the calling thread's current one, so every
/// [`stage`] the thread opens records a span into it. Obtained from
/// [`SpanRecorder::begin`] (recorded on finish) or [`ActiveTrace::detached`]
/// (not recorded). Finishing or dropping it uninstalls it, handing the
/// thread back to whichever trace it shadowed.
#[must_use = "the trace is uninstalled when dropped"]
pub struct ActiveTrace {
    id: u64,
    builder: SharedBuilder,
}

impl ActiveTrace {
    fn install(builder: TraceBuilder) -> Self {
        let id = builder.id;
        let builder = Rc::new(RefCell::new(builder));
        let _ = CURRENT.try_with(|c| {
            if let Ok(mut traces) = c.try_borrow_mut() {
                traces.push(Rc::clone(&builder));
            }
        });
        ActiveTrace { id, builder }
    }

    /// Installs a trace whose root span is named `endpoint` and that no
    /// recorder receives: [`ActiveTrace::finish`] just returns it.
    pub fn detached(endpoint: &str) -> Self {
        Self::install(TraceBuilder::new(endpoint, None, Stopwatch::start()))
    }

    /// This trace's id (echoed to clients before the trace finishes).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches an already-completed child span (measured before the
    /// trace existed, or elsewhere) under the innermost open span, at
    /// `start_micros` from trace start — clamped to be no earlier than
    /// its parent's start.
    pub fn child_at(&self, name: &str, start_micros: u64, duration_micros: u64) {
        if let Ok(mut b) = self.builder.try_borrow_mut() {
            b.child_at(name, start_micros, duration_micros);
        }
    }

    /// Uninstalls the trace, closes every span still open, records it
    /// (when begun by [`SpanRecorder::begin`]) and returns it.
    pub fn finish(self) -> Trace {
        self.uninstall();
        // A failed borrow is unreachable: no borrow of a builder
        // outlives the call that took it, and builders never leave
        // their thread.
        self.builder
            .try_borrow_mut()
            .map_or_else(|_| Trace::default(), |mut b| b.finish())
    }

    fn uninstall(&self) {
        let _ = CURRENT.try_with(|c| {
            if let Ok(mut traces) = c.try_borrow_mut() {
                traces.retain(|b| !Rc::ptr_eq(b, &self.builder));
            }
        });
    }
}

impl Drop for ActiveTrace {
    fn drop(&mut self) {
        self.uninstall();
    }
}

/// Annotates the calling thread's current trace itself (status, model
/// name, …) rather than any one span. Does nothing without one.
pub fn note(key: &'static str, value: Value) {
    if let Some(builder) = current() {
        if let Ok(mut b) = builder.try_borrow_mut() {
            b.notes.push((key, value));
        }
    }
}

/// Starts timing a stage named `name`: the one way the workspace times
/// a stage of a request, an ingest or a refit.
///
/// Entering reads the clock and the thread's allocation counters, and
/// opens a child span of the innermost open stage when the thread has
/// a current trace ([`SpanRecorder::begin`]). Closing — on drop, or through
/// [`Stage::end`], which also returns the stage's microseconds —
/// closes the span and notes the stage's allocation count (`allocs`)
/// and bytes (`alloc_bytes`) on it. Those include nested stages; the
/// stage's own span bookkeeping falls outside both readings.
pub fn stage(name: &str) -> Stage {
    let span = current().and_then(|builder| {
        let idx = builder.try_borrow_mut().ok()?.open(name);
        Some((builder, idx))
    });
    Stage {
        span,
        allocs: holo_prof::thread_alloc_count(),
        bytes: holo_prof::thread_alloc_bytes(),
        clock: Stopwatch::start(),
        ended: false,
    }
}

/// A running stage; see [`stage`].
#[must_use = "a stage closes when dropped"]
pub struct Stage {
    span: Option<(SharedBuilder, usize)>,
    allocs: u64,
    bytes: u64,
    clock: Stopwatch,
    ended: bool,
}

impl Stage {
    /// Annotates the stage's span (nothing when untraced).
    pub fn note(&self, key: &'static str, value: Value) {
        if let Some((builder, idx)) = &self.span {
            if let Ok(mut b) = builder.try_borrow_mut() {
                b.annotate(*idx, key, value);
            }
        }
    }

    /// Closes the stage and returns its duration in microseconds.
    pub fn end(mut self) -> u64 {
        self.ended = true;
        self.close()
    }

    fn close(&mut self) -> u64 {
        let micros = self.clock.elapsed_micros();
        let allocs = holo_prof::thread_alloc_count().wrapping_sub(self.allocs);
        let bytes = holo_prof::thread_alloc_bytes().wrapping_sub(self.bytes);
        if let Some((builder, idx)) = self.span.take() {
            if let Ok(mut b) = builder.try_borrow_mut() {
                b.close_stage(idx, micros, allocs, bytes);
            }
        }
        micros
    }
}

impl Drop for Stage {
    fn drop(&mut self) {
        if !self.ended {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(trace: &Trace) -> Vec<&str> {
        trace.spans.iter().map(|s| s.name.as_str()).collect()
    }

    fn note_of(span: &Span, key: &str) -> Option<Value> {
        span.notes
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

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
        let t = ActiveTrace::detached("/score");
        stage("validate").note("rows", Value::U64(3));
        let score = stage("score");
        let featurize = stage("featurize");
        // score and featurize are still open: finish must close them.
        let trace = t.finish();
        drop((featurize, score));
        assert_eq!(names(&trace), ["/score", "validate", "score", "featurize"]);
        let root = &trace.spans[0];
        assert_eq!(root.parent, None);
        assert_eq!(root.duration_micros, trace.total_micros);
        for (i, s) in trace.spans.iter().enumerate().skip(1) {
            let p = s.parent.expect("non-root spans have parents");
            assert!(p < i);
            assert!(s.start_micros >= trace.spans[p].start_micros);
            assert!(s.start_micros + s.duration_micros <= trace.total_micros);
        }
        assert_eq!(trace.spans[3].parent, Some(2)); // featurize under score
        assert_eq!(note_of(&trace.spans[1], "rows"), Some(Value::U64(3)));
    }

    #[test]
    fn excess_closes_are_ignored() {
        let t = ActiveTrace::detached("/x");
        let a = stage("a");
        let b = stage("b");
        // Closing `a` before `b` leaves `b` the innermost open stage.
        drop(a);
        drop(stage("c"));
        drop(b);
        let late = stage("late");
        let trace = t.finish();
        // A stage closing after its trace finished changes nothing.
        drop(late);
        assert_eq!(names(&trace), ["/x", "a", "b", "c", "late"]);
        assert_eq!(trace.spans[3].parent, Some(2), "c nests under b");
        assert_eq!(trace.spans[4].parent, Some(0));
    }

    #[test]
    fn span_since_places_earlier_work_before_later_stages() {
        let recorder = Arc::new(SpanRecorder::new(crate::recorder::RecorderConfig::default()));
        let started = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let parse = started.elapsed_micros();
        let t = recorder.begin("/x", started);
        t.child_at("parse", 0, parse);
        drop(stage("validate"));
        let trace = t.finish();
        assert_eq!(recorder.get(trace.id).map(|r| r.id), Some(trace.id));
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
        let t = ActiveTrace::detached("/x");
        t.child_at("log-append", 0, 5_000);
        let validate = stage("validate");
        t.child_at("score", 0, 250);
        drop(validate);
        let trace = t.finish();
        assert_eq!(trace.stage_micros("log-append"), 5_000);
        assert_eq!(trace.stage_micros("score"), 250);
        assert_eq!(trace.stage_micros("absent"), 0);
        let score = &trace.spans[3];
        assert_eq!(score.parent, Some(2), "score attaches under validate");
        assert!(score.start_micros >= trace.spans[2].start_micros);
    }

    #[test]
    fn a_trace_begun_inside_another_shadows_it_then_hands_it_back() {
        let outer = ActiveTrace::detached("/outer");
        let before = stage("before");
        let mut held: Vec<Vec<u8>> = Vec::with_capacity(1);
        let inner = ActiveTrace::detached("/inner");
        {
            let _shadowed = stage("shadowed");
            held.push(Vec::with_capacity(100));
        }
        note("where", Value::Str("inner".into()));
        let inner_trace = inner.finish();
        let before_micros = before.end();
        drop(stage("after"));
        let outer_trace = outer.finish();
        assert!(current().is_none(), "finishing uninstalls");
        assert_eq!(names(&inner_trace), ["/inner", "shadowed"]);
        assert_eq!(names(&outer_trace), ["/outer", "before", "after"]);
        assert_eq!(inner_trace.notes.len(), 1);
        assert!(outer_trace.notes.is_empty());
        // An enclosing stage's allocations include what ran inside it.
        let Some(Value::U64(bytes)) = note_of(&outer_trace.spans[1], "alloc_bytes") else {
            panic!("no alloc_bytes note on {:?}", outer_trace.spans[1]);
        };
        assert!(bytes >= 100, "{bytes}");
        assert_eq!(outer_trace.spans[1].duration_micros, before_micros);
    }

    #[test]
    fn a_panic_inside_a_trace_leaves_no_current_trace_behind() {
        let caught = std::panic::catch_unwind(|| {
            let _trace = ActiveTrace::detached("/panics");
            let _stage = stage("doomed");
            panic!("handler panicked");
        });
        assert!(caught.is_err());
        assert!(current().is_none(), "the unwound trace is still installed");
        // The thread's next trace starts clean; without one, a stage
        // only times.
        let _ = stage("untraced").end();
        let next = ActiveTrace::detached("/next");
        drop(stage("fresh"));
        assert_eq!(names(&next.finish()), ["/next", "fresh"]);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let small = ActiveTrace::detached("/a").finish();
        let b = ActiveTrace::detached("/a");
        stage("a-much-longer-span-name").note("key", Value::Str("value".into()));
        let big = b.finish();
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
