//! In-memory spans around the benchmark's calls into the program.
//!
//! A span has a name, a start, an end, its parent and the id of the
//! operation it belongs to. Spans stay in memory and are written out once,
//! when the run ends. A span's self time is its duration minus the part of
//! its interval that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// An open span; close it with [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new operation: spans opened from here on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_us: now,
            end_us: now,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: Open) -> f64 {
        let popped = self.open.pop();
        assert_eq!(popped, Some(span.0), "spans must close innermost first");
        let now = self.now_us();
        let s = &mut self.spans[span.0];
        s.end_us = now;
        s.dur_us()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }
}

/// Self time of every span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            // Union of the children's intervals, clipped to the parent.
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_us));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Total self time per span name, in microseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Total duration per span name, in microseconds.
pub fn total_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.dur_us();
    }
    out
}

/// How well the layers account for a replay: the summed self time of
/// every span under the root spans named `root`, divided by those roots'
/// wall time. 1.0 means the layer spans cover the replay exactly.
pub fn reconcile(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
    for s in spans {
        root_of[s.id] = match s.parent {
            None if s.name == root => Some(s.id),
            None => None,
            Some(p) => root_of[p],
        };
    }
    let (mut wall, mut layers) = (0.0, 0.0);
    for (s, t) in spans.iter().zip(selfs) {
        match root_of[s.id] {
            Some(r) if r == s.id => wall += s.dur_us(),
            Some(_) => layers += t,
            None => {}
        }
    }
    if wall > 0.0 {
        layers / wall
    } else {
        0.0
    }
}

/// Summed wall time of the root spans named `root`, in microseconds.
pub fn root_wall_us(spans: &[Span], root: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(Span::dur_us)
        .sum()
}

/// The spans as JSON lines (one object per span).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}\n",
            s.id, s.op, s.name, s.start_us, s.end_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "replay", 0.0, 100.0),
            span(1, Some(0), "a", 10.0, 40.0),
            // Overlaps its sibling: covered once, not twice.
            span(2, Some(0), "b", 30.0, 60.0),
            span(3, Some(2), "c", 35.0, 45.0),
            // Sticks out past the parent: clipped.
            span(4, Some(0), "a", 90.0, 120.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100.0 - 50.0 - 10.0, 30.0, 20.0, 10.0, 30.0]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["a"], 60.0);
        assert_eq!(total_time_by_name(&spans)["b"], 30.0);
    }

    #[test]
    fn reconcile_is_layer_self_time_over_root_wall() {
        let spans = vec![
            span(0, None, "replay", 0.0, 100.0),
            span(1, Some(0), "a", 0.0, 50.0),
            span(2, Some(1), "b", 10.0, 20.0),
            span(3, Some(0), "c", 50.0, 95.0),
            // Outside any root: ignored.
            span(4, None, "other", 100.0, 500.0),
            span(5, None, "replay", 500.0, 600.0),
            span(6, Some(5), "a", 500.0, 600.0),
        ];
        // Layers: 40 + 10 + 45 + 100 = 195 of 200 µs of root wall.
        assert!((reconcile(&spans, "replay") - 0.975).abs() < 1e-12);
        assert_eq!(root_wall_us(&spans, "replay"), 200.0);
        assert_eq!(reconcile(&spans, "missing"), 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_shares_op_ids() {
        let mut t = Tracer::new();
        t.next_op();
        let root = t.enter("replay");
        let inner = t.time("work", || 7);
        assert_eq!(inner, 7);
        t.exit(root);
        t.next_op();
        t.time("later", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[0].end_us);
        assert!(to_json_lines(s).lines().count() == 3);
    }
}
