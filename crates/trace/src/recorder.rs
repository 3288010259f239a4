//! The bounded trace store: ring buffer, slow-request exemplars,
//! per-stage histograms, and one histogram of every trace's root span
//! — all fed by the same [`Trace`]s so aggregates and exemplars cannot
//! disagree.
//!
//! Memory is fixed up front: the ring holds at most
//! [`RecorderConfig::ring_bytes`] of traces (overwrite-oldest, measured
//! by [`Trace::approx_bytes`]), and the exemplar store holds at most
//! [`RecorderConfig::slow_per_endpoint`] traces per normalized endpoint
//! label. Recording is one short [`Mutex`] critical section — no
//! allocation beyond moving the already-built trace in, no I/O.

use crate::span::{Span, Trace, Value, ALLOCS_NOTE, ALLOC_BYTES_NOTE};
use holo_prof::{bucket_index, sat_add, ProfMutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;

/// Histogram bucket upper bounds (microseconds, inclusive) for the
/// per-stage duration histograms and the all-endpoints root histogram,
/// so stage and end-to-end distributions line up on the same axes.
pub const STAGE_BOUNDS_MICROS: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

const _: () = holo_prof::assert_bounds(&STAGE_BOUNDS_MICROS);

/// Sizing for a [`SpanRecorder`].
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Byte budget for the recent-trace ring (oldest traces are evicted
    /// once the sum of [`Trace::approx_bytes`] would exceed it).
    pub ring_bytes: usize,
    /// How many worst-by-duration exemplar traces to retain per
    /// endpoint label.
    pub slow_per_endpoint: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ring_bytes: 1 << 20, // 1 MiB ≈ a few thousand score traces
            slow_per_endpoint: 8,
        }
    }
}

/// A snapshot of one stage's duration histogram and allocation totals.
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage (span) name.
    pub stage: String,
    /// Per-bucket counts; index `i` counts durations `<=
    /// STAGE_BOUNDS_MICROS[i]`, with one final overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed durations in microseconds.
    pub sum_micros: u64,
    /// Allocations noted on the stage's spans by [`crate::stage`]
    /// (nested stages included).
    pub allocs: u64,
    /// Heap bytes noted on the stage's spans by [`crate::stage`].
    pub alloc_bytes: u64,
}

struct SlowEntry {
    endpoint: String,
    /// Worst-first by `total_micros`.
    traces: Vec<Trace>,
}

struct RecorderInner {
    ring: VecDeque<Trace>,
    ring_used: usize,
    slow: Vec<SlowEntry>,
    stages: Vec<StageStat>,
    /// Every trace's root span, whatever its endpoint.
    roots: StageStat,
}

/// Bounded store of completed traces.
///
/// Lock discipline: one internal mutex (`traces`, registered in the
/// workspace lock hierarchy and instrumented as the `"traces"`
/// [`ProfMutex`] so `/v1/prof` sees its contention) guarding ring +
/// exemplars + histograms; it is never held across a call into
/// another crate.
pub struct SpanRecorder {
    config: RecorderConfig,
    traces: ProfMutex<RecorderInner>,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl SpanRecorder {
    /// Creates an empty recorder with the given bounds.
    pub fn new(config: RecorderConfig) -> Self {
        SpanRecorder {
            config,
            traces: ProfMutex::new(
                "traces",
                RecorderInner {
                    ring: VecDeque::new(),
                    ring_used: 0,
                    slow: Vec::new(),
                    stages: Vec::new(),
                    roots: StageStat::empty(String::new()),
                },
            ),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Stores a completed trace: accumulates its spans into the stage
    /// histograms and allocation totals and its root span into the
    /// all-endpoints root histogram, offers it to the slow-exemplar
    /// store, and appends it to the ring (evicting oldest-first to stay
    /// within budget).
    pub fn record(&self, trace: Trace) {
        sat_add(&self.recorded, 1);
        let mut evicted = 0u64;
        {
            let mut inner = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
            for span in &trace.spans {
                observe_stage(&mut inner.stages, span);
            }
            if let Some(root) = trace.spans.first() {
                observe(&mut inner.roots, root);
            }
            offer_slow(&mut inner.slow, &trace, self.config.slow_per_endpoint);
            let cost = trace.approx_bytes();
            if cost <= self.config.ring_bytes {
                inner.ring.push_back(trace);
                inner.ring_used = inner.ring_used.saturating_add(cost);
                while inner.ring_used > self.config.ring_bytes {
                    match inner.ring.pop_front() {
                        Some(old) => {
                            inner.ring_used = inner.ring_used.saturating_sub(old.approx_bytes());
                            evicted += 1;
                        }
                        None => break,
                    }
                }
            } else {
                // Larger than the whole budget: never enters the ring
                // (it may still survive as a slow exemplar).
                evicted = 1;
            }
        }
        if evicted > 0 {
            sat_add(&self.evicted, evicted);
        }
    }

    /// The most recent traces, newest first, up to `limit`.
    pub fn recent(&self, limit: usize) -> Vec<Trace> {
        let inner = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        inner.ring.iter().rev().take(limit).cloned().collect()
    }

    /// Looks a trace up by id, searching the ring and then the
    /// slow-exemplar store (a slow trace outlives its ring slot).
    pub fn get(&self, id: u64) -> Option<Trace> {
        let inner = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .ring
            .iter()
            .rev()
            .find(|t| t.id == id)
            .or_else(|| {
                inner
                    .slow
                    .iter()
                    .flat_map(|e| e.traces.iter())
                    .find(|t| t.id == id)
            })
            .cloned()
    }

    /// The slow-request exemplars: for each endpoint label, its worst
    /// traces ordered worst-first.
    pub fn slow(&self) -> Vec<(String, Vec<Trace>)> {
        let inner = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .slow
            .iter()
            .map(|e| (e.endpoint.clone(), e.traces.clone()))
            .collect()
    }

    /// Snapshot of the per-stage duration histograms and allocation
    /// totals, sorted by stage name for stable rendering, and of every
    /// trace's root span folded into one all-endpoints stat (unnamed).
    /// Both come from one critical section, so the root stat always
    /// equals the sum of the root-endpoint stages beside it.
    pub fn stages(&self) -> (Vec<StageStat>, StageStat) {
        let inner = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = inner.stages.clone();
        out.sort_by(|a, b| a.stage.cmp(&b.stage));
        (out, inner.roots.clone())
    }

    /// Bytes currently attributed to the ring (always ≤ the budget).
    pub fn ring_bytes_used(&self) -> usize {
        let inner = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
        inner.ring_used
    }

    /// Total traces ever recorded.
    pub fn recorded_total(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Total traces evicted from (or refused by) the ring.
    pub fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

impl StageStat {
    fn empty(stage: String) -> Self {
        StageStat {
            stage,
            buckets: vec![0; STAGE_BOUNDS_MICROS.len() + 1],
            count: 0,
            sum_micros: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }
}

fn observe_stage(stages: &mut Vec<StageStat>, span: &Span) {
    match stages.iter_mut().find(|s| s.stage == span.name) {
        Some(stat) => observe(stat, span),
        None => {
            let mut stat = StageStat::empty(span.name.clone());
            observe(&mut stat, span);
            stages.push(stat);
        }
    }
}

/// Folds one span's duration and allocation notes into `stat`.
fn observe(stat: &mut StageStat, span: &Span) {
    let micros = span.duration_micros;
    if let Some(slot) = stat
        .buckets
        .get_mut(bucket_index(&STAGE_BOUNDS_MICROS, micros))
    {
        *slot = slot.saturating_add(1);
    }
    stat.count = stat.count.saturating_add(1);
    stat.sum_micros = stat.sum_micros.saturating_add(micros);
    for (key, value) in &span.notes {
        match (*key, value) {
            (ALLOCS_NOTE, Value::U64(n)) => stat.allocs = stat.allocs.saturating_add(*n),
            (ALLOC_BYTES_NOTE, Value::U64(n)) => {
                stat.alloc_bytes = stat.alloc_bytes.saturating_add(*n)
            }
            _ => {}
        }
    }
}

fn offer_slow(slow: &mut Vec<SlowEntry>, trace: &Trace, cap: usize) {
    if cap == 0 {
        return;
    }
    let entry = match slow.iter_mut().find(|e| e.endpoint == trace.endpoint) {
        Some(e) => e,
        None => {
            slow.push(SlowEntry {
                endpoint: trace.endpoint.clone(),
                traces: Vec::new(),
            });
            match slow.last_mut() {
                Some(e) => e,
                None => return, // unreachable: just pushed
            }
        }
    };
    let worse_than_floor = entry
        .traces
        .last()
        .map(|t| trace.total_micros > t.total_micros)
        .unwrap_or(true);
    if entry.traces.len() < cap {
        entry.traces.push(trace.clone());
    } else if worse_than_floor {
        entry.traces.pop();
        entry.traces.push(trace.clone());
    } else {
        return;
    }
    entry
        .traces
        .sort_by_key(|t| std::cmp::Reverse(t.total_micros));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActiveTrace;

    fn trace_of(endpoint: &str, stage: &str, micros: u64) -> Trace {
        let t = ActiveTrace::detached(endpoint);
        t.child_at(stage, 0, micros);
        t.finish()
    }

    #[test]
    fn ring_evicts_oldest_within_budget() {
        let one = trace_of("/s", "score", 5);
        let budget = one.approx_bytes() * 3 + 10;
        let rec = SpanRecorder::new(RecorderConfig {
            ring_bytes: budget,
            slow_per_endpoint: 2,
        });
        let mut ids = Vec::new();
        for i in 0..10 {
            let t = trace_of("/s", "score", i);
            ids.push(t.id);
            rec.record(t);
        }
        assert!(rec.ring_bytes_used() <= budget);
        assert_eq!(rec.recorded_total(), 10);
        assert!(rec.evicted_total() >= 6);
        let recent = rec.recent(100);
        assert!(recent.len() <= 4);
        // Newest first, and the newest id is still present.
        assert_eq!(recent.first().map(|t| t.id), ids.last().copied());
    }

    #[test]
    fn oversized_trace_is_refused_not_wedged() {
        let rec = SpanRecorder::new(RecorderConfig {
            ring_bytes: 16,
            slow_per_endpoint: 1,
        });
        let t = trace_of("/big", "score", 1);
        let id = t.id;
        rec.record(t);
        assert_eq!(rec.ring_bytes_used(), 0);
        assert_eq!(rec.evicted_total(), 1);
        // Still findable through the slow store.
        assert_eq!(rec.get(id).map(|t| t.id), Some(id));
    }

    #[test]
    fn slow_store_keeps_worst_per_endpoint() {
        let rec = SpanRecorder::new(RecorderConfig {
            ring_bytes: 1 << 16,
            slow_per_endpoint: 2,
        });
        for micros in [5, 500, 50, 5_000, 1] {
            let t = ActiveTrace::detached("/score");
            t.child_at("score", 0, micros);
            std::thread::sleep(std::time::Duration::from_micros(micros));
            rec.record(t.finish());
        }
        rec.record(trace_of("/other", "score", 1));
        let slow = rec.slow();
        assert_eq!(slow.len(), 2);
        let score = slow
            .iter()
            .find(|(e, _)| e == "/score")
            .map(|(_, t)| t)
            .expect("score endpoint present");
        assert_eq!(score.len(), 2);
        assert!(score[0].total_micros >= score[1].total_micros);
        // The two kept are the two slowest (~5ms and ~500µs sleeps).
        assert!(score[1].total_micros >= 400);
    }

    #[test]
    fn stage_histograms_accumulate() {
        let rec = SpanRecorder::new(RecorderConfig::default());
        rec.record(trace_of("/s", "score", 200));
        rec.record(trace_of("/s", "score", 90));
        rec.record(trace_of("/s", "encode", 2_000_000));
        rec.record(trace_of("/t", "score", 300));
        let (stages, roots) = rec.stages();
        let names: Vec<&str> = stages.iter().map(|s| s.stage.as_str()).collect();
        // Root spans ("/s", "/t") are stages too; sorted by name.
        assert_eq!(names, ["/s", "/t", "encode", "score"]);
        let score = &stages[3];
        assert_eq!(score.count, 3);
        assert_eq!(score.sum_micros, 590);
        assert_eq!(score.buckets[0], 1); // 90 ≤ 100
        assert_eq!(score.buckets[1], 1); // 200 ≤ 250
        assert_eq!(score.buckets[2], 1); // 300 ≤ 500
        let encode = &stages[2];
        assert_eq!(encode.buckets[STAGE_BOUNDS_MICROS.len()], 1); // overflow
                                                                  // The root stat folds every endpoint's root span together.
        let (s, t) = (&stages[0], &stages[1]);
        assert_eq!(roots.count, 4);
        assert_eq!(roots.sum_micros, s.sum_micros + t.sum_micros);
        assert!(roots.sum_micros >= 2_000_590);
        let summed: Vec<u64> = s
            .buckets
            .iter()
            .zip(&t.buckets)
            .map(|(a, b)| a + b)
            .collect();
        assert_eq!(roots.buckets, summed);
    }

    #[test]
    fn stage_allocation_notes_sum_per_stage() {
        let rec = SpanRecorder::new(RecorderConfig::default());
        for bytes in [100, 24] {
            let t = ActiveTrace::detached("/s");
            let score = crate::stage("score");
            drop(std::hint::black_box(vec![0u8; bytes]));
            drop(score);
            rec.record(t.finish());
        }
        let totals: Vec<(String, u64, u64)> = rec
            .stages()
            .0
            .into_iter()
            .map(|s| (s.stage, s.allocs, s.alloc_bytes))
            .collect();
        assert_eq!(totals, [("/s".into(), 0, 0), ("score".into(), 2, 124)]);
    }

    #[test]
    fn get_finds_recent_by_id() {
        let rec = SpanRecorder::new(RecorderConfig::default());
        let t = trace_of("/s", "score", 7);
        let id = t.id;
        rec.record(t);
        assert_eq!(rec.get(id).map(|t| t.endpoint), Some("/s".to_string()));
        assert!(rec.get(id ^ 1).is_none());
    }
}
