//! Property tests for trace correctness: any sequence of stage opens
//! and closes yields a well-formed tree, the recorder's ring buffer
//! never exceeds its byte budget, and concurrent tracing from worker
//! threads never interleaves spans across trace ids.

use holo_trace::{
    note, stage, ActiveTrace, RecorderConfig, SpanRecorder, Stage, Stopwatch, Trace, Value,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Structural well-formedness: rooted at index 0, parents precede
/// children, children start no earlier than their parents, and every
/// span fits inside the trace's total duration.
fn assert_well_formed(trace: &Trace) -> Result<(), String> {
    if trace.spans.is_empty() {
        return Err("trace has no root span".to_string());
    }
    for (i, span) in trace.spans.iter().enumerate() {
        match (i, span.parent) {
            (0, None) => {}
            (0, Some(p)) => return Err(format!("root has parent {p}")),
            (_, None) => return Err(format!("span {i} has no parent")),
            (_, Some(p)) => {
                if p >= i {
                    return Err(format!("span {i} has forward parent {p}"));
                }
                let parent_start = trace.spans[p].start_micros;
                if span.start_micros < parent_start {
                    return Err(format!("span {i} starts before parent {p}"));
                }
            }
        }
        let end = span.start_micros.saturating_add(span.duration_micros);
        if end > trace.total_micros {
            return Err(format!(
                "span {i} ends at {end} past total {}",
                trace.total_micros
            ));
        }
    }
    if trace.spans[0].duration_micros != trace.total_micros {
        return Err("root span does not cover the trace".to_string());
    }
    Ok(())
}

/// Note keys are `&'static str`, so annotations draw theirs from a fixed
/// pool: the keys the server writes, plus the ones stages record.
const NOTE_KEYS: [&str; 6] = ["method", "status", "model", "rows", "allocs", "alloc_bytes"];

/// Applies one encoded op to the trace and its open stages. The op
/// space deliberately includes pathological shapes: closing a stage
/// that is not the innermost one, closing with nothing open, leaving
/// stages open for finish to sweep, and attaching completed children
/// with arbitrary offsets/durations.
fn apply_op(t: &ActiveTrace, open: &mut Vec<Stage>, op: u8, name: &str, amount: u64) {
    let key = NOTE_KEYS[amount as usize % NOTE_KEYS.len()];
    match op % 5 {
        0 => open.push(stage(name)),
        1 => drop(open.pop()),
        2 => {
            if !open.is_empty() {
                drop(open.remove(amount as usize % open.len()));
            }
        }
        3 => t.child_at(name, amount / 2, amount),
        _ => match open.last() {
            Some(s) => s.note(key, Value::U64(amount)),
            None => note(key, Value::U64(amount)),
        },
    }
}

proptest! {
    /// Any sequence of stage opens, closes in any order, completed-child
    /// attachments, and annotations finishes into a well-formed tree.
    #[test]
    fn any_open_close_sequence_is_well_formed(
        ops in proptest::collection::vec(0u8..5, 0..40),
        names in proptest::collection::vec("[a-e]{1,6}", 40..41),
        amounts in proptest::collection::vec(0u64..50_000, 40..41),
    ) {
        let t = ActiveTrace::detached("/prop");
        let mut open = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            apply_op(&t, &mut open, op, &names[i], amounts[i]);
        }
        let trace = t.finish();
        drop(open);
        if let Err(msg) = assert_well_formed(&trace) {
            prop_assert!(false, "{}", msg);
        }
        // Every open contributes exactly one span; closes/annotations none.
        let opens = ops.iter().filter(|&&o| matches!(o % 5, 0 | 3)).count();
        prop_assert_eq!(trace.spans.len(), opens + 1);
    }

    /// However many traces of whatever size are recorded, the ring's
    /// byte accounting never exceeds its configured budget.
    #[test]
    fn ring_never_exceeds_byte_budget(
        budget in 64usize..2_048,
        shapes in proptest::collection::vec((0u8..4, 1usize..12, 0u64..10_000), 1..60),
    ) {
        let rec = SpanRecorder::new(RecorderConfig {
            ring_bytes: budget,
            slow_per_endpoint: 2,
        });
        for &(endpoint, spans, micros) in &shapes {
            let t = ActiveTrace::detached(match endpoint {
                0 => "/score",
                1 => "/predict",
                2 => "/rows",
                _ => "/an/intentionally/longer/endpoint/label/to/vary/cost",
            });
            for s in 0..spans {
                t.child_at(if s % 2 == 0 { "score" } else { "encode" }, 0, micros);
            }
            rec.record(t.finish());
            prop_assert!(
                rec.ring_bytes_used() <= budget,
                "ring used {} > budget {}",
                rec.ring_bytes_used(),
                budget
            );
        }
        prop_assert!(rec.recorded_total() >= shapes.len() as u64);
    }

    /// Worker threads tracing concurrently through one shared recorder
    /// never bleed spans across trace ids: every recorded trace holds
    /// only the stages its own thread ran, and ids stay unique.
    #[test]
    fn concurrent_tracing_never_interleaves(
        per_thread in 1usize..5,
        spans_per_trace in 1usize..4,
    ) {
        let rec = Arc::new(SpanRecorder::new(RecorderConfig {
            ring_bytes: 1 << 20,
            slow_per_endpoint: 4,
        }));
        std::thread::scope(|s| {
            for worker in 0..4usize {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let t = rec.begin(&format!("/w{worker}"), Stopwatch::start());
                        for j in 0..spans_per_trace {
                            drop(stage(&format!("w{worker}-t{i}-s{j}")));
                        }
                        t.finish();
                    }
                });
            }
        });
        let recent = rec.recent(usize::MAX);
        prop_assert_eq!(recent.len(), 4 * per_thread);
        let mut ids = HashSet::new();
        for trace in &recent {
            prop_assert!(ids.insert(trace.id), "duplicate trace id");
            // Root name identifies the owning worker; every non-root
            // span must carry that worker's tag.
            let owner = trace.endpoint.clone();
            let tag = owner.trim_start_matches('/').to_string();
            for span in trace.spans.iter().skip(1) {
                prop_assert!(
                    span.name.starts_with(&tag),
                    "span {} leaked into trace for {}",
                    span.name.clone(),
                    owner.clone()
                );
            }
        }
    }
}
