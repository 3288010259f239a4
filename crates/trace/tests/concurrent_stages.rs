//! Property test: a stage's allocation notes are *exact* under
//! concurrent traces.
//!
//! N threads each install their own current trace and open one stage,
//! then make M allocations of a known size inside it
//! (`Vec::<u8>::with_capacity(s)` allocates exactly `s` bytes; the
//! holder vector is pre-sized outside the stage so no incidental
//! reallocation lands inside it). Each stage's span must then note
//! exactly M allocations and M×S bytes — no losses, no double-counting,
//! no cross-thread bleed.

use holo_trace::{stage, ActiveTrace, Stopwatch, Trace, Value};
use proptest::collection;
use proptest::prelude::*;
use std::thread;

fn note(trace: &Trace, stage: &str, key: &str) -> Option<u64> {
    let span = trace.spans.iter().find(|s| s.name == stage)?;
    span.notes.iter().find_map(|(k, v)| match v {
        Value::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

proptest! {
    #[test]
    fn per_stage_notes_are_exact_under_concurrent_traces(
        threads in 1usize..=4,
        allocs in 1usize..=16,
        sizes in collection::vec(1usize..=256, 4),
    ) {
        let traces: Vec<Trace> = thread::scope(|s| {
            let handles: Vec<_> = sizes
                .iter()
                .take(threads)
                .map(|&size| {
                    s.spawn(move || {
                        let trace = ActiveTrace::begin("/prop", Stopwatch::start());
                        let mut holder: Vec<Vec<u8>> = Vec::with_capacity(allocs);
                        {
                            let _stage = stage("alloc");
                            for _ in 0..allocs {
                                holder.push(Vec::with_capacity(size));
                            }
                        }
                        drop(holder);
                        trace.finish()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (trace, &size) in traces.iter().zip(&sizes) {
            prop_assert_eq!(note(trace, "alloc", "allocs"), Some(allocs as u64));
            prop_assert_eq!(
                note(trace, "alloc", "alloc_bytes"),
                Some((allocs * size) as u64)
            );
        }
    }
}
