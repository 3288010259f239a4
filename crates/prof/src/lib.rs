//! holo-prof: in-process continuous profiling for the HoloDetect
//! serving stack.
//!
//! Spans (`holo-trace`) answer *where a request's time went*; this
//! crate answers *why a stage is slow*, with three std-only,
//! zero-dependency instruments that are always compiled in and cheap
//! enough to leave running in production:
//!
//! 1. **Allocation accounting** ([`CountingAlloc`],
//!    [`thread_alloc_count`], [`thread_alloc_bytes`], [`alloc_totals`])
//!    — a `#[global_allocator]` wrapper over [`std::alloc::System`]
//!    keeps saturating global counters (allocs / bytes / freed / live /
//!    peak) plus per-thread allocation and byte counters. A
//!    `holo_trace::stage` differences the per-thread pair across the
//!    stage and notes the result on its span, so `/v1/prof`'s top
//!    allocation scopes line up with `/v1/trace`'s stage timings.
//! 2. **Lock contention** ([`ProfMutex`], [`ProfRwLock`],
//!    [`lock_snapshots`]) — named drop-in lock wrappers that book
//!    acquires, contended acquires, wait-time totals + histograms
//!    ([`LOCK_WAIT_BOUNDS_MICROS`]), and hold time, deduplicated by
//!    name process-wide. These replace the raw locks on the serving hot
//!    paths (`serve`: model registry, recorder, HTTP queue;
//!    `stream`: state / log / drift / labels / timelines / refit).
//! 3. **Worker-pool utilization** ([`PoolStats`], [`pool_snapshots`])
//!    — busy/idle accounting per named pool (HTTP workers, the refit
//!    scheduler), yielding the busy ratio that sizing decisions need.
//!
//! # Cost
//!
//! Every instrument is always on: an allocation costs a few relaxed
//! atomics plus two thread-local increments, a lock or pool event a
//! few relaxed atomics.
//!
//! # Layering
//!
//! This crate is the lowest layer of the observability stack: it also
//! owns the workspace's single monotonic clock ([`Stopwatch`],
//! [`duration_micros`]), whose `Stopwatch` `holo-trace` re-exports for
//! its spans. Nothing here depends on any other workspace crate.
//!
//! # Reading the numbers
//!
//! `GET /v1/prof` on a running `holo-serve` returns the JSON snapshot
//! (top allocation scopes summed from the server's recorded stage
//! spans, hottest locks by wait time, pool utilization); `/metrics`
//! exports the same data as `holo_prof_alloc_bytes{scope=…}`,
//! `holo_prof_lock_wait_micros{lock=…}` histograms, and
//! `holo_prof_worker_busy_ratio{pool=…}`. All counters are cumulative
//! since process start: rates come from scraping twice and differencing.

#![deny(unsafe_code)]
#![deny(rust_2018_idioms)]

mod alloc;
mod clock;
mod lock;
mod pool;

pub use alloc::{alloc_totals, thread_alloc_bytes, thread_alloc_count, AllocTotals, CountingAlloc};
pub use clock::{duration_micros, Stopwatch};
pub use lock::{
    lock_snapshots, LockSnapshot, ProfMutex, ProfMutexGuard, ProfRwLock, ProfRwLockReadGuard,
    ProfRwLockWriteGuard, LOCK_WAIT_BOUNDS_MICROS, LOCK_WAIT_BUCKETS,
};
pub use pool::{pool_snapshots, PoolSnapshot, PoolStats};

use std::sync::atomic::{AtomicU64, Ordering};

/// Saturating add on a relaxed atomic counter: lifetime counters peg
/// at `u64::MAX` instead of wrapping back to zero and faking a reset.
///
/// The workspace's counter-discipline lint bans `fetch_add` (which
/// wraps) in instrumented crates; every counter bump in the workspace
/// (prof, trace, serve, stream) funnels through here instead.
pub fn sat_add(counter: &AtomicU64, v: u64) {
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
        Some(c.saturating_add(v))
    });
}

/// The histogram bucket an observation `v` lands in: the index of the
/// first bound `>= v` in the strictly increasing `bounds`, or
/// `bounds.len()` (the `+Inf` bucket) past the last one. Every
/// histogram in the workspace buckets through this.
pub fn bucket_index(bounds: &[u64], v: u64) -> usize {
    bounds.partition_point(|&b| b < v)
}

/// Panics unless the histogram `bounds` are non-empty and strictly
/// increasing — a non-monotonic bucket list silently misroutes
/// observations. A `const fn`, so a const bound list is checked at
/// compile time.
pub const fn assert_bounds(bounds: &[u64]) {
    assert!(!bounds.is_empty(), "histogram needs at least one bound");
    let mut i = 1;
    while i < bounds.len() {
        assert!(
            bounds[i - 1] < bounds[i],
            "histogram bounds must be strictly increasing"
        );
        i += 1;
    }
}

const _: () = assert_bounds(&LOCK_WAIT_BOUNDS_MICROS);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_add_saturates_at_max() {
        let c = AtomicU64::new(u64::MAX - 1);
        sat_add(&c, 5);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
        sat_add(&c, 1);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn observations_land_in_the_right_buckets() {
        // Bounds are inclusive: le=10 → {1, 10}; le=100 → {11, 100};
        // le=1000 → {}; +Inf → {5000}.
        let buckets: Vec<usize> = [1, 10, 11, 100, 5000]
            .iter()
            .map(|&v| bucket_index(&[10, 100, 1000], v))
            .collect();
        assert_eq!(buckets, [0, 0, 1, 1, 3]);
    }
}
