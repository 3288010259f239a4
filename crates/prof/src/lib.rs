//! holo-prof: in-process continuous profiling for the HoloDetect
//! serving stack.
//!
//! Spans (`holo-trace`) answer *where a request's time went*; this
//! crate answers *why a stage is slow*, with three std-only,
//! zero-dependency instruments that are always compiled in and cheap
//! enough to leave running in production:
//!
//! 1. **Allocation accounting** ([`CountingAlloc`], [`scope`],
//!    [`thread_alloc_bytes`], [`alloc_totals`], [`scope_allocs`]) — a
//!    `#[global_allocator]` wrapper over [`std::alloc::System`] keeps
//!    saturating global counters (allocs / bytes / freed / live / peak)
//!    plus a per-thread byte counter, and — when profiling is enabled —
//!    attributes allocation to thread-local *scope tags* that use the
//!    same stage names as trace spans, so `/v1/prof`'s top scopes line
//!    up with `/v1/trace`'s stage timings.
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
//! # Enabling
//!
//! Global and per-thread allocation counters, lock stats, and pool
//! stats are always on — they are a few relaxed atomics per event.
//! Only *scope attribution* (the thread-local tag lookup on every
//! allocation, plus per-request span annotations in `holo-serve`) is
//! gated, via [`set_enabled`] — wired to the `--prof` CLI flag.
//! Enabling is **sticky**: callers only ever turn it on, never off,
//! so parallel tests sharing one process cannot race it back off and
//! cumulative counters stay monotone.
//!
//! # Layering
//!
//! This crate is the lowest layer of the observability stack: it also
//! owns the workspace's single monotonic clock ([`Stopwatch`],
//! [`duration_micros`], [`nonzero_micros`]), which `holo-trace`
//! re-exports for its spans. Nothing here depends on any other
//! workspace crate.
//!
//! # Reading the numbers
//!
//! `GET /v1/prof` on a running `holo-serve` returns the JSON snapshot
//! (top allocation scopes, hottest locks by wait time, pool
//! utilization); `/metrics` exports the same data as
//! `holo_prof_alloc_bytes{scope=…}`,
//! `holo_prof_lock_wait_micros{lock=…}` histograms, and
//! `holo_prof_worker_busy_ratio{pool=…}`. All counters are cumulative
//! since process start: rates come from scraping twice and differencing.

#![deny(unsafe_code)]
#![deny(rust_2018_idioms)]

mod alloc;
mod clock;
mod lock;
mod pool;

pub use alloc::{
    alloc_totals, scope, scope_allocs, thread_alloc_bytes, AllocTotals, CountingAlloc, ScopeAlloc,
    ScopeGuard, MAX_SCOPES,
};
pub use clock::{duration_micros, nonzero_micros, Stopwatch};
pub use lock::{
    lock_snapshots, LockSnapshot, ProfMutex, ProfMutexGuard, ProfRwLock, ProfRwLockReadGuard,
    ProfRwLockWriteGuard, LOCK_WAIT_BOUNDS_MICROS, LOCK_WAIT_BUCKETS,
};
pub use pool::{pool_snapshots, PoolSnapshot, PoolStats};

use std::sync::atomic::{AtomicU64, Ordering};

/// Turns scope attribution on (or, in principle, off).
///
/// Production call sites only ever pass `true` — see the stickiness
/// note in the crate docs. The always-on instruments (global alloc
/// totals, thread byte counters, lock stats, pool stats) are not
/// affected by this switch.
pub fn set_enabled(on: bool) {
    alloc::ENABLED.store(on, Ordering::Relaxed);
}

/// Whether scope attribution is currently enabled.
pub fn enabled() -> bool {
    alloc::ENABLED.load(Ordering::Relaxed)
}

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
    fn enable_is_observable() {
        set_enabled(true);
        assert!(enabled());
    }
}
