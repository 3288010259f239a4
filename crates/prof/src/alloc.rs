//! Counting global allocator.
//!
//! [`CountingAlloc`] wraps [`System`] and is installed as the
//! workspace's `#[global_allocator]` the moment any crate links
//! `holo-prof`. Every allocation bumps saturating global counters
//! (allocation count, cumulative bytes, freed bytes, live bytes, peak
//! live bytes) and two per-thread counters: allocations and bytes.
//! The per-thread pair is what `holo_trace::stage` differences to note
//! each stage's allocations on its span, so attributing heap traffic to
//! a stage needs no tag lookup inside the allocator.
//!
//! The allocator itself never allocates: the hot path only touches
//! const-initialized thread-locals and static atomics. All counters
//! saturate rather than wrap (except the per-thread counters, which
//! wrap so deltas stay exact — see [`thread_alloc_bytes`]), and every
//! path is panic-free: a panic inside a global allocator aborts the
//! process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The global counters, on one cache line of their own. Every
/// allocation and free updates several of them, so counters spread
/// over two lines make each call pay for both; where separate statics
/// land is up to the linker, and it differs between binaries.
#[repr(align(64))]
struct Totals {
    allocs: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

static TOTALS: Totals = Totals {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    freed: AtomicU64::new(0),
    live: AtomicU64::new(0),
    peak: AtomicU64::new(0),
};

thread_local! {
    /// Cumulative allocations made by this thread, wrapping.
    /// Const-initialized `Cell`s so touching them inside the allocator
    /// can never itself allocate or run lazy initialization.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Cumulative bytes allocated by this thread, wrapping.
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The counting `#[global_allocator]` wrapper over [`System`].
///
/// Installed once, here in `holo-prof`; every binary and test target
/// that (transitively) depends on this crate gets it automatically.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[allow(unsafe_code)] // the one unsafe surface in the crate: GlobalAlloc delegation to System
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        record_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Booked as free-old + alloc-new so live/peak stay honest
            // and the new size counts towards the current stage.
            record_dealloc(layout.size() as u64);
            record_alloc(new_size as u64);
        }
        p
    }
}

/// Books one successful allocation of `n` bytes. Must never allocate
/// or panic: it runs inside the global allocator.
fn record_alloc(n: u64) {
    crate::sat_add(&TOTALS.allocs, 1);
    crate::sat_add(&TOTALS.bytes, n);
    let prev = TOTALS
        .live
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_add(n))
        })
        .unwrap_or(0);
    TOTALS
        .peak
        .fetch_max(prev.saturating_add(n), Ordering::Relaxed);
    // `try_with` (never `with`): during thread teardown the TLS slot is
    // gone and `with` would panic — inside an allocator that aborts.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get().wrapping_add(n)));
}

/// Books one deallocation of `n` bytes.
fn record_dealloc(n: u64) {
    crate::sat_add(&TOTALS.freed, n);
    let _ = TOTALS
        .live
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_sub(n))
        });
}

/// Cumulative bytes ever allocated by the *calling thread*, wrapping
/// at `u64::MAX`.
///
/// Per-request allocation deltas are computed as
/// `after.wrapping_sub(before)`: wrapping (rather than saturating)
/// keeps deltas exact even across counter overflow.
pub fn thread_alloc_bytes() -> u64 {
    THREAD_BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Cumulative allocations ever made by the *calling thread* (including
/// the alloc half of reallocs), wrapping at `u64::MAX` like
/// [`thread_alloc_bytes`].
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Point-in-time view of the global allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocTotals {
    /// Successful allocations (including the alloc half of reallocs).
    pub allocs: u64,
    /// Cumulative bytes allocated, saturating.
    pub bytes: u64,
    /// Cumulative bytes freed, saturating.
    pub freed_bytes: u64,
    /// Currently live bytes (allocated minus freed).
    pub live_bytes: u64,
    /// High-water mark of [`AllocTotals::live_bytes`].
    pub peak_bytes: u64,
}

/// Snapshots the global allocation counters.
pub fn alloc_totals() -> AllocTotals {
    AllocTotals {
        allocs: TOTALS.allocs.load(Ordering::Relaxed),
        bytes: TOTALS.bytes.load(Ordering::Relaxed),
        freed_bytes: TOTALS.freed.load(Ordering::Relaxed),
        live_bytes: TOTALS.live.load(Ordering::Relaxed),
        peak_bytes: TOTALS.peak.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_count_allocations_and_track_peak() {
        let before = alloc_totals();
        let v: Vec<u8> = Vec::with_capacity(64 * 1024);
        let after = alloc_totals();
        drop(v);
        let freed = alloc_totals();
        assert!(after.allocs > before.allocs);
        assert!(after.bytes >= before.bytes + 64 * 1024);
        // Peak is monotone and must have seen our 64 KiB while it lived.
        assert!(after.peak_bytes >= before.peak_bytes);
        assert!(after.peak_bytes >= 64 * 1024);
        assert!(freed.freed_bytes >= before.freed_bytes + 64 * 1024);
    }

    #[test]
    fn thread_counter_is_exact_for_a_known_allocation() {
        let (c0, t0) = (thread_alloc_count(), thread_alloc_bytes());
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (c1, t1) = (thread_alloc_count(), thread_alloc_bytes());
        drop(v);
        assert_eq!(t1.wrapping_sub(t0), 4096);
        assert_eq!(c1.wrapping_sub(c0), 1);
    }

    #[test]
    fn realloc_growth_is_counted() {
        let before = alloc_totals();
        let mut v: Vec<u8> = Vec::with_capacity(16);
        for i in 0..4096u32 {
            v.push((i % 251) as u8);
        }
        let after = alloc_totals();
        drop(v);
        assert!(after.bytes >= before.bytes + 4096);
        assert!(after.allocs > before.allocs);
    }
}
