//! Instrumented lock wrappers: [`ProfMutex`] and [`ProfRwLock`].
//!
//! Drop-in replacements for [`std::sync::Mutex`] / [`std::sync::RwLock`]
//! that carry a short static *name* and book, per name:
//!
//! * **acquires** — successful lock acquisitions;
//! * **contended** — acquisitions that could not take the lock
//!   immediately (the `try_*` fast path failed and the caller blocked);
//! * **wait time** — microseconds spent blocked, totalled and bucketed
//!   into a fixed histogram ([`LOCK_WAIT_BOUNDS_MICROS`]);
//! * **hold time** — microseconds the guard lived, totalled.
//!
//! Stats are deduplicated by name in a process-wide registry, so every
//! `LiveModel`'s state lock aggregates under `"state"` — the counters are
//! cumulative and monotone for the life of the process, which is what
//! `/v1/prof` consumers (and its monotonicity test) rely on.
//!
//! The wrappers preserve std semantics exactly: `lock()`/`read()`/
//! `write()` return [`LockResult`] and poisoning propagates (a poisoned
//! inner lock surfaces as `Err(PoisonError)` wrapping a live guard), so
//! call sites written against std locks — including the workspace's
//! `unwrap_or_else(PoisonError::into_inner)` read-path idiom — compile
//! unchanged. The uncontended path costs one `try_lock` plus two
//! relaxed atomic updates and one `Instant` read for hold timing; wait
//! timing (a second `Instant` pair) is only paid on contention.
//!
//! The declared lock *hierarchy* (see `crates/stream/src/live.rs`) is
//! a property of acquisition order, not lock type; wrapping does not
//! change it, and the holo-lint `lock-order` rule keeps watching the
//! same field names.

use crate::clock::Stopwatch;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError,
};

/// Number of finite histogram bounds for lock-wait times.
pub const LOCK_WAIT_BUCKETS: usize = 10;

/// Upper bounds (µs, inclusive) of the lock-wait histogram buckets; an
/// implicit `+Inf` bucket catches the overflow. Chosen to resolve both
/// "a scoring read briefly bumped into an ingest write" (single-digit
/// µs) and "a refit held everything up" (tens of ms).
pub const LOCK_WAIT_BOUNDS_MICROS: [u64; LOCK_WAIT_BUCKETS] =
    [5, 10, 25, 50, 100, 250, 1_000, 5_000, 25_000, 100_000];

/// Per-name lock counters. One instance per distinct name, shared by
/// every lock registered under that name.
#[derive(Debug)]
struct LockStats {
    name: &'static str,
    acquires: AtomicU64,
    contended: AtomicU64,
    wait_micros: AtomicU64,
    hold_micros: AtomicU64,
    /// One count per recorded wait; index `LOCK_WAIT_BUCKETS` is +Inf.
    wait_buckets: [AtomicU64; LOCK_WAIT_BUCKETS + 1],
}

static LOCKS: Mutex<Vec<Arc<LockStats>>> = Mutex::new(Vec::new());

impl LockStats {
    /// Returns the stats slot for `name`, creating it on first use.
    fn register(name: &'static str) -> Arc<LockStats> {
        let mut locks = LOCKS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = locks.iter().find(|s| s.name == name) {
            return Arc::clone(s);
        }
        let stats = Arc::new(LockStats {
            name,
            acquires: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait_micros: AtomicU64::new(0),
            hold_micros: AtomicU64::new(0),
            wait_buckets: [const { AtomicU64::new(0) }; LOCK_WAIT_BUCKETS + 1],
        });
        locks.push(Arc::clone(&stats));
        stats
    }

    fn record_acquire(&self) {
        crate::sat_add(&self.acquires, 1);
    }

    fn record_contended_wait(&self, micros: u64) {
        crate::sat_add(&self.contended, 1);
        crate::sat_add(&self.wait_micros, micros);
        let idx = crate::bucket_index(&LOCK_WAIT_BOUNDS_MICROS, micros);
        if let Some(bucket) = self.wait_buckets.get(idx) {
            crate::sat_add(bucket, 1);
        }
    }

    fn record_hold(&self, micros: u64) {
        crate::sat_add(&self.hold_micros, micros);
    }
}

/// Point-in-time counters for one lock name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSnapshot {
    /// The name the lock(s) registered under.
    pub lock: &'static str,
    /// Successful acquisitions (read + write for `ProfRwLock`).
    pub acquires: u64,
    /// Acquisitions that blocked.
    pub contended: u64,
    /// Total microseconds spent blocked.
    pub wait_micros: u64,
    /// Total microseconds guards were held.
    pub hold_micros: u64,
    /// Wait histogram counts; parallel to [`LOCK_WAIT_BOUNDS_MICROS`]
    /// with a final +Inf bucket. Sums to `contended`.
    pub wait_buckets: [u64; LOCK_WAIT_BUCKETS + 1],
}

/// Snapshots every registered lock, hottest (by total wait) first;
/// name breaks ties so the ordering is deterministic.
pub fn lock_snapshots() -> Vec<LockSnapshot> {
    let locks = LOCKS.lock().unwrap_or_else(PoisonError::into_inner);
    let mut out: Vec<LockSnapshot> = locks
        .iter()
        .map(|s| {
            let mut wait_buckets = [0u64; LOCK_WAIT_BUCKETS + 1];
            for (dst, src) in wait_buckets.iter_mut().zip(s.wait_buckets.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            LockSnapshot {
                lock: s.name,
                acquires: s.acquires.load(Ordering::Relaxed),
                contended: s.contended.load(Ordering::Relaxed),
                wait_micros: s.wait_micros.load(Ordering::Relaxed),
                hold_micros: s.hold_micros.load(Ordering::Relaxed),
                wait_buckets,
            }
        })
        .collect();
    out.sort_by(|a, b| b.wait_micros.cmp(&a.wait_micros).then(a.lock.cmp(b.lock)));
    out
}

/// A named, contention-instrumented [`Mutex`].
pub struct ProfMutex<T> {
    stats: Arc<LockStats>,
    inner: Mutex<T>,
}

impl<T> ProfMutex<T> {
    /// Creates a mutex whose contention is booked under `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        ProfMutex {
            stats: LockStats::register(name),
            inner: Mutex::new(value),
        }
    }

    /// The name this lock registered under.
    pub fn name(&self) -> &'static str {
        self.stats.name
    }

    /// Acquires the lock, booking wait time if it blocks and hold time
    /// for the guard's lifetime. Poisoning propagates exactly as with
    /// [`Mutex::lock`].
    pub fn lock(&self) -> LockResult<ProfMutexGuard<'_, T>> {
        let (inner, poisoned) = match self.inner.try_lock() {
            Ok(g) => (g, false),
            Err(TryLockError::Poisoned(p)) => (p.into_inner(), true),
            Err(TryLockError::WouldBlock) => {
                let wait = Stopwatch::start();
                let r = self.inner.lock();
                self.stats.record_contended_wait(wait.elapsed_micros());
                match r {
                    Ok(g) => (g, false),
                    Err(p) => (p.into_inner(), true),
                }
            }
        };
        self.stats.record_acquire();
        let guard = ProfMutexGuard {
            inner,
            stats: &self.stats,
            held: Stopwatch::start(),
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }
}

impl<T> fmt::Debug for ProfMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfMutex")
            .field("name", &self.stats.name)
            .finish_non_exhaustive()
    }
}

/// Guard for [`ProfMutex`]; books hold time when dropped.
#[derive(Debug)]
pub struct ProfMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    stats: &'a LockStats,
    held: Stopwatch,
}

impl<T> Deref for ProfMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for ProfMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for ProfMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.stats.record_hold(self.held.elapsed_micros());
    }
}

/// A named, contention-instrumented [`RwLock`].
pub struct ProfRwLock<T> {
    stats: Arc<LockStats>,
    inner: RwLock<T>,
}

impl<T> ProfRwLock<T> {
    /// Creates a reader-writer lock whose contention is booked under
    /// `name`. Reads and writes share one stats slot: a reader stalled
    /// behind a writer and a writer stalled behind readers both count
    /// as contention on the same lock.
    pub fn new(name: &'static str, value: T) -> Self {
        ProfRwLock {
            stats: LockStats::register(name),
            inner: RwLock::new(value),
        }
    }

    /// The name this lock registered under.
    pub fn name(&self) -> &'static str {
        self.stats.name
    }

    /// Acquires shared access; wait time is booked if a writer (or the
    /// platform's writer-preference policy) makes the reader block.
    pub fn read(&self) -> LockResult<ProfRwLockReadGuard<'_, T>> {
        let (inner, poisoned) = match self.inner.try_read() {
            Ok(g) => (g, false),
            Err(TryLockError::Poisoned(p)) => (p.into_inner(), true),
            Err(TryLockError::WouldBlock) => {
                let wait = Stopwatch::start();
                let r = self.inner.read();
                self.stats.record_contended_wait(wait.elapsed_micros());
                match r {
                    Ok(g) => (g, false),
                    Err(p) => (p.into_inner(), true),
                }
            }
        };
        self.stats.record_acquire();
        let guard = ProfRwLockReadGuard {
            inner,
            stats: &self.stats,
            held: Stopwatch::start(),
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    /// Acquires exclusive access; wait time is booked if the lock is
    /// held by readers or another writer.
    pub fn write(&self) -> LockResult<ProfRwLockWriteGuard<'_, T>> {
        let (inner, poisoned) = match self.inner.try_write() {
            Ok(g) => (g, false),
            Err(TryLockError::Poisoned(p)) => (p.into_inner(), true),
            Err(TryLockError::WouldBlock) => {
                let wait = Stopwatch::start();
                let r = self.inner.write();
                self.stats.record_contended_wait(wait.elapsed_micros());
                match r {
                    Ok(g) => (g, false),
                    Err(p) => (p.into_inner(), true),
                }
            }
        };
        self.stats.record_acquire();
        let guard = ProfRwLockWriteGuard {
            inner,
            stats: &self.stats,
            held: Stopwatch::start(),
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }
}

impl<T> fmt::Debug for ProfRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfRwLock")
            .field("name", &self.stats.name)
            .finish_non_exhaustive()
    }
}

/// Shared guard for [`ProfRwLock`]; books hold time when dropped.
#[derive(Debug)]
pub struct ProfRwLockReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    stats: &'a LockStats,
    held: Stopwatch,
}

impl<T> Deref for ProfRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for ProfRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.stats.record_hold(self.held.elapsed_micros());
    }
}

/// Exclusive guard for [`ProfRwLock`]; books hold time when dropped.
#[derive(Debug)]
pub struct ProfRwLockWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    stats: &'a LockStats,
    held: Stopwatch,
}

impl<T> Deref for ProfRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for ProfRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for ProfRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.stats.record_hold(self.held.elapsed_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    fn snap(name: &str) -> LockSnapshot {
        lock_snapshots()
            .into_iter()
            .find(|s| s.lock == name)
            .unwrap_or(LockSnapshot {
                lock: "missing",
                acquires: 0,
                contended: 0,
                wait_micros: 0,
                hold_micros: 0,
                wait_buckets: [0; LOCK_WAIT_BUCKETS + 1],
            })
    }

    #[test]
    fn uncontended_mutex_books_acquires_not_waits() {
        let m = ProfMutex::new("lock-test-uncontended", 7u32);
        let before = snap("lock-test-uncontended");
        for _ in 0..5 {
            let mut g = m.lock().unwrap();
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap(), 12);
        let after = snap("lock-test-uncontended");
        assert_eq!(after.acquires - before.acquires, 6);
        assert_eq!(after.contended, before.contended);
        assert_eq!(after.wait_micros, before.wait_micros);
    }

    #[test]
    fn writer_held_rwlock_books_reader_wait() {
        let l = Arc::new(ProfRwLock::new("lock-test-writer-blocks", 0u32));
        let before = snap("lock-test-writer-blocks");
        let (entered_tx, entered_rx) = mpsc::channel();
        let writer = {
            let l = Arc::clone(&l);
            thread::spawn(move || {
                let mut g = l.write().unwrap();
                entered_tx.send(()).unwrap();
                thread::sleep(Duration::from_millis(20));
                *g = 1;
            })
        };
        entered_rx.recv().unwrap();
        // Writer provably holds the lock: this read must block ~20ms.
        let seen = *l.read().unwrap();
        writer.join().unwrap();
        assert_eq!(seen, 1);
        let after = snap("lock-test-writer-blocks");
        assert!(after.contended > before.contended);
        assert!(
            after.wait_micros >= before.wait_micros + 10_000,
            "reader wait not booked: {} -> {}",
            before.wait_micros,
            after.wait_micros
        );
        let bucket_total: u64 = after.wait_buckets.iter().sum();
        assert_eq!(bucket_total, after.contended);
    }

    #[test]
    fn contended_mutex_books_wait_and_hold() {
        let m = Arc::new(ProfMutex::new("lock-test-contended", ()));
        let before = snap("lock-test-contended");
        let (entered_tx, entered_rx) = mpsc::channel();
        let holder = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                let _g = m.lock().unwrap();
                entered_tx.send(()).unwrap();
                thread::sleep(Duration::from_millis(15));
            })
        };
        entered_rx.recv().unwrap();
        let _ = m.lock().unwrap();
        holder.join().unwrap();
        let after = snap("lock-test-contended");
        assert!(after.contended > before.contended);
        assert!(after.wait_micros >= before.wait_micros + 5_000);
        assert!(after.hold_micros >= before.hold_micros + 5_000);
    }

    #[test]
    fn poison_propagates_through_wrapper() {
        let m = Arc::new(ProfMutex::new("lock-test-poison", 1u32));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        let r = m.lock();
        assert!(r.is_err());
        // The std recovery idiom works through the wrapper.
        let g = r.unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*g, 1);
    }

    #[test]
    fn same_name_shares_one_stats_slot() {
        let a = ProfMutex::new("lock-test-shared-slot", 0u8);
        let b = ProfMutex::new("lock-test-shared-slot", 0u8);
        let before = snap("lock-test-shared-slot");
        drop(a.lock().unwrap());
        drop(b.lock().unwrap());
        let after = snap("lock-test-shared-slot");
        assert_eq!(after.acquires - before.acquires, 2);
        assert_eq!(
            lock_snapshots()
                .iter()
                .filter(|s| s.lock == "lock-test-shared-slot")
                .count(),
            1
        );
    }

    #[test]
    fn snapshots_rank_by_wait_time() {
        let snaps = lock_snapshots();
        for pair in snaps.windows(2) {
            assert!(pair[0].wait_micros >= pair[1].wait_micros);
        }
    }
}
