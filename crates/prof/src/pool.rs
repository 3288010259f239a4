//! Worker-pool utilization accounting.
//!
//! Long-lived worker threads (HTTP workers, the refit scheduler)
//! register a [`PoolStats`] slot by name and book their time into two
//! saturating buckets: **busy** (doing work — handling a connection,
//! running a refit tick) and **idle** (blocked waiting for work or
//! sleeping between ticks). The derived busy ratio — busy over busy-plus-idle — is the
//! single number that answers "is this pool under- or over-sized",
//! surfaced as `/v1/prof`'s `pools` array and the
//! `holo_prof_worker_busy_ratio` metrics family.
//!
//! Like lock stats, slots are deduplicated by name in a process-wide
//! registry: four HTTP workers all book into `"http-worker"`, so the
//! ratio describes the pool, not one thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Cumulative busy/idle accounting for one named worker pool.
#[derive(Debug)]
pub struct PoolStats {
    name: &'static str,
    busy_micros: AtomicU64,
    idle_micros: AtomicU64,
    tasks: AtomicU64,
}

static POOLS: Mutex<Vec<Arc<PoolStats>>> = Mutex::new(Vec::new());

impl PoolStats {
    /// Returns the stats slot for `name`, creating it on first use.
    /// Every worker in a pool registers the same name and shares the
    /// slot.
    pub fn register(name: &'static str) -> Arc<PoolStats> {
        let mut pools = POOLS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = pools.iter().find(|s| s.name == name) {
            return Arc::clone(s);
        }
        let stats = Arc::new(PoolStats {
            name,
            busy_micros: AtomicU64::new(0),
            idle_micros: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        });
        pools.push(Arc::clone(&stats));
        stats
    }

    /// The name this pool registered under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Books `micros` of busy time and counts one completed task.
    pub fn record_busy(&self, micros: u64) {
        crate::sat_add(&self.busy_micros, micros);
        crate::sat_add(&self.tasks, 1);
    }

    /// Books `micros` of idle (waiting/sleeping) time.
    pub fn record_idle(&self, micros: u64) {
        crate::sat_add(&self.idle_micros, micros);
    }
}

/// Point-in-time counters for one pool name.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSnapshot {
    /// The name the pool registered under.
    pub pool: &'static str,
    /// Total microseconds workers spent doing work.
    pub busy_micros: u64,
    /// Total microseconds workers spent waiting for work.
    pub idle_micros: u64,
    /// Tasks completed (one per `record_busy` call).
    pub tasks: u64,
    /// `busy / (busy + idle)`, or `0.0` before any time is booked.
    pub busy_ratio: f64,
}

/// Snapshots every registered pool, in name order.
pub fn pool_snapshots() -> Vec<PoolSnapshot> {
    let pools = POOLS.lock().unwrap_or_else(PoisonError::into_inner);
    let mut out: Vec<PoolSnapshot> = pools
        .iter()
        .map(|s| {
            let busy = s.busy_micros.load(Ordering::Relaxed);
            let idle = s.idle_micros.load(Ordering::Relaxed);
            let denom = busy.saturating_add(idle);
            PoolSnapshot {
                pool: s.name,
                busy_micros: busy,
                idle_micros: idle,
                tasks: s.tasks.load(Ordering::Relaxed),
                busy_ratio: if denom == 0 {
                    0.0
                } else {
                    busy as f64 / denom as f64
                },
            }
        })
        .collect();
    out.sort_by(|a, b| a.pool.cmp(b.pool));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name: &str) -> Option<PoolSnapshot> {
        pool_snapshots().into_iter().find(|p| p.pool == name)
    }

    #[test]
    fn busy_idle_and_ratio() {
        let p = PoolStats::register("pool-test-ratio");
        let before = snap("pool-test-ratio").unwrap();
        p.record_busy(3_000);
        p.record_idle(1_000);
        let after = snap("pool-test-ratio").unwrap();
        assert_eq!(after.busy_micros - before.busy_micros, 3_000);
        assert_eq!(after.idle_micros - before.idle_micros, 1_000);
        assert_eq!(after.tasks - before.tasks, 1);
        assert!(after.busy_ratio > 0.0 && after.busy_ratio < 1.0);
    }

    #[test]
    fn register_dedupes_by_name() {
        let a = PoolStats::register("pool-test-dedupe");
        let b = PoolStats::register("pool-test-dedupe");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            pool_snapshots()
                .iter()
                .filter(|p| p.pool == "pool-test-dedupe")
                .count(),
            1
        );
    }

    #[test]
    fn snapshots_sorted_by_name() {
        let snaps = pool_snapshots();
        for pair in snaps.windows(2) {
            assert!(pair[0].pool <= pair[1].pool);
        }
    }
}
