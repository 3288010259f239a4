//! The workspace's single monotonic-clock helper.
//!
//! Every duration the workspace reports — span durations, lock wait
//! times, scenario latencies, bench wall times — funnels through
//! [`Stopwatch`] so the clock source and the rounding rules live in
//! exactly one place. The wall clock ([`std::time::SystemTime`]) is
//! never consulted: it can jump backwards under NTP correction, and
//! the lint suite's seed-hygiene rule bans it outside `crates/bench`
//! for determinism reasons anyway.
//!
//! This module used to live in `holo-trace`; it moved here when
//! `holo-prof` became the lowest layer of the observability stack so
//! both tracing (spans) and profiling (lock wait/hold, pool busy/idle)
//! share one clock. `holo_trace::Stopwatch` re-exports this type, so
//! existing imports keep working.

use std::time::{Duration, Instant};

/// A started monotonic clock.
///
/// A thin wrapper over [`Instant`] with the duration conversions the
/// workspace actually uses, so callers never hand-roll
/// `elapsed().as_secs_f64() * 1e3`-style arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current monotonic instant.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed whole microseconds, saturating at `u64::MAX`.
    pub fn elapsed_micros(&self) -> u64 {
        duration_micros(self.elapsed())
    }

    /// Elapsed fractional milliseconds.
    pub fn elapsed_millis(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }

    /// Elapsed fractional seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Converts a [`Duration`] to whole microseconds, saturating at
/// `u64::MAX` (a duration that long is an upstream bug, not a value
/// worth widening every counter to u128 for).
pub fn duration_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_monotone_and_consistent() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_micros();
        let b = sw.elapsed_micros();
        assert!(b >= a);
        assert!(sw.elapsed_secs() >= 0.0);
        assert!(sw.elapsed_millis() >= 0.0);
    }

    #[test]
    fn micros_conversions() {
        assert_eq!(duration_micros(Duration::from_micros(250)), 250);
        assert_eq!(duration_micros(Duration::ZERO), 0);
        assert_eq!(duration_micros(Duration::MAX), u64::MAX);
    }
}
