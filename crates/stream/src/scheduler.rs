//! The background refit scheduler.
//!
//! One thread, many live models: each tick it asks every model
//! [`LiveModel::should_refit`]; once a drift signal fires it runs
//! [`LiveModel::refit_to_disk`] (the expensive retrain, off every
//! serving lock) and then [`LiveModel::reload_install`], so the
//! refitted artifact enters serving through the exact generation-bumped
//! hot swap a manual reload of the model uses, and scoring never
//! blocks. When operator labels are buffered on the model, the refit it
//! triggers is the *adaptive* one: `holo_adapt::AdaptiveRefit` turns
//! those labels into learned channel + amplified training examples
//! before retraining.
//!
//! A refit failure (degenerate snapshot, disk trouble) is recorded and
//! retried on a later tick; it never kills the scheduler thread.
//!
//! The thread books its duty cycle into the `"refit-scheduler"`
//! [`holo_prof::PoolStats`] slot: tick bodies (polling + any refits)
//! count as busy, the inter-tick sleep as idle. A busy ratio creeping
//! toward 1.0 means refits are saturating the single scheduler thread.

use crate::live::LiveModel;
use holo_prof::{sat_add, PoolStats, Stopwatch};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Handle to the background thread. Dropping (or calling
/// [`RefitScheduler::shutdown`]) stops it and joins.
pub struct RefitScheduler {
    stop: Arc<AtomicBool>,
    errors: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl RefitScheduler {
    /// Spawn the scheduler polling `models` every `interval`.
    pub fn spawn(models: Vec<Arc<LiveModel>>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(AtomicU64::new(0));
        let thread_stop = Arc::clone(&stop);
        let thread_errors = Arc::clone(&errors);
        let handle = std::thread::Builder::new()
            .name("holo-stream-refit".into())
            .spawn(move || {
                let pool = PoolStats::register("refit-scheduler");
                while !thread_stop.load(Ordering::Relaxed) {
                    let tick = Stopwatch::start();
                    for live in &models {
                        if thread_stop.load(Ordering::Relaxed) {
                            pool.record_busy(tick.elapsed_micros());
                            return;
                        }
                        if !live.should_refit() {
                            continue;
                        }
                        // Isolate each refit attempt: a panic inside
                        // the retrain or the install is a failed
                        // attempt to retry next tick, never a dead
                        // scheduler thread.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            live.refit_to_disk_as("drift")
                                .and_then(|_| live.reload_install())
                        }));
                        if !matches!(outcome, Ok(Ok(_))) {
                            sat_add(&thread_errors, 1);
                        }
                    }
                    pool.record_busy(tick.elapsed_micros());
                    // Sleep in short slices so shutdown is prompt even
                    // with a long polling interval.
                    let idle = Stopwatch::start();
                    let mut left = interval;
                    while !left.is_zero() && !thread_stop.load(Ordering::Relaxed) {
                        let nap = left.min(Duration::from_millis(25));
                        std::thread::sleep(nap);
                        left = left.saturating_sub(nap);
                    }
                    pool.record_idle(idle.elapsed_micros());
                }
            })
            .expect("spawn refit scheduler");
        RefitScheduler {
            stop,
            errors,
            handle: Some(handle),
        }
    }

    /// Refit attempts that failed (and will be retried).
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Stop the thread and join it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RefitScheduler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::StreamConfig;
    use holo_data::{DatasetBuilder, GroundTruth, Schema};
    use holo_eval::FitContext;
    use holodetect::{HoloDetect, HoloDetectConfig};
    use std::path::PathBuf;

    /// A live model, the fresh directory its artifact sits alone in,
    /// and its delta log (outside that directory).
    fn live_with_constraints(tag: &str) -> (Arc<LiveModel>, PathBuf, PathBuf) {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for _ in 0..25 {
            b.push_row(&["60612", "Chicago"]);
            b.push_row(&["53703", "Madison"]);
        }
        let clean = b.build();
        let mut dirty = clean.clone();
        dirty.set_value(0, 1, "Cxhicago");
        dirty.set_value(7, 1, "Madxison");
        let truth = GroundTruth::from_pair(&clean, &dirty);
        let mut cfg = HoloDetectConfig::fast();
        cfg.epochs = 12;
        let train = truth.label_tuples(&dirty, &(0..20).collect::<Vec<_>>());
        let dcs = holo_constraints::parse_constraints("Zip -> City", dirty.schema()).unwrap();
        let model = HoloDetect::new(cfg).fit_model(&FitContext {
            dirty: &dirty,
            train: &train,
            sampling: None,
            constraints: &dcs,
            seed: 3,
        });
        let stamp = format!(
            "{}-{:?}-{tag}",
            std::process::id(),
            std::thread::current().id()
        );
        let dir = std::env::temp_dir().join(format!("holo-sched-{stamp}"));
        let log = std::env::temp_dir().join(format!("holo-sched-{stamp}.dlog"));
        std::fs::remove_file(&log).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("model.holoart");
        model.save(&artifact).unwrap();
        let live = Arc::new(
            LiveModel::open(
                &artifact,
                &log,
                StreamConfig {
                    min_rows_between_refits: 8,
                    baseline_sample_rows: 64,
                    ..StreamConfig::default()
                },
            )
            .unwrap(),
        );
        (live, dir, log)
    }

    #[test]
    fn scheduler_refits_on_drift_and_is_quiet_otherwise() {
        let (live, dir, log) = live_with_constraints("auto");
        let sched = RefitScheduler::spawn(vec![Arc::clone(&live)], Duration::from_millis(10));

        // Quiet traffic: no refit.
        live.ingest_rows(vec![vec!["60612".into(), "Chicago".into()]; 4])
            .unwrap();
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(live.refits_total(), 0, "no drift, no refit");

        // Uniformly FD-violating traffic: the score shape moves past
        // the PSI and KS thresholds and the scheduler refits + hot-swaps
        // in the background. (The batch is large enough that the 4
        // quiet rows above cannot dilute the score shift.)
        let bad: Vec<Vec<String>> = (0..28)
            .map(|i| vec!["60612".to_string(), format!("Springfield{i}")])
            .collect();
        live.ingest_rows(bad).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while live.generation() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(live.generation() >= 1, "scheduler never hot-swapped");
        assert!(live.refits_total() >= 1);
        assert_eq!(live.epoch(), 32, "refit must preserve every epoch");
        assert!(!live.should_refit(), "baseline re-anchored after refit");
        sched.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&log).ok();
    }

    #[test]
    fn failed_swaps_are_counted_and_retried_not_fatal() {
        let (live, dir, log) = live_with_constraints("fail");
        // With the artifact's directory gone, every refit fails at its
        // persist step, before anything could be installed.
        std::fs::remove_dir_all(&dir).unwrap();
        let sched = RefitScheduler::spawn(vec![Arc::clone(&live)], Duration::from_millis(10));
        let bad: Vec<Vec<String>> = (0..12)
            .map(|i| vec!["60612".to_string(), format!("Springfield{i}")])
            .collect();
        live.ingest_rows(bad).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while sched.error_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(sched.error_count() >= 1, "failure must be recorded");
        // The scheduler thread survives failures; shutdown still joins.
        sched.shutdown();
        assert_eq!(live.generation(), 0, "failed swap installs nothing");
        std::fs::remove_file(&log).ok();
    }
}
