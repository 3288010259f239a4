//! The always-on instruments, observed in a test process of their own:
//! per-thread allocation counters, global totals, lock stats and pool
//! stats count without any server or trace running.

#[test]
fn always_on_instruments_work_while_disabled() {
    let t0 = holo_prof::thread_alloc_bytes();
    let v: Vec<u8> = Vec::with_capacity(2048);
    let t1 = holo_prof::thread_alloc_bytes();
    drop(v);
    assert_eq!(t1.wrapping_sub(t0), 2048);
    let totals = holo_prof::alloc_totals();
    assert!(totals.allocs > 0);
    assert!(totals.bytes >= 2048);

    let m = holo_prof::ProfMutex::new("disabled-proc-lock", 5u8);
    assert_eq!(*m.lock().unwrap(), 5);
    assert!(holo_prof::lock_snapshots()
        .iter()
        .any(|l| l.lock == "disabled-proc-lock" && l.acquires >= 1));

    let p = holo_prof::PoolStats::register("disabled-proc-pool");
    p.record_busy(10);
    p.record_idle(30);
    let snap = holo_prof::pool_snapshots()
        .into_iter()
        .find(|s| s.pool == "disabled-proc-pool")
        .unwrap();
    assert_eq!(snap.tasks, 1);
    assert!((snap.busy_ratio - 0.25).abs() < 1e-9);
}
