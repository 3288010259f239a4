//! Fixture tests for every `holo-lint` rule: a positive trigger, a
//! negative non-trigger, the suppression mechanics, and — via the rule
//! filter — proof that each finding really comes from the rule under
//! test (disable the rule and the finding disappears).

use holo_lint::{lint_file, lint_file_filtered, Config, Finding};

/// A config mirroring the checked-in `lint.toml`'s shape, with fixture
/// paths substituted where it keeps the tests self-describing.
fn cfg() -> Config {
    Config::parse(
        r#"
skip = ["vendor", "target"]

[lock-order]
crates = ["serve", "stream"]
order = ["refit_lock", "state", "log", "drift"]

[no-panic-paths]
paths = ["crates/serve/src/http.rs"]

[lock-instrumentation]
crates = ["serve", "stream"]

[counter-discipline]
crates = ["serve", "stream"]
metrics-files = ["crates/serve/src/metrics.rs"]

[seed-hygiene]
allow-paths = ["crates/bench"]
"#,
    )
    .expect("fixture config parses")
}

fn unsuppressed(findings: &[Finding]) -> Vec<&Finding> {
    findings.iter().filter(|f| f.suppressed.is_none()).collect()
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    let mut r: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    r.sort_unstable();
    r.dedup();
    r
}

/// Disabling `rule` must remove every finding it produced — proof the
/// finding is attributable to that rule and the rule is actually live.
fn assert_rule_is_live(path: &str, source: &str, rule: &str) {
    let all = lint_file(path, source, &cfg());
    assert!(
        all.iter().any(|f| f.rule == rule),
        "expected a {rule} finding in the fixture"
    );
    let others: Vec<&str> = holo_lint::RULES
        .iter()
        .map(|(name, _)| *name)
        .filter(|n| *n != rule)
        .collect();
    let without = lint_file_filtered(path, source, &cfg(), Some(&others));
    assert!(
        !without.iter().any(|f| f.rule == rule),
        "disabling {rule} must remove its findings"
    );
}

// ---------------------------------------------------------- lock-order

#[test]
fn lock_order_flags_inverted_acquisition() {
    let src = r#"
fn bad(&self) {
    let log = self.log.lock().unwrap();
    let st = self.state.write().unwrap();
}
"#;
    let path = "crates/stream/src/live.rs";
    let f = lint_file(path, src, &cfg());
    assert!(
        f.iter().any(|f| f.rule == "lock-order" && f.line == 4),
        "log (rank 2) held while acquiring state (rank 1) must flag: {f:?}"
    );
    assert_rule_is_live(path, src, "lock-order");
}

#[test]
fn lock_order_accepts_hierarchy_and_drop_reacquire() {
    let src = r#"
fn good(&self) {
    let st = self.state.write().unwrap();
    let log = self.log.lock().unwrap();
    drop(log);
    drop(st);
    let st2 = self.state.read().unwrap();
}

fn scoped(&self) {
    {
        let st = self.state.read().unwrap();
    }
    let log = self.log.lock().unwrap();
    drop(log);
    let st = self.state.write().unwrap();
}
"#;
    let f = lint_file("crates/stream/src/live.rs", src, &cfg());
    assert!(
        !f.iter().any(|f| f.rule == "lock-order"),
        "in-order and drop-then-reacquire must not flag: {f:?}"
    );
}

#[test]
fn lock_order_ignores_unranked_receivers_and_other_crates() {
    // `read()` on a receiver outside the hierarchy is not an acquisition.
    let src = r#"
fn io(&self) {
    let log = self.log.lock().unwrap();
    let n = self.file.read().unwrap();
}
"#;
    let f = lint_file("crates/stream/src/live.rs", src, &cfg());
    assert!(!f.iter().any(|f| f.rule == "lock-order"), "{f:?}");
    // The same inverted pattern outside the configured crates is silent.
    let bad = r#"
fn bad(&self) {
    let log = self.log.lock().unwrap();
    let st = self.state.write().unwrap();
}
"#;
    let f = lint_file("crates/core/src/other.rs", bad, &cfg());
    assert!(!f.iter().any(|f| f.rule == "lock-order"), "{f:?}");
}

// ------------------------------------------------------ no-panic-paths

#[test]
fn no_panic_flags_unwrap_expect_macros_and_indexing() {
    let src = r#"
fn handle(&self, v: Option<u32>, xs: &[u32]) -> u32 {
    let a = v.unwrap();
    let b = v.expect("present");
    if a == 0 {
        panic!("zero");
    }
    xs[0] + b
}
"#;
    let path = "crates/serve/src/http.rs";
    let f = lint_file(path, src, &cfg());
    let np: Vec<_> = f.iter().filter(|f| f.rule == "no-panic-paths").collect();
    let lines: Vec<usize> = np.iter().map(|f| f.line).collect();
    assert!(lines.contains(&3), "unwrap must flag: {np:?}");
    assert!(lines.contains(&4), "expect must flag: {np:?}");
    assert!(lines.contains(&6), "panic! must flag: {np:?}");
    assert!(lines.contains(&8), "indexing must flag: {np:?}");
    assert_rule_is_live(path, src, "no-panic-paths");
}

#[test]
fn no_panic_is_scoped_to_configured_paths_and_skips_tests() {
    let src = r#"
fn handle(v: Option<u32>) -> u32 {
    v.unwrap()
}
"#;
    // Same code in a file that is not a configured hot path: silent.
    let f = lint_file("crates/serve/src/config.rs", src, &cfg());
    assert!(f.is_empty(), "{f:?}");
    // Test code inside a configured hot path: exempt.
    let tests = r#"
fn fine() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
"#;
    let f = lint_file("crates/serve/src/http.rs", tests, &cfg());
    assert!(f.is_empty(), "test regions are exempt: {f:?}");
}

#[test]
fn no_panic_does_not_flag_recovery_idioms() {
    let src = r#"
fn handle(&self) -> u64 {
    let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
    st.epoch.unwrap_or(0)
}
"#;
    let f = lint_file("crates/serve/src/http.rs", src, &cfg());
    assert!(
        f.is_empty(),
        "unwrap_or / unwrap_or_else are not unwrap: {f:?}"
    );
}

// ----------------------------------------------- thread-entry-isolation

#[test]
fn thread_entry_flags_detached_spawn_without_catch_unwind() {
    let src = r#"
fn start() {
    std::thread::spawn(move || {
        do_work();
    });
}
"#;
    let path = "crates/serve/src/pool.rs";
    let f = lint_file(path, src, &cfg());
    assert!(
        f.iter()
            .any(|f| f.rule == "thread-entry-isolation" && f.line == 3),
        "{f:?}"
    );
    assert_rule_is_live(path, src, "thread-entry-isolation");
}

#[test]
fn thread_entry_accepts_catch_unwind_delegation_and_scoped() {
    let src = r#"
fn worker_loop() {
    let _ = std::panic::catch_unwind(|| step());
}

fn start_inline() {
    std::thread::spawn(move || {
        let _ = std::panic::catch_unwind(|| do_work());
    });
}

fn start_delegated() -> std::io::Result<()> {
    let h = std::thread::Builder::new()
        .name("w".into())
        .spawn(move || worker_loop())?;
    drop(h);
    Ok(())
}

fn start_scoped(xs: &[u32]) {
    std::thread::scope(|s| {
        s.spawn(|| xs.len());
    });
}
"#;
    let f = lint_file("crates/serve/src/pool.rs", src, &cfg());
    assert!(
        !f.iter().any(|f| f.rule == "thread-entry-isolation"),
        "catch_unwind (inline or one-level delegated) and scoped \
         spawns must pass: {f:?}"
    );
}

// --------------------------------------------------- counter-discipline

#[test]
fn counter_flags_wrapping_fetch_add_and_bare_increments() {
    let src = r#"
fn bump(&self) {
    self.total.fetch_add(1, Ordering::Relaxed);
}
"#;
    let path = "crates/serve/src/worker.rs";
    let f = lint_file(path, src, &cfg());
    assert!(
        f.iter()
            .any(|f| f.rule == "counter-discipline" && f.line == 3),
        "{f:?}"
    );
    assert_rule_is_live(path, src, "counter-discipline");

    // Bare compound assignment inside a metrics file.
    let metrics = r#"
fn record(&mut self) {
    self.served += 1;
}
"#;
    let f = lint_file("crates/serve/src/metrics.rs", metrics, &cfg());
    assert!(
        f.iter()
            .any(|f| f.rule == "counter-discipline" && f.line == 3),
        "{f:?}"
    );
}

#[test]
fn counter_accepts_saturating_fetch_update_and_other_crates() {
    let src = r#"
fn bump(&self) {
    let _ = self.total.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
        Some(c.saturating_add(1))
    });
}
"#;
    let f = lint_file("crates/serve/src/worker.rs", src, &cfg());
    assert!(!f.iter().any(|f| f.rule == "counter-discipline"), "{f:?}");

    // fetch_add outside the configured crates is not this rule's business.
    let other = "fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let f = lint_file("crates/core/src/stats.rs", other, &cfg());
    assert!(!f.iter().any(|f| f.rule == "counter-discipline"), "{f:?}");

    // `+=` outside a metrics file is ordinary arithmetic.
    let arith = "fn sum(xs: &[u64]) -> u64 { let mut s = 0; for x in xs { s += x; } s }\n";
    let f = lint_file("crates/serve/src/worker.rs", arith, &cfg());
    assert!(!f.iter().any(|f| f.rule == "counter-discipline"), "{f:?}");
}

// ------------------------------------------------------- seed-hygiene

#[test]
fn seed_flags_ambient_time_and_rng_outside_benches() {
    let src = r#"
fn seed() -> u64 {
    let t = std::time::SystemTime::now();
    t.duration_since(std::time::UNIX_EPOCH).unwrap_or_default().as_nanos() as u64
}
"#;
    let path = "crates/core/src/seed.rs";
    let f = lint_file(path, src, &cfg());
    let sh: Vec<_> = f.iter().filter(|f| f.rule == "seed-hygiene").collect();
    assert!(
        sh.iter().any(|f| f.line == 3),
        "SystemTime must flag: {sh:?}"
    );
    assert!(sh.iter().any(|f| f.line == 4), "as_nanos must flag: {sh:?}");
    assert_rule_is_live(path, src, "seed-hygiene");
}

#[test]
fn seed_allows_benches_and_explicit_seeds() {
    let src = r#"
fn seed() -> u64 {
    let t = std::time::SystemTime::now();
    t.duration_since(std::time::UNIX_EPOCH).unwrap_or_default().as_nanos() as u64
}
"#;
    let f = lint_file("crates/bench/src/wall.rs", src, &cfg());
    assert!(!f.iter().any(|f| f.rule == "seed-hygiene"), "{f:?}");

    // Deterministic seed mixing (splitmix-style) is not ambient entropy.
    let mix = "fn mix(s: u64) -> u64 { s.wrapping_mul(0x9E3779B97F4A7C15) }\n";
    let f = lint_file("crates/core/src/seed.rs", mix, &cfg());
    assert!(f.is_empty(), "{f:?}");
}

// ------------------------------------------------------- suppressions

#[test]
fn suppression_with_reason_allows_and_is_reported_as_allowed() {
    let src = r#"
fn handle(v: Option<u32>) -> u32 {
    // lint:allow(no-panic-paths): fixture proves suppression-with-reason works
    v.unwrap()
}
"#;
    let f = lint_file("crates/serve/src/http.rs", src, &cfg());
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "no-panic-paths");
    assert_eq!(
        f[0].suppressed.as_deref(),
        Some("fixture proves suppression-with-reason works")
    );
    assert!(
        unsuppressed(&f).is_empty(),
        "an allowed finding is not a failure"
    );
}

#[test]
fn trailing_suppression_covers_its_own_line_only() {
    let src = r#"
fn handle(v: Option<u32>) -> u32 {
    let a = v.unwrap(); // lint:allow(no-panic-paths): fixture trailing form
    v.unwrap()
}
"#;
    let f = lint_file("crates/serve/src/http.rs", src, &cfg());
    let open = unsuppressed(&f);
    assert_eq!(open.len(), 1, "{f:?}");
    assert_eq!(
        open[0].line, 4,
        "line 4 is outside the trailing comment's cover"
    );
}

#[test]
fn suppression_without_reason_is_rejected_and_does_not_suppress() {
    let src = r#"
fn handle(v: Option<u32>) -> u32 {
    // lint:allow(no-panic-paths):
    v.unwrap()
}
"#;
    let f = lint_file("crates/serve/src/http.rs", src, &cfg());
    let rules = rules_of(&f);
    assert!(
        rules.contains(&"suppression-missing-reason"),
        "a reasonless suppression is itself a finding: {f:?}"
    );
    assert!(
        f.iter()
            .any(|f| f.rule == "no-panic-paths" && f.suppressed.is_none()),
        "and it suppresses nothing: {f:?}"
    );
}

#[test]
fn suppression_meta_rule_survives_rule_filters() {
    let src = r#"
fn handle(v: Option<u32>) -> u32 {
    // lint:allow(no-panic-paths):
    v.unwrap()
}
"#;
    // Even with every ordinary rule disabled, the meta-rule still runs.
    let f = lint_file_filtered("crates/serve/src/http.rs", src, &cfg(), Some(&[]));
    assert!(
        f.iter().any(|f| f.rule == "suppression-missing-reason"),
        "{f:?}"
    );
}

#[test]
fn suppression_for_a_different_rule_does_not_cross_suppress() {
    let src = r#"
fn handle(v: Option<u32>) -> u32 {
    // lint:allow(seed-hygiene): wrong rule named on purpose
    v.unwrap()
}
"#;
    let f = lint_file("crates/serve/src/http.rs", src, &cfg());
    assert!(
        f.iter()
            .any(|f| f.rule == "no-panic-paths" && f.suppressed.is_none()),
        "a suppression names one rule, not all of them: {f:?}"
    );
}

// ---------------------------------------------- lock-instrumentation

#[test]
fn raw_mutex_construction_in_instrumented_crate_is_flagged() {
    let src = r#"
fn build() {
    let q = std::sync::Mutex::new(Vec::new());
    let s = RwLock::new(State::default());
}
"#;
    let f = lint_file("crates/serve/src/batch.rs", src, &cfg());
    let hits: Vec<&Finding> = f
        .iter()
        .filter(|f| f.rule == "lock-instrumentation")
        .collect();
    assert_eq!(hits.len(), 2, "{f:?}");
    assert!(hits[0].message.contains("ProfMutex"), "{:?}", hits[0]);
    assert!(hits[1].message.contains("ProfRwLock"), "{:?}", hits[1]);
    assert_rule_is_live("crates/serve/src/batch.rs", src, "lock-instrumentation");
}

#[test]
fn prof_wrappers_and_type_positions_do_not_trigger() {
    let src = r#"
struct S {
    state: ProfRwLock<State>,
    raw_typed: Mutex<u32>,
}
fn build() -> ProfMutex<Vec<u32>> {
    ProfMutex::new("queue", Vec::new())
}
"#;
    let f = lint_file("crates/stream/src/live.rs", src, &cfg());
    assert!(
        !f.iter().any(|f| f.rule == "lock-instrumentation"),
        "wrappers and type positions are not construction sites: {f:?}"
    );
}

#[test]
fn raw_locks_outside_instrumented_crates_are_fine() {
    let src = "fn build() { let m = Mutex::new(0u32); }";
    let f = lint_file("crates/features/src/featurizer.rs", src, &cfg());
    assert!(!f.iter().any(|f| f.rule == "lock-instrumentation"), "{f:?}");
}

#[test]
fn raw_locks_in_tests_are_fine() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let m = Mutex::new(0u32);
    }
}
"#;
    let f = lint_file("crates/serve/src/batch.rs", src, &cfg());
    assert!(!f.iter().any(|f| f.rule == "lock-instrumentation"), "{f:?}");
}

#[test]
fn lock_instrumentation_suppression_with_reason_works() {
    let src = r#"
fn build() {
    // lint:allow(lock-instrumentation): const-init before the profiler registry exists
    let m = Mutex::new(0u32);
}
"#;
    let f = lint_file("crates/serve/src/batch.rs", src, &cfg());
    let hit = f
        .iter()
        .find(|f| f.rule == "lock-instrumentation")
        .expect("the finding still exists, suppressed");
    assert!(hit.suppressed.is_some(), "{hit:?}");
    assert!(unsuppressed(&f)
        .iter()
        .all(|f| f.rule != "lock-instrumentation"));
}

// ------------------------------------------------------ rule catalog

#[test]
fn rule_catalog_matches_the_implemented_rules() {
    let names: Vec<&str> = holo_lint::RULES.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        [
            "lock-order",
            "no-panic-paths",
            "thread-entry-isolation",
            "counter-discipline",
            "seed-hygiene",
            "lock-instrumentation",
            "suppression-missing-reason",
        ]
    );
}
