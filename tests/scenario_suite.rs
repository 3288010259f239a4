//! End-to-end tests for the `holo-scenarios` suite (the PR's
//! acceptance criteria):
//!
//! * one tiny scenario runs the full fit → save/load → serve → stream
//!   → drift → refit lifecycle deterministically: a fixed seed yields a
//!   byte-for-byte identical `SCENARIOS.json` (with `--no-latency`
//!   semantics, i.e. latency fields omitted),
//! * the quality gate passes against the run's own numbers, and
//! * the gate demonstrably fails on an injected quality regression,
//!   naming the scenario and metric in the diff.

use holodetect_repro::scenarios::{
    check, config, report_json, run_suite, SuiteConfig, SuiteReport, GATED_METRICS,
};
use holodetect_repro::serve::Json;
use std::sync::OnceLock;

/// A tiny single-scenario configuration: big enough for stable curves,
/// small enough that the whole lifecycle (two fits, an HTTP server, a
/// refit) stays test-suite friendly.
fn tiny_config() -> SuiteConfig {
    SuiteConfig {
        scenarios: vec![config::hospital()],
        rows: 80,
        drift_rows: 24,
        epochs: 6,
        seed: 11,
        train_frac: 0.2,
        out: None,
        check: None,
        tolerance: 0.05,
        emit_latency: false,
        label_budget: 6,
        label_sweep: vec![0, 6],
    }
}

/// Two independent runs of the tiny suite, shared across tests (each
/// run fits a model, serves it over TCP, streams a drift tail, and
/// refits — no need to repeat that per assertion).
fn runs() -> &'static (SuiteReport, SuiteReport) {
    static RUNS: OnceLock<(SuiteReport, SuiteReport)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let cfg = tiny_config();
        let a = run_suite(&cfg).expect("first suite run");
        let b = run_suite(&cfg).expect("second suite run");
        (a, b)
    })
}

#[test]
fn fixed_seed_reproduces_scenarios_json_byte_for_byte() {
    let (a, b) = runs();
    let a_text = report_json(a, false).to_string();
    let b_text = report_json(b, false).to_string();
    assert_eq!(
        a_text, b_text,
        "two runs with the same seed must serialize identically"
    );
    // And the report actually carries the lifecycle's quality story.
    let doc = holodetect_repro::serve::json::parse(&a_text).expect("report parses");
    let scenario = &doc.get("scenarios").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        scenario.get("name").and_then(Json::as_str),
        Some("hospital")
    );
    assert!(
        scenario.get("latency").is_none(),
        "latency fields must be omitted in deterministic mode"
    );
    let quality = scenario.get("quality").expect("quality object");
    for &metric in GATED_METRICS {
        let v = quality
            .get(metric)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metric {metric} missing or non-numeric"));
        assert!(
            v.is_finite() && (0.0..=1.0).contains(&v),
            "{metric} out of range: {v}"
        );
    }
    // The drift tail must really have been measured.
    assert!(
        quality
            .get("n_drift_errors")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    // The adaptation story must be in the report: a firing verdict, the
    // per-detector names, the labels actually spent, and the label-
    // budget sweep at exactly the configured budgets with sane curves.
    assert!(quality.get("would_refit").and_then(Json::as_bool).is_some());
    assert!(quality.get("drift_fired").and_then(Json::as_arr).is_some());
    assert!(quality.get("labels_used").and_then(Json::as_f64).unwrap() <= 6.0);
    let sweep = quality
        .get("label_sweep")
        .and_then(Json::as_arr)
        .expect("label_sweep array");
    let budgets: Vec<f64> = sweep
        .iter()
        .map(|p| p.get("labels").and_then(Json::as_f64).unwrap())
        .collect();
    assert_eq!(budgets, vec![0.0, 6.0]);
    for p in sweep {
        let pr = p
            .get("pr_auc")
            .and_then(Json::as_f64)
            .expect("sweep pr_auc");
        assert!((0.0..=1.0).contains(&pr), "sweep pr_auc out of range: {pr}");
    }
}

#[test]
fn quality_gate_passes_on_itself_and_fails_on_injected_regression() {
    let (a, _) = runs();
    let current = report_json(a, false);

    // Gate against the run's own numbers: zero tolerance, must pass.
    let self_check = check(&current, &current, 0.0).expect("self-check runs");
    assert!(self_check.passed(), "{:?}", self_check.failures);
    // All gated metrics are compared, plus the would_refit capability
    // ratchet when the run's detector fired.
    let fired = a.scenarios[0].quality.would_refit;
    assert_eq!(
        self_check.diffs.len(),
        GATED_METRICS.len() + usize::from(fired)
    );

    // Inject a quality regression: pretend the committed baseline had a
    // much better base PR-AUC than this run achieved.
    let injected = bump_metric(&current, "hospital", "pr_auc", 0.2);
    let gated = check(&current, &injected, 0.05).expect("gate runs");
    assert!(!gated.passed(), "injected regression must fail the gate");
    assert!(
        gated
            .failures
            .iter()
            .any(|f| f.contains("hospital") && f.contains("pr_auc")),
        "failure must name the scenario and metric: {:?}",
        gated.failures
    );
    assert!(gated.render().contains("REGRESSED"));

    // A drop within tolerance passes: baseline only 0.01 above.
    let nearby = bump_metric(&current, "hospital", "pr_auc", 0.01);
    assert!(check(&current, &nearby, 0.05).expect("gate runs").passed());
}

/// A copy of `doc` with `quality[metric] += delta` for `scenario`.
fn bump_metric(doc: &Json, scenario: &str, metric: &str, delta: f64) -> Json {
    fn walk(j: &Json, scenario: &str, metric: &str, delta: f64, in_scenario: bool) -> Json {
        match j {
            Json::Obj(pairs) => {
                let this_scenario = in_scenario
                    || pairs
                        .iter()
                        .any(|(k, v)| k == "name" && v.as_str() == Some(scenario));
                Json::Obj(
                    pairs
                        .iter()
                        .map(|(k, v)| {
                            if this_scenario && k == "quality" {
                                let Json::Obj(q) = v else {
                                    panic!("quality not an object")
                                };
                                let bumped = q
                                    .iter()
                                    .map(|(mk, mv)| {
                                        if mk == metric {
                                            let x = mv.as_f64().expect("metric numeric");
                                            (mk.clone(), Json::Num(x + delta))
                                        } else {
                                            (mk.clone(), mv.clone())
                                        }
                                    })
                                    .collect();
                                (k.clone(), Json::Obj(bumped))
                            } else {
                                (k.clone(), walk(v, scenario, metric, delta, this_scenario))
                            }
                        })
                        .collect(),
                )
            }
            Json::Arr(items) => Json::Arr(
                items
                    .iter()
                    .map(|v| walk(v, scenario, metric, delta, in_scenario))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    walk(doc, scenario, metric, delta, false)
}
