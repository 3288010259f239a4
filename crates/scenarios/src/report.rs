//! `SCENARIOS.json` emission and the human-readable summary table.
//!
//! The JSON document is the machine-readable contract the CI quality
//! gate consumes: quality metrics live under each scenario's
//! `"quality"` object (deterministic for a fixed seed — the floats are
//! printed with the serve codec's shortest-roundtrip printer, so equal
//! runs produce byte-equal files), wall-clock numbers under
//! `"latency"` (omitted under `--no-latency`).

use crate::run::{ScenarioResult, SuiteReport};
use holo_eval::report::{fmt3, Table};
use holo_serve::Json;

/// Document format version.
pub const REPORT_VERSION: f64 = 1.0;

/// The quality metrics of one scenario as ordered JSON pairs.
fn quality_json(r: &ScenarioResult) -> Json {
    let q = &r.quality;
    Json::Obj(vec![
        ("pr_auc".into(), Json::Num(q.pr_auc)),
        ("f1".into(), Json::Num(q.f1)),
        ("threshold".into(), Json::Num(q.threshold)),
        ("best_f1".into(), Json::Num(q.best_f1)),
        (
            "pr_auc_drift_pre_refit".into(),
            Json::Num(q.pr_auc_drift_pre_refit),
        ),
        (
            "pr_auc_drift_post_refit".into(),
            Json::Num(q.pr_auc_drift_post_refit),
        ),
        (
            "f1_drift_post_refit".into(),
            Json::Num(q.f1_drift_post_refit),
        ),
        ("would_refit".into(), Json::Bool(q.would_refit)),
        (
            "drift_fired".into(),
            Json::Arr(q.drift_fired.iter().cloned().map(Json::Str).collect()),
        ),
        ("labels_used".into(), Json::Num(q.labels_used as f64)),
        (
            "label_sweep".into(),
            Json::Arr(
                q.label_sweep
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("labels".into(), Json::Num(p.labels as f64)),
                            ("pr_auc".into(), Json::Num(p.pr_auc)),
                            ("f1".into(), Json::Num(p.f1)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("n_base_errors".into(), Json::Num(q.n_base_errors as f64)),
        ("n_drift_errors".into(), Json::Num(q.n_drift_errors as f64)),
    ])
}

/// `(name, micros)` pairs as an ordered JSON object.
fn stages_json(stages: &[(String, u64)]) -> Json {
    Json::Obj(
        stages
            .iter()
            .map(|(name, micros)| (name.clone(), Json::Num(*micros as f64)))
            .collect(),
    )
}

/// The latency numbers of one scenario as ordered JSON pairs.
fn latency_json(r: &ScenarioResult) -> Json {
    let l = &r.latency;
    Json::Obj(vec![
        ("fit_secs".into(), Json::Num(l.fit_secs)),
        ("artifact_load_ms".into(), Json::Num(l.artifact_load_ms)),
        ("http_score_ms".into(), Json::Num(l.http_score_ms)),
        (
            "ingest_rows_per_sec".into(),
            Json::Num(l.ingest_rows_per_sec),
        ),
        ("refit_secs".into(), Json::Num(l.refit_secs)),
        (
            "score_stage_micros".into(),
            stages_json(&l.score_stage_micros),
        ),
        (
            "refit_phase_micros".into(),
            stages_json(&l.refit_phase_micros),
        ),
        (
            "alloc_per_request_bytes".into(),
            Json::Num(l.alloc_per_request_bytes as f64),
        ),
        (
            "top_lock_wait_micros".into(),
            stages_json(&l.top_lock_wait_micros),
        ),
    ])
}

/// Render the whole report as the `SCENARIOS.json` document.
pub fn report_json(report: &SuiteReport, with_latency: bool) -> Json {
    let scenarios = report
        .scenarios
        .iter()
        .map(|r| {
            let mut obj = vec![
                ("name".into(), Json::Str(r.name.clone())),
                ("schema".into(), Json::Str(r.schema.clone())),
                ("rows".into(), Json::Num(r.rows as f64)),
                ("drift_rows".into(), Json::Num(r.drift_rows as f64)),
                // Hex string: the derived u64 seed exceeds 2^53, so a
                // JSON number could not carry it losslessly.
                ("seed".into(), Json::Str(format!("{:#x}", r.seed))),
                ("quality".into(), quality_json(r)),
            ];
            if with_latency {
                obj.push(("latency".into(), latency_json(r)));
            }
            Json::Obj(obj)
        })
        .collect();
    Json::Obj(vec![
        ("suite".into(), Json::Str("holo-scenarios".into())),
        ("version".into(), Json::Num(REPORT_VERSION)),
        // Hex string, like the per-scenario seeds: u64 does not fit a
        // JSON number losslessly past 2^53.
        ("seed".into(), Json::Str(format!("{:#x}", report.seed))),
        ("rows".into(), Json::Num(report.rows as f64)),
        ("drift_rows".into(), Json::Num(report.drift_rows as f64)),
        ("epochs".into(), Json::Num(report.epochs as f64)),
        ("scenarios".into(), Json::Arr(scenarios)),
    ])
}

/// The human summary table.
pub fn render_table(report: &SuiteReport) -> String {
    let mut t = Table::new([
        "Scenario",
        "Schema",
        "PR-AUC",
        "F1@thr",
        "PR-AUC drift(pre)",
        "PR-AUC drift(post)",
        "Drift fired",
        "Fit s",
        "Refit s",
    ]);
    for r in &report.scenarios {
        let q = &r.quality;
        t.row([
            r.name.clone(),
            r.schema.clone(),
            fmt3(q.pr_auc),
            fmt3(q.f1),
            fmt3(q.pr_auc_drift_pre_refit),
            fmt3(q.pr_auc_drift_post_refit),
            if q.drift_fired.is_empty() {
                "-".to_owned()
            } else {
                q.drift_fired.join(",")
            },
            format!("{:.2}", r.latency.fit_secs),
            format!("{:.2}", r.latency.refit_secs),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{ScenarioLatency, ScenarioQuality, SweepPoint};

    fn sample() -> SuiteReport {
        SuiteReport {
            seed: 7,
            rows: 100,
            drift_rows: 30,
            epochs: 4,
            scenarios: vec![ScenarioResult {
                name: "hospital".into(),
                schema: "Hospital".into(),
                rows: 100,
                drift_rows: 30,
                seed: 12345,
                quality: ScenarioQuality {
                    pr_auc: 0.91,
                    f1: 0.8,
                    threshold: 0.5,
                    best_f1: 0.85,
                    pr_auc_drift_pre_refit: 0.7,
                    pr_auc_drift_post_refit: 0.75,
                    f1_drift_post_refit: 0.6,
                    would_refit: true,
                    n_base_errors: 50,
                    n_drift_errors: 40,
                    labels_used: 20,
                    drift_fired: vec!["psi".into(), "ks".into()],
                    label_sweep: vec![
                        SweepPoint {
                            labels: 0,
                            pr_auc: 0.3,
                            f1: 0.2,
                        },
                        SweepPoint {
                            labels: 20,
                            pr_auc: 0.75,
                            f1: 0.6,
                        },
                    ],
                },
                latency: ScenarioLatency {
                    fit_secs: 1.5,
                    artifact_load_ms: 3.0,
                    http_score_ms: 4.0,
                    ingest_rows_per_sec: 1000.0,
                    refit_secs: 0.9,
                    score_stage_micros: vec![
                        ("validate".into(), 2000),
                        ("score".into(), 1500),
                        ("encode".into(), 80),
                    ],
                    refit_phase_micros: vec![
                        ("snapshot".into(), 300),
                        ("adapt".into(), 4000),
                        ("refit_with".into(), 800_000),
                        ("persist".into(), 2000),
                        ("install".into(), 900),
                    ],
                    alloc_per_request_bytes: 48_000,
                    top_lock_wait_micros: vec![
                        ("state".into(), 1200),
                        ("log".into(), 40),
                        ("traces".into(), 5),
                    ],
                },
            }],
        }
    }

    #[test]
    fn json_has_quality_and_optional_latency() {
        let r = sample();
        let with = report_json(&r, true);
        let scenario = &with.get("scenarios").unwrap().as_arr().unwrap()[0];
        let latency = scenario.get("latency").expect("latency object");
        let stages = latency.get("score_stage_micros").expect("score stages");
        assert_eq!(stages.get("validate").and_then(Json::as_f64), Some(2000.0));
        let phases = latency.get("refit_phase_micros").expect("refit phases");
        assert_eq!(
            phases.get("refit_with").and_then(Json::as_f64),
            Some(800_000.0)
        );
        assert_eq!(
            latency
                .get("alloc_per_request_bytes")
                .and_then(Json::as_f64),
            Some(48_000.0)
        );
        let locks = latency.get("top_lock_wait_micros").expect("top locks");
        assert_eq!(locks.get("state").and_then(Json::as_f64), Some(1200.0));
        let q = scenario.get("quality").unwrap();
        assert_eq!(q.get("labels_used").and_then(Json::as_f64), Some(20.0));
        let fired = q.get("drift_fired").and_then(Json::as_arr).unwrap();
        assert_eq!(fired[0].as_str(), Some("psi"));
        let sweep = q.get("label_sweep").and_then(Json::as_arr).unwrap();
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[1].get("labels").and_then(Json::as_f64), Some(20.0));
        assert_eq!(sweep[1].get("pr_auc").and_then(Json::as_f64), Some(0.75));
        assert_eq!(
            scenario
                .get("quality")
                .unwrap()
                .get("pr_auc")
                .unwrap()
                .as_f64(),
            Some(0.91)
        );
        let without = report_json(&r, false);
        let scenario = &without.get("scenarios").unwrap().as_arr().unwrap()[0];
        assert!(scenario.get("latency").is_none());
    }

    #[test]
    fn json_roundtrips_through_the_serve_codec() {
        let text = report_json(&sample(), false).to_string();
        let parsed = holo_serve::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("suite").and_then(Json::as_str),
            Some("holo-scenarios")
        );
        // Reprint equality: the printer is canonical, so parse∘print is
        // the identity on its own output (the determinism tests rely on
        // byte equality of reports).
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn table_renders_one_row_per_scenario() {
        let s = render_table(&sample());
        assert!(s.contains("hospital"));
        assert!(s.contains("0.910"));
        assert_eq!(s.lines().count(), 3);
    }
}
