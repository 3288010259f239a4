//! Prof smoke: the continuous-profiling surface scraped end to end.
//!
//! Fits a tiny model, serves it for real, fires a burst of scored
//! requests, and checks the profiling surface from the outside:
//! `GET /v1/prof` (allocation totals, per-stage bytes, lock contention,
//! pool utilization), the per-stage `alloc_bytes` notes on the
//! request's trace, and the `holo_prof_*` families on `/metrics`. The
//! `/v1/prof` snapshot is written to the path given as the first
//! argument (default `prof-snapshot.json`) — CI uploads it as a
//! workflow artifact, so every run leaves its heap/lock/pool profile
//! behind for inspection.
//!
//! ```text
//! cargo run --release -p holo-bench --bin prof_smoke -- prof-snapshot.json
//! ```

use holo_bench::smoke::Smoke;
use holo_serve::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "prof-snapshot.json".to_string());
    let mut s = Smoke::start("prof smoke");

    // The snapshot parses and carries every documented section.
    let (status, _, prof) = s.http("GET", "/v1/prof", "");
    s.check(status == 200, "GET /v1/prof");
    let doc = holo_serve::parse_json(&prof);
    s.check(doc.is_ok(), "prof snapshot parses as JSON");
    if let Ok(doc) = &doc {
        s.check(
            doc.get("enabled").and_then(Json::as_bool) == Some(true),
            "profiling reported enabled",
        );
        for section in ["alloc", "scopes", "locks", "pools"] {
            s.check(
                doc.get(section).is_some(),
                &format!("snapshot has the {section} section"),
            );
        }
        let scope_bytes = doc
            .get("scopes")
            .and_then(Json::as_arr)
            .and_then(|scopes| {
                scopes
                    .iter()
                    .find(|s| s.get("scope").and_then(Json::as_str) == Some("score"))
            })
            .and_then(|s| s.get("bytes").and_then(Json::as_f64))
            .unwrap_or(0.0);
        s.check(
            scope_bytes > 0.0,
            &format!("score scope booked bytes ({scope_bytes})"),
        );
        let pools = doc
            .get("pools")
            .and_then(Json::as_arr)
            .map(|p| {
                p.iter()
                    .filter_map(|e| e.get("pool").and_then(Json::as_str))
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        s.check(
            pools.contains(&"http-worker"),
            &format!("worker pools registered ({pools:?})"),
        );
    }

    // The request's trace carries per-stage alloc_bytes notes.
    let (status, _, trace) = s.http("GET", &format!("/v1/trace/{}", s.last_trace), "");
    s.check(status == 200, "GET /v1/trace/{id}");
    s.check(
        trace.contains("alloc_bytes"),
        "trace spans carry alloc_bytes notes",
    );

    // The same profile feeds the /metrics families.
    let (status, _, page) = s.http("GET", "/metrics", "");
    s.check(status == 200, "GET /metrics");
    for needle in [
        "# TYPE holo_prof_lock_wait_micros histogram",
        "holo_prof_allocated_bytes_total",
        "holo_prof_alloc_bytes{scope=\"score\"}",
        "holo_prof_worker_busy_ratio{pool=\"http-worker\"}",
        "holo_features_nn_cache_hits_total",
    ] {
        s.check(page.contains(needle), &format!("metrics expose {needle}"));
    }

    // Leave the snapshot behind for the CI artifact.
    let pretty = holo_serve::parse_json(&prof)
        .map(|j| j.to_string())
        .unwrap_or(prof);
    std::fs::write(&out_path, format!("{pretty}\n")).expect("write prof snapshot");
    println!("prof snapshot written to {out_path}");
    s.finish()
}
