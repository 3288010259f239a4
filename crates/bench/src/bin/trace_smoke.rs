//! Trace smoke: a live serving process scraped end to end.
//!
//! Fits a tiny model, serves it for real (TCP, worker pool), fires a
//! burst of scored requests, and then checks the whole observability
//! surface from the outside: the `x-holo-trace` response header,
//! `/v1/trace/{id}`, `/v1/trace/recent`, `/v1/trace/slow`, and the
//! `holo_trace_stage_micros` histograms on `/metrics`. The slow-trace
//! exemplars are written to the path given as the first argument
//! (default `slow-traces.json`) — CI uploads that file as a workflow
//! artifact, so every run leaves its worst traces behind for
//! inspection.
//!
//! ```text
//! cargo run --release -p holo-bench --bin trace_smoke -- slow-traces.json
//! ```

use holo_bench::smoke::{Smoke, SCORE_REQUESTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "slow-traces.json".to_string());
    let mut s = Smoke::start("trace smoke");
    s.check(
        s.last_trace.len() == 16,
        "x-holo-trace id echoed on responses",
    );

    // The span tree is fetchable by id and names the scoring stages.
    let (status, _, trace) = s.http("GET", &format!("/v1/trace/{}", s.last_trace), "");
    s.check(status == 200, "GET /v1/trace/{id}");
    for stage in ["validate", "score", "encode"] {
        s.check(
            trace.contains(&format!("\"{stage}\"")),
            &format!("trace has a {stage} span"),
        );
    }

    // The ring pages recent traces; the exemplar store has the worst.
    let (status, _, recent) = s.http("GET", "/v1/trace/recent", "");
    s.check(
        status == 200 && recent.contains(&s.last_trace),
        "GET /v1/trace/recent retains the id",
    );
    let (status, _, slow) = s.http("GET", "/v1/trace/slow", "");
    s.check(
        status == 200 && slow.contains("/v1/models/{name}/score"),
        "GET /v1/trace/slow has score exemplars",
    );
    s.check(
        holo_serve::parse_json(&slow).is_ok(),
        "slow exemplars parse as JSON",
    );

    // The same spans drive the /metrics stage histograms.
    let (status, _, page) = s.http("GET", "/metrics", "");
    s.check(status == 200, "GET /metrics");
    for needle in [
        "# TYPE holo_trace_stage_micros histogram",
        "holo_trace_stage_micros_bucket{stage=\"score\"",
        "holo_trace_recorded_total",
    ] {
        s.check(page.contains(needle), &format!("metrics expose {needle}"));
    }
    let count = page
        .lines()
        .find(|l| l.starts_with("holo_trace_stage_micros_count{stage=\"score\""))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    s.check(
        count >= SCORE_REQUESTS as u64,
        &format!("score stage histogram saw the burst ({count} observations)"),
    );

    // Leave the slow-trace exemplars behind for the CI artifact.
    let pretty = holo_serve::parse_json(&slow)
        .map(|j| j.to_string())
        .unwrap_or(slow);
    std::fs::write(&out_path, format!("{pretty}\n")).expect("write slow traces");
    println!("slow-trace exemplars written to {out_path}");

    s.finish()
}
