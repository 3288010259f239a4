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

use holo_data::{DatasetBuilder, GroundTruth, Schema};
use holo_eval::FitContext;
use holo_serve::{HttpConfig, ModelRegistry, ProfConfig, ServeConfig, TraceConfig};
use holodetect::{HoloDetect, HoloDetectConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const SCORE_REQUESTS: usize = 12;

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), body.to_string())
}

fn check(ok: bool, what: &str) -> bool {
    println!("{} {what}", if ok { "ok " } else { "FAIL" });
    ok
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "slow-traces.json".to_string());

    // A tiny servable world (the serve test fixture, shrunk).
    let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
    for _ in 0..25 {
        b.push_row(&["60612", "Chicago"]);
        b.push_row(&["53703", "Madison"]);
    }
    let clean = b.build();
    let mut dirty = clean.clone();
    dirty.set_value(0, 1, "Cxhicago");
    let truth = GroundTruth::from_pair(&clean, &dirty);
    let mut cfg = HoloDetectConfig::fast();
    cfg.epochs = 8;
    let train = truth.label_tuples(&dirty, &(0..20).collect::<Vec<_>>());
    let model = HoloDetect::new(cfg).fit_model(&FitContext {
        dirty: &dirty,
        train: &train,
        sampling: None,
        constraints: &[],
        seed: 3,
    });
    let artifact =
        std::env::temp_dir().join(format!("holo-trace-smoke-{}.holoart", std::process::id()));
    model.save(&artifact).expect("save artifact");

    let registry = Arc::new(ModelRegistry::new());
    registry.load_insert("smoke", &artifact).expect("load");
    let server = holo_serve::start(
        "127.0.0.1:0",
        ServeConfig {
            http: HttpConfig {
                workers: 4,
                ..HttpConfig::default()
            },
            trace: TraceConfig::default(),
            prof: ProfConfig::default(),
        },
        registry,
    )
    .expect("bind port 0");
    let addr = server.addr();
    println!("trace smoke serving on {addr}");

    // A burst of scored requests; keep the last trace id.
    let mut last_id = String::new();
    let mut ok = true;
    for i in 0..SCORE_REQUESTS {
        let body = format!(
            r#"{{"rows": [{{"Zip": "606{i:02}", "City": "Chicago"}}, {{"Zip": "53703", "City": "Madiso{i}"}}]}}"#
        );
        let (status, head, resp) = http(addr, "POST", "/v1/models/smoke/score", &body);
        ok &= check(status == 200, &format!("score request {i} ({resp})"));
        if let Some(id) = head.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("x-holo-trace")
                .then(|| v.trim().to_string())
        }) {
            last_id = id;
        }
    }
    ok &= check(last_id.len() == 16, "x-holo-trace id echoed on responses");

    // The span tree is fetchable by id and names the scoring stages.
    let (status, _, trace) = http(addr, "GET", &format!("/v1/trace/{last_id}"), "");
    ok &= check(status == 200, "GET /v1/trace/{id}");
    for stage in ["validate", "score", "encode"] {
        ok &= check(
            trace.contains(&format!("\"{stage}\"")),
            &format!("trace has a {stage} span"),
        );
    }

    // The ring pages recent traces; the exemplar store has the worst.
    let (status, _, recent) = http(addr, "GET", "/v1/trace/recent", "");
    ok &= check(
        status == 200 && recent.contains(&last_id),
        "GET /v1/trace/recent retains the id",
    );
    let (status, _, slow) = http(addr, "GET", "/v1/trace/slow", "");
    ok &= check(
        status == 200 && slow.contains("/v1/models/{name}/score"),
        "GET /v1/trace/slow has score exemplars",
    );
    ok &= check(
        holo_serve::parse_json(&slow).is_ok(),
        "slow exemplars parse as JSON",
    );

    // The same spans drive the /metrics stage histograms.
    let (status, _, page) = http(addr, "GET", "/metrics", "");
    ok &= check(status == 200, "GET /metrics");
    for needle in [
        "# TYPE holo_trace_stage_micros histogram",
        "holo_trace_stage_micros_bucket{stage=\"score\"",
        "holo_trace_recorded_total",
    ] {
        ok &= check(page.contains(needle), &format!("metrics expose {needle}"));
    }
    let count = page
        .lines()
        .find(|l| l.starts_with("holo_trace_stage_micros_count{stage=\"score\""))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    ok &= check(
        count >= SCORE_REQUESTS as u64,
        &format!("score stage histogram saw the burst ({count} observations)"),
    );

    // Leave the slow-trace exemplars behind for the CI artifact.
    let pretty = holo_serve::parse_json(&slow)
        .map(|j| j.to_string())
        .unwrap_or(slow);
    std::fs::write(&out_path, format!("{pretty}\n")).expect("write slow traces");
    println!("slow-trace exemplars written to {out_path}");

    server.shutdown();
    std::fs::remove_file(&artifact).ok();
    if ok {
        println!("trace smoke: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("trace smoke: FAILED");
        ExitCode::FAILURE
    }
}
