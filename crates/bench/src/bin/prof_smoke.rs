//! Prof smoke: the continuous-profiling surface scraped end to end.
//!
//! Fits a tiny model, serves it for real with `--prof` semantics
//! (allocation scope attribution on), fires a burst of scored requests,
//! and checks the profiling surface from the outside: `GET /v1/prof`
//! (allocation totals, per-scope bytes, lock contention, pool
//! utilization), the per-stage `alloc_bytes` notes on the request's
//! trace, and the `holo_prof_*` families on `/metrics`. The `/v1/prof`
//! snapshot is written to the path given as the first argument (default
//! `prof-snapshot.json`) — CI uploads it as a workflow artifact, so
//! every run leaves its heap/lock/pool profile behind for inspection.
//!
//! ```text
//! cargo run --release -p holo-bench --bin prof_smoke -- prof-snapshot.json
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
        .unwrap_or_else(|| "prof-snapshot.json".to_string());

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
        std::env::temp_dir().join(format!("holo-prof-smoke-{}.holoart", std::process::id()));
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
            prof: ProfConfig { enabled: true },
        },
        registry,
    )
    .expect("bind port 0");
    let addr = server.addr();
    println!("prof smoke serving on {addr} (profiling on)");

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

    // The snapshot parses and carries every documented section.
    let (status, _, prof) = http(addr, "GET", "/v1/prof", "");
    ok &= check(status == 200, "GET /v1/prof");
    let doc = holo_serve::parse_json(&prof);
    ok &= check(doc.is_ok(), "prof snapshot parses as JSON");
    if let Ok(doc) = &doc {
        ok &= check(
            doc.get("enabled").and_then(holo_serve::Json::as_bool) == Some(true),
            "profiling reported enabled",
        );
        for section in ["alloc", "scopes", "locks", "pools"] {
            ok &= check(
                doc.get(section).is_some(),
                &format!("snapshot has the {section} section"),
            );
        }
        let scope_bytes = doc
            .get("scopes")
            .and_then(holo_serve::Json::as_arr)
            .and_then(|scopes| {
                scopes
                    .iter()
                    .find(|s| s.get("scope").and_then(holo_serve::Json::as_str) == Some("score"))
            })
            .and_then(|s| s.get("bytes").and_then(holo_serve::Json::as_f64))
            .unwrap_or(0.0);
        ok &= check(
            scope_bytes > 0.0,
            &format!("score scope booked bytes ({scope_bytes})"),
        );
        let pools = doc
            .get("pools")
            .and_then(holo_serve::Json::as_arr)
            .map(|p| {
                p.iter()
                    .filter_map(|e| e.get("pool").and_then(holo_serve::Json::as_str))
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        ok &= check(
            pools.contains(&"http-worker"),
            &format!("worker pools registered ({pools:?})"),
        );
    }

    // The request's trace carries per-stage alloc_bytes notes.
    let (status, _, trace) = http(addr, "GET", &format!("/v1/trace/{last_id}"), "");
    ok &= check(status == 200, "GET /v1/trace/{id}");
    ok &= check(
        trace.contains("alloc_bytes"),
        "trace spans carry alloc_bytes notes",
    );

    // The same profile feeds the /metrics families.
    let (status, _, page) = http(addr, "GET", "/metrics", "");
    ok &= check(status == 200, "GET /metrics");
    for needle in [
        "# TYPE holo_prof_lock_wait_micros histogram",
        "holo_prof_allocated_bytes_total",
        "holo_prof_alloc_bytes{scope=\"score\"}",
        "holo_prof_worker_busy_ratio{pool=\"http-worker\"}",
        "holo_features_nn_cache_hits_total",
    ] {
        ok &= check(page.contains(needle), &format!("metrics expose {needle}"));
    }

    // Leave the snapshot behind for the CI artifact.
    let pretty = holo_serve::parse_json(&prof)
        .map(|j| j.to_string())
        .unwrap_or(prof);
    std::fs::write(&out_path, format!("{pretty}\n")).expect("write prof snapshot");
    println!("prof snapshot written to {out_path}");

    server.shutdown();
    std::fs::remove_file(&artifact).ok();
    if ok {
        println!("prof smoke: all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("prof smoke: FAILED");
        ExitCode::FAILURE
    }
}
