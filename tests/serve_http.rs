//! End-to-end tests for the `holo-serve` subsystem: a real fitted
//! artifact served over real TCP by the full stack (HTTP worker pool →
//! JSON ingest → registry → `score_batch`).
//!
//! The contract under test (the PR's acceptance criterion):
//!
//! * concurrent HTTP score requests return scores **bitwise-identical**
//!   to in-process `score_batch` on the same rows/cells,
//! * typed failures map to the documented HTTP statuses,
//! * malformed requests (broken HTTP, broken JSON, wrong shapes) are
//!   4xx responses that never take the server down,
//! * a mid-flight `POST .../reload` hot-swaps the model without
//!   breaking in-flight or subsequent scoring,
//! * shutdown drains cleanly.

use holodetect_repro::core::{FittedHoloDetect, HoloDetect, HoloDetectConfig};
use holodetect_repro::data::{CellId, Dataset, DatasetBuilder, GroundTruth, Schema};
use holodetect_repro::eval::{FitContext, TrainedModel};
use holodetect_repro::serve::{self, HttpConfig, Json, ModelRegistry, RunningServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- world

/// A small two-column world with injected typos (the `fitted.rs` test
/// world, kept tiny so the whole suite fits in CI).
fn world() -> (Dataset, GroundTruth) {
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
    (dirty, truth)
}

fn fit_artifact(tag: &str) -> (FittedHoloDetect, PathBuf) {
    let (dirty, truth) = world();
    let mut cfg = HoloDetectConfig::fast();
    cfg.epochs = 10;
    let train = truth.label_tuples(&dirty, &(0..20).collect::<Vec<_>>());
    let model = HoloDetect::new(cfg).fit_model(&FitContext {
        dirty: &dirty,
        train: &train,
        sampling: None,
        constraints: &[],
        seed: 3,
    });
    let path = std::env::temp_dir().join(format!(
        "holo-serve-it-{}-{tag}.holoart",
        std::process::id()
    ));
    model.save(&path).expect("save artifact");
    (model, path)
}

fn start_server(path: &std::path::Path) -> RunningServer {
    let registry = Arc::new(ModelRegistry::new());
    registry.load_insert("food", path).expect("load artifact");
    serve::start(
        "127.0.0.1:0",
        HttpConfig {
            workers: 4,
            ..HttpConfig::default()
        },
        registry,
    )
    .expect("bind port 0")
}

// ------------------------------------------------------------- raw http

/// One raw HTTP/1.1 round-trip on a fresh connection, returning the
/// status, the raw header block, and the body.
fn http_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    http_full_after(Duration::ZERO, addr, method, path, body)
}

/// [`http_full`], idling `pause` between connecting and sending the
/// request's first byte.
fn http_full_after(
    pause: Duration,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    std::thread::sleep(pause);
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
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

/// One raw HTTP/1.1 round-trip on a fresh connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = http_full(addr, method, path, body);
    (status, body)
}

/// The value of a response header (case-insensitive name), if present.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
    })
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(addr, "POST", path, body)
}

/// Rows of a dataset as the `{"rows": [...]}` JSON the server ingests.
fn rows_json(d: &Dataset) -> Json {
    let names = d.schema().names();
    let rows = (0..d.n_tuples())
        .map(|t| {
            Json::Obj(
                names
                    .iter()
                    .enumerate()
                    .map(|(a, n)| (n.clone(), Json::Str(d.value(t, a).to_string())))
                    .collect(),
            )
        })
        .collect();
    Json::Obj(vec![("rows".to_string(), Json::Arr(rows))])
}

fn scores_of(body: &str) -> Vec<f64> {
    let doc = serve::parse_json(body).unwrap_or_else(|e| panic!("bad response {body:?}: {e}"));
    doc.get("scores")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no scores in {body}"))
        .iter()
        .map(|v| v.as_f64().expect("numeric score"))
        .collect()
}

/// A batch of rows the model never saw (distinct per `tag`).
fn unseen_batch(tag: usize) -> Dataset {
    let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
    b.push_row(&[format!("606{:02}", tag % 100), "Chicago".to_string()]);
    b.push_row(&["53703".to_string(), format!("Madis{tag}n")]);
    b.push_row(&["60612".to_string(), "Chicago".to_string()]);
    b.build()
}

/// The reference's first `k` rows, as a request batch: each row equals
/// the reference row at its own index, and is still a foreign row (only
/// the artifact's owned reference holds reference cells).
fn reference_rows(k: usize) -> Dataset {
    let (dirty, _) = world();
    let mut b = DatasetBuilder::new(dirty.schema().clone());
    for t in 0..k {
        b.push_row(&dirty.tuple_values(t));
    }
    b.build()
}

// ---------------------------------------------------------------- tests

#[test]
fn concurrent_scores_are_bitwise_identical_to_in_process_score_batch() {
    let (model, path) = fit_artifact("parity");
    let server = start_server(&path);
    let addr = server.addr();

    // 6 client threads x 6 requests, concurrently: 4 of unseen rows and
    // 2 of copies of reference rows 0..k. Every response must equal a
    // direct score_batch.
    let sent_cells: usize = std::thread::scope(|s| {
        let model = &model;
        let handles: Vec<_> = (0..6)
            .map(|client| {
                s.spawn(move || {
                    let mut sent = 0;
                    for round in 0..6 {
                        let batch = if round < 4 {
                            unseen_batch(client * 10 + round)
                        } else {
                            reference_rows(client + round - 2)
                        };
                        let cells: Vec<CellId> = batch.cell_ids().collect();
                        sent += cells.len();
                        let expected = model.score_batch(&batch, &cells).expect("direct");
                        let (status, body) = post(
                            addr,
                            "/v1/models/food/score",
                            &rows_json(&batch).to_string(),
                        );
                        assert_eq!(status, 200, "body: {body}");
                        let served = scores_of(&body);
                        assert_eq!(
                            served.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                            expected.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                            "served scores differ from in-process score_batch"
                        );
                    }
                    sent
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });

    // The metrics page saw the traffic, and counted every served cell
    // exactly once.
    let (status, page) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(page.contains("holo_serve_requests_total"));
    assert!(
        page.contains(&format!("holo_serve_cells_scored_total {sent_cells}\n")),
        "expected {sent_cells} scored cells: {page}"
    );
    // The streaming totals sum over live models; with none they read 0.
    for family in [
        "holo_serve_rows_ingested_total",
        "holo_serve_labels_received_total",
    ] {
        assert!(
            page.contains(&format!("\n{family} 0\n")),
            "{family}: {page}"
        );
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn explicit_cells_and_predict_match_in_process_calls() {
    let (model, path) = fit_artifact("predict");
    let server = start_server(&path);
    let addr = server.addr();

    let batch = unseen_batch(7);
    // Score only the City column, by name and by index.
    let cells = vec![CellId::new(0, 1), CellId::new(2, 1)];
    let expected = model.score_batch(&batch, &cells).expect("direct");
    let mut doc = rows_json(&batch);
    if let Json::Obj(kvs) = &mut doc {
        kvs.push((
            "cells".to_string(),
            Json::Arr(vec![
                serve::parse_json(r#"{"row": 0, "attr": "City"}"#).unwrap(),
                serve::parse_json(r#"{"row": 2, "attr": 1}"#).unwrap(),
            ]),
        ));
    }
    let (status, body) = post(addr, "/v1/models/food/score", &doc.to_string());
    assert_eq!(status, 200, "body: {body}");
    assert_eq!(
        scores_of(&body)
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<_>>(),
        expected.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
    );

    // predict returns thresholded labels consistent with predict_batch.
    let threshold = model.default_threshold();
    let expected_labels = model
        .predict_batch(&batch, &cells, threshold)
        .expect("direct predict");
    let (status, body) = post(addr, "/v1/models/food/predict", &doc.to_string());
    assert_eq!(status, 200, "body: {body}");
    let resp = serve::parse_json(&body).unwrap();
    assert_eq!(
        resp.get("threshold").and_then(Json::as_f64),
        Some(threshold)
    );
    let labels: Vec<String> = resp
        .get("labels")
        .and_then(Json::as_arr)
        .expect("labels")
        .iter()
        .map(|l| l.as_str().expect("label string").to_string())
        .collect();
    let expected_labels: Vec<String> = expected_labels
        .iter()
        .map(|l| if l.is_error() { "error" } else { "correct" }.to_string())
        .collect();
    assert_eq!(labels, expected_labels);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn errors_map_to_documented_statuses_and_server_survives() {
    let (_model, path) = fit_artifact("errors");
    let server = start_server(&path);
    let addr = server.addr();
    let ok_rows = rows_json(&unseen_batch(1)).to_string();

    // Unknown model → 404.
    let (status, body) = post(addr, "/v1/models/ghost/score", &ok_rows);
    assert_eq!(status, 404, "body: {body}");
    // Unknown endpoint → 404; wrong method → 405.
    assert_eq!(post(addr, "/v1/frobnicate", "{}").0, 404);
    assert_eq!(http(addr, "GET", "/v1/models/food/score", "").0, 405);
    assert_eq!(post(addr, "/metrics", "").0, 405);
    // Broken JSON → 400.
    let (status, body) = post(addr, "/v1/models/food/score", "{\"rows\": [");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("invalid json"));
    // Valid JSON, wrong shape → 400.
    assert_eq!(post(addr, "/v1/models/food/score", "{}").0, 400);
    assert_eq!(
        post(addr, "/v1/models/food/score", "{\"rows\": [42]}").0,
        400
    );
    // Unknown column in a row → 400 naming the column.
    let (status, body) = post(
        addr,
        "/v1/models/food/score",
        r#"{"rows": [{"Zip": "60612", "Town": "Chicago"}]}"#,
    );
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("Town"), "body: {body}");
    // Missing column (arity mismatch) → 400.
    let (status, body) = post(
        addr,
        "/v1/models/food/score",
        r#"{"rows": [{"Zip": "60612"}]}"#,
    );
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("City"), "body: {body}");
    // Out-of-bounds cell → 400 with the typed category.
    let (status, body) = post(
        addr,
        "/v1/models/food/score",
        r#"{"rows": [{"Zip": "60612", "City": "Chicago"}], "cells": [{"row": 99, "attr": "City"}]}"#,
    );
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("cell_out_of_bounds"), "body: {body}");
    // No request so far scored a cell; the failed call counts none.
    let (_, page) = http(addr, "GET", "/metrics", "");
    assert!(
        page.contains("holo_serve_cells_scored_total 0\n"),
        "page: {page}"
    );
    // Raw garbage that isn't HTTP → 400, connection closed.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"\x00\x01\x02 utter garbage\r\n\r\n").unwrap();
    let mut resp = String::new();
    let _ = s.read_to_string(&mut resp);
    assert!(resp.is_empty() || resp.contains("400"));

    // After all of that, the server still scores fine.
    let (status, _) = post(addr, "/v1/models/food/score", &ok_rows);
    assert_eq!(status, 200);
    // …and the error storm is visible per category on /metrics, next to
    // the one successful call's cells.
    let (_, page) = http(addr, "GET", "/metrics", "");
    assert!(
        page.contains("holo_serve_model_errors_total{category=\"cell_out_of_bounds\"} 1"),
        "page: {page}"
    );
    let ok_cells = unseen_batch(1).cell_ids().count();
    assert!(
        page.contains(&format!("holo_serve_cells_scored_total {ok_cells}\n")),
        "page: {page}"
    );
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn mid_flight_reload_hot_swaps_without_breaking_scoring() {
    let (model, path) = fit_artifact("reload");
    let server = start_server(&path);
    let addr = server.addr();

    // healthz lists the model before we start.
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"food\""));

    // Scoring threads hammer the server while the main thread reloads
    // the artifact (same file → same weights → parity must survive).
    std::thread::scope(|s| {
        let model = &model;
        let scorers: Vec<_> = (0..4)
            .map(|client| {
                s.spawn(move || {
                    for round in 0..6 {
                        let batch = unseen_batch(100 + client * 10 + round);
                        let cells: Vec<CellId> = batch.cell_ids().collect();
                        let expected = model.score_batch(&batch, &cells).expect("direct");
                        let (status, body) = post(
                            addr,
                            "/v1/models/food/score",
                            &rows_json(&batch).to_string(),
                        );
                        assert_eq!(status, 200, "body: {body}");
                        assert_eq!(
                            scores_of(&body)
                                .iter()
                                .map(|p| p.to_bits())
                                .collect::<Vec<_>>(),
                            expected.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                            "scores drifted across a mid-flight reload"
                        );
                    }
                })
            })
            .collect();
        // Two reloads racing the scoring traffic.
        for _ in 0..2 {
            let (status, body) = post(addr, "/v1/models/food/reload", "");
            assert_eq!(status, 200, "body: {body}");
        }
        for h in scorers {
            h.join().expect("scorer thread");
        }
    });

    // Generations bumped: two successful reloads on top of load 0.
    let (_, body) = post(addr, "/v1/models/food/reload", "");
    let doc = serve::parse_json(&body).unwrap();
    assert_eq!(doc.get("generation").and_then(Json::as_f64), Some(3.0));

    // Reloading a model whose file vanished → 500 io, old model serves.
    std::fs::remove_file(&path).ok();
    let (status, body) = post(addr, "/v1/models/food/reload", "");
    assert_eq!(status, 500, "body: {body}");
    assert!(body.contains("\"io\""), "body: {body}");
    let (status, _) = post(
        addr,
        "/v1/models/food/score",
        &rows_json(&unseen_batch(5)).to_string(),
    );
    assert_eq!(status, 200);
    server.shutdown();
}

/// `/metrics` counts each handled request from its one finished trace:
/// the request-latency histogram is the sum, bucket for bucket, of the
/// root-endpoint `holo_trace_stage_micros{stage="/…"}` series (both
/// timed from the request's first byte), and the request total is the
/// sum of the status classes.
#[test]
fn request_latency_sums_the_root_endpoint_stage_series() {
    let (_model, path) = fit_artifact("latency");
    let server = start_server(&path);
    let addr = server.addr();
    let rows = rows_json(&unseen_batch(3)).to_string();
    for _ in 0..4 {
        assert_eq!(post(addr, "/v1/models/food/score", &rows).0, 200);
    }
    assert_eq!(post(addr, "/v1/models/food/score", "{}").0, 400);
    assert_eq!(post(addr, "/v1/models/ghost/score", &rows).0, 404);
    let (status, page) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);

    // (series suffix, labels other than `stage`) → value, for the
    // latency family and summed over the root-endpoint stage series.
    let mut latency = std::collections::BTreeMap::new();
    let mut roots = std::collections::BTreeMap::new();
    let sample = |line: &str, family: &str| -> Option<(String, String, u64)> {
        let (series, value) = line.rsplit_once(' ')?;
        let rest = series.strip_prefix(family)?;
        let (suffix, labels) = rest.split_once('{').unwrap_or((rest, ""));
        let value = value.parse().expect("integer sample");
        Some((
            suffix.to_string(),
            labels.trim_end_matches('}').to_string(),
            value,
        ))
    };
    for line in page.lines() {
        if let Some((suffix, labels, v)) = sample(line, "holo_serve_request_latency_micros") {
            latency.insert((suffix, labels), v);
        } else if let Some((suffix, labels, v)) = sample(line, "holo_trace_stage_micros") {
            let stage = labels.strip_prefix("stage=\"").expect("stage label");
            let (stage, le) = stage.split_once('"').expect("quoted stage");
            if stage.starts_with('/') {
                let key = (suffix, le.trim_start_matches(',').to_string());
                *roots.entry(key).or_insert(0) += v;
            }
        }
    }
    let key = |suffix: &str| (suffix.to_string(), String::new());
    assert_eq!(latency.get(&key("_count")), Some(&6), "{page}");
    assert_eq!(latency.get(&key("_count")), roots.get(&key("_count")));
    assert_eq!(latency.get(&key("_sum")), roots.get(&key("_sum")));
    assert_eq!(
        latency.len(),
        15,
        "12 bounds, +Inf, count, sum: {latency:?}"
    );
    assert_eq!(latency, roots);

    let counter = |series: &str| -> u64 {
        page.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {series} sample: {page}"))
    };
    let classes: Vec<u64> = ["2xx", "4xx", "5xx"]
        .iter()
        .map(|c| counter(&format!("holo_serve_responses_total{{class=\"{c}\"}}")))
        .collect();
    assert_eq!(classes, [4, 2, 0]);
    assert_eq!(
        counter("holo_serve_requests_total"),
        classes.iter().sum::<u64>()
    );
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn traced_score_request_attributes_its_wall_time_to_stages() {
    let (_model, path) = fit_artifact("trace");
    let server = start_server(&path);
    let addr = server.addr();

    // A scored request comes back with an `x-holo-trace` id… The client
    // idles after connecting: time before the request's first byte is
    // the client's, and no stage may bill it.
    let pause = Duration::from_millis(250);
    let (status, head, body) = http_full_after(
        pause,
        addr,
        "POST",
        "/v1/models/food/score",
        &rows_json(&unseen_batch(9)).to_string(),
    );
    assert_eq!(status, 200, "body: {body}");
    let id = header_value(&head, "x-holo-trace").expect("x-holo-trace header on a scored request");
    assert_eq!(id.len(), 16, "trace id is 16 hex chars, got {id:?}");

    // …whose span tree is fetchable by id and attributes the request's
    // wall time: parse (when present) + validate + score + encode must
    // cover 90–110% of the measured total.
    let (status, trace_body) = http(addr, "GET", &format!("/v1/trace/{id}"), "");
    assert_eq!(status, 200, "body: {trace_body}");
    let doc = serve::parse_json(&trace_body).expect("trace json");
    assert_eq!(doc.get("id").and_then(Json::as_str), Some(id.as_str()));
    assert_eq!(
        doc.get("endpoint").and_then(Json::as_str),
        Some("/v1/models/{name}/score")
    );
    let total = doc
        .get("total_micros")
        .and_then(Json::as_f64)
        .expect("total_micros");
    assert!(total > 0.0);
    assert!(
        total < pause.as_micros() as f64,
        "the client's {pause:?} idle before its first byte was traced: {trace_body}"
    );
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    let stage = |name: &str| -> f64 {
        spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {name:?} span in {trace_body}"))
            .get("duration_micros")
            .and_then(Json::as_f64)
            .expect("duration_micros")
    };
    // Scoring runs on the HTTP worker that parsed the request, so the
    // root has no queueing stage: every child is one of these four.
    let stages: Vec<&str> = spans
        .iter()
        .skip(1)
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        stages
            .iter()
            .all(|s| ["parse", "validate", "score", "encode"].contains(s)),
        "unexpected stage in {stages:?}"
    );
    let parse = if stages.contains(&"parse") {
        stage("parse")
    } else {
        0.0
    };
    let attributed = parse + stage("validate") + stage("score") + stage("encode");
    assert!(
        attributed >= 0.9 * total && attributed <= 1.1 * total,
        "stages must attribute the wall time: parse+validate+score+encode = \
         {attributed}us of {total}us total ({trace_body})"
    );

    // The ring serves it under /recent, and the slow store retains the
    // endpoint's worst exemplars.
    let (status, body) = http(addr, "GET", "/v1/trace/recent", "");
    assert_eq!(status, 200);
    assert!(
        body.contains(&id),
        "recent traces must include {id}: {body}"
    );
    let (status, body) = http(addr, "GET", "/v1/trace/slow", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("/v1/models/{name}/score"),
        "slow exemplars grouped by endpoint: {body}"
    );

    // Bad ids are typed errors, not panics.
    assert_eq!(http(addr, "GET", "/v1/trace/not-hex!", "").0, 400);
    assert_eq!(http(addr, "GET", "/v1/trace/00000000deadbeef", "").0, 404);

    // The stage histograms derived from the same spans are on /metrics.
    let (_, page) = http(addr, "GET", "/metrics", "");
    assert!(
        page.contains("holo_trace_stage_micros_bucket{stage=\"score\""),
        "page: {page}"
    );
    assert!(page.contains("holo_trace_recorded_total"), "page: {page}");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn prof_snapshot_is_well_formed_monotone_and_stages_carry_alloc_notes() {
    let (_model, path) = fit_artifact("prof");
    let server = start_server(&path);
    let addr = server.addr();

    // The snapshot parses and carries every documented section. The
    // profile is process-wide and cumulative, so absolute numbers are
    // whatever the rest of the suite left behind — the contract here is
    // shape + monotonicity, not magnitudes.
    let snapshot = |tag: &str| -> Json {
        let (status, body) = http(addr, "GET", "/v1/prof", "");
        assert_eq!(status, 200, "{tag}: body: {body}");
        serve::parse_json(&body).unwrap_or_else(|e| panic!("{tag}: bad prof json {body:?}: {e}"))
    };
    let before = snapshot("before");
    assert_eq!(before.get("enabled").and_then(Json::as_bool), Some(true));
    let alloc_of = |doc: &Json, field: &str| -> f64 {
        doc.get("alloc")
            .and_then(|a| a.get(field))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no alloc.{field} in {doc}"))
    };
    assert!(alloc_of(&before, "allocs") > 0.0, "the suite has allocated");
    assert!(alloc_of(&before, "peak_bytes") >= alloc_of(&before, "live_bytes"));
    for section in ["scopes", "locks", "pools"] {
        assert!(
            before.get(section).and_then(Json::as_arr).is_some(),
            "missing {section} in {before}"
        );
    }
    // The serving pools registered themselves.
    let pools = before.get("pools").and_then(Json::as_arr).unwrap();
    let pool_names: Vec<&str> = pools
        .iter()
        .filter_map(|p| p.get("pool").and_then(Json::as_str))
        .collect();
    assert!(pool_names.contains(&"http-worker"), "{pool_names:?}");

    // A scored request moves the cumulative counters forward, never back.
    let (status, head, body) = http_full(
        addr,
        "POST",
        "/v1/models/food/score",
        &rows_json(&unseen_batch(11)).to_string(),
    );
    assert_eq!(status, 200, "body: {body}");
    let after = snapshot("after");
    assert!(alloc_of(&after, "allocs") > alloc_of(&before, "allocs"));
    assert!(alloc_of(&after, "bytes") > alloc_of(&before, "bytes"));
    assert!(alloc_of(&after, "peak_bytes") >= alloc_of(&before, "peak_bytes"));

    // With profiling on, scoring books bytes under the "score" scope…
    let scope_bytes = |doc: &Json, name: &str| -> f64 {
        doc.get("scopes")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|s| s.get("scope").and_then(Json::as_str) == Some(name))
            .and_then(|s| s.get("bytes").and_then(Json::as_f64))
            .unwrap_or(0.0)
    };
    assert!(
        scope_bytes(&after, "score") > 0.0,
        "score scope missing from {after}"
    );

    // …and the request's trace carries per-stage alloc_bytes notes (the
    // tentpole contract: spans say where the time went, notes say where
    // the heap went, on the same stage names).
    let id = header_value(&head, "x-holo-trace").expect("trace id");
    let (status, trace_body) = http(addr, "GET", &format!("/v1/trace/{id}"), "");
    assert_eq!(status, 200, "body: {trace_body}");
    let doc = serve::parse_json(&trace_body).expect("trace json");
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    for stage in ["validate", "score", "encode"] {
        let span = spans
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(stage))
            .unwrap_or_else(|| panic!("no {stage:?} span in {trace_body}"));
        assert!(
            span.get("notes")
                .and_then(|n| n.get("alloc_bytes"))
                .and_then(Json::as_f64)
                .is_some(),
            "{stage} span has no alloc_bytes note in {trace_body}"
        );
    }

    // The same profile feeds /metrics as holo_prof_* families.
    let (_, page) = http(addr, "GET", "/metrics", "");
    for family in [
        "holo_prof_allocated_bytes_total",
        "holo_prof_alloc_bytes{scope=\"score\"}",
        "holo_prof_lock_wait_micros_bucket",
        "holo_prof_worker_busy_ratio{pool=\"http-worker\"}",
        "holo_features_nn_cache_hits_total",
    ] {
        assert!(page.contains(family), "missing {family} in /metrics page");
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn shutdown_drains_and_refuses_new_connections() {
    let (_model, path) = fit_artifact("shutdown");
    let server = start_server(&path);
    let addr = server.addr();
    let (status, _) = post(
        addr,
        "/v1/models/food/score",
        &rows_json(&unseen_batch(2)).to_string(),
    );
    assert_eq!(status, 200);
    server.shutdown();
    // The listener is gone: connecting fails or the socket yields EOF.
    let refused = match TcpStream::connect_timeout(&addr, Duration::from_millis(300)) {
        Err(_) => true,
        Ok(mut s) => {
            let _ = s.set_read_timeout(Some(Duration::from_millis(300)));
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = String::new();
            s.read_to_string(&mut buf).map(|n| n == 0).unwrap_or(true)
        }
    };
    assert!(refused, "server still serving after shutdown");
    std::fs::remove_file(&path).ok();
}
