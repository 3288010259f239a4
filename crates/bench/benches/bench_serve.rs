//! The serving-throughput benchmark: the same fitted artifact driven
//! three ways — in-process `score_batch` (the ceiling), then over HTTP
//! with one worker and with a worker pool — so the cost of the network
//! layer and the payoff of pooling both land in the perf trajectory.
//!
//! Each iteration fires `CLIENTS` threads x `REQUESTS_PER_CLIENT`
//! score requests (fresh connection each, as a load balancer would) at
//! a server bound to port 0, and waits for every response.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use holo_data::{CellId, Dataset, DatasetBuilder, GroundTruth, Schema};
use holo_eval::{FitContext, TrainedModel};
use holo_serve::{HttpConfig, Json, ModelRegistry, RunningServer};
use holodetect::{FittedHoloDetect, HoloDetect, HoloDetectConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 4;
const ROWS_PER_REQUEST: usize = 10;

fn world() -> (Dataset, GroundTruth) {
    let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
    for _ in 0..30 {
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

fn fit_artifact() -> (FittedHoloDetect, PathBuf) {
    let (dirty, truth) = world();
    let mut cfg = HoloDetectConfig::fast();
    cfg.epochs = 10;
    let train = truth.label_tuples(&dirty, &(0..24).collect::<Vec<_>>());
    let model = HoloDetect::new(cfg).fit_model(&FitContext {
        dirty: &dirty,
        train: &train,
        sampling: None,
        constraints: &[],
        seed: 3,
    });
    let path =
        std::env::temp_dir().join(format!("holo-serve-bench-{}.holoart", std::process::id()));
    model.save(&path).expect("save artifact");
    (model, path)
}

/// An unseen batch of `ROWS_PER_REQUEST` rows, distinct per tag.
fn unseen_batch(tag: usize) -> Dataset {
    let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
    for r in 0..ROWS_PER_REQUEST {
        b.push_row(&[
            format!("6{:04}", (tag * 13 + r) % 10_000),
            "Chicago".to_string(),
        ]);
    }
    b.build()
}

fn rows_body(d: &Dataset) -> String {
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
    Json::Obj(vec![("rows".to_string(), Json::Arr(rows))]).to_string()
}

fn post_score(addr: SocketAddr, body: &str) -> usize {
    let mut s = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "POST /v1/models/m/score HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200"), "bad response: {raw}");
    raw.len()
}

fn start(path: &std::path::Path, workers: usize) -> RunningServer {
    let registry = Arc::new(ModelRegistry::new());
    registry.load_insert("m", path).expect("load artifact");
    holo_serve::start(
        "127.0.0.1:0",
        HttpConfig {
            workers,
            ..HttpConfig::default()
        },
        registry,
    )
    .expect("bind")
}

/// Fire the full client load at `addr` and wait for every response.
fn drive(addr: SocketAddr, bodies: &[String]) -> usize {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let bodies = &bodies[c * REQUESTS_PER_CLIENT..(c + 1) * REQUESTS_PER_CLIENT];
                s.spawn(move || bodies.iter().map(|b| post_score(addr, b)).sum::<usize>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    })
}

fn bench_serving(c: &mut Criterion) {
    let (model, path) = fit_artifact();
    let bodies: Vec<String> = (0..CLIENTS * REQUESTS_PER_CLIENT)
        .map(|i| rows_body(&unseen_batch(i)))
        .collect();
    let batches: Vec<(Dataset, Vec<CellId>)> = (0..CLIENTS * REQUESTS_PER_CLIENT)
        .map(|i| {
            let d = unseen_batch(i);
            let cells: Vec<CellId> = d.cell_ids().collect();
            (d, cells)
        })
        .collect();

    // Ceiling: the same 16 batches scored in-process, no network.
    c.bench_function("direct_score_batch_16x10rows", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for (d, cells) in &batches {
                n += black_box(model.score_batch(d, cells).expect("score")).len();
            }
            n
        })
    });

    let single = start(&path, 1);
    c.bench_function("http_1worker", |b| {
        b.iter(|| black_box(drive(single.addr(), &bodies)))
    });
    single.shutdown();

    let pooled = start(&path, 4);
    c.bench_function("http_4workers", |b| {
        b.iter(|| black_box(drive(pooled.addr(), &bodies)))
    });
    pooled.shutdown();
    std::fs::remove_file(&path).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serving
}
criterion_main!(benches);
