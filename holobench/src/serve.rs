//! serve-hospital: the release `holo-serve` at default flags, scored over
//! loopback HTTP by two closed-loop clients, each on one keep-alive
//! connection, sending 4-row requests of unseen rows from the fitted
//! world.

use crate::http::{self, Conn};
use crate::layers::{self, FitInputs, Layers};
use crate::server::{self, Scratch, ServeChild};
use crate::spans::Tracer;
use crate::stats::{median, samples_for, Latencies, TAIL_LEVEL};
use crate::world::{self, derive_seed, World};
use crate::{hospital, metric, Args, Outcome};
use holo_eval::{pr_auc, FitContext, TrainedModel};
use holodetect::{FittedHoloDetect, HoloDetect};
use std::net::SocketAddr;
use std::ops::Range;
use std::time::Instant;

/// Reference rows the model is fitted on.
pub const REFERENCE_ROWS: usize = 600;
/// Unseen rows the request bodies carry.
pub const TAIL_ROWS: usize = 200;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Requests sent after each set-up and kept out of every percentile.
pub const WARMUP: usize = 10;
/// Closed-loop clients, each on its own connection.
pub const CLIENTS: usize = 2;
/// Request bodies whose served scores are compared bit for bit with
/// in-process scoring.
const CHECKED_BODIES: usize = 16;

/// The last of a run's set-ups, with the medians over all of them.
pub struct Setup {
    pub world: World,
    pub bodies: Vec<(Range<usize>, String)>,
    pub model: FittedHoloDetect,
    pub child: ServeChild,
    /// The saved artifact's bytes (a refit overwrites the file).
    pub artifact: Vec<u8>,
    /// The first served scores of each body, from the warm-up.
    pub served: Vec<Option<Vec<f64>>>,
    /// Warm-up requests of every set-up.
    pub warmup: Latencies,
    /// Median set-up wall time: everything before the timed phase.
    pub setup_s: f64,
    /// Median wall time of `fit_model` within a set-up.
    pub fit_s: f64,
}

pub fn fit(w: &World) -> FittedHoloDetect {
    HoloDetect::new(hospital::config()).fit_model(&FitContext {
        dirty: &w.reference,
        train: &w.train,
        sampling: None,
        constraints: &w.constraints,
        seed: w.seed,
    })
}

/// Runs [`SETUPS`] set-ups, each from scratch: build the world, fit, save
/// the artifact under `scratch` (removing any delta log an earlier one
/// left), spawn `holo-serve` with `serve_args` plus `--model
/// NAME=ARTIFACT`, and send the warm-up requests. Keeps the last.
pub fn set_up(
    scratch: &Scratch,
    serve_args: &[String],
    make_world: impl Fn() -> World,
) -> Result<Setup, String> {
    let bin = server::fresh_binary("holo-serve")?;
    let (mut setup_s, mut fit_s) = (Vec::new(), Vec::new());
    let mut warmup = Latencies::default();
    let mut last = None;
    for _ in 0..SETUPS {
        // The previous child is killed before the next one starts.
        drop(last.take());
        let t = Instant::now();
        let w = make_world();
        let bodies = world::request_bodies(&w.tail);
        let fit_t = Instant::now();
        let model = fit(&w);
        fit_s.push(fit_t.elapsed().as_secs_f64());
        let path = scratch.path(&format!("{}.holoart", w.name));
        model.save(&path).map_err(|e| e.to_string())?;
        let artifact = std::fs::read(&path).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(scratch.path(&format!("{}.dlog", w.name)));
        let mut args = vec![
            "--model".to_string(),
            format!("{}={}", w.name, path.display()),
        ];
        args.extend(serve_args.iter().cloned());
        let child = ServeChild::spawn(&bin, &args)?;
        let mut conn = Conn::connect(child.addr()).map_err(|e| e.to_string())?;
        let score_path = format!("/v1/models/{}/score", w.name);
        let mut served = vec![None; bodies.len()];
        for i in 0..WARMUP {
            let (range, body) = &bodies[i % bodies.len()];
            let t = Instant::now();
            let cells = range.len() * w.tail.n_attrs();
            let scores = score_request(&mut conn, &score_path, body, cells);
            warmup.record(t.elapsed().as_secs_f64() * 1e3, scores.is_some());
            if served[i % bodies.len()].is_none() {
                served[i % bodies.len()] = scores;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((w, bodies, model, child, artifact, served));
    }
    let (world, bodies, model, child, artifact, served) = last.expect("SETUPS > 0");
    Ok(Setup {
        world,
        bodies,
        model,
        child,
        artifact,
        served,
        warmup,
        setup_s: median(&setup_s),
        fit_s: median(&fit_s),
    })
}

/// One score request; the scores if the response is a 200 carrying
/// `cells` finite probabilities.
pub fn score_request(conn: &mut Conn, path: &str, body: &str, cells: usize) -> Option<Vec<f64>> {
    match conn.request("POST", path, body) {
        Ok((200, resp)) => http::parse_scores(&resp)
            .ok()
            .filter(|s| s.len() == cells && s.iter().all(|p| (0.0..=1.0).contains(p))),
        _ => None,
    }
}

/// A closed-loop scoring client: request bodies `first, first + step, …`
/// (cycling) until `stop(requests sent)` says so.
pub fn score_client(
    addr: SocketAddr,
    path: &str,
    bodies: &[(std::ops::Range<usize>, String)],
    n_attrs: usize,
    first: usize,
    step: usize,
    stop: impl Fn(usize) -> bool,
) -> (Latencies, usize) {
    let mut lat = Latencies::default();
    let mut cells = 0;
    let Ok(mut conn) = Conn::connect(addr) else {
        lat.record(0.0, false);
        return (lat, 0);
    };
    let mut i = first;
    while !stop(lat.attempted()) {
        let (range, body) = &bodies[i % bodies.len()];
        let t = Instant::now();
        let scores = score_request(&mut conn, path, body, range.len() * n_attrs);
        lat.record(t.elapsed().as_secs_f64() * 1e3, scores.is_some());
        cells += scores.map_or(0, |s| s.len());
        i += step;
    }
    (lat, cells)
}

/// Bitwise comparison of served scores with in-process `score_batch`.
pub fn check_served(
    out: &mut Outcome,
    model: &FittedHoloDetect,
    tail: &holo_data::Dataset,
    bodies: &[(std::ops::Range<usize>, String)],
    served: &[Option<Vec<f64>>],
) -> Result<(), String> {
    let mut compared = 0;
    for ((range, _), scores) in bodies.iter().zip(served).take(CHECKED_BODIES) {
        let Some(scores) = scores else { continue };
        let batch = world::slice_rows(tail, range.clone());
        let direct = model
            .score_batch(&batch, &world::all_cells(&batch))
            .map_err(|e| e.to_string())?;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        out.check(bits(scores) == bits(&direct), || {
            format!("served scores for rows {range:?} differ from in-process score_batch")
        });
        compared += 1;
    }
    out.check(compared > 0, || "no served scores to compare".into());
    Ok(())
}

/// `/metrics` batch-wait and requests-per-call means of a child.
pub fn batcher_layers(addr: SocketAddr, layers: &mut Layers) -> Result<(), String> {
    let page = http::get_ok(addr, "/metrics")?;
    if let Some((sum, count)) =
        http::histogram_sum_count(&page, "holo_trace_stage_micros", "{stage=\"batch-wait\"}")
    {
        layers.set("serve.batch_wait_ms", sum / count.max(1.0) / 1e3);
    }
    if let Some((sum, count)) = http::histogram_sum_count(&page, "holo_serve_batch_requests", "") {
        layers.set("serve.requests_per_call", sum / count.max(1.0));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scratch = Scratch::new("serve-hospital")?;
    let seed = derive_seed(args.seed, 2);
    let s = set_up(&scratch, &[], || {
        world::serve_hospital(seed, REFERENCE_ROWS, TAIL_ROWS)
    })?;
    out.phase("warmup", s.warmup.attempted(), s.warmup.failed);
    let (w, bodies, mut served) = (&s.world, &s.bodies, s.served.clone());

    let path = format!("/v1/models/{}/score", w.name);
    let n_attrs = w.tail.n_attrs();
    let addr = s.child.addr();
    let t0 = Instant::now();
    let deadline = t0 + args.seconds;
    // Past the deadline, until the tail percentile has its samples.
    let per_client = samples_for(TAIL_LEVEL).div_ceil(CLIENTS);
    let results: Vec<(Latencies, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let path = &path;
                scope.spawn(move || {
                    score_client(addr, path, bodies, n_attrs, c, CLIENTS, |sent| {
                        Instant::now() >= deadline && sent >= per_client
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut lat = Latencies::default();
    let mut cells = 0;
    for (l, c) in results {
        lat.merge(l);
        cells += c;
    }
    out.phase("score", lat.attempted(), lat.failed);
    eprintln!(
        "holobench: serve-hospital: {} requests ({} failed) in {secs:.2} s",
        lat.attempted(),
        lat.failed
    );

    // Served scores of every body: the warm-up's, then the rest.
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    for (i, (range, body)) in bodies.iter().enumerate() {
        if served[i].is_none() {
            served[i] = score_request(&mut conn, &path, body, range.len() * n_attrs);
        }
    }
    let missing = served.iter().filter(|s| s.is_none()).count();
    out.phase("unseen_rows", bodies.len(), missing);
    check_served(&mut out, &s.model, &w.tail, bodies, &served)?;
    let scored: Vec<(f64, bool)> = served
        .iter()
        .flatten()
        .flatten()
        .zip(world::all_cells(&w.tail))
        .map(|(&p, c)| (p, w.tail_truth.label(c).is_error()))
        .collect();
    let auc = pr_auc(&scored);
    out.check(missing == 0 && auc > 0.0 && auc <= 1.0, || {
        format!("pr_auc {auc}")
    });
    let p50 = lat.percentile(0.5)?;
    let peak_rss_mb = s.child.peak_rss_mb()?;

    out.metrics = vec![
        metric("setup_s", s.setup_s, "s"),
        metric("fit_s", s.fit_s, "s"),
        metric("score_cells_per_s", cells as f64 / secs, "cells/s"),
        metric("score_p50_ms", p50, "ms"),
        metric("score_p97_ms", lat.percentile(TAIL_LEVEL)?, "ms"),
        metric("pr_auc", auc, "ratio"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    eprintln!("holobench: {} latency samples", lat.attempted());
    if !args.trace {
        return Ok(out);
    }

    let mut layers = Layers::default();
    batcher_layers(addr, &mut layers)?;
    drop(s.child);
    let mut tr = Tracer::new();
    let inputs = FitInputs {
        dirty: &w.reference,
        constraints: &w.constraints,
        train: &w.train,
        seed: w.seed,
    };
    let threshold = layers::replay_fit(&mut tr, &hospital::config(), &inputs, &mut layers);
    out.check(threshold == s.model.threshold(), || {
        format!(
            "replayed fit tuned {threshold}, fit_model {}",
            s.model.threshold()
        )
    });
    tr.next_op();
    let root = tr.enter(layers::REPLAY);
    let loaded = layers::replay_artifact(&mut tr, &s.model, &mut layers)?;
    tr.exit(root);
    let request_bodies: Vec<String> = bodies.iter().map(|(_, b)| b.clone()).collect();
    layers::warm(&loaded, w.reference.schema(), &request_bodies)?;
    let cache_before = loaded.nn_cache_stats();
    let (totals, json_us) =
        layers::replay_requests(&mut tr, &loaded, w.reference.schema(), &request_bodies)?;
    totals.report(&mut layers, "features.us_per_cell.foreign");
    layers.set(
        "features.nn_cache_hit_ratio",
        layers::hit_ratio(cache_before, loaded.nn_cache_stats()),
    );
    layers.set("serve.json_us_per_req", json_us);
    layers.set(
        "serve.http_overhead_ms_per_req",
        p50 - median(&totals.score_ms),
    );
    layers.finish(&tr, &args.workload, args.seed, &mut out);
    Ok(out)
}
