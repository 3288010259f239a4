//! stream-food: writes beside reads. `holo-serve --stream` serves a Food
//! model from an empty delta log. Client A posts the drifted tail as 4-row
//! ingest batches, then 20 labels, then forces exactly one refit, while
//! client B keeps sending 4-row score requests. Finally the drifted tail
//! is scored for PR-AUC.
//!
//! The timed phase is this fixed session, not a fixed time: the refit's
//! result must be the same for a seed, so the tail cannot depend on how
//! fast it was ingested. `--seconds` does not lengthen it.

use crate::http::{self, Conn};
use crate::layers::{self, FitInputs, Layers, REPLAY};
use crate::serve::{self, score_client, score_request};
use crate::server::Scratch;
use crate::spans::Tracer;
use crate::stats::{median, samples_for, Latencies, TAIL_LEVEL};
use crate::world::{self, derive_seed, World};
use crate::{hospital, metric, Args, Outcome};
use holo_data::{DeltaLog, DeltaOp};
use holo_eval::{pr_auc, TrainedModel};
use holodetect::FittedHoloDetect;
use holodetect_repro::adapt::{AdaptConfig, AdaptiveRefit};
use holodetect_repro::serve::json;
use holodetect_repro::stream::{LiveModel, RowLabel, StreamConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Reference rows the model is fitted on.
const REFERENCE_ROWS: usize = 200;
/// Drifted rows client A ingests, in 50 ingest requests.
const TAIL_ROWS: usize = 200;
/// Operator labels posted before the refit (the few-shot budget).
const LABELS: usize = 20;
/// A refit poll interval longer than any run: the only refit is the
/// forced one.
const REFIT_INTERVAL_MS: &str = "3600000";

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scratch = Scratch::new("stream-food")?;
    let seed = derive_seed(args.seed, 3);
    let log = scratch.path("food.dlog");
    let serve_args = [
        "--stream".to_string(),
        format!("food={}", log.display()),
        "--refit-interval-ms".to_string(),
        REFIT_INTERVAL_MS.to_string(),
    ];
    let s = serve::set_up(&scratch, &serve_args, || {
        world::stream_food(seed, REFERENCE_ROWS, TAIL_ROWS)
    })?;
    let (w, bodies) = (&s.world, &s.bodies);
    out.phase("warmup", s.warmup.attempted(), s.warmup.failed);
    // Before any ingest the served model is the saved artifact.
    serve::check_served(&mut out, &s.model, &w.tail, bodies, &s.served)?;

    let addr = s.child.addr();
    let model_path = format!("/v1/models/{}", w.name);
    let score_path = format!("{model_path}/score");
    let n_attrs = w.tail.n_attrs();
    let labels = world::tail_labels(w, LABELS);
    let lock_wait_before = state_lock_wait(addr)?;

    let writes_done = AtomicBool::new(false);
    let t0 = Instant::now();
    let (reader, writer) = std::thread::scope(|scope| {
        let b = scope.spawn(|| {
            score_client(addr, &score_path, bodies, n_attrs, 0, 1, |sent| {
                // Past the writes, until the tail percentile has its samples.
                writes_done.load(Ordering::SeqCst) && sent >= samples_for(TAIL_LEVEL)
            })
        });
        let a = write_phases(addr, &model_path, w, bodies, &labels);
        writes_done.store(true, Ordering::SeqCst);
        (b.join().expect("score client panicked"), a)
    });
    let writer = writer?;
    let score_window_s = t0.elapsed().as_secs_f64();
    let (lat, scored_cells) = reader;
    out.phase("ingest", writer.ingest.attempted(), writer.ingest.failed);
    out.phase("labels", 1, usize::from(!writer.labels_ok));
    out.phase("refit", 1, usize::from(!writer.refit_ok));
    out.phase("score", lat.attempted(), lat.failed);
    let lock_wait_us = state_lock_wait(addr)? - lock_wait_before;

    let drift = json::parse(&http::get_ok(addr, &format!("{model_path}/drift"))?)
        .map_err(|e| e.to_string())?;
    let field = |k: &str| drift.get(k).and_then(|v| v.as_f64());
    out.check(field("refits_total") == Some(1.0), || {
        format!(
            "the model reports {:?} refits, not exactly one",
            field("refits_total")
        )
    });
    out.check(field("epoch") == Some(TAIL_ROWS as f64), || {
        format!("final epoch {:?}, expected {TAIL_ROWS}", field("epoch"))
    });
    out.check(field("generation") == Some(1.0), || {
        format!("generation {:?} after one refit", field("generation"))
    });

    let cells = world::all_cells(&w.tail);
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let final_body = world::rows_body(&w.tail, 0..w.tail.n_tuples());
    let final_scores = score_request(&mut conn, &score_path, &final_body, cells.len());
    out.phase("final_score", 1, usize::from(final_scores.is_none()));
    let final_scores = final_scores.unwrap_or_default();
    let scored: Vec<(f64, bool)> = final_scores
        .iter()
        .zip(&cells)
        .map(|(&s, &c)| (s, w.tail_truth.label(c).is_error()))
        .collect();
    let auc = pr_auc(&scored);
    out.check(auc > 0.0 && auc <= 1.0, || format!("pr_auc {auc}"));
    let peak_rss_mb = s.child.peak_rss_mb()?;
    let p50 = lat.percentile(0.5)?;
    eprintln!(
        "holobench: stream-food: ingest {:.2} s, refit {:.2} s, {} score requests, pr_auc {auc:.4}",
        writer.ingest_s,
        writer.refit_s,
        lat.attempted()
    );
    let mut layers = args.trace.then(Layers::default);
    if let Some(layers) = &mut layers {
        serve::batcher_layers(addr, layers)?;
        layers.set(
            "stream.state_lock_wait_us_per_req",
            lock_wait_us / lat.attempted().max(1) as f64,
        );
        layers.set(
            "stream.ingest_rows_per_s",
            TAIL_ROWS as f64 / writer.ingest_s,
        );
        layers.set("stream.ingest_p50_ms", writer.ingest.percentile(0.5)?);
        layers.set("stream.refit_s", writer.refit_s);
    }
    drop(s.child);

    out.metrics = vec![
        metric("setup_s", s.setup_s, "s"),
        metric("fit_s", s.fit_s, "s"),
        metric(
            "score_cells_per_s",
            scored_cells as f64 / score_window_s,
            "cells/s",
        ),
        metric("score_p50_ms", p50, "ms"),
        metric("score_p97_ms", lat.percentile(TAIL_LEVEL)?, "ms"),
        metric("pr_auc", auc, "ratio"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    eprintln!(
        "holobench: {} score and {} ingest latency samples",
        lat.attempted(),
        writer.ingest.attempted()
    );
    let Some(mut layers) = layers else {
        return Ok(out);
    };
    // The same session in-process, each layer's call timed: it must land
    // on the served post-refit scores bit for bit.
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
    let replayed = replay(
        &mut tr,
        w,
        &s.artifact,
        &scratch,
        bodies,
        &labels,
        &mut layers,
        p50,
    )?;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    out.check(bits(&replayed) == bits(&final_scores), || {
        "served post-refit scores differ from the in-process session".into()
    });
    layers.finish(&tr, &args.workload, args.seed, &mut out);
    Ok(out)
}

fn state_lock_wait(addr: std::net::SocketAddr) -> Result<f64, String> {
    http::lock_wait_micros(&http::get_ok(addr, "/v1/prof")?, "state")
        .ok_or_else(|| "/v1/prof lists no state lock".to_string())
}

/// Client A's record.
struct Writer {
    ingest: Latencies,
    ingest_s: f64,
    labels_ok: bool,
    refit_ok: bool,
    refit_s: f64,
}

/// Client A: ingest the tail, post the labels, force one refit.
fn write_phases(
    addr: std::net::SocketAddr,
    model_path: &str,
    w: &World,
    bodies: &[(std::ops::Range<usize>, String)],
    labels: &[(usize, Vec<String>)],
) -> Result<Writer, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut ingest = Latencies::default();
    let rows_path = format!("{model_path}/rows");
    let t = Instant::now();
    for (range, body) in bodies {
        let t = Instant::now();
        let ok = match conn.request("POST", &rows_path, body) {
            Ok((200, resp)) => {
                json::parse(&resp)
                    .ok()
                    .and_then(|d| d.get("appended").and_then(|v| v.as_f64()))
                    == Some(range.len() as f64)
            }
            _ => false,
        };
        ingest.record(t.elapsed().as_secs_f64() * 1e3, ok);
    }
    let ingest_s = t.elapsed().as_secs_f64();
    let body = world::labels_body(w.tail.schema().names(), labels);
    let labels_ok = match conn.request("POST", &format!("{model_path}/labels"), &body) {
        Ok((200, resp)) => {
            json::parse(&resp)
                .ok()
                .and_then(|d| d.get("accepted").and_then(|v| v.as_f64()))
                == Some(labels.len() as f64)
        }
        _ => false,
    };
    let t = Instant::now();
    let refit_ok = matches!(
        conn.request("POST", &format!("{model_path}/refit"), ""),
        Ok((200, _))
    );
    let refit_s = t.elapsed().as_secs_f64();
    Ok(Writer {
        ingest,
        ingest_s,
        labels_ok,
        refit_ok,
        refit_s,
    })
}

/// The served session replayed in-process from the same artifact bytes,
/// each layer's public call timed: open a live model on an empty log,
/// ingest the tail in the same batches (and, on side copies, the log
/// append and the model maintenance alone), add the labels, refit (and
/// the adaptive refit and `refit_with` alone), install, and score the
/// tail. The HTTP overhead is client B's median latency (`client_p50` ms)
/// minus the in-process one.
#[allow(clippy::too_many_arguments)]
fn replay(
    tr: &mut Tracer,
    w: &World,
    artifact: &[u8],
    scratch: &Scratch,
    bodies: &[(std::ops::Range<usize>, String)],
    labels: &[(usize, Vec<String>)],
    layers: &mut Layers,
    client_p50: f64,
) -> Result<Vec<f64>, String> {
    let err = |e: holo_eval::ModelError| e.to_string();
    let path = scratch.path("replay.holoart");
    std::fs::write(&path, artifact).map_err(|e| e.to_string())?;
    let schema = w.reference.schema().clone();
    let labels: Vec<RowLabel> = labels
        .iter()
        .map(|(row, clean)| RowLabel {
            row: *row,
            clean: clean.clone(),
        })
        .collect();
    let mut side_log =
        DeltaLog::open(&scratch.path("side.dlog"), schema.clone()).map_err(|e| e.to_string())?;
    let mut side = FittedHoloDetect::load_from(&mut &artifact[..]).map_err(err)?;

    tr.next_op();
    let root = tr.enter(REPLAY);
    let live = tr
        .time("stream.open", || {
            LiveModel::open(&path, &scratch.path("replay.dlog"), StreamConfig::default())
        })
        .map_err(err)?;
    for (range, _) in bodies {
        let batch: Vec<Vec<String>> = range
            .clone()
            .map(|t| {
                w.tail
                    .tuple_values(t)
                    .into_iter()
                    .map(str::to_owned)
                    .collect()
            })
            .collect();
        tr.time("stream.ingest", || live.ingest_rows(batch.clone()))
            .map_err(err)?;
        tr.time("data.log_append", || -> std::io::Result<()> {
            for values in &batch {
                side_log.append(DeltaOp::Append {
                    values: values.clone(),
                })?;
            }
            side_log.flush()
        })
        .map_err(|e| e.to_string())?;
        tr.time("features.apply_delta", || {
            batch
                .into_iter()
                .try_for_each(|values| side.apply_delta(&DeltaOp::Append { values }))
        })
        .map_err(err)?;
    }
    tr.time("stream.add_labels", || live.add_labels(labels.clone()))
        .map_err(err)?;
    let copy = layers::replay_artifact(tr, &side, layers)?;
    let adapt = AdaptiveRefit::new(AdaptConfig {
        max_labels: LABELS,
        ..AdaptConfig::default()
    });
    let (refitted, _, timing) = tr
        .time("adapt.refit", || adapt.refit_timed(copy, &labels))
        .map_err(err)?;
    let reference = side
        .artifact()
        .ok_or("degenerate model")?
        .reference()
        .clone();
    let (examples, _) = tr
        .time("adapt.examples", || adapt.examples(&reference, &labels))
        .map_err(err)?;
    tr.time("core.refit_with", || side.refit_with(examples))
        .map_err(err)?;
    tr.time("stream.refit_to_disk", || live.refit_to_disk())
        .map_err(err)?;
    tr.time("stream.install", || live.reload_install())
        .map_err(err)?;
    let cells = world::all_cells(&w.tail);
    let scores = tr
        .time("stream.score_batch", || live.score_batch(&w.tail, &cells))
        .map_err(err)?;
    tr.exit(root);

    // The adaptive refit replayed alone lands on the installed model.
    let direct = refitted.score_batch(&w.tail, &cells).map_err(err)?;
    if direct
        .iter()
        .map(|x| x.to_bits())
        .ne(scores.iter().map(|x| x.to_bits()))
    {
        return Err("the replayed adaptive refit differs from the live refit".into());
    }
    let n = TAIL_ROWS as f64;
    let ingest_us = layers::total_us(tr, "stream.ingest");
    let log_us = layers::total_us(tr, "data.log_append");
    let apply_us = layers::total_us(tr, "features.apply_delta");
    layers.set("stream.ingest_ms_per_row", ingest_us / n / 1e3);
    layers.set("data.log_append_us_per_row", log_us / n);
    layers.set("features.apply_delta_us_per_row", apply_us / n);
    layers.set(
        "stream.drift_update_ms_per_row",
        (ingest_us - log_us - apply_us) / n / 1e3,
    );
    layers.set("adapt.refit_s", total_s(tr, "adapt.refit"));
    layers.set("adapt.augment_s", timing.augment_micros as f64 / 1e6);
    layers.set(
        "adapt.channel_learn_s",
        timing.channel_learn_micros as f64 / 1e6,
    );
    layers.set("core.refit_with_s", total_s(tr, "core.refit_with"));
    layers.set(
        "stream.refit_to_disk_s",
        total_s(tr, "stream.refit_to_disk"),
    );
    layers.set("stream.install_s", total_s(tr, "stream.install"));

    // Client B's request stream against the refitted model, whose
    // neighbour memo is warmed first as the server's was.
    let request_bodies: Vec<String> = bodies.iter().map(|(_, b)| b.clone()).collect();
    layers::warm(&refitted, &schema, &request_bodies)?;
    let cache_before = refitted.nn_cache_stats();
    let (totals, json_us) = layers::replay_requests(tr, &refitted, &schema, &request_bodies)?;
    totals.report(layers, "features.us_per_cell.foreign");
    layers.set(
        "features.nn_cache_hit_ratio",
        layers::hit_ratio(cache_before, refitted.nn_cache_stats()),
    );
    layers.set("serve.json_us_per_req", json_us);
    layers.set(
        "serve.http_overhead_ms_per_req",
        client_p50 - median(&totals.score_ms),
    );
    Ok(scores)
}

fn total_s(tr: &Tracer, name: &str) -> f64 {
    layers::total_us(tr, name) / 1e6
}
