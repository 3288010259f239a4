//! The scenario lifecycle driver: one schema through
//! fit → save/load → serve → stream → drift → label → refit → re-score.
//!
//! Each scenario exercises every subsystem the repo has grown, in the
//! order a production deployment would: the model is fitted on a base
//! reference corrupted by the scenario's fit-time channel, persisted
//! and reloaded as an artifact, registered as a *live* model behind a
//! real `holo-serve` HTTP server, probed over the wire (scores must be
//! bitwise-identical to in-process scoring), fed the drifted tail of
//! the same entity world through the streaming ingest endpoint, and
//! finally refitted through the `/refit` endpoint once the drift
//! monitor fires. Quality (PR-AUC, F1 at the tuned threshold, and
//! PR-AUC over the drifted rows before vs after the refit) is measured
//! at each stage; wall-clock latency rides along separately so the
//! quality numbers stay byte-reproducible for a fixed seed.

use crate::config::{SchemaScenario, SuiteConfig};
use holo_adapt::{AdaptConfig, AdaptiveRefit, RowLabel};
use holo_data::{CellId, Dataset, DatasetBuilder, DeltaOp, GroundTruth};
use holo_datagen::{generate_clean, inject_errors};
use holo_eval::{best_f1, f1_at_threshold, pr_auc, ModelError, Split, SplitConfig, TrainedModel};
use holo_serve::{HttpConfig, Json, ModelRegistry};
use holo_stream::{LiveModel, StreamConfig};
use holo_trace::Stopwatch;
use holodetect::{FittedHoloDetect, HoloDetect, HoloDetectConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Quality metrics for one scenario — every field is deterministic for
/// a fixed seed (these are the numbers the CI gate compares).
#[derive(Debug, Clone)]
pub struct ScenarioQuality {
    /// PR-AUC over the held-out cells of the base reference.
    pub pr_auc: f64,
    /// F1 over the same cells at the model's holdout-tuned threshold.
    pub f1: f64,
    /// The tuned threshold itself.
    pub threshold: f64,
    /// Best attainable F1 over the base ranking (threshold-free upper
    /// bound; a big gap to `f1` means the tuner, not the ranking, is
    /// the bottleneck).
    pub best_f1: f64,
    /// PR-AUC over the drifted rows, scored after they streamed in but
    /// *before* the refit (the incremental-maintenance-only model).
    pub pr_auc_drift_pre_refit: f64,
    /// PR-AUC over the same drifted rows after the drift-triggered
    /// refit.
    pub pr_auc_drift_post_refit: f64,
    /// F1 over the drifted rows at the refitted model's threshold.
    pub f1_drift_post_refit: f64,
    /// Whether the drift monitor itself called for a refit after the
    /// full drifted tail streamed in (false = quiet drift no signal
    /// caught; the scenario forces the refit either way, so post-refit
    /// quality is always measured).
    pub would_refit: bool,
    /// Injected error cells in the base reference.
    pub n_base_errors: usize,
    /// Injected error cells in the drifted tail.
    pub n_drift_errors: usize,
    /// Operator labels posted before the refit (the few-shot budget the
    /// adaptive refit actually consumed).
    pub labels_used: usize,
    /// Which drift signals fired after the drifted tail streamed in,
    /// *before* any labels were posted (wire names, e.g. "psi").
    pub drift_fired: Vec<String>,
    /// The offline adaptation sweep: post-refit quality on the drifted
    /// rows as a function of the label budget.
    pub label_sweep: Vec<SweepPoint>,
}

/// One point of the label-budget sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Labels granted to the adaptive refit.
    pub labels: usize,
    /// PR-AUC over the drifted rows after that refit.
    pub pr_auc: f64,
    /// F1 over the drifted rows at that refit's tuned threshold.
    pub f1: f64,
}

/// Wall-clock numbers for one scenario — machine-dependent, reported
/// for trend-watching but never gated on and omitted under
/// `--no-latency`.
#[derive(Debug, Clone)]
pub struct ScenarioLatency {
    /// Seconds spent in `fit_model`.
    pub fit_secs: f64,
    /// Milliseconds to load the saved artifact back from disk.
    pub artifact_load_ms: f64,
    /// Milliseconds for one HTTP `/score` round-trip (probe batch).
    pub http_score_ms: f64,
    /// Streaming ingest throughput over the HTTP `/rows` endpoint.
    pub ingest_rows_per_sec: f64,
    /// Seconds for the drift-triggered `/refit` round-trip.
    pub refit_secs: f64,
    /// Per-stage breakdown of the HTTP score probe, from the server's
    /// own trace of the request (`parse`/`validate`/`score`/`encode`),
    /// as `(stage, micros)` in span order.
    pub score_stage_micros: Vec<(String, u64)>,
    /// Phase durations of the refit's recorded timeline (`snapshot`,
    /// `adapt`, `refit_with`, `persist`, `install`, …).
    pub refit_phase_micros: Vec<(String, u64)>,
    /// Heap bytes the score probe allocated, summed from the per-stage
    /// `alloc_bytes` notes on its trace.
    pub alloc_per_request_bytes: u64,
    /// The three hottest locks by cumulative wait time from the
    /// server's `/v1/prof` contention profile at the end of the run,
    /// as `(lock, wait_micros)` wait-descending.
    pub top_lock_wait_micros: Vec<(String, u64)>,
}

/// One scenario's full result.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name ("hospital", "census", "food").
    pub name: String,
    /// The generator schema behind it.
    pub schema: String,
    /// Base reference rows.
    pub rows: usize,
    /// Drifted rows streamed in.
    pub drift_rows: usize,
    /// The derived per-scenario seed.
    pub seed: u64,
    /// Deterministic quality metrics.
    pub quality: ScenarioQuality,
    /// Wall-clock numbers.
    pub latency: ScenarioLatency,
}

/// The whole suite's result.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Base seed the per-scenario seeds derive from.
    pub seed: u64,
    /// Base rows per scenario.
    pub rows: usize,
    /// Drifted rows per scenario.
    pub drift_rows: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Per-scenario results, in run order.
    pub scenarios: Vec<ScenarioResult>,
}

/// Run every configured scenario.
pub fn run_suite(cfg: &SuiteConfig) -> Result<SuiteReport, ModelError> {
    let mut scenarios = Vec::with_capacity(cfg.scenarios.len());
    for sc in &cfg.scenarios {
        eprintln!("[holo-scenarios] running {} ({:?})…", sc.name, sc.kind);
        scenarios.push(run_scenario(sc, cfg)?);
    }
    Ok(SuiteReport {
        seed: cfg.seed,
        rows: cfg.rows,
        drift_rows: cfg.drift_rows,
        epochs: cfg.epochs,
        scenarios,
    })
}

/// Rebuild a contiguous row range of `d` as an owned dataset.
fn slice_rows(d: &Dataset, range: std::ops::Range<usize>) -> Dataset {
    let mut b = DatasetBuilder::new(d.schema().clone()).with_capacity(range.len());
    for t in range {
        b.push_row(&d.tuple_values(t));
    }
    b.build()
}

/// `(score, is_error)` pairs for `cells` of `data` under `truth`.
fn scored_cells(scores: &[f64], cells: &[CellId], truth: &GroundTruth) -> Vec<(f64, bool)> {
    scores
        .iter()
        .zip(cells)
        .map(|(&s, &c)| (s, truth.label(c).is_error()))
        .collect()
}

/// Deterministic few-shot labels on the drifted slice: rows carrying at
/// least one injected error first (in row order — the rows an operator
/// spot-checking flagged cells would label), topped up with clean rows.
/// `row` indexes into the *live* reference, where drifted row `t` sits
/// at `base_rows + t`.
fn few_shot_labels(
    drift_clean: &Dataset,
    drift_truth: &GroundTruth,
    base_rows: usize,
    budget: usize,
) -> Vec<RowLabel> {
    let n_attrs = drift_clean.schema().len();
    let has_error =
        |t: usize| (0..n_attrs).any(|a| drift_truth.label(CellId::new(t, a)).is_error());
    let label_of = |t: usize| RowLabel {
        row: base_rows + t,
        clean: drift_clean
            .tuple_values(t)
            .into_iter()
            .map(str::to_owned)
            .collect(),
    };
    let mut out: Vec<RowLabel> = (0..drift_clean.n_tuples())
        .filter(|&t| has_error(t))
        .take(budget)
        .map(label_of)
        .collect();
    if out.len() < budget {
        out.extend(
            (0..drift_clean.n_tuples())
                .filter(|&t| !has_error(t))
                .take(budget - out.len())
                .map(label_of),
        );
    }
    out
}

/// The training configuration for suite fits: the fast test substrate
/// with the suite's epoch count.
fn holo_config(cfg: &SuiteConfig) -> HoloDetectConfig {
    HoloDetectConfig {
        epochs: cfg.epochs,
        ..HoloDetectConfig::fast()
    }
}

/// Unique scratch paths for one scenario's artifact and delta log.
fn scratch_paths(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let stamp = format!(
        "holo-scenarios-{}-{:?}-{name}",
        std::process::id(),
        std::thread::current().id()
    );
    let artifact = dir.join(format!("{stamp}.holoart"));
    let log = dir.join(format!("{stamp}.dlog"));
    let _ = std::fs::remove_file(&artifact);
    let _ = std::fs::remove_file(&log);
    (artifact, log)
}

/// Drive one scenario through the full lifecycle.
pub fn run_scenario(sc: &SchemaScenario, cfg: &SuiteConfig) -> Result<ScenarioResult, ModelError> {
    let seed = cfg.scenario_seed(sc.kind);
    let total = cfg.rows + cfg.drift_rows;

    // One entity world for base and drift: the tail rows reference the
    // same hospitals/households/establishments, so the only thing that
    // changes at the drift boundary is the error channel.
    let (clean_all, constraints) = generate_clean(sc.kind, total, seed);
    let base_clean = slice_rows(&clean_all, 0..cfg.rows);
    let drift_clean = slice_rows(&clean_all, cfg.rows..total);
    let (base_dirty, base_truth) =
        inject_errors(&base_clean, &sc.base_errors, seed.wrapping_add(1));
    let (drift_dirty, drift_truth) =
        inject_errors(&drift_clean, &sc.drift_errors, seed.wrapping_add(2));

    // ---- fit ---------------------------------------------------------
    let split = Split::new(
        &base_dirty,
        SplitConfig {
            train_frac: cfg.train_frac,
            sampling_frac: 0.0,
            seed,
        },
    );
    let train = split.training_set(&base_dirty, &base_truth);
    let fit_clock = Stopwatch::start();
    let fitted = HoloDetect::new(holo_config(cfg)).fit_model(&holo_eval::FitContext {
        dirty: &base_dirty,
        train: &train,
        sampling: None,
        constraints: &constraints,
        seed,
    });
    let fit_secs = fit_clock.elapsed_secs();

    // ---- base quality ------------------------------------------------
    let eval_cells = split.test_cells(&base_dirty);
    let base_scores = fitted.score_batch(&base_dirty, &eval_cells)?;
    let base_scored = scored_cells(&base_scores, &eval_cells, &base_truth);
    let quality_pr_auc = pr_auc(&base_scored);
    let threshold = fitted.threshold();
    let quality_f1 = f1_at_threshold(&base_scored, threshold);
    let (_, quality_best_f1) = best_f1(&base_scored);

    // ---- save / load the artifact ------------------------------------
    let (artifact_path, log_path) = scratch_paths(sc.name);
    fitted.save(&artifact_path)?;
    let load_clock = Stopwatch::start();
    let loaded = FittedHoloDetect::load(&artifact_path)?;
    let artifact_load_ms = load_clock.elapsed_millis();
    // Reload parity: the artifact must score exactly like the fitted
    // model it was saved from.
    let probe_cells: Vec<CellId> = eval_cells.iter().copied().take(64).collect();
    let direct = fitted.score_batch(&base_dirty, &probe_cells)?;
    let reloaded = loaded.score_batch(&base_dirty, &probe_cells)?;
    assert_eq!(
        direct.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        reloaded.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "{}: reloaded artifact must score bitwise-identically",
        sc.name
    );
    drop(fitted);
    drop(loaded);

    // ---- go live behind a real server --------------------------------
    let stream_cfg = StreamConfig {
        min_rows_between_refits: (cfg.drift_rows as u64) / 2,
        baseline_sample_rows: 128,
        refit_label_budget: cfg.label_budget.max(1),
    };
    let live = Arc::new(LiveModel::open(&artifact_path, &log_path, stream_cfg)?);
    let registry = Arc::new(ModelRegistry::new());
    registry.insert_live(sc.name, Arc::clone(&live));
    // The scenario's latency section records where the probe's heap
    // traffic went and which serving locks ran hottest.
    let server = holo_serve::start("127.0.0.1:0", HttpConfig::default(), Arc::clone(&registry))
        .map_err(ModelError::Io)?;
    let addr = server.addr();

    // HTTP probe: a small batch scored over the wire must equal
    // in-process scoring bit for bit.
    let probe_rows = cfg.drift_rows.min(4);
    let probe = slice_rows(&drift_dirty, 0..probe_rows);
    let probe_body = Json::Obj(vec![("rows".into(), rows_json(&probe))]).to_string();
    let score_clock = Stopwatch::start();
    let (status, head, body) = http_full(
        addr,
        "POST",
        &format!("/v1/models/{}/score", sc.name),
        &probe_body,
    );
    let http_score_ms = score_clock.elapsed_millis();
    assert_eq!(status, 200, "{}: HTTP score failed: {body}", sc.name);
    // The server traced the probe: pull its per-stage breakdown back
    // out by the id it echoed.
    let trace_id = header_value(&head, "x-holo-trace")
        .unwrap_or_else(|| panic!("{}: no x-holo-trace header on score", sc.name));
    let (score_stage_micros, alloc_per_request_bytes) = score_stages(addr, &trace_id);
    let http_scores = parse_scores(&body);
    let probe_all: Vec<CellId> = probe.cell_ids().collect();
    let direct = live.score_batch(&probe, &probe_all)?;
    assert_eq!(
        http_scores.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        direct.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "{}: served scores must be bitwise-identical to in-process scoring",
        sc.name
    );

    // ---- stream the drifted tail in ----------------------------------
    let ingest_clock = Stopwatch::start();
    let mut batch_start = 0;
    while batch_start < drift_dirty.n_tuples() {
        let batch_end = (batch_start + 32).min(drift_dirty.n_tuples());
        let batch = slice_rows(&drift_dirty, batch_start..batch_end);
        let body = Json::Obj(vec![("rows".into(), rows_json(&batch))]).to_string();
        let (status, resp) = http(addr, "POST", &format!("/v1/models/{}/rows", sc.name), &body);
        assert_eq!(status, 200, "{}: ingest failed: {resp}", sc.name);
        batch_start = batch_end;
    }
    let ingest_secs = ingest_clock.elapsed_secs();
    let ingest_rows_per_sec = if ingest_secs > 0.0 {
        cfg.drift_rows as f64 / ingest_secs
    } else {
        f64::INFINITY
    };

    // Drift must be visible on the wire. `would_refit` records whether
    // the monitor itself called for a refit — swap-heavy channels drift
    // *quietly* (in-domain updates barely move first-moment aggregates),
    // which is exactly what the shape signals and the quality gate
    // exist to catch.
    let (status, drift_body) = http(addr, "GET", &format!("/v1/models/{}/drift", sc.name), "");
    assert_eq!(status, 200, "{}: drift endpoint failed", sc.name);
    let drift_doc = holo_serve::json::parse(&drift_body).expect("drift body is JSON");
    let would_refit = drift_doc
        .get("would_refit")
        .and_then(Json::as_bool)
        .expect("would_refit field");
    let drift_fired: Vec<String> = drift_doc
        .get("fired")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default();

    // ---- quality under drift, before the refit -----------------------
    let drift_cells: Vec<CellId> = drift_dirty.cell_ids().collect();
    let pre_scores = live.score_batch(&drift_dirty, &drift_cells)?;
    let pre_scored = scored_cells(&pre_scores, &drift_cells, &drift_truth);
    let pr_auc_drift_pre_refit = pr_auc(&pre_scored);

    // ---- few-shot labels on the drifted slice ------------------------
    // The drift report above is captured *before* labels land, so
    // `would_refit`/`fired` reflect the unlabeled detectors. The labels
    // then ride the wire like an operator would post them, and the
    // `/refit` below takes the adaptive path over them.
    let sweep_max = cfg.label_sweep.iter().copied().max().unwrap_or(0);
    let all_labels = few_shot_labels(
        &drift_clean,
        &drift_truth,
        cfg.rows,
        cfg.label_budget.max(sweep_max),
    );
    let posted = all_labels.len().min(cfg.label_budget);
    if posted > 0 {
        let names = drift_clean.schema().names();
        let items = all_labels[..posted]
            .iter()
            .map(|l| {
                Json::Obj(vec![
                    ("row".into(), Json::Num(l.row as f64)),
                    (
                        "values".into(),
                        Json::Obj(
                            names
                                .iter()
                                .zip(&l.clean)
                                .map(|(n, v)| (n.clone(), Json::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let body = Json::Obj(vec![("labels".into(), Json::Arr(items))]).to_string();
        let (status, resp) = http(
            addr,
            "POST",
            &format!("/v1/models/{}/labels", sc.name),
            &body,
        );
        assert_eq!(status, 200, "{}: posting labels failed: {resp}", sc.name);
    }

    // ---- offline label-budget sweep ----------------------------------
    // Each budget refits the same pre-refit state (base artifact plus
    // the drifted tail, reconstructed via the delta path) with the
    // first `b` labels, then scores the drifted rows. Budget 0 is the
    // label-free retrain — the floor the adaptation must beat.
    let mut label_sweep = Vec::with_capacity(cfg.label_sweep.len());
    for &b in &cfg.label_sweep {
        let mut pre = FittedHoloDetect::load(&artifact_path)?;
        for t in 0..drift_dirty.n_tuples() {
            pre.apply_delta(&DeltaOp::Append {
                values: drift_dirty
                    .tuple_values(t)
                    .into_iter()
                    .map(str::to_owned)
                    .collect(),
            })?;
        }
        let adapt = AdaptiveRefit::new(AdaptConfig {
            max_labels: b,
            seed,
        });
        let take = b.min(all_labels.len());
        let (refitted, _) = adapt.refit(pre, &all_labels[..take])?;
        let scores = refitted.score_batch(&drift_dirty, &drift_cells)?;
        let scored = scored_cells(&scores, &drift_cells, &drift_truth);
        label_sweep.push(SweepPoint {
            labels: take,
            pr_auc: pr_auc(&scored),
            f1: f1_at_threshold(&scored, refitted.threshold()),
        });
    }

    // ---- drift-triggered refit over the wire -------------------------
    let refit_clock = Stopwatch::start();
    let (status, refit_body) = http(addr, "POST", &format!("/v1/models/{}/refit", sc.name), "");
    let refit_secs = refit_clock.elapsed_secs();
    assert_eq!(status, 200, "{}: refit failed: {refit_body}", sc.name);
    assert!(
        live.generation() >= 1,
        "{}: refit must hot-swap a new generation",
        sc.name
    );
    let refit_phase_micros = refit_phases(addr, sc.name);
    let top_lock_wait_micros = top_lock_waits(addr, 3);

    // ---- quality under drift, after the refit ------------------------
    let post_scores = live.score_batch(&drift_dirty, &drift_cells)?;
    let post_scored = scored_cells(&post_scores, &drift_cells, &drift_truth);
    let pr_auc_drift_post_refit = pr_auc(&post_scored);
    let f1_drift_post_refit = f1_at_threshold(&post_scored, live.default_threshold());

    server.shutdown();
    let _ = std::fs::remove_file(&artifact_path);
    let _ = std::fs::remove_file(&log_path);

    Ok(ScenarioResult {
        name: sc.name.to_owned(),
        schema: sc.kind.name().to_owned(),
        rows: cfg.rows,
        drift_rows: cfg.drift_rows,
        seed,
        quality: ScenarioQuality {
            pr_auc: quality_pr_auc,
            f1: quality_f1,
            threshold,
            best_f1: quality_best_f1,
            pr_auc_drift_pre_refit,
            pr_auc_drift_post_refit,
            f1_drift_post_refit,
            would_refit,
            n_base_errors: base_truth.n_errors(),
            n_drift_errors: drift_truth.n_errors(),
            labels_used: posted,
            drift_fired,
            label_sweep,
        },
        latency: ScenarioLatency {
            fit_secs,
            artifact_load_ms,
            http_score_ms,
            ingest_rows_per_sec,
            refit_secs,
            score_stage_micros,
            refit_phase_micros,
            alloc_per_request_bytes,
            top_lock_wait_micros,
        },
    })
}

// ------------------------------------------------------------- raw http

/// One raw HTTP/1.1 round-trip on a fresh connection, returning the
/// status, the raw header block, and the body.
fn http_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect to scenario server");
    s.set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set read timeout");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: scenarios\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
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

/// The score probe's per-stage breakdown, pulled from the server's own
/// trace of the request (`x-holo-trace` → `GET /v1/trace/{id}`): every
/// top-level span of the tree as `(stage, micros)` in span order, plus
/// the request's heap traffic summed from the per-stage `alloc_bytes`
/// notes the server's stages attached to those spans.
fn score_stages(addr: SocketAddr, trace_id: &str) -> (Vec<(String, u64)>, u64) {
    let (status, body) = http(addr, "GET", &format!("/v1/trace/{trace_id}"), "");
    assert_eq!(status, 200, "trace {trace_id} must be retained: {body}");
    let doc = holo_serve::json::parse(&body).expect("trace body is JSON");
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans array");
    let stages = spans
        .iter()
        .filter(|s| s.get("parent").and_then(Json::as_f64) == Some(0.0))
        .map(|s| {
            (
                s.get("name").and_then(Json::as_str).expect("name").into(),
                s.get("duration_micros")
                    .and_then(Json::as_f64)
                    .expect("duration") as u64,
            )
        })
        .collect();
    let alloc_bytes = spans
        .iter()
        .filter_map(|s| {
            s.get("notes")
                .and_then(|n| n.get("alloc_bytes"))
                .and_then(Json::as_f64)
        })
        .sum::<f64>() as u64;
    (stages, alloc_bytes)
}

/// The `n` hottest locks by cumulative wait from `GET /v1/prof`
/// (served wait-descending) as `(lock, wait_micros)`.
fn top_lock_waits(addr: SocketAddr, n: usize) -> Vec<(String, u64)> {
    let (status, body) = http(addr, "GET", "/v1/prof", "");
    assert_eq!(status, 200, "prof endpoint failed: {body}");
    let doc = holo_serve::json::parse(&body).expect("prof body is JSON");
    doc.get("locks")
        .and_then(Json::as_arr)
        .expect("locks array")
        .iter()
        .take(n)
        .map(|l| {
            (
                l.get("lock").and_then(Json::as_str).expect("lock").into(),
                l.get("wait_micros")
                    .and_then(Json::as_f64)
                    .expect("wait_micros") as u64,
            )
        })
        .collect()
}

/// The newest refit timeline's `(phase, micros)` pairs from
/// `GET /v1/models/{name}/refits`.
fn refit_phases(addr: SocketAddr, name: &str) -> Vec<(String, u64)> {
    let (status, body) = http(addr, "GET", &format!("/v1/models/{name}/refits"), "");
    assert_eq!(status, 200, "{name}: refits endpoint failed: {body}");
    let doc = holo_serve::json::parse(&body).expect("refits body is JSON");
    let refits = doc.get("refits").and_then(Json::as_arr).expect("refits");
    assert!(!refits.is_empty(), "{name}: refit left no timeline: {body}");
    refits[0]
        .get("phases")
        .and_then(Json::as_arr)
        .expect("phases")
        .iter()
        .map(|p| {
            (
                p.get("phase").and_then(Json::as_str).expect("phase").into(),
                p.get("micros").and_then(Json::as_f64).expect("micros") as u64,
            )
        })
        .collect()
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
                    .map(|(a, n)| (n.clone(), Json::Str(d.value(t, a).to_owned())))
                    .collect(),
            )
        })
        .collect();
    Json::Arr(rows)
}

/// The `"scores"` array of a score response.
fn parse_scores(body: &str) -> Vec<f64> {
    let doc = holo_serve::json::parse(body).expect("score body is JSON");
    doc.get("scores")
        .and_then(Json::as_arr)
        .expect("scores array")
        .iter()
        .map(|v| v.as_f64().expect("score is a number"))
        .collect()
}
