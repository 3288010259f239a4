//! The live model: a served artifact plus the machinery that keeps it
//! current as reference data streams in.
//!
//! ## Concurrency model
//!
//! * **score** — read lock on the model state; unbounded concurrency.
//! * **ingest** — write lock for the duration of one batch: ops are
//!   appended durably to the delta log (group commit), applied via
//!   `FittedHoloDetect::apply_delta`, and the new rows' drift
//!   statistics measured. Bounded by batch size, never by model
//!   training.
//! * **refit** — the expensive part (`refit_with`: re-train classifier,
//!   re-calibrate, re-tune the threshold) runs on a *snapshot* taken
//!   through an in-memory save/load under a read lock, entirely outside
//!   the state lock. The refitted artifact is persisted
//!   (temp-file + rename), the log compacted to its epoch, and the
//!   result installed: the ops that arrived mid-refit are replayed and
//!   the drift baseline anchored off the state lock, then a brief write
//!   lock catches up on any later ops and swaps model, baseline and
//!   generation together — so a refit never loses deltas, never blocks
//!   scoring beyond the final swap, and a score never runs on a model
//!   newer than the generation it can observe.
//!
//! Lock order (outermost first):
//! `refit_lock → state → log → drift → labels → timelines`. Any path
//! may take a suffix of that chain, never a prefix out of order.
//!
//! Every lock in the chain is a contention-instrumented
//! [`holo_prof::ProfMutex`] / [`holo_prof::ProfRwLock`] registered
//! under its field name, so `/v1/prof` can show (for example) scoring
//! reads stalling behind ingest writes on `state`. Instrumentation
//! changes nothing about ordering or poisoning semantics.
//!
//! ## Adaptation
//!
//! Labels posted through [`LiveModel::add_labels`] serve twice: each
//! labeled cell is immediately spot-checked against the current model
//! (feeding the probe drift signal), and the labels are buffered so the
//! next refit runs the few-shot adaptive path —
//! `holo_adapt::AdaptiveRefit` learns the drifted error channel from
//! the labels' `(clean, observed)` pairs, amplifies it, and extends the
//! training set — instead of retraining on the stale fit-time examples
//! alone. Labels are only drained once the refit that consumed them
//! succeeds.
//!
//! ## Durability
//!
//! The invariant is `artifact ⊕ log = state`: the artifact file always
//! corresponds to the log's compaction horizon. [`LiveModel::open`]
//! restores a crashed process by loading the artifact and replaying the
//! log tail — landing on the exact epoch (and, by the parity bar, the
//! exact scores) the process died with.

use crate::drift::{DriftMonitor, DriftReport};
use holo_adapt::{AdaptConfig, AdaptiveRefit, RowLabel};
use holo_data::{binio, CellId, Dataset, DeltaLog, DeltaOp, Schema};
use holo_eval::{ModelError, TrainedModel};
use holo_prof::{sat_add, ProfMutex, ProfRwLock};
use holo_trace::{stage, ActiveTrace, RefitTimeline, Stopwatch, TimelineRing};
use holodetect::FittedHoloDetect;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;

/// The typed refusal mutating paths answer when a lock was poisoned by
/// a panic elsewhere: half-applied state must not be mutated further.
/// (Read-only paths *recover* instead — see the accessors below — so a
/// panicked ingest can never take scoring availability down with it.)
fn poisoned(what: &str) -> ModelError {
    ModelError::Format(format!(
        "{what} lock was poisoned by an earlier panic; refusing to mutate live state"
    ))
}

/// Magic of the epoch-stamped artifact wrapper refits write: the epoch
/// travels *inside* the same atomically renamed file as the model, so
/// no crash can separate them.
const LIVE_MAGIC: &[u8; 8] = b"HOLOLIVE";
/// Wrapper format version.
const LIVE_VERSION: u32 = 1;

/// Refit timelines retained per live model (newest win; the ring is
/// what `GET /v1/models/{name}/refits` pages through).
const REFIT_TIMELINE_CAP: usize = 32;

/// Pending labels the buffer holds before refusing more (back pressure;
/// a refit drains what it consumes).
const MAX_LABEL_BUFFER: usize = 1024;

/// Atomically persist `model` stamped with the epoch it corresponds to
/// (temp file + rename). The file starts with [`LIVE_MAGIC`]; a plain
/// `FittedHoloDetect::save` artifact remains readable everywhere a
/// stamped one is (it is taken to sit at the log's compaction horizon).
fn write_epoch_artifact(
    path: &Path,
    model: &FittedHoloDetect,
    epoch: u64,
) -> Result<(), ModelError> {
    let tmp = path.with_extension("holoart.tmp");
    {
        let file = std::fs::File::create(&tmp)?;
        let mut w = std::io::BufWriter::new(file);
        w.write_all(LIVE_MAGIC)?;
        binio::write_u32(&mut w, LIVE_VERSION)?;
        binio::write_u64(&mut w, epoch)?;
        model.save_to(&mut w)?;
        w.flush()?;
        w.get_ref().sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Load an artifact file that is either a plain `.holoart`
/// (`FittedHoloDetect::save`) or the epoch-stamped wrapper refits
/// write. Returns the model and, for stamped files, its epoch.
fn read_epoch_artifact(path: &Path) -> Result<(FittedHoloDetect, Option<u64>), ModelError> {
    let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == LIVE_MAGIC {
        let version = binio::read_u32(&mut r)?;
        if version != LIVE_VERSION {
            return Err(ModelError::Format(format!(
                "unsupported live artifact version {version}"
            )));
        }
        let epoch = binio::read_u64(&mut r)?;
        let model = FittedHoloDetect::load_from(&mut r)?;
        Ok((model, Some(epoch)))
    } else {
        Ok((FittedHoloDetect::load(path)?, None))
    }
}

/// Streaming knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Don't consider a refit before this many rows arrived since the
    /// last one (keeps a handful of unlucky early rows from triggering
    /// an expensive retrain).
    pub min_rows_between_refits: u64,
    /// Rows sampled (evenly strided) from the reference when anchoring
    /// the baseline score histograms.
    pub baseline_sample_rows: usize,
    /// Labels one adaptive refit consumes at most (the few-shot
    /// budget — HoloDetect's §5 regime).
    pub refit_label_budget: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            min_rows_between_refits: 64,
            baseline_sample_rows: 256,
            refit_label_budget: 20,
        }
    }
}

/// What one ingest call did.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Rows appended.
    pub appended: usize,
    /// The epoch after the batch.
    pub epoch: u64,
}

struct LiveState {
    model: FittedHoloDetect,
    epoch: u64,
}

/// A served model with streaming maintenance. See the module docs.
pub struct LiveModel {
    path: PathBuf,
    schema: Schema,
    cfg: StreamConfig,
    state: ProfRwLock<LiveState>,
    log: ProfMutex<DeltaLog>,
    drift: ProfMutex<DriftMonitor>,
    /// Serializes refits (scheduler vs. the `/refit` endpoint).
    refit_lock: ProfMutex<()>,
    /// Pending operator labels, oldest first — the few-shot budget the
    /// next adaptive refit draws from.
    labels: ProfMutex<Vec<RowLabel>>,
    /// Phase-attributed timelines of the last few refits (what
    /// `GET /v1/models/{name}/refits` serves). Last in the lock order.
    timelines: ProfMutex<TimelineRing>,
    /// Bumped on every install (hot swap).
    generation: AtomicU64,
    rows_ingested: AtomicU64,
    refits: AtomicU64,
    labels_received: AtomicU64,
    labels_consumed: AtomicU64,
}

impl LiveModel {
    /// Wrap a loaded artifact and its delta log. The artifact must
    /// correspond to the log's compaction horizon (`base_epoch`); any
    /// log tail beyond it is replayed immediately (crash recovery).
    ///
    /// # Errors
    /// [`ModelError::Degenerate`] for an artifact with no fitted state
    /// (streaming needs a schema and a reference to maintain);
    /// [`ModelError::Format`] when the log's schema does not match.
    fn new(
        mut model: FittedHoloDetect,
        log: DeltaLog,
        artifact_path: &Path,
        cfg: StreamConfig,
    ) -> Result<Self, ModelError> {
        let Some(artifact) = model.artifact() else {
            return Err(ModelError::Degenerate {
                method: model.method().to_owned(),
            });
        };
        let schema = artifact.reference().schema().clone();
        if *log.schema() != schema {
            return Err(ModelError::Format(format!(
                "delta log schema {} does not match artifact schema {}",
                log.schema(),
                schema
            )));
        }
        for op in log.ops() {
            model.apply_delta(op)?;
        }
        let epoch = log.epoch();
        let drift = DriftMonitor::new_anchored(&model, cfg.baseline_sample_rows)?;
        Ok(LiveModel {
            path: artifact_path.to_path_buf(),
            schema,
            cfg,
            state: ProfRwLock::new("state", LiveState { model, epoch }),
            log: ProfMutex::new("log", log),
            drift: ProfMutex::new("drift", drift),
            refit_lock: ProfMutex::new("refit_lock", ()),
            labels: ProfMutex::new("labels", Vec::new()),
            timelines: ProfMutex::new("timelines", TimelineRing::new(REFIT_TIMELINE_CAP)),
            generation: AtomicU64::new(0),
            rows_ingested: AtomicU64::new(0),
            refits: AtomicU64::new(0),
            labels_received: AtomicU64::new(0),
            labels_consumed: AtomicU64::new(0),
        })
    }

    /// Load the artifact at `artifact_path` (plain or epoch-stamped),
    /// open (or create) the delta log at `log_path`, replay any tail,
    /// and go live.
    ///
    /// A stamped artifact whose epoch is *ahead* of the log's
    /// compaction horizon heals the log first — that is the crash
    /// window between a refit's atomic artifact rename and its log
    /// compaction, and dropping the already-baked ops (instead of
    /// replaying them twice) is exactly what the interrupted compaction
    /// would have done.
    pub fn open(
        artifact_path: &Path,
        log_path: &Path,
        cfg: StreamConfig,
    ) -> Result<Self, ModelError> {
        let (model, file_epoch) = read_epoch_artifact(artifact_path)?;
        let Some(artifact) = model.artifact() else {
            return Err(ModelError::Degenerate {
                method: model.method().to_owned(),
            });
        };
        let schema = artifact.reference().schema().clone();
        let mut log = DeltaLog::open(log_path, schema)?;
        let artifact_epoch = file_epoch.unwrap_or_else(|| log.base_epoch());
        if artifact_epoch < log.base_epoch() {
            return Err(ModelError::Format(format!(
                "delta log was compacted past the artifact (artifact at epoch \
                 {artifact_epoch}, log horizon {})",
                log.base_epoch()
            )));
        }
        if artifact_epoch > log.epoch() {
            return Err(ModelError::Format(format!(
                "artifact (epoch {artifact_epoch}) is ahead of the delta log \
                 (epoch {})",
                log.epoch()
            )));
        }
        log.compact_through(artifact_epoch)?;
        Self::new(model, log, artifact_path, cfg)
    }

    /// The schema ingested rows must match.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The artifact file refits persist to (and reloads come from).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The streaming knobs.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The current epoch (ops applied since the original fit).
    pub fn epoch(&self) -> u64 {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .epoch
    }

    /// Hot-swap count: 0 until the first install.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Rows ingested over this process's lifetime.
    pub fn rows_ingested(&self) -> u64 {
        self.rows_ingested.load(Ordering::Relaxed)
    }

    /// Completed refits over this process's lifetime.
    pub fn refits_total(&self) -> u64 {
        self.refits.load(Ordering::Relaxed)
    }

    /// The model's method name (for logs).
    pub fn method(&self) -> &'static str {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .model
            .method()
    }

    /// The current decision threshold.
    pub fn default_threshold(&self) -> f64 {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .model
            .threshold()
    }

    /// Lifetime nn-cache counters of the currently installed model's
    /// featurizer (reset by hot swaps, which install a fresh
    /// featurizer). For `/metrics` export.
    pub fn nn_cache_stats(&self) -> holodetect::CacheStats {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .model
            .nn_cache_stats()
    }

    /// Score cells of `data` against the current maintained state.
    pub fn score_batch(&self, data: &Dataset, cells: &[CellId]) -> Result<Vec<f64>, ModelError> {
        self.score_with_generation(data, cells)
            .map(|(scores, _, _)| scores)
    }

    /// [`LiveModel::score_batch`] plus the generation and decision
    /// threshold of the model that produced the scores. All three are
    /// read under one state read lock, and installs swap the model and
    /// bump the generation under the write lock, so a hot swap can never
    /// pair old-model scores with the new generation or threshold.
    pub fn score_with_generation(
        &self,
        data: &Dataset,
        cells: &[CellId],
    ) -> Result<(Vec<f64>, u64, f64), ModelError> {
        let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
        let scores = st.model.score_batch(data, cells)?;
        Ok((scores, self.generation(), st.model.threshold()))
    }

    /// Append validated rows (values in schema order) to the reference:
    /// durably logged, incrementally applied, drift-measured. Returns
    /// the new epoch. The three steps run as the `log-append`,
    /// `apply-delta` and `drift-update` stages.
    pub fn ingest_rows(&self, rows: Vec<Vec<String>>) -> Result<IngestReport, ModelError> {
        if rows.is_empty() {
            return Ok(IngestReport {
                appended: 0,
                epoch: self.epoch(),
            });
        }
        for row in &rows {
            if row.len() != self.schema.len() {
                return Err(ModelError::Format(format!(
                    "ingest row arity {} does not match schema arity {}",
                    row.len(),
                    self.schema.len()
                )));
            }
        }
        let appended = rows.len();
        let mut st = self.state.write().map_err(|_| poisoned("live state"))?;
        // Log first (durability), group-committed; then apply.
        let append = stage("log-append");
        let epoch = {
            let mut log = self.log.lock().map_err(|_| poisoned("delta log"))?;
            for row in &rows {
                log.append(DeltaOp::Append {
                    values: row.clone(),
                })?;
            }
            log.flush()?;
            log.epoch()
        };
        drop(append);
        let Some(artifact) = st.model.artifact() else {
            return Err(ModelError::Degenerate {
                method: st.model.method().to_owned(),
            });
        };
        let first_new = artifact.reference().n_tuples();
        let apply = stage("apply-delta");
        for row in rows {
            st.model.apply_delta(&DeltaOp::Append { values: row })?;
        }
        st.epoch = epoch;
        drop(st);
        drop(apply);

        // The model's own scores for the freshly appended rows, computed
        // under a *read* lock so concurrent scorers are never blocked on
        // this bookkeeping. The session is append-only, so rows
        // `first_new..` stay addressable even if more batches land in
        // between (their scores are folded by their own calls).
        let drift_update = stage("drift-update");
        let scores = {
            let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
            let Some(artifact) = st.model.artifact() else {
                return Err(ModelError::Degenerate {
                    method: st.model.method().to_owned(),
                });
            };
            let reference = artifact.reference();
            let na = reference.n_attrs();
            let cells: Vec<CellId> = (first_new..first_new + appended)
                .flat_map(|t| (0..na).map(move |a| CellId::new(t, a)))
                .collect();
            st.model.score_batch(reference, &cells)?
        };
        // Recover even though this mutates: the rows are already durably
        // logged and applied, so failing the whole ingest over advisory
        // drift bookkeeping would mislead the caller. A NaN score still
        // errors out (`record_batch`): that is model corruption, not
        // advisory bookkeeping.
        self.drift
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_batch(appended as u64, &scores)?;
        drop(drift_update);
        sat_add(&self.rows_ingested, appended as u64);
        Ok(IngestReport { appended, epoch })
    }

    /// The current drift report: every signal's value and verdict, read
    /// under one monitor lock. Build a response from one report, so its
    /// `fired` list, per-signal flags and refit verdict always agree.
    pub fn drift_report(&self) -> DriftReport {
        self.drift
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .report()
    }

    /// `true` when the scheduler should refit: enough rows since the
    /// last refit and at least one drift signal past its threshold.
    pub fn should_refit(&self) -> bool {
        self.drift_report()
            .would_refit(self.cfg.min_rows_between_refits)
    }

    /// Operator labels waiting for the next adaptive refit.
    pub fn labels_pending(&self) -> usize {
        self.labels
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Labels accepted over this process's lifetime.
    pub fn labels_received(&self) -> u64 {
        self.labels_received.load(Ordering::Relaxed)
    }

    /// Labels consumed by completed refits over this process's lifetime.
    pub fn labels_consumed(&self) -> u64 {
        self.labels_consumed.load(Ordering::Relaxed)
    }

    /// Accept operator labels on the maintained reference: validate
    /// them against the current state, spot-check every labeled cell
    /// against the model's prediction (the probe drift signal), and
    /// buffer them for the next adaptive refit. Returns how many labels
    /// were accepted (all of them, or a typed error — never a silent
    /// partial accept).
    ///
    /// # Errors
    /// [`ModelError::CellOutOfBounds`] / [`ModelError::Format`] for a
    /// label addressing outside the reference or with the wrong arity;
    /// [`ModelError::Format`] when the buffer is full (back pressure —
    /// refit to drain it).
    pub fn add_labels(&self, new_labels: Vec<RowLabel>) -> Result<usize, ModelError> {
        if new_labels.is_empty() {
            return Ok(0);
        }
        {
            let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
            let Some(artifact) = st.model.artifact() else {
                return Err(ModelError::Degenerate {
                    method: st.model.method().to_owned(),
                });
            };
            let reference = artifact.reference();
            let (nt, na) = (reference.n_tuples(), reference.n_attrs());
            for label in &new_labels {
                if label.row >= nt {
                    return Err(ModelError::CellOutOfBounds {
                        cell: CellId::new(label.row, 0),
                        n_tuples: nt,
                        n_attrs: na,
                    });
                }
                if label.clean.len() != na {
                    return Err(ModelError::Format(format!(
                        "label for row {} has arity {}, schema has {}",
                        label.row,
                        label.clean.len(),
                        na
                    )));
                }
            }
            // Every label doubles as a spot check of the current model.
            let mut d = self.drift.lock().unwrap_or_else(PoisonError::into_inner);
            AdaptiveRefit::default().probe(&st.model, &new_labels, d.probes_mut())?;
        }
        let accepted = new_labels.len();
        {
            let mut buf = self.labels.lock().map_err(|_| poisoned("label buffer"))?;
            if buf.len().saturating_add(accepted) > MAX_LABEL_BUFFER {
                return Err(ModelError::Format(format!(
                    "label buffer full ({} pending, capacity {MAX_LABEL_BUFFER}); \
                     refit to drain it",
                    buf.len()
                )));
            }
            buf.extend(new_labels);
        }
        sat_add(&self.labels_received, accepted as u64);
        Ok(accepted)
    }

    /// Refit on a snapshot of the current state — classifier,
    /// calibration, and threshold re-learned over the maintained
    /// representation — persist the result atomically to the artifact
    /// path, and compact the log to the snapshot's epoch. Scoring and
    /// ingest proceed throughout: the only state lock taken is a read
    /// lock for the in-memory snapshot.
    ///
    /// When operator labels are pending ([`LiveModel::add_labels`]),
    /// this is the *adaptive* path: up to `refit_label_budget` labels
    /// are turned into drifted-channel training examples by
    /// `holo_adapt::AdaptiveRefit` (learn the channel from the labels'
    /// error pairs, amplify by augmentation) before the retrain — the
    /// only way a refit recovers from a changed error channel. Consumed
    /// labels are drained only after the refit succeeds, so a failed
    /// refit loses nothing. With no labels pending this degrades to the
    /// label-free `refit_with(vec![])`.
    ///
    /// The refitted artifact is *not* installed; hot-swapping happens
    /// through [`LiveModel::reload_install`] (or [`LiveModel::refit_now`],
    /// which runs both), which replays any ops that arrived mid-refit.
    pub fn refit_to_disk(&self) -> Result<u64, ModelError> {
        self.refit_to_disk_as("manual")
    }

    /// [`LiveModel::refit_to_disk`] with an explicit trigger label
    /// (`"manual"` for operator requests, `"drift"` from the
    /// scheduler) — the label the refit's timeline records, so
    /// `GET /v1/models/{name}/refits` can tell drift-driven retrains
    /// from operator-driven ones. The refit runs under its own trace
    /// (shadowing the caller's): its `snapshot`, `adapt`, `refit_with`
    /// and `persist` stages become the timeline's phases.
    ///
    /// # Errors
    /// Exactly those of [`LiveModel::refit_to_disk`].
    pub fn refit_to_disk_as(&self, trigger: &'static str) -> Result<u64, ModelError> {
        // A poisoned refit lock guards no data (`Mutex<()>`) — recover.
        let _serialized = self
            .refit_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let trace = ActiveTrace::begin("refit", Stopwatch::start());
        let snapshot_stage = stage("snapshot");
        let (copy, base_epoch, label_snapshot) = self.snapshot()?;
        drop(snapshot_stage);
        let adapt = AdaptiveRefit::new(AdaptConfig {
            max_labels: self.cfg.refit_label_budget,
            ..AdaptConfig::default()
        });
        let (refitted, adapt_report, _) = adapt.refit_timed(copy, &label_snapshot)?;
        // The epoch rides inside the atomically renamed file, so a
        // crash between this rename and the compaction below cannot
        // desynchronize them: `open` sees artifact-epoch > log-horizon
        // and finishes the compaction instead of double-replaying.
        let persist = stage("persist");
        write_epoch_artifact(&self.path, &refitted, base_epoch)?;
        {
            let mut log = self.log.lock().map_err(|_| poisoned("delta log"))?;
            log.compact_through(base_epoch)?;
        }
        drop(persist);
        // The refit is durable — now (and only now) drain the labels it
        // consumed. New labels appended mid-refit sit behind the
        // snapshot prefix and survive for the next round.
        {
            let mut buf = self.labels.lock().map_err(|_| poisoned("label buffer"))?;
            let consumed = adapt_report.labeled_rows.min(buf.len());
            buf.drain(..consumed);
            sat_add(&self.labels_consumed, consumed as u64);
        }
        sat_add(&self.refits, 1);
        let timeline = RefitTimeline::new(trigger, base_epoch, trace.finish());
        self.timelines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(timeline);
        Ok(base_epoch)
    }

    /// What a refit trains from: a copy of the model (through an
    /// in-memory save/load), its epoch, and the first
    /// `refit_label_budget` buffered labels. The labels are copied while
    /// the state read lock is still held (state before labels, per the
    /// lock order): labels are validated against the reference at add
    /// time and the reference only grows, so every label buffered by
    /// then addresses a row inside this snapshot. Copying them after
    /// releasing the lock would let an ingest plus a label on the new
    /// row land in between, and the refit would fail on a label past
    /// the snapshot's last row.
    fn snapshot(&self) -> Result<(FittedHoloDetect, u64, Vec<RowLabel>), ModelError> {
        let (bytes, epoch, labels) = {
            let st = self.state.read().unwrap_or_else(PoisonError::into_inner);
            let mut bytes = Vec::new();
            st.model.save_to(&mut bytes)?;
            let buf = self.labels.lock().map_err(|_| poisoned("label buffer"))?;
            let labels: Vec<RowLabel> = buf
                .iter()
                .take(self.cfg.refit_label_budget)
                .cloned()
                .collect();
            (bytes, st.epoch, labels)
        };
        let copy = FittedHoloDetect::load_from(&mut std::io::Cursor::new(bytes))?;
        Ok((copy, epoch, labels))
    }

    /// The newest `k` refit timelines, most recent first.
    pub fn refit_timelines(&self, k: usize) -> Vec<RefitTimeline> {
        self.timelines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .last(k)
    }

    /// Reload the artifact file (plain or epoch-stamped) and install
    /// it — the path every registry reload and drift-triggered hot swap
    /// goes through. Returns the new generation.
    pub fn reload_install(&self) -> Result<u64, ModelError> {
        let (loaded, file_epoch) = read_epoch_artifact(&self.path)?;
        self.install_at(loaded, file_epoch)
    }

    /// Install `loaded`, read from an artifact file stamped `file_epoch`
    /// (`None` for a plain artifact, which sits at the log's compaction
    /// horizon): replay the log tail onto it, anchor a drift baseline on
    /// it, then swap in model, baseline and a bumped generation under
    /// one brief write lock. Returns the new generation.
    ///
    /// # Errors
    /// [`ModelError::Degenerate`] for an artifact with no fitted state;
    /// [`ModelError::Format`] for a schema mismatch, an artifact epoch
    /// outside the log's range, or a log compacted past the replayed
    /// epoch while the install ran (a newer refit artifact exists:
    /// reload that one).
    fn install_at(
        &self,
        mut loaded: FittedHoloDetect,
        file_epoch: Option<u64>,
    ) -> Result<u64, ModelError> {
        let install = stage("install");
        let Some(artifact) = loaded.artifact() else {
            return Err(ModelError::Degenerate {
                method: loaded.method().to_owned(),
            });
        };
        if *artifact.reference().schema() != self.schema {
            return Err(ModelError::Format(
                "installed artifact schema does not match the live model".into(),
            ));
        }
        // Replay the log tail and anchor the drift baseline on the
        // incoming model before it goes live, holding no state lock: the
        // anchor scores a reference sample, and holding the write lock
        // for it would block every concurrent scorer mid-swap.
        let (artifact_epoch, tail, replayed_epoch) = {
            let log = self.log.lock().map_err(|_| poisoned("delta log"))?;
            let artifact_epoch = file_epoch.unwrap_or_else(|| log.base_epoch());
            if artifact_epoch < log.base_epoch() || artifact_epoch > log.epoch() {
                return Err(ModelError::Format(format!(
                    "artifact epoch {artifact_epoch} is outside the log's \
                     range [{}, {}]",
                    log.base_epoch(),
                    log.epoch()
                )));
            }
            (
                artifact_epoch,
                log.ops_after(artifact_epoch).to_vec(),
                log.epoch(),
            )
        };
        for op in &tail {
            loaded.apply_delta(op)?;
        }
        let anchored = DriftMonitor::new_anchored(&loaded, self.cfg.baseline_sample_rows)?;
        // One write-locked step catches up on ops ingested since the
        // replay, then publishes model, drift baseline and generation
        // together: a scorer that reads N's model sees generation N, and
        // anyone observing generation N also observes N's drift state
        // (the scheduler's post-swap check relies on it).
        let generation = {
            let mut st = self.state.write().map_err(|_| poisoned("live state"))?;
            let log = self.log.lock().map_err(|_| poisoned("delta log"))?;
            if replayed_epoch < log.base_epoch() {
                return Err(ModelError::Format(format!(
                    "the log was compacted through epoch {} while this install \
                     replayed to epoch {replayed_epoch}; reload the newer artifact",
                    log.base_epoch()
                )));
            }
            for op in log.ops_after(replayed_epoch) {
                loaded.apply_delta(op)?;
            }
            st.model = loaded;
            st.epoch = log.epoch();
            // Whole-value overwrite, so recovery is safe even on this write.
            *self.drift.lock().unwrap_or_else(PoisonError::into_inner) = anchored;
            match self
                .generation
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |g| {
                    Some(g.saturating_add(1))
                }) {
                Ok(prev) | Err(prev) => prev.saturating_add(1),
            }
        };
        // Close the matching refit timeline, if one is still retained —
        // a plain-artifact install (epoch at the log horizon with no
        // pending refit) simply finds nothing to mark.
        let install_micros = install.end();
        self.timelines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .mark_installed(artifact_epoch, install_micros);
        Ok(generation)
    }

    /// [`LiveModel::refit_to_disk`] followed by a reload-and-install
    /// from the artifact file — the registry-free path (library users,
    /// tests, the CLI's standalone mode). Returns the new generation.
    pub fn refit_now(&self) -> Result<u64, ModelError> {
        self.refit_to_disk()?;
        self.reload_install()
    }
}

impl DriftMonitor {
    /// A monitor anchored at `model`'s current state: per-attribute
    /// score histograms over an evenly strided sample of up to
    /// `sample_rows` reference rows.
    ///
    /// # Errors
    /// [`ModelError::Format`] if the model produces a NaN score over
    /// its own reference (model corruption).
    pub fn new_anchored(
        model: &FittedHoloDetect,
        sample_rows: usize,
    ) -> Result<DriftMonitor, ModelError> {
        let n_attrs = model.artifact().map_or(0, |a| a.reference().n_attrs());
        let mut m = DriftMonitor::new(n_attrs);
        m.record_baseline_scores(&baseline_scores(model, sample_rows))?;
        Ok(m)
    }
}

/// Scores of every cell of up to `sample_rows` evenly strided reference
/// rows, in row-major `(tuple, attr)` order (the layout the drift
/// histograms expect). Empty for a degenerate model or empty reference.
fn baseline_scores(model: &FittedHoloDetect, sample_rows: usize) -> Vec<f64> {
    let Some(artifact) = model.artifact() else {
        return Vec::new();
    };
    let reference = artifact.reference();
    let nt = reference.n_tuples();
    if nt == 0 || sample_rows == 0 {
        return Vec::new();
    }
    let stride = nt.div_ceil(sample_rows).max(1);
    let na = reference.n_attrs();
    let cells: Vec<CellId> = (0..nt)
        .step_by(stride)
        .flat_map(|t| (0..na).map(move |a| CellId::new(t, a)))
        .collect();
    model.score_batch(reference, &cells).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_adapt::DriftSignal;
    use holo_data::{DatasetBuilder, GroundTruth};
    use holo_eval::FitContext;
    use holodetect::{HoloDetect, HoloDetectConfig};

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

    fn fit_artifact(tag: &str) -> (PathBuf, PathBuf) {
        let (dirty, truth) = world();
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
        let dir = std::env::temp_dir();
        let stamp = format!(
            "{}-{:?}-{tag}",
            std::process::id(),
            std::thread::current().id()
        );
        let artifact = dir.join(format!("holo-stream-{stamp}.holoart"));
        let log = dir.join(format!("holo-stream-{stamp}.dlog"));
        std::fs::remove_file(&log).ok();
        model.save(&artifact).expect("save artifact");
        (artifact, log)
    }

    fn cleanup(paths: &[&Path]) {
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    fn some_rows(n: usize, tag: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| vec![format!("606{:02}", (tag + i) % 100), "Chicago".to_string()])
            .collect()
    }

    #[test]
    fn ingest_advances_epoch_and_scores_see_it() {
        let (artifact, log) = fit_artifact("ingest");
        let live = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
        assert_eq!(live.epoch(), 0);

        // A probe whose zip is unseen at fit time.
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        b.push_row(&["60699", "Chicago"]);
        let probe = b.build();
        let cells = vec![CellId::new(0, 0)];
        let before = live.score_batch(&probe, &cells).unwrap()[0];

        let report = live
            .ingest_rows(vec![vec!["60699".into(), "Chicago".into()]; 10])
            .unwrap();
        assert_eq!(report.appended, 10);
        assert_eq!(report.epoch, 10);
        assert_eq!(live.epoch(), 10);
        assert_eq!(live.rows_ingested(), 10);

        let after = live.score_batch(&probe, &cells).unwrap()[0];
        assert_ne!(
            before.to_bits(),
            after.to_bits(),
            "ingested evidence must reach scoring"
        );
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn ingest_validates_arity_and_rejects_empty_schema_mismatch() {
        let (artifact, log) = fit_artifact("arity");
        let live = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
        assert!(live.ingest_rows(vec![vec!["only-one".into()]]).is_err());
        assert_eq!(live.epoch(), 0, "failed ingest must not advance the epoch");
        let r = live.ingest_rows(Vec::new()).unwrap();
        assert_eq!(r.appended, 0);
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn crash_recovery_replays_the_log_tail() {
        let (artifact, log) = fit_artifact("recover");
        let probe_scores = {
            let live = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
            live.ingest_rows(some_rows(7, 40)).unwrap();
            let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
            b.push_row(&["60641", "Chicago"]);
            let probe = b.build();
            live.score_batch(&probe, &[CellId::new(0, 0), CellId::new(0, 1)])
                .unwrap()
            // live dropped here — simulating a crash (nothing saved).
        };
        let revived = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
        assert_eq!(revived.epoch(), 7, "log tail must replay");
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        b.push_row(&["60641", "Chicago"]);
        let probe = b.build();
        let scores = revived
            .score_batch(&probe, &[CellId::new(0, 0), CellId::new(0, 1)])
            .unwrap();
        assert_eq!(
            scores.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            probe_scores.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "recovered state must score bitwise-identically"
        );
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn drift_rises_on_violating_traffic_and_refit_resets_it() {
        let (dirty, truth) = world();
        let mut cfg = HoloDetectConfig::fast();
        cfg.epochs = 12;
        let train = truth.label_tuples(&dirty, &(0..20).collect::<Vec<_>>());
        let dcs = holo_constraints::parse_constraints("Zip -> City", dirty.schema())
            .expect("parse constraints");
        let model = HoloDetect::new(cfg).fit_model(&FitContext {
            dirty: &dirty,
            train: &train,
            sampling: None,
            constraints: &dcs,
            seed: 3,
        });
        let dir = std::env::temp_dir();
        let stamp = format!(
            "{}-{:?}-drift",
            std::process::id(),
            std::thread::current().id()
        );
        let artifact = dir.join(format!("holo-stream-{stamp}.holoart"));
        let log = dir.join(format!("holo-stream-{stamp}.dlog"));
        std::fs::remove_file(&log).ok();
        model.save(&artifact).unwrap();

        let live = LiveModel::open(
            &artifact,
            &log,
            StreamConfig {
                min_rows_between_refits: 8,
                baseline_sample_rows: 64,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        assert!(!live.should_refit());

        // Every ingested row breaks the FD against the reference.
        let bad: Vec<Vec<String>> = (0..12)
            .map(|i| vec!["60612".to_string(), format!("Springfield{i}")])
            .collect();
        live.ingest_rows(bad).unwrap();
        let report = live.drift_report();
        assert!(
            report
                .fired()
                .starts_with(&[DriftSignal::Psi, DriftSignal::Ks]),
            "uniformly violating traffic must move the score shape: {report:?}"
        );
        assert!(live.should_refit());

        let generation = live.refit_now().unwrap();
        assert_eq!(generation, 1);
        assert_eq!(live.refits_total(), 1);
        assert_eq!(live.epoch(), 12, "refit must not lose the ingested epochs");
        let after = live.drift_report();
        assert_eq!(after.rows_since_refit, 0, "refit re-anchors the window");
        assert!(!live.should_refit());
        // The log was compacted: reopening replays nothing.
        drop(live);
        let revived = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
        assert_eq!(revived.epoch(), 12);
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn scoring_stays_available_and_parity_correct_during_refit() {
        let (artifact, log) = fit_artifact("avail");
        let live =
            std::sync::Arc::new(LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap());
        live.ingest_rows(some_rows(6, 10)).unwrap();

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // Scorers hammer the model while a refit runs.
            for _ in 0..3 {
                let live = std::sync::Arc::clone(&live);
                let stop = &stop;
                s.spawn(move || {
                    let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
                    b.push_row(&["60616", "Chicago"]);
                    let probe = b.build();
                    let cells: Vec<CellId> = probe.cell_ids().collect();
                    while !stop.load(Ordering::Relaxed) {
                        let scores = live
                            .score_batch(&probe, &cells)
                            .expect("score during refit");
                        assert_eq!(scores.len(), 2);
                    }
                });
            }
            // Ingest keeps landing mid-refit too.
            {
                let live = std::sync::Arc::clone(&live);
                let stop = &stop;
                s.spawn(move || {
                    let mut tag = 50;
                    while !stop.load(Ordering::Relaxed) {
                        live.ingest_rows(some_rows(2, tag))
                            .expect("ingest during refit");
                        tag += 2;
                    }
                });
            }
            live.refit_now().expect("refit");
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(live.generation(), 1);
        // Mid-refit ingests survived the hot swap (tail replay).
        assert_eq!(live.epoch(), live.rows_ingested());
        // And the maintained state still equals a from-scratch rebuild.
        let reference = {
            let st = live.state.read().unwrap();
            st.model.artifact().unwrap().reference().clone()
        };
        // The refit stamped the artifact with its epoch; the wrapper
        // reader recovers both, and the log tail completes the state.
        let (mut baseline, file_epoch) = read_epoch_artifact(&artifact).unwrap();
        {
            let log = live.log.lock().unwrap();
            assert_eq!(file_epoch, Some(log.base_epoch()));
            for op in log.ops() {
                baseline.apply_delta(op).unwrap();
            }
        }
        let cells: Vec<CellId> = reference.cell_ids().take(30).collect();
        let a = live.score_batch(&reference, &cells).unwrap();
        let b = baseline.score_batch(&reference, &cells).unwrap();
        assert_eq!(
            a.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "post-refit live state must equal artifact ⊕ log"
        );
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn crash_between_artifact_rename_and_compaction_heals_on_open() {
        // The refit crash window: the epoch-stamped artifact reached
        // disk, the log compaction did not. Opening must drop the
        // already-baked ops instead of double-replaying them.
        let (artifact, log) = fit_artifact("crashwin");
        let probe_scores = {
            let live = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
            live.ingest_rows(some_rows(5, 70)).unwrap();
            // Persist an epoch-stamped snapshot of the current state,
            // deliberately skipping the compaction (simulated crash).
            let st = live.state.read().unwrap();
            let mut buf = Vec::new();
            st.model.save_to(&mut buf).unwrap();
            let snap = FittedHoloDetect::load_from(&mut std::io::Cursor::new(buf)).unwrap();
            write_epoch_artifact(&artifact, &snap, st.epoch).unwrap();
            drop(st);
            let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
            b.push_row(&["60671", "Chicago"]);
            let probe = b.build();
            live.score_batch(&probe, &[CellId::new(0, 0), CellId::new(0, 1)])
                .unwrap()
        };
        let revived = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
        assert_eq!(revived.epoch(), 5, "healed state must land on the epoch");
        assert_eq!(
            revived.log.lock().unwrap().base_epoch(),
            5,
            "open must finish the interrupted compaction"
        );
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        b.push_row(&["60671", "Chicago"]);
        let probe = b.build();
        let scores = revived
            .score_batch(&probe, &[CellId::new(0, 0), CellId::new(0, 1)])
            .unwrap();
        assert_eq!(
            scores.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            probe_scores.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "healed state must score bitwise-identically (no double replay)"
        );
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn log_compacted_past_the_artifact_is_a_loud_error() {
        // The converse corruption — an old artifact with a log whose
        // horizon moved beyond it — is unrecoverable and must not be
        // papered over.
        let (artifact, log) = fit_artifact("pastlog");
        {
            let live = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
            live.ingest_rows(some_rows(4, 80)).unwrap();
            live.log.lock().unwrap().compact_through(3).unwrap();
            // The plain (unstamped) artifact on disk claims horizon 3
            // now, which is fine — so recreate the mismatch explicitly
            // with a stamp that predates it.
            let st = live.state.read().unwrap();
            let mut buf = Vec::new();
            st.model.save_to(&mut buf).unwrap();
            let snap = FittedHoloDetect::load_from(&mut std::io::Cursor::new(buf)).unwrap();
            write_epoch_artifact(&artifact, &snap, 1).unwrap();
        }
        assert!(matches!(
            LiveModel::open(&artifact, &log, StreamConfig::default()),
            Err(ModelError::Format(_))
        ));
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn labels_probe_the_model_and_adaptive_refit_drains_them() {
        let (artifact, log) = fit_artifact("labels");
        let live = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
        // Swap-drifted rows: zips and cities crossed, all in-domain.
        let drifted: Vec<Vec<String>> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    vec!["60612".into(), "Madison".into()]
                } else {
                    vec!["53703".into(), "Chicago".into()]
                }
            })
            .collect();
        live.ingest_rows(drifted).unwrap();
        // The reference had 50 rows; label 4 of the appended ones with
        // their clean versions (one cell of each is the swap error).
        let labels: Vec<RowLabel> = (0..4)
            .map(|i| RowLabel {
                row: 50 + i,
                clean: if i % 2 == 0 {
                    vec!["60612".into(), "Chicago".into()]
                } else {
                    vec!["53703".into(), "Madison".into()]
                },
            })
            .collect();
        assert_eq!(live.add_labels(labels).unwrap(), 4);
        assert_eq!(live.labels_pending(), 4);
        assert_eq!(live.labels_received(), 4);
        // Every labeled cell became a probe spot check.
        assert_eq!(live.drift_report().probe_checked, 8);
        // Bad labels are typed refusals that leave the buffer alone.
        assert!(matches!(
            live.add_labels(vec![RowLabel {
                row: 9999,
                clean: vec!["a".into(), "b".into()],
            }]),
            Err(ModelError::CellOutOfBounds { .. })
        ));
        assert!(live
            .add_labels(vec![RowLabel {
                row: 0,
                clean: vec!["one".into()],
            }])
            .is_err());
        assert_eq!(live.labels_pending(), 4);
        // The adaptive refit consumes the labels and drains the buffer
        // only after succeeding; the re-anchor forgets the old model's
        // probe checks.
        live.refit_now().unwrap();
        assert_eq!(live.labels_pending(), 0);
        assert_eq!(live.labels_consumed(), 4);
        assert_eq!(live.drift_report().probe_checked, 0);
        assert!(live.refits_total() >= 1);
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn scores_carry_the_generation_that_produced_them() {
        let (artifact, log) = fit_artifact("scoregen");
        let live = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        b.push_row(&["60612", "Cxhicago"]);
        let probe = b.build();
        let cells = vec![CellId::new(0, 0), CellId::new(0, 1)];
        live.ingest_rows(some_rows(6, 30)).unwrap();
        let (before, g0, t0) = live.score_with_generation(&probe, &cells).unwrap();
        assert_eq!(g0, 0);
        // Score continuously across the refit's hot swap: every sample
        // must be the scores and threshold of the generation it reports.
        let refit_done = std::sync::atomic::AtomicBool::new(false);
        let seen = std::thread::scope(|s| {
            let scorer = s.spawn(|| {
                let mut seen = Vec::new();
                while !refit_done.load(Ordering::SeqCst) {
                    seen.push(live.score_with_generation(&probe, &cells).unwrap());
                }
                seen
            });
            let refit = live.refit_now();
            refit_done.store(true, Ordering::SeqCst);
            assert_eq!(refit.unwrap(), 1);
            scorer.join().unwrap()
        });
        let (after, g1, t1) = live.score_with_generation(&probe, &cells).unwrap();
        assert_eq!(g1, 1);
        assert_ne!(before, after, "the refit must change the probe's scores");
        assert_eq!(t1, live.default_threshold());
        for (scores, generation, threshold) in seen {
            let (want, want_threshold) = if generation == 0 {
                (&before, t0)
            } else {
                (&after, t1)
            };
            assert_eq!(&scores, want, "generation {generation}");
            assert_eq!(
                threshold.to_bits(),
                want_threshold.to_bits(),
                "generation {generation}"
            );
        }
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn degenerate_artifacts_cannot_go_live() {
        // A minimal valid degenerate artifact, written by hand.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(b"HOLOARTF");
        holo_data::binio::write_u32(&mut buf, 1).unwrap();
        holo_data::binio::write_str(&mut buf, "AUG").unwrap();
        holo_data::binio::write_bool(&mut buf, false).unwrap();
        let dir = std::env::temp_dir();
        let stamp = format!("{}-deg", std::process::id());
        let artifact = dir.join(format!("holo-stream-{stamp}.holoart"));
        std::fs::write(&artifact, &buf).unwrap();
        let log = dir.join(format!("holo-stream-{stamp}.dlog"));
        std::fs::remove_file(&log).ok();
        assert!(matches!(
            LiveModel::open(&artifact, &log, StreamConfig::default()),
            Err(ModelError::Degenerate { .. })
        ));
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn refit_snapshots_only_labels_inside_the_snapshot() {
        let (artifact, log) = fit_artifact("snaplabels");
        let live = LiveModel::open(
            &artifact,
            &log,
            StreamConfig {
                refit_label_budget: MAX_LABEL_BUFFER,
                ..StreamConfig::default()
            },
        )
        .unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // Ingest a row, then label it, as fast as possible.
            s.spawn(|| {
                for i in 0..200 {
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    let epoch = live.ingest_rows(some_rows(1, i)).unwrap().epoch;
                    let clean = some_rows(1, i).remove(0);
                    let row = 50 + epoch as usize - 1;
                    live.add_labels(vec![RowLabel { row, clean }]).unwrap();
                }
            });
            for _ in 0..40 {
                let (copy, epoch, labels) = live.snapshot().unwrap();
                let nt = copy.artifact().unwrap().reference().n_tuples();
                assert_eq!(nt, 50 + epoch as usize);
                let past = labels.iter().find(|l| l.row >= nt);
                assert!(past.is_none(), "{past:?} in a snapshot of {nt} rows");
            }
            done.store(true, Ordering::Relaxed);
        });
        assert!(live.labels_pending() > 0, "the writer labeled nothing");
        cleanup(&[&artifact, &log]);
    }

    #[test]
    fn truncated_live_artifacts_are_typed_errors() {
        let (artifact, log) = fit_artifact("truncated");
        {
            let live = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
            live.ingest_rows(some_rows(3, 90)).unwrap();
            live.refit_to_disk().unwrap();
        }
        let stamped = std::fs::read(&artifact).unwrap();
        let log_bytes = std::fs::read(&log).unwrap();
        assert_eq!(&stamped[..8], LIVE_MAGIC);
        // Inside the magic, the version, the epoch, then through the
        // model body.
        let body = stamped.len() - 20;
        let mut cuts = vec![0, 4, 8, 10, 12, 16, 20];
        cuts.extend((1..16).map(|k| 20 + body * k / 16));
        cuts.push(stamped.len() - 1);
        for cut in cuts {
            std::fs::write(&artifact, &stamped[..cut]).unwrap();
            std::fs::write(&log, &log_bytes).unwrap();
            assert!(
                LiveModel::open(&artifact, &log, StreamConfig::default()).is_err(),
                "a stamped artifact cut at byte {cut} of {} opened",
                stamped.len()
            );
        }
        // The whole file still opens at the refit's epoch.
        std::fs::write(&artifact, &stamped).unwrap();
        std::fs::write(&log, &log_bytes).unwrap();
        let live = LiveModel::open(&artifact, &log, StreamConfig::default()).unwrap();
        assert_eq!(live.epoch(), 3);
        cleanup(&[&artifact, &log]);
    }
}
