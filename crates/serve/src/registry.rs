//! The model registry: names → loaded artifacts, with atomic hot-swap
//! reloads.
//!
//! Models are held as `Arc<ServedModel>`. A lookup clones the `Arc`
//! under the registry's read lock and drops the lock before any scoring
//! happens, so the lock only ever guards a pointer swap — never model
//! work. Reloading loads the artifact from disk *outside* every lock,
//! then swaps the map entry in one write-locked insert: requests that
//! already resolved the old `Arc` finish on the old weights, requests
//! that resolve after the swap get the new ones, and no request ever
//! observes a half-loaded model.
//!
//! ## Static vs. live entries
//!
//! A **static** entry is PR 3's shape: an immutable loaded
//! `FittedHoloDetect`; reload = load the file, swap the `Arc`. A
//! **live** entry wraps a `holo_stream::LiveModel` — the same artifact
//! plus streaming maintenance (ingest, drift, background refit). For a
//! live entry the registry mapping never needs to change on reload:
//! the swap happens *inside* the `LiveModel`
//! (`LiveModel::reload_install`: load the artifact, replay the
//! delta-log tail so mid-refit ingest survives, bump the generation),
//! the same install the drift-triggered `RefitScheduler` and
//! `POST .../refit` run.

use holo_eval::ModelError;
use holo_prof::ProfRwLock;
use holo_stream::LiveModel;
use holodetect::FittedHoloDetect;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError};

/// How a served model answers queries. (The static artifact is boxed:
/// a fitted model is a couple of kB inline, and parity with the `Arc`
/// variant keeps the enum a pointer wide.)
enum ModelSource {
    /// An immutable loaded artifact (PR 3).
    Static(Box<FittedHoloDetect>),
    /// A streaming-maintained model (ingest/drift/refit).
    Live(Arc<LiveModel>),
}

/// One loaded, share-anywhere model version.
pub struct ServedModel {
    name: String,
    path: PathBuf,
    /// Reload counter for static entries; live entries track their own.
    static_generation: u64,
    source: ModelSource,
}

impl ServedModel {
    /// The registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The artifact file this version was loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reload counter: 0 for the initial load, +1 per hot swap (for a
    /// live entry, +1 per install — including drift-triggered refits).
    pub fn generation(&self) -> u64 {
        match &self.source {
            ModelSource::Static(_) => self.static_generation,
            ModelSource::Live(l) => l.generation(),
        }
    }

    /// The streaming session, when this is a live entry.
    pub fn live(&self) -> Option<&Arc<LiveModel>> {
        match &self.source {
            ModelSource::Static(_) => None,
            ModelSource::Live(l) => Some(l),
        }
    }

    /// Neighbour-cache statistics of the currently-served pipeline
    /// (the `holo_features_nn_cache_*` metrics families). Hit/miss/
    /// eviction counters are cumulative for the featurizer's lifetime.
    pub fn nn_cache_stats(&self) -> holodetect::CacheStats {
        match &self.source {
            ModelSource::Static(m) => m.nn_cache_stats(),
            ModelSource::Live(l) => l.nn_cache_stats(),
        }
    }

    /// Score cells of `data` through whichever state is current, and
    /// return the generation and decision threshold of the model that
    /// scored them. A live entry reads all three under one state lock,
    /// so a concurrent hot swap cannot label old-model scores with the
    /// new generation or threshold.
    pub fn score_batch(
        &self,
        data: &holo_data::Dataset,
        cells: &[holo_data::CellId],
    ) -> Result<(Vec<f64>, u64, f64), ModelError> {
        match &self.source {
            ModelSource::Static(m) => {
                use holo_eval::TrainedModel;
                Ok((
                    m.score_batch(data, cells)?,
                    self.static_generation,
                    m.default_threshold(),
                ))
            }
            ModelSource::Live(l) => l.score_with_generation(data, cells),
        }
    }

    /// The current decision threshold.
    pub fn default_threshold(&self) -> f64 {
        match &self.source {
            ModelSource::Static(m) => {
                use holo_eval::TrainedModel;
                m.default_threshold()
            }
            ModelSource::Live(l) => l.default_threshold(),
        }
    }

    /// The fitting method's name (as the paper's tables print it).
    pub fn method(&self) -> &'static str {
        match &self.source {
            ModelSource::Static(m) => m.method(),
            ModelSource::Live(l) => l.method(),
        }
    }

    /// The schema the model scores against (`None` for a degenerate
    /// static artifact, which accepts any schema).
    pub fn schema(&self) -> Option<&holo_data::Schema> {
        match &self.source {
            ModelSource::Static(m) => m.artifact().map(|a| a.reference().schema()),
            ModelSource::Live(l) => Some(l.schema()),
        }
    }
}

/// Names → current model version, behind one [`ProfRwLock`] (stats
/// slot `"models"`). The lock only ever guards an `Arc` clone or swap,
/// never model work.
pub struct ModelRegistry {
    models: ProfRwLock<HashMap<String, Arc<ServedModel>>>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            models: ProfRwLock::new("models", HashMap::new()),
        }
    }

    /// Load an artifact file and register (or replace) it under `name`
    /// as a static entry. Returns the registered version.
    ///
    /// Every registry lock below recovers from poisoning: the guarded
    /// sections are single `HashMap` operations that cannot be observed
    /// half-done, so a panic elsewhere must not wedge model lookups.
    pub fn load_insert(&self, name: &str, path: &Path) -> Result<Arc<ServedModel>, ModelError> {
        let model = FittedHoloDetect::load(path)?;
        let mut map = self.models.write().unwrap_or_else(PoisonError::into_inner);
        let static_generation = map.get(name).map_or(0, |m| m.generation() + 1);
        let entry = Arc::new(ServedModel {
            name: name.to_string(),
            path: path.to_path_buf(),
            static_generation,
            source: ModelSource::Static(Box::new(model)),
        });
        map.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Register a streaming session under `name`. Scoring, reloads, and
    /// the stream endpoints (`rows` / `drift` / `refit`) all route to
    /// it; the drift scheduler's hot swaps bump its generation.
    pub fn insert_live(&self, name: &str, live: Arc<LiveModel>) -> Arc<ServedModel> {
        let entry = Arc::new(ServedModel {
            name: name.to_string(),
            path: live.path().to_path_buf(),
            static_generation: 0,
            source: ModelSource::Live(live),
        });
        self.models
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), Arc::clone(&entry));
        entry
    }

    /// The current version of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<ServedModel>> {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Hot-swap `name` from its artifact file on disk. `None` when the
    /// name is not registered; `Some(Err)` when the file fails to load
    /// — in which case the old version keeps serving untouched.
    ///
    /// Static entries swap the registry `Arc`. Live entries install the
    /// loaded artifact into the session (replaying the delta-log tail,
    /// bumping the generation) and keep the mapping.
    pub fn reload(&self, name: &str) -> Option<Result<Arc<ServedModel>, ModelError>> {
        let current = self.get(name)?;
        Some(match current.live() {
            // Disk I/O and deserialization happen outside every lock.
            None => self.load_insert(name, current.path()),
            // The live reload is epoch-aware: a refit-stamped artifact
            // replays only the log ops past its own epoch.
            Some(live) => live.reload_install().map(|_| current),
        })
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        out.sort();
        out
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write a minimal valid (degenerate) artifact file by hand — enough
    /// to exercise registry plumbing without fitting a model.
    fn tmp_artifact(name: &str) -> PathBuf {
        use holo_data::binio;
        let path = std::env::temp_dir().join(format!(
            "holo-serve-registry-{}-{name}.bin",
            std::process::id()
        ));
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(b"HOLOARTF"); // artifact magic
        binio::write_u32(&mut buf, 1).unwrap(); // format version
        binio::write_str(&mut buf, "AUG").unwrap(); // method
        binio::write_bool(&mut buf, false).unwrap(); // degenerate: no state
        std::fs::write(&path, &buf).unwrap();
        path
    }

    #[test]
    fn load_get_reload_bumps_generation() {
        let path = tmp_artifact("gen");
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let v0 = reg.load_insert("food", &path).unwrap();
        assert_eq!(v0.generation(), 0);
        assert_eq!(reg.get("food").unwrap().generation(), 0);
        assert_eq!(reg.len(), 1);

        let v1 = reg.reload("food").unwrap().unwrap();
        assert_eq!(v1.generation(), 1);
        assert_eq!(reg.get("food").unwrap().generation(), 1);
        // The old Arc still scores — hot swap never invalidates holders.
        assert_eq!(v0.generation(), 0);
        assert_eq!(v0.name(), "food");
        assert!(v0.live().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_names_and_bad_files_are_distinct_failures() {
        let reg = ModelRegistry::new();
        assert!(reg.reload("ghost").is_none());
        assert!(reg.get("ghost").is_none());

        let bad = std::env::temp_dir().join(format!("holo-serve-bad-{}.bin", std::process::id()));
        std::fs::write(&bad, b"not an artifact").unwrap();
        assert!(matches!(
            reg.load_insert("bad", &bad),
            Err(ModelError::Format(_))
        ));
        // A failed load registers nothing.
        assert!(reg.get("bad").is_none());
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn failed_reload_keeps_serving_the_old_version() {
        let path = tmp_artifact("stale");
        let reg = ModelRegistry::new();
        reg.load_insert("m", &path).unwrap();
        // Corrupt the file on disk, then try to reload.
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(reg.reload("m"), Some(Err(_))));
        // The registered version is still the good one.
        let cur = reg.get("m").unwrap();
        assert_eq!(cur.generation(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn names_are_sorted() {
        let reg = ModelRegistry::new();
        for n in ["zeta", "alpha", "mid"] {
            let path = tmp_artifact(n);
            reg.load_insert(n, &path).unwrap();
            std::fs::remove_file(&path).ok();
        }
        assert_eq!(reg.names(), vec!["alpha", "mid", "zeta"]);
        assert_eq!(reg.len(), 3);
    }
}
