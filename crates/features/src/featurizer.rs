//! The featurizer: fits every representation model over a dataset and
//! produces per-cell feature vectors, with hypothetical-value support.

use crate::config::{Component, FeatureConfig};
use crate::layout::FeatureLayout;
use crate::wide::{CoocModel, EmpiricalModel, LengthModel, NgramModel};
use holo_constraints::{DenialConstraint, ViolationEngine};
use holo_data::{binio, CellId, Dataset, DeltaError, DeltaOp};
use holo_embed::corpus::{self, value_token};
use holo_embed::{nearest_distance, Embedding, SkipGramConfig};
use holo_text::{char_tokens, word_tokens};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Bound on the nearest-neighbour memo, summed over its columns: without
/// one, a long-lived artifact scoring endless fresh values leaks memory.
/// A full memo is emptied and refills; the holobench workloads peak at a
/// few thousand entries, so the cap only ever guards memory.
const NN_CACHE_CAP: usize = 1 << 16;

/// Work-grain (cells per claim) for batch featurization. Small enough
/// that a straggler chunk cannot gate the whole batch, large enough to
/// amortize the queue's atomic bump.
const BATCH_GRAIN: usize = 16;

/// Per-batch memo for violation queries against a *foreign* dataset.
///
/// All observed cells of one tuple share the same violation vector, but
/// the per-cell query API cannot know it is being called `n_attrs` times
/// per tuple. Batch featurization threads each carry one of these so the
/// block scans run once per tuple instead of once per cell. Only valid
/// for a single queried dataset.
#[derive(Default)]
struct ViolMemo {
    /// tuple → violation vector for its *observed* values.
    foreign_observed: HashMap<usize, Vec<u32>>,
}

/// Lifetime counters (plus current occupancy) of the nearest-neighbour
/// memo, for `/metrics` export. Hits, misses and evictions count since
/// the featurizer was built, saturate, and survive an append dropping a
/// column's entries, so `/metrics` rates stay monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their value.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped because the memo was full.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// The bound on `entries`.
    pub capacity: usize,
}

/// The nearest-neighbour memo: per column, value → top-1 distance. A
/// column's distances depend only on its own candidates and the frozen
/// value embedding, so an append that grows one column's candidates
/// drops that column's map alone.
struct NnMemo {
    columns: Vec<HashMap<String, f32>>,
    stats: CacheStats,
}

impl NnMemo {
    fn get(&mut self, a: usize, value: &str) -> Option<f32> {
        let hit = self.columns[a].get(value).copied();
        let counter = match hit {
            Some(_) => &mut self.stats.hits,
            None => &mut self.stats.misses,
        };
        *counter = counter.saturating_add(1);
        hit
    }

    fn insert(&mut self, a: usize, value: &str, dist: f32) {
        let s = &mut self.stats;
        if s.entries >= NN_CACHE_CAP {
            self.columns.iter_mut().for_each(HashMap::clear);
            s.evictions = s.evictions.saturating_add(s.entries as u64);
            s.entries = 0;
        }
        // Two threads can miss the same value; the second insert
        // overwrites an identical distance.
        if self.columns[a].insert(value.to_owned(), dist).is_none() {
            s.entries += 1;
        }
    }
}

/// The fitted representation model `Q` — an owned, dataset-independent
/// artifact.
///
/// Fit once per reference dataset ([`Featurizer::fit`]); the featurizer
/// *owns* a copy of that reference plus every statistic it learned, so
/// queries can address cells of **any** dataset with the same schema:
/// pass the dataset being scored to [`Featurizer::features`] /
/// [`Featurizer::features_with_value`]. Value statistics come from the
/// fit-time models; tuple context (co-occurrence partners, tuple
/// embeddings) comes from the queried dataset; constraint violations are
/// counted against the reference. A cell is a *reference cell* only when
/// the queried dataset is the owned reference itself
/// ([`Featurizer::reference`], compared by pointer): its tuple is then
/// not its own conflict partner, exactly as at fit time. Every other
/// dataset, a copy of the reference included, is foreign, and its
/// tuples are counted against every reference row.
///
/// All queries are `&self` and thread-safe, so batch featurization
/// parallelizes with scoped threads.
pub struct Featurizer {
    cfg: FeatureConfig,
    layout: FeatureLayout,
    /// The dataset the representation was fitted over (owned — the
    /// artifact outlives whatever the caller fitted on).
    reference: Dataset,
    /// The fit-time constraints (kept so violation indexes can be
    /// rebuilt when an artifact is reloaded).
    constraints: Vec<DenialConstraint>,
    n_attrs: usize,
    // Attribute-level wide models (per column).
    ngram: Vec<NgramModel>,
    sym_ngram: Vec<NgramModel>,
    length: Vec<LengthModel>,
    empirical: Vec<EmpiricalModel>,
    // Tuple-level.
    cooc: Option<CoocModel>,
    // Dataset-level.
    violations: Option<ViolationEngine>,
    n_constraints: usize,
    /// Attributes mentioned by each constraint (feature masking).
    constraint_attrs: Vec<Vec<usize>>,
    // Embedding models (deep branch inputs).
    char_emb: Option<Embedding>,
    word_emb: Option<Embedding>,
    tuple_emb: Option<Embedding>,
    value_emb: Option<Embedding>,
    /// Per-column candidate value tokens for the neighbourhood distance,
    /// in first-appearance column order (the order a refit would produce
    /// — the strided candidate scan is order-sensitive).
    neighbor_candidates: Vec<Vec<String>>,
    /// Per-column set of the tokens in `neighbor_candidates` (empty until
    /// the first append needs it): an appended value is a new candidate
    /// exactly when its token is not in the set yet.
    candidate_tokens: Vec<HashSet<String>>,
    /// Memoized top-1 neighbour distances: the most expensive feature,
    /// over values that repeat massively.
    nn_cache: Mutex<NnMemo>,
}

impl Featurizer {
    /// Fit the representation over `d` with the given constraints. The
    /// featurizer keeps its own copy of `d` as the reference dataset.
    pub fn fit(d: &Dataset, constraints: &[DenialConstraint], cfg: FeatureConfig) -> Self {
        let counts = CountModels::fit(d, &cfg);

        // Embedding corpora. Char/token corpora are deduplicated by cell
        // value (values repeat heavily; dedup keeps skip-gram training
        // linear in *distinct* values — documented substitution).
        let char_emb = cfg
            .enabled(Component::CharEmbedding)
            .then(|| Embedding::train(&dedup(corpus::char_corpus(d)), &cfg.embed));
        let word_emb = cfg
            .enabled(Component::WordEmbedding)
            .then(|| Embedding::train(&dedup(corpus::token_corpus(d)), &cfg.embed));
        let tuple_emb = cfg.enabled(Component::TupleEmbedding).then(|| {
            let bag_cfg = SkipGramConfig {
                window: None,
                ..cfg.embed.clone()
            };
            Embedding::train(&corpus::tuple_bag_corpus(d), &bag_cfg)
        });
        let value_emb = cfg.enabled(Component::Neighborhood).then(|| {
            let bag_cfg = SkipGramConfig {
                window: None,
                ..cfg.embed.clone()
            };
            Embedding::train(&corpus::value_token_corpus(d), &bag_cfg)
        });

        Self::assemble(
            cfg,
            d.clone(),
            constraints.to_vec(),
            counts,
            char_emb,
            word_emb,
            tuple_emb,
            value_emb,
        )
    }

    /// Shared tail of fitting and deserialization: build the violation
    /// engine over the reference, derive the layout, wire everything up.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        cfg: FeatureConfig,
        reference: Dataset,
        constraints: Vec<DenialConstraint>,
        counts: CountModels,
        char_emb: Option<Embedding>,
        word_emb: Option<Embedding>,
        tuple_emb: Option<Embedding>,
        value_emb: Option<Embedding>,
    ) -> Self {
        let CountModels {
            ngram,
            sym_ngram,
            length,
            empirical,
            cooc,
            neighbor_candidates,
        } = counts;
        let na = reference.n_attrs();
        let violations = (cfg.enabled(Component::ConstraintViolations) && !constraints.is_empty())
            .then(|| ViolationEngine::build(&reference, &constraints));
        let n_constraints = violations.as_ref().map_or(0, |v| v.len());
        // Attribute mask per constraint: the violation feature of a cell
        // is zeroed for constraints that do not mention its attribute,
        // so one bad cell does not taint its whole tuple's features.
        let constraint_attrs: Vec<Vec<usize>> = violations
            .as_ref()
            .map(|v| {
                v.indexes()
                    .iter()
                    .map(|ix| ix.constraint().attrs())
                    .collect()
            })
            .unwrap_or_default();
        let layout = Self::build_layout(&cfg, na, n_constraints);
        Featurizer {
            cfg,
            layout,
            reference,
            constraints,
            n_attrs: na,
            ngram,
            sym_ngram,
            length,
            empirical,
            cooc,
            violations,
            n_constraints,
            constraint_attrs,
            char_emb,
            word_emb,
            tuple_emb,
            value_emb,
            nn_cache: Mutex::new(NnMemo {
                columns: vec![HashMap::new(); neighbor_candidates.len()],
                stats: CacheStats {
                    capacity: NN_CACHE_CAP,
                    ..CacheStats::default()
                },
            }),
            neighbor_candidates,
            candidate_tokens: Vec::new(),
        }
    }

    fn build_layout(cfg: &FeatureConfig, na: usize, n_constraints: usize) -> FeatureLayout {
        let mut wide_names = Vec::new();
        if cfg.enabled(Component::FormatModels) {
            wide_names.push("format:3gram".to_owned());
            wide_names.push("format:symbolic".to_owned());
            wide_names.push("format:length".to_owned());
        }
        if cfg.enabled(Component::EmpiricalModels) {
            wide_names.push("empirical:freq".to_owned());
            for a in 0..na {
                wide_names.push(format!("empirical:col{a}"));
            }
        }
        if cfg.enabled(Component::Cooccurrence) {
            for i in 0..na.saturating_sub(1) {
                wide_names.push(format!("cooc:{i}"));
            }
        }
        if cfg.enabled(Component::ConstraintViolations) {
            for c in 0..n_constraints {
                wide_names.push(format!("violations:dc{c}"));
            }
        }
        if cfg.enabled(Component::Neighborhood) {
            wide_names.push("neighborhood:dist".to_owned());
        }
        let mut branch_names = Vec::new();
        let mut branch_dims = Vec::new();
        let dim = cfg.embed.dim;
        if cfg.enabled(Component::CharEmbedding) {
            branch_names.push("char-embedding".to_owned());
            branch_dims.push(dim);
        }
        if cfg.enabled(Component::WordEmbedding) {
            branch_names.push("word-embedding".to_owned());
            branch_dims.push(dim);
        }
        if cfg.enabled(Component::TupleEmbedding) {
            branch_names.push("tuple-embedding".to_owned());
            branch_dims.push(dim);
        }
        if cfg.enabled(Component::Neighborhood) {
            branch_names.push("neighborhood-embedding".to_owned());
            branch_dims.push(dim);
        }
        FeatureLayout {
            wide_names,
            branch_names,
            branch_dims,
        }
    }

    /// The layout of produced vectors.
    pub fn layout(&self) -> &FeatureLayout {
        &self.layout
    }

    /// The owned reference dataset the representation was fitted over.
    pub fn reference(&self) -> &Dataset {
        &self.reference
    }

    /// The fit-time constraints.
    pub fn constraints(&self) -> &[DenialConstraint] {
        &self.constraints
    }

    /// Features for a cell of `d` (the dataset being scored — the owned
    /// [`Featurizer::reference`] or any schema-compatible batch) with its
    /// observed value. Violation counts exclude the cell's own tuple only
    /// when `d` is the owned reference.
    pub fn features(&self, d: &Dataset, cell: CellId) -> Vec<f32> {
        let value = d.cell_value(cell).to_owned();
        self.features_with_value(d, cell, &value)
    }

    /// Features for a cell of `d` under a hypothetical value (the
    /// augmented example case: a transformed value inside the real tuple
    /// context). Pass the owned [`Featurizer::reference`] for a reference
    /// cell, so its violation counts exclude its own row.
    pub fn features_with_value(&self, d: &Dataset, cell: CellId, value: &str) -> Vec<f32> {
        self.features_memo(d, cell, value, &mut ViolMemo::default())
    }

    /// The violation-count vector for cell `(t, a)` holding `value`,
    /// routed through the per-tuple memo for foreign datasets.
    fn violation_counts(
        &self,
        engine: &ViolationEngine,
        d: &Dataset,
        t: usize,
        a: usize,
        value: &str,
        memo: &mut ViolMemo,
    ) -> Vec<u32> {
        let reference_cell = std::ptr::eq(d, &self.reference);
        let observed = value == d.value(t, a);
        if reference_cell && observed {
            engine.tuple_vector(t)
        } else if observed {
            memo.foreign_observed
                .entry(t)
                .or_insert_with(|| engine.vector(&self.reference, &d.tuple_values(t), None))
                .clone()
        } else {
            let mut values = d.tuple_values(t);
            values[a] = value;
            engine.vector(&self.reference, &values, reference_cell.then_some(t))
        }
    }

    fn features_memo(
        &self,
        d: &Dataset,
        cell: CellId,
        value: &str,
        memo: &mut ViolMemo,
    ) -> Vec<f32> {
        let (t, a) = (cell.t(), cell.a());
        let mut out = Vec::with_capacity(self.layout.total_dim());

        // -------- wide features --------
        if self.cfg.enabled(Component::FormatModels) {
            out.push(self.ngram[a].feature(value));
            out.push(self.sym_ngram[a].feature(value));
            out.push(self.length[a].prob(value));
        }
        if self.cfg.enabled(Component::EmpiricalModels) {
            out.push(self.empirical[a].prob(value));
            for col in 0..self.n_attrs {
                out.push(f32::from(col == a));
            }
        }
        if let Some(cooc) = &self.cooc {
            out.extend(cooc.features(d, t, a, value));
        }
        if self.cfg.enabled(Component::ConstraintViolations) {
            if let Some(engine) = &self.violations {
                let counts = self.violation_counts(engine, d, t, a, value, memo);
                for (ci, c) in counts.into_iter().enumerate() {
                    // Mask: only constraints mentioning this cell's
                    // attribute contribute to its violation features.
                    if self.constraint_attrs[ci].contains(&a) {
                        out.push((1.0 + c as f32).ln() / (11.0f32).ln());
                    } else {
                        out.push(0.0);
                    }
                }
            } else {
                out.extend(std::iter::repeat_n(0.0, self.n_constraints));
            }
        }
        if self.cfg.enabled(Component::Neighborhood) {
            out.push(self.neighbor_distance(a, value));
        }

        // -------- learnable branch inputs --------
        if let Some(emb) = &self.char_emb {
            out.extend(emb.embed_tokens(&char_tokens(value)));
        }
        if let Some(emb) = &self.word_emb {
            out.extend(emb.embed_tokens(&word_tokens(value)));
        }
        if let Some(emb) = &self.tuple_emb {
            let mut toks = Vec::new();
            for col in 0..self.n_attrs {
                let v = if col == a { value } else { d.value(t, col) };
                toks.extend(word_tokens(v));
            }
            out.extend(emb.embed_tokens(&toks));
        }
        if let Some(emb) = &self.value_emb {
            out.extend(emb.vector(&value_token(a, value)));
        }

        debug_assert_eq!(out.len(), self.layout.total_dim());
        out
    }

    /// Batch featurization with scoped-thread parallelism. `cells` pairs
    /// each cell of `d` with an optional value override.
    ///
    /// Work distribution is an atomic-cursor queue over small
    /// `BATCH_GRAIN`-sized grains, not fixed even chunks: per-cell
    /// cost varies wildly (cache-cold neighbour scans, huge violation
    /// blocks), and with fixed chunking one slow chunk gates the whole
    /// scoped batch while the other workers idle. Grains are claimed in
    /// index order into pre-split output slots, so result ordering — and
    /// every feature value — is identical to the chunked version.
    pub fn features_batch(
        &self,
        d: &Dataset,
        cells: &[(CellId, Option<String>)],
        threads: usize,
    ) -> Vec<Vec<f32>> {
        if cells.is_empty() {
            return Vec::new();
        }
        let threads = threads.max(1).min(cells.len().div_ceil(BATCH_GRAIN));
        let mut out: Vec<Vec<f32>> = vec![Vec::new(); cells.len()];
        // Disjoint output windows, one per grain; each is claimed (and
        // its Mutex locked) by exactly one worker, exactly once.
        let slots: Vec<Mutex<&mut [Vec<f32>]>> =
            out.chunks_mut(BATCH_GRAIN).map(Mutex::new).collect();
        let work: Vec<&[(CellId, Option<String>)]> = cells.chunks(BATCH_GRAIN).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    // One memo per worker: foreign-tuple violation scans
                    // run once per tuple a worker sees, not once per cell.
                    let mut memo = ViolMemo::default();
                    loop {
                        let g = cursor.fetch_add(1, Ordering::Relaxed);
                        if g >= work.len() {
                            break;
                        }
                        // Recover from poisoning: each slot is a
                        // disjoint chunk, and a panicked worker's
                        // panic propagates at scope join regardless.
                        let mut slot = slots[g].lock().unwrap_or_else(PoisonError::into_inner);
                        for (o, (cell, ov)) in slot.iter_mut().zip(work[g]) {
                            *o = match ov {
                                Some(v) => self.features_memo(d, *cell, v, &mut memo),
                                None => {
                                    let value = d.cell_value(*cell).to_owned();
                                    self.features_memo(d, *cell, &value, &mut memo)
                                }
                            };
                        }
                    }
                });
            }
        });
        out
    }

    // ------------------------------------------------- incremental ops

    /// Apply one dataset delta (an appended row) to the fitted state *in
    /// place of* a rebuild: the owned reference advances one epoch, and
    /// every count-based model (format n-grams, lengths, empirical
    /// distributions, co-occurrence tables, violation indexes,
    /// neighbourhood candidates) is maintained so that subsequent
    /// queries are **bitwise-identical** to a featurizer rebuilt from
    /// scratch over the grown dataset with the same (frozen) embeddings
    /// — see [`Featurizer::rebuilt_at`], the reference implementation
    /// the proptests compare against.
    ///
    /// The learned embeddings are deliberately *not* maintained: they
    /// are train-once artifacts, learned from the dataset at fit time.
    pub fn apply_delta(&mut self, op: &DeltaOp) -> Result<(), DeltaError> {
        let DeltaOp::Append { values } = op;
        if values.len() != self.n_attrs {
            return Err(DeltaError::ArityMismatch {
                got: values.len(),
                want: self.n_attrs,
            });
        }
        self.reference.push_row(values);
        if self.cfg.enabled(Component::FormatModels) {
            for (a, v) in values.iter().enumerate() {
                self.ngram[a].add_value(v);
                self.sym_ngram[a].add_value(v);
                self.length[a].add_value(v);
            }
        }
        if self.cfg.enabled(Component::EmpiricalModels) {
            for (a, v) in values.iter().enumerate() {
                self.empirical[a].add_value(v);
            }
        }
        if let Some(cooc) = &mut self.cooc {
            cooc.add_row(values);
        }
        if let Some(engine) = &mut self.violations {
            engine.apply_append(&self.reference);
        }
        if self.cfg.enabled(Component::Neighborhood) {
            if self.candidate_tokens.is_empty() {
                self.candidate_tokens = self
                    .neighbor_candidates
                    .iter()
                    .map(|col| col.iter().cloned().collect())
                    .collect();
            }
            // `&mut self` needs no lock.
            let memo = self
                .nn_cache
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            for (a, v) in values.iter().enumerate() {
                let token = value_token(a, v);
                if self.candidate_tokens[a].insert(token.clone()) {
                    // First appearance in this column: a rebuild would
                    // list it last, exactly where we put it, and the
                    // column's memoized distances may now be stale.
                    self.neighbor_candidates[a].push(token);
                    memo.stats.entries -= memo.columns[a].len();
                    memo.columns[a].clear();
                }
            }
        }
        Ok(())
    }

    /// A featurizer refitted from scratch over `d` with this one's
    /// configuration, constraints, and **frozen** learned embeddings.
    /// It is the reference implementation incremental maintenance is
    /// held bitwise-equal to, and the one way labeled repairs reach the
    /// representation (an adaptive refit rebuilds at the repaired
    /// reference).
    pub fn rebuilt_at(&self, d: &Dataset) -> Featurizer {
        Self::assemble(
            self.cfg.clone(),
            d.clone(),
            self.constraints.clone(),
            CountModels::fit(d, &self.cfg),
            self.char_emb.clone(),
            self.word_emb.clone(),
            self.tuple_emb.clone(),
            self.value_emb.clone(),
        )
    }

    fn neighbor_distance(&self, a: usize, value: &str) -> f32 {
        // The memo locks all recover from poisoning: the memo holds
        // only recomputable distances, so the worst case after a panic
        // elsewhere is a recomputation, never a wrong feature.
        if let Some(dist) = self
            .nn_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(a, value)
        {
            return dist;
        }
        // The embedding exists whenever Neighborhood is enabled (the
        // only caller); 0.0 is the feature's neutral "no signal" value.
        let Some(emb) = self.value_emb.as_ref() else {
            return 0.0;
        };
        let token = value_token(a, value);
        let dist = nearest_distance(emb, &token, &self.neighbor_candidates[a]);
        self.nn_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(a, value, dist);
        dist
    }

    /// Lifetime hit/miss/eviction counters (plus occupancy) of the
    /// nearest-neighbour memo, for `/metrics` export.
    pub fn nn_cache_stats(&self) -> CacheStats {
        self.nn_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }

    /// Serialize the fitted representation. The violation engine, the
    /// layout, and the constraint masks are *not* written — they are
    /// rebuilt deterministically from the reference dataset and the
    /// constraint ASTs on [`Featurizer::read_from`].
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.cfg.write_to(w)?;
        self.reference.write_to(w)?;
        binio::write_usize(w, self.constraints.len())?;
        for dc in &self.constraints {
            dc.write_to(w)?;
        }
        for models in [&self.ngram, &self.sym_ngram] {
            binio::write_usize(w, models.len())?;
            for m in models.iter() {
                m.write_to(w)?;
            }
        }
        binio::write_usize(w, self.length.len())?;
        for m in &self.length {
            m.write_to(w)?;
        }
        binio::write_usize(w, self.empirical.len())?;
        for m in &self.empirical {
            m.write_to(w)?;
        }
        binio::write_bool(w, self.cooc.is_some())?;
        if let Some(c) = &self.cooc {
            c.write_to(w)?;
        }
        for emb in [
            &self.char_emb,
            &self.word_emb,
            &self.tuple_emb,
            &self.value_emb,
        ] {
            binio::write_bool(w, emb.is_some())?;
            if let Some(e) = emb {
                e.write_to(w)?;
            }
        }
        binio::write_usize(w, self.neighbor_candidates.len())?;
        for col in &self.neighbor_candidates {
            binio::write_usize(w, col.len())?;
            for c in col {
                binio::write_str(w, c)?;
            }
        }
        Ok(())
    }

    /// Deserialize a representation written by [`Featurizer::write_to`],
    /// rebuilding the violation indexes over the reloaded reference.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Featurizer> {
        let cfg = FeatureConfig::read_from(r)?;
        let reference = Dataset::read_from(r)?;
        let n_dc = binio::read_usize(r)?;
        let mut constraints = Vec::with_capacity(binio::bounded_cap(n_dc, 64));
        for _ in 0..n_dc {
            let dc = DenialConstraint::read_from(r)?;
            // The violation engine built below indexes the reference's
            // columns by these attributes.
            if let Some(a) = dc.attrs().into_iter().find(|&a| a >= reference.n_attrs()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "constraint {:?} reads attribute {a}, the reference has {}",
                        dc.name,
                        reference.n_attrs()
                    ),
                ));
            }
            constraints.push(dc);
        }
        let read_ngrams = |r: &mut R| -> io::Result<Vec<NgramModel>> {
            let n = binio::read_usize(r)?;
            (0..n).map(|_| NgramModel::read_from(r)).collect()
        };
        let ngram = read_ngrams(r)?;
        let sym_ngram = read_ngrams(r)?;
        let n_len = binio::read_usize(r)?;
        let length: Vec<LengthModel> = (0..n_len)
            .map(|_| LengthModel::read_from(r))
            .collect::<io::Result<_>>()?;
        let n_emp = binio::read_usize(r)?;
        let empirical: Vec<EmpiricalModel> = (0..n_emp)
            .map(|_| EmpiricalModel::read_from(r))
            .collect::<io::Result<_>>()?;
        let cooc = if binio::read_bool(r)? {
            Some(CoocModel::read_from(r)?)
        } else {
            None
        };
        let read_emb = |r: &mut R| -> io::Result<Option<Embedding>> {
            Ok(if binio::read_bool(r)? {
                Some(Embedding::read_from(r)?)
            } else {
                None
            })
        };
        let char_emb = read_emb(r)?;
        let word_emb = read_emb(r)?;
        let tuple_emb = read_emb(r)?;
        let value_emb = read_emb(r)?;
        let n_cols = binio::read_usize(r)?;
        let mut neighbor_candidates = Vec::with_capacity(binio::bounded_cap(n_cols, 24));
        for _ in 0..n_cols {
            let n = binio::read_usize(r)?;
            let mut col = Vec::with_capacity(binio::bounded_cap(n, 24));
            for _ in 0..n {
                col.push(binio::read_str(r)?);
            }
            neighbor_candidates.push(col);
        }
        // Scoring indexes every per-column table by attribute: hold the
        // file to the shapes `Featurizer::fit` builds.
        let (na, on) = (reference.n_attrs(), |c: Component| cfg.enabled(c));
        let width = |c| if on(c) { na } else { 0 };
        let shapes_hold = [ngram.len(), sym_ngram.len(), length.len()]
            == [width(Component::FormatModels); 3]
            && empirical.len() == width(Component::EmpiricalModels)
            && neighbor_candidates.len() == width(Component::Neighborhood)
            && cooc.is_some() == on(Component::Cooccurrence)
            && cooc.as_ref().is_none_or(|c| c.has_arity(na))
            && [&char_emb, &word_emb, &tuple_emb, &value_emb].map(Option::is_some)
                == [
                    Component::CharEmbedding,
                    Component::WordEmbedding,
                    Component::TupleEmbedding,
                    Component::Neighborhood,
                ]
                .map(on);
        if !shapes_hold {
            let msg = "per-column models do not match the reference and its components";
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        }
        let counts = CountModels {
            ngram,
            sym_ngram,
            length,
            empirical,
            cooc,
            neighbor_candidates,
        };
        Ok(Self::assemble(
            cfg,
            reference,
            constraints,
            counts,
            char_emb,
            word_emb,
            tuple_emb,
            value_emb,
        ))
    }
}

/// The count-based models of a featurizer: everything a delta maintains
/// and a rebuild refits, each empty when its component is disabled.
struct CountModels {
    ngram: Vec<NgramModel>,
    sym_ngram: Vec<NgramModel>,
    length: Vec<LengthModel>,
    empirical: Vec<EmpiricalModel>,
    cooc: Option<CoocModel>,
    neighbor_candidates: Vec<Vec<String>>,
}

impl CountModels {
    /// Fit every enabled count-based model over `d`: the one path both
    /// [`Featurizer::fit`] and [`Featurizer::rebuilt_at`] take.
    fn fit(d: &Dataset, cfg: &FeatureConfig) -> Self {
        let na = d.n_attrs();
        let columns = |on: bool| if on { 0..na } else { 0..0 };
        let format = cfg.enabled(Component::FormatModels);
        CountModels {
            ngram: columns(format)
                .map(|a| NgramModel::fit(d, a, cfg.ngram_order, false))
                .collect(),
            sym_ngram: columns(format)
                .map(|a| NgramModel::fit(d, a, cfg.ngram_order, true))
                .collect(),
            length: columns(format).map(|a| LengthModel::fit(d, a)).collect(),
            empirical: columns(cfg.enabled(Component::EmpiricalModels))
                .map(|a| EmpiricalModel::fit(d, a))
                .collect(),
            cooc: cfg
                .enabled(Component::Cooccurrence)
                .then(|| CoocModel::fit(d, cfg.smoothing)),
            neighbor_candidates: columns(cfg.enabled(Component::Neighborhood))
                .map(|a| column_candidates(d, a))
                .collect(),
        }
    }
}

/// Column `a`'s distinct values as neighbourhood candidate tokens, in
/// first-appearance order (the order fitting — and therefore the
/// incremental maintainers — must reproduce: the candidate scan strides
/// when the list is long, so order is part of the contract).
fn column_candidates(d: &Dataset, a: usize) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut cands = Vec::new();
    for &s in d.column(a) {
        if seen.insert(s) {
            cands.push(value_token(a, d.pool().resolve(s)));
        }
    }
    cands
}

/// Deduplicate sentences (used for char/token corpora where cell values
/// repeat heavily).
fn dedup(sentences: Vec<Vec<String>>) -> Vec<Vec<String>> {
    let mut seen = HashSet::new();
    sentences
        .into_iter()
        .filter(|s| seen.insert(s.join("\u{1}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_constraints::parse_constraints;
    use holo_data::{DatasetBuilder, Schema};

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City", "State"]));
        for _ in 0..20 {
            b.push_row(&["60612", "Chicago", "IL"]);
            b.push_row(&["53703", "Madison", "WI"]);
        }
        b.push_row(&["60612", "Cicago", "IL"]); // FD-violating typo, row 40
        b.build()
    }

    fn fitted() -> (Dataset, Featurizer) {
        let d = dataset();
        let dcs = parse_constraints("Zip -> City", d.schema()).unwrap();
        let f = Featurizer::fit(&d, &dcs, FeatureConfig::fast());
        (d, f)
    }

    #[test]
    fn vector_matches_layout() {
        let (d, f) = fitted();
        let v = f.features(&d, CellId::new(0, 1));
        assert_eq!(v.len(), f.layout().total_dim());
        // wide: 3 format + (1 + 3) empirical + 2 cooc + 1 violations + 1 nn = 11
        assert_eq!(f.layout().wide_dim(), 11);
        assert_eq!(f.layout().n_branches(), 4);
        assert_eq!(f.layout().branch_dims, vec![16, 16, 16, 16]);
    }

    #[test]
    fn hypothetical_value_changes_features() {
        let (d, f) = fitted();
        let cell = CellId::new(0, 1);
        let observed = f.features(&d, cell);
        let hypo = f.features_with_value(&d, cell, "Cicago");
        assert_ne!(observed, hypo);
        // Empirical frequency of "Chicago" >> "Cicago".
        let freq_idx = f
            .layout()
            .wide_names
            .iter()
            .position(|n| n == "empirical:freq")
            .unwrap();
        assert!(observed[freq_idx] > hypo[freq_idx]);
    }

    #[test]
    fn violation_feature_reflects_overrides() {
        let (d, f) = fitted();
        let viol_idx = f
            .layout()
            .wide_names
            .iter()
            .position(|n| n == "violations:dc0")
            .unwrap();
        // The typo row participates in violations; fixing it clears them
        // (as a reference cell, its own observed row is no partner).
        let typo_cell = CellId::new(40, 1);
        let dirty = f.features(&d, typo_cell);
        let fixed = f.features_with_value(f.reference(), typo_cell, "Chicago");
        assert!(dirty[viol_idx] > 0.0);
        assert_eq!(fixed[viol_idx], 0.0);
    }

    #[test]
    fn queries_against_the_owned_reference_match_the_original() {
        // The featurizer owns its reference: querying through the clone
        // must equal querying through the caller's original dataset.
        let (d, f) = fitted();
        for cell in [CellId::new(0, 0), CellId::new(40, 1), CellId::new(5, 2)] {
            assert_eq!(f.features(&d, cell), f.features(f.reference(), cell));
        }
    }

    #[test]
    fn foreign_dataset_cells_are_featurizable() {
        let (d, f) = fitted();
        // A batch the featurizer never saw: one consistent tuple, one
        // breaking the FD against the reference's evidence.
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City", "State"]));
        b.push_row(&["60612", "Chicago", "IL"]);
        b.push_row(&["60612", "Springfield", "IL"]);
        let batch = b.build();

        let viol_idx = f
            .layout()
            .wide_names
            .iter()
            .position(|n| n == "violations:dc0")
            .unwrap();
        let consistent = f.features(&batch, CellId::new(0, 1));
        let breaking = f.features(&batch, CellId::new(1, 1));
        assert_eq!(consistent.len(), f.layout().total_dim());
        // The consistent tuple agrees with the reference majority: only
        // the reference typo row conflicts. The Springfield tuple
        // conflicts with every 60612 reference row.
        assert!(breaking[viol_idx] > consistent[viol_idx]);

        // Value statistics come from the reference, not the batch: a
        // batch row equal to row 0 of the caller's dataset featurizes
        // exactly like it. Both are foreign rows, and under an FD a
        // foreign copy's self-pair cancels, so both also match
        // reference row 0.
        assert_eq!(consistent, f.features(&d, CellId::new(0, 1)));
    }

    #[test]
    fn a_foreign_rows_violations_do_not_depend_on_its_position() {
        // `t1.State <= t2.State` holds for a tuple paired with itself, so
        // a copy of reference row 0 conflicts with row 0 as well. A batch
        // row is foreign at every index: at index 0 it must not take
        // reference row 0's own-row exclusion.
        let d = dataset();
        let dcs = parse_constraints("t1.Zip = t2.Zip & t1.State <= t2.State", d.schema()).unwrap();
        let f = Featurizer::fit(&d, &dcs, FeatureConfig::fast());
        let batch = |rows: &[Vec<&str>]| {
            let mut b = DatasetBuilder::new(Schema::new(["Zip", "City", "State"]));
            for row in rows {
                b.push_row(row);
            }
            b.build()
        };
        let row0 = d.tuple_values(0);
        let at1 = batch(&[vec!["53703", "Madison", "WI"], row0.clone()]);
        let at0 = batch(&[row0]);
        // The State cell: the City cell's violation feature is masked.
        assert_eq!(
            f.features(&at0, CellId::new(0, 2)),
            f.features(&at1, CellId::new(1, 2))
        );
    }

    #[test]
    fn column_one_hot_set_correctly() {
        let (d, f) = fitted();
        let names = &f.layout().wide_names;
        let col0 = names.iter().position(|n| n == "empirical:col0").unwrap();
        let v_zip = f.features(&d, CellId::new(0, 0));
        let v_city = f.features(&d, CellId::new(0, 1));
        assert_eq!(v_zip[col0], 1.0);
        assert_eq!(v_city[col0], 0.0);
        assert_eq!(v_city[col0 + 1], 1.0);
    }

    #[test]
    fn ablation_shrinks_layout() {
        let d = dataset();
        let dcs = parse_constraints("Zip -> City", d.schema()).unwrap();
        let full = Featurizer::fit(&d, &dcs, FeatureConfig::fast());
        for c in Component::ALL {
            let ablated = Featurizer::fit(&d, &dcs, FeatureConfig::fast().without(c));
            assert!(
                ablated.layout().total_dim() < full.layout().total_dim(),
                "removing {c:?} did not shrink the layout"
            );
            // Vectors still match the (smaller) layout.
            let v = ablated.features(&d, CellId::new(0, 0));
            assert_eq!(v.len(), ablated.layout().total_dim());
        }
    }

    #[test]
    fn no_constraints_means_no_violation_features() {
        let d = dataset();
        let f = Featurizer::fit(&d, &[], FeatureConfig::fast());
        assert!(!f
            .layout()
            .wide_names
            .iter()
            .any(|n| n.starts_with("violations")));
    }

    #[test]
    fn batch_matches_single() {
        let (d, f) = fitted();
        let cells = vec![
            (CellId::new(0, 0), None),
            (CellId::new(1, 2), None),
            (CellId::new(40, 1), Some("Chicago".to_owned())),
        ];
        let batch = f.features_batch(&d, &cells, 3);
        assert_eq!(batch[0], f.features(&d, CellId::new(0, 0)));
        assert_eq!(batch[1], f.features(&d, CellId::new(1, 2)));
        assert_eq!(
            batch[2],
            f.features_with_value(&d, CellId::new(40, 1), "Chicago")
        );
    }

    #[test]
    fn foreign_batch_memo_matches_single_cell_queries() {
        // The per-thread violation memo must be invisible: batch
        // featurization of a foreign dataset (mixed observed and
        // override cells across repeated tuples) equals per-cell calls.
        let (_, f) = fitted();
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City", "State"]));
        b.push_row(&["60612", "Chicago", "IL"]);
        b.push_row(&["60612", "Springfield", "IL"]);
        b.push_row(&["53703", "Madison", "WI"]);
        let batch = b.build();
        let cells = vec![
            (CellId::new(0, 0), None),
            (CellId::new(0, 1), None),
            (CellId::new(1, 1), None),
            (CellId::new(1, 1), Some("Chicago".to_owned())),
            (CellId::new(2, 2), None),
            (CellId::new(1, 0), None),
        ];
        for threads in [1, 3] {
            let out = f.features_batch(&batch, &cells, threads);
            for (i, (cell, ov)) in cells.iter().enumerate() {
                let expect = match ov {
                    Some(v) => f.features_with_value(&batch, *cell, v),
                    None => f.features(&batch, *cell),
                };
                assert_eq!(out[i], expect, "cell {cell} (threads={threads})");
            }
        }
    }

    #[test]
    fn neighbor_distance_cached_and_bounded() {
        let (d, f) = fitted();
        let v1 = f.features(&d, CellId::new(0, 1));
        let v2 = f.features(&d, CellId::new(2, 1)); // same value, same column
        let nn_idx = f
            .layout()
            .wide_names
            .iter()
            .position(|n| n == "neighborhood:dist")
            .unwrap();
        assert_eq!(v1[nn_idx], v2[nn_idx]);
        assert!((0.0..=2.0).contains(&v1[nn_idx]));
        assert!(f.nn_cache_stats().entries >= 1);
    }

    #[test]
    fn full_nn_memo_is_emptied_and_counts_evictions() {
        let memo = &mut fitted().1.nn_cache.into_inner().unwrap();
        for i in 0..NN_CACHE_CAP {
            memo.insert(i % 2, &i.to_string(), 0.5);
        }
        assert_eq!(memo.stats.entries, NN_CACHE_CAP);
        assert_eq!(memo.stats.evictions, 0);
        memo.insert(0, "one more", 0.25);
        assert_eq!(memo.stats.entries, 1);
        assert_eq!(memo.stats.evictions, NN_CACHE_CAP as u64);
        assert_eq!(memo.get(0, "one more"), Some(0.25));
        assert_eq!(memo.get(1, "1"), None);
        assert_eq!((memo.stats.hits, memo.stats.misses), (1, 1));
    }

    #[test]
    fn binary_roundtrip_reproduces_features_exactly() {
        let (d, f) = fitted();
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        let back = Featurizer::read_from(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.layout(), f.layout());
        for cell in [CellId::new(0, 0), CellId::new(40, 1), CellId::new(7, 2)] {
            let (a, b) = (f.features(&d, cell), back.features(&d, cell));
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "features for {cell} not bit-identical after reload"
            );
        }
        // Hypothetical values too (the augmented-example path).
        let (a, b) = (
            f.features_with_value(&d, CellId::new(0, 1), "Cihcago"),
            back.features_with_value(&d, CellId::new(0, 1), "Cihcago"),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_artifact_is_an_error() {
        let (_, f) = fitted();
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(Featurizer::read_from(&mut std::io::Cursor::new(buf)).is_err());
    }

    /// Features over every cell, plus one hypothetical per tuple,
    /// bit-cast for exact comparison.
    fn feature_bits(f: &Featurizer, d: &Dataset) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for cell in d.cell_ids() {
            out.push(f.features(d, cell).iter().map(|x| x.to_bits()).collect());
        }
        for t in 0..d.n_tuples() {
            out.push(
                f.features_with_value(d, CellId::new(t, 1), "Hypothetical")
                    .iter()
                    .map(|x| x.to_bits())
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn apply_delta_matches_rebuilt_bitwise() {
        let (_, mut f) = fitted();
        // Mirror the deltas on a plain dataset for the rebuild baseline.
        let mut replica = f.reference().clone();
        let ops = [
            DeltaOp::Append {
                values: vec!["60612".into(), "Springfield".into(), "IL".into()],
            },
            DeltaOp::Append {
                values: vec!["10001".into(), "NYC".into(), "NY".into()],
            },
            DeltaOp::Append {
                values: vec!["60612".into(), "Cicago".into(), "IL".into()],
            },
            DeltaOp::Append {
                values: vec!["99999".into(), "Chicago".into(), "IL".into()],
            },
        ];
        for op in &ops {
            f.apply_delta(op).unwrap();
            replica.apply_delta(op).unwrap();
        }
        let rebuilt = f.rebuilt_at(&replica);
        assert_eq!(rebuilt.layout(), f.layout());
        // Scores on the (grown) reference itself…
        assert_eq!(
            feature_bits(&f, f.reference()),
            feature_bits(&rebuilt, rebuilt.reference())
        );
        // …and on a foreign batch mixing seen and unseen values.
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City", "State"]));
        b.push_row(&["60612", "Chicago", "IL"]);
        b.push_row(&["60612", "Springfield", "IL"]);
        b.push_row(&["77777", "Lincoln", "NE"]);
        let batch = b.build();
        assert_eq!(feature_bits(&f, &batch), feature_bits(&rebuilt, &batch));
    }

    #[test]
    fn apply_delta_rejects_invalid_ops_without_mutating() {
        let (_, mut f) = fitted();
        let before = f.reference().n_tuples();
        assert!(f
            .apply_delta(&DeltaOp::Append {
                values: vec!["too".into(), "short".into()]
            })
            .is_err());
        assert_eq!(f.reference().n_tuples(), before);
    }

    #[test]
    fn appending_new_value_invalidates_nn_cache() {
        let (_, mut f) = fitted();
        // Warm Zip, City and State.
        for a in 0..3 {
            f.features(f.reference(), CellId::new(0, a));
        }
        let warm = f.nn_cache_stats();
        assert_eq!((warm.entries, warm.misses), (3, 3));
        // A row new only in City: only City's distances can be stale.
        f.apply_delta(&DeltaOp::Append {
            values: vec!["60612".into(), "Odessa".into(), "IL".into()],
        })
        .unwrap();
        assert_eq!(f.nn_cache_stats().entries, 2, "City was dropped");
        // Zip and State still hit; City misses once.
        for a in [0, 2] {
            f.features(f.reference(), CellId::new(0, a));
        }
        assert_eq!(f.nn_cache_stats().misses, warm.misses);
        f.features(f.reference(), CellId::new(0, 1));
        assert_eq!(f.nn_cache_stats().misses, warm.misses + 1);
        // Appending only already-known values keeps the memo.
        f.apply_delta(&DeltaOp::Append {
            values: vec!["60612".into(), "Chicago".into(), "IL".into()],
        })
        .unwrap();
        assert_eq!(f.nn_cache_stats().entries, 3);
    }

    #[test]
    fn artifact_missing_a_column_is_an_error_not_a_panic() {
        let (_, f) = fitted();
        let mut bad = f.rebuilt_at(f.reference());
        bad.ngram.pop();
        bad.neighbor_candidates.pop();
        let mut buf = Vec::new();
        bad.write_to(&mut buf).unwrap();
        let err = Featurizer::read_from(&mut std::io::Cursor::new(buf))
            .err()
            .expect("a short per-column table must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn batch_work_queue_handles_many_shapes() {
        // The atomic-cursor queue must cover exactly every slot for any
        // cells/threads shape (more threads than grains, odd remainders).
        let (d, f) = fitted();
        let cells: Vec<(CellId, Option<String>)> =
            d.cell_ids().take(37).map(|c| (c, None)).collect();
        let expect: Vec<Vec<f32>> = cells.iter().map(|(c, _)| f.features(&d, *c)).collect();
        for threads in [1, 2, 3, 7, 64] {
            assert_eq!(
                f.features_batch(&d, &cells, threads),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn all_features_finite() {
        let (d, f) = fitted();
        for cell in [CellId::new(0, 0), CellId::new(40, 1), CellId::new(5, 2)] {
            for (i, x) in f.features(&d, cell).iter().enumerate() {
                assert!(x.is_finite(), "non-finite feature {i} for {cell}");
            }
        }
        // Hypothetical never-seen value also stays finite.
        for x in f.features_with_value(&d, CellId::new(0, 0), "@@##!!") {
            assert!(x.is_finite());
        }
    }
}
