//! The wide (fixed, non-learnable) representation models.
//!
//! Per-column n-gram format models with Laplace smoothing (Appendix A.1,
//! after Huang & He \[30\]), per-column empirical value distributions, and
//! the pairwise co-occurrence model.
//!
//! Every model here is an *owned artifact*: fitted once over the
//! reference dataset, then queried with plain strings so the same model
//! scores cells of any later batch — the query dataset's interning pool
//! never leaks into the statistics. All models serialize through
//! [`holo_data::binio`] so trained artifacts survive process restarts.

use holo_data::{binio, Dataset, Symbol};
use holo_text::{char_ngrams, symbolize};
use std::collections::HashMap;
use std::io::{self, Read, Write};

/// A smoothed n-gram distribution for one column (optionally over the
/// symbolic `{C,N,S}` alphabet).
#[derive(Debug, Clone)]
pub struct NgramModel {
    order: usize,
    symbolic: bool,
    counts: HashMap<String, u64>,
    total: u64,
    /// Smoothing denominator: observed distinct grams plus headroom for
    /// unseen grams (a tractable stand-in for "all possible ASCII
    /// 3-grams" from the paper).
    vocab: f64,
}

impl NgramModel {
    /// Fit over one column of the dataset.
    pub fn fit(d: &Dataset, attr: usize, order: usize, symbolic: bool) -> Self {
        let mut counts: HashMap<String, u64> = HashMap::new();
        let mut total = 0u64;
        // Count over distinct values weighted by frequency, via symbols.
        let mut value_freq: HashMap<Symbol, u64> = HashMap::new();
        for &s in d.column(attr) {
            *value_freq.entry(s).or_insert(0) += 1;
        }
        for (&sym, &freq) in &value_freq {
            let raw = d.pool().resolve(sym);
            let view = if symbolic {
                symbolize(raw)
            } else {
                raw.to_owned()
            };
            for g in char_ngrams(&view, order) {
                *counts.entry(g).or_insert(0) += freq;
                total += freq;
            }
        }
        let vocab = if symbolic {
            // |{C,N,S}|^order possible grams.
            (3f64).powi(order as i32)
        } else {
            counts.len() as f64 + 1000.0
        };
        NgramModel {
            order,
            symbolic,
            counts,
            total,
            vocab,
        }
    }

    /// Smoothed probability of one n-gram.
    pub fn prob(&self, gram: &str) -> f64 {
        let c = self.counts.get(gram).copied().unwrap_or(0) as f64;
        (c + 1.0) / (self.total as f64 + self.vocab)
    }

    /// The paper's fixed-dimension aggregate: probability of the *least*
    /// probable n-gram of `value` (symbolized first when this is a
    /// symbolic model).
    pub fn least_prob(&self, value: &str) -> f64 {
        let view = if self.symbolic {
            symbolize(value)
        } else {
            value.to_owned()
        };
        char_ngrams(&view, self.order)
            .iter()
            .map(|g| self.prob(g))
            .fold(f64::INFINITY, f64::min)
    }

    /// A bounded feature in roughly `\[0, 1\]`: `−ln p / 20`, clipped.
    pub fn feature(&self, value: &str) -> f32 {
        let p = self.least_prob(value).max(1e-300);
        ((-p.ln()) / 20.0).min(1.5) as f32
    }

    /// Count `value`'s grams into the model (a streamed row arrived).
    /// Keeps the model identical to a from-scratch fit over the grown
    /// column, including the smoothing denominator.
    pub fn add_value(&mut self, value: &str) {
        let view = if self.symbolic {
            symbolize(value)
        } else {
            value.to_owned()
        };
        for g in char_ngrams(&view, self.order) {
            *self.counts.entry(g).or_insert(0) += 1;
            self.total += 1;
        }
        // The smoothing denominator, exactly as `fit` computes it.
        if !self.symbolic {
            self.vocab = self.counts.len() as f64 + 1000.0;
        }
    }

    /// Serialize the fitted model.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        binio::write_usize(w, self.order)?;
        binio::write_bool(w, self.symbolic)?;
        binio::write_usize(w, self.counts.len())?;
        for (g, &c) in &self.counts {
            binio::write_str(w, g)?;
            binio::write_u64(w, c)?;
        }
        binio::write_u64(w, self.total)?;
        binio::write_f64(w, self.vocab)
    }

    /// Deserialize a model written by [`NgramModel::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<NgramModel> {
        let order = binio::read_usize(r)?;
        let symbolic = binio::read_bool(r)?;
        let n = binio::read_usize(r)?;
        let mut counts = HashMap::with_capacity(binio::bounded_cap(n, 48));
        for _ in 0..n {
            let g = binio::read_str(r)?;
            counts.insert(g, binio::read_u64(r)?);
        }
        let total = binio::read_u64(r)?;
        let vocab = binio::read_f64(r)?;
        Ok(NgramModel {
            order,
            symbolic,
            counts,
            total,
            vocab,
        })
    }
}

/// Per-column distribution over value *lengths* (in chars). Part of the
/// format-model family: insertion/deletion typos in fixed-width fields
/// (zip codes, numeric ids) change the length but may keep every n-gram
/// plausible, so the n-gram models alone miss them.
#[derive(Debug, Clone)]
pub struct LengthModel {
    counts: HashMap<usize, u64>,
    total: u64,
}

impl LengthModel {
    /// Fit over one column.
    pub fn fit(d: &Dataset, attr: usize) -> Self {
        let mut counts: HashMap<usize, u64> = HashMap::new();
        let mut total = 0u64;
        for &s in d.column(attr) {
            let len = d.pool().resolve(s).chars().count();
            *counts.entry(len).or_insert(0) += 1;
            total += 1;
        }
        LengthModel { counts, total }
    }

    /// Smoothed probability that a value in this column has the length
    /// of `value`.
    pub fn prob(&self, value: &str) -> f32 {
        let len = value.chars().count();
        let c = self.counts.get(&len).copied().unwrap_or(0) as f64;
        ((c + 1.0) / (self.total as f64 + self.counts.len() as f64 + 1.0)) as f32
    }

    /// Count `value`'s length into the model (a streamed row arrived).
    pub fn add_value(&mut self, value: &str) {
        let len = value.chars().count();
        *self.counts.entry(len).or_insert(0) += 1;
        self.total += 1;
    }

    /// Serialize the fitted model.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        binio::write_usize(w, self.counts.len())?;
        for (&len, &c) in &self.counts {
            binio::write_usize(w, len)?;
            binio::write_u64(w, c)?;
        }
        binio::write_u64(w, self.total)
    }

    /// Deserialize a model written by [`LengthModel::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<LengthModel> {
        let n = binio::read_usize(r)?;
        let mut counts = HashMap::with_capacity(binio::bounded_cap(n, 16));
        for _ in 0..n {
            let len = binio::read_usize(r)?;
            counts.insert(len, binio::read_u64(r)?);
        }
        Ok(LengthModel {
            counts,
            total: binio::read_u64(r)?,
        })
    }
}

/// Per-column empirical value distribution, keyed by value string so the
/// model answers queries from any dataset (not just the fit-time pool).
#[derive(Debug, Clone)]
pub struct EmpiricalModel {
    counts: HashMap<String, u32>,
    n: usize,
}

impl EmpiricalModel {
    /// Fit over one column.
    pub fn fit(d: &Dataset, attr: usize) -> Self {
        let mut by_symbol: HashMap<Symbol, u32> = HashMap::new();
        for &s in d.column(attr) {
            *by_symbol.entry(s).or_insert(0) += 1;
        }
        let counts = by_symbol
            .into_iter()
            .map(|(sym, c)| (d.pool().resolve(sym).to_owned(), c))
            .collect();
        EmpiricalModel {
            counts,
            n: d.n_tuples(),
        }
    }

    /// Empirical probability of a value (0 for unseen values).
    pub fn prob(&self, value: &str) -> f32 {
        if self.n == 0 {
            return 0.0;
        }
        self.counts.get(value).copied().unwrap_or(0) as f32 / self.n as f32
    }

    /// Number of distinct values observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Register a streamed row's value for this column: the column
    /// gained one cell, so both the value count and the row total grow.
    pub fn add_value(&mut self, value: &str) {
        *self.counts.entry(value.to_owned()).or_insert(0) += 1;
        self.n += 1;
    }

    /// Serialize the fitted model.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        binio::write_usize(w, self.counts.len())?;
        for (v, &c) in &self.counts {
            binio::write_str(w, v)?;
            binio::write_u32(w, c)?;
        }
        binio::write_usize(w, self.n)
    }

    /// Deserialize a model written by [`EmpiricalModel::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<EmpiricalModel> {
        let len = binio::read_usize(r)?;
        let mut counts = HashMap::with_capacity(binio::bounded_cap(len, 48));
        for _ in 0..len {
            let v = binio::read_str(r)?;
            counts.insert(v, binio::read_u32(r)?);
        }
        Ok(EmpiricalModel {
            counts,
            n: binio::read_usize(r)?,
        })
    }
}

/// Pairwise co-occurrence statistics: for a cell value `v` in column `a`
/// and each other column `a'`, the smoothed conditional
/// `P(v_{a'} | v)` — how typical the observed partner value is.
///
/// Counts are keyed by the *fit-time* pool's symbols; the model carries
/// its own string→symbol mirror of that pool, so queries arrive as plain
/// strings (from whichever dataset is being scored) and values the fit
/// data never saw fall through to pure smoothing mass.
#[derive(Debug, Clone)]
pub struct CoocModel {
    /// Fit-pool mirror: value string → fit-time symbol.
    ids: HashMap<String, Symbol>,
    /// `joint[a][a2]`: (sym_a, sym_a2) → count, for a < a2.
    joint: Vec<Vec<HashMap<(Symbol, Symbol), u32>>>,
    /// Per-column value counts.
    counts: Vec<HashMap<Symbol, u32>>,
    /// Per-column distinct value counts (smoothing denominators).
    distinct: Vec<f64>,
    smoothing: f64,
}

impl CoocModel {
    /// Fit over all column pairs.
    pub fn fit(d: &Dataset, smoothing: f64) -> Self {
        let na = d.n_attrs();
        let mut joint: Vec<Vec<HashMap<(Symbol, Symbol), u32>>> = (0..na)
            .map(|a| vec![HashMap::new(); na.saturating_sub(a + 1)])
            .collect();
        let mut counts: Vec<HashMap<Symbol, u32>> = vec![HashMap::new(); na];
        for t in 0..d.n_tuples() {
            for a in 0..na {
                let va = d.symbol(t, a);
                *counts[a].entry(va).or_insert(0) += 1;
                for a2 in (a + 1)..na {
                    let vb = d.symbol(t, a2);
                    *joint[a][a2 - a - 1].entry((va, vb)).or_insert(0) += 1;
                }
            }
        }
        let distinct = counts.iter().map(|c| (c.len() as f64).max(1.0)).collect();
        let ids = d
            .pool()
            .iter()
            .map(|(sym, s)| (s.to_owned(), sym))
            .collect();
        CoocModel {
            ids,
            joint,
            counts,
            distinct,
            smoothing,
        }
    }

    fn joint_count(&self, a: usize, sa: Symbol, a2: usize, sb: Symbol) -> u32 {
        let (lo, hi, key) = if a < a2 {
            (a, a2, (sa, sb))
        } else {
            (a2, a, (sb, sa))
        };
        self.joint[lo][hi - lo - 1].get(&key).copied().unwrap_or(0)
    }

    /// Smoothed `P(partner | value)` where `value` (possibly
    /// hypothetical) lives in column `a` and `partner` is the observed
    /// value string in column `a2` of the tuple being scored.
    pub fn conditional(&self, a: usize, value: &str, a2: usize, partner: &str) -> f32 {
        let eps = self.smoothing;
        let (joint, base) = match self.ids.get(value) {
            Some(&sym) => {
                let joint = self
                    .ids
                    .get(partner)
                    .map_or(0, |&psym| self.joint_count(a, sym, a2, psym));
                (joint, self.counts[a].get(&sym).copied().unwrap_or(0))
            }
            None => (0, 0),
        };
        ((f64::from(joint) + eps) / (f64::from(base) + eps * self.distinct[a2])) as f32
    }

    /// The co-occurrence feature vector for a cell of `d` (the dataset
    /// being scored — fit-time or a later batch): one conditional per
    /// other column, in column order (`#attrs − 1` dimensions).
    pub fn features(&self, d: &Dataset, t: usize, a: usize, value: &str) -> Vec<f32> {
        let na = d.n_attrs();
        let mut out = Vec::with_capacity(na.saturating_sub(1));
        for a2 in 0..na {
            if a2 == a {
                continue;
            }
            out.push(self.conditional(a, value, a2, d.value(t, a2)));
        }
        out
    }

    /// Whether every table is shaped for `na` columns, as
    /// [`CoocModel::fit`] builds them over an `na`-column dataset.
    pub(crate) fn has_arity(&self, na: usize) -> bool {
        self.joint.len() == na
            && self
                .joint
                .iter()
                .enumerate()
                .all(|(a, row)| row.len() == na - a - 1)
            && self.counts.len() == na
            && self.distinct.len() == na
    }

    /// Intern a streamed value into the model's private pool mirror
    /// (new values get fresh dense symbols; the ids only ever serve as
    /// hash keys, so the numbering never affects conditionals).
    fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.ids.get(s) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.ids.len()).expect("cooc id overflow"));
        self.ids.insert(s.to_owned(), sym);
        sym
    }

    /// Count a streamed row into the joint/marginal tables, keeping
    /// every conditional identical to a from-scratch fit over the grown
    /// dataset (smoothing denominators included).
    pub fn add_row(&mut self, values: &[String]) {
        let na = self.counts.len();
        debug_assert_eq!(values.len(), na, "cooc row arity");
        let syms: Vec<Symbol> = values.iter().map(|v| self.intern(v)).collect();
        for a in 0..na {
            *self.counts[a].entry(syms[a]).or_insert(0) += 1;
            for a2 in (a + 1)..na {
                *self.joint[a][a2 - a - 1]
                    .entry((syms[a], syms[a2]))
                    .or_insert(0) += 1;
            }
        }
        // The smoothing denominators, exactly as `fit` computes them.
        for (d, c) in self.distinct.iter_mut().zip(&self.counts) {
            *d = (c.len() as f64).max(1.0);
        }
    }

    /// Serialize the fitted model.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        binio::write_usize(w, self.ids.len())?;
        for (s, sym) in &self.ids {
            binio::write_str(w, s)?;
            binio::write_u32(w, sym.0)?;
        }
        binio::write_usize(w, self.joint.len())?;
        for row in &self.joint {
            binio::write_usize(w, row.len())?;
            for map in row {
                binio::write_usize(w, map.len())?;
                for (&(sa, sb), &c) in map {
                    binio::write_u32(w, sa.0)?;
                    binio::write_u32(w, sb.0)?;
                    binio::write_u32(w, c)?;
                }
            }
        }
        binio::write_usize(w, self.counts.len())?;
        for map in &self.counts {
            binio::write_usize(w, map.len())?;
            for (&sym, &c) in map {
                binio::write_u32(w, sym.0)?;
                binio::write_u32(w, c)?;
            }
        }
        binio::write_usize(w, self.distinct.len())?;
        for &x in &self.distinct {
            binio::write_f64(w, x)?;
        }
        binio::write_f64(w, self.smoothing)
    }

    /// Deserialize a model written by [`CoocModel::write_to`].
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<CoocModel> {
        let n_ids = binio::read_usize(r)?;
        let mut ids = HashMap::with_capacity(binio::bounded_cap(n_ids, 48));
        for _ in 0..n_ids {
            let s = binio::read_str(r)?;
            ids.insert(s, Symbol(binio::read_u32(r)?));
        }
        let na = binio::read_usize(r)?;
        let mut joint = Vec::with_capacity(binio::bounded_cap(na, 48));
        for _ in 0..na {
            let row_len = binio::read_usize(r)?;
            let mut row = Vec::with_capacity(binio::bounded_cap(row_len, 48));
            for _ in 0..row_len {
                let m = binio::read_usize(r)?;
                let mut map = HashMap::with_capacity(binio::bounded_cap(m, 16));
                for _ in 0..m {
                    let sa = Symbol(binio::read_u32(r)?);
                    let sb = Symbol(binio::read_u32(r)?);
                    map.insert((sa, sb), binio::read_u32(r)?);
                }
                row.push(map);
            }
            joint.push(row);
        }
        let nc = binio::read_usize(r)?;
        let mut counts = Vec::with_capacity(binio::bounded_cap(nc, 48));
        for _ in 0..nc {
            let m = binio::read_usize(r)?;
            let mut map = HashMap::with_capacity(binio::bounded_cap(m, 12));
            for _ in 0..m {
                let sym = Symbol(binio::read_u32(r)?);
                map.insert(sym, binio::read_u32(r)?);
            }
            counts.push(map);
        }
        let nd = binio::read_usize(r)?;
        let mut distinct = Vec::with_capacity(binio::bounded_cap(nd, 8));
        for _ in 0..nd {
            distinct.push(binio::read_f64(r)?);
        }
        let smoothing = binio::read_f64(r)?;
        Ok(CoocModel {
            ids,
            joint,
            counts,
            distinct,
            smoothing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_data::{DatasetBuilder, Schema};

    fn zips() -> Dataset {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for _ in 0..50 {
            b.push_row(&["60612", "Chicago"]);
        }
        for _ in 0..50 {
            b.push_row(&["53703", "Madison"]);
        }
        b.push_row(&["6061x", "Chicago"]); // format outlier
        b.build()
    }

    #[test]
    fn cooc_arity_is_the_fitted_column_count() {
        let m = CoocModel::fit(&zips(), 1.0);
        assert!(m.has_arity(2));
        assert!(!m.has_arity(1));
        assert!(!m.has_arity(3));
    }

    #[test]
    fn ngram_scores_clean_below_dirty() {
        let d = zips();
        let m = NgramModel::fit(&d, 0, 3, false);
        // "606" style grams are common; grams containing 'x' are rare.
        assert!(m.least_prob("60612") > m.least_prob("6061x"));
        assert!(m.feature("6061x") > m.feature("60612"));
    }

    #[test]
    fn symbolic_ngram_catches_class_errors() {
        let d = zips();
        let m = NgramModel::fit(&d, 0, 3, true);
        // All-digit zips dominate; a zip with a letter is an outlier in
        // the symbolic alphabet.
        assert!(m.least_prob("60612") > m.least_prob("6061x"));
    }

    #[test]
    fn ngram_feature_bounded() {
        let d = zips();
        let m = NgramModel::fit(&d, 0, 3, false);
        for v in ["60612", "6061x", "", "!!!!!"] {
            let f = m.feature(v);
            assert!((0.0..=1.5).contains(&f), "feature {f} for {v:?}");
        }
    }

    #[test]
    fn length_model_catches_width_changes() {
        let d = zips();
        let m = LengthModel::fit(&d, 0);
        // All zips are 5 chars; 4- and 6-char values are outliers.
        assert!(m.prob("60612") > 5.0 * m.prob("6061"));
        assert!(m.prob("60612") > 5.0 * m.prob("606123"));
    }

    #[test]
    fn length_model_empty_column() {
        let d = DatasetBuilder::new(Schema::new(["A", "B"])).build();
        let m = LengthModel::fit(&d, 0);
        assert!(m.prob("anything") > 0.0);
    }

    #[test]
    fn empirical_probabilities() {
        let d = zips();
        let m = EmpiricalModel::fit(&d, 0);
        assert!((m.prob("60612") - 50.0 / 101.0).abs() < 1e-6);
        assert!((m.prob("6061x") - 1.0 / 101.0).abs() < 1e-6);
        assert_eq!(m.prob("99999"), 0.0);
        assert_eq!(m.distinct(), 3);
    }

    #[test]
    fn cooc_prefers_consistent_pairs() {
        let d = zips();
        let m = CoocModel::fit(&d, 1.0);
        // P(City=Chicago | Zip=60612) should dwarf P(City=Madison | ...).
        let good = m.conditional(0, "60612", 1, "Chicago");
        let bad = m.conditional(0, "60612", 1, "Madison");
        assert!(good > 10.0 * bad, "good {good} vs bad {bad}");
    }

    #[test]
    fn cooc_hypothetical_unseen_value() {
        let d = zips();
        let m = CoocModel::fit(&d, 1.0);
        // With zero evidence the smoothed conditional collapses to the
        // uniform prior 1/|distinct cities| = 0.5 here.
        let p = m.conditional(0, "totally-new", 1, "Chicago");
        assert!(p > 0.0 && p <= 0.5, "smoothed unseen conditional {p}");
    }

    #[test]
    fn cooc_feature_vector_width() {
        let d = zips();
        let m = CoocModel::fit(&d, 1.0);
        assert_eq!(m.features(&d, 0, 0, "60612").len(), 1);
        assert_eq!(m.features(&d, 0, 1, "Chicago").len(), 1);
    }

    #[test]
    fn cooc_answers_queries_from_a_foreign_dataset() {
        let d = zips();
        let m = CoocModel::fit(&d, 1.0);
        // A freshly built dataset with its own (differently-ordered)
        // pool: the model's answers must match fit-dataset queries.
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        b.push_row(&["nothing", "shared"]); // shifts the pool's symbols
        b.push_row(&["60612", "Chicago"]);
        b.push_row(&["60612", "Madison"]);
        let other = b.build();
        assert_eq!(
            m.features(&other, 1, 0, "60612"),
            m.features(&d, 0, 0, "60612"),
            "consistent pair via foreign dataset"
        );
        let good = m.features(&other, 1, 0, "60612")[0];
        let swapped = m.features(&other, 2, 0, "60612")[0];
        assert!(good > 10.0 * swapped, "good {good} vs swapped {swapped}");
    }

    #[test]
    fn wide_models_binary_roundtrip() {
        let d = zips();
        let ngram = NgramModel::fit(&d, 0, 3, false);
        let sym = NgramModel::fit(&d, 0, 3, true);
        let length = LengthModel::fit(&d, 0);
        let emp = EmpiricalModel::fit(&d, 0);
        let cooc = CoocModel::fit(&d, 1.0);

        let mut buf = Vec::new();
        ngram.write_to(&mut buf).unwrap();
        sym.write_to(&mut buf).unwrap();
        length.write_to(&mut buf).unwrap();
        emp.write_to(&mut buf).unwrap();
        cooc.write_to(&mut buf).unwrap();

        let mut r = std::io::Cursor::new(buf);
        let ngram2 = NgramModel::read_from(&mut r).unwrap();
        let sym2 = NgramModel::read_from(&mut r).unwrap();
        let length2 = LengthModel::read_from(&mut r).unwrap();
        let emp2 = EmpiricalModel::read_from(&mut r).unwrap();
        let cooc2 = CoocModel::read_from(&mut r).unwrap();

        for v in ["60612", "6061x", "never-seen", ""] {
            assert_eq!(ngram.feature(v).to_bits(), ngram2.feature(v).to_bits());
            assert_eq!(sym.feature(v).to_bits(), sym2.feature(v).to_bits());
            assert_eq!(length.prob(v).to_bits(), length2.prob(v).to_bits());
            assert_eq!(emp.prob(v).to_bits(), emp2.prob(v).to_bits());
            assert_eq!(
                cooc.conditional(0, v, 1, "Chicago").to_bits(),
                cooc2.conditional(0, v, 1, "Chicago").to_bits()
            );
        }
    }

    #[test]
    fn incremental_updates_match_refit_bitwise() {
        // Fit over the first 60 rows, stream the remaining 41 in, and
        // the models must answer every probe exactly like a from-scratch
        // fit over all 101 — including the smoothing denominators that
        // depend on distinct counts.
        let full = zips();
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for t in 0..60 {
            b.push_row(&full.tuple_values(t));
        }
        let small = b.build();

        let mut ngram = NgramModel::fit(&small, 0, 3, false);
        let mut sym = NgramModel::fit(&small, 0, 3, true);
        let mut length = LengthModel::fit(&small, 0);
        let mut emp = EmpiricalModel::fit(&small, 0);
        let mut cooc = CoocModel::fit(&small, 1.0);
        for t in 60..full.n_tuples() {
            let row: Vec<String> = full.tuple_values(t).iter().map(|s| s.to_string()).collect();
            ngram.add_value(&row[0]);
            sym.add_value(&row[0]);
            length.add_value(&row[0]);
            emp.add_value(&row[0]);
            cooc.add_row(&row);
        }

        let ngram2 = NgramModel::fit(&full, 0, 3, false);
        let sym2 = NgramModel::fit(&full, 0, 3, true);
        let length2 = LengthModel::fit(&full, 0);
        let emp2 = EmpiricalModel::fit(&full, 0);
        let cooc2 = CoocModel::fit(&full, 1.0);
        for v in ["60612", "6061x", "never-seen", ""] {
            assert_eq!(ngram.feature(v).to_bits(), ngram2.feature(v).to_bits());
            assert_eq!(sym.feature(v).to_bits(), sym2.feature(v).to_bits());
            assert_eq!(length.prob(v).to_bits(), length2.prob(v).to_bits());
            assert_eq!(emp.prob(v).to_bits(), emp2.prob(v).to_bits());
            for partner in ["Chicago", "Madison", "nope"] {
                assert_eq!(
                    cooc.conditional(0, v, 1, partner).to_bits(),
                    cooc2.conditional(0, v, 1, partner).to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_column_models_are_safe() {
        let d = DatasetBuilder::new(Schema::new(["A", "B"])).build();
        let ng = NgramModel::fit(&d, 0, 3, false);
        assert!(ng.least_prob("abc") > 0.0);
        let em = EmpiricalModel::fit(&d, 0);
        assert_eq!(em.prob("abc"), 0.0);
        let co = CoocModel::fit(&d, 1.0);
        // Conditional on a hypothetical value over an empty table is
        // pure smoothing mass.
        assert!(co.conditional(0, "x", 1, "y") >= 0.0);
    }
}
