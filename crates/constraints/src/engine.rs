//! Violation detection.
//!
//! The dataset-level representation of the paper needs, per cell, "the
//! number of violations per denial constraint" associated with the cell's
//! tuple (Table 7), and the CV baseline needs the set of implicated
//! tuples. Both come from [`ConstraintIndex`], which counts, for every
//! tuple `t`, the number of *conflicting partner tuples* `s ≠ t` such
//! that the constraint's forbidden conjunction holds on `(t, s)` or
//! `(s, t)`.
//!
//! Three evaluation strategies, picked per constraint shape:
//!
//! * **FD fast path** — constraints of the form
//!   `¬(⋀ t1.K = t2.K ∧ t1.B != t2.B)`: counts come from two hash maps
//!   (block sizes and key+RHS agreement counts) in `O(n)`.
//! * **Blocked** — any binary constraint with at least one `t1.A = t2.A`
//!   predicate: hash-partition on the join key, then scan partners within
//!   the block (capped and scaled for pathological block sizes).
//! * **Unkeyed / Unary** — capped pairwise scan, or a linear scan for
//!   single-tuple check constraints.
//!
//! Every strategy also answers one query for a tuple given by its
//! values, [`ConstraintIndex::violations`]: how many indexed rows would
//! it conflict with? A tuple that *is* indexed row `t` with one cell
//! changed (an augmented example) passes `own = Some(t)`, so row `t` is
//! not its own partner; any other tuple (a row of a scored batch) passes
//! `None`.

use crate::ast::{DenialConstraint, Operand, Predicate};
use holo_data::{Dataset, Symbol};
use std::collections::HashMap;

/// Partner-scan cap for pathological blocks / unkeyed constraints.
/// Counts are scaled by the sampled fraction, keeping features unbiased.
const SCAN_CAP: usize = 4096;

/// Per-constraint violation index over one dataset.
#[derive(Debug)]
pub struct ConstraintIndex {
    dc: DenialConstraint,
    kind: IndexKind,
    /// `tuple_counts[t]` = number of conflicting partner tuples (or 1 for
    /// a violated unary constraint).
    tuple_counts: Vec<u32>,
}

#[derive(Debug)]
enum IndexKind {
    Fd {
        keys: Vec<usize>,
        rhs: usize,
        /// key symbols → number of tuples with that key
        block: HashMap<Box<[Symbol]>, u32>,
        /// (key symbols, rhs symbol) → number of tuples agreeing
        agree: HashMap<(Box<[Symbol]>, Symbol), u32>,
        /// key symbols → member tuple ids (ascending). The partition the
        /// append maintainer recounts: appending one row touches only the
        /// tuples sharing its key, never the table.
        rows: HashMap<Box<[Symbol]>, Vec<u32>>,
    },
    Blocked {
        keys: Vec<usize>,
        residual: Vec<Predicate>,
        /// key symbols → member tuple ids
        blocks: HashMap<Box<[Symbol]>, Vec<u32>>,
    },
    Unkeyed {
        residual: Vec<Predicate>,
    },
    Unary,
}

impl ConstraintIndex {
    /// Build the index for one constraint.
    pub fn build(dataset: &Dataset, dc: DenialConstraint) -> Self {
        let kind = Self::classify(&dc);
        let mut idx = ConstraintIndex {
            dc,
            kind,
            tuple_counts: Vec::new(),
        };
        idx.populate(dataset);
        idx
    }

    fn classify(dc: &DenialConstraint) -> IndexKind {
        if !dc.is_binary() {
            return IndexKind::Unary;
        }
        let mut keys = Vec::new();
        let mut residual = Vec::new();
        for p in &dc.predicates {
            if let Some(a) = p.is_eq_join() {
                keys.push(a);
            } else {
                residual.push(p.clone());
            }
        }
        if keys.is_empty() {
            return IndexKind::Unkeyed { residual };
        }
        // FD shape: exactly one residual predicate, `t1.B != t2.B`.
        if residual.len() == 1 {
            if let Some(rhs) = residual[0].is_neq_same_attr() {
                return IndexKind::Fd {
                    keys,
                    rhs,
                    block: HashMap::new(),
                    agree: HashMap::new(),
                    rows: HashMap::new(),
                };
            }
        }
        IndexKind::Blocked {
            keys,
            residual,
            blocks: HashMap::new(),
        }
    }

    fn populate(&mut self, d: &Dataset) {
        let n = d.n_tuples();
        self.tuple_counts = vec![0; n];
        match &mut self.kind {
            IndexKind::Unary => {
                for t in 0..n {
                    if eval_conjunction(&self.dc.predicates, d, t, t) {
                        self.tuple_counts[t] = 1;
                    }
                }
            }
            IndexKind::Fd {
                keys,
                rhs,
                block,
                agree,
                rows,
            } => {
                block.reserve(n / 4);
                for t in 0..n {
                    let key = key_symbols(d, t, keys);
                    let b = d.symbol(t, *rhs);
                    *block.entry(key.clone()).or_insert(0) += 1;
                    *agree.entry((key.clone(), b)).or_insert(0) += 1;
                    rows.entry(key).or_default().push(t as u32);
                }
                for t in 0..n {
                    let key = key_symbols(d, t, keys);
                    let b = d.symbol(t, *rhs);
                    let in_block = block[&key];
                    let agreeing = agree[&(key, b)];
                    self.tuple_counts[t] = in_block - agreeing;
                }
            }
            IndexKind::Blocked {
                keys,
                residual,
                blocks,
            } => {
                for t in 0..n {
                    let key = key_symbols(d, t, keys);
                    blocks.entry(key).or_default().push(t as u32);
                }
                let residual = residual.clone();
                for members in blocks.values() {
                    count_pairs_in_block(&residual, d, members, &mut self.tuple_counts);
                }
            }
            IndexKind::Unkeyed { residual } => {
                let all: Vec<u32> = (0..n as u32).collect();
                let residual = residual.clone();
                count_pairs_in_block(&residual, d, &all, &mut self.tuple_counts);
            }
        }
    }

    /// The constraint this index serves.
    pub fn constraint(&self) -> &DenialConstraint {
        &self.dc
    }

    /// Number of conflicting partners for tuple `t`.
    #[inline]
    pub fn tuple_violations(&self, t: usize) -> u32 {
        self.tuple_counts[t]
    }

    /// Per-tuple counts for all tuples.
    pub fn tuple_counts(&self) -> &[u32] {
        &self.tuple_counts
    }

    /// Tuples participating in at least one violation.
    pub fn violating_tuples(&self) -> impl Iterator<Item = usize> + '_ {
        self.tuple_counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(t, _)| t)
    }

    /// Total number of tuples with at least one violation.
    pub fn n_violating_tuples(&self) -> usize {
        self.tuple_counts.iter().filter(|&&c| c > 0).count()
    }

    /// Conflicts between a tuple, given as its values in schema order,
    /// and the rows of `d`, the dataset this index was built over.
    ///
    /// `own = Some(t)` says the tuple *is* row `t` of `d`, possibly with
    /// changed cells: row `t` is then not counted as its own partner, so
    /// row `t`'s observed values reproduce
    /// [`ConstraintIndex::tuple_violations`]. With `own = None` the tuple
    /// is foreign (a row of a scored batch) and every row of `d` is a
    /// partner candidate.
    pub fn violations(&self, d: &Dataset, values: &[&str], own: Option<usize>) -> u32 {
        match &self.kind {
            // Unary constraints mention only t1: the partner is never read.
            IndexKind::Unary => u32::from(eval_values(&self.dc.predicates, d, values, 0, true)),
            IndexKind::Fd {
                keys,
                rhs,
                block,
                agree,
                ..
            } => {
                let Some(key) = value_key_symbols(d, values, keys) else {
                    return 0; // never-seen key value: no row shares it
                };
                let b = d.pool().get(values[*rhs]); // `None`: agrees with nobody
                let mut in_block = block.get(&key).copied().unwrap_or(0);
                let mut agreeing = b
                    .and_then(|b| agree.get(&(key.clone(), b)).copied())
                    .unwrap_or(0);
                if let Some(t) = own {
                    // Row `t` sits in this block only if its key matches.
                    if keys.iter().zip(&*key).all(|(&a, &k)| d.symbol(t, a) == k) {
                        in_block -= 1;
                        agreeing -= u32::from(b == Some(d.symbol(t, *rhs)));
                    }
                }
                in_block - agreeing
            }
            IndexKind::Blocked {
                keys,
                residual,
                blocks,
            } => {
                let Some(members) = value_key_symbols(d, values, keys).and_then(|k| blocks.get(&k))
                else {
                    return 0;
                };
                let own = own.filter(|&t| members.binary_search(&(t as u32)).is_ok());
                count_partners(
                    residual,
                    d,
                    values,
                    members.len(),
                    |i| members[i] as usize,
                    own,
                )
            }
            IndexKind::Unkeyed { residual } => {
                count_partners(residual, d, values, d.n_tuples(), |i| i, own)
            }
        }
    }

    // -------------------------------------------------- incremental ops
    //
    // The streaming maintainer: apply one appended row to the index
    // *in place of* a rebuild, with the guarantee that the maintained
    // counts are bitwise-identical to `ConstraintIndex::build` over the
    // grown dataset. An append recounts only the hash partition the new
    // row joins, using the *same* per-block counting code the builder
    // uses — identical inputs, identical arithmetic, identical
    // (stride-sampled, order-sensitive) estimates. The new row's id is
    // the largest, so pushing it keeps member lists ascending, exactly
    // as a rebuild's `0..n` scan produces them.
    //
    // The `Unkeyed` shape has no partition to scope a recount to; it
    // falls back to a full repopulate (rare in practice — it only
    // arises for binary constraints with no equality join at all).

    /// Maintain the index after a row was appended: `d` already
    /// contains the new row, at index `t_new == d.n_tuples() - 1`.
    pub fn apply_append(&mut self, d: &Dataset, t_new: usize) {
        debug_assert_eq!(t_new + 1, d.n_tuples());
        match &mut self.kind {
            IndexKind::Unary => {
                let hit = eval_conjunction(&self.dc.predicates, d, t_new, t_new);
                self.tuple_counts.push(u32::from(hit));
            }
            IndexKind::Fd {
                keys,
                rhs,
                block,
                agree,
                rows,
            } => {
                let key = key_symbols(d, t_new, keys);
                let b = d.symbol(t_new, *rhs);
                *block.entry(key.clone()).or_insert(0) += 1;
                *agree.entry((key.clone(), b)).or_insert(0) += 1;
                let members = rows.entry(key.clone()).or_default();
                members.push(t_new as u32);
                self.tuple_counts.push(0);
                let in_block = block[&key];
                for &m in members.iter() {
                    let mb = d.symbol(m as usize, *rhs);
                    self.tuple_counts[m as usize] = in_block - agree[&(key.clone(), mb)];
                }
            }
            IndexKind::Blocked {
                keys,
                residual,
                blocks,
            } => {
                let key = key_symbols(d, t_new, keys);
                let members = blocks.entry(key).or_default();
                members.push(t_new as u32);
                self.tuple_counts.push(0);
                for &m in members.iter() {
                    self.tuple_counts[m as usize] = 0;
                }
                count_pairs_in_block(residual, d, members, &mut self.tuple_counts);
            }
            IndexKind::Unkeyed { .. } => self.populate(d),
        }
    }
}

/// Engine over a set of constraints: builds one index per constraint.
#[derive(Debug)]
pub struct ViolationEngine {
    indexes: Vec<ConstraintIndex>,
}

impl ViolationEngine {
    /// Build indexes for every constraint over `dataset`.
    pub fn build(dataset: &Dataset, constraints: &[DenialConstraint]) -> Self {
        let indexes = constraints
            .iter()
            .map(|dc| ConstraintIndex::build(dataset, dc.clone()))
            .collect();
        ViolationEngine { indexes }
    }

    /// The per-constraint indexes.
    pub fn indexes(&self) -> &[ConstraintIndex] {
        &self.indexes
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// `true` when no constraints were supplied.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// The violation-count vector for tuple `t`: one entry per constraint.
    pub fn tuple_vector(&self, t: usize) -> Vec<u32> {
        self.indexes
            .iter()
            .map(|ix| ix.tuple_violations(t))
            .collect()
    }

    /// [`ConstraintIndex::violations`] for every constraint.
    pub fn vector(&self, d: &Dataset, values: &[&str], own: Option<usize>) -> Vec<u32> {
        self.indexes
            .iter()
            .map(|ix| ix.violations(d, values, own))
            .collect()
    }

    /// Maintain every index after an append (see
    /// [`ConstraintIndex::apply_append`]).
    pub fn apply_append(&mut self, d: &Dataset) {
        let t_new = d.n_tuples() - 1;
        for ix in &mut self.indexes {
            ix.apply_append(d, t_new);
        }
    }
}

// ---------------------------------------------------------------------
// helpers

/// Key symbols of row `t`.
fn key_symbols(d: &Dataset, t: usize, keys: &[usize]) -> Box<[Symbol]> {
    keys.iter().map(|&a| d.symbol(t, a)).collect()
}

/// Key symbols of a tuple given as values, or `None` when any key value
/// is one the pool has never seen (such a key matches no block).
fn value_key_symbols(d: &Dataset, values: &[&str], keys: &[usize]) -> Option<Box<[Symbol]>> {
    keys.iter().map(|&a| d.pool().get(values[a])).collect()
}

/// Resolve an operand where one side of the pair is a tuple given as
/// `values` (schema order) and the other is row `s` of `d`.
/// `values_are_t1` says which constraint variable `values` plays.
fn resolve_values<'a>(
    d: &'a Dataset,
    operand: &'a Operand,
    values: &[&'a str],
    s: usize,
    values_are_t1: bool,
) -> &'a str {
    match operand {
        Operand::Const(c) => c,
        Operand::Var { tuple, attr } => {
            if (*tuple == 0) == values_are_t1 {
                values[*attr]
            } else {
                d.value(s, *attr)
            }
        }
    }
}

fn eval_values(
    preds: &[Predicate],
    d: &Dataset,
    values: &[&str],
    s: usize,
    values_are_t1: bool,
) -> bool {
    preds.iter().all(|p| {
        let l = resolve_values(d, &p.left, values, s, values_are_t1);
        let r = resolve_values(d, &p.right, values, s, values_are_t1);
        p.op.eval(l, r)
    })
}

fn resolve<'a>(d: &'a Dataset, operand: &'a Operand, t1: usize, t2: usize) -> &'a str {
    match operand {
        Operand::Const(c) => c,
        Operand::Var { tuple, attr } => d.value(if *tuple == 0 { t1 } else { t2 }, *attr),
    }
}

fn eval_conjunction(preds: &[Predicate], d: &Dataset, t1: usize, t2: usize) -> bool {
    preds.iter().all(|p| {
        let l = resolve(d, &p.left, t1, t2);
        let r = resolve(d, &p.right, t1, t2);
        p.op.eval(l, r)
    })
}

/// Count, for each member of `members`, its conflicting partners within
/// `members` (residual predicates only; equality keys already agree).
/// Full `O(m²)` when the block is small, otherwise capped + scaled.
fn count_pairs_in_block(residual: &[Predicate], d: &Dataset, members: &[u32], counts: &mut [u32]) {
    let m = members.len();
    if m < 2 {
        return;
    }
    if m * m <= SCAN_CAP * 4 {
        for (i, &ti) in members.iter().enumerate() {
            for &tj in &members[i + 1..] {
                let (a, b) = (ti as usize, tj as usize);
                if eval_conjunction(residual, d, a, b) || eval_conjunction(residual, d, b, a) {
                    counts[a] += 1;
                    counts[b] += 1;
                }
            }
        }
    } else {
        for &ti in members {
            let t = ti as usize;
            let values = d.tuple_values(t);
            counts[t] = count_partners(residual, d, &values, m, |i| members[i] as usize, Some(t));
        }
    }
}

/// Conflicting partners of the tuple with `values` among `n` candidate
/// rows of `d` (`member(i)` is the `i`-th), not counting row `own`,
/// which must be a candidate when given. Past [`SCAN_CAP`] candidates
/// the scan samples at a fixed stride and scales the hits back to the
/// candidate count for an unbiased estimate.
fn count_partners(
    residual: &[Predicate],
    d: &Dataset,
    values: &[&str],
    n: usize,
    member: impl Fn(usize) -> usize,
    own: Option<usize>,
) -> u32 {
    let others = n.saturating_sub(usize::from(own.is_some()));
    if others == 0 {
        return 0;
    }
    let mut sampled = 0usize;
    let mut hits = 0usize;
    for s in (0..n).step_by((n / SCAN_CAP).max(1)).map(member) {
        if Some(s) == own {
            continue;
        }
        sampled += 1;
        if eval_values(residual, d, values, s, true) || eval_values(residual, d, values, s, false) {
            hits += 1;
        }
    }
    if sampled == 0 {
        return 0;
    }
    ((hits as f64) * (others as f64) / (sampled as f64)).round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraints;
    use holo_data::{DatasetBuilder, Schema};

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City", "Score"]));
        b.push_row(&["60612", "Chicago", "5"]);
        b.push_row(&["60612", "Chicago", "7"]);
        b.push_row(&["60612", "Cicago", "3"]); // FD violation with rows 0,1
        b.push_row(&["53703", "Madison", "-2"]); // check violation
        b.build()
    }

    fn engine(spec: &str) -> (Dataset, ViolationEngine) {
        let d = dataset();
        let dcs = parse_constraints(spec, d.schema()).unwrap();
        let e = ViolationEngine::build(&d, &dcs);
        (d, e)
    }

    #[test]
    fn fd_counts_conflicting_partners() {
        let (_, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        assert_eq!(ix.tuple_violations(0), 1); // conflicts with row 2
        assert_eq!(ix.tuple_violations(1), 1);
        assert_eq!(ix.tuple_violations(2), 2); // conflicts with rows 0 and 1
        assert_eq!(ix.tuple_violations(3), 0);
        assert_eq!(ix.n_violating_tuples(), 3);
    }

    #[test]
    fn unary_check_constraint() {
        let (_, e) = engine("t1.Score < '0'");
        let ix = &e.indexes()[0];
        assert_eq!(ix.tuple_violations(3), 1);
        assert_eq!(ix.tuple_violations(0), 0);
        assert_eq!(ix.n_violating_tuples(), 1);
    }

    #[test]
    fn clean_fd_no_violations() {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        b.push_row(&["1", "a"]);
        b.push_row(&["1", "a"]);
        b.push_row(&["2", "b"]);
        let d = b.build();
        let dcs = parse_constraints("Zip -> City", d.schema()).unwrap();
        let e = ViolationEngine::build(&d, &dcs);
        assert_eq!(e.indexes()[0].n_violating_tuples(), 0);
    }

    /// Row `t`'s values with cell `(t, a)` set to `v`.
    fn with_cell<'a>(d: &'a Dataset, t: usize, a: usize, v: &'a str) -> Vec<&'a str> {
        let mut values = d.tuple_values(t);
        values[a] = v;
        values
    }

    #[test]
    fn override_fixing_the_error_clears_violations() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        // Fixing row 2's City to "Chicago" removes all its conflicts.
        assert_eq!(
            ix.violations(&d, &with_cell(&d, 2, 1, "Chicago"), Some(2)),
            0
        );
        // And row 0 would keep its single conflict (query doesn't mutate).
        assert_eq!(ix.tuple_violations(0), 1);
    }

    #[test]
    fn override_introducing_an_error_adds_violations() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        // Breaking row 1's City creates conflicts with rows 0 (Chicago)
        // and 2 (Cicago): both differ from the override value.
        assert_eq!(
            ix.violations(&d, &with_cell(&d, 1, 1, "Madison"), Some(1)),
            2
        );
    }

    #[test]
    fn override_with_unseen_value_on_key() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        // A brand-new Zip matches no block: zero conflicts.
        assert_eq!(ix.violations(&d, &with_cell(&d, 2, 0, "99999"), Some(2)), 0);
    }

    #[test]
    fn override_on_unrelated_attr_is_unchanged() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        assert_eq!(ix.violations(&d, &with_cell(&d, 2, 2, "100"), Some(2)), 2);
    }

    #[test]
    fn override_unary() {
        let (d, e) = engine("t1.Score < '0'");
        let ix = &e.indexes()[0];
        assert_eq!(ix.violations(&d, &with_cell(&d, 3, 2, "4"), Some(3)), 0);
        assert_eq!(ix.violations(&d, &with_cell(&d, 0, 2, "-9"), Some(0)), 1);
    }

    #[test]
    fn blocked_constraint_with_extra_predicate() {
        // Same Zip and similar City but different Score: a "near
        // duplicate with conflicting score" rule (not FD-shaped).
        let (_, e) = engine("t1.Zip = t2.Zip & t1.City ~ t2.City & t1.Score != t2.Score");
        let ix = &e.indexes()[0];
        // Rows 0,1,2 share zip; all city pairs are similar; scores differ.
        assert_eq!(ix.tuple_violations(0), 2);
        assert_eq!(ix.tuple_violations(1), 2);
        assert_eq!(ix.tuple_violations(2), 2);
        assert_eq!(ix.tuple_violations(3), 0);
    }

    #[test]
    fn blocked_override() {
        let (d, e) = engine("t1.Zip = t2.Zip & t1.City ~ t2.City & t1.Score != t2.Score");
        let ix = &e.indexes()[0];
        // Moving row 2 to a fresh zip removes its conflicts.
        assert_eq!(ix.violations(&d, &with_cell(&d, 2, 0, "00000"), Some(2)), 0);
        // Matching row 0's score removes exactly the row-0 conflict.
        assert_eq!(ix.violations(&d, &with_cell(&d, 2, 2, "5"), Some(2)), 1);
    }

    #[test]
    fn unkeyed_constraint() {
        // No eq-join predicate at all: every pair is checked.
        let (_, e) = engine("t1.City = t2.City & t1.Zip != t2.Zip");
        // This is actually FD-shaped on City after classification — use a
        // genuinely unkeyed one instead:
        let d = dataset();
        let dcs = parse_constraints("t1.City ~ t2.City & t1.Zip != t2.Zip", d.schema()).unwrap();
        let e2 = ViolationEngine::build(&d, &dcs);
        // Chicago ~ Cicago with different zips? zips are equal (60612) so
        // no violation; Madison isn't similar to anything else.
        assert_eq!(e2.indexes()[0].n_violating_tuples(), 0);
        drop(e);
    }

    #[test]
    fn external_tuple_matches_internal_for_member_tuples() {
        // A row's own values reproduce its fit-time count, as its own
        // row and as a foreign copy: the self-pair cancels through the
        // agreement counts (FD) or fails the disequality (blocked).
        for spec in [
            "Zip -> City",
            "t1.Zip = t2.Zip & t1.City ~ t2.City & t1.Score != t2.Score",
        ] {
            let (d, e) = engine(spec);
            let ix = &e.indexes()[0];
            for t in 0..d.n_tuples() {
                let vals = d.tuple_values(t);
                for own in [Some(t), None] {
                    assert_eq!(
                        ix.violations(&d, &vals, own),
                        ix.tuple_violations(t),
                        "{spec}: tuple {t}, own {own:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_foreign_copy_of_a_row_meets_that_row() {
        // `t1.Score <= t2.Score` holds for a tuple paired with itself, so
        // a foreign copy of row 0 conflicts with row 0 too; as row 0 it
        // does not.
        let (d, e) = engine("t1.Zip = t2.Zip & t1.Score <= t2.Score");
        let ix = &e.indexes()[0];
        let row0 = d.tuple_values(0);
        assert_eq!(ix.violations(&d, &row0, Some(0)), ix.tuple_violations(0));
        assert_eq!(ix.violations(&d, &row0, None), ix.tuple_violations(0) + 1);
    }

    #[test]
    fn external_new_tuple_counts_reference_conflicts() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        // A new 60612 tuple with a fresh city conflicts with all three
        // 60612 reference rows.
        assert_eq!(ix.violations(&d, &["60612", "Springfield", "1"], None), 3);
        // Agreeing with the majority leaves only the Cicago conflict.
        assert_eq!(ix.violations(&d, &["60612", "Chicago", "1"], None), 1);
        // A never-seen key matches no block.
        assert_eq!(ix.violations(&d, &["99999", "Chicago", "1"], None), 0);
    }

    #[test]
    fn external_unary_and_vector() {
        let (d, e) = engine("Zip -> City\nt1.Score < '0'");
        assert_eq!(e.vector(&d, &["60612", "Cicago", "-3"], None), vec![2, 1]);
        assert_eq!(e.vector(&d, &["53703", "Madison", "4"], None), vec![0, 0]);
    }

    #[test]
    fn engine_vectors() {
        let (d, e) = engine("Zip -> City\nt1.Score < '0'");
        assert_eq!(e.len(), 2);
        assert_eq!(e.tuple_vector(2), vec![2, 0]);
        assert_eq!(e.tuple_vector(3), vec![0, 1]);
        assert_eq!(
            e.vector(&d, &with_cell(&d, 2, 1, "Chicago"), Some(2)),
            vec![0, 0]
        );
    }

    #[test]
    fn empty_engine() {
        let d = dataset();
        let e = ViolationEngine::build(&d, &[]);
        assert!(e.is_empty());
        assert!(e.tuple_vector(0).is_empty());
    }

    /// Append rows to both the dataset and the engine, then assert the
    /// maintained counts equal a rebuild after each.
    fn assert_delta_matches_rebuild(spec: &str) {
        let (mut d, mut e) = engine(spec);
        let dcs: Vec<DenialConstraint> = e.indexes().iter().map(|ix| ix.dc.clone()).collect();
        let check = |d: &Dataset, e: &ViolationEngine, what: &str| {
            let fresh = ViolationEngine::build(d, &dcs);
            for (a, b) in e.indexes().iter().zip(fresh.indexes()) {
                assert_eq!(a.tuple_counts(), b.tuple_counts(), "{spec}: after {what}");
            }
        };

        // Append a conflicting row.
        d.push_row(&["60612", "Springfield", "9"]);
        e.apply_append(&d);
        check(&d, &e, "append conflicting");
        // Append a fresh-key row.
        d.push_row(&["99999", "Nowhere", "1"]);
        e.apply_append(&d);
        check(&d, &e, "append fresh");
        // Append a row that only the third attribute tells apart.
        d.push_row(&["60612", "Chicago", "-1"]);
        e.apply_append(&d);
        check(&d, &e, "append unrelated");
        // Append into the now-largest block.
        d.push_row(&["60612", "Cicago", "3"]);
        e.apply_append(&d);
        check(&d, &e, "append into block");
    }

    #[test]
    fn incremental_fd_matches_rebuild() {
        assert_delta_matches_rebuild("Zip -> City");
    }

    #[test]
    fn incremental_blocked_matches_rebuild() {
        assert_delta_matches_rebuild("t1.Zip = t2.Zip & t1.City ~ t2.City & t1.Score != t2.Score");
    }

    #[test]
    fn incremental_unary_matches_rebuild() {
        assert_delta_matches_rebuild("t1.Score < '0'");
    }

    #[test]
    fn incremental_unkeyed_matches_rebuild() {
        assert_delta_matches_rebuild("t1.City ~ t2.City & t1.Zip != t2.Zip");
    }

    #[test]
    fn incremental_multi_constraint_engine() {
        assert_delta_matches_rebuild("Zip -> City\nt1.Score < '0'");
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::parser::parse_constraints;
    use holo_data::{DatasetBuilder, Schema};
    use proptest::prelude::*;

    /// One constraint of each index shape: FD, blocked, unary, unkeyed.
    const SHAPES: &str = "K -> V\n\
                          t1.K = t2.K & t1.V != t2.V & t1.W != t2.W\n\
                          t1.V = 'v0'\n\
                          t1.V ~ t2.V & t1.W != t2.W";

    /// A `K, V, W` table with values `k*`, `v*`, `w*`.
    fn table(rows: &[(u8, u8, u8)]) -> Dataset {
        let mut b = DatasetBuilder::new(Schema::new(["K", "V", "W"]));
        for (k, v, w) in rows {
            b.push_row(&[format!("k{k}"), format!("v{v}"), format!("w{w}")]);
        }
        b.build()
    }

    /// Brute-force partner counting for cross-checking the fast paths.
    fn brute_force(d: &Dataset, dc: &DenialConstraint) -> Vec<u32> {
        let n = d.n_tuples();
        let mut counts = vec![0u32; n];
        for (t, count) in counts.iter_mut().enumerate() {
            for s in 0..n {
                if s == t {
                    continue;
                }
                if eval_conjunction(&dc.predicates, d, t, s)
                    || eval_conjunction(&dc.predicates, d, s, t)
                {
                    *count += 1;
                }
            }
        }
        counts
    }

    proptest! {
        /// FD fast path agrees with brute force on random small tables.
        #[test]
        fn fd_matches_brute_force(rows in proptest::collection::vec(
            (0u8..4, 0u8..4), 1..24)
        ) {
            let mut b = DatasetBuilder::new(Schema::new(["K", "V"]));
            for (k, v) in &rows {
                b.push_row(&[format!("k{k}"), format!("v{v}")]);
            }
            let d = b.build();
            let dcs = parse_constraints("K -> V", d.schema()).unwrap();
            let e = ViolationEngine::build(&d, &dcs);
            let expect = brute_force(&d, e.indexes()[0].constraint());
            prop_assert_eq!(e.indexes()[0].tuple_counts(), expect.as_slice());
        }

        /// The own-excluding query equals the maintained count of an
        /// engine rebuilt over a copy with that one cell set, for every
        /// index shape and any attribute, keys included (`3` is a value
        /// the pool has never seen).
        #[test]
        fn override_matches_rebuild(
            rows in proptest::collection::vec((0u8..3, 0u8..3, 0u8..3), 2..16),
            target in 0usize..16,
            attr in 0usize..3,
            newv in 0u8..4,
        ) {
            let d = table(&rows);
            let t = target % rows.len();
            let value = format!("{}{newv}", ["k", "v", "w"][attr]);
            let dcs = parse_constraints(SHAPES, d.schema()).unwrap();
            let e = ViolationEngine::build(&d, &dcs);
            let mut values = d.tuple_values(t);
            values[attr] = &value;
            let hypothetical = e.vector(&d, &values, Some(t));

            let mut d2 = d.clone();
            d2.set_value(t, attr, &value);
            let rebuilt = ViolationEngine::build(&d2, &dcs);
            prop_assert_eq!(hypothetical, rebuilt.tuple_vector(t));
        }

        /// A random sequence of appends maintained through
        /// `apply_append` equals an index rebuilt from scratch over the
        /// grown dataset — for every index shape at once.
        #[test]
        fn random_deltas_match_rebuild(
            rows in proptest::collection::vec((0u8..3, 0u8..3, 0u8..3), 2..12),
            appends in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4), 0..24),
        ) {
            let mut d = table(&rows);
            let dcs = parse_constraints(SHAPES, d.schema()).unwrap();
            let mut e = ViolationEngine::build(&d, &dcs);

            for &(k, v, w) in &appends {
                d.push_row(&[format!("k{k}"), format!("v{v}"), format!("w{w}")]);
                e.apply_append(&d);
            }

            let fresh = ViolationEngine::build(&d, &dcs);
            for (a, b) in e.indexes().iter().zip(fresh.indexes()) {
                prop_assert_eq!(a.tuple_counts(), b.tuple_counts());
            }
        }

        /// Blocked path agrees with brute force.
        #[test]
        fn blocked_matches_brute_force(rows in proptest::collection::vec(
            (0u8..3, 0u8..3, 0u8..3), 1..16)
        ) {
            let d = table(&rows);
            let dcs = parse_constraints(
                "t1.K = t2.K & t1.V != t2.V & t1.W != t2.W", d.schema()).unwrap();
            let e = ViolationEngine::build(&d, &dcs);
            let expect = brute_force(&d, e.indexes()[0].constraint());
            prop_assert_eq!(e.indexes()[0].tuple_counts(), expect.as_slice());
        }
    }
}
