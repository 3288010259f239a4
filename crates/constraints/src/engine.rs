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
//! Every strategy also answers *hypothetical* queries — "how many
//! conflicts would tuple `t` have if cell `(t, a)` held value `v`?" —
//! which the featurizer needs for augmented (transformed) examples.

use crate::ast::{DenialConstraint, Operand, Predicate};
use holo_data::{Dataset, Symbol};
use std::collections::HashMap;

/// Partner-scan cap for pathological blocks / unkeyed constraints.
/// Counts are scaled by the sampled fraction, keeping features unbiased.
const SCAN_CAP: usize = 4096;

/// A cell-value override: pretend cell `(tuple, attr)` holds `value`.
#[derive(Debug, Clone, Copy)]
struct Override<'a> {
    tuple: usize,
    attr: usize,
    value: &'a str,
}

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
        /// incremental maintainers recount after a delta: appending one
        /// row touches only the tuples sharing its key, never the table.
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
                    if eval_conjunction(&self.dc.predicates, d, t, t, None) {
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
                    let key = key_symbols(d, t, keys, None);
                    let b = d.symbol(t, *rhs);
                    *block.entry(key.clone()).or_insert(0) += 1;
                    *agree.entry((key.clone(), b)).or_insert(0) += 1;
                    rows.entry(key).or_default().push(t as u32);
                }
                for t in 0..n {
                    let key = key_symbols(d, t, keys, None);
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
                    let key = key_symbols(d, t, keys, None);
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

    /// Conflicts between an *external* tuple — given as its resolved
    /// values in schema order — and the reference dataset this index was
    /// built over. This is the serving-time query: a trained artifact
    /// scores tuples of an unseen batch against the reference data it
    /// was fitted on. The external tuple is not assumed to be a member
    /// of the reference, so no self-pair is excluded; a residual with a
    /// disequality (the common case) rejects identical pairs anyway, so
    /// re-presenting a reference tuple reproduces its fit-time count.
    pub fn external_tuple_violations(&self, reference: &Dataset, values: &[&str]) -> u32 {
        match &self.kind {
            IndexKind::Unary => {
                // Unary constraints mention only t1; evaluate directly on
                // the external values (the partner index is never read).
                u32::from(eval_conjunction_ext(
                    &self.dc.predicates,
                    reference,
                    values,
                    0,
                    true,
                ))
            }
            IndexKind::Fd {
                keys,
                rhs,
                block,
                agree,
                ..
            } => {
                let Some(key) = external_key_symbols(reference, values, keys) else {
                    return 0; // never-seen key value: no reference partner
                };
                let in_block = block.get(&key).copied().unwrap_or(0);
                let agreeing = match reference.pool().get(values[*rhs]) {
                    Some(b) => agree.get(&(key, b)).copied().unwrap_or(0),
                    None => 0, // brand-new value agrees with nobody
                };
                in_block.saturating_sub(agreeing)
            }
            IndexKind::Blocked {
                keys,
                residual,
                blocks,
            } => {
                let Some(key) = external_key_symbols(reference, values, keys) else {
                    return 0;
                };
                let Some(members) = blocks.get(&key) else {
                    return 0;
                };
                count_partners_ext(residual, reference, values, members.len(), |i| {
                    members[i] as usize
                })
            }
            IndexKind::Unkeyed { residual } => {
                count_partners_ext(residual, reference, values, reference.n_tuples(), |i| i)
            }
        }
    }

    /// Hypothetical count: violations for tuple `t` if cell `(t, attr)`
    /// held `value` instead of its observed value.
    pub fn tuple_violations_with_override(
        &self,
        d: &Dataset,
        t: usize,
        attr: usize,
        value: &str,
    ) -> u32 {
        // If the overridden attribute is not mentioned by the constraint
        // the count cannot change.
        if !self.dc.attrs().contains(&attr) {
            return self.tuple_counts[t];
        }
        let ov = Override {
            tuple: t,
            attr,
            value,
        };
        match &self.kind {
            IndexKind::Unary => u32::from(eval_conjunction(&self.dc.predicates, d, t, t, Some(ov))),
            IndexKind::Fd {
                keys,
                rhs,
                block,
                agree,
                ..
            } => {
                let orig_key = key_symbols(d, t, keys, None);
                let orig_b = d.symbol(t, *rhs);
                let new_key = match key_symbols_opt(d, t, keys, Some(ov)) {
                    Some(k) => k,
                    // Key contains a never-seen value: no partners share it.
                    None => return 0,
                };
                let new_b = if *rhs == attr {
                    d.pool().get(value)
                } else {
                    Some(orig_b)
                };
                let mut in_block = block.get(&new_key).copied().unwrap_or(0);
                if new_key == orig_key {
                    in_block -= 1; // exclude self
                }
                let mut agreeing = match new_b {
                    Some(b) => agree.get(&(new_key.clone(), b)).copied().unwrap_or(0),
                    None => 0, // brand-new value agrees with nobody
                };
                if new_key == orig_key && new_b == Some(orig_b) {
                    agreeing -= 1; // exclude self
                }
                in_block - agreeing
            }
            IndexKind::Blocked {
                keys,
                residual,
                blocks,
            } => {
                let new_key = match key_symbols_opt(d, t, keys, Some(ov)) {
                    Some(k) => k,
                    None => return 0,
                };
                let Some(members) = blocks.get(&new_key) else {
                    return 0;
                };
                count_partners_for(residual, d, t, members, Some(ov))
            }
            IndexKind::Unkeyed { residual } => {
                let all: Vec<u32> = (0..d.n_tuples() as u32).collect();
                count_partners_for(residual, d, t, &all, Some(ov))
            }
        }
    }

    // -------------------------------------------------- incremental ops
    //
    // The streaming maintainers: apply one dataset delta to the index
    // *in place of* a rebuild, with the guarantee that the maintained
    // counts are bitwise-identical to `ConstraintIndex::build` over the
    // post-delta dataset. Each op recounts only the hash partition(s)
    // the changed tuple belongs to, using the *same* per-block counting
    // code the builder uses — identical inputs, identical arithmetic,
    // identical (stride-sampled, order-sensitive) estimates. Member
    // lists are kept ascending, exactly as a rebuild's `0..n` scan
    // produces them, so the sampled paths see the same sequences.
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
                let hit = eval_conjunction(&self.dc.predicates, d, t_new, t_new, None);
                self.tuple_counts.push(u32::from(hit));
            }
            IndexKind::Fd {
                keys,
                rhs,
                block,
                agree,
                rows,
            } => {
                let key = key_symbols(d, t_new, keys, None);
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
                let key = key_symbols(d, t_new, keys, None);
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

    /// Maintain the index after cell `(t, attr)` changed: `d` already
    /// holds the new value; `old_values` is the tuple's full pre-update
    /// row (its strings are still interned — pools never shrink).
    pub fn apply_update(&mut self, d: &Dataset, t: usize, attr: usize, old_values: &[String]) {
        if !self.dc.attrs().contains(&attr) {
            return; // the constraint never reads this attribute
        }
        match &mut self.kind {
            IndexKind::Unary => {
                let hit = eval_conjunction(&self.dc.predicates, d, t, t, None);
                self.tuple_counts[t] = u32::from(hit);
            }
            IndexKind::Fd {
                keys,
                rhs,
                block,
                agree,
                rows,
            } => {
                let old_key = interned_key_symbols(d, old_values, keys);
                let old_b = interned_symbol(d, &old_values[*rhs]);
                let new_key = key_symbols(d, t, keys, None);
                let new_b = d.symbol(t, *rhs);
                decrement(block, &old_key);
                decrement_pair(agree, (old_key.clone(), old_b));
                *block.entry(new_key.clone()).or_insert(0) += 1;
                *agree.entry((new_key.clone(), new_b)).or_insert(0) += 1;
                if old_key != new_key {
                    remove_member(rows, &old_key, t);
                    insert_member(rows, new_key.clone(), t);
                }
                for key in dedup_keys(&old_key, &new_key) {
                    let Some(members) = rows.get(key) else {
                        continue;
                    };
                    let in_block = block.get(key).copied().unwrap_or(0);
                    let bkey: Box<[Symbol]> = Box::from(key);
                    for &m in members {
                        let mb = d.symbol(m as usize, *rhs);
                        let agreeing = agree.get(&(bkey.clone(), mb)).copied().unwrap_or(0);
                        self.tuple_counts[m as usize] = in_block - agreeing;
                    }
                }
            }
            IndexKind::Blocked {
                keys,
                residual,
                blocks,
            } => {
                let old_key = interned_key_symbols(d, old_values, keys);
                let new_key = key_symbols(d, t, keys, None);
                if old_key != new_key {
                    remove_member(blocks, &old_key, t);
                    insert_member(blocks, new_key.clone(), t);
                }
                let residual = residual.clone();
                for key in dedup_keys(&old_key, &new_key) {
                    let Some(members) = blocks.get(key) else {
                        continue;
                    };
                    for &m in members {
                        self.tuple_counts[m as usize] = 0;
                    }
                    count_pairs_in_block(&residual, d, members, &mut self.tuple_counts);
                }
            }
            IndexKind::Unkeyed { .. } => self.populate(d),
        }
    }

    /// Maintain the index after tuple `t` was removed: `d` no longer
    /// contains the row (later rows shifted up by one); `old_values` is
    /// the removed row.
    pub fn apply_delete(&mut self, d: &Dataset, t: usize, old_values: &[String]) {
        match &mut self.kind {
            IndexKind::Unary => {
                self.tuple_counts.remove(t);
            }
            IndexKind::Fd {
                keys,
                rhs,
                block,
                agree,
                rows,
            } => {
                let old_key = interned_key_symbols(d, old_values, keys);
                let old_b = interned_symbol(d, &old_values[*rhs]);
                decrement(block, &old_key);
                decrement_pair(agree, (old_key.clone(), old_b));
                remove_member(rows, &old_key, t);
                shift_members_down(rows.values_mut(), t);
                self.tuple_counts.remove(t);
                if let Some(members) = rows.get(&old_key) {
                    let in_block = block.get(&old_key).copied().unwrap_or(0);
                    for &m in members {
                        let mb = d.symbol(m as usize, *rhs);
                        let agreeing = agree.get(&(old_key.clone(), mb)).copied().unwrap_or(0);
                        self.tuple_counts[m as usize] = in_block - agreeing;
                    }
                }
            }
            IndexKind::Blocked {
                keys,
                residual,
                blocks,
            } => {
                let old_key = interned_key_symbols(d, old_values, keys);
                remove_member(blocks, &old_key, t);
                shift_members_down(blocks.values_mut(), t);
                self.tuple_counts.remove(t);
                let residual = residual.clone();
                if let Some(members) = blocks.get(&old_key) {
                    for &m in members {
                        self.tuple_counts[m as usize] = 0;
                    }
                    count_pairs_in_block(&residual, d, members, &mut self.tuple_counts);
                }
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

    /// Violation-count vector for an external tuple (resolved values in
    /// schema order) against the reference dataset: one entry per
    /// constraint. See [`ConstraintIndex::external_tuple_violations`].
    pub fn external_tuple_vector(&self, reference: &Dataset, values: &[&str]) -> Vec<u32> {
        self.indexes
            .iter()
            .map(|ix| ix.external_tuple_violations(reference, values))
            .collect()
    }

    /// Hypothetical violation-count vector under a cell override.
    pub fn tuple_vector_with_override(
        &self,
        d: &Dataset,
        t: usize,
        attr: usize,
        value: &str,
    ) -> Vec<u32> {
        self.indexes
            .iter()
            .map(|ix| ix.tuple_violations_with_override(d, t, attr, value))
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

    /// Maintain every index after a cell update (see
    /// [`ConstraintIndex::apply_update`]).
    pub fn apply_update(&mut self, d: &Dataset, t: usize, attr: usize, old_values: &[String]) {
        for ix in &mut self.indexes {
            ix.apply_update(d, t, attr, old_values);
        }
    }

    /// Maintain every index after a row deletion (see
    /// [`ConstraintIndex::apply_delete`]).
    pub fn apply_delete(&mut self, d: &Dataset, t: usize, old_values: &[String]) {
        for ix in &mut self.indexes {
            ix.apply_delete(d, t, old_values);
        }
    }
}

// ---------------------------------------------------------------------
// helpers

/// The symbol of a value that is guaranteed interned (it sat in a cell
/// of `d` before the delta — pools never shrink).
fn interned_symbol(d: &Dataset, value: &str) -> Symbol {
    d.pool()
        .get(value)
        .expect("pre-delta value must be interned")
}

/// Key symbols of a pre-delta row given as resolved values.
fn interned_key_symbols(d: &Dataset, values: &[String], keys: &[usize]) -> Box<[Symbol]> {
    keys.iter()
        .map(|&a| interned_symbol(d, &values[a]))
        .collect::<Vec<_>>()
        .into_boxed_slice()
}

/// Decrement a block-count entry, dropping it at zero so the map stays
/// identical to one built from scratch over the post-delta dataset.
fn decrement(map: &mut HashMap<Box<[Symbol]>, u32>, key: &[Symbol]) {
    if let Some(c) = map.get_mut(key) {
        *c -= 1;
        if *c == 0 {
            map.remove(key);
        }
    }
}

/// [`decrement`] for the FD agreement map.
fn decrement_pair(map: &mut HashMap<(Box<[Symbol]>, Symbol), u32>, key: (Box<[Symbol]>, Symbol)) {
    if let Some(c) = map.get_mut(&key) {
        *c -= 1;
        if *c == 0 {
            map.remove(&key);
        }
    }
}

/// Remove tuple `t` from its (ascending) member list, dropping empty
/// lists entirely (as a rebuild would never create them).
fn remove_member(map: &mut HashMap<Box<[Symbol]>, Vec<u32>>, key: &[Symbol], t: usize) {
    if let Some(members) = map.get_mut(key) {
        if let Ok(i) = members.binary_search(&(t as u32)) {
            members.remove(i);
        }
        if members.is_empty() {
            map.remove(key);
        }
    }
}

/// Insert tuple `t` into a member list at its sorted position, keeping
/// the ascending order a rebuild's `0..n` scan produces (the sampled
/// counting paths are order-sensitive).
fn insert_member(map: &mut HashMap<Box<[Symbol]>, Vec<u32>>, key: Box<[Symbol]>, t: usize) {
    let members = map.entry(key).or_default();
    let i = members.partition_point(|&m| m < t as u32);
    members.insert(i, t as u32);
}

/// After deleting row `t`, every stored id greater than `t` shifts down
/// by one (datasets keep row indices dense).
fn shift_members_down<'a>(lists: impl Iterator<Item = &'a mut Vec<u32>>, t: usize) {
    for members in lists {
        for m in members.iter_mut() {
            if *m > t as u32 {
                *m -= 1;
            }
        }
    }
}

/// The one or two distinct keys an update touched.
fn dedup_keys<'a>(old: &'a [Symbol], new: &'a [Symbol]) -> Vec<&'a [Symbol]> {
    if old == new {
        vec![new]
    } else {
        vec![old, new]
    }
}

/// Key symbols for tuple `t` without overrides (always resolvable).
fn key_symbols(d: &Dataset, t: usize, keys: &[usize], ov: Option<Override<'_>>) -> Box<[Symbol]> {
    key_symbols_opt(d, t, keys, ov).expect("non-override key must resolve")
}

/// Key symbols, or `None` when an overridden component is a value the
/// pool has never seen (such a key can match no existing block).
fn key_symbols_opt(
    d: &Dataset,
    t: usize,
    keys: &[usize],
    ov: Option<Override<'_>>,
) -> Option<Box<[Symbol]>> {
    let mut out = Vec::with_capacity(keys.len());
    for &a in keys {
        let sym = match ov {
            Some(o) if o.tuple == t && o.attr == a => d.pool().get(o.value)?,
            _ => d.symbol(t, a),
        };
        out.push(sym);
    }
    Some(out.into_boxed_slice())
}

/// Key symbols for an external tuple, or `None` when any key value is
/// one the reference pool has never seen (such a key matches no block).
fn external_key_symbols(
    reference: &Dataset,
    values: &[&str],
    keys: &[usize],
) -> Option<Box<[Symbol]>> {
    let mut out = Vec::with_capacity(keys.len());
    for &a in keys {
        out.push(reference.pool().get(values[a])?);
    }
    Some(out.into_boxed_slice())
}

/// Resolve an operand where one side of the pair is an external tuple
/// (`ext`, values in schema order) and the other is reference tuple `s`.
/// `ext_is_t1` says which constraint variable the external tuple plays.
fn resolve_ext<'a>(
    d: &'a Dataset,
    operand: &'a Operand,
    ext: &[&'a str],
    s: usize,
    ext_is_t1: bool,
) -> &'a str {
    match operand {
        Operand::Const(c) => c,
        Operand::Var { tuple, attr } => {
            if (*tuple == 0) == ext_is_t1 {
                ext[*attr]
            } else {
                d.value(s, *attr)
            }
        }
    }
}

fn eval_conjunction_ext(
    preds: &[Predicate],
    d: &Dataset,
    ext: &[&str],
    s: usize,
    ext_is_t1: bool,
) -> bool {
    preds.iter().all(|p| {
        let l = resolve_ext(d, &p.left, ext, s, ext_is_t1);
        let r = resolve_ext(d, &p.right, ext, s, ext_is_t1);
        p.op.eval(l, r)
    })
}

/// Reference partners conflicting with the external tuple, capped at
/// [`SCAN_CAP`] samples and scaled back for an unbiased estimate (the
/// same sampling scheme as [`count_partners_for`]).
fn count_partners_ext(
    residual: &[Predicate],
    d: &Dataset,
    ext: &[&str],
    n_members: usize,
    member: impl Fn(usize) -> usize,
) -> u32 {
    if n_members == 0 {
        return 0;
    }
    let stride = (n_members / SCAN_CAP).max(1);
    let mut sampled = 0usize;
    let mut hits = 0usize;
    let mut i = 0usize;
    while i < n_members {
        let s = member(i);
        i += stride;
        sampled += 1;
        if eval_conjunction_ext(residual, d, ext, s, true)
            || eval_conjunction_ext(residual, d, ext, s, false)
        {
            hits += 1;
        }
    }
    ((hits as f64) * (n_members as f64) / (sampled as f64)).round() as u32
}

fn resolve<'a>(
    d: &'a Dataset,
    operand: &'a Operand,
    t1: usize,
    t2: usize,
    ov: Option<Override<'a>>,
) -> &'a str {
    match operand {
        Operand::Const(c) => c,
        Operand::Var { tuple, attr } => {
            let t = if *tuple == 0 { t1 } else { t2 };
            if let Some(o) = ov {
                if o.tuple == t && o.attr == *attr {
                    return o.value;
                }
            }
            d.value(t, *attr)
        }
    }
}

fn eval_conjunction(
    preds: &[Predicate],
    d: &Dataset,
    t1: usize,
    t2: usize,
    ov: Option<Override<'_>>,
) -> bool {
    preds.iter().all(|p| {
        let l = resolve(d, &p.left, t1, t2, ov);
        let r = resolve(d, &p.right, t1, t2, ov);
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
                if eval_conjunction(residual, d, a, b, None)
                    || eval_conjunction(residual, d, b, a, None)
                {
                    counts[a] += 1;
                    counts[b] += 1;
                }
            }
        }
    } else {
        for &ti in members {
            counts[ti as usize] = count_partners_for(residual, d, ti as usize, members, None);
        }
    }
}

/// Conflicting partners of `t` within `members`, capped at [`SCAN_CAP`]
/// samples and scaled back to the block size for an unbiased estimate.
fn count_partners_for(
    residual: &[Predicate],
    d: &Dataset,
    t: usize,
    members: &[u32],
    ov: Option<Override<'_>>,
) -> u32 {
    let others = members
        .len()
        .saturating_sub(usize::from(members.contains(&(t as u32))));
    if others == 0 {
        return 0;
    }
    let stride = (members.len() / SCAN_CAP).max(1);
    let mut sampled = 0usize;
    let mut hits = 0usize;
    let mut i = 0usize;
    while i < members.len() {
        let s = members[i] as usize;
        i += stride;
        if s == t {
            continue;
        }
        sampled += 1;
        if eval_conjunction(residual, d, t, s, ov) || eval_conjunction(residual, d, s, t, ov) {
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

    #[test]
    fn override_fixing_the_error_clears_violations() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        // Fixing row 2's City to "Chicago" removes all its conflicts.
        assert_eq!(ix.tuple_violations_with_override(&d, 2, 1, "Chicago"), 0);
        // And row 0 would keep its single conflict (query doesn't mutate).
        assert_eq!(ix.tuple_violations(0), 1);
    }

    #[test]
    fn override_introducing_an_error_adds_violations() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        // Breaking row 1's City creates conflicts with rows 0 (Chicago)
        // and 2 (Cicago): both differ from the override value.
        assert_eq!(ix.tuple_violations_with_override(&d, 1, 1, "Madison"), 2);
    }

    #[test]
    fn override_with_unseen_value_on_key() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        // A brand-new Zip matches no block: zero conflicts.
        assert_eq!(ix.tuple_violations_with_override(&d, 2, 0, "99999"), 0);
    }

    #[test]
    fn override_on_unrelated_attr_is_unchanged() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        assert_eq!(ix.tuple_violations_with_override(&d, 2, 2, "100"), 2);
    }

    #[test]
    fn override_unary() {
        let (d, e) = engine("t1.Score < '0'");
        let ix = &e.indexes()[0];
        assert_eq!(ix.tuple_violations_with_override(&d, 3, 2, "4"), 0);
        assert_eq!(ix.tuple_violations_with_override(&d, 0, 2, "-9"), 1);
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
        assert_eq!(ix.tuple_violations_with_override(&d, 2, 0, "00000"), 0);
        // Matching row 0's score removes exactly the row-0 conflict.
        assert_eq!(ix.tuple_violations_with_override(&d, 2, 2, "5"), 1);
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
        // Re-presenting a reference tuple as an external one reproduces
        // its fit-time count: the self-pair cancels through the
        // agreement counts (FD) or fails the disequality (blocked).
        for spec in [
            "Zip -> City",
            "t1.Zip = t2.Zip & t1.City ~ t2.City & t1.Score != t2.Score",
        ] {
            let (d, e) = engine(spec);
            let ix = &e.indexes()[0];
            for t in 0..d.n_tuples() {
                let vals = d.tuple_values(t);
                assert_eq!(
                    ix.external_tuple_violations(&d, &vals),
                    ix.tuple_violations(t),
                    "{spec}: tuple {t}"
                );
            }
        }
    }

    #[test]
    fn external_new_tuple_counts_reference_conflicts() {
        let (d, e) = engine("Zip -> City");
        let ix = &e.indexes()[0];
        // A new 60612 tuple with a fresh city conflicts with all three
        // 60612 reference rows.
        assert_eq!(
            ix.external_tuple_violations(&d, &["60612", "Springfield", "1"]),
            3
        );
        // Agreeing with the majority leaves only the Cicago conflict.
        assert_eq!(
            ix.external_tuple_violations(&d, &["60612", "Chicago", "1"]),
            1
        );
        // A never-seen key matches no block.
        assert_eq!(
            ix.external_tuple_violations(&d, &["99999", "Chicago", "1"]),
            0
        );
    }

    #[test]
    fn external_unary_and_vector() {
        let (d, e) = engine("Zip -> City\nt1.Score < '0'");
        assert_eq!(
            e.external_tuple_vector(&d, &["60612", "Cicago", "-3"]),
            vec![2, 1]
        );
        assert_eq!(
            e.external_tuple_vector(&d, &["53703", "Madison", "4"]),
            vec![0, 0]
        );
    }

    #[test]
    fn engine_vectors() {
        let (d, e) = engine("Zip -> City\nt1.Score < '0'");
        assert_eq!(e.len(), 2);
        assert_eq!(e.tuple_vector(2), vec![2, 0]);
        assert_eq!(e.tuple_vector(3), vec![0, 1]);
        assert_eq!(
            e.tuple_vector_with_override(&d, 2, 1, "Chicago"),
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

    /// Apply (append / update / delete) one op to both the dataset and
    /// the engine, then assert the maintained counts equal a rebuild.
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
        // Update a cell to heal a violation.
        let old: Vec<String> = d.tuple_values(2).iter().map(|s| s.to_string()).collect();
        d.set_value(2, 1, "Chicago");
        e.apply_update(&d, 2, 1, &old);
        check(&d, &e, "update heal");
        // Update a key attribute (moves the row between blocks).
        let old: Vec<String> = d.tuple_values(4).iter().map(|s| s.to_string()).collect();
        d.set_value(4, 0, "60612");
        e.apply_update(&d, 4, 0, &old);
        check(&d, &e, "update move block");
        // Update an attribute the constraint ignores.
        let old: Vec<String> = d.tuple_values(0).iter().map(|s| s.to_string()).collect();
        d.set_value(0, 2, "42");
        e.apply_update(&d, 0, 2, &old);
        check(&d, &e, "update unrelated");
        // Delete a middle row (later ids shift down).
        let old: Vec<String> = d.tuple_values(1).iter().map(|s| s.to_string()).collect();
        d.remove_row(1);
        e.apply_delete(&d, 1, &old);
        check(&d, &e, "delete middle");
        // Delete the last row.
        let t = d.n_tuples() - 1;
        let old: Vec<String> = d.tuple_values(t).iter().map(|s| s.to_string()).collect();
        d.remove_row(t);
        e.apply_delete(&d, t, &old);
        check(&d, &e, "delete last");
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

    /// Brute-force partner counting for cross-checking the fast paths.
    fn brute_force(d: &Dataset, dc: &DenialConstraint) -> Vec<u32> {
        let n = d.n_tuples();
        let mut counts = vec![0u32; n];
        for (t, count) in counts.iter_mut().enumerate() {
            for s in 0..n {
                if s == t {
                    continue;
                }
                if eval_conjunction(&dc.predicates, d, t, s, None)
                    || eval_conjunction(&dc.predicates, d, s, t, None)
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

        /// Override queries agree with rebuilding the index on a mutated
        /// copy of the dataset.
        #[test]
        fn override_matches_rebuild(
            rows in proptest::collection::vec((0u8..3, 0u8..3), 2..16),
            target in 0usize..16,
            newv in 0u8..3,
        ) {
            let mut b = DatasetBuilder::new(Schema::new(["K", "V"]));
            for (k, v) in &rows {
                b.push_row(&[format!("k{k}"), format!("v{v}")]);
            }
            let d = b.build();
            let t = target % rows.len();
            let value = format!("v{newv}");
            let dcs = parse_constraints("K -> V", d.schema()).unwrap();
            let e = ViolationEngine::build(&d, &dcs);
            let hypothetical = e.indexes()[0]
                .tuple_violations_with_override(&d, t, 1, &value);

            let mut d2 = d.clone();
            d2.set_value(t, 1, &value);
            let e2 = ViolationEngine::build(&d2, &dcs);
            prop_assert_eq!(hypothetical, e2.indexes()[0].tuple_violations(t));
        }

        /// A random interleaving of appends/updates/deletes maintained
        /// through apply_* equals an index rebuilt from scratch over the
        /// post-delta dataset — for every index shape at once.
        #[test]
        fn random_deltas_match_rebuild(
            rows in proptest::collection::vec((0u8..3, 0u8..3, 0u8..3), 2..12),
            raw_ops in proptest::collection::vec((0u8..3, 0u16..64, 0u8..4, 0u8..4), 0..24),
        ) {
            let mut b = DatasetBuilder::new(Schema::new(["K", "V", "W"]));
            for (k, v, w) in &rows {
                b.push_row(&[format!("k{k}"), format!("v{v}"), format!("w{w}")]);
            }
            let mut d = b.build();
            let dcs = parse_constraints(
                "K -> V\n\
                 t1.K = t2.K & t1.V != t2.V & t1.W != t2.W\n\
                 t1.V = 'v0'\n\
                 t1.V ~ t2.V & t1.W != t2.W",
                d.schema(),
            ).unwrap();
            let mut e = ViolationEngine::build(&d, &dcs);

            for &(kind, t, a, v) in &raw_ops {
                let n = d.n_tuples();
                match kind % 3 {
                    0 => {
                        d.push_row(&[format!("k{v}"), format!("v{a}"), format!("w{v}")]);
                        e.apply_append(&d);
                    }
                    1 if n > 0 => {
                        let t = t as usize % n;
                        let attr = a as usize % 3;
                        let old: Vec<String> =
                            d.tuple_values(t).iter().map(|s| s.to_string()).collect();
                        d.set_value(t, attr, &format!("v{v}"));
                        e.apply_update(&d, t, attr, &old);
                    }
                    2 if n > 0 => {
                        let t = t as usize % n;
                        let old: Vec<String> =
                            d.tuple_values(t).iter().map(|s| s.to_string()).collect();
                        d.remove_row(t);
                        e.apply_delete(&d, t, &old);
                    }
                    _ => {}
                }
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
            let mut b = DatasetBuilder::new(Schema::new(["K", "V", "W"]));
            for (k, v, w) in &rows {
                b.push_row(&[format!("k{k}"), format!("v{v}"), format!("w{w}")]);
            }
            let d = b.build();
            let dcs = parse_constraints(
                "t1.K = t2.K & t1.V != t2.V & t1.W != t2.W", d.schema()).unwrap();
            let e = ViolationEngine::build(&d, &dcs);
            let expect = brute_force(&d, e.indexes()[0].constraint());
            prop_assert_eq!(e.indexes()[0].tuple_counts(), expect.as_slice());
        }
    }
}
