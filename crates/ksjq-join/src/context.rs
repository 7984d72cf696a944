//! [`JoinContext`]: two base relations bound by a join spec.
//!
//! The context never materialises the joined relation. It lays out the
//! joined skyline vector as `[left locals…, right locals…, aggregates…]`,
//! answers join-compatibility queries, enumerates pairs, and exposes two
//! set families the KSJQ algorithms are built on:
//!
//! * **partners** of a tuple — the other-side tuples it joins with;
//! * **coverers** of a tuple — the same-side tuples whose join capability
//!   is a superset of its own. For an equality join these are exactly the
//!   tuples of the same group; for a theta join they are the prefix/suffix
//!   of the key order the paper constructs in Sec. 6.6; for a Cartesian
//!   product they are the whole relation (which is why the product has no
//!   `SN` class, Sec. 6.5). The SS/SN/NN classification in `ksjq-core` is
//!   one routine over coverers, uniform across join kinds.

use crate::aggregate::AggFunc;
use crate::error::{JoinError, JoinResult};
use crate::spec::{JoinSpec, ThetaOp};
use ksjq_relation::{JoinKeys, Relation, TupleId};
use std::ops::Range;
use std::sync::Arc;

/// How a [`JoinContext`] holds a base relation: borrowed from the caller
/// (the classic in-scope path) or shared ownership (the engine path, where
/// a context must outlive the stack frame that prepared it).
#[derive(Debug, Clone)]
enum RelSource<'a> {
    Borrowed(&'a Relation),
    Owned(Arc<Relation>),
}

impl RelSource<'_> {
    #[inline]
    fn get(&self) -> &Relation {
        match self {
            RelSource::Borrowed(r) => r,
            RelSource::Owned(r) => r,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SlotInfo {
    left_attr: usize,
    right_attr: usize,
    /// True when the paired attributes are `Max`-preference: stored values
    /// are negated, so aggregation round-trips through raw space.
    negate: bool,
    func: AggFunc,
}

/// A join of two base relations, ready for pair enumeration and joined
/// tuple construction.
#[derive(Debug, Clone)]
pub struct JoinContext<'a> {
    left: RelSource<'a>,
    right: RelSource<'a>,
    spec: JoinSpec,
    slots: Vec<SlotInfo>,
    left_locals: Vec<usize>,
    right_locals: Vec<usize>,
    all_left: Vec<u32>,
    all_right: Vec<u32>,
    /// Keys of the left relation in `numeric_order` (theta joins only).
    left_sorted_keys: Vec<f64>,
    /// Keys of the right relation in `numeric_order` (theta joins only).
    right_sorted_keys: Vec<f64>,
}

impl<'a> JoinContext<'a> {
    /// Bind `left ⋈ right` under `spec`, aggregating slot `s` with
    /// `funcs[s]`.
    ///
    /// # Errors
    ///
    /// * [`JoinError::AggArityMismatch`] — schemas disagree on the number
    ///   of aggregate slots, or `funcs` has the wrong length.
    /// * [`JoinError::SlotPreferenceMismatch`] — a slot pairs a `Min` with
    ///   a `Max` attribute.
    /// * [`JoinError::KeyKindMismatch`] — key columns don't fit the spec.
    /// * [`JoinError::InvalidAggregate`] — malformed function parameters.
    pub fn new(
        left: &'a Relation,
        right: &'a Relation,
        spec: JoinSpec,
        funcs: &[AggFunc],
    ) -> JoinResult<Self> {
        Self::build(
            RelSource::Borrowed(left),
            RelSource::Borrowed(right),
            spec,
            funcs,
        )
    }

    /// Bind `left ⋈ right` with shared ownership of the relations. The
    /// resulting context has no borrowed lifetime (`'static`), so it can be
    /// stored, sent across threads, and outlive the scope that created it —
    /// the engine's prepared queries are built on this.
    ///
    /// Validation is identical to [`new`](Self::new).
    pub fn from_arcs(
        left: Arc<Relation>,
        right: Arc<Relation>,
        spec: JoinSpec,
        funcs: &[AggFunc],
    ) -> JoinResult<JoinContext<'static>> {
        JoinContext::build(RelSource::Owned(left), RelSource::Owned(right), spec, funcs)
    }

    /// The single construction path behind [`new`](Self::new) and
    /// [`from_arcs`](Self::from_arcs).
    fn build(
        lsrc: RelSource<'a>,
        rsrc: RelSource<'a>,
        spec: JoinSpec,
        funcs: &[AggFunc],
    ) -> JoinResult<JoinContext<'a>> {
        let (left, right) = (lsrc.get(), rsrc.get());
        let a_left = left.schema().agg_count();
        let a_right = right.schema().agg_count();
        if a_left != a_right || funcs.len() != a_left {
            return Err(JoinError::AggArityMismatch {
                left: a_left,
                right: a_right,
                funcs: funcs.len(),
            });
        }
        let mut slots = Vec::with_capacity(a_left);
        for (slot, func) in funcs.iter().enumerate() {
            func.validate()?;
            let li = left.schema().agg_index(slot).expect("validated agg slot");
            let ri = right.schema().agg_index(slot).expect("validated agg slot");
            let lp = left.schema().attr(li).preference;
            let rp = right.schema().attr(ri).preference;
            if lp != rp {
                return Err(JoinError::SlotPreferenceMismatch { slot });
            }
            slots.push(SlotInfo {
                left_attr: li,
                right_attr: ri,
                negate: lp == ksjq_relation::Preference::Max,
                func: *func,
            });
        }

        match spec {
            JoinSpec::Equality => {
                if !matches!(left.keys(), JoinKeys::Group(_)) {
                    return Err(JoinError::KeyKindMismatch {
                        required: "group",
                        side: "left",
                    });
                }
                if !matches!(right.keys(), JoinKeys::Group(_)) {
                    return Err(JoinError::KeyKindMismatch {
                        required: "group",
                        side: "right",
                    });
                }
            }
            JoinSpec::Theta(_) => {
                if !matches!(left.keys(), JoinKeys::Numeric(_)) {
                    return Err(JoinError::KeyKindMismatch {
                        required: "numeric",
                        side: "left",
                    });
                }
                if !matches!(right.keys(), JoinKeys::Numeric(_)) {
                    return Err(JoinError::KeyKindMismatch {
                        required: "numeric",
                        side: "right",
                    });
                }
            }
            JoinSpec::Cartesian => {}
        }

        let sorted_keys = |rel: &Relation| -> Vec<f64> {
            match (rel.numeric_order(), rel.keys()) {
                (Some(order), JoinKeys::Numeric(keys)) => {
                    order.iter().map(|&t| keys[t as usize]).collect()
                }
                _ => Vec::new(),
            }
        };
        let (left_sorted_keys, right_sorted_keys) = if matches!(spec, JoinSpec::Theta(_)) {
            (sorted_keys(left), sorted_keys(right))
        } else {
            (Vec::new(), Vec::new())
        };

        Ok(JoinContext {
            left_locals: left.schema().local_indices().collect(),
            right_locals: right.schema().local_indices().collect(),
            all_left: (0..left.n() as u32).collect(),
            all_right: (0..right.n() as u32).collect(),
            left: lsrc,
            right: rsrc,
            spec,
            slots,
            left_sorted_keys,
            right_sorted_keys,
        })
    }

    /// The left base relation.
    #[inline]
    pub fn left(&self) -> &Relation {
        self.left.get()
    }

    /// The right base relation.
    #[inline]
    pub fn right(&self) -> &Relation {
        self.right.get()
    }

    /// The join spec.
    #[inline]
    pub fn spec(&self) -> JoinSpec {
        self.spec
    }

    /// The aggregation functions, slot order.
    pub fn funcs(&self) -> Vec<AggFunc> {
        self.slots.iter().map(|s| s.func).collect()
    }

    /// `d1`: skyline attributes of the left relation.
    #[inline]
    pub fn d1(&self) -> usize {
        self.left().d()
    }

    /// `d2`: skyline attributes of the right relation.
    #[inline]
    pub fn d2(&self) -> usize {
        self.right().d()
    }

    /// `a`: number of aggregate slots.
    #[inline]
    pub fn a(&self) -> usize {
        self.slots.len()
    }

    /// `l1 = d1 − a`: local attributes of the left relation.
    #[inline]
    pub fn l1(&self) -> usize {
        self.left_locals.len()
    }

    /// `l2 = d2 − a`: local attributes of the right relation.
    #[inline]
    pub fn l2(&self) -> usize {
        self.right_locals.len()
    }

    /// Arity of the joined skyline vector: `l1 + l2 + a = d1 + d2 − a`.
    #[inline]
    pub fn d_joined(&self) -> usize {
        self.l1() + self.l2() + self.a()
    }

    /// Are all aggregation functions strictly monotone (required by the
    /// optimized algorithms)?
    pub fn aggs_strictly_monotone(&self) -> bool {
        self.slots.iter().all(|s| s.func.is_strictly_monotone())
    }

    /// Do tuples `u` (left) and `v` (right) join?
    #[inline]
    pub fn compatible(&self, u: u32, v: u32) -> bool {
        match self.spec {
            JoinSpec::Equality => {
                self.left().group_id(TupleId(u)) == self.right().group_id(TupleId(v))
            }
            JoinSpec::Theta(op) => op.holds(
                self.left().numeric_key(TupleId(u)).expect("validated"),
                self.right().numeric_key(TupleId(v)).expect("validated"),
            ),
            JoinSpec::Cartesian => true,
        }
    }

    /// Write the joined skyline vector of `(u, v)` into `out`
    /// (length [`d_joined`](Self::d_joined)), normalised orientation.
    #[inline]
    pub fn fill(&self, u: u32, v: u32, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.d_joined());
        self.fill_left(u, out);
        self.fill_rest(u, v, out);
    }

    /// The normalised aggregate value of slot `slot` for the base tuples
    /// `(u, v)`, read from their columns. Kept as the single aggregation
    /// expression so every fill / split-side path produces bit-identical
    /// values.
    #[inline]
    fn agg_value(&self, slot: &SlotInfo, u: u32, v: u32) -> f64 {
        Self::combine(
            slot,
            self.left().value(TupleId(u), slot.left_attr),
            self.right().value(TupleId(v), slot.right_attr),
        )
    }

    #[inline]
    fn combine(slot: &SlotInfo, x: f64, y: f64) -> f64 {
        // Aggregate in raw space, then restore normalised orientation.
        if slot.negate {
            -slot.func.combine(-x, -y)
        } else {
            slot.func.combine(x, y)
        }
    }

    /// The normalised joined value of aggregate slot `slot` from the two
    /// legs' stored values: `x` of the left relation's attribute
    /// `left().schema().agg_index(slot)`, `y` of its right counterpart.
    /// The same expression every fill uses, for kernels that gather the
    /// aggregate columns once instead of reading rows.
    #[inline]
    pub fn combine_slot(&self, slot: usize, x: f64, y: f64) -> f64 {
        Self::combine(&self.slots[slot], x, y)
    }

    /// Write only the left-local segment `out[0..l1]` of any `(u, ·)`
    /// joined vector. Splitting the fill lets pair-enumeration loops hoist
    /// the left half out of the partner loop — it is identical for every
    /// `v` the tuple joins with.
    #[inline]
    pub fn fill_left(&self, u: u32, out: &mut [f64]) {
        let left = self.left();
        for (o, &attr) in out.iter_mut().zip(self.left_locals.iter()) {
            *o = left.value(TupleId(u), attr);
        }
    }

    /// Write the right-local and aggregate segments `out[l1..]` of the
    /// joined vector of `(u, v)`; combined with a prior
    /// [`fill_left`](Self::fill_left) of the same `u` this reproduces
    /// [`fill`](Self::fill) exactly.
    #[inline]
    pub fn fill_rest(&self, u: u32, v: u32, out: &mut [f64]) {
        let right = self.right();
        let l1 = self.l1();
        let l2 = self.l2();
        for (j, &attr) in self.right_locals.iter().enumerate() {
            out[l1 + j] = right.value(TupleId(v), attr);
        }
        for (s, slot) in self.slots.iter().enumerate() {
            out[l1 + l2 + s] = self.agg_value(slot, u, v);
        }
    }

    /// Write only the `a` normalised aggregate values of `(u, v)` into
    /// `out[0..a]` — the one part of a joined vector that genuinely needs
    /// both legs. Split-side dominance tests compare the two local
    /// segments directly against base rows and materialise just this.
    #[inline]
    pub fn fill_aggs(&self, u: u32, v: u32, out: &mut [f64]) {
        debug_assert!(out.len() >= self.a());
        for (s, slot) in self.slots.iter().enumerate() {
            out[s] = self.agg_value(slot, u, v);
        }
    }

    /// Indices of the left relation's local attributes, joined-layout
    /// order: `cand[i]` pairs with `left_row[left_local_attrs()[i]]` for
    /// `i < l1`.
    #[inline]
    pub fn left_local_attrs(&self) -> &[usize] {
        &self.left_locals
    }

    /// Indices of the right relation's local attributes, joined-layout
    /// order: `cand[l1 + j]` pairs with
    /// `right_row[right_local_attrs()[j]]` for `j < l2`.
    #[inline]
    pub fn right_local_attrs(&self) -> &[usize] {
        &self.right_locals
    }

    /// The joined skyline vector of `(u, v)` (allocates).
    pub fn joined_row(&self, u: u32, v: u32) -> Vec<f64> {
        let mut out = vec![0.0; self.d_joined()];
        self.fill(u, v, &mut out);
        out
    }

    /// Human-readable names of the joined attributes, layout order.
    pub fn joined_attr_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.d_joined());
        for &i in &self.left_locals {
            names.push(format!("l.{}", self.left().schema().attr(i).name));
        }
        for &j in &self.right_locals {
            names.push(format!("r.{}", self.right().schema().attr(j).name));
        }
        for slot in &self.slots {
            names.push(format!(
                "{}({})",
                slot.func,
                self.left().schema().attr(slot.left_attr).name
            ));
        }
        names
    }

    /// Right-side tuples that join with left tuple `u`, as a slice of
    /// tuple ids (theta joins return them in key order, others in id
    /// order within the group).
    pub fn right_partners(&self, u: u32) -> &[u32] {
        match self.spec {
            JoinSpec::Equality => {
                let gid = self.left().group_id(TupleId(u)).expect("validated");
                self.right().group_index().expect("validated").members(gid)
            }
            JoinSpec::Theta(op) => {
                let key = self.left().numeric_key(TupleId(u)).expect("validated");
                let order = self.right().numeric_order().expect("validated");
                let ks = &self.right_sorted_keys;
                match op {
                    // u.key < v.key ⇒ suffix of ascending right keys.
                    ThetaOp::Lt => &order[ks.partition_point(|&k| k <= key)..],
                    ThetaOp::Le => &order[ks.partition_point(|&k| k < key)..],
                    // u.key > v.key ⇒ prefix.
                    ThetaOp::Gt => &order[..ks.partition_point(|&k| k < key)],
                    ThetaOp::Ge => &order[..ks.partition_point(|&k| k <= key)],
                }
            }
            JoinSpec::Cartesian => &self.all_right,
        }
    }

    /// The right relation's *scan order*: a permutation of its tuple ids in
    /// which **every left tuple's partner set is one contiguous range**
    /// ([`right_partner_span`](Self::right_partner_span)) — the group-index
    /// order for equality joins, the ascending-key order for theta joins,
    /// and the identity for Cartesian products.
    ///
    /// The columnar verifier permutes per-tuple data into this order once
    /// so its per-candidate partner scans are stride-1;
    /// `right_partners(u) == &right_scan_order()[right_partner_span(u)]`
    /// holds for every `u` (tested).
    pub fn right_scan_order(&self) -> &[u32] {
        match self.spec {
            JoinSpec::Equality => self.right().group_index().expect("validated").order(),
            JoinSpec::Theta(_) => self.right().numeric_order().expect("validated"),
            JoinSpec::Cartesian => &self.all_right,
        }
    }

    /// The positions within [`right_scan_order`](Self::right_scan_order)
    /// holding left tuple `u`'s join partners.
    pub fn right_partner_span(&self, u: u32) -> Range<usize> {
        match self.spec {
            JoinSpec::Equality => {
                let gid = self.left().group_id(TupleId(u)).expect("validated");
                self.right().group_index().expect("validated").range_of(gid)
            }
            JoinSpec::Theta(op) => {
                let key = self.left().numeric_key(TupleId(u)).expect("validated");
                let ks = &self.right_sorted_keys;
                match op {
                    ThetaOp::Lt => ks.partition_point(|&k| k <= key)..ks.len(),
                    ThetaOp::Le => ks.partition_point(|&k| k < key)..ks.len(),
                    ThetaOp::Gt => 0..ks.partition_point(|&k| k < key),
                    ThetaOp::Ge => 0..ks.partition_point(|&k| k <= key),
                }
            }
            JoinSpec::Cartesian => 0..self.all_right.len(),
        }
    }

    /// The left relation's scan order; see
    /// [`right_scan_order`](Self::right_scan_order).
    pub fn left_scan_order(&self) -> &[u32] {
        match self.spec {
            JoinSpec::Equality => self.left().group_index().expect("validated").order(),
            JoinSpec::Theta(_) => self.left().numeric_order().expect("validated"),
            JoinSpec::Cartesian => &self.all_left,
        }
    }

    /// The positions within [`left_scan_order`](Self::left_scan_order)
    /// holding right tuple `v`'s join partners.
    pub fn left_partner_span(&self, v: u32) -> Range<usize> {
        match self.spec {
            JoinSpec::Equality => {
                let gid = self.right().group_id(TupleId(v)).expect("validated");
                self.left().group_index().expect("validated").range_of(gid)
            }
            JoinSpec::Theta(op) => {
                let key = self.right().numeric_key(TupleId(v)).expect("validated");
                let ks = &self.left_sorted_keys;
                match op {
                    ThetaOp::Lt => 0..ks.partition_point(|&k| k < key),
                    ThetaOp::Le => 0..ks.partition_point(|&k| k <= key),
                    ThetaOp::Gt => ks.partition_point(|&k| k <= key)..ks.len(),
                    ThetaOp::Ge => ks.partition_point(|&k| k < key)..ks.len(),
                }
            }
            JoinSpec::Cartesian => 0..self.all_left.len(),
        }
    }

    /// Left-side tuples that join with right tuple `v`.
    pub fn left_partners(&self, v: u32) -> &[u32] {
        match self.spec {
            JoinSpec::Equality => {
                let gid = self.right().group_id(TupleId(v)).expect("validated");
                self.left().group_index().expect("validated").members(gid)
            }
            JoinSpec::Theta(op) => {
                let key = self.right().numeric_key(TupleId(v)).expect("validated");
                let order = self.left().numeric_order().expect("validated");
                let ks = &self.left_sorted_keys;
                match op {
                    // l.key < v.key ⇒ prefix of ascending left keys.
                    ThetaOp::Lt => &order[..ks.partition_point(|&k| k < key)],
                    ThetaOp::Le => &order[..ks.partition_point(|&k| k <= key)],
                    ThetaOp::Gt => &order[ks.partition_point(|&k| k <= key)..],
                    ThetaOp::Ge => &order[ks.partition_point(|&k| k < key)..],
                }
            }
            JoinSpec::Cartesian => &self.all_left,
        }
    }

    /// Left-side tuples whose join capability *covers* `u`'s: every right
    /// tuple `u` joins with, they join with too. Includes `u` itself.
    ///
    /// This is "the group of `u`" in the paper's classification, extended
    /// to theta joins per Sec. 6.6 (there: the prefix/suffix of the key
    /// order) and to Cartesian products per Sec. 6.5 (the whole relation).
    pub fn left_coverers(&self, u: u32) -> &[u32] {
        match self.spec {
            JoinSpec::Equality => {
                let gid = self.left().group_id(TupleId(u)).expect("validated");
                self.left().group_index().expect("validated").members(gid)
            }
            JoinSpec::Theta(op) => {
                let key = self.left().numeric_key(TupleId(u)).expect("validated");
                let order = self.left().numeric_order().expect("validated");
                let ks = &self.left_sorted_keys;
                match op {
                    // Smaller left key joins with at least as many right
                    // tuples under `<`/`<=` (ties included: equal keys have
                    // identical capability).
                    ThetaOp::Lt | ThetaOp::Le => &order[..ks.partition_point(|&k| k <= key)],
                    ThetaOp::Gt | ThetaOp::Ge => &order[ks.partition_point(|&k| k < key)..],
                }
            }
            JoinSpec::Cartesian => &self.all_left,
        }
    }

    /// Right-side tuples whose join capability covers `v`'s; see
    /// [`left_coverers`](Self::left_coverers).
    pub fn right_coverers(&self, v: u32) -> &[u32] {
        match self.spec {
            JoinSpec::Equality => {
                let gid = self.right().group_id(TupleId(v)).expect("validated");
                self.right().group_index().expect("validated").members(gid)
            }
            JoinSpec::Theta(op) => {
                let key = self.right().numeric_key(TupleId(v)).expect("validated");
                let order = self.right().numeric_order().expect("validated");
                let ks = &self.right_sorted_keys;
                match op {
                    // Larger right key is more permissive under `<`/`<=`.
                    ThetaOp::Lt | ThetaOp::Le => &order[ks.partition_point(|&k| k < key)..],
                    ThetaOp::Gt | ThetaOp::Ge => &order[..ks.partition_point(|&k| k <= key)],
                }
            }
            JoinSpec::Cartesian => &self.all_right,
        }
    }

    /// Number of joined tuples (`N = |R1 ⋈ R2|`), without enumerating
    /// them where avoidable.
    pub fn count_pairs(&self) -> u64 {
        match self.spec {
            JoinSpec::Equality => {
                let gl = self.left().group_index().expect("validated");
                let gr = self.right().group_index().expect("validated");
                gl.iter()
                    .map(|(gid, m)| m.len() as u64 * gr.members(gid).len() as u64)
                    .sum()
            }
            JoinSpec::Theta(_) => (0..self.left().n() as u32)
                .map(|u| self.right_partners(u).len() as u64)
                .sum(),
            JoinSpec::Cartesian => self.left().n() as u64 * self.right().n() as u64,
        }
    }

    /// Enumerate every join-compatible pair in a deterministic order
    /// (repeat calls yield the identical sequence — required by the
    /// streaming two-scan skyline).
    pub fn for_each_pair(&self, mut f: impl FnMut(u32, u32)) {
        for &u in &self.all_left {
            for &v in self.right_partners(u) {
                f(u, v);
            }
        }
    }

    /// Materialise the join: every pair plus its joined skyline vector.
    /// Intended for tests and small inputs — the KSJQ algorithms never
    /// call this.
    pub fn materialize(&self) -> MaterializedJoin {
        let d = self.d_joined();
        let mut pairs = Vec::new();
        let mut data = Vec::new();
        let mut row = vec![0.0; d];
        // Same enumeration order as `for_each_pair`, with the left-local
        // segment hoisted out of the partner loop.
        for &u in &self.all_left {
            let partners = self.right_partners(u);
            if partners.is_empty() {
                continue;
            }
            self.fill_left(u, &mut row);
            for &v in partners {
                self.fill_rest(u, v, &mut row);
                pairs.push((u, v));
                data.extend_from_slice(&row);
            }
        }
        MaterializedJoin { d, pairs, data }
    }
}

/// A fully materialised join (tests / small inputs only).
#[derive(Debug, Clone, PartialEq)]
pub struct MaterializedJoin {
    /// Arity of each joined row.
    pub d: usize,
    /// `(left id, right id)` per joined tuple, aligned with `data`.
    pub pairs: Vec<(u32, u32)>,
    /// Row-major joined skyline vectors.
    pub data: Vec<f64>,
}

impl MaterializedJoin {
    /// Number of joined tuples.
    pub fn n(&self) -> usize {
        self.pairs.len()
    }

    /// The joined row at index `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.d..(i + 1) * self.d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksjq_relation::{Preference, Relation, Schema};

    fn rel_grouped(groups: &[u64], rows: &[Vec<f64>]) -> Relation {
        Relation::from_grouped_rows(Schema::uniform(rows[0].len()).unwrap(), groups, rows).unwrap()
    }

    fn zrows(n: usize) -> Vec<Vec<f64>> {
        vec![vec![0.0]; n]
    }

    fn rel_keyed(keys: &[f64], rows: &[Vec<f64>]) -> Relation {
        let mut b = Relation::builder(Schema::uniform(rows[0].len()).unwrap());
        for (k, r) in keys.iter().zip(rows) {
            b.add_keyed(*k, r).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn equality_partners_and_counts() {
        let l = rel_grouped(&[1, 1, 2], &[vec![0.0], vec![1.0], vec![2.0]]);
        let r = rel_grouped(&[1, 2, 2, 3], &[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let cx = JoinContext::new(&l, &r, JoinSpec::Equality, &[]).unwrap();
        assert_eq!(cx.right_partners(0), &[0]);
        assert_eq!(cx.right_partners(2), &[1, 2]);
        assert_eq!(cx.left_partners(3), &[] as &[u32]);
        assert_eq!(cx.count_pairs(), 1 + 1 + 2);
        assert!(cx.compatible(0, 0));
        assert!(!cx.compatible(0, 1));
        assert_eq!(cx.left_coverers(0), &[0, 1]);
    }

    #[test]
    fn cartesian_everything_joins() {
        let mk = |vals: &[f64]| {
            let mut b = Relation::builder(Schema::uniform(1).unwrap());
            for v in vals {
                b.add(&[*v]).unwrap();
            }
            b.build().unwrap()
        };
        let l = mk(&[0.0, 1.0]);
        let r = mk(&[0.0, 1.0, 2.0]);
        let cx = JoinContext::new(&l, &r, JoinSpec::Cartesian, &[]).unwrap();
        assert_eq!(cx.count_pairs(), 6);
        assert_eq!(cx.right_partners(0), &[0, 1, 2]);
        assert_eq!(cx.left_coverers(1), &[0, 1]);
        assert!(cx.compatible(1, 2));
    }

    #[test]
    fn theta_partners_all_ops() {
        let l = rel_keyed(&[1.0, 2.0, 3.0], &[vec![0.0], vec![0.0], vec![0.0]]);
        let r = rel_keyed(&[1.0, 2.0, 2.0, 4.0], &zrows(4));
        for (op, u, expected) in [
            (ThetaOp::Lt, 1u32, vec![3u32]), // 2 < {4}
            (ThetaOp::Le, 1, vec![1, 2, 3]), // 2 <= {2,2,4}
            (ThetaOp::Gt, 1, vec![0]),       // 2 > {1}
            (ThetaOp::Ge, 1, vec![0, 1, 2]), // 2 >= {1,2,2}
        ] {
            let cx = JoinContext::new(&l, &r, JoinSpec::Theta(op), &[]).unwrap();
            let mut got = cx.right_partners(u).to_vec();
            got.sort_unstable();
            assert_eq!(got, expected, "op {op}");
            // Cross-check against the predicate.
            for v in 0..4u32 {
                assert_eq!(cx.compatible(u, v), expected.contains(&v), "op {op} v {v}");
            }
        }
    }

    #[test]
    fn theta_left_partners_match_compatible() {
        let l = rel_keyed(&[1.0, 2.0, 3.0], &zrows(3));
        let r = rel_keyed(&[0.5, 2.0, 3.5], &zrows(3));
        for op in [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Gt, ThetaOp::Ge] {
            let cx = JoinContext::new(&l, &r, JoinSpec::Theta(op), &[]).unwrap();
            for v in 0..3u32 {
                let mut got = cx.left_partners(v).to_vec();
                got.sort_unstable();
                let expected: Vec<u32> = (0..3u32).filter(|&u| cx.compatible(u, v)).collect();
                assert_eq!(got, expected, "op {op} v {v}");
            }
        }
    }

    #[test]
    fn theta_coverers_imply_superset_capability() {
        let l = rel_keyed(&[1.0, 2.0, 2.0, 3.0], &zrows(4));
        let r = rel_keyed(&[0.5, 1.5, 2.5, 3.5], &zrows(4));
        for op in [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Gt, ThetaOp::Ge] {
            let cx = JoinContext::new(&l, &r, JoinSpec::Theta(op), &[]).unwrap();
            for u in 0..4u32 {
                let coverers = cx.left_coverers(u);
                assert!(
                    coverers.contains(&u),
                    "op {op}: coverers of {u} must include it"
                );
                for &w in coverers {
                    for v in 0..4u32 {
                        if cx.compatible(u, v) {
                            assert!(
                                cx.compatible(w, v),
                                "op {op}: {w} claims to cover {u} but misses v={v}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The scan-order/span pair must reproduce the partner slices exactly,
    /// for every join kind — the invariant the columnar verifier's
    /// contiguous partner scans rest on.
    #[test]
    fn partner_spans_reproduce_partner_slices() {
        // Equality.
        let l = rel_grouped(&[1, 1, 2, 9], &[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let r = rel_grouped(&[2, 1, 2, 3], &[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let cx = JoinContext::new(&l, &r, JoinSpec::Equality, &[]).unwrap();
        for u in 0..l.n() as u32 {
            assert_eq!(
                &cx.right_scan_order()[cx.right_partner_span(u)],
                cx.right_partners(u),
                "equality right u={u}"
            );
        }
        for v in 0..r.n() as u32 {
            assert_eq!(
                &cx.left_scan_order()[cx.left_partner_span(v)],
                cx.left_partners(v),
                "equality left v={v}"
            );
        }
        // Theta, all four operators.
        let lt = rel_keyed(&[1.0, 2.0, 2.0, 3.0], &zrows(4));
        let rt = rel_keyed(&[0.5, 2.0, 3.5], &zrows(3));
        for op in [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Gt, ThetaOp::Ge] {
            let cx = JoinContext::new(&lt, &rt, JoinSpec::Theta(op), &[]).unwrap();
            for u in 0..lt.n() as u32 {
                assert_eq!(
                    &cx.right_scan_order()[cx.right_partner_span(u)],
                    cx.right_partners(u),
                    "theta {op} right u={u}"
                );
            }
            for v in 0..rt.n() as u32 {
                assert_eq!(
                    &cx.left_scan_order()[cx.left_partner_span(v)],
                    cx.left_partners(v),
                    "theta {op} left v={v}"
                );
            }
        }
        // Cartesian.
        let mk = |n: usize| {
            let mut b = Relation::builder(Schema::uniform(1).unwrap());
            for i in 0..n {
                b.add(&[i as f64]).unwrap();
            }
            b.build().unwrap()
        };
        let (lc, rc) = (mk(3), mk(2));
        let cx = JoinContext::new(&lc, &rc, JoinSpec::Cartesian, &[]).unwrap();
        for u in 0..3u32 {
            assert_eq!(
                &cx.right_scan_order()[cx.right_partner_span(u)],
                cx.right_partners(u)
            );
        }
        for v in 0..2u32 {
            assert_eq!(
                &cx.left_scan_order()[cx.left_partner_span(v)],
                cx.left_partners(v)
            );
        }
    }

    #[test]
    fn count_matches_enumeration() {
        let l = rel_keyed(&[1.0, 2.0, 3.0], &zrows(3));
        let r = rel_keyed(&[0.5, 2.0, 3.5], &zrows(3));
        for op in [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Gt, ThetaOp::Ge] {
            let cx = JoinContext::new(&l, &r, JoinSpec::Theta(op), &[]).unwrap();
            let mut seen = 0u64;
            cx.for_each_pair(|_, _| seen += 1);
            assert_eq!(seen, cx.count_pairs(), "op {op}");
        }
    }

    fn agg_schema() -> Schema {
        Schema::builder()
            .agg("cost", Preference::Min, 0)
            .local("rtg", Preference::Max)
            .build()
            .unwrap()
    }

    #[test]
    fn fill_layout_and_aggregation() {
        let mut bl = Relation::builder(agg_schema());
        bl.add_grouped(1, &[100.0, 7.0]).unwrap();
        let l = bl.build().unwrap();
        let mut br = Relation::builder(agg_schema());
        br.add_grouped(1, &[50.0, 9.0]).unwrap();
        let r = br.build().unwrap();
        let cx = JoinContext::new(&l, &r, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        assert_eq!(cx.d_joined(), 3); // l.rtg, r.rtg, sum(cost)
        assert_eq!((cx.l1(), cx.l2(), cx.a()), (1, 1, 1));
        // rtg is Max so normalised = negated; cost sums in raw space.
        assert_eq!(cx.joined_row(0, 0), vec![-7.0, -9.0, 150.0]);
        assert_eq!(cx.joined_attr_names(), vec!["l.rtg", "r.rtg", "sum(cost)"]);
    }

    #[test]
    fn split_fills_reproduce_fill() {
        let mut bl = Relation::builder(agg_schema());
        bl.add_grouped(1, &[100.0, 7.0]).unwrap();
        bl.add_grouped(1, &[80.0, 3.0]).unwrap();
        let l = bl.build().unwrap();
        let mut br = Relation::builder(agg_schema());
        br.add_grouped(1, &[50.0, 9.0]).unwrap();
        br.add_grouped(1, &[60.0, 1.0]).unwrap();
        let r = br.build().unwrap();
        let cx = JoinContext::new(&l, &r, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        let d = cx.d_joined();
        for u in 0..2u32 {
            let mut split = vec![f64::NAN; d];
            cx.fill_left(u, &mut split);
            for v in 0..2u32 {
                cx.fill_rest(u, v, &mut split);
                assert_eq!(split, cx.joined_row(u, v), "({u},{v})");
                let mut aggs = vec![f64::NAN; cx.a()];
                cx.fill_aggs(u, v, &mut aggs);
                assert_eq!(aggs, split[cx.l1() + cx.l2()..], "aggs of ({u},{v})");
            }
        }
        // The local-attr accessors address base rows consistently with the
        // joined layout.
        let joined = cx.joined_row(1, 1);
        for (i, &attr) in cx.left_local_attrs().iter().enumerate() {
            assert_eq!(joined[i], l.column(attr)[1]);
        }
        for (j, &attr) in cx.right_local_attrs().iter().enumerate() {
            assert_eq!(joined[cx.l1() + j], r.column(attr)[1]);
        }
    }

    #[test]
    fn max_aggregation_on_max_preference_roundtrips() {
        // agg = max of two Max-preference values: raw max(7, 9) = 9,
        // normalised −9.
        let sch = || {
            Schema::builder()
                .agg("rating", Preference::Max, 0)
                .local("x", Preference::Min)
                .build()
                .unwrap()
        };
        let mut bl = Relation::builder(sch());
        bl.add_grouped(1, &[7.0, 0.0]).unwrap();
        let l = bl.build().unwrap();
        let mut br = Relation::builder(sch());
        br.add_grouped(1, &[9.0, 0.0]).unwrap();
        let r = br.build().unwrap();
        let cx = JoinContext::new(&l, &r, JoinSpec::Equality, &[AggFunc::Max]).unwrap();
        assert_eq!(cx.joined_row(0, 0), vec![0.0, 0.0, -9.0]);
        // Combining the stored (normalised) column values reproduces it.
        let attr = l.schema().agg_index(0).unwrap();
        assert_eq!(
            cx.combine_slot(0, l.column(attr)[0], r.column(attr)[0]),
            -9.0
        );
    }

    #[test]
    fn validation_errors() {
        let l = rel_grouped(&[1], &[vec![0.0]]);
        let r = rel_grouped(&[1], &[vec![0.0]]);
        // Wrong func count for schemas without slots.
        assert!(matches!(
            JoinContext::new(&l, &r, JoinSpec::Equality, &[AggFunc::Sum]),
            Err(JoinError::AggArityMismatch { .. })
        ));
        // Theta join over group keys.
        assert!(matches!(
            JoinContext::new(&l, &r, JoinSpec::Theta(ThetaOp::Lt), &[]),
            Err(JoinError::KeyKindMismatch { .. })
        ));

        // Slot preference mismatch.
        let sl = Schema::builder()
            .agg("c", Preference::Min, 0)
            .build()
            .unwrap();
        let sr = Schema::builder()
            .agg("c", Preference::Max, 0)
            .build()
            .unwrap();
        let mut bl = Relation::builder(sl);
        bl.add_grouped(1, &[0.0]).unwrap();
        let l2 = bl.build().unwrap();
        let mut br = Relation::builder(sr);
        br.add_grouped(1, &[0.0]).unwrap();
        let r2 = br.build().unwrap();
        assert!(matches!(
            JoinContext::new(&l2, &r2, JoinSpec::Equality, &[AggFunc::Sum]),
            Err(JoinError::SlotPreferenceMismatch { slot: 0 })
        ));
    }

    #[test]
    fn from_arcs_matches_borrowed_and_has_no_lifetime() {
        let l = rel_grouped(&[1, 1, 2], &[vec![1.0], vec![2.0], vec![3.0]]);
        let r = rel_grouped(&[1, 2], &[vec![4.0], vec![5.0]]);
        let borrowed = JoinContext::new(&l, &r, JoinSpec::Equality, &[]).unwrap();
        let owned: JoinContext<'static> = JoinContext::from_arcs(
            Arc::new(l.clone()),
            Arc::new(r.clone()),
            JoinSpec::Equality,
            &[],
        )
        .unwrap();
        fn assert_send_sync_static<T: Send + Sync + 'static>(_: &T) {}
        assert_send_sync_static(&owned);
        assert_eq!(owned.materialize(), borrowed.materialize());
        assert_eq!(owned.count_pairs(), borrowed.count_pairs());
    }

    #[test]
    fn materialize_small_join() {
        let l = rel_grouped(&[1, 2], &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let r = rel_grouped(&[1, 1], &[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let cx = JoinContext::new(&l, &r, JoinSpec::Equality, &[]).unwrap();
        let m = cx.materialize();
        assert_eq!(m.n(), 2);
        assert_eq!(m.pairs, vec![(0, 0), (0, 1)]);
        assert_eq!(m.row(0), &[1.0, 2.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 7.0, 8.0]);
    }
}
