//! Attribute-major tuple storage with join keys and a group index.

use crate::error::{Error, Result};
use crate::schema::Schema;
use std::ops::Range;

/// Identifier of a tuple within one relation (its row index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The row index as a `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The join-key column of a relation.
///
/// KSJQ joins never compare join keys with skyline semantics, so keys are
/// kept out of the attribute matrix entirely.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinKeys {
    /// No key: the relation can only participate in Cartesian products
    /// (paper Sec. 6.5).
    None,
    /// Dictionary-encoded equality-join keys; tuples join when ids match
    /// (paper Assumption 1). Use [`crate::StringDictionary`] to encode
    /// strings.
    Group(Vec<u64>),
    /// Numeric key for non-equality (theta) join conditions such as
    /// `f1.arrival < f2.departure` (paper Sec. 6.6).
    Numeric(Vec<f64>),
}

impl JoinKeys {
    fn len(&self) -> usize {
        match self {
            JoinKeys::None => 0,
            JoinKeys::Group(v) => v.len(),
            JoinKeys::Numeric(v) => v.len(),
        }
    }
}

/// Index over the distinct equality-join groups of a relation.
///
/// Tuple ids are stored sorted by group id, so each group is a contiguous
/// slice; this avoids hashing in the hot verification loops and gives
/// deterministic iteration order.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupIndex {
    order: Vec<u32>,
    groups: Vec<(u64, Range<usize>)>,
}

impl GroupIndex {
    fn build(keys: &[u64]) -> GroupIndex {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        // The id tiebreak makes the within-group order deterministic by
        // construction, so the faster unstable sort is safe here.
        order.sort_unstable_by_key(|&t| (keys[t as usize], t));
        let mut groups = Vec::new();
        let mut start = 0usize;
        while start < order.len() {
            let gid = keys[order[start] as usize];
            let mut end = start + 1;
            while end < order.len() && keys[order[end] as usize] == gid {
                end += 1;
            }
            groups.push((gid, start..end));
            start = end;
        }
        GroupIndex { order, groups }
    }

    /// Number of distinct groups (`g` in the paper).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Iterate `(group_id, member tuple ids)` in ascending group-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u32])> + '_ {
        self.groups
            .iter()
            .map(move |(gid, r)| (*gid, &self.order[r.clone()]))
    }

    /// The members of group `gid`, or an empty slice if the group does not
    /// exist in this relation.
    pub fn members(&self, gid: u64) -> &[u32] {
        match self.groups.binary_search_by_key(&gid, |(g, _)| *g) {
            Ok(i) => &self.order[self.groups[i].1.clone()],
            Err(_) => &[],
        }
    }

    /// All tuple ids sorted by `(group id, tuple id)` — the *scan order*
    /// the blocked kernels permute per-tuple data into so every group is a
    /// contiguous range of it.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The positions of group `gid`'s members within [`order`](Self::order)
    /// (`members(gid) == &order()[range_of(gid)]`); empty for unknown
    /// groups.
    pub fn range_of(&self, gid: u64) -> Range<usize> {
        match self.groups.binary_search_by_key(&gid, |(g, _)| *g) {
            Ok(i) => self.groups[i].1.clone(),
            Err(_) => 0..0,
        }
    }
}

/// A base relation: a [`Schema`], `n` tuples of `d` normalised attribute
/// values, and an optional join-key column.
///
/// Attribute values are normalised to lower-is-better orientation at
/// build time (a `Max` attribute is negated) and stored **once**, in one
/// attribute-major (struct-of-arrays) `Vec<f64>`: attribute `a`'s `n`
/// values occupy `columns()[a·n..(a+1)·n]`. Every production kernel
/// sweeps those columns stride-1
/// ([`crate::dominance::dom_counts_partial_block_columnar_into`] and
/// friends); point reads go through [`column`](Self::column) and
/// [`value`](Self::value). There is no row-major copy: the row-at-a-time
/// algorithms gather the rows they need into scratch
/// ([`gather_rows`](Self::gather_rows)) and drop it when they return. Use
/// [`Relation::raw_value`] / [`Relation::raw_row`] to recover the
/// user-facing numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    n: usize,
    /// The normalised values, attribute-major: attribute `a`'s column
    /// occupies `columns[a * n .. (a + 1) * n]`.
    columns: Vec<f64>,
    keys: JoinKeys,
    group_index: Option<GroupIndex>,
    numeric_order: Option<Vec<u32>>,
}

impl Relation {
    /// Start building a relation with the given schema.
    pub fn builder(schema: Schema) -> RelationBuilder {
        RelationBuilder {
            schema,
            columns: Vec::new(),
            cap: 0,
            keys: JoinKeys::None,
            n: 0,
        }
    }

    /// Build a relation from equality-join keys and raw rows.
    ///
    /// Convenience for the common synthetic-workload shape; equivalent to a
    /// builder loop over [`RelationBuilder::add_grouped`].
    pub fn from_grouped_rows(schema: Schema, keys: &[u64], rows: &[Vec<f64>]) -> Result<Relation> {
        if keys.len() != rows.len() {
            return Err(Error::Invalid(format!(
                "{} keys but {} rows",
                keys.len(),
                rows.len()
            )));
        }
        let mut b = Relation::builder(schema).with_capacity(rows.len());
        for (k, row) in keys.iter().zip(rows) {
            b.add_grouped(*k, row)?;
        }
        b.build()
    }

    /// Freeze `n` tuples of attribute-major `columns` and their keys,
    /// building the group / order indexes. The one constructor behind
    /// [`RelationBuilder::build`] and the versioned derivations. An empty
    /// relation has no key column, whatever it was built from.
    fn assemble(schema: Schema, n: usize, columns: Vec<f64>, keys: JoinKeys) -> Relation {
        debug_assert_eq!(columns.len(), n * schema.d());
        debug_assert!(keys.len() == 0 || keys.len() == n);
        let keys = if n == 0 { JoinKeys::None } else { keys };
        let group_index = match &keys {
            JoinKeys::Group(v) => Some(GroupIndex::build(v)),
            _ => None,
        };
        let numeric_order = match &keys {
            JoinKeys::Numeric(v) => {
                let mut order: Vec<u32> = (0..v.len() as u32).collect();
                order.sort_by(|&a, &b| {
                    v[a as usize]
                        .partial_cmp(&v[b as usize])
                        .expect("join keys validated finite")
                        .then(a.cmp(&b))
                });
                Some(order)
            }
            _ => None,
        };
        Relation {
            schema,
            n,
            columns,
            keys,
            group_index,
            numeric_order,
        }
    }

    /// This relation with `rows` (raw values, one group key each)
    /// appended after its tuples: the new columns are the old columns
    /// plus the normalised delta, so the result equals a fresh load of
    /// the old raw rows followed by `rows`. The relation must be empty or
    /// group-keyed.
    pub(crate) fn appended(&self, keys: &[u64], rows: &[Vec<f64>]) -> Result<Relation> {
        let d = self.d();
        for (i, row) in rows.iter().enumerate() {
            check_row(&self.schema, row, self.n + i)?;
        }
        let n = self.n + rows.len();
        let mut columns = Vec::with_capacity(n * d);
        for a in 0..d {
            let pref = self.schema.attr(a).preference;
            columns.extend_from_slice(self.column(a));
            columns.extend(rows.iter().map(|row| pref.normalize(row[a])));
        }
        let mut all_keys = Vec::with_capacity(n);
        if let JoinKeys::Group(old) = &self.keys {
            all_keys.extend_from_slice(old);
        }
        all_keys.extend_from_slice(keys);
        let keys = JoinKeys::Group(all_keys);
        Ok(Relation::assemble(self.schema.clone(), n, columns, keys))
    }

    /// This relation without the tuples whose group key is `key`
    /// (survivors keep their relative order), and how many were dropped.
    /// `None` when no tuple carries the key.
    pub(crate) fn without_key(&self, key: u64) -> Option<(Relation, usize)> {
        let JoinKeys::Group(old) = &self.keys else {
            return None;
        };
        let keep: Vec<bool> = old.iter().map(|&k| k != key).collect();
        let removed = keep.iter().filter(|&&k| !k).count();
        if removed == 0 {
            return None;
        }
        let n = self.n - removed;
        let mut columns = Vec::with_capacity(n * self.d());
        for a in 0..self.d() {
            columns.extend(
                self.column(a)
                    .iter()
                    .zip(&keep)
                    .filter(|&(_, &k)| k)
                    .map(|(&v, _)| v),
            );
        }
        let keys = JoinKeys::Group(old.iter().copied().filter(|&k| k != key).collect());
        Some((
            Relation::assemble(self.schema.clone(), n, columns, keys),
            removed,
        ))
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of skyline attributes (`d_i`).
    #[inline]
    pub fn d(&self) -> usize {
        self.schema.d()
    }

    /// Is the relation empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The full normalised attribute storage, attribute-major (`n · d`
    /// values): attribute `a`'s column occupies `columns()[a·n..(a+1)·n]`.
    ///
    /// This is the layout the columnar kernels
    /// ([`crate::dominance::dom_counts_block_columnar`] and friends) sweep
    /// stride-1.
    #[inline]
    pub fn columns(&self) -> &[f64] {
        &self.columns
    }

    /// The contiguous normalised column of attribute `attr` (`n` values,
    /// one per tuple in id order).
    #[inline]
    pub fn column(&self, attr: usize) -> &[f64] {
        &self.columns[attr * self.n..(attr + 1) * self.n]
    }

    /// The normalised value of attribute `attr` of tuple `t`.
    #[inline]
    pub fn value(&self, t: TupleId, attr: usize) -> f64 {
        self.columns[attr * self.n + t.idx()]
    }

    /// Every tuple's normalised row, gathered into a fresh row-major
    /// buffer (`n · d` values, tuple `t` at `[t·d..(t+1)·d]`) — scratch for
    /// the row-at-a-time algorithms, which free it when they return.
    pub fn gather_rows(&self) -> Vec<f64> {
        let d = self.d();
        let mut rows = vec![0.0; self.n * d];
        for a in 0..d {
            for (t, &v) in self.column(a).iter().enumerate() {
                rows[t * d + a] = v;
            }
        }
        rows
    }

    /// The raw (denormalised) value of attribute `attr` of tuple `t`.
    pub fn raw_value(&self, t: TupleId, attr: usize) -> f64 {
        self.schema
            .attr(attr)
            .preference
            .denormalize(self.value(t, attr))
    }

    /// The full raw row of tuple `t`, gathered from the columns
    /// (allocates).
    pub fn raw_row(&self, t: TupleId) -> Vec<f64> {
        (0..self.d()).map(|a| self.raw_value(t, a)).collect()
    }

    /// The join-key column.
    #[inline]
    pub fn keys(&self) -> &JoinKeys {
        &self.keys
    }

    /// Equality-join group id of tuple `t`, if the relation has group keys.
    #[inline]
    pub fn group_id(&self, t: TupleId) -> Option<u64> {
        match &self.keys {
            JoinKeys::Group(v) => Some(v[t.idx()]),
            _ => None,
        }
    }

    /// Numeric join key of tuple `t`, if the relation has numeric keys.
    #[inline]
    pub fn numeric_key(&self, t: TupleId) -> Option<f64> {
        match &self.keys {
            JoinKeys::Numeric(v) => Some(v[t.idx()]),
            _ => None,
        }
    }

    /// The group index (present iff the relation has group keys).
    #[inline]
    pub fn group_index(&self) -> Option<&GroupIndex> {
        self.group_index.as_ref()
    }

    /// Tuple ids sorted by ascending numeric join key (present iff the
    /// relation has numeric keys). Ties keep ascending tuple-id order.
    #[inline]
    pub fn numeric_order(&self) -> Option<&[u32]> {
        self.numeric_order.as_deref()
    }

    /// Every tuple id, ascending.
    pub fn ids(&self) -> impl Iterator<Item = TupleId> {
        (0..self.n as u32).map(TupleId)
    }
}

/// Reject a raw row of the wrong arity or with a non-finite value; `row`
/// is its index for the error message.
fn check_row(schema: &Schema, values: &[f64], row: usize) -> Result<()> {
    if values.len() != schema.d() {
        return Err(Error::ArityMismatch {
            expected: schema.d(),
            got: values.len(),
        });
    }
    match values.iter().position(|v| !v.is_finite()) {
        Some(attr) => Err(Error::NonFiniteValue { attr, row }),
        None => Ok(()),
    }
}

/// Incremental [`Relation`] construction. Each added row's normalised
/// values go straight into the relation's attribute-major buffer; when
/// the row count was reserved up front
/// ([`with_capacity`](Self::with_capacity)), [`build`](Self::build) hands
/// that buffer over without copying it.
#[derive(Debug)]
pub struct RelationBuilder {
    schema: Schema,
    /// Attribute-major values with a column stride of `cap`: attribute
    /// `a` of row `i` lives at `columns[a * cap + i]`.
    columns: Vec<f64>,
    cap: usize,
    keys: JoinKeys,
    n: usize,
}

impl RelationBuilder {
    /// Reserve space for `n` tuples up front.
    pub fn with_capacity(mut self, n: usize) -> Self {
        self.restride(n);
        match &mut self.keys {
            JoinKeys::Group(v) => v.reserve(n),
            JoinKeys::Numeric(v) => v.reserve(n),
            JoinKeys::None => {}
        }
        self
    }

    /// Grow the column stride to `cap` rows, moving the rows so far.
    fn restride(&mut self, cap: usize) {
        if cap <= self.cap {
            return;
        }
        let mut columns = vec![0.0; cap * self.schema.d()];
        for (a, col) in columns.chunks_exact_mut(cap).enumerate() {
            let old = a * self.cap;
            col[..self.n].copy_from_slice(&self.columns[old..old + self.n]);
        }
        self.columns = columns;
        self.cap = cap;
    }

    fn push_row(&mut self, row: &[f64]) -> Result<()> {
        check_row(&self.schema, row, self.n)?;
        if self.n == self.cap {
            self.restride((2 * self.cap).max(16));
        }
        for (a, &v) in row.iter().enumerate() {
            self.columns[a * self.cap + self.n] = self.schema.attr(a).preference.normalize(v);
        }
        self.n += 1;
        Ok(())
    }

    /// Add a keyless tuple (Cartesian-product relations only).
    pub fn add(&mut self, row: &[f64]) -> Result<&mut Self> {
        if self.n > 0 && !matches!(self.keys, JoinKeys::None) {
            return Err(Error::InconsistentJoinKeys);
        }
        self.push_row(row)?;
        Ok(self)
    }

    /// Add a tuple with an equality-join group key.
    pub fn add_grouped(&mut self, group: u64, row: &[f64]) -> Result<&mut Self> {
        match &mut self.keys {
            JoinKeys::None if self.n == 0 => self.keys = JoinKeys::Group(vec![]),
            JoinKeys::Group(_) => {}
            _ => return Err(Error::InconsistentJoinKeys),
        }
        self.push_row(row)?;
        if let JoinKeys::Group(v) = &mut self.keys {
            v.push(group);
        }
        Ok(self)
    }

    /// Add a tuple with a numeric theta-join key.
    pub fn add_keyed(&mut self, key: f64, row: &[f64]) -> Result<&mut Self> {
        if !key.is_finite() {
            return Err(Error::Invalid(format!(
                "non-finite join key at row {}",
                self.n
            )));
        }
        match &mut self.keys {
            JoinKeys::None if self.n == 0 => self.keys = JoinKeys::Numeric(vec![]),
            JoinKeys::Numeric(_) => {}
            _ => return Err(Error::InconsistentJoinKeys),
        }
        self.push_row(row)?;
        if let JoinKeys::Numeric(v) = &mut self.keys {
            v.push(key);
        }
        Ok(self)
    }

    /// Validate and freeze the relation, building group / order indexes.
    pub fn build(mut self) -> Result<Relation> {
        let (n, d) = (self.n, self.schema.d());
        if self.cap != n {
            // Close the gaps between the columns, in place.
            for a in 1..d {
                let from = a * self.cap;
                self.columns.copy_within(from..from + n, a * n);
            }
            self.columns.truncate(n * d);
            self.columns.shrink_to_fit();
        }
        Ok(Relation::assemble(self.schema, n, self.columns, self.keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::Preference;

    fn schema3() -> Schema {
        Schema::builder()
            .local("a", Preference::Min)
            .local("b", Preference::Max)
            .local("c", Preference::Min)
            .build()
            .unwrap()
    }

    fn schema2() -> Schema {
        Schema::builder()
            .local("cost", Preference::Min)
            .local("rating", Preference::Max)
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_access() {
        let mut b = Relation::builder(schema2());
        b.add_grouped(1, &[10.0, 4.0]).unwrap();
        b.add_grouped(2, &[20.0, 5.0]).unwrap();
        let r = b.build().unwrap();
        assert_eq!(r.n(), 2);
        assert_eq!(r.d(), 2);
        // rating is Max, so it is negated internally…
        assert_eq!(r.value(TupleId(0), 0), 10.0);
        assert_eq!(r.value(TupleId(0), 1), -4.0);
        // …but raw access recovers the original.
        assert_eq!(r.raw_value(TupleId(0), 1), 4.0);
        assert_eq!(r.raw_row(TupleId(1)), vec![20.0, 5.0]);
        assert_eq!(r.group_id(TupleId(1)), Some(2));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = Relation::builder(schema2());
        let e = b.add_grouped(0, &[1.0]).unwrap_err();
        assert_eq!(
            e,
            Error::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn nan_rejected() {
        let mut b = Relation::builder(schema2());
        let e = b.add_grouped(0, &[1.0, f64::NAN]).unwrap_err();
        assert!(matches!(e, Error::NonFiniteValue { attr: 1, row: 0 }));
    }

    #[test]
    fn mixed_key_kinds_rejected() {
        let mut b = Relation::builder(schema2());
        b.add_grouped(0, &[1.0, 1.0]).unwrap();
        assert_eq!(
            b.add_keyed(2.0, &[1.0, 1.0]).unwrap_err(),
            Error::InconsistentJoinKeys
        );
        assert_eq!(b.add(&[1.0, 1.0]).unwrap_err(), Error::InconsistentJoinKeys);
    }

    #[test]
    fn group_index_ranges() {
        let mut b = Relation::builder(Schema::uniform(1).unwrap());
        for (g, v) in [(5u64, 0.0), (1, 1.0), (5, 2.0), (1, 3.0), (7, 4.0)] {
            b.add_grouped(g, &[v]).unwrap();
        }
        let r = b.build().unwrap();
        let gi = r.group_index().unwrap();
        assert_eq!(gi.group_count(), 3);
        let collected: Vec<(u64, Vec<u32>)> = gi.iter().map(|(g, m)| (g, m.to_vec())).collect();
        assert_eq!(
            collected,
            vec![(1, vec![1, 3]), (5, vec![0, 2]), (7, vec![4])]
        );
        assert_eq!(gi.members(5), &[0, 2]);
        assert_eq!(gi.members(99), &[] as &[u32]);
    }

    #[test]
    fn group_index_members_ascend_within_group() {
        // The (key, id) sort key makes the id tiebreak explicit; members
        // of every group must come out in ascending id order even when
        // many tuples tie on the key.
        let keys: Vec<u64> = (0..64).map(|i| (i * 7 + 3) % 4).collect();
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let r = Relation::from_grouped_rows(Schema::uniform(1).unwrap(), &keys, &rows).unwrap();
        let gi = r.group_index().unwrap();
        for (gid, members) in gi.iter() {
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "group {gid} not ascending: {members:?}"
            );
            for &m in members {
                assert_eq!(keys[m as usize], gid);
            }
        }
        assert_eq!(gi.iter().map(|(_, m)| m.len()).sum::<usize>(), 64);
    }

    #[test]
    fn gather_rows_is_row_major() {
        let r = Relation::from_grouped_rows(
            Schema::uniform(2).unwrap(),
            &[1, 2],
            &[vec![1.0, 2.0], vec![3.0, 4.0]],
        )
        .unwrap();
        assert_eq!(r.gather_rows(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.columns(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn columns_are_the_transposed_rows() {
        let r = Relation::from_grouped_rows(
            Schema::uniform(3).unwrap(),
            &[1, 2, 1],
            &[
                vec![1.0, 2.0, 3.0],
                vec![4.0, 5.0, 6.0],
                vec![7.0, 8.0, 9.0],
            ],
        )
        .unwrap();
        assert_eq!(r.column(0), &[1.0, 4.0, 7.0]);
        assert_eq!(r.column(1), &[2.0, 5.0, 8.0]);
        assert_eq!(r.column(2), &[3.0, 6.0, 9.0]);
        assert_eq!(r.columns().len(), r.n() * r.d());
        let rows = r.gather_rows();
        for t in r.ids() {
            for a in 0..r.d() {
                assert_eq!(r.value(t, a), rows[t.idx() * r.d() + a], "{t} attr {a}");
            }
        }
    }

    #[test]
    fn group_index_order_and_ranges_agree_with_members() {
        let keys: Vec<u64> = (0..40).map(|i| (i * 13 + 5) % 6).collect();
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let r = Relation::from_grouped_rows(Schema::uniform(1).unwrap(), &keys, &rows).unwrap();
        let gi = r.group_index().unwrap();
        for (gid, members) in gi.iter() {
            assert_eq!(&gi.order()[gi.range_of(gid)], members, "group {gid}");
        }
        assert_eq!(gi.range_of(999), 0..0);
    }

    #[test]
    fn numeric_order_sorted() {
        let mut b = Relation::builder(Schema::uniform(1).unwrap());
        for (k, v) in [(3.0, 0.0), (1.0, 1.0), (2.0, 2.0), (1.0, 3.0)] {
            b.add_keyed(k, &[v]).unwrap();
        }
        let r = b.build().unwrap();
        assert_eq!(r.numeric_order().unwrap(), &[1, 3, 2, 0]);
        assert_eq!(r.numeric_key(TupleId(0)), Some(3.0));
        assert!(r.group_index().is_none());
    }

    #[test]
    fn from_grouped_rows_roundtrip() {
        let r = Relation::from_grouped_rows(
            Schema::uniform(2).unwrap(),
            &[1, 1, 2],
            &[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
        )
        .unwrap();
        assert_eq!(r.n(), 3);
        assert_eq!(r.group_index().unwrap().group_count(), 2);
    }

    #[test]
    fn from_grouped_rows_length_mismatch() {
        let e = Relation::from_grouped_rows(Schema::uniform(1).unwrap(), &[1], &[]).unwrap_err();
        assert!(matches!(e, Error::Invalid(_)));
    }

    #[test]
    fn builder_capacity_never_changes_the_relation() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64, (i * 7 % 11) as f64, -(i as f64)])
            .collect();
        let keys: Vec<u64> = (0..40).map(|i| i % 3).collect();
        let build = |reserve: usize| {
            let mut b = Relation::builder(schema3()).with_capacity(reserve);
            for (k, row) in keys.iter().zip(&rows) {
                b.add_grouped(*k, row).unwrap();
            }
            b.build().unwrap()
        };
        let exact = build(40);
        for reserve in [0, 1, 17, 39, 41, 100] {
            let r = build(reserve);
            assert_eq!(r, exact, "reserve {reserve}");
            assert_eq!(r.columns().len(), 40 * 3);
        }
        assert_eq!(exact.raw_row(TupleId(5)), rows[5]);
        assert_eq!(exact.column(1)[6], -(6.0 * 7.0 % 11.0));
    }

    #[test]
    fn rejected_row_leaves_the_builder_unchanged() {
        let mut b = Relation::builder(Schema::uniform(2).unwrap());
        b.add(&[0.0, 1.0]).unwrap();
        assert!(b.add(&[2.0, f64::INFINITY]).is_err());
        b.add(&[3.0, 4.0]).unwrap();
        let r = b.build().unwrap();
        assert_eq!(r.gather_rows(), vec![0.0, 1.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::builder(Schema::uniform(3).unwrap())
            .build()
            .unwrap();
        assert!(r.is_empty());
        assert_eq!(r.n(), 0);
        assert_eq!(r.ids().count(), 0);
        assert!(r.gather_rows().is_empty());
    }
}
