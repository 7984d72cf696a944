//! Versioned relations: epoch-stamped snapshots of a mutable catalog.
//!
//! A [`VersionedRelation`] is an immutable *version* of a mutable logical
//! relation: a schema, an epoch and one [`Relation`] snapshot behind an
//! `Arc`. [`append`](VersionedRelation::append) and
//! [`delete_key`](VersionedRelation::delete_key) never modify the receiver;
//! they derive a **new** snapshot straight from the current one's columns
//! and return it as the next version, epoch bumped by one:
//!
//! * `append` copies each column and extends it with the normalised delta;
//! * `delete_key` copies each column without the key's tuples, and shares
//!   the snapshot outright when no tuple carries the key.
//!
//! The version holds no storage of its own besides the snapshot, so
//! [`from_relation`](VersionedRelation::from_relation) is O(1) and a
//! server can derive each mutation from whatever snapshot its catalog
//! currently binds. Queries prepared against a snapshot keep executing
//! against *their* epoch no matter how many versions are derived
//! afterwards — epoch pinning is simply `Arc` immutability, there is no
//! locking in the read path.
//!
//! A derived snapshot is `==` to a fresh load of the same raw rows:
//! surviving tuples keep their normalised values bit for bit, the delta is
//! normalised exactly as [`RelationBuilder`](crate::RelationBuilder) would,
//! and the group index is rebuilt from the derived keys.

use crate::error::{Error, Result};
use crate::relation::{JoinKeys, Relation};
use crate::schema::Schema;
use std::sync::Arc;

/// An epoch-stamped immutable version of a mutable logical relation.
///
/// See the [module docs](self) for the versioning model. Cloning is cheap
/// (an `Arc` clone of the snapshot).
#[derive(Debug, Clone)]
pub struct VersionedRelation {
    schema: Schema,
    epoch: u64,
    snapshot: Arc<Relation>,
}

impl VersionedRelation {
    /// Version 0 of an empty logical relation.
    pub fn new(schema: Schema) -> Result<VersionedRelation> {
        let snapshot = Arc::new(Relation::builder(schema.clone()).build()?);
        Ok(VersionedRelation {
            schema,
            epoch: 0,
            snapshot,
        })
    }

    /// Version 0 seeded from an existing relation, which becomes the
    /// snapshot as-is (no copy). The relation must use equality-join
    /// group keys — the only key kind with well-defined append/delete
    /// row semantics here.
    pub fn from_relation(rel: Arc<Relation>) -> Result<VersionedRelation> {
        if !rel.is_empty() && !matches!(rel.keys(), JoinKeys::Group(_)) {
            return Err(Error::Invalid(
                "versioned relations require equality-join (group) keys".into(),
            ));
        }
        Ok(VersionedRelation {
            schema: rel.schema().clone(),
            epoch: 0,
            snapshot: rel,
        })
    }

    /// This version's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of rows in this version.
    pub fn n(&self) -> usize {
        self.snapshot.n()
    }

    /// The schema shared by every version.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The materialised snapshot of this version. In-flight queries hold
    /// their own clone of this `Arc`, pinning the epoch they prepared
    /// against.
    pub fn snapshot(&self) -> &Arc<Relation> {
        &self.snapshot
    }

    /// Derive the next version with `rows` (raw values, one group key
    /// each) appended after the existing rows. Existing row ids are
    /// preserved; the new rows take ids `n .. n + rows.len()`.
    pub fn append(&self, keys: &[u64], rows: &[Vec<f64>]) -> Result<VersionedRelation> {
        if keys.len() != rows.len() {
            return Err(Error::Invalid(format!(
                "{} keys but {} rows",
                keys.len(),
                rows.len()
            )));
        }
        Ok(self.next(Arc::new(self.snapshot.appended(keys, rows)?)))
    }

    /// Derive the next version with every row whose group key equals
    /// `key` removed (surviving rows keep their relative order). Returns
    /// the new version and how many rows were dropped; the epoch bumps
    /// even when nothing matched, so a delete is always observable.
    pub fn delete_key(&self, key: u64) -> Result<(VersionedRelation, usize)> {
        Ok(match self.snapshot.without_key(key) {
            Some((rel, removed)) => (self.next(Arc::new(rel)), removed),
            // Nothing changed: share the snapshot.
            None => (self.next(Arc::clone(&self.snapshot)), 0),
        })
    }

    /// The version after this one, holding `snapshot`.
    fn next(&self, snapshot: Arc<Relation>) -> VersionedRelation {
        VersionedRelation {
            schema: self.schema.clone(),
            epoch: self.epoch + 1,
            snapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::Preference;
    use crate::relation::TupleId;

    fn raw(i: usize) -> Vec<f64> {
        vec![i as f64, (i * 7 % 13) as f64, 100.0 - i as f64]
    }

    fn schema() -> Schema {
        Schema::builder()
            .local("x", Preference::Min)
            .local("y", Preference::Min)
            .local("z", Preference::Max)
            .build()
            .unwrap()
    }

    fn seed(n: usize) -> VersionedRelation {
        let keys: Vec<u64> = (0..n).map(|i| (i % 5) as u64).collect();
        let rows: Vec<Vec<f64>> = (0..n).map(raw).collect();
        let rel = Arc::new(Relation::from_grouped_rows(schema(), &keys, &rows).unwrap());
        VersionedRelation::from_relation(rel).unwrap()
    }

    #[test]
    fn append_bumps_epoch_and_preserves_prefix() {
        let v0 = seed(10);
        assert_eq!(v0.epoch(), 0);
        let v1 = v0.append(&[7], &[raw(10)]).unwrap();
        assert_eq!(v1.epoch(), 1);
        assert_eq!(v1.n(), 11);
        // Prefix rows are bit-identical (ids and normalised values).
        for t in 0..10u32 {
            for a in 0..3 {
                assert_eq!(
                    v0.snapshot().value(TupleId(t), a),
                    v1.snapshot().value(TupleId(t), a),
                    "row {t}"
                );
            }
            assert_eq!(
                v0.snapshot().group_id(TupleId(t)),
                v1.snapshot().group_id(TupleId(t))
            );
        }
        assert_eq!(v1.snapshot().group_id(TupleId(10)), Some(7));
        // The appended snapshot equals a from-scratch build of the same rows.
        let keys: Vec<u64> = (0..10).map(|i| (i % 5) as u64).chain([7]).collect();
        let rows: Vec<Vec<f64>> = (0..11).map(raw).collect();
        let fresh = Relation::from_grouped_rows(schema(), &keys, &rows).unwrap();
        assert_eq!(**v1.snapshot(), fresh);
    }

    #[test]
    fn append_fills_past_a_thousand_rows() {
        let v0 = seed(1023);
        let delta_keys = vec![3u64; 2];
        let delta_rows: Vec<Vec<f64>> = (0..2).map(|i| raw(5000 + i)).collect();
        let v1 = v0.append(&delta_keys, &delta_rows).unwrap();
        assert_eq!(v1.n(), 1025);
        assert_eq!(v1.epoch(), 1);
        assert_eq!(v1.snapshot().raw_row(TupleId(1024)), raw(5001));
    }

    #[test]
    fn delete_keeps_survivor_order() {
        let mut keys: Vec<u64> = vec![1; 1024];
        keys.extend([42, 2, 42]);
        let rows: Vec<Vec<f64>> = (0..keys.len()).map(raw).collect();
        let rel = Arc::new(Relation::from_grouped_rows(schema(), &keys, &rows).unwrap());
        let v0 = VersionedRelation::from_relation(rel).unwrap();
        let (v1, removed) = v0.delete_key(42).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(v1.epoch(), 1);
        assert_eq!(v1.n(), 1025);
        // Survivors keep their relative order.
        assert_eq!(v1.snapshot().group_id(TupleId(1024)), Some(2));
        assert_eq!(v1.snapshot().raw_row(TupleId(1024)), raw(1025));
        let survivors: Vec<u64> = keys.iter().copied().filter(|&k| k != 42).collect();
        let survivor_rows: Vec<Vec<f64>> = (0..keys.len())
            .filter(|&i| keys[i] != 42)
            .map(raw)
            .collect();
        let fresh = Relation::from_grouped_rows(schema(), &survivors, &survivor_rows).unwrap();
        assert_eq!(**v1.snapshot(), fresh);
        // Deleting a missing key bumps the epoch but shares the snapshot.
        let (v2, zero) = v1.delete_key(999).unwrap();
        assert_eq!(zero, 0);
        assert_eq!(v2.epoch(), 2);
        assert!(Arc::ptr_eq(v2.snapshot(), v1.snapshot()));
    }

    #[test]
    fn from_relation_shares_the_relation() {
        let rel = Arc::new(Relation::from_grouped_rows(schema(), &[1], &[raw(0)]).unwrap());
        let v0 = VersionedRelation::from_relation(Arc::clone(&rel)).unwrap();
        assert!(Arc::ptr_eq(v0.snapshot(), &rel));
    }

    #[test]
    fn pinned_snapshot_unaffected_by_later_versions() {
        let v0 = seed(8);
        let pinned = Arc::clone(v0.snapshot());
        let v1 = v0.append(&[0], &[raw(50)]).unwrap();
        let (v2, _) = v1.delete_key(0).unwrap();
        assert_eq!(pinned.n(), 8, "epoch-0 snapshot still has 8 rows");
        assert_eq!(v2.epoch(), 2);
        assert!(v2.n() < v1.n());
        // The pinned snapshot's values are untouched.
        for t in 0..8u32 {
            assert_eq!(pinned.raw_row(TupleId(t)), raw(t as usize));
        }
    }

    #[test]
    fn empty_start_grows_like_a_load() {
        let v0 = VersionedRelation::new(schema()).unwrap();
        assert_eq!(v0.n(), 0);
        let v1 = v0.append(&[4, 4], &[raw(0), raw(1)]).unwrap();
        assert_eq!(v1.n(), 2);
        let fresh = Relation::from_grouped_rows(schema(), &[4, 4], &[raw(0), raw(1)]).unwrap();
        assert_eq!(**v1.snapshot(), fresh);
    }

    #[test]
    fn rejects_non_group_keys_and_bad_arity() {
        let mut b = Relation::builder(Schema::uniform(2).unwrap());
        b.add(&[1.0, 2.0]).unwrap();
        let rel = Arc::new(b.build().unwrap());
        assert!(VersionedRelation::from_relation(rel).is_err());
        let v0 = seed(3);
        assert!(v0.append(&[1], &[vec![1.0]]).is_err(), "arity mismatch");
        assert!(v0.append(&[1, 2], &[raw(0)]).is_err(), "key/row mismatch");
        assert!(
            v0.append(&[1], &[vec![1.0, f64::NAN, 2.0]]).is_err(),
            "non-finite value"
        );
    }
}
