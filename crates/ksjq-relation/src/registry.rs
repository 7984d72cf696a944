//! Named relation registry: the data layer of the serving engine.
//!
//! A [`Catalog`] maps names to relations held as `Arc<Relation>`, so a
//! relation is loaded and validated **once** and then shared — by many
//! queries, across threads, for as long as anyone holds a handle. This is
//! the registry half of the engine/plan split: `ksjq-core`'s `Engine`
//! wraps a catalog and resolves plan-level relation names against it.
//!
//! The catalog itself is cheaply cloneable and thread-safe: clones share
//! the same underlying map (an `Arc<RwLock<…>>`), so registering a
//! relation through one clone makes it visible to all of them.

use crate::catalog::StringDictionary;
use crate::csv::CsvTable;
use crate::error::{Error, Result};
use crate::preference::Preference;
use crate::relation::Relation;
use crate::schema::{Schema, SchemaBuilder};
use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A registered relation: its catalog name plus shared ownership of the
/// data. Handles are cheap to clone and keep the relation alive even if it
/// is later deregistered from the catalog.
#[derive(Debug, Clone)]
pub struct RelationHandle {
    name: Arc<str>,
    relation: Arc<Relation>,
}

impl RelationHandle {
    /// The name the relation was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation itself.
    pub fn relation(&self) -> &Arc<Relation> {
        &self.relation
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        self.relation.schema()
    }

    /// Number of tuples.
    pub fn n(&self) -> usize {
        self.relation.n()
    }
}

/// A thread-safe, name-keyed registry of relations.
///
/// # Example
///
/// ```
/// use ksjq_relation::{Catalog, Relation, Schema};
///
/// let catalog = Catalog::new();
/// let mut b = Relation::builder(Schema::uniform(2).unwrap());
/// b.add_grouped(1, &[1.0, 2.0]).unwrap();
/// let handle = catalog.register("offers", b.build().unwrap()).unwrap();
/// assert_eq!(handle.name(), "offers");
/// assert_eq!(catalog.get("offers").unwrap().n(), 1);
/// assert!(catalog.get("missing").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    inner: Arc<RwLock<HashMap<String, RelationHandle>>>,
    /// String join keys of every [`register_csv`](Self::register_csv)-loaded
    /// relation, encoded through one shared dictionary so equal keys get
    /// equal group ids across relations — a requirement for joining them.
    dict: Arc<RwLock<StringDictionary>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, RelationHandle>> {
        // A poisoned lock means a panic elsewhere; the map itself is
        // always in a consistent state (plain inserts/removes), so
        // recover rather than propagate the poison.
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, RelationHandle>> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Register `relation` under `name`, taking ownership.
    ///
    /// Schema and data invariants are enforced eagerly by construction
    /// ([`Relation::builder`](Relation::builder) rejects empty schemas,
    /// non-finite values and mixed join-key kinds), so everything a
    /// registration still has to validate is the naming:
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidRelationName`] — empty or all-whitespace name.
    /// * [`Error::DuplicateRelation`] — the name is already taken; pick a
    ///   new name or [`deregister`](Self::deregister) first.
    pub fn register(&self, name: impl Into<String>, relation: Relation) -> Result<RelationHandle> {
        self.register_arc(name, Arc::new(relation))
    }

    /// Register an already-shared relation under `name` (no copy). Same
    /// validation as [`register`](Self::register).
    pub fn register_arc(
        &self,
        name: impl Into<String>,
        relation: Arc<Relation>,
    ) -> Result<RelationHandle> {
        let name = name.into();
        if name.trim().is_empty() {
            return Err(Error::InvalidRelationName(name));
        }
        let mut map = self.write();
        if map.contains_key(&name) {
            return Err(Error::DuplicateRelation(name));
        }
        let handle = RelationHandle {
            name: Arc::from(name.as_str()),
            relation,
        };
        map.insert(name, handle.clone());
        Ok(handle)
    }

    /// Parse `text` as CSV and register the result under `name` in one
    /// step — the ingestion path of the serving layer's `LOAD … INLINE`
    /// command, and a convenience for examples.
    ///
    /// Format (via [`CsvTable`]): a header row, then data rows. The
    /// **first column is the equality-join key**; its string values are
    /// encoded through a catalog-wide shared dictionary, so two relations
    /// loaded into the same catalog join correctly on equal keys. Every
    /// other column is one skyline attribute, `Min`-preferred by default.
    /// Header names may carry `:`-separated annotations:
    ///
    /// * `price:min` / `rating:max` — explicit preference;
    /// * `cost:agg0`, `time:min:agg1` — bind the attribute to an
    ///   aggregate slot (slots must be `0..a`, each used once).
    ///
    /// ```
    /// use ksjq_relation::Catalog;
    ///
    /// let catalog = Catalog::new();
    /// let h = catalog
    ///     .register_csv("offers", "city,cost,rating:max\nC,448,4.5\nD,456,3.2\n")
    ///     .unwrap();
    /// assert_eq!(h.n(), 2);
    /// assert_eq!(h.schema().d(), 2);
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::Csv`] for malformed text, a missing key/attribute column,
    /// an unknown header annotation or a non-numeric attribute cell;
    /// [`Error::InvalidAggSlot`] for bad slot sets; plus everything
    /// [`register`](Self::register) rejects.
    pub fn register_csv(&self, name: impl Into<String>, text: &str) -> Result<RelationHandle> {
        self.register(name, self.parse_csv(text)?)
    }

    /// Parse annotated CSV into a [`Relation`] **without** registering it
    /// — same grammar and shared key dictionary as
    /// [`register_csv`](Self::register_csv). This is the validation half
    /// of a two-phase catalog update: parse (and fail) first, publish
    /// atomically later with [`register`](Self::register). A header-only
    /// CSV parses to an empty relation.
    pub fn parse_csv(&self, text: &str) -> Result<Relation> {
        let table = CsvTable::parse(text)?;
        if table.header.len() < 2 {
            return Err(Error::Csv(
                "need a join-key column plus at least one attribute column".into(),
            ));
        }
        let schema = schema_from_header(&table.header[1..])?;
        let d = schema.d();
        let mut b = Relation::builder(schema).with_capacity(table.rows.len());
        let mut row = vec![0.0f64; d];
        {
            let mut dict = self.dict.write().unwrap_or_else(|e| e.into_inner());
            for r in 0..table.rows.len() {
                let gid = dict.encode(&table.rows[r][0]);
                for (j, v) in row.iter_mut().enumerate() {
                    *v = table.number(r, j + 1)?;
                }
                b.add_grouped(gid, &row)?;
            }
        }
        b.build()
    }

    /// Decode a group id assigned by [`register_csv`](Self::register_csv)
    /// back to its string join key.
    pub fn decode_key(&self, gid: u64) -> Option<String> {
        self.dict
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .decode(gid)
            .map(str::to_owned)
    }

    /// The group id [`register_csv`](Self::register_csv) assigned to a
    /// string join key, if it has been seen.
    pub fn key_id(&self, key: &str) -> Option<u64> {
        self.dict.read().unwrap_or_else(|e| e.into_inner()).get(key)
    }

    /// Encode `key` through the catalog's shared dictionary, assigning a
    /// fresh id on first sight — for callers building relations outside
    /// [`register_csv`](Self::register_csv) that must still join
    /// correctly against CSV-loaded ones (equal key strings ⇒ equal
    /// group ids).
    pub fn encode_key(&self, key: &str) -> u64 {
        self.dict
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .encode(key)
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<RelationHandle> {
        self.read().get(name).cloned()
    }

    /// Is `name` registered?
    pub fn contains(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    /// Remove a relation from the catalog, returning its handle if it was
    /// registered. Existing handles (and queries prepared against them)
    /// keep working — they own the data via `Arc`.
    pub fn deregister(&self, name: &str) -> Option<RelationHandle> {
        self.write().remove(name)
    }

    /// Bind `name` to `relation`, replacing any previous binding under one
    /// write lock, and return the old handle if there was one. Readers see
    /// either the old or the new relation, never a missing name — unlike
    /// [`deregister`](Self::deregister) followed by
    /// [`register_arc`](Self::register_arc).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRelationName`] for an empty or all-whitespace name
    /// (the old binding, if any, is kept).
    pub fn replace(
        &self,
        name: impl Into<String>,
        relation: Arc<Relation>,
    ) -> Result<Option<RelationHandle>> {
        let name = name.into();
        if name.trim().is_empty() {
            return Err(Error::InvalidRelationName(name));
        }
        let handle = RelationHandle {
            name: Arc::from(name.as_str()),
            relation,
        };
        Ok(self.write().insert(name, handle))
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }
}

/// Build a schema from annotated CSV header cells (everything after the
/// key column). See [`Catalog::register_csv`] for the annotation grammar.
fn schema_from_header(cells: &[String]) -> Result<Schema> {
    let mut b = SchemaBuilder::default();
    for cell in cells {
        let mut parts = cell.split(':');
        let name = parts.next().unwrap_or_default().trim();
        if name.is_empty() {
            return Err(Error::Csv(format!("empty attribute name in {cell:?}")));
        }
        let mut preference = Preference::Min;
        let mut slot = None;
        for ann in parts {
            match ann.trim().to_ascii_lowercase().as_str() {
                "min" => preference = Preference::Min,
                "max" => preference = Preference::Max,
                a if a.starts_with("agg") => {
                    slot = Some(a[3..].parse::<usize>().map_err(|_| {
                        Error::Csv(format!("bad aggregate slot in header {cell:?}"))
                    })?);
                }
                other => {
                    return Err(Error::Csv(format!(
                        "unknown header annotation {other:?} in {cell:?} \
                         (expected min, max or agg<slot>)"
                    )));
                }
            }
        }
        b = match slot {
            Some(s) => b.agg(name, preference, s),
            None => b.local(name, preference),
        };
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rel(n: usize) -> Relation {
        let mut b = Relation::builder(Schema::uniform(2).unwrap());
        for i in 0..n {
            b.add_grouped(1, &[i as f64, 1.0]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let c = Catalog::new();
        let h = c.register("r1", rel(3)).unwrap();
        assert_eq!(h.name(), "r1");
        assert_eq!(h.n(), 3);
        assert_eq!(h.schema().d(), 2);
        assert_eq!(c.get("r1").unwrap().n(), 3);
        assert!(c.contains("r1"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn replace_swaps_the_binding_in_place() {
        let c = Catalog::new();
        assert!(c.replace("r1", Arc::new(rel(1))).unwrap().is_none());
        let old = c.replace("r1", Arc::new(rel(4))).unwrap().unwrap();
        assert_eq!(old.n(), 1, "the previous handle is returned");
        assert_eq!(c.get("r1").unwrap().n(), 4);
        assert_eq!(c.len(), 1);
        assert!(matches!(
            c.replace("  ", Arc::new(rel(2))),
            Err(Error::InvalidRelationName(_))
        ));
    }

    /// A reader resolving the name while another thread rebinds it in a
    /// loop must never find it missing.
    #[test]
    fn replace_never_exposes_a_missing_name() {
        let c = Catalog::new();
        c.register("r", rel(1)).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..2000 {
                    c.replace("r", Arc::new(rel(1 + i % 3))).unwrap();
                }
                done.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                assert!(c.get("r").is_some(), "name vanished mid-rebind");
            }
        });
    }

    #[test]
    fn duplicate_and_invalid_names_rejected() {
        let c = Catalog::new();
        c.register("r1", rel(1)).unwrap();
        assert!(matches!(
            c.register("r1", rel(2)),
            Err(Error::DuplicateRelation(n)) if n == "r1"
        ));
        assert!(matches!(
            c.register("", rel(1)),
            Err(Error::InvalidRelationName(_))
        ));
        assert!(matches!(
            c.register("   ", rel(1)),
            Err(Error::InvalidRelationName(_))
        ));
    }

    #[test]
    fn clones_share_the_registry() {
        let c = Catalog::new();
        let c2 = c.clone();
        c.register("r1", rel(1)).unwrap();
        assert!(c2.contains("r1"));
        c2.deregister("r1").unwrap();
        assert!(!c.contains("r1"));
        assert!(c.is_empty());
    }

    #[test]
    fn deregister_keeps_existing_handles_alive() {
        let c = Catalog::new();
        let h = c.register("r1", rel(5)).unwrap();
        c.deregister("r1");
        assert!(c.get("r1").is_none());
        assert_eq!(h.n(), 5); // handle still owns the data
    }

    #[test]
    fn names_are_sorted() {
        let c = Catalog::new();
        for name in ["zeta", "alpha", "mid"] {
            c.register(name, rel(1)).unwrap();
        }
        assert_eq!(c.names(), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn register_csv_shares_one_key_dictionary() {
        let c = Catalog::new();
        let r1 = c
            .register_csv("out", "city,cost,dur\nC,448,3.2\nD,456,3.8\nC,468,4.2\n")
            .unwrap();
        let r2 = c
            .register_csv("in", "city,cost,dur\nD,348,2.2\nC,356,2.8\n")
            .unwrap();
        assert_eq!(r1.n(), 3);
        assert_eq!(r2.n(), 2);
        // "C" and "D" map to the same group ids in both relations.
        use crate::relation::TupleId;
        assert_eq!(
            r1.relation().group_id(TupleId(0)),
            r2.relation().group_id(TupleId(1))
        );
        assert_eq!(c.key_id("C"), r1.relation().group_id(TupleId(0)));
        assert_eq!(c.decode_key(c.key_id("D").unwrap()).as_deref(), Some("D"));
        // Values land normalised Min-first (all-Min here, so raw order).
        assert_eq!(r1.relation().raw_row(TupleId(0)), vec![448.0, 3.2]);
    }

    #[test]
    fn register_csv_header_annotations() {
        let c = Catalog::new();
        let h = c
            .register_csv("r", "hub,cost:min:agg0,time:agg1,rating:max\nA,10,2,4.5\n")
            .unwrap();
        let s = h.schema();
        assert_eq!(s.d(), 3);
        assert_eq!(s.agg_count(), 2);
        assert_eq!(s.agg_index(0), Some(0));
        assert_eq!(s.agg_index(1), Some(1));
        assert_eq!(s.attr(2).preference, Preference::Max);
        // Max attributes are negated at build time; raw_row restores them.
        use crate::relation::TupleId;
        assert_eq!(h.relation().raw_row(TupleId(0)), vec![10.0, 2.0, 4.5]);
    }

    #[test]
    fn register_csv_bad_schema_errors() {
        let c = Catalog::new();
        // Key column only — no attributes.
        assert!(matches!(
            c.register_csv("a", "city\nC\n"),
            Err(Error::Csv(_))
        ));
        // Unknown annotation.
        assert!(matches!(
            c.register_csv("b", "city,cost:biggest\nC,1\n"),
            Err(Error::Csv(_))
        ));
        // Malformed aggregate slot.
        assert!(matches!(
            c.register_csv("c", "city,cost:aggX\nC,1\n"),
            Err(Error::Csv(_))
        ));
        // Slot set with a gap.
        assert!(matches!(
            c.register_csv("d", "city,cost:agg1\nC,1\n"),
            Err(Error::InvalidAggSlot(_))
        ));
        // Non-numeric attribute cell.
        assert!(matches!(
            c.register_csv("e", "city,cost\nC,cheap\n"),
            Err(Error::Csv(_))
        ));
        // Ragged row.
        assert!(matches!(
            c.register_csv("f", "city,cost\nC\n"),
            Err(Error::Csv(_))
        ));
        // Nothing half-registered.
        assert!(c.is_empty());
        // Duplicate names still rejected through this path.
        c.register_csv("g", "city,cost\nC,1\n").unwrap();
        assert!(matches!(
            c.register_csv("g", "city,cost\nC,2\n"),
            Err(Error::DuplicateRelation(_))
        ));
    }

    #[test]
    fn catalog_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Catalog>();
        assert_send_sync::<RelationHandle>();
    }

    #[test]
    fn concurrent_registration() {
        let c = Catalog::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    c.register(format!("r{i}"), rel(i + 1)).unwrap();
                });
            }
        });
        assert_eq!(c.len(), 4);
        assert_eq!(c.get("r2").unwrap().n(), 3);
    }
}
