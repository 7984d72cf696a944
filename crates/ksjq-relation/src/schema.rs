//! Schemas: attribute names, preferences and aggregation roles.

use crate::error::{Error, Result};
use crate::preference::Preference;

/// How an attribute behaves when its relation is joined with another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrRole {
    /// The attribute survives the join unchanged ("local" in the paper).
    Local,
    /// The attribute is combined with the attribute occupying the same
    /// `slot` in the other relation (paper Sec. 5.6). Slots must be
    /// `0..a`, each used exactly once per relation.
    Agg(usize),
}

impl AttrRole {
    /// Is this an aggregated attribute?
    #[inline]
    pub fn is_agg(self) -> bool {
        matches!(self, AttrRole::Agg(_))
    }
}

/// Definition of a single skyline attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrDef {
    /// Human-readable attribute name (used in output and CSV headers).
    pub name: String,
    /// Natural optimisation direction of the attribute.
    pub preference: Preference,
    /// Join behaviour of the attribute.
    pub role: AttrRole,
}

/// Schema of a base relation: an ordered list of skyline attributes.
///
/// The join key is *not* a schema attribute — it lives on the
/// [`crate::Relation`] itself (see [`crate::JoinKeys`]) because it never
/// participates in dominance.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attrs: Vec<AttrDef>,
    /// Number of aggregate slots (`a` in the paper).
    agg_count: usize,
}

impl Schema {
    /// Most attributes a schema may declare: the grouping algorithm's
    /// verification kernel keeps per-tuple attribute counts in 16 bits.
    pub const MAX_ATTRS: usize = u16::MAX as usize;

    /// Start building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder { attrs: Vec::new() }
    }

    /// Convenience: a schema of `d` anonymous `Min` local attributes, the
    /// shape used throughout the paper's synthetic experiments.
    pub fn uniform(d: usize) -> Result<Schema> {
        let mut b = Schema::builder();
        for i in 0..d {
            b = b.local(format!("s{i}"), Preference::Min);
        }
        b.build()
    }

    /// Convenience: `a` aggregate attributes (slots `0..a`) followed by
    /// `l` local attributes, all `Min`. Mirrors the paper's synthetic
    /// aggregate workloads where `d = a + l`.
    pub fn uniform_agg(a: usize, l: usize) -> Result<Schema> {
        let mut b = Schema::builder();
        for slot in 0..a {
            b = b.agg(format!("g{slot}"), Preference::Min, slot);
        }
        for i in 0..l {
            b = b.local(format!("s{i}"), Preference::Min);
        }
        b.build()
    }

    /// Total number of skyline attributes (`d_i` in the paper).
    #[inline]
    pub fn d(&self) -> usize {
        self.attrs.len()
    }

    /// Number of aggregated attributes (`a`).
    #[inline]
    pub fn agg_count(&self) -> usize {
        self.agg_count
    }

    /// Number of local (non-aggregated) attributes (`l_i = d_i − a`).
    #[inline]
    pub fn local_count(&self) -> usize {
        self.attrs.len() - self.agg_count
    }

    /// The attribute definitions, in declaration order.
    #[inline]
    pub fn attrs(&self) -> &[AttrDef] {
        &self.attrs
    }

    /// Definition of attribute `i`.
    #[inline]
    pub fn attr(&self, i: usize) -> &AttrDef {
        &self.attrs[i]
    }

    /// Indices of local attributes, in order.
    pub fn local_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.role.is_agg())
            .map(|(i, _)| i)
    }

    /// Index of the attribute occupying aggregate `slot`, if any.
    pub fn agg_index(&self, slot: usize) -> Option<usize> {
        self.attrs
            .iter()
            .position(|a| a.role == AttrRole::Agg(slot))
    }

    /// Look up an attribute index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }
}

/// Incremental [`Schema`] construction.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    attrs: Vec<AttrDef>,
}

impl SchemaBuilder {
    /// Add a local skyline attribute.
    pub fn local(mut self, name: impl Into<String>, preference: Preference) -> Self {
        self.attrs.push(AttrDef {
            name: name.into(),
            preference,
            role: AttrRole::Local,
        });
        self
    }

    /// Add an aggregated skyline attribute bound to `slot`.
    pub fn agg(mut self, name: impl Into<String>, preference: Preference, slot: usize) -> Self {
        self.attrs.push(AttrDef {
            name: name.into(),
            preference,
            role: AttrRole::Agg(slot),
        });
        self
    }

    /// Validate and freeze the schema.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptySchema`] if no attributes were added.
    /// * [`Error::Invalid`] if more than [`Schema::MAX_ATTRS`] were.
    /// * [`Error::InvalidAggSlot`] if aggregate slots are not exactly the
    ///   set `{0, …, a−1}` with each slot used once.
    pub fn build(self) -> Result<Schema> {
        if self.attrs.is_empty() {
            return Err(Error::EmptySchema);
        }
        if self.attrs.len() > Schema::MAX_ATTRS {
            return Err(Error::Invalid(format!(
                "schema declares {} attributes; at most {} are supported",
                self.attrs.len(),
                Schema::MAX_ATTRS
            )));
        }
        let mut slots: Vec<usize> = self
            .attrs
            .iter()
            .filter_map(|a| match a.role {
                AttrRole::Agg(s) => Some(s),
                AttrRole::Local => None,
            })
            .collect();
        slots.sort_unstable();
        for (expected, &got) in slots.iter().enumerate() {
            if expected != got {
                return Err(Error::InvalidAggSlot(format!(
                    "slots must be 0..a, each exactly once; saw slot {got} where {expected} was expected"
                )));
            }
        }
        let agg_count = slots.len();
        Ok(Schema {
            attrs: self.attrs,
            agg_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_schema() {
        let s = Schema::uniform(4).unwrap();
        assert_eq!(s.d(), 4);
        assert_eq!(s.agg_count(), 0);
        assert_eq!(s.local_count(), 4);
        assert_eq!(s.attr(2).name, "s2");
    }

    #[test]
    fn uniform_agg_schema() {
        let s = Schema::uniform_agg(2, 3).unwrap();
        assert_eq!(s.d(), 5);
        assert_eq!(s.agg_count(), 2);
        assert_eq!(s.local_count(), 3);
        assert_eq!(s.agg_index(0), Some(0));
        assert_eq!(s.agg_index(1), Some(1));
        assert_eq!(s.local_indices().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn empty_schema_rejected() {
        assert_eq!(Schema::builder().build(), Err(Error::EmptySchema));
    }

    #[test]
    fn oversized_schema_rejected() {
        assert!(Schema::uniform(Schema::MAX_ATTRS).is_ok());
        assert!(matches!(
            Schema::uniform(Schema::MAX_ATTRS + 1),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn duplicate_slot_rejected() {
        let r = Schema::builder()
            .agg("x", Preference::Min, 0)
            .agg("y", Preference::Min, 0)
            .build();
        assert!(matches!(r, Err(Error::InvalidAggSlot(_))));
    }

    #[test]
    fn gap_in_slots_rejected() {
        let r = Schema::builder()
            .agg("x", Preference::Min, 0)
            .agg("y", Preference::Min, 2)
            .build();
        assert!(matches!(r, Err(Error::InvalidAggSlot(_))));
    }

    #[test]
    fn index_of_by_name() {
        let s = Schema::builder()
            .local("cost", Preference::Min)
            .local("rating", Preference::Max)
            .build()
            .unwrap();
        assert_eq!(s.index_of("rating"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn mixed_declaration_order_allowed() {
        // Locals and agg attributes may interleave in any order.
        let s = Schema::builder()
            .local("a", Preference::Min)
            .agg("b", Preference::Min, 1)
            .local("c", Preference::Max)
            .agg("d", Preference::Min, 0)
            .build()
            .unwrap();
        assert_eq!(s.agg_count(), 2);
        assert_eq!(s.agg_index(0), Some(3));
        assert_eq!(s.agg_index(1), Some(1));
        assert_eq!(s.local_indices().collect::<Vec<_>>(), vec![0, 2]);
    }
}
