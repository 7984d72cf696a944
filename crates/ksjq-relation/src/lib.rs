//! Relational substrate for K-dominant Skyline Join Queries (KSJQ).
//!
//! This crate provides the data model every other `ksjq-*` crate builds on:
//!
//! * [`Preference`] — per-attribute optimisation direction (`Min`/`Max`).
//! * [`dominance`] — the hot comparison kernel: `≤`/`<` counts, full
//!   (Pareto) dominance and *k*-dominance between tuples.
//! * [`Schema`] / [`AttrDef`] — attribute metadata, including which
//!   attributes participate in aggregation when two relations are joined.
//! * [`Relation`] — normalised `f64` attribute values stored once,
//!   attribute-major, with an optional join-key column (dictionary-encoded
//!   group ids for equality joins, or a numeric key for theta joins) and a
//!   group index.
//! * [`VersionedRelation`] — epoch-stamped versions of a mutable relation;
//!   each `APPEND`/`DELETE` derives the next snapshot from the current one.
//! * [`StringDictionary`] — string → group-id encoding so callers can use
//!   human-readable join keys (city names, category labels, …).
//! * [`Catalog`] / [`RelationHandle`] — a thread-safe named registry
//!   holding relations as `Arc<Relation>`, the data layer the serving
//!   engine in `ksjq-core` resolves query plans against.
//! * [`csv`] — a minimal dependency-free CSV reader/writer used by the
//!   examples and the synthetic-flight tooling.
//!
//! All skyline code in the workspace assumes **lower is better**. Relations
//! normalise `Max` attributes at build time (by negating them) so that the
//! dominance kernel never needs to consult the schema; [`Relation::raw_value`]
//! converts back for presentation.

pub mod catalog;
pub mod csv;
pub mod dominance;
pub mod error;
pub mod preference;
pub mod registry;
pub mod relation;
pub mod schema;
pub mod versioned;

pub use catalog::StringDictionary;
pub use dominance::{
    accumulate_le_lt, dom_counts, dom_counts_block, dom_counts_block_columnar, dom_counts_partial,
    dom_counts_partial_block_columnar, dom_counts_partial_block_columnar_into, dominates,
    k_dominates, strictly_better_somewhere, DomCounts, LANES,
};
pub use error::{Error, Result};
pub use preference::Preference;
pub use registry::{Catalog, RelationHandle};
pub use relation::{GroupIndex, JoinKeys, Relation, RelationBuilder, TupleId};
pub use schema::{AttrDef, AttrRole, Schema, SchemaBuilder};
pub use versioned::VersionedRelation;
