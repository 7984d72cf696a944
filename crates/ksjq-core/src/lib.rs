//! K-Dominant Skyline Join Queries (KSJQ).
//!
//! This crate implements the algorithms of *"K-Dominant Skyline Join
//! Queries: Extending the Join Paradigm to K-Dominant Skylines"* (Awasthi,
//! Bhattacharya, Gupta, Singh — ICDE 2017):
//!
//! * **Problem 1/2** — the k-dominant skyline of a joined relation
//!   `R1 ⋈ R2`, with optional monotone aggregation over paired attributes:
//!   [`ksjq_naive`] (Algorithm 1), [`ksjq_grouping`] (Algorithm 2) and
//!   [`ksjq_dominator_based`] (Algorithm 3).
//! * **Problem 3/4** — choosing `k` from a target skyline cardinality δ:
//!   [`find_k_at_least`] / [`find_k_at_most`] with naïve, range-based and
//!   binary-search strategies (Algorithms 4–6).
//!
//! The high-level entry point is the [`Engine`]: register relations once
//! (held as `Arc<Relation>` in a shared [`Catalog`]), describe queries as
//! owned [`QueryPlan`]s, and prepare/execute them — concurrently if you
//! like, the engine is `Clone + Send + Sync`:
//!
//! ```
//! use ksjq_core::{Algorithm, Engine, Goal, QueryPlan};
//! use ksjq_datagen::paper_flights;
//!
//! // The paper's running example: two-leg flights joined on the stopover.
//! let engine = Engine::new();
//! let flights = paper_flights(false);
//! engine.register("outbound", flights.outbound).unwrap();
//! engine.register("inbound", flights.inbound).unwrap();
//!
//! let plan = QueryPlan::new("outbound", "inbound")
//!     .goal(Goal::Exact(7))
//!     .algorithm(Algorithm::Grouping);
//! let prepared = engine.prepare(&plan).unwrap();
//! println!("{}", prepared.explain()); // join kind, k-range, thresholds, …
//! let result = prepared.execute().unwrap();
//! // Table 3's final skyline: flight combinations (11,23), (13,21),
//! // (15,25) and (16,26).
//! assert_eq!(result.len(), 4);
//! ```
//!
//! The borrowed-lifetime [`KsjqQuery`] builder remains as a thin shim over
//! the same execution path for single-shot, in-scope use.
//!
//! ## Soundness notes
//!
//! The implementation corrects three subtle issues in the paper's
//! aggregate-case claims (details in the repository's DESIGN.md §4.5 and
//! in [`target`]): classification thresholds use the Sec. 5.6 form
//! `k′ = k − l_other`; target sets filter on `≤` over local attributes
//! (the paper's equal-value `Augment` is incomplete under aggregation);
//! and the `SS ⋈ SS` fast path is verified when `a ≥ 2` (Theorem 3 fails
//! there). All algorithms return identical answers — that equivalence is
//! enforced by the cross-algorithm test suites.

pub mod cancel;
pub mod classify;
pub mod config;
pub mod dominator_based;
pub mod engine;
pub mod error;
pub mod explain;
pub mod find_k;
pub mod grouping;
pub mod maintain;
pub mod naive;
pub mod output;
pub mod parallel;
pub mod params;
pub mod plan;
pub mod query;
pub mod stats;
pub mod target;
pub mod verify;

pub use cancel::{
    arm_panic_after, arm_panic_after_process, check_deadline, disarm_panic, disarm_panic_process,
    Checkpoint,
};
pub use classify::{classify, classify_parallel, pair_counts, Category, Classification};
pub use config::Config;
pub use dominator_based::ksjq_dominator_based;
pub use engine::{Engine, PreparedQuery};
pub use error::{CoreError, CoreResult};
pub use explain::Explain;
pub use find_k::{find_k_at_least, find_k_at_most, FindKReport, FindKStrategy};
pub use grouping::{ksjq_grouping, ksjq_grouping_progressive};
pub use maintain::{can_maintain, maintain_append, MaintainStats};
pub use naive::ksjq_naive;
pub use output::KsjqOutput;
pub use params::{k_max, k_min, validate_k, KsjqParams};
pub use plan::{Goal, QueryPlan, RelationRef};
pub use query::{k_range, Algorithm, KsjqQuery, KsjqQueryBuilder};
pub use stats::{Counts, ExecStats, PhaseTimes};
pub use target::{
    attr_sums, order_by_attr_sum, precompute_target_sets, target_set, target_set_for_values,
    target_set_rowmajor, TargetCache, TargetScratch,
};
pub use verify::{verify_candidates, CheckCounters, ColumnarCheck, JoinedCheck};

// Re-exported so engine users don't need direct `ksjq-relation` /
// `ksjq-skyline` dependencies for the registry types and the kdom
// subroutine knob in [`Config`].
pub use ksjq_relation::{Catalog, RelationHandle};
pub use ksjq_skyline::KdomAlgo;
