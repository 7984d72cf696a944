//! # ksjq — K-Dominant Skyline Join Queries
//!
//! A complete implementation of *"K-Dominant Skyline Join Queries:
//! Extending the Join Paradigm to K-Dominant Skylines"* (Awasthi,
//! Bhattacharya, Gupta, Singh — ICDE 2017), including every substrate the
//! paper builds on: the relational core, classic skyline and k-dominant
//! skyline algorithms, equality/theta/Cartesian join machinery, monotone
//! aggregation, and the synthetic workload generators of its evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`relation`] | schemas, preferences, dominance kernel, tuple storage, [`relation::Catalog`] |
//! | [`skyline`] | BNL, SFS, and k-dominant skylines (naïve, OSA, TSA) |
//! | [`join`] | join specs, monotone aggregates, [`join::JoinContext`] |
//! | [`datagen`] | synthetic distributions, paper tables, flight networks |
//! | [`core`] | the KSJQ algorithms, find-k, and the [`core::Engine`] / [`core::QueryPlan`] serving layer |
//! | [`server`] | TCP serving: wire protocol, [`server::Server`] thread pool, result cache, [`server::KsjqClient`] |
//! | [`router`] | sharded distributed KSJQ: [`router::Topology`], two-phase `LOAD`, scatter-gather [`router::Router`] |
//!
//! ## Quickstart
//!
//! Register relations with an [`core::Engine`] once, then describe each
//! query as an owned [`core::QueryPlan`] and prepare/execute it — from any
//! thread, as often as you like:
//!
//! ```
//! use ksjq::prelude::*;
//!
//! // Two relations of flights joined on the stop-over city (the paper's
//! // running example, Tables 1–3).
//! let engine = Engine::new();
//! let flights = ksjq::datagen::paper_flights(false);
//! engine.register("outbound", flights.outbound)?;
//! engine.register("inbound", flights.inbound)?;
//!
//! let plan = QueryPlan::new("outbound", "inbound")
//!     .goal(Goal::Exact(7))
//!     .algorithm(Algorithm::Grouping);
//! let prepared = engine.prepare(&plan)?;
//! println!("{}", prepared.explain()); // what will run, human-readable
//! let result = prepared.execute()?;
//! for (u, v) in &result.pairs {
//!     println!("flight {} then flight {}", 11 + u.0, 21 + v.0);
//! }
//! assert_eq!(result.len(), 4);
//! # Ok::<(), ksjq::core::CoreError>(())
//! ```
//!
//! For quick in-scope work over borrowed relations, bind a
//! [`join::JoinContext`] and call an algorithm such as
//! [`core::ksjq_grouping`] directly.
//!
//! See `examples/` for aggregate queries (total cost over legs), theta
//! joins (arrival < departure), and automatic `k` selection from a target
//! result size.

pub use ksjq_core as core;
pub use ksjq_datagen as datagen;
pub use ksjq_join as join;
pub use ksjq_relation as relation;
pub use ksjq_router as router;
pub use ksjq_server as server;
pub use ksjq_skyline as skyline;

/// The most common imports in one place.
pub mod prelude {
    pub use ksjq_core::{
        find_k_at_least, find_k_at_most, k_range, ksjq_dominator_based, ksjq_grouping,
        ksjq_grouping_progressive, ksjq_naive, Algorithm, Config, CoreError, CoreResult, Engine,
        Explain, FindKReport, FindKStrategy, Goal, KsjqOutput, PreparedQuery, QueryPlan,
        RelationRef,
    };
    pub use ksjq_datagen::{DataType, DatasetSpec, FlightNetworkSpec};
    pub use ksjq_join::{AggFunc, JoinContext, JoinSpec, ThetaOp};
    pub use ksjq_relation::{
        Catalog, Preference, Relation, RelationHandle, Schema, StringDictionary, TupleId,
    };
    pub use ksjq_router::{Router, RouterConfig, Topology};
    pub use ksjq_server::{KsjqClient, PlanSpec, RowChunk, RowStream, Server, ServerConfig};
    pub use ksjq_skyline::KdomAlgo;
}
