//! Algorithm choice and the single dispatch point behind every execution
//! path.
//!
//! [`Algorithm`] names the paper's three KSJQ algorithms; `dispatch` is
//! where the engine's [`PreparedQuery`](crate::engine::PreparedQuery)
//! turns that choice into a call. [`k_range`] reports the admissible `k`
//! of a join. Queries themselves are described as owned
//! [`QueryPlan`](crate::plan::QueryPlan)s and run through the
//! [`Engine`](crate::engine::Engine):
//!
//! ```
//! use ksjq_core::{Algorithm, Engine, Goal, QueryPlan};
//! use ksjq_datagen::paper_flights;
//!
//! let pf = paper_flights(false);
//! let engine = Engine::new();
//! engine.register("outbound", pf.outbound).unwrap();
//! engine.register("inbound", pf.inbound).unwrap();
//! let plan = QueryPlan::new("outbound", "inbound")
//!     .goal(Goal::Exact(7))
//!     .algorithm(Algorithm::Grouping);
//! let result = engine.prepare(&plan).unwrap().execute().unwrap();
//! assert_eq!(result.len(), 4); // Table 3's final skyline
//! ```

use crate::config::Config;
use crate::dominator_based::ksjq_dominator_based;
use crate::error::CoreResult;
use crate::grouping::ksjq_grouping;
use crate::naive::ksjq_naive;
use crate::output::KsjqOutput;
use crate::params::{k_max, k_min};
use ksjq_join::JoinContext;

/// Which KSJQ algorithm executes the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Algorithm 1: join everything, then compute the skyline.
    Naive,
    /// Algorithm 2: classification + target-set verification. The paper's
    /// consistent winner and the default.
    #[default]
    Grouping,
    /// Algorithm 3: explicit dominator sets, two-sided verification.
    DominatorBased,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Naive => write!(f, "naive"),
            Algorithm::Grouping => write!(f, "grouping"),
            Algorithm::DominatorBased => write!(f, "dominator-based"),
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Parse an algorithm name. Round-trips with [`Display`](std::fmt::Display)
    /// (`"naive"`, `"grouping"`, `"dominator-based"`); also accepts the
    /// underscore spelling and the paper's one-letter labels N/G/D.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" | "n" => Ok(Algorithm::Naive),
            "grouping" | "g" => Ok(Algorithm::Grouping),
            "dominator-based" | "dominator_based" | "d" => Ok(Algorithm::DominatorBased),
            _ => Err(format!(
                "unknown algorithm {s:?} (expected naive, grouping or dominator-based)"
            )),
        }
    }
}

/// The single algorithm-dispatch point: every `PreparedQuery` execution
/// funnels through here.
pub(crate) fn dispatch(
    cx: &JoinContext<'_>,
    k: usize,
    algorithm: Algorithm,
    config: &Config,
) -> CoreResult<KsjqOutput> {
    crate::cancel::check_deadline(config.deadline)?;
    match algorithm {
        Algorithm::Naive => ksjq_naive(cx, k, config),
        Algorithm::Grouping => ksjq_grouping(cx, k, config),
        Algorithm::DominatorBased => ksjq_dominator_based(cx, k, config),
    }
}

/// The valid `k` range of a prospective query, for UIs and harnesses:
/// `(min, max)` inclusive.
pub fn k_range(cx: &JoinContext<'_>) -> (usize, usize) {
    (k_min(cx), k_max(cx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::find_k::{find_k_at_least, FindKStrategy};
    use crate::plan::{Goal, QueryPlan};
    use ksjq_datagen::paper_flights;
    use ksjq_join::JoinSpec;

    fn flights_engine() -> Engine {
        let pf = paper_flights(false);
        let engine = Engine::new();
        engine.register("outbound", pf.outbound).unwrap();
        engine.register("inbound", pf.inbound).unwrap();
        engine
    }

    #[test]
    fn default_goal_runs_at_max_k() {
        let plan = QueryPlan::new("outbound", "inbound");
        let prepared = flights_engine().prepare(&plan).unwrap();
        assert_eq!(prepared.k(), 8); // d1 + d2 = 4 + 4
    }

    #[test]
    fn all_algorithms_same_answer() {
        let pf = paper_flights(false);
        let cx = JoinContext::new(&pf.outbound, &pf.inbound, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        let a = dispatch(&cx, 7, Algorithm::Naive, &cfg).unwrap();
        let b = dispatch(&cx, 7, Algorithm::Grouping, &cfg).unwrap();
        let c = dispatch(&cx, 7, Algorithm::DominatorBased, &cfg).unwrap();
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.pairs, c.pairs);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn invalid_k_fails_at_prepare() {
        let engine = flights_engine();
        for k in [4, 9] {
            let plan = QueryPlan::new("outbound", "inbound").goal(Goal::Exact(k));
            assert!(engine.prepare(&plan).is_err(), "k = {k}");
        }
    }

    #[test]
    fn at_least_small_delta_is_minimal() {
        let pf = paper_flights(false);
        let cx = JoinContext::new(&pf.outbound, &pf.inbound, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        let report = find_k_at_least(&cx, 1, FindKStrategy::Binary, &cfg).unwrap();
        assert!(report.satisfied);
        let (lo, hi) = k_range(&cx);
        let first_nonempty = (lo..=hi)
            .find(|&k| {
                !dispatch(&cx, k, Algorithm::Grouping, &cfg)
                    .unwrap()
                    .is_empty()
            })
            .unwrap();
        assert_eq!(report.k, first_nonempty);
    }

    #[test]
    fn algorithm_from_str_roundtrips_display() {
        for algo in [
            Algorithm::Naive,
            Algorithm::Grouping,
            Algorithm::DominatorBased,
        ] {
            assert_eq!(algo.to_string().parse::<Algorithm>().unwrap(), algo);
        }
        // Paper labels and case-insensitivity.
        assert_eq!("G".parse::<Algorithm>().unwrap(), Algorithm::Grouping);
        assert_eq!("NAIVE".parse::<Algorithm>().unwrap(), Algorithm::Naive);
        assert_eq!(
            "dominator_based".parse::<Algorithm>().unwrap(),
            Algorithm::DominatorBased
        );
        assert!("bogus".parse::<Algorithm>().is_err());
    }

    #[test]
    fn k_range_reporting() {
        let pf = paper_flights(true);
        let cx = JoinContext::new(
            &pf.outbound,
            &pf.inbound,
            JoinSpec::Equality,
            &[ksjq_join::AggFunc::Sum],
        )
        .unwrap();
        assert_eq!(k_range(&cx), (5, 7));
    }
}
