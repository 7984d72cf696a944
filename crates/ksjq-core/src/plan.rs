//! Owned, logical query descriptions.
//!
//! A [`QueryPlan`] is everything a KSJQ query *is*, with none of what it
//! *runs on*: relation names (or handles), the join, the aggregation
//! functions, a [`Goal`], an algorithm choice and a [`Config`] override.
//! It owns all of its parts — no lifetimes — so it can be built once,
//! cloned, stored, logged (it implements `Display`) and prepared against
//! an [`Engine`](crate::engine::Engine) from any thread, any number of
//! times.
//!
//! Binding a plan to data happens in
//! [`Engine::prepare`](crate::engine::Engine::prepare), which resolves the
//! relation references against the engine's catalog, validates the join
//! and `k`, and returns an executable
//! [`PreparedQuery`](crate::engine::PreparedQuery).

use crate::config::Config;
use crate::find_k::FindKStrategy;
use crate::query::Algorithm;
use ksjq_join::{AggFunc, JoinSpec};
use ksjq_relation::RelationHandle;
use ksjq_skyline::KdomAlgo;
use std::fmt;

/// How a plan refers to a base relation: by catalog name (resolved at
/// prepare time) or by a [`RelationHandle`] (self-contained — usable even
/// if the relation was never registered with the preparing engine).
#[derive(Debug, Clone)]
pub enum RelationRef {
    /// Look the relation up in the engine's catalog at prepare time.
    Name(String),
    /// Use this handle directly.
    Handle(RelationHandle),
}

impl RelationRef {
    /// The name this reference displays as (the catalog name in both
    /// forms).
    pub fn name(&self) -> &str {
        match self {
            RelationRef::Name(n) => n,
            RelationRef::Handle(h) => h.name(),
        }
    }
}

impl From<&str> for RelationRef {
    fn from(name: &str) -> Self {
        RelationRef::Name(name.to_owned())
    }
}

impl From<String> for RelationRef {
    fn from(name: String) -> Self {
        RelationRef::Name(name)
    }
}

impl From<&RelationHandle> for RelationRef {
    fn from(handle: &RelationHandle) -> Self {
        RelationRef::Handle(handle.clone())
    }
}

impl From<RelationHandle> for RelationRef {
    fn from(handle: RelationHandle) -> Self {
        RelationRef::Handle(handle)
    }
}

impl fmt::Display for RelationRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.name())
    }
}

/// What the query asks for — the four problems of the paper as one enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Goal {
    /// Problems 1/2: the k-dominant skyline join at exactly this `k`.
    Exact(usize),
    /// The ordinary skyline join: `k = d1 + d2 − a`, the largest
    /// admissible value. The default.
    #[default]
    SkylineJoin,
    /// Problem 3: the smallest `k` whose skyline has at least `delta`
    /// tuples, found with the given strategy.
    AtLeast(usize, FindKStrategy),
    /// Problem 4: the largest `k` whose skyline has at most `delta`
    /// tuples, found with the given strategy.
    AtMost(usize, FindKStrategy),
}

impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Goal::Exact(k) => write!(f, "exact k = {k}"),
            Goal::SkylineJoin => write!(f, "skyline join (maximum k)"),
            Goal::AtLeast(delta, s) => write!(f, "at least {delta} tuples ({s} search)"),
            Goal::AtMost(delta, s) => write!(f, "at most {delta} tuples ({s} search)"),
        }
    }
}

impl std::str::FromStr for Goal {
    type Err = String;

    /// Parse a goal. Round-trips with [`Display`](fmt::Display) (`"exact
    /// k = 7"`, `"skyline join (maximum k)"`, `"at least 10 tuples (binary
    /// search)"`, …) and also accepts compact, whitespace-free spellings
    /// convenient for flags and wire protocols:
    ///
    /// * `exact:7`, `k=7` or a bare `7` — [`Goal::Exact`];
    /// * `skyline` or `skyline-join` — [`Goal::SkylineJoin`];
    /// * `atleast:10` / `atleast:10:range` — [`Goal::AtLeast`] (strategy
    ///   defaults to binary search);
    /// * `atmost:10` / `atmost:10:naive` — [`Goal::AtMost`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        // Tokenise on every separator either spelling uses, then drop the
        // filler words of the Display form ("k", "tuples", "search").
        let tokens: Vec<&str> = lower
            .split(['\u{20}', ':', '=', ',', '(', ')', '\t'])
            .filter(|t| !t.is_empty() && !matches!(*t, "k" | "tuples" | "tuple" | "search"))
            .collect();
        let err = || {
            format!("unknown goal {s:?} (expected exact:K, skyline, atleast:D[:STRATEGY] or atmost:D[:STRATEGY])")
        };
        // Strict by construction: every token must be consumed by the
        // grammar. A misspelt strategy or trailing junk is an error, not
        // a silent fall-back to the defaults.
        let find_k = |rest: &[&str], make: fn(usize, FindKStrategy) -> Goal| match rest {
            [delta] => delta
                .parse::<usize>()
                .map(|d| make(d, FindKStrategy::default()))
                .map_err(|_| err()),
            [delta, strategy] => {
                let delta = delta.parse::<usize>().map_err(|_| err())?;
                let strategy = strategy.parse::<FindKStrategy>().map_err(|_| err())?;
                Ok(make(delta, strategy))
            }
            _ => Err(err()),
        };
        match tokens.as_slice() {
            ["skyline" | "skyline-join" | "skyline_join"]
            | ["skyline", "join"]
            | ["skyline", "join", "maximum"] => Ok(Goal::SkylineJoin),
            ["exact", k] | [k] => k.parse::<usize>().map(Goal::Exact).map_err(|_| err()),
            ["at", "least", rest @ ..] | ["atleast" | "at-least" | "at_least", rest @ ..] => {
                find_k(rest, Goal::AtLeast)
            }
            ["at", "most", rest @ ..] | ["atmost" | "at-most" | "at_most", rest @ ..] => {
                find_k(rest, Goal::AtMost)
            }
            _ => Err(err()),
        }
    }
}

/// A fully owned logical KSJQ query description. See the [module
/// docs](self) for where it sits in the engine/plan/execution split.
///
/// All fields are public — a plan is plain data — but the chainable
/// builder-style methods are the intended way to write one:
///
/// ```
/// use ksjq_core::{Algorithm, Goal, QueryPlan};
/// use ksjq_join::{AggFunc, JoinSpec};
///
/// let plan = QueryPlan::new("outbound", "inbound")
///     .join(JoinSpec::Equality)
///     .aggregates(&[AggFunc::Sum, AggFunc::Sum])
///     .goal(Goal::Exact(6))
///     .algorithm(Algorithm::Grouping);
/// assert_eq!(plan.to_string(), r#"ksjq("outbound" ⋈ "inbound" [equality], aggs = [sum, sum], exact k = 6, grouping)"#);
/// ```
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The left base relation.
    pub left: RelationRef,
    /// The right base relation.
    pub right: RelationRef,
    /// The join connecting them (default: equality).
    pub spec: JoinSpec,
    /// Aggregation functions, one per paired slot, slot order.
    pub funcs: Vec<AggFunc>,
    /// What to compute (default: the ordinary skyline join).
    pub goal: Goal,
    /// Which KSJQ algorithm executes the query (default: grouping).
    pub algorithm: Algorithm,
    /// Single-relation k-dominant skyline subroutine override for the
    /// naïve algorithm; merged onto the effective config at prepare time,
    /// so it composes with an engine-level [`Config`] instead of
    /// replacing it.
    pub kdom: Option<KdomAlgo>,
    /// Execution-config override; `None` uses the engine's default.
    pub config: Option<Config>,
}

impl QueryPlan {
    /// A plan joining `left ⋈ right` with all defaults: equality join, no
    /// aggregation, ordinary skyline join, grouping algorithm, engine
    /// config.
    pub fn new(left: impl Into<RelationRef>, right: impl Into<RelationRef>) -> Self {
        QueryPlan {
            left: left.into(),
            right: right.into(),
            spec: JoinSpec::Equality,
            funcs: Vec::new(),
            goal: Goal::default(),
            algorithm: Algorithm::default(),
            kdom: None,
            config: None,
        }
    }

    /// Join kind.
    pub fn join(mut self, spec: JoinSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Append the aggregation function for the next slot (call once per
    /// slot, in slot order), or use [`aggregates`](Self::aggregates).
    pub fn aggregate(mut self, func: AggFunc) -> Self {
        self.funcs.push(func);
        self
    }

    /// Aggregation functions for all slots at once.
    pub fn aggregates(mut self, funcs: &[AggFunc]) -> Self {
        self.funcs = funcs.to_vec();
        self
    }

    /// The query goal.
    pub fn goal(mut self, goal: Goal) -> Self {
        self.goal = goal;
        self
    }

    /// Shorthand for [`goal(Goal::Exact(k))`](Self::goal).
    pub fn k(self, k: usize) -> Self {
        self.goal(Goal::Exact(k))
    }

    /// Algorithm choice.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Single-relation k-dominant skyline subroutine of the naïve
    /// algorithm (classification does not use one). Unlike
    /// [`config`](Self::config) this overrides *only* the subroutine —
    /// the engine's other config knobs (threads, materialisation limit)
    /// stay in effect.
    pub fn kdom(mut self, kdom: KdomAlgo) -> Self {
        self.kdom = Some(kdom);
        self
    }

    /// Full execution-config override.
    pub fn config(mut self, config: Config) -> Self {
        self.config = Some(config);
        self
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ksjq({} ⋈ {} [{}]", self.left, self.right, self.spec)?;
        if !self.funcs.is_empty() {
            write!(f, ", aggs = [")?;
            for (i, func) in self.funcs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{func}")?;
            }
            write!(f, "]")?;
        }
        write!(f, ", {}, {})", self.goal, self.algorithm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let p = QueryPlan::new("a", "b");
        assert_eq!(p.spec, JoinSpec::Equality);
        assert!(p.funcs.is_empty());
        assert_eq!(p.goal, Goal::SkylineJoin);
        assert_eq!(p.algorithm, Algorithm::Grouping);
        assert!(p.config.is_none());
    }

    #[test]
    fn plan_is_owned_and_shareable() {
        fn assert_send_sync_static<T: Send + Sync + 'static>() {}
        assert_send_sync_static::<QueryPlan>();
        assert_send_sync_static::<Goal>();
        assert_send_sync_static::<RelationRef>();
    }

    #[test]
    fn display_forms() {
        let p = QueryPlan::new("l", "r").k(7);
        assert_eq!(
            p.to_string(),
            r#"ksjq("l" ⋈ "r" [equality], exact k = 7, grouping)"#
        );
        assert_eq!(Goal::SkylineJoin.to_string(), "skyline join (maximum k)");
        assert_eq!(
            Goal::AtLeast(10, crate::FindKStrategy::Binary).to_string(),
            "at least 10 tuples (binary search)"
        );
    }

    #[test]
    fn goal_from_str_roundtrips_display() {
        use crate::FindKStrategy;
        for goal in [
            Goal::Exact(7),
            Goal::SkylineJoin,
            Goal::AtLeast(10, FindKStrategy::Naive),
            Goal::AtLeast(250, FindKStrategy::Range),
            Goal::AtMost(1, FindKStrategy::Binary),
        ] {
            assert_eq!(goal.to_string().parse::<Goal>().unwrap(), goal, "{goal}");
        }
    }

    #[test]
    fn goal_from_str_compact_forms() {
        use crate::FindKStrategy;
        assert_eq!("exact:7".parse::<Goal>().unwrap(), Goal::Exact(7));
        assert_eq!("k=7".parse::<Goal>().unwrap(), Goal::Exact(7));
        assert_eq!("7".parse::<Goal>().unwrap(), Goal::Exact(7));
        assert_eq!("skyline".parse::<Goal>().unwrap(), Goal::SkylineJoin);
        assert_eq!("Skyline-Join".parse::<Goal>().unwrap(), Goal::SkylineJoin);
        assert_eq!(
            "atleast:10".parse::<Goal>().unwrap(),
            Goal::AtLeast(10, FindKStrategy::Binary) // binary is the default
        );
        assert_eq!(
            "atleast:10:range".parse::<Goal>().unwrap(),
            Goal::AtLeast(10, FindKStrategy::Range)
        );
        assert_eq!(
            "at-most:3:naive".parse::<Goal>().unwrap(),
            Goal::AtMost(3, FindKStrategy::Naive)
        );
    }

    #[test]
    fn goal_from_str_rejects_junk() {
        for bad in [
            "",
            "bogus",
            "exact",
            "atleast",
            "atmost:",
            "7 8",
            "k=",
            "exact:7:junk",       // trailing junk
            "atleast:10:nieve",   // misspelt strategy must not default away
            "atmost:10:binary:x", // over-long
            "skyline extra",
        ] {
            assert!(bad.parse::<Goal>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn kdom_is_a_point_override_not_a_config() {
        let p = QueryPlan::new("l", "r").kdom(KdomAlgo::Osa);
        assert_eq!(p.kdom, Some(KdomAlgo::Osa));
        assert!(p.config.is_none()); // engine config stays in effect
    }
}
