//! Aggregate-KSJQ semantics, including the soundness corrections of
//! DESIGN.md §4.5.

mod common;

use common::*;
use ksjq::core::{classify, validate_k, Category};
use ksjq::prelude::*;

fn agg_schema(a: usize, l: usize) -> Schema {
    Schema::uniform_agg(a, l).unwrap()
}

fn rel_from(a: usize, l: usize, groups: &[u64], rows: &[Vec<f64>]) -> Relation {
    let mut b = Relation::builder(agg_schema(a, l));
    for (g, row) in groups.iter().zip(rows) {
        b.add_grouped(*g, row).unwrap();
    }
    b.build().unwrap()
}

/// The DESIGN.md §4.5 counterexample to the paper's equal-values Augment:
/// with a = 1, the dominator of an `SS1 ⋈ SN2` candidate has a left leg
/// that shares *no* attribute values with `u′` — the paper's `A1 ⋈ R2`
/// check set would miss it and wrongly emit the candidate.
#[test]
fn paper_augment_misses_aggregate_dominator() {
    // Layout per relation: agg g0, local s0 (d = 2, a = 1, l = 1).
    // k = 3 ⇒ k′ = 2, k″ = 1.
    let r1 = rel_from(
        1,
        1,
        &[0, 1],
        &[
            vec![5.0, 5.0],   // u′ = (agg 5, loc 5), group X — SS1
            vec![100.0, 5.0], // u  = (agg 100, loc 5), group Y — SN1
        ],
    );
    let r2 = rel_from(
        1,
        1,
        &[0, 1],
        &[
            vec![200.0, 9.0], // v′ = (agg 200, loc 9), group X — SN2
            vec![0.0, 0.0],   // v  = (agg 0, loc 0), group Y — SS2
        ],
    );
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
    let k = 3;
    let p = validate_k(&cx, k).unwrap();
    let cls = classify(&cx, &p, KdomAlgo::Naive);
    assert_eq!(cls.left, vec![Category::SS, Category::SN]);
    assert_eq!(cls.right, vec![Category::SN, Category::SS]);

    // u ⋈ v = (loc 5, loc 0, sum 100) dominates u′ ⋈ v′ = (5, 9, 205)…
    assert!(ksjq::relation::k_dominates(
        &cx.joined_row(1, 1),
        &cx.joined_row(0, 0),
        k
    ));
    // …yet u = (100, 5) shares no position with u′ = (5, 5)?  It shares
    // the local 5 — but not k′ = 2 positions, which is what the paper's
    // Augment requires:
    let rows = cx.left().gather_rows();
    let d = cx.left().d();
    let (u_prime, u) = (&rows[..d], &rows[d..2 * d]);
    assert_eq!(ksjq::relation::dominance::equal_count(u, u_prime), 1);
    // And u does not k′-dominate u′ either (so it is not in the paper's
    // dominator set):
    assert!(!ksjq::relation::k_dominates(u, u_prime, p.k1_prime));

    // All three implementations must nevertheless exclude (u′, v′).
    let out = assert_all_algorithms_agree(&cx, k, &Config::default(), "augment-counterexample");
    assert!(!out.contains(0, 0));
    assert!(out.contains(1, 1));
}

/// Max aggregation can erase the strict-preference witness of Theorem 4,
/// so the optimized algorithms refuse it; the naïve algorithm handles it
/// and demonstrates the would-be wrong answer.
#[test]
fn max_aggregate_breaks_theorem_4() {
    // d = 2 per relation (agg slot 0 + one local), k = 3.
    // Group 0 of R1: u = (agg 1, loc 5) dominates u′ = (agg 2, loc 5)
    // under k′ = 2 ⇒ u′ ∈ NN1 ⇒ the optimized algorithms would prune
    // every (u′, ·) pair. But with agg = max and v′ = (agg 10, loc 3):
    // max(1,10) = max(2,10) = 10, so u ⋈ v′ does NOT dominate u′ ⋈ v′.
    let r1 = rel_from(1, 1, &[0, 0], &[vec![1.0, 5.0], vec![2.0, 5.0]]);
    let r2 = rel_from(1, 1, &[0], &[vec![10.0, 3.0]]);
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Max]).unwrap();
    let k = 3;

    // u′ really is NN under the classification…
    let p = validate_k(&cx, k).unwrap();
    let cls = classify(&cx, &p, KdomAlgo::Naive);
    assert_eq!(cls.left[1], Category::NN);
    // …but its joined tuple is NOT dominated (identical rows):
    assert_eq!(cx.joined_row(0, 0), cx.joined_row(1, 0));
    let naive = ksjq_naive(&cx, k, &Config::default()).unwrap();
    assert!(
        naive.contains(1, 0),
        "naive keeps the tuple Th. 4 would wrongly prune"
    );

    // The optimized algorithms refuse the non-strict aggregate outright.
    assert_eq!(
        ksjq_grouping(&cx, k, &Config::default()).unwrap_err(),
        CoreError::NonStrictAggregate
    );
    assert_eq!(
        ksjq_dominator_based(&cx, k, &Config::default()).unwrap_err(),
        CoreError::NonStrictAggregate
    );
}

/// Summing costs across legs: the end-to-end semantics of Problem 2 on a
/// small hand-checked instance.
#[test]
fn aggregate_sum_semantics_hand_checked() {
    // One join group. R1 = {(cost 10, q 1), (cost 1, q 9)},
    // R2 = {(cost 10, q 1), (cost 1, q 9)}; k = 3 of (q1, q2, total cost).
    let r1 = rel_from(1, 1, &[0, 0], &[vec![10.0, 1.0], vec![1.0, 9.0]]);
    let r2 = rel_from(1, 1, &[0, 0], &[vec![10.0, 1.0], vec![1.0, 9.0]]);
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
    // Joined tuples (q1, q2, total): (0,0)=(1,1,20) (0,1)=(1,9,11)
    // (1,0)=(9,1,11) (1,1)=(9,9,2).
    let out = assert_all_algorithms_agree(&cx, 3, &Config::default(), "sum-hand");
    // 3-dominance: (0,0) vs (1,1): le((1,1,20),(9,9,2)) = 2 — no kill;
    // (0,1) vs (0,0): le((1,9,11),(1,1,20)) = 2 — no kill; in fact every
    // pair differs in at least two attributes in each direction ⇒ nothing
    // is 3-dominated and all four survive.
    assert_eq!(out.len(), 4);

    // At k = 3 with δ = 1, find-k picks k = 3 (the minimum).
    let report = find_k_at_least(&cx, 1, FindKStrategy::Binary, &Config::default()).unwrap();
    assert_eq!(report.k, 3);
    assert!(report.satisfied);
}

/// Aggregates over Max-preference attributes round-trip through raw
/// space: summing two ratings prefers the larger total.
#[test]
fn aggregate_on_max_preference_attribute() {
    let schema = || {
        Schema::builder()
            .agg("rating", Preference::Max, 0)
            .local("cost", Preference::Min)
            .build()
            .unwrap()
    };
    let mk = |rows: &[[f64; 2]]| {
        let mut b = Relation::builder(schema());
        for r in rows {
            b.add_grouped(0, r).unwrap();
        }
        b.build().unwrap()
    };
    // (rating, cost)
    let r1 = mk(&[[9.0, 5.0], [1.0, 5.0]]);
    let r2 = mk(&[[8.0, 5.0]]);
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
    let out = assert_all_algorithms_agree(&cx, 3, &Config::default(), "max-pref-agg");
    // (0,0) has total rating 17, (1,0) has 9, equal costs ⇒ (0,0)
    // 3-dominates (1,0).
    assert_eq!(out.pairs, vec![(TupleId(0), TupleId(0))]);
}

/// With a ≥ 2 the find-k lower bound must not rely on Theorem 3 — the
/// strategies still agree.
#[test]
fn find_k_with_two_aggregates() {
    let r1 = random_grouped(71, 50, 2, 2, 3, 5);
    let r2 = random_grouped(72, 50, 2, 2, 3, 5);
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum, AggFunc::Sum]).unwrap();
    let cfg = Config::default();
    for delta in [1usize, 10, 100] {
        let a = find_k_at_least(&cx, delta, FindKStrategy::Naive, &cfg).unwrap();
        let b = find_k_at_least(&cx, delta, FindKStrategy::Range, &cfg).unwrap();
        let c = find_k_at_least(&cx, delta, FindKStrategy::Binary, &cfg).unwrap();
        assert_eq!(a.k, b.k, "delta={delta}");
        assert_eq!(a.k, c.k, "delta={delta}");
    }
}
