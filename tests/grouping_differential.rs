//! Differential test of the grouping algorithm's two-sided verification
//! kernel against the naive oracle (`ksjq_naive`).
//!
//! Every join kind (equality, the four theta operators, Cartesian) with
//! `a ∈ {0, 1, 2}` aggregate slots runs over small relations built to
//! stress the kernel's edge cases: heavy ties, duplicate rows, a constant
//! attribute, singleton groups, groups present on one side only and a
//! single all-in-one group. For every valid `k` the answer must be
//! byte-identical to the oracle's at 1, 2 and 3 threads and in
//! progressive mode, and the kernel counters must not depend on the
//! thread count.

use ksjq::core::{k_max, k_min};
use ksjq::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a generated relation's tuples join.
#[derive(Debug, Clone, Copy)]
enum Keys {
    /// Equality groups drawn from `lo..hi`.
    Groups(u64, u64),
    /// Numeric theta-join keys.
    Numeric,
    /// No keys (Cartesian products).
    None,
}

/// The shape of one generated relation.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n: usize,
    a: usize,
    l: usize,
    keys: Keys,
    /// Values are drawn from `0..range`: small ranges force ties.
    range: u64,
    /// Every `dup_every`-th row repeats the previous one (0: never).
    dup_every: usize,
    /// This attribute holds the same value in every row.
    constant: Option<usize>,
}

fn relation(seed: u64, s: Shape) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = s.a + s.l;
    let mut b = Relation::builder(Schema::uniform_agg(s.a, s.l).unwrap());
    let mut prev: Option<(f64, Vec<f64>)> = None;
    for i in 0..s.n {
        let (key, row) = match &prev {
            Some(p) if s.dup_every > 0 && i % s.dup_every == 0 => p.clone(),
            _ => {
                let key = match s.keys {
                    Keys::Groups(lo, hi) => rng.gen_range(lo..hi) as f64,
                    Keys::Numeric => rng.gen_range(0..8) as f64,
                    Keys::None => 0.0,
                };
                let mut row: Vec<f64> = (0..d).map(|_| rng.gen_range(0..s.range) as f64).collect();
                if let Some(c) = s.constant {
                    row[c] = 3.0;
                }
                (key, row)
            }
        };
        match s.keys {
            Keys::Groups(..) => b.add_grouped(key as u64, &row).unwrap(),
            Keys::Numeric => b.add_keyed(key, &row).unwrap(),
            Keys::None => b.add(&row).unwrap(),
        };
        prev = Some((key, row));
    }
    b.build().unwrap()
}

/// Check every valid `k` of `cx` against the oracle; returns the total
/// dominance tests, so callers can assert the kernel actually ran.
fn check(cx: &JoinContext<'_>, label: &str) -> u64 {
    let cfg = Config::default();
    let mut dom_tests = 0;
    for k in k_min(cx)..=k_max(cx) {
        let naive = ksjq_naive(cx, k, &cfg).unwrap();
        let serial = ksjq_grouping(cx, k, &cfg).unwrap();
        assert_eq!(serial.pairs, naive.pairs, "{label} k={k}");
        let c = serial.stats.counts;
        dom_tests += c.dom_tests;
        for threads in [2, 3] {
            let parallel = ksjq_grouping(cx, k, &Config::with_threads(threads)).unwrap();
            assert_eq!(
                parallel.pairs, naive.pairs,
                "{label} k={k} threads={threads}"
            );
            let p = parallel.stats.counts;
            assert_eq!(
                (p.targets_pruned, p.dom_tests, p.attr_cmps),
                (c.targets_pruned, c.dom_tests, c.attr_cmps),
                "{label} k={k} threads={threads}: counters depend on threads"
            );
        }
        let mut streamed = Vec::new();
        let progressive =
            ksjq_grouping_progressive(cx, k, &cfg, |u, v| streamed.push((TupleId(u), TupleId(v))))
                .unwrap();
        assert_eq!(progressive.pairs, naive.pairs, "{label} k={k} progressive");
        streamed.sort_unstable();
        assert_eq!(streamed, naive.pairs, "{label} k={k} progressive stream");
    }
    dom_tests
}

fn aggs(a: usize) -> Vec<AggFunc> {
    vec![AggFunc::Sum; a]
}

/// The tie-heavy shape variants every join kind runs over.
fn variants(a: usize, keys: Keys, n: usize) -> Vec<(&'static str, Shape)> {
    let base = Shape {
        n,
        a,
        l: 3,
        keys,
        range: 6,
        dup_every: 0,
        constant: None,
    };
    vec![
        ("plain", base),
        (
            "ties+dups",
            Shape {
                range: 3,
                dup_every: 3,
                ..base
            },
        ),
        (
            "constant",
            Shape {
                constant: Some(a + 1),
                ..base
            },
        ),
    ]
}

#[test]
fn equality_joins_match_naive() {
    let mut dom_tests = 0;
    for a in 0..=2 {
        // Left groups 0..6, right groups 3..9: groups 0–2 and 6–8 are
        // empty on the other side.
        let layouts = [
            ("one-sided groups", Keys::Groups(0, 6), Keys::Groups(3, 9)),
            ("all-in-one", Keys::Groups(0, 1), Keys::Groups(0, 1)),
            ("singletons", Keys::Groups(0, 200), Keys::Groups(0, 200)),
        ];
        for (layout, lkeys, rkeys) in layouts {
            for (variant, shape) in variants(a, lkeys, 36) {
                let r1 = relation(11 + a as u64, shape);
                let r2 = relation(
                    23 + a as u64,
                    Shape {
                        keys: rkeys,
                        ..shape
                    },
                );
                let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &aggs(a)).unwrap();
                dom_tests += check(&cx, &format!("equality a={a} {layout} {variant}"));
            }
        }
    }
    assert!(dom_tests > 0, "the verification kernel never ran");
}

#[test]
fn theta_joins_match_naive() {
    let mut dom_tests = 0;
    for op in [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Gt, ThetaOp::Ge] {
        for a in 0..=2 {
            for (variant, shape) in variants(a, Keys::Numeric, 28) {
                let r1 = relation(31 + a as u64, shape);
                let r2 = relation(47 + a as u64, shape);
                let cx = JoinContext::new(&r1, &r2, JoinSpec::Theta(op), &aggs(a)).unwrap();
                dom_tests += check(&cx, &format!("theta {op} a={a} {variant}"));
            }
        }
    }
    assert!(dom_tests > 0, "the verification kernel never ran");
}

#[test]
fn cartesian_joins_match_naive() {
    let mut dom_tests = 0;
    for a in 0..=2 {
        for (variant, shape) in variants(a, Keys::None, 24) {
            let r1 = relation(53 + a as u64, shape);
            let r2 = relation(71 + a as u64, shape);
            let cx = JoinContext::new(&r1, &r2, JoinSpec::Cartesian, &aggs(a)).unwrap();
            dom_tests += check(&cx, &format!("cartesian a={a} {variant}"));
        }
    }
    // Cartesian products have no SN tuples, so only `a ≥ 2` (whose "yes"
    // pairs are verified) reaches the kernel.
    assert!(dom_tests > 0, "the verification kernel never ran");
}

/// A join whose groups never match verifies nothing and answers like
/// the oracle (an empty skyline).
#[test]
fn disjoint_groups_match_naive() {
    let shape = Shape {
        n: 20,
        a: 1,
        l: 3,
        keys: Keys::Groups(0, 4),
        range: 6,
        dup_every: 0,
        constant: None,
    };
    let r1 = relation(2, shape);
    let r2 = relation(
        3,
        Shape {
            keys: Keys::Groups(10, 14),
            ..shape
        },
    );
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &aggs(1)).unwrap();
    assert_eq!(check(&cx, "disjoint groups"), 0);
}
