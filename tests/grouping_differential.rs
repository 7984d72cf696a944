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
//!
//! The SS/SN/NN classification that feeds the kernel is checked on its
//! own against Defs. 1–3 evaluated by brute force over all pairs, on the
//! same shapes and join kinds.
//!
//! The same kernel verifies *foreign* candidates — legs of another
//! shard's relations — for the distributed `CHECK`; those verdicts are
//! compared with a brute-force scan of every local joined tuple.

use ksjq::core::{classify_parallel, k_max, k_min, validate_k, verify_legs, Category, Legs};
use ksjq::prelude::*;
use ksjq::relation::k_dominates;
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

/// The distributed `CHECK` path: legs from a second, foreign relation
/// pair with the same schema are verified against the local join, and
/// every verdict must equal a brute-force `k_dominates` scan over all
/// local joined tuples. Local skyline members, probed as legs, equal a
/// resident joined tuple and must never count as dominated.
#[test]
fn foreign_probe_legs_match_brute_force() {
    let (mut dominated, mut probed) = (0, 0);
    for a in 0..=2 {
        for (variant, shape) in variants(a, Keys::Groups(0, 4), 24) {
            let seed = 101 + 10 * a as u64;
            let local = (relation(seed, shape), relation(seed + 1, shape));
            let foreign = (relation(seed + 2, shape), relation(seed + 3, shape));
            let cx = JoinContext::new(&local.0, &local.1, JoinSpec::Equality, &aggs(a)).unwrap();
            let fx =
                JoinContext::new(&foreign.0, &foreign.1, JoinSpec::Equality, &aggs(a)).unwrap();
            let resident = cx.materialize();
            let mut fpairs = Vec::new();
            fx.for_each_pair(|u, v| fpairs.push((u, v)));
            let (probes, _, _) = Legs::gather(&fx, fpairs.clone());
            for k in k_min(&cx)..=k_max(&cx) {
                let label = format!("a={a} {variant} k={k}");
                let (bits, _) = verify_legs(&cx, k, &probes, None).unwrap();
                for (&(u, v), &bit) in fpairs.iter().zip(&bits) {
                    let cand = fx.joined_row(u, v);
                    let expect = (0..resident.n()).any(|i| k_dominates(resident.row(i), &cand, k));
                    assert_eq!(bit, expect, "{label} foreign {u}:{v}");
                    dominated += bit as usize;
                    probed += 1;
                }

                let skyline: Vec<(u32, u32)> = ksjq_naive(&cx, k, &Config::default())
                    .unwrap()
                    .pairs
                    .iter()
                    .map(|&(u, v)| (u.0, v.0))
                    .collect();
                let (own, _, _) = Legs::gather(&cx, skyline);
                let (bits, _) = verify_legs(&cx, k, &own, None).unwrap();
                assert!(bits.iter().all(|&b| !b), "{label}: a resident skyline pair");
            }
        }
    }
    assert!(
        0 < dominated && dominated < probed,
        "{dominated} of {probed} foreign probes dominated: the verdicts never vary"
    );
}

/// Defs. 1–3 for one side by brute force over all pairs: `t` is NN when a
/// tuple that covers it k′-dominates it, SN when only other tuples do,
/// and SS when none does. Coverage is spelled out from the join kind,
/// independently of `JoinContext`'s coverer slices: the same group for
/// an equality join, every tuple for a Cartesian product, and for a theta
/// join every tuple whose key is at least as permissive (Sec. 6.6).
fn oracle_categories(cx: &JoinContext<'_>, left: bool, k: usize) -> Vec<Category> {
    let rel = if left { cx.left() } else { cx.right() };
    let row = |t: usize| -> Vec<f64> {
        (0..rel.d())
            .map(|a| rel.value(TupleId(t as u32), a))
            .collect()
    };
    let covers = |c: usize, t: usize| {
        let (c, t) = (TupleId(c as u32), TupleId(t as u32));
        match cx.spec() {
            JoinSpec::Equality => rel.group_id(c) == rel.group_id(t),
            JoinSpec::Cartesian => true,
            JoinSpec::Theta(op) => {
                let (kc, kt) = (rel.numeric_key(c).unwrap(), rel.numeric_key(t).unwrap());
                // Under `<`/`≤` a smaller left key or a larger right key
                // joins with more tuples; under `>`/`≥` the reverse.
                if matches!(op, ThetaOp::Lt | ThetaOp::Le) == left {
                    kc <= kt
                } else {
                    kc >= kt
                }
            }
        }
    };
    (0..rel.n())
        .map(|t| {
            let mut cat = Category::SS;
            for c in (0..rel.n()).filter(|&c| k_dominates(&row(c), &row(t), k)) {
                if covers(c, t) {
                    return Category::NN;
                }
                cat = Category::SN;
            }
            cat
        })
        .collect()
}

/// Classify `cx` at every valid `k` and 1–3 threads against the oracle,
/// and check monotonicity in `k`: raising `k′` can only shrink what is
/// dominated, so SS grows and NN shrinks. Returns the SN count seen.
fn check_classification(cx: &JoinContext<'_>, label: &str) -> usize {
    let mut sn = 0;
    let mut prev: Option<(Vec<Category>, Vec<Category>)> = None;
    for k in k_min(cx)..=k_max(cx) {
        let p = validate_k(cx, k).unwrap();
        let want = (
            oracle_categories(cx, true, p.k1_prime),
            oracle_categories(cx, false, p.k2_prime),
        );
        for threads in 1..=3 {
            let cls = classify_parallel(cx, &p, KdomAlgo::Tsa, threads);
            assert_eq!(cls.left, want.0, "{label} k={k} threads={threads} left");
            assert_eq!(cls.right, want.1, "{label} k={k} threads={threads} right");
        }
        if let Some((pl, pr)) = &prev {
            for (before, after) in [(pl, &want.0), (pr, &want.1)] {
                for (t, (&b, &a)) in before.iter().zip(after).enumerate() {
                    assert!(
                        b != Category::SS || a == Category::SS,
                        "{label} k={k}: tuple {t} left SS"
                    );
                    assert!(
                        a != Category::NN || b == Category::NN,
                        "{label} k={k}: tuple {t} became NN"
                    );
                }
            }
        }
        sn += want
            .0
            .iter()
            .chain(&want.1)
            .filter(|&&c| c == Category::SN)
            .count();
        prev = Some(want);
    }
    sn
}

/// An anti-correlated relation whose values are snapped to a grid of 16
/// steps, so every attribute ties often, keyed for `keys`. Anti-correlated
/// rows are rarely dominated, so many tuples outlast the plain scan's
/// budget and are settled through the prefix lists.
fn anti_with_ties(seed: u64, n: usize, keys: Keys) -> Relation {
    let spec = DatasetSpec {
        n,
        agg_attrs: 2,
        local_attrs: 4,
        groups: 1,
        data_type: DataType::AntiCorrelated,
        seed,
    };
    let base = spec.generate();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Relation::builder(Schema::uniform_agg(2, 4).unwrap());
    for t in 0..n {
        let row: Vec<f64> = (0..6)
            .map(|a| (base.value(TupleId(t as u32), a) * 16.0).floor())
            .collect();
        match keys {
            Keys::Groups(lo, hi) => b.add_grouped(rng.gen_range(lo..hi), &row).unwrap(),
            Keys::Numeric => b.add_keyed(rng.gen_range(0..8) as f64, &row).unwrap(),
            Keys::None => b.add(&row).unwrap(),
        };
    }
    b.build().unwrap()
}

#[test]
fn classification_matches_definitions() {
    let mut sn = 0;
    for a in 0..=2 {
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
                sn += check_classification(&cx, &format!("equality a={a} {layout} {variant}"));
            }
        }
        for op in [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Gt, ThetaOp::Ge] {
            for (variant, shape) in variants(a, Keys::Numeric, 28) {
                let r1 = relation(31 + a as u64, shape);
                let r2 = relation(47 + a as u64, shape);
                let cx = JoinContext::new(&r1, &r2, JoinSpec::Theta(op), &aggs(a)).unwrap();
                sn += check_classification(&cx, &format!("theta {op} a={a} {variant}"));
            }
        }
        for (variant, shape) in variants(a, Keys::None, 24) {
            let r1 = relation(53 + a as u64, shape);
            let r2 = relation(71 + a as u64, shape);
            let cx = JoinContext::new(&r1, &r2, JoinSpec::Cartesian, &aggs(a)).unwrap();
            check_classification(&cx, &format!("cartesian a={a} {variant}"));
        }
    }
    let large = [
        ("all-in-one", JoinSpec::Equality, Keys::Groups(0, 1)),
        ("ten groups", JoinSpec::Equality, Keys::Groups(0, 10)),
        ("theta <", JoinSpec::Theta(ThetaOp::Lt), Keys::Numeric),
        ("theta ≥", JoinSpec::Theta(ThetaOp::Ge), Keys::Numeric),
        ("cartesian", JoinSpec::Cartesian, Keys::None),
    ];
    for (label, spec, keys) in large {
        let r1 = anti_with_ties(5, 300, keys);
        let r2 = anti_with_ties(6, 300, keys);
        let cx = JoinContext::new(&r1, &r2, spec, &aggs(2)).unwrap();
        sn += check_classification(&cx, &format!("anti-correlated with ties, {label}"));
    }
    assert!(
        sn > 0,
        "no SN tuple: the coverer scans were never told apart"
    );
}
