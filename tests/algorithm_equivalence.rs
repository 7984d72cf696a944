//! Cross-algorithm equivalence: the naïve, grouping and dominator-based
//! algorithms must return the identical skyline on every workload shape —
//! join kinds × aggregation × data distributions × k values.

mod common;

use common::*;
use ksjq::prelude::*;

#[test]
fn equality_join_no_aggregates() {
    let cfg = Config::default();
    for seed in [1u64, 2, 3] {
        let r1 = random_grouped(seed, 90, 0, 4, 5, 10);
        let r2 = random_grouped(seed + 100, 90, 0, 4, 5, 10);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        for k in 5..=8 {
            assert_all_algorithms_agree(&cx, k, &cfg, &format!("seed={seed} k={k}"));
        }
    }
}

#[test]
fn equality_join_one_aggregate() {
    let cfg = Config::default();
    for seed in [7u64, 8] {
        let r1 = random_grouped(seed, 80, 1, 3, 4, 8);
        let r2 = random_grouped(seed + 50, 80, 1, 3, 4, 8);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        for k in 5..=7 {
            assert_all_algorithms_agree(&cx, k, &cfg, &format!("agg seed={seed} k={k}"));
        }
    }
}

#[test]
fn equality_join_two_aggregates_exercises_theorem3_fix() {
    // a = 2: the SS⋈SS fast path is unsound (DESIGN.md §4.5) and the
    // algorithms must verify it. Tight value range maximises collisions.
    let cfg = Config::default();
    for seed in [11u64, 12, 13, 14] {
        let r1 = random_grouped(seed, 60, 2, 2, 3, 5);
        let r2 = random_grouped(seed + 31, 60, 2, 2, 3, 5);
        let cx =
            JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum, AggFunc::Sum]).unwrap();
        for k in 5..=6 {
            assert_all_algorithms_agree(&cx, k, &cfg, &format!("a2 seed={seed} k={k}"));
        }
    }
}

#[test]
fn weighted_sum_aggregate() {
    let cfg = Config::default();
    let r1 = random_grouped(21, 70, 1, 3, 4, 9);
    let r2 = random_grouped(22, 70, 1, 3, 4, 9);
    let w = AggFunc::WeightedSum {
        left: 1.0,
        right: 0.5,
    };
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[w]).unwrap();
    for k in 5..=7 {
        assert_all_algorithms_agree(&cx, k, &cfg, &format!("wsum k={k}"));
    }
}

#[test]
fn cartesian_product() {
    let cfg = Config::default();
    let r1 = random_keyless(31, 40, 3, 8);
    let r2 = random_keyless(32, 40, 3, 8);
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Cartesian, &[]).unwrap();
    for k in 4..=6 {
        let out = assert_all_algorithms_agree(&cx, k, &cfg, &format!("cartesian k={k}"));
        // Sec. 6.5: with one conceptual group there are no SN tuples and
        // hence no likely/maybe verification work in the grouping stats.
        let g = ksjq_grouping(&cx, k, &cfg).unwrap();
        assert_eq!(g.stats.counts.likely_pairs, 0);
        assert_eq!(g.stats.counts.maybe_pairs, 0);
        assert_eq!(g.len(), out.len());
    }
}

#[test]
fn all_kdom_subroutines_agree() {
    let r1 = random_grouped(41, 70, 0, 4, 4, 8);
    let r2 = random_grouped(42, 70, 0, 4, 4, 8);
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
    for kdom in [KdomAlgo::Naive, KdomAlgo::Osa, KdomAlgo::Tsa] {
        let cfg = Config {
            kdom,
            ..Default::default()
        };
        for k in 5..=7 {
            assert_all_algorithms_agree(&cx, k, &cfg, &format!("kdom={kdom:?} k={k}"));
        }
    }
}

#[test]
fn paper_defaults_shape_smoke() {
    // A scaled-down version of the paper's default workload (Table 7):
    // d = 7 with a = 2 aggregates, independent data.
    let spec1 = DatasetSpec {
        n: 220,
        agg_attrs: 2,
        local_attrs: 5,
        groups: 6,
        data_type: DataType::Independent,
        seed: 1,
    };
    let spec2 = DatasetSpec { seed: 2, ..spec1 };
    let (r1, r2) = (spec1.generate(), spec2.generate());
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum, AggFunc::Sum]).unwrap();
    let cfg = Config::default();
    for k in [9, 10, 11] {
        assert_all_algorithms_agree(&cx, k, &cfg, &format!("paperdefault k={k}"));
    }
}

#[test]
fn correlated_and_anticorrelated_distributions() {
    let cfg = Config::default();
    for data_type in [DataType::Correlated, DataType::AntiCorrelated] {
        let spec1 = DatasetSpec {
            n: 150,
            agg_attrs: 0,
            local_attrs: 4,
            groups: 4,
            data_type,
            seed: 5,
        };
        let spec2 = DatasetSpec { seed: 6, ..spec1 };
        let (r1, r2) = (spec1.generate(), spec2.generate());
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        for k in 5..=7 {
            assert_all_algorithms_agree(&cx, k, &cfg, &format!("{data_type} k={k}"));
        }
    }
}

#[test]
fn duplicate_heavy_input() {
    // Every tuple duplicated: skylines must retain both copies or drop
    // both, identically across algorithms.
    let base = random_grouped(51, 30, 0, 3, 3, 4);
    let mut b = Relation::builder(Schema::uniform(3).unwrap());
    for t in base.ids() {
        let (g, row) = (base.group_id(t).unwrap(), base.raw_row(t));
        b.add_grouped(g, &row).unwrap();
        b.add_grouped(g, &row).unwrap();
    }
    let r1 = b.build().unwrap();
    let r2 = random_grouped(52, 40, 0, 3, 3, 4);
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
    let cfg = Config::default();
    for k in 4..=6 {
        assert_all_algorithms_agree(&cx, k, &cfg, &format!("dup k={k}"));
    }
}

#[test]
fn empty_and_singleton_relations() {
    let cfg = Config::default();
    let empty = Relation::builder(Schema::uniform(3).unwrap())
        .build()
        .unwrap();
    let single = {
        let mut b = Relation::builder(Schema::uniform(3).unwrap());
        b.add_grouped(0, &[1.0, 2.0, 3.0]).unwrap();
        b.build().unwrap()
    };
    // Empty ⋈ single: empty skyline everywhere. The empty relation has no
    // group keys at all, so bind it as Cartesian (no key requirement).
    let cx = JoinContext::new(&empty, &single, JoinSpec::Cartesian, &[]).unwrap();
    let out = assert_all_algorithms_agree(&cx, 4, &cfg, "empty-cartesian");
    assert!(out.is_empty());

    // Single ⋈ single (same group): exactly one skyline pair.
    let single2 = {
        let mut b = Relation::builder(Schema::uniform(3).unwrap());
        b.add_grouped(0, &[4.0, 5.0, 6.0]).unwrap();
        b.build().unwrap()
    };
    let cx = JoinContext::new(&single, &single2, JoinSpec::Equality, &[]).unwrap();
    let out = assert_all_algorithms_agree(&cx, 4, &cfg, "single-single");
    assert_eq!(out.len(), 1);
}

#[test]
fn k_extremes() {
    let r1 = random_grouped(61, 50, 0, 4, 4, 8);
    let r2 = random_grouped(62, 50, 0, 4, 4, 8);
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
    let cfg = Config::default();
    let (kmin, kmax) = k_range(&cx);
    assert_eq!((kmin, kmax), (5, 8));
    let at_min = assert_all_algorithms_agree(&cx, kmin, &cfg, "k=min");
    let at_max = assert_all_algorithms_agree(&cx, kmax, &cfg, "k=max");
    // Lemma 1: the skyline grows with k.
    assert!(at_min.len() <= at_max.len());
    for p in &at_min.pairs {
        assert!(at_max.pairs.contains(p), "Lemma 1 violated for {p:?}");
    }
}
