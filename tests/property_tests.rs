//! Property-based tests (proptest) over the whole stack: dominance
//! algebra, Lemma 1, Theorems 1–4 as runtime invariants, classification
//! partition laws, the Unique Value Property (Theorem 5), and full
//! cross-algorithm equivalence on arbitrary inputs.

mod common;

use ksjq::core::{classify, validate_k, Category};
use ksjq::prelude::*;
use ksjq::skyline::{MatrixView, RowAccess};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A small grouped relation: n in 1..=24, d in 2..=4, tight value domain
/// (many ties).
fn arb_relation(d: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0u64..3, prop::collection::vec(0u32..6, d)), 1..=24).prop_map(
        move |tuples| {
            let mut b = Relation::builder(Schema::uniform(d).unwrap());
            for (g, row) in tuples {
                let row: Vec<f64> = row.into_iter().map(|v| v as f64).collect();
                b.add_grouped(g, &row).unwrap();
            }
            b.build().unwrap()
        },
    )
}

fn arb_agg_relation(a: usize, l: usize) -> impl Strategy<Value = Relation> {
    let d = a + l;
    prop::collection::vec((0u64..3, prop::collection::vec(0u32..6, d)), 1..=20).prop_map(
        move |tuples| {
            let mut b = Relation::builder(Schema::uniform_agg(a, l).unwrap());
            for (g, row) in tuples {
                let row: Vec<f64> = row.into_iter().map(|v| v as f64).collect();
                b.add_grouped(g, &row).unwrap();
            }
            b.build().unwrap()
        },
    )
}

fn arb_row(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u32..8).prop_map(|v| v as f64), d)
}

// ---------------------------------------------------------------------
// Dominance kernel algebra
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn full_dominance_is_irreflexive_and_asymmetric(u in arb_row(4), v in arb_row(4)) {
        prop_assert!(!ksjq::relation::dominates(&u, &u));
        if ksjq::relation::dominates(&u, &v) {
            prop_assert!(!ksjq::relation::dominates(&v, &u));
        }
    }

    #[test]
    fn k_dominance_monotone_in_k(u in arb_row(5), v in arb_row(5)) {
        for k in 2..=5usize {
            if ksjq::relation::k_dominates(&u, &v, k) {
                prop_assert!(ksjq::relation::k_dominates(&u, &v, k - 1),
                    "{u:?} {v:?} k={k}");
            }
        }
    }

    #[test]
    fn k_dominance_agrees_with_counts(u in arb_row(4), v in arb_row(4)) {
        let c = ksjq::relation::dom_counts(&u, &v);
        for k in 1..=4usize {
            prop_assert_eq!(
                ksjq::relation::k_dominates(&u, &v, k),
                c.le as usize >= k && c.lt >= 1
            );
        }
        prop_assert_eq!(ksjq::relation::dominates(&u, &v), c.dominates(4));
    }

    #[test]
    fn full_dominance_transitive(u in arb_row(3), v in arb_row(3), w in arb_row(3)) {
        use ksjq::relation::dominates;
        if dominates(&u, &v) && dominates(&v, &w) {
            prop_assert!(dominates(&u, &w));
        }
    }
}

// ---------------------------------------------------------------------
// Single-relation skyline algorithms agree
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn skyline_algorithms_agree(rel in arb_relation(3)) {
        let all: Vec<u32> = (0..rel.n() as u32).collect();
        let rows = rel.gather_rows();
        let view = MatrixView::new(rel.d(), &rows);
        let bnl = ksjq::skyline::bnl::skyline_bnl(&view, &all);
        let sfs = ksjq::skyline::sfs::skyline_sfs(&view, &all);
        prop_assert_eq!(&bnl, &sfs);
        // Full skyline == d-dominant skyline.
        let mut kdom = ksjq::skyline::k_dominant_skyline(&view, &all, rel.d(), KdomAlgo::Naive);
        kdom.sort_unstable();
        prop_assert_eq!(&bnl, &kdom);
    }

    #[test]
    fn kdom_algorithms_agree(rel in arb_relation(4), k in 1usize..=4) {
        let all: Vec<u32> = (0..rel.n() as u32).collect();
        let rows = rel.gather_rows();
        let view = MatrixView::new(rel.d(), &rows);
        let naive = ksjq::skyline::k_dominant_skyline(&view, &all, k, KdomAlgo::Naive);
        let osa = ksjq::skyline::k_dominant_skyline(&view, &all, k, KdomAlgo::Osa);
        let tsa = ksjq::skyline::k_dominant_skyline(&view, &all, k, KdomAlgo::Tsa);
        prop_assert_eq!(&naive, &osa);
        prop_assert_eq!(&naive, &tsa);
    }

    #[test]
    fn lemma_1_skyline_grows_with_k(rel in arb_relation(4)) {
        let all: Vec<u32> = (0..rel.n() as u32).collect();
        let rows = rel.gather_rows();
        let view = MatrixView::new(rel.d(), &rows);
        let mut prev: Vec<u32> = Vec::new();
        for k in 1..=4 {
            let cur = ksjq::skyline::k_dominant_skyline(&view, &all, k, KdomAlgo::Naive);
            for p in &prev {
                prop_assert!(cur.contains(p), "k={k} lost {p}");
            }
            prev = cur;
        }
    }
}

// ---------------------------------------------------------------------
// KSJQ invariants over random joins
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heart of the reproduction: all three KSJQ algorithms return the
    /// identical skyline, and the skyline equals the brute-force answer on
    /// the materialised join.
    #[test]
    fn ksjq_equals_brute_force(
        r1 in arb_relation(3),
        r2 in arb_relation(3),
        k_off in 0usize..=2,
    ) {
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let (lo, hi) = k_range(&cx);
        let k = (lo + k_off).min(hi);
        let cfg = Config::default();

        let naive = ksjq_naive(&cx, k, &cfg).unwrap();
        let grouping = ksjq_grouping(&cx, k, &cfg).unwrap();
        let dom = ksjq_dominator_based(&cx, k, &cfg).unwrap();
        prop_assert_eq!(&naive.pairs, &grouping.pairs);
        prop_assert_eq!(&naive.pairs, &dom.pairs);

        // Brute force over the materialised join.
        let m = cx.materialize();
        let mut expected: Vec<(u32, u32)> = Vec::new();
        for i in 0..m.n() {
            let dominated = (0..m.n()).any(|j| {
                j != i && ksjq::relation::k_dominates(m.row(j), m.row(i), k)
            });
            if !dominated {
                expected.push(m.pairs[i]);
            }
        }
        expected.sort_unstable();
        let got: Vec<(u32, u32)> =
            naive.pairs.iter().map(|(u, v)| (u.0, v.0)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Theorems 1–4 as runtime invariants (a = 0, where Theorem 3 holds).
    #[test]
    fn fate_table_invariants(r1 in arb_relation(3), r2 in arb_relation(3)) {
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let (lo, hi) = k_range(&cx);
        let k = (lo + 1).min(hi);
        let p = validate_k(&cx, k).unwrap();
        let cls = classify(&cx, &p, KdomAlgo::Naive);
        let out = ksjq_naive(&cx, k, &Config::default()).unwrap();
        let mut violation = None;
        cx.for_each_pair(|u, v| {
            let is_sky = out.contains(u, v);
            match (cls.left[u as usize], cls.right[v as usize]) {
                (Category::SS, Category::SS) if !is_sky => {
                    violation = Some(format!("Th.3: SS⋈SS ({u},{v}) not skyline"));
                }
                (Category::NN, _) | (_, Category::NN) if is_sky => {
                    violation = Some(format!("Th.4: NN pair ({u},{v}) in skyline"));
                }
                _ => {}
            }
        });
        prop_assert!(violation.is_none(), "{}", violation.unwrap());
    }

    /// Classification laws: SS tuples are exactly the global k′-dominant
    /// skyline; every NN tuple has a covering dominator.
    #[test]
    fn classification_partition_laws(r1 in arb_relation(3), r2 in arb_relation(3)) {
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let (lo, hi) = k_range(&cx);
        let k = lo.min(hi);
        let p = validate_k(&cx, k).unwrap();
        let cls = classify(&cx, &p, KdomAlgo::Tsa);
        let all: Vec<u32> = (0..r1.n() as u32).collect();
        let rows = r1.gather_rows();
        let view = MatrixView::new(r1.d(), &rows);
        let global = ksjq::skyline::k_dominant_skyline(&view, &all, p.k1_prime, KdomAlgo::Naive);
        for t in 0..r1.n() as u32 {
            let in_global = global.contains(&t);
            prop_assert_eq!(cls.left[t as usize] == Category::SS, in_global, "tuple {}", t);
            if cls.left[t as usize] == Category::NN {
                let covered = cx
                    .left_coverers(t)
                    .iter()
                    .any(|&w| w != t && ksjq::relation::k_dominates(
                        view.row(w), view.row(t), p.k1_prime));
                prop_assert!(covered, "NN tuple {} lacks covering dominator", t);
            }
        }
    }

    /// Execution-mode invariants: progressive delivery and parallel
    /// verification produce exactly the batch answer on arbitrary inputs.
    #[test]
    fn execution_modes_agree(r1 in arb_relation(3), r2 in arb_relation(3)) {
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let (lo, hi) = k_range(&cx);
        let k = (lo + 1).min(hi);
        let batch = ksjq_grouping(&cx, k, &Config::default()).unwrap();
        let mut streamed: Vec<(u32, u32)> = Vec::new();
        let progressive =
            ksjq_grouping_progressive(&cx, k, &Config::default(), |u, v| streamed.push((u, v)))
                .unwrap();
        prop_assert_eq!(&progressive.pairs, &batch.pairs);
        streamed.sort_unstable();
        let streamed_pairs: Vec<_> =
            streamed.iter().map(|&(u, v)| (TupleId(u), TupleId(v))).collect();
        prop_assert_eq!(&streamed_pairs, &batch.pairs);
        let parallel = ksjq_grouping(&cx, k, &Config::with_threads(3)).unwrap();
        prop_assert_eq!(&parallel.pairs, &batch.pairs);
    }

    /// Aggregate joins: the three algorithms agree for a = 1 (where the
    /// paper's Theorem 3 still holds) on arbitrary data.
    #[test]
    fn aggregate_equivalence(r1 in arb_agg_relation(1, 2), r2 in arb_agg_relation(1, 2)) {
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        let (lo, hi) = k_range(&cx);
        let cfg = Config::default();
        for k in lo..=hi {
            let naive = ksjq_naive(&cx, k, &cfg).unwrap();
            let grouping = ksjq_grouping(&cx, k, &cfg).unwrap();
            let dom = ksjq_dominator_based(&cx, k, &cfg).unwrap();
            prop_assert_eq!(&naive.pairs, &grouping.pairs, "k={}", k);
            prop_assert_eq!(&naive.pairs, &dom.pairs, "k={}", k);
        }
    }
}

// ---------------------------------------------------------------------
// The split-side verification kernel
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence, at the primitive level: merging the
    /// per-segment counts (left locals via `dom_counts_partial`, right
    /// locals via `dom_counts_partial`, aggregates via `fill_aggs` +
    /// `dom_counts`) must reproduce `dom_counts` on the `cx.fill`-
    /// materialised joined row, for arbitrary data and arbitrary
    /// dominator/candidate pairs.
    #[test]
    fn split_counts_equal_materialized_counts(
        r1 in arb_agg_relation(1, 2),
        r2 in arb_agg_relation(1, 2),
    ) {
        use ksjq::relation::{dom_counts, dom_counts_partial};
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        let (l1, l2, a) = (cx.l1(), cx.l2(), cx.a());
        let m = cx.materialize();
        let (rows1, rows2) = (r1.gather_rows(), r2.gather_rows());
        let (view1, view2) = (MatrixView::new(r1.d(), &rows1), MatrixView::new(r2.d(), &rows2));
        let mut joined = vec![0.0; cx.d_joined()];
        let mut aggs = vec![0.0; a];
        // Every joined tuple as dominator against every joined tuple as
        // candidate (bounded: the generators keep n small).
        for i in 0..m.n().min(12) {
            let (u, v) = m.pairs[i];
            for j in 0..m.n().min(12) {
                let cand = m.row(j);
                let lc = dom_counts_partial(
                    view1.row(u), cx.left_local_attrs(), &cand[..l1]);
                let rc = dom_counts_partial(
                    view2.row(v), cx.right_local_attrs(), &cand[l1..l1 + l2]);
                cx.fill_aggs(u, v, &mut aggs);
                let ac = dom_counts(&aggs, &cand[l1 + l2..]);
                cx.fill(u, v, &mut joined);
                prop_assert_eq!(
                    lc.merge(rc).merge(ac),
                    dom_counts(&joined, cand),
                    "dominator ({},{}) vs candidate {}", u, v, j
                );
            }
        }
    }

    /// The leg kernel's verdicts and the oracle's — with its SFS-ordered
    /// target sets, left-half early abandon and partner memo — must equal
    /// the pre-split serial path: id-ordered target sets, `cx.fill` into
    /// scratch, `k_dominates` on the materialised row.
    #[test]
    fn ordered_split_verification_equals_materialized_verification(
        r1 in arb_agg_relation(1, 2),
        r2 in arb_agg_relation(1, 2),
        k_off in 0usize..=2,
    ) {
        use ksjq::core::{target_set, verify_legs, JoinedCheck, Legs, TargetCache};
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        let (lo, hi) = k_range(&cx);
        let k = (lo + k_off).min(hi);
        let p = validate_k(&cx, k).unwrap();
        let llocals: Vec<usize> = r1.schema().local_indices().collect();
        let rlocals: Vec<usize> = r2.schema().local_indices().collect();
        let mut ltargets = TargetCache::new(&r1, p.k1_pp);
        let mut rtargets = TargetCache::new(&r2, p.k2_pp);
        let mut chk = JoinedCheck::new(&cx, k);
        let mut scratch = vec![0.0; cx.d_joined()];
        let m = cx.materialize();
        let probed = m.n().min(16);
        let (legs, _, _) = Legs::gather(&cx, m.pairs[..probed].to_vec());
        let (bits, _) = verify_legs(&cx, k, &legs, None).unwrap();
        for (i, &bit) in bits.iter().enumerate() {
            let (u, v) = m.pairs[i];
            let cand = m.row(i).to_vec();
            // Pre-split one-sided left check: τ(u) in ascending id order,
            // every partner pair materialised.
            let mut expected = false;
            for &tu in &target_set(&r1, &llocals, u, p.k1_pp) {
                for &tv in cx.right_partners(tu) {
                    cx.fill(tu, tv, &mut scratch);
                    expected |= ksjq::relation::k_dominates(&scratch, &cand, k);
                }
            }
            prop_assert_eq!(
                bit, expected, "leg kernel candidate ({},{}) k={}", u, v, k);
            prop_assert_eq!(
                chk.dominated_via_left(ltargets.get(u), &cand), expected,
                "via_left candidate ({},{}) k={}", u, v, k);
            // And the symmetric right check.
            let mut expected_r = false;
            for &tv in &target_set(&r2, &rlocals, v, p.k2_pp) {
                for &tu in cx.left_partners(tv) {
                    cx.fill(tu, tv, &mut scratch);
                    expected_r |= ksjq::relation::k_dominates(&scratch, &cand, k);
                }
            }
            prop_assert_eq!(
                chk.dominated_via_right(rtargets.get(v), &cand), expected_r,
                "via_right candidate ({},{}) k={}", u, v, k);
        }
    }

    /// Parallel classification + parallel verification + the split kernel,
    /// driven end to end over synthetic generator specs (the shapes the
    /// figures and the serving layer run): every execution mode returns
    /// the naive algorithm's answer.
    #[test]
    fn synthetic_specs_all_execution_modes_agree(
        n in 10usize..50,
        d in 2usize..5,
        a in 0usize..3,
        g in 1usize..5,
        seed in 0u64..500,
        k_off in 0usize..3,
        distribution in 0usize..3,
    ) {
        use ksjq::datagen::{DataType, DatasetSpec};
        let a = a.min(d - 1);
        let data_type = match distribution {
            0 => DataType::Independent,
            1 => DataType::Correlated,
            _ => DataType::AntiCorrelated,
        };
        let spec = DatasetSpec {
            n, agg_attrs: a, local_attrs: d - a, groups: g, data_type, seed,
        };
        let r1 = spec.generate();
        let r2 = DatasetSpec { seed: seed + 1000, ..spec }.generate();
        let funcs = vec![AggFunc::Sum; a];
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &funcs).unwrap();
        let (lo, hi) = k_range(&cx);
        let k = (lo + k_off).min(hi);
        let naive = ksjq_naive(&cx, k, &Config::default()).unwrap();
        let serial = ksjq_grouping(&cx, k, &Config::default()).unwrap();
        let threaded = ksjq_grouping(&cx, k, &Config::with_threads(4)).unwrap();
        let dom = ksjq_dominator_based(&cx, k, &Config::default()).unwrap();
        prop_assert_eq!(&naive.pairs, &serial.pairs, "serial grouping, k={}", k);
        prop_assert_eq!(&naive.pairs, &threaded.pairs, "threaded grouping, k={}", k);
        prop_assert_eq!(&naive.pairs, &dom.pairs, "dominator-based, k={}", k);
        // The kernel counters are thread-count invariant: identical work,
        // different workers.
        prop_assert_eq!(
            serial.stats.counts.dom_tests, threaded.stats.counts.dom_tests, "k={}", k);
        prop_assert_eq!(
            serial.stats.counts.attr_cmps, threaded.stats.counts.attr_cmps, "k={}", k);
    }
}

// ---------------------------------------------------------------------
// The columnar kernels (PR 5)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The columnar primitives must be byte-identical to the row-major
    /// oracles: `dom_counts_block_columnar` row-for-row against
    /// `dom_counts_block` / per-row `dom_counts`, and
    /// `dom_counts_partial_block_columnar` against per-row
    /// `dom_counts_partial` over an arbitrary attribute selection.
    #[test]
    fn columnar_counts_equal_row_major_counts(
        rel in arb_relation(4),
        probe_sel in 0usize..24,
        attr_mask in 1usize..16,
    ) {
        use ksjq::relation::{
            dom_counts, dom_counts_block, dom_counts_block_columnar, dom_counts_partial,
            dom_counts_partial_block_columnar,
        };
        let n = rel.n();
        let rows = rel.gather_rows();
        let view = MatrixView::new(rel.d(), &rows);
        let probe = view.row((probe_sel % n) as u32).to_vec();
        let mut row_major = Vec::new();
        dom_counts_block(&rows, &probe, &mut row_major);
        let mut columnar = Vec::new();
        dom_counts_block_columnar(rel.columns(), n, &probe, &mut columnar);
        prop_assert_eq!(&row_major, &columnar);
        for (t, c) in columnar.iter().enumerate() {
            prop_assert_eq!(*c, dom_counts(view.row(t as u32), &probe), "tuple {}", t);
        }
        // Arbitrary non-empty attribute subset for the partial form.
        let attrs: Vec<usize> = (0..4).filter(|i| attr_mask & (1 << i) != 0).collect();
        let seg: Vec<f64> = attrs.iter().map(|&a| probe[a]).collect();
        let mut partial = Vec::new();
        dom_counts_partial_block_columnar(rel.columns(), n, &attrs, &seg, &mut partial);
        prop_assert_eq!(partial.len(), n);
        for (t, c) in partial.iter().enumerate() {
            prop_assert_eq!(
                *c,
                dom_counts_partial(view.row(t as u32), &attrs, &seg),
                "tuple {} attrs {:?}", t, attrs
            );
        }
    }

    /// The columnar target-set scan must select exactly the scalar
    /// oracle's members, for aggregate schemas (interleaved locals) and
    /// every threshold.
    #[test]
    fn columnar_target_set_equals_rowmajor(rel in arb_agg_relation(1, 3), probe_sel in 0usize..20) {
        use ksjq::core::{target_set, target_set_rowmajor};
        let locals: Vec<usize> = rel.schema().local_indices().collect();
        let probe = (probe_sel % rel.n()) as u32;
        for k_pp in 0..=locals.len() + 1 {
            prop_assert_eq!(
                target_set(&rel, &locals, probe, k_pp),
                target_set_rowmajor(&rel, &locals, probe, k_pp),
                "k_pp {}", k_pp
            );
        }
    }

    /// The leg kernel and the columnar verifier must return the row-major
    /// oracle's verdicts, over arbitrary aggregate joins (and, for the
    /// columnar verifier, arbitrary target sets).
    #[test]
    fn columnar_check_equals_oracle(
        r1 in arb_agg_relation(1, 2),
        r2 in arb_agg_relation(1, 2),
        k_off in 0usize..=2,
        lmask in 1u32..256,
        rmask in 1u32..256,
    ) {
        use ksjq::core::{verify_legs, ColumnarCheck, JoinedCheck, Legs};
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        let (lo, hi) = k_range(&cx);
        let k = (lo + k_off).min(hi);
        let lt: Vec<u32> = (0..r1.n() as u32).filter(|t| lmask & (1 << (t % 8)) != 0).collect();
        let rt: Vec<u32> = (0..r2.n() as u32).filter(|t| rmask & (1 << (t % 8)) != 0).collect();
        let mut oracle = JoinedCheck::new(&cx, k);
        let mut columnar = ColumnarCheck::new(&cx, k);
        let m = cx.materialize();
        let probed = m.n().min(16);
        let (legs, _, _) = Legs::gather(&cx, m.pairs[..probed].to_vec());
        let (bits, _) = verify_legs(&cx, k, &legs, None).unwrap();
        let all: Vec<u32> = (0..r1.n() as u32).collect();
        for (i, &bit) in bits.iter().enumerate() {
            let cand = m.row(i).to_vec();
            prop_assert_eq!(
                bit,
                oracle.dominated_via_left(&all, &cand),
                "leg kernel candidate {} k={}", i, k
            );
            prop_assert_eq!(
                columnar.dominated_via_both(&lt, &rt, &cand),
                oracle.dominated_via_both(&lt, &rt, &cand),
                "via_both candidate {} k={}", i, k
            );
        }
    }

    /// Dominator-based execution with sharded dominator generation must
    /// be indistinguishable from serial: identical skyline and identical
    /// summed kernel counters for every thread count.
    #[test]
    fn dominator_based_thread_invariant(
        r1 in arb_relation(3),
        r2 in arb_relation(3),
        k_off in 0usize..=2,
        threads in 2usize..=9,
    ) {
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let (lo, hi) = k_range(&cx);
        let k = (lo + k_off).min(hi);
        let serial = ksjq_dominator_based(&cx, k, &Config::default()).unwrap();
        let parallel = ksjq_dominator_based(&cx, k, &Config::with_threads(threads)).unwrap();
        prop_assert_eq!(&serial.pairs, &parallel.pairs, "threads={}", threads);
        prop_assert_eq!(
            serial.stats.counts.dom_tests, parallel.stats.counts.dom_tests);
        prop_assert_eq!(
            serial.stats.counts.attr_cmps, parallel.stats.counts.attr_cmps);
        prop_assert_eq!(
            serial.stats.counts.targets_pruned, parallel.stats.counts.targets_pruned);
    }
}

// ---------------------------------------------------------------------
// Theorem 5: the Unique Value Property
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under UVP (all values globally distinct per attribute — the
    /// strongest form), every `SS ⋈ SN` pair is a k-dominant skyline.
    #[test]
    fn theorem_5_uvp(perm in prop::sample::subsequence((0u64..40).collect::<Vec<_>>(), 8..=30)) {
        // Build relations with globally unique values by spreading the
        // sampled integers: value(v, attr) = v * 4 + attr ensures any two
        // tuples differ in every attribute.
        let d = 3usize;
        let mut b1 = Relation::builder(Schema::uniform(d).unwrap());
        let mut b2 = Relation::builder(Schema::uniform(d).unwrap());
        for (i, &v) in perm.iter().enumerate() {
            let g = v % 3;
            let row1: Vec<f64> = (0..d).map(|a| ((v * 7 + a as u64 * 3) % 97) as f64 + 0.5 / (i + 1) as f64).collect();
            let row2: Vec<f64> = (0..d).map(|a| ((v * 11 + a as u64 * 5) % 89) as f64 + 0.25 / (i + 1) as f64).collect();
            b1.add_grouped(g, &row1).unwrap();
            b2.add_grouped(g, &row2).unwrap();
        }
        let r1 = b1.build().unwrap();
        let r2 = b2.build().unwrap();
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let (lo, hi) = k_range(&cx);
        let k = (lo + 1).min(hi);
        let p = validate_k(&cx, k).unwrap();

        // Verify the UVP premise actually holds for the k″-sized subsets
        // (no two tuples share k″ attribute values).
        for rel in [&r1, &r2] {
            let rows = rel.gather_rows();
            let view = MatrixView::new(rel.d(), &rows);
            for i in 0..rel.n() as u32 {
                for j in 0..i {
                    let shared = ksjq::relation::dominance::equal_count(view.row(i), view.row(j));
                    prop_assert!(shared < p.k1_pp.min(p.k2_pp),
                        "UVP premise violated: tuples share {} values", shared);
                }
            }
        }

        let cls = classify(&cx, &p, KdomAlgo::Naive);
        let out = ksjq_naive(&cx, k, &Config::default()).unwrap();
        let mut violation = None;
        cx.for_each_pair(|u, v| {
            let fate = (cls.left[u as usize], cls.right[v as usize]);
            if matches!(fate, (Category::SS, Category::SN) | (Category::SN, Category::SS))
                && !out.contains(u, v)
            {
                violation = Some((u, v));
            }
        });
        prop_assert!(violation.is_none(), "Th.5 violated at {:?}", violation);
    }
}
