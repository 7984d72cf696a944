//! Metamorphic tests: transformations of the input that must not change
//! the skyline. These catch orientation, layout and normalisation bugs
//! that example-based tests tend to miss.

mod common;

use common::*;
use ksjq::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run(cx: &JoinContext<'_>, k: usize) -> Vec<(u32, u32)> {
    ksjq_grouping(cx, k, &Config::default())
        .unwrap()
        .pairs
        .into_iter()
        .map(|(u, v)| (u.0, v.0))
        .collect()
}

/// Negating every raw value and flipping every preference Min↔Max leaves
/// all dominance relations — and hence the skyline — unchanged.
#[test]
fn preference_flip_invariance() {
    let mut rng = StdRng::seed_from_u64(77);
    let n = 60;
    let d = 4;
    let build = |rng: &mut StdRng, flip: bool, rows: &[(u64, Vec<f64>)]| {
        let mut sb = Schema::builder();
        for i in 0..d {
            let pref = if flip {
                Preference::Max
            } else {
                Preference::Min
            };
            sb = sb.local(format!("s{i}"), pref);
        }
        let mut b = Relation::builder(sb.build().unwrap());
        for (g, row) in rows {
            let row: Vec<f64> = row.iter().map(|&v| if flip { -v } else { v }).collect();
            b.add_grouped(*g, &row).unwrap();
        }
        let _ = rng;
        b.build().unwrap()
    };
    let gen_rows = |rng: &mut StdRng| -> Vec<(u64, Vec<f64>)> {
        (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..4u64),
                    (0..d).map(|_| rng.gen_range(0..20) as f64).collect(),
                )
            })
            .collect()
    };
    let rows1 = gen_rows(&mut rng);
    let rows2 = gen_rows(&mut rng);

    let (a1, a2) = (
        build(&mut rng, false, &rows1),
        build(&mut rng, false, &rows2),
    );
    let (b1, b2) = (build(&mut rng, true, &rows1), build(&mut rng, true, &rows2));
    let cx_a = JoinContext::new(&a1, &a2, JoinSpec::Equality, &[]).unwrap();
    let cx_b = JoinContext::new(&b1, &b2, JoinSpec::Equality, &[]).unwrap();
    for k in 5..=8 {
        assert_eq!(run(&cx_a, k), run(&cx_b, k), "k={k}");
    }
}

/// Permuting the attribute order of both relations (consistently) must
/// not change which pairs win — dominance is position-symmetric.
#[test]
fn attribute_permutation_invariance() {
    let r1 = random_grouped(101, 70, 0, 4, 4, 12);
    let r2 = random_grouped(102, 70, 0, 4, 4, 12);
    let perm = [2usize, 0, 3, 1];
    let permute = |rel: &Relation| {
        let mut b = Relation::builder(Schema::uniform(4).unwrap());
        for t in rel.ids() {
            let (g, row) = (rel.group_id(t).unwrap(), rel.raw_row(t));
            let newrow: Vec<f64> = perm.iter().map(|&i| row[i]).collect();
            b.add_grouped(g, &newrow).unwrap();
        }
        b.build().unwrap()
    };
    let (p1, p2) = (permute(&r1), permute(&r2));
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
    let cxp = JoinContext::new(&p1, &p2, JoinSpec::Equality, &[]).unwrap();
    for k in 5..=8 {
        assert_eq!(run(&cx, k), run(&cxp, k), "k={k}");
    }
}

/// Positive affine transforms of an attribute (same transform on the
/// paired attribute when it aggregates by sum) preserve all comparisons.
#[test]
fn affine_scaling_invariance() {
    let r1 = random_grouped(103, 60, 1, 3, 4, 10);
    let r2 = random_grouped(104, 60, 1, 3, 4, 10);
    // Scale attribute j by (3x + 7) on both relations.
    let transform = |rel: &Relation| {
        let mut b = Relation::builder(Schema::uniform_agg(1, 3).unwrap());
        for t in rel.ids() {
            let g = rel.group_id(t).unwrap();
            let raw = rel.raw_row(t);
            let newrow: Vec<f64> = raw.iter().map(|&v| 3.0 * v + 7.0).collect();
            b.add_grouped(g, &newrow).unwrap();
        }
        b.build().unwrap()
    };
    let (s1, s2) = (transform(&r1), transform(&r2));
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
    let cxs = JoinContext::new(&s1, &s2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
    for k in 5..=7 {
        assert_eq!(run(&cx, k), run(&cxs, k), "k={k}");
    }
}

/// Renumbering join groups bijectively changes nothing.
#[test]
fn group_renaming_invariance() {
    let r1 = random_grouped(105, 50, 0, 3, 5, 8);
    let r2 = random_grouped(106, 50, 0, 3, 5, 8);
    let rename = |rel: &Relation| {
        let mut b = Relation::builder(Schema::uniform(3).unwrap());
        for t in rel.ids() {
            let g = rel.group_id(t).unwrap();
            b.add_grouped(1000 - g * 13, &rel.raw_row(t)).unwrap(); // order-reversing bijection
        }
        b.build().unwrap()
    };
    let (m1, m2) = (rename(&r1), rename(&r2));
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
    let cxm = JoinContext::new(&m1, &m2, JoinSpec::Equality, &[]).unwrap();
    for k in 4..=6 {
        assert_eq!(run(&cx, k), run(&cxm, k), "k={k}");
    }
}

/// Shuffling tuple order yields the same skyline modulo the id mapping.
#[test]
fn tuple_order_invariance() {
    let mut rng = StdRng::seed_from_u64(107);
    let r1 = random_grouped(108, 50, 0, 3, 4, 9);
    let r2 = random_grouped(109, 50, 0, 3, 4, 9);

    // Shuffle the left relation, remembering new ← old.
    let mut order: Vec<u32> = (0..r1.n() as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut b = Relation::builder(Schema::uniform(3).unwrap());
    for &old in &order {
        let t = TupleId(old);
        b.add_grouped(r1.group_id(t).unwrap(), &r1.raw_row(t))
            .unwrap();
    }
    let shuffled = b.build().unwrap();

    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
    let cxs = JoinContext::new(&shuffled, &r2, JoinSpec::Equality, &[]).unwrap();
    for k in 4..=6 {
        // Map the shuffled answer back through `order` and compare as sets.
        let mut base = run(&cx, k);
        let mut mapped: Vec<(u32, u32)> = run(&cxs, k)
            .into_iter()
            .map(|(u, v)| (order[u as usize], v))
            .collect();
        base.sort_unstable();
        mapped.sort_unstable();
        assert_eq!(base, mapped, "k={k}");
    }
}

/// Duplicating the whole right relation doubles every skyline pair
/// involving it (both copies survive or neither does).
#[test]
fn duplication_doubles_right_side() {
    let r1 = random_grouped(110, 40, 0, 3, 3, 8);
    let r2 = random_grouped(111, 40, 0, 3, 3, 8);
    let mut b = Relation::builder(Schema::uniform(3).unwrap());
    for t in r2.ids().chain(r2.ids()) {
        b.add_grouped(r2.group_id(t).unwrap(), &r2.raw_row(t))
            .unwrap();
    }
    let doubled = b.build().unwrap();
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
    let cxd = JoinContext::new(&r1, &doubled, JoinSpec::Equality, &[]).unwrap();
    let n2 = r2.n() as u32;
    for k in 4..=6 {
        let base = run(&cx, k);
        let dbl = run(&cxd, k);
        assert_eq!(dbl.len(), base.len() * 2, "k={k}");
        for &(u, v) in &base {
            assert!(dbl.contains(&(u, v)), "k={k}: missing original copy");
            assert!(dbl.contains(&(u, v + n2)), "k={k}: missing duplicate copy");
        }
    }
}
