//! SS / SN / NN classification of base relations (paper Sec. 5.2).
//!
//! For each base tuple, with respect to `k′`-dominance:
//!
//! * [`Category::SS`] — not k′-dominated by *any* tuple of its relation
//!   (Def. 1: a k′-dominant skyline tuple overall);
//! * [`Category::SN`] — k′-dominated somewhere, but not by any tuple that
//!   *covers* it (Def. 2: a k′-dominant skyline of its join group only);
//! * [`Category::NN`] — k′-dominated by a coverer (Def. 3).
//!
//! "Coverers" generalise the paper's join groups uniformly across join
//! kinds: same-key tuples for equality joins, the key-order prefix/suffix
//! of Sec. 6.6 for theta joins, and the whole relation for Cartesian
//! products (which is why no tuple is ever `SN` there — exactly the
//! Sec. 6.5 special case).

use crate::params::KsjqParams;
use ksjq_join::{JoinContext, JoinSpec};
use ksjq_relation::Relation;
use ksjq_skyline::{k_dominant_skyline, k_dominated_by_any, KdomAlgo, MatrixView, RowAccess};

/// Classification of one tuple (paper Defs. 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// k′-dominant skyline of the whole relation.
    SS,
    /// k′-dominant skyline of its group only.
    SN,
    /// k′-dominated within its own group.
    NN,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::SS => write!(f, "SS"),
            Category::SN => write!(f, "SN"),
            Category::NN => write!(f, "NN"),
        }
    }
}

/// The classification of both base relations for one `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// Per-tuple category of the left relation, indexed by tuple id.
    pub left: Vec<Category>,
    /// Per-tuple category of the right relation, indexed by tuple id.
    pub right: Vec<Category>,
    /// The parameters the classification was computed under.
    pub params: KsjqParams,
}

impl Classification {
    /// `(SS, SN, NN)` tallies of one side (0 = left, 1 = right).
    pub fn tallies(&self, side: usize) -> (usize, usize, usize) {
        let v = if side == 0 { &self.left } else { &self.right };
        let mut t = (0, 0, 0);
        for c in v {
            match c {
                Category::SS => t.0 += 1,
                Category::SN => t.1 += 1,
                Category::NN => t.2 += 1,
            }
        }
        t
    }
}

fn classify_side<'c>(
    rel: &Relation,
    k_prime: usize,
    kdom: KdomAlgo,
    threads: usize,
    coverers: impl Fn(u32) -> CovererSet<'c> + Sync,
) -> Vec<Category> {
    let n = rel.n();
    let all: Vec<u32> = (0..n as u32).collect();
    // The row-at-a-time scans read whole rows: gather them once into
    // scratch that lives only as long as this call.
    let gathered = rel.gather_rows();
    let rows = MatrixView::new(rel.d(), &gathered);
    // SS = the global k′-dominant skyline (Def. 1). The scan algorithms
    // are inherently sequential; only the per-tuple refinement below
    // shards.
    let global = k_dominant_skyline(&rows, &all, k_prime, kdom);
    let mut out = vec![Category::NN; n];
    for &t in &global {
        out[t as usize] = Category::SS;
    }
    // Non-SS tuples: SN iff no coverer k′-dominates them. Each tuple's
    // test is independent, so with `threads > 1` the id range shards over
    // scoped workers exactly like parallel verification; indexed writes
    // into disjoint slices preserve the output order bit-for-bit.
    let refine = |lo: usize, out: &mut [Category]| {
        for (i, slot) in out.iter_mut().enumerate() {
            if *slot == Category::SS {
                continue;
            }
            let t = (lo + i) as u32;
            let dominated_in_group = match coverers(t) {
                CovererSet::Slice(s) => k_dominated_by_any(&rows, rows.row(t), s, k_prime, t),
                // Whole relation: t is non-SS, so it *is* dominated globally.
                CovererSet::All => true,
            };
            if !dominated_in_group {
                *slot = Category::SN;
            }
        }
    };
    let threads = threads.min(n).max(1);
    if threads == 1 {
        refine(0, &mut out);
    } else {
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (c, slice) in out.chunks_mut(chunk).enumerate() {
                let refine = &refine;
                scope.spawn(move || refine(c * chunk, slice));
            }
        });
    }
    out
}

enum CovererSet<'a> {
    Slice(&'a [u32]),
    All,
}

/// Classify both base relations of `cx` under `params`.
///
/// This is the paper's `Group` routine (Algorithms 2 and 3, lines 3–4);
/// its cost is the "grouping time" component of the figures.
pub fn classify(cx: &JoinContext<'_>, params: &KsjqParams, kdom: KdomAlgo) -> Classification {
    classify_parallel(cx, params, kdom, 1)
}

/// [`classify`] with the per-tuple SN/NN refinement sharded over
/// `threads` scoped workers. The categorisation is identical to the
/// serial routine — same output vector, same order — because every
/// tuple's test reads only immutable relation data.
pub fn classify_parallel(
    cx: &JoinContext<'_>,
    params: &KsjqParams,
    kdom: KdomAlgo,
    threads: usize,
) -> Classification {
    let left = classify_side(cx.left(), params.k1_prime, kdom, threads, |t| {
        match cx.spec() {
            JoinSpec::Cartesian => CovererSet::All,
            _ => CovererSet::Slice(cx.left_coverers(t)),
        }
    });
    let right = classify_side(cx.right(), params.k2_prime, kdom, threads, |t| {
        match cx.spec() {
            JoinSpec::Cartesian => CovererSet::All,
            _ => CovererSet::Slice(cx.right_coverers(t)),
        }
    });
    Classification {
        left,
        right,
        params: *params,
    }
}

/// Count join-compatible pairs per fate class: `(yes, likely, maybe)`
/// (Table 5: `SS⋈SS`, `SS⋈SN ∪ SN⋈SS`, `SN⋈SN`). Pairs with an `NN`
/// component are pruned and not counted.
pub fn pair_counts(cx: &JoinContext<'_>, cls: &Classification) -> (usize, usize, usize) {
    let (mut yes, mut likely, mut maybe) = (0usize, 0usize, 0usize);
    for u in 0..cls.left.len() as u32 {
        let cu = cls.left[u as usize];
        if cu == Category::NN {
            continue;
        }
        for &v in cx.right_partners(u) {
            match (cu, cls.right[v as usize]) {
                (Category::SS, Category::SS) => yes += 1,
                (Category::SS, Category::SN) | (Category::SN, Category::SS) => likely += 1,
                (Category::SN, Category::SN) => maybe += 1,
                _ => {}
            }
        }
    }
    (yes, likely, maybe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::validate_k;
    use ksjq_join::JoinSpec;
    use ksjq_relation::{Relation, Schema};

    fn rel(groups: &[u64], rows: &[Vec<f64>]) -> Relation {
        Relation::from_grouped_rows(Schema::uniform(rows[0].len()).unwrap(), groups, rows).unwrap()
    }

    /// Two groups; group 0 has a dominator pair, group 1 an isolated tuple
    /// dominated only across groups.
    #[test]
    fn three_way_classification() {
        let r1 = rel(
            &[0, 0, 1],
            &[
                vec![1.0, 1.0], // SS: dominates everything
                vec![2.0, 2.0], // NN: dominated by tuple 0 in its own group
                vec![3.0, 3.0], // SN: dominated by 0, but alone in group 1
            ],
        );
        let r2 = rel(&[0, 1], &[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let p = validate_k(&cx, 3).unwrap(); // k′1 = k − l2 = 1… wait d=2 each
        assert_eq!(p.k1_prime, 1);
        let cls = classify(&cx, &p, KdomAlgo::Naive);
        // k′ = 1: tuple 0 1-dominates 1 and 2; nothing dominates 0.
        assert_eq!(cls.left, vec![Category::SS, Category::NN, Category::SN]);
        assert_eq!(cls.tallies(0), (1, 1, 1));
    }

    #[test]
    fn cartesian_has_no_sn() {
        let mk = |rows: &[Vec<f64>]| {
            let mut b = Relation::builder(Schema::uniform(2).unwrap());
            for r in rows {
                b.add(r).unwrap();
            }
            b.build().unwrap()
        };
        let r1 = mk(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![0.5, 3.0]]);
        let r2 = mk(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Cartesian, &[]).unwrap();
        let p = validate_k(&cx, 3).unwrap();
        let cls = classify(&cx, &p, KdomAlgo::Tsa);
        assert!(!cls.left.contains(&Category::SN), "{:?}", cls.left);
        assert!(!cls.right.contains(&Category::SN));
    }

    #[test]
    fn all_kdom_algorithms_agree() {
        let mut state = 77u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let n = 80;
        let groups: Vec<u64> = (0..n).map(|_| next(5)).collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| next(12) as f64).collect())
            .collect();
        let r1 = rel(&groups, &rows);
        let groups2: Vec<u64> = (0..n).map(|_| next(5)).collect();
        let rows2: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| next(12) as f64).collect())
            .collect();
        let r2 = rel(&groups2, &rows2);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        for k in 4..=6 {
            let p = validate_k(&cx, k).unwrap();
            let a = classify(&cx, &p, KdomAlgo::Naive);
            let b = classify(&cx, &p, KdomAlgo::Osa);
            let c = classify(&cx, &p, KdomAlgo::Tsa);
            assert_eq!(a, b, "k={k}");
            assert_eq!(a, c, "k={k}");
        }
    }

    #[test]
    fn parallel_classification_matches_serial() {
        let mut state = 321u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let n = 97; // deliberately not a multiple of any worker count
        let mk = |next: &mut dyn FnMut(u64) -> u64| {
            let g: Vec<u64> = (0..n).map(|_| next(6)).collect();
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..4).map(|_| next(10) as f64).collect())
                .collect();
            rel(&g, &rows)
        };
        let r1 = mk(&mut next);
        let r2 = mk(&mut next);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        for k in 5..=8 {
            let p = validate_k(&cx, k).unwrap();
            let serial = classify(&cx, &p, KdomAlgo::Tsa);
            for threads in [2usize, 3, 7, 200] {
                let parallel = classify_parallel(&cx, &p, KdomAlgo::Tsa, threads);
                assert_eq!(serial, parallel, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn pair_counts_match_enumeration() {
        let r1 = rel(
            &[0, 0, 1],
            &[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]],
        );
        let r2 = rel(
            &[0, 1, 1],
            &[vec![1.0, 1.0], vec![2.0, 2.0], vec![0.0, 0.0]],
        );
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let p = validate_k(&cx, 3).unwrap();
        let cls = classify(&cx, &p, KdomAlgo::Naive);
        let (yes, likely, maybe) = pair_counts(&cx, &cls);
        // Exhaustive recount.
        let (mut ey, mut el, mut em) = (0, 0, 0);
        cx.for_each_pair(|u, v| match (cls.left[u as usize], cls.right[v as usize]) {
            (Category::SS, Category::SS) => ey += 1,
            (Category::SS, Category::SN) | (Category::SN, Category::SS) => el += 1,
            (Category::SN, Category::SN) => em += 1,
            _ => {}
        });
        assert_eq!((yes, likely, maybe), (ey, el, em));
    }
}
