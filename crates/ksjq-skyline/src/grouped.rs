//! Per-join-group k-dominant skylines.
//!
//! The KSJQ optimizations (paper Sec. 5.2) hinge on computing, for every
//! join group of a base relation, which tuples are k′-dominant *within the
//! group*. This module provides that primitive as a stand-alone baseline;
//! `ksjq-core`'s SS/SN/NN classification does not call it, but fuses the
//! per-group and global tests into one prefix-pruned scan per tuple.

use crate::{k_dominant_skyline, KdomAlgo, MatrixView};
use ksjq_relation::Relation;

/// For every equality-join group of `rel` (ascending group-id order),
/// compute the k-dominant skyline of the group's members.
///
/// Returns `(group_id, surviving tuple ids)` pairs. Tuples in a group
/// compete only against tuples of the same group. The relation's rows are
/// gathered once into scratch for the row-at-a-time scans.
///
/// # Panics
///
/// Panics when `rel` has no group keys (use the theta-join machinery in
/// `ksjq-core` for numeric keys, or treat the whole relation as one group
/// for Cartesian products).
pub fn per_group_k_dominant(rel: &Relation, k: usize, algo: KdomAlgo) -> Vec<(u64, Vec<u32>)> {
    let gi = rel
        .group_index()
        .expect("per_group_k_dominant requires equality-join group keys");
    let rows = rel.gather_rows();
    let view = MatrixView::new(rel.d(), &rows);
    gi.iter()
        .map(|(gid, members)| (gid, k_dominant_skyline(&view, members, k, algo)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksjq_relation::{Relation, Schema};

    fn rel(groups: &[u64], rows: &[Vec<f64>]) -> Relation {
        Relation::from_grouped_rows(Schema::uniform(rows[0].len()).unwrap(), groups, rows).unwrap()
    }

    #[test]
    fn groups_are_independent() {
        // Group 1 contains a dominator; group 2's tuple is worse than
        // everything in group 1 but survives because groups are separate.
        let r = rel(
            &[1, 1, 2],
            &[vec![1.0, 1.0], vec![2.0, 2.0], vec![9.0, 9.0]],
        );
        let out = per_group_k_dominant(&r, 2, KdomAlgo::Naive);
        assert_eq!(out, vec![(1, vec![0]), (2, vec![2])]);
    }

    #[test]
    fn k_controls_pruning_within_group() {
        let r = rel(&[1, 1], &[vec![1.0, 5.0], vec![5.0, 1.0]]);
        // Full dominance: incomparable.
        let full = per_group_k_dominant(&r, 2, KdomAlgo::Tsa);
        assert_eq!(full, vec![(1, vec![0, 1])]);
        // 1-dominance: mutual annihilation.
        let one = per_group_k_dominant(&r, 1, KdomAlgo::Tsa);
        assert_eq!(one, vec![(1, vec![])]);
    }

    #[test]
    fn all_algorithms_agree_per_group() {
        let groups: Vec<u64> = (0..60).map(|i| (i % 4) as u64).collect();
        let mut state = 5u64;
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) % 10) as f64
                    })
                    .collect()
            })
            .collect();
        let r = rel(&groups, &rows);
        for k in 1..=3 {
            let a = per_group_k_dominant(&r, k, KdomAlgo::Naive);
            let b = per_group_k_dominant(&r, k, KdomAlgo::Osa);
            let c = per_group_k_dominant(&r, k, KdomAlgo::Tsa);
            assert_eq!(a, b, "k={k}");
            assert_eq!(a, c, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "group keys")]
    fn panics_without_groups() {
        let mut b = Relation::builder(Schema::uniform(1).unwrap());
        b.add(&[1.0]).unwrap();
        let r = b.build().unwrap();
        per_group_k_dominant(&r, 1, KdomAlgo::Naive);
    }
}
