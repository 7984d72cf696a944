//! Incremental maintenance of k-dominant skyline join results under
//! appends.
//!
//! Given a cached [`KsjqOutput`] computed at epoch `E` and a
//! [`JoinContext`] over the epoch-`E+1` relations — where the delta is an
//! **append**: the first `old_left_n` / `old_right_n` rows of each side
//! are bit-identical to epoch `E` and the remainder is new —
//! [`maintain_append`] produces the epoch-`E+1` result without a full
//! recompute. The output is byte-identical to re-running any of the KSJQ
//! algorithms from scratch (the property suite enforces this), because
//! the epoch-`E` result pins down everything about the old pairs:
//!
//! * An old pair absent from the cache was k-dominated at `E`; its
//!   dominator's values are unchanged, so it stays dominated — never a
//!   candidate.
//! * An old pair in the cache had no dominator at `E`; at `E+1` it can
//!   only be k-dominated by a joined tuple with at least one **new**
//!   leg. In an equality join every such tuple's left leg is a
//!   *dominator leg*: a new left row, or an old left row whose group
//!   gained a new right row.
//! * A new pair (at least one new leg) is an ordinary candidate: it
//!   survives iff no joined tuple k-dominates it.
//!
//! Both checks run on the leg kernel of [`crate::verify`], the one that
//! verifies grouping's candidates and the distributed `CHECK`. New pairs
//! are its candidates as they are: all new pairs of a new left row share
//! that row as their left leg, so its `τ(u′)` is built once, and a right
//! leg with only a few candidates is checked against its targets'
//! partners directly, without a sweep of the right relation. Cached
//! pairs go through the same loop with `τ(u′)` restricted to the
//! dominator legs, built once per distinct cached left leg; a cached pair
//! whose restricted `τ(u′)` is empty is kept unread. The cost of that
//! recheck follows the dominator legs and their partners: for a
//! left-side append they are the delta rows, but a right-side append
//! makes every old left row of an affected group a dominator leg, and
//! their partners include the group's old right rows.
//!
//! Deletes are *not* maintained incrementally: removing a row shifts the
//! ids of every later row and can resurrect previously dominated pairs,
//! so the caller recomputes (see the server's maintenance-vs-recompute
//! decision, documented in the README's "Live catalogs" section).

use crate::error::{CoreError, CoreResult};
use crate::output::{finish, KsjqOutput};
use crate::params::validate_k;
use crate::stats::ExecStats;
use crate::verify::{check_pairs, CheckCounters};
use ksjq_join::{JoinContext, JoinSpec};
use ksjq_relation::TupleId;
use std::collections::HashSet;
use std::time::Instant;

/// Work accounting of one [`maintain_append`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// New-leg join pairs verified as skyline candidates.
    pub candidates_checked: usize,
    /// Cached pairs re-verified against new-leg dominators (cached pairs
    /// whose target set restricted to the dominator legs was empty are
    /// kept without a check).
    pub cached_rechecked: usize,
    /// Cached pairs evicted because a new-leg joined tuple k-dominates
    /// them.
    pub cached_evicted: usize,
    /// New-leg pairs admitted into the result.
    pub inserted: usize,
    /// Verification-kernel work counters.
    pub counters: CheckCounters,
}

/// Can results over this join be maintained incrementally? Only equality
/// joins: the affected-group argument above needs "a new row only joins
/// within its own group".
pub fn can_maintain(cx: &JoinContext<'_>) -> bool {
    matches!(cx.spec(), JoinSpec::Equality)
}

/// Maintain `cached` (the epoch-`E` result for `(cx', k)`) into the
/// epoch-`E+1` result for `(cx, k)`, where `cx` is over the appended
/// relations and the first `old_left_n` / `old_right_n` rows of each side
/// are unchanged from epoch `E`.
///
/// Returns the new output — byte-identical (same sorted pair sequence) to
/// a from-scratch recompute — plus maintenance work stats. Errors on
/// non-equality joins, invalid `k`, or old row counts exceeding the
/// current relations.
pub fn maintain_append(
    cx: &JoinContext<'_>,
    k: usize,
    cached: &KsjqOutput,
    old_left_n: usize,
    old_right_n: usize,
) -> CoreResult<(KsjqOutput, MaintainStats)> {
    if !can_maintain(cx) {
        return Err(CoreError::Relation(ksjq_relation::Error::Invalid(
            "incremental maintenance requires an equality join".into(),
        )));
    }
    let params = validate_k(cx, k)?;
    let (left, right) = (cx.left(), cx.right());
    if old_left_n > left.n() || old_right_n > right.n() {
        return Err(CoreError::Relation(ksjq_relation::Error::Invalid(format!(
            "old row counts ({old_left_n}, {old_right_n}) exceed current ({}, {})",
            left.n(),
            right.n()
        ))));
    }
    let started = Instant::now();
    let mut stats = MaintainStats::default();

    // New-leg candidate pairs: every join partner of a new row. Pairs
    // where both legs are new appear once (the right-side sweep skips
    // them).
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    for u in old_left_n as u32..left.n() as u32 {
        for &v in cx.right_partners(u) {
            candidates.push((u, v));
        }
    }
    for v in old_right_n as u32..right.n() as u32 {
        for &u in cx.left_partners(v) {
            if (u as usize) < old_left_n {
                candidates.push((u, v));
            }
        }
    }

    // Left legs that can head a *new* joined tuple: every new left row,
    // plus every old left row whose group gained a new right row (its
    // pairs with old right rows all existed at epoch `E`, so the cached
    // result already survived them).
    let mut right_affected: HashSet<u64> = HashSet::new();
    for v in old_right_n..right.n() {
        if let Some(g) = right.group_id(TupleId(v as u32)) {
            right_affected.insert(g);
        }
    }
    let mut dominator_legs: Vec<u32> = (old_left_n as u32..left.n() as u32).collect();
    if !right_affected.is_empty() {
        for t in 0..old_left_n as u32 {
            if left
                .group_id(TupleId(t))
                .is_some_and(|g| right_affected.contains(&g))
            {
                dominator_legs.push(t);
            }
        }
    }

    // New-leg candidates, checked against the whole joined relation.
    let mut inserted = Vec::new();
    let (mut counters, _) = check_pairs(
        cx,
        &params,
        &candidates,
        None,
        1,
        None,
        |u, v, dominated| {
            if !dominated {
                inserted.push((u, v));
            }
        },
    )?;
    stats.candidates_checked = candidates.len();
    stats.inserted = inserted.len();

    // Cached pairs, rechecked against new-leg dominators only; the
    // survivors keep their cached (ascending) order.
    let mut kept: Vec<(u32, u32)> = cached.pairs.iter().map(|&(u, v)| (u.0, v.0)).collect();
    if !dominator_legs.is_empty() {
        let mut evicted = Vec::new();
        let (recheck, targeted) = check_pairs(
            cx,
            &params,
            &kept,
            Some(&dominator_legs),
            1,
            None,
            |u, v, dominated| {
                if dominated {
                    evicted.push((u, v));
                }
            },
        )?;
        counters.absorb(recheck);
        stats.cached_rechecked = targeted;
        stats.cached_evicted = evicted.len();
        if !evicted.is_empty() {
            evicted.sort_unstable();
            kept.retain(|p| evicted.binary_search(p).is_err());
        }
    }
    // One merge of two ascending runs, so `finish` gets sorted input.
    inserted.sort_unstable();
    let mut pairs = Vec::with_capacity(kept.len() + inserted.len());
    let mut new = inserted.into_iter().peekable();
    for p in kept {
        while let Some(q) = new.next_if(|q| *q < p) {
            pairs.push(q);
        }
        pairs.push(p);
    }
    pairs.extend(new);

    stats.counters = counters;
    let mut exec = ExecStats::default();
    exec.counts.dom_tests = stats.counters.dom_tests;
    exec.counts.attr_cmps = stats.counters.attr_cmps;
    exec.counts.targets_pruned = stats.counters.targets_pruned;
    exec.counts.joined_pairs = cx.count_pairs();
    exec.phases.remaining = started.elapsed();
    Ok((finish(pairs, exec), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::grouping::ksjq_grouping;
    use ksjq_join::{AggFunc, JoinSpec};
    use ksjq_relation::{Relation, Schema};

    fn lcg(state: &mut u64, m: u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) % m
    }

    fn grown(seed: u64, n: usize, groups: u64, d: usize) -> (Vec<u64>, Vec<Vec<f64>>) {
        let mut state = seed;
        let keys = (0..n).map(|_| lcg(&mut state, groups)).collect();
        let rows = (0..n)
            .map(|_| (0..d).map(|_| lcg(&mut state, 9) as f64).collect())
            .collect();
        (keys, rows)
    }

    /// Maintained output must equal full recompute pairs for random data
    /// across delta sizes, with and without aggregates.
    #[test]
    fn maintained_equals_recompute() {
        for (a, funcs) in [(0usize, vec![]), (1, vec![AggFunc::Sum])] {
            let d = 3;
            let schema = Schema::uniform_agg(a, d - a).unwrap();
            let (lk, lr) = grown(7 + a as u64, 60, 4, d);
            let (rk, rr) = grown(99 + a as u64, 60, 4, d);
            for delta in [1usize, 5, 20] {
                let old_n = 60 - delta;
                let old_left =
                    Relation::from_grouped_rows(schema.clone(), &lk[..old_n], &lr[..old_n])
                        .unwrap();
                let right = Relation::from_grouped_rows(schema.clone(), &rk, &rr).unwrap();
                let new_left = Relation::from_grouped_rows(schema.clone(), &lk, &lr).unwrap();
                let old_cx =
                    JoinContext::new(&old_left, &right, JoinSpec::Equality, &funcs).unwrap();
                let new_cx =
                    JoinContext::new(&new_left, &right, JoinSpec::Equality, &funcs).unwrap();
                let k = new_cx.d_joined() - 1;
                let cfg = Config::default();
                let cached = ksjq_grouping(&old_cx, k, &cfg).unwrap();
                let (maintained, mstats) =
                    maintain_append(&new_cx, k, &cached, old_n, right.n()).unwrap();
                let fresh = ksjq_grouping(&new_cx, k, &cfg).unwrap();
                assert_eq!(maintained.pairs, fresh.pairs, "a={a} delta={delta}");
                assert!(mstats.candidates_checked > 0, "a={a} delta={delta}");
            }
        }
    }

    /// Appends on both sides at once (the self-join-ish worst case for
    /// the candidate sweep) must also match recompute.
    #[test]
    fn double_sided_append_matches_recompute() {
        let d = 3;
        let schema = Schema::uniform(d).unwrap();
        let (lk, lr) = grown(1, 50, 3, d);
        let (rk, rr) = grown(2, 50, 3, d);
        let (oln, orn) = (44, 47);
        let old_left = Relation::from_grouped_rows(schema.clone(), &lk[..oln], &lr[..oln]).unwrap();
        let old_right =
            Relation::from_grouped_rows(schema.clone(), &rk[..orn], &rr[..orn]).unwrap();
        let new_left = Relation::from_grouped_rows(schema.clone(), &lk, &lr).unwrap();
        let new_right = Relation::from_grouped_rows(schema.clone(), &rk, &rr).unwrap();
        let old_cx = JoinContext::new(&old_left, &old_right, JoinSpec::Equality, &[]).unwrap();
        let new_cx = JoinContext::new(&new_left, &new_right, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        for k in (new_cx.d1().max(new_cx.d2()) + 1)..=new_cx.d_joined() {
            let cached = ksjq_grouping(&old_cx, k, &cfg).unwrap();
            let (maintained, _) = maintain_append(&new_cx, k, &cached, oln, orn).unwrap();
            let fresh = ksjq_grouping(&new_cx, k, &cfg).unwrap();
            assert_eq!(maintained.pairs, fresh.pairs, "k={k}");
        }
    }

    /// An empty delta returns exactly the cached pairs and does no
    /// candidate work.
    #[test]
    fn empty_delta_is_a_noop() {
        let d = 3;
        let schema = Schema::uniform(d).unwrap();
        let (lk, lr) = grown(5, 30, 3, d);
        let (rk, rr) = grown(6, 30, 3, d);
        let left = Relation::from_grouped_rows(schema.clone(), &lk, &lr).unwrap();
        let right = Relation::from_grouped_rows(schema, &rk, &rr).unwrap();
        let cx = JoinContext::new(&left, &right, JoinSpec::Equality, &[]).unwrap();
        let k = cx.d_joined();
        let cached = ksjq_grouping(&cx, k, &Config::default()).unwrap();
        let (maintained, stats) = maintain_append(&cx, k, &cached, 30, 30).unwrap();
        assert_eq!(maintained.pairs, cached.pairs);
        assert_eq!(stats.candidates_checked, 0);
        assert_eq!(stats.cached_rechecked, 0);
        assert_eq!(stats.cached_evicted, 0);
    }

    /// Guard rails: non-equality joins and bad old counts are rejected.
    #[test]
    fn rejects_theta_join_and_bad_counts() {
        let schema = Schema::uniform(2).unwrap();
        let mut b = Relation::builder(schema.clone());
        b.add_keyed(1.0, &[1.0, 2.0]).unwrap();
        let r1 = b.build().unwrap();
        let mut b = Relation::builder(schema.clone());
        b.add_keyed(2.0, &[3.0, 4.0]).unwrap();
        let r2 = b.build().unwrap();
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Theta(ksjq_join::ThetaOp::Lt), &[]).unwrap();
        assert!(!can_maintain(&cx));
        let cached = KsjqOutput {
            pairs: vec![],
            stats: ExecStats::default(),
        };
        assert!(maintain_append(&cx, 3, &cached, 1, 1).is_err());

        let (lk, lr) = grown(8, 10, 2, 2);
        let left = Relation::from_grouped_rows(schema.clone(), &lk, &lr).unwrap();
        let right = Relation::from_grouped_rows(schema, &lk, &lr).unwrap();
        let eq = JoinContext::new(&left, &right, JoinSpec::Equality, &[]).unwrap();
        assert!(can_maintain(&eq));
        assert!(maintain_append(&eq, 3, &cached, 11, 10).is_err());
    }
}
