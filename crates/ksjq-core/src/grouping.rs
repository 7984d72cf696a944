//! Algorithm 2: the grouping KSJQ algorithm.
//!
//! 1. Classify both base relations into SS/SN/NN (the "grouping time"
//!    component).
//! 2. Emit `SS1 ⋈ SS2` pairs immediately (Table 5's "yes"); prune every
//!    pair with an `NN` component without joining (Theorems 2/4). The
//!    remaining candidates are kept as leg-id pairs `(u′, v′)`; no joined
//!    row is built (the "join time" component).
//! 3. Verify the "likely" (`SS ⋈ SN` either way) and "may be"
//!    (`SN1 ⋈ SN2`) candidates against `τ(u′) ⋈ τ(v′)` with the two-sided
//!    leg kernel ([`crate::verify::verify_candidates`]). This is sound:
//!    a k-dominator `u ⋈ v` is `≤` the candidate on at least `k` joined
//!    positions, and the other leg plus the aggregates supply at most
//!    `l_other + a` of them, so `u` and `v` each pass their side's target
//!    filter. The filters count `≤`, so ties stay in; the verdict is the
//!    exact "`≤` on `k`, `<` on one" test on merged counts. The paper
//!    scans `τ ⋈ R` (or all of `R1 ⋈ R2` for "may be" pairs); filtering
//!    both legs removes only pairs that cannot dominate. Each distinct
//!    `τ(u′)` and `τ(v′)` is built once per execution.
//!
//! Deviation from the paper (documented in DESIGN.md §4.5): with two or
//! more aggregate slots Theorem 3 does not hold, so the "yes" fast path is
//! only taken when `a ≤ 1`; otherwise SS⋈SS pairs are verified like
//! "likely" pairs. The two-sided argument above never uses the legs'
//! classes, so it covers these pairs unchanged.

use crate::classify::{classify_within, Category, Classification};
use crate::config::Config;
use crate::error::{CoreError, CoreResult};
use crate::output::{finish, KsjqOutput};
use crate::params::validate_k;
use crate::stats::ExecStats;
use crate::verify::{verify_candidates, CheckCounters};
use ksjq_join::JoinContext;
use std::time::Instant;

/// The non-pruned pairs of one execution, by fate (the "join time"
/// component). Candidates are leg ids only — no joined row is built.
pub(crate) struct Candidates {
    /// Emitted without verification ("yes", sound only when `a ≤ 1`).
    pub emit: Vec<(u32, u32)>,
    /// Verified two-sidedly against `τ(u′) ⋈ τ(v′)`.
    pub verify: Vec<(u32, u32)>,
}

/// Collect the non-pruned pairs, recording fate classes.
///
/// `verify_yes` forces SS⋈SS pairs through verification instead of
/// emitting them (needed when `a ≥ 2`).
pub(crate) fn collect_candidates(
    cx: &JoinContext<'_>,
    cls: &Classification,
    verify_yes: bool,
    stats: &mut ExecStats,
) -> Candidates {
    let mut c = Candidates {
        emit: Vec::new(),
        verify: Vec::new(),
    };
    for u in 0..cls.left.len() as u32 {
        let cu = cls.left[u as usize];
        if cu == Category::NN {
            continue;
        }
        for &v in cx.right_partners(u) {
            let list = match (cu, cls.right[v as usize]) {
                (Category::SS, Category::SS) => {
                    stats.counts.yes_pairs += 1;
                    if verify_yes {
                        &mut c.verify
                    } else {
                        &mut c.emit
                    }
                }
                (Category::SS, Category::SN) | (Category::SN, Category::SS) => {
                    stats.counts.likely_pairs += 1;
                    &mut c.verify
                }
                (Category::SN, Category::SN) => {
                    stats.counts.maybe_pairs += 1;
                    &mut c.verify
                }
                _ => continue,
            };
            list.push((u, v));
        }
    }
    c
}

/// Fold a verifier's kernel counters into the execution stats.
pub(crate) fn absorb_counters(stats: &mut ExecStats, c: CheckCounters) {
    stats.counts.dom_tests += c.dom_tests;
    stats.counts.attr_cmps += c.attr_cmps;
    stats.counts.targets_pruned += c.targets_pruned;
}

pub(crate) fn record_tallies(cls: &Classification, stats: &mut ExecStats) {
    let (ss1, sn1, nn1) = cls.tallies(0);
    let (ss2, sn2, nn2) = cls.tallies(1);
    stats.counts.ss = [ss1, ss2];
    stats.counts.sn = [sn1, sn2];
    stats.counts.nn = [nn1, nn2];
}

pub(crate) fn require_strict_aggs(cx: &JoinContext<'_>) -> CoreResult<()> {
    if cx.a() > 0 && !cx.aggs_strictly_monotone() {
        return Err(CoreError::NonStrictAggregate);
    }
    Ok(())
}

/// Phases 1–2 of Algorithm 2, shared by the batch and progressive
/// drivers: classification ("grouping time", sharded over `cfg.threads`)
/// and candidate collection ("join time").
fn classify_and_collect(
    cx: &JoinContext<'_>,
    k: usize,
    cfg: &Config,
    stats: &mut ExecStats,
) -> CoreResult<Candidates> {
    let params = validate_k(cx, k)?;
    require_strict_aggs(cx)?;
    stats.counts.joined_pairs = cx.count_pairs();

    let t = Instant::now();
    let cls = classify_within(cx, &params, cfg.threads, cfg.deadline)?;
    record_tallies(&cls, stats);
    stats.phases.grouping = t.elapsed();

    let t = Instant::now();
    let cands = collect_candidates(cx, &cls, params.a >= 2, stats);
    stats.phases.join = t.elapsed();
    Ok(cands)
}

/// Run the grouping KSJQ algorithm (paper Algorithm 2), delivering each
/// skyline tuple to `sink` as soon as it is confirmed.
///
/// This is the progressiveness the paper's Sec. 6.1 motivates: "yes"
/// pairs (`SS1 ⋈ SS2`, when Theorem 3 applies) are delivered right after
/// classification — long before any verification work — and verified
/// pairs stream out as their checks complete (single-threaded, grouped by
/// right leg). The returned output is identical to [`ksjq_grouping`]'s
/// (sorted); the sink sees the same set in confirmation order.
pub fn ksjq_grouping_progressive(
    cx: &JoinContext<'_>,
    k: usize,
    cfg: &Config,
    mut sink: impl FnMut(u32, u32),
) -> CoreResult<KsjqOutput> {
    let mut stats = ExecStats::default();
    let Candidates { emit, verify } = classify_and_collect(cx, k, cfg, &mut stats)?;
    for &(u, v) in &emit {
        sink(u, v);
    }

    let t = Instant::now();
    let mut out = emit;
    let counters = verify_candidates(cx, k, &verify, 1, cfg.deadline, |u, v| {
        sink(u, v);
        out.push((u, v));
    })?;
    absorb_counters(&mut stats, counters);
    stats.phases.remaining = t.elapsed();
    Ok(finish(out, stats))
}

/// Run the grouping KSJQ algorithm (paper Algorithm 2).
pub fn ksjq_grouping(cx: &JoinContext<'_>, k: usize, cfg: &Config) -> CoreResult<KsjqOutput> {
    let mut stats = ExecStats::default();
    let Candidates { emit, verify } = classify_and_collect(cx, k, cfg, &mut stats)?;

    // Phase 3: two-sided verification ("remaining"); with cfg.threads > 1
    // the leg sweeps and checks shard over workers (the paper's
    // future-work extension, see crate::parallel).
    let t = Instant::now();
    let mut out = emit;
    let counters = verify_candidates(cx, k, &verify, cfg.threads, cfg.deadline, |u, v| {
        out.push((u, v))
    })?;
    absorb_counters(&mut stats, counters);
    stats.phases.remaining = t.elapsed();
    Ok(finish(out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::naive::ksjq_naive;
    use ksjq_join::{AggFunc, JoinSpec};
    use ksjq_relation::{Relation, Schema, TupleId};

    fn rel(groups: &[u64], rows: &[Vec<f64>]) -> Relation {
        Relation::from_grouped_rows(Schema::uniform(rows[0].len()).unwrap(), groups, rows).unwrap()
    }

    #[test]
    fn matches_naive_on_small_random() {
        let mut state = 4242u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let n = 70;
        let mk = |next: &mut dyn FnMut(u64) -> u64| {
            let g: Vec<u64> = (0..n).map(|_| next(4)).collect();
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..4).map(|_| next(8) as f64).collect())
                .collect();
            rel(&g, &rows)
        };
        let r1 = mk(&mut next);
        let r2 = mk(&mut next);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        for k in 5..=8 {
            let a = ksjq_naive(&cx, k, &cfg).unwrap();
            let b = ksjq_grouping(&cx, k, &cfg).unwrap();
            assert_eq!(a.pairs, b.pairs, "k={k}");
        }
    }

    #[test]
    fn stats_accounting() {
        // One dominator pair per side in group 0; a lone pair in group 1.
        let r1 = rel(
            &[0, 0, 1],
            &[vec![1.0, 1.0], vec![2.0, 2.0], vec![9.0, 9.0]],
        );
        let r2 = rel(&[0, 1], &[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let out = ksjq_grouping(&cx, 3, &Config::default()).unwrap();
        let c = out.stats.counts;
        assert_eq!(c.joined_pairs, 3);
        assert_eq!(c.ss[0] + c.sn[0] + c.nn[0], 3);
        assert_eq!(c.output, out.len());
        assert_eq!(
            c.yes_pairs as u64 + c.likely_pairs as u64 + c.maybe_pairs as u64 + c.pruned_pairs(),
            c.joined_pairs
        );
    }

    /// Regression for the dead counter: `targets_pruned` never incremented
    /// on the grouping path (the old leg-abandon condition was
    /// unsatisfiable by construction of the target set — every member
    /// passes the `k″` filter the abandon re-checked). It now counts the
    /// tuples each candidate's target filter excludes from the scan, so an
    /// anti-correlated workload must report a non-zero value.
    #[test]
    fn targets_pruned_is_nonzero_on_anti_correlated_workload() {
        use ksjq_datagen::{DataType, DatasetSpec};
        let spec = DatasetSpec {
            n: 200,
            agg_attrs: 2,
            local_attrs: 5,
            groups: 5,
            data_type: DataType::AntiCorrelated,
            seed: 11,
        };
        let r1 = spec.generate();
        let r2 = DatasetSpec { seed: 1011, ..spec }.generate();
        let cx =
            JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum, AggFunc::Sum]).unwrap();
        let out = ksjq_grouping(&cx, 11, &Config::default()).unwrap();
        let c = out.stats.counts;
        assert!(
            c.likely_pairs + c.maybe_pairs > 0,
            "workload must exercise verification: {c:?}"
        );
        assert!(c.targets_pruned > 0, "{c:?}");
        // And the parallel path reports the identical value.
        let threaded = ksjq_grouping(&cx, 11, &Config::with_threads(3)).unwrap();
        assert_eq!(threaded.stats.counts.targets_pruned, c.targets_pruned);
    }

    #[test]
    fn rejects_non_strict_aggregates() {
        let schema = || Schema::uniform_agg(1, 2).unwrap();
        let mut b1 = Relation::builder(schema());
        b1.add_grouped(0, &[1.0, 1.0, 1.0]).unwrap();
        let r1 = b1.build().unwrap();
        let mut b2 = Relation::builder(schema());
        b2.add_grouped(0, &[1.0, 1.0, 1.0]).unwrap();
        let r2 = b2.build().unwrap();
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Max]).unwrap();
        let e = ksjq_grouping(&cx, 4, &Config::default()).unwrap_err();
        assert_eq!(e, CoreError::NonStrictAggregate);
        // The naive algorithm accepts it.
        assert!(ksjq_naive(&cx, 4, &Config::default()).is_ok());
    }

    /// The concrete Theorem-3 counterexample for `a = 2` from DESIGN.md
    /// §4.5: all four base tuples are SS, yet `u ⋈ v ≻₄ u′ ⋈ v′`. The
    /// grouping algorithm must verify (not blindly emit) SS⋈SS here.
    #[test]
    fn theorem3_counterexample_with_two_aggregates() {
        let schema = || Schema::uniform_agg(2, 1).unwrap(); // g0, g1, s0
        let mk = |rows: &[[f64; 3]]| {
            let mut b = Relation::builder(schema());
            for r in rows {
                // Schema order: agg g0, agg g1, local s0 — rows given as
                // (local, agg1, agg2) in the DESIGN.md example.
                b.add_grouped(0, &[r[1], r[2], r[0]]).unwrap();
            }
            b.build().unwrap()
        };
        let r1 = mk(&[[5.0, 5.0, 5.0], [5.0, 4.0, 7.0]]); // u′, u
        let r2 = mk(&[[5.0, 5.0, 5.0], [5.0, 6.0, 2.0]]); // v′, v
        let cx =
            JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum, AggFunc::Sum]).unwrap();
        let k = 4;
        // Sanity: the classification really is all-SS.
        let p = validate_k(&cx, k).unwrap();
        let cls = classify(&cx, &p, ksjq_skyline::KdomAlgo::Naive);
        assert!(
            cls.left.iter().all(|c| *c == Category::SS),
            "{:?}",
            cls.left
        );
        assert!(
            cls.right.iter().all(|c| *c == Category::SS),
            "{:?}",
            cls.right
        );
        // And u ⋈ v really dominates u′ ⋈ v′.
        assert!(ksjq_relation::k_dominates(
            &cx.joined_row(1, 1),
            &cx.joined_row(0, 0),
            k
        ));
        // Both algorithms agree and exclude (u′, v′).
        let naive = ksjq_naive(&cx, k, &Config::default()).unwrap();
        let grouping = ksjq_grouping(&cx, k, &Config::default()).unwrap();
        assert_eq!(naive.pairs, grouping.pairs);
        assert!(!grouping.contains(0, 0));
        assert!(grouping.contains(1, 1));
    }

    #[test]
    fn cartesian_fast_path() {
        let mk = |rows: &[Vec<f64>]| {
            let mut b = Relation::builder(Schema::uniform(2).unwrap());
            for r in rows {
                b.add(r).unwrap();
            }
            b.build().unwrap()
        };
        let r1 = mk(&[vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 3.0]]);
        let r2 = mk(&[vec![1.0, 1.0], vec![5.0, 5.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Cartesian, &[]).unwrap();
        let cfg = Config::default();
        for k in 3..=4 {
            let a = ksjq_naive(&cx, k, &cfg).unwrap();
            let b = ksjq_grouping(&cx, k, &cfg).unwrap();
            assert_eq!(a.pairs, b.pairs, "k={k}");
            // Sec. 6.5: no SN tuples ⇒ no likely/maybe work at all.
            assert_eq!(b.stats.counts.likely_pairs, 0);
            assert_eq!(b.stats.counts.maybe_pairs, 0);
        }
    }

    #[test]
    fn progressive_delivers_yes_first_and_matches_batch() {
        let mut state = 314u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let n = 80;
        let mk = |next: &mut dyn FnMut(u64) -> u64| {
            let g: Vec<u64> = (0..n).map(|_| next(4)).collect();
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..4).map(|_| next(8) as f64).collect())
                .collect();
            rel(&g, &rows)
        };
        let r1 = mk(&mut next);
        let r2 = mk(&mut next);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        for k in 5..=7 {
            let batch = ksjq_grouping(&cx, k, &cfg).unwrap();
            let mut streamed = Vec::new();
            let prog =
                ksjq_grouping_progressive(&cx, k, &cfg, |u, v| streamed.push((u, v))).unwrap();
            assert_eq!(prog.pairs, batch.pairs, "k={k}");
            // Same set, delivered exactly once each.
            let mut sorted = streamed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), streamed.len(), "k={k}: duplicate delivery");
            let as_pairs: Vec<_> = sorted
                .iter()
                .map(|&(u, v)| (TupleId(u), TupleId(v)))
                .collect();
            assert_eq!(as_pairs, batch.pairs, "k={k}");
            // Every "yes" pair precedes every verified pair in the stream.
            let cls = classify(&cx, &validate_k(&cx, k).unwrap(), cfg.kdom);
            let is_yes = |&(u, v): &(u32, u32)| {
                cls.left[u as usize] == Category::SS && cls.right[v as usize] == Category::SS
            };
            let first_nonyes = streamed.iter().position(|p| !is_yes(p));
            if let Some(cut) = first_nonyes {
                assert!(
                    streamed[cut..].iter().all(|p| !is_yes(p)),
                    "k={k}: yes pair delivered after a verified pair"
                );
            }
        }
    }

    #[test]
    fn paper_table3_final_skyline() {
        use ksjq_datagen::paper_flights;
        let pf = paper_flights(false);
        let cx = JoinContext::new(&pf.outbound, &pf.inbound, JoinSpec::Equality, &[]).unwrap();
        let out = ksjq_grouping(&cx, 7, &Config::default()).unwrap();
        // Table 3: (11,23), (13,21), (15,25), (16,26) — ids are fno − 11 / − 21.
        let expected = vec![
            (TupleId(0), TupleId(2)),
            (TupleId(2), TupleId(0)),
            (TupleId(4), TupleId(4)),
            (TupleId(5), TupleId(5)),
        ];
        assert_eq!(out.pairs, expected);
    }
}
