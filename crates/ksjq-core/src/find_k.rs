//! Problems 3 and 4: choosing `k` from a desired skyline cardinality δ
//! (paper Algorithms 4, 5 and 6).
//!
//! All strategies rely on Lemma 1: the k-dominant skyline grows
//! monotonically with `k`, so "|skyline(k)| ≥ δ" is an upward-closed
//! predicate over `k` and the smallest satisfying `k` is well defined.
//!
//! The range-based and binary-search strategies avoid full skyline
//! computations with the classification bounds
//!
//! * `Δ_lb = |SS1 ⋈ SS2|` — every "yes" pair is a skyline tuple
//!   (Theorem 3; only sound for `a ≤ 1`, see DESIGN.md §4.5, so for
//!   `a ≥ 2` the lower bound degrades to 0);
//! * `Δ_ub = |yes| + |likely| + |may be|` — every skyline tuple survives
//!   NN-pruning (Theorem 4, always sound).

use crate::cancel::check_deadline;
use crate::classify::{classify_within, pair_counts};
use crate::config::Config;
use crate::error::{CoreError, CoreResult};
use crate::grouping::ksjq_grouping;
use crate::params::{k_max, k_min, validate_k};
use crate::stats::PhaseTimes;
use ksjq_join::JoinContext;
use std::time::Instant;

/// Which find-k algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FindKStrategy {
    /// Algorithm 4: increment `k`, computing the full skyline each time.
    Naive,
    /// Algorithm 5: increment `k`, using the Δ bounds to skip full
    /// computations where possible.
    Range,
    /// Algorithm 6: binary search over `k` with the Δ bounds. The paper's
    /// recommendation and the default.
    #[default]
    Binary,
}

impl std::fmt::Display for FindKStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FindKStrategy::Naive => write!(f, "naive"),
            FindKStrategy::Range => write!(f, "range"),
            FindKStrategy::Binary => write!(f, "binary"),
        }
    }
}

impl std::str::FromStr for FindKStrategy {
    type Err = String;

    /// Parse a strategy name. Round-trips with [`Display`](std::fmt::Display)
    /// (`"naive"`, `"range"`, `"binary"`); also accepts the paper's
    /// one-letter labels N/R/B.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" | "n" => Ok(FindKStrategy::Naive),
            "range" | "r" => Ok(FindKStrategy::Range),
            "binary" | "b" => Ok(FindKStrategy::Binary),
            _ => Err(format!(
                "unknown find-k strategy {s:?} (expected naive, range or binary)"
            )),
        }
    }
}

/// Outcome of a find-k run.
#[derive(Debug, Clone, PartialEq)]
pub struct FindKReport {
    /// The chosen `k`.
    pub k: usize,
    /// Whether the δ condition is actually met at `k` (`false` only in the
    /// paper's fallback case where even the extreme `k` misses δ).
    pub satisfied: bool,
    /// `|skyline(k)|` when the run computed it (the bound-only fast paths
    /// may decide without ever materialising a skyline).
    pub skyline_size: Option<usize>,
    /// Number of full skyline computations performed.
    pub full_computations: usize,
    /// Number of classification/bound evaluations performed.
    pub bound_computations: usize,
    /// Aggregate phase times across all evaluations (grouping/join/
    /// remaining, matching the paper's find-k figures).
    pub phases: PhaseTimes,
}

struct Prober<'b, 'a> {
    cx: &'b JoinContext<'a>,
    cfg: &'b Config,
    delta: usize,
    report_phases: PhaseTimes,
    full: usize,
    bounds: usize,
}

enum Probe {
    /// `|skyline(k)| ≥ δ`, with the size if it was fully computed.
    AtLeast(Option<usize>),
    /// `|skyline(k)| < δ`.
    Below,
}

impl Prober<'_, '_> {
    fn full_size(&mut self, k: usize) -> CoreResult<usize> {
        let out = ksjq_grouping(self.cx, k, self.cfg)?;
        self.full += 1;
        self.report_phases.grouping += out.stats.phases.grouping;
        self.report_phases.join += out.stats.phases.join;
        self.report_phases.remaining += out.stats.phases.remaining;
        Ok(out.len())
    }

    /// Decide "≥ δ?" using bounds first, falling back to a full run.
    fn probe(&mut self, k: usize) -> CoreResult<Probe> {
        check_deadline(self.cfg.deadline)?;
        let params = validate_k(self.cx, k).expect("k in range");
        let t = Instant::now();
        let cls = classify_within(self.cx, &params, self.cfg.threads, self.cfg.deadline)?;
        let (yes, likely, maybe) = pair_counts(self.cx, &cls);
        self.report_phases.grouping += t.elapsed();
        self.bounds += 1;

        // Δ_lb is only a valid lower bound when Theorem 3 holds (a ≤ 1).
        let lb = if params.a <= 1 { yes } else { 0 };
        let ub = yes + likely + maybe;
        if lb >= self.delta {
            return Ok(Probe::AtLeast(None));
        }
        if ub < self.delta {
            return Ok(Probe::Below);
        }
        let size = self.full_size(k)?;
        Ok(if size >= self.delta {
            Probe::AtLeast(Some(size))
        } else {
            Probe::Below
        })
    }

    /// Decide with a full computation only (Algorithm 4).
    fn probe_full(&mut self, k: usize) -> CoreResult<Probe> {
        check_deadline(self.cfg.deadline)?;
        let size = self.full_size(k)?;
        Ok(if size >= self.delta {
            Probe::AtLeast(Some(size))
        } else {
            Probe::Below
        })
    }
}

/// Problem 3: the smallest `k` whose k-dominant skyline join has at least
/// `delta` tuples; returns the largest admissible `k` (unsatisfied) when
/// no `k` reaches δ, mirroring Algorithm 4's fallback.
pub fn find_k_at_least(
    cx: &JoinContext<'_>,
    delta: usize,
    strategy: FindKStrategy,
    cfg: &Config,
) -> CoreResult<FindKReport> {
    if delta == 0 {
        return Err(CoreError::InvalidDelta);
    }
    let (lo, hi) = (k_min(cx), k_max(cx));
    if lo > hi {
        return Err(CoreError::EmptyKRange { min: lo, max: hi });
    }
    let mut p = Prober {
        cx,
        cfg,
        delta,
        report_phases: PhaseTimes::default(),
        full: 0,
        bounds: 0,
    };

    let (k, satisfied, size) = match strategy {
        FindKStrategy::Naive => linear_scan(&mut p, lo, hi, true)?,
        FindKStrategy::Range => linear_scan(&mut p, lo, hi, false)?,
        FindKStrategy::Binary => binary_scan(&mut p, lo, hi)?,
    };

    Ok(FindKReport {
        k,
        satisfied,
        skyline_size: size,
        full_computations: p.full,
        bound_computations: p.bounds,
        phases: p.report_phases,
    })
}

fn linear_scan(
    p: &mut Prober<'_, '_>,
    lo: usize,
    hi: usize,
    full_only: bool,
) -> CoreResult<(usize, bool, Option<usize>)> {
    for k in lo..=hi {
        let probe = if full_only {
            p.probe_full(k)?
        } else {
            p.probe(k)?
        };
        if let Probe::AtLeast(size) = probe {
            return Ok((k, true, size));
        }
    }
    Ok((hi, false, None))
}

fn binary_scan(
    p: &mut Prober<'_, '_>,
    lo: usize,
    hi: usize,
) -> CoreResult<(usize, bool, Option<usize>)> {
    let (mut lo, mut hi) = (lo, hi);
    let mut best: Option<(usize, Option<usize>)> = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        match p.probe(mid)? {
            Probe::AtLeast(size) => {
                best = Some((mid, size));
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
            Probe::Below => lo = mid + 1,
        }
    }
    Ok(match best {
        Some((k, size)) => (k, true, size),
        None => (k_max_of(p), false, None),
    })
}

fn k_max_of(p: &Prober<'_, '_>) -> usize {
    k_max(p.cx)
}

/// Problem 4: the largest `k` whose skyline has **at most** `delta`
/// tuples. Derived from Problem 3 per the paper's discussion:
/// if `k*` is the Problem-3 answer, the Problem-4 answer is `k* − 1`,
/// except when `|skyline(k*)| = δ` exactly (then `k*`), when `k*` is the
/// minimum admissible `k` (then `k*`, trivially), or when no `k` reaches
/// δ (then the maximum `k` qualifies).
pub fn find_k_at_most(
    cx: &JoinContext<'_>,
    delta: usize,
    strategy: FindKStrategy,
    cfg: &Config,
) -> CoreResult<FindKReport> {
    let mut report = find_k_at_least(cx, delta, strategy, cfg)?;
    let lo = k_min(cx);
    if !report.satisfied {
        // Every k has |skyline| < δ ⇒ the largest k qualifies for "at most".
        report.k = k_max(cx);
        report.satisfied = true;
        report.skyline_size = None;
        return Ok(report);
    }
    // |skyline(k*)| may equal δ exactly; compute it if unknown.
    let size = match report.skyline_size {
        Some(s) => s,
        None => {
            let out = ksjq_grouping(cx, report.k, cfg)?;
            report.full_computations += 1;
            out.len()
        }
    };
    if size == delta {
        report.skyline_size = Some(size);
        return Ok(report);
    }
    // size > δ at k*: step down if possible.
    if report.k > lo {
        report.k -= 1;
        report.skyline_size = None;
    } else {
        // Corner case: even the minimum k overshoots δ; the paper returns
        // the minimum (no k truly satisfies "at most δ").
        report.satisfied = false;
        report.skyline_size = Some(size);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksjq_join::JoinSpec;
    use ksjq_relation::{Relation, Schema};

    fn random_cx(seed: u64, n: usize, d: usize, g: u64) -> (Relation, Relation) {
        let mut state = seed;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mk = |next: &mut dyn FnMut(u64) -> u64| {
            let groups: Vec<u64> = (0..n).map(|_| next(g)).collect();
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| next(50) as f64).collect())
                .collect();
            Relation::from_grouped_rows(Schema::uniform(d).unwrap(), &groups, &rows).unwrap()
        };
        (mk(&mut next), mk(&mut next))
    }

    #[test]
    fn strategies_agree() {
        let (r1, r2) = random_cx(5, 80, 4, 4);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        for delta in [1usize, 5, 20, 100, 100_000] {
            let a = find_k_at_least(&cx, delta, FindKStrategy::Naive, &cfg).unwrap();
            let b = find_k_at_least(&cx, delta, FindKStrategy::Range, &cfg).unwrap();
            let c = find_k_at_least(&cx, delta, FindKStrategy::Binary, &cfg).unwrap();
            assert_eq!(a.k, b.k, "delta={delta}");
            assert_eq!(a.k, c.k, "delta={delta}");
            assert_eq!(a.satisfied, c.satisfied, "delta={delta}");
        }
    }

    #[test]
    fn found_k_is_minimal() {
        let (r1, r2) = random_cx(11, 60, 4, 3);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        let delta = 10;
        let rep = find_k_at_least(&cx, delta, FindKStrategy::Binary, &cfg).unwrap();
        if rep.satisfied {
            let at_k = ksjq_grouping(&cx, rep.k, &cfg).unwrap().len();
            assert!(at_k >= delta, "k={} size={at_k}", rep.k);
            if rep.k > k_min(&cx) {
                let below = ksjq_grouping(&cx, rep.k - 1, &cfg).unwrap().len();
                assert!(below < delta, "k−1={} size={below}", rep.k - 1);
            }
        }
    }

    #[test]
    fn unsatisfiable_delta_returns_max_k() {
        let (r1, r2) = random_cx(3, 30, 4, 3);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        let rep = find_k_at_least(&cx, 1_000_000, FindKStrategy::Binary, &cfg).unwrap();
        assert_eq!(rep.k, k_max(&cx));
        assert!(!rep.satisfied);
    }

    #[test]
    fn at_most_relates_to_at_least() {
        let (r1, r2) = random_cx(21, 70, 4, 4);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        for delta in [1usize, 8, 50] {
            let most = find_k_at_most(&cx, delta, FindKStrategy::Binary, &cfg).unwrap();
            if most.satisfied {
                let size = ksjq_grouping(&cx, most.k, &cfg).unwrap().len();
                assert!(size <= delta, "delta={delta} k={} size={size}", most.k);
                if most.k < k_max(&cx) {
                    let above = ksjq_grouping(&cx, most.k + 1, &cfg).unwrap().len();
                    assert!(
                        above > delta,
                        "delta={delta} k+1={} size={above}",
                        most.k + 1
                    );
                }
            }
        }
    }

    #[test]
    fn zero_delta_rejected() {
        let (r1, r2) = random_cx(1, 10, 3, 2);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        assert_eq!(
            find_k_at_least(&cx, 0, FindKStrategy::Naive, &Config::default()).unwrap_err(),
            CoreError::InvalidDelta
        );
    }

    #[test]
    fn expired_deadline_cancels_every_strategy() {
        use std::time::{Duration, Instant};
        let (r1, r2) = random_cx(5, 40, 4, 3);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Config::default()
        };
        for strategy in [
            FindKStrategy::Naive,
            FindKStrategy::Range,
            FindKStrategy::Binary,
        ] {
            assert_eq!(
                find_k_at_least(&cx, 3, strategy, &cfg).unwrap_err(),
                CoreError::DeadlineExceeded,
                "{strategy}"
            );
        }
    }

    #[test]
    fn binary_uses_fewer_full_computations() {
        let (r1, r2) = random_cx(31, 100, 5, 4);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let cfg = Config::default();
        let naive = find_k_at_least(&cx, 50, FindKStrategy::Naive, &cfg).unwrap();
        let binary = find_k_at_least(&cx, 50, FindKStrategy::Binary, &cfg).unwrap();
        assert!(
            binary.full_computations <= naive.full_computations,
            "binary {} vs naive {}",
            binary.full_computations,
            naive.full_computations
        );
    }
}
