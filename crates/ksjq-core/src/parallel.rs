//! Parallel candidate verification (the paper's future-work extension).
//!
//! The expensive phase of the grouping algorithm — verifying "likely" and
//! "may be" candidates with the two-sided leg kernel
//! ([`crate::verify::verify_candidates`]) — is embarrassingly parallel:
//! every candidate is checked independently against immutable relations.
//! The kernel's shared left-leg index is built with its sweeps sharded
//! over workers (`even_ranges`), and `verify_parallel` then hands
//! every worker whole right legs, so each `τ(v′)` is still built exactly
//! once. Worker [`CheckCounters`] are summed, so `ExecStats` reports the
//! same kernel work regardless of thread count, and the verdicts are
//! concatenated in candidate order.
//!
//! The classification phase shards too: [`classify`](mod@crate::classify) splits the
//! tuples of both sides over the same `even_ranges`/`run_ranges`
//! workers when `Config::threads > 1`. Candidate collection stays serial: it
//! is a small fraction of the runtime (see the figures' phase breakdown).

use crate::cancel::Checkpoint;
use crate::error::CoreResult;
use crate::verify::{CheckCounters, LegCheck, LegIndex};
use std::ops::Range;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Split `0..n` into at most `threads` contiguous, near-equal ranges.
pub(crate) fn even_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let chunk = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
    (0..n)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(n))
        .collect()
}

/// Run `work` on every range — on the calling thread when there is at
/// most one, otherwise one scoped worker per range — and return the
/// results in range order.
///
/// Workers share one cancellation flag for their
/// [`Checkpoint::tick_shared`] calls: the first to observe an expired
/// deadline cancels its siblings, and the call returns
/// [`CoreError::DeadlineExceeded`](crate::CoreError) after all workers
/// have unwound cleanly.
pub(crate) fn run_ranges<T: Send>(
    ranges: &[Range<usize>],
    work: impl Fn(Range<usize>, &AtomicBool) -> CoreResult<T> + Sync,
) -> CoreResult<Vec<T>> {
    let cancelled = AtomicBool::new(false);
    if ranges.len() <= 1 {
        return ranges.iter().map(|r| work(r.clone(), &cancelled)).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let (work, cancelled) = (&work, &cancelled);
                scope.spawn(move || work(r.clone(), cancelled))
            })
            .collect();
        // Join every worker before reporting, so none outlives the call.
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("verification worker panicked"))
            .collect();
        results.into_iter().collect()
    })
}

/// [`even_ranges`] over `pairs` (grouped by right leg) with every cut
/// moved forward to the next right-leg boundary, so no leg spans two
/// ranges. Empty ranges are dropped.
fn leg_ranges(pairs: &[(u32, u32)], threads: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0;
    for r in even_ranges(pairs.len(), threads) {
        let mut end = r.end.max(start);
        while end > 0 && end < pairs.len() && pairs[end].1 == pairs[end - 1].1 {
            end += 1;
        }
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

/// Verify `pairs` (leg indices, grouped by right leg) with `threads`
/// workers; returns one dominated bit per pair, in `pairs` order, plus
/// the summed kernel counters. Shard boundaries never split a right leg
/// ([`leg_ranges`]), so no `τ(v′)` is built twice.
pub(crate) fn verify_parallel(
    ix: &LegIndex<'_, '_>,
    pairs: &[(u32, u32)],
    threads: usize,
    deadline: Option<Instant>,
) -> CoreResult<(Vec<bool>, CheckCounters)> {
    let ranges = leg_ranges(pairs, threads);
    let parts = run_ranges(&ranges, |range, cancelled| {
        let mut chk = LegCheck::new(ix);
        let mut cp = Checkpoint::new(deadline);
        let mut bits = Vec::with_capacity(range.len());
        chk.check_all(
            &pairs[range],
            || cp.tick_shared(cancelled),
            |_, d| bits.push(d),
        )?;
        Ok((bits, chk.counters()))
    })?;
    let mut dominated = Vec::with_capacity(pairs.len());
    let mut counters = CheckCounters::default();
    for (bits, c) in parts {
        dominated.extend(bits);
        counters.absorb(c);
    }
    Ok((dominated, counters))
}

#[cfg(test)]
mod tests {
    use super::{even_ranges, leg_ranges};
    use crate::config::Config;
    use crate::grouping::ksjq_grouping;
    use ksjq_join::{JoinContext, JoinSpec};
    use ksjq_relation::{Relation, Schema};

    fn random_rel(seed: u64, n: usize) -> Relation {
        let mut state = seed;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut b = Relation::builder(Schema::uniform(4).unwrap());
        for _ in 0..n {
            let g = next(5);
            let row = [
                next(10) as f64,
                next(10) as f64,
                next(10) as f64,
                next(10) as f64,
            ];
            b.add_grouped(g, &row).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn even_ranges_tile_the_input() {
        assert_eq!(even_ranges(10, 3), vec![0..4, 4..8, 8..10]);
        assert_eq!(even_ranges(2, 8), vec![0..1, 1..2]);
        assert_eq!(even_ranges(5, 1), vec![0..5]);
        assert!(even_ranges(0, 4).is_empty());
    }

    #[test]
    fn leg_ranges_never_split_a_right_leg() {
        // Right legs 0 ×4, 1 ×1, 2 ×3, 3 ×2.
        let pairs: Vec<(u32, u32)> = [0, 0, 0, 0, 1, 2, 2, 2, 3, 3]
            .iter()
            .enumerate()
            .map(|(u, &v)| (u as u32, v))
            .collect();
        for threads in 1..=12 {
            let ranges = leg_ranges(&pairs, threads);
            assert!(ranges.len() <= threads, "threads={threads}");
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, pairs.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "threads={threads}");
                assert_ne!(pairs[w[1].start].1, pairs[w[1].start - 1].1);
            }
        }
        assert_eq!(leg_ranges(&pairs, 3), vec![0..4, 4..8, 8..10]);
        assert!(leg_ranges(&[], 3).is_empty());
    }

    #[test]
    fn parallel_matches_serial() {
        let r1 = random_rel(1, 150);
        let r2 = random_rel(2, 150);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        for k in 5..=8 {
            let serial = ksjq_grouping(&cx, k, &Config::default()).unwrap();
            for threads in [2usize, 3, 8] {
                let parallel = ksjq_grouping(&cx, k, &Config::with_threads(threads)).unwrap();
                assert_eq!(serial.pairs, parallel.pairs, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn expired_deadline_cancels_parallel_verification() {
        use crate::error::CoreError;
        use ksjq_datagen::{DataType, DatasetSpec};
        use ksjq_join::AggFunc;
        use std::time::{Duration, Instant};
        // Anti-correlated data guarantees verification work (see the
        // targets_pruned regression test in crate::grouping).
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
        let cfg = Config {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Config::with_threads(3)
        };
        assert_eq!(
            ksjq_grouping(&cx, 11, &cfg).unwrap_err(),
            CoreError::DeadlineExceeded
        );
        // The same config with a generous deadline answers normally.
        let cfg = Config {
            deadline: Some(Instant::now() + Duration::from_secs(60)),
            ..Config::with_threads(3)
        };
        let relaxed = ksjq_grouping(&cx, 11, &cfg).unwrap();
        let serial = ksjq_grouping(&cx, 11, &Config::default()).unwrap();
        assert_eq!(relaxed.pairs, serial.pairs);
    }

    #[test]
    fn more_threads_than_candidates() {
        let r1 = random_rel(3, 8);
        let r2 = random_rel(4, 8);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let serial = ksjq_grouping(&cx, 5, &Config::default()).unwrap();
        let parallel = ksjq_grouping(&cx, 5, &Config::with_threads(64)).unwrap();
        assert_eq!(serial.pairs, parallel.pairs);
    }
}
