//! Execution statistics: the per-phase timing breakdown of the paper's
//! figures plus cardinality counters.

use std::time::Duration;

/// Per-phase wall-clock times, mirroring the stacked components of the
/// paper's figures (Sec. 7: "grouping time", "join time", "dominator
/// generation", "remaining").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Computing the SS/SN/NN classification of both base relations.
    /// Zero for the naïve algorithm (it never classifies).
    pub grouping: Duration,
    /// Producing joined tuples: materialising the join (naïve) or
    /// collecting the candidate pairs (optimized algorithms).
    pub join: Duration,
    /// Building explicit dominator/target sets (dominator-based algorithm
    /// only).
    pub dominator_gen: Duration,
    /// Everything else — chiefly the dominance verification passes.
    pub remaining: Duration,
}

impl PhaseTimes {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.grouping + self.join + self.dominator_gen + self.remaining
    }
}

/// Cardinality counters accumulated during one KSJQ execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Tuples classified `SS` in the left / right relation.
    pub ss: [usize; 2],
    /// Tuples classified `SN` in the left / right relation.
    pub sn: [usize; 2],
    /// Tuples classified `NN` in the left / right relation.
    pub nn: [usize; 2],
    /// Join-compatible pairs in the "yes" set (`SS1 ⋈ SS2`).
    pub yes_pairs: usize,
    /// Pairs in the "likely" sets (`SS1 ⋈ SN2` ∪ `SN1 ⋈ SS2`).
    pub likely_pairs: usize,
    /// Pairs in the "may be" set (`SN1 ⋈ SN2`).
    pub maybe_pairs: usize,
    /// Total joined tuples `N = |R1 ⋈ R2|`.
    pub joined_pairs: u64,
    /// Skyline tuples produced.
    pub output: usize,
    /// Joined-tuple dominance tests performed by the verification kernel:
    /// `(dominator, candidate)` pairs whose merged counts were evaluated.
    /// On the grouping path these are the `(u, v) ∈ τ(u′) × τ(v′)` pairs
    /// whose local `≤` counts could still reach `k` with perfect
    /// aggregates — the only pairs charged the aggregate positions.
    pub dom_tests: u64,
    /// Attribute positions compared by the verification kernel. On the
    /// grouping path: `n1·l1` per distinct left leg (its `τ(u′)` sweep),
    /// `l2` per right position counted against a distinct right leg (at
    /// most one sweep of the right relation per leg: buckets are counted
    /// on demand), plus `a` per dominance test. Each count runs once per
    /// execution whatever the thread count.
    pub attr_cmps: u64,
    /// Target legs pruned from the dominator scans. On the grouping path,
    /// per verified candidate `(u′, v′)`: the tuples outside `τ(u′)` (or
    /// joining nothing), plus every left target the prescan skipped
    /// because its partner bucket held no partner that could reach `k`.
    /// Counted per candidate, so the value is thread-count invariant.
    pub targets_pruned: u64,
}

impl Counts {
    /// Pairs pruned without any joined-tuple comparison (everything with an
    /// `NN` component).
    ///
    /// Saturates at zero: the counters come from independent code paths
    /// (and, over a wire protocol, from an untrusted peer), so an
    /// inconsistent set where the surviving pairs exceed `joined_pairs`
    /// must report 0 pruned rather than underflow.
    pub fn pruned_pairs(&self) -> u64 {
        let surviving = (self.yes_pairs as u64)
            .saturating_add(self.likely_pairs as u64)
            .saturating_add(self.maybe_pairs as u64);
        self.joined_pairs.saturating_sub(surviving)
    }
}

/// Statistics of one KSJQ execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Per-phase times.
    pub phases: PhaseTimes,
    /// Cardinality counters.
    pub counts: Counts,
}

impl ExecStats {
    /// A one-paragraph human-readable account of the execution, for logs
    /// and example output.
    pub fn summary(&self) -> String {
        let p = &self.phases;
        let c = &self.counts;
        format!(
            "classified L({} SS / {} SN / {} NN) R({} SS / {} SN / {} NN); \
             of {} joined tuples: {} emitted, {} verified ({} likely + {} may-be), \
             {} pruned pre-join; {} skyline tuples; \
             kernel: {} dom tests, {} attr cmps, {} target legs pruned; \
             times: grouping {:.2?}, join {:.2?}, dominators {:.2?}, rest {:.2?}",
            c.ss[0],
            c.sn[0],
            c.nn[0],
            c.ss[1],
            c.sn[1],
            c.nn[1],
            c.joined_pairs,
            c.yes_pairs,
            c.likely_pairs + c.maybe_pairs,
            c.likely_pairs,
            c.maybe_pairs,
            c.pruned_pairs(),
            c.output,
            c.dom_tests,
            c.attr_cmps,
            c.targets_pruned,
            p.grouping,
            p.join,
            p.dominator_gen,
            p.remaining,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_total() {
        let p = PhaseTimes {
            grouping: Duration::from_millis(1),
            join: Duration::from_millis(2),
            dominator_gen: Duration::from_millis(3),
            remaining: Duration::from_millis(4),
        };
        assert_eq!(p.total(), Duration::from_millis(10));
    }

    #[test]
    fn pruned_pairs_arithmetic() {
        let c = Counts {
            yes_pairs: 5,
            likely_pairs: 10,
            maybe_pairs: 15,
            joined_pairs: 100,
            ..Default::default()
        };
        assert_eq!(c.pruned_pairs(), 70);
    }

    #[test]
    fn pruned_pairs_saturates_on_inconsistent_counters() {
        // Regression: this underflowed (panicking in debug builds) when
        // the pair counters exceeded joined_pairs.
        let c = Counts {
            yes_pairs: 5,
            likely_pairs: 10,
            maybe_pairs: 15,
            joined_pairs: 7,
            ..Default::default()
        };
        assert_eq!(c.pruned_pairs(), 0);
        let extreme = Counts {
            yes_pairs: usize::MAX,
            likely_pairs: usize::MAX,
            maybe_pairs: usize::MAX,
            joined_pairs: 1,
            ..Default::default()
        };
        assert_eq!(extreme.pruned_pairs(), 0);
    }

    #[test]
    fn defaults_are_zero() {
        let s = ExecStats::default();
        assert_eq!(s.phases.total(), Duration::ZERO);
        assert_eq!(s.counts.output, 0);
    }

    #[test]
    fn summary_mentions_all_counters() {
        let s = ExecStats {
            counts: Counts {
                ss: [3, 4],
                sn: [5, 6],
                nn: [7, 8],
                yes_pairs: 9,
                likely_pairs: 10,
                maybe_pairs: 11,
                joined_pairs: 100,
                output: 12,
                dom_tests: 13,
                attr_cmps: 14,
                targets_pruned: 15,
            },
            ..Default::default()
        };
        let text = s.summary();
        for needle in [
            "3 SS",
            "100 joined",
            "9 emitted",
            "21 verified",
            "70 pruned",
            "12 skyline",
            "13 dom tests",
            "14 attr cmps",
            "15 target legs pruned",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in: {text}");
        }
    }
}
