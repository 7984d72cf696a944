//! Execution configuration shared by all KSJQ algorithms.

use ksjq_skyline::KdomAlgo;
use std::time::{Duration, Instant};

/// Tuning knobs for query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Which single-relation k-dominant skyline algorithm the naïve path
    /// uses. Defaults to the Two-Scan Algorithm. SS/SN/NN classification
    /// does not use it (see [`classify`](mod@crate::classify)).
    pub kdom: KdomAlgo,
    /// The naïve algorithm materialises the join when
    /// `|R1 ⋈ R2| · d_joined` does not exceed this many `f64` values
    /// (default 4 × 10⁷ ≈ 320 MB); beyond it, it streams with the two-scan
    /// skyline and cannot attribute a separate join time.
    pub materialize_limit: usize,
    /// Worker threads for the parallel extension (1 = serial, the paper's
    /// setting; >1 splits classification's tuples and candidate
    /// verification over scoped workers).
    pub threads: usize,
    /// Cooperative cancellation deadline: execution loops tick a
    /// [`Checkpoint`](crate::cancel::Checkpoint) against this instant and
    /// return [`CoreError::DeadlineExceeded`](crate::CoreError) once it
    /// passes. `None` (the default) never cancels.
    pub deadline: Option<Instant>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            kdom: KdomAlgo::Tsa,
            materialize_limit: 40_000_000,
            threads: 1,
            deadline: None,
        }
    }
}

impl Config {
    /// A config using `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Config {
            threads: threads.max(1),
            ..Default::default()
        }
    }

    /// This config with its deadline tightened to `deadline` (an existing
    /// earlier deadline wins; `None` leaves the config unchanged).
    pub fn deadline_capped(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = match (self.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// This config with a deadline `budget` from now.
    pub fn with_budget(self, budget: Duration) -> Self {
        self.deadline_capped(Some(Instant::now() + budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_serial_tsa() {
        let c = Config::default();
        assert_eq!(c.kdom, KdomAlgo::Tsa);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Config::with_threads(0).threads, 1);
        assert_eq!(Config::with_threads(8).threads, 8);
    }

    #[test]
    fn deadline_capped_keeps_the_earlier_instant() {
        let now = Instant::now();
        let soon = now + Duration::from_millis(10);
        let later = now + Duration::from_secs(10);
        let c = Config::default();
        assert_eq!(c.deadline, None);
        assert_eq!(c.deadline_capped(None).deadline, None);
        assert_eq!(c.deadline_capped(Some(soon)).deadline, Some(soon));
        let tight = c.deadline_capped(Some(later)).deadline_capped(Some(soon));
        assert_eq!(tight.deadline, Some(soon));
        let keeps = c.deadline_capped(Some(soon)).deadline_capped(Some(later));
        assert_eq!(keeps.deadline, Some(soon));
    }
}
