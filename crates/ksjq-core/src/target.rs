//! Target sets (paper Def. 5 + `Augment`, generalised soundly to
//! aggregates).
//!
//! For a candidate joined tuple `t′ = u′ ⋈ v′`, any dominating joined
//! tuple `t = u ⋈ v` must satisfy, by attribute counting,
//!
//! ```text
//! |{local i of R1 : u_i ≤ u′_i}| ≥ k″1    (and symmetrically for v)
//! ```
//!
//! because the right leg can contribute at most `l2` local positions and
//! `a` aggregate positions to the `≥ k` better-or-equal requirement. The
//! **target set** `τ(u′)` is the set of tuples passing this filter.
//!
//! At `a = 0` this is exactly the paper's machinery: for `u′ ∈ SS`, a
//! tuple with `≥ k′1` better-or-equal positions and any strictly-better
//! position would k′1-dominate `u′` (contradiction), so τ reduces to the
//! paper's *equal-shares* `Augment` set; for `u′ ∈ SN` it is precisely
//! `dominators(u′) ∪ Augment(u′)` of Algorithm 3. With aggregates the
//! paper's equal-shares set is **incomplete** — the other leg can repair an
//! aggregate position, so a dominator's leg may share no values at all —
//! which is why this generalisation filters on `≤` over local attributes
//! only (see DESIGN.md §4.5 and `tests/aggregate_semantics.rs`).
//!
//! Verification consumers receive target sets **ordered by ascending
//! attribute sum** (the SFS presorting idea of Chomicki et al., ICDE 2003,
//! also used by `ksjq-skyline`'s [`sfs`](ksjq_skyline::sfs) module): the
//! sum of normalised attributes is a monotone score, so legs of actual
//! dominators cluster at the front and the verifiers' `any`-shaped scans
//! exit early. Membership is unchanged — only the iteration order. The
//! grouping algorithm's leg kernel (`crate::verify`) builds its target
//! sets from the same columnar sweep, keeping each member's counts.

use crate::classify::Category;
use ksjq_relation::{dom_counts_partial_block_columnar_into, Relation};

/// Number of positions (restricted to `locals`) where `x ≤ x_prime`,
/// with early abandonment once `m` is unreachable.
#[inline]
fn local_le_at_least(x: &[f64], x_prime: &[f64], locals: &[usize], m: usize) -> bool {
    let l = locals.len();
    if m > l {
        return false;
    }
    let mut le = 0usize;
    for (i, &attr) in locals.iter().enumerate() {
        le += (x[attr] <= x_prime[attr]) as usize;
        if le + (l - i - 1) < m {
            return false;
        }
    }
    le >= m
}

/// Compute the target set `τ(x′) = {x : |{local i : x_i ≤ x′_i}| ≥ k_pp}`.
///
/// Always contains `x′` itself (`k_pp ≤ l` for every valid `k`). Returned
/// ids are ascending; callers that scan the set for dominators should
/// reorder it with [`order_by_attr_sum`].
///
/// The scan runs through the columnar kernel
/// [`dom_counts_partial_block_columnar_into`] over the relation's
/// attribute-major storage: each *selected* local attribute sweeps one
/// contiguous column, so the filter is stride-1 even when aggregates
/// interleave the locals (`a > 0`) — the case the previous row-major
/// blocked fast path could not take. [`target_set_rowmajor`] keeps the
/// scalar per-row loop as the oracle; their equality is property-tested.
pub fn target_set(rel: &Relation, locals: &[usize], x_prime: u32, k_pp: usize) -> Vec<u32> {
    target_set_with(rel, locals, x_prime, k_pp, &mut TargetScratch::default())
}

/// Reusable buffers for [`target_set_with`]: the gathered probe segment
/// and the columnar sweep's `≤`/`<` lane counts. One scratch per thread
/// removes all per-probe heap traffic from the `O(n²)` dominator-
/// generation sweep (each buffer is `O(n)` and reused across probes).
#[derive(Debug, Default)]
pub struct TargetScratch {
    probe: Vec<f64>,
    le: Vec<u32>,
    lt: Vec<u32>,
}

impl TargetScratch {
    /// The columnar sweep behind every target set: the local `≤`/`<`
    /// counts of **every** tuple of `rel` against the probe values in
    /// `self.probe` (in `locals` order), indexed by tuple id. With no
    /// local attributes every count is 0, so a `k_pp = 0` filter keeps
    /// the whole relation and any other keeps nothing.
    fn sweep(&mut self, rel: &Relation, locals: &[usize]) -> (&[u32], &[u32]) {
        dom_counts_partial_block_columnar_into(
            rel.columns(),
            rel.n(),
            locals,
            &self.probe,
            &mut self.le,
            &mut self.lt,
        );
        (&self.le, &self.lt)
    }
}

/// The ids whose `≤` count reaches `k_pp`, ascending.
fn at_least(le: &[u32], k_pp: usize) -> Vec<u32> {
    (0..le.len() as u32)
        .filter(|&t| le[t as usize] as usize >= k_pp)
        .collect()
}

/// [`target_set`] with caller-owned scratch — the form the hot loops
/// ([`TargetCache`], [`precompute_target_sets`]) use.
pub fn target_set_with(
    rel: &Relation,
    locals: &[usize],
    x_prime: u32,
    k_pp: usize,
    scratch: &mut TargetScratch,
) -> Vec<u32> {
    at_least(local_counts(rel, locals, x_prime, scratch).0, k_pp)
}

/// [`TargetScratch`]'s sweep against tuple `x_prime` of `rel` itself. The
/// two-sided verifier (`crate::verify`) keeps the counts of the members
/// it selects.
pub(crate) fn local_counts<'s>(
    rel: &Relation,
    locals: &[usize],
    x_prime: u32,
    scratch: &'s mut TargetScratch,
) -> (&'s [u32], &'s [u32]) {
    let prow = rel.row_at(x_prime as usize);
    scratch.probe.clear();
    scratch.probe.extend(locals.iter().map(|&attr| prow[attr]));
    scratch.sweep(rel, locals)
}

/// [`target_set_with`] against an **external** probe: the candidate's
/// local values are supplied directly (in `locals` order) instead of
/// read from a row of `rel`. This is the distributed verification
/// primitive — a router ships a candidate's joined values to a shard
/// that does not hold the candidate, and the shard filters its own left
/// relation against them. By the same attribute counting as
/// [`target_set`], any joined tuple of this shard that k-dominates the
/// candidate has its left leg in the returned set, so scanning it (via
/// `ColumnarCheck::dominated_via_left`) is a complete local dominance
/// test.
pub fn target_set_for_values(
    rel: &Relation,
    locals: &[usize],
    probe: &[f64],
    k_pp: usize,
    scratch: &mut TargetScratch,
) -> Vec<u32> {
    debug_assert_eq!(probe.len(), locals.len());
    scratch.probe.clear();
    scratch.probe.extend_from_slice(probe);
    at_least(scratch.sweep(rel, locals).0, k_pp)
}

/// The scalar row-major reference for [`target_set`]: one early-abandoning
/// pass per tuple over the interleaved rows. Kept as the oracle the
/// property suite (and the kernel ablation benches) compare the columnar
/// path against; membership and order are identical.
pub fn target_set_rowmajor(
    rel: &Relation,
    locals: &[usize],
    x_prime: u32,
    k_pp: usize,
) -> Vec<u32> {
    let prow = rel.row_at(x_prime as usize);
    let mut out = Vec::new();
    for t in 0..rel.n() as u32 {
        if local_le_at_least(rel.row_at(t as usize), prow, locals, k_pp) {
            out.push(t);
        }
    }
    out
}

/// Build the dominator/target set of every non-`NN` tuple — the
/// dominator-based algorithm's "dominator generation" phase — sharding the
/// `O(n²)` sweep over `threads` scoped workers.
///
/// Each tuple's set is computed independently over immutable relation
/// data and written into its own slot, and the per-cache scores are
/// computed once up front, so the result is **byte-identical for every
/// thread count** (the property suite pins this); only wall-clock changes.
/// Sets come back ordered by ascending attribute sum, ready for the
/// verifier's early-exit scans.
pub fn precompute_target_sets(
    rel: &Relation,
    cats: &[Category],
    k_pp: usize,
    threads: usize,
) -> Vec<Option<Vec<u32>>> {
    let locals: Vec<usize> = rel.schema().local_indices().collect();
    // SFS-style ordering: scanning each set sum-ascending lets the
    // verifier hit a dominator (and exit) early.
    let scores = attr_sums(rel);
    let n = cats.len();
    let one = |t: usize, scratch: &mut TargetScratch| -> Option<Vec<u32>> {
        match cats[t] {
            Category::NN => None,
            _ => {
                let mut set = target_set_with(rel, &locals, t as u32, k_pp, scratch);
                order_by_attr_sum(&mut set, &scores);
                Some(set)
            }
        }
    };
    let threads = threads.min(n).max(1);
    if threads == 1 {
        let mut scratch = TargetScratch::default();
        return (0..n).map(|t| one(t, &mut scratch)).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut sets = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            let one = &one;
            handles.push(scope.spawn(move || {
                let mut scratch = TargetScratch::default();
                (lo..hi).map(|t| one(t, &mut scratch)).collect::<Vec<_>>()
            }));
        }
        // Deterministic merge: workers cover ascending disjoint id ranges
        // and are drained in spawn order.
        for h in handles {
            sets.extend(h.join().expect("dominator-generation worker panicked"));
        }
    });
    sets
}

/// The attribute sums of every tuple — the SFS presort score. NaN-free
/// relations yield NaN-free scores; ordering uses [`f64::total_cmp`]
/// regardless, so hostile inputs cannot panic the sort.
pub fn attr_sums(rel: &Relation) -> Vec<f64> {
    rel.rows().map(|(_, row)| row.iter().sum()).collect()
}

/// Order `ids` so likely dominators come first: ascending score, ties
/// broken by ascending id (deterministic).
pub fn order_by_attr_sum(ids: &mut [u32], scores: &[f64]) {
    ids.sort_unstable_by(|&a, &b| {
        scores[a as usize]
            .total_cmp(&scores[b as usize])
            .then(a.cmp(&b))
    });
}

/// Lazily computed, memoised target sets for one relation, pre-ordered by
/// attribute sum for early-exit scans.
///
/// Only the tuples actually probed pay for a set, so computing them on
/// demand avoids [`precompute_target_sets`]' up-front cost. The one-sided
/// split-side oracle sweeps (`ksjq-bench`, the property suite) read their
/// target sets through it.
#[derive(Debug)]
pub struct TargetCache<'a> {
    rel: &'a Relation,
    locals: Vec<usize>,
    k_pp: usize,
    /// Attribute-sum scores, computed once per cache (`O(n·d)` — noise
    /// against the scans the ordering then accelerates).
    scores: Vec<f64>,
    sets: Vec<Option<Vec<u32>>>,
    scratch: TargetScratch,
}

impl<'a> TargetCache<'a> {
    /// A cache over `rel`'s local attributes with threshold `k_pp`.
    pub fn new(rel: &'a Relation, k_pp: usize) -> Self {
        TargetCache {
            rel,
            locals: rel.schema().local_indices().collect(),
            k_pp,
            scores: attr_sums(rel),
            sets: vec![None; rel.n()],
            scratch: TargetScratch::default(),
        }
    }

    /// The target set of `x_prime` ordered by ascending attribute sum,
    /// computing (and memoising) it on first access.
    pub fn get(&mut self, x_prime: u32) -> &[u32] {
        let slot = &mut self.sets[x_prime as usize];
        if slot.is_none() {
            let mut set = target_set_with(
                self.rel,
                &self.locals,
                x_prime,
                self.k_pp,
                &mut self.scratch,
            );
            order_by_attr_sum(&mut set, &self.scores);
            *slot = Some(set);
        }
        slot.as_deref().expect("just filled")
    }

    /// How many target sets were actually computed (for stats/tests).
    pub fn computed(&self) -> usize {
        self.sets.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksjq_relation::Schema;

    fn rel(rows: &[Vec<f64>]) -> Relation {
        let mut b = Relation::builder(Schema::uniform(rows[0].len()).unwrap());
        for r in rows {
            b.add(r).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn contains_self_and_dominators_and_shares() {
        let r = rel(&[
            vec![5.0, 5.0, 5.0], // 0: the probe
            vec![4.0, 4.0, 9.0], // 1: ≤ in two positions
            vec![5.0, 5.0, 9.0], // 2: equal in two positions
            vec![9.0, 9.0, 9.0], // 3: ≤ in none
            vec![1.0, 9.0, 9.0], // 4: ≤ in one position
        ]);
        let locals: Vec<usize> = r.schema().local_indices().collect();
        assert_eq!(target_set(&r, &locals, 0, 2), vec![0, 1, 2]);
        assert_eq!(target_set(&r, &locals, 0, 1), vec![0, 1, 2, 4]);
        assert_eq!(target_set(&r, &locals, 0, 3), vec![0]);
    }

    #[test]
    fn respects_local_subset() {
        // Attribute 0 is aggregated: only attributes 1, 2 count.
        let schema = Schema::builder()
            .agg("c", ksjq_relation::Preference::Min, 0)
            .local("x", ksjq_relation::Preference::Min)
            .local("y", ksjq_relation::Preference::Min)
            .build()
            .unwrap();
        let mut b = Relation::builder(schema);
        b.add_grouped(0, &[100.0, 5.0, 5.0]).unwrap(); // probe
        b.add_grouped(0, &[0.0, 9.0, 9.0]).unwrap(); // great agg, bad locals
        b.add_grouped(0, &[999.0, 5.0, 9.0]).unwrap(); // one local ≤
        let r = b.build().unwrap();
        let locals: Vec<usize> = r.schema().local_indices().collect();
        assert_eq!(locals, vec![1, 2]);
        assert_eq!(target_set(&r, &locals, 0, 1), vec![0, 2]);
    }

    /// The columnar scan and the scalar row-major oracle must select
    /// identical members — including with aggregates interleaving the
    /// locals, the case the old row-major blocked fast path skipped.
    #[test]
    fn columnar_matches_rowmajor_with_interleaved_locals() {
        let schema = Schema::builder()
            .local("x", ksjq_relation::Preference::Min)
            .agg("c", ksjq_relation::Preference::Min, 0)
            .local("y", ksjq_relation::Preference::Min)
            .agg("d", ksjq_relation::Preference::Min, 1)
            .local("z", ksjq_relation::Preference::Min)
            .build()
            .unwrap();
        let mut state = 9090u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut b = Relation::builder(schema);
        for _ in 0..90 {
            let row: Vec<f64> = (0..5).map(|_| next(7) as f64).collect();
            b.add_grouped(next(3), &row).unwrap();
        }
        let r = b.build().unwrap();
        let locals: Vec<usize> = r.schema().local_indices().collect();
        assert_eq!(locals, vec![0, 2, 4], "interleaving precondition");
        for probe in [0u32, 40, 89] {
            for k_pp in 1..=3 {
                assert_eq!(
                    target_set(&r, &locals, probe, k_pp),
                    target_set_rowmajor(&r, &locals, probe, k_pp),
                    "probe {probe} k_pp {k_pp}"
                );
            }
        }
    }

    /// Parallel dominator generation must be byte-identical to serial for
    /// every thread count.
    #[test]
    fn precompute_target_sets_thread_invariant() {
        let rows: Vec<Vec<f64>> = (0..97)
            .map(|i| {
                vec![
                    ((i * 31 + 7) % 13) as f64,
                    ((i * 17 + 3) % 11) as f64,
                    ((i * 7 + 5) % 9) as f64,
                ]
            })
            .collect();
        let r = rel(&rows);
        // Alternate categories so both None and Some slots appear.
        let cats: Vec<Category> = (0..97)
            .map(|i| match i % 3 {
                0 => Category::SS,
                1 => Category::SN,
                _ => Category::NN,
            })
            .collect();
        let serial = precompute_target_sets(&r, &cats, 2, 1);
        assert!(serial[2].is_none() && serial[0].is_some());
        for threads in [2usize, 3, 7, 200] {
            let parallel = precompute_target_sets(&r, &cats, 2, threads);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    /// The blocked fast path (contiguous locals) and the indexed slow path
    /// must select identical members.
    #[test]
    fn block_fast_path_matches_slow_path() {
        let mut state = 5150u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|_| (0..4).map(|_| next(9) as f64).collect())
            .collect();
        let r = rel(&rows);
        let locals: Vec<usize> = r.schema().local_indices().collect();
        assert_eq!(locals, vec![0, 1, 2, 3], "fast-path precondition");
        for probe in [0u32, 17, 119] {
            for k_pp in 1..=4 {
                let fast = target_set(&r, &locals, probe, k_pp);
                // Slow-path oracle.
                let slow: Vec<u32> = (0..r.n() as u32)
                    .filter(|&t| {
                        local_le_at_least(
                            r.row_at(t as usize),
                            r.row_at(probe as usize),
                            &locals,
                            k_pp,
                        )
                    })
                    .collect();
                assert_eq!(fast, slow, "probe {probe} k_pp {k_pp}");
            }
        }
    }

    /// Supplying a resident row's local values externally must select
    /// exactly what [`target_set`] selects for that row.
    #[test]
    fn values_variant_matches_resident_probe() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                vec![
                    ((i * 13 + 5) % 17) as f64,
                    ((i * 29 + 11) % 19) as f64,
                    ((i * 3 + 1) % 7) as f64,
                ]
            })
            .collect();
        let r = rel(&rows);
        let locals: Vec<usize> = r.schema().local_indices().collect();
        let mut scratch = TargetScratch::default();
        for probe in [0u32, 23, 59] {
            let prow: Vec<f64> = locals
                .iter()
                .map(|&a| r.row_at(probe as usize)[a])
                .collect();
            for k_pp in 0..=3 {
                assert_eq!(
                    target_set_for_values(&r, &locals, &prow, k_pp, &mut scratch),
                    target_set(&r, &locals, probe, k_pp),
                    "probe {probe} k_pp {k_pp}"
                );
            }
        }
        // Foreign values (no resident row equals them) still filter by
        // the same counting rule, against the row-major oracle.
        let foreign = vec![3.5, 10.5, 2.5];
        for k_pp in 0..=3 {
            let got = target_set_for_values(&r, &locals, &foreign, k_pp, &mut scratch);
            let want: Vec<u32> = (0..r.n() as u32)
                .filter(|&t| {
                    let row = r.row_at(t as usize);
                    let le = locals
                        .iter()
                        .enumerate()
                        .filter(|&(i, &a)| row[a] <= foreign[i])
                        .count();
                    le >= k_pp
                })
                .collect();
            assert_eq!(got, want, "k_pp {k_pp}");
        }
    }

    #[test]
    fn cache_memoises() {
        let r = rel(&[vec![1.0], vec![2.0], vec![3.0]]);
        let mut cache = TargetCache::new(&r, 1);
        assert_eq!(cache.computed(), 0);
        assert_eq!(cache.get(1), &[0, 1]);
        assert_eq!(cache.get(1), &[0, 1]);
        assert_eq!(cache.computed(), 1);
        assert_eq!(cache.get(0), &[0]);
        assert_eq!(cache.computed(), 2);
    }

    #[test]
    fn cache_orders_by_attribute_sum() {
        // Probe 3 = (5,5); targets include the heavier (6,5) and the
        // lighter (1,1): the cache must yield them sum-ascending, not
        // id-ascending.
        let r = rel(&[
            vec![6.0, 5.0], // id 0, sum 11
            vec![1.0, 1.0], // id 1, sum 2
            vec![5.0, 5.0], // id 2, sum 10 (ties the probe's values)
            vec![5.0, 5.0], // id 3, sum 10: the probe
        ]);
        let mut cache = TargetCache::new(&r, 1);
        assert_eq!(cache.get(3), &[1, 2, 3, 0]);
    }

    #[test]
    fn ordering_is_total_on_hostile_scores() {
        // total_cmp tolerates NaN scores without panicking (MatrixView-fed
        // paths can smuggle NaN past the Relation builder's checks).
        let mut ids = vec![0u32, 1, 2, 3];
        let scores = vec![f64::NAN, 1.0, f64::NAN, 0.0];
        order_by_attr_sum(&mut ids, &scores);
        assert_eq!(&ids[..2], &[3, 1], "finite scores sort first");
        assert_eq!(&ids[2..], &[0, 2], "NaN ties break by id");
    }
}
