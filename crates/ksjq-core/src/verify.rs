//! Candidate verification: the two-sided leg kernel of the grouping
//! algorithm, the distributed `CHECK` and incremental maintenance.
//!
//! A candidate joined tuple `t′ = u′ ⋈ v′` survives iff no joined tuple
//! k-dominates it: no `t = u ⋈ v` is `≤` `t′` on at least `k` of the
//! joined positions and `<` on at least one of them.
//!
//! # Why both legs can be filtered (the two-sided check)
//!
//! A joined vector is laid out `[left locals…, right locals…,
//! aggregates…]` with `l1 + l2 + a` positions. If `t` k-dominates `t′`,
//! at least `k` positions are `≤`. At most `l1 + a` of them lie outside
//! the right-local segment, so `v` is `≤` `v′` on at least
//! `k″2 = k − l1 − a` right-local positions; symmetrically `u` is `≤`
//! `u′` on at least `k″1 = k − l2 − a` left-local positions. Hence
//! `u ∈ τ(u′)` **and** `v ∈ τ(v′)`, where `τ` is the target filter of
//! [`crate::target`] — the paper's `dom(u′) ⋈ dom(v′)` of Algorithm 3,
//! generalised soundly to aggregates. The argument counts `≤`, not `<`,
//! so tied values stay in both sets: a tie can still be one of the `k`
//! `≤` positions. Nothing in it depends on the SS/SN class of either leg,
//! so it also covers the SS⋈SS "yes" pairs that must be verified when
//! `a ≥ 2` (Theorem 3 fails there: with two aggregate slots an SS⋈SS
//! pair can be k-dominated, see `grouping`). The verdict itself is the
//! unchanged rule: merged `≤` count `≥ k` and merged `<` count `≥ 1`.
//!
//! # The leg kernel ([`verify_candidates`])
//!
//! Candidates are verified as pairs of legs given by value ([`Legs`]:
//! each distinct base tuple once, its local values then its aggregate
//! inputs), grouped by their right leg `v′`. Every candidate left leg's
//! `τ(u′)` is built **once** per call by the columnar sweep of
//! [`crate::target`], keeping each member's left-local `≤`/`<` counts
//! (8 bytes a member), in ascending attribute-sum order (SFS presorting:
//! likely dominators come first, so dominated candidates exit early),
//! with left tuples that join nothing dropped. `τ(u′)` may be restricted
//! to a universe of left tuples (every left tuple by default):
//! incremental maintenance rechecks a cached pair only against the left
//! legs of joined tuples that are new.
//!
//! The candidate's aggregates come from [`JoinContext::combine_slot`]
//! over the two legs' aggregate inputs. Checking `(u′, v′)` walks
//! `u ∈ τ(u′)` and looks for a partner `v` of `u` whose joined tuple
//! k-dominates the candidate. With `need = k − a − le(u)`, only partners
//! `≤` `v′` on at least `need` right locals can (even perfect aggregates
//! could not lift the others to `k`); only those are charged the `a`
//! aggregate positions, from aggregate columns gathered once per call,
//! and the verdict uses the exact merged counts. Results are therefore
//! byte-identical to the naive algorithm — the facade's differential
//! suite checks this across join kinds, `a`, ties and thread counts.
//!
//! The partners' right-local `≤`/`<` counts against `v′` are taken one
//! bucket at a time — one bucket per right group for equality joins, a
//! single bucket for theta and Cartesian joins — by stride-1 sweeps over
//! the right locals gathered in scan order, when a target first needs
//! the bucket. Only buckets holding partners of the universe are ever
//! counted. An O(1) per-left-tuple slot names the bucket of `u`'s
//! partners, and a bucket's highest `≤` count, kept when it is counted,
//! rules out every target whose bucket cannot reach `need`; most targets
//! are ruled out. A live target is scanned one of two ways:
//!
//! * **Directly**, while the leg is not loaded: targets are taken one at
//!   a time, and a live target's partner span is read position by
//!   position (a branch-free prescan over blocks of the span finds the
//!   few positions that reach `need`).
//! * **Bucketed**, once `τ(v′)` is loaded: every relevant bucket is
//!   counted (in one pass per attribute when none is counted yet and
//!   every bucket is relevant) and its members reaching `k″2` are kept,
//!   by `≤` count descending. A branch-free prescan over blocks of
//!   targets picks out the live ones, and each scan stops at the first
//!   member below `need`. Theta joins additionally skip members outside
//!   `u`'s partner span.
//!
//! # On-demand loading
//!
//! A load costs one sweep of the relevant buckets (`l2` comparisons per
//! position, `n2·l2` when every right tuple can partner the universe)
//! and serves every candidate of the leg; a direct read costs `l2`
//! comparisons per partner position and serves one. So a right leg
//! starts unloaded and its live targets are scanned directly while the
//! leg's direct work stays within one sweep, counting each candidate's
//! direct work once for every candidate of the leg still to check (it
//! included). When the next partner span would break that budget,
//! `τ(v′)` is loaded, reusing the buckets already counted, and every
//! later target of the leg is scanned bucketed, from that target on. A
//! leg whose budget cannot cover even the cheapest partner span of the
//! universe for its next candidate is loaded before that candidate when
//! every bucket is relevant, so it is counted in one pass rather than
//! bucket by bucket.
//!
//! A leg checked for a few candidates with few live partners (a one-row
//! append, cached pairs with one new dominator leg) is never loaded. A
//! leg shared by many candidates (grouping, the shard `CHECK`) is loaded
//! at once or after a few spans. The switch point depends only on the
//! leg's own candidates, and a leg never spans two workers, so verdicts
//! and counters are the same at every thread count.
//!
//! Nothing in the kernel needs a leg to be a tuple of the relations it
//! is checked against: the sweeps start from the leg's values, and a
//! candidate equal to a resident joined tuple is not dominated by it (the
//! verdict needs a strict position). So the distributed `CHECK` verifies
//! another shard's candidates with the same kernel ([`verify_legs`]);
//! grouping reaches it through [`verify_candidates`], which gathers its
//! own candidates' legs first ([`Legs::gather`]), and incremental
//! maintenance through the same path with a restricted universe.
//!
//! The dominator-based algorithm keeps its own verifier,
//! [`ColumnarCheck::dominated_via_both`], an independent kernel the
//! benchmark uses as its correctness reference; [`JoinedCheck`] is the
//! scalar row-major oracle the tests hold both kernels against.

use crate::cancel::Checkpoint;
use crate::error::CoreResult;
use crate::params::{validate_k, KsjqParams};
use crate::target::{attr_sums, local_counts, order_by_attr_sum, TargetScratch};
use ksjq_join::{JoinContext, JoinSpec};
use ksjq_relation::{
    accumulate_le_lt, dom_counts, dom_counts_partial, DomCounts, Relation, TupleId,
};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::ops::Range;
use std::time::Instant;

/// Counters of the work one verifier has performed, merged into
/// [`crate::ExecStats`] by the algorithm drivers (and summed across
/// parallel verification workers). See [`crate::Counts`] for what each
/// one means on the grouping path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckCounters {
    /// Joined-tuple dominance tests: `(dominator, candidate)` pairs whose
    /// merged counts were evaluated.
    pub dom_tests: u64,
    /// Attribute positions compared.
    pub attr_cmps: u64,
    /// Tuples kept out of candidates' dominator scans by the target
    /// filters, plus target legs abandoned after one read.
    pub targets_pruned: u64,
}

impl CheckCounters {
    /// Accumulate another counter set (worker merge).
    pub fn absorb(&mut self, other: CheckCounters) {
        self.dom_tests += other.dom_tests;
        self.attr_cmps += other.attr_cmps;
        self.targets_pruned += other.targets_pruned;
    }
}

/// One target-set member with its local `≤`/`<` counts against the leg
/// whose set it belongs to: 8 bytes, the unit of both leg memos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Member {
    /// Left members: the tuple id. Right members: the right scan position.
    at: u32,
    le: u16,
    lt: u16,
}

/// Slot of a left tuple that joins nothing.
const NO_BUCKET: u32 = u32::MAX;

/// Candidate pairs given **by value** — the form the leg kernel checks.
///
/// Each left leg is its `l1` local values in joined-layout order, then
/// its `a` aggregate inputs in slot order, all in the relation's stored
/// normalised form: leg `i` is `left[i·(l1 + a)..(i + 1)·(l1 + a)]`.
/// Right legs are laid out the same way with `l2`. `pairs` names each
/// candidate by its `(left leg, right leg)` indices. A leg need not be a
/// tuple of the relations it is checked against: the distributed `CHECK`
/// verifies another shard's candidates ([`verify_legs`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Legs {
    /// Left legs, `l1 + a` values each.
    pub left: Vec<f64>,
    /// Right legs, `l2 + a` values each.
    pub right: Vec<f64>,
    /// Candidates as `(left leg, right leg)` indices.
    pub pairs: Vec<(u32, u32)>,
}

impl Legs {
    /// Gather the distinct legs of `cx`'s tuple-id `pairs` once each, in
    /// ascending tuple id. `pairs` keep their order and are re-indexed to
    /// legs in place. Also returns each left and right leg's tuple id.
    pub fn gather(cx: &JoinContext<'_>, mut pairs: Vec<(u32, u32)>) -> (Legs, Vec<u32>, Vec<u32>) {
        let (left, lids, lindex) = gather_side(
            cx.left(),
            cx.left_local_attrs(),
            cx.a(),
            pairs.iter().map(|p| p.0),
        );
        let (right, rids, rindex) = gather_side(
            cx.right(),
            cx.right_local_attrs(),
            cx.a(),
            pairs.iter().map(|p| p.1),
        );
        for (u, v) in &mut pairs {
            (*u, *v) = (lindex[*u as usize], rindex[*v as usize]);
        }
        (Legs { left, right, pairs }, lids, rids)
    }
}

/// One side of [`Legs::gather`]: the leg values of each distinct tuple
/// of `ids` in ascending id, those ids, and each tuple's leg index.
fn gather_side(
    rel: &Relation,
    locals: &[usize],
    a: usize,
    ids: impl Iterator<Item = u32>,
) -> (Vec<f64>, Vec<u32>, Vec<u32>) {
    let mut index = vec![u32::MAX; rel.n()];
    for t in ids {
        index[t as usize] = 0;
    }
    let tuples: Vec<u32> = (0..rel.n() as u32)
        .filter(|&t| index[t as usize] == 0)
        .collect();
    let attrs: Vec<usize> = locals
        .iter()
        .copied()
        .chain((0..a).map(|s| rel.schema().agg_index(s).expect("validated agg slot")))
        .collect();
    let mut values = Vec::with_capacity(tuples.len() * attrs.len());
    for (i, &t) in tuples.iter().enumerate() {
        index[t as usize] = i as u32;
        values.extend(attrs.iter().map(|&attr| rel.value(TupleId(t), attr)));
    }
    (values, tuples, index)
}

/// The execution-wide, read-only half of the leg kernel: the right
/// bucket layout, each left tuple's bucket slot, and `τ(u′)` with counts
/// for every left leg. Built once per call and shared by its workers.
pub(crate) struct LegIndex<'b, 'a> {
    cx: &'b JoinContext<'a>,
    /// The legs' values, laid out as in [`Legs`].
    left_legs: &'b [f64],
    right_legs: &'b [f64],
    k: usize,
    k2_pp: usize,
    /// `bucket_pos[b]..bucket_pos[b + 1]` are bucket `b`'s right scan
    /// positions (the right group for equality joins; theta and Cartesian
    /// joins have one bucket).
    bucket_pos: Vec<u32>,
    /// Left tuple → the bucket holding its partners, or [`NO_BUCKET`].
    slot: Vec<u32>,
    /// Left tuple → its partner span in right scan positions. Theta joins
    /// only: their spans cut through the single bucket.
    span: Vec<(u32, u32)>,
    /// Buckets holding partners of the universe: the only ones a target
    /// can reach, so the only ones `τ(v′)` is loaded over.
    relevant: Vec<bool>,
    /// Left leg `u′` → the range of `τ(u′)` within `members`.
    left: Vec<(u32, u32)>,
    members: Vec<Member>,
    /// Aggregate inputs gathered once: `lagg[u·a + s]` is left tuple
    /// `u`'s slot-`s` value, `ragg[p·a + s]` that of the right tuple at
    /// scan position `p`.
    lagg: Vec<f64>,
    ragg: Vec<f64>,
    /// The right local values in scan order, attribute-major: local `j`
    /// of the tuple at scan position `p` is `rcols[j·n2 + p]`, so every
    /// bucket is a contiguous stretch of each column.
    rcols: Vec<f64>,
    /// Is every bucket relevant? A load that finds no bucket counted
    /// then counts them all in one pass per attribute.
    all_relevant: bool,
    /// The cost of one sweep: `l2` comparisons per position of the
    /// relevant buckets.
    sweep_cost: u64,
    /// The cost of the cheapest partner span a universe tuple has: the
    /// least direct work a live target can take.
    min_span_cost: u64,
}

impl<'b, 'a> LegIndex<'b, 'a> {
    /// Lay out `cx`'s buckets and build `τ(u′)` for every left leg,
    /// drawn from `universe` (every left tuple when `None`), sharding the
    /// sweeps over `threads` workers. Returns the sweeps' comparison
    /// count alongside (deterministic: each leg is swept exactly once
    /// whatever the thread count).
    fn build(
        cx: &'b JoinContext<'a>,
        params: &KsjqParams,
        (left_legs, right_legs): (&'b [f64], &'b [f64]),
        universe: Option<&[u32]>,
        threads: usize,
        deadline: Option<Instant>,
    ) -> CoreResult<(Self, CheckCounters)> {
        // Schemas cap their arity at `Schema::MAX_ATTRS`, so every local
        // count fits a member's 16-bit fields.
        debug_assert!(params.l1.max(params.l2) <= u16::MAX as usize);
        let (left, right) = (cx.left(), cx.right());
        let (n1, n2) = (left.n(), right.n());
        let mut bucket_pos = vec![0u32];
        if let JoinSpec::Equality = cx.spec() {
            let groups = right.group_index().expect("validated equality join");
            for (_, members) in groups.iter() {
                bucket_pos.push(bucket_pos[bucket_pos.len() - 1] + members.len() as u32);
            }
        } else {
            bucket_pos.push(n2 as u32);
        }
        let theta = matches!(cx.spec(), JoinSpec::Theta(_));
        let mut slot = Vec::with_capacity(n1);
        let mut span = Vec::new();
        for u in 0..n1 as u32 {
            let s = cx.right_partner_span(u);
            slot.push(if s.is_empty() {
                NO_BUCKET
            } else {
                // The bucket whose positions contain the span's start.
                bucket_pos.partition_point(|&p| p as usize <= s.start) as u32 - 1
            });
            if theta {
                span.push((s.start as u32, s.end as u32));
            }
        }

        // The left tuples τ(u′) draws from. A restricted universe keeps
        // its partnered members, ascending, swept from their own gathered
        // local columns; pool index order is then tuple id order, so the
        // attribute-sum order below breaks ties the same way.
        let locals = cx.left_local_attrs();
        let pool: Option<Vec<u32>> = universe.map(|ids| {
            let mut pool: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&t| slot[t as usize] != NO_BUCKET)
                .collect();
            pool.sort_unstable();
            pool.dedup();
            pool
        });
        let mut relevant = vec![false; bucket_pos.len() - 1];
        let mut scores = attr_sums(left);
        let (cols, n, attrs): (Cow<[f64]>, usize, Cow<[usize]>) = match &pool {
            None => {
                for &b in slot.iter().filter(|&&b| b != NO_BUCKET) {
                    relevant[b as usize] = true;
                }
                (left.columns().into(), n1, locals.into())
            }
            Some(pool) => {
                for &t in pool {
                    relevant[slot[t as usize] as usize] = true;
                }
                scores = pool.iter().map(|&t| scores[t as usize]).collect();
                let gathered = locals
                    .iter()
                    .flat_map(|&attr| {
                        let col = left.column(attr);
                        pool.iter().map(move |&t| col[t as usize])
                    })
                    .collect::<Vec<f64>>();
                (gathered.into(), pool.len(), (0..locals.len()).collect())
            }
        };
        let tuple = |i: u32| pool.as_ref().map_or(i, |p| p[i as usize]);

        // τ(u′) of every left leg, sharded over workers.
        let stride = params.l1 + params.a;
        let n_legs = left_legs.len() / stride;
        let ranges = crate::parallel::even_ranges(n_legs, threads);
        let parts = crate::parallel::run_ranges(&ranges, |range, cancelled| {
            let mut cp = Checkpoint::new(deadline);
            let mut scratch = TargetScratch::default();
            let mut ids = Vec::new();
            let (mut members, mut ends) = (Vec::new(), Vec::with_capacity(range.len()));
            for leg in left_legs[range.start * stride..range.end * stride].chunks_exact(stride) {
                cp.tick_shared(cancelled)?;
                let (le, lt) = local_counts(&cols, n, &attrs, &leg[..params.l1], &mut scratch);
                ids.clear();
                ids.extend((0..n as u32).filter(|&i| {
                    le[i as usize] as usize >= params.k1_pp && slot[tuple(i) as usize] != NO_BUCKET
                }));
                order_by_attr_sum(&mut ids, &scores);
                members.extend(ids.iter().map(|&i| Member {
                    at: tuple(i),
                    le: le[i as usize] as u16,
                    lt: lt[i as usize] as u16,
                }));
                ends.push(members.len() as u32);
            }
            Ok((members, ends))
        })?;
        let mut left_ranges = Vec::with_capacity(n_legs);
        let mut members = Vec::with_capacity(parts.iter().map(|(m, _)| m.len()).sum());
        for (part, ends) in parts {
            let base = members.len() as u32;
            let mut start = base;
            for end in ends {
                left_ranges.push((start, base + end));
                start = base + end;
            }
            members.extend(part);
        }
        let lagg = gather_aggs(left, params.a, 0..n1 as u32);
        let ragg = gather_aggs(right, params.a, cx.right_scan_order().iter().copied());
        let rcols = cx
            .right_local_attrs()
            .iter()
            .flat_map(|&attr| {
                let col = right.column(attr);
                cx.right_scan_order().iter().map(move |&t| col[t as usize])
            })
            .collect();
        let relevant_positions: u32 = relevant
            .iter()
            .zip(bucket_pos.windows(2))
            .filter(|(&r, _)| r)
            .map(|(_, w)| w[1] - w[0])
            .sum();
        let span_len = |u: usize| match span.get(u) {
            Some(&(lo, hi)) => hi - lo,
            None => bucket_pos[slot[u] as usize + 1] - bucket_pos[slot[u] as usize],
        };
        let min_span = match &pool {
            None => (0..n1)
                .filter(|&u| slot[u] != NO_BUCKET)
                .map(span_len)
                .min(),
            Some(pool) => pool.iter().map(|&u| span_len(u as usize)).min(),
        };
        let counters = CheckCounters {
            attr_cmps: (n_legs * n * params.l1) as u64,
            ..CheckCounters::default()
        };
        Ok((
            LegIndex {
                cx,
                left_legs,
                right_legs,
                k: params.k,
                k2_pp: params.k2_pp,
                bucket_pos,
                slot,
                span,
                left: left_ranges,
                members,
                lagg,
                ragg,
                rcols,
                all_relevant: relevant.iter().all(|&r| r),
                relevant,
                sweep_cost: u64::from(relevant_positions) * params.l2 as u64,
                min_span_cost: u64::from(min_span.unwrap_or(0)) * params.l2 as u64,
            },
            counters,
        ))
    }

    fn buckets(&self) -> usize {
        self.bucket_pos.len() - 1
    }

    /// Bucket `b`'s right scan positions.
    fn bucket(&self, b: usize) -> Range<usize> {
        self.bucket_pos[b] as usize..self.bucket_pos[b + 1] as usize
    }

    /// `τ(u′)` with left-local counts, ascending attribute sum.
    fn left_targets(&self, u: u32) -> &[Member] {
        let (s, e) = self.left[u as usize];
        &self.members[s as usize..e as usize]
    }

    /// The `l1 + a` values of left leg `u`.
    fn left_leg(&self, u: u32) -> &[f64] {
        let stride = self.cx.l1() + self.cx.a();
        &self.left_legs[u as usize * stride..][..stride]
    }

    /// The `l2 + a` values of right leg `v`.
    fn right_leg(&self, v: u32) -> &[f64] {
        let stride = self.cx.l2() + self.cx.a();
        &self.right_legs[v as usize * stride..][..stride]
    }

    /// Left tuple `u`'s partners as right scan positions.
    fn partners(&self, u: u32) -> Range<usize> {
        match self.span.get(u as usize) {
            Some(&(lo, hi)) => lo as usize..hi as usize,
            None => self.bucket(self.slot[u as usize] as usize),
        }
    }

    /// Left tuple `u`'s aggregate inputs.
    fn left_aggs(&self, u: u32) -> &[f64] {
        let a = self.cx.a();
        &self.lagg[u as usize * a..][..a]
    }

    /// Does target `m` (aggregate inputs `lagg`) joined with the right
    /// tuple at scan position `pos` (right-local counts `le`/`lt` against
    /// the right leg) k-dominate the candidate, whose aggregates are
    /// `cand_aggs`? The one dominance test of both scans.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn dominates(
        &self,
        m: Member,
        lagg: &[f64],
        pos: u32,
        (le, lt): (u32, u32),
        cand_aggs: &[f64],
        counters: &mut CheckCounters,
    ) -> bool {
        let a = cand_aggs.len();
        counters.dom_tests += 1;
        let mut mle = m.le as u32 + le;
        let mut mlt = m.lt as u32 + lt;
        if a > 0 {
            counters.attr_cmps += a as u64;
            let ragg = &self.ragg[pos as usize * a..][..a];
            for s in 0..a {
                let v = self.cx.combine_slot(s, lagg[s], ragg[s]);
                mle += (v <= cand_aggs[s]) as u32;
                mlt += (v < cand_aggs[s]) as u32;
            }
        }
        mle >= self.k as u32 && mlt >= 1
    }
}

/// The `a` aggregate input values of each tuple of `ids`, in `ids` order.
fn gather_aggs(rel: &Relation, a: usize, ids: impl Iterator<Item = u32>) -> Vec<f64> {
    let cols: Vec<&[f64]> = (0..a)
        .map(|s| rel.column(rel.schema().agg_index(s).expect("validated agg slot")))
        .collect();
    ids.flat_map(|t| cols.iter().map(move |c| c[t as usize]))
        .collect()
}

/// One worker's half of the leg kernel: the current right leg's
/// right-local counts, filled one bucket at a time as targets need them,
/// and — once loaded — its `τ(v′)`, bucketed, each bucket `≤`-count
/// descending.
pub(crate) struct LegCheck<'i, 'b, 'a> {
    ix: &'i LegIndex<'b, 'a>,
    /// The right leg being checked (`u32::MAX`: none yet).
    leg: u32,
    /// Bumped with every new right leg: bucket `b`'s counts in `rle`/`rlt`
    /// belong to the current leg iff `filled[b] == stamp`.
    stamp: u64,
    filled: Vec<u64>,
    /// Right-local `≤`/`<` counts against the leg, by scan position.
    rle: Vec<u32>,
    rlt: Vec<u32>,
    /// Is any bucket counted for the current leg?
    counted: bool,
    /// Is `τ(leg)` loaded into `right`?
    loaded: bool,
    /// The direct work spent on `leg`: `l2` comparisons per partner
    /// position the direct scan reads. Counting a bucket is not direct
    /// work: a load reuses the counts.
    spent: u64,
    /// `spent` when the current candidate's check began.
    before: u64,
    /// The leg's candidates still to check, the current one included.
    to_check: u64,
    right: Vec<Member>,
    /// `right[bucket_start[b]..bucket_start[b + 1]]` is bucket `b`.
    bucket_start: Vec<u32>,
    /// One more than bucket `b`'s highest `≤` count against the leg; once
    /// loaded, 0 when no member reaches `k″2` (no target's `need` is
    /// below it). Valid for counted buckets only.
    top: Vec<u32>,
    cand_aggs: Vec<f64>,
    counters: CheckCounters,
}

impl<'i, 'b, 'a> LegCheck<'i, 'b, 'a> {
    pub(crate) fn new(ix: &'i LegIndex<'b, 'a>) -> Self {
        let n2 = ix.cx.right().n();
        LegCheck {
            ix,
            leg: u32::MAX,
            stamp: 0,
            filled: vec![0; ix.buckets()],
            rle: vec![0; n2],
            rlt: vec![0; n2],
            counted: false,
            loaded: false,
            spent: 0,
            before: 0,
            to_check: 0,
            right: Vec::new(),
            bucket_start: vec![0; ix.buckets() + 1],
            top: vec![0; ix.buckets()],
            cand_aggs: vec![0.0; ix.cx.a()],
            counters: CheckCounters::default(),
        }
    }

    pub(crate) fn counters(&self) -> CheckCounters {
        self.counters
    }

    /// Count bucket `b`'s right locals against the current leg, unless
    /// they already are, and set its `top`.
    fn fill(&mut self, b: usize) {
        if self.filled[b] == self.stamp {
            return;
        }
        let ix = self.ix;
        let (n2, l2) = (ix.cx.right().n(), ix.cx.l2());
        let probe = &ix.right_leg(self.leg)[..l2];
        let r = ix.bucket(b);
        let (le, lt) = (&mut self.rle[r.clone()], &mut self.rlt[r.clone()]);
        le.fill(0);
        lt.fill(0);
        for (j, &p) in probe.iter().enumerate() {
            accumulate_le_lt(&ix.rcols[j * n2 + r.start..j * n2 + r.end], p, le, lt);
        }
        self.top[b] = le.iter().max().map_or(0, |&c| c + 1);
        self.counters.attr_cmps += (r.len() * l2) as u64;
        self.filled[b] = self.stamp;
        self.counted = true;
    }

    /// Load the current leg's `τ(v′)` over the relevant buckets: count
    /// those not yet counted, keep the members reaching `k″2`, each
    /// bucket `≤`-count descending, ties by position.
    fn load(&mut self) {
        let ix = self.ix;
        if !self.counted && ix.all_relevant {
            // Nothing counted yet and every bucket needed: one stride-1
            // pass per attribute over the whole scan order.
            let (n2, l2) = (ix.cx.right().n(), ix.cx.l2());
            let probe = &ix.right_leg(self.leg)[..l2];
            self.rle.fill(0);
            self.rlt.fill(0);
            for (j, &p) in probe.iter().enumerate() {
                accumulate_le_lt(&ix.rcols[j * n2..][..n2], p, &mut self.rle, &mut self.rlt);
            }
            self.counters.attr_cmps += (n2 * l2) as u64;
            self.filled.fill(self.stamp);
            self.counted = true;
        }
        self.right.clear();
        for b in 0..ix.buckets() {
            self.bucket_start[b] = self.right.len() as u32;
            if !ix.relevant[b] {
                continue;
            }
            self.fill(b);
            let from = self.right.len();
            let (rle, rlt) = (&self.rle, &self.rlt);
            self.right.extend(
                ix.bucket(b)
                    .filter(|&pos| rle[pos] as usize >= ix.k2_pp)
                    .map(|pos| Member {
                        at: pos as u32,
                        le: rle[pos] as u16,
                        lt: rlt[pos] as u16,
                    }),
            );
            let members = &mut self.right[from..];
            members.sort_unstable_by_key(|m| (Reverse(m.le), m.at));
            self.top[b] = members.first().map_or(0, |m| m.le as u32 + 1);
        }
        self.bucket_start[ix.buckets()] = self.right.len() as u32;
        self.loaded = true;
    }

    /// Check `pairs` (leg indices, grouped by right leg) in order,
    /// calling `verdict(q, dominated)` for each position `q`; `tick` runs
    /// before every check and stops the run with its error.
    pub(crate) fn check_all(
        &mut self,
        pairs: &[(u32, u32)],
        mut tick: impl FnMut() -> CoreResult<()>,
        mut verdict: impl FnMut(usize, bool),
    ) -> CoreResult<()> {
        let mut q = 0;
        for leg in pairs.chunk_by(|p, r| p.1 == r.1) {
            for (i, &(u, v)) in leg.iter().enumerate() {
                tick()?;
                verdict(q, self.dominated(u, v, leg.len() - i));
                q += 1;
            }
        }
        Ok(())
    }

    /// Is candidate `u′ ⋈ v′` (leg indices) k-dominated by some `u ⋈ v`
    /// with `u ∈ τ(u′)`, `v ∈ τ(v′)`? `to_check` counts the candidates
    /// of `v′` still to check, this one included; calls sharing `v′`
    /// should be consecutive.
    pub(crate) fn dominated(&mut self, u_prime: u32, v_prime: u32, to_check: usize) -> bool {
        if self.leg != v_prime {
            self.leg = v_prime;
            self.stamp += 1;
            self.counted = false;
            self.loaded = false;
            self.spent = 0;
        }
        (self.before, self.to_check) = (self.spent, to_check as u64);
        let ix = self.ix;
        // A leg whose budget cannot cover even the cheapest span for this
        // candidate loads at its first live target. When every bucket is
        // relevant, loading now counts them in one pass instead of one
        // bucket at a time.
        if !self.loaded && ix.all_relevant && !self.fits(ix.min_span_cost) {
            self.load();
        }
        let cx = ix.cx;
        let targets = ix.left_targets(u_prime);
        self.counters.targets_pruned += (cx.left().n() - targets.len()) as u64;
        let a = cx.a();
        if a > 0 {
            let lv = &ix.left_leg(u_prime)[cx.l1()..];
            let rv = &ix.right_leg(v_prime)[cx.l2()..];
            for s in 0..a {
                self.cand_aggs[s] = cx.combine_slot(s, lv[s], rv[s]);
            }
        }
        let l2 = cx.l2() as u32;
        // k > d ≥ a for every valid k.
        let k_minus_a = (ix.k - a) as u32;
        let mut rest = targets;
        // Unloaded: one target at a time, counting its bucket on first
        // use, until a span would pass the budget; that target and the
        // rest are then scanned bucketed.
        while !self.loaded {
            let Some((&m, tail)) = rest.split_first() else {
                return false;
            };
            let need = k_minus_a.saturating_sub(m.le as u32);
            if need <= l2 {
                let b = ix.slot[m.at as usize] as usize;
                self.fill(b);
                if self.top[b] > need {
                    if !self.afford(m) {
                        self.load();
                        break;
                    }
                    if self.scan_span(m) {
                        return true;
                    }
                    rest = tail;
                    continue;
                }
            }
            self.counters.targets_pruned += 1;
            rest = tail;
        }
        // Loaded: most targets' buckets hold no partner that could reach
        // `k`; a branch-free prescan over a block of targets finds the few
        // whose bucket does, and only those are scanned.
        const BLOCK: usize = 32;
        for block in rest.chunks(BLOCK) {
            let mut live = 0u32;
            for (i, m) in block.iter().enumerate() {
                let top = self.top[ix.slot[m.at as usize] as usize];
                live |= ((top > k_minus_a.saturating_sub(m.le as u32)) as u32) << i;
            }
            self.counters.targets_pruned += (block.len() - live.count_ones() as usize) as u64;
            while live != 0 {
                let m = block[live.trailing_zeros() as usize];
                live &= live - 1;
                if self.scan_bucket(m) {
                    return true;
                }
            }
        }
        false
    }

    /// Would `cost` more direct work on the current candidate keep the
    /// leg within one sweep, once the candidate's direct work so far plus
    /// `cost` is charged for each of the leg's candidates still to check?
    fn fits(&self, cost: u64) -> bool {
        let projected = (self.spent - self.before + cost).saturating_mul(self.to_check);
        self.before.saturating_add(projected) <= self.ix.sweep_cost
    }

    /// Can the direct scan read target `m`'s partner span within the
    /// leg's budget ([`Self::fits`])? Charges the span if so.
    fn afford(&mut self, m: Member) -> bool {
        let ix = self.ix;
        let cost = (ix.partners(m.at).len() * ix.cx.l2()) as u64;
        if !self.fits(cost) {
            return false;
        }
        self.spent += cost;
        true
    }

    /// The direct scan of target `m`: its partner span read position by
    /// position from the counted bucket, a branch-free prescan over
    /// blocks of the span finding the few positions that reach `need`.
    fn scan_span(&mut self, m: Member) -> bool {
        let ix = self.ix;
        let need = (ix.k - ix.cx.a()) as u32 - m.le as u32;
        let span = ix.partners(m.at);
        let lagg = ix.left_aggs(m.at);
        const BLOCK: usize = 64;
        for (i, block) in self.rle[span.clone()].chunks(BLOCK).enumerate() {
            if !block.iter().fold(false, |any, &le| any | (le >= need)) {
                continue;
            }
            for (pos, &le) in (span.start + i * BLOCK..).zip(block) {
                let counts = (le, self.rlt[pos]);
                if le >= need
                    && ix.dominates(
                        m,
                        lagg,
                        pos as u32,
                        counts,
                        &self.cand_aggs,
                        &mut self.counters,
                    )
                {
                    return true;
                }
            }
        }
        false
    }

    /// The bucketed scan of target `m` over the loaded `τ(v′)`: its
    /// bucket's members, `≤`-count descending, until one falls below
    /// `need`.
    #[inline(always)]
    fn scan_bucket(&mut self, m: Member) -> bool {
        let ix = self.ix;
        let need = (ix.k - ix.cx.a()) as u32 - m.le as u32;
        let b = ix.slot[m.at as usize] as usize;
        let bucket = &self.right[self.bucket_start[b] as usize..self.bucket_start[b + 1] as usize];
        let (lo, hi) = ix.span.get(m.at as usize).copied().unwrap_or((0, u32::MAX));
        let lagg = ix.left_aggs(m.at);
        for r in bucket {
            if (r.le as u32) < need {
                break;
            }
            if r.at < lo || r.at >= hi {
                continue;
            }
            let counts = (r.le as u32, r.lt as u32);
            if ix.dominates(m, lagg, r.at, counts, &self.cand_aggs, &mut self.counters) {
                return true;
            }
        }
        false
    }
}

/// `items` ordered by their right leg `right(item) < n_right` (stable
/// counting sort), so every right leg's candidates are consecutive and
/// its `τ(v′)` is built at most once.
fn by_right_leg<T: Copy>(items: &[T], n_right: usize, right: impl Fn(&T) -> u32) -> Vec<T> {
    let mut next = vec![0u32; n_right + 1];
    for item in items {
        next[right(item) as usize + 1] += 1;
    }
    for i in 0..n_right {
        next[i + 1] += next[i];
    }
    let mut out = items.to_vec();
    for item in items {
        let at = &mut next[right(item) as usize];
        out[*at as usize] = *item;
        *at += 1;
    }
    out
}

/// Check `pairs` (leg indices into `ix`'s legs, grouped by right leg),
/// calling `verdict(q, dominated)` for each position `q` of `pairs`. With
/// `threads ≤ 1` verdicts arrive as their checks complete; with more,
/// after the workers join. Returns the checks' counters.
fn run_checks(
    ix: &LegIndex<'_, '_>,
    pairs: &[(u32, u32)],
    threads: usize,
    deadline: Option<Instant>,
    mut verdict: impl FnMut(usize, bool),
) -> CoreResult<CheckCounters> {
    if threads <= 1 {
        let mut chk = LegCheck::new(ix);
        let mut cp = Checkpoint::new(deadline);
        chk.check_all(pairs, || cp.tick(), verdict)?;
        return Ok(chk.counters());
    }
    let (bits, counters) = crate::parallel::verify_parallel(ix, pairs, threads, deadline)?;
    for (q, dominated) in bits.into_iter().enumerate() {
        verdict(q, dominated);
    }
    Ok(counters)
}

/// Check `cx`'s tuple-id `pairs` with the leg kernel, `τ(u′)` drawn from
/// `universe` (every left tuple when `None`), calling
/// `verdict(u′, v′, dominated)` for each pair. The distinct left legs are
/// gathered ([`gather_side`]) and their `τ(u′)` built first; a pair whose
/// `τ(u′)` is empty cannot be dominated and gets its verdict at once. The
/// rest are grouped by right leg, and only their right legs are gathered
/// and checked. Returns the kernel's counters and how many pairs had a
/// non-empty `τ(u′)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_pairs(
    cx: &JoinContext<'_>,
    params: &KsjqParams,
    pairs: &[(u32, u32)],
    universe: Option<&[u32]>,
    threads: usize,
    deadline: Option<Instant>,
    mut verdict: impl FnMut(u32, u32, bool),
) -> CoreResult<(CheckCounters, usize)> {
    if pairs.is_empty() {
        return Ok((CheckCounters::default(), 0));
    }
    let (left, right, a) = (cx.left(), cx.right(), cx.a());
    let (left_legs, lids, lindex) =
        gather_side(left, cx.left_local_attrs(), a, pairs.iter().map(|p| p.0));
    let (ix, mut counters) =
        LegIndex::build(cx, params, (&left_legs, &[]), universe, threads, deadline)?;
    let mut targeted: Vec<(u32, u32)> = Vec::with_capacity(pairs.len());
    for &(u, v) in pairs {
        let leg = lindex[u as usize];
        if ix.left_targets(leg).is_empty() {
            verdict(u, v, false);
        } else {
            targeted.push((leg, v));
        }
    }
    // Sorted by right tuple id, the pairs stay grouped by right leg once
    // re-indexed: right legs are numbered in ascending tuple id.
    let mut targeted = by_right_leg(&targeted, right.n(), |p| p.1);
    let (right_legs, rids, rindex) = gather_side(
        right,
        cx.right_local_attrs(),
        a,
        targeted.iter().map(|p| p.1),
    );
    for (_, v) in &mut targeted {
        *v = rindex[*v as usize];
    }
    let ix = LegIndex {
        right_legs: &right_legs,
        ..ix
    };
    counters.absorb(run_checks(
        &ix,
        &targeted,
        threads,
        deadline,
        |q, dominated| {
            let (u, v) = targeted[q];
            verdict(lids[u as usize], rids[v as usize], dominated);
        },
    )?);
    Ok((counters, targeted.len()))
}

/// Verify candidate pairs `(u′, v′)` of `cx`'s join under `k`-dominance
/// with the two-sided leg kernel (see the module docs), calling
/// `sink(u′, v′)` for every survivor; returns the kernel's work counters.
///
/// This is the grouping algorithm's verification phase: the candidates'
/// distinct legs are gathered by value once ([`Legs::gather`]) and
/// checked as [`verify_legs`] checks a foreign shard's. With
/// `threads ≤ 1` survivors reach `sink` as their checks complete, grouped
/// by right leg. With more threads the sweeps and checks are sharded over
/// scoped workers (whole right legs per worker) and survivors are
/// delivered after the workers join. Verdicts and counters are identical
/// for every thread count; only the delivery order differs.
///
/// # Errors
///
/// [`CoreError::InvalidK`](crate::CoreError) for an out-of-range `k`;
/// [`CoreError::DeadlineExceeded`](crate::CoreError) once `deadline`
/// passes.
pub fn verify_candidates(
    cx: &JoinContext<'_>,
    k: usize,
    pairs: &[(u32, u32)],
    threads: usize,
    deadline: Option<Instant>,
    mut sink: impl FnMut(u32, u32),
) -> CoreResult<CheckCounters> {
    let params = validate_k(cx, k)?;
    let (counters, _) = check_pairs(
        cx,
        &params,
        pairs,
        None,
        threads,
        deadline,
        |u, v, dominated| {
            if !dominated {
                sink(u, v);
            }
        },
    )?;
    Ok(counters)
}

/// Is each candidate of `legs` k-dominated by some joined tuple of `cx`?
/// One bit per pair, in `legs.pairs` order, from the same leg kernel as
/// [`verify_candidates`] (serial). The legs need not belong to `cx`'s
/// relations: this is a shard's half of the distributed `CHECK`, run on
/// another shard's candidates.
///
/// # Errors
///
/// As [`verify_candidates`].
///
/// # Panics
///
/// If a leg list is not a whole number of `l + a`-value legs, or a pair
/// names a leg that is not there. Callers validate wire input first.
pub fn verify_legs(
    cx: &JoinContext<'_>,
    k: usize,
    legs: &Legs,
    deadline: Option<Instant>,
) -> CoreResult<(Vec<bool>, CheckCounters)> {
    let params = validate_k(cx, k)?;
    let (ls, rs) = (params.l1 + params.a, params.l2 + params.a);
    assert!(
        legs.left.len().is_multiple_of(ls) && legs.right.len().is_multiple_of(rs),
        "leg lists must hold whole legs"
    );
    let (nl, nr) = (
        (legs.left.len() / ls) as u32,
        (legs.right.len() / rs) as u32,
    );
    assert!(
        legs.pairs.iter().all(|&(u, v)| u < nl && v < nr),
        "pairs must name existing legs"
    );
    let all: Vec<u32> = (0..legs.pairs.len() as u32).collect();
    let order = by_right_leg(&all, nr as usize, |&p| legs.pairs[p as usize].1);
    let sorted: Vec<(u32, u32)> = order.iter().map(|&p| legs.pairs[p as usize]).collect();
    let mut bits = vec![false; legs.pairs.len()];
    if sorted.is_empty() {
        return Ok((bits, CheckCounters::default()));
    }
    let (ix, mut counters) =
        LegIndex::build(cx, &params, (&legs.left, &legs.right), None, 1, deadline)?;
    counters.absorb(run_checks(&ix, &sorted, 1, deadline, |q, dominated| {
        bits[order[q] as usize] = dominated
    })?);
    Ok((bits, counters))
}

/// The scalar row-major oracle of both kernels, for candidates given as
/// joined rows. It gathers both relations' rows into scratch once, at
/// construction; for each
/// target leg the left-half [`DomCounts`] are computed once, then merged
/// with each partner's right-half counts (memoised per call) and the `a`
/// aggregate positions via [`DomCounts::merge`] — bit-identical to
/// [`ksjq_relation::dom_counts`] on the materialised row. No algorithm
/// runs it: the property suite and the kernel ablation (`ksjq-bench`)
/// check the production kernels against it.
#[derive(Debug)]
pub struct JoinedCheck<'b, 'a> {
    cx: &'b JoinContext<'a>,
    k: usize,
    l1: usize,
    l2: usize,
    a: usize,
    /// Both relations' rows, gathered row-major at construction.
    lrows: Vec<f64>,
    rrows: Vec<f64>,
    /// Scratch for the `a` aggregate values of one pair (never a full row).
    aggs: Vec<f64>,
    /// Reusable membership mask over right tuple ids (two-sided checks).
    rmask: Vec<bool>,
    /// Per-call memo of partner-half counts, generation-stamped so calls
    /// never pay for clearing: `lmemo[u]` / `rmemo[v]` hold the local
    /// counts of that base tuple against the current candidate's segment.
    lmemo: Vec<DomCounts>,
    lstamp: Vec<u64>,
    rmemo: Vec<DomCounts>,
    rstamp: Vec<u64>,
    generation: u64,
    counters: CheckCounters,
}

impl<'b, 'a> JoinedCheck<'b, 'a> {
    /// A verifier for candidates of `cx`'s join under `k`-dominance.
    pub fn new(cx: &'b JoinContext<'a>, k: usize) -> Self {
        let zero = DomCounts { le: 0, lt: 0 };
        JoinedCheck {
            k,
            l1: cx.l1(),
            l2: cx.l2(),
            a: cx.a(),
            lrows: cx.left().gather_rows(),
            rrows: cx.right().gather_rows(),
            aggs: vec![0.0; cx.a()],
            rmask: vec![false; cx.right().n()],
            lmemo: vec![zero; cx.left().n()],
            lstamp: vec![0; cx.left().n()],
            rmemo: vec![zero; cx.right().n()],
            rstamp: vec![0; cx.right().n()],
            generation: 0,
            counters: CheckCounters::default(),
            cx,
        }
    }

    /// The work counters accumulated so far.
    pub fn counters(&self) -> CheckCounters {
        self.counters
    }

    /// Gathered row `u` of the left relation.
    #[inline]
    fn left_row(&self, u: usize) -> &[f64] {
        let d = self.cx.left().d();
        &self.lrows[u * d..(u + 1) * d]
    }

    /// Gathered row `v` of the right relation.
    #[inline]
    fn right_row(&self, v: usize) -> &[f64] {
        let d = self.cx.right().d();
        &self.rrows[v * d..(v + 1) * d]
    }

    /// Split `cand` into its `(left locals, right locals, aggregates)`
    /// segments.
    #[inline]
    fn segments<'c>(&self, cand: &'c [f64]) -> (&'c [f64], &'c [f64], &'c [f64]) {
        debug_assert_eq!(cand.len(), self.l1 + self.l2 + self.a);
        let (cl, rest) = cand.split_at(self.l1);
        let (cr, ca) = rest.split_at(self.l2);
        (cl, cr, ca)
    }

    /// Left-half counts of target leg `u` against `cl`, or `None` when the
    /// leg cannot reach `k` even with a perfect other half (early abandon).
    #[inline]
    fn left_half(&mut self, u: u32, cl: &[f64]) -> Option<DomCounts> {
        self.counters.attr_cmps += self.l1 as u64;
        let lc = dom_counts_partial(self.left_row(u as usize), self.cx.left_local_attrs(), cl);
        if lc.le as usize + self.l2 + self.a < self.k {
            self.counters.targets_pruned += 1;
            return None;
        }
        Some(lc)
    }

    /// Symmetric right-half hoist for [`dominated_via_right`].
    #[inline]
    fn right_half(&mut self, v: u32, cr: &[f64]) -> Option<DomCounts> {
        self.counters.attr_cmps += self.l2 as u64;
        let rc = dom_counts_partial(self.right_row(v as usize), self.cx.right_local_attrs(), cr);
        if rc.le as usize + self.l1 + self.a < self.k {
            self.counters.targets_pruned += 1;
            return None;
        }
        Some(rc)
    }

    /// Partner-half counts of right tuple `v` against `cr`, memoised for
    /// the current candidate (equality-join target legs of one group all
    /// share their partner set, so hits are the common case).
    #[inline]
    fn right_memo(&mut self, v: u32, cr: &[f64]) -> DomCounts {
        let i = v as usize;
        if self.rstamp[i] != self.generation {
            self.counters.attr_cmps += self.l2 as u64;
            self.rmemo[i] = dom_counts_partial(self.right_row(i), self.cx.right_local_attrs(), cr);
            self.rstamp[i] = self.generation;
        }
        self.rmemo[i]
    }

    /// Symmetric memo over left partners for [`dominated_via_right`].
    #[inline]
    fn left_memo(&mut self, u: u32, cl: &[f64]) -> DomCounts {
        let i = u as usize;
        if self.lstamp[i] != self.generation {
            self.counters.attr_cmps += self.l1 as u64;
            self.lmemo[i] = dom_counts_partial(self.left_row(i), self.cx.left_local_attrs(), cl);
            self.lstamp[i] = self.generation;
        }
        self.lmemo[i]
    }

    /// Merge `half` (one leg's hoisted counts) with the other leg's local
    /// counts and — only if still reachable — the aggregate segment; the
    /// result is the verdict of `k_dominates(joined(u, v), cand, k)`.
    #[inline]
    fn merged_dominates(
        &mut self,
        u: u32,
        v: u32,
        half: DomCounts,
        other_is_right: bool,
        cother: &[f64],
        ca: &[f64],
    ) -> bool {
        self.counters.dom_tests += 1;
        let other = if other_is_right {
            self.right_memo(v, cother)
        } else {
            self.left_memo(u, cother)
        };
        let mut merged = half.merge(other);
        // Even perfect aggregate positions could not lift `≤` to k.
        if (merged.le as usize) + self.a < self.k {
            return false;
        }
        if self.a > 0 {
            self.counters.attr_cmps += self.a as u64;
            self.cx.fill_aggs(u, v, &mut self.aggs);
            merged = merged.merge(dom_counts(&self.aggs, ca));
        }
        merged.k_dominates(self.k)
    }

    /// Is `cand` k-dominated by some `u ⋈ v` with `u ∈ targets`,
    /// `v` join-compatible with `u`?
    pub fn dominated_via_left(&mut self, targets: &[u32], cand: &[f64]) -> bool {
        self.generation += 1;
        self.counters.targets_pruned += (self.cx.left().n().saturating_sub(targets.len())) as u64;
        let (cl, cr, ca) = self.segments(cand);
        for &u in targets {
            let Some(lc) = self.left_half(u, cl) else {
                continue;
            };
            for &v in self.cx.right_partners(u) {
                if self.merged_dominates(u, v, lc, true, cr, ca) {
                    return true;
                }
            }
        }
        false
    }

    /// Is `cand` k-dominated by some `u ⋈ v` with `v ∈ targets`,
    /// `u` join-compatible with `v`?
    pub fn dominated_via_right(&mut self, targets: &[u32], cand: &[f64]) -> bool {
        self.generation += 1;
        self.counters.targets_pruned += (self.cx.right().n().saturating_sub(targets.len())) as u64;
        let (cl, cr, ca) = self.segments(cand);
        for &v in targets {
            let Some(rc) = self.right_half(v, cr) else {
                continue;
            };
            for &u in self.cx.left_partners(v) {
                if self.merged_dominates(u, v, rc, false, cl, ca) {
                    return true;
                }
            }
        }
        false
    }

    /// Is `cand` k-dominated by some `u ⋈ v` with `u ∈ left_targets` *and*
    /// `v ∈ right_targets` (the dominator-based algorithm's
    /// `dom(u) ⋈ dom(v)`)?
    pub fn dominated_via_both(
        &mut self,
        left_targets: &[u32],
        right_targets: &[u32],
        cand: &[f64],
    ) -> bool {
        self.generation += 1;
        self.counters.targets_pruned += (self.cx.left().n().saturating_sub(left_targets.len())
            + self.cx.right().n().saturating_sub(right_targets.len()))
            as u64;
        let (cl, cr, ca) = self.segments(cand);
        for &v in right_targets {
            self.rmask[v as usize] = true;
        }
        let mut found = false;
        'outer: for &u in left_targets {
            let Some(lc) = self.left_half(u, cl) else {
                continue;
            };
            for &v in self.cx.right_partners(u) {
                if self.rmask[v as usize] && self.merged_dominates(u, v, lc, true, cr, ca) {
                    found = true;
                    break 'outer;
                }
            }
        }
        for &v in right_targets {
            self.rmask[v as usize] = false;
        }
        found
    }
}

/// Gather the right relation's local-attribute columns permuted into the
/// join's right scan order: local `j`'s values occupy `out[j·n..(j+1)·n]`,
/// indexed by *scan position* rather than tuple id, so every partner span
/// is a contiguous stretch of each column.
fn permute_right_locals(cx: &JoinContext<'_>) -> Vec<f64> {
    let rel = cx.right();
    let n = rel.n();
    let locals = cx.right_local_attrs();
    let mut out = vec![0.0; n * locals.len()];
    for (j, &attr) in locals.iter().enumerate() {
        let col = rel.column(attr);
        let dst = &mut out[j * n..(j + 1) * n];
        for (pos, &t) in cx.right_scan_order().iter().enumerate() {
            dst[pos] = col[t as usize];
        }
    }
    out
}

/// The left relation's local attributes gathered row-major: tuple `u`'s
/// `l1` values at `[u·l1..(u+1)·l1]`, in joined-layout order.
fn gather_left_locals(cx: &JoinContext<'_>) -> Vec<f64> {
    let rel = cx.left();
    let locals = cx.left_local_attrs();
    let l1 = locals.len();
    let mut out = vec![0.0; rel.n() * l1];
    for (i, &attr) in locals.iter().enumerate() {
        for (u, &v) in rel.column(attr).iter().enumerate() {
            out[u * l1 + i] = v;
        }
    }
    out
}

/// Scan one contiguous partner span for a partner in the right-target
/// mask that, joined with the target leg `u` (left-half counts `lc`),
/// k-dominates the candidate: a blocked threshold prescan over the
/// partner-half `≤` counts finds the rare positions whose merged counts
/// could still reach `k`; only those pay the aggregate fill. Verdicts are identical to the oracle's per-pair
/// merge — same skip condition, same final formula, same scan order.
#[allow(clippy::too_many_arguments)]
fn scan_span(
    cx: &JoinContext<'_>,
    k: usize,
    u: u32,
    lc: DomCounts,
    span: Range<usize>,
    le: &[u32],
    lt: &[u32],
    mask: &[bool],
    aggs: &mut [f64],
    ca: &[f64],
    counters: &mut CheckCounters,
) -> bool {
    let a = cx.a();
    // A pair is worth the aggregate segment iff even perfect aggregates
    // could lift `≤` to k: lc.le + partner.le + a ≥ k.
    let need: u32 = k.saturating_sub(lc.le as usize + a).min(u32::MAX as usize) as u32;
    let order = cx.right_scan_order();
    const BLOCK: usize = 64;
    let mut p = span.start;
    while p < span.end {
        let end = (p + BLOCK).min(span.end);
        // Branch-free OR-reduction over the block; the compiler vectorises
        // the threshold compare against the contiguous u32 counts.
        let mut any = false;
        for (&c, &allowed) in le[p..end].iter().zip(&mask[p..end]) {
            any |= allowed & (c >= need);
        }
        if any {
            for q in p..end {
                if le[q] < need || !mask[q] {
                    continue;
                }
                let mut mle = lc.le + le[q];
                let mut mlt = lc.lt + lt[q];
                if a > 0 {
                    counters.attr_cmps += a as u64;
                    cx.fill_aggs(u, order[q], aggs);
                    let ac = dom_counts(aggs, ca);
                    mle += ac.le;
                    mlt += ac.lt;
                }
                if mle as usize >= k && mlt >= 1 {
                    counters.dom_tests += (end - span.start) as u64;
                    return true;
                }
            }
        }
        p = end;
    }
    counters.dom_tests += span.len() as u64;
    false
}

/// The columnar verifier for candidates given as **joined rows**: the
/// dominator-based algorithm's `dom(u′) ⋈ dom(v′)` reference path. Same
/// verdicts as
/// [`JoinedCheck`] (the scalar row-major oracle), but the partner-half
/// `≤`/`<` counts are computed by stride-1 lane-blocked sweeps over the
/// right local columns permuted into the join's *scan order*, where every
/// partner set is one contiguous range
/// ([`JoinContext::right_partner_span`]).
///
/// Per probe the verifier fills the count arrays for each partner block
/// (one span per equality group, the whole side for theta/Cartesian
/// joins) at most once — generation-stamped like the oracle's memo — and
/// the per-pair test collapses to a vectorisable threshold compare over
/// contiguous `u32` counts; only pairs that could still reach `k` touch
/// the `a` aggregate positions.
#[derive(Debug)]
pub struct ColumnarCheck<'b, 'a> {
    cx: &'b JoinContext<'a>,
    k: usize,
    equality: bool,
    /// Left local attributes gathered row-major (`l1` per tuple), so a
    /// target leg's counts read one contiguous slice.
    lrows: Vec<f64>,
    /// Right local columns permuted into scan order.
    rperm: Vec<f64>,
    /// Right tuple id → scan position (two-sided masks).
    rpos: Vec<u32>,
    /// Scratch for the `a` aggregate values of one pair.
    aggs: Vec<f64>,
    /// Per-probe partner-half counts, indexed by scan position, with
    /// generation stamps per filled block (keyed by span start — equality
    /// spans tile the order, other specs fill the whole side under key 0).
    rc_le: Vec<u32>,
    rc_lt: Vec<u32>,
    rstamp: Vec<u64>,
    /// Right-target membership by scan position (two-sided checks).
    rmask: Vec<bool>,
    generation: u64,
    counters: CheckCounters,
}

impl<'b, 'a> ColumnarCheck<'b, 'a> {
    /// A columnar verifier for candidates of `cx`'s join under
    /// `k`-dominance.
    pub fn new(cx: &'b JoinContext<'a>, k: usize) -> Self {
        let n2 = cx.right().n();
        let mut rpos = vec![0u32; n2];
        for (pos, &t) in cx.right_scan_order().iter().enumerate() {
            rpos[t as usize] = pos as u32;
        }
        ColumnarCheck {
            k,
            equality: matches!(cx.spec(), ksjq_join::JoinSpec::Equality),
            lrows: gather_left_locals(cx),
            rperm: permute_right_locals(cx),
            rpos,
            aggs: vec![0.0; cx.a()],
            rc_le: vec![0; n2],
            rc_lt: vec![0; n2],
            rstamp: vec![0; n2 + 1],
            rmask: vec![false; n2],
            generation: 0,
            counters: CheckCounters::default(),
            cx,
        }
    }

    /// The work counters accumulated so far.
    pub fn counters(&self) -> CheckCounters {
        self.counters
    }

    /// Fill the right-side counts covering `span` for the current probe if
    /// not already stamped (whole side for non-equality specs, whose spans
    /// overlap).
    fn ensure_right(&mut self, span: &Range<usize>, cr: &[f64]) {
        let n2 = self.cx.right().n();
        let (key, fill) = if self.equality {
            (span.start, span.clone())
        } else {
            (0, 0..n2)
        };
        if self.rstamp[key] == self.generation {
            return;
        }
        self.rc_le[fill.clone()].fill(0);
        self.rc_lt[fill.clone()].fill(0);
        for (j, &b) in cr.iter().enumerate() {
            accumulate_le_lt(
                &self.rperm[j * n2 + fill.start..j * n2 + fill.end],
                b,
                &mut self.rc_le[fill.clone()],
                &mut self.rc_lt[fill.clone()],
            );
        }
        self.counters.attr_cmps += (fill.len() * cr.len()) as u64;
        self.rstamp[key] = self.generation;
    }

    /// Left target legs in the given order, each against its partner span
    /// masked to the right targets.
    fn scan(&mut self, targets: &[u32], cand: &[f64]) -> bool {
        let cx = self.cx;
        let (l1, l2) = (cx.l1(), cx.l2());
        debug_assert_eq!(cand.len(), l1 + l2 + cx.a());
        let (cl, rest) = cand.split_at(l1);
        let (cr, ca) = rest.split_at(l2);
        for &u in targets {
            self.counters.attr_cmps += l1 as u64;
            let lc = dom_counts(&self.lrows[u as usize * l1..(u as usize + 1) * l1], cl);
            if lc.le as usize + l2 + cx.a() < self.k {
                self.counters.targets_pruned += 1;
                continue;
            }
            let span = cx.right_partner_span(u);
            if span.is_empty() {
                continue;
            }
            self.ensure_right(&span, cr);
            if scan_span(
                cx,
                self.k,
                u,
                lc,
                span,
                &self.rc_le,
                &self.rc_lt,
                &self.rmask,
                &mut self.aggs,
                ca,
                &mut self.counters,
            ) {
                return true;
            }
        }
        false
    }

    /// Is `cand` k-dominated by some `u ⋈ v` with `u ∈ left_targets` *and*
    /// `v ∈ right_targets` (the dominator-based algorithm's
    /// `dom(u) ⋈ dom(v)`)?
    pub fn dominated_via_both(
        &mut self,
        left_targets: &[u32],
        right_targets: &[u32],
        cand: &[f64],
    ) -> bool {
        self.generation += 1;
        self.counters.targets_pruned += (self.cx.left().n().saturating_sub(left_targets.len())
            + self.cx.right().n().saturating_sub(right_targets.len()))
            as u64;
        for &v in right_targets {
            self.rmask[self.rpos[v as usize] as usize] = true;
        }
        let found = self.scan(left_targets, cand);
        for &v in right_targets {
            self.rmask[self.rpos[v as usize] as usize] = false;
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksjq_join::{AggFunc, JoinSpec};
    use ksjq_relation::{k_dominates, Relation, Schema};

    fn rel(groups: &[u64], rows: &[Vec<f64>]) -> Relation {
        Relation::from_grouped_rows(Schema::uniform(rows[0].len()).unwrap(), groups, rows).unwrap()
    }

    #[test]
    fn left_and_right_checks_agree_with_exhaustive() {
        let r1 = rel(
            &[0, 0, 1],
            &[vec![1.0, 5.0], vec![2.0, 2.0], vec![0.0, 0.0]],
        );
        let r2 = rel(&[0, 1], &[vec![1.0, 1.0], vec![9.0, 9.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let k = 3;
        let all_left: Vec<u32> = vec![0, 1, 2];
        let all_right: Vec<u32> = vec![0, 1];
        let mut chk = JoinedCheck::new(&cx, k);

        // Exhaustive truth for each joined tuple.
        let m = cx.materialize();
        for (i, &(u, v)) in m.pairs.iter().enumerate() {
            let cand = m.row(i).to_vec();
            let exhaustive = m
                .pairs
                .iter()
                .enumerate()
                .any(|(j, _)| j != i && k_dominates(m.row(j), &cand, k));
            assert_eq!(
                chk.dominated_via_left(&all_left, &cand),
                exhaustive,
                "left check for ({u},{v})"
            );
            assert_eq!(
                chk.dominated_via_right(&all_right, &cand),
                exhaustive,
                "right check for ({u},{v})"
            );
            assert_eq!(
                chk.dominated_via_both(&all_left, &all_right, &cand),
                exhaustive,
                "both check for ({u},{v})"
            );
        }
        let c = chk.counters();
        assert!(c.dom_tests > 0);
        assert!(c.attr_cmps > 0);
    }

    #[test]
    fn restricting_targets_restricts_dominators() {
        // (2.0, 2.0) in group 0 is dominated only via u = 0.
        let r1 = rel(&[0, 0], &[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let r2 = rel(&[0], &[vec![1.0, 1.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let mut chk = JoinedCheck::new(&cx, 4);
        let cand = cx.joined_row(1, 0);
        assert!(chk.dominated_via_left(&[0], &cand));
        assert!(!chk.dominated_via_left(&[1], &cand));
        assert!(chk.dominated_via_both(&[0], &[0], &cand));
        assert!(!chk.dominated_via_both(&[1], &[0], &cand));
    }

    #[test]
    fn mask_is_cleared_between_calls() {
        let r1 = rel(&[0, 0], &[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let r2 = rel(&[0, 0], &[vec![1.0, 1.0], vec![5.0, 5.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let mut chk = JoinedCheck::new(&cx, 4);
        let cand = cx.joined_row(1, 0);
        assert!(chk.dominated_via_both(&[0], &[0], &cand));
        // Second call with a right-target set that excludes v = 0: the
        // mask from the first call must not leak (joined(0,1) = (1,1,5,5)
        // does not dominate cand = (2,2,1,1)).
        assert!(!chk.dominated_via_both(&[0], &[1], &cand));
    }

    /// The split kernel's verdicts must equal materialise-then-`k_dominates`
    /// on an aggregate join (the segment where left and right legs mix).
    #[test]
    fn split_kernel_matches_materialized_with_aggregates() {
        let schema = || Schema::uniform_agg(1, 2).unwrap();
        let mut state = 2024u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mk = |next: &mut dyn FnMut(u64) -> u64| {
            let mut b = Relation::builder(schema());
            for _ in 0..40 {
                let g = next(3);
                let row = [next(7) as f64, next(7) as f64, next(7) as f64];
                b.add_grouped(g, &row).unwrap();
            }
            b.build().unwrap()
        };
        let r1 = mk(&mut next);
        let r2 = mk(&mut next);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        let all_left: Vec<u32> = (0..r1.n() as u32).collect();
        let all_right: Vec<u32> = (0..r2.n() as u32).collect();
        let mut scratch = vec![0.0; cx.d_joined()];
        for k in 4..=cx.d_joined() {
            let mut chk = JoinedCheck::new(&cx, k);
            let m = cx.materialize();
            for (i, _) in m.pairs.iter().enumerate() {
                let cand = m.row(i).to_vec();
                let mut expect_left = false;
                for &u in &all_left {
                    for &v in cx.right_partners(u) {
                        cx.fill(u, v, &mut scratch);
                        expect_left |= k_dominates(&scratch, &cand, k);
                    }
                }
                assert_eq!(
                    chk.dominated_via_left(&all_left, &cand),
                    expect_left,
                    "k={k} candidate {i}"
                );
                assert_eq!(
                    chk.dominated_via_right(&all_right, &cand),
                    expect_left,
                    "k={k} candidate {i}"
                );
            }
        }
    }

    /// The left-half hoist must save comparisons relative to re-comparing
    /// the full joined arity per partner pair.
    #[test]
    fn counters_reflect_the_hoist() {
        // One target with many partners: the left half is counted once.
        let r1 = rel(&[0], &[vec![5.0, 5.0]]);
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 9.0 - i as f64]).collect();
        let r2 = rel(&[0; 10], &rows);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let mut chk = JoinedCheck::new(&cx, 4);
        let cand = vec![5.0, 5.0, 4.0, 5.0];
        let _ = chk.dominated_via_left(&[0], &cand);
        let c = chk.counters();
        // 2 left-local comparisons once + 2 right-local per partner, never
        // 4 per pair.
        assert_eq!(c.dom_tests, 10);
        assert_eq!(c.attr_cmps, 2 + 10 * 2);
    }

    /// The columnar verifier and the leg kernel (its left target sets
    /// restricted to a universe, as maintenance uses it) must return the
    /// oracle's verdicts, for an aggregate join over random data and
    /// every valid k — including arbitrary (restricted) target sets.
    #[test]
    fn columnar_matches_oracle_on_aggregate_join() {
        let schema = || Schema::uniform_agg(1, 2).unwrap();
        let mut state = 555u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mk = |next: &mut dyn FnMut(u64) -> u64| {
            let mut b = Relation::builder(schema());
            for _ in 0..36 {
                let g = next(3);
                let row = [next(6) as f64, next(6) as f64, next(6) as f64];
                b.add_grouped(g, &row).unwrap();
            }
            b.build().unwrap()
        };
        let r1 = mk(&mut next);
        let r2 = mk(&mut next);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        let m = cx.materialize();
        for k in 4..=cx.d_joined() {
            let params = validate_k(&cx, k).unwrap();
            let mut oracle = JoinedCheck::new(&cx, k);
            let mut columnar = ColumnarCheck::new(&cx, k);
            for (i, &(u, v)) in m.pairs.iter().enumerate().take(24) {
                let cand = m.row(i).to_vec();
                // Restricted target sets exercise the mask / span logic.
                let lt: Vec<u32> = (0..r1.n() as u32).filter(|t| t % 2 == u % 2).collect();
                let rt: Vec<u32> = (0..r2.n() as u32).filter(|t| t % 3 == v % 3).collect();
                let mut bit = None;
                check_pairs(&cx, &params, &[(u, v)], Some(&lt), 1, None, |_, _, d| {
                    bit = Some(d)
                })
                .unwrap();
                assert_eq!(
                    bit,
                    Some(oracle.dominated_via_left(&lt, &cand)),
                    "legs within ({u},{v}) k={k}"
                );
                assert_eq!(
                    columnar.dominated_via_both(&lt, &rt, &cand),
                    oracle.dominated_via_both(&lt, &rt, &cand),
                    "via_both ({u},{v}) k={k}"
                );
            }
            let c = columnar.counters();
            assert!(c.dom_tests > 0 && c.attr_cmps > 0, "{c:?}");
        }
    }

    #[test]
    fn columnar_mask_is_cleared_between_calls() {
        let r1 = rel(&[0, 0], &[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let r2 = rel(&[0, 0], &[vec![1.0, 1.0], vec![5.0, 5.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let mut chk = ColumnarCheck::new(&cx, 4);
        let cand = cx.joined_row(1, 0);
        assert!(chk.dominated_via_both(&[0], &[0], &cand));
        assert!(!chk.dominated_via_both(&[0], &[1], &cand));
    }

    /// Per-call target pruning accounting: a restricted target set counts
    /// the excluded legs in both row verifiers.
    #[test]
    fn targets_pruned_counts_excluded_legs() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let r1 = rel(&[0; 10], &rows);
        let r2 = rel(&[0], &[vec![5.0, 5.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let cand = cx.joined_row(4, 0);
        let mut oracle = JoinedCheck::new(&cx, 4);
        let _ = oracle.dominated_via_left(&[1, 2, 3], &cand);
        assert_eq!(oracle.counters().targets_pruned, 7);
        let mut columnar = ColumnarCheck::new(&cx, 4);
        let _ = columnar.dominated_via_both(&[1, 2, 3], &[0], &cand);
        assert_eq!(columnar.counters().targets_pruned, 7);
    }

    /// The leg kernel's survivors must equal an exhaustive scan of the
    /// materialised join, for an aggregate equality join and every k.
    #[test]
    fn leg_kernel_matches_exhaustive_scan() {
        let schema = || Schema::uniform_agg(1, 2).unwrap();
        let mut state = 8080u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mk = |next: &mut dyn FnMut(u64) -> u64| {
            let mut b = Relation::builder(schema());
            for _ in 0..30 {
                let g = next(3);
                let row = [next(5) as f64, next(5) as f64, next(5) as f64];
                b.add_grouped(g, &row).unwrap();
            }
            b.build().unwrap()
        };
        let r1 = mk(&mut next);
        let r2 = mk(&mut next);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        let m = cx.materialize();
        for k in crate::params::k_min(&cx)..=cx.d_joined() {
            let mut survivors = Vec::new();
            let c = verify_candidates(&cx, k, &m.pairs, 1, None, |u, v| survivors.push((u, v)))
                .unwrap();
            survivors.sort_unstable();
            let expected: Vec<(u32, u32)> = (0..m.n())
                .filter(|&i| !(0..m.n()).any(|j| k_dominates(m.row(j), m.row(i), k)))
                .map(|i| m.pairs[i])
                .collect();
            assert_eq!(survivors, expected, "k={k}");
            assert!(c.dom_tests > 0, "k={k}: {c:?}");
        }
    }

    /// Run the kernel over `legs` (in pair order) with a right leg's
    /// direct budget forced to `budget`: 0 loads every `τ(v′)` a target
    /// could use, `u64::MAX` never loads one. One bit per pair, plus all
    /// counters.
    fn forced(
        cx: &JoinContext<'_>,
        k: usize,
        legs: &Legs,
        universe: Option<&[u32]>,
        budget: u64,
    ) -> (Vec<bool>, CheckCounters) {
        let params = validate_k(cx, k).unwrap();
        let (mut ix, mut counters) =
            LegIndex::build(cx, &params, (&legs.left, &legs.right), universe, 1, None).unwrap();
        ix.sweep_cost = budget;
        let mut chk = LegCheck::new(&ix);
        let mut bits = Vec::new();
        chk.check_all(&legs.pairs, || Ok(()), |_, d| bits.push(d))
            .unwrap();
        counters.absorb(chk.counters());
        (bits, counters)
    }

    /// The direct and the bucketed scan must give identical verdict bits
    /// over the same legs — equal to the oracle's and to the on-demand
    /// switch's ([`check_pairs`]) — on equality, theta and Cartesian
    /// joins, with and without aggregates, over every left tuple and over
    /// a restricted left universe.
    #[test]
    fn direct_and_bucketed_scans_agree() {
        use ksjq_join::ThetaOp;
        let mut state = 4242u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut paths_differ = false;
        for spec in [
            JoinSpec::Equality,
            JoinSpec::Theta(ThetaOp::Lt),
            JoinSpec::Cartesian,
        ] {
            for funcs in [vec![], vec![AggFunc::Sum]] {
                let schema = Schema::uniform_agg(funcs.len(), 3).unwrap();
                let mut mk = || {
                    let mut b = Relation::builder(schema.clone());
                    for _ in 0..14 {
                        let row: Vec<f64> = (0..schema.d()).map(|_| next(4) as f64).collect();
                        match spec {
                            JoinSpec::Equality => b.add_grouped(next(3), &row),
                            JoinSpec::Theta(_) => b.add_keyed(next(5) as f64, &row),
                            JoinSpec::Cartesian => b.add(&row),
                        }
                        .unwrap();
                    }
                    b.build().unwrap()
                };
                let (r1, r2) = (mk(), mk());
                let cx = JoinContext::new(&r1, &r2, spec, &funcs).unwrap();
                let m = cx.materialize();
                let (legs, _, _) = Legs::gather(&cx, m.pairs.clone());
                let all: Vec<u32> = (0..r1.n() as u32).collect();
                let evens: Vec<u32> = all.iter().copied().filter(|t| t % 2 == 0).collect();
                for k in crate::params::k_min(&cx)..=cx.d_joined() {
                    for universe in [None, Some(&evens[..])] {
                        let label = format!("{spec:?} a={} k={k} {universe:?}", funcs.len());
                        let (direct, dc) = forced(&cx, k, &legs, universe, u64::MAX);
                        let (bucketed, bc) = forced(&cx, k, &legs, universe, 0);
                        assert_eq!(direct, bucketed, "{label}");
                        paths_differ |= dc != bc;
                        let params = validate_k(&cx, k).unwrap();
                        let mut auto = Vec::new();
                        check_pairs(&cx, &params, &m.pairs, universe, 1, None, |u, v, d| {
                            auto.push(((u, v), d))
                        })
                        .unwrap();
                        auto.sort_unstable();
                        let mut want: Vec<_> =
                            m.pairs.iter().copied().zip(direct.clone()).collect();
                        want.sort_unstable();
                        assert_eq!(auto, want, "{label}");
                        let mut oracle = JoinedCheck::new(&cx, k);
                        let targets = universe.unwrap_or(&all);
                        for (i, &bit) in direct.iter().enumerate() {
                            let want = oracle.dominated_via_left(targets, m.row(i));
                            assert_eq!(bit, want, "{label} candidate {i}");
                        }
                    }
                }
            }
        }
        assert!(paths_differ, "the forced budgets never changed the path");
    }

    /// Every distinct leg is swept at most once, however many candidates
    /// share it: with every `τ(v′)` loaded, at `a = 0` the comparisons are
    /// `n·l` per distinct left leg plus `n·l` per distinct right leg, and
    /// nothing else. On demand, both right legs here are shared by more
    /// candidates than one sweep's budget covers (every candidate would
    /// read a whole 5-tuple group), so each is loaded before its first
    /// candidate, without direct reads; the counters do not depend on
    /// the thread count.
    #[test]
    fn each_leg_is_swept_at_most_once() {
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 4.0 - i as f64]).collect();
        let r1 = rel(&[0; 5], &rows);
        let r2 = rel(&[0; 5], &rows);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        // Left legs {0, 1, 2}, right legs {0, 3}; order is irrelevant.
        let pairs = [(0, 3), (1, 0), (2, 0), (1, 3), (0, 0)];
        let (legs, _, _) = Legs::gather(&cx, by_right_leg(&pairs, 5, |p| p.1));
        let (_, loaded) = forced(&cx, 3, &legs, None, 0);
        assert_eq!(loaded.attr_cmps, 3 * 5 * 2 + 2 * 5 * 2, "{loaded:?}");
        let c = verify_candidates(&cx, 3, &pairs, 1, None, |_, _| {}).unwrap();
        assert_eq!(c, loaded);
        let threaded = verify_candidates(&cx, 3, &pairs, 2, None, |_, _| {}).unwrap();
        assert_eq!(threaded, c);
    }

    /// Legs are gathered once each, in ascending tuple id, as their
    /// local values then their aggregate inputs; pairs keep their order.
    #[test]
    fn gather_lays_out_locals_then_aggregate_inputs() {
        // Attribute 0 is the aggregate, 1 and 2 the locals.
        let schema = || Schema::uniform_agg(1, 2).unwrap();
        let rows = |base: f64| -> Vec<Vec<f64>> {
            (0..3)
                .map(|i| vec![base + i as f64, 10.0 + i as f64, 20.0 + i as f64])
                .collect()
        };
        let r1 = Relation::from_grouped_rows(schema(), &[0, 0, 0], &rows(0.0)).unwrap();
        let r2 = Relation::from_grouped_rows(schema(), &[0, 0, 0], &rows(100.0)).unwrap();
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum]).unwrap();
        let (legs, lids, rids) = Legs::gather(&cx, vec![(2, 1), (0, 1), (2, 0)]);
        assert_eq!((lids, rids), (vec![0, 2], vec![0, 1]));
        assert_eq!(legs.left, vec![10.0, 20.0, 0.0, 12.0, 22.0, 2.0]);
        assert_eq!(legs.right, vec![10.0, 20.0, 100.0, 11.0, 21.0, 101.0]);
        assert_eq!(legs.pairs, vec![(1, 1), (0, 1), (1, 0)]);
        // Checking a join's own pairs as legs gives the kernel's verdicts.
        let m = cx.materialize();
        let (all, _, _) = Legs::gather(&cx, m.pairs.clone());
        let (bits, _) = verify_legs(&cx, 4, &all, None).unwrap();
        let mut kept = Vec::new();
        verify_candidates(&cx, 4, &m.pairs, 1, None, |u, v| kept.push((u, v))).unwrap();
        kept.sort_unstable();
        let survivors: Vec<(u32, u32)> = m
            .pairs
            .iter()
            .zip(&bits)
            .filter(|&(_, &dominated)| !dominated)
            .map(|(&p, _)| p)
            .collect();
        assert_eq!(survivors, kept);
    }

    #[test]
    fn by_right_leg_groups_stably() {
        let pairs = [(5, 2), (1, 0), (3, 2), (0, 1), (4, 0)];
        assert_eq!(
            by_right_leg(&pairs, 3, |p| p.1),
            vec![(1, 0), (4, 0), (0, 1), (5, 2), (3, 2)]
        );
    }

    #[test]
    fn expired_deadline_stops_the_leg_kernel() {
        use std::time::Duration;
        let rows: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64, 3.0 - i as f64]).collect();
        let r = rel(&[0; 4], &rows);
        let cx = JoinContext::new(&r, &r, JoinSpec::Equality, &[]).unwrap();
        let past = Some(Instant::now() - Duration::from_millis(1));
        for threads in [1, 2] {
            assert_eq!(
                verify_candidates(&cx, 3, &[(0, 0), (1, 1)], threads, past, |_, _| {}),
                Err(crate::CoreError::DeadlineExceeded)
            );
        }
    }

    #[test]
    fn counters_absorb_accumulates() {
        let mut a = CheckCounters {
            dom_tests: 1,
            attr_cmps: 2,
            targets_pruned: 3,
        };
        a.absorb(CheckCounters {
            dom_tests: 10,
            attr_cmps: 20,
            targets_pruned: 30,
        });
        assert_eq!(
            a,
            CheckCounters {
                dom_tests: 11,
                attr_cmps: 22,
                targets_pruned: 33,
            }
        );
    }
}
