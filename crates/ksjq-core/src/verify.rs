//! Candidate verification: the two-sided leg kernel of the grouping
//! algorithm, plus the row-probe verifiers.
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
//! Candidates are verified by leg ids, grouped by their right leg `v′`.
//! For each distinct `v′` the kernel runs the same columnar sweep as
//! [`crate::target::target_set_with`] **once**, keeping every member of
//! `τ(v′)` with its right-local `≤`/`<` counts (8 bytes a member). The
//! members are bucketed by partner span — one bucket per right group for
//! equality joins, a single bucket for theta and Cartesian joins — and
//! each bucket is sorted by `≤` count, descending. Every candidate left
//! leg's `τ(u′)` is built once per execution the same way, in ascending
//! attribute-sum order (SFS presorting: likely dominators come first, so
//! dominated candidates exit early), with left tuples that join nothing
//! dropped.
//!
//! Checking `(u′, v′)` walks `u ∈ τ(u′)`. An O(1) per-left-tuple slot
//! names the bucket of `u`'s partners. With `need = k − a − le(u)` the
//! scan stops at the first bucket member whose `≤` count is below
//! `need`: even perfect aggregates could not lift it, or anything after
//! it, to `k`. Most targets fail on the bucket's first member, so a
//! branch-free prescan over blocks of targets picks out the few worth
//! scanning. Theta joins additionally skip members outside `u`'s partner
//! span. Only members that pass are charged the `a` aggregate positions
//! (from aggregate columns gathered once per call), and the verdict uses
//! the exact merged counts, so results are byte-identical to the naive
//! algorithm — the facade's differential suite checks this across join
//! kinds, `a`, ties and thread counts.
//!
//! # Row probes
//!
//! Incremental maintenance and the distributed `CHECK` probe with
//! external joined rows that have no leg id to memoise on; they use
//! [`ColumnarCheck::dominated_via_left`] over `τ(u′) ⋈ R2`. The
//! dominator-based algorithm keeps [`ColumnarCheck::dominated_via_both`],
//! an independent kernel the benchmark uses as its correctness reference.
//! [`JoinedCheck`] is the scalar row-major oracle of both.

use crate::cancel::Checkpoint;
use crate::error::CoreResult;
use crate::params::{validate_k, KsjqParams};
use crate::target::{attr_sums, local_counts, order_by_attr_sum, TargetScratch};
use ksjq_join::{JoinContext, JoinSpec};
use ksjq_relation::{accumulate_le_lt, dom_counts, dom_counts_partial, DomCounts, Relation};
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

/// The execution-wide, read-only half of the leg kernel: the right
/// bucket layout, each left tuple's bucket slot, and `τ(u′)` with counts
/// for every candidate left leg. Built once per [`verify_candidates`]
/// call and shared by its workers.
pub(crate) struct LegIndex<'b, 'a> {
    cx: &'b JoinContext<'a>,
    k: usize,
    k2_pp: usize,
    /// Right scan position → bucket (the right group for equality joins,
    /// 0 otherwise). Non-decreasing: buckets are contiguous in scan order.
    pos_bucket: Vec<u32>,
    buckets: usize,
    /// Left tuple → the bucket holding its partners, or [`NO_BUCKET`].
    slot: Vec<u32>,
    /// Left tuple → its partner span in right scan positions. Theta joins
    /// only: their spans cut through the single bucket.
    span: Vec<(u32, u32)>,
    /// Left tuple `u′` → the range of `τ(u′)` within `members` (empty for
    /// tuples that are no candidate's left leg).
    left: Vec<(u32, u32)>,
    members: Vec<Member>,
    /// Aggregate inputs gathered once: `lagg[u·a + s]` is left tuple
    /// `u`'s slot-`s` value, `ragg[p·a + s]` that of the right tuple at
    /// scan position `p`.
    lagg: Vec<f64>,
    ragg: Vec<f64>,
}

impl<'b, 'a> LegIndex<'b, 'a> {
    /// Lay out `cx`'s buckets and build `τ(u′)` for every left leg of
    /// `pairs`, sharding the sweeps over `threads` workers. Returns the
    /// sweeps' comparison count alongside (deterministic: each leg is
    /// swept exactly once whatever the thread count).
    fn build(
        cx: &'b JoinContext<'a>,
        params: &KsjqParams,
        pairs: &[(u32, u32)],
        threads: usize,
        deadline: Option<Instant>,
    ) -> CoreResult<(Self, CheckCounters)> {
        // Schemas cap their arity at `Schema::MAX_ATTRS`, so every local
        // count fits a member's 16-bit fields.
        debug_assert!(params.l1.max(params.l2) <= u16::MAX as usize);
        let (left, right) = (cx.left(), cx.right());
        let (n1, n2) = (left.n(), right.n());
        let (pos_bucket, buckets) = match cx.spec() {
            JoinSpec::Equality => {
                let groups = right.group_index().expect("validated equality join");
                let mut pos_bucket = Vec::with_capacity(n2);
                for (b, (_, members)) in groups.iter().enumerate() {
                    pos_bucket.extend(std::iter::repeat_n(b as u32, members.len()));
                }
                (pos_bucket, groups.group_count())
            }
            _ => (vec![0; n2], 1),
        };
        let theta = matches!(cx.spec(), JoinSpec::Theta(_));
        let mut slot = Vec::with_capacity(n1);
        let mut span = Vec::new();
        for u in 0..n1 as u32 {
            let s = cx.right_partner_span(u);
            slot.push(if s.is_empty() {
                NO_BUCKET
            } else {
                pos_bucket[s.start]
            });
            if theta {
                span.push((s.start as u32, s.end as u32));
            }
        }

        // τ(u′) of every distinct left leg, sharded over workers.
        let mut is_leg = vec![false; n1];
        for &(u, _) in pairs {
            is_leg[u as usize] = true;
        }
        let legs: Vec<u32> = (0..n1 as u32).filter(|&u| is_leg[u as usize]).collect();
        let scores = attr_sums(left);
        let locals = cx.left_local_attrs();
        let ranges = crate::parallel::even_ranges(legs.len(), threads);
        let parts = crate::parallel::run_ranges(&ranges, |range, cancelled| {
            let mut cp = Checkpoint::new(deadline);
            let mut scratch = TargetScratch::default();
            let mut ids = Vec::new();
            let (mut members, mut ends) = (Vec::new(), Vec::with_capacity(range.len()));
            for &u in &legs[range] {
                cp.tick_shared(cancelled)?;
                let (le, lt) = local_counts(left, locals, u, &mut scratch);
                ids.clear();
                ids.extend((0..n1 as u32).filter(|&t| {
                    le[t as usize] as usize >= params.k1_pp && slot[t as usize] != NO_BUCKET
                }));
                order_by_attr_sum(&mut ids, &scores);
                members.extend(ids.iter().map(|&t| Member {
                    at: t,
                    le: le[t as usize] as u16,
                    lt: lt[t as usize] as u16,
                }));
                ends.push(members.len() as u32);
            }
            Ok((members, ends))
        })?;
        let mut left_ranges = vec![(0u32, 0u32); n1];
        let mut members = Vec::with_capacity(parts.iter().map(|(m, _)| m.len()).sum());
        for (range, (part, ends)) in ranges.into_iter().zip(parts) {
            let base = members.len() as u32;
            let mut start = base;
            for (&u, &end) in legs[range].iter().zip(&ends) {
                left_ranges[u as usize] = (start, base + end);
                start = base + end;
            }
            members.extend(part);
        }
        let lagg = gather_aggs(left, params.a, 0..n1 as u32);
        let ragg = gather_aggs(right, params.a, cx.right_scan_order().iter().copied());
        let counters = CheckCounters {
            attr_cmps: (legs.len() * n1 * params.l1) as u64,
            ..CheckCounters::default()
        };
        Ok((
            LegIndex {
                cx,
                k: params.k,
                k2_pp: params.k2_pp,
                pos_bucket,
                buckets,
                slot,
                span,
                left: left_ranges,
                members,
                lagg,
                ragg,
            },
            counters,
        ))
    }

    /// `τ(u′)` with left-local counts, ascending attribute sum.
    fn left_targets(&self, u: u32) -> &[Member] {
        let (s, e) = self.left[u as usize];
        &self.members[s as usize..e as usize]
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

/// One worker's half of the leg kernel: the memo of the current right leg
/// `τ(v′)` (bucketed, each bucket `≤`-count descending) plus scratch.
pub(crate) struct LegCheck<'i, 'b, 'a> {
    ix: &'i LegIndex<'b, 'a>,
    /// The right leg whose `τ` is loaded (`u32::MAX`: none yet).
    leg: u32,
    right: Vec<Member>,
    /// `right[bucket_start[b]..bucket_start[b + 1]]` is bucket `b`.
    bucket_start: Vec<u32>,
    /// One more than bucket `b`'s highest `≤` count (its first member's);
    /// 0 for an empty bucket.
    top: Vec<u32>,
    scratch: TargetScratch,
    cand_aggs: Vec<f64>,
    counters: CheckCounters,
}

impl<'i, 'b, 'a> LegCheck<'i, 'b, 'a> {
    pub(crate) fn new(ix: &'i LegIndex<'b, 'a>) -> Self {
        let a = ix.cx.a();
        LegCheck {
            ix,
            leg: u32::MAX,
            right: Vec::new(),
            bucket_start: vec![0; ix.buckets + 1],
            top: vec![0; ix.buckets],
            scratch: TargetScratch::default(),
            cand_aggs: vec![0.0; a],
            counters: CheckCounters::default(),
        }
    }

    pub(crate) fn counters(&self) -> CheckCounters {
        self.counters
    }

    /// Sweep the right relation against `v′` and bucket `τ(v′)`.
    fn load(&mut self, v: u32) {
        let ix = self.ix;
        let cx = ix.cx;
        let right = cx.right();
        let (le, lt) = local_counts(right, cx.right_local_attrs(), v, &mut self.scratch);
        self.counters.attr_cmps += (right.n() * cx.l2()) as u64;
        self.right.clear();
        self.bucket_start.fill(0);
        for (pos, &t) in cx.right_scan_order().iter().enumerate() {
            let c = le[t as usize];
            if c as usize >= ix.k2_pp {
                self.right.push(Member {
                    at: pos as u32,
                    le: c as u16,
                    lt: lt[t as usize] as u16,
                });
                self.bucket_start[ix.pos_bucket[pos] as usize + 1] += 1;
            }
        }
        for b in 0..ix.buckets {
            self.bucket_start[b + 1] += self.bucket_start[b];
            let bucket =
                &mut self.right[self.bucket_start[b] as usize..self.bucket_start[b + 1] as usize];
            bucket.sort_unstable_by_key(|m| (Reverse(m.le), m.at));
            self.top[b] = bucket.first().map_or(0, |m| m.le as u32 + 1);
        }
        self.leg = v;
    }

    /// Is candidate `u′ ⋈ v′` k-dominated by some `u ⋈ v` with
    /// `u ∈ τ(u′)`, `v ∈ τ(v′)`? `u′` must be a left leg the index was
    /// built for; calls sharing `v′` should be consecutive.
    pub(crate) fn dominated(&mut self, u_prime: u32, v_prime: u32) -> bool {
        if self.leg != v_prime {
            self.load(v_prime);
        }
        let ix = self.ix;
        let cx = ix.cx;
        let targets = ix.left_targets(u_prime);
        self.counters.targets_pruned +=
            (cx.left().n() - targets.len() + cx.right().n() - self.right.len()) as u64;
        let a = cx.a();
        if a > 0 {
            cx.fill_aggs(u_prime, v_prime, &mut self.cand_aggs);
        }
        let k = ix.k as u32;
        // k > d ≥ a for every valid k.
        let k_minus_a = k - a as u32;
        // Most targets' buckets hold no member that could reach `k`: a
        // branch-free prescan over a block of targets finds the few whose
        // bucket does, and only those are scanned.
        const BLOCK: usize = 32;
        for block in targets.chunks(BLOCK) {
            let mut live = 0u32;
            for (i, m) in block.iter().enumerate() {
                let top = self.top[ix.slot[m.at as usize] as usize];
                live |= ((top > k_minus_a.saturating_sub(m.le as u32)) as u32) << i;
            }
            self.counters.targets_pruned += (block.len() - live.count_ones() as usize) as u64;
            while live != 0 {
                let m = block[live.trailing_zeros() as usize];
                live &= live - 1;
                let b = ix.slot[m.at as usize] as usize;
                let bucket =
                    &self.right[self.bucket_start[b] as usize..self.bucket_start[b + 1] as usize];
                let need = k_minus_a.saturating_sub(m.le as u32);
                let (lo, hi) = ix.span.get(m.at as usize).copied().unwrap_or((0, u32::MAX));
                let lagg = &ix.lagg[m.at as usize * a..][..a];
                for r in bucket {
                    if (r.le as u32) < need {
                        break;
                    }
                    if r.at < lo || r.at >= hi {
                        continue;
                    }
                    self.counters.dom_tests += 1;
                    let mut mle = m.le as u32 + r.le as u32;
                    let mut mlt = m.lt as u32 + r.lt as u32;
                    if a > 0 {
                        self.counters.attr_cmps += a as u64;
                        let ragg = &ix.ragg[r.at as usize * a..][..a];
                        for s in 0..a {
                            let v = cx.combine_slot(s, lagg[s], ragg[s]);
                            mle += (v <= self.cand_aggs[s]) as u32;
                            mlt += (v < self.cand_aggs[s]) as u32;
                        }
                    }
                    if mle >= k && mlt >= 1 {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Order `pairs` by right leg (stable counting sort), so every right
/// leg's candidates are consecutive and its `τ(v′)` is built once.
fn by_right_leg(pairs: &[(u32, u32)], n2: usize) -> Vec<(u32, u32)> {
    let mut next = vec![0u32; n2 + 1];
    for &(_, v) in pairs {
        next[v as usize + 1] += 1;
    }
    for i in 0..n2 {
        next[i + 1] += next[i];
    }
    let mut out = vec![(0, 0); pairs.len()];
    for &(u, v) in pairs {
        let at = &mut next[v as usize];
        out[*at as usize] = (u, v);
        *at += 1;
    }
    out
}

/// Verify candidate pairs `(u′, v′)` of `cx`'s join under `k`-dominance
/// with the two-sided leg kernel (see the module docs), calling
/// `sink(u′, v′)` for every survivor; returns the kernel's work counters.
///
/// This is the grouping algorithm's verification phase. With
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
    if pairs.is_empty() {
        return Ok(CheckCounters::default());
    }
    let pairs = by_right_leg(pairs, cx.right().n());
    let (ix, mut counters) = LegIndex::build(cx, &params, &pairs, threads, deadline)?;
    if threads <= 1 {
        let mut chk = LegCheck::new(&ix);
        let mut cp = Checkpoint::new(deadline);
        for &(u, v) in &pairs {
            cp.tick()?;
            if !chk.dominated(u, v) {
                sink(u, v);
            }
        }
        counters.absorb(chk.counters());
    } else {
        let (survivors, c) = crate::parallel::verify_parallel(&ix, &pairs, threads, deadline)?;
        counters.absorb(c);
        for (u, v) in survivors {
            sink(u, v);
        }
    }
    Ok(counters)
}

/// The scalar row-major oracle of the row-probe verifiers: for each
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
        let lc = dom_counts_partial(
            self.cx.left().row_at(u as usize),
            self.cx.left_local_attrs(),
            cl,
        );
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
        let rc = dom_counts_partial(
            self.cx.right().row_at(v as usize),
            self.cx.right_local_attrs(),
            cr,
        );
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
            self.rmemo[i] =
                dom_counts_partial(self.cx.right().row_at(i), self.cx.right_local_attrs(), cr);
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
            self.lmemo[i] =
                dom_counts_partial(self.cx.left().row_at(i), self.cx.left_local_attrs(), cl);
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

/// Scan one contiguous partner span for a partner that, joined with the
/// target leg `u` (left-half counts `lc`), k-dominates the candidate: a
/// blocked threshold prescan over the partner-half `≤` counts finds the
/// rare positions whose merged counts could still reach `k`; only those
/// pay the aggregate fill. Verdicts are identical to the oracle's per-pair
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
    mask: Option<&[bool]>,
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
        match mask {
            None => {
                for &c in &le[p..end] {
                    any |= c >= need;
                }
            }
            Some(m) => {
                for (&c, &allowed) in le[p..end].iter().zip(&m[p..end]) {
                    any |= allowed & (c >= need);
                }
            }
        }
        if any {
            for q in p..end {
                if le[q] < need || mask.is_some_and(|m| !m[q]) {
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
/// external probes of incremental maintenance and the distributed
/// `CHECK`, which have no leg id to memoise on, and the dominator-based
/// algorithm's `dom(u′) ⋈ dom(v′)` reference path. Same verdicts as
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

    /// The shared scan of both entry points: left target legs in the given
    /// order, each against its (optionally masked) partner span.
    fn scan(&mut self, targets: &[u32], cand: &[f64], masked: bool) -> bool {
        let cx = self.cx;
        let (l1, l2) = (cx.l1(), cx.l2());
        debug_assert_eq!(cand.len(), l1 + l2 + cx.a());
        let (cl, rest) = cand.split_at(l1);
        let (cr, ca) = rest.split_at(l2);
        for &u in targets {
            self.counters.attr_cmps += l1 as u64;
            let lc = dom_counts_partial(cx.left().row_at(u as usize), cx.left_local_attrs(), cl);
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
                masked.then_some(&self.rmask[..]),
                &mut self.aggs,
                ca,
                &mut self.counters,
            ) {
                return true;
            }
        }
        false
    }

    /// Is `cand` k-dominated by some `u ⋈ v` with `u ∈ targets`,
    /// `v` join-compatible with `u`?
    pub fn dominated_via_left(&mut self, targets: &[u32], cand: &[f64]) -> bool {
        self.generation += 1;
        self.counters.targets_pruned += (self.cx.left().n().saturating_sub(targets.len())) as u64;
        self.scan(targets, cand, false)
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
        let found = self.scan(left_targets, cand, true);
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

    /// The columnar verifier must return the oracle's verdicts on both
    /// entry points, for an aggregate join over random data and every
    /// valid k — including arbitrary (restricted) target sets.
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
            let mut oracle = JoinedCheck::new(&cx, k);
            let mut columnar = ColumnarCheck::new(&cx, k);
            for (i, &(u, v)) in m.pairs.iter().enumerate().take(24) {
                let cand = m.row(i).to_vec();
                // Restricted target sets exercise the mask / span logic.
                let lt: Vec<u32> = (0..r1.n() as u32).filter(|t| t % 2 == u % 2).collect();
                let rt: Vec<u32> = (0..r2.n() as u32).filter(|t| t % 3 == v % 3).collect();
                assert_eq!(
                    columnar.dominated_via_left(&lt, &cand),
                    oracle.dominated_via_left(&lt, &cand),
                    "via_left ({u},{v}) k={k}"
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
    /// the excluded legs in both verifiers.
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
        let _ = columnar.dominated_via_left(&[1, 2, 3], &cand);
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

    /// Every distinct leg is swept exactly once, however many candidates
    /// share it: at `a = 0` the comparisons are `n·l` per distinct left
    /// leg plus `n·l` per distinct right leg, and nothing else.
    #[test]
    fn each_leg_is_swept_once() {
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 4.0 - i as f64]).collect();
        let r1 = rel(&[0; 5], &rows);
        let r2 = rel(&[0; 5], &rows);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        // Left legs {0, 1, 2}, right legs {0, 3}; order is irrelevant.
        let pairs = [(0, 3), (1, 0), (2, 0), (1, 3), (0, 0)];
        let c = verify_candidates(&cx, 3, &pairs, 1, None, |_, _| {}).unwrap();
        assert_eq!(c.attr_cmps, 3 * 5 * 2 + 2 * 5 * 2, "{c:?}");
        let threaded = verify_candidates(&cx, 3, &pairs, 2, None, |_, _| {}).unwrap();
        assert_eq!(threaded, c);
    }

    #[test]
    fn by_right_leg_groups_stably() {
        let pairs = [(5, 2), (1, 0), (3, 2), (0, 1), (4, 0)];
        assert_eq!(
            by_right_leg(&pairs, 3),
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
