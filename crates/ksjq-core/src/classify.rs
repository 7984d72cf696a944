//! SS / SN / NN classification of base relations (paper Sec. 5.2).
//!
//! For each base tuple, with respect to `k′`-dominance:
//!
//! * [`Category::SS`] — not k′-dominated by *any* tuple of its relation
//!   (Def. 1: a k′-dominant skyline tuple overall);
//! * [`Category::SN`] — k′-dominated somewhere, but not by any tuple that
//!   *covers* it (Def. 2: a k′-dominant skyline of its join group only);
//! * [`Category::NN`] — k′-dominated by a coverer (Def. 3).
//!
//! "Coverers" generalise the paper's join groups uniformly across join
//! kinds: same-key tuples for equality joins, the key-order prefix/suffix
//! of Sec. 6.6 for theta joins, and the whole relation for Cartesian
//! products (which is why no tuple is ever `SN` there — exactly the
//! Sec. 6.5 special case).
//!
//! # Prefix-pruned search
//!
//! Each tuple is classified by one exact search for a k′-dominator that
//! visits only the tuples that could be one. If `c` k′-dominates `t`,
//! `c ≤ t` holds on at least `k′` of the `d` attributes, so `c > t` on at
//! most `d − k′` of them: among *any* `d − k′ + 1` attributes there is
//! one where `c ≤ t`. Each attribute's column is sorted once per side;
//! `t`'s *prefix* on attribute `a` is every tuple whose value is `≤ t[a]`.
//! The union of `t`'s `d − k′ + 1` shortest prefixes therefore holds every
//! k′-dominator of `t`, and scanning it is exact. Ties stay in the
//! prefixes because the rule counts `≤`: a tuple equal to `t` on the
//! chosen attributes can still k′-dominate it elsewhere. (`t` itself lies
//! in every prefix, but never k′-dominates itself: that needs one `<`.)
//!
//! Defs. 1–3 then fuse into one search per tuple:
//!
//! * the coverers are scanned first, and a dominator among them means
//!   **NN**. Equality joins prune this scan the same way with per-group
//!   prefix lists; theta joins scan their key-order slice directly;
//! * otherwise the global prefix union is scanned: a dominator there
//!   means **SN**, none means **SS**;
//! * when the coverers are the whole relation (Cartesian products, a
//!   single equality group), the one global scan decides NN or SS.
//!
//! The lists cost `d` sorts per side, which is more than a whole
//! classification when dominators are plentiful (small `k′`). So a first
//! pass gives every tuple a short plain scan — coverers, then the whole
//! relation, stopping at the first dominator — and only the tuples it
//! leaves open take the prefix-pruned search. When few are left the
//! lists are not built at all, and those tuples finish with plain scans.
//! Both passes are exact; they differ only in what they visit.
//!
//! `threads > 1` splits the tuples of both sides over scoped workers in
//! each pass. Every tuple's category depends only on immutable relation
//! data, so the output is identical at every thread count. Each tuple
//! ticks the execution's [`Checkpoint`] in each pass and every column
//! sort checks the deadline, so a deadline that passes mid-classification
//! stops it.

use crate::cancel::{check_deadline, Checkpoint};
use crate::error::CoreResult;
use crate::parallel::{even_ranges, run_ranges};
use crate::params::KsjqParams;
use ksjq_join::{JoinContext, JoinSpec};
use ksjq_relation::{dom_counts, Relation};
use ksjq_skyline::KdomAlgo;
use std::ops::Range;
use std::time::Instant;

/// Classification of one tuple (paper Defs. 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// k′-dominant skyline of the whole relation.
    SS,
    /// k′-dominant skyline of its group only.
    SN,
    /// k′-dominated within its own group.
    NN,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::SS => write!(f, "SS"),
            Category::SN => write!(f, "SN"),
            Category::NN => write!(f, "NN"),
        }
    }
}

/// The classification of both base relations for one `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// Per-tuple category of the left relation, indexed by tuple id.
    pub left: Vec<Category>,
    /// Per-tuple category of the right relation, indexed by tuple id.
    pub right: Vec<Category>,
    /// The parameters the classification was computed under.
    pub params: KsjqParams,
}

impl Classification {
    /// `(SS, SN, NN)` tallies of one side (0 = left, 1 = right).
    pub fn tallies(&self, side: usize) -> (usize, usize, usize) {
        let v = if side == 0 { &self.left } else { &self.right };
        let mut t = (0, 0, 0);
        for c in v {
            match c {
                Category::SS => t.0 += 1,
                Category::SN => t.1 += 1,
                Category::NN => t.2 += 1,
            }
        }
        t
    }
}

/// One relation's ids sorted by each attribute, block by block: the
/// prefix lists of the scan (module docs). A block is a range of a base
/// order — the whole relation for the global lists, one join group for an
/// equality join's group lists — and a tuple's prefixes stay inside its
/// own block.
struct PrefixLists {
    n: usize,
    d: usize,
    /// Attribute-major: attribute `a`'s list is `ids[a·n..(a+1)·n]`, every
    /// block sorted ascending by the attribute's value.
    ids: Vec<u32>,
    /// Where each tuple's block starts in every attribute's list.
    start: Vec<u32>,
    /// Tuple-major: `end[t·d + a]` is one past the last position of `t`'s
    /// block on attribute `a` whose value is `≤ t[a]` (ties included).
    end: Vec<u32>,
}

impl PrefixLists {
    /// The global lists: every attribute sorted over the whole relation.
    /// Each sort is preceded by a deadline check.
    fn global(rel: &Relation, deadline: Option<Instant>) -> CoreResult<PrefixLists> {
        let (n, d) = (rel.n(), rel.d());
        let mut ids = Vec::with_capacity(n * d);
        let mut keyed = Vec::with_capacity(n);
        for a in 0..d {
            check_deadline(deadline)?;
            keyed.clear();
            keyed.extend(
                rel.column(a)
                    .iter()
                    .enumerate()
                    .map(|(t, &v)| (sort_key(v), t as u32)),
            );
            keyed.sort_unstable();
            ids.extend(keyed.iter().map(|&(_, t)| t));
        }
        // One block: the whole relation.
        let whole = 0..n;
        Ok(PrefixLists::with_ids(rel, ids, vec![0; n], &[whole]))
    }

    /// Per-block lists, one block per range of `order` (the ranges cover
    /// it exactly). Each is bucketed out of the `global` lists in one
    /// pass, which keeps every block sorted without sorting again.
    fn blocked(
        rel: &Relation,
        global: &PrefixLists,
        order: &[u32],
        blocks: &[Range<usize>],
    ) -> PrefixLists {
        let (n, d) = (rel.n(), rel.d());
        let mut block = vec![0u32; n];
        let mut start = vec![0u32; n];
        for (i, b) in blocks.iter().enumerate() {
            for &t in &order[b.clone()] {
                block[t as usize] = i as u32;
                start[t as usize] = b.start as u32;
            }
        }
        let mut ids = vec![0u32; n * d];
        let mut next = Vec::with_capacity(blocks.len());
        for a in 0..d {
            next.clear();
            next.extend(blocks.iter().map(|b| a * n + b.start));
            for &t in &global.ids[a * n..(a + 1) * n] {
                let slot = &mut next[block[t as usize] as usize];
                ids[*slot] = t;
                *slot += 1;
            }
        }
        PrefixLists::with_ids(rel, ids, start, blocks)
    }

    /// Finish lists whose `blocks` are already sorted in `ids`.
    fn with_ids(rel: &Relation, ids: Vec<u32>, start: Vec<u32>, blocks: &[Range<usize>]) -> Self {
        let (n, d) = (rel.n(), rel.d());
        let mut end = vec![0u32; n * d];
        for a in 0..d {
            let col = rel.column(a);
            let list = &ids[a * n..(a + 1) * n];
            for b in blocks {
                // Walk the block backwards: a tie run shares the end of
                // its last member, so every prefix counts `≤`, not `<`.
                let mut run_end = b.end;
                for i in b.clone().rev() {
                    if i + 1 < b.end && col[list[i] as usize] < col[list[i + 1] as usize] {
                        run_end = i + 1;
                    }
                    end[list[i] as usize * d + a] = run_end as u32;
                }
            }
        }
        PrefixLists {
            n,
            d,
            ids,
            start,
            end,
        }
    }

    /// `t`'s prefix on attribute `a`: its block's tuples whose value is
    /// `≤ t[a]`, in ascending order of value.
    #[inline]
    fn prefix(&self, t: u32, a: usize) -> &[u32] {
        let list = &self.ids[a * self.n..(a + 1) * self.n];
        &list[self.start[t as usize] as usize..self.end[t as usize * self.d + a] as usize]
    }

    /// Put the `m` attributes with `t`'s shortest prefixes first in
    /// `attrs` (one slot per attribute).
    #[inline]
    fn shortest(&self, t: u32, m: usize, attrs: &mut [usize]) {
        let end = &self.end[t as usize * self.d..(t as usize + 1) * self.d];
        for (a, slot) in attrs.iter_mut().enumerate() {
            *slot = a;
        }
        if m < attrs.len() {
            attrs.select_nth_unstable_by_key(m - 1, |&a| end[a]);
        }
    }
}

/// An order-preserving integer image of a finite `f64`: sorting by it
/// sorts by value. (`-0.0` sorts before `0.0`; prefix ends still compare
/// with `<`, so the two stay one tie run.)
#[inline]
fn sort_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Dominance tests a plain scan spends on one tuple before the tuple
/// waits for the prefix lists (module docs).
const PROBE_BUDGET: usize = 32;

/// How far a plain scan got with one tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// The tuple's category is known.
    Done(Category),
    /// No coverer dominates the tuple; the rest of the relation is not
    /// all scanned.
    NotNn,
    /// The tuple's coverers are not all scanned.
    Open,
}

/// The prefix lists of one side.
struct Index {
    global: PrefixLists,
    /// Per-group lists of an equality join with more than one group.
    groups: Option<PrefixLists>,
}

/// Everything one side's per-tuple scans read. Owned by one
/// classification call and freed when it returns.
struct Side<'a> {
    rel: &'a Relation,
    d: usize,
    /// `k′`.
    k: usize,
    /// Prefixes scanned per tuple: `d − k′ + 1`.
    m: usize,
    /// Row-major copy of the relation's values, gathered once per call.
    rows: Vec<f64>,
    /// Each tuple's coverers, as [`JoinContext`] lists them.
    coverers: Box<dyn Fn(u32) -> &'a [u32] + Sync + 'a>,
    /// Every tuple covers every other: a Cartesian product, or an
    /// equality join with a single group.
    covers_all: bool,
}

impl<'a> Side<'a> {
    fn new(
        cx: &JoinContext<'_>,
        rel: &'a Relation,
        k: usize,
        coverers: impl Fn(u32) -> &'a [u32] + Sync + 'a,
    ) -> Side<'a> {
        let d = rel.d();
        let covers_all = match cx.spec() {
            JoinSpec::Equality => rel.group_index().is_none_or(|gi| gi.group_count() <= 1),
            JoinSpec::Theta(_) => false,
            JoinSpec::Cartesian => true,
        };
        Side {
            rel,
            d,
            k,
            m: d + 1 - k.clamp(1, d.max(1)),
            rows: rel.gather_rows(),
            coverers: Box::new(coverers),
            covers_all,
        }
    }

    /// Build this side's prefix lists. Theta joins get no group lists
    /// (their relations have numeric keys, not groups): their coverers
    /// are a slice of the key order, scanned directly.
    fn index(&self, deadline: Option<Instant>) -> CoreResult<Index> {
        let global = PrefixLists::global(self.rel, deadline)?;
        let groups = match self.rel.group_index() {
            Some(gi) if !self.covers_all => {
                let blocks: Vec<Range<usize>> = gi.iter().map(|(g, _)| gi.range_of(g)).collect();
                Some(PrefixLists::blocked(self.rel, &global, gi.order(), &blocks))
            }
            _ => None,
        };
        Ok(Index { global, groups })
    }

    #[inline]
    fn row(&self, t: u32) -> &[f64] {
        let i = t as usize * self.d;
        &self.rows[i..i + self.d]
    }

    /// Does any tuple of `ids` k′-dominate `t`? Branch-free per pair.
    #[inline]
    fn any_dominates<'i>(&self, mut ids: impl Iterator<Item = &'i u32>, t: u32) -> bool {
        let row = self.row(t);
        ids.any(|&c| dom_counts(self.row(c), row).k_dominates(self.k))
    }

    /// Defs. 1–3 for `t` by a plain scan, stopping at the first
    /// dominator: its coverers, then the whole relation, for at most
    /// `budget` dominance tests.
    fn probe(&self, t: u32, budget: usize) -> Probe {
        let coverers = (self.coverers)(t);
        if self.any_dominates(coverers.iter().take(budget), t) {
            return Probe::Done(Category::NN);
        }
        if coverers.len() > budget {
            return Probe::Open;
        }
        if self.covers_all {
            return Probe::Done(Category::SS);
        }
        self.probe_rest(t, budget - coverers.len())
    }

    /// The second half of [`probe`](Self::probe), for a tuple no coverer
    /// dominates: the whole relation, for at most `budget` tests.
    fn probe_rest(&self, t: u32, budget: usize) -> Probe {
        let n = self.rel.n();
        let row = self.row(t);
        if (0..n.min(budget) as u32).any(|c| dom_counts(self.row(c), row).k_dominates(self.k)) {
            Probe::Done(Category::SN)
        } else if n > budget {
            Probe::NotNn
        } else {
            Probe::Done(Category::SS)
        }
    }

    /// Does any tuple of `t`'s prefix union in `lists` k′-dominate it?
    /// Each prefix is scanned from its end, values nearest `t[a]` first:
    /// that finds a dominator after fewer tests than best-first does.
    fn dominated_in(&self, lists: &PrefixLists, t: u32, attrs: &mut [usize]) -> bool {
        lists.shortest(t, self.m, attrs);
        attrs[..self.m]
            .iter()
            .any(|&a| self.any_dominates(lists.prefix(t, a).iter().rev(), t))
    }

    /// Defs. 1–3 for `t` through the prefix lists: coverers first
    /// (unless `probe` already cleared them), then the whole relation.
    fn category(&self, ix: &Index, t: u32, probe: Probe, attrs: &mut Vec<usize>) -> Category {
        attrs.resize(self.d, 0);
        if self.covers_all {
            return if self.dominated_in(&ix.global, t, attrs) {
                Category::NN
            } else {
                Category::SS
            };
        }
        let in_coverers = match (probe, &ix.groups) {
            (Probe::NotNn, _) => false,
            (_, Some(groups)) => self.dominated_in(groups, t, attrs),
            (_, None) => self.any_dominates((self.coverers)(t).iter(), t),
        };
        if in_coverers {
            Category::NN
        } else if self.dominated_in(&ix.global, t, attrs) {
            Category::SN
        } else {
            Category::SS
        }
    }

    /// Whether `pending` unsettled tuples are worth the prefix lists. A
    /// plain scan costs up to `n` tests per tuple, but most stop far
    /// sooner; the lists cost `d` sorts of `n`, about `n · log₂ n` tests'
    /// worth. On the paper's figure workloads the lists paid once more
    /// than about `8 · log₂ n` tuples were pending.
    fn worth_indexing(&self, pending: usize) -> bool {
        let n = self.rel.n().max(2);
        pending > 8 * n.ilog2() as usize
    }
}

/// Classify both base relations of `cx` under `params`.
///
/// This is the paper's `Group` routine (Algorithms 2 and 3, lines 3–4);
/// its cost is the "grouping time" component of the figures. `kdom` no
/// longer affects classification, which always runs the prefix-pruned
/// scan of the module docs; it selects only the naive algorithm's
/// k-dominant skyline subroutine.
pub fn classify(cx: &JoinContext<'_>, params: &KsjqParams, kdom: KdomAlgo) -> Classification {
    classify_parallel(cx, params, kdom, 1)
}

/// [`classify`] with the tuples of both sides split over `threads` scoped
/// workers. The categorisation is identical to the serial routine — same
/// output vectors, same order — because every tuple's scan reads only
/// immutable relation data. `kdom` is ignored, as in [`classify`].
pub fn classify_parallel(
    cx: &JoinContext<'_>,
    params: &KsjqParams,
    _kdom: KdomAlgo,
    threads: usize,
) -> Classification {
    classify_within(cx, params, threads, None).expect("no deadline to exceed")
}

/// [`classify_parallel`] under an execution deadline: every column sort
/// checks it and every tuple's scan ticks a [`Checkpoint`], so an expired
/// deadline stops classification part-way.
///
/// # Errors
///
/// [`CoreError::DeadlineExceeded`](crate::CoreError) once `deadline`
/// passes.
pub(crate) fn classify_within(
    cx: &JoinContext<'_>,
    params: &KsjqParams,
    threads: usize,
    deadline: Option<Instant>,
) -> CoreResult<Classification> {
    let (lrel, rrel) = (cx.left(), cx.right());
    let sides = [
        Side::new(cx, lrel, params.k1_prime, |t| cx.left_coverers(t)),
        Side::new(cx, rrel, params.k2_prime, |t| cx.right_coverers(t)),
    ];
    let n1 = lrel.n();
    let locate = |i: usize| match i.checked_sub(n1) {
        None => (0, i as u32),
        Some(j) => (1, j as u32),
    };
    // Pass 1: a short plain scan settles most tuples.
    let ranges = even_ranges(n1 + rrel.n(), threads);
    let mut probed = run_ranges(&ranges, |range, cancelled| {
        let mut cp = Checkpoint::new(deadline);
        range
            .map(|i| {
                cp.tick_shared(cancelled)?;
                let (s, t) = locate(i);
                Ok(sides[s].probe(t, PROBE_BUDGET))
            })
            .collect::<CoreResult<Vec<Probe>>>()
    })?
    .concat();
    // Pass 2: the rest, through prefix lists where enough tuples are left
    // for them to pay, else by plain scans without a budget.
    let pending: Vec<usize> = (0..probed.len())
        .filter(|&i| !matches!(probed[i], Probe::Done(_)))
        .collect();
    let mut indexes = [None, None];
    for (s, ix) in indexes.iter_mut().enumerate() {
        let count = pending.iter().filter(|&&i| locate(i).0 == s).count();
        if sides[s].worth_indexing(count) {
            *ix = Some(sides[s].index(deadline)?);
        }
    }
    let settled = run_ranges(&even_ranges(pending.len(), threads), |range, cancelled| {
        let mut cp = Checkpoint::new(deadline);
        let mut attrs = Vec::new();
        pending[range]
            .iter()
            .map(|&i| {
                cp.tick_shared(cancelled)?;
                let (s, t) = locate(i);
                let side = &sides[s];
                Ok(match (&indexes[s], probed[i]) {
                    (Some(ix), probe) => Probe::Done(side.category(ix, t, probe, &mut attrs)),
                    (None, Probe::NotNn) => side.probe_rest(t, usize::MAX),
                    (None, _) => side.probe(t, usize::MAX),
                })
            })
            .collect::<CoreResult<Vec<Probe>>>()
    })?
    .concat();
    for (&i, probe) in pending.iter().zip(settled) {
        probed[i] = probe;
    }
    let mut left: Vec<Category> = probed
        .into_iter()
        .map(|probe| match probe {
            Probe::Done(c) => c,
            _ => unreachable!("an unbudgeted scan settles every tuple"),
        })
        .collect();
    let right = left.split_off(n1);
    Ok(Classification {
        left,
        right,
        params: *params,
    })
}

/// Count join-compatible pairs per fate class: `(yes, likely, maybe)`
/// (Table 5: `SS⋈SS`, `SS⋈SN ∪ SN⋈SS`, `SN⋈SN`). Pairs with an `NN`
/// component are pruned and not counted.
pub fn pair_counts(cx: &JoinContext<'_>, cls: &Classification) -> (usize, usize, usize) {
    let (mut yes, mut likely, mut maybe) = (0usize, 0usize, 0usize);
    for u in 0..cls.left.len() as u32 {
        let cu = cls.left[u as usize];
        if cu == Category::NN {
            continue;
        }
        for &v in cx.right_partners(u) {
            match (cu, cls.right[v as usize]) {
                (Category::SS, Category::SS) => yes += 1,
                (Category::SS, Category::SN) | (Category::SN, Category::SS) => likely += 1,
                (Category::SN, Category::SN) => maybe += 1,
                _ => {}
            }
        }
    }
    (yes, likely, maybe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::validate_k;
    use ksjq_join::JoinSpec;
    use ksjq_relation::{Relation, Schema};

    fn rel(groups: &[u64], rows: &[Vec<f64>]) -> Relation {
        Relation::from_grouped_rows(Schema::uniform(rows[0].len()).unwrap(), groups, rows).unwrap()
    }

    /// Two groups; group 0 has a dominator pair, group 1 an isolated tuple
    /// dominated only across groups.
    #[test]
    fn three_way_classification() {
        let r1 = rel(
            &[0, 0, 1],
            &[
                vec![1.0, 1.0], // SS: dominates everything
                vec![2.0, 2.0], // NN: dominated by tuple 0 in its own group
                vec![3.0, 3.0], // SN: dominated by 0, but alone in group 1
            ],
        );
        let r2 = rel(&[0, 1], &[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let p = validate_k(&cx, 3).unwrap(); // k′1 = k − l2 = 3 − 2
        assert_eq!(p.k1_prime, 1);
        let cls = classify(&cx, &p, KdomAlgo::Naive);
        // k′ = 1: tuple 0 1-dominates 1 and 2; nothing dominates 0.
        assert_eq!(cls.left, vec![Category::SS, Category::NN, Category::SN]);
        assert_eq!(cls.tallies(0), (1, 1, 1));
    }

    #[test]
    fn cartesian_has_no_sn() {
        let mk = |rows: &[Vec<f64>]| {
            let mut b = Relation::builder(Schema::uniform(2).unwrap());
            for r in rows {
                b.add(r).unwrap();
            }
            b.build().unwrap()
        };
        let r1 = mk(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![0.5, 3.0]]);
        let r2 = mk(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Cartesian, &[]).unwrap();
        let p = validate_k(&cx, 3).unwrap();
        let cls = classify(&cx, &p, KdomAlgo::Tsa);
        assert!(!cls.left.contains(&Category::SN), "{:?}", cls.left);
        assert!(!cls.right.contains(&Category::SN));
    }

    /// `t`'s only 2-dominator ties it on one of the two attributes with
    /// the shortest prefixes and is worse on the other: it is found only
    /// because prefixes keep ties (`≤`, not `<`).
    #[test]
    fn prefixes_keep_ties() {
        let mk = |rows: &[Vec<f64>]| {
            let mut b = Relation::builder(Schema::uniform(rows[0].len()).unwrap());
            for r in rows {
                b.add(r).unwrap();
            }
            b.build().unwrap()
        };
        let mut rows = vec![vec![1.0, 5.0, 1.0], vec![1.0, 9.0, 0.0]];
        // Fillers lengthen attribute 2's prefix of tuple 0 without
        // 2-dominating it.
        rows.extend((0..4).map(|_| vec![9.0, 9.0, 0.0]));
        let r1 = mk(&rows);
        let r2 = mk(&[vec![1.0, 1.0]]);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Cartesian, &[]).unwrap();
        let p = validate_k(&cx, 4).unwrap();
        assert_eq!(p.k1_prime, 2);
        let cls = classify(&cx, &p, KdomAlgo::Tsa);
        assert_eq!(cls.left[0], Category::NN, "{:?}", cls.left);
    }

    #[test]
    fn parallel_classification_matches_serial() {
        let mut state = 321u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let n = 97; // deliberately not a multiple of any worker count
        let mk = |next: &mut dyn FnMut(u64) -> u64| {
            let g: Vec<u64> = (0..n).map(|_| next(6)).collect();
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..4).map(|_| next(10) as f64).collect())
                .collect();
            rel(&g, &rows)
        };
        let r1 = mk(&mut next);
        let r2 = mk(&mut next);
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        for k in 5..=8 {
            let p = validate_k(&cx, k).unwrap();
            let serial = classify(&cx, &p, KdomAlgo::Tsa);
            for threads in [2usize, 3, 7, 200] {
                let parallel = classify_parallel(&cx, &p, KdomAlgo::Tsa, threads);
                assert_eq!(serial, parallel, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn pair_counts_match_enumeration() {
        let r1 = rel(
            &[0, 0, 1],
            &[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]],
        );
        let r2 = rel(
            &[0, 1, 1],
            &[vec![1.0, 1.0], vec![2.0, 2.0], vec![0.0, 0.0]],
        );
        let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[]).unwrap();
        let p = validate_k(&cx, 3).unwrap();
        let cls = classify(&cx, &p, KdomAlgo::Naive);
        let (yes, likely, maybe) = pair_counts(&cx, &cls);
        // Exhaustive recount.
        let (mut ey, mut el, mut em) = (0, 0, 0);
        cx.for_each_pair(|u, v| match (cls.left[u as usize], cls.right[v as usize]) {
            (Category::SS, Category::SS) => ey += 1,
            (Category::SS, Category::SN) | (Category::SN, Category::SS) => el += 1,
            (Category::SN, Category::SN) => em += 1,
            _ => {}
        });
        assert_eq!((yes, likely, maybe), (ey, el, em));
    }
}
