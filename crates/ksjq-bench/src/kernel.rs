//! The verification-kernel ablation: materialise-then-compare versus the
//! split-side oracle versus the production two-sided leg kernel.
//!
//! `ksjq-core`'s verifier no longer builds joined tuples in its hot loop
//! (see `ksjq_core::verify`); this module keeps a counted replica of the
//! **pre-split** kernel — `cx.fill` into scratch, then an early-abandoning
//! `k_dominates` over the full joined arity, target sets scanned in id
//! order — plus the row-major split-side oracle (`JoinedCheck`, one-sided
//! `τ(u′) ⋈ R2` / `R1 ⋈ τ(v′)` scans) and the production kernel
//! ([`ksjq_core::verify_candidates`], two-sided `τ(u′) ⋈ τ(v′)` with per-leg
//! memos — exactly the grouping algorithm's verification phase), so the
//! harness can measure what each rewrite buys on a given workload and pin
//! the numbers in a committed baseline (`BENCH_kernel.json`, where the
//! production kernel keeps the `columnar` key).
//! [`measure_domgen_scaling`] covers the dominator-generation phase
//! sharded over threads.

use crate::PaperParams;
use ksjq_core::{
    classify, precompute_target_sets, target_set, validate_k, verify_candidates, Category, Config,
    JoinedCheck, TargetCache,
};
use ksjq_join::JoinContext;
use std::time::{Duration, Instant};

/// Work and wall-clock of one verification sweep over all candidates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Joined-tuple dominance tests evaluated.
    pub dom_tests: u64,
    /// Attribute positions compared.
    pub attr_cmps: u64,
    /// Wall-clock of the verification sweep.
    pub wall: Duration,
    /// Candidates that survived (must agree between kernels).
    pub survivors: usize,
}

/// Both kernels measured on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelComparison {
    /// The workload knobs.
    pub params: PaperParams,
    /// Joined pairs `N` of the workload.
    pub joined_pairs: u64,
    /// Candidate pairs that reached verification.
    pub candidates: usize,
    /// Candidates actually measured. Equal to `candidates` unless a
    /// sampling cap was set: the materialized reference is O(n²) per
    /// candidate, so full sweeps at `n ≥ 10k` would take hours for a
    /// number whose ratio a deterministic stride sample pins just as well.
    pub measured: usize,
    /// The pre-split reference: materialise each dominator, full-arity
    /// `k_dominates`.
    pub materialized: KernelCost,
    /// The row-major split-side oracle (`ksjq_core::JoinedCheck`).
    pub split: KernelCost,
    /// The production two-sided leg kernel
    /// ([`ksjq_core::verify_candidates`]); the field keeps its historical
    /// name, which is also its `BENCH_kernel.json` key.
    pub columnar: KernelCost,
}

impl KernelComparison {
    /// How many times fewer attribute comparisons the split kernel does.
    pub fn attr_cmp_ratio(&self) -> f64 {
        self.materialized.attr_cmps as f64 / (self.split.attr_cmps.max(1)) as f64
    }

    /// Wall-clock speedup of the split kernel over the materialized
    /// reference.
    pub fn speedup(&self) -> f64 {
        self.materialized.wall.as_secs_f64() / self.split.wall.as_secs_f64().max(1e-9)
    }

    /// Wall-clock speedup of the production kernel over the split-side
    /// oracle.
    pub fn columnar_speedup(&self) -> f64 {
        self.split.wall.as_secs_f64() / self.columnar.wall.as_secs_f64().max(1e-9)
    }
}

/// `k_dominates` with an attribute-comparison counter — the pre-split hot
/// loop, early abandonment included.
#[inline]
fn k_dominates_counted(u: &[f64], v: &[f64], k: usize, cmps: &mut u64) -> bool {
    let d = u.len();
    if k > d {
        return false;
    }
    let mut le = 0usize;
    let mut lt = false;
    for i in 0..d {
        *cmps += 1;
        let (a, b) = (u[i], v[i]);
        le += (a <= b) as usize;
        lt |= a < b;
        if le + (d - i - 1) < k {
            return false;
        }
    }
    le >= k && lt
}

/// Which one-sided check a candidate takes (mirrors the grouping
/// algorithm's fate table, including the `a ≥ 2` Theorem-3 deviation).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Emit,
    Left,
    Right,
}

/// One verification candidate: the pair, its check kind, and its
/// materialised joined row (opaque — produced by
/// [`prepare_candidates`], consumed by the sweep functions).
#[derive(Debug)]
pub struct Candidate {
    u: u32,
    v: u32,
    kind: Kind,
    row: Vec<f64>,
}

/// Classify the workload and collect its verification candidates, so
/// benchmark loops can time the sweeps alone (dataset generation,
/// classification and row materialisation are identical setup for both
/// kernels and would otherwise drown the measurement).
pub fn prepare_candidates(cx: &JoinContext<'_>, k: usize, cfg: &Config) -> Vec<Candidate> {
    let params = validate_k(cx, k).expect("benchmark k in range");
    let cls = classify(cx, &params, cfg.kdom);
    let verify_yes = params.a >= 2;
    let mut out = Vec::new();
    for u in 0..cls.left.len() as u32 {
        let cu = cls.left[u as usize];
        if cu == Category::NN {
            continue;
        }
        for &v in cx.right_partners(u) {
            let kind = match (cu, cls.right[v as usize]) {
                (Category::SS, Category::SS) if !verify_yes => Kind::Emit,
                (Category::SS, Category::SS) | (Category::SS, Category::SN) => Kind::Left,
                (Category::SN, Category::SS) => Kind::Right,
                (Category::SN, Category::SN) => Kind::Left,
                _ => continue,
            };
            out.push(Candidate {
                u,
                v,
                kind,
                row: cx.joined_row(u, v),
            });
        }
    }
    out
}

/// The pre-split verification sweep: target sets in ascending id order, a
/// freshly materialised joined tuple per `(dominator, candidate)` pair.
pub fn run_materialized(cx: &JoinContext<'_>, k: usize, cands: &[Candidate]) -> KernelCost {
    let params = validate_k(cx, k).expect("benchmark k in range");
    let llocals: Vec<usize> = cx.left().schema().local_indices().collect();
    let rlocals: Vec<usize> = cx.right().schema().local_indices().collect();
    let mut lsets: Vec<Option<Vec<u32>>> = vec![None; cx.left().n()];
    let mut rsets: Vec<Option<Vec<u32>>> = vec![None; cx.right().n()];
    let mut scratch = vec![0.0; cx.d_joined()];
    let mut dom_tests = 0u64;
    let mut attr_cmps = 0u64;
    let mut survivors = 0usize;
    let t = Instant::now();
    for cand in cands {
        let dominated = match cand.kind {
            Kind::Emit => false,
            Kind::Left => {
                let set = lsets[cand.u as usize]
                    .get_or_insert_with(|| target_set(cx.left(), &llocals, cand.u, params.k1_pp));
                let mut hit = false;
                'left: for &u in set.iter() {
                    for &v in cx.right_partners(u) {
                        dom_tests += 1;
                        cx.fill(u, v, &mut scratch);
                        if k_dominates_counted(&scratch, &cand.row, k, &mut attr_cmps) {
                            hit = true;
                            break 'left;
                        }
                    }
                }
                hit
            }
            Kind::Right => {
                let set = rsets[cand.v as usize]
                    .get_or_insert_with(|| target_set(cx.right(), &rlocals, cand.v, params.k2_pp));
                let mut hit = false;
                'right: for &v in set.iter() {
                    for &u in cx.left_partners(v) {
                        dom_tests += 1;
                        cx.fill(u, v, &mut scratch);
                        if k_dominates_counted(&scratch, &cand.row, k, &mut attr_cmps) {
                            hit = true;
                            break 'right;
                        }
                    }
                }
                hit
            }
        };
        survivors += !dominated as usize;
    }
    KernelCost {
        dom_tests,
        attr_cmps,
        wall: t.elapsed(),
        survivors,
    }
}

/// The split-side oracle sweep (`JoinedCheck`): one-sided `τ(u′) ⋈ R2`
/// / `R1 ⋈ τ(v′)` scans over SFS-ordered target sets.
pub fn run_split(cx: &JoinContext<'_>, k: usize, cands: &[Candidate]) -> KernelCost {
    let params = validate_k(cx, k).expect("benchmark k in range");
    let mut ltargets = TargetCache::new(cx.left(), params.k1_pp);
    let mut rtargets = TargetCache::new(cx.right(), params.k2_pp);
    let mut chk = JoinedCheck::new(cx, k);
    let mut survivors = 0usize;
    let t = Instant::now();
    for cand in cands {
        let dominated = match cand.kind {
            Kind::Emit => false,
            Kind::Left => chk.dominated_via_left(ltargets.get(cand.u), &cand.row),
            Kind::Right => chk.dominated_via_right(rtargets.get(cand.v), &cand.row),
        };
        survivors += !dominated as usize;
    }
    let wall = t.elapsed();
    let c = chk.counters();
    KernelCost {
        dom_tests: c.dom_tests,
        attr_cmps: c.attr_cmps,
        wall,
        survivors,
    }
}

/// The production verification sweep: the grouping algorithm's
/// two-sided leg kernel ([`ksjq_core::verify_candidates`], serial) over
/// the identical candidates as [`run_split`]. "Yes" candidates count as
/// survivors unverified, as in the algorithm.
pub fn run_columnar(cx: &JoinContext<'_>, k: usize, cands: &[Candidate]) -> KernelCost {
    let pairs: Vec<(u32, u32)> = cands
        .iter()
        .filter(|c| c.kind != Kind::Emit)
        .map(|c| (c.u, c.v))
        .collect();
    let mut survivors = cands.len() - pairs.len();
    let t = Instant::now();
    let c = verify_candidates(cx, k, &pairs, 1, None, |_, _| survivors += 1)
        .expect("benchmark k in range");
    KernelCost {
        dom_tests: c.dom_tests,
        attr_cmps: c.attr_cmps,
        wall: t.elapsed(),
        survivors,
    }
}

/// One thread count's dominator-generation measurement: both sides'
/// target sets precomputed over the classification, exactly the
/// dominator-based algorithm's phase 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomgenRun {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock of both sides' set construction.
    pub wall: Duration,
    /// Total target-set members produced (must be identical across thread
    /// counts — checked by [`measure_domgen_scaling`]).
    pub members: u64,
}

/// Measure the dominator-generation phase of `params`' workload at each
/// thread count (classification and data generation are shared setup,
/// excluded from the timings). Panics if any thread count produces
/// different sets than the first — a scaling number for wrong answers
/// measures nothing.
pub fn measure_domgen_scaling(
    params: &PaperParams,
    cfg: &Config,
    thread_counts: &[usize],
) -> Vec<DomgenRun> {
    let (r1, r2) = params.relations();
    let cx = params.context(&r1, &r2);
    let p = validate_k(&cx, params.k).expect("benchmark k in range");
    let cls = classify(&cx, &p, cfg.kdom);
    type TargetSets = Vec<Option<Vec<u32>>>;
    let mut runs = Vec::new();
    let mut reference: Option<(TargetSets, TargetSets)> = None;
    for &threads in thread_counts {
        let t = Instant::now();
        let lt = precompute_target_sets(cx.left(), &cls.left, p.k1_pp, threads);
        let rt = precompute_target_sets(cx.right(), &cls.right, p.k2_pp, threads);
        let wall = t.elapsed();
        let members = lt
            .iter()
            .chain(rt.iter())
            .flatten()
            .map(|s| s.len() as u64)
            .sum();
        match &reference {
            None => reference = Some((lt, rt)),
            Some((rl, rr)) => {
                assert!(
                    *rl == lt && *rr == rt,
                    "dominator generation diverged at {threads} threads"
                );
            }
        }
        runs.push(DomgenRun {
            threads,
            wall,
            members,
        });
    }
    runs
}

/// Measure both kernels on `params`' workload; panics if their surviving
/// candidate counts disagree (a benchmark that measures wrong answers
/// measures nothing).
pub fn compare_verification_kernels(params: &PaperParams, cfg: &Config) -> KernelComparison {
    compare_verification_kernels_sampled(params, cfg, None)
}

/// [`compare_verification_kernels`] measuring at most `max_candidates`
/// candidates (deterministic stride over the candidate list, so both
/// kernels see the identical sample).
pub fn compare_verification_kernels_sampled(
    params: &PaperParams,
    cfg: &Config,
    max_candidates: Option<usize>,
) -> KernelComparison {
    let (r1, r2) = params.relations();
    let cx = params.context(&r1, &r2);
    let mut cands = prepare_candidates(&cx, params.k, cfg);
    let total = cands.len();
    if let Some(cap) = max_candidates {
        if cap > 0 && total > cap {
            let step = total.div_ceil(cap);
            cands = cands
                .into_iter()
                .enumerate()
                .filter_map(|(i, c)| (i % step == 0).then_some(c))
                .collect();
        }
    }
    let materialized = run_materialized(&cx, params.k, &cands);
    let split = run_split(&cx, params.k, &cands);
    let columnar = run_columnar(&cx, params.k, &cands);
    assert_eq!(
        materialized.survivors, split.survivors,
        "kernels disagree on {params:?}"
    );
    assert_eq!(
        split.survivors, columnar.survivors,
        "production kernel disagrees on {params:?}"
    );
    KernelComparison {
        params: *params,
        joined_pairs: cx.count_pairs(),
        candidates: total,
        measured: cands.len(),
        materialized,
        split,
        columnar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksjq_datagen::DataType;

    #[test]
    fn kernels_agree_and_split_compares_less() {
        let params = PaperParams {
            n: 400,
            d: 7,
            a: 2,
            g: 10,
            k: 11,
            data_type: DataType::AntiCorrelated,
            seed: 7,
        };
        let cmp = compare_verification_kernels(&params, &Config::default());
        assert!(cmp.candidates > 0, "{cmp:?}");
        assert_eq!(cmp.materialized.survivors, cmp.split.survivors);
        assert_eq!(cmp.split.survivors, cmp.columnar.survivors);
        assert!(cmp.split.attr_cmps > 0);
        assert!(
            cmp.split.attr_cmps < cmp.materialized.attr_cmps,
            "split kernel should compare fewer attributes: {cmp:?}"
        );
        assert!(cmp.columnar.dom_tests > 0);
    }

    #[test]
    fn domgen_scaling_is_thread_invariant() {
        let params = PaperParams {
            n: 150,
            data_type: DataType::AntiCorrelated,
            seed: 5,
            ..Default::default()
        };
        let runs = measure_domgen_scaling(&params, &Config::default(), &[1, 2, 4]);
        assert_eq!(runs.len(), 3);
        assert!(runs[0].members > 0);
        assert!(runs.iter().all(|r| r.members == runs[0].members));
    }

    #[test]
    fn survivors_match_the_real_algorithm_output() {
        let params = PaperParams {
            n: 200,
            d: 5,
            a: 0,
            g: 4,
            k: 7,
            data_type: DataType::Independent,
            seed: 3,
        };
        let (r1, r2) = params.relations();
        let cx = params.context(&r1, &r2);
        let cfg = Config::default();
        let out = ksjq_core::ksjq_grouping(&cx, params.k, &cfg).unwrap();
        let cmp = compare_verification_kernels(&params, &cfg);
        assert_eq!(cmp.split.survivors, out.len());
    }
}
