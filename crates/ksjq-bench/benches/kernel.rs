//! Microbenchmarks of the hot kernels: the dominance counting loop (full,
//! partial and blocked forms), the verification kernels (materialized vs
//! split-side), the single-relation k-dominant skyline algorithms, and the
//! classification routine — plus the ablation DESIGN.md calls out
//! (one-sided target verification vs a paper-literal full-join scan for
//! the "may be" set).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ksjq_bench::{prepare_candidates, run_columnar, run_materialized, run_split, PaperParams};
use ksjq_core::{
    classify, classify_parallel, ksjq_grouping, ksjq_naive, precompute_target_sets, validate_k,
    Config,
};
use ksjq_datagen::{DataType, DatasetSpec};
use ksjq_relation::{
    dom_counts, dom_counts_block, dom_counts_block_columnar, dom_counts_partial,
    dom_counts_partial_block_columnar, k_dominates,
};
use ksjq_skyline::{k_dominant_skyline, KdomAlgo, MatrixView};

fn bench_dominance_kernel(c: &mut Criterion) {
    let spec = DatasetSpec {
        n: 1000,
        agg_attrs: 0,
        local_attrs: 12,
        groups: 1,
        data_type: DataType::Independent,
        seed: 3,
    };
    let rel = spec.generate();
    // The row-at-a-time kernels read gathered rows.
    let rows = rel.gather_rows();
    let row = |i: usize| &rows[i * 12..(i + 1) * 12];
    let mut group = c.benchmark_group("kernel_dominance");
    group.bench_function("dom_counts_12d", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..999u32 {
                acc += dom_counts(row(i as usize), row(i as usize + 1)).le;
            }
            acc
        })
    });
    for k in [7usize, 11] {
        group.bench_with_input(BenchmarkId::new("k_dominates_12d", k), &k, |b, &k| {
            b.iter(|| {
                let mut acc = 0usize;
                for i in 0..999u32 {
                    acc += k_dominates(row(i as usize), row(i as usize + 1), k) as usize;
                }
                acc
            })
        });
    }
    // Split-side primitives: indexed-segment counting and the blocked
    // candidate-vs-relation sweep.
    let attrs: Vec<usize> = (0..6).collect();
    group.bench_function("dom_counts_partial_6of12", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..999u32 {
                acc += dom_counts_partial(row(i as usize), &attrs, &row(i as usize + 1)[..6]).le;
            }
            acc
        })
    });
    group.bench_function("dom_counts_block_1000x12", |b| {
        let probe = row(0).to_vec();
        let mut out = Vec::with_capacity(rel.n());
        b.iter(|| {
            out.clear();
            dom_counts_block(&rows, &probe, &mut out);
            out.iter().map(|c| c.le).sum::<u32>()
        })
    });
    // Columnar counterparts: the attribute-major lane-blocked sweeps the
    // production target-set scan and verifier are built on.
    group.bench_function("dom_counts_block_columnar_1000x12", |b| {
        let probe = row(0).to_vec();
        let mut out = Vec::with_capacity(rel.n());
        b.iter(|| {
            out.clear();
            dom_counts_block_columnar(rel.columns(), rel.n(), &probe, &mut out);
            out.iter().map(|c| c.le).sum::<u32>()
        })
    });
    group.bench_function("dom_counts_partial_columnar_1000x6of12", |b| {
        let probe: Vec<f64> = attrs.iter().map(|&a| row(0)[a]).collect();
        let mut out = Vec::with_capacity(rel.n());
        b.iter(|| {
            out.clear();
            dom_counts_partial_block_columnar(rel.columns(), rel.n(), &attrs, &probe, &mut out);
            out.iter().map(|c| c.le).sum::<u32>()
        })
    });
    group.finish();
}

/// The tentpole comparison: verifying one workload's candidates with the
/// pre-split materialise-then-compare reference vs the split-side kernel.
/// Dataset generation, classification and candidate materialisation are
/// shared setup hoisted out of the timed loops — each sample measures one
/// verification sweep and nothing else.
fn bench_verification_kernels(c: &mut Criterion) {
    let params = PaperParams {
        n: 330,
        data_type: DataType::AntiCorrelated,
        ..Default::default()
    };
    let cfg = Config::default();
    let (r1, r2) = params.relations();
    let cx = params.context(&r1, &r2);
    let cands = prepare_candidates(&cx, params.k, &cfg);
    let mut group = c.benchmark_group("kernel_verification");
    group.sample_size(10);
    group.bench_function("materialized_330", |b| {
        b.iter(|| run_materialized(&cx, params.k, &cands).attr_cmps)
    });
    group.bench_function("split_side_330", |b| {
        b.iter(|| run_split(&cx, params.k, &cands).attr_cmps)
    });
    group.bench_function("columnar_330", |b| {
        b.iter(|| run_columnar(&cx, params.k, &cands).attr_cmps)
    });
    group.finish();
}

/// The dominator-generation phase (dominator-based algorithm phase 2):
/// serial vs sharded target-set precomputation over both sides.
fn bench_parallel_domgen(c: &mut Criterion) {
    let params = PaperParams {
        n: 800,
        data_type: DataType::AntiCorrelated,
        ..Default::default()
    };
    let (r1, r2) = params.relations();
    let cx = params.context(&r1, &r2);
    let p = validate_k(&cx, params.k).unwrap();
    let cls = classify(&cx, &p, KdomAlgo::Tsa);
    let mut group = c.benchmark_group("kernel_domgen");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("precompute_target_sets", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let lt = precompute_target_sets(cx.left(), &cls.left, p.k1_pp, threads);
                    let rt = precompute_target_sets(cx.right(), &cls.right, p.k2_pp, threads);
                    lt.len() + rt.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_kdom_algorithms(c: &mut Criterion) {
    let spec = DatasetSpec {
        n: 800,
        agg_attrs: 0,
        local_attrs: 6,
        groups: 1,
        data_type: DataType::Independent,
        seed: 9,
    };
    let rel = spec.generate();
    let rows = rel.gather_rows();
    let view = MatrixView::new(rel.d(), &rows);
    let all: Vec<u32> = (0..rel.n() as u32).collect();
    let mut group = c.benchmark_group("kernel_kdom_single_relation");
    group.sample_size(10);
    for (name, algo) in [
        ("naive", KdomAlgo::Naive),
        ("osa", KdomAlgo::Osa),
        ("tsa", KdomAlgo::Tsa),
        ("tsa_presort", KdomAlgo::TsaPresort),
    ] {
        group.bench_function(BenchmarkId::new(name, 5), |b| {
            b.iter(|| k_dominant_skyline(&view, &all, 5, algo).len())
        });
    }
    group.finish();
}

fn bench_classification(c: &mut Criterion) {
    let params = PaperParams {
        n: 800,
        ..Default::default()
    };
    let (r1, r2) = params.relations();
    let cx = params.context(&r1, &r2);
    let p = validate_k(&cx, params.k).unwrap();
    let mut group = c.benchmark_group("kernel_classification");
    group.sample_size(10);
    // Classification has one algorithm; the `KdomAlgo` argument is unused.
    group.bench_function("serial", |b| {
        b.iter(|| classify(&cx, &p, KdomAlgo::Tsa).tallies(0))
    });
    group.bench_function("4_threads", |b| {
        b.iter(|| classify_parallel(&cx, &p, KdomAlgo::Tsa, 4).tallies(0))
    });
    group.finish();
}

/// Ablation: the paper's Algorithm 2 checks `SN1 ⋈ SN2` candidates
/// against the whole joined relation; our implementation filters through
/// the left leg's target set first (identical answers — the target filter
/// is a *necessary* condition on dominators). This measures what that
/// refinement buys by comparing the full grouping run against the naive
/// full-join scan it avoids.
fn bench_ablation_target_filter(c: &mut Criterion) {
    let params = PaperParams {
        n: 330,
        d: 5,
        a: 0,
        k: 7,
        ..Default::default()
    };
    let (r1, r2) = params.relations();
    let cx = params.context(&r1, &r2);
    let cfg = Config::default();
    let mut group = c.benchmark_group("ablation_maybe_check");
    group.sample_size(10);
    group.bench_function("grouping_with_target_filter", |b| {
        b.iter(|| ksjq_grouping(&cx, params.k, &cfg).unwrap().len())
    });
    group.bench_function("paper_literal_full_join_scan", |b| {
        b.iter(|| ksjq_naive(&cx, params.k, &cfg).unwrap().len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dominance_kernel,
    bench_verification_kernels,
    bench_parallel_domgen,
    bench_kdom_algorithms,
    bench_classification,
    bench_ablation_target_filter
);
criterion_main!(benches);
