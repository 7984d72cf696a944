//! The engine/plan serving surface: equivalence with direct algorithm
//! calls on the paper's running example, concurrent preparation/execution, prepare-time
//! error reporting, and `explain` coverage.

mod common;

use common::*;
use ksjq::datagen::paper_flights;
use ksjq::prelude::*;

fn flights_engine() -> Engine {
    let engine = Engine::new();
    let pf = paper_flights(false);
    engine.register("outbound", pf.outbound).unwrap();
    engine.register("inbound", pf.inbound).unwrap();
    engine
}

/// Acceptance gate: on the paper's Tables 1–3 example at k = 7 (final
/// skyline of 4 pairs), every algorithm returns the identical answer
/// through `Engine::prepare(plan).execute()` as through a direct call on
/// a borrowed `JoinContext`.
#[test]
fn engine_equals_direct_calls_on_paper_example() {
    let engine = flights_engine();
    let pf = paper_flights(false);
    let cx = JoinContext::new(&pf.outbound, &pf.inbound, JoinSpec::Equality, &[]).unwrap();
    let cfg = Config::default();
    for algorithm in [
        Algorithm::Naive,
        Algorithm::Grouping,
        Algorithm::DominatorBased,
    ] {
        let direct = match algorithm {
            Algorithm::Naive => ksjq_naive(&cx, 7, &cfg),
            Algorithm::Grouping => ksjq_grouping(&cx, 7, &cfg),
            Algorithm::DominatorBased => ksjq_dominator_based(&cx, 7, &cfg),
        }
        .unwrap();
        let plan = QueryPlan::new("outbound", "inbound")
            .goal(Goal::Exact(7))
            .algorithm(algorithm);
        let engine_out = engine.prepare(&plan).unwrap().execute().unwrap();
        assert_eq!(engine_out.pairs, direct.pairs, "{algorithm}");
        assert_eq!(engine_out.len(), 4, "{algorithm}"); // Table 3
    }
}

/// The new surface has zero public lifetime parameters: a prepared query
/// is a plain `Send + Sync + 'static` value that can outlive everything
/// that built it.
#[test]
fn new_surface_is_owned_send_sync() {
    fn assert_owned<T: Send + Sync + 'static>() {}
    assert_owned::<Engine>();
    assert_owned::<Catalog>();
    assert_owned::<RelationHandle>();
    assert_owned::<QueryPlan>();
    assert_owned::<PreparedQuery>();
    assert_owned::<Explain>();

    // And dynamically: the prepared query works after engine + catalog
    // are gone.
    let prepared = flights_engine()
        .prepare(&QueryPlan::new("outbound", "inbound").k(7))
        .unwrap();
    assert_eq!(prepared.execute().unwrap().len(), 4);
}

/// One engine, many threads: the same and different plans prepared and
/// executed concurrently must all equal their single-threaded baselines,
/// for all three algorithms.
#[test]
fn concurrent_preparation_and_execution() {
    let engine = Engine::new();
    let r1 = random_grouped(11, 120, 1, 3, 6, 8);
    let r2 = random_grouped(12, 120, 1, 3, 6, 8);
    engine.register("r1", r1).unwrap();
    engine.register("r2", r2).unwrap();

    let algorithms = [
        Algorithm::Naive,
        Algorithm::Grouping,
        Algorithm::DominatorBased,
    ];
    // Different plans: one per valid k (d1 = d2 = 4, a = 1 ⇒ k ∈ [5, 7]).
    let plans: Vec<QueryPlan> = (5..=7)
        .map(|k| {
            QueryPlan::new("r1", "r2")
                .aggregate(AggFunc::Sum)
                .goal(Goal::Exact(k))
        })
        .collect();

    // Single-threaded baselines, algorithm-independent by the equivalence
    // suites; computed with each algorithm anyway for a strict check.
    let baselines: Vec<Vec<_>> = plans
        .iter()
        .map(|plan| {
            algorithms
                .iter()
                .map(|&algo| {
                    engine
                        .prepare(&plan.clone().algorithm(algo))
                        .unwrap()
                        .execute()
                        .unwrap()
                        .pairs
                })
                .collect()
        })
        .collect();

    // 9 threads (≥ 4): every (plan, algorithm) pair concurrently, with
    // thread 0 and thread 1 racing on the *same* plan as well.
    std::thread::scope(|s| {
        for (pi, plan) in plans.iter().enumerate() {
            for (ai, &algo) in algorithms.iter().enumerate() {
                let engine = engine.clone();
                let expected = &baselines[pi][ai];
                let plan = plan.clone().algorithm(algo);
                s.spawn(move || {
                    let prepared = engine.prepare(&plan).unwrap();
                    for _ in 0..3 {
                        assert_eq!(&prepared.execute().unwrap().pairs, expected, "{algo}");
                    }
                });
            }
        }
    });
}

/// A prepared query shared by reference across threads (prepare once,
/// execute everywhere) — the serving pattern the engine exists for.
#[test]
fn shared_prepared_query_across_threads() {
    let engine = flights_engine();
    let prepared = engine
        .prepare(&QueryPlan::new("outbound", "inbound").k(7))
        .unwrap();
    let baseline = prepared.execute().unwrap().pairs;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let prepared = &prepared;
            let baseline = &baseline;
            s.spawn(move || {
                assert_eq!(&prepared.execute().unwrap().pairs, baseline);
            });
        }
    });
}

#[test]
fn unknown_relation_surfaces_at_prepare() {
    let engine = flights_engine();
    let err = engine
        .prepare(&QueryPlan::new("outbound", "no-such-relation"))
        .unwrap_err();
    assert!(
        matches!(err, CoreError::UnknownRelation { ref name } if name == "no-such-relation"),
        "{err:?}"
    );
    assert!(err.to_string().contains("no-such-relation"));
}

#[test]
fn invalid_k_goal_surfaces_at_prepare() {
    let engine = flights_engine();
    // d1 = d2 = 4 ⇒ valid k ∈ [5, 8].
    for bad_k in [0, 4, 9] {
        let err = engine
            .prepare(&QueryPlan::new("outbound", "inbound").goal(Goal::Exact(bad_k)))
            .unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidK { k, min: 5, max: 8 } if k == bad_k),
            "k={bad_k}: {err:?}"
        );
    }
    // Invalid find-k delta too.
    let err = engine
        .prepare(
            &QueryPlan::new("outbound", "inbound").goal(Goal::AtLeast(0, FindKStrategy::Binary)),
        )
        .unwrap_err();
    assert!(matches!(err, CoreError::InvalidDelta), "{err:?}");
}

#[test]
fn aggregate_arity_mismatch_surfaces_at_prepare() {
    let engine = flights_engine();
    // The flight relations have no aggregate slots; passing a func is an
    // arity mismatch the *prepare* step must reject (never execute).
    let err = engine
        .prepare(&QueryPlan::new("outbound", "inbound").aggregate(AggFunc::Sum))
        .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Join(ksjq::join::JoinError::AggArityMismatch { .. })
        ),
        "{err:?}"
    );
}

#[test]
fn duplicate_registration_rejected() {
    let engine = flights_engine();
    let pf = paper_flights(false);
    let err = engine.register("outbound", pf.outbound).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Relation(ksjq::relation::Error::DuplicateRelation(ref n)) if n == "outbound"
        ),
        "{err:?}"
    );
}

/// `explain()` covers the join kind, arities, k-range, derived k′/k″
/// thresholds, algorithm and kdom subroutine.
#[test]
fn explain_reports_the_full_plan() {
    let engine = flights_engine();
    let prepared = engine
        .prepare(
            &QueryPlan::new("outbound", "inbound")
                .goal(Goal::Exact(7))
                .algorithm(Algorithm::DominatorBased)
                .kdom(KdomAlgo::Osa),
        )
        .unwrap();
    let explain = prepared.explain();

    // Structured facts.
    assert_eq!(explain.join, JoinSpec::Equality);
    assert_eq!(
        (explain.params.d1, explain.params.d2, explain.params.a),
        (4, 4, 0)
    );
    assert_eq!((explain.k_min, explain.k_max), (5, 8));
    assert_eq!(explain.params.k, 7);
    assert_eq!(explain.params.k1_prime, 3); // k − l2 = 7 − 4
    assert_eq!(explain.params.k1_pp, 3); // k′ − a
    assert_eq!(explain.algorithm, Algorithm::DominatorBased);
    assert_eq!(explain.kdom, KdomAlgo::Osa);

    // Rendered forms.
    let text = explain.to_string();
    for needle in [
        "equality join",
        "d1 = 4",
        "d2 = 4",
        "valid k in [5, 8]",
        "k'1 = 3",
        "k''1 = 3",
        "dominator-based",
        "osa",
        "\"outbound\"",
        "\"inbound\"",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let compact = explain.compact();
    assert!(!compact.contains('\n'));
    assert!(compact.contains("k=7") && compact.contains("kdom=osa"));
}

/// Find-k goals resolve during prepare and agree with the direct
/// `find_k_at_least` / `find_k_at_most` searches followed by a grouping
/// run at the `k` they pick.
#[test]
fn find_k_goals_match_direct_calls() {
    let engine = flights_engine();
    let pf = paper_flights(false);
    let cx = JoinContext::new(&pf.outbound, &pf.inbound, JoinSpec::Equality, &[]).unwrap();
    let cfg = Config::default();
    for (goal, report) in [
        (
            Goal::AtLeast(2, FindKStrategy::Binary),
            find_k_at_least(&cx, 2, FindKStrategy::Binary, &cfg).unwrap(),
        ),
        (
            Goal::AtMost(3, FindKStrategy::Binary),
            find_k_at_most(&cx, 3, FindKStrategy::Binary, &cfg).unwrap(),
        ),
    ] {
        let prepared = engine
            .prepare(&QueryPlan::new("outbound", "inbound").goal(goal))
            .unwrap();
        assert_eq!(prepared.k(), report.k, "{goal}");
        assert_eq!(
            prepared.find_k_report().unwrap().satisfied,
            report.satisfied,
            "{goal}"
        );
        assert_eq!(
            prepared.execute().unwrap().pairs,
            ksjq_grouping(&cx, report.k, &cfg).unwrap().pairs,
            "{goal}"
        );
    }
}

/// A deadline that passes during classification stops it: the grouping
/// algorithm, given 1 ms on an input whose classification takes far
/// longer, returns `DeadlineExceeded` in under a quarter of the time an
/// undeadlined classification of the same input takes.
#[test]
fn deadline_stops_classification() {
    use ksjq::core::{classify_parallel, validate_k};
    use std::time::{Duration, Instant};
    let spec = DatasetSpec {
        n: 4000,
        agg_attrs: 2,
        local_attrs: 5,
        groups: 1,
        data_type: DataType::AntiCorrelated,
        seed: 42,
    };
    let r1 = spec.generate();
    let r2 = DatasetSpec { seed: 1042, ..spec }.generate();
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &[AggFunc::Sum; 2]).unwrap();
    let k = 11;
    let p = validate_k(&cx, k).unwrap();
    let start = Instant::now();
    classify_parallel(&cx, &p, KdomAlgo::Tsa, 1);
    let full = start.elapsed();

    let start = Instant::now();
    let cfg = Config {
        deadline: Some(start + Duration::from_millis(1)),
        ..Config::default()
    };
    let err = ksjq_grouping(&cx, k, &cfg).unwrap_err();
    let stopped = start.elapsed();
    assert_eq!(err, CoreError::DeadlineExceeded);
    assert!(
        stopped * 4 < full,
        "stopped after {stopped:?}; an undeadlined classification takes {full:?}"
    );
}
