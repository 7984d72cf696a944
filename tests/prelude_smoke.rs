//! Smoke test: the facade `prelude` exposes everything a caller needs to
//! run an end-to-end KSJQ query without naming member crates.

use ksjq::prelude::*;

#[test]
fn prelude_reexports_compile_and_run() {
    // Every name below comes from `ksjq::prelude` alone.
    let flights = ksjq::datagen::paper_flights(false);
    let engine = Engine::new();
    engine.register("outbound", flights.outbound).unwrap();
    engine.register("inbound", flights.inbound).unwrap();
    let plan = QueryPlan::new("outbound", "inbound")
        .goal(Goal::Exact(7))
        .algorithm(Algorithm::Grouping);
    let query: PreparedQuery = engine.prepare(&plan).expect("valid query");
    let result: KsjqOutput = query.execute().expect("query runs");
    assert_eq!(result.len(), 4);

    // Types re-exported for query construction are nameable.
    let _config: Config = Config::default();
    let _spec: JoinSpec = JoinSpec::Equality;
    let _agg: AggFunc = AggFunc::Sum;
    let _theta: ThetaOp = ThetaOp::Lt;
    let _kdom: KdomAlgo = KdomAlgo::Tsa;
    let _strategy: FindKStrategy = FindKStrategy::Binary;
    let _pref: Preference = Preference::Min;
    let _id: TupleId = TupleId(0);
    let _dtype: DataType = DataType::Independent;
}

#[test]
fn prelude_find_k_runs() {
    let flights = ksjq::datagen::paper_flights(false);
    let cx = JoinContext::new(&flights.outbound, &flights.inbound, JoinSpec::Equality, &[])
        .expect("join context");
    let (lo, hi) = k_range(&cx);
    assert!(lo <= hi);
    let report: FindKReport =
        find_k_at_least(&cx, 1, FindKStrategy::Binary, &Config::default()).expect("find-k runs");
    assert!(report.satisfied);
    assert!((lo..=hi).contains(&report.k));
}
