//! Cluster end-to-end tests: a router in front of live `ksjq-serverd`
//! backends must return byte-identical answers to one single-node server
//! for every shard count, survive a replica being killed mid-session,
//! and never drop a live binding when a distributed `LOAD` fails.

use ksjq_datagen::{
    paper_flights, relation_to_annotated_csv, relation_to_csv, DataType, FlightNetworkSpec,
};
use ksjq_join::AggFunc;
use ksjq_router::{DialPolicy, Router, RouterConfig, RunningRouter, Topology};
use ksjq_server::{
    ClientError, ConnectOptions, ErrorCode, FaultPlan, KsjqClient, PlanSpec, RunningServer, Server,
    ServerConfig, SyntheticSpec,
};
use std::time::Duration;

fn backend() -> RunningServer {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_entries: 16,
        ..ServerConfig::default()
    };
    Server::start(ksjq_core::Engine::new(), &config).unwrap()
}

/// Tight timeouts and backoff so failover tests finish quickly; the
/// fixed seed keeps retry jitter deterministic.
fn fast_policy() -> DialPolicy {
    DialPolicy {
        options: ConnectOptions::all(Duration::from_secs(10)),
        attempts: 2,
        backoff: Duration::from_millis(5),
        seed: 42,
    }
}

struct Cluster {
    shards: Vec<Vec<RunningServer>>,
    router: RunningRouter,
}

fn cluster_config(n_shards: usize, n_replicas: usize, config: RouterConfig) -> Cluster {
    let shards: Vec<Vec<RunningServer>> = (0..n_shards)
        .map(|_| (0..n_replicas).map(|_| backend()).collect())
        .collect();
    let topology = Topology::new(
        shards
            .iter()
            .map(|rs| rs.iter().map(|b| b.addr().to_string()).collect())
            .collect(),
    )
    .unwrap();
    let router = Router::start(topology, &config).unwrap();
    Cluster { shards, router }
}

fn cluster_with(n_shards: usize, n_replicas: usize, cache_entries: usize) -> Cluster {
    cluster_config(
        n_shards,
        n_replicas,
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            cache_entries,
            policy: fast_policy(),
            ..RouterConfig::default()
        },
    )
}

fn cluster(n_shards: usize, n_replicas: usize) -> Cluster {
    cluster_with(n_shards, n_replicas, 64)
}

/// The paper's Tables 1–2 as CSV (city key + four Min attributes).
fn paper_csvs() -> (String, String) {
    let pf = paper_flights(false);
    (
        relation_to_csv(&pf.outbound, "city", Some(&pf.cities)).unwrap(),
        relation_to_csv(&pf.inbound, "city", Some(&pf.cities)).unwrap(),
    )
}

/// A query's observable outcome: `Ok((k, pairs))` or a rejected plan.
type Answer = Result<(usize, Vec<(u32, u32)>), ()>;

/// Run a query, collapsing a server-side `ERR` to `Err(())` so oracle
/// and router can be compared even on plans that are invalid (both
/// sides must reject them). Transport errors still panic.
fn run(client: &mut KsjqClient, plan: &PlanSpec) -> Answer {
    match client.query(plan) {
        Ok(rows) => Ok((rows.k, rows.pairs)),
        Err(ClientError::Server { .. }) => Err(()),
        Err(e) => panic!("transport failure: {e}"),
    }
}

/// Single-node oracle: one plain server loaded with the same CSVs.
fn oracle(csvs: &[(&str, &str)], plans: &[PlanSpec]) -> Vec<Answer> {
    let server = backend();
    let mut client = KsjqClient::connect(server.addr()).unwrap();
    for (name, csv) in csvs {
        client.load_csv(name, csv).unwrap();
    }
    let answers = plans.iter().map(|p| run(&mut client, p)).collect();
    client.close().unwrap();
    server.stop().unwrap();
    answers
}

#[test]
fn paper_tables_identical_across_shard_counts() {
    let (out_csv, in_csv) = paper_csvs();
    let plans: Vec<PlanSpec> = (5..=8)
        .map(|k| PlanSpec::new("outbound", "inbound").k(k))
        .chain([PlanSpec::new("outbound", "inbound")])
        .collect();
    let expected = oracle(&[("outbound", &out_csv), ("inbound", &in_csv)], &plans);

    for n_shards in [1, 2, 4] {
        let cl = cluster(n_shards, 1);
        let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
        let loaded = client.load_csv("outbound", &out_csv).unwrap();
        assert!(loaded.contains(&format!("shards={n_shards}")), "{loaded}");
        client.load_csv("inbound", &in_csv).unwrap();
        for (plan, want) in plans.iter().zip(&expected) {
            let got = run(&mut client, plan);
            assert_eq!(&got, want, "shards={n_shards} plan={plan:?}");
        }
        // Table 3 (k = 7), now served from the router's result cache.
        let again = client
            .query(&PlanSpec::new("outbound", "inbound").k(7))
            .unwrap();
        assert_eq!(again.pairs, vec![(0, 2), (2, 0), (4, 4), (5, 5)]);
        assert!(again.cached, "second identical query must hit the cache");
        client.close().unwrap();
    }
}

#[test]
fn prepared_sessions_match_single_node() {
    let (out_csv, in_csv) = paper_csvs();
    let cl = cluster(2, 1);
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();

    let plan = PlanSpec::new("outbound", "inbound").k(7);
    client.prepare("q1", &plan).unwrap();
    let explain = client.explain("q1").unwrap();
    assert!(explain.starts_with("distributed shards=2 "), "{explain}");
    assert!(explain.contains("k=7"), "{explain}");

    let rows = client.execute("q1").unwrap();
    assert_eq!(rows.pairs, vec![(0, 2), (2, 0), (4, 4), (5, 5)]);
    client.close().unwrap();
}

#[test]
fn aggregate_network_identical_across_shard_counts() {
    let net = FlightNetworkSpec {
        outbound: 48,
        inbound: 40,
        hubs: 13,
        seed: 0x5EED,
    }
    .generate();
    let out_csv = relation_to_annotated_csv(&net.outbound, "hub", Some(&net.hubs)).unwrap();
    let in_csv = relation_to_annotated_csv(&net.inbound, "hub", Some(&net.hubs)).unwrap();
    let aggs = [AggFunc::Sum, AggFunc::Sum];
    let plans: Vec<PlanSpec> = vec![
        PlanSpec::new("net_out", "net_in").aggs(&aggs),
        PlanSpec::new("net_out", "net_in").aggs(&aggs).k(7),
        PlanSpec::new("net_out", "net_in").aggs(&aggs).k(6),
    ];
    let expected = oracle(&[("net_out", &out_csv), ("net_in", &in_csv)], &plans);
    assert!(expected[0].is_ok(), "oracle rejected the skyline plan");

    for n_shards in [2, 4] {
        let cl = cluster(n_shards, 1);
        let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
        client.load_csv("net_out", &out_csv).unwrap();
        client.load_csv("net_in", &in_csv).unwrap();
        for (plan, want) in plans.iter().zip(&expected) {
            let got = run(&mut client, plan);
            assert_eq!(&got, want, "shards={n_shards} plan={plan:?}");
        }
        client.close().unwrap();
    }
}

/// Live catalogs through the router: an `APPEND` partitions the delta
/// to the shards that own each join group (two-phase STAGE/COMMIT on
/// every replica), a `DELETE` removes keys everywhere, and after both
/// the cluster answer stays byte-identical to a single node that took
/// the same mutations.
#[test]
fn append_and_delete_identical_across_shard_counts() {
    let (out_csv, in_csv) = paper_csvs();
    let plan = PlanSpec::new("outbound", "inbound").k(7);
    let city = out_csv
        .lines()
        .nth(1)
        .unwrap()
        .split(',')
        .next()
        .unwrap()
        .to_string();
    // A dominant row on a joining city plus a row opening a fresh group.
    let delta = format!("{city},1,1,1,1\nZZZ,9,9,9,9");

    // Single-node oracle taking the identical mutation sequence.
    let server = backend();
    let mut oc = KsjqClient::connect(server.addr()).unwrap();
    oc.load_csv("outbound", &out_csv).unwrap();
    oc.load_csv("inbound", &in_csv).unwrap();
    let baseline = run(&mut oc, &plan);
    oc.append_rows("outbound", &delta).unwrap();
    let after_append = run(&mut oc, &plan);
    assert_ne!(after_append, baseline, "the delta must change this answer");
    oc.delete_keys("outbound", std::slice::from_ref(&city))
        .unwrap();
    let after_delete = run(&mut oc, &plan);
    oc.close().unwrap();
    server.stop().unwrap();

    for n_shards in [1, 2, 3] {
        let cl = cluster(n_shards, 2); // 2 replicas: deltas must reach both
        let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
        client.load_csv("outbound", &out_csv).unwrap();
        client.load_csv("inbound", &in_csv).unwrap();
        // Warm the router's merged-result cache so a stale entry would
        // be caught below.
        assert_eq!(run(&mut client, &plan), baseline, "shards={n_shards}");

        let msg = client.append_rows("outbound", &delta).unwrap();
        assert!(msg.contains("+2 rows"), "{msg}");
        assert_eq!(
            run(&mut client, &plan),
            after_append,
            "shards={n_shards} post-append"
        );

        let msg = client
            .delete_keys("outbound", std::slice::from_ref(&city))
            .unwrap();
        assert!(msg.contains("deleted"), "{msg}");
        assert_eq!(
            run(&mut client, &plan),
            after_delete,
            "shards={n_shards} post-delete"
        );

        // Staged spelling stays backend-only at the router.
        match client.append_stage("outbound", &delta) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Invalid);
                assert!(message.contains("backend-only"), "{message}");
            }
            other => panic!("router must reject APPEND … STAGE, got {other:?}"),
        }
        client.close().unwrap();
    }
}

/// Shrunken round-2 batch sizes force multiple FETCH/CHECK round trips
/// per shard — the answer must not change, and the knobs are visible as
/// STATS extension tokens.
#[test]
fn tiny_round2_batches_answer_identically() {
    let (out_csv, in_csv) = paper_csvs();
    let plans = vec![
        PlanSpec::new("outbound", "inbound").k(7),
        PlanSpec::new("outbound", "inbound").k(5),
    ];
    let expected = oracle(&[("outbound", &out_csv), ("inbound", &in_csv)], &plans);

    let cl = cluster_config(
        3,
        1,
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            cache_entries: 0, // every query exercises the two-round path
            policy: fast_policy(),
            fetch_batch: 2,
            check_batch: 1,
            ..RouterConfig::default()
        },
    );
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();
    for (plan, want) in plans.iter().zip(&expected) {
        assert_eq!(&run(&mut client, plan), want, "plan={plan:?}");
    }
    let raw = client.raw("STATS").unwrap();
    assert!(raw.contains(" fetch_batch=2"), "{raw}");
    assert!(raw.contains(" check_batch=1"), "{raw}");
    client.close().unwrap();
}

#[test]
fn find_k_goals_match_single_node() {
    use ksjq_core::{FindKStrategy, Goal};
    let (out_csv, in_csv) = paper_csvs();
    let plans: Vec<PlanSpec> = vec![
        PlanSpec::new("outbound", "inbound").goal(Goal::AtLeast(4, FindKStrategy::Binary)),
        PlanSpec::new("outbound", "inbound").goal(Goal::AtMost(3, FindKStrategy::Range)),
        PlanSpec::new("outbound", "inbound").goal(Goal::AtLeast(2, FindKStrategy::Naive)),
    ];
    let expected = oracle(&[("outbound", &out_csv), ("inbound", &in_csv)], &plans);

    let cl = cluster(3, 1);
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();
    for (plan, want) in plans.iter().zip(&expected) {
        let got = run(&mut client, plan);
        assert_eq!(&got, want, "find-k plan={plan:?}");
    }
    client.close().unwrap();
}

#[test]
fn disjoint_join_keys_yield_the_same_empty_result() {
    let left = "city,cost,rating:max\nAAA,1,2\nBBB,2,3\nCCC,3,4\n";
    let right = "city,cost,rating:max\nDDD,1,2\nEEE,2,3\n";
    let plans = [PlanSpec::new("l", "r")];
    let expected = oracle(&[("l", left), ("r", right)], &plans);

    for n_shards in [1, 2, 4] {
        let cl = cluster(n_shards, 1);
        let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
        client.load_csv("l", left).unwrap();
        client.load_csv("r", right).unwrap();
        let got = run(&mut client, &plans[0]);
        assert_eq!(&got, &expected[0], "shards={n_shards}");
        assert_eq!(got.unwrap().1, Vec::<(u32, u32)>::new());
        client.close().unwrap();
    }
}

#[test]
fn replica_failover_mid_session() {
    let mut cl = cluster_with(2, 2, 0); // cache off: re-query must re-fan-out
    let (out_csv, in_csv) = paper_csvs();
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();

    let plan = PlanSpec::new("outbound", "inbound").k(7);
    let before = client.query(&plan).unwrap();
    assert_eq!(before.pairs, vec![(0, 2), (2, 0), (4, 4), (5, 5)]);

    // Kill one replica of each shard — including whichever one this
    // session's dialers were just talking to.
    cl.shards[0].remove(0).stop().unwrap();
    cl.shards[1].remove(0).stop().unwrap();

    let after = client.query(&plan).unwrap();
    assert_eq!(after.pairs, before.pairs, "failover changed the answer");
    assert!(!after.cached);

    let stats = client.stats().unwrap();
    assert!(
        stats.shard_retries >= 1,
        "failover must be counted: {stats:?}"
    );
    assert_eq!(stats.shard_errors, 0, "no shard was fully down: {stats:?}");
    client.close().unwrap();
}

#[test]
fn whole_shard_down_is_reported_not_hung() {
    let mut cl = cluster_with(2, 1, 0);
    let (out_csv, in_csv) = paper_csvs();
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();

    for replicas in &mut cl.shards {
        for server in replicas.drain(..) {
            server.stop().unwrap();
        }
    }

    let err = client
        .query(&PlanSpec::new("outbound", "inbound").k(7))
        .unwrap_err();
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::Unavailable, "{message}");
            assert!(code.is_transient(), "unavailable must invite a retry");
        }
        other => panic!("expected a server-side error, got {other}"),
    }
    let stats = client.stats().unwrap();
    assert!(stats.shard_errors >= 1, "{stats:?}");
    client.close().unwrap();
}

#[test]
fn failed_load_keeps_the_old_binding_on_every_shard() {
    let cl = cluster_with(2, 2, 0);
    let (out_csv, in_csv) = paper_csvs();
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();
    let plan = PlanSpec::new("outbound", "inbound").k(7);
    let before = client.query(&plan).unwrap();

    // A replacement that partitions fine at the router (cells are just
    // strings there) but fails schema validation when a shard stages it
    // mid-two-phase-load. The old binding must survive everywhere.
    let bad = "city,cost,flying_time,fee,popularity\nJAI,cheap,1,1,1\nBOM,2,2,2,2\n";
    let err = client.load_csv("outbound", bad).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Parse), "{err}");

    let after = client.query(&plan).unwrap();
    assert_eq!(after.pairs, before.pairs, "failed LOAD corrupted a shard");

    // Directly on each backend: the original slice still answers, and
    // nothing is left staged (ABORT ran everywhere).
    for replicas in &cl.shards {
        for server in replicas {
            let mut direct = KsjqClient::connect(server.addr()).unwrap();
            let err = direct.commit("outbound").unwrap_err();
            match err {
                ClientError::Server { code, message } => {
                    assert_eq!(code, ErrorCode::Invalid, "{message}");
                    assert!(message.contains("nothing staged"), "{message}")
                }
                other => panic!("unexpected: {other}"),
            }
            direct.close().unwrap();
        }
    }
}

#[test]
fn stats_report_fanout_counters_and_shard_rows() {
    let cl = cluster(2, 1);
    let (out_csv, in_csv) = paper_csvs();
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();
    client
        .query(&PlanSpec::new("outbound", "inbound").k(7))
        .unwrap();

    let stats = client.stats().unwrap();
    assert!(stats.fanout_queries >= 1, "{stats:?}");
    assert_eq!(stats.shard_errors, 0, "{stats:?}");

    // The raw line carries per-shard row counts after the standard
    // fields; ServerStats::parse must tolerate (and a fresh client
    // ignore) the extension tokens.
    let raw = client.raw("STATS").unwrap();
    assert!(raw.contains("fanout_queries="), "{raw}");
    assert!(raw.contains("shard0_rows="), "{raw}");
    assert!(raw.contains("shard1_rows="), "{raw}");
    let per_shard: u64 = raw
        .split_whitespace()
        .filter_map(|tok| tok.strip_prefix("shard"))
        .filter_map(|tok| {
            tok.split_once("_rows=")
                .and_then(|(_, v)| v.parse::<u64>().ok())
        })
        .sum();
    let total_rows = (out_csv.lines().count() - 1 + in_csv.lines().count() - 1) as u64;
    assert_eq!(
        per_shard, total_rows,
        "shard rows must sum to the loaded rows: {raw}"
    );
    client.close().unwrap();
}

#[test]
fn router_rejects_backend_only_and_reserved_input() {
    let cl = cluster(1, 1);
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    for backend_only in ["SYNC", "STAGE x INLINE a,b;1,2", "COMMIT x", "ABORT x"] {
        let reply = client.raw(backend_only).unwrap();
        assert!(reply.starts_with("ERR "), "{backend_only} -> {reply}");
    }
    // Reserved broadcast namespace.
    let err = client.load_csv(".all.x", "a,b\n1,2\n").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Invalid), "{err}");
    // Unknown relations.
    let err = client.query(&PlanSpec::new("no", "pe")).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Invalid), "{err}");
    // The session survives all of the above.
    client.load_csv("ok", "city,cost\nJAI,1\n").unwrap();
    client.load_csv("ok2", "city,cost\nJAI,2\n").unwrap();
    let rows = client.query(&PlanSpec::new("ok", "ok2")).unwrap();
    assert_eq!(rows.pairs, vec![(0, 0)]);
    client.close().unwrap();
}

/// A session `DEADLINE` bounds the whole scatter-gather: the budget is
/// split across the router's rounds and the shards' kernels cancel
/// cooperatively, so an over-tight deadline yields `ERR timeout` — and
/// clearing it lets the very same session run the query to completion.
#[test]
fn deadline_bounds_the_scatter_gather() {
    let cl = cluster_with(2, 1, 0);
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    let spec = |seed| SyntheticSpec {
        data_type: DataType::AntiCorrelated,
        n: 1500,
        d: 7,
        a: 0,
        g: 5,
        seed,
    };
    client.load_synthetic("dl1", spec(7)).unwrap();
    client.load_synthetic("dl2", spec(1007)).unwrap();
    let heavy = PlanSpec::new("dl1", "dl2")
        .k(11)
        .algorithm(ksjq_core::Algorithm::DominatorBased);
    client.set_deadline(1).unwrap();
    let err = client.query(&heavy).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Timeout), "{err}");
    assert!(err.is_transient(), "a timeout is worth retrying");
    client.set_deadline(0).unwrap();
    assert!(!client.query(&heavy).unwrap().cached);
    client.close().unwrap();
}

/// Seeded faults on every router→backend connection (drops and partial
/// writes; no bit flips — those are a payload-corruption drill, not an
/// availability one): the dialer's failover and retries absorb what they
/// can, and every `ROWS` that reaches the client is byte-identical to
/// the single-node oracle. Flaky backends degrade availability, never
/// correctness.
#[test]
fn seeded_backend_faults_never_change_an_answer() {
    let (out_csv, in_csv) = paper_csvs();
    let plan = PlanSpec::new("outbound", "inbound").k(7);
    let expected = oracle(
        &[("outbound", &out_csv), ("inbound", &in_csv)],
        std::slice::from_ref(&plan),
    );

    let faults: FaultPlan = "seed=99,drop=25,partial=25".parse().unwrap();
    eprintln!("chaos plan={faults}");
    let mut policy = fast_policy();
    policy.options.faults = Some(faults);
    policy.attempts = 4;
    // cache_entries = 0: every query must cross the faulty wires.
    let cl = cluster_config(
        2,
        2,
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            cache_entries: 0,
            policy,
            ..RouterConfig::default()
        },
    );
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    // Loads fan out to every replica; under injected faults a LOAD may
    // fail partially (reported `unavailable`) — rebinding is idempotent,
    // so retry until both names are live.
    for (name, csv) in [("outbound", &out_csv), ("inbound", &in_csv)] {
        let mut done = false;
        for _ in 0..20 {
            match client.load_csv(name, csv) {
                Ok(_) => {
                    done = true;
                    break;
                }
                Err(e) => assert!(e.code().is_some() || e.is_transient(), "{e}"),
            }
        }
        assert!(done, "LOAD {name} never survived the fault plan");
    }
    let (mut completed, mut severed) = (0u32, 0u32);
    for _ in 0..40 {
        match run(&mut client, &plan) {
            Ok(answer) => {
                completed += 1;
                assert_eq!(Ok(answer), expected[0], "faults corrupted a routed answer");
            }
            Err(()) => severed += 1,
        }
    }
    eprintln!("chaos: {completed} completed, {severed} degraded");
    assert!(
        completed > 0,
        "nothing got through — weaken the fault rates"
    );
    client.close().unwrap();
}

/// Satellite: shard-count invariance on random synthetic specs — the
/// sharded cluster is a metamorphic twin of a single node.
mod invariance {
    use super::*;
    use ksjq_datagen::DataType;
    use proptest::prelude::*;
    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    static CASE: AtomicU64 = AtomicU64::new(0);

    /// One oracle backend plus 2- and 3-shard clusters, shared by every
    /// proptest case (relation names are unique per case). Leaked on
    /// purpose: they serve until the test process exits.
    fn fixtures() -> (SocketAddr, SocketAddr, SocketAddr) {
        static FIX: OnceLock<(SocketAddr, SocketAddr, SocketAddr)> = OnceLock::new();
        *FIX.get_or_init(|| {
            let single = backend();
            let addr1 = single.addr();
            std::mem::forget(single);
            let c2 = cluster(2, 1);
            let addr2 = c2.router.addr();
            std::mem::forget(c2);
            let c3 = cluster(3, 1);
            let addr3 = c3.router.addr();
            std::mem::forget(c3);
            (addr1, addr2, addr3)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn sharded_equals_single_node(
            dt in 0usize..3,
            n in 8usize..40,
            d in 2usize..5,
            a in 0usize..3,
            g in 1usize..7,
            seed in 0u64..1 << 32,
        ) {
            let data_type = [DataType::Independent, DataType::Correlated, DataType::AntiCorrelated][dt];
            let a = a.min(d - 1);
            let aggs = vec![AggFunc::Sum; a];
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let (lname, rname) = (format!("pl_{case}"), format!("pr_{case}"));
            let spec = |seed: u64| SyntheticSpec { data_type, n, d, a, g, seed };

            let (single, two, three) = fixtures();
            let mut answers = Vec::new();
            for addr in [single, two, three] {
                let mut client = KsjqClient::connect(addr).unwrap();
                client.load_synthetic(&lname, spec(seed)).unwrap();
                client.load_synthetic(&rname, spec(seed ^ 0x9E37_79B9)).unwrap();
                let plan = PlanSpec::new(&lname, &rname).aggs(&aggs);
                let skyline = run(&mut client, &plan);
                // Also probe one tighter k below the maximum; both sides
                // must agree even when that k is invalid.
                let tight = run(&mut client, &plan.clone().k(2 * d - a - 1));
                client.close().unwrap();
                answers.push((skyline, tight));
            }
            prop_assert_eq!(
                &answers[1], &answers[0],
                "2 shards vs single node: dt={:?} n={} d={} a={} g={} seed={}",
                data_type, n, d, a, g, seed
            );
            prop_assert_eq!(
                &answers[2], &answers[0],
                "3 shards vs single node: dt={:?} n={} d={} a={} g={} seed={}",
                data_type, n, d, a, g, seed
            );
        }
    }
}

/// Round 2 re-reads the deadline before every backend frame. With one
/// pair per `FETCH`/`CHECK` frame this query needs thousands of frames,
/// each cheap on its own: a budget taken once per phase would let every
/// frame run on the full budget, so the query would overrun its
/// `DEADLINE` many times over. It must instead end in `ERR timeout`
/// soon after the budget is spent.
#[test]
fn round2_deadline_is_rechecked_between_frames() {
    let cl = cluster_config(
        2,
        1,
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            cache_entries: 0,
            policy: fast_policy(),
            fetch_batch: 1,
            check_batch: 1,
            ..RouterConfig::default()
        },
    );
    let mut client = KsjqClient::connect(cl.router.addr()).unwrap();
    let spec = |seed| SyntheticSpec {
        data_type: DataType::Independent,
        n: 800,
        d: 7,
        a: 2,
        g: 10,
        seed,
    };
    client.load_synthetic("t1", spec(42)).unwrap();
    client.load_synthetic("t2", spec(1042)).unwrap();
    let plan = PlanSpec::new("t1", "t2")
        .aggs(&[AggFunc::Sum, AggFunc::Sum])
        .k(11);
    client.set_deadline(100).unwrap();
    let started = std::time::Instant::now();
    let err = client.query(&plan).unwrap_err();
    let took = started.elapsed();
    assert_eq!(err.code(), Some(ErrorCode::Timeout), "{err}");
    assert!(
        took < Duration::from_secs(1),
        "timed out only after {took:?}"
    );
    client.close().unwrap();
}
