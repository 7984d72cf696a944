//! End-to-end tests over live sockets: wire results must be byte-identical
//! to in-process `Engine::execute`, 64 concurrent mixed sessions must not
//! panic an 8-worker server, and no protocol input — junk, truncation,
//! oversized frames, binary garbage — may take the server down.

use ksjq_core::{Algorithm, Engine, Goal, QueryPlan};
use ksjq_datagen::{paper_flights, relation_to_csv, DataType, DatasetSpec};
use ksjq_server::{KsjqClient, PlanSpec, Server, ServerConfig, SyntheticSpec, MAX_LINE_BYTES};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

fn ephemeral() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 8,
        cache_entries: 64,
        ..ServerConfig::default()
    }
}

/// The paper's Tables 1–2 as CSV text (city key + four Min attributes).
fn paper_csvs() -> (String, String) {
    let pf = paper_flights(false);
    (
        relation_to_csv(&pf.outbound, "city", Some(&pf.cities)).unwrap(),
        relation_to_csv(&pf.inbound, "city", Some(&pf.cities)).unwrap(),
    )
}

#[test]
fn paper_example_over_the_wire_matches_in_process() {
    let (out_csv, in_csv) = paper_csvs();

    // In-process reference through the identical CSV ingestion path.
    let local = Engine::new();
    local.catalog().register_csv("outbound", &out_csv).unwrap();
    local.catalog().register_csv("inbound", &in_csv).unwrap();
    let reference = local
        .execute(&QueryPlan::new("outbound", "inbound").k(7))
        .unwrap();

    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let mut client = KsjqClient::connect(server.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();
    client
        .prepare("q1", &PlanSpec::new("outbound", "inbound").k(7))
        .unwrap();

    let explain = client.explain("q1").unwrap();
    assert!(explain.contains("k=7"), "{explain}");
    assert!(explain.contains("outbound"), "{explain}");

    let rows = client.execute("q1").unwrap();
    assert!(!rows.cached);
    let expected: Vec<(u32, u32)> = reference.pairs.iter().map(|&(l, r)| (l.0, r.0)).collect();
    assert_eq!(rows.pairs, expected, "wire result differs from in-process");
    // Table 3's final skyline, as flight numbers.
    let flights: Vec<(u32, u32)> = rows.pairs.iter().map(|&(l, r)| (11 + l, 21 + r)).collect();
    assert_eq!(flights, vec![(11, 23), (13, 21), (15, 25), (16, 26)]);

    // The identical EXECUTE again: served from cache, same rows.
    let again = client.execute("q1").unwrap();
    assert!(
        again.cached,
        "second identical EXECUTE should hit the cache"
    );
    assert_eq!(again.pairs, rows.pairs);
    // …and the one-shot QUERY spelling of the same plan shares the entry.
    let one_shot = client
        .query(&PlanSpec::new("outbound", "inbound").k(7))
        .unwrap();
    assert!(
        one_shot.cached,
        "QUERY should hit the PREPARE'd plan's entry"
    );
    assert_eq!(one_shot.pairs, rows.pairs);

    let stats = client.stats().unwrap();
    assert!(stats.cache_hits >= 2, "{stats:?}");
    assert_eq!(stats.relations, 2);
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.workers, 8);
    assert_eq!(stats.errors, 0);
    // The verification kernel's work counters travel over the wire; the
    // in-process reference run tells us exactly what the one non-cached
    // EXECUTE must have reported.
    let expected_counts = reference.stats.counts;
    assert!(expected_counts.dom_tests > 0, "{expected_counts:?}");
    assert_eq!(stats.dom_tests, expected_counts.dom_tests, "{stats:?}");
    assert_eq!(stats.attr_cmps, expected_counts.attr_cmps, "{stats:?}");
    // Grouping plans never run dominator generation, so the cumulative
    // timing must still be zero…
    assert_eq!(stats.domgen_us, 0, "{stats:?}");
    // Cache hits never re-run the kernel: counters are unchanged after
    // another cached EXECUTE.
    assert!(client.execute("q1").unwrap().cached);
    let after = client.stats().unwrap();
    assert_eq!(after.dom_tests, stats.dom_tests);
    assert_eq!(after.attr_cmps, stats.attr_cmps);
    assert_eq!(after.domgen_us, 0);

    // …and a dominator-based plan over a relation big enough that its
    // O(n²) dominator-generation phase cannot round to 0 µs must move it.
    let spec = |seed| SyntheticSpec {
        data_type: DataType::AntiCorrelated,
        n: 1500,
        d: 7,
        a: 0,
        g: 5,
        seed,
    };
    client.load_synthetic("dg1", spec(7)).unwrap();
    client.load_synthetic("dg2", spec(1007)).unwrap();
    let plan = PlanSpec::new("dg1", "dg2")
        .k(11)
        .algorithm(Algorithm::DominatorBased);
    assert!(!client.query(&plan).unwrap().cached);
    let domgen = client.stats().unwrap();
    assert!(domgen.domgen_us > 0, "{domgen:?}");
    // Cache hit: the cumulative domgen timing must not move.
    assert!(client.query(&plan).unwrap().cached);
    assert_eq!(client.stats().unwrap().domgen_us, domgen.domgen_us);

    client.close().unwrap();
    server.stop().unwrap();
}

#[test]
fn every_goal_and_algorithm_agree_over_the_wire() {
    let (out_csv, in_csv) = paper_csvs();
    let local = Engine::new();
    local.catalog().register_csv("outbound", &out_csv).unwrap();
    local.catalog().register_csv("inbound", &in_csv).unwrap();

    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let mut client = KsjqClient::connect(server.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();

    let goals: Vec<Goal> = vec![
        Goal::SkylineJoin,
        Goal::Exact(6),
        Goal::Exact(7),
        "atleast:2".parse().unwrap(),
        "atmost:4:range".parse().unwrap(),
    ];
    for goal in goals {
        for algorithm in [
            Algorithm::Grouping,
            Algorithm::Naive,
            Algorithm::DominatorBased,
        ] {
            let expected = local
                .execute(
                    &QueryPlan::new("outbound", "inbound")
                        .goal(goal)
                        .algorithm(algorithm),
                )
                .unwrap();
            let rows = client
                .query(
                    &PlanSpec::new("outbound", "inbound")
                        .goal(goal)
                        .algorithm(algorithm),
                )
                .unwrap();
            let expected: Vec<(u32, u32)> =
                expected.pairs.iter().map(|&(l, r)| (l.0, r.0)).collect();
            assert_eq!(rows.pairs, expected, "goal {goal}, algorithm {algorithm}");
        }
    }
    client.close().unwrap();
    server.stop().unwrap();
}

#[test]
fn sixty_four_concurrent_mixed_sessions_on_eight_workers() {
    let engine = Engine::new();
    let pf = paper_flights(false);
    engine.register("outbound", pf.outbound).unwrap();
    engine.register("inbound", pf.inbound).unwrap();
    let expected: Vec<(u32, u32)> = engine
        .execute(&QueryPlan::new("outbound", "inbound").k(7))
        .unwrap()
        .pairs
        .iter()
        .map(|&(l, r)| (l.0, r.0))
        .collect();

    let server = Server::start(engine, &ephemeral()).unwrap();
    let addr = server.addr();

    // A shared session other connections EXECUTE by name.
    let mut setup = KsjqClient::connect(addr).unwrap();
    setup
        .prepare("shared", &PlanSpec::new("outbound", "inbound").k(7))
        .unwrap();
    setup.close().unwrap();

    std::thread::scope(|scope| {
        for i in 0..64usize {
            let expected = expected.clone();
            scope.spawn(move || {
                let mut client = KsjqClient::connect(addr).unwrap();
                let rows = match i % 3 {
                    0 => client
                        .query(&PlanSpec::new("outbound", "inbound").k(7))
                        .unwrap(),
                    1 => {
                        let id = format!("q{i}");
                        client
                            .prepare(&id, &PlanSpec::new("outbound", "inbound").k(7))
                            .unwrap();
                        let explain = client.explain(&id).unwrap();
                        assert!(explain.contains("k=7"), "{explain}");
                        client.execute(&id).unwrap()
                    }
                    _ => {
                        client.stats().unwrap();
                        client.execute("shared").unwrap()
                    }
                };
                assert_eq!(rows.pairs, expected, "connection {i}");
                client.close().unwrap();
            });
        }
    });

    let mut client = KsjqClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.connections >= 65, "{stats:?}");
    assert!(
        stats.cache_hits > 0,
        "repeat executions must hit: {stats:?}"
    );
    assert_eq!(stats.errors, 0, "{stats:?}");
    client.close().unwrap();
    server.stop().unwrap();
}

#[test]
fn annotated_schemas_survive_the_wire() {
    // The flight network has aggregate slots and Max attributes; loaded
    // via annotated CSV, the wire results must still match in-process
    // execution (a bare-name header would silently flip Max to Min).
    use ksjq_datagen::{relation_to_annotated_csv, FlightNetworkSpec};
    let net = FlightNetworkSpec {
        outbound: 40,
        inbound: 30,
        hubs: 5,
        seed: 11,
    }
    .generate();
    let aggs = [ksjq_join::AggFunc::Sum, ksjq_join::AggFunc::Sum];
    let local = Engine::new();
    local.register("out", net.outbound.clone()).unwrap();
    local.register("in", net.inbound.clone()).unwrap();
    let expected: Vec<(u32, u32)> = local
        .execute(&QueryPlan::new("out", "in").aggregates(&aggs).k(6))
        .unwrap()
        .pairs
        .iter()
        .map(|&(l, r)| (l.0, r.0))
        .collect();

    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let mut client = KsjqClient::connect(server.addr()).unwrap();
    for (name, rel) in [("out", &net.outbound), ("in", &net.inbound)] {
        let csv = relation_to_annotated_csv(rel, "hub", Some(&net.hubs)).unwrap();
        client.load_csv(name, &csv).unwrap();
    }
    let rows = client
        .query(&PlanSpec::new("out", "in").aggs(&aggs).k(6))
        .unwrap();
    assert_eq!(rows.pairs, expected);
    client.close().unwrap();
    server.stop().unwrap();
}

#[test]
fn synthetic_and_inline_relations_share_one_key_domain() {
    // A synthetic relation's group keys are the decimal strings of its
    // generator ids, encoded through the same catalog dictionary as CSV
    // keys: joining against unrelated string keys matches nothing
    // (rather than colliding with them numerically), while joining
    // against a CSV that uses those decimal strings matches correctly.
    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let mut client = KsjqClient::connect(server.addr()).unwrap();
    client
        .load_synthetic(
            "synth",
            SyntheticSpec {
                data_type: DataType::Independent,
                n: 30,
                d: 2,
                a: 0,
                g: 3,
                seed: 1,
            },
        )
        .unwrap();
    client
        .load_csv("cities", "city,cost,dur\nC,1,1\nD,2,2\n")
        .unwrap();
    let disjoint = client.query(&PlanSpec::new("synth", "cities")).unwrap();
    assert!(
        disjoint.pairs.is_empty(),
        "disjoint key domains must not join: {disjoint:?}"
    );
    client
        .load_csv("numeric", "key,cost,dur\n0,1,1\n1,2,2\n2,3,3\n")
        .unwrap();
    let joined = client.query(&PlanSpec::new("synth", "numeric")).unwrap();
    assert!(
        !joined.pairs.is_empty(),
        "matching decimal keys must join against synthetic groups"
    );
    client.close().unwrap();
    server.stop().unwrap();
}

#[test]
fn cache_invalidation_is_per_relation() {
    let (out_csv, in_csv) = paper_csvs();
    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let mut client = KsjqClient::connect(server.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();
    let plan = PlanSpec::new("outbound", "inbound").k(7);
    assert!(!client.query(&plan).unwrap().cached);
    assert!(client.query(&plan).unwrap().cached);
    // Registering an *unrelated* relation leaves the entry alone: the
    // cached plan references neither "third" nor anything it shadows.
    client.load_csv("third", "city,cost\nC,1\n").unwrap();
    assert!(
        client.query(&plan).unwrap().cached,
        "unrelated LOAD must not evict the cached plan"
    );
    // Re-registering a relation the plan references must evict it —
    // the new rows change the answer.
    client
        .load_csv("inbound", "city,cost,dur,fee,pop\nC,1,1,1,1\n")
        .unwrap();
    let recomputed = client.query(&plan).unwrap();
    assert!(!recomputed.cached, "stale entry served after re-LOAD");
    client.close().unwrap();
    server.stop().unwrap();
}

// ---------------------------------------------------------- live catalog

/// The acceptance path for live catalogs: an `APPEND` upgrades cached
/// entries through the incremental maintainer (no eviction), the
/// upgraded result is byte-identical to a fresh recompute, and `DELETE`
/// falls back to invalidation.
#[test]
fn append_maintains_cached_results_without_eviction() {
    let (out_csv, in_csv) = paper_csvs();
    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let mut client = KsjqClient::connect(server.addr()).unwrap();
    client.load_csv("outbound", &out_csv).unwrap();
    client.load_csv("inbound", &in_csv).unwrap();
    let plan = PlanSpec::new("outbound", "inbound").k(7);
    assert!(!client.query(&plan).unwrap().cached);
    let before = client.stats().unwrap();
    assert_eq!(before.delta_rows, 0);
    assert_eq!(before.delta_maintained, 0);

    // Append a strongly dominant outbound row on a city that joins: the
    // answer must change, so a surviving stale entry would be caught.
    let city = out_csv.lines().nth(1).unwrap().split(',').next().unwrap();
    let row = format!("{city},1,1,1,1");
    client.append_rows("outbound", &row).unwrap();

    let after = client.stats().unwrap();
    assert_eq!(after.catalog_epoch, before.catalog_epoch + 1);
    assert_eq!(after.delta_rows, 1);
    assert!(after.delta_maintained > 0, "{after:?}");
    assert_eq!(
        after.cache_evictions, before.cache_evictions,
        "the entry must be upgraded in place, not evicted"
    );

    // The upgraded entry serves from cache and matches a recompute of
    // the appended relation byte for byte.
    let upgraded = client.query(&plan).unwrap();
    assert!(upgraded.cached, "upgraded entry should still be a hit");
    let oracle = Engine::new();
    oracle
        .catalog()
        .register_csv("outbound", &format!("{}{row}\n", out_csv))
        .unwrap();
    oracle.catalog().register_csv("inbound", &in_csv).unwrap();
    let reference = oracle
        .execute(&QueryPlan::new("outbound", "inbound").k(7))
        .unwrap();
    let expected: Vec<(u32, u32)> = reference.pairs.iter().map(|&(l, r)| (l.0, r.0)).collect();
    assert_eq!(upgraded.pairs, expected, "maintained ≠ recompute");

    // Staged spelling: STAGE parks the delta (catalog unchanged) until
    // COMMIT applies it through the same maintenance path.
    client.append_stage("outbound", &row).unwrap();
    assert_eq!(
        client.stats().unwrap().delta_rows,
        1,
        "STAGE must not apply"
    );
    client.commit("outbound").unwrap();
    let staged = client.stats().unwrap();
    assert_eq!(staged.delta_rows, 2);
    assert_eq!(staged.catalog_epoch, after.catalog_epoch + 1);

    // DELETE is not maintained incrementally: row ids shift, so the
    // entry is dropped and the next query recomputes.
    client.delete_keys("outbound", &[city.to_string()]).unwrap();
    let recomputed = client.query(&plan).unwrap();
    assert!(!recomputed.cached, "DELETE must invalidate, not upgrade");
    let survivors: String = out_csv
        .lines()
        .enumerate()
        .filter(|&(i, l)| i == 0 || !l.starts_with(&format!("{city},")))
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    let oracle = Engine::new();
    oracle
        .catalog()
        .register_csv("outbound", &survivors)
        .unwrap();
    oracle.catalog().register_csv("inbound", &in_csv).unwrap();
    let reference = oracle
        .execute(&QueryPlan::new("outbound", "inbound").k(7))
        .unwrap();
    let expected: Vec<(u32, u32)> = reference.pairs.iter().map(|&(l, r)| (l.0, r.0)).collect();
    assert_eq!(recomputed.pairs, expected, "post-DELETE ≠ recompute");

    client.close().unwrap();
    server.stop().unwrap();
}

// ----------------------------------------------------------- metamorphic

/// Unique relation names across proptest cases sharing one server.
static CASE: AtomicU64 = AtomicU64::new(0);

mod metamorphic {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// For random relations, specs and k: EXECUTE over a live socket
        /// returns byte-identical pairs to direct `Engine::execute`.
        /// (Sizes stay small: the naive reference is O(N²) on the joined
        /// relation and this runs unoptimised.)
        #[test]
        fn wire_execute_equals_in_process_execute(
            n in 10usize..48,
            d in 2usize..5,
            a in 0usize..3,
            g in 1usize..6,
            seed in 0u64..1000,
            k_index in 0usize..8,
            algo_index in 0usize..3,
            distribution in 0usize..3,
        ) {
            let a = a.min(d - 1);
            let data_type = match distribution {
                0 => DataType::Independent,
                1 => DataType::Correlated,
                _ => DataType::AntiCorrelated,
            };
            let algorithm = match algo_index {
                0 => Algorithm::Grouping,
                1 => Algorithm::DominatorBased,
                _ => Algorithm::Naive,
            };
            let aggs = vec![ksjq_join::AggFunc::Sum; a];

            // In-process reference over the identical generator spec.
            let spec1 = DatasetSpec {
                n, agg_attrs: a, local_attrs: d - a, groups: g, data_type, seed,
            };
            let spec2 = DatasetSpec { seed: seed + 1000, ..spec1 };
            let local = Engine::new();
            local.register("r1", spec1.generate()).unwrap();
            local.register("r2", spec2.generate()).unwrap();
            let bounds = local
                .prepare(&QueryPlan::new("r1", "r2").aggregates(&aggs))
                .unwrap();
            let (k_min, k_max) = (bounds.explain().k_min, bounds.explain().k_max);
            let k = k_min + k_index % (k_max - k_min + 1);
            let expected = local
                .execute(
                    &QueryPlan::new("r1", "r2")
                        .aggregates(&aggs)
                        .k(k)
                        .algorithm(algorithm),
                )
                .unwrap();
            let expected: Vec<(u32, u32)> =
                expected.pairs.iter().map(|&(l, r)| (l.0, r.0)).collect();

            // The same spec shipped over the wire.
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let (r1, r2) = (format!("r1_{case}"), format!("r2_{case}"));
            let server = server();
            let mut client = KsjqClient::connect(server.0).unwrap();
            let wire_spec = |seed| SyntheticSpec { data_type, n, d, a, g, seed };
            client.load_synthetic(&r1, wire_spec(seed)).unwrap();
            client.load_synthetic(&r2, wire_spec(seed + 1000)).unwrap();
            let rows = client
                .query(&PlanSpec::new(&r1, &r2).aggs(&aggs).k(k).algorithm(algorithm))
                .unwrap();
            prop_assert_eq!(
                rows.pairs, expected,
                "n={} d={} a={} g={} seed={} k={} {} {}",
                n, d, a, g, seed, k, algorithm, data_type
            );
            prop_assert_eq!(rows.k, k);
            client.close().unwrap();
        }
    }

    /// One server shared by all metamorphic cases (started lazily).
    fn server() -> &'static (std::net::SocketAddr,) {
        use std::sync::OnceLock;
        static SERVER: OnceLock<(std::net::SocketAddr,)> = OnceLock::new();
        SERVER.get_or_init(|| {
            let running = Server::start(Engine::new(), &ephemeral()).unwrap();
            let addr = running.addr();
            // Leak the server: it lives for the whole test binary.
            std::mem::forget(running);
            (addr,)
        })
    }
}

// ------------------------------------------------------------------ fuzz

/// A `QUERY` racing `APPEND`s to the same relation must never find the
/// name missing: every rebind (LOAD, COMMIT, APPEND, DELETE) publishes
/// the new relation with one atomic catalog swap. Two readers loop on the
/// query while one writer appends rows on cities that join nothing, so
/// every answer is also Table 3.
#[test]
fn queries_racing_appends_never_see_a_missing_relation() {
    use std::sync::atomic::AtomicBool;
    const APPENDS: usize = 1500;
    let (out_csv, in_csv) = paper_csvs();
    let config = ServerConfig {
        cache_entries: 0,
        ..ephemeral()
    };
    let server = Server::start(Engine::new(), &config).unwrap();
    let mut setup = KsjqClient::connect(server.addr()).unwrap();
    setup.load_csv("outbound", &out_csv).unwrap();
    setup.load_csv("inbound", &in_csv).unwrap();
    let table3 = vec![(0, 2), (2, 0), (4, 4), (5, 5)];
    let done = AtomicBool::new(false);
    let (errors, queries) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut client = KsjqClient::connect(server.addr()).unwrap();
                    let plan = PlanSpec::new("outbound", "inbound").k(7);
                    let (mut errors, mut queries) = (Vec::new(), 0usize);
                    while !done.load(Ordering::SeqCst) {
                        match client.query(&plan) {
                            Ok(rows) => assert_eq!(rows.pairs, table3),
                            Err(e) => errors.push(format!("QUERY: {e}")),
                        }
                        queries += 1;
                    }
                    (errors, queries)
                })
            })
            .collect();
        let mut client = KsjqClient::connect(server.addr()).unwrap();
        let mut errors = Vec::new();
        for i in 0..APPENDS {
            if let Err(e) = client.append_rows("outbound", &format!("X{i},{i},1,2,3")) {
                errors.push(format!("APPEND: {e}"));
            }
        }
        done.store(true, Ordering::SeqCst);
        let mut queries = 0;
        for reader in readers {
            let (e, q) = reader.join().unwrap();
            errors.extend(e);
            queries += q;
        }
        (errors, queries)
    });
    assert!(queries > 0);
    assert!(
        errors.is_empty(),
        "{} ERR frames in {queries} queries and {APPENDS} appends, first: {:?}",
        errors.len(),
        errors.first()
    );
    server.stop().unwrap();
}

#[test]
fn junk_commands_never_kill_the_session() {
    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let mut client = KsjqClient::connect(server.addr()).unwrap();
    for junk in [
        "FROBNICATE the flights",
        "LOAD",
        "LOAD x TELEPATHY a,b",
        "LOAD x SYNTHETIC ind n=0 d=0",
        "LOAD x SYNTHETIC ind n=999999999999 d=99",
        "PREPARE",
        "PREPARE q nope JOIN alsonope",
        "EXECUTE never-prepared",
        "EXPLAIN never-prepared",
        "QUERY a JOIN b K 7",
        "QUERY a JOIN b GOAL upside-down",
        "STATS please",
        "",
        "   ",
        "\u{1f4a3}",
    ] {
        let response = client.raw(junk).unwrap();
        assert!(
            response.starts_with("ERR "),
            "{junk:?} should produce ERR, got {response:?}"
        );
    }
    // CSV containing the wire row separator is rejected client-side
    // before it can be silently re-framed into different rows.
    assert!(matches!(
        client.load_csv("bad", "city,cost\nA,1;B,2\n"),
        Err(ksjq_server::ClientError::Protocol(_))
    ));
    // The session (and server) still work fine afterwards.
    client.load_csv("t", "city,cost\nC,1\nD,2\n").unwrap();
    assert!(client.stats().unwrap().errors >= 15);
    client.close().unwrap();
    server.stop().unwrap();
}

#[test]
fn oversized_lines_are_answered_and_drained() {
    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Two megabytes of 'x' — double the frame cap — then a newline.
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..(2 * MAX_LINE_BYTES / chunk.len()) {
        stream.write_all(&chunk).unwrap();
    }
    stream.write_all(b"\n").unwrap();
    stream.write_all(b"STATS\n").unwrap();
    stream.flush().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(line.starts_with("ERR "), "{line:?}");
    assert!(line.contains("exceeds"), "{line:?}");
    // The connection resynchronised: the next command works.
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(line.starts_with("STATS "), "{line:?}");
    server.stop().unwrap();
}

#[test]
fn truncated_frames_and_binary_garbage_never_panic_the_server() {
    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let addr = server.addr();

    // A frame cut off mid-command, then a hard disconnect.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"PREPARE q1 outbound JO").unwrap();
    drop(stream);

    // Binary garbage, including invalid UTF-8, with embedded newlines.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&[0xff, 0xfe, 0x00, b'\n', 0x80, 0x81, b'\n'])
        .unwrap();
    let mut byte = [0u8; 1];
    // The server answers each garbage "line" with an ERR frame.
    stream.read_exact(&mut byte).unwrap();
    assert_eq!(byte[0], b'E');
    drop(stream);

    // Half a line with the socket left hanging open, then dropped.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"STAT").unwrap();
    stream.flush().unwrap();
    drop(stream);

    // After all of that, a well-formed session works.
    let mut client = KsjqClient::connect(addr).unwrap();
    client.load_csv("t", "city,cost\nC,1\n").unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.relations, 1);
    client.close().unwrap();
    server.stop().unwrap();
}

#[test]
fn graceful_shutdown_stops_accepting() {
    let server = Server::start(Engine::new(), &ephemeral()).unwrap();
    let addr = server.addr();
    let mut client = KsjqClient::connect(addr).unwrap();
    client.stats().unwrap();
    client.close().unwrap();
    server.stop().unwrap();
    // The listener is gone: new sessions cannot be served.
    match KsjqClient::connect(addr) {
        Err(_) => {}
        Ok(mut client) => assert!(client.raw("STATS").is_err()),
    }
}
