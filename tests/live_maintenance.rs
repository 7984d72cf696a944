//! Metamorphic tests for live catalogs: under a random append/delete
//! schedule, the incrementally maintained k-dominant skyline must be
//! byte-identical to a from-scratch recompute at **every** epoch — in
//! process (`VersionedRelation` + `maintain_append`), over the wire
//! against one server, and through a sharded router cluster.

use ksjq::core::maintain_append;
use ksjq::prelude::*;
use ksjq::server::{ClientError, RunningServer};
use ksjq_relation::VersionedRelation;
use ksjq_router::{DialPolicy, RunningRouter};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

const GROUPS: u64 = 4;

// Schedule steps are `((op, dup), key, rows)` tuples the shim's strategies
// can produce: `op < 2` appends the rows to side `op`, `op == 2` appends
// them to both sides at once (keys derived from `key`), `op >= 3` deletes
// join key `key` from side `op − 3`. `dup == 0` makes the first appended
// row a copy (key and values) of an existing row of the side.

fn to_columns(rows: &[(u64, Vec<u32>)]) -> (Vec<u64>, Vec<Vec<f64>>) {
    (
        rows.iter().map(|(g, _)| *g).collect(),
        rows.iter()
            .map(|(_, r)| r.iter().map(|&v| f64::from(v)).collect())
            .collect(),
    )
}

/// The aggregate functions of schema variant `variant`: none, `Sum`, an
/// asymmetric `WeightedSum` (swapped legs change its value), or both.
fn agg_funcs(variant: usize) -> Vec<AggFunc> {
    let weighted = AggFunc::WeightedSum {
        left: 1.0,
        right: 2.0,
    };
    match variant {
        0 => vec![],
        1 => vec![AggFunc::Sum],
        2 => vec![weighted],
        _ => vec![AggFunc::Sum, weighted],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// In-process acceptance property: for random relations, a random
    /// append/delete schedule — one side or both at once, delta rows that
    /// may duplicate a resident row — every admissible k and aggregate
    /// schemas with `a ∈ {0, 1, 2}`, maintenance and recompute agree on
    /// the exact pair sequence at every epoch. Each derived snapshot also
    /// equals a fresh load of the surviving raw rows (a shadow list kept
    /// beside the versions) — over a mixed `Min`/`Max` schema, so every
    /// derivation round-trips the normalisation — and a snapshot pinned
    /// before the schedule never changes.
    #[test]
    fn maintained_equals_recompute_at_every_epoch(
        init_l in prop::collection::vec(
            (0u64..GROUPS, prop::collection::vec(0u32..6, 5)), 2..=14),
        init_r in prop::collection::vec(
            (0u64..GROUPS, prop::collection::vec(0u32..6, 5)), 2..=14),
        schedule in prop::collection::vec(
            ((0u8..5, 0u8..3), 0u64..GROUPS, prop::collection::vec(prop::collection::vec(0u32..6, 5), 1..=3)),
            1..=5),
        k_off in 0usize..3,
        variant in 0usize..4,
    ) {
        let funcs = agg_funcs(variant);
        let a = funcs.len();
        let d = 3 + a;
        let k = d + 1 + k_off; // the paper's range (d, 2·3 + a] for this shape
        let recompute = |vl: &VersionedRelation, vr: &VersionedRelation| {
            let cx = JoinContext::from_arcs(
                vl.snapshot().clone(),
                vr.snapshot().clone(),
                JoinSpec::Equality,
                &funcs,
            )
            .unwrap();
            ksjq_grouping(&cx, k, &Config::default()).unwrap()
        };

        let mut schema = Schema::builder();
        for slot in 0..a {
            schema = schema.agg(format!("s{slot}"), Preference::Min, slot);
        }
        let schema = schema
            .local("c0", Preference::Min)
            .local("c1", Preference::Max)
            .local("c2", Preference::Min)
            .build()
            .unwrap();
        let width = |rows: Vec<(u64, Vec<u32>)>| -> Vec<(u64, Vec<u32>)> {
            rows.into_iter().map(|(g, mut r)| { r.truncate(d); (g, r) }).collect()
        };
        // The surviving raw rows of each side, in id order.
        let mut shadow = [to_columns(&width(init_l)), to_columns(&width(init_r))];
        let fresh_load = |(keys, rows): &(Vec<u64>, Vec<Vec<f64>>)| {
            Relation::from_grouped_rows(schema.clone(), keys, rows).unwrap()
        };
        let (keys, rows) = &shadow[0];
        let mut vl = VersionedRelation::new(schema.clone())
            .unwrap()
            .append(keys, rows)
            .unwrap();
        let (keys, rows) = &shadow[1];
        let mut vr = VersionedRelation::new(schema.clone())
            .unwrap()
            .append(keys, rows)
            .unwrap();
        let pinned = Arc::clone(vl.snapshot());
        let pinned_load = fresh_load(&shadow[0]);
        prop_assert_eq!(&*pinned, &pinned_load);
        let mut cached = recompute(&vl, &vr);

        for ((op, dup), key, rows) in schedule {
            if op < 3 {
                // Append: maintain the cached result across the delta.
                let (old_ln, old_rn) = (vl.n(), vr.n());
                for side in [0usize, 1] {
                    if op < 2 && op as usize != side {
                        continue;
                    }
                    let mut keys: Vec<u64> = rows
                        .iter()
                        .enumerate()
                        .map(|(i, _)| (key + i as u64 + side as u64) % GROUPS)
                        .collect();
                    let mut rows: Vec<Vec<f64>> = rows
                        .iter()
                        .map(|r| r[..d].iter().map(|&v| f64::from(v)).collect())
                        .collect();
                    if dup == 0 {
                        // A twin of a resident row: ties must not dominate it.
                        let (twin_keys, twin_rows) = &shadow[side];
                        let twin = key as usize % twin_keys.len().max(1);
                        if let (Some(&k), Some(r)) = (twin_keys.get(twin), twin_rows.get(twin)) {
                            keys[0] = k;
                            rows[0] = r.clone();
                        }
                    }
                    if side == 0 {
                        vl = vl.append(&keys, &rows).unwrap();
                    } else {
                        vr = vr.append(&keys, &rows).unwrap();
                    }
                    shadow[side].0.extend(keys);
                    shadow[side].1.extend(rows);
                }
                let cx = JoinContext::from_arcs(
                    vl.snapshot().clone(),
                    vr.snapshot().clone(),
                    JoinSpec::Equality,
                    &funcs,
                )
                .unwrap();
                let (maintained, stats) =
                    maintain_append(&cx, k, &cached, old_ln, old_rn).unwrap();
                let fresh = recompute(&vl, &vr);
                prop_assert_eq!(
                    &maintained.pairs, &fresh.pairs,
                    "epoch ({}, {}) op={} a={} k={} stats={:?}",
                    vl.epoch(), vr.epoch(), op, a, k, stats
                );
                cached = maintained;
            } else {
                // Delete: ids shift, so the maintainer does not apply —
                // recompute becomes the new cached baseline. A delete that
                // would empty a side is skipped: an empty relation has no
                // join keys to equi-join on.
                let side = op as usize - 3;
                if shadow[side].0.iter().all(|&g| g == key) {
                    continue;
                }
                if side == 0 {
                    vl = vl.delete_key(key).unwrap().0;
                } else {
                    vr = vr.delete_key(key).unwrap().0;
                }
                let (keys, rows) = &mut shadow[side];
                let survivors: Vec<usize> = (0..keys.len()).filter(|&i| keys[i] != key).collect();
                *rows = survivors.iter().map(|&i| rows[i].clone()).collect();
                *keys = survivors.iter().map(|&i| keys[i]).collect();
                cached = recompute(&vl, &vr);
            }
            prop_assert_eq!(&**vl.snapshot(), &fresh_load(&shadow[0]), "left epoch {}", vl.epoch());
            prop_assert_eq!(&**vr.snapshot(), &fresh_load(&shadow[1]), "right epoch {}", vr.epoch());
        }
        prop_assert_eq!(&*pinned, &pinned_load, "the pinned snapshot changed");
    }
}

// ------------------------------------------------------------- the wire

fn render_csv(rows: &[(u64, Vec<u32>)]) -> String {
    let mut csv = String::from("city,c0,c1\n");
    for (g, row) in rows {
        write!(csv, "g{g}").unwrap();
        for v in row {
            write!(csv, ",{v}").unwrap();
        }
        csv.push('\n');
    }
    csv
}

fn render_delta(key: u64, rows: &[Vec<u32>]) -> String {
    let mut csv = String::new();
    for (i, row) in rows.iter().enumerate() {
        write!(csv, "g{}", (key + i as u64) % GROUPS).unwrap();
        for v in row {
            write!(csv, ",{v}").unwrap();
        }
        csv.push('\n');
    }
    csv
}

fn backend() -> RunningServer {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_entries: 16,
        ..ServerConfig::default()
    };
    Server::start(Engine::new(), &config).unwrap()
}

fn cluster(n_shards: usize) -> (Vec<RunningServer>, RunningRouter) {
    let backends: Vec<RunningServer> = (0..n_shards).map(|_| backend()).collect();
    let topology = Topology::new(
        backends
            .iter()
            .map(|b| vec![b.addr().to_string()])
            .collect(),
    )
    .unwrap();
    let config = RouterConfig {
        addr: "127.0.0.1:0".into(),
        cache_entries: 16,
        policy: DialPolicy {
            options: ksjq::server::ConnectOptions::all(Duration::from_secs(10)),
            attempts: 2,
            backoff: Duration::from_millis(5),
            seed: 42,
        },
        ..RouterConfig::default()
    };
    let router = ksjq::router::Router::start(topology, &config).unwrap();
    (backends, router)
}

/// Query `plan`, treating a server-side rejection as a comparable
/// outcome (all parties must reject the same plans the same way).
fn run_wire(client: &mut KsjqClient, plan: &PlanSpec) -> Result<Vec<(u32, u32)>, ()> {
    match client.query(plan) {
        Ok(rows) => Ok(rows.pairs),
        Err(ClientError::Server { .. }) => Err(()),
        Err(e) => panic!("transport failure: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over-the-wire acceptance property: one plain server (incremental
    /// maintenance path) and a 2-shard router cluster (two-phase
    /// partitioned deltas) both track an in-process recompute oracle at
    /// every epoch of a random schedule.
    #[test]
    fn wire_and_cluster_track_recompute_at_every_epoch(
        init_l in prop::collection::vec(
            (0u64..GROUPS, prop::collection::vec(0u32..7, 2)), 1..=10),
        init_r in prop::collection::vec(
            (0u64..GROUPS, prop::collection::vec(0u32..7, 2)), 1..=10),
        schedule in prop::collection::vec(
            (0u8..4, 0u64..GROUPS, prop::collection::vec(prop::collection::vec(0u32..7, 2), 1..=2)),
            1..=4),
        k_off in 0usize..2,
    ) {
        let k = 3 + k_off; // d_joined = 4, valid range (2, 4]
        let plan = PlanSpec::new("l", "r").k(k);

        // Mutable ground truth the oracle recomputes from each epoch.
        let mut state_l = init_l.clone();
        let mut state_r = init_r.clone();
        let oracle = |sl: &[(u64, Vec<u32>)], sr: &[(u64, Vec<u32>)]| {
            let engine = Engine::new();
            engine.catalog().register_csv("l", &render_csv(sl)).unwrap();
            engine.catalog().register_csv("r", &render_csv(sr)).unwrap();
            engine
                .execute(&QueryPlan::new("l", "r").k(k))
                .map(|out| out.pairs.iter().map(|&(u, v)| (u.0, v.0)).collect::<Vec<_>>())
                .map_err(|_| ())
        };

        let single = backend();
        let mut sc = KsjqClient::connect(single.addr()).unwrap();
        let (shards, router) = cluster(2);
        let mut rc = KsjqClient::connect(router.addr()).unwrap();
        for c in [&mut sc, &mut rc] {
            c.load_csv("l", &render_csv(&state_l)).unwrap();
            c.load_csv("r", &render_csv(&state_r)).unwrap();
        }

        for (epoch, (op, key, rows)) in schedule.into_iter().enumerate() {
            let name = if op % 2 == 0 { "l" } else { "r" };
            let state = if op % 2 == 0 { &mut state_l } else { &mut state_r };
            if op < 2 {
                let delta = render_delta(key, &rows);
                for (i, row) in rows.iter().enumerate() {
                    state.push(((key + i as u64) % GROUPS, row.clone()));
                }
                sc.append_rows(name, &delta).unwrap();
                rc.append_rows(name, &delta).unwrap();
            } else {
                state.retain(|(g, _)| *g != key);
                sc.delete_keys(name, &[format!("g{key}")]).unwrap();
                rc.delete_keys(name, &[format!("g{key}")]).unwrap();
            }
            let want = oracle(&state_l, &state_r);
            prop_assert_eq!(&run_wire(&mut sc, &plan), &want, "single node, epoch {}", epoch);
            prop_assert_eq!(&run_wire(&mut rc, &plan), &want, "cluster, epoch {}", epoch);
        }

        sc.close().unwrap();
        rc.close().unwrap();
        single.stop().unwrap();
        drop(router);
        for s in shards {
            s.stop().unwrap();
        }
    }
}

/// The maintainer refuses joins it cannot maintain (anything but an
/// equality join) rather than returning a wrong answer.
#[test]
fn non_equality_joins_are_not_maintained() {
    use ksjq::core::can_maintain;
    let mut b = Relation::builder(Schema::uniform(2).unwrap());
    b.add_keyed(1.0, &[1.0, 2.0]).unwrap();
    let rel = Arc::new(b.build().unwrap());
    let cx = JoinContext::from_arcs(rel.clone(), rel.clone(), JoinSpec::Theta(ThetaOp::Lt), &[])
        .unwrap();
    assert!(!can_maintain(&cx));
    let empty = KsjqOutput {
        pairs: vec![],
        stats: Default::default(),
    };
    assert!(maintain_append(&cx, 3, &empty, 1, 1).is_err());
}

/// A seeded independent load through the 2-shard cluster, sized so that
/// round 2 drops candidates: the merged answer must be byte-identical to
/// `ksjq_naive` on the same relations.
#[test]
fn cluster_round2_drops_match_naive() {
    use ksjq::server::SyntheticSpec;
    let spec = |seed| SyntheticSpec {
        data_type: DataType::Independent,
        n: 300,
        d: 7,
        a: 2,
        g: 10,
        seed,
    };
    let funcs = [AggFunc::Sum, AggFunc::Sum];
    let plan = PlanSpec::new("a1", "a2").aggs(&funcs).k(11);
    let (shards, router) = cluster(2);
    let mut rc = KsjqClient::connect(router.addr()).unwrap();
    rc.load_synthetic("a1", spec(42)).unwrap();
    rc.load_synthetic("a2", spec(1042)).unwrap();
    let got = rc.query(&plan).unwrap().pairs;

    let (r1, r2) = (
        spec(42).dataset_spec().generate(),
        spec(1042).dataset_spec().generate(),
    );
    let cx = JoinContext::new(&r1, &r2, JoinSpec::Equality, &funcs).unwrap();
    let want: Vec<(u32, u32)> = ksjq_naive(&cx, 11, &Config::default())
        .unwrap()
        .pairs
        .iter()
        .map(|&(u, v)| (u.0, v.0))
        .collect();
    assert_eq!(got, want);

    // Round 2 really dropped candidates: the shards' local answers hold
    // more pairs than the merged one.
    let local: usize = shards
        .iter()
        .map(|s| {
            let mut c = KsjqClient::connect(s.addr()).unwrap();
            c.query(&plan).unwrap().pairs.len()
        })
        .sum();
    assert!(local > got.len(), "round 2 kept all {local} candidates");

    rc.close().unwrap();
    drop(router);
    for s in shards {
        s.stop().unwrap();
    }
}
