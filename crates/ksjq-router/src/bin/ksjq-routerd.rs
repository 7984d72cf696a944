//! The KSJQ cluster router daemon.
//!
//! ```sh
//! # Two shards: shard 0 with two replicas, shard 1 with one.
//! ksjq-routerd --addr 127.0.0.1:7979 \
//!              --shard 127.0.0.1:7881,127.0.0.1:7883 \
//!              --shard 127.0.0.1:7882
//! ```
//!
//! Each `--shard` flag names one shard's replica set (comma-separated
//! `host:port` addresses of `ksjq-serverd` processes, best started with
//! `--no-demo`); flag order defines shard indices, which join-key
//! hashing targets — restart with the same shard order.

use ksjq_router::{DialPolicy, Router, RouterConfig, Topology};
use ksjq_server::{ConnectOptions, FaultPlan};
use std::time::Duration;

fn die(msg: &str) -> ! {
    eprintln!("ksjq-routerd: {msg}");
    std::process::exit(2)
}

fn parse_args() -> (RouterConfig, Topology) {
    let mut config = RouterConfig::default();
    let mut shards: Vec<Vec<String>> = Vec::new();
    let mut faults: Option<FaultPlan> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = args.next().unwrap_or_else(|| die("--addr needs host:port"));
            }
            "--shard" => {
                let replicas: Vec<String> = args
                    .next()
                    .unwrap_or_else(|| die("--shard needs host:port[,host:port…]"))
                    .split(',')
                    .map(|a| a.trim().to_owned())
                    .filter(|a| !a.is_empty())
                    .collect();
                if replicas.is_empty() {
                    die("--shard needs at least one replica address");
                }
                shards.push(replicas);
            }
            "--cache-entries" => {
                config.cache_entries = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--cache-entries needs an integer (0 disables)"));
            }
            "--fetch-batch" => {
                config.fetch_batch = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--fetch-batch needs a positive integer"));
            }
            "--check-batch" => {
                config.check_batch = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--check-batch needs a positive integer"));
            }
            "--attempts" => {
                config.policy.attempts = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--attempts needs a positive integer"));
            }
            "--timeout" => {
                let secs: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&secs| secs > 0)
                    .unwrap_or_else(|| die("--timeout needs seconds (> 0)"));
                config.policy.options = ConnectOptions::all(Duration::from_secs(secs));
            }
            "--data-dir" => {
                config.data_dir = Some(
                    args.next()
                        .unwrap_or_else(|| die("--data-dir needs a directory path"))
                        .into(),
                );
            }
            "--wal-max-bytes" => {
                config.wal_max_bytes = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .unwrap_or_else(|| die("--wal-max-bytes needs a positive byte count")),
                );
            }
            "--faults" => {
                let spec = args.next().unwrap_or_else(|| die("--faults needs a spec"));
                faults = Some(
                    spec.parse::<FaultPlan>()
                        .unwrap_or_else(|e| die(&format!("bad --faults spec: {e}"))),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: ksjq-routerd --shard HOST:PORT[,HOST:PORT…] [--shard …] \n\
                     \x20                   [--addr HOST:PORT] [--cache-entries N]\n\
                     \x20                   [--fetch-batch N] [--check-batch N]\n\
                     \x20                   [--data-dir PATH] [--wal-max-bytes N]\n\
                     \x20                   [--attempts N] [--timeout SECS] [--faults SPEC]\n\
                     \x20 --shard          one shard's replica set; repeat per shard (order = shard index)\n\
                     \x20 --addr           listen address (default 127.0.0.1:7979; port 0 = ephemeral)\n\
                     \x20 --cache-entries  result-cache capacity (default 128; 0 disables)\n\
                     \x20 --fetch-batch    round-2 FETCH candidate pairs per frame (default 16384)\n\
                     \x20 --check-batch    round-2 CHECK candidate pairs per frame (default 16384)\n\
                     \x20 --data-dir       two-phase decision WAL here: a restart replays it and\n\
                     \x20                  resolves in-doubt LOAD/APPENDs before accepting traffic\n\
                     \x20 --wal-max-bytes  seal the decision WAL into a segment past N bytes and\n\
                     \x20                  compact closed history (default: startup-only)\n\
                     \x20 --attempts       replica-set sweeps before a shard counts as down (default 3)\n\
                     \x20 --timeout        backend connect/read/write timeout in seconds (default 10)\n\
                     \x20 --faults         seeded fault injection on backend connections, e.g.\n\
                     \x20                  seed=7,drop=10,partial=10,delay=20:3 (per-mille); the\n\
                     \x20                  KSJQ_FAULTS env var is an equivalent spec\n\
                     \x20 KSJQ_CRASH_AT=N  crash-test hook: abort() at the Nth two-phase frame\n\
                     \x20                  boundary (chaos harness; requires --data-dir to matter)"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other} (try --help)")),
        }
    }
    if let Ok(v) = std::env::var("KSJQ_CRASH_AT") {
        config.crash_at = Some(
            v.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| die("KSJQ_CRASH_AT needs a positive integer")),
        );
    }
    config.policy = DialPolicy {
        // Spread retry jitter across routers started together.
        seed: u64::from(std::process::id()),
        ..config.policy
    };
    if faults.is_none() {
        faults = FaultPlan::from_env("KSJQ_FAULTS")
            .unwrap_or_else(|e| die(&format!("bad KSJQ_FAULTS value: {e}")));
    }
    // Applied last so `--timeout` (which rebuilds the options wholesale)
    // cannot silently discard an earlier `--faults`.
    config.policy.options.faults = faults;
    let topology =
        Topology::new(shards).unwrap_or_else(|e| die(&format!("{e} (give at least one --shard)")));
    (config, topology)
}

fn main() {
    let (config, topology) = parse_args();
    let shards = topology.n_shards();
    let replicas: usize = (0..shards).map(|s| topology.replicas(s).len()).sum();
    let router = match Router::bind(topology, &config) {
        Ok(router) => router,
        Err(e) => die(&format!("cannot bind {}: {e}", config.addr)),
    };
    let addr = router.local_addr().expect("bound listener has an address");
    println!(
        "ksjq-routerd listening on {addr} ({shards} shards, {replicas} replicas, cache {} entries)",
        config.cache_entries
    );
    if let Err(e) = router.run() {
        die(&format!("router failed: {e}"));
    }
}
