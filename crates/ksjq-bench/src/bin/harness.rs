//! Figure-by-figure reproduction harness.
//!
//! One subcommand per table/figure of the paper's evaluation (Sec. 7);
//! `all` runs everything. `--scale <f>` shrinks the dataset size `n`
//! (default 0.33 — comparisons and shapes are preserved, wall-clock times
//! shrink roughly quadratically); `--full` runs the paper's exact sizes.
//! `--algo` restricts which KSJQ algorithms run, `--kdom` picks the
//! single-relation k-dominant subroutine, and `--goal` overrides the
//! per-figure exact-k goal of the synthetic sweeps (all accept the names
//! their `Display`/`FromStr` impls round-trip, e.g. `--goal atleast:10`).
//! Each configuration prints the prepared plan's `explain` line before
//! its timing rows, so the tables say exactly what they measured.
//!
//! The sweeps can also run over the wire: `--serve ADDR` turns the
//! harness into a `ksjq-server` daemon preloaded with the demo catalog,
//! and `--remote ADDR` makes every sweep `LOAD` its relations into such
//! a server and `QUERY` them through a socket instead of in-process.
//!
//! The extra `kernel` subcommand (not part of `all`) runs the
//! verification-kernel ablation — the pre-split materialise-then-compare
//! reference against the row-major split-side oracle against the
//! production two-sided leg kernel — plus a dominator-generation
//! thread-scaling sweep and a fig3b-style scalability sweep; `--json PATH`
//! writes the measurements in the committed `BENCH_kernel.json` baseline
//! format.
//! The `delta` subcommand (also outside `all`) measures incremental
//! maintenance (`maintain_append`) against a full recompute for append
//! deltas of 1/16/256 rows on an anti-correlated workload; `--json PATH`
//! writes the committed `BENCH_delta.json` baseline.
//!
//! ```sh
//! cargo run --release -p ksjq-bench --bin harness -- all --scale 0.33
//! cargo run --release -p ksjq-bench --bin harness -- fig1a --full
//! cargo run --release -p ksjq-bench --bin harness -- fig4 --algo grouping,naive --kdom osa
//! cargo run --release -p ksjq-bench --bin harness -- --serve 127.0.0.1:7878   # terminal 1
//! cargo run --release -p ksjq-bench --bin harness -- fig1a --remote 127.0.0.1:7878
//! ```

use ksjq_bench::*;
use ksjq_core::{
    ksjq_grouping, maintain_append, Algorithm, Config, Engine, Goal, KdomAlgo, MaintainStats,
    QueryPlan,
};
use ksjq_datagen::{relation_to_annotated_csv, DataType, DatasetSpec, FlightNetworkSpec};
use ksjq_join::{JoinContext, JoinSpec};
use ksjq_relation::{TupleId, VersionedRelation};
use ksjq_server::{
    register_demo_catalog, KsjqClient, PlanSpec, Server, ServerConfig, SyntheticSpec,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

struct Opts {
    figure: String,
    scale: f64,
    /// Which KSJQ algorithms to run (default: G, D, N).
    algos: Vec<Algorithm>,
    /// Execution config (carries the `--kdom` choice).
    cfg: Config,
    /// Overrides the per-figure exact-k goal of the KSJQ sweeps.
    goal: Option<Goal>,
    /// Run the sweeps against this remote server instead of in-process.
    remote: Option<String>,
    /// Serve the demo catalog on this address instead of running figures.
    serve: Option<String>,
    /// Write the `kernel`/`delta` subcommand's measurements to this path
    /// as JSON (the committed `BENCH_kernel.json` / `BENCH_delta.json`
    /// baseline formats).
    json: Option<String>,
}

/// Parsed options, readable from every figure function.
static OPTS: OnceLock<Opts> = OnceLock::new();

fn opts() -> &'static Opts {
    OPTS.get().expect("set at startup")
}

fn parse_args() -> Opts {
    let mut figure = String::from("all");
    let mut scale = 0.33f64;
    let mut algos = GDN.to_vec();
    let mut cfg = Config::default();
    let mut goal = None;
    let mut remote = None;
    let mut serve = None;
    let mut json = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--full" => scale = 1.0,
            "--algo" => {
                let list = args.next().unwrap_or_else(|| die("--algo needs a name"));
                algos = list
                    .split(',')
                    .map(|s| s.trim().parse::<Algorithm>().unwrap_or_else(|e| die(&e)))
                    .collect();
            }
            "--kdom" => {
                let name = args.next().unwrap_or_else(|| die("--kdom needs a name"));
                cfg.kdom = name.parse::<KdomAlgo>().unwrap_or_else(|e| die(&e));
            }
            "--goal" => {
                let spec = args.next().unwrap_or_else(|| die("--goal needs a goal"));
                goal = Some(spec.parse::<Goal>().unwrap_or_else(|e| die(&e)));
            }
            "--remote" => {
                remote = Some(
                    args.next()
                        .unwrap_or_else(|| die("--remote needs host:port")),
                );
            }
            "--serve" => {
                serve = Some(
                    args.next()
                        .unwrap_or_else(|| die("--serve needs host:port")),
                );
            }
            "--json" => {
                json = Some(args.next().unwrap_or_else(|| die("--json needs a path")));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: harness [FIGURE] [--scale F | --full] [--algo A[,A…]] [--kdom K]\n\
                     \x20       [--goal G] [--remote HOST:PORT] [--serve HOST:PORT]\n\
                     \x20       [--json PATH]\n\
                     figures: fig1a fig1b fig2a fig2b fig3a fig3b fig4 fig5a fig5b\n\
                     \x20        fig6a fig6b fig7 fig8a fig8b fig9a fig9b fig10 fig11 all\n\
                     \x20        kernel (verification-kernel ablation; --json writes the\n\
                     \x20        BENCH_kernel.json baseline)\n\
                     \x20        delta (incremental maintenance vs recompute; --json writes\n\
                     \x20        the BENCH_delta.json baseline)\n\
                     algos:   naive grouping dominator-based (comma-separated)\n\
                     kdom:    naive osa tsa tsa-presort\n\
                     goal:    exact:K | skyline | atleast:D[:S] | atmost:D[:S]\n\
                     \x20        (overrides the synthetic sweeps' per-figure exact k)\n\
                     --serve  run as a ksjq-server daemon with the demo catalog\n\
                     --remote run the sweeps over the wire against such a daemon"
                );
                std::process::exit(0);
            }
            f if !f.starts_with('-') => figure = f.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
    }
    Opts {
        figure,
        scale,
        algos,
        cfg,
        goal,
        remote,
        serve,
        json,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    std::process::exit(2)
}

fn main() {
    let opts = OPTS.get_or_init(parse_args);
    if opts.json.is_some() && opts.figure != "kernel" && opts.figure != "delta" {
        // Fail fast instead of silently never writing the file.
        die("--json is only supported by the `kernel` and `delta` subcommands");
    }
    if let Some(addr) = &opts.serve {
        serve_demo_catalog(addr);
    }
    let t = Instant::now();
    let all = opts.figure == "all";
    let mut ran = false;
    macro_rules! fig {
        ($name:literal, $f:ident) => {
            if all || opts.figure == $name {
                $f(opts.scale);
                ran = true;
            }
        };
    }
    fig!("fig1a", fig1a);
    fig!("fig1b", fig1b);
    fig!("fig2a", fig2a);
    fig!("fig2b", fig2b);
    fig!("fig3a", fig3a);
    fig!("fig3b", fig3b);
    fig!("fig4", fig4);
    fig!("fig5a", fig5a);
    fig!("fig5b", fig5b);
    fig!("fig6a", fig6a);
    fig!("fig6b", fig6b);
    fig!("fig7", fig7);
    fig!("fig8a", fig8a);
    fig!("fig8b", fig8b);
    fig!("fig9a", fig9a);
    fig!("fig9b", fig9b);
    fig!("fig10", fig10);
    fig!("fig11", fig11);
    // Not part of `all`: the materialized reference sweep is deliberately
    // the slow pre-split kernel, and the delta sweep measures maintenance,
    // not the paper's figures.
    if opts.figure == "kernel" {
        kernel_figure(opts.scale);
        ran = true;
    }
    if opts.figure == "delta" {
        delta_figure(opts.scale);
        ran = true;
    }
    if !ran {
        die(&format!("unknown figure '{}' (try --help)", opts.figure));
    }
    eprintln!("\nharness finished in {:.1}s", t.elapsed().as_secs_f64());
}

fn banner(id: &str, what: &str, params: &str) {
    println!("\n=== {id}: {what} ===");
    println!("    {params}");
}

// ------------------------------------------------------------- serving

/// `--serve`: become a `ksjq-server` daemon preloaded with the demo
/// catalog (paper Tables 1–2 plus the synthetic flight network), ready
/// for a `--remote` harness — or any protocol client — to talk to.
fn serve_demo_catalog(addr: &str) -> ! {
    let o = opts();
    let engine = Engine::with_config(o.cfg);
    register_demo_catalog(&engine).expect("fresh engine accepts the demo catalog");
    let config = ServerConfig {
        addr: addr.to_owned(),
        ..ServerConfig::default()
    };
    let server = match Server::bind(engine, &config) {
        Ok(server) => server,
        Err(e) => die(&format!("cannot bind {addr}: {e}")),
    };
    let bound = server.local_addr().expect("bound listener");
    println!(
        "harness serving on {bound} ({} workers, cache {} entries); \
         catalog: inbound, net_inbound, net_outbound, outbound",
        config.workers, config.cache_entries
    );
    match server.run() {
        Ok(()) => std::process::exit(0),
        Err(e) => die(&format!("server failed: {e}")),
    }
}

/// `--remote`: a connected client, or die with context.
fn remote_client(addr: &str) -> KsjqClient {
    KsjqClient::connect(addr)
        .unwrap_or_else(|e| die(&format!("cannot reach remote server {addr}: {e}")))
}

/// Unique remote relation names across sweep configurations (the remote
/// catalog rejects duplicates, and each config's data differs).
fn remote_names() -> (String, String) {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    (format!("h{pid}_r1_{id}"), format!("h{pid}_r2_{id}"))
}

/// LOAD one sweep configuration's pair of relations into the remote
/// server, returning their names there.
fn remote_load(client: &mut KsjqClient, params: &PaperParams) -> (String, String) {
    let (r1, r2) = remote_names();
    let spec = |seed| SyntheticSpec {
        data_type: params.data_type,
        n: params.n,
        d: params.d,
        a: params.a,
        g: params.g,
        seed,
    };
    client
        .load_synthetic(&r1, spec(params.seed))
        .unwrap_or_else(|e| die(&format!("remote LOAD failed: {e}")));
    client
        .load_synthetic(&r2, spec(params.seed + 1000))
        .unwrap_or_else(|e| die(&format!("remote LOAD failed: {e}")));
    (r1, r2)
}

fn remote_ksjq_sweep(addr: &str, configs: &[(String, PaperParams)]) {
    let o = opts();
    let mut client = remote_client(addr);
    println!("    over the wire via {addr}");
    for (label, params) in configs {
        let (r1, r2) = remote_load(&mut client, params);
        let goal = o.goal.unwrap_or(Goal::Exact(params.k));
        for &algo in &o.algos {
            let plan = PlanSpec::new(&r1, &r2)
                .aggs(&params.funcs())
                .goal(goal)
                .algorithm(algo)
                .kdom(o.cfg.kdom);
            let t = Instant::now();
            match client.query(&plan) {
                Ok(rows) => println!(
                    "    {label:<14} [{}] k={} rows={} server={}µs round-trip={:.1}ms{}",
                    label_of(algo),
                    rows.k,
                    rows.pairs.len(),
                    rows.micros,
                    t.elapsed().as_secs_f64() * 1e3,
                    if rows.cached { " (cached)" } else { "" },
                ),
                Err(e) => println!("    {label:<14} [{}] ERR {e}", label_of(algo)),
            }
        }
    }
}

fn remote_find_k_sweep(addr: &str, configs: &[(String, PaperParams, usize)]) {
    let o = opts();
    let mut client = remote_client(addr);
    println!("    over the wire via {addr}");
    for (label, params, delta) in configs {
        let (r1, r2) = remote_load(&mut client, params);
        for strategy in ["binary", "range", "naive"] {
            let goal: Goal = format!("atleast:{delta}:{strategy}")
                .parse()
                .expect("valid");
            let plan = PlanSpec::new(&r1, &r2)
                .aggs(&params.funcs())
                .goal(goal)
                .kdom(o.cfg.kdom);
            let t = Instant::now();
            match client.query(&plan) {
                Ok(rows) => println!(
                    "    {label:<14} [{}] chose k={} rows={} server={}µs round-trip={:.1}ms",
                    &strategy[..1].to_ascii_uppercase(),
                    rows.k,
                    rows.pairs.len(),
                    rows.micros,
                    t.elapsed().as_secs_f64() * 1e3,
                ),
                Err(e) => println!("    {label:<14} [{strategy}] ERR {e}"),
            }
        }
    }
}

/// Register one config's relations with a fresh engine and prepare its
/// plan — the sweep drivers below all run through this path so the tables
/// measure exactly what a serving engine would execute.
fn prepare_config(params: &PaperParams, goal: Goal) -> ksjq_core::PreparedQuery {
    let (r1, r2) = params.relations();
    let engine = Engine::with_config(opts().cfg);
    engine.register("r1", r1).expect("fresh catalog");
    engine.register("r2", r2).expect("fresh catalog");
    let plan = QueryPlan::new("r1", "r2")
        .aggregates(&params.funcs())
        .goal(goal);
    engine
        .prepare(&plan)
        .expect("paper params always produce a valid plan")
}

/// The part of a prepared plan that is invariant across the algorithms or
/// strategies a sweep runs over it: relations, join kind, arities,
/// k-range and kdom subroutine (a compact-explain line minus the
/// per-row algorithm, which the table rows name themselves).
fn shape_of(e: &ksjq_core::Explain) -> String {
    let p = &e.params;
    format!(
        "{:?} ⋈ {:?} [{}] d1={} d2={} a={} k∈[{},{}] kdom={}",
        e.left_name, e.right_name, e.join, p.d1, p.d2, p.a, e.k_min, e.k_max, e.kdom
    )
}

fn algo_labels(algos: &[Algorithm]) -> String {
    algos
        .iter()
        .map(|&a| label_of(a))
        .collect::<Vec<_>>()
        .join(",")
}

fn run_ksjq_sweep(configs: &[(String, PaperParams)]) {
    let o = opts();
    if let Some(addr) = &o.remote {
        remote_ksjq_sweep(addr, configs);
        return;
    }
    print_header("config");
    for (label, params) in configs {
        let prepared = prepare_config(params, o.goal.unwrap_or(Goal::Exact(params.k)));
        let e = prepared.explain();
        let p = e.params;
        println!(
            "    [{}] k={} k'={}/{} k''={}/{} over {}",
            algo_labels(&o.algos),
            p.k,
            p.k1_prime,
            p.k2_prime,
            p.k1_pp,
            p.k2_pp,
            shape_of(&e)
        );
        for run in run_algorithms(prepared.context(), prepared.k(), &o.cfg, &o.algos) {
            print_run(label, &run);
        }
    }
}

// ---------------------------------------------------------------- KSJQ, aggregate

fn fig1a(scale: f64) {
    banner(
        "Fig 1a",
        "effect of k (aggregate)",
        &format!("d=7 a=2 n=3300*{scale} g=10"),
    );
    let base = PaperParams::default().scaled(scale);
    let configs: Vec<_> = (8..=11)
        .map(|k| (format!("k={k}"), PaperParams { k, ..base }))
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig1b(scale: f64) {
    banner(
        "Fig 1b",
        "effect of k (aggregate)",
        &format!("d=6 a=1 n=3300*{scale} g=10"),
    );
    let base = PaperParams {
        d: 6,
        a: 1,
        ..PaperParams::default()
    }
    .scaled(scale);
    let configs: Vec<_> = (7..=10)
        .map(|k| (format!("k={k}"), PaperParams { k, ..base }))
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig2a(scale: f64) {
    banner(
        "Fig 2a",
        "effect of a",
        &format!("d=7 k=11 n=3300*{scale} g=10"),
    );
    let base = PaperParams::default().scaled(scale);
    let configs: Vec<_> = (0..=3)
        .map(|a| (format!("a={a}"), PaperParams { a, ..base }))
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig2b(scale: f64) {
    banner(
        "Fig 2b",
        "dimensionality medley",
        &format!("n=3300*{scale} g=10"),
    );
    let base = PaperParams::default().scaled(scale);
    let configs: Vec<_> = [(5, 7, 1), (5, 7, 2), (6, 7, 1), (6, 7, 2), (6, 8, 2)]
        .into_iter()
        .map(|(d, k, a)| (format!("d{d},k{k},a{a}"), PaperParams { d, k, a, ..base }))
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig3a(scale: f64) {
    banner(
        "Fig 3a",
        "effect of join groups g (aggregate)",
        &format!("d=7 a=2 k=11 n=3300*{scale}"),
    );
    let base = PaperParams::default().scaled(scale);
    let configs: Vec<_> = [1usize, 2, 5, 10, 25, 50, 100]
        .into_iter()
        .map(|g| (format!("g={g}"), PaperParams { g, ..base }))
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig3b(scale: f64) {
    banner(
        "Fig 3b",
        "effect of dataset size n (aggregate)",
        &format!("d=7 a=2 k=11 g=10, n scaled by {scale}"),
    );
    let base = PaperParams::default();
    let mut sizes = vec![100usize, 330, 1000, 3300];
    if scale >= 1.0 {
        sizes.extend([10_000, 33_000]);
    }
    let configs: Vec<_> = sizes
        .into_iter()
        .map(|n| {
            let n = ((n as f64 * scale).round() as usize).max(10);
            (format!("n={n}"), PaperParams { n, ..base })
        })
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig4(scale: f64) {
    banner(
        "Fig 4",
        "data distribution (aggregate)",
        &format!("d=7 a=2 k=11 n=3300*{scale} g=10"),
    );
    let base = PaperParams::default().scaled(scale);
    let configs: Vec<_> = [
        ("independent", DataType::Independent),
        ("correlated", DataType::Correlated),
        ("anti-corr", DataType::AntiCorrelated),
    ]
    .into_iter()
    .map(|(name, data_type)| (name.to_string(), PaperParams { data_type, ..base }))
    .collect();
    run_ksjq_sweep(&configs);
}

// ---------------------------------------------------------------- KSJQ, no aggregation

fn fig5a(scale: f64) {
    banner(
        "Fig 5a",
        "effect of k (no aggregation)",
        &format!("d=5 a=0 n=3300*{scale} g=10"),
    );
    let base = PaperParams {
        d: 5,
        a: 0,
        ..PaperParams::default()
    }
    .scaled(scale);
    let configs: Vec<_> = (6..=9)
        .map(|k| (format!("k={k}"), PaperParams { k, ..base }))
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig5b(scale: f64) {
    banner(
        "Fig 5b",
        "effect of d (no aggregation)",
        &format!("a=0 n=3300*{scale} g=10"),
    );
    let base = PaperParams {
        a: 0,
        ..PaperParams::default()
    }
    .scaled(scale);
    let configs: Vec<_> = [(4, 7), (5, 7), (6, 7), (6, 11), (7, 11), (10, 11)]
        .into_iter()
        .map(|(d, k)| (format!("d{d},k{k}"), PaperParams { d, k, ..base }))
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig6a(scale: f64) {
    banner(
        "Fig 6a",
        "effect of g (no aggregation)",
        &format!("d=4 k=7 n=3300*{scale}"),
    );
    let base = PaperParams {
        d: 4,
        a: 0,
        k: 7,
        ..PaperParams::default()
    }
    .scaled(scale);
    let configs: Vec<_> = [1usize, 2, 5, 10, 25, 50, 100]
        .into_iter()
        .map(|g| (format!("g={g}"), PaperParams { g, ..base }))
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig6b(scale: f64) {
    banner(
        "Fig 6b",
        "effect of n (no aggregation)",
        &format!("d=4 k=7 g=10, n scaled by {scale}"),
    );
    let base = PaperParams {
        d: 4,
        a: 0,
        k: 7,
        ..PaperParams::default()
    };
    let mut sizes = vec![100usize, 330, 1000, 3300];
    if scale >= 1.0 {
        sizes.extend([10_000, 33_000]);
    }
    let configs: Vec<_> = sizes
        .into_iter()
        .map(|n| {
            let n = ((n as f64 * scale).round() as usize).max(10);
            (format!("n={n}"), PaperParams { n, ..base })
        })
        .collect();
    run_ksjq_sweep(&configs);
}

fn fig7(scale: f64) {
    banner(
        "Fig 7",
        "data distribution (no aggregation)",
        &format!("d=5 a=0 k=7 n=3300*{scale} g=10"),
    );
    let base = PaperParams {
        d: 5,
        a: 0,
        k: 7,
        ..PaperParams::default()
    }
    .scaled(scale);
    let configs: Vec<_> = [
        ("independent", DataType::Independent),
        ("correlated", DataType::Correlated),
        ("anti-corr", DataType::AntiCorrelated),
    ]
    .into_iter()
    .map(|(name, data_type)| (name.to_string(), PaperParams { data_type, ..base }))
    .collect();
    run_ksjq_sweep(&configs);
}

// ---------------------------------------------------------------- find-k

fn scaled_delta(delta: usize, scale: f64) -> usize {
    // The joined relation shrinks quadratically with n, so δ scales with
    // scale² to keep the same relative selectivity.
    ((delta as f64 * scale * scale).round() as usize).max(1)
}

fn run_find_k_sweep(configs: &[(String, PaperParams, usize)]) {
    let o = opts();
    if let Some(addr) = &o.remote {
        remote_find_k_sweep(addr, configs);
        return;
    }
    print_find_k_header("config");
    for (label, params, delta) in configs {
        // Prepare at the maximum k just to bind and validate the join; the
        // find-k strategies then probe the whole k-range themselves.
        let prepared = prepare_config(params, Goal::SkylineJoin);
        println!(
            "    [find-k B,R,N] δ={delta} over {}",
            shape_of(&prepared.explain())
        );
        for run in run_find_k(prepared.context(), *delta, &o.cfg) {
            print_find_k_run(label, &run);
        }
    }
}

fn fig8a(scale: f64) {
    banner(
        "Fig 8a",
        "find-k: effect of δ",
        &format!(
            "d=5 a=0 n=3300*{scale} g=10, δ scaled by {:.3}",
            scale * scale
        ),
    );
    let base = PaperParams {
        d: 5,
        a: 0,
        ..PaperParams::default()
    }
    .scaled(scale);
    let configs: Vec<_> = [10usize, 100, 1_000, 10_000, 100_000]
        .into_iter()
        .map(|delta| {
            let sd = scaled_delta(delta, scale);
            (format!("δ={delta}"), base, sd)
        })
        .collect();
    run_find_k_sweep(&configs);
}

fn fig8b(scale: f64) {
    banner(
        "Fig 8b",
        "find-k: effect of d",
        &format!("δ=10000*{:.3} a=0 n=3300*{scale} g=10", scale * scale),
    );
    let base = PaperParams {
        a: 0,
        ..PaperParams::default()
    }
    .scaled(scale);
    let delta = scaled_delta(10_000, scale);
    let configs: Vec<_> = [3usize, 4, 5, 7, 10]
        .into_iter()
        .map(|d| (format!("d={d}"), PaperParams { d, ..base }, delta))
        .collect();
    run_find_k_sweep(&configs);
}

fn fig9a(scale: f64) {
    banner(
        "Fig 9a",
        "find-k: effect of g",
        &format!("d=5 a=0 δ=10000*{:.3} n=3300*{scale}", scale * scale),
    );
    let base = PaperParams {
        d: 5,
        a: 0,
        ..PaperParams::default()
    }
    .scaled(scale);
    let delta = scaled_delta(10_000, scale);
    let configs: Vec<_> = [1usize, 2, 5, 10, 25, 50, 100]
        .into_iter()
        .map(|g| (format!("g={g}"), PaperParams { g, ..base }, delta))
        .collect();
    run_find_k_sweep(&configs);
}

fn fig9b(scale: f64) {
    banner(
        "Fig 9b",
        "find-k: effect of n",
        &format!("d=5 a=0 δ=1000*{:.3} g=10", scale * scale),
    );
    let base = PaperParams {
        d: 5,
        a: 0,
        ..PaperParams::default()
    };
    let delta = scaled_delta(1_000, scale);
    let mut sizes = vec![100usize, 330, 1000, 3300];
    if scale >= 1.0 {
        sizes.extend([10_000, 33_000]);
    }
    let configs: Vec<_> = sizes
        .into_iter()
        .map(|n| {
            let n = ((n as f64 * scale).round() as usize).max(10);
            (format!("n={n}"), PaperParams { n, ..base }, delta)
        })
        .collect();
    run_find_k_sweep(&configs);
}

fn fig10(scale: f64) {
    banner(
        "Fig 10",
        "find-k: data distribution",
        &format!("d=5 a=0 δ=10000*{:.3} n=3300*{scale} g=10", scale * scale),
    );
    let base = PaperParams {
        d: 5,
        a: 0,
        ..PaperParams::default()
    }
    .scaled(scale);
    let delta = scaled_delta(10_000, scale);
    let configs: Vec<_> = [
        ("independent", DataType::Independent),
        ("correlated", DataType::Correlated),
        ("anti-corr", DataType::AntiCorrelated),
    ]
    .into_iter()
    .map(|(name, data_type)| (name.to_string(), PaperParams { data_type, ..base }, delta))
    .collect();
    run_find_k_sweep(&configs);
}

// ------------------------------------------------- verification kernel

/// One recorded grouping run of the kernel figure's scalability sweep.
struct ScalabilityRow {
    n: usize,
    run: AlgoRun,
}

/// `kernel`: the verification-kernel ablation. Measures the pre-split
/// materialise-then-compare reference, the split-side oracle and the
/// production two-sided leg kernel on the same candidates of an
/// anti-correlated workload (`n = 33000·scale`, the paper's Table 7 shape
/// with the hostile distribution), then sweeps the fig3b scalability sizes
/// with the grouping algorithm so wall-clock and the `ExecStats` kernel
/// counters land in one place. `--json PATH` writes the whole measurement
/// as the `BENCH_kernel.json` baseline.
fn kernel_figure(scale: f64) {
    let o = opts();
    let n = ((33_000f64 * scale).round() as usize).max(50);
    banner(
        "Kernel",
        "materialized vs split-side vs two-sided verification",
        &format!("anti-correlated d=7 a=2 k=11 g=10 n={n}"),
    );
    let params = PaperParams {
        n,
        data_type: DataType::AntiCorrelated,
        ..PaperParams::default()
    };
    // The materialized reference costs O(n²) per candidate; a stride
    // sample keeps the comparison tractable at the paper's sizes while
    // measuring both kernels on the identical candidates.
    const CANDIDATE_CAP: usize = 512;
    let cmp = compare_verification_kernels_sampled(&params, &o.cfg, Some(CANDIDATE_CAP));
    if cmp.measured < cmp.candidates {
        println!(
            "    measuring a deterministic sample of {} of {} candidates",
            cmp.measured, cmp.candidates
        );
    }
    println!(
        "    {:>14} {:>14} {:>16} {:>10} {:>9}",
        "kernel", "dom tests", "attr cmps", "wall(ms)", "survive"
    );
    for (name, cost) in [
        ("materialized", cmp.materialized),
        ("split-side", cmp.split),
        ("two-sided", cmp.columnar),
    ] {
        println!(
            "    {:>14} {:>14} {:>16} {:>10} {:>9}",
            name,
            cost.dom_tests,
            cost.attr_cmps,
            ms(cost.wall),
            cost.survivors
        );
    }
    println!(
        "    split vs materialized: {:.2}x fewer attribute comparisons, {:.2}x \
         wall-clock; two-sided vs split: {:.2}x wall-clock \
         ({} measured candidates, {} joined pairs)",
        cmp.attr_cmp_ratio(),
        cmp.speedup(),
        cmp.columnar_speedup(),
        cmp.measured,
        cmp.joined_pairs
    );

    // Dominator-generation scaling: the O(n²) phase 2 of the
    // dominator-based algorithm, sharded like classification.
    println!("\n    dominator generation (same workload), by thread count:");
    let domgen = measure_domgen_scaling(&params, &o.cfg, &[1, 2, 4]);
    let base = domgen[0].wall;
    for run in &domgen {
        println!(
            "    {:>10} threads {:>10} ms  {:.2}x  ({} set members)",
            run.threads,
            ms(run.wall),
            base.as_secs_f64() / run.wall.as_secs_f64().max(1e-9),
            run.members
        );
    }

    // fig3b-style scalability, grouping algorithm (the split kernel's
    // production consumer), with the kernel counters per size.
    println!("\n    scalability (grouping, independent, d=7 a=2 k=11 g=10):");
    print_header("config");
    let mut sizes = vec![100usize, 330, 1000, 3300];
    if scale >= 1.0 {
        sizes.extend([10_000, 33_000]);
    }
    let mut rows = Vec::new();
    for base_n in sizes {
        let sn = ((base_n as f64 * scale).round() as usize).max(10);
        let sweep = PaperParams {
            n: sn,
            ..PaperParams::default()
        };
        let prepared = prepare_config(&sweep, Goal::Exact(sweep.k));
        for run in run_algorithms(prepared.context(), sweep.k, &o.cfg, &[Algorithm::Grouping]) {
            print_run(&format!("n={sn}"), &run);
            rows.push(ScalabilityRow { n: sn, run });
        }
    }

    if let Some(path) = &o.json {
        let json = kernel_json(scale, &cmp, &domgen, &rows);
        std::fs::write(path, json).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("\n    wrote {path}");
    }
}

/// Serialise the kernel figure's measurements as the `BENCH_kernel.json`
/// baseline (hand-rolled: the workspace is dependency-free by design).
fn kernel_json(
    scale: f64,
    cmp: &KernelComparison,
    domgen: &[DomgenRun],
    rows: &[ScalabilityRow],
) -> String {
    fn cost(c: &KernelCost) -> String {
        format!(
            "{{\"dom_tests\": {}, \"attr_cmps\": {}, \"wall_ms\": {}, \"survivors\": {}}}",
            c.dom_tests,
            c.attr_cmps,
            ms(c.wall),
            c.survivors
        )
    }
    let p = &cmp.params;
    let workload = format!(
        "{{\"n\": {}, \"d\": {}, \"a\": {}, \"g\": {}, \"k\": {}, \"data_type\": \"{}\", \
         \"seed\": {}, \"joined_pairs\": {}, \"candidates\": {}, \"candidates_measured\": {}}}",
        p.n,
        p.d,
        p.a,
        p.g,
        p.k,
        p.data_type,
        p.seed,
        cmp.joined_pairs,
        cmp.candidates,
        cmp.measured
    );
    let scalability: Vec<String> = rows
        .iter()
        .map(|row| {
            let ph = row.run.output.stats.phases;
            let c = row.run.output.stats.counts;
            format!(
                "    {{\"n\": {}, \"algo\": \"{}\", \"grouping_ms\": {}, \"join_ms\": {}, \
                 \"domgen_ms\": {}, \"remaining_ms\": {}, \"total_ms\": {}, \"skyline\": {}, \
                 \"dom_tests\": {}, \"attr_cmps\": {}, \"targets_pruned\": {}}}",
                row.n,
                row.run.label,
                ms(ph.grouping),
                ms(ph.join),
                ms(ph.dominator_gen),
                ms(ph.remaining),
                ms(row.run.total),
                row.run.output.len(),
                c.dom_tests,
                c.attr_cmps,
                c.targets_pruned
            )
        })
        .collect();
    let base = domgen.first().map(|r| r.wall).unwrap_or_default();
    let domgen_rows: Vec<String> = domgen
        .iter()
        .map(|run| {
            format!(
                "    {{\"threads\": {}, \"wall_ms\": {}, \"speedup\": {:.3}, \"members\": {}}}",
                run.threads,
                ms(run.wall),
                base.as_secs_f64() / run.wall.as_secs_f64().max(1e-9),
                run.members
            )
        })
        .collect();
    format!(
        "{{\n  \"schema_version\": 2,\n  \"bench\": \"kernel\",\n  \"scale\": {scale},\n  \
         \"host_cpus\": {},\n  \
         \"kernel\": {{\n    \"workload\": {workload},\n    \"materialized\": {},\n    \
         \"split_side\": {},\n    \"columnar\": {},\n    \"attr_cmp_ratio\": {:.3},\n    \
         \"speedup\": {:.3},\n    \"columnar_speedup\": {:.3}\n  }},\n  \
         \"domgen_scaling\": [\n{}\n  ],\n  \
         \"fig3_scalability\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        cost(&cmp.materialized),
        cost(&cmp.split),
        cost(&cmp.columnar),
        cmp.attr_cmp_ratio(),
        cmp.speedup(),
        cmp.columnar_speedup(),
        domgen_rows.join(",\n"),
        scalability.join(",\n")
    )
}

// ------------------------------------------------- incremental maintenance

/// One measured delta size of the `delta` subcommand.
struct DeltaRow {
    rows: usize,
    maintain: Duration,
    recompute: Duration,
    stats: MaintainStats,
    skyline: usize,
}

impl DeltaRow {
    fn speedup(&self) -> f64 {
        self.recompute.as_secs_f64() / self.maintain.as_secs_f64().max(1e-9)
    }
}

/// `delta`: incremental maintenance vs full recompute. Appends of
/// 1/16/256 anti-correlated rows to the left relation (`n = 33000·scale`,
/// the kernel figure's hostile workload), each maintained from the same
/// cached epoch-0 result via `maintain_append` and cross-checked for pair
/// equality against a from-scratch `ksjq_grouping` recompute over the
/// appended snapshot. `--json PATH` writes the whole measurement as the
/// `BENCH_delta.json` baseline.
fn delta_figure(scale: f64) {
    let o = opts();
    let n = ((33_000f64 * scale).round() as usize).max(50);
    banner(
        "Delta",
        "incremental maintenance vs full recompute",
        &format!("anti-correlated d=7 a=2 k=11 g=10 n={n}, appends to the left relation"),
    );
    let params = PaperParams {
        n,
        data_type: DataType::AntiCorrelated,
        ..PaperParams::default()
    };
    let (r1, r2) = params.relations();
    let funcs = params.funcs();
    let left = VersionedRelation::from_relation(Arc::new(r1)).expect("datagen keys are groups");
    let right = Arc::new(r2);
    let cx0 = JoinContext::from_arcs(
        left.snapshot().clone(),
        right.clone(),
        JoinSpec::Equality,
        &funcs,
    )
    .expect("paper params always produce a valid context");
    let t = Instant::now();
    let cached = ksjq_grouping(&cx0, params.k, &o.cfg).expect("valid workload");
    let base_wall = t.elapsed();
    println!(
        "    epoch-0 recompute: {} ms, |skyline| = {}",
        ms(base_wall),
        cached.len()
    );

    // The delta pool reuses the generator with a fresh seed, so appended
    // rows follow the same anti-correlated distribution as the base data.
    let pool = DatasetSpec {
        n: 256,
        agg_attrs: params.a,
        local_attrs: params.d - params.a,
        groups: params.g,
        data_type: params.data_type,
        seed: params.seed + 7777,
    }
    .generate();
    let pool_rows: Vec<(u64, Vec<f64>)> = (0..pool.n())
        .map(|i| {
            let t = TupleId(i as u32);
            (pool.group_id(t).expect("group keys"), pool.raw_row(t))
        })
        .collect();

    println!(
        "    {:>6} {:>13} {:>14} {:>9} {:>11} {:>10} {:>8} {:>9}",
        "Δrows",
        "maintain(ms)",
        "recompute(ms)",
        "speedup",
        "candidates",
        "rechecked",
        "evicted",
        "|skyline|"
    );
    let mut measured = Vec::new();
    for delta in [1usize, 16, 256] {
        let keys: Vec<u64> = pool_rows[..delta].iter().map(|(k, _)| *k).collect();
        let rows: Vec<Vec<f64>> = pool_rows[..delta].iter().map(|(_, r)| r.clone()).collect();
        let appended = left
            .append(&keys, &rows)
            .expect("pool rows match the schema");
        let cx = JoinContext::from_arcs(
            appended.snapshot().clone(),
            right.clone(),
            JoinSpec::Equality,
            &funcs,
        )
        .expect("appended snapshot keeps the base shape");
        // Best of three: single-row maintenance completes in microseconds,
        // so one timer read would mostly measure scheduler noise.
        let mut maintain = Duration::MAX;
        let mut out = None;
        for _ in 0..3 {
            let t = Instant::now();
            let run = maintain_append(&cx, params.k, &cached, left.n(), right.n())
                .expect("equality join, k in range");
            maintain = maintain.min(t.elapsed());
            out = Some(run);
        }
        let (maintained, mstats) = out.expect("three timed runs");
        let t = Instant::now();
        let fresh = ksjq_grouping(&cx, params.k, &o.cfg).expect("valid workload");
        let recompute = t.elapsed();
        assert_eq!(
            maintained.pairs, fresh.pairs,
            "maintenance diverged from recompute at Δ={delta}"
        );
        let row = DeltaRow {
            rows: delta,
            maintain,
            recompute,
            stats: mstats,
            skyline: maintained.len(),
        };
        println!(
            "    {:>6} {:>13} {:>14} {:>8.1}x {:>11} {:>10} {:>8} {:>9}",
            row.rows,
            ms(row.maintain),
            ms(row.recompute),
            row.speedup(),
            row.stats.candidates_checked,
            row.stats.cached_rechecked,
            row.stats.cached_evicted,
            row.skyline
        );
        measured.push(row);
    }

    if let Some(path) = &o.json {
        let json = delta_json(scale, &params, base_wall, cached.len(), &measured);
        std::fs::write(path, json).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("\n    wrote {path}");
    }
}

/// Serialise the delta figure's measurements as the `BENCH_delta.json`
/// baseline (hand-rolled: the workspace is dependency-free by design).
fn delta_json(
    scale: f64,
    params: &PaperParams,
    base_wall: Duration,
    base_skyline: usize,
    rows: &[DeltaRow],
) -> String {
    // Sub-millisecond maintenance needs more precision than `ms()` keeps.
    fn ms4(d: Duration) -> String {
        format!("{:.4}", d.as_secs_f64() * 1e3)
    }
    let workload = format!(
        "{{\"n\": {}, \"d\": {}, \"a\": {}, \"g\": {}, \"k\": {}, \"data_type\": \"{}\", \
         \"seed\": {}, \"base_recompute_ms\": {}, \"base_skyline\": {}}}",
        params.n,
        params.d,
        params.a,
        params.g,
        params.k,
        params.data_type,
        params.seed,
        ms(base_wall),
        base_skyline
    );
    let delta_rows: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"rows\": {}, \"maintain_ms\": {}, \"recompute_ms\": {}, \
                 \"speedup\": {:.3}, \"candidates_checked\": {}, \"cached_rechecked\": {}, \
                 \"cached_evicted\": {}, \"inserted\": {}, \"dom_tests\": {}, \
                 \"attr_cmps\": {}, \"skyline\": {}}}",
                row.rows,
                ms4(row.maintain),
                ms4(row.recompute),
                row.speedup(),
                row.stats.candidates_checked,
                row.stats.cached_rechecked,
                row.stats.cached_evicted,
                row.stats.inserted,
                row.stats.counters.dom_tests,
                row.stats.counters.attr_cmps,
                row.skyline
            )
        })
        .collect();
    format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"delta\",\n  \"scale\": {scale},\n  \
         \"host_cpus\": {},\n  \"workload\": {workload},\n  \
         \"deltas\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        delta_rows.join(",\n")
    )
}

// ---------------------------------------------------------------- real data

fn fig11(_scale: f64) {
    banner(
        "Fig 11",
        "flight network (synthetic stand-in for the MakeMyTrip data)",
        "192 x 155 flights, 13 hubs, cost+time aggregated, k in {6,7,8}",
    );
    let o = opts();
    let net = FlightNetworkSpec::default().generate();
    if let Some(addr) = &o.remote {
        // Ship the network as inline CSV — exercising the other LOAD path.
        let mut client = remote_client(addr);
        println!("    over the wire via {addr} (LOAD … INLINE)");
        let (r1, r2) = remote_names();
        let out_csv =
            relation_to_annotated_csv(&net.outbound, "hub", Some(&net.hubs)).expect("keyed");
        let in_csv =
            relation_to_annotated_csv(&net.inbound, "hub", Some(&net.hubs)).expect("keyed");
        client
            .load_csv(&r1, &out_csv)
            .unwrap_or_else(|e| die(&format!("remote LOAD failed: {e}")));
        client
            .load_csv(&r2, &in_csv)
            .unwrap_or_else(|e| die(&format!("remote LOAD failed: {e}")));
        let aggs = [ksjq_join::AggFunc::Sum, ksjq_join::AggFunc::Sum];
        for k in [6usize, 7, 8] {
            for &algo in &o.algos {
                let plan = PlanSpec::new(&r1, &r2)
                    .aggs(&aggs)
                    .k(k)
                    .algorithm(algo)
                    .kdom(o.cfg.kdom);
                let t = Instant::now();
                match client.query(&plan) {
                    Ok(rows) => println!(
                        "    k={k} [{}] rows={} server={}µs round-trip={:.1}ms{}",
                        label_of(algo),
                        rows.pairs.len(),
                        rows.micros,
                        t.elapsed().as_secs_f64() * 1e3,
                        if rows.cached { " (cached)" } else { "" },
                    ),
                    Err(e) => println!("    k={k} [{}] ERR {e}", label_of(algo)),
                }
            }
        }
        return;
    }
    let engine = Engine::with_config(o.cfg);
    engine
        .register("outbound", net.outbound)
        .expect("fresh catalog");
    engine
        .register("inbound", net.inbound)
        .expect("fresh catalog");
    let plan = QueryPlan::new("outbound", "inbound")
        .aggregates(&[ksjq_join::AggFunc::Sum, ksjq_join::AggFunc::Sum]);
    print_header("config");
    for k in [6usize, 7, 8] {
        let prepared = engine
            .prepare(&plan.clone().goal(Goal::Exact(k)))
            .expect("k in range");
        let e = prepared.explain();
        let p = e.params;
        if k == 6 {
            println!(
                "    joined itineraries: {}",
                prepared.context().count_pairs()
            );
        }
        println!(
            "    [{}] k={} k'={}/{} k''={}/{} over {}",
            algo_labels(&o.algos),
            p.k,
            p.k1_prime,
            p.k2_prime,
            p.k1_pp,
            p.k2_pp,
            shape_of(&e)
        );
        for run in run_algorithms(prepared.context(), k, &o.cfg, &o.algos) {
            print_run(&format!("k={k}"), &run);
        }
    }
}
