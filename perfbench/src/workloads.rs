//! The three closed-loop workloads, run against the release daemons.
//!
//! * `fresh-anticorr` — one `ksjq-serverd` with the result cache off;
//!   two connections loop on the uncached grouping query.
//! * `routed-independent` — `ksjq-routerd` over two `ksjq-serverd`
//!   shards, every cache off; one connection loops on the routed query.
//! * `live-append` — one durable `ksjq-serverd` with the cache on; a
//!   writer appends a seeded delta sequence while a reader re-issues the
//!   cached query.
//!
//! Every workload sets up [`SETUPS`] times (the median is `setup_s`),
//! checks every timed answer against an in-process reference, and appends
//! to `a1` in rounds of the same seeded delta sequence: between query
//! windows (`fresh-anticorr`, `routed-independent`) or beside the reader
//! (`live-append`), so every end-to-end metric is measured everywhere.

use ksjq_server::{Request, ServerStats};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::daemon::{Bins, Daemon, TempDir};
use crate::inputs::{Answer, Bound, Inputs, Shape};
use crate::report::{median, Json, Metrics, Samples};
use crate::trace::{replay, Replay, Tracer};
use crate::wire::{Conn, Failure, Reply};
use ksjq_datagen::DataType;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    FreshAnticorr,
    RoutedIndependent,
    LiveAppend,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FreshAnticorr,
        Workload::RoutedIndependent,
        Workload::LiveAppend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshAnticorr => "fresh-anticorr",
            Workload::RoutedIndependent => "routed-independent",
            Workload::LiveAppend => "live-append",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn clients(self) -> usize {
        match self {
            Workload::FreshAnticorr | Workload::LiveAppend => 2,
            Workload::RoutedIndependent => 1,
        }
    }
}

/// `full` is the benchmark; `tiny` is the smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    Full,
    Tiny,
}

/// Everything a run needs from the command line.
#[derive(Debug)]
pub struct Ctx {
    pub bins: Bins,
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub trace: bool,
    /// Corrupt the first checked answer (the smoke test's proof that the
    /// correctness gate catches a wrong answer).
    pub corrupt: bool,
}

fn shape(workload: Workload, size: Size) -> Shape {
    let (data_type, n) = match (workload, size) {
        (Workload::RoutedIndependent, Size::Full) => (DataType::Independent, 3300),
        (Workload::RoutedIndependent, Size::Tiny) => (DataType::Independent, 300),
        (_, Size::Full) => (DataType::AntiCorrelated, 1089),
        (_, Size::Tiny) => (DataType::AntiCorrelated, 150),
    };
    Shape {
        data_type,
        n,
        d: 7,
        a: 2,
        g: 10,
        k: 11,
    }
}

/// Deltas in one round of appends.
fn delta_count(size: Size) -> usize {
    match size {
        Size::Full => 256,
        Size::Tiny => 32,
    }
}

/// Query windows per run of `fresh-anticorr` and `routed-independent`. A
/// round of appends follows each, so the append figures sample the whole
/// run instead of one second that a burst of host noise can swamp.
const WINDOWS: u32 = 5;

/// Rounds with fewer appends (the one `live-append` cuts at the deadline)
/// do not count towards `appends_per_s`.
const MIN_ROUND_APPENDS: usize = 32;

/// Routed queries (and direct shard queries) per router probe.
fn probe_queries(size: Size) -> usize {
    match size {
        Size::Full => 3,
        Size::Tiny => 1,
    }
}

/// In-process pipeline repetitions of the traced replay.
fn replay_queries(size: Size) -> usize {
    match size {
        Size::Full => 5,
        Size::Tiny => 2,
    }
}

/// Attempted and failed operations, and answers that failed the gate.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub refused: u64,
    pub timeouts: u64,
    pub dropped: u64,
    pub protocol: u64,
    pub mismatches: Vec<String>,
    /// The first few failures, verbatim.
    pub examples: Vec<String>,
}

impl Tally {
    /// Count a failure; `true` if the connection is still usable.
    fn fail(&mut self, failure: &Failure) -> bool {
        self.failed += 1;
        if self.examples.len() < 5 {
            eprintln!("ksjq-perfbench: operation failed: {failure:?}");
            self.examples.push(format!("{failure:?}"));
        }
        match failure {
            Failure::Refused(_) => self.refused += 1,
            Failure::Timeout => self.timeouts += 1,
            Failure::Dropped => self.dropped += 1,
            Failure::Protocol(_) => self.protocol += 1,
        }
        matches!(failure, Failure::Refused(_))
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.timeouts += other.timeouts;
        self.dropped += other.dropped;
        self.protocol += other.protocol;
        self.mismatches.extend(other.mismatches);
        self.examples.extend(other.examples);
        self.examples.truncate(5);
    }
}

/// The correctness gate: compares answers, optionally corrupting the
/// first one it sees.
#[derive(Debug)]
struct Gate {
    corrupt: AtomicBool,
}

impl Gate {
    fn seen(&self, mut got: Answer) -> Answer {
        if self.corrupt.swap(false, Ordering::SeqCst) {
            got.checksum ^= 1;
        }
        got
    }

    fn expect(&self, got: Answer, want: Answer, what: &str) -> Result<(), String> {
        let got = self.seen(got);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{what}: {} rows (checksum {:016x}), expected {} rows ({:016x})",
                got.rows, got.checksum, want.rows, want.checksum
            ))
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    pub tally: Tally,
    queries: Samples,
    ttfr: Samples,
    query_window: Duration,
    /// Each round of appends: its latencies and wall time.
    append_rounds: Vec<(Samples, Duration)>,
    setups: Vec<f64>,
    rss_kb: u64,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Facts for the report line.
    pub notes: Vec<(String, Json)>,
}

impl Run {
    fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_owned(), value));
    }

    /// Report the daemons' peak memory over the whole run. The metric
    /// `server_rss_mb` is the peak after set-up's first answer instead:
    /// the peak under load depends on how concurrent queries overlap.
    fn note_peak(&mut self, daemons: &[&Daemon]) -> Result<(), String> {
        let kb = rss_kb(daemons, "VmHWM")?;
        self.note("run_peak_rss_mb", Json::Num(kb as f64 / 1024.0));
        Ok(())
    }

    /// All append latencies, pooled over the rounds.
    fn appends(&self) -> Samples {
        let mut all = Samples::default();
        for (round, _) in &self.append_rounds {
            all.extend(round);
        }
        all
    }

    /// The median over append rounds of each round's appends per second,
    /// so a burst of host noise moves one round, not the result. Rounds
    /// cut short at the deadline do not count.
    fn rounds_per_s(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .append_rounds
            .iter()
            .filter(|(round, _)| round.len() >= MIN_ROUND_APPENDS)
            .map(|(round, took)| round.len() as f64 / took.as_secs_f64().max(1e-9))
            .collect();
        median(&rates)
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Result<Metrics, String> {
        let none = |what: &str| format!("no {what} completed, nothing to report");
        let q = |s: &Samples, p: f64, what: &str| s.quantile(p).ok_or_else(|| none(what));
        let per_s = |n: usize, window: Duration| n as f64 / window.as_secs_f64().max(1e-9);
        let mut m = Metrics::default();
        m.set("query_p50_ms", q(&self.queries, 0.5, "query")?, "ms");
        m.set("query_p90_ms", q(&self.queries, 0.9, "query")?, "ms");
        m.set("ttfr_p50_ms", q(&self.ttfr, 0.5, "query")?, "ms");
        m.set(
            "queries_per_s",
            per_s(self.queries.len(), self.query_window),
            "1/s",
        );
        m.set("append_p50_ms", q(&self.appends(), 0.5, "append")?, "ms");
        m.set(
            "appends_per_s",
            self.rounds_per_s()
                .ok_or_else(|| none("round of appends"))?,
            "1/s",
        );
        m.set(
            "setup_s",
            median(&self.setups).ok_or("no set-up completed")?,
            "s",
        );
        m.set("server_rss_mb", self.rss_kb as f64 / 1024.0, "MB");
        Ok(m)
    }

    /// Tail percentiles beyond the reported ones, for the report.
    pub fn tails(&self) -> Json {
        let tail = |s: &Samples| {
            Json::obj([90, 95, 99].map(|p| {
                let q = s.quantile(f64::from(p) / 100.0).unwrap_or(0.0);
                (format!("p{p}"), Json::Num(q))
            }))
        };
        Json::obj([
            ("query_ms", tail(&self.queries)),
            ("append_ms", tail(&self.appends())),
        ])
    }

    /// Sample counts behind each percentile, for the report.
    pub fn samples(&self) -> Json {
        Json::obj([
            ("queries", Json::Int(self.queries.len() as u64)),
            ("appends", Json::Int(self.appends().len() as u64)),
            ("append_rounds", Json::Int(self.append_rounds.len() as u64)),
            ("setups", Json::Int(self.setups.len() as u64)),
        ])
    }
}

fn server_args(extra: &[&str]) -> Vec<String> {
    ["--addr", "127.0.0.1:0", "--no-demo"]
        .iter()
        .chain(extra)
        .map(|s| s.to_string())
        .collect()
}

fn load(conn: &mut Conn, inputs: &Inputs) -> Result<(), String> {
    conn.load("a1", &inputs.left_csv)?;
    conn.load("a2", &inputs.right_csv)
}

fn rss_kb(daemons: &[&Daemon], field: &str) -> Result<u64, String> {
    daemons.iter().map(|d| d.status_kb(field)).sum()
}

/// One warm-up or check query outside the timed window: a failure
/// aborts the run, a wrong answer fails the gate.
fn checked_query(
    conn: &mut Conn,
    line: &str,
    gate: &Gate,
    want: Answer,
    what: &str,
    tally: &mut Tally,
) -> Result<Reply, String> {
    let reply = conn.query(line).map_err(|f| format!("{what}: {f:?}"))?;
    if let Err(m) = gate.expect(reply.answer, want, what) {
        tally.mismatches.push(m);
    }
    Ok(reply)
}

/// Timed closed loop: query until `stop()`, checking every answer.
fn query_loop(
    conn: &mut Conn,
    line: &str,
    stop: impl Fn() -> bool,
    check: impl Fn(&Reply) -> Result<(), String>,
) -> (Samples, Samples, Tally) {
    let (mut lat, mut ttfr, mut tally) = (Samples::default(), Samples::default(), Tally::default());
    while !stop() {
        tally.attempted += 1;
        match conn.query(line) {
            Ok(reply) => match check(&reply) {
                Ok(()) => {
                    lat.push(reply.total);
                    ttfr.push(reply.ttfr);
                }
                Err(m) => tally.mismatches.push(m),
            },
            Err(f) => {
                if !tally.fail(&f) {
                    break;
                }
            }
        }
    }
    (lat, ttfr, tally)
}

/// The timed phase of the two query workloads: [`WINDOWS`] times, loop
/// on every connection for that share of `seconds`, then append the delta
/// sequence through the first connection and restore the base `a1`
/// (untimed), so every window queries the same relations.
fn query_and_append(
    conns: &mut [Conn],
    inputs: &Inputs,
    seconds: f64,
    gate: &Gate,
    want: Answer,
    run: &mut Run,
) -> Result<(), String> {
    let line = inputs.query_line();
    for _ in 0..WINDOWS {
        let until = Instant::now() + Duration::from_secs_f64(seconds / f64::from(WINDOWS));
        let start = Instant::now();
        let outs = thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let line = &line;
                    s.spawn(move || {
                        query_loop(
                            conn,
                            line,
                            || Instant::now() >= until,
                            |r| gate.expect(r.answer, want, "timed QUERY"),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query loop does not panic"))
                .collect::<Vec<_>>()
        });
        run.query_window += start.elapsed();
        for (lat, ttfr, tally) in outs {
            run.queries.extend(&lat);
            run.ttfr.extend(&ttfr);
            run.tally.merge(tally);
        }
        append_round(&mut conns[0], inputs, run);
        conns[0].load("a1", &inputs.left_csv)?;
    }
    Ok(())
}

/// Append every delta in order, timing each `OK`, and check the row
/// count each acknowledgement reports.
fn append_round(conn: &mut Conn, inputs: &Inputs, run: &mut Run) {
    let mut rows = inputs.shape.n;
    let mut lat = Samples::default();
    let start = Instant::now();
    for delta in &inputs.deltas {
        run.tally.attempted += 1;
        match conn.append(delta) {
            Ok((took, info)) => {
                rows += delta.lines().count();
                lat.push(took);
                check_rows(&info, rows, &mut run.tally);
            }
            Err(f) => {
                if !run.tally.fail(&f) {
                    break;
                }
            }
        }
    }
    run.append_rounds.push((lat, start.elapsed()));
}

/// An `APPEND` acknowledgement that reports `n=` must report `rows`.
fn check_rows(info: &str, rows: usize, tally: &mut Tally) {
    let n = info
        .split_whitespace()
        .find_map(|t| t.strip_prefix("n="))
        .and_then(|n| n.parse::<usize>().ok());
    if let Some(n) = n {
        if n != rows {
            tally
                .mismatches
                .push(format!("APPEND acknowledged n={n}, expected {rows}"));
        }
    }
}

/// STATS of several daemons, taken together.
fn stats_of(conns: &mut [Conn]) -> Result<Vec<ServerStats>, String> {
    conns.iter_mut().map(Conn::stats).collect()
}

/// Per-layer figures read from `(before, after)` STATS pairs: `serving`
/// holds the pairs of the daemon clients talk to, `all` those of every
/// daemon. A pair per window, or per daemon, or both.
fn stats_layers(
    m: &mut Metrics,
    serving: &[(ServerStats, ServerStats)],
    all: &[(ServerStats, ServerStats)],
) {
    let delta = |pairs: &[(ServerStats, ServerStats)], f: fn(&ServerStats) -> u64| {
        pairs
            .iter()
            .map(|(b, a)| f(a).saturating_sub(f(b)))
            .sum::<u64>() as f64
    };
    let hits = delta(serving, |s| s.cache_hits);
    let misses = delta(serving, |s| s.cache_misses);
    m.set("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    m.set(
        "cache.delta_maintained",
        delta(serving, |s| s.delta_maintained),
        "count",
    );
    m.set(
        "durability.wal_records",
        delta(all, |s| s.wal_records),
        "count",
    );
    m.set("server.errors", delta(all, |s| s.errors), "count");
    m.set("server.timeouts", delta(all, |s| s.timeouts), "count");
    m.set(
        "server.peak_buf_b",
        all.iter().map(|(_, a)| a.peak_buf).max().unwrap_or(0) as f64,
        "B",
    );
}

/// Router plus two shard daemons.
#[derive(Debug)]
struct Cluster {
    shards: Vec<Daemon>,
    router: Daemon,
}

impl Cluster {
    fn start(bins: &Bins) -> Result<Cluster, String> {
        let shard_args = server_args(&["--cache-entries", "0", "--workers", "2"]);
        let shards = (0..2)
            .map(|i| Daemon::spawn(&format!("shard{i}"), &bins.server(), &shard_args))
            .collect::<Result<Vec<_>, _>>()?;
        let mut args = vec!["--addr".to_string(), "127.0.0.1:0".into()];
        for shard in &shards {
            args.extend(["--shard".to_string(), shard.addr().to_owned()]);
        }
        args.extend(["--cache-entries".to_string(), "0".into()]);
        let router = Daemon::spawn("ksjq-routerd", &bins.router(), &args)?;
        Ok(Cluster { shards, router })
    }

    fn daemons(&self) -> Vec<&Daemon> {
        std::iter::once(&self.router).chain(&self.shards).collect()
    }

    fn ensure_alive(&mut self) -> Result<(), String> {
        self.router.ensure_alive()?;
        self.shards.iter_mut().try_for_each(Daemon::ensure_alive)
    }

    fn stop(self) -> Result<(), String> {
        let router = self.router.stop();
        let shards: Result<(), String> = self.shards.into_iter().try_for_each(Daemon::stop);
        router.and(shards)
    }
}

/// Measure the router's layers on `cluster` (loaded with `inputs`):
/// `queries` routed queries, then the same query sent straight to each
/// shard (round 1).
fn router_probe(
    cluster: &Cluster,
    inputs: &Inputs,
    want: Answer,
    queries: usize,
    gate: &Gate,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let line = inputs.query_line();
    let mut router = Conn::open(cluster.router.addr())?;
    let mut shards = cluster
        .shards
        .iter()
        .map(|s| Conn::open(s.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let rb = router.stats()?;
    let sb = stats_of(&mut shards)?;
    let mut routed = Vec::new();
    let mut routed_rows = 0;
    for _ in 0..queries {
        let reply = checked_query(&mut router, &line, gate, want, "routed probe", tally)?;
        routed.push(reply.total.as_secs_f64() * 1e3);
        routed_rows = reply.answer.rows;
    }
    let ra = router.stats()?;
    let sa = stats_of(&mut shards)?;
    let mut round1 = Vec::new();
    let mut local_rows = 0;
    for _ in 0..queries {
        let mut slowest = 0f64;
        local_rows = 0;
        for shard in &mut shards {
            let reply = shard
                .query(&line)
                .map_err(|f| format!("round-1 probe: {f:?}"))?;
            slowest = slowest.max(reply.total.as_secs_f64() * 1e3);
            local_rows += reply.answer.rows;
        }
        round1.push(slowest);
    }
    // Each shard also counted the STATS request that opened the window.
    let backend: u64 = sb
        .iter()
        .zip(&sa)
        .map(|(b, a)| a.requests.saturating_sub(b.requests + 1))
        .sum();
    let fanouts = ra.fanout_queries.saturating_sub(rb.fanout_queries).max(1);
    let round1_ms = median(&round1).unwrap_or(0.0);
    m.set("router.round1_ms", round1_ms, "ms");
    m.set(
        "router.self_ms",
        median(&routed).unwrap_or(0.0) - round1_ms,
        "ms",
    );
    m.set(
        "router.backend_frames_per_query",
        backend as f64 / queries as f64,
        "count",
    );
    m.set(
        "router.merge_us_per_query",
        ra.merge_us.saturating_sub(rb.merge_us) as f64 / fanouts as f64,
        "us",
    );
    m.set(
        "router.round2_survival",
        routed_rows as f64 / local_rows.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Run one workload. `tracer` is enabled on traced runs only.
pub fn run(workload: Workload, ctx: &Ctx, tracer: &mut Tracer) -> Result<Run, String> {
    let shape = shape(workload, ctx.size);
    let inputs = Inputs::generate(shape, ctx.seed, delta_count(ctx.size));
    let bound = Bound::new(&inputs)?;
    let gate = Gate {
        corrupt: AtomicBool::new(ctx.corrupt),
    };
    let mut run = Run::default();
    run.note("workload", Json::str(workload.name()));
    run.note("relations", Json::str(shape.describe()));
    run.note("clients", Json::Int(workload.clients() as u64));
    run.note("deltas", Json::Int(inputs.deltas.len() as u64));
    let e2e_ms = match workload {
        Workload::FreshAnticorr => fresh(ctx, &inputs, &bound, &gate, &mut run)?,
        Workload::RoutedIndependent => routed(ctx, &inputs, &bound, &gate, &mut run)?,
        Workload::LiveAppend => live(ctx, &inputs, &bound, &gate, &mut run)?,
    };
    if ctx.trace {
        let Replay {
            engine_ms,
            encode_ms,
            overhead_pct,
        } = replay(
            &inputs,
            &bound,
            replay_queries(ctx.size),
            &ctx.out,
            tracer,
            &mut run.layers,
        )?;
        // What the layers account for of the workload's end-to-end
        // median: the engine plus encoding for a computed answer, round 1
        // plus merge plus encoding for a routed one, and encoding alone
        // for a cached read.
        let attributed = encode_ms
            + match workload {
                Workload::FreshAnticorr => engine_ms,
                Workload::RoutedIndependent => {
                    run.layers.get("router.round1_ms").unwrap_or(0.0)
                        + run.layers.get("router.merge_us_per_query").unwrap_or(0.0) / 1e3
                }
                Workload::LiveAppend => 0.0,
            };
        let m = &mut run.layers;
        m.set("trace.unattributed_ms", e2e_ms - attributed, "ms");
        m.set(
            "trace.unattributed_pct",
            (e2e_ms - attributed) / e2e_ms.max(1e-9) * 100.0,
            "%",
        );
        m.set("trace.overhead_pct", overhead_pct, "%");
        m.set("trace.spans", tracer.len() as f64, "count");
    }
    Ok(run)
}

fn fresh(
    ctx: &Ctx,
    inputs: &Inputs,
    bound: &Bound,
    gate: &Gate,
    run: &mut Run,
) -> Result<f64, String> {
    let want = Answer::of_output(&bound.reference()?);
    run.note("answer_rows", Json::Int(want.rows as u64));
    let line = inputs.query_line();
    let mut kept = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let server = Daemon::spawn(
            "ksjq-serverd",
            &ctx.bins.server(),
            &server_args(&["--cache-entries", "0", "--workers", "2"]),
        )?;
        let before = server.status_kb("VmRSS")?;
        let mut conns = vec![Conn::open(server.addr())?, Conn::open(server.addr())?];
        load(&mut conns[0], inputs)?;
        let loaded = server.status_kb("VmRSS")?;
        // The peak after one answer: a second warm-up may or may not land
        // on the other worker thread, and its allocator arena with it.
        checked_query(&mut conns[0], &line, gate, want, "warm-up", &mut run.tally)?;
        let peak_kb = server.status_kb("VmHWM")?;
        checked_query(&mut conns[1], &line, gate, want, "warm-up", &mut run.tally)?;
        run.setups.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            server.stop()?;
        } else {
            run.rss_kb = peak_kb;
            kept = Some((server, conns, loaded.saturating_sub(before)));
        }
    }
    let (mut server, mut conns, grown_kb) = kept.expect("SETUPS > 0");
    let before = conns[0].stats()?;
    query_and_append(&mut conns, inputs, ctx.seconds, gate, want, run)?;
    let after = conns[0].stats()?;
    server.ensure_alive()?;
    run.note_peak(&[&server])?;
    if ctx.trace {
        let m = &mut run.layers;
        m.set(
            "relation.rss_bytes_per_row",
            (grown_kb * 1024) as f64 / inputs.rows_loaded() as f64,
            "B/row",
        );
        let pairs = [(before, after)];
        stats_layers(m, &pairs, &pairs);
        probe_cluster(ctx, inputs, want, gate, run)?;
    }
    drop(conns);
    server.stop()?;
    Ok(run.queries.quantile(0.5).unwrap_or(0.0))
}

/// A router probe over a fresh cluster loaded with `inputs` — the router
/// figures of the workloads that run no router themselves.
fn probe_cluster(
    ctx: &Ctx,
    inputs: &Inputs,
    want: Answer,
    gate: &Gate,
    run: &mut Run,
) -> Result<(), String> {
    let mut cluster = Cluster::start(&ctx.bins)?;
    load(&mut Conn::open(cluster.router.addr())?, inputs)?;
    router_probe(
        &cluster,
        inputs,
        want,
        probe_queries(ctx.size),
        gate,
        &mut run.tally,
        &mut run.layers,
    )?;
    cluster.ensure_alive()?;
    cluster.stop()
}

fn routed(
    ctx: &Ctx,
    inputs: &Inputs,
    bound: &Bound,
    gate: &Gate,
    run: &mut Run,
) -> Result<f64, String> {
    let want = Answer::of_output(&bound.reference()?);
    run.note("answer_rows", Json::Int(want.rows as u64));
    let line = inputs.query_line();
    let mut kept = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let cluster = Cluster::start(&ctx.bins)?;
        let before = rss_kb(&cluster.daemons(), "VmRSS")?;
        let mut conn = Conn::open(cluster.router.addr())?;
        load(&mut conn, inputs)?;
        let loaded = rss_kb(&cluster.daemons(), "VmRSS")?;
        checked_query(&mut conn, &line, gate, want, "warm-up", &mut run.tally)?;
        run.setups.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            cluster.stop()?;
        } else {
            run.rss_kb = rss_kb(&cluster.daemons(), "VmHWM")?;
            kept = Some((cluster, conn, loaded.saturating_sub(before)));
        }
    }
    let (mut cluster, mut conn, grown_kb) = kept.expect("SETUPS > 0");
    let mut direct = cluster
        .daemons()
        .iter()
        .map(|d| Conn::open(d.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let before = stats_of(&mut direct)?;
    query_and_append(
        std::slice::from_mut(&mut conn),
        inputs,
        ctx.seconds,
        gate,
        want,
        run,
    )?;
    let after = stats_of(&mut direct)?;

    // The routed answer must also equal a single-node run on the same
    // data: shard 0's broadcast copies of both relations.
    let mut plan = inputs.plan.clone();
    plan.left = ".all.a1".into();
    plan.right = ".all.a2".into();
    let single = Request::Query { plan }.to_string();
    checked_query(
        &mut direct[1],
        &single,
        gate,
        want,
        "single-node",
        &mut run.tally,
    )?;

    if ctx.trace {
        let m = &mut run.layers;
        m.set(
            "relation.rss_bytes_per_row",
            (grown_kb * 1024) as f64 / inputs.rows_loaded() as f64,
            "B/row",
        );
        // `direct` holds the router first, then the shards.
        let pairs: Vec<_> = before.into_iter().zip(after).collect();
        stats_layers(m, &pairs[..1], &pairs);
        router_probe(
            &cluster,
            inputs,
            want,
            probe_queries(ctx.size),
            gate,
            &mut run.tally,
            &mut run.layers,
        )?;
    }
    cluster.ensure_alive()?;
    run.note_peak(&cluster.daemons())?;
    drop((conn, direct));
    cluster.stop()?;
    Ok(run.queries.quantile(0.5).unwrap_or(0.0))
}

fn live(
    ctx: &Ctx,
    inputs: &Inputs,
    bound: &Bound,
    gate: &Gate,
    run: &mut Run,
) -> Result<f64, String> {
    let (answers, _) = bound.epoch_answers(&inputs.deltas, &mut Tracer::new(false))?;
    run.note("answer_rows", Json::Int(answers[0].rows as u64));
    let line = inputs.query_line();
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = TempDir::new(&ctx.out, "live-wal")?;
        let start = Instant::now();
        let data_dir = dir.path().to_string_lossy().into_owned();
        let server = Daemon::spawn(
            "ksjq-serverd",
            &ctx.bins.server(),
            &server_args(&["--data-dir", &data_dir, "--workers", "2"]),
        )?;
        let before = server.status_kb("VmRSS")?;
        let mut writer = Conn::open(server.addr())?;
        let mut reader = Conn::open(server.addr())?;
        load(&mut writer, inputs)?;
        let loaded = server.status_kb("VmRSS")?;
        checked_query(
            &mut reader,
            &line,
            gate,
            answers[0],
            "caching query",
            &mut run.tally,
        )?;
        run.setups.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            server.stop()?;
        } else {
            run.rss_kb = server.status_kb("VmHWM")?;
            kept = Some((dir, server, writer, reader, loaded.saturating_sub(before)));
        }
    }
    let (_dir, mut server, mut writer, mut reader, grown_kb) = kept.expect("SETUPS > 0");
    let mut stats_conn = Conn::open(server.addr())?;
    let mut reads = Samples::default();
    let mut read_ttfr = Samples::default();
    let mut reads_cached = 0u64;
    let mut rounds = 0u64;
    let mut stats_pairs = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    loop {
        if rounds > 0 {
            // Back to the base relation, re-cached, outside the clock.
            writer.load("a1", &inputs.left_csv)?;
            checked_query(
                &mut reader,
                &line,
                gate,
                answers[0],
                "re-caching query",
                &mut run.tally,
            )?;
        }
        let before = stats_conn.stats()?;
        let applied = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let ((wlat, wtally, wtime), (rlat, rttfr, cached, rtally)) = thread::scope(|s| {
            let w = s.spawn(|| {
                let (mut lat, mut tally) = (Samples::default(), Tally::default());
                let mut rows = inputs.shape.n;
                let began = Instant::now();
                for (i, delta) in inputs.deltas.iter().enumerate() {
                    if Instant::now() >= until {
                        break;
                    }
                    tally.attempted += 1;
                    match writer.append(delta) {
                        Ok((took, info)) => {
                            lat.push(took);
                            rows += delta.lines().count();
                            check_rows(&info, rows, &mut tally);
                            applied.store(i + 1, Ordering::SeqCst);
                        }
                        Err(f) => {
                            tally.fail(&f);
                            break;
                        }
                    }
                }
                done.store(true, Ordering::SeqCst);
                (lat, tally, began.elapsed())
            });
            let r = s.spawn(|| {
                let (mut lat, mut ttfr, mut tally) =
                    (Samples::default(), Samples::default(), Tally::default());
                let mut cached = 0u64;
                while !done.load(Ordering::SeqCst) {
                    // The answer may reflect any epoch from the last acked
                    // append to the one in flight.
                    let lo = applied.load(Ordering::SeqCst);
                    tally.attempted += 1;
                    match reader.query(&line) {
                        Ok(reply) => {
                            let hi = (applied.load(Ordering::SeqCst) + 1).min(answers.len() - 1);
                            if answers[lo..=hi].contains(&gate.seen(reply.answer)) {
                                lat.push(reply.total);
                                ttfr.push(reply.ttfr);
                                cached += u64::from(reply.cached);
                            } else {
                                tally.mismatches.push(format!(
                                    "live-append read: {} rows matches no epoch in {lo}..={hi}",
                                    reply.answer.rows
                                ));
                            }
                        }
                        Err(f) => {
                            if !tally.fail(&f) {
                                break;
                            }
                        }
                    }
                }
                (lat, ttfr, cached, tally)
            });
            (
                w.join().expect("writer does not panic"),
                r.join().expect("reader does not panic"),
            )
        });
        let after = stats_conn.stats()?;
        stats_pairs.push((before, after));
        run.append_rounds.push((wlat, wtime));
        run.tally.merge(wtally);
        reads.extend(&rlat);
        read_ttfr.extend(&rttfr);
        reads_cached += cached;
        run.tally.merge(rtally);
        // The cached answer after the writer stops must equal the
        // from-scratch answer over the same deltas.
        let final_epoch = applied.load(Ordering::SeqCst);
        let last = checked_query(
            &mut reader,
            &line,
            gate,
            answers[final_epoch],
            "final cached answer",
            &mut run.tally,
        )?;
        if !last.cached {
            run.tally
                .mismatches
                .push("final answer was recomputed, not served from the maintained cache".into());
        }
        rounds += 1;
        if Instant::now() >= until {
            break;
        }
    }
    run.query_window = start.elapsed();
    run.queries = reads;
    run.ttfr = read_ttfr;
    run.note("rounds", Json::Int(rounds));
    run.note("reads_cached", Json::Int(reads_cached));
    run.note(
        "read_p99_ms",
        Json::Num(run.queries.quantile(0.99).unwrap_or(0.0)),
    );

    server.ensure_alive()?;
    run.note_peak(&[&server])?;
    if ctx.trace {
        let m = &mut run.layers;
        m.set(
            "relation.rss_bytes_per_row",
            (grown_kb * 1024) as f64 / inputs.rows_loaded() as f64,
            "B/row",
        );
        stats_layers(m, &stats_pairs, &stats_pairs);
        probe_cluster(ctx, inputs, answers[0], gate, run)?;
    }
    drop((writer, reader, stats_conn));
    server.stop()?;
    Ok(run.queries.quantile(0.5).unwrap_or(0.0))
}
