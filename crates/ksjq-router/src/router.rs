//! The router front end: speaks the ordinary KSJQ client protocol, but
//! answers by orchestrating a cluster of shard servers.
//!
//! ## Execution model
//!
//! * `LOAD` — the relation is split by join-key hash
//!   ([`crate::partition`]) and applied to **every replica of every
//!   shard** in two phases (`STAGE` everywhere, then `COMMIT` everywhere
//!   only if every stage succeeded, else `ABORT` everywhere). A failed
//!   load therefore leaves the *old* binding live on all shards. Shard 0
//!   additionally holds a `.all.<name>` broadcast copy of the full
//!   relation, which backs `PREPARE` validation, `EXPLAIN` and the
//!   find-k goals (whose choice of `k` depends on global cardinalities).
//! * `QUERY` / `EXECUTE` with a fixed `k` — scatter-gather in two
//!   rounds. Round 1 runs the query on one replica of every
//!   *participating* shard (both slices non-empty), yielding each
//!   shard's local k-dominant skyline — a sound superset of the global
//!   answer's members on that shard, because all rows of a join group
//!   co-locate. Round 2 (only with ≥ 2 participating shards) `FETCH`es
//!   every shard's candidates as **legs** — each distinct base tuple
//!   once, by value, plus the pairs as leg indices — and `CHECK`s them on
//!   every other participating shard, which runs the same two-sided leg
//!   kernel as grouping (`ksjq_core::verify_legs`); a candidate
//!   k-dominated anywhere is dropped. `CHECK` frames are cut by right leg
//!   (`leg_frames`): each carries only the legs its pairs use, at most
//!   `check_batch` pairs, and fits [`MAX_LINE_BYTES`] by measured length.
//!   Every backend frame gets the deadline budget left when it is sent.
//!   Survivors are remapped to global row ids (strictly monotone maps)
//!   and k-way merged — byte-identical to the single-node answer.
//! * Replica failure — any transport error fails over to the next
//!   replica of the shard, with bounded, jittered retries; only when a
//!   whole replica set is down does the client see `ERR unavailable`.

use crate::decision_log::{Decision, DecisionLog, Txn, TxnKind};
use crate::dialer::{DialPolicy, Dialer, FanoutCounters, ShardDialer};
use crate::merge::merge_sorted;
use crate::partition::{partition_csv, partition_delta, partition_synthetic, PartitionedLoad};
use crate::topology::{shard_of, Topology};
use ksjq_core::{ExecStats, Goal, KsjqOutput};
use ksjq_relation::TupleId;
use ksjq_server::{
    leg_token, ClientError, Cursor, ErrorCode, LegSet, LoadSource, PlanSpec, Request, Response,
    ResultCache, RowChunk, RowSet, ServerStats, MAX_LINE_BYTES, PROTOCOL_VERSION, ROWS_PER_CHUNK,
};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Default `FETCH` batch size: candidate pairs per frame.
pub const DEFAULT_FETCH_BATCH: usize = 16_384;
/// Default `CHECK` batch size: candidate pairs per frame. Frames are also
/// cut to fit [`MAX_LINE_BYTES`], whatever this says.
pub const DEFAULT_CHECK_BATCH: usize = 16_384;

/// Router knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`host:port`; port 0 binds ephemeral).
    pub addr: String,
    /// Result-cache capacity (0 disables caching and `MORE` paging).
    pub cache_entries: usize,
    /// Backend retry/backoff/timeout policy.
    pub policy: DialPolicy,
    /// Round-2 `FETCH` batch size (`--fetch-batch`): candidate pairs per
    /// frame. Larger batches mean fewer round trips but bigger frames.
    pub fetch_batch: usize,
    /// Round-2 `CHECK` batch size (`--check-batch`): candidate pairs per
    /// frame (each frame also fits [`MAX_LINE_BYTES`]).
    pub check_batch: usize,
    /// Decision-WAL directory (`--data-dir`): every two-phase `LOAD` /
    /// `APPEND` durably logs its begin/decision/outcome records here
    /// *before* the corresponding backend frame is sent, and a restarted
    /// router replays the log and drives every in-doubt transaction to
    /// committed-everywhere or aborted-everywhere before accepting
    /// traffic. `None` keeps the stateless-coordinator behaviour.
    pub data_dir: Option<std::path::PathBuf>,
    /// Seal the active decision WAL into a segment past this many bytes
    /// and compact the closed history into the snapshot
    /// (`--wal-max-bytes`; `None` = startup-only compaction).
    pub wal_max_bytes: Option<u64>,
    /// Crash-test hook (`KSJQ_CRASH_AT`): `abort()` the process at the
    /// Nth two-phase frame boundary. The chaos e2e sweeps N to kill the
    /// router at every edge of the commit protocol. `None` / 0 disables.
    pub crash_at: Option<u64>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7979".into(),
            cache_entries: 128,
            policy: DialPolicy::default(),
            fetch_batch: DEFAULT_FETCH_BATCH,
            check_batch: DEFAULT_CHECK_BATCH,
            data_dir: None,
            wal_max_bytes: None,
            crash_at: None,
        }
    }
}

/// What the router remembers about a relation it loaded.
#[derive(Debug)]
struct RelMeta {
    /// `id_maps[s][local]` = global row id (strictly increasing).
    id_maps: Vec<Vec<u32>>,
    /// `keys[global]` = textual join key of every row — what lets
    /// `APPEND` extend the id maps in place and `DELETE` recompute them
    /// without refetching anything from the shards.
    keys: Vec<String>,
}

/// A prepared query: the router keeps the plan (and re-sends it as a
/// one-shot `QUERY` on every `EXECUTE`) instead of relying on
/// server-side session state, so a replica failover between `PREPARE`
/// and `EXECUTE` is invisible.
#[derive(Debug)]
struct Prepared {
    plan: PlanSpec,
    explain: String,
}

#[derive(Debug)]
struct RouterState {
    topology: Topology,
    policy: DialPolicy,
    relations: RwLock<HashMap<String, Arc<RelMeta>>>,
    cache: ResultCache,
    /// Serialises catalog mutations: interleaved two-phase loads of the
    /// same name from two sessions must not cross-commit.
    load_lock: Mutex<()>,
    fanout: Arc<FanoutCounters>,
    /// Round-2 batch sizes (`--fetch-batch` / `--check-batch`).
    fetch_batch: usize,
    check_batch: usize,
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    fanout_queries: AtomicU64,
    merge_us: AtomicU64,
    /// Bumped on every catalog mutation the router drives (`LOAD`,
    /// `APPEND`, `DELETE`) — the cluster-level analogue of a shard's
    /// `catalog_epoch`.
    epoch: AtomicU64,
    /// Rows appended through this router.
    delta_rows: AtomicU64,
    /// Requests that died on a `DEADLINE` — locally between rounds or as
    /// an `ERR timeout` relayed from a shard.
    timeouts: AtomicU64,
    /// The durable two-phase decision WAL (`--data-dir`); `None` for a
    /// stateless coordinator. Mutation-path appends happen under
    /// `load_lock`, so record order is decision order.
    decision_log: Mutex<Option<DecisionLog>>,
    /// Transactions the decision WAL replayed as in-doubt; drained by
    /// the resolution thread before the gate opens.
    pending: Mutex<Vec<Txn>>,
    /// While set, everything except `HELLO` / `STATS` / `DEADLINE` /
    /// `CLOSE` answers `ERR recovering`: the router refuses traffic
    /// until every in-doubt transaction has converged.
    recovering: AtomicBool,
    /// In-doubt transactions driven to a terminal state since startup.
    in_doubt_resolved: AtomicU64,
    /// Crash-test countdown (`KSJQ_CRASH_AT`): the process aborts when
    /// this hits its Nth two-phase frame boundary; 0 = disabled.
    crash_at: AtomicU64,
    rotation: AtomicUsize,
    stop: AtomicBool,
}

/// One crash-test boundary. With `crash_at = N`, the Nth boundary calls
/// `std::process::abort()` — the closest in-process stand-in for
/// `kill -9` (no destructors, no flushes beyond what already fsynced).
/// Boundaries bracket every backend frame and every decision-WAL record
/// of the two-phase protocol, so a sweep over N crashes the router at
/// each edge exactly once.
fn crash_point(state: &RouterState) {
    if state.crash_at.load(Ordering::Relaxed) == 0 {
        return;
    }
    if state.crash_at.fetch_sub(1, Ordering::SeqCst) == 1 {
        eprintln!("ksjq-routerd: KSJQ_CRASH_AT boundary reached; aborting");
        std::process::abort();
    }
}

/// The distributed KSJQ front end. Bind, then [`run`](Router::run) (or
/// [`start`](Router::start) on a background thread for tests).
#[derive(Debug)]
pub struct Router {
    listener: TcpListener,
    state: Arc<RouterState>,
}

impl Router {
    /// Bind the listen socket (connections are accepted by `run`).
    ///
    /// With [`RouterConfig::data_dir`] set this also replays the
    /// decision WAL; transactions that never reached their `END` record
    /// come back as in-doubt, the recovering gate closes, and
    /// [`run`](Router::run) drives them to a terminal state before the
    /// router accepts traffic.
    pub fn bind(topology: Topology, config: &RouterConfig) -> io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut pending = Vec::new();
        let decision_log = match &config.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let (log, in_doubt) = DecisionLog::open(dir, config.wal_max_bytes)?;
                pending = in_doubt;
                Some(log)
            }
            None => None,
        };
        if !pending.is_empty() {
            println!(
                "ksjq-routerd: {} in-doubt transaction(s) replayed; gating traffic until resolved",
                pending.len()
            );
        }
        let recovering = !pending.is_empty();
        let state = Arc::new(RouterState {
            topology,
            policy: config.policy,
            relations: RwLock::new(HashMap::new()),
            cache: ResultCache::new(config.cache_entries),
            load_lock: Mutex::new(()),
            fanout: Arc::new(FanoutCounters::default()),
            fetch_batch: config.fetch_batch.max(1),
            check_batch: config.check_batch.max(1),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            fanout_queries: AtomicU64::new(0),
            merge_us: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            delta_rows: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            decision_log: Mutex::new(decision_log),
            pending: Mutex::new(pending),
            recovering: AtomicBool::new(recovering),
            in_doubt_resolved: AtomicU64::new(0),
            crash_at: AtomicU64::new(config.crash_at.unwrap_or(0)),
            rotation: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        Ok(Router { listener, state })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve connections until stopped (thread per
    /// connection — a router session is long-lived and few in number
    /// next to the shard servers behind it).
    pub fn run(self) -> io::Result<()> {
        if self.state.recovering.load(Ordering::SeqCst) {
            // Resolve in-doubt transactions off the accept loop so STATS
            // and HELLO stay answerable (everything else gets
            // `ERR recovering` until the gate opens).
            let state = self.state.clone();
            thread::spawn(move || resolve_pending(&state));
        }
        for stream in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = self.state.clone();
            thread::spawn(move || handle_conn(&state, stream));
        }
        Ok(())
    }

    /// Bind and serve on a background thread; returns a stoppable handle.
    pub fn start(topology: Topology, config: &RouterConfig) -> io::Result<RunningRouter> {
        let router = Router::bind(topology, config)?;
        let addr = router.local_addr()?;
        let state = router.state.clone();
        let handle = thread::spawn(move || router.run());
        Ok(RunningRouter {
            addr,
            state,
            handle,
        })
    }
}

/// A router serving on a background thread.
#[derive(Debug)]
pub struct RunningRouter {
    addr: SocketAddr,
    state: Arc<RouterState>,
    handle: JoinHandle<io::Result<()>>,
}

impl RunningRouter {
    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop (existing sessions are
    /// torn down by their own I/O failing, not waited for).
    pub fn stop(self) -> io::Result<()> {
        self.state.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // unblock accept()
        self.handle.join().unwrap_or(Ok(()))
    }
}

// -------------------------------------------------------------- session

fn handle_conn(state: &RouterState, stream: TcpStream) {
    state.connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let rotation = state.rotation.fetch_add(1, Ordering::Relaxed);
    let mut dialer = Dialer::new(
        &state.topology,
        rotation,
        state.policy,
        state.fanout.clone(),
    );
    let mut sessions: HashMap<String, Prepared> = HashMap::new();
    let mut version = 1u32;
    // Session deadline (`DEADLINE <ms>`): each QUERY/EXECUTE gets this
    // budget, split across the scatter-gather rounds.
    let mut deadline_ms: Option<u64> = None;
    let mut line = String::new();
    loop {
        line.clear();
        // Cap the request line; an overlong line would desync the
        // framing, so it ends the session after an ERR.
        let mut limited = Read::take(reader.by_ref(), (MAX_LINE_BYTES + 2) as u64);
        match limited.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) if !line.ends_with('\n') && line.len() > MAX_LINE_BYTES => {
                send_err(
                    &mut writer,
                    state,
                    RouterError::new(ErrorCode::Parse, "request line too long"),
                );
                return;
            }
            Ok(_) => {}
        }
        let text = line.trim_end_matches(['\r', '\n']);
        if text.len() > MAX_LINE_BYTES {
            if !send_err(
                &mut writer,
                state,
                RouterError::new(ErrorCode::Parse, "request line too long"),
            ) {
                return;
            }
            continue;
        }
        if text.is_empty() {
            continue;
        }
        state.requests.fetch_add(1, Ordering::Relaxed);
        let request = match Request::parse(text) {
            Ok(request) => request,
            Err(e) => {
                if !send_err(&mut writer, state, RouterError::new(ErrorCode::Parse, e)) {
                    return;
                }
                continue;
            }
        };
        // In-doubt resolution gate: until every replayed two-phase
        // transaction has converged, only the session-management verbs
        // answer — queries against a half-committed cluster could
        // observe a relation on some replicas and not others.
        if state.recovering.load(Ordering::SeqCst)
            && !matches!(
                request,
                Request::Hello { .. } | Request::Stats | Request::Deadline { .. } | Request::Close
            )
        {
            if !send_err(
                &mut writer,
                state,
                RouterError::new(
                    ErrorCode::Recovering,
                    "resolving in-doubt transactions from the decision WAL; retry shortly",
                ),
            ) {
                return;
            }
            continue;
        }
        let keep_going = match request {
            Request::Hello { version: v } => {
                version = v.clamp(1, PROTOCOL_VERSION);
                send(&mut writer, state, &Response::Hello { version })
            }
            Request::Close => {
                let _ = send(&mut writer, state, &Response::Bye);
                return;
            }
            Request::More { cursor } => {
                let response = more(state, version, cursor);
                send(&mut writer, state, &response)
            }
            Request::Deadline { ms } => {
                deadline_ms = (ms > 0).then_some(ms);
                let ack = match deadline_ms {
                    Some(ms) => format!("deadline {ms}ms"),
                    None => "deadline cleared".into(),
                };
                send(&mut writer, state, &Response::Ok(ack))
            }
            Request::Load { name, source } => match load(state, &mut dialer, &name, &source) {
                Ok(msg) => send(&mut writer, state, &Response::Ok(msg)),
                Err(e) => send_err(&mut writer, state, e),
            },
            Request::Prepare { id, plan } => match prepare(state, &mut dialer, &id, &plan) {
                Ok((msg, prepared)) => {
                    sessions.insert(id, prepared);
                    send(&mut writer, state, &Response::Ok(msg))
                }
                Err(e) => send_err(&mut writer, state, e),
            },
            Request::Execute { id } => match sessions.get(&id) {
                Some(prepared) => {
                    let plan = prepared.plan.clone();
                    let deadline = start_deadline(deadline_ms);
                    match run_distributed(state, &mut dialer, &plan, deadline) {
                        Ok(run) => respond_result(&mut writer, state, version, &run),
                        Err(e) => send_err(&mut writer, state, e),
                    }
                }
                None => send_err(
                    &mut writer,
                    state,
                    RouterError::new(
                        ErrorCode::Invalid,
                        format!("unknown query id {id:?}: PREPARE it first"),
                    ),
                ),
            },
            Request::Query { plan } => {
                let deadline = start_deadline(deadline_ms);
                match run_distributed(state, &mut dialer, &plan, deadline) {
                    Ok(run) => respond_result(&mut writer, state, version, &run),
                    Err(e) => send_err(&mut writer, state, e),
                }
            }
            Request::Explain { id } => match sessions.get(&id) {
                Some(prepared) => {
                    let response = Response::Explain(prepared.explain.clone());
                    send(&mut writer, state, &response)
                }
                None => send_err(
                    &mut writer,
                    state,
                    RouterError::new(
                        ErrorCode::Invalid,
                        format!("unknown query id {id:?}: PREPARE it first"),
                    ),
                ),
            },
            Request::Stats => send_raw(&mut writer, &stats_line(state, sessions.len())),
            Request::Append { name, rows, staged } => {
                if staged {
                    send_err(
                        &mut writer,
                        state,
                        RouterError::new(
                            ErrorCode::Invalid,
                            "APPEND … STAGE is backend-only: the router stages and commits \
                             per-shard slices itself — send APPEND <name> ROWS <csv>",
                        ),
                    )
                } else {
                    match append(state, &mut dialer, &name, &rows) {
                        Ok(msg) => send(&mut writer, state, &Response::Ok(msg)),
                        Err(e) => send_err(&mut writer, state, e),
                    }
                }
            }
            Request::Delete { name, keys } => match delete(state, &mut dialer, &name, &keys) {
                Ok(msg) => send(&mut writer, state, &Response::Ok(msg)),
                Err(e) => send_err(&mut writer, state, e),
            },
            Request::Sync { .. }
            | Request::Stage { .. }
            | Request::Commit { .. }
            | Request::Abort { .. }
            | Request::StagedQuery
            | Request::Fetch { .. }
            | Request::Check { .. } => send_err(
                &mut writer,
                state,
                RouterError::new(
                    ErrorCode::Invalid,
                    "backend-only command: SYNC/STAGE/COMMIT/ABORT/STAGED?/FETCH/CHECK address \
                     one shard server, not the router",
                ),
            ),
        };
        if !keep_going {
            return;
        }
    }
}

fn send(writer: &mut TcpStream, state: &RouterState, response: &Response) -> bool {
    if let Response::Error { code, .. } = response {
        state.errors.fetch_add(1, Ordering::Relaxed);
        if *code == ErrorCode::Timeout {
            state.timeouts.fetch_add(1, Ordering::Relaxed);
        }
    }
    send_raw(writer, &response.to_string())
}

fn send_err(writer: &mut TcpStream, state: &RouterState, err: RouterError) -> bool {
    send(writer, state, &Response::err(err.code, err.message))
}

fn send_raw(writer: &mut TcpStream, line: &str) -> bool {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .is_ok()
}

// ------------------------------------------------------------ responses

/// A finished distributed execution, shaped for the response writer.
#[derive(Debug)]
struct RunResult {
    k: usize,
    micros: u64,
    cached: bool,
    result_id: Option<u64>,
    output: Arc<KsjqOutput>,
}

fn respond_result(
    writer: &mut TcpStream,
    state: &RouterState,
    version: u32,
    run: &RunResult,
) -> bool {
    if version < 2 {
        let pairs = run.output.pairs.iter().map(|&(l, r)| (l.0, r.0)).collect();
        return send(
            writer,
            state,
            &Response::Rows(RowSet {
                k: run.k,
                micros: run.micros,
                cached: run.cached,
                pairs,
            }),
        );
    }
    let parts = run.output.chunk_count(ROWS_PER_CHUNK);
    for index in 0..parts {
        let response = chunk_response(run, index, parts);
        if !send(writer, state, &response) {
            return false;
        }
    }
    true
}

/// Serialise chunk `index` of a result (0-based; `parts` total) — the
/// same framing the single-node server emits.
fn chunk_response(run: &RunResult, index: usize, parts: usize) -> Response {
    let pairs = run
        .output
        .chunk(index, ROWS_PER_CHUNK)
        .unwrap_or(&[])
        .iter()
        .map(|&(l, r)| (l.0, r.0))
        .collect();
    let part = (index + 1) as u32;
    let parts = parts as u32;
    let cursor = match run.result_id {
        Some(result) if part < parts => Some(Cursor {
            result,
            part: part + 1,
        }),
        _ => None,
    };
    Response::Chunk(RowChunk {
        k: run.k,
        micros: run.micros,
        cached: run.cached,
        total: run.output.len(),
        part,
        parts,
        cursor,
        pairs,
    })
}

/// Serve one `MORE <cursor>` page out of the router's result cache.
fn more(state: &RouterState, version: u32, cursor: Cursor) -> Response {
    if version < 2 {
        return Response::err(
            ErrorCode::Invalid,
            "MORE requires protocol v2 (send HELLO 2 first)",
        );
    }
    let Some(hit) = state.cache.by_id(cursor.result) else {
        return Response::err(
            ErrorCode::Invalid,
            format!("unknown or expired cursor {cursor} (results age out of the cache)"),
        );
    };
    let parts = hit.output.chunk_count(ROWS_PER_CHUNK);
    let index = (cursor.part - 1) as usize;
    if index >= parts {
        return Response::err(
            ErrorCode::Invalid,
            format!("cursor {cursor} is past the end ({parts} parts)"),
        );
    }
    let run = RunResult {
        k: hit.k,
        micros: 0,
        cached: true,
        result_id: Some(hit.id),
        output: hit.output,
    };
    chunk_response(&run, index, parts)
}

/// The `STATS` frame: standard counters (engine-local ones zero — the
/// router does no dominance work itself except what `merge_us` times)
/// plus per-shard `shard<i>_rows=<n>` extension tokens, which the stock
/// STATS parser skips.
fn stats_line(state: &RouterState, sessions: usize) -> String {
    let cache = state.cache.counters();
    // Catalog durability lives on the shards (`ksjq-serverd
    // --data-dir`); the router's own WAL counters describe its
    // two-phase decision log, when one is configured.
    let (wal_records, wal_segments) = {
        let log = state.decision_log.lock().unwrap_or_else(|e| e.into_inner());
        log.as_ref().map_or((0, 0), |l| (l.records(), l.seals()))
    };
    let stats = ServerStats {
        connections: state.connections.load(Ordering::Relaxed),
        requests: state.requests.load(Ordering::Relaxed),
        errors: state.errors.load(Ordering::Relaxed),
        sessions: sessions as u64,
        relations: read_lock(&state.relations).len() as u64,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_evictions: cache.evictions(),
        cache_len: state.cache.len() as u64,
        workers: 0,
        dom_tests: 0,
        attr_cmps: 0,
        domgen_us: 0,
        shed: 0,
        reaped: 0,
        peak_buf: 0,
        fanout_queries: state.fanout_queries.load(Ordering::Relaxed),
        merge_us: state.merge_us.load(Ordering::Relaxed),
        shard_retries: state.fanout.shard_retries.load(Ordering::Relaxed),
        shard_errors: state.fanout.shard_errors.load(Ordering::Relaxed),
        catalog_epoch: state.epoch.load(Ordering::Relaxed),
        // The router never maintains results itself — shards do; it
        // invalidates its merged cache on every delta.
        delta_maintained: 0,
        delta_rows: state.delta_rows.load(Ordering::Relaxed),
        timeouts: state.timeouts.load(Ordering::Relaxed),
        wal_records,
        wal_segments,
        // Worker panic isolation is a shard-server concern; the router
        // has no kernel checkpoints to inject at.
        panics: 0,
    };
    let mut out = Response::Stats(stats).to_string();
    let relations = read_lock(&state.relations);
    for s in 0..state.topology.n_shards() {
        let rows: u64 = relations.values().map(|m| m.id_maps[s].len() as u64).sum();
        out.push_str(&format!(" shard{s}_rows={rows}"));
    }
    out.push_str(&format!(
        " fetch_batch={} check_batch={} in_doubt_resolved={} recovering={}",
        state.fetch_batch,
        state.check_batch,
        state.in_doubt_resolved.load(Ordering::Relaxed),
        u64::from(state.recovering.load(Ordering::SeqCst)),
    ));
    out
}

fn read_lock(
    relations: &RwLock<HashMap<String, Arc<RelMeta>>>,
) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<RelMeta>>> {
    relations.read().unwrap_or_else(|e| e.into_inner())
}

// ----------------------------------------------------------------- load

/// A failed router operation: the stable [`ErrorCode`] its `ERR` frame
/// will carry, plus the human-readable message.
#[derive(Debug)]
struct RouterError {
    code: ErrorCode,
    message: String,
}

impl RouterError {
    fn new(code: ErrorCode, message: impl Into<String>) -> RouterError {
        RouterError {
            code,
            message: message.into(),
        }
    }
}

/// Router-side validation failures (bad plans, unknown relations,
/// partitioning errors) default to `invalid`.
impl From<String> for RouterError {
    fn from(message: String) -> RouterError {
        RouterError::new(ErrorCode::Invalid, message)
    }
}

impl From<&str> for RouterError {
    fn from(message: &str) -> RouterError {
        RouterError::new(ErrorCode::Invalid, message)
    }
}

/// Map a backend failure to the error the router's client sees: a dead
/// replica set is `unavailable`, a backend `ERR` keeps its own code
/// (`timeout` from a shard's deadline stays `timeout`), and a framing
/// violation is the router's own `internal` bug surface.
fn describe(shard: usize, e: ClientError) -> RouterError {
    match e {
        ClientError::Io(e) => RouterError::new(
            ErrorCode::Unavailable,
            format!("unavailable shard {shard}: {e}"),
        ),
        ClientError::Server { code, message } => RouterError::new(code, message),
        ClientError::Protocol(msg) => RouterError::new(
            ErrorCode::Internal,
            format!("shard {shard} protocol error: {msg}"),
        ),
    }
}

/// When a `DEADLINE` is armed, the moment this request must be done by.
fn start_deadline(deadline_ms: Option<u64>) -> Option<Instant> {
    deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}

/// The backend `DEADLINE` value for the *remaining* budget (≥ 1 so it
/// never reads as "clear"), or `ERR timeout` once the budget is spent —
/// checked at every round boundary so a request that burned its budget
/// in round 1 never starts round 2.
fn remaining_ms(deadline: Option<Instant>) -> Result<Option<u64>, RouterError> {
    let Some(d) = deadline else { return Ok(None) };
    let now = Instant::now();
    if now >= d {
        return Err(RouterError::new(
            ErrorCode::Timeout,
            "deadline exceeded before the cluster answered",
        ));
    }
    Ok(Some(((d - now).as_millis() as u64).max(1)))
}

// --------------------------------------------------- decision logging

/// A decision-WAL write failed. Fatal for `BEGIN`/`DECIDE` records
/// (proceeding unlogged would reopen the silent in-doubt window the log
/// exists to close); `OUTCOME`/`END` records are best-effort, because
/// losing one only makes post-crash resolution re-probe a replica that
/// already answered — the protocol is idempotent.
fn wal_failure(e: io::Error) -> RouterError {
    RouterError::new(
        ErrorCode::Internal,
        format!("decision WAL write failed: {e}"),
    )
}

/// Run `f` against the decision log, if one is configured. `Ok(None)`
/// for a stateless router.
fn with_log<T>(
    state: &RouterState,
    f: impl FnOnce(&mut DecisionLog) -> io::Result<T>,
) -> Result<Option<T>, RouterError> {
    let mut guard = state.decision_log.lock().unwrap_or_else(|e| e.into_inner());
    match guard.as_mut() {
        Some(log) => f(log).map(Some).map_err(wal_failure),
        None => Ok(None),
    }
}

/// Like [`with_log`], scoped to an already-begun transaction: a no-op
/// when no log is configured (`txid` is `None`).
fn with_txn(
    state: &RouterState,
    txid: Option<u64>,
    f: impl FnOnce(&mut DecisionLog, u64) -> io::Result<()>,
) -> Result<(), RouterError> {
    match txid {
        Some(txid) => with_log(state, |log| f(log, txid)).map(|_| ()),
        None => Ok(()),
    }
}

fn load(
    state: &RouterState,
    dialer: &mut Dialer,
    name: &str,
    source: &LoadSource,
) -> Result<String, RouterError> {
    if name.starts_with('.') {
        return Err("relation names starting with '.' are reserved for the router".into());
    }
    let n_shards = state.topology.n_shards();
    let part = match source {
        LoadSource::Inline { csv } => partition_csv(csv, n_shards)?,
        LoadSource::Synthetic(spec) => partition_synthetic(spec, n_shards)?,
    };
    let _guard = state.load_lock.lock().unwrap_or_else(|e| e.into_inner());
    let all_name = format!(".all.{name}");
    // The BEGIN record is durable before any backend sees a frame: if
    // the router dies anywhere past this point, a restart replays the
    // transaction and drives it to a terminal state.
    let txid = with_log(state, |l| l.begin(TxnKind::Load, name))?;
    crash_point(state);

    // Phase one: stage the slice on every replica of every shard (plus
    // the broadcast copy on shard 0). First failure aborts everywhere —
    // no shard has published anything yet, so the old binding survives.
    let mut failure: Option<RouterError> = None;
    'stage: for s in 0..n_shards {
        let sd = dialer.shard_mut(s);
        for r in 0..sd.n_replicas() {
            let slice = &part.shard_csvs[s];
            crash_point(state);
            if let Err(e) = sd.call_replica(r, |c| c.stage_csv(name, slice)) {
                failure = Some(describe(s, e));
                break 'stage;
            }
            if s == 0 {
                crash_point(state);
                if let Err(e) = sd.call_replica(r, |c| c.stage_csv(&all_name, &part.full_csv)) {
                    failure = Some(describe(s, e));
                    break 'stage;
                }
            }
        }
    }
    if let Some(e) = failure {
        // Presumed abort: replay of a decision-less transaction aborts
        // anyway, so the records here are advisory — best-effort.
        let _ = with_txn(state, txid, |l, t| l.decide(t, Decision::Abort));
        abort_everywhere(state, dialer, name, &all_name);
        let _ = with_txn(state, txid, |l, t| l.end(t));
        return Err(e);
    }

    // The commit decision is durable before the first COMMIT frame goes
    // out: from here a restarted router finishes the commit instead of
    // presuming abort.
    crash_point(state);
    with_txn(state, txid, |l, t| l.decide(t, Decision::Commit))?;
    crash_point(state);

    // Phase two: every stage parsed, so commit everywhere. A commit can
    // still fail (replica crashed between phases); that leaves the
    // cluster mixed for this name — the transaction stays open in the
    // decision log, so a router restart drives the stragglers to
    // committed (or the client re-issues the LOAD).
    let mut commit_errors: Vec<String> = Vec::new();
    for s in 0..n_shards {
        let sd = dialer.shard_mut(s);
        for r in 0..sd.n_replicas() {
            let mut ok = true;
            crash_point(state);
            if let Err(e) = sd.call_replica(r, |c| c.commit(name)) {
                commit_errors.push(describe(s, e).message);
                ok = false;
            } else if s == 0 {
                crash_point(state);
                if let Err(e) = sd.call_replica(r, |c| c.commit(&all_name)) {
                    commit_errors.push(describe(s, e).message);
                    ok = false;
                }
            }
            let _ = with_txn(state, txid, |l, t| l.outcome(t, s, r, ok));
        }
    }
    state.cache.invalidate_relation(name);
    if !commit_errors.is_empty() {
        return Err(RouterError::new(
            ErrorCode::Unavailable,
            format!(
                "load partially committed ({} of {} commits failed; re-issue the LOAD, or \
                 restart the router to resolve from its decision WAL): {}",
                commit_errors.len(),
                n_shards,
                commit_errors.join("; ")
            ),
        ));
    }
    crash_point(state);
    let _ = with_txn(state, txid, |l, t| l.end(t));
    let PartitionedLoad {
        id_maps,
        keys,
        n,
        d,
        ..
    } = part;
    state
        .relations
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name.into(), Arc::new(RelMeta { id_maps, keys }));
    state.epoch.fetch_add(1, Ordering::Relaxed);
    Ok(format!("loaded {name} n={n} d={d} shards={n_shards}"))
}

// ------------------------------------------------------------- mutation

/// Forward an `APPEND … ROWS` to the cluster: partition the delta by the
/// load-time placement function (so appended rows land on the shard that
/// already holds their join group), run the same two-phase STAGE/COMMIT
/// the loader uses, then extend the id maps in place — global ids
/// `old_n..old_n+r` distribute to shards in input order, keeping every
/// map strictly monotone.
fn append(
    state: &RouterState,
    dialer: &mut Dialer,
    name: &str,
    rows: &str,
) -> Result<String, RouterError> {
    if name.starts_with('.') {
        return Err("relation names starting with '.' are reserved for the router".into());
    }
    let n_shards = state.topology.n_shards();
    let delta = partition_delta(rows, n_shards)?;
    let _guard = state.load_lock.lock().unwrap_or_else(|e| e.into_inner());
    let old = meta(state, name)?;
    let all_name = format!(".all.{name}");
    // As with LOAD: the BEGIN record is durable before the first frame.
    let txid = with_log(state, |l| l.begin(TxnKind::Append, name))?;
    crash_point(state);

    // Phase one: stage each non-empty slice on every replica of its
    // shard, and the full delta on shard 0's broadcast copy. A failure
    // aborts everywhere — nothing committed, old versions survive.
    let mut failure: Option<RouterError> = None;
    'stage: for s in 0..n_shards {
        let sd = dialer.shard_mut(s);
        for r in 0..sd.n_replicas() {
            let slice = &delta.shard_csvs[s];
            if !slice.is_empty() {
                crash_point(state);
                if let Err(e) = sd.call_replica(r, |c| c.append_stage(name, slice)) {
                    failure = Some(describe(s, e));
                    break 'stage;
                }
            }
            if s == 0 {
                crash_point(state);
                if let Err(e) = sd.call_replica(r, |c| c.append_stage(&all_name, &delta.full_csv)) {
                    failure = Some(describe(s, e));
                    break 'stage;
                }
            }
        }
    }
    if let Some(e) = failure {
        let _ = with_txn(state, txid, |l, t| l.decide(t, Decision::Abort));
        abort_everywhere(state, dialer, name, &all_name);
        let _ = with_txn(state, txid, |l, t| l.end(t));
        return Err(e);
    }

    crash_point(state);
    with_txn(state, txid, |l, t| l.decide(t, Decision::Commit))?;
    crash_point(state);

    // Phase two: commit the staged deltas. As with LOAD, a commit can
    // still fail mid-flight; the cluster is then mixed for this name —
    // the open decision-log entry drives the stragglers to committed on
    // the next router restart (or re-issue the whole LOAD).
    let mut commit_errors: Vec<String> = Vec::new();
    for s in 0..n_shards {
        let sd = dialer.shard_mut(s);
        for r in 0..sd.n_replicas() {
            let mut ok = true;
            if !delta.shard_csvs[s].is_empty() {
                crash_point(state);
                if let Err(e) = sd.call_replica(r, |c| c.commit(name)) {
                    commit_errors.push(describe(s, e).message);
                    ok = false;
                }
            }
            if ok && s == 0 {
                crash_point(state);
                if let Err(e) = sd.call_replica(r, |c| c.commit(&all_name)) {
                    commit_errors.push(describe(s, e).message);
                    ok = false;
                }
            }
            let _ = with_txn(state, txid, |l, t| l.outcome(t, s, r, ok));
        }
    }
    state.cache.invalidate_relation(name);
    if !commit_errors.is_empty() {
        return Err(RouterError::new(
            ErrorCode::Unavailable,
            format!(
                "append partially committed ({} commits failed; re-issue the LOAD, or restart \
                 the router to resolve from its decision WAL): {}",
                commit_errors.len(),
                commit_errors.join("; ")
            ),
        ));
    }
    crash_point(state);
    let _ = with_txn(state, txid, |l, t| l.end(t));
    let mut id_maps = old.id_maps.clone();
    let mut keys = old.keys.clone();
    let old_n = keys.len();
    for (j, key) in delta.keys.iter().enumerate() {
        id_maps[shard_of(key, n_shards)].push((old_n + j) as u32);
        keys.push(key.clone());
    }
    let r = delta.keys.len();
    let n = keys.len();
    state
        .relations
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name.into(), Arc::new(RelMeta { id_maps, keys }));
    state.epoch.fetch_add(1, Ordering::Relaxed);
    state.delta_rows.fetch_add(r as u64, Ordering::Relaxed);
    Ok(format!("appended {name} +{r} rows n={n} shards={n_shards}"))
}

/// Forward a `DELETE … KEYS` to every replica of every shard plus the
/// broadcast copy, then rebuild the id maps from the surviving keys.
/// Backends drop *all* rows carrying a key and preserve survivor order,
/// so renumbering survivors by position and replaying the placement
/// function reproduces each shard's exact local order.
fn delete(
    state: &RouterState,
    dialer: &mut Dialer,
    name: &str,
    keys: &[String],
) -> Result<String, RouterError> {
    if name.starts_with('.') {
        return Err("relation names starting with '.' are reserved for the router".into());
    }
    let n_shards = state.topology.n_shards();
    let _guard = state.load_lock.lock().unwrap_or_else(|e| e.into_inner());
    let old = meta(state, name)?;
    let all_name = format!(".all.{name}");
    let mut errors: Vec<String> = Vec::new();
    for s in 0..n_shards {
        let sd = dialer.shard_mut(s);
        for r in 0..sd.n_replicas() {
            if let Err(e) = sd.call_replica(r, |c| c.delete_keys(name, keys)) {
                errors.push(describe(s, e).message);
                continue;
            }
            if s == 0 {
                if let Err(e) = sd.call_replica(r, |c| c.delete_keys(&all_name, keys)) {
                    errors.push(describe(s, e).message);
                }
            }
        }
    }
    state.cache.invalidate_relation(name);
    if !errors.is_empty() {
        return Err(RouterError::new(
            ErrorCode::Unavailable,
            format!(
                "delete partially applied ({} shards failed; re-issue the LOAD to recover): {}",
                errors.len(),
                errors.join("; ")
            ),
        ));
    }
    let dropset: HashSet<&str> = keys.iter().map(String::as_str).collect();
    let mut id_maps: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
    let mut survivors = Vec::with_capacity(old.keys.len());
    for key in old.keys.iter().filter(|k| !dropset.contains(k.as_str())) {
        id_maps[shard_of(key, n_shards)].push(survivors.len() as u32);
        survivors.push(key.clone());
    }
    let removed = old.keys.len() - survivors.len();
    let n = survivors.len();
    state
        .relations
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .insert(
            name.into(),
            Arc::new(RelMeta {
                id_maps,
                keys: survivors,
            }),
        );
    state.epoch.fetch_add(1, Ordering::Relaxed);
    Ok(format!("deleted {removed} rows from {name} n={n}"))
}

/// Best-effort `ABORT` of a failed load on every replica (idempotent on
/// the backend, so replicas that never staged answer OK too).
fn abort_everywhere(state: &RouterState, dialer: &mut Dialer, name: &str, all_name: &str) {
    for s in 0..state.topology.n_shards() {
        let sd = dialer.shard_mut(s);
        for r in 0..sd.n_replicas() {
            let _ = sd.call_replica(r, |c| c.abort(name));
            if s == 0 {
                let _ = sd.call_replica(r, |c| c.abort(all_name));
            }
        }
    }
}

// ---------------------------------------------------- in-doubt recovery

/// Drive one replayed in-doubt transaction to a terminal state.
///
/// Presumed abort: a transaction with no durable `DECIDE commit` record
/// is aborted on every replica (the backend treats an `ABORT` of
/// nothing-staged as a no-op, so this is idempotent). With a commit
/// decision, each replica is asked `STAGED?` — if the name (or shard
/// 0's broadcast copy) is still pending there, the replica gets the
/// `COMMIT` it missed; a replica that already committed reports nothing
/// staged and is left alone. Replica pairs with a durable `OUTCOME ok`
/// are skipped outright. Every call rides `call_replica`, so fault
/// plans apply to recovery traffic like any other.
fn resolve_txn(state: &RouterState, dialer: &mut Dialer, txn: &Txn) -> Result<(), RouterError> {
    let name = txn.name.as_str();
    let all_name = format!(".all.{name}");
    let commit = matches!(txn.decision, Some(Decision::Commit));
    for s in 0..state.topology.n_shards() {
        let sd = dialer.shard_mut(s);
        for r in 0..sd.n_replicas() {
            if txn.done.contains(&(s, r)) {
                continue;
            }
            if commit {
                let staged = sd
                    .call_replica(r, |c| c.staged_names())
                    .map_err(|e| describe(s, e))?;
                if staged.iter().any(|n| n == name) {
                    sd.call_replica(r, |c| c.commit(name))
                        .map_err(|e| describe(s, e))?;
                }
                if s == 0 && staged.iter().any(|n| n == &all_name) {
                    sd.call_replica(r, |c| c.commit(&all_name))
                        .map_err(|e| describe(s, e))?;
                }
            } else {
                sd.call_replica(r, |c| c.abort(name))
                    .map_err(|e| describe(s, e))?;
                if s == 0 {
                    sd.call_replica(r, |c| c.abort(&all_name))
                        .map_err(|e| describe(s, e))?;
                }
            }
        }
    }
    Ok(())
}

/// The restart-time resolution loop: retry every in-doubt transaction
/// with backoff until all have converged, then open the recovering
/// gate. Runs on its own thread so `HELLO` / `STATS` stay answerable
/// while shards come back up.
fn resolve_pending(state: &RouterState) {
    let mut dialer = Dialer::new(&state.topology, 0, state.policy, state.fanout.clone());
    let mut backoff = Duration::from_millis(100);
    loop {
        let pending = std::mem::take(&mut *state.pending.lock().unwrap_or_else(|e| e.into_inner()));
        let mut unresolved = Vec::new();
        for txn in pending {
            match resolve_txn(state, &mut dialer, &txn) {
                Ok(()) => {
                    let _ = with_txn(state, Some(txn.txid), |l, t| l.end(t));
                    state.in_doubt_resolved.fetch_add(1, Ordering::Relaxed);
                    let verdict = match txn.decision {
                        Some(Decision::Commit) => "committed everywhere",
                        Some(Decision::Abort) => "aborted everywhere",
                        None => "aborted everywhere (no durable decision)",
                    };
                    println!(
                        "ksjq-routerd: resolved in-doubt {} {:?} (txid {}): {verdict}",
                        txn.kind, txn.name, txn.txid
                    );
                }
                Err(e) => {
                    eprintln!(
                        "ksjq-routerd: in-doubt {} {:?} (txid {}) unresolved: {}",
                        txn.kind, txn.name, txn.txid, e.message
                    );
                    unresolved.push(txn);
                }
            }
        }
        if unresolved.is_empty() {
            state.recovering.store(false, Ordering::SeqCst);
            println!("ksjq-routerd: in-doubt resolution complete; accepting traffic");
            return;
        }
        *state.pending.lock().unwrap_or_else(|e| e.into_inner()) = unresolved;
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_secs(5));
    }
}

// -------------------------------------------------------------- queries

fn meta(state: &RouterState, name: &str) -> Result<Arc<RelMeta>, RouterError> {
    read_lock(&state.relations)
        .get(name)
        .cloned()
        .ok_or_else(|| format!("unknown relation {name:?} (LOAD it through this router)").into())
}

/// The plan, retargeted at the shard-0 broadcast copies.
fn rewrite_all(state: &RouterState, plan: &PlanSpec) -> Result<PlanSpec, RouterError> {
    meta(state, &plan.left)?;
    meta(state, &plan.right)?;
    let mut rewritten = plan.clone();
    rewritten.left = format!(".all.{}", plan.left);
    rewritten.right = format!(".all.{}", plan.right);
    Ok(rewritten)
}

fn prepare(
    state: &RouterState,
    dialer: &mut Dialer,
    id: &str,
    plan: &PlanSpec,
) -> Result<(String, Prepared), RouterError> {
    let rewritten = rewrite_all(state, plan)?;
    // Validate against the broadcast copy and capture the plan summary
    // in the same breath (same connection, so the id resolves).
    let (msg, explain) = dialer
        .shard_mut(0)
        .call(|c| {
            let msg = c.prepare(id, &rewritten)?;
            let explain = c.explain(id)?;
            Ok((msg, explain))
        })
        .map_err(|e| describe(0, e))?;
    let explain = format!(
        "distributed shards={} {}",
        state.topology.n_shards(),
        explain
    );
    Ok((
        msg,
        Prepared {
            plan: plan.clone(),
            explain,
        },
    ))
}

/// Run every shard of `shards` through `f` concurrently, each on its own
/// dialer, and collect the results in `shards` order.
fn fan_out<T: Send>(
    dialer: &mut Dialer,
    shards: &[usize],
    f: impl Fn(&mut ShardDialer, usize) -> Result<T, RouterError> + Sync,
) -> Result<Vec<T>, RouterError> {
    let dialers = dialer.subset_mut(shards);
    let mut slots: Vec<Option<Result<T, RouterError>>> =
        std::iter::repeat_with(|| None).take(shards.len()).collect();
    thread::scope(|scope| {
        for (i, (sd, slot)) in dialers.into_iter().zip(slots.iter_mut()).enumerate() {
            let f = &f;
            scope.spawn(move || *slot = Some(f(sd, i)));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("scoped thread fills its slot"))
        .collect()
}

fn run_distributed(
    state: &RouterState,
    dialer: &mut Dialer,
    plan: &PlanSpec,
    deadline: Option<Instant>,
) -> Result<RunResult, RouterError> {
    let key = Request::Query { plan: plan.clone() }.to_string();
    if let Some(hit) = state.cache.get(&key) {
        return Ok(RunResult {
            k: hit.k,
            micros: 0,
            cached: true,
            result_id: Some(hit.id),
            output: hit.output,
        });
    }
    let t0 = Instant::now();
    state.fanout_queries.fetch_add(1, Ordering::Relaxed);
    let (k, pairs) = match plan.goal {
        // Find-k goals resolve k from *global* skyline cardinalities, so
        // they run whole on the shard-0 broadcast copies (already in
        // global row ids).
        Goal::AtLeast(..) | Goal::AtMost(..) => {
            let rewritten = rewrite_all(state, plan)?;
            let rem = remaining_ms(deadline)?;
            let rows = dialer
                .shard_mut(0)
                .call(|c| {
                    c.set_deadline(rem.unwrap_or(0))?;
                    c.query(&rewritten)
                })
                .map_err(|e| describe(0, e))?;
            (rows.k, rows.pairs)
        }
        Goal::Exact(_) | Goal::SkylineJoin => {
            let lmeta = meta(state, &plan.left)?;
            let rmeta = meta(state, &plan.right)?;
            let participating: Vec<usize> = (0..state.topology.n_shards())
                .filter(|&s| !lmeta.id_maps[s].is_empty() && !rmeta.id_maps[s].is_empty())
                .collect();
            if participating.is_empty() {
                // No shard holds both sides: the join is empty, but the
                // broadcast copy still computes the right k (and the
                // right error for an invalid one).
                let rewritten = rewrite_all(state, plan)?;
                let rem = remaining_ms(deadline)?;
                let rows = dialer
                    .shard_mut(0)
                    .call(|c| {
                        c.set_deadline(rem.unwrap_or(0))?;
                        c.query(&rewritten)
                    })
                    .map_err(|e| describe(0, e))?;
                (rows.k, rows.pairs)
            } else {
                // Round 1: local k-dominant skylines, in parallel. Each
                // shard gets the budget left *now*; anything it spends
                // comes off round 2's share.
                let rem = remaining_ms(deadline)?;
                let local = fan_out(dialer, &participating, |sd, _| {
                    sd.call(|c| {
                        c.set_deadline(rem.unwrap_or(0))?;
                        c.query(plan)
                    })
                    .map_err(|e| describe(sd.shard(), e))
                })?;
                let k = local[0].k;
                debug_assert!(local.iter().all(|r| r.k == k), "k is schema-determined");
                let survivors: Vec<Vec<(u32, u32)>> = if participating.len() == 1 {
                    vec![local[0].pairs.clone()]
                } else {
                    verify_candidates(
                        dialer,
                        &participating,
                        plan,
                        k,
                        &local,
                        state.fetch_batch,
                        state.check_batch,
                        deadline,
                    )?
                };
                // Remap to global ids and merge — the deterministic step
                // `merge_us` times.
                let tm = Instant::now();
                let lists = survivors
                    .iter()
                    .zip(&participating)
                    .map(|(pairs, &s)| {
                        pairs
                            .iter()
                            .map(|&(u, v)| {
                                (lmeta.id_maps[s][u as usize], rmeta.id_maps[s][v as usize])
                            })
                            .collect()
                    })
                    .collect();
                let merged = merge_sorted(lists);
                state
                    .merge_us
                    .fetch_add(tm.elapsed().as_micros() as u64, Ordering::Relaxed);
                (k, merged)
            }
        }
    };
    let output = Arc::new(KsjqOutput {
        pairs: pairs
            .into_iter()
            .map(|(u, v)| (TupleId(u), TupleId(v)))
            .collect(),
        stats: ExecStats::default(),
    });
    let result_id = state.cache.insert(
        key,
        output.clone(),
        k,
        vec![plan.left.clone(), plan.right.clone()],
        None,
    );
    Ok(RunResult {
        k,
        micros: t0.elapsed().as_micros() as u64,
        cached: false,
        result_id,
        output,
    })
}

/// Round 2 of scatter-gather: cross-shard verification of the local
/// skyline candidates.
///
/// A candidate pair is in the *global* answer iff no joined tuple
/// anywhere k-dominates it. Its own shard already established that for
/// the tuples it holds (that is what a local skyline is); every other
/// participating shard holds the rest, checked here against the
/// candidate's legs. Returns the surviving pairs per shard, in
/// `participating` order, each still sorted.
///
/// The deadline budget is recomputed before every backend frame, so a
/// budget that runs out between frames ends the query with `ERR timeout`
/// instead of granting each later frame the full budget again.
#[allow(clippy::too_many_arguments)]
fn verify_candidates(
    dialer: &mut Dialer,
    participating: &[usize],
    plan: &PlanSpec,
    k: usize,
    local: &[RowSet],
    fetch_batch: usize,
    check_batch: usize,
    deadline: Option<Instant>,
) -> Result<Vec<Vec<(u32, u32)>>, RouterError> {
    // Phase a: every shard ships its own candidates as legs (`FETCH`),
    // batched and in parallel. No `FETCH` line can outgrow the cap: a
    // pair token is at most `MAX_PAIR_TOKEN` bytes.
    const MAX_PAIR_TOKEN: usize = "4294967295:4294967295;".len();
    let fetch_head = Request::Fetch {
        left: plan.left.clone(),
        right: plan.right.clone(),
        aggs: plan.aggs.clone(),
        pairs: Vec::new(),
    }
    .to_string()
    .len();
    let fetch_batch = fetch_batch.min((MAX_LINE_BYTES - fetch_head) / MAX_PAIR_TOKEN);
    let legs: Vec<LegSet> = fan_out(dialer, participating, |sd, i| {
        let mut legs = LegSet::default();
        for batch in local[i].pairs.chunks(fetch_batch) {
            let rem = remaining_ms(deadline)?;
            let got = sd
                .call(|c| {
                    c.set_deadline(rem.unwrap_or(0))?;
                    c.fetch(&plan.left, &plan.right, &plan.aggs, batch)
                })
                .map_err(|e| describe(sd.shard(), e))?;
            if got.pairs.len() != batch.len() || !got.indices_valid() {
                return Err(RouterError::new(
                    ErrorCode::Internal,
                    format!(
                        "shard {} answered a {}-pair FETCH with a malformed leg set ({} pairs)",
                        sd.shard(),
                        batch.len(),
                        got.pairs.len()
                    ),
                ));
            }
            let (lo, ro) = (legs.left.len() as u32, legs.right.len() as u32);
            legs.pairs
                .extend(got.pairs.iter().map(|&(u, v)| (u + lo, v + ro)));
            legs.left.extend(got.left);
            legs.right.extend(got.right);
        }
        Ok(legs)
    })?;

    // Phase b: every shard t checks every *other* shard's candidates
    // (`CHECK`), in parallel over t. Each source's frames are cut once
    // and sent to every other shard. dominated[t][s] holds one bit per
    // candidate of shard index s (empty when s == t).
    let check_head = Request::Check {
        left: plan.left.clone(),
        right: plan.right.clone(),
        aggs: plan.aggs.clone(),
        k,
        legs: LegSet::default(),
    }
    .to_string()
    .len();
    let frames: Vec<Vec<LegFrame>> = legs
        .iter()
        .map(|l| leg_frames(l, check_batch, MAX_LINE_BYTES - check_head))
        .collect();
    let dominated: Vec<Vec<Vec<bool>>> = fan_out(dialer, participating, |sd, t| {
        let mut per_source = Vec::with_capacity(frames.len());
        for (s, source) in frames.iter().enumerate() {
            if s == t {
                per_source.push(Vec::new());
                continue;
            }
            let mut bits = vec![false; legs[s].pairs.len()];
            for frame in source {
                let rem = remaining_ms(deadline)?;
                let got = sd
                    .call(|c| {
                        c.set_deadline(rem.unwrap_or(0))?;
                        c.check(&plan.left, &plan.right, &plan.aggs, k, &frame.legs)
                    })
                    .map_err(|e| describe(sd.shard(), e))?;
                if got.len() != frame.at.len() {
                    return Err(RouterError::new(
                        ErrorCode::Internal,
                        format!(
                            "shard {} returned {} bits for a {}-pair CHECK",
                            sd.shard(),
                            got.len(),
                            frame.at.len()
                        ),
                    ));
                }
                for (&at, bit) in frame.at.iter().zip(got) {
                    bits[at as usize] = bit;
                }
            }
            per_source.push(bits);
        }
        Ok(per_source)
    })?;

    // A candidate survives iff no other shard dominated it.
    Ok(local
        .iter()
        .enumerate()
        .map(|(s, rows)| {
            rows.pairs
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| {
                    dominated
                        .iter()
                        .enumerate()
                        .all(|(t, per_source)| t == s || !per_source[s][i])
                })
                .map(|(_, pair)| pair)
                .collect()
        })
        .collect())
}

/// One self-contained round-2 `CHECK` frame: the legs its pairs use,
/// re-indexed, and each pair's position in the source's candidate list.
#[derive(Debug, Default)]
struct LegFrame {
    legs: LegSet,
    at: Vec<u32>,
}

/// Decimal digits of `x`: the length of its wire token.
fn digits(x: u32) -> usize {
    x.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Cut `legs`' pairs into self-contained `CHECK` frames, in right-leg
/// order (ties keep candidate order). A frame holds at most `max_pairs`
/// pairs and only the legs they use, re-indexed in first-use order, and
/// its ` L … R … P …` sections encode to at most `budget` bytes. The
/// length is measured from each leg's wire token ([`leg_token`]), never
/// estimated: `f64`'s `Display` can print 300+ digits. A pair whose
/// legs alone overflow `budget` still gets a frame of its own.
fn leg_frames(legs: &LegSet, max_pairs: usize, budget: usize) -> Vec<LegFrame> {
    let ltok: Vec<usize> = legs.left.iter().map(|l| leg_token(l).len()).collect();
    let rtok: Vec<usize> = legs.right.iter().map(|l| leg_token(l).len()).collect();
    let mut order: Vec<u32> = (0..legs.pairs.len() as u32).collect();
    order.sort_by_key(|&p| legs.pairs[p as usize].1);
    // Source leg → its index in the frame being built (u32::MAX: absent).
    let mut lmap = vec![u32::MAX; legs.left.len()];
    let mut rmap = vec![u32::MAX; legs.right.len()];
    // A section's bytes: 3 for " X " before its first item, then 1 per
    // separator.
    let sep = |n: usize| if n == 0 { 3 } else { 1 };
    let mut frames = Vec::new();
    let mut frame = LegFrame::default();
    let mut bytes = 0;
    for p in order {
        let (i, j) = legs.pairs[p as usize];
        let (i, j) = (i as usize, j as usize);
        // The bytes the pair adds to `f`: the legs `f` lacks, and its
        // own token (leg indices as they will be numbered in `f`).
        let cost = |f: &LegFrame, lmap: &[u32], rmap: &[u32]| {
            let (nl, nr) = (f.legs.left.len(), f.legs.right.len());
            let (li, lnew) = match lmap[i] {
                u32::MAX => (nl as u32, sep(nl) + ltok[i]),
                li => (li, 0),
            };
            let (rj, rnew) = match rmap[j] {
                u32::MAX => (nr as u32, sep(nr) + rtok[j]),
                rj => (rj, 0),
            };
            lnew + rnew + sep(f.at.len()) + digits(li) + 1 + digits(rj)
        };
        let mut c = cost(&frame, &lmap, &rmap);
        if !frame.at.is_empty() && (frame.at.len() == max_pairs || bytes + c > budget) {
            lmap.fill(u32::MAX);
            rmap.fill(u32::MAX);
            frames.push(std::mem::take(&mut frame));
            bytes = 0;
            c = cost(&frame, &lmap, &rmap);
        }
        if lmap[i] == u32::MAX {
            lmap[i] = frame.legs.left.len() as u32;
            frame.legs.left.push(legs.left[i].clone());
        }
        if rmap[j] == u32::MAX {
            rmap[j] = frame.legs.right.len() as u32;
            frame.legs.right.push(legs.right[j].clone());
        }
        frame.legs.pairs.push((lmap[i], rmap[j]));
        frame.at.push(p);
        bytes += c;
    }
    if !frame.at.is_empty() {
        frames.push(frame);
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoded length of a `CHECK`'s leg sections: the whole line
    /// minus the same line with no legs.
    fn sections_len(legs: &LegSet) -> usize {
        let check = |legs: LegSet| {
            Request::Check {
                left: "a".into(),
                right: "b".into(),
                aggs: Vec::new(),
                k: 5,
                legs,
            }
            .to_string()
            .len()
        };
        check(legs.clone()) - check(LegSet::default())
    }

    /// A deterministic leg set: `n_left`/`n_right` legs of 3 values
    /// (times `scale`), `n_pairs` pairs with right legs out of order.
    fn sample(n_left: u32, n_right: u32, n_pairs: u32, scale: f64) -> LegSet {
        let leg = |i: u32| vec![i as f64 * scale, 0.5 + i as f64, -(i as f64) / 3.0];
        LegSet {
            left: (0..n_left).map(leg).collect(),
            right: (0..n_right).map(|j| leg(j + 1000)).collect(),
            pairs: (0..n_pairs)
                .map(|p| ((p * 7) % n_left, (p * 13 + p / 5) % n_right))
                .collect(),
        }
    }

    /// Every structural promise of `leg_frames`, checked by decoding the
    /// frames back to the source's legs.
    fn assert_frames(legs: &LegSet, frames: &[LegFrame], max_pairs: usize, budget: usize) {
        let mut seen = Vec::new();
        for f in frames {
            assert!(
                !f.at.is_empty() && f.at.len() <= max_pairs,
                "{} pairs",
                f.at.len()
            );
            assert_eq!(f.at.len(), f.legs.pairs.len());
            if f.at.len() > 1 {
                assert!(
                    sections_len(&f.legs) <= budget,
                    "{} > {budget}",
                    sections_len(&f.legs)
                );
            }
            let mut used_l = vec![false; f.legs.left.len()];
            let mut used_r = vec![false; f.legs.right.len()];
            for (&p, &(i, j)) in f.at.iter().zip(&f.legs.pairs) {
                let (si, sj) = legs.pairs[p as usize];
                assert_eq!(f.legs.left[i as usize], legs.left[si as usize]);
                assert_eq!(f.legs.right[j as usize], legs.right[sj as usize]);
                used_l[i as usize] = true;
                used_r[j as usize] = true;
                seen.push(p);
            }
            // Exactly the referenced legs: all used, none twice.
            assert!(used_l.iter().chain(&used_r).all(|&u| u), "unused legs");
            let distinct = |side: fn(&(u32, u32)) -> u32| {
                let mut ids: Vec<u32> =
                    f.at.iter()
                        .map(|&p| side(&legs.pairs[p as usize]))
                        .collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len()
            };
            assert_eq!(f.legs.left.len(), distinct(|p| p.0));
            assert_eq!(f.legs.right.len(), distinct(|p| p.1));
        }
        // Every pair exactly once, in right-leg order, ties in
        // candidate order.
        let mut expected: Vec<u32> = (0..legs.pairs.len() as u32).collect();
        expected.sort_by_key(|&p| legs.pairs[p as usize].1);
        assert_eq!(seen, expected);
    }

    #[test]
    fn frames_cover_every_pair_once_in_right_leg_order() {
        let legs = sample(40, 30, 500, 1.0);
        for (max_pairs, budget) in [(16_384, 1 << 20), (7, 1 << 20), (1, 1 << 20), (1000, 900)] {
            let frames = leg_frames(&legs, max_pairs, budget);
            assert_frames(&legs, &frames, max_pairs, budget);
        }
        assert_eq!(leg_frames(&legs, 16_384, 1 << 20).len(), 1);
        assert_eq!(leg_frames(&legs, 7, 1 << 20).len(), 500usize.div_ceil(7));
        assert!(leg_frames(&LegSet::default(), 5, 100).is_empty());
    }

    #[test]
    fn byte_budget_is_measured_exactly() {
        let legs = sample(25, 25, 200, 1.0);
        let whole = sections_len(&leg_frames(&legs, usize::MAX, usize::MAX)[0].legs);
        // A budget of exactly one frame's length keeps one frame; one
        // byte less must split it.
        assert_eq!(leg_frames(&legs, usize::MAX, whole).len(), 1);
        let split = leg_frames(&legs, usize::MAX, whole - 1);
        assert!(split.len() > 1);
        assert_frames(&legs, &split, usize::MAX, whole - 1);
    }

    #[test]
    fn huge_values_still_fit() {
        // 1e300-magnitude values print as 300+ digits each.
        let legs = sample(6, 5, 40, 1e300);
        assert!(leg_token(&legs.left[1]).len() > 300);
        let one = LegSet {
            left: vec![legs.left[5].clone()],
            right: vec![legs.right[4].clone()],
            pairs: vec![(0, 0)],
        };
        let budget = sections_len(&one);
        let frames = leg_frames(&legs, usize::MAX, budget);
        assert_frames(&legs, &frames, usize::MAX, budget);
        for f in &frames {
            assert!(sections_len(&f.legs) <= budget);
        }
        let frames = leg_frames(&legs, 16_384, MAX_LINE_BYTES);
        assert_eq!(frames.len(), 1);
    }
}
