//! The TCP server: a readiness-polled connection front end over a fixed
//! worker pool sharing one [`Engine`].
//!
//! Connection handling and query execution are split. The front end is a
//! single thread running a `poll(2)` loop (std-only — no async runtime;
//! on Linux the real syscall via FFI, elsewhere a sleep-tick fallback)
//! over a non-blocking listener plus every live connection. It owns all
//! socket I/O: incremental frame reassembly ([`FrameBuffer`]), response
//! serialisation, and flow control. Complete requests are dispatched onto
//! `--workers` compute threads through an mpsc channel; finished results
//! come back on a completion channel and are written out by the front
//! end. Thousands of idle connections therefore cost a pollfd each, not a
//! thread each, while at most `workers` queries execute concurrently.
//!
//! All workers share:
//!
//! * the [`Engine`] — and through it the catalog — so `LOAD`ed relations
//!   are visible to every connection;
//! * a named [`PreparedQuery`] session map behind an `RwLock`, so one
//!   connection can `PREPARE` a query and another can `EXECUTE` it;
//! * the [`ResultCache`], keyed by normalised plan fingerprint with
//!   per-relation invalidation on catalog registration.
//!
//! Results travel back to v2 sessions as bounded `ROWS … part=i/m`
//! chunks. The front end formats the next chunk only after the previous
//! one has fully drained into the socket, so a slow reader holds at most
//! one serialised chunk of server memory however large the result (the
//! `peak_buf` gauge in `STATS` is the measured high-water mark). v1
//! sessions still get the whole result as one frame.
//!
//! Admission control:
//!
//! * `max_conns` — connections beyond the cap are answered `ERR busy`
//!   and closed at accept time (counted in `shed`);
//! * `max_inflight` — per-connection bound on parsed-but-unserved
//!   requests; past it the front end stops reading the socket, so a
//!   pipelining client is throttled by TCP backpressure and responses
//!   keep arriving in request order;
//! * `idle_timeout` / `stall_timeout` — a quiet connection with no
//!   partial frame is reaped after `idle_timeout`; one that stopped
//!   *mid-frame* (slow loris) after the shorter `stall_timeout`. Both
//!   deadlines run from the last byte received, not the last poll tick,
//!   and never fire while a response is being computed or streamed;
//! * `max_catalog_cells` — cumulative `n·d` budget across all `LOAD`ed
//!   relations, on top of the per-request `MAX_SYNTHETIC_CELLS` cap.
//!
//! Shutdown is graceful: [`ServerHandle::shutdown`] flips a flag and pokes
//! the listener awake; the poll loop drops the listener and live
//! connections, closes the job channel, and joins the workers.
//!
//! Nothing a peer sends can panic the server: requests parse into typed
//! [`Request`]s or an `ERR` frame, execution errors become `ERR` frames,
//! oversized lines are discarded as they arrive and answered with an
//! error, and worker panics are caught per-job.

use crate::cache::ResultCache;
use crate::durability::{self, Wal};
use crate::faults::{FaultAction, FaultPlan, FaultStream};
use crate::frame::{Frame, FrameBuffer};
use crate::protocol::{
    Cursor, ErrorCode, LoadSource, PlanSpec, ProtoResult, Request, Response, RowChunk, RowSet,
    ServerStats, MAX_LINE_BYTES, PROTOCOL_VERSION, ROWS_PER_CHUNK,
};
use ksjq_core::{CoreError, CoreResult, Engine, Goal, KsjqOutput, PreparedQuery};
use ksjq_relation::VersionedRelation;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Upper bound on `n · d` of one `LOAD … SYNTHETIC` request, so a single
/// wire command cannot make the server allocate arbitrarily much.
const MAX_SYNTHETIC_CELLS: usize = 50_000_000;

/// Upper bound on relations held in the `STAGE`d (parsed but uncommitted)
/// map, so an abandoning client cannot park unbounded memory there. Each
/// staged relation is further bounded by the request-line cap.
const MAX_STAGED: usize = 64;

/// Server knobs, matching the `ksjq-serverd` flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (= maximum queries executing concurrently).
    pub workers: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Maximum concurrently open connections; excess connects are
    /// answered `ERR busy` and closed (`--max-conns`).
    pub max_conns: usize,
    /// Per-connection cap on parsed-but-unserved requests before the
    /// server stops reading that socket (`--max-inflight`).
    pub max_inflight: usize,
    /// Reap a connection idle between requests for this long
    /// (`--idle-timeout`).
    pub idle_timeout: Duration,
    /// Reap a connection stalled *mid-frame* for this long — the
    /// slow-loris deadline, deliberately shorter than `idle_timeout`.
    pub stall_timeout: Duration,
    /// Cumulative `n·d` cell budget across every relation in the
    /// catalog; a `LOAD` that would exceed it is rejected.
    pub max_catalog_cells: usize,
    /// Durable catalog directory (`--data-dir`). When set, every catalog
    /// mutation is WAL-logged (fsynced before its `OK`) and replayed on
    /// restart; when `None` the catalog is memory-only, as before.
    pub data_dir: Option<PathBuf>,
    /// Rotate the active WAL into a sealed segment once it exceeds this
    /// many bytes (`--wal-max-bytes`), folding sealed history into the
    /// snapshot whenever nothing is staged. `None` keeps the pre-rotation
    /// behaviour: one growing log, compacted only at startup.
    pub wal_max_bytes: Option<u64>,
    /// Server-wide ceiling on per-query execution time
    /// (`--query-timeout`); combined with any per-session `DEADLINE` by
    /// taking the tighter of the two. `None` means no server-side cap.
    pub query_timeout: Option<Duration>,
    /// Deterministic transport fault injection applied to accepted
    /// connections (`--faults` / `KSJQ_FAULTS`); `None` injects nothing.
    pub faults: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            cache_entries: 128,
            max_conns: 2048,
            max_inflight: 32,
            idle_timeout: Duration::from_secs(300),
            stall_timeout: Duration::from_secs(30),
            max_catalog_cells: 500_000_000,
            data_dir: None,
            wal_max_bytes: None,
            query_timeout: None,
            faults: None,
        }
    }
}

/// One named prepared query in the shared session map.
#[derive(Debug, Clone)]
struct Session {
    prepared: Arc<PreparedQuery>,
    fingerprint: String,
    /// Relation names the plan references (cache invalidation scope).
    relations: Vec<String>,
    /// The producing plan, cached alongside the result so an `APPEND`
    /// can upgrade the entry through the incremental maintainer.
    plan: PlanSpec,
}

impl Session {
    fn new(prepared: PreparedQuery, plan: &PlanSpec) -> Session {
        Session {
            prepared: Arc::new(prepared),
            fingerprint: plan.fingerprint(),
            relations: vec![plan.left.clone(), plan.right.clone()],
            plan: plan.clone(),
        }
    }
}

/// A parsed-but-unapplied `APPEND … STAGE` delta — the two-phase half of
/// a router's distributed append. Keys are already encoded through the
/// catalog's shared dictionary (append-only, so stage-time encoding
/// stays valid at `COMMIT`); rows are raw (denormalised) values.
#[derive(Debug)]
struct StagedDelta {
    keys: Vec<u64>,
    rows: Vec<Vec<f64>>,
}

/// State shared by the front end and every worker.
#[derive(Debug)]
struct Shared {
    engine: Engine,
    sessions: RwLock<HashMap<String, Session>>,
    cache: ResultCache,
    config: ServerConfig,
    /// Cumulative `n·d` over the catalog, maintained under this lock by
    /// `LOAD` (which is rare and already serialised by the catalog's own
    /// registration locking).
    catalog_cells: Mutex<usize>,
    /// Relations parsed by `STAGE` and awaiting `COMMIT`/`ABORT` — the
    /// held half of the router's two-phase catalog update. Keyed by the
    /// name the data will commit under.
    staged: Mutex<HashMap<String, ksjq_relation::Relation>>,
    /// Deltas parsed by `APPEND … STAGE` and awaiting `COMMIT`/`ABORT`,
    /// keyed by the relation they extend.
    staged_deltas: Mutex<HashMap<String, StagedDelta>>,
    /// Per-relation versioned chains behind the live bindings, so
    /// consecutive `APPEND`s share unchanged column blocks (COW).
    /// Entries are lazily (re)built whenever the chain's snapshot is no
    /// longer the bound relation (a `LOAD`/`COMMIT` replaced it).
    live: Mutex<HashMap<String, VersionedRelation>>,
    /// The write-ahead log behind `--data-dir`; `None` when the catalog
    /// is memory-only. Appended to *inside* the mutation handlers while
    /// they hold `catalog_cells`, so log order is apply order.
    wal: Mutex<Option<Wal>>,
    /// While set, every request except `STATS`/`HELLO`/`CLOSE` is
    /// answered `ERR recovering` — a replica refuses to serve reads
    /// until its catalog sync verified the primary's epoch.
    recovering: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Verification-kernel work summed over every non-cached execution:
    /// joined-tuple dominance tests and attribute comparisons (see
    /// `ksjq_core::Counts`). Surfaced through `STATS` so kernel speedups
    /// are visible over the wire.
    dom_tests: AtomicU64,
    attr_cmps: AtomicU64,
    /// Cumulative dominator-generation wall-clock (µs) across non-cached
    /// executions — non-zero only for dominator-based plans, where it is
    /// the `O(n²)` phase the parallel sharding targets.
    domgen_us: AtomicU64,
    /// Bumped on every catalog registration; guards against caching a
    /// result computed against a catalog that changed mid-execution, and
    /// reported through `SYNC`/`STATS` so replicas can detect staleness.
    catalog_epoch: AtomicU64,
    /// Cached results upgraded in place by the incremental maintainer.
    delta_maintained: AtomicU64,
    /// Rows appended via `APPEND` since startup.
    delta_rows: AtomicU64,
    shed: AtomicU64,
    reaped: AtomicU64,
    /// High-water mark of any connection's pending outbound buffer.
    peak_buf: AtomicU64,
    /// Queries cancelled at their deadline (`DEADLINE` / `--query-timeout`).
    timeouts: AtomicU64,
    /// WAL records appended since startup (0 when memory-only).
    wal_records: AtomicU64,
    /// WAL rotations since startup: active-log seals driven by
    /// `--wal-max-bytes`.
    wal_segments: AtomicU64,
    /// Worker panics caught by the pool (each cost its request an
    /// `ERR internal`, never a worker thread).
    panics: AtomicU64,
    /// Seeded decision stream for the `panic=` execution fault; `None`
    /// when the configured fault plan has no panic rate.
    exec_faults: Mutex<Option<FaultStream>>,
    shutdown: AtomicBool,
}

/// Synthetic connection id keying the `panic=` execution-fault stream, so
/// its decisions decorrelate from every real connection's transport
/// stream under the same seed.
const EXEC_FAULT_CONN: u64 = u64::MAX;

/// A bound, not-yet-running KSJQ server. [`run`](Server::run) blocks;
/// [`start`](Server::start) is the spawn-in-background convenience.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Cloneable trigger for graceful shutdown.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Ask the server to stop: the poll loop drops the listener and all
    /// live connections, and workers exit once the job queue drains.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Poke the poll loop awake so it observes the flag. A wildcard
        // bind address (0.0.0.0 / ::) is not connectable on every
        // platform, so fall back to loopback on the same port.
        if TcpStream::connect(self.addr).is_err() && self.addr.ip().is_unspecified() {
            let loopback: std::net::IpAddr = if self.addr.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            };
            let _ = TcpStream::connect((loopback, self.addr.port()));
        }
    }

    /// Gate (or re-open) the server behind `ERR recovering`: while set,
    /// every request except `STATS`/`HELLO`/`CLOSE` is refused, so a
    /// replica mid-sync can never serve a stale or half-copied catalog.
    pub fn set_recovering(&self, recovering: bool) {
        self.shared.recovering.store(recovering, Ordering::SeqCst);
    }

    /// Tell the server its catalog changed *out of band* — a replica
    /// resync writes relations straight through the shared [`Engine`],
    /// bypassing the wire handlers that normally keep the epoch, the
    /// result cache and the versioned chains in step. Call it after any
    /// such direct catalog surgery.
    pub fn catalog_updated(&self) {
        self.shared
            .live
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.shared.catalog_epoch.fetch_add(1, Ordering::SeqCst);
        self.shared.cache.clear();
    }
}

/// A server running on a background thread, for tests, examples and
/// harness `--serve` mode.
#[derive(Debug)]
pub struct RunningServer {
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// A shutdown trigger usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Shut down gracefully and wait for the poll loop and workers.
    pub fn stop(self) -> io::Result<()> {
        self.handle.shutdown();
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("server thread panicked")))
    }
}

impl Server {
    /// Bind to `config.addr` serving `engine`'s catalog.
    pub fn bind(engine: Engine, config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        // Cells already in the catalog (preloaded before serving) count
        // against the budget.
        let preloaded: usize = {
            let catalog = engine.catalog();
            catalog
                .names()
                .iter()
                .filter_map(|name| catalog.get(name))
                .map(|h| h.n().saturating_mul(h.schema().d()))
                .sum()
        };
        let mut config = config.clone();
        config.workers = config.workers.max(1);
        config.max_conns = config.max_conns.max(1);
        config.max_inflight = config.max_inflight.max(1);
        let data_dir = config.data_dir.clone();
        let exec_faults = config
            .faults
            .filter(|plan| plan.panic_pm > 0)
            .map(|plan| plan.stream(EXEC_FAULT_CONN));
        let shared = Arc::new(Shared {
            engine,
            sessions: RwLock::new(HashMap::new()),
            cache: ResultCache::new(config.cache_entries),
            catalog_cells: Mutex::new(preloaded),
            staged: Mutex::new(HashMap::new()),
            staged_deltas: Mutex::new(HashMap::new()),
            live: Mutex::new(HashMap::new()),
            wal: Mutex::new(None),
            recovering: AtomicBool::new(false),
            config,
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            dom_tests: AtomicU64::new(0),
            attr_cmps: AtomicU64::new(0),
            domgen_us: AtomicU64::new(0),
            catalog_epoch: AtomicU64::new(0),
            delta_maintained: AtomicU64::new(0),
            delta_rows: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            peak_buf: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
            wal_segments: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            exec_faults: Mutex::new(exec_faults),
            shutdown: AtomicBool::new(false),
        });
        if let Some(dir) = data_dir {
            recover_catalog(&shared, &dir)?;
        }
        Ok(Server { listener, shared })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown trigger for this server.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            shared: self.shared.clone(),
            addr: self.local_addr()?,
        })
    }

    /// Bind and run on a background thread.
    pub fn start(engine: Engine, config: &ServerConfig) -> io::Result<RunningServer> {
        let server = Server::bind(engine, config)?;
        let handle = server.handle()?;
        let thread = thread::Builder::new()
            .name("ksjq-front".into())
            .spawn(move || server.run())?;
        Ok(RunningServer { handle, thread })
    }

    /// Serve until [`ServerHandle::shutdown`] is called. Blocks, running
    /// the poll loop on the calling thread.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<(u64, Outcome)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers: Vec<JoinHandle<()>> = (0..self.shared.config.workers)
            .map(|i| {
                let shared = self.shared.clone();
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                thread::Builder::new()
                    .name(format!("ksjq-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &job_rx, &done_tx))
                    .expect("spawning a worker thread")
            })
            .collect();
        drop(done_tx);
        let mut front = FrontEnd::new(&self.shared, job_tx);
        front.poll_loop(&self.listener, &done_rx);
        // Dropping the front end closes the job channel; workers drain
        // what is queued and exit.
        drop(front);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

// --------------------------------------------------------- worker pool

/// One dispatched request: which connection asked, speaking which
/// protocol version (pinned at dispatch, since the front end applies
/// `HELLO` switches strictly in request order).
#[derive(Debug)]
struct Job {
    conn: u64,
    version: u32,
    request: Request,
    /// Cooperative-cancellation deadline: the tighter of the session's
    /// `DEADLINE` and the server's `--query-timeout`, anchored at
    /// dispatch time.
    deadline: Option<Instant>,
}

/// What a worker hands back to the front end.
#[derive(Debug)]
enum Outcome {
    /// A complete single-frame response, ready to serialise.
    Frame(Response),
    /// A v2 result to be streamed as chunks by the front end.
    Result(RunOutput),
}

/// A computed (or cache-served) query result before serialisation.
#[derive(Debug, Clone)]
struct RunOutput {
    k: usize,
    micros: u64,
    cached: bool,
    /// Cache id when the result is cursor-addressable via `MORE`.
    result_id: Option<u64>,
    output: Arc<KsjqOutput>,
}

fn worker_loop(
    shared: &Shared,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    done: &mpsc::Sender<(u64, Outcome)>,
) {
    loop {
        // Hold the lock only while receiving: the next idle worker picks
        // up the next job.
        let job = jobs.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(job) = job else {
            return; // channel closed: shutdown
        };
        // A panic must cost one request, not silently shrink the pool.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(shared, job.version, job.request, job.deadline)
        }))
        .unwrap_or_else(|_| {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            Outcome::Frame(Response::err(ErrorCode::Internal, "internal error"))
        });
        if done.send((job.conn, outcome)).is_err() {
            return; // front end gone: shutdown
        }
    }
}

// ----------------------------------------------------------- poll(2)

/// Minimal `poll(2)` binding. std already links libc, so the symbol is
/// available without any new dependency.
#[cfg(target_os = "linux")]
mod readiness {
    use std::os::fd::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// `struct pollfd` (see `poll(2)`).
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int) -> i32;
    }

    /// Wait up to `timeout_ms` for readiness on `fds`.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) {
        // A negative return is EINTR or a transient error: treated as a
        // timeout tick (revents are zeroed by the kernel on entry only
        // when it writes them, so clear defensively).
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if rc < 0 {
            for fd in fds {
                fd.revents = 0;
            }
        }
    }
}

/// Portable fallback: a short sleep, then report every descriptor ready.
/// Non-blocking sockets make spurious readiness harmless (reads return
/// `WouldBlock`), at the cost of a coarse tick instead of true wakeups.
#[cfg(not(target_os = "linux"))]
mod readiness {
    use std::os::fd::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) {
        std::thread::sleep(std::time::Duration::from_millis(
            (timeout_ms.max(0) as u64).min(5),
        ));
        for fd in fds {
            fd.revents = fd.events & (POLLIN | POLLOUT);
        }
    }
}

// ---------------------------------------------------------- front end

/// Ordered per-connection work: everything a received frame becomes.
/// Inline items (`Reply`, `Hello`, `Bye`) and dispatched requests live in
/// one queue so responses always leave in request order.
#[derive(Debug)]
enum Work {
    /// Run on the worker pool.
    Run(Request),
    /// Answer inline (parse errors, oversized-line errors).
    Reply(Response),
    /// Switch protocol version, then acknowledge.
    Hello(u32),
    /// Set (or with 0, clear) the session's per-request deadline, then
    /// acknowledge. Applied in queue order, so it governs exactly the
    /// requests that follow it.
    Deadline(u64),
    /// Acknowledge with `BYE` and close once flushed.
    Bye,
}

/// A result mid-stream to a v2 connection: the next chunk is formatted
/// only when the previous one has fully drained (the backpressure
/// invariant — one in-flight chunk per connection).
#[derive(Debug)]
struct StreamState {
    run: RunOutput,
    /// 0-based index of the next chunk to format.
    next: usize,
    parts: usize,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    work: VecDeque<Work>,
    /// A `Work::Run` is at the workers; nothing else is served until its
    /// outcome returns.
    inflight: bool,
    /// Negotiated protocol version (1 until `HELLO`).
    version: u32,
    out: Vec<u8>,
    out_pos: usize,
    streaming: Option<StreamState>,
    /// Last byte received — the reaping deadlines run from here.
    last_recv: Instant,
    /// Peer half-closed (EOF): serve what is queued, then drop.
    eof: bool,
    /// `BYE` queued: drop once flushed.
    closing: bool,
    /// Per-session query budget set by `DEADLINE <ms>` (`None` = unset).
    deadline_ms: Option<u64>,
    /// Seeded fault decisions for this connection (`--faults`).
    faults: Option<FaultStream>,
}

impl Conn {
    fn new(stream: TcpStream, faults: Option<FaultStream>) -> Conn {
        Conn {
            stream,
            frames: FrameBuffer::new(),
            work: VecDeque::new(),
            inflight: false,
            version: 1,
            out: Vec::new(),
            out_pos: 0,
            streaming: None,
            last_recv: Instant::now(),
            eof: false,
            closing: false,
            deadline_ms: None,
            faults,
        }
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Append one serialised frame to the outbound buffer.
    fn enqueue_line(&mut self, line: &str, shared: &Shared) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        shared
            .peak_buf
            .fetch_max(self.out_pending() as u64, Ordering::Relaxed);
    }

    fn enqueue_response(&mut self, response: &Response, shared: &Shared) {
        if matches!(response, Response::Error { .. }) {
            shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.enqueue_line(&response.to_string(), shared);
    }

    /// Flush as much outbound as the socket accepts. `Ok(true)` when
    /// fully drained, `Err` when the connection is dead.
    fn flush(&mut self) -> io::Result<bool> {
        // Chaos hook: a faulted connection may stall, truncate its
        // pending frame (torn write), corrupt a byte, or drop outright —
        // once per flush call, so healthy flushes stay one branch.
        if let Some(faults) = &mut self.faults {
            if self.out_pos < self.out.len() {
                match faults.on_write() {
                    FaultAction::Drop => return Err(io::ErrorKind::ConnectionReset.into()),
                    FaultAction::Partial => {
                        let cut = faults.cut_point(self.out.len() - self.out_pos);
                        let _ = self
                            .stream
                            .write(&self.out[self.out_pos..self.out_pos + cut]);
                        return Err(io::ErrorKind::ConnectionReset.into());
                    }
                    FaultAction::None => {}
                }
                faults.maybe_flip(&mut self.out[self.out_pos..]);
            }
        }
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }

    /// Is this connection doing anything (computing, streaming, queued
    /// work, or unflushed output)? Engaged connections are never reaped.
    fn engaged(&self) -> bool {
        self.inflight || self.streaming.is_some() || !self.work.is_empty() || self.out_pending() > 0
    }

    /// Should the poll loop watch this socket for readability? Not while
    /// the in-flight quota is filled (TCP backpressure throttles the
    /// pipelining peer) and not after EOF/`CLOSE`.
    fn wants_read(&self, max_inflight: usize) -> bool {
        !self.eof && !self.closing && self.work.len() < max_inflight
    }

    fn wants_write(&self) -> bool {
        self.out_pending() > 0 || (self.streaming.is_some() && self.out_pending() == 0)
    }
}

struct FrontEnd<'a> {
    shared: &'a Shared,
    job_tx: mpsc::Sender<Job>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl std::fmt::Debug for FrontEnd<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontEnd")
            .field("conns", &self.conns.len())
            .finish_non_exhaustive()
    }
}

impl<'a> FrontEnd<'a> {
    fn new(shared: &'a Shared, job_tx: mpsc::Sender<Job>) -> FrontEnd<'a> {
        FrontEnd {
            shared,
            job_tx,
            conns: HashMap::new(),
            next_token: 0,
        }
    }

    fn poll_loop(&mut self, listener: &TcpListener, done_rx: &mpsc::Receiver<(u64, Outcome)>) {
        use readiness::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
        use std::os::fd::AsRawFd;
        let max_inflight = self.shared.config.max_inflight;
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Register: slot 0 is the listener, then one slot per conn.
            let mut fds = Vec::with_capacity(self.conns.len() + 1);
            fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            let mut tokens = Vec::with_capacity(self.conns.len());
            let mut any_inflight = false;
            for (&token, conn) in &self.conns {
                let mut events = 0;
                if conn.wants_read(max_inflight) {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                any_inflight |= conn.inflight;
                tokens.push(token);
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
            }
            // Completions arrive on a channel the poll cannot watch, so
            // tighten the tick while any worker owes us an outcome.
            let timeout_ms = if any_inflight { 1 } else { 20 };
            readiness::wait(&mut fds, timeout_ms);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if fds[0].revents & POLLIN != 0 {
                self.accept_all(listener);
            }
            let mut dead: Vec<u64> = Vec::new();
            for (slot, token) in tokens.iter().enumerate() {
                let revents = fds[slot + 1].revents;
                if revents == 0 {
                    continue;
                }
                let alive = self.service(*token, revents & (POLLIN | POLLERR | POLLHUP) != 0);
                if !alive {
                    dead.push(*token);
                }
            }
            for token in dead {
                self.conns.remove(&token);
            }
            // Apply finished work.
            while let Ok((token, outcome)) = done_rx.try_recv() {
                self.apply_outcome(token, outcome);
            }
            self.reap();
        }
    }

    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if self.conns.len() >= self.shared.config.max_conns {
                        // Polite shed: tell the peer why before closing.
                        // The socket buffer of a fresh connection always
                        // has room for one short line.
                        let mut stream = stream;
                        let _ = stream.write_all(b"ERR busy\n");
                        self.shared.shed.fetch_add(1, Ordering::Relaxed);
                        self.shared.errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Lockstep one-line exchanges: Nagle only adds latency.
                    let _ = stream.set_nodelay(true);
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    self.next_token += 1;
                    let faults = self
                        .shared
                        .config
                        .faults
                        .filter(|plan| plan.is_active())
                        .map(|plan| plan.stream(self.next_token));
                    self.conns
                        .insert(self.next_token, Conn::new(stream, faults));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // transient accept error
            }
        }
    }

    /// Handle readiness on one connection. Returns false when it is dead.
    fn service(&mut self, token: u64, readable: bool) -> bool {
        if readable && !self.read_ready(token) {
            return false;
        }
        self.pump(token)
    }

    /// Drain the socket into the frame buffer and the frame buffer into
    /// the work queue. Returns false when the connection is dead.
    fn read_ready(&mut self, token: u64) -> bool {
        let max_inflight = self.shared.config.max_inflight;
        let mut buf = [0u8; 8192];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if !conn.wants_read(max_inflight) {
                return true;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    return true; // serve what is queued, then drop
                }
                Ok(n) => {
                    if let Some(faults) = &mut conn.faults {
                        if faults.on_read() == FaultAction::Drop {
                            return false;
                        }
                        faults.maybe_flip(&mut buf[..n]);
                    }
                    conn.last_recv = Instant::now();
                    conn.frames.push(&buf[..n]);
                    self.drain_frames(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Turn every complete frame into a work item.
    fn drain_frames(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while let Some(frame) = conn.frames.next_frame() {
            self.shared.requests.fetch_add(1, Ordering::Relaxed);
            let work = match frame {
                Frame::Oversized => Work::Reply(Response::err(
                    ErrorCode::Parse,
                    format!("line exceeds {MAX_LINE_BYTES} bytes"),
                )),
                Frame::Line(line) => match Request::parse(&line) {
                    Ok(Request::Hello { version }) => Work::Hello(version),
                    Ok(Request::Deadline { ms }) => Work::Deadline(ms),
                    Ok(Request::Close) => Work::Bye,
                    Ok(request) => Work::Run(request),
                    Err(message) => Work::Reply(Response::err(ErrorCode::Parse, message)),
                },
            };
            conn.work.push_back(work);
        }
    }

    /// Advance one connection as far as it can go: flush output, emit
    /// stream chunks, serve queued work in order. Returns false when the
    /// connection is finished or dead.
    fn pump(&mut self, token: u64) -> bool {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            match conn.flush() {
                Err(_) => return false,
                Ok(false) => return true, // wait for POLLOUT
                Ok(true) => {}
            }
            // Previous chunk fully drained: format the next one. This is
            // the only place chunks are serialised, so a connection never
            // holds more than one in its outbound buffer.
            if let Some(streaming) = &mut conn.streaming {
                let chunk = chunk_response(&streaming.run, streaming.next, streaming.parts);
                streaming.next += 1;
                let finished = streaming.next >= streaming.parts;
                if finished {
                    conn.streaming = None;
                }
                conn.enqueue_response(&chunk, self.shared);
                continue;
            }
            if conn.inflight {
                return true; // a worker owes us the next response
            }
            let Some(work) = conn.work.pop_front() else {
                // Fully drained. A half-closed or CLOSEd peer is done.
                return !(conn.eof || conn.closing);
            };
            match work {
                Work::Reply(response) => conn.enqueue_response(&response, self.shared),
                Work::Hello(requested) => {
                    conn.version = requested.clamp(1, PROTOCOL_VERSION);
                    let version = conn.version;
                    conn.enqueue_response(&Response::Hello { version }, self.shared);
                }
                Work::Deadline(ms) => {
                    conn.deadline_ms = (ms > 0).then_some(ms);
                    let ack = if ms > 0 {
                        Response::Ok(format!("deadline {ms}ms"))
                    } else {
                        Response::Ok("deadline cleared".into())
                    };
                    conn.enqueue_response(&ack, self.shared);
                }
                Work::Bye => {
                    conn.closing = true;
                    conn.enqueue_response(&Response::Bye, self.shared);
                }
                Work::Run(Request::More { cursor }) => {
                    // Paging is a cache lookup — served inline, no worker
                    // round-trip.
                    let version = conn.version;
                    let response = more(self.shared, version, cursor);
                    conn.enqueue_response(&response, self.shared);
                }
                Work::Run(request) => {
                    // The job's deadline is the tighter of the session's
                    // DEADLINE and the server-wide --query-timeout,
                    // anchored when the request leaves the queue.
                    let budget = match (conn.deadline_ms, self.shared.config.query_timeout) {
                        (Some(ms), Some(cap)) => Some(Duration::from_millis(ms).min(cap)),
                        (Some(ms), None) => Some(Duration::from_millis(ms)),
                        (None, cap) => cap,
                    };
                    let job = Job {
                        conn: token,
                        version: conn.version,
                        request,
                        deadline: budget.map(|b| Instant::now() + b),
                    };
                    conn.inflight = true;
                    if self.job_tx.send(job).is_err() {
                        return false; // workers gone: shutting down
                    }
                    return true;
                }
            }
        }
    }

    /// A worker finished `token`'s dispatched request.
    fn apply_outcome(&mut self, token: u64, outcome: Outcome) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // connection died while computing
        };
        conn.inflight = false;
        match outcome {
            Outcome::Frame(response) => conn.enqueue_response(&response, self.shared),
            Outcome::Result(run) => {
                let parts = run.output.chunk_count(ROWS_PER_CHUNK);
                conn.streaming = Some(StreamState {
                    run,
                    next: 0,
                    parts,
                });
            }
        }
        if !self.pump(token) {
            self.conns.remove(&token);
        }
    }

    /// Close connections that went quiet: mid-frame stalls after
    /// `stall_timeout` (slow loris), idle ones after `idle_timeout`.
    /// Deadlines run from the last byte received — poll ticks do not
    /// renew them — and engaged connections are exempt.
    fn reap(&mut self) {
        let config = &self.shared.config;
        let now = Instant::now();
        let mut reaped = 0u64;
        self.conns.retain(|_, conn| {
            if conn.engaged() || conn.eof {
                return true;
            }
            let deadline = if conn.frames.has_partial() {
                config.stall_timeout
            } else {
                config.idle_timeout
            };
            let keep = now.duration_since(conn.last_recv) < deadline;
            if !keep {
                reaped += 1;
            }
            keep
        });
        if reaped > 0 {
            self.shared.reaped.fetch_add(reaped, Ordering::Relaxed);
        }
    }
}

/// Serialise chunk `index` of a result (0-based; `parts` total).
fn chunk_response(run: &RunOutput, index: usize, parts: usize) -> Response {
    let pairs = run
        .output
        .chunk(index, ROWS_PER_CHUNK)
        .unwrap_or(&[])
        .iter()
        .map(|&(l, r)| (l.0, r.0))
        .collect();
    let part = (index + 1) as u32;
    let parts = parts as u32;
    // Non-final frames of a cache-addressable result carry the cursor
    // where MORE can resume.
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

// ------------------------------------------------------------- dispatch

fn handle_request(
    shared: &Shared,
    version: u32,
    request: Request,
    deadline: Option<Instant>,
) -> Outcome {
    // A recovering server (replica mid-sync) serves nothing that could
    // leak a stale or half-copied catalog.
    if shared.recovering.load(Ordering::SeqCst) {
        match request {
            Request::Stats | Request::Hello { .. } | Request::Close | Request::Deadline { .. } => {}
            _ => {
                return Outcome::Frame(Response::err(
                    ErrorCode::Recovering,
                    "catalog sync in progress",
                ))
            }
        }
    }
    // The canonical wire line of a catalog mutation doubles as its WAL
    // payload — formatted before the request is consumed.
    let wire = match &request {
        Request::Load { .. }
        | Request::Stage { .. }
        | Request::Commit { .. }
        | Request::Abort { .. }
        | Request::Append { .. }
        | Request::Delete { .. } => Some(request.to_string()),
        _ => None,
    };
    let wire = wire.as_deref();
    let is_mutation = wire.is_some();
    let outcome = match request {
        Request::Load { name, source } => Outcome::Frame(load(shared, &name, source, wire)),
        Request::Prepare { id, plan } => Outcome::Frame(prepare(shared, id, &plan)),
        Request::Execute { id } => match lookup(shared, &id) {
            Some(session) => run_outcome(shared, version, &session, deadline),
            None => Outcome::Frame(Response::err(
                ErrorCode::Invalid,
                format!("unknown query id {id:?}: PREPARE it first"),
            )),
        },
        Request::Query { plan } => match shared.engine.prepare(&plan.to_plan()) {
            Ok(prepared) => run_outcome(shared, version, &Session::new(prepared, &plan), deadline),
            Err(e) => Outcome::Frame(Response::err(ErrorCode::Invalid, e.to_string())),
        },
        Request::Explain { id } => Outcome::Frame(explain(shared, &id)),
        Request::Stats => Outcome::Frame(Response::Stats(stats(shared))),
        Request::Sync { name } => Outcome::Frame(sync(shared, name.as_deref())),
        Request::Stage { name, csv } => Outcome::Frame(stage(shared, &name, &csv, wire)),
        Request::Commit { name } => Outcome::Frame(commit(shared, &name, wire)),
        Request::Abort { name } => Outcome::Frame(abort(shared, &name, wire)),
        Request::StagedQuery => Outcome::Frame(staged_query(shared)),
        Request::Append { name, rows, staged } => {
            Outcome::Frame(append(shared, &name, &rows, staged, wire))
        }
        Request::Delete { name, keys } => Outcome::Frame(delete(shared, &name, &keys, wire)),
        Request::Fetch {
            left,
            right,
            aggs,
            pairs,
        } => Outcome::Frame(fetch(shared, &left, &right, &aggs, &pairs)),
        Request::Check {
            left,
            right,
            aggs,
            k,
            rows,
        } => Outcome::Frame(check(shared, &left, &right, &aggs, k, &rows)),
        // HELLO / MORE / CLOSE / DEADLINE are served by the front end,
        // never dispatched; answering them here keeps the match total.
        Request::Hello { version } => {
            let version = version.clamp(1, PROTOCOL_VERSION);
            Outcome::Frame(Response::Hello { version })
        }
        Request::More { cursor } => Outcome::Frame(more(shared, version, cursor)),
        Request::Deadline { ms } => Outcome::Frame(Response::Ok(format!("deadline {ms}ms"))),
        Request::Close => Outcome::Frame(Response::Bye),
    };
    // Rotation runs after the handler released every lock: `stage`
    // appends to the WAL while holding the staged map, so sealing from
    // inside a handler would invert the lock order.
    if is_mutation {
        maybe_rotate(shared);
    }
    outcome
}

/// `STAGED?`: every name with a pending staged relation or delta — the
/// probe a recovering router sends to decide whether an in-doubt
/// transaction's `COMMIT` still has anything to commit here. Taken under
/// the mutation lock so the answer is a consistent cut, never half of a
/// concurrent two-phase exchange.
fn staged_query(shared: &Shared) -> Response {
    let _cells = shared
        .catalog_cells
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let mut names: Vec<String> = shared
        .staged
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .keys()
        .cloned()
        .collect();
    names.extend(
        shared
            .staged_deltas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned(),
    );
    names.sort_unstable();
    names.dedup();
    Response::Staged { names }
}

/// Seal the active WAL into a segment once it exceeds `--wal-max-bytes`;
/// when nothing is staged, immediately fold all sealed history into the
/// snapshot (live compaction) so segments never pile up on a quiescent
/// two-phase state. With a transaction mid-flight (something staged) the
/// seal still bounds the active log, but compaction waits: the snapshot
/// captures only *committed* state, and folding a logged `STAGE` away
/// before its `COMMIT` lands would break replay.
///
/// Rotation failures are logged and swallowed — the mutation that
/// triggered rotation is already durable in the (possibly oversized)
/// log, so skipping a rotation never loses data.
fn maybe_rotate(shared: &Shared) {
    let Some(limit) = shared.config.wal_max_bytes else {
        return;
    };
    // Lock order: catalog_cells → staged/staged_deltas → wal.
    let _cells = shared
        .catalog_cells
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let quiescent = shared
        .staged
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .is_empty()
        && shared
            .staged_deltas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty();
    let mut guard = shared.wal.lock().unwrap_or_else(|e| e.into_inner());
    let Some(wal) = guard.as_mut() else {
        return;
    };
    if wal.active_bytes() <= limit {
        return;
    }
    match wal.seal() {
        Ok(true) => {
            shared.wal_segments.fetch_add(1, Ordering::Relaxed);
        }
        Ok(false) => return,
        Err(e) => {
            eprintln!("ksjq-server: WAL seal failed (rotation skipped): {e}");
            return;
        }
    }
    if !quiescent {
        return;
    }
    let Some(dir) = shared.config.data_dir.as_ref() else {
        return;
    };
    let lines = match snapshot_lines(shared) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("ksjq-server: WAL compaction skipped (snapshot failed): {e}");
            return;
        }
    };
    let last_seq = wal.next_seq().saturating_sub(1);
    let epoch = shared.catalog_epoch.load(Ordering::SeqCst);
    match durability::compact(dir, &lines, last_seq, epoch) {
        Ok(fresh) => {
            *wal = fresh;
        }
        Err(e) => {
            // Sealed segments stay on disk; recovery still replays them.
            eprintln!("ksjq-server: WAL compaction failed (segments kept): {e}");
        }
    }
}

/// Serve one `MORE <cursor>` page out of the result cache.
fn more(shared: &Shared, version: u32, cursor: Cursor) -> Response {
    if shared.recovering.load(Ordering::SeqCst) {
        return Response::err(ErrorCode::Recovering, "catalog sync in progress");
    }
    if version < 2 {
        return Response::err(
            ErrorCode::Invalid,
            "MORE requires protocol v2 (send HELLO 2 first)",
        );
    }
    let Some(hit) = shared.cache.by_id(cursor.result) else {
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
    let run = RunOutput {
        k: hit.k,
        micros: 0,
        cached: true,
        result_id: Some(hit.id),
        output: hit.output,
    };
    chunk_response(&run, index, parts)
}

// ----------------------------------------------------- durable catalog

/// Rebuild the committed catalog from `dir` (snapshot + WAL replay),
/// then compact and leave the WAL open for the mutation handlers.
///
/// Replay re-runs each logged wire line through the *same* handler that
/// applied it originally (`shared.wal` is still `None`, so nothing is
/// re-logged), which is what makes the recovered catalog byte-identical
/// to the pre-crash committed state. Whatever is still staged after
/// replay was never committed — clearing it is exactly the `ABORT` the
/// coordinating router would have issued.
fn recover_catalog(shared: &Arc<Shared>, dir: &std::path::Path) -> io::Result<()> {
    let recovery = durability::recover(dir)?;
    for record in &recovery.records {
        let line = std::str::from_utf8(&record.payload)
            .map_err(|_| io::Error::other(format!("WAL record {} is not UTF-8", record.seq)))?;
        replay_mutation(shared, line)
            .map_err(|e| io::Error::other(format!("WAL record {} ({line:?}): {e}", record.seq)))?;
    }
    shared
        .staged
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    shared
        .staged_deltas
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    // Replay bumped the epoch per mutation from 0; restore the durable
    // counter (compaction collapses history, so it cannot be re-derived).
    shared
        .catalog_epoch
        .store(recovery.last_epoch, Ordering::SeqCst);
    let lines = snapshot_lines(shared)?;
    let wal = durability::compact(dir, &lines, recovery.last_seq, recovery.last_epoch)?;
    *shared.wal.lock().unwrap_or_else(|e| e.into_inner()) = Some(wal);
    Ok(())
}

/// Apply one logged wire line through the ordinary mutation handlers.
fn replay_mutation(shared: &Shared, line: &str) -> Result<(), String> {
    let response = match Request::parse(line)? {
        Request::Load { name, source } => load(shared, &name, source, None),
        Request::Stage { name, csv } => stage(shared, &name, &csv, None),
        Request::Commit { name } => commit(shared, &name, None),
        Request::Abort { name } => abort(shared, &name, None),
        Request::Append { name, rows, staged } => append(shared, &name, &rows, staged, None),
        Request::Delete { name, keys } => delete(shared, &name, &keys, None),
        other => return Err(format!("non-mutation request in WAL: {other}")),
    };
    match response {
        Response::Error { code, message } => Err(format!("replay failed ({code}): {message}")),
        _ => Ok(()),
    }
}

/// Export the committed catalog as one canonical `LOAD … INLINE` wire
/// line per relation (sorted by name, keys decoded through the shared
/// dictionary) — the snapshot format *is* the replay format.
fn snapshot_lines(shared: &Shared) -> io::Result<Vec<String>> {
    let catalog = shared.engine.catalog();
    let mut names = catalog.names();
    names.sort();
    let mut lines = Vec::with_capacity(names.len());
    for name in names {
        let Some(handle) = catalog.get(&name) else {
            continue;
        };
        let csv = ksjq_datagen::relation_to_annotated_csv_with(handle.relation(), "key", |gid| {
            catalog.decode_key(gid)
        })
        .map_err(|e| io::Error::other(format!("cannot snapshot {name:?}: {e}")))?;
        lines.push(
            Request::Load {
                name,
                source: LoadSource::Inline { csv },
            }
            .to_string(),
        );
    }
    Ok(lines)
}

/// Make one applied mutation durable. Called by the mutation handlers at
/// their success point, *while still holding* the `catalog_cells` lock,
/// so WAL order is exactly apply order. `wire` is `None` during replay
/// (and for callers without a durable line); the record is fsynced
/// before this returns, so the caller's `OK` implies durability.
///
/// A log failure after the in-memory apply is reported as `ERR internal`
/// — the mutation is visible but not durable, and the message says so;
/// the client must treat the state as uncertain (like a lost `OK`).
fn log_mutation(shared: &Shared, wire: Option<&str>) -> Result<(), Box<Response>> {
    let Some(line) = wire else {
        return Ok(());
    };
    let mut wal = shared.wal.lock().unwrap_or_else(|e| e.into_inner());
    let Some(wal) = wal.as_mut() else {
        return Ok(());
    };
    let epoch = shared.catalog_epoch.load(Ordering::SeqCst);
    match wal.append(epoch, line.as_bytes()) {
        Ok(_) => {
            shared.wal_records.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        Err(e) => Err(Box::new(Response::err(
            ErrorCode::Internal,
            format!("mutation applied but not durable (WAL append failed: {e})"),
        ))),
    }
}

fn load(shared: &Shared, name: &str, source: LoadSource, wire: Option<&str>) -> Response {
    // The cells budget is checked-and-updated under one lock so two
    // concurrent LOADs cannot both squeeze under it. LOAD is rare; the
    // serialisation is invisible next to CSV parsing or generation.
    let mut cells = shared
        .catalog_cells
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let replaced = shared
        .engine
        .catalog()
        .get(name)
        .map(|h| h.n().saturating_mul(h.schema().d()))
        .unwrap_or(0);
    let catalog = shared.engine.catalog();
    // LOAD is an upsert. The replacement is parsed (or generated) and
    // budget-checked first, then published with one atomic rebind, so a
    // malformed or over-budget re-LOAD leaves the previous binding
    // untouched and a concurrent QUERY never finds the name missing.
    let parsed = match source {
        LoadSource::Inline { csv } => catalog.parse_csv(&csv).map_err(|e| e.to_string()),
        LoadSource::Synthetic(spec) => {
            if spec.n.saturating_mul(spec.d) > MAX_SYNTHETIC_CELLS {
                return Response::err(
                    ErrorCode::Invalid,
                    format!("synthetic relation too large: n·d must stay ≤ {MAX_SYNTHETIC_CELLS}"),
                );
            }
            reencode_keys(catalog, spec.dataset_spec().generate())
        }
    };
    let rel = match parsed {
        Ok(rel) => rel,
        Err(message) => return Response::err(ErrorCode::Parse, message),
    };
    let (n, d) = (rel.n(), rel.schema().d());
    let budget = shared.config.max_catalog_cells;
    let after = cells
        .saturating_sub(replaced)
        .saturating_add(n.saturating_mul(d));
    if after > budget {
        return Response::err(
            ErrorCode::Invalid,
            format!("catalog cell budget exceeded: {after} > {budget} ({name:?} unchanged)"),
        );
    }
    if let Err(e) = catalog.replace(name, Arc::new(rel)) {
        return Response::err(ErrorCode::Parse, e.to_string());
    }
    *cells = after;
    // Catalog changed under this name: only results whose plans
    // reference it can be stale, so only those are evicted. The
    // versioned chain (if any) is derived from the old binding and
    // rebuilds lazily on the next APPEND.
    drop_live(shared, name);
    shared.catalog_epoch.fetch_add(1, Ordering::SeqCst);
    shared.cache.invalidate_relation(name);
    if let Err(e) = log_mutation(shared, wire) {
        return *e;
    }
    Response::Ok(format!("loaded {name} n={n} d={d}"))
}

/// Re-encode a generated relation's numeric group ids through the
/// catalog's shared key dictionary (as their decimal strings), so every
/// relation the server loads — synthetic or `INLINE` CSV — lives in one
/// group-id domain. Without this, a synthetic relation's generator ids
/// and a CSV relation's dictionary ids could collide numerically and an
/// equality join across them would match unrelated keys by coincidence;
/// with it, such a join correctly matches only equal key *strings*.
/// Re-numbering is a bijection on each relation's keys, so join results
/// against in-process execution are unchanged.
fn reencode_keys(
    catalog: &ksjq_relation::Catalog,
    rel: ksjq_relation::Relation,
) -> ProtoResult<ksjq_relation::Relation> {
    // Memoise per distinct gid (the group count, not the tuple count):
    // one dictionary-lock round and one string allocation per *group*,
    // not per tuple — relations can carry millions of tuples over a
    // handful of groups.
    let mut encoded: HashMap<u64, u64> = HashMap::new();
    let mut b = ksjq_relation::Relation::builder(rel.schema().clone()).with_capacity(rel.n());
    for (t, _) in rel.rows() {
        let gid = rel
            .group_id(t)
            .ok_or("synthetic relations always carry group keys")?;
        let key = *encoded
            .entry(gid)
            .or_insert_with(|| catalog.encode_key(&gid.to_string()));
        b.add_grouped(key, &rel.raw_row(t))
            .map_err(|e| e.to_string())?;
    }
    b.build().map_err(|e| e.to_string())
}

fn prepare(shared: &Shared, id: String, plan: &PlanSpec) -> Response {
    match shared.engine.prepare(&plan.to_plan()) {
        Ok(prepared) => {
            let k = prepared.k();
            shared
                .sessions
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .insert(id.clone(), Session::new(prepared, plan));
            Response::Ok(format!("prepared {id} k={k}"))
        }
        Err(e) => Response::err(ErrorCode::Invalid, e.to_string()),
    }
}

fn lookup(shared: &Shared, id: &str) -> Option<Session> {
    shared
        .sessions
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .get(id)
        .cloned()
}

/// Execute (or cache-serve) a session's query, shaped for the session's
/// protocol version: v1 gets the whole result as one `ROWS` frame, v2
/// gets a streamable [`RunOutput`].
fn run_outcome(
    shared: &Shared,
    version: u32,
    session: &Session,
    deadline: Option<Instant>,
) -> Outcome {
    match run_session(shared, session, deadline) {
        Err(CoreError::DeadlineExceeded) => {
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
            Outcome::Frame(Response::err(
                ErrorCode::Timeout,
                CoreError::DeadlineExceeded.to_string(),
            ))
        }
        Err(e) => Outcome::Frame(Response::err(ErrorCode::Invalid, e.to_string())),
        Ok(run) if version >= 2 => Outcome::Result(run),
        Ok(run) => Outcome::Frame(Response::Rows(RowSet {
            k: run.k,
            micros: run.micros,
            cached: run.cached,
            pairs: run.output.pairs.iter().map(|&(l, r)| (l.0, r.0)).collect(),
        })),
    }
}

fn run_session(
    shared: &Shared,
    session: &Session,
    deadline: Option<Instant>,
) -> CoreResult<RunOutput> {
    if let Some(hit) = shared.cache.get(&session.fingerprint) {
        return Ok(RunOutput {
            k: hit.k,
            micros: 0,
            cached: true,
            result_id: Some(hit.id),
            output: hit.output,
        });
    }
    let k = session.prepared.k();
    let epoch = shared.catalog_epoch.load(Ordering::SeqCst);
    // Roll the `panic=` execution fault: arm an injected panic a few
    // kernel checkpoints into this execution. If it fires, unwinding
    // lands in the worker pool's `catch_unwind` (the firing chaos point
    // disarms itself); if the query finishes first, disarm explicitly so
    // nothing leaks into this worker's next request.
    let armed = {
        let mut stream = shared.exec_faults.lock().unwrap_or_else(|e| e.into_inner());
        match stream.as_mut() {
            Some(s) => {
                if s.roll_panic() {
                    Some(s.panic_after())
                } else {
                    None
                }
            }
            None => None,
        }
    };
    if let Some(points) = armed {
        // Process-wide, not thread-local: the kernels tick their chaos
        // points from scoped worker threads, and the panic unwinds back
        // through the scope join into this worker's `catch_unwind`.
        ksjq_core::arm_panic_after_process(points);
    }
    let started = Instant::now();
    let executed = session.prepared.execute_within(deadline);
    if armed.is_some() {
        ksjq_core::disarm_panic_process();
    }
    let output = executed?;
    let micros = started.elapsed().as_micros() as u64;
    shared
        .dom_tests
        .fetch_add(output.stats.counts.dom_tests, Ordering::Relaxed);
    shared
        .attr_cmps
        .fetch_add(output.stats.counts.attr_cmps, Ordering::Relaxed);
    shared.domgen_us.fetch_add(
        output.stats.phases.dominator_gen.as_micros() as u64,
        Ordering::Relaxed,
    );
    let output = Arc::new(output);
    // Don't cache across a concurrent catalog change: the fingerprint is
    // name-based, and a name may since have been rebound. The re-check
    // *after* the insert closes the window where a LOAD's invalidation
    // lands between our epoch check and our insert — any such LOAD bumped
    // the epoch first, so we observe it here and drop what we inserted.
    let mut result_id = None;
    if shared.catalog_epoch.load(Ordering::SeqCst) == epoch {
        result_id = shared.cache.insert(
            session.fingerprint.clone(),
            output.clone(),
            k,
            session.relations.clone(),
            Some(session.plan.clone()),
        );
        if shared.catalog_epoch.load(Ordering::SeqCst) != epoch {
            for name in &session.relations {
                shared.cache.invalidate_relation(name);
            }
            result_id = None;
        }
    }
    Ok(RunOutput {
        k,
        micros,
        cached: false,
        result_id,
        output,
    })
}

// ---------------------------------------------- distribution handlers

/// `SYNC` / `SYNC <name>`: the catalog-replay primitive a replica pulls
/// at startup. Relations export as annotated CSV through the catalog's
/// key dictionary, so a replica's `register_csv` reconstructs identical
/// schemas, values and (crucially) row order — results are row-index
/// pairs, so row order is correctness, not cosmetics.
fn sync(shared: &Shared, name: Option<&str>) -> Response {
    let catalog = shared.engine.catalog();
    match name {
        None => Response::Catalog {
            epoch: shared.catalog_epoch.load(Ordering::SeqCst),
            names: catalog.names(),
        },
        Some(name) => {
            let Some(handle) = catalog.get(name) else {
                return Response::err(ErrorCode::Invalid, format!("unknown relation {name:?}"));
            };
            match ksjq_datagen::relation_to_annotated_csv_with(handle.relation(), "key", |gid| {
                catalog.decode_key(gid)
            }) {
                Ok(csv) => Response::Relation {
                    name: name.into(),
                    csv,
                },
                Err(e) => {
                    Response::err(ErrorCode::Internal, format!("cannot export {name:?}: {e}"))
                }
            }
        }
    }
}

/// `STAGE <name> INLINE <csv>`: parse and hold, touching no live binding.
/// All the ways a `LOAD` can fail (malformed CSV, bad header annotations,
/// non-numeric cells) fail *here*, which is what lets a router run
/// stage-everywhere / commit-everywhere and guarantee no shard ever
/// drops its old binding for a replacement that another shard rejected.
fn stage(shared: &Shared, name: &str, csv: &str, wire: Option<&str>) -> Response {
    // The cells lock serialises every catalog mutation (even ones that
    // touch no cells) so WAL record order is apply order. Lock order
    // everywhere: catalog_cells → staged/staged_deltas/live → wal.
    let _cells = shared
        .catalog_cells
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let mut staged = shared.staged.lock().unwrap_or_else(|e| e.into_inner());
    if staged.len() >= MAX_STAGED && !staged.contains_key(name) {
        return Response::err(
            ErrorCode::Busy,
            format!("too many staged relations (max {MAX_STAGED}): COMMIT or ABORT some first"),
        );
    }
    match shared.engine.catalog().parse_csv(csv) {
        Ok(rel) => {
            let (n, d) = (rel.n(), rel.schema().d());
            staged.insert(name.into(), rel);
            // Staged data is logged so a later logged COMMIT can replay;
            // anything still staged after replay is cleared (= ABORT).
            if let Err(e) = log_mutation(shared, wire) {
                return *e;
            }
            Response::Ok(format!("staged {name} n={n} d={d}"))
        }
        Err(e) => Response::err(ErrorCode::Parse, e.to_string()),
    }
}

/// `COMMIT <name>`: atomically publish staged data as an upsert. A
/// staged *delta* (from `APPEND … STAGE`) applies through the versioned
/// append path; a staged *relation* (from `STAGE`) replaces the binding.
/// A budget rejection leaves the *old* binding live, as for `LOAD`.
fn commit(shared: &Shared, name: &str, wire: Option<&str>) -> Response {
    // Cells lock first: all catalog mutations serialise here so WAL
    // record order is apply order.
    let mut cells = shared
        .catalog_cells
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(delta) = shared
        .staged_deltas
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(name)
    {
        return apply_append(shared, name, delta, &mut cells, wire);
    }
    let Some(rel) = shared
        .staged
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(name)
    else {
        return Response::err(ErrorCode::Invalid, format!("nothing staged under {name:?}"));
    };
    let catalog = shared.engine.catalog();
    let replaced = catalog
        .get(name)
        .map(|h| h.n().saturating_mul(h.schema().d()))
        .unwrap_or(0);
    let added = rel.n().saturating_mul(rel.schema().d());
    let budget = shared.config.max_catalog_cells;
    let after = cells.saturating_sub(replaced).saturating_add(added);
    if after > budget {
        return Response::err(
            ErrorCode::Invalid,
            format!(
                "catalog cell budget exceeded: {after} > {budget} (old binding for {name:?} kept)"
            ),
        );
    }
    let (n, d) = (rel.n(), rel.schema().d());
    // Unreachable with wire-validated names; a failed rebind keeps the
    // old binding, so nothing needs undoing.
    if let Err(e) = catalog.replace(name, Arc::new(rel)) {
        return Response::err(ErrorCode::Internal, e.to_string());
    }
    *cells = after;
    drop_live(shared, name);
    shared.catalog_epoch.fetch_add(1, Ordering::SeqCst);
    shared.cache.invalidate_relation(name);
    if let Err(e) = log_mutation(shared, wire) {
        return *e;
    }
    Response::Ok(format!("committed {name} n={n} d={d}"))
}

/// `ABORT <name>`: drop staged data — a staged relation and/or a staged
/// delta. Idempotent — aborting a name with nothing staged still answers
/// `OK`, so a router can blanket-abort.
fn abort(shared: &Shared, name: &str, wire: Option<&str>) -> Response {
    let _cells = shared
        .catalog_cells
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let removed = shared
        .staged
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(name)
        .is_some()
        | shared
            .staged_deltas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name)
            .is_some();
    if removed {
        // Only aborts that dropped something need a durable record (a
        // logged STAGE must not replay past its abort); no-op aborts
        // would just bloat the log.
        if let Err(e) = log_mutation(shared, wire) {
            return *e;
        }
        Response::Ok(format!("aborted {name}"))
    } else {
        Response::Ok(format!("aborted {name} (nothing was staged)"))
    }
}

/// Forget the versioned chain behind `name` (the binding was replaced
/// wholesale); the next `APPEND` rebuilds it from the new relation.
fn drop_live(shared: &Shared, name: &str) {
    shared
        .live
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(name);
}

/// Parse header-less `APPEND` rows against an existing relation: first
/// cell the join key (encoded through the catalog's shared dictionary),
/// then exactly `d` finite values (raw, pre-normalisation — the same
/// convention as annotated CSV data rows).
fn parse_delta(
    catalog: &ksjq_relation::Catalog,
    d: usize,
    csv: &str,
) -> Result<StagedDelta, String> {
    let mut keys = Vec::new();
    let mut rows = Vec::new();
    for (i, line) in csv.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut cells = line.split(',');
        let key = cells.next().unwrap_or("").trim();
        if key.is_empty() {
            return Err(format!("append row {}: empty join key", i + 1));
        }
        let values: Vec<f64> = cells
            .map(|cell| {
                let v: f64 = cell
                    .trim()
                    .parse()
                    .map_err(|_| format!("append row {}: bad value {cell:?}", i + 1))?;
                if v.is_finite() {
                    Ok(v)
                } else {
                    Err(format!("append row {}: non-finite value {cell:?}", i + 1))
                }
            })
            .collect::<Result<_, String>>()?;
        if values.len() != d {
            return Err(format!(
                "append row {}: {} values, relation arity is {d}",
                i + 1,
                values.len()
            ));
        }
        keys.push(catalog.encode_key(key));
        rows.push(values);
    }
    if rows.is_empty() {
        return Err("APPEND carried no rows".into());
    }
    Ok(StagedDelta { keys, rows })
}

/// `APPEND <name> ROWS <csv>` / `APPEND <name> STAGE <csv>`: extend an
/// existing relation in place. `ROWS` applies immediately; `STAGE` parses
/// and holds the delta for a router-driven `COMMIT`/`ABORT`, so a
/// distributed append is all-shards-or-none just like a distributed load.
fn append(shared: &Shared, name: &str, csv: &str, staged: bool, wire: Option<&str>) -> Response {
    let Some(handle) = shared.engine.catalog().get(name) else {
        return Response::err(
            ErrorCode::Invalid,
            format!("unknown relation {name:?}: APPEND extends an existing relation"),
        );
    };
    let delta = match parse_delta(shared.engine.catalog(), handle.schema().d(), csv) {
        Ok(delta) => delta,
        Err(message) => return Response::err(ErrorCode::Parse, message),
    };
    let mut cells = shared
        .catalog_cells
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if staged {
        let mut deltas = shared
            .staged_deltas
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if deltas.len() >= MAX_STAGED && !deltas.contains_key(name) {
            return Response::err(
                ErrorCode::Busy,
                format!("too many staged deltas (max {MAX_STAGED}): COMMIT or ABORT some first"),
            );
        }
        let rows = delta.rows.len();
        deltas.insert(name.into(), delta);
        if let Err(e) = log_mutation(shared, wire) {
            return *e;
        }
        return Response::Ok(format!("staged delta for {name} +{rows} rows"));
    }
    apply_append(shared, name, delta, &mut cells, wire)
}

/// Apply a parsed delta: derive the next version (sharing unchanged
/// column blocks with the current one), rebind the name, bump the epoch,
/// then walk the result cache *upgrading* entries through the incremental
/// maintainer instead of evicting them.
fn apply_append(
    shared: &Shared,
    name: &str,
    delta: StagedDelta,
    cells: &mut usize,
    wire: Option<&str>,
) -> Response {
    // The caller holds the cells lock (`cells` borrows its guard), so
    // budget check, version derivation, rebind and WAL append are atomic
    // per mutation — serialised with LOAD/COMMIT/DELETE.
    let catalog = shared.engine.catalog();
    let Some(handle) = catalog.get(name) else {
        return Response::err(
            ErrorCode::Invalid,
            format!("unknown relation {name:?}: APPEND extends an existing relation"),
        );
    };
    let old = handle.relation().clone();
    let old_n = old.n();
    let d = old.schema().d();
    if delta.rows.iter().any(|row| row.len() != d) {
        // Possible only for a delta staged against a binding that was
        // since replaced with a different arity.
        return Response::err(
            ErrorCode::Invalid,
            format!("staged delta does not match {name:?} (arity changed since STAGE)"),
        );
    }
    let added = delta.rows.len().saturating_mul(d);
    let budget = shared.config.max_catalog_cells;
    let after = cells.saturating_add(added);
    if after > budget {
        return Response::err(
            ErrorCode::Invalid,
            format!(
                "catalog cell budget exceeded: {after} > {budget} (relation {name:?} unchanged)"
            ),
        );
    }
    // Reuse the live versioned chain while it still derives the bound
    // snapshot; rebuild it after a LOAD/COMMIT replaced the relation.
    let mut live = shared.live.lock().unwrap_or_else(|e| e.into_inner());
    if live
        .get(name)
        .is_none_or(|v| !Arc::ptr_eq(v.snapshot(), &old))
    {
        match VersionedRelation::from_relation(old.clone()) {
            Ok(v) => {
                live.insert(name.to_string(), v);
            }
            Err(e) => {
                return Response::err(ErrorCode::Internal, format!("cannot version {name:?}: {e}"))
            }
        }
    }
    let next = match live
        .get(name)
        .expect("chain ensured above")
        .append(&delta.keys, &delta.rows)
    {
        Ok(next) => next,
        Err(e) => return Response::err(ErrorCode::Invalid, e.to_string()),
    };
    let snapshot = next.snapshot().clone();
    live.insert(name.to_string(), next);
    drop(live);
    // Snapshot the upgrade candidates BEFORE publishing the new binding:
    // anything cached now was computed at the old epoch (the maintainer's
    // precondition). An entry some concurrent EXECUTE inserts after this
    // point either re-checks the epoch and self-evicts (old-catalog
    // result) or is already correct (new-catalog result) — in both cases
    // it must not be maintained, and it is not in this snapshot.
    let candidates = shared.cache.entries_for_relation(name);
    if let Err(e) = catalog.replace(name, snapshot.clone()) {
        // Unreachable with wire-validated names. The old binding stays
        // live; only the versioned chain ran ahead of it.
        drop_live(shared, name);
        return Response::err(ErrorCode::Internal, e.to_string());
    }
    *cells = after;
    let epoch = shared.catalog_epoch.fetch_add(1, Ordering::SeqCst) + 1;
    if let Err(e) = log_mutation(shared, wire) {
        return *e;
    }
    shared
        .delta_rows
        .fetch_add(delta.rows.len() as u64, Ordering::Relaxed);
    let mut upgraded = 0u64;
    let mut dropped = 0u64;
    for candidate in candidates {
        if maintain_entry(shared, name, old_n, &candidate) {
            upgraded += 1;
        } else {
            shared.cache.remove(&candidate.key);
            dropped += 1;
        }
    }
    shared
        .delta_maintained
        .fetch_add(upgraded, Ordering::Relaxed);
    Response::Ok(format!(
        "appended {name} +{} rows n={} epoch={epoch} maintained={upgraded} invalidated={dropped}",
        delta.rows.len(),
        snapshot.n()
    ))
}

/// Try to carry one cached entry across an append via
/// [`ksjq_core::maintain_append`]. `true` means the entry now serves the
/// new epoch; `false` means the caller must drop it. Only `Exact` and
/// `SkylineJoin` goals are upgradable: a find-k plan may settle on a
/// *different* k at the new epoch, and under `SkylineJoin` the cached k
/// (= joined arity) cannot change under an append.
fn maintain_entry(
    shared: &Shared,
    name: &str,
    old_n: usize,
    candidate: &crate::cache::UpgradeCandidate,
) -> bool {
    let Some(plan) = &candidate.plan else {
        return false;
    };
    match plan.goal {
        Goal::Exact(_) | Goal::SkylineJoin => {}
        _ => return false,
    }
    let catalog = shared.engine.catalog();
    let (Some(l), Some(r)) = (catalog.get(&plan.left), catalog.get(&plan.right)) else {
        return false;
    };
    let Ok(cx) = ksjq_join::JoinContext::from_arcs(
        l.relation().clone(),
        r.relation().clone(),
        ksjq_join::JoinSpec::Equality,
        &plan.aggs,
    ) else {
        return false;
    };
    if !ksjq_core::can_maintain(&cx) {
        return false;
    }
    // The appended relation's old cardinality; an unchanged side's "old"
    // count is its current one. A self-join appends on both legs.
    let old_left_n = if plan.left == name {
        old_n
    } else {
        cx.left().n()
    };
    let old_right_n = if plan.right == name {
        old_n
    } else {
        cx.right().n()
    };
    let Ok((output, stats)) =
        ksjq_core::maintain_append(&cx, candidate.k, &candidate.output, old_left_n, old_right_n)
    else {
        return false;
    };
    shared
        .dom_tests
        .fetch_add(stats.counters.dom_tests, Ordering::Relaxed);
    shared
        .attr_cmps
        .fetch_add(stats.counters.attr_cmps, Ordering::Relaxed);
    shared
        .cache
        .upgrade(&candidate.key, candidate.id, Arc::new(output))
        .is_some()
}

/// `DELETE <name> KEYS <k1,k2,…>`: drop every row carrying one of the
/// listed join keys, rewriting only the column blocks that contain them.
/// Deletions shift surviving tuple ids, so cached (positional) results
/// cannot be maintained — entries referencing the relation are evicted
/// and recompute on next use.
fn delete(shared: &Shared, name: &str, keys: &[String], wire: Option<&str>) -> Response {
    let mut cells = shared
        .catalog_cells
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let catalog = shared.engine.catalog();
    let Some(handle) = catalog.get(name) else {
        return Response::err(ErrorCode::Invalid, format!("unknown relation {name:?}"));
    };
    let old = handle.relation().clone();
    let d = old.schema().d();
    let mut live = shared.live.lock().unwrap_or_else(|e| e.into_inner());
    if live
        .get(name)
        .is_none_or(|v| !Arc::ptr_eq(v.snapshot(), &old))
    {
        match VersionedRelation::from_relation(old.clone()) {
            Ok(v) => {
                live.insert(name.to_string(), v);
            }
            Err(e) => {
                return Response::err(ErrorCode::Internal, format!("cannot version {name:?}: {e}"))
            }
        }
    }
    let mut removed_total = 0usize;
    for key in keys {
        let gid = catalog.encode_key(key);
        let (next, removed) = match live.get(name).expect("chain ensured above").delete_key(gid) {
            Ok(result) => result,
            Err(e) => return Response::err(ErrorCode::Invalid, e.to_string()),
        };
        removed_total += removed;
        live.insert(name.to_string(), next);
    }
    let snapshot = live
        .get(name)
        .expect("chain ensured above")
        .snapshot()
        .clone();
    drop(live);
    if let Err(e) = catalog.replace(name, snapshot.clone()) {
        // Unreachable with wire-validated names; see `apply_append`.
        drop_live(shared, name);
        return Response::err(ErrorCode::Internal, e.to_string());
    }
    *cells = cells.saturating_sub(removed_total.saturating_mul(d));
    let epoch = shared.catalog_epoch.fetch_add(1, Ordering::SeqCst) + 1;
    shared.cache.invalidate_relation(name);
    if let Err(e) = log_mutation(shared, wire) {
        return *e;
    }
    Response::Ok(format!(
        "deleted {removed_total} rows from {name} n={} epoch={epoch}",
        snapshot.n()
    ))
}

/// Resolve both relations and build an equality-join context for the
/// `FETCH` / `CHECK` primitives.
fn join_context(
    shared: &Shared,
    left: &str,
    right: &str,
    aggs: &[ksjq_join::AggFunc],
) -> Result<ksjq_join::JoinContext<'static>, String> {
    let catalog = shared.engine.catalog();
    let l = catalog
        .get(left)
        .ok_or_else(|| format!("unknown relation {left:?}"))?;
    let r = catalog
        .get(right)
        .ok_or_else(|| format!("unknown relation {right:?}"))?;
    ksjq_join::JoinContext::from_arcs(
        l.relation().clone(),
        r.relation().clone(),
        ksjq_join::JoinSpec::Equality,
        aggs,
    )
    .map_err(|e| e.to_string())
}

/// `FETCH`: materialise requested joined rows (internal normalised form)
/// so a router can ship a candidate's values to shards that do not hold
/// the candidate.
fn fetch(
    shared: &Shared,
    left: &str,
    right: &str,
    aggs: &[ksjq_join::AggFunc],
    pairs: &[(u32, u32)],
) -> Response {
    let cx = match join_context(shared, left, right, aggs) {
        Ok(cx) => cx,
        Err(msg) => return Response::err(ErrorCode::Invalid, msg),
    };
    let (ln, rn) = (cx.left().n(), cx.right().n());
    let mut rows = Vec::with_capacity(pairs.len());
    for &(u, v) in pairs {
        if u as usize >= ln || v as usize >= rn {
            return Response::err(
                ErrorCode::Invalid,
                format!("pair {u}:{v} out of range (|left| = {ln}, |right| = {rn})"),
            );
        }
        if !cx.compatible(u, v) {
            return Response::err(
                ErrorCode::Invalid,
                format!("pair {u}:{v} does not satisfy the join"),
            );
        }
        rows.push(cx.joined_row(u, v));
    }
    Response::Vals(rows)
}

/// `CHECK`: for each probe row, scan *this* shard's joined tuples for a
/// k-dominator. Soundness of the target filter for external probes: any
/// joined tuple `u ⋈ v` k-dominating the probe has, by attribute
/// counting, at least `k − l2 − a` left-local positions `≤` the probe's,
/// so its left leg survives [`ksjq_core::target_set_for_values`] and the
/// split-side scan finds the pair. Probes equal to a resident row are
/// safe: equal rows never k-dominate (a strict position is required).
fn check(
    shared: &Shared,
    left: &str,
    right: &str,
    aggs: &[ksjq_join::AggFunc],
    k: usize,
    rows: &[Vec<f64>],
) -> Response {
    let cx = match join_context(shared, left, right, aggs) {
        Ok(cx) => cx,
        Err(msg) => return Response::err(ErrorCode::Invalid, msg),
    };
    let params = match ksjq_core::validate_k(&cx, k) {
        Ok(params) => params,
        Err(e) => return Response::err(ErrorCode::Invalid, e.to_string()),
    };
    let locals = cx.left_local_attrs().to_vec();
    let mut checker = ksjq_core::ColumnarCheck::new(&cx, k);
    let mut scratch = ksjq_core::TargetScratch::default();
    let mut bits = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != cx.d_joined() {
            return Response::err(
                ErrorCode::Invalid,
                format!(
                    "probe row has {} values, joined arity is {}",
                    row.len(),
                    cx.d_joined()
                ),
            );
        }
        let targets = ksjq_core::target_set_for_values(
            cx.left(),
            &locals,
            &row[..cx.l1()],
            params.k1_pp,
            &mut scratch,
        );
        bits.push(checker.dominated_via_left(&targets, row));
    }
    let counters = checker.counters();
    shared
        .dom_tests
        .fetch_add(counters.dom_tests, Ordering::Relaxed);
    shared
        .attr_cmps
        .fetch_add(counters.attr_cmps, Ordering::Relaxed);
    Response::Checked(bits)
}

fn explain(shared: &Shared, id: &str) -> Response {
    match lookup(shared, id) {
        Some(session) => Response::Explain(session.prepared.explain().compact()),
        None => Response::err(
            ErrorCode::Invalid,
            format!("unknown query id {id:?}: PREPARE it first"),
        ),
    }
}

fn stats(shared: &Shared) -> ServerStats {
    let counters = shared.cache.counters();
    ServerStats {
        connections: shared.connections.load(Ordering::Relaxed),
        requests: shared.requests.load(Ordering::Relaxed),
        errors: shared.errors.load(Ordering::Relaxed),
        sessions: shared
            .sessions
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len() as u64,
        relations: shared.engine.catalog().len() as u64,
        cache_hits: counters.hits(),
        cache_misses: counters.misses(),
        cache_evictions: counters.evictions(),
        cache_len: shared.cache.len() as u64,
        workers: shared.config.workers as u64,
        dom_tests: shared.dom_tests.load(Ordering::Relaxed),
        attr_cmps: shared.attr_cmps.load(Ordering::Relaxed),
        domgen_us: shared.domgen_us.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        reaped: shared.reaped.load(Ordering::Relaxed),
        peak_buf: shared.peak_buf.load(Ordering::Relaxed),
        // Fan-out counters belong to a router front end; a plain server
        // reports zeros so STATS stays one uniform frame either way.
        fanout_queries: 0,
        merge_us: 0,
        shard_retries: 0,
        shard_errors: 0,
        catalog_epoch: shared.catalog_epoch.load(Ordering::SeqCst),
        delta_maintained: shared.delta_maintained.load(Ordering::Relaxed),
        delta_rows: shared.delta_rows.load(Ordering::Relaxed),
        timeouts: shared.timeouts.load(Ordering::Relaxed),
        wal_records: shared.wal_records.load(Ordering::Relaxed),
        wal_segments: shared.wal_segments.load(Ordering::Relaxed),
        panics: shared.panics.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_ROWS_FRAME_BYTES;

    #[test]
    fn worst_case_v2_stream_holds_one_chunk() {
        // A chunk frame can never exceed MAX_ROWS_FRAME_BYTES (pinned in
        // protocol.rs); here, pin that chunk_response emits exactly the
        // ROWS_PER_CHUNK split the constant was sized for.
        let pairs: Vec<_> = (0..(ROWS_PER_CHUNK as u32 * 2 + 5))
            .map(|i| (ksjq_relation::TupleId(i), ksjq_relation::TupleId(i)))
            .collect();
        let run = RunOutput {
            k: 3,
            micros: 42,
            cached: false,
            result_id: Some(9),
            output: Arc::new(KsjqOutput {
                pairs,
                stats: Default::default(),
            }),
        };
        let parts = run.output.chunk_count(ROWS_PER_CHUNK);
        assert_eq!(parts, 3);
        let mut reassembled = Vec::new();
        for index in 0..parts {
            let response = chunk_response(&run, index, parts);
            let line = response.to_string();
            assert!(line.len() < MAX_ROWS_FRAME_BYTES, "{}", line.len());
            let Response::Chunk(chunk) = Response::parse(&line).expect("round-trips") else {
                panic!("not a chunk");
            };
            assert_eq!(chunk.part as usize, index + 1);
            assert_eq!(chunk.parts as usize, parts);
            assert_eq!(chunk.total, run.output.len());
            // Cursor on every non-final frame, pointing at the next part.
            if index + 1 < parts {
                assert_eq!(
                    chunk.cursor,
                    Some(Cursor {
                        result: 9,
                        part: index as u32 + 2
                    })
                );
            } else {
                assert_eq!(chunk.cursor, None);
            }
            reassembled.extend(chunk.pairs);
        }
        let original: Vec<_> = run.output.pairs.iter().map(|&(l, r)| (l.0, r.0)).collect();
        assert_eq!(reassembled, original);
    }

    #[test]
    fn more_rejects_v1_and_dead_cursors() {
        let shared = Shared {
            engine: Engine::new(),
            sessions: RwLock::new(HashMap::new()),
            cache: ResultCache::new(4),
            catalog_cells: Mutex::new(0),
            staged: Mutex::new(HashMap::new()),
            staged_deltas: Mutex::new(HashMap::new()),
            live: Mutex::new(HashMap::new()),
            wal: Mutex::new(None),
            recovering: AtomicBool::new(false),
            config: ServerConfig::default(),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            dom_tests: AtomicU64::new(0),
            attr_cmps: AtomicU64::new(0),
            domgen_us: AtomicU64::new(0),
            catalog_epoch: AtomicU64::new(0),
            delta_maintained: AtomicU64::new(0),
            delta_rows: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            peak_buf: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
            wal_segments: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            exec_faults: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        };
        let cursor = Cursor { result: 1, part: 1 };
        assert!(matches!(more(&shared, 1, cursor), Response::Error { .. }));
        assert!(matches!(more(&shared, 2, cursor), Response::Error { .. }));
        let id = shared
            .cache
            .insert(
                "fp".into(),
                Arc::new(KsjqOutput {
                    pairs: vec![(ksjq_relation::TupleId(1), ksjq_relation::TupleId(2))],
                    stats: Default::default(),
                }),
                5,
                vec!["r".into()],
                None,
            )
            .expect("cache enabled");
        let ok = more(
            &shared,
            2,
            Cursor {
                result: id,
                part: 1,
            },
        );
        let Response::Chunk(chunk) = ok else {
            panic!("expected a chunk, got {ok}");
        };
        assert_eq!((chunk.k, chunk.part, chunk.parts), (5, 1, 1));
        assert!(chunk.cached && chunk.cursor.is_none());
        // Past-the-end part on a live result.
        assert!(matches!(
            more(
                &shared,
                2,
                Cursor {
                    result: id,
                    part: 7
                }
            ),
            Response::Error { .. }
        ));
    }
}
