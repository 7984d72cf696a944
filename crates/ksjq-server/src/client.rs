//! A blocking client for the KSJQ wire protocol.
//!
//! [`KsjqClient::connect`] negotiates protocol v2 (`HELLO`) and the
//! result-bearing calls stream: [`execute_stream`](KsjqClient::execute_stream)
//! / [`query_stream`](KsjqClient::query_stream) return a [`RowStream`] —
//! an iterator of bounded [`RowChunk`] frames, so a result is processed
//! chunk by chunk without the client (or the server) ever holding all of
//! it. The one-shot [`execute`](KsjqClient::execute) /
//! [`query`](KsjqClient::query) calls are convenience wrappers that drain
//! the stream into a [`RowSet`].
//!
//! Against a legacy v1-only server (or after
//! [`connect_legacy`](KsjqClient::connect_legacy)) the same calls work:
//! a v1 `ROWS` frame surfaces through a stream as one synthetic chunk.
//!
//! Protocol-level failures (`ERR` frames) are surfaced as
//! [`ClientError::Server`] so callers can distinguish "the server said
//! no" from "the wire broke".

use crate::faults::{FaultAction, FaultPlan, FaultStream};
use crate::protocol::{
    Cursor, ErrorCode, LegSet, LoadSource, PlanSpec, Request, Response, RowChunk, RowSet,
    ServerStats, SyntheticSpec, PROTOCOL_VERSION,
};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Socket timeouts for [`KsjqClient::connect_with`].
///
/// The defaults (all `None`) match [`KsjqClient::connect`]: block forever.
/// A router front end talking to possibly-dead replicas wants all three
/// bounded, so a hung shard surfaces as [`ClientError::Io`] — which
/// [`retry_with_backoff`] retries and a dialer fails over on — instead of
/// wedging the session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectOptions {
    /// Bound on establishing the TCP connection (per resolved address).
    pub connect_timeout: Option<Duration>,
    /// Bound on each blocking read (one response line).
    pub read_timeout: Option<Duration>,
    /// Bound on each blocking write (one request line).
    pub write_timeout: Option<Duration>,
    /// Seeded transport fault injection applied to this client's own
    /// reads and writes — how chaos tests make a *healthy* server look
    /// flaky from the caller's side. `None` injects nothing.
    pub faults: Option<FaultPlan>,
}

impl ConnectOptions {
    /// One bound for connect, read and write alike.
    pub fn all(timeout: Duration) -> ConnectOptions {
        ConnectOptions {
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
            faults: None,
        }
    }
}

/// Run `f` up to `attempts` times, sleeping between failures with
/// exponentially growing, jittered backoff (`base`, `2·base`, … capped at
/// `cap`; each delay scaled by a deterministic factor in `[0.5, 1.0)`
/// derived from `seed` and the attempt number, so a fleet of retriers
/// with distinct seeds does not stampede in lockstep).
///
/// Only transport failures ([`ClientError::Io`]) are retried: an `ERR`
/// frame or a protocol violation means the server *answered*, and asking
/// again would repeat the same answer. `f` receives the 0-based attempt
/// number.
pub fn retry_with_backoff<T>(
    attempts: u32,
    base: Duration,
    cap: Duration,
    seed: u64,
    mut f: impl FnMut(u32) -> ClientResult<T>,
) -> ClientResult<T> {
    let attempts = attempts.max(1);
    let mut delay = base.min(cap);
    for attempt in 0..attempts {
        match f(attempt) {
            Err(ClientError::Io(e)) if attempt + 1 < attempts => {
                let _ = e; // retried; the final attempt's error is the one reported
                           // splitmix64 of (seed, attempt): cheap, deterministic,
                           // well-mixed — no RNG dependency needed for jitter.
                let mut z = seed ^ (u64::from(attempt).wrapping_mul(0x9e3779b97f4a7c15));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^= z >> 31;
                // Map to [0.5, 1.0): keep at least half the nominal delay.
                let factor = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
                std::thread::sleep(delay.mul_f64(factor));
                delay = (delay * 2).min(cap);
            }
            other => return other,
        }
    }
    unreachable!("loop returns on the final attempt")
}

/// What can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, unexpected EOF).
    Io(io::Error),
    /// The server answered, but with an `ERR` frame. `code` is the
    /// machine-readable reason (see [`ErrorCode`]); match on it instead
    /// of string-matching `message`.
    Server {
        /// Machine-readable error code from the `ERR` frame.
        code: ErrorCode,
        /// The human-readable remainder of the frame.
        message: String,
    },
    /// The server answered with a frame this call did not expect (e.g.
    /// `OK` where `ROWS` was required), or one that does not parse.
    Protocol(String),
}

impl ClientError {
    /// The error code, when the server answered with an `ERR` frame.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// True for failures worth retrying (transport failures, and `ERR`
    /// codes the server marks transient: `busy`, `timeout`,
    /// `unavailable`, `recovering`).
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Server { code, .. } => code.is_transient(),
            ClientError::Protocol(_) => false,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { code, message } if message.is_empty() => {
                write!(f, "server error ({code})")
            }
            ClientError::Server { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Convenience alias for client results.
pub type ClientResult<T> = Result<T, ClientError>;

/// Monotone client-connection counter: with single-threaded connection
/// establishment (the chaos harness's case) every run numbers its
/// connections identically, so a seeded fault plan replays exactly.
static CONN_SEQ: AtomicU64 = AtomicU64::new(1);

/// A blocking KSJQ protocol client over one TCP connection.
#[derive(Debug)]
pub struct KsjqClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    version: u32,
    /// Last `DEADLINE` value acknowledged by the server (0 = none), so
    /// [`set_deadline`](KsjqClient::set_deadline) skips the wire
    /// round-trip when the value is unchanged.
    deadline_ms: u64,
    /// Seeded fault decisions for this connection, when injecting.
    faults: Option<FaultStream>,
}

impl KsjqClient {
    /// Connect to a running server and negotiate the newest protocol
    /// version both sides speak (a server that rejects `HELLO` is taken
    /// to be v1-only and the session proceeds on v1).
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<KsjqClient> {
        KsjqClient::connect_with(addr, &ConnectOptions::default())
    }

    /// Like [`connect`](KsjqClient::connect), with socket timeouts.
    ///
    /// With a `connect_timeout`, each resolved address is tried in turn
    /// under that bound and the last failure is reported if none accepts.
    /// Read/write timeouts apply to every subsequent exchange, including
    /// the `HELLO` negotiation itself.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        opts: &ConnectOptions,
    ) -> ClientResult<KsjqClient> {
        let writer = match opts.connect_timeout {
            None => TcpStream::connect(&addr)?,
            Some(timeout) => {
                let mut last_err: Option<io::Error> = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                stream.ok_or_else(|| {
                    last_err.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                    })
                })?
            }
        };
        writer.set_read_timeout(opts.read_timeout)?;
        writer.set_write_timeout(opts.write_timeout)?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        let faults = opts
            .faults
            .filter(|plan| plan.is_active())
            .map(|plan| plan.stream(CONN_SEQ.fetch_add(1, Ordering::Relaxed)));
        let mut client = KsjqClient {
            reader,
            writer,
            version: 1,
            deadline_ms: 0,
            faults,
        };
        match client.request(&Request::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Response::Hello { version } => client.version = version.clamp(1, PROTOCOL_VERSION),
            Response::Error { .. } => {} // legacy server: stay on v1
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected HELLO, got {other}"
                )))
            }
        }
        Ok(client)
    }

    /// Connect without negotiating: the session speaks v1 (one-shot
    /// `ROWS` frames), whatever the server supports.
    pub fn connect_legacy(addr: impl ToSocketAddrs) -> ClientResult<KsjqClient> {
        let writer = TcpStream::connect(addr)?;
        // Lockstep one-line exchanges: Nagle only adds latency here.
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        Ok(KsjqClient {
            reader,
            writer,
            version: 1,
            deadline_ms: 0,
            faults: None,
        })
    }

    /// The negotiated protocol version (1 until a successful `HELLO`).
    pub fn version(&self) -> u32 {
        self.version
    }

    fn read_line(&mut self) -> ClientResult<String> {
        if let Some(faults) = &mut self.faults {
            if faults.on_read() == FaultAction::Drop {
                let _ = self.writer.shutdown(Shutdown::Both);
                return Err(ClientError::Io(io::ErrorKind::ConnectionReset.into()));
            }
        }
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(response.trim_end().to_owned())
    }

    fn read_response(&mut self) -> ClientResult<Response> {
        let line = self.read_line()?;
        Response::parse(&line).map_err(ClientError::Protocol)
    }

    fn send(&mut self, line: &str) -> ClientResult<()> {
        if let Some(faults) = &mut self.faults {
            let mut buf = Vec::with_capacity(line.len() + 1);
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            match faults.on_write() {
                FaultAction::Drop => {
                    let _ = self.writer.shutdown(Shutdown::Both);
                    return Err(ClientError::Io(io::ErrorKind::ConnectionReset.into()));
                }
                FaultAction::Partial => {
                    // A torn frame: ship a prefix, then sever, so the
                    // server sees a request cut mid-line.
                    let cut = faults.cut_point(buf.len());
                    let _ = self.writer.write_all(&buf[..cut]);
                    let _ = self.writer.flush();
                    let _ = self.writer.shutdown(Shutdown::Both);
                    return Err(ClientError::Io(io::ErrorKind::ConnectionReset.into()));
                }
                FaultAction::None => {}
            }
            faults.maybe_flip(&mut buf);
            self.writer.write_all(&buf)?;
            self.writer.flush()?;
            return Ok(());
        }
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Send a raw line and return the raw response line — the escape
    /// hatch the fuzz tests and the `ksjq-client` binary use. Note that
    /// a v2 `EXECUTE`/`QUERY` answers with *several* lines; this returns
    /// only the first — fetch the rest with
    /// [`raw_read`](KsjqClient::raw_read).
    pub fn raw(&mut self, line: &str) -> ClientResult<String> {
        self.send(line)?;
        self.read_line()
    }

    /// Read one raw response line without sending anything — for
    /// consuming the continuation frames of a chunked v2 response after
    /// [`raw`](KsjqClient::raw).
    pub fn raw_read(&mut self) -> ClientResult<String> {
        self.read_line()
    }

    /// Send a typed request, parse the typed response. `ERR` frames are
    /// *returned*, not raised — use the typed helpers below for that.
    pub fn request(&mut self, request: &Request) -> ClientResult<Response> {
        self.send(&request.to_string())?;
        self.read_response()
    }

    fn expect_ok(&mut self, request: &Request) -> ClientResult<String> {
        match self.request(request)? {
            Response::Ok(info) => Ok(info),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!("expected OK, got {other}"))),
        }
    }

    /// `DEADLINE <ms>` — bound each subsequent query on this session to
    /// `ms` milliseconds of execution (0 clears the bound). The last
    /// acknowledged value is cached, so re-sending an unchanged deadline
    /// costs nothing on the wire — a router can set the remaining budget
    /// before every backend call without doubling its round-trips.
    pub fn set_deadline(&mut self, ms: u64) -> ClientResult<()> {
        if self.deadline_ms == ms {
            return Ok(());
        }
        self.expect_ok(&Request::Deadline { ms })?;
        self.deadline_ms = ms;
        Ok(())
    }

    /// `LOAD <name> INLINE <csv>` — register a CSV relation (newline row
    /// separators; the client handles the wire encoding).
    ///
    /// Rejects CSV containing `';'` up front: it is the row separator on
    /// the wire, so sending it would silently re-frame the caller's rows.
    pub fn load_csv(&mut self, name: &str, csv: &str) -> ClientResult<String> {
        if csv.contains(';') {
            return Err(ClientError::Protocol(
                "inline CSV must not contain ';' (the wire row separator)".into(),
            ));
        }
        self.expect_ok(&Request::Load {
            name: name.into(),
            source: LoadSource::Inline { csv: csv.into() },
        })
    }

    /// `LOAD <name> SYNTHETIC …` — generate server-side.
    pub fn load_synthetic(&mut self, name: &str, spec: SyntheticSpec) -> ClientResult<String> {
        self.expect_ok(&Request::Load {
            name: name.into(),
            source: LoadSource::Synthetic(spec),
        })
    }

    /// `PREPARE <id> …` — validate and name a query for later execution.
    pub fn prepare(&mut self, id: &str, plan: &PlanSpec) -> ClientResult<String> {
        self.expect_ok(&Request::Prepare {
            id: id.into(),
            plan: plan.clone(),
        })
    }

    /// `EXECUTE <id>` streaming the result: an iterator of bounded
    /// [`RowChunk`]s, the primary result API. Dropping the iterator
    /// early drains the remaining frames so the connection stays usable.
    pub fn execute_stream(&mut self, id: &str) -> ClientResult<RowStream<'_>> {
        self.start_stream(&Request::Execute { id: id.into() })
    }

    /// `QUERY …` (one-shot prepare + execute) streaming the result.
    pub fn query_stream(&mut self, plan: &PlanSpec) -> ClientResult<RowStream<'_>> {
        self.start_stream(&Request::Query { plan: plan.clone() })
    }

    fn start_stream(&mut self, request: &Request) -> ClientResult<RowStream<'_>> {
        self.send(&request.to_string())?;
        Ok(RowStream {
            client: self,
            done: false,
            seen: None,
        })
    }

    /// `MORE <cursor>` — fetch one chunk of a cached result (v2).
    pub fn more(&mut self, cursor: Cursor) -> ClientResult<RowChunk> {
        match self.request(&Request::More { cursor })? {
            Response::Chunk(chunk) => Ok(chunk),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!("expected ROWS, got {other}"))),
        }
    }

    /// `EXECUTE <id>` — run a prepared query and collect the whole
    /// result (drains the chunk stream under v2).
    pub fn execute(&mut self, id: &str) -> ClientResult<RowSet> {
        self.execute_stream(id)?.collect_rowset()
    }

    /// `QUERY …` — one-shot prepare + execute, whole result.
    pub fn query(&mut self, plan: &PlanSpec) -> ClientResult<RowSet> {
        self.query_stream(plan)?.collect_rowset()
    }

    /// `EXPLAIN <id>` — the one-line plan summary.
    pub fn explain(&mut self, id: &str) -> ClientResult<String> {
        match self.request(&Request::Explain { id: id.into() })? {
            Response::Explain(text) => Ok(text),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected EXPLAIN, got {other}"
            ))),
        }
    }

    /// `STATS` — server counters.
    pub fn stats(&mut self) -> ClientResult<ServerStats> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected STATS, got {other}"
            ))),
        }
    }

    /// `SYNC` — the names of every registered relation, sorted.
    pub fn sync_names(&mut self) -> ClientResult<Vec<String>> {
        self.sync_catalog().map(|(_, names)| names)
    }

    /// `SYNC` — the server's catalog epoch plus every registered relation
    /// name, sorted. The epoch is what a replica compares against its
    /// last-synced value to decide whether to re-clone (a pre-epoch
    /// server reports 0).
    pub fn sync_catalog(&mut self) -> ClientResult<(u64, Vec<String>)> {
        match self.request(&Request::Sync { name: None })? {
            Response::Catalog { epoch, names } => Ok((epoch, names)),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected CATALOG, got {other}"
            ))),
        }
    }

    /// `SYNC <name>` — one relation exported as annotated CSV (newline
    /// row separators restored; feed it straight to `register_csv` or
    /// [`load_csv`](KsjqClient::load_csv)).
    pub fn sync_relation(&mut self, name: &str) -> ClientResult<String> {
        match self.request(&Request::Sync {
            name: Some(name.into()),
        })? {
            Response::Relation { csv, .. } => Ok(csv),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected RELATION, got {other}"
            ))),
        }
    }

    /// `STAGE <name> INLINE <csv>` — parse and hold server-side without
    /// touching the live binding (phase one of a two-phase load).
    ///
    /// Rejects CSV containing `';'` for the same reason
    /// [`load_csv`](KsjqClient::load_csv) does.
    pub fn stage_csv(&mut self, name: &str, csv: &str) -> ClientResult<String> {
        if csv.contains(';') {
            return Err(ClientError::Protocol(
                "inline CSV must not contain ';' (the wire row separator)".into(),
            ));
        }
        self.expect_ok(&Request::Stage {
            name: name.into(),
            csv: csv.into(),
        })
    }

    /// `COMMIT <name>` — publish a staged relation (phase two).
    pub fn commit(&mut self, name: &str) -> ClientResult<String> {
        self.expect_ok(&Request::Commit { name: name.into() })
    }

    /// `ABORT <name>` — discard staged data; succeeds even if nothing
    /// was staged under that name.
    pub fn abort(&mut self, name: &str) -> ClientResult<String> {
        self.expect_ok(&Request::Abort { name: name.into() })
    }

    /// `STAGED?` — every name with a pending staged relation or delta,
    /// sorted. A recovering router probes this to decide whether an
    /// in-doubt transaction's `COMMIT` still has anything to commit on
    /// this replica.
    pub fn staged_names(&mut self) -> ClientResult<Vec<String>> {
        match self.request(&Request::StagedQuery)? {
            Response::Staged { names } => Ok(names),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected STAGED, got {other}"
            ))),
        }
    }

    /// `APPEND <name> ROWS <csv>` — immediately extend an existing
    /// relation with header-less CSV rows (first cell the join key, then
    /// the relation's `d` values). Rejects CSV containing `';'` for the
    /// same reason [`load_csv`](KsjqClient::load_csv) does.
    pub fn append_rows(&mut self, name: &str, csv: &str) -> ClientResult<String> {
        self.append_inner(name, csv, false)
    }

    /// `APPEND <name> STAGE <csv>` — parse and hold a delta for a later
    /// [`commit`](KsjqClient::commit) / [`abort`](KsjqClient::abort)
    /// (phase one of a router's distributed append).
    pub fn append_stage(&mut self, name: &str, csv: &str) -> ClientResult<String> {
        self.append_inner(name, csv, true)
    }

    fn append_inner(&mut self, name: &str, csv: &str, staged: bool) -> ClientResult<String> {
        if csv.contains(';') {
            return Err(ClientError::Protocol(
                "append CSV must not contain ';' (the wire row separator)".into(),
            ));
        }
        self.expect_ok(&Request::Append {
            name: name.into(),
            rows: csv.into(),
            staged,
        })
    }

    /// `DELETE <name> KEYS <k1,k2,…>` — drop every row carrying one of
    /// the listed join keys.
    pub fn delete_keys(&mut self, name: &str, keys: &[String]) -> ClientResult<String> {
        self.expect_ok(&Request::Delete {
            name: name.into(),
            keys: keys.to_vec(),
        })
    }

    /// `FETCH … PAIRS …` — specific result pairs as legs, in the
    /// server's internal normalised form.
    pub fn fetch(
        &mut self,
        left: &str,
        right: &str,
        aggs: &[ksjq_join::AggFunc],
        pairs: &[(u32, u32)],
    ) -> ClientResult<LegSet> {
        match self.request(&Request::Fetch {
            left: left.into(),
            right: right.into(),
            aggs: aggs.to_vec(),
            pairs: pairs.to_vec(),
        })? {
            Response::Legs(legs) => Ok(legs),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!("expected LEGS, got {other}"))),
        }
    }

    /// `CHECK … K <k> L … R … P …` — for each candidate pair of `legs`,
    /// whether any joined tuple held by this server k-dominates it.
    pub fn check(
        &mut self,
        left: &str,
        right: &str,
        aggs: &[ksjq_join::AggFunc],
        k: usize,
        legs: &LegSet,
    ) -> ClientResult<Vec<bool>> {
        match self.request(&Request::Check {
            left: left.into(),
            right: right.into(),
            aggs: aggs.to_vec(),
            k,
            legs: legs.clone(),
        })? {
            Response::Checked(bits) => Ok(bits),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected CHECKED, got {other}"
            ))),
        }
    }

    /// `CLOSE` — end the session; consumes the client.
    pub fn close(mut self) -> ClientResult<()> {
        match self.request(&Request::Close)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Protocol(format!("expected BYE, got {other}"))),
        }
    }
}

/// A streamed query result: one [`RowChunk`] per `next()`, read lazily
/// off the socket. Ends after the final part, or after the first error
/// (an `ERR` frame or a transport failure — both terminal).
///
/// Dropping the stream before the final part drains the remaining frames
/// (best-effort) so the connection's lockstep framing survives early
/// exits like `.take(1)`.
#[derive(Debug)]
pub struct RowStream<'a> {
    client: &'a mut KsjqClient,
    done: bool,
    /// What the chunks so far promised and delivered.
    seen: Option<Progress>,
}

/// The header of a stream's first chunk, and how far the stream got.
#[derive(Debug, Clone, Copy)]
struct Progress {
    parts: u32,
    total: usize,
    part: u32,
    received: usize,
}

impl Progress {
    /// Check `chunk` against the chunks before it: parts arrive in
    /// order, every chunk repeats the first one's `parts` and `n=`, the
    /// pairs never exceed `n=`, a non-final part leaves pairs to come (the
    /// server never sends an empty non-final part), and the final part
    /// brings the count to exactly `n=`. A corrupted header thus ends the
    /// stream at once instead of leaving the reader waiting for parts that
    /// never come.
    fn advance(seen: Option<Progress>, chunk: &RowChunk) -> Result<Progress, String> {
        let (part, received) = match seen {
            None => (1, chunk.pairs.len()),
            Some(p) if chunk.parts != p.parts || chunk.total != p.total => {
                return Err(format!(
                    "ROWS part {} says parts={} n={}, the stream began with parts={} n={}",
                    chunk.part, chunk.parts, chunk.total, p.parts, p.total
                ))
            }
            Some(p) => (p.part + 1, p.received + chunk.pairs.len()),
        };
        if chunk.part != part {
            return Err(format!(
                "ROWS part {} where part {part} was due",
                chunk.part
            ));
        }
        let last = chunk.part == chunk.parts;
        if received > chunk.total
            || (last && received != chunk.total)
            || (!last && received == chunk.total)
        {
            return Err(format!(
                "ROWS part {}/{} brings the pair count to {received} of n={}",
                chunk.part, chunk.parts, chunk.total
            ));
        }
        Ok(Progress {
            parts: chunk.parts,
            total: chunk.total,
            part,
            received,
        })
    }
}

impl RowStream<'_> {
    /// Drain the stream into a single [`RowSet`] (the v1-shaped result):
    /// `k`/`micros`/`cached` from the first chunk, pairs concatenated.
    pub fn collect_rowset(mut self) -> ClientResult<RowSet> {
        let mut rows: Option<RowSet> = None;
        for chunk in &mut self {
            let chunk = chunk?;
            let rows = rows.get_or_insert_with(|| RowSet {
                k: chunk.k,
                micros: chunk.micros,
                cached: chunk.cached,
                pairs: Vec::with_capacity(chunk.total),
            });
            rows.pairs.extend(chunk.pairs);
        }
        rows.ok_or_else(|| ClientError::Protocol("empty result stream".into()))
    }
}

impl Iterator for RowStream<'_> {
    type Item = ClientResult<RowChunk>;

    fn next(&mut self) -> Option<ClientResult<RowChunk>> {
        if self.done {
            return None;
        }
        let response = match self.client.read_response() {
            Ok(response) => response,
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        };
        Some(match response {
            Response::Chunk(chunk) => match Progress::advance(self.seen, &chunk) {
                Ok(progress) => {
                    self.seen = Some(progress);
                    self.done = chunk.is_last();
                    Ok(chunk)
                }
                Err(message) => {
                    // The stream's framing is lost: stop here, and let
                    // `Drop` leave the rest of it unread.
                    self.done = true;
                    Err(ClientError::Protocol(message))
                }
            },
            // A v1 server (or session) answers with one whole-result
            // frame: surface it as a single synthetic chunk so the
            // streaming API works against either version.
            Response::Rows(rows) => {
                self.done = true;
                Ok(RowChunk {
                    k: rows.k,
                    micros: rows.micros,
                    cached: rows.cached,
                    total: rows.pairs.len(),
                    part: 1,
                    parts: 1,
                    cursor: None,
                    pairs: rows.pairs,
                })
            }
            Response::Error { code, message } => {
                self.done = true;
                Err(ClientError::Server { code, message })
            }
            other => {
                self.done = true;
                Err(ClientError::Protocol(format!("expected ROWS, got {other}")))
            }
        })
    }
}

impl Drop for RowStream<'_> {
    fn drop(&mut self) {
        // Abandoned mid-stream: swallow the remaining frames so the next
        // request on this connection reads its own response, not ours.
        while !self.done {
            match self.next() {
                Some(Ok(_)) => {}
                _ => break, // end of stream, or a terminal error
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A one-shot fake server: answers `HELLO`, then answers the next
    /// request with `frame` and holds the socket open until `release`
    /// fires, like a server whose reaper has not come round yet.
    fn fake_server(frame: &'static str) -> (std::net::SocketAddr, mpsc::Sender<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, hold) = mpsc::channel::<()>();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            writer.write_all(b"HELLO v=2\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            writer.write_all(frame.as_bytes()).unwrap();
            let _ = hold.recv();
        });
        (addr, release)
    }

    /// Run one streamed query against `frame` on a client with no read
    /// timeout; the stream's first item, or `None` if the client was
    /// still blocked after 10 s.
    fn first_item(frame: &'static str) -> Option<ClientResult<RowChunk>> {
        let (addr, release) = fake_server(frame);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut client = KsjqClient::connect(addr).unwrap();
            let mut stream = client.query_stream(&PlanSpec::new("a", "b")).unwrap();
            let first = stream.next().expect("the stream yields an item");
            drop(stream); // must not wait for the missing parts
            let _ = tx.send(first);
        });
        let got = rx.recv_timeout(Duration::from_secs(10)).ok();
        let _ = release.send(());
        got
    }

    #[test]
    fn rows_header_claiming_more_parts_than_its_pairs_fill_fails_at_once() {
        // All 4 pairs of n=4 arrive in part 1, yet the header says 3
        // parts (one flipped bit turns `1/1` into `1/3`): without the
        // check the client waits for parts 2 and 3 forever.
        let got = first_item("ROWS k=7 us=1 cached=0 n=4 part=1/3 0:0 1:1 2:2 3:3\n")
            .expect("the client must not block on parts that never come");
        assert!(matches!(got, Err(ClientError::Protocol(_))), "{got:?}");
    }

    #[test]
    fn rows_chunks_must_stay_within_their_header() {
        for frame in [
            // More pairs than n=.
            "ROWS k=7 us=1 cached=0 n=2 part=1/2 0:0 1:1 2:2\n",
            // The stream must start at part 1.
            "ROWS k=7 us=1 cached=0 n=4 part=2/2 0:0 1:1\n",
            // The final part must complete n=.
            "ROWS k=7 us=1 cached=0 n=4 part=1/1 0:0 1:1\n",
        ] {
            let got = first_item(frame).expect("no blocking");
            assert!(
                matches!(got, Err(ClientError::Protocol(_))),
                "{frame}: {got:?}"
            );
        }
    }

    #[test]
    fn progress_accepts_a_well_formed_stream() {
        let chunk = |part, pairs: usize| RowChunk {
            k: 7,
            micros: 0,
            cached: false,
            total: 5,
            part,
            parts: 3,
            cursor: None,
            pairs: vec![(0, 0); pairs],
        };
        let p = Progress::advance(None, &chunk(1, 2)).unwrap();
        let p = Progress::advance(Some(p), &chunk(2, 2)).unwrap();
        assert!(Progress::advance(Some(p), &chunk(3, 2)).is_err(), "6 > n=5");
        assert!(
            Progress::advance(Some(p), &chunk(2, 1)).is_err(),
            "part repeated"
        );
        let mut other = chunk(3, 1);
        other.total = 6;
        assert!(Progress::advance(Some(p), &other).is_err(), "n= changed");
        let p = Progress::advance(Some(p), &chunk(3, 1)).unwrap();
        assert_eq!(p.received, 5);
        let empty = RowChunk {
            total: 0,
            parts: 1,
            ..chunk(1, 0)
        };
        assert!(
            Progress::advance(None, &empty).is_ok(),
            "an empty result is one empty part"
        );
    }
}
