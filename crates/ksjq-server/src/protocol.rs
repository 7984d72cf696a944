//! The KSJQ wire protocol: a line-oriented command language.
//!
//! Every request and every response frame is exactly one `\n`-terminated
//! line of UTF-8 text, so a session works from any language — or from
//! `nc` by hand. Both directions have typed representations
//! ([`Request`], [`Response`]) whose `Display` serialisation and
//! [`parse`](Request::parse) round-trip, which is what the client, the
//! server and the fuzz tests all build on.
//!
//! ## Versions
//!
//! A session starts in **v1**: strict lockstep, one response line per
//! request line, and `EXECUTE`/`QUERY` ship the entire skyline in a
//! single unbounded `ROWS` line. Sending `HELLO <max-version>` as a
//! request negotiates up: the server answers `HELLO v=<chosen>` with
//! `chosen = min(max-version, 2)` and the session switches to that
//! version. Under **v2** a result is *streamed* as a sequence of bounded
//! `ROWS … part=<i>/<m>` frames (at most [`ROWS_PER_CHUNK`] pairs and
//! [`MAX_ROWS_FRAME_BYTES`] bytes each), every non-final frame carrying a
//! `cursor=` token that `MORE <cursor>` can later resume from — pull-mode
//! paging served straight from the result cache.
//!
//! ## Commands
//!
//! ```text
//! HELLO <max-version>                               negotiate the protocol version
//! LOAD <name> INLINE <csv>                          csv rows separated by ';'
//! LOAD <name> SYNTHETIC <ind|corr|anti> n=<n> d=<d> [a=<a>] [g=<g>] [seed=<s>]
//! PREPARE <id> <left> JOIN <right> [AGG f,f…] [K <k>] [GOAL <goal>] [ALGO <a>] [KDOM <k>]
//! EXECUTE <id>
//! QUERY <left> JOIN <right> [AGG …] [K …] [GOAL …] [ALGO …] [KDOM …]
//! MORE <result>:<part>                              re-fetch one chunk (v2, cached results)
//! DEADLINE <ms>                                     per-session query deadline (0 clears it)
//! APPEND <name> ROWS <csv>                          append key,v,v… rows (no header) to a relation
//! DELETE <name> KEYS <k1,k2,…>                      delete all rows with the given join keys
//! EXPLAIN <id>
//! STATS
//! CLOSE
//! ```
//!
//! ### Distribution commands (replicas and the shard router)
//!
//! ```text
//! SYNC                                              list catalog relation names
//! SYNC <name>                                       export one relation as annotated CSV
//! STAGE <name> INLINE <csv>                         parse + hold a pending LOAD (no binding change)
//! APPEND <name> STAGE <csv>                         parse + hold a pending delta (two-phase append)
//! COMMIT <name>                                     atomically publish a staged relation or delta
//! ABORT <name>                                      drop a staged relation/delta, old binding stays live
//! STAGED?                                           list names with pending staged data (in-doubt resolution)
//! FETCH <left> JOIN <right> [AGG f,f…] PAIRS <l:r>;<l:r>…   the given pairs as legs
//! CHECK <left> JOIN <right> [AGG f,f…] K <k> L <legs> R <legs> P <i:j>;…   is each pair k-dominated here?
//! ```
//!
//! `FETCH` and `CHECK` ship candidate pairs as **legs** ([`LegSet`]): the
//! distinct base tuples the pairs use, each sent once by value, plus the
//! pairs as `<i>:<j>` indices into the left (`L`) and right (`R`) leg
//! lists. A left leg is its `l1` local values, then its `a` aggregate
//! inputs, in the stored normalised form (`v,v…`, legs `';'`-separated);
//! right legs likewise with `l2`. An empty list is left out with its
//! keyword.
//!
//! ## Responses
//!
//! ```text
//! OK <info>
//! HELLO v=<version>
//! ROWS k=<k> us=<micros> cached=<0|1> n=<n> <l>:<r> <l>:<r> …            (v1: whole result)
//! ROWS k=<k> us=<micros> cached=<0|1> n=<total> part=<i>/<m> [cursor=<c>] <l>:<r> …  (v2 chunk)
//! EXPLAIN <one-line plan summary>
//! STATS connections=… requests=… … cache_hits=… cache_misses=…
//! CATALOG n=<n> epoch=<e> <name> <name> …           reply to SYNC (epoch = catalog epoch)
//! RELATION <name> <csv>                             reply to SYNC <name> (rows ';'-separated)
//! LEGS n=<pairs> L <legs> R <legs> P <i:j>;…        reply to FETCH (pairs in request order)
//! CHECKED n=<n> <01…>                               reply to CHECK (one bit per P entry)
//! STAGED n=<n> <name> <name> …                      reply to STAGED? (names with pending stages)
//! ERR <code> <message>
//! BYE
//! ```
//!
//! `ERR` frames lead with a stable machine-readable [`ErrorCode`] token
//! (`busy`, `timeout`, `unavailable`, `parse`, `recovering`, `invalid`,
//! `internal`) followed by the human-readable message. Frames from older
//! peers whose first word is not a known code parse as
//! [`ErrorCode::Unknown`] with the full text preserved as the message.
//!
//! Goals use the compact `FromStr` spellings of [`Goal`] (`exact:7`,
//! `skyline`, `atleast:10:binary`); algorithms and kdom subroutines use
//! their `Display` names. Inline CSV must not contain `';'` (the row
//! separator on the wire) — none of the toolchain's CSVs do.

use ksjq_core::{Algorithm, Goal, KdomAlgo, QueryPlan};
use ksjq_datagen::{DataType, DatasetSpec};
use ksjq_join::AggFunc;
use std::fmt;

/// Hard cap on one **request** line, enforced by the server: anything
/// longer is answered with an error frame and discarded — never buffered
/// unboundedly, never a panic. v1 response lines are not capped (a v1
/// `ROWS` frame carries the whole skyline), so clients must not impose
/// this limit on what they read; v2 `ROWS` chunks are bounded by
/// [`MAX_ROWS_FRAME_BYTES`].
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The newest protocol version this build speaks. `HELLO n` negotiates
/// `min(n, PROTOCOL_VERSION)`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Maximum `(left, right)` pairs per v2 `ROWS` chunk frame. Sized so the
/// worst-case serialised frame (every pair two ten-digit ids) stays under
/// [`MAX_ROWS_FRAME_BYTES`] — the unit test `worst_case_chunk_frame_fits`
/// pins the arithmetic.
pub const ROWS_PER_CHUNK: usize = 2048;

/// Upper bound on one serialised v2 `ROWS` chunk frame, newline included.
pub const MAX_ROWS_FRAME_BYTES: usize = 64 * 1024;

/// A resumption point into a chunked result: which cached result, and
/// which 1-based part to fetch. Serialised as the single token
/// `<result>:<part>` — in `MORE` requests and in the `cursor=` field of
/// v2 `ROWS` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// Server-assigned id of the cached result (see
    /// [`ResultCache`](crate::ResultCache)).
    pub result: u64,
    /// 1-based part number to fetch next.
    pub part: u32,
}

impl Cursor {
    /// Parse the `<result>:<part>` wire token.
    pub fn parse(token: &str) -> ProtoResult<Cursor> {
        let (result, part) = token
            .split_once(':')
            .ok_or_else(|| format!("bad cursor {token:?} (expected <result>:<part>)"))?;
        let result = result
            .parse::<u64>()
            .map_err(|_| format!("bad cursor {token:?}"))?;
        let part = part
            .parse::<u32>()
            .map_err(|_| format!("bad cursor {token:?}"))?;
        if part == 0 {
            return Err(format!("bad cursor {token:?}: parts are 1-based"));
        }
        Ok(Cursor { result, part })
    }
}

impl fmt::Display for Cursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.result, self.part)
    }
}

/// Protocol-level result: errors are plain messages destined for an
/// `ERR` frame.
pub type ProtoResult<T> = Result<T, String>;

/// Stable machine-readable category of an `ERR` frame — the first token
/// after `ERR`, so clients and tests branch on the code instead of
/// string-matching the human-readable message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Connection shed by admission control; retry against another
    /// replica or later.
    Busy,
    /// The request's deadline expired before execution finished.
    Timeout,
    /// A required shard/replica could not be reached (router) or the
    /// backend is gone.
    Unavailable,
    /// The request line did not parse.
    Parse,
    /// The server is replaying its WAL or re-cloning from its primary
    /// and refuses reads that could be stale or torn.
    Recovering,
    /// The request parsed but is semantically invalid here (unknown
    /// relation, bad k, unknown id, …).
    Invalid,
    /// An unexpected server-side failure (a panicked worker, say).
    Internal,
    /// The frame carried no recognised code (pre-code peers, foreign
    /// servers); the full text stays in the message.
    Unknown,
}

impl ErrorCode {
    /// The wire token (`Display` emits the same; [`ErrorCode::Unknown`]
    /// has no token — it is the absence of one).
    pub fn token(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Parse => "parse",
            ErrorCode::Recovering => "recovering",
            ErrorCode::Invalid => "invalid",
            ErrorCode::Internal => "internal",
            ErrorCode::Unknown => "unknown",
        }
    }

    /// Parse a wire token; `None` for anything unrecognised (the caller
    /// treats the whole text as an [`ErrorCode::Unknown`] message).
    pub fn from_token(token: &str) -> Option<ErrorCode> {
        Some(match token {
            "busy" => ErrorCode::Busy,
            "timeout" => ErrorCode::Timeout,
            "unavailable" => ErrorCode::Unavailable,
            "parse" => ErrorCode::Parse,
            "recovering" => ErrorCode::Recovering,
            "invalid" => ErrorCode::Invalid,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Is a retry (against the same or another backend) reasonable?
    /// `busy`, `timeout`, `unavailable` and `recovering` are transient;
    /// the rest are deterministic failures.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            ErrorCode::Busy | ErrorCode::Timeout | ErrorCode::Unavailable | ErrorCode::Recovering
        )
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Where `LOAD` gets its data.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSource {
    /// CSV text shipped on the command line (rows `';'`-separated on the
    /// wire, newline-separated here). First column is the join key; see
    /// `Catalog::register_csv` for the header annotation grammar.
    Inline {
        /// The CSV text, newline row separators.
        csv: String,
    },
    /// Server-side synthetic generation (the paper's Table 7 knobs).
    Synthetic(SyntheticSpec),
}

/// Knobs of a `LOAD … SYNTHETIC` request, mirroring [`DatasetSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticSpec {
    /// Data distribution.
    pub data_type: DataType,
    /// Number of tuples.
    pub n: usize,
    /// Total attributes (`d = a + l`).
    pub d: usize,
    /// Aggregate-slot attributes (`a ≤ d`).
    pub a: usize,
    /// Join groups.
    pub g: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticSpec {
    /// The equivalent generator spec.
    pub fn dataset_spec(&self) -> DatasetSpec {
        DatasetSpec {
            n: self.n,
            agg_attrs: self.a,
            local_attrs: self.d - self.a,
            groups: self.g,
            data_type: self.data_type,
            seed: self.seed,
        }
    }
}

/// The query half of `PREPARE` / `QUERY`: an owned, wire-transportable
/// [`QueryPlan`] description.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// Left catalog relation name.
    pub left: String,
    /// Right catalog relation name.
    pub right: String,
    /// Aggregation functions, slot order.
    pub aggs: Vec<AggFunc>,
    /// What to compute.
    pub goal: Goal,
    /// Which KSJQ algorithm runs it.
    pub algorithm: Algorithm,
    /// Optional kdom subroutine override.
    pub kdom: Option<KdomAlgo>,
}

impl PlanSpec {
    /// A spec with all defaults (equality join, no aggregation, ordinary
    /// skyline join, grouping algorithm).
    pub fn new(left: impl Into<String>, right: impl Into<String>) -> Self {
        PlanSpec {
            left: left.into(),
            right: right.into(),
            aggs: Vec::new(),
            goal: Goal::SkylineJoin,
            algorithm: Algorithm::default(),
            kdom: None,
        }
    }

    /// Set the aggregation functions.
    pub fn aggs(mut self, aggs: &[AggFunc]) -> Self {
        self.aggs = aggs.to_vec();
        self
    }

    /// Set the goal.
    pub fn goal(mut self, goal: Goal) -> Self {
        self.goal = goal;
        self
    }

    /// Shorthand for [`goal(Goal::Exact(k))`](Self::goal).
    pub fn k(self, k: usize) -> Self {
        self.goal(Goal::Exact(k))
    }

    /// Set the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set the kdom subroutine override.
    pub fn kdom(mut self, kdom: KdomAlgo) -> Self {
        self.kdom = Some(kdom);
        self
    }

    /// The engine-side plan this spec describes.
    pub fn to_plan(&self) -> QueryPlan {
        let mut plan = QueryPlan::new(self.left.as_str(), self.right.as_str())
            .aggregates(&self.aggs)
            .goal(self.goal)
            .algorithm(self.algorithm);
        if let Some(kdom) = self.kdom {
            plan = plan.kdom(kdom);
        }
        plan
    }

    /// A normalised cache key: every wire spelling of the same logical
    /// plan (`K 7` vs `GOAL exact:7`, keyword order, case) fingerprints
    /// identically, because the key is derived from the parsed form.
    pub fn fingerprint(&self) -> String {
        match self.kdom {
            Some(kdom) => format!("{}|kdom={kdom}", self.to_plan()),
            None => format!("{}", self.to_plan()),
        }
    }
}

/// One client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Negotiate the protocol version: the server picks
    /// `min(version, PROTOCOL_VERSION)` and the session switches to it.
    Hello {
        /// Highest version the client speaks (≥ 1).
        version: u32,
    },
    /// Fetch one chunk of a cached result (v2 sessions only).
    More {
        /// Where to resume, as handed out in a `cursor=` field.
        cursor: Cursor,
    },
    /// Set the session's query deadline: every subsequent `EXECUTE` /
    /// `QUERY` / `CHECK` must finish within this many milliseconds of its
    /// arrival or is answered `ERR timeout`. `0` clears the deadline.
    /// Tightened against the server's own `--query-timeout`, if any (the
    /// smaller budget wins).
    Deadline {
        /// Per-request budget in milliseconds (0 = no session deadline).
        ms: u64,
    },
    /// Register a relation in the server's catalog.
    Load {
        /// Catalog name to register under.
        name: String,
        /// Data source.
        source: LoadSource,
    },
    /// Prepare a named query (validates everything; find-k goals resolve
    /// here). Re-preparing an existing id replaces it.
    Prepare {
        /// Session-map id for later `EXECUTE` / `EXPLAIN`.
        id: String,
        /// The query.
        plan: PlanSpec,
    },
    /// Execute a prepared query.
    Execute {
        /// A previously `PREPARE`d id.
        id: String,
    },
    /// One-shot prepare + execute.
    Query {
        /// The query.
        plan: PlanSpec,
    },
    /// Describe what a prepared query will run.
    Explain {
        /// A previously `PREPARE`d id.
        id: String,
    },
    /// Server counters.
    Stats,
    /// List the catalog (`SYNC`) or export one relation as annotated CSV
    /// (`SYNC <name>`) — what a replica replays at startup.
    Sync {
        /// `None` lists names; `Some` exports that relation.
        name: Option<String>,
    },
    /// Parse and hold a pending `LOAD` without touching the live binding
    /// (phase one of the router's two-phase catalog update). A header-only
    /// CSV stages an empty relation.
    Stage {
        /// Catalog name the staged data will commit under.
        name: String,
        /// CSV text, newline row separators (`';'` on the wire).
        csv: String,
    },
    /// Atomically publish a staged relation — or apply a staged append
    /// delta (phase two of either two-phase path).
    Commit {
        /// A previously `STAGE`d (or `APPEND … STAGE`d) name.
        name: String,
    },
    /// Drop a staged relation or delta; the old binding stays live.
    Abort {
        /// A previously staged name (idempotent if absent).
        name: String,
    },
    /// List every name with a pending staged relation or delta — how a
    /// restarting router resolves in-doubt two-phase transactions: a
    /// replica whose stage survives gets the logged decision replayed; a
    /// replica with nothing staged has already resolved.
    StagedQuery,
    /// Append rows to a registered relation, deriving the next catalog
    /// epoch (live catalogs). Rows are header-less CSV against the
    /// relation's existing schema: first cell the join key, then the
    /// attribute values.
    Append {
        /// A registered relation name.
        name: String,
        /// CSV rows, newline-separated here (`';'` on the wire).
        rows: String,
        /// `true` (`APPEND … STAGE`): parse and hold the delta for a
        /// later `COMMIT` — the router's two-phase path. `false`
        /// (`APPEND … ROWS`): apply immediately.
        staged: bool,
    },
    /// Delete every row whose join key is listed, deriving the next
    /// catalog epoch.
    Delete {
        /// A registered relation name.
        name: String,
        /// Join-key strings (the CSV first-column values), comma-joined
        /// on the wire.
        keys: Vec<String>,
    },
    /// Ship specific `(left, right)` pairs as legs — the router fetches
    /// candidates from their owning shard. Answered by [`Response::Legs`].
    Fetch {
        /// Left catalog relation name.
        left: String,
        /// Right catalog relation name.
        right: String,
        /// Aggregation functions, slot order.
        aggs: Vec<AggFunc>,
        /// The pairs to join, as shard-local tuple ids.
        pairs: Vec<(u32, u32)>,
    },
    /// For each candidate pair of `legs`, does *this* shard hold any
    /// joined tuple that k-dominates it? The router's cross-shard
    /// verification round.
    Check {
        /// Left catalog relation name.
        left: String,
        /// Right catalog relation name.
        right: String,
        /// Aggregation functions, slot order.
        aggs: Vec<AggFunc>,
        /// The `k` of the dominance test.
        k: usize,
        /// The candidates, as legs of `l1 + a` / `l2 + a` values.
        legs: LegSet,
    },
    /// End the session.
    Close,
}

/// First word + rest, whitespace-trimmed.
fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim_start()),
        None => (s, ""),
    }
}

/// Catalog names and session ids: one non-empty token without the wire's
/// structural characters.
fn validate_name(kind: &str, name: &str) -> ProtoResult<()> {
    if name.is_empty() {
        return Err(format!("missing {kind}"));
    }
    if name.contains(|c: char| c.is_whitespace() || c == ';') {
        return Err(format!("invalid {kind} {name:?}: no whitespace or ';'"));
    }
    Ok(())
}

fn parse_agg(s: &str) -> ProtoResult<AggFunc> {
    let t = s.trim().to_ascii_lowercase();
    match t.as_str() {
        "sum" => return Ok(AggFunc::Sum),
        "min" => return Ok(AggFunc::Min),
        "max" => return Ok(AggFunc::Max),
        _ => {}
    }
    if let Some(args) = t.strip_prefix("wsum(").and_then(|r| r.strip_suffix(')')) {
        if let Some((l, r)) = args.split_once(',') {
            let (l, r) = (
                l.trim().parse::<f64>().map_err(|e| e.to_string())?,
                r.trim().parse::<f64>().map_err(|e| e.to_string())?,
            );
            let func = AggFunc::WeightedSum { left: l, right: r };
            func.validate().map_err(|e| e.to_string())?;
            return Ok(func);
        }
    }
    Err(format!(
        "unknown aggregate {s:?} (expected sum, min, max or wsum(l,r))"
    ))
}

fn agg_token(func: &AggFunc) -> String {
    func.to_string() // "sum", "min", "max", "wsum(l,r)" — all single tokens
}

/// Split an `AGG` list on top-level commas only (`wsum(l,r)` has one
/// inside its parentheses).
fn split_agg_list(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// The compact, single-token goal spelling [`Goal`]'s `FromStr` accepts.
fn goal_token(goal: Goal) -> String {
    match goal {
        Goal::Exact(k) => format!("exact:{k}"),
        Goal::SkylineJoin => "skyline".into(),
        Goal::AtLeast(delta, s) => format!("atleast:{delta}:{s}"),
        Goal::AtMost(delta, s) => format!("atmost:{delta}:{s}"),
    }
}

/// Parse a `';'`-separated blob of `<l>:<r>` pair tokens.
fn parse_pairs_blob(blob: &str) -> ProtoResult<Vec<(u32, u32)>> {
    blob.split(';')
        .map(|t| {
            let (l, r) = t
                .split_once(':')
                .ok_or_else(|| format!("bad pair {t:?} (expected <l>:<r>)"))?;
            Ok((
                l.parse::<u32>().map_err(|_| format!("bad pair {t:?}"))?,
                r.parse::<u32>().map_err(|_| format!("bad pair {t:?}"))?,
            ))
        })
        .collect()
}

fn pairs_blob(pairs: &[(u32, u32)]) -> String {
    let tokens: Vec<String> = pairs.iter().map(|(l, r)| format!("{l}:{r}")).collect();
    tokens.join(";")
}

/// Candidate pairs as legs: the `LEGS` reply to `FETCH` and the payload
/// of `CHECK` (see the module docs for the layout). Parsing accepts legs
/// of any arity and any `f64`: whoever binds the relations checks them
/// ([`LegSet::indices_valid`], arity, finiteness). `f64`'s `Display` is
/// shortest-exact, so finite values round-trip bit-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LegSet {
    /// Left legs: `l1` local values, then `a` aggregate inputs.
    pub left: Vec<Vec<f64>>,
    /// Right legs: `l2` local values, then `a` aggregate inputs.
    pub right: Vec<Vec<f64>>,
    /// The candidates as `(left leg, right leg)` indices.
    pub pairs: Vec<(u32, u32)>,
}

impl LegSet {
    /// Does every pair name a leg that is there?
    pub fn indices_valid(&self) -> bool {
        self.pairs
            .iter()
            .all(|&(i, j)| (i as usize) < self.left.len() && (j as usize) < self.right.len())
    }

    /// Fill the `L`/`R`/`P` section `kw` from its wire `value`; `false`
    /// when `kw` names no section.
    fn parse_section(&mut self, kw: &str, value: &str) -> ProtoResult<bool> {
        match kw.to_ascii_uppercase().as_str() {
            "L" => self.left = parse_legs_blob(value)?,
            "R" => self.right = parse_legs_blob(value)?,
            "P" => self.pairs = parse_pairs_blob(value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Write the ` L … R … P …` sections, each left out when empty.
    fn write_sections(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (kw, legs) in [("L", &self.left), ("R", &self.right)] {
            if !legs.is_empty() {
                write!(f, " {kw} ")?;
                for (i, leg) in legs.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ";" };
                    write!(f, "{sep}{}", leg_token(leg))?;
                }
            }
        }
        if !self.pairs.is_empty() {
            write!(f, " P {}", pairs_blob(&self.pairs))?;
        }
        Ok(())
    }
}

/// One leg's wire token: its values `','`-separated. The router sizes
/// its `CHECK` frames by these exact lengths.
pub fn leg_token(values: &[f64]) -> String {
    let vals: Vec<String> = values.iter().map(f64::to_string).collect();
    vals.join(",")
}

/// Parse a leg blob: legs `';'`-separated, values `','`-separated.
fn parse_legs_blob(blob: &str) -> ProtoResult<Vec<Vec<f64>>> {
    blob.split(';')
        .map(|leg| {
            leg.split(',')
                .map(|v| v.parse::<f64>().map_err(|_| format!("bad value {v:?}")))
                .collect()
        })
        .collect()
}

/// The shared `<left> JOIN <right>` prefix of `FETCH` / `CHECK`.
fn parse_join_names(rest: &str) -> ProtoResult<(String, String, &str)> {
    let (left, rest) = split_word(rest);
    validate_name("left relation name", left)?;
    let (join_kw, rest) = split_word(rest);
    if !join_kw.eq_ignore_ascii_case("JOIN") {
        return Err(format!("expected JOIN after {left:?}, got {join_kw:?}"));
    }
    let (right, rest) = split_word(rest);
    validate_name("right relation name", right)?;
    Ok((left.into(), right.into(), rest))
}

fn parse_plan(rest: &str) -> ProtoResult<PlanSpec> {
    let (left, rest) = split_word(rest);
    validate_name("left relation name", left)?;
    let (join_kw, rest) = split_word(rest);
    if !join_kw.eq_ignore_ascii_case("JOIN") {
        return Err(format!("expected JOIN after {left:?}, got {join_kw:?}"));
    }
    let (right, mut rest) = split_word(rest);
    validate_name("right relation name", right)?;
    let mut spec = PlanSpec::new(left, right);
    while !rest.is_empty() {
        let (kw, after) = split_word(rest);
        let (value, after) = split_word(after);
        if value.is_empty() {
            return Err(format!("{} needs a value", kw.to_ascii_uppercase()));
        }
        match kw.to_ascii_uppercase().as_str() {
            "AGG" => {
                spec.aggs = split_agg_list(value)
                    .into_iter()
                    .map(parse_agg)
                    .collect::<ProtoResult<_>>()?;
            }
            "K" => {
                let k = value
                    .parse::<usize>()
                    .map_err(|_| format!("K needs an integer, got {value:?}"))?;
                spec.goal = Goal::Exact(k);
            }
            "GOAL" => spec.goal = value.parse::<Goal>()?,
            "ALGO" => spec.algorithm = value.parse::<Algorithm>()?,
            "KDOM" => spec.kdom = Some(value.parse::<KdomAlgo>()?),
            other => return Err(format!("unknown plan keyword {other:?}")),
        }
        rest = after;
    }
    Ok(spec)
}

fn plan_tail(plan: &PlanSpec) -> String {
    let mut out = String::new();
    if !plan.aggs.is_empty() {
        let list: Vec<String> = plan.aggs.iter().map(agg_token).collect();
        out.push_str(&format!(" AGG {}", list.join(",")));
    }
    match plan.goal {
        Goal::SkylineJoin => {} // the default — omitted
        Goal::Exact(k) => out.push_str(&format!(" K {k}")),
        goal => out.push_str(&format!(" GOAL {}", goal_token(goal))),
    }
    if plan.algorithm != Algorithm::default() {
        out.push_str(&format!(" ALGO {}", plan.algorithm));
    }
    if let Some(kdom) = plan.kdom {
        out.push_str(&format!(" KDOM {kdom}"));
    }
    out
}

impl Request {
    /// Parse one request line. Never panics, whatever the input.
    pub fn parse(line: &str) -> ProtoResult<Request> {
        let line = line.trim();
        if line.is_empty() {
            return Err("empty request".into());
        }
        let (cmd, rest) = split_word(line);
        match cmd.to_ascii_uppercase().as_str() {
            "HELLO" => {
                let (version, trailing) = split_word(rest);
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                let version = version
                    .parse::<u32>()
                    .map_err(|_| format!("HELLO needs a version number, got {version:?}"))?;
                if version == 0 {
                    return Err("HELLO needs a version ≥ 1".into());
                }
                Ok(Request::Hello { version })
            }
            "MORE" => {
                let (token, trailing) = split_word(rest);
                if token.is_empty() {
                    return Err("MORE needs a cursor".into());
                }
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                Ok(Request::More {
                    cursor: Cursor::parse(token)?,
                })
            }
            "DEADLINE" => {
                let (ms, trailing) = split_word(rest);
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                let ms = ms
                    .parse::<u64>()
                    .map_err(|_| format!("DEADLINE needs milliseconds, got {ms:?}"))?;
                Ok(Request::Deadline { ms })
            }
            "LOAD" => {
                let (name, rest) = split_word(rest);
                validate_name("relation name", name)?;
                let (kind, rest) = split_word(rest);
                match kind.to_ascii_uppercase().as_str() {
                    "INLINE" => {
                        if rest.is_empty() {
                            return Err("LOAD … INLINE needs CSV text".into());
                        }
                        Ok(Request::Load {
                            name: name.into(),
                            source: LoadSource::Inline {
                                csv: rest.replace(';', "\n"),
                            },
                        })
                    }
                    "SYNTHETIC" => {
                        let (dt, rest) = split_word(rest);
                        let data_type = dt.parse::<DataType>()?;
                        let (mut n, mut d, mut a, mut g, mut seed) = (None, None, 0usize, 10, 42);
                        for kv in rest.split_whitespace() {
                            let (key, value) = kv
                                .split_once('=')
                                .ok_or_else(|| format!("expected key=value, got {kv:?}"))?;
                            let int = || {
                                value
                                    .parse::<usize>()
                                    .map_err(|_| format!("{key} needs an integer, got {value:?}"))
                            };
                            match key.to_ascii_lowercase().as_str() {
                                "n" => n = Some(int()?),
                                "d" => d = Some(int()?),
                                "a" => a = int()?,
                                "g" => g = int()?,
                                "seed" => seed = int()? as u64,
                                other => return Err(format!("unknown knob {other:?}")),
                            }
                        }
                        let n = n.ok_or("SYNTHETIC needs n=<tuples>")?;
                        let d = d.ok_or("SYNTHETIC needs d=<attributes>")?;
                        if n == 0 || d == 0 || a > d || g == 0 {
                            return Err(format!(
                                "invalid synthetic shape n={n} d={d} a={a} g={g} \
                                 (need n,d,g ≥ 1 and a ≤ d)"
                            ));
                        }
                        Ok(Request::Load {
                            name: name.into(),
                            source: LoadSource::Synthetic(SyntheticSpec {
                                data_type,
                                n,
                                d,
                                a,
                                g,
                                seed,
                            }),
                        })
                    }
                    other => Err(format!(
                        "unknown LOAD source {other:?} (expected INLINE or SYNTHETIC)"
                    )),
                }
            }
            "PREPARE" => {
                let (id, rest) = split_word(rest);
                validate_name("query id", id)?;
                Ok(Request::Prepare {
                    id: id.into(),
                    plan: parse_plan(rest)?,
                })
            }
            "QUERY" => Ok(Request::Query {
                plan: parse_plan(rest)?,
            }),
            "EXECUTE" | "EXPLAIN" => {
                let (id, trailing) = split_word(rest);
                validate_name("query id", id)?;
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                Ok(if cmd.eq_ignore_ascii_case("EXECUTE") {
                    Request::Execute { id: id.into() }
                } else {
                    Request::Explain { id: id.into() }
                })
            }
            "STATS" | "CLOSE" => {
                if !rest.is_empty() {
                    return Err(format!("unexpected trailing input {rest:?}"));
                }
                Ok(if cmd.eq_ignore_ascii_case("STATS") {
                    Request::Stats
                } else {
                    Request::Close
                })
            }
            "SYNC" => {
                let (name, trailing) = split_word(rest);
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                if name.is_empty() {
                    return Ok(Request::Sync { name: None });
                }
                validate_name("relation name", name)?;
                Ok(Request::Sync {
                    name: Some(name.into()),
                })
            }
            "STAGE" => {
                let (name, rest) = split_word(rest);
                validate_name("relation name", name)?;
                let (kind, rest) = split_word(rest);
                if !kind.eq_ignore_ascii_case("INLINE") {
                    return Err(format!("unknown STAGE source {kind:?} (expected INLINE)"));
                }
                if rest.is_empty() {
                    return Err("STAGE … INLINE needs CSV text".into());
                }
                Ok(Request::Stage {
                    name: name.into(),
                    csv: rest.replace(';', "\n"),
                })
            }
            "APPEND" => {
                let (name, rest) = split_word(rest);
                validate_name("relation name", name)?;
                let (mode, rest) = split_word(rest);
                let staged = match mode.to_ascii_uppercase().as_str() {
                    "ROWS" => false,
                    "STAGE" => true,
                    other => {
                        return Err(format!(
                            "unknown APPEND mode {other:?} (expected ROWS or STAGE)"
                        ))
                    }
                };
                if rest.is_empty() {
                    return Err("APPEND needs CSV rows".into());
                }
                Ok(Request::Append {
                    name: name.into(),
                    rows: rest.replace(';', "\n"),
                    staged,
                })
            }
            "DELETE" => {
                let (name, rest) = split_word(rest);
                validate_name("relation name", name)?;
                let (kw, rest) = split_word(rest);
                if !kw.eq_ignore_ascii_case("KEYS") {
                    return Err(format!("expected KEYS after {name:?}, got {kw:?}"));
                }
                let (list, trailing) = split_word(rest);
                if list.is_empty() {
                    return Err("DELETE needs KEYS <k1,k2,…>".into());
                }
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                let keys: Vec<String> = list.split(',').map(String::from).collect();
                if keys.iter().any(String::is_empty) {
                    return Err("DELETE keys must be non-empty".into());
                }
                Ok(Request::Delete {
                    name: name.into(),
                    keys,
                })
            }
            "STAGED?" => {
                if !rest.is_empty() {
                    return Err(format!("unexpected trailing input {rest:?}"));
                }
                Ok(Request::StagedQuery)
            }
            "COMMIT" | "ABORT" => {
                let (name, trailing) = split_word(rest);
                validate_name("relation name", name)?;
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                Ok(if cmd.eq_ignore_ascii_case("COMMIT") {
                    Request::Commit { name: name.into() }
                } else {
                    Request::Abort { name: name.into() }
                })
            }
            "FETCH" => {
                let (left, right, mut rest) = parse_join_names(rest)?;
                let mut aggs = Vec::new();
                let mut pairs = None;
                while !rest.is_empty() {
                    let (kw, after) = split_word(rest);
                    let (value, after) = split_word(after);
                    if value.is_empty() {
                        return Err(format!("{} needs a value", kw.to_ascii_uppercase()));
                    }
                    match kw.to_ascii_uppercase().as_str() {
                        "AGG" => {
                            aggs = split_agg_list(value)
                                .into_iter()
                                .map(parse_agg)
                                .collect::<ProtoResult<_>>()?;
                        }
                        "PAIRS" => pairs = Some(parse_pairs_blob(value)?),
                        other => return Err(format!("unknown FETCH keyword {other:?}")),
                    }
                    rest = after;
                }
                let pairs = pairs.ok_or("FETCH needs PAIRS <l:r>;<l:r>…")?;
                Ok(Request::Fetch {
                    left,
                    right,
                    aggs,
                    pairs,
                })
            }
            "CHECK" => {
                let (left, right, mut rest) = parse_join_names(rest)?;
                let mut aggs = Vec::new();
                let (mut k, mut legs) = (None, LegSet::default());
                while !rest.is_empty() {
                    let (kw, after) = split_word(rest);
                    let (value, after) = split_word(after);
                    if value.is_empty() {
                        return Err(format!("{} needs a value", kw.to_ascii_uppercase()));
                    }
                    match kw.to_ascii_uppercase().as_str() {
                        "AGG" => {
                            aggs = split_agg_list(value)
                                .into_iter()
                                .map(parse_agg)
                                .collect::<ProtoResult<_>>()?;
                        }
                        "K" => {
                            k = Some(
                                value
                                    .parse::<usize>()
                                    .map_err(|_| format!("K needs an integer, got {value:?}"))?,
                            );
                        }
                        other => {
                            if !legs.parse_section(other, value)? {
                                return Err(format!("unknown CHECK keyword {other:?}"));
                            }
                        }
                    }
                    rest = after;
                }
                let k = k.ok_or("CHECK needs K <k>")?;
                Ok(Request::Check {
                    left,
                    right,
                    aggs,
                    k,
                    legs,
                })
            }
            other => Err(format!(
                "unknown command {other:?} (expected HELLO, LOAD, PREPARE, EXECUTE, QUERY, MORE, DEADLINE, APPEND, DELETE, EXPLAIN, STATS, SYNC, STAGE, COMMIT, ABORT, STAGED?, FETCH, CHECK or CLOSE)"
            )),
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Hello { version } => write!(f, "HELLO {version}"),
            Request::More { cursor } => write!(f, "MORE {cursor}"),
            Request::Deadline { ms } => write!(f, "DEADLINE {ms}"),
            Request::Load { name, source } => match source {
                LoadSource::Inline { csv } => {
                    write!(
                        f,
                        "LOAD {name} INLINE {}",
                        csv.trim_end().replace('\n', ";")
                    )
                }
                LoadSource::Synthetic(s) => write!(
                    f,
                    "LOAD {name} SYNTHETIC {} n={} d={} a={} g={} seed={}",
                    s.data_type, s.n, s.d, s.a, s.g, s.seed
                ),
            },
            Request::Prepare { id, plan } => write!(
                f,
                "PREPARE {id} {} JOIN {}{}",
                plan.left,
                plan.right,
                plan_tail(plan)
            ),
            Request::Execute { id } => write!(f, "EXECUTE {id}"),
            Request::Query { plan } => write!(
                f,
                "QUERY {} JOIN {}{}",
                plan.left,
                plan.right,
                plan_tail(plan)
            ),
            Request::Explain { id } => write!(f, "EXPLAIN {id}"),
            Request::Stats => write!(f, "STATS"),
            Request::Sync { name: None } => write!(f, "SYNC"),
            Request::Sync { name: Some(name) } => write!(f, "SYNC {name}"),
            Request::Stage { name, csv } => {
                write!(
                    f,
                    "STAGE {name} INLINE {}",
                    csv.trim_end().replace('\n', ";")
                )
            }
            Request::Commit { name } => write!(f, "COMMIT {name}"),
            Request::Abort { name } => write!(f, "ABORT {name}"),
            Request::StagedQuery => write!(f, "STAGED?"),
            Request::Append { name, rows, staged } => write!(
                f,
                "APPEND {name} {} {}",
                if *staged { "STAGE" } else { "ROWS" },
                rows.trim_end().replace('\n', ";")
            ),
            Request::Delete { name, keys } => {
                write!(f, "DELETE {name} KEYS {}", keys.join(","))
            }
            Request::Fetch {
                left,
                right,
                aggs,
                pairs,
            } => {
                write!(f, "FETCH {left} JOIN {right}")?;
                if !aggs.is_empty() {
                    let list: Vec<String> = aggs.iter().map(agg_token).collect();
                    write!(f, " AGG {}", list.join(","))?;
                }
                write!(f, " PAIRS {}", pairs_blob(pairs))
            }
            Request::Check {
                left,
                right,
                aggs,
                k,
                legs,
            } => {
                write!(f, "CHECK {left} JOIN {right}")?;
                if !aggs.is_empty() {
                    let list: Vec<String> = aggs.iter().map(agg_token).collect();
                    write!(f, " AGG {}", list.join(","))?;
                }
                write!(f, " K {k}")?;
                legs.write_sections(f)
            }
            Request::Close => write!(f, "CLOSE"),
        }
    }
}

/// A skyline result set as shipped over the wire (v1: one frame carries
/// everything; under v2 this is what draining a chunk stream reassembles).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowSet {
    /// The `k` the query ran at (for find-k goals: the chosen `k`).
    pub k: usize,
    /// Server-side execution time in microseconds (0 for cache hits).
    pub micros: u64,
    /// Was this answered from the result cache?
    pub cached: bool,
    /// The skyline, as `(left, right)` base tuple ids, sorted.
    pub pairs: Vec<(u32, u32)>,
}

/// One bounded chunk of a v2 result stream: `part` of `parts`, carrying
/// at most [`ROWS_PER_CHUNK`] pairs, with `total` the size of the whole
/// result. `k`/`micros`/`cached` repeat the first frame's values on every
/// part so each frame stands alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowChunk {
    /// The `k` the query ran at.
    pub k: usize,
    /// Server-side execution time in microseconds (0 for cache hits).
    pub micros: u64,
    /// Was this answered from the result cache?
    pub cached: bool,
    /// Total pairs across all parts (the `n=` field).
    pub total: usize,
    /// 1-based part number.
    pub part: u32,
    /// Total parts in the stream (≥ 1; an empty result is one empty part).
    pub parts: u32,
    /// Where `MORE` can fetch the *next* part — present on every
    /// non-final frame of a cursor-addressable (cached) result.
    pub cursor: Option<Cursor>,
    /// This chunk's pairs, in result order.
    pub pairs: Vec<(u32, u32)>,
}

impl RowChunk {
    /// Is this the final part of its stream?
    pub fn is_last(&self) -> bool {
        self.part == self.parts
    }
}

/// Server counters reported by `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted since startup.
    pub connections: u64,
    /// Requests handled (all kinds).
    pub requests: u64,
    /// Requests answered with an `ERR` frame.
    pub errors: u64,
    /// Named prepared queries currently in the session map.
    pub sessions: u64,
    /// Relations in the catalog.
    pub relations: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_len: u64,
    /// Worker threads serving connections.
    pub workers: u64,
    /// Joined-tuple dominance tests performed by the verification kernel
    /// across all (non-cached) executions since startup.
    pub dom_tests: u64,
    /// Attribute positions compared by the verification kernel across all
    /// (non-cached) executions since startup — the split-side kernel's
    /// progress metric (see `ksjq_core::Counts::attr_cmps`).
    pub attr_cmps: u64,
    /// Cumulative dominator-generation wall-clock in microseconds across
    /// all (non-cached) executions — the dominator-based algorithm's
    /// `O(n²)` phase (see `ksjq_core::PhaseTimes::dominator_gen`); zero
    /// when only grouping/naive plans have run.
    pub domgen_us: u64,
    /// Connections shed with `ERR busy` because the `--max-conns`
    /// admission limit was reached.
    pub shed: u64,
    /// Connections reaped by the idle timeout or the mid-frame stall
    /// (slow-loris) deadline.
    pub reaped: u64,
    /// High-water mark, in bytes, of any single connection's pending
    /// outbound buffer — under v2 streaming this stays bounded by one
    /// chunk frame however large the result (the backpressure invariant).
    pub peak_buf: u64,
    /// Queries the shard router fanned out to more than one shard
    /// (always 0 on a plain `ksjq-serverd`).
    pub fanout_queries: u64,
    /// Cumulative wall-clock the router spent merging per-shard pair
    /// lists, in microseconds.
    pub merge_us: u64,
    /// Shard calls the router retried on another replica after an I/O
    /// failure.
    pub shard_retries: u64,
    /// Shard calls that failed on *every* replica (each one surfaced as
    /// an `ERR unavailable`).
    pub shard_errors: u64,
    /// Catalog version: bumped by every `LOAD`, `COMMIT`, `APPEND` and
    /// `DELETE` (and by replica resyncs). Queries pin the epoch they start
    /// under; `SYNC` reports it so replicas can detect staleness.
    pub catalog_epoch: u64,
    /// Cached results upgraded in place by the incremental maintainer
    /// after an `APPEND` (instead of being evicted and recomputed).
    pub delta_maintained: u64,
    /// Rows appended via `APPEND` since startup (cumulative, all
    /// relations).
    pub delta_rows: u64,
    /// Requests answered `ERR timeout` because a `DEADLINE` or the
    /// `--query-timeout` budget expired before execution finished.
    pub timeouts: u64,
    /// Records appended to the write-ahead log since startup (0 when the
    /// server runs without `--data-dir`).
    pub wal_records: u64,
    /// WAL rotations since startup: active-log seals driven by
    /// `--wal-max-bytes` (0 without a size cap).
    pub wal_segments: u64,
    /// Worker panics caught and surfaced as `ERR internal` — each one a
    /// bug (or an injected `panic=` fault) that did *not* take the
    /// process, the session or the pool down.
    pub panics: u64,
}

/// One server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success without a result set.
    Ok(String),
    /// The negotiated protocol version.
    Hello {
        /// Version the session now speaks.
        version: u32,
    },
    /// A skyline result set in one frame (v1).
    Rows(RowSet),
    /// One bounded chunk of a streamed result (v2).
    Chunk(RowChunk),
    /// A one-line plan summary.
    Explain(String),
    /// Server counters.
    Stats(ServerStats),
    /// Catalog relation names and version (reply to `SYNC`).
    Catalog {
        /// Catalog epoch at the time of the snapshot — bumped by every
        /// mutation, so a replica can compare against its last-synced
        /// epoch and re-clone only when stale.
        epoch: u64,
        /// Registered relation names, sorted.
        names: Vec<String>,
    },
    /// One relation exported as annotated CSV (reply to `SYNC <name>`).
    Relation {
        /// Catalog name.
        name: String,
        /// CSV text, newline row separators (`';'` on the wire).
        csv: String,
    },
    /// The requested pairs as legs (reply to `FETCH`), request-pair order.
    Legs(LegSet),
    /// One dominance bit per candidate pair (reply to `CHECK`), request
    /// order.
    Checked(Vec<bool>),
    /// Names with pending staged data (reply to `STAGED?`), sorted — the
    /// stage tokens a restarting router matches its decision WAL against.
    Staged {
        /// Relation names with a staged relation or delta.
        names: Vec<String>,
    },
    /// The request failed; the session stays usable.
    Error {
        /// Machine-readable failure category (the first `ERR` token).
        code: ErrorCode,
        /// Human-readable detail (may be empty).
        message: String,
    },
    /// Session closed.
    Bye,
}

/// Keep free-text payloads one-line so they cannot break framing.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], "; ")
}

impl Response {
    /// An `ERR` response with a machine-readable code.
    pub fn err(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }

    /// Parse one response line. Never panics, whatever the input.
    pub fn parse(line: &str) -> ProtoResult<Response> {
        let line = line.trim();
        let (word, rest) = split_word(line);
        match word.to_ascii_uppercase().as_str() {
            "OK" => Ok(Response::Ok(rest.to_owned())),
            "ERR" => {
                let (first, tail) = split_word(rest);
                Ok(match ErrorCode::from_token(first) {
                    Some(code) => Response::err(code, tail),
                    // Pre-code peers: the whole text is the message.
                    None => Response::err(ErrorCode::Unknown, rest),
                })
            }
            "EXPLAIN" => Ok(Response::Explain(rest.to_owned())),
            "BYE" => Ok(Response::Bye),
            "HELLO" => {
                let mut version = None;
                for token in rest.split_whitespace() {
                    // Tokens other than v= are ignored: forward compatibility.
                    if let Some(("v", value)) = token.split_once('=') {
                        version = Some(
                            value
                                .parse::<u32>()
                                .map_err(|_| format!("bad HELLO field {token:?}"))?,
                        );
                    }
                }
                match version {
                    Some(version) if version >= 1 => Ok(Response::Hello { version }),
                    _ => Err("HELLO missing v=<version>".into()),
                }
            }
            "ROWS" => {
                let mut rows = RowSet::default();
                let mut expected = None;
                let mut part: Option<(u32, u32)> = None;
                let mut cursor = None;
                for token in rest.split_whitespace() {
                    if let Some((key, value)) = token.split_once('=') {
                        match key {
                            "part" => {
                                let (i, m) = value.split_once('/').ok_or_else(|| {
                                    format!("bad ROWS part {token:?} (expected part=<i>/<m>)")
                                })?;
                                let i = i
                                    .parse::<u32>()
                                    .map_err(|_| format!("bad ROWS part {token:?}"))?;
                                let m = m
                                    .parse::<u32>()
                                    .map_err(|_| format!("bad ROWS part {token:?}"))?;
                                if i == 0 || m == 0 || i > m {
                                    return Err(format!("bad ROWS part {token:?}"));
                                }
                                part = Some((i, m));
                            }
                            "cursor" => cursor = Some(Cursor::parse(value)?),
                            _ => {
                                let int = value
                                    .parse::<u64>()
                                    .map_err(|_| format!("bad ROWS field {token:?}"))?;
                                match key {
                                    "k" => rows.k = int as usize,
                                    "us" => rows.micros = int,
                                    "cached" => rows.cached = int != 0,
                                    "n" => expected = Some(int as usize),
                                    _ => {} // ignore unknown fields: forward compatibility
                                }
                            }
                        }
                    } else if let Some((l, r)) = token.split_once(':') {
                        let pair = (
                            l.parse::<u32>()
                                .map_err(|_| format!("bad pair {token:?}"))?,
                            r.parse::<u32>()
                                .map_err(|_| format!("bad pair {token:?}"))?,
                        );
                        rows.pairs.push(pair);
                    } else {
                        return Err(format!("unexpected ROWS token {token:?}"));
                    }
                }
                match (part, expected) {
                    (Some((part, parts)), Some(total)) => Ok(Response::Chunk(RowChunk {
                        k: rows.k,
                        micros: rows.micros,
                        cached: rows.cached,
                        total,
                        part,
                        parts,
                        cursor,
                        pairs: rows.pairs,
                    })),
                    (Some(_), None) => Err("ROWS chunk missing n=<total>".into()),
                    (None, Some(n)) if n != rows.pairs.len() => Err(format!(
                        "ROWS claimed n={n} but carried {} pairs",
                        rows.pairs.len()
                    )),
                    (None, Some(_)) => Ok(Response::Rows(rows)),
                    (None, None) => Err("ROWS missing n=<count>".into()),
                }
            }
            "STATS" => {
                let mut s = ServerStats::default();
                for token in rest.split_whitespace() {
                    let (key, value) = token
                        .split_once('=')
                        .ok_or_else(|| format!("bad STATS field {token:?}"))?;
                    let int = value
                        .parse::<u64>()
                        .map_err(|_| format!("bad STATS field {token:?}"))?;
                    match key {
                        "connections" => s.connections = int,
                        "requests" => s.requests = int,
                        "errors" => s.errors = int,
                        "sessions" => s.sessions = int,
                        "relations" => s.relations = int,
                        "cache_hits" => s.cache_hits = int,
                        "cache_misses" => s.cache_misses = int,
                        "cache_evictions" => s.cache_evictions = int,
                        "cache_len" => s.cache_len = int,
                        "workers" => s.workers = int,
                        "dom_tests" => s.dom_tests = int,
                        "attr_cmps" => s.attr_cmps = int,
                        "domgen_us" => s.domgen_us = int,
                        "shed" => s.shed = int,
                        "reaped" => s.reaped = int,
                        "peak_buf" => s.peak_buf = int,
                        "fanout_queries" => s.fanout_queries = int,
                        "merge_us" => s.merge_us = int,
                        "shard_retries" => s.shard_retries = int,
                        "shard_errors" => s.shard_errors = int,
                        "catalog_epoch" => s.catalog_epoch = int,
                        "delta_maintained" => s.delta_maintained = int,
                        "delta_rows" => s.delta_rows = int,
                        "timeouts" => s.timeouts = int,
                        "wal_records" => s.wal_records = int,
                        "wal_segments" => s.wal_segments = int,
                        "panics" => s.panics = int,
                        _ => {} // forward compatibility
                    }
                }
                Ok(Response::Stats(s))
            }
            "CATALOG" => {
                let (count, rest) = split_word(rest);
                let n = count
                    .strip_prefix("n=")
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| format!("CATALOG needs n=<count>, got {count:?}"))?;
                // `key=value` tokens are header fields (epoch today, more
                // later — unknown ones skip for forward compatibility);
                // bare tokens are relation names. Pre-epoch servers send no
                // fields at all, which parses as epoch 0.
                let mut epoch = 0;
                let mut names = Vec::new();
                for token in rest.split_whitespace() {
                    match token.split_once('=') {
                        Some(("epoch", value)) => {
                            epoch = value
                                .parse::<u64>()
                                .map_err(|_| format!("bad CATALOG field {token:?}"))?;
                        }
                        Some(_) => {} // forward compatibility
                        None => names.push(token.to_string()),
                    }
                }
                if names.len() != n {
                    return Err(format!(
                        "CATALOG claimed n={n} but carried {} names",
                        names.len()
                    ));
                }
                Ok(Response::Catalog { epoch, names })
            }
            "RELATION" => {
                let (name, csv) = split_word(rest);
                validate_name("relation name", name)?;
                if csv.is_empty() {
                    return Err("RELATION needs CSV text".into());
                }
                Ok(Response::Relation {
                    name: name.into(),
                    csv: csv.replace(';', "\n"),
                })
            }
            "LEGS" => {
                let (count, mut rest) = split_word(rest);
                let n = count
                    .strip_prefix("n=")
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| format!("LEGS needs n=<pairs>, got {count:?}"))?;
                let mut legs = LegSet::default();
                while !rest.is_empty() {
                    let (kw, after) = split_word(rest);
                    let (value, after) = split_word(after);
                    if value.is_empty() || !legs.parse_section(kw, value)? {
                        return Err(format!("unexpected LEGS token {kw:?}"));
                    }
                    rest = after;
                }
                if legs.pairs.len() != n {
                    return Err(format!(
                        "LEGS claimed n={n} but carried {} pairs",
                        legs.pairs.len()
                    ));
                }
                Ok(Response::Legs(legs))
            }
            "CHECKED" => {
                let (count, bits) = split_word(rest);
                let n = count
                    .strip_prefix("n=")
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| format!("CHECKED needs n=<count>, got {count:?}"))?;
                let bits: Vec<bool> = bits
                    .chars()
                    .map(|c| match c {
                        '0' => Ok(false),
                        '1' => Ok(true),
                        other => Err(format!("bad CHECKED bit {other:?}")),
                    })
                    .collect::<ProtoResult<_>>()?;
                if bits.len() != n {
                    return Err(format!(
                        "CHECKED claimed n={n} but carried {} bits",
                        bits.len()
                    ));
                }
                Ok(Response::Checked(bits))
            }
            "STAGED" => {
                let (count, rest) = split_word(rest);
                let n = count
                    .strip_prefix("n=")
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| format!("STAGED needs n=<count>, got {count:?}"))?;
                let names: Vec<String> = rest.split_whitespace().map(String::from).collect();
                if names.len() != n {
                    return Err(format!(
                        "STAGED claimed n={n} but carried {} names",
                        names.len()
                    ));
                }
                Ok(Response::Staged { names })
            }
            other => Err(format!("unknown response frame {other:?}")),
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Ok(msg) => write!(f, "OK {}", one_line(msg)),
            Response::Error { code, message } => match code {
                // Legacy frames round-trip without inventing a code token.
                ErrorCode::Unknown => write!(f, "ERR {}", one_line(message)),
                code if message.is_empty() => write!(f, "ERR {code}"),
                code => write!(f, "ERR {code} {}", one_line(message)),
            },
            Response::Explain(text) => write!(f, "EXPLAIN {}", one_line(text)),
            Response::Bye => write!(f, "BYE"),
            Response::Hello { version } => write!(f, "HELLO v={version}"),
            Response::Rows(rows) => {
                write!(
                    f,
                    "ROWS k={} us={} cached={} n={}",
                    rows.k,
                    rows.micros,
                    rows.cached as u8,
                    rows.pairs.len()
                )?;
                for (l, r) in &rows.pairs {
                    write!(f, " {l}:{r}")?;
                }
                Ok(())
            }
            Response::Chunk(chunk) => {
                write!(
                    f,
                    "ROWS k={} us={} cached={} n={} part={}/{}",
                    chunk.k, chunk.micros, chunk.cached as u8, chunk.total, chunk.part, chunk.parts
                )?;
                if let Some(cursor) = chunk.cursor {
                    write!(f, " cursor={cursor}")?;
                }
                for (l, r) in &chunk.pairs {
                    write!(f, " {l}:{r}")?;
                }
                Ok(())
            }
            Response::Stats(s) => write!(
                f,
                "STATS connections={} requests={} errors={} sessions={} relations={} \
                 cache_hits={} cache_misses={} cache_evictions={} cache_len={} workers={} \
                 dom_tests={} attr_cmps={} domgen_us={} shed={} reaped={} peak_buf={} \
                 fanout_queries={} merge_us={} shard_retries={} shard_errors={} \
                 catalog_epoch={} delta_maintained={} delta_rows={} \
                 timeouts={} wal_records={} wal_segments={} panics={}",
                s.connections,
                s.requests,
                s.errors,
                s.sessions,
                s.relations,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.cache_len,
                s.workers,
                s.dom_tests,
                s.attr_cmps,
                s.domgen_us,
                s.shed,
                s.reaped,
                s.peak_buf,
                s.fanout_queries,
                s.merge_us,
                s.shard_retries,
                s.shard_errors,
                s.catalog_epoch,
                s.delta_maintained,
                s.delta_rows,
                s.timeouts,
                s.wal_records,
                s.wal_segments,
                s.panics
            ),
            Response::Catalog { epoch, names } => {
                write!(f, "CATALOG n={} epoch={epoch}", names.len())?;
                for name in names {
                    write!(f, " {name}")?;
                }
                Ok(())
            }
            Response::Relation { name, csv } => {
                write!(f, "RELATION {name} {}", csv.trim_end().replace('\n', ";"))
            }
            Response::Legs(legs) => {
                write!(f, "LEGS n={}", legs.pairs.len())?;
                legs.write_sections(f)
            }
            Response::Checked(bits) => {
                write!(f, "CHECKED n={}", bits.len())?;
                if !bits.is_empty() {
                    let text: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
                    write!(f, " {text}")?;
                }
                Ok(())
            }
            Response::Staged { names } => {
                write!(f, "STAGED n={}", names.len())?;
                for name in names {
                    write!(f, " {name}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksjq_core::FindKStrategy;

    fn roundtrip_request(line: &str) -> Request {
        let req = Request::parse(line).unwrap();
        let reparsed = Request::parse(&req.to_string()).unwrap();
        assert_eq!(req, reparsed, "serialise/parse round trip of {line:?}");
        req
    }

    #[test]
    fn request_roundtrips() {
        let req = roundtrip_request("LOAD t1 INLINE city,cost;C,448;D,456");
        assert_eq!(
            req,
            Request::Load {
                name: "t1".into(),
                source: LoadSource::Inline {
                    csv: "city,cost\nC,448\nD,456".into()
                }
            }
        );
        let req = roundtrip_request("load r synthetic anti n=100 d=5 a=2 g=7 seed=3");
        assert_eq!(
            req,
            Request::Load {
                name: "r".into(),
                source: LoadSource::Synthetic(SyntheticSpec {
                    data_type: DataType::AntiCorrelated,
                    n: 100,
                    d: 5,
                    a: 2,
                    g: 7,
                    seed: 3
                })
            }
        );
        let req = roundtrip_request(
            "PREPARE q1 out JOIN in AGG sum,wsum(1,0.5) K 7 ALGO dominator-based KDOM osa",
        );
        match &req {
            Request::Prepare { id, plan } => {
                assert_eq!(id, "q1");
                assert_eq!(plan.goal, Goal::Exact(7));
                assert_eq!(plan.aggs.len(), 2);
                assert_eq!(plan.algorithm, Algorithm::DominatorBased);
                assert_eq!(plan.kdom, Some(KdomAlgo::Osa));
            }
            other => panic!("{other:?}"),
        }
        roundtrip_request("QUERY a JOIN b GOAL atleast:10:range");
        roundtrip_request("EXECUTE q1");
        roundtrip_request("EXPLAIN q1");
        roundtrip_request("STATS");
        roundtrip_request("CLOSE");
        assert_eq!(
            roundtrip_request("DEADLINE 1500"),
            Request::Deadline { ms: 1500 }
        );
        assert_eq!(roundtrip_request("deadline 0"), Request::Deadline { ms: 0 });
        for bad in ["DEADLINE", "DEADLINE soon", "DEADLINE 5 extra"] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn v2_request_roundtrips() {
        assert_eq!(roundtrip_request("HELLO 2"), Request::Hello { version: 2 });
        assert_eq!(roundtrip_request("hello 1"), Request::Hello { version: 1 });
        assert_eq!(
            roundtrip_request("MORE 42:3"),
            Request::More {
                cursor: Cursor {
                    result: 42,
                    part: 3
                }
            }
        );
        for bad in [
            "HELLO",
            "HELLO zero",
            "HELLO 0",
            "HELLO 2 trailing",
            "MORE",
            "MORE 42",
            "MORE 42:0",
            "MORE 42:three",
            "MORE 42:3 trailing",
            "MORE :3",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn synthetic_defaults_and_validation() {
        let req = roundtrip_request("LOAD r SYNTHETIC ind n=50 d=4");
        match req {
            Request::Load {
                source: LoadSource::Synthetic(s),
                ..
            } => {
                assert_eq!((s.a, s.g, s.seed), (0, 10, 42));
                assert_eq!(s.dataset_spec().local_attrs, 4);
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "LOAD r SYNTHETIC ind d=4",          // missing n
            "LOAD r SYNTHETIC ind n=10",         // missing d
            "LOAD r SYNTHETIC ind n=0 d=4",      // n = 0
            "LOAD r SYNTHETIC ind n=10 d=2 a=3", // a > d
            "LOAD r SYNTHETIC ind n=10 d=2 g=0", // g = 0
            "LOAD r SYNTHETIC bogus n=10 d=2",   // unknown distribution
            "LOAD r SYNTHETIC ind n=ten d=2",    // non-integer
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn request_parse_rejects_junk() {
        for bad in [
            "",
            "   ",
            "FROBNICATE",
            "LOAD",
            "LOAD name",
            "LOAD name TELEPATHY",
            "LOAD na me INLINE a,b;1,2",
            "PREPARE q1 left RIGHT right",
            "PREPARE q1 left JOIN right K seven",
            "PREPARE q1 left JOIN right WAT 3",
            "QUERY only JOIN",
            "EXECUTE",
            "EXECUTE q1 trailing",
            "STATS now",
            "CLOSE please",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn plan_keywords_are_order_insensitive_for_fingerprints() {
        let a = match Request::parse("QUERY l JOIN r KDOM tsa K 7 AGG sum").unwrap() {
            Request::Query { plan } => plan,
            other => panic!("{other:?}"),
        };
        let b = match Request::parse("query l join r agg sum goal exact:7 kdom tsa").unwrap() {
            Request::Query { plan } => plan,
            other => panic!("{other:?}"),
        };
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different kdom, different fingerprint.
        let c = a.clone().kdom(KdomAlgo::Osa);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn response_roundtrips() {
        let responses = [
            Response::Ok("loaded t1 n=9 d=4".into()),
            Response::Rows(RowSet {
                k: 7,
                micros: 123,
                cached: true,
                pairs: vec![(0, 2), (2, 0), (4, 4)],
            }),
            Response::Rows(RowSet::default()),
            Response::Explain("grouping k=7 over \"a\" ⋈ \"b\" [equality]".into()),
            Response::Stats(ServerStats {
                connections: 1,
                requests: 10,
                errors: 2,
                sessions: 3,
                relations: 4,
                cache_hits: 5,
                cache_misses: 6,
                cache_evictions: 7,
                cache_len: 8,
                workers: 9,
                dom_tests: 10,
                attr_cmps: 11,
                domgen_us: 12,
                shed: 13,
                reaped: 14,
                peak_buf: 15,
                fanout_queries: 16,
                merge_us: 17,
                shard_retries: 18,
                shard_errors: 19,
                catalog_epoch: 20,
                delta_maintained: 21,
                delta_rows: 22,
                timeouts: 23,
                wal_records: 24,
                wal_segments: 25,
                panics: 26,
            }),
            Response::err(ErrorCode::Invalid, "unknown relation \"nope\""),
            Response::err(ErrorCode::Timeout, "query deadline exceeded"),
            Response::err(ErrorCode::Busy, ""),
            // Legacy ERR frames (no recognised code token) still round-trip.
            Response::err(ErrorCode::Unknown, "something went sideways"),
            Response::Bye,
        ];
        for resp in responses {
            let line = resp.to_string();
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(Response::parse(&line).unwrap(), resp, "{line:?}");
        }
    }

    #[test]
    fn response_payloads_cannot_break_framing() {
        let evil = Response::err(ErrorCode::Internal, "two\nlines\r\nhere");
        let line = evil.to_string();
        assert!(!line.contains('\n') && !line.contains('\r'));
        assert!(matches!(
            Response::parse(&line).unwrap(),
            Response::Error { .. }
        ));
    }

    #[test]
    fn error_codes_roundtrip_and_fall_back() {
        for code in [
            ErrorCode::Busy,
            ErrorCode::Timeout,
            ErrorCode::Unavailable,
            ErrorCode::Parse,
            ErrorCode::Recovering,
            ErrorCode::Invalid,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_token(code.token()), Some(code));
            let parsed = Response::parse(&format!("ERR {code} detail here")).unwrap();
            assert_eq!(parsed, Response::err(code, "detail here"));
        }
        // A frame from an older peer: the first word is not a code, so the
        // whole text survives as the message.
        assert_eq!(
            Response::parse("ERR unknown relation \"nope\"").unwrap(),
            Response::err(ErrorCode::Unknown, "unknown relation \"nope\"")
        );
        assert!(ErrorCode::Busy.is_transient());
        assert!(ErrorCode::Recovering.is_transient());
        assert!(!ErrorCode::Invalid.is_transient());
    }

    #[test]
    fn response_parse_rejects_junk() {
        for bad in [
            "WAT 3",
            "ROWS k=7 us=1 cached=0 n=2 0:1", // count mismatch
            "ROWS k=7 us=1 cached=0",         // missing n
            "ROWS n=1 zero:one",
            "STATS requests",
            "STATS requests=many",
            "HELLO",                            // missing v=
            "HELLO v=0",                        // versions are ≥ 1
            "HELLO v=two",                      // non-integer
            "ROWS part=1/2 0:1",                // chunk missing n=
            "ROWS n=5 part=0/2",                // parts are 1-based
            "ROWS n=5 part=3/2",                // part beyond parts
            "ROWS n=5 part=12",                 // malformed part
            "ROWS n=5 part=1/2 cursor=8:0 0:1", // cursor parts are 1-based
            "ROWS n=5 part=1/2 cursor=8 0:1",   // malformed cursor
        ] {
            assert!(Response::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn chunk_responses_roundtrip() {
        let chunks = [
            Response::Chunk(RowChunk {
                k: 7,
                micros: 200,
                cached: false,
                total: 5000,
                part: 2,
                parts: 3,
                cursor: Some(Cursor { result: 8, part: 3 }),
                pairs: vec![(0, 1), (4, 2)],
            }),
            // Final part: no cursor.
            Response::Chunk(RowChunk {
                k: 7,
                micros: 0,
                cached: true,
                total: 5000,
                parts: 3,
                part: 3,
                cursor: None,
                pairs: vec![(9, 9)],
            }),
            // Empty result: one empty part.
            Response::Chunk(RowChunk {
                k: 2,
                micros: 11,
                cached: false,
                total: 0,
                part: 1,
                parts: 1,
                cursor: None,
                pairs: vec![],
            }),
        ];
        for resp in chunks {
            let line = resp.to_string();
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(Response::parse(&line).unwrap(), resp, "{line:?}");
        }
        // A v1 ROWS frame (no part=) still parses as Response::Rows.
        assert!(matches!(
            Response::parse("ROWS k=7 us=1 cached=0 n=1 3:4").unwrap(),
            Response::Rows(_)
        ));
        // Hello frames round-trip and tolerate unknown fields.
        let hello = Response::Hello { version: 2 };
        assert_eq!(Response::parse(&hello.to_string()).unwrap(), hello);
        assert_eq!(
            Response::parse("HELLO v=2 server=ksjq").unwrap(),
            Response::Hello { version: 2 }
        );
    }

    /// The arithmetic behind the ≤ 64 KiB frame guarantee: a chunk of
    /// [`ROWS_PER_CHUNK`] worst-case pairs (two ten-digit ids each) plus a
    /// worst-case header must serialise under [`MAX_ROWS_FRAME_BYTES`],
    /// newline included.
    #[test]
    fn worst_case_chunk_frame_fits() {
        let frame = Response::Chunk(RowChunk {
            k: usize::MAX,
            micros: u64::MAX,
            cached: true,
            total: usize::MAX,
            part: u32::MAX - 1,
            parts: u32::MAX,
            cursor: Some(Cursor {
                result: u64::MAX,
                part: u32::MAX,
            }),
            pairs: vec![(u32::MAX, u32::MAX); ROWS_PER_CHUNK],
        })
        .to_string();
        // +1 for the trailing newline the wire adds to every frame.
        assert!(
            frame.len() < MAX_ROWS_FRAME_BYTES,
            "worst-case chunk frame is {} bytes",
            frame.len() + 1
        );
    }

    #[test]
    fn goal_tokens_cover_all_goals() {
        for goal in [
            Goal::Exact(6),
            Goal::SkylineJoin,
            Goal::AtLeast(10, FindKStrategy::Range),
            Goal::AtMost(3, FindKStrategy::Naive),
        ] {
            let token = goal_token(goal);
            assert!(!token.contains(char::is_whitespace), "{token:?}");
            assert_eq!(token.parse::<Goal>().unwrap(), goal);
        }
    }

    #[test]
    fn distribution_request_roundtrips() {
        assert_eq!(roundtrip_request("SYNC"), Request::Sync { name: None });
        assert_eq!(
            roundtrip_request("sync outbound"),
            Request::Sync {
                name: Some("outbound".into())
            }
        );
        assert_eq!(
            roundtrip_request("STAGE t1 INLINE city,cost;C,448"),
            Request::Stage {
                name: "t1".into(),
                csv: "city,cost\nC,448".into()
            }
        );
        // A header-only CSV stages an empty relation.
        assert_eq!(
            roundtrip_request("STAGE t1 INLINE city,cost"),
            Request::Stage {
                name: "t1".into(),
                csv: "city,cost".into()
            }
        );
        assert_eq!(
            roundtrip_request("COMMIT t1"),
            Request::Commit { name: "t1".into() }
        );
        assert_eq!(
            roundtrip_request("ABORT t1"),
            Request::Abort { name: "t1".into() }
        );
        assert_eq!(roundtrip_request("STAGED?"), Request::StagedQuery);
        assert_eq!(roundtrip_request("staged?"), Request::StagedQuery);
        assert_eq!(
            roundtrip_request("FETCH a JOIN b PAIRS 0:1;4:2"),
            Request::Fetch {
                left: "a".into(),
                right: "b".into(),
                aggs: vec![],
                pairs: vec![(0, 1), (4, 2)]
            }
        );
        assert_eq!(
            roundtrip_request("FETCH a JOIN b AGG sum,min PAIRS 7:7"),
            Request::Fetch {
                left: "a".into(),
                right: "b".into(),
                aggs: vec![AggFunc::Sum, AggFunc::Min],
                pairs: vec![(7, 7)]
            }
        );
        assert_eq!(
            roundtrip_request("CHECK a JOIN b K 5 L 1,2.5;4,0.125 R -3,6 P 0:0;1:0"),
            Request::Check {
                left: "a".into(),
                right: "b".into(),
                aggs: vec![],
                k: 5,
                legs: LegSet {
                    left: vec![vec![1.0, 2.5], vec![4.0, 0.125]],
                    right: vec![vec![-3.0, 6.0]],
                    pairs: vec![(0, 0), (1, 0)],
                }
            }
        );
        roundtrip_request("CHECK a JOIN b AGG wsum(1,0.5) K 9 L 0.1,0.2 R 0.3,0.4 P 0:0");
        // No legs: every section is left out.
        assert_eq!(
            roundtrip_request("CHECK a JOIN b K 5"),
            Request::Check {
                left: "a".into(),
                right: "b".into(),
                aggs: vec![],
                k: 5,
                legs: LegSet::default(),
            }
        );
        // Arity, range and finiteness are the server's to judge.
        for semantic in [
            "CHECK a JOIN b K 5 L 1,inf R 2 P 0:0",
            "CHECK a JOIN b K 5 L 1 R 2,3,4 P 0:7",
        ] {
            assert!(Request::parse(semantic).is_ok(), "{semantic:?}");
        }
        assert_eq!(
            roundtrip_request("APPEND t1 ROWS C,448,3;D,456,2"),
            Request::Append {
                name: "t1".into(),
                rows: "C,448,3\nD,456,2".into(),
                staged: false
            }
        );
        assert_eq!(
            roundtrip_request("append t1 stage C,448,3"),
            Request::Append {
                name: "t1".into(),
                rows: "C,448,3".into(),
                staged: true
            }
        );
        assert_eq!(
            roundtrip_request("DELETE t1 KEYS C,D"),
            Request::Delete {
                name: "t1".into(),
                keys: vec!["C".into(), "D".into()]
            }
        );
        for bad in [
            "SYNC a b",
            "SYNC bad;name",
            "STAGE",
            "STAGE t1",
            "STAGE t1 TELEPATHY a,b",
            "STAGE t1 INLINE",
            "COMMIT",
            "COMMIT t1 trailing",
            "ABORT",
            "STAGED? t1",
            "FETCH a JOIN b",           // missing PAIRS
            "FETCH a JOIN b PAIRS",     // PAIRS needs a value
            "FETCH a JOIN b PAIRS 0",   // not l:r
            "FETCH a JOIN b PAIRS 0:x", // non-integer
            "FETCH a JOIN b WAT 3 PAIRS 0:1",
            "CHECK a JOIN b L 1,2 R 3 P 0:0", // missing K
            "CHECK a JOIN b K five L 1 R 2 P 0:0",
            "CHECK a JOIN b K 5 ROWS 1,2", // the retired row form
            "CHECK a JOIN b K 5 L 1,x R 2 P 0:0", // non-numeric value
            "CHECK a JOIN b K 5 L 1,2;;3,4 R 5", // empty leg
            "CHECK a JOIN b K 5 L 1 R 2 P 0", // not i:j
            "CHECK a JOIN b K 5 L 1 R 2 P", // P needs a value
            "APPEND",                      // missing name
            "APPEND t1",                   // missing mode
            "APPEND t1 TELEPATHY C,448",   // unknown mode
            "APPEND t1 ROWS",              // ROWS needs rows
            "APPEND t1 STAGE",             // STAGE needs rows
            "DELETE",                      // missing name
            "DELETE t1",                   // missing KEYS
            "DELETE t1 KEYS",              // KEYS needs a list
            "DELETE t1 KEYS C,",           // empty key
            "DELETE t1 KEYS C D",          // trailing input
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn distribution_response_roundtrips() {
        let responses = [
            Response::Catalog {
                epoch: 0,
                names: vec![],
            },
            Response::Catalog {
                epoch: 42,
                names: vec!["inbound".into(), "outbound".into()],
            },
            Response::Relation {
                name: "outbound".into(),
                csv: "city,cost:min\nC,448\nD,456".into(),
            },
            Response::Legs(LegSet::default()),
            Response::Legs(LegSet {
                left: vec![vec![1.5, -2.0, 3.0], vec![0.0625, 4.0, 5.0]],
                right: vec![vec![7.0, 8.0]],
                pairs: vec![(1, 0), (0, 0)],
            }),
            Response::Checked(vec![]),
            Response::Checked(vec![true, false, true]),
            Response::Staged { names: vec![] },
            Response::Staged {
                names: vec![".all.t1".into(), "t1".into()],
            },
        ];
        for resp in responses {
            let line = resp.to_string();
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(Response::parse(&line).unwrap(), resp, "{line:?}");
        }
        // Pre-epoch servers send no epoch= field: parses as epoch 0.
        assert_eq!(
            Response::parse("CATALOG n=1 flights").unwrap(),
            Response::Catalog {
                epoch: 0,
                names: vec!["flights".into()],
            }
        );
        for bad in [
            "CATALOG",                      // missing n=
            "CATALOG n=2 only",             // count mismatch
            "CATALOG n=x",                  // non-integer
            "CATALOG n=0 epoch=huge",       // non-integer epoch
            "RELATION",                     // missing name
            "RELATION name",                // missing csv
            "VALS n=0",                     // the retired row form
            "LEGS",                         // missing n=
            "LEGS n=1",                     // count mismatch
            "LEGS n=1 L 1,2 R 3 P 0:0;0:0", // count mismatch
            "LEGS n=1 L 1,zebra R 3 P 0:0", // non-numeric
            "LEGS n=0 Q 1",                 // unknown section
            "LEGS n=0 L",                   // section without a value
            "CHECKED",                      // missing n=
            "CHECKED n=2 1",                // count mismatch
            "CHECKED n=1 2",                // not a bit
            "STAGED",                       // missing n=
            "STAGED n=2 only",              // count mismatch
        ] {
            assert!(Response::parse(bad).is_err(), "{bad:?} should not parse");
        }
        // f64 Display is shortest-exact: values survive the wire bit-for-bit.
        let legs = Response::Legs(LegSet {
            left: vec![vec![0.1 + 0.2, 1.0 / 3.0]],
            right: vec![vec![-1e-300, 1e300]],
            pairs: vec![(0, 0)],
        });
        assert_eq!(Response::parse(&legs.to_string()).unwrap(), legs);
    }

    #[test]
    fn plan_spec_to_plan_carries_everything() {
        let spec = PlanSpec::new("l", "r")
            .aggs(&[AggFunc::Sum])
            .k(7)
            .algorithm(Algorithm::Naive)
            .kdom(KdomAlgo::TsaPresort);
        let plan = spec.to_plan();
        assert_eq!(plan.goal, Goal::Exact(7));
        assert_eq!(plan.algorithm, Algorithm::Naive);
        assert_eq!(plan.kdom, Some(KdomAlgo::TsaPresort));
        assert_eq!(plan.funcs, vec![AggFunc::Sum]);
    }
}
