//! Spans for the traced run, and the in-process replay of every layer.
//!
//! Spans are recorded by this benchmark around its calls into each
//! layer's public functions (nothing inside the program is
//! instrumented). They are kept in memory, keyed by an operation id, and
//! written out as JSON lines when the run ends.

use ksjq_bench::{prepare_candidates, run_columnar};
use ksjq_core::{classify_parallel, validate_k, Config, Engine, KsjqOutput};
use ksjq_join::{JoinContext, JoinSpec};
use ksjq_server::durability::compact;
use ksjq_server::{Cursor, Response, RowChunk, ROWS_PER_CHUNK};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::daemon::TempDir;
use crate::inputs::{Answer, Bound, Inputs};
use crate::report::{median, Metrics};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_secs_f64() * 1e3
    }
}

/// An in-memory span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_op: u64,
    spans: Vec<Span>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_op: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh operation id: spans of one operation share it.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub fn begin(&mut self, op: u64, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            op,
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end = self.origin.elapsed();
        }
    }

    /// Record an interval measured elsewhere (the engine's own phase
    /// times), laid out from `start` within its parent.
    fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: SpanId,
        start: Duration,
        len: Duration,
    ) -> Duration {
        if self.enabled {
            self.spans.push(Span {
                op,
                name,
                parent: Some(parent),
                start,
                end: start + len,
            });
        }
        start + len
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations(name)).unwrap_or(0.0)
    }

    /// Median self time of spans called `name`: duration minus the part
    /// covered by their direct children.
    pub fn median_self_ms(&self, name: &str) -> f64 {
        let selfs: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let covered: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::ms)
                    .sum();
                s.ms() - covered
            })
            .collect();
        median(&selfs).unwrap_or(0.0)
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{},\"end_us\":{}}}\n",
                s.op,
                s.name,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start.as_micros(),
                s.end.as_micros()
            ));
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Encode an answer as the v2 `ROWS` frames a daemon streams.
pub fn encode_frames(out: &KsjqOutput, k: usize) -> Vec<String> {
    let parts = out.chunk_count(ROWS_PER_CHUNK);
    out.chunks(ROWS_PER_CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            let part = i as u32 + 1;
            Response::Chunk(RowChunk {
                k,
                micros: 0,
                cached: false,
                total: out.len(),
                part,
                parts: parts as u32,
                cursor: (part < parts as u32).then_some(Cursor {
                    result: 1,
                    part: part + 1,
                }),
                pairs: chunk.iter().map(|&(l, r)| (l.0, r.0)).collect(),
            })
            .to_string()
        })
        .collect()
}

/// Parse `ROWS` frames back into an answer.
pub fn decode_frames(frames: &[String]) -> Result<Answer, String> {
    let mut pairs = Vec::new();
    for frame in frames {
        match Response::parse(frame) {
            Ok(Response::Chunk(chunk)) => pairs.extend(chunk.pairs),
            other => return Err(format!("not a ROWS frame: {other:?}")),
        }
    }
    Ok(Answer::of(pairs))
}

/// Deltas the in-process maintenance and WAL replays apply at most.
const REPLAY_DELTAS: usize = 256;

/// What the in-process replay measured, beyond the metrics it sets.
#[derive(Debug)]
pub struct Replay {
    /// Median (ms) of `Engine::prepare` plus `PreparedQuery::execute`.
    pub engine_ms: f64,
    /// Median (ms) of encoding the answer's frames. Decoding is left out
    /// of attribution: the wire client decodes after its clock stops.
    pub encode_ms: f64,
    pub overhead_pct: f64,
}

/// Replay the workload's inputs through each layer's public functions,
/// `queries` times for the per-query pipeline, and set the in-process
/// per-layer metrics.
pub fn replay(
    inputs: &Inputs,
    bound: &Bound,
    queries: usize,
    scratch: &Path,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<Replay, String> {
    let shape = inputs.shape;
    let k = shape.k;
    let cfg = Config::default();
    let op = tracer.op();

    // ksjq-relation: registration of the parsed relations.
    let engine = Engine::new();
    let left = engine
        .catalog()
        .parse_csv(&inputs.left_csv)
        .map_err(|e| e.to_string())?;
    let right = engine
        .catalog()
        .parse_csv(&inputs.right_csv)
        .map_err(|e| e.to_string())?;
    let span = tracer.begin(op, "relation.register", None);
    engine.register("a1", left).map_err(|e| e.to_string())?;
    engine.register("a2", right).map_err(|e| e.to_string())?;
    tracer.end(span);

    // ksjq-join: the join context and its size.
    let arc = |name: &str| engine.relation(name).map(|h| h.relation().clone());
    let (l, r) = (
        arc("a1").map_err(|e| e.to_string())?,
        arc("a2").map_err(|e| e.to_string())?,
    );
    let span = tracer.begin(op, "join.context", None);
    let cx = JoinContext::from_arcs(l, r, JoinSpec::Equality, &shape.funcs())
        .map_err(|e| e.to_string())?;
    tracer.end(span);
    m.set("join.pairs", cx.count_pairs() as f64, "count");

    // ksjq-core::classify (with the ksjq-skyline kdom subroutine).
    let params = validate_k(&cx, k).map_err(|e| e.to_string())?;
    let span = tracer.begin(op, "classify", None);
    let cls = classify_parallel(&cx, &params, cfg.kdom, cfg.threads);
    tracer.end(span);
    let tallies = [cls.tallies(0), cls.tallies(1)];
    m.set("classify.ss", (tallies[0].0 + tallies[1].0) as f64, "count");
    m.set("classify.sn", (tallies[0].1 + tallies[1].1) as f64, "count");
    m.set("classify.nn", (tallies[0].2 + tallies[1].2) as f64, "count");

    // ksjq-core::verify over the full candidate set.
    let cands = prepare_candidates(&cx, k, &cfg);
    let span = tracer.begin(op, "verify", None);
    let cost = run_columnar(&cx, k, &cands);
    tracer.end(span);
    m.set("verify.candidates", cands.len() as f64, "count");
    m.set("verify.dom_tests", cost.dom_tests as f64, "count");
    m.set("verify.attr_cmps", cost.attr_cmps as f64, "count");
    m.set(
        "verify.survivor_ratio",
        cost.survivors as f64 / cands.len().max(1) as f64,
        "ratio",
    );
    drop(cands);

    // ksjq-core::engine plus ksjq-server::protocol, per query; run
    // untraced too, for the tracing overhead.
    let plan = inputs.plan.to_plan();
    let mut untraced = Vec::with_capacity(queries);
    let mut traced = Vec::with_capacity(queries);
    let mut frames = Vec::new();
    let mut last = None;
    for _ in 0..queries {
        let t = Instant::now();
        let prepared = engine.prepare(&plan).map_err(|e| e.to_string())?;
        let out = prepared.execute().map_err(|e| e.to_string())?;
        let answer = decode_frames(&encode_frames(&out, k))?;
        untraced.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let op = tracer.op();
        let query = tracer.begin(op, "query", None);
        let span = tracer.begin(op, "engine.prepare", Some(query));
        let prepared = engine.prepare(&plan).map_err(|e| e.to_string())?;
        tracer.end(span);
        let exec = tracer.begin(op, "engine.execute", Some(query));
        let exec_start = tracer.spans.last().map(|s| s.start).unwrap_or_default();
        let out = prepared.execute().map_err(|e| e.to_string())?;
        tracer.end(exec);
        let p = out.stats.phases;
        let mut at = exec_start;
        at = tracer.record(op, "engine.phase.grouping", exec, at, p.grouping);
        at = tracer.record(op, "engine.phase.join", exec, at, p.join);
        at = tracer.record(op, "engine.phase.dominator_gen", exec, at, p.dominator_gen);
        tracer.record(op, "engine.phase.remaining", exec, at, p.remaining);
        let span = tracer.begin(op, "protocol.encode", Some(query));
        frames = encode_frames(&out, k);
        tracer.end(span);
        let span = tracer.begin(op, "protocol.decode", Some(query));
        let traced_answer = decode_frames(&frames)?;
        tracer.end(span);
        tracer.end(query);
        traced.push(t.elapsed().as_secs_f64() * 1e3);
        if traced_answer != answer || traced_answer != Answer::of_output(&out) {
            return Err("protocol round trip changed the answer".into());
        }
        last = Some(out);
    }
    let out = last.ok_or("the replay needs at least one query")?;
    if out.pairs != bound.reference()?.pairs {
        return Err("in-process grouping disagrees with the dominator-based reference".into());
    }
    let c = out.stats.counts;
    m.set("verify.targets_pruned", c.targets_pruned as f64, "count");
    m.set("protocol.frames_per_query", frames.len() as f64, "count");
    m.set(
        "protocol.bytes_per_query",
        frames.iter().map(|f| f.len() + 1).sum::<usize>() as f64,
        "B",
    );

    // ksjq-relation::versioned + ksjq-core::maintain over the deltas.
    let deltas = &inputs.deltas[..inputs.deltas.len().min(REPLAY_DELTAS)];
    let (_, stats) = bound.epoch_answers(deltas, tracer)?;
    let per = |f: fn(&ksjq_core::MaintainStats) -> usize| {
        median(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    m.set(
        "maintain.cached_rechecked",
        per(|s| s.cached_rechecked),
        "count",
    );
    m.set(
        "maintain.candidates_checked",
        per(|s| s.candidates_checked),
        "count",
    );
    m.set(
        "maintain.cached_evicted",
        per(|s| s.cached_evicted),
        "count",
    );

    // ksjq-server::durability: the same payloads, fsynced, in scratch.
    let dir = TempDir::new(scratch, "wal-replay")?;
    let mut wal = compact(dir.path(), &[], 0, 0).map_err(|e| format!("wal: {e}"))?;
    for (epoch, delta) in deltas.iter().enumerate() {
        let line = inputs.append_line(delta);
        let span = tracer.begin(op, "durability.wal_append", None);
        wal.append(epoch as u64 + 1, line.as_bytes())
            .map_err(|e| format!("wal append: {e}"))?;
        tracer.end(span);
    }

    let ms = |name| tracer.median_ms(name);
    m.set("relation.register_ms", ms("relation.register"), "ms");
    m.set("relation.append_us", ms("relation.append") * 1e3, "us");
    m.set("join.context_ms", ms("join.context"), "ms");
    m.set("classify.ms", ms("classify"), "ms");
    m.set("verify.ms", ms("verify"), "ms");
    m.set("engine.prepare_us", ms("engine.prepare") * 1e3, "us");
    m.set("engine.execute_ms", ms("engine.execute"), "ms");
    m.set(
        "engine.phase.grouping_ms",
        ms("engine.phase.grouping"),
        "ms",
    );
    m.set("engine.phase.join_ms", ms("engine.phase.join"), "ms");
    m.set(
        "engine.phase.remaining_ms",
        ms("engine.phase.remaining"),
        "ms",
    );
    m.set("maintain.us", ms("maintain") * 1e3, "us");
    m.set("protocol.encode_ms", ms("protocol.encode"), "ms");
    m.set("protocol.decode_ms", ms("protocol.decode"), "ms");
    m.set(
        "durability.wal_append_ms",
        ms("durability.wal_append"),
        "ms",
    );
    m.set(
        "trace.self.engine_execute_ms",
        tracer.median_self_ms("engine.execute"),
        "ms",
    );
    m.set("trace.self.query_ms", tracer.median_self_ms("query"), "ms");

    let (t, u) = (median(&traced), median(&untraced));
    let overhead_pct = match (t, u) {
        (Some(t), Some(u)) if u > 0.0 => (t - u) / u * 100.0,
        _ => 0.0,
    };
    Ok(Replay {
        engine_ms: ms("engine.prepare") + ms("engine.execute"),
        encode_ms: ms("protocol.encode"),
        overhead_pct,
    })
}
