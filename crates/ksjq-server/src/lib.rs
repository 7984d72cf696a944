//! Serving KSJQ over TCP.
//!
//! This crate turns the in-process [`Engine`](ksjq_core::Engine) into a
//! network service, std-only (no async runtime, no serialisation
//! framework — the workspace is offline):
//!
//! * [`protocol`] — the line-oriented wire format: typed [`Request`] /
//!   [`Response`] enums whose `Display` and `parse` round-trip. Two
//!   versions share the wire: v1's one-shot `ROWS`, and v2 (negotiated
//!   via `HELLO`) which streams results as bounded `ROWS … part=i/m`
//!   chunks pageable with `MORE <cursor>`.
//! * [`server`] — [`Server`]: a readiness-polled front end (non-blocking
//!   listener + poll loop, no async runtime) multiplexing thousands of
//!   connections, dispatching complete requests onto a fixed worker pool
//!   sharing one engine, with admission control (connection cap with
//!   `ERR busy` shedding, idle/stall reaping, catalog size budgets).
//! * [`frame`] — [`FrameBuffer`]: per-connection incremental line
//!   reassembly with bounded buffering and oversized-line resync.
//! * [`cache`] — [`ResultCache`]: an LRU over normalised plan
//!   fingerprints with hit/miss/eviction counters, per-relation
//!   invalidation on catalog registration, and cursor-addressable
//!   entries backing v2 `MORE` paging.
//! * [`client`] — [`KsjqClient`]: the blocking client the tests, the
//!   benchmark harness's `--remote` mode and the examples use. Streams
//!   by default ([`KsjqClient::execute_stream`]); the one-shot calls
//!   drain the stream internally.
//! * [`replica`] — catalog cloning over the wire (`SYNC`), backing
//!   `ksjq-serverd --replica-of`; together with the two-phase load
//!   (`STAGE`/`COMMIT`/`ABORT`) and scatter-gather verification
//!   primitives (`FETCH`/`CHECK`) it is the server half of the
//!   `ksjq-router` distributed deployment.
//! * [`durability`] — the checksummed write-ahead log and snapshot
//!   behind `ksjq-serverd --data-dir`: every catalog mutation is fsynced
//!   before its `OK`, and restart replays the committed state exactly,
//!   truncating any torn tail a crash left behind.
//! * [`faults`] — seeded, deterministic transport fault injection
//!   ([`FaultPlan`]): drops, delays, partial writes and bit flips,
//!   replayable from the seed, for chaos tests over real processes.
//!
//! The `ksjq-serverd` binary serves a preloaded demo catalog;
//! `ksjq-client` scripts a session from stdin (the CI smoke test drives
//! it with a here-doc).
//!
//! ```no_run
//! use ksjq_core::Engine;
//! use ksjq_datagen::paper_flights;
//! use ksjq_server::{KsjqClient, PlanSpec, Server, ServerConfig};
//!
//! let engine = Engine::new();
//! let pf = paper_flights(false);
//! engine.register("outbound", pf.outbound).unwrap();
//! engine.register("inbound", pf.inbound).unwrap();
//! let server = Server::start(engine, &ServerConfig::default()).unwrap();
//!
//! let mut client = KsjqClient::connect(server.addr()).unwrap();
//! client.prepare("q", &PlanSpec::new("outbound", "inbound").k(7)).unwrap();
//! assert_eq!(client.execute("q").unwrap().pairs.len(), 4); // Table 3
//! client.close().unwrap();
//! server.stop().unwrap();
//! ```

pub mod cache;
pub mod client;
pub mod demo;
pub mod durability;
pub mod faults;
pub mod frame;
pub mod protocol;
pub mod replica;
pub mod server;

pub use cache::{CacheCounters, ResultCache};
pub use client::{
    retry_with_backoff, ClientError, ClientResult, ConnectOptions, KsjqClient, RowStream,
};
pub use demo::register_demo_catalog;
pub use faults::{FaultAction, FaultPlan, FaultStream};
pub use frame::{Frame, FrameBuffer};
pub use protocol::{
    leg_token, Cursor, ErrorCode, LegSet, LoadSource, PlanSpec, ProtoResult, Request, Response,
    RowChunk, RowSet, ServerStats, SyntheticSpec, MAX_LINE_BYTES, MAX_ROWS_FRAME_BYTES,
    PROTOCOL_VERSION, ROWS_PER_CHUNK,
};
pub use replica::{resync_if_stale, sync_catalog, sync_from};
pub use server::{RunningServer, Server, ServerConfig, ServerHandle};
