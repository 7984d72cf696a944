//! Replica bootstrap: clone a primary's catalog over the wire.
//!
//! A replica is an ordinary [`Server`](crate::Server) whose catalog was
//! seeded by replaying the primary's registrations — `SYNC` for the name
//! list, `SYNC <name>` for each relation as annotated CSV, re-registered
//! locally through the normal `parse_csv` path and rebound atomically. Row *order* is
//! preserved by the export (results are row-index pairs, so that is the
//! part that must match); group ids may differ between replicas because
//! each catalog runs its own string dictionary, which is invisible on
//! the wire.
//!
//! There is no ongoing replication stream: a router keeps replicas
//! consistent by applying every catalog mutation (`STAGE`/`COMMIT`,
//! `APPEND`/`DELETE`) to all of them. `SYNC` covers the cold start, and
//! [`resync_if_stale`] covers catch-up — `SYNC` reports the primary's
//! `catalog_epoch`, so a lagging replica (down during a delta, say) can
//! detect drift and re-clone without a restart.

use crate::client::{retry_with_backoff, ClientError, ClientResult, ConnectOptions, KsjqClient};
use ksjq_core::Engine;
use std::time::Duration;

/// Replay the primary's relations into `engine`'s catalog, dropping any
/// local binding the primary no longer serves.
fn clone_relations(engine: &Engine, client: &mut KsjqClient, names: &[String]) -> ClientResult<()> {
    let catalog = engine.catalog();
    for stale in catalog.names().into_iter().filter(|n| !names.contains(n)) {
        catalog.deregister(&stale);
    }
    for name in names {
        let csv = client.sync_relation(name)?;
        catalog
            .parse_csv(&csv)
            .and_then(|rel| catalog.replace(name.as_str(), std::sync::Arc::new(rel)))
            .map_err(|e| {
                ClientError::Protocol(format!("primary sent unloadable CSV for {name:?}: {e}"))
            })?;
    }
    Ok(())
}

/// Clone the whole catalog and *verify* the primary's `catalog_epoch`
/// did not move while we were copying. `SYNC <name>` fetches relations
/// one at a time, so a mutation landing mid-clone would leave the
/// replica with a catalog no single epoch ever described — some
/// relations pre-delta, some post. The handshake re-reads the epoch
/// after the last relation and re-clones (bounded) until it gets a
/// clean pass, so the epoch a replica reports is one the primary
/// actually served.
fn clone_verified(engine: &Engine, client: &mut KsjqClient) -> ClientResult<(u64, Vec<String>)> {
    const ATTEMPTS: usize = 4;
    for _ in 0..ATTEMPTS {
        let (epoch, names) = client.sync_catalog()?;
        clone_relations(engine, client, &names)?;
        let (after, _) = client.sync_catalog()?;
        if after == epoch {
            return Ok((epoch, names));
        }
    }
    Err(ClientError::Protocol(format!(
        "primary catalog kept mutating during clone ({ATTEMPTS} attempts)"
    )))
}

/// Pull every relation the primary serves into `engine`'s catalog
/// (upserting over any same-named local binding), verifying the
/// primary's `catalog_epoch` was stable across the clone. Returns the
/// synced names, sorted.
pub fn sync_catalog(engine: &Engine, client: &mut KsjqClient) -> ClientResult<Vec<String>> {
    let (_, names) = clone_verified(engine, client)?;
    Ok(names)
}

/// Compare the primary's `catalog_epoch` against `last_epoch` and
/// re-clone the whole catalog if they differ. Returns `None` when the
/// replica was already current, `Some((epoch, names))` after a re-clone.
///
/// The caller owns the epoch bookkeeping *and* its own server's
/// invalidation: after a `Some`, call
/// [`ServerHandle::catalog_updated`](crate::ServerHandle::catalog_updated)
/// so the local result cache and versioned chains drop with the old
/// catalog.
pub fn resync_if_stale(
    engine: &Engine,
    client: &mut KsjqClient,
    last_epoch: u64,
) -> ClientResult<Option<(u64, Vec<String>)>> {
    let (epoch, _) = client.sync_catalog()?;
    if epoch == last_epoch {
        return Ok(None);
    }
    clone_verified(engine, client).map(Some)
}

/// Connect to `primary` (with `opts` timeouts, retrying transport
/// failures up to `attempts` times under jittered backoff) and
/// [`sync_catalog`] into `engine`. Returns the primary's `catalog_epoch`
/// at clone time (feed it to [`resync_if_stale`] later) and the synced
/// names. The retry covers the common race of a replica starting before
/// its primary finishes binding.
pub fn sync_from(
    engine: &Engine,
    primary: &str,
    opts: &ConnectOptions,
    attempts: u32,
    seed: u64,
) -> ClientResult<(u64, Vec<String>)> {
    retry_with_backoff(
        attempts,
        Duration::from_millis(100),
        Duration::from_secs(2),
        seed,
        |_| {
            let mut client = KsjqClient::connect_with(primary, opts)?;
            let cloned = clone_verified(engine, &mut client)?;
            let _ = client.close();
            Ok(cloned)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use ksjq_datagen::paper_flights;

    fn ephemeral() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn replica_clones_catalog_and_answers_identically() {
        let primary_engine = Engine::new();
        let pf = paper_flights(false);
        let (out_n, in_n) = (pf.outbound.n(), pf.inbound.n());
        primary_engine.register("outbound", pf.outbound).unwrap();
        primary_engine.register("inbound", pf.inbound).unwrap();
        let primary = Server::start(primary_engine, &ephemeral()).unwrap();

        let replica_engine = Engine::new();
        let (_, names) = sync_from(
            &replica_engine,
            &primary.addr().to_string(),
            &ConnectOptions::all(Duration::from_secs(5)),
            3,
            7,
        )
        .unwrap();
        assert_eq!(names, vec!["inbound".to_owned(), "outbound".to_owned()]);
        let catalog = replica_engine.catalog();
        assert_eq!(catalog.get("outbound").unwrap().n(), out_n);
        assert_eq!(catalog.get("inbound").unwrap().n(), in_n);

        // Same rows in the same order: raw values match tuple by tuple.
        let oracle = paper_flights(false);
        let synced = catalog.get("outbound").unwrap();
        for (t, _) in oracle.outbound.rows() {
            assert_eq!(synced.relation().raw_row(t), oracle.outbound.raw_row(t));
        }

        // And the replica reproduces Table 3 through its own server.
        let replica = Server::start(replica_engine, &ephemeral()).unwrap();
        let mut client = KsjqClient::connect(replica.addr()).unwrap();
        let rows = client
            .query(&crate::protocol::PlanSpec::new("outbound", "inbound").k(7))
            .unwrap();
        assert_eq!(rows.pairs, vec![(0, 2), (2, 0), (4, 4), (5, 5)]);
        client.close().unwrap();
        replica.stop().unwrap();
        primary.stop().unwrap();
    }

    #[test]
    fn lagging_replica_resyncs_on_epoch_drift() {
        let primary_engine = Engine::new();
        let pf = paper_flights(false);
        let out_n = pf.outbound.n();
        primary_engine.register("outbound", pf.outbound).unwrap();
        primary_engine.register("inbound", pf.inbound).unwrap();
        let primary = Server::start(primary_engine, &ephemeral()).unwrap();

        let replica_engine = Engine::new();
        let (epoch, _) = sync_from(
            &replica_engine,
            &primary.addr().to_string(),
            &ConnectOptions::all(Duration::from_secs(5)),
            3,
            11,
        )
        .unwrap();

        // In step with the primary: the epoch probe is a no-op.
        let mut client = KsjqClient::connect(primary.addr()).unwrap();
        assert!(resync_if_stale(&replica_engine, &mut client, epoch)
            .unwrap()
            .is_none());

        // The primary takes an APPEND this replica never saw; the next
        // probe notices the epoch drift and re-clones.
        client.append_rows("outbound", "ZRH,1,2,3,4").unwrap();
        let (e2, names) = resync_if_stale(&replica_engine, &mut client, epoch)
            .unwrap()
            .expect("epoch moved, so the replica must re-clone");
        assert!(e2 > epoch);
        assert_eq!(names, vec!["inbound".to_owned(), "outbound".to_owned()]);
        assert_eq!(
            replica_engine.catalog().get("outbound").unwrap().n(),
            out_n + 1
        );

        // And it settles: once caught up, probing is a no-op again.
        assert!(resync_if_stale(&replica_engine, &mut client, e2)
            .unwrap()
            .is_none());
        client.close().unwrap();
        primary.stop().unwrap();
    }

    #[test]
    fn cloned_epoch_matches_what_the_primary_serves() {
        // The epoch handshake: the epoch `sync_from` hands back must be
        // one the primary actually reports for the cloned state — a
        // replica that fed a mid-clone epoch to `resync_if_stale` would
        // either miss a delta forever or re-clone on every poll.
        let primary_engine = Engine::new();
        let pf = paper_flights(false);
        primary_engine.register("outbound", pf.outbound).unwrap();
        primary_engine.register("inbound", pf.inbound).unwrap();
        let primary = Server::start(primary_engine, &ephemeral()).unwrap();

        let replica_engine = Engine::new();
        let (epoch, _) = sync_from(
            &replica_engine,
            &primary.addr().to_string(),
            &ConnectOptions::all(Duration::from_secs(5)),
            3,
            13,
        )
        .unwrap();
        let mut client = KsjqClient::connect(primary.addr()).unwrap();
        assert_eq!(client.stats().unwrap().catalog_epoch, epoch);
        client.close().unwrap();
        primary.stop().unwrap();
    }

    #[test]
    fn recovering_server_refuses_reads_with_a_stable_code() {
        // While a replica re-clones, its front end must refuse queries
        // with `ERR recovering` — never serve the half-replaced catalog.
        let engine = Engine::new();
        let pf = paper_flights(false);
        engine.register("outbound", pf.outbound).unwrap();
        engine.register("inbound", pf.inbound).unwrap();
        let server = Server::start(engine, &ephemeral()).unwrap();
        let handle = server.handle();

        let mut client = KsjqClient::connect(server.addr()).unwrap();
        let plan = crate::protocol::PlanSpec::new("outbound", "inbound").k(7);

        handle.set_recovering(true);
        let err = client.query(&plan).unwrap_err();
        assert_eq!(err.code(), Some(crate::protocol::ErrorCode::Recovering));
        assert!(err.is_transient(), "recovering must invite a retry");
        // STATS stays reachable so operators can watch the recovery.
        assert!(client.stats().is_ok());

        handle.set_recovering(false);
        assert_eq!(
            client.query(&plan).unwrap().pairs,
            vec![(0, 2), (2, 0), (4, 4), (5, 5)]
        );
        client.close().unwrap();
        server.stop().unwrap();
    }

    #[test]
    fn sync_from_retries_until_primary_appears() {
        // Nothing listens on this address: every attempt is a transport
        // failure, so all three attempts burn before the error surfaces.
        let engine = Engine::new();
        let err = sync_from(
            &engine,
            "127.0.0.1:1",
            &ConnectOptions::all(Duration::from_millis(50)),
            3,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "got {err}");
    }
}
