//! Process-wide socket-server counters.
//!
//! `iiscope-serve` exposes a finished world to real TCP clients as a
//! second consumer of the sans-IO wire substrates. These counters
//! record what the accept loop and connection workers did — the
//! observability half of the server, surfaced by `repro --timing` as
//! part of `BENCH_serve.json` and dumped on shutdown.
//!
//! Like [`crate::wirestats`], they are relaxed write-only atomics:
//! nothing in the simulation ever reads them, so they cannot perturb
//! determinism, and they live in `iiscope-types` so any layer can
//! report without new dependency edges.

counters! {
    /// Connections accepted by the listener workers.
    CONNS_ACCEPTED / add_conns_accepted / "conns_accepted";
    /// Connections fully closed (handler thread exited).
    CONNS_CLOSED / add_conns_closed / "conns_closed";
    /// Times an accept worker paused because the in-flight connection
    /// count sat at the cap (backpressure events, not wait duration).
    ACCEPT_BACKPRESSURE / add_accept_backpressure / "accept_backpressure_waits";
    /// Requests answered over real sockets.
    REQUESTS_SERVED / add_requests_served / "requests_served";
    /// Request bytes read off sockets.
    BYTES_READ / add_bytes_read / "bytes_read";
    /// Response bytes written to sockets.
    BYTES_WRITTEN / add_bytes_written / "bytes_written";
    /// Connections that served more than one request (keep-alive paid
    /// off at least once).
    KEEPALIVE_CONNS / add_keepalive_conns / "keepalive_conns";
    /// Connections closed for exceeding the idle timeout.
    IDLE_TIMEOUTS / add_idle_timeouts / "idle_timeouts";
    /// Connections poisoned by a parse reject (400/413/431) and closed
    /// after the mapped status was flushed.
    PARSE_REJECTS / add_parse_rejects / "parse_rejects";
    /// Connections closed for blowing a per-connection read or write
    /// budget.
    BUDGET_CLOSES / add_budget_closes / "budget_closes";
    /// Connections still open when shutdown began and drained cleanly.
    DRAINED_CONNS / add_drained_conns / "drained_conns";
    /// Responses served from the day-versioned render cache.
    CACHE_HITS / add_cache_hits / "cache_hits";
    /// Cacheable requests that had to render fresh.
    CACHE_MISSES / add_cache_misses / "cache_misses";
    /// Times the render cache dropped its entries on a version bump.
    CACHE_INVALIDATIONS / add_cache_invalidations / "cache_invalidations";
    /// Connection buffers checked out of the per-server pool.
    POOL_HITS / add_pool_hits / "pool_hits";
    /// Connections that had to allocate fresh buffers (pool empty).
    POOL_MISSES / add_pool_misses / "pool_misses";
    /// Connections dropped on a peer reset/abort mid-read (routine
    /// under hostile churn; never a worker death).
    READ_RESETS / add_read_resets / "read_resets";
    /// Connections dropped on any other unexpected read error.
    READ_ERRORS / add_read_errors / "read_errors";
    /// Connections answered a pre-encoded 503 and closed before any
    /// parse (accept-queue age past its watermark).
    SHEDS_PREPARSE / add_sheds_preparse / "sheds_preparse";
    /// Requests shed with 503 at the in-flight-renders watermark.
    SHEDS_INFLIGHT / add_sheds_inflight / "sheds_inflight";
    /// Requests shed with 503 at the per-route concurrency watermark.
    SHEDS_ROUTE / add_sheds_route / "sheds_route";
    /// Requests shed with 503 after outliving their deadline budget
    /// before rendering began.
    SHEDS_DEADLINE / add_sheds_deadline / "sheds_deadline";
    /// Requests a shed gate would have turned away but answered from
    /// the render cache instead (hits are too cheap to shed).
    SHED_CACHE_EXEMPT / add_shed_cache_exempt / "shed_cache_exempt";
    /// Partial requests answered 408 and closed because they were
    /// still incomplete past the deadline budget (byte-drip clients).
    DEADLINE_408S / add_deadline_408s / "deadline_408s";
    /// Connection-thread panics caught and converted to closes.
    CONN_PANICS / add_conn_panics / "conn_panics";
    /// Accept workers respawned by the supervisor after dying outside
    /// shutdown.
    WORKER_RESPAWNS / add_worker_respawns / "worker_respawns";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_increments_in_order() {
        reset();
        add_conns_accepted(3);
        add_requests_served(9);
        add_drained_conns(1);
        add_cache_hits(4);
        add_pool_misses(2);
        add_read_resets(5);
        let snap = snapshot();
        assert_eq!(snap[0], ("conns_accepted", 3));
        assert_eq!(snap[3], ("requests_served", 9));
        assert_eq!(snap[10], ("drained_conns", 1));
        assert_eq!(snap[11], ("cache_hits", 4));
        assert_eq!(snap[15], ("pool_misses", 2));
        assert_eq!(snap[16], ("read_resets", 5));
        reset();
        assert!(snapshot().iter().all(|&(_, v)| v == 0));
    }
}
