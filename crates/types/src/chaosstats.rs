//! Process-wide chaos/degradation counters.
//!
//! The chaos subsystem injects adversarial faults (bursty loss, outage
//! windows, stalls, truncation, garbage) below the TLS layer and the
//! consumers above it degrade gracefully (retries, give-ups, skipped
//! milkings, partial walls). These counters record how much degradation
//! a run absorbed — the observability half of the chaos harness,
//! surfaced by `repro --timing` as `BENCH_chaos.json`.
//!
//! Like [`crate::wirestats`], they are relaxed write-only atomics:
//! nothing in the simulation ever reads them, so they cannot perturb
//! determinism, and they live in `iiscope-types` so the bottom of the
//! stack (`iiscope-netsim`'s fault injector) can report without
//! depending on the crates above it.

counters! {
    /// Deliveries dropped by the memoryless loss coin.
    DROPS_RANDOM / add_drops_random / "drops_random";
    /// Deliveries dropped while a Gilbert–Elliott burst was active.
    DROPS_BURST / add_drops_burst / "drops_burst";
    /// Deliveries dropped inside a scheduled outage window.
    DROPS_OUTAGE / add_drops_outage / "drops_outage";
    /// Deliveries dropped for exceeding the link size limit.
    DROPS_OVERSIZE / add_drops_oversize / "drops_oversize";
    /// Exchanges accepted by the link but never answered (stalls).
    STALLS / add_stalls / "stalls";
    /// Delivered payloads with an injected bit flip.
    CORRUPTIONS / add_corruptions / "corruptions";
    /// Delivered payloads truncated mid-stream.
    TRUNCATIONS / add_truncations / "truncations";
    /// Delivered payloads overwritten with garbage bytes.
    GARBAGE / add_garbage / "garbage_payloads";
    /// HTTP exchanges re-attempted after a transport failure.
    RETRIES / add_retries / "retries";
    /// HTTP exchanges abandoned after the retry policy gave up.
    GIVE_UPS / add_give_ups / "give_ups";
    /// Simulated seconds spent backing off between attempts.
    BACKOFF_SECS / add_backoff_secs / "backoff_secs";
    /// Exchanges abandoned because the per-exchange deadline passed.
    DEADLINE_EXCEEDED / add_deadline_exceeded / "deadline_exceeded";
    /// Offer-wall milking sessions abandoned on network failure.
    MILKS_ABANDONED / add_milks_abandoned / "milks_abandoned";
    /// Play crawls (profile/chart/APK) abandoned on network failure.
    CRAWLS_ABANDONED / add_crawls_abandoned / "crawls_abandoned";
    /// Intercepted offer walls that arrived damaged or incomplete.
    WALLS_PARTIAL / add_walls_partial / "walls_partial";
    /// Telemetry uploads abandoned after retries (collector unreachable).
    UPLOADS_ABANDONED / add_uploads_abandoned / "uploads_abandoned";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_increments_in_order() {
        reset();
        add_drops_random(3);
        add_stalls(2);
        add_uploads_abandoned(5);
        let snap = snapshot();
        assert_eq!(snap[0], ("drops_random", 3));
        assert!(snap.contains(&("stalls", 2)));
        assert_eq!(snap.last().unwrap(), &("uploads_abandoned", 5));
        reset();
        assert!(snapshot().iter().all(|&(_, v)| v == 0));
    }
}
