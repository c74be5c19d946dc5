//! Chaos/degradation counters.
//!
//! The chaos subsystem injects adversarial faults (bursty loss, outage
//! windows, stalls, truncation, garbage) below the TLS layer and the
//! consumers above it degrade gracefully (retries, give-ups, skipped
//! milkings, partial walls). These counters record how much degradation
//! a run absorbed — the observability half of the chaos harness,
//! surfaced by `repro --timing` as `BENCH_chaos.json`.
//!
//! Like [`crate::wirestats`], each world's network owns one book
//! (`Network::chaos`) that every layer counts into, and the counters
//! are relaxed write-only atomics that nothing in the simulation reads,
//! so they cannot perturb determinism.

crate::counters! {
    /// The chaos-layer counter book.
    pub struct ChaosCounters;
    /// Deliveries dropped by the memoryless loss coin.
    drops_random / add_drops_random / "drops_random";
    /// Deliveries dropped while a Gilbert–Elliott burst was active.
    drops_burst / add_drops_burst / "drops_burst";
    /// Deliveries dropped inside a scheduled outage window.
    drops_outage / add_drops_outage / "drops_outage";
    /// Deliveries dropped for exceeding the link size limit.
    drops_oversize / add_drops_oversize / "drops_oversize";
    /// Exchanges accepted by the link but never answered (stalls).
    stalls / add_stalls / "stalls";
    /// Delivered payloads with an injected bit flip.
    corruptions / add_corruptions / "corruptions";
    /// Delivered payloads truncated mid-stream.
    truncations / add_truncations / "truncations";
    /// Delivered payloads overwritten with garbage bytes.
    garbage / add_garbage / "garbage_payloads";
    /// HTTP exchanges re-attempted after a transport failure.
    retries / add_retries / "retries";
    /// HTTP exchanges abandoned after the retry policy gave up.
    give_ups / add_give_ups / "give_ups";
    /// Simulated seconds spent backing off between attempts.
    backoff_secs / add_backoff_secs / "backoff_secs";
    /// Exchanges abandoned because the per-exchange deadline passed.
    deadline_exceeded / add_deadline_exceeded / "deadline_exceeded";
    /// Offer-wall milking sessions abandoned on network failure.
    milks_abandoned / add_milks_abandoned / "milks_abandoned";
    /// Play crawls (profile/chart/APK) abandoned on network failure.
    crawls_abandoned / add_crawls_abandoned / "crawls_abandoned";
    /// Intercepted offer walls that arrived damaged or incomplete.
    walls_partial / add_walls_partial / "walls_partial";
    /// Telemetry uploads abandoned after retries (collector unreachable).
    uploads_abandoned / add_uploads_abandoned / "uploads_abandoned";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_increments_in_order() {
        let c = ChaosCounters::new();
        c.add_drops_random(3);
        c.add_stalls(2);
        c.add_uploads_abandoned(5);
        let snap = c.snapshot();
        assert_eq!(snap[0], ("drops_random", 3));
        assert!(snap.contains(&("stalls", 2)));
        assert_eq!(snap.last().unwrap(), &("uploads_abandoned", 5));
    }

    #[test]
    fn restore_ignores_unknown_keys_and_keeps_missing_ones() {
        let c = ChaosCounters::new();
        c.add_retries(4);
        c.add_stalls(1);
        c.restore(&[
            ("stalls".to_string(), 9),
            ("no_such_counter".to_string(), 7),
            ("garbage_payloads".to_string(), 3),
        ]);
        assert_eq!(c.stalls(), 9);
        assert_eq!(c.garbage(), 3);
        assert_eq!(
            c.retries(),
            4,
            "a key missing from the ledger keeps its value"
        );
        let total: u64 = c.snapshot().iter().map(|&(_, v)| v).sum();
        assert_eq!(total, 9 + 3 + 4, "the unknown key landed nowhere");
    }
}
