//! Client-side books for the load harness and the soak test: one
//! wall-clock duration per request, reduced to the percentiles
//! reported in `BENCH_load.json` and `BENCH_serve.json`, and a tally of
//! response statuses.

/// Microsecond latencies collected by a soak run.
#[derive(Debug, Default)]
pub struct LatencyLog {
    samples_us: Vec<u64>,
}

impl LatencyLog {
    /// An empty log.
    pub fn new() -> LatencyLog {
        LatencyLog::default()
    }

    /// Records one request latency.
    pub fn record(&mut self, micros: u64) {
        self.samples_us.push(micros);
    }

    /// Absorbs another log (per-thread logs merge into one).
    pub fn merge(&mut self, other: LatencyLog) {
        self.samples_us.extend(other.samples_us);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// The `p`-th percentile (nearest-rank, `0.0..=100.0`) in
    /// microseconds; 0 when no samples were recorded.
    pub fn percentile_us(&mut self, p: f64) -> u64 {
        if self.samples_us.is_empty() {
            return 0;
        }
        self.samples_us.sort_unstable();
        let n = self.samples_us.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.samples_us[rank.clamp(1, n) - 1]
    }
}

/// Client-side tally of response status codes, bucketed the way the
/// regression gate reads them: successes, not-founds, the reject
/// statuses (408/413/431) individually, and everything else. Each
/// client run keeps its own, so concurrent soak and load runs in one
/// test binary never mix their books.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatusTally {
    /// 2xx responses.
    pub ok: u64,
    /// 404s (unknown routes — expected in fuzzing mixes, drift in
    /// clean ones).
    pub not_found: u64,
    /// 408 Request Timeout (slowloris kills).
    pub timeouts_408: u64,
    /// 413 Payload Too Large rejects.
    pub rejects_413: u64,
    /// 431 Request Header Fields Too Large rejects.
    pub rejects_431: u64,
    /// 503 load sheds — flow control, not failures: a shedding server
    /// under the overload bench must not read as a correctness
    /// regression, so these stay out of [`StatusTally::errors`].
    pub sheds_503: u64,
    /// Everything else (other 4xx/5xx).
    pub other: u64,
}

impl StatusTally {
    /// An empty tally.
    pub fn new() -> StatusTally {
        StatusTally::default()
    }

    /// Buckets one response status.
    pub fn record(&mut self, status: u16) {
        match status {
            200..=299 => self.ok += 1,
            404 => self.not_found += 1,
            408 => self.timeouts_408 += 1,
            413 => self.rejects_413 += 1,
            431 => self.rejects_431 += 1,
            503 => self.sheds_503 += 1,
            _ => self.other += 1,
        }
    }

    /// Absorbs another tally (per-thread tallies merge into one).
    pub fn merge(&mut self, other: StatusTally) {
        self.ok += other.ok;
        self.not_found += other.not_found;
        self.timeouts_408 += other.timeouts_408;
        self.rejects_413 += other.rejects_413;
        self.rejects_431 += other.rejects_431;
        self.sheds_503 += other.sheds_503;
        self.other += other.other;
    }

    /// Total responses recorded.
    pub fn total(&self) -> u64 {
        self.ok
            + self.not_found
            + self.timeouts_408
            + self.rejects_413
            + self.rejects_431
            + self.sheds_503
            + self.other
    }

    /// Responses outside the expected 2xx/404 envelope — what the
    /// regression gate treats as correctness drift. 503 sheds are
    /// deliberately excluded: an overloaded server answering them is
    /// doing exactly what it was configured to do.
    pub fn errors(&self) -> u64 {
        self.timeouts_408 + self.rejects_413 + self.rejects_431 + self.other
    }

    /// The tally as `(json_key, value)` pairs, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("ok", self.ok),
            ("not_found", self.not_found),
            ("rejects_408", self.timeouts_408),
            ("rejects_413", self.rejects_413),
            ("rejects_431", self.rejects_431),
            ("sheds_503", self.sheds_503),
            ("other", self.other),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_tally_buckets_and_merges() {
        let mut t = StatusTally::new();
        for s in [200, 204, 404, 408, 413, 431, 503, 503, 500, 403] {
            t.record(s);
        }
        assert_eq!(t.ok, 2);
        assert_eq!(t.not_found, 1);
        assert_eq!(t.timeouts_408, 1);
        assert_eq!(t.rejects_413, 1);
        assert_eq!(t.rejects_431, 1);
        assert_eq!(t.sheds_503, 2);
        assert_eq!(t.other, 2);
        assert_eq!(t.total(), 10);
        // Sheds are flow control, not drift: errors() skips them.
        assert_eq!(t.errors(), 5);
        let mut u = StatusTally::new();
        u.record(200);
        u.merge(t);
        assert_eq!(u.total(), 11);
        assert_eq!(u.ok, 3);
        assert_eq!(u.sheds_503, 2);
        assert_eq!(u.fields()[0], ("ok", 3));
        assert_eq!(u.fields()[5], ("sheds_503", 2));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut log = LatencyLog::new();
        assert_eq!(log.percentile_us(99.0), 0);
        for v in [5, 1, 4, 2, 3] {
            log.record(v);
        }
        assert_eq!(log.percentile_us(50.0), 3);
        assert_eq!(log.percentile_us(99.0), 5);
        assert_eq!(log.percentile_us(100.0), 5);
        let mut other = LatencyLog::new();
        other.record(10);
        log.merge(other);
        assert_eq!(log.len(), 6);
        assert_eq!(log.percentile_us(100.0), 10);
    }
}
