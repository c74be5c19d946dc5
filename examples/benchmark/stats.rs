//! Small numeric helpers: metric lists, percentiles, the report
//! digest, and the process counters the kernel keeps for us.

use iiscope_wire::Json;

/// Metrics as `(name, value, unit)`, in the order they were taken.
pub type Metrics = Vec<(String, f64, &'static str)>;

pub fn push(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.push((name.to_string(), value, unit));
}

/// `{"name": {"value": v, "unit": u}, …}`, the shape every output uses.
pub fn metrics_json(metrics: &Metrics) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([("value", Json::Float(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// Nearest-rank percentile of `samples` (sorted in place), or 0 when
/// there are none.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values` (mean of the middle pair on even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
/// spreads read the same here as in the acceptance check. Needs at
/// least two values; one value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Python's loop body, verbatim in integer arithmetic.
    let at = |i: i64| {
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// FNV-1a 64-bit digest, the hash the committed report digests use.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// User + system CPU seconds this process has consumed, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set of this process in MB (VmHWM), or 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    iiscope_types::rss::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6)
}

/// A tiny seeded generator (SplitMix64) for the request mixes: the
/// benchmark's inputs are a pure function of `--seed`.
pub struct Mix64(u64);

impl Mix64 {
    pub fn new(seed: u64) -> Mix64 {
        Mix64(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
