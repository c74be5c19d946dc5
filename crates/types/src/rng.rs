//! Deterministic randomness: labelled seed fan-out and the sampling
//! distributions used by the world generators.
//!
//! The whole study derives from one `u64` world seed. Subsystems fork
//! child seeds by *label* ([`SeedFork::fork`]), so adding a new consumer
//! of randomness never perturbs the streams of existing ones — the
//! property that keeps the calibrated tables stable as the codebase
//! grows.
//!
//! Distribution choices mirror the shapes the paper observes:
//! app popularity and payouts are heavy-tailed (log-normal / Zipf),
//! behavioural coin flips are Bernoulli mixtures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled point in the deterministic seed tree.
///
/// ```
/// use iiscope_types::SeedFork;
/// let world = SeedFork::new(42);
/// let a = world.fork("playstore").fork("catalog");
/// let b = world.fork("playstore").fork("catalog");
/// assert_eq!(a.seed(), b.seed());          // same path, same seed
/// assert_ne!(a.seed(), world.fork("iip").seed()); // different path, different seed
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedFork(u64);

impl SeedFork {
    /// Root of the seed tree.
    pub fn new(world_seed: u64) -> SeedFork {
        SeedFork(splitmix64(world_seed ^ 0x9E37_79B9_7F4A_7C15))
    }

    /// Derives a child seed for `label`. FNV-1a over the label folded
    /// into the parent seed, finished with splitmix64 for diffusion.
    pub fn fork(&self, label: &str) -> SeedFork {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.0;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SeedFork(splitmix64(h))
    }

    /// Derives a child seed for an indexed entity (e.g. "device #17").
    pub fn fork_idx(&self, label: &str, idx: u64) -> SeedFork {
        SeedFork(splitmix64(self.fork(label).0 ^ splitmix64(idx)))
    }

    /// The raw derived seed.
    pub fn seed(&self) -> u64 {
        self.0
    }

    /// Instantiates a [`StdRng`] at this point of the tree.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.0)
    }
}

/// splitmix64 finalizer — a cheap, high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a standard normal via the Box–Muller transform.
pub fn normal(rng: &mut impl Rng, mean: f64, std_dev: f64) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std_dev * z
}

/// Samples a log-normal: `exp(N(mu, sigma))`.
///
/// Used for app install counts, payout spreads and app ages — all
/// heavy-tailed in the paper (e.g. Figure 4 spans <1K to >1000M).
pub fn log_normal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Precomputed Zipf sampler (popularity of apps inside affiliate-app
/// usage lists, offer-selection bias toward high payouts, …).
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the cumulative table for `n` ranks and exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> ZipfTable {
        assert!(n > 0, "zipf over empty support");
        assert!(s.is_finite(), "zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfTable { cdf }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the support is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..len()` (0 is the most popular).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Samples an index proportionally to `weights`. Returns `None` when
/// `weights` is empty or sums to a non-positive value.
pub fn weighted_index(rng: &mut impl Rng, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
    if total <= 0.0 || total.is_nan() {
        return None;
    }
    let mut needle = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        if *w <= 0.0 {
            continue;
        }
        needle -= w;
        if needle <= 0.0 {
            return Some(i);
        }
    }
    // Floating-point slop: fall back to the last positive weight.
    weights.iter().rposition(|w| *w > 0.0)
}

/// Bernoulli draw with probability `p` (clamped to [0, 1]).
pub fn chance(rng: &mut impl Rng, p: f64) -> bool {
    rng.gen::<f64>() < p.clamp(0.0, 1.0)
}

/// Samples an exponential with the given mean (inter-arrival times of
/// installs during a campaign).
pub fn exponential(rng: &mut impl Rng, mean: f64) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

/// Reservoir-samples `k` items out of an iterator, preserving
/// deterministic behaviour for a given RNG state.
pub fn sample_k<T>(rng: &mut impl Rng, iter: impl IntoIterator<Item = T>, k: usize) -> Vec<T> {
    let mut reservoir: Vec<T> = Vec::with_capacity(k);
    for (i, item) in iter.into_iter().enumerate() {
        if reservoir.len() < k {
            reservoir.push(item);
        } else {
            let j = rng.gen_range(0..=i);
            if j < k {
                reservoir[j] = item;
            }
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_is_deterministic_and_label_sensitive() {
        let root = SeedFork::new(7);
        assert_eq!(root.fork("a").seed(), root.fork("a").seed());
        assert_ne!(root.fork("a").seed(), root.fork("b").seed());
        assert_ne!(
            root.fork("a").fork("b").seed(),
            root.fork("b").fork("a").seed()
        );
        assert_ne!(SeedFork::new(7).seed(), SeedFork::new(8).seed());
    }

    #[test]
    fn fork_idx_distinguishes_indices() {
        let root = SeedFork::new(1);
        let s: std::collections::BTreeSet<u64> = (0..100)
            .map(|i| root.fork_idx("device", i).seed())
            .collect();
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = SeedFork::new(3).rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn log_normal_is_positive_and_heavy_tailed() {
        let mut rng = SeedFork::new(4).rng();
        let samples: Vec<f64> = (0..10_000)
            .map(|_| log_normal(&mut rng, 2.0, 1.5))
            .collect();
        assert!(samples.iter().all(|x| *x > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let med = {
            let mut s = samples;
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(
            mean > med,
            "heavy tail: mean {mean} should exceed median {med}"
        );
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let mut rng = SeedFork::new(5).rng();
        let table = ZipfTable::new(50, 1.2);
        let mut counts = [0usize; 50];
        for _ in 0..20_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        assert!(counts.iter().sum::<usize>() == 20_000);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SeedFork::new(6).rng();
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[weighted_index(&mut rng, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
        assert_eq!(weighted_index(&mut rng, &[]), None);
        assert_eq!(weighted_index(&mut rng, &[0.0, -1.0]), None);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SeedFork::new(7).rng();
        assert!((0..100).all(|_| chance(&mut rng, 1.1)));
        assert!((0..100).all(|_| !chance(&mut rng, -0.5)));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SeedFork::new(8).rng();
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut rng, 30.0)).sum::<f64>() / n as f64;
        assert!((mean - 30.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn sample_k_sizes() {
        let mut rng = SeedFork::new(10).rng();
        assert_eq!(sample_k(&mut rng, 0..10, 20).len(), 10);
        assert_eq!(sample_k(&mut rng, 0..1000, 10).len(), 10);
        let s = sample_k(&mut rng, 0..1000, 10);
        let set: std::collections::BTreeSet<i32> = s.iter().copied().collect();
        assert_eq!(set.len(), 10, "no duplicates from a set source");
    }
}
