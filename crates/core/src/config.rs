//! World configuration and the two standard presets.

use iiscope_playstore::{ChartRanking, EnforcementConfig};
use iiscope_types::Country;
use std::path::PathBuf;

/// Everything that parameterizes a world build and study run.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Root seed — the only source of randomness.
    pub seed: u64,
    /// Number of advertised apps running incentivized campaigns
    /// (the paper observed 922).
    pub advertised_apps: usize,
    /// Number of baseline apps (the paper sampled 300 from Lumen).
    pub baseline_apps: usize,
    /// Monitoring window length in days (the paper: ~92).
    pub monitoring_days: u64,
    /// Crawl/milk cadence in days (the paper: every other day).
    pub crawl_cadence_days: u64,
    /// Installs purchased per honey-app campaign (the paper: 500).
    pub honey_purchase: u64,
    /// Vantage-point countries for milking.
    pub milk_countries: Vec<Country>,
    /// Fuzzer scroll budget per wall tab.
    pub fuzzer_pages: usize,
    /// Worker threads for the wild study's crawl-day fan-out (milking,
    /// profile crawls, APK downloads) and the experiment suite. `1`
    /// runs everything on the calling thread — the original sequential
    /// path. Any value produces bit-identical studies, fault plan or
    /// not: every connection's fault stream is seeded from the client's
    /// own lineage and fault delays accrue to connection-local clock
    /// skew, so worker scheduling cannot reorder the randomness.
    pub parallelism: usize,
    /// Play-side enforcement profile.
    pub enforcement: EnforcementConfig,
    /// Top-chart ranking policy (ablation knob).
    pub ranking: ChartRanking,
    /// Top-chart length served by the store. The real store shows a
    /// few hundred slots over millions of apps; scaled worlds shrink
    /// the chart so charting stays *selective* (an app must beat the
    /// organic engagement of the catalog's top apps).
    pub chart_size: usize,
    /// Ablation: affiliate apps pin the genuine wall certificates,
    /// defeating the MITM interception (the paper's pipeline worked
    /// because "none of the offer walls uses certificate pinning").
    pub walls_pin_certificates: bool,
    /// Ablation: companion (non-incentivized) marketing that vetted
    /// advertisers run in parallel with their incentivized campaigns —
    /// the confound §4.3 flags ("we cannot eliminate the possibility
    /// that these increases are caused by other simultaneous
    /// advertising"). Disabling it isolates how much of Table 5's
    /// vetted effect rides on that parallel marketing.
    pub companion_marketing: bool,
    /// Extension: some campaigns sell "Install and rate N stars"
    /// offers, attacking the ratings facet of the profile (the policy
    /// page the paper cites protects "User Ratings, Reviews, and
    /// Installs" together). Off by default — the paper's §4.3.1 offer
    /// taxonomy has no rating class, so the calibrated world excludes
    /// them; the knob exists for the rating-inflation experiment.
    pub rating_offers: bool,
    /// Device/install-volume multiplier. `scale = N` multiplies every
    /// campaign's install cap and delivery rate (and the sharded
    /// audience sizes) by `N` while keeping the app catalog fixed —
    /// the axis the related download-fraud work scales along (~10M
    /// events) is events-per-app, not apps. `1` is the paper world,
    /// bit-for-bit. The honey study stays unscaled: it is the paper's
    /// fixed measurement protocol (500 installs per campaign).
    pub scale: u64,
    /// Number of population/state shards for the wild-study day loop.
    /// Offers are assigned to shards by package symbol
    /// (`iiscope_types::shard_of`, a pure function), shard sim steps
    /// run under the `parallelism` fan-out, and their effect buffers
    /// merge in shard-index order — so the result depends on `shards`
    /// but never on worker count. `1` is the unsharded legacy stream.
    pub shards: usize,
    /// Memory budget in bytes for the monitor dataset's spillable logs
    /// (offer observations, chart crawls). Rows count at the owned
    /// crawl's size (`LogRow::accounted_bytes`), an upper bound on
    /// what the interned rows hold. When
    /// the columns outgrow the budget, cold segments spill to disk via
    /// the CRC-framed snapshot codec and reload through an LRU cache.
    /// `None` keeps everything resident. Byte-invariant: any budget
    /// produces the identical report and CSVs.
    pub memory_budget: Option<u64>,
    /// Directory for spill files. `None` uses a per-process directory
    /// under the system temp dir. Only consulted when `memory_budget`
    /// is set.
    pub spill_dir: Option<PathBuf>,
}

impl WorldConfig {
    /// The full-size reproduction matching the paper's scale.
    pub fn paper(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            advertised_apps: 922,
            baseline_apps: 300,
            monitoring_days: 92,
            crawl_cadence_days: 2,
            honey_purchase: 500,
            milk_countries: Country::VANTAGE_POINTS.to_vec(),
            fuzzer_pages: 60,
            parallelism: 1,
            enforcement: EnforcementConfig::default(),
            ranking: ChartRanking::EngagementWeighted,
            chart_size: 200,
            walls_pin_certificates: false,
            companion_marketing: true,
            rating_offers: false,
            scale: 1,
            shards: 1,
            memory_budget: None,
            spill_dir: None,
        }
    }

    /// A ~10× smaller world for tests: same mechanisms, minutes →
    /// seconds.
    pub fn small(seed: u64) -> WorldConfig {
        WorldConfig {
            advertised_apps: 90,
            baseline_apps: 40,
            monitoring_days: 36,
            crawl_cadence_days: 4,
            honey_purchase: 200,
            milk_countries: vec![Country::Us, Country::De],
            fuzzer_pages: 40,
            chart_size: 10,
            ..WorldConfig::paper(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let p = WorldConfig::paper(1);
        assert_eq!(p.advertised_apps, 922);
        assert_eq!(p.baseline_apps, 300);
        assert_eq!(p.milk_countries.len(), 8);
        assert_eq!(p.monitoring_days % p.crawl_cadence_days, 0);
        let s = WorldConfig::small(1);
        assert!(s.advertised_apps < p.advertised_apps);
        assert_eq!(s.monitoring_days % s.crawl_cadence_days, 0);
        assert!(!s.walls_pin_certificates);
        assert_eq!(p.parallelism, 1, "presets default to the sequential path");
        assert_eq!(s.parallelism, 1);
        // Scaling knobs default to the unscaled, unsharded, fully
        // resident paper world.
        assert_eq!(p.scale, 1);
        assert_eq!(p.shards, 1);
        assert!(p.memory_budget.is_none());
        assert!(s.spill_dir.is_none());
    }
}
