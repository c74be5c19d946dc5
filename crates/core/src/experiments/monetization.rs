//! §4.3.2 — Monetization: advertising and arbitrage.
//!
//! The advertising half is Figure 6's headline ("more than 60% of apps
//! requiring users to perform in-app tasks integrate 5 or more
//! advertising libraries"); the arbitrage half is the manual-analysis
//! result: "3.9% of apps (36 out of 922) use arbitrage-based activity
//! offers … 7% of apps from vetted IIPs while only 2% of apps from
//! unvetted IIPs". Both are recomputed here from observed data, plus
//! the §4.3.3 public-company tally ("developers of 28 advertised
//! mobile apps … are publicly traded companies").

use crate::report::{pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::classify::is_arbitrage;
use iiscope_analysis::libradar::count_libraries;
use iiscope_analysis::stats::frac_at_least;
use iiscope_types::SymSet;

/// The reproduced §4.3.2/§4.3.3 monetization summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Monetization {
    /// Advertised apps with ≥1 arbitrage-style offer, overall share.
    pub arbitrage_share: f64,
    /// Arbitrage share among vetted-advertised apps.
    pub arbitrage_share_vetted: f64,
    /// Arbitrage share among unvetted-advertised apps.
    pub arbitrage_share_unvetted: f64,
    /// Share of activity-offer apps with ≥5 detected ad libraries.
    pub activity_apps_ge5_libs: f64,
    /// Publicly-traded companies among matched advertised developers.
    pub public_companies: usize,
    /// Brand names among public-company apps (the paper names Redfin
    /// and IGG; our world pins Apple Music, LinkedIn, TikTok, Fiverr).
    pub public_brands: Vec<String>,
}

impl Monetization {
    /// Computes the summary, classifying packages by a rescan of the
    /// deduplicated offer log — the byte-parity oracle for
    /// [`Monetization::run_incremental`].
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Monetization {
        // One pass over the deduplicated offer column classifies every
        // advertised package into the arbitrage / activity bitsets.
        let ds = &artifacts.dataset;
        let mut arbitrage = SymSet::default();
        let mut activity = SymSet::default();
        for (o, pkg, _) in ds.unique_offers_with_syms_from(0) {
            if is_arbitrage(o.description) {
                arbitrage.insert(pkg);
            }
            if iiscope_analysis::classify_description(o.description).is_activity() {
                activity.insert(pkg);
            }
        }
        Monetization::with_classes(world, artifacts, arbitrage, activity)
    }

    /// Same summary, with the arbitrage/activity package sets taken
    /// from the streaming offer digest (an offer is an activity offer
    /// iff it did not classify as no-activity). Byte-identical to
    /// [`Monetization::run`].
    pub fn run_incremental(world: &World, artifacts: &WildArtifacts) -> Monetization {
        let arbitrage = artifacts.aggregates.arbitrage_syms();
        let activity = artifacts.aggregates.activity_syms();
        Monetization::with_classes(world, artifacts, arbitrage, activity)
    }

    fn with_classes(
        world: &World,
        artifacts: &WildArtifacts,
        arbitrage: SymSet,
        activity: SymSet,
    ) -> Monetization {
        let ds = &artifacts.dataset;
        let share = |pkgs: &SymSet| {
            if pkgs.is_empty() {
                return 0.0;
            }
            pkgs.iter().filter(|&s| arbitrage.contains(s)).count() as f64 / pkgs.len() as f64
        };

        // Activity-offer apps with ≥5 ad libraries (from downloaded
        // APKs). `frac_at_least` is a threshold count, so sym-order
        // iteration is invisible.
        let counts: Vec<usize> = activity
            .iter()
            .filter_map(|s| {
                artifacts
                    .apks
                    .get(ds.pkg_name(s))
                    .map(|b| count_libraries(b))
            })
            .collect();

        // Public companies among matched developers of advertised apps
        // (a counter plus a re-sorted brand list — order-insensitive).
        let mut public_companies = 0;
        let mut public_brands = Vec::new();
        for sym in ds.advertised_syms().iter() {
            let Some(profile) = ds.first_profile_sym(sym) else {
                continue;
            };
            let website = if profile.developer_website.is_empty() {
                None
            } else {
                Some(profile.developer_website)
            };
            if let Some(company) = world
                .crunchbase
                .match_developer(profile.developer_name, website)
            {
                if company.is_public {
                    public_companies += 1;
                    let pkg = ds.pkg_name(sym);
                    if world
                        .plan
                        .apps
                        .iter()
                        .any(|a| a.package.as_str() == pkg && a.brand.is_some())
                    {
                        public_brands.push(profile.title.to_string());
                    }
                }
            }
        }
        public_brands.sort();

        Monetization {
            arbitrage_share: share(ds.advertised_syms()),
            arbitrage_share_vetted: share(ds.class_syms(true)),
            arbitrage_share_unvetted: share(ds.class_syms(false)),
            activity_apps_ge5_libs: frac_at_least(&counts, 5),
            public_companies,
            public_brands,
        }
    }

    /// Rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Metric", "Value"]);
        t.row([
            "Arbitrage apps (all advertised)".to_string(),
            pct(self.arbitrage_share),
        ]);
        t.row([
            "Arbitrage apps (vetted)".to_string(),
            pct(self.arbitrage_share_vetted),
        ]);
        t.row([
            "Arbitrage apps (unvetted)".to_string(),
            pct(self.arbitrage_share_unvetted),
        ]);
        t.row([
            "Activity apps with >=5 ad libraries".to_string(),
            pct(self.activity_apps_ge5_libs),
        ]);
        t.row([
            "Public companies among advertisers".to_string(),
            self.public_companies.to_string(),
        ]);
        format!(
            "Section 4.3.2/4.3.3: monetization summary\n{}\npublic-company brands observed: {}\n",
            t.render(),
            if self.public_brands.is_empty() {
                "(none)".to_string()
            } else {
                self.public_brands.join(", ")
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn arbitrage_shape_matches_paper() {
        let shared = shared();
        let m = Monetization::run(shared.world(), &shared.artifacts);
        // Paper: 3.9% overall, 7% vetted vs 2% unvetted — assert the
        // ordering and a sane band.
        assert!(
            m.arbitrage_share_vetted >= m.arbitrage_share_unvetted,
            "vetted {} vs unvetted {}",
            m.arbitrage_share_vetted,
            m.arbitrage_share_unvetted
        );
        assert!(m.arbitrage_share < 0.25, "overall {}", m.arbitrage_share);
        // Figure 6's headline: most activity apps carry ≥5 libraries.
        assert!(
            m.activity_apps_ge5_libs > 0.4,
            "activity >=5 libs {}",
            m.activity_apps_ge5_libs
        );
        // The pinned brand apps make the public-company tally non-zero.
        assert!(m.public_companies >= 3, "public {}", m.public_companies);
        assert!(!m.public_brands.is_empty());
        assert!(m.render().contains("Arbitrage"));
    }

    #[test]
    fn incremental_matches_batch() {
        let shared = shared();
        assert_eq!(
            Monetization::run_incremental(shared.world(), &shared.artifacts),
            Monetization::run(shared.world(), &shared.artifacts)
        );
    }
}
