//! Table 4 — per-IIP summary of offers and advertised apps.
//!
//! Everything is derived from monitoring data: offers from milking,
//! app/developer metadata from the profile crawls, app age from the
//! difference between campaign start (first offer sighting) and the
//! profile's release day.

use crate::report::{pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::classify_description;
use iiscope_analysis::OfferType;
use iiscope_monitor::RateBook;
use iiscope_types::{IipId, Usd};
use std::collections::BTreeSet;

/// One platform row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Platform.
    pub iip: IipId,
    /// Median normalized offer payout.
    pub median_payout: Usd,
    /// Share of no-activity offers.
    pub no_activity_share: f64,
    /// Number of advertised apps.
    pub apps: usize,
    /// Number of distinct developers.
    pub developers: usize,
    /// Number of distinct developer countries.
    pub countries: usize,
    /// Number of distinct genres.
    pub genres: usize,
    /// Median public install count at first observation.
    pub median_installs: u64,
    /// Median app age at campaign start (days).
    pub median_age_days: u64,
}

/// The reproduced Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Rows in the paper's order (unvetted first, then vetted).
    pub rows: Vec<Table4Row>,
}

impl Table4 {
    /// Computes the per-IIP summary from a full rescan of the
    /// deduplicated offer log — the byte-parity oracle for
    /// [`Table4::run_incremental`].
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Table4 {
        let book = RateBook::from_catalog(&world.affiliate_apps);
        let ds = &artifacts.dataset;
        Table4::with_offer_stats(ds, |iip| {
            let offers: Vec<_> = ds.unique_offers().filter(|o| o.iip == iip).collect();
            let payouts: Vec<Usd> = offers
                .iter()
                .filter_map(|o| book.to_usd(o.reward, o.affiliate))
                .collect();
            let no_activity = offers
                .iter()
                .filter(|o| classify_description(o.description) == OfferType::NoActivity)
                .count();
            (payouts, no_activity, offers.len())
        })
    }

    /// Computes the per-IIP summary from the streaming offer digest —
    /// classification and payout normalization already happened at
    /// fold time, so the offer side never re-reads a description.
    /// Byte-identical to [`Table4::run`].
    pub fn run_incremental(artifacts: &WildArtifacts) -> Table4 {
        let aggs = &artifacts.aggregates;
        Table4::with_offer_stats(&artifacts.dataset, |iip| {
            let mut payouts = Vec::new();
            let (mut no_activity, mut total) = (0usize, 0usize);
            for o in aggs.offers().filter(|o| o.iip == iip) {
                total += 1;
                if o.no_activity {
                    no_activity += 1;
                }
                if let Some(usd) = o.usd {
                    payouts.push(usd);
                }
            }
            (payouts, no_activity, total)
        })
    }

    /// Shared body: the profile/campaign side reads the dataset's live
    /// symbol indices either way; `offer_stats` supplies the
    /// offer-derived columns (arrival-order payouts, no-activity
    /// count, offer count) per platform.
    fn with_offer_stats(
        ds: &iiscope_monitor::Dataset,
        offer_stats: impl Fn(IipId) -> (Vec<Usd>, usize, usize),
    ) -> Table4 {
        let order = [
            IipId::RankApp,
            IipId::AyetStudios,
            IipId::Fyber,
            IipId::AdscendMedia,
            IipId::AdGem,
            IipId::HangMyAds,
            IipId::OfferToro,
        ];
        let rows = order
            .into_iter()
            .map(|iip| {
                let (payouts, no_activity, offer_count) = offer_stats(iip);
                // Sym-order iteration: every aggregate below is either
                // a set re-collect or sorted before use, so symbol
                // order never reaches the output.
                let packages = ds.iip_syms(iip);
                let mut developers = BTreeSet::new();
                let mut countries = BTreeSet::new();
                let mut genres = BTreeSet::new();
                let mut installs = Vec::new();
                let mut ages = Vec::new();
                for sym in packages.iter() {
                    let Some(profile) = ds.first_profile_sym(sym) else {
                        continue;
                    };
                    developers.insert(profile.developer_id);
                    countries.insert(profile.developer_country);
                    genres.insert(profile.genre_id);
                    installs.push(profile.min_installs);
                    if let Some(obs) = ds.campaign(sym) {
                        let start_day = obs.first_seen.days();
                        ages.push(start_day.saturating_sub(profile.released_day));
                    }
                }
                installs.sort_unstable();
                ages.sort_unstable();
                let median = |v: &[u64]| {
                    if v.is_empty() {
                        0
                    } else {
                        v[(v.len() - 1) / 2]
                    }
                };
                Table4Row {
                    iip,
                    median_payout: Usd::median(&payouts),
                    no_activity_share: if offer_count == 0 {
                        0.0
                    } else {
                        no_activity as f64 / offer_count as f64
                    },
                    apps: packages.len(),
                    developers: developers.len(),
                    countries: countries.len(),
                    genres: genres.len(),
                    median_installs: median(&installs),
                    median_age_days: median(&ages),
                }
            })
            .collect();
        Table4 { rows }
    }

    /// Row accessor.
    pub fn row(&self, iip: IipId) -> &Table4Row {
        self.rows
            .iter()
            .find(|r| r.iip == iip)
            .expect("all IIPs present")
    }

    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "IIP",
            "Type",
            "MedPayout",
            "NoAct%",
            "Apps",
            "Devs",
            "Countries",
            "Genres",
            "MedInstalls",
            "MedAge(d)",
        ]);
        for r in &self.rows {
            t.row([
                r.iip.name().to_string(),
                if r.iip.is_vetted() {
                    "Vetted"
                } else {
                    "Unvetted"
                }
                .to_string(),
                r.median_payout.to_string(),
                pct(r.no_activity_share),
                r.apps.to_string(),
                r.developers.to_string(),
                r.countries.to_string(),
                r.genres.to_string(),
                r.median_installs.to_string(),
                r.median_age_days.to_string(),
            ]);
        }
        format!(
            "Table 4: per-IIP summary of offers and advertised apps\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn shape_matches_paper() {
        let shared = shared();
        let t = Table4::run(shared.world(), &shared.artifacts);
        assert_eq!(t.rows.len(), 7);

        // RankApp: 100% no-activity, the cheapest payouts.
        let rankapp = t.row(IipId::RankApp);
        assert!(
            rankapp.no_activity_share > 0.99,
            "{}",
            rankapp.no_activity_share
        );
        let fyber = t.row(IipId::Fyber);
        assert!(
            fyber.no_activity_share < 0.5,
            "Fyber is activity-heavy, got {}",
            fyber.no_activity_share
        );
        assert!(fyber.median_payout > rankapp.median_payout);

        // Vetted apps are bigger and older than unvetted ones.
        assert!(
            fyber.median_installs > 100 * rankapp.median_installs.max(1),
            "installs {} vs {}",
            fyber.median_installs,
            rankapp.median_installs
        );
        assert!(
            fyber.median_age_days > 3 * rankapp.median_age_days.max(1),
            "ages {} vs {}",
            fyber.median_age_days,
            rankapp.median_age_days
        );

        // Developers ≈ apps (the paper: 378 apps / 319 devs on Fyber).
        for r in &t.rows {
            if r.apps > 0 {
                assert!(r.developers <= r.apps);
                assert!(
                    r.developers * 2 >= r.apps,
                    "{}: {} devs / {} apps",
                    r.iip,
                    r.developers,
                    r.apps
                );
                assert!(r.countries >= 1);
                assert!(r.genres >= 1);
            }
        }

        let rendered = t.render();
        assert!(rendered.contains("RankApp"));
        assert!(rendered.contains("MedInstalls"));
    }

    #[test]
    fn incremental_matches_batch() {
        let shared = shared();
        let batch = Table4::run(shared.world(), &shared.artifacts);
        let inc = Table4::run_incremental(&shared.artifacts);
        assert_eq!(inc, batch);
        assert_eq!(inc.render(), batch.render());
    }
}
