//! Table 8 — "Breakdown of offer types and payouts of apps advertised
//! on vetted IIPs that raised funding after their campaign."
//!
//! The paper's observation: funded apps use both offer classes, but
//! pay roughly twice the going rate ("the developers interested in
//! raising funding need to aggressively acquire new users, and thus
//! are willing to pay more").

use crate::report::{pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::{classify_description, OfferType};
use iiscope_monitor::RateBook;
use iiscope_types::{SimDuration, SymSet, Usd};

/// The reproduced Table 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Table8 {
    /// Number of funded vetted apps analyzed.
    pub funded_apps: usize,
    /// Share of those apps advertising no-activity offers.
    pub no_activity_apps: f64,
    /// Share advertising activity offers.
    pub activity_apps: f64,
    /// Average payout of their no-activity offers.
    pub no_activity_payout: Usd,
    /// Average payout of their activity offers.
    pub activity_payout: Usd,
}

impl Table8 {
    /// Computes the table over the funded vetted apps of Table 7's
    /// logic — the byte-parity oracle for [`Table8::run_incremental`].
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Table8 {
        let ds = &artifacts.dataset;
        let book = RateBook::from_catalog(&world.affiliate_apps);
        let funded = Table8::funded_syms(world, artifacts);
        // One pass over the deduplicated offer column with bitset
        // probes, instead of the old funded-apps × unique-offers
        // rescan. The per-class payout means are exact integer sums,
        // so visit order is invisible.
        let mut no_act_seen = SymSet::default();
        let mut act_seen = SymSet::default();
        let mut no_act_payouts = Vec::new();
        let mut act_payouts = Vec::new();
        for (o, pkg, _) in ds.unique_offers_with_syms_from(0) {
            if !o.iip.is_vetted() || !funded.contains(pkg) {
                continue;
            }
            let usd = book.to_usd(o.reward, o.affiliate).unwrap_or(Usd::ZERO);
            if classify_description(o.description) == OfferType::NoActivity {
                no_act_seen.insert(pkg);
                no_act_payouts.push(usd);
            } else {
                act_seen.insert(pkg);
                act_payouts.push(usd);
            }
        }
        Table8::assemble(
            &funded,
            &no_act_seen,
            &act_seen,
            &no_act_payouts,
            &act_payouts,
        )
    }

    /// Computes the table from the streaming offer digest: the funded
    /// set still needs the *final* campaign windows and Crunchbase, so
    /// it is computed at render like the batch path, but the offer
    /// pass reads the classified digest instead of re-scanning (and
    /// re-classifying) the deduplicated offer log. Byte-identical to
    /// [`Table8::run`].
    pub fn run_incremental(world: &World, artifacts: &WildArtifacts) -> Table8 {
        let funded = Table8::funded_syms(world, artifacts);
        let mut no_act_seen = SymSet::default();
        let mut act_seen = SymSet::default();
        let mut no_act_payouts = Vec::new();
        let mut act_payouts = Vec::new();
        for o in artifacts.aggregates.offers() {
            if !o.iip.is_vetted() || !funded.contains(o.pkg) {
                continue;
            }
            let usd = o.usd.unwrap_or(Usd::ZERO);
            if o.no_activity {
                no_act_seen.insert(o.pkg);
                no_act_payouts.push(usd);
            } else {
                act_seen.insert(o.pkg);
                act_payouts.push(usd);
            }
        }
        Table8::assemble(
            &funded,
            &no_act_seen,
            &act_seen,
            &no_act_payouts,
            &act_payouts,
        )
    }

    /// Funded vetted apps per Table 7's pipeline: campaign window →
    /// crawled developer identity → Crunchbase → funding-round check.
    fn funded_syms(world: &World, artifacts: &WildArtifacts) -> SymSet {
        let ds = &artifacts.dataset;
        let mut funded = SymSet::default();
        for sym in ds.class_syms(true).iter() {
            let Some(obs) = ds.campaign(sym) else {
                continue;
            };
            let Some(profile) = ds.first_profile_sym(sym) else {
                continue;
            };
            let website = if profile.developer_website.is_empty() {
                None
            } else {
                Some(profile.developer_website)
            };
            let Some(company) = world
                .crunchbase
                .match_developer(profile.developer_name, website)
            else {
                continue;
            };
            if company.raised_between(
                obs.last_seen,
                obs.last_seen + SimDuration::from_days(super::table7::FUNDING_HORIZON_DAYS),
            ) {
                funded.insert(sym);
            }
        }
        funded
    }

    fn assemble(
        funded: &SymSet,
        no_act_seen: &SymSet,
        act_seen: &SymSet,
        no_act_payouts: &[Usd],
        act_payouts: &[Usd],
    ) -> Table8 {
        let n = funded.len();
        Table8 {
            funded_apps: n,
            no_activity_apps: if n == 0 {
                0.0
            } else {
                no_act_seen.len() as f64 / n as f64
            },
            activity_apps: if n == 0 {
                0.0
            } else {
                act_seen.len() as f64 / n as f64
            },
            no_activity_payout: Usd::mean(no_act_payouts),
            activity_payout: Usd::mean(act_payouts),
        }
    }

    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Offer Type", "% of funded apps", "Average payout"]);
        t.row([
            "No activity".to_string(),
            pct(self.no_activity_apps),
            self.no_activity_payout.to_string(),
        ]);
        t.row([
            "Activity".to_string(),
            pct(self.activity_apps),
            self.activity_payout.to_string(),
        ]);
        format!(
            "Table 8: offers of funded vetted apps (N = {})\n{}",
            self.funded_apps,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn funded_apps_use_both_classes() {
        let shared = shared();
        let t = Table8::run(shared.world(), &shared.artifacts);
        // The small world still produces a handful of funded vetted
        // apps.
        assert!(t.funded_apps >= 1, "no funded vetted apps found");
        // Shares are valid fractions and at least one class is used.
        assert!(t.no_activity_apps <= 1.0 && t.activity_apps <= 1.0);
        assert!(t.no_activity_apps + t.activity_apps > 0.0);
        let rendered = t.render();
        assert!(rendered.contains("funded vetted apps"));
    }

    #[test]
    fn incremental_matches_batch() {
        let shared = shared();
        assert_eq!(
            Table8::run_incremental(shared.world(), &shared.artifacts),
            Table8::run(shared.world(), &shared.artifacts)
        );
    }
}
