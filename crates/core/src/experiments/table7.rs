//! Table 7 — "Developers of mobile apps raising funding after
//! campaigns using vetted and unvetted IIPs compared with baseline
//! apps" (§4.3.3).
//!
//! The pipeline matches each app's *crawled* developer identity (name,
//! website) against the Crunchbase snapshot — unmatched developers are
//! simply out of the comparison, exactly as in the paper — and then
//! checks for funding rounds closing after the campaign window.

use crate::experiments::common::baseline_window;
use crate::report::{count_pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::{chi2_2x2, Chi2Result};
use iiscope_types::{SimDuration, SimTime};

/// Days past the campaign end the funding check extends (the paper's
/// Crunchbase snapshot was taken a few months after the study).
pub const FUNDING_HORIZON_DAYS: u64 = 120;

/// One app-set row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table7Row {
    /// Matched apps that raised after their window.
    pub funded: u64,
    /// Matched apps that did not.
    pub not_funded: u64,
    /// Apps that could not be matched in Crunchbase.
    pub unmatched: u64,
}

impl Table7Row {
    /// Matched apps.
    pub fn total(&self) -> u64 {
        self.funded + self.not_funded
    }

    /// Funding rate among matched apps.
    pub fn rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.funded as f64 / self.total() as f64
        }
    }

    /// Match rate including unmatched apps.
    pub fn match_rate(&self) -> f64 {
        let all = self.total() + self.unmatched;
        if all == 0 {
            0.0
        } else {
            self.total() as f64 / all as f64
        }
    }
}

/// The reproduced Table 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Table7 {
    /// Baseline apps.
    pub baseline: Table7Row,
    /// Vetted-advertised apps.
    pub vetted: Table7Row,
    /// Unvetted-advertised apps.
    pub unvetted: Table7Row,
    /// χ² vetted vs baseline.
    pub chi2_vetted: Option<Chi2Result>,
    /// χ² unvetted vs baseline.
    pub chi2_unvetted: Option<Chi2Result>,
}

impl Table7 {
    /// Computes the table, deriving the baseline window from the batch
    /// (name-sorted observation list) average — the byte-parity oracle
    /// for [`Table7::run_incremental`].
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Table7 {
        let avg = crate::experiments::common::avg_campaign_days(&artifacts.dataset);
        Table7::run_with_avg(world, artifacts, avg)
    }

    /// Incremental-report variant: identical numbers, with the average
    /// campaign duration from the symbol-side fold shared by Tables
    /// 5–7 instead of a re-sorted observation list.
    pub fn run_incremental(world: &World, artifacts: &WildArtifacts) -> Table7 {
        let avg = crate::experiments::common::avg_campaign_days_sym(&artifacts.dataset);
        Table7::run_with_avg(world, artifacts, avg)
    }

    /// Computes the table with a caller-supplied average campaign
    /// duration (the baseline observation window length).
    pub fn run_with_avg(world: &World, artifacts: &WildArtifacts, avg_days: u64) -> Table7 {
        let ds = &artifacts.dataset;
        let check_sym = |sym: iiscope_types::Sym, after: SimTime| -> Option<bool> {
            let profile = ds.first_profile_sym(sym)?;
            let website = if profile.developer_website.is_empty() {
                None
            } else {
                Some(profile.developer_website)
            };
            let company = world
                .crunchbase
                .match_developer(profile.developer_name, website)?;
            Some(
                company.raised_between(after, after + SimDuration::from_days(FUNDING_HORIZON_DAYS)),
            )
        };
        let check = |pkg: &str, after: SimTime| check_sym(ds.pkg_sym(pkg)?, after);
        let class_row = |vetted: bool| -> Table7Row {
            let mut row = Table7Row {
                funded: 0,
                not_funded: 0,
                unmatched: 0,
            };
            for sym in ds.class_syms(vetted).iter() {
                let Some(obs) = ds.campaign(sym) else {
                    continue;
                };
                match check_sym(sym, obs.last_seen) {
                    Some(true) => row.funded += 1,
                    Some(false) => row.not_funded += 1,
                    None => row.unmatched += 1,
                }
            }
            row
        };
        let vetted = class_row(true);
        let unvetted = class_row(false);

        let mut baseline = Table7Row {
            funded: 0,
            not_funded: 0,
            unmatched: 0,
        };
        for b in &world.plan.baseline {
            let pkg = b.package.as_str();
            let Some((from, _)) = baseline_window(ds, pkg, avg_days) else {
                continue;
            };
            match check(pkg, SimTime::from_days(from)) {
                Some(true) => baseline.funded += 1,
                Some(false) => baseline.not_funded += 1,
                None => baseline.unmatched += 1,
            }
        }

        let chi2 = |row: &Table7Row| {
            chi2_2x2(
                baseline.not_funded as f64,
                baseline.funded as f64,
                row.not_funded as f64,
                row.funded as f64,
            )
        };
        Table7 {
            chi2_vetted: chi2(&vetted),
            chi2_unvetted: chi2(&unvetted),
            baseline,
            vetted,
            unvetted,
        }
    }

    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["App Set", "Funding Raised", "No Funding", "Unmatched"]);
        let mut add = |label: &str, r: &Table7Row| {
            t.row([
                format!("{label} (N = {})", r.total()),
                count_pct(r.funded, r.total()),
                count_pct(r.not_funded, r.total()),
                r.unmatched.to_string(),
            ]);
        };
        add("Baseline", &self.baseline);
        add("Vetted", &self.vetted);
        add("Unvetted", &self.unvetted);
        let fmt_chi = |c: &Option<Chi2Result>| match c {
            Some(r) => format!("chi2 = {:.2}, p = {:.3e}", r.statistic, r.p_value),
            None => "test undefined".to_string(),
        };
        format!(
            "Table 7: funding raised after campaigns (Crunchbase-matched apps)\n{}\nvetted vs baseline: {}\nunvetted vs baseline: {}\n",
            t.render(),
            fmt_chi(&self.chi2_vetted),
            fmt_chi(&self.chi2_unvetted),
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
        let t = Table7::run(shared.world(), &shared.artifacts);

        // Match rates: vetted developers match far more often than
        // unvetted ones (39% vs 15% in the paper) — vetted developers
        // publish websites.
        assert!(
            t.vetted.match_rate() > t.unvetted.match_rate(),
            "match rates {} vs {}",
            t.vetted.match_rate(),
            t.unvetted.match_rate()
        );
        assert!(t.vetted.total() + t.unvetted.total() > 0, "nothing matched");

        let rendered = t.render();
        assert!(rendered.contains("Funding Raised"));
        assert!(rendered.contains("Unmatched"));
    }

    /// The measured funded counts must equal the plan's ground truth
    /// over the observed, matched apps — the pipeline (crawl → match →
    /// round-window check) loses and invents nothing. The paper-shape
    /// *rates* (vetted ≈ 2.6× baseline, vetted significant, unvetted
    /// not) are asserted at paper scale by the repro run, where N is
    /// large enough for them to be stable.
    #[test]
    fn pipeline_matches_ground_truth() {
        let shared = shared();
        let t = Table7::run(shared.world(), &shared.artifacts);
        let ds = &shared.artifacts.dataset;
        let expect = |vetted: bool| -> (u64, u64) {
            let observed = ds.packages_by_class(vetted);
            let mut funded = 0;
            let mut matched = 0;
            for app in &shared.world().plan.apps {
                if !observed.contains(app.package.as_str()) {
                    continue;
                }
                if app.crunchbase_matched {
                    matched += 1;
                    funded += u64::from(app.raises_funding);
                }
            }
            (matched, funded)
        };
        let (vm, vf) = expect(true);
        assert_eq!(t.vetted.total(), vm, "vetted matched");
        assert_eq!(t.vetted.funded, vf, "vetted funded");
        let (um, uf) = expect(false);
        assert_eq!(t.unvetted.total(), um, "unvetted matched");
        assert_eq!(t.unvetted.funded, uf, "unvetted funded");
    }

    #[test]
    fn incremental_matches_batch() {
        let shared = shared();
        assert_eq!(
            Table7::run_incremental(shared.world(), &shared.artifacts),
            Table7::run(shared.world(), &shared.artifacts)
        );
    }
}
