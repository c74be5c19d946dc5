//! Table 5 — "Comparing apps that increased install counts from vetted
//! and unvetted IIPs with baseline apps", with the two chi-squared
//! tests of §4.3.1.

use crate::experiments::common::baseline_window;
use crate::report::{count_pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::{chi2_2x2, install_increased, Chi2Result};

/// One app-set row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table5Row {
    /// Apps whose bin did not move.
    pub no_increase: u64,
    /// Apps whose bin moved up during their window.
    pub increase: u64,
}

impl Table5Row {
    /// Total apps in the set.
    pub fn total(&self) -> u64 {
        self.no_increase + self.increase
    }

    /// Increase rate.
    pub fn rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.increase as f64 / self.total() as f64
        }
    }
}

/// The reproduced Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5 {
    /// Baseline apps.
    pub baseline: Table5Row,
    /// Apps advertised on vetted platforms.
    pub vetted: Table5Row,
    /// Apps advertised on unvetted platforms.
    pub unvetted: Table5Row,
    /// χ² vetted vs baseline.
    pub chi2_vetted: Option<Chi2Result>,
    /// χ² unvetted vs baseline.
    pub chi2_unvetted: Option<Chi2Result>,
}

impl Table5 {
    /// Computes the table from crawl timelines, deriving the baseline
    /// window from the batch (name-sorted observation list) average —
    /// the byte-parity oracle for [`Table5::run_incremental`].
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Table5 {
        let avg = crate::experiments::common::avg_campaign_days(&artifacts.dataset);
        Table5::run_with_avg(world, artifacts, avg)
    }

    /// Incremental-report variant: identical numbers, but the average
    /// campaign duration comes from the O(#campaigns) symbol-side
    /// fold (shared by Tables 5–7) instead of re-sorting the owned
    /// observation list.
    pub fn run_incremental(world: &World, artifacts: &WildArtifacts) -> Table5 {
        let avg = crate::experiments::common::avg_campaign_days_sym(&artifacts.dataset);
        Table5::run_with_avg(world, artifacts, avg)
    }

    /// Computes the table with a caller-supplied average campaign
    /// duration (the baseline observation window length).
    pub fn run_with_avg(world: &World, artifacts: &WildArtifacts, avg_days: u64) -> Table5 {
        let ds = &artifacts.dataset;
        // Sym-order iteration over the class bitsets; the row is a
        // pair of counters, so iteration order is invisible.
        let class_row = |vetted: bool| -> Table5Row {
            let mut row = Table5Row {
                no_increase: 0,
                increase: 0,
            };
            for sym in ds.class_syms(vetted).iter() {
                let Some(obs) = ds.campaign(sym) else {
                    continue;
                };
                let series = ds.profile_series_sym(sym);
                match install_increased(&series, obs.first_seen.days(), obs.last_seen.days()) {
                    Some(true) => row.increase += 1,
                    Some(false) => row.no_increase += 1,
                    None => {}
                }
            }
            row
        };
        let vetted = class_row(true);
        let unvetted = class_row(false);

        let mut baseline = Table5Row {
            no_increase: 0,
            increase: 0,
        };
        for b in &world.plan.baseline {
            let pkg = b.package.as_str();
            let Some((from, to)) = baseline_window(ds, pkg, avg_days) else {
                continue;
            };
            let series = ds.profile_series(pkg);
            match install_increased(&series, from, to) {
                Some(true) => baseline.increase += 1,
                Some(false) => baseline.no_increase += 1,
                None => {}
            }
        }

        let chi2 = |row: &Table5Row| {
            chi2_2x2(
                baseline.no_increase as f64,
                baseline.increase as f64,
                row.no_increase as f64,
                row.increase as f64,
            )
        };
        Table5 {
            chi2_vetted: chi2(&vetted),
            chi2_unvetted: chi2(&unvetted),
            baseline,
            vetted,
            unvetted,
        }
    }

    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["App Set", "No Increase", "Increase"]);
        let mut add = |label: &str, r: &Table5Row| {
            t.row([
                format!("{label} (N = {})", r.total()),
                count_pct(r.no_increase, r.total()),
                count_pct(r.increase, r.total()),
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
            "Table 5: install-count increases during campaign windows\n{}\nvetted vs baseline: {}\nunvetted vs baseline: {}\n",
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
        let t = Table5::run(shared.world(), &shared.artifacts);

        // All three sets are populated.
        assert!(t.baseline.total() > 10, "baseline N {}", t.baseline.total());
        assert!(t.vetted.total() > 10, "vetted N {}", t.vetted.total());
        assert!(t.unvetted.total() > 10, "unvetted N {}", t.unvetted.total());

        // The ordering of Table 5: unvetted ≥ vetted ≫ baseline.
        assert!(
            t.unvetted.rate() > t.baseline.rate(),
            "unvetted {} vs baseline {}",
            t.unvetted.rate(),
            t.baseline.rate()
        );
        assert!(
            t.vetted.rate() > t.baseline.rate(),
            "vetted {} vs baseline {}",
            t.vetted.rate(),
            t.baseline.rate()
        );
        assert!(
            t.unvetted.rate() >= t.vetted.rate(),
            "unvetted {} vs vetted {}",
            t.unvetted.rate(),
            t.vetted.rate()
        );
        // Baseline apps rarely move bins inside 25 days (2% in the
        // paper).
        assert!(
            t.baseline.rate() < 0.15,
            "baseline rate {}",
            t.baseline.rate()
        );

        let rendered = t.render();
        assert!(rendered.contains("Baseline"));
        assert!(rendered.contains("chi2"));
    }

    #[test]
    fn incremental_matches_batch() {
        let shared = shared();
        assert_eq!(
            Table5::run_incremental(shared.world(), &shared.artifacts),
            Table5::run(shared.world(), &shared.artifacts)
        );
    }
}
