//! Table 6 — "Comparing the appearance of advertised apps from vetted
//! and unvetted IIPs with baseline apps in top charts", with §4.3.1's
//! exclusion rule (apps already charting before their campaign are
//! dropped from the comparison).

use crate::experiments::common::baseline_window;
use crate::report::{count_pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::{chart_appearance, chart_appearance_sym, chi2_2x2, Chi2Result};

/// One app-set row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table6Row {
    /// Apps that never appeared in a chart during their window.
    pub not_present: u64,
    /// Apps that appeared.
    pub present: u64,
    /// Apps excluded for pre-campaign chart presence.
    pub excluded: u64,
}

impl Table6Row {
    /// Included apps.
    pub fn total(&self) -> u64 {
        self.not_present + self.present
    }

    /// Appearance rate among included apps.
    pub fn rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.present as f64 / self.total() as f64
        }
    }
}

/// The reproduced Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6 {
    /// Baseline apps.
    pub baseline: Table6Row,
    /// Vetted-advertised apps.
    pub vetted: Table6Row,
    /// Unvetted-advertised apps.
    pub unvetted: Table6Row,
    /// χ² vetted vs baseline.
    pub chi2_vetted: Option<Chi2Result>,
    /// χ² unvetted vs baseline.
    pub chi2_unvetted: Option<Chi2Result>,
}

impl Table6 {
    /// Computes the table, deriving the baseline window from the batch
    /// (name-sorted observation list) average — the byte-parity oracle
    /// for [`Table6::run_incremental`].
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Table6 {
        let avg = crate::experiments::common::avg_campaign_days(&artifacts.dataset);
        Table6::run_with_avg(world, artifacts, avg)
    }

    /// Incremental-report variant: identical numbers, with the average
    /// campaign duration from the symbol-side fold shared by Tables
    /// 5–7 instead of a re-sorted observation list.
    pub fn run_incremental(world: &World, artifacts: &WildArtifacts) -> Table6 {
        let avg = crate::experiments::common::avg_campaign_days_sym(&artifacts.dataset);
        Table6::run_with_avg(world, artifacts, avg)
    }

    /// Computes the table with a caller-supplied average campaign
    /// duration (the baseline observation window length).
    pub fn run_with_avg(world: &World, artifacts: &WildArtifacts, avg_days: u64) -> Table6 {
        let ds = &artifacts.dataset;
        // Sym-order iteration over the class bitsets; the row is a
        // triple of counters, so iteration order is invisible.
        let class_row = |vetted: bool| -> Table6Row {
            let mut row = Table6Row {
                not_present: 0,
                present: 0,
                excluded: 0,
            };
            for sym in ds.class_syms(vetted).iter() {
                let Some(obs) = ds.campaign(sym) else {
                    continue;
                };
                match chart_appearance_sym(ds, sym, obs.first_seen.days(), obs.last_seen.days()) {
                    Some(true) => row.present += 1,
                    Some(false) => row.not_present += 1,
                    None => row.excluded += 1,
                }
            }
            row
        };
        let vetted = class_row(true);
        let unvetted = class_row(false);

        let mut baseline = Table6Row {
            not_present: 0,
            present: 0,
            excluded: 0,
        };
        for b in &world.plan.baseline {
            let pkg = b.package.as_str();
            let Some((from, to)) = baseline_window(ds, pkg, avg_days) else {
                continue;
            };
            match chart_appearance(ds, pkg, from, to) {
                Some(true) => baseline.present += 1,
                Some(false) => baseline.not_present += 1,
                None => baseline.excluded += 1,
            }
        }

        let chi2 = |row: &Table6Row| {
            chi2_2x2(
                baseline.not_present as f64,
                baseline.present as f64,
                row.not_present as f64,
                row.present as f64,
            )
        };
        Table6 {
            chi2_vetted: chi2(&vetted),
            chi2_unvetted: chi2(&unvetted),
            baseline,
            vetted,
            unvetted,
        }
    }

    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["App Set", "Not Present", "Present", "Excluded"]);
        let mut add = |label: &str, r: &Table6Row| {
            t.row([
                format!("{label} (N = {})", r.total()),
                count_pct(r.not_present, r.total()),
                count_pct(r.present, r.total()),
                r.excluded.to_string(),
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
            "Table 6: top-chart appearances during campaign windows\n{}\nvetted vs baseline: {}\nunvetted vs baseline: {}\n",
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
        let t = Table6::run(shared.world(), &shared.artifacts);
        assert!(t.vetted.total() > 10);
        assert!(t.unvetted.total() > 10);
        assert!(t.baseline.total() > 10);

        // The paper's key asymmetry: vetted campaigns move charts,
        // unvetted ones don't.
        assert!(
            t.vetted.rate() > t.unvetted.rate(),
            "vetted {} vs unvetted {}",
            t.vetted.rate(),
            t.unvetted.rate()
        );
        assert!(
            t.vetted.rate() >= t.baseline.rate(),
            "vetted {} vs baseline {}",
            t.vetted.rate(),
            t.baseline.rate()
        );
        // Chart presence is rare everywhere (2.5–7.5% in Table 6).
        assert!(t.vetted.rate() < 0.5);

        let rendered = t.render();
        assert!(rendered.contains("Excluded"));
    }

    #[test]
    fn incremental_matches_batch() {
        let shared = shared();
        assert_eq!(
            Table6::run_incremental(shared.world(), &shared.artifacts),
            Table6::run(shared.world(), &shared.artifacts)
        );
    }
}
