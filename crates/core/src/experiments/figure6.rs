//! Figure 6 — "Distribution of unique ad libraries across apps":
//! (a) by offer-activity class, (b) by IIP class, both against the
//! baseline. Counts come from LibRadar-style static analysis of the
//! *downloaded* APKs, never from catalog ground truth.

use crate::report::{pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::libradar::count_libraries;
use iiscope_analysis::{classify_description, stats, OfferType};
use iiscope_types::SymSet;

/// One CDF series.
#[derive(Debug, Clone, PartialEq)]
pub struct LibSeries {
    /// Group label.
    pub label: &'static str,
    /// Per-app unique library counts.
    pub counts: Vec<usize>,
    /// Fraction of apps with ≥5 libraries (the paper's headline cut).
    pub frac_ge5: f64,
}

impl LibSeries {
    fn new(label: &'static str, counts: Vec<usize>) -> LibSeries {
        let frac_ge5 = stats::frac_at_least(&counts, 5);
        LibSeries {
            label,
            counts,
            frac_ge5,
        }
    }

    /// Empirical CDF over `0..=30` libraries.
    pub fn cdf(&self) -> Vec<f64> {
        stats::ecdf_counts(&self.counts, 30)
    }
}

/// The reproduced Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure6 {
    /// Panel (a): activity apps, no-activity apps, baseline.
    pub by_offer_type: [LibSeries; 3],
    /// Panel (b): vetted, unvetted, baseline.
    pub by_iip_type: [LibSeries; 3],
}

impl Figure6 {
    /// Runs the static analysis over the downloaded APKs, classifying
    /// packages by a rescan of the deduplicated offer log — the
    /// byte-parity oracle for [`Figure6::run_incremental`].
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Figure6 {
        // Classify each advertised package by its observed offers —
        // one pass over the deduplicated offer column into bitsets.
        let ds = &artifacts.dataset;
        let mut activity = SymSet::default();
        let mut any_no_activity = SymSet::default();
        for (o, pkg, _) in ds.unique_offers_with_syms_from(0) {
            if classify_description(o.description) == OfferType::NoActivity {
                any_no_activity.insert(pkg);
            } else {
                activity.insert(pkg);
            }
        }
        Figure6::with_classes(world, artifacts, activity, any_no_activity)
    }

    /// Same figure, but the activity/no-activity package sets come
    /// from the streaming offer digest (classified at fold time).
    /// Byte-identical to [`Figure6::run`].
    pub fn run_incremental(world: &World, artifacts: &WildArtifacts) -> Figure6 {
        let activity = artifacts.aggregates.activity_syms();
        let any_no_activity = artifacts.aggregates.no_activity_syms();
        Figure6::with_classes(world, artifacts, activity, any_no_activity)
    }

    fn with_classes(
        world: &World,
        artifacts: &WildArtifacts,
        activity: SymSet,
        any_no_activity: SymSet,
    ) -> Figure6 {
        let ds = &artifacts.dataset;
        // Every series below is sorted/thresholded before rendering,
        // so sym-order visits are invisible in the output.
        let counts_for = |pkgs: &mut dyn Iterator<Item = &str>| -> Vec<usize> {
            pkgs.filter_map(|p| artifacts.apks.get(p).map(|bytes| count_libraries(bytes)))
                .collect()
        };
        let sym_counts = |pkgs: &mut dyn Iterator<Item = iiscope_types::Sym>| -> Vec<usize> {
            counts_for(&mut pkgs.map(|s| ds.pkg_name(s)))
        };
        let activity_counts = sym_counts(&mut activity.iter());
        // Apps with any activity offer count as activity apps.
        let no_activity_counts =
            sym_counts(&mut any_no_activity.iter().filter(|&s| !activity.contains(s)));
        let vetted_counts = sym_counts(&mut ds.class_syms(true).iter());
        let unvetted_counts = sym_counts(&mut ds.class_syms(false).iter());
        let baseline_counts =
            counts_for(&mut world.plan.baseline.iter().map(|b| b.package.as_str()));
        Figure6 {
            by_offer_type: [
                LibSeries::new("Activity offers", activity_counts),
                LibSeries::new("No activity offers", no_activity_counts),
                LibSeries::new("Baseline", baseline_counts.clone()),
            ],
            by_iip_type: [
                LibSeries::new("Vetted", vetted_counts),
                LibSeries::new("Unvetted", unvetted_counts),
                LibSeries::new("Baseline", baseline_counts),
            ],
        }
    }

    /// Rendering: the ≥5-library headline per group plus CDF deciles.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 6: unique ad libraries per app (static analysis)\n");
        for (panel, series) in [
            ("a: offer type", &self.by_offer_type),
            ("b: IIP type", &self.by_iip_type),
        ] {
            out.push_str(&format!("\nPanel ({panel})\n"));
            let mut t = TextTable::new(["Group", "N", ">=5 libs", "median"]);
            for s in series.iter() {
                let median = {
                    let mut v = s.counts.clone();
                    v.sort_unstable();
                    if v.is_empty() {
                        0
                    } else {
                        v[(v.len() - 1) / 2]
                    }
                };
                t.row([
                    s.label.to_string(),
                    s.counts.len().to_string(),
                    pct(s.frac_ge5),
                    median.to_string(),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn activity_apps_carry_more_ad_libraries() {
        let shared = shared();
        let f = Figure6::run(shared.world(), &shared.artifacts);
        let [activity, no_activity, baseline] = &f.by_offer_type;
        assert!(!activity.counts.is_empty());
        assert!(!no_activity.counts.is_empty());
        assert!(!baseline.counts.is_empty());
        // The paper: 60% vs 25% at the ≥5 cut; require a clear gap.
        assert!(
            activity.frac_ge5 > no_activity.frac_ge5 + 0.1,
            "activity {} vs no-activity {}",
            activity.frac_ge5,
            no_activity.frac_ge5
        );
        // Panel b: vetted > unvetted (55% vs 20% in the paper).
        let [vetted, unvetted, _] = &f.by_iip_type;
        assert!(
            vetted.frac_ge5 > unvetted.frac_ge5,
            "vetted {} vs unvetted {}",
            vetted.frac_ge5,
            unvetted.frac_ge5
        );
        // CDFs are monotone and end at 1.
        for s in f.by_offer_type.iter().chain(f.by_iip_type.iter()) {
            let cdf = s.cdf();
            assert!(cdf.windows(2).all(|w| w[1] >= w[0]));
            assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
        }
        assert!(f.render().contains("Panel (a: offer type)"));
    }

    #[test]
    fn incremental_matches_batch() {
        let shared = shared();
        assert_eq!(
            Figure6::run_incremental(shared.world(), &shared.artifacts),
            Figure6::run(shared.world(), &shared.artifacts)
        );
    }
}
