//! Figure 5 — case studies of advertised apps entering top charts
//! during their campaigns: TREBEL (registration/usage offers →
//! top-games) and World on Fire (purchase offers → top-grossing).
//!
//! The series plot the app's percentile rank on the relevant chart per
//! crawl day, with the campaign window marked — the crawl-side view of
//! the paper's Figure 5.

use crate::report::TextTable;
use crate::wildgen::{CASE_STUDY_TREBEL, CASE_STUDY_WOF};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_monitor::Dataset;

/// One case-study panel.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudy {
    /// The app.
    pub package: String,
    /// The chart it targets.
    pub chart: &'static str,
    /// Campaign window (days).
    pub campaign: Option<(u64, u64)>,
    /// `(crawl day, percentile rank)` for each day the app charted.
    pub presence: Vec<(u64, f64)>,
    /// Crawl days where the app did not chart.
    pub absent_days: Vec<u64>,
}

impl CaseStudy {
    /// Batch panel: the per-day chart size comes from a full scan of
    /// the chart log — one scan *per chart day*, which is the report
    /// pass's dominant spill-reload source and exactly what the
    /// aggregate layer's chart-size map eliminates.
    fn compute(ds: &Dataset, package: &str, chart: &'static str) -> CaseStudy {
        CaseStudy::compute_with(ds, package, chart, |day| {
            ds.charts()
                .find(|c| c.day == day && c.chart == chart)
                .map_or(0, |c| c.entries().len())
        })
    }

    /// Shared panel body with a pluggable chart-size lookup (the
    /// percentile axis denominator for one crawl day).
    fn compute_with(
        ds: &Dataset,
        package: &str,
        chart: &'static str,
        size_of: impl Fn(u64) -> usize,
    ) -> CaseStudy {
        let sym = ds.pkg_sym(package);
        let campaign = sym
            .and_then(|s| ds.campaign(s))
            .map(|o| (o.first_seen.days(), o.last_seen.days()));
        let ranks = sym
            .map(|s| ds.chart_presence_sym(s, chart))
            .unwrap_or_default();
        let mut presence = Vec::new();
        let mut absent = Vec::new();
        for &day in ds.chart_days() {
            let rank = ranks.iter().find(|&&(d, _)| d == day).map(|&(_, r)| r);
            let size = size_of(day);
            match rank {
                Some(r) if size > 0 => {
                    presence.push((day, 100.0 * (size - r) as f64 / size as f64));
                }
                _ => absent.push(day),
            }
        }
        CaseStudy {
            package: package.to_string(),
            chart,
            campaign,
            presence,
            absent_days: absent,
        }
    }

    /// Whether the app charts only from the campaign window onward —
    /// Figure 5's visual claim.
    pub fn appears_after_campaign_start(&self) -> bool {
        match (self.campaign, self.presence.first()) {
            (Some((start, _)), Some((first_day, _))) => *first_day >= start,
            _ => false,
        }
    }
}

/// The reproduced Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure5 {
    /// Panel (a): TREBEL on top games.
    pub trebel: CaseStudy,
    /// Panel (b): World on Fire on top grossing.
    pub wof: CaseStudy,
}

impl Figure5 {
    /// Computes both panels by rescanning the chart log — the
    /// byte-parity oracle for [`Figure5::run_incremental`].
    pub fn run(_world: &World, artifacts: &WildArtifacts) -> Figure5 {
        Figure5 {
            trebel: CaseStudy::compute(
                &artifacts.dataset,
                CASE_STUDY_TREBEL,
                "topselling_free_games",
            ),
            wof: CaseStudy::compute(&artifacts.dataset, CASE_STUDY_WOF, "topgrossing"),
        }
    }

    /// Computes both panels with per-day chart sizes from the
    /// streaming aggregates' chart-size map — O(log) lookups instead
    /// of a full chart-log scan per chart day, so the figure renders
    /// without touching spilled segments. Byte-identical to
    /// [`Figure5::run`].
    pub fn run_incremental(artifacts: &WildArtifacts) -> Figure5 {
        let ds = &artifacts.dataset;
        let aggs = &artifacts.aggregates;
        Figure5 {
            trebel: CaseStudy::compute_with(ds, CASE_STUDY_TREBEL, "topselling_free_games", |d| {
                aggs.chart_size("topselling_free_games", d)
            }),
            wof: CaseStudy::compute_with(ds, CASE_STUDY_WOF, "topgrossing", |d| {
                aggs.chart_size("topgrossing", d)
            }),
        }
    }

    /// Rendering: day series with campaign markers.
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 5: case studies of chart appearances\n");
        for cs in [&self.trebel, &self.wof] {
            out.push_str(&format!(
                "\n({}) {} on {} — campaign days {:?}\n",
                if cs.package == self.trebel.package {
                    "a"
                } else {
                    "b"
                },
                cs.package,
                cs.chart,
                cs.campaign
            ));
            let mut t = TextTable::new(["Day", "Percentile"]);
            for (day, pctile) in &cs.presence {
                t.row([day.to_string(), format!("{pctile:.1}")]);
            }
            if t.is_empty() {
                out.push_str("(never charted)\n");
            } else {
                out.push_str(&t.render());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn case_studies_chart_during_their_campaigns() {
        let shared = shared();
        let f = Figure5::run(shared.world(), &shared.artifacts);

        for cs in [&f.trebel, &f.wof] {
            assert!(cs.campaign.is_some(), "{} never observed", cs.package);
            assert!(
                !cs.presence.is_empty(),
                "{} never charted on {}",
                cs.package,
                cs.chart
            );
            assert!(
                cs.appears_after_campaign_start(),
                "{} charted before its campaign ({:?} vs {:?})",
                cs.package,
                cs.presence.first(),
                cs.campaign
            );
        }
        let rendered = f.render();
        assert!(rendered.contains("topgrossing"));
    }

    #[test]
    fn incremental_matches_batch() {
        let shared = shared();
        assert_eq!(
            Figure5::run_incremental(&shared.artifacts),
            Figure5::run(shared.world(), &shared.artifacts)
        );
    }
}
