//! Table 3 — "Prevalence of different types of incentivized install
//! offers and their average payouts."
//!
//! Works purely on the milked dataset: unique offers are classified by
//! description (the paper's manual labelling) and their displayed
//! rewards normalized to USD through the affiliate rate book.

use crate::report::{pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::{classify_description, ActivityKind, OfferType};
use iiscope_monitor::RateBook;
use iiscope_types::Usd;

/// One class row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Offer class label.
    pub class: String,
    /// Share of all offers.
    pub share: f64,
    /// Average normalized payout.
    pub avg_payout: Usd,
    /// Offer count in the class.
    pub count: usize,
}

/// The reproduced Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// Total unique offers (the paper's N = 2,126).
    pub total_offers: usize,
    /// Unique descriptions (the paper's 1,128).
    pub unique_descriptions: usize,
    /// Rows: No activity, Activity, then the three subtypes.
    pub rows: Vec<Table3Row>,
}

impl Table3 {
    /// Computes the table.
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Table3 {
        let book = RateBook::from_catalog(&world.affiliate_apps);
        let unique = artifacts.dataset.unique_offers();
        let total = unique.len();
        let mut per_class: Vec<(OfferType, Usd)> = Vec::new();
        for o in unique {
            let class = classify_description(o.description);
            let usd = book.to_usd(o.reward, o.affiliate).unwrap_or(Usd::ZERO);
            per_class.push((class, usd));
        }
        let row = |label: &str, pred: &dyn Fn(OfferType) -> bool| -> Table3Row {
            let matching: Vec<Usd> = per_class
                .iter()
                .filter(|(c, _)| pred(*c))
                .map(|(_, u)| *u)
                .collect();
            Table3Row {
                class: label.to_string(),
                share: if total == 0 {
                    0.0
                } else {
                    matching.len() as f64 / total as f64
                },
                avg_payout: Usd::mean(&matching),
                count: matching.len(),
            }
        };
        Table3 {
            total_offers: total,
            unique_descriptions: artifacts.dataset.unique_descriptions().len(),
            rows: vec![
                row("No activity", &|c| c == OfferType::NoActivity),
                row("Activity", &|c| c.is_activity()),
                row("Activity (Usage)", &|c| {
                    c == OfferType::Activity(ActivityKind::Usage)
                }),
                row("Activity (Registration)", &|c| {
                    c == OfferType::Activity(ActivityKind::Registration)
                }),
                row("Activity (Purchase)", &|c| {
                    c == OfferType::Activity(ActivityKind::Purchase)
                }),
            ],
        }
    }

    /// Share of a class by label.
    pub fn share_of(&self, label: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.class == label).map(|r| r.share)
    }

    /// Average payout of a class by label.
    pub fn payout_of(&self, label: &str) -> Option<Usd> {
        self.rows
            .iter()
            .find(|r| r.class == label)
            .map(|r| r.avg_payout)
    }

    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Offer Type", "% of offers", "Average payout"]);
        for r in &self.rows {
            t.row([r.class.clone(), pct(r.share), r.avg_payout.to_string()]);
        }
        format!(
            "Table 3: offer types and payouts (N = {} unique offers, {} unique descriptions)\n{}",
            self.total_offers,
            self.unique_descriptions,
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
        let t = Table3::run(shared.world(), &shared.artifacts);
        assert!(t.total_offers > 50, "{}", t.total_offers);
        assert!(t.unique_descriptions > 10);

        // Rough half/half split (47%/53% in the paper).
        let no_act = t.share_of("No activity").unwrap();
        let act = t.share_of("Activity").unwrap();
        assert!((no_act + act - 1.0).abs() < 1e-9);
        assert!(
            (0.30..=0.70).contains(&no_act),
            "no-activity share {no_act}"
        );

        // Activity pays several times more than no-activity (9× in the
        // paper).
        let p_no = t.payout_of("No activity").unwrap().dollars_f64();
        let p_act = t.payout_of("Activity").unwrap().dollars_f64();
        assert!(p_act > 3.0 * p_no, "activity {p_act} vs no-activity {p_no}");

        // Purchase offers are the expensive ones.
        let p_purchase = t.payout_of("Activity (Purchase)").unwrap().dollars_f64();
        let p_usage = t.payout_of("Activity (Usage)").unwrap().dollars_f64();
        let p_reg = t
            .payout_of("Activity (Registration)")
            .unwrap()
            .dollars_f64();
        assert!(p_purchase > 2.5 * p_usage, "{p_purchase} vs {p_usage}");
        assert!(p_purchase > 2.5 * p_reg, "{p_purchase} vs {p_reg}");

        // Usage dominates the activity subtypes (37/11/5 in Table 3).
        let s_usage = t.share_of("Activity (Usage)").unwrap();
        let s_reg = t.share_of("Activity (Registration)").unwrap();
        let s_pur = t.share_of("Activity (Purchase)").unwrap();
        assert!(
            s_usage > s_reg && s_reg > s_pur,
            "{s_usage}/{s_reg}/{s_pur}"
        );

        // Absolute scale: no-activity near the paper's $0.06.
        assert!((0.01..=0.20).contains(&p_no), "no-activity avg ${p_no}");

        let rendered = t.render();
        assert!(rendered.contains("No activity"));
        assert!(rendered.contains("Activity (Purchase)"));
    }
}
