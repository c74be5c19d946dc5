//! Table 1 — "Characterization of different IIPs identified in our
//! study by reviewing their websites and attempting to register with
//! them as a developer."
//!
//! The experiment does what the authors did: it *attempts to register*
//! with each platform as an undocumented, low-deposit developer and
//! classifies platforms by how the registration goes. A rejection
//! demanding documents or a four-figure deposit marks the platform
//! vetted; a $25 walk-in acceptance marks it unvetted.

use crate::report::TextTable;
use crate::world::World;
use iiscope_iip::{DeveloperApplication, VettingOutcome};
use iiscope_types::{DeveloperId, IipId, Usd};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// The platform.
    pub iip: IipId,
    /// Observed classification (from the registration probe, not from
    /// ground truth).
    pub observed_vetted: bool,
    /// Home URL.
    pub home_url: &'static str,
}

/// The reproduced Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Probes every platform.
    pub fn run(world: &World) -> Table1 {
        let probe_dev = DeveloperId(999_999);
        let rows = IipId::ALL
            .into_iter()
            .map(|iip| {
                let platform = &world.platforms[&iip];
                // A walk-in: no documents, double-digit dollars —
                // unvetted platforms take it, vetted ones demand
                // paperwork and four figures.
                let outcome = platform.profile.review(&DeveloperApplication {
                    developer: probe_dev,
                    has_tax_id: false,
                    has_bank_account: false,
                    deposit: Usd::from_dollars(60),
                });
                Table1Row {
                    iip,
                    observed_vetted: matches!(outcome, VettingOutcome::Rejected(_)),
                    home_url: iip.home_url(),
                }
            })
            .collect();
        Table1 { rows }
    }

    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["IIP", "Type", "Home URL"]);
        for r in &self.rows {
            t.row([
                r.iip.name(),
                if r.observed_vetted {
                    "Vetted"
                } else {
                    "Unvetted"
                },
                r.home_url,
            ]);
        }
        format!(
            "Table 1: IIP characterization (registration probe)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn probe_recovers_the_table1_split() {
        let shared = shared();
        let t = Table1::run(shared.world());
        assert_eq!(t.rows.len(), 7);
        for row in &t.rows {
            assert_eq!(
                row.observed_vetted,
                row.iip.is_vetted(),
                "{} misclassified",
                row.iip
            );
        }
        let rendered = t.render();
        assert!(rendered.contains("RankApp"));
        assert!(rendered.contains("Unvetted"));
        assert!(rendered.contains("fyber.com"));
    }
}
