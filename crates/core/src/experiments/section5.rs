//! §5.2 — "Google Play Store's Policy and Enforcement": looking for
//! install-count *decreases* in the crawl timelines. The paper found
//! none for baseline or vetted-advertised apps and decreases for only
//! ~2% of unvetted-advertised apps.

use crate::report::{count_pct, TextTable};
use crate::world::World;
use crate::WildArtifacts;
use iiscope_analysis::install_decreased;

/// One app-set row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section5Row {
    /// Apps whose public count never decreased.
    pub stable: u64,
    /// Apps with at least one observed decrease.
    pub decreased: u64,
}

impl Section5Row {
    /// Total observed apps.
    pub fn total(&self) -> u64 {
        self.stable + self.decreased
    }

    /// Decrease rate.
    pub fn rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.decreased as f64 / self.total() as f64
        }
    }
}

/// The reproduced §5.2 measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Section5 {
    /// Baseline apps.
    pub baseline: Section5Row,
    /// Vetted-advertised apps.
    pub vetted: Section5Row,
    /// Unvetted-advertised apps.
    pub unvetted: Section5Row,
}

impl Section5 {
    /// Scans every profile timeline for downward bin moves.
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Section5 {
        let ds = &artifacts.dataset;
        // The row is a pair of counters, so visit order is invisible —
        // the class sets scan in sym order, the baseline in plan order.
        let scan = |syms: &mut dyn Iterator<Item = iiscope_types::Sym>| -> Section5Row {
            let mut row = Section5Row {
                stable: 0,
                decreased: 0,
            };
            for sym in syms {
                let series = ds.profile_series_sym(sym);
                if series.is_empty() {
                    continue;
                }
                if install_decreased(&series) {
                    row.decreased += 1;
                } else {
                    row.stable += 1;
                }
            }
            row
        };
        Section5 {
            baseline: scan(
                &mut world
                    .plan
                    .baseline
                    .iter()
                    .filter_map(|b| ds.pkg_sym(b.package.as_str())),
            ),
            vetted: scan(&mut ds.class_syms(true).iter()),
            unvetted: scan(&mut ds.class_syms(false).iter()),
        }
    }

    /// Rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["App Set", "Stable", "Decreased"]);
        let mut add = |label: &str, r: &Section5Row| {
            t.row([
                format!("{label} (N = {})", r.total()),
                count_pct(r.stable, r.total()),
                count_pct(r.decreased, r.total()),
            ]);
        };
        add("Baseline", &self.baseline);
        add("Vetted", &self.vetted);
        add("Unvetted", &self.unvetted);
        format!(
            "Section 5.2: install-count decreases (enforcement signal)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn enforcement_is_rare_and_skewed_to_unvetted() {
        let shared = shared();
        let s5 = Section5::run(shared.world(), &shared.artifacts);
        // Baseline apps never decrease (they have no tagged installs).
        assert_eq!(s5.baseline.decreased, 0, "baseline decreases");
        // Decreases are rare overall (the paper: ~2% of unvetted apps,
        // none elsewhere; with a small world the count may be zero).
        assert!(
            s5.unvetted.rate() < 0.15,
            "unvetted rate {}",
            s5.unvetted.rate()
        );
        assert!(s5.vetted.rate() < 0.10, "vetted rate {}", s5.vetted.rate());
        assert!(s5.render().contains("Decreased"));
    }
}
