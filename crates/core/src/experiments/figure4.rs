//! Figure 4 — "Install counts of the baseline apps": the histogram
//! showing the baseline spans everything from under 1K to beyond
//! 1000M installs. Computed from the baseline apps' first crawled
//! profiles (public binned counts, as the paper had).

use crate::report::TextTable;
use crate::world::World;
use crate::WildArtifacts;
use iiscope_playstore::InstallBin;

/// The reproduced Figure 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Figure4 {
    /// App counts per histogram bucket, in
    /// [`InstallBin::FIGURE4_BUCKETS`] order.
    pub counts: [u64; 8],
    /// Baseline apps with at least one crawled profile.
    pub total: u64,
}

impl Figure4 {
    /// Computes the histogram.
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Figure4 {
        let ds = &artifacts.dataset;
        let mut counts = [0u64; 8];
        let mut total = 0;
        for b in &world.plan.baseline {
            let Some(profile) = ds.first_profile(b.package.as_str()) else {
                continue;
            };
            counts[InstallBin::figure4_bucket(profile.min_installs)] += 1;
            total += 1;
        }
        Figure4 { counts, total }
    }

    /// Rendering: one row per bucket plus a crude bar.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Install Counts", "Apps", ""]);
        for (i, label) in InstallBin::FIGURE4_BUCKETS.iter().enumerate() {
            let n = self.counts[i];
            t.row([label.to_string(), n.to_string(), "#".repeat(n as usize)]);
        }
        format!(
            "Figure 4: install counts of the baseline apps (N = {})\n{}",
            self.total,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn baseline_spans_the_whole_range() {
        let shared = shared();
        let f = Figure4::run(shared.world(), &shared.artifacts);
        assert_eq!(f.counts.iter().sum::<u64>(), f.total);
        assert!(f.total as usize >= shared.world().plan.baseline.len() * 8 / 10);
        // Apps at both ends of the spectrum (the paper's spread).
        assert!(f.counts[0] + f.counts[1] > 0, "small apps missing");
        assert!(f.counts[6] + f.counts[7] > 0, "mega apps missing");
        let rendered = f.render();
        assert!(rendered.contains("1000M+"));
    }
}
