//! §3.2 — the honey-app measurements, rendered: user acquisition,
//! engagement, and install forensics.

use crate::honeystudy::HoneyStudy;
use crate::report::{pct, TextTable};
use crate::world::World;
use iiscope_types::PackageName;

/// The reproduced §3.2 findings plus the enforcement headline.
#[derive(Debug, Clone)]
pub struct Section3 {
    /// The study results.
    pub study: HoneyStudy,
    /// The honey app's final public install bin lower bound — the
    /// "from 0 to over 1,000" takeaway.
    pub final_install_bin: u64,
}

impl Section3 {
    /// Packages the honey study for rendering.
    pub fn run(world: &World, study: HoneyStudy) -> Section3 {
        let pkg = PackageName::new(iiscope_honeyapp::HONEY_PACKAGE).expect("valid");
        let final_install_bin = world
            .store
            .profile(&pkg)
            .map(|p| p.installs.lower_bound())
            .unwrap_or(0);
        Section3 {
            study,
            final_install_bin,
        }
    }

    /// Rendering of the three §3.2 blocks.
    pub fn render(&self) -> String {
        let mut out = String::from("Section 3.2: measurements of purchased installs\n\n");
        let mut t = TextTable::new(["IIP", "Delivered", "Reported", "Missing", "Delivery"]);
        for (iip, delivered, reported, missing, duration) in &self.study.acquisition.per_iip {
            t.row([
                iip.name().to_string(),
                delivered.to_string(),
                reported.to_string(),
                pct(*missing),
                format!("{:.1}h", duration.secs() as f64 / 3600.0),
            ]);
        }
        out.push_str("User acquisition\n");
        out.push_str(&t.render());
        out.push_str(&format!(
            "Total installs: {} (purchased {})\n\n",
            self.study.acquisition.total_installs,
            self.study.outcomes.iter().map(|o| o.purchased).sum::<u64>()
        ));

        let mut t = TextTable::new(["IIP", "Click rate", "Day-2 clickers"]);
        for ((iip, rate), (_, day2)) in self
            .study
            .engagement
            .click_rate
            .iter()
            .zip(&self.study.engagement.day2_clickers)
        {
            t.row([iip.name().to_string(), pct(*rate), day2.to_string()]);
        }
        out.push_str("User engagement (record-button clicks)\n");
        out.push_str(&t.render());

        out.push_str("\nInstall forensics\n");
        out.push_str(&format!(
            "emulator installs: {}\ndatacenter-ASN installs: {}\n",
            self.study.forensics.emulator_installs, self.study.forensics.datacenter_installs
        ));
        for farm in &self.study.forensics.farms {
            out.push_str(&format!(
                "device farm: {} installs in {}, {} rooted, {} same SSID\n",
                farm.installs, farm.block24, farm.rooted, farm.same_ssid
            ));
        }
        let mut t = TextTable::new(["IIP", "money-keyword rate", "top affiliate", "share"]);
        for ((iip, rate), (_, top, share)) in self
            .study
            .forensics
            .money_keyword_rate
            .iter()
            .zip(&self.study.forensics.top_affiliate)
        {
            t.row([iip.name().to_string(), pct(*rate), top.clone(), pct(*share)]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nHoney app public install count: 0 -> {}+\n",
            self.final_install_bin
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;

    #[test]
    fn renders_all_blocks() {
        let shared = shared();
        let s3 = Section3::run(shared.world(), shared.honey.clone());
        assert!(s3.final_install_bin >= shared.world().cfg.honey_purchase);
        let rendered = s3.render();
        assert!(rendered.contains("User acquisition"));
        assert!(rendered.contains("RankApp"));
        assert!(rendered.contains("money-keyword rate"));
        assert!(rendered.contains("0 ->"));
    }
}
