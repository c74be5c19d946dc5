//! §5.1 — Responsible disclosure.
//!
//! "We contacted the developers of popular apps advertised on vetted
//! and unvetted IIPs … We contacted only 136 popular apps, each with
//! 5M+ installs … At the time of writing, we have received responses
//! from three developers, all of whom were unaware of their apps
//! participating in such campaigns. They also indicated that they are
//! being defrauded."
//!
//! The experiment replays the process: select observed advertised apps
//! whose *crawled* profile shows 5M+ installs, email the profile
//! contact address, and model responses. A developer whose campaign
//! was created by a third-party marketer responds (when they respond
//! at all) that they never bought incentivized installs.

use crate::report::TextTable;
use crate::world::World;
use crate::WildArtifacts;
use iiscope_types::rng::chance;

/// Install floor for "popular" apps (the paper used 5M+).
pub const POPULAR_FLOOR: u64 = 5_000_000;
/// Observed response rate (3 of 136).
pub const RESPONSE_RATE: f64 = 3.0 / 136.0;

/// One disclosure contact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contact {
    /// The app.
    pub package: String,
    /// Developer email from the crawled profile.
    pub email: String,
    /// Whether the developer replied.
    pub responded: bool,
    /// For responders: whether they were aware of the campaign.
    pub aware: Option<bool>,
    /// For responders: whether they attributed it to a contracted
    /// marketing organization (i.e. reported being defrauded).
    pub blames_marketer: Option<bool>,
}

/// The reproduced §5.1 process.
#[derive(Debug, Clone, PartialEq)]
pub struct Disclosure {
    /// Everyone contacted (crawled-popularity ≥ 5M).
    pub contacts: Vec<Contact>,
}

impl Disclosure {
    /// Runs the disclosure round.
    pub fn run(world: &World, artifacts: &WildArtifacts) -> Disclosure {
        let ds = &artifacts.dataset;
        let mut rng = world.seed.fork("disclosure").rng();
        let mut contacts = Vec::new();
        for pkg in ds.advertised_packages() {
            let Some(profile) = ds.first_profile(pkg) else {
                continue;
            };
            if profile.min_installs < POPULAR_FLOOR {
                continue;
            }
            // Large brands have security/marketing teams that answer
            // researcher mail; the long tail mostly doesn't (the
            // paper's 3 responses out of 136).
            let is_brand = world
                .plan
                .apps
                .iter()
                .any(|a| a.package.as_str() == pkg && a.brand.is_some());
            let responded = chance(&mut rng, RESPONSE_RATE) || (is_brand && chance(&mut rng, 0.5));
            let (aware, blames_marketer) = if responded {
                // Ground truth consult: was any of this app's campaigns
                // marketer-created? (The developer knows what they did
                // and did not buy.)
                let via_marketer = world
                    .plan
                    .apps
                    .iter()
                    .find(|a| a.package.as_str() == pkg)
                    .map(|a| a.campaigns.iter().any(|c| c.via_marketer))
                    .unwrap_or(false);
                // §5.1: every responder was unaware; marketer-run
                // campaigns explain how.
                (Some(false), Some(via_marketer))
            } else {
                (None, None)
            };
            contacts.push(Contact {
                package: pkg.to_string(),
                email: profile.developer_email.to_string(),
                responded,
                aware,
                blames_marketer,
            });
        }
        Disclosure { contacts }
    }

    /// Apps contacted.
    pub fn contacted(&self) -> usize {
        self.contacts.len()
    }

    /// Responses received.
    pub fn responses(&self) -> usize {
        self.contacts.iter().filter(|c| c.responded).count()
    }

    /// Responders who were unaware of the campaigns.
    pub fn unaware(&self) -> usize {
        self.contacts
            .iter()
            .filter(|c| c.aware == Some(false))
            .count()
    }

    /// Rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["App", "Responded", "Aware", "Blames marketer"]);
        for c in self.contacts.iter().filter(|c| c.responded) {
            t.row([
                c.package.clone(),
                "yes".to_string(),
                match c.aware {
                    Some(true) => "yes",
                    Some(false) => "no",
                    None => "-",
                }
                .to_string(),
                match c.blames_marketer {
                    Some(true) => "yes",
                    Some(false) => "no",
                    None => "-",
                }
                .to_string(),
            ]);
        }
        format!(
            "Section 5.1: responsible disclosure — contacted {} popular apps (5M+ installs), {} responses, {} unaware\n{}",
            self.contacted(),
            self.responses(),
            self.unaware(),
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::shared;
    use crate::wildgen::BRAND_APPS;

    #[test]
    fn popular_apps_get_contacted_and_brands_are_among_them() {
        let shared = shared();
        let d = Disclosure::run(shared.world(), &shared.artifacts);
        assert!(d.contacted() >= 4, "contacted {}", d.contacted());
        // The pinned brand apps are popular and advertised, so they are
        // in the contact list (if observed by the monitor).
        let contacted: std::collections::BTreeSet<&str> =
            d.contacts.iter().map(|c| c.package.as_str()).collect();
        let brands_contacted = BRAND_APPS
            .iter()
            .filter(|(pkg, _)| contacted.contains(pkg))
            .count();
        assert!(brands_contacted >= 3, "brands contacted {brands_contacted}");
        // Every responder is unaware (the §5.1 finding).
        assert_eq!(d.unaware(), d.responses());
        assert!(d.render().contains("responsible disclosure"));
    }

    #[test]
    fn brand_campaigns_are_marketer_created() {
        let shared = shared();
        for (pkg, _) in BRAND_APPS {
            let app = shared
                .world()
                .plan
                .apps
                .iter()
                .find(|a| a.package.as_str() == pkg)
                .expect("brand pinned");
            assert!(app.campaigns.iter().all(|c| c.via_marketer), "{pkg}");
            assert!(app.is_public_company);
        }
    }
}
