//! The UI fuzzer — this repo's Appium.
//!
//! §4.1: "We implement a UI fuzzer based on Appium to automate UI
//! interactions with an affiliate app … Our UI fuzzer sequentially
//! opens all of the tabs to load the offer walls and then it scrolls
//! through the offer wall to make sure that all the offers are
//! loaded."
//!
//! Mechanically: opening a tab issues the wall's page-0 request;
//! each scroll issues the next page. The fuzzer stops scrolling when a
//! page comes back empty (or the scroll budget runs out — the
//! coverage-vs-depth ablation knob). The fuzzer never interprets
//! offers; it only needs to know whether the page had any, which it
//! checks with the wall probe ([`probe_wall`]), reading up to the first
//! entry. The full parse happens once, on the proxy side.

use crate::parsers::{probe_wall, PageFill};
use iiscope_devices::AffiliateApp;
use iiscope_types::Result;
use iiscope_wire::HttpClient;

/// Fuzzer tuning.
#[derive(Debug, Clone)]
pub struct FuzzerConfig {
    /// Maximum scroll pages fetched per tab (including page 0).
    pub max_scroll_pages: usize,
}

impl Default for FuzzerConfig {
    fn default() -> FuzzerConfig {
        FuzzerConfig {
            max_scroll_pages: 50,
        }
    }
}

/// Statistics from one fuzzing run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzRun {
    /// Tabs opened.
    pub tabs: usize,
    /// Wall pages fetched successfully.
    pub pages: usize,
    /// Requests that failed (network faults, handshake failures).
    pub failed_requests: usize,
}

/// The automation driver.
#[derive(Debug, Clone, Default)]
pub struct UiFuzzer {
    /// Tuning.
    pub config: FuzzerConfig,
}

impl UiFuzzer {
    /// Creates a fuzzer with the given scroll budget.
    pub fn new(config: FuzzerConfig) -> UiFuzzer {
        UiFuzzer { config }
    }

    /// Drives every offer-wall tab of `app` through `client` (the
    /// monitored phone's HTTP stack, normally proxied through the MITM
    /// box). Returns run statistics; the *data* is whatever the proxy
    /// intercepted.
    pub fn drive(&self, app: &AffiliateApp, client: &mut HttpClient) -> Result<FuzzRun> {
        let mut run = FuzzRun::default();
        for tab in &app.tabs {
            run.tabs += 1;
            for page in 0..self.config.max_scroll_pages {
                let url = format!(
                    "https://{}/offers?affiliate={}&page={page}",
                    tab.hostname,
                    app.package.as_str()
                );
                let resp = match client.get(&url) {
                    Ok(r) if r.is_success() => r,
                    Ok(_) | Err(_) => {
                        run.failed_requests += 1;
                        break;
                    }
                };
                run.pages += 1;
                // Scroll detection: stop when the page shows nothing.
                // The body is probed in place (a borrowed slice of the
                // response slab) — no copy per page.
                let wire = client.network().wire();
                match resp.body_str().and_then(|b| probe_wall(tab.iip, b, wire)) {
                    Ok(PageFill::Empty) => break,
                    Ok(PageFill::HasEntries) => {}
                    Err(_) => {
                        // Unparseable page: the UI would render nothing;
                        // stop scrolling this tab.
                        run.failed_requests += 1;
                        break;
                    }
                }
            }
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The fuzzer is integration-tested against the full rig in
    // `infra.rs`; here we only cover the config plumbing.
    #[test]
    fn default_scroll_budget() {
        let f = UiFuzzer::default();
        assert_eq!(f.config.max_scroll_pages, 50);
        let f = UiFuzzer::new(FuzzerConfig {
            max_scroll_pages: 2,
        });
        assert_eq!(f.config.max_scroll_pages, 2);
    }
}
