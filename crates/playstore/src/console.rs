//! The developer console's acquisition analytics.
//!
//! §3.2 leans on the console twice: to count delivered installs per
//! campaign ("We use analytics provided by Google Play Store's
//! developer console to measure the delivery of installs by each IIP")
//! and to rule out contamination ("we use Google Play Store's developer
//! console to verify that we do not receive any organic installs …
//! during our incentivized install campaigns").

use crate::engagement::{EngagementLedger, ORGANIC_TAG};
use iiscope_types::SimTime;
use std::collections::BTreeMap;

/// Acquisition report for one app over a time range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquisitionReport {
    /// Installs without an attribution tag (store search, charts).
    pub organic: u64,
    /// Installs per attribution tag (campaign tracking links).
    pub by_tag: BTreeMap<String, u64>,
    /// Total installs in range (organic + tagged), before enforcement
    /// filtering (the console shows acquisitions, not net installs).
    pub total: u64,
}

impl AcquisitionReport {
    /// Installs attributed to a specific tag.
    pub fn tagged(&self, tag: &str) -> u64 {
        self.by_tag.get(tag).copied().unwrap_or(0)
    }
}

/// Builds the acquisition report for `[from, to)`.
pub fn acquisition_report(
    ledger: &EngagementLedger,
    from: SimTime,
    to: SimTime,
) -> AcquisitionReport {
    // Installs per tag id; id 0 is organic.
    let mut per_tag = vec![0u64; ledger.tag_count() as usize + 1];
    for ev in ledger.install_events() {
        if ev.at >= from && ev.at < to {
            per_tag[ev.tag as usize] += 1;
        }
    }
    let by_tag = (1..=ledger.tag_count())
        .filter(|t| per_tag[*t as usize] > 0)
        .map(|t| (ledger.tag_name(t).to_string(), per_tag[t as usize]))
        .collect();
    AcquisitionReport {
        organic: per_tag[ORGANIC_TAG as usize],
        by_tag,
        total: per_tag.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engagement::InstallSignals;

    #[test]
    fn report_splits_sources_and_ranges() {
        let mut l = EngagementLedger::new();
        let s = InstallSignals::clean(1);
        l.record_install(SimTime::from_days(1), s, "fyber-c1");
        l.record_install(SimTime::from_days(1), s, "fyber-c1");
        l.record_install(SimTime::from_days(2), s, "rankapp-c2");
        l.record_install(SimTime::from_days(2), s, "");
        l.record_install(SimTime::from_days(9), s, "fyber-c1"); // outside range

        let r = acquisition_report(&l, SimTime::from_days(1), SimTime::from_days(5));
        assert_eq!(r.total, 4);
        assert_eq!(r.organic, 1);
        assert_eq!(r.tagged("fyber-c1"), 2);
        assert_eq!(r.tagged("rankapp-c2"), 1);
        assert_eq!(r.tagged("nothing"), 0);
    }

    #[test]
    fn report_counts_filtered_installs_too() {
        // The console shows acquisitions; enforcement only affects the
        // public count.
        let mut l = EngagementLedger::new();
        let farm = InstallSignals {
            emulator: true,
            rooted: false,
            datacenter_asn: false,
            block24: 0,
        };
        l.record_install(SimTime::from_days(1), farm, "iip");
        l.filter_installs(1, |_| true);
        let r = acquisition_report(&l, SimTime::EPOCH, SimTime::from_days(10));
        assert_eq!(r.total, 1);
        assert_eq!(l.public_installs(), 0);
    }

    #[test]
    fn empty_ledger_empty_report() {
        let l = EngagementLedger::new();
        let r = acquisition_report(&l, SimTime::EPOCH, SimTime::from_days(1));
        assert_eq!(r.total, 0);
        assert_eq!(r.organic, 0);
        assert!(r.by_tag.is_empty());
    }
}
