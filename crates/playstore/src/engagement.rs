//! Per-app engagement ledger: the ground truth behind install counts,
//! chart scores, console analytics and the enforcement sweep.
//!
//! Every install carries [`InstallSignals`] — the device-quality facts
//! (§3.2's emulator / rooted / datacenter-ASN / shared-/24 signals)
//! that the Play-side fraud filter of §5.2 *could* use. The ledger also
//! buckets sessions, registrations, purchases and revenue per day so
//! chart ranking can be computed over a trailing window.
//!
//! Alongside the events it keeps the running counts the enforcement
//! sweep decides on — unfiltered installs, unfiltered suspicious
//! installs, and unfiltered installs per /24 — updated by
//! [`EngagementLedger::record_install`] and
//! [`EngagementLedger::filter_installs`], so a daily sweep that does
//! not fire reads a few counters instead of the app's whole history.

use iiscope_types::{SimTime, Usd};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Device-quality signals attached to one install event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallSignals {
    /// Install came from an emulator build.
    pub emulator: bool,
    /// Device is rooted.
    pub rooted: bool,
    /// Source address belongs to a datacenter/cloud ASN.
    pub datacenter_asn: bool,
    /// /24 prefix of the source address (upper 24 bits meaningful).
    pub block24: u32,
}

impl InstallSignals {
    /// A perfectly ordinary eyeball-network install.
    pub fn clean(block24: u32) -> InstallSignals {
        InstallSignals {
            emulator: false,
            rooted: false,
            datacenter_asn: false,
            block24,
        }
    }

    /// True when any individual fraud marker is raised.
    pub fn is_suspicious(&self) -> bool {
        self.emulator || self.datacenter_asn
    }
}

/// One recorded install.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallEvent {
    /// When the install happened.
    pub at: SimTime,
    /// Device-quality signals.
    pub signals: InstallSignals,
    /// Attribution tag as an index into the ledger's tag table
    /// ([`EngagementLedger::tag_name`]); [`ORGANIC_TAG`] for organic
    /// installs. A campaign's tag is stored once per ledger, not once
    /// per install.
    pub tag: u32,
    /// Whether the enforcement sweep has removed this install from the
    /// public count.
    pub filtered: bool,
}

/// [`InstallEvent::tag`] of an install without an attribution tag.
pub const ORGANIC_TAG: u32 = 0;

/// Aggregates for one simulated day.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DayStats {
    /// Installs recorded this day.
    pub installs: u64,
    /// App sessions ("opens") this day.
    pub sessions: u64,
    /// Total session seconds this day.
    pub session_secs: u64,
    /// Account registrations this day.
    pub registrations: u64,
    /// In-app purchases this day.
    pub purchases: u64,
    /// Revenue micro-dollars this day.
    pub revenue_micros: i64,
}

/// The per-app ledger.
#[derive(Debug, Default)]
pub struct EngagementLedger {
    installs: Vec<InstallEvent>,
    /// Distinct attribution tags; [`InstallEvent::tag`] `i` names
    /// `tags[i - 1]`.
    tags: Vec<Box<str>>,
    /// Unfiltered event installs with a hard fraud signal.
    suspicious: u64,
    /// Unfiltered event installs per /24 (blocks with none are absent).
    blocks: HashMap<u32, u32>,
    /// The blocks of `blocks` holding at least two installs — the only
    /// candidates for a lockstep burst at any threshold above one.
    shared_blocks: BTreeSet<u32>,
    /// Aggregate organic installs recorded in bulk (no per-event
    /// record; organic traffic of a 100M-install app cannot be
    /// materialized event by event).
    bulk_installs: u64,
    filtered: u64,
    days: BTreeMap<u64, DayStats>,
    /// Cumulative star ratings (sum of stars, count of ratings).
    /// Ratings are a public profile surface ("User Ratings, Reviews,
    /// and Installs" is the policy page the paper cites); they are
    /// cumulative, not windowed.
    rating_sum: u64,
    rating_count: u64,
}

impl EngagementLedger {
    /// Empty ledger.
    pub fn new() -> EngagementLedger {
        EngagementLedger::default()
    }

    /// Records an install. `source_tag` is empty for organic installs.
    pub fn record_install(&mut self, at: SimTime, signals: InstallSignals, source_tag: &str) {
        let tag = self.intern_tag(source_tag);
        self.installs.push(InstallEvent {
            at,
            signals,
            tag,
            filtered: false,
        });
        self.suspicious += u64::from(signals.is_suspicious());
        let n = self.blocks.entry(signals.block24).or_default();
        *n += 1;
        if *n == 2 {
            self.shared_blocks.insert(signals.block24);
        }
        self.days.entry(at.days()).or_default().installs += 1;
    }

    /// The tag id of `tag`, adding it to the table on first sight. A
    /// ledger sees a handful of campaigns, so a scan beats a map.
    fn intern_tag(&mut self, tag: &str) -> u32 {
        if tag.is_empty() {
            return ORGANIC_TAG;
        }
        let i = match self.tags.iter().position(|t| **t == *tag) {
            Some(i) => i,
            None => {
                self.tags.push(tag.into());
                self.tags.len() - 1
            }
        };
        i as u32 + 1
    }

    /// The attribution tag an [`InstallEvent::tag`] id names (empty for
    /// [`ORGANIC_TAG`]).
    pub fn tag_name(&self, tag: u32) -> &str {
        match tag {
            ORGANIC_TAG => "",
            i => &self.tags[i as usize - 1],
        }
    }

    /// Number of distinct attribution tags; tag ids run from 1 to this.
    pub fn tag_count(&self) -> u32 {
        self.tags.len() as u32
    }

    /// Records `n` organic installs in aggregate (day stats only; no
    /// per-event records, so enforcement never touches them — organic
    /// installs are clean by construction).
    pub fn record_installs_bulk(&mut self, at: SimTime, n: u64) {
        self.bulk_installs += n;
        self.days.entry(at.days()).or_default().installs += n;
    }

    /// Records `sessions` app sessions totalling `secs` seconds, in
    /// aggregate (background engagement of popular apps).
    pub fn record_sessions_bulk(&mut self, at: SimTime, sessions: u64, secs: u64) {
        let d = self.days.entry(at.days()).or_default();
        d.sessions += sessions;
        d.session_secs += secs;
    }

    /// Records aggregate purchase revenue (`purchases` transactions
    /// totalling `amount`).
    pub fn record_revenue_bulk(&mut self, at: SimTime, purchases: u64, amount: Usd) {
        let d = self.days.entry(at.days()).or_default();
        d.purchases += purchases;
        d.revenue_micros += amount.micros();
    }

    /// Records an app session of `secs` seconds.
    pub fn record_session(&mut self, at: SimTime, secs: u64) {
        let d = self.days.entry(at.days()).or_default();
        d.sessions += 1;
        d.session_secs += secs;
    }

    /// Records one star rating (1..=5; clamped).
    pub fn record_rating(&mut self, stars: u8) {
        let stars = stars.clamp(1, 5);
        self.rating_sum += u64::from(stars);
        self.rating_count += 1;
    }

    /// Records `count` ratings totalling `total_stars` in aggregate.
    pub fn record_ratings_bulk(&mut self, count: u64, total_stars: u64) {
        debug_assert!(total_stars <= count * 5);
        self.rating_sum += total_stars;
        self.rating_count += count;
    }

    /// Average star rating, if any ratings exist.
    pub fn average_rating(&self) -> Option<f64> {
        if self.rating_count == 0 {
            None
        } else {
            Some(self.rating_sum as f64 / self.rating_count as f64)
        }
    }

    /// Number of ratings.
    pub fn rating_count(&self) -> u64 {
        self.rating_count
    }

    /// Records an account registration.
    pub fn record_registration(&mut self, at: SimTime) {
        self.days.entry(at.days()).or_default().registrations += 1;
    }

    /// Records an in-app purchase.
    pub fn record_purchase(&mut self, at: SimTime, amount: Usd) {
        let d = self.days.entry(at.days()).or_default();
        d.purchases += 1;
        d.revenue_micros += amount.micros();
    }

    /// Exact lifetime installs minus enforcement-filtered ones — the
    /// number the public bin is derived from.
    pub fn public_installs(&self) -> u64 {
        self.installs.len() as u64 + self.bulk_installs - self.filtered
    }

    /// Exact lifetime installs including filtered ones.
    pub fn gross_installs(&self) -> u64 {
        self.installs.len() as u64 + self.bulk_installs
    }

    /// Number of installs removed by enforcement so far.
    pub fn filtered_installs(&self) -> u64 {
        self.filtered
    }

    /// All install events (enforcement and forensics iterate these).
    pub fn install_events(&self) -> &[InstallEvent] {
        &self.installs
    }

    /// Installs with per-event records not yet filtered.
    pub fn unfiltered_installs(&self) -> u64 {
        self.installs.len() as u64 - self.filtered
    }

    /// Unfiltered installs carrying a hard fraud signal
    /// ([`InstallSignals::is_suspicious`]).
    pub fn unfiltered_suspicious(&self) -> u64 {
        self.suspicious
    }

    /// Unfiltered installs from `block24`.
    pub fn unfiltered_in_block(&self, block24: u32) -> u64 {
        self.blocks.get(&block24).map_or(0, |n| u64::from(*n))
    }

    /// The /24 blocks holding at least two unfiltered installs, in
    /// ascending order.
    pub fn shared_blocks(&self) -> impl Iterator<Item = u32> + '_ {
        self.shared_blocks.iter().copied()
    }

    /// Marks `n` not-yet-filtered installs matching `pred` as filtered;
    /// returns how many were actually removed.
    pub fn filter_installs(&mut self, n: u64, mut pred: impl FnMut(&InstallEvent) -> bool) -> u64 {
        let mut removed = 0;
        for ev in self.installs.iter_mut() {
            if removed == n {
                break;
            }
            if !ev.filtered && pred(ev) {
                ev.filtered = true;
                removed += 1;
                self.suspicious -= u64::from(ev.signals.is_suspicious());
                let block = ev.signals.block24;
                let left = self
                    .blocks
                    .get_mut(&block)
                    .expect("unfiltered install is counted");
                *left -= 1;
                match *left {
                    0 => {
                        self.blocks.remove(&block);
                    }
                    1 => {
                        self.shared_blocks.remove(&block);
                    }
                    _ => {}
                }
            }
        }
        self.filtered += removed;
        removed
    }

    /// Day bucket accessor.
    pub fn day(&self, day: u64) -> DayStats {
        self.days.get(&day).copied().unwrap_or_default()
    }

    /// Sums day stats over `[now - window_days, now]` (inclusive of the
    /// current day).
    pub fn trailing(&self, now: SimTime, window_days: u64) -> DayStats {
        let end = now.days();
        let start = end.saturating_sub(window_days);
        let mut acc = DayStats::default();
        for (_, d) in self.days.range(start..=end) {
            acc.installs += d.installs;
            acc.sessions += d.sessions;
            acc.session_secs += d.session_secs;
            acc.registrations += d.registrations;
            acc.purchases += d.purchases;
            acc.revenue_micros += d.revenue_micros;
        }
        acc
    }

    /// Lifetime revenue.
    pub fn total_revenue(&self) -> Usd {
        Usd::from_micros(self.days.values().map(|d| d.revenue_micros).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_counting() {
        let mut l = EngagementLedger::new();
        for i in 0..5 {
            l.record_install(SimTime::from_days(i), InstallSignals::clean(0x0A000100), "");
        }
        assert_eq!(l.public_installs(), 5);
        assert_eq!(l.gross_installs(), 5);
        assert_eq!(l.day(2).installs, 1);
    }

    #[test]
    fn filtering_reduces_public_count_only() {
        let mut l = EngagementLedger::new();
        let farm = InstallSignals {
            emulator: true,
            rooted: true,
            datacenter_asn: false,
            block24: 1,
        };
        for _ in 0..10 {
            l.record_install(SimTime::EPOCH, farm, "iip");
        }
        for _ in 0..3 {
            l.record_install(SimTime::EPOCH, InstallSignals::clean(2), "");
        }
        let removed = l.filter_installs(5, |e| e.signals.emulator);
        assert_eq!(removed, 5);
        assert_eq!(l.public_installs(), 8);
        assert_eq!(l.gross_installs(), 13);
        assert_eq!(l.filtered_installs(), 5);
        // Only 5 more emulator installs remain to filter.
        assert_eq!(l.filter_installs(100, |e| e.signals.emulator), 5);
    }

    #[test]
    fn trailing_window_sums_correct_days() {
        let mut l = EngagementLedger::new();
        l.record_session(SimTime::from_days(10), 60);
        l.record_session(SimTime::from_days(12), 120);
        l.record_session(SimTime::from_days(20), 30);
        let w = l.trailing(SimTime::from_days(13), 3);
        assert_eq!(w.sessions, 2);
        assert_eq!(w.session_secs, 180);
        let w = l.trailing(SimTime::from_days(13), 0);
        assert_eq!(w.sessions, 0);
    }

    #[test]
    fn purchases_and_revenue() {
        let mut l = EngagementLedger::new();
        l.record_purchase(SimTime::from_days(1), Usd::from_cents(499));
        l.record_purchase(SimTime::from_days(2), Usd::from_cents(99));
        l.record_registration(SimTime::from_days(1));
        assert_eq!(l.total_revenue(), Usd::from_cents(598));
        assert_eq!(l.day(1).purchases, 1);
        assert_eq!(l.day(1).registrations, 1);
        let w = l.trailing(SimTime::from_days(2), 7);
        assert_eq!(w.revenue_micros, Usd::from_cents(598).micros());
    }

    #[test]
    fn suspicious_signal_logic() {
        assert!(!InstallSignals::clean(0).is_suspicious());
        let mut s = InstallSignals::clean(0);
        s.emulator = true;
        assert!(s.is_suspicious());
        let mut s = InstallSignals::clean(0);
        s.datacenter_asn = true;
        assert!(s.is_suspicious());
        let mut s = InstallSignals::clean(0);
        s.rooted = true;
        assert!(!s.is_suspicious(), "rooted alone is common and not fraud");
    }
}
