//! Simulated time.
//!
//! The study plays out on a fixed timeline: the honey-app campaigns run
//! for hours-to-days (§3.2: Fyber and ayeT-Studios deliver within two
//! hours, RankApp takes more than 24), the in-the-wild monitoring spans
//! three months with Play crawls every other day (§4.3.1), and "app
//! age" is measured in days between release and campaign start. All of
//! that is simulated: [`SimTime`] counts seconds since the world epoch
//! and never touches the wall clock, which keeps every experiment
//! reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated timeline, in whole seconds since the
/// world epoch (which the study treats as 2019-03-01 00:00 UTC — the
/// start of the paper's data collection — purely for display).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span between two [`SimTime`]s, in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The world epoch (t = 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> SimTime {
        SimTime(secs)
    }

    /// Creates an instant `days` days after the epoch.
    pub const fn from_days(days: u64) -> SimTime {
        SimTime(days * SimDuration::SECS_PER_DAY)
    }

    /// Seconds since epoch.
    pub const fn secs(self) -> u64 {
        self.0
    }

    /// Whole days since epoch (the granularity of the crawler datasets).
    pub const fn days(self) -> u64 {
        self.0 / SimDuration::SECS_PER_DAY
    }

    /// Duration elapsed since `earlier`; saturates to zero if `earlier`
    /// is actually later (callers compare crawl snapshots that may be
    /// reordered).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    const SECS_PER_DAY: u64 = 86_400;

    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole seconds.
    pub const fn from_secs(secs: u64) -> SimDuration {
        SimDuration(secs)
    }

    /// From whole minutes.
    pub const fn from_mins(mins: u64) -> SimDuration {
        SimDuration(mins * 60)
    }

    /// From whole hours.
    pub const fn from_hours(hours: u64) -> SimDuration {
        SimDuration(hours * 3_600)
    }

    /// From whole days.
    pub const fn from_days(days: u64) -> SimDuration {
        SimDuration(days * Self::SECS_PER_DAY)
    }

    /// Length in seconds.
    pub const fn secs(self) -> u64 {
        self.0
    }

    /// Length in whole hours (rounded down).
    pub const fn hours(self) -> u64 {
        self.0 / 3_600
    }

    /// Length in whole days (rounded down).
    pub const fn days(self) -> u64 {
        self.0 / Self::SECS_PER_DAY
    }

    /// Multiplies the span by an integer factor.
    pub const fn times(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    /// Renders as `d<day>+<hh>:<mm>:<ss>`, e.g. `d12+06:30:00`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.days();
        let rem = self.0 % SimDuration::SECS_PER_DAY;
        write!(
            f,
            "d{day}+{:02}:{:02}:{:02}",
            rem / 3_600,
            (rem % 3_600) / 60,
            rem % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SimDuration::SECS_PER_DAY && self.0.is_multiple_of(SimDuration::SECS_PER_DAY) {
            write!(f, "{}d", self.days())
        } else if self.0 >= 3_600 && self.0.is_multiple_of(3_600) {
            write!(f, "{}h", self.hours())
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

/// Constants of the study timeline (Sections 3–4).
pub mod study {
    use super::{SimDuration, SimTime};

    /// Length of the in-the-wild monitoring window ("a period of three
    /// months from March–June 2019", §4.1). We simulate 92 days.
    pub const MONITORING_WINDOW: SimDuration = SimDuration::from_days(92);

    /// Cadence of Play Store profile/top-chart crawls ("periodically
    /// collect this data every other day", §4.3.1).
    pub const CRAWL_CADENCE: SimDuration = SimDuration::from_days(2);

    /// Observation window used to compare baseline apps against
    /// advertised apps ("the average incentivized install campaign
    /// duration", §4.3.1 — 25 days).
    pub const AVG_CAMPAIGN_WINDOW: SimDuration = SimDuration::from_days(25);

    /// Start of the monitoring window on the simulated timeline. The
    /// window starts well after the world epoch so that app release
    /// dates can precede it by years (Table 4: median app ages up to
    /// 854 days at campaign start).
    pub const STUDY_START: SimTime = SimTime::from_days(1500);

    /// End of the monitoring window on the simulated timeline.
    pub const STUDY_END: SimTime = SimTime::from_days(1592);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_days(3) + SimDuration::from_hours(6);
        assert_eq!(t.secs(), 3 * 86_400 + 6 * 3_600);
        assert_eq!(t.days(), 3);
        assert_eq!(t - SimTime::from_days(3), SimDuration::from_hours(6));
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(20);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_secs(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(0).to_string(), "d0+00:00:00");
        let t = SimTime::from_days(12) + SimDuration::from_secs(6 * 3600 + 30 * 60);
        assert_eq!(t.to_string(), "d12+06:30:00");
        assert_eq!(SimDuration::from_days(2).to_string(), "2d");
        assert_eq!(SimDuration::from_hours(5).to_string(), "5h");
        assert_eq!(SimDuration::from_secs(61).to_string(), "61s");
    }

    #[test]
    fn study_constants_are_consistent() {
        assert_eq!(
            study::STUDY_END - study::STUDY_START,
            study::MONITORING_WINDOW
        );
        // The crawl cadence must evenly divide the window so snapshot
        // series line up across apps.
        assert_eq!(
            study::MONITORING_WINDOW.days() % study::CRAWL_CADENCE.days(),
            0
        );
        assert!(study::AVG_CAMPAIGN_WINDOW < study::MONITORING_WINDOW);
    }

    #[test]
    fn duration_times() {
        assert_eq!(
            SimDuration::from_days(2).times(3),
            SimDuration::from_days(6)
        );
    }
}
