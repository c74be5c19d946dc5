//! # iiscope-monitor
//!
//! The §4.1 monitoring infrastructure (Figure 3), end to end:
//!
//! ```text
//!  UI fuzzer ──drives──▶ affiliate app ──TLS──▶ MITM proxy ──TLS──▶ IIP walls
//!                                             │
//!                                   intercepted plaintext
//!                                             ▼
//!                               per-IIP JSON parsers (this crate)
//!                                             ▼
//!                         payout normalization ▶ offer dataset
//! ```
//!
//! * [`fuzzer`] — the Appium-like automation: opens every offer-wall
//!   tab of an affiliate app and scrolls until no more offers load.
//! * [`parsers`] — one parser per IIP wall dialect, operating on
//!   *intercepted* HTTP bodies (never on ground-truth structs).
//! * [`normalize`] — reward-currency normalization: points → USD via
//!   each affiliate app's redemption rate (§4.1 fn 6).
//! * [`infra`] — the vantage-point rig: a monitored phone per country
//!   (VPN-exit egress), proxy configuration, milk-and-parse runs.
//! * [`crawler`] — the §4.3 Play Store crawler: profiles and top
//!   charts every other day, plus APK downloads.
//! * [`dataset`] — the assembled longitudinal dataset with the query
//!   surface the analyses consume (campaign windows, per-IIP app sets,
//!   profile/chart timelines).
//! * [`profiles`] — the profile crawl log as interned fixed-size rows.
//! * [`export`] — CSV export of the dataset, mirroring the paper's
//!   public data release.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crawler;
pub mod dataset;
pub mod export;
pub mod fuzzer;
pub mod infra;
pub mod normalize;
pub mod parsers;
pub mod profiles;
pub mod spill;

pub use crawler::{ChartSnapshot, Crawler, ProfileSnapshot};
pub use dataset::{
    CampaignObservation, CampaignRef, Dataset, InternStats, OfferFields, OfferRow, SavedDataset,
    SavedRows, SymTables,
};
pub use export::export_csv;
pub use fuzzer::{FuzzerConfig, UiFuzzer};
pub use infra::MonitoringInfra;
pub use normalize::RateBook;
pub use parsers::{parse_wall, probe_wall, PageFill, RawOffer, RewardValue, ScrapedOffer};
pub use profiles::{ProfileFields, ProfileLog};
pub use spill::{LogRow, RowLog, SegRef, SpillManifest, SpillStats};
