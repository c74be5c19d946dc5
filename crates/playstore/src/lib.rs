//! # iiscope-playstore
//!
//! A Google Play Store simulator exposing exactly the observables the
//! paper measures through:
//!
//! * **public app profiles** — title, package, genre, developer info
//!   (country, website), release date, and the *binned* install count
//!   ("Google reports installs in bins of a lower-bound 'minimum'
//!   number of installs", §4.2) — crawled every other day in §4.3.1;
//! * **top charts** — trending lists ranked by *user engagement*
//!   metrics, not raw installs ("Google Play Store places apps in top
//!   charts based on user engagement metrics", §4.3.1), which is the
//!   paper's explanation for why activity offers move charts while
//!   no-activity offers only move install counts;
//! * **the developer console** — per-app acquisition analytics the
//!   honey-app experiment relies on ("We use analytics provided by
//!   Google Play Store's developer console to measure the delivery of
//!   installs", §3.2);
//! * **policy enforcement** — the install-filtering pipeline whose
//!   (in)effectiveness §5.2 measures via install-count *decreases*.
//!
//! The store also serves an HTTP frontend ([`frontend`]) so the
//! crawler in `iiscope-monitor` actually crawls, and APK downloads so
//! the LibRadar-style analysis in `iiscope-analysis` has bytes to scan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apk;
pub mod bins;
pub mod catalog;
pub mod charts;
pub mod console;
pub mod engagement;
pub mod frontend;
pub mod policy;
pub mod store;

pub use apk::{AdLibrary, ApkInfo};
pub use bins::InstallBin;
pub use catalog::{AppProfile, AppRecord, DeveloperRecord};
pub use charts::{ChartKind, ChartRanking};
pub use console::AcquisitionReport;
pub use engagement::InstallSignals;
pub use policy::EnforcementConfig;
pub use store::{DetectorSnapshot, InstallSource, LedgerFootprint, PlayStore};
