//! # iiscope
//!
//! A production-quality Rust reproduction of *"Understanding
//! Incentivized Mobile App Installs on Google Play Store"*
//! (Farooqi et al., ACM IMC 2020).
//!
//! The crate is a facade over the `iiscope-*` workspace:
//!
//! * [`World`] builds the complete simulated ecosystem — network, PKI,
//!   Play Store, the seven IIPs of Table 1, attribution mediator,
//!   crowd-worker populations, monitoring rig, Crunchbase snapshot;
//! * [`World::run_honey_study`] reproduces the §3 experiment
//!   (purchased installs, telemetry, forensics);
//! * [`World::run_wild_study`] reproduces the §4 longitudinal study
//!   (offer-wall milking through a MITM proxy, Play crawls, campaign
//!   impact);
//! * [`experiments`] regenerates every table and figure.
//!
//! ```no_run
//! use iiscope::{World, WorldConfig};
//!
//! let world = World::build(WorldConfig::small(42)).unwrap();
//! let honey = world.run_honey_study(world.study_start()).unwrap();
//! let artifacts = world.run_wild_study().unwrap();
//! println!("{}", iiscope::experiments::full_report_incremental(&world, &artifacts, honey));
//! ```

#![forbid(unsafe_code)]

pub use iiscope_core::*;

/// Subsystem crates, re-exported for direct access.
pub mod subsystems {
    pub use iiscope_analysis as analysis;
    pub use iiscope_attribution as attribution;
    pub use iiscope_devices as devices;
    pub use iiscope_honeyapp as honeyapp;
    pub use iiscope_iip as iip;
    pub use iiscope_load as load;
    pub use iiscope_monitor as monitor;
    pub use iiscope_netsim as netsim;
    pub use iiscope_playstore as playstore;
    pub use iiscope_serve as serve;
    pub use iiscope_types as types;
    pub use iiscope_wire as wire;
}
