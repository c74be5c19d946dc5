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
//! * [`Run`] builds a world and runs both studies: the §3 experiment
//!   (purchased installs, telemetry, forensics), then the §4
//!   longitudinal study (offer-wall milking through a MITM proxy, Play
//!   crawls, campaign impact), checkpointed and resumed as its
//!   [`RunOptions`] ask;
//! * [`experiments`] regenerates every table and figure, and an
//!   [`Outcome`] renders them all as the report.
//!
//! ```no_run
//! use iiscope::{Run, RunOptions, WorldConfig};
//!
//! let run = Run::new(WorldConfig::small(42)).unwrap();
//! let out = run.study(RunOptions::default()).unwrap();
//! println!("{}", out.report());
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
