//! # iiscope-core
//!
//! The paper's methodology as a library. This crate assembles every
//! substrate — network, PKI, Play Store, the seven IIPs, mediator,
//! honey app, monitoring rig, population models, funding database —
//! into a [`World`], runs the two studies, and renders each table and
//! figure of the paper:
//!
//! * [`world`] — deterministic world construction from a
//!   [`WorldConfig`] (scaled presets: [`WorldConfig::paper`] for the
//!   full-size reproduction, [`WorldConfig::small`] for tests).
//! * [`wildgen`] — generation of the advertised-app population and
//!   their campaign plans, calibrated to Tables 3 and 4.
//! * [`wildsim`] — the §4 longitudinal study: campaign delivery,
//!   engagement, enforcement sweeps, offer-wall milking through the
//!   MITM rig, and Play crawls on the paper's cadence.
//! * [`honeystudy`] — the §3 experiment: sequential purchased
//!   campaigns on Fyber, ayeT-Studios and RankApp.
//! * [`experiments`] — one module per table/figure, each returning a
//!   typed result and a printable rendering; `EXPERIMENTS.md` is
//!   generated from these.
//! * [`report`] — fixed-width table rendering shared by the
//!   experiment binaries.
//! * [`run`] — one run of both studies: a [`Run`] owns its world and
//!   returns an [`Outcome`] that renders the report and its digest.
//! * [`chaos`] — the deterministic chaos harness: the adversarial
//!   fault grid, the one-call study runner, and the monotone
//!   telemetry-survival scenario behind `tests/chaos.rs`.
//! * [`aggregates`] — streaming per-day accumulators for the hot
//!   report tables, folded during the wild study so paper-scale
//!   reports render without re-scanning (and re-loading) the full
//!   dataset; the batch experiment paths remain the byte-parity
//!   oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod chaos;
pub mod checkpoint;
pub mod config;
pub mod experiments;
pub mod honeystudy;
pub mod report;
pub mod run;
pub mod servefront;
pub mod wildgen;
pub mod wildsim;
pub mod world;

pub use config::WorldConfig;
pub use honeystudy::HoneyStudy;
pub use run::{Outcome, Run, RunError, RunOptions};
pub use wildsim::WildArtifacts;
pub use world::World;
