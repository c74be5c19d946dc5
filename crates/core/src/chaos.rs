//! The deterministic chaos harness.
//!
//! Every hop of the measurement pipeline — telemetry uploads, proxied
//! milking, Play crawls — crosses the fault-injected netsim substrate,
//! and every fault a [`FaultPlan`] can schedule (random and bursty
//! loss, outage windows, stalls, truncation, garbage, slow links) is a
//! pure function of `(seed, plan)`: link RNGs fork from the client's
//! own seed lineage and fault delays accrue to connection-local clock
//! skew, never to the shared clock. That makes *any* failure found by
//! a chaos sweep replayable from two values.
//!
//! This module packages the sweep: a canonical adversarial fault grid
//! ([`fault_grid`]), a one-call study runner ([`run_chaos`]) returning
//! a digestible [`ChaosOutcome`], and a minimal monotone-degradation
//! scenario ([`telemetry_survival`]) whose success set provably
//! shrinks as the drop rate grows. `tests/chaos.rs` sweeps the grid ×
//! seed matrix and checks five invariants: no panics, sim-time
//! containment, byte-identical reruns at equal seeds, monotone
//! degradation, and report computability at every grid point.

use crate::config::WorldConfig;
use crate::run::{Run, RunDigest, RunError, RunOptions};
use iiscope_honeyapp::app::telemetry_payload;
use iiscope_honeyapp::{Collector, TelemetryEvent};
use iiscope_netsim::{AsnId, AsnKind, FaultPlan, GilbertElliott, HostAddr, Network, OutageWindow};
use iiscope_types::time::study;
use iiscope_types::{Country, DeviceId, SeedFork, SimDuration};
use iiscope_wire::server::HttpsFactory;
use iiscope_wire::tls::{CertAuthority, ServerIdentity, TrustStore};
use iiscope_wire::HttpClient;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The condensed result of one chaos run — everything the invariant
/// layer compares across seeds, plans and worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Honey installs delivered across the three campaigns.
    pub honey_delivered: u64,
    /// Distinct install ids the collector heard from (reply-direction
    /// faults cause duplicate uploads, so raw record counts are not
    /// comparable — distinct ids are).
    pub telemetry_installs: usize,
    /// Raw offer observations the wild study milked.
    pub offer_observations: usize,
    /// Profile snapshots the crawler landed.
    pub profile_snapshots: usize,
    /// APKs downloaded for the static analysis.
    pub apks: usize,
    /// Digest of the printed report and the three CSVs — byte
    /// identity of two runs collapses to equality of this (and the
    /// counts above).
    pub digest: RunDigest,
    /// Shared-clock day the world ended on. Faults consume only
    /// connection-local skew, so this is bounded by the schedule, not
    /// by the fault plan.
    pub end_clock_days: u64,
    /// The world's chaos book at the end of the run: the faults it
    /// absorbed and how the pipeline degraded.
    pub chaos_counters: Vec<(&'static str, u64)>,
    /// The world's wire book at the end of the run.
    pub wire_counters: Vec<(&'static str, u64)>,
}

/// The world configuration chaos sweeps run under: the `small` preset
/// shrunk further so a full grid × seed matrix stays test-suite sized.
pub fn chaos_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.monitoring_days = 8;
    cfg.crawl_cadence_days = 4;
    cfg.advertised_apps = 20;
    cfg.baseline_apps = 8;
    cfg.honey_purchase = 40;
    cfg
}

/// The canonical adversarial fault grid: one plan per fault family,
/// each aggressive enough to exercise its failure path on a small
/// world but survivable by the hardened pipeline.
pub fn fault_grid() -> Vec<(&'static str, FaultPlan)> {
    let start = study::STUDY_START;
    vec![
        ("drop-light", FaultPlan::lossy(0.05, 0.01)),
        ("drop-heavy", FaultPlan::lossy(0.18, 0.03)),
        (
            "burst",
            FaultPlan::perfect().with_burst(GilbertElliott::new(0.05, 0.30, 0.005, 0.60)),
        ),
        (
            "outage",
            FaultPlan::lossy(0.02, 0.0).with_outage(OutageWindow::new(
                start + SimDuration::from_days(2),
                start + SimDuration::from_days(3),
            )),
        ),
        (
            "stall-truncate",
            FaultPlan::perfect().with_stall(0.04).with_truncation(0.04),
        ),
        (
            "garbage-slowlink",
            FaultPlan::perfect()
                .with_garbage(0.03)
                .with_bandwidth(200_000),
        ),
    ]
}

/// Runs both studies on `cfg` as `opts` asks (a fault plan, a crash,
/// a checkpointed resume) and condenses the run into a
/// [`ChaosOutcome`]. A crash-resume is two calls: one whose
/// [`CrashPlan`] ends it, then one with `resume` set on the same
/// checkpoint directory.
pub fn run_chaos(cfg: WorldConfig, opts: RunOptions) -> Result<ChaosOutcome, RunError> {
    let out = Run::new(cfg)?.study(opts)?;
    let (world, artifacts) = (out.world(), &out.artifacts);
    let profile_snapshots = artifacts.dataset.profiles().len();
    let delivered = out.honey.outcomes.iter().map(|o| o.installs_delivered);
    Ok(ChaosOutcome {
        honey_delivered: delivered.sum(),
        telemetry_installs: world.collector.distinct_installs(),
        offer_observations: artifacts.offer_observations,
        profile_snapshots,
        apks: artifacts.apks.len(),
        digest: out.digest(),
        end_clock_days: world.net.clock().now().days(),
        chaos_counters: world.net.chaos().snapshot(),
        wire_counters: world.net.wire().snapshot(),
    })
}

/// Deterministic kill-point injection: the wild study terminates with
/// [`Error::Interrupted`] at the top of sim day `kill_day`, before
/// anything of that day (including the clock advance) has run — the
/// closest simulable analogue of `kill -9` at a day boundary. Paired
/// with checkpointing and resume, it turns "does the pipeline survive
/// a crash at day k?" into a pure function of `(seed, k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Sim day the process dies at.
    pub kill_day: u64,
}

/// The monotone-degradation scenario: `devices` fixed clients each
/// attempt exactly one telemetry upload (no retries) to a TLS
/// collector under a pure drop plan, and the function returns how many
/// distinct installs the collector heard from.
///
/// Monotonicity is a coupling argument, not a hope: each device's
/// connection RNG forks from the device index alone, so two runs
/// differing only in `drop_chance` feed *identical* uniform draws to
/// each device's first (and only) attempt. A delivery survives when
/// its draw `u ≥ p`, so every exchange that survives the higher rate
/// survives the lower rate on the very same draws — the success set at
/// `p_high` is a subset of the success set at `p_low`.
pub fn telemetry_survival(seed: u64, drop_chance: f64, devices: u64) -> usize {
    let root = SeedFork::new(seed);
    let net = Network::new(root.fork("net"));
    let mut ca = CertAuthority::new("Chaos CA", root.fork("ca"));
    let mut roots = TrustStore::new();
    roots.install_root(ca.root_cert());
    let collector = Collector::new();
    let identity = ServerIdentity::issue(&mut ca, "collector.iiscope", root.fork("col-id"));
    let ip = Ipv4Addr::new(10, 9, 0, 1);
    net.bind(
        ip,
        443,
        Arc::new(HttpsFactory::new(
            Arc::new(collector.clone()),
            identity,
            root.fork("col-tls"),
        )),
    )
    .expect("collector bind");
    net.register_host("collector.iiscope", ip);
    net.set_default_fault(FaultPlan::lossy(drop_chance, 0.0));

    for i in 0..devices {
        let device = iiscope_devices::Device {
            id: DeviceId(i),
            addr: HostAddr {
                ip: Ipv4Addr::new(198, 51, (i / 200) as u8, (i % 200) as u8),
                asn: AsnId(7922),
                asn_kind: AsnKind::Eyeball,
                country: Country::Us,
            },
            build: "samsung/SM-G960F".into(),
            rooted: false,
            wifi_ssid: None,
            installed: vec![],
        };
        let mut client = HttpClient::new(
            net.clone(),
            device.addr,
            roots.clone(),
            root.fork_idx("dev", i),
        )
        .with_retries(0);
        let payload = telemetry_payload(&device, i, TelemetryEvent::Open);
        // A lost upload is the measured signal here, not an error.
        let _ = client.post_json("https://collector.iiscope/v1/telemetry", &payload);
    }
    collector.distinct_installs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_fault_family() {
        let grid = fault_grid();
        assert!(grid.len() >= 6);
        assert!(grid.iter().any(|(_, p)| p.burst.is_some()));
        assert!(grid.iter().any(|(_, p)| !p.outages.is_empty()));
        assert!(grid.iter().any(|(_, p)| p.stall_chance > 0.0));
        assert!(grid.iter().any(|(_, p)| p.truncate_chance > 0.0));
        assert!(grid.iter().any(|(_, p)| p.garbage_chance > 0.0));
        assert!(grid.iter().any(|(_, p)| p.bandwidth.is_some()));
    }

    #[test]
    fn telemetry_survival_is_deterministic_and_lossless_when_clean() {
        let clean = telemetry_survival(7, 0.0, 30);
        assert_eq!(clean, 30, "clean network delivers every upload");
        assert_eq!(
            telemetry_survival(7, 0.25, 30),
            telemetry_survival(7, 0.25, 30)
        );
    }
}
