//! The §3.2 campaign driver: purchase N incentivized installs from one
//! IIP and watch what arrives.
//!
//! The driver wires every subsystem the real experiment touched:
//!
//! 1. a campaign is created on the platform (escrowed budget, offer on
//!    the wall) and its attribution tag registered with the mediator;
//! 2. workers from the platform's audience arrive at the platform's
//!    delivery rate; each worker's device installs the honey app on
//!    the Play Store (with its true quality signals and the campaign's
//!    attribution tag);
//! 3. workers who bother opening the app produce telemetry uploads
//!    over HTTPS to the collection server and conversion events at the
//!    mediator; completions become postbacks and settle the payout
//!    chain;
//! 4. the handful of next-day returns fire a day later.
//!
//! IIPs over-deliver a little (the paper bought 3 × 500 installs and
//! received 1,679), so delivery exceeds the purchased cap; only capped
//! completions are paid.

use crate::app::{telemetry_payload, TelemetryEvent, HONEY_PACKAGE};
use iiscope_attribution::{ConversionEvent, ConversionGoal, Mediator};
use iiscope_devices::AffiliateApp;
use iiscope_devices::{Device, ExecutionPlan, IipAudience};
use iiscope_iip::{CampaignSpec, IipPlatform};
use iiscope_netsim::Network;
use iiscope_playstore::{InstallSource, PlayStore};
use iiscope_types::rng::exponential;
use iiscope_types::{
    AppId, DeveloperId, Error, IipId, PackageName, Result, SeedFork, SimDuration, SimTime, Usd,
};
use iiscope_wire::tls::TrustStore;
use iiscope_wire::HttpClient;
use rand::Rng;
use std::sync::Arc;

/// Recursively searches a JSON tree for a string value equal to
/// `needle` — how a worker "sees" an app in whatever layout the wall
/// renders.
fn json_mentions(v: &iiscope_wire::Json, needle: &str) -> bool {
    use iiscope_wire::Json;
    match v {
        Json::Str(s) => s == needle,
        Json::Array(items) => items.iter().any(|i| json_mentions(i, needle)),
        Json::Object(map) => map.values().any(|i| json_mentions(i, needle)),
        _ => false,
    }
}

/// Result of one purchased campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// The platform the installs were bought from.
    pub iip: IipId,
    /// Installs purchased (the cap).
    pub purchased: u64,
    /// Campaign launch instant.
    pub started_at: SimTime,
    /// Instant of the last delivered install.
    pub finished_at: SimTime,
    /// Installs actually delivered (console view).
    pub installs_delivered: u64,
    /// Offer completions the platform paid out.
    pub completions_paid: u64,
    /// The campaign's attribution tag.
    pub tag: String,
    /// Workers who browsed the wall but never found the offer (geo
    /// filtering, pagination misses) and therefore did not install.
    pub browse_misses: u64,
}

impl CampaignOutcome {
    /// Wall-clock delivery duration.
    pub fn delivery_duration(&self) -> SimDuration {
        self.finished_at - self.started_at
    }
}

/// Everything a campaign needs access to.
pub struct CampaignDriver {
    /// The world's network (telemetry uploads travel on it).
    pub net: Network,
    /// The Play Store the honey app is published on.
    pub store: Arc<PlayStore>,
    /// The honey app's store id.
    pub honey_app: AppId,
    /// The developer account (ours) that pays for campaigns.
    pub developer: DeveloperId,
    /// The attribution mediator.
    pub mediator: Arc<Mediator>,
    /// Trust roots devices use for the telemetry upload.
    pub roots: TrustStore,
    /// Collector endpoint, e.g. `https://collector.iiscope/v1/telemetry`.
    pub collector_url: String,
    /// Determinism root.
    pub seed: SeedFork,
}

/// Over-delivery per platform, calibrated to §3.2's 626/550/503
/// deliveries on 500-install purchases.
fn overdelivery(iip: IipId) -> f64 {
    match iip {
        IipId::Fyber => 1.25,
        IipId::AyetStudios => 1.10,
        IipId::RankApp => 1.006,
        _ => 1.08,
    }
}

impl CampaignDriver {
    /// Purchases `purchased` no-activity installs on `platform` and
    /// simulates the delivery. The world clock ends past the last
    /// event.
    pub fn run(
        &self,
        platform: &IipPlatform,
        audience: &IipAudience,
        purchased: u64,
        payout: Usd,
        start: SimTime,
    ) -> Result<CampaignOutcome> {
        let iip = platform.id();
        let goal = ConversionGoal::InstallAndOpen;
        let (campaign_id, tag) = platform.create_campaign(
            CampaignSpec {
                developer: self.developer,
                package: PackageName::new(HONEY_PACKAGE).expect("valid package"),
                store_url: format!("https://play.iiscope/store/apps/details?id={HONEY_PACKAGE}"),
                goal: goal.clone(),
                payout,
                cap: purchased,
                countries: vec![],
            },
            start,
        )?;
        self.mediator.register_campaign(tag.clone(), goal.clone())?;

        // Arrival list: each *install* draws a worker archetype from
        // the platform's calibrated mix, then takes the next unused
        // device of that archetype. Farm devices therefore arrive in
        // /24-clustered bursts without farms dominating the install
        // share (§3.2 saw one 20-install farm among 503 installs).
        let mut rng = self.seed.fork("campaign").fork(iip.name()).rng();
        let profile = iiscope_devices::IipBehaviorProfile::for_iip(iip);
        let deliver = ((purchased as f64) * overdelivery(iip)).round() as usize;
        use iiscope_devices::WorkerKind;
        let mut queues: std::collections::BTreeMap<u8, Vec<&Device>> =
            std::collections::BTreeMap::new();
        let kind_slot = |k: WorkerKind| -> u8 {
            match k {
                WorkerKind::Casual => 0,
                WorkerKind::SemiPro => 1,
                WorkerKind::BotOperator => 2,
                WorkerKind::FarmOperator => 3,
            }
        };
        for worker in &audience.workers {
            let q = queues.entry(kind_slot(worker.kind)).or_default();
            for dev in &worker.devices {
                q.push(audience.device(*dev).expect("device exists"));
            }
        }
        // Shuffle inside each kind (farm devices stay grouped by
        // generation order within a farm thanks to stable ids).
        for q in queues.values_mut() {
            q.sort_by_key(|d| d.id);
        }
        let total_devices: usize = queues.values().map(Vec::len).sum();
        if total_devices < deliver {
            return Err(Error::InvalidState(format!(
                "audience too small: {total_devices} devices for {deliver} installs"
            )));
        }
        let mut arrivals: Vec<(WorkerKind, &Device)> = Vec::with_capacity(deliver);
        while arrivals.len() < deliver {
            let kind = profile.sample_kind(&mut rng);
            let slot = kind_slot(kind);
            // Fall back to the largest remaining pool when a kind runs
            // dry.
            let slot = if queues.get(&slot).is_some_and(|q| !q.is_empty()) {
                slot
            } else {
                match queues
                    .iter()
                    .max_by_key(|(_, q)| q.len())
                    .filter(|(_, q)| !q.is_empty())
                {
                    Some((s, _)) => *s,
                    None => break,
                }
            };
            let q = queues.get_mut(&slot).expect("slot exists");
            arrivals.push((
                match slot {
                    0 => WorkerKind::Casual,
                    1 => WorkerKind::SemiPro,
                    2 => WorkerKind::BotOperator,
                    _ => WorkerKind::FarmOperator,
                },
                q.pop().expect("non-empty"),
            ));
        }
        let mean_gap_secs = 3_600.0 / profile.delivery_per_hour;

        // Phase 1: schedule all events.
        let mut t = start;
        let mut last_install = start;
        let mut day2: Vec<(SimTime, &Device, bool)> = Vec::new();
        let mut installs = 0u64;
        let mut browse_misses = 0u64;
        let source = InstallSource::Tagged(tag.as_str().into());
        for (i, (kind, device)) in arrivals.iter().enumerate() {
            t += SimDuration::from_secs(exponential(&mut rng, mean_gap_secs).ceil() as u64);
            self.net.clock().advance_to(t);
            // The worker opens an affiliate app on their own phone and
            // scrolls the wall until the offer shows up (§2.1: "users
            // browse offers and select an offer to work on"). No
            // sighting, no install.
            if !self.worker_sees_offer(device, iip, i as u64)? {
                browse_misses += 1;
                continue;
            }
            last_install = t;
            // The Play install, attributed to the campaign tag.
            self.store
                .record_install(self.honey_app, t, device.install_signals(), &source)?;
            installs += 1;
            let suspicious = device.install_signals().is_suspicious();
            self.mediator
                .track(&tag, device.id, ConversionEvent::Installed, t, suspicious)?;

            let plan = iiscope_devices::behavior::plan_for(&profile, *kind, &goal, &mut rng);
            self.execute_plan(device, &tag, &plan, t, suspicious, i as u64)?;
            if plan.day2_return {
                day2.push((t + SimDuration::from_days(1), device, true));
            }
        }

        // Phase 2: day-2 returns, in time order.
        day2.sort_by_key(|(at, d, _)| (*at, d.id));
        for (at, device, click) in day2 {
            self.net.clock().advance_to(at);
            self.try_upload(device, TelemetryEvent::Open, at)?;
            self.store.record_session(self.honey_app, at, 60)?;
            if click {
                self.try_upload(device, TelemetryEvent::RecordClick, at)?;
            }
        }

        // Phase 3: settle postbacks, then conclude the campaign (the
        // purchased delivery is over; the offer leaves the wall and
        // any unspent escrow returns).
        let mut paid = 0;
        for pb in self.mediator.drain_postbacks() {
            if pb.conversion.tag == tag && platform.process_postback(&pb)?.is_some() {
                paid += 1;
            }
        }
        platform.end_campaign(campaign_id)?;

        Ok(CampaignOutcome {
            iip,
            purchased,
            started_at: start,
            finished_at: last_install,
            installs_delivered: installs,
            completions_paid: paid,
            tag,
            browse_misses,
        })
    }

    /// One worker's wall-browsing session: fetch pages of an affiliate
    /// app's offer wall (over TLS, from the worker's own device) until
    /// the honey app shows up or the wall runs out.
    fn worker_sees_offer(&self, device: &Device, iip: IipId, salt: u64) -> Result<bool> {
        // Pick an affiliate app that integrates this platform's wall.
        let catalog = AffiliateApp::table2_catalog();
        let Some(affiliate) = catalog.iter().find(|a| a.integrated_iips().contains(&iip)) else {
            return Ok(false);
        };
        let host = AffiliateApp::wall_host(iip);
        let mut client = HttpClient::new(
            self.net.clone(),
            device.addr,
            self.roots.clone(),
            self.seed.fork_idx("browse", device.id.raw() ^ salt),
        );
        for page in 0..50 {
            let url = format!(
                "https://{host}/offers?affiliate={}&page={page}",
                affiliate.package.as_str()
            );
            let resp = match client.get(&url) {
                Ok(r) if r.is_success() => r,
                _ => return Ok(false),
            };
            let Ok(body) = resp.body_json() else {
                return Ok(false);
            };
            if json_mentions(&body, HONEY_PACKAGE) {
                return Ok(true);
            }
            // Pages with no offer entries are tiny (the bare envelope
            // stays well under 120 bytes in every wall dialect):
            // reaching one means the scroll is exhausted.
            if resp.body.len() < 120 {
                return Ok(false);
            }
        }
        Ok(false)
    }

    fn execute_plan(
        &self,
        device: &Device,
        tag: &str,
        plan: &ExecutionPlan,
        install_at: SimTime,
        suspicious: bool,
        salt: u64,
    ) -> Result<()> {
        if !plan.opens_app {
            return Ok(());
        }
        let mut rng = self.seed.fork_idx("open-delay", salt).rng();
        let open_at = install_at + SimDuration::from_secs(10 + rng.gen_range(0..110));
        self.net.clock().advance_to(open_at);
        self.try_upload(device, TelemetryEvent::Open, open_at)?;
        self.mediator
            .track(tag, device.id, ConversionEvent::Opened, open_at, suspicious)?;
        let session_secs = plan.work_secs.clamp(20, 900);
        self.store
            .record_session(self.honey_app, open_at, session_secs)?;
        if plan.extra_engagement {
            let click_at = open_at + SimDuration::from_secs(5);
            self.try_upload(device, TelemetryEvent::RecordClick, click_at)?;
        }
        Ok(())
    }

    /// An upload the campaign survives losing: a network-level failure
    /// (retries exhausted, stalled exchange, outage) only means this
    /// device's telemetry never lands — exactly what §3.2 measured as
    /// the telemetry gap. Any other failure class still aborts.
    fn try_upload(&self, device: &Device, event: TelemetryEvent, at: SimTime) -> Result<()> {
        match self.upload(device, event, at) {
            Err(Error::Network(_)) => {
                self.net.chaos().add_uploads_abandoned(1);
                Ok(())
            }
            other => other,
        }
    }

    /// One telemetry upload over the real simulated network path
    /// (TLS handshake, HTTP POST, fault plan and all).
    fn upload(&self, device: &Device, event: TelemetryEvent, at: SimTime) -> Result<()> {
        self.net.clock().advance_to(at);
        let mut client = HttpClient::new(
            self.net.clone(),
            device.addr,
            self.roots.clone(),
            self.seed.fork_idx("upload", device.id.raw()),
        );
        let payload = telemetry_payload(device, device.id.raw(), event);
        let resp = client.post_json(&self.collector_url, &payload)?;
        if resp.status == 204 {
            Ok(())
        } else {
            Err(Error::Network(format!(
                "collector answered {} for {}",
                resp.status, device.id
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use iiscope_devices::population::{standard_registry, IipAudience};
    use iiscope_devices::IipBehaviorProfile;
    use iiscope_iip::DeveloperApplication;
    use iiscope_playstore::apk::ApkInfo;
    use iiscope_types::{Country, Genre};
    use iiscope_wire::server::HttpsFactory;
    use iiscope_wire::tls::{CertAuthority, ServerIdentity};
    use std::net::Ipv4Addr;

    struct Rig {
        driver: CampaignDriver,
        platform: Arc<IipPlatform>,
        audience: IipAudience,
        collector: Collector,
    }

    fn rig(iip: IipId, n_workers: usize) -> Rig {
        let seed = SeedFork::new(2020);
        let net = Network::new(seed.fork("net"));
        let store = Arc::new(PlayStore::new(seed.fork("store")));
        let dev = store.register_developer(
            "iiscope research",
            Country::Us,
            "research@iiscope.net",
            None,
        );
        let honey_app = store
            .publish(
                PackageName::new(HONEY_PACKAGE).unwrap(),
                crate::app::HONEY_TITLE,
                dev,
                Genre::Tools,
                SimTime::EPOCH,
                ApkInfo::bare(),
            )
            .unwrap();

        // PKI + collector service.
        let mut ca = CertAuthority::new("iiscope Public CA", seed.fork("ca"));
        let mut roots = TrustStore::new();
        roots.install_root(ca.root_cert());
        let collector = Collector::new();
        let identity = ServerIdentity::issue(&mut ca, "collector.iiscope", seed.fork("col-id"));
        let ip = Ipv4Addr::new(10, 10, 0, 1);
        net.bind(
            ip,
            443,
            Arc::new(HttpsFactory::new(
                Arc::new(collector.clone()),
                identity,
                seed.fork("col-tls"),
            )),
        )
        .unwrap();
        net.register_host("collector.iiscope", ip);

        // Platform + our account + its offer wall (workers browse it
        // to find the offer).
        let platform = Arc::new(IipPlatform::new(iip, seed.fork("iip")));
        let developer = DeveloperId(777);
        platform
            .register_developer(&DeveloperApplication {
                developer,
                has_tax_id: true,
                has_bank_account: true,
                deposit: Usd::from_dollars(5_000),
            })
            .unwrap();
        let wall = iiscope_iip::OfferWallHandler::new(Arc::clone(&platform));
        for app in iiscope_devices::AffiliateApp::table2_catalog() {
            wall.register_affiliate(app.package.as_str(), app.points_per_dollar);
        }
        let wall_host = iiscope_devices::AffiliateApp::wall_host(iip);
        let wall_identity = ServerIdentity::issue(&mut ca, &wall_host, seed.fork("wall-id"));
        let wall_ip = Ipv4Addr::new(10, 10, 0, 2);
        net.bind(
            wall_ip,
            443,
            Arc::new(HttpsFactory::new(
                Arc::new(wall),
                wall_identity,
                seed.fork("wall-tls"),
            )),
        )
        .unwrap();
        net.register_host(&wall_host, wall_ip);

        // Audience.
        let mut registry = standard_registry();
        let audience = IipAudience::generate(
            &IipBehaviorProfile::for_iip(iip),
            n_workers,
            &mut registry,
            seed.fork("aud"),
            1,
        );

        let mediator = Arc::new(Mediator::new("appsflyer.iiscope"));
        Rig {
            driver: CampaignDriver {
                net,
                store,
                honey_app,
                developer,
                mediator,
                roots,
                collector_url: "https://collector.iiscope/v1/telemetry".into(),
                seed: seed.fork("driver"),
            },
            platform,
            audience,
            collector,
        }
    }

    #[test]
    fn small_fyber_campaign_end_to_end() {
        let r = rig(IipId::Fyber, 80);
        let outcome = r
            .driver
            .run(
                &r.platform,
                &r.audience,
                40,
                Usd::from_cents(6),
                iiscope_types::time::study::STUDY_START,
            )
            .unwrap();
        assert_eq!(outcome.purchased, 40);
        assert_eq!(outcome.installs_delivered, 50, "25% over-delivery");
        assert!(outcome.completions_paid <= 40);
        assert!(
            outcome.completions_paid >= 30,
            "{}",
            outcome.completions_paid
        );
        // Telemetry arrived over the wire for nearly every install.
        assert!(
            r.collector.distinct_installs() >= 44,
            "{}",
            r.collector.distinct_installs()
        );
        // Play recorded the installs under the campaign tag.
        let report = r.driver.store.acquisition_report(
            r.driver.honey_app,
            iiscope_types::time::study::STUDY_START,
            outcome.finished_at + SimDuration::from_days(3),
        );
        assert_eq!(report.tagged(&outcome.tag), 50);
        assert_eq!(report.organic, 0, "no organic contamination (§3.2 check)");
    }

    #[test]
    fn rankapp_campaign_loses_telemetry_and_time() {
        let r = rig(IipId::RankApp, 60); // farm-heavy: plenty of devices
        let outcome = r
            .driver
            .run(
                &r.platform,
                &r.audience,
                100,
                Usd::from_cents(2),
                iiscope_types::time::study::STUDY_START,
            )
            .unwrap();
        assert_eq!(outcome.installs_delivered, 101);
        let gap = outcome.installs_delivered as f64 - r.collector.distinct_installs() as f64;
        let gap_rate = gap / outcome.installs_delivered as f64;
        assert!(
            (0.25..=0.70).contains(&gap_rate),
            "telemetry gap {gap_rate} should be large for RankApp"
        );
        // >24h delivery for a full 500 purchase; scale: 100 installs
        // should still take >5h at RankApp's rate.
        assert!(outcome.delivery_duration() > SimDuration::from_hours(5));
    }

    #[test]
    fn fyber_delivers_fast() {
        let r = rig(IipId::Fyber, 80);
        let outcome = r
            .driver
            .run(
                &r.platform,
                &r.audience,
                40,
                Usd::from_cents(6),
                iiscope_types::time::study::STUDY_START,
            )
            .unwrap();
        // 40 installs at ~500/hour: minutes, not days.
        assert!(outcome.delivery_duration() < SimDuration::from_hours(2));
    }

    #[test]
    fn audience_too_small_is_an_error() {
        let r = rig(IipId::Fyber, 3);
        let err = r
            .driver
            .run(
                &r.platform,
                &r.audience,
                500,
                Usd::from_cents(6),
                SimTime::EPOCH,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_state");
    }
}
