//! World construction: every subsystem wired together, deterministically.

use crate::config::WorldConfig;
use crate::servefront::{WorldRouter, WorldVersion};
use crate::wildgen::{self, WildPlan};
use iiscope_analysis::{CompanyRecord, CrunchbaseDb, FundingRound, RoundKind};
use iiscope_attribution::Mediator;
use iiscope_devices::population::{standard_registry, vpn_asn};
use iiscope_devices::{AffiliateApp, IipAudience, IipBehaviorProfile};
use iiscope_honeyapp::{Collector, HONEY_PACKAGE, HONEY_TITLE};
use iiscope_iip::{DeveloperApplication, IipPlatform, OfferWallHandler};
use iiscope_monitor::{Crawler, MonitoringInfra};
use iiscope_netsim::{AsnId, AsnRegistry, HostAddr, Network};
use iiscope_playstore::apk::{AdLibrary, ApkInfo};
use iiscope_playstore::frontend::StoreFrontend;
use iiscope_playstore::PlayStore;
use iiscope_types::rng::{chance, sample_k};
use iiscope_types::time::study;
use iiscope_types::{
    AppId, Country, DeveloperId, Genre, IipId, Interner, PackageName, Result, SeedFork,
    SimDuration, SimTime, SymMap, Usd,
};
use iiscope_wire::server::HttpsFactory;
use iiscope_wire::tls::{CertAuthority, MitmProxy, ServerIdentity, TrustStore};
use parking_lot::Mutex;
use rand::Rng;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Organic (background) activity rates of one app.
#[derive(Debug, Clone, Copy)]
pub struct OrganicProfile {
    /// New installs per day.
    pub installs_daily: f64,
    /// Sessions per day.
    pub sessions_daily: f64,
    /// Average session length (seconds).
    pub session_secs: u64,
    /// Revenue per day.
    pub revenue_daily: Usd,
    /// Star ratings posted per day.
    pub ratings_daily: f64,
    /// The app's long-run average star rating (1.0–5.0).
    pub avg_stars: f64,
}

/// Handles for the honey-app apparatus.
#[derive(Debug, Clone)]
pub struct HoneySetup {
    /// The published app.
    pub app: AppId,
    /// Our research developer account (registered on every IIP).
    pub developer: DeveloperId,
    /// Telemetry endpoint.
    pub collector_url: String,
}

/// The fully-built world.
pub struct World {
    /// Build configuration.
    pub cfg: WorldConfig,
    /// Seed tree root.
    pub seed: SeedFork,
    /// The network.
    pub net: Network,
    /// The Play Store.
    pub store: Arc<PlayStore>,
    /// IIP platforms.
    pub platforms: BTreeMap<IipId, Arc<IipPlatform>>,
    /// Offer-wall handlers (affiliate registration lives here).
    pub walls: BTreeMap<IipId, Arc<OfferWallHandler>>,
    /// Genuine leaf public key per wall (for the pinning ablation).
    pub wall_keys: BTreeMap<IipId, u64>,
    /// The attribution mediator.
    pub mediator: Arc<Mediator>,
    /// The honey-app telemetry collector.
    pub collector: Collector,
    /// The §4.1 monitoring rig.
    pub infra: MonitoringInfra,
    /// Genuine trust roots (no monitor CA).
    pub genuine_roots: TrustStore,
    /// The Crunchbase snapshot.
    pub crunchbase: CrunchbaseDb,
    /// The generated population plan (ground truth for calibration
    /// tests; experiments must go through crawled/milked data).
    pub plan: WildPlan,
    /// Package-name symbol table, numbered in generation order (honey
    /// app, then planned apps, then baseline). The wild study seeds
    /// its [`iiscope_monitor::Dataset`] from a clone of this, so world
    /// and dataset agree on every planned package's symbol.
    pub syms: Interner,
    /// Published app ids by package symbol.
    pub app_ids: SymMap<AppId>,
    /// Store developer ids by package symbol.
    pub dev_ids: SymMap<DeveloperId>,
    /// Per-app organic activity rates.
    pub organic: BTreeMap<AppId, OrganicProfile>,
    /// Honey-app handles.
    pub honey: HoneySetup,
    /// The researchers' crawl egress.
    pub crawler_from: HostAddr,
    /// Shared address registry (honey audiences allocate from it).
    pub registry: Mutex<AsnRegistry>,
    /// The monitored affiliate apps (Table 2).
    pub affiliate_apps: Vec<AffiliateApp>,
    /// Served-state version: the wild study bumps it as each sim day
    /// advances, invalidating any day-versioned response caches handed
    /// out by [`World::serve_router`].
    pub day_version: WorldVersion,
}

impl World {
    /// Builds a world from the configuration. Pure function of the
    /// seed: two builds with the same config are identical.
    pub fn build(cfg: WorldConfig) -> Result<World> {
        let seed = SeedFork::new(cfg.seed);
        let net = Network::new(seed.fork("net"));
        // Long runs would hoard every ciphertext segment otherwise.
        net.capture().set_enabled(false);

        let mut registry = standard_registry();
        let mut ca = CertAuthority::new("iiscope Public CA", seed.fork("public-ca"));
        let mut genuine_roots = TrustStore::new();
        genuine_roots.install_root(ca.root_cert());

        // --- Play Store -------------------------------------------------
        let store = Arc::new(PlayStore::new(seed.fork("store")));
        store.set_enforcement(cfg.enforcement.clone());
        store.set_ranking(cfg.ranking);
        let play_ip = Ipv4Addr::new(10, 100, 0, 1);
        net.bind(
            play_ip,
            443,
            Arc::new(HttpsFactory::new(
                Arc::new(StoreFrontend::new(Arc::clone(&store))),
                ServerIdentity::issue(&mut ca, "play.iiscope", seed.fork("play-id")),
                seed.fork("play-tls"),
            )),
        )?;
        net.register_host("play.iiscope", play_ip);

        // --- Collector ---------------------------------------------------
        let collector = Collector::new();
        let collector_ip = Ipv4Addr::new(10, 100, 0, 2);
        net.bind(
            collector_ip,
            443,
            Arc::new(HttpsFactory::new(
                Arc::new(collector.clone()),
                ServerIdentity::issue(&mut ca, "collector.iiscope", seed.fork("col-id")),
                seed.fork("col-tls"),
            )),
        )?;
        net.register_host("collector.iiscope", collector_ip);

        // --- IIP platforms + walls ---------------------------------------
        let affiliate_apps = AffiliateApp::table2_catalog();
        let mut platforms = BTreeMap::new();
        let mut walls = BTreeMap::new();
        let mut wall_keys = BTreeMap::new();
        for (i, iip) in IipId::ALL.into_iter().enumerate() {
            let platform = Arc::new(IipPlatform::new(iip, seed.fork("iip").fork(iip.name())));
            let wall = Arc::new(OfferWallHandler::new(Arc::clone(&platform)));
            for app in &affiliate_apps {
                wall.register_affiliate(app.package.as_str(), app.points_per_dollar);
            }
            let host = AffiliateApp::wall_host(iip);
            let identity =
                ServerIdentity::issue(&mut ca, &host, seed.fork("wall-id").fork(iip.name()));
            wall_keys.insert(iip, identity.keys.public);
            let ip = Ipv4Addr::new(10, 101, 0, 10 + i as u8);
            net.bind(
                ip,
                443,
                Arc::new(HttpsFactory::new(
                    Arc::clone(&wall) as Arc<dyn iiscope_wire::Handler>,
                    identity,
                    seed.fork("wall-tls").fork(iip.name()),
                )),
            )?;
            net.register_host(&host, ip);
            platforms.insert(iip, platform);
            walls.insert(iip, wall);
        }

        // --- MITM proxy + monitoring rig ----------------------------------
        let proxy = MitmProxy::new(net.clone(), genuine_roots.clone(), 443, seed.fork("mitm"));
        let intercepts = proxy.intercepts();
        let mitm_root = proxy.root_cert();
        let proxy_ip = Ipv4Addr::new(10, 102, 0, 1);
        net.bind(proxy_ip, 3128, Arc::new(proxy))?;
        let mut phone_roots = genuine_roots.clone();
        phone_roots.install_root(mitm_root);
        let mut vantage_addrs = BTreeMap::new();
        for c in &cfg.milk_countries {
            let asn = vpn_asn(*c).ok_or_else(|| {
                iiscope_types::Error::InvalidState(format!("{c} is not a vantage country"))
            })?;
            vantage_addrs.insert(*c, registry.alloc_host_fresh_block(asn)?);
        }
        let pins = if cfg.walls_pin_certificates {
            IipId::ALL
                .into_iter()
                .map(|iip| (AffiliateApp::wall_host(iip), wall_keys[&iip]))
                .collect()
        } else {
            Vec::new()
        };
        let infra = MonitoringInfra {
            net: net.clone(),
            proxy: (proxy_ip, 3128),
            intercepts,
            phone_roots,
            vantage_addrs,
            pins,
            seed: seed.fork("infra"),
        };

        // --- Honey app -----------------------------------------------------
        let mut syms = Interner::new();
        syms.intern(HONEY_PACKAGE);
        let honey_dev = store.register_developer(
            "iiscope research",
            Country::Us,
            "research@iiscope.net",
            Some("https://iiscope.net".into()),
        );
        let honey_app = store.publish(
            PackageName::new(HONEY_PACKAGE).expect("valid"),
            HONEY_TITLE,
            honey_dev,
            Genre::Tools,
            SimTime::from_days(study::STUDY_START.days().saturating_sub(20)),
            ApkInfo::bare(),
        )?;
        // Register our account with every platform (the paper shared
        // billing information with the vetted ones).
        for platform in platforms.values() {
            platform.register_developer(&DeveloperApplication {
                developer: honey_dev,
                has_tax_id: true,
                has_bank_account: true,
                deposit: platform.profile.min_deposit + Usd::from_dollars(500),
            })?;
        }

        // --- Population ------------------------------------------------------
        let plan = wildgen::generate(&cfg, seed.fork("plan"));
        let mut app_ids = SymMap::default();
        let mut dev_ids = SymMap::default();
        let mut organic = BTreeMap::new();
        let mut crunchbase = CrunchbaseDb::new();
        let mut rng = seed.fork("world-build").rng();

        for app in &plan.apps {
            let dev = store.register_developer(
                app.developer_name.clone(),
                app.developer_country,
                format!("contact@{}.example", app.package.as_str().replace('.', "-")),
                app.developer_website.clone(),
            );
            let apk = build_apk(
                app.ad_library_count,
                app.obfuscation,
                app.has_activity_offer(),
                &mut rng,
            );
            let id = store.publish(
                app.package.clone(),
                app.title.clone(),
                dev,
                app.genre,
                app.released,
                apk,
            )?;
            let sym = syms.intern(app.package.as_str());
            app_ids.insert(sym, id);
            dev_ids.insert(sym, dev);
            let mut org = organic_profile(app.pre_installs, app.genre, &mut rng);
            if app.package.as_str() == crate::wildgen::CASE_STUDY_TREBEL
                || app.package.as_str() == crate::wildgen::CASE_STUDY_WOF
            {
                // The case studies must owe their chart debut to the
                // campaign, not to organic traffic.
                org.sessions_daily *= 0.3;
                org.revenue_daily = Usd::ZERO;
            }
            organic.insert(id, org);
            // Pre-study install base.
            store_bulk_installs(&store, id, app.released, app.pre_installs);

            // Crunchbase record.
            if app.crunchbase_matched {
                let campaign_end = study::STUDY_START
                    + SimDuration::from_days(
                        app.campaigns.iter().map(|c| c.end_day()).max().unwrap_or(0),
                    );
                crunchbase.insert(company_for(
                    &app.developer_name,
                    app.developer_website.as_deref(),
                    app.developer_country,
                    app.raises_funding,
                    app.is_public_company,
                    campaign_end,
                    &mut rng,
                ));
            }

            // Register the developer on each platform it advertises on,
            // with enough deposit to escrow every offer. Caps are
            // multiplied by `scale` at campaign start, so the escrow
            // deposit must cover the scaled spend.
            for campaign in &app.campaigns {
                let scale = cfg.scale.max(1);
                let budget: Usd = campaign
                    .offers
                    .iter()
                    .map(|o| o.payout * o.cap.saturating_mul(scale) as i64)
                    .sum();
                let platform = &platforms[&campaign.iip];
                platform.register_developer(&DeveloperApplication {
                    developer: dev,
                    has_tax_id: true,
                    has_bank_account: true,
                    deposit: budget + platform.profile.min_deposit + Usd::from_dollars(10),
                })?;
            }
        }

        for b in &plan.baseline {
            let dev = store.register_developer(
                b.developer_name.clone(),
                b.developer_country,
                format!("contact@{}.example", b.package.as_str().replace('.', "-")),
                b.developer_website.clone(),
            );
            let apk = build_apk(b.ad_library_count, b.obfuscation, false, &mut rng);
            let id = store.publish(
                b.package.clone(),
                b.title.clone(),
                dev,
                b.genre,
                b.released,
                apk,
            )?;
            let sym = syms.intern(b.package.as_str());
            app_ids.insert(sym, id);
            dev_ids.insert(sym, dev);
            organic.insert(id, organic_profile(b.pre_installs, b.genre, &mut rng));
            store_bulk_installs(&store, id, b.released, b.pre_installs);
            if b.crunchbase_matched {
                crunchbase.insert(company_for(
                    &b.developer_name,
                    b.developer_website.as_deref(),
                    b.developer_country,
                    b.raises_funding,
                    false,
                    study::STUDY_START + SimDuration::from_days(10),
                    &mut rng,
                ));
            }
        }

        let crawler_from = registry.alloc_host_fresh_block(AsnId(16_509))?;

        Ok(World {
            cfg,
            seed,
            net,
            store,
            platforms,
            walls,
            wall_keys,
            mediator: Arc::new(Mediator::new("appsflyer.iiscope")),
            collector,
            infra,
            genuine_roots,
            crunchbase,
            plan,
            syms,
            app_ids,
            dev_ids,
            organic,
            honey: HoneySetup {
                app: honey_app,
                developer: honey_dev,
                collector_url: "https://collector.iiscope/v1/telemetry".into(),
            },
            crawler_from,
            registry: Mutex::new(registry),
            affiliate_apps,
            day_version: WorldVersion::new(),
        })
    }

    /// Published app id by package name.
    pub fn app_id(&self, package: &str) -> Option<AppId> {
        self.app_ids.get(self.syms.get(package)?).copied()
    }

    /// Store developer id by package name.
    pub fn dev_id(&self, package: &str) -> Option<DeveloperId> {
        self.dev_ids.get(self.syms.get(package)?).copied()
    }

    /// A fresh crawler client (researchers' machine, genuine roots).
    pub fn crawler(&self) -> Crawler {
        self.crawler_on(self.seed.fork("crawler"))
    }

    /// A crawler with a labelled per-index RNG fork, its own connection
    /// and seed stream (the benchmark's monitor probe times one per
    /// profile). The wild study crawls in chunks instead
    /// ([`World::crawl_profiles`]).
    pub fn crawler_indexed(&self, idx: u64) -> Crawler {
        self.crawler_on(self.seed.fork("crawler").fork_idx("worker", idx))
    }

    /// A crawler client on the given seed lineage.
    pub(crate) fn crawler_on(&self, seed: SeedFork) -> Crawler {
        Crawler::new(
            self.net.clone(),
            self.crawler_from,
            self.genuine_roots.clone(),
            "play.iiscope",
            seed,
        )
    }

    /// Generates a worker audience for one platform (honey campaigns).
    /// Sharded by `cfg.shards`: each shard draws from its own seed
    /// stream and allocates device ids in its own namespace, so the
    /// audience is a pure function of `(seed, shards)` — never of the
    /// worker count that later simulates it. `shards = 1` reproduces
    /// the legacy single-stream audience bit-for-bit.
    pub fn audience_for(&self, iip: IipId, n_workers: usize) -> IipAudience {
        let mut registry = self.registry.lock();
        IipAudience::generate_sharded(
            &IipBehaviorProfile::for_iip(iip),
            n_workers,
            &mut registry,
            self.seed.fork("audience").fork(iip.name()),
            1_000_000 + (iip as usize as u64) * 1_000_000,
            self.cfg.shards,
        )
    }

    /// The world's public HTTP surface as one path-multiplexed
    /// handler — what `repro --serve` binds to a real socket. Store
    /// routes pass through verbatim; walls mount at
    /// `/wall/<slug>/offers`. Every dispatch is a pure read, so a
    /// server hammering these mid-run cannot perturb determinism —
    /// which also makes rendered responses cacheable: this router
    /// retains them under [`World::day_version`] and serves hits as
    /// cheap `Bytes` clones until the sim advances a day.
    pub fn serve_router(&self) -> Arc<WorldRouter> {
        Arc::new(WorldRouter::new_cached(
            StoreFrontend::new(Arc::clone(&self.store)),
            self.walls.clone(),
            self.day_version.clone(),
        ))
    }

    /// [`World::serve_router`] without the response cache — the A/B
    /// baseline for `repro --serve-cache off` and the load harness's
    /// before/after numbers.
    pub fn serve_router_uncached(&self) -> Arc<WorldRouter> {
        Arc::new(WorldRouter::new(
            StoreFrontend::new(Arc::clone(&self.store)),
            self.walls.clone(),
        ))
    }

    /// The study start instant.
    pub fn study_start(&self) -> SimTime {
        study::STUDY_START
    }

    /// The study end instant under this configuration.
    pub fn study_end(&self) -> SimTime {
        study::STUDY_START + SimDuration::from_days(self.cfg.monitoring_days)
    }
}

fn store_bulk_installs(store: &PlayStore, id: AppId, released: SimTime, n: u64) {
    if n > 0 {
        // Ledger-level bulk record; uses the store's session API shape.
        store.record_organic_installs(id, released, n);
    }
}

fn build_apk(count: usize, obfuscation: f64, activity_app: bool, rng: &mut impl Rng) -> ApkInfo {
    let mut libs: Vec<AdLibrary> = sample_k(rng, AdLibrary::ALL, count.min(AdLibrary::ALL.len()));
    // Activity-offer apps skew toward offer-wall-capable SDKs
    // (§4.3.2: "We also find advertisers that serve the role of IIP").
    if activity_app && !libs.iter().any(|l| l.is_offerwall_vendor()) && chance(rng, 0.5) {
        libs.push(AdLibrary::FyberSdk);
    }
    let dynamic = if chance(rng, 0.15) {
        sample_k(rng, AdLibrary::ALL, 1)
    } else {
        Vec::new()
    };
    ApkInfo {
        ad_libraries: libs,
        obfuscation,
        dynamic_libraries: dynamic,
    }
}

fn organic_profile(pre_installs: u64, genre: Genre, rng: &mut impl Rng) -> OrganicProfile {
    let p = pre_installs as f64;
    let installs_daily = p.powf(0.52) * 0.04 * (0.5 + rng.gen::<f64>());
    // Sub-linear enough that a campaign's engagement burst is material
    // for apps near the chart line (the mechanism behind Figure 5 and
    // Table 6).
    let sessions_daily = p.powf(0.48) * 0.45 * (0.5 + rng.gen::<f64>());
    let revenue_daily = if genre.is_game() && chance(rng, 0.5) {
        Usd::from_micros((p.powf(0.5) * 0.04 * 1e6) as i64)
    } else {
        Usd::ZERO
    };
    OrganicProfile {
        installs_daily,
        sessions_daily,
        session_secs: 120 + (rng.gen::<f64>() * 240.0) as u64,
        revenue_daily,
        // Roughly half a percent of installers leave a rating.
        ratings_daily: installs_daily * 0.12,
        avg_stars: 3.2 + rng.gen::<f64>() * 1.6,
    }
}

fn company_for(
    name: &str,
    website: Option<&str>,
    country: Country,
    raises_after: bool,
    is_public: bool,
    campaign_end: SimTime,
    rng: &mut impl Rng,
) -> CompanyRecord {
    let mut rounds = Vec::new();
    // Many companies have a historic round well before the study.
    if chance(rng, 0.6) {
        rounds.push(FundingRound {
            at: SimTime::from_days(rng.gen_range(100..1_200)),
            kind: RoundKind::Seed,
            amount: Usd::from_dollars(rng.gen_range(200_000..3_000_000)),
            investor: "Seed Partners".into(),
        });
    }
    if raises_after {
        let kinds = [
            RoundKind::SeriesA,
            RoundKind::SeriesB,
            RoundKind::SeriesC,
            RoundKind::SeriesD,
            RoundKind::SeriesF,
        ];
        rounds.push(FundingRound {
            at: campaign_end + SimDuration::from_days(rng.gen_range(5..45)),
            kind: kinds[rng.gen_range(0..kinds.len())],
            amount: Usd::from_dollars(rng.gen_range(5_000_000..120_000_000)),
            investor: "Growth Capital LLC".into(),
        });
    }
    rounds.sort_by_key(|r| r.at);
    CompanyRecord {
        name: name.to_string(),
        website: website.map(str::to_string),
        country,
        is_public,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorldConfig;

    #[test]
    fn small_world_builds_and_serves() {
        let world = World::build(WorldConfig::small(3)).unwrap();
        assert_eq!(world.plan.apps.len(), 90);
        assert_eq!(world.platforms.len(), 7);
        // The store frontend answers over the network.
        let mut crawler = world.crawler();
        let pkg = world.plan.apps[5].package.as_str();
        let snap = crawler
            .profile(pkg, world.study_start())
            .unwrap()
            .expect("published app");
        assert_eq!(snap.package, pkg);
        // Baseline profile too.
        let b = world.plan.baseline[0].package.as_str();
        assert!(crawler.profile(b, world.study_start()).unwrap().is_some());
        // Honey app exists.
        assert!(crawler
            .profile(HONEY_PACKAGE, world.study_start())
            .unwrap()
            .is_some());
    }

    #[test]
    fn build_is_deterministic() {
        let a = World::build(WorldConfig::small(9)).unwrap();
        let b = World::build(WorldConfig::small(9)).unwrap();
        assert_eq!(a.app_ids, b.app_ids);
        let pkg = a.plan.apps[3].package.clone();
        assert_eq!(
            a.store.profile(&pkg).unwrap().installs,
            b.store.profile(&pkg).unwrap().installs
        );
    }

    #[test]
    fn crunchbase_matches_planned_developers() {
        let world = World::build(WorldConfig::small(4)).unwrap();
        for app in &world.plan.apps {
            let matched = world
                .crunchbase
                .match_developer(&app.developer_name, app.developer_website.as_deref())
                .is_some();
            assert_eq!(matched, app.crunchbase_matched, "{}", app.package);
        }
    }

    #[test]
    fn pinning_config_populates_infra_pins() {
        let mut cfg = WorldConfig::small(5);
        cfg.walls_pin_certificates = true;
        let world = World::build(cfg).unwrap();
        assert_eq!(world.infra.pins.len(), 7);
        let unpinned = World::build(WorldConfig::small(5)).unwrap();
        assert!(unpinned.infra.pins.is_empty());
    }
}
