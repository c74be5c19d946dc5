//! The Play Store facade: catalog + ledgers + charts + enforcement
//! behind one thread-safe handle.

use crate::apk::ApkInfo;
use crate::catalog::{AppProfile, AppRecord, Catalog, DeveloperRecord};
use crate::charts::{self, ChartEntry, ChartKind, ChartRanking};
use crate::console::{acquisition_report, AcquisitionReport};
use crate::engagement::{EngagementLedger, InstallSignals};
use crate::policy::{self, EnforcementConfig};
use iiscope_types::spillfile::{SpillError, SpillFile};
use iiscope_types::{
    AppId, Country, DeveloperId, Error, Genre, PackageName, Result, SeedFork, SimTime, Usd,
};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Where an install came from, as seen by attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallSource {
    /// Store search / charts / browsing.
    Organic,
    /// A tracking link with an attribution tag (campaign installs).
    /// The tag is shared, so a campaign's installs reuse one copy.
    Tagged(Arc<str>),
}

impl InstallSource {
    fn tag(&self) -> &str {
        match self {
            InstallSource::Organic => "",
            InstallSource::Tagged(t) => t,
        }
    }
}

/// Days of trailing activity considered by chart ranking.
pub const CHART_WINDOW_DAYS: u64 = 7;

/// Play-internal observables for one app, aggregated for detection
/// models (see [`PlayStore::detector_snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorSnapshot {
    /// Public (post-filter) install count, including organic bulk.
    pub total_installs: u64,
    /// Installs with per-event records (campaign-attributed traffic).
    pub event_installs: u64,
    /// Event installs with hard fraud signals.
    pub suspicious_installs: u64,
    /// Largest number of event installs sharing one /24.
    pub max_block_installs: u64,
    /// Distinct /24 blocks across event installs.
    pub distinct_blocks: u64,
    /// Daily install counts over the event window (≤ 400 days).
    pub daily_installs: Vec<u64>,
    /// Total sessions over that window.
    pub sessions: u64,
    /// Total session seconds over that window.
    pub session_secs: u64,
}

/// The install events of a store's ledgers and where they live (see
/// [`PlayStore::install_ledger_footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerFootprint {
    /// Install events across every ledger.
    pub events: u64,
    /// Heap bytes behind them
    /// ([`EngagementLedger::install_heap_bytes`]).
    pub heap_bytes: u64,
    /// Chunks of install rows sealed to the store's [`SpillFile`].
    pub spilled_chunks: u64,
    /// Bytes written to that file.
    pub spilled_bytes: u64,
}

struct Inner {
    catalog: Catalog,
    ledgers: BTreeMap<AppId, EngagementLedger>,
    enforcement: EnforcementConfig,
    ranking: ChartRanking,
    next_app: u64,
    next_dev: u64,
}

/// The store. Clone-free: share via `Arc<PlayStore>`.
pub struct PlayStore {
    inner: RwLock<Inner>,
    seed: SeedFork,
    /// Where the ledgers seal full chunks of install rows; unset, they
    /// keep every chunk in memory.
    seal: OnceLock<Arc<SpillFile>>,
}

impl PlayStore {
    /// Creates an empty store.
    pub fn new(seed: SeedFork) -> PlayStore {
        PlayStore {
            inner: RwLock::new(Inner {
                catalog: Catalog::new(),
                ledgers: BTreeMap::new(),
                enforcement: EnforcementConfig::default(),
                ranking: ChartRanking::EngagementWeighted,
                next_app: 1,
                next_dev: 1,
            }),
            seed,
            seal: OnceLock::new(),
        }
    }

    /// Seals every ledger's full chunks of install rows, those already
    /// recorded first, then each as it fills, into one scratch
    /// [`SpillFile`] in `dir`, `<label>-installs-<pid>-<n>.spill`. A
    /// store seals into one file for its life: a later call changes
    /// nothing.
    pub fn seal_installs_to(&self, dir: &Path, label: &str) {
        let file = self
            .seal
            .get_or_init(|| Arc::new(SpillFile::scratch(dir, &format!("{label}-installs"))));
        for ledger in self.inner.write().ledgers.values_mut() {
            ledger.seal_into(file);
        }
    }

    /// The first failed create or write of the store's install-row
    /// file, if any. Every chunk it could not take stays in memory.
    pub fn install_spill_error(&self) -> Option<&SpillError> {
        self.seal.get()?.error()
    }

    // -----------------------------------------------------------------
    // Publishing
    // -----------------------------------------------------------------

    /// Creates a developer account.
    pub fn register_developer(
        &self,
        name: impl Into<String>,
        country: Country,
        email: impl Into<String>,
        website: Option<String>,
    ) -> DeveloperId {
        let mut inner = self.inner.write();
        let id = DeveloperId(inner.next_dev);
        inner.next_dev += 1;
        inner
            .catalog
            .register_developer(DeveloperRecord {
                id,
                name: name.into(),
                country,
                email: email.into(),
                website,
            })
            .expect("fresh id cannot collide");
        id
    }

    /// Publishes an app and returns its id.
    pub fn publish(
        &self,
        package: PackageName,
        title: impl Into<String>,
        developer: DeveloperId,
        genre: Genre,
        released: SimTime,
        apk: ApkInfo,
    ) -> Result<AppId> {
        let mut inner = self.inner.write();
        let id = AppId(inner.next_app);
        inner.catalog.publish(AppRecord {
            id,
            package,
            title: title.into(),
            developer,
            genre,
            released,
            apk,
        })?;
        inner.next_app += 1;
        let mut ledger = EngagementLedger::new();
        if let Some(file) = self.seal.get() {
            ledger.seal_into(file);
        }
        inner.ledgers.insert(id, ledger);
        Ok(id)
    }

    // -----------------------------------------------------------------
    // Event ingestion
    // -----------------------------------------------------------------

    /// Records an install.
    pub fn record_install(
        &self,
        app: AppId,
        at: SimTime,
        signals: InstallSignals,
        source: &InstallSource,
    ) -> Result<()> {
        let mut inner = self.inner.write();
        let ledger = inner
            .ledgers
            .get_mut(&app)
            .ok_or_else(|| Error::NotFound(app.to_string()))?;
        ledger.record_install(at, signals, source.tag());
        Ok(())
    }

    /// Records `n` organic installs in aggregate (no per-event record;
    /// see `EngagementLedger::record_installs_bulk`). Unknown apps are
    /// ignored (bulk feeds run before/after app lifecycles).
    pub fn record_organic_installs(&self, app: AppId, at: SimTime, n: u64) {
        if let Some(l) = self.inner.write().ledgers.get_mut(&app) {
            l.record_installs_bulk(at, n);
        }
    }

    /// Records aggregate background engagement.
    pub fn record_engagement_bulk(&self, app: AppId, at: SimTime, sessions: u64, secs: u64) {
        if let Some(l) = self.inner.write().ledgers.get_mut(&app) {
            l.record_sessions_bulk(at, sessions, secs);
        }
    }

    /// Records aggregate purchase revenue.
    pub fn record_revenue_bulk(&self, app: AppId, at: SimTime, purchases: u64, amount: Usd) {
        if let Some(l) = self.inner.write().ledgers.get_mut(&app) {
            l.record_revenue_bulk(at, purchases, amount);
        }
    }

    /// Records one star rating.
    pub fn record_rating(&self, app: AppId, stars: u8) {
        if let Some(l) = self.inner.write().ledgers.get_mut(&app) {
            l.record_rating(stars);
        }
    }

    /// Records `count` ratings totalling `total_stars` in aggregate.
    pub fn record_ratings_bulk(&self, app: AppId, count: u64, total_stars: u64) {
        if let Some(l) = self.inner.write().ledgers.get_mut(&app) {
            l.record_ratings_bulk(count, total_stars);
        }
    }

    /// Records an app session.
    pub fn record_session(&self, app: AppId, at: SimTime, secs: u64) -> Result<()> {
        let mut inner = self.inner.write();
        let ledger = inner
            .ledgers
            .get_mut(&app)
            .ok_or_else(|| Error::NotFound(app.to_string()))?;
        ledger.record_session(at, secs);
        Ok(())
    }

    /// Records an account registration.
    pub fn record_registration(&self, app: AppId, at: SimTime) -> Result<()> {
        let mut inner = self.inner.write();
        let ledger = inner
            .ledgers
            .get_mut(&app)
            .ok_or_else(|| Error::NotFound(app.to_string()))?;
        ledger.record_registration(at);
        Ok(())
    }

    /// Records an in-app purchase.
    pub fn record_purchase(&self, app: AppId, at: SimTime, amount: Usd) -> Result<()> {
        let mut inner = self.inner.write();
        let ledger = inner
            .ledgers
            .get_mut(&app)
            .ok_or_else(|| Error::NotFound(app.to_string()))?;
        ledger.record_purchase(at, amount);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Public observables (what the crawler sees)
    // -----------------------------------------------------------------

    /// Public profile by package name.
    pub fn profile(&self, package: &PackageName) -> Option<AppProfile> {
        let inner = self.inner.read();
        let app = inner.catalog.app_by_package(package)?;
        let ledger = inner.ledgers.get(&app.id);
        let installs = ledger.map_or(0, |l| l.public_installs());
        let rating = ledger.and_then(|l| l.average_rating());
        let rating_count = ledger.map_or(0, |l| l.rating_count());
        inner
            .catalog
            .profile(app.id, installs, rating, rating_count)
    }

    /// App id by package.
    pub fn app_id(&self, package: &PackageName) -> Option<AppId> {
        self.inner
            .read()
            .catalog
            .app_by_package(package)
            .map(|a| a.id)
    }

    /// Package by app id.
    pub fn package_of(&self, app: AppId) -> Option<PackageName> {
        self.inner
            .read()
            .catalog
            .app(app)
            .map(|a| a.package.clone())
    }

    /// The exact (unbinned) public install count — internal analytics
    /// only; the crawler sees the bin via [`PlayStore::profile`].
    pub fn exact_installs(&self, app: AppId) -> u64 {
        self.inner
            .read()
            .ledgers
            .get(&app)
            .map_or(0, |l| l.public_installs())
    }

    /// Install events across every ledger, the heap bytes behind them
    /// and what is sealed to disk.
    pub fn install_ledger_footprint(&self) -> LedgerFootprint {
        let inner = self.inner.read();
        let mut f = LedgerFootprint {
            events: 0,
            heap_bytes: 0,
            spilled_chunks: 0,
            spilled_bytes: self.seal.get().map_or(0, |file| file.bytes()),
        };
        for l in inner.ledgers.values() {
            f.events += l.event_installs();
            f.heap_bytes += l.install_heap_bytes() as u64;
            f.spilled_chunks += l.sealed_chunks();
        }
        f
    }

    /// Current chart ranking for `kind` at time `now`.
    pub fn chart(&self, kind: ChartKind, now: SimTime) -> Vec<ChartEntry> {
        let inner = self.inner.read();
        let ranking = inner.ranking;
        let scored = inner.catalog.apps().filter_map(|app| {
            if !kind.eligible(app.genre) {
                return None;
            }
            let ledger = inner.ledgers.get(&app.id)?;
            let window = ledger.trailing(now, CHART_WINDOW_DAYS);
            Some((app.id, charts::score(ranking, kind, &window)))
        });
        charts::rank(scored)
    }

    /// Percentile rank of `app` on `kind` at `now` (Figure 5's y-axis).
    pub fn chart_percentile(&self, kind: ChartKind, now: SimTime, app: AppId) -> Option<f64> {
        charts::percentile(&self.chart(kind, now), app)
    }

    /// APK bytes for download/static analysis.
    pub fn apk_bytes(&self, package: &PackageName) -> Option<Vec<u8>> {
        let inner = self.inner.read();
        let app = inner.catalog.app_by_package(package)?;
        Some(app.apk.render(self.seed.fork("apk").fork(package.as_str())))
    }

    /// All published package names (world-building iterates these).
    pub fn packages(&self) -> Vec<PackageName> {
        self.inner
            .read()
            .catalog
            .apps()
            .map(|a| a.package.clone())
            .collect()
    }

    // -----------------------------------------------------------------
    // Console + policy
    // -----------------------------------------------------------------

    /// Developer-console acquisition report for `[from, to)`.
    pub fn acquisition_report(&self, app: AppId, from: SimTime, to: SimTime) -> AcquisitionReport {
        let inner = self.inner.read();
        match inner.ledgers.get(&app) {
            Some(l) => acquisition_report(l, from, to),
            None => acquisition_report(&EngagementLedger::new(), from, to),
        }
    }

    /// Replaces the enforcement configuration.
    pub fn set_enforcement(&self, cfg: EnforcementConfig) {
        self.inner.write().enforcement = cfg;
    }

    /// Replaces the chart-ranking policy (ablation knob).
    pub fn set_ranking(&self, ranking: ChartRanking) {
        self.inner.write().ranking = ranking;
    }

    /// Aggregates the Play-internal signals a detection model could
    /// legitimately see for one app (§5.2's proposal: "train machine
    /// learning models in detecting the lockstep behavior of users").
    /// Only store-side observables enter: per-event installs with
    /// network/device signals, daily volumes, engagement totals. No
    /// campaign ground truth.
    pub fn detector_snapshot(&self, app: AppId) -> Option<DetectorSnapshot> {
        let inner = self.inner.read();
        inner.ledgers.get(&app).map(detector_snapshot)
    }

    /// Runs one enforcement sweep over every app; returns total
    /// installs removed. Deterministic per (`seed`, `day`).
    pub fn enforcement_sweep(&self, now: SimTime) -> u64 {
        let mut inner = self.inner.write();
        let Inner {
            ledgers,
            enforcement,
            ..
        } = &mut *inner;
        let day = self.seed.fork_idx("enforcement", now.days());
        let mut removed = 0;
        for (id, ledger) in ledgers.iter_mut() {
            let mut rng = day.fork_idx("app", id.raw()).rng();
            removed += policy::sweep(ledger, enforcement, &mut rng);
        }
        removed
    }
}

/// [`PlayStore::detector_snapshot`] of one ledger. Blocks are counted
/// by sorting the block column of every event, filtered or not, and
/// measuring its runs.
pub fn detector_snapshot(ledger: &EngagementLedger) -> DetectorSnapshot {
    let events = ledger.install_events();
    let (first, last) = (events.clone().next(), events.clone().next_back());
    let mut blocks = Vec::with_capacity(events.len());
    let mut suspicious = 0u64;
    for e in events {
        blocks.push(e.signals.block24);
        suspicious += u64::from(e.signals.is_suspicious());
    }
    blocks.sort_unstable();
    let (mut distinct_blocks, mut max_block, mut run) = (0u64, 0u64, 0u64);
    for (i, b) in blocks.iter().enumerate() {
        if i == 0 || blocks[i - 1] != *b {
            distinct_blocks += 1;
            run = 0;
        }
        run += 1;
        max_block = max_block.max(run);
    }
    // Daily install/session series over the ledger's lifetime.
    let mut daily_installs = Vec::new();
    let mut sessions = 0u64;
    let mut session_secs = 0u64;
    if let (Some(first), Some(last)) = (first, last) {
        let (first, last) = (first.at.days(), last.at.days());
        for day in first..=last.min(first + 400) {
            let d = ledger.day(day);
            daily_installs.push(d.installs);
            sessions += d.sessions;
            session_secs += d.session_secs;
        }
    }
    DetectorSnapshot {
        total_installs: ledger.public_installs(),
        event_installs: blocks.len() as u64,
        suspicious_installs: suspicious,
        max_block_installs: max_block,
        distinct_blocks,
        daily_installs,
        sessions,
        session_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (PlayStore, AppId) {
        let store = PlayStore::new(SeedFork::new(42));
        let dev = store.register_developer("Acme", Country::Us, "acme@example.com", None);
        let app = store
            .publish(
                PackageName::new("com.acme.game").unwrap(),
                "Acme Game",
                dev,
                Genre::GamePuzzle,
                SimTime::from_days(10),
                ApkInfo::bare(),
            )
            .unwrap();
        (store, app)
    }

    #[test]
    fn publish_profile_and_bins() {
        let (store, app) = store();
        let pkg = PackageName::new("com.acme.game").unwrap();
        let p = store.profile(&pkg).unwrap();
        assert_eq!(p.installs.lower_bound(), 0);
        for _ in 0..1_200 {
            store
                .record_install(
                    app,
                    SimTime::from_days(20),
                    InstallSignals::clean(1),
                    &InstallSource::Organic,
                )
                .unwrap();
        }
        assert_eq!(store.profile(&pkg).unwrap().installs.lower_bound(), 1_000);
        assert_eq!(store.exact_installs(app), 1_200);
    }

    #[test]
    fn chart_reflects_recent_engagement_only() {
        let (store, app) = store();
        let now = SimTime::from_days(50);
        assert!(store
            .chart_percentile(ChartKind::TopGames, now, app)
            .is_none());
        for _ in 0..100 {
            store.record_session(app, now, 300).unwrap();
            store.record_registration(app, now).unwrap();
        }
        assert!(store
            .chart_percentile(ChartKind::TopGames, now, app)
            .is_some());
        // Thirty days later the activity aged out of the window.
        let later = SimTime::from_days(80);
        assert!(store
            .chart_percentile(ChartKind::TopGames, later, app)
            .is_none());
    }

    #[test]
    fn grossing_chart_needs_revenue() {
        let (store, app) = store();
        let now = SimTime::from_days(30);
        for _ in 0..500 {
            store
                .record_install(app, now, InstallSignals::clean(2), &InstallSource::Organic)
                .unwrap();
        }
        assert!(store
            .chart_percentile(ChartKind::TopGrossing, now, app)
            .is_none());
        store
            .record_purchase(app, now, Usd::from_dollars(5))
            .unwrap();
        assert!(store
            .chart_percentile(ChartKind::TopGrossing, now, app)
            .is_some());
    }

    #[test]
    fn console_report_distinguishes_tags() {
        let (store, app) = store();
        let t = SimTime::from_days(21);
        store
            .record_install(
                app,
                t,
                InstallSignals::clean(1),
                &InstallSource::Tagged("fyber-7".into()),
            )
            .unwrap();
        store
            .record_install(app, t, InstallSignals::clean(1), &InstallSource::Organic)
            .unwrap();
        let r = store.acquisition_report(app, SimTime::from_days(21), SimTime::from_days(22));
        assert_eq!(r.organic, 1);
        assert_eq!(r.tagged("fyber-7"), 1);
    }

    #[test]
    fn strict_enforcement_shows_public_decrease() {
        let (store, app) = store();
        let t = SimTime::from_days(22);
        for i in 0..700u32 {
            // Distinct /24s: genuinely organic users come from all over.
            store
                .record_install(app, t, InstallSignals::clean(i), &InstallSource::Organic)
                .unwrap();
        }
        for _ in 0..600 {
            store
                .record_install(
                    app,
                    t,
                    InstallSignals {
                        emulator: true,
                        rooted: true,
                        datacenter_asn: false,
                        block24: 999_999,
                    },
                    &InstallSource::Tagged("rankapp-1".into()),
                )
                .unwrap();
        }
        let pkg = PackageName::new("com.acme.game").unwrap();
        assert_eq!(store.profile(&pkg).unwrap().installs.lower_bound(), 1_000);
        store.set_enforcement(EnforcementConfig::strict());
        let removed = store.enforcement_sweep(SimTime::from_days(23));
        assert_eq!(removed, 600);
        // 1,300 → 700: the bin visibly dropped, §5.2's signal.
        assert_eq!(store.profile(&pkg).unwrap().installs.lower_bound(), 500);
    }

    /// The per-event `BTreeMap` count `detector_snapshot` used before
    /// it sorted the block column: the oracle for the sort.
    fn detector_snapshot_by_map(ledger: &EngagementLedger) -> DetectorSnapshot {
        let events: Vec<_> = ledger.install_events().collect();
        let mut per_block: BTreeMap<u32, u64> = BTreeMap::new();
        let mut suspicious = 0u64;
        for e in &events {
            *per_block.entry(e.signals.block24).or_default() += 1;
            suspicious += u64::from(e.signals.is_suspicious());
        }
        let mut daily_installs = Vec::new();
        let mut sessions = 0u64;
        let mut session_secs = 0u64;
        if let (Some(first), Some(last)) = (
            events.first().map(|e| e.at.days()),
            events.last().map(|e| e.at.days()),
        ) {
            for day in first..=last.min(first + 400) {
                let d = ledger.day(day);
                daily_installs.push(d.installs);
                sessions += d.sessions;
                session_secs += d.session_secs;
            }
        }
        DetectorSnapshot {
            total_installs: ledger.public_installs(),
            event_installs: events.len() as u64,
            suspicious_installs: suspicious,
            max_block_installs: per_block.values().copied().max().unwrap_or(0),
            distinct_blocks: per_block.len() as u64,
            daily_installs,
            sessions,
            session_secs,
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Random ledgers — colliding, extreme and one-off /24s, bulk
        /// organic installs, sessions, and filters by block, signal or
        /// tag — snapshot the same by sort as by map.
        #[test]
        fn detector_snapshot_matches_the_map_oracle(
            installs in prop::collection::vec(
                (0u64..500, any::<u32>(), (any::<bool>(), any::<bool>()), 0usize..3),
                0..600,
            ),
            filters in prop::collection::vec((0u8..3, 0u64..80, 0u32..8), 0..4),
            bulk in 0u64..300,
            sessions in 0u64..20,
        ) {
            const TAGS: [&str; 3] = ["", "fyber-c1", "adgem-c2"];
            let mut l = EngagementLedger::new();
            for (day, sel, (emulator, datacenter_asn), tag) in installs {
                let block24 = match sel % 3 {
                    0 => sel % 8,
                    1 => [0, u32::MAX][(sel / 3 % 2) as usize],
                    _ => sel,
                };
                let signals = InstallSignals { emulator, rooted: false, datacenter_asn, block24 };
                l.record_install(SimTime::from_days(day), signals, TAGS[tag]);
                l.record_session(SimTime::from_days(day), sessions);
            }
            l.record_installs_bulk(SimTime::from_days(3), bulk);
            for (kind, n, block) in filters {
                match kind {
                    0 => l.filter_installs(n, |e| e.signals.block24 == block),
                    1 => l.filter_installs(n, |e| e.signals.is_suspicious()),
                    _ => l.filter_installs(n, |e| e.tag == block % 3),
                };
            }
            prop_assert_eq!(detector_snapshot(&l), detector_snapshot_by_map(&l));
        }
    }

    #[test]
    fn unknown_app_errors() {
        let (store, _) = store();
        assert!(store
            .record_install(
                AppId(999),
                SimTime::EPOCH,
                InstallSignals::clean(0),
                &InstallSource::Organic
            )
            .is_err());
        assert!(store.record_session(AppId(999), SimTime::EPOCH, 1).is_err());
    }

    #[test]
    fn apk_bytes_are_deterministic_per_package() {
        let (store, _) = store();
        let pkg = PackageName::new("com.acme.game").unwrap();
        assert_eq!(store.apk_bytes(&pkg), store.apk_bytes(&pkg));
        assert!(store
            .apk_bytes(&PackageName::new("com.none.x").unwrap())
            .is_none());
    }
}
