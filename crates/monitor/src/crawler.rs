//! The Play Store crawler of §4.3.
//!
//! "We crawl Google Play Store profiles of apps to collect their
//! install counts. We also crawl Google Play Store 'top charts' …
//! We periodically collect this data every other day from March 2019
//! to June 2019." The crawler runs from the researchers' own machine
//! (no proxy, genuine trust roots) against the store frontend and
//! returns typed snapshots; APK downloads feed the §4.3.2 static
//! analysis.

use bytes::Bytes;
use iiscope_netsim::{HostAddr, Network};
use iiscope_playstore::ChartKind;
use iiscope_types::{Result, SeedFork, SimTime};
use iiscope_wire::tls::TrustStore;
use iiscope_wire::{HttpClient, Json, RetryPolicy};

/// One crawl of one app profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// Crawl day (simulated).
    pub day: u64,
    /// Package name.
    pub package: String,
    /// Title.
    pub title: String,
    /// Play genre id.
    pub genre_id: String,
    /// Release day on the simulated timeline.
    pub released_day: u64,
    /// Public lower-bound install count.
    pub min_installs: u64,
    /// Developer id.
    pub developer_id: u64,
    /// Developer name.
    pub developer_name: String,
    /// Developer country code.
    pub developer_country: String,
    /// Developer contact email.
    pub developer_email: String,
    /// Developer website (empty when not listed).
    pub developer_website: String,
    /// Average star rating shown on the profile (0.0 when unrated).
    pub rating: f64,
    /// Number of ratings behind the average.
    pub rating_count: u64,
}

/// One crawl of one top chart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChartSnapshot {
    /// Crawl day.
    pub day: u64,
    /// Chart id.
    pub chart: &'static str,
    /// `(package, rank)` entries, rank ascending.
    pub entries: Vec<(String, usize)>,
}

/// The crawler client.
pub struct Crawler {
    client: HttpClient,
    play_host: String,
}

impl Crawler {
    /// Creates a crawler egressing from `from` with genuine `roots`.
    pub fn new(
        net: Network,
        from: HostAddr,
        roots: TrustStore,
        play_host: impl Into<String>,
        seed: SeedFork,
    ) -> Crawler {
        Crawler {
            client: HttpClient::new(net, from, roots, seed)
                .with_retry_policy(RetryPolicy::exponential(4)),
            play_host: play_host.into(),
        }
    }

    /// Captures the crawler's mutable state (the underlying HTTP
    /// client's RNG position and connection lineage) for checkpointing.
    /// Call [`Crawler::close_idle`] first.
    pub fn checkpoint(&self) -> iiscope_wire::ClientState {
        self.client.checkpoint()
    }

    /// Restores state captured by [`Crawler::checkpoint`] onto a
    /// crawler rebuilt with the same seed and configuration.
    pub fn restore(&mut self, state: &iiscope_wire::ClientState) {
        self.client.restore(state);
    }

    /// Closes the connection kept open between requests (see
    /// [`HttpClient::close_idle`]).
    pub fn close_idle(&mut self) {
        self.client.close_idle();
    }

    /// Crawls one profile. `Ok(None)` when the app is not listed
    /// (404), which the dataset records as a gap.
    pub fn profile(&mut self, package: &str, now: SimTime) -> Result<Option<ProfileSnapshot>> {
        let url = format!("https://{}/store/apps/details?id={package}", self.play_host);
        let resp = self.client.get(&url)?;
        if resp.status == 404 {
            return Ok(None);
        }
        if !resp.is_success() {
            return Err(iiscope_types::Error::Network(format!(
                "profile crawl got {}",
                resp.status
            )));
        }
        let j = resp.body_json()?;
        let dev = j
            .get("developer")
            .ok_or_else(|| iiscope_types::Error::Decode("profile missing developer".into()))?;
        let s = |v: Option<&Json>| -> String {
            v.and_then(Json::as_str).unwrap_or_default().to_string()
        };
        Ok(Some(ProfileSnapshot {
            day: now.days(),
            package: s(j.get("package")),
            title: s(j.get("title")),
            genre_id: s(j.get("genre")),
            released_day: j.get("released_day").and_then(Json::as_i64).unwrap_or(0) as u64,
            min_installs: j.get("min_installs").and_then(Json::as_i64).unwrap_or(0) as u64,
            developer_id: dev.get("id").and_then(Json::as_i64).unwrap_or(0) as u64,
            developer_name: s(dev.get("name")),
            developer_country: s(dev.get("country")),
            developer_email: s(dev.get("email")),
            developer_website: s(dev.get("website")),
            rating: j.get("rating").and_then(Json::as_f64).unwrap_or(0.0),
            rating_count: j.get("rating_count").and_then(Json::as_i64).unwrap_or(0) as u64,
        }))
    }

    /// Crawls one top chart.
    pub fn chart(&mut self, kind: ChartKind, n: usize, now: SimTime) -> Result<ChartSnapshot> {
        let url = format!(
            "https://{}/store/charts?chart={}&n={n}",
            self.play_host,
            kind.id()
        );
        let resp = self.client.get(&url)?;
        let j = resp.body_json()?;
        let entries = j
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| iiscope_types::Error::Decode("chart missing entries".into()))?
            .iter()
            .filter_map(|e| {
                Some((
                    e.get("package")?.as_str()?.to_string(),
                    e.get("rank")?.as_i64()? as usize,
                ))
            })
            .collect();
        Ok(ChartSnapshot {
            day: now.days(),
            chart: kind.id(),
            entries,
        })
    }

    /// Downloads an APK for static analysis. The returned bytes are a
    /// refcounted view of the response slab, not a copy.
    pub fn apk(&mut self, package: &str) -> Result<Option<Bytes>> {
        let url = format!("https://{}/apk?id={package}", self.play_host);
        let resp = self.client.get(&url)?;
        if resp.status == 404 {
            return Ok(None);
        }
        Ok(Some(resp.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiscope_netsim::{AsnId, AsnKind};
    use iiscope_playstore::apk::{AdLibrary, ApkInfo};
    use iiscope_playstore::frontend::StoreFrontend;
    use iiscope_playstore::{InstallSource, PlayStore};
    use iiscope_types::{Country, Genre, PackageName};
    use iiscope_wire::server::HttpsFactory;
    use iiscope_wire::tls::{CertAuthority, ServerIdentity};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn rig() -> (Crawler, Arc<PlayStore>, Network) {
        let seed = SeedFork::new(515);
        let net = Network::new(seed.fork("net"));
        let store = Arc::new(PlayStore::new(seed.fork("store")));
        let dev = store.register_developer("Acme", Country::Il, "a@acme.il", None);
        let app = store
            .publish(
                PackageName::new("com.acme.puzzle").unwrap(),
                "Puzzle",
                dev,
                Genre::GamePuzzle,
                SimTime::from_days(3),
                ApkInfo {
                    ad_libraries: vec![AdLibrary::AdMob],
                    obfuscation: 0.0,
                    dynamic_libraries: vec![],
                },
            )
            .unwrap();
        let t = SimTime::from_days(40);
        for _ in 0..700 {
            store
                .record_install(
                    app,
                    t,
                    iiscope_playstore::InstallSignals::clean(1),
                    &InstallSource::Organic,
                )
                .unwrap();
            store.record_session(app, t, 120).unwrap();
        }
        store.record_ratings_bulk(app, 50, 215); // 4.3 average
        net.clock().advance_to(t);

        let mut ca = CertAuthority::new("Root", seed.fork("ca"));
        let identity = ServerIdentity::issue(&mut ca, "play.iiscope", seed.fork("id"));
        let mut roots = TrustStore::new();
        roots.install_root(ca.root_cert());
        let ip = Ipv4Addr::new(10, 70, 0, 1);
        net.bind(
            ip,
            443,
            Arc::new(HttpsFactory::new(
                Arc::new(StoreFrontend::new(Arc::clone(&store))),
                identity,
                seed.fork("tls"),
            )),
        )
        .unwrap();
        net.register_host("play.iiscope", ip);

        let from = HostAddr {
            ip: Ipv4Addr::new(192, 0, 2, 10),
            asn: AsnId(1),
            asn_kind: AsnKind::Eyeball,
            country: Country::Us,
        };
        (
            Crawler::new(
                net.clone(),
                from,
                roots,
                "play.iiscope",
                seed.fork("crawler"),
            ),
            store,
            net,
        )
    }

    #[test]
    fn profile_crawl() {
        let (mut crawler, _store, net) = rig();
        let snap = crawler
            .profile("com.acme.puzzle", net.clock().now())
            .unwrap()
            .unwrap();
        assert_eq!(snap.min_installs, 500);
        assert_eq!(snap.genre_id, "GAME_PUZZLE");
        assert_eq!(snap.developer_country, "IL");
        assert_eq!(snap.released_day, 3);
        assert_eq!(snap.day, 40);
        assert!((snap.rating - 4.3).abs() < 1e-9, "rating {}", snap.rating);
        assert_eq!(snap.rating_count, 50);
    }

    #[test]
    fn missing_profile_is_none() {
        let (mut crawler, _s, net) = rig();
        assert!(crawler
            .profile("com.not.listed", net.clock().now())
            .unwrap()
            .is_none());
    }

    #[test]
    fn chart_crawl() {
        let (mut crawler, _s, net) = rig();
        let snap = crawler
            .chart(ChartKind::TopGames, 50, net.clock().now())
            .unwrap();
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.entries[0], ("com.acme.puzzle".to_string(), 1));
        assert_eq!(snap.chart, "topselling_free_games");
    }

    #[test]
    fn apk_download() {
        let (mut crawler, _s, _net) = rig();
        let bytes = crawler.apk("com.acme.puzzle").unwrap().unwrap();
        assert!(String::from_utf8_lossy(&bytes).contains("com/google/android/gms/ads"));
        assert!(crawler.apk("com.not.listed").unwrap().is_none());
    }
}
