//! The monitoring rig: monitored phone, vantage points, MITM position,
//! intercept parsing.
//!
//! Figure 3's three boxes live here: the automation script (the
//! [`crate::UiFuzzer`]), the Android phone (an [`HttpClient`] whose
//! trust store carries the monitor CA and whose traffic is routed
//! through the proxy), and the MITM proxy (bound on the network by the
//! world builder; this rig only holds its address and intercept log).
//! §4.1's vantage points are modelled as one egress address per
//! country, allocated on the VPN-exit ASes ("datacenter VPN proxies
//! offered by luminati.io").

use crate::parsers::{parse_wall, ScrapedOffer};
use iiscope_devices::AffiliateApp;
use iiscope_netsim::{Direction, HostAddr, Network};
use iiscope_types::chaosstats;
use iiscope_types::{Country, IipId, Result, SeedFork};
use iiscope_wire::tls::{InterceptLog, TrustStore};
use iiscope_wire::{HttpClient, RequestView, ResponseView, RetryPolicy};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The assembled monitoring infrastructure.
pub struct MonitoringInfra {
    /// The world's network.
    pub net: Network,
    /// MITM proxy endpoint the phone's traffic is routed through.
    pub proxy: (Ipv4Addr, u16),
    /// The proxy's decrypted-traffic log.
    pub intercepts: InterceptLog,
    /// The phone's trust store (genuine roots + the installed monitor
    /// CA).
    pub phone_roots: TrustStore,
    /// Phone egress address per vantage country.
    pub vantage_addrs: BTreeMap<Country, HostAddr>,
    /// Certificate pins installed in the monitored affiliate apps
    /// (hostname → expected leaf key). Empty in the paper's world —
    /// "none of the offer walls uses certificate pinning" — and
    /// populated by the pinning ablation, where it blinds the pipeline.
    pub pins: Vec<(String, u64)>,
    /// Determinism root.
    pub seed: SeedFork,
}

impl MonitoringInfra {
    /// The phone's HTTP client when milking from `country`.
    pub fn phone_client(&self, country: Country) -> Result<HttpClient> {
        let addr = self.vantage_addrs.get(&country).ok_or_else(|| {
            iiscope_types::Error::NotFound(format!("no vantage point in {country}"))
        })?;
        let mut client = HttpClient::new(
            self.net.clone(),
            *addr,
            self.phone_roots.clone(),
            self.seed.fork("phone").fork(country.code()),
        )
        .via_proxy(self.proxy.0, self.proxy.1)
        .with_retry_policy(RetryPolicy::exponential(4));
        for (host, key) in &self.pins {
            client = client.with_pin(host.clone(), *key);
        }
        Ok(client)
    }

    /// Milks one affiliate app from one vantage point: drives the
    /// fuzzer under an intercept tap, then parses exactly what this
    /// run's traffic produced.
    ///
    /// The tap ([`InterceptLog::tap_scope`]) captures the plaintext on
    /// the calling thread instead of the shared log, so concurrent
    /// milk jobs on different threads never see each other's pages —
    /// this is what makes the wild study's crawl-day fan-out safe.
    pub fn milk(
        &self,
        app: &AffiliateApp,
        country: Country,
        fuzzer: &crate::UiFuzzer,
    ) -> Result<Vec<ScrapedOffer>> {
        // Consume the log: anything left by earlier (non-milk) traffic
        // is not ours to parse, and draining keeps long runs from
        // hoarding every page body.
        let _stale = self.intercepts.take_all();
        let mut client = self.phone_client(country)?;
        let (run, intercepts) = self.intercepts.tap_scope(|| fuzzer.drive(app, &mut client));
        run?;
        Ok(parse_intercepts(&intercepts, country))
    }
}

/// Maps an intercepted SNI back to the IIP whose wall it is.
fn iip_for_sni(sni: &str) -> Option<IipId> {
    sni.strip_prefix("wall.")
        .and_then(|rest| rest.strip_suffix(".iiscope"))
        .and_then(IipId::from_slug)
}

/// Parses a slice of intercepts into scraped offers.
///
/// Requests and responses are paired per SNI in log order: the proxy
/// appends the request before its response, so the most recent
/// ToServer request for an SNI is the one a ToClient body answers.
///
/// The whole path works over borrowed views of the intercepted
/// plaintext: header fields and bodies stay slices of the MITM tap's
/// refcounted buffers, and the wall body is handed to [`parse_wall`]
/// as `&str` without the old `body_text()` copy. `Content-Length` is
/// validated once, inside the view parser; nothing here re-derives it.
pub fn parse_intercepts(
    intercepts: &[iiscope_wire::tls::Intercept],
    vantage: Country,
) -> Vec<ScrapedOffer> {
    let mut last_affiliate: BTreeMap<String, String> = BTreeMap::new();
    let mut scraped = Vec::new();
    for i in intercepts {
        let Some(iip) = iip_for_sni(&i.sni) else {
            continue; // not offer-wall traffic
        };
        match i.dir {
            Direction::ToServer => {
                if let Ok(Some((req, _))) = RequestView::parse(&i.plaintext) {
                    if let Some(aff) = req.query_param("affiliate") {
                        last_affiliate.insert(i.sni.clone(), aff);
                    }
                }
            }
            Direction::ToClient => {
                // A wall response that reached the tap but cannot be
                // parsed — truncated framing, garbage bytes, a body
                // that is not the expected JSON — is counted as a
                // partial wall so chaos sweeps can see the damage.
                let Ok(Some((resp, _))) = ResponseView::parse(&i.plaintext) else {
                    chaosstats::add_walls_partial(1);
                    continue;
                };
                if !resp.is_success() {
                    continue;
                }
                let Ok(body) = resp.body_str() else {
                    chaosstats::add_walls_partial(1);
                    continue; // non-UTF-8 body cannot be a wall page
                };
                let Ok(page) = parse_wall(iip, body) else {
                    chaosstats::add_walls_partial(1);
                    continue;
                };
                let affiliate = last_affiliate.get(&i.sni).cloned().unwrap_or_default();
                for raw in page.offers {
                    scraped.push(ScrapedOffer {
                        iip,
                        raw,
                        seen_at: i.at,
                        affiliate: affiliate.clone(),
                        vantage,
                    });
                }
            }
        }
    }
    scraped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuzzerConfig, UiFuzzer};
    use iiscope_attribution::ConversionGoal;
    use iiscope_iip::{CampaignSpec, DeveloperApplication, IipPlatform, OfferWallHandler};
    use iiscope_netsim::{AsnKind, SessionFactory};
    use iiscope_types::{DeveloperId, PackageName, SeedFork, SimTime, Usd};
    use iiscope_wire::server::HttpsFactory;
    use iiscope_wire::tls::{CertAuthority, MitmProxy, ServerIdentity};
    use std::sync::Arc;

    /// Builds a mini world: one IIP wall behind TLS, the MITM proxy,
    /// and a two-vantage monitoring rig.
    fn rig(iip: IipId, n_offers: u64) -> (MonitoringInfra, Arc<IipPlatform>) {
        let seed = SeedFork::new(4141);
        let net = Network::new(seed.fork("net"));
        let mut ca = CertAuthority::new("iiscope Public CA", seed.fork("ca"));
        let mut genuine = TrustStore::new();
        genuine.install_root(ca.root_cert());

        // The platform + wall service.
        let platform = Arc::new(IipPlatform::new(iip, seed.fork("iip")));
        platform
            .register_developer(&DeveloperApplication {
                developer: DeveloperId(1),
                has_tax_id: true,
                has_bank_account: true,
                deposit: Usd::from_dollars(10_000),
            })
            .unwrap();
        for i in 0..n_offers {
            platform
                .create_campaign(
                    CampaignSpec {
                        developer: DeveloperId(1),
                        package: PackageName::new(format!("com.adv.w{i}")).unwrap(),
                        store_url: format!(
                            "https://play.iiscope/store/apps/details?id=com.adv.w{i}"
                        ),
                        goal: ConversionGoal::InstallAndOpen,
                        payout: Usd::from_cents(10),
                        cap: 100,
                        countries: vec![],
                    },
                    SimTime::EPOCH,
                )
                .unwrap();
        }
        let wall = OfferWallHandler::new(Arc::clone(&platform));
        for app in AffiliateApp::table2_catalog() {
            wall.register_affiliate(app.package.as_str(), app.points_per_dollar);
        }
        let host = AffiliateApp::wall_host(iip);
        let identity = ServerIdentity::issue(&mut ca, &host, seed.fork("wall-id"));
        let wall_ip = Ipv4Addr::new(10, 50, 0, 1);
        net.bind(
            wall_ip,
            443,
            Arc::new(HttpsFactory::new(
                Arc::new(wall),
                identity,
                seed.fork("wall-tls"),
            )),
        )
        .unwrap();
        net.register_host(&host, wall_ip);

        // MITM proxy (transparent w.r.t. egress address).
        let mut registry = iiscope_devices::population::standard_registry();
        let proxy = MitmProxy::new(net.clone(), genuine.clone(), 443, seed.fork("mitm"));
        let intercepts = proxy.intercepts();
        let mitm_root = proxy.root_cert();
        let proxy_ip = Ipv4Addr::new(10, 60, 0, 1);
        net.bind(proxy_ip, 3128, Arc::new(proxy) as Arc<dyn SessionFactory>)
            .unwrap();

        // Phone roots: genuine + monitor CA.
        let mut phone_roots = genuine;
        phone_roots.install_root(mitm_root);

        // Vantage addresses on VPN exits.
        let mut vantage_addrs = BTreeMap::new();
        for c in Country::VANTAGE_POINTS {
            let asn = iiscope_devices::population::vpn_asn(c).unwrap();
            let addr = registry.alloc_host_fresh_block(asn).unwrap();
            assert_eq!(addr.asn_kind, AsnKind::VpnExit);
            vantage_addrs.insert(c, addr);
        }

        (
            MonitoringInfra {
                net,
                proxy: (proxy_ip, 3128),
                intercepts,
                phone_roots,
                vantage_addrs,
                pins: Vec::new(),
                seed: seed.fork("infra"),
            },
            platform,
        )
    }

    #[test]
    fn sni_lookup_inverts_wall_host() {
        for iip in IipId::ALL {
            assert_eq!(iip_for_sni(&AffiliateApp::wall_host(iip)), Some(iip));
        }
        for sni in [
            "play.iiscope",
            "wall.iiscope",
            "wall..iiscope",
            "wall.fyber.iiscope.evil",
            "xwall.fyber.iiscope",
            "wall.Fyber.iiscope",
        ] {
            assert_eq!(iip_for_sni(sni), None, "{sni}");
        }
    }

    #[test]
    fn milking_recovers_all_offers_through_the_proxy() {
        let (infra, _platform) = rig(IipId::Fyber, 23);
        let apps = AffiliateApp::table2_catalog();
        let cash_for_apps = apps
            .iter()
            .find(|a| a.package.as_str() == "com.mobvantage.cashforapps")
            .unwrap();
        let fuzzer = UiFuzzer::default();
        let offers = infra.milk(cash_for_apps, Country::Us, &fuzzer).unwrap();
        // The app has 4 tabs but only the Fyber wall exists in this
        // mini-world; 23 offers across 3 pages.
        let fyber: Vec<_> = offers.iter().filter(|o| o.iip == IipId::Fyber).collect();
        let keys: std::collections::BTreeSet<u64> = fyber.iter().map(|o| o.raw.offer_key).collect();
        assert_eq!(keys.len(), 23, "every offer recovered exactly once");
        assert!(offers.iter().all(|o| o.vantage == Country::Us));
        assert!(offers
            .iter()
            .all(|o| o.affiliate == "com.mobvantage.cashforapps"));
    }

    #[test]
    fn shallow_scrolling_loses_offers() {
        let (infra, _platform) = rig(IipId::Fyber, 35);
        let apps = AffiliateApp::table2_catalog();
        let app = apps
            .iter()
            .find(|a| a.package.as_str() == "proxima.moneyapp.android")
            .unwrap();
        let shallow = UiFuzzer::new(FuzzerConfig {
            max_scroll_pages: 1,
        });
        let offers = infra.milk(app, Country::Us, &shallow).unwrap();
        assert_eq!(offers.len(), 10, "one page only");
        let deep = UiFuzzer::default();
        let offers = infra.milk(app, Country::Us, &deep).unwrap();
        assert_eq!(offers.len(), 35, "deep scroll gets the tail");
    }

    #[test]
    fn unknown_vantage_country_errors() {
        let (infra, _platform) = rig(IipId::Fyber, 1);
        assert!(infra.phone_client(Country::Br).is_err());
    }

    #[test]
    fn geo_targeted_offers_need_the_right_vantage() {
        let (infra, platform) = rig(IipId::Fyber, 0);
        platform
            .create_campaign(
                CampaignSpec {
                    developer: DeveloperId(1),
                    package: PackageName::new("com.geo.only").unwrap(),
                    store_url: "https://play.iiscope/store/apps/details?id=com.geo.only".into(),
                    goal: ConversionGoal::InstallAndOpen,
                    payout: Usd::from_cents(10),
                    cap: 10,
                    countries: vec![Country::De],
                },
                SimTime::EPOCH,
            )
            .unwrap();
        let apps = AffiliateApp::table2_catalog();
        let app = apps
            .iter()
            .find(|a| a.package.as_str() == "proxima.moneyapp.android")
            .unwrap();
        let fuzzer = UiFuzzer::default();
        let us = infra.milk(app, Country::Us, &fuzzer).unwrap();
        assert!(us.is_empty(), "US vantage must not see the DE offer");
        let de = infra.milk(app, Country::De, &fuzzer).unwrap();
        assert_eq!(de.len(), 1);
        assert_eq!(de[0].raw.package, "com.geo.only");
    }
}
