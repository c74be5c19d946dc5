//! The offer wall HTTP API — one JSON dialect per IIP.
//!
//! §4.1: the milkers "parse the HTTP responses … These responses
//! typically include offer details in JSON format containing offer
//! description, payout, and the advertised app's Google Play Store
//! profile." In reality every platform has its own schema and its own
//! reward currency (USD, cents, or affiliate points), which is why the
//! paper needed per-wall parsing and payout normalization ("We
//! normalize offer payouts of different affiliate apps by converting
//! their points to equivalent dollar amounts"). The seven dialects
//! below force the monitor in `iiscope-monitor` to do the same work.
//!
//! Rewards shown on a wall are the *user share* (after the IIP and
//! affiliate cuts), in the requesting affiliate's point currency —
//! affiliates register their `points_per_dollar` rate with the IIP.

use crate::economics::PayoutSplit;
use crate::offer::Offer;
use crate::platform::IipPlatform;
use iiscope_types::{IipId, Usd};
use iiscope_wire::http::RequestCtx;
use iiscope_wire::{Handler, Json, Request, Response};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// HTTP handler serving one platform's offer wall.
pub struct OfferWallHandler {
    platform: Arc<IipPlatform>,
    affiliates: Mutex<BTreeMap<String, u64>>,
}

impl OfferWallHandler {
    /// Wraps a platform.
    pub fn new(platform: Arc<IipPlatform>) -> OfferWallHandler {
        OfferWallHandler {
            platform,
            affiliates: Mutex::new(BTreeMap::new()),
        }
    }

    /// Registers an affiliate app and its point conversion rate.
    pub fn register_affiliate(&self, package: impl Into<String>, points_per_dollar: u64) {
        self.affiliates
            .lock()
            .insert(package.into(), points_per_dollar);
    }

    /// The user-visible reward for an offer, in USD.
    fn user_share(&self, offer: &Offer) -> Usd {
        PayoutSplit::compute(
            offer.payout,
            self.platform.profile.iip_cut_percent,
            self.platform.affiliate_cut_percent,
        )
        .user_share
    }

    fn points(&self, usd: Usd, points_per_dollar: u64) -> i64 {
        // Round to nearest point; walls never show fractions.
        ((usd.micros() as f64 / 1e6) * points_per_dollar as f64).round() as i64
    }

    /// Renders `offers`, in the given order, as one wall page in this
    /// platform's dialect, with rewards in an affiliate's point
    /// currency.
    pub fn render_wall(&self, offers: &[Offer], points_per_dollar: u64) -> Json {
        let iip = self.platform.id();
        let entries: Vec<Json> = offers
            .iter()
            .map(|o| {
                let usd = self.user_share(o);
                let pts = self.points(usd, points_per_dollar);
                match iip {
                    IipId::Fyber => Json::obj([
                        ("offer_id", Json::Int(o.id.raw() as i64)),
                        ("title", Json::str(&o.description)),
                        ("payout_usd", Json::Float(usd.dollars_f64())),
                        ("package", Json::str(o.package.as_str())),
                        ("play_url", Json::str(&o.store_url)),
                    ]),
                    IipId::OfferToro => Json::obj([
                        ("id", Json::Int(o.id.raw() as i64)),
                        ("offer_desc", Json::str(&o.description)),
                        ("amount", Json::Int(pts)),
                        ("package_name", Json::str(o.package.as_str())),
                        ("link", Json::str(&o.store_url)),
                    ]),
                    IipId::AdscendMedia => Json::obj([
                        ("uid", Json::Int(o.id.raw() as i64)),
                        ("description", Json::str(&o.description)),
                        ("currency_count", Json::Int(pts)),
                        (
                            "app",
                            Json::obj([
                                ("bundle", Json::str(o.package.as_str())),
                                ("market_url", Json::str(&o.store_url)),
                            ]),
                        ),
                    ]),
                    IipId::HangMyAds => Json::obj([
                        ("task", Json::str(&o.description)),
                        ("points", Json::Int(pts)),
                        ("pkg", Json::str(o.package.as_str())),
                        ("url", Json::str(&o.store_url)),
                        ("tid", Json::Int(o.id.raw() as i64)),
                    ]),
                    IipId::AdGem => Json::obj([
                        ("id", Json::Int(o.id.raw() as i64)),
                        ("text", Json::str(&o.description)),
                        ("reward", Json::obj([("points", Json::Int(pts))])),
                        ("bundle_id", Json::str(o.package.as_str())),
                        ("store_link", Json::str(&o.store_url)),
                    ]),
                    IipId::AyetStudios => Json::obj([
                        ("offer_key", Json::Int(o.id.raw() as i64)),
                        ("name", Json::str(&o.description)),
                        ("payout", Json::Int(pts)),
                        ("package_id", Json::str(o.package.as_str())),
                        ("tracking_link", Json::str(&o.store_url)),
                    ]),
                    IipId::RankApp => Json::obj([
                        ("task", Json::str(&o.description)),
                        // RankApp quotes the user reward in cents.
                        ("price_cents", Json::Int((usd.micros() / 10_000).max(0))),
                        ("gp_link", Json::str(&o.store_url)),
                        ("app", Json::str(o.package.as_str())),
                        ("rid", Json::Int(o.id.raw() as i64)),
                    ]),
                }
            })
            .collect();

        let count = Json::Int(entries.len() as i64);
        match iip {
            IipId::Fyber => Json::obj([(
                "ofw",
                Json::obj([("offers", Json::Array(entries)), ("count", count)]),
            )]),
            IipId::OfferToro => {
                Json::obj([("response", Json::obj([("offers", Json::Array(entries))]))])
            }
            IipId::AdscendMedia => {
                Json::obj([("adscend", Json::obj([("entries", Json::Array(entries))]))])
            }
            IipId::HangMyAds => Json::obj([("result", Json::Array(entries))]),
            IipId::AdGem => Json::obj([("data", Json::obj([("wall", Json::Array(entries))]))]),
            IipId::AyetStudios => Json::obj([
                ("status", Json::str("ok")),
                ("offers", Json::Array(entries)),
            ]),
            IipId::RankApp => Json::Array(entries),
        }
    }
}

/// The wall's single route. Socket-server front-ends that multiplex
/// all walls behind one listener rewrite `/wall/<slug>/offers` to this
/// before dispatching.
pub const OFFERS_PATH: &str = "/offers";

impl Handler for OfferWallHandler {
    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Response {
        if req.path() != OFFERS_PATH {
            return Response::not_found();
        }
        let Some(affiliate) = req.query_param("affiliate") else {
            return Response::status(400);
        };
        let Some(points_per_dollar) = self.affiliates.lock().get(&affiliate).copied() else {
            return Response::status(403);
        };
        // Geo targeting uses the *connection's* country: the paper's
        // milkers change vantage points via VPN proxies precisely
        // because walls geo-filter on source address.
        let country = ctx.peer.addr.country;
        // Pagination: walls return one page per request; the UI fuzzer
        // must scroll to load more (the coverage mechanic of §4.1).
        // Two addressing schemes slice the id-ordered offer list:
        // `cursor=N&limit=M` slices offers [N, N+M); the legacy
        // `page=P` (fixed PAGE_SIZE rows) remains the default so
        // parameterless requests stay byte-identical. A page number
        // too large to address saturates to an empty page rather than
        // wrapping to an early one.
        let cursor_mode = req.query_param("cursor").is_some() || req.query_param("limit").is_some();
        let (skip, take) = if cursor_mode {
            let cursor: usize = req
                .query_param("cursor")
                .and_then(|c| c.parse().ok())
                .unwrap_or(0);
            let limit: usize = req
                .query_param("limit")
                .and_then(|l| l.parse().ok())
                .unwrap_or(PAGE_SIZE)
                .min(CURSOR_MAX_LIMIT);
            (cursor, limit)
        } else {
            let page: usize = req
                .query_param("page")
                .and_then(|p| p.parse().ok())
                .unwrap_or(0);
            (page.saturating_mul(PAGE_SIZE), PAGE_SIZE)
        };
        let page_items = self.platform.offers_page(country, skip, take);
        Response::ok_json(&self.render_wall(&page_items, points_per_dollar))
    }
}

/// Number of offers per wall page (public for the fuzzer's tests).
pub const PAGE_SIZE: usize = 10;

/// Largest `limit` a cursor-mode request can ask for — bounds one
/// response's render cost regardless of query-string input.
pub const CURSOR_MAX_LIMIT: usize = 100;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::CampaignSpec;
    use crate::vetting::DeveloperApplication;
    use iiscope_attribution::ConversionGoal;
    use iiscope_netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
    use iiscope_types::{Country, DeveloperId, PackageName, SeedFork, SimTime};

    fn rig(iip: IipId) -> (Arc<IipPlatform>, OfferWallHandler) {
        let p = Arc::new(IipPlatform::new(iip, SeedFork::new(11)));
        p.register_developer(&DeveloperApplication {
            developer: DeveloperId(1),
            has_tax_id: true,
            has_bank_account: true,
            deposit: Usd::from_dollars(5_000),
        })
        .unwrap();
        let wall = OfferWallHandler::new(Arc::clone(&p));
        wall.register_affiliate("com.cash.app", 1_000);
        (p, wall)
    }

    fn add_campaign(p: &IipPlatform, n: u64, payout_cents: i64, countries: Vec<Country>) {
        for i in 0..n {
            p.create_campaign(
                CampaignSpec {
                    developer: DeveloperId(1),
                    package: PackageName::new(format!("com.adv.app{i}")).unwrap(),
                    store_url: format!("https://play.iiscope/store/apps/details?id=com.adv.app{i}"),
                    goal: ConversionGoal::InstallAndOpen,
                    payout: Usd::from_cents(payout_cents),
                    cap: 100,
                    countries: countries.clone(),
                },
                SimTime::EPOCH,
            )
            .unwrap();
        }
    }

    fn ctx(country: Country) -> RequestCtx {
        RequestCtx {
            peer: PeerInfo {
                addr: HostAddr {
                    ip: std::net::Ipv4Addr::new(9, 9, 9, 9),
                    asn: AsnId(1),
                    asn_kind: AsnKind::Eyeball,
                    country,
                },
                opened_at: SimTime::EPOCH,
                link: iiscope_types::SeedFork::new(1),
            },
            now: SimTime::EPOCH,
        }
    }

    #[test]
    fn fyber_schema_shows_usd() {
        let (p, wall) = rig(IipId::Fyber);
        add_campaign(&p, 1, 100, vec![]);
        let resp = wall.handle(
            &Request::get("/offers?affiliate=com.cash.app"),
            &ctx(Country::Us),
        );
        let j = resp.body_json().unwrap();
        let offers = j
            .get("ofw")
            .unwrap()
            .get("offers")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(offers.len(), 1);
        let payout = offers[0].get("payout_usd").and_then(Json::as_f64).unwrap();
        // $1.00 payout, 30% IIP cut, 25% affiliate cut → $0.525 user share.
        assert!((payout - 0.525).abs() < 1e-9, "{payout}");
    }

    #[test]
    fn rankapp_schema_is_top_level_array_in_cents() {
        let (p, wall) = rig(IipId::RankApp);
        // RankApp registration (unvetted) uses a separate developer.
        p.create_campaign(
            CampaignSpec {
                developer: DeveloperId(1),
                package: PackageName::new("com.adv.solo").unwrap(),
                store_url: "https://play.iiscope/store/apps/details?id=com.adv.solo".into(),
                goal: ConversionGoal::InstallAndOpen,
                payout: Usd::from_cents(2),
                cap: 100,
                countries: vec![],
            },
            SimTime::EPOCH,
        )
        .unwrap();
        let resp = wall.handle(
            &Request::get("/offers?affiliate=com.cash.app"),
            &ctx(Country::In),
        );
        let j = resp.body_json().unwrap();
        let arr = j.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        // $0.02, 40% cut, 25% affiliate → $0.009 → 0 whole cents.
        let cents = arr[0].get("price_cents").and_then(Json::as_i64).unwrap();
        assert_eq!(cents, 0);
        assert_eq!(
            arr[0].get("app").and_then(Json::as_str),
            Some("com.adv.solo")
        );
    }

    #[test]
    fn points_currencies_scale_with_affiliate_rate() {
        let (p, wall) = rig(IipId::AyetStudios);
        wall.register_affiliate("com.other.app", 100);
        add_campaign(&p, 1, 100, vec![]);
        let get = |aff: &str| -> i64 {
            let resp = wall.handle(
                &Request::get(format!("/offers?affiliate={aff}")),
                &ctx(Country::Us),
            );
            resp.body_json()
                .unwrap()
                .get("offers")
                .unwrap()
                .as_array()
                .unwrap()[0]
                .get("payout")
                .and_then(Json::as_i64)
                .unwrap()
        };
        let pts_1000 = get("com.cash.app");
        let pts_100 = get("com.other.app");
        assert_eq!(pts_1000, 10 * pts_100);
    }

    #[test]
    fn unregistered_affiliate_forbidden() {
        let (_p, wall) = rig(IipId::Fyber);
        let resp = wall.handle(
            &Request::get("/offers?affiliate=com.unknown"),
            &ctx(Country::Us),
        );
        assert_eq!(resp.status, 403);
        let resp = wall.handle(&Request::get("/offers"), &ctx(Country::Us));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn geo_filtering_by_connection_country() {
        let (p, wall) = rig(IipId::Fyber);
        add_campaign(&p, 1, 50, vec![Country::De]);
        let de = wall.handle(
            &Request::get("/offers?affiliate=com.cash.app"),
            &ctx(Country::De),
        );
        let us = wall.handle(
            &Request::get("/offers?affiliate=com.cash.app"),
            &ctx(Country::Us),
        );
        let count = |r: &Response| {
            r.body_json()
                .unwrap()
                .get("ofw")
                .unwrap()
                .get("count")
                .and_then(Json::as_i64)
                .unwrap()
        };
        assert_eq!(count(&de), 1);
        assert_eq!(count(&us), 0);
    }

    #[test]
    fn pagination_requires_scrolling() {
        let (p, wall) = rig(IipId::Fyber);
        add_campaign(&p, 23, 50, vec![]);
        let fetch = |page: usize| -> usize {
            let resp = wall.handle(
                &Request::get(format!("/offers?affiliate=com.cash.app&page={page}")),
                &ctx(Country::Us),
            );
            resp.body_json()
                .unwrap()
                .get("ofw")
                .unwrap()
                .get("offers")
                .and_then(Json::as_array)
                .unwrap()
                .len()
        };
        assert_eq!(fetch(0), 10);
        assert_eq!(fetch(1), 10);
        assert_eq!(fetch(2), 3);
        assert_eq!(fetch(3), 0);
    }

    #[test]
    fn cursor_pagination_slices_and_defaults_match_page_zero() {
        let (p, wall) = rig(IipId::Fyber);
        add_campaign(&p, 23, 50, vec![]);
        let fetch = |query: &str| -> Vec<i64> {
            let resp = wall.handle(
                &Request::get(format!("/offers?affiliate=com.cash.app{query}")),
                &ctx(Country::Us),
            );
            assert_eq!(resp.status, 200);
            resp.body_json()
                .unwrap()
                .get("ofw")
                .unwrap()
                .get("offers")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|o| o.get("offer_id").and_then(Json::as_i64).unwrap())
                .collect()
        };
        // cursor walks the same sorted list page mode does.
        let all: Vec<i64> = (0..3).flat_map(|p| fetch(&format!("&page={p}"))).collect();
        assert_eq!(all.len(), 23);
        assert_eq!(fetch("&cursor=0&limit=23"), all);
        assert_eq!(fetch("&cursor=5&limit=4"), all[5..9].to_vec());
        // limit alone defaults cursor=0; cursor alone defaults
        // limit=PAGE_SIZE.
        assert_eq!(fetch("&limit=3"), all[..3].to_vec());
        assert_eq!(fetch("&cursor=20"), all[20..].to_vec());
        // Past the end is empty, not an error; limit is clamped.
        assert_eq!(fetch("&cursor=40&limit=5"), Vec::<i64>::new());
        assert_eq!(fetch("&cursor=0&limit=9999").len(), 23);
        // Unparsable values fall back silently, like `page` does.
        assert_eq!(fetch("&cursor=x&limit=y"), all[..PAGE_SIZE].to_vec());
    }

    #[test]
    fn parameterless_requests_ignore_cursor_code_path() {
        let (p, wall) = rig(IipId::Fyber);
        add_campaign(&p, 12, 50, vec![]);
        let plain = wall.handle(
            &Request::get("/offers?affiliate=com.cash.app"),
            &ctx(Country::Us),
        );
        let paged = wall.handle(
            &Request::get("/offers?affiliate=com.cash.app&page=0"),
            &ctx(Country::Us),
        );
        // Byte-identical to the legacy default page.
        assert_eq!(plain.encode(), paged.encode());
    }

    #[test]
    fn every_iip_schema_is_valid_json_with_description() {
        for iip in IipId::ALL {
            let (p, wall) = rig(iip);
            if !iip.is_vetted() {
                // re-rig already registered developer 1 with docs; fine
            }
            add_campaign(&p, 1, 75, vec![]);
            let resp = wall.handle(
                &Request::get("/offers?affiliate=com.cash.app"),
                &ctx(Country::Us),
            );
            assert!(resp.is_success(), "{iip}");
            let text = resp.body_text();
            assert!(
                text.to_lowercase().contains("install"),
                "{iip}: description missing in {text}"
            );
        }
    }
}
