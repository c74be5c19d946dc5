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
use bytes::{Bytes, BytesMut};
use iiscope_types::{IipId, Usd};
use iiscope_wire::http::RequestCtx;
use iiscope_wire::json::{write_escaped, write_float};
use iiscope_wire::{Handler, Request, Response};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write;
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

    /// Writes `offers`, in the given order, as one wall page in this
    /// platform's dialect, with rewards in an affiliate's point
    /// currency. The bytes are what serializing the page's `Json`
    /// value would give (keys sorted, the same escaper and float
    /// formatter), written without building the value.
    fn write_page(&self, offers: &[&Offer], points_per_dollar: u64) -> Bytes {
        let dialect = Dialect::of(self.platform.id());
        let mut out = BytesMut::with_capacity(64 + 256 * offers.len());
        let profile = &self.platform.profile;
        let affiliate_cut = self.platform.affiliate_cut_percent;
        write_parts(&mut out, dialect.head, None, offers.len());
        for (i, offer) in offers.iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(b",");
            }
            let usd = PayoutSplit::compute(offer.payout, profile.iip_cut_percent, affiliate_cut)
                .user_share;
            let entry = Entry {
                offer,
                usd,
                points: points(usd, points_per_dollar),
            };
            write_parts(&mut out, dialect.entry, Some(&entry), offers.len());
        }
        out.extend_from_slice(dialect.tail.as_bytes());
        out.freeze()
    }
}

/// A user share in an affiliate's points, rounded to the nearest
/// point: walls never show fractions.
fn points(usd: Usd, points_per_dollar: u64) -> i64 {
    ((usd.micros() as f64 / 1e6) * points_per_dollar as f64).round() as i64
}

/// One offer's values, computed once per entry.
struct Entry<'a> {
    offer: &'a Offer,
    usd: Usd,
    points: i64,
}

/// A piece of a dialect's fixed page layout.
#[derive(Clone, Copy)]
enum Part {
    /// Literal JSON text (punctuation and keys, none needing escapes).
    Lit(&'static str),
    /// The page's entry count.
    Count,
    /// The offer id.
    Id,
    /// The task description, as a JSON string.
    Desc,
    /// The advertised package, as a JSON string.
    Package,
    /// The store URL, as a JSON string.
    Url,
    /// The user share in dollars, as a float.
    Usd,
    /// The user share in the affiliate's points.
    Points,
    /// The user share in whole cents (RankApp's currency).
    Cents,
}

use Part::{Cents, Count, Desc, Id, Lit, Package, Points, Url};

/// A dialect's page: the envelope opening, one entry's layout and the
/// envelope close. Keys appear in sorted order at every level, as the
/// `Json` serializer writes an object's `BTreeMap`.
struct Dialect {
    head: &'static [Part],
    entry: &'static [Part],
    tail: &'static str,
}

impl Dialect {
    fn of(iip: IipId) -> &'static Dialect {
        match iip {
            IipId::Fyber => &Dialect {
                head: &[Lit(r#"{"ofw":{"count":"#), Count, Lit(r#","offers":["#)],
                entry: &[
                    Lit(r#"{"offer_id":"#),
                    Id,
                    Lit(r#","package":"#),
                    Package,
                    Lit(r#","payout_usd":"#),
                    Part::Usd,
                    Lit(r#","play_url":"#),
                    Url,
                    Lit(r#","title":"#),
                    Desc,
                    Lit("}"),
                ],
                tail: "]}}",
            },
            IipId::OfferToro => &Dialect {
                head: &[Lit(r#"{"response":{"offers":["#)],
                entry: &[
                    Lit(r#"{"amount":"#),
                    Points,
                    Lit(r#","id":"#),
                    Id,
                    Lit(r#","link":"#),
                    Url,
                    Lit(r#","offer_desc":"#),
                    Desc,
                    Lit(r#","package_name":"#),
                    Package,
                    Lit("}"),
                ],
                tail: "]}}",
            },
            IipId::AdscendMedia => &Dialect {
                head: &[Lit(r#"{"adscend":{"entries":["#)],
                entry: &[
                    Lit(r#"{"app":{"bundle":"#),
                    Package,
                    Lit(r#","market_url":"#),
                    Url,
                    Lit(r#"},"currency_count":"#),
                    Points,
                    Lit(r#","description":"#),
                    Desc,
                    Lit(r#","uid":"#),
                    Id,
                    Lit("}"),
                ],
                tail: "]}}",
            },
            IipId::HangMyAds => &Dialect {
                head: &[Lit(r#"{"result":["#)],
                entry: &[
                    Lit(r#"{"pkg":"#),
                    Package,
                    Lit(r#","points":"#),
                    Points,
                    Lit(r#","task":"#),
                    Desc,
                    Lit(r#","tid":"#),
                    Id,
                    Lit(r#","url":"#),
                    Url,
                    Lit("}"),
                ],
                tail: "]}",
            },
            IipId::AdGem => &Dialect {
                head: &[Lit(r#"{"data":{"wall":["#)],
                entry: &[
                    Lit(r#"{"bundle_id":"#),
                    Package,
                    Lit(r#","id":"#),
                    Id,
                    Lit(r#","reward":{"points":"#),
                    Points,
                    Lit(r#"},"store_link":"#),
                    Url,
                    Lit(r#","text":"#),
                    Desc,
                    Lit("}"),
                ],
                tail: "]}}",
            },
            IipId::AyetStudios => &Dialect {
                head: &[Lit(r#"{"offers":["#)],
                entry: &[
                    Lit(r#"{"name":"#),
                    Desc,
                    Lit(r#","offer_key":"#),
                    Id,
                    Lit(r#","package_id":"#),
                    Package,
                    Lit(r#","payout":"#),
                    Points,
                    Lit(r#","tracking_link":"#),
                    Url,
                    Lit("}"),
                ],
                tail: r#"],"status":"ok"}"#,
            },
            IipId::RankApp => &Dialect {
                head: &[Lit("[")],
                entry: &[
                    Lit(r#"{"app":"#),
                    Package,
                    Lit(r#","gp_link":"#),
                    Url,
                    // RankApp quotes the user reward in cents.
                    Lit(r#","price_cents":"#),
                    Cents,
                    Lit(r#","rid":"#),
                    Id,
                    Lit(r#","task":"#),
                    Desc,
                    Lit("}"),
                ],
                tail: "]",
            },
        }
    }
}

/// Writes `parts`, taking offer values from `entry` (absent in the
/// envelope, which holds no offer values).
fn write_parts(out: &mut BytesMut, parts: &[Part], entry: Option<&Entry<'_>>, count: usize) {
    for &part in parts {
        let written = match (part, entry) {
            (Lit(text), _) => out.write_str(text),
            (Count, _) => write!(out, "{count}"),
            (_, None) => unreachable!("offer values appear only in entries"),
            (Id, Some(e)) => write!(out, "{}", e.offer.id.raw() as i64),
            (Desc, Some(e)) => write_escaped(out, &e.offer.description),
            (Package, Some(e)) => write_escaped(out, e.offer.package.as_str()),
            (Url, Some(e)) => write_escaped(out, &e.offer.store_url),
            (Part::Usd, Some(e)) => write_float(out, e.usd.dollars_f64()),
            (Points, Some(e)) => write!(out, "{}", e.points),
            (Cents, Some(e)) => write!(out, "{}", (e.usd.micros() / 10_000).max(0)),
        };
        written.expect("BytesMut never fails");
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
        let body = self
            .platform
            .with_offers_page(country, skip, take, |offers| {
                self.write_page(offers, points_per_dollar)
            });
        Response::ok_bytes(body, "application/json")
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
    use iiscope_wire::Json;

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
