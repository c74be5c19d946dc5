//! Offer-wall paging and rendering: a page is sliced out of the
//! platform's id-ordered offer table and written straight to bytes, and
//! must equal what cloning every visible offer, sorting by id, slicing
//! and serializing the page's `Json` tree ([`render_wall`], the oracle)
//! gives — for all seven dialects, both addressing schemes, geo-filtered
//! vantages, edge payouts and point rates, and hostile store URLs. Page
//! numbers too large to address give an empty page.

use iiscope::subsystems::attribution::ConversionGoal;
use iiscope::subsystems::iip::wall::{CURSOR_MAX_LIMIT, PAGE_SIZE};
use iiscope::subsystems::iip::{
    CampaignSpec, DeveloperApplication, IipPlatform, Offer, OfferWallHandler, PayoutSplit,
};
use iiscope::subsystems::netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
use iiscope::subsystems::types::{
    Country, DeveloperId, IipId, PackageName, SeedFork, SimTime, Usd,
};
use iiscope::subsystems::wire::http::RequestCtx;
use iiscope::subsystems::wire::{Handler, Json, Request, Response};
use proptest::prelude::*;
use std::sync::Arc;

const AFFILIATE: &str = "com.cash.app";
const POINTS_PER_DOLLAR: u64 = 1_000;

/// A wall with 130 worldwide offers, 15 for Germany only and 12 for
/// India and the US, every fifth campaign ended (off the wall).
fn rig(iip: IipId) -> (Arc<IipPlatform>, OfferWallHandler) {
    let p = Arc::new(IipPlatform::new(iip, SeedFork::new(23)));
    p.register_developer(&DeveloperApplication {
        developer: DeveloperId(1),
        has_tax_id: true,
        has_bank_account: true,
        deposit: Usd::from_dollars(50_000),
    })
    .unwrap();
    let groups = [
        (130, vec![]),
        (15, vec![Country::De]),
        (12, vec![Country::In, Country::Us]),
    ];
    let mut i = 0;
    for (n, countries) in groups {
        for _ in 0..n {
            let (campaign, _) = p
                .create_campaign(
                    CampaignSpec {
                        developer: DeveloperId(1),
                        package: PackageName::new(format!("com.adv.app{i}")).unwrap(),
                        store_url: format!(
                            "https://play.iiscope/store/apps/details?id=com.adv.app{i}"
                        ),
                        goal: ConversionGoal::InstallAndOpen,
                        payout: Usd::from_cents(40 + i),
                        cap: 10,
                        countries: countries.clone(),
                    },
                    SimTime::EPOCH,
                )
                .unwrap();
            if i % 5 == 3 {
                p.end_campaign(campaign).unwrap();
            }
            i += 1;
        }
    }
    let wall = OfferWallHandler::new(Arc::clone(&p));
    wall.register_affiliate(AFFILIATE, POINTS_PER_DOLLAR);
    (p, wall)
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
            link: SeedFork::new(1),
        },
        now: SimTime::EPOCH,
    }
}

/// The tree renderer the wall handler used before it wrote pages
/// directly: `offers`, in the given order, as one page of `p`'s
/// dialect, with rewards in an affiliate's point currency.
fn render_wall(p: &IipPlatform, offers: &[Offer], points_per_dollar: u64) -> Json {
    let entries: Vec<Json> = offers
        .iter()
        .map(|o| {
            let usd =
                PayoutSplit::compute(o.payout, p.profile.iip_cut_percent, p.affiliate_cut_percent)
                    .user_share;
            // Round to nearest point; walls never show fractions.
            let pts = ((usd.micros() as f64 / 1e6) * points_per_dollar as f64).round() as i64;
            match p.id() {
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
    match p.id() {
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

/// The wall page as rendered by cloning every visible offer, sorting
/// by id and slicing `[skip, skip + take)`.
fn clone_sort_slice(p: &IipPlatform, country: Country, skip: usize, take: usize) -> Response {
    clone_sort_slice_at(p, country, skip, take, POINTS_PER_DOLLAR)
}

fn clone_sort_slice_at(
    p: &IipPlatform,
    country: Country,
    skip: usize,
    take: usize,
    points_per_dollar: u64,
) -> Response {
    let mut offers = p.offers_for(country);
    offers.sort_by_key(|o| o.id);
    let page: Vec<Offer> = offers.into_iter().skip(skip).take(take).collect();
    Response::ok_json(&render_wall(p, &page, points_per_dollar))
}

fn assert_same(got: &Response, want: &Response, what: &str) {
    assert_eq!(got.status, want.status, "{what}: status");
    assert_eq!(
        got.headers.get("Content-Type"),
        want.headers.get("Content-Type"),
        "{what}: content type"
    );
    assert_eq!(got.body_text(), want.body_text(), "{what}: body");
}

#[test]
fn sliced_pages_match_clone_sort_slice_in_every_dialect() {
    for iip in IipId::ALL {
        let (p, wall) = rig(iip);
        for country in [Country::Us, Country::De, Country::In, Country::Br] {
            let visible = p.offers_for(country).len();
            assert!(visible > CURSOR_MAX_LIMIT, "{iip} {country:?}: {visible}");
            let last_page = visible / PAGE_SIZE;
            let what = |q: &str| format!("{iip} from {country:?} with {q:?}");

            // `page=` addressing, plus the parameterless default.
            let mut pages = vec![None, Some(0), Some(1), Some(last_page / 2)];
            pages.extend([last_page, last_page + 1, last_page + 40].map(Some));
            for page in pages {
                let q = page.map_or(String::new(), |n| format!("&page={n}"));
                let got = wall.handle(
                    &Request::get(format!("/offers?affiliate={AFFILIATE}{q}")),
                    &ctx(country),
                );
                let skip = page.unwrap_or(0) * PAGE_SIZE;
                assert_same(
                    &got,
                    &clone_sort_slice(&p, country, skip, PAGE_SIZE),
                    &what(&q),
                );
            }

            // `cursor=` / `limit=` addressing, with the limit clamped.
            let cursors = [
                (Some(0), None),
                (None, Some(7)),
                (Some(13), Some(1)),
                (Some(13), Some(0)),
                (Some(visible - 3), Some(10)),
                (Some(visible), Some(5)),
                (Some(visible + 100), None),
                (Some(0), Some(CURSOR_MAX_LIMIT)),
                (Some(5), Some(CURSOR_MAX_LIMIT + 1)),
                (Some(0), Some(100_000)),
            ];
            for (cursor, limit) in cursors {
                let mut q = String::new();
                if let Some(c) = cursor {
                    q.push_str(&format!("&cursor={c}"));
                }
                if let Some(l) = limit {
                    q.push_str(&format!("&limit={l}"));
                }
                let got = wall.handle(
                    &Request::get(format!("/offers?affiliate={AFFILIATE}{q}")),
                    &ctx(country),
                );
                let take = limit.unwrap_or(PAGE_SIZE).min(CURSOR_MAX_LIMIT);
                assert_same(
                    &got,
                    &clone_sort_slice(&p, country, cursor.unwrap_or(0), take),
                    &what(&q),
                );
            }
        }
    }
}

#[test]
fn geo_filtered_pages_hold_only_targeted_offers() {
    let (p, _) = rig(IipId::Fyber);
    let us = p.offers_page(Country::Us, 0, usize::MAX);
    let de = p.offers_page(Country::De, 0, usize::MAX);
    assert!(us.iter().all(|o| o.targets(Country::Us)));
    assert!(de.iter().all(|o| o.targets(Country::De)));
    assert_ne!(us, de, "the vantages see different walls");
    assert!(us.windows(2).all(|w| w[0].id < w[1].id), "id order");
    assert_eq!(p.offers_page(Country::De, 3, 4), de[3..7].to_vec());
    assert!(p.offers_page(Country::De, de.len(), 10).is_empty());
    assert!(p
        .offers_page(Country::De, usize::MAX, usize::MAX)
        .is_empty());
}

/// An unaddressable page number must not overflow `page × PAGE_SIZE`:
/// that panics in debug builds, and in release wraps to a small offset
/// and serves (and lets the response cache keep) a bogus early page.
#[test]
fn unaddressable_page_numbers_give_an_empty_page() {
    for iip in IipId::ALL {
        let (p, wall) = rig(iip);
        let empty = clone_sort_slice(&p, Country::Us, usize::MAX, PAGE_SIZE);
        // 1844674407370955162 × 10 wraps to 4 in 64-bit arithmetic.
        let wrapping = usize::MAX / PAGE_SIZE + 1;
        for page in [wrapping, wrapping + 1, usize::MAX / 2, usize::MAX] {
            let got = wall.handle(
                &Request::get(format!("/offers?affiliate={AFFILIATE}&page={page}")),
                &ctx(Country::Us),
            );
            assert_same(&got, &empty, &format!("{iip} page={page}"));
        }
    }
}

/// A platform of `iip` carrying one worldwide campaign per
/// `(payout, store_url)`, and its wall with an affiliate registered at
/// every rate in `rates` (affiliate `com.rate{r}.app`).
fn stocked_wall(
    iip: IipId,
    offers: &[(Usd, String)],
    rates: &[u64],
) -> (Arc<IipPlatform>, OfferWallHandler) {
    let p = Arc::new(IipPlatform::new(iip, SeedFork::new(29)));
    p.register_developer(&DeveloperApplication {
        developer: DeveloperId(1),
        has_tax_id: true,
        has_bank_account: true,
        deposit: Usd::from_dollars(10_000_000),
    })
    .unwrap();
    for (i, (payout, store_url)) in offers.iter().enumerate() {
        p.create_campaign(
            CampaignSpec {
                developer: DeveloperId(1),
                package: PackageName::new(format!("com.edge.app{i}")).unwrap(),
                store_url: store_url.clone(),
                goal: ConversionGoal::InstallAndOpen,
                payout: *payout,
                cap: 1,
                countries: vec![],
            },
            SimTime::EPOCH,
        )
        .unwrap();
    }
    let wall = OfferWallHandler::new(Arc::clone(&p));
    for &rate in rates {
        wall.register_affiliate(format!("com.rate{rate}.app"), rate);
    }
    (p, wall)
}

/// Every page of `wall` for every affiliate rate, and the empty page
/// past the end, against the tree oracle.
fn assert_every_page_matches(
    p: &IipPlatform,
    wall: &OfferWallHandler,
    rates: &[u64],
    what: &str,
) -> Result<(), String> {
    let visible = p.offers_for(Country::Us).len();
    for &rate in rates {
        for page in 0..=visible / PAGE_SIZE + 1 {
            let got = wall.handle(
                &Request::get(format!("/offers?affiliate=com.rate{rate}.app&page={page}")),
                &ctx(Country::Us),
            );
            let want = clone_sort_slice_at(p, Country::Us, page * PAGE_SIZE, PAGE_SIZE, rate);
            if got.body_text() != want.body_text()
                || got.headers.get("Content-Type") != want.headers.get("Content-Type")
            {
                return Err(format!(
                    "{what}, rate {rate}, page {page}:\n got {:?}\nwant {:?}",
                    got.body_text(),
                    want.body_text()
                ));
            }
        }
    }
    Ok(())
}

const EDGE_RATES: [u64; 3] = [1, 100, 2_500];

#[test]
fn direct_pages_match_the_tree_at_edge_payouts_and_rates() {
    // 1 micro-dollar leaves a user share of zero; the sub-cent ones
    // round to zero or one point or cent depending on the rate; $10k
    // gives a user share in whole dollars, which the float formatter
    // must still print as `5250.0`.
    let payouts = [
        Usd::from_micros(1),
        Usd::from_micros(999),
        Usd::from_micros(4_999),
        Usd::from_micros(9_999),
        Usd::from_cents(1),
        Usd::from_cents(37),
        Usd::from_dollars(1),
        Usd::from_dollars(10_000),
    ];
    for iip in IipId::ALL {
        let offers: Vec<(Usd, String)> = payouts
            .iter()
            .cycle()
            .take(23)
            .enumerate()
            .map(|(i, &payout)| {
                let url = format!("https://play.iiscope/store/apps/details?id=com.edge.app{i}");
                (payout, url)
            })
            .collect();
        let (p, wall) = stocked_wall(iip, &offers, &EDGE_RATES);
        assert_every_page_matches(&p, &wall, &EDGE_RATES, &iip.to_string()).unwrap();

        // A wall with no offers: every page is the empty envelope.
        let (p, wall) = stocked_wall(iip, &[], &EDGE_RATES);
        assert_every_page_matches(&p, &wall, &EDGE_RATES, &format!("empty {iip}")).unwrap();
    }
}

/// Characters a store URL must survive: every control byte, the two
/// JSON specials, DEL, and 2-, 3- and 4-byte UTF-8.
fn hostile_chars() -> Vec<char> {
    let mut pool: Vec<char> = (0u8..0x20).map(char::from).collect();
    pool.extend(['"', '\\', '\u{7f}', '/', 'a', 'Z', '?', '=', '&', '%', ' ']);
    pool.extend(['\u{e9}', '\u{7ff}', '\u{20ac}', '\u{2028}', '\u{fffd}']);
    pool.extend(['\u{1f980}', '\u{10ffff}']);
    pool
}

proptest! {
    /// Store URLs drawn from [`hostile_chars`], with random payouts and
    /// an edge rate: the direct writer's escaping and numbers equal the
    /// tree's on every page, in every dialect.
    #[test]
    fn hostile_store_urls_render_like_the_tree(
        iip_idx in 0usize..IipId::ALL.len(),
        urls in prop::collection::vec(
            prop::collection::vec(0usize..hostile_chars().len(), 0..24),
            0..14,
        ),
        payouts in prop::collection::vec(1i64..10_000_000_000, 14),
    ) {
        let pool = hostile_chars();
        let offers: Vec<(Usd, String)> = urls
            .iter()
            .zip(&payouts)
            .map(|(ix, &micros)| {
                let url: String = ix.iter().map(|&i| pool[i]).collect();
                (Usd::from_micros(micros), url)
            })
            .collect();
        let iip = IipId::ALL[iip_idx];
        let (p, wall) = stocked_wall(iip, &offers, &EDGE_RATES);
        let checked = assert_every_page_matches(&p, &wall, &EDGE_RATES, &iip.to_string());
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
