//! Offer-wall paging: a page is sliced out of the platform's id-ordered
//! offer table ([`IipPlatform::offers_page`]), and must render exactly
//! what cloning every visible offer, sorting by id and slicing renders
//! — for all seven dialects, both addressing schemes and geo-filtered
//! vantages. Page numbers too large to address give an empty page.

use iiscope::subsystems::attribution::ConversionGoal;
use iiscope::subsystems::iip::wall::{CURSOR_MAX_LIMIT, PAGE_SIZE};
use iiscope::subsystems::iip::{
    CampaignSpec, DeveloperApplication, IipPlatform, Offer, OfferWallHandler,
};
use iiscope::subsystems::netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
use iiscope::subsystems::types::{
    Country, DeveloperId, IipId, PackageName, SeedFork, SimTime, Usd,
};
use iiscope::subsystems::wire::http::RequestCtx;
use iiscope::subsystems::wire::{Handler, Request, Response};
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

/// The wall page as rendered by cloning every visible offer, sorting
/// by id and slicing `[skip, skip + take)`.
fn clone_sort_slice(
    p: &IipPlatform,
    wall: &OfferWallHandler,
    country: Country,
    skip: usize,
    take: usize,
) -> Response {
    let mut offers = p.offers_for(country);
    offers.sort_by_key(|o| o.id);
    let page: Vec<Offer> = offers.into_iter().skip(skip).take(take).collect();
    Response::ok_json(&wall.render_wall(&page, POINTS_PER_DOLLAR))
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
                    &clone_sort_slice(&p, &wall, country, skip, PAGE_SIZE),
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
                    &clone_sort_slice(&p, &wall, country, cursor.unwrap_or(0), take),
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
        let empty = clone_sort_slice(&p, &wall, Country::Us, usize::MAX, PAGE_SIZE);
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
