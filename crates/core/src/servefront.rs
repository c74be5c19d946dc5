//! World-facing route multiplexer for the socket server.
//!
//! The simulation reaches each service by hostname (the store at its
//! own IP, every wall at `wall.<slug>.iiscope`); an external TCP
//! client talks to one listener and cannot resolve sim hostnames, so
//! the server multiplexes by path instead:
//!
//! * `/store/apps/details`, `/store/charts`, `/apk` — the Play-store
//!   frontend, verbatim;
//! * `/wall/<slug>/offers?...` — rewritten to the wall's own
//!   [`iiscope_iip::OFFERS_PATH`] and dispatched to that IIP's
//!   handler, so query handling (affiliate gate, paging, geo filter)
//!   is exactly the wall the milkers hit.
//!
//! Every dispatch is a pure read of world state — serving mid-run
//! cannot perturb the simulation's byte-identical output. That purity
//! is also what makes the render cache sound: a response is a function
//! of `(target, vantage country, sim instant, world version)`, so
//! cached bodies are byte-identical to fresh renders until the
//! simulation advances a day and bumps the version.

use iiscope_iip::{OfferWallHandler, OFFERS_PATH};
use iiscope_playstore::frontend::{StoreFrontend, APK_PATH};
use iiscope_types::{Country, IipId, SimTime};
use iiscope_wire::http::{Method, RequestCtx};
use iiscope_wire::{Handler, Request, Response};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone world-state version, bumped by the simulation whenever
/// served state may have changed (each sim-day advance). Cheap to
/// clone and share: the server reads it relaxed on every request, the
/// sim writes it once per day.
#[derive(Clone, Default)]
pub struct WorldVersion(Arc<AtomicU64>);

impl WorldVersion {
    /// A fresh version counter at zero.
    pub fn new() -> WorldVersion {
        WorldVersion::default()
    }

    /// Current version.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Advances the version, invalidating every cached response keyed
    /// to older versions.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

iiscope_types::counters! {
    /// One router's response-cache book, kept per instance so tests
    /// can assert on one router's behavior without cross-test
    /// pollution.
    pub struct CacheStats;
    /// Responses answered from cache.
    hits / add_hits / "cache_hits";
    /// Cacheable requests that rendered fresh.
    misses / add_misses / "cache_misses";
    /// Times the cache dropped its map on a version change.
    invalidations / add_invalidations / "cache_invalidations";
}

/// Everything a response can depend on besides world state: the full
/// request target (path + query), the synthesized vantage country
/// (walls geo-filter on it), and the server's pinned sim instant
/// (charts snapshot at it).
type CacheKey = (String, Country, SimTime);

/// Rendered responses for one world version. `as_of` names the version
/// the entries were rendered at; a bump makes the whole map stale at
/// once, so invalidation is one `clear`, not per-entry bookkeeping.
struct CacheState {
    as_of: u64,
    map: HashMap<CacheKey, Response>,
}

/// Entry cap — bounds memory on adversarial query-string churn. The
/// legitimate route space (7 walls × pages × a few thousand store
/// targets) fits comfortably; beyond the cap new entries are simply
/// not retained, while retained ones keep serving hits and a version
/// bump still drops the whole map at once.
pub const CACHE_CAP: usize = 8192;

/// Path-multiplexed view of one world's public HTTP surface.
pub struct WorldRouter {
    store: StoreFrontend,
    walls: BTreeMap<IipId, Arc<OfferWallHandler>>,
    cache: Option<RwLock<CacheState>>,
    version: WorldVersion,
    stats: CacheStats,
}

impl WorldRouter {
    /// Routes over the given store frontend and wall handlers, with no
    /// response cache (every request renders fresh).
    pub fn new(store: StoreFrontend, walls: BTreeMap<IipId, Arc<OfferWallHandler>>) -> WorldRouter {
        WorldRouter {
            store,
            walls,
            cache: None,
            version: WorldVersion::new(),
            stats: CacheStats::new(),
        }
    }

    /// Routes with a day-versioned response cache: rendered responses
    /// are retained (the body is an `Arc`-backed `Bytes`, so a hit is
    /// a clone of a pointer, not a re-serialization) until `version`
    /// is bumped.
    pub fn new_cached(
        store: StoreFrontend,
        walls: BTreeMap<IipId, Arc<OfferWallHandler>>,
        version: WorldVersion,
    ) -> WorldRouter {
        WorldRouter {
            store,
            walls,
            cache: Some(RwLock::new(CacheState {
                as_of: version.get(),
                map: HashMap::new(),
            })),
            version,
            stats: CacheStats::new(),
        }
    }

    /// Whether the render cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// This router's cache counters.
    pub fn cache_stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The version handle the cache invalidates on.
    pub fn version(&self) -> &WorldVersion {
        &self.version
    }

    /// Entries currently retained by the render cache (0 uncached).
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.read().map.len())
    }

    /// The actual route dispatch, cache aside.
    fn route(&self, req: &Request, ctx: &RequestCtx) -> Response {
        let path = req.path();
        if path == APK_PATH || path.starts_with("/store/") {
            return self.store.handle(req, ctx);
        }
        if let Some(rest) = path.strip_prefix("/wall/") {
            if let Some((slug, tail)) = rest.split_once('/') {
                if let (Some(iip), true) = (IipId::from_slug(slug), tail == &OFFERS_PATH[1..]) {
                    // Rewrite to the wall's native route, query intact.
                    let mut inner = req.clone();
                    inner.target = match req.target.split_once('?') {
                        Some((_, query)) => format!("{OFFERS_PATH}?{query}"),
                        None => OFFERS_PATH.to_string(),
                    };
                    return self.walls[&iip].handle(&inner, ctx);
                }
            }
        }
        Response::not_found()
    }
}

impl Handler for WorldRouter {
    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Response {
        let Some(cache) = &self.cache else {
            return self.route(req, ctx);
        };
        if req.method != Method::Get {
            // Non-GETs never hit the public read surface; don't let
            // them occupy cache slots.
            return self.route(req, ctx);
        }
        // Pin the version before rendering: if the sim advances a day
        // mid-render, the response must not be retained under either
        // version (it may mix old and new state).
        let v = self.version.get();
        let key: CacheKey = (req.target.clone(), ctx.peer.addr.country, ctx.now);
        {
            let st = cache.read();
            if st.as_of == v {
                if let Some(resp) = st.map.get(&key) {
                    self.stats.add_hits(1);
                    return resp.clone();
                }
            }
        }
        self.stats.add_misses(1);
        let resp = self.route(req, ctx);
        let mut st = cache.write();
        let cur = self.version.get();
        if st.as_of != cur {
            st.map.clear();
            st.as_of = cur;
            self.stats.add_invalidations(1);
        }
        if cur == v && st.map.len() < CACHE_CAP {
            st.map.insert(key, resp.clone());
        }
        resp
    }

    /// Admission probe: a retained response for `req`, without
    /// rendering on miss. Overload gates call this to exempt cache
    /// hits from shedding; a found entry counts as a hit (it is
    /// served), a miss counts nothing (nothing was rendered).
    fn cached(&self, req: &Request, ctx: &RequestCtx) -> Option<Response> {
        let cache = self.cache.as_ref()?;
        if req.method != Method::Get {
            return None;
        }
        let v = self.version.get();
        let key: CacheKey = (req.target.clone(), ctx.peer.addr.country, ctx.now);
        let st = cache.read();
        if st.as_of == v {
            if let Some(resp) = st.map.get(&key) {
                self.stats.add_hits(1);
                return Some(resp.clone());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::world::World;
    use iiscope_netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
    use iiscope_types::{Country, SeedFork};
    use iiscope_wire::Json;

    fn ctx(world: &World) -> RequestCtx {
        RequestCtx {
            peer: PeerInfo {
                addr: HostAddr {
                    ip: std::net::Ipv4Addr::new(203, 0, 113, 9),
                    asn: AsnId(64512),
                    asn_kind: AsnKind::Eyeball,
                    country: Country::Us,
                },
                opened_at: world.study_start(),
                link: SeedFork::new(99),
            },
            now: world.study_start(),
        }
    }

    fn tiny_world() -> World {
        let mut cfg = WorldConfig::small(7);
        cfg.advertised_apps = 5;
        cfg.baseline_apps = 3;
        World::build(cfg).unwrap()
    }

    #[test]
    fn routes_store_walls_and_rejects_the_rest() {
        let world = tiny_world();
        let router = world.serve_router();
        let ctx = ctx(&world);

        let honey = format!("/store/apps/details?id={}", iiscope_honeyapp::HONEY_PACKAGE);
        assert_eq!(router.handle(&Request::get(honey), &ctx).status, 200);
        assert_eq!(
            router
                .handle(
                    &Request::get("/store/charts?chart=topselling_free&n=5"),
                    &ctx
                )
                .status,
            200
        );
        let apk = format!("/apk?id={}", iiscope_honeyapp::HONEY_PACKAGE);
        assert_eq!(router.handle(&Request::get(apk), &ctx).status, 200);

        // Wall rewrite carries the query through to the IIP handler.
        let wall = "/wall/fyber/offers?affiliate=com.mobvantage.cashforapps";
        let resp = router.handle(&Request::get(wall), &ctx);
        assert_eq!(resp.status, 200);
        assert!(resp.body_json().unwrap().get("ofw").is_some());
        // Missing affiliate is the wall's own 400, unregistered its 403.
        assert_eq!(
            router
                .handle(&Request::get("/wall/fyber/offers"), &ctx)
                .status,
            400
        );
        assert_eq!(
            router
                .handle(
                    &Request::get("/wall/fyber/offers?affiliate=com.not.reg"),
                    &ctx
                )
                .status,
            403
        );

        assert_eq!(
            router
                .handle(&Request::get("/wall/nope/offers"), &ctx)
                .status,
            404
        );
        assert_eq!(
            router.handle(&Request::get("/wall/fyber"), &ctx).status,
            404
        );
        assert_eq!(router.handle(&Request::get("/elsewhere"), &ctx).status, 404);
    }

    #[test]
    fn cache_serves_identical_bytes_and_invalidates_on_bump() {
        let world = tiny_world();
        let cached = world.serve_router();
        let fresh = world.serve_router_uncached();
        assert!(cached.cache_enabled());
        assert!(!fresh.cache_enabled());
        let ctx = ctx(&world);

        let targets = [
            format!("/store/apps/details?id={}", iiscope_honeyapp::HONEY_PACKAGE),
            "/store/charts?chart=topselling_free&n=5".to_string(),
            format!("/apk?id={}", iiscope_honeyapp::HONEY_PACKAGE),
            "/wall/fyber/offers?affiliate=com.mobvantage.cashforapps".to_string(),
            "/wall/fyber/offers".to_string(),
            "/elsewhere".to_string(),
        ];
        for t in &targets {
            let first = cached.handle(&Request::get(t.clone()), &ctx);
            let again = cached.handle(&Request::get(t.clone()), &ctx);
            let reference = fresh.handle(&Request::get(t.clone()), &ctx);
            assert_eq!(first.encode(), reference.encode(), "{t}");
            assert_eq!(again.encode(), reference.encode(), "{t}");
        }
        // Second pass hit for every target; the fresh router never
        // touched a cache.
        assert_eq!(cached.cache_stats().hits(), targets.len() as u64);
        assert_eq!(cached.cache_stats().misses(), targets.len() as u64);
        assert_eq!(fresh.cache_stats().hits() + fresh.cache_stats().misses(), 0);

        // A day advance drops every entry: same requests miss again.
        world.day_version.bump();
        for t in &targets {
            cached.handle(&Request::get(t.clone()), &ctx);
        }
        assert_eq!(cached.cache_stats().hits(), targets.len() as u64);
        assert_eq!(cached.cache_stats().misses(), 2 * targets.len() as u64);
        assert_eq!(cached.cache_stats().invalidations(), 1);
    }

    #[test]
    fn cache_book_snapshots_under_the_serve_key_names() {
        let c = CacheStats::new();
        c.add_hits(4);
        c.add_invalidations(1);
        assert_eq!(
            c.snapshot(),
            vec![
                ("cache_hits", 4),
                ("cache_misses", 0),
                ("cache_invalidations", 1)
            ]
        );
    }

    #[test]
    fn cache_keys_on_country_and_posts_bypass() {
        let world = tiny_world();
        let router = world.serve_router();
        let mut us = ctx(&world);
        us.peer.addr.country = Country::Us;
        let mut other = ctx(&world);
        other.peer.addr.country = Country::In;

        let wall = "/wall/fyber/offers?affiliate=com.mobvantage.cashforapps";
        let a = router.handle(&Request::get(wall), &us);
        let b = router.handle(&Request::get(wall), &other);
        // Different vantage countries are distinct cache slots (the
        // geo filter changes the body); both were misses.
        assert_eq!(router.cache_stats().misses(), 2);
        assert_eq!(a.status, 200);
        assert_eq!(b.status, 200);

        // POSTs never populate or read the cache.
        let before = router.cache_stats().misses();
        let mut post = Request::get("/healthz-ish");
        post.method = iiscope_wire::http::Method::Post;
        router.handle(&post, &us);
        router.handle(&post, &us);
        assert_eq!(router.cache_stats().misses(), before);
    }

    #[test]
    fn wall_dispatch_matches_direct_handler_bytes() {
        let world = tiny_world();
        let router = world.serve_router();
        let ctx = ctx(&world);
        let via_router = router.handle(
            &Request::get("/wall/offertoro/offers?affiliate=com.mobvantage.cashforapps&page=0"),
            &ctx,
        );
        let direct = world.walls[&IipId::OfferToro].handle(
            &Request::get("/offers?affiliate=com.mobvantage.cashforapps&page=0"),
            &ctx,
        );
        assert_eq!(via_router.body_json().unwrap(), direct.body_json().unwrap());
        assert_ne!(via_router.body_json().unwrap(), Json::Null);
    }
}
