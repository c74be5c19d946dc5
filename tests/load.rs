//! The serve hot path and its measurement harness: the day-versioned
//! response cache must be byte-invisible (every cached response
//! identical to a fresh render, at every route, under version bumps
//! at arbitrary points), and the `iiscope-load` workload generator
//! must measure a real server end to end — probe, ramp stages,
//! closed-loop ceiling, tallies, and the baseline gate.

use iiscope::servefront::{WorldRouter, WorldVersion, CACHE_CAP};
use iiscope::subsystems::honeyapp::HONEY_PACKAGE;
use iiscope::subsystems::load::{self, LoadSpec, LoadStage, MixEntry};
use iiscope::subsystems::netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
use iiscope::subsystems::playstore::frontend::StoreFrontend;
use iiscope::subsystems::serve::{ServeConfig, Server};
use iiscope::subsystems::types::{Country, IipId, SeedFork};
use iiscope::subsystems::wire::http::RequestCtx;
use iiscope::subsystems::wire::{Handler, Request};
use iiscope::{World, WorldConfig};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const AFFILIATE: &str = "com.mobvantage.cashforapps";

/// One small world shared by every test in this binary (building it
/// dominates the suite's wall time; routers and caches are per-test).
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut cfg = WorldConfig::small(7);
        cfg.advertised_apps = 8;
        cfg.baseline_apps = 4;
        World::build(cfg).unwrap()
    })
}

fn ctx_at(world: &World, country: Country) -> RequestCtx {
    RequestCtx {
        peer: PeerInfo {
            addr: HostAddr {
                ip: std::net::Ipv4Addr::new(203, 0, 113, 9),
                asn: AsnId(64512),
                asn_kind: AsnKind::Eyeball,
                country,
            },
            opened_at: world.study_start(),
            link: SeedFork::new(99),
        },
        now: world.study_start(),
    }
}

/// A cached router whose version handle the test controls, so stats
/// assertions cannot be perturbed by the shared world's `day_version`.
fn private_cached_router(world: &World) -> (WorldRouter, WorldVersion) {
    let version = WorldVersion::new();
    let router = WorldRouter::new_cached(
        StoreFrontend::new(Arc::clone(&world.store)),
        world.walls.clone(),
        version.clone(),
    );
    (router, version)
}

/// Every route class the public surface serves, including the cursor
/// pagination variants and the error paths (400/403/404).
fn target_pool(world: &World) -> Vec<String> {
    let mut pool: Vec<String> = IipId::ALL
        .iter()
        .map(|iip| format!("/wall/{}/offers?affiliate={AFFILIATE}", iip.slug()))
        .collect();
    pool.extend([
        // Legacy paging and the cursor variants, on the same wall.
        format!("/wall/fyber/offers?affiliate={AFFILIATE}&page=1"),
        format!("/wall/fyber/offers?affiliate={AFFILIATE}&cursor=0&limit=3"),
        format!("/wall/fyber/offers?affiliate={AFFILIATE}&cursor=3&limit=3"),
        format!("/wall/fyber/offers?affiliate={AFFILIATE}&cursor=9999"),
        format!("/wall/fyber/offers?affiliate={AFFILIATE}&limit=2"),
        format!("/wall/ayetstudios/offers?affiliate={AFFILIATE}&cursor=1&limit=500"),
        // Wall error paths.
        "/wall/fyber/offers".to_string(),
        "/wall/fyber/offers?affiliate=com.not.registered".to_string(),
        "/wall/nosuch/offers".to_string(),
        // Store profiles, charts, APK pulls, and their error paths.
        format!("/store/apps/details?id={HONEY_PACKAGE}"),
        format!(
            "/store/apps/details?id={}",
            world.plan.apps[0].package.as_str()
        ),
        "/store/apps/details".to_string(),
        "/store/apps/details?id=com.no.such.app".to_string(),
        "/store/charts?chart=topselling_free&n=10".to_string(),
        "/store/charts?chart=topselling_free_games&n=5".to_string(),
        "/store/charts?chart=bogus".to_string(),
        format!("/apk?id={HONEY_PACKAGE}"),
        "/apk?id=com.no.such.app".to_string(),
        "/elsewhere".to_string(),
    ]);
    pool
}

proptest! {
    /// The cache is byte-invisible: an arbitrary request sequence over
    /// every route class, from both vantage countries, with version
    /// bumps interleaved at arbitrary points, renders exactly the
    /// bytes of the uncached oracle at every step.
    #[test]
    fn cached_router_is_byte_identical_to_fresh_renders(
        steps in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<bool>(), any::<u8>()),
            1..48,
        )
    ) {
        let world = world();
        let pool = target_pool(world);
        let (cached, version) = private_cached_router(world);
        let fresh = world.serve_router_uncached();
        for (idx, from_in, bump_roll) in steps {
            // ~15% of steps advance the world version mid-sequence.
            if bump_roll < 40 {
                version.bump();
            }
            let target = &pool[idx.index(pool.len())];
            let country = if from_in { Country::In } else { Country::Us };
            let ctx = ctx_at(world, country);
            let got = cached.handle(&Request::get(target.clone()), &ctx).encode();
            let oracle = fresh.handle(&Request::get(target.clone()), &ctx).encode();
            prop_assert_eq!(got, oracle, "cache diverged at {}", target);
        }
        prop_assert!(cached.cache_stats().misses() > 0);
    }
}

/// Repeats against a hot cache hit for every pool target, and a day
/// bump drops the whole map exactly once.
#[test]
fn every_route_caches_and_one_bump_invalidates_all() {
    let world = world();
    let pool = target_pool(world);
    let (router, version) = private_cached_router(world);
    let ctx = ctx_at(world, Country::Us);

    for t in &pool {
        router.handle(&Request::get(t.clone()), &ctx);
    }
    for t in &pool {
        router.handle(&Request::get(t.clone()), &ctx);
    }
    let n = pool.len() as u64;
    assert_eq!(router.cache_stats().misses(), n);
    assert_eq!(router.cache_stats().hits(), n);
    assert_eq!(router.cache_stats().invalidations(), 0);

    version.bump();
    for t in &pool {
        router.handle(&Request::get(t.clone()), &ctx);
    }
    // Every target misses again, but the map was dropped exactly once.
    assert_eq!(router.cache_stats().misses(), 2 * n);
    assert_eq!(router.cache_stats().hits(), n);
    assert_eq!(router.cache_stats().invalidations(), 1);
}

/// Cursor variants occupy distinct cache slots: each paginated view is
/// cached independently and replays its own bytes.
#[test]
fn cursor_variants_are_distinct_cache_slots() {
    let world = world();
    let (router, _version) = private_cached_router(world);
    let ctx = ctx_at(world, Country::Us);
    let variants = [
        format!("/wall/fyber/offers?affiliate={AFFILIATE}"),
        format!("/wall/fyber/offers?affiliate={AFFILIATE}&cursor=0&limit=2"),
        format!("/wall/fyber/offers?affiliate={AFFILIATE}&cursor=2&limit=2"),
    ];
    let first: Vec<_> = variants
        .iter()
        .map(|t| router.handle(&Request::get(t.clone()), &ctx).encode())
        .collect();
    let second: Vec<_> = variants
        .iter()
        .map(|t| router.handle(&Request::get(t.clone()), &ctx).encode())
        .collect();
    assert_eq!(first, second);
    assert_eq!(router.cache_stats().misses(), variants.len() as u64);
    assert_eq!(router.cache_stats().hits(), variants.len() as u64);
}

/// The cap boundary: filling past `CACHE_CAP` distinct targets stops
/// retaining at exactly the cap, overflow targets still render
/// byte-identical to the uncached oracle, and a version bump drops the
/// full map in one invalidation after which it refills byte-identical.
#[test]
fn cache_cap_bounds_retention_without_bending_bytes() {
    let world = world();
    let (router, version) = private_cached_router(world);
    let fresh = world.serve_router_uncached();
    let ctx = ctx_at(world, Country::Us);

    // Distinct query strings are distinct cache keys — exactly the
    // adversarial churn the cap exists for. All 404 renders: cheap,
    // and error paths are cached like any other response.
    let over = CACHE_CAP + 64;
    let target = |i: usize| format!("/store/apps/details?id=com.nope.app{i}");
    for i in 0..over {
        router.handle(&Request::get(target(i)), &ctx);
    }
    assert_eq!(
        router.cache_len(),
        CACHE_CAP,
        "retention must stop at the cap"
    );
    assert_eq!(router.cache_stats().misses(), over as u64);
    assert_eq!(router.cache_stats().invalidations(), 0);

    // Retained and overflow targets alike match the uncached oracle.
    for i in [0, 1, CACHE_CAP - 1, CACHE_CAP, over - 1] {
        let got = router.handle(&Request::get(target(i)), &ctx).encode();
        let oracle = fresh.handle(&Request::get(target(i)), &ctx).encode();
        assert_eq!(got, oracle, "diverged at target {i}");
    }
    // The first CACHE_CAP re-probes were hits; the overflow two missed.
    assert_eq!(router.cache_stats().hits(), 3);
    assert_eq!(router.cache_stats().misses(), over as u64 + 2);

    // One bump drops everything at once, and the refill is
    // byte-identical again.
    version.bump();
    let probe = target(CACHE_CAP / 2);
    let got = router.handle(&Request::get(probe.clone()), &ctx).encode();
    assert_eq!(router.cache_stats().invalidations(), 1);
    assert_eq!(router.cache_len(), 1);
    assert_eq!(
        got,
        fresh.handle(&Request::get(probe.clone()), &ctx).encode()
    );
    let again = router.handle(&Request::get(probe), &ctx).encode();
    assert_eq!(got, again, "post-bump refill must replay its own bytes");
}

/// The harness end to end against a real server: probe validates the
/// mix, an open-loop stage paces near its target, the closed-loop
/// stage leans on the response cache, and the emitted JSON round-trips
/// through the baseline gate.
#[test]
fn load_harness_measures_a_real_server() {
    let world = world();
    let router = world.serve_router();
    let cfg = ServeConfig {
        workers: 2,
        conn_cap: 32,
        sim_now: world.study_end(),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg, router.clone()).unwrap();
    let addr = server.local_addr();

    let mix = vec![
        MixEntry {
            name: "wall:fyber".into(),
            target: format!("/wall/fyber/offers?affiliate={AFFILIATE}"),
            weight: 4,
        },
        MixEntry {
            name: "store:honey".into(),
            target: format!("/store/apps/details?id={HONEY_PACKAGE}"),
            weight: 2,
        },
        MixEntry {
            name: "apk:honey".into(),
            target: format!("/apk?id={HONEY_PACKAGE}"),
            weight: 1,
        },
    ];
    load::probe(addr, &mix).unwrap();
    // A mix with a dead target must fail the probe, not the stages.
    let mut bad = mix.clone();
    bad.push(MixEntry {
        name: "bad".into(),
        target: "/no/such/route".into(),
        weight: 1,
    });
    assert!(load::probe(addr, &bad).is_err());

    let spec = LoadSpec {
        stages: vec![
            LoadStage { qps: 200, secs: 1 },
            LoadStage { qps: 0, secs: 1 },
        ],
        conns: 2,
        mix,
        seed: 42,
    };
    let results = load::run(addr, &spec).unwrap();
    assert_eq!(results.len(), spec.stages.len());
    for r in &results {
        assert!(r.done > 0, "stage completed no requests");
        assert_eq!(r.tally.errors(), 0, "clean run must tally zero errors");
        assert_eq!(r.tally.total(), r.done);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.max_us);
    }
    // The open-loop stage pulses at its schedule — it cannot overshoot
    // the target by more than scheduling jitter allows.
    assert!(
        results[0].achieved_rps <= 220.0,
        "{}",
        results[0].achieved_rps
    );
    // The closed-loop ceiling ran much hotter than the paced stage and
    // was served from the cache.
    assert!(results[1].achieved_rps > results[0].achieved_rps);
    assert!(router.cache_stats().hits() > 0);

    // BENCH_load.json round-trips through the committed-baseline gate:
    // a run compared against itself passes at zero tolerance.
    let json = load::bench_load_json("test", true, &spec, &results);
    let baseline = load::parse_baseline(&json.pretty()).unwrap();
    let measured = load::gate(&results).unwrap();
    load::check_against_baseline(&measured, &baseline, 0.0).unwrap();

    server.stop();
    assert_eq!(server.inflight(), 0);
}
