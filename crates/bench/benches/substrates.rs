//! Substrate micro-benches: the wire formats, crypto-ish layers, and
//! statistics everything else is built on.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iiscope_analysis::libradar::count_libraries;
use iiscope_analysis::stats::{chi2_2x2, chi2_sf};
use iiscope_attribution::ConversionGoal;
use iiscope_core::checkpoint::{self, Snapshot, SnapshotRef};
use iiscope_core::wildsim::{CheckpointPolicy, CRAWL_CHUNK};
use iiscope_core::{Run, RunOptions, World, WorldConfig};
use iiscope_devices::AffiliateApp;
use iiscope_iip::wall::PAGE_SIZE;
use iiscope_iip::{
    CampaignSpec, DeveloperApplication, IipPlatform, Offer, OfferWallHandler, PayoutSplit,
};
use iiscope_monitor::{Dataset, UiFuzzer};
use iiscope_netsim::{encode_frame, AsnId, AsnKind, FrameDecoder, HostAddr, PeerInfo};
use iiscope_playstore::apk::{AdLibrary, ApkInfo};
use iiscope_playstore::charts;
use iiscope_playstore::engagement::DayStats;
use iiscope_types::frame::crc32;
use iiscope_types::rng::ZipfTable;
use iiscope_types::{AppId, Country, DeveloperId, IipId, PackageName, SeedFork, SimTime, Usd};
use iiscope_wire::http::{Request, RequestCtx, Response};
use iiscope_wire::tls::{open_records, seal_records, RecordType};
use iiscope_wire::Handler;
use iiscope_wire::Json;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;

fn sample_offer_wall_body() -> String {
    // A realistic 10-offer wall page.
    let offers: Vec<Json> = (0..10)
        .map(|i| {
            Json::obj([
                ("offer_id", Json::Int(i)),
                ("title", Json::str("Install and Reach level 10")),
                ("payout_usd", Json::Float(0.52)),
                ("package", Json::str(format!("com.adv.app{i}"))),
                (
                    "play_url",
                    Json::str(format!(
                        "https://play.iiscope/store/apps/details?id=com.adv.app{i}"
                    )),
                ),
            ])
        })
        .collect();
    Json::obj([(
        "ofw",
        Json::obj([("offers", Json::Array(offers)), ("count", Json::Int(10))]),
    )])
    .to_string()
}

/// `parse_offer_wall_page` is `Json::parse` on the streaming scanner;
/// `parse_offer_wall_page_reference` is the recursive-descent parser it
/// replaced (`oracles::parse_json_tree`), on the same page.
fn bench_json(c: &mut Criterion) {
    use iiscope_bench::oracles::parse_json_tree;
    let body = sample_offer_wall_body();
    let mut g = c.benchmark_group("json");
    g.throughput(Throughput::Bytes(body.len() as u64));
    g.bench_function("parse_offer_wall_page", |b| {
        b.iter(|| black_box(Json::parse(&body).unwrap()))
    });
    g.bench_function("parse_offer_wall_page_reference", |b| {
        b.iter(|| black_box(parse_json_tree(&body).unwrap()))
    });
    let value = Json::parse(&body).unwrap();
    g.bench_function("serialize_offer_wall_page", |b| {
        b.iter(|| black_box(value.to_string()))
    });
    g.finish();
}

/// Seal and open at the record layer's two hot sizes: a full 16 KiB
/// record and a wall-page-sized 2 KiB one.
fn bench_tls(c: &mut Criterion) {
    let mut g = c.benchmark_group("tls");
    for (label, len) in [("16k", 16 * 1024), ("2k", 2 * 1024)] {
        let payload = vec![0x42u8; len];
        g.throughput(Throughput::Bytes(payload.len() as u64));
        g.bench_function(&format!("seal_{label}"), |b| {
            b.iter(|| {
                let mut seq = 0;
                black_box(seal_records(7, &mut seq, RecordType::AppData, &payload))
            })
        });
        let mut seq = 0;
        let wire = seal_records(7, &mut seq, RecordType::AppData, &payload);
        g.bench_function(&format!("open_{label}"), |b| {
            b.iter(|| {
                let mut recv = 0;
                black_box(open_records(7, &mut recv, &wire).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_http(c: &mut Criterion) {
    let req = Request::post("/offers?affiliate=com.cash.app&page=3", vec![0u8; 256]);
    let wire = req.encode();
    let mut g = c.benchmark_group("http");
    g.bench_function("encode_request", |b| b.iter(|| black_box(req.encode())));
    g.bench_function("parse_request", |b| {
        b.iter(|| black_box(Request::parse(&wire).unwrap().unwrap()))
    });
    let resp = Response::ok_text(sample_offer_wall_body());
    let rwire = resp.encode();
    g.bench_function("parse_response", |b| {
        b.iter(|| black_box(Response::parse(&rwire).unwrap().unwrap()))
    });
    g.finish();
}

/// A crawl-day-sized Fyber wall page (`n` offers) for the milking
/// benches — the hot shape of the wild study.
fn large_offer_wall_body(n: i64) -> String {
    let offers: Vec<Json> = (0..n)
        .map(|i| {
            Json::obj([
                ("offer_id", Json::Int(i)),
                ("title", Json::str("Install and Reach level 10")),
                ("payout_usd", Json::Float(0.52)),
                ("package", Json::str(format!("com.adv.app{i}"))),
                (
                    "play_url",
                    Json::str(format!(
                        "https://play.iiscope/store/apps/details?id=com.adv.app{i}"
                    )),
                ),
            ])
        })
        .collect();
    Json::obj([(
        "ofw",
        Json::obj([("offers", Json::Array(offers)), ("count", Json::Int(n))]),
    )])
    .to_string()
}

/// The zero-copy fast path end to end: one wall page written straight
/// to bytes vs cloned, built as a `Json` tree and serialized, streaming
/// wall parse vs the tree-building reference vs the fuzzer's
/// first-entry probe, raw scanner event
/// throughput, a full sealed-response "milk" (open TLS records →
/// borrowed HTTP view → streaming wall parse) that never copies the
/// body out of the slab, and one whole wall tab milked through the MITM
/// rig.
fn bench_wire_milking(c: &mut Criterion) {
    use iiscope_bench::oracles::parse_wall_tree;
    use iiscope_monitor::{parse_wall, probe_wall};
    use iiscope_types::wirestats::WireCounters;
    use iiscope_wire::{JsonScanner, ResponseView};

    let book = WireCounters::new();
    let mut g = c.benchmark_group("wire_milking");
    // One 10-offer Fyber page. The direct path is the whole handler
    // call (query parsing and the affiliate lookup included); the tree
    // path is only the page clone, the tree and its serialization.
    let (platform, wall) = wall_page_rig();
    let request = Request::get(format!("/offers?affiliate={WALL_AFFILIATE}&page=1"));
    let ctx = wall_ctx();
    g.throughput(Throughput::Elements(PAGE_SIZE as u64));
    g.bench_function("wall_page_direct", |b| {
        b.iter(|| black_box(wall.handle(&request, &ctx)))
    });
    g.bench_function("wall_page_tree", |b| {
        b.iter(|| {
            let page = platform.offers_page(Country::Us, PAGE_SIZE, PAGE_SIZE);
            black_box(Response::ok_json(&fyber_page_tree(&platform, &page)))
        })
    });
    assert_eq!(
        wall.handle(&request, &ctx).body,
        Response::ok_json(&fyber_page_tree(
            &platform,
            &platform.offers_page(Country::Us, PAGE_SIZE, PAGE_SIZE)
        ))
        .body,
        "the two paths write the same page"
    );

    let body = large_offer_wall_body(100);
    g.throughput(Throughput::Bytes(body.len() as u64));
    g.bench_function("parse_wall_streaming_100", |b| {
        b.iter(|| black_box(parse_wall(IipId::Fyber, &body, &book).unwrap()))
    });
    g.bench_function("parse_wall_tree_100", |b| {
        b.iter(|| black_box(parse_wall_tree(IipId::Fyber, &body).unwrap()))
    });
    g.bench_function("probe_wall_100", |b| {
        b.iter(|| black_box(probe_wall(IipId::Fyber, &body, &book).unwrap()))
    });
    g.bench_function("scan_events_100", |b| {
        b.iter(|| {
            let mut sc = JsonScanner::new(&body);
            let mut n = 0usize;
            while let Some(ev) = sc.next_event().unwrap() {
                black_box(&ev);
                n += 1;
            }
            n
        })
    });
    let resp = Response::ok_text(body.clone());
    let mut seq = 0;
    let wire = seal_records(7, &mut seq, RecordType::AppData, &resp.encode());
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("milk_sealed_response_100", |b| {
        b.iter(|| {
            let mut recv = 0;
            let plain = open_records(7, &mut recv, &wire).unwrap();
            let (view, _) = ResponseView::parse(&plain).unwrap().unwrap();
            black_box(parse_wall(IipId::Fyber, view.body_str().unwrap(), &book).unwrap())
        })
    });
    // The whole path a crawl day pays per tab: the phone's TLS to the
    // MITM proxy, decrypt + tap + re-encrypt, the wall's TLS, the HTTP
    // engine and the wall handler, for 40 pages and the empty page
    // that ends the scroll. Built on first use, so filtered runs skip
    // the world build.
    let mut rig = None;
    g.throughput(Throughput::Elements(MILK_TAB_OFFERS as u64));
    g.bench_function("milk_tab_40_pages", |b| {
        let (world, app) = rig.get_or_insert_with(milk_tab_rig);
        let fuzzer = UiFuzzer::default();
        b.iter(|| black_box(world.infra.milk(app, Country::Us, &fuzzer).unwrap()))
    });
    g.finish();
}

/// The affiliate [`wall_page_rig`] registers, at 1,000 points a dollar.
const WALL_AFFILIATE: &str = "com.bench.affiliate";

/// A Fyber wall with 40 worldwide offers.
fn wall_page_rig() -> (Arc<IipPlatform>, OfferWallHandler) {
    let platform = Arc::new(IipPlatform::new(IipId::Fyber, SeedFork::new(17)));
    platform
        .register_developer(&DeveloperApplication {
            developer: DeveloperId(1),
            has_tax_id: true,
            has_bank_account: true,
            deposit: Usd::from_dollars(10_000),
        })
        .expect("developer");
    for i in 0..40 {
        let package = format!("com.bench.page.app{i}");
        platform
            .create_campaign(
                CampaignSpec {
                    developer: DeveloperId(1),
                    store_url: format!("https://play.iiscope/store/apps/details?id={package}"),
                    package: PackageName::new(package).expect("package"),
                    goal: ConversionGoal::InstallAndOpen,
                    payout: Usd::from_cents(40 + i),
                    cap: 50,
                    countries: vec![],
                },
                SimTime::EPOCH,
            )
            .expect("campaign");
    }
    let wall = OfferWallHandler::new(Arc::clone(&platform));
    wall.register_affiliate(WALL_AFFILIATE, 1_000);
    (platform, wall)
}

fn wall_ctx() -> RequestCtx {
    RequestCtx {
        peer: PeerInfo {
            addr: HostAddr {
                ip: std::net::Ipv4Addr::new(9, 9, 9, 9),
                asn: AsnId(1),
                asn_kind: AsnKind::Eyeball,
                country: Country::Us,
            },
            opened_at: SimTime::EPOCH,
            link: SeedFork::new(1),
        },
        now: SimTime::EPOCH,
    }
}

/// A Fyber page as the wall rendered it before it wrote bytes
/// directly: a `Json` tree per offer, serialized by `Response::ok_json`.
fn fyber_page_tree(platform: &IipPlatform, offers: &[Offer]) -> Json {
    let entries: Vec<Json> = offers
        .iter()
        .map(|o| {
            let usd = PayoutSplit::compute(
                o.payout,
                platform.profile.iip_cut_percent,
                platform.affiliate_cut_percent,
            )
            .user_share;
            Json::obj([
                ("offer_id", Json::Int(o.id.raw() as i64)),
                ("title", Json::str(&o.description)),
                ("payout_usd", Json::Float(usd.dollars_f64())),
                ("package", Json::str(o.package.as_str())),
                ("play_url", Json::str(&o.store_url)),
            ])
        })
        .collect();
    let count = Json::Int(entries.len() as i64);
    Json::obj([(
        "ofw",
        Json::obj([("offers", Json::Array(entries)), ("count", count)]),
    )])
}

/// One crawl chunk: 64 profiles on one kept store session (the wild
/// study's path, [`World::crawl_profiles`]) against a fresh client, and
/// so a fresh connection and handshake, per profile.
fn bench_crawl(c: &mut Criterion) {
    let world = World::build(WorldConfig::small(13)).expect("world build");
    let plan: Vec<&str> = world
        .plan
        .baseline
        .iter()
        .map(|b| b.package.as_str())
        .cycle()
        .take(CRAWL_CHUNK)
        .collect();
    let now = world.study_start();
    let mut g = c.benchmark_group("crawl");
    g.throughput(Throughput::Elements(plan.len() as u64));
    g.bench_function("profiles_64_kept_session", |b| {
        b.iter(|| black_box(world.crawl_profiles(&plan, now).unwrap()))
    });
    g.bench_function("profiles_64_fresh_client", |b| {
        b.iter(|| {
            let snaps: Vec<_> = plan
                .iter()
                .enumerate()
                .map(|(j, pkg)| world.crawler_indexed(j as u64).profile(pkg, now))
                .collect();
            black_box(snaps)
        })
    });
    g.finish();
}

/// Offers on the one wall [`milk_tab_rig`] stocks: 40 full pages.
const MILK_TAB_OFFERS: usize = 400;

/// A small world whose Fyber wall carries [`MILK_TAB_OFFERS`]
/// worldwide offers, plus an affiliate app cut down to its Fyber tab.
fn milk_tab_rig() -> (World, AffiliateApp) {
    let world = World::build(WorldConfig::small(11)).expect("world build");
    let platform = &world.platforms[&IipId::Fyber];
    let developer = DeveloperId(900_000);
    platform
        .register_developer(&DeveloperApplication {
            developer,
            has_tax_id: true,
            has_bank_account: true,
            deposit: Usd::from_dollars(100_000),
        })
        .expect("developer");
    for i in 0..MILK_TAB_OFFERS {
        let package = format!("com.bench.milk.app{i}");
        platform
            .create_campaign(
                CampaignSpec {
                    developer,
                    store_url: format!("https://play.iiscope/store/apps/details?id={package}"),
                    package: PackageName::new(package).expect("package"),
                    goal: ConversionGoal::InstallAndOpen,
                    payout: Usd::from_cents(40),
                    cap: 50,
                    countries: vec![],
                },
                world.study_start(),
            )
            .expect("campaign");
    }
    let mut app = AffiliateApp::table2_catalog().remove(0);
    app.tabs.retain(|t| t.iip == IipId::Fyber);
    let fuzzer = UiFuzzer::default();
    let offers = world.infra.milk(&app, Country::Us, &fuzzer).unwrap();
    assert_eq!(offers.len(), MILK_TAB_OFFERS, "one tab, every page");
    (world, app)
}

fn bench_framing(c: &mut Criterion) {
    let payload = vec![7u8; 4096];
    let mut wire = BytesMut::new();
    for _ in 0..16 {
        encode_frame(&mut wire, &payload);
    }
    let mut g = c.benchmark_group("framing");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("decode_16x4k", |b| {
        b.iter(|| {
            let mut dec = FrameDecoder::new();
            dec.extend(&wire);
            black_box(dec.drain_frames().unwrap())
        })
    });
    g.finish();

    // The checkpoint/spill CRC over 1 MiB of non-uniform bytes.
    let mib: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let mut g = c.benchmark_group("framing");
    g.throughput(Throughput::Bytes(mib.len() as u64));
    g.bench_function("crc32_1m", |b| b.iter(|| black_box(crc32(black_box(&mib)))));
    g.finish();

    // One snapshot of a small world's last study day, restored into a
    // dataset and encoded from it, as the live study encodes.
    fn ledger(l: &[(String, u64)]) -> Vec<(&str, u64)> {
        l.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }
    let snap = last_day_snapshot();
    let dataset = Dataset::new()
        .restored(snap.dataset)
        .expect("the snapshot restores");
    let view = SnapshotRef {
        day: snap.day,
        seed: snap.seed,
        fingerprint: snap.fingerprint,
        sim_bytes: &snap.sim_bytes,
        crawler: snap.crawler,
        dataset: &dataset,
        chaos_counters: ledger(&snap.chaos_counters),
        wire_counters: ledger(&snap.wire_counters),
        aggregates: &snap.aggregates,
    };
    let encode = || {
        view.write_to(Cursor::new(Vec::new()))
            .expect("in memory")
            .into_inner()
    };
    let bytes = encode().len();
    let mut g = c.benchmark_group("framing");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("encode_snapshot", |b| b.iter(|| black_box(encode())));
    g.finish();
}

/// Runs the small world's studies with a snapshot on the last day
/// only, into a temp dir, and returns that snapshot decoded.
fn last_day_snapshot() -> Snapshot {
    let dir = std::env::temp_dir().join(format!("iiscope-bench-snap-{}", std::process::id()));
    let cfg = WorldConfig::small(31_337);
    let checkpoint = Some(CheckpointPolicy {
        dir: dir.clone(),
        every_days: cfg.monitoring_days,
    });
    let run = Run::new(cfg).expect("world build");
    run.study(RunOptions {
        checkpoint,
        ..RunOptions::default()
    })
    .expect("studies");
    let (snap, _) = checkpoint::load_latest(&dir)
        .expect("scan snapshots")
        .snapshot
        .expect("the last day's snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    snap
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats");
    g.bench_function("chi2_2x2", |b| {
        b.iter(|| black_box(chi2_2x2(294.0, 6.0, 431.0, 61.0).unwrap()))
    });
    g.bench_function("chi2_sf_tail", |b| b.iter(|| black_box(chi2_sf(26.0, 1))));
    g.finish();
}

fn bench_libradar(c: &mut Criterion) {
    let apk = ApkInfo {
        ad_libraries: AdLibrary::ALL.into_iter().take(12).collect(),
        obfuscation: 0.2,
        dynamic_libraries: vec![],
    }
    .render(SeedFork::new(5));
    let mut g = c.benchmark_group("libradar");
    g.throughput(Throughput::Bytes(apk.len() as u64));
    g.bench_function("scan_apk", |b| b.iter(|| black_box(count_libraries(&apk))));
    g.finish();
}

fn bench_charts(c: &mut Criterion) {
    let entries: Vec<(AppId, f64)> = (0..1_200)
        .map(|i| (AppId(i), (i as f64 * 37.0) % 9_999.0))
        .collect();
    let mut g = c.benchmark_group("charts");
    g.bench_function("rank_1200_apps", |b| {
        b.iter(|| black_box(charts::rank(entries.iter().copied())))
    });
    let stats = DayStats {
        installs: 100,
        sessions: 500,
        session_secs: 90_000,
        registrations: 40,
        purchases: 5,
        revenue_micros: 25_000_000,
    };
    g.bench_function("score", |b| {
        b.iter(|| {
            black_box(charts::score(
                charts::ChartRanking::EngagementWeighted,
                charts::ChartKind::TopFree,
                &stats,
            ))
        })
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let table = ZipfTable::new(10_000, 1.1);
    let mut rng = SeedFork::new(1).rng();
    let mut g = c.benchmark_group("rng");
    g.bench_function("zipf_sample", |b| {
        b.iter(|| black_box(table.sample(&mut rng)))
    });
    g.finish();
}

fn bench_money(c: &mut Criterion) {
    let mut g = c.benchmark_group("money");
    g.bench_function("usd_parse", |b| {
        b.iter(|| black_box(Usd::parse("$2.98").unwrap()))
    });
    let v: Vec<Usd> = (0..1_000).map(Usd::from_cents).collect();
    g.bench_function("usd_median_1000", |b| b.iter(|| black_box(Usd::median(&v))));
    g.finish();
}

/// A wild-study-shaped dataset: ~600 packages × repeated observations
/// across 46 crawl days (the paper's 92-day window at cadence 2), with
/// per-package profile timelines and chart snapshots.
fn synthetic_dataset() -> iiscope_monitor::Dataset {
    use iiscope_monitor::crawler::{ChartSnapshot, ProfileSnapshot};
    use iiscope_monitor::parsers::{RawOffer, RewardValue, ScrapedOffer};
    use iiscope_types::{Country, IipId, SimTime};

    let mut ds = iiscope_monitor::Dataset::new();
    for day in (0..92u64).step_by(2) {
        let offers = (0..600)
            .filter(|p| !(p + day as usize).is_multiple_of(3))
            .map(|p| {
                let iip = IipId::ALL[p % IipId::ALL.len()];
                ScrapedOffer {
                    iip,
                    raw: RawOffer {
                        offer_key: (p as u64) << 8 | (p as u64 % 5),
                        description: format!("Install and reach level {}", p % 12),
                        reward: RewardValue::Cents(5 + (p as i64 % 40)),
                        package: format!("com.adv.app{p}"),
                        store_url: format!(
                            "https://play.iiscope/store/apps/details?id=com.adv.app{p}"
                        ),
                    },
                    seen_at: SimTime::from_days(day),
                    affiliate: "com.cash.app".into(),
                    vantage: Country::Us,
                }
            });
        ds.add_offers(offers);
        for p in (0..600).step_by(4) {
            ds.add_profile(ProfileSnapshot {
                day,
                package: format!("com.adv.app{p}"),
                title: format!("App {p}"),
                genre_id: "TOOLS".into(),
                released_day: 1,
                min_installs: 1_000 + day * 50,
                developer_id: p as u64,
                developer_name: format!("dev{p}"),
                developer_country: "US".into(),
                developer_email: format!("d{p}@example.com"),
                developer_website: String::new(),
                rating: 4.0,
                rating_count: 100,
            });
        }
        ds.add_chart(ChartSnapshot {
            day,
            chart: "topselling_free",
            entries: (0..200)
                .map(|r| (format!("com.adv.app{}", r * 3), r + 1))
                .collect(),
        });
    }
    ds
}

fn bench_dataset_queries(c: &mut Criterion) {
    let ds = synthetic_dataset();
    let pkg = "com.adv.app4";
    let mut g = c.benchmark_group("substrates");
    g.bench_function("dataset_queries/unique_offers", |b| {
        b.iter(|| black_box(ds.unique_offers().len()))
    });
    g.bench_function("dataset_queries/observations", |b| {
        b.iter(|| black_box(ds.observations().len()))
    });
    g.bench_function("dataset_queries/profile_series", |b| {
        b.iter(|| black_box(ds.profile_series(black_box(pkg)).len()))
    });
    g.bench_function("dataset_queries/packages_on", |b| {
        b.iter(|| black_box(ds.packages_on(iiscope_types::IipId::Fyber).len()))
    });
    g.bench_function("dataset_queries/packages_by_class", |b| {
        b.iter(|| black_box(ds.packages_by_class(true).len()))
    });
    g.bench_function("dataset_queries/in_any_chart", |b| {
        b.iter(|| black_box(ds.in_any_chart(black_box("com.adv.app9"), 10, 40)))
    });
    g.finish();
}

/// The interned columnar core against the `String`-keyed shapes it
/// replaced: full ingest (interned `Dataset` vs the kept
/// `oracles::StringIndexedIngest` reference) and the experiment-side campaign
/// join (`Sym` bitset walk vs string-set walk + `BTreeMap` lookups).
fn bench_dataset_intern(c: &mut Criterion) {
    use iiscope_bench::oracles::StringIndexedIngest;
    use iiscope_monitor::parsers::{RawOffer, RewardValue, ScrapedOffer};
    use iiscope_types::{Country, IipId, SimTime};

    // The offer stream of `synthetic_dataset`, flattened so each
    // ingest iteration replays the whole 46-crawl-day window.
    let offers: Vec<ScrapedOffer> = (0..92u64)
        .step_by(2)
        .flat_map(|day| {
            (0..600)
                .filter(move |p| !(p + day as usize).is_multiple_of(3))
                .map(move |p| {
                    let iip = IipId::ALL[p % IipId::ALL.len()];
                    ScrapedOffer {
                        iip,
                        raw: RawOffer {
                            offer_key: (p as u64) << 8 | (p as u64 % 5),
                            description: format!("Install and reach level {}", p % 12),
                            reward: RewardValue::Cents(5 + (p as i64 % 40)),
                            package: format!("com.adv.app{p}"),
                            store_url: format!(
                                "https://play.iiscope/store/apps/details?id=com.adv.app{p}"
                            ),
                        },
                        seen_at: SimTime::from_days(day),
                        affiliate: "com.cash.app".into(),
                        vantage: Country::Us,
                    }
                })
        })
        .collect();
    let ds = synthetic_dataset();

    let mut g = c.benchmark_group("substrates");
    g.throughput(Throughput::Elements(offers.len() as u64));
    g.bench_function("dataset_intern/ingest_interned", |b| {
        b.iter(|| {
            let mut ds = iiscope_monitor::Dataset::new();
            ds.add_offers(offers.iter().cloned());
            black_box(ds.unique_offer_count())
        })
    });
    g.bench_function("dataset_intern/ingest_string_baseline", |b| {
        b.iter(|| {
            let mut ds = StringIndexedIngest::new();
            ds.add_offers(offers.iter().cloned());
            black_box(ds.unique_offers())
        })
    });
    g.throughput(Throughput::Elements(1));
    g.bench_function("dataset_intern/campaign_join_sym", |b| {
        b.iter(|| {
            let mut days = 0u64;
            for sym in ds.class_syms(true).iter() {
                if let Some(obs) = ds.campaign(black_box(sym)) {
                    days += obs.duration_days();
                }
            }
            black_box(days)
        })
    });
    g.bench_function("dataset_intern/campaign_join_string", |b| {
        b.iter(|| {
            let mut days = 0u64;
            for pkg in ds.packages_by_class(true) {
                if let Some(obs) = ds.observation(black_box(pkg)) {
                    days += obs.duration_days();
                }
            }
            black_box(days)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_json,
    bench_tls,
    bench_http,
    bench_wire_milking,
    bench_crawl,
    bench_framing,
    bench_stats,
    bench_libradar,
    bench_charts,
    bench_rng,
    bench_money,
    bench_dataset_queries,
    bench_dataset_intern,
);
criterion_main!(benches);
