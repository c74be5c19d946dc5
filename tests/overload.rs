//! Overload resilience end to end: a server with armed shed watermarks
//! keeps its honest clients whole while a deterministic hostile mix
//! (aborters, slowloris, idlers, flooders) leans on it, and a killed
//! accept worker is respawned without dropping the pool.
//!
//! Two layers run here:
//!
//! * the in-suite **degradation** tests — short clean vs hostile runs,
//!   asserting goodput and p99 bounds plus zero worker deaths, and a
//!   hostile plan that holds every connection permit, which only the
//!   serve limits that reclaim a held permit or shed a late render
//!   keep from starving honest clients — gate every PR;
//! * the `#[ignore]`d **soak** — longer stages, an uncached router so
//!   renders are expensive enough to trip the watermarks, and a
//!   `BENCH_overload.json` artifact — runs nightly in CI.

use iiscope::subsystems::honeyapp::HONEY_PACKAGE;
use iiscope::subsystems::load::hostile::{HostileMix, HostilePlan};
use iiscope::subsystems::load::{self, LoadSpec, LoadStage, MixEntry, StageResult};
use iiscope::subsystems::serve::{ServeConfig, Server, ShedConfig};
use iiscope::subsystems::wire::http::{Request, Response};
use iiscope::subsystems::wire::Json;
use iiscope::{World, WorldConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

const AFFILIATE: &str = "com.mobvantage.cashforapps";

/// One small world shared by every test in this binary.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut cfg = WorldConfig::small(7);
        cfg.advertised_apps = 8;
        cfg.baseline_apps = 4;
        World::build(cfg).unwrap()
    })
}

/// The watermark set both runs of a comparison share — the comparison
/// is hostile-vs-clean traffic, never armed-vs-unarmed servers.
fn shed_config() -> ShedConfig {
    ShedConfig {
        accept_queue_ms: Some(250),
        max_inflight: Some(16),
        per_route: Some(12),
        deadline: Some(Duration::from_millis(500)),
    }
}

fn honest_mix() -> Vec<MixEntry> {
    vec![
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
    ]
}

fn hostile_plan(seed: u64) -> HostilePlan {
    HostilePlan {
        aborters: 2,
        slowloris: 2,
        idlers: 2,
        flooders: 1,
        drip_ms: 10,
        seed,
        targets: vec![
            format!("/wall/fyber/offers?affiliate={AFFILIATE}"),
            format!("/store/apps/details?id={HONEY_PACKAGE}"),
        ],
    }
}

/// Sums honest-client books across stages into one comparison row.
struct RunSummary {
    goodput_rps: f64,
    p99_us: u64,
    errors: u64,
    sheds: u64,
}

fn summarize(results: &[StageResult]) -> RunSummary {
    RunSummary {
        goodput_rps: results.iter().map(StageResult::goodput_rps).sum::<f64>()
            / results.len().max(1) as f64,
        p99_us: results.iter().map(|r| r.p99_us).max().unwrap_or(0),
        errors: results.iter().map(|r| r.tally.errors()).sum(),
        sheds: results.iter().map(|r| r.tally.sheds_503).sum(),
    }
}

/// The PR gate: with the watermarks armed, a hostile mix may cost the
/// honest clients some throughput and latency, but bounded amounts —
/// and no worker dies.
#[test]
fn hostile_mix_degrades_but_does_not_starve_honest_clients() {
    let world = world();
    let spec = LoadSpec {
        stages: vec![LoadStage { qps: 300, secs: 2 }],
        conns: 4,
        mix: honest_mix(),
        seed: 42,
    };

    let cfg = ServeConfig {
        workers: 2,
        conn_cap: 64,
        sim_now: world.study_end(),
        shed: shed_config(),
        ..ServeConfig::default()
    };

    // Clean baseline: honest load only.
    let server = Server::start("127.0.0.1:0", cfg.clone(), world.serve_router()).unwrap();
    let clean = summarize(&load::run(server.local_addr(), &spec).unwrap());
    assert_eq!(clean.errors, 0, "clean run must be error-free");
    assert_eq!(server.counters().worker_respawns(), 0);
    assert_eq!(server.counters().conn_panics(), 0);
    server.stop();

    // Same server config, same honest load, hostile mix alongside.
    let server = Server::start("127.0.0.1:0", cfg, world.serve_router()).unwrap();
    let mix = HostileMix::launch(server.local_addr(), &hostile_plan(42));
    let hostile = summarize(&load::run(server.local_addr(), &spec).unwrap());
    let hstats = mix.stop();

    // The hostile clients actually did their jobs.
    assert!(hstats.aborts > 0, "aborters never fired");
    assert!(hstats.drip_bytes > 0, "slowloris never dripped");
    assert!(hstats.idle_sessions > 0, "idlers never parked");
    assert!(hstats.floods > 0, "flooders never flooded");

    // Honest clients stay whole: bounded goodput and latency cost,
    // no responses outside the 2xx/404/503 envelope.
    eprintln!(
        "honest p99: clean {}us, hostile {}us; goodput: clean {:.0} rps, hostile {:.0} rps",
        clean.p99_us, hostile.p99_us, clean.goodput_rps, hostile.goodput_rps
    );
    assert_eq!(hostile.errors, 0, "honest clients saw hard errors");
    assert!(
        hostile.goodput_rps >= 0.70 * clean.goodput_rps,
        "goodput collapsed: hostile {:.0} vs clean {:.0} rps",
        hostile.goodput_rps,
        clean.goodput_rps
    );
    // The floor is twice the largest hostile p99 of twenty full debug
    // `cargo test -q` runs on a 2-vCPU VM (49.6 ms; the median was
    // 10.3 ms): below it an unoptimized build sharing two cores sets
    // the tail, not the hostile mix.
    let p99_ceiling = (3 * clean.p99_us).max(100_000);
    assert!(
        hostile.p99_us <= p99_ceiling,
        "honest p99 blew out: {}us vs ceiling {}us (clean {}us)",
        hostile.p99_us,
        p99_ceiling,
        clean.p99_us
    );

    // The pool survived the abuse: nothing died, nothing respawned.
    assert_eq!(
        server.counters().worker_respawns(),
        0,
        "a worker died under load"
    );
    assert_eq!(server.counters().conn_panics(), 0);
    server.stop();
    assert_eq!(server.inflight(), 0);
}

/// More slowloris and idle connections than the server has permits,
/// each kind twice `conn_cap`: without a limit that reclaims a held
/// permit, the pool stays full and honest connections wait in the
/// listen backlog until they time out.
fn pool_filling_plan(conn_cap: usize, seed: u64) -> HostilePlan {
    HostilePlan {
        aborters: 0,
        slowloris: 2 * conn_cap,
        idlers: 2 * conn_cap,
        flooders: 0,
        // A whole request takes ~9 s to drip, and every byte renews
        // the idle clock: only the parse deadline reclaims the permit.
        drip_ms: 100,
        seed,
        targets: vec![format!("/wall/fyber/offers?affiliate={AFFILIATE}")],
    }
}

/// Writes `n` APK requests in one write and reads every answer back,
/// returning the statuses in order (fewer than `n` if the server hung
/// up or went silent for 10 s).
fn pipelined_statuses(addr: SocketAddr, n: usize) -> Vec<u16> {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let wire = Request::get(format!("/apk?id={HONEY_PACKAGE}")).encode();
    conn.write_all(&wire.repeat(n)).unwrap();
    let (mut buf, mut chunk, mut statuses) = (Vec::new(), [0u8; 16 * 1024], Vec::new());
    while statuses.len() < n {
        if let Ok(Some((resp, consumed))) = Response::parse(&buf) {
            buf.drain(..consumed);
            statuses.push(resp.status);
            continue;
        }
        match conn.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            _ => break,
        }
    }
    statuses
}

/// The permit-pool gate: a hostile plan holds every connection permit
/// of a small server, so honest clients get in only because the serve
/// limits free held permits — the parse deadline 408s a dripping
/// request, the idle timeout closes a silent connection — and a
/// pipelined batch's late requests are shed before render (the
/// pre-render deadline) instead of rendering past their budget.
/// Disabling any one of those three limits fails this test.
#[test]
fn a_plan_holding_every_permit_cannot_starve_honest_clients() {
    const CONN_CAP: usize = 8;
    const BATCH: usize = 200;
    let world = world();
    let cfg = ServeConfig {
        workers: 2,
        conn_cap: CONN_CAP,
        idle_timeout: Duration::from_millis(300),
        sim_now: world.study_end(),
        shed: ShedConfig {
            // A pipelined batch of uncached renders outlasts this
            // budget many times over, in debug and release builds; a
            // single request is parsed and dispatched well within it.
            deadline: Some(Duration::from_micros(100)),
            ..ShedConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg, world.serve_router_uncached()).unwrap();
    let addr = server.local_addr();
    let mix = HostileMix::launch(addr, &pool_filling_plan(CONN_CAP, 42));
    // Let the hostile clients take every permit before honest traffic
    // queues up behind them.
    std::thread::sleep(Duration::from_millis(200));
    let batch = std::thread::spawn(move || pipelined_statuses(addr, BATCH));
    let spec = LoadSpec {
        stages: vec![LoadStage { qps: 100, secs: 3 }],
        conns: 4,
        mix: honest_mix(),
        seed: 42,
    };
    let honest = summarize(&load::run(addr, &spec).unwrap());
    let statuses = batch.join().unwrap();
    let hstats = mix.stop();
    let c = server.counters();
    eprintln!(
        "permit pool: honest goodput {:.0} rps, p99 {}us, {} sheds; batch {} answered, {} shed; \
         server 408s {}, idle closes {}, deadline sheds {}",
        honest.goodput_rps,
        honest.p99_us,
        honest.sheds,
        statuses.len(),
        statuses.iter().filter(|&&s| s == 503).count(),
        c.deadline_408s(),
        c.idle_timeouts(),
        c.sheds_deadline()
    );

    // Honest clients were served: no hard errors, and at least half the
    // offered load answered 2xx despite the wait for a first permit.
    assert_eq!(honest.errors, 0, "honest clients saw hard errors");
    assert!(
        honest.goodput_rps >= 50.0,
        "honest goodput {:.0} rps of 100 offered",
        honest.goodput_rps
    );
    // The pipelined batch was answered in full, its late requests shed
    // before render rather than rendered past their budget.
    assert_eq!(statuses.len(), BATCH, "the pipelined batch went unanswered");
    assert!(
        statuses.iter().all(|&s| s == 200 || s == 503),
        "the pipelined batch saw {statuses:?}"
    );
    assert!(
        statuses.contains(&503) && c.sheds_deadline() > 0,
        "no late pipelined request was shed before render"
    );
    // The hostile clients did their jobs, and the limits that reclaim
    // their permits acted: dripping requests were cut off and silent
    // connections closed.
    assert!(hstats.drip_bytes > 0, "slowloris never dripped");
    assert!(hstats.idle_sessions > 0, "idlers never parked");
    assert!(
        c.deadline_408s() > 0,
        "no dripping request hit the deadline"
    );
    assert!(c.idle_timeouts() > 0, "no silent connection timed out");
    assert_eq!(c.worker_respawns(), 0, "a worker died under load");
    assert_eq!(c.conn_panics(), 0);
    server.stop();
    assert_eq!(server.inflight(), 0);
}

/// Supervision proof at the integration level: an injected acceptor
/// panic mid-traffic is respawned and the restored pool keeps serving
/// the honest mix.
#[test]
fn injected_worker_death_heals_under_live_traffic() {
    let world = world();
    let cfg = ServeConfig {
        workers: 2,
        conn_cap: 32,
        sim_now: world.study_end(),
        shed: shed_config(),
        fault_panic_after_conns: Some(2),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg, world.serve_router()).unwrap();
    let spec = LoadSpec {
        stages: vec![LoadStage { qps: 200, secs: 1 }],
        conns: 4,
        mix: honest_mix(),
        seed: 7,
    };
    let summary = summarize(&load::run(server.local_addr(), &spec).unwrap());
    // The fault fires once traffic crosses the threshold; give the
    // supervisor its tick to replace the dead worker.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.counters().worker_respawns() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.counters().worker_respawns(),
        1,
        "supervisor never respawned"
    );
    assert_eq!(summary.errors, 0, "the worker death surfaced to clients");
    assert!(summary.goodput_rps > 0.0);
    // The restored pool still accepts fresh connections.
    load::probe(server.local_addr(), &honest_mix()).unwrap();
    server.stop();
    assert_eq!(server.inflight(), 0);
}

/// Nightly soak: longer stages over an *uncached* router (renders are
/// expensive, so the watermarks genuinely trip), a closed-loop burst
/// that must produce visible 503 sheds, and the `BENCH_overload.json`
/// artifact CI uploads. Run with:
/// `cargo test -q --release --test overload -- --ignored`.
#[test]
#[ignore = "nightly soak; run explicitly"]
fn overload_soak_emits_bench_json() {
    let world = world();
    let spec = LoadSpec {
        stages: vec![
            LoadStage { qps: 500, secs: 3 },
            LoadStage { qps: 0, secs: 3 },
        ],
        conns: 8,
        mix: honest_mix(),
        seed: 42,
    };
    let cfg = ServeConfig {
        workers: 2,
        conn_cap: 64,
        sim_now: world.study_end(),
        shed: ShedConfig {
            accept_queue_ms: Some(250),
            // Tight enough that the closed-loop burst over an uncached
            // router must shed, loose enough that the paced stage
            // mostly renders.
            max_inflight: Some(6),
            per_route: Some(6),
            deadline: Some(Duration::from_millis(500)),
        },
        ..ServeConfig::default()
    };

    let server = Server::start("127.0.0.1:0", cfg.clone(), world.serve_router_uncached()).unwrap();
    let clean_results = load::run(server.local_addr(), &spec).unwrap();
    let clean = summarize(&clean_results);
    let clean_sheds_server = server.sheds();
    assert_eq!(server.counters().worker_respawns(), 0);
    server.stop();

    let server = Server::start("127.0.0.1:0", cfg, world.serve_router_uncached()).unwrap();
    let mix = HostileMix::launch(server.local_addr(), &hostile_plan(42));
    let hostile_results = load::run(server.local_addr(), &spec).unwrap();
    let hstats = mix.stop();
    let hostile = summarize(&hostile_results);
    let hostile_sheds_server = server.sheds();
    let respawns = server.counters().worker_respawns();
    let panics = server.counters().conn_panics();
    server.stop();

    // Sheds are visible as 503 counts — on the server's books and in
    // the honest clients' tallies — never as errors.
    assert!(
        clean.sheds + hostile.sheds > 0 || clean_sheds_server + hostile_sheds_server > 0,
        "the burst stage never tripped a watermark"
    );
    assert_eq!(clean.errors, 0);
    assert_eq!(hostile.errors, 0);
    assert_eq!(respawns, 0, "a worker died during the soak");
    assert!(
        hostile.goodput_rps >= 0.70 * clean.goodput_rps,
        "goodput collapsed: hostile {:.0} vs clean {:.0} rps",
        hostile.goodput_rps,
        clean.goodput_rps
    );
    let p99_ceiling = ((3 * clean.p99_us) as f64).max(2_000.0);
    assert!(
        (hostile.p99_us as f64) <= p99_ceiling,
        "honest p99 blew out: {}us vs ceiling {:.0}us",
        hostile.p99_us,
        p99_ceiling
    );

    let stage_rows = |results: &[StageResult]| {
        Json::arr(results.iter().map(|r| {
            let row = [
                ("qps_target", r.stage.qps.into()),
                ("secs", r.stage.secs.into()),
                ("done", r.done.into()),
                ("requests_per_sec", r.achieved_rps.into()),
                ("goodput_rps", r.goodput_rps().into()),
                ("p50_us", r.p50_us.into()),
                ("p99_us", r.p99_us.into()),
                ("reconnects", r.reconnects.into()),
            ];
            let tally = r.tally.fields().map(|(k, v)| (k, v.into()));
            Json::obj(row.into_iter().chain(tally))
        }))
    };
    let goodput = (hostile.goodput_rps / clean.goodput_rps.max(1e-9)).into();
    let p99 = (hostile.p99_us as f64 / clean.p99_us.max(1) as f64).into();
    let doc = iiscope_bench::document(
        "small",
        7,
        1,
        [
            (
                "shed",
                Json::obj([
                    ("accept_queue_ms", 250u64.into()),
                    ("max_inflight", 6u64.into()),
                    ("per_route", 6u64.into()),
                    ("deadline_ms", 500u64.into()),
                ]),
            ),
            ("clean", stage_rows(&clean_results)),
            ("hostile", stage_rows(&hostile_results)),
            (
                "hostile_clients",
                Json::obj([
                    ("aborts", hstats.aborts.into()),
                    ("drip_bytes", hstats.drip_bytes.into()),
                    ("idle_sessions", hstats.idle_sessions.into()),
                    ("floods", hstats.floods.into()),
                    ("denied_503", hstats.denied_503.into()),
                    ("server_closes", hstats.server_closes.into()),
                ]),
            ),
            (
                "server",
                Json::obj([
                    ("sheds_503_clean", clean_sheds_server.into()),
                    ("sheds_503_hostile", hostile_sheds_server.into()),
                    ("conn_panics", panics.into()),
                    ("worker_respawns", respawns.into()),
                ]),
            ),
            ("ratios", Json::obj([("goodput", goodput), ("p99", p99)])),
        ],
    );
    iiscope_bench::write("BENCH_overload.json", &doc).unwrap();
    eprintln!("{}", doc.pretty());
}
