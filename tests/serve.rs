//! The socket server front-end: conformance, adversarial robustness,
//! soak, and the determinism guard.
//!
//! Wire parity is the load-bearing contract: a real TCP client must
//! see byte-for-byte the responses the in-process engine produces for
//! the same input stream, at every fragmentation (whole requests,
//! byte-at-a-time trickle, full pipeline, arbitrary chunking). On top
//! of that, adversarial clients (slowloris, half-close, garbage,
//! oversized frames) must get the mapped status or a clean drop —
//! never a panic or a hung worker — and serving a world mid-run must
//! leave the seed-42 report and CSVs byte-identical to a no-server
//! run. The nightly `--ignored` soak emits `BENCH_serve.json`.

mod common;

use bytes::{Bytes, BytesMut};
use common::reduced;
use iiscope::subsystems::load::{LatencyLog, StatusTally};
use iiscope::subsystems::netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
use iiscope::subsystems::serve::{AdminHandler, ServeConfig, Server, ShutdownFlag};
use iiscope::subsystems::types::{Country, SeedFork, SimTime};
use iiscope::subsystems::wire::http::{Method, RequestCtx};
use iiscope::subsystems::wire::server::HttpEngine;
use iiscope::subsystems::wire::{Handler, Json, Request, Response};
use iiscope::{Run, RunOptions, World, WorldConfig};
use proptest::prelude::*;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Shared rig
// ---------------------------------------------------------------------

/// A handler whose responses depend only on the request — never on the
/// peer — so the socket path (real client address) and the in-process
/// oracle (synthetic peer) must agree byte-for-byte.
fn conformance_handler() -> Arc<dyn Handler> {
    Arc::new(|req: &Request, _ctx: &RequestCtx| -> Response {
        match (req.method, req.path()) {
            (Method::Get, "/ping") => Response::ok_text("pong"),
            (Method::Post, "/echo") => {
                Response::ok_bytes(req.body.clone(), "application/octet-stream")
            }
            (Method::Get, "/query") => Response::ok_text(req.query_param("k").unwrap_or_default()),
            _ => Response::not_found(),
        }
    })
}

fn synthetic_peer() -> PeerInfo {
    PeerInfo {
        addr: HostAddr {
            ip: std::net::Ipv4Addr::new(198, 51, 100, 7),
            asn: AsnId(64512),
            asn_kind: AsnKind::Eyeball,
            country: Country::Us,
        },
        opened_at: SimTime::EPOCH,
        link: SeedFork::new(1),
    }
}

/// One conformance server shared by every proptest case (leaked: test
/// processes exit, the OS reaps the threads).
fn conformance_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let cfg = ServeConfig {
            workers: 2,
            conn_cap: 64,
            idle_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", cfg, conformance_handler()).unwrap();
        let addr = server.local_addr();
        std::mem::forget(server);
        addr
    })
}

/// The in-process oracle: one `feed_into` of the whole stream.
fn oracle_bytes(stream: &[u8]) -> Vec<u8> {
    let mut out = BytesMut::new();
    let stream = Bytes::copy_from_slice(stream);
    HttpEngine::new(conformance_handler()).feed_into(
        &stream,
        synthetic_peer(),
        SimTime::EPOCH,
        &mut out,
    );
    out.to_vec()
}

/// Writes `stream` to a fresh socket in the given fragments, then
/// reads exactly `expect` response bytes back.
fn socket_exchange(addr: SocketAddr, fragments: &[&[u8]], expect: usize) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    for frag in fragments {
        conn.write_all(frag).unwrap();
    }
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut got = vec![0u8; expect];
    conn.read_exact(&mut got).unwrap();
    got
}

/// Splits `stream` at the given cut points (clamped, deduped order
/// not required).
fn split_at_points<'a>(stream: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
    points.sort_unstable();
    let mut out = Vec::new();
    let mut prev = 0;
    for p in points {
        if p > prev {
            out.push(&stream[prev..p]);
            prev = p;
        }
    }
    if prev < stream.len() {
        out.push(&stream[prev..]);
    }
    out
}

// ---------------------------------------------------------------------
// Satellite 1: socket conformance proptests
// ---------------------------------------------------------------------

/// One request in the generated stream (all well-formed; poisoned
/// streams are covered by the adversarial tests, where the connection
/// legitimately closes early).
#[derive(Debug, Clone)]
enum ReqSpec {
    Ping,
    Echo(Vec<u8>),
    Query(String),
    Unknown(String),
}

impl ReqSpec {
    fn encode(&self) -> Vec<u8> {
        match self {
            ReqSpec::Ping => Request::get("/ping").encode().to_vec(),
            ReqSpec::Echo(body) => Request::post("/echo", body.clone()).encode().to_vec(),
            ReqSpec::Query(k) => Request::get(format!("/query?k={k}")).encode().to_vec(),
            ReqSpec::Unknown(p) => Request::get(format!("/{p}")).encode().to_vec(),
        }
    }
}

fn arb_request() -> impl Strategy<Value = ReqSpec> {
    prop_oneof![
        Just(ReqSpec::Ping),
        prop::collection::vec(any::<u8>(), 0..200).prop_map(ReqSpec::Echo),
        "[a-z0-9]{0,12}".prop_map(ReqSpec::Query),
        "[a-z]{1,8}".prop_map(ReqSpec::Unknown),
    ]
}

fn stream_of(reqs: &[ReqSpec]) -> Vec<u8> {
    reqs.iter().flat_map(|r| r.encode()).collect()
}

proptest! {
    /// Whole-request writes: one write per request.
    #[test]
    fn socket_matches_engine_on_whole_requests(reqs in prop::collection::vec(arb_request(), 1..8)) {
        let stream = stream_of(&reqs);
        let oracle = oracle_bytes(&stream);
        let frames: Vec<Vec<u8>> = reqs.iter().map(|r| r.encode()).collect();
        let frames: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let got = socket_exchange(conformance_addr(), &frames, oracle.len());
        prop_assert_eq!(got, oracle);
    }

    /// Byte-at-a-time trickle: maximal fragmentation, every request
    /// crosses the reassembly path.
    #[test]
    fn socket_matches_engine_byte_at_a_time(reqs in prop::collection::vec(arb_request(), 1..4)) {
        let stream = stream_of(&reqs);
        let oracle = oracle_bytes(&stream);
        let frames: Vec<&[u8]> = stream.chunks(1).collect();
        let got = socket_exchange(conformance_addr(), &frames, oracle.len());
        prop_assert_eq!(got, oracle);
    }

    /// Full pipeline: every request in one write.
    #[test]
    fn socket_matches_engine_pipelined(reqs in prop::collection::vec(arb_request(), 1..8)) {
        let stream = stream_of(&reqs);
        let oracle = oracle_bytes(&stream);
        let got = socket_exchange(conformance_addr(), &[&stream], oracle.len());
        prop_assert_eq!(got, oracle);
    }

    /// Arbitrary chunking: cut points chosen by the generator.
    #[test]
    fn socket_matches_engine_on_arbitrary_chunks(
        reqs in prop::collection::vec(arb_request(), 1..6),
        cuts in prop::collection::vec(any::<usize>(), 0..12),
    ) {
        let stream = stream_of(&reqs);
        let oracle = oracle_bytes(&stream);
        let frames = split_at_points(&stream, &cuts);
        let got = socket_exchange(conformance_addr(), &frames, oracle.len());
        prop_assert_eq!(got, oracle);
    }
}

/// A garbage tail after valid requests: the socket closes after the
/// mapped 400, and everything up to and including that 400 matches the
/// in-process engine byte-for-byte.
#[test]
fn socket_matches_engine_on_poisoned_tail() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&Request::get("/ping").encode());
    stream.extend_from_slice(&Request::post("/echo", b"abc".to_vec()).encode());
    stream.extend_from_slice(b"NONSENSE\r\n\r\n");
    let oracle = oracle_bytes(&stream);

    let mut conn = TcpStream::connect(conformance_addr()).unwrap();
    conn.write_all(&stream).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut got = Vec::new();
    conn.read_to_end(&mut got).unwrap(); // server closes after the 400
    assert_eq!(got, oracle);
}

// ---------------------------------------------------------------------
// Satellite 2: adversarial clients + in-suite soak
// ---------------------------------------------------------------------

fn adversarial_server() -> (Server, SocketAddr) {
    let cfg = ServeConfig {
        workers: 1,
        conn_cap: 16,
        idle_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg, conformance_handler()).unwrap();
    let addr = server.local_addr();
    (server, addr)
}

fn read_status(conn: &mut TcpStream) -> u16 {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Ok(Some((resp, _))) = Response::parse(&buf) {
                    return resp.status;
                }
            }
            Err(_) => break, // reset mid-read: whatever arrived is the answer
        }
    }
    panic!("connection closed without a complete response");
}

#[test]
fn slowloris_header_trickle_gets_408_then_close() {
    let (server, addr) = adversarial_server();
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_nodelay(true).unwrap();
    // Trickle a header fragment, then stall past the idle timeout.
    conn.write_all(b"GET /ping HT").unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(read_status(&mut conn), 408);
    // And the close really is a close.
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    server.stop();
}

#[test]
fn half_close_mid_request_is_a_clean_drop() {
    let (server, addr) = adversarial_server();
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 50\r\n\r\npartial")
        .unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // No response is owed for an incomplete request: just EOF.
    let mut got = Vec::new();
    conn.read_to_end(&mut got).unwrap();
    assert!(got.is_empty(), "unexpected bytes: {got:?}");
    server.stop(); // must not hang on the dead worker
}

#[test]
fn garbage_preamble_gets_400_and_close() {
    let (server, addr) = adversarial_server();
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"\x16\x03\x01NOT HTTP AT ALL\r\n\r\n")
        .unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(read_status(&mut conn), 400);
    server.stop();
}

#[test]
fn oversized_header_block_gets_431() {
    let (server, addr) = adversarial_server();
    let mut conn = TcpStream::connect(addr).unwrap();
    // > MAX_HEADER_BYTES without a terminator; write fully, then read.
    let junk = vec![b'a'; 17 * 1024];
    conn.write_all(&junk).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(read_status(&mut conn), 431);
    server.stop();
}

#[test]
fn oversized_declared_body_gets_413() {
    let (server, addr) = adversarial_server();
    let mut conn = TcpStream::connect(addr).unwrap();
    let req = format!(
        "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        9 * 1024 * 1024
    );
    conn.write_all(req.as_bytes()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(read_status(&mut conn), 413);
    server.stop();
}

/// Sends one request on an open connection and returns the response
/// status, or None if nothing arrived within `wait`.
fn try_request(conn: &mut TcpStream, target: &str, wait: Duration) -> Option<u16> {
    conn.write_all(&Request::get(target).encode()).ok()?;
    conn.set_read_timeout(Some(wait)).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Ok(Some((resp, _))) = Response::parse(&buf) {
                    return Some(resp.status);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return None
            }
            Err(_) => return None,
        }
    }
}

/// Holds the cap's worth of keep-alive connections, proves the
/// cap+1'th connection is *not* served while they hold their permits,
/// proves it *is* served once a permit frees, then drains.
#[test]
fn soak_holds_cap_keepalive_conns_with_backpressure_then_drains() {
    const CAP: usize = 64;
    let cfg = ServeConfig {
        workers: 2,
        conn_cap: CAP,
        idle_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg, conformance_handler()).unwrap();
    let addr = server.local_addr();

    // Fill the cap with live keep-alive connections; every one must be
    // served concurrently (each holds its permit until dropped).
    let mut held: Vec<TcpStream> = Vec::with_capacity(CAP);
    for i in 0..CAP {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        assert_eq!(
            try_request(&mut conn, "/ping", Duration::from_secs(10)),
            Some(200),
            "connection {i} of {CAP} was not served"
        );
        held.push(conn);
    }
    // All permits are held: the next connection connects (kernel
    // backlog) but is never accepted, so its request goes unanswered.
    let mut extra = TcpStream::connect(addr).unwrap();
    extra.set_nodelay(true).unwrap();
    assert_eq!(
        try_request(&mut extra, "/ping", Duration::from_millis(400)),
        None,
        "connection beyond the cap must wait for a permit"
    );
    // Free one permit; the waiting connection must now be served (its
    // request is already buffered in the socket).
    drop(held.pop());
    assert_eq!(
        try_request(&mut extra, "/ping", Duration::from_secs(10)),
        Some(200),
        "freed permit must unblock the waiting connection"
    );
    // Clean drain with the remaining connections still open.
    server.stop();
    assert_eq!(server.inflight(), 0, "drain must reach zero in-flight");
}

// ---------------------------------------------------------------------
// Satellite 3: determinism guard — serving mid-run changes no bytes
// ---------------------------------------------------------------------

type RunOutput = (String, [String; 3]);

fn run_world(cfg: WorldConfig, serve: bool) -> RunOutput {
    let run = Run::new(cfg).unwrap();
    let world = run.world();
    // With `serve`, a real server binds the world's router and client
    // threads hammer the chart/wall/profile endpoints for the whole
    // run — none of it may perturb a single output byte.
    let rig = serve.then(|| {
        let cfg = ServeConfig {
            workers: 2,
            conn_cap: 32,
            sim_now: world.study_end(),
            ..ServeConfig::default()
        };
        let router = world.serve_router();
        let server = Server::start("127.0.0.1:0", cfg, router.clone()).unwrap();
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..3)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let targets = [
                        "/store/charts?chart=topselling_free&n=10",
                        "/wall/fyber/offers?affiliate=com.mobvantage.cashforapps",
                        "/store/apps/details?id=net.iiscope.voicememos",
                        "/wall/ayetstudios/offers?affiliate=com.mobvantage.cashforapps&page=1",
                    ];
                    let mut served = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let Ok(mut conn) = TcpStream::connect(addr) else {
                            continue;
                        };
                        let _ = conn.set_nodelay(true);
                        for target in targets.iter().cycle().skip(i).take(8) {
                            if conn.write_all(&Request::get(*target).encode()).is_err() {
                                break;
                            }
                            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                            let mut buf = Vec::new();
                            let mut chunk = [0u8; 8192];
                            loop {
                                match conn.read(&mut chunk) {
                                    Ok(0) => break,
                                    Ok(n) => {
                                        buf.extend_from_slice(&chunk[..n]);
                                        if Response::parse(&buf).ok().flatten().is_some() {
                                            served += 1;
                                            break;
                                        }
                                    }
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    served
                })
            })
            .collect();
        (server, stop, hammers, router)
    });

    let out = run.study(RunOptions::default()).unwrap();
    let report = out.report();
    let csv = common::csvs(&out.artifacts.dataset);

    if let Some((server, stop, hammers, router)) = rig {
        stop.store(true, Ordering::Relaxed);
        let served: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
        server.stop();
        // The guard is vacuous if the hammer never landed a request —
        // and, since PR 9, if none of them hit the response cache (the
        // guard must cover the cached read path, not just rendering).
        assert!(served > 0, "hammer clients served no requests");
        assert!(router.cache_enabled(), "serve_router() must cache");
        assert!(
            router.cache_stats().hits() > 0,
            "hammer clients never hit the response cache"
        );
    }
    (report, csv)
}

#[test]
fn serving_mid_run_changes_no_output_bytes() {
    let oracle = run_world(reduced(42, 1), false);
    let served_1 = run_world(reduced(42, 1), true);
    assert_eq!(oracle, served_1, "1-worker run diverged under --serve");
    let served_8 = run_world(reduced(42, 8), true);
    assert_eq!(oracle, served_8, "8-worker run diverged under --serve");
    assert!(oracle.0.contains("Table 5"));
}

// ---------------------------------------------------------------------
// Nightly soak: BENCH_serve.json + paper-scale guard
// ---------------------------------------------------------------------

/// Sustained soak against a small world's real router: connection
/// churn for conns/sec, then ≥64 concurrent keep-alive clients for
/// request latency. Writes `BENCH_serve.json` (`iiscope_bench::document`).
/// Nightly sized; run with `cargo test --release --test serve -- --ignored`.
#[test]
#[ignore = "nightly soak; run with --release -- --ignored"]
fn nightly_soak_emits_bench_serve_json() {
    const WORKERS: usize = 4;
    const CLIENTS: usize = 64;
    const REQS_PER_CLIENT: usize = 200;
    const CHURN_CONNS: usize = 1000;

    let world = World::build(reduced(42, 1)).unwrap();
    let flag = ShutdownFlag::new();
    let cfg = ServeConfig {
        workers: WORKERS,
        conn_cap: CLIENTS + 8,
        sim_now: world.study_end(),
        ..ServeConfig::default()
    };
    let handler = Arc::new(AdminHandler::new(world.serve_router(), flag.clone()));
    let server = Server::start("127.0.0.1:0", cfg, handler).unwrap();
    let addr = server.local_addr();

    // Phase 1: connection churn — one request per fresh connection.
    let t = Instant::now();
    let churn_threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..CHURN_CONNS / 8 {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    conn.set_nodelay(true).unwrap();
                    assert_eq!(
                        try_request(&mut conn, "/healthz", Duration::from_secs(10)),
                        Some(200)
                    );
                }
            })
        })
        .collect();
    for h in churn_threads {
        h.join().unwrap();
    }
    let conns_per_sec = CHURN_CONNS as f64 / t.elapsed().as_secs_f64();

    // Phase 2: ≥64 concurrent keep-alive clients, per-request latency.
    let t = Instant::now();
    let latency_threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let targets = [
                    "/store/charts?chart=topselling_free&n=10",
                    "/wall/fyber/offers?affiliate=com.mobvantage.cashforapps",
                    "/store/apps/details?id=net.iiscope.voicememos",
                    "/healthz",
                ];
                let mut log = LatencyLog::new();
                let mut tally = StatusTally::new();
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_nodelay(true).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 16384];
                for r in 0..REQS_PER_CLIENT {
                    let target = targets[(i + r) % targets.len()];
                    let t = Instant::now();
                    conn.write_all(&Request::get(target).encode()).unwrap();
                    buf.clear();
                    loop {
                        let n = conn.read(&mut chunk).unwrap();
                        assert!(n > 0, "server closed mid-soak");
                        buf.extend_from_slice(&chunk[..n]);
                        if let Ok(Some((resp, _))) = Response::parse(&buf) {
                            assert_eq!(resp.status, 200, "{target}");
                            tally.record(resp.status);
                            break;
                        }
                    }
                    log.record(t.elapsed().as_micros() as u64);
                }
                (log, tally)
            })
        })
        .collect();
    let mut log = LatencyLog::new();
    let mut tally = StatusTally::new();
    for h in latency_threads {
        let (l, t) = h.join().unwrap();
        log.merge(l);
        tally.merge(t);
    }
    let soak_secs = t.elapsed().as_secs_f64();
    assert_eq!(log.len(), CLIENTS * REQS_PER_CLIENT);

    let (p50, p99) = (log.percentile_us(50.0), log.percentile_us(99.0));
    let requests_per_sec = log.len() as f64 / soak_secs;
    let statuses = Json::obj(tally.fields().map(|(k, v)| (k, v.into())));
    let doc = iiscope_bench::document(
        "soak",
        42,
        WORKERS,
        [
            ("concurrent_conns", CLIENTS.into()),
            ("requests", log.len().into()),
            ("conns_per_sec", conns_per_sec.into()),
            ("requests_per_sec", requests_per_sec.into()),
            ("p50_us", p50.into()),
            ("p99_us", p99.into()),
            ("statuses", statuses),
        ],
    );
    iiscope_bench::write("BENCH_serve.json", &doc).unwrap();
    assert_eq!(tally.total(), log.len() as u64);
    assert_eq!(tally.errors(), 0, "clean soak must tally zero errors");

    flag.trigger();
    server.stop();
    assert_eq!(server.inflight(), 0);
}

/// Paper scale: the committed seed-42 oracle must regenerate
/// byte-for-byte with the server bound and a client hammering it for
/// the whole run. Nightly sized (~1 min release).
#[test]
#[ignore = "paper scale; run with --release -- --ignored"]
fn paper_scale_seed42_report_survives_serving() {
    let mut cfg = WorldConfig::paper(42);
    cfg.parallelism = 8;
    let run = Run::new(cfg).unwrap();
    let world = run.world();
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            sim_now: world.study_end(),
            ..ServeConfig::default()
        },
        world.serve_router(),
    )
    .unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mut conn) = TcpStream::connect(addr) {
                    let _ = try_request(
                        &mut conn,
                        "/store/charts?chart=topselling_free&n=10",
                        Duration::from_secs(5),
                    );
                }
            }
        })
    };

    let report = run.study(RunOptions::default()).unwrap().report();
    stop.store(true, Ordering::Relaxed);
    hammer.join().unwrap();
    server.stop();

    let oracle = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/report_seed42.txt"
    ))
    .expect("docs/report_seed42.txt");
    assert_eq!(
        format!("{report}\n"),
        oracle,
        "paper-scale run diverged from docs/report_seed42.txt under --serve"
    );
}
