//! Workload generator for the socket server.
//!
//! `repro --serve` exposes a finished world over real TCP;
//! `repro --load` points this harness at it and measures what the
//! serve hot path actually sustains, instead of trusting one-off
//! `BENCH_*.json` snapshots. The harness drives a weighted request
//! mix (wall milks, store profile crawls, APK pulls) through ramped
//! QPS stages over keep-alive connections, in either pacing mode:
//!
//! * **open loop** (`qps > 0`): requests fire on a fixed schedule
//!   regardless of how fast responses come back, and latency is
//!   measured from the *intended* send instant — queueing delay under
//!   overload is charged to the server, not hidden by coordinated
//!   omission;
//! * **closed loop** (`qps = 0`): every connection sends back-to-back,
//!   measuring the throughput ceiling.
//!
//! Per-stage results reduce to the percentile/tally rows of
//! `BENCH_load.json` (built by [`iiscope_bench::document`])
//! and a scalar [`Gate`] that CI compares against the committed
//! `docs/bench_baseline.json` within a tolerance band.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hostile;
mod stats;

pub use stats::{LatencyLog, StatusTally};

use iiscope_types::SeedFork;
use iiscope_wire::{Json, Request, Response};
use rand::Rng;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One ramp stage: hold `qps` for `secs` seconds. `qps = 0` means
/// closed-loop — every connection sends flat-out (the ceiling stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadStage {
    /// Target request rate across all connections; 0 = closed loop.
    pub qps: u64,
    /// Stage duration in seconds.
    pub secs: u64,
}

/// One entry of the request mix: a labelled GET target with a weight.
#[derive(Debug, Clone)]
pub struct MixEntry {
    /// Short label for reports (`wall:fyber`, `store`, `apk`).
    pub name: String,
    /// Request target (path + query).
    pub target: String,
    /// Relative selection weight (0 entries are never sent).
    pub weight: u32,
}

/// A complete load plan.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Ramp stages, run in order.
    pub stages: Vec<LoadStage>,
    /// Keep-alive connections driving the load.
    pub conns: usize,
    /// Weighted request mix; selection is a pure function of `seed`.
    pub mix: Vec<MixEntry>,
    /// Seed for the per-connection target streams.
    pub seed: u64,
}

/// Measured outcome of one stage.
#[derive(Debug, Clone)]
pub struct StageResult {
    /// The stage as planned.
    pub stage: LoadStage,
    /// Requests that completed (response fully parsed).
    pub done: u64,
    /// Wall-clock seconds the stage actually ran.
    pub elapsed_secs: f64,
    /// Completed requests per second.
    pub achieved_rps: f64,
    /// Latency percentiles over completed requests, microseconds.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest completed request.
    pub max_us: u64,
    /// Response status tally (client-side books).
    pub tally: StatusTally,
    /// Connections that had to be re-established mid-stage.
    pub reconnects: u64,
}

impl StageResult {
    /// Successful (2xx) responses per second — the overload bench's
    /// honest-client yardstick. Unlike [`StageResult::achieved_rps`],
    /// shed 503s and rejects do not count: a server drowning everyone
    /// in fast 503s has high throughput but zero goodput.
    pub fn goodput_rps(&self) -> f64 {
        self.tally.ok as f64 / self.elapsed_secs.max(1e-9)
    }
}

/// The scalar pair the regression gate compares: the best closed-loop
/// (or overall) throughput and its stage's p99.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Requests per second of the fastest stage.
    pub requests_per_sec: f64,
    /// p99 latency of that same stage, microseconds.
    pub p99_us: u64,
}

/// Read timeout on load connections — a server that stops answering
/// for this long forfeits the request (tallied as `other`).
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Parses a `--load-stages` string: comma-separated `QPSxSECS` pairs,
/// e.g. `200x5,1000x5,0x10` (0 = closed loop).
pub fn parse_stages(s: &str) -> Result<Vec<LoadStage>, String> {
    let mut stages = Vec::new();
    for part in s.split(',') {
        let (qps, secs) = part
            .split_once('x')
            .ok_or_else(|| format!("bad stage {part:?} (want QPSxSECS)"))?;
        let qps: u64 = qps.parse().map_err(|_| format!("bad qps in {part:?}"))?;
        let secs: u64 = secs
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad seconds in {part:?}"))?;
        stages.push(LoadStage { qps, secs });
    }
    if stages.is_empty() {
        return Err("no stages".into());
    }
    Ok(stages)
}

/// Parses a `--load-mix` string of `name=weight` pairs over the three
/// request classes, e.g. `wall=8,store=3,apk=1`. Returns
/// `(wall, store, apk)` weights.
pub fn parse_mix_weights(s: &str) -> Result<(u32, u32, u32), String> {
    let (mut wall, mut store, mut apk) = (0u32, 0u32, 0u32);
    for part in s.split(',') {
        let (name, w) = part
            .split_once('=')
            .ok_or_else(|| format!("bad mix entry {part:?} (want name=weight)"))?;
        let w: u32 = w.parse().map_err(|_| format!("bad weight in {part:?}"))?;
        match name {
            "wall" => wall = w,
            "store" => store = w,
            "apk" => apk = w,
            other => return Err(format!("unknown mix class {other:?} (wall|store|apk)")),
        }
    }
    if wall + store + apk == 0 {
        return Err("mix selects nothing".into());
    }
    Ok((wall, store, apk))
}

/// One keep-alive connection with response reassembly.
struct LoadConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LoadConn {
    fn open(addr: SocketAddr) -> std::io::Result<LoadConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(LoadConn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one encoded request and reads one full response.
    fn round_trip(&mut self, wire: &[u8]) -> std::io::Result<Response> {
        self.stream.write_all(wire)?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((resp, consumed)) = Response::parse(&self.buf)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("{e:?}")))?
            {
                self.buf.drain(..consumed);
                return Ok(resp);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Per-thread stage outcome, merged by [`run`].
struct ThreadResult {
    log: LatencyLog,
    tally: StatusTally,
    done: u64,
    reconnects: u64,
}

/// Probes every mix target once (fresh connection) and returns the
/// first that does not answer 200 — catching a bad mix before the
/// measured stages spend minutes hammering 404s.
pub fn probe(addr: SocketAddr, mix: &[MixEntry]) -> std::io::Result<()> {
    let mut conn = LoadConn::open(addr)?;
    for entry in mix.iter().filter(|e| e.weight > 0) {
        let resp = conn.round_trip(&Request::get(entry.target.clone()).encode())?;
        if resp.status != 200 {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!(
                    "probe {} ({}): status {}",
                    entry.name, entry.target, resp.status
                ),
            ));
        }
    }
    Ok(())
}

/// Runs every stage of the plan against `addr` and returns per-stage
/// results. Connections are established per stage (keep-alive within
/// it); a dropped connection is re-opened and counted.
pub fn run(addr: SocketAddr, spec: &LoadSpec) -> std::io::Result<Vec<StageResult>> {
    let weights: Vec<u32> = spec.mix.iter().map(|e| e.weight).collect();
    let total_weight: u64 = weights.iter().map(|&w| w as u64).sum();
    if total_weight == 0 || spec.conns == 0 {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "empty mix or zero connections",
        ));
    }
    // Encode each distinct target once; threads index into the table.
    let wires: Vec<Vec<u8>> = spec
        .mix
        .iter()
        .map(|e| Request::get(e.target.clone()).encode().to_vec())
        .collect();
    let wires = std::sync::Arc::new(wires);
    let weights = std::sync::Arc::new(weights);

    let mut results = Vec::with_capacity(spec.stages.len());
    for (stage_idx, &stage) in spec.stages.iter().enumerate() {
        let mut handles = Vec::with_capacity(spec.conns);
        for conn_idx in 0..spec.conns {
            let wires = std::sync::Arc::clone(&wires);
            let weights = std::sync::Arc::clone(&weights);
            let fork = SeedFork::new(spec.seed)
                .fork_idx("load-stage", stage_idx as u64)
                .fork_idx("conn", conn_idx as u64);
            let conns = spec.conns;
            handles.push(std::thread::spawn(move || {
                drive_conn(addr, stage, conn_idx, conns, &wires, &weights, fork)
            }));
        }
        let mut log = LatencyLog::new();
        let mut tally = StatusTally::new();
        let (mut done, mut reconnects, mut elapsed) = (0u64, 0u64, 0f64);
        for h in handles {
            let (tr, secs) = h.join().expect("load thread panicked")?;
            log.merge(tr.log);
            tally.merge(tr.tally);
            done += tr.done;
            reconnects += tr.reconnects;
            elapsed = elapsed.max(secs);
        }
        results.push(StageResult {
            stage,
            done,
            elapsed_secs: elapsed,
            achieved_rps: done as f64 / elapsed.max(1e-9),
            p50_us: log.percentile_us(50.0),
            p90_us: log.percentile_us(90.0),
            p99_us: log.percentile_us(99.0),
            max_us: log.percentile_us(100.0),
            tally,
            reconnects,
        });
    }
    Ok(results)
}

/// One connection's share of one stage.
#[allow(clippy::too_many_arguments)]
fn drive_conn(
    addr: SocketAddr,
    stage: LoadStage,
    conn_idx: usize,
    conns: usize,
    wires: &[Vec<u8>],
    weights: &[u32],
    fork: SeedFork,
) -> std::io::Result<(ThreadResult, f64)> {
    let mut rng = fork.rng();
    let total_weight: u64 = weights.iter().map(|&w| w as u64).sum();
    let pick = |rng: &mut rand::rngs::StdRng| -> usize {
        let mut roll = rng.gen_range(0..total_weight);
        for (i, &w) in weights.iter().enumerate() {
            let w = w as u64;
            if roll < w {
                return i;
            }
            roll -= w;
        }
        weights.len() - 1
    };

    let mut conn = LoadConn::open(addr)?;
    let mut tr = ThreadResult {
        log: LatencyLog::new(),
        tally: StatusTally::new(),
        done: 0,
        reconnects: 0,
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs(stage.secs);
    // Open loop: this connection owns the global request slots
    // `conn_idx, conn_idx + conns, conn_idx + 2*conns, …`, each due at
    // `start + slot/qps`.
    let mut slot = conn_idx as u64;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        // `checked_div` is None exactly when qps = 0: closed loop.
        let intended = match slot.saturating_mul(1_000_000_000).checked_div(stage.qps) {
            Some(ns) => {
                let due = start + Duration::from_nanos(ns);
                if due >= deadline {
                    break;
                }
                if due > now {
                    std::thread::sleep(due - now);
                }
                slot += conns as u64;
                due
            }
            None => now,
        };
        let wire = &wires[pick(&mut rng)];
        match conn.round_trip(wire) {
            Ok(resp) => {
                tr.done += 1;
                tr.tally.record(resp.status);
                tr.log
                    .record(intended.elapsed().as_micros().min(u64::MAX as u128) as u64);
            }
            Err(_) => {
                // Connection lost (server drop, timeout): record the
                // failure and re-establish for the next slot.
                tr.tally.record(599);
                tr.reconnects += 1;
                conn = LoadConn::open(addr)?;
            }
        }
    }
    Ok((tr, start.elapsed().as_secs_f64()))
}

/// The gate pair: the stage with the highest achieved throughput.
pub fn gate(results: &[StageResult]) -> Option<Gate> {
    results
        .iter()
        .max_by(|a, b| a.achieved_rps.total_cmp(&b.achieved_rps))
        .map(|r| Gate {
            requests_per_sec: r.achieved_rps,
            p99_us: r.p99_us,
        })
}

/// Builds `BENCH_load.json`: the shared envelope (`seed` from the
/// spec, `parallelism` = its connection count), the plan, one row per
/// stage, and the gate pair the baseline comparison reads back.
pub fn bench_load_json(
    scale: &str,
    cache_enabled: bool,
    spec: &LoadSpec,
    results: &[StageResult],
) -> Json {
    let mix = spec.mix.iter().map(|e| {
        Json::obj([
            ("name", e.name.as_str().into()),
            ("weight", e.weight.into()),
        ])
    });
    let stages = results.iter().map(|r| {
        let row = [
            ("qps_target", r.stage.qps.into()),
            ("secs", r.stage.secs.into()),
            ("done", r.done.into()),
            ("requests_per_sec", r.achieved_rps.into()),
            ("p50_us", r.p50_us.into()),
            ("p90_us", r.p90_us.into()),
            ("p99_us", r.p99_us.into()),
            ("max_us", r.max_us.into()),
            ("reconnects", r.reconnects.into()),
        ];
        let tally = r.tally.fields().map(|(k, v)| (k, v.into()));
        Json::obj(row.into_iter().chain(tally))
    });
    let gate = gate(results).map(|g| {
        Json::obj([
            ("requests_per_sec", g.requests_per_sec.into()),
            ("p99_us", g.p99_us.into()),
        ])
    });
    iiscope_bench::document(
        scale,
        spec.seed,
        spec.conns,
        [
            ("cache", cache_enabled.into()),
            ("conns", spec.conns.into()),
            ("mix", Json::arr(mix)),
            ("stages", Json::arr(stages)),
            ("gate", gate.into()),
        ],
    )
}

/// Reads the gate pair out of a committed baseline (any JSON object
/// with a `gate` member in [`bench_load_json`]'s shape).
pub fn parse_baseline(json: &str) -> Result<Gate, String> {
    let doc = Json::parse(json).map_err(|e| format!("baseline parse: {e:?}"))?;
    let gate = doc.get("gate").ok_or("baseline has no \"gate\"")?;
    let rps = gate
        .get("requests_per_sec")
        .and_then(Json::as_f64)
        .ok_or("gate.requests_per_sec missing")?;
    let p99 = gate
        .get("p99_us")
        .and_then(Json::as_i64)
        .filter(|&v| v >= 0)
        .ok_or("gate.p99_us missing")?;
    Ok(Gate {
        requests_per_sec: rps,
        p99_us: p99 as u64,
    })
}

/// Compares a measured gate against the baseline within a tolerance
/// band: throughput may not regress more than `tolerance_pct` below
/// the baseline, p99 not more than `tolerance_pct` above. Returns the
/// human-readable verdict, `Err` on regression.
pub fn check_against_baseline(
    measured: &Gate,
    baseline: &Gate,
    tolerance_pct: f64,
) -> Result<String, String> {
    let rps_floor = baseline.requests_per_sec * (1.0 - tolerance_pct / 100.0);
    let p99_ceiling = baseline.p99_us as f64 * (1.0 + tolerance_pct / 100.0);
    let verdict = format!(
        "throughput {:.0} req/s vs baseline {:.0} (floor {:.0}); \
         p99 {}us vs baseline {}us (ceiling {:.0}us)",
        measured.requests_per_sec,
        baseline.requests_per_sec,
        rps_floor,
        measured.p99_us,
        baseline.p99_us,
        p99_ceiling
    );
    if measured.requests_per_sec < rps_floor {
        return Err(format!("throughput regression: {verdict}"));
    }
    if (measured.p99_us as f64) > p99_ceiling {
        return Err(format!("latency regression: {verdict}"));
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_string_round_trips() {
        assert_eq!(
            parse_stages("200x5,1000x5,0x10").unwrap(),
            vec![
                LoadStage { qps: 200, secs: 5 },
                LoadStage { qps: 1000, secs: 5 },
                LoadStage { qps: 0, secs: 10 },
            ]
        );
        assert!(parse_stages("").is_err());
        assert!(parse_stages("200").is_err());
        assert!(parse_stages("200x0").is_err());
        assert!(parse_stages("x5").is_err());
    }

    #[test]
    fn mix_weights_parse_and_reject_unknown_classes() {
        assert_eq!(
            parse_mix_weights("wall=8,store=3,apk=1").unwrap(),
            (8, 3, 1)
        );
        assert_eq!(parse_mix_weights("wall=1").unwrap(), (1, 0, 0));
        assert!(parse_mix_weights("walls=1").is_err());
        assert!(parse_mix_weights("wall=0").is_err());
        assert!(parse_mix_weights("wall").is_err());
    }

    #[test]
    fn gate_picks_the_fastest_stage() {
        let mk = |rps: f64, p99: u64| StageResult {
            stage: LoadStage { qps: 0, secs: 1 },
            done: 10,
            elapsed_secs: 1.0,
            achieved_rps: rps,
            p50_us: 1,
            p90_us: 2,
            p99_us: p99,
            max_us: p99,
            tally: StatusTally::new(),
            reconnects: 0,
        };
        let g = gate(&[mk(100.0, 9), mk(300.0, 17), mk(200.0, 5)]).unwrap();
        assert!((g.requests_per_sec - 300.0).abs() < 1e-9);
        assert_eq!(g.p99_us, 17);
        assert!(gate(&[]).is_none());
    }

    #[test]
    fn baseline_json_round_trips_through_the_gate() {
        let spec = LoadSpec {
            stages: vec![LoadStage { qps: 0, secs: 1 }],
            conns: 2,
            mix: vec![MixEntry {
                name: "wall:fyber".into(),
                target: "/wall/fyber/offers?affiliate=a".into(),
                weight: 1,
            }],
            seed: 42,
        };
        let results = vec![StageResult {
            stage: LoadStage { qps: 0, secs: 1 },
            done: 1234,
            elapsed_secs: 1.0,
            achieved_rps: 1234.0,
            p50_us: 100,
            p90_us: 200,
            p99_us: 300,
            max_us: 400,
            tally: {
                let mut t = StatusTally::new();
                t.record(200);
                t
            },
            reconnects: 0,
        }];
        let json = bench_load_json("small", true, &spec, &results).pretty();
        assert!(json.contains("\"schema_version\": 2"));
        let g = parse_baseline(&json).unwrap();
        assert!((g.requests_per_sec - 1234.0).abs() < 1e-9);
        assert_eq!(g.p99_us, 300);
        // The stage rows carry the tally fields, sheds included.
        assert!(json.contains("\"rejects_431\": 0"));
        assert!(json.contains("\"sheds_503\": 0"));
        assert!(json.contains("\"ok\": 1"));
    }

    #[test]
    fn committed_schema_1_baseline_still_parses() {
        let committed = include_str!("../../../docs/bench_baseline.json");
        assert!(committed.contains("\"schema_version\": 1,"));
        let g = parse_baseline(committed).unwrap();
        assert!((g.requests_per_sec - 98499.7).abs() < 1e-9);
        assert_eq!(g.p99_us, 123);
    }

    #[test]
    fn goodput_counts_only_successes() {
        let mut tally = StatusTally::new();
        for s in [200, 200, 200, 503, 503, 599] {
            tally.record(s);
        }
        let r = StageResult {
            stage: LoadStage { qps: 0, secs: 2 },
            done: 6,
            elapsed_secs: 2.0,
            achieved_rps: 3.0,
            p50_us: 1,
            p90_us: 1,
            p99_us: 1,
            max_us: 1,
            tally,
            reconnects: 1,
        };
        // 3 oks over 2s; the sheds and the dropped conn don't count.
        assert!((r.goodput_rps() - 1.5).abs() < 1e-9);
        assert_eq!(r.tally.errors(), 1); // only the 599
    }

    #[test]
    fn tolerance_band_cuts_both_ways() {
        let base = Gate {
            requests_per_sec: 1000.0,
            p99_us: 1000,
        };
        let ok = Gate {
            requests_per_sec: 950.0,
            p99_us: 1050,
        };
        assert!(check_against_baseline(&ok, &base, 10.0).is_ok());
        let slow = Gate {
            requests_per_sec: 850.0,
            p99_us: 1000,
        };
        assert!(check_against_baseline(&slow, &base, 10.0)
            .unwrap_err()
            .contains("throughput regression"));
        let laggy = Gate {
            requests_per_sec: 1000.0,
            p99_us: 1500,
        };
        assert!(check_against_baseline(&laggy, &base, 10.0)
            .unwrap_err()
            .contains("latency regression"));
        // Faster-than-baseline always passes.
        let fast = Gate {
            requests_per_sec: 5000.0,
            p99_us: 10,
        };
        assert!(check_against_baseline(&fast, &base, 0.0).is_ok());
    }
}
