//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale small|paper|N|small:N|paper:N] [--seed N] [--parallel N]
//!       [--shards N] [--memory-budget BYTES] [--spill-dir DIR]
//!       [--export DIR] [--timing]
//!       [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
//!       [--serve ADDR] [--serve-workers N] [--conn-cap N] [--idle-timeout MS]
//!       [--serve-cache on|off] [--shed-inflight N] [--shed-route N]
//!       [--shed-queue-ms MS] [--shed-deadline-ms MS]
//!       [--load] [--load-stages SPEC] [--load-conns N] [--load-mix SPEC]
//!       [--load-baseline PATH] [--load-tolerance PCT] [--load-out PATH]
//! ```
//!
//! Builds the world, runs the §3 honey study and the §4 wild study,
//! and prints the full report (the measured side of `EXPERIMENTS.md`).
//! `--parallel N` fans the wild study's crawl days, sim shards and the
//! experiment suite over N worker threads — the report is bit-identical
//! to the sequential run at any N. `--timing` prints a per-experiment
//! timing table to stderr and writes the seven `BENCH_*.json` dumps
//! (one `iiscope_bench::document` each), including `BENCH_report.json`
//! — the incremental-vs-batch report pass comparison (wall time and
//! spill reloads).
//!
//! `--scale` takes a profile (`small`/`paper`), a bare multiplier
//! (`100` = the paper profile at 100× campaign volume), or both
//! (`small:10`, `paper:100`). The multiplier scales campaign caps and
//! daily delivery — a 100× paper run is the "million-device world".
//! `--shards N` splits the device population and sim state into N
//! deterministic shards; like `--scale`, the shard count selects which
//! RNG streams drive the sim, so it is part of the world's identity —
//! but at any fixed shard count the report stays bit-identical at any
//! `--parallel` worker count. `--memory-budget` (suffixes `k`/`m`/`g`)
//! caps the resident dataset, spilling cold column segments to
//! `--spill-dir` (byte-invariant at any budget).
//!
//! `--serve ADDR` binds a real TCP server (`iiscope-serve`) on `ADDR`
//! right after the world is built, exposing the Play-store frontend
//! (`/store/...`, `/apk`), the offer walls (`/wall/<slug>/offers`),
//! `GET /healthz` and `POST /admin/shutdown`. The server runs through
//! the studies (its handlers are pure reads — the report stays
//! byte-identical) and keeps serving after the report prints, until
//! the shutdown route is hit. `ADDR` may name port 0 for an ephemeral
//! port; the resolved address is announced on stderr as
//! `serving on <addr>`.
//!
//! `--serve-cache off` disables the day-versioned response cache in
//! the served router (the A/B baseline for the load harness; the
//! default `on` serves cache hits as `Arc`-backed clones of rendered
//! bodies, invalidated as the sim advances days).
//!
//! The `--shed-*` flags (all requiring `--serve`, all off by default)
//! arm the overload watermarks of DESIGN.md §15: `--shed-inflight N`
//! and `--shed-route N` bound concurrent renders (total / per route
//! class) and answer `503 + Retry-After` past the bound;
//! `--shed-queue-ms MS` sheds pre-parse when a connection waited
//! longer than `MS` for an accept permit; `--shed-deadline-ms MS`
//! gives every request a deadline budget — renders that would start
//! past it are shed, partial reads older than it are answered 408.
//! Cache hits are exempt from shedding, and `/healthz` + `/admin/*`
//! are never shed.
//!
//! `--load` (requires `--serve`) skips the studies entirely: it binds
//! the server on the freshly built world — the same state the PR 8
//! soak measured — and drives the `iiscope-load` workload generator
//! against it: `--load-stages QPSxSECS,…` ramp stages (`0xN` = a
//! closed-loop ceiling stage), `--load-conns` keep-alive connections,
//! and a `--load-mix wall=W,store=W,apk=W` request mix over the seven
//! offer walls, store profile/chart crawls, and APK pulls. Results go
//! to `--load-out` (default `BENCH_load.json`); with
//! `--load-baseline PATH` the measured gate is compared against the
//! committed baseline and the run exits `6` on a regression beyond
//! `--load-tolerance` percent (default 20).
//!
//! `--checkpoint-dir DIR` durably snapshots the wild study into `DIR`
//! every `--checkpoint-every N` sim days (default: the crawl cadence).
//! `--resume` restores the newest *valid* snapshot from `DIR` —
//! corrupt or torn snapshots are detected by CRC, logged, and skipped
//! back to the last good one — and the finished run is byte-identical
//! to an uninterrupted one, at any worker count.
//!
//! Exit codes: `0` success, `1` study/pipeline or I/O error, `2` usage
//! error (including a flag given without its group's anchor, or a
//! study-only flag with `--load`; `--help` lists the groups), `3`
//! checkpoint directory unreadable, `4` snapshots present but none
//! valid, `5` a valid snapshot exists but its seed/config does not
//! match this run, `6` the load harness measured a regression beyond
//! the baseline band.

use iiscope_core::experiments::{self, ExperimentTiming};
use iiscope_core::wildsim::{CheckpointPolicy, WildRunOptions};
use iiscope_core::{checkpoint, HoneyStudy, WildArtifacts, World, WorldConfig};
use iiscope_load::{LoadStage, MixEntry};
use iiscope_serve::{AdminHandler, ServeConfig, Server, ShedConfig, ShutdownFlag};
use iiscope_types::{chaosstats, servestats, wirestats, IipId};
use iiscope_wire::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parsed command line.
struct Args {
    /// The `--scale` text as given, echoed into every BENCH envelope.
    scale: String,
    cfg: WorldConfig,
    mode: Mode,
}

/// What to do with the built world.
enum Mode {
    /// Run both studies and print the report, optionally serving.
    Study(Study),
    /// Skip the studies and load-test the served fresh world.
    Load(ServeArgs, LoadArgs),
}

struct Study {
    export: Option<PathBuf>,
    timing: bool,
    checkpoint: Option<CheckpointArgs>,
    serve: Option<ServeArgs>,
}

struct CheckpointArgs {
    policy: CheckpointPolicy,
    resume: bool,
}

struct ServeArgs {
    addr: String,
    cache: bool,
    /// Everything but `sim_now`, which comes from the built world.
    cfg: ServeConfig,
}

struct LoadArgs {
    stages: Vec<LoadStage>,
    conns: usize,
    /// `(wall, store, apk)` weights.
    mix: (u32, u32, u32),
    baseline: Option<PathBuf>,
    tolerance: f64,
    out: PathBuf,
}

/// Flags that take no value.
const SWITCHES: &str = "--timing --resume --load";

/// Flags that take one value.
const VALUED: &str = "--scale --seed --parallel --shards --memory-budget --spill-dir --export \
    --checkpoint-dir --checkpoint-every --serve --serve-workers --conn-cap --idle-timeout \
    --serve-cache --shed-inflight --shed-route --shed-queue-ms --shed-deadline-ms \
    --load-stages --load-conns --load-mix --load-baseline --load-tolerance --load-out";

/// Flags that run with the study: a usage error together with `--load`.
const STUDY_ONLY: &str = "--export --timing --checkpoint-dir --checkpoint-every --resume";

/// The anchor of `flag`'s group: given without it, `flag` is a usage
/// error. (`--load` needs `--serve` too; `parse_args` checks that as it
/// builds `Mode::Load`.)
fn anchor(flag: &str) -> Option<&'static str> {
    match flag {
        "--checkpoint-every" | "--resume" => Some("--checkpoint-dir"),
        "--serve-workers" | "--conn-cap" | "--idle-timeout" => Some("--serve"),
        f if f.starts_with("--shed-") => Some("--serve"),
        f if f.starts_with("--load-") => Some("--load"),
        _ => None,
    }
}

/// The raw flag → value map (the last occurrence wins; switches map to
/// an empty value).
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    fn raw(&self, flag: &str) -> Option<&str> {
        self.0.get(flag).map(String::as_str)
    }

    /// `flag`'s value through `parse` (`None` rejects it), when given.
    fn value<T>(&self, flag: &str, parse: impl FnOnce(&str) -> Option<T>) -> Parsed<T> {
        let bad = |v| format!("bad value for {flag}: {v:?}");
        self.raw(flag)
            .map(|v| parse(v).ok_or_else(|| bad(v)))
            .transpose()
    }

    /// `flag`'s value as a number of at least `min`, when given.
    fn num<T: std::str::FromStr + PartialOrd>(&self, flag: &str, min: T) -> Parsed<T> {
        self.value(flag, |v| v.parse().ok().filter(|n| *n >= min))
    }
}

/// A flag's parsed value, `None` when not given.
type Parsed<T> = Result<Option<T>, String>;

/// Parses the command line (without the program name). `Err` carries
/// the usage error to print; it is empty for `--help`.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut flags = Flags(BTreeMap::new());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let value = if SWITCHES.split_whitespace().any(|f| f == arg) {
            String::new()
        } else if VALUED.split_whitespace().any(|f| f == arg) {
            args.next().ok_or_else(|| format!("{arg} needs a value"))?
        } else if arg == "--help" || arg == "-h" {
            return Err(String::new());
        } else {
            return Err(format!("unknown argument {arg:?}"));
        };
        flags.0.insert(arg, value);
    }
    for flag in flags.0.keys() {
        match anchor(flag) {
            Some(anchor) if !flags.has(anchor) => return Err(format!("{flag} requires {anchor}")),
            _ => {}
        }
        if flags.has("--load") && STUDY_ONLY.split_whitespace().any(|f| f == flag) {
            return Err(format!(
                "{flag} runs with the study; it cannot be combined with --load"
            ));
        }
    }

    let scale = flags.raw("--scale").unwrap_or("paper").to_string();
    let (profile, multiplier) = flags.value("--scale", parse_scale)?.unwrap_or(("paper", 1));
    let seed = flags.num("--seed", 0)?.unwrap_or(42);
    let mut cfg = match profile {
        "small" => WorldConfig::small(seed),
        _ => WorldConfig::paper(seed),
    };
    cfg.scale = multiplier;
    cfg.parallelism = flags.num("--parallel", 1)?.unwrap_or(1);
    cfg.shards = flags.num("--shards", 1)?.unwrap_or(1);
    cfg.memory_budget = flags.value("--memory-budget", parse_bytes)?;
    cfg.spill_dir = flags.raw("--spill-dir").map(PathBuf::from);
    // Validated even without `--serve`, where it has no effect.
    let cache = flags.value("--serve-cache", |v| {
        (v == "on" || v == "off").then(|| v == "on")
    })?;
    let serve = match flags.raw("--serve") {
        None => None,
        Some(addr) => {
            let default = ServeConfig::default();
            let cfg = ServeConfig {
                workers: flags.num("--serve-workers", 1)?.unwrap_or(default.workers),
                conn_cap: flags.num("--conn-cap", 1)?.unwrap_or(default.conn_cap),
                idle_timeout: flags
                    .num("--idle-timeout", 1)?
                    .map_or(default.idle_timeout, Duration::from_millis),
                shed: ShedConfig {
                    accept_queue_ms: flags.num("--shed-queue-ms", 1)?,
                    max_inflight: flags.num("--shed-inflight", 0)?,
                    per_route: flags.num("--shed-route", 0)?,
                    deadline: flags
                        .num("--shed-deadline-ms", 1)?
                        .map(Duration::from_millis),
                },
                ..default
            };
            let (addr, cache) = (addr.to_string(), cache.unwrap_or(true));
            Some(ServeArgs { addr, cache, cfg })
        }
    };

    let mode = if flags.has("--load") {
        let serve = serve.ok_or("--load requires --serve")?;
        let stages = flags.raw("--load-stages").unwrap_or("500x2,2000x2,0x5");
        let mix = flags.raw("--load-mix").unwrap_or("wall=8,store=3,apk=1");
        Mode::Load(
            serve,
            LoadArgs {
                stages: iiscope_load::parse_stages(stages)
                    .map_err(|e| format!("--load-stages: {e}"))?,
                conns: flags.num("--load-conns", 1)?.unwrap_or(4),
                mix: iiscope_load::parse_mix_weights(mix)
                    .map_err(|e| format!("--load-mix: {e}"))?,
                baseline: flags.raw("--load-baseline").map(PathBuf::from),
                tolerance: flags
                    .value("--load-tolerance", parse_tolerance)?
                    .unwrap_or(20.0),
                out: flags.raw("--load-out").unwrap_or("BENCH_load.json").into(),
            },
        )
    } else {
        let checkpoint = match flags.raw("--checkpoint-dir") {
            None => None,
            Some(dir) => Some(CheckpointArgs {
                policy: CheckpointPolicy {
                    dir: dir.into(),
                    every_days: flags
                        .num("--checkpoint-every", 1)?
                        .unwrap_or(cfg.crawl_cadence_days),
                },
                resume: flags.has("--resume"),
            }),
        };
        Mode::Study(Study {
            export: flags.raw("--export").map(PathBuf::from),
            timing: flags.has("--timing"),
            checkpoint,
            serve,
        })
    };
    Ok(Args { scale, cfg, mode })
}

/// Prints `repro: <msg>` and exits with `code`.
fn die(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(code)
}

/// Writes a BENCH document, or exits 1 naming the path.
fn write_bench(path: impl AsRef<Path>, doc: &Json) {
    let path = path.as_ref();
    if let Err(e) = iiscope_bench::write(path, doc) {
        die(1, format!("cannot write {}: {e}", path.display()));
    }
    eprintln!("wrote {}", path.display());
}

/// Prints a counter table and returns it as a JSON object.
fn counters(title: &str, snapshot: Vec<(&'static str, u64)>) -> Json {
    eprintln!("{title}");
    for (name, value) in &snapshot {
        eprintln!("  {name:<24} {value:>14}");
    }
    Json::obj(snapshot.into_iter().map(|(k, v)| (k, v.into())))
}

fn main() {
    let Args { scale, cfg, mode } =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| usage(&msg));

    // Start the wire-, chaos- and serve-layer counters from zero so
    // the dumps reflect this run only (process-global atomics).
    wirestats::reset();
    chaosstats::reset();
    servestats::reset();

    eprintln!(
        "building world: {} advertised apps, {} baseline apps, {} days, seed {}, \
         {} worker(s), {}x scale, {} shard(s){}",
        cfg.advertised_apps,
        cfg.baseline_apps,
        cfg.monitoring_days,
        cfg.seed,
        cfg.parallelism,
        cfg.scale,
        cfg.shards,
        match cfg.memory_budget {
            Some(b) => format!(", {:.0} MB budget", b as f64 / (1 << 20) as f64),
            None => String::new(),
        }
    );
    let world = World::build(cfg).unwrap_or_else(|e| die(1, format!("world build failed: {e}")));
    match mode {
        Mode::Load(serve, load) => run_load(&world, &scale, serve, load),
        Mode::Study(study) => run_study(&world, &scale, study),
    }
}

/// A bound socket server over the world's router.
struct Serving {
    server: Server,
    flag: ShutdownFlag,
}

impl Serving {
    fn bind(world: &World, s: ServeArgs) -> Serving {
        let flag = ShutdownFlag::new();
        let cfg = ServeConfig {
            sim_now: world.study_end(),
            ..s.cfg
        };
        let router = if s.cache {
            world.serve_router()
        } else {
            world.serve_router_uncached()
        };
        let handler = Arc::new(AdminHandler::new(router, flag.clone()));
        let server = Server::start(s.addr.as_str(), cfg, handler)
            .unwrap_or_else(|e| die(1, format!("cannot bind {}: {e}", s.addr)));
        eprintln!("serving on {}", server.local_addr());
        Serving { server, flag }
    }

    /// Drains the server and prints the serve-layer counters.
    fn stop(self) {
        self.flag.trigger();
        self.server.stop();
        counters("serve-layer counters:", servestats::snapshot());
    }
}

/// `--load`: drives the workload generator against the server bound on
/// the freshly built world, writes `BENCH_load.json`, and gates it
/// against the baseline when one is given.
fn run_load(world: &World, scale: &str, serve: ServeArgs, load: LoadArgs) {
    let cache = serve.cache;
    let serving = Serving::bind(world, serve);
    let spec = iiscope_load::LoadSpec {
        stages: load.stages,
        conns: load.conns,
        mix: load_mix_targets(world, load.mix),
        seed: world.cfg.seed,
    };
    eprintln!(
        "load: {} stage(s), {} conn(s), cache {}",
        spec.stages.len(),
        spec.conns,
        if cache { "on" } else { "off" }
    );
    let addr = serving.server.local_addr();
    if let Err(e) = iiscope_load::probe(addr, &spec.mix) {
        die(1, format!("load probe failed: {e}"));
    }
    let results =
        iiscope_load::run(addr, &spec).unwrap_or_else(|e| die(1, format!("load run failed: {e}")));
    for r in &results {
        eprintln!(
            "  stage qps={:<6} {:>5.1}s: {:>8.0} req/s  p50 {}us  p90 {}us  p99 {}us  \
             max {}us  errors {}  reconnects {}",
            r.stage.qps,
            r.elapsed_secs,
            r.achieved_rps,
            r.p50_us,
            r.p90_us,
            r.p99_us,
            r.max_us,
            r.tally.errors(),
            r.reconnects
        );
    }
    let doc = iiscope_load::bench_load_json(scale, cache, &spec, &results);
    write_bench(&load.out, &doc);
    serving.stop();

    let Some(path) = load.baseline else { return };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(1, format!("cannot read baseline {}: {e}", path.display())));
    let baseline = iiscope_load::parse_baseline(&text)
        .unwrap_or_else(|e| die(1, format!("baseline {}: {e}", path.display())));
    let measured = iiscope_load::gate(&results).expect("parse_stages yields at least one stage");
    match iiscope_load::check_against_baseline(&measured, &baseline, load.tolerance) {
        Ok(verdict) => eprintln!("load gate OK ({}% band): {verdict}", load.tolerance),
        Err(why) => die(6, format!("load gate FAILED: {why}")),
    }
}

/// The studies: honey, then wild (checkpointed and resumed as asked),
/// then the CSV export and the report; a bound server keeps serving
/// after the report until `POST /admin/shutdown`.
fn run_study(world: &World, scale: &str, study: Study) {
    let (policy, resume) = match study.checkpoint {
        Some(CheckpointArgs { policy, resume }) => {
            if let Err(e) = std::fs::create_dir_all(&policy.dir) {
                let dir = policy.dir.display();
                die(3, format!("checkpoint dir {dir} unusable: {e}"));
            }
            (Some(policy), resume)
        }
        None => (None, false),
    };
    // Bind before the studies so external clients can hammer the
    // frontends mid-run — every route is a pure read, so the report
    // stays byte-identical regardless.
    let serving = study.serve.map(|s| Serving::bind(world, s));

    eprintln!("running the Section 3 honey-app study…");
    let honey = world
        .run_honey_study(world.study_start())
        .unwrap_or_else(|e| die(1, format!("honey study failed: {e}")));

    let snapshot = match &policy {
        Some(policy) if resume => resume_snapshot(world, &policy.dir),
        _ => None,
    };

    eprintln!("running the Section 4 wild study (this is the long part)…");
    let t = Instant::now();
    let artifacts = world
        .run_wild_study_with(WildRunOptions {
            checkpoint: policy,
            resume: snapshot,
            crash: None,
        })
        .unwrap_or_else(|e| die(1, format!("wild study failed: {e}")));
    let wild_secs = t.elapsed().as_secs_f64();
    let ckpt = &artifacts.checkpoints;
    if ckpt.snapshots_written > 0 {
        eprintln!(
            "wrote {} snapshot(s): last {:.1} KB, {:.1} KB total, {:.3}s total write time",
            ckpt.snapshots_written,
            ckpt.last_bytes as f64 / 1e3,
            ckpt.total_bytes as f64 / 1e3,
            ckpt.total_write_secs
        );
    }
    if let Some(day) = ckpt.resumed_from_day {
        eprintln!(
            "resumed from sim day {day}: replay + verification took {:.3}s",
            ckpt.replay_secs
        );
    }
    eprintln!(
        "wild study done in {wild_secs:.1}s: {} offer observations, {} unique offers, {} apps observed",
        artifacts.offer_observations,
        artifacts.dataset.unique_offers().len(),
        artifacts.dataset.advertised_packages().len(),
    );

    if let Some(dir) = &study.export {
        let rows = iiscope_monitor::export_csv(&artifacts.dataset, dir)
            .unwrap_or_else(|e| die(1, format!("cannot write {}: {e}", dir.display())));
        eprintln!("exported {rows} dataset rows to {}/", dir.display());
    }

    let report = if study.timing {
        timed_report(world, scale, &artifacts, honey, wild_secs)
    } else {
        experiments::full_report(world, &artifacts, honey)
    };
    println!("{report}");

    if let Some(serving) = serving {
        eprintln!(
            "report complete; still serving on {} (POST /admin/shutdown to exit)",
            serving.server.local_addr()
        );
        serving.flag.wait();
        eprintln!("shutdown requested; draining connections…");
        serving.stop();
    }
}

/// Resolves `--resume` into a validated snapshot before the long run
/// starts: exit 3 if the directory is unreadable, 4 if it holds
/// snapshots but none is valid, 5 if the newest valid one belongs to
/// another seed or config.
fn resume_snapshot(world: &World, dir: &Path) -> Option<checkpoint::Snapshot> {
    let scan = checkpoint::load_latest(dir).unwrap_or_else(|e| die(3, e));
    match scan.snapshot {
        Some((snap, path)) => {
            if let Err(why) = snap.check_compatible(&world.cfg) {
                die(5, format!("cannot resume from {}: {why}", path.display()));
            }
            eprintln!(
                "resuming from {} (sim day {}, {} corrupt snapshot(s) skipped)",
                path.display(),
                snap.day,
                scan.skipped.len()
            );
            Some(snap)
        }
        None if scan.candidates > 0 => die(
            4,
            format!(
                "{} snapshot file(s) in {} but none valid; \
                 delete the directory or fix the files to proceed",
                scan.candidates,
                dir.display()
            ),
        ),
        None => {
            eprintln!(
                "no snapshots in {}; starting fresh (first checkpointed run)",
                dir.display()
            );
            None
        }
    }
}

/// One timed report render: `(report, timings, wall seconds, spill
/// reloads it forced)`.
fn timed_pass(
    artifacts: &WildArtifacts,
    render: impl FnOnce() -> (String, Vec<ExperimentTiming>),
) -> (String, Vec<ExperimentTiming>, f64, u64) {
    let before = artifacts.dataset.spill_stats().reloads;
    let t = Instant::now();
    let (report, timings) = render();
    let secs = t.elapsed().as_secs_f64();
    let reloads = artifacts.dataset.spill_stats().reloads - before;
    (report, timings, secs, reloads)
}

/// `--timing`: renders the report incrementally and in batch, prints
/// the timing tables, writes the seven BENCH dumps, and returns the
/// batch report.
fn timed_report(
    world: &World,
    scale: &str,
    artifacts: &WildArtifacts,
    honey: HoneyStudy,
    wild_secs: f64,
) -> String {
    // Render the incremental report first — on the still-cold dataset
    // — so its reload counter reflects what the aggregate layer
    // actually avoids; the batch pass runs second and can only benefit
    // from whatever the first pass left in the LRU, which understates
    // (never inflates) the measured win. An untimed incremental
    // warm-up goes before both: the sections shared by both paths
    // (detector, APK static analysis) fault their working set in on
    // first touch, which would otherwise be billed to whichever timed
    // pass ran first, and it touches no cold spill segments, so the
    // reload counters stay honest.
    let _ = experiments::full_report_incremental(world, artifacts, honey.clone());
    let (incr_report, incr_timings, incr_secs, incr_reloads) = timed_pass(artifacts, || {
        experiments::full_report_incremental_timed(world, artifacts, honey.clone())
    });
    let (report, timings, batch_secs, batch_reloads) = timed_pass(artifacts, || {
        experiments::full_report_timed(world, artifacts, honey)
    });

    let total: f64 = timings.iter().map(|t| t.seconds).sum();
    eprintln!("experiment timings ({total:.2}s total):");
    for t in &timings {
        eprintln!("  {:<14} {:>8.3}s", t.label, t.seconds);
    }
    let wire = counters("wire-layer counters:", wirestats::snapshot());
    let chaos = counters(
        "chaos-layer counters (all zero on a clean network):",
        chaosstats::snapshot(),
    );
    let byte_identical = incr_report == report;
    eprintln!(
        "report pass: batch {batch_secs:.3}s ({batch_reloads} reload(s)) vs \
         incremental {incr_secs:.3}s ({incr_reloads} reload(s)), byte-identical: {byte_identical}"
    );
    if !byte_identical {
        eprintln!("repro: WARNING: incremental report differs from the batch oracle");
    }

    let experiments = timings
        .iter()
        .map(|t| Json::obj([("label", t.label.into()), ("seconds", t.seconds.into())]));
    let side_by_side = timings.iter().zip(&incr_timings).map(|(b, i)| {
        Json::obj([
            ("label", b.label.into()),
            ("batch_seconds", b.seconds.into()),
            ("incremental_seconds", i.seconds.into()),
        ])
    });
    let stats = artifacts.dataset.intern_stats();
    let intern_stats = Json::obj([
        ("package_symbols", stats.package_symbols.into()),
        ("package_slab_bytes", stats.package_slab_bytes.into()),
        ("description_symbols", stats.description_symbols.into()),
        (
            "description_slab_bytes",
            stats.description_slab_bytes.into(),
        ),
    ]);
    let spill = artifacts.dataset.spill_stats();
    let spill_json = Json::obj([
        ("spilled_segments", spill.spilled_segments.into()),
        ("spilled_rows", spill.spilled_rows.into()),
        ("spilled_bytes", spill.spilled_bytes.into()),
        ("reloads", spill.reloads.into()),
        ("resident_bytes", spill.resident_bytes.into()),
    ]);
    let (cfg, ckpt) = (&world.cfg, &artifacts.checkpoints);
    let dumps: [(&str, Vec<(&str, Json)>); 7] = [
        (
            "BENCH_repro.json",
            vec![
                ("wild_study_seconds", wild_secs.into()),
                ("experiment_seconds_total", total.into()),
                ("experiments", Json::arr(experiments)),
            ],
        ),
        ("BENCH_wire.json", vec![("counters", wire)]),
        ("BENCH_chaos.json", vec![("counters", chaos)]),
        (
            "BENCH_dataset.json",
            vec![
                ("wild_study_seconds", wild_secs.into()),
                ("intern_stats", intern_stats),
            ],
        ),
        (
            "BENCH_checkpoint.json",
            vec![
                ("snapshots_written", ckpt.snapshots_written.into()),
                ("last_snapshot_bytes", ckpt.last_bytes.into()),
                ("total_snapshot_bytes", ckpt.total_bytes.into()),
                ("total_write_secs", ckpt.total_write_secs.into()),
                ("resumed_from_day", ckpt.resumed_from_day.into()),
                ("replay_secs", ckpt.replay_secs.into()),
            ],
        ),
        (
            "BENCH_scale.json",
            vec![
                ("shards", cfg.shards.into()),
                ("scale_multiplier", cfg.scale.into()),
                ("memory_budget_bytes", cfg.memory_budget.into()),
                ("wild_study_seconds", wild_secs.into()),
                ("tagged_installs", artifacts.tagged_installs.into()),
                (
                    "devices_per_second",
                    (artifacts.tagged_installs as f64 / wild_secs.max(1e-9)).into(),
                ),
                ("spill", spill_json),
            ],
        ),
        (
            "BENCH_report.json",
            vec![
                ("batch_report_seconds", batch_secs.into()),
                ("incremental_report_seconds", incr_secs.into()),
                ("speedup", (batch_secs / incr_secs.max(1e-9)).into()),
                ("batch_reloads_during_render", batch_reloads.into()),
                ("incremental_reloads_during_render", incr_reloads.into()),
                ("byte_identical", byte_identical.into()),
                ("experiments", Json::arr(side_by_side)),
            ],
        ),
    ];
    for (path, fields) in dumps {
        write_bench(
            path,
            &iiscope_bench::document(scale, cfg.seed, cfg.parallelism, fields),
        );
    }
    report
}

/// Builds the `--load` request mix from the world: one wall-milk
/// target per IIP (the `wall` weight each), store profile crawls over
/// the honey app, a handful of planned apps and a charts page (the
/// `store` weight each), and the honey APK pull (the `apk` weight).
/// The affiliate is the monitoring app registered on every wall, so
/// every target answers 200 on the freshly built world.
fn load_mix_targets(world: &World, (wall, store, apk): (u32, u32, u32)) -> Vec<MixEntry> {
    const AFFILIATE: &str = "com.mobvantage.cashforapps";
    let honey = iiscope_honeyapp::HONEY_PACKAGE;
    let entry = |name: String, target: String, weight| MixEntry {
        name,
        target,
        weight,
    };
    let walls = IipId::ALL.into_iter().map(|iip| {
        let slug = iip.slug();
        entry(
            format!("wall:{slug}"),
            format!("/wall/{slug}/offers?affiliate={AFFILIATE}"),
            wall,
        )
    });
    let planned = world.plan.apps.iter().take(3).map(|a| a.package.as_str());
    let profiles = std::iter::once(honey).chain(planned).map(|pkg| {
        entry(
            format!("store:{pkg}"),
            format!("/store/apps/details?id={pkg}"),
            store,
        )
    });
    let charts = "/store/charts?chart=topselling_free&n=10";
    walls
        .chain(profiles)
        .chain([
            entry("store:charts".into(), charts.into(), store),
            entry("apk:honey".into(), format!("/apk?id={honey}"), apk),
        ])
        .collect()
}

/// Splits a `--scale` argument into (profile, multiplier): `small`,
/// `paper`, a bare multiplier (paper profile), or `profile:N`.
fn parse_scale(s: &str) -> Option<(&'static str, u64)> {
    let (profile, mult) = match s.split_once(':') {
        Some((p, m)) => (p, m.parse().ok().filter(|&n| n >= 1)?),
        None => match s.parse::<u64>() {
            Ok(n) if n >= 1 => ("paper", n),
            Ok(_) => return None,
            Err(_) => (s, 1),
        },
    };
    match profile {
        "paper" => Some(("paper", mult)),
        "small" => Some(("small", mult)),
        _ => None,
    }
}

/// Parses a `--load-tolerance` percentage: finite and non-negative.
fn parse_tolerance(s: &str) -> Option<f64> {
    s.parse().ok().filter(|t: &f64| t.is_finite() && *t >= 0.0)
}

/// Parses a byte count with optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive): `64m` → 67108864. Zero and counts that
/// overflow `u64` are rejected.
fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 10),
        'm' | 'M' => (&s[..s.len() - 1], 20),
        'g' | 'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_mul(1 << shift).filter(|&b| b > 0)
}

/// Prints `repro: <msg>` (unless empty) and the usage text, and exits 2.
fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("repro: {msg}");
    }
    eprintln!(
        "usage: repro [--scale small|paper|N|small:N|paper:N] [--seed N] [--parallel N]\n\
         \x20            [--shards N] [--memory-budget BYTES] [--spill-dir DIR]\n\
         \x20            [--export DIR] [--timing]\n\
         \x20            [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]\n\
         \x20            [--serve ADDR] [--serve-workers N] [--conn-cap N] [--idle-timeout MS]\n\
         \x20            [--serve-cache on|off] [--shed-inflight N] [--shed-route N]\n\
         \x20            [--shed-queue-ms MS] [--shed-deadline-ms MS]\n\
         \x20            [--load] [--load-stages SPEC] [--load-conns N] [--load-mix SPEC]\n\
         \x20            [--load-baseline PATH] [--load-tolerance PCT] [--load-out PATH]\n\
         \n\
         --scale PROFILE[:N]    world profile and campaign-volume multiplier\n\
         \x20                      (bare N = paper profile at N x volume)\n\
         --shards N             split population + sim state into N shards\n\
         --memory-budget BYTES  resident-dataset cap; k/m/g suffixes accepted\n\
         --spill-dir DIR        where cold column segments spill (default: temp)\n\
         --checkpoint-dir DIR   durably snapshot the wild study into DIR\n\
         --checkpoint-every N   snapshot every N sim days (default: crawl cadence)\n\
         --resume               restore the newest valid snapshot from DIR\n\
         --serve ADDR           expose the world's HTTP surface on a real TCP\n\
         \x20                      listener (port 0 = ephemeral; addr on stderr)\n\
         --serve-workers N      accept workers (default 2)\n\
         --conn-cap N           in-flight connection cap (default 256)\n\
         --idle-timeout MS      per-connection idle timeout (default 10000)\n\
         --serve-cache on|off   day-versioned response cache (default on)\n\
         --shed-inflight N      503-shed renders past N concurrent (default: off)\n\
         --shed-route N         503-shed past N concurrent renders per route\n\
         --shed-queue-ms MS     503 before parsing when the accept queue is\n\
         \x20                      staler than MS (cheap pre-parse gate)\n\
         --shed-deadline-ms MS  request deadline budget: shed renders (503) and\n\
         \x20                      kill partial reads (408) older than MS\n\
         --load                 drive the workload generator against --serve\n\
         \x20                      (skips the studies; serves the fresh world)\n\
         --load-stages SPEC     ramp stages QPSxSECS,… (0xN = closed-loop\n\
         \x20                      ceiling; default 500x2,2000x2,0x5)\n\
         --load-conns N         keep-alive connections (default 4)\n\
         --load-mix SPEC        wall=W,store=W,apk=W weights (default 8,3,1)\n\
         --load-baseline PATH   compare the gate against a committed\n\
         \x20                      BENCH_load.json; exit 6 on regression\n\
         --load-tolerance PCT   allowed regression band (default 20)\n\
         --load-out PATH        where results go (default BENCH_load.json)\n\
         \n\
         --checkpoint-every and --resume need --checkpoint-dir; --serve-workers,\n\
         --conn-cap, --idle-timeout, --shed-* and --load need --serve; --load-*\n\
         need --load; --export, --timing, --checkpoint-* and --resume are\n\
         study-only and cannot be combined with --load.\n\
         \n\
         exit codes: 0 ok, 1 study or I/O error, 2 usage, 3 checkpoint dir unreadable,\n\
         \x20           4 snapshots present but none valid, 5 snapshot/config mismatch,\n\
         \x20           6 load gate regression beyond the baseline band"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    fn study(line: &str) -> Study {
        match parse(line).map(|a| a.mode) {
            Ok(Mode::Study(study)) => study,
            _ => panic!("{line}: not a study"),
        }
    }

    fn load(line: &str) -> (ServeArgs, LoadArgs) {
        match parse(line).map(|a| a.mode) {
            Ok(Mode::Load(serve, load)) => (serve, load),
            _ => panic!("{line}: not a load run"),
        }
    }

    #[test]
    fn every_flag_parses_to_its_field() {
        let args = "--scale small:3 --seed 7 --parallel 4 --shards 2 --memory-budget 64k \
                    --spill-dir sp";
        let Args { scale, cfg, .. } = parse(args).unwrap();
        assert_eq!(cfg.advertised_apps, WorldConfig::small(7).advertised_apps);
        let got = (cfg.seed, cfg.scale, cfg.parallelism, cfg.shards);
        assert_eq!((scale.as_str(), got), ("small:3", (7, 3, 4, 2)));
        let got = (cfg.memory_budget, cfg.spill_dir);
        assert_eq!(got, (Some(64 << 10), Some("sp".into())));

        let s = study(
            "--export ex --timing --checkpoint-dir ck --checkpoint-every 3 --resume \
             --serve 127.0.0.1:0 --serve-workers 3 --conn-cap 9 --idle-timeout 50 \
             --serve-cache off --shed-inflight 4 --shed-route 5 --shed-queue-ms 6 \
             --shed-deadline-ms 7",
        );
        assert_eq!((s.export, s.timing), (Some("ex".into()), true));
        let CheckpointArgs { policy, resume } = s.checkpoint.unwrap();
        let got = (policy.dir, policy.every_days, resume);
        assert_eq!(got, ("ck".into(), 3, true));
        let ServeArgs { addr, cache, cfg } = s.serve.unwrap();
        assert_eq!((addr.as_str(), cache), ("127.0.0.1:0", false));
        let got = (cfg.workers, cfg.conn_cap, cfg.idle_timeout.as_millis());
        assert_eq!(got, (3, 9, 50));
        let shed = cfg.shed;
        let got = (shed.max_inflight, shed.per_route, shed.accept_queue_ms);
        assert_eq!(got, (Some(4), Some(5), Some(6)));
        assert_eq!(shed.deadline, Some(Duration::from_millis(7)));

        let (serve, l) = load(
            "--serve a:1 --load --load-stages 10x1,0x2 --load-conns 3 --load-mix wall=2 \
             --load-baseline b.json --load-tolerance 5 --load-out o.json",
        );
        assert_eq!(serve.addr, "a:1");
        let stages = vec![
            LoadStage { qps: 10, secs: 1 },
            LoadStage { qps: 0, secs: 2 },
        ];
        assert_eq!((l.stages, l.conns, l.mix), (stages, 3, (2, 0, 0)));
        let got = (l.baseline, l.tolerance, l.out);
        assert_eq!(got, (Some("b.json".into()), 5.0, "o.json".into()));
    }

    #[test]
    fn defaults_fill_every_group() {
        let Args { scale, cfg, .. } = parse("").unwrap();
        let got = (cfg.seed, cfg.scale, cfg.parallelism, cfg.shards);
        assert_eq!((scale.as_str(), got), ("paper", (42, 1, 1, 1)));
        let s = study("");
        assert!(s.export.is_none() && !s.timing && s.checkpoint.is_none() && s.serve.is_none());
        let ck = study("--scale small --checkpoint-dir d")
            .checkpoint
            .unwrap();
        let cadence = WorldConfig::small(42).crawl_cadence_days;
        assert_eq!((ck.policy.every_days, ck.resume), (cadence, false));

        let (ServeArgs { cache, cfg, .. }, l) = load("--serve a --load");
        let got = (cfg.workers, cfg.conn_cap, cfg.idle_timeout.as_secs(), cache);
        assert_eq!(got, (2, 256, 10, true));
        assert!(cfg.shed.max_inflight.is_none() && cfg.shed.deadline.is_none());
        let stages = iiscope_load::parse_stages("500x2,2000x2,0x5").unwrap();
        assert_eq!((l.stages, l.conns, l.mix), (stages, 4, (8, 3, 1)));
        let got = (l.baseline, l.tolerance, l.out);
        assert_eq!(got, (None, 20.0, "BENCH_load.json".into()));
    }

    #[test]
    fn a_flag_without_its_anchor_is_a_usage_error() {
        let orphans = "--resume | --checkpoint-every 3 | --serve-workers 2 | --conn-cap 2 \
            | --idle-timeout 5 | --shed-inflight 4 | --shed-route 4 | --shed-queue-ms 4 \
            | --shed-deadline-ms 4 | --load | --load-stages 0x1 | --load-conns 2 \
            | --load-mix wall=1 | --load-baseline b | --load-tolerance 5 | --load-out o \
            | --serve a --load-out o | --serve a --load --export d | --serve a --load --timing \
            | --serve a --load --checkpoint-dir d | --serve a --load --checkpoint-dir d --resume";
        for line in orphans.split('|') {
            assert!(parse(line).is_err(), "{line} parsed");
        }
        let err = |line| parse(line).err().unwrap();
        let want = "--checkpoint-every requires --checkpoint-dir";
        assert_eq!(err("--checkpoint-every 3"), want);
        assert_eq!(err("--load-stages 0x1"), "--load-stages requires --load");
        assert_eq!(err("--shed-inflight 4"), "--shed-inflight requires --serve");
        assert_eq!(err("--load"), "--load requires --serve");
        assert!(err("--serve a --load --export d").starts_with("--export runs with the study"));
        // The cache switch is validated but, as before, needs no anchor.
        assert!(parse("--serve-cache off").is_ok() && parse("--serve-cache maybe").is_err());
    }

    #[test]
    fn bad_values_and_unknown_flags_are_usage_errors() {
        let bad = "--parallel 0 | --shards 0 | --seed x | --seed | --bogus | --scale tiny \
            | --memory-budget 0 | --serve a --serve-workers 0 | --serve a --conn-cap 0 \
            | --serve a --idle-timeout 0 | --serve a --shed-queue-ms 0 \
            | --checkpoint-dir d --checkpoint-every 0 | --serve a --load --load-conns 0 \
            | --serve a --load --load-tolerance -1 | --serve a --load --load-tolerance inf \
            | --serve a --load --load-stages 5 | --serve a --load --load-mix walls=1";
        for line in bad.split('|') {
            assert!(parse(line).is_err(), "{line} parsed");
        }
        assert_eq!(parse("--help").err().unwrap(), "");
        let want = "unknown argument \"--bogus\"";
        assert_eq!(parse("--bogus").err().unwrap(), want);
    }

    #[test]
    fn scale_accepts_profiles_multipliers_and_both() {
        let table = [
            ("small", Some(("small", 1))),
            ("paper", Some(("paper", 1))),
            ("100", Some(("paper", 100))),
            ("small:10", Some(("small", 10))),
            ("paper:3", Some(("paper", 3))),
        ];
        for (s, want) in table {
            assert_eq!(parse_scale(s), want, "{s}");
        }
        for s in " 0 small:0 small: small:x tiny tiny:2 -1".split(' ') {
            assert_eq!(parse_scale(s), None, "{s:?}");
        }
    }

    #[test]
    fn bytes_take_suffixes_and_reject_zero_and_overflow() {
        let table = [
            ("1", 1),
            ("64k", 64 << 10),
            ("64M", 64 << 20),
            ("2g", 2 << 30),
            (" 3K ", 3 << 10),
            ("17179869183g", (17179869183 << 30)),
            ("18446744073709551615", u64::MAX),
        ];
        for (s, want) in table {
            assert_eq!(parse_bytes(s), Some(want), "{s}");
        }
        let rejects = " 0 0k k -1 1t 1.5m 18446744073709551616";
        // Past u64 after the suffix: the last two used to wrap to
        // 1 GiB and 1 KiB.
        let overflows = "17179869184g 17592186044416m 17179869185g 18014398509481985k";
        for s in rejects.split(' ').chain(overflows.split(' ')) {
            assert_eq!(parse_bytes(s), None, "{s:?}");
        }
    }
}
