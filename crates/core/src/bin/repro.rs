//! `repro` — regenerates every table and figure of the paper.
//!
//! `repro [FLAG]...`: `repro --help` prints every flag with its value,
//! the flag it needs and whether it runs with the study only, from the
//! one flag table (`FLAGS`) the parser checks the command line against.
//!
//! Builds the world, runs the §3 honey study and the §4 wild study,
//! and prints the full report (the measured side of `EXPERIMENTS.md`).
//! `--parallel N` fans the wild study's crawl days, sim shards and the
//! experiment suite over N worker threads — the report is bit-identical
//! to the sequential run at any N. The printed report is the
//! incremental one (the hot tables render from aggregates folded during
//! the wild study); the batch report it equals byte for byte is a test
//! oracle, not run here. `--timing` renders the report once, timed,
//! prints a per-experiment timing table to stderr and writes the seven
//! `BENCH_*.json` dumps (one `iiscope_bench::document` each), including
//! `BENCH_report.json` — the report pass's wall time and the spill
//! reloads it forced.
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
//! `--checkpoint-dir DIR` snapshots the wild study into `DIR` every
//! `--checkpoint-every N` sim days (default: the crawl cadence), and
//! `--resume` restores the newest valid one; the run
//! (`iiscope_core::run`, DESIGN.md §19) does both and picks exit codes
//! 1 and 3–5. `repro` adds `2` for a usage error (including a flag
//! given without its group's anchor, or a study-only flag with
//! `--load`; `--help` names both), `1` for an I/O error, and `6` when
//! the load harness measured a regression beyond the baseline band.

use iiscope_core::wildsim::CheckpointPolicy;
use iiscope_core::{Outcome, Run, RunOptions, World, WorldConfig};
use iiscope_load::{LoadStage, MixEntry};
use iiscope_serve::{AdminHandler, ServeConfig, Server, ShedConfig, ShutdownFlag};
use iiscope_types::IipId;
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
    run: RunOptions,
    serve: Option<ServeArgs>,
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

/// Every flag, once: its name, its value's placeholder (empty for a
/// switch), the anchor it needs (empty for none; given without it, the
/// flag is a usage error), whether it runs with the study only (a usage
/// error with `--load`), and its help text. `parse_args` checks the
/// command line against it and `usage` prints it.
#[rustfmt::skip]
const FLAGS: [(&str, &str, &str, bool, &str); 27] = [
    ("--scale", "PROFILE[:N]", "", false,
        "world profile and campaign-volume multiplier (bare N = paper:N)"),
    ("--seed", "N", "", false, "world seed (default 42)"),
    ("--parallel", "N", "", false, "worker threads; never changes a byte (default 1)"),
    ("--shards", "N", "", false, "split population + sim state into N shards"),
    ("--memory-budget", "BYTES", "", false, "resident-dataset cap; k/m/g suffixes accepted"),
    ("--spill-dir", "DIR", "", false, "where cold column segments spill (default: temp)"),
    ("--export", "DIR", "", true, "write the dataset as CSV files into DIR"),
    ("--timing", "", "", true, "time the report; write the BENCH_*.json dumps"),
    ("--checkpoint-dir", "DIR", "", true, "durably snapshot the wild study into DIR"),
    ("--checkpoint-every", "N", "--checkpoint-dir", true,
        "snapshot every N sim days (default: crawl cadence)"),
    ("--resume", "", "--checkpoint-dir", true, "restore the newest valid snapshot from DIR"),
    ("--serve", "ADDR", "", false,
        "expose the world's HTTP surface on a real TCP listener (port 0 = ephemeral)"),
    ("--serve-workers", "N", "--serve", false, "accept workers (default 2)"),
    ("--conn-cap", "N", "--serve", false, "in-flight connection cap (default 256)"),
    ("--idle-timeout", "MS", "--serve", false, "per-connection idle timeout (default 10000)"),
    ("--serve-cache", "on|off", "", false, "day-versioned response cache (default on)"),
    ("--shed-inflight", "N", "--serve", false, "503-shed renders past N concurrent (default: off)"),
    ("--shed-route", "N", "--serve", false, "503-shed past N concurrent renders per route"),
    ("--shed-queue-ms", "MS", "--serve", false,
        "503 before parsing when the accept queue is staler than MS"),
    ("--shed-deadline-ms", "MS", "--serve", false,
        "shed renders (503) and kill partial reads (408) older than MS"),
    ("--load", "", "--serve", false, "drive the workload generator; skips the studies"),
    ("--load-stages", "SPEC", "--load", false,
        "ramp stages QPSxSECS,... (0xN = closed loop; default 500x2,2000x2,0x5)"),
    ("--load-conns", "N", "--load", false, "keep-alive connections (default 4)"),
    ("--load-mix", "SPEC", "--load", false, "wall=W,store=W,apk=W weights (default 8,3,1)"),
    ("--load-baseline", "PATH", "--load", false,
        "compare against a committed BENCH_load.json; exit 6 on regression"),
    ("--load-tolerance", "PCT", "--load", false, "allowed regression band (default 20)"),
    ("--load-out", "PATH", "--load", false, "where results go (default BENCH_load.json)"),
];

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
    let spec = |arg: &str| FLAGS.into_iter().find(|f| f.0 == arg);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Err(String::new());
        }
        let Some((_, value, ..)) = spec(&arg) else {
            return Err(format!("unknown argument {arg:?}"));
        };
        let value = match value {
            "" => String::new(),
            _ => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        flags.0.insert(arg, value);
    }
    for flag in flags.0.keys() {
        let (_, _, anchor, study_only, _) = spec(flag).expect("only known flags are kept");
        if !anchor.is_empty() && !flags.has(anchor) {
            return Err(format!("{flag} requires {anchor}"));
        }
        if study_only && flags.has("--load") {
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
            Some(dir) => Some(CheckpointPolicy {
                dir: dir.into(),
                every_days: flags
                    .num("--checkpoint-every", 1)?
                    .unwrap_or(cfg.crawl_cadence_days),
            }),
        };
        let run = RunOptions {
            checkpoint,
            resume: flags.has("--resume"),
            ..RunOptions::default()
        };
        Mode::Study(Study {
            export: flags.raw("--export").map(PathBuf::from),
            timing: flags.has("--timing"),
            run,
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
            Some(b) => format!(", {} budget", exact_bytes(b)),
            None => String::new(),
        }
    );
    let run = Run::new(cfg).unwrap_or_else(|e| die(e.exit_code(), e));
    let study = match mode {
        Mode::Load(serve, load) => return run_load(run.world(), &scale, serve, load),
        Mode::Study(study) => study,
    };
    // Bind before the studies so external clients can hammer the
    // frontends mid-run — every route is a pure read, so the report
    // stays byte-identical regardless.
    let serving = study.serve.map(|s| Serving::bind(run.world(), s));
    let out = run
        .study(study.run)
        .unwrap_or_else(|e| die(e.exit_code(), e));
    if let Some(dir) = &study.export {
        let rows = iiscope_monitor::export_csv(&out.artifacts.dataset, dir)
            .unwrap_or_else(|e| die(1, format!("cannot write {}: {e}", dir.display())));
        eprintln!("exported {rows} dataset rows to {}/", dir.display());
    }
    let report = if study.timing {
        timed_report(&out, &scale)
    } else {
        out.report()
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

/// A bound socket server over the world's router.
struct Serving {
    server: Server,
    router: Arc<iiscope_core::servefront::WorldRouter>,
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
        let handler = Arc::new(AdminHandler::new(router.clone(), flag.clone()));
        let server = Server::start(s.addr.as_str(), cfg, handler)
            .unwrap_or_else(|e| die(1, format!("cannot bind {}: {e}", s.addr)));
        eprintln!("serving on {}", server.local_addr());
        Serving {
            server,
            router,
            flag,
        }
    }

    /// Drains the server and prints the serve-layer counters: the
    /// server's book, then the router's cache book.
    fn stop(self) {
        self.flag.trigger();
        self.server.stop();
        let mut book = self.server.counters().snapshot();
        book.extend(self.router.cache_stats().snapshot());
        counters("serve-layer counters:", book);
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

/// `--timing`: renders the report once, timed, prints the timing
/// tables, writes the seven BENCH dumps, and returns the report.
fn timed_report(out: &Outcome, scale: &str) -> String {
    let (world, artifacts, wild_secs) = (out.world(), &out.artifacts, out.wild_secs);
    let reloads_before = artifacts.dataset.spill_stats().reloads;
    let t = Instant::now();
    let (report, timings) = out.timed_report();
    let report_secs = t.elapsed().as_secs_f64();
    let report_reloads = artifacts.dataset.spill_stats().reloads - reloads_before;

    let total: f64 = timings.iter().map(|t| t.seconds).sum();
    eprintln!("experiment timings ({total:.2}s total):");
    for t in &timings {
        eprintln!("  {:<14} {:>8.3}s", t.label, t.seconds);
    }
    let wire = counters("wire-layer counters:", world.net.wire().snapshot());
    let chaos = counters(
        "chaos-layer counters (all zero on a clean network):",
        world.net.chaos().snapshot(),
    );
    eprintln!("report pass: {report_secs:.3}s ({report_reloads} spill reload(s))");

    let experiments = timings
        .iter()
        .map(|t| Json::obj([("label", t.label.into()), ("seconds", t.seconds.into())]));
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
    let offer_segments = &artifacts.dataset.offers_spill().segments;
    let offer_spilled_rows: u64 = offer_segments.iter().map(|s| s.rows).sum();
    let offer_spilled_bytes: u64 = offer_segments.iter().map(|s| u64::from(s.blob.len)).sum();
    let ledger = world.store.install_ledger_footprint();
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
                ("offer_rows", artifacts.offer_observations.into()),
                (
                    "offer_log_bytes",
                    artifacts.dataset.offer_log_bytes().into(),
                ),
                ("profile_rows", artifacts.dataset.profiles().len().into()),
                (
                    "profile_log_bytes",
                    artifacts.dataset.profile_log_bytes().into(),
                ),
                ("chart_rows", artifacts.dataset.charts().len().into()),
                ("chart_entries", artifacts.dataset.chart_entries().into()),
                (
                    "chart_log_bytes",
                    artifacts.dataset.chart_log_bytes().into(),
                ),
            ],
        ),
        (
            "BENCH_checkpoint.json",
            vec![
                ("snapshots_written", ckpt.snapshots_written.into()),
                ("last_snapshot_bytes", ckpt.last_bytes.into()),
                ("total_snapshot_bytes", ckpt.total_bytes.into()),
                ("total_write_secs", ckpt.total_write_secs.into()),
                ("encode_secs", ckpt.encode_secs.into()),
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
                ("install_events", ledger.events.into()),
                ("install_ledger_bytes", ledger.heap_bytes.into()),
                ("install_ledger_spilled_bytes", ledger.spilled_bytes.into()),
                (
                    "install_ledger_spilled_chunks",
                    ledger.spilled_chunks.into(),
                ),
                (
                    "devices_per_second",
                    (artifacts.tagged_installs as f64 / wild_secs.max(1e-9)).into(),
                ),
                ("spill", spill_json),
                ("offer_spilled_rows", offer_spilled_rows.into()),
                ("offer_spilled_bytes", offer_spilled_bytes.into()),
            ],
        ),
        (
            "BENCH_report.json",
            vec![
                ("incremental_report_seconds", report_secs.into()),
                ("incremental_reloads_during_render", report_reloads.into()),
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

/// A byte count in the largest binary unit that divides it exactly:
/// `32 KiB`, `32 MiB`, `1536 KiB`, `100 B`.
fn exact_bytes(b: u64) -> String {
    let (n, unit) = [(30, "GiB"), (20, "MiB"), (10, "KiB")]
        .into_iter()
        .find(|&(shift, _)| b != 0 && b.is_multiple_of(1 << shift))
        .map_or((b, "B"), |(shift, unit)| (b >> shift, unit));
    format!("{n} {unit}")
}

/// Prints `repro: <msg>` (unless empty) and the flag table, and exits 2.
fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("repro: {msg}");
    }
    eprintln!("usage: repro [FLAG]...\n");
    for (name, value, anchor, study_only, help) in FLAGS {
        let mut line = format!("  {:<26}{help}", format!("{name} {value}"));
        if !anchor.is_empty() {
            line += &format!("; needs {anchor}");
        }
        if study_only {
            line += "; not with --load";
        }
        eprintln!("{line}");
    }
    eprintln!(
        "\nexit codes: 0 ok, 1 study or I/O error, 2 usage, 3 checkpoint dir unreadable,\n\
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
        let RunOptions {
            checkpoint, resume, ..
        } = s.run;
        let policy = checkpoint.unwrap();
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
        assert!(s.export.is_none() && !s.timing && s.run.checkpoint.is_none() && s.serve.is_none());
        let ck = study("--scale small --checkpoint-dir d").run;
        let cadence = WorldConfig::small(42).crawl_cadence_days;
        assert_eq!(
            (ck.checkpoint.unwrap().every_days, ck.resume),
            (cadence, false)
        );

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
    fn budgets_print_exactly_in_the_largest_unit() {
        let table = [
            (32 << 10, "32 KiB"),
            (64 << 10, "64 KiB"),
            (32 << 20, "32 MiB"),
            (2 << 30, "2 GiB"),
            (1536 << 10, "1536 KiB"),
            (100, "100 B"),
            (1, "1 B"),
        ];
        for (b, want) in table {
            assert_eq!(exact_bytes(b), want, "{b}");
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
