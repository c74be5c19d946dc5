//! The four workloads, each a session of the system as a user runs it:
//! set-up (world build, and for the serve workloads the server and its
//! warm pass), the job a user waits for, and the requests a client of
//! `repro --serve` sends. Every parameter here is a fixed constant;
//! the only inputs are the seed and the length of serve-hot's open-loop
//! phase.

use crate::driver::{self, Conn, Phase, Target, Via, CONNS};
use crate::probes::{self, client_ctx};
use crate::stats::{
    fnv1a64, median, metrics_json, peak_rss_mb, percentile, process_cpu_s, push, Metrics, Mix64,
};
use crate::trace::{Trace, ROOT};
use iiscope_core::chaos::CrashPlan;
use iiscope_core::experiments::{self, ExperimentTiming};
use iiscope_core::servefront::WorldRouter;
use iiscope_core::wildsim::{CheckpointPolicy, WildRunOptions};
use iiscope_core::{HoneyStudy, WildArtifacts, World, WorldConfig};
use iiscope_serve::{AdminHandler, ServeConfig, Server, ShutdownFlag};
use iiscope_types::IipId;
use iiscope_wire::{Handler, Request};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StudyPaper,
    StudyScaled,
    ServeHot,
    ServeDuringStudy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StudyPaper,
        Workload::StudyScaled,
        Workload::ServeHot,
        Workload::ServeDuringStudy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyPaper => "study-paper",
            Workload::StudyScaled => "study-scaled",
            Workload::ServeHot => "serve-hot",
            Workload::ServeDuringStudy => "serve-during-study",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Worker threads for the study, as `repro --parallel 2` on 2 cores.
const PARALLELISM: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Pause before each repeated set-up. A set-up takes about 10 ms and a
/// shared machine's speed changes every second or so, by up to a third;
/// back to back, one run's set-ups would all land in one speed. Spaced,
/// they sample about 1.7 seconds of it.
const SETUP_GAP: Duration = Duration::from_millis(75);
/// study-scaled: the paper world at 4× campaign volume, 2 shards, a
/// 32 MiB resident budget and a snapshot every 7 sim days.
const SCALE: u64 = 4;
const SHARDS: usize = 2;
const MEMORY_BUDGET: u64 = 32 << 20;
const CHECKPOINT_EVERY_DAYS: u64 = 7;
/// Open-loop rates (requests/s over both connections) of serve-hot and
/// serve-during-study.
const HOT_RPS: f64 = 10_000.0;
const DURING_RPS: f64 = 1_000.0;
/// serve-hot's job: closed-loop batches of hot requests, 30–50 ms
/// each. A batch this short often runs without the machine stalling a
/// thread, so their median moves with the server's speed rather than
/// with how often the host interrupts.
const HOT_BATCHES: usize = 105;
const HOT_BATCH_REQUESTS: u64 = 5_000;
/// An open-loop phase below this share of its target rate failed.
const MIN_RATE_SHARE: f64 = 0.98;
/// The monitoring app registered on every wall.
const AFFILIATE: &str = "com.mobvantage.cashforapps";

/// One benchmark invocation.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The root of the checkout the benchmark was built from. The sources
/// sit in `examples/benchmark/` and build either as a package of their
/// own or as the root package's example.
fn repo_root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    if env!("CARGO_PKG_NAME") == "iiscope-benchmark" {
        manifest.parent().and_then(Path::parent).unwrap_or(manifest)
    } else {
        manifest
    }
}

/// Temp files and trace output, under the checkout's root.
fn out_dir() -> PathBuf {
    repo_root().join(".bench_out")
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    /// Whether the outputs matched an independent reference: the
    /// committed report digest on the study workloads (seeds 42 and 7;
    /// any other seed is unverified), the uncached router on serve-hot.
    pub verified: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Numbers only this workload produces, reported but not gated.
    pub diagnostics: Metrics,
    /// Diagnostics for stderr.
    pub notes: Vec<String>,
}

/// A directory removed on drop, so every exit path (errors and panics
/// included) cleans up the snapshot and spill files.
struct TempDir(PathBuf);

impl TempDir {
    fn create(path: PathBuf) -> Result<TempDir, String> {
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create temp dir {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Operations attempted and failed, with the first reasons.
#[derive(Default)]
struct Books {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Books {
    fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(why());
        }
    }

    /// Books a request phase; open-loop phases also fail as a whole
    /// when they fell short of their target rate.
    fn phase(&mut self, label: &str, p: &Phase, target_rps: Option<f64>) {
        self.attempted += p.done + p.failed;
        self.failed += p.failed;
        if let Some(e) = &p.first_error {
            self.notes
                .push(format!("{label}: {} failed, first: {e}", p.failed));
        }
        if let Some(rate) = target_rps {
            let got = p.achieved_rps();
            self.op(got >= MIN_RATE_SHARE * rate, || {
                format!("{label}: achieved {got:.0} req/s of {rate:.0} target")
            });
        }
    }
}

fn config(w: Workload, seed: u64, tmp: Option<&Path>) -> WorldConfig {
    let mut cfg = WorldConfig::paper(seed);
    cfg.parallelism = PARALLELISM;
    if w == Workload::StudyScaled {
        cfg.scale = SCALE;
        cfg.shards = SHARDS;
        cfg.memory_budget = Some(MEMORY_BUDGET);
        cfg.spill_dir = tmp.map(|t| t.join("spill"));
    }
    cfg
}

fn build_world(cfg: &WorldConfig) -> Result<World, String> {
    World::build(cfg.clone()).map_err(|e| format!("world build failed: {e}"))
}

/// The server `repro --serve` runs: default config, the admin wrapper
/// and the default, cached router.
fn start_server(world: &World) -> Result<Served, String> {
    let router = world.serve_router();
    let cfg = ServeConfig {
        sim_now: world.study_end(),
        ..ServeConfig::default()
    };
    let handler = Arc::new(AdminHandler::new(router.clone(), ShutdownFlag::new()));
    let server = Server::start("127.0.0.1:0", cfg, handler)
        .map_err(|e| format!("cannot bind a local server: {e}"))?;
    Ok((server, router))
}

/// `repro --load`'s default mix: the seven walls (weight 8 each), four
/// store profiles and a chart page (3 each), the honey APK (1).
fn hot_targets(world: &World) -> (Vec<Target>, Vec<u32>) {
    let honey = iiscope_honeyapp::HONEY_PACKAGE;
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for iip in IipId::ALL {
        targets.push(Target::get(format!(
            "/wall/{}/offers?affiliate={AFFILIATE}",
            iip.slug()
        )));
        weights.push(8);
    }
    let profiles = std::iter::once(honey.to_string()).chain(
        world
            .plan
            .apps
            .iter()
            .take(3)
            .map(|a| a.package.to_string()),
    );
    for pkg in profiles {
        targets.push(Target::get(format!("/store/apps/details?id={pkg}")));
        weights.push(3);
    }
    targets.push(Target::get(
        "/store/charts?chart=topselling_free&n=10".to_string(),
    ));
    weights.push(3);
    targets.push(Target::get(format!("/apk?id={honey}")));
    weights.push(1);
    (targets, weights)
}

/// A crawler's pass: every store profile (advertised and baseline
/// apps) plus the seven walls.
fn crawl_targets(world: &World) -> Vec<Target> {
    let packages = world
        .plan
        .apps
        .iter()
        .map(|a| a.package.to_string())
        .chain(world.plan.baseline.iter().map(|b| b.package.to_string()));
    packages
        .map(|pkg| Target::get(format!("/store/apps/details?id={pkg}")))
        .chain(
            IipId::ALL.into_iter().map(|iip| {
                Target::get(format!("/wall/{}/offers?affiliate={AFFILIATE}", iip.slug()))
            }),
        )
        .collect()
}

/// Slot order for a weighted mix: `len` seeded draws.
fn weighted_order(weights: &[u32], len: usize, rng: &mut Mix64) -> Vec<usize> {
    let table: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| std::iter::repeat_n(i, w as usize))
        .collect();
    (0..len).map(|_| table[rng.below(table.len())]).collect()
}

/// Slot order for a crawl: a seeded permutation, repeated.
fn shuffled_order(n: usize, rng: &mut Mix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Fetches every target once over a fresh connection and compares the
/// bytes with an in-process render by the uncached router (the oracle
/// the response cache is proven against). Returns mismatches.
fn byte_parity(
    addr: std::net::SocketAddr,
    world: &World,
    targets: &[Target],
) -> Result<u64, String> {
    let oracle = world.serve_router_uncached();
    let ctx = client_ctx(world.study_end());
    let mut conn = Conn::open(addr).map_err(|e| format!("parity connect: {e}"))?;
    let mut mismatches = 0;
    for t in targets {
        conn.get(&t.wire)
            .map_err(|e| format!("parity fetch {}: {e}", t.target))?;
        let want = oracle
            .handle(&Request::get(t.target.clone()), &ctx)
            .encode();
        if conn.last_response() != &want[..] {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// The §3 honey study, the §4 wild study and the printed report.
struct Study {
    honey_s: f64,
    wild_s: f64,
    report_s: f64,
    study_s: f64,
    report: String,
    timings: Vec<ExperimentTiming>,
    artifacts: WildArtifacts,
    honey: HoneyStudy,
}

fn run_study(
    world: &World,
    checkpoint: Option<CheckpointPolicy>,
    trace: &Trace,
    parent: u64,
) -> Result<Study, String> {
    trace.span("study", parent, |id| {
        let start = Instant::now();
        let honey = trace
            .span("honeystudy.run", id, |_| {
                world.run_honey_study(world.study_start())
            })
            .map_err(|e| format!("honey study failed: {e}"))?;
        let honey_s = start.elapsed().as_secs_f64();
        let kept = honey.clone();
        let t = Instant::now();
        let artifacts = trace
            .span("wildsim.run", id, |_| {
                world.run_wild_study_with(WildRunOptions {
                    checkpoint,
                    ..WildRunOptions::default()
                })
            })
            .map_err(|e| format!("wild study failed: {e}"))?;
        let wild_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (report, timings) = trace.span("experiments.report", id, |_| {
            experiments::full_report_timed(world, &artifacts, honey)
        });
        let report_s = t.elapsed().as_secs_f64();
        Ok(Study {
            honey_s,
            wild_s,
            report_s,
            study_s: start.elapsed().as_secs_f64(),
            report,
            timings,
            artifacts,
            honey: kept,
        })
    })
}

/// Committed FNV-1a-64 digests of the printed report (report text plus
/// the trailing newline `repro` prints), by workload and seed.
fn committed_digest(workload: Workload, seed: u64) -> Option<u64> {
    include_str!("digests.txt").lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == workload.name() && s == seed.to_string() => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}

/// Checks a study's report: the committed digest where one exists, the
/// committed seed-42 report file for study-paper, and for any seed the
/// incremental report (a second, independent render path) byte for
/// byte. Returns `verified` and books one operation.
fn check_report(
    workload: Workload,
    seed: u64,
    world: &World,
    study: &Study,
    books: &mut Books,
) -> bool {
    let printed = format!("{}\n", study.report);
    let digest = fnv1a64(printed.as_bytes());
    let expected = committed_digest(workload, seed);
    let verified = expected == Some(digest);
    let mut problems = Vec::new();
    if expected.is_some() && !verified {
        problems.push(format!(
            "report digest {digest:016x} differs from the committed one"
        ));
    }
    if workload == Workload::StudyPaper
        && seed == 42
        && printed != include_str!("../../docs/report_seed42.txt")
    {
        problems.push("report differs from docs/report_seed42.txt".to_string());
    }
    if study.report.contains("FAILED") {
        problems.push("a report section failed".to_string());
    }
    let incremental =
        experiments::full_report_incremental(world, &study.artifacts, study.honey.clone());
    if incremental != study.report {
        problems.push("incremental report differs from the printed one".to_string());
    }
    eprintln!("report digest {digest:016x} ({workload:?}, seed {seed})");
    books.op(problems.is_empty(), || problems.join("; "));
    verified
}

/// Per-layer study metrics that come from the session's own study (or,
/// on serve-hot, a probe study), plus the sim-only probe.
fn study_layers(
    m: &mut Metrics,
    study: &Study,
    sim_only_s: f64,
    probe_day_s: f64,
    crawl_days: u64,
) {
    let ckpt = &study.artifacts.checkpoints;
    let spill = study.artifacts.dataset.spill_stats();
    let measure_s = study.wild_s - sim_only_s - ckpt.total_write_secs;
    push(m, "honeystudy.run_s", study.honey_s, "s");
    push(m, "wildsim.run_s", study.wild_s, "s");
    push(m, "wildsim.sim_only_s", sim_only_s, "s");
    push(m, "wildsim.measure_s", measure_s, "s");
    let tagged = study.artifacts.tagged_installs as f64;
    push(m, "wildsim.tagged_installs", tagged, "count");
    push(
        m,
        "wildsim.offer_observations",
        study.artifacts.offer_observations as f64,
        "count",
    );
    push(m, "wildsim.installs_per_sim_s", tagged / sim_only_s, "1/s");
    push(m, "experiments.report_s", study.report_s, "s");
    for (label, name) in [
        ("Figure 5", "experiments.figure5_s"),
        ("Figure 6", "experiments.figure6_s"),
        ("Detector", "experiments.detector_s"),
        ("Monetization", "experiments.monetization_s"),
    ] {
        let s = study
            .timings
            .iter()
            .find(|t| t.label == label)
            .map_or(0.0, |t| t.seconds);
        push(m, name, s, "s");
    }
    let parts = study.honey_s + study.wild_s + study.report_s;
    push(m, "study.unattributed_s", study.study_s - parts, "s");
    push(
        m,
        "checkpoint.snapshots",
        ckpt.snapshots_written as f64,
        "count",
    );
    push(m, "checkpoint.bytes", ckpt.total_bytes as f64, "B");
    push(m, "spill.segments", spill.spilled_segments as f64, "count");
    push(m, "spill.bytes", spill.spilled_bytes as f64, "B");
    push(m, "spill.reloads", spill.reloads as f64, "count");
    // The probe day ran its calls one at a time; the study fans them
    // over PARALLELISM workers.
    let explained = probe_day_s * crawl_days as f64 / PARALLELISM as f64;
    push(
        m,
        "monitor.measure_unattributed_frac",
        1.0 - explained / measure_s,
        "ratio",
    );
}

/// A fresh world of the same configuration run through the wild
/// study with a crawl cadence as long as the window, so only its first
/// and last days are measured: measurement never feeds the sim, so the
/// sim does the same work as in the full study. With `stop_at` the run
/// stops at the top of that day (`CrashPlan`), leaving the world
/// mid-study. Returns the world and the seconds the run took.
fn sim_only(
    cfg: &WorldConfig,
    spill: Option<PathBuf>,
    stop_at: Option<u64>,
    trace: &Trace,
    span: &'static str,
) -> Result<(World, f64), String> {
    let mut cfg = cfg.clone();
    cfg.crawl_cadence_days = cfg.monitoring_days;
    cfg.spill_dir = spill;
    let world = build_world(&cfg)?;
    let t = Instant::now();
    let run = trace.span(span, ROOT, |_| {
        world.run_wild_study_with(WildRunOptions {
            crash: stop_at.map(|kill_day| CrashPlan { kill_day }),
            ..WildRunOptions::default()
        })
    });
    match run {
        Ok(_) => {}
        Err(iiscope_types::Error::Interrupted(_)) if stop_at.is_some() => {}
        Err(e) => return Err(format!("sim-only probe failed: {e}")),
    }
    Ok((world, t.elapsed().as_secs_f64()))
}

/// The traced run's per-layer metrics. Probes run here, after
/// everything the session measured.
fn per_layer(
    cfg: &WorldConfig,
    tmp: Option<&Path>,
    world: World,
    study: Option<Study>,
    trace: &Trace,
    m: &mut Metrics,
) -> Result<Study, String> {
    let (study, world) = match study {
        Some(s) => (s, world),
        None => {
            // serve-hot runs no study; its study layers come from a
            // probe study on a fresh world of the same configuration.
            drop(world);
            let w = build_world(cfg)?;
            let s = run_study(&w, None, trace, ROOT)?;
            (s, w)
        }
    };
    let (hot_mix, _) = hot_targets(&world);
    let crawl = crawl_targets(&world);
    let mut front = probes::servefront(&world, &hot_mix, &crawl, trace, ROOT);
    drop(world);

    // One crawl day's calls, timed one by one, on a world stopped in
    // the middle of the window (walls full of running campaigns).
    let mid = cfg.monitoring_days / 2;
    let spill = |name: &str| tmp.map(|t| t.join(name));
    let (mid_world, _) = sim_only(
        cfg,
        spill("mid-spill"),
        Some(mid),
        trace,
        "monitor.mid_study",
    )?;
    let (mut monitor, probe_day_s) = probes::monitor(&mid_world, trace, ROOT)?;
    drop(mid_world);

    let (_, sim_only_s) = sim_only(
        cfg,
        spill("sim-only-spill"),
        None,
        trace,
        "wildsim.sim_only",
    )?;
    // The full study measures every crawl day; the sim-only run
    // measures two of them.
    let crawl_days = cfg.monitoring_days / cfg.crawl_cadence_days + 1 - 2;
    study_layers(m, &study, sim_only_s, probe_day_s, crawl_days);
    m.append(&mut monitor);
    m.append(&mut front);
    Ok(study)
}

/// A running server and the router it serves.
type Served = (Server, Arc<WorldRouter>);

/// The world (and, on the serve workloads, the running server) one
/// set-up produced, with its timings.
struct Setup {
    world: World,
    served: Option<Served>,
    setup_s: f64,
    build_s: f64,
}

/// What a workload's measured part produced.
struct Measured {
    job_s: f64,
    /// The requests whose rate the traced run reports (none on the
    /// study workloads).
    phase: Phase,
    study: Option<Study>,
    verified: bool,
    /// Retries and reconnects over every phase, closed loop included.
    retries: u64,
    reconnects: u64,
}

/// One run in progress.
struct Session<'a> {
    r: &'a Run,
    trace: Trace,
    books: Books,
    rng: Mix64,
    /// Numbers only this workload produces: reported, not gated.
    extra: Metrics,
}

impl Session<'_> {
    /// One set-up: on study-scaled the temp dirs under `tmp`, the world,
    /// and on the serve workloads the server and, on serve-hot, the warm
    /// pass.
    fn setup(&self, tmp: Option<&Path>) -> Result<Setup, String> {
        let serves = matches!(
            self.r.workload,
            Workload::ServeHot | Workload::ServeDuringStudy
        );
        let cfg = config(self.r.workload, self.r.seed, tmp);
        let mut build_s = 0.0;
        let t = Instant::now();
        let (world, served) = self.trace.span("setup", ROOT, |id| -> Result<_, String> {
            if let Some(tmp) = tmp {
                let _ = std::fs::remove_dir_all(tmp);
                std::fs::create_dir_all(tmp.join("ckpt"))
                    .and_then(|_| std::fs::create_dir_all(tmp.join("spill")))
                    .map_err(|e| format!("cannot create temp dirs under {}: {e}", tmp.display()))?;
            }
            let tb = Instant::now();
            let world = self.trace.span("world.build", id, |_| build_world(&cfg))?;
            build_s = tb.elapsed().as_secs_f64();
            if !serves {
                return Ok((world, None));
            }
            let served = self
                .trace
                .span("serve.start", id, |_| start_server(&world))?;
            if self.r.workload == Workload::ServeHot {
                warm_pass(served.0.local_addr(), &hot_targets(&world).0)?;
            }
            Ok((world, Some(served)))
        })?;
        Ok(Setup {
            world,
            served,
            setup_s: t.elapsed().as_secs_f64(),
            build_s,
        })
    }

    /// SETUPS − 1 more set-ups, each torn down at once, run after the
    /// measured part and after peak RSS was read, so that repeating them
    /// neither disturbs the measured part nor inflates its peak RSS.
    /// Returns their set-up and world-build times.
    fn repeat_setups(&self, tmp: Option<&Path>) -> Result<(Vec<f64>, Vec<f64>), String> {
        let again = tmp.map(|t| t.join("again"));
        let mut setup_s = Vec::new();
        let mut build_s = Vec::new();
        for _ in 1..SETUPS {
            std::thread::sleep(SETUP_GAP);
            let s = self.setup(again.as_deref())?;
            if let Some((server, _)) = s.served {
                server.stop();
            }
            setup_s.push(s.setup_s);
            build_s.push(s.build_s);
        }
        Ok((setup_s, build_s))
    }

    /// study-paper and study-scaled: the study, and no requests.
    fn study(
        &mut self,
        world: &World,
        policy: Option<CheckpointPolicy>,
    ) -> Result<Measured, String> {
        let study = run_study(world, policy, &self.trace, ROOT)?;
        let verified = check_report(self.r.workload, self.r.seed, world, &study, &mut self.books);
        Ok(Measured {
            job_s: study.study_s,
            retries: 0,
            reconnects: 0,
            phase: Phase::default(),
            study: Some(study),
            verified,
        })
    }

    /// serve-hot: open loop at HOT_RPS over the warm cache, then the
    /// job: closed-loop batches, whose median time is `job_s`.
    fn serve_hot(
        &mut self,
        world: &World,
        server: &Server,
        router: &WorldRouter,
    ) -> Result<Measured, String> {
        let addr = server.local_addr();
        let (hot, weights) = hot_targets(world);
        let order = weighted_order(&weights, 10_000, &mut self.rng);
        let slots = (HOT_RPS * self.r.seconds) as u64;
        let stop = AtomicBool::new(false);
        let cpu = process_cpu_s();
        let mut open = self.trace.span("hot.open", ROOT, |id| {
            let vias = [Via::Socket; CONNS];
            driver::open_loop(
                addr,
                &hot,
                &order,
                HOT_RPS,
                slots,
                &stop,
                vias,
                &self.trace,
                id,
            )
        });
        let open_cpu = process_cpu_s() - cpu;
        self.books.phase("hot open loop", &open, Some(HOT_RPS));
        let cpu = process_cpu_s();
        let mut batch_s = Vec::new();
        let mut closed = Phase::default();
        for _ in 0..HOT_BATCHES {
            let b = self.trace.span("hot.batch", ROOT, |_| {
                let per_conn = HOT_BATCH_REQUESTS / CONNS as u64;
                driver::closed_loop(addr, &hot, &order, per_conn)
            });
            self.books.phase("hot closed loop", &b, None);
            batch_s.push(b.elapsed_s);
            closed.merge(b);
        }
        closed.elapsed_s = batch_s.iter().sum();
        let closed_cpu = process_cpu_s() - cpu;
        let bad = byte_parity(addr, world, &hot)?;
        self.books.op(bad == 0, || {
            format!("{bad} hot responses differ from the oracle")
        });
        let stats = router.cache_stats();
        let m = &mut self.extra;
        latency_diagnostics(m, &mut open, "r10k");
        latency_diagnostics(m, &mut closed, "closed");
        let per_kreq = |cpu_s: f64, n: u64| cpu_s * 1e6 / n.max(1) as f64;
        let open_ms = per_kreq(open_cpu, open.done);
        push(m, "process.cpu_ms_per_kreq.open", open_ms, "ms");
        let closed_ms = per_kreq(closed_cpu, closed.done);
        push(m, "process.cpu_ms_per_kreq.closed", closed_ms, "ms");
        push(m, "servefront.cache_hits", stats.hits() as f64, "count");
        push(m, "servefront.cache_misses", stats.misses() as f64, "count");
        Ok(Measured {
            job_s: median(&batch_s),
            retries: open.retries + closed.retries,
            reconnects: open.reconnects + closed.reconnects,
            phase: closed,
            study: None,
            // No report here: the uncached router is the reference.
            verified: bad == 0,
        })
    }

    /// serve-during-study: the paper study with the crawl mix served at
    /// DURING_RPS until the study ends.
    fn serve_during(
        &mut self,
        world: &World,
        server: &Server,
        router: &WorldRouter,
    ) -> Result<Measured, String> {
        let addr = server.local_addr();
        let crawl = crawl_targets(world);
        let order = shuffled_order(crawl.len(), &mut self.rng);
        // Traced, one driver thread calls the served router in process:
        // its latency is render (and waiting on the sim) without sockets.
        let vias = if self.r.trace {
            let ctx = client_ctx(world.study_end());
            [Via::Socket, Via::InProcess(router as &dyn Handler, ctx)]
        } else {
            [Via::Socket; CONNS]
        };
        let stop = AtomicBool::new(false);
        let trace = &self.trace;
        let (study, mut phase) = std::thread::scope(|s| {
            let load = s.spawn(|| {
                trace.span("during", ROOT, |id| {
                    let rate = DURING_RPS;
                    driver::open_loop(addr, &crawl, &order, rate, u64::MAX, &stop, vias, trace, id)
                })
            });
            let study = run_study(world, None, trace, ROOT);
            stop.store(true, Ordering::Relaxed);
            (study, load.join().expect("load thread panicked"))
        });
        let study = study?;
        self.books
            .phase("during-study load", &phase, Some(DURING_RPS));
        let verified = check_report(self.r.workload, self.r.seed, world, &study, &mut self.books);
        let bad = byte_parity(addr, world, &crawl)?;
        self.books.op(bad == 0, || {
            format!("{bad} served responses differ from the oracle")
        });
        let stats = router.cache_stats();
        let lookups = (stats.hits() + stats.misses()).max(1) as f64;
        let m = &mut self.extra;
        latency_diagnostics(m, &mut phase, "r1k");
        let hit_ratio = stats.hits() as f64 / lookups;
        push(m, "servefront.hit_ratio", hit_ratio, "ratio");
        let invalidations = stats.invalidations() as f64;
        push(m, "servefront.invalidations", invalidations, "count");
        let mut during = phase.inproc_us.clone();
        if !during.is_empty() {
            let p50 = percentile(&mut during, 50.0);
            push(m, "servefront.during_us.p50", p50, "us");
            let p99 = percentile(&mut during, 99.0);
            push(m, "servefront.during_us.p99", p99, "us");
        }
        Ok(Measured {
            job_s: study.study_s,
            retries: phase.retries,
            reconnects: phase.reconnects,
            phase,
            study: Some(study),
            verified,
        })
    }
}

/// Median, p90 and p99 of a phase's request latencies, named after the
/// phase, and for an open-loop phase how late the generator ran. They
/// are reported, not gated: between runs on a shared 2-vCPU machine the
/// median moves by up to half and the tail by more. Sorts the samples
/// in place: a copy of half a million latencies would show in peak RSS.
fn latency_diagnostics(m: &mut Metrics, p: &mut Phase, phase: &str) {
    for q in [50, 90, 99] {
        let v = percentile(&mut p.lat_us, f64::from(q));
        push(m, &format!("p{q}_us.{phase}"), v, "us");
    }
    let late = &mut p.gen_late_us;
    if !late.is_empty() {
        push(m, "driver.gen_late_us.p50", percentile(late, 50.0), "us");
        push(m, "driver.gen_late_us.p99", percentile(late, 99.0), "us");
    }
}

/// serve-hot's warm pass: every hot target once, so the timed requests
/// all hit the response cache.
fn warm_pass(addr: std::net::SocketAddr, hot: &[Target]) -> Result<(), String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("warm pass connect: {e}"))?;
    for t in hot {
        let status = conn
            .get(&t.wire)
            .map_err(|e| format!("warm pass {}: {e}", t.target))?;
        if status != 200 {
            return Err(format!("warm pass: {} answered {status}", t.target));
        }
    }
    Ok(())
}

/// Runs one workload once.
pub fn run(r: &Run) -> Result<Outcome, String> {
    let wall = Instant::now();
    let trace = Trace::new(r.trace);
    let mut s = Session {
        r,
        trace,
        books: Books::default(),
        rng: Mix64::new(r.seed),
        extra: Metrics::new(),
    };
    let tmp = match r.workload {
        Workload::StudyScaled => Some(TempDir::create(
            out_dir().join(format!("tmp-{}", std::process::id())),
        )?),
        _ => None,
    };
    let tmp_path = tmp.as_ref().map(|t| t.0.as_path());
    let cfg = config(r.workload, r.seed, tmp_path);
    let setup = s.setup(tmp_path)?;
    let world = setup.world;
    let measured = match (r.workload, &setup.served) {
        (Workload::StudyPaper | Workload::StudyScaled, _) => {
            let policy = tmp_path.map(|t| CheckpointPolicy {
                dir: t.join("ckpt"),
                every_days: CHECKPOINT_EVERY_DAYS,
            });
            s.study(&world, policy)
        }
        (Workload::ServeHot, Some((server, router))) => s.serve_hot(&world, server, router),
        (Workload::ServeDuringStudy, Some((server, router))) => {
            s.serve_during(&world, server, router)
        }
        _ => unreachable!("serve workloads set up a server"),
    }?;
    if let Some((server, _)) = &setup.served {
        server.stop();
    }
    let peak_rss = peak_rss_mb();
    let session_s = wall.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s();
    let session_spans = s.trace.len();
    let (again_s, again_build_s) = s.repeat_setups(tmp_path)?;
    let setup_s = [vec![setup.setup_s], again_s].concat();
    let build_s = [vec![setup.build_s], again_build_s].concat();

    let mut metrics = Metrics::new();
    if !r.trace {
        push(&mut metrics, "setup_s", median(&setup_s), "s");
        push(&mut metrics, "job_s", measured.job_s, "s");
        push(&mut metrics, "peak_rss_mb", peak_rss, "MB");
    } else {
        let m = &mut metrics;
        push(m, "world.build_s", median(&build_s), "s");
        let study = per_layer(&cfg, tmp_path, world, measured.study, &s.trace, m)?;
        let rps = measured.phase.achieved_rps();
        push(m, "driver.achieved_rps", rps, "1/s");
        push(m, "driver.retries", measured.retries as f64, "count");
        push(m, "driver.reconnects", measured.reconnects as f64, "count");
        push(m, "process.cpu_s", cpu_s, "s");
        push(m, "process.cpu_util", cpu_s / session_s, "ratio");
        // An estimate: spans recorded times the cost of recording one in
        // a tight loop. `job_s` in layers.json, less the untraced job_s
        // of the same seed, is the measured difference.
        let overhead = session_spans as f64 * Trace::cost_per_span_s() / session_s;
        push(m, "trace_overhead_frac", overhead, "ratio");
        let write_s = study.artifacts.checkpoints.total_write_secs;
        push(&mut s.extra, "checkpoint.write_s", write_s, "s");
        push(&mut s.extra, "job_s", measured.job_s, "s");
        write_trace(r, &s.trace, &metrics, &s.extra, &study, &setup_s)?;
    }
    drop(tmp);
    Ok(Outcome {
        correct: s.books.failed == 0,
        verified: measured.verified,
        attempted: s.books.attempted,
        failed: s.books.failed,
        metrics,
        diagnostics: s.extra,
        notes: s.books.notes,
    })
}

/// Writes `<workload>.spans.jsonl` and `<workload>.layers.json`: span
/// self times and counts, every per-layer metric (the extras only this
/// workload produces included), and the study-time breakdown whose
/// parts plus `unattributed` sum to the study's wall time.
fn write_trace(
    r: &Run,
    trace: &Trace,
    metrics: &Metrics,
    extra: &Metrics,
    study: &Study,
    setup_s: &[f64],
) -> Result<(), String> {
    use iiscope_wire::Json;
    let dir = out_dir().join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let name = r.workload.name();
    let spans_path = dir.join(format!("{name}.spans.jsonl"));
    trace
        .write_spans(&spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    let spans = Json::obj(trace.layer_times().into_iter().map(|(n, l)| {
        (
            n,
            Json::obj([
                ("count", Json::Int(l.count as i64)),
                ("total_s", Json::Float(l.total_s)),
                ("self_s", Json::Float(l.self_s)),
            ]),
        )
    }));
    let get = |n: &str| metrics.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
    let parts = [
        ("honeystudy.run_s", study.honey_s),
        ("wildsim.sim_only_s", get("wildsim.sim_only_s")),
        ("wildsim.measure_s", get("wildsim.measure_s")),
        (
            "checkpoint.write_s",
            study.artifacts.checkpoints.total_write_secs,
        ),
        ("experiments.report_s", study.report_s),
        ("unattributed", get("study.unattributed_s")),
    ];
    let breakdown = Json::obj(
        parts
            .iter()
            .map(|(n, v)| (n.to_string(), Json::Float(*v)))
            .chain([("study_s".to_string(), Json::Float(study.study_s))]),
    );
    let doc = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Int(r.seed as i64)),
        (
            "setup_s",
            Json::arr(setup_s.iter().map(|&s| Json::Float(s))),
        ),
        ("spans", spans),
        ("metrics", metrics_json(metrics)),
        ("workload_metrics", metrics_json(extra)),
        ("study_breakdown", breakdown),
    ]);
    let path = dir.join(format!("{name}.layers.json"));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
