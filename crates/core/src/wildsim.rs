//! The §4 longitudinal study: run every planned campaign against the
//! live world while the monitoring rig milks offer walls and crawls
//! the Play Store on the paper's cadence.
//!
//! Day loop:
//!
//! 1. start the campaigns scheduled for the day (platform escrow,
//!    offers appear on walls);
//! 2. organic background activity for every app (installs, sessions,
//!    revenue — the baseline world the campaigns perturb);
//! 3. campaign delivery: per-install worker sampling (archetypes,
//!    device farms in /24 bursts, emulators/datacenter bots),
//!    engagement per conversion goal, postbacks and payout settlement;
//! 4. the Play-side enforcement sweep;
//! 5. on crawl days: milk every affiliate app from every vantage
//!    point through the MITM proxy, then crawl profiles of every
//!    discovered app (plus baseline) and the three top charts;
//! 6. campaigns past their end day are withdrawn.
//!
//! At the end the crawler downloads APKs of every observed app for the
//! Figure 6 static analysis.
//!
//! ## Crash safety
//!
//! The loop is split into *sim* steps (1–4, 6: in-memory, consuming
//! only the `"wildsim"` RNG) and *measurement* steps (5: network I/O
//! on independent seed lineages, world-read-only). That split is what
//! makes [`World::run_wild_study_with`] checkpointable: a
//! [`CheckpointPolicy`] durably snapshots the measurement-side state
//! at day boundaries, and a resume replays the cheap sim steps up to
//! the snapshot day — regenerating world, RNG and clock bit-exactly —
//! before restoring the dataset and crawler state from disk. The
//! replayed sim state is byte-compared against the snapshot's sim
//! section; any divergence refuses the resume instead of silently
//! producing different numbers.

use crate::aggregates::ReportAggregates;
use crate::chaos::CrashPlan;
use crate::checkpoint::{self, CheckpointStats, Snapshot, SnapshotRef};
use crate::world::{OrganicProfile, World};
use iiscope_attribution::{Conversion, ConversionGoal, Postback};
use iiscope_devices::behavior::plan_for;
use iiscope_devices::{IipBehaviorProfile, WorkerKind};
use iiscope_monitor::{Crawler, Dataset, ProfileSnapshot, RateBook, UiFuzzer};
use iiscope_playstore::{InstallSignals, InstallSource};
use iiscope_types::rng::chance;
use iiscope_types::{
    chaosstats::CHAOS, shard_of, wirestats::WIRE, AppId, CampaignId, DeviceId, Error, IipId,
    Result, SeedFork, SimDuration, SimTime, Sym, Usd,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::fs::File;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Runs `n_jobs` indexed jobs across `workers` scoped threads and
/// returns the results **in job order** — the caller merges them as if
/// they had run sequentially, which is what keeps the parallel study
/// bit-identical to the `parallelism = 1` path. Workers pull jobs from
/// an atomic cursor (work stealing), so scheduling is nondeterministic
/// but invisible: each result lands in its job's slot.
///
/// A job that panics does not take the study down with an opaque
/// thread abort: the panic is caught at the job boundary and surfaced
/// in that job's slot as [`Error::WorkerPanic`], the worker thread
/// survives, and every other job still runs. The caller decides
/// whether a panicked slot is fatal.
///
/// `workers <= 1` (or a single job) runs inline on the calling thread
/// with the same panic containment.
pub(crate) fn fan_out<T, F>(workers: usize, n_jobs: usize, job: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = |j: usize| -> Result<T> {
        catch_unwind(AssertUnwindSafe(|| job(j)))
            .map_err(|payload| Error::WorkerPanic(format!("job {j}: {}", panic_text(&payload))))
    };
    if workers <= 1 || n_jobs <= 1 {
        return (0..n_jobs).map(run).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<Result<T>>>> = Vec::with_capacity(n_jobs);
    slots.resize_with(n_jobs, || Mutex::new(None));
    std::thread::scope(|s| {
        for _ in 0..pool_size(workers, n_jobs) {
            s.spawn(|| loop {
                let j = cursor.fetch_add(1, Ordering::Relaxed);
                if j >= n_jobs {
                    break;
                }
                *slots[j].lock() = Some(run(j));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|| Err(Error::WorkerPanic("job slot never filled".into())))
        })
        .collect()
}

/// Plan entries one crawler fetches over its kept session: profile
/// crawls and APK pulls run as chunks of this many, each chunk on its
/// own crawler and seed fork. A constant, so the chunks — and with them
/// every fault draw — never depend on the worker count.
pub const CRAWL_CHUNK: usize = 64;

/// Sizes a fan-out's worker pool: never more threads than jobs (extra
/// threads would spin up, find the cursor exhausted, and die — pure
/// overhead), never zero.
pub(crate) fn pool_size(workers: usize, n_jobs: usize) -> usize {
    workers.max(1).min(n_jobs.max(1))
}

/// A failed spill write ends the study: the dataset kept every row
/// resident, but the memory budget no longer holds.
fn check_spill(dataset: &Dataset) -> Result<()> {
    match dataset.spill_error() {
        Some(e) => Err(Error::InvalidState(e.to_string())),
        None => Ok(()),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Checkpointing policy for a wild-study run.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory snapshots are durably written into (created on the
    /// first write).
    pub dir: PathBuf,
    /// Snapshot every N completed sim days (clamped to at least 1).
    pub every_days: u64,
}

/// Options for [`World::run_wild_study_with`]. The default runs the
/// study straight through with no checkpointing, exactly like
/// [`World::run_wild_study`].
#[derive(Default)]
pub struct WildRunOptions {
    /// Write durable snapshots on this policy.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from a previously loaded (and CRC-validated) snapshot
    /// instead of starting at day 0.
    pub resume: Option<Snapshot>,
    /// Deterministic kill-point injection: die at a given sim day.
    pub crash: Option<CrashPlan>,
}

/// Everything the wild study produced.
pub struct WildArtifacts {
    /// The longitudinal dataset (offers, profiles, charts).
    pub dataset: Dataset,
    /// Downloaded APKs by package (observed advertised apps +
    /// baseline); refcounted views of the download responses.
    pub apks: BTreeMap<String, bytes::Bytes>,
    /// Total installs removed by enforcement over the window.
    pub enforcement_removed: u64,
    /// Star ratings recorded by incentivized RateApp completions
    /// (extension; always 0 unless `WorldConfig::rating_offers`).
    pub incentivized_ratings: u64,
    /// Incentivized (tagged) installs delivered over the window — the
    /// event count `--scale` multiplies and the numerator of the
    /// devices/sec throughput figure.
    pub tagged_installs: u64,
    /// Raw offer observations count (pre-dedup).
    pub offer_observations: usize,
    /// Checkpoint write/replay accounting for this run (zeroed when
    /// checkpointing was off).
    pub checkpoints: CheckpointStats,
    /// Streaming per-day aggregates for the hot report tables, folded
    /// while each day's rows were still resident. Always covers the
    /// final dataset; the incremental report path renders from this.
    pub aggregates: ReportAggregates,
}

struct OfferRt {
    app_id: AppId,
    iip: IipId,
    campaign_id: CampaignId,
    /// Shared with every `Op::Install` and ledger record it attributes.
    tag: Arc<str>,
    goal: ConversionGoal,
    start_day: u64,
    end_day: u64,
    cap: u64,
    completions: u64,
    installs_per_day: f64,
    carry: f64,
    /// Companion (non-incentivized) installs per day; recorded as
    /// organic bulk so enforcement never touches them.
    companion_per_day: f64,
    companion_carry: f64,
    farm_left: u32,
    farm_block: u32,
    device_counter: u64,
    ended: bool,
}

/// One deferred world mutation emitted by a shard's sim step. Shard
/// sims draw only from their private RNG streams and never touch the
/// store or platforms; their op buffers are applied in shard-index
/// (then emission) order afterwards, so the world sees one
/// deterministic mutation sequence no matter how many OS workers ran
/// the shard sims. With one shard the emission order is exactly the
/// legacy inline call order, which is what keeps `shards = 1`
/// bit-identical to the historical day loop.
enum Op {
    OrganicInstalls {
        app: AppId,
        at: SimTime,
        n: u64,
    },
    EngagementBulk {
        app: AppId,
        at: SimTime,
        sessions: u64,
        secs: u64,
    },
    RevenueBulk {
        app: AppId,
        at: SimTime,
        buyers: u64,
        amount: Usd,
    },
    RatingsBulk {
        app: AppId,
        n: u64,
        stars_total: u64,
    },
    Install {
        app: AppId,
        at: SimTime,
        signals: InstallSignals,
        tag: Arc<str>,
    },
    Session {
        app: AppId,
        at: SimTime,
        secs: u64,
    },
    Registration {
        app: AppId,
        at: SimTime,
    },
    Purchase {
        app: AppId,
        at: SimTime,
        amount: Usd,
    },
    Rating {
        app: AppId,
        stars: u8,
    },
    Postback {
        iip: IipId,
        pb: Postback,
    },
}

/// One population/state shard of the day loop: a private RNG stream
/// and the offer runtimes assigned to it (by package symbol, via
/// [`shard_of`]). Shard 0 of a single-shard world carries the legacy
/// `"wildsim"` stream.
struct ShardSim {
    rng: StdRng,
    active: Vec<OfferRt>,
}

/// The mutable state the day loop carries: the sim side (per-shard
/// RNGs and offer runtimes, schedule, counters) that a resume
/// regenerates by replay, and the measurement side (dataset, chart
/// crawler) that a resume restores from the snapshot.
struct SimState {
    dataset: Dataset,
    crawler: Crawler,
    aggregates: ReportAggregates,
    pending: BTreeMap<u64, Vec<(usize, usize, usize)>>,
    shards: Vec<ShardSim>,
    enforcement_removed: u64,
    incentivized_ratings: u64,
    tagged_installs: u64,
    device_base: u64,
}

impl World {
    /// Runs the full wild study and returns its artifacts.
    pub fn run_wild_study(&self) -> Result<WildArtifacts> {
        self.run_wild_study_with(WildRunOptions::default())
    }

    /// Runs the wild study with checkpointing, resume and kill-point
    /// options. See the module docs for the sim/measurement split that
    /// makes the resume path byte-identical to a straight-through run.
    pub fn run_wild_study_with(&self, mut opts: WildRunOptions) -> Result<WildArtifacts> {
        let mut stats = CheckpointStats::default();
        let profiles: BTreeMap<IipId, IipBehaviorProfile> = IipId::ALL
            .into_iter()
            .map(|iip| (iip, IipBehaviorProfile::for_iip(iip)))
            .collect();
        let fuzzer = UiFuzzer::new(iiscope_monitor::FuzzerConfig {
            max_scroll_pages: self.cfg.fuzzer_pages,
        });
        let organic = self.organic_by_shard();
        // Rate book for the per-day aggregate fold — same catalog the
        // batch tables build theirs from, so fold-time payout
        // normalization is bit-identical to the oracle's.
        let book = RateBook::from_catalog(&self.affiliate_apps);

        let (mut st, start_day) = match opts.resume.take() {
            Some(snap) => {
                snap.check_compatible(&self.cfg)
                    .map_err(Error::InvalidState)?;
                let t = std::time::Instant::now();
                let mut st = self.replay_sim_to(snap.day, &profiles, &organic)?;
                let replayed = self.encode_sim(&st, snap.day);
                if replayed != snap.sim_bytes {
                    return Err(Error::InvalidState(format!(
                        "resume verification failed: replayed sim state for day {} \
                         diverges from the snapshot's sim section ({} vs {} bytes); \
                         refusing to resume",
                        snap.day,
                        replayed.len(),
                        snap.sim_bytes.len()
                    )));
                }
                // The budget comes first, so the restore leaves the
                // spilled history on disk and re-adds the suffix rows
                // into the same segments the interrupted run had.
                let mut dataset = Dataset::new();
                self.set_memory_budget(&mut dataset, &opts);
                st.dataset = dataset.restored(
                    snap.pkg_syms,
                    snap.desc_syms,
                    &snap.offers_spill,
                    snap.offers,
                    snap.profiles,
                    &snap.charts_spill,
                    snap.charts,
                )?;
                st.crawler.restore(&snap.crawler);
                // The snapshot was taken after the day's fold, so its
                // aggregates already cover the restored dataset.
                st.aggregates = snap.aggregates;
                CHAOS.restore(&snap.chaos_counters);
                WIRE.restore(&snap.wire_counters);
                stats.resumed_from_day = Some(snap.day);
                stats.replay_secs = t.elapsed().as_secs_f64();
                (st, snap.day + 1)
            }
            None => {
                let mut st = self.fresh_sim_state();
                self.set_memory_budget(&mut st.dataset, &opts);
                (st, 0)
            }
        };
        check_spill(&st.dataset)?;

        for day in start_day..=self.cfg.monitoring_days {
            if let Some(crash) = &opts.crash {
                if day == crash.kill_day {
                    return Err(Error::Interrupted(format!(
                        "simulated process death at sim day {day}"
                    )));
                }
            }
            let t0 = self.study_start() + SimDuration::from_days(day);
            self.net.clock().advance_to(t0);
            // The day's mutations get their own cache version: anything
            // a concurrent server cached overnight must not survive
            // into the mutation window, and anything cached *during*
            // the window is dropped by the bump below once the day's
            // state settles.
            self.day_version.bump();
            self.sim_day(&mut st, day, t0, &profiles, &organic)?;
            if day % self.cfg.crawl_cadence_days == 0 {
                self.measure_day(&mut st, t0, &fuzzer)?;
            }
            // Fold the day's ingest delta into the report aggregates
            // while the new rows are still resident (before the spill
            // LRU can evict them), and before the snapshot below so
            // the aggregate state rides the same durability boundary.
            st.aggregates.fold_day(&st.dataset, &book);
            self.day_version.bump();
            if let Some(cp) = &opts.checkpoint {
                if day % cp.every_days.max(1) == 0 {
                    // Encoding and writing interleave: the encode
                    // part ends when the temp file holds its last
                    // byte, the rest is fsync and rename.
                    let t = std::time::Instant::now();
                    let mut encoded = 0.0;
                    let bytes = checkpoint::write_durable(&cp.dir, day, |f| {
                        self.write_snapshot(&st, day, f)?;
                        encoded = t.elapsed().as_secs_f64();
                        Ok(())
                    })
                    .map_err(|e| {
                        Error::InvalidState(format!(
                            "checkpoint write to {} failed: {e}",
                            cp.dir.display()
                        ))
                    })?;
                    stats.encode_secs += encoded;
                    stats.snapshots_written += 1;
                    stats.last_bytes = bytes;
                    stats.total_bytes += bytes;
                    stats.total_write_secs += t.elapsed().as_secs_f64();
                }
            }
        }

        // APK downloads for the Figure 6 analysis.
        let mut apks = BTreeMap::new();
        let apk_plan: Vec<&str> = st
            .dataset
            .advertised_packages()
            .into_iter()
            .chain(self.plan.baseline.iter().map(|b| b.package.as_str()))
            .collect();
        let fetched = self.crawl_in_chunks(
            &apk_plan,
            self.seed.fork("crawler").fork("apk"),
            |crawler, pkg| crawler.apk(pkg),
        )?;
        for (pkg, slot) in apk_plan.iter().zip(fetched) {
            match slot {
                Ok(Some(bytes)) => {
                    apks.insert(pkg.to_string(), bytes);
                }
                Ok(None) => {}
                Err(_) => CHAOS.add_crawls_abandoned(1),
            }
        }

        Ok(WildArtifacts {
            offer_observations: st.dataset.offers().len(),
            dataset: st.dataset,
            apks,
            enforcement_removed: st.enforcement_removed,
            incentivized_ratings: st.incentivized_ratings,
            tagged_installs: st.tagged_installs,
            checkpoints: stats,
            aggregates: st.aggregates,
        })
    }

    /// Out-of-core budget for the dataset's spillable columns.
    /// Byte-invariant (any budget yields identical results), so it
    /// applies identically to fresh and resumed runs; resume keeps
    /// appending to the spill file the snapshot references.
    fn set_memory_budget(&self, dataset: &mut Dataset, opts: &WildRunOptions) {
        if self.cfg.memory_budget.is_some() {
            dataset.set_memory_budget(
                self.cfg.memory_budget,
                &self.resolve_spill_dir(opts),
                &format!("iiscope-{}", self.cfg.seed),
            );
        }
    }

    /// Where spill files live: the configured directory, else a
    /// `spill/` subdirectory of the checkpoint directory (so snapshot
    /// references and spill data share durability), else a per-process
    /// directory under the system temp dir.
    fn resolve_spill_dir(&self, opts: &WildRunOptions) -> PathBuf {
        if let Some(d) = &self.cfg.spill_dir {
            return d.clone();
        }
        if let Some(cp) = &opts.checkpoint {
            return cp.dir.join("spill");
        }
        std::env::temp_dir().join(format!("iiscope-spill-{}", std::process::id()))
    }

    /// Partition of the organic catalog across sim shards by package
    /// symbol, in `AppId` order within each shard (the legacy
    /// iteration order). Pure function of the world — computed once
    /// per run.
    fn organic_by_shard(&self) -> Vec<Vec<(AppId, OrganicProfile)>> {
        let n = self.cfg.shards.max(1);
        let mut sym_of: BTreeMap<AppId, Sym> = BTreeMap::new();
        let mut index = |pkg: &str| {
            if let Some(sym) = self.syms.get(pkg) {
                if let Some(id) = self.app_ids.get(sym) {
                    sym_of.insert(*id, sym);
                }
            }
        };
        for app in &self.plan.apps {
            index(app.package.as_str());
        }
        for b in &self.plan.baseline {
            index(b.package.as_str());
        }
        let mut out = vec![Vec::new(); n];
        for (app_id, org) in &self.organic {
            let shard = sym_of.get(app_id).map_or(0, |s| shard_of(*s, n));
            out[shard].push((*app_id, *org));
        }
        out
    }

    /// Day-0 state of the day loop: the planned schedule keyed by
    /// start day, an empty dataset seeded from the world's interner
    /// (every planned package keeps its generation-order symbol, so
    /// numbering is independent of `parallelism`), and the `"wildsim"`
    /// RNG at the start of its stream.
    fn fresh_sim_state(&self) -> SimState {
        let mut pending: BTreeMap<u64, Vec<(usize, usize, usize)>> = BTreeMap::new();
        for (ai, app) in self.plan.apps.iter().enumerate() {
            for (ci, c) in app.campaigns.iter().enumerate() {
                for (oi, _) in c.offers.iter().enumerate() {
                    pending.entry(c.start_day).or_default().push((ai, ci, oi));
                }
            }
        }
        let wild = self.seed.fork("wildsim");
        let shards = (0..self.cfg.shards.max(1))
            .map(|k| ShardSim {
                // Shard 0 carries the legacy `"wildsim"` stream, so a
                // single-shard world replays the historical RNG
                // sequence bit-for-bit.
                rng: if k == 0 {
                    wild.rng()
                } else {
                    wild.fork_idx("shard", k as u64).rng()
                },
                active: Vec::new(),
            })
            .collect();
        SimState {
            dataset: Dataset::with_interner(self.syms.clone()),
            crawler: self.crawler(),
            aggregates: ReportAggregates::new(),
            pending,
            shards,
            enforcement_removed: 0,
            incentivized_ratings: 0,
            tagged_installs: 0,
            device_base: 10_000_000,
        }
    }

    /// Replays the sim steps for days `0..=day` on a fresh state,
    /// advancing the shared clock exactly as the original run did.
    /// Measurement steps are skipped: they read the world and write
    /// the dataset, never the sim state, and their seed lineages are
    /// independent of the `"wildsim"` stream.
    fn replay_sim_to(
        &self,
        day: u64,
        profiles: &BTreeMap<IipId, IipBehaviorProfile>,
        organic: &[Vec<(AppId, OrganicProfile)>],
    ) -> Result<SimState> {
        let mut st = self.fresh_sim_state();
        for d in 0..=day {
            let t0 = self.study_start() + SimDuration::from_days(d);
            self.net.clock().advance_to(t0);
            self.sim_day(&mut st, d, t0, profiles, organic)?;
        }
        Ok(st)
    }

    /// Serializes the sim side of `st` (and the shared clock) into a
    /// canonical byte string. Written into every snapshot and compared
    /// byte-for-byte against the replayed state on resume — it is an
    /// equality oracle, never decoded.
    fn encode_sim(&self, st: &SimState, day: u64) -> Vec<u8> {
        let mut e = iiscope_types::frame::Enc::new();
        e.u64(day);
        e.u64(st.shards.len() as u64);
        for shard in &st.shards {
            let rng = shard.rng.state();
            for k in rng.key {
                e.u32(k);
            }
            e.u64(rng.counter).u64(rng.index as u64);
            e.u64(shard.active.len() as u64);
            for rt in &shard.active {
                e.u64(rt.app_id.raw())
                    .u8(rt.iip as u8)
                    .u64(rt.campaign_id.raw());
                e.str(&rt.tag);
                e.str(&format!("{:?}", rt.goal));
                e.u64(rt.start_day)
                    .u64(rt.end_day)
                    .u64(rt.cap)
                    .u64(rt.completions);
                e.f64(rt.installs_per_day)
                    .f64(rt.carry)
                    .f64(rt.companion_per_day)
                    .f64(rt.companion_carry);
                e.u32(rt.farm_left).u32(rt.farm_block);
                e.u64(rt.device_counter).bool(rt.ended);
            }
        }
        e.u64(st.device_base)
            .u64(st.enforcement_removed)
            .u64(st.incentivized_ratings)
            .u64(st.tagged_installs);
        e.u64(self.net.clock().now().secs());
        e.u64(st.pending.len() as u64);
        for (d, starts) in &st.pending {
            e.u64(*d).u64(starts.len() as u64);
            for (ai, ci, oi) in starts {
                e.u64(*ai as u64).u64(*ci as u64).u64(*oi as u64);
            }
        }
        e.into_bytes()
    }

    /// Writes the durable snapshot for a completed day to `out`
    /// straight from the live state: the dataset, interners and
    /// aggregates are borrowed, not cloned, and the bytes stream out
    /// through one window.
    fn write_snapshot(&self, st: &SimState, day: u64, out: &mut File) -> std::io::Result<()> {
        let sim_bytes = self.encode_sim(st, day);
        let snapshot = SnapshotRef {
            day,
            seed: self.cfg.seed,
            fingerprint: checkpoint::config_fingerprint(&self.cfg),
            sim_bytes: &sim_bytes,
            crawler: st.crawler.checkpoint(),
            pkg_syms: st.dataset.package_interner(),
            desc_syms: st.dataset.description_interner(),
            offers_spill: st.dataset.offers_spill(),
            offers: Box::new(st.dataset.offers_resident()),
            profiles: Box::new(st.dataset.profiles()),
            charts_spill: st.dataset.charts_spill(),
            charts: Box::new(st.dataset.charts_resident()),
            chaos_counters: CHAOS.snapshot(),
            wire_counters: WIRE.snapshot(),
            aggregates: &st.aggregates,
        };
        snapshot.write_to(out).map(drop)
    }

    /// Steps 1–4 and 6 of one day: campaign starts, organic
    /// background, delivery, enforcement, campaign ends. Pure sim —
    /// consumes only the shard RNGs and mutates only `st` and the
    /// world's stores/platforms, deterministically.
    fn sim_day(
        &self,
        st: &mut SimState,
        day: u64,
        t0: SimTime,
        profiles: &BTreeMap<IipId, IipBehaviorProfile>,
        organic: &[Vec<(AppId, OrganicProfile)>],
    ) -> Result<()> {
        let n_shards = st.shards.len();
        let scale = self.cfg.scale.max(1);
        // 1. Campaign starts — sequential: the platform's campaign-id
        //    and tag allocation is order-dependent, so starts stay a
        //    single stream regardless of shard count.
        if let Some(starts) = st.pending.remove(&day) {
            for (ai, ci, oi) in starts {
                let app = &self.plan.apps[ai];
                let c = &app.campaigns[ci];
                let o = &c.offers[oi];
                let dev = self
                    .dev_id(app.package.as_str())
                    .expect("planned app is registered");
                let platform = &self.platforms[&c.iip];
                let cap = o.cap.saturating_mul(scale);
                let (campaign_id, tag) = platform.create_campaign(
                    iiscope_iip::CampaignSpec {
                        developer: dev,
                        package: app.package.clone(),
                        store_url: format!(
                            "https://play.iiscope/store/apps/details?id={}",
                            app.package
                        ),
                        goal: o.goal.clone(),
                        payout: o.payout,
                        cap,
                        countries: o.countries.clone(),
                    },
                    t0,
                )?;
                st.device_base += 100_000 * scale;
                // Companion marketing is campaign-level; attribute
                // it to the campaign's first offer runtime so it is
                // applied exactly once per campaign-day.
                let companion_per_day = if oi == 0 {
                    app.pre_installs as f64 * c.companion_growth / c.duration_days as f64
                        * scale as f64
                } else {
                    0.0
                };
                let shard = self
                    .syms
                    .get(app.package.as_str())
                    .map_or(0, |s| shard_of(s, n_shards));
                st.shards[shard].active.push(OfferRt {
                    app_id: self
                        .app_id(app.package.as_str())
                        .expect("planned app is published"),
                    iip: c.iip,
                    campaign_id,
                    tag: tag.into(),
                    goal: o.goal.clone(),
                    start_day: c.start_day,
                    end_day: c.end_day(),
                    cap,
                    completions: 0,
                    installs_per_day: cap as f64 * 1.15 / c.duration_days as f64,
                    carry: 0.0,
                    companion_per_day,
                    companion_carry: 0.0,
                    farm_left: 0,
                    farm_block: 0,
                    device_counter: st.device_base,
                    ended: false,
                });
            }
        }

        // 2 + 3. Per-shard sim: organic background and campaign
        // delivery, emitted as op buffers. Shard sims never touch the
        // store, so they fan out across the worker pool; applying the
        // buffers in shard-index order afterwards keeps the mutation
        // stream deterministic at any worker count.
        let cells: Vec<Mutex<&mut ShardSim>> = st.shards.iter_mut().map(Mutex::new).collect();
        let outs = fan_out(self.cfg.parallelism, n_shards, |k| {
            let mut shard = cells[k].lock();
            self.shard_sim_day(&mut shard, day, t0, profiles, &organic[k])
        });
        drop(cells);
        let mut buffers = Vec::with_capacity(n_shards);
        for slot in outs {
            let (ops, ratings) = slot?;
            st.incentivized_ratings += ratings;
            buffers.push(ops);
        }
        for ops in buffers {
            for op in ops {
                self.apply_op(st, op)?;
            }
        }

        // 4. Enforcement sweep — once, after every shard's ops landed.
        st.enforcement_removed += self.store.enforcement_sweep(t0);

        // 6 (early). Campaign ends — sequential, shard-index order.
        for shard in st.shards.iter_mut() {
            for rt in shard.active.iter_mut() {
                if !rt.ended && day >= rt.end_day {
                    self.platforms[&rt.iip].end_campaign(rt.campaign_id)?;
                    rt.ended = true;
                }
            }
        }
        Ok(())
    }

    /// One shard's sim step for a day: organic background for its
    /// slice of the catalog, then delivery for its active offers —
    /// drawing only from the shard's own RNG and emitting world
    /// mutations as deferred ops. Returns the ops plus the shard's
    /// incentivized-rating count.
    fn shard_sim_day(
        &self,
        shard: &mut ShardSim,
        day: u64,
        t0: SimTime,
        profiles: &BTreeMap<IipId, IipBehaviorProfile>,
        organic: &[(AppId, OrganicProfile)],
    ) -> (Vec<Op>, u64) {
        let ShardSim { rng, active } = shard;
        let mut ops = Vec::new();
        // 2. Organic background.
        for (app_id, org) in organic {
            let installs = sample_count(org.installs_daily, rng);
            if installs > 0 {
                ops.push(Op::OrganicInstalls {
                    app: *app_id,
                    at: t0,
                    n: installs,
                });
            }
            let sessions = sample_count(org.sessions_daily, rng);
            if sessions > 0 {
                ops.push(Op::EngagementBulk {
                    app: *app_id,
                    at: t0,
                    sessions,
                    secs: sessions * org.session_secs,
                });
            }
            if org.revenue_daily > Usd::ZERO {
                ops.push(Op::RevenueBulk {
                    app: *app_id,
                    at: t0,
                    buyers: (org.revenue_daily.dollars_f64() / 3.0).ceil() as u64,
                    amount: org.revenue_daily,
                });
            }
            let ratings = sample_count(org.ratings_daily, rng);
            if ratings > 0 {
                let total = ((ratings as f64) * org.avg_stars).round() as u64;
                ops.push(Op::RatingsBulk {
                    app: *app_id,
                    n: ratings,
                    stars_total: total.min(ratings * 5),
                });
            }
        }
        // 3. Campaign delivery.
        let mut incentivized = 0;
        for rt in active.iter_mut() {
            if rt.ended || day < rt.start_day || day >= rt.end_day {
                continue;
            }
            let profile = &profiles[&rt.iip];
            incentivized += self.deliver_offer_day(rt, profile, t0, rng, &mut ops);
        }
        (ops, incentivized)
    }

    /// Applies one deferred shard mutation to the live world.
    fn apply_op(&self, st: &mut SimState, op: Op) -> Result<()> {
        match op {
            Op::OrganicInstalls { app, at, n } => self.store.record_organic_installs(app, at, n),
            Op::EngagementBulk {
                app,
                at,
                sessions,
                secs,
            } => self.store.record_engagement_bulk(app, at, sessions, secs),
            Op::RevenueBulk {
                app,
                at,
                buyers,
                amount,
            } => self.store.record_revenue_bulk(app, at, buyers, amount),
            Op::RatingsBulk {
                app,
                n,
                stars_total,
            } => self.store.record_ratings_bulk(app, n, stars_total),
            Op::Install {
                app,
                at,
                signals,
                tag,
            } => {
                self.store
                    .record_install(app, at, signals, &InstallSource::Tagged(tag))?;
                st.tagged_installs += 1;
            }
            Op::Session { app, at, secs } => {
                self.store.record_session(app, at, secs)?;
            }
            Op::Registration { app, at } => {
                self.store.record_registration(app, at)?;
            }
            Op::Purchase { app, at, amount } => {
                self.store.record_purchase(app, at, amount)?;
            }
            Op::Rating { app, stars } => self.store.record_rating(app, stars),
            Op::Postback { iip, pb } => {
                self.platforms[&iip].process_postback(&pb)?;
            }
        }
        Ok(())
    }

    /// Step 5 of a crawl day: milk every (affiliate × vantage), crawl
    /// profiles of every discovered app plus baseline, crawl the top
    /// charts. Every crawl-day unit is independent, so at
    /// `parallelism > 1` the jobs fan out over scoped worker threads.
    /// Results are merged in plan order, and each milk run captures its
    /// own intercepts via the log tap, so the dataset ingests the
    /// exact stream the sequential path produces.
    fn measure_day(&self, st: &mut SimState, t0: SimTime, fuzzer: &UiFuzzer) -> Result<()> {
        let workers = self.cfg.parallelism;
        let milk_jobs: Vec<(usize, usize)> = (0..self.affiliate_apps.len())
            .flat_map(|a| (0..self.cfg.milk_countries.len()).map(move |c| (a, c)))
            .collect();
        let milked = fan_out(workers, milk_jobs.len(), |j| {
            let (a, c) = milk_jobs[j];
            self.infra
                .milk(&self.affiliate_apps[a], self.cfg.milk_countries[c], fuzzer)
        });
        for slot in milked {
            // A milking run lost to the network (retries exhausted,
            // MITM path down, wall stalled) is a missed observation
            // round for that app × vantage, not a dead study. Anything
            // else — a parser bug, a worker panic, a state-machine
            // violation — still aborts.
            let offers = match slot? {
                Ok(offers) => offers,
                Err(Error::Network(_)) => {
                    CHAOS.add_milks_abandoned(1);
                    continue;
                }
                Err(e) => return Err(e),
            };
            st.dataset.add_offers(offers);
            check_spill(&st.dataset)?;
        }
        // The dataset's advertised index *is* the discovery set (every
        // milked offer lands there), in lexicographic order, so the
        // crawl plan and its chunks are a function of the dataset.
        let crawled = {
            let crawl_plan: Vec<&str> = st
                .dataset
                .advertised_packages()
                .into_iter()
                .chain(self.plan.baseline.iter().map(|b| b.package.as_str()))
                .collect();
            self.crawl_profiles(&crawl_plan, t0)?
        };
        for slot in crawled {
            // A failed crawl is a missing data point, not a dead study
            // (the paper's crawler had outages too).
            match slot {
                Ok(Some(snap)) => st.dataset.add_profile(snap),
                Ok(None) => {}
                Err(_) => CHAOS.add_crawls_abandoned(1),
            }
        }
        for kind in iiscope_playstore::ChartKind::ALL {
            match st.crawler.chart(kind, self.cfg.chart_size, t0) {
                Ok(snap) => st.dataset.add_chart(snap),
                Err(_) => CHAOS.add_crawls_abandoned(1),
            }
        }
        check_spill(&st.dataset)?;
        // No session outlives its crawl day, so a snapshot's
        // `ClientState` describes the crawler completely.
        st.crawler.close_idle();
        Ok(())
    }

    /// Crawls the profile of every package in `plan` on the crawl day
    /// starting at `now`, in chunks of [`CRAWL_CHUNK`] over kept
    /// sessions. Each day's chunks fork from a lineage of their own, so
    /// a crawl day's fault draws are not a replay of the last one's.
    /// Returns one result per package, in plan order; a worker panic is
    /// the outer error.
    pub fn crawl_profiles(
        &self,
        plan: &[&str],
        now: SimTime,
    ) -> Result<Vec<Result<Option<ProfileSnapshot>>>> {
        let lineage = self.seed.fork("crawler").fork_idx("day", now.days());
        self.crawl_in_chunks(plan, lineage, |crawler, pkg| crawler.profile(pkg, now))
    }

    /// Fetches every entry of `plan` with `fetch`, in chunks of
    /// [`CRAWL_CHUNK`]: chunk `k` gets one crawler on
    /// `lineage.fork_idx("chunk", k)`, keeps its session across the
    /// chunk's requests and closes it when the chunk ends. Chunks fan
    /// out over the configured workers and merge in plan order, so the
    /// results are invariant to the worker count.
    fn crawl_in_chunks<T: Send>(
        &self,
        plan: &[&str],
        lineage: SeedFork,
        fetch: impl Fn(&mut Crawler, &str) -> Result<T> + Sync,
    ) -> Result<Vec<Result<T>>> {
        let chunks: Vec<&[&str]> = plan.chunks(CRAWL_CHUNK).collect();
        let fetched = fan_out(self.cfg.parallelism, chunks.len(), |k| {
            let mut crawler = self.crawler_on(lineage.fork_idx("chunk", k as u64));
            let results: Vec<Result<T>> = chunks[k]
                .iter()
                .map(|pkg| fetch(&mut crawler, pkg))
                .collect();
            crawler.close_idle();
            results
        });
        let mut out = Vec::with_capacity(plan.len());
        for chunk in fetched {
            out.extend(chunk?);
        }
        Ok(out)
    }

    fn deliver_offer_day(
        &self,
        rt: &mut OfferRt,
        profile: &IipBehaviorProfile,
        t0: SimTime,
        rng: &mut impl Rng,
        ops: &mut Vec<Op>,
    ) -> u64 {
        let mut ratings = 0;
        // Companion non-incentivized installs (organic bulk).
        rt.companion_carry += rt.companion_per_day;
        let companion = rt.companion_carry as u64;
        rt.companion_carry -= companion as f64;
        if companion > 0 {
            ops.push(Op::OrganicInstalls {
                app: rt.app_id,
                at: t0,
                n: companion,
            });
        }
        rt.carry += rt.installs_per_day;
        let n = rt.carry as u64;
        rt.carry -= n as f64;
        // Farm deliveries arrive in whole-farm bursts: the kind mix's
        // farm share is an *install* share, so burst starts are drawn
        // at share/mean-burst and then the burst drains install by
        // install (producing the /24 clusters §3.2 observed and §5.2's
        // lockstep detector keys on).
        let farm_share = profile
            .kind_weights
            .iter()
            .find(|(k, _)| *k == WorkerKind::FarmOperator)
            .map(|(_, w)| *w)
            .unwrap_or(0.0);
        let burst_start_p = farm_share / 17.0;
        for _ in 0..n {
            let t = t0 + SimDuration::from_secs(rng.gen_range(0..86_400));
            let kind = if rt.farm_left > 0 || chance(rng, burst_start_p) {
                WorkerKind::FarmOperator
            } else {
                // Re-draw among the non-farm kinds.
                let mut kind = profile.sample_kind(rng);
                while kind == WorkerKind::FarmOperator {
                    kind = profile.sample_kind(rng);
                }
                kind
            };
            let signals = self.sample_signals(rt, kind, rng);
            ops.push(Op::Install {
                app: rt.app_id,
                at: t,
                signals,
                tag: Arc::clone(&rt.tag),
            });
            let plan = plan_for(profile, kind, &rt.goal, rng);
            if plan.opens_app {
                ratings += self.record_goal_engagement(rt, &plan, t, rng, ops);
            }
            if plan.completes && rt.completions < rt.cap {
                rt.completions += 1;
                rt.device_counter += 1;
                let pb = Postback {
                    conversion: Conversion {
                        tag: rt.tag.to_string(),
                        device: DeviceId(rt.device_counter),
                        at: t,
                        fraud_flag: signals.is_suspicious(),
                    },
                };
                ops.push(Op::Postback { iip: rt.iip, pb });
            }
        }
        ratings
    }

    fn sample_signals(
        &self,
        rt: &mut OfferRt,
        kind: WorkerKind,
        rng: &mut impl Rng,
    ) -> InstallSignals {
        match kind {
            WorkerKind::FarmOperator => {
                if rt.farm_left == 0 {
                    rt.farm_block = rng.gen::<u32>() | 0x8000_0000;
                    rt.farm_left = rng.gen_range(10..=25);
                }
                rt.farm_left -= 1;
                InstallSignals {
                    emulator: false,
                    rooted: chance(rng, 0.9),
                    datacenter_asn: false,
                    block24: rt.farm_block,
                }
            }
            WorkerKind::BotOperator => InstallSignals {
                emulator: chance(rng, 0.5),
                rooted: true,
                datacenter_asn: chance(rng, 0.5),
                block24: rng.gen::<u32>() & 0x7FFF_FFFF,
            },
            _ => InstallSignals {
                emulator: false,
                rooted: chance(rng, 0.08),
                datacenter_asn: false,
                block24: rng.gen::<u32>() & 0x7FFF_FFFF,
            },
        }
    }

    fn record_goal_engagement(
        &self,
        rt: &OfferRt,
        plan: &iiscope_devices::ExecutionPlan,
        t: SimTime,
        rng: &mut impl Rng,
        ops: &mut Vec<Op>,
    ) -> u64 {
        let app = rt.app_id;
        if !plan.completes {
            // Opened, poked around, left.
            ops.push(Op::Session {
                app,
                at: t,
                secs: rng.gen_range(20..120),
            });
            return 0;
        }
        match &rt.goal {
            ConversionGoal::InstallAndOpen => {
                ops.push(Op::Session {
                    app,
                    at: t,
                    secs: rng.gen_range(30..120),
                });
            }
            ConversionGoal::Register | ConversionGoal::AllOf(_) => {
                // Paid registrations churn: a fraction are throwaway
                // accounts the store's engagement pipeline discounts.
                if chance(rng, 0.6) {
                    ops.push(Op::Registration { app, at: t });
                }
                ops.push(Op::Session {
                    app,
                    at: t,
                    secs: plan.work_secs.clamp(60, 450),
                });
            }
            ConversionGoal::ReachLevel(_)
            | ConversionGoal::SessionTime(_)
            | ConversionGoal::CompleteSubOffers(_) => {
                ops.push(Op::Session {
                    app,
                    at: t,
                    secs: plan.work_secs.clamp(120, 1_200),
                });
                if chance(rng, 0.15) {
                    ops.push(Op::Session {
                        app,
                        at: t,
                        secs: rng.gen_range(120..600),
                    });
                }
            }
            ConversionGoal::Purchase(min) => {
                let amount = *min + Usd::from_cents(rng.gen_range(0..200));
                ops.push(Op::Purchase { app, at: t, amount });
                ops.push(Op::Session {
                    app,
                    at: t,
                    secs: plan.work_secs.clamp(120, 600),
                });
            }
            ConversionGoal::RateApp(min_stars) => {
                // Paid raters leave the minimum the offer demands, or
                // five stars — never less.
                let stars = if chance(rng, 0.6) { 5 } else { *min_stars };
                ops.push(Op::Rating { app, stars });
                ops.push(Op::Session {
                    app,
                    at: t,
                    secs: rng.gen_range(30..150),
                });
                return 1;
            }
        }
        0
    }
}

fn sample_count(rate: f64, rng: &mut impl Rng) -> u64 {
    // Poisson-ish: integer part plus Bernoulli remainder, with ±20%
    // day-to-day jitter.
    let jittered = rate * (0.8 + 0.4 * rng.gen::<f64>());
    let base = jittered.floor() as u64;
    base + u64::from(chance(rng, jittered.fract()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{World, WorldConfig};

    #[test]
    fn small_wild_study_produces_a_coherent_dataset() {
        let world = World::build(WorldConfig::small(21)).unwrap();
        let artifacts = world.run_wild_study().unwrap();
        let ds = &artifacts.dataset;

        // Most planned apps are discovered through milking.
        let advertised = ds.advertised_packages();
        let discovery_rate = advertised.len() as f64 / world.plan.apps.len() as f64;
        assert!(
            discovery_rate > 0.8,
            "discovered {} of {}",
            advertised.len(),
            world.plan.apps.len()
        );

        // Offers were observed repeatedly across rounds; dedup works.
        assert!(ds.unique_offers().len() < ds.offers().len());
        assert!(!ds.unique_descriptions().is_empty());

        // Profiles exist for baseline and advertised apps, multiple
        // crawl days each.
        let some_pkg = advertised.iter().next().unwrap().to_string();
        assert!(ds.profile_series(&some_pkg).len() >= 2);
        let b = world.plan.baseline[0].package.as_str();
        assert!(ds.profile_series(b).len() >= 2);

        // Charts were crawled and are populated.
        assert!(!ds.chart_days().is_empty());
        assert!(ds.charts().any(|c| !c.entries.is_empty()));

        // APKs downloaded for observed + baseline apps.
        assert!(artifacts.apks.len() >= advertised.len());

        // Popular apps accumulate public star ratings over the window.
        let rated = ds
            .profiles()
            .filter(|p| p.rating_count > 0 && p.rating >= 1.0 && p.rating <= 5.0)
            .count();
        assert!(rated > 50, "rated profile snapshots: {rated}");

        // Payout settlement actually flowed.
        let gross: iiscope_types::Usd = IipId::ALL
            .into_iter()
            .map(|i| world.platforms[&i].settlement().gross())
            .sum();
        assert!(gross > iiscope_types::Usd::from_dollars(10), "{gross}");
    }

    #[test]
    fn parallel_study_matches_sequential_bit_for_bit() {
        let run = |parallelism: usize| {
            let mut cfg = WorldConfig::small(77);
            cfg.monitoring_days = 8;
            cfg.crawl_cadence_days = 4;
            cfg.advertised_apps = 25;
            cfg.baseline_apps = 10;
            cfg.parallelism = parallelism;
            let world = World::build(cfg).unwrap();
            world.run_wild_study().unwrap()
        };
        let seq = run(1);
        let par = run(8);
        assert_eq!(seq.offer_observations, par.offer_observations);
        assert_eq!(seq.enforcement_removed, par.enforcement_removed);
        assert_eq!(
            format!("{:?}", seq.dataset.offers().collect::<Vec<_>>()),
            format!("{:?}", par.dataset.offers().collect::<Vec<_>>()),
            "raw offer stream must be identical"
        );
        assert_eq!(
            format!("{:?}", seq.dataset.profiles()),
            format!("{:?}", par.dataset.profiles()),
        );
        assert_eq!(seq.apks, par.apks);
    }

    #[test]
    fn wild_study_is_deterministic() {
        let run = |seed: u64| {
            let world = World::build(WorldConfig::small(seed)).unwrap();
            let a = world.run_wild_study().unwrap();
            (
                a.dataset.offers().len(),
                a.dataset.unique_offers().len(),
                a.enforcement_removed,
            )
        };
        assert_eq!(run(33), run(33));
    }

    #[test]
    fn pool_size_never_exceeds_job_count() {
        // Regression: the pool used to spawn `workers` threads even
        // when there were fewer jobs, so a 16-worker config paid 15
        // thread spawns to run a single job.
        assert_eq!(pool_size(16, 1), 1);
        assert_eq!(pool_size(16, 3), 3);
        assert_eq!(pool_size(4, 100), 4);
        assert_eq!(pool_size(0, 5), 1, "zero workers still runs inline");
        assert_eq!(pool_size(8, 0), 1, "zero jobs never yields an empty pool");
    }

    #[test]
    fn zero_job_fan_out_returns_empty_without_a_pool() {
        // Regression: zero jobs must take the inline path — no worker
        // pool, no job closure invocations, just an empty Vec.
        let calls = AtomicUsize::new(0);
        let results: Vec<Result<u64>> = fan_out(8, 0, |j| {
            calls.fetch_add(1, Ordering::SeqCst);
            j as u64
        });
        assert!(results.is_empty());
        assert_eq!(calls.load(Ordering::SeqCst), 0, "job ran despite zero jobs");
    }

    #[test]
    fn fan_out_surfaces_worker_panics_as_errors() {
        for workers in [1, 4] {
            let results = fan_out(workers, 6, |j| {
                if j == 3 {
                    panic!("job {j} exploded");
                }
                j * 10
            });
            assert_eq!(results.len(), 6);
            for (j, slot) in results.iter().enumerate() {
                if j == 3 {
                    match slot {
                        Err(Error::WorkerPanic(msg)) => {
                            assert!(msg.contains("job 3"), "panic message: {msg}")
                        }
                        other => panic!("expected WorkerPanic, got {other:?}"),
                    }
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), j * 10, "healthy job survived");
                }
            }
        }
    }
}
