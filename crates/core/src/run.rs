//! One run of the paper's pipeline. A [`Run`] owns its [`World`];
//! [`Run::world`] lends it out between build and study (a server binds
//! there), and [`Run::study`] creates the checkpoint directory,
//! resolves `resume`, runs the §3 honey study and then the §4 wild
//! study, in that order (DESIGN.md §19). The [`Outcome`] keeps the
//! world with both studies' results and renders the report or its
//! digest when asked. A [`RunError`]'s exit code is `repro`'s.

use crate::chaos::CrashPlan;
use crate::checkpoint::{self, Snapshot};
use crate::experiments::{self, ExperimentTiming};
use crate::wildsim::{CheckpointPolicy, WildRunOptions};
use crate::{HoneyStudy, WildArtifacts, World, WorldConfig};
use iiscope_monitor::export::{write_charts_csv, write_offers_csv, write_profiles_csv};
use iiscope_monitor::Dataset;
use iiscope_netsim::FaultPlan;
use iiscope_types::fnv::{fnv64, Fnv64};
use iiscope_types::Error;
use std::path::Path;
use std::time::Instant;

/// How a run checkpoints, resumes, crashes and faults. The default is
/// a straight run on a clean network.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Snapshot the wild study into this policy's directory.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from the newest valid snapshot in the checkpoint
    /// directory, if it holds any; ignored without `checkpoint`.
    pub resume: bool,
    /// Kill the wild study at a sim day.
    pub crash: Option<CrashPlan>,
    /// Armed on every new connection before the studies; the world
    /// build runs clean.
    pub faults: Option<FaultPlan>,
}

/// Why a run stopped.
#[derive(Debug)]
pub enum RunError {
    /// The world build, the honey study or the wild study failed: what
    /// failed and why. A crash plan's kill is an [`Error::Interrupted`].
    Study(&'static str, Error),
    /// The checkpoint directory refused the run: the exit code (3 it
    /// cannot be created or read, 4 no valid snapshot in it, 5 a
    /// snapshot of another seed or config) and the message.
    Checkpoint(i32, String),
}

impl RunError {
    /// The process exit code: 1 for a failed study, 3–5 for a refusal.
    pub fn exit_code(&self) -> i32 {
        match self {
            RunError::Study(..) => 1,
            RunError::Checkpoint(code, _) => *code,
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Study(what, e) => write!(f, "{what} failed: {e}"),
            RunError::Checkpoint(_, msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for RunError {}

/// A built world, waiting for its studies.
pub struct Run {
    world: World,
}

impl Run {
    /// Builds the world.
    pub fn new(cfg: WorldConfig) -> Result<Run, RunError> {
        World::build(cfg)
            .map(|world| Run { world })
            .map_err(|e| RunError::Study("world build", e))
    }

    /// The world, before its studies.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Creates the checkpoint directory, resolves `resume`, arms the
    /// fault plan, then runs the honey study and the wild study, and
    /// keeps the world with their results.
    pub fn study(self, opts: RunOptions) -> Result<Outcome, RunError> {
        let world = self.world;
        let mut resume = None;
        if let Some(policy) = &opts.checkpoint {
            std::fs::create_dir_all(&policy.dir).map_err(|e| {
                let dir = policy.dir.display();
                RunError::Checkpoint(3, format!("checkpoint dir {dir} unusable: {e}"))
            })?;
            if opts.resume {
                resume = resume_snapshot(&world.cfg, &policy.dir)?;
            }
        }
        if let Some(plan) = opts.faults {
            world.net.set_default_fault(plan);
        }
        eprintln!("running the Section 3 honey-app study…");
        let honey = world
            .run_honey_study(world.study_start())
            .map_err(|e| RunError::Study("honey study", e))?;
        eprintln!("running the Section 4 wild study (this is the long part)…");
        let t = Instant::now();
        let artifacts = world
            .run_wild_study_with(WildRunOptions {
                checkpoint: opts.checkpoint,
                resume,
                crash: opts.crash,
            })
            .map_err(|e| RunError::Study("wild study", e))?;
        let wild_secs = t.elapsed().as_secs_f64();
        let ckpt = &artifacts.checkpoints;
        if ckpt.snapshots_written > 0 {
            eprintln!(
                "wrote {} snapshot(s): last {:.1} KB, {:.1} KB total, \
                 {:.3}s total write time ({:.3}s encoding)",
                ckpt.snapshots_written,
                ckpt.last_bytes as f64 / 1e3,
                ckpt.total_bytes as f64 / 1e3,
                ckpt.total_write_secs,
                ckpt.encode_secs
            );
        }
        if let Some(day) = ckpt.resumed_from_day {
            eprintln!(
                "resumed from sim day {day}: replay + verification took {:.3}s",
                ckpt.replay_secs
            );
        }
        eprintln!(
            "wild study done in {wild_secs:.1}s: {} offer observations, {} unique offers, \
             {} apps observed",
            artifacts.offer_observations,
            artifacts.dataset.unique_offers().len(),
            artifacts.dataset.advertised_packages().len(),
        );
        Ok(Outcome {
            world,
            honey,
            artifacts,
            wild_secs,
        })
    }
}

/// The newest valid snapshot in `dir`, refused unless it belongs to
/// `cfg`; `None` when `dir` holds no snapshot files.
fn resume_snapshot(cfg: &WorldConfig, dir: &Path) -> Result<Option<Snapshot>, RunError> {
    let scan = checkpoint::load_latest(dir).map_err(|e| RunError::Checkpoint(3, e))?;
    let (candidates, shown) = (scan.candidates, dir.display());
    let Some((snap, path)) = scan.snapshot else {
        if candidates == 0 {
            eprintln!("no snapshots in {shown}; starting fresh (first checkpointed run)");
            return Ok(None);
        }
        let msg = format!(
            "{candidates} snapshot file(s) in {shown} but none valid; \
             delete the directory or fix the files to proceed"
        );
        return Err(RunError::Checkpoint(4, msg));
    };
    if let Err(why) = snap.check_compatible(cfg) {
        let msg = format!("cannot resume from {}: {why}", path.display());
        return Err(RunError::Checkpoint(5, msg));
    }
    eprintln!(
        "resuming from {} (sim day {}, {} corrupt snapshot(s) skipped)",
        path.display(),
        snap.day,
        scan.skipped.len()
    );
    Ok(Some(snap))
}

/// A finished run: its world and both studies' results. The report
/// and digests render only when asked for.
pub struct Outcome {
    world: World,
    /// The §3 honey study.
    pub honey: HoneyStudy,
    /// The §4 wild study.
    pub artifacts: WildArtifacts,
    /// Wall-clock seconds the wild study took.
    pub wild_secs: f64,
}

impl Outcome {
    /// The world after both studies (its network holds the wire and
    /// chaos books).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The printed report.
    pub fn report(&self) -> String {
        self.timed_report().0
    }

    /// The printed report and each experiment's wall-clock time.
    pub fn timed_report(&self) -> (String, Vec<ExperimentTiming>) {
        let honey = self.honey.clone();
        experiments::full_report_incremental_timed(&self.world, &self.artifacts, honey)
    }

    /// Digests what the run publishes: the report and the three CSVs.
    pub fn digest(&self) -> RunDigest {
        let csv = |write: fn(&Dataset, &mut Fnv64) -> std::io::Result<usize>| {
            let mut h = Fnv64::default();
            write(&self.artifacts.dataset, &mut h).expect("hashing cannot fail");
            h.finish()
        };
        let csvs = [write_offers_csv, write_profiles_csv, write_charts_csv].map(csv);
        RunDigest {
            report: fnv64(self.report().as_bytes()),
            csvs,
        }
    }
}

/// FNV-1a digests of everything a run publishes: the printed report
/// and the three CSVs. Two runs are byte-identical iff their digests
/// are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    /// The printed report's.
    pub report: u64,
    /// `offers.csv`'s, `profiles.csv`'s and `charts.csv`'s.
    pub csvs: [u64; 3],
}

/// One small world with both studies run, built on first use and
/// shared by the experiment tests.
#[cfg(test)]
pub(crate) fn shared() -> &'static Outcome {
    static SHARED: std::sync::OnceLock<Outcome> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| {
        let run = Run::new(WorldConfig::small(1234)).expect("world builds");
        run.study(RunOptions::default()).expect("studies run")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::chaos_config;
    use std::path::PathBuf;

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "iiscope-run-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn resuming(dir: &Path) -> RunOptions {
        RunOptions {
            checkpoint: Some(CheckpointPolicy {
                dir: dir.to_path_buf(),
                every_days: 4,
            }),
            resume: true,
            ..RunOptions::default()
        }
    }

    fn refusal(cfg: WorldConfig, opts: RunOptions) -> RunError {
        match Run::new(cfg).unwrap().study(opts) {
            Ok(_) => panic!("the run was not refused"),
            Err(e) => e,
        }
    }

    #[test]
    fn a_checkpoint_dir_under_a_regular_file_exits_3() {
        let tmp = TempDir::new("exit3");
        let blocker = tmp.0.join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let err = refusal(chaos_config(42), resuming(&blocker.join("ckpt")));
        assert_eq!(err.exit_code(), 3, "{err}");
        let want = format!(
            "checkpoint dir {} unusable: ",
            blocker.join("ckpt").display()
        );
        assert!(err.to_string().starts_with(&want), "{err}");
    }

    #[test]
    fn a_dir_of_garbage_snapshots_exits_4() {
        let tmp = TempDir::new("exit4");
        for day in [0, 4] {
            std::fs::write(checkpoint::snapshot_path(&tmp.0, day), b"garbage").unwrap();
        }
        let err = refusal(chaos_config(42), resuming(&tmp.0));
        assert_eq!(err.exit_code(), 4, "{err}");
        let want = format!("2 snapshot file(s) in {} but none valid", tmp.0.display());
        assert!(err.to_string().starts_with(&want), "{err}");
    }

    #[test]
    fn a_seed_43_run_refuses_a_seed_42_dir_with_exit_5() {
        let tmp = TempDir::new("exit5");
        let crashed = Run::new(chaos_config(42)).unwrap().study(RunOptions {
            crash: Some(CrashPlan { kill_day: 1 }),
            ..resuming(&tmp.0)
        });
        assert!(
            matches!(crashed, Err(RunError::Study(_, Error::Interrupted(_)))),
            "the first life dies at its crash day"
        );
        let err = refusal(chaos_config(43), resuming(&tmp.0));
        assert_eq!(err.exit_code(), 5, "{err}");
        let path = checkpoint::snapshot_path(&tmp.0, 0);
        let want = format!("cannot resume from {}: snapshot seed 42", path.display());
        assert!(err.to_string().starts_with(&want), "{err}");
        // The wild study's own guard refuses the snapshot handed to it
        // directly.
        let (snap, _) = checkpoint::load_latest(&tmp.0).unwrap().snapshot.unwrap();
        let other = World::build(chaos_config(43)).unwrap();
        let err = other
            .run_wild_study_with(WildRunOptions {
                resume: Some(snap),
                ..WildRunOptions::default()
            })
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("snapshot seed 42"), "{err}");
    }
}
