//! A budgeted, sharded run killed mid-study and resumed writes the
//! same later snapshots and the same spill file as a run that was never
//! killed, byte for byte.
//!
//! A resume restores the spilled offer history under the run's memory
//! budget: the spilled segments stay on disk, and the resident suffix
//! closes into the same segments it held before the kill. If the
//! restore cached the spilled segments, or re-added the suffix before
//! the budget was set, the segment boundaries and spill points would
//! shift and every later snapshot and the spill file would differ.
//!
//! Snapshots carry the process-wide wire and chaos counters, so this
//! test lives in its own binary and resets them at the start of each
//! life.

mod common;

use common::TempDir;
use iiscope::chaos::{chaos_config, CrashPlan};
use iiscope::checkpoint::{load_latest, snapshot_path};
use iiscope::subsystems::types::{chaosstats::CHAOS, wirestats::WIRE, Error};
use iiscope::wildsim::{CheckpointPolicy, WildRunOptions};
use iiscope::{World, WorldConfig};
use std::path::Path;

const KILL_DAY: u64 = 5;

/// One process life: build the world, run the honey study, then the
/// wild study with a snapshot every day into `dir/snap`.
fn life(
    cfg: &WorldConfig,
    dir: &Path,
    resume: bool,
    crash: Option<CrashPlan>,
) -> Result<(), Error> {
    CHAOS.reset();
    WIRE.reset();
    let world = World::build(cfg.clone())?;
    world.run_honey_study(world.study_start())?;
    let snaps = dir.join("snap");
    let resume = resume.then(|| {
        let scan = load_latest(&snaps).expect("checkpoint dir readable");
        let (snap, _) = scan.snapshot.expect("the first life left a snapshot");
        assert_eq!(snap.day, KILL_DAY - 1, "resumes the newest snapshot");
        snap
    });
    let artifacts = world.run_wild_study_with(WildRunOptions {
        checkpoint: Some(CheckpointPolicy {
            dir: snaps,
            every_days: 1,
        }),
        resume,
        crash,
    })?;
    assert!(
        artifacts.dataset.spill_stats().spilled_segments > 0,
        "the budget spills"
    );
    Ok(())
}

#[test]
fn killed_and_resumed_budgeted_run_writes_the_uninterrupted_bytes() {
    let dir = TempDir::new("budgeted-resume");
    let mut cfg = chaos_config(42);
    cfg.shards = 2;
    cfg.memory_budget = Some(32 * 1024);
    // Snapshots name the spill file, so both runs use the same paths.
    cfg.spill_dir = Some(dir.0.join("spill"));
    let spill_file = dir.0.join("spill/iiscope-42-offers.spill");
    let snaps = dir.0.join("snap");

    life(&cfg, &dir.0, false, None).expect("uninterrupted run");
    let days = cfg.monitoring_days;
    let straight: Vec<Vec<u8>> = (0..=days)
        .map(|day| std::fs::read(snapshot_path(&snaps, day)).expect("snapshot written"))
        .collect();
    let straight_spill = std::fs::read(&spill_file).expect("spill file written");
    std::fs::remove_dir_all(&snaps).unwrap();
    std::fs::remove_dir_all(dir.0.join("spill")).unwrap();

    let killed = life(&cfg, &dir.0, false, Some(CrashPlan { kill_day: KILL_DAY }));
    assert!(matches!(killed, Err(Error::Interrupted(_))), "{killed:?}");
    life(&cfg, &dir.0, true, None).expect("resumed run");

    for day in KILL_DAY..=days {
        let resumed = std::fs::read(snapshot_path(&snaps, day)).expect("snapshot written");
        assert!(
            resumed == straight[day as usize],
            "day-{day} snapshot differs from the uninterrupted run's"
        );
    }
    assert!(
        std::fs::read(&spill_file).unwrap() == straight_spill,
        "spill file differs from the uninterrupted run's"
    );
}
