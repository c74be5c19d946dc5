//! Crash-safe checkpointing: the kill-point sweep and corruption
//! fallback suite.
//!
//! The hard bar these tests enforce: a run that is killed at *any* sim
//! day and re-entered through resume publishes **byte-identical**
//! output (full report + all three CSVs) to a straight-through run of
//! the same seed — at 1 worker, at 8 workers, and when the snapshot
//! was written at a different worker count than the resume. Corrupt
//! snapshots (bit flips, truncation) must be detected by the frame
//! CRC, logged, and skipped back to the last valid one — never
//! panicking, never resuming into wrong data.
//!
//! In-suite: the {first, second, mid, last-1, last} × 2-seed sweep at
//! chaos scale. Behind `--ignored`: the exhaustive every-day sweep at
//! both worker counts.

mod common;

use common::TempDir;
use iiscope::chaos::{chaos_config, crash_resume_digest, straight_digest, CrashPlan, RunDigest};
use iiscope::checkpoint::{load_latest, snapshot_path, Snapshot};
use iiscope::wildsim::{CheckpointPolicy, WildRunOptions};
use iiscope::{World, WorldConfig};

/// Sweep kill days for one config, comparing each crash-and-resume
/// digest against the straight-through baseline.
fn sweep(cfg: WorldConfig, kill_days: &[u64], tag: &str) {
    let straight = straight_digest(cfg.clone()).expect("straight run");
    for &kill in kill_days {
        let dir = TempDir::new(&format!("{tag}-k{kill}"));
        let resumed = crash_resume_digest(cfg.clone(), kill, &dir.0)
            .unwrap_or_else(|e| panic!("{tag}: crash at day {kill} failed to resume: {e}"));
        assert_eq!(
            resumed, straight,
            "{tag}: crash at day {kill} + resume is not byte-identical to straight-through"
        );
    }
}

#[test]
fn kill_point_sweep_resumes_byte_identical() {
    // chaos scale: 8 monitoring days, cadence 4 → kill points at the
    // first, second, mid, last-1 and last loop days.
    for seed in [42, 7] {
        sweep(chaos_config(seed), &[0, 1, 4, 7, 8], &format!("s{seed}"));
    }
}

#[test]
fn kill_point_sweep_resumes_byte_identical_at_8_workers() {
    let mut cfg = chaos_config(42);
    cfg.parallelism = 8;
    // The baseline inside sweep() also runs at 8 workers; equality to
    // the 1-worker digests is covered by the cross-worker test below.
    sweep(cfg, &[1, 4, 8], "s42-par8");
}

#[test]
fn snapshot_written_at_one_worker_count_resumes_at_another() {
    // First life at 1 worker, crash at day 7 (snapshots at days 0, 4);
    // second life resumes the day-4 snapshot at 8 workers. The config
    // fingerprint excludes parallelism, so this must both be accepted
    // and stay byte-identical.
    let dir = TempDir::new("cross-workers");
    let cfg = chaos_config(42);
    let straight = straight_digest(cfg.clone()).expect("straight run");

    {
        let world = World::build(cfg.clone()).unwrap();
        world.run_honey_study(world.study_start()).unwrap();
        let crashed = world.run_wild_study_with(WildRunOptions {
            checkpoint: Some(CheckpointPolicy {
                dir: dir.0.clone(),
                every_days: cfg.crawl_cadence_days,
            }),
            resume: None,
            crash: Some(CrashPlan { kill_day: 7 }),
        });
        assert!(
            matches!(
                crashed,
                Err(iiscope::subsystems::types::Error::Interrupted(_))
            ),
            "kill-point must surface as Error::Interrupted"
        );
    }

    let mut cfg8 = cfg;
    cfg8.parallelism = 8;
    let world = World::build(cfg8).unwrap();
    let honey = world.run_honey_study(world.study_start()).unwrap();
    let scan = load_latest(&dir.0).unwrap();
    let (snap, _) = scan.snapshot.expect("a valid snapshot exists");
    assert_eq!(snap.day, 4, "newest snapshot is the day-4 one");
    let artifacts = world
        .run_wild_study_with(WildRunOptions {
            checkpoint: None,
            resume: Some(snap),
            crash: None,
        })
        .unwrap();
    assert_eq!(artifacts.checkpoints.resumed_from_day, Some(4));
    assert_eq!(
        RunDigest::of(&world, &artifacts, honey),
        straight,
        "1-worker snapshot resumed at 8 workers must stay byte-identical"
    );
}

#[test]
fn corrupt_snapshots_fall_back_to_last_valid_and_stay_byte_identical() {
    let dir = TempDir::new("corrupt-fallback");
    let cfg = chaos_config(7);
    let straight = straight_digest(cfg.clone()).expect("straight run");

    // First life: crash at day 7 leaves snapshots for days 0 and 4.
    {
        let world = World::build(cfg.clone()).unwrap();
        world.run_honey_study(world.study_start()).unwrap();
        let crashed = world.run_wild_study_with(WildRunOptions {
            checkpoint: Some(CheckpointPolicy {
                dir: dir.0.clone(),
                every_days: cfg.crawl_cadence_days,
            }),
            resume: None,
            crash: Some(CrashPlan { kill_day: 7 }),
        });
        assert!(crashed.is_err());
    }
    assert!(snapshot_path(&dir.0, 0).exists());
    assert!(snapshot_path(&dir.0, 4).exists());

    // Flip one bit in the middle of the newest snapshot: the scan must
    // skip it (CRC) and fall back to day 0 — no panic, no wrong data.
    let newest = snapshot_path(&dir.0, 4);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&newest, &bytes).unwrap();

    let scan = load_latest(&dir.0).unwrap();
    assert_eq!(scan.candidates, 2);
    assert_eq!(scan.skipped.len(), 1, "corrupt day-4 snapshot was skipped");
    let (snap, _) = scan.snapshot.expect("day-0 snapshot still valid");
    assert_eq!(snap.day, 0);

    {
        let world = World::build(cfg.clone()).unwrap();
        let honey = world.run_honey_study(world.study_start()).unwrap();
        let artifacts = world
            .run_wild_study_with(WildRunOptions {
                checkpoint: None,
                resume: Some(snap),
                crash: None,
            })
            .unwrap();
        assert_eq!(
            RunDigest::of(&world, &artifacts, honey),
            straight,
            "resume from the fallback snapshot must stay byte-identical"
        );
    }

    // Truncate the day-0 snapshot too: nothing valid remains, which is
    // a (logged) fresh start — still byte-identical, still no panic.
    let older = snapshot_path(&dir.0, 0);
    let bytes = std::fs::read(&older).unwrap();
    std::fs::write(&older, &bytes[..bytes.len() / 3]).unwrap();
    let scan = load_latest(&dir.0).unwrap();
    assert!(scan.snapshot.is_none());
    assert_eq!(scan.skipped.len(), 2);

    let world = World::build(cfg).unwrap();
    let honey = world.run_honey_study(world.study_start()).unwrap();
    let artifacts = world.run_wild_study().unwrap();
    assert_eq!(RunDigest::of(&world, &artifacts, honey), straight);
}

#[test]
fn incompatible_snapshots_are_refused_not_resumed() {
    // A snapshot from seed 42 must be refused by a seed-43 world, and
    // by a seed-42 world whose result-relevant config changed.
    let dir = TempDir::new("incompatible");
    let cfg = chaos_config(42);
    {
        let world = World::build(cfg.clone()).unwrap();
        world.run_honey_study(world.study_start()).unwrap();
        let _ = world.run_wild_study_with(WildRunOptions {
            checkpoint: Some(CheckpointPolicy {
                dir: dir.0.clone(),
                every_days: cfg.crawl_cadence_days,
            }),
            resume: None,
            crash: Some(CrashPlan { kill_day: 5 }),
        });
    }
    let (snap, _) = load_latest(&dir.0).unwrap().snapshot.unwrap();

    let other = World::build(chaos_config(43)).unwrap();
    other.run_honey_study(other.study_start()).unwrap();
    let err = other
        .run_wild_study_with(WildRunOptions {
            checkpoint: None,
            resume: Some(snap.clone()),
            crash: None,
        })
        .map(|_| ())
        .expect_err("seed mismatch must refuse the resume");
    assert!(
        err.to_string().contains("seed"),
        "diagnostic names the seed mismatch: {err}"
    );

    let mut changed = chaos_config(42);
    changed.monitoring_days += 2;
    let world = World::build(changed).unwrap();
    world.run_honey_study(world.study_start()).unwrap();
    let err = world
        .run_wild_study_with(WildRunOptions {
            checkpoint: None,
            resume: Some(snap),
            crash: None,
        })
        .map(|_| ())
        .expect_err("config change must refuse the resume");
    assert!(
        err.to_string().contains("fingerprint"),
        "diagnostic names the fingerprint mismatch: {err}"
    );
}

#[test]
fn every_written_snapshot_is_its_own_decode_reencode() {
    // The live study streams from borrowed state and a decoded
    // snapshot encodes through the same view: the bytes on disk must
    // be exactly what decoding and re-encoding them gives, and the
    // run's reported snapshot bytes must be the files' lengths. A budgeted,
    // sharded world, so the SPILL manifests and chunked resident
    // suffixes are both exercised.
    let dir = TempDir::new("one-encoder");
    let mut cfg = chaos_config(42);
    cfg.shards = 2;
    cfg.memory_budget = Some(32 * 1024);
    cfg.spill_dir = Some(dir.0.join("spill"));
    let snaps = dir.0.join("snap");
    let world = World::build(cfg).unwrap();
    world.run_honey_study(world.study_start()).unwrap();
    let artifacts = world
        .run_wild_study_with(WildRunOptions {
            checkpoint: Some(CheckpointPolicy {
                dir: snaps.clone(),
                every_days: 1,
            }),
            resume: None,
            crash: None,
        })
        .unwrap();
    assert!(artifacts.dataset.spill_stats().spilled_segments > 0);
    let written = artifacts.checkpoints.snapshots_written;
    assert_eq!(written, world.cfg.monitoring_days + 1);
    let mut spilled_refs = 0;
    let mut file_bytes = 0;
    for day in 0..written {
        let bytes = std::fs::read(snapshot_path(&snaps, day)).unwrap();
        file_bytes += bytes.len() as u64;
        if day + 1 == written {
            assert_eq!(artifacts.checkpoints.last_bytes, bytes.len() as u64);
        }
        let snap = Snapshot::decode(&bytes).unwrap();
        spilled_refs += snap.offers_spill.segments.len() + snap.charts_spill.segments.len();
        assert!(
            snap.encode() == bytes,
            "day {day}: decode + encode changed the snapshot's bytes"
        );
    }
    assert!(
        spilled_refs > 0,
        "some snapshot references spilled segments"
    );
    // The byte counts are those written: the files' lengths.
    assert_eq!(artifacts.checkpoints.total_bytes, file_bytes);
    let stats = artifacts.checkpoints;
    assert!(stats.encode_secs > 0.0 && stats.encode_secs <= stats.total_write_secs);
}

#[test]
#[ignore = "exhaustive kill sweep; run with --ignored (CI nightly)"]
fn full_kill_sweep_every_day_both_worker_counts() {
    for seed in [42, 7] {
        let cfg = chaos_config(seed);
        let all_days: Vec<u64> = (0..=cfg.monitoring_days).collect();
        sweep(cfg.clone(), &all_days, &format!("full-s{seed}"));
        let mut cfg8 = cfg;
        cfg8.parallelism = 8;
        sweep(cfg8, &all_days, &format!("full-s{seed}-par8"));
    }
}
