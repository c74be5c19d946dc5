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
//! chaos scale, and a budgeted, sharded run whose later snapshots and
//! spill file a resume must rewrite byte for byte. Behind `--ignored`:
//! the exhaustive every-day sweep at both worker counts.

mod common;

use common::TempDir;
use iiscope::chaos::{chaos_config, run_chaos, CrashPlan};
use iiscope::checkpoint::{load_latest, snapshot_path, Snapshot, SnapshotRef};
use iiscope::run::RunDigest;
use iiscope::subsystems::monitor::Dataset;
use iiscope::subsystems::types::Error;
use iiscope::wildsim::CheckpointPolicy;
use iiscope::{Run, RunError, RunOptions, WorldConfig};
use std::io::Cursor;
use std::path::Path;

/// A straight run's digest.
fn straight_digest(cfg: WorldConfig) -> RunDigest {
    run_chaos(cfg, RunOptions::default())
        .expect("straight run")
        .digest
}

/// Snapshots into `dir` every `every_days`, dying at `kill_day`.
fn crashing(dir: &Path, every_days: u64, kill_day: u64) -> RunOptions {
    RunOptions {
        checkpoint: Some(CheckpointPolicy {
            dir: dir.to_path_buf(),
            every_days,
        }),
        crash: Some(CrashPlan { kill_day }),
        ..RunOptions::default()
    }
}

/// `opts` resumed: the crash plan gone, `resume` set.
fn resumed(opts: RunOptions) -> RunOptions {
    RunOptions {
        resume: true,
        crash: None,
        ..opts
    }
}

/// Whether a run ended at its crash plan's kill day.
fn is_kill(result: &Result<impl Sized, RunError>) -> bool {
    matches!(result, Err(RunError::Study(_, Error::Interrupted(_))))
}

/// Sweep kill days for one config, comparing each crash-and-resume
/// digest against the straight-through baseline.
fn sweep(cfg: WorldConfig, kill_days: &[u64], tag: &str) {
    let straight = straight_digest(cfg.clone());
    for &kill in kill_days {
        let dir = TempDir::new(&format!("{tag}-k{kill}"));
        // First life: snapshots on the crawl cadence until the kill.
        // Second life: nothing survives but the config, the seed and
        // the checkpoint directory.
        let opts = crashing(&dir.0, cfg.crawl_cadence_days, kill);
        let crashed = run_chaos(cfg.clone(), opts.clone());
        assert!(is_kill(&crashed), "{tag}: kill day {kill} never fired");
        let digest = run_chaos(cfg.clone(), resumed(opts))
            .unwrap_or_else(|e| panic!("{tag}: crash at day {kill} failed to resume: {e}"))
            .digest;
        assert_eq!(
            digest, straight,
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
    let straight = straight_digest(cfg.clone());

    let opts = crashing(&dir.0, cfg.crawl_cadence_days, 7);
    let crashed = Run::new(cfg.clone()).unwrap().study(opts.clone());
    assert!(
        is_kill(&crashed),
        "kill-point must surface as Error::Interrupted"
    );

    let mut cfg8 = cfg;
    cfg8.parallelism = 8;
    let scan = load_latest(&dir.0).unwrap();
    let (snap, _) = scan.snapshot.expect("a valid snapshot exists");
    assert_eq!(snap.day, 4, "newest snapshot is the day-4 one");
    let out = Run::new(cfg8).unwrap().study(resumed(opts)).unwrap();
    assert_eq!(out.artifacts.checkpoints.resumed_from_day, Some(4));
    assert_eq!(
        out.digest(),
        straight,
        "1-worker snapshot resumed at 8 workers must stay byte-identical"
    );
}

#[test]
fn corrupt_snapshots_fall_back_to_last_valid_and_stay_byte_identical() {
    let dir = TempDir::new("corrupt-fallback");
    let cfg = chaos_config(7);
    let straight = straight_digest(cfg.clone());

    // First life: crash at day 7 leaves snapshots for days 0 and 4.
    let crashed = run_chaos(cfg.clone(), crashing(&dir.0, cfg.crawl_cadence_days, 7));
    assert!(crashed.is_err());
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

    // A cadence past the last day: the resumed run, which starts past
    // day 0, writes no snapshot over the files under test.
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy {
            dir: dir.0.clone(),
            every_days: cfg.monitoring_days + 1,
        }),
        resume: true,
        ..RunOptions::default()
    };
    let out = Run::new(cfg.clone()).unwrap().study(opts).unwrap();
    assert_eq!(out.artifacts.checkpoints.resumed_from_day, Some(snap.day));
    assert_eq!(
        out.digest(),
        straight,
        "resume from the fallback snapshot must stay byte-identical"
    );

    // Truncate the day-0 snapshot too: nothing valid remains, which is
    // a (logged) fresh start — still byte-identical, still no panic.
    let older = snapshot_path(&dir.0, 0);
    let bytes = std::fs::read(&older).unwrap();
    std::fs::write(&older, &bytes[..bytes.len() / 3]).unwrap();
    let scan = load_latest(&dir.0).unwrap();
    assert!(scan.snapshot.is_none());
    assert_eq!(scan.skipped.len(), 2);

    assert_eq!(straight_digest(cfg), straight);
}

#[test]
fn incompatible_snapshots_are_refused_not_resumed() {
    // A snapshot from seed 42 must be refused by a seed-43 world, and
    // by a seed-42 world whose result-relevant config changed.
    let dir = TempDir::new("incompatible");
    let cfg = chaos_config(42);
    let opts = crashing(&dir.0, cfg.crawl_cadence_days, 5);
    let _ = run_chaos(cfg, opts.clone());
    assert!(load_latest(&dir.0).unwrap().snapshot.is_some());

    let err = run_chaos(chaos_config(43), resumed(opts.clone()))
        .map(|_| ())
        .expect_err("seed mismatch must refuse the resume");
    assert!(
        err.to_string().contains("seed"),
        "diagnostic names the seed mismatch: {err}"
    );

    let mut changed = chaos_config(42);
    changed.monitoring_days += 2;
    let err = run_chaos(changed, resumed(opts))
        .map(|_| ())
        .expect_err("config change must refuse the resume");
    assert!(
        err.to_string().contains("fingerprint"),
        "diagnostic names the fingerprint mismatch: {err}"
    );
}

#[test]
fn every_written_snapshot_is_its_own_decode_reencode() {
    // The live study streams each snapshot from its dataset, and a
    // resume restores a dataset from it: decoding a snapshot, restoring
    // its dataset and writing a snapshot of that must give back exactly
    // the bytes on disk, and the run's reported snapshot bytes must be
    // the files' lengths. A budgeted, sharded world, so the SPILL
    // manifests and chunked resident suffixes are both exercised.
    let dir = TempDir::new("one-encoder");
    let mut cfg = chaos_config(42);
    cfg.shards = 2;
    cfg.memory_budget = Some(32 * 1024);
    cfg.spill_dir = Some(dir.0.join("spill"));
    let snaps = dir.0.join("snap");
    let days = cfg.monitoring_days;
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy {
            dir: snaps.clone(),
            every_days: 1,
        }),
        ..RunOptions::default()
    };
    let out = Run::new(cfg).unwrap().study(opts).unwrap();
    let artifacts = &out.artifacts;
    assert!(artifacts.dataset.spill_stats().spilled_segments > 0);
    let written = artifacts.checkpoints.snapshots_written;
    assert_eq!(written, days + 1);
    let mut spilled_refs = 0;
    let mut file_bytes = 0;
    // Newest first: a restore cuts the spill files back to its own
    // manifest, and every older manifest references a prefix of it.
    for day in (0..written).rev() {
        let bytes = std::fs::read(snapshot_path(&snaps, day)).unwrap();
        file_bytes += bytes.len() as u64;
        if day + 1 == written {
            assert_eq!(artifacts.checkpoints.last_bytes, bytes.len() as u64);
        }
        let snap = Snapshot::decode(&bytes).unwrap();
        let saved = &snap.dataset;
        spilled_refs += saved.offers_spill.segments.len() + saved.charts_spill.segments.len();
        // Unbudgeted, so the restore spills nothing again.
        let dataset = Dataset::new()
            .restored(snap.dataset)
            .unwrap_or_else(|e| panic!("day {day}: restore failed: {e}"));
        fn ledger(l: &[(String, u64)]) -> Vec<(&str, u64)> {
            l.iter().map(|(k, v)| (k.as_str(), *v)).collect()
        }
        let again = SnapshotRef {
            day: snap.day,
            seed: snap.seed,
            fingerprint: snap.fingerprint,
            sim_bytes: &snap.sim_bytes,
            crawler: snap.crawler,
            dataset: &dataset,
            chaos_counters: ledger(&snap.chaos_counters),
            wire_counters: ledger(&snap.wire_counters),
            aggregates: &snap.aggregates,
        };
        let reencoded = again
            .write_to(Cursor::new(Vec::new()))
            .unwrap()
            .into_inner();
        assert!(
            reencoded == bytes,
            "day {day}: decode + restore + encode changed the snapshot's bytes"
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

const KILL_DAY: u64 = 5;

/// One process life: build the world, run the honey study, then the
/// wild study with a snapshot every day into `dir/snap`.
fn budgeted_life(
    cfg: &WorldConfig,
    dir: &Path,
    resume: bool,
    crash: Option<CrashPlan>,
) -> Result<(), RunError> {
    let snaps = dir.join("snap");
    if resume {
        let scan = load_latest(&snaps).expect("checkpoint dir readable");
        let (snap, _) = scan.snapshot.expect("the first life left a snapshot");
        assert_eq!(snap.day, KILL_DAY - 1, "resumes the newest snapshot");
    }
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy {
            dir: snaps,
            every_days: 1,
        }),
        resume,
        crash,
        ..RunOptions::default()
    };
    let out = Run::new(cfg.clone())?.study(opts)?;
    assert!(
        out.artifacts.dataset.spill_stats().spilled_segments > 0,
        "the budget spills"
    );
    Ok(())
}

/// A budgeted, sharded run killed mid-study and resumed writes the
/// same later snapshots (their counter sections included) and the same
/// spill file as a run that was never killed, byte for byte.
///
/// A resume restores the spilled offer history under the run's memory
/// budget: the spilled segments stay on disk, and the resident suffix
/// closes into the same segments it held before the kill. If the
/// restore cached the spilled segments, or re-added the suffix before
/// the budget was set, the segment boundaries and spill points would
/// shift and every later snapshot and the spill file would differ.
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

    budgeted_life(&cfg, &dir.0, false, None).expect("uninterrupted run");
    let days = cfg.monitoring_days;
    let straight: Vec<Vec<u8>> = (0..=days)
        .map(|day| std::fs::read(snapshot_path(&snaps, day)).expect("snapshot written"))
        .collect();
    let straight_spill = std::fs::read(&spill_file).expect("spill file written");
    std::fs::remove_dir_all(&snaps).unwrap();
    std::fs::remove_dir_all(dir.0.join("spill")).unwrap();

    let kill = Some(CrashPlan { kill_day: KILL_DAY });
    let killed = budgeted_life(&cfg, &dir.0, false, kill);
    assert!(is_kill(&killed), "{killed:?}");
    budgeted_life(&cfg, &dir.0, true, None).expect("resumed run");

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
