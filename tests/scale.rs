//! The million-device-world contracts: sharded day loop and
//! out-of-core dataset.
//!
//! Three knobs select the run's *shape* without touching its *data*:
//!
//! - `parallelism` — at any fixed shard count, 1 worker and 8 workers
//!   produce the same bytes (op buffers merge in shard-index order);
//! - `memory_budget` — a dataset forced to spill almost everything is
//!   byte-identical to a fully-resident run (report and CSVs);
//! - both at once — spilling under the parallel path changes nothing.
//!
//! `scale` and `shards` are *world identity* knobs (they select which
//! RNG streams drive delivery), so runs at different values legally
//! differ — but each such world must itself be deterministic and
//! worker-invariant, which the sharded smoke pins.

mod common;

use common::reduced;
use iiscope::chaos::{chaos_config, run_chaos, CrashPlan};
use iiscope::subsystems::types::Error;
use iiscope::wildsim::CheckpointPolicy;
use iiscope::{Run, RunError, RunOptions, WorldConfig};

struct RunOut {
    report: String,
    csv: [String; 3],
    tagged_installs: u64,
    spilled_segments: u64,
    reloads: u64,
    sealed_chunks: u64,
}

fn run(cfg: WorldConfig) -> RunOut {
    let run = Run::new(cfg).expect("build");
    let out = run.study(RunOptions::default()).expect("studies");
    let report = out.report();
    let csv = common::csvs(&out.artifacts.dataset);
    // Sampled after the report + export walked the full history, so
    // `reloads` counts the decodes those reads forced.
    let stats = out.artifacts.dataset.spill_stats();
    RunOut {
        report,
        csv,
        tagged_installs: out.artifacts.tagged_installs,
        spilled_segments: stats.spilled_segments,
        reloads: stats.reloads,
        sealed_chunks: out.world().store.install_ledger_footprint().spilled_chunks,
    }
}

#[test]
fn tiny_memory_budget_changes_no_bytes_at_any_worker_count() {
    let resident = run(reduced(5_150, 1));
    assert_eq!(resident.spilled_segments, 0, "no budget, no spilling");
    assert_eq!(resident.sealed_chunks, 0, "no budget, no sealing");

    for parallelism in [1, 8] {
        let dir = std::env::temp_dir().join(format!("iiscope-scale-test-{parallelism}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = reduced(5_150, parallelism);
        // Small enough that nearly every closed segment is evicted.
        cfg.memory_budget = Some(32 * 1024);
        cfg.spill_dir = Some(dir.clone());
        let spilled = run(cfg);
        assert!(
            spilled.spilled_segments > 0,
            "a 32 KiB budget must actually spill ({parallelism} workers)"
        );
        assert_eq!(
            resident.report, spilled.report,
            "report must be byte-identical under spilling ({parallelism} workers)"
        );
        assert_eq!(
            resident.csv, spilled.csv,
            "CSV export must be byte-identical under spilling ({parallelism} workers)"
        );
        // The CSV export walks the full offer/chart history, so cold
        // segments were demonstrably decoded back.
        assert!(
            spilled.reloads > 0,
            "exporting a spilled dataset must reload segments"
        );
        // The install ledger sealed its rows too, into a file unlinked
        // as soon as it was open: only the dataset's files remain.
        assert!(spilled.sealed_chunks > 0, "the install ledger must seal");
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .expect("spill dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["iiscope-5150-charts.spill", "iiscope-5150-offers.spill"][2 - left.len()..],
            "the spill dir holds only the dataset's files"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn scaled_sharded_world_is_worker_invariant_and_scales_delivery() {
    let baseline = run(reduced(6_260, 1));

    let scaled = |parallelism: usize| {
        let mut cfg = reduced(6_260, parallelism);
        cfg.scale = 3;
        cfg.shards = 4;
        cfg
    };
    let seq = run(scaled(1));
    let par = run(scaled(8));
    assert_eq!(
        seq.report, par.report,
        "scaled+sharded report must not depend on worker count"
    );
    assert_eq!(
        seq.csv, par.csv,
        "scaled+sharded CSVs must not depend on worker count"
    );
    // 3x the campaign caps must deliver roughly 3x the tagged installs
    // (carry/rounding and caps make it inexact; 2x is a safe floor).
    assert!(
        seq.tagged_installs > baseline.tagged_installs * 2,
        "3x scale delivered {} vs baseline {}",
        seq.tagged_installs,
        baseline.tagged_installs
    );
}

#[test]
fn crash_resume_under_memory_budget_stays_byte_identical() {
    // Snapshot v2 references spilled segments (manifest + resident
    // suffix) instead of re-serializing the history. Kill a budgeted,
    // sharded run mid-study, resume it from the snapshot — which must
    // re-attach the spill file, CRC-validate every referenced segment
    // and keep appending to it — and require the same bytes a
    // straight-through run produces.
    let base = std::env::temp_dir().join(format!("iiscope-scale-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg_with = |spill: &str| {
        let mut cfg = chaos_config(8_480);
        cfg.shards = 3;
        cfg.memory_budget = Some(32 * 1024);
        cfg.spill_dir = Some(base.join(spill));
        cfg
    };
    let straight = run_chaos(cfg_with("straight"), RunOptions::default())
        .expect("straight run")
        .digest;
    let crashed = cfg_with("crashed");
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy {
            dir: base.join("ckpt"),
            every_days: crashed.crawl_cadence_days,
        }),
        crash: Some(CrashPlan { kill_day: 5 }),
        ..RunOptions::default()
    };
    let killed = run_chaos(crashed.clone(), opts.clone()).map(|_| ());
    assert!(
        matches!(killed, Err(RunError::Study(_, Error::Interrupted(_)))),
        "{killed:?}"
    );
    let opts = RunOptions {
        resume: true,
        crash: None,
        ..opts
    };
    let resumed = run_chaos(crashed, opts).expect("crash + resume").digest;
    assert_eq!(
        resumed, straight,
        "budgeted crash-and-resume is not byte-identical to straight-through"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn shard_count_one_is_bit_identical_to_the_legacy_loop() {
    // shards = 1 is not a special case in the code anymore — the op
    // buffer path runs unconditionally — so this pins that the
    // restructure itself changed no bytes vs. the committed behaviour
    // (the determinism suite's oracle covers paper scale; this covers
    // the reduced world in tier-1).
    let a = run(reduced(7_370, 1));
    let mut cfg = reduced(7_370, 8);
    cfg.shards = 1;
    let b = run(cfg);
    assert_eq!(a.report, b.report);
    assert_eq!(a.csv, b.csv);
}

#[test]
fn a_failed_spill_write_ends_the_study_with_an_error_not_a_panic() {
    // The spill directory sits under a regular file, so creating it
    // fails even as root. The study must return the I/O error, naming
    // the spill file, instead of panicking inside the dataset.
    let blocker =
        std::env::temp_dir().join(format!("iiscope-spill-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("create blocker file");
    let mut cfg = reduced(5_150, 1);
    cfg.memory_budget = Some(32 * 1024);
    cfg.spill_dir = Some(blocker.join("spill"));
    let err = Run::new(cfg)
        .expect("build")
        .study(RunOptions::default())
        .map(|_| ())
        .expect_err("an unwritable spill dir must fail the study");
    let _ = std::fs::remove_file(&blocker);
    match err {
        RunError::Study("wild study", Error::InvalidState(msg)) => {
            let want = format!("spill to {}", blocker.join("spill").display());
            assert!(msg.starts_with(&want), "{msg}");
        }
        other => panic!("expected InvalidState, got {other}"),
    }
}

#[test]
fn a_failed_install_ledger_seal_ends_the_study_at_a_day_boundary() {
    // A budget the dataset never reaches, so only the install ledger
    // writes to the spill dir, which sits under a regular file. The
    // study must end with the ledger file's error, not a panic.
    let blocker = std::env::temp_dir().join(format!("iiscope-seal-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("create blocker file");
    let mut cfg = reduced(5_150, 1);
    cfg.memory_budget = Some(1 << 30);
    cfg.spill_dir = Some(blocker.join("spill"));
    let err = Run::new(cfg)
        .expect("build")
        .study(RunOptions::default())
        .map(|_| ())
        .expect_err("an unwritable spill dir must fail the study");
    let _ = std::fs::remove_file(&blocker);
    match err {
        RunError::Study("wild study", Error::InvalidState(msg)) => {
            let want = format!(
                "install ledger spill to {}",
                blocker
                    .join("spill")
                    .join("iiscope-5150-installs-")
                    .display()
            );
            assert!(msg.starts_with(&want), "{msg}");
            assert!(!msg.contains('\n'), "one line: {msg}");
        }
        other => panic!("expected InvalidState, got {other}"),
    }
}
