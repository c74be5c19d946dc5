//! Incremental-aggregates parity: the streaming report is
//! byte-identical to the batch oracle at every run shape.
//!
//! The batch report (`full_report_timed`, the oracle) re-scans the
//! dataset per table; the incremental report (`full_report_incremental`,
//! what `repro` prints) renders the hot tables from the per-day
//! aggregate digest folded during the wild study. The contract swept
//! here:
//!
//! - {1, 8} workers × {1, 4} shards × {unbounded, 64 KiB} memory
//!   budget: the two reports are the same bytes;
//! - a run killed mid-study and resumed from its snapshot (aggregates
//!   ride snapshot section v3) still renders the same incremental
//!   bytes as a straight-through batch run;
//! - under a tight budget, the incremental render forces fewer spill
//!   reloads than the batch render — the perf claim, pinned in-suite
//!   at a reduced scale.

mod common;

use common::TempDir;
use iiscope::chaos::{chaos_config, CrashPlan};
use iiscope::checkpoint::load_latest;
use iiscope::experiments;
use iiscope::wildsim::CheckpointPolicy;
use iiscope::{Outcome, Run, RunError, RunOptions, WorldConfig};

/// Runs both studies on `cfg` as `opts` asks.
fn study(cfg: WorldConfig, opts: RunOptions) -> Result<Outcome, RunError> {
    Run::new(cfg)?.study(opts)
}

/// The batch oracle's report text.
fn batch_report(out: &Outcome) -> String {
    experiments::full_report_timed(out.world(), &out.artifacts, out.honey.clone()).0
}

#[test]
fn incremental_report_matches_batch_at_every_run_shape() {
    for parallelism in [1, 8] {
        for shards in [1, 4] {
            for budget in [None, Some(64 * 1024)] {
                let tag = format!(
                    "p{parallelism}-s{shards}-{}",
                    if budget.is_some() { "64k" } else { "mem" }
                );
                let mut cfg = chaos_config(9_590);
                cfg.parallelism = parallelism;
                cfg.shards = shards;
                cfg.memory_budget = budget;
                let dir = TempDir::new(&tag);
                if budget.is_some() {
                    cfg.spill_dir = Some(dir.0.clone());
                }
                let out = study(cfg, RunOptions::default()).expect("studies");
                let artifacts = &out.artifacts;
                assert!(
                    artifacts.aggregates.covers(&artifacts.dataset),
                    "{tag}: wild-study aggregates must cover the final dataset"
                );
                let batch = batch_report(&out);
                let incremental = out.report();
                assert_eq!(
                    incremental, batch,
                    "{tag}: incremental report differs from the batch oracle"
                );
            }
        }
    }
}

#[test]
fn incremental_report_survives_kill_and_resume() {
    // Straight-through batch baseline.
    let cfg = chaos_config(10_600);
    let straight_batch = batch_report(&study(cfg.clone(), RunOptions::default()).unwrap());

    // First life: checkpoint every crawl, die at day 5 (a snapshot
    // exists at day 4, mid-run with offers already folded).
    let dir = TempDir::new("kill-resume");
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy {
            dir: dir.0.clone(),
            every_days: cfg.crawl_cadence_days,
        }),
        crash: Some(CrashPlan { kill_day: 5 }),
        ..RunOptions::default()
    };
    let crashed = study(cfg.clone(), opts.clone());
    assert!(
        matches!(
            crashed,
            Err(RunError::Study(
                _,
                iiscope::subsystems::types::Error::Interrupted(_)
            ))
        ),
        "kill-point must surface as Error::Interrupted"
    );

    // Second life: the snapshot's AGGS section restores the digest,
    // and the remaining days keep folding on top of it.
    let scan = load_latest(&dir.0).expect("scan checkpoint dir");
    let (snap, _) = scan.snapshot.expect("a valid snapshot exists");
    assert_eq!(snap.day, 4, "newest snapshot is the day-4 one");
    let resume = RunOptions {
        resume: true,
        crash: None,
        ..opts
    };
    let out = study(cfg, resume).expect("resume");
    let artifacts = &out.artifacts;
    assert_eq!(artifacts.checkpoints.resumed_from_day, Some(4));
    assert!(artifacts.aggregates.covers(&artifacts.dataset));
    assert_eq!(
        out.report(),
        straight_batch,
        "kill-and-resume incremental report is not byte-identical to straight batch"
    );
}

#[test]
fn incremental_render_reloads_fewer_spilled_segments() {
    // Two identical budgeted worlds, one rendered each way, so the
    // reload counters are not contaminated by the other pass. The
    // batch Figure 5 alone re-scans the chart log once per chart day;
    // the incremental render answers those lookups from the digest's
    // chart-size map without touching cold segments.
    let reloads_after = |tag: &str, incremental: bool| {
        let dir = TempDir::new(tag);
        // The chaos preset's chart log is too small to ever close a
        // segment, so crawl daily for longer under a tight budget —
        // that spills most of the chart history, which the batch
        // Figure 5 then has to decode back.
        let mut cfg = chaos_config(11_710);
        cfg.monitoring_days = 24;
        cfg.crawl_cadence_days = 1;
        cfg.advertised_apps = 25;
        cfg.baseline_apps = 10;
        cfg.memory_budget = Some(4 * 1024);
        cfg.spill_dir = Some(dir.0.clone());
        let out = study(cfg, RunOptions::default()).expect("studies");
        let stats0 = out.artifacts.dataset.spill_stats();
        assert!(
            stats0.spilled_segments > 0,
            "a 4 KiB budget must actually spill"
        );
        let report = if incremental {
            out.report()
        } else {
            batch_report(&out)
        };
        assert!(!report.is_empty());
        out.artifacts.dataset.spill_stats().reloads - stats0.reloads
    };
    let batch = reloads_after("reload-batch", false);
    let incremental = reloads_after("reload-incr", true);
    assert!(
        incremental < batch,
        "incremental render must reload fewer segments than batch ({incremental} vs {batch})"
    );
}
