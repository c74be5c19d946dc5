//! One module per table/figure of the paper.
//!
//! Every experiment consumes only what the measurement pipeline could
//! see — the milked [`iiscope_monitor::Dataset`], crawled profiles and
//! charts, downloaded APKs, honey-app telemetry, and the Crunchbase
//! snapshot — and returns a typed result plus a printable rendering.
//! `EXPERIMENTS.md` is generated from these renderings.

pub mod common;
pub mod detector_eval;
pub mod disclosure;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod monetization;
pub mod section3;
pub mod section5;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;

use crate::wildsim::fan_out;
use crate::{HoneyStudy, WildArtifacts, World};

pub use detector_eval::DetectorEval;
pub use disclosure::Disclosure;
pub use figure4::Figure4;
pub use figure5::Figure5;
pub use figure6::Figure6;
pub use monetization::Monetization;
pub use section3::Section3;
pub use section5::Section5;
pub use table1::Table1;
pub use table2::Table2;
pub use table3::Table3;
pub use table4::Table4;
pub use table5::Table5;
pub use table6::Table6;
pub use table7::Table7;
pub use table8::Table8;

/// Wall-clock timing of one experiment within a report run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTiming {
    /// Experiment label (e.g. `"Table 5"`).
    pub label: &'static str,
    /// Seconds spent computing and rendering it.
    pub seconds: f64,
}

/// The batch report: every experiment re-scans the dataset. It is the
/// parity oracle for [`full_report_incremental`] — `tests/aggregates.rs`
/// holds the two byte-identical — and returns per-experiment wall-clock
/// timings alongside the text.
///
/// Experiments are independent reads of the world and artifacts — the
/// one writer-shaped step, Table 2's live milking run, captures its
/// intercepts through the per-thread log tap — so at
/// `world.cfg.parallelism > 1` they run concurrently on scoped
/// threads. Sections are joined in fixed report order either way; the
/// report text is identical at every parallelism level.
pub fn full_report_timed(
    world: &World,
    artifacts: &WildArtifacts,
    honey: HoneyStudy,
) -> (String, Vec<ExperimentTiming>) {
    report_timed(world, artifacts, honey, false)
}

/// Runs every experiment and renders the full report — the content of
/// `EXPERIMENTS.md`'s measured side, and what `repro` prints.
///
/// The hot tables (4–8, figures 5/6, monetization) render from the
/// streaming aggregates folded during the wild study instead of
/// re-scanning the full dataset. The output is byte-identical to
/// [`full_report_timed`]'s batch report, the parity oracle
/// `tests/aggregates.rs` enforces.
pub fn full_report_incremental(
    world: &World,
    artifacts: &WildArtifacts,
    honey: HoneyStudy,
) -> String {
    full_report_incremental_timed(world, artifacts, honey).0
}

/// [`full_report_incremental`] plus per-experiment wall-clock timings
/// (`repro --timing` prints them and dumps `BENCH_repro.json`).
pub fn full_report_incremental_timed(
    world: &World,
    artifacts: &WildArtifacts,
    honey: HoneyStudy,
) -> (String, Vec<ExperimentTiming>) {
    assert!(
        artifacts.aggregates.covers(&artifacts.dataset),
        "incremental report requires aggregates folded over the full dataset \
         (did these artifacts come from run_wild_study?)"
    );
    report_timed(world, artifacts, honey, true)
}

fn report_timed(
    world: &World,
    artifacts: &WildArtifacts,
    honey: HoneyStudy,
    incremental: bool,
) -> (String, Vec<ExperimentTiming>) {
    type Section<'a> = (&'static str, Box<dyn Fn() -> String + Send + Sync + 'a>);
    let sections: Vec<Section> = vec![
        (
            "Section 3",
            Box::new(move || Section3::run(world, honey.clone()).render()),
        ),
        ("Table 1", Box::new(|| Table1::run(world).render())),
        (
            "Table 2",
            Box::new(|| {
                Table2::run(world, world.cfg.milk_countries[0])
                    .map(|t| t.render())
                    .unwrap_or_else(|e| format!("Table 2 failed: {e}"))
            }),
        ),
        (
            "Table 3",
            Box::new(|| Table3::run(world, artifacts).render()),
        ),
        (
            "Table 4",
            Box::new(move || {
                if incremental {
                    Table4::run_incremental(artifacts).render()
                } else {
                    Table4::run(world, artifacts).render()
                }
            }),
        ),
        (
            "Table 5",
            Box::new(move || {
                if incremental {
                    Table5::run_incremental(world, artifacts).render()
                } else {
                    Table5::run(world, artifacts).render()
                }
            }),
        ),
        (
            "Table 6",
            Box::new(move || {
                if incremental {
                    Table6::run_incremental(world, artifacts).render()
                } else {
                    Table6::run(world, artifacts).render()
                }
            }),
        ),
        (
            "Table 7",
            Box::new(move || {
                if incremental {
                    Table7::run_incremental(world, artifacts).render()
                } else {
                    Table7::run(world, artifacts).render()
                }
            }),
        ),
        (
            "Table 8",
            Box::new(move || {
                if incremental {
                    Table8::run_incremental(world, artifacts).render()
                } else {
                    Table8::run(world, artifacts).render()
                }
            }),
        ),
        (
            "Figure 4",
            Box::new(|| Figure4::run(world, artifacts).render()),
        ),
        (
            "Figure 5",
            Box::new(move || {
                if incremental {
                    Figure5::run_incremental(artifacts).render()
                } else {
                    Figure5::run(world, artifacts).render()
                }
            }),
        ),
        (
            "Figure 6",
            Box::new(move || {
                if incremental {
                    Figure6::run_incremental(world, artifacts).render()
                } else {
                    Figure6::run(world, artifacts).render()
                }
            }),
        ),
        (
            "Monetization",
            Box::new(move || {
                if incremental {
                    Monetization::run_incremental(world, artifacts).render()
                } else {
                    Monetization::run(world, artifacts).render()
                }
            }),
        ),
        (
            "Disclosure",
            Box::new(|| Disclosure::run(world, artifacts).render()),
        ),
        (
            "Detector",
            Box::new(|| {
                DetectorEval::run(world, artifacts)
                    .map(|d| d.render())
                    .unwrap_or_else(|| "Detector: degenerate classes".to_string())
            }),
        ),
        (
            "Section 5",
            Box::new(|| Section5::run(world, artifacts).render()),
        ),
    ];

    let rendered = fan_out(world.cfg.parallelism, sections.len(), |j| {
        let t = std::time::Instant::now();
        let s = (sections[j].1)();
        (s, t.elapsed().as_secs_f64())
    });

    let mut out = String::new();
    let mut timings = Vec::with_capacity(sections.len());
    for ((label, _), slot) in sections.iter().zip(rendered) {
        // A panicking section degrades to an inline failure note
        // instead of killing the whole report: the other experiments
        // still render, and healthy runs are byte-identical.
        let (s, seconds) = match slot {
            Ok(pair) => pair,
            Err(e) => (format!("[{label}] FAILED: {e}"), 0.0),
        };
        if seconds > 0.5 {
            eprintln!("[{label}] computed in {seconds:.1}s");
        }
        out.push_str(&s);
        out.push('\n');
        timings.push(ExperimentTiming { label, seconds });
    }
    (out, timings)
}
