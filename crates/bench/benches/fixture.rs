//! Shared fixture for the Criterion benches: one small world with both
//! studies run, built once per bench binary. Lives in `benches/` (not
//! the crate's lib) so the `iiscope-bench` library itself stays
//! dependency-light enough for `repro` to use its BENCH writer.

use iiscope_core::{Outcome, Run, RunOptions, WorldConfig};
use std::sync::OnceLock;

/// Builds (once) and returns the shared finished run.
pub fn fixture() -> &'static Outcome {
    static CELL: OnceLock<Outcome> = OnceLock::new();
    CELL.get_or_init(|| {
        let run = Run::new(WorldConfig::small(31_337)).expect("world build");
        run.study(RunOptions::default()).expect("studies")
    })
}
