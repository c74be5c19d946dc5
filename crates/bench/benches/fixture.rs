//! Shared fixture for the Criterion benches: one small world with both
//! studies run, built once per bench binary. Lives in `benches/` (not
//! the crate's lib) so the `iiscope-bench` library itself stays
//! dependency-light enough for `repro` to use its BENCH writer.
#![allow(dead_code)] // not every bench binary touches every field

use iiscope_core::{HoneyStudy, WildArtifacts, World, WorldConfig};
use std::sync::OnceLock;

/// A fully-run world shared by the table/figure benches.
pub struct Fixture {
    /// The world.
    pub world: World,
    /// §4 artifacts.
    pub artifacts: WildArtifacts,
    /// §3 study results.
    pub honey: HoneyStudy,
}

/// Builds (once) and returns the shared fixture.
pub fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let world = World::build(WorldConfig::small(31_337)).expect("world build");
        let honey = world
            .run_honey_study(world.study_start())
            .expect("honey study");
        let artifacts = world.run_wild_study().expect("wild study");
        Fixture {
            world,
            artifacts,
            honey,
        }
    })
}
