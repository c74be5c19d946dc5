//! Helpers shared by the integration-test binaries. Each binary that
//! declares `mod common;` compiles its own copy and uses a subset.

#![allow(dead_code)]

use iiscope::subsystems::monitor::export::{
    write_charts_csv, write_offers_csv, write_profiles_csv,
};
use iiscope::subsystems::monitor::Dataset;
use iiscope::WorldConfig;
use std::path::PathBuf;

/// A reduced small world: every mechanism exercised (two crawl days,
/// campaign delivery, enforcement, charts), minutes → seconds.
pub fn reduced(seed: u64, parallelism: usize) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.monitoring_days = 8;
    cfg.crawl_cadence_days = 4;
    cfg.advertised_apps = 25;
    cfg.baseline_apps = 10;
    cfg.honey_purchase = 60;
    cfg.parallelism = parallelism;
    cfg
}

/// The dataset's offers, profiles and charts CSVs, rendered in memory.
pub fn csvs(ds: &Dataset) -> [String; 3] {
    let render = |write: fn(&Dataset, &mut Vec<u8>) -> std::io::Result<usize>| {
        let mut out = Vec::new();
        write(ds, &mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("CSV fields are UTF-8")
    };
    [
        render(write_offers_csv),
        render(write_profiles_csv),
        render(write_charts_csv),
    ]
}

/// A unique, self-cleaning scratch directory per test case.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "iiscope-test-{tag}-{}-{:?}",
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
