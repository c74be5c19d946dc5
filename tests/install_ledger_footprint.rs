//! Live-heap footprint of the Play Store's install ledger.
//!
//! A counting global allocator measures how much the heap grows while
//! about a million install events land in a few ledgers: mostly one-off
//! /24s, as campaign traffic from real phones is, plus device-farm
//! bursts that pile onto a handful of blocks. Packed 16-byte rows in
//! fixed chunks and the split per-/24 counts must keep that growth
//! within 32 bytes per install; 24-byte events in a doubling `Vec` plus
//! a `HashMap<u32, u32>` entry per block need at least 34. Ledgers that
//! seal their full chunks to disk keep only the open chunks and the
//! counts: within 16 bytes per install.

use iiscope::subsystems::playstore::engagement::{EngagementLedger, InstallSignals};
use iiscope::subsystems::types::spillfile::SpillFile;
use iiscope::subsystems::types::{SeedFork, SimTime};
use iiscope_bench::alloc::{self, Counting};
use rand::Rng;
use std::sync::{Arc, Mutex};

#[global_allocator]
static GLOBAL: Counting = Counting;

const LEDGERS: usize = 4;
const INSTALLS_PER_LEDGER: usize = 250_000;
/// One install in this many comes from a device farm.
const FARM_ONE_IN: u32 = 8;
/// /24 blocks each ledger's farms install from.
const FARM_BLOCKS: u32 = 64;
const TAGS: [&str; 4] = ["", "fyber-c1", "rankapp-c2", "adgem-c3"];

/// The tests share the live-byte counter, so they take turns.
static TURN: Mutex<()> = Mutex::new(());

/// Records the million installs into `ledgers` and checks the heap
/// grew by at most `limit` bytes per install, all but day buckets and
/// tag names accounted by `install_heap_bytes`.
fn fill_and_measure(mut ledgers: Vec<EngagementLedger>, before: isize, limit: f64) {
    let mut rng = SeedFork::new(23).rng();
    for (l, ledger) in ledgers.iter_mut().enumerate() {
        for i in 0..INSTALLS_PER_LEDGER {
            let farm = rng.gen_range(0..FARM_ONE_IN) == 0;
            let signals = if farm {
                InstallSignals {
                    emulator: rng.gen(),
                    rooted: true,
                    datacenter_asn: rng.gen_range(0..4) == 0,
                    block24: 0x0A00_0000 | (l as u32) << 16 | rng.gen_range(0..FARM_BLOCKS) << 8,
                }
            } else {
                InstallSignals::clean(rng.gen::<u32>() & 0xFFFF_FF00)
            };
            let at = SimTime::from_secs((i as u64 * 92 * 86_400) / INSTALLS_PER_LEDGER as u64);
            ledger.record_install(at, signals, TAGS[rng.gen_range(0..TAGS.len())]);
        }
    }
    let grown = alloc::live() - before;

    let installs = (LEDGERS * INSTALLS_PER_LEDGER) as u64;
    let events: u64 = ledgers.iter().map(|l| l.event_installs()).sum();
    assert_eq!(events, installs);
    for l in &ledgers {
        assert_eq!(l.install_events().len() as u64, l.event_installs());
        assert!(l.shared_blocks().count() >= FARM_BLOCKS as usize);
    }
    let per_install = grown as f64 / installs as f64;
    eprintln!("install ledger: {per_install:.1} live-heap bytes per install");
    assert!(
        per_install <= limit,
        "install ledger grew the heap by {per_install:.1} B per install (limit {limit})"
    );

    // `install_heap_bytes` is what `BENCH_scale.json` reports; it must
    // account for the rows and block counts the allocator saw (the rest
    // is day buckets and tag names).
    let accounted: usize = ledgers.iter().map(|l| l.install_heap_bytes()).sum();
    let ratio = accounted as f64 / grown as f64;
    eprintln!("install_heap_bytes: {accounted} of {grown} live bytes ({ratio:.3})");
    assert!(
        (0.9..=1.05).contains(&ratio),
        "install_heap_bytes accounts {accounted} B of {grown} B grown"
    );
}

#[test]
fn install_ledger_heap_growth_stays_within_32_bytes_per_install() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let before = alloc::live();
    let ledgers = (0..LEDGERS).map(|_| EngagementLedger::new()).collect();
    fill_and_measure(ledgers, before, 32.0);
}

#[test]
fn sealing_ledger_heap_growth_stays_within_16_bytes_per_install() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("iiscope-ledger-footprint-{}", std::process::id()));
    let file = Arc::new(SpillFile::scratch(&dir, "footprint"));
    let before = alloc::live();
    let ledgers = (0..LEDGERS)
        .map(|_| {
            let mut l = EngagementLedger::new();
            l.seal_into(&file);
            l
        })
        .collect();
    fill_and_measure(ledgers, before, 16.0);
    assert!(file.error().is_none(), "{:?}", file.error());
    let _ = std::fs::remove_dir_all(&dir);
}
