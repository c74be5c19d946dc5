//! Heap cost of the dataset's row views.
//!
//! A counting global allocator, scoped to the measuring thread, checks
//! two costs of reading and keeping the spillable logs:
//!
//! - Iterating an offer log whose segments have spilled decodes each
//!   reloaded segment once into compact rows and yields views of them,
//!   so allocations grow with reloaded segments, never with rows. Owned
//!   rows cost at least four allocations (their heap strings) per row.
//! - A chart crawl keeps each entry as a package symbol and a rank, so a
//!   resident chart log costs about 8 heap bytes per entry. Owned rows
//!   keep a `(String, usize)` and the name's bytes, about 50.

use iiscope::subsystems::monitor::{ChartSnapshot, Dataset, RawOffer, RewardValue, ScrapedOffer};
use iiscope::subsystems::playstore::ChartKind;
use iiscope::subsystems::types::{Country, IipId, SimTime};
use iiscope_bench::alloc::{counted, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("iiscope-view-{tag}-{}", std::process::id()))
}

fn package(p: usize) -> String {
    format!("com.vendor{}.app{p}", p % 37)
}

/// Observation `n` of a milk-shaped stream over 500 packages.
fn offer(n: usize) -> ScrapedOffer {
    let p = (n * 7_919) % 500;
    let package = package(p);
    ScrapedOffer {
        iip: IipId::ALL[p % IipId::ALL.len()],
        raw: RawOffer {
            offer_key: (p * 4 + n % 4) as u64,
            description: format!("Install {package} and reach level {}", n % 5),
            reward: RewardValue::Points((n % 900) as i64),
            store_url: format!("https://play.iiscope/store/apps/details?id={package}"),
            package,
        },
        seen_at: SimTime::from_days((n / 1_000) as u64),
        affiliate: format!("com.rewards.cashapp{}", n / 50 % 12),
        vantage: Country::ALL[n / 50 % 4],
    }
}

const OFFER_ROWS: usize = 20_000;

#[test]
fn iterating_a_spilled_offer_log_allocates_per_segment_not_per_row() {
    let dir = spill_dir("offers");
    let mut ds = Dataset::new();
    ds.set_memory_budget(Some(4096), &dir, "views");
    ds.add_offers((0..OFFER_ROWS).map(offer));
    let spilled = ds.spill_stats().spilled_segments;
    let before = ds.spill_stats().reloads;
    let (rows, allocs, _) = counted(|| {
        let mut rows = 0;
        for _ in 0..2 {
            for o in ds.offers() {
                std::hint::black_box(o);
                rows += 1;
            }
        }
        rows
    });
    let reloads = ds.spill_stats().reloads - before;
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(rows, 2 * OFFER_ROWS);
    assert!(
        spilled > 100 && reloads >= 2 * spilled,
        "most segments must reload: {reloads} reloads of {spilled} spilled segments"
    );
    let per_reload = allocs as f64 / reloads as f64;
    let per_row = allocs as f64 / rows as f64;
    eprintln!(
        "offer views: {allocs} allocations over {reloads} reloads and {rows} rows \
         ({per_reload:.2} per reload, {per_row:.3} per row)"
    );
    assert!(
        allocs <= 8 * reloads as usize,
        "{allocs} allocations for {reloads} reloaded segments ({per_row:.3} per row)"
    );
}

const CHARTS: usize = 300;
const CHART_ENTRIES: usize = 200;

#[test]
fn a_resident_chart_entry_costs_about_a_symbol_and_a_rank() {
    let charts: Vec<ChartSnapshot> = (0..CHARTS)
        .map(|i| ChartSnapshot {
            day: (i / ChartKind::ALL.len()) as u64,
            chart: ChartKind::ALL[i % ChartKind::ALL.len()].id(),
            entries: (0..CHART_ENTRIES)
                .map(|r| (package((i * 13 + r * 7) % 500), r + 1))
                .collect(),
        })
        .collect();
    // The same crawls into a resident dataset and one whose chart rows
    // all spill: every index and table is the same in both, so the
    // difference in live heap is what the resident rows keep.
    let dir = spill_dir("charts");
    let ingest = |budget: Option<u64>| {
        counted(|| {
            let mut ds = Dataset::new();
            if budget.is_some() {
                ds.set_memory_budget(budget, &dir, "views");
            }
            for c in &charts {
                ds.add_chart(c.clone());
            }
            ds
        })
    };
    let (resident, _, resident_live) = ingest(None);
    let (spilled, _, spilled_live) = ingest(Some(8192));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(spilled.spill_stats().spilled_rows, CHARTS as u64);
    assert_eq!(resident.spill_stats().spilled_rows, 0);
    let entries = CHARTS * CHART_ENTRIES;
    let per_entry = (resident_live - spilled_live) as f64 / entries as f64;
    eprintln!("chart log: {per_entry:.1} resident heap bytes per entry");
    assert!(
        per_entry <= 16.0,
        "resident chart rows keep {per_entry:.1} heap bytes per entry (limit 16)"
    );
}
