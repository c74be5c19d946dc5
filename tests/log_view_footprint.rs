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
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// One thread's allocation books.
struct Books {
    /// Whether this thread's allocations count.
    on: Cell<bool>,
    /// Allocations (reallocations included) while counting.
    allocs: Cell<usize>,
    /// Net bytes allocated while counting.
    live: Cell<isize>,
}

thread_local! {
    static BOOKS: Books = const {
        Books {
            on: Cell::new(false),
            allocs: Cell::new(0),
            live: Cell::new(0),
        }
    };
}

/// Books `bytes` (and an allocation, if `alloc`) to this thread if it
/// is counting. Other threads' allocations, such as a concurrently
/// running test's, never reach these books.
fn book(alloc: bool, bytes: isize) {
    let _ = BOOKS.try_with(|b| {
        if b.on.get() {
            b.allocs.set(b.allocs.get() + usize::from(alloc));
            b.live.set(b.live.get() + bytes);
        }
    });
}

/// The system allocator, booking allocations and live bytes to the
/// threads that count.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the books only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            book(true, layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            book(true, layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        book(false, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            book(true, new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with this thread's allocations counted; returns its result,
/// the allocations it made and the live bytes it left behind.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    BOOKS.with(|b| {
        b.allocs.set(0);
        b.live.set(0);
        b.on.set(true);
    });
    let out = f();
    BOOKS.with(|b| {
        b.on.set(false);
        (out, b.allocs.get(), b.live.get())
    })
}

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
