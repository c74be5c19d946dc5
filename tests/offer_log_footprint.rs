//! Live-heap footprint of the dataset's offer log.
//!
//! A counting global allocator measures how much the heap grows while
//! ~100k synthetic observations of ~500 packages are ingested in
//! milk-sized batches. Interned fixed-size rows must keep that growth
//! within 96 bytes per observation; owned rows with four heap strings
//! each cost about 300.

use iiscope::subsystems::monitor::{Dataset, RawOffer, RewardValue, ScrapedOffer};
use iiscope::subsystems::types::{Country, IipId, SimTime};
use iiscope_bench::alloc::{self, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 100_000;
const PACKAGES: usize = 500;
/// Observations per milk run: one affiliate, one vantage point.
const BATCH: usize = 50;

/// Milk run `b`: `BATCH` observations spread over the package space,
/// four offer keys and five descriptions per package.
fn milk_batch(b: usize) -> Vec<ScrapedOffer> {
    let affiliate = format!("com.rewards.cashapp{}", b % 12);
    let vantage = Country::ALL[b % 4];
    (0..BATCH)
        .map(|i| {
            let n = b * BATCH + i;
            let p = (n * 7_919) % PACKAGES;
            let package = format!("com.vendor{}.app{p}", p % 37);
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
                affiliate: affiliate.clone(),
                vantage,
            }
        })
        .collect()
}

#[test]
fn offer_log_heap_growth_stays_within_96_bytes_per_observation() {
    let before = alloc::live();
    let mut ds = Dataset::new();
    for b in 0..ROWS / BATCH {
        ds.add_offers(milk_batch(b));
    }
    let grown = alloc::live() - before;
    assert_eq!(ds.offers().len(), ROWS);
    assert_eq!(ds.advertised_packages().len(), PACKAGES);
    let per_row = grown as f64 / ROWS as f64;
    eprintln!("offer log: {per_row:.1} live-heap bytes per observation");
    assert!(
        per_row <= 96.0,
        "offer log grew the heap by {per_row:.1} B per observation (limit 96)"
    );
}
