//! Live-heap footprint of the dataset's profile log.
//!
//! A counting global allocator measures how much the heap grows while
//! 2,000 apps are crawled on 20 crawl days, the way the study crawls:
//! every app once per crawl day, each app's title, genre and developer
//! strings repeating on every crawl. Interned fixed-size rows must keep
//! that growth within 96 bytes per crawled profile (it measures 88.4); a
//! growing `Vec` of owned snapshots with seven heap strings each costs
//! about 490. The dataset's own account of the log
//! (`profile_log_bytes`) must match the growth to within 10%.

use iiscope::subsystems::monitor::{Dataset, ProfileSnapshot};
use iiscope::subsystems::types::Interner;
use iiscope_bench::alloc::{self, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

const APPS: usize = 2_000;
const CRAWLS: u64 = 20;
/// Days between crawls (the paper's "every other day").
const CADENCE: u64 = 2;

const GENRES: [&str; 6] = [
    "TOOLS",
    "GAME_CASUAL",
    "FINANCE",
    "SHOPPING",
    "SOCIAL",
    "MUSIC",
];
const COUNTRIES: [&str; 5] = ["US", "DE", "IN", "CN", "BR"];

fn package(app: usize) -> String {
    format!(
        "com.wild{app}.app{}",
        ["fyber", "adgem", "rankapp"][app % 3]
    )
}

/// App `app`'s profile as crawl `crawl` sees it: fixed identity
/// strings, install count and ratings that grow over the window.
fn crawl(app: usize, crawl: u64) -> ProfileSnapshot {
    let country = COUNTRIES[app % COUNTRIES.len()];
    ProfileSnapshot {
        day: crawl * CADENCE,
        package: package(app),
        title: format!("Wild App {app}"),
        genre_id: GENRES[app % GENRES.len()].into(),
        released_day: 200 + (app as u64 % 900),
        min_installs: [100, 500, 1_000, 5_000][(crawl as usize + app) / 8 % 4],
        developer_id: app as u64,
        developer_name: format!("Studio {app} {country}"),
        developer_country: country.into(),
        developer_email: format!("dev{app}@example.com"),
        developer_website: if app.is_multiple_of(2) {
            format!("https://studio{app}.example")
        } else {
            String::new()
        },
        rating: 3.0 + (app % 20) as f64 / 10.0,
        rating_count: crawl * 7 + app as u64 % 50,
    }
}

#[test]
fn profile_log_heap_growth_stays_within_96_bytes_per_row() {
    // The study's dataset starts from the world's package table, so
    // packages are interned before the measurement starts.
    let mut packages = Interner::new();
    for app in 0..APPS {
        packages.intern(&package(app));
    }
    let mut ds = Dataset::with_interner(packages);

    // Each crawled snapshot is built and dropped inside the window, so
    // only what the dataset keeps of it counts.
    let before = alloc::live();
    for c in 0..CRAWLS {
        for app in 0..APPS {
            ds.add_profile(crawl(app, c));
        }
    }
    let grown = alloc::live() - before;

    let rows = APPS * CRAWLS as usize;
    assert_eq!(ds.profiles().len(), rows);
    assert_eq!(ds.package_interner().len(), APPS, "no package minted");
    assert_eq!(ds.profile_series(&package(7)).len(), CRAWLS as usize);
    let per_row = grown as f64 / rows as f64;
    let accounted = ds.profile_log_bytes() as f64 / grown as f64;
    eprintln!(
        "profile log: {per_row:.1} live-heap bytes per row; \
         profile_log_bytes is {accounted:.3} of the growth"
    );
    assert!(
        per_row <= 96.0,
        "profile log grew the heap by {per_row:.1} B per row (limit 96)"
    );
    assert!(
        (0.9..=1.1).contains(&accounted),
        "profile_log_bytes {} is {accounted:.3} of the measured growth {grown}",
        ds.profile_log_bytes()
    );
}
