//! Quickstart: build a small world, run both studies, and print the
//! §3.2 findings of the incentivized installs bought for the honey app
//! on three platforms.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use iiscope::experiments::Section3;
use iiscope::{Run, RunOptions, WorldConfig};

fn main() {
    // One seed controls everything: same seed, same world, same report.
    let run = Run::new(WorldConfig::small(2020)).expect("world build");
    let out = run.study(RunOptions::default()).expect("studies");

    for outcome in &out.honey.outcomes {
        println!(
            "{}: purchased {}, delivered {} in {} ({} completions paid)",
            outcome.iip,
            outcome.purchased,
            outcome.installs_delivered,
            outcome.delivery_duration(),
            outcome.completions_paid,
        );
    }
    println!();
    println!("{}", Section3::run(out.world(), out.honey.clone()).render());
}
