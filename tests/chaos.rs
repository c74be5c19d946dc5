//! The chaos harness: sweep adversarial fault schedules × seeds
//! through small worlds and check the five invariants every point of
//! the grid must uphold:
//!
//! 1. **no panics** — every `run_chaos` returns (a panic or error at
//!    any grid point fails the sweep);
//! 2. **no hangs** — the shared clock ends inside a fixed sim-time
//!    budget: faults accrue connection-local skew, never shared time,
//!    so no fault plan can stretch the study schedule;
//! 3. **byte-identical reruns** — the same `(seed, plan)` reproduces
//!    the same outcome down to the report digest;
//! 4. **monotone degradation** — in the coupled telemetry scenario, a
//!    strictly higher drop rate never delivers *more* distinct
//!    installs;
//! 5. **report computability** — the full experiment report renders at
//!    every grid point (that is what `run_chaos` digests).
//!
//! Each run also reports its own world's chaos and wire books, so the
//! outcomes compared above include every counter, and two worlds
//! studied at once on two threads must each end with the books of
//! their solo runs.
//!
//! The in-suite sweep covers the first three grid plans; the full
//! grid runs behind `--ignored` (CI's nightly profile).

use iiscope::chaos::{chaos_config, fault_grid, telemetry_survival, ChaosOutcome};
use iiscope::subsystems::netsim::FaultPlan;
use iiscope::subsystems::types::time::study;
use iiscope::{RunError, RunOptions};

/// One chaos-sized run of `seed` at `parallelism` workers with `plan`
/// armed on every connection the studies open.
fn run_chaos(seed: u64, plan: &FaultPlan, parallelism: usize) -> Result<ChaosOutcome, RunError> {
    let mut cfg = chaos_config(seed);
    cfg.parallelism = parallelism;
    let faults = Some(plan.clone());
    iiscope::chaos::run_chaos(
        cfg,
        RunOptions {
            faults,
            ..RunOptions::default()
        },
    )
}

/// Sim-time budget (in days past the study start) no chaos run may
/// exceed: the 8 monitoring days plus the honey study's sequential
/// deliveries and quiet gaps. Faults cannot widen this — they only
/// consume connection-local skew.
const SIM_BUDGET_DAYS: u64 = 40;

fn check_invariants(name: &str, seed: u64, outcome: &ChaosOutcome) {
    assert!(
        outcome.end_clock_days <= study::STUDY_START.days() + SIM_BUDGET_DAYS,
        "{name}/{seed}: clock ran to day {} (budget {})",
        outcome.end_clock_days,
        study::STUDY_START.days() + SIM_BUDGET_DAYS
    );
    assert!(
        outcome.digest.report != 0,
        "{name}/{seed}: empty report digest"
    );
    assert!(
        outcome.honey_delivered <= 3 * 40 * 2,
        "{name}/{seed}: faults must not conjure installs ({})",
        outcome.honey_delivered
    );
}

#[test]
fn smoke_grid_upholds_all_invariants() {
    let grid = fault_grid();
    for (name, plan) in &grid[..3] {
        for seed in [42u64, 1337, 9001] {
            let a = run_chaos(seed, plan, 1)
                .unwrap_or_else(|e| panic!("{name}/{seed}: study died: {e}"));
            check_invariants(name, seed, &a);
            let b = run_chaos(seed, plan, 1).expect("rerun");
            assert_eq!(a, b, "{name}/{seed}: rerun must be byte-identical");
        }
    }
}

/// The value of `key` in a counter book.
fn counter(book: &[(&'static str, u64)], key: &str) -> u64 {
    book.iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("no counter {key}"))
        .1
}

#[test]
fn a_perfect_network_books_no_chaos() {
    let outcome = run_chaos(42, &FaultPlan::perfect(), 1).expect("clean run");
    check_invariants("perfect", 42, &outcome);
    for &(key, value) in &outcome.chaos_counters {
        assert_eq!(value, 0, "{key} on a perfect network");
    }
    assert!(counter(&outcome.wire_counters, "walls_streamed") > 0);
}

#[test]
fn light_loss_still_measures_the_ecosystem() {
    let (name, plan) = &fault_grid()[0];
    let outcome = run_chaos(42, plan, 1).expect("drop-light run");
    check_invariants(name, 42, &outcome);
    assert!(
        counter(&outcome.chaos_counters, "drops_random") > 0,
        "the lossy plan dropped deliveries"
    );
    assert!(outcome.honey_delivered > 0, "honey campaigns delivered");
    assert!(
        outcome.telemetry_installs > 0,
        "telemetry reached the collector"
    );
    assert!(outcome.offer_observations > 0, "milking recovered offers");
    assert!(outcome.profile_snapshots > 0, "profile crawls landed");
}

#[test]
fn parallel_study_matches_sequential_under_faults() {
    let (_, plan) = &fault_grid()[0];
    let seq = run_chaos(4242, plan, 1).expect("sequential");
    let par = run_chaos(4242, plan, 8).expect("8 workers");
    assert_eq!(
        seq, par,
        "worker scheduling must be invisible even with faults armed"
    );
}

/// Two worlds with different seeds run both studies at the same time
/// on two threads, and each ends with exactly the books (and report)
/// of its solo run: no count of one world lands in the other's book.
#[test]
fn concurrent_worlds_keep_their_own_books() {
    let (_, plan) = &fault_grid()[0];
    let seeds = [42u64, 1337];
    let solo: Vec<ChaosOutcome> = seeds
        .iter()
        .map(|&seed| run_chaos(seed, plan, 1).expect("solo run"))
        .collect();
    let together: Vec<ChaosOutcome> = std::thread::scope(|s| {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| s.spawn(move || run_chaos(seed, plan, 1).expect("concurrent run")))
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_ne!(solo[0].wire_counters, solo[1].wire_counters);
    for (seed, (alone, beside)) in seeds.iter().zip(solo.iter().zip(&together)) {
        assert_eq!(
            alone, beside,
            "seed {seed}: a concurrent world moved this world's books"
        );
    }
}

#[test]
fn degradation_is_monotone_in_the_drop_rate() {
    for seed in [5u64, 6, 7] {
        let chain: Vec<usize> = [0.0, 0.15, 0.35, 0.6]
            .iter()
            .map(|&p| telemetry_survival(seed, p, 40))
            .collect();
        assert_eq!(chain[0], 40, "clean network loses nothing (seed {seed})");
        for w in chain.windows(2) {
            assert!(
                w[0] >= w[1],
                "seed {seed}: more loss delivered more telemetry: {chain:?}"
            );
        }
    }
}

/// The full grid × seed matrix — every fault family, three seeds,
/// rerun each point for byte-identity. Nightly-profile sized; run with
/// `cargo test --test chaos -- --ignored`.
#[test]
#[ignore]
fn full_grid_upholds_all_invariants() {
    for (name, plan) in &fault_grid() {
        for seed in [42u64, 1337, 9001] {
            let a = run_chaos(seed, plan, 1)
                .unwrap_or_else(|e| panic!("{name}/{seed}: study died: {e}"));
            check_invariants(name, seed, &a);
            let b = run_chaos(seed, plan, 1).expect("rerun");
            assert_eq!(a, b, "{name}/{seed}: rerun must be byte-identical");
        }
    }
}
