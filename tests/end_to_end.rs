//! End-to-end integration: one world, both studies, every experiment —
//! asserting the cross-crate pipeline holds together and reproduces
//! the paper's qualitative results.

use iiscope::experiments::{Figure4, Figure6, Section5, Table1, Table3, Table4, Table5, Table7};
use iiscope::{Outcome, Run, RunOptions, WorldConfig};
use iiscope_types::IipId;
use std::sync::OnceLock;

fn shared() -> &'static Outcome {
    static CELL: OnceLock<Outcome> = OnceLock::new();
    CELL.get_or_init(|| {
        let run = Run::new(WorldConfig::small(40_404)).expect("build");
        run.study(RunOptions::default()).expect("studies")
    })
}

#[test]
fn full_report_renders_every_artifact() {
    let s = shared();
    let report = s.report();
    for needle in [
        "Section 3.2",
        "Table 1",
        "Table 2",
        "Table 3",
        "Table 4",
        "Table 5",
        "Table 6",
        "Table 7",
        "Table 8",
        "Figure 4",
        "Figure 5",
        "Figure 6",
        "Section 5.2",
        "Section 5.1",
        "monetization summary",
        "detector",
    ] {
        assert!(report.contains(needle), "missing {needle}");
    }
}

#[test]
fn headline_results_reproduce() {
    let s = shared();

    // Contribution 1: purchased installs raised the honey app's public
    // count from 0 past the purchase size, unimpeded.
    let total: u64 = s.honey.outcomes.iter().map(|o| o.installs_delivered).sum();
    assert!(total > s.world().cfg.honey_purchase * 3);

    // Contribution 2: the monitor found campaigns across both platform
    // classes with an activity/no-activity split.
    let t3 = Table3::run(s.world(), &s.artifacts);
    assert!(t3.share_of("Activity").unwrap() > 0.25);
    assert!(t3.share_of("No activity").unwrap() > 0.25);

    // Contribution 3: install-count increases correlate with
    // campaigns; unvetted sees the bigger multiplier (Table 5).
    let t5 = Table5::run(s.world(), &s.artifacts);
    assert!(t5.unvetted.rate() > 3.0 * t5.baseline.rate().max(0.01));

    // Contribution 3b: the funding pipeline works end to end — vetted
    // developers match Crunchbase far more often (their profiles carry
    // websites) and funded apps are found. The rate ordering itself is
    // a paper-scale property (N = 200 matched apps there vs ~20 here)
    // and is asserted by the `repro --scale paper` run in
    // EXPERIMENTS.md.
    let t7 = Table7::run(s.world(), &s.artifacts);
    assert!(t7.vetted.match_rate() > t7.unvetted.match_rate());
    assert!(
        t7.vetted.total() + t7.unvetted.total() >= 10,
        "too few matched apps"
    );

    // Contribution 4: activity-offer apps integrate more ad libraries
    // (Figure 6's 60%-vs-25% at the ≥5 cut).
    let f6 = Figure6::run(s.world(), &s.artifacts);
    let [activity, no_activity, _] = &f6.by_offer_type;
    assert!(activity.frac_ge5 > no_activity.frac_ge5);
}

#[test]
fn observed_dataset_is_consistent_with_ground_truth() {
    let s = shared();
    let ds = &s.artifacts.dataset;
    // Every observed package corresponds to a planned app.
    let planned: std::collections::BTreeSet<&str> = s
        .world()
        .plan
        .apps
        .iter()
        .map(|a| a.package.as_str())
        .collect();
    for pkg in ds.advertised_packages() {
        assert!(planned.contains(pkg), "ghost package {pkg}");
    }
    // Per-IIP app counts follow the Table 4 ordering.
    let t4 = Table4::run(s.world(), &s.artifacts);
    assert!(t4.row(IipId::Fyber).apps > t4.row(IipId::AdGem).apps);
    // RankApp is all no-activity.
    assert!(t4.row(IipId::RankApp).no_activity_share > 0.99);
}

#[test]
fn world_observables_survive_the_full_pipeline() {
    let s = shared();
    // Vetting probe (Table 1) matches ground truth end to end.
    let t1 = Table1::run(s.world());
    assert!(t1
        .rows
        .iter()
        .all(|r| r.observed_vetted == r.iip.is_vetted()));
    // Baseline histogram covers the spectrum (Figure 4).
    let f4 = Figure4::run(s.world(), &s.artifacts);
    assert!(f4.total > 0);
    // Enforcement stays rare (§5.2).
    let s5 = Section5::run(s.world(), &s.artifacts);
    assert_eq!(s5.baseline.decreased, 0);
    assert!(s5.unvetted.rate() < 0.2);
}

#[test]
fn money_flows_reconcile_across_platforms() {
    let s = shared();
    for iip in IipId::ALL {
        let settlement = s.world().platforms[&iip].settlement();
        assert_eq!(
            settlement.gross(),
            settlement.iip_revenue + settlement.affiliate_revenue + settlement.user_payouts,
            "{iip} settlement does not reconcile"
        );
    }
}
