//! Ablation tests for the design choices DESIGN.md calls out. Each
//! flips one mechanism and asserts the paper-relevant effect moves the
//! predicted way.

use iiscope::experiments::{Table5, Table6};
use iiscope::subsystems::monitor::{FuzzerConfig, UiFuzzer};
use iiscope::subsystems::playstore::{ChartRanking, EnforcementConfig};
use iiscope::{World, WorldConfig};
use iiscope_types::Country;

/// Certificate pinning defeats the interception pipeline entirely —
/// the §4.1 footnote's counterfactual.
#[test]
fn ablation_cert_pinning_blinds_the_monitor() {
    let build = |pin: bool| {
        let mut cfg = WorldConfig::small(808);
        cfg.walls_pin_certificates = pin;
        // A shorter window keeps this ablation cheap.
        cfg.monitoring_days = 12;
        cfg.crawl_cadence_days = 4;
        World::build(cfg).expect("build")
    };
    let unpinned = build(false);
    let a = unpinned.run_wild_study().expect("wild");
    assert!(
        a.dataset.offers().len() > 0,
        "unpinned world must observe offers"
    );

    let pinned = build(true);
    let a = pinned.run_wild_study().expect("wild");
    assert!(
        a.dataset.offers().len() == 0,
        "pinning should blind the monitor, saw {} offers",
        a.dataset.offers().len()
    );
}

/// Shallow fuzzing loses the offers on later wall pages — coverage
/// depends on the §4.1 scroll-through behaviour.
#[test]
fn ablation_fuzzer_scroll_depth_controls_coverage() {
    let world = World::build(WorldConfig::small(809)).expect("build");
    // Put 25 live offers on one wall (more than two pages' worth).
    let platform = &world.platforms[&iiscope_types::IipId::Fyber];
    platform
        .deposit(world.honey.developer, iiscope_types::Usd::from_dollars(500))
        .expect("deposit");
    for i in 0..25 {
        platform
            .create_campaign(
                iiscope::subsystems::iip::CampaignSpec {
                    developer: world.honey.developer,
                    package: iiscope_types::PackageName::new(format!("com.depth{i}.app"))
                        .expect("valid"),
                    store_url: format!(
                        "https://play.iiscope/store/apps/details?id=com.depth{i}.app"
                    ),
                    goal: iiscope::subsystems::attribution::ConversionGoal::InstallAndOpen,
                    payout: iiscope_types::Usd::from_cents(5),
                    cap: 50,
                    countries: vec![],
                },
                world.study_start(),
            )
            .expect("campaign");
    }
    let count = |pages: usize| -> usize {
        let fuzzer = UiFuzzer::new(FuzzerConfig {
            max_scroll_pages: pages,
        });
        let mut total = std::collections::BTreeSet::new();
        for app in &world.affiliate_apps {
            for o in world.infra.milk(app, Country::Us, &fuzzer).expect("milk") {
                total.insert((o.iip, o.raw.offer_key));
            }
        }
        total.len()
    };
    let shallow = count(1);
    let deep = count(50);
    assert!(
        deep > shallow,
        "deep scroll ({deep}) must find more than one page ({shallow})"
    );
}

/// Chart-ranking ablation. §4.3.1's causal story — activity offers
/// move charts *because* Play ranks by engagement — has a clean
/// counterfactual: under a naive install-count ranker, purchase-driven
/// chart placement stops working. Concretely, the World on Fire case
/// study (Figure 5b) reaches the top-grossing chart through purchase
/// offers under the engagement/revenue ranker, and cannot under the
/// install ranker (its install volume is unremarkable). The vetted
/// advantage of Table 6 also holds only under the default ranker.
#[test]
fn ablation_chart_ranking_drives_the_vetted_advantage() {
    let run = |ranking: ChartRanking| {
        let mut cfg = WorldConfig::small(810);
        cfg.ranking = ranking;
        let world = World::build(cfg).expect("build");
        let artifacts = world.run_wild_study().expect("wild");
        let t6 = Table6::run(&world, &artifacts);
        let f5 = iiscope::experiments::Figure5::run(&world, &artifacts);
        (t6.vetted.rate(), t6.unvetted.rate(), f5.wof.presence.len())
    };
    let (veng, ueng, wof_eng) = run(ChartRanking::EngagementWeighted);
    let (_vinst, _uinst, wof_inst) = run(ChartRanking::InstallWeighted);
    // Default: vetted lead (the Table 6 result) and the purchase-driven
    // case study charts.
    assert!(
        veng >= ueng,
        "engagement ranking: vetted {veng} vs unvetted {ueng}"
    );
    assert!(wof_eng > 0, "WoF must chart under engagement ranking");
    // Ablated: revenue no longer moves the grossing chart, so the
    // purchase campaign stops charting (or barely charts).
    assert!(
        wof_inst < wof_eng,
        "install ranking must blunt purchase-driven charting: {wof_inst} vs {wof_eng}"
    );
}

/// Strict enforcement removes far more installs than the calibrated
/// lax default — §5.2's "limited effectiveness" is a dial, not a law.
#[test]
fn ablation_enforcement_aggressiveness() {
    let run = |enforcement: EnforcementConfig| {
        let mut cfg = WorldConfig::small(811);
        cfg.enforcement = enforcement;
        cfg.monitoring_days = 20;
        cfg.crawl_cadence_days = 4;
        let world = World::build(cfg).expect("build");
        world.run_wild_study().expect("wild").enforcement_removed
    };
    let none = run(EnforcementConfig::disabled());
    let lax = run(EnforcementConfig::default());
    let strict = run(EnforcementConfig::strict());
    assert_eq!(none, 0);
    assert!(strict > lax.max(1) * 10, "strict {strict} vs lax {lax}");
}

/// Fewer vantage points lose geo-targeted offers (§4.1 ran milkers
/// from eight countries for coverage).
#[test]
fn ablation_vantage_points_control_geo_coverage() {
    let run = |countries: Vec<Country>| {
        let mut cfg = WorldConfig::small(812);
        cfg.milk_countries = countries;
        let world = World::build(cfg).expect("build");
        let artifacts = world.run_wild_study().expect("wild");
        artifacts
            .dataset
            .unique_offers()
            .map(|o| (o.iip, o.offer_key))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    };
    // Note: both runs use the same seed, so the same geo-targeted
    // offers exist; only the vantage set differs.
    let eight = run(Country::VANTAGE_POINTS.to_vec());
    let one = run(vec![Country::Us]);
    assert!(
        eight > one,
        "eight vantage points ({eight}) must out-cover one ({one})"
    );
}

/// Companion (non-incentivized) marketing is what moves the install
/// bins of big vetted-platform apps — the §4.3 confound ("we cannot
/// eliminate the possibility that these increases are caused by other
/// simultaneous advertising"). With it disabled, the vetted Table 5
/// increase rate collapses, while the unvetted rate — driven by the
/// purchased installs themselves crossing the low bins of tiny apps —
/// barely changes.
#[test]
fn ablation_companion_marketing_drives_vetted_bin_increases() {
    let run = |companion: bool| {
        let mut cfg = WorldConfig::small(813);
        cfg.companion_marketing = companion;
        let world = World::build(cfg).expect("build");
        let artifacts = world.run_wild_study().expect("wild");
        let t5 = Table5::run(&world, &artifacts);
        (t5.vetted.rate(), t5.unvetted.rate())
    };
    let (vetted_on, unvetted_on) = run(true);
    let (vetted_off, unvetted_off) = run(false);
    assert!(
        vetted_off < vetted_on * 0.65,
        "vetted increases must collapse without companion marketing: \
         {vetted_off:.3} vs {vetted_on:.3}"
    );
    assert!(
        unvetted_off > unvetted_on / 2.0,
        "unvetted increases are purchase-driven and must survive: \
         {unvetted_off:.3} vs {unvetted_on:.3}"
    );
    assert!(
        unvetted_off > vetted_off,
        "without the confound, only the purchase-driven effect remains"
    );
}
