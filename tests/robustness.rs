//! Robustness: the measurement pipeline must survive an imperfect
//! network (drops, bursts, outages, stalls, corruption, truncation,
//! slow links), because every hop — telemetry uploads, proxied
//! milking, crawls — crosses the fault-injected substrate. Dropped
//! exchanges surface as retries; corrupted TLS records surface as MAC
//! failures and are retried as transport errors; outage windows and
//! stalls exhaust the retry budget and are absorbed as missing data
//! points. Results must remain *identical in kind* (same experiments
//! computable), not byte-identical.

use iiscope::experiments::Table3;
use iiscope::subsystems::netsim::{FaultPlan, GilbertElliott, OutageWindow};
use iiscope::subsystems::types::time::study;
use iiscope::subsystems::types::SimDuration;
use iiscope::wildsim::CRAWL_CHUNK;
use iiscope::{World, WorldConfig};

fn small_quick(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.monitoring_days = 16;
    cfg.crawl_cadence_days = 4;
    cfg.advertised_apps = 40;
    cfg.baseline_apps = 15;
    cfg.honey_purchase = 60;
    cfg
}

/// An even smaller world for the scenario matrix below — one fault
/// family per test keeps the suite wide, so each world stays tiny.
fn tiny_quick(seed: u64) -> WorldConfig {
    let mut cfg = small_quick(seed);
    cfg.monitoring_days = 8;
    cfg.advertised_apps = 24;
    cfg.baseline_apps = 8;
    cfg.honey_purchase = 40;
    cfg
}

#[test]
fn pipeline_survives_a_lossy_network() {
    let world = World::build(small_quick(4_242)).expect("build");
    // 2% drop + 0.5% corruption on every link, applied to *new*
    // connections from here on (the world build itself ran clean).
    world.net.set_default_fault(FaultPlan::lossy(0.02, 0.005));

    let honey = world
        .run_honey_study(world.study_start())
        .expect("honey study under loss");
    let delivered: u64 = honey.outcomes.iter().map(|o| o.installs_delivered).sum();
    assert!(delivered >= 180, "delivered {delivered}");
    // Telemetry still overwhelmingly arrives (the uploader retries).
    assert!(
        world.collector.len() as u64 >= delivered / 2,
        "telemetry too thin: {} records for {delivered} installs",
        world.collector.len()
    );

    let artifacts = world.run_wild_study().expect("wild study under loss");
    assert!(
        artifacts.dataset.offers().len() > 0,
        "milking found nothing under loss"
    );
    let t3 = Table3::run(&world, &artifacts);
    assert!(t3.total_offers > 10, "unique offers {}", t3.total_offers);
}

#[test]
fn heavy_loss_degrades_but_does_not_wedge() {
    let world = World::build(small_quick(4_243)).expect("build");
    world.net.set_default_fault(FaultPlan::lossy(0.12, 0.02));
    // Even at 12% loss per exchange the study completes; individual
    // uploads may fail permanently (bounded retries), which the driver
    // tolerates per design.
    let result = world.run_wild_study();
    match result {
        Ok(artifacts) => {
            // Fine if thinner than the clean run.
            assert!(artifacts.dataset.profiles().len() < 100_000);
        }
        Err(e) => panic!("wild study must not error under loss: {e}"),
    }
}

#[test]
fn bursty_loss_is_absorbed_by_retries() {
    let world = World::build(tiny_quick(4_244)).expect("build");
    // Gilbert–Elliott: near-perfect good state, 60%-loss bursts that
    // last ~3 deliveries. Correlated losses hit one exchange's whole
    // tail, so this stresses the retry layer harder than i.i.d. loss
    // of the same average rate.
    world.net.set_default_fault(
        FaultPlan::perfect().with_burst(GilbertElliott::new(0.05, 0.30, 0.005, 0.60)),
    );
    let honey = world
        .run_honey_study(world.study_start())
        .expect("honey study under bursts");
    let delivered: u64 = honey.outcomes.iter().map(|o| o.installs_delivered).sum();
    assert!(delivered > 0, "bursts starved every campaign");
    assert!(
        world.collector.distinct_installs() > 0,
        "no telemetry survived the bursts"
    );
}

#[test]
fn partition_during_a_crawl_day_leaves_a_gap_not_a_corpse() {
    // Clean reference: crawl days 0, 4 and 8 all produce chart
    // snapshots.
    let clean = World::build(tiny_quick(4_245)).expect("build");
    let clean_arts = clean.run_wild_study().expect("clean wild study");
    let clean_chart_days = clean_arts.dataset.chart_days().len();
    assert!(clean_chart_days >= 3, "{clean_chart_days}");

    // Same world, but the whole network partitions across crawl day 4
    // (an outage window is absolute sim time; every link refuses
    // delivery inside it).
    let world = World::build(tiny_quick(4_245)).expect("build");
    world
        .net
        .set_default_fault(FaultPlan::perfect().with_outage(OutageWindow::new(
            study::STUDY_START + SimDuration::from_days(4),
            study::STUDY_START + SimDuration::from_days(5),
        )));
    let arts = world.run_wild_study().expect("wild study across partition");
    assert!(
        arts.dataset.offers().len() > 0,
        "crawl days outside the window must still milk"
    );
    assert_eq!(
        arts.dataset.chart_days().len(),
        clean_chart_days - 1,
        "exactly the partitioned crawl day is missing"
    );
}

#[test]
fn stalled_endpoints_exhaust_retries_without_wedging() {
    let world = World::build(tiny_quick(4_246)).expect("build");
    // Stalls are the nastiest failure: the server *processes* the
    // request, the reply never comes, and the retry may duplicate the
    // side effect. 5% of deliveries stall.
    world
        .net
        .set_default_fault(FaultPlan::perfect().with_stall(0.05));
    let honey = world
        .run_honey_study(world.study_start())
        .expect("honey study under stalls");
    let delivered: u64 = honey.outcomes.iter().map(|o| o.installs_delivered).sum();
    assert!(delivered > 0);
    let arts = world.run_wild_study().expect("wild study under stalls");
    assert!(arts.dataset.offers().len() > 0);
    // Stalled-then-retried uploads may duplicate records; distinct
    // install ids stay bounded by deliveries.
    assert!(world.collector.distinct_installs() as u64 <= delivered);
}

#[test]
fn truncated_and_garbage_walls_degrade_to_partial_pages() {
    let world = World::build(tiny_quick(4_247)).expect("build");
    // Payload-level damage below TLS: truncated records fail the MAC
    // or leave half a JSON wall; garbage payloads are noise. Both must
    // surface as retries or partial walls, never as a parser panic.
    world.net.set_default_fault(
        FaultPlan::perfect()
            .with_truncation(0.08)
            .with_garbage(0.04),
    );
    let arts = world.run_wild_study().expect("wild study under damage");
    let t3 = Table3::run(&world, &arts);
    assert!(
        t3.total_offers > 0,
        "the Table 3 pipeline must stay computable on damaged walls"
    );
}

#[test]
fn collector_outage_is_caught_up_by_later_uploads() {
    let world = World::build(tiny_quick(4_248)).expect("build");
    // The first 12 hours of the study are dark — every upload (and
    // every wall fetch) dies. Deliveries after the window report in,
    // including day-2 returns from installs that happened in the dark.
    world
        .net
        .set_default_fault(FaultPlan::perfect().with_outage(OutageWindow::new(
            study::STUDY_START,
            study::STUDY_START + SimDuration::from_hours(12),
        )));
    let honey = world
        .run_honey_study(world.study_start())
        .expect("honey study across collector outage");
    let delivered: u64 = honey.outcomes.iter().map(|o| o.installs_delivered).sum();
    assert!(delivered > 0, "post-outage deliveries must proceed");
    assert!(
        world.collector.distinct_installs() > 0,
        "telemetry after the window must land"
    );
}

#[test]
fn parallel_fan_out_matches_sequential_under_faults() {
    let run = |parallelism: usize| {
        let mut cfg = tiny_quick(4_249);
        // Enough baseline apps that every crawl day's profile plan
        // spans more than one crawl chunk, so 8 workers crawl chunks
        // concurrently.
        cfg.baseline_apps = CRAWL_CHUNK + 16;
        cfg.parallelism = parallelism;
        let world = World::build(cfg).expect("build");
        world.net.set_default_fault(FaultPlan::lossy(0.06, 0.01));
        world.run_wild_study().expect("faulty wild study")
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq.offer_observations, par.offer_observations);
    assert_eq!(
        format!("{:?}", seq.dataset.offers().collect::<Vec<_>>()),
        format!("{:?}", par.dataset.offers().collect::<Vec<_>>()),
        "fault randomness must be a function of each connection's \
         lineage, not of worker scheduling"
    );
    assert!(seq.dataset.profiles().len() > CRAWL_CHUNK);
    assert_eq!(
        format!("{:?}", seq.dataset.profiles().collect::<Vec<_>>()),
        format!("{:?}", par.dataset.profiles().collect::<Vec<_>>()),
        "profile snapshots must not depend on which worker crawled a chunk"
    );
    assert_eq!(seq.apks, par.apks);
}

#[test]
fn slow_links_cost_connection_local_time_only() {
    let world = World::build(tiny_quick(4_250)).expect("build");
    // A 50 kB/s bandwidth cap plus latency on every link: transfers
    // take sim-visible time, but only on the connection's own skewed
    // clock. The shared clock must end exactly on schedule.
    world.net.set_default_fault(
        FaultPlan::perfect()
            .with_bandwidth(50_000)
            .with_latency(SimDuration::from_secs(1), SimDuration::ZERO),
    );
    let arts = world.run_wild_study().expect("wild study on slow links");
    assert!(arts.dataset.offers().len() > 0);
    assert_eq!(
        world.net.clock().now(),
        world.study_end(),
        "faults must never advance the shared clock past the schedule"
    );
}
