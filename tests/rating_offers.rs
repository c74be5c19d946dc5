//! Extension: incentivized star-rating offers ("Install and rate N
//! stars"). The paper's cited policy page protects "User Ratings,
//! Reviews, and Installs" as one surface; this exercises the ratings
//! facet end to end — generator → offer wall → MITM interception →
//! parser → classifier, and completions landing in the store ledger.

use iiscope::subsystems::analysis::classify::{classify_description, ActivityKind, OfferType};
use iiscope::{World, WorldConfig};

#[test]
fn rating_offers_flow_end_to_end() {
    let mut cfg = WorldConfig::small(909);
    cfg.rating_offers = true;
    let world = World::build(cfg).expect("build");
    let artifacts = world.run_wild_study().expect("wild study");

    // Completions really recorded star ratings in the store ledger.
    assert!(
        artifacts.incentivized_ratings > 0,
        "rating-offer completions must record ratings"
    );

    // The offers crossed the wire: the monitor intercepted and parsed
    // them like any other offer, and they read as rating offers.
    let star_offers: Vec<_> = artifacts
        .dataset
        .offers()
        .filter(|o| {
            let d = o.description.to_ascii_lowercase();
            d.contains("star") || d.contains("rate ")
        })
        .collect();
    assert!(
        !star_offers.is_empty(),
        "intercepted dataset must contain rating offers"
    );

    // The §4.3.1 classifier files them as activity (closest bucket —
    // the paper's taxonomy has no rating class).
    for o in &star_offers {
        assert_eq!(
            classify_description(o.description),
            OfferType::Activity(ActivityKind::Usage),
            "{:?}",
            o.description
        );
    }
}

#[test]
fn default_world_has_no_rating_offers() {
    let world = World::build(WorldConfig::small(909)).expect("build");
    let artifacts = world.run_wild_study().expect("wild study");
    assert_eq!(
        artifacts.incentivized_ratings, 0,
        "the calibrated world must not record incentivized ratings"
    );
    assert!(
        !artifacts
            .dataset
            .offers()
            .any(|o| o.description.to_ascii_lowercase().contains("star")),
        "no rating offers on the walls by default"
    );
}
