//! Adversarial-input property tests for the wall parsers: whatever the
//! proxy hands them (truncated, mangled, or hostile bodies), they must
//! never panic and must only yield structurally-complete offers.

use iiscope_monitor::parsers::{parse_wall, RewardValue};
use iiscope_types::{wirestats::WireCounters, IipId};
use proptest::prelude::*;

proptest! {
    /// Arbitrary bytes as a page body: parse must return, not panic.
    #[test]
    fn arbitrary_text_never_panics(iip_idx in 0usize..7, body in "\\PC{0,400}") {
        let iip = IipId::ALL[iip_idx];
        let _ = parse_wall(iip, &body, &WireCounters::new());
    }

    /// Arbitrary *valid JSON* (wrong shapes included) never panics and
    /// never fabricates offers out of scalars.
    #[test]
    fn arbitrary_json_shapes_never_panic(
        iip_idx in 0usize..7,
        n in -1000i64..1000,
        s in "[a-z]{0,12}",
    ) {
        let iip = IipId::ALL[iip_idx];
        for body in [
            format!("{n}"),
            format!("\"{s}\""),
            format!("[{n}, \"{s}\"]"),
            format!("{{\"{s}\": {n}}}"),
            "null".to_string(),
            "{}".to_string(),
            "[]".to_string(),
        ] {
            let _ = parse_wall(iip, &body, &WireCounters::new());
        }
    }

    /// A well-formed Fyber page with randomized field values parses
    /// every entry, preserving values exactly.
    #[test]
    fn wellformed_fyber_pages_round_trip(
        ids in prop::collection::vec(0u32..1_000_000, 0..12),
        payout in 0.0f64..100.0,
    ) {
        let offers: Vec<String> = ids
            .iter()
            .map(|id| {
                format!(
                    "{{\"offer_id\":{id},\"title\":\"Install and Launch\",\
                     \"payout_usd\":{payout},\"package\":\"com.a.b{id}\",\
                     \"play_url\":\"https://play.iiscope/d?id=com.a.b{id}\"}}"
                )
            })
            .collect();
        let body = format!(
            "{{\"ofw\":{{\"offers\":[{}],\"count\":{}}}}}",
            offers.join(","),
            ids.len()
        );
        let page = parse_wall(IipId::Fyber, &body, &WireCounters::new()).unwrap();
        prop_assert_eq!(page.offers.len(), ids.len());
        prop_assert_eq!(page.skipped, 0);
        for (offer, id) in page.offers.iter().zip(&ids) {
            prop_assert_eq!(offer.offer_key, u64::from(*id));
            prop_assert_eq!(offer.reward, RewardValue::Usd(payout));
        }
    }

    /// Entries with a hostile mix of missing/mistyped fields are
    /// skipped without contaminating the good ones.
    #[test]
    fn partial_entries_are_skipped_cleanly(good in 0usize..6, bad in 0usize..6) {
        let mut entries: Vec<String> = Vec::new();
        for i in 0..good {
            entries.push(format!(
                "{{\"rid\":{i},\"task\":\"Install and run the application\",\
                 \"price_cents\":2,\"gp_link\":\"u\",\"app\":\"com.g.a{i}\"}}"
            ));
        }
        for i in 0..bad {
            entries.push(format!("{{\"rid\":\"not-a-number-{i}\"}}"));
        }
        let body = format!("[{}]", entries.join(","));
        let page = parse_wall(IipId::RankApp, &body, &WireCounters::new()).unwrap();
        prop_assert_eq!(page.offers.len(), good);
        prop_assert_eq!(page.skipped, bad);
    }
}
