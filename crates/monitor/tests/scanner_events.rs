//! The `json_scanner_events` total is counted where the wall parsers
//! run their scanner: each `parse_wall` and `probe_wall` call adds the
//! events its scanner yielded, once, on success and on error alike. A
//! scanner by itself, and `Json::parse` (TLS hellos, telemetry bodies),
//! count nothing. The counter is process-global, so this file is a test
//! binary of its own with a single test — nothing else scans JSON here.

use iiscope_monitor::parsers::{parse_wall, probe_wall, PageFill};
use iiscope_types::wirestats::WIRE;
use iiscope_types::IipId;
use iiscope_wire::{Json, JsonScanner};

/// 12 events: `{ "offers" [ { "payout" 0.06 } 7 ] "ok" true }`. No
/// `"status": "ok"`, so it is the wrong envelope for AyetStudios.
const DOC: &str = r#"{"offers":[{"payout":0.06},7],"ok":true}"#;

/// A two-offer Fyber page, 32 events: `{ "ofw" { "offers" [`, two
/// entries of 12 (`{`, five keys and values, `}`), then `] } }`. The
/// probe halts at the first entry's `{`, after 6 events.
const PAGE: &str = r#"{"ofw":{"offers":[
    {"offer_id":1,"title":"Install","payout_usd":0.03,"package":"com.a.b","play_url":"u1"},
    {"offer_id":2,"title":"Register","payout_usd":0.26,"package":"com.c.d","play_url":"u2"}
]}}"#;

/// A Fyber page with no entries, 8 events, read to its end by the probe.
const EMPTY_PAGE: &str = r#"{"ofw":{"offers":[]}}"#;

fn counted() -> u64 {
    WIRE.json_events()
}

/// Events a plain drain of `body` yields before it ends or errs.
fn drained(body: &str) -> u64 {
    let mut sc = JsonScanner::new(body);
    while let Ok(Some(_)) = sc.next_event() {}
    sc.events()
}

/// The counter's growth across `f`.
fn added(f: impl FnOnce()) -> u64 {
    let start = counted();
    f();
    counted() - start
}

#[test]
fn scanner_events_reach_the_counter_once_per_scanner() {
    assert_eq!(drained(DOC), 12);
    assert_eq!(drained(PAGE), 32);
    assert_eq!(drained(EMPTY_PAGE), 8);

    // A scanner alone reports nothing, while it lives or after.
    let start = counted();
    let mut sc = JsonScanner::new(DOC);
    while sc.next_event().unwrap().is_some() {}
    assert_eq!(sc.events(), 12);
    assert_eq!(counted(), start, "the tally stays in the scanner");
    drop(sc);
    assert_eq!(counted(), start);
    // Neither does a tree parse, which runs on the same scanner.
    assert_eq!(added(|| drop(Json::parse(DOC).unwrap())), 0);

    // A full parse adds every event of the page it read.
    assert_eq!(
        added(|| assert_eq!(parse_wall(IipId::Fyber, PAGE).unwrap().offers.len(), 2)),
        32
    );
    // A wrong envelope is read to its end and errs: all 12 events.
    assert_eq!(
        added(|| assert!(parse_wall(IipId::AyetStudios, DOC).is_err())),
        12
    );
    // A page that stops at a syntax error counts what it yielded:
    // `[`, 1, 2.
    assert_eq!(
        added(|| assert!(parse_wall(IipId::RankApp, "[1,2,x]").is_err())),
        3
    );

    // The probe adds what it read: up to the first entry, the whole of
    // an empty page, or up to the error.
    assert_eq!(
        added(|| assert_eq!(
            probe_wall(IipId::Fyber, PAGE).unwrap(),
            PageFill::HasEntries
        )),
        6
    );
    assert_eq!(
        added(|| assert_eq!(
            probe_wall(IipId::Fyber, EMPTY_PAGE).unwrap(),
            PageFill::Empty
        )),
        8
    );
    assert_eq!(
        added(|| assert!(probe_wall(IipId::Fyber, "[1,2,x]").is_err())),
        3
    );

    // Parses on concurrent threads lose no event.
    let grown = added(|| {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        assert_eq!(parse_wall(IipId::Fyber, PAGE).unwrap().offers.len(), 2);
                        assert!(parse_wall(IipId::RankApp, "[1,2,x]").is_err());
                    }
                });
            }
        });
    });
    assert_eq!(grown, 4 * 250 * (32 + 3));
}
