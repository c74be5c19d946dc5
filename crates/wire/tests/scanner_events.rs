//! The `json_scanner_events` total: every event a scanner yields is
//! counted once, added to the process-wide counter when the scanner
//! drops. The counter is process-global, so this file is a test binary
//! of its own with a single test — nothing else scans JSON here.

use iiscope_types::wirestats::WIRE;
use iiscope_wire::JsonScanner;

/// 12 events: `{ "offers" [ { "payout" 0.06 } 7 ] "ok" true }`.
const DOC: &str = r#"{"offers":[{"payout":0.06},7],"ok":true}"#;

fn counted() -> u64 {
    WIRE.json_events()
}

fn drain(doc: &str) -> u64 {
    let mut sc = JsonScanner::new(doc);
    let mut n = 0;
    while sc.next_event().unwrap().is_some() {
        n += 1;
    }
    n
}

#[test]
fn scanner_events_reach_the_counter_once_per_scanner() {
    let start = counted();
    let mut sc = JsonScanner::new(DOC);
    let mut n = 0;
    while sc.next_event().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 12);
    assert_eq!(
        counted(),
        start,
        "the tally stays in the scanner while it lives"
    );
    drop(sc);
    assert_eq!(counted(), start + 12);

    // A scanner that stops at an error counts what it yielded: `[`, 1, 2.
    let start = counted();
    let mut sc = JsonScanner::new("[1,2,x]");
    while let Ok(Some(_)) = sc.next_event() {}
    drop(sc);
    assert_eq!(counted(), start + 3);

    // Building a value through the scanner counts its events too.
    let start = counted();
    JsonScanner::new(DOC).parse_value().unwrap();
    assert_eq!(counted(), start + 12);

    // Scanners on concurrent threads lose no event.
    let start = counted();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..250 {
                    assert_eq!(drain(DOC), 12);
                }
            });
        }
    });
    assert_eq!(counted(), start + 4 * 250 * 12);
}
