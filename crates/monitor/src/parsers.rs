//! Per-IIP offer-wall parsers.
//!
//! Each parser consumes the *intercepted JSON body* of one wall page
//! and emits [`RawOffer`]s. Inputs are untrusted bytes off the wire:
//! parsers tolerate unknown fields, skip malformed entries (counting
//! them), and never panic. The dialects mirror
//! `iiscope_iip::wall` — but the monitor only knows them the way the
//! paper's authors did: by reverse-engineering captured traffic, so
//! nothing here links against the wall implementation.
//!
//! [`parse_wall`] walks the body with the streaming [`Scanner`],
//! extracting each dialect's five fields per entry without building a
//! value tree (escape-free strings are the only per-offer
//! allocations). Object keys repeat with last-wins semantics at every
//! level, and every byte is validated with `Json::parse`'s strictness,
//! so values and error text both match a parse-then-navigate reader.
//! That reader, `iiscope_bench::oracles::parse_wall_tree`, is the
//! oracle `tests/proptests.rs` holds the walk to, on `Ok` values and
//! on error text alike.
//!
//! [`probe_wall`] runs the same streaming walk but stops at the first
//! entry: it is all the UI fuzzer needs to decide whether to scroll on,
//! and it leaves the proxy-side [`parse_wall`] as the only full parse
//! of a page.
//!
//! Both count into the caller's wire book — the world's, reached
//! through the network the caller holds — and touch no other state.

use iiscope_types::{wirestats::WireCounters, Country, IipId, SimTime};
use iiscope_wire::json::{Event, ParseError, Scanner};

/// The reward currency as displayed by a wall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RewardValue {
    /// Direct USD amount (Fyber).
    Usd(f64),
    /// Affiliate-app points (most walls).
    Points(i64),
    /// Whole US cents (RankApp).
    Cents(i64),
}

/// One offer as parsed from a wall page, before enrichment.
#[derive(Debug, Clone, PartialEq)]
pub struct RawOffer {
    /// Wall-scoped offer key (for deduplication across pages/rounds).
    pub offer_key: u64,
    /// Human-readable task description.
    pub description: String,
    /// Displayed reward.
    pub reward: RewardValue,
    /// Advertised package name (as printed; may be garbage).
    pub package: String,
    /// Play Store URL.
    pub store_url: String,
}

/// A fully-enriched observation of an offer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedOffer {
    /// Which IIP's wall it was seen on.
    pub iip: IipId,
    /// The raw parse.
    pub raw: RawOffer,
    /// When it was scraped.
    pub seen_at: SimTime,
    /// Which affiliate app's wall produced it.
    pub affiliate: String,
    /// Vantage-point country of the milker.
    pub vantage: Country,
}

/// Result of parsing one page.
#[derive(Debug, Clone, PartialEq)]
pub struct PageParse {
    /// Successfully parsed offers.
    pub offers: Vec<RawOffer>,
    /// Entries skipped as malformed.
    pub skipped: usize,
}

/// Whether a wall page shows anything, as [`probe_wall`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFill {
    /// No entries: the end of the wall.
    Empty,
    /// At least one entry, well-formed or not.
    HasEntries,
}

/// Answers the fuzzer's scroll check — does this page show anything? —
/// without parsing the page.
///
/// It runs [`parse_wall`]'s streaming walk and stops at the first entry
/// of the entries array. A page with no entry is read to its end, so
/// its verdict is the full parse's. The contract, property-tested in
/// `tests/proptests.rs`:
///
/// * `Ok(Empty)` only when [`parse_wall`] returns no offers and no
///   skipped entries; on every page a wall renders, exactly then.
/// * An error whenever [`parse_wall`] errs on the prefix the probe
///   reads. An error past the first entry (a truncated tail, a bad
///   envelope key after the entries) is the proxy-side parse's to find.
///
/// The events the probe read are added to `wire`.
pub fn probe_wall(iip: IipId, body: &str, wire: &WireCounters) -> iiscope_types::Result<PageFill> {
    let mut sch = schema(iip);
    sch.halt_at_first_entry = true;
    match walk(body, &sch, wire) {
        Err(Halt::FirstEntry) => Ok(PageFill::HasEntries),
        Ok(Some(_)) => Ok(PageFill::Empty),
        Ok(None) => Err(bad_envelope(iip)),
        Err(Halt::Syntax(e)) => Err(iiscope_types::Error::Decode(format!("{iip} wall: {e}"))),
    }
}

/// Parses one wall page body for the given IIP dialect.
///
/// Returns an error only when the page as a whole is unusable (not
/// JSON / wrong envelope); individual bad entries are skipped.
///
/// This is the streaming walk; it never builds a JSON tree. The events
/// it read, and on success the page and its offers, are added to
/// `wire`.
pub fn parse_wall(iip: IipId, body: &str, wire: &WireCounters) -> iiscope_types::Result<PageParse> {
    match walk(body, &schema(iip), wire) {
        Ok(Some((offers, skipped))) => {
            wire.add_walls_streamed(1);
            wire.add_offers_streamed(offers.len() as u64);
            Ok(PageParse { offers, skipped })
        }
        Ok(None) => Err(bad_envelope(iip)),
        Err(Halt::Syntax(e)) => Err(iiscope_types::Error::Decode(format!("{iip} wall: {e}"))),
        Err(Halt::FirstEntry) => unreachable!("a full parse never halts at an entry"),
    }
}

fn bad_envelope(iip: IipId) -> iiscope_types::Error {
    iiscope_types::Error::Decode(format!("{iip} wall: unexpected envelope"))
}

// ---------------------------------------------------------------------
// Streaming schemas.
// ---------------------------------------------------------------------

/// Where a dialect keeps its entries array.
#[derive(Clone, Copy)]
enum Envelope {
    /// `{outer: {inner: [entries]}}`
    Nested(&'static str, &'static str),
    /// `{key: [entries]}`
    Flat(&'static str),
    /// `{"status": "ok", key: [entries]}`
    FlatWithStatus(&'static str),
    /// `[entries]`
    TopArray,
}

/// One extracted entry field: a key at the entry's top level, or
/// inside a named sub-object.
#[derive(Clone, Copy)]
struct Field {
    parent: Option<&'static str>,
    name: &'static str,
}

const fn field(name: &'static str) -> Field {
    Field { parent: None, name }
}

const fn sub(parent: &'static str, name: &'static str) -> Field {
    Field {
        parent: Some(parent),
        name,
    }
}

#[derive(Clone, Copy)]
enum RewardKind {
    Usd,
    Points,
    Cents,
}

/// A dialect, described declaratively: the envelope plus the five
/// fields [`RawOffer`] needs, and how far to walk.
struct Schema {
    envelope: Envelope,
    id: Field,
    desc: Field,
    reward: Field,
    reward_kind: RewardKind,
    package: Field,
    url: Field,
    /// Stop with [`Halt::FirstEntry`] at the first entry instead of
    /// parsing it ([`probe_wall`]).
    halt_at_first_entry: bool,
}

/// Why a streaming walk ended early.
enum Halt {
    /// The body is not valid JSON.
    Syntax(ParseError),
    /// A probe reached the first entry.
    FirstEntry,
}

impl From<ParseError> for Halt {
    fn from(e: ParseError) -> Halt {
        Halt::Syntax(e)
    }
}

fn schema(iip: IipId) -> Schema {
    match iip {
        IipId::Fyber => Schema {
            envelope: Envelope::Nested("ofw", "offers"),
            id: field("offer_id"),
            desc: field("title"),
            reward: field("payout_usd"),
            reward_kind: RewardKind::Usd,
            package: field("package"),
            url: field("play_url"),
            halt_at_first_entry: false,
        },
        IipId::OfferToro => Schema {
            envelope: Envelope::Nested("response", "offers"),
            id: field("id"),
            desc: field("offer_desc"),
            reward: field("amount"),
            reward_kind: RewardKind::Points,
            package: field("package_name"),
            url: field("link"),
            halt_at_first_entry: false,
        },
        IipId::AdscendMedia => Schema {
            envelope: Envelope::Nested("adscend", "entries"),
            id: field("uid"),
            desc: field("description"),
            reward: field("currency_count"),
            reward_kind: RewardKind::Points,
            package: sub("app", "bundle"),
            url: sub("app", "market_url"),
            halt_at_first_entry: false,
        },
        IipId::HangMyAds => Schema {
            envelope: Envelope::Flat("result"),
            id: field("tid"),
            desc: field("task"),
            reward: field("points"),
            reward_kind: RewardKind::Points,
            package: field("pkg"),
            url: field("url"),
            halt_at_first_entry: false,
        },
        IipId::AdGem => Schema {
            envelope: Envelope::Nested("data", "wall"),
            id: field("id"),
            desc: field("text"),
            reward: sub("reward", "points"),
            reward_kind: RewardKind::Points,
            package: field("bundle_id"),
            url: field("store_link"),
            halt_at_first_entry: false,
        },
        IipId::AyetStudios => Schema {
            envelope: Envelope::FlatWithStatus("offers"),
            id: field("offer_key"),
            desc: field("name"),
            reward: field("payout"),
            reward_kind: RewardKind::Points,
            package: field("package_id"),
            url: field("tracking_link"),
            halt_at_first_entry: false,
        },
        IipId::RankApp => Schema {
            envelope: Envelope::TopArray,
            id: field("rid"),
            desc: field("task"),
            reward: field("price_cents"),
            reward_kind: RewardKind::Cents,
            package: field("app"),
            url: field("gp_link"),
            halt_at_first_entry: false,
        },
    }
}

/// Last-parsed value of each schema slot for the entry being streamed.
/// Re-occurring keys overwrite — the same last-wins `Json::parse` gets
/// from `BTreeMap::insert`.
#[derive(Default)]
struct EntryAcc {
    id: Option<i64>,
    desc: Option<String>,
    reward_i: Option<i64>,
    reward_f: Option<f64>,
    package: Option<String>,
    url: Option<String>,
}

impl EntryAcc {
    fn finish(self, kind: RewardKind) -> Option<RawOffer> {
        Some(RawOffer {
            offer_key: self.id? as u64,
            description: self.desc?,
            reward: match kind {
                RewardKind::Usd => RewardValue::Usd(self.reward_f?),
                RewardKind::Points => RewardValue::Points(self.reward_i?),
                RewardKind::Cents => RewardValue::Cents(self.reward_i?),
            },
            package: self.package?,
            store_url: self.url?,
        })
    }
}

type Entries = (Vec<RawOffer>, usize);

/// Runs [`stream_document`] over `body` on a fresh scanner and adds the
/// events it yielded to `wire`'s `json_scanner_events`, whatever the
/// outcome.
fn walk(body: &str, sch: &Schema, wire: &WireCounters) -> Result<Option<Entries>, Halt> {
    let mut sc = Scanner::new(body);
    let walked = stream_document(&mut sc, sch);
    wire.add_json_events(sc.events());
    walked
}

/// Walks the whole document (every byte is validated, matching
/// `Json::parse`'s strictness); `Ok(None)` means valid JSON with the
/// wrong envelope.
fn stream_document(sc: &mut Scanner<'_>, sch: &Schema) -> Result<Option<Entries>, Halt> {
    let first = sc.next_event()?;
    let result = match (sch.envelope, first) {
        (Envelope::TopArray, Some(Event::StartArray)) => Some(parse_entries(sc, sch)?),
        (_, Some(Event::StartObject)) if !matches!(sch.envelope, Envelope::TopArray) => {
            stream_envelope_object(sc, sch)?
        }
        (_, Some(Event::StartArray | Event::StartObject)) => {
            skip_after_start(sc)?;
            None
        }
        // A scalar document can't hold the envelope; keep draining so
        // trailing-garbage errors win over the envelope error, as they
        // do for a reader that runs `Json::parse` up front.
        (_, Some(_)) => None,
        (_, None) => unreachable!("scanner yields at least one event or errors"),
    };
    drain(sc)?;
    Ok(result)
}

/// Scans the top-level envelope object of every non-array dialect.
fn stream_envelope_object(sc: &mut Scanner<'_>, sch: &Schema) -> Result<Option<Entries>, Halt> {
    let (entries_key, nested_inner, wants_status) = match sch.envelope {
        Envelope::Nested(outer, inner) => (outer, Some(inner), false),
        Envelope::Flat(key) => (key, None, false),
        Envelope::FlatWithStatus(key) => (key, None, true),
        Envelope::TopArray => unreachable!("handled by stream_document"),
    };
    let mut result: Option<Entries> = None;
    let mut status: Option<String> = None;
    loop {
        match sc.next_event()? {
            Some(Event::EndObject) => break,
            Some(Event::Key(k)) => {
                if k == entries_key {
                    result = match nested_inner {
                        Some(inner) => stream_inner_object(sc, sch, inner)?,
                        None => stream_entries_value(sc, sch)?,
                    };
                } else if wants_status && k == "status" {
                    status = next_string(sc)?;
                } else {
                    sc.skip_value()?;
                }
            }
            ev => unreachable!("object scan got {ev:?}"),
        }
    }
    if wants_status && status.as_deref() != Some("ok") {
        return Ok(None);
    }
    Ok(result)
}

/// Consumes the value under the outer envelope key; entries live one
/// object level down (`{inner: [entries]}`).
fn stream_inner_object(
    sc: &mut Scanner<'_>,
    sch: &Schema,
    inner: &str,
) -> Result<Option<Entries>, Halt> {
    match sc.next_event()? {
        Some(Event::StartObject) => {
            let mut result = None;
            loop {
                match sc.next_event()? {
                    Some(Event::EndObject) => return Ok(result),
                    Some(Event::Key(k)) if k == inner => {
                        result = stream_entries_value(sc, sch)?;
                    }
                    Some(Event::Key(_)) => sc.skip_value()?,
                    ev => unreachable!("object scan got {ev:?}"),
                }
            }
        }
        Some(Event::StartArray) => {
            skip_after_start(sc)?;
            Ok(None)
        }
        Some(_) => Ok(None),
        None => unreachable!("value follows a key"),
    }
}

/// Consumes the value under the entries key; it must be an array.
fn stream_entries_value(sc: &mut Scanner<'_>, sch: &Schema) -> Result<Option<Entries>, Halt> {
    match sc.next_event()? {
        Some(Event::StartArray) => Ok(Some(parse_entries(sc, sch)?)),
        Some(Event::StartObject) => {
            skip_after_start(sc)?;
            Ok(None)
        }
        Some(_) => Ok(None),
        None => unreachable!("value follows a key"),
    }
}

/// Streams the entries array (positioned just past its `[`).
fn parse_entries(sc: &mut Scanner<'_>, sch: &Schema) -> Result<Entries, Halt> {
    let mut offers = Vec::new();
    let mut skipped = 0usize;
    loop {
        match sc.next_event()? {
            Some(Event::EndArray) => return Ok((offers, skipped)),
            Some(_) if sch.halt_at_first_entry => return Err(Halt::FirstEntry),
            Some(Event::StartObject) => {
                let mut acc = EntryAcc::default();
                stream_entry_object(sc, sch, &mut acc)?;
                match acc.finish(sch.reward_kind) {
                    Some(offer) => offers.push(offer),
                    None => skipped += 1,
                }
            }
            Some(Event::StartArray) => {
                skip_after_start(sc)?;
                skipped += 1;
            }
            Some(_) => skipped += 1,
            None => unreachable!("array items precede EndArray"),
        }
    }
}

/// Streams one entry object into the accumulator.
fn stream_entry_object(
    sc: &mut Scanner<'_>,
    sch: &Schema,
    acc: &mut EntryAcc,
) -> Result<(), ParseError> {
    loop {
        match sc.next_event()? {
            Some(Event::EndObject) => return Ok(()),
            Some(Event::Key(k)) => {
                let k: &str = &k;
                if matches_top(sch.id, k) {
                    acc.id = next_i64(sc)?;
                } else if matches_top(sch.desc, k) {
                    acc.desc = next_string(sc)?;
                } else if matches_top(sch.reward, k) {
                    match sch.reward_kind {
                        RewardKind::Usd => acc.reward_f = next_f64(sc)?,
                        RewardKind::Points | RewardKind::Cents => acc.reward_i = next_i64(sc)?,
                    }
                } else if matches_top(sch.package, k) {
                    acc.package = next_string(sc)?;
                } else if matches_top(sch.url, k) {
                    acc.url = next_string(sc)?;
                } else if is_parent(sch, k) {
                    stream_sub_object(sc, sch, k, acc)?;
                } else {
                    sc.skip_value()?;
                }
            }
            ev => unreachable!("object scan got {ev:?}"),
        }
    }
}

/// Streams a named sub-object (`"app"`, `"reward"`). A repeated parent
/// key replaces the previous occurrence wholesale, so every slot under
/// it resets first.
fn stream_sub_object(
    sc: &mut Scanner<'_>,
    sch: &Schema,
    parent: &str,
    acc: &mut EntryAcc,
) -> Result<(), ParseError> {
    if matches_sub(sch.reward, parent, None) {
        acc.reward_i = None;
        acc.reward_f = None;
    }
    if matches_sub(sch.package, parent, None) {
        acc.package = None;
    }
    if matches_sub(sch.url, parent, None) {
        acc.url = None;
    }
    match sc.next_event()? {
        Some(Event::StartObject) => loop {
            match sc.next_event()? {
                Some(Event::EndObject) => return Ok(()),
                Some(Event::Key(k)) => {
                    let k: &str = &k;
                    if matches_sub(sch.reward, parent, Some(k)) {
                        match sch.reward_kind {
                            RewardKind::Usd => acc.reward_f = next_f64(sc)?,
                            RewardKind::Points | RewardKind::Cents => acc.reward_i = next_i64(sc)?,
                        }
                    } else if matches_sub(sch.package, parent, Some(k)) {
                        acc.package = next_string(sc)?;
                    } else if matches_sub(sch.url, parent, Some(k)) {
                        acc.url = next_string(sc)?;
                    } else {
                        sc.skip_value()?;
                    }
                }
                ev => unreachable!("object scan got {ev:?}"),
            }
        },
        Some(Event::StartArray) => skip_after_start(sc),
        Some(_) => Ok(()),
        None => unreachable!("value follows a key"),
    }
}

fn matches_top(f: Field, key: &str) -> bool {
    f.parent.is_none() && f.name == key
}

/// With `name == None`, asks whether `f` lives under `parent` at all;
/// with `Some`, whether it is exactly `parent.name`.
fn matches_sub(f: Field, parent: &str, name: Option<&str>) -> bool {
    f.parent == Some(parent) && name.is_none_or(|n| f.name == n)
}

fn is_parent(sch: &Schema, key: &str) -> bool {
    [sch.id, sch.desc, sch.reward, sch.package, sch.url]
        .iter()
        .any(|f| f.parent == Some(key))
}

// -- typed field readers: `Json::as_*` conversion rules on events ------

fn next_i64(sc: &mut Scanner<'_>) -> Result<Option<i64>, ParseError> {
    Ok(match sc.next_event()? {
        Some(Event::Int(i)) => Some(i),
        Some(Event::Float(f)) if f.fract() == 0.0 && f.abs() < 9e15 => Some(f as i64),
        Some(Event::StartArray | Event::StartObject) => {
            skip_after_start(sc)?;
            None
        }
        _ => None,
    })
}

fn next_f64(sc: &mut Scanner<'_>) -> Result<Option<f64>, ParseError> {
    Ok(match sc.next_event()? {
        Some(Event::Int(i)) => Some(i as f64),
        Some(Event::Float(f)) => Some(f),
        Some(Event::StartArray | Event::StartObject) => {
            skip_after_start(sc)?;
            None
        }
        _ => None,
    })
}

fn next_string(sc: &mut Scanner<'_>) -> Result<Option<String>, ParseError> {
    Ok(match sc.next_event()? {
        Some(Event::Str(s)) => Some(s.into_owned()),
        Some(Event::StartArray | Event::StartObject) => {
            skip_after_start(sc)?;
            None
        }
        _ => None,
    })
}

/// Consumes events up to and including the `End` matching an already
/// consumed `Start`.
fn skip_after_start(sc: &mut Scanner<'_>) -> Result<(), ParseError> {
    let mut depth = 1usize;
    loop {
        match sc.next_event()? {
            Some(Event::StartArray | Event::StartObject) => depth += 1,
            Some(Event::EndArray | Event::EndObject) => {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            }
            Some(_) => {}
            None => unreachable!("container closes before document end"),
        }
    }
}

/// Consumes the rest of the document, surfacing any syntax or
/// trailing-garbage error.
fn drain(sc: &mut Scanner<'_>) -> Result<(), ParseError> {
    while sc.next_event()?.is_some() {}
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fyber_page_parses() {
        let body = r#"{"ofw":{"count":2,"offers":[
            {"offer_id":1,"title":"Install and Launch","payout_usd":0.03,
             "package":"com.a.b","play_url":"https://play.iiscope/x"},
            {"offer_id":2,"title":"Install and Register","payout_usd":0.26,
             "package":"com.c.d","play_url":"https://play.iiscope/y"}
        ]}}"#;
        let page = parse_wall(IipId::Fyber, body, &WireCounters::new()).unwrap();
        assert_eq!(page.offers.len(), 2);
        assert_eq!(page.skipped, 0);
        assert_eq!(page.offers[0].reward, RewardValue::Usd(0.03));
        assert_eq!(page.offers[1].description, "Install and Register");
    }

    #[test]
    fn rankapp_top_level_array() {
        let body = r#"[{"rid":9,"task":"Install and run the application",
            "price_cents":1,"gp_link":"https://play.iiscope/z","app":"com.x.y"}]"#;
        let page = parse_wall(IipId::RankApp, body, &WireCounters::new()).unwrap();
        assert_eq!(page.offers.len(), 1);
        assert_eq!(page.offers[0].reward, RewardValue::Cents(1));
    }

    #[test]
    fn nested_schemas_parse() {
        let adscend = r#"{"adscend":{"entries":[{"uid":3,"description":"Install, sign up with email",
            "currency_count":120,"app":{"bundle":"com.q.r","market_url":"https://play.iiscope/q"}}]}}"#;
        let page = parse_wall(IipId::AdscendMedia, adscend, &WireCounters::new()).unwrap();
        assert_eq!(page.offers[0].package, "com.q.r");
        let adgem = r#"{"data":{"wall":[{"id":4,"text":"Install & complete level 5",
            "reward":{"points":900},"bundle_id":"com.g.h","store_link":"https://play.iiscope/g"}]}}"#;
        let page = parse_wall(IipId::AdGem, adgem, &WireCounters::new()).unwrap();
        assert_eq!(page.offers[0].reward, RewardValue::Points(900));
    }

    #[test]
    fn malformed_entries_are_skipped_not_fatal() {
        let body = r#"{"ofw":{"count":2,"offers":[
            {"offer_id":1,"title":"ok","payout_usd":0.1,"package":"a.b","play_url":"u"},
            {"title":"missing id and payout"}
        ]}}"#;
        let page = parse_wall(IipId::Fyber, body, &WireCounters::new()).unwrap();
        assert_eq!(page.offers.len(), 1);
        assert_eq!(page.skipped, 1);
    }

    #[test]
    fn wrong_envelope_is_fatal() {
        assert!(parse_wall(IipId::Fyber, "{}", &WireCounters::new()).is_err());
        assert!(parse_wall(IipId::RankApp, "{}", &WireCounters::new()).is_err());
        assert!(parse_wall(
            IipId::AyetStudios,
            r#"{"status":"error","offers":[]}"#,
            &WireCounters::new()
        )
        .is_err());
        assert!(parse_wall(
            IipId::AyetStudios,
            r#"{"status":"OK","offers":[]}"#,
            &WireCounters::new()
        )
        .is_err());
        // A repeated key wins with its last value, as in `Json::parse`.
        assert!(parse_wall(
            IipId::Fyber,
            r#"{"ofw":{"offers":[]},"ofw":5}"#,
            &WireCounters::new()
        )
        .is_err());
        assert!(parse_wall(
            IipId::Fyber,
            r#"{"ofw":5,"ofw":{"offers":[]}}"#,
            &WireCounters::new()
        )
        .is_ok());
        assert!(parse_wall(IipId::Fyber, "not json at all", &WireCounters::new()).is_err());
    }

    #[test]
    fn ayet_requires_ok_status() {
        let body = r#"{"status":"ok","offers":[{"offer_key":5,"name":"Install and Launch",
            "payout":44,"package_id":"com.m.n","tracking_link":"t"}]}"#;
        let page = parse_wall(IipId::AyetStudios, body, &WireCounters::new()).unwrap();
        assert_eq!(page.offers[0].offer_key, 5);
    }

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

    /// A Fyber page with no entries, 8 events, read to its end by the
    /// probe.
    const EMPTY_PAGE: &str = r#"{"ofw":{"offers":[]}}"#;

    /// Events a plain drain of `body` yields before it ends or errs.
    fn drained(body: &str) -> u64 {
        let mut sc = Scanner::new(body);
        while let Ok(Some(_)) = sc.next_event() {}
        sc.events()
    }

    /// The growth of `book`'s `json_scanner_events` across `f`.
    fn added(book: &WireCounters, f: impl FnOnce(&WireCounters)) -> u64 {
        let start = book.json_events();
        f(book);
        book.json_events() - start
    }

    /// Each `parse_wall` and `probe_wall` call adds the events its
    /// scanner yielded to the caller's book, once, on success and on
    /// error alike; a scanner by itself and `Json::parse` (TLS hellos,
    /// telemetry bodies) have no book to count into.
    #[test]
    fn scanner_events_reach_the_counter_once_per_scanner() {
        assert_eq!(drained(DOC), 12);
        assert_eq!(drained(PAGE), 32);
        assert_eq!(drained(EMPTY_PAGE), 8);
        let book = WireCounters::new();

        // A full parse adds every event of the page it read.
        let full = |b: &WireCounters| {
            assert_eq!(parse_wall(IipId::Fyber, PAGE, b).unwrap().offers.len(), 2)
        };
        assert_eq!(added(&book, full), 32);
        // A wrong envelope is read to its end and errs: all 12 events.
        let envelope = |b: &WireCounters| assert!(parse_wall(IipId::AyetStudios, DOC, b).is_err());
        assert_eq!(added(&book, envelope), 12);
        // A page that stops at a syntax error counts what it yielded:
        // `[`, 1, 2.
        let syntax = |b: &WireCounters| assert!(parse_wall(IipId::RankApp, "[1,2,x]", b).is_err());
        assert_eq!(added(&book, syntax), 3);
        assert_eq!(book.walls_streamed(), 1, "only the page that parsed");
        assert_eq!(book.offers_streamed(), 2);

        // The probe adds what it read: up to the first entry, the whole
        // of an empty page, or up to the error.
        let probe = |body: &'static str, want: Option<PageFill>| {
            move |b: &WireCounters| assert_eq!(probe_wall(IipId::Fyber, body, b).ok(), want)
        };
        assert_eq!(added(&book, probe(PAGE, Some(PageFill::HasEntries))), 6);
        assert_eq!(added(&book, probe(EMPTY_PAGE, Some(PageFill::Empty))), 8);
        assert_eq!(added(&book, probe("[1,2,x]", None)), 3);

        // Parses on concurrent threads lose no event.
        let shared = WireCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        full(&shared);
                        syntax(&shared);
                    }
                });
            }
        });
        assert_eq!(shared.json_events(), 4 * 250 * (32 + 3));
    }

    #[test]
    fn empty_pages_are_fine() {
        let page = parse_wall(IipId::HangMyAds, r#"{"result":[]}"#, &WireCounters::new()).unwrap();
        assert!(page.offers.is_empty());
        assert_eq!(page.skipped, 0);
    }
}
