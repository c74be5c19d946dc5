//! Property-based tests over the core data structures and wire
//! formats: round-trips, exactness invariants, and parser robustness.

use iiscope::subsystems::netsim::{encode_frame, FrameDecoder};
use iiscope::subsystems::playstore::InstallBin;
use iiscope::subsystems::types::{rng as irng, SeedFork, Usd};
use iiscope::subsystems::wire::http::{Request, Response};
use iiscope::subsystems::wire::tls::{open_records, seal_records, RecordType};
use iiscope::subsystems::wire::Json;
use proptest::prelude::*;

/// Arbitrary JSON value generator (bounded depth).
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        // Finite floats only: JSON has no NaN/Inf.
        (-1e15f64..1e15).prop_map(Json::Float),
        "[a-zA-Z0-9 _\\-\\.\"\\\\/\u{00e9}\u{20ac}]{0,20}".prop_map(Json::str),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::arr),
            prop::collection::btree_map("[a-z]{1,8}", inner, 0..6)
                .prop_map(|m| Json::Object(m.into_iter().collect())),
        ]
    })
}

proptest! {
    #[test]
    fn json_round_trips(value in arb_json()) {
        let compact = value.to_string();
        let reparsed = Json::parse(&compact).expect("compact reparse");
        prop_assert!(json_eq(&value, &reparsed), "{compact}");
        prop_assert_eq!(parse_json_tree(&compact), Ok(reparsed));
        let pretty = value.pretty();
        let reparsed = Json::parse(&pretty).expect("pretty reparse");
        prop_assert!(json_eq(&value, &reparsed));
        prop_assert_eq!(parse_json_tree(&pretty), Ok(reparsed));
    }

    #[test]
    fn json_parser_never_panics(input in "\\PC{0,200}") {
        let _ = Json::parse(&input);
    }

    #[test]
    fn usd_display_parse_round_trips(micros in 0i64..10_000_000_000) {
        let usd = Usd::from_micros(micros);
        let text = usd.to_string();
        prop_assert_eq!(Usd::parse(&text).unwrap(), usd, "{}", text);
    }

    #[test]
    fn usd_split_is_exact(micros in 0i64..1_000_000_000, pct in 0u8..=100) {
        let total = Usd::from_micros(micros);
        let (share, rest) = total.split_percent(pct);
        prop_assert_eq!(share + rest, total);
        prop_assert!(!share.is_negative());
        prop_assert!(!rest.is_negative());
    }

    #[test]
    fn frames_survive_arbitrary_chunking(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..6),
        chunk in 1usize..64,
    ) {
        let mut wire = bytes::BytesMut::new();
        for p in &payloads {
            encode_frame(&mut wire, p);
        }
        let mut dec = FrameDecoder::new();
        for c in wire.chunks(chunk) {
            dec.extend(c);
        }
        let frames = dec.drain_frames().unwrap();
        prop_assert_eq!(frames.len(), payloads.len());
        for (f, p) in frames.iter().zip(&payloads) {
            prop_assert_eq!(f.as_ref(), &p[..]);
        }
    }

    #[test]
    fn tls_records_round_trip(key in any::<u64>(), payload in prop::collection::vec(any::<u8>(), 0..5000)) {
        let mut seq = 0;
        let wire = seal_records(key, &mut seq, RecordType::AppData, &payload);
        let mut recv = 0;
        prop_assert_eq!(open_records(key, &mut recv, &wire).unwrap(), payload);
        prop_assert_eq!(seq, recv);
    }

    #[test]
    fn tls_single_bitflip_always_detected(
        key in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 1..200),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut seq = 0;
        // Sealed records come back as shared `Bytes`; copy out to a
        // mutable buffer for tampering.
        let mut wire = seal_records(key.max(1), &mut seq, RecordType::AppData, &payload).to_vec();
        // Flip one bit in the body (skip the 3-byte header so the
        // record still frames — header corruption is detected as a
        // framing error instead).
        let idx = 3 + flip_byte.index(wire.len() - 3);
        wire[idx] ^= 1 << flip_bit;
        let mut recv = 0;
        prop_assert!(open_records(key.max(1), &mut recv, &wire).is_err());
    }

    #[test]
    fn http_request_round_trips(
        target in "/[a-z0-9/\\-_]{0,30}",
        body in prop::collection::vec(any::<u8>(), 0..500),
    ) {
        let req = Request::post(target.clone(), body.clone());
        let wire = req.encode();
        let (parsed, used) = Request::parse(&wire).unwrap().unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(parsed.target, target);
        prop_assert_eq!(parsed.body, body);
    }

    #[test]
    fn http_response_parser_never_panics(input in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = Response::parse(&input);
        let _ = Request::parse(&input);
    }

    #[test]
    fn install_bins_are_monotone(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(InstallBin::for_count(lo) <= InstallBin::for_count(hi));
        prop_assert!(InstallBin::for_count(a).lower_bound() <= a);
    }

    #[test]
    fn seed_fork_paths_are_stable_and_distinct(label in "[a-z]{1,12}", other in "[A-Z]{1,12}") {
        let root = SeedFork::new(99);
        prop_assert_eq!(root.fork(&label).seed(), root.fork(&label).seed());
        prop_assert_ne!(root.fork(&label).seed(), root.fork(&other).seed());
    }

    #[test]
    fn weighted_index_stays_in_bounds(weights in prop::collection::vec(0.0f64..10.0, 1..20), seed in any::<u64>()) {
        let mut rng = SeedFork::new(seed).rng();
        if let Some(i) = irng::weighted_index(&mut rng, &weights) {
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0);
        } else {
            prop_assert!(weights.iter().all(|w| *w <= 0.0));
        }
    }
}

// ---------------------------------------------------------------------------
// `Json::parse` (the streaming scanner) vs the reference parser.
//
// `Json::parse` runs on `JsonScanner`, the one production lexer. The
// reference, `iiscope_bench::oracles::parse_json_tree`, is the
// recursive-descent parser it replaced, and shares no lexer with the
// scanner, so agreement here is meaningful: both must accept the same
// documents, build the same trees, and reject the same garbage with
// the *same* error text and offset.
// ---------------------------------------------------------------------------

use iiscope::subsystems::monitor::parsers::parse_wall;
use iiscope::subsystems::types::wirestats::WireCounters;
use iiscope::subsystems::wire::json::MAX_DEPTH;
use iiscope_bench::oracles::{parse_json_tree, parse_wall_tree};

/// Longest prefix of `s` up to `idx` that ends on a char boundary.
fn truncate_at_char(s: &str, idx: &prop::sample::Index) -> usize {
    if s.is_empty() {
        return 0;
    }
    let mut cut = idx.index(s.len() + 1).min(s.len());
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    cut
}

/// A structurally valid Fyber-dialect wall page with fuzzed field
/// values (the schema reader must cope with any id/title/payout).
fn arb_fyber_wall() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (
            any::<i64>(),
            "[a-zA-Z \"\\\\]{0,12}",
            -1e6f64..1e6,
            "[a-z\\.]{1,15}",
        ),
        0..8,
    )
    .prop_map(|offers| {
        let arr: Vec<Json> = offers
            .into_iter()
            .map(|(id, title, payout, pkg)| {
                Json::obj([
                    ("offer_id", Json::Int(id)),
                    ("title", Json::str(title)),
                    ("payout_usd", Json::Float(payout)),
                    ("package", Json::str(pkg.clone())),
                    (
                        "play_url",
                        Json::str(format!("https://play.iiscope/store/apps/details?id={pkg}")),
                    ),
                ])
            })
            .collect();
        Json::obj([("ofw", Json::obj([("offers", Json::Array(arr))]))]).to_string()
    })
}

/// Every key some dialect reads, at entry level or in a sub-object,
/// plus `status` and a key no dialect reads.
const WALL_KEYS: &str = "offer_id title payout_usd package play_url id offer_desc amount \
    package_name link uid description currency_count app bundle market_url tid task points pkg \
    url text reward bundle_id store_link offer_key name payout package_id tracking_link rid \
    price_cents gp_link status x";

/// Entry field values: the scalars each reader converts or rejects, a
/// surrogate pair, and the containers a sub-object field reads (or a
/// scalar field skips), one with a duplicate key.
const WALL_VALUES: [&str; 14] = [
    "7",
    "-3",
    "2.5",
    "1e3",
    "null",
    "true",
    r#""com.a.b""#,
    r#""ok""#,
    r#""\ud83e\udd80""#,
    r#"{"bundle":"com.q.r","market_url":"u","points":5}"#,
    r#"{"points":1,"points":"2"}"#,
    r#"[1,{"points":2}]"#,
    "{}",
    "[]",
];

/// Lone and broken surrogate escapes, as JSON strings.
const WALL_SURROGATES: [&str; 4] = [
    r#""\ud800""#,
    r#""x\udc00""#,
    r#""\ud800\u0041""#,
    r#""\udbff""#,
];

/// What the envelope's `status` key holds.
const WALL_STATUS: [&str; 7] = [
    r#""ok""#,
    r#""OK""#,
    r#""error""#,
    "1",
    "null",
    r#"["ok"]"#,
    r#""o\u006b""#,
];

/// Text after the document: nothing or whitespace (half the picks, so
/// the other faults get to decide the result), or trailing garbage.
const WALL_TRAILERS: [&str; 12] = [
    "",
    "",
    "",
    "",
    " \n",
    " ",
    " x",
    "}",
    "]",
    ",",
    " 1",
    r#" "\ud800""#,
];

/// One entry object: `(key, value)` picks, so keys repeat.
fn arb_wall_entry() -> impl Strategy<Value = String> {
    let keys: Vec<&str> = WALL_KEYS.split_whitespace().collect();
    let pick = (0..keys.len(), 0..WALL_VALUES.len());
    prop::collection::vec(pick, 0..7).prop_map(move |kv| {
        let fields: Vec<String> = kv
            .into_iter()
            .map(|(k, v)| format!("\"{}\":{}", keys[k], WALL_VALUES[v]))
            .collect();
        format!("{{{}}}", fields.join(","))
    })
}

/// Pages built to test which error a malformed page reports first,
/// as `(dialect index, body)`: an envelope in the parsed dialect (half
/// the picks), in another one or a scalar document, then trailing
/// garbage; a `status` other than `"ok"`, before or after the entries;
/// nesting on either side of the depth cap, in an entry or beside the
/// envelope; a lone surrogate as an entry's or the envelope's key or
/// value; duplicate keys in entries, in sub-objects and at both
/// envelope levels.
fn arb_wall_error_case() -> impl Strategy<Value = (usize, String)> {
    let n = IipId::ALL.len();
    (
        (0..n, 0usize..4, 1..n),
        prop::collection::vec(arb_wall_entry(), 0..4),
        (0..WALL_STATUS.len(), 0usize..2, 0..WALL_TRAILERS.len()),
        (0usize..4, 0usize..4, MAX_DEPTH - 8..MAX_DEPTH + 4),
        (0usize..8, 0..WALL_SURROGATES.len()),
    )
        .prop_map(
            move |(iips, mut items, (status, at, trailer), faults, lone)| {
                let ((parse_as, written, other), (dup, deep_at, depth)) = (iips, faults);
                let (spot, lone) = (lone.0, WALL_SURROGATES[lone.1]);
                let written_as = match written {
                    0 | 1 => Some(IipId::ALL[parse_as]),
                    2 => Some(IipId::ALL[(parse_as + other) % n]),
                    _ => None,
                };
                let nested = "[".repeat(depth) + &"]".repeat(depth);
                match deep_at {
                    1 => items.push(format!("{{\"title\":{nested}}}")),
                    2 if written_as == Some(IipId::RankApp) => items.push(nested.clone()),
                    _ => {}
                }
                match spot {
                    0 => items.push(format!("{{\"title\":{lone}}}")),
                    1 => items.push(format!("{{{lone}:1}}")),
                    _ => {}
                }
                let array = format!("[{}]", items.join(","));
                let (outer, inner) = match written_as {
                    None => return (parse_as, r#""scalar""#.to_string() + WALL_TRAILERS[trailer]),
                    Some(IipId::RankApp) => return (parse_as, array + WALL_TRAILERS[trailer]),
                    Some(IipId::Fyber) => ("ofw", Some("offers")),
                    Some(IipId::OfferToro) => ("response", Some("offers")),
                    Some(IipId::AdscendMedia) => ("adscend", Some("entries")),
                    Some(IipId::AdGem) => ("data", Some("wall")),
                    Some(IipId::HangMyAds) => ("result", None),
                    Some(IipId::AyetStudios) => ("offers", None),
                };
                let value = match inner {
                    Some(inner) if dup == 3 => format!("{{\"{inner}\":{array},\"{inner}\":null}}"),
                    Some(inner) => format!("{{\"{inner}\":{array}}}"),
                    None => array,
                };
                let mut members = vec![format!("\"{outer}\":{value}")];
                match dup {
                    1 => members.push(format!("\"{outer}\":5")),
                    2 => members.insert(0, format!("\"{outer}\":[]")),
                    _ => {}
                }
                let status = format!("\"status\":{}", WALL_STATUS[status]);
                members.insert(if at == 0 { 0 } else { members.len() }, status);
                if deep_at == 2 {
                    members.push(format!("\"x\":{nested}"));
                }
                match spot {
                    2 => members.push(format!("{lone}:1")),
                    3 => members.push(format!("\"x\":{lone}")),
                    _ => {}
                }
                let body = format!("{{{}}}", members.join(","));
                (parse_as, body + WALL_TRAILERS[trailer])
            },
        )
}

proptest! {
    /// Round-tripped documents: the scanner rebuilds exactly the tree
    /// the reference parser builds, compact or pretty.
    #[test]
    fn scanner_matches_reference_on_round_trips(value in arb_json()) {
        for text in [value.to_string(), value.pretty()] {
            let reference = parse_json_tree(&text).expect("reference parse");
            let streamed = Json::parse(&text).expect("scanner parse");
            prop_assert_eq!(&streamed, &reference, "{}", text);
        }
    }

    /// Adversarial input: on *any* string the two parsers agree on
    /// Ok-ness, agree on the value, and report bit-identical errors
    /// (message and byte offset) — and neither panics.
    #[test]
    fn scanner_matches_reference_on_arbitrary_input(input in "\\PC{0,200}") {
        prop_assert_eq!(Json::parse(&input), parse_json_tree(&input), "{:?}", input);
    }

    /// Near-valid input: every char-boundary truncation of a document,
    /// compact and pretty, and the document with each of its
    /// characters in turn replaced by one grammar character, parse to
    /// the reference's value or error, message and offset alike.
    #[test]
    fn scanner_matches_reference_on_near_valid_json(
        value in arb_json(),
        grammar in any::<prop::sample::Index>(),
    ) {
        const GRAMMAR: [char; 9] = ['"', '\\', ',', ':', ']', '}', 'e', '-', '\u{01}'];
        let g = GRAMMAR[grammar.index(GRAMMAR.len())];
        for text in [value.to_string(), value.pretty()] {
            for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
                let s = &text[..cut];
                prop_assert_eq!(Json::parse(s), parse_json_tree(s), "{:?}", s);
            }
            for (i, c) in text.char_indices() {
                let s = format!("{}{g}{}", &text[..i], &text[i + c.len_utf8()..]);
                prop_assert_eq!(Json::parse(&s), parse_json_tree(&s), "{:?}", s);
            }
        }
    }

    /// The depth cap is honored identically: deep-nested bodies are
    /// rejected cleanly by both parsers, shallow ones accepted by both.
    #[test]
    fn scanner_depth_cap_matches_reference(depth in 1usize..300) {
        let input = "[".repeat(depth) + &"]".repeat(depth);
        let reference = parse_json_tree(&input);
        prop_assert_eq!(&Json::parse(&input), &reference);
        if depth > MAX_DEPTH + 1 {
            prop_assert!(reference.is_err(), "depth {depth} must trip the cap");
        }
        // Truncated deep nesting (all-open, no close) errors cleanly too.
        let open_only = "[".repeat(depth);
        prop_assert_eq!(Json::parse(&open_only), parse_json_tree(&open_only));
    }

    /// The schema-directed streaming `parse_wall` against the
    /// tree-building oracle, over valid pages, truncations of valid
    /// pages, arbitrary garbage and the error-order shapes of
    /// [`arb_wall_error_case`], for every IIP dialect: the two return
    /// the same values and the same error text, and nothing panics.
    #[test]
    fn wall_parsers_agree_everywhere(
        case in prop_oneof![
            (
                0usize..IipId::ALL.len(),
                prop_oneof![
                    arb_fyber_wall(),
                    arb_json().prop_map(|v| v.to_string()),
                    "\\PC{0,120}",
                ],
            ),
            arb_wall_error_case(),
        ],
        cut in any::<prop::sample::Index>(),
    ) {
        let (iip_idx, body) = case;
        let iip = IipId::ALL[iip_idx];
        let cut = truncate_at_char(&body, &cut);
        for s in [body.as_str(), &body[..cut]] {
            let fast = parse_wall(iip, s, &WireCounters::new());
            let reference = parse_wall_tree(iip, s);
            match (&fast, &reference) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "{:?}", s),
                (Err(x), Err(y)) => {
                    prop_assert_eq!(x.to_string(), y.to_string(), "{:?}", s)
                }
                _ => prop_assert!(
                    false,
                    "parse_wall and the oracle disagree on Ok-ness for {s:?}: {fast:?} vs {reference:?}"
                ),
            }
        }
    }
}

/// Fixed documents: `Json::parse` builds the reference's tree.
#[test]
fn parse_matches_reference_on_fixed_documents() {
    for input in [
        "null",
        " 42 ",
        r#"{"a":1,"a":2}"#,
        r#"{"b":{"c":[1,2.5,"x"],"d":null},"a":[[]]}"#,
        r#"[{"k":"v\u0041"},true,false,-0.5e2]"#,
        "\"héllo 😀\"",
    ] {
        let reference = parse_json_tree(input);
        assert!(reference.is_ok(), "{input:?} should parse");
        assert_eq!(Json::parse(input), reference, "input {input:?}");
    }
}

/// Fixed garbage: `Json::parse` rejects what the reference rejects,
/// with the same message and offset.
#[test]
fn parse_rejects_what_reference_rejects() {
    for bad in [
        "",
        "tru",
        "01",
        "1.",
        "{",
        "[1,",
        "[1 2]",
        "{\"a\"}",
        "\"\\x\"",
        "\"\\ud800\"",
        "nulll",
        "1 2",
        "{\"a\":1,}",
        "+1",
        "\u{01}",
    ] {
        let reference = parse_json_tree(bad);
        assert!(reference.is_err(), "{bad:?} should fail the reference");
        assert_eq!(Json::parse(bad), reference, "input {bad:?}");
    }
}

/// Either side of the depth cap: `Json::parse` accepts and rejects
/// exactly what the reference does.
#[test]
fn parse_depth_cap_matches_reference_at_the_edge() {
    let too_deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
    assert!(parse_json_tree(&too_deep).is_err());
    assert_eq!(Json::parse(&too_deep), parse_json_tree(&too_deep));
    let ok = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
    assert!(parse_json_tree(&ok).is_ok());
    assert_eq!(Json::parse(&ok), parse_json_tree(&ok));
}

// ---------------------------------------------------------------------------
// The fuzzer's scroll probe against the full wall parse.
// ---------------------------------------------------------------------------

use iiscope::subsystems::monitor::parsers::{probe_wall, PageFill};

/// One page as the wall handler renders it: `iip`'s wall stocked with
/// `n` worldwide offers at the given payout, page `page`.
fn rendered_wall_page(iip: IipId, n: usize, payout_micros: i64, page: usize) -> String {
    use iiscope::subsystems::attribution::ConversionGoal;
    use iiscope::subsystems::iip::{
        CampaignSpec, DeveloperApplication, IipPlatform, OfferWallHandler,
    };
    use iiscope::subsystems::netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
    use iiscope::subsystems::types::{DeveloperId, PackageName};
    use iiscope::subsystems::wire::http::RequestCtx;
    use iiscope::subsystems::wire::Handler;
    use std::sync::Arc;

    let p = Arc::new(IipPlatform::new(iip, SeedFork::new(n as u64)));
    p.register_developer(&DeveloperApplication {
        developer: DeveloperId(1),
        has_tax_id: true,
        has_bank_account: true,
        deposit: Usd::from_dollars(1_000_000),
    })
    .unwrap();
    for i in 0..n {
        p.create_campaign(
            CampaignSpec {
                developer: DeveloperId(1),
                package: PackageName::new(format!("com.probe.app{i}")).unwrap(),
                store_url: format!("https://play.iiscope/store/apps/details?id=com.probe.app{i}"),
                goal: ConversionGoal::InstallAndOpen,
                payout: Usd::from_micros(payout_micros),
                cap: 1,
                countries: vec![],
            },
            SimTime::EPOCH,
        )
        .unwrap();
    }
    let wall = OfferWallHandler::new(Arc::clone(&p));
    wall.register_affiliate("com.probe.affiliate", 1_000);
    let ctx = RequestCtx {
        peer: PeerInfo {
            addr: HostAddr {
                ip: std::net::Ipv4Addr::new(9, 9, 9, 9),
                asn: AsnId(1),
                asn_kind: AsnKind::Eyeball,
                country: Country::Us,
            },
            opened_at: SimTime::EPOCH,
            link: SeedFork::new(1),
        },
        now: SimTime::EPOCH,
    };
    let resp = wall.handle(
        &Request::get(format!("/offers?affiliate=com.probe.affiliate&page={page}")),
        &ctx,
    );
    assert_eq!(resp.status, 200);
    resp.body_text()
}

/// The verdict the probe must give, derived from the full parse:
/// `None` when `parse_wall` errs.
fn verdict_of_parse(iip: IipId, body: &str) -> Option<PageFill> {
    parse_wall(iip, body, &WireCounters::new())
        .ok()
        .map(|page| {
            if page.offers.is_empty() && page.skipped == 0 {
                PageFill::Empty
            } else {
                PageFill::HasEntries
            }
        })
}

proptest! {
    /// On every page a wall renders, the probe's verdict is the full
    /// parse's. On each truncation of a page it errs exactly while the
    /// cut falls before the first entry begins (the error lies in the
    /// prefix it reads), and reports entries from there on.
    #[test]
    fn probe_matches_the_full_parse_on_rendered_pages(
        iip_idx in 0usize..IipId::ALL.len(),
        n in 0usize..25,
        payout_micros in 1i64..5_000_000,
        page in 0usize..4,
        cut in any::<prop::sample::Index>(),
    ) {
        let iip = IipId::ALL[iip_idx];
        let body = rendered_wall_page(iip, n, payout_micros, page);
        let probed = probe_wall(iip, &body, &WireCounters::new()).ok();
        prop_assert_eq!(probed, verdict_of_parse(iip, &body), "{}", body);
        prop_assert_eq!(probed, Some(if n > page * 10 {
            PageFill::HasEntries
        } else {
            PageFill::Empty
        }));

        let cut = truncate_at_char(&body, &cut);
        let prefix = &body[..cut];
        let first_entry = body.find("[{").map(|i| i + 1);
        let want = match first_entry {
            Some(at) if cut > at => Some(PageFill::HasEntries),
            _ if cut == body.len() => probed,
            _ => None,
        };
        prop_assert_eq!(probe_wall(iip, prefix, &WireCounters::new()).ok(), want, "{:?}", prefix);
    }

    /// On the adversarial generators of `wall_parsers_agree_everywhere`
    /// the probe never says "empty" unless the full parse finds an
    /// empty page, and never rejects a page the full parse accepts.
    #[test]
    fn probe_never_contradicts_the_full_parse(
        iip_idx in 0usize..IipId::ALL.len(),
        body in prop_oneof![
            arb_fyber_wall(),
            arb_json().prop_map(|v| v.to_string()),
            "\\PC{0,120}",
        ],
        cut in any::<prop::sample::Index>(),
    ) {
        let iip = IipId::ALL[iip_idx];
        let cut = truncate_at_char(&body, &cut);
        for s in [body.as_str(), &body[..cut]] {
            let full = verdict_of_parse(iip, s);
            match probe_wall(iip, s, &WireCounters::new()) {
                Ok(PageFill::Empty) => prop_assert_eq!(full, Some(PageFill::Empty), "{:?}", s),
                Ok(PageFill::HasEntries) => {
                    prop_assert_ne!(full, Some(PageFill::Empty), "{:?}", s)
                }
                Err(_) => prop_assert_eq!(full, None, "{:?}", s),
            }
        }
    }
}

/// Structural equality that treats Int(n) and Float(n.0) as the same
/// number (the serializer may print either form for round floats).
fn json_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Object(x), Json::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && json_eq(va, vb))
        }
        (Json::Array(x), Json::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(va, vb)| json_eq(va, vb))
        }
        (x, y) => match (x.as_f64(), y.as_f64()) {
            (Some(fx), Some(fy)) => fx == fy,
            _ => x == y,
        },
    }
}

// ---------------------------------------------------------------------------
// CSV export: RFC-4180 round-trip through an independent parser.
// ---------------------------------------------------------------------------

/// Minimal RFC-4180 parser used only to *check* the exporter: handles
/// quoted fields, doubled quotes, and embedded commas/newlines/CRs.
fn parse_csv(input: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => row.push(std::mem::take(&mut field)),
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                '\r' => {} // exporter never emits bare CR outside quotes
                _ => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

use iiscope::subsystems::monitor::crawler::ProfileSnapshot;
use iiscope::subsystems::monitor::export::{
    write_charts_csv, write_offers_csv, write_profiles_csv,
};

/// Renders one of the dataset's CSVs into a `String`.
fn csv(write: fn(&Dataset, &mut Vec<u8>) -> std::io::Result<usize>, ds: &Dataset) -> String {
    let mut out = Vec::new();
    write(ds, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV fields are UTF-8")
}
use iiscope::subsystems::monitor::parsers::{RawOffer, RewardValue, ScrapedOffer};
use iiscope::subsystems::monitor::Dataset;
use iiscope::subsystems::playstore::engagement::{
    EngagementLedger, InstallEvent, InstallSignals, PackedInstall, MAX_TAG,
};
use iiscope::subsystems::types::{Country, IipId, SimTime};

proptest! {
    /// Every adversarial string placed in a CSV field must come back
    /// byte-identical through an independent RFC-4180 parser — commas,
    /// quotes, and embedded newlines included.
    #[test]
    fn csv_export_round_trips_adversarial_fields(
        description in "[a-zA-Z0-9 ,\"\n\r\\.\\-]{0,40}",
        affiliate in "[a-z\\.,\"]{1,20}",
        title in "[a-zA-Z ,\"]{1,30}",
    ) {
        let mut ds = Dataset::new();
        ds.add_offers([ScrapedOffer {
            iip: IipId::Fyber,
            raw: RawOffer {
                offer_key: 7,
                description: description.clone(),
                reward: RewardValue::Usd(0.5),
                package: "com.x.y".into(),
                store_url: "https://play.iiscope/x?id=com.x.y".into(),
            },
            seen_at: SimTime::from_days(2),
            affiliate: affiliate.clone(),
            vantage: Country::Us,
        }]);
        ds.add_profile(ProfileSnapshot {
            day: 2,
            package: "com.x.y".into(),
            title: title.clone(),
            genre_id: "TOOLS".into(),
            released_day: 1,
            min_installs: 10,
            developer_id: 1,
            developer_name: "dev".into(),
            developer_country: "US".into(),
            developer_email: "d@x".into(),
            developer_website: String::new(),
            rating: 4.25,
            rating_count: 12,
        });

        let offers = parse_csv(&csv(write_offers_csv, &ds));
        prop_assert_eq!(offers.len(), 2, "header + 1 data row");
        prop_assert_eq!(offers[0].len(), offers[1].len(), "rectangular");
        prop_assert_eq!(offers[1][4].as_str(), affiliate.as_str());
        prop_assert_eq!(offers[1][6].as_str(), description.as_str());

        let profiles = parse_csv(&csv(write_profiles_csv, &ds));
        prop_assert_eq!(profiles.len(), 2);
        prop_assert_eq!(profiles[0].len(), profiles[1].len());
        prop_assert_eq!(profiles[1][2].as_str(), title.as_str());
        prop_assert_eq!(profiles[1][10].as_str(), "4.2", "rating printed to 1 decimal");

        let charts = parse_csv(&csv(write_charts_csv, &ds));
        prop_assert_eq!(charts.len(), 1, "header only — no chart snapshots added");
    }

    /// The ledger's accounting identity: gross = public + filtered, no
    /// matter how installs are recorded (per-event or bulk) or how many
    /// enforcement passes run.
    #[test]
    fn ledger_accounting_identity_holds(
        events in prop::collection::vec((0u64..30, any::<bool>(), any::<bool>()), 0..40),
        bulk in 0u64..1000,
        filter_n in 0u64..60,
    ) {
        let mut l = EngagementLedger::new();
        let mut emulators = 0u64;
        for (day, emulator, rooted) in &events {
            let mut s = InstallSignals::clean(0x0A0B0C00);
            s.emulator = *emulator;
            s.rooted = *rooted;
            if *emulator { emulators += 1; }
            l.record_install(SimTime::from_days(*day), s, "tag");
        }
        l.record_installs_bulk(SimTime::from_days(0), bulk);
        let gross = l.gross_installs();
        prop_assert_eq!(gross, events.len() as u64 + bulk);

        let removed = l.filter_installs(filter_n, |e| e.signals.emulator);
        prop_assert!(removed <= filter_n);
        prop_assert_eq!(removed, filter_n.min(emulators), "removes exactly min(n, matching)");
        prop_assert_eq!(l.gross_installs(), gross, "filtering never changes gross");
        prop_assert_eq!(l.public_installs() + l.filtered_installs(), gross);

        // A second identical pass finds only the leftovers.
        let second = l.filter_installs(filter_n, |e| e.signals.emulator);
        prop_assert_eq!(removed + second, (2 * filter_n).min(emulators));

        // The all-days trailing window agrees with the event count.
        let w = l.trailing(SimTime::from_days(100), 100);
        prop_assert_eq!(w.installs, gross, "day buckets count every install once");
    }

    /// An install event packs into its 16-byte row and back unchanged:
    /// every flag combination, /24s 0 and `u32::MAX`, tag ids 0 and
    /// [`MAX_TAG`], times 0 and `u64::MAX` seconds, and random values
    /// of each.
    #[test]
    fn packed_install_rows_round_trip(
        block in any::<u32>(),
        tag in any::<u32>(),
        at in any::<u64>(),
    ) {
        for flags in 0u8..16 {
            for block24 in [0, u32::MAX, block] {
                for tag in [0, MAX_TAG, tag % (MAX_TAG + 1)] {
                    for at in [0, u64::MAX, at] {
                        let ev = InstallEvent {
                            at: SimTime::from_secs(at),
                            signals: InstallSignals {
                                emulator: flags & 1 != 0,
                                rooted: flags & 2 != 0,
                                datacenter_asn: flags & 4 != 0,
                                block24,
                            },
                            tag,
                            filtered: flags & 8 != 0,
                        };
                        prop_assert_eq!(PackedInstall::pack(&ev).unpack(), ev);
                    }
                }
            }
        }
    }

    /// Ratings clamp to 1..=5 stars, so the average always lies in
    /// [1, 5] and the count matches the number of recordings.
    #[test]
    fn rating_average_stays_in_star_range(stars in prop::collection::vec(0u8..=9, 1..50)) {
        let mut l = EngagementLedger::new();
        for s in &stars {
            l.record_rating(*s);
        }
        prop_assert_eq!(l.rating_count(), stars.len() as u64);
        let avg = l.average_rating().expect("ratings exist");
        prop_assert!((1.0..=5.0).contains(&avg), "average {avg} outside star range");
    }
}

use iiscope::aggregates::ReportAggregates;
use iiscope::checkpoint::{Snapshot, SnapshotRef};
use iiscope::subsystems::monitor::spill::{LogRow, RowLog, SpillManifest};
use iiscope::subsystems::types::frame::{Dec, Enc};
use iiscope::subsystems::wire::ClientState;
use proptest::test_runner::TestCaseError;

/// One generated observation: `(iip, key)`, `(package, description,
/// store-URL shape)`, `(affiliate, vantage, day)`, `(reward tag,
/// value)`. Few keys, so `(iip, key)` repeats.
type ObservationSpec = (
    (usize, u64),
    (String, String, usize),
    (String, usize, u64),
    (u8, i64),
);

fn arb_observation() -> impl Strategy<Value = ObservationSpec> {
    (
        (0usize..7, 0u64..5),
        ("[ab\u{e9}]{0,3}", "\\PC{0,10}", 0usize..4),
        ("[xy\u{20ac}]{0,2}", 0usize..6, 0u64..40),
        (0u8..3, any::<i64>()),
    )
}

/// The observation a spec stands for. Store URLs take four shapes: the
/// canonical one, two non-canonical spellings of it, and one unrelated
/// to the package, so a package's URL changes between rows.
fn observation(spec: ObservationSpec) -> ScrapedOffer {
    let ((iip, offer_key), (package, description, url_shape), (affiliate, vantage, day), reward) =
        spec;
    let store_url = match url_shape {
        0 => format!("https://play.iiscope/store/apps/details?id={package}"),
        1 => format!("https://play.iiscope/store/apps/details?id={package}&hl=de"),
        2 => format!("HTTP://Play.IIScope/store/apps/details?id={package}#"),
        _ => description.chars().rev().collect(),
    };
    let reward = match reward {
        (0, v) => RewardValue::Usd(v as f64 / 100.0),
        (1, v) => RewardValue::Points(v),
        (_, v) => RewardValue::Cents(v),
    };
    ScrapedOffer {
        iip: IipId::ALL[iip % IipId::ALL.len()],
        raw: RawOffer {
            offer_key,
            description,
            reward,
            package,
            store_url,
        },
        seen_at: SimTime::from_days(day),
        affiliate,
        vantage: Country::ALL[vantage % Country::ALL.len()],
    }
}

static SNAPSHOT_FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// A snapshot of `ds`'s logs; every other section is a fixed stand-in.
/// Written to a file through the streaming writer, its bytes must be
/// exactly its in-memory encoding.
fn snapshot_of(ds: &Dataset, aggregates: &ReportAggregates) -> Vec<u8> {
    let snapshot = SnapshotRef {
        day: 0,
        seed: 7,
        fingerprint: 0,
        sim_bytes: &[],
        crawler: ClientState {
            rng: rand::rngs::RngState {
                key: [0; 8],
                counter: 0,
                index: 0,
            },
            conn_seq: 0,
        },
        dataset: ds,
        chaos_counters: vec![],
        wire_counters: vec![],
        aggregates,
    };
    let bytes = snapshot
        .write_to(std::io::Cursor::new(Vec::new()))
        .expect("in memory")
        .into_inner();
    let n = SNAPSHOT_FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("iiscope-snapshot-{}-{n}", std::process::id()));
    snapshot
        .write_to(std::fs::File::create(&path).expect("temp file"))
        .expect("snapshot streams to a file");
    let streamed = std::fs::read(&path).expect("streamed snapshot");
    let _ = std::fs::remove_file(&path);
    assert!(
        streamed == bytes,
        "streamed snapshot differs from its encoding"
    );
    bytes
}

/// `ds` holds exactly `oracle`: iteration yields every observation.
/// Returns its snapshot.
fn check_offer_log(ds: &Dataset, oracle: &[ScrapedOffer]) -> Result<Vec<u8>, TestCaseError> {
    prop_assert_eq!(ds.offers().len(), oracle.len());
    prop_assert_eq!(
        ds.offers().collect::<Vec<_>>(),
        oracle.iter().map(ScrapedOffer::fields).collect::<Vec<_>>()
    );
    Ok(snapshot_of(ds, &ReportAggregates::new()))
}

/// An owned observation as its own log row: the segment-boundary
/// oracle. Its accounted size is the struct plus its four heap strings,
/// as the interned rows claim to keep; only its boundaries are
/// compared, so it writes no bytes.
#[derive(Debug)]
struct OwnedOffer(ScrapedOffer);

impl LogRow for OwnedOffer {
    type Ctx = ();
    type View<'a> = ();

    fn accounted_bytes(&self) -> usize {
        let o = &self.0;
        std::mem::size_of::<ScrapedOffer>()
            + o.raw.description.len()
            + o.raw.package.len()
            + o.raw.store_url.len()
            + o.affiliate.len()
    }

    fn encode(&self, _: &mut Enc) {}

    fn decode(_: &mut Dec<'_>, _: &()) -> Result<OwnedOffer, FrameError> {
        Err(FrameError::Codec("the layout oracle is never read back"))
    }

    fn view(&self, _: &()) {}
}

static PARITY_RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

proptest! {
    /// The interned offer log against a plain `Vec<ScrapedOffer>`
    /// oracle. Fully resident, under a 4 KiB budget, and restored from
    /// each one's own snapshot, every dataset iterates the input back
    /// unchanged, and the budgeted log closes its segments where a log
    /// of owned rows would.
    #[test]
    fn interned_offer_log_matches_a_vec_oracle(
        specs in prop::collection::vec(arb_observation(), 0..160),
        batch in 1usize..12,
    ) {
        let oracle: Vec<ScrapedOffer> = specs.into_iter().map(observation).collect();
        let run = PARITY_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("iiscope-offer-parity-{}-{run}", std::process::id()));
        let mut resident = Dataset::new();
        let mut budgeted = Dataset::new();
        budgeted.set_memory_budget(Some(4096), &dir, "parity");
        for milk in oracle.chunks(batch) {
            resident.add_offers(milk.to_vec());
            budgeted.add_offers(milk.to_vec());
        }
        prop_assert!(budgeted.spill_error().is_none());
        if oracle.len() >= 100 {
            prop_assert!(budgeted.spill_stats().spilled_segments > 0, "4 KiB must spill");
        }
        // The same spilled segments, by row count, as a log of owned
        // rows under the same budget: boundaries follow accounted bytes.
        let mut owned: RowLog<OwnedOffer> = RowLog::default();
        owned.configure(Some(4096), dir.join("owned-offers.spill"));
        for o in &oracle {
            owned.push(OwnedOffer(o.clone()));
        }
        let rows = |m: &SpillManifest| m.segments.iter().map(|s| s.rows).collect::<Vec<_>>();
        prop_assert_eq!(rows(owned.manifest()), rows(budgeted.offers_spill()));
        for ds in [&resident, &budgeted] {
            let bytes = check_offer_log(ds, &oracle)?;
            let snap = Snapshot::decode(&bytes).expect("own snapshot decodes");
            let restored = Dataset::new()
                .restored(snap.dataset)
                .expect("own snapshot restores");
            check_offer_log(&restored, &oracle)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

use iiscope::subsystems::monitor::ProfileFields;

/// One generated profile crawl: `(package, day)`, `(title, genre,
/// developer name)`, `(developer country, email, website)`, `(released
/// day, installs, developer id)`, `(rating, rating count)`. Few
/// packages, days and strings, so equal days and repeated strings are
/// common, and a package's strings change between some crawls.
type ProfileSpec = (
    (String, u64),
    (String, String, String),
    (String, String, String),
    (u64, u64, u64),
    (f64, u64),
);

fn arb_profile() -> impl Strategy<Value = ProfileSpec> {
    (
        ("[ab\u{e9}]{0,3}", 0u64..6),
        ("[xy\u{20ac}]{0,2}", "[A-C]{1}", "\\PC{0,6}"),
        ("[A-Z]{2}", "[de\u{fc}]{0,2}", "[w ]{0,2}"),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (-1e12f64..1e12, any::<u64>()),
    )
}

fn profile(spec: ProfileSpec) -> ProfileSnapshot {
    let (
        (package, day),
        (title, genre_id, developer_name),
        (developer_country, developer_email, developer_website),
        (released_day, min_installs, developer_id),
        (rating, rating_count),
    ) = spec;
    ProfileSnapshot {
        day,
        package,
        title,
        genre_id,
        released_day,
        min_installs,
        developer_id,
        developer_name,
        developer_country,
        developer_email,
        developer_website,
        rating,
        rating_count,
    }
}

/// `ds` holds exactly the crawls of `oracle`: `profiles()` yields them
/// in arrival order, each package's series is the oracle's rows of that
/// package stably sorted by day (by name and by symbol), and its first
/// crawl is the series head.
fn check_profile_log(ds: &Dataset, oracle: &[ProfileSnapshot]) -> Result<(), TestCaseError> {
    prop_assert_eq!(ds.profiles().len(), oracle.len());
    let all: Vec<ProfileFields> = ds.profiles().collect();
    let want: Vec<ProfileFields> = oracle.iter().map(ProfileSnapshot::fields).collect();
    prop_assert_eq!(all, want);
    let names: std::collections::BTreeSet<&str> =
        oracle.iter().map(|p| p.package.as_str()).collect();
    for name in names {
        let mut want: Vec<ProfileFields> = oracle
            .iter()
            .filter(|p| p.package == name)
            .map(ProfileSnapshot::fields)
            .collect();
        want.sort_by_key(|p| p.day);
        let sym = ds.pkg_sym(name).expect("crawled package is interned");
        prop_assert_eq!(&ds.profile_series(name), &want);
        prop_assert_eq!(&ds.profile_series_sym(sym), &want);
        prop_assert_eq!(ds.first_profile(name), want.first().copied());
        prop_assert_eq!(ds.first_profile_sym(sym), want.first().copied());
    }
    prop_assert!(ds.profile_series("never.crawled").is_empty());
    prop_assert!(ds.first_profile("never.crawled").is_none());
    Ok(())
}

proptest! {
    /// The interned profile log against a plain `Vec<ProfileSnapshot>`
    /// oracle. Crawls interleave with offer observations (so package
    /// symbols interleave too) into a resident dataset and one under a
    /// 4 KiB budget; both, and each restored from its own snapshot,
    /// answer every profile query as the oracle does.
    #[test]
    fn interned_profile_log_matches_a_vec_oracle(
        crawls in prop::collection::vec(arb_profile(), 0..120),
        specs in prop::collection::vec(arb_observation(), 0..120),
    ) {
        let oracle: Vec<ProfileSnapshot> = crawls.into_iter().map(profile).collect();
        let offers: Vec<ScrapedOffer> = specs.into_iter().map(observation).collect();
        let run = PARITY_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("iiscope-profile-parity-{}-{run}", std::process::id()));
        let mut resident = Dataset::new();
        let mut budgeted = Dataset::new();
        budgeted.set_memory_budget(Some(4096), &dir, "parity");
        for i in 0..oracle.len().max(offers.len()) {
            for ds in [&mut resident, &mut budgeted] {
                if let Some(o) = offers.get(i) {
                    ds.add_offers([o.clone()]);
                }
                if let Some(p) = oracle.get(i) {
                    ds.add_profile(p.clone());
                }
            }
        }
        prop_assert!(budgeted.spill_error().is_none());
        if offers.len() >= 100 {
            prop_assert!(budgeted.spill_stats().spilled_segments > 0, "4 KiB must spill");
        }
        for ds in [&resident, &budgeted] {
            check_profile_log(ds, &oracle)?;
            let snap = Snapshot::decode(&snapshot_of(ds, &ReportAggregates::new()))
                .expect("own snapshot decodes");
            let restored = Dataset::new()
                .restored(snap.dataset)
                .expect("own snapshot restores");
            prop_assert_eq!(restored.package_interner(), ds.package_interner());
            check_profile_log(&restored, &oracle)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

use iiscope::subsystems::monitor::crawler::ChartSnapshot;
use iiscope::subsystems::monitor::dataset::ChartView;
use iiscope::subsystems::playstore::ChartKind;

/// One generated chart crawl: `(day, chart)` and its `(package, rank)`
/// entries. Few days and packages, so days repeat within a chart and
/// packages repeat across charts; empty charts and non-ASCII packages
/// are common.
type ChartSpec = ((u64, usize), Vec<(String, usize)>);

fn arb_chart() -> impl Strategy<Value = ChartSpec> {
    (
        (0u64..12, 0usize..ChartKind::ALL.len()),
        prop::collection::vec(("[ab\u{e9}]{0,3}", 0usize..500), 0..30),
    )
}

fn chart((day, kind): (u64, usize), entries: Vec<(String, usize)>) -> ChartSnapshot {
    ChartSnapshot {
        day,
        chart: ChartKind::ALL[kind].id(),
        entries,
    }
}

/// The owned crawl a chart view stands for.
fn owned_chart(c: ChartView<'_>) -> ChartSnapshot {
    let entries = c.entries().map(|(p, r)| (p.to_string(), r)).collect();
    ChartSnapshot {
        day: c.day,
        chart: c.chart,
        entries,
    }
}

/// One step of an interleaved ingest: a milk batch or a chart crawl.
#[derive(Debug, Clone)]
enum Ingest {
    Offers(Vec<ObservationSpec>),
    Chart(ChartSpec),
}

/// `ds` holds exactly `charts` and the first observations `unique`:
/// every chart reader, every presence query and every unique-offer
/// reader answers as the oracle does. Returns its snapshot.
fn check_charts_and_unique(
    ds: &Dataset,
    charts: &[ChartSnapshot],
    unique: &[ScrapedOffer],
) -> Result<Vec<u8>, TestCaseError> {
    prop_assert_eq!(ds.charts().len(), charts.len());
    prop_assert_eq!(
        &ds.charts().map(owned_chart).collect::<Vec<_>>()[..],
        charts
    );
    for k in 0..=charts.len() + 1 {
        let from: Vec<ChartSnapshot> = ds.charts_from(k).map(owned_chart).collect();
        prop_assert_eq!(
            &from[..],
            &charts[k.min(charts.len())..],
            "charts_from({})",
            k
        );
    }
    let packages: std::collections::BTreeSet<&str> = charts
        .iter()
        .flat_map(|c| c.entries.iter().map(|(p, _)| p.as_str()))
        .collect();
    for pkg in packages.iter().copied().chain(["never.charted"]) {
        for kind in ChartKind::ALL {
            // Arrival order, then stably by day.
            let mut want: Vec<(u64, usize)> = charts
                .iter()
                .filter(|c| c.chart == kind.id())
                .flat_map(|c| {
                    c.entries
                        .iter()
                        .filter(|(p, _)| p == pkg)
                        .map(|&(_, rank)| (c.day, rank))
                })
                .collect();
            want.sort_by_key(|&(day, _)| day);
            prop_assert_eq!(ds.chart_presence(pkg, kind.id()), want);
        }
    }
    let days: std::collections::BTreeSet<u64> = charts.iter().map(|c| c.day).collect();
    prop_assert_eq!(ds.chart_days(), &days);
    let entries: usize = charts.iter().map(|c| c.entries.len()).sum();
    prop_assert_eq!(ds.chart_entries(), entries);

    prop_assert_eq!(ds.unique_offer_count(), unique.len());
    prop_assert_eq!(ds.unique_offers().len(), unique.len());
    let want: Vec<_> = unique.iter().map(ScrapedOffer::fields).collect();
    prop_assert_eq!(&ds.unique_offers().collect::<Vec<_>>(), &want);
    for start in 0..=unique.len() + 1 {
        let from: Vec<_> = ds.unique_offers_with_syms_from(start).collect();
        prop_assert_eq!(from.len(), unique.len().saturating_sub(start));
        for (o, pkg, desc) in from {
            prop_assert_eq!(ds.pkg_name(pkg), o.package);
            prop_assert_eq!(ds.description_interner().resolve(desc), o.description);
        }
    }
    let with_syms: Vec<_> = ds
        .unique_offers_with_syms_from(0)
        .map(|(o, _, _)| o)
        .collect();
    prop_assert_eq!(&with_syms, &want);

    Ok(snapshot_of(ds, &ReportAggregates::new()))
}

proptest! {
    /// The interned chart log and the resident unique offers against a
    /// `Vec<ChartSnapshot>` and a first-observation `Vec<ScrapedOffer>`
    /// oracle. Offers and charts interleave into a resident dataset and
    /// one under a 4 KiB budget; both, and each restored from its own
    /// snapshot, answer every chart and unique-offer query as the oracle
    /// does.
    #[test]
    fn interned_charts_and_unique_offers_match_vec_oracles(
        steps in prop::collection::vec(
            prop_oneof![
                prop::collection::vec(arb_observation(), 1..8).prop_map(Ingest::Offers),
                arb_chart().prop_map(Ingest::Chart),
            ],
            0..60,
        ),
    ) {
        let run = PARITY_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("iiscope-chart-parity-{}-{run}", std::process::id()));
        let mut resident = Dataset::new();
        let mut budgeted = Dataset::new();
        budgeted.set_memory_budget(Some(4096), &dir, "parity");
        let (mut charts, mut unique, mut seen) = (Vec::new(), Vec::new(), std::collections::BTreeSet::new());
        for step in steps {
            match step {
                Ingest::Offers(specs) => {
                    let milk: Vec<ScrapedOffer> = specs.into_iter().map(observation).collect();
                    for o in &milk {
                        if seen.insert((o.iip, o.raw.offer_key)) {
                            unique.push(o.clone());
                        }
                    }
                    resident.add_offers(milk.clone());
                    budgeted.add_offers(milk);
                }
                Ingest::Chart((at, entries)) => {
                    let c = chart(at, entries);
                    resident.add_chart(c.clone());
                    budgeted.add_chart(c.clone());
                    charts.push(c);
                }
            }
        }
        prop_assert!(budgeted.spill_error().is_none());
        if charts.iter().map(|c| c.entries.len()).sum::<usize>() >= 400 {
            prop_assert!(!budgeted.charts_spill().segments.is_empty(), "4 KiB must spill");
        }
        for ds in [&resident, &budgeted] {
            let bytes = check_charts_and_unique(ds, &charts, &unique)?;
            let snap = Snapshot::decode(&bytes).expect("own snapshot decodes");
            let restored = Dataset::new()
                .restored(snap.dataset)
                .expect("own snapshot restores");
            check_charts_and_unique(&restored, &charts, &unique)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

use iiscope::subsystems::netsim::{DropReason, FaultPlan, GilbertElliott, OutageWindow, Verdict};
use iiscope::subsystems::types::{chaosstats::ChaosCounters, SimDuration, SimTime as ChaosTime};

proptest! {
    /// The Gilbert–Elliott constructor must clamp arbitrary rates into
    /// [0, 1] — a plan built from hostile inputs is always a valid
    /// probability model.
    #[test]
    fn gilbert_elliott_rates_always_clamp(
        p_enter in -3.0f64..4.0,
        p_exit in -3.0f64..4.0,
        loss_good in -3.0f64..4.0,
        loss_bad in -3.0f64..4.0,
    ) {
        let ge = GilbertElliott::new(p_enter, p_exit, loss_good, loss_bad);
        for rate in [ge.p_enter(), ge.p_exit(), ge.loss_good(), ge.loss_bad()] {
            prop_assert!((0.0..=1.0).contains(&rate), "rate {rate} escaped [0,1]");
        }
    }

    /// Inside a scheduled outage window *nothing* is delivered — no
    /// seed, payload size or competing fault knob may sneak one
    /// through.
    #[test]
    fn outage_windows_never_deliver(
        seed in any::<u64>(),
        offset_secs in 0u64..86_400,
        len in 0usize..64,
    ) {
        let from = ChaosTime::from_days(10);
        let until = ChaosTime::from_days(11);
        let mut plan = FaultPlan::lossy(0.3, 0.2)
            .with_stall(0.2)
            .with_outage(OutageWindow::new(from, until));
        let mut rng = SeedFork::new(seed).rng();
        let mut payload = bytes::BytesMut::new();
        payload.extend_from_slice(&vec![7u8; len]);
        let now = from + SimDuration::from_secs(offset_secs);
        prop_assert_eq!(
            plan.apply(&mut rng, now, &mut payload, &ChaosCounters::new()),
            Verdict::Dropped(DropReason::Outage)
        );
    }

    /// Determinism root: the same `(seed, plan)` must produce the same
    /// verdict sequence, whatever mix of fault features is armed.
    #[test]
    fn same_seed_and_plan_give_identical_verdicts(
        seed in any::<u64>(),
        drop_chance in 0.0f64..0.5,
        corrupt_chance in 0.0f64..0.5,
        stall_chance in 0.0f64..0.3,
    ) {
        let run = || -> Vec<Verdict> {
            let mut plan = FaultPlan::lossy(drop_chance, corrupt_chance)
                .with_stall(stall_chance)
                .with_burst(GilbertElliott::new(0.1, 0.3, 0.01, 0.5))
                .with_truncation(0.1)
                .with_garbage(0.05);
            let mut rng = SeedFork::new(seed).rng();
            (0..50u64)
                .map(|i| {
                    let mut payload = bytes::BytesMut::new();
                    payload.extend_from_slice(&[i as u8; 16]);
                    plan.apply(&mut rng, ChaosTime::from_secs(i), &mut payload, &ChaosCounters::new())
                })
                .collect()
        };
        prop_assert_eq!(run(), run());
    }
}

// Symbol interner: round-trip, dedup, and stable first-insertion
// numbering — the invariants the seed-42 oracle leans on when the
// dataset joins on `Sym` instead of `String`.
proptest! {
    /// `resolve(intern(s)) == s` for every string in an arbitrary
    /// insertion multiset, and re-interning is the identity on `Sym`.
    #[test]
    fn interner_round_trips_and_dedups(
        strings in prop::collection::vec("[a-z0-9\\.]{0,24}", 0..64),
    ) {
        use iiscope::subsystems::types::Interner;
        let mut interner = Interner::new();
        let syms: Vec<_> = strings.iter().map(|s| interner.intern(s)).collect();
        for (s, &sym) in strings.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(sym), s.as_str());
            prop_assert_eq!(interner.intern(s), sym);
            prop_assert_eq!(interner.get(s), Some(sym));
        }
        // One symbol per distinct string, nothing more.
        let distinct: std::collections::BTreeSet<&str> =
            strings.iter().map(|s| s.as_str()).collect();
        prop_assert_eq!(interner.len(), distinct.len());
        // The slab holds exactly the distinct strings.
        prop_assert_eq!(
            interner.slab_bytes(),
            distinct.iter().map(|s| s.len()).sum::<usize>()
        );
    }

    /// Numbering is the first-insertion rank — a function of the
    /// first-occurrence sequence alone, never of capacity, duplicate
    /// pattern, or hash layout.
    #[test]
    fn interner_numbering_is_first_insertion_rank(
        strings in prop::collection::vec("[a-z]{0,12}", 0..64),
    ) {
        use iiscope::subsystems::types::Interner;
        let mut interner = Interner::new();
        for s in &strings {
            interner.intern(s);
        }
        // Expected numbering: order-preserving dedup of the input.
        let mut first_occurrence: Vec<&str> = Vec::new();
        for s in &strings {
            if !first_occurrence.contains(&s.as_str()) {
                first_occurrence.push(s);
            }
        }
        for (rank, s) in first_occurrence.iter().enumerate() {
            prop_assert_eq!(interner.get(s).map(|sym| sym.index()), Some(rank));
        }
        // Replaying only the first occurrences (no duplicates, and a
        // different starting capacity) reproduces the same table.
        let mut replay = Interner::with_capacity(first_occurrence.len(), 8);
        for s in &first_occurrence {
            replay.intern(s);
        }
        prop_assert_eq!(&interner, &replay);
        let via_iter: Vec<(u32, &str)> =
            interner.iter().map(|(sym, s)| (sym.0, s)).collect();
        let expected: Vec<(u32, &str)> = first_occurrence
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        prop_assert_eq!(via_iter, expected);
    }
}

// ---------------------------------------------------------------------------
// Snapshot frame codec (checkpointing): round-trips, corruption
// detection, decoding totality.

use iiscope::subsystems::types::frame::{FrameError, FrameReader, FrameWriter};

/// Every record of a frame file, validated.
fn read_all(buf: &[u8]) -> Result<Vec<&[u8]>, FrameError> {
    let mut reader = FrameReader::new(buf)?;
    let mut out = Vec::new();
    while let Some(payload) = reader.next_record()? {
        out.push(payload);
    }
    Ok(out)
}

/// The frame file holding `records`, written in memory.
fn frame_file(records: &[Vec<u8>]) -> Vec<u8> {
    let mut w = FrameWriter::new(std::io::Cursor::new(Vec::new())).expect("in memory");
    for r in records {
        w.record(r).expect("in memory");
    }
    w.finish().expect("in memory").into_inner()
}

/// Arbitrary record payloads for a frame file (including empty records
/// and an empty file).
fn arb_records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..12)
}

proptest! {
    /// Any sequence of payloads round-trips through the frame file
    /// byte-exactly, in order.
    #[test]
    fn frame_codec_round_trips(records in arb_records()) {
        let bytes = frame_file(&records);
        let back = read_all(&bytes).expect("clean file decodes");
        prop_assert_eq!(back.len(), records.len());
        for (got, want) in back.iter().zip(&records) {
            prop_assert_eq!(*got, want.as_slice());
        }
    }

    /// Flipping any single bit anywhere in a frame file is detected:
    /// decoding returns `Err`, never wrong data, never a panic.
    #[test]
    fn frame_codec_detects_any_single_bit_flip(
        records in arb_records(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = frame_file(&records);
        let at = pos.index(bytes.len());
        bytes[at] ^= 1 << bit;
        prop_assert!(
            read_all(&bytes).is_err(),
            "bit {bit} of byte {at} flipped undetected"
        );
    }

    /// Truncating a frame file at any point (torn write) is detected.
    #[test]
    fn frame_codec_detects_any_truncation(
        records in arb_records(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = frame_file(&records);
        let at = cut.index(bytes.len()); // 0..len: always a strict prefix
        prop_assert!(read_all(&bytes[..at]).is_err(), "cut at {at} undetected");
    }

    /// Decoding adversarial garbage is total: every outcome is an
    /// orderly `Err` (or a valid decode), never a panic.
    #[test]
    fn frame_codec_decoding_is_total(input in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = read_all(&input);
        let mut reader = match FrameReader::new(&input) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        while let Ok(Some(_)) = reader.next_record() {}
    }
}

/// A tag id past [`MAX_TAG`] has no room in a packed row; packing it
/// panics instead of truncating it into another campaign's id.
#[test]
#[should_panic(expected = "does not fit a packed install row")]
fn packing_refuses_a_tag_id_past_max_tag() {
    PackedInstall::pack(&InstallEvent {
        at: SimTime::EPOCH,
        signals: InstallSignals::clean(0),
        tag: MAX_TAG + 1,
        filtered: false,
    });
}
