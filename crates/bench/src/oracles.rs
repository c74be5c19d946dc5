//! Reference implementations the production crates replaced, kept as
//! test oracles and benchmark baselines. Nothing in the pipeline calls
//! them.
//!
//! * [`parse_json_tree`] — the recursive-descent JSON parser that
//!   `Json::parse` was before it ran on the streaming
//!   [`Scanner`](iiscope_wire::JsonScanner). It shares no lexer with
//!   the scanner, so `tests/proptests.rs` holds `Json::parse` to it on
//!   values, error text and byte offsets, and the `json` criterion
//!   group prices the production parse against it.
//! * [`parse_wall_tree`] — the parse-then-navigate wall parser, built
//!   on [`parse_json_tree`]. `tests/proptests.rs` holds the streaming
//!   [`iiscope_monitor::parse_wall`] to it on values and error text;
//!   the `wire_milking` criterion group prices the streaming walk
//!   against it.
//! * [`StringIndexedIngest`] — the `String`-keyed offer ingest that
//!   `Dataset::add_offers` performed before symbol interning; the
//!   `dataset_intern` criterion group measures the interned columnar
//!   ingest against it.

use iiscope_monitor::parsers::{PageParse, RawOffer, RewardValue, ScrapedOffer};
use iiscope_types::{IipId, SimTime};
use iiscope_wire::json::{ParseError, MAX_DEPTH};
use iiscope_wire::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Parses a complete JSON document (rejecting trailing garbage) with
/// the recursive-descent reference lexer. Returns exactly what
/// [`Json::parse`] returns, values and errors.
pub fn parse_json_tree(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal, expected {lit}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Array(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Object(map)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("lone high surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code).ok_or_else(|| self.err("bad surrogate pair"))?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(self.err("lone low surrogate"));
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("bad codepoint"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(c) => {
                    // Reassemble UTF-8 multibyte sequences: we're
                    // iterating bytes of a str, so this is always valid.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(c);
                        let end = start + width;
                        if end > self.bytes.len() {
                            return Err(self.err("truncated utf-8"));
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid utf-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("number out of range"))
    }
}

fn utf8_width(first: u8) -> usize {
    if first >= 0xF0 {
        4
    } else if first >= 0xE0 {
        3
    } else {
        2
    }
}

/// The tree-building wall parser: parse the whole body with
/// [`parse_json_tree`], then navigate the envelope. Returns exactly
/// what [`iiscope_monitor::parse_wall`] returns, values and error text.
pub fn parse_wall_tree(iip: IipId, body: &str) -> iiscope_types::Result<PageParse> {
    let json = parse_json_tree(body)
        .map_err(|e| iiscope_types::Error::Decode(format!("{iip} wall: {e}")))?;
    let entries: &[Json] = match iip {
        IipId::Fyber => json
            .get("ofw")
            .and_then(|o| o.get("offers"))
            .and_then(Json::as_array)
            .ok_or_else(|| bad_envelope(iip))?,
        IipId::OfferToro => json
            .get("response")
            .and_then(|o| o.get("offers"))
            .and_then(Json::as_array)
            .ok_or_else(|| bad_envelope(iip))?,
        IipId::AdscendMedia => json
            .get("adscend")
            .and_then(|o| o.get("entries"))
            .and_then(Json::as_array)
            .ok_or_else(|| bad_envelope(iip))?,
        IipId::HangMyAds => json
            .get("result")
            .and_then(Json::as_array)
            .ok_or_else(|| bad_envelope(iip))?,
        IipId::AdGem => json
            .get("data")
            .and_then(|o| o.get("wall"))
            .and_then(Json::as_array)
            .ok_or_else(|| bad_envelope(iip))?,
        IipId::AyetStudios => {
            if json.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(bad_envelope(iip));
            }
            json.get("offers")
                .and_then(Json::as_array)
                .ok_or_else(|| bad_envelope(iip))?
        }
        IipId::RankApp => json.as_array().ok_or_else(|| bad_envelope(iip))?,
    };

    let mut offers = Vec::with_capacity(entries.len());
    let mut skipped = 0;
    for entry in entries {
        match parse_entry(iip, entry) {
            Some(offer) => offers.push(offer),
            None => skipped += 1,
        }
    }
    Ok(PageParse { offers, skipped })
}

fn parse_entry(iip: IipId, v: &Json) -> Option<RawOffer> {
    match iip {
        IipId::Fyber => Some(RawOffer {
            offer_key: int_field(v, "offer_id")? as u64,
            description: str_field(v, "title")?,
            reward: RewardValue::Usd(v.get("payout_usd")?.as_f64()?),
            package: str_field(v, "package")?,
            store_url: str_field(v, "play_url")?,
        }),
        IipId::OfferToro => Some(RawOffer {
            offer_key: int_field(v, "id")? as u64,
            description: str_field(v, "offer_desc")?,
            reward: RewardValue::Points(int_field(v, "amount")?),
            package: str_field(v, "package_name")?,
            store_url: str_field(v, "link")?,
        }),
        IipId::AdscendMedia => {
            let app = v.get("app")?;
            Some(RawOffer {
                offer_key: int_field(v, "uid")? as u64,
                description: str_field(v, "description")?,
                reward: RewardValue::Points(int_field(v, "currency_count")?),
                package: str_field(app, "bundle")?,
                store_url: str_field(app, "market_url")?,
            })
        }
        IipId::HangMyAds => Some(RawOffer {
            offer_key: int_field(v, "tid")? as u64,
            description: str_field(v, "task")?,
            reward: RewardValue::Points(int_field(v, "points")?),
            package: str_field(v, "pkg")?,
            store_url: str_field(v, "url")?,
        }),
        IipId::AdGem => Some(RawOffer {
            offer_key: int_field(v, "id")? as u64,
            description: str_field(v, "text")?,
            reward: RewardValue::Points(int_field(v.get("reward")?, "points")?),
            package: str_field(v, "bundle_id")?,
            store_url: str_field(v, "store_link")?,
        }),
        IipId::AyetStudios => Some(RawOffer {
            offer_key: int_field(v, "offer_key")? as u64,
            description: str_field(v, "name")?,
            reward: RewardValue::Points(int_field(v, "payout")?),
            package: str_field(v, "package_id")?,
            store_url: str_field(v, "tracking_link")?,
        }),
        IipId::RankApp => Some(RawOffer {
            offer_key: int_field(v, "rid")? as u64,
            description: str_field(v, "task")?,
            reward: RewardValue::Cents(int_field(v, "price_cents")?),
            package: str_field(v, "app")?,
            store_url: str_field(v, "gp_link")?,
        }),
    }
}

fn bad_envelope(iip: IipId) -> iiscope_types::Error {
    iiscope_types::Error::Decode(format!("{iip} wall: unexpected envelope"))
}

fn str_field(v: &Json, key: &str) -> Option<String> {
    v.get(key)?.as_str().map(str::to_string)
}

fn int_field(v: &Json, key: &str) -> Option<i64> {
    v.get(key)?.as_i64()
}

#[derive(Debug)]
struct Agg {
    iips: BTreeSet<IipId>,
    first_seen: SimTime,
    last_seen: SimTime,
    keys: BTreeSet<(IipId, u64)>,
}

/// The pre-interning offer store (ingest surface only): four
/// owned-`String` tree indices, a `String`-keyed observation map, and
/// the original `contains`-then-`insert` double probes, verbatim.
#[derive(Debug, Default)]
pub struct StringIndexedIngest {
    offers: Vec<ScrapedOffer>,
    seen_offer_keys: BTreeSet<(IipId, u64)>,
    unique_offer_rows: Vec<usize>,
    descriptions: BTreeSet<String>,
    packages: BTreeSet<String>,
    packages_by_iip: BTreeMap<IipId, BTreeSet<String>>,
    packages_by_class: [BTreeSet<String>; 2],
    observations: BTreeMap<String, Agg>,
}

impl StringIndexedIngest {
    /// Empty store.
    pub fn new() -> StringIndexedIngest {
        StringIndexedIngest::default()
    }

    /// The pre-interning `Dataset::add_offers`, double probes and
    /// per-index key clones included.
    pub fn add_offers(&mut self, offers: impl IntoIterator<Item = ScrapedOffer>) {
        for o in offers {
            let row = self.offers.len();
            if !self.seen_offer_keys.contains(&(o.iip, o.raw.offer_key)) {
                self.seen_offer_keys.insert((o.iip, o.raw.offer_key));
                self.unique_offer_rows.push(row);
            }
            if !self.descriptions.contains(&o.raw.description) {
                self.descriptions.insert(o.raw.description.clone());
            }
            if !self.packages.contains(&o.raw.package) {
                self.packages.insert(o.raw.package.clone());
            }
            self.packages_by_iip
                .entry(o.iip)
                .or_default()
                .insert(o.raw.package.clone());
            self.packages_by_class[usize::from(o.iip.is_vetted())].insert(o.raw.package.clone());
            let agg = self
                .observations
                .entry(o.raw.package.clone())
                .or_insert_with(|| Agg {
                    iips: BTreeSet::new(),
                    first_seen: o.seen_at,
                    last_seen: o.seen_at,
                    keys: BTreeSet::new(),
                });
            agg.iips.insert(o.iip);
            agg.first_seen = agg.first_seen.min(o.seen_at);
            agg.last_seen = agg.last_seen.max(o.seen_at);
            agg.keys.insert((o.iip, o.raw.offer_key));
            self.offers.push(o);
        }
    }

    /// Raw rows ingested.
    pub fn len(&self) -> usize {
        self.offers.len()
    }

    /// Whether nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.offers.is_empty()
    }

    /// Deduplicated offer count.
    pub fn unique_offers(&self) -> usize {
        self.unique_offer_rows.len()
    }

    /// Distinct advertised packages.
    pub fn advertised_packages(&self) -> usize {
        self.packages.len()
    }

    /// Distinct offer descriptions.
    pub fn unique_descriptions(&self) -> usize {
        self.descriptions.len()
    }

    /// Per-package observation count.
    pub fn observations(&self) -> usize {
        self.observations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiscope_monitor::parsers::{RawOffer, RewardValue};
    use iiscope_monitor::Dataset;
    use iiscope_types::Country;

    /// The baseline must agree with the interned `Dataset` on every
    /// summary count — it is only a performance reference, never a
    /// second source of truth.
    #[test]
    fn baseline_agrees_with_the_interned_dataset() {
        let offers: Vec<ScrapedOffer> = (0..200)
            .map(|i| ScrapedOffer {
                iip: IipId::ALL[i % IipId::ALL.len()],
                raw: RawOffer {
                    offer_key: (i as u64) % 60,
                    description: format!("Install and reach level {}", i % 9),
                    reward: RewardValue::Cents(5),
                    package: format!("com.adv.app{}", i % 37),
                    store_url: String::new(),
                },
                seen_at: SimTime::from_days((i as u64) % 14),
                affiliate: "com.cash.app".into(),
                vantage: Country::Us,
            })
            .collect();
        let mut reference = StringIndexedIngest::new();
        reference.add_offers(offers.iter().cloned());
        let mut interned = Dataset::new();
        interned.add_offers(offers);
        assert_eq!(reference.len(), interned.offers().len());
        assert!(!reference.is_empty());
        assert_eq!(reference.unique_offers(), interned.unique_offers().len());
        assert_eq!(
            reference.advertised_packages(),
            interned.advertised_packages().len()
        );
        assert_eq!(
            reference.unique_descriptions(),
            interned.unique_descriptions().len()
        );
        assert_eq!(reference.observations(), interned.observations().len());
    }
}
