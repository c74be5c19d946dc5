//! JSON: value model, parser, serializer.
//!
//! Offer walls answer the milkers with JSON bodies ("These responses
//! typically include offer details in JSON format containing offer
//! description, payout, and the advertised app's Google Play Store
//! profile", §4.1). The monitoring pipeline therefore needs a real JSON
//! implementation; since `serde_json` is outside the offline dependency
//! set, this module provides one:
//!
//! * [`Json`] — the value tree. Objects use [`BTreeMap`] so
//!   serialization order is deterministic, which keeps golden tests and
//!   capture logs stable across runs.
//! * [`Json::parse`] — a recursive-descent parser with a nesting-depth
//!   limit, full string escapes (including `\uXXXX` surrogate pairs),
//!   and strict trailing-garbage detection.
//! * `Json::to_string` (via `Display`) / [`Json::pretty`] /
//!   [`Json::to_bytes`] — serializers whose output re-parses to the
//!   same value (property-tested).
//! * [`Scanner`] — a streaming pull tokenizer over the same grammar.
//!   It yields [`Event`]s (strings borrowed from the input when they
//!   contain no escapes) without building the value tree, which is what
//!   the monitor's offer-wall parsers use on the milking hot path.
//!   `Json::parse` remains the reference implementation; a proptest
//!   harness asserts the two agree on accepts, rejects, and values.

use bytes::{BufMut, Bytes, BytesMut};
use iiscope_types::wirestats;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (parsed when the literal has no fraction or
    /// exponent and fits `i64`).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with deterministic (sorted) key order.
    Object(BTreeMap<String, Json>),
}

/// Maximum nesting depth accepted by the parser; beyond this the input
/// is rejected rather than risking stack exhaustion on adversarial
/// bodies.
pub const MAX_DEPTH: usize = 128;

/// Parse errors with byte offsets, so pipeline logs can point at the
/// offending spot of an intercepted body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for iiscope_types::Error {
    fn from(e: ParseError) -> Self {
        iiscope_types::Error::Decode(e.to_string())
    }
}

/// Integers become [`Json::Int`]; unsigned values above `i64::MAX`
/// saturate.
macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
            }
        }
    )*};
}
json_from_int!(i64, u32, u64, usize);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// `None` becomes [`Json::Null`].
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    // ---------------------------------------------------------------
    // Construction helpers
    // ---------------------------------------------------------------

    /// Builds an object from key/value pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer value (also accepts floats with zero fraction).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// Numeric value widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Object map.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    // ---------------------------------------------------------------
    // Parsing
    // ---------------------------------------------------------------

    /// Parses a complete JSON document (rejecting trailing garbage).
    pub fn parse(input: &str) -> Result<Json, ParseError> {
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

    // ---------------------------------------------------------------
    // Serialization
    // ---------------------------------------------------------------

    /// Pretty serialization with 2-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)
            .expect("String never fails");
        out
    }

    /// Compact serialization straight into a fresh shared buffer — the
    /// offer-wall render path writes through [`BytesMut`] so the body
    /// lands in an `ok_json` response without an intermediate `String`
    /// copy.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        self.write_bytes(&mut buf);
        buf.freeze()
    }

    /// Compact serialization appended to `buf`.
    pub fn write_bytes(&self, buf: &mut BytesMut) {
        let mut w = BytesWriter(buf);
        self.write(&mut w, None, 0).expect("BytesMut never fails");
    }

    fn write(&self, out: &mut impl fmt::Write, indent: Option<usize>, level: usize) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null")?,
            Json::Bool(true) => out.write_str("true")?,
            Json::Bool(false) => out.write_str("false")?,
            Json::Int(i) => write!(out, "{i}")?,
            Json::Float(f) => {
                if f.is_finite() {
                    // Ensure the literal re-parses as a float.
                    let s = format!("{f}");
                    out.write_str(&s)?;
                    if !s.contains(['.', 'e', 'E']) {
                        out.write_str(".0")?;
                    }
                } else {
                    // JSON has no Inf/NaN; emit null like serde_json's
                    // lossy mode would refuse — we document the choice.
                    out.write_str("null")?;
                }
            }
            Json::Str(s) => write_escaped(out, s)?,
            Json::Array(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, level + 1)?;
                    item.write(out, indent, level + 1)?;
                }
                if !items.is_empty() {
                    newline_indent(out, indent, level)?;
                }
                out.write_char(']')?;
            }
            Json::Object(map) => {
                out.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    newline_indent(out, indent, level + 1)?;
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    v.write(out, indent, level + 1)?;
                }
                if !map.is_empty() {
                    newline_indent(out, indent, level)?;
                }
                out.write_char('}')?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Json {
    /// Compact serialization (`value.to_string()` comes from this
    /// impl); writes directly into the formatter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None, 0)
    }
}

/// Adapts [`BytesMut`] to `fmt::Write` so the serializer can target a
/// shared buffer.
struct BytesWriter<'a>(&'a mut BytesMut);

impl fmt::Write for BytesWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.put_slice(s.as_bytes());
        Ok(())
    }
}

fn newline_indent(out: &mut impl fmt::Write, indent: Option<usize>, level: usize) -> fmt::Result {
    if let Some(n) = indent {
        out.write_char('\n')?;
        for _ in 0..n * level {
            out.write_char(' ')?;
        }
    }
    Ok(())
}

/// Writes `s` as a quoted JSON string. Bytes are scanned, and each run
/// that needs no escaping goes out in one `write_str`; every byte that
/// does (`"`, `\`, and the controls below 0x20) is ASCII, so run
/// boundaries always fall on `char` boundaries.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_char('"')?;
    let mut run = 0;
    let mut code = *b"\\u0000";
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => {
                code[4] = HEX[usize::from(b >> 4)];
                code[5] = HEX[usize::from(b & 0xF)];
                std::str::from_utf8(&code).expect("ASCII escape")
            }
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        out.write_str(escape)?;
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
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

// ---------------------------------------------------------------------
// Streaming tokenizer.
// ---------------------------------------------------------------------

/// One token from the streaming [`Scanner`].
///
/// Strings and object keys borrow straight from the input buffer when
/// they contain no escape sequences — on real offer-wall bodies (plain
/// package names, titles, URLs) that is nearly every string, so the
/// milking hot path allocates nothing per field.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer literal (same `Int`-vs-`Float` rule as [`Json::parse`]).
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String value (borrowed when escape-free).
    Str(Cow<'a, str>),
    /// Object key (borrowed when escape-free); always followed by the
    /// key's value events.
    Key(Cow<'a, str>),
    /// `[`
    StartArray,
    /// `]`
    EndArray,
    /// `{`
    StartObject,
    /// `}`
    EndObject,
}

/// Container state for the scanner's explicit nesting stack.
#[derive(Debug, Clone, Copy)]
enum Frame {
    Array { first: bool },
    Object { first: bool, awaiting_value: bool },
}

/// A pull tokenizer over the same strict grammar as [`Json::parse`]:
/// identical depth cap, number rules, escape handling, control-char
/// rejection, and trailing-garbage detection — but it never builds the
/// value tree.
///
/// Call [`Scanner::next_event`] until it returns `Ok(None)` (end of a
/// complete document). The trailing-garbage check fires on the call
/// *after* the document's last event, so consumers must drain to `None`
/// to get full validation.
#[derive(Debug)]
pub struct Scanner<'a> {
    input: &'a str,
    pos: usize,
    stack: Vec<Frame>,
    done: bool,
}

impl<'a> Scanner<'a> {
    /// Starts scanning `input`.
    pub fn new(input: &'a str) -> Scanner<'a> {
        Scanner {
            input,
            pos: 0,
            stack: Vec::new(),
            done: false,
        }
    }

    /// Byte offset of the scan cursor (for error reporting by callers).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Pulls the next token, `Ok(None)` once a complete document has
    /// been consumed (including the trailing-garbage check).
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        if self.done {
            self.skip_ws();
            if self.pos != self.input.len() {
                return Err(self.err("trailing characters"));
            }
            return Ok(None);
        }
        self.skip_ws();
        let ev = match self.stack.last().copied() {
            None => self.value_event()?,
            Some(Frame::Array { first }) => {
                if first {
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        self.stack.pop();
                        Event::EndArray
                    } else {
                        let i = self.stack.len() - 1;
                        self.stack[i] = Frame::Array { first: false };
                        self.skip_ws();
                        self.value_event()?
                    }
                } else {
                    match self.bump() {
                        Some(b',') => {
                            self.skip_ws();
                            self.value_event()?
                        }
                        Some(b']') => {
                            self.stack.pop();
                            Event::EndArray
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(Frame::Object {
                first,
                awaiting_value,
            }) => {
                if awaiting_value {
                    let i = self.stack.len() - 1;
                    self.stack[i] = Frame::Object {
                        first: false,
                        awaiting_value: false,
                    };
                    self.value_event()?
                } else if first {
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        self.stack.pop();
                        Event::EndObject
                    } else {
                        self.key_event()?
                    }
                } else {
                    match self.bump() {
                        Some(b',') => {
                            self.skip_ws();
                            self.key_event()?
                        }
                        Some(b'}') => {
                            self.stack.pop();
                            Event::EndObject
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
        };
        if self.stack.is_empty() {
            // A scalar at top level, or the final closing bracket:
            // the document is complete.
            self.done = true;
        }
        wirestats::add_json_events(1);
        Ok(Some(ev))
    }

    /// Consumes the next complete value — a scalar, or a whole
    /// container including everything nested inside it. Used by the
    /// schema-directed wall parsers to step over fields they don't
    /// extract.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        let mut depth = 0usize;
        loop {
            match self.next_event()? {
                None => return Err(self.err("unexpected end of input")),
                Some(Event::StartArray | Event::StartObject) => depth += 1,
                Some(Event::EndArray | Event::EndObject) => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Some(Event::Key(_)) => {}
                Some(_) => {
                    if depth == 0 {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Builds the [`Json`] tree for the next complete value from the
    /// event stream (duplicate object keys last-wins, matching
    /// `Json::parse`). Draining a fresh scanner with this plus a final
    /// `next_event` reproduces `Json::parse` exactly — the equivalence
    /// proptests lean on that.
    pub fn parse_value(&mut self) -> Result<Json, ParseError> {
        let ev = self
            .next_event()?
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.finish_value(ev)
    }

    fn finish_value(&mut self, ev: Event<'a>) -> Result<Json, ParseError> {
        Ok(match ev {
            Event::Null => Json::Null,
            Event::Bool(b) => Json::Bool(b),
            Event::Int(i) => Json::Int(i),
            Event::Float(f) => Json::Float(f),
            Event::Str(s) => Json::Str(s.into_owned()),
            Event::Key(_) | Event::EndArray | Event::EndObject => {
                unreachable!("scanner never starts a value with {ev:?}")
            }
            Event::StartArray => {
                let mut items = Vec::new();
                loop {
                    match self
                        .next_event()?
                        .ok_or_else(|| self.err("unexpected end of input"))?
                    {
                        Event::EndArray => break,
                        ev => items.push(self.finish_value(ev)?),
                    }
                }
                Json::Array(items)
            }
            Event::StartObject => {
                let mut map = BTreeMap::new();
                loop {
                    match self
                        .next_event()?
                        .ok_or_else(|| self.err("unexpected end of input"))?
                    {
                        Event::EndObject => break,
                        Event::Key(k) => {
                            let v = self.parse_inner_value()?;
                            map.insert(k.into_owned(), v);
                        }
                        _ => unreachable!("scanner yields Key/End inside objects"),
                    }
                }
                Json::Object(map)
            }
        })
    }

    fn parse_inner_value(&mut self) -> Result<Json, ParseError> {
        let ev = self
            .next_event()?
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.finish_value(ev)
    }

    // -- lexer internals: byte-identical behavior to `Parser` ----------

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
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

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("invalid literal, expected {lit}")))
        }
    }

    fn value_event(&mut self) -> Result<Event<'a>, ParseError> {
        // Same cap as `Parser::value`: a value nested inside more than
        // MAX_DEPTH containers is rejected.
        if self.stack.len() > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => {
                self.literal("null")?;
                Ok(Event::Null)
            }
            Some(b't') => {
                self.literal("true")?;
                Ok(Event::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Event::Bool(false))
            }
            Some(b'"') => Ok(Event::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                self.stack.push(Frame::Array { first: true });
                Ok(Event::StartArray)
            }
            Some(b'{') => {
                self.pos += 1;
                self.stack.push(Frame::Object {
                    first: true,
                    awaiting_value: false,
                });
                Ok(Event::StartObject)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn key_event(&mut self) -> Result<Event<'a>, ParseError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        let i = self.stack.len() - 1;
        self.stack[i] = Frame::Object {
            first: false,
            awaiting_value: true,
        };
        Ok(Event::Key(key))
    }

    /// Escape-free strings come back borrowed; the first backslash
    /// falls over to an owned buffer with `Parser::string`'s exact
    /// escape/surrogate/control-char rules.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => {
                    return Err(self.err("unterminated string"));
                }
                Some(b'"') => {
                    let s = &self.input[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(c) if c < 0x20 => {
                    self.pos += 1;
                    return Err(self.err("raw control char in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
        // Slow path: copy what we have, then decode escapes.
        let mut out = String::from(&self.input[start..self.pos]);
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(Cow::Owned(out)),
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
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(c);
                        let end = start + width;
                        if end > self.bytes().len() {
                            return Err(self.err("truncated utf-8"));
                        }
                        let s = std::str::from_utf8(&self.bytes()[start..end])
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

    fn number(&mut self) -> Result<Event<'a>, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
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
        let text = &self.input[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Event::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Event::Float)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Float(0.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("-1.5e-2").unwrap(), Json::Float(-0.015));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parse_structures() {
        let v = Json::parse(r#"{"offers":[{"payout":0.06,"desc":"Install and Launch"}],"n":1}"#)
            .unwrap();
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(1));
        let offers = v.get("offers").and_then(Json::as_array).unwrap();
        assert_eq!(offers.len(), 1);
        assert_eq!(
            offers[0].get("desc").and_then(Json::as_str),
            Some("Install and Launch")
        );
        assert_eq!(offers[0].get("payout").and_then(Json::as_f64), Some(0.06));
    }

    #[test]
    fn parse_escapes_and_unicode() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndA""#).unwrap(),
            Json::str("a\"b\\c\ndA")
        );
        // Surrogate pair: 😀 U+1F600.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::str("\u{1F600}"));
        // Raw multibyte UTF-8 passes through.
        assert_eq!(Json::parse("\"héllo €\"").unwrap(), Json::str("héllo €"));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "tru",
            "01",
            "1.",
            "1e",
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
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn serialize_compact_and_stable() {
        let v = Json::obj([
            ("b", Json::Int(2)),
            ("a", Json::arr([Json::Null, Json::Bool(true)])),
        ]);
        // Keys sort: deterministic output.
        assert_eq!(v.to_string(), r#"{"a":[null,true],"b":2}"#);
    }

    #[test]
    fn serialize_floats_reparse_as_floats() {
        let v = Json::Float(2.0);
        assert_eq!(v.to_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::obj([
            ("name", Json::str("Cash Time")),
            (
                "tasks",
                Json::arr([Json::str("survey"), Json::str("video")]),
            ),
            ("points", Json::Int(850)),
        ]);
        let pretty = v.pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn scalars_convert_into_values() {
        assert_eq!(Json::from(7u32), Json::Int(7));
        assert_eq!(Json::from(7usize), Json::Int(7));
        assert_eq!(Json::from(u64::MAX), Json::Int(i64::MAX));
        assert_eq!(Json::from(0.5), Json::Float(0.5));
        assert_eq!(Json::from(true), Json::Bool(true));
        assert_eq!(Json::from("x"), Json::str("x"));
        assert_eq!(Json::from(Some(3u64)), Json::Int(3));
        assert_eq!(Json::from(None::<u64>), Json::Null);
    }

    #[test]
    fn escaped_control_chars_round_trip() {
        let v = Json::str("\u{01}\u{1F}");
        let s = v.to_string();
        assert_eq!(s, "\"\\u0001\\u001f\"");
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    fn drain(input: &str) -> Result<(Vec<String>, Json), ParseError> {
        let mut sc = Scanner::new(input);
        let value = sc.parse_value()?;
        let mut labels = Vec::new();
        labels.push("drained".to_string());
        match sc.next_event()? {
            None => Ok((labels, value)),
            Some(ev) => panic!("extra event after document: {ev:?}"),
        }
    }

    #[test]
    fn scanner_yields_expected_events() {
        let mut sc = Scanner::new(r#"{"offers":[{"payout":0.06},7],"ok":true}"#);
        let mut evs = Vec::new();
        while let Some(ev) = sc.next_event().unwrap() {
            evs.push(ev);
        }
        assert_eq!(
            evs,
            vec![
                Event::StartObject,
                Event::Key(Cow::Borrowed("offers")),
                Event::StartArray,
                Event::StartObject,
                Event::Key(Cow::Borrowed("payout")),
                Event::Float(0.06),
                Event::EndObject,
                Event::Int(7),
                Event::EndArray,
                Event::Key(Cow::Borrowed("ok")),
                Event::Bool(true),
                Event::EndObject,
            ]
        );
    }

    #[test]
    fn scanner_strings_borrow_when_escape_free() {
        let input = r#"["com.cash.app","a\nb"]"#;
        let mut sc = Scanner::new(input);
        assert_eq!(sc.next_event().unwrap(), Some(Event::StartArray));
        match sc.next_event().unwrap() {
            Some(Event::Str(Cow::Borrowed(s))) => assert_eq!(s, "com.cash.app"),
            other => panic!("expected borrowed string, got {other:?}"),
        }
        match sc.next_event().unwrap() {
            Some(Event::Str(Cow::Owned(s))) => assert_eq!(s, "a\nb"),
            other => panic!("expected owned string, got {other:?}"),
        }
    }

    #[test]
    fn scanner_agrees_with_tree_parser() {
        for input in [
            "null",
            " 42 ",
            r#"{"a":1,"a":2}"#,
            r#"{"b":{"c":[1,2.5,"x"],"d":null},"a":[[]]}"#,
            r#"[{"k":"v\u0041"},true,false,-0.5e2]"#,
            "\"héllo 😀\"",
        ] {
            let (_, streamed) = drain(input).unwrap();
            assert_eq!(streamed, Json::parse(input).unwrap(), "input {input:?}");
        }
    }

    #[test]
    fn scanner_rejects_what_tree_parser_rejects() {
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
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail tree parse");
            assert!(drain(bad).is_err(), "{bad:?} should fail streaming parse");
        }
    }

    #[test]
    fn scanner_depth_cap_matches_parser() {
        let too_deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&too_deep).is_err());
        assert!(drain(&too_deep).is_err());
        let ok = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(Json::parse(&ok).is_ok(), drain(&ok).is_ok());
    }

    #[test]
    fn scanner_skip_value_steps_over_containers() {
        let mut sc = Scanner::new(r#"{"skip":{"deep":[1,{"x":2}]},"keep":9}"#);
        assert_eq!(sc.next_event().unwrap(), Some(Event::StartObject));
        assert_eq!(sc.next_event().unwrap(), Some(Event::Key("skip".into())));
        sc.skip_value().unwrap();
        assert_eq!(sc.next_event().unwrap(), Some(Event::Key("keep".into())));
        assert_eq!(sc.next_event().unwrap(), Some(Event::Int(9)));
        assert_eq!(sc.next_event().unwrap(), Some(Event::EndObject));
        assert_eq!(sc.next_event().unwrap(), None);
    }

    #[test]
    fn to_bytes_matches_to_string() {
        let v = Json::obj([
            ("b", Json::Int(2)),
            ("a", Json::arr([Json::Null, Json::str("x\ny")])),
        ]);
        assert_eq!(&v.to_bytes()[..], v.to_string().as_bytes());
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = Json::parse(r#"{"x":1}"#).unwrap();
        assert!(v.as_str().is_none());
        assert!(v.get("y").is_none());
        assert!(Json::Null.get("x").is_none());
        assert!(Json::Int(1).as_bool().is_none());
        assert_eq!(Json::Float(3.0).as_i64(), Some(3));
        assert_eq!(Json::Float(3.5).as_i64(), None);
    }
}
