//! The JSON serializer escapes strings in runs: it scans bytes and
//! writes each stretch that needs no escape in one piece. This file
//! keeps the char-at-a-time escaper it replaced as the oracle, and
//! checks that every serializer (`to_string`, `to_bytes`, `pretty`)
//! is byte-identical to a serializer built on it, for strings holding
//! every control byte, `"`, `\`, DEL and multi-byte UTF-8, in keys and
//! values alike.

use iiscope::subsystems::wire::Json;
use proptest::prelude::*;
use std::fmt::Write;

/// The reference escaper: one `char` at a time.
fn escape_oracle(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(n) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(n * level));
    }
}

/// The reference serializer: the document layout of `Json`'s writer
/// over [`escape_oracle`].
fn write_oracle(out: &mut String, v: &Json, indent: Option<usize>, level: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => write!(out, "{i}").unwrap(),
        Json::Float(f) => {
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Json::Str(s) => escape_oracle(out, s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_oracle(out, item, indent, level + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        Json::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                escape_oracle(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_oracle(out, v, indent, level + 1);
            }
            if !map.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
}

fn oracle(v: &Json, indent: Option<usize>) -> String {
    let mut out = String::new();
    write_oracle(&mut out, v, indent, 0);
    out
}

/// Characters the escaper must get right: every control byte, the
/// two escaped printables, DEL, plain ASCII, and 2-, 3- and 4-byte
/// UTF-8 (including U+2028, which JSON leaves unescaped).
fn pool() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '\u{7f}', '/', ' ', 'a', 'Z', '0', '{', ':']);
    chars.extend([
        '\u{e9}',
        '\u{7ff}',
        '\u{20ac}',
        '\u{2028}',
        '\u{fffd}',
        '\u{1f980}',
    ]);
    chars
}

fn arb_string() -> impl Strategy<Value = String> {
    let pool = pool();
    prop::collection::vec(any::<u32>(), 0..40).prop_map(move |picks| {
        picks
            .into_iter()
            .map(|p| pool[p as usize % pool.len()])
            .collect()
    })
}

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        (-1e15f64..1e15).prop_map(Json::Float),
        arb_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::arr),
            prop::collection::btree_map(arb_string(), inner, 0..5)
                .prop_map(|m| Json::Object(m.into_iter().collect())),
        ]
    })
}

proptest! {
    #[test]
    fn serializers_match_the_char_at_a_time_oracle(value in arb_json()) {
        let compact = oracle(&value, None);
        prop_assert_eq!(value.to_string(), compact.as_str());
        prop_assert_eq!(&value.to_bytes()[..], compact.as_bytes());
        prop_assert_eq!(value.pretty(), oracle(&value, Some(2)));
    }

    #[test]
    fn escaped_strings_match_the_oracle(key in arb_string(), text in arb_string()) {
        let value = Json::obj([(key.clone(), Json::str(text.clone()))]);
        let mut expected = String::from("{");
        escape_oracle(&mut expected, &key);
        expected.push(':');
        escape_oracle(&mut expected, &text);
        expected.push('}');
        prop_assert_eq!(value.to_string(), expected);
        prop_assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
    }
}

#[test]
fn every_byte_below_0x20_and_the_specials_escape_as_before() {
    let all: String = (0u8..0x80).map(char::from).collect();
    let mut expected = String::new();
    escape_oracle(&mut expected, &all);
    assert_eq!(Json::str(all.clone()).to_string(), expected);
    assert!(expected.starts_with(r#""\u0000\u0001"#));
    assert!(expected.contains(r#"\b\t\n\u000b\f\r\u000e"#));
    assert!(expected.contains(r##"\u001f !\"#$"##));
    assert!(expected.contains(r#"[\\]"#));
    assert!(expected.ends_with("}~\u{7f}\""));
}
