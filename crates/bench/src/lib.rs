//! The one `BENCH_*.json` writer: every bench dump the workspace emits
//! (the seven `repro --timing` dumps, `BENCH_load.json`, and the soak
//! artifacts CI archives) is a [`wire::Json`](iiscope_wire::Json)
//! document built by [`document`] — the shared envelope fields plus
//! the caller's own — and written by [`write`], so consumers parse one
//! stable preamble and one serializer's output.
//!
//! [`oracles`] holds the reference implementations the production
//! crates replaced, for the tests and benches that compare against
//! them, and [`alloc`] the counting allocator the footprint tests
//! install.
//!
//! The Criterion bench fixtures live under `benches/` (see
//! `benches/fixture.rs`), not here: this library depends on no crate
//! above `iiscope-monitor`, so `repro` — which the heavy bench targets
//! dev-depend on — can link it without a cycle.

// Only `alloc`, the allocator, holds unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use iiscope_wire::Json;
use std::path::Path;

pub mod alloc;
pub mod oracles;

/// Schema version stamped into every `BENCH_*.json` document. Bump on
/// any incompatible change to the shared header fields or the format.
///
/// Version 2 documents are `Json::pretty` output: keys sorted,
/// floats at full precision. Version 1 was hand-formatted (fields in
/// emit order, seconds to three decimals).
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Peak resident set size of the current process, in bytes.
///
/// `VmHWM` from `/proc/self/status` on Linux; `None` elsewhere.
/// Re-exported from `iiscope_types::rss` so emitters and benches share
/// the exact sampler.
pub use iiscope_types::rss::peak_rss_bytes;

/// Builds a `BENCH_*.json` document: the caller's `fields` plus the
/// shared envelope — schema version, run identity (`scale`, `seed`,
/// `parallelism`) and the process's peak RSS at build time (`null`
/// where `/proc` is unavailable). Envelope keys win over a caller
/// field of the same name.
///
/// ```
/// let doc = iiscope_bench::document("paper", 42, 8, [("answer", 42u64.into())]);
/// assert_eq!(doc.get("answer").and_then(|v| v.as_i64()), Some(42));
/// assert_eq!(doc.get("seed").and_then(|v| v.as_i64()), Some(42));
/// ```
pub fn document<K: Into<String>>(
    scale: &str,
    seed: u64,
    parallelism: usize,
    fields: impl IntoIterator<Item = (K, Json)>,
) -> Json {
    let mut doc: std::collections::BTreeMap<String, Json> =
        fields.into_iter().map(|(k, v)| (k.into(), v)).collect();
    doc.extend([
        ("schema_version".to_string(), BENCH_SCHEMA_VERSION.into()),
        ("scale".to_string(), scale.into()),
        ("seed".to_string(), seed.into()),
        ("parallelism".to_string(), parallelism.into()),
        ("peak_rss_bytes".to_string(), peak_rss_bytes().into()),
    ]);
    Json::Object(doc)
}

/// Writes `doc` to `path` as [`Json::pretty`] text plus a trailing
/// newline.
pub fn write(path: impl AsRef<Path>, doc: &Json) -> std::io::Result<()> {
    std::fs::write(path, doc.pretty() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_carries_the_envelope_and_the_callers_fields() {
        let doc = document("paper:10", 42, 8, [("answer", Json::Int(7))]);
        assert_eq!(doc.get("schema_version").and_then(Json::as_i64), Some(2));
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some("paper:10"));
        assert_eq!(doc.get("seed").and_then(Json::as_i64), Some(42));
        assert_eq!(doc.get("parallelism").and_then(Json::as_i64), Some(8));
        assert!(doc.get("peak_rss_bytes").is_some());
        assert_eq!(doc.get("answer").and_then(Json::as_i64), Some(7));
        // A caller field cannot shadow the envelope.
        let doc = document("small", 1, 1, [("seed", Json::Int(99))]);
        assert_eq!(doc.get("seed").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn written_documents_parse_back() {
        let dir = std::env::temp_dir().join(format!("iiscope-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let doc = document("small", 7, 2, [("ratio", Json::Float(0.25))]);
        write(&path, &doc).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("}\n"));
        assert!(text.contains("\"ratio\": 0.25"));
        assert_eq!(Json::parse(&text).unwrap(), doc);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(write(dir.join("missing/x.json"), &doc).is_err());
    }
}
