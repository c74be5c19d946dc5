//! Dataset export — the repo's equivalent of the paper's public data
//! release ("we have also publicly shared our crawled data", §5.2).
//!
//! Three CSV files, mirroring what the authors could share: the offer
//! observations, the profile crawl, and the chart crawl. CSV writing
//! is implemented here (RFC-4180-style quoting) because the offline
//! dependency set has no csv crate. Rows stream straight into any
//! [`Write`] sink — a buffered file, an in-memory buffer, a digest —
//! and each writer returns the data rows it wrote, so a quoted field
//! holding a line break still counts as one row.

use crate::dataset::Dataset;
use crate::parsers::RewardValue;
use iiscope_types::Result;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes one CSV field, quoted if needed.
fn write_field(out: &mut impl Write, s: &str) -> io::Result<()> {
    if !s.contains([',', '"', '\n', '\r']) {
        return out.write_all(s.as_bytes());
    }
    out.write_all(b"\"")?;
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            out.write_all(b"\"\"")?;
        }
        out.write_all(part.as_bytes())?;
    }
    out.write_all(b"\"")
}

fn write_row(out: &mut impl Write, fields: &[&str]) -> io::Result<()> {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write_field(out, f)?;
    }
    out.write_all(b"\n")
}

/// Writes the offers CSV (one row per observation); returns the data
/// rows written.
pub fn write_offers_csv(ds: &Dataset, out: &mut impl Write) -> io::Result<usize> {
    write_row(
        out,
        &[
            "iip",
            "offer_key",
            "seen_day",
            "vantage",
            "affiliate",
            "package",
            "description",
            "reward",
            "store_url",
        ],
    )?;
    let mut rows = 0;
    for o in ds.offers() {
        let reward = match o.reward {
            RewardValue::Usd(v) => format!("usd:{v}"),
            RewardValue::Points(p) => format!("points:{p}"),
            RewardValue::Cents(c) => format!("cents:{c}"),
        };
        write_row(
            out,
            &[
                o.iip.name(),
                &o.offer_key.to_string(),
                &o.seen_at.days().to_string(),
                o.vantage.code(),
                o.affiliate,
                o.package,
                o.description,
                &reward,
                o.store_url,
            ],
        )?;
        rows += 1;
    }
    Ok(rows)
}

/// Writes the profiles CSV (one row per crawl snapshot); returns the
/// data rows written.
pub fn write_profiles_csv(ds: &Dataset, out: &mut impl Write) -> io::Result<usize> {
    write_row(
        out,
        &[
            "day",
            "package",
            "title",
            "genre",
            "released_day",
            "min_installs",
            "developer_id",
            "developer_name",
            "developer_country",
            "developer_website",
            "rating",
            "rating_count",
        ],
    )?;
    for p in ds.profiles() {
        write_row(
            out,
            &[
                &p.day.to_string(),
                p.package,
                p.title,
                p.genre_id,
                &p.released_day.to_string(),
                &p.min_installs.to_string(),
                &p.developer_id.to_string(),
                p.developer_name,
                p.developer_country,
                p.developer_website,
                &format!("{:.1}", p.rating),
                &p.rating_count.to_string(),
            ],
        )?;
    }
    Ok(ds.profiles().len())
}

/// Writes the charts CSV (one row per chart entry per crawl); returns
/// the data rows written.
pub fn write_charts_csv(ds: &Dataset, out: &mut impl Write) -> io::Result<usize> {
    write_row(out, &["day", "chart", "rank", "package"])?;
    let mut rows = 0;
    for c in ds.charts() {
        for (pkg, rank) in c.entries() {
            write!(out, "{},{},{rank},", c.day, c.chart)?;
            write_field(out, pkg)?;
            out.write_all(b"\n")?;
        }
        rows += c.entries().len();
    }
    Ok(rows)
}

/// Writes `offers.csv`, `profiles.csv` and `charts.csv` into `dir`
/// (created if missing), streaming each through a buffered file.
/// Returns the number of data rows written.
pub fn export_csv(ds: &Dataset, dir: &Path) -> Result<usize> {
    type Writer = fn(&Dataset, &mut BufWriter<std::fs::File>) -> io::Result<usize>;
    std::fs::create_dir_all(dir)
        .map_err(|e| iiscope_types::Error::InvalidState(format!("mkdir {dir:?}: {e}")))?;
    let mut rows = 0;
    let files: [(&str, Writer); 3] = [
        ("offers.csv", write_offers_csv),
        ("profiles.csv", write_profiles_csv),
        ("charts.csv", write_charts_csv),
    ];
    for (name, write) in files {
        let written = std::fs::File::create(dir.join(name)).and_then(|f| {
            let mut out = BufWriter::new(f);
            let n = write(ds, &mut out)?;
            out.flush()?;
            Ok(n)
        });
        rows += written
            .map_err(|e| iiscope_types::Error::InvalidState(format!("write {name}: {e}")))?;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders one CSV into a `String`.
    fn render(write: fn(&Dataset, &mut Vec<u8>) -> io::Result<usize>, ds: &Dataset) -> String {
        let mut out = Vec::new();
        write(ds, &mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("CSV fields are UTF-8")
    }

    fn offers_csv(ds: &Dataset) -> String {
        render(write_offers_csv, ds)
    }

    fn profiles_csv(ds: &Dataset) -> String {
        render(write_profiles_csv, ds)
    }

    fn charts_csv(ds: &Dataset) -> String {
        render(write_charts_csv, ds)
    }
    use crate::crawler::{ChartSnapshot, ProfileSnapshot};
    use crate::parsers::{RawOffer, RewardValue, ScrapedOffer};
    use iiscope_types::{Country, IipId, SimTime};

    fn offer() -> ScrapedOffer {
        ScrapedOffer {
            iip: IipId::Fyber,
            raw: RawOffer {
                offer_key: 9,
                description: "Install, \"register\", earn".into(),
                reward: RewardValue::Usd(0.25),
                package: "com.a.b".into(),
                store_url: "https://play.iiscope/x?id=com.a.b".into(),
            },
            seen_at: SimTime::from_days(3),
            affiliate: "com.cash,app".into(), // comma on purpose
            vantage: Country::De,
        }
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        ds.add_offers([offer()]);
        ds.add_profile(ProfileSnapshot {
            day: 3,
            package: "com.a.b".into(),
            title: "A, B".into(),
            genre_id: "TOOLS".into(),
            released_day: 1,
            min_installs: 100,
            developer_id: 4,
            developer_name: "Dev \"X\"".into(),
            developer_country: "DE".into(),
            developer_email: "d@x".into(),
            developer_website: String::new(),
            rating: 0.0,
            rating_count: 0,
        });
        ds.add_chart(ChartSnapshot {
            day: 3,
            chart: "topselling_free",
            entries: vec![("com.a.b".into(), 1)],
        });
        ds
    }

    #[test]
    fn csv_escaping_is_correct() {
        let ds = dataset();
        let offers = offers_csv(&ds);
        assert!(offers.contains("\"Install, \"\"register\"\", earn\""));
        assert!(offers.contains("\"com.cash,app\""));
        let profiles = profiles_csv(&ds);
        assert!(profiles.contains("\"A, B\""));
        assert!(profiles.contains("\"Dev \"\"X\"\"\""));
        let charts = charts_csv(&ds);
        assert!(charts.contains("3,topselling_free,1,com.a.b"));
    }

    #[test]
    fn export_writes_three_files() {
        let ds = dataset();
        let dir = std::env::temp_dir().join(format!("iiscope-export-{}", std::process::id()));
        let rows = export_csv(&ds, &dir).unwrap();
        assert_eq!(rows, 3, "one data row per file");
        for f in ["offers.csv", "profiles.csv", "charts.csv"] {
            let content = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(content.lines().count() >= 2, "{f} missing rows");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_counts_rows_not_lines() {
        // Quoted line breaks inside a field are one CSV row, not two.
        let mut ds = dataset();
        let mut multi = offer();
        multi.raw.description = "Install\nthen register\r\nand play".into();
        ds.add_offers([multi]);
        let dir = std::env::temp_dir().join(format!("iiscope-export-nl-{}", std::process::id()));
        let rows = export_csv(&ds, &dir).unwrap();
        assert_eq!(rows, 4, "two offers, one profile, one chart entry");
        let offers = std::fs::read_to_string(dir.join("offers.csv")).unwrap();
        assert_eq!(offers, offers_csv(&ds), "file and String renders agree");
        assert!(offers.contains("\"Install\nthen register\r\nand play\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_rows_are_stable() {
        let ds = Dataset::new();
        assert!(offers_csv(&ds).starts_with("iip,offer_key,seen_day,"));
        assert!(profiles_csv(&ds).starts_with("day,package,title,"));
        assert!(charts_csv(&ds).starts_with("day,chart,rank,package"));
    }
}
