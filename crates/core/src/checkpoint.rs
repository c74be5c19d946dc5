//! Crash-safe checkpointing for the wild study.
//!
//! The paper's pipeline ran unattended for four months; ours loses the
//! whole run to any interruption of the in-memory day loop. This
//! module snapshots pipeline state at crawl-day boundaries into
//! durable files and restores the newest *valid* snapshot on resume.
//!
//! A snapshot does **not** serialize the world (Play Store ledgers,
//! IIP escrow, collector): the day loop splits into *sim* steps
//! (campaign starts, organic activity, delivery, enforcement, ends)
//! that are cheap, purely in-memory, and consume only the single
//! `"wildsim"` RNG, and *measurement* steps (milking, crawls) that are
//! expensive but world-read-only with independent seed lineages. So a
//! resume rebuilds the world from config (a pure function of the
//! seed), replays the sim steps up to the snapshot day — regenerating
//! Play/IIP state and the RNG bit-exactly — and restores only what
//! replay cannot reproduce: the dataset (with every symbol table its
//! rows resolve through, so symbol numbering survives), the chart
//! crawler's client state, the chaos/wire counter ledgers. The
//! snapshot's encoded sim section doubles as a verification oracle: the
//! replayed sim state must match it byte-for-byte or the resume is
//! refused.
//!
//! The dataset has one snapshot shape. [`SnapshotRef`] borrows the live
//! [`Dataset`] and streams its sections out, each row as the dataset
//! holds it (symbols as `u32`s); [`Snapshot::decode`] checks every row's
//! symbols against the SYMS tables and keeps the dataset sections as
//! one [`SavedDataset`], its rows still encoded, which
//! [`Dataset::restored`] turns back into a dataset one row at a time.
//!
//! Durability: snapshots are written to a temp file, fsynced, atomically
//! renamed into place, and the directory fsynced — a torn write leaves
//! either the previous snapshot set intact or a partial temp file that
//! is never considered. Corruption (bit flips, truncation) is caught by
//! the CRC framing of [`iiscope_types::frame`]; a corrupt newest
//! snapshot is logged and skipped back to the previous valid one.

use crate::aggregates::ReportAggregates;
use crate::config::WorldConfig;
use iiscope_monitor::spill::{SegRef, SpillManifest};
use iiscope_monitor::{Dataset, SavedDataset, SavedRows, SymTables};
use iiscope_types::fnv::fnv64;
use iiscope_types::frame::{Dec, Enc, FrameError, FrameReader, FrameWriter};
use iiscope_types::spillfile::SpillRef;
use iiscope_wire::ClientState;
use rand::rngs::RngState;
use std::fs::File;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};

/// Payload schema revision carried in the META section. Bump on any
/// layout change; decoding rejects unknown versions instead of
/// guessing. Version 2 added the SPILL section: the offer and chart
/// logs' disk-resident segments are checkpointed *by reference*
/// (file + per-segment CRC) instead of being re-serialized into every
/// snapshot, so snapshot cost tracks the resident suffix, not the
/// full run history. Version 3 added the AGGS section (incremental
/// report-aggregate state), which every snapshot carries. Version 4
/// writes rows as the dataset holds them, each symbol a `u32`, and its
/// SYMS section carries every table those symbols resolve through
/// (package, description, store URL, affiliate, profile strings); only
/// this version decodes.
pub const SNAPSHOT_VERSION: u32 = 4;

const SEC_META: u8 = 1;
const SEC_SIM: u8 = 2;
const SEC_SYMS: u8 = 3;
const SEC_OFFERS: u8 = 4;
const SEC_PROFILES: u8 = 5;
const SEC_CHARTS: u8 = 6;
const SEC_CRAWLER: u8 = 7;
const SEC_COUNTERS: u8 = 8;
const SEC_SPILL: u8 = 9;
const SEC_AGGS: u8 = 10;

/// A named counter ledger (the snapshot form of a world's wire and
/// chaos books).
pub type Ledger = Vec<(String, u64)>;

/// A decoded checkpoint snapshot: the measurement-side state restored
/// verbatim, plus the opaque sim-section bytes the deterministic
/// replay is verified against.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Last fully completed sim day.
    pub day: u64,
    /// World seed the run was started with.
    pub seed: u64,
    /// Fingerprint of the result-relevant configuration.
    pub fingerprint: u64,
    /// Encoded sim-side state (RNG position, offer runtimes, pending
    /// schedule, counters, clock) — compared byte-for-byte against the
    /// replayed state on resume, never decoded.
    pub sim_bytes: Vec<u8>,
    /// Chart crawler HTTP-client state (RNG + connection lineage).
    pub crawler: ClientState,
    /// The dataset's five sections (SYMS, SPILL, OFFERS, PROFILES,
    /// CHARTS), checked: what [`Dataset::restored`] rebuilds from.
    pub dataset: SavedDataset,
    /// Chaos counter ledger at snapshot time.
    pub chaos_counters: Ledger,
    /// Wire counter ledger at snapshot time.
    pub wire_counters: Ledger,
    /// Incremental report-aggregate state at snapshot time.
    pub aggregates: ReportAggregates,
}

/// A snapshot as the encoder reads it: every bulk part borrowed, so
/// the live study encodes straight from its own state without cloning
/// it. [`SnapshotRef::write_to`] is the only snapshot encoder.
#[derive(Debug)]
pub struct SnapshotRef<'a> {
    /// Last fully completed sim day.
    pub day: u64,
    /// World seed the run was started with.
    pub seed: u64,
    /// Fingerprint of the result-relevant configuration.
    pub fingerprint: u64,
    /// Encoded sim-side state (see [`Snapshot::sim_bytes`]).
    pub sim_bytes: &'a [u8],
    /// Chart crawler HTTP-client state.
    pub crawler: ClientState,
    /// The dataset: its symbol tables, its logs' spill manifests and
    /// their resident rows.
    pub dataset: &'a Dataset,
    /// Chaos counter ledger.
    pub chaos_counters: Vec<(&'a str, u64)>,
    /// Wire counter ledger.
    pub wire_counters: Vec<(&'a str, u64)>,
    /// Incremental report-aggregate state.
    pub aggregates: &'a ReportAggregates,
}

impl SnapshotRef<'_> {
    /// Writes the snapshot as a frame file to `out`, each section
    /// streaming through one [`WINDOW`](iiscope_types::frame::WINDOW):
    /// the bytes are the same whatever the sink, and no section is
    /// ever held whole.
    pub fn write_to<W: Write + Seek>(&self, out: W) -> io::Result<W> {
        let ds = self.dataset;
        let mut w = FrameWriter::new(out)?;
        w.record_with(|e| {
            e.u8(SEC_META)
                .u32(SNAPSHOT_VERSION)
                .u64(self.seed)
                .u64(self.fingerprint)
                .u64(self.day);
        })?;
        w.record_with(|e| {
            e.u8(SEC_SIM).bytes_field(self.sim_bytes);
        })?;
        w.record_with(|e| ds.symbol_tables().encode(e.u8(SEC_SYMS)))?;
        w.record_with(|e| {
            e.u8(SEC_SPILL);
            enc_manifest(e, ds.offers_spill());
            enc_manifest(e, ds.charts_spill());
        })?;
        // A row section: tag, row count, then every row in order.
        w.record_with(|e| ds.enc_offers(e.u8(SEC_OFFERS)))?;
        w.record_with(|e| ds.enc_profiles(e.u8(SEC_PROFILES)))?;
        w.record_with(|e| ds.enc_charts(e.u8(SEC_CHARTS)))?;
        w.record_with(|e| {
            e.u8(SEC_CRAWLER);
            enc_rng(e, &self.crawler.rng);
            e.u64(self.crawler.conn_seq);
        })?;
        w.record_with(|e| {
            e.u8(SEC_COUNTERS);
            enc_ledger(e, &self.chaos_counters);
            enc_ledger(e, &self.wire_counters);
        })?;
        w.record_with(|e| {
            e.u8(SEC_AGGS);
            self.aggregates.encode(e);
        })?;
        w.finish()
    }
}

/// Cumulative cost of checkpoint writes (and the resume replay) over a
/// run — surfaced by `repro --timing` as `BENCH_checkpoint.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointStats {
    /// Snapshots written this run.
    pub snapshots_written: u64,
    /// Size of the newest snapshot, bytes.
    pub last_bytes: u64,
    /// Sum of all snapshot sizes, bytes.
    pub total_bytes: u64,
    /// Wall-clock seconds spent encoding + durably writing snapshots.
    pub total_write_secs: f64,
    /// The encoding part of `total_write_secs`.
    pub encode_secs: f64,
    /// Day the run resumed from, when it did.
    pub resumed_from_day: Option<u64>,
    /// Wall-clock seconds the resume replay + verification took.
    pub replay_secs: f64,
}

/// Fingerprint of every configuration field that influences study
/// *results*. `parallelism` is deliberately excluded: the study is
/// bit-identical across worker counts, so a snapshot written at 8
/// workers legitimately resumes at 1 and vice versa. `memory_budget`
/// and `spill_dir` are excluded for the same reason — any budget
/// produces identical results, so a spilling run legitimately resumes
/// fully resident and vice versa. `scale` and `shards` *are* included:
/// both change the generated population and therefore the results.
pub fn config_fingerprint(cfg: &WorldConfig) -> u64 {
    let relevant = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        cfg.advertised_apps,
        cfg.baseline_apps,
        cfg.monitoring_days,
        cfg.crawl_cadence_days,
        cfg.honey_purchase,
        cfg.milk_countries,
        cfg.fuzzer_pages,
        cfg.enforcement,
        cfg.ranking,
        cfg.chart_size,
        cfg.walls_pin_certificates,
        cfg.companion_marketing,
        cfg.rating_offers,
        cfg.scale,
        cfg.shards,
    );
    fnv64(relevant.as_bytes())
}

impl Snapshot {
    /// Refuses a snapshot written under a different seed or a
    /// result-relevant configuration change.
    pub fn check_compatible(&self, cfg: &WorldConfig) -> Result<(), String> {
        if self.seed != cfg.seed {
            return Err(format!(
                "snapshot seed {} != configured seed {}",
                self.seed, cfg.seed
            ));
        }
        let want = config_fingerprint(cfg);
        if self.fingerprint != want {
            return Err(format!(
                "snapshot config fingerprint {:#018x} != current {:#018x} \
                 (result-relevant configuration changed since checkpoint)",
                self.fingerprint, want
            ));
        }
        Ok(())
    }

    /// Deserializes and fully validates a frame file. Total: corrupt or
    /// adversarial bytes return `Err`, never panic, never wrong data.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, FrameError> {
        let mut reader = FrameReader::new(bytes)?;
        let mut meta: Option<(u64, u64, u64)> = None;
        let mut sim_bytes: Option<Vec<u8>> = None;
        let mut syms: Option<SymTables> = None;
        let mut offers: Option<SavedRows> = None;
        let mut profiles: Option<SavedRows> = None;
        let mut charts: Option<SavedRows> = None;
        let mut crawler: Option<ClientState> = None;
        let mut counters: Option<(Ledger, Ledger)> = None;
        let mut spill: Option<(SpillManifest, SpillManifest)> = None;
        let mut aggregates: Option<ReportAggregates> = None;

        while let Some(payload) = reader.next_record()? {
            let mut d = Dec::new(payload);
            // Rows name their strings by symbol, so the tables (written
            // first) must already be decoded.
            let tables = || {
                syms.as_ref()
                    .ok_or(FrameError::Codec("rows before the SYMS section"))
            };
            match d.u8()? {
                SEC_META => {
                    if d.u32()? != SNAPSHOT_VERSION {
                        return Err(FrameError::Codec("unsupported snapshot version"));
                    }
                    meta = Some((d.u64()?, d.u64()?, d.u64()?));
                    d.finish()?;
                }
                SEC_SIM => {
                    sim_bytes = Some(d.bytes_field()?.to_vec());
                    d.finish()?;
                }
                SEC_SYMS => {
                    let tables = SymTables::decode(&mut d)?;
                    d.finish()?;
                    syms = Some(tables);
                }
                SEC_SPILL => {
                    let o = dec_manifest(&mut d)?;
                    let c = dec_manifest(&mut d)?;
                    d.finish()?;
                    spill = Some((o, c));
                }
                // Row sections: every row is checked, and the rows are
                // kept as the section's bytes.
                SEC_OFFERS => offers = Some(SavedRows::offers(&payload[1..], tables()?)?),
                SEC_PROFILES => profiles = Some(SavedRows::profiles(&payload[1..], tables()?)?),
                SEC_CHARTS => charts = Some(SavedRows::charts(&payload[1..], tables()?)?),
                SEC_CRAWLER => {
                    let rng = dec_rng(&mut d)?;
                    let conn_seq = d.u64()?;
                    d.finish()?;
                    crawler = Some(ClientState { rng, conn_seq });
                }
                SEC_COUNTERS => {
                    let chaos = dec_ledger(&mut d)?;
                    let wire = dec_ledger(&mut d)?;
                    d.finish()?;
                    counters = Some((chaos, wire));
                }
                SEC_AGGS => {
                    let aggs = ReportAggregates::decode(&mut d)?;
                    d.finish()?;
                    aggregates = Some(aggs);
                }
                _ => return Err(FrameError::Codec("unknown snapshot section")),
            }
        }

        let (seed, fingerprint, day) = meta.ok_or(FrameError::Codec("missing META section"))?;
        let syms = syms.ok_or(FrameError::Codec("missing SYMS section"))?;
        let (chaos_counters, wire_counters) =
            counters.ok_or(FrameError::Codec("missing COUNTERS section"))?;
        let (offers_spill, charts_spill) =
            spill.ok_or(FrameError::Codec("missing SPILL section"))?;
        Ok(Snapshot {
            day,
            seed,
            fingerprint,
            sim_bytes: sim_bytes.ok_or(FrameError::Codec("missing SIM section"))?,
            crawler: crawler.ok_or(FrameError::Codec("missing CRAWLER section"))?,
            dataset: SavedDataset {
                syms,
                offers_spill,
                offers: offers.ok_or(FrameError::Codec("missing OFFERS section"))?,
                profiles: profiles.ok_or(FrameError::Codec("missing PROFILES section"))?,
                charts_spill,
                charts: charts.ok_or(FrameError::Codec("missing CHARTS section"))?,
            },
            chaos_counters,
            wire_counters,
            aggregates: aggregates.ok_or(FrameError::Codec("missing AGGS section"))?,
        })
    }
}

fn enc_manifest(e: &mut Enc, m: &SpillManifest) {
    match &m.file {
        Some(path) => {
            e.u8(1).str(&path.to_string_lossy());
        }
        None => {
            e.u8(0);
        }
    }
    e.u64(m.segments.len() as u64);
    for s in &m.segments {
        let blob = s.blob;
        e.u64(s.rows)
            .u64(blob.offset)
            .u64(blob.len.into())
            .u32(blob.crc);
    }
}

fn dec_manifest(d: &mut Dec) -> Result<SpillManifest, FrameError> {
    let file = match d.u8()? {
        0 => None,
        1 => Some(PathBuf::from(d.str()?)),
        _ => return Err(FrameError::Codec("bad spill-file flag")),
    };
    let n = d.u64()?;
    let mut segments = Vec::new();
    for _ in 0..n {
        let rows = d.u64()?;
        let offset = d.u64()?;
        let len =
            u32::try_from(d.u64()?).map_err(|_| FrameError::Codec("spill segment over 4 GiB"))?;
        let blob = SpillRef {
            offset,
            len,
            crc: d.u32()?,
        };
        segments.push(SegRef { rows, blob });
    }
    if file.is_none() && !segments.is_empty() {
        return Err(FrameError::Codec("spill segments without a spill file"));
    }
    Ok(SpillManifest { file, segments })
}

fn enc_rng(e: &mut Enc, s: &RngState) {
    for k in s.key {
        e.u32(k);
    }
    e.u64(s.counter).u64(s.index as u64);
}

fn dec_rng(d: &mut Dec) -> Result<RngState, FrameError> {
    let mut key = [0u32; 8];
    for k in &mut key {
        *k = d.u32()?;
    }
    let counter = d.u64()?;
    let index = d.u64()?;
    if index > 64 {
        return Err(FrameError::Codec("rng buffer index out of range"));
    }
    Ok(RngState {
        key,
        counter,
        index: index as usize,
    })
}

fn enc_ledger(e: &mut Enc, ledger: &[(&str, u64)]) {
    e.u64(ledger.len() as u64);
    for (key, value) in ledger {
        e.str(key).u64(*value);
    }
}

fn dec_ledger(d: &mut Dec) -> Result<Ledger, FrameError> {
    let n = d.u64()?;
    let mut out = Vec::new();
    for _ in 0..n {
        let key = d.str()?.to_string();
        out.push((key, d.u64()?));
    }
    Ok(out)
}

/// Snapshot file name for a sim day: `snap-000042.ckpt`.
pub fn snapshot_path(dir: &Path, day: u64) -> PathBuf {
    dir.join(format!("snap-{day:06}.ckpt"))
}

fn day_from_path(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("snap-")?.strip_suffix(".ckpt")?;
    digits.parse().ok()
}

/// Durably writes the day-`day` snapshot in `dir`: `write` fills a
/// temp file, which is fsynced, atomically renamed into place, and the
/// directory fsynced, so a crash mid-write can only lose the snapshot
/// being written, never damage an existing one. A failed `write`
/// removes the temp file and renames nothing. Returns the bytes
/// written.
pub fn write_durable(
    dir: &Path,
    day: u64,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let finals = snapshot_path(dir, day);
    let tmp = dir.join(format!("snap-{day:06}.ckpt.tmp"));
    let written = File::create(&tmp).and_then(|mut f| {
        write(&mut f)?;
        let len = f.stream_position()?;
        f.sync_all()?;
        Ok(len)
    });
    let len = match written {
        Ok(len) => len,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    };
    std::fs::rename(&tmp, &finals)?;
    // Persist the rename itself. Directory fsync is POSIX-only; other
    // platforms settle for the file fsync above.
    #[cfg(unix)]
    {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(len)
}

/// What a checkpoint-directory scan found.
#[derive(Debug)]
pub struct Scan {
    /// Newest snapshot that decoded and validated, with its path.
    pub snapshot: Option<(Snapshot, PathBuf)>,
    /// Files that looked like snapshots but failed validation, newest
    /// first, with the reason each was skipped.
    pub skipped: Vec<(PathBuf, String)>,
    /// Snapshot-named files present in the directory.
    pub candidates: usize,
}

/// Scans `dir` for the newest valid snapshot, skipping (and logging)
/// corrupt or partial ones. A directory with no snapshot files at all
/// yields `snapshot: None, candidates: 0` — a fresh start, which is
/// what a crash-restart loop sees on its very first boot. `Err` says
/// why the directory could not be read at all.
pub fn load_latest(dir: &Path) -> Result<Scan, String> {
    let unreadable =
        |e: std::io::Error| format!("checkpoint dir unreadable: {}: {e}", dir.display());
    let mut days: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(unreadable)? {
        let entry = entry.map_err(unreadable)?;
        let path = entry.path();
        if let Some(day) = day_from_path(&path) {
            days.push((day, path));
        }
    }
    days.sort_by_key(|d| std::cmp::Reverse(d.0));
    let candidates = days.len();
    let mut skipped = Vec::new();
    for (_, path) in days {
        let decoded = match std::fs::read(&path) {
            Ok(bytes) => Snapshot::decode(&bytes).map_err(|e| ("corrupt", e.to_string())),
            Err(e) => Err(("unreadable", e.to_string())),
        };
        match decoded {
            Ok(snapshot) => {
                let snapshot = Some((snapshot, path));
                return Ok(Scan {
                    snapshot,
                    skipped,
                    candidates,
                });
            }
            Err((kind, why)) => {
                eprintln!(
                    "checkpoint: skipping {kind} snapshot {}: {why}",
                    path.display()
                );
                skipped.push((path, why));
            }
        }
    }
    Ok(Scan {
        snapshot: None,
        skipped,
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiscope_monitor::parsers::{RawOffer, RewardValue, ScrapedOffer};
    use iiscope_monitor::{ChartSnapshot, ProfileSnapshot};
    use iiscope_playstore::ChartKind;
    use iiscope_types::{Country, IipId, SimTime};
    use std::io::Cursor;

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "iiscope-ckpt-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn offer(key: u64) -> ScrapedOffer {
        let package = format!("com.app.n{}", key % 7);
        ScrapedOffer {
            iip: IipId::ALL[key as usize % IipId::ALL.len()],
            raw: RawOffer {
                offer_key: key,
                description: format!("Install and reach level {}", key % 3),
                reward: RewardValue::Usd(0.25),
                store_url: format!("https://play.iiscope/store/apps/details?id={package}"),
                package,
            },
            seen_at: SimTime::from_days(1500 + key / 10),
            affiliate: "com.cash.app".into(),
            vantage: Country::Us,
        }
    }

    /// Offers, a profile crawl and a chart, ingested interleaved. Given
    /// a directory, the dataset runs under an 8 KiB budget and spills
    /// its oldest offer segments there.
    fn sample_dataset(spill: Option<&Path>) -> Dataset {
        let mut ds = Dataset::new();
        if let Some(dir) = spill {
            ds.set_memory_budget(Some(8 << 10), dir, "sample");
        }
        ds.add_offers((0..30).map(offer));
        ds.add_profile(ProfileSnapshot {
            day: 1502,
            package: "com.app.n1".into(),
            title: "One".into(),
            genre_id: "TOOLS".into(),
            released_day: 1400,
            min_installs: 1000,
            developer_id: 7,
            developer_name: "Acme".into(),
            developer_country: "US".into(),
            developer_email: "a@acme.us".into(),
            developer_website: String::new(),
            rating: 4.25,
            rating_count: 31,
        });
        ds.add_chart(ChartSnapshot {
            day: 1502,
            chart: ChartKind::ALL[0].id(),
            entries: vec![("com.chart.only".into(), 1), ("com.app.n1".into(), 2)],
        });
        ds.add_offers((30..60).map(offer));
        ds
    }

    /// A genuinely folded aggregate state (not a hand-built one), so
    /// the snapshot round-trip exercises the real digest layout.
    fn aggregates_of(ds: &Dataset) -> ReportAggregates {
        let book = iiscope_monitor::RateBook::from_catalog(
            &iiscope_devices::AffiliateApp::table2_catalog(),
        );
        let mut aggs = ReportAggregates::new();
        aggs.fold_day(ds, &book);
        aggs
    }

    /// A day-6 snapshot of `ds`, every other section a fixed stand-in.
    fn sample<'a>(ds: &'a Dataset, aggregates: &'a ReportAggregates) -> SnapshotRef<'a> {
        SnapshotRef {
            day: 6,
            seed: 42,
            fingerprint: 0xABCD,
            sim_bytes: &[1, 2, 3, 4, 5],
            crawler: ClientState {
                rng: RngState {
                    key: [9; 8],
                    counter: 12,
                    index: 3,
                },
                conn_seq: 77,
            },
            dataset: ds,
            chaos_counters: vec![("retries", 3)],
            wire_counters: vec![("bytes_delivered", 912)],
            aggregates,
        }
    }

    /// The snapshot's frame file in memory.
    fn encode(snap: &SnapshotRef) -> Vec<u8> {
        snap.write_to(Cursor::new(Vec::new())).unwrap().into_inner()
    }

    fn sample_bytes() -> Vec<u8> {
        let ds = sample_dataset(None);
        encode(&sample(&ds, &aggregates_of(&ds)))
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = TempDir::new("round-trip");
        let ds = sample_dataset(Some(&dir.0));
        assert!(ds.offers_spill().segments.len() > 1, "the offer log spills");
        let aggs = aggregates_of(&ds);
        let snap = sample(&ds, &aggs);
        let bytes = encode(&snap);
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.day, snap.day);
        assert_eq!(back.seed, snap.seed);
        assert_eq!(back.fingerprint, snap.fingerprint);
        assert_eq!(back.sim_bytes, snap.sim_bytes);
        assert_eq!(back.crawler, snap.crawler);
        assert_eq!(back.chaos_counters, [("retries".to_string(), 3)]);
        assert_eq!(back.wire_counters, [("bytes_delivered".to_string(), 912)]);
        assert_eq!(back.aggregates, aggs);
        let saved = &back.dataset;
        assert_eq!(&saved.syms, ds.symbol_tables());
        assert_eq!(&saved.offers_spill, ds.offers_spill());
        assert_eq!(&saved.charts_spill, ds.charts_spill());

        // The restored dataset holds the same rows and writes the same
        // bytes.
        let restored = Dataset::new().restored(back.dataset).unwrap();
        assert_eq!(restored.package_interner(), ds.package_interner());
        assert_eq!(restored.description_interner(), ds.description_interner());
        assert_eq!(
            restored.offers().collect::<Vec<_>>(),
            ds.offers().collect::<Vec<_>>()
        );
        assert_eq!(
            restored.profiles().collect::<Vec<_>>(),
            ds.profiles().collect::<Vec<_>>()
        );
        // Chart views compare by their spelled-out content.
        assert_eq!(
            format!("{:?}", restored.charts().collect::<Vec<_>>()),
            format!("{:?}", ds.charts().collect::<Vec<_>>())
        );
        let again = SnapshotRef {
            dataset: &restored,
            ..sample(&ds, &aggs)
        };
        assert!(
            encode(&again) == bytes,
            "the restore re-encodes differently"
        );
    }

    /// Re-frames `bytes` record by record: `edit` maps each payload to
    /// its replacement, or drops it with `None`.
    fn reframe(bytes: &[u8], edit: impl Fn(&[u8]) -> Option<Vec<u8>>) -> Vec<u8> {
        let mut reader = FrameReader::new(bytes).unwrap();
        let mut w = FrameWriter::new(Cursor::new(Vec::new())).unwrap();
        while let Some(payload) = reader.next_record().unwrap() {
            if let Some(p) = edit(payload) {
                w.record(&p).unwrap();
            }
        }
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn streamed_sections_match_the_reference_layout_at_window_edges() {
        use iiscope_types::frame::{crc32, MAGIC, WINDOW};
        let ds = sample_dataset(None);
        let aggs = ReportAggregates::new();
        let dir = TempDir::new("edges");
        let path = dir.0.join("snap");
        let w = WINDOW;
        // The SIM record's payload is a tag, a 4-byte length and the
        // sim bytes: `len + 9` bytes, on each side of the window edges.
        for len in [
            0,
            1,
            w - 10,
            w - 9,
            w - 8,
            w - 1,
            w,
            w + 1,
            3 * w,
            3 * w + 1,
        ] {
            let sim: Vec<u8> = (0..len + 4).map(|i| i as u8 ^ 0x5A).collect();
            let snap = SnapshotRef {
                sim_bytes: &sim,
                ..sample(&ds, &aggs)
            };
            snap.write_to(File::create(&path).unwrap()).unwrap();
            let streamed = std::fs::read(&path).unwrap();
            assert!(
                streamed == encode(&snap),
                "len {len}: file and memory differ"
            );

            // The SIM payload as one in-memory buffer, and every record
            // framed by hand around its payload.
            let mut sim_record = Enc::new();
            sim_record.u8(SEC_SIM).bytes_field(&sim);
            assert_eq!(sim_record.bytes().len(), len + 9);
            let mut reader = FrameReader::new(&streamed).unwrap();
            let mut want = MAGIC.to_vec();
            let mut records = 0u64;
            let mut frame = |ty: u8, payload: &[u8]| {
                let mut head = vec![ty];
                head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                want.extend_from_slice(&head);
                want.extend_from_slice(&crc32(&[&head[..], payload].concat()).to_le_bytes());
                want.extend_from_slice(payload);
            };
            while let Some(p) = reader.next_record().unwrap() {
                let p = if p[0] == SEC_SIM {
                    sim_record.bytes()
                } else {
                    p
                };
                frame(0, p);
                records += 1;
            }
            frame(1, &records.to_le_bytes());
            assert!(streamed == want, "len {len}: streamed frame differs");
        }
    }

    #[test]
    fn only_version_4_snapshots_with_aggs_decode() {
        let bytes = sample_bytes();
        assert_eq!(reframe(&bytes, |p| Some(p.to_vec())), bytes);
        let err = |bytes: &[u8]| Snapshot::decode(bytes).err().map(|e| e.to_string());
        // v3 (rows with their strings in full), v2 (the pre-AGGS
        // layout) and an unknown future version are all refused, not
        // guessed at.
        for version in [2u32, 3, 5] {
            let relabelled = reframe(&bytes, |p| {
                let mut p = p.to_vec();
                if p[0] == SEC_META {
                    p[1..5].copy_from_slice(&version.to_le_bytes());
                }
                Some(p)
            });
            let got = err(&relabelled).unwrap_or_else(|| panic!("v{version} decoded"));
            assert!(
                got.contains("unsupported snapshot version"),
                "v{version}: {got}"
            );
        }
        // A v4 frame without its AGGS section is incomplete.
        let no_aggs = reframe(&bytes, |p| (p[0] != SEC_AGGS).then(|| p.to_vec()));
        assert!(no_aggs.len() < bytes.len());
        let got = err(&no_aggs).expect("a v4 frame without AGGS decoded");
        assert!(got.contains("missing AGGS section"), "{got}");
    }

    #[test]
    fn profiles_decode_only_after_syms() {
        // Profile rows name their strings by symbol, so a PROFILES
        // section ahead of SYMS is refused rather than resolved against
        // nothing.
        let bytes = sample_bytes();
        let mut reader = FrameReader::new(&bytes).unwrap();
        let mut records = Vec::new();
        while let Some(p) = reader.next_record().unwrap() {
            records.push(p.to_vec());
        }
        let at = |tag| records.iter().position(|p| p[0] == tag).unwrap();
        let (syms, profiles) = (at(SEC_SYMS), at(SEC_PROFILES));
        records.swap(syms, profiles);
        let mut w = FrameWriter::new(Cursor::new(Vec::new())).unwrap();
        for p in &records {
            w.record(p).unwrap();
        }
        let bytes = w.finish().unwrap().into_inner();
        let err = Snapshot::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("rows before the SYMS section"), "{err}");
    }

    #[test]
    fn a_row_naming_a_symbol_past_its_table_is_refused() {
        // Empty and non-ASCII strings in every table; each table's last
        // symbol is named by a row of one section only: the chart's
        // package, an offer's description, store URL and affiliate, a
        // profile's website.
        let mut ds = sample_dataset(None);
        let mut last = offer(60);
        last.raw.description = "Installez et jouez \u{e0} \u{20ac}".into();
        last.raw.store_url = String::new();
        last.affiliate = "\u{fc}ber.cash".into();
        ds.add_offers([last]);
        ds.add_profile(ProfileSnapshot {
            day: 1503,
            package: "com.app.n2".into(),
            title: String::new(),
            genre_id: "TOOLS".into(),
            released_day: 1400,
            min_installs: 10,
            developer_id: 8,
            developer_name: "\u{d8}ster".into(),
            developer_country: "DK".into(),
            developer_email: String::new(),
            developer_website: "https://\u{f8}.example".into(),
            rating: 0.0,
            rating_count: 0,
        });
        ds.add_chart(ChartSnapshot {
            day: 1503,
            chart: ChartKind::ALL[2].id(),
            entries: vec![(String::new(), 1), ("com.\u{e9}t\u{e9}".into(), 2)],
        });
        let aggs = ReportAggregates::new();
        let bytes = encode(&sample(&ds, &aggs));
        assert!(Snapshot::decode(&bytes).is_ok());
        // The SYMS body is five tables, each a count and its strings.
        let tables = |body: &[u8]| -> Vec<Vec<String>> {
            let mut d = Dec::new(body);
            let tables = (0..5)
                .map(|_| {
                    let n = d.u64().unwrap();
                    (0..n).map(|_| d.str().unwrap().to_string()).collect()
                })
                .collect();
            d.finish().unwrap();
            tables
        };
        for (t, section) in [
            "packages",
            "descriptions",
            "urls",
            "affiliates",
            "profile strings",
        ]
        .into_iter()
        .enumerate()
        {
            let short = reframe(&bytes, |p| {
                if p[0] != SEC_SYMS {
                    return Some(p.to_vec());
                }
                let mut tables = tables(&p[1..]);
                tables[t].pop().expect("every table holds a string");
                let mut e = Enc::new();
                e.u8(SEC_SYMS);
                for table in &tables {
                    e.u64(table.len() as u64);
                    for s in table {
                        e.str(s);
                    }
                }
                Some(e.into_bytes())
            });
            let got = Snapshot::decode(&short).map(drop).unwrap_err().to_string();
            assert!(
                got.contains("symbol past the end of its table"),
                "{section}: {got}"
            );
        }
    }

    #[test]
    fn every_bit_flip_in_a_snapshot_is_rejected() {
        let bytes = sample_bytes();
        // Sampled sweep (full sweep is the frame codec's own test).
        for byte in (0..bytes.len()).step_by(7) {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    Snapshot::decode(&corrupt).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
        for cut in (0..bytes.len()).step_by(11) {
            assert!(Snapshot::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn fingerprint_tracks_result_relevant_config_only() {
        let a = config_fingerprint(&WorldConfig::small(1));
        let mut cfg = WorldConfig::small(1);
        cfg.parallelism = 8;
        assert_eq!(a, config_fingerprint(&cfg), "parallelism is excluded");
        cfg.memory_budget = Some(1 << 20);
        cfg.spill_dir = Some(PathBuf::from("/tmp/elsewhere"));
        assert_eq!(a, config_fingerprint(&cfg), "spill knobs are excluded");
        cfg.scale = 10;
        assert_ne!(a, config_fingerprint(&cfg), "scale changes results");
        cfg.scale = 1;
        cfg.shards = 4;
        assert_ne!(a, config_fingerprint(&cfg), "shards change results");
        cfg.shards = 1;
        cfg.monitoring_days += 1;
        assert_ne!(a, config_fingerprint(&cfg));
        let snap = Snapshot::decode(&sample_bytes()).unwrap();
        let mut cfg = WorldConfig::small(42);
        cfg.seed = 42;
        assert!(snap.check_compatible(&cfg).is_err(), "fingerprint differs");
        let mut wrong_seed = WorldConfig::small(43);
        wrong_seed.seed = 43;
        assert!(snap.check_compatible(&wrong_seed).is_err());
    }

    #[test]
    fn durable_write_and_scan_fall_back_past_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "iiscope-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Empty/missing dir: unreadable until created.
        assert!(load_latest(&dir).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        let scan = load_latest(&dir).unwrap();
        assert!(scan.snapshot.is_none());
        assert_eq!(scan.candidates, 0);

        let ds = sample_dataset(None);
        let aggs = ReportAggregates::new();
        let mut snap = sample(&ds, &aggs);
        write_durable(&dir, snap.day, |f| snap.write_to(f).map(drop)).unwrap();
        snap.day = 8;
        let len = write_durable(&dir, snap.day, |f| snap.write_to(f).map(drop)).unwrap();
        let newest = snapshot_path(&dir, snap.day);
        assert_eq!(std::fs::read(&newest).unwrap(), encode(&snap));
        assert_eq!(len, encode(&snap).len() as u64);

        let scan = load_latest(&dir).unwrap();
        assert_eq!(scan.snapshot.as_ref().unwrap().0.day, 8);
        assert!(scan.skipped.is_empty());

        // Corrupt the newest (bit flip): scan falls back to day 6.
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&newest, &bytes).unwrap();
        let scan = load_latest(&dir).unwrap();
        assert_eq!(scan.snapshot.as_ref().unwrap().0.day, 6);
        assert_eq!(scan.skipped.len(), 1);
        assert_eq!(scan.candidates, 2);

        // Truncate the older one too: nothing valid remains.
        let older = snapshot_path(&dir, 6);
        let bytes = std::fs::read(&older).unwrap();
        std::fs::write(&older, &bytes[..bytes.len() / 3]).unwrap();
        let scan = load_latest(&dir).unwrap();
        assert!(scan.snapshot.is_none());
        assert_eq!(scan.skipped.len(), 2);
        assert_eq!(scan.candidates, 2);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
