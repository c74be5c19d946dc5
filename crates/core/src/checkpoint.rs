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
//! replay cannot reproduce: the dataset (with both interner tables, so
//! symbol numbering survives), the chart crawler's client state, the
//! chaos/wire counter ledgers. The snapshot's encoded sim section
//! doubles as a verification oracle: the replayed sim state must match
//! it byte-for-byte or the resume is refused.
//!
//! Durability: snapshots are written to a temp file, fsynced, atomically
//! renamed into place, and the directory fsynced — a torn write leaves
//! either the previous snapshot set intact or a partial temp file that
//! is never considered. Corruption (bit flips, truncation) is caught by
//! the CRC framing of [`iiscope_types::frame`]; a corrupt newest
//! snapshot is logged and skipped back to the previous valid one.

use crate::aggregates::ReportAggregates;
use crate::chaos::fnv64;
use crate::config::WorldConfig;
use iiscope_monitor::parsers::ScrapedOffer;
use iiscope_monitor::spill::{ResidentRows, RowSection, SegRef, SpillManifest, SpillRow};
use iiscope_monitor::{ChartSnapshot, ProfileLog};
use iiscope_types::frame::{Dec, Enc, FrameError, FrameReader, FrameWriter};
use iiscope_types::Interner;
use iiscope_wire::ClientState;
use rand::rngs::RngState;
use std::fs::File;
use std::io::{self, Cursor, Seek, Write};
use std::path::{Path, PathBuf};

/// Payload schema revision carried in the META section. Bump on any
/// layout change; decoding rejects unknown versions instead of
/// guessing. Version 2 added the SPILL section: the offer and chart
/// logs' disk-resident segments are checkpointed *by reference*
/// (file + per-segment CRC) instead of being re-serialized into every
/// snapshot, so snapshot cost tracks the resident suffix, not the
/// full run history. Version 3 added the AGGS section (incremental
/// report-aggregate state), which every snapshot carries; only this
/// version decodes.
pub const SNAPSHOT_VERSION: u32 = 3;

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

/// A named counter ledger (the `CHAOS`/`WIRE` snapshot form).
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
    /// Package symbol table at snapshot time, rank order.
    pub pkg_syms: Interner,
    /// Description symbol table at snapshot time, rank order.
    pub desc_syms: Interner,
    /// Spilled prefix of the offer log, by reference: the spill file
    /// plus one CRC-checked [`SegRef`] per disk segment. Restore
    /// re-attaches and validates the file instead of re-reading rows
    /// out of the snapshot.
    pub offers_spill: SpillManifest,
    /// Resident suffix of the offer log (rows not covered by
    /// `offers_spill`), arrival order.
    pub offers: Vec<ScrapedOffer>,
    /// Raw profile log, arrival order, decoded straight into interned
    /// rows; its packages are symbols of `pkg_syms`.
    pub profiles: ProfileLog,
    /// Spilled prefix of the chart log, by reference.
    pub charts_spill: SpillManifest,
    /// Resident suffix of the chart log, arrival order.
    pub charts: Vec<ChartSnapshot>,
    /// Chaos counter ledger at snapshot time.
    pub chaos_counters: Ledger,
    /// Wire counter ledger at snapshot time.
    pub wire_counters: Ledger,
    /// Incremental report-aggregate state at snapshot time.
    pub aggregates: ReportAggregates,
}

/// A snapshot as the encoder reads it: every bulk part borrowed, so
/// the live study encodes straight from its own state without cloning
/// it. [`Snapshot::view`] borrows a decoded snapshot the same way;
/// [`SnapshotRef::write_to`] is the only snapshot encoder.
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
    /// Package symbol table, rank order.
    pub pkg_syms: &'a Interner,
    /// Description symbol table, rank order.
    pub desc_syms: &'a Interner,
    /// Spilled prefix of the offer log, by reference.
    pub offers_spill: &'a SpillManifest,
    /// Resident suffix of the offer log, arrival order: the live
    /// dataset's interned rows or a decoded snapshot's owned rows,
    /// encoded with the same row codec either way.
    pub offers: Box<dyn RowSection + 'a>,
    /// Raw profile log, arrival order: a live dataset's or a decoded
    /// snapshot's interned rows, encoded with the owned snapshot's row
    /// codec.
    pub profiles: Box<dyn RowSection + 'a>,
    /// Spilled prefix of the chart log, by reference.
    pub charts_spill: &'a SpillManifest,
    /// Resident suffix of the chart log, arrival order.
    pub charts: Box<dyn RowSection + 'a>,
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
        w.record_with(|e| {
            e.u8(SEC_SYMS);
            enc_interner(e, self.pkg_syms);
            enc_interner(e, self.desc_syms);
        })?;
        w.record_with(|e| {
            e.u8(SEC_SPILL);
            enc_manifest(e, self.offers_spill);
            enc_manifest(e, self.charts_spill);
        })?;
        for (section, rows) in [
            (SEC_OFFERS, &self.offers),
            (SEC_PROFILES, &self.profiles),
            (SEC_CHARTS, &self.charts),
        ] {
            // A row section: tag, row count, then every row in order.
            w.record_with(|e| {
                e.u8(section).u64(rows.row_count() as u64);
                rows.enc_rows(e);
            })?;
        }
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

    /// The snapshot's frame file in memory: [`SnapshotRef::write_to`]
    /// over a `Cursor`.
    pub fn encode(&self) -> Vec<u8> {
        self.write_to(Cursor::new(Vec::new()))
            .expect("writing to memory cannot fail")
            .into_inner()
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

    /// Borrows the snapshot as the view the encoder reads.
    pub fn view(&self) -> SnapshotRef<'_> {
        fn ledger(l: &Ledger) -> Vec<(&str, u64)> {
            l.iter().map(|(k, v)| (k.as_str(), *v)).collect()
        }
        SnapshotRef {
            day: self.day,
            seed: self.seed,
            fingerprint: self.fingerprint,
            sim_bytes: &self.sim_bytes,
            crawler: self.crawler,
            pkg_syms: &self.pkg_syms,
            desc_syms: &self.desc_syms,
            offers_spill: &self.offers_spill,
            offers: Box::new(ResidentRows::of(&self.offers)),
            profiles: Box::new(self.profiles.iter(&self.pkg_syms)),
            charts_spill: &self.charts_spill,
            charts: Box::new(ResidentRows::of(&self.charts)),
            chaos_counters: ledger(&self.chaos_counters),
            wire_counters: ledger(&self.wire_counters),
            aggregates: &self.aggregates,
        }
    }

    /// Serializes the snapshot into a frame file (through
    /// [`Snapshot::view`]: there is one encoder).
    pub fn encode(&self) -> Vec<u8> {
        self.view().encode()
    }

    /// Deserializes and fully validates a frame file. Total: corrupt or
    /// adversarial bytes return `Err`, never panic, never wrong data.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, FrameError> {
        let mut reader = FrameReader::new(bytes)?;
        let mut meta: Option<(u64, u64, u64)> = None;
        let mut sim_bytes: Option<Vec<u8>> = None;
        let mut syms: Option<(Interner, Interner)> = None;
        let mut offers: Option<Vec<ScrapedOffer>> = None;
        let mut profiles: Option<ProfileLog> = None;
        let mut charts: Option<Vec<ChartSnapshot>> = None;
        let mut crawler: Option<ClientState> = None;
        let mut counters: Option<(Ledger, Ledger)> = None;
        let mut spill: Option<(SpillManifest, SpillManifest)> = None;
        let mut aggregates: Option<ReportAggregates> = None;

        while let Some(payload) = reader.next_record()? {
            let mut d = Dec::new(payload);
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
                    let pkg = dec_interner(&mut d)?;
                    let desc = dec_interner(&mut d)?;
                    d.finish()?;
                    syms = Some((pkg, desc));
                }
                SEC_SPILL => {
                    let o = dec_manifest(&mut d)?;
                    let c = dec_manifest(&mut d)?;
                    d.finish()?;
                    spill = Some((o, c));
                }
                SEC_OFFERS => {
                    let n = d.u64()?;
                    let mut v = Vec::new();
                    for _ in 0..n {
                        v.push(ScrapedOffer::dec_row(&mut d)?);
                    }
                    d.finish()?;
                    offers = Some(v);
                }
                SEC_PROFILES => {
                    // Rows name packages by symbol, so the package
                    // table (written first) must already be decoded.
                    let (pkg, _) = syms
                        .as_ref()
                        .ok_or(FrameError::Codec("PROFILES section before SYMS"))?;
                    profiles = Some(ProfileLog::decode(&mut d, pkg)?);
                    d.finish()?;
                }
                SEC_CHARTS => {
                    let n = d.u64()?;
                    let mut v = Vec::new();
                    for _ in 0..n {
                        v.push(ChartSnapshot::dec_row(&mut d)?);
                    }
                    d.finish()?;
                    charts = Some(v);
                }
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
        let (pkg_syms, desc_syms) = syms.ok_or(FrameError::Codec("missing SYMS section"))?;
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
            pkg_syms,
            desc_syms,
            offers_spill,
            offers: offers.ok_or(FrameError::Codec("missing OFFERS section"))?,
            profiles: profiles.ok_or(FrameError::Codec("missing PROFILES section"))?,
            charts_spill,
            charts: charts.ok_or(FrameError::Codec("missing CHARTS section"))?,
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
        e.u64(s.rows).u64(s.offset).u64(s.len).u32(s.crc);
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
        segments.push(SegRef {
            rows: d.u64()?,
            offset: d.u64()?,
            len: d.u64()?,
            crc: d.u32()?,
        });
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

fn enc_interner(e: &mut Enc, interner: &Interner) {
    e.u64(interner.len() as u64);
    for (_, s) in interner.iter() {
        e.str(s);
    }
}

fn dec_interner(d: &mut Dec) -> Result<Interner, FrameError> {
    let n = d.u64()?;
    let mut interner = Interner::new();
    for _ in 0..n {
        interner.intern(d.str()?);
    }
    if interner.len() as u64 != n {
        return Err(FrameError::Codec("interner table has duplicate strings"));
    }
    Ok(interner)
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

/// Why a checkpoint directory could not be scanned at all.
#[derive(Debug)]
pub enum ScanError {
    /// The directory could not be read (missing, permissions, not a
    /// directory).
    Unreadable(String),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Unreadable(why) => write!(f, "checkpoint dir unreadable: {why}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Scans `dir` for the newest valid snapshot, skipping (and logging)
/// corrupt or partial ones. A directory with no snapshot files at all
/// yields `snapshot: None, candidates: 0` — a fresh start, which is
/// what a crash-restart loop sees on its very first boot.
pub fn load_latest(dir: &Path) -> Result<Scan, ScanError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ScanError::Unreadable(format!("{}: {e}", dir.display())))?;
    let mut days: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| ScanError::Unreadable(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        if let Some(day) = day_from_path(&path) {
            days.push((day, path));
        }
    }
    days.sort_by_key(|d| std::cmp::Reverse(d.0));
    let candidates = days.len();
    let mut skipped = Vec::new();
    for (_, path) in days {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "checkpoint: skipping unreadable snapshot {}: {e}",
                    path.display()
                );
                skipped.push((path, e.to_string()));
                continue;
            }
        };
        match Snapshot::decode(&bytes) {
            Ok(snapshot) => {
                return Ok(Scan {
                    snapshot: Some((snapshot, path)),
                    skipped,
                    candidates,
                })
            }
            Err(e) => {
                eprintln!(
                    "checkpoint: skipping corrupt snapshot {}: {e}",
                    path.display()
                );
                skipped.push((path, e.to_string()));
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
    use iiscope_monitor::parsers::{RawOffer, RewardValue};
    use iiscope_monitor::ProfileSnapshot;
    use iiscope_playstore::ChartKind;
    use iiscope_types::{Country, IipId, SimTime};

    fn sample_snapshot() -> Snapshot {
        let mut pkg_syms = Interner::new();
        let one = pkg_syms.intern("com.a.one");
        pkg_syms.intern("com.b.two");
        let mut desc_syms = Interner::new();
        desc_syms.intern("Install and Register");
        let mut profiles = ProfileLog::new();
        let profile = ProfileSnapshot {
            day: 1502,
            package: "com.a.one".into(),
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
        };
        profiles.push(one, profile.fields());
        Snapshot {
            day: 6,
            seed: 42,
            fingerprint: 0xABCD,
            sim_bytes: vec![1, 2, 3, 4, 5],
            crawler: ClientState {
                rng: RngState {
                    key: [9; 8],
                    counter: 12,
                    index: 3,
                },
                conn_seq: 77,
            },
            pkg_syms,
            desc_syms,
            offers_spill: SpillManifest {
                file: Some(PathBuf::from("/tmp/iiscope-spill/run-offers.spill")),
                segments: vec![
                    SegRef {
                        rows: 128,
                        offset: 0,
                        len: 9_001,
                        crc: 0xDEAD_BEEF,
                    },
                    SegRef {
                        rows: 64,
                        offset: 9_001,
                        len: 4_400,
                        crc: 0x1234_5678,
                    },
                ],
            },
            offers: vec![ScrapedOffer {
                iip: IipId::Fyber,
                raw: RawOffer {
                    offer_key: 11,
                    description: "Install and Register".into(),
                    reward: RewardValue::Usd(0.25),
                    package: "com.a.one".into(),
                    store_url: "https://play.iiscope/store/apps/details?id=com.a.one".into(),
                },
                seen_at: SimTime::from_days(1502),
                affiliate: "com.cash.app".into(),
                vantage: Country::Us,
            }],
            profiles,
            charts_spill: SpillManifest::default(),
            charts: vec![ChartSnapshot {
                day: 1502,
                chart: ChartKind::ALL[0].id(),
                entries: vec![("com.a.one".into(), 1)],
            }],
            chaos_counters: vec![("retries".into(), 3)],
            wire_counters: vec![("bytes_delivered".into(), 912)],
            aggregates: sample_aggregates(),
        }
    }

    /// A genuinely folded aggregate state (not a hand-built one), so
    /// the snapshot round-trip exercises the real digest layout.
    fn sample_aggregates() -> ReportAggregates {
        let mut ds = iiscope_monitor::Dataset::new();
        ds.add_offers([ScrapedOffer {
            iip: IipId::Fyber,
            raw: RawOffer {
                offer_key: 11,
                description: "Install and Register".into(),
                reward: RewardValue::Usd(0.25),
                package: "com.a.one".into(),
                store_url: "https://play.iiscope/store/apps/details?id=com.a.one".into(),
            },
            seen_at: SimTime::from_days(1502),
            affiliate: "com.cash.app".into(),
            vantage: Country::Us,
        }]);
        ds.add_chart(ChartSnapshot {
            day: 1502,
            chart: ChartKind::ALL[0].id(),
            entries: vec![("com.a.one".into(), 1)],
        });
        let book = iiscope_monitor::RateBook::from_catalog(
            &iiscope_devices::AffiliateApp::table2_catalog(),
        );
        let mut aggs = ReportAggregates::new();
        aggs.fold_day(&ds, &book);
        aggs
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.day, snap.day);
        assert_eq!(back.seed, snap.seed);
        assert_eq!(back.fingerprint, snap.fingerprint);
        assert_eq!(back.sim_bytes, snap.sim_bytes);
        assert_eq!(back.crawler, snap.crawler);
        assert_eq!(back.pkg_syms, snap.pkg_syms);
        assert_eq!(back.desc_syms, snap.desc_syms);
        assert_eq!(back.offers_spill, snap.offers_spill);
        assert_eq!(back.offers, snap.offers);
        assert_eq!(back.profiles, snap.profiles);
        assert_eq!(back.charts_spill, snap.charts_spill);
        assert_eq!(back.charts, snap.charts);
        assert_eq!(back.chaos_counters, snap.chaos_counters);
        assert_eq!(back.wire_counters, snap.wire_counters);
        assert_eq!(back.aggregates, snap.aggregates);
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

    /// A row section of `len` bytes, written one byte at a time.
    #[derive(Debug)]
    struct Filler(usize);

    impl RowSection for Filler {
        fn row_count(&self) -> usize {
            self.0
        }

        fn enc_rows(&self, e: &mut Enc) {
            for i in 0..self.0 {
                e.u8(i as u8 ^ 0x5A);
            }
        }
    }

    #[test]
    fn streamed_row_sections_match_the_reference_layout_at_window_edges() {
        use iiscope_types::frame::{crc32, MAGIC, WINDOW};
        let snap = sample_snapshot();
        let path = std::env::temp_dir().join(format!(
            "iiscope-ckpt-edges-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let w = WINDOW;
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
            let mut view = snap.view();
            view.offers = Box::new(Filler(len));
            view.write_to(File::create(&path).unwrap()).unwrap();
            let streamed = std::fs::read(&path).unwrap();
            assert!(
                streamed == view.encode(),
                "len {len}: file and memory differ"
            );

            // The OFFERS payload as one in-memory buffer, and every
            // record framed by hand around its payload.
            let mut offers = Enc::new();
            offers.u8(SEC_OFFERS).u64(len as u64);
            Filler(len).enc_rows(&mut offers);
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
                let p = if p[0] == SEC_OFFERS {
                    offers.bytes()
                } else {
                    p
                };
                frame(0, p);
                records += 1;
            }
            frame(1, &records.to_le_bytes());
            assert!(streamed == want, "len {len}: streamed frame differs");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn only_version_3_snapshots_with_aggs_decode() {
        let bytes = sample_snapshot().encode();
        assert_eq!(reframe(&bytes, |p| Some(p.to_vec())), bytes);
        let err = |bytes: &[u8]| Snapshot::decode(bytes).err().map(|e| e.to_string());
        // v2 (the pre-AGGS layout) and an unknown future version are
        // both refused, not guessed at.
        for version in [2u32, 4] {
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
        // A v3 frame without its AGGS section is incomplete.
        let no_aggs = reframe(&bytes, |p| (p[0] != SEC_AGGS).then(|| p.to_vec()));
        assert!(no_aggs.len() < bytes.len());
        let got = err(&no_aggs).expect("a v3 frame without AGGS decoded");
        assert!(got.contains("missing AGGS section"), "{got}");
    }

    #[test]
    fn profiles_decode_only_after_syms() {
        // Profile rows name packages by symbol, so a PROFILES section
        // ahead of SYMS is refused rather than resolved against nothing.
        let bytes = sample_snapshot().encode();
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
        assert!(err.contains("PROFILES section before SYMS"), "{err}");
    }

    #[test]
    fn every_bit_flip_in_a_snapshot_is_rejected() {
        let bytes = sample_snapshot().encode();
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
        let snap = sample_snapshot();
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

        let mut snap = sample_snapshot();
        write_durable(&dir, snap.day, |f| snap.view().write_to(f).map(drop)).unwrap();
        snap.day = 8;
        let len = write_durable(&dir, snap.day, |f| snap.view().write_to(f).map(drop)).unwrap();
        let newest = snapshot_path(&dir, snap.day);
        assert_eq!(std::fs::read(&newest).unwrap(), snap.encode());
        assert_eq!(len, snap.encode().len() as u64);

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
