//! Out-of-core row storage for the monitor dataset.
//!
//! The paper-scale dataset fits in memory; a 100×-scale run does not.
//! [`RowLog`] keeps each append-only row log (offer observations,
//! chart timelines) as a resident *tail* plus closed *segments*; when
//! a memory budget is set and exceeded, the oldest closed segments
//! spill to disk through the CRC-framed [`iiscope_types::frame`] codec
//! already proven by checkpointing. Spilled segments decode back
//! through a small LRU cache, so a scan touches disk once per segment
//! per pass, not once per row. Resident rows may be held in a compact
//! [`Resident`] form; the budget counts every row at its owned size
//! ([`SpillRow::approx_bytes`]) either way.
//!
//! Invariants the rest of the workspace leans on:
//!
//! * **Append-only, prefix-spilled.** Rows never mutate after append,
//!   and spilling always takes the *oldest* resident closed segment —
//!   so the spilled segments form a strict prefix of the log. A
//!   checkpoint therefore records `(spill refs, resident suffix)` and
//!   never re-serializes cold rows.
//! * **Byte-invariance.** Spilling is a memory optimization only:
//!   iteration yields the same rows in the same order at any budget,
//!   which is what keeps the seed-42 report and CSVs byte-identical
//!   with or without spilling.
//! * **Checksummed end to end.** Each segment is one frame blob (CRC
//!   per record inside) and its [`SegRef`] additionally carries a CRC
//!   of the whole blob; [`RowLog::attach`] re-reads and verifies every
//!   referenced segment before a resume is allowed to proceed.

use crate::crawler::{ChartSnapshot, ProfileSnapshot};
use crate::parsers::{RawOffer, RewardValue, ScrapedOffer};
use iiscope_playstore::ChartKind;
use iiscope_types::frame::{crc32, Dec, Enc, FrameError, FrameReader, FrameWriter};
use iiscope_types::{Chunked, Country, IipId, SimTime};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Cursor, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

/// A row type the log knows how to persist: the exact field-by-field
/// codec the checkpoint module uses for the same rows (it imports
/// these impls), so spill files and snapshots stay one format.
pub trait SpillRow: Clone + std::fmt::Debug {
    /// Serializes the row.
    fn enc_row(&self, e: &mut Enc);
    /// Deserializes one row.
    fn dec_row(d: &mut Dec) -> Result<Self, FrameError>;
    /// Accounted bytes of the row: the struct plus its owned heap
    /// strings. Budget enforcement, segment boundaries and the LRU cap
    /// count these, never allocator truth. A log that holds the row in
    /// a more compact [`Resident`] form still counts this figure, so
    /// its accounted bytes are an upper bound on what it keeps.
    fn approx_bytes(&self) -> usize;
}

/// The form a [`RowLog`] keeps its resident rows in. A self-contained
/// [`SpillRow`] is its own resident form. A compact form (the
/// dataset's interned offer row) resolves its strings through tables
/// the log's owner keeps and passes in as `Ctx`. Either way the bytes
/// written and the bytes accounted are those of the persisted row.
pub trait Resident: std::fmt::Debug {
    /// The persisted row: spill segments and snapshot sections hold its
    /// codec, and iteration yields it.
    type Row: SpillRow;
    /// Tables the resident form resolves through (`()` for a
    /// self-contained row).
    type Ctx;
    /// [`SpillRow::approx_bytes`] of the persisted row.
    fn accounted_bytes(&self) -> usize;
    /// Writes the persisted row's codec bytes.
    fn encode(&self, ctx: &Self::Ctx, e: &mut Enc);
    /// Builds the persisted row.
    fn unpack(&self, ctx: &Self::Ctx) -> Self::Row;
}

impl<T: SpillRow> Resident for T {
    type Row = T;
    type Ctx = ();

    fn accounted_bytes(&self) -> usize {
        self.approx_bytes()
    }

    fn encode(&self, _: &(), e: &mut Enc) {
        self.enc_row(e);
    }

    fn unpack(&self, _: &()) -> T {
        self.clone()
    }
}

/// Rows a snapshot section serializes inline: a count, then each
/// row's codec bytes. Object-safe, so one snapshot encoder takes a
/// live log's compact rows and a decoded snapshot's owned rows alike.
pub trait RowSection: std::fmt::Debug {
    /// Rows in the section.
    fn row_count(&self) -> usize;
    /// Appends every row's codec bytes, in order.
    fn enc_rows(&self, e: &mut Enc);
}

/// A log's rows after its spilled prefix (see [`RowLog::resident`]),
/// borrowed one contiguous chunk at a time with the tables they
/// resolve through.
pub struct ResidentRows<'a, R: Resident> {
    chunks: Vec<&'a [R]>,
    ctx: &'a R::Ctx,
}

impl<'a, T: SpillRow> ResidentRows<'a, T> {
    /// Owned rows as one chunk (a decoded snapshot's suffix).
    pub fn of(rows: &'a [T]) -> ResidentRows<'a, T> {
        ResidentRows {
            chunks: vec![rows],
            ctx: &(),
        }
    }
}

impl<R: Resident> ResidentRows<'_, R> {
    /// The persisted rows, in log order.
    pub fn rows(&self) -> impl Iterator<Item = R::Row> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .map(|r| r.unpack(self.ctx))
    }
}

impl<R: Resident> RowSection for ResidentRows<'_, R> {
    fn row_count(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    fn enc_rows(&self, e: &mut Enc) {
        for r in self.chunks.iter().flat_map(|c| c.iter()) {
            r.encode(self.ctx, e);
        }
    }
}

impl<R: Resident> std::fmt::Debug for ResidentRows<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentRows")
            .field("chunks", &self.chunks.len())
            .field("rows", &self.row_count())
            .finish()
    }
}

/// Location of one spilled segment inside a spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRef {
    /// Rows in the segment.
    pub rows: u64,
    /// Byte offset of the frame blob in the spill file.
    pub offset: u64,
    /// Length of the frame blob.
    pub len: u64,
    /// CRC-32 of the whole blob (defense in depth on top of the
    /// frame's per-record CRC).
    pub crc: u32,
}

/// Everything a checkpoint needs to reference a log's spilled prefix
/// instead of re-serializing it: the spill file and the segment refs,
/// in log order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpillManifest {
    /// Absolute path of the spill file (a relative spill path is
    /// resolved against the working directory of the first spill);
    /// `None` when nothing spilled.
    pub file: Option<PathBuf>,
    /// Spilled segments, oldest first.
    pub segments: Vec<SegRef>,
}

/// Cumulative spill activity of one log (summed per dataset for
/// `BENCH_scale.json` and the scale-smoke assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Segments written to disk.
    pub spilled_segments: u64,
    /// Rows inside those segments.
    pub spilled_rows: u64,
    /// Bytes written to spill files.
    pub spilled_bytes: u64,
    /// Segment loads that missed the LRU cache and hit disk.
    pub reloads: u64,
    /// Accounted bytes ([`SpillRow::approx_bytes`]) of the rows held in
    /// memory: tail, resident segments and reload cache. An upper bound
    /// on their real footprint when the log keeps a compact form.
    pub resident_bytes: u64,
}

impl SpillStats {
    /// Component-wise sum.
    pub fn merged(self, other: SpillStats) -> SpillStats {
        SpillStats {
            spilled_segments: self.spilled_segments + other.spilled_segments,
            spilled_rows: self.spilled_rows + other.spilled_rows,
            spilled_bytes: self.spilled_bytes + other.spilled_bytes,
            reloads: self.reloads + other.reloads,
            resident_bytes: self.resident_bytes + other.resident_bytes,
        }
    }
}

/// A closed segment still in memory.
#[derive(Debug)]
struct Warm<T> {
    rows: Chunked<T>,
    bytes: usize,
}

/// The first spill write that failed. The log stops spilling after
/// it, so every later row stays resident and no row is lost.
#[derive(Debug)]
pub struct SpillError {
    /// Spill file the log was writing.
    pub path: PathBuf,
    /// What the filesystem said.
    pub error: std::io::Error,
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spill to {} failed: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for SpillError {}

/// Disk side of a log: the spill file plus the LRU of decoded
/// segments. Behind a mutex so read-only dataset accessors (which run
/// under the experiment fan-out) can load segments from `&self`.
#[derive(Debug)]
struct Cold<T> {
    file: Option<File>,
    /// End offset of the last written segment (next write position).
    file_end: u64,
    /// Decoded segments, most-recently-used first.
    cache: Vec<(usize, Arc<Vec<T>>, usize)>,
    cache_bytes: usize,
    reloads: u64,
}

/// Default segment-close threshold when no budget is set.
const DEFAULT_SEG_BYTES: usize = 1 << 20;

/// An append-only row log with optional disk spilling.
///
/// In log order a log is its spilled segments (`spilled`), then its
/// resident closed segments (`warm`), then the open `tail`; segment
/// indices count across `spilled` and `warm`. Resident rows are kept in
/// their [`Resident`] form; spilled segments reload as persisted rows.
/// Every method that may encode or unpack a resident row takes the
/// tables it resolves through (`&()` for self-contained rows).
#[derive(Debug)]
pub struct RowLog<R: Resident> {
    tail: Chunked<R>,
    tail_bytes: usize,
    /// The spilled prefix: the spill file and its segments, oldest
    /// first — exactly what a checkpoint references.
    spilled: SpillManifest,
    warm: VecDeque<Warm<R>>,
    len: usize,
    /// Resident budget in bytes; `None` disables spilling.
    budget: Option<usize>,
    /// Where to create the spill file on first spill.
    spill_target: Option<PathBuf>,
    /// First spill write failure; set once, spilling stops after it.
    failed: Option<SpillError>,
    cold: Mutex<Cold<R::Row>>,
}

impl<R: Resident> Default for RowLog<R> {
    fn default() -> RowLog<R> {
        RowLog {
            tail: Chunked::default(),
            tail_bytes: 0,
            spilled: SpillManifest::default(),
            warm: VecDeque::new(),
            len: 0,
            budget: None,
            spill_target: None,
            failed: None,
            cold: Mutex::new(Cold {
                file: None,
                file_end: 0,
                cache: Vec::new(),
                cache_bytes: 0,
                reloads: 0,
            }),
        }
    }
}

impl<R: Resident> RowLog<R> {
    /// An empty, fully-resident log.
    pub fn new() -> RowLog<R> {
        RowLog::default()
    }

    /// Sets the resident budget and the spill file path. May be called
    /// before any row or after ingest started; enforcement happens on
    /// the next push (and immediately, for already-closed segments).
    pub fn configure(&mut self, budget: Option<u64>, spill_file: PathBuf, ctx: &R::Ctx) {
        self.budget = budget.map(|b| b as usize);
        self.spill_target = Some(spill_file);
        self.enforce(ctx);
    }

    /// Number of rows ever appended.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no row was appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn seg_bytes_threshold(&self) -> usize {
        match self.budget {
            // A quarter of the budget per segment keeps a few segments
            // resident even under tiny budgets; the 4 KiB floor stops
            // pathological per-row segments.
            Some(b) => (b / 4).clamp(4096, DEFAULT_SEG_BYTES),
            None => DEFAULT_SEG_BYTES,
        }
    }

    /// Appends a row, closing the tail into a segment and spilling
    /// cold segments as the budget demands.
    pub fn push(&mut self, row: R, ctx: &R::Ctx) {
        self.tail_bytes += row.accounted_bytes();
        self.tail.push(row);
        self.len += 1;
        if self.tail_bytes >= self.seg_bytes_threshold() {
            // A closed segment never grows: drop its last chunk's slack.
            let mut rows = std::mem::take(&mut self.tail);
            rows.shrink_to_fit();
            let bytes = std::mem::take(&mut self.tail_bytes);
            self.warm.push_back(Warm { rows, bytes });
            self.enforce(ctx);
        }
    }

    /// Spills oldest resident segments until the accounted resident
    /// bytes fit the budget (or nothing closed remains resident). After
    /// a failed spill write it does nothing: rows stay resident.
    fn enforce(&mut self, ctx: &R::Ctx) {
        let Some(budget) = self.budget else { return };
        while self.failed.is_none()
            && self.resident_bytes() > budget as u64
            && !self.warm.is_empty()
        {
            if let Err(e) = self.spill_oldest(ctx) {
                self.failed = Some(e);
            }
        }
    }

    /// Writes the oldest warm segment to the spill file and moves it to
    /// the spilled prefix. On an I/O error the segment stays warm.
    fn spill_oldest(&mut self, ctx: &R::Ctx) -> Result<(), SpillError> {
        let path = self
            .spill_target
            .clone()
            .expect("spill budget set without a spill file path");
        let fail = |error| SpillError {
            path: path.clone(),
            error,
        };
        let seg = self.warm.front().expect("enforce checks a warm segment");
        let mut w = FrameWriter::new(Cursor::new(Vec::new())).map_err(fail)?;
        w.record_with(|e| {
            e.u64(seg.rows.len() as u64);
            for r in seg.rows.iter() {
                r.encode(ctx, e);
            }
        })
        .map_err(fail)?;
        let blob = w.finish().map_err(fail)?.into_inner();
        let crc = crc32(&blob);

        let mut cold = self.cold.lock();
        if cold.file.is_none() {
            // The manifest names the file absolutely, so a checkpoint
            // written under a relative spill dir resumes from any
            // working directory.
            let absolute = std::path::absolute(&path).map_err(fail)?;
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).map_err(fail)?;
            }
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(fail)?;
            cold.file = Some(file);
            cold.file_end = 0;
            self.spilled.file = Some(absolute);
        }
        let offset = cold.file_end;
        let file = cold.file.as_mut().expect("just opened");
        file.seek(SeekFrom::Start(offset)).map_err(fail)?;
        file.write_all(&blob).map_err(fail)?;
        cold.file_end = offset + blob.len() as u64;
        drop(cold);

        let seg = self.warm.pop_front().expect("checked above");
        self.spilled.segments.push(SegRef {
            rows: seg.rows.len() as u64,
            offset,
            len: blob.len() as u64,
            crc,
        });
        Ok(())
    }

    /// The first spill write that failed, if any. The log keeps
    /// working fully resident after it; a caller that needs the
    /// budget to hold treats it as fatal.
    pub fn spill_error(&self) -> Option<&SpillError> {
        self.failed.as_ref()
    }

    /// Loads a spilled segment through the LRU cache.
    fn load(&self, seg_idx: usize, seg: SegRef) -> Arc<Vec<R::Row>> {
        let mut cold = self.cold.lock();
        if let Some(pos) = cold.cache.iter().position(|(i, _, _)| *i == seg_idx) {
            let hit = cold.cache.remove(pos);
            let rows = hit.1.clone();
            cold.cache.insert(0, hit);
            return rows;
        }
        let rows = read_segment::<R::Row>(&mut cold, seg);
        let bytes: usize = rows.iter().map(SpillRow::approx_bytes).sum();
        let rows = Arc::new(rows);
        cold.cache.insert(0, (seg_idx, rows.clone(), bytes));
        cold.cache_bytes += bytes;
        // Evict LRU entries past the cache share of the budget, always
        // keeping the entry just loaded.
        let cap = self.budget.map_or(usize::MAX, |b| (b / 4).max(bytes));
        while cold.cache_bytes > cap && cold.cache.len() > 1 {
            let (_, _, b) = cold.cache.pop().expect("len > 1");
            cold.cache_bytes -= b;
        }
        rows
    }

    /// Calls `f` on every spilled row, in log order, reading each
    /// segment once straight from the spill file. The reload cache is
    /// left as it was: a one-pass scan (a restore's indexing pass) must
    /// not pin the spilled history in memory.
    pub(crate) fn for_each_spilled(&self, mut f: impl FnMut(R::Row)) {
        for seg in &self.spilled.segments {
            let rows = read_segment::<R::Row>(&mut self.cold.lock(), *seg);
            rows.into_iter().for_each(&mut f);
        }
    }

    /// Rows in closed segment `idx`.
    fn seg_rows(&self, idx: usize) -> usize {
        match self.spilled.segments.get(idx) {
            Some(r) => r.rows as usize,
            None => self.warm[idx - self.spilled.segments.len()].rows.len(),
        }
    }

    /// The rows of segment `idx`, reloading a spilled one; the index
    /// past the closed segments is the tail.
    fn seg_cur(&self, idx: usize) -> Cur<'_, R> {
        match self.spilled.segments.get(idx) {
            Some(r) => Cur::Loaded(self.load(idx, *r)),
            None => Cur::Rows(
                self.warm
                    .get(idx - self.spilled.segments.len())
                    .map_or(&self.tail, |w| &w.rows),
            ),
        }
    }

    /// Iterates every row in append order, transparently reloading
    /// spilled segments. Yields owned persisted rows (unpacked resident
    /// rows, clones of decoded spilled ones).
    pub fn iter<'a>(&'a self, ctx: &'a R::Ctx) -> RowLogIter<'a, R> {
        self.iter_from(0, ctx)
    }

    /// Iterates rows starting at append index `start_row` — the suffix
    /// of [`RowLog::iter`] — by positioning directly inside the
    /// containing segment. A delta cursor that starts past the spilled
    /// prefix therefore never reloads a cold segment, which is what
    /// lets per-day incremental folds read only the day's new rows.
    pub fn iter_from<'a>(&'a self, start_row: usize, ctx: &'a R::Ctx) -> RowLogIter<'a, R> {
        let closed = self.spilled.segments.len() + self.warm.len();
        let (mut seg, mut at) = (0, start_row.min(self.len));
        while seg < closed && at >= self.seg_rows(seg) {
            at -= self.seg_rows(seg);
            seg += 1;
        }
        RowLogIter {
            log: self,
            ctx,
            seg,
            cur: None,
            at,
            remaining: self.len.saturating_sub(start_row),
        }
    }

    /// Spill-file reference for the spilled prefix (empty manifest when
    /// nothing spilled). Together with [`RowLog::resident`] this is the
    /// complete persistent form of the log.
    pub fn manifest(&self) -> &SpillManifest {
        &self.spilled
    }

    /// The rows *after* the spilled prefix (warm segments, then the
    /// tail), borrowed in log order with the tables they resolve
    /// through — what a checkpoint serializes inline.
    pub fn resident<'a>(&'a self, ctx: &'a R::Ctx) -> ResidentRows<'a, R> {
        let warm = self.warm.iter().flat_map(|w| w.rows.chunks());
        ResidentRows {
            chunks: warm.chain(self.tail.chunks()).collect(),
            ctx,
        }
    }

    /// Reattaches a spilled prefix on restore: opens the manifest's
    /// spill file, verifies every referenced segment (CRC + row
    /// count), truncates any stale bytes a crashed run wrote past the
    /// manifest, and registers the segments. Must be called on an
    /// empty log, before any push.
    pub fn attach(&mut self, manifest: &SpillManifest) -> Result<(), String> {
        assert!(self.len == 0, "attach on empty log only");
        if manifest.segments.is_empty() {
            return Ok(());
        }
        let path = manifest
            .file
            .as_ref()
            .ok_or_else(|| "spill manifest has segments but no file".to_string())?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("open spill file {}: {e}", path.display()))?;
        let mut end = 0u64;
        for seg in &manifest.segments {
            if seg.offset != end {
                return Err(format!(
                    "spill manifest gap: segment at {} expected at {end}",
                    seg.offset
                ));
            }
            let mut blob = vec![0u8; seg.len as usize];
            file.seek(SeekFrom::Start(seg.offset))
                .map_err(|e| format!("seek spill file: {e}"))?;
            file.read_exact(&mut blob)
                .map_err(|e| format!("read spill segment at {}: {e}", seg.offset))?;
            decode_segment::<R::Row>(&blob, *seg)
                .map_err(|e| format!("spill segment at {} invalid: {e}", seg.offset))?;
            end = seg.offset + seg.len;
        }
        file.set_len(end)
            .map_err(|e| format!("truncate spill file: {e}"))?;
        self.len = manifest.segments.iter().map(|s| s.rows as usize).sum();
        self.spilled = manifest.clone();
        self.spill_target = Some(path.clone());
        let mut cold = self.cold.lock();
        cold.file = Some(file);
        cold.file_end = end;
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        let warm: usize = self.warm.iter().map(|w| w.bytes).sum();
        (self.tail_bytes + warm + self.cold.lock().cache_bytes) as u64
    }

    /// Spill activity counters.
    pub fn stats(&self) -> SpillStats {
        let segments = &self.spilled.segments;
        let reloads = self.cold.lock().reloads;
        SpillStats {
            spilled_segments: segments.len() as u64,
            spilled_rows: segments.iter().map(|s| s.rows).sum(),
            spilled_bytes: segments.iter().map(|s| s.len).sum(),
            reloads,
            resident_bytes: self.resident_bytes(),
        }
    }
}

/// Reads and decodes one spilled segment from disk, counting a reload.
fn read_segment<T: SpillRow>(cold: &mut Cold<T>, seg: SegRef) -> Vec<T> {
    cold.reloads += 1;
    let file = cold
        .file
        .as_mut()
        .expect("spilled segment without a spill file");
    let mut blob = vec![0u8; seg.len as usize];
    file.seek(SeekFrom::Start(seg.offset))
        .expect("seek spill file");
    file.read_exact(&mut blob).expect("read spill segment");
    decode_segment(&blob, seg)
        .unwrap_or_else(|e| panic!("spill segment corrupt at offset {}: {e}", seg.offset))
}

fn decode_segment<T: SpillRow>(blob: &[u8], seg: SegRef) -> Result<Vec<T>, FrameError> {
    if crc32(blob) != seg.crc {
        return Err(FrameError::Codec("segment blob CRC mismatch"));
    }
    let mut reader = FrameReader::new(blob)?;
    let payload = reader
        .next_record()?
        .ok_or(FrameError::Codec("empty segment blob"))?;
    if reader.next_record()?.is_some() {
        return Err(FrameError::Codec("trailing record in segment blob"));
    }
    let mut d = Dec::new(payload);
    let n = d.u64()?;
    if n != seg.rows {
        return Err(FrameError::Codec("segment row count mismatch"));
    }
    let mut rows = Vec::with_capacity(n as usize);
    for _ in 0..n {
        rows.push(T::dec_row(&mut d)?);
    }
    d.finish()?;
    Ok(rows)
}

enum Cur<'a, R: Resident> {
    Rows(&'a Chunked<R>),
    Loaded(Arc<Vec<R::Row>>),
}

/// Iterator over a [`RowLog`], yielding owned persisted rows in append
/// order.
pub struct RowLogIter<'a, R: Resident> {
    log: &'a RowLog<R>,
    ctx: &'a R::Ctx,
    /// Segment the cursor is in (spilled, then warm, then the tail),
    /// entered on the first row read from it.
    seg: usize,
    cur: Option<Cur<'a, R>>,
    /// Row within `seg`.
    at: usize,
    remaining: usize,
}

impl<R: Resident> Iterator for RowLogIter<'_, R> {
    type Item = R::Row;

    fn next(&mut self) -> Option<R::Row> {
        while self.remaining > 0 {
            let cur = self.cur.get_or_insert_with(|| self.log.seg_cur(self.seg));
            let row = match cur {
                Cur::Rows(c) => (self.at < c.len()).then(|| c[self.at].unpack(self.ctx)),
                Cur::Loaded(a) => a.get(self.at).cloned(),
            };
            if row.is_some() {
                self.at += 1;
                self.remaining -= 1;
                return row;
            }
            self.cur = None;
            self.at = 0;
            self.seg += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<R: Resident> ExactSizeIterator for RowLogIter<'_, R> {}

// --- Row codecs -----------------------------------------------------
//
// These are the persistent field-by-field formats for the three crawl
// logs — shared by spill segments and checkpoint snapshots (the
// checkpoint module encodes its inline rows through the same impls).

/// An offer observation with borrowed strings: the one offer codec.
/// `SpillRow for ScrapedOffer` encodes through it, and so does the
/// dataset's interned offer row, so spill segments and snapshot
/// sections carry the same bytes whichever form the row was held in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OfferFields<'a> {
    pub iip: IipId,
    pub offer_key: u64,
    pub description: &'a str,
    pub reward: RewardValue,
    pub package: &'a str,
    pub store_url: &'a str,
    pub seen_at: SimTime,
    pub affiliate: &'a str,
    pub vantage: Country,
}

impl OfferFields<'_> {
    pub(crate) fn enc(self, e: &mut Enc) {
        e.u8(self.iip as u8).u64(self.offer_key);
        e.str(self.description);
        match self.reward {
            RewardValue::Usd(v) => e.u8(0).f64(v),
            RewardValue::Points(v) => e.u8(1).i64(v),
            RewardValue::Cents(v) => e.u8(2).i64(v),
        };
        e.str(self.package).str(self.store_url);
        e.u64(self.seen_at.secs());
        e.str(self.affiliate).str(self.vantage.code());
    }

    /// [`SpillRow::approx_bytes`] of the owned observation.
    pub(crate) fn approx_bytes(self) -> usize {
        std::mem::size_of::<ScrapedOffer>()
            + self.description.len()
            + self.package.len()
            + self.store_url.len()
            + self.affiliate.len()
    }

    pub(crate) fn to_offer(self) -> ScrapedOffer {
        ScrapedOffer {
            iip: self.iip,
            raw: RawOffer {
                offer_key: self.offer_key,
                description: self.description.to_string(),
                reward: self.reward,
                package: self.package.to_string(),
                store_url: self.store_url.to_string(),
            },
            seen_at: self.seen_at,
            affiliate: self.affiliate.to_string(),
            vantage: self.vantage,
        }
    }
}

impl ScrapedOffer {
    pub(crate) fn fields(&self) -> OfferFields<'_> {
        OfferFields {
            iip: self.iip,
            offer_key: self.raw.offer_key,
            description: &self.raw.description,
            reward: self.raw.reward,
            package: &self.raw.package,
            store_url: &self.raw.store_url,
            seen_at: self.seen_at,
            affiliate: &self.affiliate,
            vantage: self.vantage,
        }
    }
}

impl SpillRow for ScrapedOffer {
    fn enc_row(&self, e: &mut Enc) {
        self.fields().enc(e);
    }

    fn dec_row(d: &mut Dec) -> Result<ScrapedOffer, FrameError> {
        let iip = iip_from_index(d.u8()?)?;
        let offer_key = d.u64()?;
        let description = d.str()?;
        let reward = match d.u8()? {
            0 => RewardValue::Usd(d.f64()?),
            1 => RewardValue::Points(d.i64()?),
            2 => RewardValue::Cents(d.i64()?),
            _ => return Err(FrameError::Codec("unknown reward tag")),
        };
        let package = d.str()?;
        let store_url = d.str()?;
        let seen_at = SimTime::from_secs(d.u64()?);
        let affiliate = d.str()?;
        let vantage = country_from_code(d.str()?)?;
        Ok(OfferFields {
            iip,
            offer_key,
            description,
            reward,
            package,
            store_url,
            seen_at,
            affiliate,
            vantage,
        }
        .to_offer())
    }

    fn approx_bytes(&self) -> usize {
        self.fields().approx_bytes()
    }
}

/// A profile crawl with borrowed strings: the one profile codec.
/// `SpillRow for ProfileSnapshot` encodes through it, and so do the
/// dataset's interned profile rows and the snapshot PROFILES section,
/// so every form of a profile writes the same bytes. It is also what
/// the dataset's profile readers yield: a decoded crawl whose strings
/// borrow the dataset's symbol tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileFields<'a> {
    /// Crawl day (simulated).
    pub day: u64,
    /// Package name.
    pub package: &'a str,
    /// Title.
    pub title: &'a str,
    /// Play genre id.
    pub genre_id: &'a str,
    /// Release day on the simulated timeline.
    pub released_day: u64,
    /// Public lower-bound install count.
    pub min_installs: u64,
    /// Developer id.
    pub developer_id: u64,
    /// Developer name.
    pub developer_name: &'a str,
    /// Developer country code.
    pub developer_country: &'a str,
    /// Developer contact email.
    pub developer_email: &'a str,
    /// Developer website (empty when not listed).
    pub developer_website: &'a str,
    /// Average star rating (0.0 when unrated).
    pub rating: f64,
    /// Number of ratings behind the average.
    pub rating_count: u64,
}

impl<'a> ProfileFields<'a> {
    /// Writes the crawl's codec bytes.
    pub(crate) fn enc(self, e: &mut Enc) {
        e.u64(self.day);
        e.str(self.package).str(self.title).str(self.genre_id);
        e.u64(self.released_day)
            .u64(self.min_installs)
            .u64(self.developer_id);
        e.str(self.developer_name)
            .str(self.developer_country)
            .str(self.developer_email)
            .str(self.developer_website);
        e.f64(self.rating).u64(self.rating_count);
    }

    /// Reads one crawl, borrowing its strings from the payload.
    pub(crate) fn dec(d: &mut Dec<'a>) -> Result<ProfileFields<'a>, FrameError> {
        Ok(ProfileFields {
            day: d.u64()?,
            package: d.str()?,
            title: d.str()?,
            genre_id: d.str()?,
            released_day: d.u64()?,
            min_installs: d.u64()?,
            developer_id: d.u64()?,
            developer_name: d.str()?,
            developer_country: d.str()?,
            developer_email: d.str()?,
            developer_website: d.str()?,
            rating: d.f64()?,
            rating_count: d.u64()?,
        })
    }

    /// The owned snapshot.
    pub fn to_snapshot(self) -> ProfileSnapshot {
        ProfileSnapshot {
            day: self.day,
            package: self.package.to_string(),
            title: self.title.to_string(),
            genre_id: self.genre_id.to_string(),
            released_day: self.released_day,
            min_installs: self.min_installs,
            developer_id: self.developer_id,
            developer_name: self.developer_name.to_string(),
            developer_country: self.developer_country.to_string(),
            developer_email: self.developer_email.to_string(),
            developer_website: self.developer_website.to_string(),
            rating: self.rating,
            rating_count: self.rating_count,
        }
    }
}

impl ProfileSnapshot {
    /// The snapshot's fields, borrowed.
    pub fn fields(&self) -> ProfileFields<'_> {
        ProfileFields {
            day: self.day,
            package: &self.package,
            title: &self.title,
            genre_id: &self.genre_id,
            released_day: self.released_day,
            min_installs: self.min_installs,
            developer_id: self.developer_id,
            developer_name: &self.developer_name,
            developer_country: &self.developer_country,
            developer_email: &self.developer_email,
            developer_website: &self.developer_website,
            rating: self.rating,
            rating_count: self.rating_count,
        }
    }
}

impl SpillRow for ProfileSnapshot {
    fn enc_row(&self, e: &mut Enc) {
        self.fields().enc(e);
    }

    fn dec_row(d: &mut Dec) -> Result<ProfileSnapshot, FrameError> {
        Ok(ProfileFields::dec(d)?.to_snapshot())
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<ProfileSnapshot>()
            + self.package.len()
            + self.title.len()
            + self.genre_id.len()
            + self.developer_name.len()
            + self.developer_country.len()
            + self.developer_email.len()
            + self.developer_website.len()
    }
}

impl SpillRow for ChartSnapshot {
    fn enc_row(&self, e: &mut Enc) {
        e.u64(self.day)
            .str(self.chart)
            .u64(self.entries.len() as u64);
        for (pkg, rank) in &self.entries {
            e.str(pkg).u64(*rank as u64);
        }
    }

    fn dec_row(d: &mut Dec) -> Result<ChartSnapshot, FrameError> {
        let day = d.u64()?;
        let chart = chart_id_from_str(d.str()?)?;
        let n = d.u64()?;
        let mut entries = Vec::new();
        for _ in 0..n {
            let pkg = d.str()?.to_string();
            entries.push((pkg, d.u64()? as usize));
        }
        Ok(ChartSnapshot {
            day,
            chart,
            entries,
        })
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<ChartSnapshot>()
            + self
                .entries
                .iter()
                .map(|(pkg, _)| pkg.len() + std::mem::size_of::<(String, usize)>())
                .sum::<usize>()
    }
}

fn iip_from_index(idx: u8) -> Result<IipId, FrameError> {
    IipId::ALL
        .get(idx as usize)
        .copied()
        .ok_or(FrameError::Codec("IIP index out of range"))
}

fn country_from_code(code: &str) -> Result<Country, FrameError> {
    Country::ALL
        .iter()
        .find(|c| c.code() == code)
        .copied()
        .ok_or(FrameError::Codec("unknown country code"))
}

fn chart_id_from_str(s: &str) -> Result<&'static str, FrameError> {
    ChartKind::ALL
        .iter()
        .find(|k| k.id() == s)
        .map(|k| k.id())
        .ok_or(FrameError::Codec("unknown chart id"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer(key: u64, day: u64) -> ScrapedOffer {
        ScrapedOffer {
            iip: IipId::Fyber,
            raw: RawOffer {
                offer_key: key,
                description: format!("Install and register #{key}"),
                reward: RewardValue::Cents(5 + key as i64),
                package: format!("com.app.{key}"),
                store_url: format!("https://play.iiscope/store/apps/details?id=com.app.{key}"),
            },
            seen_at: SimTime::from_days(day),
            affiliate: "com.cash.app".into(),
            vantage: Country::Us,
        }
    }

    fn resident_rows(log: &RowLog<ScrapedOffer>) -> Vec<ScrapedOffer> {
        log.resident(&()).rows().collect()
    }

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "iiscope-spill-test-{tag}-{}-{:?}.spill",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn resident_log_round_trips_without_a_file() {
        let mut log: RowLog<ScrapedOffer> = RowLog::new();
        for k in 0..100 {
            log.push(offer(k, k), &());
        }
        assert_eq!(log.len(), 100);
        let back: Vec<ScrapedOffer> = log.iter(&()).collect();
        assert_eq!(back.len(), 100);
        assert_eq!(back[7], offer(7, 7));
        assert_eq!(log.stats().spilled_segments, 0);
        assert!(log.manifest().segments.is_empty());
        assert_eq!(resident_rows(&log).len(), 100);
    }

    #[test]
    fn tiny_budget_spills_and_iteration_is_unchanged() {
        let path = tmpfile("budget");
        let mut log: RowLog<ScrapedOffer> = RowLog::new();
        log.configure(Some(16 * 1024), path.clone(), &());
        let want: Vec<ScrapedOffer> = (0..2_000).map(|k| offer(k, k % 90)).collect();
        for o in &want {
            log.push(o.clone(), &());
        }
        let stats = log.stats();
        assert!(stats.spilled_segments > 0, "budget must force spilling");
        assert!(stats.spilled_rows > 0);
        assert!(stats.resident_bytes < stats.spilled_bytes + stats.resident_bytes);
        // Byte-invariance: same rows, same order.
        let back: Vec<ScrapedOffer> = log.iter(&()).collect();
        assert_eq!(back, want);
        // A second pass reloads through the LRU (some hits, maybe some
        // misses — but never a different answer).
        let again: Vec<ScrapedOffer> = log.iter(&()).collect();
        assert_eq!(again, want);
        assert!(log.stats().reloads >= stats.spilled_segments);
        // Manifest + suffix partition the log.
        let manifest = log.manifest();
        let spilled: u64 = manifest.segments.iter().map(|s| s.rows).sum();
        assert_eq!(spilled as usize + resident_rows(&log).len(), want.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_spill_write_is_recorded_and_rows_stay_resident() {
        // A spill path under a regular file: creating its directory
        // fails even as root.
        let blocker = tmpfile("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut log: RowLog<ScrapedOffer> = RowLog::new();
        log.configure(Some(8 * 1024), blocker.join("spill").join("x.spill"), &());
        let want: Vec<ScrapedOffer> = (0..500).map(|k| offer(k, k % 90)).collect();
        for o in &want {
            log.push(o.clone(), &());
        }
        let err = log.spill_error().expect("the spill write must fail");
        assert!(err.to_string().starts_with("spill to "), "{err}");
        assert_eq!(log.stats().spilled_segments, 0);
        assert!(log.manifest().segments.is_empty() && log.manifest().file.is_none());
        assert_eq!(log.iter(&()).collect::<Vec<_>>(), want);
        assert_eq!(resident_rows(&log), want);
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn a_relative_spill_path_is_recorded_absolute() {
        // A relative path from the working directory down into the temp
        // dir. The test reads the working directory and never changes it.
        let cwd = std::env::current_dir().unwrap();
        let target = tmpfile("relative");
        let up: PathBuf = cwd.components().skip(1).map(|_| "..").collect();
        let relative = up.join(target.strip_prefix("/").unwrap());
        assert!(relative.is_relative());
        let mut log: RowLog<ScrapedOffer> = RowLog::new();
        log.configure(Some(8 * 1024), relative.clone(), &());
        for k in 0..500 {
            log.push(offer(k, k % 90), &());
        }
        assert!(log.stats().spilled_segments > 0);
        assert_eq!(log.manifest().file, Some(cwd.join(&relative)));
        let _ = std::fs::remove_file(&target);
    }

    #[test]
    fn attach_restores_and_rejects_corruption() {
        let path = tmpfile("attach");
        let mut log: RowLog<ScrapedOffer> = RowLog::new();
        log.configure(Some(8 * 1024), path.clone(), &());
        let want: Vec<ScrapedOffer> = (0..1_500).map(|k| offer(k, k % 90)).collect();
        for o in &want {
            log.push(o.clone(), &());
        }
        let manifest = log.manifest().clone();
        let suffix = resident_rows(&log);
        assert!(!manifest.segments.is_empty());

        // Simulate a crashed run writing stale bytes past the manifest.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"stale garbage from a crashed successor")
                .unwrap();
        }

        let mut restored: RowLog<ScrapedOffer> = RowLog::new();
        restored
            .attach(&manifest)
            .expect("attach verified manifest");
        for o in &suffix {
            restored.push(o.clone(), &());
        }
        let back: Vec<ScrapedOffer> = restored.iter(&()).collect();
        assert_eq!(back, want);
        // The stale bytes were truncated away.
        let end: u64 = manifest
            .segments
            .iter()
            .map(|s| s.offset + s.len)
            .max()
            .unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end);

        // Flip one byte inside a referenced segment: attach must refuse.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = (manifest.segments[0].offset + manifest.segments[0].len / 2) as usize;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut corrupt: RowLog<ScrapedOffer> = RowLog::new();
        assert!(corrupt.attach(&manifest).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn iter_from_matches_skip_at_every_position() {
        let path = tmpfile("iter-from");
        let mut log: RowLog<ScrapedOffer> = RowLog::new();
        log.configure(Some(16 * 1024), path.clone(), &());
        let want: Vec<ScrapedOffer> = (0..1_200).map(|k| offer(k, k / 40)).collect();
        for o in &want {
            log.push(o.clone(), &());
        }
        assert!(log.stats().spilled_segments > 0);
        // Positions chosen to land inside spilled segments, resident
        // segments, the tail, on boundaries, and past the end.
        for start in [
            0,
            1,
            37,
            400,
            777,
            want.len() - 1,
            want.len(),
            want.len() + 5,
        ] {
            let got: Vec<ScrapedOffer> = log.iter_from(start, &()).collect();
            let expect: Vec<ScrapedOffer> = want.iter().skip(start).cloned().collect();
            assert_eq!(got, expect, "iter_from({start})");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn iter_from_past_spilled_prefix_never_touches_disk() {
        let path = tmpfile("iter-cold");
        let mut log: RowLog<ScrapedOffer> = RowLog::new();
        log.configure(Some(16 * 1024), path.clone(), &());
        for k in 0..2_000 {
            log.push(offer(k, k % 90), &());
        }
        let stats = log.stats();
        assert!(stats.spilled_rows > 0);
        let first_resident = stats.spilled_rows as usize;
        let reloads_before = log.stats().reloads;
        let n = log.iter_from(first_resident, &()).count();
        assert_eq!(n, log.len() - first_resident);
        assert_eq!(
            log.stats().reloads,
            reloads_before,
            "a cursor past the spilled prefix must not reload cold segments"
        );
        let _ = std::fs::remove_file(&path);
    }

    proptest::proptest! {
        /// Satellite: a day-delta cursor — "rows appended since day d"
        /// — equals the suffix of full iteration at any memory budget,
        /// regardless of where the spill/resident boundary falls.
        #[test]
        fn delta_cursor_equals_full_iteration_suffix(
            n_rows in 1usize..900,
            budget_kib in 0u64..64,
            since_day in 0u64..32,
        ) {
            let path = tmpfile(&format!("prop-{n_rows}-{budget_kib}-{since_day}"));
            let mut log: RowLog<ScrapedOffer> = RowLog::new();
            // budget_kib < 4 means "unbounded" (no spilling at all);
            // otherwise budgets from 4 KiB up sweep the spill/resident
            // boundary across the log.
            if budget_kib >= 4 {
                log.configure(Some(budget_kib * 1024), path.clone(), &());
            }
            // Rows arrive in day order (the append-only crawl pattern),
            // ~30 rows per day.
            let want: Vec<ScrapedOffer> =
                (0..n_rows as u64).map(|k| offer(k, k / 30)).collect();
            for o in &want {
                log.push(o.clone(), &());
            }
            // The cursor for "since day d" is the count of rows strictly
            // before that day — exactly what a per-day fold records.
            let start = want
                .iter()
                .position(|o| o.seen_at.days() >= since_day)
                .unwrap_or(want.len());
            let got: Vec<ScrapedOffer> = log.iter_from(start, &()).collect();
            let full: Vec<ScrapedOffer> = log.iter(&()).collect();
            proptest::prop_assert_eq!(&got[..], &full[start..]);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn chart_and_profile_rows_round_trip_the_codec() {
        let chart = ChartSnapshot {
            day: 12,
            chart: ChartKind::ALL[0].id(),
            entries: vec![("com.a".into(), 1), ("com.b".into(), 2)],
        };
        let mut e = Enc::new();
        chart.enc_row(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(ChartSnapshot::dec_row(&mut d).unwrap(), chart);
        d.finish().unwrap();

        let profile = ProfileSnapshot {
            day: 3,
            package: "com.a.b".into(),
            title: "A".into(),
            genre_id: "TOOLS".into(),
            released_day: 1,
            min_installs: 100,
            developer_id: 4,
            developer_name: "Dev".into(),
            developer_country: "DE".into(),
            developer_email: "d@x".into(),
            developer_website: String::new(),
            rating: 4.5,
            rating_count: 9,
        };
        let mut e = Enc::new();
        profile.enc_row(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(ProfileSnapshot::dec_row(&mut d).unwrap(), profile);
        d.finish().unwrap();
    }
}
