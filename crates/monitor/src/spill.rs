//! Out-of-core row storage for the monitor dataset.
//!
//! The paper-scale dataset fits in memory; a 100×-scale run does not.
//! [`RowLog`] keeps each append-only row log (offer observations,
//! chart crawls) as a resident *tail* plus closed *segments*; when a
//! memory budget is set and exceeded, the oldest closed segments spill
//! to disk through the CRC-framed [`iiscope_types::frame`] codec
//! already proven by checkpointing. Spilled segments decode back
//! through a small LRU cache, so a scan touches disk once per segment
//! per pass, not once per row.
//!
//! A log holds one row form, a [`LogRow`]: compact rows whose strings
//! are symbols of their owner's tables, written to disk as they are
//! held (each symbol a `u32`), read back by bounds-checking each symbol
//! against its table, viewed in place, and budgeted at the owned
//! crawl's accounted size.
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
//!   per record inside) appended to the log's [`SpillFile`], and its
//!   [`SegRef`] additionally carries the file's CRC of the whole blob;
//!   [`RowLog::attach`] re-reads and verifies every referenced segment
//!   before a resume is allowed to proceed.

use iiscope_types::frame::{Dec, Enc, FrameError, FrameReader, FrameWriter};
use iiscope_types::spillfile::{SpillError, SpillFile, SpillRef};
use iiscope_types::{Chunked, Interner, Sym};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;

/// The one row form a [`RowLog`] keeps: its strings are symbols of the
/// tables its owner passes in as `Ctx`. Spill segments and snapshot
/// sections hold the row as it is held: each symbol a `u32`, each enum
/// a small index, each number at full width.
pub trait LogRow: Sized + std::fmt::Debug {
    /// Tables the row's symbols resolve through.
    type Ctx;
    /// The borrowed view iteration yields.
    type View<'a>
    where
        Self::Ctx: 'a;
    /// The owned crawl's struct plus heap bytes: what budgets, segment
    /// boundaries and the LRU cap count, never allocator truth.
    fn accounted_bytes(&self) -> usize;
    /// Writes the row's bytes.
    fn encode(&self, e: &mut Enc);
    /// Reads one encoded row, checking each symbol against its table in
    /// `ctx` ([`dec_sym`]): decoding never hashes and never mints.
    fn decode(d: &mut Dec<'_>, ctx: &Self::Ctx) -> Result<Self, FrameError>;
    /// The row's view, borrowing `ctx`.
    fn view<'a>(&self, ctx: &'a Self::Ctx) -> Self::View<'a>;
}

/// Location of one spilled segment inside a spill file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRef {
    /// Rows in the segment.
    pub rows: u64,
    /// The segment's frame blob; its CRC covers the whole blob (defense
    /// in depth on top of the frame's per-record CRC).
    pub blob: SpillRef,
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
    /// Accounted bytes ([`LogRow::accounted_bytes`]) of the rows held
    /// in memory: tail, resident segments and reload cache. An upper
    /// bound on their real footprint.
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

/// The LRU of decoded spilled segments. Behind a mutex so read-only
/// dataset accessors (which run under the experiment fan-out) can load
/// segments from `&self`.
#[derive(Debug)]
struct Cold<R> {
    /// Decoded segments, most-recently-used first.
    cache: Vec<(usize, Arc<Vec<R>>, usize)>,
    cache_bytes: usize,
    reloads: u64,
}

/// Default segment-close threshold when no budget is set.
const DEFAULT_SEG_BYTES: usize = 1 << 20;

/// An append-only row log with optional disk spilling.
///
/// In log order a log is its spilled segments (`spilled`), then its
/// resident closed segments (`warm`), then the open `tail`; segment
/// indices count across `spilled` and `warm`. Every method that may
/// decode or view a row takes the tables it resolves through.
#[derive(Debug)]
pub struct RowLog<R: LogRow> {
    tail: Chunked<R>,
    tail_bytes: usize,
    /// The spilled prefix: the spill file and its segments, oldest
    /// first — exactly what a checkpoint references.
    spilled: SpillManifest,
    warm: VecDeque<Warm<R>>,
    len: usize,
    /// Resident budget in bytes; `None` disables spilling.
    budget: Option<usize>,
    /// The spill file, created on the first spill. After its first
    /// failed write the log spills nothing more.
    file: Option<SpillFile>,
    cold: Mutex<Cold<R>>,
}

impl<R: LogRow> Default for RowLog<R> {
    fn default() -> RowLog<R> {
        RowLog {
            tail: Chunked::default(),
            tail_bytes: 0,
            spilled: SpillManifest::default(),
            warm: VecDeque::new(),
            len: 0,
            budget: None,
            file: None,
            cold: Mutex::new(Cold {
                cache: Vec::new(),
                cache_bytes: 0,
                reloads: 0,
            }),
        }
    }
}

impl<R: LogRow> RowLog<R> {
    /// Sets the resident budget and the spill file path. May be called
    /// before any row or after ingest started; enforcement happens on
    /// the next push (and immediately, for already-closed segments). A
    /// log that already spilled keeps its file.
    pub fn configure(&mut self, budget: Option<u64>, spill_file: PathBuf) {
        self.budget = budget.map(|b| b as usize);
        if self.spilled.segments.is_empty() {
            self.file = Some(SpillFile::kept(spill_file));
        }
        self.enforce();
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
    pub fn push(&mut self, row: R) {
        self.tail_bytes += row.accounted_bytes();
        self.tail.push(row);
        self.len += 1;
        if self.tail_bytes >= self.seg_bytes_threshold() {
            // A closed segment never grows: drop its last chunk's slack.
            let mut rows = std::mem::take(&mut self.tail);
            rows.shrink_to_fit();
            let bytes = std::mem::take(&mut self.tail_bytes);
            self.warm.push_back(Warm { rows, bytes });
            self.enforce();
        }
    }

    /// Appends the oldest resident segments to the spill file, moving
    /// them to the spilled prefix, until the accounted resident bytes
    /// fit the budget (or nothing closed remains resident). Once the
    /// file has failed a write it spills nothing: rows stay resident.
    fn enforce(&mut self) {
        let (Some(budget), Some(file)) = (self.budget, &self.file) else {
            return;
        };
        while self.resident_bytes() > budget as u64 {
            let Some(seg) = self.warm.front() else { return };
            let Some(blob) = file.append(&frame_rows(&seg.rows)) else {
                return;
            };
            if self.spilled.file.is_none() {
                // The manifest names the file absolutely, so a checkpoint
                // written under a relative spill dir resumes from any
                // working directory.
                let path = file.path();
                self.spilled.file = Some(std::path::absolute(path).unwrap_or_else(|_| path.into()));
            }
            let rows = seg.rows.len() as u64;
            self.warm.pop_front();
            self.spilled.segments.push(SegRef { rows, blob });
        }
    }

    /// The first spill write that failed, if any. The log keeps
    /// working fully resident after it; a caller that needs the
    /// budget to hold treats it as fatal.
    pub fn spill_error(&self) -> Option<&SpillError> {
        self.file.as_ref()?.error()
    }

    /// Flushes the spill file to the device, so a snapshot naming its
    /// segments survives an OS crash.
    pub fn sync(&self) -> Result<(), SpillError> {
        self.file.as_ref().map_or(Ok(()), SpillFile::sync)
    }

    /// Loads a spilled segment through the LRU cache.
    ///
    /// # Panics
    /// If the segment cannot be read back or names a symbol past its
    /// table: the log wrote the file itself, so either is a fault below
    /// the program. The message names the spill file and the offset.
    fn load(&self, seg_idx: usize, seg: SegRef, ctx: &R::Ctx) -> Arc<Vec<R>> {
        let mut cold = self.cold.lock();
        if let Some(pos) = cold.cache.iter().position(|(i, _, _)| *i == seg_idx) {
            let hit = cold.cache.remove(pos);
            let rows = hit.1.clone();
            cold.cache.insert(0, hit);
            return rows;
        }
        cold.reloads += 1;
        let file = self.file.as_ref().expect("spilled without a file");
        let rows = read_rows(file, seg, |d| R::decode(d, ctx)).unwrap_or_else(|e| panic!("{e}"));
        let bytes: usize = rows.iter().map(R::accounted_bytes).sum();
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

    /// Rows in closed segment `idx`.
    fn seg_rows(&self, idx: usize) -> usize {
        match self.spilled.segments.get(idx) {
            Some(r) => r.rows as usize,
            None => self.warm[idx - self.spilled.segments.len()].rows.len(),
        }
    }

    /// The rows of segment `idx`, reloading a spilled one; the index
    /// past the closed segments is the tail.
    fn seg_cur(&self, idx: usize, ctx: &R::Ctx) -> Cur<'_, R> {
        match self.spilled.segments.get(idx) {
            Some(r) => Cur::Loaded(self.load(idx, *r, ctx)),
            None => Cur::Rows(
                self.warm
                    .get(idx - self.spilled.segments.len())
                    .map_or(&self.tail, |w| &w.rows),
            ),
        }
    }

    /// Iterates every row's view in append order, transparently
    /// reloading spilled segments.
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
    /// nothing spilled). Together with [`RowLog::enc_resident`] this is
    /// the complete persistent form of the log.
    pub fn manifest(&self) -> &SpillManifest {
        &self.spilled
    }

    /// Writes the rows *after* the spilled prefix (warm segments, then
    /// the tail) as a snapshot section body: their count, then each
    /// row's bytes in log order.
    pub(crate) fn enc_resident(&self, e: &mut Enc) {
        let spilled: u64 = self.spilled.segments.iter().map(|s| s.rows).sum();
        e.u64(self.len as u64 - spilled);
        let warm = self.warm.iter().flat_map(|w| w.rows.iter());
        warm.chain(self.tail.iter()).for_each(|r| r.encode(e));
    }

    /// Reattaches a spilled prefix on restore: reopens the manifest's
    /// spill file cut back to its end, reads each segment once (a
    /// reload, as in any scan), verifies it and hands each row's bytes
    /// to `row`, then registers the segments, which stay spilled.
    /// Must be called on an empty log, before any push.
    pub fn attach(
        &mut self,
        manifest: &SpillManifest,
        mut row: impl FnMut(&mut Dec<'_>) -> Result<(), FrameError>,
    ) -> Result<(), String> {
        assert!(self.len == 0, "attach on empty log only");
        if manifest.segments.is_empty() {
            return Ok(());
        }
        let path = manifest
            .file
            .as_ref()
            .ok_or_else(|| "spill manifest has segments but no file".to_string())?;
        let mut end = 0u64;
        for seg in &manifest.segments {
            if seg.blob.offset != end {
                let at = seg.blob.offset;
                return Err(format!(
                    "spill manifest gap: segment at {at} expected at {end}"
                ));
            }
            end += u64::from(seg.blob.len);
        }
        let file = SpillFile::reopen(path, end)
            .map_err(|e| format!("reopen spill file {}: {e}", path.display()))?;
        for seg in &manifest.segments {
            read_rows(&file, *seg, &mut row)?;
        }
        self.len = manifest.segments.iter().map(|s| s.rows as usize).sum();
        self.spilled = manifest.clone();
        self.file = Some(file);
        self.cold.get_mut().reloads += manifest.segments.len() as u64;
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
            spilled_bytes: segments.iter().map(|s| u64::from(s.blob.len)).sum(),
            reloads,
            resident_bytes: self.resident_bytes(),
        }
    }
}

/// A segment's frame blob: one record holding the row count, then
/// each row's bytes.
fn frame_rows<R: LogRow>(rows: &Chunked<R>) -> Vec<u8> {
    let framed = (|| {
        let mut w = FrameWriter::new(Cursor::new(Vec::new()))?;
        w.record_with(|e| {
            e.u64(rows.len() as u64);
            rows.iter().for_each(|r| r.encode(e));
        })?;
        w.finish()
    })();
    framed
        .expect("framing into memory cannot fail")
        .into_inner()
}

/// Reads segment `seg` back from `file` and decodes its rows with
/// `row`, in order, after checking its frame and row count. The error
/// names the file and the offset.
fn read_rows<T>(
    file: &SpillFile,
    seg: SegRef,
    mut row: impl FnMut(&mut Dec<'_>) -> Result<T, FrameError>,
) -> Result<Vec<T>, String> {
    let mut blob = vec![0u8; seg.blob.len as usize];
    file.read(seg.blob, &mut blob, |blob| {
        let mut reader = FrameReader::new(blob)?;
        let payload = reader
            .next_record()?
            .ok_or(FrameError::Codec("empty segment blob"))?;
        if reader.next_record()?.is_some() {
            return Err(FrameError::Codec("trailing record in segment blob"));
        }
        let mut d = Dec::new(payload);
        if d.u64()? != seg.rows {
            return Err(FrameError::Codec("segment row count mismatch"));
        }
        let mut rows = Vec::with_capacity(seg.rows as usize);
        for _ in 0..seg.rows {
            rows.push(row(&mut d)?);
        }
        d.finish().map(|()| rows)
    })
}

enum Cur<'a, R> {
    Rows(&'a Chunked<R>),
    Loaded(Arc<Vec<R>>),
}

/// Iterator over a [`RowLog`], yielding each row's view in append
/// order.
pub struct RowLogIter<'a, R: LogRow> {
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

impl<'a, R: LogRow> Iterator for RowLogIter<'a, R> {
    type Item = R::View<'a>;

    fn next(&mut self) -> Option<R::View<'a>> {
        while self.remaining > 0 {
            let cur = self
                .cur
                .get_or_insert_with(|| self.log.seg_cur(self.seg, self.ctx));
            let row = match cur {
                Cur::Rows(c) => (self.at < c.len()).then(|| &c[self.at]),
                Cur::Loaded(a) => a.get(self.at),
            };
            if let Some(row) = row {
                self.at += 1;
                self.remaining -= 1;
                return Some(row.view(self.ctx));
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

impl<R: LogRow> ExactSizeIterator for RowLogIter<'_, R> {}

// --- Row codec helpers ----------------------------------------------
//
// A row is written as it is held: its symbols as `u32`s, its enums as
// one-byte indices, its numbers at full width. These read the first two
// back without hashing.

/// Reads a symbol of `table`: a `u32` checked against the table's
/// length, so a decode never hashes a string and never mints a symbol.
pub(crate) fn dec_sym(d: &mut Dec<'_>, table: &Interner) -> Result<Sym, FrameError> {
    let sym = d.u32()?;
    if (sym as usize) < table.len() {
        Ok(Sym(sym))
    } else {
        Err(FrameError::Codec("symbol past the end of its table"))
    }
}

/// Reads a one-byte index into `all`; an index past it is `what`.
pub(crate) fn dec_index<T: Copy>(
    d: &mut Dec<'_>,
    all: &[T],
    what: &'static str,
) -> Result<T, FrameError> {
    let i = usize::from(d.u8()?);
    all.get(i).copied().ok_or(FrameError::Codec(what))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawler::{ChartSnapshot, ProfileSnapshot};
    use crate::dataset::{ChartRow, Dataset, OfferRow};
    use crate::parsers::{RawOffer, RewardValue, ScrapedOffer};
    use crate::profiles::ProfileRow;
    use iiscope_playstore::ChartKind;
    use iiscope_types::{Country, IipId, SimTime};

    /// The owned observation as its own row form, its strings written
    /// in full: the oracle the log's mechanics are checked with. It
    /// writes the fields the fixtures below vary.
    impl LogRow for ScrapedOffer {
        type Ctx = ();
        type View<'a> = ScrapedOffer;

        fn accounted_bytes(&self) -> usize {
            self.fields().accounted_bytes() as usize
        }

        fn encode(&self, e: &mut Enc) {
            let RewardValue::Cents(cents) = self.raw.reward else {
                unreachable!("the fixtures pay cents")
            };
            e.u64(self.raw.offer_key)
                .i64(cents)
                .u64(self.seen_at.secs());
            e.str(&self.raw.description)
                .str(&self.raw.package)
                .str(&self.raw.store_url);
        }

        fn decode(d: &mut Dec<'_>, _: &()) -> Result<ScrapedOffer, FrameError> {
            let (offer_key, cents, secs) = (d.u64()?, d.i64()?, d.u64()?);
            Ok(ScrapedOffer {
                iip: IipId::Fyber,
                raw: RawOffer {
                    offer_key,
                    description: d.str()?.into(),
                    reward: RewardValue::Cents(cents),
                    package: d.str()?.into(),
                    store_url: d.str()?.into(),
                },
                seen_at: SimTime::from_secs(secs),
                affiliate: "com.cash.app".into(),
                vantage: Country::Us,
            })
        }

        fn view(&self, _: &()) -> ScrapedOffer {
            self.clone()
        }
    }

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

    /// The rows of a section body: its count, then each row.
    fn section_rows<R: LogRow>(bytes: &[u8], ctx: &R::Ctx) -> Vec<R> {
        let mut d = Dec::new(bytes);
        let rows = (0..d.u64().unwrap())
            .map(|_| R::decode(&mut d, ctx).unwrap())
            .collect();
        d.finish().unwrap();
        rows
    }

    /// The log's resident suffix, decoded back from its section body.
    fn resident_rows(log: &RowLog<ScrapedOffer>) -> Vec<ScrapedOffer> {
        let mut e = Enc::new();
        log.enc_resident(&mut e);
        section_rows(&e.into_bytes(), &())
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
        let mut log: RowLog<ScrapedOffer> = RowLog::default();
        for k in 0..100 {
            log.push(offer(k, k));
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
        let mut log: RowLog<ScrapedOffer> = RowLog::default();
        log.configure(Some(16 * 1024), path.clone());
        let want: Vec<ScrapedOffer> = (0..2_000).map(|k| offer(k, k % 90)).collect();
        for o in &want {
            log.push(o.clone());
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
        let mut log: RowLog<ScrapedOffer> = RowLog::default();
        log.configure(Some(8 * 1024), blocker.join("spill").join("x.spill"));
        let want: Vec<ScrapedOffer> = (0..500).map(|k| offer(k, k % 90)).collect();
        for o in &want {
            log.push(o.clone());
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
        let mut log: RowLog<ScrapedOffer> = RowLog::default();
        log.configure(Some(8 * 1024), relative.clone());
        for k in 0..500 {
            log.push(offer(k, k % 90));
        }
        assert!(log.stats().spilled_segments > 0);
        assert_eq!(log.manifest().file, Some(cwd.join(&relative)));
        let _ = std::fs::remove_file(&target);
    }

    #[test]
    fn attach_restores_and_rejects_corruption() {
        let path = tmpfile("attach");
        let mut log: RowLog<ScrapedOffer> = RowLog::default();
        log.configure(Some(8 * 1024), path.clone());
        let want: Vec<ScrapedOffer> = (0..1_500).map(|k| offer(k, k % 90)).collect();
        for o in &want {
            log.push(o.clone());
        }
        let manifest = log.manifest().clone();
        let suffix = resident_rows(&log);
        assert!(!manifest.segments.is_empty());

        // Simulate a crashed run writing stale bytes past the manifest.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"stale garbage from a crashed successor")
                .unwrap();
        }

        let mut restored: RowLog<ScrapedOffer> = RowLog::default();
        restored
            .attach(&manifest, |d| ScrapedOffer::decode(d, &()).map(drop))
            .expect("attach verified manifest");
        for o in &suffix {
            restored.push(o.clone());
        }
        let back: Vec<ScrapedOffer> = restored.iter(&()).collect();
        assert_eq!(back, want);
        // The stale bytes were truncated away.
        let end: u64 = manifest
            .segments
            .iter()
            .map(|s| s.blob.offset + u64::from(s.blob.len))
            .max()
            .unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end);

        // Flip one byte inside a referenced segment: attach must refuse.
        let mut bytes = std::fs::read(&path).unwrap();
        let first = manifest.segments[0].blob;
        let mid = (first.offset + u64::from(first.len / 2)) as usize;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut corrupt: RowLog<ScrapedOffer> = RowLog::default();
        let err = corrupt.attach(&manifest, |d| ScrapedOffer::decode(d, &()).map(drop));
        assert!(err.unwrap_err().contains("is invalid"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn iter_from_matches_skip_at_every_position() {
        let path = tmpfile("iter-from");
        let mut log: RowLog<ScrapedOffer> = RowLog::default();
        log.configure(Some(16 * 1024), path.clone());
        let want: Vec<ScrapedOffer> = (0..1_200).map(|k| offer(k, k / 40)).collect();
        for o in &want {
            log.push(o.clone());
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
        let mut log: RowLog<ScrapedOffer> = RowLog::default();
        log.configure(Some(16 * 1024), path.clone());
        for k in 0..2_000 {
            log.push(offer(k, k % 90));
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
            let mut log: RowLog<ScrapedOffer> = RowLog::default();
            // budget_kib < 4 means "unbounded" (no spilling at all);
            // otherwise budgets from 4 KiB up sweep the spill/resident
            // boundary across the log.
            if budget_kib >= 4 {
                log.configure(Some(budget_kib * 1024), path.clone());
            }
            // Rows arrive in day order (the append-only crawl pattern),
            // ~30 rows per day.
            let want: Vec<ScrapedOffer> =
                (0..n_rows as u64).map(|k| offer(k, k / 30)).collect();
            for o in &want {
                log.push(o.clone());
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
        // Rows write `iip as u8` and `vantage as u8` and read them back
        // as positions in `ALL`.
        assert!(IipId::ALL.iter().enumerate().all(|(i, &x)| x as usize == i));
        assert!(Country::ALL
            .iter()
            .enumerate()
            .all(|(i, &x)| x as usize == i));
        // Empty and non-ASCII strings, every reward kind, and the last
        // IIP, country and chart, so every index sits at its edge.
        let mut ds = Dataset::new();
        ds.add_offers((0..3).map(|k| {
            let mut o = offer(k, k);
            o.iip = IipId::ALL[IipId::ALL.len() - 1];
            o.vantage = Country::ALL[Country::ALL.len() - 1 - k as usize];
            o.raw.reward = [
                RewardValue::Usd(-0.5),
                RewardValue::Points(i64::MIN),
                RewardValue::Cents(i64::MAX),
            ][k as usize];
            o.raw.description = ["", "Installez \u{e0} \u{20ac}", "x"][k as usize].into();
            o.affiliate = String::new();
            o
        }));
        ds.add_chart(ChartSnapshot {
            day: 12,
            chart: ChartKind::ALL[ChartKind::ALL.len() - 1].id(),
            entries: vec![
                ("com.a".into(), 1),
                (String::new(), 2),
                ("com.\u{e9}".into(), u32::MAX as usize),
            ],
        });
        ds.add_chart(ChartSnapshot {
            day: 13,
            chart: ChartKind::ALL[0].id(),
            entries: vec![],
        });
        ds.add_profile(ProfileSnapshot {
            day: 3,
            package: "com.a.b".into(),
            title: String::new(),
            genre_id: "TOOLS".into(),
            released_day: u64::MAX,
            min_installs: 100,
            developer_id: 4,
            developer_name: "D\u{e9}v".into(),
            developer_country: "DE".into(),
            developer_email: "d@x".into(),
            developer_website: String::new(),
            rating: 4.5,
            rating_count: 9,
        });
        let syms = ds.symbol_tables();
        let section = |enc: &dyn Fn(&mut Enc)| {
            let mut e = Enc::new();
            enc(&mut e);
            e.into_bytes()
        };

        let bytes = section(&|e| ds.enc_offers(e));
        assert_eq!(bytes.len(), 8 + 3 * 43, "43 bytes an offer row");
        let offers: Vec<OfferRow> = section_rows(&bytes, syms);
        let views: Vec<_> = offers.iter().map(|r| r.view(syms)).collect();
        assert_eq!(views, ds.offers().collect::<Vec<_>>());
        for (row, view) in offers.iter().zip(&views) {
            assert_eq!(row.accounted_bytes(), view.accounted_bytes() as usize);
        }

        let charts: Vec<ChartRow> = section_rows(&section(&|e| ds.enc_charts(e)), syms);
        let views = charts.iter().map(|r| r.view(syms));
        assert_eq!(
            format!("{:?}", views.collect::<Vec<_>>()),
            format!("{:?}", ds.charts().collect::<Vec<_>>())
        );

        let bytes = section(&|e| ds.enc_profiles(e));
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u64().unwrap(), 1);
        let mut log = crate::ProfileLog::new();
        log.push_row(ProfileRow::decode(&mut d, syms).unwrap());
        d.finish().unwrap();
        assert!(log.iter(syms).eq(ds.profiles()));
    }

    #[test]
    fn a_truncated_spill_file_is_named_on_reload() {
        let path = tmpfile("truncated");
        let mut log: RowLog<ScrapedOffer> = RowLog::default();
        log.configure(Some(8 * 1024), path.clone());
        for k in 0..500 {
            log.push(offer(k, k % 90));
        }
        assert!(log.stats().spilled_segments > 0);
        std::fs::write(&path, b"").unwrap();
        let panic =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| log.iter(&()).count()))
                .expect_err("reading a truncated spill file must fail");
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        let want = format!(
            "spill segment at offset 0 of {} is unreadable",
            path.display()
        );
        assert!(msg.starts_with(&want), "{msg}");
        let _ = std::fs::remove_file(&path);
    }
}
