//! Per-app engagement ledger: the ground truth behind install counts,
//! chart scores, console analytics and the enforcement sweep.
//!
//! Every install carries [`InstallSignals`] — the device-quality facts
//! (§3.2's emulator / rooted / datacenter-ASN / shared-/24 signals)
//! that the Play-side fraud filter of §5.2 *could* use. The ledger also
//! buckets sessions, registrations, purchases and revenue per day so
//! chart ranking can be computed over a trailing window.
//!
//! Alongside the events it keeps the running counts the enforcement
//! sweep decides on — unfiltered installs, unfiltered suspicious
//! installs, and unfiltered installs per /24 — updated by
//! [`EngagementLedger::record_install`] and
//! [`EngagementLedger::filter_installs`], so a daily sweep that does
//! not fire reads a few counters instead of the app's whole history.
//!
//! Install events are the ledger's bulk: millions per study, one per
//! tagged install. Each is stored as a 16-byte [`PackedInstall`] in
//! chunks of [`CHUNK_ROWS`] (4 KiB), so a ledger never copies its
//! history to grow and its slack is at most one chunk. Readers see
//! decoded [`InstallEvent`] values through [`InstallEvents`].
//!
//! Under a memory budget the ledgers of a store seal each chunk, as it
//! fills, to the store's scratch [`SpillFile`] and keep its
//! [`SpillRef`]. Readers under the store's read lock stay parallel;
//! [`EngagementLedger::filter_installs`] rewrites in place just the
//! sealed chunks whose rows it filtered. A chunk whose seal fails stays
//! in memory (the file records the first error).

use iiscope_types::frame::{Dec, Enc};
use iiscope_types::spillfile::{SpillFile, SpillRef};
use iiscope_types::{SimTime, Usd};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

/// Device-quality signals attached to one install event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallSignals {
    /// Install came from an emulator build.
    pub emulator: bool,
    /// Device is rooted.
    pub rooted: bool,
    /// Source address belongs to a datacenter/cloud ASN.
    pub datacenter_asn: bool,
    /// /24 prefix of the source address (upper 24 bits meaningful).
    pub block24: u32,
}

impl InstallSignals {
    /// A perfectly ordinary eyeball-network install.
    pub fn clean(block24: u32) -> InstallSignals {
        InstallSignals {
            emulator: false,
            rooted: false,
            datacenter_asn: false,
            block24,
        }
    }

    /// True when any individual fraud marker is raised.
    pub fn is_suspicious(&self) -> bool {
        self.emulator || self.datacenter_asn
    }
}

/// One recorded install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallEvent {
    /// When the install happened.
    pub at: SimTime,
    /// Device-quality signals.
    pub signals: InstallSignals,
    /// Attribution tag as an index into the ledger's tag table
    /// ([`EngagementLedger::tag_name`]); [`ORGANIC_TAG`] for organic
    /// installs. A campaign's tag is stored once per ledger, not once
    /// per install.
    pub tag: u32,
    /// Whether the enforcement sweep has removed this install from the
    /// public count.
    pub filtered: bool,
}

/// [`InstallEvent::tag`] of an install without an attribution tag.
pub const ORGANIC_TAG: u32 = 0;

/// Flag bits of [`PackedInstall`]'s `bits` word; the tag id sits above
/// them.
const EMULATOR: u32 = 1;
const ROOTED: u32 = 1 << 1;
const DATACENTER: u32 = 1 << 2;
const FILTERED: u32 = 1 << 3;
const TAG_SHIFT: u32 = 4;

/// The largest [`InstallEvent::tag`] a [`PackedInstall`] holds.
pub const MAX_TAG: u32 = u32::MAX >> TAG_SHIFT;

/// An [`InstallEvent`] as the ledger stores it: the time in seconds,
/// the /24, and one word holding the tag id above the emulator, rooted,
/// datacenter-ASN and filtered flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedInstall {
    at: u64,
    block24: u32,
    /// `tag << TAG_SHIFT | FILTERED | DATACENTER | ROOTED | EMULATOR`.
    bits: u32,
}

const _: () = assert!(std::mem::size_of::<PackedInstall>() == 16);

impl PackedInstall {
    /// Packs `ev`.
    ///
    /// # Panics
    /// If `ev.tag` exceeds [`MAX_TAG`]: a tag id is never truncated.
    pub fn pack(ev: &InstallEvent) -> PackedInstall {
        assert!(
            ev.tag <= MAX_TAG,
            "install tag id {} does not fit a packed install row (max {MAX_TAG})",
            ev.tag
        );
        let s = ev.signals;
        let flag = |on: bool, bit: u32| if on { bit } else { 0 };
        PackedInstall {
            at: ev.at.secs(),
            block24: s.block24,
            bits: ev.tag << TAG_SHIFT
                | flag(s.emulator, EMULATOR)
                | flag(s.rooted, ROOTED)
                | flag(s.datacenter_asn, DATACENTER)
                | flag(ev.filtered, FILTERED),
        }
    }

    /// The event this row packs.
    pub fn unpack(self) -> InstallEvent {
        InstallEvent {
            at: SimTime::from_secs(self.at),
            signals: InstallSignals {
                emulator: self.bits & EMULATOR != 0,
                rooted: self.bits & ROOTED != 0,
                datacenter_asn: self.bits & DATACENTER != 0,
                block24: self.block24,
            },
            tag: self.bits >> TAG_SHIFT,
            filtered: self.bits & FILTERED != 0,
        }
    }
}

/// Unfiltered event installs per /24, split by how many a block holds.
/// Almost every block a campaign touches holds one install; a map
/// entry per block would cost a key and a count for each of them. Only
/// blocks holding two or more carry a count, and those are the only
/// candidates for a lockstep burst at any threshold above one.
#[derive(Debug, Default)]
struct BlockCounts {
    /// Blocks holding exactly one unfiltered install. A fixed-key
    /// hasher: the set's capacity after removals depends on where its
    /// keys hash, and [`BlockCounts::heap_bytes`] reads it, so random
    /// keys would make the ledger's reported bytes vary run to run.
    single: HashSet<u32, BuildHasherDefault<DefaultHasher>>,
    /// Blocks holding two or more, with their count, ascending.
    shared: BTreeMap<u32, u32>,
}

impl BlockCounts {
    fn add(&mut self, block: u32) {
        if let Some(n) = self.shared.get_mut(&block) {
            *n += 1;
        } else if !self.single.insert(block) {
            self.single.remove(&block);
            self.shared.insert(block, 2);
        }
    }

    fn remove(&mut self, block: u32) {
        match self.shared.get_mut(&block) {
            Some(n) if *n > 2 => *n -= 1,
            Some(_) => {
                self.shared.remove(&block);
                self.single.insert(block);
            }
            None => assert!(self.single.remove(&block), "unfiltered install is counted"),
        }
    }

    fn get(&self, block: u32) -> u64 {
        match self.shared.get(&block) {
            Some(n) => u64::from(*n),
            None => u64::from(self.single.contains(&block)),
        }
    }

    /// Heap bytes, estimated from capacities: a SwissTable spends a
    /// key and a control byte per bucket at a load of at most 7/8, and
    /// a B-tree leaf of up to eleven `u32` pairs is about 100 bytes, so
    /// a shared block is charged 24.
    fn heap_bytes(&self) -> usize {
        let cap = self.single.capacity();
        let single = if cap == 0 {
            0
        } else {
            (cap * 8 / 7).next_power_of_two() * (std::mem::size_of::<u32>() + 1) + 16
        };
        single + self.shared.len() * 24
    }
}

/// Rows in a chunk of a ledger's row store: 4 KiB of 16-byte rows.
pub const CHUNK_ROWS: usize = 256;

/// Bytes of a sealed chunk.
const CHUNK_BYTES: usize = CHUNK_ROWS * std::mem::size_of::<PackedInstall>();

const _: () = assert!(CHUNK_BYTES == 4096);

/// One chunk of a ledger's rows.
#[derive(Debug)]
enum Chunk {
    /// In memory: the open chunk, every chunk of a ledger without a
    /// file, and a full chunk whose seal failed.
    Resident(Vec<PackedInstall>),
    /// [`CHUNK_ROWS`] rows in the ledger's file.
    Sealed(SpillRef),
}

// The chunk index is charged at this size (`install_heap_bytes`).
const _: () = assert!(std::mem::size_of::<Chunk>() == 24);

/// A full chunk's rows as the file stores them: each row's three
/// fields in the frame codec, 16 bytes.
fn chunk_bytes(rows: &[PackedInstall]) -> Vec<u8> {
    debug_assert_eq!(rows.len(), CHUNK_ROWS);
    let mut e = Enc::new();
    for r in rows {
        e.u64(r.at).u32(r.block24).u32(r.bits);
    }
    e.into_bytes()
}

/// A ledger's install rows in record order, in chunks of
/// [`CHUNK_ROWS`]. The first chunk grows like any `Vec`, its doubling
/// landing on `CHUNK_ROWS`; later chunks are allocated whole. With a
/// file, each chunk is sealed to it as soon as it fills.
#[derive(Debug, Default)]
struct InstallRows {
    chunks: Vec<Chunk>,
    len: usize,
    file: Option<Arc<SpillFile>>,
}

impl InstallRows {
    fn push(&mut self, row: PackedInstall) {
        if self.len.is_multiple_of(CHUNK_ROWS) {
            let cap = if self.chunks.is_empty() {
                0
            } else {
                CHUNK_ROWS
            };
            self.chunks.push(Chunk::Resident(Vec::with_capacity(cap)));
        }
        let Some(Chunk::Resident(open)) = self.chunks.last_mut() else {
            unreachable!("the open chunk is resident")
        };
        open.push(row);
        self.len += 1;
        if open.len() == CHUNK_ROWS {
            self.seal(self.chunks.len() - 1);
        }
    }

    /// Writes chunk `c` to the file if it is full and resident; on a
    /// failed write it stays resident.
    fn seal(&mut self, c: usize) {
        let (Some(file), Chunk::Resident(rows)) = (&self.file, &self.chunks[c]) else {
            return;
        };
        if rows.len() == CHUNK_ROWS {
            if let Some(at) = file.append(&chunk_bytes(rows)) {
                self.chunks[c] = Chunk::Sealed(at);
            }
        }
    }

    /// Points `window` at the rows of chunk `c`: borrowed when
    /// resident, read into the window's own buffer when sealed.
    fn load<'a>(&'a self, c: usize, window: &mut Cow<'a, [PackedInstall]>) {
        match self.chunks[c] {
            Chunk::Resident(ref rows) => *window = Cow::Borrowed(rows),
            Chunk::Sealed(at) => self.read(at, window.to_mut()),
        }
    }

    /// Hands the rows of chunk `c` to `edit`: in place when resident,
    /// else read back and, when `edit` returns true, written back over
    /// their sealed bytes. On a failed write the chunk comes back into
    /// memory with its edits.
    fn edit(&mut self, c: usize, edit: impl FnOnce(&mut [PackedInstall]) -> bool) {
        let at = match &mut self.chunks[c] {
            Chunk::Resident(rows) => {
                edit(rows);
                return;
            }
            Chunk::Sealed(at) => *at,
        };
        let mut rows = Vec::with_capacity(CHUNK_ROWS);
        self.read(at, &mut rows);
        if edit(&mut rows) {
            let sealed = self.sealed_file().rewrite(at, &chunk_bytes(&rows));
            self.chunks[c] = sealed.map_or(Chunk::Resident(rows), Chunk::Sealed);
        }
    }

    /// Reads the sealed chunk at `at` into `out`. Panics if the read or
    /// its CRC fails: the file is this process's own unlinked scratch,
    /// so either is a fault below the program.
    fn read(&self, at: SpillRef, out: &mut Vec<PackedInstall>) {
        let mut bytes = [0; CHUNK_BYTES];
        let rows = |b: &[u8]| {
            let mut d = Dec::new(b);
            out.clear();
            for _ in 0..CHUNK_ROWS {
                let (at, block24, bits) = (d.u64()?, d.u32()?, d.u32()?);
                out.push(PackedInstall { at, block24, bits });
            }
            d.finish()
        };
        let read = self.sealed_file().read(at, &mut bytes, rows);
        read.unwrap_or_else(|e| panic!("install ledger {e}"));
    }

    fn sealed_file(&self) -> &SpillFile {
        self.file.as_ref().expect("a sealed chunk has a file")
    }

    fn sealed_chunks(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| matches!(c, Chunk::Sealed(_)))
            .count()
    }

    /// Heap bytes: resident chunks at their capacity, plus the chunk
    /// index.
    fn heap_bytes(&self) -> usize {
        let rows: usize = self
            .chunks
            .iter()
            .map(|c| match c {
                Chunk::Resident(rows) => rows.capacity(),
                Chunk::Sealed(_) => 0,
            })
            .sum();
        rows * std::mem::size_of::<PackedInstall>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk>()
    }
}

/// The decoded install events of a ledger, in record order
/// (exact-size, double-ended; see [`EngagementLedger::install_events`]).
/// Each end holds one chunk at a time, so walking a sealed history
/// reads each chunk once per end that passes it.
#[derive(Debug, Clone)]
pub struct InstallEvents<'a> {
    rows: &'a InstallRows,
    at: std::ops::Range<usize>,
    front: Window<'a>,
    back: Window<'a>,
}

/// The chunk one end of an [`InstallEvents`] is in.
#[derive(Debug, Clone)]
struct Window<'a> {
    /// Chunk index; `usize::MAX` before the first row.
    chunk: usize,
    rows: Cow<'a, [PackedInstall]>,
}

impl<'a> Window<'a> {
    fn new() -> Window<'a> {
        Window {
            chunk: usize::MAX,
            rows: Cow::Borrowed(&[]),
        }
    }

    fn event(&mut self, rows: &'a InstallRows, i: usize) -> InstallEvent {
        let c = i / CHUNK_ROWS;
        if self.chunk != c {
            rows.load(c, &mut self.rows);
            self.chunk = c;
        }
        self.rows[i % CHUNK_ROWS].unpack()
    }
}

impl Iterator for InstallEvents<'_> {
    type Item = InstallEvent;

    fn next(&mut self) -> Option<InstallEvent> {
        let i = self.at.next()?;
        Some(self.front.event(self.rows, i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl DoubleEndedIterator for InstallEvents<'_> {
    fn next_back(&mut self) -> Option<InstallEvent> {
        let i = self.at.next_back()?;
        Some(self.back.event(self.rows, i))
    }
}

impl ExactSizeIterator for InstallEvents<'_> {}

/// Aggregates for one simulated day.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DayStats {
    /// Installs recorded this day.
    pub installs: u64,
    /// App sessions ("opens") this day.
    pub sessions: u64,
    /// Total session seconds this day.
    pub session_secs: u64,
    /// Account registrations this day.
    pub registrations: u64,
    /// In-app purchases this day.
    pub purchases: u64,
    /// Revenue micro-dollars this day.
    pub revenue_micros: i64,
}

/// The per-app ledger.
#[derive(Debug, Default)]
pub struct EngagementLedger {
    /// Install events in record order.
    events: InstallRows,
    /// Distinct attribution tags; [`InstallEvent::tag`] `i` names
    /// `tags[i - 1]`.
    tags: Vec<Box<str>>,
    /// Unfiltered event installs with a hard fraud signal.
    suspicious: u64,
    /// Unfiltered event installs per /24 (blocks with none are absent).
    blocks: BlockCounts,
    /// Aggregate organic installs recorded in bulk (no per-event
    /// record; organic traffic of a 100M-install app cannot be
    /// materialized event by event).
    bulk_installs: u64,
    filtered: u64,
    days: BTreeMap<u64, DayStats>,
    /// Cumulative star ratings (sum of stars, count of ratings).
    /// Ratings are a public profile surface ("User Ratings, Reviews,
    /// and Installs" is the policy page the paper cites); they are
    /// cumulative, not windowed.
    rating_sum: u64,
    rating_count: u64,
}

impl EngagementLedger {
    /// Empty ledger.
    pub fn new() -> EngagementLedger {
        EngagementLedger::default()
    }

    /// Records an install. `source_tag` is empty for organic installs.
    pub fn record_install(&mut self, at: SimTime, signals: InstallSignals, source_tag: &str) {
        let tag = self.intern_tag(source_tag);
        let row = PackedInstall::pack(&InstallEvent {
            at,
            signals,
            tag,
            filtered: false,
        });
        self.events.push(row);
        self.suspicious += u64::from(signals.is_suspicious());
        self.blocks.add(signals.block24);
        self.days.entry(at.days()).or_default().installs += 1;
    }

    /// The tag id of `tag`, adding it to the table on first sight. A
    /// ledger sees a handful of campaigns, so a scan beats a map.
    fn intern_tag(&mut self, tag: &str) -> u32 {
        if tag.is_empty() {
            return ORGANIC_TAG;
        }
        let i = match self.tags.iter().position(|t| **t == *tag) {
            Some(i) => i,
            None => {
                self.tags.push(tag.into());
                self.tags.len() - 1
            }
        };
        i as u32 + 1
    }

    /// The attribution tag an [`InstallEvent::tag`] id names (empty for
    /// [`ORGANIC_TAG`]).
    pub fn tag_name(&self, tag: u32) -> &str {
        match tag {
            ORGANIC_TAG => "",
            i => &self.tags[i as usize - 1],
        }
    }

    /// Number of distinct attribution tags; tag ids run from 1 to this.
    pub fn tag_count(&self) -> u32 {
        self.tags.len() as u32
    }

    /// Records `n` organic installs in aggregate (day stats only; no
    /// per-event records, so enforcement never touches them — organic
    /// installs are clean by construction).
    pub fn record_installs_bulk(&mut self, at: SimTime, n: u64) {
        self.bulk_installs += n;
        self.days.entry(at.days()).or_default().installs += n;
    }

    /// Records `sessions` app sessions totalling `secs` seconds, in
    /// aggregate (background engagement of popular apps).
    pub fn record_sessions_bulk(&mut self, at: SimTime, sessions: u64, secs: u64) {
        let d = self.days.entry(at.days()).or_default();
        d.sessions += sessions;
        d.session_secs += secs;
    }

    /// Records aggregate purchase revenue (`purchases` transactions
    /// totalling `amount`).
    pub fn record_revenue_bulk(&mut self, at: SimTime, purchases: u64, amount: Usd) {
        let d = self.days.entry(at.days()).or_default();
        d.purchases += purchases;
        d.revenue_micros += amount.micros();
    }

    /// Records an app session of `secs` seconds.
    pub fn record_session(&mut self, at: SimTime, secs: u64) {
        let d = self.days.entry(at.days()).or_default();
        d.sessions += 1;
        d.session_secs += secs;
    }

    /// Records one star rating (1..=5; clamped).
    pub fn record_rating(&mut self, stars: u8) {
        let stars = stars.clamp(1, 5);
        self.rating_sum += u64::from(stars);
        self.rating_count += 1;
    }

    /// Records `count` ratings totalling `total_stars` in aggregate.
    pub fn record_ratings_bulk(&mut self, count: u64, total_stars: u64) {
        debug_assert!(total_stars <= count * 5);
        self.rating_sum += total_stars;
        self.rating_count += count;
    }

    /// Average star rating, if any ratings exist.
    pub fn average_rating(&self) -> Option<f64> {
        if self.rating_count == 0 {
            None
        } else {
            Some(self.rating_sum as f64 / self.rating_count as f64)
        }
    }

    /// Number of ratings.
    pub fn rating_count(&self) -> u64 {
        self.rating_count
    }

    /// Records an account registration.
    pub fn record_registration(&mut self, at: SimTime) {
        self.days.entry(at.days()).or_default().registrations += 1;
    }

    /// Records an in-app purchase.
    pub fn record_purchase(&mut self, at: SimTime, amount: Usd) {
        let d = self.days.entry(at.days()).or_default();
        d.purchases += 1;
        d.revenue_micros += amount.micros();
    }

    /// Exact lifetime installs minus enforcement-filtered ones — the
    /// number the public bin is derived from.
    pub fn public_installs(&self) -> u64 {
        self.event_installs() + self.bulk_installs - self.filtered
    }

    /// Exact lifetime installs including filtered ones.
    pub fn gross_installs(&self) -> u64 {
        self.event_installs() + self.bulk_installs
    }

    /// Number of installs removed by enforcement so far.
    pub fn filtered_installs(&self) -> u64 {
        self.filtered
    }

    /// Installs with per-event records, filtered or not.
    pub fn event_installs(&self) -> u64 {
        self.events.len as u64
    }

    /// All install events in record order, decoded (enforcement and
    /// forensics iterate these).
    pub fn install_events(&self) -> InstallEvents<'_> {
        InstallEvents {
            rows: &self.events,
            at: 0..self.events.len,
            front: Window::new(),
            back: Window::new(),
        }
    }

    /// Heap bytes behind the install events: the resident chunks, the
    /// chunk index and the per-/24 counts (estimated from capacities).
    /// Sealed chunks are on disk and not counted.
    pub fn install_heap_bytes(&self) -> usize {
        self.events.heap_bytes() + self.blocks.heap_bytes()
    }

    /// Seals this ledger's full chunks into `file`, those already
    /// recorded first, then each as it fills. A ledger seals into one
    /// file for its life: a later call changes nothing.
    pub fn seal_into(&mut self, file: &Arc<SpillFile>) {
        if self.events.file.is_some() {
            return;
        }
        self.events.file = Some(file.clone());
        for c in 0..self.events.chunks.len() {
            self.events.seal(c);
        }
    }

    /// Chunks of [`CHUNK_ROWS`] install rows sealed to disk.
    pub fn sealed_chunks(&self) -> u64 {
        self.events.sealed_chunks() as u64
    }

    /// Installs with per-event records not yet filtered.
    pub fn unfiltered_installs(&self) -> u64 {
        self.event_installs() - self.filtered
    }

    /// Unfiltered installs carrying a hard fraud signal
    /// ([`InstallSignals::is_suspicious`]).
    pub fn unfiltered_suspicious(&self) -> u64 {
        self.suspicious
    }

    /// Unfiltered installs from `block24`.
    pub fn unfiltered_in_block(&self, block24: u32) -> u64 {
        self.blocks.get(block24)
    }

    /// The /24 blocks holding at least two unfiltered installs, in
    /// ascending order.
    pub fn shared_blocks(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.shared.keys().copied()
    }

    /// Marks `n` not-yet-filtered installs matching `pred` as filtered,
    /// in record order; returns how many were actually removed. Sealed
    /// chunks are read in turn until `n` are removed, and only those
    /// with a newly filtered row are written back.
    pub fn filter_installs(&mut self, n: u64, mut pred: impl FnMut(&InstallEvent) -> bool) -> u64 {
        let mut removed = 0;
        for c in 0..self.events.chunks.len() {
            if removed == n {
                break;
            }
            self.events.edit(c, |rows| {
                let before = removed;
                for row in rows.iter_mut().filter(|r| r.bits & FILTERED == 0) {
                    if removed == n {
                        break;
                    }
                    let ev = row.unpack();
                    if pred(&ev) {
                        row.bits |= FILTERED;
                        removed += 1;
                        self.suspicious -= u64::from(ev.signals.is_suspicious());
                        self.blocks.remove(ev.signals.block24);
                    }
                }
                removed > before
            });
        }
        self.filtered += removed;
        removed
    }

    /// Day bucket accessor.
    pub fn day(&self, day: u64) -> DayStats {
        self.days.get(&day).copied().unwrap_or_default()
    }

    /// Sums day stats over `[now - window_days, now]` (inclusive of the
    /// current day).
    pub fn trailing(&self, now: SimTime, window_days: u64) -> DayStats {
        let end = now.days();
        let start = end.saturating_sub(window_days);
        let mut acc = DayStats::default();
        for (_, d) in self.days.range(start..=end) {
            acc.installs += d.installs;
            acc.sessions += d.sessions;
            acc.session_secs += d.session_secs;
            acc.registrations += d.registrations;
            acc.purchases += d.purchases;
            acc.revenue_micros += d.revenue_micros;
        }
        acc
    }

    /// Lifetime revenue.
    pub fn total_revenue(&self) -> Usd {
        Usd::from_micros(self.days.values().map(|d| d.revenue_micros).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn install_counting() {
        let mut l = EngagementLedger::new();
        for i in 0..5 {
            l.record_install(SimTime::from_days(i), InstallSignals::clean(0x0A000100), "");
        }
        assert_eq!(l.public_installs(), 5);
        assert_eq!(l.gross_installs(), 5);
        assert_eq!(l.day(2).installs, 1);
    }

    #[test]
    fn filtering_reduces_public_count_only() {
        let mut l = EngagementLedger::new();
        let farm = InstallSignals {
            emulator: true,
            rooted: true,
            datacenter_asn: false,
            block24: 1,
        };
        for _ in 0..10 {
            l.record_install(SimTime::EPOCH, farm, "iip");
        }
        for _ in 0..3 {
            l.record_install(SimTime::EPOCH, InstallSignals::clean(2), "");
        }
        let removed = l.filter_installs(5, |e| e.signals.emulator);
        assert_eq!(removed, 5);
        assert_eq!(l.public_installs(), 8);
        assert_eq!(l.gross_installs(), 13);
        assert_eq!(l.filtered_installs(), 5);
        // Only 5 more emulator installs remain to filter.
        assert_eq!(l.filter_installs(100, |e| e.signals.emulator), 5);
    }

    #[test]
    fn heap_bytes_repeat_for_the_same_installs_and_filters() {
        // Single-install blocks are charged by their set's capacity.
        // After removals that depends on where the keys hash, so two
        // ledgers fed the same input agree only under a fixed-key
        // hasher. Each step opens five blocks and gives the four
        // oldest single blocks a second install (a removal from the
        // set); the set's growth then crosses a resize whose timing
        // depends on the hash, around step 3,050.
        let fill = || {
            let mut l = EngagementLedger::new();
            let mut heap = Vec::new();
            let (mut opened, mut shared) = (0u32, 0u32);
            for _ in 0..3_200 {
                for _ in 0..5 {
                    l.record_install(SimTime::EPOCH, InstallSignals::clean(opened), "");
                    opened += 1;
                }
                for _ in 0..4 {
                    l.record_install(SimTime::EPOCH, InstallSignals::clean(shared), "");
                    shared += 1;
                }
                heap.push(l.install_heap_bytes());
            }
            l.filter_installs(1_000, |e| e.signals.block24 % 3 == 0);
            heap.push(l.install_heap_bytes());
            heap
        };
        let (a, b) = (fill(), fill());
        let differs = a.iter().zip(&b).position(|(x, y)| x != y);
        assert_eq!(differs, None, "heap bytes first differ at step {differs:?}");
    }

    #[test]
    fn trailing_window_sums_correct_days() {
        let mut l = EngagementLedger::new();
        l.record_session(SimTime::from_days(10), 60);
        l.record_session(SimTime::from_days(12), 120);
        l.record_session(SimTime::from_days(20), 30);
        let w = l.trailing(SimTime::from_days(13), 3);
        assert_eq!(w.sessions, 2);
        assert_eq!(w.session_secs, 180);
        let w = l.trailing(SimTime::from_days(13), 0);
        assert_eq!(w.sessions, 0);
    }

    #[test]
    fn purchases_and_revenue() {
        let mut l = EngagementLedger::new();
        l.record_purchase(SimTime::from_days(1), Usd::from_cents(499));
        l.record_purchase(SimTime::from_days(2), Usd::from_cents(99));
        l.record_registration(SimTime::from_days(1));
        assert_eq!(l.total_revenue(), Usd::from_cents(598));
        assert_eq!(l.day(1).purchases, 1);
        assert_eq!(l.day(1).registrations, 1);
        let w = l.trailing(SimTime::from_days(2), 7);
        assert_eq!(w.revenue_micros, Usd::from_cents(598).micros());
    }

    /// A scratch directory of this test's own.
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iiscope-ledger-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `n` installs over a few /24s and tags, some with fraud signals.
    fn fill(l: &mut EngagementLedger, n: u32) {
        for i in 0..n {
            let s = InstallSignals {
                emulator: i % 5 == 0,
                rooted: i % 3 == 0,
                datacenter_asn: i % 7 == 0,
                block24: i % 40,
            };
            l.record_install(
                SimTime::from_secs(u64::from(i) * 60),
                s,
                ["", "a", "b"][i as usize % 3],
            );
        }
    }

    #[test]
    fn a_sealing_ledger_keeps_only_its_open_chunk_in_memory() {
        let dir = scratch("seal");
        let file = Arc::new(SpillFile::scratch(&dir, "t"));
        let (mut sealed, mut resident) = (EngagementLedger::new(), EngagementLedger::new());
        // Chunks recorded before the file is set are sealed by it.
        fill(&mut sealed, 300);
        sealed.seal_into(&file);
        assert_eq!(sealed.sealed_chunks(), 1);
        fill(&mut sealed, 3 * CHUNK_ROWS as u32 - 300 + 7);
        fill(&mut resident, 300);
        fill(&mut resident, 3 * CHUNK_ROWS as u32 - 300 + 7);
        assert_eq!(sealed.sealed_chunks(), 3);
        assert_eq!(resident.sealed_chunks(), 0);
        assert_eq!(file.bytes(), 3 * CHUNK_BYTES as u64);
        assert!(file.error().is_none());
        // The open chunk (7 rows in a whole chunk), the chunk index and
        // the block counts.
        assert!(sealed.install_heap_bytes() < resident.install_heap_bytes() - 2 * CHUNK_BYTES);
        // The file was unlinked as soon as it was open.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        assert!(sealed.install_events().eq(resident.install_events()));
        assert!(sealed
            .install_events()
            .rev()
            .eq(resident.install_events().rev()));
        // Filtering rewrites sealed rows in place; no chunk is appended.
        let pred = |e: &InstallEvent| e.signals.block24 % 4 == 1;
        assert_eq!(
            sealed.filter_installs(500, pred),
            resident.filter_installs(500, pred)
        );
        assert_eq!(file.bytes(), 3 * CHUNK_BYTES as u64);
        assert!(sealed.install_events().eq(resident.install_events()));
        assert_eq!(sealed.public_installs(), resident.public_installs());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_seal_keeps_chunks_in_memory_and_records_the_error() {
        // A directory under a regular file: creating it fails even as
        // root.
        let blocker = scratch("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let file = Arc::new(SpillFile::scratch(&blocker.join("spill"), "t"));
        let (mut sealed, mut resident) = (EngagementLedger::new(), EngagementLedger::new());
        sealed.seal_into(&file);
        fill(&mut sealed, 2 * CHUNK_ROWS as u32 + 1);
        fill(&mut resident, 2 * CHUNK_ROWS as u32 + 1);
        let err = file.error().expect("the seal must fail");
        assert_eq!(err.path, file.path());
        assert!(
            err.to_string()
                .starts_with(&format!("spill to {}", blocker.display())),
            "{err}"
        );
        assert_eq!((sealed.sealed_chunks(), file.bytes()), (0, 0));
        assert_eq!(sealed.install_heap_bytes(), resident.install_heap_bytes());
        assert!(sealed.install_events().eq(resident.install_events()));
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn suspicious_signal_logic() {
        assert!(!InstallSignals::clean(0).is_suspicious());
        let mut s = InstallSignals::clean(0);
        s.emulator = true;
        assert!(s.is_suspicious());
        let mut s = InstallSignals::clean(0);
        s.datacenter_asn = true;
        assert!(s.is_suspicious());
        let mut s = InstallSignals::clean(0);
        s.rooted = true;
        assert!(!s.is_suspicious(), "rooted alone is common and not fraud");
    }
}
