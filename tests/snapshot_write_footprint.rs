//! Live-heap cost of writing and of reading a checkpoint snapshot,
//! and what a write that fails leaves behind.
//!
//! A counting global allocator tracks the heap's high-water mark while
//! a snapshot of a dataset holding over 8 MB of offer rows is written
//! to its file, and while that file is decoded. Each section streams
//! out through one 64 KiB window, so writing may grow the heap by at
//! most 1 MiB however large the file; building the file in memory
//! first costs at least its whole size. Decoding keeps the offer rows
//! as their checked section bytes, so it may grow the heap by at most
//! the file's length plus 1 MiB; owned rows would cost far more.

use iiscope::aggregates::ReportAggregates;
use iiscope::checkpoint::{load_latest, snapshot_path, write_durable, Snapshot, SnapshotRef};
use iiscope::subsystems::monitor::{Dataset, RawOffer, RewardValue, ScrapedOffer};
use iiscope::subsystems::types::{Country, IipId, SimTime};
use iiscope::subsystems::wire::ClientState;
use iiscope_bench::alloc::{peak_growth, Counting};
use std::io::{self, Cursor, Seek, SeekFrom, Write};
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests of this file hold it while they run, so no other test
/// allocates while one measures [`peak_growth`].
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A dataset of `rows` offer observations of 43 encoded bytes each,
/// over 2,000 packages with one description each, so its symbol
/// tables stay small beside its offer rows.
fn dataset_with_offers(rows: usize) -> Dataset {
    let mut ds = Dataset::new();
    ds.add_offers((0..rows).map(|n| {
        let app = n % 2_000;
        let package = format!("com.vendor{}.app{app}", app % 37);
        ScrapedOffer {
            iip: IipId::ALL[n % IipId::ALL.len()],
            raw: RawOffer {
                offer_key: (n % 1_000) as u64,
                description: format!("Install {package} and reach level {}", app % 5),
                reward: RewardValue::Points((n % 900) as i64),
                store_url: format!("https://play.iiscope/store/apps/details?id={package}"),
                package,
            },
            seen_at: SimTime::from_days((n / 1_000) as u64),
            affiliate: format!("com.rewards.cashapp{}", n % 12),
            vantage: Country::ALL[n % 4],
        }
    }));
    ds
}

/// A day-6 snapshot of `ds`; every other section is small.
fn snapshot<'a>(ds: &'a Dataset, aggregates: &'a ReportAggregates) -> SnapshotRef<'a> {
    SnapshotRef {
        day: 6,
        seed: 42,
        fingerprint: 0xABCD,
        sim_bytes: &[7; 300],
        crawler: ClientState {
            rng: rand::rngs::RngState {
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
    snap.write_to(Cursor::new(Vec::new()))
        .expect("writing to memory cannot fail")
        .into_inner()
}

/// A fresh, empty directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("iiscope-snap-write-{tag}-{}", std::process::id()));
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

#[test]
fn writing_a_snapshot_grows_the_heap_by_at_most_one_mebibyte() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let ds = dataset_with_offers(200_000);
    let aggs = ReportAggregates::new();
    let snap = snapshot(&ds, &aggs);
    let dir = TempDir::new("footprint");
    let mut written = 0;
    let streamed = peak_growth(|| {
        written = write_durable(&dir.0, snap.day, |f| snap.write_to(f).map(drop)).unwrap();
    });
    let file = std::fs::read(snapshot_path(&dir.0, snap.day)).unwrap();
    assert_eq!(written, file.len() as u64, "reported bytes are the file's");
    assert!(file.len() > 8_000_000, "only {} B of snapshot", file.len());
    eprintln!(
        "snapshot of {} B: heap grew {streamed} B while it was written",
        file.len()
    );
    assert!(
        streamed <= 1 << 20,
        "writing a {} B snapshot grew the heap by {streamed} B (limit 1 MiB)",
        file.len()
    );

    // The same writer over memory holds the file: the counter sees it.
    let mut encoded = Vec::new();
    let in_memory = peak_growth(|| encoded = encode(&snap));
    assert!(encoded == file, "file and in-memory encoding differ");
    assert!(in_memory >= file.len() as isize, "in memory: {in_memory} B");
    let back = Snapshot::decode(&file).unwrap();
    let restored = Dataset::new().restored(back.dataset).unwrap();
    assert!(restored.offers().eq(ds.offers()), "restored offers differ");
}

#[test]
fn decoding_a_snapshot_grows_the_heap_by_at_most_its_length_and_one_mebibyte() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let ds = dataset_with_offers(200_000);
    let aggs = ReportAggregates::new();
    let file = encode(&snapshot(&ds, &aggs));
    assert!(file.len() > 8_000_000, "only {} B of snapshot", file.len());
    let mut decoded = None;
    let grown = peak_growth(|| decoded = Some(Snapshot::decode(&file).unwrap()));
    eprintln!(
        "snapshot of {} B: heap grew {grown} B while it was decoded",
        file.len()
    );
    assert!(
        grown <= file.len() as isize + (1 << 20),
        "decoding a {} B snapshot grew the heap by {grown} B (limit: its length + 1 MiB)",
        file.len()
    );
    assert_eq!(decoded.unwrap().day, 6);
}

/// A seekable sink that accepts `left` more bytes, then fails every
/// write.
struct FailAfter<W> {
    inner: W,
    left: usize,
}

impl<W: Write> Write for FailAfter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::other("disk full"));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        self.inner.write(&buf[..n])
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<W: Seek> Seek for FailAfter<W> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[test]
fn a_sink_failing_at_any_byte_is_an_error_never_a_panic() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    // Three windows of offer rows, so failures land in the middle of
    // streamed payloads, on window edges and in header patches.
    let ds = dataset_with_offers(5_000);
    let aggs = ReportAggregates::new();
    let snap = snapshot(&ds, &aggs);
    let whole = encode(&snap);
    assert!(whole.len() > 3 * (64 << 10));
    let mut cuts: Vec<usize> = (0..200).collect();
    cuts.extend((200..whole.len()).step_by(499));
    cuts.extend((1..=3).flat_map(|w| w * (64 << 10) - 20..w * (64 << 10) + 20));
    cuts.extend(whole.len() - 100..whole.len());
    for k in cuts {
        let sink = FailAfter {
            inner: Cursor::new(Vec::new()),
            left: k,
        };
        // A panic leaves nothing the loop reads again.
        let write = std::panic::AssertUnwindSafe(|| snap.write_to(sink).map(drop));
        let got = std::panic::catch_unwind(write);
        match got {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("a sink failing after {k} B reported success"),
            Err(_) => panic!("a sink failing after {k} B panicked"),
        }
    }
}

#[test]
fn a_failed_write_leaves_the_previous_snapshot_newest() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new("failed");
    let ds = dataset_with_offers(200);
    let aggs = ReportAggregates::new();
    let mut snap = snapshot(&ds, &aggs);
    write_durable(&dir.0, snap.day, |f| snap.write_to(f).map(drop)).unwrap();
    snap.day = 8;
    let size = encode(&snap).len();
    for k in [0, 9, size / 2, size - 1] {
        let err = write_durable(&dir.0, snap.day, |f| {
            snap.write_to(FailAfter { inner: f, left: k }).map(drop)
        });
        assert!(err.is_err(), "a write failing after {k} B succeeded");
        // Neither the snapshot nor its temp file is left behind.
        let names: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["snap-000006.ckpt"], "after failing at {k} B");
        let scan = load_latest(&dir.0).unwrap();
        assert_eq!(scan.snapshot.map(|(s, _)| s.day), Some(6));
        assert!(scan.skipped.is_empty());
    }
}
