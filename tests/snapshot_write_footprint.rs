//! Live-heap cost of writing a checkpoint snapshot, and what a write
//! that fails leaves behind.
//!
//! A counting global allocator tracks the heap's high-water mark while
//! a snapshot holding over 8 MB of offer rows is written to its file.
//! Each section streams through one 64 KiB window, so the heap may
//! grow by at most 1 MiB however large the file; building the file in
//! memory first costs at least its whole size.

use iiscope::aggregates::ReportAggregates;
use iiscope::checkpoint::{load_latest, snapshot_path, write_durable, Snapshot};
use iiscope::subsystems::monitor::spill::SpillManifest;
use iiscope::subsystems::monitor::{ProfileLog, RawOffer, RewardValue, ScrapedOffer};
use iiscope::subsystems::types::{Country, IipId, Interner, SimTime};
use iiscope::subsystems::wire::ClientState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Cursor, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Highest [`LIVE`] seen since [`peak_growth`] last started.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, keeping a running total of live bytes and
/// its high-water mark.
struct Counting;

fn grew(by: isize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how far the heap rose above where it started.
/// The tests of this file hold [`MEASURE`], so no other test allocates
/// meanwhile.
fn peak_growth(f: impl FnOnce()) -> isize {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - before
}

static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A snapshot whose OFFERS section holds `rows` observations of ~130
/// encoded bytes each; every other section is small.
fn snapshot_with_offers(rows: usize) -> Snapshot {
    let offers = (0..rows)
        .map(|n| {
            let package = format!("com.vendor{}.app{}", n % 37, n % 5_000);
            ScrapedOffer {
                iip: IipId::ALL[n % IipId::ALL.len()],
                raw: RawOffer {
                    offer_key: n as u64,
                    description: format!("Install {package} and reach level {}", n % 5),
                    reward: RewardValue::Points((n % 900) as i64),
                    store_url: format!("https://play.iiscope/store/apps/details?id={package}"),
                    package,
                },
                seen_at: SimTime::from_days((n / 1_000) as u64),
                affiliate: format!("com.rewards.cashapp{}", n % 12),
                vantage: Country::ALL[n % 4],
            }
        })
        .collect();
    let mut pkg_syms = Interner::new();
    pkg_syms.intern("com.vendor0.app0");
    Snapshot {
        day: 6,
        seed: 42,
        fingerprint: 0xABCD,
        sim_bytes: vec![7; 300],
        crawler: ClientState {
            rng: rand::rngs::RngState {
                key: [9; 8],
                counter: 12,
                index: 3,
            },
            conn_seq: 77,
        },
        pkg_syms,
        desc_syms: Interner::new(),
        offers_spill: SpillManifest::default(),
        offers,
        profiles: ProfileLog::new(),
        charts_spill: SpillManifest::default(),
        charts: vec![],
        chaos_counters: vec![("retries".into(), 3)],
        wire_counters: vec![("bytes_delivered".into(), 912)],
        aggregates: ReportAggregates::new(),
    }
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
    let snap = snapshot_with_offers(70_000);
    let dir = TempDir::new("footprint");
    let view = snap.view();
    let mut written = 0;
    let streamed = peak_growth(|| {
        written = write_durable(&dir.0, snap.day, |f| view.write_to(f).map(drop)).unwrap();
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
    let in_memory = peak_growth(|| encoded = view.encode());
    assert!(encoded == file, "file and in-memory encoding differ");
    assert!(in_memory >= file.len() as isize, "in memory: {in_memory} B");
    assert_eq!(Snapshot::decode(&file).unwrap().offers, snap.offers);
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
    let snap = snapshot_with_offers(1_500);
    let whole = snap.encode();
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
        let got = std::panic::catch_unwind(|| snap.view().write_to(sink).map(drop));
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
    let mut snap = snapshot_with_offers(200);
    write_durable(&dir.0, snap.day, |f| snap.view().write_to(f).map(drop)).unwrap();
    snap.day = 8;
    let size = snap.encode().len();
    for k in [0, 9, size / 2, size - 1] {
        let err = write_durable(&dir.0, snap.day, |f| {
            snap.view()
                .write_to(FailAfter { inner: f, left: k })
                .map(drop)
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
