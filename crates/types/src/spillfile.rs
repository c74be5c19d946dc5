//! The one spill file under every out-of-core store: the dataset's row
//! logs spill closed segments to a [`SpillFile`], the install ledgers
//! seal full chunks to another. [`SpillFile::kept`] stays on disk
//! because snapshots name its blobs ([`SpillFile::reopen`] resumes
//! one); [`SpillFile::scratch`] is unlinked as soon as it is created,
//! so a crash leaves nothing behind.

use crate::frame::crc32;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Where one blob sits in a spill file: 16 bytes, so an enum of it
/// and a `Vec` stays the `Vec`'s size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillRef {
    /// Byte offset of the blob.
    pub offset: u64,
    /// Length of the blob.
    pub len: u32,
    /// CRC-32 of the blob's bytes.
    pub crc: u32,
}

/// The first failed create, write or sync of a [`SpillFile`].
#[derive(Debug)]
pub struct SpillError {
    /// The spill file.
    pub path: PathBuf,
    /// What the filesystem said.
    pub error: io::Error,
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spill to {} failed: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for SpillError {}

/// An append-only file of CRC-checked blobs, created on the first
/// append. Appends and rewrites serialize on a mutex; reads are
/// positioned reads on `&self` and take no lock. The first failed
/// create or write is latched, and nothing is written after it.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    /// Unlinked as soon as it is created.
    scratch: bool,
    file: OnceLock<File>,
    /// Bytes appended so far: the next blob's offset.
    end: Mutex<u64>,
    failed: OnceLock<SpillError>,
}

impl SpillFile {
    /// A file created at `path` on the first append, replacing what
    /// was there. It stays on disk.
    pub fn kept(path: PathBuf) -> SpillFile {
        SpillFile {
            path,
            scratch: false,
            file: OnceLock::new(),
            end: Mutex::new(0),
            failed: OnceLock::new(),
        }
    }

    /// A file created in `dir` on the first append and unlinked at
    /// once, named `<stem>-<pid>-<n>.spill` after a per-process
    /// counter, so two scratch files never share a path.
    pub fn scratch(dir: &Path, stem: &str) -> SpillFile {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{stem}-{}-{n}.spill", std::process::id()));
        SpillFile {
            scratch: true,
            ..SpillFile::kept(path)
        }
    }

    /// Reopens the kept file at `path` to append after its first `end`
    /// bytes, truncating a crashed run's blobs past them. A shorter
    /// file is left as it is, so reading a blob it lacks fails.
    pub fn reopen(path: &Path, end: u64) -> io::Result<SpillFile> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if file.metadata()?.len() > end {
            file.set_len(end)?;
        }
        let (file, end) = (file.into(), Mutex::new(end));
        Ok(SpillFile {
            file,
            end,
            ..SpillFile::kept(path.to_owned())
        })
    }

    /// Where the file is (for a scratch file, was briefly).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes appended to the file.
    pub fn bytes(&self) -> u64 {
        *self.end.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The first failed create or write, if any.
    pub fn error(&self) -> Option<&SpillError> {
        self.failed.get()
    }

    fn fail(&self, error: io::Error) -> SpillError {
        SpillError {
            path: self.path.clone(),
            error,
        }
    }

    fn open(&self) -> io::Result<File> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let (scratch, mut opts) = (self.scratch, OpenOptions::new());
        opts.read(true).write(true).create_new(scratch);
        let file = opts.create(!scratch).truncate(!scratch).open(&self.path)?;
        if self.scratch {
            std::fs::remove_file(&self.path)?;
        }
        Ok(file)
    }

    /// Appends `blob`; returns where it went, or `None` once a create
    /// or write has failed.
    pub fn append(&self, blob: &[u8]) -> Option<SpillRef> {
        self.write(None, blob)
    }

    /// Writes `blob` over the blob `at` names, which it must match in
    /// length; returns the blob's new ref, or `None` once a write has
    /// failed (the old bytes may then be torn).
    pub fn rewrite(&self, at: SpillRef, blob: &[u8]) -> Option<SpillRef> {
        assert_eq!(blob.len(), at.len as usize);
        self.write(Some(at.offset), blob)
    }

    fn write(&self, at: Option<u64>, blob: &[u8]) -> Option<SpillRef> {
        let len = u32::try_from(blob.len()).expect("a spill blob is under 4 GiB");
        if self.failed.get().is_some() {
            return None;
        }
        let mut end = self.end.lock().unwrap_or_else(PoisonError::into_inner);
        let offset = at.unwrap_or(*end);
        let file = match self.file.get() {
            Some(file) => Ok(file),
            None => self.open().map(|file| self.file.get_or_init(|| file)),
        };
        if let Err(e) = file.and_then(|file| file.write_all_at(blob, offset)) {
            let _ = self.failed.set(self.fail(e));
            return None;
        }
        if at.is_none() {
            *end += u64::from(len);
        }
        let crc = crc32(blob);
        Some(SpillRef { offset, len, crc })
    }

    /// Reads the blob `at` names into `buf` (exactly `at.len` bytes),
    /// checks its CRC and hands it to `decode`. Any failure is one line
    /// naming the file and the offset: the blob "is unreadable" when
    /// the read fails, "is invalid" when the CRC or `decode` does.
    pub fn read<T, E: std::fmt::Display>(
        &self,
        at: SpillRef,
        buf: &mut [u8],
        decode: impl FnOnce(&[u8]) -> Result<T, E>,
    ) -> Result<T, String> {
        let fail = |what: &str, e: &dyn std::fmt::Display| {
            let (offset, path) = (at.offset, self.path.display());
            format!("spill segment at offset {offset} of {path} is {what}: {e}")
        };
        let file = self
            .file
            .get()
            .ok_or_else(|| fail("unreadable", &"never written"))?;
        file.read_exact_at(buf, at.offset)
            .map_err(|e| fail("unreadable", &e))?;
        if crc32(buf) != at.crc {
            return Err(fail("invalid", &"blob CRC mismatch"));
        }
        decode(buf).map_err(|e| fail("invalid", &e))
    }

    /// Flushes the written bytes to the device, so a snapshot that
    /// names them survives an OS crash. A file never written has
    /// nothing to flush.
    pub fn sync(&self) -> Result<(), SpillError> {
        let synced = self.file.get().map_or(Ok(()), File::sync_data);
        synced.map_err(|e| self.fail(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of this test's own, empty.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iiscope-spillfile-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn blob(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    fn read_back(f: &SpillFile, at: SpillRef) -> Result<Vec<u8>, String> {
        let mut buf = vec![0; at.len as usize];
        f.read(at, &mut buf, |b| Ok::<_, String>(b.to_vec()))
    }

    #[test]
    fn appended_blobs_read_back_at_every_size() {
        let dir = scratch_dir("round-trip");
        let f = SpillFile::kept(dir.join("a.spill"));
        let sizes = [1, 15, 16, 4096, 4097, 100_000];
        let refs: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (blob(n, i as u8), f.append(&blob(n, i as u8)).unwrap()))
            .collect();
        let mut end = 0;
        for (want, at) in &refs {
            assert_eq!(
                (at.offset, at.len as usize, at.crc),
                (end, want.len(), crc32(want))
            );
            assert_eq!(&read_back(&f, *at).unwrap(), want);
            end += u64::from(at.len);
        }
        assert_eq!(f.bytes(), end);
        assert_eq!(std::fs::metadata(f.path()).unwrap().len(), end);
        assert!(f.error().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rewrite_replaces_a_blob_in_place() {
        let dir = scratch_dir("rewrite");
        let f = SpillFile::scratch(&dir, "t");
        let (a, b) = (
            f.append(&blob(64, 1)).unwrap(),
            f.append(&blob(64, 2)).unwrap(),
        );
        let a2 = f.rewrite(a, &blob(64, 9)).unwrap();
        assert_eq!((a2.offset, a2.len), (a.offset, a.len));
        assert_eq!(read_back(&f, a2).unwrap(), blob(64, 9));
        assert_eq!(read_back(&f, b).unwrap(), blob(64, 2));
        assert!(read_back(&f, a).unwrap_err().contains("is invalid"));
        assert_eq!(f.bytes(), 128);
    }

    #[test]
    fn a_flipped_byte_and_a_short_read_name_the_path_and_offset() {
        let dir = scratch_dir("faults");
        let path = dir.join("f.spill");
        let f = SpillFile::kept(path.clone());
        let _ = f.append(&blob(100, 0)).unwrap();
        let at = f.append(&blob(100, 1)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[150] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let at100 = format!("spill segment at offset 100 of {}", path.display());
        let err = read_back(&f, at).unwrap_err();
        assert!(err.starts_with(&format!("{at100} is invalid")), "{err}");
        // A decode failure reads the same way.
        let mut buf = [0; 100];
        let first = SpillRef { offset: 0, ..at };
        let first = SpillRef {
            crc: crc32(&blob(100, 0)),
            ..first
        };
        let err = f
            .read(first, &mut buf, |_| Err::<(), _>("bad row"))
            .unwrap_err();
        assert!(err.ends_with("is invalid: bad row"), "{err}");

        std::fs::write(&path, &bytes[..120]).unwrap();
        let err = read_back(&f, at).unwrap_err();
        assert!(err.starts_with(&format!("{at100} is unreadable")), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn after_the_first_failure_nothing_is_written() {
        // A directory under a regular file: creating it fails even as
        // root.
        let blocker = scratch_dir("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let path = blocker.join("spill").join("x.spill");
        let f = SpillFile::kept(path.clone());
        assert_eq!(f.append(b"first"), None);
        let err = f.error().expect("the create must fail");
        assert_eq!(err.path, path);
        assert!(err
            .to_string()
            .starts_with(&format!("spill to {} failed: ", path.display())));
        // With the directory now creatable, the file still writes
        // nothing.
        std::fs::remove_file(&blocker).unwrap();
        assert_eq!(f.append(b"second"), None);
        assert!(!blocker.exists());
        assert_eq!(f.bytes(), 0);
    }

    #[test]
    fn two_files_never_share_a_path() {
        let dir = scratch_dir("paths");
        let (a, b) = (SpillFile::scratch(&dir, "t"), SpillFile::scratch(&dir, "t"));
        assert_ne!(a.path(), b.path());
        assert!(a.path().starts_with(&dir));
    }

    #[test]
    fn a_scratch_file_is_gone_from_its_directory_once_open() {
        let dir = scratch_dir("scratch");
        let (a, b) = (SpillFile::scratch(&dir, "t"), SpillFile::scratch(&dir, "t"));
        let at = a.append(&blob(4096, 3)).unwrap();
        let _ = b.append(&blob(10, 4)).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        assert_eq!(read_back(&a, at).unwrap(), blob(4096, 3));
        assert!(a.sync().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_truncates_torn_bytes_past_the_given_end() {
        let dir = scratch_dir("reopen");
        let path = dir.join("r.spill");
        let f = SpillFile::kept(path.clone());
        let at = f.append(&blob(300, 5)).unwrap();
        f.sync().unwrap();
        let _ = f.append(b"a crashed run's torn tail").unwrap();
        drop(f);
        let f = SpillFile::reopen(&path, 300).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 300);
        assert_eq!(read_back(&f, at).unwrap(), blob(300, 5));
        let next = f.append(&blob(10, 6)).unwrap();
        assert_eq!((next.offset, f.bytes()), (300, 310));
        assert!(SpillFile::reopen(&dir.join("missing.spill"), 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readers_share_the_file_through_a_shared_reference() {
        let dir = scratch_dir("readers");
        let f = SpillFile::scratch(&dir, "t");
        let refs: Vec<_> = (0..32u8)
            .map(|i| (i, f.append(&blob(512 + i as usize, i)).unwrap()))
            .collect();
        // The barrier starts all four readers at once, so their reads
        // overlap.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (f, refs, start) = (&f, &refs, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..20 {
                        for &(i, at) in refs.iter().skip((t + round) % 3) {
                            assert_eq!(read_back(f, at).unwrap(), blob(512 + i as usize, i));
                        }
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
