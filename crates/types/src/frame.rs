//! Durable record framing: the on-disk codec for checkpoint snapshots.
//!
//! A frame file is `MAGIC` followed by a sequence of records and a
//! mandatory END record:
//!
//! ```text
//! [magic 8B] ([type 1B][len u32 LE][crc u32 LE][payload len B])* [END record]
//! ```
//!
//! The CRC-32 (ISO-HDLC, the zlib polynomial) covers the type byte,
//! the length field and the payload, so any single bit-flip anywhere
//! in a record is detected. The END record carries the data-record
//! count; a file torn mid-record fails with a truncation error, and a
//! file torn *between* records (which leaves every remaining record
//! individually valid) fails with [`FrameError::MissingEnd`]. Decoding
//! is total: adversarial bytes produce [`FrameError`], never a panic
//! and never silently wrong data.
//!
//! [`Enc`]/[`Dec`] are the little-endian payload codec used inside
//! records: fixed-width integers, bit-exact `f64` (via `to_bits`), and
//! length-prefixed strings/bytes, all bounds-checked on read.

use std::io::{self, Seek, SeekFrom, Write};

/// File magic: identifies an iiscope snapshot frame file, revision 01
/// of the *framing* layer (payload schema versions live in records).
pub const MAGIC: [u8; 8] = *b"IISNAP01";

/// Maximum accepted record payload length (1 GiB). A length field
/// beyond this is corruption, not data.
pub const MAX_RECORD: usize = 1 << 30;

const TYPE_DATA: u8 = 0x00;
const TYPE_END: u8 = 0x01;

/// Why a frame file or record payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file ends inside a record header (torn write).
    TruncatedHeader {
        /// Byte offset of the torn record.
        at: usize,
    },
    /// The file ends inside a record payload (torn write).
    TruncatedPayload {
        /// Byte offset of the torn record.
        at: usize,
        /// Declared payload length.
        want: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// Stored CRC does not match the record bytes (bit flip).
    CrcMismatch {
        /// Byte offset of the damaged record.
        at: usize,
        /// CRC stored in the record header.
        want: u32,
        /// CRC computed over the record bytes.
        got: u32,
    },
    /// Record length exceeds [`MAX_RECORD`] (corrupt length field).
    OversizeRecord {
        /// Byte offset of the record.
        at: usize,
        /// The absurd declared length.
        len: u64,
    },
    /// Unknown record type byte.
    BadRecordType {
        /// Byte offset of the record.
        at: usize,
        /// The unknown type byte.
        ty: u8,
    },
    /// The file ended without an END record (trailing records lost).
    MissingEnd,
    /// The END record's data-record count disagrees with the file.
    BadEnd {
        /// Data records actually present before END.
        counted: u64,
        /// Count the END record declares.
        declared: u64,
    },
    /// Bytes follow the END record.
    TrailingBytes {
        /// Byte offset of the first trailing byte.
        at: usize,
    },
    /// A record payload failed structured decoding.
    Codec(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "not a snapshot frame file (bad magic)"),
            FrameError::TruncatedHeader { at } => {
                write!(
                    f,
                    "torn write: file ends inside a record header at byte {at}"
                )
            }
            FrameError::TruncatedPayload { at, want, have } => write!(
                f,
                "torn write: record at byte {at} declares {want} payload bytes, {have} remain"
            ),
            FrameError::CrcMismatch { at, want, got } => write!(
                f,
                "bit flip: record at byte {at} CRC {got:#010x} != stored {want:#010x}"
            ),
            FrameError::OversizeRecord { at, len } => {
                write!(f, "corrupt length: record at byte {at} claims {len} bytes")
            }
            FrameError::BadRecordType { at, ty } => {
                write!(f, "corrupt record type {ty:#04x} at byte {at}")
            }
            FrameError::MissingEnd => write!(f, "torn write: file ends without an END record"),
            FrameError::BadEnd { counted, declared } => write!(
                f,
                "torn write: {counted} records present, END declares {declared}"
            ),
            FrameError::TrailingBytes { at } => {
                write!(f, "trailing bytes after END record at byte {at}")
            }
            FrameError::Codec(what) => write!(f, "payload decode failed: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC-32 (ISO-HDLC / zlib: reflected polynomial `0xEDB88320`).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc_update(!0, bytes)
}

/// Advances a raw CRC-32 register (no pre- or post-inversion) over
/// `bytes`, so `crc32(b) == !crc_update(!0, b)` and updates compose:
/// `crc_update(crc_update(s, a), b) == crc_update(s, a ++ b)`.
///
/// Slicing-by-16: each 16-byte block is folded with sixteen table
/// lookups (table `k` advances a byte through `k` further zero bytes),
/// the tail shorter than a block goes bytewise through `CRC_TABLES[0]`.
pub fn crc_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Advances a raw CRC-32 register through `len` zero bytes in
/// `O(log len)`: `crc_shift(s, n) == crc_update(s, &[0; n])`. A raw
/// register is linear in its start and its input, so
/// `crc_update(s, p) == crc_shift(s, p.len()) ^ crc_update(0, p)`: a
/// payload's CRC can be taken before the header in front of it is
/// known, and combined with the header's afterwards (zlib's
/// `crc32_combine`).
pub fn crc_shift(crc: u32, len: u64) -> u32 {
    // Zero bytes multiply the register by x^8 each, modulo the
    // polynomial: square-and-multiply over the bits of `len`.
    let mut out = crc;
    let mut power = 1u32 << (31 - 8); // x^8, reflected
    let mut n = len;
    while n != 0 {
        if n & 1 != 0 {
            out = mul_mod_poly(power, out);
        }
        power = mul_mod_poly(power, power);
        n >>= 1;
    }
    out
}

/// `a·b` modulo the CRC-32 polynomial, both in the reflected form the
/// register uses (bit 31 is `x^0`).
fn mul_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    for i in 0..32 {
        if a & (1 << (31 - i)) != 0 {
            p ^= b;
        }
        // b·x
        b = if b & 1 != 0 {
            (b >> 1) ^ 0xEDB8_8320
        } else {
            b >> 1
        };
    }
    p
}

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k]`
/// extends it by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Bytes a streaming [`Enc`] holds before it hands them to its sink:
/// the whole buffer a [`FrameWriter`] record costs, however long the
/// record.
pub const WINDOW: usize = 64 << 10;

/// Bytes in a record header: type, `len`, CRC.
const HEADER: usize = 1 + 4 + 4;

/// Writes a frame file to any seekable sink: a file on disk, or a
/// `Cursor<Vec<u8>>` for a frame file held in memory. Each record's
/// payload streams through one [`WINDOW`]-sized buffer behind a
/// placeholder header; when the payload ends, the writer seeks back
/// and patches the header's `len` and CRC, so no record is ever held
/// whole. [`FrameWriter::finish`] appends the END record; a file
/// without one never validates.
#[derive(Debug)]
pub struct FrameWriter<W> {
    out: W,
    records: u64,
}

impl<W: Write + Seek> FrameWriter<W> {
    /// Starts a frame file (writes the magic).
    pub fn new(mut out: W) -> io::Result<FrameWriter<W>> {
        out.write_all(&MAGIC)?;
        Ok(FrameWriter { out, records: 0 })
    }

    /// Appends one data record whose payload is already in hand.
    pub fn record(&mut self, payload: &[u8]) -> io::Result<()> {
        self.record_with(|e| e.put(payload))
    }

    /// Appends one data record whose payload `fill` encodes, streaming
    /// it to the sink a window at a time.
    ///
    /// A payload over [`MAX_RECORD`] is an `InvalidInput` error. On
    /// that or any error of the sink the file is left torn: it never
    /// validates.
    pub fn record_with(&mut self, fill: impl FnOnce(&mut Enc)) -> io::Result<()> {
        self.push(TYPE_DATA, fill)?;
        self.records += 1;
        Ok(())
    }

    /// Seals the file with the END record and returns the sink.
    pub fn finish(mut self) -> io::Result<W> {
        let count = self.records;
        self.push(TYPE_END, |e| {
            e.u64(count);
        })?;
        self.out.flush()?;
        Ok(self.out)
    }

    fn push(&mut self, ty: u8, fill: impl FnOnce(&mut Enc)) -> io::Result<()> {
        let start = self.out.stream_position()?;
        self.out.write_all(&[0; HEADER])?;
        let mut body = CrcWriter {
            out: &mut self.out,
            crc: 0,
            len: 0,
        };
        let mut e = Enc::streaming(&mut body);
        fill(&mut e);
        e.drain()?;
        let (crc, len) = (body.crc, body.len);
        if len > MAX_RECORD as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record exceeds MAX_RECORD",
            ));
        }
        let mut head = [0u8; HEADER];
        head[0] = ty;
        head[1..5].copy_from_slice(&(len as u32).to_le_bytes());
        // The payload's CRC was taken from a zero register; shifting
        // the header's register past `len` bytes and adding it gives
        // the CRC over header and payload (see `crc_shift`).
        let crc = crc_shift(crc_update(!0, &head[..5]), len) ^ crc;
        head[5..].copy_from_slice(&(!crc).to_le_bytes());
        self.out.seek(SeekFrom::Start(start))?;
        self.out.write_all(&head)?;
        self.out
            .seek(SeekFrom::Start(start + (HEADER as u64) + len))?;
        Ok(())
    }
}

/// Passes bytes through to `out`, keeping a zero-started raw CRC
/// register and a count of what went through.
struct CrcWriter<'a, W> {
    out: &'a mut W,
    crc: u32,
    len: u64,
}

impl<W: Write> Write for CrcWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.crc = crc_update(self.crc, &buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Streaming reader over a frame file held in memory.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    records: u64,
    done: bool,
}

impl<'a> FrameReader<'a> {
    /// Opens a frame file, checking the magic.
    pub fn new(buf: &'a [u8]) -> Result<FrameReader<'a>, FrameError> {
        if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        Ok(FrameReader {
            buf,
            pos: MAGIC.len(),
            records: 0,
            done: false,
        })
    }

    /// Returns the next data record payload, `Ok(None)` after a valid
    /// END record at exact end-of-file, or the precise corruption.
    pub fn next_record(&mut self) -> Result<Option<&'a [u8]>, FrameError> {
        if self.done {
            return Ok(None);
        }
        let at = self.pos;
        if at == self.buf.len() {
            return Err(FrameError::MissingEnd);
        }
        let header = 1 + 4 + 4;
        if self.buf.len() - at < header {
            return Err(FrameError::TruncatedHeader { at });
        }
        let ty = self.buf[at];
        let len = u32::from_le_bytes(self.buf[at + 1..at + 5].try_into().unwrap()) as usize;
        let want = u32::from_le_bytes(self.buf[at + 5..at + 9].try_into().unwrap());
        if len > MAX_RECORD {
            return Err(FrameError::OversizeRecord {
                at,
                len: len as u64,
            });
        }
        let have = self.buf.len() - at - header;
        if len > have {
            return Err(FrameError::TruncatedPayload {
                at,
                want: len,
                have,
            });
        }
        let payload = &self.buf[at + header..at + header + len];
        let got = !crc_update(crc_update(!0, &self.buf[at..at + 5]), payload);
        if got != want {
            return Err(FrameError::CrcMismatch { at, want, got });
        }
        self.pos = at + header + len;
        match ty {
            TYPE_DATA => {
                self.records += 1;
                Ok(Some(payload))
            }
            TYPE_END => {
                if payload.len() != 8 {
                    return Err(FrameError::BadEnd {
                        counted: self.records,
                        declared: u64::MAX,
                    });
                }
                let declared = u64::from_le_bytes(payload.try_into().unwrap());
                if declared != self.records {
                    return Err(FrameError::BadEnd {
                        counted: self.records,
                        declared,
                    });
                }
                if self.pos != self.buf.len() {
                    return Err(FrameError::TrailingBytes { at: self.pos });
                }
                self.done = true;
                Ok(None)
            }
            other => Err(FrameError::BadRecordType { at, ty: other }),
        }
    }
}

/// Reads and validates every record of a frame file.
pub fn read_all(buf: &[u8]) -> Result<Vec<&[u8]>, FrameError> {
    let mut reader = FrameReader::new(buf)?;
    let mut out = Vec::new();
    while let Some(payload) = reader.next_record()? {
        out.push(payload);
    }
    Ok(out)
}

/// Little-endian payload encoder for record contents.
///
/// [`Enc::new`] grows one buffer holding the whole payload. Inside
/// [`FrameWriter::record_with`] the encoder streams instead: it holds
/// at most [`WINDOW`] bytes and hands them to the frame's sink each
/// time the window fills. A sink error is kept, later bytes are
/// dropped, and the record returns the error.
#[derive(Default)]
pub struct Enc<'s> {
    buf: Vec<u8>,
    sink: Sink<'s>,
}

/// Where an [`Enc`]'s bytes go once its buffer is full.
#[derive(Default)]
enum Sink<'s> {
    /// Nowhere: the buffer grows.
    #[default]
    Memory,
    /// Out through the writer, a window at a time.
    Stream(&'s mut dyn Write),
    /// The writer failed: bytes are dropped.
    Failed(io::Error),
}

impl std::fmt::Debug for Enc<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sink = match self.sink {
            Sink::Memory => "memory",
            Sink::Stream(_) => "stream",
            Sink::Failed(_) => "failed",
        };
        f.debug_struct("Enc")
            .field("buffered", &self.buf.len())
            .field("sink", &sink)
            .finish()
    }
}

impl Enc<'static> {
    /// Empty encoder that keeps its whole payload in memory.
    pub fn new() -> Enc<'static> {
        Enc::default()
    }
}

impl<'s> Enc<'s> {
    /// Encoder streaming to `out` through one [`WINDOW`].
    fn streaming(out: &'s mut dyn Write) -> Enc<'s> {
        Enc {
            buf: Vec::with_capacity(WINDOW),
            sink: Sink::Stream(out),
        }
    }

    /// Writes out what the window still holds; the sink's first
    /// error, if any.
    fn drain(mut self) -> io::Result<()> {
        self.flush_window();
        match self.sink {
            Sink::Failed(e) => Err(e),
            _ => Ok(()),
        }
    }

    /// The encoded bytes so far (of a streaming encoder: those still
    /// in its window).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, yielding the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes. Small appends that fit the buffer's spare
    /// capacity never reach the sink.
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        if bytes.len() <= self.buf.capacity() - self.buf.len() {
            self.buf.extend_from_slice(bytes);
        } else {
            self.overflow(bytes);
        }
    }

    #[cold]
    fn overflow(&mut self, bytes: &[u8]) {
        if let Sink::Memory = self.sink {
            self.buf.extend_from_slice(bytes);
            return;
        }
        self.flush_window();
        if bytes.len() <= self.buf.capacity() {
            self.buf.extend_from_slice(bytes);
        } else if let Sink::Stream(out) = &mut self.sink {
            // Longer than the window: straight through.
            if let Err(e) = out.write_all(bytes) {
                self.sink = Sink::Failed(e);
            }
        }
    }

    /// Hands the window to a streaming sink and empties it.
    fn flush_window(&mut self) {
        if let Sink::Stream(out) = &mut self.sink {
            if let Err(e) = out.write_all(&self.buf) {
                self.sink = Sink::Failed(e);
            }
        }
        if !matches!(self.sink, Sink::Memory) {
            self.buf.clear();
        }
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.put(&[v]);
        self
    }

    /// Appends a `bool` as `0`/`1`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.put(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` bit-exactly (`to_bits`).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes_field(v.as_bytes())
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes_field(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.put(v);
        self
    }
}

/// Bounds-checked payload decoder: every accessor is total over
/// arbitrary input, returning [`FrameError::Codec`] instead of
/// panicking or reading out of bounds.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over a record payload.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Codec("field overruns payload"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a strict `bool` (`0` or `1`).
    pub fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Codec("bool byte not 0/1")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit-exactly (`from_bits`).
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, FrameError> {
        std::str::from_utf8(self.bytes_field()?).map_err(|_| FrameError::Codec("invalid UTF-8"))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes_field(&mut self) -> Result<&'a [u8], FrameError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FrameError::Codec("payload has trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop: the definition the sliced kernel must
    /// reproduce.
    fn crc_update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc
    }

    /// Deterministic filler (xorshift64*), so failures reproduce.
    fn seeded_bytes(n: usize, mut seed: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                seed ^= seed >> 12;
                seed ^= seed << 25;
                seed ^= seed >> 27;
                (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(!crc_update_bytewise(!0, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_kernel_matches_the_bytewise_oracle() {
        // Every length 0..=300 at every alignment: the block loop, the
        // tail loop and every split between them.
        let buf = seeded_bytes(316, 1);
        for start in 0..16 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                for state in [!0u32, 0, 0x1234_5678] {
                    assert_eq!(
                        crc_update(state, bytes),
                        crc_update_bytewise(state, bytes),
                        "start {start} len {len} state {state:#x}"
                    );
                }
            }
        }
        let big = seeded_bytes(1 << 20, 2);
        assert_eq!(crc32(&big), !crc_update_bytewise(!0, &big));
    }

    #[test]
    fn split_updates_compose() {
        let buf = seeded_bytes(1000, 3);
        let whole = crc_update(!0, &buf);
        for cut in [0, 1, 7, 15, 16, 17, 31, 32, 33, 500, 999, 1000] {
            let (a, b) = buf.split_at(cut);
            assert_eq!(crc_update(crc_update(!0, a), b), whole, "cut {cut}");
        }
    }

    fn in_memory() -> FrameWriter<io::Cursor<Vec<u8>>> {
        FrameWriter::new(io::Cursor::new(Vec::new())).unwrap()
    }

    #[test]
    fn crc_shift_matches_a_zero_byte_pass() {
        // Every length 0..=300 from several registers, and 1 MiB: the
        // shifted header register plus a zero-started payload CRC is
        // the CRC over both.
        let buf = seeded_bytes(300, 4);
        for len in 0..=300 {
            let payload = &buf[..len];
            for state in [!0u32, 0, 0x1234_5678] {
                assert_eq!(
                    crc_shift(state, len as u64),
                    crc_update(state, &vec![0; len]),
                    "len {len} state {state:#x}"
                );
                assert_eq!(
                    crc_shift(state, len as u64) ^ crc_update(0, payload),
                    crc_update(state, payload),
                    "len {len} state {state:#x}"
                );
            }
        }
        let big = seeded_bytes(1 << 20, 5);
        let head = crc_update(!0, b"\x00\x00\x00\x10\x00");
        assert_eq!(
            crc_shift(head, big.len() as u64) ^ crc_update(0, &big),
            crc_update(head, &big)
        );
    }

    #[test]
    fn streamed_records_match_the_reference_layout_at_window_edges() {
        let w = WINDOW;
        let lens = [0, 1, 9, w - 1, w, w + 1, 2 * w, 3 * w + 5];
        let payloads: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| seeded_bytes(n, 10 + i as u64))
            .collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let want = reference_file(&refs);
        // The same payloads handed over in different pieces: whole,
        // byte by byte, and in 1000-byte and window-plus-one slices.
        for piece in [usize::MAX, 1, 1000, w + 1] {
            let mut fw = in_memory();
            for p in &payloads {
                fw.record_with(|e| {
                    for part in p.chunks(piece.min(p.len().max(1))) {
                        e.put(part);
                    }
                })
                .unwrap();
            }
            let got = fw.finish().unwrap().into_inner();
            assert!(got == want, "piece {piece}: streamed bytes differ");
            assert_eq!(read_all(&got).unwrap(), refs);
        }
    }

    #[test]
    fn a_streaming_encoder_never_outgrows_its_window() {
        let mut sink = Vec::new();
        let mut e = Enc::streaming(&mut sink);
        for i in 0..(3 * WINDOW as u64) {
            e.u64(i);
            assert!(e.buf.capacity() == WINDOW && e.buf.len() <= WINDOW);
        }
        e.bytes_field(&vec![7; 2 * WINDOW]);
        assert!(e.buf.capacity() == WINDOW);
        e.drain().unwrap();
        assert_eq!(sink.len(), 3 * WINDOW * 8 + 4 + 2 * WINDOW);
    }

    /// A sink that takes `left` bytes and then fails: every later
    /// write, or with `once` only the next one.
    struct FailAfter {
        inner: io::Cursor<Vec<u8>>,
        left: usize,
        once: bool,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                if self.once {
                    self.left = usize::MAX;
                }
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

    impl Seek for FailAfter {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn a_failing_sink_is_an_error_at_every_byte() {
        // A sink that fails once and then recovers must fail the
        // record too: the encoder keeps the error it met mid-payload.
        let payloads = [seeded_bytes(2 * WINDOW + 3, 20), b"tail".to_vec()];
        let write = |left: usize, once: bool| -> io::Result<Vec<u8>> {
            let sink = FailAfter {
                inner: io::Cursor::new(Vec::new()),
                left,
                once,
            };
            let mut w = FrameWriter::new(sink)?;
            for p in &payloads {
                w.record_with(|e| {
                    for part in p.chunks(100) {
                        e.put(part);
                    }
                })?;
            }
            Ok(w.finish()?.inner.into_inner())
        };
        let whole = write(usize::MAX, false).unwrap();
        let mut cuts: Vec<usize> = (0..64).collect();
        cuts.extend((64..whole.len()).step_by(997));
        cuts.extend(whole.len() - 40..whole.len());
        for k in cuts {
            for once in [false, true] {
                assert!(
                    write(k, once).is_err(),
                    "a sink failing at byte {k} (once: {once}) went unnoticed"
                );
            }
        }
    }

    fn sample_file() -> Vec<u8> {
        let mut w = in_memory();
        w.record(b"first record").unwrap();
        w.record(b"").unwrap();
        w.record(&[0xFFu8; 300]).unwrap();
        w.finish().unwrap().into_inner()
    }

    /// The frame layout written out by hand, each record whole: the
    /// definition the streaming writer must reproduce.
    fn reference_file(records: &[&[u8]]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        let mut push = |ty: u8, payload: &[u8]| {
            let mut head = vec![ty];
            head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            let crc = crc32(&[&head[..], payload].concat());
            out.extend_from_slice(&head);
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(payload);
        };
        for r in records {
            push(TYPE_DATA, r);
        }
        push(TYPE_END, &(records.len() as u64).to_le_bytes());
        out
    }

    #[test]
    fn round_trip() {
        let file = sample_file();
        let records = read_all(&file).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], b"first record");
        assert_eq!(records[1], b"");
        assert_eq!(records[2], &[0xFFu8; 300][..]);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let file = sample_file();
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut corrupt = file.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    read_all(&corrupt).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let file = sample_file();
        for cut in 0..file.len() {
            assert!(
                read_all(&file[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn missing_end_record_is_detected() {
        let mut w = in_memory();
        w.record(b"data").unwrap();
        // Drop the END record: a file torn between records — every
        // record individually valid, END absent.
        let mut torn = MAGIC.to_vec();
        let finished = w.finish().unwrap().into_inner();
        torn.extend_from_slice(&finished[MAGIC.len()..finished.len() - (1 + 4 + 4 + 8)]);
        assert_eq!(read_all(&torn), Err(FrameError::MissingEnd));
    }

    #[test]
    fn garbage_decoding_is_total() {
        assert_eq!(read_all(b"short"), Err(FrameError::BadMagic));
        let mut junk = MAGIC.to_vec();
        junk.extend_from_slice(&[0xAB; 37]);
        assert!(read_all(&junk).is_err());
    }

    #[test]
    fn enc_dec_round_trip_and_totality() {
        let mut e = Enc::new();
        e.u8(7)
            .bool(true)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX)
            .i64(-42)
            .f64(std::f64::consts::PI)
            .str("héllo")
            .bytes_field(&[1, 2, 3]);
        let payload = e.into_bytes();
        let mut d = Dec::new(&payload);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes_field().unwrap(), &[1, 2, 3]);
        d.finish().unwrap();

        // Totality: reading past the end errs instead of panicking.
        let mut d = Dec::new(&[0x05, 0x00, 0x00]);
        assert!(d.u64().is_err());
        let mut d = Dec::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(d.bytes_field().is_err());
    }
}
