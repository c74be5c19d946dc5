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

/// Builds a frame file in memory. [`FrameWriter::finish`] appends the
/// END record; a file without one never validates.
#[derive(Debug)]
pub struct FrameWriter {
    buf: Vec<u8>,
    records: u64,
}

impl Default for FrameWriter {
    fn default() -> Self {
        FrameWriter::new()
    }
}

impl FrameWriter {
    /// Starts a frame file (writes the magic).
    pub fn new() -> FrameWriter {
        FrameWriter {
            buf: MAGIC.to_vec(),
            records: 0,
        }
    }

    fn push_record(&mut self, ty: u8, payload: &[u8]) {
        let start = self.buf.len();
        self.buf.push(ty);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc_update(crc_update(!0, &self.buf[start..]), payload);
        self.buf.extend_from_slice(&(!crc).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Appends one data record.
    ///
    /// # Panics
    /// Panics if `payload` exceeds [`MAX_RECORD`] — a caller bug, not
    /// an input condition.
    pub fn record(&mut self, payload: &[u8]) {
        assert!(payload.len() <= MAX_RECORD, "record exceeds MAX_RECORD");
        self.push_record(TYPE_DATA, payload);
        self.records += 1;
    }

    /// Seals the file with the END record and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let count = self.records;
        self.push_record(TYPE_END, &count.to_le_bytes());
        self.buf
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
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, yielding the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Enc {
        self.buf.push(v);
        self
    }

    /// Appends a `bool` as `0`/`1`.
    pub fn bool(&mut self, v: bool) -> &mut Enc {
        self.u8(u8::from(v))
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` bit-exactly (`to_bits`).
    pub fn f64(&mut self, v: f64) -> &mut Enc {
        self.u64(v.to_bits())
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Enc {
        self.bytes_field(v.as_bytes())
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes_field(&mut self, v: &[u8]) -> &mut Enc {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
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

    fn sample_file() -> Vec<u8> {
        let mut w = FrameWriter::new();
        w.record(b"first record");
        w.record(b"");
        w.record(&[0xFFu8; 300]);
        w.finish()
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
        let mut w = FrameWriter::new();
        w.record(b"data");
        // Steal the buffer without finish(): a file torn between
        // records — every record individually valid, END absent.
        let mut torn = MAGIC.to_vec();
        let finished = w.finish();
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
