//! The record layer: typed, length-delimited, encrypted and
//! authenticated records.
//!
//! Wire format per record:
//!
//! ```text
//! +------+--------+----------------------+------------+
//! | type | len u16|  ciphertext (len-8)  |  mac (8B)  |
//! +------+--------+----------------------+------------+
//! ```
//!
//! * Handshake records are encrypted under the null key (i.e. readable
//!   on the wire, like a classic TLS ClientHello) but still MACed so
//!   fault-injected corruption is detected during the handshake too.
//! * Application records are encrypted under the session key with a
//!   per-direction, per-record sequence number; replayed or reordered
//!   records fail their MAC.
//! * Large payloads are split across records of at most
//!   [`MAX_RECORD_PLAINTEXT`] bytes, like real TLS fragmentation.
//!
//! Buffer discipline: sealing encrypts in place inside the output
//! buffer (one XOR pass, a `u64` word at a time), and the decoder
//! makes exactly one copy per record — ciphertext into the buffer that
//! decryption mutates and that is then frozen into the record's shared
//! plaintext slab. Consumed wire bytes are dropped by advancing an
//! offset, not by a `drain` memmove. The MAC digests the plaintext a
//! word at a time too.

use super::cert::mix;
use bytes::{BufMut, Bytes, BytesMut};
use iiscope_types::{wirestats, Error, Result};

/// Maximum plaintext bytes carried by one record.
pub const MAX_RECORD_PLAINTEXT: usize = 16 * 1024 - 64;

/// Record content types (numbers match TLS for familiarity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordType {
    /// Fatal alerts.
    Alert,
    /// Handshake messages.
    Handshake,
    /// Application data.
    AppData,
}

impl RecordType {
    fn to_byte(self) -> u8 {
        match self {
            RecordType::Alert => 21,
            RecordType::Handshake => 22,
            RecordType::AppData => 23,
        }
    }

    fn from_byte(b: u8) -> Result<RecordType> {
        match b {
            21 => Ok(RecordType::Alert),
            22 => Ok(RecordType::Handshake),
            23 => Ok(RecordType::AppData),
            // A mangled type byte is wire damage: connection-fatal and
            // retryable over a fresh connection.
            other => Err(Error::Network(format!("unknown record type {other}"))),
        }
    }
}

/// xorshift64* keystream, XORed in a `u64` word at a time.
fn keystream_xor(key: u64, seq: u64, data: &mut [u8]) {
    // The null key leaves handshake records readable on the wire.
    if key == 0 {
        return;
    }
    let mut state = mix(key ^ mix(seq)) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut words = data.chunks_exact_mut(8);
    for word in &mut words {
        let x = u64::from_le_bytes((&*word).try_into().expect("8 bytes")) ^ next();
        word.copy_from_slice(&x.to_le_bytes());
    }
    for (b, k) in words.into_remainder().iter_mut().zip(next().to_le_bytes()) {
        *b ^= k;
    }
}

/// Keyless digest of a record body: the length, then each 8-byte
/// little-endian word, then the zero-padded tail word, folded through
/// [`mix`]. `h -> mix(h ^ w)` is a bijection for every word `w`, so
/// changing any single word of a same-length body always changes the
/// digest.
fn digest(data: &[u8]) -> u64 {
    let mut h = mix(data.len() as u64);
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        h = mix(h ^ u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    mix(h ^ u64::from_le_bytes(last))
}

fn mac(key: u64, seq: u64, rtype: RecordType, plaintext: &[u8]) -> u64 {
    digest(plaintext) ^ mix(key ^ seq.wrapping_mul(0x9E37) ^ u64::from(rtype.to_byte()))
}

/// Seals `plaintext` into one or more records appended to `out`,
/// advancing `*seq` once per record. Encryption happens in place in
/// `out`: the plaintext chunk is written once and XORed where it lies.
pub fn seal_records_into(
    out: &mut BytesMut,
    key: u64,
    seq: &mut u64,
    rtype: RecordType,
    plaintext: &[u8],
) {
    out.reserve(plaintext.len() + 16);
    let chunks: Vec<&[u8]> = if plaintext.is_empty() {
        vec![&[][..]]
    } else {
        plaintext.chunks(MAX_RECORD_PLAINTEXT).collect()
    };
    for chunk in chunks {
        let record_mac = mac(key, *seq, rtype, chunk);
        out.put_u8(rtype.to_byte());
        out.put_u16((chunk.len() + 8) as u16);
        let body_start = out.len();
        out.put_slice(chunk);
        keystream_xor(key, *seq, &mut out[body_start..]);
        out.put_u64(record_mac);
        *seq += 1;
        wirestats::add_records_sealed(1);
    }
    wirestats::add_bytes_sealed(plaintext.len() as u64);
}

/// Seals `plaintext` into one or more records, advancing `*seq` once
/// per record.
pub fn seal_records(key: u64, seq: &mut u64, rtype: RecordType, plaintext: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(plaintext.len() + 32);
    seal_records_into(&mut out, key, seq, rtype, plaintext);
    out.freeze()
}

/// A decoded record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Content type.
    pub rtype: RecordType,
    /// Decrypted, authenticated plaintext — a shared slab that
    /// downstream taps (intercept log, HTTP parser) alias rather than
    /// copy.
    pub plaintext: Bytes,
}

/// Incremental record decoder for one direction of a connection.
#[derive(Debug, Default)]
pub struct RecordDecoder {
    buf: BytesMut,
}

impl RecordDecoder {
    /// Creates an empty decoder.
    pub fn new() -> RecordDecoder {
        RecordDecoder::default()
    }

    /// Appends raw wire bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes and authenticates the next record, if complete.
    /// Advances `*seq` on success. A MAC failure is fatal for the
    /// connection (as in TLS).
    pub fn next_record(&mut self, key: u64, seq: &mut u64) -> Result<Option<Record>> {
        use bytes::Buf;
        if self.buf.len() < 3 {
            return Ok(None);
        }
        let rtype = RecordType::from_byte(self.buf[0])?;
        let len = u16::from_be_bytes([self.buf[1], self.buf[2]]) as usize;
        if len < 8 {
            return Err(Error::Network("record shorter than its MAC".into()));
        }
        if self.buf.len() < 3 + len {
            return Ok(None);
        }
        let wire_mac =
            u64::from_be_bytes(self.buf[3 + len - 8..3 + len].try_into().expect("8 bytes"));
        self.buf.advance(3);
        // The one copy of the decode path: ciphertext moves into the
        // buffer that decryption mutates and the record then owns.
        let mut body = self.buf.split_to(len - 8);
        self.buf.advance(8);
        keystream_xor(key, *seq, &mut body);
        if mac(key, *seq, rtype, &body) != wire_mac {
            return Err(Error::Network("bad record MAC".into()));
        }
        *seq += 1;
        wirestats::add_records_opened(1);
        Ok(Some(Record {
            rtype,
            plaintext: body.freeze(),
        }))
    }

    /// Drains all currently-complete records.
    pub fn drain(&mut self, key: u64, seq: &mut u64) -> Result<Vec<Record>> {
        let mut records = Vec::new();
        while let Some(r) = self.next_record(key, seq)? {
            records.push(r);
        }
        Ok(records)
    }

    /// Buffered byte count.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// One-shot helper: decodes a complete byte run into records,
/// concatenating app-data plaintext. Errors on alerts. A single-record
/// run — every offer-wall-sized exchange — returns the decrypt buffer
/// itself, uncopied.
pub fn open_records(key: u64, seq: &mut u64, bytes: &[u8]) -> Result<Bytes> {
    // Decoded in place over `bytes` rather than through a
    // `RecordDecoder`: the input is already complete, so the wire run
    // never needs to be staged in a stream buffer — each record costs
    // exactly one copy (ciphertext into the buffer decryption mutates).
    let mut parts: Vec<Bytes> = Vec::new();
    let mut pos = 0;
    while bytes.len() - pos >= 3 {
        let rtype = RecordType::from_byte(bytes[pos])?;
        let len = u16::from_be_bytes([bytes[pos + 1], bytes[pos + 2]]) as usize;
        if len < 8 {
            return Err(Error::Network("record shorter than its MAC".into()));
        }
        if bytes.len() - pos < 3 + len {
            break; // trailing partial record
        }
        let wire_mac = u64::from_be_bytes(
            bytes[pos + 3 + len - 8..pos + 3 + len]
                .try_into()
                .expect("8 bytes"),
        );
        let mut body = bytes[pos + 3..pos + 3 + len - 8].to_vec();
        pos += 3 + len;
        keystream_xor(key, *seq, &mut body);
        if mac(key, *seq, rtype, &body) != wire_mac {
            return Err(Error::Network("bad record MAC".into()));
        }
        *seq += 1;
        wirestats::add_records_opened(1);
        match rtype {
            RecordType::AppData => parts.push(Bytes::from(body)),
            RecordType::Alert => {
                return Err(Error::Network(format!(
                    "tls alert: {}",
                    String::from_utf8_lossy(&body)
                )))
            }
            RecordType::Handshake => {
                return Err(Error::Network("unexpected handshake record".into()))
            }
        }
    }
    if pos != bytes.len() {
        return Err(Error::Network("trailing partial record".into()));
    }
    Ok(match parts.len() {
        0 => Bytes::new(),
        1 => {
            wirestats::add_record_passthrough(1);
            parts.pop().expect("one part")
        }
        _ => {
            let mut joined = Vec::with_capacity(parts.iter().map(Bytes::len).sum());
            for p in &parts {
                joined.extend_from_slice(p);
            }
            Bytes::from(joined)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip() {
        let key = 0xDEAD_BEEF_CAFE_F00D;
        let mut send_seq = 0;
        let wire = seal_records(key, &mut send_seq, RecordType::AppData, b"hello world");
        let mut recv_seq = 0;
        assert_eq!(
            open_records(key, &mut recv_seq, &wire).unwrap(),
            b"hello world"
        );
        assert_eq!(send_seq, recv_seq);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut seq = 0;
        let wire = seal_records(42, &mut seq, RecordType::AppData, b"secret offers");
        let hay = wire.windows(6).any(|w| w == b"secret");
        assert!(!hay, "plaintext leaked into ciphertext");
    }

    #[test]
    fn null_key_is_readable_but_authenticated() {
        let mut seq = 0;
        let wire = seal_records(0, &mut seq, RecordType::Handshake, b"client_hello");
        assert!(wire.windows(12).any(|w| w == b"client_hello"));
        // … but still MACed:
        let mut tampered = wire.to_vec();
        let n = tampered.len();
        tampered[n - 9] ^= 0xFF; // flip a plaintext byte, keep MAC bytes
        let mut dec = RecordDecoder::new();
        dec.extend(&tampered);
        let mut s = 0;
        assert!(dec.next_record(0, &mut s).is_err());
    }

    #[test]
    fn corruption_detected() {
        let key = 7;
        let mut seq = 0;
        let mut wire = seal_records(key, &mut seq, RecordType::AppData, b"payload").to_vec();
        wire[5] ^= 0x10;
        let mut recv_seq = 0;
        let err = open_records(key, &mut recv_seq, &wire).unwrap_err();
        assert_eq!(err.kind(), "network", "wire damage is a transport error");
    }

    #[test]
    fn wrong_key_fails_mac() {
        let mut seq = 0;
        let wire = seal_records(1, &mut seq, RecordType::AppData, b"x");
        let mut recv_seq = 0;
        assert!(open_records(2, &mut recv_seq, &wire).is_err());
    }

    #[test]
    fn replay_fails_sequence_check() {
        let key = 9;
        let mut seq = 0;
        let r1 = seal_records(key, &mut seq, RecordType::AppData, b"first");
        let mut replayed = r1.to_vec();
        replayed.extend_from_slice(&r1);
        let mut recv_seq = 0;
        // First copy opens fine, replayed copy fails under seq=1.
        let mut dec = RecordDecoder::new();
        dec.extend(&replayed);
        assert!(dec.next_record(key, &mut recv_seq).unwrap().is_some());
        assert!(dec.next_record(key, &mut recv_seq).is_err());
    }

    #[test]
    fn fragmentation_and_reassembly() {
        let key = 11;
        let big = vec![0x5Au8; MAX_RECORD_PLAINTEXT * 2 + 100];
        let mut seq = 0;
        let wire = seal_records(key, &mut seq, RecordType::AppData, &big);
        assert_eq!(seq, 3, "expected 3 records");
        let mut recv_seq = 0;
        assert_eq!(open_records(key, &mut recv_seq, &wire).unwrap(), big);
    }

    #[test]
    fn empty_payload_still_one_record() {
        let key = 13;
        let mut seq = 0;
        let wire = seal_records(key, &mut seq, RecordType::AppData, b"");
        assert_eq!(seq, 1);
        let mut recv_seq = 0;
        assert_eq!(open_records(key, &mut recv_seq, &wire).unwrap(), b"");
    }

    #[test]
    fn alert_surfaces_as_network_error() {
        let mut seq = 0;
        let wire = seal_records(0, &mut seq, RecordType::Alert, b"handshake_failure");
        let mut recv_seq = 0;
        let err = open_records(0, &mut recv_seq, &wire).unwrap_err();
        assert_eq!(err.kind(), "network");
        assert!(err.to_string().contains("handshake_failure"));
    }

    #[test]
    fn partial_record_waits() {
        let key = 3;
        let mut seq = 0;
        let wire = seal_records(key, &mut seq, RecordType::AppData, b"abc");
        let mut dec = RecordDecoder::new();
        dec.extend(&wire[..wire.len() - 1]);
        let mut recv_seq = 0;
        assert!(dec.next_record(key, &mut recv_seq).unwrap().is_none());
        dec.extend(&wire[wire.len() - 1..]);
        assert!(dec.next_record(key, &mut recv_seq).unwrap().is_some());
    }

    #[test]
    fn unknown_record_type_rejected() {
        let mut dec = RecordDecoder::new();
        dec.extend(&[99, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0]);
        let mut seq = 0;
        assert!(dec.next_record(0, &mut seq).is_err());
    }

    #[test]
    fn seal_into_appends_to_existing_buffer() {
        let mut out = BytesMut::new();
        out.extend_from_slice(b"prior");
        let mut seq = 0;
        seal_records_into(&mut out, 5, &mut seq, RecordType::AppData, b"payload");
        assert_eq!(&out[..5], b"prior");
        let mut recv_seq = 0;
        assert_eq!(
            open_records(5, &mut recv_seq, &out[5..]).unwrap(),
            b"payload"
        );
    }
}
