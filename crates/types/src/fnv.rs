//! 64-bit FNV-1a, the workspace's one non-cryptographic digest: the
//! interner's lookup hash, the toy certificate digest, the hashed WiFi
//! SSID, the checkpoint config fingerprint and a run's digest of what
//! it publishes.

use std::io::Write;

/// FNV-1a over a byte slice.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.fold(bytes);
    h.0
}

/// Streaming [`fnv64`]: a [`Write`] sink, so bytes are digested as
/// they are written instead of rendered first.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    /// The empty digest.
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    #[inline]
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of every byte written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Write for Fnv64 {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.fold(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_discriminating() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv64::default();
        h.write_all(b"foo").unwrap();
        h.write_all(b"bar").unwrap();
        assert_eq!(h.finish(), fnv64(b"foobar"));
        assert_ne!(fnv64(b"chaos"), fnv64(b"order"));
    }
}
