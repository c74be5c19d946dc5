//! Certificates, authorities, chains, trust stores, pinning.
//!
//! The primitives are hash-based stand-ins (see the module warning in
//! [`crate::tls`]), but the *shapes* are real: a certificate binds a
//! subject name to a public key under an issuer's signature; clients
//! walk the chain to a trusted root; pinning compares the leaf key
//! against an expectation and overrides chain trust.

use crate::Json;
use iiscope_types::fnv::fnv64;
use iiscope_types::{Error, Result, SeedFork};

/// Mixes a 64-bit value (splitmix64 finalizer) — the "one-way function"
/// of the toy scheme.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A key pair. `public = mix(private)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    private: u64,
    /// The shareable half.
    pub public: u64,
}

impl KeyPair {
    /// Derives a key pair from a seed point.
    pub fn generate(seed: SeedFork) -> KeyPair {
        let private = mix(seed.seed() ^ 0x6b65_7970_6169_7221);
        KeyPair {
            private,
            public: mix(private),
        }
    }

    /// Signs a digest. Verification uses only the public key (which is
    /// what makes the scheme a toy — see module docs).
    pub fn sign(&self, digest: u64) -> u64 {
        mix(digest ^ self.public)
    }
}

/// Verifies `signature` over `digest` for the signer's `public` key.
pub fn verify(public: u64, digest: u64, signature: u64) -> bool {
    mix(digest ^ public) == signature
}

/// An X.509-shaped certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Subject hostname. A leading `*.` makes it a wildcard for one
    /// label, e.g. `*.fyber.iiscope`.
    pub subject: String,
    /// Issuer (CA) name.
    pub issuer: String,
    /// Subject's public key.
    pub public_key: u64,
    /// Serial number.
    pub serial: u64,
    /// Issuer's signature over the digest of the other fields.
    pub signature: u64,
}

impl Certificate {
    /// Digest over the signed fields.
    pub fn digest(subject: &str, issuer: &str, public_key: u64, serial: u64) -> u64 {
        let mut buf = Vec::with_capacity(subject.len() + issuer.len() + 16);
        buf.extend_from_slice(subject.as_bytes());
        buf.push(0);
        buf.extend_from_slice(issuer.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&public_key.to_be_bytes());
        buf.extend_from_slice(&serial.to_be_bytes());
        fnv64(&buf)
    }

    /// Whether this certificate's subject covers `hostname`.
    pub fn matches(&self, hostname: &str) -> bool {
        if let Some(suffix) = self.subject.strip_prefix("*.") {
            match hostname.split_once('.') {
                Some((label, rest)) => !label.is_empty() && rest == suffix,
                None => false,
            }
        } else {
            self.subject == hostname
        }
    }

    /// True if `issuer_public` validly signed this certificate.
    pub fn verify_with(&self, issuer_public: u64) -> bool {
        verify(
            issuer_public,
            Certificate::digest(&self.subject, &self.issuer, self.public_key, self.serial),
            self.signature,
        )
    }

    /// Serializes for the handshake wire (u64s as hex strings so JSON
    /// integers never overflow).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("subject", Json::str(&self.subject)),
            ("issuer", Json::str(&self.issuer)),
            ("public_key", Json::str(format!("{:016x}", self.public_key))),
            ("serial", Json::str(format!("{:016x}", self.serial))),
            ("signature", Json::str(format!("{:016x}", self.signature))),
        ])
    }

    /// Parses the handshake-wire form.
    pub fn from_json(v: &Json) -> Result<Certificate> {
        let field = |k: &str| -> Result<String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| Error::Decode(format!("certificate missing {k}")))
        };
        let hex = |k: &str| -> Result<u64> {
            u64::from_str_radix(&field(k)?, 16)
                .map_err(|_| Error::Decode(format!("certificate bad hex in {k}")))
        };
        Ok(Certificate {
            subject: field("subject")?,
            issuer: field("issuer")?,
            public_key: hex("public_key")?,
            serial: hex("serial")?,
            signature: hex("signature")?,
        })
    }
}

/// A certificate authority: a named key pair that issues certificates.
#[derive(Debug, Clone)]
pub struct CertAuthority {
    /// CA name (becomes the issuer of issued certs).
    pub name: String,
    keys: KeyPair,
    next_serial: u64,
}

impl CertAuthority {
    /// Creates a CA from a seed point.
    pub fn new(name: impl Into<String>, seed: SeedFork) -> CertAuthority {
        CertAuthority {
            name: name.into(),
            keys: KeyPair::generate(seed),
            next_serial: 1,
        }
    }

    /// The CA's public key (what trust stores pin).
    pub fn public(&self) -> u64 {
        self.keys.public
    }

    /// The CA's self-signed root certificate.
    pub fn root_cert(&self) -> Certificate {
        let digest = Certificate::digest(&self.name, &self.name, self.keys.public, 0);
        Certificate {
            subject: self.name.clone(),
            issuer: self.name.clone(),
            public_key: self.keys.public,
            serial: 0,
            signature: self.keys.sign(digest),
        }
    }

    /// Issues a leaf certificate binding `subject` to `subject_public`.
    pub fn issue(&mut self, subject: impl Into<String>, subject_public: u64) -> Certificate {
        let subject = subject.into();
        let serial = self.next_serial;
        self.next_serial += 1;
        let digest = Certificate::digest(&subject, &self.name, subject_public, serial);
        Certificate {
            subject,
            issuer: self.name.clone(),
            public_key: subject_public,
            serial,
            signature: self.keys.sign(digest),
        }
    }
}

/// A set of trusted root CAs, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct TrustStore {
    roots: Vec<Certificate>,
}

impl TrustStore {
    /// Empty store (trusts nothing).
    pub fn new() -> TrustStore {
        TrustStore::default()
    }

    /// Installs a root certificate — the §4.1 move ("installing a
    /// self-signed certificate on the Android phone").
    pub fn install_root(&mut self, root: Certificate) {
        self.roots.push(root);
    }

    /// Number of installed roots.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when no roots are installed.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Finds a trusted root by issuer name.
    pub fn root_named(&self, name: &str) -> Option<&Certificate> {
        self.roots.iter().find(|r| r.subject == name)
    }

    /// Validates a leaf-first chain for `hostname`.
    ///
    /// Checks, in order: non-empty chain; leaf subject matches the
    /// hostname; every link is signed by the next cert's key; the last
    /// cert's issuer is an installed root and the signature verifies
    /// against the *stored* root key (so a same-named impostor root
    /// fails). Returns the leaf public key for pinning checks and key
    /// agreement.
    pub fn verify_chain(&self, chain: &[Certificate], hostname: &str) -> Result<u64> {
        let leaf = chain
            .first()
            .ok_or_else(|| Error::Decode("empty certificate chain".into()))?;
        if !leaf.matches(hostname) {
            return Err(Error::Denied(format!(
                "certificate subject {:?} does not match {hostname:?}",
                leaf.subject
            )));
        }
        for pair in chain.windows(2) {
            let (child, parent) = (&pair[0], &pair[1]);
            if child.issuer != parent.subject || !child.verify_with(parent.public_key) {
                return Err(Error::Denied(format!(
                    "broken chain link {:?} -> {:?}",
                    child.subject, parent.subject
                )));
            }
        }
        let last = chain.last().expect("non-empty");
        let root = self
            .root_named(&last.issuer)
            .ok_or_else(|| Error::Denied(format!("untrusted issuer {:?}", last.issuer)))?;
        if !last.verify_with(root.public_key) {
            return Err(Error::Denied(format!(
                "signature by {:?} does not verify against installed root",
                last.issuer
            )));
        }
        Ok(leaf.public_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ca(name: &str, salt: u64) -> CertAuthority {
        CertAuthority::new(name, SeedFork::new(salt).fork(name))
    }

    #[test]
    fn issue_and_verify_chain() {
        let mut root = ca("iiscope Root CA", 1);
        let server_keys = KeyPair::generate(SeedFork::new(2));
        let leaf = root.issue("wall.fyber.iiscope", server_keys.public);

        let mut store = TrustStore::new();
        store.install_root(root.root_cert());
        let key = store
            .verify_chain(std::slice::from_ref(&leaf), "wall.fyber.iiscope")
            .unwrap();
        assert_eq!(key, server_keys.public);
    }

    #[test]
    fn hostname_mismatch_rejected() {
        let mut root = ca("Root", 1);
        let leaf = root.issue("a.example", KeyPair::generate(SeedFork::new(2)).public);
        let mut store = TrustStore::new();
        store.install_root(root.root_cert());
        let err = store.verify_chain(&[leaf], "b.example").unwrap_err();
        assert_eq!(err.kind(), "denied");
    }

    #[test]
    fn wildcard_matching() {
        let mut root = ca("Root", 1);
        let leaf = root.issue("*.fyber.iiscope", 42);
        assert!(leaf.matches("wall.fyber.iiscope"));
        assert!(leaf.matches("api.fyber.iiscope"));
        assert!(!leaf.matches("fyber.iiscope"));
        assert!(!leaf.matches("a.b.fyber.iiscope"));
        assert!(!leaf.matches(".fyber.iiscope"));
    }

    #[test]
    fn untrusted_root_rejected() {
        let mut evil = ca("Evil CA", 66);
        let leaf = evil.issue("play.iiscope", 7);
        let store = TrustStore::new();
        assert!(store.verify_chain(&[leaf], "play.iiscope").is_err());
    }

    #[test]
    fn impostor_root_with_same_name_rejected() {
        let genuine = ca("Root", 1);
        let mut impostor = ca("Root", 999); // same name, different keys
        let leaf = impostor.issue("play.iiscope", 7);
        let mut store = TrustStore::new();
        store.install_root(genuine.root_cert());
        let err = store.verify_chain(&[leaf], "play.iiscope").unwrap_err();
        assert_eq!(err.kind(), "denied");
    }

    #[test]
    fn tampered_certificate_fails_verification() {
        let mut root = ca("Root", 1);
        let mut leaf = root.issue("play.iiscope", 7);
        leaf.public_key ^= 1; // swap in a different key
        let mut store = TrustStore::new();
        store.install_root(root.root_cert());
        assert!(store.verify_chain(&[leaf], "play.iiscope").is_err());
    }

    #[test]
    fn intermediate_chain_verifies() {
        let mut root = ca("Root", 1);
        let inter_keys = KeyPair::generate(SeedFork::new(5));
        // Build the intermediate's cert signed by the root.
        let inter_cert = root.issue("Intermediate CA", inter_keys.public);
        // Intermediate signs the leaf.
        let leaf_keys = KeyPair::generate(SeedFork::new(6));
        let digest = Certificate::digest("site.example", "Intermediate CA", leaf_keys.public, 77);
        let leaf = Certificate {
            subject: "site.example".into(),
            issuer: "Intermediate CA".into(),
            public_key: leaf_keys.public,
            serial: 77,
            signature: inter_keys.sign(digest),
        };
        let mut store = TrustStore::new();
        store.install_root(root.root_cert());
        let key = store
            .verify_chain(&[leaf, inter_cert], "site.example")
            .unwrap();
        assert_eq!(key, leaf_keys.public);
    }

    #[test]
    fn json_round_trip() {
        let mut root = ca("Root", 1);
        let leaf = root.issue("x.example", u64::MAX - 3); // exercise > i64::MAX
        let j = leaf.to_json();
        assert_eq!(Certificate::from_json(&j).unwrap(), leaf);
        assert!(Certificate::from_json(&Json::obj([("subject", Json::str("x"))])).is_err());
    }

    #[test]
    fn serials_increment() {
        let mut root = ca("Root", 1);
        let a = root.issue("a.example", 1);
        let b = root.issue("b.example", 1);
        assert_ne!(a.serial, b.serial);
    }

    #[test]
    fn empty_chain_rejected() {
        let store = TrustStore::new();
        assert!(store.verify_chain(&[], "x").is_err());
    }
}
