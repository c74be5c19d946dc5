//! TLS client/server session state machines over netsim connections.
//!
//! Handshake (one round trip, loosely TLS-shaped):
//!
//! ```text
//! client                                server
//!   | -- Handshake{client_hello sni,r_c} -> |
//!   | <- Handshake{server_hello r_s,chain}- |
//!   |   (both derive session key)           |
//!   | == AppData (encrypted, MACed) ======> |
//!   | <============================ AppData |
//! ```
//!
//! The client validates the presented chain against its trust store and
//! (optionally) a pinned leaf key. The server picks its identity by SNI
//! through an [`IdentityProvider`] — a level of indirection that lets
//! the MITM proxy forge a certificate for whatever name the client
//! asked for, which is precisely the §4.1 interception trick.

use super::cert::{mix, Certificate, KeyPair, TrustStore};
use super::record::{concat, open_records, seal_records_into, Record, RecordDecoder, RecordType};
use crate::Json;
use bytes::{Bytes, BytesMut};
use iiscope_netsim::{ClientConn, PeerInfo, ServerIo, Session};
use iiscope_types::{wirestats::WireCounters, Error, Result, SimTime};
use rand::Rng;

/// Derives the shared session key from both randoms and the leaf key.
fn derive_key(client_random: u64, server_random: u64, leaf_public: u64) -> u64 {
    mix(client_random ^ mix(server_random) ^ leaf_public.rotate_left(17))
}

/// Seals `plaintext` into `out` and counts what it framed into `wire`:
/// the records (the `seq` delta) and the plaintext bytes.
fn seal(
    wire: &WireCounters,
    out: &mut BytesMut,
    key: u64,
    seq: &mut u64,
    rtype: RecordType,
    plaintext: &[u8],
) {
    let first = *seq;
    seal_records_into(out, key, seq, rtype, plaintext);
    wire.add_records_sealed(*seq - first);
    wire.add_bytes_sealed(plaintext.len() as u64);
}

/// Counts a record `RecordDecoder::next_record` opened into `wire`.
fn opened(wire: &WireCounters, next: Result<Option<Record>>) -> Result<Option<Record>> {
    if let Ok(Some(_)) = next {
        wire.add_records_opened(1);
    }
    next
}

/// A server's certificate chain plus its private key.
#[derive(Debug, Clone)]
pub struct ServerIdentity {
    /// Leaf-first certificate chain presented in the ServerHello.
    pub chain: Vec<Certificate>,
    /// The leaf key pair.
    pub keys: KeyPair,
}

impl ServerIdentity {
    /// Issues a fresh identity for `hostname` from `ca`.
    pub fn issue(
        ca: &mut super::cert::CertAuthority,
        hostname: &str,
        seed: iiscope_types::SeedFork,
    ) -> ServerIdentity {
        let keys = KeyPair::generate(seed.fork(hostname));
        let leaf = ca.issue(hostname, keys.public);
        ServerIdentity {
            chain: vec![leaf],
            keys,
        }
    }
}

/// Chooses the server identity for an SNI.
pub trait IdentityProvider: Send + Sync {
    /// Returns the identity to present for `sni`, or `None` to refuse
    /// the handshake.
    fn identity_for(&self, sni: &str) -> Option<ServerIdentity>;
}

/// The ordinary provider: one fixed identity, served only when its
/// leaf actually covers the requested name.
#[derive(Debug, Clone)]
pub struct FixedIdentity(pub ServerIdentity);

impl IdentityProvider for FixedIdentity {
    fn identity_for(&self, sni: &str) -> Option<ServerIdentity> {
        self.0
            .chain
            .first()
            .filter(|leaf| leaf.matches(sni))
            .map(|_| self.0.clone())
    }
}

/// The plaintext application layer living inside a TLS session.
pub trait PlainService: Send {
    /// Called once per turn with the decrypted bytes; returns the bytes
    /// to encrypt back. `data` is a shared slab (the record layer's
    /// decrypt buffer) — services and intercept taps alias it freely.
    fn on_data(&mut self, data: Bytes, peer: PeerInfo, now: SimTime) -> Bytes;

    /// Called once when the handshake completes, with the client's SNI.
    fn on_handshake(&mut self, _sni: &str) {}
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// An established client-side TLS session.
pub struct TlsClient {
    conn: ClientConn,
    key: u64,
    send_seq: u64,
    recv_seq: u64,
    /// The leaf certificate the server presented (inspectable by
    /// forensics code).
    pub leaf: Certificate,
}

impl std::fmt::Debug for TlsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsClient")
            .field("leaf", &self.leaf.subject)
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .finish_non_exhaustive()
    }
}

impl TlsClient {
    /// Performs the handshake over `conn` for `sni`.
    ///
    /// `pin` is an optional expected leaf public key: when set, the
    /// connection fails unless the presented leaf key matches —
    /// regardless of chain validity. This models the certificate
    /// pinning whose *absence* made the paper's interception possible.
    pub fn connect(
        mut conn: ClientConn,
        sni: &str,
        roots: &TrustStore,
        pin: Option<u64>,
        rng: &mut impl Rng,
    ) -> Result<TlsClient> {
        let client_random: u64 = rng.gen();
        let hello = Json::obj([
            ("type", Json::str("client_hello")),
            ("sni", Json::str(sni)),
            ("random", Json::str(format!("{client_random:016x}"))),
        ]);
        let mut hs_send = 0u64;
        let mut out = BytesMut::new();
        seal(
            conn.wire(),
            &mut out,
            0,
            &mut hs_send,
            RecordType::Handshake,
            hello.to_string().as_bytes(),
        );
        conn.send(&out);
        let reply = conn.roundtrip()?;

        let mut decoder = RecordDecoder::new();
        decoder.extend(&reply);
        let mut hs_recv = 0u64;
        let record = opened(conn.wire(), decoder.next_record(0, &mut hs_recv))?
            .ok_or_else(|| Error::Network("truncated server hello".into()))?;
        match record.rtype {
            RecordType::Alert => {
                return Err(Error::Network(format!(
                    "tls alert: {}",
                    String::from_utf8_lossy(&record.plaintext)
                )))
            }
            RecordType::Handshake => {}
            RecordType::AppData => return Err(Error::Network("app data before handshake".into())),
        }
        // Handshake-message damage is transport-level: fail as
        // Network so clients retry over a fresh connection.
        let hello_text = std::str::from_utf8(&record.plaintext)
            .map_err(|_| Error::Network("server hello not utf-8".into()))?;
        let hello_json = Json::parse(hello_text)
            .map_err(|e| Error::Network(format!("server hello unparseable: {e}")))?;
        if hello_json.get("type").and_then(Json::as_str) != Some("server_hello") {
            return Err(Error::Network("expected server_hello".into()));
        }
        let server_random = hello_json
            .get("random")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| Error::Decode("server hello missing random".into()))?;
        let chain: Vec<Certificate> = hello_json
            .get("chain")
            .and_then(Json::as_array)
            .ok_or_else(|| Error::Decode("server hello missing chain".into()))?
            .iter()
            .map(Certificate::from_json)
            .collect::<Result<_>>()?;

        let leaf_public = roots.verify_chain(&chain, sni)?;
        if let Some(expected) = pin {
            if leaf_public != expected {
                return Err(Error::Denied(format!(
                    "certificate pin mismatch for {sni}: got {leaf_public:016x}"
                )));
            }
        }
        Ok(TlsClient {
            conn,
            key: derive_key(client_random, server_random, leaf_public),
            send_seq: 0,
            recv_seq: 0,
            leaf: chain.into_iter().next().expect("verified non-empty"),
        })
    }

    /// Sends application bytes and returns the decrypted reply bytes of
    /// the same turn.
    pub fn request(&mut self, plaintext: &[u8]) -> Result<Bytes> {
        let mut out = BytesMut::new();
        let (wire, key, seq) = (self.conn.wire(), self.key, &mut self.send_seq);
        seal(wire, &mut out, key, seq, RecordType::AppData, plaintext);
        self.conn.send(&out);
        let reply = self.conn.roundtrip()?;
        let first = self.recv_seq;
        let opened = open_records(self.key, &mut self.recv_seq, &reply);
        let (records, wire) = (self.recv_seq - first, self.conn.wire());
        wire.add_records_opened(records);
        // An `Ok` run holds app data only: one record is one part.
        wire.add_record_passthrough((opened.is_ok() && records == 1).into());
        opened
    }

    /// The underlying connection id (for capture correlation).
    pub fn conn_id(&self) -> u64 {
        self.conn.conn_id()
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

enum ServerState {
    Handshaking {
        recv_seq: u64,
        send_seq: u64,
    },
    Established {
        key: u64,
        recv_seq: u64,
        send_seq: u64,
    },
    Dead,
}

/// Server-side TLS session adapting a [`PlainService`] onto a netsim
/// [`Session`].
pub struct TlsServerSession {
    provider: std::sync::Arc<dyn IdentityProvider>,
    service: Box<dyn PlainService>,
    decoder: RecordDecoder,
    state: ServerState,
    session_salt: u64,
}

impl TlsServerSession {
    /// Creates a session awaiting a ClientHello.
    ///
    /// `session_salt` feeds the server random; factories derive it per
    /// connection so randoms differ across sessions yet stay
    /// deterministic for a given world seed.
    pub fn new(
        provider: std::sync::Arc<dyn IdentityProvider>,
        service: Box<dyn PlainService>,
        session_salt: u64,
    ) -> TlsServerSession {
        TlsServerSession {
            provider,
            service,
            decoder: RecordDecoder::new(),
            state: ServerState::Handshaking {
                recv_seq: 0,
                send_seq: 0,
            },
            session_salt,
        }
    }

    fn fatal(&mut self, io: &mut ServerIo<'_>, key: u64, send_seq: &mut u64, reason: &str) {
        seal(
            io.wire(),
            io.outgoing(),
            key,
            send_seq,
            RecordType::Alert,
            reason.as_bytes(),
        );
        self.state = ServerState::Dead;
    }
}

impl Session for TlsServerSession {
    fn on_turn(&mut self, io: &mut ServerIo<'_>) {
        let data = io.recv_all();
        self.decoder.extend(&data);
        // Take the state out so we can mutate self uniformly.
        let state = std::mem::replace(&mut self.state, ServerState::Dead);
        match state {
            ServerState::Dead => { /* connection is dead: ignore input */ }
            ServerState::Handshaking {
                mut recv_seq,
                mut send_seq,
            } => {
                let record = match opened(io.wire(), self.decoder.next_record(0, &mut recv_seq)) {
                    Ok(Some(r)) => r,
                    Ok(None) => {
                        // Wait for more bytes.
                        self.state = ServerState::Handshaking { recv_seq, send_seq };
                        return;
                    }
                    Err(_) => {
                        self.fatal(io, 0, &mut send_seq, "bad_record_mac");
                        return;
                    }
                };
                if record.rtype != RecordType::Handshake {
                    self.fatal(io, 0, &mut send_seq, "unexpected_message");
                    return;
                }
                let hello = match std::str::from_utf8(&record.plaintext)
                    .ok()
                    .and_then(|t| Json::parse(t).ok())
                {
                    Some(h) => h,
                    None => {
                        self.fatal(io, 0, &mut send_seq, "decode_error");
                        return;
                    }
                };
                let sni = hello.get("sni").and_then(Json::as_str).unwrap_or_default();
                let client_random = hello
                    .get("random")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok());
                let (sni, client_random) = match (sni, client_random) {
                    ("", _) | (_, None) => {
                        self.fatal(io, 0, &mut send_seq, "illegal_parameter");
                        return;
                    }
                    (s, Some(r)) => (s.to_string(), r),
                };
                let identity = match self.provider.identity_for(&sni) {
                    Some(id) => id,
                    None => {
                        self.fatal(io, 0, &mut send_seq, "unrecognized_name");
                        return;
                    }
                };
                let server_random = mix(self.session_salt ^ client_random);
                let reply = Json::obj([
                    ("type", Json::str("server_hello")),
                    ("random", Json::str(format!("{server_random:016x}"))),
                    (
                        "chain",
                        Json::arr(identity.chain.iter().map(Certificate::to_json)),
                    ),
                ]);
                seal(
                    io.wire(),
                    io.outgoing(),
                    0,
                    &mut send_seq,
                    RecordType::Handshake,
                    reply.to_string().as_bytes(),
                );
                self.service.on_handshake(&sni);
                let key = derive_key(client_random, server_random, identity.keys.public);
                self.state = ServerState::Established {
                    key,
                    recv_seq: 0,
                    send_seq: 0,
                };
            }
            ServerState::Established {
                key,
                mut recv_seq,
                mut send_seq,
            } => {
                let mut parts: Vec<Bytes> = Vec::new();
                loop {
                    match opened(io.wire(), self.decoder.next_record(key, &mut recv_seq)) {
                        Ok(Some(r)) if r.rtype == RecordType::AppData => {
                            parts.push(r.plaintext);
                        }
                        Ok(Some(_)) => {
                            self.fatal(io, key, &mut send_seq, "unexpected_message");
                            return;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            self.fatal(io, key, &mut send_seq, "bad_record_mac");
                            return;
                        }
                    }
                }
                // Single-record turns — every offer-wall-sized exchange
                // — hand the decrypt buffer straight to the service.
                let wire = io.wire();
                wire.add_record_passthrough((parts.len() == 1).into());
                let reply = self.service.on_data(concat(parts), io.peer(), io.now());
                seal(
                    wire,
                    io.outgoing(),
                    key,
                    &mut send_seq,
                    RecordType::AppData,
                    &reply,
                );
                self.state = ServerState::Established {
                    key,
                    recv_seq,
                    send_seq,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tls::cert::CertAuthority;
    use iiscope_netsim::{AsnId, AsnKind, FaultPlan, HostAddr, Network, PeerInfo, SessionFactory};
    use iiscope_types::{Country, SeedFork};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    /// Plain echo service for tests.
    struct EchoPlain;
    impl PlainService for EchoPlain {
        fn on_data(&mut self, data: Bytes, _peer: PeerInfo, _now: SimTime) -> Bytes {
            let mut out = b"tls-echo:".to_vec();
            out.extend_from_slice(&data);
            out.into()
        }
    }

    struct EchoFactory {
        provider: Arc<dyn IdentityProvider>,
        seed: SeedFork,
        counter: std::sync::atomic::AtomicU64,
    }

    impl SessionFactory for EchoFactory {
        fn open(&self, _peer: PeerInfo) -> Box<dyn Session> {
            let n = self
                .counter
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Box::new(TlsServerSession::new(
                Arc::clone(&self.provider),
                Box::new(EchoPlain),
                self.seed.fork_idx("session", n).seed(),
            ))
        }
    }

    struct World {
        net: Network,
        roots: TrustStore,
        server_key: u64,
        client: HostAddr,
        ip: Ipv4Addr,
    }

    fn world() -> World {
        let seed = SeedFork::new(99);
        let net = Network::new(seed.fork("net"));
        let mut ca = CertAuthority::new("iiscope Root CA", seed.fork("ca"));
        let identity = ServerIdentity::issue(&mut ca, "wall.fyber.iiscope", seed.fork("id"));
        let server_key = identity.keys.public;
        let mut roots = TrustStore::new();
        roots.install_root(ca.root_cert());
        let ip = Ipv4Addr::new(10, 1, 1, 1);
        net.bind(
            ip,
            443,
            Arc::new(EchoFactory {
                provider: Arc::new(FixedIdentity(identity)),
                seed: seed.fork("sessions"),
                counter: Default::default(),
            }),
        )
        .unwrap();
        net.register_host("wall.fyber.iiscope", ip);
        let client = HostAddr {
            ip: Ipv4Addr::new(172, 16, 0, 9),
            asn: AsnId(1),
            asn_kind: AsnKind::Eyeball,
            country: Country::Us,
        };
        World {
            net,
            roots,
            server_key,
            client,
            ip,
        }
    }

    #[test]
    fn handshake_and_echo() {
        let w = world();
        let conn = w.net.connect(w.client, w.ip, 443).unwrap();
        let mut rng = SeedFork::new(1).rng();
        let mut tls =
            TlsClient::connect(conn, "wall.fyber.iiscope", &w.roots, None, &mut rng).unwrap();
        assert_eq!(tls.request(b"offers").unwrap(), b"tls-echo:offers");
        assert_eq!(tls.request(b"again").unwrap(), b"tls-echo:again");
    }

    #[test]
    fn untrusted_client_rejects_chain() {
        let w = world();
        let conn = w.net.connect(w.client, w.ip, 443).unwrap();
        let mut rng = SeedFork::new(2).rng();
        let empty = TrustStore::new();
        let err =
            TlsClient::connect(conn, "wall.fyber.iiscope", &empty, None, &mut rng).unwrap_err();
        assert_eq!(err.kind(), "denied");
    }

    #[test]
    fn sni_mismatch_gets_alert() {
        let w = world();
        let conn = w.net.connect(w.client, w.ip, 443).unwrap();
        let mut rng = SeedFork::new(3).rng();
        let err = TlsClient::connect(conn, "other.example", &w.roots, None, &mut rng).unwrap_err();
        assert_eq!(err.kind(), "network");
        assert!(err.to_string().contains("unrecognized_name"));
    }

    #[test]
    fn correct_pin_passes_wrong_pin_fails() {
        let w = world();
        let mut rng = SeedFork::new(4).rng();
        let conn = w.net.connect(w.client, w.ip, 443).unwrap();
        assert!(TlsClient::connect(
            conn,
            "wall.fyber.iiscope",
            &w.roots,
            Some(w.server_key),
            &mut rng
        )
        .is_ok());
        let conn = w.net.connect(w.client, w.ip, 443).unwrap();
        let err = TlsClient::connect(
            conn,
            "wall.fyber.iiscope",
            &w.roots,
            Some(w.server_key ^ 1),
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "denied");
    }

    #[test]
    fn capture_shows_only_ciphertext() {
        let w = world();
        let conn = w.net.connect(w.client, w.ip, 443).unwrap();
        let mut rng = SeedFork::new(5).rng();
        let mut tls =
            TlsClient::connect(conn, "wall.fyber.iiscope", &w.roots, None, &mut rng).unwrap();
        tls.request(b"super-secret-offer-wall-body").unwrap();
        let leaked = w
            .net
            .capture()
            .snapshot()
            .iter()
            .any(|r| r.bytes.windows(12).any(|win| win == b"super-secret"));
        assert!(!leaked, "application plaintext visible in capture");
    }

    #[test]
    fn corruption_on_the_wire_fails_cleanly() {
        let w = world();
        // Corrupt *after* handshake only: set per-service fault now.
        let conn = w.net.connect(w.client, w.ip, 443).unwrap();
        let mut rng = SeedFork::new(6).rng();
        let mut tls =
            TlsClient::connect(conn, "wall.fyber.iiscope", &w.roots, None, &mut rng).unwrap();
        w.net.set_service_fault(
            iiscope_netsim::ServiceBinding {
                ip: w.ip,
                port: 443,
            },
            FaultPlan::lossy(0.0, 1.0),
        );
        // New connections get the faulty plan; existing conn keeps the
        // clean one — verify both behaviours.
        assert!(tls.request(b"ok").is_ok());
        let conn2 = w.net.connect(w.client, w.ip, 443).unwrap();
        let res = TlsClient::connect(conn2, "wall.fyber.iiscope", &w.roots, None, &mut rng);
        // Corrupted handshake must fail (either MAC error or alert).
        assert!(res.is_err());
    }
}
