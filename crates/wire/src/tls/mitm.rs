//! The interception proxy — this repo's `mitmproxy`.
//!
//! Figure 3 of the paper: the Android phone's traffic is routed through
//! a proxy server that terminates TLS using a certificate the
//! researchers installed on the phone, re-encrypts toward the real
//! offer-wall servers, and exposes the decrypted HTTP exchange to the
//! parsing pipeline. Mechanically:
//!
//! * the proxy is a [`SessionFactory`]: every device connection gets a
//!   [`TlsServerSession`] whose [`IdentityProvider`] *forges* a leaf
//!   certificate for whatever SNI the client requested, signed by the
//!   monitor's own CA;
//! * a device that installed the monitor CA in its trust store
//!   completes the handshake; a device that *pins* the real service key
//!   fails it (the paper: "none of the offer walls uses certificate
//!   pinning" — the ablation bench flips this);
//! * decrypted request/response bodies are appended to the shared
//!   [`InterceptLog`], which is what the §4.1 parsers consume;
//! * upstream, the proxy is an ordinary TLS client that validates the
//!   genuine chain.

use super::cert::{CertAuthority, KeyPair, TrustStore};
use super::session::{IdentityProvider, PlainService, ServerIdentity, TlsClient, TlsServerSession};
use bytes::Bytes;
#[cfg(test)]
use iiscope_netsim::HostAddr;
use iiscope_netsim::{Direction, Network, PeerInfo, Session, SessionFactory, WeakNetwork};
use iiscope_types::{SeedFork, SimTime};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One decrypted message observed by the proxy.
#[derive(Debug, Clone)]
pub struct Intercept {
    /// When the plaintext crossed the proxy.
    pub at: SimTime,
    /// The SNI the device asked for (i.e. which service this is).
    pub sni: String,
    /// Direction relative to the device.
    pub dir: Direction,
    /// Decrypted bytes (HTTP on every service in this world). A
    /// refcounted view of the record layer's decrypt buffer — logging
    /// an exchange does not copy it.
    pub plaintext: Bytes,
}

/// Shared, append-only log of decrypted traffic.
#[derive(Debug, Clone, Default)]
pub struct InterceptLog {
    inner: Arc<Mutex<Vec<Intercept>>>,
}

thread_local! {
    /// Active [`InterceptLog::tap_scope`] on this thread: the tapped
    /// log's identity plus the private capture buffer.
    static TAP: std::cell::RefCell<Option<(usize, Vec<Intercept>)>> =
        const { std::cell::RefCell::new(None) };
}

/// Clears the thread-local tap if `tap_scope`'s closure unwinds, so a
/// caught panic can't leave a stale tap on a reused thread.
struct TapGuard;

impl Drop for TapGuard {
    fn drop(&mut self) {
        TAP.with(|t| t.borrow_mut().take());
    }
}

impl InterceptLog {
    /// Creates an empty log.
    pub fn new() -> InterceptLog {
        InterceptLog::default()
    }

    /// Identity of the shared buffer, for tap matching.
    fn key(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Appends one intercept. Diverted into the thread-local tap
    /// buffer instead when this thread is inside a [`tap_scope`] on
    /// this log.
    ///
    /// [`tap_scope`]: InterceptLog::tap_scope
    pub fn push(&self, i: Intercept) {
        let passed_through = TAP.with(|t| {
            let mut t = t.borrow_mut();
            match t.as_mut() {
                Some((key, buf)) if *key == self.key() => {
                    buf.push(i);
                    None
                }
                _ => Some(i),
            }
        });
        if let Some(i) = passed_through {
            self.inner.lock().push(i);
        }
    }

    /// Runs `f` with a tap installed on this thread: every intercept
    /// the thread pushes to *this* log during `f` lands in a private
    /// buffer (returned alongside `f`'s result) instead of the shared
    /// log. The whole netsim stack is synchronous — a proxy session
    /// runs on the thread of the client that dialed it — so a tap
    /// captures exactly the traffic caused by `f`, which is what lets
    /// concurrent milking jobs keep their intercepts apart without
    /// observing each other through the shared log.
    ///
    /// Taps do not nest (on the same thread), and pushes to *other*
    /// logs pass through untouched.
    pub fn tap_scope<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<Intercept>) {
        TAP.with(|t| {
            let prev = t.borrow_mut().replace((self.key(), Vec::new()));
            assert!(prev.is_none(), "nested InterceptLog::tap_scope");
        });
        let guard = TapGuard;
        let out = f();
        std::mem::forget(guard);
        let captured = TAP
            .with(|t| t.borrow_mut().take())
            .map(|(_, buf)| buf)
            .unwrap_or_default();
        (out, captured)
    }

    /// Number of intercepts.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing was intercepted.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Snapshot of everything.
    pub fn snapshot(&self) -> Vec<Intercept> {
        self.inner.lock().clone()
    }

    /// Server→device plaintext bodies for one SNI — the offer-wall
    /// responses the parsers want.
    pub fn responses_for(&self, sni: &str) -> Vec<Bytes> {
        self.inner
            .lock()
            .iter()
            .filter(|i| i.sni == sni && i.dir == Direction::ToClient)
            .map(|i| i.plaintext.clone())
            .collect()
    }

    /// Clears the log.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Takes every intercept, leaving the log empty — the pipeline's
    /// consume-as-you-parse mode, which keeps long milking runs from
    /// accumulating every page body in memory.
    pub fn take_all(&self) -> Vec<Intercept> {
        std::mem::take(&mut *self.inner.lock())
    }
}

/// Identity provider that forges a certificate for any SNI, signed by
/// the monitor CA.
struct ForgingProvider {
    ca: Mutex<CertAuthority>,
    seed: SeedFork,
}

impl IdentityProvider for ForgingProvider {
    fn identity_for(&self, sni: &str) -> Option<ServerIdentity> {
        let keys = KeyPair::generate(self.seed.fork("forged-leaf").fork(sni));
        let leaf = self.ca.lock().issue(sni, keys.public);
        Some(ServerIdentity {
            chain: vec![leaf],
            keys,
        })
    }
}

/// Per-connection plaintext forwarder: device-side plaintext in,
/// upstream TLS request out, response plaintext back.
struct Forwarder {
    net: WeakNetwork,
    upstream_roots: TrustStore,
    upstream_port: u16,
    log: InterceptLog,
    sni: Option<String>,
    upstream: Option<TlsClient>,
    rng: rand::rngs::StdRng,
    /// Upstream re-dials this forwarder has made, indexing the dial's
    /// link seed off the device connection's lineage.
    dial_seq: u64,
}

impl PlainService for Forwarder {
    fn on_handshake(&mut self, sni: &str) {
        self.sni = Some(sni.to_string());
    }

    fn on_data(&mut self, data: Bytes, peer: PeerInfo, now: SimTime) -> Bytes {
        let sni = match &self.sni {
            Some(s) => s.clone(),
            None => return Bytes::new(),
        };
        if data.is_empty() {
            return Bytes::new();
        }
        self.log.push(Intercept {
            at: now,
            sni: sni.clone(),
            dir: Direction::ToServer,
            plaintext: data.clone(),
        });
        // Lazily dial upstream on first use — *as the client*: the
        // proxy is transparent w.r.t. egress (mitmproxy runs beside
        // the phone; the VPN vantage address is what services see),
        // which keeps geo-targeted offers visible per vantage point.
        // The dial's link seed forks off the device connection's
        // lineage, so the upstream fault stream is a pure function of
        // the originating client — not of global connection order.
        if self.upstream.is_none() {
            let link = peer.link.fork_idx("mitm-upstream", self.dial_seq);
            self.dial_seq += 1;
            let Some(net) = self.net.upgrade() else {
                return Bytes::new(); // the network is gone: stall
            };
            let conn = match net.connect_host_seeded(peer.addr, &sni, self.upstream_port, link) {
                Ok(c) => c,
                Err(_) => return Bytes::new(), // upstream unreachable: stall
            };
            match TlsClient::connect(conn, &sni, &self.upstream_roots, None, &mut self.rng) {
                Ok(tls) => self.upstream = Some(tls),
                Err(_) => return Bytes::new(),
            }
        }
        let reply = match self.upstream.as_mut().expect("just set").request(&data) {
            Ok(r) => r,
            Err(_) => {
                // Upstream died mid-session; force a re-dial next turn.
                self.upstream = None;
                return Bytes::new();
            }
        };
        self.log.push(Intercept {
            at: now,
            sni,
            dir: Direction::ToClient,
            plaintext: reply.clone(),
        });
        reply
    }
}

/// The interception proxy service. Bind it on the network and point
/// device HTTP clients at it (see `HttpClient::via_proxy`).
pub struct MitmProxy {
    provider: Arc<dyn IdentityProvider>,
    /// Weak: the network owns the proxy once it is bound.
    net: WeakNetwork,
    upstream_roots: TrustStore,
    upstream_port: u16,
    log: InterceptLog,
    seed: SeedFork,
    counter: AtomicU64,
    root_cert: super::cert::Certificate,
}

impl MitmProxy {
    /// Creates a proxy with its own forging CA.
    ///
    /// * `net` — the network used for upstream dials. The proxy keeps
    ///   only a [`WeakNetwork`] to it, so binding the proxy on that
    ///   network makes no reference cycle.
    /// * `upstream_roots` — genuine roots for validating real services.
    pub fn new(
        net: Network,
        upstream_roots: TrustStore,
        upstream_port: u16,
        seed: SeedFork,
    ) -> MitmProxy {
        let ca = CertAuthority::new("iiscope Monitor CA", seed.fork("mitm-ca"));
        let root_cert = ca.root_cert();
        MitmProxy {
            provider: Arc::new(ForgingProvider {
                ca: Mutex::new(ca),
                seed: seed.fork("forge"),
            }),
            net: net.downgrade(),
            upstream_roots,
            upstream_port,
            log: InterceptLog::new(),
            seed: seed.fork("sessions"),
            counter: AtomicU64::new(0),
            root_cert,
        }
    }

    /// The CA certificate to install on monitored devices — the §4.1
    /// "self-signed certificate".
    pub fn root_cert(&self) -> super::cert::Certificate {
        self.root_cert.clone()
    }

    /// The decrypted-traffic log consumed by the parsers.
    pub fn intercepts(&self) -> InterceptLog {
        self.log.clone()
    }
}

impl SessionFactory for MitmProxy {
    fn open(&self, _peer: PeerInfo) -> Box<dyn Session> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let forwarder = Forwarder {
            net: self.net.clone(),
            upstream_roots: self.upstream_roots.clone(),
            upstream_port: self.upstream_port,
            log: self.log.clone(),
            sni: None,
            upstream: None,
            rng: self.seed.fork_idx("fwd-rng", n).rng(),
            dial_seq: 0,
        };
        Box::new(TlsServerSession::new(
            Arc::clone(&self.provider),
            Box::new(forwarder),
            self.seed.fork_idx("salt", n).seed(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tls::session::FixedIdentity;
    use iiscope_netsim::{AsnId, AsnKind};
    use iiscope_types::Country;
    use std::net::Ipv4Addr;

    struct UpperPlain;
    impl PlainService for UpperPlain {
        fn on_data(&mut self, data: Bytes, _p: PeerInfo, _n: SimTime) -> Bytes {
            data.to_ascii_uppercase().into()
        }
    }

    struct Setup {
        net: Network,
        device: HostAddr,
        proxy_ip: Ipv4Addr,
        device_roots_with_mitm: TrustStore,
        genuine_roots: TrustStore,
        real_server_key: u64,
        proxy_log: InterceptLog,
    }

    fn setup() -> Setup {
        let seed = SeedFork::new(2024);
        let net = Network::new(seed.fork("net"));

        // Genuine PKI + a real upstream service at wall.fyber.iiscope.
        let mut public_ca = CertAuthority::new("iiscope Public CA", seed.fork("public-ca"));
        let identity = ServerIdentity::issue(&mut public_ca, "wall.fyber.iiscope", seed.fork("id"));
        let real_server_key = identity.keys.public;
        let mut genuine_roots = TrustStore::new();
        genuine_roots.install_root(public_ca.root_cert());

        let wall_ip = Ipv4Addr::new(10, 2, 0, 1);
        struct UpperFactory {
            provider: Arc<dyn IdentityProvider>,
            seed: SeedFork,
            n: AtomicU64,
        }
        impl SessionFactory for UpperFactory {
            fn open(&self, _peer: PeerInfo) -> Box<dyn Session> {
                let i = self.n.fetch_add(1, Ordering::Relaxed);
                Box::new(TlsServerSession::new(
                    Arc::clone(&self.provider),
                    Box::new(UpperPlain),
                    self.seed.fork_idx("s", i).seed(),
                ))
            }
        }
        net.bind(
            wall_ip,
            443,
            Arc::new(UpperFactory {
                provider: Arc::new(FixedIdentity(identity)),
                seed: seed.fork("wall-sessions"),
                n: AtomicU64::new(0),
            }),
        )
        .unwrap();
        net.register_host("wall.fyber.iiscope", wall_ip);

        // The MITM proxy.
        let proxy_ip = Ipv4Addr::new(10, 3, 0, 1);
        let proxy = MitmProxy::new(net.clone(), genuine_roots.clone(), 443, seed.fork("mitm"));
        let proxy_log = proxy.intercepts();
        let mitm_root = proxy.root_cert();
        net.bind(proxy_ip, 3128, Arc::new(proxy)).unwrap();

        // The monitored device trusts genuine roots AND the monitor CA.
        let mut device_roots_with_mitm = genuine_roots.clone();
        device_roots_with_mitm.install_root(mitm_root);

        let device = HostAddr {
            ip: Ipv4Addr::new(172, 20, 0, 2),
            asn: AsnId(7922),
            asn_kind: AsnKind::Eyeball,
            country: Country::Us,
        };
        Setup {
            net,
            device,
            proxy_ip,
            device_roots_with_mitm,
            genuine_roots,
            real_server_key,
            proxy_log,
        }
    }

    #[test]
    fn proxied_request_is_decrypted_and_forwarded() {
        let s = setup();
        let conn = s.net.connect(s.device, s.proxy_ip, 3128).unwrap();
        let mut rng = SeedFork::new(1).rng();
        let mut tls = TlsClient::connect(
            conn,
            "wall.fyber.iiscope",
            &s.device_roots_with_mitm,
            None,
            &mut rng,
        )
        .unwrap();
        assert_eq!(tls.request(b"offers please").unwrap(), b"OFFERS PLEASE");

        let log = s.proxy_log.snapshot();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].dir, Direction::ToServer);
        assert_eq!(log[0].plaintext, b"offers please");
        assert_eq!(log[1].dir, Direction::ToClient);
        assert_eq!(log[1].plaintext, b"OFFERS PLEASE");
        assert_eq!(log[0].sni, "wall.fyber.iiscope");
    }

    #[test]
    fn device_without_mitm_root_refuses_proxy() {
        let s = setup();
        let conn = s.net.connect(s.device, s.proxy_ip, 3128).unwrap();
        let mut rng = SeedFork::new(2).rng();
        // Device only trusts genuine roots → forged chain is rejected.
        let err = TlsClient::connect(conn, "wall.fyber.iiscope", &s.genuine_roots, None, &mut rng)
            .unwrap_err();
        assert_eq!(err.kind(), "denied");
        assert!(s.proxy_log.is_empty());
    }

    #[test]
    fn pinned_client_defeats_interception() {
        let s = setup();
        let conn = s.net.connect(s.device, s.proxy_ip, 3128).unwrap();
        let mut rng = SeedFork::new(3).rng();
        // Even though the device trusts the monitor CA, the pin on the
        // genuine server key fails against the forged leaf.
        let err = TlsClient::connect(
            conn,
            "wall.fyber.iiscope",
            &s.device_roots_with_mitm,
            Some(s.real_server_key),
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "denied");
        assert!(
            s.proxy_log.is_empty(),
            "no plaintext must leak on pin failure"
        );
    }

    #[test]
    fn responses_for_filters_by_sni_and_direction() {
        let s = setup();
        let conn = s.net.connect(s.device, s.proxy_ip, 3128).unwrap();
        let mut rng = SeedFork::new(4).rng();
        let mut tls = TlsClient::connect(
            conn,
            "wall.fyber.iiscope",
            &s.device_roots_with_mitm,
            None,
            &mut rng,
        )
        .unwrap();
        tls.request(b"a").unwrap();
        tls.request(b"b").unwrap();
        let responses = s.proxy_log.responses_for("wall.fyber.iiscope");
        assert_eq!(responses, vec![Bytes::from(b"A"), Bytes::from(b"B")]);
        assert!(s.proxy_log.responses_for("other.example").is_empty());
    }

    #[test]
    fn tap_scope_diverts_this_threads_traffic() {
        let s = setup();
        let mut rng = SeedFork::new(6).rng();
        let ((), tapped) = s.proxy_log.tap_scope(|| {
            let conn = s.net.connect(s.device, s.proxy_ip, 3128).unwrap();
            let mut tls = TlsClient::connect(
                conn,
                "wall.fyber.iiscope",
                &s.device_roots_with_mitm,
                None,
                &mut rng,
            )
            .unwrap();
            assert_eq!(tls.request(b"tapped").unwrap(), b"TAPPED");
        });
        assert_eq!(tapped.len(), 2, "request + response captured");
        assert_eq!(tapped[0].plaintext, b"tapped");
        assert_eq!(tapped[1].plaintext, b"TAPPED");
        assert!(
            s.proxy_log.is_empty(),
            "tapped traffic must not reach the shared log"
        );

        // After the scope, traffic flows to the shared log again.
        let conn = s.net.connect(s.device, s.proxy_ip, 3128).unwrap();
        let mut tls = TlsClient::connect(
            conn,
            "wall.fyber.iiscope",
            &s.device_roots_with_mitm,
            None,
            &mut rng,
        )
        .unwrap();
        tls.request(b"shared").unwrap();
        assert_eq!(s.proxy_log.len(), 2);
    }

    #[test]
    fn tap_scope_ignores_other_logs_and_other_threads() {
        let s = setup();
        let other = InterceptLog::new();
        let ((), tapped) = other.tap_scope(|| {
            // Pushes to a *different* log pass through untouched.
            s.proxy_log.push(Intercept {
                at: SimTime::EPOCH,
                sni: "x".into(),
                dir: Direction::ToServer,
                plaintext: vec![1].into(),
            });
            // A concurrent thread's pushes to the tapped log are not
            // captured by this thread's tap.
            let log = other.clone();
            std::thread::spawn(move || {
                log.push(Intercept {
                    at: SimTime::EPOCH,
                    sni: "y".into(),
                    dir: Direction::ToServer,
                    plaintext: vec![2].into(),
                });
            })
            .join()
            .unwrap();
        });
        assert!(tapped.is_empty());
        assert_eq!(s.proxy_log.len(), 1);
        assert_eq!(other.len(), 1, "other thread's push hit the shared log");
    }

    #[test]
    fn tap_scope_clears_on_unwind() {
        let log = InterceptLog::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            log.tap_scope(|| panic!("boom"));
        }));
        assert!(caught.is_err());
        // The tap is gone: a fresh push reaches the shared log.
        log.push(Intercept {
            at: SimTime::EPOCH,
            sni: "z".into(),
            dir: Direction::ToServer,
            plaintext: vec![3].into(),
        });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn unknown_upstream_host_stalls_without_crashing() {
        let s = setup();
        let conn = s.net.connect(s.device, s.proxy_ip, 3128).unwrap();
        let mut rng = SeedFork::new(5).rng();
        let mut tls = TlsClient::connect(
            conn,
            "ghost.iiscope", // resolvable by forging CA, but no DNS entry upstream
            &s.device_roots_with_mitm,
            None,
            &mut rng,
        )
        .unwrap();
        // The proxy forges a cert happily, then fails the upstream dial
        // and returns nothing.
        assert_eq!(tls.request(b"hello").unwrap(), b"");
    }
}
