//! The network: name resolution, service bindings, connection
//! establishment, counter books.
//!
//! One [`Network`] per world. Services (the Play Store frontend, each
//! IIP's offer wall, the honey-app telemetry collector, the monitor's
//! MITM proxy) bind a `(ip, port)`; hostnames resolve to IPs; clients
//! connect with their own [`HostAddr`] so servers observe realistic
//! peer info (the geo/ASN signals that §3.2 and §4.1 rely on).
//!
//! The network owns the world's counter books ([`NetCounters`],
//! [`WireCounters`], [`ChaosCounters`]); every connection carries the
//! last two, so each layer counts into its own world's books.

use crate::addr::HostAddr;
use crate::capture::CaptureLog;
use crate::clock::Clock;
use crate::conn::{ClientConn, PeerInfo, RecvBuf, SessionFactory};
use crate::fault::FaultPlan;
use bytes::BytesMut;
use iiscope_types::{
    chaosstats::ChaosCounters, wirestats::WireCounters, Error, Result, SeedFork, SimDuration,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// A bound service endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceBinding {
    /// Service IP.
    pub ip: Ipv4Addr,
    /// Service port.
    pub port: u16,
}

iiscope_types::counters! {
    /// The network's connection book.
    pub struct NetCounters;
    /// Connections opened.
    connections / add_connections / "connections";
    /// Connection attempts refused (no listener).
    refused / add_refused / "refused";
}

struct Inner {
    clock: Clock,
    capture: CaptureLog,
    seed: SeedFork,
    services: Mutex<HashMap<ServiceBinding, Arc<dyn SessionFactory>>>,
    dns: Mutex<HashMap<String, Ipv4Addr>>,
    default_fault: Mutex<FaultPlan>,
    service_fault: Mutex<HashMap<ServiceBinding, FaultPlan>>,
    next_conn_id: AtomicU64,
    metrics: NetCounters,
    wire: Arc<WireCounters>,
    chaos: Arc<ChaosCounters>,
}

/// Cloneable handle to the world's network.
#[derive(Clone)]
pub struct Network {
    inner: Arc<Inner>,
}

/// A handle to a [`Network`] that does not keep it alive. A service the
/// network owns (the MITM proxy dials upstream through it) holds this,
/// not a [`Network`]: a strong handle would be a reference cycle, and
/// the world would never be freed.
#[derive(Clone)]
pub struct WeakNetwork {
    inner: Weak<Inner>,
}

impl WeakNetwork {
    /// The network, unless every [`Network`] handle has been dropped.
    pub fn upgrade(&self) -> Option<Network> {
        self.inner.upgrade().map(|inner| Network { inner })
    }
}

impl Network {
    /// A handle that does not keep the network alive.
    pub fn downgrade(&self) -> WeakNetwork {
        WeakNetwork {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Creates a network with its own clock, capture log, counter books
    /// and a perfect default link.
    pub fn new(seed: SeedFork) -> Network {
        Network {
            inner: Arc::new(Inner {
                clock: Clock::new(),
                capture: CaptureLog::new(),
                seed,
                services: Mutex::new(HashMap::new()),
                dns: Mutex::new(HashMap::new()),
                default_fault: Mutex::new(FaultPlan::perfect()),
                service_fault: Mutex::new(HashMap::new()),
                next_conn_id: AtomicU64::new(1),
                metrics: NetCounters::new(),
                wire: Arc::new(WireCounters::new()),
                chaos: Arc::new(ChaosCounters::new()),
            }),
        }
    }

    /// The shared world clock.
    pub fn clock(&self) -> Clock {
        self.inner.clock.clone()
    }

    /// The shared capture log.
    pub fn capture(&self) -> CaptureLog {
        self.inner.capture.clone()
    }

    /// The world's wire-path book.
    pub fn wire(&self) -> &WireCounters {
        &self.inner.wire
    }

    /// The world's chaos book.
    pub fn chaos(&self) -> &ChaosCounters {
        &self.inner.chaos
    }

    /// The network's connection book.
    pub fn metrics(&self) -> &NetCounters {
        &self.inner.metrics
    }

    /// Binds a service factory at `(ip, port)`. Rebinding an occupied
    /// endpoint is an error (services never silently shadow each other).
    pub fn bind(
        &self,
        ip: Ipv4Addr,
        port: u16,
        factory: Arc<dyn SessionFactory>,
    ) -> Result<ServiceBinding> {
        let binding = ServiceBinding { ip, port };
        let mut services = self.inner.services.lock();
        if services.contains_key(&binding) {
            return Err(Error::InvalidState(format!("{ip}:{port} already bound")));
        }
        services.insert(binding, factory);
        Ok(binding)
    }

    /// Removes a binding (service shutdown).
    pub fn unbind(&self, binding: ServiceBinding) -> bool {
        self.inner.services.lock().remove(&binding).is_some()
    }

    /// Registers `hostname → ip`. Last registration wins (DNS updates).
    pub fn register_host(&self, hostname: impl Into<String>, ip: Ipv4Addr) {
        self.inner.dns.lock().insert(hostname.into(), ip);
    }

    /// Resolves a hostname.
    pub fn lookup(&self, hostname: &str) -> Result<Ipv4Addr> {
        self.inner
            .dns
            .lock()
            .get(hostname)
            .copied()
            .ok_or_else(|| Error::Network(format!("NXDOMAIN {hostname}")))
    }

    /// Sets the default fault plan applied to new connections.
    pub fn set_default_fault(&self, plan: FaultPlan) {
        *self.inner.default_fault.lock() = plan;
    }

    /// Overrides the fault plan for connections to one service.
    pub fn set_service_fault(&self, binding: ServiceBinding, plan: FaultPlan) {
        self.inner.service_fault.lock().insert(binding, plan);
    }

    /// Connects `client` to `hostname:port` (resolving first).
    pub fn connect_host(&self, client: HostAddr, hostname: &str, port: u16) -> Result<ClientConn> {
        let ip = self.lookup(hostname)?;
        self.connect(client, ip, port)
    }

    /// Like [`Network::connect_host`], but with a caller-supplied link
    /// seed (see [`Network::connect_seeded`]).
    pub fn connect_host_seeded(
        &self,
        client: HostAddr,
        hostname: &str,
        port: u16,
        link: SeedFork,
    ) -> Result<ClientConn> {
        let ip = self.lookup(hostname)?;
        self.connect_seeded(client, ip, port, link)
    }

    /// Connects `client` to `ip:port`, deriving the link's fault RNG
    /// from the global connection counter. Fine for tests and
    /// single-threaded callers; clients that must stay byte-identical
    /// across parallel schedules use [`Network::connect_seeded`].
    pub fn connect(&self, client: HostAddr, ip: Ipv4Addr, port: u16) -> Result<ClientConn> {
        let world = self.inner.seed;
        self.open(client, ip, port, |conn_id| world.fork_idx("conn", conn_id))
    }

    /// Connects `client` to `ip:port` with a caller-supplied link seed.
    ///
    /// The fault RNG (and the link lineage handed to the server via
    /// [`PeerInfo::link`]) derive from `link` alone, so the verdict
    /// sequence a connection experiences is a pure function of the
    /// caller's seed — independent of how many connections other
    /// threads opened first. This is what keeps chaos runs
    /// byte-identical between sequential and parallel schedules.
    pub fn connect_seeded(
        &self,
        client: HostAddr,
        ip: Ipv4Addr,
        port: u16,
        link: SeedFork,
    ) -> Result<ClientConn> {
        self.open(client, ip, port, |_conn_id| link)
    }

    fn open(
        &self,
        client: HostAddr,
        ip: Ipv4Addr,
        port: u16,
        link_for: impl FnOnce(u64) -> SeedFork,
    ) -> Result<ClientConn> {
        let binding = ServiceBinding { ip, port };
        let factory = {
            let services = self.inner.services.lock();
            match services.get(&binding) {
                Some(f) => Arc::clone(f),
                None => {
                    self.inner.metrics.add_refused(1);
                    return Err(Error::Network(format!("connection refused {ip}:{port}")));
                }
            }
        };
        let conn_id = self.inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let link = link_for(conn_id);
        let peer = PeerInfo {
            addr: client,
            opened_at: self.inner.clock.now(),
            link,
        };
        let session = factory.open(peer);
        let fault = self
            .inner
            .service_fault
            .lock()
            .get(&binding)
            .cloned()
            .unwrap_or_else(|| self.inner.default_fault.lock().clone());
        self.inner.metrics.add_connections(1);
        Ok(ClientConn {
            conn_id,
            client_ip: client.ip,
            server_ip: ip,
            port,
            session,
            fault,
            rng: link.rng(),
            clock: self.inner.clock.clone(),
            skew: SimDuration::ZERO,
            capture: self.inner.capture.clone(),
            wire: Arc::clone(&self.inner.wire),
            chaos: Arc::clone(&self.inner.chaos),
            peer,
            out_buf: BytesMut::new(),
            server_residue: RecvBuf::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AsnId, AsnKind};
    use crate::conn::{ServerIo, Session};
    use iiscope_types::Country;

    struct Upper;
    impl Session for Upper {
        fn on_turn(&mut self, io: &mut ServerIo<'_>) {
            let data = io.recv_all();
            io.send(data.to_ascii_uppercase().as_slice());
        }
    }

    fn client() -> HostAddr {
        HostAddr {
            ip: Ipv4Addr::new(172, 16, 0, 5),
            asn: AsnId(64512),
            asn_kind: AsnKind::Eyeball,
            country: Country::De,
        }
    }

    fn upper_factory() -> Arc<dyn SessionFactory> {
        Arc::new(|_peer: PeerInfo| Box::new(Upper) as Box<dyn Session>)
    }

    #[test]
    fn bind_connect_exchange() {
        let net = Network::new(SeedFork::new(1));
        let ip = Ipv4Addr::new(10, 0, 0, 10);
        net.bind(ip, 443, upper_factory()).unwrap();
        net.register_host("api.fyber.com", ip);
        let mut conn = net.connect_host(client(), "api.fyber.com", 443).unwrap();
        conn.send(b"offers");
        assert_eq!(conn.roundtrip().unwrap(), b"OFFERS");
        assert_eq!(net.metrics().connections(), 1);
    }

    #[test]
    fn refused_when_unbound() {
        let net = Network::new(SeedFork::new(1));
        let err = net
            .connect(client(), Ipv4Addr::new(10, 0, 0, 99), 80)
            .unwrap_err();
        assert_eq!(err.kind(), "network");
        assert_eq!(net.metrics().refused(), 1);
    }

    #[test]
    fn nxdomain() {
        let net = Network::new(SeedFork::new(1));
        assert!(net.connect_host(client(), "nope.example", 80).is_err());
    }

    #[test]
    fn double_bind_rejected_and_unbind_frees() {
        let net = Network::new(SeedFork::new(1));
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let b = net.bind(ip, 80, upper_factory()).unwrap();
        assert!(net.bind(ip, 80, upper_factory()).is_err());
        assert!(net.unbind(b));
        assert!(!net.unbind(b));
        net.bind(ip, 80, upper_factory()).unwrap();
    }

    #[test]
    fn per_service_fault_overrides_default() {
        let net = Network::new(SeedFork::new(2));
        let good_ip = Ipv4Addr::new(10, 0, 0, 1);
        let bad_ip = Ipv4Addr::new(10, 0, 0, 2);
        net.bind(good_ip, 80, upper_factory()).unwrap();
        let bad = net.bind(bad_ip, 80, upper_factory()).unwrap();
        net.set_service_fault(bad, FaultPlan::lossy(1.0, 0.0));

        let mut ok = net.connect(client(), good_ip, 80).unwrap();
        ok.send(b"x");
        assert!(ok.roundtrip().is_ok());

        let mut doomed = net.connect(client(), bad_ip, 80).unwrap();
        doomed.send(b"x");
        assert!(doomed.roundtrip().is_err());
    }

    #[test]
    fn connections_are_isolated_sessions() {
        struct Counter(u32);
        impl Session for Counter {
            fn on_turn(&mut self, io: &mut ServerIo<'_>) {
                let _ = io.recv_all();
                self.0 += 1;
                io.send(self.0.to_string().as_bytes());
            }
        }
        let net = Network::new(SeedFork::new(3));
        let ip = Ipv4Addr::new(10, 0, 0, 3);
        net.bind(
            ip,
            80,
            Arc::new(|_p: PeerInfo| Box::new(Counter(0)) as Box<dyn Session>),
        )
        .unwrap();
        let mut a = net.connect(client(), ip, 80).unwrap();
        let mut b = net.connect(client(), ip, 80).unwrap();
        a.send(b".");
        assert_eq!(a.roundtrip().unwrap(), b"1");
        a.send(b".");
        assert_eq!(a.roundtrip().unwrap(), b"2");
        // b has its own session state.
        b.send(b".");
        assert_eq!(b.roundtrip().unwrap(), b"1");
    }

    #[test]
    fn capture_is_shared() {
        let net = Network::new(SeedFork::new(4));
        let ip = Ipv4Addr::new(10, 0, 0, 4);
        net.bind(ip, 8443, upper_factory()).unwrap();
        let mut c = net.connect(client(), ip, 8443).unwrap();
        c.send(b"z");
        c.roundtrip().unwrap();
        assert_eq!(net.capture().for_port(8443).len(), 2);
    }
}
