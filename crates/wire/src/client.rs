//! The blocking HTTP(S) client used by every measurement component:
//! the honey app's telemetry uploader, the Play Store crawler, the
//! offer-wall milkers, and ordinary simulated devices.
//!
//! Features the pipeline needs:
//!
//! * HTTPS with chain validation against the client's trust store;
//! * optional per-host certificate pinning (the ablation knob);
//! * proxy mode — connect every TLS session to a fixed proxy endpoint
//!   while keeping the real hostname as SNI, which is how the monitored
//!   phone's traffic reaches the MITM proxy (§4.1, Figure 3);
//! * a [`RetryPolicy`] governing retries over the fault-injected
//!   substrate: a budget charged once per exchange, optional
//!   exponential backoff with seeded jitter, and a per-exchange
//!   deadline — all error-class-aware (only transport losses retry);
//! * persistent connections (RFC 9112 §9.3) — the last session stays
//!   open for the next request to the same origin, so a scrolled offer
//!   wall pays one handshake per tab, not one per page (DESIGN §17).

use crate::http::{Request, Response};
use crate::tls::{TlsClient, TrustStore};
use crate::url::Url;
use crate::Json;
use iiscope_netsim::{ClientConn, HostAddr, Network, TIMEOUT};
use iiscope_types::{Error, Result, SeedFork, SimDuration};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How an [`HttpClient`] retries a failed exchange.
///
/// The budget is charged **exactly once per exchange attempt**, no
/// matter how many faults fire inside it (a corrupted handshake *and*
/// a dropped reply in one attempt still cost one unit). Backoff time
/// is accounted against the per-exchange deadline and the network's
/// chaos book ([`Network::chaos`]) rather than advancing any clock: the
/// turn-based simulation has no idle waiting, so backoff exists to
/// bound an exchange, not to reschedule it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Number of *re*-attempts after the first (total attempts =
    /// `budget + 1`).
    pub budget: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: SimDuration,
    /// Cap on a single backoff step.
    pub max_backoff: SimDuration,
    /// Multiply each backoff by a seeded uniform factor in `[0.5, 1.5)`
    /// (decorrelates retry storms across clients).
    pub jitter: bool,
    /// Give up once the exchange's accounted time (timeouts + backoff)
    /// reaches this bound, even with budget left.
    pub deadline: Option<SimDuration>,
}

impl RetryPolicy {
    /// Retry immediately up to `budget` times: no backoff, no deadline.
    /// The legacy bare-retry-budget behaviour.
    pub fn immediate(budget: u32) -> RetryPolicy {
        RetryPolicy {
            budget,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter: false,
            deadline: None,
        }
    }

    /// Exponential backoff with seeded jitter and a deadline sized so
    /// the whole exchange stays bounded: 2 s base doubling to a 60 s
    /// cap, giving up after 10 simulated minutes of accounted time.
    pub fn exponential(budget: u32) -> RetryPolicy {
        RetryPolicy {
            budget,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(60),
            jitter: true,
            deadline: Some(SimDuration::from_mins(10)),
        }
    }

    /// Backoff before retry number `retry` (1-based). Draws from `rng`
    /// only when jitter is enabled *and* the step is non-zero, so
    /// zero-backoff policies consume no RNG.
    fn backoff_step(&self, retry: u32, rng: &mut impl Rng) -> SimDuration {
        let base = self.base_backoff.secs();
        if base == 0 {
            return SimDuration::ZERO;
        }
        let exp = base.saturating_mul(1u64 << (retry - 1).min(32));
        let capped = exp.min(self.max_backoff.secs().max(base));
        let secs = if self.jitter {
            let factor: f64 = 0.5 + rng.gen::<f64>();
            (capped as f64 * factor).round() as u64
        } else {
            capped
        };
        SimDuration::from_secs(secs)
    }
}

/// The serializable mutable state of an [`HttpClient`]: everything a
/// client with the same seed and configuration needs to continue its
/// RNG and fault-stream lineage bit-for-bit after a restart. An open
/// session is not part of it: checkpoint only after
/// [`HttpClient::close_idle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientState {
    /// Keystream position of the jitter/TLS RNG.
    pub rng: rand::rngs::RngState,
    /// Next connection index (selects `links.fork_idx("conn", n)`).
    pub conn_seq: u64,
}

/// A reusable HTTP(S) client bound to one simulated host.
pub struct HttpClient {
    net: Network,
    from: HostAddr,
    roots: TrustStore,
    pins: HashMap<String, u64>,
    proxy: Option<(Ipv4Addr, u16)>,
    retry: RetryPolicy,
    rng: StdRng,
    /// Seed lineage for this client's links: connection `n` gets
    /// `links.fork_idx("conn", n)`, making its fault stream a pure
    /// function of the client seed — independent of global connection
    /// order, hence stable across parallel schedules.
    links: SeedFork,
    conn_seq: u64,
    /// The session left open by the last successful exchange.
    idle: Option<Session>,
}

/// The origin a session is bound to: scheme, host and port.
struct Origin {
    tls: bool,
    host: String,
    port: u16,
}

impl Origin {
    fn of(url: &Url) -> Origin {
        Origin {
            tls: url.is_tls(),
            host: url.host.clone(),
            port: url.effective_port(),
        }
    }

    fn serves(&self, url: &Url) -> bool {
        self.tls == url.is_tls() && self.port == url.effective_port() && self.host == url.host
    }
}

/// An open connection to one origin. Dropping it closes it.
struct Session {
    origin: Origin,
    transport: Transport,
}

enum Transport {
    Plain(ClientConn),
    Tls(TlsClient),
}

impl Transport {
    /// Sends one request and returns the reply bytes of the same turn.
    fn exchange(&mut self, wire: &[u8]) -> Result<bytes::Bytes> {
        match self {
            Transport::Plain(conn) => {
                conn.send(wire);
                conn.roundtrip()
            }
            Transport::Tls(tls) => tls.request(wire),
        }
    }
}

impl HttpClient {
    /// Creates a client originating from `from`, trusting `roots`.
    pub fn new(net: Network, from: HostAddr, roots: TrustStore, seed: SeedFork) -> HttpClient {
        HttpClient {
            net,
            from,
            roots,
            pins: HashMap::new(),
            proxy: None,
            retry: RetryPolicy::immediate(2),
            rng: seed.fork("http-client").rng(),
            links: seed.fork("links"),
            conn_seq: 0,
            idle: None,
        }
    }

    /// Routes all HTTPS connections through `(ip, port)` — the MITM
    /// proxy position.
    pub fn via_proxy(mut self, ip: Ipv4Addr, port: u16) -> HttpClient {
        self.proxy = Some((ip, port));
        self
    }

    /// Pins `host` to an expected leaf public key.
    pub fn with_pin(mut self, host: impl Into<String>, key: u64) -> HttpClient {
        self.pins.insert(host.into(), key);
        self
    }

    /// Sets the retry budget for dropped exchanges (immediate retries,
    /// no backoff — shorthand for [`RetryPolicy::immediate`]).
    pub fn with_retries(mut self, retries: u32) -> HttpClient {
        self.retry = RetryPolicy::immediate(retries);
        self
    }

    /// Sets the full retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> HttpClient {
        self.retry = policy;
        self
    }

    /// The network the client dials through (and counts into).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Captures the client's mutable state for checkpointing: the
    /// jitter/TLS RNG position and the connection sequence number
    /// (which indexes the per-connection fault-stream forks). Together
    /// with the constructor seed these fully determine all future
    /// connections, so a restored client continues bit-for-bit.
    pub fn checkpoint(&self) -> ClientState {
        debug_assert!(
            self.idle.is_none(),
            "checkpoint with an open session; call close_idle first"
        );
        ClientState {
            rng: self.rng.state(),
            conn_seq: self.conn_seq,
        }
    }

    /// Restores state captured by [`HttpClient::checkpoint`] onto a
    /// freshly constructed client with the same seed and configuration.
    pub fn restore(&mut self, state: &ClientState) {
        self.rng = StdRng::restore(state.rng);
        self.conn_seq = state.conn_seq;
        self.idle = None;
    }

    /// Closes the session kept open for reuse, if any. The next
    /// request dials fresh.
    pub fn close_idle(&mut self) {
        self.idle = None;
    }

    /// GET `url`.
    pub fn get(&mut self, url: &str) -> Result<Response> {
        let url = Url::parse(url)?;
        let req = Request::get(url.target.clone());
        self.dispatch(req, &url)
    }

    /// POST a JSON body to `url`.
    pub fn post_json(&mut self, url: &str, body: &Json) -> Result<Response> {
        let url = Url::parse(url)?;
        let mut req = Request::post(url.target.clone(), body.to_bytes());
        req.headers.set("Content-Type", "application/json");
        self.dispatch(req, &url)
    }

    /// Sends a prepared request to a parsed URL, governed by the
    /// client's [`RetryPolicy`].
    ///
    /// The first attempt reuses the idle session when it serves the
    /// same origin; any failure closes the session, so a retry always
    /// dials fresh.
    ///
    /// The budget is decremented once per exchange attempt — an
    /// attempt that suffers several faults (say a corrupted request
    /// *and* a dropped reply) still costs a single unit. Between
    /// attempts, backoff time is computed (with seeded jitter) and
    /// charged against the deadline; when the accounted exchange time
    /// passes the deadline the client gives up with budget to spare.
    pub fn dispatch(&mut self, mut req: Request, url: &Url) -> Result<Response> {
        req.headers.set("Host", url.authority());
        let policy = self.retry;
        let mut elapsed = SimDuration::ZERO;
        let mut last_err = Error::Network("no attempt made".into());
        for attempt in 0..=policy.budget {
            if attempt > 0 {
                let chaos = self.net.chaos();
                chaos.add_retries(1);
                let backoff = policy.backoff_step(attempt, &mut self.rng);
                if backoff > SimDuration::ZERO {
                    chaos.add_backoff_secs(backoff.secs());
                    elapsed = elapsed + backoff;
                }
                if let Some(deadline) = policy.deadline {
                    if elapsed >= deadline {
                        chaos.add_deadline_exceeded(1);
                        return Err(last_err);
                    }
                }
            }
            match self.attempt(&req, url) {
                Ok(resp) => return Ok(resp),
                // Only transport-level losses are worth retrying;
                // validation failures (denied) are deterministic.
                Err(e @ Error::Network(_)) => {
                    // A failed exchange costs (at least) the link
                    // timeout of local time; account it toward the
                    // deadline.
                    elapsed = elapsed + TIMEOUT;
                    last_err = e;
                }
                Err(e) => return Err(e),
            }
        }
        self.net.chaos().add_give_ups(1);
        Err(last_err)
    }

    /// Dials a new session to `url`'s origin: a connection (through the
    /// proxy for HTTPS when one is set) plus, for HTTPS, the handshake.
    fn open(&mut self, url: &Url) -> Result<Session> {
        let link = self.links.fork_idx("conn", self.conn_seq);
        self.conn_seq += 1;
        let conn = match (self.proxy, url.is_tls()) {
            (Some((ip, port)), true) => self.net.connect_seeded(self.from, ip, port, link)?,
            _ => self
                .net
                .connect_host_seeded(self.from, &url.host, url.effective_port(), link)?,
        };
        let transport = if url.is_tls() {
            let pin = self.pins.get(&url.host).copied();
            Transport::Tls(TlsClient::connect(
                conn,
                &url.host,
                &self.roots,
                pin,
                &mut self.rng,
            )?)
        } else {
            Transport::Plain(conn)
        };
        Ok(Session {
            origin: Origin::of(url),
            transport,
        })
    }

    /// One exchange over the idle session for `url`'s origin, or a new
    /// one. The session goes back to idle only after a clean exchange:
    /// a whole response, no bytes after it, and no `Connection: close`.
    fn attempt(&mut self, req: &Request, url: &Url) -> Result<Response> {
        let mut session = match self.idle.take() {
            Some(s) if s.origin.serves(url) => s,
            _ => self.open(url)?,
        };
        let reply = session.transport.exchange(&req.encode())?;
        // Zero-copy parse: the response body stays a slice of the
        // reply slab shared with the connection's capture log.
        match Response::parse_bytes(&reply)? {
            Some((resp, consumed)) => {
                let close = resp.headers.get("Connection").is_some_and(|v| {
                    v.split(',')
                        .any(|opt| opt.trim().eq_ignore_ascii_case("close"))
                });
                if consumed == reply.len() && !close {
                    self.idle = Some(session);
                }
                Ok(resp)
            }
            // An empty or partial reply (proxy stall, upstream died) is
            // worth retrying on a fresh connection.
            None => Err(Error::Network("truncated response".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Handler, RequestCtx};
    use crate::server::{HttpFactory, HttpsFactory};
    use crate::tls::{CertAuthority, ServerIdentity};
    use iiscope_netsim::{AsnId, AsnKind, FaultPlan};
    use iiscope_types::{Country, SimDuration};
    use std::sync::Arc;

    fn handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request, _ctx: &RequestCtx| -> Response {
            match req.path() {
                "/hello" => Response::ok_text("world"),
                "/json" => Response::ok_json(&Json::obj([("v", Json::Int(7))])),
                "/reflect" => Response::ok_bytes(req.body.clone(), "application/octet-stream"),
                "/host" => Response::ok_text(req.headers.get("Host").unwrap_or("")),
                _ => Response::not_found(),
            }
        })
    }

    fn client_addr() -> HostAddr {
        HostAddr {
            ip: Ipv4Addr::new(192, 168, 0, 2),
            asn: AsnId(1),
            asn_kind: AsnKind::Eyeball,
            country: Country::Us,
        }
    }

    struct Rig {
        net: Network,
        roots: TrustStore,
        server_key: u64,
    }

    fn rig() -> Rig {
        let seed = SeedFork::new(31);
        let net = Network::new(seed.fork("net"));
        // Plain HTTP on port 80.
        let http_ip = Ipv4Addr::new(10, 0, 1, 1);
        net.bind(http_ip, 80, Arc::new(HttpFactory::new(handler())))
            .unwrap();
        net.register_host("plain.test", http_ip);
        // Plain HTTP on a non-default port of the same host.
        net.bind(http_ip, 8080, Arc::new(HttpFactory::new(handler())))
            .unwrap();
        // HTTPS on 443.
        let mut ca = CertAuthority::new("Root", seed.fork("ca"));
        let identity = ServerIdentity::issue(&mut ca, "secure.test", seed.fork("id"));
        let server_key = identity.keys.public;
        let mut roots = TrustStore::new();
        roots.install_root(ca.root_cert());
        let https_ip = Ipv4Addr::new(10, 0, 1, 2);
        net.bind(
            https_ip,
            443,
            Arc::new(HttpsFactory::new(handler(), identity, seed.fork("https"))),
        )
        .unwrap();
        net.register_host("secure.test", https_ip);
        Rig {
            net,
            roots,
            server_key,
        }
    }

    #[test]
    fn plain_get() {
        let r = rig();
        let mut c = HttpClient::new(r.net, client_addr(), r.roots, SeedFork::new(1));
        let resp = c.get("http://plain.test/hello").unwrap();
        assert_eq!(resp.body_text(), "world");
    }

    #[test]
    fn https_get_and_post() {
        let r = rig();
        let mut c = HttpClient::new(r.net, client_addr(), r.roots, SeedFork::new(2));
        let resp = c.get("https://secure.test/json").unwrap();
        assert_eq!(
            resp.body_json().unwrap().get("v").and_then(Json::as_i64),
            Some(7)
        );
        let resp = c
            .post_json("https://secure.test/reflect", &Json::arr([Json::Int(1)]))
            .unwrap();
        assert_eq!(resp.body_text(), "[1]");
    }

    #[test]
    fn retries_survive_moderate_loss() {
        let r = rig();
        r.net.set_default_fault(FaultPlan::lossy(0.3, 0.0));
        let mut c = HttpClient::new(r.net.clone(), client_addr(), r.roots, SeedFork::new(3))
            .with_retries(25);
        // With 25 retries at 30% loss/exchange, failure probability is
        // negligible; run several requests to exercise the retry path.
        for _ in 0..10 {
            assert_eq!(
                c.get("http://plain.test/hello").unwrap().body_text(),
                "world"
            );
        }
    }

    #[test]
    fn exhausted_retries_error() {
        let r = rig();
        r.net.set_default_fault(FaultPlan::lossy(1.0, 0.0));
        let mut c = HttpClient::new(r.net.clone(), client_addr(), r.roots, SeedFork::new(4))
            .with_retries(2);
        assert_eq!(
            c.get("http://plain.test/hello").unwrap_err().kind(),
            "network"
        );
    }

    #[test]
    fn pin_mismatch_is_not_retried() {
        let r = rig();
        let mut c = HttpClient::new(r.net.clone(), client_addr(), r.roots, SeedFork::new(5))
            .with_pin("secure.test", r.server_key ^ 1)
            .with_retries(50);
        let err = c.get("https://secure.test/hello").unwrap_err();
        assert_eq!(err.kind(), "denied");
        let correct = HttpClient::new(r.net, client_addr(), rig().roots, SeedFork::new(6))
            .with_pin("secure.test", r.server_key);
        let mut correct = correct;
        assert!(correct.get("https://secure.test/hello").is_ok());
    }

    #[test]
    fn retry_budget_charged_once_per_exchange() {
        // Regression pin for retry accounting: an exchange that
        // suffers multiple faults (here every TLS handshake is
        // corrupted, so the attempt fails after a damaged request AND
        // a useless reply) must decrement the budget exactly once.
        // With a budget of 3 the client opens exactly 4 connections —
        // never 2 or 3 (double-charging), never 5+ (free retries).
        let r = rig();
        r.net.set_default_fault(FaultPlan::lossy(0.0, 1.0));
        let before = r.net.metrics().connections();
        let mut c = HttpClient::new(r.net.clone(), client_addr(), r.roots, SeedFork::new(8))
            .with_retries(3);
        let err = c.get("https://secure.test/json").unwrap_err();
        assert_eq!(err.kind(), "network");
        assert_eq!(r.net.metrics().connections() - before, 4);
    }

    #[test]
    fn corrupted_then_dropped_exchange_charges_once() {
        // Both fault classes fire within single exchanges (corruption
        // on every delivery, half the deliveries dropped): the attempt
        // count still equals budget + 1.
        let r = rig();
        r.net.set_default_fault(FaultPlan::lossy(0.5, 1.0));
        let before = r.net.metrics().connections();
        let mut c = HttpClient::new(r.net.clone(), client_addr(), r.roots, SeedFork::new(9))
            .with_retries(5);
        assert!(c.get("https://secure.test/json").is_err());
        assert_eq!(r.net.metrics().connections() - before, 6);
    }

    #[test]
    fn deadline_gives_up_with_budget_to_spare() {
        let r = rig();
        r.net.set_default_fault(FaultPlan::lossy(1.0, 0.0));
        let policy = RetryPolicy {
            budget: 500,
            base_backoff: SimDuration::from_secs(60),
            max_backoff: SimDuration::from_secs(60),
            jitter: false,
            deadline: Some(SimDuration::from_secs(300)),
        };
        let before = r.net.metrics().connections();
        let mut c = HttpClient::new(r.net.clone(), client_addr(), r.roots, SeedFork::new(10))
            .with_retry_policy(policy);
        assert!(c.get("http://plain.test/hello").is_err());
        // Each failed attempt accounts TIMEOUT (30 s) plus a 60 s
        // backoff; the 300 s deadline allows exactly 4 attempts.
        assert_eq!(r.net.metrics().connections() - before, 4);
    }

    #[test]
    fn exponential_policy_survives_loss_like_immediate() {
        let r = rig();
        r.net.set_default_fault(FaultPlan::lossy(0.3, 0.0));
        let mut c = HttpClient::new(r.net.clone(), client_addr(), r.roots, SeedFork::new(11))
            .with_retry_policy(RetryPolicy::exponential(25));
        for _ in 0..10 {
            assert_eq!(
                c.get("http://plain.test/hello").unwrap().body_text(),
                "world"
            );
        }
    }

    #[test]
    fn host_header_carries_a_non_default_port() {
        let r = rig();
        let mut c = HttpClient::new(r.net, client_addr(), r.roots, SeedFork::new(12));
        let host = |c: &mut HttpClient, url: &str| c.get(url).unwrap().body_text();
        assert_eq!(
            host(&mut c, "http://plain.test:8080/host"),
            "plain.test:8080"
        );
        assert_eq!(host(&mut c, "http://plain.test/host"), "plain.test");
        assert_eq!(host(&mut c, "http://plain.test:80/host"), "plain.test");
        assert_eq!(host(&mut c, "https://secure.test/host"), "secure.test");
    }

    #[test]
    fn unknown_host_fails() {
        let r = rig();
        let mut c = HttpClient::new(r.net, client_addr(), r.roots, SeedFork::new(7));
        assert!(c.get("http://ghost.test/").is_err());
    }
}
