//! Adapters that turn an [`crate::http::Handler`] into network
//! services — plain HTTP or HTTPS.
//!
//! Every simulated service (Play Store frontend, offer walls, the
//! telemetry collector, attribution postbacks) implements the small
//! [`Handler`] trait; these factories do the transport plumbing.

use crate::http::{
    preencoded_empty, status_for_parse_error, Handler, Request, RequestCtx, Response,
};
use crate::tls::session::{FixedIdentity, PlainService, TlsServerSession};
use crate::tls::ServerIdentity;
use bytes::{Buf, Bytes, BytesMut};
use iiscope_netsim::{PeerInfo, ServerIo, Session, SessionFactory};
use iiscope_types::{SeedFork, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of one socket-path feed: how many responses were encoded
/// onto the output buffer and, when a request failed to parse, the
/// status that poisoned the connection (the caller must flush `out`
/// and then close).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeedReport {
    /// Complete responses encoded by this feed.
    pub responses: u32,
    /// `Some(status)` when the byte stream is poisoned and the
    /// connection must close after flushing; `None` to keep reading.
    pub close: Option<u16>,
}

/// Plaintext HTTP engine shared by the plain and TLS paths: parses
/// complete requests, dispatches to the handler, encodes responses.
///
/// When a delivery starts on a request boundary (the common case — the
/// client sends whole requests per turn), requests are parsed straight
/// out of the shared delivery slab with zero-copy bodies; only a
/// request split across deliveries falls back to the reassembly buffer.
pub struct HttpEngine {
    handler: Arc<dyn Handler>,
    buf: BytesMut,
}

impl HttpEngine {
    /// Creates an engine for `handler`.
    pub fn new(handler: Arc<dyn Handler>) -> HttpEngine {
        HttpEngine {
            handler,
            buf: BytesMut::new(),
        }
    }

    /// Feeds one delivery; encodes responses for every complete request
    /// onto `out`.
    pub fn feed_into(&mut self, data: &Bytes, peer: PeerInfo, now: SimTime, out: &mut BytesMut) {
        let ctx = RequestCtx { peer, now };
        if self.buf.is_empty() {
            // Fast path: request bodies are refcounted slices of
            // `data`; nothing is copied unless a request is incomplete.
            let mut rest = data.clone();
            loop {
                match Request::parse_bytes(&rest) {
                    Ok(Some((req, consumed))) => {
                        rest = rest.slice(consumed..);
                        let resp = self.handler.handle(&req, &ctx);
                        resp.encode_into(out);
                    }
                    Ok(None) => {
                        self.buf.extend_from_slice(&rest);
                        return;
                    }
                    Err(_) => {
                        // Malformed request: answer 400 (pre-encoded)
                        // and drop the buffer (the connection is
                        // poisoned).
                        out.extend_from_slice(preencoded_empty(400).expect("400 is pre-encoded"));
                        self.buf.clear();
                        return;
                    }
                }
            }
        }
        // Reassembly path: a previous delivery left a partial request.
        self.buf.extend_from_slice(data);
        self.drain_buf(&ctx, out, false);
    }

    /// Feeds a byte slice through the engine's own reassembly buffer,
    /// encoding responses onto the caller-owned `out`. This allocates
    /// nothing per call: the reassembly buffer reclaims consumed front space and `out` is
    /// reused by the caller across feeds. Parse errors are classified
    /// for socket clients (431 oversized header block, 413 oversized
    /// body, 400 otherwise); the sim paths keep their uniform 400.
    pub fn feed_slice(
        &mut self,
        data: &[u8],
        peer: PeerInfo,
        now: SimTime,
        out: &mut BytesMut,
    ) -> FeedReport {
        let ctx = RequestCtx { peer, now };
        self.buf.extend_from_slice(data);
        self.drain_buf(&ctx, out, true)
    }

    /// Drains every complete request out of the reassembly buffer.
    /// On a parse error the poisoning status is encoded (classified
    /// only on the socket path so sim byte streams are untouched), the
    /// buffer is dropped, and the report tells the caller to close.
    fn drain_buf(&mut self, ctx: &RequestCtx, out: &mut BytesMut, classify: bool) -> FeedReport {
        let mut report = FeedReport::default();
        loop {
            match Request::parse(&self.buf) {
                Ok(Some((req, consumed))) => {
                    self.buf.advance(consumed);
                    let resp = self.handler.handle(&req, ctx);
                    resp.encode_into(out);
                    report.responses += 1;
                }
                Ok(None) => return report,
                Err(e) => {
                    let status = if classify {
                        status_for_parse_error(&e)
                    } else {
                        400
                    };
                    // The reject statuses (400/413/431) all have
                    // pre-encoded wire images — no per-reject assembly.
                    match preencoded_empty(status) {
                        Some(wire) => out.extend_from_slice(wire),
                        None => Response::status(status).encode_into(out),
                    }
                    self.buf.clear();
                    report.responses += 1;
                    report.close = Some(status);
                    return report;
                }
            }
        }
    }

    /// True when a partial request is sitting in the reassembly buffer
    /// (used by servers to distinguish idle from mid-request stalls).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }
}

impl PlainService for HttpEngine {
    fn on_data(&mut self, data: Bytes, peer: PeerInfo, now: SimTime) -> Bytes {
        let mut out = BytesMut::new();
        self.feed_into(&data, peer, now, &mut out);
        out.freeze()
    }
}

/// Plain-HTTP session (no TLS).
struct PlainHttpSession {
    engine: HttpEngine,
}

impl Session for PlainHttpSession {
    fn on_turn(&mut self, io: &mut ServerIo<'_>) {
        let data = io.recv_all();
        let peer = io.peer();
        let now = io.now();
        self.engine.feed_into(&data, peer, now, io.outgoing());
    }
}

/// Factory for plain-HTTP services.
pub struct HttpFactory {
    handler: Arc<dyn Handler>,
}

impl HttpFactory {
    /// Wraps a handler.
    pub fn new(handler: Arc<dyn Handler>) -> HttpFactory {
        HttpFactory { handler }
    }
}

impl SessionFactory for HttpFactory {
    fn open(&self, _peer: PeerInfo) -> Box<dyn Session> {
        Box::new(PlainHttpSession {
            engine: HttpEngine::new(Arc::clone(&self.handler)),
        })
    }
}

/// Factory for HTTPS services: TLS with a fixed identity wrapping the
/// HTTP engine.
pub struct HttpsFactory {
    handler: Arc<dyn Handler>,
    identity: Arc<FixedIdentity>,
    seed: SeedFork,
    counter: AtomicU64,
}

impl HttpsFactory {
    /// Wraps a handler behind `identity`.
    pub fn new(
        handler: Arc<dyn Handler>,
        identity: ServerIdentity,
        seed: SeedFork,
    ) -> HttpsFactory {
        HttpsFactory {
            handler,
            identity: Arc::new(FixedIdentity(identity)),
            seed,
            counter: AtomicU64::new(0),
        }
    }
}

impl SessionFactory for HttpsFactory {
    fn open(&self, _peer: PeerInfo) -> Box<dyn Session> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        Box::new(TlsServerSession::new(
            self.identity.clone(),
            Box::new(HttpEngine::new(Arc::clone(&self.handler))),
            self.seed.fork_idx("session", n).seed(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;
    use crate::Json;
    use iiscope_netsim::{AsnId, AsnKind, HostAddr, Network};
    use iiscope_types::Country;
    use std::net::Ipv4Addr;

    fn handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request, ctx: &RequestCtx| -> Response {
            match (req.method, req.path()) {
                (Method::Get, "/ping") => Response::ok_text("pong"),
                (Method::Get, "/whoami") => {
                    Response::ok_text(ctx.peer.addr.country.code().to_string())
                }
                (Method::Post, "/echo") => {
                    Response::ok_bytes(req.body.clone(), "application/octet-stream")
                }
                _ => Response::not_found(),
            }
        })
    }

    fn client_addr() -> HostAddr {
        HostAddr {
            ip: Ipv4Addr::new(192, 168, 1, 10),
            asn: AsnId(3320),
            asn_kind: AsnKind::Eyeball,
            country: Country::De,
        }
    }

    #[test]
    fn plain_http_service_works() {
        let net = Network::new(SeedFork::new(1));
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        net.bind(ip, 80, Arc::new(HttpFactory::new(handler())))
            .unwrap();
        let mut conn = net.connect(client_addr(), ip, 80).unwrap();
        conn.send(&Request::get("/ping").encode());
        let reply = conn.roundtrip().unwrap();
        let (resp, _) = Response::parse(&reply).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), "pong");
    }

    #[test]
    fn handler_sees_peer_context() {
        let net = Network::new(SeedFork::new(2));
        let ip = Ipv4Addr::new(10, 0, 0, 2);
        net.bind(ip, 80, Arc::new(HttpFactory::new(handler())))
            .unwrap();
        let mut conn = net.connect(client_addr(), ip, 80).unwrap();
        conn.send(&Request::get("/whoami").encode());
        let reply = conn.roundtrip().unwrap();
        let (resp, _) = Response::parse(&reply).unwrap().unwrap();
        assert_eq!(resp.body_text(), "DE");
    }

    #[test]
    fn pipelined_requests_get_pipelined_responses() {
        let net = Network::new(SeedFork::new(3));
        let ip = Ipv4Addr::new(10, 0, 0, 3);
        net.bind(ip, 80, Arc::new(HttpFactory::new(handler())))
            .unwrap();
        let mut conn = net.connect(client_addr(), ip, 80).unwrap();
        let mut wire = BytesMut::new();
        Request::get("/ping").encode_into(&mut wire);
        Request::post("/echo", b"xyz".to_vec()).encode_into(&mut wire);
        conn.send(&wire);
        let reply = conn.roundtrip().unwrap();
        let (r1, used) = Response::parse(&reply).unwrap().unwrap();
        let (r2, _) = Response::parse(&reply[used..]).unwrap().unwrap();
        assert_eq!(r1.body_text(), "pong");
        assert_eq!(r2.body, b"xyz");
    }

    #[test]
    fn malformed_request_gets_400() {
        let net = Network::new(SeedFork::new(4));
        let ip = Ipv4Addr::new(10, 0, 0, 4);
        net.bind(ip, 80, Arc::new(HttpFactory::new(handler())))
            .unwrap();
        let mut conn = net.connect(client_addr(), ip, 80).unwrap();
        conn.send(b"NONSENSE\r\n\r\n");
        let reply = conn.roundtrip().unwrap();
        let (resp, _) = Response::parse(&reply).unwrap().unwrap();
        assert_eq!(resp.status, 400);
    }

    fn peer() -> PeerInfo {
        PeerInfo {
            addr: client_addr(),
            opened_at: SimTime::EPOCH,
            link: SeedFork::new(7),
        }
    }

    /// The three feed paths must agree byte-for-byte on every
    /// fragmentation of the same input stream, valid or malformed.
    fn assert_feed_parity(stream: &[u8], splits: &[usize]) {
        // Oracle: one `feed_into` over the whole stream.
        let mut oracle = BytesMut::new();
        HttpEngine::new(handler()).feed_into(
            &Bytes::copy_from_slice(stream),
            peer(),
            SimTime::EPOCH,
            &mut oracle,
        );

        // `feed_into`, fragmented at `splits`.
        let mut into_engine = HttpEngine::new(handler());
        let mut into_out = BytesMut::new();
        for chunk in fragments(stream, splits) {
            into_engine.feed_into(
                &Bytes::copy_from_slice(chunk),
                peer(),
                SimTime::EPOCH,
                &mut into_out,
            );
        }
        assert_eq!(&oracle[..], &into_out[..]);

        // `feed_slice`, same fragments, one reused output buffer.
        let mut slice_engine = HttpEngine::new(handler());
        let mut slice_out = BytesMut::new();
        for chunk in fragments(stream, splits) {
            slice_engine.feed_slice(chunk, peer(), SimTime::EPOCH, &mut slice_out);
        }
        assert_eq!(&oracle[..], &slice_out[..]);
    }

    fn fragments<'a>(stream: &'a [u8], splits: &[usize]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        let mut prev = 0;
        for &s in splits {
            let s = s.min(stream.len());
            if s > prev {
                out.push(&stream[prev..s]);
                prev = s;
            }
        }
        if prev < stream.len() {
            out.push(&stream[prev..]);
        }
        out
    }

    #[test]
    fn feed_paths_agree_on_valid_streams() {
        let mut wire = BytesMut::new();
        Request::get("/ping").encode_into(&mut wire);
        Request::post("/echo", b"payload-bytes".to_vec()).encode_into(&mut wire);
        Request::get("/whoami").encode_into(&mut wire);
        let stream = wire.freeze();
        // Whole, bisected, every-7-bytes, and header/body straddling
        // fragmentations all produce the single-feed oracle bytes.
        assert_feed_parity(&stream, &[]);
        assert_feed_parity(&stream, &[stream.len() / 2]);
        assert_feed_parity(&stream, &(1..stream.len()).step_by(7).collect::<Vec<_>>());
        assert_feed_parity(&stream, &[3, 20, 21, 60]);
    }

    #[test]
    fn feed_paths_agree_on_malformed_streams() {
        let mut wire = BytesMut::new();
        Request::get("/ping").encode_into(&mut wire);
        wire.extend_from_slice(b"NONSENSE\r\n\r\n");
        let stream = wire.freeze();
        // Garbage after a valid request is plain-malformed on every
        // path: one 200 then one 400, regardless of fragmentation.
        assert_feed_parity(&stream, &[]);
        assert_feed_parity(&stream, &[5, 11]);
    }

    #[test]
    fn feed_slice_reports_and_classifies() {
        let mut engine = HttpEngine::new(handler());
        let mut out = BytesMut::new();

        // Two pipelined requests: two responses, keep reading.
        let mut wire = BytesMut::new();
        Request::get("/ping").encode_into(&mut wire);
        Request::get("/ping").encode_into(&mut wire);
        let report = engine.feed_slice(&wire, peer(), SimTime::EPOCH, &mut out);
        assert_eq!(
            report,
            FeedReport {
                responses: 2,
                close: None
            }
        );
        assert!(!engine.has_partial());

        // A partial request parks in the reassembly buffer.
        let report = engine.feed_slice(b"GET /pi", peer(), SimTime::EPOCH, &mut out);
        assert_eq!(
            report,
            FeedReport {
                responses: 0,
                close: None
            }
        );
        assert!(engine.has_partial());
        let report = engine.feed_slice(b"ng HTTP/1.1\r\n\r\n", peer(), SimTime::EPOCH, &mut out);
        assert_eq!(
            report,
            FeedReport {
                responses: 1,
                close: None
            }
        );

        // Oversized header block: 431 on the socket path.
        let mut engine = HttpEngine::new(handler());
        let mut out = BytesMut::new();
        let big = vec![b'a'; crate::http::MAX_HEADER_BYTES + 1];
        let report = engine.feed_slice(&big, peer(), SimTime::EPOCH, &mut out);
        assert_eq!(report.close, Some(431));
        let (resp, _) = Response::parse(&out.split().freeze()).unwrap().unwrap();
        assert_eq!(resp.status, 431);

        // Oversized declared body: 413 on the socket path.
        let mut engine = HttpEngine::new(handler());
        let mut out = BytesMut::new();
        let huge = format!(
            "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            crate::http::MAX_BODY_BYTES + 1
        );
        let report = engine.feed_slice(huge.as_bytes(), peer(), SimTime::EPOCH, &mut out);
        assert_eq!(report.close, Some(413));
        let (resp, _) = Response::parse(&out.split().freeze()).unwrap().unwrap();
        assert_eq!(resp.status, 413);

        // The same oversized inputs through the sim path stay 400.
        let mut sim = BytesMut::new();
        HttpEngine::new(handler()).feed_into(&big.into(), peer(), SimTime::EPOCH, &mut sim);
        let (resp, _) = Response::parse(&sim).unwrap().unwrap();
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn https_service_end_to_end() {
        use crate::tls::{CertAuthority, TlsClient, TrustStore};
        let seed = SeedFork::new(5);
        let net = Network::new(seed.fork("net"));
        let mut ca = CertAuthority::new("Root", seed.fork("ca"));
        let identity = ServerIdentity::issue(&mut ca, "api.test", seed.fork("id"));
        let mut roots = TrustStore::new();
        roots.install_root(ca.root_cert());
        let ip = Ipv4Addr::new(10, 0, 0, 5);
        net.bind(
            ip,
            443,
            Arc::new(HttpsFactory::new(handler(), identity, seed.fork("f"))),
        )
        .unwrap();

        let conn = net.connect(client_addr(), ip, 443).unwrap();
        let mut rng = SeedFork::new(6).rng();
        let mut tls = TlsClient::connect(conn, "api.test", &roots, None, &mut rng).unwrap();
        let body = Json::obj([("k", Json::Int(1))]);
        let reply = tls
            .request(&Request::post("/echo", body.to_string().into_bytes()).encode())
            .unwrap();
        let (resp, _) = Response::parse(&reply).unwrap().unwrap();
        assert_eq!(resp.body_json().unwrap(), body);
    }
}
