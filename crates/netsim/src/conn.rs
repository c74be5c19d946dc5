//! Turn-based duplex connections.
//!
//! A connection joins a client to a per-connection server [`Session`].
//! The client writes bytes and calls [`ClientConn::roundtrip`]; the
//! network applies the link's [`crate::FaultPlan`] to the request,
//! hands the bytes to the session, applies faults to the reply, and
//! returns it. This models a request/response exchange over a
//! reliable-ish transport while staying single-threaded and fully
//! deterministic — exactly what the HTTP and TLS layers in
//! `iiscope-wire` need, and it gives the capture log a faithful view
//! of "what crossed the wire".
//!
//! Latency and timeouts accumulate in a per-connection **skew** over
//! the shared clock rather than advancing the clock itself: each link
//! observes its own local time (`shared now + skew`). On a clean link
//! the skew stays zero, and under faults the cost of drops and stalls
//! stays confined to the connection that suffered them — which is what
//! makes parallel fan-out byte-identical to sequential runs even while
//! faults are firing (no cross-thread clock races).
//!
//! Delivery is zero-copy: each direction materializes the payload into
//! one ref-counted [`Bytes`] slab, and every observer downstream — the
//! capture log, the server session, the TLS decoder — holds a refcount
//! on that same slab instead of copying it. Residue a session leaves
//! unconsumed is carried as whole segments; the common one-request-per-
//! turn case hands the sender's allocation straight to the receiver.

use crate::capture::{CaptureLog, CaptureRecord, Direction};
use crate::clock::Clock;
use crate::fault::{FaultPlan, Verdict};
use crate::HostAddr;
use bytes::{Bytes, BytesMut};
use iiscope_types::chaosstats::ChaosCounters;
use iiscope_types::{wirestats::WireCounters, Error, Result, SeedFork, SimDuration, SimTime};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// What a server learns about the connecting client.
///
/// Services in the world use it the way real services do: offer walls
/// geo-target by `addr.country`, the honey-app backend logs `addr`'s
/// /24 block and AS kind, the Play Store rate-limits crawlers by IP.
#[derive(Debug, Clone, Copy)]
pub struct PeerInfo {
    /// Network location of the client.
    pub addr: HostAddr,
    /// Instant the connection was opened.
    pub opened_at: SimTime,
    /// Seed lineage of the connection's link. Sessions that open
    /// further connections on the client's behalf (the MITM proxy's
    /// upstream dials) fork from it so their fault streams derive from
    /// the originating client, not from global connection order.
    pub link: SeedFork,
}

/// Receive-side segment queue: delivered-but-unconsumed bytes, kept as
/// the original delivery slabs so a single-segment take is free.
#[derive(Debug, Default)]
pub(crate) struct RecvBuf {
    segs: VecDeque<Bytes>,
}

impl RecvBuf {
    pub(crate) fn new() -> RecvBuf {
        RecvBuf::default()
    }

    fn len(&self) -> usize {
        self.segs.iter().map(Bytes::len).sum()
    }

    fn push(&mut self, seg: Bytes) {
        if !seg.is_empty() {
            self.segs.push_back(seg);
        }
    }

    /// Takes everything buffered as one contiguous [`Bytes`]. With a
    /// single segment queued — the overwhelmingly common case of one
    /// request per turn — this is the sender's own slab, refcounted.
    fn take_all(&mut self, wire: &WireCounters) -> Bytes {
        match self.segs.len() {
            0 => Bytes::new(),
            1 => {
                wire.add_buffers_reused(1);
                self.segs.pop_front().unwrap()
            }
            _ => {
                wire.add_buffers_coalesced(1);
                let mut joined = Vec::with_capacity(self.len());
                for seg in self.segs.drain(..) {
                    joined.extend_from_slice(&seg);
                }
                Bytes::from(joined)
            }
        }
    }

    /// Linearizes the queue (if needed) and returns a view of it.
    fn contiguous(&mut self, wire: &WireCounters) -> &[u8] {
        if self.segs.len() > 1 {
            let all = self.take_all(wire);
            self.segs.push_back(all);
        }
        self.segs.front().map(|b| &b[..]).unwrap_or(&[])
    }
}

/// Server-side I/O surface handed to a [`Session`] on every turn.
pub struct ServerIo<'a> {
    incoming: &'a mut RecvBuf,
    outgoing: &'a mut BytesMut,
    peer: PeerInfo,
    now: SimTime,
    wire: &'a WireCounters,
}

impl<'a> ServerIo<'a> {
    /// Takes every byte delivered so far and not yet consumed, as one
    /// shared slab (zero-copy when the turn delivered a single
    /// segment).
    pub fn recv_all(&mut self) -> Bytes {
        self.incoming.take_all(self.wire)
    }

    /// Peeks at the delivered-but-unconsumed bytes. Takes `&mut self`
    /// because multiple residue segments must be linearized to present
    /// one slice.
    pub fn peek(&mut self) -> &[u8] {
        self.incoming.contiguous(self.wire)
    }

    /// Queues reply bytes for the client.
    pub fn send(&mut self, bytes: &[u8]) {
        self.outgoing.extend_from_slice(bytes);
    }

    /// Direct access to the reply buffer, letting encoders (TLS record
    /// sealing, HTTP response writing) build the reply in place instead
    /// of assembling a separate buffer and copying it in via
    /// [`ServerIo::send`].
    pub fn outgoing(&mut self) -> &mut BytesMut {
        self.outgoing
    }

    /// The connecting client's info.
    pub fn peer(&self) -> PeerInfo {
        self.peer
    }

    /// Current simulated time as observed by the server.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The world's wire-path book, for the session's own counts.
    pub fn wire(&self) -> &'a WireCounters {
        self.wire
    }
}

/// A per-connection server state machine.
pub trait Session: Send {
    /// Invoked once per client round trip with whatever bytes survived
    /// the link. Implementations consume input via
    /// [`ServerIo::recv_all`]/[`ServerIo::peek`] and reply via
    /// [`ServerIo::send`]. Leaving bytes unconsumed carries them into
    /// the next turn (for pipelined or split requests).
    fn on_turn(&mut self, io: &mut ServerIo<'_>);
}

/// Creates a fresh [`Session`] per accepted connection — the listener
/// side of the substrate.
pub trait SessionFactory: Send + Sync {
    /// Accepts a connection from `peer`.
    fn open(&self, peer: PeerInfo) -> Box<dyn Session>;
}

impl<F> SessionFactory for F
where
    F: Fn(PeerInfo) -> Box<dyn Session> + Send + Sync,
{
    fn open(&self, peer: PeerInfo) -> Box<dyn Session> {
        self(peer)
    }
}

/// How long a client waits before declaring a dropped or stalled
/// exchange dead. Charging the timeout to the connection's local time
/// keeps retry loops from being free.
pub const TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// The client end of an established connection.
pub struct ClientConn {
    pub(crate) conn_id: u64,
    pub(crate) client_ip: Ipv4Addr,
    pub(crate) server_ip: Ipv4Addr,
    pub(crate) port: u16,
    pub(crate) session: Box<dyn Session>,
    pub(crate) fault: FaultPlan,
    pub(crate) rng: StdRng,
    pub(crate) clock: Clock,
    pub(crate) skew: SimDuration,
    pub(crate) capture: CaptureLog,
    pub(crate) wire: Arc<WireCounters>,
    pub(crate) chaos: Arc<ChaosCounters>,
    pub(crate) peer: PeerInfo,
    pub(crate) out_buf: BytesMut,
    pub(crate) server_residue: RecvBuf,
}

impl std::fmt::Debug for ClientConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientConn")
            .field("conn_id", &self.conn_id)
            .field("client_ip", &self.client_ip)
            .field("server_ip", &self.server_ip)
            .field("port", &self.port)
            .finish_non_exhaustive()
    }
}

impl ClientConn {
    /// Queues bytes to be sent on the next [`ClientConn::roundtrip`].
    pub fn send(&mut self, bytes: &[u8]) {
        self.out_buf.extend_from_slice(bytes);
    }

    /// The connection id (stable key into the capture log).
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// The world's wire-path book this connection counts into.
    pub fn wire(&self) -> &WireCounters {
        &self.wire
    }

    /// The connection's local time: the shared clock plus whatever
    /// latency and timeout skew this link has accumulated. Zero skew
    /// (and thus `== clock.now()`) on a clean link.
    pub fn local_now(&self) -> SimTime {
        self.clock.now() + self.skew
    }

    /// Performs one exchange: delivers queued bytes to the server
    /// session and returns the session's reply bytes. The returned
    /// slab is shared with the capture log, not copied into it.
    ///
    /// Errors with [`Error::Network`] when the fault injector drops or
    /// stalls the request or the reply; the queued request bytes are
    /// consumed either way (retries must re-send, exactly like a real
    /// client re-issuing an HTTP request). A request-direction stall
    /// still delivers to the server — the exchange was *accepted then
    /// never answered*, so server side effects happen and a retry can
    /// legitimately duplicate them.
    pub fn roundtrip(&mut self) -> Result<Bytes> {
        let mut request = self.out_buf.split();
        let now = self.local_now();
        let verdict = self
            .fault
            .apply(&mut self.rng, now, &mut request, &self.chaos);
        let request_stalled = match verdict {
            Verdict::Dropped(reason) => {
                self.skew = self.skew + TIMEOUT;
                self.record(Direction::ToServer, request.freeze(), true);
                return Err(Error::Network(format!(
                    "request dropped ({reason:?}) conn {}",
                    self.conn_id
                )));
            }
            Verdict::Stalled => true,
            Verdict::Delivered { latency, .. } => {
                self.skew = self.skew + latency;
                false
            }
        };
        let request = request.freeze();
        self.wire.add_bytes_delivered(request.len() as u64);
        self.record(Direction::ToServer, request.clone(), false);

        // Deliver to the server session: the capture record and the
        // session's receive queue share the request slab.
        self.server_residue.push(request);
        let mut outgoing = BytesMut::new();
        let server_now = self.local_now();
        let mut io = ServerIo {
            incoming: &mut self.server_residue,
            outgoing: &mut outgoing,
            peer: self.peer,
            now: server_now,
            wire: &self.wire,
        };
        self.session.on_turn(&mut io);

        if request_stalled {
            // Accepted-then-never-answered: the server processed the
            // request but its answer never reaches us.
            self.skew = self.skew + TIMEOUT;
            self.record(Direction::ToClient, outgoing.freeze(), true);
            return Err(Error::Network(format!(
                "request stalled conn {}",
                self.conn_id
            )));
        }

        let mut reply = outgoing;
        let now = self.local_now();
        let verdict = self
            .fault
            .apply(&mut self.rng, now, &mut reply, &self.chaos);
        match verdict {
            Verdict::Dropped(reason) => {
                self.skew = self.skew + TIMEOUT;
                self.record(Direction::ToClient, reply.freeze(), true);
                Err(Error::Network(format!(
                    "reply dropped ({reason:?}) conn {}",
                    self.conn_id
                )))
            }
            Verdict::Stalled => {
                self.skew = self.skew + TIMEOUT;
                self.record(Direction::ToClient, reply.freeze(), true);
                Err(Error::Network(format!(
                    "reply stalled conn {}",
                    self.conn_id
                )))
            }
            Verdict::Delivered { latency, .. } => {
                self.skew = self.skew + latency;
                let reply = reply.freeze();
                self.wire.add_bytes_delivered(reply.len() as u64);
                self.record(Direction::ToClient, reply.clone(), false);
                Ok(reply)
            }
        }
    }

    fn record(&self, dir: Direction, bytes: Bytes, dropped: bool) {
        self.capture.push(CaptureRecord {
            at: self.local_now(),
            conn_id: self.conn_id,
            client: self.client_ip,
            server: self.server_ip,
            port: self.port,
            dir,
            bytes,
            dropped,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AsnId, AsnKind};
    use iiscope_types::{Country, SeedFork};

    /// Echo-with-prefix session used across the tests.
    struct Echo;
    impl Session for Echo {
        fn on_turn(&mut self, io: &mut ServerIo<'_>) {
            let data = io.recv_all();
            io.send(b"echo:");
            io.send(&data);
        }
    }

    fn conn(fault: FaultPlan) -> ClientConn {
        let addr = HostAddr {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            asn: AsnId(1),
            asn_kind: AsnKind::Eyeball,
            country: Country::Us,
        };
        ClientConn {
            conn_id: 1,
            client_ip: addr.ip,
            server_ip: Ipv4Addr::new(10, 9, 9, 9),
            port: 443,
            session: Box::new(Echo),
            fault,
            rng: SeedFork::new(11).rng(),
            clock: Clock::new(),
            skew: SimDuration::ZERO,
            capture: CaptureLog::new(),
            wire: Arc::default(),
            chaos: Arc::default(),
            peer: PeerInfo {
                addr,
                opened_at: SimTime::EPOCH,
                link: SeedFork::new(11),
            },
            out_buf: BytesMut::new(),
            server_residue: RecvBuf::new(),
        }
    }

    #[test]
    fn echo_roundtrip() {
        let mut c = conn(FaultPlan::perfect());
        c.send(b"hello");
        assert_eq!(c.roundtrip().unwrap(), b"echo:hello");
        // Second turn with separate payload.
        c.send(b"again");
        assert_eq!(c.roundtrip().unwrap(), b"echo:again");
    }

    #[test]
    fn capture_sees_both_directions() {
        let mut c = conn(FaultPlan::perfect());
        c.send(b"xy");
        c.roundtrip().unwrap();
        let log = c.capture.snapshot();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].dir, Direction::ToServer);
        assert_eq!(log[0].bytes, b"xy");
        assert_eq!(log[1].dir, Direction::ToClient);
        assert_eq!(log[1].bytes, b"echo:xy");
    }

    #[test]
    fn capture_shares_the_delivery_slab() {
        let mut c = conn(FaultPlan::perfect());
        c.send(b"shared?");
        let reply = c.roundtrip().unwrap();
        let log = c.capture.snapshot();
        assert!(
            log[1].bytes.shares_allocation(&reply),
            "reply capture must alias the delivered slab"
        );
    }

    #[test]
    fn drop_advances_local_time_and_errors() {
        let mut c = conn(FaultPlan::lossy(1.0, 0.0));
        c.send(b"doomed");
        let before = c.local_now();
        let err = c.roundtrip().unwrap_err();
        assert_eq!(err.kind(), "network");
        assert_eq!(c.local_now() - before, TIMEOUT);
        // The shared clock is untouched: fault cost is link-local.
        assert_eq!(c.clock.now(), SimTime::EPOCH);
        // Queued bytes were consumed; a bare retry sends nothing.
        assert!(c.out_buf.is_empty());
    }

    #[test]
    fn latency_advances_local_time_per_direction() {
        let fault = FaultPlan::perfect().with_latency(SimDuration::from_secs(2), SimDuration::ZERO);
        let mut c = conn(fault);
        c.send(b"p");
        let t0 = c.local_now();
        c.roundtrip().unwrap();
        assert_eq!(c.local_now() - t0, SimDuration::from_secs(4)); // 2 each way
        assert_eq!(c.clock.now(), SimTime::EPOCH);
    }

    #[test]
    fn stalled_request_still_reaches_the_server() {
        /// Counts turns so the test can observe the server-side effect
        /// of an exchange the client saw fail.
        struct CountTurns(std::sync::Arc<std::sync::atomic::AtomicU32>);
        impl Session for CountTurns {
            fn on_turn(&mut self, io: &mut ServerIo<'_>) {
                let _ = io.recv_all();
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                io.send(b"never-seen");
            }
        }
        let turns = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut c = conn(FaultPlan::perfect().with_stall(1.0));
        c.session = Box::new(CountTurns(std::sync::Arc::clone(&turns)));
        c.send(b"accepted");
        let before = c.local_now();
        let err = c.roundtrip().unwrap_err();
        assert_eq!(err.kind(), "network");
        assert!(err.to_string().contains("stalled"));
        // The server processed the request even though the client
        // never got an answer — the duplicate-on-retry hazard.
        assert_eq!(turns.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(c.local_now() - before, TIMEOUT);
        // The undelivered reply is captured as dropped.
        let log = c.capture.snapshot();
        assert_eq!(log.len(), 2);
        assert!(!log[0].dropped);
        assert!(log[1].dropped);
    }

    /// A session that buffers input until it has seen a full 4-byte
    /// "message", demonstrating residue carry-over between turns.
    struct Accumulate;
    impl Session for Accumulate {
        fn on_turn(&mut self, io: &mut ServerIo<'_>) {
            if io.peek().len() >= 4 {
                let data = io.recv_all();
                io.send(&data);
            }
        }
    }

    #[test]
    fn residue_carries_across_turns() {
        let mut c = conn(FaultPlan::perfect());
        c.session = Box::new(Accumulate);
        c.send(b"ab");
        assert_eq!(c.roundtrip().unwrap(), b"");
        c.send(b"cd");
        assert_eq!(c.roundtrip().unwrap(), b"abcd");
    }

    #[test]
    fn deliveries_and_fates_count_into_the_connection_books() {
        let mut c = conn(FaultPlan::perfect());
        c.session = Box::new(Accumulate);
        c.send(b"ab");
        c.roundtrip().unwrap();
        c.send(b"cd");
        c.roundtrip().unwrap();
        // Two requests of 2 bytes, replies of 0 and 4 bytes; the second
        // turn joined two segments for `peek`, then took them whole.
        assert_eq!(c.wire().bytes_delivered(), 8);
        assert_eq!(c.wire().buffers_coalesced(), 1);
        assert_eq!(c.wire().buffers_reused(), 1);
        assert!(c.chaos.snapshot().iter().all(|&(_, v)| v == 0));

        let mut lossy = conn(FaultPlan::lossy(1.0, 0.0));
        lossy.send(b"x");
        assert!(lossy.roundtrip().is_err());
        assert_eq!(lossy.chaos.drops_random(), 1);
        assert_eq!(lossy.wire().bytes_delivered(), 0);
    }

    #[test]
    fn server_sees_peer_info() {
        struct PeerReporter;
        impl Session for PeerReporter {
            fn on_turn(&mut self, io: &mut ServerIo<'_>) {
                let _ = io.recv_all();
                let c = io.peer().addr.country;
                io.send(c.code().as_bytes());
            }
        }
        let mut c = conn(FaultPlan::perfect());
        c.session = Box::new(PeerReporter);
        c.send(b"?");
        assert_eq!(c.roundtrip().unwrap(), b"US");
    }
}
