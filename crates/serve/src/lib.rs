//! Real concurrent TCP server front-end over the sans-IO HTTP engine.
//!
//! The simulation drives [`iiscope_wire::server::HttpEngine`] through
//! the in-process network; this crate is the *second consumer* of the
//! same engine — real sockets, real concurrency, the same handlers.
//! A finished (or resumed) world becomes a queryable service: the
//! Play-store frontend and the seven IIP offer walls answer external
//! clients byte-for-byte as they answer the simulated crawler.
//!
//! Architecture (DESIGN.md §13):
//!
//! * **Accept model** — one `std::net::TcpListener` in nonblocking
//!   mode, N accept workers serialized by a mutex (mutex-accept; the
//!   std listener has no `SO_REUSEPORT` sharding), each connection on
//!   its own handler thread.
//! * **Backpressure** — a permit gate bounds in-flight connections.
//!   Workers take a permit *before* accepting, so the listener simply
//!   stops accepting at the cap and the kernel backlog absorbs the
//!   queue; no connection is accepted only to be turned away.
//! * **Budgets** — per-connection read/write byte budgets and an idle
//!   timeout (reads use a short poll tick so idle time accrues even
//!   while blocked).
//! * **Rejection** — parse errors are classified on this path only:
//!   431 oversized header block, 413 oversized declared body, 400
//!   otherwise; the mapped status is flushed, then the connection
//!   closes. A mid-request idle expiry answers 408.
//! * **Load shedding** (DESIGN.md §15) — optional watermarks turn
//!   overload into explicit `503 + Retry-After` answers instead of
//!   unbounded queueing: a pre-parse gate sheds connections that aged
//!   past [`ShedConfig::accept_queue_ms`] waiting for a permit, and a
//!   pre-render gate sheds requests at the in-flight / per-route
//!   watermarks or past their [`ShedConfig::deadline`] budget. Cache
//!   hits are exempt — serving one is cheaper than turning it away.
//! * **Supervision** — a connection thread can never die of a peer:
//!   read errors are counted closes, handler panics are caught (the
//!   permit is still released), and a supervisor respawns any accept
//!   worker that dies outside shutdown, so the pool size is an
//!   invariant (`worker_respawns`).
//! * **Shutdown** — [`Server::stop`] flips the stop flag, nudges every
//!   live socket with `shutdown(Read)`, joins the supervisor (which
//!   joins the accept workers), and waits until the permit gate drains
//!   to zero.
//!
//! Nothing here touches the simulation: handlers are pure reads over
//! world state, counters are relaxed write-only atomics in the server's
//! own book ([`ServeCounters`]), and connection seed lineages fork
//! from connection ids, not from world RNG streams — seed-42 output
//! stays byte-identical with a client hammering the endpoints mid-run.

use bytes::BytesMut;
use iiscope_netsim::{AsnId, AsnKind, HostAddr, PeerInfo};
use iiscope_types::{Country, SeedFork, SimTime};
use iiscope_wire::http::{shed_503, RequestCtx, SHED_503_WIRE};
use iiscope_wire::server::HttpEngine;
use iiscope_wire::{Handler, Request, Response};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning knobs. [`ServeConfig::default`] matches the `repro`
/// CLI defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Accept workers (each connection still gets its own thread).
    pub workers: usize,
    /// In-flight connection cap; accept pauses at the cap.
    pub conn_cap: usize,
    /// Idle timeout: a connection that neither delivers bytes nor has
    /// a response in flight for this long is closed (408 if it parked
    /// a partial request, silent close if it was between requests).
    pub idle_timeout: Duration,
    /// Per-connection read budget in bytes.
    pub read_budget: u64,
    /// Per-connection write budget in bytes.
    pub write_budget: u64,
    /// Country attributed to external clients (walls geo-filter on
    /// the connection's vantage, §4.1).
    pub vantage: Country,
    /// Sim instant stamped on external requests (handlers render
    /// charts "as of" this time).
    pub sim_now: SimTime,
    /// Load-shedding watermarks; all off by default.
    pub shed: ShedConfig,
    /// Test hook: the first accept worker to observe this many
    /// accepted connections panics once, at its loop top (holding no
    /// permit or socket) — the supervisor must respawn it. `None`
    /// everywhere outside supervision tests.
    pub fault_panic_after_conns: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            conn_cap: 256,
            idle_timeout: Duration::from_secs(10),
            read_budget: 64 * 1024 * 1024,
            write_budget: 256 * 1024 * 1024,
            vantage: Country::Us,
            sim_now: SimTime::EPOCH,
            shed: ShedConfig::default(),
            fault_panic_after_conns: None,
        }
    }
}

/// Load-shedding watermarks. Every gate defaults to off, leaving the
/// server byte-identical to its ungated behavior; a set watermark
/// turns the corresponding overload into explicit `503 + Retry-After`
/// answers ([`iiscope_wire::http::shed_503`]) instead of unbounded
/// queueing. Ops routes (`/healthz`, `/admin/*`) are never shed.
#[derive(Debug, Clone, Default)]
pub struct ShedConfig {
    /// Pre-parse gate: a connection whose accept worker waited longer
    /// than this (milliseconds) for a permit is answered the fixed
    /// 503 image and closed without parsing — the accept queue is
    /// visibly stale, so the cheapest thing to do is turn work away
    /// before spending any on it.
    pub accept_queue_ms: Option<u64>,
    /// Pre-render gate: shed when this many renders are in flight
    /// across all routes.
    pub max_inflight: Option<usize>,
    /// Pre-render gate: shed when this many renders of the same route
    /// class (wall / store / other) are in flight.
    pub per_route: Option<usize>,
    /// Deadline budget, carried from the bytes' arrival through router
    /// render: a request older than this is shed before rendering
    /// (cache hits exempt), and a *partial* request older than this is
    /// answered 408 and closed (kills byte-drip clients that defeat
    /// the idle timeout by trickling).
    pub deadline: Option<Duration>,
}

impl ShedConfig {
    /// Whether any pre-render gate is configured (the per-connection
    /// admission wrapper is only installed when one is).
    fn gates_renders(&self) -> bool {
        self.max_inflight.is_some() || self.per_route.is_some() || self.deadline.is_some()
    }
}

/// A clonable latch: triggered once, waited on by many. `repro` parks
/// on it after printing the report; `POST /admin/shutdown` trips it.
#[derive(Clone, Default)]
pub struct ShutdownFlag(Arc<(Mutex<bool>, Condvar)>);

impl ShutdownFlag {
    /// A fresh, untriggered flag.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Trips the flag and wakes every waiter. Idempotent.
    pub fn trigger(&self) {
        let (lock, cv) = &*self.0;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    /// Whether the flag has been tripped.
    pub fn is_set(&self) -> bool {
        *self.0 .0.lock().unwrap()
    }

    /// Blocks until the flag is tripped.
    pub fn wait(&self) {
        let (lock, cv) = &*self.0;
        let mut set = lock.lock().unwrap();
        while !*set {
            set = cv.wait(set).unwrap();
        }
    }
}

/// Wraps a world handler with the server's operational routes:
/// `GET /healthz` liveness and `POST /admin/shutdown` (trips the
/// [`ShutdownFlag`], letting CI stop a served run cleanly without
/// signal plumbing). Everything else falls through to the inner
/// handler.
pub struct AdminHandler {
    inner: Arc<dyn Handler>,
    flag: ShutdownFlag,
}

impl AdminHandler {
    /// Wraps `inner`, tripping `flag` on the shutdown route.
    pub fn new(inner: Arc<dyn Handler>, flag: ShutdownFlag) -> AdminHandler {
        AdminHandler { inner, flag }
    }
}

impl Handler for AdminHandler {
    fn handle(&self, req: &iiscope_wire::Request, ctx: &RequestCtx) -> Response {
        use iiscope_wire::http::Method;
        match (req.method, req.path()) {
            (Method::Get, "/healthz") => Response::ok_text("ok"),
            (Method::Post, "/admin/shutdown") => {
                self.flag.trigger();
                Response::ok_text("draining")
            }
            _ => self.inner.handle(req, ctx),
        }
    }

    fn cached(&self, req: &Request, ctx: &RequestCtx) -> Option<Response> {
        // Ops routes are cheap and never cached; everything else
        // forwards so the admission layer still sees the world
        // router's cache through this wrapper.
        self.inner.cached(req, ctx)
    }
}

/// Route classes the per-route watermark buckets by. Ops routes are
/// classified but never shed — health checks must answer precisely
/// when the server is drowning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteClass {
    Wall = 0,
    Store = 1,
    Other = 2,
    Ops = 3,
}

fn route_class(path: &str) -> RouteClass {
    if path == "/healthz" || path.starts_with("/admin/") {
        RouteClass::Ops
    } else if path.starts_with("/wall/") {
        RouteClass::Wall
    } else if path.starts_with("/store/") || path == "/apk" {
        RouteClass::Store
    } else {
        RouteClass::Other
    }
}

iiscope_types::counters! {
    /// One server's book: what its accept loop and connection workers
    /// did, dumped by `repro --serve` on shutdown. Each [`Server`] owns
    /// its own, so servers sharing a process never mix their counts.
    pub struct ServeCounters;
    /// Connections accepted by the listener workers.
    conns_accepted / add_conns_accepted / "conns_accepted";
    /// Connections fully closed (handler thread exited).
    conns_closed / add_conns_closed / "conns_closed";
    /// Times an accept worker paused because the in-flight connection
    /// count sat at the cap (backpressure events, not wait duration).
    accept_backpressure / add_accept_backpressure / "accept_backpressure_waits";
    /// Requests answered over real sockets.
    requests_served / add_requests_served / "requests_served";
    /// Request bytes read off sockets.
    bytes_read / add_bytes_read / "bytes_read";
    /// Response bytes written to sockets.
    bytes_written / add_bytes_written / "bytes_written";
    /// Connections that served more than one request (keep-alive paid
    /// off at least once).
    keepalive_conns / add_keepalive_conns / "keepalive_conns";
    /// Connections closed for exceeding the idle timeout.
    idle_timeouts / add_idle_timeouts / "idle_timeouts";
    /// Connections poisoned by a parse reject (400/413/431) and closed
    /// after the mapped status was flushed.
    parse_rejects / add_parse_rejects / "parse_rejects";
    /// Connections closed for blowing a per-connection read or write
    /// budget.
    budget_closes / add_budget_closes / "budget_closes";
    /// Connections still open when shutdown began and drained cleanly.
    drained_conns / add_drained_conns / "drained_conns";
    /// Connection buffers checked out of the per-server pool.
    pool_hits / add_pool_hits / "pool_hits";
    /// Connections that had to allocate fresh buffers (pool empty).
    pool_misses / add_pool_misses / "pool_misses";
    /// Connections dropped on a peer reset/abort mid-read (routine
    /// under hostile churn; never a worker death).
    read_resets / add_read_resets / "read_resets";
    /// Connections dropped on any other unexpected read error.
    read_errors / add_read_errors / "read_errors";
    /// Connections answered a pre-encoded 503 and closed before any
    /// parse (accept-queue age past its watermark).
    sheds_preparse / add_sheds_preparse / "sheds_preparse";
    /// Requests shed with 503 at the in-flight-renders watermark.
    sheds_inflight / add_sheds_inflight / "sheds_inflight";
    /// Requests shed with 503 at the per-route concurrency watermark.
    sheds_route / add_sheds_route / "sheds_route";
    /// Requests shed with 503 after outliving their deadline budget
    /// before rendering began.
    sheds_deadline / add_sheds_deadline / "sheds_deadline";
    /// Requests a shed gate would have turned away but answered from
    /// the render cache instead (hits are too cheap to shed).
    shed_cache_exempt / add_shed_cache_exempt / "shed_cache_exempt";
    /// Partial requests answered 408 and closed because they were
    /// still incomplete past the deadline budget (byte-drip clients).
    deadline_408s / add_deadline_408s / "deadline_408s";
    /// Connection-thread panics caught and converted to closes.
    conn_panics / add_conn_panics / "conn_panics";
    /// Accept workers respawned by the supervisor after dying outside
    /// shutdown.
    worker_respawns / add_worker_respawns / "worker_respawns";
}

/// Live render counts the admission watermarks read.
#[derive(Default)]
struct OverloadState {
    /// Renders in flight, all routes.
    inflight: AtomicUsize,
    /// Renders in flight per non-ops route class.
    route: [AtomicUsize; 3],
}

/// RAII render slot: holds one global and one per-class count for the
/// duration of an admitted render, so the watermarks see live work
/// even when a handler panics (the guard unwinds with the stack).
struct RenderGuard<'a> {
    ovl: &'a OverloadState,
    class: RouteClass,
}

impl<'a> RenderGuard<'a> {
    fn enter(ovl: &'a OverloadState, class: RouteClass) -> RenderGuard<'a> {
        ovl.inflight.fetch_add(1, Ordering::Relaxed);
        ovl.route[class as usize].fetch_add(1, Ordering::Relaxed);
        RenderGuard { ovl, class }
    }
}

impl Drop for RenderGuard<'_> {
    fn drop(&mut self) {
        self.ovl.inflight.fetch_sub(1, Ordering::Relaxed);
        self.ovl.route[self.class as usize].fetch_sub(1, Ordering::Relaxed);
    }
}

/// Why a request was turned away (each reason keeps its own counter).
enum ShedReason {
    Deadline,
    Inflight,
    Route,
}

/// Per-connection admission wrapper installed between the engine and
/// the real handler when any pre-render gate is configured. Checks run
/// *before* the render: a request that will be shed costs one atomic
/// read per watermark plus a cache probe, never a render.
struct GatedHandler {
    inner: Arc<dyn Handler>,
    ovl: Arc<OverloadState>,
    counters: Arc<ServeCounters>,
    shed: ShedConfig,
    /// The server's clock origin; `arrival_us` is measured against it.
    epoch: Instant,
    /// Microseconds (since `epoch`) when the connection's current read
    /// chunk arrived — written by the serve loop, read by the deadline
    /// gate. Requests rendered late in a pipelined batch age here too.
    arrival_us: Arc<AtomicU64>,
}

impl GatedHandler {
    fn shed_reason(&self, class: RouteClass) -> Option<ShedReason> {
        if let Some(budget) = self.shed.deadline {
            let age_us = (self.epoch.elapsed().as_micros() as u64)
                .saturating_sub(self.arrival_us.load(Ordering::Relaxed));
            if age_us > budget.as_micros() as u64 {
                return Some(ShedReason::Deadline);
            }
        }
        if let Some(cap) = self.shed.max_inflight {
            if self.ovl.inflight.load(Ordering::Relaxed) >= cap {
                return Some(ShedReason::Inflight);
            }
        }
        if let Some(cap) = self.shed.per_route {
            if self.ovl.route[class as usize].load(Ordering::Relaxed) >= cap {
                return Some(ShedReason::Route);
            }
        }
        None
    }
}

impl Handler for GatedHandler {
    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Response {
        let class = route_class(req.path());
        if class == RouteClass::Ops {
            return self.inner.handle(req, ctx);
        }
        if let Some(reason) = self.shed_reason(class) {
            // Exemption before the 503: a cache hit is a pointer clone
            // — cheaper to serve than to shed.
            if let Some(resp) = self.inner.cached(req, ctx) {
                self.counters.add_shed_cache_exempt(1);
                return resp;
            }
            match reason {
                ShedReason::Deadline => self.counters.add_sheds_deadline(1),
                ShedReason::Inflight => self.counters.add_sheds_inflight(1),
                ShedReason::Route => self.counters.add_sheds_route(1),
            }
            return shed_503();
        }
        let _slot = RenderGuard::enter(&self.ovl, class);
        self.inner.handle(req, ctx)
    }

    fn cached(&self, req: &Request, ctx: &RequestCtx) -> Option<Response> {
        self.inner.cached(req, ctx)
    }
}

/// Poll tick for connection reads: short enough that stop-flag checks
/// and idle accounting stay responsive, long enough not to spin.
const READ_TICK: Duration = Duration::from_millis(25);

/// Sleep between accept polls when the listener has nothing pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Read-buffer size for one connection.
const RBUF_SIZE: usize = 16 * 1024;

/// Most retained connections the buffer pool will hold. Buffers above
/// this are dropped on return rather than hoarded.
const POOL_CAP: usize = 256;

/// Write buffers above this capacity (a one-off huge response) are not
/// worth retaining — they'd pin that memory for the pool's lifetime.
const POOL_OUT_RETAIN_MAX: usize = 256 * 1024;

/// One connection's reusable buffers: the socket read scratch and the
/// response assembly buffer. Pooled so short-lived connections under
/// churn reuse prior allocations instead of paying a fresh 16 KiB +
/// `BytesMut` per accept.
struct ConnBuffers {
    rbuf: Vec<u8>,
    out: BytesMut,
}

impl ConnBuffers {
    fn fresh() -> ConnBuffers {
        ConnBuffers {
            rbuf: vec![0u8; RBUF_SIZE],
            out: BytesMut::new(),
        }
    }
}

/// State shared by accept workers and connection threads.
struct Shared {
    handler: Arc<dyn Handler>,
    cfg: ServeConfig,
    stop: AtomicBool,
    /// In-flight permits: accept reservations plus live connections.
    gate: Mutex<usize>,
    gate_cv: Condvar,
    /// Live sockets by connection id, for the shutdown(Read) nudge.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Returned connection buffers, ready for the next accept.
    pool: Mutex<Vec<ConnBuffers>>,
    /// Admission watermark state.
    ovl: Arc<OverloadState>,
    /// This server's counter book.
    counters: Arc<ServeCounters>,
    /// Clock origin for deadline arithmetic (monotonic, per server).
    epoch: Instant,
    /// One-shot latch for the injected accept-worker fault.
    fault_fired: AtomicBool,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn release_permit(&self) {
        let mut inflight = self.gate.lock().unwrap();
        *inflight -= 1;
        self.gate_cv.notify_all();
    }

    /// Pops pooled buffers, or allocates fresh on a dry pool.
    fn checkout_buffers(&self) -> ConnBuffers {
        let popped = self.pool.lock().unwrap().pop();
        match popped {
            Some(b) => {
                self.counters.add_pool_hits(1);
                b
            }
            None => {
                self.counters.add_pool_misses(1);
                ConnBuffers::fresh()
            }
        }
    }

    /// Returns buffers to the pool (bounded; oversized write buffers
    /// are dropped so one giant response can't pin memory forever).
    fn return_buffers(&self, mut b: ConnBuffers) {
        b.out.clear();
        if b.out.capacity() > POOL_OUT_RETAIN_MAX {
            b.out = BytesMut::new();
        }
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < POOL_CAP {
            pool.push(b);
        }
    }
}

/// A running server. Dropping it does *not* stop it — call
/// [`Server::stop`] for the drain.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Binds `addr` and starts accepting. `addr` may name port 0 for
    /// an ephemeral port — read it back with [`Server::local_addr`].
    pub fn start(
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
        handler: Arc<dyn Handler>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            handler,
            cfg,
            stop: AtomicBool::new(false),
            gate: Mutex::new(0),
            gate_cv: Condvar::new(),
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
            ovl: Arc::new(OverloadState::default()),
            counters: Arc::new(ServeCounters::new()),
            epoch: Instant::now(),
            fault_fired: AtomicBool::new(false),
        });
        let listener = Arc::new(listener);
        let accept_mx = Arc::new(Mutex::new(()));
        let workers = shared.cfg.workers.max(1);
        let acceptors: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| spawn_acceptor(&shared, &listener, &accept_mx))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || supervise(shared, listener, accept_mx, acceptors))
        };
        Ok(Server {
            shared,
            local_addr,
            supervisor: Mutex::new(Some(supervisor)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently in flight (reservations included).
    pub fn inflight(&self) -> usize {
        *self.shared.gate.lock().unwrap()
    }

    /// 503s this server shed, across every gate (pre-parse and
    /// pre-render).
    pub fn sheds(&self) -> u64 {
        let c = self.counters();
        c.sheds_preparse() + c.sheds_inflight() + c.sheds_route() + c.sheds_deadline()
    }

    /// This server's counter book.
    pub fn counters(&self) -> &ServeCounters {
        &self.shared.counters
    }

    /// Stops accepting, nudges live connections, and blocks until
    /// every handler thread has drained. Idempotent.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.gate_cv.notify_all();
        // Nudge blocked reads: a half-shutdown turns them into EOFs.
        for conn in self.shared.conns.lock().unwrap().values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        if let Some(h) = self.supervisor.lock().unwrap().take() {
            let _ = h.join();
        }
        let mut inflight = self.shared.gate.lock().unwrap();
        while *inflight > 0 {
            inflight = self.shared.gate_cv.wait(inflight).unwrap();
        }
    }
}

fn spawn_acceptor(
    shared: &Arc<Shared>,
    listener: &Arc<TcpListener>,
    accept_mx: &Arc<Mutex<()>>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let listener = Arc::clone(listener);
    let accept_mx = Arc::clone(accept_mx);
    thread::spawn(move || accept_loop(shared, listener, accept_mx))
}

/// Keeps the accept-pool size an invariant: a worker only returns when
/// the server is stopping, so any thread found finished earlier died
/// of a panic — it is reaped and replaced in its slot. On stop, joins
/// the whole pool.
fn supervise(
    shared: Arc<Shared>,
    listener: Arc<TcpListener>,
    accept_mx: Arc<Mutex<()>>,
    mut workers: Vec<JoinHandle<()>>,
) {
    while !shared.stopping() {
        thread::sleep(READ_TICK);
        for slot in workers.iter_mut() {
            if slot.is_finished() && !shared.stopping() {
                let fresh = spawn_acceptor(&shared, &listener, &accept_mx);
                let dead = std::mem::replace(slot, fresh);
                let _ = dead.join(); // reap; the payload already printed
                shared.counters.add_worker_respawns(1);
            }
        }
    }
    for h in workers {
        let _ = h.join();
    }
}

fn accept_loop(shared: Arc<Shared>, listener: Arc<TcpListener>, accept_mx: Arc<Mutex<()>>) {
    loop {
        if shared.stopping() {
            return;
        }
        // Injected fault (supervision tests): dies at the loop top,
        // holding no permit and no socket, so the respawned worker
        // inherits a consistent world.
        if let Some(after) = shared.cfg.fault_panic_after_conns {
            if shared.next_conn.load(Ordering::Relaxed) >= after
                && !shared.fault_fired.swap(true, Ordering::Relaxed)
            {
                panic!("injected accept-worker fault (after {after} conns)");
            }
        }
        // Permit first: at the cap the worker parks here and the
        // listener stops accepting — backpressure lands in the kernel
        // backlog, never on an accepted-then-dropped connection. How
        // long we park is the accept-queue age the pre-parse shed gate
        // reads: a connection accepted after a long park has sat in
        // the backlog at least that long.
        let park_start = Instant::now();
        {
            let mut inflight = shared.gate.lock().unwrap();
            let mut waited = false;
            while *inflight >= shared.cfg.conn_cap && !shared.stopping() {
                if !waited {
                    shared.counters.add_accept_backpressure(1);
                    waited = true;
                }
                let (guard, _) = shared.gate_cv.wait_timeout(inflight, READ_TICK).unwrap();
                inflight = guard;
            }
            if shared.stopping() {
                return;
            }
            *inflight += 1; // reservation; transfers to the conn thread
        }
        let queue_wait = park_start.elapsed();
        // Accept under the mutex (serializing workers on one listener).
        let accepted = loop {
            if shared.stopping() {
                break None;
            }
            let res = {
                let _g = accept_mx.lock().unwrap();
                listener.accept()
            };
            match res {
                Ok(pair) => break Some(pair),
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
                Err(_) => thread::sleep(ACCEPT_POLL),
            }
        };
        let Some((stream, peer_addr)) = accepted else {
            shared.release_permit();
            return;
        };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().insert(conn_id, clone);
        }
        let shared2 = Arc::clone(&shared);
        thread::spawn(move || {
            // A panicking handler must not leak the permit or the
            // conns-map entry — that would permanently shrink the
            // effective pool. Catch, count, clean up, move on.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                serve_conn(&shared2, stream, peer_addr, conn_id, queue_wait);
            }));
            if outcome.is_err() {
                shared2.counters.add_conn_panics(1);
                shared2.counters.add_conns_closed(1);
            }
            shared2.conns.lock().unwrap().remove(&conn_id);
            shared2.release_permit();
        });
    }
}

/// The deadline budget applied to the *parse* phase: answers 408 and
/// reports true (close the connection) when a partial request has been
/// incomplete longer than the budget. This is what actually kills a
/// byte-drip slowloris — each dripped byte resets the idle clock, but
/// nothing resets the request's arrival.
fn partial_deadline_expired(
    counters: &ServeCounters,
    stream: &mut TcpStream,
    since: Option<Instant>,
    budget: Option<Duration>,
) -> bool {
    let (Some(budget), Some(since)) = (budget, since) else {
        return false;
    };
    if since.elapsed() < budget {
        return false;
    }
    counters.add_deadline_408s(1);
    let mut t = BytesMut::new();
    Response::status(408).encode_into(&mut t);
    let _ = stream.write_all(&t);
    true
}

/// Synthesizes the engine-facing peer identity for a socket client:
/// real IP, a private eyeball ASN, the configured vantage country,
/// and a seed lineage forked from the connection id — independent of
/// every world RNG stream by construction.
fn peer_info(addr: SocketAddr, cfg: &ServeConfig, conn_id: u64) -> PeerInfo {
    let ip = match addr.ip() {
        IpAddr::V4(v4) => v4,
        IpAddr::V6(v6) => v6.to_ipv4().unwrap_or(Ipv4Addr::LOCALHOST),
    };
    PeerInfo {
        addr: HostAddr {
            ip,
            asn: AsnId(64512),
            asn_kind: AsnKind::Eyeball,
            country: cfg.vantage,
        },
        opened_at: cfg.sim_now,
        link: SeedFork::new(conn_id),
    }
}

fn serve_conn(
    shared: &Shared,
    mut stream: TcpStream,
    peer_addr: SocketAddr,
    conn_id: u64,
    queue_wait: Duration,
) {
    let counters = &*shared.counters;
    counters.add_conns_accepted(1);
    let cfg = &shared.cfg;
    // Pre-parse admission: a connection that aged past the watermark
    // waiting in the accept queue is turned away for the cost of one
    // pre-encoded write — no parse, no render, no buffers.
    if let Some(q) = cfg.shed.accept_queue_ms {
        if queue_wait >= Duration::from_millis(q) {
            shared.counters.add_sheds_preparse(1);
            let _ = stream.set_nodelay(true);
            let _ = stream.write_all(SHED_503_WIRE);
            counters.add_bytes_written(SHED_503_WIRE.len() as u64);
            let _ = stream.shutdown(Shutdown::Both);
            counters.add_conns_closed(1);
            return;
        }
    }
    let tick = READ_TICK
        .min(cfg.idle_timeout)
        .max(Duration::from_millis(1));
    let _ = stream.set_read_timeout(Some(tick));
    let _ = stream.set_nodelay(true);
    let peer = peer_info(peer_addr, cfg, conn_id);

    // When a pre-render gate is on, the engine dispatches through a
    // per-connection admission wrapper; otherwise the handler chain is
    // exactly the ungated one (no new work on the default path).
    let arrival_us = Arc::new(AtomicU64::new(0));
    let engine_handler: Arc<dyn Handler> = if cfg.shed.gates_renders() {
        Arc::new(GatedHandler {
            inner: Arc::clone(&shared.handler),
            ovl: Arc::clone(&shared.ovl),
            counters: Arc::clone(&shared.counters),
            shed: cfg.shed.clone(),
            epoch: shared.epoch,
            arrival_us: Arc::clone(&arrival_us),
        })
    } else {
        Arc::clone(&shared.handler)
    };
    let mut engine = HttpEngine::new(engine_handler);
    // Pooled read/write buffers: reused across feeds within the
    // connection, and across connections via the shared pool.
    let ConnBuffers { mut rbuf, mut out } = shared.checkout_buffers();
    let mut idle = Duration::ZERO;
    let mut read_total = 0u64;
    let mut write_total = 0u64;
    let mut served = 0u64;
    // When the current request began arriving, for the deadline gate:
    // a byte-drip client resets the idle clock with every byte, but
    // never resets this one.
    let mut partial_since: Option<Instant> = None;

    loop {
        if shared.stopping() {
            break;
        }
        match stream.read(&mut rbuf) {
            Ok(0) => break, // EOF — includes half-close mid-request: clean drop
            Ok(n) => {
                idle = Duration::ZERO;
                if cfg.shed.deadline.is_some() {
                    arrival_us.store(shared.epoch.elapsed().as_micros() as u64, Ordering::Relaxed);
                }
                read_total += n as u64;
                counters.add_bytes_read(n as u64);
                if read_total > cfg.read_budget {
                    counters.add_budget_closes(1);
                    break;
                }
                let report = engine.feed_slice(&rbuf[..n], peer, cfg.sim_now, &mut out);
                if !out.is_empty() {
                    served += u64::from(report.responses);
                    counters.add_requests_served(u64::from(report.responses));
                    write_total += out.len() as u64;
                    counters.add_bytes_written(out.len() as u64);
                    let ok = stream.write_all(&out).is_ok();
                    out.clear();
                    if !ok {
                        break;
                    }
                    if write_total > cfg.write_budget {
                        counters.add_budget_closes(1);
                        break;
                    }
                }
                if report.close.is_some() {
                    counters.add_parse_rejects(1);
                    break;
                }
                // A read that completed a request and left the next one
                // partial starts that one's clock: each pipelined request
                // is measured from its own first bytes, not the batch's.
                partial_since = match (engine.has_partial(), report.responses) {
                    (false, _) => None,
                    (true, 0) => partial_since.or(Some(Instant::now())),
                    (true, _) => Some(Instant::now()),
                };
                if partial_deadline_expired(counters, &mut stream, partial_since, cfg.shed.deadline)
                {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                idle += tick;
                if partial_deadline_expired(counters, &mut stream, partial_since, cfg.shed.deadline)
                {
                    break;
                }
                if idle >= cfg.idle_timeout {
                    counters.add_idle_timeouts(1);
                    if engine.has_partial() {
                        // Slowloris: the request never completed.
                        let mut t = BytesMut::new();
                        Response::status(408).encode_into(&mut t);
                        let _ = stream.write_all(&t);
                    }
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                // One bad peer must never take a worker with it: every
                // unexpected read error is a counted close, classified
                // so the overload books can tell routine resets from
                // genuinely odd transport failures.
                match e.kind() {
                    ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::BrokenPipe => counters.add_read_resets(1),
                    _ => counters.add_read_errors(1),
                }
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    shared.return_buffers(ConnBuffers { rbuf, out });
    if served > 1 {
        counters.add_keepalive_conns(1);
    }
    if shared.stopping() {
        counters.add_drained_conns(1);
    }
    counters.add_conns_closed(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiscope_wire::{Request, Response};

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request, _ctx: &RequestCtx| -> Response {
            match req.path() {
                "/ping" => Response::ok_text("pong"),
                _ => Response::not_found(),
            }
        })
    }

    fn tiny_cfg() -> ServeConfig {
        ServeConfig {
            workers: 1,
            conn_cap: 8,
            idle_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        }
    }

    fn get(stream: &mut TcpStream, target: &str) -> Response {
        stream.write_all(&Request::get(target).encode()).unwrap();
        read_response(stream)
    }

    fn read_response(stream: &mut TcpStream) -> Response {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if let Ok(Some((resp, _))) = Response::parse(&buf) {
                        return resp;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break, // reset mid-read: fall through to the parse
            }
        }
        let (resp, _) = Response::parse(&buf).unwrap().unwrap();
        resp
    }

    #[test]
    fn serves_keepalive_requests_and_drains() {
        let server = Server::start("127.0.0.1:0", tiny_cfg(), echo_handler()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(get(&mut conn, "/ping").body_text(), "pong");
        assert_eq!(get(&mut conn, "/nope").status, 404);
        assert_eq!(get(&mut conn, "/ping").status, 200);
        server.stop();
        assert_eq!(server.inflight(), 0);
    }

    #[test]
    fn admin_routes_trip_the_flag() {
        let flag = ShutdownFlag::new();
        let handler: Arc<dyn Handler> = Arc::new(AdminHandler::new(echo_handler(), flag.clone()));
        let server = Server::start("127.0.0.1:0", tiny_cfg(), handler).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(get(&mut conn, "/healthz").body_text(), "ok");
        assert!(!flag.is_set());
        conn.write_all(&Request::post("/admin/shutdown", Vec::new()).encode())
            .unwrap();
        let resp = read_response(&mut conn);
        assert_eq!(resp.body_text(), "draining");
        assert!(flag.is_set());
        flag.wait(); // must not block once set
        server.stop();
    }

    /// Handler with a slow route, a panicking route, and a "cache"
    /// that always holds `/cached` — the admission gates' test bench.
    struct OverloadProbeHandler;

    impl Handler for OverloadProbeHandler {
        fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Response {
            match req.path() {
                "/ping" => Response::ok_text("pong"),
                "/slow" => {
                    thread::sleep(Duration::from_millis(150));
                    Response::ok_text("slow")
                }
                "/boom" => panic!("handler exploded on purpose"),
                _ => Response::not_found(),
            }
        }

        fn cached(&self, req: &Request, _ctx: &RequestCtx) -> Option<Response> {
            (req.path() == "/cached").then(|| Response::ok_text("hot"))
        }
    }

    fn probe_server(cfg: ServeConfig) -> Server {
        Server::start("127.0.0.1:0", cfg, Arc::new(OverloadProbeHandler)).unwrap()
    }

    #[test]
    fn inflight_watermark_sheds_503_with_retry_after_and_spares_ops() {
        let mut cfg = tiny_cfg();
        cfg.shed.max_inflight = Some(0); // everything non-ops sheds
        let handler: Arc<dyn Handler> = Arc::new(AdminHandler::new(
            Arc::new(OverloadProbeHandler),
            ShutdownFlag::new(),
        ));
        let server = Server::start("127.0.0.1:0", cfg, handler).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let resp = get(&mut conn, "/ping");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.headers.get("Retry-After"), Some("1"));
        // The shed keeps the connection alive for the retry…
        assert_eq!(get(&mut conn, "/ping").status, 503);
        // …and ops routes answer even while everything else sheds.
        assert_eq!(get(&mut conn, "/healthz").status, 200);
        server.stop();
        assert_eq!(server.sheds(), 2);
    }

    #[test]
    fn deadline_sheds_late_pipelined_requests_but_serves_cache_hits() {
        let mut cfg = tiny_cfg();
        cfg.shed.deadline = Some(Duration::from_millis(20));
        let server = probe_server(cfg);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // One write, three pipelined requests. The slow render eats
        // the whole batch's budget: the trailing /ping can no longer
        // meet its deadline and is shed *before* rendering, while the
        // cache hit is served regardless — too cheap to shed.
        let mut batch = Vec::new();
        batch.extend_from_slice(&Request::get("/slow").encode());
        batch.extend_from_slice(&Request::get("/ping").encode());
        batch.extend_from_slice(&Request::get("/cached").encode());
        conn.write_all(&batch).unwrap();
        // All three answers may land in one segment: parse from one
        // rolling buffer instead of one read_response call each.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut resps = Vec::new();
        while resps.len() < 3 {
            if let Ok(Some((resp, consumed))) = Response::parse(&buf) {
                buf.drain(..consumed);
                resps.push(resp);
                continue;
            }
            match conn.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
        }
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[0].status, 200);
        assert_eq!(resps[1].status, 503);
        assert_eq!(resps[2].status, 200);
        assert_eq!(resps[2].body_text(), "hot");
        server.stop();
        assert_eq!(server.sheds(), 1);
    }

    #[test]
    fn per_route_watermark_sheds_the_second_concurrent_render() {
        let mut cfg = tiny_cfg();
        cfg.shed.per_route = Some(1);
        let server = probe_server(cfg);
        let addr = server.local_addr();
        let mut a = TcpStream::connect(addr).unwrap();
        a.write_all(&Request::get("/slow").encode()).unwrap();
        thread::sleep(Duration::from_millis(40)); // let A's render start
        let mut b = TcpStream::connect(addr).unwrap();
        assert_eq!(get(&mut b, "/slow").status, 503);
        assert_eq!(read_response(&mut a).status, 200);
        // With A's render done the slot is free again.
        assert_eq!(get(&mut b, "/slow").status, 200);
        server.stop();
        assert_eq!(server.sheds(), 1);
    }

    #[test]
    fn stale_accept_queue_sheds_pre_parse_and_closes() {
        let mut cfg = tiny_cfg();
        cfg.conn_cap = 1;
        cfg.shed.accept_queue_ms = Some(50);
        let server = probe_server(cfg);
        let addr = server.local_addr();
        let mut a = TcpStream::connect(addr).unwrap();
        assert_eq!(get(&mut a, "/ping").status, 200);
        // B sits in the backlog while A holds the only permit…
        let mut b = TcpStream::connect(addr).unwrap();
        b.write_all(&Request::get("/ping").encode()).unwrap();
        thread::sleep(Duration::from_millis(150));
        drop(a); // …so when B is finally accepted, its age > watermark
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let resp = read_response(&mut b);
        assert_eq!(resp.status, 503);
        assert_eq!(resp.headers.get("Retry-After"), Some("1"));
        // Pre-parse sheds close: the next read is EOF.
        let mut rest = Vec::new();
        b.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        server.stop();
        assert!(server.sheds() >= 1);
    }

    #[test]
    fn byte_drip_is_killed_by_the_deadline_budget_not_the_idle_clock() {
        let mut cfg = tiny_cfg();
        cfg.idle_timeout = Duration::from_secs(30); // drip defeats this
        cfg.shed.deadline = Some(Duration::from_millis(100));
        let server = probe_server(cfg);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"GET /drip HTTP/1.1\r\nX-Pad: ").unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let start = std::time::Instant::now();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let mut killed = None;
        while start.elapsed() < Duration::from_secs(5) {
            let _ = conn.write_all(b"a"); // one dripped header byte
            match conn.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(_) => break,
            }
            if let Ok(Some((resp, _))) = Response::parse(&buf) {
                killed = Some(resp.status);
                break;
            }
        }
        assert_eq!(killed, Some(408), "drip was never killed");
        server.stop();
    }

    #[test]
    fn each_pipelined_request_gets_its_own_parse_deadline() {
        let mut cfg = tiny_cfg();
        cfg.idle_timeout = Duration::from_secs(5);
        cfg.shed.deadline = Some(Duration::from_millis(400));
        let server = probe_server(cfg);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        // Four writes 150 ms apart, each finishing one request and
        // starting the next: no request is ever partial for more than
        // 150 ms, though the first partial bytes are 450 ms old by the
        // last write.
        let ping = Request::get("/ping").encode();
        let (head, tail) = ping.split_at(ping.len() / 2);
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut statuses = Vec::new();
        for i in 0..4 {
            let finish: &[u8] = if i == 0 { &ping } else { tail };
            if i > 0 {
                thread::sleep(Duration::from_millis(150));
            }
            conn.write_all(&[finish, head].concat()).unwrap();
            let want = i + 1;
            let start = Instant::now();
            while statuses.len() < want && start.elapsed() < Duration::from_secs(5) {
                if let Ok(Some((resp, consumed))) = Response::parse(&buf) {
                    buf.drain(..consumed);
                    statuses.push(resp.status);
                    continue;
                }
                match conn.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    }
                    Err(_) => break,
                }
            }
        }
        // Well inside the last partial's own 400 ms.
        thread::sleep(Duration::from_millis(50));
        let timeouts = server.counters().deadline_408s();
        server.stop();
        assert_eq!(statuses, [200; 4], "a pipelined request was cut off");
        assert_eq!(timeouts, 0, "the parse deadline fired");
    }

    #[test]
    fn handler_panic_releases_the_permit_and_the_pool_serves_on() {
        let server = probe_server(tiny_cfg());
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(&Request::get("/boom").encode()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The panicking render owes no response — just a close.
        let mut got = Vec::new();
        let _ = conn.read_to_end(&mut got);
        assert!(got.is_empty(), "unexpected bytes: {got:?}");
        // The permit came back and fresh connections are served.
        let mut next = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(get(&mut next, "/ping").status, 200);
        server.stop();
        assert_eq!(server.inflight(), 0);
        assert_eq!(server.counters().conn_panics(), 1);
    }

    #[test]
    fn injected_acceptor_fault_is_respawned_and_the_pool_restored() {
        let mut cfg = tiny_cfg();
        cfg.fault_panic_after_conns = Some(1);
        let server = probe_server(cfg);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(get(&mut conn, "/ping").status, 200);
        drop(conn);
        // The lone accept worker now dies at its loop top; the
        // supervisor must notice and replace it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.counters().worker_respawns() == 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            server.counters().worker_respawns(),
            1,
            "worker never respawned"
        );
        let mut next = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(get(&mut next, "/ping").status, 200);
        server.stop();
        assert_eq!(server.inflight(), 0);
    }

    #[test]
    fn peer_reset_is_a_counted_close_not_a_worker_death() {
        let server = Server::start("127.0.0.1:0", tiny_cfg(), echo_handler()).unwrap();
        {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            conn.set_nodelay(true).unwrap();
            conn.write_all(&Request::get("/ping").encode()).unwrap();
            // Let the response land in our receive buffer unread, then
            // drop: closing with undelivered data sends an RST, which
            // the server must book as a close, not die on.
            thread::sleep(Duration::from_millis(100));
        }
        let dropped = |c: &ServeCounters| c.read_resets() + c.read_errors();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while dropped(server.counters()) == 0 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        // The pool survived the abuse: a fresh client is still served.
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(get(&mut conn, "/ping").status, 200);
        server.stop();
        assert_eq!(server.inflight(), 0);
        assert_eq!(dropped(server.counters()), 1, "reset was not counted once");
    }

    #[test]
    fn each_server_keeps_its_own_book() {
        const CONNS: u64 = 3;
        const REQUESTS: u64 = 4;
        let busy = Server::start("127.0.0.1:0", tiny_cfg(), echo_handler()).unwrap();
        let quiet = Server::start("127.0.0.1:0", tiny_cfg(), echo_handler()).unwrap();
        for _ in 0..CONNS {
            let mut conn = TcpStream::connect(busy.local_addr()).unwrap();
            for _ in 0..REQUESTS {
                assert_eq!(get(&mut conn, "/ping").status, 200);
            }
        }
        busy.stop();
        quiet.stop();
        let c = busy.counters();
        assert_eq!(c.conns_accepted(), CONNS);
        assert_eq!(c.requests_served(), CONNS * REQUESTS);
        assert_eq!(c.keepalive_conns(), CONNS);
        assert_eq!(c.conns_closed(), CONNS);
        assert!(
            quiet.counters().snapshot().iter().all(|&(_, v)| v == 0),
            "{:?}",
            quiet.counters().snapshot()
        );
    }

    #[test]
    fn snapshot_reports_increments_in_order() {
        let c = ServeCounters::new();
        c.add_conns_accepted(3);
        c.add_requests_served(9);
        c.add_drained_conns(1);
        c.add_pool_misses(2);
        c.add_read_resets(5);
        let snap = c.snapshot();
        assert_eq!(snap[0], ("conns_accepted", 3));
        assert_eq!(snap[3], ("requests_served", 9));
        assert_eq!(snap[10], ("drained_conns", 1));
        assert_eq!(snap[12], ("pool_misses", 2));
        assert_eq!(snap[13], ("read_resets", 5));
    }

    #[test]
    fn idle_connections_time_out() {
        let server = Server::start("127.0.0.1:0", tiny_cfg(), echo_handler()).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(get(&mut conn, "/ping").status, 200);
        // Stay silent past the idle timeout: the server closes (EOF).
        let mut buf = [0u8; 64];
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(conn.read(&mut buf).unwrap(), 0);
        server.stop();
    }
}
