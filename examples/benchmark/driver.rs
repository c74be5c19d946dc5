//! The load driver: at most two threads, each owning one keep-alive
//! connection to the in-process server.
//!
//! Closed loop: each connection sends its next request when the last
//! reply is in, like a crawler.
//!
//! Open loop: the phase's request slots are due at `start + slot/rate`
//! and thread `i` owns slots `i, i+2, i+4, …`. Latency is charged from
//! the slot's due time when the previous response on the connection
//! arrived after it (the server made the request late), and from the
//! actual send otherwise (the generator's own oversleep is reported
//! separately as `gen_late`, not billed to the server).
//!
//! A keep-alive connection that closes before any byte of a response
//! arrives is reopened and the GET sent once more (RFC 9110 §9.2.2:
//! GET is idempotent). That is a retry, not a failure; the server
//! legitimately closes connections past its per-connection budgets.

use crate::trace::{Span, Trace};
use iiscope_wire::http::RequestCtx;
use iiscope_wire::{Handler, Request, ResponseView};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Driver threads and connections.
pub const CONNS: usize = 2;

/// How long a read may block before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One GET target, encoded once.
pub struct Target {
    pub target: String,
    pub wire: Vec<u8>,
}

impl Target {
    pub fn get(target: String) -> Target {
        let wire = Request::get(target.clone()).encode().to_vec();
        Target { target, wire }
    }
}

/// A keep-alive client connection with response reassembly.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
    /// Bytes of `buf` holding the last response (drained on next use).
    last: usize,
    pub retries: u64,
    pub reconnects: u64,
}

enum Attempt {
    /// The connection closed before any response byte: safe to resend.
    Closed(std::io::Error),
    Fatal(std::io::Error),
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        Ok(Conn {
            addr,
            stream: connect(addr)?,
            buf: Vec::with_capacity(64 * 1024),
            chunk: vec![0u8; 64 * 1024],
            last: 0,
            retries: 0,
            reconnects: 0,
        })
    }

    /// Sends one GET and reads its response; returns the status. The
    /// raw response stays readable through [`Conn::last_response`].
    pub fn get(&mut self, wire: &[u8]) -> std::io::Result<u16> {
        self.buf.drain(..self.last);
        self.last = 0;
        match self.attempt(wire) {
            Ok(status) => Ok(status),
            Err(Attempt::Closed(_)) => {
                self.retries += 1;
                self.reopen()?;
                match self.attempt(wire) {
                    Ok(status) => Ok(status),
                    Err(Attempt::Closed(e) | Attempt::Fatal(e)) => Err(e),
                }
            }
            Err(Attempt::Fatal(e)) => Err(e),
        }
    }

    /// Replaces the socket with a fresh connection (after a failure
    /// leaves the old one out of step with its responses).
    pub fn reopen(&mut self) -> std::io::Result<()> {
        self.reconnects += 1;
        self.buf.clear();
        self.last = 0;
        self.stream = connect(self.addr)?;
        Ok(())
    }

    /// The exact bytes of the last response.
    pub fn last_response(&self) -> &[u8] {
        &self.buf[..self.last]
    }

    fn attempt(&mut self, wire: &[u8]) -> Result<u16, Attempt> {
        if let Err(e) = self.stream.write_all(wire) {
            return Err(Attempt::Closed(e));
        }
        loop {
            match ResponseView::parse(&self.buf) {
                Ok(Some((view, consumed))) => {
                    self.last = consumed;
                    return Ok(view.status);
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(Attempt::Fatal(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("unparseable response: {e}"),
                    )))
                }
            }
            let closed = |e: std::io::Error, got_bytes: bool| {
                if got_bytes {
                    Attempt::Fatal(e)
                } else {
                    Attempt::Closed(e)
                }
            };
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    let e = std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed");
                    return Err(closed(e, !self.buf.is_empty()));
                }
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                    ) =>
                {
                    return Err(closed(e, !self.buf.is_empty()))
                }
                Err(e) => return Err(Attempt::Fatal(e)),
            }
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Where a driver thread sends its requests. The traced
/// serve-during-study run sends one thread's requests straight into the
/// served router, to split socket time from render time.
#[derive(Clone, Copy)]
pub enum Via<'a> {
    Socket,
    InProcess(&'a dyn Handler, RequestCtx),
}

/// What one phase measured, merged over its threads.
#[derive(Default)]
pub struct Phase {
    /// Socket request latencies, microseconds.
    pub lat_us: Vec<f64>,
    /// In-process latencies of a `Via::InProcess` thread, microseconds.
    pub inproc_us: Vec<f64>,
    /// How late the generator sent each request it slept for, µs.
    pub gen_late_us: Vec<f64>,
    pub done: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub retries: u64,
    pub reconnects: u64,
    /// First failure, for the diagnostic line.
    pub first_error: Option<String>,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.lat_us.extend(other.lat_us);
        self.inproc_us.extend(other.inproc_us);
        self.gen_late_us.extend(other.gen_late_us);
        self.done += other.done;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn achieved_rps(&self) -> f64 {
        (self.done + self.failed) as f64 / self.elapsed_s.max(1e-9)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }
}

/// Open loop at `rate` requests/s across both threads: slot `k` sends
/// `targets[order[k % order.len()]]`. Ends after `slots` slots or when
/// `stop` is raised, whichever is first.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    targets: &[Target],
    order: &[usize],
    rate: f64,
    slots: u64,
    stop: &AtomicBool,
    vias: [Via<'_>; CONNS],
    trace: &Trace,
    parent: u64,
) -> Phase {
    let start = (Instant::now(), trace.now_ns());
    let mut phase = Phase::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = vias
            .into_iter()
            .enumerate()
            .map(|(i, via)| {
                s.spawn(move || {
                    open_loop_thread(
                        addr, targets, order, rate, slots, stop, via, i, start, trace, parent,
                    )
                })
            })
            .collect();
        for h in handles {
            phase.merge(h.join().expect("driver thread panicked"));
        }
    });
    phase
}

#[allow(clippy::too_many_arguments)]
fn open_loop_thread(
    addr: SocketAddr,
    targets: &[Target],
    order: &[usize],
    rate: f64,
    slots: u64,
    stop: &AtomicBool,
    via: Via<'_>,
    first_slot: usize,
    (start, start_ns): (Instant, u64),
    trace: &Trace,
    parent: u64,
) -> Phase {
    let mut out = Phase::default();
    let mut spans = Vec::new();
    let mut conn = match via {
        Via::Socket => match Conn::open(addr) {
            Ok(c) => Some(c),
            Err(e) => {
                out.fail(format!("connect: {e}"));
                return out;
            }
        },
        Via::InProcess(..) => None,
    };
    let ns = |t: Instant| start_ns + t.duration_since(start).as_nanos() as u64;
    let mut prev_recv = start;
    let mut slot = first_slot as u64;
    while slot < slots && !stop.load(Ordering::Relaxed) {
        let due = start + Duration::from_secs_f64(slot as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        // Behind schedule because the server was slow: charge the wait.
        let server_late = prev_recv > due;
        if !server_late {
            out.gen_late_us
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
        }
        let t = &targets[order[slot as usize % order.len()]];
        let status = match (&mut conn, via) {
            (Some(c), _) => c.get(&t.wire),
            (None, Via::InProcess(handler, ctx)) => {
                Ok(handler.handle(&Request::get(t.target.clone()), &ctx).status)
            }
            (None, Via::Socket) => unreachable!("socket threads own a connection"),
        };
        let recv = Instant::now();
        let from = if server_late { due } else { sent };
        let us = recv.duration_since(from).as_secs_f64() * 1e6;
        match status {
            Ok(200) => {
                out.done += 1;
                match via {
                    Via::Socket => out.lat_us.push(us),
                    Via::InProcess(..) => out.inproc_us.push(us),
                }
            }
            Ok(code) => out.fail(format!("{} answered {code}", t.target)),
            Err(e) => {
                out.fail(format!("{}: {e}", t.target));
                // A failed exchange leaves the socket out of step.
                if let Some(c) = &mut conn {
                    if c.reopen().is_err() {
                        break;
                    }
                }
            }
        }
        if trace.on() {
            spans.push(Span {
                id: trace.id(),
                parent,
                name: match via {
                    Via::Socket => "driver.request",
                    Via::InProcess(..) => "servefront.during",
                },
                start_ns: ns(from),
                end_ns: ns(recv),
                req: slot,
            });
        }
        prev_recv = recv;
        slot += CONNS as u64;
    }
    out.elapsed_s = prev_recv.duration_since(start).as_secs_f64();
    if let Some(c) = conn {
        out.retries = c.retries;
        out.reconnects = c.reconnects;
    }
    trace.push(spans);
    out
}

/// Closed loop: each thread sends requests back to back on its own
/// connection, `per_conn` of them. `elapsed_s` is the slower thread's
/// time.
pub fn closed_loop(addr: SocketAddr, targets: &[Target], order: &[usize], per_conn: u64) -> Phase {
    let mut phase = Phase::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|i| s.spawn(move || closed_loop_thread(addr, targets, order, per_conn, i)))
            .collect();
        for h in handles {
            phase.merge(h.join().expect("driver thread panicked"));
        }
    });
    phase
}

fn closed_loop_thread(
    addr: SocketAddr,
    targets: &[Target],
    order: &[usize],
    per_conn: u64,
    offset: usize,
) -> Phase {
    let mut out = Phase::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("connect: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    for k in 0..per_conn {
        let t = &targets[order[(offset + k as usize * CONNS) % order.len()]];
        let sent = Instant::now();
        match conn.get(&t.wire) {
            Ok(200) => {
                out.done += 1;
                out.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
            }
            Ok(code) => out.fail(format!("{} answered {code}", t.target)),
            Err(e) => {
                out.fail(format!("{}: {e}", t.target));
                if conn.reopen().is_err() {
                    break;
                }
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.retries = conn.retries;
    out.reconnects = conn.reconnects;
    out
}
