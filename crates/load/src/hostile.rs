//! Deterministic misbehaving-client mix for the overload bench.
//!
//! The degradation soak answers one question: when a fraction of the
//! traffic is hostile — aborting mid-response, dripping bytes,
//! squatting on connections, flooding oversized junk — do the honest
//! clients measured by [`crate::run`] keep their goodput and latency?
//! This module supplies the hostile half. Every client thread derives
//! its behavior from a [`SeedFork`] lineage keyed by kind and index,
//! the same scheme the chaos plans use, so a given `(seed, plan)`
//! replays the identical byte schedule run over run.
//!
//! Four client kinds, mirroring the fault taxonomy the server's
//! overload layer is built to absorb (DESIGN.md §15):
//!
//! * **aborters** — send a complete valid request, then drop the
//!   socket without reading the response; the server's write or next
//!   read hits a reset/broken pipe (`read_resets` territory).
//! * **slowloris** — drip a valid request one byte at a time; each
//!   byte resets the server's idle clock, so only the deadline budget
//!   (408) or the idle timeout kills them.
//! * **idlers** — connect and send nothing, holding a connection slot
//!   until the server's idle timeout reclaims it.
//! * **flooders** — send an oversized header block in a loop, eating
//!   431 rejects until the server closes the connection.
//!
//! All kinds reconnect and repeat until [`HostileMix::stop`], so the
//! pressure is continuous across the honest stage, not a one-shot
//! burst at its front edge.

use iiscope_types::SeedFork;
use iiscope_wire::Request;
use rand::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many of each client kind to run, and how they behave.
#[derive(Debug, Clone)]
pub struct HostilePlan {
    /// Threads that send a full request and drop the socket unread.
    pub aborters: usize,
    /// Threads that drip request bytes one at a time.
    pub slowloris: usize,
    /// Threads that connect and go silent.
    pub idlers: usize,
    /// Threads that send oversized header blocks.
    pub flooders: usize,
    /// Milliseconds between dripped bytes.
    pub drip_ms: u64,
    /// Seed for the per-thread behavior streams.
    pub seed: u64,
    /// Valid GET targets the aborters and slowloris draw from.
    pub targets: Vec<String>,
}

impl HostilePlan {
    /// Total hostile threads the plan launches.
    pub fn clients(&self) -> usize {
        self.aborters + self.slowloris + self.idlers + self.flooders
    }
}

/// What the hostile clients observed, merged across threads. These are
/// the attacker's books — the soak cross-checks them against the
/// server's own counter book.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostileStats {
    /// Requests sent whole and abandoned unread.
    pub aborts: u64,
    /// Individual bytes dripped by slowloris clients.
    pub drip_bytes: u64,
    /// Silent connections held to server close or stop.
    pub idle_sessions: u64,
    /// Oversized header blocks sent.
    pub floods: u64,
    /// 503 sheds read back by hostile clients (aborters that did read).
    pub denied_503: u64,
    /// Times the server closed a hostile connection (EOF, reset, or
    /// write failure) — evidence it is reclaiming, not leaking, slots.
    pub server_closes: u64,
}

impl HostileStats {
    /// Absorbs another thread's stats.
    pub fn merge(&mut self, other: HostileStats) {
        self.aborts += other.aborts;
        self.drip_bytes += other.drip_bytes;
        self.idle_sessions += other.idle_sessions;
        self.floods += other.floods;
        self.denied_503 += other.denied_503;
        self.server_closes += other.server_closes;
    }
}

/// One hostile client body: runs until the stop flag, returns books.
type ClientBody = fn(SocketAddr, &HostilePlan, SeedFork, &AtomicBool) -> HostileStats;

/// A running hostile mix: launched threads plus the stop flag.
pub struct HostileMix {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<HostileStats>>,
}

impl HostileMix {
    /// Launches every client in the plan against `addr`. Threads run
    /// until [`HostileMix::stop`]; individual connection failures are
    /// absorbed (the server closing on us is the expected outcome).
    pub fn launch(addr: SocketAddr, plan: &HostilePlan) -> HostileMix {
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(plan.clients());
        let kinds: [(&str, usize, ClientBody); 4] = [
            ("hostile-abort", plan.aborters, run_aborter),
            ("hostile-drip", plan.slowloris, run_slowloris),
            ("hostile-idle", plan.idlers, run_idler),
            ("hostile-flood", plan.flooders, run_flooder),
        ];
        for (label, count, body) in kinds {
            for i in 0..count {
                let fork = SeedFork::new(plan.seed).fork_idx(label, i as u64);
                let plan = plan.clone();
                let stop = Arc::clone(&stop);
                handles.push(std::thread::spawn(move || body(addr, &plan, fork, &stop)));
            }
        }
        HostileMix { stop, handles }
    }

    /// Signals every client to wind down and returns the merged books.
    pub fn stop(self) -> HostileStats {
        self.stop.store(true, Ordering::SeqCst);
        let mut total = HostileStats::default();
        for h in self.handles {
            if let Ok(stats) = h.join() {
                total.merge(stats);
            }
        }
        total
    }
}

/// Short poll so stopped threads exit promptly mid-wait.
const POLL: Duration = Duration::from_millis(20);

fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let s = TcpStream::connect(addr).ok()?;
    s.set_nodelay(true).ok()?;
    s.set_read_timeout(Some(POLL)).ok()?;
    Some(s)
}

fn pick_wire(plan: &HostilePlan, rng: &mut rand::rngs::StdRng) -> Vec<u8> {
    let t = &plan.targets[rng.gen_range(0..plan.targets.len())];
    Request::get(t.clone()).encode().to_vec()
}

/// Sends one whole request, sometimes reads a little, always drops the
/// socket before draining the response.
fn run_aborter(
    addr: SocketAddr,
    plan: &HostilePlan,
    fork: SeedFork,
    stop: &AtomicBool,
) -> HostileStats {
    let mut rng = fork.rng();
    let mut st = HostileStats::default();
    while !stop.load(Ordering::Relaxed) {
        let Some(mut conn) = connect(addr) else {
            std::thread::sleep(POLL);
            continue;
        };
        let wire = pick_wire(plan, &mut rng);
        if conn.write_all(&wire).is_err() {
            st.server_closes += 1;
            continue;
        }
        st.aborts += 1;
        // Half the time, peek at the status line before vanishing —
        // exercises the server's mid-write abort path as well as the
        // never-read one.
        if rng.gen_bool(0.5) {
            let mut head = [0u8; 64];
            match conn.read(&mut head) {
                Ok(n) if n > 0 => {
                    if head[..n].windows(3).any(|w| w == b"503") {
                        st.denied_503 += 1;
                    }
                }
                Ok(_) => st.server_closes += 1,
                Err(_) => {}
            }
        }
        drop(conn);
        std::thread::sleep(Duration::from_millis(rng.gen_range(1..10)));
    }
    st
}

/// Drips a valid request one byte per `drip_ms`, forever renewing the
/// server's idle clock — only a deadline budget stops these early.
fn run_slowloris(
    addr: SocketAddr,
    plan: &HostilePlan,
    fork: SeedFork,
    stop: &AtomicBool,
) -> HostileStats {
    let mut rng = fork.rng();
    let mut st = HostileStats::default();
    while !stop.load(Ordering::Relaxed) {
        let Some(mut conn) = connect(addr) else {
            std::thread::sleep(POLL);
            continue;
        };
        let wire = pick_wire(plan, &mut rng);
        let mut closed = false;
        for &b in &wire {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if conn.write_all(&[b]).is_err() {
                closed = true;
                break;
            }
            st.drip_bytes += 1;
            std::thread::sleep(Duration::from_millis(plan.drip_ms));
        }
        // Whatever the server answered (408, 503, a real response), we
        // only care whether it hung up on us.
        if !closed {
            let mut sink = [0u8; 256];
            loop {
                match conn.read(&mut sink) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::TimedOut => break,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        if closed {
            st.server_closes += 1;
        }
    }
    st
}

/// Connects and says nothing until the server hangs up or we stop.
fn run_idler(
    addr: SocketAddr,
    _plan: &HostilePlan,
    _fork: SeedFork,
    stop: &AtomicBool,
) -> HostileStats {
    let mut st = HostileStats::default();
    while !stop.load(Ordering::Relaxed) {
        let Some(mut conn) = connect(addr) else {
            std::thread::sleep(POLL);
            continue;
        };
        st.idle_sessions += 1;
        let mut sink = [0u8; 64];
        loop {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            match conn.read(&mut sink) {
                // EOF or hard error: the server reclaimed the slot.
                Ok(0) => {
                    st.server_closes += 1;
                    break;
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => {
                    st.server_closes += 1;
                    break;
                }
            }
        }
    }
    st
}

/// Sends a single oversized header block per connection and watches
/// the 431-then-close choreography.
fn run_flooder(
    addr: SocketAddr,
    _plan: &HostilePlan,
    fork: SeedFork,
    stop: &AtomicBool,
) -> HostileStats {
    let mut rng = fork.rng();
    let mut st = HostileStats::default();
    // Far past any header cap; the filler byte varies per connection
    // so schedules differ across seeds without changing the size.
    const FLOOD: usize = 64 * 1024;
    while !stop.load(Ordering::Relaxed) {
        let Some(mut conn) = connect(addr) else {
            std::thread::sleep(POLL);
            continue;
        };
        let filler = b'a' + rng.gen_range(0..26u8);
        let mut junk = Vec::with_capacity(FLOOD + 64);
        junk.extend_from_slice(b"GET / HTTP/1.1\r\nX-Flood: ");
        junk.resize(junk.len() + FLOOD, filler);
        junk.extend_from_slice(b"\r\n\r\n");
        st.floods += 1;
        if conn.write_all(&junk).is_err() {
            st.server_closes += 1;
            continue;
        }
        let mut sink = [0u8; 1024];
        loop {
            match conn.read(&mut sink) {
                Ok(0) => {
                    st.server_closes += 1;
                    break;
                }
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    break;
                }
                Err(_) => {
                    st.server_closes += 1;
                    break;
                }
            }
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_counts_and_stats_merge() {
        let plan = HostilePlan {
            aborters: 2,
            slowloris: 3,
            idlers: 1,
            flooders: 4,
            drip_ms: 5,
            seed: 42,
            targets: vec!["/healthz".into()],
        };
        assert_eq!(plan.clients(), 10);
        let mut a = HostileStats {
            aborts: 1,
            drip_bytes: 10,
            idle_sessions: 2,
            floods: 3,
            denied_503: 1,
            server_closes: 4,
        };
        a.merge(HostileStats {
            aborts: 1,
            drip_bytes: 5,
            idle_sessions: 0,
            floods: 1,
            denied_503: 0,
            server_closes: 2,
        });
        assert_eq!(a.aborts, 2);
        assert_eq!(a.drip_bytes, 15);
        assert_eq!(a.floods, 4);
        assert_eq!(a.server_closes, 6);
    }
}
