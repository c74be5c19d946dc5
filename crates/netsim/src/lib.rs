//! # iiscope-netsim
//!
//! A deterministic, in-memory network substrate for the iiscope world.
//!
//! The paper's measurement pipeline is network-borne end to end: the
//! honey app uploads telemetry over encrypted channels (§3.1), the
//! monitoring infrastructure intercepts offer-wall TLS traffic through a
//! proxy (§4.1, Figure 3), milkers egress through datacenter VPN proxies
//! in eight countries, and §3.2's forensics hinge on *where* installs
//! connect from (eyeball vs cloud ASNs, shared /24 blocks). This crate
//! provides exactly that playing field:
//!
//! * [`addr`] — ASNs (eyeball / datacenter / VPN-exit), /24 block
//!   allocation, and per-host IPv4 assignment.
//! * [`clock`] — a shared simulated clock; connection latency advances
//!   it deterministically.
//! * [`fault`] — deterministic fault injection: memoryless drop and
//!   corruption chances, Gilbert–Elliott bursty loss, scheduled outage
//!   windows, stalls, truncation/garbage payloads, bandwidth caps and
//!   a latency model — every decision drawn from the per-link seeded
//!   RNG so failures replay from `(seed, plan)`.
//! * [`frame`] — length-delimited framing over [`bytes`], the base
//!   codec under the wire protocols in `iiscope-wire`.
//! * [`conn`] — turn-based duplex connections: a client writes bytes,
//!   calls `roundtrip()`, the registered per-connection session handler
//!   consumes them and writes a reply. Request/response protocols map
//!   onto this 1:1 while staying single-threaded and deterministic.
//! * [`network`] — the service registry (hostname → IP, (IP, port) →
//!   service factory), connection establishment with [`PeerInfo`], the
//!   packet [`capture`] log, and the world's counter books (connection,
//!   wire-path and chaos), which every connection counts into.
//!
//! Following the guidance for CPU-bound simulation work, everything is
//! synchronous; parallel fan-out (when used by upper layers) goes
//! through scoped threads, never an async runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod capture;
pub mod clock;
pub mod conn;
pub mod fault;
pub mod frame;
pub mod network;

pub use addr::{AsnId, AsnKind, AsnRegistry, Block24, HostAddr};
pub use capture::{CaptureLog, CaptureRecord, Direction};
pub use clock::Clock;
pub use conn::{ClientConn, PeerInfo, ServerIo, Session, SessionFactory, TIMEOUT};
pub use fault::{DropReason, FaultPlan, GilbertElliott, OutageWindow, Verdict};
pub use frame::{encode_frame, FrameDecoder, FrameError};
pub use network::{NetCounters, Network, ServiceBinding, WeakNetwork};
