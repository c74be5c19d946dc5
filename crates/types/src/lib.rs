//! # iiscope-types
//!
//! Foundation crate for the `iiscope` workspace — the reproduction of
//! *"Understanding Incentivized Mobile App Installs on Google Play
//! Store"* (IMC 2020).
//!
//! Everything in the workspace is a deterministic simulation driven by a
//! single world seed, so this crate concentrates the vocabulary shared
//! by every subsystem:
//!
//! * [`ids`] — strongly-typed identifiers (package names, developer ids,
//!   offer ids, device ids, …). Using newtypes instead of raw strings or
//!   integers prevents the classic measurement-pipeline bug of joining
//!   two datasets on the wrong key.
//! * [`money`] — USD amounts in integer micro-dollars. Offer payouts in
//!   the paper go as low as $0.02 and as high as $2.98 averages, and the
//!   disbursement chain (IIP cut → affiliate cut → worker payout) must
//!   add up exactly, so floating point is banned from the money path.
//! * [`time`] — simulated time ([`time::SimTime`], [`time::SimDuration`]).
//!   The paper's study window (March–June 2019, crawls every other day)
//!   is a simulated timeline; wall-clock time never enters the model.
//! * [`country`] / [`genre`] — closed enums for the geographic and
//!   category dimensions reported in Table 4.
//! * [`rng`] — labelled deterministic RNG fan-out plus the handful of
//!   distributions (log-normal, Zipf, Bernoulli mixtures) used by the
//!   population generators.
//! * [`sym`] — deterministic arena-backed string interning
//!   ([`sym::Interner`], [`sym::Sym`]) plus the dense columnar
//!   containers ([`sym::SymSet`], [`sym::SymMap`]) the analytics join
//!   paths run on. Symbol numbers are first-insertion ranks, never
//!   hash-dependent, so interned pipelines stay seed-deterministic.
//! * [`wirestats`] — [`wirestats::WireCounters`], the [`counters!`]
//!   book for the zero-copy wire path (buffer reuse, streaming-parse
//!   volume); each world's network owns one. Reporting only, never
//!   read by the simulation.
//! * [`rss`] — best-effort peak-RSS sampling (`VmHWM` on Linux) for
//!   the `BENCH_*.json` emitters; telemetry only, never simulation
//!   input.
//! * [`chaosstats`] — [`chaosstats::ChaosCounters`], the same for the
//!   chaos subsystem: fault injections and graceful-degradation events
//!   (retries, give-ups, abandoned milkings), dumped as
//!   `BENCH_chaos.json`.
//! * [`chunked`] — [`chunked::Chunked`], the one append-only row store
//!   in fixed-capacity chunks under the install ledger, the profile log
//!   and the resident part of every spillable row log.
//! * [`spillfile`] — [`spillfile::SpillFile`], the one append-only,
//!   CRC-checked file the dataset's row logs spill to and the install
//!   ledgers seal to.
//! * [`fnv`] — the one 64-bit FNV-1a.
//! * [`error`] — the shared error type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Declares a counter family as a type: relaxed, write-only `AtomicU64`
/// fields with a `const fn new()`, one `add_*` incrementer and one
/// getter per entry, plus `snapshot` (every counter as
/// `(json_key, value)`, in declaration order) and `restore`. Every book
/// has one owner — a world's network, a server, a cache router — and
/// no instance is process-global.
#[macro_export]
macro_rules! counters {
    ($(#[$tdoc:meta])* $vis:vis struct $ty:ident;
     $($(#[$doc:meta])* $name:ident / $inc:ident / $key:literal;)*) => {
        $(#[$tdoc])*
        #[derive(Debug, Default)]
        $vis struct $ty {
            $($name: ::std::sync::atomic::AtomicU64,)*
        }

        impl $ty {
            /// Every counter at zero.
            pub const fn new() -> $ty {
                $ty { $($name: ::std::sync::atomic::AtomicU64::new(0),)* }
            }

            $(
                $(#[$doc])*
                #[inline]
                pub fn $inc(&self, n: u64) {
                    self.$name.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
                }

                $(#[$doc])*
                pub fn $name(&self) -> u64 {
                    self.$name.load(::std::sync::atomic::Ordering::Relaxed)
                }
            )*

            /// Snapshot of every counter, in declaration order, as
            /// `(json_key, value)` pairs.
            pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
                vec![$(($key, self.$name())),*]
            }

            /// Restores counters from a checkpoint ledger keyed by the
            /// snapshot keys. Unknown keys are ignored and missing keys
            /// stay at their current value, so ledgers survive counter
            /// additions across versions.
            pub fn restore(&self, ledger: &[(String, u64)]) {
                for (key, value) in ledger {
                    match key.as_str() {
                        $($key => self.$name.store(*value, ::std::sync::atomic::Ordering::Relaxed),)*
                        _ => {}
                    }
                }
            }
        }
    };
}

pub mod chaosstats;
pub mod chunked;
pub mod country;
pub mod error;
pub mod fnv;
pub mod frame;
pub mod genre;
pub mod ids;
pub mod money;
pub mod rng;
pub mod rss;
pub mod spillfile;
pub mod sym;
pub mod time;
pub mod wirestats;

pub use chunked::Chunked;
pub use country::Country;
pub use error::{Error, Result};
pub use genre::Genre;
pub use ids::{AppId, CampaignId, DeveloperId, DeviceId, IipId, OfferId, PackageName, WorkerId};
pub use money::Usd;
pub use rng::SeedFork;
pub use sym::{shard_of, Interner, Sym, SymMap, SymSet};
pub use time::{SimDuration, SimTime};
