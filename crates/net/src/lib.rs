//! Distributed fitness evaluation for AUDIT (`audit serve` /
//! `audit work`).
//!
//! The GA's closed loop (run candidate → measure droop → evolve) is
//! embarrassingly parallel across the population, so this crate scales
//! the expensive part — fitness evaluation — across worker *processes*
//! while leaving every bit of the search result unchanged:
//!
//! * [`frame`] — length-prefixed JSON frames over any byte stream, with
//!   torn-tail detection mirroring
//!   `audit_measure::traceio::TailOutcome`,
//! * [`transport`] — std-only TCP and Unix-domain listeners/streams
//!   behind one address syntax (`host:port` or `unix:/path`),
//! * [`proto`] — the protocol messages and the [`proto::EvalContext`]
//!   setup payload that lets a worker rebuild the exact fitness
//!   function ([`audit_core::FitnessSpec::evaluate`]) the broker's GA
//!   is searching with,
//! * [`round`] — the sans-IO round core ([`round::RoundCore`]): one
//!   campaign's round state and the whole defense stack (content
//!   addressing, in-flight windows, leases, retry/quarantine,
//!   cross-validation and eviction, chaos decisions) as events in,
//!   actions out — the single implementation under both `audit serve`
//!   and `audit fleet`,
//! * [`broker`] — the broker side: a thin driver of one round core that
//!   accepts workers, dispatches content-addressed evaluation keys,
//!   write-ahead-logs dispatch so a killed broker resumes, and merges
//!   results **bit-identically** to the in-process path (it is an
//!   [`audit_core::ga::EvalDispatcher`]),
//! * [`session`] — serving-side connection plumbing shared with the
//!   fleet: the accept loop, the worker reader pump, and the
//!   chaos-aware `eval` write,
//! * [`worker`] — the worker loop: connect (bounded exponential backoff
//!   with deterministic jitter), handshake, evaluate, report fitness
//!   plus resilience-counter deltas, and optionally rejoin after a
//!   sever,
//! * [`chaos`] — deterministic network-fault injection
//!   ([`chaos::NetFaultPlan`]): drops, duplicates, bit-flips, stalled
//!   workers, and byzantine wrong answers, every decision a pure hash
//!   of `(seed, direction, frame key, attempt)` so a chaos campaign
//!   replays exactly,
//! * [`wal`] — the dispatch write-ahead log ([`wal::Wal`]), shared by
//!   the single-campaign broker and the multi-campaign `audit-fleet`
//!   pool (one WAL per campaign there),
//! * [`metrics`] — scrapeable serving counters
//!   ([`metrics::ServeMetrics`]) and the plain-text snapshot builder
//!   ([`metrics::Scrape`]) behind the `MetricsReq`/`Metrics` frames.
//!
//! # Determinism contract
//!
//! The broker never lets scheduling reach the results: the engine hands
//! it the slots to measure, workers compute
//! [`audit_core::FitnessSpec::evaluate`] (deterministic per genome,
//! fault schedule content-addressed by `(seed, key, attempt)`), and the
//! engine sorts returned `(slot, fitness)` pairs into slot order before
//! any cache insert. `GaRun` results, `evaluations` counts, cache
//! state, and journal bytes are identical for any worker count,
//! including workers joining or dying mid-generation (a lost worker's
//! assignment is re-dispatched deterministically and recomputes the
//! identical result). See `docs/DISTRIBUTED.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod chaos;
pub mod frame;
pub mod metrics;
pub mod proto;
pub mod round;
pub mod session;
pub mod transport;
pub mod wal;
pub mod worker;

pub use broker::{Broker, BrokerConfig};
pub use chaos::{Direction, FrameFate, NetFaultPlan, NetFaultRates};
pub use frame::{crc32, read_frame, write_frame, FrameOutcome};
pub use metrics::{Scrape, ServeMetrics};
pub use proto::{EvalContext, Msg, PROTOCOL_VERSION};
pub use transport::{connect, Conn, Listener};
pub use wal::{Prefill, Wal};
pub use worker::{run_worker, WorkerOptions, WorkerStats};
