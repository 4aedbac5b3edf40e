//! Multi-tenant campaign service for AUDIT (`audit fleet`).
//!
//! PR 5's broker runs exactly one GA campaign per process. This crate
//! turns that into a long-lived **campaign manager**: many concurrent
//! GA campaigns share one worker fleet, scheduled by a deterministic
//! weighted-round-robin arbiter, with worker-side eval caches that
//! survive across campaigns and a scrapeable metrics endpoint.
//!
//! * [`scheduler`] — the pure fair-share arbiter ([`FairShare`]):
//!   batch weighted round-robin over runnable campaigns, a
//!   deterministic function of registration order, weights, and the
//!   runnable predicate — never of wall-clock timing.
//! * [`proto`] — the fleet control frames ([`FleetMsg`]): campaign
//!   submission, acceptance, completion, and status, riding the same
//!   CRC-checked frame layer as the worker protocol.
//! * [`pool`] — the shared worker pool ([`Pool`]): one event-loop
//!   thread owning every worker connection and driving one
//!   [`audit_net::round::RoundCore`] per campaign — the same sans-IO
//!   round core under the single-campaign broker, so content
//!   addressing, in-flight windows, dispatch leases, retry/quarantine,
//!   cross-validation and eviction, and deterministic chaos injection
//!   exist once — plus what is shared across campaigns: the fair-share
//!   dispatch pump, lazy worker `Setup`, per-campaign write-ahead logs,
//!   and metrics.
//! * [`service`] — the front door ([`Fleet`]): one listening socket
//!   whose accept loop sniffs each connection's first frame — `hello`
//!   is a worker, `submit`/`status` is a tenant client, `metrics_req`
//!   is a scrape — and routes it accordingly.
//!
//! # Multi-tenant determinism contract
//!
//! Each campaign's results — `GaRun`, journal bytes, resilience
//! counters — are **byte-identical to its solo in-process run** no
//! matter how many other campaigns share the fleet, how the arbiter
//! interleaves them, how many workers serve them, or which
//! worker-side cache entries happen to hit. The argument is the same
//! as the single-campaign broker's, per campaign: jobs are
//! content-addressed, evaluation is deterministic per genome, the
//! engine sorts scores into slot order, and resilience deltas merge
//! order-insensitively — so scheduling (now including co-tenant
//! scheduling) provably cannot reach the results. Cross-campaign
//! cache entries are keyed worker-side by the *full* setup encoding
//! (interned byte-for-byte, never a hash), so tenants with differing
//! contexts can never share an entry, and tenants with identical
//! contexts share only values both would have computed identically.
//! See `docs/FLEET.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod proto;
pub mod scheduler;
pub mod service;

pub use pool::{CampaignDispatcher, CampaignSpec, FleetConfig, Pool, PoolHandle};
pub use proto::FleetMsg;
pub use scheduler::FairShare;
pub use service::{scrape, status, submit, Fleet, Submission};
