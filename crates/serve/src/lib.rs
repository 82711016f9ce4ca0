//! # prima-serve — the high-QPS policy-decision service
//!
//! The serving layer of the PRIMA pipeline: the refinement loop improves
//! the policy offline, and this crate answers "may this access proceed,
//! right now?" at enforcement-point rates. The design (DESIGN.md §11)
//! is a worker pool behind a [`Transport`] trait whose hot path runs
//! through a sharded decision cache keyed on
//! `(role, op, purpose, consent)` with epoch-based invalidation:
//!
//! * [`api`] — the typed request/reply surface, with structured
//!   fail-closed denial codes (`SRV-xxx`).
//! * [`cache`] — the sharded cache; `O(1)` whole-cache invalidation.
//! * [`engine`] — validated request → cached verdict; installs policy
//!   snapshots under the revision/fingerprint protocol.
//! * [`service`] — the worker pool, the transport trait, the in-process
//!   transports, and the overload/supervision machinery (two-lane
//!   admission, load shedding, deadline propagation, worker respawn,
//!   crash-loop breaker, [`ServeHealth`]).
//! * [`fault`] — [`FaultyTransport`], a chaos wrapper injecting scripted
//!   drops, delays, duplicates and worker panics into any transport.
//! * [`obs`] — the serve metric catalog on `prima-obs`.
//!
//! The load and surge benchmarks that gate this crate live in
//! `prima-bench` (`prima-bench --suite serve|surge`).
//!
//! The coherence contract: a refinement promotion or a gated overturn
//! bumps `Policy::revision`, the install advances the cache epoch, and
//! the *very next* decision reflects the new policy — property-tested in
//! `tests/coherence.rs` under arbitrary interleavings.
//!
//! The overload contract (DESIGN.md §11): under load beyond capacity the
//! service *degrades*, never collapses — bulk work is shed early with
//! `SRV-011`, expired work is abandoned with `SRV-012`, emergency
//! (break-the-glass) traffic bypasses the shedder, and worker crashes
//! answer fail-closed while the supervisor respawns the pool.

pub mod api;
pub mod cache;
pub mod engine;
pub mod fault;
pub mod obs;
pub mod service;

pub use api::{
    Consent, DecisionReply, DecisionRequest, DenyReason, Priority, RewriteReply, RewriteRequest,
    Verdict,
};
pub use cache::{DecisionKey, ServeCacheStats, ShardedDecisionCache};
pub use engine::{DecisionEngine, InstallError, CACHE_SHARDS};
pub use fault::{FaultyTransport, TransportFaults};
pub use obs::{ServeObs, DECISION_LATENCY_BUCKETS};
pub use service::{
    DirectTransport, InProcessTransport, PolicyService, ServeConfig, ServeError, ServeHealth,
    ServeSnapshot, ServiceState, Transport,
};
