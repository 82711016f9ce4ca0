//! prima-stream: online audit ingestion with incremental coverage
//! maintenance.
//!
//! The batch pipeline (mine → prune → review) recomputes coverage from
//! the full trail each round. This crate keeps coverage *standing*: audit
//! events are grounded once through a routing memo, accumulated into
//! per-shard [`EntryBlock`]s, and shipped block-at-a-time over bounded
//! channels to hash-partitioned shard workers — amortizing channel
//! synchronization, cache probes, and metric updates across the block.
//! Inside a shard, per-pattern counters hold each rule's count and
//! verdict: a run of identical rules is one counter lookup, the policy
//! matcher runs only for a rule the shard has never seen, and every
//! [`prima_model::CoverageReport`] delta is O(1) per entry. An
//! epoch-barrier [`StreamEngine::snapshot`] produces the same report,
//! bit for bit, that `prima_model::compute_coverage` would compute over
//! the accumulated trail — partial blocks are flushed before every
//! barrier, so block size never changes what a snapshot observes — plus
//! trailing-window per-pattern stats ready to feed
//! `PrimaSystem::run_round_windowed`.
//!
//! Fault tolerance is explicit and testable: poisoned entries (no ground
//! rule) are counted and skipped, a dead shard degrades the pipeline
//! instead of wedging it, and a slow shard exerts backpressure through
//! its bounded channel. See [`FaultPlan`] for the injection hooks —
//! faults compose, so one plan can arm several simultaneous failures.
//! Arming [`StreamConfig::checkpoint_every`] upgrades degraded mode to
//! *recovery*: shards periodically export checkpoints, the engine
//! journals entries accepted since, and a dead shard is respawned from
//! its last checkpoint and replayed — snapshots after recovery are
//! bit-for-bit what a fault-free run would have produced.

//! Observability: [`StreamConfig::observability`] routes per-shard
//! ingest/processed counts, queue-depth gauges, verdict hit/miss
//! counters, and checkpoint/recovery timings into a shared
//! `prima_obs::MetricsRegistry` (disabled, and effectively free, by
//! default).

pub mod block;
pub mod config;
pub mod counters;
pub mod engine;
pub mod fault;
pub mod loadbench;
pub mod obs;
mod route;
pub mod shard;
pub mod window;

pub use block::{BlockStorage, EntryBlock};
pub use config::{StreamConfig, DEFAULT_BLOCK_SIZE};
pub use counters::{CacheStats, CoverageCounters, PatternStats, StreamTotals};
pub use engine::{IngestOutcome, ShardHealth, StreamEngine, StreamSnapshot};
pub use fault::FaultPlan;
pub use loadbench::{run_stream_bench, StreamBenchConfig, StreamBenchReport};
pub use obs::ShardObs;
pub use shard::ShardCheckpoint;
pub use window::{SlidingWindow, WindowSnapshot};
