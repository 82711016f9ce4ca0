//! Observability handles for the stream engine.
//!
//! `StreamObs` pre-registers every metric the engine touches so the
//! ingest hot path never takes the registry mutex; per-shard handles
//! ([`ShardObs`]) are cloned into the worker threads. All handles come
//! from the registry in [`crate::StreamConfig`] — disabled by default,
//! in which case every update is a single branch.
//!
//! Metric catalog (see DESIGN.md for the workspace-wide table):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `prima_stream_ingested_total` | counter | entries routed to a shard |
//! | `prima_stream_poisoned_total` | counter | unclassifiable entries skipped |
//! | `prima_stream_lost_total` | counter | entries refused by a dead shard |
//! | `prima_stream_recoveries_total` | counter | workers respawned from a checkpoint |
//! | `prima_stream_blocks_flushed_total` | counter | entry blocks shipped to shards |
//! | `prima_stream_block_fill_entries` | histogram | entries per flushed block |
//! | `prima_stream_queue_depth{shard}` | gauge | blocks waiting in a shard's channel |
//! | `prima_stream_processed_total{shard}` | counter | entries a worker consumed |
//! | `prima_stream_cache_hits_total{shard}` | counter | verdicts the shard's counters already held |
//! | `prima_stream_cache_misses_total{shard}` | counter | full subsumption probes run |
//! | `prima_stream_checkpoint_seconds` | histogram | checkpoint barrier round trips |
//! | `prima_stream_recovery_seconds` | histogram | respawn-and-replay durations |
//!
//! Counters on the block path are bumped once per *block* (`Counter::add`
//! with the block's entry count), never per entry, so instrumentation
//! cost is amortized the same way the channel traffic is.

use prima_obs::{Counter, Gauge, Histogram, MetricsRegistry, Tracer};

/// Handles a shard worker updates from inside its loop.
#[derive(Debug, Clone, Default)]
pub struct ShardObs {
    /// Entries this worker consumed.
    pub processed: Counter,
    /// Verdicts answered from the shard's coverage counters.
    pub cache_hits: Counter,
    /// Verdicts that ran the full probe (rules new to the shard).
    pub cache_misses: Counter,
    /// The engine's tracer, cloned into the worker so per-block shard
    /// spans join the trace the shipping flush stamped on the block.
    pub tracer: Tracer,
}

impl ShardObs {
    /// No-op handles (the default for uninstrumented workers).
    pub fn disabled() -> Self {
        Self::default()
    }
}

/// All metric handles of one [`crate::StreamEngine`].
#[derive(Debug, Clone)]
pub(crate) struct StreamObs {
    pub ingested: Counter,
    pub poisoned: Counter,
    pub lost: Counter,
    pub recoveries: Counter,
    pub blocks_flushed: Counter,
    pub block_fill: Histogram,
    pub checkpoint_seconds: Histogram,
    pub recovery_seconds: Histogram,
    /// Per-shard channel depth gauges, indexed by shard.
    pub queue_depth: Vec<Gauge>,
    /// Per-shard worker handles, indexed by shard.
    pub shards: Vec<ShardObs>,
    pub tracer: Tracer,
}

impl StreamObs {
    pub fn new(registry: &MetricsRegistry, tracer: Tracer, shards: usize) -> Self {
        let per_shard = |i: usize, name: &str, help: &str| {
            registry.counter_with(name, help, &[("shard", &i.to_string())])
        };
        Self {
            ingested: registry.counter(
                "prima_stream_ingested_total",
                "Entries accepted and routed to a shard.",
            ),
            poisoned: registry.counter(
                "prima_stream_poisoned_total",
                "Entries rejected as unclassifiable.",
            ),
            lost: registry.counter(
                "prima_stream_lost_total",
                "Entries refused because their shard was dead.",
            ),
            recoveries: registry.counter(
                "prima_stream_recoveries_total",
                "Shard workers respawned from a checkpoint.",
            ),
            blocks_flushed: registry.counter(
                "prima_stream_blocks_flushed_total",
                "Entry blocks shipped into shard channels.",
            ),
            block_fill: registry.histogram_with(
                "prima_stream_block_fill_entries",
                "Entries carried per flushed block (partial blocks come \
                 from barrier flushes).",
                &[],
                &[1.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0],
            ),
            checkpoint_seconds: registry.histogram(
                "prima_stream_checkpoint_seconds",
                "Checkpoint barrier round-trip durations.",
            ),
            recovery_seconds: registry.histogram(
                "prima_stream_recovery_seconds",
                "Respawn-and-replay durations after a worker death.",
            ),
            queue_depth: (0..shards)
                .map(|i| {
                    registry.gauge_with(
                        "prima_stream_queue_depth",
                        "Blocks waiting in a shard's bounded channel.",
                        &[("shard", &i.to_string())],
                    )
                })
                .collect(),
            shards: (0..shards)
                .map(|i| ShardObs {
                    processed: per_shard(
                        i,
                        "prima_stream_processed_total",
                        "Entries consumed by a shard worker.",
                    ),
                    cache_hits: per_shard(
                        i,
                        "prima_stream_cache_hits_total",
                        "Verdicts answered from the shard's coverage counters.",
                    ),
                    cache_misses: per_shard(
                        i,
                        "prima_stream_cache_misses_total",
                        "Verdict lookups that ran the full probe.",
                    ),
                    tracer: tracer.clone(),
                })
                .collect(),
            tracer,
        }
    }
}
