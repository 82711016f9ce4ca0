//! Pipeline configuration.

use crate::fault::FaultPlan;
use prima_obs::{MetricsRegistry, Tracer};

/// Default bounded-channel capacity per shard, denominated in *entries*
/// (the engine converts it to whole blocks, keeping at least one slot).
pub const DEFAULT_CHANNEL_CAPACITY: usize = 8192;

/// Default shard count.
pub const DEFAULT_SHARDS: usize = 4;

/// Default entries accumulated per [`crate::EntryBlock`] before the
/// engine ships it to the owning shard.
pub const DEFAULT_BLOCK_SIZE: usize = 512;

/// Configuration for a [`crate::StreamEngine`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of shard workers. Ground rules are hash-partitioned across
    /// shards, so each distinct access shape is owned by exactly one
    /// shard (which is what makes snapshot merging a concatenation).
    pub shards: usize,
    /// Bounded capacity of each shard's input channel, in entries; a
    /// full channel blocks the producer (backpressure) rather than
    /// buffering without limit. The engine rounds this to whole blocks
    /// (`max(1, channel_capacity / block_size)` block slots).
    pub channel_capacity: usize,
    /// Entries accumulated per shard before a block is flushed into the
    /// shard's channel. 1 reproduces row-at-a-time shipping; larger
    /// blocks amortize channel synchronization, cache probes, and
    /// queue-depth accounting across the block. Barriers (snapshot,
    /// checkpoint, policy refresh, drain, shutdown) flush partial blocks
    /// first, so block size never changes what a snapshot observes.
    pub block_size: usize,
    /// Training-window duration in seconds. When set, each snapshot
    /// carries the trailing `prima_audit::TrainingWindow` of this many
    /// seconds ending at the latest accepted event time; `None` disables
    /// window tracking (snapshots then carry no window).
    pub window_secs: Option<i64>,
    /// Fault-injection plan; [`FaultPlan::none`] in production.
    pub faults: FaultPlan,
    /// Checkpoint every `n` accepted entries per shard, arming crash
    /// recovery: the engine journals post-checkpoint entries and a dead
    /// shard is respawned from its last checkpoint and replayed. `None`
    /// (the default) keeps PR 1's degraded-mode behavior, where a dead
    /// shard's queue is forfeit and counted as lost.
    pub checkpoint_interval: Option<u64>,
    /// Metrics registry the engine records into; disabled by default,
    /// costing one branch per would-be update.
    pub metrics: MetricsRegistry,
    /// Tracer for engine spans (`stream.checkpoint`, `stream.recover`);
    /// disabled by default.
    pub tracer: Tracer,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            shards: DEFAULT_SHARDS,
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
            block_size: DEFAULT_BLOCK_SIZE,
            window_secs: None,
            faults: FaultPlan::none(),
            checkpoint_interval: None,
            metrics: MetricsRegistry::disabled(),
            tracer: Tracer::disabled(),
        }
    }
}

impl StreamConfig {
    /// A config with `shards` workers and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            ..Self::default()
        }
    }

    /// Sets the per-shard channel capacity (in entries).
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity.max(1);
        self
    }

    /// Sets how many entries accumulate per shard before a block ships.
    pub fn block_size(mut self, entries: usize) -> Self {
        self.block_size = entries.max(1);
        self
    }

    /// Enables the trailing training window of `secs` seconds of event
    /// time.
    pub fn window_secs(mut self, secs: i64) -> Self {
        self.window_secs = Some(secs.max(1));
        self
    }

    /// Installs a fault-injection plan (test mode).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Checkpoints each shard every `entries` accepted entries, arming
    /// crash recovery (journal + respawn + replay).
    pub fn checkpoint_every(mut self, entries: u64) -> Self {
        self.checkpoint_interval = Some(entries.max(1));
        self
    }

    /// Routes the engine's metrics and spans into `metrics`/`tracer` —
    /// typically the registry a `prima_core::SystemObs` shares, so the
    /// stream and the refinement rounds keep one set of books.
    pub fn observability(mut self, metrics: MetricsRegistry, tracer: Tracer) -> Self {
        self.metrics = metrics;
        self.tracer = tracer;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = StreamConfig::default();
        assert_eq!(c.shards, DEFAULT_SHARDS);
        assert_eq!(c.channel_capacity, DEFAULT_CHANNEL_CAPACITY);
        assert_eq!(c.block_size, DEFAULT_BLOCK_SIZE);
        assert!(
            c.channel_capacity >= 2 * c.block_size,
            "default capacity holds at least two blocks in flight"
        );
        assert!(c.window_secs.is_none());
        assert!(!c.faults.any());
        assert!(c.checkpoint_interval.is_none(), "recovery is opt-in");
        assert!(!c.metrics.is_enabled(), "observability is opt-in");
        assert!(!c.tracer.is_enabled());
    }

    #[test]
    fn observability_installs_live_handles() {
        let c = StreamConfig::default().observability(MetricsRegistry::new(), Tracer::new());
        assert!(c.metrics.is_enabled());
        assert!(c.tracer.is_enabled());
    }

    #[test]
    fn builders_clamp_degenerate_values() {
        let c = StreamConfig::with_shards(0)
            .channel_capacity(0)
            .block_size(0)
            .window_secs(0)
            .checkpoint_every(0);
        assert_eq!(c.shards, 1);
        assert_eq!(c.channel_capacity, 1);
        assert_eq!(c.block_size, 1);
        assert_eq!(c.window_secs, Some(1));
        assert_eq!(c.checkpoint_interval, Some(1));
    }
}
