//! The streaming engine: block-based bounded-channel ingestion across
//! shard workers with epoch-barrier snapshots.
//!
//! ```text
//!  ingest(entry) ──┬─ route memo ─▶ pending block ─▶ shard 0 ─ counters
//!                  │   (raw shape →   (flush at       shard 1 ─   "        "
//!                  │    Arc rule +     block_size      shard n ─   "        "
//!                  │    shard, once)   or barrier)          ▲
//!                  └─ optional sink (AuditStore)            │
//!  snapshot() ── flush partial blocks + barrier per shard ──┘ → merged report
//! ```
//!
//! Entries accumulate into one pending [`EntryBlock`] per shard and ship
//! whole — one channel send, one queue-depth gauge write, and one
//! journal append per *block*, so channel synchronization is amortized
//! across `block_size` rows instead of paid per row. The producer side
//! is `&mut self`, and every barrier (snapshot, checkpoint, policy
//! refresh, drain, shutdown) flushes partial blocks before enqueueing
//! the control message, so a barrier still observes exactly the entries
//! ingested before it — a consistent cut of the stream without pausing
//! ingestion globally, and one whose contents are invariant to the
//! configured block size.
//!
//! Checkpoints operate on block boundaries: the journal is appended
//! block-at-a-time after a successful send, a checkpoint barrier is
//! emitted only right after a block flush, and recovery replays the
//! journal re-chunked into blocks — so a replacement worker walks the
//! same entry sequence the dead one did.

use crate::block::{BlockStorage, EntryBlock};
use crate::config::StreamConfig;
use crate::counters::{merge_reports, CacheStats, StreamTotals};
use crate::fault::FaultPlan;
use crate::obs::StreamObs;
use crate::route::RouteMemo;
use crate::shard::{run_shard, ShardCheckpoint, ShardMsg, ShardState};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use prima_audit::{AuditEntry, AuditStore, TrainingWindow};
use prima_model::{CoverageReport, GroundRule, Policy, PolicyMatcher};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What happened to one ingested entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Routed to a live shard (and the sink, if one is attached).
    Accepted,
    /// The entry's attributes do not form a ground rule; counted and
    /// skipped rather than poisoning the pipeline.
    Poisoned,
    /// The owning shard is dead; counted as lost (degraded mode).
    Lost,
}

/// Liveness of one shard at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Worker is consuming its channel.
    Live,
    /// Worker is gone (crashed or fault-injected); its keys' entries are
    /// counted as lost.
    Dead,
}

/// A consistent cut of the stream's state.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// Definition 9 over the distinct ground rules observed so far —
    /// bit-for-bit the batch `compute_coverage` report for the same
    /// trail.
    pub coverage: CoverageReport,
    /// Entry-weighted totals (the Section 5 computation, maintained
    /// incrementally).
    pub totals: StreamTotals,
    /// Aggregated hit/miss books of the shards' verdict lookups.
    pub cache: CacheStats,
    /// The trailing training window `[watermark − window_secs + 1,
    /// watermark + 1)` over the latest accepted event time, ready for
    /// `PrimaSystem::run_round_windowed`; `None` when window tracking is
    /// off or nothing has been accepted.
    pub window: Option<TrainingWindow>,
    /// Policy epoch the shards are on.
    pub epoch: u64,
    /// Entries processed by live shards.
    pub processed: u64,
    /// Per-shard liveness.
    pub health: Vec<ShardHealth>,
    /// Entries accepted by `ingest` (routed to a shard).
    pub ingested: u64,
    /// Entries rejected as unclassifiable.
    pub poisoned: u64,
    /// Entries dropped because their shard died.
    pub lost: u64,
    /// Shard workers respawned from a checkpoint (0 unless
    /// [`crate::StreamConfig::checkpoint_every`] armed recovery).
    pub recoveries: u64,
}

/// The online ingestion pipeline.
pub struct StreamEngine {
    senders: Vec<Option<Sender<ShardMsg>>>,
    handles: Vec<Option<JoinHandle<()>>>,
    /// One partially-filled block per shard, flushed at `block_size`
    /// entries or at the next barrier, whichever comes first.
    pending: Vec<EntryBlock>,
    /// Entries successfully sent per shard; without recovery, a shard
    /// found dead forfeits its whole count (such workers die before
    /// consuming anything, via [`crate::FaultPlan::dropped`], so the
    /// queue *is* the loss).
    sent: Vec<u64>,
    /// Memoized raw-shape → `(Arc<GroundRule>, shard)` routing.
    routes: RouteMemo,
    matcher: Arc<PolicyMatcher>,
    epoch: u64,
    window_secs: Option<i64>,
    /// Latest event time among accepted entries — the stream's watermark
    /// (`None` until the first acceptance). Every accepted entry also
    /// reaches the sink, so the window derived from it covers exactly
    /// what the sink holds.
    watermark: Option<i64>,
    /// Channel capacity in *blocks* (config capacity ÷ block size).
    block_capacity: usize,
    block_size: usize,
    /// Cleared block buffers coming back from the workers; drained
    /// before allocating a fresh buffer for the next pending block.
    recycle_tx: Sender<BlockStorage>,
    recycle_rx: Receiver<BlockStorage>,
    /// Live copy of the fault plan; recovery disarms a shard's script
    /// when it respawns the worker, so each injected fault fires once.
    faults: FaultPlan,
    checkpoint_interval: Option<u64>,
    /// Latest checkpoint per shard (recovery mode only).
    checkpoints: Vec<Option<ShardCheckpoint>>,
    /// Per-shard journal of entries shipped since the shard's last
    /// checkpoint — exactly what a replacement worker must
    /// replay on top of the checkpoint to reach the present. Appended
    /// block-at-a-time, after the block's send succeeds.
    journal: Vec<Vec<Arc<GroundRule>>>,
    since_checkpoint: Vec<u64>,
    recoveries: u64,
    sink: Option<AuditStore>,
    ingested: u64,
    poisoned: u64,
    refused: u64,
    /// Metric and span handles (no-ops unless the config installed a
    /// live registry via [`StreamConfig::observability`]).
    obs: StreamObs,
}

impl StreamEngine {
    /// Starts `config.shards` workers classifying under `matcher`.
    pub fn start(config: StreamConfig, matcher: PolicyMatcher) -> Self {
        let matcher = Arc::new(matcher);
        let obs = StreamObs::new(&config.metrics, config.tracer.clone(), config.shards);
        let block_size = config.block_size.max(1);
        let block_capacity = (config.channel_capacity / block_size).max(1);
        let (recycle_tx, recycle_rx) = bounded(config.shards * (block_capacity + 2));
        let shards = config.shards;
        let mut engine = Self {
            senders: vec![None; shards],
            handles: (0..shards).map(|_| None).collect(),
            pending: (0..shards)
                .map(|_| EntryBlock::with_capacity(block_size))
                .collect(),
            sent: vec![0; shards],
            routes: RouteMemo::new(shards),
            matcher,
            epoch: 0,
            window_secs: config.window_secs,
            watermark: None,
            block_capacity,
            block_size,
            recycle_tx,
            recycle_rx,
            faults: config.faults,
            checkpoint_interval: config.checkpoint_interval,
            checkpoints: vec![None; shards],
            journal: vec![Vec::new(); shards],
            since_checkpoint: vec![0; shards],
            recoveries: 0,
            sink: None,
            ingested: 0,
            poisoned: 0,
            refused: 0,
            obs,
        };
        for shard in 0..shards {
            engine.spawn_worker(shard, format!("prima-stream-{shard}"), None);
        }
        engine
    }

    /// Spawns `shard`'s worker under the current matcher and fault plan,
    /// seeded from `seed` (recovery) or fresh, and installs its channel.
    fn spawn_worker(&mut self, shard: usize, name: String, seed: Option<ShardCheckpoint>) {
        let (tx, rx) = bounded(self.block_capacity);
        let (m, faults) = (Arc::clone(&self.matcher), self.faults.clone());
        let (obs, recycle) = (self.obs.shards[shard].clone(), self.recycle_tx.clone());
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || run_shard(shard, rx, m, faults, seed, obs, recycle))
            .expect("spawn shard worker");
        self.senders[shard] = Some(tx);
        self.handles[shard] = Some(handle);
    }

    /// Attaches a durable sink: every accepted entry is also appended to
    /// `store` (typically a store registered with the system's audit
    /// federation, so batch refinement sees the streamed trail).
    pub fn with_sink(mut self, store: AuditStore) -> Self {
        self.sink = Some(store);
        self
    }

    /// The sink store, if attached.
    pub fn sink(&self) -> Option<&AuditStore> {
        self.sink.as_ref()
    }

    /// Number of shards (live or dead).
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The configured block size (entries per shipped block).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Grounds and routes one entry into its shard's pending block,
    /// shipping the block when it reaches `block_size` (a full channel
    /// then blocks the producer — backpressure, not buffering). With
    /// recovery armed, a flush that hits a dead shard triggers an
    /// immediate respawn-and-replay and the block is retried, so nothing
    /// is lost.
    pub fn ingest(&mut self, entry: &AuditEntry) -> IngestOutcome {
        let Some((ground, shard)) = self.routes.resolve(entry) else {
            self.poisoned += 1;
            self.obs.poisoned.inc();
            return IngestOutcome::Poisoned;
        };
        if self.senders[shard].is_none() {
            if self.checkpoint_interval.is_some() {
                self.recover(shard);
            } else {
                self.refused += 1;
                self.obs.lost.inc();
                return IngestOutcome::Lost;
            }
        }
        if let Some(sink) = &self.sink {
            // The sink refuses exactly the entries that do not ground,
            // and those were counted as poisoned above.
            sink.append(entry)
                .expect("grounded entries pass the append check");
        }
        self.ingested += 1;
        self.watermark = Some(self.watermark.map_or(entry.time, |w| w.max(entry.time)));
        self.pending[shard].push(ground);
        if self.pending[shard].len() >= self.block_size {
            self.flush_shard(shard);
        }
        IngestOutcome::Accepted
    }

    /// Ships `shard`'s pending block, if any. All barrier paths call
    /// this first, so control messages always land on block boundaries.
    fn flush_shard(&mut self, shard: usize) {
        if self.pending[shard].is_empty() {
            return;
        }
        let storage = self
            .recycle_rx
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.block_size));
        let block = std::mem::replace(&mut self.pending[shard], EntryBlock::from_storage(storage));
        self.ship(shard, block);
    }

    /// Delivers one block, recovering-and-retrying once if the shard is
    /// found dead and recovery is armed; otherwise the block is forfeit.
    fn ship(&mut self, shard: usize, mut block: EntryBlock) {
        let entries = block.len() as u64;
        // One trace per shipped block: the root covers the flush and
        // send; the context stamped onto the block lets the shard
        // worker's span join the same trace on the far side of the
        // channel hop.
        let mut root = self.obs.tracer.root_span("stream.block");
        root.field("shard", shard);
        root.field("entries", entries);
        block.stamp(root.context());
        // `ingested` counts acceptance; the metric is bumped here, once
        // per block, and barriers flush first — so the counter has
        // caught up by the time any snapshot reads it.
        self.obs.ingested.add(entries);
        // Journal the block *before* the send consumes it, but append
        // only after the send succeeds: a failed send triggers recovery,
        // whose replay must not include the very block being retried.
        let backup = self
            .checkpoint_interval
            .is_some()
            .then(|| block.entries().to_vec());
        match self.send_block(shard, block) {
            Ok(()) => self.settle(shard, entries, backup),
            Err(block) => {
                // A dead shard at delivery time is always worth a trace.
                root.mark_interesting();
                if self.checkpoint_interval.is_some() {
                    self.recover(shard);
                    match self.send_block(shard, block) {
                        Ok(()) => self.settle(shard, entries, backup),
                        Err(_) => {
                            root.field("outcome", "forfeit");
                            self.forfeit(entries);
                        }
                    }
                } else {
                    root.field("outcome", "forfeit");
                    self.forfeit(entries);
                }
            }
        }
    }

    /// One send attempt; a disconnect marks the shard dead and hands the
    /// block back.
    fn send_block(&mut self, shard: usize, block: EntryBlock) -> Result<(), EntryBlock> {
        let Some(tx) = self.senders[shard].as_ref() else {
            return Err(block);
        };
        let entries = block.len();
        match tx.send(ShardMsg::Block(block)) {
            Ok(()) => {
                // Post-send channel occupancy (in blocks): the closest
                // cheap proxy for "how far behind is this worker",
                // updated once per flush rather than once per entry.
                self.obs.queue_depth[shard].set(tx.len() as f64);
                self.obs.blocks_flushed.inc();
                self.obs.block_fill.observe(entries as f64);
                Ok(())
            }
            Err(crossbeam::channel::SendError(msg)) => {
                self.senders[shard] = None;
                match msg {
                    ShardMsg::Block(block) => Err(block),
                    _ => unreachable!("send_block only ships blocks"),
                }
            }
        }
    }

    /// Post-delivery bookkeeping for one block of `entries` entries.
    fn settle(&mut self, shard: usize, entries: u64, backup: Option<Vec<Arc<GroundRule>>>) {
        self.sent[shard] += entries;
        if let Some(journaled) = backup {
            self.journal[shard].extend(journaled);
            self.since_checkpoint[shard] += entries;
            if self.since_checkpoint[shard] >= self.checkpoint_interval.unwrap_or(u64::MAX) {
                self.checkpoint_shard(shard);
            }
        }
    }

    /// Counts a whole undeliverable block as lost.
    fn forfeit(&mut self, entries: u64) {
        self.refused += entries;
        self.obs.lost.add(entries);
    }

    /// Waits for a barrier reply without risking a hang. A worker that
    /// crashes *after* the barrier message was enqueued leaves the
    /// message — and the reply sender inside it — buffered in a queue
    /// the engine's own sender keeps alive, so a plain blocking `recv()`
    /// would never see a disconnect. Instead the wait is a sequence of
    /// long blocking strides (a condvar park, not a poll — checkpoint
    /// waits no longer burn a core) with a worker-liveness check
    /// between strides as the effective deadline: a finished worker
    /// gets one final non-blocking look (it may have replied just
    /// before dying), a live worker's reply is guaranteed eventually by
    /// channel FIFO, so no wall-clock cutoff is needed — or safe, since
    /// declaring a live-but-slow worker dead would trigger a wrongful
    /// recovery.
    fn await_reply<T>(&self, shard: usize, reply_rx: &Receiver<T>) -> Option<T> {
        const STRIDE: Duration = Duration::from_millis(50);
        loop {
            match reply_rx.recv_timeout(STRIDE) {
                Ok(v) => return Some(v),
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    let finished = match self.handles[shard].as_ref() {
                        Some(h) => h.is_finished(),
                        None => true,
                    };
                    if finished {
                        return reply_rx.try_recv().ok();
                    }
                }
            }
        }
    }

    /// Takes a checkpoint barrier on `shard`: the reply reflects every
    /// entry sent before it (same-FIFO ordering), after which the
    /// journal up to the barrier is no longer needed. A shard found dead
    /// at the barrier is recovered instead; its journal stays armed.
    /// Callers ensure the shard's pending block was flushed first, so
    /// checkpoints always sit on block boundaries.
    fn checkpoint_shard(&mut self, shard: usize) {
        // The span and histogram cover the whole barrier round trip,
        // including a recovery taken in its place.
        let _span = self
            .obs
            .tracer
            .span("stream.checkpoint")
            .with_field("shard", shard);
        let started = std::time::Instant::now();
        self.checkpoint_barrier(shard);
        self.obs
            .checkpoint_seconds
            .observe_duration(started.elapsed());
    }

    fn checkpoint_barrier(&mut self, shard: usize) {
        let (reply_tx, reply_rx) = bounded(1);
        let sent = match self.senders[shard].as_ref() {
            Some(tx) => tx.send(ShardMsg::Checkpoint { reply: reply_tx }).is_ok(),
            None => false,
        };
        if !sent {
            self.senders[shard] = None;
            self.recover(shard);
            return;
        }
        match self.await_reply(shard, &reply_rx) {
            Some(ckpt) => {
                self.checkpoints[shard] = Some(ckpt);
                self.journal[shard].clear();
                self.since_checkpoint[shard] = 0;
            }
            None => {
                self.senders[shard] = None;
                self.recover(shard);
            }
        }
    }

    /// Respawns a dead shard worker, seeds it from its last checkpoint,
    /// and replays the journal of entries accepted since — re-chunked
    /// into blocks, so the replacement ends up in the exact state the
    /// dead worker would have reached, including its hit/miss books.
    /// The shard's fault script is disarmed first so an injected crash
    /// fires once rather than killing every replacement.
    fn recover(&mut self, shard: usize) {
        let _span = self
            .obs
            .tracer
            .span("stream.recover")
            .with_field("shard", shard)
            .with_field("replayed", self.journal[shard].len());
        let started = std::time::Instant::now();
        self.senders[shard] = None;
        if let Some(h) = self.handles[shard].take() {
            let _ = h.join();
        }
        self.faults.clear_shard(shard);
        let seed = self.checkpoints[shard].clone();
        let seed_epoch = seed.as_ref().map_or(0, |c| c.epoch);
        self.spawn_worker(
            shard,
            format!("prima-stream-{shard}-r{}", self.recoveries),
            seed,
        );
        let tx = self.senders[shard].as_ref().expect("worker just spawned");
        // The checkpoint may predate a policy refresh the dead worker
        // never installed; re-broadcast the current matcher before the
        // replay so replayed entries classify under the live epoch.
        if seed_epoch < self.epoch {
            let _ = tx.send(ShardMsg::UpdatePolicy {
                epoch: self.epoch,
                matcher: Arc::clone(&self.matcher),
            });
        }
        for chunk in self.journal[shard].chunks(self.block_size) {
            let _ = tx.send(ShardMsg::Block(EntryBlock::from_entries(chunk.to_vec())));
        }
        self.recoveries += 1;
        self.obs.recoveries.inc();
        self.obs
            .recovery_seconds
            .observe_duration(started.elapsed());
    }

    /// Ingests a batch, returning how many were accepted.
    pub fn ingest_all<'a, I: IntoIterator<Item = &'a AuditEntry>>(&mut self, entries: I) -> usize {
        entries
            .into_iter()
            .filter(|e| self.ingest(e) == IngestOutcome::Accepted)
            .count()
    }

    /// One snapshot barrier on `shard`; a disconnect marks it dead.
    fn barrier(&mut self, shard: usize) -> Option<ShardState> {
        let (reply_tx, reply_rx) = bounded(1);
        let tx = self.senders[shard].as_ref()?;
        if tx.send(ShardMsg::Snapshot { reply: reply_tx }).is_err() {
            self.senders[shard] = None;
            return None;
        }
        let state = self.await_reply(shard, &reply_rx);
        if state.is_none() {
            self.senders[shard] = None;
        }
        state
    }

    /// Flush `shard`'s pending block, then barrier it, recovering-and-
    /// retrying once if it is found dead and recovery is armed.
    fn barrier_or_recover(&mut self, shard: usize) -> Option<ShardState> {
        self.flush_shard(shard);
        if let Some(state) = self.barrier(shard) {
            return Some(state);
        }
        if self.checkpoint_interval.is_some() {
            self.recover(shard);
            return self.barrier(shard);
        }
        None
    }

    /// Takes a consistent cut: each shard's partial block is flushed,
    /// then a barrier message is enqueued behind it on every live shard,
    /// and the replies are merged into one [`StreamSnapshot`]. With
    /// recovery armed, a shard found dead at the barrier is respawned
    /// from its checkpoint and replayed first, so the cut reflects every
    /// accepted entry.
    pub fn snapshot(&mut self) -> StreamSnapshot {
        let mut states = Vec::new();
        let mut health = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            match self.barrier_or_recover(shard) {
                Some(state) => {
                    health.push(ShardHealth::Live);
                    states.push(state);
                }
                None => health.push(ShardHealth::Dead),
            }
        }

        let mut totals = StreamTotals::default();
        let mut cache = CacheStats::default();
        let mut processed = 0u64;
        let mut epoch = self.epoch;
        let mut patterns = Vec::with_capacity(states.len());
        for state in states {
            totals.merge(&state.totals);
            cache.merge(&state.cache);
            processed += state.processed;
            epoch = epoch.min(state.epoch);
            patterns.push(state.patterns);
        }
        // A dead shard's queue is forfeit: everything sent to it counts
        // as lost, alongside blocks it refused outright.
        let queue_lost: u64 = health
            .iter()
            .zip(&self.sent)
            .filter(|(h, _)| **h == ShardHealth::Dead)
            .map(|(_, n)| *n)
            .sum();
        StreamSnapshot {
            coverage: merge_reports(patterns),
            totals,
            cache,
            window: self.window(),
            epoch,
            processed,
            health,
            ingested: self.ingested,
            poisoned: self.poisoned,
            lost: self.refused + queue_lost,
            recoveries: self.recoveries,
        }
    }

    /// The half-open trailing window `[watermark − window_secs + 1,
    /// watermark + 1)`: the last `window_secs` seconds of event time,
    /// inclusive of the watermark event.
    fn window(&self) -> Option<TrainingWindow> {
        let (secs, watermark) = (self.window_secs?, self.watermark?);
        Some(TrainingWindow::new(
            watermark.saturating_sub(secs).saturating_add(1),
            watermark.saturating_add(1),
        ))
    }

    /// Flushes pending blocks and waits until every live shard has
    /// consumed its queue (the same barrier mechanism as
    /// [`Self::snapshot`], with the state replies discarded). Returns
    /// the number of live shards that confirmed.
    pub fn drain(&mut self) -> usize {
        let mut confirmed = 0;
        for shard in 0..self.senders.len() {
            if self.barrier_or_recover(shard).is_some() {
                confirmed += 1;
            }
        }
        confirmed
    }

    /// Installs a refined policy: flushes pending blocks (they classify
    /// under the epoch they were ingested in), bumps the epoch,
    /// re-indexes under the same vocabulary, and broadcasts the new
    /// matcher to every live shard (each re-labels the verdicts its
    /// counters hold).
    pub fn refresh_policy(&mut self, policy: &Policy) {
        for shard in 0..self.senders.len() {
            self.flush_shard(shard);
        }
        self.epoch += 1;
        let matcher = Arc::new(PolicyMatcher::with_shared_vocab(
            policy,
            Arc::clone(self.matcher.vocab()),
        ));
        self.matcher = Arc::clone(&matcher);
        for shard in 0..self.senders.len() {
            let Some(tx) = self.senders[shard].as_ref() else {
                continue;
            };
            let msg = ShardMsg::UpdatePolicy {
                epoch: self.epoch,
                matcher: Arc::clone(&matcher),
            };
            if tx.send(msg).is_err() {
                self.senders[shard] = None;
                if self.checkpoint_interval.is_some() {
                    // The replacement is seeded from a pre-refresh
                    // checkpoint, so recovery re-broadcasts the matcher
                    // just installed above.
                    self.recover(shard);
                }
            }
        }
    }

    /// The current policy epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Shard workers respawned from a checkpoint so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Drains, takes a final snapshot, then stops and joins every
    /// worker.
    pub fn shutdown(mut self) -> StreamSnapshot {
        let snapshot = self.snapshot();
        self.stop();
        snapshot
    }

    fn stop(&mut self) {
        for shard in 0..self.senders.len() {
            self.flush_shard(shard);
        }
        for sender in self.senders.iter_mut() {
            if let Some(tx) = sender.take() {
                let _ = tx.send(ShardMsg::Shutdown);
            }
        }
        for handle in self.handles.iter_mut() {
            if let Some(h) = handle.take() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for StreamEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use prima_model::samples::figure_3_policy_store;
    use prima_vocab::samples::figure_1;
    use std::time::Duration;

    fn engine(config: StreamConfig) -> StreamEngine {
        let matcher = PolicyMatcher::new(&figure_3_policy_store(), &figure_1());
        StreamEngine::start(config, matcher)
    }

    fn entry(time: i64, data: &str, purpose: &str, who: &str) -> AuditEntry {
        AuditEntry::regular(time, "u1", data, purpose, who)
    }

    #[test]
    fn snapshot_counts_and_classifies() {
        let mut eng = engine(StreamConfig::with_shards(2));
        assert_eq!(
            eng.ingest(&entry(1, "referral", "treatment", "nurse")),
            IngestOutcome::Accepted
        );
        assert_eq!(
            eng.ingest(&entry(2, "referral", "treatment", "nurse")),
            IngestOutcome::Accepted
        );
        assert_eq!(
            eng.ingest(&entry(3, "psychiatry", "treatment", "nurse")),
            IngestOutcome::Accepted
        );
        let snap = eng.snapshot();
        assert_eq!(snap.processed, 3);
        assert_eq!(snap.totals.total_entries, 3);
        assert_eq!(snap.totals.covered_entries, 2);
        assert_eq!(snap.coverage.target_cardinality, 2);
        assert_eq!(snap.coverage.overlap, 1);
        assert_eq!(snap.health, vec![ShardHealth::Live; 2]);
        assert_eq!(snap.ingested, 3);
        assert_eq!(snap.poisoned, 0);
    }

    #[test]
    fn snapshot_is_identical_across_block_sizes() {
        let trail: Vec<AuditEntry> = [
            ("referral", "treatment", "nurse"),
            ("psychiatry", "treatment", "nurse"),
            ("address", "billing", "clerk"),
        ]
        .iter()
        .cycle()
        .take(25)
        .enumerate()
        .map(|(i, (d, p, a))| entry(i as i64, d, p, a))
        .collect();
        let mut baseline = engine(StreamConfig::with_shards(2).block_size(1));
        baseline.ingest_all(&trail);
        let want = baseline.shutdown();
        for block_size in [3, 7, 64] {
            let mut eng = engine(StreamConfig::with_shards(2).block_size(block_size));
            eng.ingest_all(&trail);
            let got = eng.shutdown();
            assert_eq!(got.coverage, want.coverage, "block_size {block_size}");
            assert_eq!(got.totals, want.totals);
            assert_eq!(got.cache, want.cache, "hit/miss books are invariant too");
            assert_eq!(got.processed, want.processed);
        }
    }

    #[test]
    fn poisoned_entries_are_counted_not_fatal() {
        let mut eng = engine(StreamConfig::with_shards(1));
        let bad = entry(1, "", "treatment", "nurse");
        assert_eq!(eng.ingest(&bad), IngestOutcome::Poisoned);
        assert_eq!(
            eng.ingest(&entry(2, "referral", "treatment", "nurse")),
            IngestOutcome::Accepted
        );
        let snap = eng.shutdown();
        assert_eq!(snap.poisoned, 1);
        assert_eq!(snap.processed, 1);
    }

    #[test]
    fn dropped_shard_degrades_without_deadlock() {
        // Small blocks so the death is discovered mid-stream and later
        // ingests for the dead shard are refused outright.
        let config = StreamConfig::with_shards(2)
            .channel_capacity(4)
            .block_size(4)
            .faults(FaultPlan::dropped(0));
        let mut eng = engine(config);
        // Enough distinct shapes that both shards get traffic.
        let shapes = [
            ("referral", "treatment", "nurse"),
            ("psychiatry", "treatment", "nurse"),
            ("address", "billing", "clerk"),
            ("prescription", "billing", "clerk"),
            ("referral", "registration", "nurse"),
            ("prescription", "treatment", "nurse"),
        ];
        let mut refused = 0;
        for (i, (d, p, a)) in shapes.iter().cycle().take(60).enumerate() {
            if eng.ingest(&entry(i as i64, d, p, a)) == IngestOutcome::Lost {
                refused += 1;
            }
        }
        let snap = eng.shutdown();
        // Entries buffered or queued before the disconnect became
        // visible are forfeit too, so `lost` can exceed the refused
        // count — but the books must balance exactly.
        assert!(snap.lost >= refused, "queue of the dead shard is forfeit");
        assert!(
            refused > 0,
            "the dead shard refuses entries once found dead"
        );
        assert!(snap.lost > 0, "some shapes must hash to the dead shard");
        assert_eq!(
            snap.health
                .iter()
                .filter(|h| **h == ShardHealth::Dead)
                .count(),
            1
        );
        assert_eq!(snap.processed + snap.lost, 60);
    }

    #[test]
    fn slow_shard_applies_backpressure_but_completes() {
        // Two-entry blocks over a two-entry channel: one block in
        // flight, so the producer stalls against the sleeping worker.
        let config = StreamConfig::with_shards(1)
            .channel_capacity(2)
            .block_size(2)
            .faults(FaultPlan::slow(0, Duration::from_millis(1)));
        let mut eng = engine(config);
        for i in 0..20 {
            assert_eq!(
                eng.ingest(&entry(i, "referral", "treatment", "nurse")),
                IngestOutcome::Accepted
            );
        }
        let snap = eng.shutdown();
        assert_eq!(snap.processed, 20);
    }

    #[test]
    fn refresh_policy_relabels_and_bumps_epoch() {
        let mut eng = engine(StreamConfig::with_shards(2));
        eng.ingest(&entry(1, "referral", "registration", "nurse"));
        let before = eng.snapshot();
        assert_eq!(before.totals.covered_entries, 0);
        assert_eq!(before.cache.invalidations, 0);

        // Refine: add the pattern the paper's Section 5 round accepts.
        let mut policy = figure_3_policy_store();
        policy.push(prima_model::Rule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]));
        eng.refresh_policy(&policy);
        let after = eng.snapshot();
        assert_eq!(after.epoch, 1);
        assert_eq!(after.totals.covered_entries, 1, "history re-labeled");
        assert_eq!(after.cache.misses, 1);
        // Same shape again: the counters still hold it, with the verdict
        // the refresh flipped, so this is a hit rather than a new probe.
        eng.ingest(&entry(2, "referral", "registration", "nurse"));
        let last = eng.shutdown();
        assert_eq!(last.totals.covered_entries, 2);
        assert_eq!(last.cache.misses, 1, "no probe after the refresh");
        assert_eq!(last.cache.hits, before.cache.hits + 1);

        // The incremental totals are the batch entry-weighted coverage of
        // the same trail under the refreshed policy.
        let trail: Vec<GroundRule> = (1..=2)
            .map(|t| {
                entry(t, "referral", "registration", "nurse")
                    .to_ground_rule()
                    .unwrap()
            })
            .collect();
        let batch =
            prima_model::CoverageEngine::default().entry_coverage(&policy, &trail, &figure_1());
        assert_eq!(last.totals.covered_entries as usize, batch.covered_entries);
        assert_eq!(last.totals.total_entries as usize, batch.total_entries);
    }

    #[test]
    fn sink_receives_accepted_entries() {
        let store = AuditStore::new("stream-sink");
        let mut eng = engine(StreamConfig::with_shards(2)).with_sink(store.clone());
        eng.ingest(&entry(1, "referral", "treatment", "nurse"));
        eng.ingest(&entry(2, "", "treatment", "nurse")); // poisoned: not sunk
        eng.drain();
        assert_eq!(store.len(), 1);
        assert_eq!(eng.sink().unwrap().len(), 1);
    }

    #[test]
    fn windowed_snapshot_feeds_training_window() {
        let mut eng = engine(StreamConfig::with_shards(2).window_secs(10));
        eng.ingest(&entry(100, "referral", "treatment", "nurse"));
        eng.ingest(&entry(200, "psychiatry", "treatment", "nurse"));
        let snap = eng.shutdown();
        let w = snap.window.expect("window tracking on");
        assert!(w.contains(200));
        assert!(!w.contains(100), "outside the trailing window");
    }

    #[test]
    fn window_reaches_the_newest_entry_the_sink_holds() {
        // The entry at t=200 routes to a dead shard (recovery off): it is
        // accepted into the sink, which the windowed round trains on, and
        // then lost. The window must still end at it.
        let shard_of = |e: &AuditEntry| crate::route::shard_of(&e.to_ground_rule().unwrap(), 2);
        let first = entry(100, "referral", "treatment", "nurse");
        let dead = 1 - shard_of(&first);
        let second = (0..)
            .map(|i| entry(200, &format!("record-{i}"), "treatment", "nurse"))
            .find(|e| shard_of(e) == dead)
            .unwrap();
        let store = AuditStore::new("stream-sink");
        let config = StreamConfig::with_shards(2)
            .window_secs(10)
            .faults(FaultPlan::dropped(dead));
        let mut eng = engine(config).with_sink(store.clone());
        assert_eq!(eng.ingest(&first), IngestOutcome::Accepted);
        assert_eq!(eng.ingest(&second), IngestOutcome::Accepted);
        let w = eng.shutdown().window.expect("window tracking on");
        assert_eq!(store.len(), 2, "the sink holds both entries");
        assert!(w.contains(200), "window {w:?} misses the newest entry");
        assert!(!w.contains(100));
    }

    #[test]
    fn recovery_replays_crashed_shard_bit_for_bit() {
        // Same traffic through a fault-free engine and a recovery-armed
        // engine whose shard 0 crashes mid-stream — mid-block, since the
        // crash point is not a multiple of the block size: the final
        // snapshots must agree exactly (coverage, totals, cache books,
        // processed).
        let shapes = [
            ("referral", "treatment", "nurse"),
            ("psychiatry", "treatment", "nurse"),
            ("address", "billing", "clerk"),
            ("prescription", "billing", "clerk"),
            ("referral", "registration", "nurse"),
            ("prescription", "treatment", "nurse"),
        ];
        let mut clean = engine(
            StreamConfig::with_shards(2)
                .block_size(4)
                .checkpoint_every(5),
        );
        let mut faulty = engine(
            StreamConfig::with_shards(2)
                .block_size(4)
                .checkpoint_every(5)
                .faults(FaultPlan::none().with_crash_after(0, 7)),
        );
        for (i, (d, p, a)) in shapes.iter().cycle().take(60).enumerate() {
            let e = entry(i as i64, d, p, a);
            assert_eq!(clean.ingest(&e), IngestOutcome::Accepted);
            assert_eq!(faulty.ingest(&e), IngestOutcome::Accepted, "entry {i}");
        }
        let want = clean.shutdown();
        let got = faulty.shutdown();
        assert!(got.recoveries >= 1, "the crash must have been recovered");
        assert_eq!(got.health, vec![ShardHealth::Live; 2]);
        assert_eq!(got.lost, 0, "recovery leaves nothing forfeit");
        assert_eq!(got.processed, want.processed);
        assert_eq!(got.totals, want.totals);
        assert_eq!(got.cache, want.cache, "even the hit/miss books match");
        assert_eq!(got.coverage, want.coverage);
    }

    #[test]
    fn recovery_restarts_shard_dropped_at_startup() {
        let mut eng = engine(
            StreamConfig::with_shards(2)
                .channel_capacity(4)
                .block_size(4)
                .checkpoint_every(4)
                .faults(FaultPlan::dropped(0)),
        );
        let shapes = [
            ("referral", "treatment", "nurse"),
            ("psychiatry", "treatment", "nurse"),
            ("address", "billing", "clerk"),
            ("prescription", "billing", "clerk"),
        ];
        for (i, (d, p, a)) in shapes.iter().cycle().take(40).enumerate() {
            assert_eq!(
                eng.ingest(&entry(i as i64, d, p, a)),
                IngestOutcome::Accepted
            );
        }
        let snap = eng.shutdown();
        assert!(snap.recoveries >= 1);
        assert_eq!(snap.lost, 0);
        assert_eq!(snap.processed, 40, "every accepted entry was processed");
        assert_eq!(snap.totals.total_entries, 40);
    }

    #[test]
    fn composed_slow_and_dropped_faults_both_fire() {
        // Satellite check: one plan arms a slow consumer on shard 1 AND a
        // dead consumer on shard 0; recovery revives shard 0 while shard
        // 1's backpressure still applies, and the books balance.
        let mut eng = engine(
            StreamConfig::with_shards(2)
                .channel_capacity(2)
                .block_size(2)
                .checkpoint_every(8)
                .faults(
                    FaultPlan::none()
                        .with_dropped(0)
                        .with_slow(1, Duration::from_millis(1)),
                ),
        );
        let shapes = [
            ("referral", "treatment", "nurse"),
            ("psychiatry", "treatment", "nurse"),
            ("address", "billing", "clerk"),
            ("prescription", "billing", "clerk"),
            ("referral", "registration", "nurse"),
            ("prescription", "treatment", "nurse"),
        ];
        for (i, (d, p, a)) in shapes.iter().cycle().take(36).enumerate() {
            assert_eq!(
                eng.ingest(&entry(i as i64, d, p, a)),
                IngestOutcome::Accepted
            );
        }
        let snap = eng.shutdown();
        assert!(snap.recoveries >= 1, "dropped shard recovered");
        assert_eq!(snap.processed, 36, "slow shard finished under pressure");
        assert_eq!(snap.lost, 0);
    }

    #[test]
    fn recovery_preserves_policy_refresh_across_crash() {
        // A worker that crashes holding a pre-refresh checkpoint must be
        // replayed under the *current* policy.
        let mut eng = engine(
            StreamConfig::with_shards(1)
                .checkpoint_every(2)
                .faults(FaultPlan::none().with_crash_after(0, 3)),
        );
        for i in 0..2 {
            eng.ingest(&entry(i, "referral", "registration", "nurse"));
        }
        let mut policy = figure_3_policy_store();
        policy.push(prima_model::Rule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]));
        eng.refresh_policy(&policy);
        for i in 2..8 {
            eng.ingest(&entry(i, "referral", "registration", "nurse"));
        }
        let snap = eng.shutdown();
        assert!(snap.recoveries >= 1);
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.processed, 8);
        assert_eq!(snap.totals.covered_entries, 8, "replay used the new policy");
    }

    #[test]
    fn instrumented_engine_keeps_books_that_match_the_snapshot() {
        use prima_obs::{MetricsRegistry, Tracer};
        let registry = MetricsRegistry::new();
        let tracer = Tracer::new();
        let mut eng = engine(
            StreamConfig::with_shards(2)
                .checkpoint_every(3)
                .observability(registry.clone(), tracer.clone()),
        );
        let shapes = [
            ("referral", "treatment", "nurse"),
            ("psychiatry", "treatment", "nurse"),
            ("address", "billing", "clerk"),
        ];
        for (i, (d, p, a)) in shapes.iter().cycle().take(12).enumerate() {
            eng.ingest(&entry(i as i64, d, p, a));
        }
        eng.ingest(&entry(99, "", "treatment", "nurse")); // poisoned
        let snap = eng.shutdown();

        // Counters and snapshot fields are two views of the same events.
        let value = |name: &str| -> u64 {
            registry
                .gather()
                .iter()
                .find(|f| f.name == name)
                .map(|f| {
                    f.samples
                        .iter()
                        .map(|s| match s.value {
                            prima_obs::registry::SampleValue::Counter(v) => v,
                            _ => 0,
                        })
                        .sum()
                })
                .unwrap_or(0)
        };
        assert_eq!(value("prima_stream_ingested_total"), snap.ingested);
        assert_eq!(value("prima_stream_poisoned_total"), snap.poisoned);
        assert_eq!(value("prima_stream_processed_total"), snap.processed);
        let hits = value("prima_stream_cache_hits_total");
        let misses = value("prima_stream_cache_misses_total");
        assert_eq!(hits, snap.cache.hits);
        assert_eq!(misses, snap.cache.misses);
        assert_eq!(hits + misses, snap.processed);

        // Every accepted entry traveled in some flushed block.
        assert!(value("prima_stream_blocks_flushed_total") >= 1);
        let fills = registry.histograms("prima_stream_block_fill_entries");
        assert_eq!(
            fills[0].1.sum as u64, snap.ingested,
            "block fills sum to ingested"
        );

        // Checkpoints at interval 3 over 12 entries: at least one barrier
        // landed in the timing histogram.
        let ckpt = registry.histograms("prima_stream_checkpoint_seconds");
        assert!(ckpt[0].1.count() >= 1, "checkpoint timings recorded");

        let spans = tracer.drain();
        assert!(spans.iter().any(|s| s.name == "stream.checkpoint"));
    }

    #[test]
    fn instrumented_recovery_times_the_replay() {
        use prima_obs::{MetricsRegistry, Tracer};
        let registry = MetricsRegistry::new();
        let tracer = Tracer::new();
        let mut eng = engine(
            StreamConfig::with_shards(1)
                .checkpoint_every(2)
                .faults(FaultPlan::none().with_crash_after(0, 3))
                .observability(registry.clone(), tracer.clone()),
        );
        for i in 0..8 {
            assert_eq!(
                eng.ingest(&entry(i, "referral", "treatment", "nurse")),
                IngestOutcome::Accepted
            );
        }
        let snap = eng.shutdown();
        assert!(snap.recoveries >= 1);
        let rec = registry.histograms("prima_stream_recovery_seconds");
        assert_eq!(rec[0].1.count(), snap.recoveries, "one timing per respawn");
        assert!(tracer.drain().iter().any(|s| s.name == "stream.recover"));
    }

    #[test]
    fn a_shipped_block_yields_one_connected_trace_across_the_shard_hop() {
        use prima_obs::{MetricsRegistry, Tracer};
        use std::collections::HashMap;
        let registry = MetricsRegistry::new();
        let tracer = Tracer::new();
        let mut eng = engine(
            StreamConfig::with_shards(2)
                .block_size(4)
                .observability(registry, tracer.clone()),
        );
        let shapes = [
            ("referral", "treatment", "nurse"),
            ("psychiatry", "treatment", "nurse"),
            ("address", "billing", "clerk"),
        ];
        for (i, (d, p, a)) in shapes.iter().cycle().take(24).enumerate() {
            assert_eq!(
                eng.ingest(&entry(i as i64, d, p, a)),
                IngestOutcome::Accepted
            );
        }
        eng.shutdown();

        // Group the traced spans: each shipped block must form one
        // connected trace — a `stream.block` root on the producer thread
        // and a `stream.shard.block` span from the worker thread,
        // parented under it via the context stamped on the block.
        let spans = tracer.drain();
        let mut traces: HashMap<u64, Vec<&prima_obs::SpanRecord>> = HashMap::new();
        for span in spans.iter().filter(|s| s.trace_id != 0) {
            traces.entry(span.trace_id).or_default().push(span);
        }
        assert!(!traces.is_empty(), "shipped blocks were traced");
        let mut hops = 0usize;
        for (trace_id, members) in &traces {
            let roots: Vec<_> = members.iter().filter(|s| s.parent == 0).collect();
            assert_eq!(roots.len(), 1, "trace {trace_id} has exactly one root");
            let root = roots[0];
            assert_eq!(root.name, "stream.block");
            for span in members {
                assert!(
                    span.parent == 0 || span.parent == root.id,
                    "span {} in trace {trace_id} dangles off parent {}",
                    span.name,
                    span.parent
                );
            }
            if let Some(worker) = members.iter().find(|s| s.name == "stream.shard.block") {
                assert_eq!(worker.parent, root.id, "shard span parents under the flush");
                assert!(
                    worker.fields.iter().any(|(k, _)| k == "entries"),
                    "shard span carries its entry count"
                );
                hops += 1;
            }
        }
        assert!(hops > 0, "at least one shard hop joined its block's trace");
    }

    #[test]
    fn drain_confirms_live_shards() {
        let mut eng = engine(StreamConfig::with_shards(3));
        for i in 0..30 {
            eng.ingest(&entry(i, "referral", "treatment", "nurse"));
        }
        assert_eq!(eng.drain(), 3);
    }
}
