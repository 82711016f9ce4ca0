//! Shard workers.
//!
//! Each shard owns a disjoint subset of the distinct ground rules (hash
//! partitioning, decided by the engine) and consumes whole
//! [`EntryBlock`]s: one channel recv per block, then a tight loop over
//! thread-local state. Inside a block, consecutive entries carrying the
//! *same* `Arc<GroundRule>` (detected by pointer identity — free, and
//! the common case since trails arrive bursty) cost one counter lookup.
//! The counters hold each rule's verdict, so the policy matcher runs
//! only for a rule the shard has never seen, and a policy refresh
//! re-labels the held verdicts in place. The hit/miss books are charged
//! exactly as per-entry lookups would have been.
//! Control messages ride the same FIFO channel as blocks, so a
//! `Snapshot` barrier observes exactly the entries sent before it — a
//! consistent cut without stopping the world.

use crate::block::{BlockStorage, EntryBlock};
use crate::counters::{CacheStats, CoverageCounters, PatternStats};
use crate::fault::FaultPlan;
use crate::obs::ShardObs;
use crate::window::SlidingWindow;
use crossbeam::channel::{Receiver, Sender};
use prima_model::{GroundRule, PolicyMatcher};
use std::sync::Arc;

/// Messages a shard worker consumes.
#[derive(Debug)]
pub enum ShardMsg {
    /// A block of grounded entries: `(event time, ground rule)` pairs in
    /// ingestion order.
    Block(EntryBlock),
    /// Epoch barrier: reply with a state snapshot on `reply`.
    Snapshot {
        /// Channel the snapshot is sent back on.
        reply: Sender<ShardState>,
    },
    /// Durability barrier: reply with a full state export on `reply`.
    /// Because it rides the same FIFO channel, the checkpoint covers
    /// exactly the entries sent before it. The engine only emits this
    /// at block boundaries, so a checkpoint never splits a block.
    Checkpoint {
        /// Channel the checkpoint is sent back on.
        reply: Sender<ShardCheckpoint>,
    },
    /// Install a new policy matcher for `epoch` and re-label the
    /// counters under it.
    UpdatePolicy {
        /// The policy epoch the new matcher belongs to.
        epoch: u64,
        /// Matcher compiled from the new policy.
        matcher: Arc<PolicyMatcher>,
    },
    /// Finish outstanding work and exit the worker loop.
    Shutdown,
}

/// Everything needed to rebuild a shard worker mid-stream: counters
/// (with their verdicts), hit/miss books, retained window events, epoch,
/// and the processed count. The engine keeps the latest checkpoint per
/// shard and seeds a replacement worker from it after a crash; replaying
/// the journal of post-checkpoint entries then reproduces the lost state
/// bit-for-bit (same counts, same verdicts, same hit/miss books).
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    /// Per-pattern counters at the barrier.
    pub patterns: Vec<(GroundRule, PatternStats)>,
    /// Hit/miss/invalidation counters.
    pub cache: CacheStats,
    /// Retained trailing-window events, if window tracking is on.
    pub window: Option<Vec<(i64, GroundRule)>>,
    /// Policy epoch the shard was on.
    pub epoch: u64,
    /// Entries processed up to the barrier.
    pub processed: u64,
}

/// One shard's state at a snapshot barrier.
#[derive(Debug)]
pub struct ShardState {
    /// Shard index.
    pub shard: usize,
    /// Per-pattern counters (disjoint across shards).
    pub patterns: Vec<(GroundRule, PatternStats)>,
    /// Entry-weighted totals.
    pub totals: crate::counters::StreamTotals,
    /// Hit/miss counters of the verdict lookups.
    pub cache: CacheStats,
    /// Retained trailing-window events, if window tracking is on.
    pub window: Option<Vec<(i64, GroundRule)>>,
    /// Policy epoch the shard is on.
    pub epoch: u64,
    /// Entries processed so far.
    pub processed: u64,
}

/// Runs one shard worker until `Shutdown`, channel disconnect, or an
/// injected crash. `seed` restores a checkpointed state (recovery
/// respawn); `None` starts fresh at epoch 0. Drained block buffers are
/// offered back on `recycle` (best-effort) so the engine can reuse the
/// allocations.
#[allow(clippy::too_many_arguments)]
pub fn run_shard(
    shard: usize,
    rx: Receiver<ShardMsg>,
    mut matcher: Arc<PolicyMatcher>,
    window_secs: Option<i64>,
    faults: FaultPlan,
    seed: Option<ShardCheckpoint>,
    obs: ShardObs,
    recycle: Sender<BlockStorage>,
) {
    if faults.is_dropped(shard) {
        // Simulated crash: exit before consuming anything, so the
        // engine's sends start failing with a disconnect.
        return;
    }
    let slow = faults.slow_for(shard);
    let crash_after = faults.crash_after_for(shard);

    let (mut stats, mut epoch, mut counters, mut window, mut processed) = match seed {
        Some(ckpt) => {
            let mut window = window_secs.map(SlidingWindow::new);
            if let (Some(w), Some(events)) = (window.as_mut(), ckpt.window) {
                // Replaying the retained events in order rebuilds the
                // same deque and watermark the checkpoint captured.
                for (time, g) in events {
                    w.observe(time, &Arc::new(g));
                }
            }
            (
                ckpt.cache,
                ckpt.epoch,
                CoverageCounters::from_export(ckpt.patterns),
                window,
                ckpt.processed,
            )
        }
        None => (
            CacheStats::default(),
            0,
            CoverageCounters::new(),
            window_secs.map(SlidingWindow::new),
            0u64,
        ),
    };
    let mut processed_here = 0u64;

    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Block(block) => {
                // Far side of the channel hop: restore the trace the
                // engine stamped at flush time, so this span parents
                // under the shipping `stream.block` root.
                let mut span = obs.tracer.span_in("stream.shard.block", block.trace());
                span.field("shard", shard);
                let entries = block.entries();
                let n = entries.len();
                let mut hits = 0u64;
                let mut misses = 0u64;
                let mut done = 0u64;
                let mut crashed = false;
                let mut i = 0;
                while i < n {
                    let ground = &entries[i].1;
                    // Extend the run while the next entry shares the
                    // same rule allocation. A value-equal rule under a
                    // different Arc just starts a new run, whose lookup
                    // is a hit — the books come out identical.
                    let mut j = i + 1;
                    while j < n && Arc::ptr_eq(&entries[j].1, ground) {
                        j += 1;
                    }
                    if let Some(limit) = crash_after {
                        // The injected crash fires after the worker's
                        // `limit`-th entry — possibly mid-run, mid-block.
                        let remaining = limit.saturating_sub(processed_here) as usize;
                        if remaining >= 1 && remaining <= j - i {
                            j = i + remaining;
                            crashed = true;
                        }
                    }
                    let run = (j - i) as u64;
                    if let Some(delay) = slow {
                        for _ in 0..run {
                            std::thread::sleep(delay);
                        }
                    }
                    // An unseen rule is one probe, then `run - 1` hits.
                    let (_, probed) = counters.observe_run(ground, run, |g| matcher.covers(g));
                    let run_misses = u64::from(probed);
                    hits += run - run_misses;
                    misses += run_misses;
                    if let Some(w) = window.as_mut() {
                        for (time, g) in &entries[i..j] {
                            w.observe(*time, g);
                        }
                    }
                    processed += run;
                    processed_here += run;
                    done += run;
                    if crashed {
                        break;
                    }
                    i = j;
                }
                // One metrics flush per block, not per entry.
                obs.processed.add(done);
                obs.cache_hits.add(hits);
                obs.cache_misses.add(misses);
                stats.hits += hits;
                stats.misses += misses;
                span.field("entries", done);
                if crashed {
                    // Simulated mid-block crash: abandon in-memory state,
                    // the rest of this block, and anything still queued,
                    // exactly like a real worker death. The partial span
                    // is worth keeping whatever the sampler thinks.
                    span.field("outcome", "crash");
                    span.mark_interesting();
                    return;
                }
                let _ = recycle.try_send(block.into_storage());
            }
            ShardMsg::Snapshot { reply } => {
                let state = ShardState {
                    shard,
                    patterns: counters.export(),
                    totals: counters.totals(),
                    cache: stats,
                    window: window.as_ref().map(SlidingWindow::export),
                    epoch,
                    processed,
                };
                // The engine may have given up on this snapshot (e.g.
                // timeout elsewhere); a closed reply channel is not the
                // shard's problem.
                let _ = reply.send(state);
            }
            ShardMsg::Checkpoint { reply } => {
                let ckpt = ShardCheckpoint {
                    patterns: counters.export(),
                    cache: stats,
                    window: window.as_ref().map(SlidingWindow::export),
                    epoch,
                    processed,
                };
                let _ = reply.send(ckpt);
            }
            ShardMsg::UpdatePolicy {
                epoch: next,
                matcher: m,
            } => {
                matcher = m;
                // A stale or duplicate epoch is not a new install.
                if next > epoch {
                    epoch = next;
                    stats.invalidations += 1;
                }
                counters.relabel(|g| matcher.covers(g));
            }
            ShardMsg::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use prima_model::{Policy, Rule, StoreTag};
    use prima_vocab::samples::figure_1;

    fn matcher_for(data: &str) -> Arc<PolicyMatcher> {
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[
                ("data", data),
                ("purpose", "treatment"),
                ("authorized", "nurse"),
            ])],
        );
        Arc::new(PolicyMatcher::new(&policy, &figure_1()))
    }

    fn g(data: &str) -> Arc<GroundRule> {
        Arc::new(GroundRule::of(&[
            ("data", data),
            ("purpose", "treatment"),
            ("authorized", "nurse"),
        ]))
    }

    fn block(entries: &[(i64, &Arc<GroundRule>)]) -> ShardMsg {
        let mut b = EntryBlock::with_capacity(entries.len());
        for (t, g) in entries {
            b.push(*t, Arc::clone(g));
        }
        ShardMsg::Block(b)
    }

    fn spawn_worker(
        faults: FaultPlan,
        window_secs: Option<i64>,
        seed: Option<ShardCheckpoint>,
    ) -> (Sender<ShardMsg>, std::thread::JoinHandle<()>) {
        let (tx, rx) = bounded(16);
        let (recycle_tx, _recycle_rx) = bounded(16);
        let handle = std::thread::spawn(move || {
            run_shard(
                0,
                rx,
                matcher_for("referral"),
                window_secs,
                faults,
                seed,
                ShardObs::disabled(),
                recycle_tx,
            );
        });
        (tx, handle)
    }

    #[test]
    fn worker_classifies_and_snapshots() {
        let (tx, handle) = spawn_worker(FaultPlan::none(), Some(60), None);
        let referral = g("referral");
        let psych = g("psychiatry");
        tx.send(block(&[(10, &referral), (11, &referral), (12, &psych)]))
            .unwrap();
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(ShardMsg::Snapshot { reply: reply_tx }).unwrap();
        let state = reply_rx.recv().unwrap();
        assert_eq!(state.processed, 3);
        assert_eq!(state.totals.covered_entries, 2);
        assert_eq!(state.totals.total_entries, 3);
        assert_eq!(state.cache.hits, 1);
        assert_eq!(state.cache.misses, 2);
        assert_eq!(state.window.unwrap().len(), 3);
        tx.send(ShardMsg::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn value_equal_rules_under_distinct_arcs_keep_the_same_books() {
        // Same rule via two Arc allocations: the run detector sees two
        // runs, but the second lookup is a hit — the hit/miss books are
        // exactly what per-entry lookups would have recorded.
        let (tx, handle) = spawn_worker(FaultPlan::none(), None, None);
        let a = g("referral");
        let b = g("referral");
        assert!(!Arc::ptr_eq(&a, &b));
        tx.send(block(&[(1, &a), (2, &a), (3, &b), (4, &b)]))
            .unwrap();
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(ShardMsg::Snapshot { reply: reply_tx }).unwrap();
        let state = reply_rx.recv().unwrap();
        assert_eq!(state.processed, 4);
        assert_eq!(state.cache.misses, 1);
        assert_eq!(state.cache.hits, 3);
        assert_eq!(state.totals.covered_entries, 4);
        tx.send(ShardMsg::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn policy_update_relabels_history() {
        let (tx, handle) = spawn_worker(FaultPlan::none(), None, None);
        let psych = g("psychiatry");
        tx.send(block(&[(1, &psych)])).unwrap();
        tx.send(ShardMsg::UpdatePolicy {
            epoch: 1,
            matcher: matcher_for("psychiatry"),
        })
        .unwrap();
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(ShardMsg::Snapshot { reply: reply_tx }).unwrap();
        let state = reply_rx.recv().unwrap();
        assert_eq!(state.epoch, 1);
        assert_eq!(state.totals.covered_entries, 1, "old entry re-labeled");
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn dropped_shard_exits_immediately() {
        let (tx, rx) = bounded::<ShardMsg>(4);
        let (recycle_tx, _recycle_rx) = bounded(4);
        let handle = std::thread::spawn(move || {
            run_shard(
                2,
                rx,
                matcher_for("referral"),
                None,
                FaultPlan::dropped(2),
                None,
                ShardObs::disabled(),
                recycle_tx,
            );
        });
        handle.join().unwrap();
        // Receiver is gone: sends fail with a disconnect.
        assert!(tx.send(ShardMsg::Shutdown).is_err());
    }

    #[test]
    fn crash_after_fires_mid_block_and_abandons_the_rest() {
        // 5 entries in one block, crash after 2: the worker must die
        // part-way through the block without processing entries 3–5.
        let (tx, handle) = spawn_worker(FaultPlan::none().with_crash_after(0, 2), None, None);
        let referral = g("referral");
        tx.send(block(&[
            (0, &referral),
            (1, &referral),
            (2, &referral),
            (3, &referral),
            (4, &referral),
        ]))
        .unwrap();
        handle.join().unwrap();
        assert!(tx.send(ShardMsg::Shutdown).is_err(), "worker is dead");
    }

    #[test]
    fn drained_blocks_come_back_on_the_recycle_channel() {
        let (tx, rx) = bounded(16);
        let (recycle_tx, recycle_rx) = bounded::<BlockStorage>(16);
        let handle = std::thread::spawn(move || {
            run_shard(
                0,
                rx,
                matcher_for("referral"),
                None,
                FaultPlan::none(),
                None,
                ShardObs::disabled(),
                recycle_tx,
            );
        });
        let referral = g("referral");
        tx.send(block(&[(1, &referral), (2, &referral)])).unwrap();
        tx.send(ShardMsg::Shutdown).unwrap();
        handle.join().unwrap();
        let storage = recycle_rx.try_recv().expect("buffer recycled");
        assert!(storage.is_empty());
        assert!(storage.capacity() >= 2);
    }

    #[test]
    fn checkpoint_roundtrip_restores_state_bit_for_bit() {
        // Run a shard, checkpoint it, kill it, seed a replacement from
        // the checkpoint: the replacement's snapshot must match what the
        // original would have reported — counters, cache books, window,
        // and processed count.
        let (tx, handle) = spawn_worker(FaultPlan::none(), Some(60), None);
        let referral = g("referral");
        let psych = g("psychiatry");
        tx.send(block(&[(10, &referral), (11, &referral), (12, &psych)]))
            .unwrap();
        let (ck_tx, ck_rx) = bounded(1);
        tx.send(ShardMsg::Checkpoint { reply: ck_tx }).unwrap();
        let ckpt = ck_rx.recv().unwrap();
        assert_eq!(ckpt.processed, 3);
        tx.send(ShardMsg::Shutdown).unwrap();
        handle.join().unwrap();

        let (tx2, handle2) = spawn_worker(FaultPlan::none(), Some(60), Some(ckpt));
        let (reply_tx, reply_rx) = bounded(1);
        tx2.send(ShardMsg::Snapshot { reply: reply_tx }).unwrap();
        let state = reply_rx.recv().unwrap();
        assert_eq!(state.processed, 3);
        assert_eq!(state.totals.covered_entries, 2);
        assert_eq!(state.totals.total_entries, 3);
        assert_eq!(state.cache.hits, 1, "hit/miss books survive recovery");
        assert_eq!(state.cache.misses, 2);
        assert_eq!(state.window.as_ref().unwrap().len(), 3);
        // A replayed shape is a hit, as it would have been — even though
        // the restored counters hold a different Arc allocation.
        tx2.send(block(&[(13, &g("referral"))])).unwrap();
        let (reply_tx, reply_rx) = bounded(1);
        tx2.send(ShardMsg::Snapshot { reply: reply_tx }).unwrap();
        assert_eq!(reply_rx.recv().unwrap().cache.hits, 2);
        drop(tx2);
        handle2.join().unwrap();
    }
}
