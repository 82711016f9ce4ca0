//! Sized blocks of grounded entries — the unit of work shipped through
//! the shard channels.
//!
//! The vendored channel is a mutex-guarded queue, so every send/recv
//! costs a lock acquisition and a condvar notify. Shipping one entry per
//! message made that cost *per row*; an [`EntryBlock`] amortizes it (and
//! the queue-depth accounting on the producer side) across
//! `block_size` rows. Ground rules ride as `Arc<GroundRule>` so a block
//! holds one pointer (8 bytes) per entry beyond the shared rule
//! allocations, and a run of identical consecutive shapes — the common
//! case in an audit trail — is detectable in the worker by pointer
//! comparison alone. Event time stays with the producer, which keeps the
//! stream's watermark; shards never need it.
//!
//! Blocks are reusable: a worker that finishes a block hands the cleared
//! backing buffer to a recycle channel the engine drains before
//! allocating fresh, so steady-state ingestion does not churn the
//! allocator.

use prima_model::GroundRule;
use prima_obs::TraceContext;
use std::sync::Arc;

/// The backing storage of an [`EntryBlock`] — what travels back through
/// the recycle channel once a worker has drained the block.
pub type BlockStorage = Vec<Arc<GroundRule>>;

/// A sized buffer of grounded entries bound for one shard.
#[derive(Debug, Default)]
pub struct EntryBlock {
    entries: BlockStorage,
    /// Trace of the flush that shipped this block; stamped by the engine
    /// right before the channel send so the shard worker's span joins
    /// the same trace across the thread hop ([`TraceContext::NONE`] when
    /// the engine is untraced).
    trace: TraceContext,
}

impl EntryBlock {
    /// An empty block with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            trace: TraceContext::NONE,
        }
    }

    /// A block over recycled storage (cleared, allocation kept).
    pub fn from_storage(mut storage: BlockStorage) -> Self {
        storage.clear();
        Self {
            entries: storage,
            trace: TraceContext::NONE,
        }
    }

    /// A block pre-filled with `entries` (recovery replay).
    pub fn from_entries(entries: BlockStorage) -> Self {
        Self {
            entries,
            trace: TraceContext::NONE,
        }
    }

    /// Stamps the shipping flush's trace context onto the block (the
    /// near side of the channel hop).
    pub fn stamp(&mut self, ctx: TraceContext) {
        self.trace = ctx;
    }

    /// The trace this block travels under ([`TraceContext::NONE`] when
    /// untraced).
    pub fn trace(&self) -> TraceContext {
        self.trace
    }

    /// Appends one grounded entry.
    pub fn push(&mut self, ground: Arc<GroundRule>) {
        self.entries.push(ground);
    }

    /// Entries buffered so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The buffered entries, in ingestion order.
    pub fn entries(&self) -> &[Arc<GroundRule>] {
        &self.entries
    }

    /// Consumes the block, returning its cleared backing buffer for
    /// recycling.
    pub fn into_storage(mut self) -> BlockStorage {
        self.entries.clear();
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(data: &str) -> Arc<GroundRule> {
        Arc::new(GroundRule::of(&[
            ("data", data),
            ("purpose", "treatment"),
            ("authorized", "nurse"),
        ]))
    }

    #[test]
    fn push_and_drain_preserve_order() {
        let mut b = EntryBlock::with_capacity(4);
        assert!(b.is_empty());
        let (referral, psych) = (g("referral"), g("psychiatry"));
        b.push(Arc::clone(&referral));
        b.push(Arc::clone(&psych));
        assert_eq!(b.len(), 2);
        assert!(Arc::ptr_eq(&b.entries()[0], &referral));
        assert!(Arc::ptr_eq(&b.entries()[1], &psych));
    }

    #[test]
    fn recycled_storage_keeps_capacity_loses_contents() {
        let mut b = EntryBlock::with_capacity(8);
        b.push(g("referral"));
        let storage = b.into_storage();
        assert!(storage.is_empty());
        assert!(storage.capacity() >= 8);
        let b2 = EntryBlock::from_storage(storage);
        assert!(b2.is_empty());
    }

    #[test]
    fn from_entries_wraps_replay_chunks() {
        let chunk = vec![g("referral"), g("referral")];
        let b = EntryBlock::from_entries(chunk);
        assert_eq!(b.len(), 2);
    }
}
