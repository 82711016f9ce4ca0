//! The sharded decision cache with epoch-based refinement invalidation.
//!
//! Decisions depend only on `(role, op, purpose, consent)` — the
//! principal is audit metadata — so the verdict space is small and
//! extremely hot under realistic load, which makes caching the whole
//! decision the single biggest throughput lever in the service. The
//! cache is a fixed array of mutex-guarded shards; a request hashes its
//! key to one shard, so concurrent workers rarely contend.
//!
//! Coherence is epoch-based. The engine owns a monotonically increasing
//! *epoch* that advances every time a policy is installed (a refinement
//! promotion or a gated overturn). Each cache entry is stamped with the
//! epoch of the policy snapshot that computed it; a lookup only hits
//! when the entry's stamp equals the cache's current epoch. Advancing
//! the epoch therefore invalidates every entry at once in `O(1)` — no
//! sweep, no per-entry locking — and stale entries are evicted lazily
//! the next time their slot is probed.

use crate::api::{Consent, Verdict};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// The cache key: everything a decision depends on, and nothing more.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecisionKey {
    /// Authorization category.
    pub role: String,
    /// Requested data category.
    pub op: String,
    /// Declared purpose.
    pub purpose: String,
    /// Parsed consent assertion.
    pub consent: Consent,
}

/// One cached verdict, stamped with the epoch that computed it and
/// carrying the policy revision it was computed under, so a hit replies
/// with the pair an uncached decision would have produced.
#[derive(Debug, Clone, Copy)]
struct Entry {
    stamp: u64,
    revision: u64,
    verdict: Verdict,
}

/// Counters sampled from a [`ShardedDecisionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCacheStats {
    /// Lookups answered from a current-epoch entry.
    pub hits: u64,
    /// Lookups that fell through to a fresh decision.
    pub misses: u64,
    /// Epoch advances (each drops the entire cache at once).
    pub invalidations: u64,
}

impl ServeCacheStats {
    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded `(key → stamped verdict)` map with `O(1)` whole-cache
/// invalidation. All methods are `&self`; the cache is shared across the
/// worker pool behind an `Arc`.
#[derive(Debug)]
pub struct ShardedDecisionCache {
    shards: Vec<Mutex<HashMap<DecisionKey, Entry>>>,
    /// The current epoch: only entries stamped with this value hit.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl ShardedDecisionCache {
    /// Builds a cache with `shards` mutex-guarded segments (clamped to at
    /// least 1; rounded up to a power of two so shard selection is a mask).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn shard_of(&self, key: &DecisionKey) -> &Mutex<HashMap<DecisionKey, Entry>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (self.shards.len() - 1)]
    }

    /// Looks the key up, returning the verdict and the policy revision
    /// that computed it. Hits only when the entry was stamped with the
    /// current epoch; a stale entry is evicted in place and counts as a
    /// miss, so one epoch advance can never serve a pre-refinement
    /// verdict.
    pub fn lookup(&self, key: &DecisionKey) -> Option<(Verdict, u64)> {
        let now = self.epoch.load(Ordering::Acquire);
        let mut shard = self.shard_of(key).lock();
        match shard.get(key) {
            Some(e) if e.stamp == now => {
                let hit = (e.verdict, e.revision);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            Some(_) => {
                // Lazy eviction: the entry predates the current policy.
                shard.remove(key);
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Installs a verdict stamped with the epoch of the policy snapshot
    /// that computed it, together with that snapshot's revision. If the
    /// snapshot is already obsolete (an install raced in between), the
    /// entry is dropped rather than inserted — it would never hit, and
    /// inserting it could shadow a fresher entry.
    pub fn insert(&self, key: DecisionKey, stamp: u64, revision: u64, verdict: Verdict) {
        if stamp != self.epoch.load(Ordering::Acquire) {
            return;
        }
        let entry = Entry {
            stamp,
            revision,
            verdict,
        };
        let mut shard = self.shard_of(&key).lock();
        let slot = shard.entry(key).or_insert(entry);
        if slot.stamp <= stamp {
            *slot = entry;
        }
    }

    /// Advances to `new_epoch`, invalidating every cached entry at once.
    /// Monotonic: a stale `new_epoch` (≤ current) is ignored so delayed
    /// installs cannot resurrect old verdicts.
    pub fn advance(&self, new_epoch: u64) {
        let prev = self.epoch.fetch_max(new_epoch, Ordering::AcqRel);
        if new_epoch > prev {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Samples the counters.
    pub fn stats(&self) -> ServeCacheStats {
        ServeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Entries currently resident (stale ones included until their slot
    /// is next probed). Diagnostics only.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DenyReason;

    fn key(role: &str) -> DecisionKey {
        DecisionKey {
            role: role.into(),
            op: "referral".into(),
            purpose: "treatment".into(),
            consent: Consent::Granted,
        }
    }

    #[test]
    fn insert_then_lookup_hits_within_an_epoch() {
        let cache = ShardedDecisionCache::new(8);
        assert_eq!(cache.lookup(&key("nurse")), None);
        cache.insert(key("nurse"), 0, 3, Verdict::Allow);
        assert_eq!(cache.lookup(&key("nurse")), Some((Verdict::Allow, 3)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn advancing_the_epoch_invalidates_everything_at_once() {
        let cache = ShardedDecisionCache::new(4);
        for r in ["nurse", "physician", "clerk"] {
            cache.insert(key(r), 0, 0, Verdict::Allow);
        }
        cache.advance(1);
        for r in ["nurse", "physician", "clerk"] {
            assert_eq!(cache.lookup(&key(r)), None, "{r} must not survive");
        }
        assert_eq!(cache.stats().invalidations, 1);
        // Lazy eviction removed the stale entries as they were probed.
        assert!(cache.is_empty());
    }

    #[test]
    fn stale_stamped_insert_is_dropped() {
        let cache = ShardedDecisionCache::new(4);
        cache.advance(5);
        // A worker computed under epoch 3, then an install raced ahead.
        cache.insert(key("nurse"), 3, 3, Verdict::Deny(DenyReason::PolicyDenied));
        assert_eq!(cache.lookup(&key("nurse")), None);
    }

    #[test]
    fn epoch_advance_is_monotonic() {
        let cache = ShardedDecisionCache::new(2);
        cache.advance(7);
        cache.advance(3); // delayed install must not roll the epoch back
        assert_eq!(cache.epoch(), 7);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedDecisionCache::new(0).shard_count(), 1);
        assert_eq!(ShardedDecisionCache::new(5).shard_count(), 8);
        assert_eq!(ShardedDecisionCache::new(64).shard_count(), 64);
    }
}
