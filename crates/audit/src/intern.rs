//! Interning: each distinct value stored once, named by a dense `u32` id.
//!
//! The audit store interns users, raw `(data, purpose, authorized)`
//! triples and ground rules at append time, and the federation's key
//! space interns them once more across stores, so a trail of any length
//! is read as integer columns over a few thousand distinct values. Ids
//! are never taken back: an interner only grows.
//!
//! The hashing rule. A value taken from a log (a raw triple, a user name,
//! a rule term) is SipHashed once, with a key drawn once per process
//! ([`log_hash`]), where it first enters the program: the append's own
//! probe, or [`crate::Tally::of_entries`]. The hash is carried beside the
//! value from then on, and every table keyed by the value ([`HashIndex`],
//! [`Interner`]) takes the carried hash through a pass-through hasher and
//! compares the full value on a hash match: equal hashes of different
//! values cost one comparison and never join them. [`FxHasher`] hashes
//! only ids this crate assigned.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The keyed SipHash of a value taken from a log, under one key drawn at
/// random once per process, so a hash carried from one table to another
/// means the same everywhere in the process and cannot be predicted from
/// outside it.
pub(crate) fn log_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    KEY.get_or_init(RandomState::new).hash_one(value)
}

/// A fast, deterministic multiplicative hash (the rustc `FxHash` mix)
/// for integer ids this crate assigns, where SipHash's per-call setup
/// dominates. Not for keys taken from outside the program: those can be
/// crafted to collide.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits depending only on the low bits
        // of the input, and `HashSet` picks buckets by the low bits:
        // rotate the well-mixed high bits down.
        self.hash.rotate_left(26)
    }
}

/// A `HashSet` of integer ids over [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// A `HashMap` keyed by integer ids over [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hands a carried [`log_hash`] to a table as it is: the hash is already
/// keyed and well mixed.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys come here; fold anything else rather than drop it.
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Converts a table length into the next dense id.
pub(crate) fn next_id(len: usize) -> u32 {
    u32::try_from(len).expect("fewer than 2^32 distinct values are interned")
}

/// The last id of a [`HashIndex`] chain.
const NONE: u32 = u32::MAX;

/// Dense ids found by a carried hash. The values stay with the caller,
/// which says by a comparison whether an id's value is the one sought;
/// values with equal hashes are chained, newest first.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashIndex {
    /// Per hash, the newest id carrying it.
    newest: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// Per id, the next older id carrying the same hash, or [`NONE`].
    older: Vec<u32>,
}

impl HashIndex {
    /// Makes room for `additional` more ids.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.newest.reserve(additional);
        self.older.reserve(additional);
    }

    /// The id with `hash` whose value `is` accepts, if any.
    pub(crate) fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut id = *self.newest.get(&hash)?;
        while id != NONE {
            if is(id) {
                return Some(id);
            }
            id = self.older[id as usize];
        }
        None
    }

    /// The id with `hash` whose value `is` accepts, or else the next id,
    /// added under `hash`: one probe either way. True when it was added,
    /// and the caller then stores its value at that id.
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        mut is: impl FnMut(u32) -> bool,
    ) -> (u32, bool) {
        let next = next_id(self.older.len());
        match self.newest.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(next);
                self.older.push(NONE);
            }
            Entry::Occupied(mut slot) => {
                let mut id = *slot.get();
                while id != NONE {
                    if is(id) {
                        return (id, false);
                    }
                    id = self.older[id as usize];
                }
                self.older.push(slot.insert(next));
            }
        }
        (next, true)
    }
}

/// Distinct values in first-seen order, each named by its position and
/// found by its carried hash.
#[derive(Debug, Clone)]
pub(crate) struct Interner<K: ?Sized> {
    values: Vec<Arc<K>>,
    hashes: Vec<u64>,
    index: HashIndex,
}

impl<K: ?Sized> Default for Interner<K> {
    fn default() -> Self {
        Self {
            values: Vec::new(),
            hashes: Vec::new(),
            index: HashIndex::default(),
        }
    }
}

impl<K: ?Sized + Eq> Interner<K> {
    /// The id of `key`, carrying `hash`, if interned.
    pub(crate) fn find(&self, hash: u64, key: &K) -> Option<u32> {
        self.index
            .find(hash, |id| *self.values[id as usize] == *key)
    }

    /// The id of `key`, carrying `hash`, interning a shared copy on first
    /// sight: one probe either way.
    pub(crate) fn intern(&mut self, hash: u64, key: &K) -> u32
    where
        for<'a> Arc<K>: From<&'a K>,
    {
        self.intern_with(hash, key, || Arc::from(key))
    }

    /// The id of a shared value, carrying `hash`, interning it on first
    /// sight.
    pub(crate) fn intern_arc(&mut self, hash: u64, value: &Arc<K>) -> u32 {
        self.intern_with(hash, value, || Arc::clone(value))
    }

    /// The id of an owned value, carrying `hash`, interning it on first
    /// sight.
    pub(crate) fn intern_owned(&mut self, hash: u64, value: K) -> u32
    where
        K: Sized,
    {
        let values = &self.values;
        let (id, new) = self
            .index
            .find_or_insert(hash, |id| *values[id as usize] == value);
        if new {
            self.values.push(Arc::new(value));
            self.hashes.push(hash);
        }
        id
    }

    /// The id of `key`, carrying `hash`, interning `share()` on first
    /// sight.
    pub(crate) fn intern_with(
        &mut self,
        hash: u64,
        key: &K,
        share: impl FnOnce() -> Arc<K>,
    ) -> u32 {
        let values = &self.values;
        let (id, new) = self
            .index
            .find_or_insert(hash, |id| *values[id as usize] == *key);
        if new {
            self.values.push(share());
            self.hashes.push(hash);
        }
        id
    }

    /// Makes room for `additional` more values.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
        self.hashes.reserve(additional);
        self.index.reserve(additional);
    }

    /// The interned values, indexed by id.
    pub(crate) fn values(&self) -> &[Arc<K>] {
        &self.values
    }

    /// The values' carried hashes, indexed by id.
    pub(crate) fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Number of distinct values.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_seen() {
        let mut users: Interner<str> = Interner::default();
        let mut intern = |name: &str| users.intern(log_hash(name), name);
        assert_eq!(intern("mark"), 0);
        assert_eq!(intern("tim"), 1);
        assert_eq!(intern("mark"), 0);
        assert_eq!(users.find(log_hash("tim"), "tim"), Some(1));
        assert_eq!(users.find(log_hash("bob"), "bob"), None);
        assert_eq!(users.len(), 2);
        assert_eq!(&*users.values()[1], "tim");
        assert_eq!(users.hashes(), [log_hash("mark"), log_hash("tim")]);
    }

    #[test]
    fn equal_hashes_of_different_values_stay_apart() {
        let mut users: Interner<str> = Interner::default();
        assert_eq!(users.intern(7, "mark"), 0);
        assert_eq!(users.intern(7, "tim"), 1, "a collision is a new value");
        assert_eq!(users.intern_arc(7, &Arc::from("bob")), 2);
        assert_eq!(users.intern(7, "mark"), 0, "found down the chain");
        assert_eq!(users.intern(7, "tim"), 1);
        assert_eq!(users.find(7, "ann"), None);
        assert_eq!(
            users.find(8, "mark"),
            None,
            "a value is found by its own hash"
        );
        assert_eq!(users.len(), 3);
    }

    #[test]
    fn the_log_hash_is_one_function_per_process() {
        assert_eq!(log_hash("referral"), log_hash(&String::from("referral")));
        assert_ne!(log_hash("referral"), log_hash("Referral"));
    }

    #[test]
    fn fx_distinguishes_id_pairs() {
        let hash = |pair: (u32, u32)| {
            let mut h = FxHasher::default();
            pair.hash(&mut h);
            h.finish()
        };
        assert_ne!(hash((0, 1)), hash((1, 0)));
        assert_ne!(hash((7, 0)), hash((0, 7)));
        assert_eq!(hash((3, 4)), hash((3, 4)));
        let set: FxHashSet<(u32, u32)> = (0..100)
            .flat_map(|g| (0..10).map(move |u| (g, u)))
            .collect();
        assert_eq!(set.len(), 1000);
    }
}
