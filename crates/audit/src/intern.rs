//! Interning: each distinct value stored once, named by a dense `u32` id.
//!
//! The audit store interns users, raw `(data, purpose, authorized)`
//! triples and ground rules at append time, and the federation's key
//! space interns them once more across stores, so a trail of any length
//! is read as integer columns over a few thousand distinct values. Ids
//! are never taken back: an interner only grows. The values come from the
//! logs, so their tables keep the default, collision-resistant hasher;
//! only sets of the store's own integer ids use [`FxHasher`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

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

/// Converts a table length into the next dense id.
pub(crate) fn next_id(len: usize) -> u32 {
    u32::try_from(len).expect("fewer than 2^32 distinct values are interned")
}

/// Distinct values in first-seen order, each named by its position.
#[derive(Debug, Clone)]
pub(crate) struct Interner<K: ?Sized> {
    values: Vec<Arc<K>>,
    ids: HashMap<Arc<K>, u32>,
}

impl<K: ?Sized> Default for Interner<K> {
    fn default() -> Self {
        Self {
            values: Vec::new(),
            ids: HashMap::new(),
        }
    }
}

impl<K: ?Sized + Hash + Eq> Interner<K> {
    /// The id of `key`, if interned.
    pub(crate) fn get(&self, key: &K) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// The id of `key`, interning a shared copy on first sight.
    pub(crate) fn intern(&mut self, key: &K) -> u32
    where
        for<'a> Arc<K>: From<&'a K>,
    {
        match self.get(key) {
            Some(id) => id,
            None => self.insert_new(Arc::from(key)),
        }
    }

    /// The id of an owned value, interning it on first sight.
    pub(crate) fn intern_owned(&mut self, value: K) -> u32
    where
        K: Sized,
    {
        match self.get(&value) {
            Some(id) => id,
            None => self.insert_new(Arc::new(value)),
        }
    }

    /// The id of a shared value, interning it on first sight.
    pub(crate) fn intern_arc(&mut self, value: &Arc<K>) -> u32 {
        match self.get(value) {
            Some(id) => id,
            None => self.insert_new(Arc::clone(value)),
        }
    }

    fn insert_new(&mut self, value: Arc<K>) -> u32 {
        let id = next_id(self.values.len());
        self.ids.insert(Arc::clone(&value), id);
        self.values.push(value);
        id
    }

    /// The interned values, indexed by id.
    pub(crate) fn values(&self) -> &[Arc<K>] {
        &self.values
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
        assert_eq!(users.intern("mark"), 0);
        assert_eq!(users.intern("tim"), 1);
        assert_eq!(users.intern("mark"), 0);
        assert_eq!(users.get("tim"), Some(1));
        assert_eq!(users.get("bob"), None);
        assert_eq!(users.len(), 2);
        assert_eq!(&*users.values()[1], "tim");
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
