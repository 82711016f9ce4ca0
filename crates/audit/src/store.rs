//! The append-only audit store.

use crate::entry::AuditEntry;
use parking_lot::{RwLock, RwLockReadGuard};
use prima_model::{GroundRule, Policy, StoreTag};
use std::fmt;
use std::sync::Arc;

/// Why [`AuditStore::append`] or [`AuditStore::append_all`] refused an
/// entry: one of the attributes the formal model projects onto
/// normalizes to empty, so the entry could never be classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendError {
    /// Position of the refused entry in the appended batch (0 for
    /// [`AuditStore::append`]).
    pub index: usize,
    /// The refused entry's timestamp.
    pub time: i64,
    /// The blank attribute: `data`, `purpose` or `authorized`.
    pub attribute: &'static str,
}

impl AppendError {
    fn check(index: usize, entry: &AuditEntry) -> Result<(), Self> {
        match entry.blank_attribute() {
            None => Ok(()),
            Some(attribute) => Err(Self {
                index,
                time: entry.time,
                attribute,
            }),
        }
    }
}

impl fmt::Display for AppendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit entry at position {} (time {}) has a blank {}",
            self.index, self.time, self.attribute
        )
    }
}

impl std::error::Error for AppendError {}

/// A thread-safe, append-only audit trail (one per site/log source).
///
/// HDB Compliance Auditing appends while Policy Refinement reads, so the
/// typed entries sit behind a `parking_lot::RwLock`. Reads hand out
/// copies (entry vectors or ground rules) so analysis runs on a
/// consistent view without holding the lock; the relational `Table`
/// that Algorithm 5's SQL runs on is built from entries on demand
/// (`prima_refine::extract::practice_table`,
/// [`crate::AuditFederation::consolidated_table`]).
///
/// Appends fail closed: an entry whose `data`, `purpose` or `authorized`
/// normalizes to empty is refused with an [`AppendError`], so every
/// stored entry projects onto a ground rule.
#[derive(Debug, Clone)]
pub struct AuditStore {
    name: String,
    entries: Arc<RwLock<Vec<AuditEntry>>>,
}

impl AuditStore {
    /// Creates an empty store; `name` identifies the log source (e.g. a
    /// department system).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            entries: Arc::new(RwLock::new(Vec::new())),
        }
    }

    /// The log source's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one entry, refusing it if an attribute is blank.
    pub fn append(&self, entry: &AuditEntry) -> Result<(), AppendError> {
        AppendError::check(0, entry)?;
        self.entries.write().push(entry.clone());
        Ok(())
    }

    /// Appends many entries under one lock acquisition. All or nothing:
    /// if any entry has a blank attribute, none is stored.
    pub fn append_all<'a, I: IntoIterator<Item = &'a AuditEntry>>(
        &self,
        entries: I,
    ) -> Result<usize, AppendError> {
        let mut stored = self.entries.write();
        let start = stored.len();
        for (index, entry) in entries.into_iter().enumerate() {
            if let Err(e) = AppendError::check(index, entry) {
                stored.truncate(start);
                return Err(e);
            }
            stored.push(entry.clone());
        }
        Ok(stored.len() - start)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True iff no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored entries, in append order, under the read lock.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Vec<AuditEntry>> {
        self.entries.read()
    }

    /// All entries, in append order.
    pub fn entries(&self) -> Vec<AuditEntry> {
        self.read().clone()
    }

    /// Entries with `status = exception` — what Algorithm 3 keeps.
    pub fn exception_entries(&self) -> Vec<AuditEntry> {
        self.read()
            .iter()
            .filter(|e| e.is_exception())
            .cloned()
            .collect()
    }

    /// The trail as the formal model's audit-log policy `P_AL` — one ground
    /// rule per entry (Section 3.3: "By default, this policy is a ground
    /// policy"). Duplicate accesses produce duplicate rules; the range set
    /// dedups them, while entry-weighted coverage counts them individually.
    pub fn to_policy(&self) -> Policy {
        Policy::from_ground_rules(StoreTag::AuditLog, self.ground_rules())
    }

    /// One `(data, purpose, authorized)` ground rule per entry, in append
    /// order (the multiset view used by entry-weighted coverage).
    pub fn ground_rules(&self) -> Vec<GroundRule> {
        self.read()
            .iter()
            .map(|e| {
                e.to_ground_rule()
                    .expect("append refuses entries with blank attributes")
            })
            .collect()
    }

    /// Approximate storage footprint in bytes (experiment E6 reports
    /// bytes/entry): the allocated entry slots plus the heap bytes of
    /// their strings.
    pub fn approx_bytes(&self) -> usize {
        let entries = self.read();
        let strings: usize = entries
            .iter()
            .map(|e| {
                e.user.capacity()
                    + e.data.capacity()
                    + e.purpose.capacity()
                    + e.authorized.capacity()
            })
            .sum();
        entries.capacity() * size_of::<AuditEntry>() + strings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// Separators `normalize` drops or trims, plus ordinary letters.
    const ALPHABET: [char; 8] = [' ', '\t', '_', '-', '\u{3000}', 'a', 'É', '.'];

    fn store() -> AuditStore {
        let s = AuditStore::new("ward-a");
        s.append(&AuditEntry::regular(
            1,
            "tim",
            "referral",
            "treatment",
            "nurse",
        ))
        .unwrap();
        s.append(&AuditEntry::exception(
            2,
            "mark",
            "referral",
            "registration",
            "nurse",
        ))
        .unwrap();
        s.append(&AuditEntry::exception(
            3,
            "mark",
            "referral",
            "registration",
            "nurse",
        ))
        .unwrap();
        s
    }

    #[test]
    fn append_and_read_back() {
        let s = store();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let entries = s.entries();
        assert_eq!(entries[0].user, "tim");
        assert_eq!(entries[2].time, 3);
    }

    #[test]
    fn exception_filtering() {
        let s = store();
        let ex = s.exception_entries();
        assert_eq!(ex.len(), 2);
        assert!(ex.iter().all(AuditEntry::is_exception));
    }

    #[test]
    fn policy_keeps_per_entry_rules_but_range_dedups() {
        let s = store();
        let p = s.to_policy();
        assert_eq!(p.cardinality(), 3, "one rule per entry");
        assert_eq!(p.tag(), &StoreTag::AuditLog);
        let rules = s.ground_rules();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[1], rules[2], "duplicate accesses stay duplicated");
    }

    #[test]
    fn entries_are_isolated_from_later_appends() {
        let s = store();
        let snap = s.entries();
        s.append(&AuditEntry::regular(4, "x", "d", "p", "a"))
            .unwrap();
        assert_eq!(snap.len(), 3);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn blank_attributes_are_refused_at_append() {
        let s = store();
        for (data, purpose, auth, blank) in [
            ("referral", "   ", "nurse", "purpose"),
            ("_", "treatment", "nurse", "data"),
            ("referral", "treatment", "-", "authorized"),
            ("", "", "", "data"),
        ] {
            let e = AuditEntry::regular(9, "eve", data, purpose, auth);
            let err = s.append(&e).unwrap_err();
            assert_eq!(err.attribute, blank);
            assert_eq!((err.index, err.time), (0, 9));
            assert!(err.to_string().contains(blank));
        }
        assert_eq!(s.len(), 3, "nothing was stored");
    }

    #[test]
    fn append_all_is_all_or_nothing() {
        let s = store();
        let batch = vec![
            AuditEntry::regular(4, "a", "referral", "treatment", "nurse"),
            AuditEntry::regular(5, "b", "referral", "\t_", "nurse"),
            AuditEntry::regular(6, "c", "referral", "treatment", "nurse"),
        ];
        let err = s.append_all(&batch).unwrap_err();
        assert_eq!((err.index, err.attribute), (1, "purpose"));
        assert_eq!(s.len(), 3, "the valid prefix was rolled back");
        assert_eq!(s.append_all([&batch[0], &batch[2]]).unwrap(), 2);
        assert_eq!(s.len(), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The append check accepts exactly the entries that project onto
        /// a ground rule, so every stored entry can be classified.
        #[test]
        fn append_accepts_exactly_the_projectable_entries(
            fields in collection::vec(collection::vec(0..ALPHABET.len(), 0..4), 3),
        ) {
            let text = |picks: &Vec<usize>| -> String {
                picks.iter().map(|&i| ALPHABET[i]).collect()
            };
            let e = AuditEntry::regular(1, "u", &text(&fields[0]), &text(&fields[1]), &text(&fields[2]));
            let projectable = e.to_ground_rule().is_ok();
            prop_assert_eq!(e.blank_attribute().is_none(), projectable);
            prop_assert_eq!(AuditStore::new("p").append(&e).is_ok(), projectable);
        }
    }

    #[test]
    fn append_all_batches() {
        let s = AuditStore::new("batch");
        let entries: Vec<AuditEntry> = (0..10)
            .map(|i| AuditEntry::regular(i, "u", "d", "p", "a"))
            .collect();
        assert_eq!(s.append_all(&entries).unwrap(), 10);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn clone_is_a_cheap_shared_handle() {
        // Cloning must share the one trail behind the lock, not deep-copy
        // it: the stream engine clones its sink per ingest site, and the
        // federation registers the same store the engine writes to.
        let a = store();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.entries, &b.entries));
        b.append(&AuditEntry::regular(9, "zoe", "claim", "billing", "clerk"))
            .unwrap();
        assert_eq!(a.len(), 4, "append via one clone is visible via the other");
    }

    #[test]
    fn handles_move_across_threads() {
        fn assert_share<T: Send + Sync + Clone>() {}
        assert_share::<AuditStore>();

        // A reader thread sees a writer thread's appends through its own
        // clone of the handle (no channel, no explicit synchronization
        // beyond the store itself).
        let s = AuditStore::new("shared");
        let writer = {
            let s = s.clone();
            std::thread::spawn(move || {
                for i in 0..100 {
                    s.append(&AuditEntry::regular(i, "w", "d", "p", "a"))
                        .unwrap();
                }
            })
        };
        let reader = {
            let s = s.clone();
            std::thread::spawn(move || {
                while s.len() < 100 {
                    std::thread::yield_now();
                }
                s.ground_rules().len()
            })
        };
        writer.join().unwrap();
        assert_eq!(reader.join().unwrap(), 100);
    }

    #[test]
    fn concurrent_writers() {
        let s = AuditStore::new("busy");
        let mut handles = Vec::new();
        for w in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    s.append(&AuditEntry::regular(
                        (w * 1000 + i) as i64,
                        "u",
                        "d",
                        "p",
                        "a",
                    ))
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 1000);
    }
}
