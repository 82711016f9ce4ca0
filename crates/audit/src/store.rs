//! The append-only audit store, kept as interned columns.

use crate::entry::{AccessStatus, AuditEntry, Op};
use crate::intern::{next_id, FxHashSet, Interner};
use crate::retention::TrainingWindow;
use crate::tally::{Group, ShapeTimeline, Tally};
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
/// trail sits behind a `parking_lot::RwLock`. It is stored as four
/// columns, interned at append time:
///
/// * `time: i64`;
/// * `flags: u8`, the entry's `op` and `status`;
/// * `user: u32`, the id of the user name in this store;
/// * `raw: u32`, the id of the raw `(data, purpose, authorized)` triple
///   in this store, with `shape_of_raw` naming the triple's ground rule
///   among the store's distinct ones (case and whitespace variants share
///   one).
///
/// A refinement round reads only these columns ([`Self::tally`],
/// [`Self::extend_timeline`]); [`Self::entries`] rebuilds byte-identical
/// entries for the callers that want them, and the relational `Table`
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
    columns: Arc<RwLock<Columns>>,
}

/// `flags` bit: the access was served (`op = allow`).
const ALLOW: u8 = 1;
/// `flags` bit: the access was exception-based (`status = exception`).
const EXCEPTION: u8 = 2;
/// The `flags` of a practice entry, what Algorithm 3's `Filter` keeps
/// under the Section 5 assumption that no exception is a violation: a
/// served, exception-based access.
pub(crate) const PRACTICE: u8 = ALLOW | EXCEPTION;

/// An entry's `op` and `status` as `flags`.
pub(crate) fn flags_of(e: &AuditEntry) -> u8 {
    let mut flags = 0;
    if e.op == Op::Allow {
        flags |= ALLOW;
    }
    if e.status == AccessStatus::Exception {
        flags |= EXCEPTION;
    }
    flags
}

/// Ends each string of a raw triple's byte key: UTF-8 never contains
/// `0xFF`, so the key spells exactly one triple.
const KEY_SEPARATOR: u8 = 0xFF;

/// Row and table lengths of a [`Columns`], taken before a batch.
#[derive(Debug, Clone, Copy)]
struct Mark {
    rows: usize,
    users: usize,
    raws: usize,
    shapes: usize,
}

/// The stored trail: one row per entry, strings interned.
#[derive(Debug, Default)]
struct Columns {
    time: Vec<i64>,
    flags: Vec<u8>,
    user: Vec<u32>,
    raw: Vec<u32>,
    users: Interner<str>,
    /// Raw triples by their byte key (each string followed by
    /// [`KEY_SEPARATOR`]), so an append probes without allocating.
    raw_keys: Interner<[u8]>,
    /// The raw strings of each triple, indexed like `raw_keys`.
    raws: Vec<[Arc<str>; 3]>,
    shape_of_raw: Vec<u32>,
    shapes: Interner<GroundRule>,
    /// Scratch buffer for the byte key of the entry being appended.
    key: Vec<u8>,
}

impl Columns {
    /// Interns and stores one entry that passed the blank check.
    fn push(&mut self, e: &AuditEntry) {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        for part in [&e.data, &e.purpose, &e.authorized] {
            key.extend_from_slice(part.as_bytes());
            key.push(KEY_SEPARATOR);
        }
        let raw = match self.raw_keys.get(&key) {
            Some(id) => id,
            None => {
                let rule = e
                    .to_ground_rule()
                    .expect("append refuses entries with blank attributes");
                self.shape_of_raw.push(self.shapes.intern_owned(rule));
                self.raws.push([
                    e.data.as_str().into(),
                    e.purpose.as_str().into(),
                    e.authorized.as_str().into(),
                ]);
                self.raw_keys.intern(&key)
            }
        };
        self.key = key;
        self.user.push(self.users.intern(&e.user));
        self.raw.push(raw);
        self.time.push(e.time);
        self.flags.push(flags_of(e));
    }

    /// The lengths a refused batch rolls back to.
    fn mark(&self) -> Mark {
        Mark {
            rows: self.len(),
            users: self.users.len(),
            raws: self.raws.len(),
            shapes: self.shapes.len(),
        }
    }

    /// Drops every row and interned value added since `mark`.
    fn truncate(&mut self, mark: Mark) {
        self.time.truncate(mark.rows);
        self.flags.truncate(mark.rows);
        self.user.truncate(mark.rows);
        self.raw.truncate(mark.rows);
        self.users.truncate(mark.users);
        self.raw_keys.truncate(mark.raws);
        self.raws.truncate(mark.raws);
        self.shape_of_raw.truncate(mark.raws);
        self.shapes.truncate(mark.shapes);
    }

    /// Makes room for `rows` more rows.
    fn reserve(&mut self, rows: usize) {
        self.time.reserve(rows);
        self.flags.reserve(rows);
        self.user.reserve(rows);
        self.raw.reserve(rows);
    }

    /// Rebuilds row `i` as an entry.
    fn entry(&self, i: usize) -> AuditEntry {
        let [data, purpose, authorized] = &self.raws[self.raw[i] as usize];
        let flags = self.flags[i];
        AuditEntry {
            time: self.time[i],
            op: if flags & ALLOW != 0 {
                Op::Allow
            } else {
                Op::Disallow
            },
            user: self.users.values()[self.user[i] as usize].to_string(),
            data: data.to_string(),
            purpose: purpose.to_string(),
            authorized: authorized.to_string(),
            status: if flags & EXCEPTION != 0 {
                AccessStatus::Exception
            } else {
                AccessStatus::Regular
            },
        }
    }

    fn len(&self) -> usize {
        self.time.len()
    }

    /// The rows inside `window` (every row without one).
    fn rows(&self, window: Option<TrainingWindow>) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&i| window.is_none_or(|w| w.contains(self.time[i])))
    }

    fn ground_rule(&self, i: usize) -> &Arc<GroundRule> {
        &self.shapes.values()[self.shape_of_raw[self.raw[i] as usize] as usize]
    }
}

impl AuditStore {
    /// Creates an empty store; `name` identifies the log source (e.g. a
    /// department system).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            columns: Arc::new(RwLock::new(Columns::default())),
        }
    }

    /// The log source's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one entry, refusing it if an attribute is blank.
    pub fn append(&self, entry: &AuditEntry) -> Result<(), AppendError> {
        AppendError::check(0, entry)?;
        self.columns.write().push(entry);
        Ok(())
    }

    /// Appends many entries under one lock acquisition. All or nothing:
    /// if any entry has a blank attribute, the batch's rows and every
    /// value it interned are rolled back.
    pub fn append_all<'a, I: IntoIterator<Item = &'a AuditEntry>>(
        &self,
        entries: I,
    ) -> Result<usize, AppendError> {
        let entries = entries.into_iter();
        let mut columns = self.columns.write();
        let mark = columns.mark();
        columns.reserve(entries.size_hint().0);
        for (index, entry) in entries.enumerate() {
            if let Err(e) = AppendError::check(index, entry) {
                columns.truncate(mark);
                return Err(e);
            }
            columns.push(entry);
        }
        Ok(columns.len() - mark.rows)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True iff no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read(&self) -> RwLockReadGuard<'_, Columns> {
        self.columns.read()
    }

    /// All entries, in append order, rebuilt from the columns.
    pub fn entries(&self) -> Vec<AuditEntry> {
        let columns = self.read();
        (0..columns.len()).map(|i| columns.entry(i)).collect()
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
        let columns = self.read();
        (0..columns.len())
            .map(|i| GroundRule::clone(columns.ground_rule(i)))
            .collect()
    }

    /// The rows inside `window` (every row without one) as a [`Tally`],
    /// in one scan of the `time`, `flags`, `user` and `raw` columns.
    pub fn tally(&self, window: Option<TrainingWindow>) -> Tally {
        let columns = self.read();
        let mut entries = vec![0usize; columns.raws.len()];
        let mut practice = vec![0usize; columns.raws.len()];
        let mut pairs: FxHashSet<u64> = FxHashSet::default();
        for i in columns.rows(window) {
            let raw = columns.raw[i] as usize;
            entries[raw] += 1;
            if columns.flags[i] == PRACTICE {
                practice[raw] += 1;
                pairs.insert((raw as u64) << 32 | u64::from(columns.user[i]));
            }
        }
        let mut group_of_raw = vec![u32::MAX; columns.raws.len()];
        let mut groups = Vec::new();
        for (raw, &count) in entries.iter().enumerate() {
            if count > 0 {
                group_of_raw[raw] = next_id(groups.len());
                groups.push(Group {
                    raw: columns.raws[raw].clone(),
                    shape: columns.shape_of_raw[raw],
                    entries: count,
                    practice: practice[raw],
                });
            }
        }
        Tally {
            groups,
            shapes: columns.shapes.values().to_vec(),
            users: columns.users.values().to_vec(),
            practice_users: pairs
                .into_iter()
                .map(|pair| (group_of_raw[(pair >> 32) as usize], pair as u32))
                .collect(),
        }
    }

    /// Appends every row's `(time, shape)` to `timeline`, in append order.
    pub fn extend_timeline(&self, timeline: &mut ShapeTimeline) {
        let columns = self.read();
        let shape_ids: Vec<u32> = columns
            .shapes
            .values()
            .iter()
            .map(|shape| timeline.shapes.intern_arc(shape))
            .collect();
        let of_raw: Vec<u32> = columns
            .shape_of_raw
            .iter()
            .map(|&shape| shape_ids[shape as usize])
            .collect();
        timeline.rows.extend(
            columns
                .time
                .iter()
                .zip(&columns.raw)
                .map(|(&time, &raw)| (time, of_raw[raw as usize])),
        );
    }

    /// Approximate storage footprint in bytes (experiment E6 reports
    /// bytes/entry): the allocated column slots plus the interned users,
    /// raw triples and ground rules.
    pub fn approx_bytes(&self) -> usize {
        let c = self.read();
        let rows = c.time.capacity() * size_of::<i64>()
            + c.flags.capacity()
            + (c.user.capacity() + c.raw.capacity()) * size_of::<u32>();
        let users: usize = c.users.values().iter().map(|u| u.len()).sum();
        let raws: usize = c
            .raws
            .iter()
            .map(|r| r.iter().map(|s| s.len()).sum::<usize>())
            .sum::<usize>()
            + c.raw_keys.values().iter().map(|k| k.len()).sum::<usize>();
        let shapes =
            c.shapes.len() * size_of::<GroundRule>() + c.shape_of_raw.capacity() * size_of::<u32>();
        rows + users + raws + shapes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// Separators `normalize` drops or trims, plus ordinary letters.
    const ALPHABET: [char; 8] = [' ', '\t', '_', '-', '\u{3000}', 'a', 'É', '.'];

    /// A tally as sorted `(raw triple, shape, entries, practice, users)`
    /// rows, independent of group and user numbering.
    type Row = (Vec<String>, String, usize, usize, Vec<String>);
    fn canonical(t: &Tally) -> Vec<Row> {
        let mut rows: Vec<Row> = t
            .groups()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.entries > 0)
            .map(|(i, g)| {
                let mut users: Vec<String> = t
                    .practice_users()
                    .iter()
                    .filter(|&&(group, _)| group as usize == i)
                    .map(|&(_, u)| t.users[u as usize].to_string())
                    .collect();
                users.sort();
                (
                    g.raw.iter().map(|s| s.to_string()).collect(),
                    t.shapes()[g.shape as usize].to_string(),
                    g.entries,
                    g.practice,
                    users,
                )
            })
            .collect();
        rows.sort();
        rows
    }

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
            AuditEntry::regular(4, "a", "referral", "registration", "doctor"),
            AuditEntry::regular(5, "b", "referral", "\t_", "nurse"),
            AuditEntry::regular(6, "c", "referral", "treatment", "nurse"),
        ];
        let interned = |s: &AuditStore| {
            let c = s.read();
            (
                c.users.len(),
                c.raw_keys.len(),
                c.raws.len(),
                c.shapes.len(),
            )
        };
        let before = interned(&s);
        let err = s.append_all(&batch).unwrap_err();
        assert_eq!((err.index, err.attribute), (1, "purpose"));
        assert_eq!(s.len(), 3, "the valid prefix was rolled back");
        assert_eq!(interned(&s), before, "nothing of the batch was interned");
        {
            let c = s.read();
            assert_eq!(c.users.get("a"), None, "the rolled-back user is forgotten");
            let rule = batch[0].to_ground_rule().unwrap();
            assert_eq!(c.shapes.get(&rule), None, "and so is its shape");
        }
        assert_eq!(s.append_all([&batch[0], &batch[2]]).unwrap(), 2);
        assert_eq!(s.len(), 5);
        assert_eq!(interned(&s), (4, 3, 3, 3), "users a and c, one new triple");
        assert_eq!(s.entries()[3], batch[0]);
    }

    #[test]
    fn columns_intern_users_triples_and_shapes() {
        let s = store();
        s.append(&AuditEntry::regular(
            4,
            "ann",
            " Referral ",
            "Treatment",
            "NURSE",
        ))
        .unwrap();
        let c = s.read();
        assert_eq!(c.users.len(), 3, "tim, mark, ann");
        assert_eq!(c.raws.len(), 3, "a case variant is its own raw triple");
        assert_eq!(c.shapes.len(), 2, "but shares the shape of tim's access");
        assert_eq!(c.shape_of_raw, vec![0, 1, 0]);
        assert_eq!(c.raw, vec![0, 1, 1, 2]);
        assert_eq!(c.flags, vec![ALLOW, PRACTICE, PRACTICE, ALLOW]);
        drop(c);
        // The byte key keeps the boundaries between the strings.
        s.append_all(&[
            AuditEntry::regular(5, "ann", "ab", "c", "nurse"),
            AuditEntry::regular(6, "ann", "a", "bc", "nurse"),
        ])
        .unwrap();
        assert_eq!(s.read().raws.len(), 5);
        assert_eq!(s.entries()[5].purpose, "bc");
    }

    #[test]
    fn tally_counts_practice_and_reads_the_window() {
        let s = store();
        let tally = s.tally(None);
        assert_eq!((tally.total_entries(), tally.practice_entries()), (3, 2));
        assert_eq!(tally.groups().len(), 2);
        assert_eq!(tally.practice_users().len(), 1, "mark twice is one pair");
        let windowed = s.tally(Some(TrainingWindow::new(1, 3)));
        assert_eq!(windowed.total_entries(), 2);
        assert_eq!(windowed.practice_entries(), 1);
        let from_entries = Tally::of_entries(&s.entries(), Some(TrainingWindow::new(1, 3)));
        assert_eq!(canonical(&windowed), canonical(&from_entries.unwrap()));
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

    /// A random entry over small pools, so users and triples repeat and
    /// case variants occur.
    fn arb_entry() -> impl Strategy<Value = AuditEntry> {
        const WORDS: [&str; 5] = ["referral", "Referral", " referral ", "billing", "nurse"];
        const USERS: [&str; 4] = ["mark", "tim", "Mark", ""];
        (
            0i64..20,
            0..USERS.len(),
            collection::vec(0..WORDS.len(), 3),
            0u8..4,
        )
            .prop_map(|(time, user, words, flags)| AuditEntry {
                time,
                op: if flags & ALLOW != 0 {
                    Op::Allow
                } else {
                    Op::Disallow
                },
                user: USERS[user].to_string(),
                data: WORDS[words[0]].to_string(),
                purpose: WORDS[words[1]].to_string(),
                authorized: WORDS[words[2]].to_string(),
                status: if flags & EXCEPTION != 0 {
                    AccessStatus::Exception
                } else {
                    AccessStatus::Regular
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The columns rebuild every appended entry byte for byte, in
        /// append order, and their ground rules.
        #[test]
        fn entries_round_trip_through_the_columns(
            batches in collection::vec(collection::vec(arb_entry(), 0..12), 1..4),
            blank_at in 0usize..12,
        ) {
            let s = AuditStore::new("round-trip");
            let clean = AuditStore::new("never-refused");
            let mut appended = Vec::new();
            for batch in &batches {
                // The same batch with a blank entry spliced in is refused
                // first, and leaves nothing behind.
                let mut refused = batch.clone();
                let at = blank_at.min(refused.len());
                refused.insert(at, AuditEntry::regular(0, "eve", "x", " ", "y"));
                prop_assert_eq!(s.append_all(&refused).unwrap_err().index, at);
                s.append_all(batch).unwrap();
                clean.append_all(batch).unwrap();
                appended.extend(batch.iter().cloned());
            }
            prop_assert_eq!(s.entries(), appended.clone());
            let (c, k) = (s.read(), clean.read());
            prop_assert_eq!(c.users.values(), k.users.values());
            prop_assert_eq!(c.raw_keys.values(), k.raw_keys.values());
            prop_assert_eq!(&c.shape_of_raw, &k.shape_of_raw);
            prop_assert_eq!(c.shapes.values(), k.shapes.values());
            prop_assert_eq!(&c.raw, &k.raw);
            prop_assert_eq!(&c.user, &k.user);
            drop((c, k));
            let rules: Vec<GroundRule> =
                appended.iter().map(|e| e.to_ground_rule().unwrap()).collect();
            prop_assert_eq!(s.ground_rules(), rules);
        }

        /// A store's column scan tallies what the entry builder tallies.
        #[test]
        fn column_tally_equals_entry_tally(
            entries in collection::vec(arb_entry(), 0..40),
            window in (0u8..2, 0i64..20, 0i64..20),
        ) {
            let (windowed, a, b) = window;
            let window = (windowed == 1).then(|| TrainingWindow::new(a.min(b), a.max(b)));
            let s = AuditStore::new("tally");
            s.append_all(&entries).unwrap();
            let from_entries = Tally::of_entries(&entries, window).unwrap();
            prop_assert_eq!(canonical(&s.tally(window)), canonical(&from_entries));
            prop_assert_eq!(
                canonical(&Tally::merge([s.tally(window)])),
                canonical(&from_entries)
            );
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
        assert!(Arc::ptr_eq(&a.columns, &b.columns));
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
