//! The append-only audit store, kept as interned columns and a book of
//! counts.

use crate::entry::{AccessStatus, AuditEntry, Op};
use crate::intern::{log_hash, next_id, FxHashSet, Interner};
use crate::retention::TrainingWindow;
use crate::tally::{Group, Tally, TallyRef};
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
    pub(crate) fn check(index: usize, entry: &AuditEntry) -> Result<(), Self> {
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
///   in this store. Each raw id has a [`Group`] naming the triple's
///   ground rule among the store's distinct ones (case and whitespace
///   variants share one).
///
/// Append also keeps a *book*, so an unwindowed read scans no rows: per
/// raw id, the entry count and the practice count (the group's
/// `entries` and `practice`), and the distinct `(raw, user)` pairs of the
/// practice entries, in first-seen order. [`Self::tally`] reads the book
/// for the whole trail and scans the `time` column only for a training
/// window. The book only ever grows: a sliding window would need to
/// retract counts, which it does not do. Ids only grow too, since a
/// refused batch is refused before anything is stored, so a reader that
/// remembers how many ids it has seen (`crate::KeySpace`) reads only the
/// new ones next time.
///
/// [`Self::entries`] rebuilds byte-identical entries for the callers
/// that want them, and the relational `Table` that Algorithm 5's SQL runs
/// on is built from entries on demand
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

/// Rows a store's columns first make room for, so that even the one-byte
/// `flags` column starts above the 1,032 bytes up to which glibc serves a
/// request from the thread's cache of freed blocks. That cache can hold a
/// block of another thread's arena (a stream shard's, freed by the
/// producer), and a column started in one grows in that arena for good:
/// a 2M-row stream sink kept its 16 MiB `time` column there on some runs
/// and not on others, moving peak RSS by 13–22 MiB.
const FIRST_ROWS: usize = 2048;

/// Ends each string of a raw triple's byte key: UTF-8 never contains
/// `0xFF`, so the key spells exactly one triple.
const KEY_SEPARATOR: u8 = 0xFF;

/// The stored trail: one row per entry, strings interned, and the book.
#[derive(Debug, Default)]
pub(crate) struct Columns {
    pub(crate) time: Vec<i64>,
    flags: Vec<u8>,
    user: Vec<u32>,
    pub(crate) raw: Vec<u32>,
    users: Interner<str>,
    /// Raw triples by their byte key (each string followed by
    /// [`KEY_SEPARATOR`]), so an append probes without allocating. The
    /// probe's keyed hash is the one the triple's group carries.
    raw_keys: Interner<[u8]>,
    /// The book, one group per raw id: the raw strings, the shape, the
    /// entry and practice counts kept at append, and the carried hashes.
    pub(crate) groups: Vec<Group>,
    /// The distinct ground rules, by their terms' carried hashes.
    shapes: Interner<GroundRule>,
    /// The book's distinct `(raw, user)` practice pairs, first-seen order.
    pairs: Vec<(u32, u32)>,
    /// `pairs`, keyed `raw << 32 | user`, for the append's probe.
    pair_keys: FxHashSet<u64>,
    /// Set once a row's time is below its predecessor's: until then the
    /// rows are in time order.
    pub(crate) out_of_order: bool,
    /// Scratch buffer for the byte key of the entry being appended.
    key: Vec<u8>,
}

/// Writes the byte key of `e`'s raw triple into `key`.
pub(crate) fn raw_key(e: &AuditEntry, key: &mut Vec<u8>) {
    key.clear();
    for part in [&e.data, &e.purpose, &e.authorized] {
        key.extend_from_slice(part.as_bytes());
        key.push(KEY_SEPARATOR);
    }
}

/// The values a batch brings that its store has not interned, in
/// first-seen order, with their keyed hashes: [`Columns::resolve`] gives
/// them ids past the end of the store's tables, which is where
/// [`Columns::intern`] puts them.
#[derive(Default)]
struct NewValues<'a> {
    /// The new triples' byte keys.
    raw_keys: Interner<[u8]>,
    /// The first entry carrying each new triple.
    raws: Vec<&'a AuditEntry>,
    users: Interner<str>,
}

impl Columns {
    /// Interns, stores and counts one entry that passed the blank check.
    /// An entry whose triple and user the store already knows, as nearly
    /// every entry of a live feed is, is only stored and counted.
    fn push(&mut self, e: &AuditEntry) {
        if self.time.capacity() == 0 {
            self.reserve(1);
        }
        raw_key(e, &mut self.key);
        let raw = self.raw_keys.find(log_hash(self.key.as_slice()), &self.key);
        let user = self.users.find(log_hash(e.user.as_str()), &e.user);
        let (raw, user) = match (raw, user) {
            (Some(raw), Some(user)) => (raw, user),
            _ => {
                let mut new = NewValues::default();
                let ids = self.resolve(e, &mut new);
                self.intern(new);
                ids
            }
        };
        self.record(e.time, flags_of(e), raw, user);
    }

    /// The raw and user ids of `e`, which passed the blank check: the
    /// store's own, or the ones `new` gives the values the store has not
    /// interned yet. Changes nothing but `new`, so a batch is resolved
    /// entry by entry, hashing each entry's strings once, before any of
    /// it is stored.
    fn resolve<'a>(&mut self, e: &'a AuditEntry, new: &mut NewValues<'a>) -> (u32, u32) {
        raw_key(e, &mut self.key);
        let hash = log_hash(self.key.as_slice());
        let raw = match self.raw_keys.find(hash, &self.key) {
            Some(id) => id,
            None => {
                let id = new.raw_keys.intern(hash, &self.key);
                if id as usize == new.raws.len() {
                    new.raws.push(e);
                }
                next_id(self.groups.len() + id as usize)
            }
        };
        let hash = log_hash(e.user.as_str());
        let user = match self.users.find(hash, &e.user) {
            Some(id) => id,
            None => next_id(self.users.len() + new.users.intern(hash, &e.user) as usize),
        };
        (raw, user)
    }

    /// Interns `new`'s triples and users, giving them the ids
    /// [`Self::resolve`] did and the hashes it computed.
    fn intern(&mut self, new: NewValues<'_>) {
        self.groups.reserve(new.raws.len());
        let keys = new.raw_keys.values().iter().zip(new.raw_keys.hashes());
        for (e, (key, &hash)) in new.raws.into_iter().zip(keys) {
            self.groups
                .push(Group::first_seen(e, hash, &mut self.shapes));
            self.raw_keys.intern_arc(hash, key);
        }
        let users = new.users.values().iter().zip(new.users.hashes());
        for (user, &hash) in users {
            self.users.intern_arc(hash, user);
        }
    }

    /// Stores one row and counts it in the book.
    fn record(&mut self, time: i64, flags: u8, raw: u32, user: u32) {
        let group = &mut self.groups[raw as usize];
        group.entries += 1;
        if flags == PRACTICE {
            group.practice += 1;
            if self
                .pair_keys
                .insert(u64::from(raw) << 32 | u64::from(user))
            {
                self.pairs.push((raw, user));
            }
        }
        self.out_of_order |= self.time.last().is_some_and(|&last| last > time);
        self.time.push(time);
        self.flags.push(flags);
        self.user.push(user);
        self.raw.push(raw);
    }

    /// Makes room for `rows` more rows, and for at least [`FIRST_ROWS`]
    /// when the columns have no room yet.
    fn reserve(&mut self, rows: usize) {
        let rows = match self.time.capacity() {
            0 if rows > 0 => rows.max(FIRST_ROWS),
            _ => rows,
        };
        self.time.reserve(rows);
        self.flags.reserve(rows);
        self.user.reserve(rows);
        self.raw.reserve(rows);
    }

    /// Rebuilds row `i` as an entry.
    fn entry(&self, i: usize) -> AuditEntry {
        let [data, purpose, authorized] = &self.groups[self.raw[i] as usize].raw;
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

    pub(crate) fn len(&self) -> usize {
        self.time.len()
    }

    fn ground_rule(&self, i: usize) -> &Arc<GroundRule> {
        &self.shapes.values()[self.groups[self.raw[i] as usize].shape as usize]
    }

    /// The whole trail's tally, read from the book: no row is scanned.
    pub(crate) fn book(&self) -> TallyRef<'_> {
        TallyRef {
            groups: &self.groups,
            shapes: self.shapes.values(),
            users: self.users.values(),
            user_keys: self.users.hashes(),
            practice_users: &self.pairs,
        }
    }

    /// The tally of the rows inside `window`, in one scan of the `time`,
    /// `flags`, `user` and `raw` columns. It keeps one group per raw id,
    /// as the book does; a triple with no row in the window has zero
    /// counts.
    pub(crate) fn scan(&self, window: TrainingWindow) -> Tally {
        let mut groups: Vec<Group> = self
            .groups
            .iter()
            .map(|g| Group {
                entries: 0,
                practice: 0,
                ..g.clone()
            })
            .collect();
        let mut pairs: FxHashSet<u64> = FxHashSet::default();
        for (i, &time) in self.time.iter().enumerate() {
            if !window.contains(time) {
                continue;
            }
            let raw = self.raw[i];
            let group = &mut groups[raw as usize];
            group.entries += 1;
            if self.flags[i] == PRACTICE {
                group.practice += 1;
                pairs.insert(u64::from(raw) << 32 | u64::from(self.user[i]));
            }
        }
        Tally {
            groups,
            shapes: self.shapes.values().to_vec(),
            users: self.users.values().to_vec(),
            user_keys: self.users.hashes().to_vec(),
            practice_users: pairs
                .into_iter()
                .map(|pair| ((pair >> 32) as u32, pair as u32))
                .collect(),
        }
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
    /// the whole batch is checked and its ids resolved before any of it
    /// is stored, so a batch with a blank attribute leaves the columns,
    /// the interned values and the book untouched.
    pub fn append_all<'a, I: IntoIterator<Item = &'a AuditEntry>>(
        &self,
        entries: I,
    ) -> Result<usize, AppendError> {
        let entries = entries.into_iter();
        let mut rows = Vec::with_capacity(entries.size_hint().0);
        let mut new = NewValues::default();
        let mut columns = self.columns.write();
        for (index, e) in entries.enumerate() {
            AppendError::check(index, e)?;
            let (raw, user) = columns.resolve(e, &mut new);
            rows.push((e.time, flags_of(e), raw, user));
        }
        columns.intern(new);
        columns.reserve(rows.len());
        for &(time, flags, raw, user) in &rows {
            columns.record(time, flags, raw, user);
        }
        Ok(rows.len())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True iff no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff `other` is a handle on this store's trail.
    pub(crate) fn same_trail(&self, other: &AuditStore) -> bool {
        Arc::ptr_eq(&self.columns, &other.columns)
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Columns> {
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

    /// The trail as a [`Tally`], one group per raw id: the book for the
    /// whole trail (no row is scanned), or one scan of the rows inside
    /// `window`.
    pub fn tally(&self, window: Option<TrainingWindow>) -> Tally {
        let columns = self.read();
        match window {
            Some(window) => columns.scan(window),
            None => columns.book().to_tally(),
        }
    }

    /// Approximate storage footprint in bytes (experiment E6 reports
    /// bytes/entry): the allocated column slots, the interned users, raw
    /// triples and ground rules, and the book.
    pub fn approx_bytes(&self) -> usize {
        let c = self.read();
        let rows = c.time.capacity() * size_of::<i64>()
            + c.flags.capacity()
            + (c.user.capacity() + c.raw.capacity()) * size_of::<u32>();
        let users: usize = c.users.values().iter().map(|u| u.len()).sum();
        let raws: usize = c
            .groups
            .iter()
            .map(|g| g.raw.iter().map(|s| s.len()).sum::<usize>())
            .sum::<usize>()
            + c.raw_keys.values().iter().map(|k| k.len()).sum::<usize>();
        let shapes = c.shapes.len() * size_of::<GroundRule>();
        let book = c.groups.capacity() * size_of::<Group>()
            + c.pairs.capacity() * size_of::<(u32, u32)>()
            + c.pair_keys.capacity() * size_of::<u64>();
        rows + users + raws + shapes + book
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

    /// A store's book: the groups with their counts, and the practice
    /// pairs.
    fn book(s: &AuditStore) -> (Vec<Group>, Vec<(u32, u32)>, usize) {
        let c = s.read();
        (c.groups.clone(), c.pairs.clone(), c.pair_keys.len())
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
    fn the_first_row_makes_room_for_first_rows() {
        let s = AuditStore::new("ward-a");
        s.append_all(&[]).unwrap();
        assert_eq!(
            s.read().time.capacity(),
            0,
            "an empty batch allocates nothing"
        );
        let s = store();
        let c = s.read();
        for capacity in [
            c.time.capacity(),
            c.flags.capacity(),
            c.user.capacity(),
            c.raw.capacity(),
        ] {
            assert!(capacity >= FIRST_ROWS);
        }
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
                c.groups.len(),
                c.shapes.len(),
            )
        };
        let before = interned(&s);
        let counted = book(&s);
        let bytes = s.approx_bytes();
        let err = s.append_all(&batch).unwrap_err();
        assert_eq!((err.index, err.attribute), (1, "purpose"));
        assert_eq!(s.len(), 3, "the valid prefix was never stored");
        assert_eq!(interned(&s), before, "nothing of the batch was interned");
        assert_eq!(book(&s), counted, "nor counted");
        assert_eq!(s.approx_bytes(), bytes, "nor allocated for");
        {
            let c = s.read();
            assert_eq!(
                c.users.find(log_hash("a"), "a"),
                None,
                "the refused user is unknown"
            );
            let rule = batch[0].to_ground_rule().unwrap();
            assert!(
                c.shapes.values().iter().all(|s| **s != rule),
                "and so is its shape"
            );
        }
        assert_eq!(s.append_all([&batch[0], &batch[2]]).unwrap(), 2);
        assert_eq!(s.len(), 5);
        assert_eq!(interned(&s), (4, 3, 3, 3), "users a and c, one new triple");
        assert_eq!(s.entries()[3], batch[0]);
        let entries: Vec<usize> = s.read().groups.iter().map(|g| g.entries).collect();
        assert_eq!(
            entries,
            vec![2, 2, 1],
            "the book counted the accepted batch"
        );
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
        assert_eq!(c.groups.len(), 3, "a case variant is its own raw triple");
        assert_eq!(c.shapes.len(), 2, "but shares the shape of tim's access");
        let shapes: Vec<u32> = c.groups.iter().map(|g| g.shape).collect();
        assert_eq!(shapes, vec![0, 1, 0]);
        assert_eq!(c.raw, vec![0, 1, 1, 2]);
        assert_eq!(c.flags, vec![ALLOW, PRACTICE, PRACTICE, ALLOW]);
        // The book: entries and practice per raw id, and mark's practice
        // on raw 1 once.
        let counts: Vec<(usize, usize)> =
            c.groups.iter().map(|g| (g.entries, g.practice)).collect();
        assert_eq!(counts, vec![(1, 0), (2, 2), (1, 0)]);
        assert_eq!(c.pairs, vec![(1, 1)]);
        assert!(!c.out_of_order);
        drop(c);
        // The byte key keeps the boundaries between the strings.
        s.append_all(&[
            AuditEntry::regular(5, "ann", "ab", "c", "nurse"),
            AuditEntry::regular(6, "ann", "a", "bc", "nurse"),
        ])
        .unwrap();
        assert_eq!(s.read().groups.len(), 5);
        assert_eq!(s.entries()[5].purpose, "bc");
        s.append(&AuditEntry::regular(6, "ann", "ab", "c", "nurse"))
            .unwrap();
        assert!(!s.read().out_of_order, "an equal time keeps the order");
        s.append(&AuditEntry::regular(5, "ann", "ab", "c", "nurse"))
            .unwrap();
        assert!(s.read().out_of_order);
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
            prop_assert_eq!(&c.groups, &k.groups);
            prop_assert_eq!(&c.pairs, &k.pairs);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The book kept at append tallies what a scan of the rebuilt
        /// entries tallies, after every `append` and `append_all`; a
        /// refused batch leaves the entries, the footprint and the book
        /// as they were.
        #[test]
        fn the_book_equals_the_scan(
            steps in collection::vec(
                (0u8..3, collection::vec(arb_entry(), 0..8), 0usize..8),
                1..8,
            ),
        ) {
            let s = AuditStore::new("book");
            for (kind, batch, blank_at) in steps {
                match kind {
                    0 => {
                        for e in &batch {
                            s.append(e).unwrap();
                        }
                    }
                    1 => {
                        prop_assert_eq!(s.append_all(&batch).unwrap(), batch.len());
                    }
                    _ => {
                        let mut refused = batch;
                        let at = blank_at.min(refused.len());
                        refused.insert(at, AuditEntry::exception(0, "eve", "x", "y", " _ "));
                        let (entries, bytes, before) = (s.entries(), s.approx_bytes(), book(&s));
                        prop_assert_eq!(s.append_all(&refused).unwrap_err().index, at);
                        prop_assert_eq!(s.entries(), entries);
                        prop_assert_eq!(s.approx_bytes(), bytes);
                        prop_assert_eq!(book(&s), before);
                    }
                }
                let entries = s.entries();
                prop_assert_eq!(
                    canonical(&s.tally(None)),
                    canonical(&Tally::of_entries(&entries, None).unwrap())
                );
                let sorted = entries.windows(2).all(|w| w[0].time <= w[1].time);
                prop_assert_eq!(s.read().out_of_order, !sorted);
            }
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
