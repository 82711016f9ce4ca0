//! What a refinement round reads from a trail: a [`Tally`] per raw access
//! triple, joined across the federation's sources by a [`KeySpace`].
//!
//! A hospital trail repeats a few thousand raw `(data, purpose,
//! authorized)` triples hundreds of thousands of times. Coverage depends
//! only on a triple's ground rule, and Algorithm 5's group-by only on the
//! triple's practice entries and their users, so a round needs one count
//! per triple, not the entries (Garg, Jia & Datta: audit cost should
//! follow the distinct state, not the log length). Every source is an
//! [`crate::AuditStore`], which keeps its tally as a book, counted at
//! append: a resilient source's last good fetch is kept as one too.
//! [`Tally::of_entries`] tallies a slice of entries directly; tests hold
//! the books to it.
//!
//! A [`KeySpace`] joins the sources' tallies. It keeps, per store, remaps
//! from the store's own group, shape and user ids to federation ids, and
//! since a store's ids only grow, a read joins only the ids interned
//! since the previous one; everything else is integer lookups. A join
//! hashes no string: each group carries the keyed hashes its store
//! computed when it first saw the triple (of the raw triple and of its
//! shape's three rule terms), each user its name's, and the key space's
//! tables take those and compare the values in full. A shape is the
//! triple of its terms' federation ids. The key space also keeps one
//! verdict per federation shape for one policy revision, decided by
//! ANDing the compiled rows of the shape's three terms, each row resolved
//! once per revision. [`Tally::merge`] is the same join done once, over
//! fresh remaps.

use crate::entry::AuditEntry;
use crate::intern::{log_hash, next_id, FxHashMap, FxHashSet, HashIndex, Interner};
use crate::retention::TrainingWindow;
use crate::store::{flags_of, raw_key, AppendError, AuditStore, PRACTICE};
use prima_model::{CompiledPolicy, EntryCoverageReport, GroundRule, Policy, RuleTerm, TermRow};
use prima_vocab::Vocabulary;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One raw `(data, purpose, authorized)` triple of a [`Tally`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// The raw `data`, `purpose` and `authorized` strings, exactly as
    /// logged: Algorithm 5's SQL groups on these.
    pub raw: [Arc<str>; 3],
    /// The triple's ground rule, indexing [`Tally::shapes`].
    pub shape: u32,
    /// Entries carrying the triple.
    pub entries: usize,
    /// Of those, the practice entries: served exception-based accesses.
    pub practice: usize,
    /// The keyed hashes computed where the triple was first seen.
    pub(crate) keys: Keys,
}

/// The keyed hashes ([`log_hash`]) a [`Group`] carries from where its
/// triple was first seen, so that no later join hashes its strings again:
/// of the raw triple's byte key, and of the three terms of its shape, in
/// the shape's term order. Tables keyed by them still compare the strings
/// and terms themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Keys {
    pub(crate) raw: u64,
    pub(crate) terms: [u64; 3],
}

impl Group {
    /// The group of `e`'s raw triple, first seen: `e` passed the blank
    /// check and its byte key hashed to `raw`. Its shape is interned into
    /// `shapes` by its terms' hashes; its counts are zero.
    pub(crate) fn first_seen(e: &AuditEntry, raw: u64, shapes: &mut Interner<GroundRule>) -> Self {
        let rule = e
            .to_ground_rule()
            .expect("an entry with no blank attribute projects");
        let terms = three_terms(&rule).each_ref().map(log_hash);
        Self {
            raw: [
                e.data.as_str().into(),
                e.purpose.as_str().into(),
                e.authorized.as_str().into(),
            ],
            shape: shapes.intern_owned(shape_hash(terms), rule),
            entries: 0,
            practice: 0,
            keys: Keys { raw, terms },
        }
    }
}

/// The three terms of an access's ground rule, attribute-sorted.
fn three_terms(rule: &GroundRule) -> &[RuleTerm; 3] {
    rule.terms()
        .try_into()
        .expect("an access projects onto data, purpose and authorized")
}

/// A shape's table hash, mixed from its terms' carried hashes.
fn shape_hash([a, b, c]: [u64; 3]) -> u64 {
    a ^ b.rotate_left(21) ^ c.rotate_left(42)
}

/// A trail reduced to its raw access triples: per triple, how many
/// entries carry it, how many of those are practice (what Algorithm 3's
/// `Filter` keeps), and which users produced the practice entries.
///
/// A group may have zero entries: a store's tally keeps one group per raw
/// id even when a training window holds none of its rows, and a
/// [`KeySpace`] read keeps every group the key space has joined.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub(crate) groups: Vec<Group>,
    pub(crate) shapes: Vec<Arc<GroundRule>>,
    /// User names, indexed by the user ids of `practice_users`.
    pub(crate) users: Vec<Arc<str>>,
    /// The users' carried keyed hashes, indexed like `users`.
    pub(crate) user_keys: Vec<u64>,
    /// Distinct `(group, user)` pairs among the practice entries.
    pub(crate) practice_users: Vec<(u32, u32)>,
}

/// A tally's tables, borrowed: what [`KeySpace`] joins. A store lends its
/// book this way, so an unwindowed read copies nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TallyRef<'a> {
    pub(crate) groups: &'a [Group],
    pub(crate) shapes: &'a [Arc<GroundRule>],
    pub(crate) users: &'a [Arc<str>],
    pub(crate) user_keys: &'a [u64],
    pub(crate) practice_users: &'a [(u32, u32)],
}

impl TallyRef<'_> {
    /// An owned copy.
    pub(crate) fn to_tally(self) -> Tally {
        Tally {
            groups: self.groups.to_vec(),
            shapes: self.shapes.to_vec(),
            users: self.users.to_vec(),
            user_keys: self.user_keys.to_vec(),
            practice_users: self.practice_users.to_vec(),
        }
    }
}

impl Tally {
    /// Tallies `entries` (only those inside `window`, when given),
    /// failing closed on the first one with a blank attribute, as an
    /// append would.
    ///
    /// Entries are keyed by their raw triple's byte key, hashed once per
    /// entry as an append hashes it, so [`AuditEntry::to_ground_rule`]
    /// runs once per distinct raw triple; case and whitespace variants
    /// that project to the same ground rule (`Referral`, ` referral `)
    /// share one shape but stay two groups.
    pub fn of_entries(
        entries: &[AuditEntry],
        window: Option<TrainingWindow>,
    ) -> Result<Self, AppendError> {
        let mut tally = Self::default();
        let mut raws: Interner<[u8]> = Interner::default();
        let mut shapes: Interner<GroundRule> = Interner::default();
        let mut users: Interner<str> = Interner::default();
        let mut pairs: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut key = Vec::new();
        for (index, e) in entries.iter().enumerate() {
            if window.is_some_and(|w| !w.contains(e.time)) {
                continue;
            }
            raw_key(e, &mut key);
            let hash = log_hash(key.as_slice());
            let group = match raws.find(hash, &key) {
                Some(group) => group,
                None => {
                    AppendError::check(index, e)?;
                    tally.groups.push(Group::first_seen(e, hash, &mut shapes));
                    raws.intern(hash, &key)
                }
            };
            let g = &mut tally.groups[group as usize];
            g.entries += 1;
            if flags_of(e) == PRACTICE {
                g.practice += 1;
                let user = users.intern(log_hash(e.user.as_str()), &e.user);
                pairs.insert((group, user));
            }
        }
        tally.shapes = shapes.values().to_vec();
        tally.users = users.values().to_vec();
        tally.user_keys = users.hashes().to_vec();
        tally.practice_users = pairs.into_iter().collect();
        Ok(tally)
    }

    /// Joins per-source tallies into one: groups by their raw strings,
    /// shapes by ground rule, and users by name, so a user who broke the
    /// glass at two sites counts once. This is a [`KeySpace`] read done
    /// once, each tally over fresh remaps: groups with no entries stay,
    /// with zero counts.
    pub fn merge(tallies: impl IntoIterator<Item = Tally>) -> Self {
        let mut space = KeySpace::default();
        let mut sums = Sums::default();
        for tally in tallies {
            space.join(&mut Remap::default(), tally.view(), &mut sums);
        }
        space.tally(sums)
    }

    /// The tally's tables, borrowed.
    pub(crate) fn view(&self) -> TallyRef<'_> {
        TallyRef {
            groups: &self.groups,
            shapes: &self.shapes,
            users: &self.users,
            user_keys: &self.user_keys,
            practice_users: &self.practice_users,
        }
    }

    /// The distinct raw triples, in order of first appearance.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The distinct ground rules, indexed by the groups' shape ids.
    pub fn shapes(&self) -> &[Arc<GroundRule>] {
        &self.shapes
    }

    /// The distinct `(group, user)` pairs among the practice entries:
    /// group ids index [`Self::groups`]; user ids are equal iff the user
    /// names are.
    pub fn practice_users(&self) -> &[(u32, u32)] {
        &self.practice_users
    }

    /// Entries tallied.
    pub fn total_entries(&self) -> usize {
        self.groups.iter().map(|g| g.entries).sum()
    }

    /// Practice entries tallied (Algorithm 3's `Practice` array length).
    pub fn practice_entries(&self) -> usize {
        self.groups.iter().map(|g| g.practice).sum()
    }

    /// Entries covered under per-shape `verdicts` (indexed like
    /// [`Self::shapes`]): the sum of the counts of the covered groups.
    pub fn covered_entries(&self, verdicts: &[bool]) -> usize {
        self.groups
            .iter()
            .filter(|g| verdicts[g.shape as usize])
            .map(|g| g.entries)
            .sum()
    }

    /// The shapes some group with entries carries, in group order: the
    /// trail's distinct ground rules.
    pub fn shapes_with_entries(&self) -> Vec<Arc<GroundRule>> {
        let mut seen = vec![false; self.shapes.len()];
        self.groups
            .iter()
            .filter(|g| g.entries > 0 && !std::mem::replace(&mut seen[g.shape as usize], true))
            .map(|g| Arc::clone(&self.shapes[g.shape as usize]))
            .collect()
    }
}

/// A [`Remap`] slot not yet joined.
const UNSEEN: u32 = u32::MAX;

/// One source's ids in the key space: `groups[local]` is the federation
/// id of the source's group `local`, and likewise for shapes and users.
/// A shape no joined group carries yet is [`UNSEEN`].
#[derive(Debug, Default)]
struct Remap {
    groups: Vec<u32>,
    shapes: Vec<u32>,
    users: Vec<u32>,
}

/// A read in progress: per federation group, the entry and practice
/// counts so far, and the distinct federation `(group, user)` pairs.
#[derive(Debug, Default)]
struct Sums {
    entries: Vec<usize>,
    practice: Vec<usize>,
    pairs: FxHashSet<(u32, u32)>,
}

/// What one [`KeySpace`] read did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCost {
    /// Rows the read scanned: only a windowed read scans, every row of
    /// every store. An unwindowed read reads the books and scans none.
    pub rows_scanned: usize,
    /// Source-local ids (groups, shapes and users) newly joined into the
    /// key space.
    pub keys_joined: usize,
    /// Time spent reading the sources: locking the stores and scanning a
    /// window.
    pub read: Duration,
    /// Time spent joining what was read into the key space.
    pub join: Duration,
}

/// The federation-wide key space a long-lived system keeps between
/// reads.
///
/// It interns every raw triple, rule term, shape and user the
/// federation's sources have shown it, and keeps per store the remaps
/// from the store's ids to its own. A store's ids only grow, so a read
/// joins only the ids the store interned since the previous read and the
/// rest through integer remaps. A resilient source's last good fetch is a
/// store too (`crate::ResilientFederation`), so every source is joined
/// this way. A join hashes no string: triples, terms and users are found
/// by the keyed hashes their source carries, then compared in full, and a
/// shape is the triple of its terms' federation ids.
///
/// The key space also keeps one verdict per federation shape, valid for
/// one [`Policy::revision`]: extended for new shapes, recomputed when the
/// revision moves ([`Self::verdicts`]). Policy revisions only grow while
/// the policy is mutated in place, which is how a
/// `prima_core::PrimaSystem` changes its policy; a caller that swaps in
/// a different policy must start a fresh key space.
///
/// The remaps are kept by store, not by position: a read may pass the
/// stores in any order, and a store it leaves out loses its remap.
#[derive(Debug, Default)]
pub struct KeySpace {
    /// The federation's groups, counts unused: raw strings, federation
    /// shape id and carried hashes.
    groups: Vec<Group>,
    /// `groups` by their raw triples' carried hashes.
    group_index: HashIndex,
    /// The federation's rule terms, by their carried hashes.
    terms: Interner<RuleTerm>,
    /// The federation's shapes: each ground rule, the federation ids of
    /// its three terms, and the shape ids by those.
    shapes: Vec<Arc<GroundRule>>,
    shape_terms: Vec<[u32; 3]>,
    shape_ids: FxHashMap<[u32; 3], u32>,
    users: Interner<str>,
    /// One remap per store, keyed by the store's trail.
    stores: Vec<(AuditStore, Remap)>,
    /// The verdicts of the policy revision last asked about.
    decided: Option<Decided>,
}

/// One policy revision's verdicts, as far as decided: the revision's
/// compiled table, the row of each federation term a decided shape names
/// (indexed by term id), and one verdict per federation shape decided so
/// far.
#[derive(Debug)]
struct Decided {
    revision: u64,
    table: CompiledPolicy,
    rows: Vec<Option<TermRow>>,
    verdicts: Vec<bool>,
}

impl KeySpace {
    /// An empty key space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trail of `stores` as one tally over federation ids: each
    /// store's book, or for a `window` a scan of its rows, joined through
    /// the remaps.
    pub fn read(
        &mut self,
        stores: &[AuditStore],
        window: Option<TrainingWindow>,
    ) -> (Tally, ReadCost) {
        let mut cost = ReadCost::default();
        let mut sums = Sums::default();
        let mut remaps = self.take_remaps(stores);
        for (store, remap) in stores.iter().zip(&mut remaps) {
            let start = Instant::now();
            let columns = store.read();
            let scanned = window.map(|w| columns.scan(w));
            if scanned.is_some() {
                cost.rows_scanned += columns.len();
            }
            let view = scanned.as_ref().map_or_else(|| columns.book(), Tally::view);
            let read = Instant::now();
            cost.keys_joined += self.join(remap, view, &mut sums);
            cost.read += read - start;
            cost.join += read.elapsed();
        }
        self.keep_remaps(stores, remaps);
        let start = Instant::now();
        let tally = self.tally(sums);
        cost.join += start.elapsed();
        (tally, cost)
    }

    /// Entry-weighted coverage of the trail of `stores` under `policy`,
    /// with the number of ids newly joined into the key space.
    /// `uncovered_indices` index the trail in timestamp order, stable
    /// across sources: ties go to the earlier store, then to append order.
    ///
    /// Each store is locked only while its remap is extended and its
    /// `time` and shape columns are copied out. Each store is then one
    /// run in time order (a store whose rows are out of time order is
    /// stably sorted first), and the runs are merged by `(time, store)`
    /// with no store locked.
    pub fn entry_coverage(
        &mut self,
        stores: &[AuditStore],
        policy: &Policy,
        vocab: &Vocabulary,
    ) -> (EntryCoverageReport, usize) {
        let mut joined = 0;
        let mut runs: Vec<Run> = Vec::new();
        let mut remaps = self.take_remaps(stores);
        for (store, remap) in stores.iter().zip(&mut remaps) {
            let columns = store.read();
            joined += self.remap(remap, columns.book());
            let shape_of: Vec<u32> = columns
                .groups
                .iter()
                .map(|g| remap.shapes[g.shape as usize])
                .collect();
            let shape = columns.raw.iter().map(|&raw| shape_of[raw as usize]);
            runs.push(Run::new(
                columns.time.clone(),
                shape.collect(),
                !columns.out_of_order,
            ));
        }
        self.keep_remaps(stores, remaps);
        let shapes = merge_runs(&runs);
        drop(runs);
        let report = EntryCoverageReport::weigh(self.verdicts(policy, vocab), &shapes);
        (report, joined)
    }

    /// One verdict per federation shape under `policy`, indexed like a
    /// read's [`Tally::shapes`]. The verdicts are kept for one policy
    /// revision, compiled once: a later call at the same revision decides
    /// only the shapes joined since; a call at another revision compiles
    /// it and decides every shape again. Each term a shape names has its
    /// row resolved once per revision, and a shape is decided by ANDing
    /// its three rows with the three-term mask.
    pub fn verdicts(&mut self, policy: &Policy, vocab: &Vocabulary) -> &[bool] {
        let revision = policy.revision();
        self.decided.take_if(|d| d.revision != revision);
        let Decided {
            table,
            rows,
            verdicts,
            ..
        } = self.decided.get_or_insert_with(|| Decided {
            revision,
            table: CompiledPolicy::new(policy, vocab),
            rows: Vec::new(),
            verdicts: Vec::new(),
        });
        rows.resize(self.terms.len(), None);
        let terms = self.terms.values();
        for shape in &self.shape_terms[verdicts.len()..] {
            let shape_rows = shape.map(|term| {
                *rows[term as usize].get_or_insert_with(|| table.term_row(&terms[term as usize]))
            });
            verdicts.push(table.covers_rows(&shape_rows));
        }
        verdicts
    }

    /// The remaps of `stores`, taken out for a read: the one kept for
    /// each store's trail, or an empty one for a store not seen before.
    fn take_remaps(&mut self, stores: &[AuditStore]) -> Vec<Remap> {
        stores
            .iter()
            .map(|store| {
                self.stores
                    .iter_mut()
                    .find(|(kept, _)| kept.same_trail(store))
                    .map(|(_, remap)| std::mem::take(remap))
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Keeps the remaps of a read's `stores`, keyed by their trails.
    fn keep_remaps(&mut self, stores: &[AuditStore], remaps: Vec<Remap>) {
        self.stores = stores.iter().cloned().zip(remaps).collect();
    }

    /// The one join: [`Self::remap`], then the source's counts and
    /// practice pairs added to `sums` through the remap. Returns how many
    /// ids were hashed.
    fn join(&mut self, remap: &mut Remap, source: TallyRef<'_>, sums: &mut Sums) -> usize {
        let joined = self.remap(remap, source);
        sums.entries.resize(self.groups.len(), 0);
        sums.practice.resize(self.groups.len(), 0);
        for (g, &id) in source.groups.iter().zip(&remap.groups) {
            sums.entries[id as usize] += g.entries;
            sums.practice[id as usize] += g.practice;
        }
        sums.pairs.extend(
            source
                .practice_users
                .iter()
                .map(|&(g, u)| (remap.groups[g as usize], remap.users[u as usize])),
        );
        joined
    }

    /// Extends `remap` with the ids `source` interned since `remap` last
    /// saw it, joining only those into the key space, each by its carried
    /// hash in one probe. A shape is joined only when a group new to the
    /// federation carries it: a group the federation knows names the
    /// shape's federation id already. Returns how many ids were joined.
    fn remap(&mut self, remap: &mut Remap, source: TallyRef<'_>) -> usize {
        assert!(
            remap.groups.len() <= source.groups.len()
                && remap.shapes.len() <= source.shapes.len()
                && remap.users.len() <= source.users.len(),
            "a source's ids only grow"
        );
        let new_groups = &source.groups[remap.groups.len()..];
        let new_users = &source.users[remap.users.len()..];
        let mut joined = new_groups.len() + new_users.len();
        self.groups.reserve(new_groups.len());
        self.group_index.reserve(new_groups.len());
        remap.groups.reserve(new_groups.len());
        remap.shapes.resize(source.shapes.len(), UNSEEN);
        for g in new_groups {
            let groups = &self.groups;
            let (id, new) = self
                .group_index
                .find_or_insert(g.keys.raw, |id| groups[id as usize].raw == g.raw);
            let shape = &mut remap.shapes[g.shape as usize];
            if new {
                if *shape == UNSEEN {
                    *shape = self.join_shape(&source.shapes[g.shape as usize], g.keys.terms);
                    joined += 1;
                }
                self.groups.push(Group {
                    raw: g.raw.clone(),
                    shape: *shape,
                    entries: 0,
                    practice: 0,
                    keys: g.keys,
                });
            } else {
                *shape = self.groups[id as usize].shape;
            }
            remap.groups.push(id);
        }
        self.users.reserve(new_users.len());
        let user_keys = &source.user_keys[remap.users.len()..];
        for (user, &hash) in new_users.iter().zip(user_keys) {
            remap.users.push(self.users.intern_arc(hash, user));
        }
        joined
    }

    /// The federation id of `rule`, a source's shape whose terms carry
    /// `hashes`: its terms are interned by their hashes, and the shape by
    /// the triple of their ids.
    fn join_shape(&mut self, rule: &Arc<GroundRule>, hashes: [u64; 3]) -> u32 {
        let mut ids = [0; 3];
        for ((id, term), hash) in ids.iter_mut().zip(three_terms(rule)).zip(hashes) {
            *id = self
                .terms
                .intern_with(hash, term, || Arc::new(term.clone()));
        }
        let next = next_id(self.shapes.len());
        *self.shape_ids.entry(ids).or_insert_with(|| {
            self.shapes.push(Arc::clone(rule));
            self.shape_terms.push(ids);
            next
        })
    }

    /// The finished read: every federation group with the counts `sums`
    /// gathered (zero for a group no source of this read carries).
    fn tally(&self, sums: Sums) -> Tally {
        let count = |counts: &[usize], i: usize| counts.get(i).copied().unwrap_or(0);
        Tally {
            groups: self
                .groups
                .iter()
                .enumerate()
                .map(|(i, g)| Group {
                    entries: count(&sums.entries, i),
                    practice: count(&sums.practice, i),
                    ..g.clone()
                })
                .collect(),
            shapes: self.shapes.clone(),
            users: self.users.values().to_vec(),
            user_keys: self.users.hashes().to_vec(),
            practice_users: sums.pairs.into_iter().collect(),
        }
    }
}

/// One source's rows for [`merge_runs`], in time order: each row's time
/// and federation shape.
struct Run {
    time: Vec<i64>,
    shape: Vec<u32>,
}

impl Run {
    /// A source's rows, stably sorted by time unless already `sorted`
    /// (ties keep row order).
    fn new(time: Vec<i64>, shape: Vec<u32>, sorted: bool) -> Self {
        if sorted {
            return Self { time, shape };
        }
        let mut order: Vec<usize> = (0..time.len()).collect();
        order.sort_by_key(|&row| time[row]);
        Self {
            time: order.iter().map(|&row| time[row]).collect(),
            shape: order.iter().map(|&row| shape[row]).collect(),
        }
    }
}

/// The runs' shapes merged by `(time, run)`: a stable sort of the runs'
/// concatenation by time, without materializing it.
fn merge_runs(runs: &[Run]) -> Vec<u32> {
    let total = runs.iter().map(|run| run.time.len()).sum();
    let mut shapes = Vec::with_capacity(total);
    let mut positions = vec![0usize; runs.len()];
    // The first of equal minima wins, so ties go to the earlier run.
    while let Some((next, _)) = runs
        .iter()
        .zip(&positions)
        .enumerate()
        .filter_map(|(i, (run, &position))| run.time.get(position).map(|&time| (i, time)))
        .min_by_key(|&(_, time)| time)
    {
        shapes.push(runs[next].shape[positions[next]]);
        positions[next] += 1;
    }
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_vocab::samples::figure_1;
    use proptest::collection;
    use proptest::prelude::*;

    fn entry(t: i64, user: &str, data: &str, purpose: &str, authorized: &str) -> AuditEntry {
        AuditEntry::exception(t, user, data, purpose, authorized)
    }

    fn raw(g: &Group) -> [&str; 3] {
        [&*g.raw[0], &*g.raw[1], &*g.raw[2]]
    }

    #[test]
    fn variants_share_a_shape_but_not_a_group() {
        let tally = Tally::of_entries(
            &[
                entry(1, "mark", "Referral", "Registration", "Nurse"),
                entry(2, "tim", " referral ", "registration", "NURSE"),
                AuditEntry::regular(3, "bill", "address", "billing", "clerk"),
                entry(4, "mark", "Referral", "Registration", "Nurse"),
            ],
            None,
        )
        .unwrap();
        assert_eq!(tally.groups().len(), 3);
        assert_eq!(tally.shapes().len(), 2);
        assert_eq!(
            raw(&tally.groups()[0]),
            ["Referral", "Registration", "Nurse"]
        );
        assert_eq!(tally.groups()[0].shape, tally.groups()[1].shape);
        assert_eq!(
            (tally.groups()[0].entries, tally.groups()[0].practice),
            (2, 2)
        );
        assert_eq!((tally.total_entries(), tally.practice_entries()), (4, 3));
        let mut pairs = tally.practice_users().to_vec();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (1, 1)], "mark twice counts once");
        assert_eq!(tally.covered_entries(&[true, false]), 3);
        assert_eq!(tally.covered_entries(&[false, true]), 1);
    }

    #[test]
    fn window_and_prohibitions_are_filtered() {
        let mut refused = entry(5, "eve", "referral", "registration", "nurse");
        refused.op = crate::entry::Op::Disallow;
        let entries = [
            entry(1, "a", "referral", "registration", "nurse"),
            entry(2, "b", "referral", "registration", "nurse"),
            refused,
            entry(9, "c", "referral", "registration", "nurse"),
        ];
        let tally = Tally::of_entries(&entries, Some(TrainingWindow::new(2, 9))).unwrap();
        assert_eq!((tally.total_entries(), tally.practice_entries()), (2, 1));
        assert_eq!(tally.practice_users().len(), 1);
    }

    #[test]
    fn merge_joins_raw_triples_shapes_and_users_across_sources() {
        let a = Tally::of_entries(
            &[
                entry(1, "mark", "Referral", "Registration", "Nurse"),
                entry(2, "tim", "address", "billing", "clerk"),
            ],
            None,
        )
        .unwrap();
        let b = Tally::of_entries(
            &[
                entry(3, "mark", "Referral", "Registration", "Nurse"),
                entry(4, "bob", "referral", "registration", "nurse"),
            ],
            None,
        )
        .unwrap();
        let merged = Tally::merge([a, b]);
        assert_eq!(merged.groups().len(), 3, "case variants stay apart");
        assert_eq!(merged.shapes().len(), 2, "but share a shape");
        assert_eq!(merged.groups()[0].practice, 2);
        let users_of_first = merged
            .practice_users()
            .iter()
            .filter(|&&(g, _)| g == 0)
            .count();
        assert_eq!(users_of_first, 1, "mark at two sites is one user");
        assert_eq!(merged.total_entries(), 4);
    }

    #[test]
    fn merge_keeps_the_groups_a_window_emptied_at_zero() {
        let windowed = Tally {
            groups: vec![Group {
                raw: ["d".into(), "p".into(), "a".into()],
                shape: 0,
                entries: 0,
                practice: 0,
                keys: Keys::default(),
            }],
            shapes: vec![Arc::new(GroundRule::of(&[
                ("data", "d"),
                ("purpose", "p"),
                ("authorized", "a"),
            ]))],
            ..Tally::default()
        };
        let merged = Tally::merge([windowed]);
        assert_eq!(merged.groups().len(), 1);
        assert_eq!(merged.total_entries(), 0);
        assert!(
            merged.shapes_with_entries().is_empty(),
            "no entry carries it"
        );
    }

    /// A policy of ground `(data, purpose, authorized)` rules.
    fn policy(rules: &[[&str; 3]]) -> Policy {
        Policy::with_rules(
            prima_model::StoreTag::Named("p".into()),
            rules
                .iter()
                .map(|[d, p, a]| {
                    prima_model::Rule::of(&[("data", d), ("purpose", p), ("authorized", a)])
                })
                .collect(),
        )
    }

    #[test]
    fn blank_attribute_fails_closed() {
        let entries = [
            entry(1, "u", "address", "billing", "clerk"),
            entry(2, "u", "address", "  ", "clerk"),
            entry(3, "u", "address", "billing", "clerk"),
        ];
        let err = Tally::of_entries(&entries, None).unwrap_err();
        assert_eq!((err.index, err.time, err.attribute), (1, 2, "purpose"));
        assert_eq!(
            AuditStore::new("a").append_all(&entries).unwrap_err(),
            err,
            "the tally refuses what an append refuses"
        );
        // Outside the window, the blank entry is never grounded.
        let inside = Tally::of_entries(&entries, Some(TrainingWindow::new(3, 4))).unwrap();
        assert_eq!(inside.total_entries(), 1);
    }

    #[test]
    fn entry_coverage_merges_the_sources_stably_by_time() {
        // A store appended out of time order, and one in time order.
        let a = AuditStore::new("a");
        a.append_all(&[
            entry(5, "u", "referral", "registration", "nurse"),
            entry(1, "u", "psychiatry", "treatment", "doctor"),
        ])
        .unwrap();
        let b = AuditStore::new("b");
        b.append_all(&[
            entry(1, "u", "referral", "registration", "nurse"),
            entry(3, "u", "psychiatry", "treatment", "doctor"),
            entry(5, "u", "psychiatry", "treatment", "doctor"),
        ])
        .unwrap();
        let policy = policy(&[["referral", "registration", "nurse"]]);
        let mut space = KeySpace::new();
        let (report, _) = space.entry_coverage(&[a.clone(), b.clone()], &policy, &figure_1());
        // Time order, ties by store: (1, psychiatry, a), (1, referral, b),
        // (3, psychiatry, b), (5, referral, a), (5, psychiatry, b).
        assert_eq!(report.uncovered_indices, vec![0, 2, 4]);
        assert_eq!(space.shapes.len(), 2, "b shares a's shapes");
        // The other store order breaks the ties the other way.
        let (report, _) = space.entry_coverage(&[b, a], &policy, &figure_1());
        assert_eq!(report.uncovered_indices, vec![1, 2, 3]);
    }

    #[test]
    fn a_kept_key_space_hashes_only_new_ids() {
        let a = AuditStore::new("a");
        a.append_all(&[
            entry(1, "mark", "referral", "registration", "nurse"),
            entry(2, "tim", "referral", "registration", "nurse"),
        ])
        .unwrap();
        let b = AuditStore::new("b");
        b.append(&entry(3, "mark", "Referral", "registration", "nurse"))
            .unwrap();
        let stores = [a.clone(), b.clone()];
        let mut space = KeySpace::new();
        // a: one group, one shape, two users.
        let (_, cost) = space.read(&stores[..1], None);
        assert_eq!((cost.rows_scanned, cost.keys_joined), (0, 4));
        // b, attached since: one group, one shape, one user.
        let (tally, cost) = space.read(&stores, None);
        assert_eq!((cost.rows_scanned, cost.keys_joined), (0, 3));
        assert_eq!(tally.groups().len(), 2, "a case variant is its own group");
        assert_eq!(tally.shapes().len(), 1, "but shares the shape");
        assert_eq!(tally.users.len(), 2, "mark at two sites is one user");
        assert_eq!(tally.practice_users().len(), 3);

        let (again, cost) = space.read(&stores, None);
        assert_eq!((cost.rows_scanned, cost.keys_joined), (0, 0));
        assert_eq!(again, tally, "an unchanged trail reads the same tally");

        // A new triple with a new shape and a new user joins three ids;
        // a known one joins none.
        b.append(&entry(4, "ann", "psychiatry", "treatment", "doctor"))
            .unwrap();
        a.append(&entry(5, "tim", "referral", "registration", "nurse"))
            .unwrap();
        let (grown, cost) = space.read(&stores, None);
        assert_eq!((cost.rows_scanned, cost.keys_joined), (0, 3));
        assert_eq!(grown.total_entries(), 5);
        let fresh = Tally::merge([a.tally(None), b.tally(None)]);
        assert_eq!(grown.total_entries(), fresh.total_entries());
        assert_eq!(grown.practice_users().len(), fresh.practice_users().len());

        // A window scans every row of every store, and joins nothing new.
        let (windowed, cost) = space.read(&stores, Some(TrainingWindow::new(2, 5)));
        assert_eq!((cost.rows_scanned, cost.keys_joined), (5, 0));
        assert_eq!(windowed.total_entries(), 3);
        assert_eq!(windowed.groups().len(), 3, "emptied groups stay at zero");

        // A resilient source's fetch is a store too: read unchanged, it
        // joins nothing; replaced by a new store holding the same entries
        // (a fetch that did not extend the last one), it joins that
        // store's group and user, whose shape the federation knows.
        let fetch = AuditStore::new("remote");
        fetch
            .append(&entry(6, "mark", "referral", "registration", "nurse"))
            .unwrap();
        let with_fetch = [a.clone(), b.clone(), fetch.clone()];
        let (_, cost) = space.read(&with_fetch, None);
        assert_eq!((cost.rows_scanned, cost.keys_joined), (0, 2));
        for _ in 0..2 {
            let (_, cost) = space.read(&with_fetch, None);
            assert_eq!((cost.rows_scanned, cost.keys_joined), (0, 0));
        }
        let refetched = AuditStore::new("remote");
        refetched.append_all(&fetch.entries()).unwrap();
        let (_, cost) = space.read(&[a.clone(), b.clone(), refetched], None);
        assert_eq!((cost.rows_scanned, cost.keys_joined), (0, 2));

        // The remaps are kept by store, not by position: the stores in
        // another order join nothing and read the same tally ...
        let sorted_pairs = |t: &Tally| {
            let mut pairs = t.practice_users().to_vec();
            pairs.sort_unstable();
            pairs
        };
        let (reordered, cost) = space.read(&[b.clone(), a.clone()], None);
        assert_eq!((cost.rows_scanned, cost.keys_joined), (0, 0));
        assert_eq!(reordered.groups(), grown.groups());
        assert_eq!(sorted_pairs(&reordered), sorted_pairs(&grown));
        // ... and a store in another's place is joined as itself.
        let c = AuditStore::new("c");
        c.append(&entry(7, "zoe", "address", "billing", "clerk"))
            .unwrap();
        let (alone, cost) = space.read(std::slice::from_ref(&c), None);
        assert_eq!((cost.rows_scanned, cost.keys_joined), (0, 3));
        assert_eq!((alone.total_entries(), alone.practice_entries()), (1, 1));
        let (_, cost) = space.read(&stores, None);
        // a and b, left out, are joined again: their groups (1 + 2) and
        // users (2 + 2); the federation knows the groups' shapes.
        assert_eq!(cost.keys_joined, 7);
    }

    #[test]
    fn verdicts_are_kept_for_one_revision() {
        let store = AuditStore::new("a");
        store
            .append(&entry(1, "u", "referral", "registration", "nurse"))
            .unwrap();
        let stores = [store.clone()];
        let vocab = figure_1();
        let psychiatry = ["psychiatry", "treatment", "doctor"];
        let mut p = policy(&[psychiatry, psychiatry]);
        let mut space = KeySpace::new();
        space.read(&stores, None);
        assert_eq!(space.verdicts(&p, &vocab), [false]);
        // A new shape is decided alone; the kept verdict stays.
        store
            .append(&entry(2, "u", "psychiatry", "treatment", "doctor"))
            .unwrap();
        space.read(&stores, None);
        assert_eq!(space.verdicts(&p, &vocab), [false, true]);
        // A new revision decides every shape again, even one that holds
        // as many rules as the last.
        assert_eq!(p.dedup(), 1);
        p.push(prima_model::Rule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]));
        assert_eq!(space.verdicts(&p, &vocab), [true, true]);
    }

    /// A one-entry tally of `raw` by `user`, built by hand so that its
    /// carried hashes can be forced: every triple, term and user of it
    /// carries the same hash.
    fn forced(raw: [&str; 3], user: &str) -> Tally {
        let rule = GroundRule::of(&[
            ("data", raw[0]),
            ("purpose", raw[1]),
            ("authorized", raw[2]),
        ]);
        Tally {
            groups: vec![Group {
                raw: raw.map(Arc::from),
                shape: 0,
                entries: 1,
                practice: 1,
                keys: Keys {
                    raw: 7,
                    terms: [7; 3],
                },
            }],
            shapes: vec![Arc::new(rule)],
            users: vec![user.into()],
            user_keys: vec![7],
            practice_users: vec![(0, 0)],
        }
    }

    #[test]
    fn equal_carried_hashes_never_join_different_values() {
        let mut space = KeySpace::new();
        let mut sums = Sums::default();
        for tally in [
            forced(["referral", "registration", "nurse"], "mark"),
            forced(["address", "billing", "clerk"], "tim"),
            // A case variant: its own group, the first one's shape.
            forced(["Referral", "registration", "nurse"], "mark"),
        ] {
            space.join(&mut Remap::default(), tally.view(), &mut sums);
        }
        assert_eq!(space.groups.len(), 3, "three raw triples");
        assert_eq!(space.terms.len(), 6, "six terms");
        assert_eq!(space.shapes.len(), 2, "two shapes");
        assert_eq!(space.users.len(), 2, "two users");
        assert_eq!(space.shape_terms, [[0, 1, 2], [3, 4, 5]]);
        let merged = space.tally(sums);
        assert_eq!(merged.groups()[2].shape, 0);
        assert_eq!(merged.practice_users().len(), 3);
        // Each shape is decided by its own terms' rows.
        let p = policy(&[["address", "billing", "clerk"]]);
        assert_eq!(space.verdicts(&p, &figure_1()), [false, true]);
    }

    #[test]
    fn a_revision_resolves_its_own_term_rows() {
        let store = AuditStore::new("a");
        store
            .append_all(&[
                entry(1, "u", "referral", "registration", "nurse"),
                entry(2, "u", "address", "billing", "clerk"),
            ])
            .unwrap();
        let vocab = figure_1();
        let mut p = policy(&[["referral", "registration", "nurse"]]);
        let mut space = KeySpace::new();
        space.read(&[store], None);
        assert_eq!(space.verdicts(&p, &vocab), [true, false]);
        // The next revision numbers its rows afresh: `clerk` and
        // `address` take the rows `referral` and `registration` had, so a
        // row kept from the last revision would decide both shapes wrong.
        p.push(prima_model::Rule::of(&[
            ("data", "address"),
            ("purpose", "billing"),
            ("authorized", "clerk"),
        ]));
        assert_eq!(space.verdicts(&p, &vocab), [true, true]);
    }

    /// Entry values: case variants that share a shape, and values the
    /// vocabulary does not know (`x-ray`, `triage`, `doctor`).
    const DATA: [&str; 6] = [
        "referral",
        "Referral",
        " referral ",
        "psychiatry",
        "address",
        "x-ray",
    ];
    const PURPOSE: [&str; 4] = ["registration", "Treatment", "billing", "triage"];
    const AUTHORIZED: [&str; 4] = ["nurse", "NURSE", "clerk", "doctor"];
    /// Rule values: concepts at every level, and the unknown ones.
    const RULE_DATA: [&str; 6] = [
        "referral",
        "general-care",
        "medical",
        "demographic",
        "psychiatry",
        "x-ray",
    ];
    const RULE_PURPOSE: [&str; 4] = [
        "registration",
        "administering-healthcare",
        "billing",
        "triage",
    ];
    const RULE_AUTHORIZED: [&str; 4] = ["nurse", "medical-staff", "clerk", "doctor"];

    fn arb_entry() -> impl Strategy<Value = AuditEntry> {
        (
            0..DATA.len(),
            0..PURPOSE.len(),
            0..AUTHORIZED.len(),
            0i64..10,
        )
            .prop_map(|(d, p, a, t)| entry(t, "u", DATA[d], PURPOSE[p], AUTHORIZED[a]))
    }

    /// A rule over a non-empty subset of the three attributes and a
    /// fourth, so that rules of every cardinality meet the three-term
    /// shapes.
    fn arb_rule() -> impl Strategy<Value = prima_model::Rule> {
        (
            0..RULE_DATA.len(),
            0..RULE_PURPOSE.len(),
            0..RULE_AUTHORIZED.len(),
            1u8..16,
        )
            .prop_map(|(d, p, a, attrs)| {
                let pairs = [
                    ("data", RULE_DATA[d]),
                    ("purpose", RULE_PURPOSE[p]),
                    ("authorized", RULE_AUTHORIZED[a]),
                    ("recipient", "insurer"),
                ];
                let chosen: Vec<(&str, &str)> = (0..4)
                    .filter(|i| attrs & (1 << i) != 0)
                    .map(|i| pairs[i])
                    .collect();
                prima_model::Rule::of(&chosen)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The key space's verdicts, decided from term rows resolved once
        /// per revision, equal the compiled table's and Algorithm 1's
        /// answer for each shape's ground rule, as stores grow, stores
        /// join, and the policy grows, drops copies or is touched.
        #[test]
        fn key_space_verdicts_equal_the_table_on_every_shape(
            first in collection::vec(arb_entry(), 0..12),
            rules in collection::vec(arb_rule(), 0..4),
            steps in collection::vec(
                (0u8..5, 0usize..4, collection::vec(arb_entry(), 0..12), arb_rule()),
                1..10,
            ),
        ) {
            let vocab = figure_1();
            let mut p = Policy::with_rules(prima_model::StoreTag::PolicyStore, rules);
            let mut stores = vec![AuditStore::new("site-0")];
            stores[0].append_all(&first).unwrap();
            let mut space = KeySpace::new();
            for (kind, site, entries, rule) in steps {
                match kind {
                    0 => {
                        stores[site % stores.len()].append_all(&entries).unwrap();
                    }
                    1 => {
                        let store = AuditStore::new(&format!("site-{}", stores.len()));
                        store.append_all(&entries).unwrap();
                        stores.push(store);
                    }
                    2 => p.push(rule),
                    3 => {
                        p.push(rule.clone());
                        p.push(rule);
                        p.dedup();
                    }
                    _ => p.touch(),
                }
                let (tally, _) = space.read(&stores, None);
                let table = CompiledPolicy::new(&p, &vocab);
                let expected: Vec<bool> = tally.shapes().iter().map(|s| table.covers(s)).collect();
                for (shape, &covered) in tally.shapes().iter().zip(&expected) {
                    let sanctioned = p.rules().iter().any(|r| r.expansion_contains(shape, &vocab));
                    prop_assert_eq!(covered, sanctioned);
                }
                prop_assert_eq!(space.verdicts(&p, &vocab), expected.as_slice());
            }
        }
    }

    #[test]
    fn empty_tally_has_no_groups() {
        let tally = Tally::of_entries(&[], None).unwrap();
        assert!(tally.groups().is_empty());
        assert_eq!(tally.total_entries(), 0);
        assert_eq!(tally.covered_entries(&[]), 0);
        assert!(Tally::merge([]).groups().is_empty());
    }
}
