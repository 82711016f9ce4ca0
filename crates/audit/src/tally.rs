//! What a refinement round reads from a trail: a [`Tally`] per raw access
//! triple, and a [`ShapeTimeline`] for the per-entry coverage snapshot.
//!
//! A hospital trail repeats a few thousand raw `(data, purpose,
//! authorized)` triples hundreds of thousands of times. Coverage depends
//! only on a triple's ground rule, and Algorithm 5's group-by only on the
//! triple's practice entries and their users, so a round needs one count
//! per triple, not the entries (Garg, Jia & Datta: audit cost should
//! follow the distinct state, not the log length). An
//! [`crate::AuditStore`] builds its tally from its interned columns in one
//! scan; entries held elsewhere (a resilient source's last good fetch) are
//! tallied by [`Tally::of_entries`]; [`Tally::merge`] then joins the
//! sources by raw strings and user names.

use crate::entry::AuditEntry;
use crate::intern::{next_id, FxHashSet, Interner};
use crate::retention::TrainingWindow;
use crate::store::{flags_of, PRACTICE};
use prima_model::{EntryCoverageReport, GroundRule};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The shape id [`ShapeTimeline::extend_entries`] gives an entry that
/// projects to no ground rule. No verdict exists for it, so
/// [`EntryCoverageReport::weigh`] counts it as uncovered.
pub const NO_SHAPE: u32 = u32::MAX;

/// An audit entry that cannot be projected onto a ground rule, because
/// one of its attributes normalizes to empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrailError {
    /// Position of the entry in the tallied slice.
    pub index: usize,
    /// The blank attribute (`data`, `purpose` or `authorized`).
    pub attribute: &'static str,
}

impl TrailError {
    fn of(index: usize, entry: &AuditEntry) -> Self {
        // `blank_attribute` names exactly the entries `to_ground_rule`
        // refuses.
        Self {
            index,
            attribute: entry.blank_attribute().unwrap_or(crate::schema::COL_DATA),
        }
    }
}

impl fmt::Display for TrailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit entry {} has a blank {}; it projects to no ground rule",
            self.index, self.attribute
        )
    }
}

impl std::error::Error for TrailError {}

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
}

/// A trail reduced to its raw access triples: per triple, how many
/// entries carry it, how many of those are practice (what Algorithm 3's
/// `Filter` keeps), and which users produced the practice entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub(crate) groups: Vec<Group>,
    pub(crate) shapes: Vec<Arc<GroundRule>>,
    /// User names, indexed by the user ids of `practice_users`.
    pub(crate) users: Vec<Arc<str>>,
    /// Distinct `(group, user)` pairs among the practice entries.
    pub(crate) practice_users: Vec<(u32, u32)>,
}

impl Tally {
    /// Tallies `entries` (only those inside `window`, when given),
    /// failing closed on the first one with a blank attribute.
    ///
    /// Entries are keyed by their raw borrowed strings, so
    /// [`AuditEntry::to_ground_rule`] runs once per distinct raw triple;
    /// case and whitespace variants that project to the same ground rule
    /// (`Referral`, ` referral `) share one shape but stay two groups.
    pub fn of_entries(
        entries: &[AuditEntry],
        window: Option<TrainingWindow>,
    ) -> Result<Self, TrailError> {
        let mut tally = Self::default();
        let mut groups: HashMap<(&str, &str, &str), u32> = HashMap::new();
        let mut shapes: Interner<GroundRule> = Interner::default();
        let mut users: HashMap<&str, u32> = HashMap::new();
        let mut pairs: FxHashSet<(u32, u32)> = FxHashSet::default();
        for (index, e) in entries.iter().enumerate() {
            if window.is_some_and(|w| !w.contains(e.time)) {
                continue;
            }
            let key = (e.data.as_str(), e.purpose.as_str(), e.authorized.as_str());
            let group = match groups.get(&key) {
                Some(&id) => id,
                None => {
                    let rule = e.to_ground_rule().map_err(|_| TrailError::of(index, e))?;
                    let shape = shapes.intern_owned(rule);
                    let id = next_id(tally.groups.len());
                    tally.groups.push(Group {
                        raw: [key.0.into(), key.1.into(), key.2.into()],
                        shape,
                        entries: 0,
                        practice: 0,
                    });
                    groups.insert(key, id);
                    id
                }
            };
            let g = &mut tally.groups[group as usize];
            g.entries += 1;
            if flags_of(e) == PRACTICE {
                g.practice += 1;
                let next = next_id(tally.users.len());
                let user = *users.entry(e.user.as_str()).or_insert_with(|| {
                    tally.users.push(e.user.as_str().into());
                    next
                });
                pairs.insert((group, user));
            }
        }
        tally.shapes = shapes.values().to_vec();
        tally.practice_users = pairs.into_iter().collect();
        Ok(tally)
    }

    /// Joins per-source tallies into one: groups by their raw strings,
    /// shapes by ground rule, and users by name, so a user who broke the
    /// glass at two sites counts once. Groups with no entries (every
    /// entry fell outside the window) are dropped.
    pub fn merge(tallies: impl IntoIterator<Item = Tally>) -> Self {
        let mut out = Self::default();
        let mut groups: HashMap<[Arc<str>; 3], u32> = HashMap::new();
        let mut shapes: Interner<GroundRule> = Interner::default();
        let mut users: Interner<str> = Interner::default();
        let mut pairs: FxHashSet<(u32, u32)> = FxHashSet::default();
        for tally in tallies {
            let mut shape_ids = vec![u32::MAX; tally.shapes.len()];
            let mut group_ids = vec![u32::MAX; tally.groups.len()];
            for (local, g) in tally.groups.into_iter().enumerate() {
                if g.entries == 0 {
                    continue;
                }
                let id = match groups.get(&g.raw) {
                    Some(&id) => id,
                    None => {
                        let shape = &mut shape_ids[g.shape as usize];
                        if *shape == u32::MAX {
                            *shape = shapes.intern_arc(&tally.shapes[g.shape as usize]);
                        }
                        let id = next_id(out.groups.len());
                        groups.insert(g.raw.clone(), id);
                        out.groups.push(Group {
                            raw: g.raw,
                            shape: *shape,
                            entries: 0,
                            practice: 0,
                        });
                        id
                    }
                };
                let merged = &mut out.groups[id as usize];
                merged.entries += g.entries;
                merged.practice += g.practice;
                group_ids[local] = id;
            }
            let mut user_ids = vec![u32::MAX; tally.users.len()];
            for (group, user) in tally.practice_users {
                let id = &mut user_ids[user as usize];
                if *id == u32::MAX {
                    *id = users.intern_arc(&tally.users[user as usize]);
                }
                pairs.insert((group_ids[group as usize], *id));
            }
        }
        out.shapes = shapes.values().to_vec();
        out.users = users.values().to_vec();
        out.practice_users = pairs.into_iter().collect();
        out
    }

    /// The distinct raw triples, in order of first appearance.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The distinct ground rules the groups project to.
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
}

/// A trail as `(time, shape)` rows over its distinct shapes: what
/// per-entry coverage needs, without the entries.
#[derive(Debug, Clone, Default)]
pub struct ShapeTimeline {
    pub(crate) shapes: Interner<GroundRule>,
    pub(crate) rows: Vec<(i64, u32)>,
}

impl ShapeTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `entries` in order, giving an entry that projects to no
    /// ground rule the id [`NO_SHAPE`].
    pub fn extend_entries(&mut self, entries: &[AuditEntry]) {
        let mut by_raw: HashMap<(&str, &str, &str), u32> = HashMap::new();
        self.rows.reserve(entries.len());
        for e in entries {
            let key = (e.data.as_str(), e.purpose.as_str(), e.authorized.as_str());
            let shape = *by_raw
                .entry(key)
                .or_insert_with(|| match e.to_ground_rule() {
                    Ok(rule) => self.shapes.intern_owned(rule),
                    Err(_) => NO_SHAPE,
                });
            self.rows.push((e.time, shape));
        }
    }

    /// The distinct shapes, indexed by the rows' shape ids.
    pub fn shapes(&self) -> &[Arc<GroundRule>] {
        self.shapes.values()
    }

    /// Orders the rows by time, stably (ties keep the order they were
    /// appended in: source order, then append order), and weighs per-shape
    /// `verdicts` onto them. `uncovered_indices` index that time order.
    pub fn weigh(mut self, verdicts: &[bool]) -> EntryCoverageReport {
        self.rows.sort_by_key(|&(time, _)| time);
        let ids: Vec<u32> = self.rows.iter().map(|&(_, shape)| shape).collect();
        EntryCoverageReport::weigh(verdicts, &ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn merge_drops_groups_the_window_emptied() {
        let windowed = Tally {
            groups: vec![Group {
                raw: ["d".into(), "p".into(), "a".into()],
                shape: 0,
                entries: 0,
                practice: 0,
            }],
            shapes: vec![Arc::new(GroundRule::of(&[
                ("data", "d"),
                ("purpose", "p"),
                ("authorized", "a"),
            ]))],
            ..Tally::default()
        };
        let merged = Tally::merge([windowed]);
        assert!(merged.groups().is_empty());
        assert!(merged.shapes().is_empty());
    }

    #[test]
    fn blank_attribute_fails_closed_or_has_no_shape() {
        let entries = [
            entry(1, "u", "address", "billing", "clerk"),
            entry(2, "u", "address", "  ", "clerk"),
            entry(3, "u", "address", "billing", "clerk"),
        ];
        let err = Tally::of_entries(&entries, None).unwrap_err();
        assert_eq!(
            err,
            TrailError {
                index: 1,
                attribute: "purpose"
            }
        );
        assert!(err.to_string().contains("entry 1 has a blank purpose"));
        // Outside the window, the blank entry is never grounded.
        let inside = Tally::of_entries(&entries, Some(TrainingWindow::new(3, 4))).unwrap();
        assert_eq!(inside.total_entries(), 1);

        let mut timeline = ShapeTimeline::new();
        timeline.extend_entries(&entries);
        assert_eq!(timeline.rows, vec![(1, 0), (2, NO_SHAPE), (3, 0)]);
        let report = timeline.weigh(&[true]);
        assert_eq!((report.covered_entries, report.total_entries), (2, 3));
        assert_eq!(report.uncovered_indices, vec![1]);
    }

    #[test]
    fn timeline_orders_rows_stably_by_time() {
        let mut timeline = ShapeTimeline::new();
        timeline.extend_entries(&[
            entry(5, "u", "referral", "registration", "nurse"),
            entry(1, "u", "psychiatry", "treatment", "doctor"),
        ]);
        timeline.extend_entries(&[
            entry(1, "u", "referral", "registration", "nurse"),
            entry(3, "u", "psychiatry", "treatment", "doctor"),
        ]);
        assert_eq!(timeline.shapes().len(), 2);
        // Time order: (1, psychiatry), (1, referral), (3, psychiatry), (5, referral).
        let report = timeline.weigh(&[true, false]);
        assert_eq!(report.uncovered_indices, vec![0, 2]);
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
