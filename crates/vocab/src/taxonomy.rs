//! A per-attribute concept taxonomy (forest).
//!
//! The paper's Figure 1 shows one of these for the `data` attribute:
//! `demographic` is a composite concept whose derivable ground set `RT'`
//! contains four leaves (`name`, `address`, `gender`, `date-of-birth`).
//! A taxonomy answers the three questions the formal model needs:
//!
//! 1. is a value ground or composite? ([`Taxonomy::is_leaf`])
//! 2. what is the `RT'` leaf set of a composite value?
//!    ([`Taxonomy::leaves_under`])
//! 3. do two values share a derivable ground term — i.e. are the terms
//!    equivalent per Definition 4? ([`Taxonomy::related`])

use crate::concept::{Concept, ConceptId};
use crate::error::VocabError;
use crate::normalize;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A forest of named concepts for a single attribute.
///
/// Concept names are unique within the taxonomy (after
/// [`normalize`](crate::normalize())); lookups by name are O(1).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Taxonomy {
    concepts: Vec<Concept>,
    roots: Vec<ConceptId>,
    #[serde(skip)]
    by_name: HashMap<String, ConceptId>,
}

impl Taxonomy {
    /// Creates an empty taxonomy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of concepts (ground + composite).
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// True iff the taxonomy has no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// The root concepts, in insertion order.
    pub fn roots(&self) -> &[ConceptId] {
        &self.roots
    }

    /// Adds a root concept. Returns its id.
    pub fn add_root(&mut self, name: &str) -> Result<ConceptId, VocabError> {
        self.insert(name, None)
    }

    /// Adds a child concept under `parent`. Returns its id.
    pub fn add_child(&mut self, parent: ConceptId, name: &str) -> Result<ConceptId, VocabError> {
        self.insert(name, Some(parent))
    }

    /// Adds a child concept under the concept named `parent`.
    pub fn add_child_of(&mut self, parent: &str, name: &str) -> Result<ConceptId, VocabError> {
        let pid = self
            .resolve(parent)
            .ok_or_else(|| VocabError::UnknownParent {
                attr: String::new(),
                parent: normalize(parent),
            })?;
        self.insert(name, Some(pid))
    }

    fn insert(&mut self, name: &str, parent: Option<ConceptId>) -> Result<ConceptId, VocabError> {
        let name = normalize(name);
        if name.is_empty() {
            return Err(VocabError::EmptyName {
                attr: String::new(),
            });
        }
        if self.by_name.contains_key(&name) {
            return Err(VocabError::DuplicateConcept {
                attr: String::new(),
                concept: name,
            });
        }
        let id = ConceptId(self.concepts.len() as u32);
        let depth = match parent {
            Some(p) => self.concepts[p.index()].depth + 1,
            None => 0,
        };
        self.concepts.push(Concept {
            name: name.clone(),
            parent,
            children: Vec::new(),
            depth,
        });
        match parent {
            Some(p) => self.concepts[p.index()].children.push(id),
            None => self.roots.push(id),
        }
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Looks a concept up by (unnormalized) name.
    ///
    /// Hot path for the coverage engine: names that are already canonical
    /// (the common case — model types normalize on construction) are looked
    /// up without allocating.
    pub fn resolve(&self, name: &str) -> Option<ConceptId> {
        if is_canonical(name) {
            self.by_name.get(name).copied()
        } else {
            self.by_name.get(&normalize(name)).copied()
        }
    }

    /// Returns the concept for `id`.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// Canonical name of a concept.
    pub fn name(&self, id: ConceptId) -> &str {
        &self.concepts[id.index()].name
    }

    /// True iff `id` is a leaf, i.e. denotes a **ground** value
    /// (Definition 2).
    pub fn is_leaf(&self, id: ConceptId) -> bool {
        self.concepts[id.index()].is_leaf()
    }

    /// True iff the named value is ground with respect to this taxonomy.
    ///
    /// Values not present in the taxonomy are treated as ground atoms: the
    /// vocabulary cannot subdivide something it does not know, which is
    /// exactly the situation of free-text role strings in real audit logs.
    pub fn is_ground_value(&self, name: &str) -> bool {
        match self.resolve(name) {
            Some(id) => self.is_leaf(id),
            None => true,
        }
    }

    /// The set `RT'` of ground concepts derivable from `id`: all leaves of
    /// the subtree rooted at `id`. For a leaf this is `{id}` itself,
    /// consistent with Definition 3's guarantee that a ground term can always
    /// be produced.
    pub fn leaves_under(&self, id: ConceptId) -> Vec<ConceptId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            let c = &self.concepts[cur.index()];
            if c.is_leaf() {
                out.push(cur);
            } else {
                // Push in reverse so leaves come out in insertion order.
                stack.extend(c.children.iter().rev().copied());
            }
        }
        out
    }

    /// Number of leaves in the subtree rooted at `id`, without materializing
    /// the leaf set.
    pub fn leaf_count_under(&self, id: ConceptId) -> usize {
        let c = &self.concepts[id.index()];
        if c.is_leaf() {
            1
        } else {
            c.children.iter().map(|&ch| self.leaf_count_under(ch)).sum()
        }
    }

    /// True iff `ancestor` is `descendant` or a proper ancestor of it.
    ///
    /// This is the subsumption test: `subsumes(a, d)` iff every ground term
    /// derivable from `d` is also derivable from `a`.
    pub fn subsumes(&self, ancestor: ConceptId, descendant: ConceptId) -> bool {
        let mut cur = Some(descendant);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.concepts[c.index()].parent;
        }
        false
    }

    /// True iff the two concepts' `RT'` leaf sets intersect — the
    /// taxonomy-level core of Definition 4 (term equivalence).
    ///
    /// In a forest, two subtrees share a leaf iff one subtree contains the
    /// other, so this reduces to subsumption in either direction.
    pub fn related(&self, a: ConceptId, b: ConceptId) -> bool {
        self.subsumes(a, b) || self.subsumes(b, a)
    }

    /// All leaves of the whole taxonomy.
    pub fn all_leaves(&self) -> Vec<ConceptId> {
        (0..self.concepts.len() as u32)
            .map(ConceptId)
            .filter(|&id| self.is_leaf(id))
            .collect()
    }

    /// Iterates over `(id, concept)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ConceptId, &Concept)> {
        self.concepts
            .iter()
            .enumerate()
            .map(|(i, c)| (ConceptId(i as u32), c))
    }

    /// Maximum node depth (roots are depth 0); 0 for an empty taxonomy.
    pub fn max_depth(&self) -> u32 {
        self.concepts.iter().map(|c| c.depth).max().unwrap_or(0)
    }

    /// Rebuilds the name index and checks structural integrity. Used after
    /// deserialization, where the `by_name` map is skipped.
    pub fn rebuild_index(&mut self) -> Result<(), VocabError> {
        self.by_name.clear();
        for (i, c) in self.concepts.iter().enumerate() {
            if self
                .by_name
                .insert(c.name.clone(), ConceptId(i as u32))
                .is_some()
            {
                return Err(VocabError::DuplicateConcept {
                    attr: String::new(),
                    concept: c.name.clone(),
                });
            }
        }
        // Cycle / parent sanity check: walk each node to a root, bounded by n.
        let n = self.concepts.len();
        for start in 0..n {
            let mut cur = self.concepts[start].parent;
            let mut steps = 0usize;
            while let Some(p) = cur {
                if p.index() >= n || steps > n {
                    return Err(VocabError::Cycle {
                        attr: String::new(),
                    });
                }
                cur = self.concepts[p.index()].parent;
                steps += 1;
            }
        }
        Ok(())
    }

    /// Renders the taxonomy as the indented text format accepted by
    /// [`crate::parse::parse_taxonomy_block`].
    pub fn to_indented_text(&self) -> String {
        let mut out = String::new();
        for &r in &self.roots {
            self.render(r, 0, &mut out);
        }
        out
    }

    fn render(&self, id: ConceptId, indent: usize, out: &mut String) {
        let c = &self.concepts[id.index()];
        for _ in 0..indent {
            out.push_str("  ");
        }
        out.push_str(&c.name);
        out.push('\n');
        for &ch in &c.children {
            self.render(ch, indent + 1, out);
        }
    }
}

/// True iff `normalize(name) == name`, decidable without allocating:
/// non-empty, ASCII (any non-ASCII character falls back to the allocating
/// path — lowercasing may change it), no uppercase, no whitespace or
/// underscores (they would become `-`), and no trailing `-` (normalize
/// strips those). Literal interior/leading dashes are preserved by
/// `normalize`, so they are canonical.
fn is_canonical(name: &str) -> bool {
    if name.ends_with('-') {
        return false;
    }
    name.chars().all(|ch| {
        ch.is_ascii() && !ch.is_ascii_uppercase() && !ch.is_ascii_whitespace() && ch != '_'
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_canonical_agrees_with_normalize() {
        for s in [
            "referral",
            "date-of-birth",
            "Referral",
            " referral",
            "a_b",
            "a--b",
            "-a",
            "a-",
            "",
            "Ünïcode",
            "a b",
        ] {
            assert_eq!(
                is_canonical(s),
                normalize(s) == s,
                "is_canonical disagreed with normalize for {s:?}"
            );
        }
    }

    fn demo() -> Taxonomy {
        // Figure 1's `data` fragment.
        let mut t = Taxonomy::new();
        let demo = t.add_root("demographic").unwrap();
        t.add_child(demo, "name").unwrap();
        t.add_child(demo, "address").unwrap();
        t.add_child(demo, "gender").unwrap();
        t.add_child(demo, "date-of-birth").unwrap();
        t
    }

    #[test]
    fn ground_and_composite_classification() {
        let t = demo();
        let demo_id = t.resolve("demographic").unwrap();
        let gender = t.resolve("gender").unwrap();
        assert!(!t.is_leaf(demo_id), "demographic is composite (RT1)");
        assert!(t.is_leaf(gender), "gender is ground (RT3)");
        assert!(t.is_ground_value("gender"));
        assert!(!t.is_ground_value("demographic"));
        // Unknown values are ground atoms.
        assert!(t.is_ground_value("doctor"));
    }

    #[test]
    fn rt_prime_of_demographic_has_four_leaves() {
        let t = demo();
        let demo_id = t.resolve("demographic").unwrap();
        let leaves = t.leaves_under(demo_id);
        assert_eq!(leaves.len(), 4, "Figure 1: RT1' comprises four ground RTs");
        assert_eq!(t.leaf_count_under(demo_id), 4);
        let names: Vec<_> = leaves.iter().map(|&l| t.name(l)).collect();
        assert_eq!(names, vec!["name", "address", "gender", "date-of-birth"]);
    }

    #[test]
    fn leaf_rt_prime_is_itself() {
        let t = demo();
        let gender = t.resolve("gender").unwrap();
        assert_eq!(t.leaves_under(gender), vec![gender]);
    }

    #[test]
    fn subsumption_and_relatedness() {
        let t = demo();
        let demo_id = t.resolve("demographic").unwrap();
        let addr = t.resolve("address").unwrap();
        let gender = t.resolve("gender").unwrap();
        assert!(t.subsumes(demo_id, addr));
        assert!(!t.subsumes(addr, demo_id));
        assert!(t.subsumes(addr, addr));
        // Definition 4 example: RT2 ≈ RT1 and RT3 ≈ RT1, but RT2 !≈ RT3.
        assert!(t.related(addr, demo_id));
        assert!(t.related(gender, demo_id));
        assert!(!t.related(addr, gender));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = demo();
        let err = t.add_root("demographic").unwrap_err();
        assert!(matches!(err, VocabError::DuplicateConcept { .. }));
        // Case-insensitive duplication too.
        let err = t.add_root("Demographic").unwrap_err();
        assert!(matches!(err, VocabError::DuplicateConcept { .. }));
    }

    #[test]
    fn empty_name_rejected() {
        let mut t = Taxonomy::new();
        assert!(matches!(
            t.add_root("  "),
            Err(VocabError::EmptyName { .. })
        ));
    }

    #[test]
    fn add_child_of_unknown_parent_fails() {
        let mut t = demo();
        assert!(matches!(
            t.add_child_of("nonexistent", "x"),
            Err(VocabError::UnknownParent { .. })
        ));
    }

    #[test]
    fn multi_root_forest() {
        let mut t = Taxonomy::new();
        t.add_root("medical").unwrap();
        t.add_root("financial").unwrap();
        t.add_child_of("medical", "prescription").unwrap();
        assert_eq!(t.roots().len(), 2);
        let med = t.resolve("medical").unwrap();
        let fin = t.resolve("financial").unwrap();
        assert!(!t.related(med, fin));
    }

    #[test]
    fn all_leaves_and_depth() {
        let t = demo();
        assert_eq!(t.all_leaves().len(), 4);
        assert_eq!(t.max_depth(), 1);
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let t = demo();
        let json = serde_json::to_string(&t).unwrap();
        let mut back: Taxonomy = serde_json::from_str(&json).unwrap();
        back.rebuild_index().unwrap();
        assert_eq!(back.resolve("gender"), t.resolve("gender"));
        assert_eq!(back.len(), t.len());
    }

    #[test]
    fn indented_text_roundtrips_structure() {
        let t = demo();
        let text = t.to_indented_text();
        assert!(text.starts_with("demographic\n  name\n"));
    }

    #[test]
    fn rebuild_index_detects_cycles() {
        let mut t = demo();
        // Corrupt: make root's parent point at its own child.
        let demo_id = t.resolve("demographic").unwrap();
        let addr = t.resolve("address").unwrap();
        t.concepts[demo_id.index()].parent = Some(addr);
        assert!(matches!(t.rebuild_index(), Err(VocabError::Cycle { .. })));
    }
}
