//! Path → data-category mapping: the hierarchical analog of the
//! relational column map.

use crate::path::{PathError, PathPattern};
use prima_vocab::normalize;
use std::collections::HashMap;

/// An ordered set of `(pattern, category)` mappings with
/// most-specific-match-wins resolution.
///
/// Patterns are indexed in a trie over their segments: a named segment
/// is a child keyed by its name, `*` one shared wildcard child. Resolving
/// a node walks its path down the trie, so it tries only the patterns
/// whose every segment can match, however many are registered.
#[derive(Debug, Clone, Default)]
pub struct PathCategoryMap {
    entries: Vec<(PathPattern, String)>,
    index: Trie,
}

/// One trie node: the patterns whose segments before any `**` end here.
#[derive(Debug, Clone, Default)]
struct Trie {
    named: HashMap<String, Trie>,
    wild: Option<Box<Trie>>,
    /// Positions in `entries` of patterns ending here: they match a path
    /// that ends here.
    exact: Vec<usize>,
    /// Positions of patterns ending here in `**`: they match a path at
    /// or below this node.
    subtree: Vec<usize>,
}

impl Trie {
    fn insert(&mut self, pattern: &PathPattern, position: usize) {
        let mut node = self;
        for step in pattern.fixed_names() {
            node = match step {
                Some(name) => node.named.entry(name.to_string()).or_default(),
                None => node.wild.get_or_insert_with(Box::default),
            };
        }
        if pattern.is_subtree() {
            node.subtree.push(position);
        } else {
            node.exact.push(position);
        }
    }

    /// Calls `found` with every pattern matching the rest of `path`.
    fn matches(&self, path: &[String], found: &mut impl FnMut(usize)) {
        self.subtree.iter().for_each(|&i| found(i));
        let Some((first, rest)) = path.split_first() else {
            self.exact.iter().for_each(|&i| found(i));
            return;
        };
        if let Some(child) = self.named.get(first) {
            child.matches(rest, found);
        }
        if let Some(child) = &self.wild {
            child.matches(rest, found);
        }
    }
}

impl PathCategoryMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a pattern to a category.
    pub fn map(&mut self, pattern: &str, category: &str) -> Result<&mut Self, PathError> {
        let p = PathPattern::parse(pattern)?;
        self.index.insert(&p, self.entries.len());
        self.entries.push((p, normalize(category)));
        Ok(self)
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no mappings are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The category of a node whose root-to-node names are `path`, if any
    /// pattern matches. Among matches the most specific pattern wins;
    /// among equal specificity, the *last* registered wins (so later,
    /// site-specific mappings override earlier defaults).
    pub fn category_of(&self, path: &[&str]) -> Option<&str> {
        let path: Vec<String> = path.iter().map(|name| normalize(name)).collect();
        let mut best: Option<(usize, usize)> = None; // (specificity, index)
        self.index.matches(&path, &mut |i| {
            let spec = self.entries[i].0.specificity();
            if best.is_none_or(|(bs, bi)| spec > bs || (spec == bs && i > bi)) {
                best = Some((spec, i));
            }
        });
        best.map(|(_, i)| self.entries[i].1.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> PathCategoryMap {
        let mut m = PathCategoryMap::new();
        m.map("/patient/demographic/**", "demographic").unwrap();
        m.map("/patient/record/**", "general-care").unwrap();
        m.map("/patient/record/mental-health/**", "psychiatry")
            .unwrap();
        m.map("/patient/billing/*", "insurance").unwrap();
        m
    }

    #[test]
    fn most_specific_wins() {
        let m = map();
        assert_eq!(
            m.category_of(&["patient", "record", "referral"]),
            Some("general-care")
        );
        assert_eq!(
            m.category_of(&["patient", "record", "mental-health", "psychiatry"]),
            Some("psychiatry"),
            "deeper pattern overrides the general-care subtree"
        );
        assert_eq!(
            m.category_of(&["patient", "demographic", "address"]),
            Some("demographic")
        );
    }

    #[test]
    fn unmatched_paths_are_none() {
        let m = map();
        assert_eq!(m.category_of(&["patient", "unknown"]), None);
        assert_eq!(m.category_of(&["other-root"]), None);
    }

    #[test]
    fn single_level_wildcard_scope() {
        let m = map();
        assert_eq!(
            m.category_of(&["patient", "billing", "plan"]),
            Some("insurance")
        );
        assert_eq!(
            m.category_of(&["patient", "billing", "plan", "detail"]),
            None,
            "'*' does not cover grandchildren"
        );
    }

    #[test]
    fn later_registration_breaks_ties() {
        let mut m = PathCategoryMap::new();
        m.map("/a/b", "first").unwrap();
        m.map("/a/b", "second").unwrap();
        assert_eq!(m.category_of(&["a", "b"]), Some("second"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn wildcard_first_patterns_compete_with_named_ones() {
        let mut m = PathCategoryMap::new();
        m.map("/**", "everything").unwrap();
        m.map("/*/record", "record").unwrap();
        m.map("/patient/*", "patient").unwrap();
        assert_eq!(m.category_of(&[]), Some("everything"));
        assert_eq!(m.category_of(&["other"]), Some("everything"));
        assert_eq!(m.category_of(&["x", "record"]), Some("record"));
        // Equal specificity (3 + 2 = 2 + 3): the later registration wins.
        assert_eq!(m.category_of(&["patient", "record"]), Some("patient"));
    }

    /// Segments drawn from a tiny alphabet, so patterns collide and tie.
    const SEGMENTS: [&str; 5] = ["a", "B", "c", "*", "**"];
    const NAMES: [&str; 4] = ["a", "b", "c", "d"];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The index resolves every path to what a fold over every
        /// registered pattern gives.
        #[test]
        fn index_equals_a_fold_over_every_pattern(
            patterns in proptest::collection::vec(
                proptest::collection::vec(0..SEGMENTS.len(), 1..4),
                0..12,
            ),
            paths in proptest::collection::vec(
                proptest::collection::vec(0..NAMES.len(), 0..4),
                1..8,
            ),
        ) {
            let mut m = PathCategoryMap::new();
            let mut all = Vec::new();
            for (i, segments) in patterns.iter().enumerate() {
                let text: String = segments.iter().map(|&s| format!("/{}", SEGMENTS[s])).collect();
                if let Ok(p) = PathPattern::parse(&text) {
                    m.map(&text, &format!("c{i}")).unwrap();
                    all.push((p, format!("c{i}")));
                }
            }
            for names in &paths {
                let path: Vec<&str> = names.iter().map(|&n| NAMES[n]).collect();
                let folded = all
                    .iter()
                    .filter(|(p, _)| p.matches(&path))
                    .fold(None::<(usize, &str)>, |best, (p, category)| {
                        match best {
                            Some((spec, _)) if spec > p.specificity() => best,
                            _ => Some((p.specificity(), category.as_str())),
                        }
                    })
                    .map(|(_, category)| category);
                proptest::prop_assert_eq!(m.category_of(&path), folded);
            }
        }
    }

    #[test]
    fn category_is_normalized() {
        let mut m = PathCategoryMap::new();
        m.map("/a/**", "Mental Health").unwrap();
        assert_eq!(m.category_of(&["a", "x"]), Some("mental-health"));
    }
}
