//! Path → data-category mapping: the hierarchical analog of the
//! relational column map.

use crate::path::{PathError, PathPattern};
use prima_vocab::normalize;

/// An ordered set of `(pattern, category)` mappings with
/// most-specific-match-wins resolution.
#[derive(Debug, Clone, Default)]
pub struct PathCategoryMap {
    entries: Vec<(PathPattern, String)>,
}

impl PathCategoryMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a pattern to a category.
    pub fn map(&mut self, pattern: &str, category: &str) -> Result<&mut Self, PathError> {
        let p = PathPattern::parse(pattern)?;
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
        for (i, (pat, _)) in self.entries.iter().enumerate() {
            if pat.matches_normalized(&path) {
                let spec = pat.specificity();
                if best.is_none_or(|(bs, bi)| spec > bs || (spec == bs && i > bi)) {
                    best = Some((spec, i));
                }
            }
        }
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
    fn category_is_normalized() {
        let mut m = PathCategoryMap::new();
        m.map("/a/**", "Mental Health").unwrap();
        assert_eq!(m.category_of(&["a", "x"]), Some("mental-health"));
    }
}
