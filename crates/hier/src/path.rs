//! Path patterns for addressing document regions.
//!
//! Grammar: `/seg/seg/…` where a segment is an element name, `*` (exactly
//! one element of any name), or a final `**` (the whole subtree below the
//! prefix — including the node at the prefix itself when the prefix
//! matches). Patterns are absolute; matching is against the root-to-node
//! element-name path.

use std::fmt;

/// One pattern segment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    Name(String),
    Wild,
    /// Trailing `**` only.
    Subtree,
}

/// A parsed path pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPattern {
    segments: Vec<Segment>,
    source: String,
}

/// Pattern parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    /// Description.
    pub message: String,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path pattern error: {}", self.message)
    }
}

impl std::error::Error for PathError {}

impl PathPattern {
    /// Parses a pattern like `/patient/record/**`.
    pub fn parse(text: &str) -> Result<Self, PathError> {
        let text = text.trim();
        let Some(rest) = text.strip_prefix('/') else {
            return Err(PathError {
                message: format!("pattern must be absolute (start with '/'): '{text}'"),
            });
        };
        if rest.is_empty() {
            return Err(PathError {
                message: "pattern must have at least one segment".into(),
            });
        }
        let raw: Vec<&str> = rest.split('/').collect();
        let mut segments = Vec::with_capacity(raw.len());
        for (i, seg) in raw.iter().enumerate() {
            let seg = seg.trim();
            if seg.is_empty() {
                return Err(PathError {
                    message: format!("empty segment in '{text}'"),
                });
            }
            match seg {
                "*" => segments.push(Segment::Wild),
                "**" => {
                    if i != raw.len() - 1 {
                        return Err(PathError {
                            message: "'**' is only allowed as the final segment".into(),
                        });
                    }
                    segments.push(Segment::Subtree);
                }
                name => segments.push(Segment::Name(prima_vocab::normalize(name))),
            }
        }
        Ok(Self {
            segments,
            source: text.to_string(),
        })
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The segments before a trailing `**`, in order: the element name a
    /// named segment requires, `None` for `*`.
    pub(crate) fn fixed_names(&self) -> impl Iterator<Item = Option<&str>> {
        self.segments.iter().filter_map(|s| match s {
            Segment::Name(name) => Some(Some(name.as_str())),
            Segment::Wild => Some(None),
            Segment::Subtree => None,
        })
    }

    /// True iff the pattern ends in `**`.
    pub(crate) fn is_subtree(&self) -> bool {
        matches!(self.segments.last(), Some(Segment::Subtree))
    }

    /// Specificity for most-specific-wins resolution: named segments count
    /// 3, `*` counts 2, `**` counts 1 — longer, more-named patterns win.
    pub fn specificity(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Name(_) => 3,
                Segment::Wild => 2,
                Segment::Subtree => 1,
            })
            .sum()
    }

    /// Does the pattern match a node whose root-to-node element names are
    /// `path`?
    pub fn matches(&self, path: &[&str]) -> bool {
        let path: Vec<String> = path
            .iter()
            .map(|name| prima_vocab::normalize(name))
            .collect();
        self.matches_normalized(&path)
    }

    /// [`Self::matches`] over element names already normalized.
    fn matches_normalized(&self, path: &[String]) -> bool {
        let has_subtree = matches!(self.segments.last(), Some(Segment::Subtree));
        let fixed = if has_subtree {
            &self.segments[..self.segments.len() - 1]
        } else {
            &self.segments[..]
        };
        if has_subtree {
            // Prefix match: node at or below the fixed prefix.
            if path.len() < fixed.len() {
                return false;
            }
        } else if path.len() != fixed.len() {
            return false;
        }
        for (seg, name) in fixed.iter().zip(path) {
            match seg {
                Segment::Name(n) => {
                    if n != name {
                        return false;
                    }
                }
                Segment::Wild => {}
                Segment::Subtree => unreachable!("subtree is always last"),
            }
        }
        true
    }
}

impl fmt::Display for PathPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathPattern {
        PathPattern::parse(s).unwrap()
    }

    #[test]
    fn exact_match() {
        let pat = p("/patient/record/referral");
        assert!(pat.matches(&["patient", "record", "referral"]));
        assert!(!pat.matches(&["patient", "record"]));
        assert!(!pat.matches(&["patient", "record", "referral", "detail"]));
        assert!(!pat.matches(&["patient", "record", "rx"]));
    }

    #[test]
    fn wildcard_matches_one_level() {
        let pat = p("/patient/*/referral");
        assert!(pat.matches(&["patient", "record", "referral"]));
        assert!(pat.matches(&["patient", "archive", "referral"]));
        assert!(!pat.matches(&["patient", "referral"]));
    }

    #[test]
    fn subtree_matches_prefix_and_below() {
        let pat = p("/patient/record/**");
        assert!(
            pat.matches(&["patient", "record"]),
            "the prefix node itself"
        );
        assert!(pat.matches(&["patient", "record", "mental-health", "psychiatry"]));
        assert!(!pat.matches(&["patient", "demographic", "name"]));
    }

    #[test]
    fn normalization_applies() {
        let pat = p("/Patient/Mental Health");
        assert!(pat.matches(&["patient", "mental-health"]));
    }

    #[test]
    fn specificity_orders_patterns() {
        assert!(p("/a/b/c").specificity() > p("/a/*/c").specificity());
        assert!(p("/a/*/c").specificity() > p("/a/**").specificity());
        assert!(p("/a/b/**").specificity() > p("/a/**").specificity());
    }

    #[test]
    fn parse_errors() {
        assert!(PathPattern::parse("relative/path").is_err());
        assert!(PathPattern::parse("/").is_err());
        assert!(PathPattern::parse("/a//b").is_err());
        assert!(PathPattern::parse("/a/**/b").is_err());
    }

    #[test]
    fn display_roundtrips_source() {
        assert_eq!(p("/a/b/**").to_string(), "/a/b/**");
    }
}
