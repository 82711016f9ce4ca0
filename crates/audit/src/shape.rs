//! [`ShapeTrail`] — an audit trail reduced to its distinct access shapes.
//!
//! A hospital trail repeats a few thousand `(data, purpose, authorized)`
//! shapes hundreds of thousands of times. Coverage only depends on the
//! shape, so a refinement round grounds each distinct shape once, decides
//! it once per policy revision, and weighs the verdict by how many entries
//! carry it (Garg, Jia & Datta: audit cost should follow the distinct
//! state, not the log length).

use crate::entry::AuditEntry;
use prima_model::GroundRule;
use std::collections::HashMap;
use std::fmt;

/// The shape id [`ShapeTrail::lossy`] gives an entry that projects to no
/// ground rule. No verdict exists for it, so
/// [`prima_model::EntryCoverageReport::weigh`] counts it as uncovered.
pub const NO_SHAPE: u32 = u32::MAX;

/// An audit entry that cannot be projected onto a ground rule, because
/// one of its attributes normalizes to empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrailError {
    /// Position of the entry in the trail.
    pub index: usize,
    /// The blank attribute (`data`, `purpose` or `authorized`).
    pub attribute: &'static str,
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

/// A trail interned by access shape: each distinct ground rule once, how
/// many entries carry it, and the shape id of every entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShapeTrail {
    shapes: Vec<GroundRule>,
    counts: Vec<usize>,
    shape_ids: Vec<u32>,
}

impl ShapeTrail {
    /// Interns `entries`, failing closed on the first entry with a blank
    /// attribute.
    ///
    /// Entries are keyed by their raw borrowed strings, so
    /// [`AuditEntry::to_ground_rule`] runs once per distinct raw triple;
    /// case and whitespace variants that project to the same ground rule
    /// (`Referral`, ` referral `) then merge into one shape.
    pub fn of(entries: &[AuditEntry]) -> Result<Self, TrailError> {
        match Self::intern(entries) {
            (_, Some(blank)) => Err(blank),
            (trail, None) => Ok(trail),
        }
    }

    /// Interns `entries`, giving an unprojectable entry the id
    /// [`NO_SHAPE`] instead of failing.
    pub fn lossy(entries: &[AuditEntry]) -> Self {
        Self::intern(entries).0
    }

    /// The interned trail and its first unprojectable entry, if any.
    fn intern(entries: &[AuditEntry]) -> (Self, Option<TrailError>) {
        let mut trail = Self {
            shape_ids: Vec::with_capacity(entries.len()),
            ..Self::default()
        };
        let mut first_blank = None;
        let mut by_raw: HashMap<(&str, &str, &str), u32> = HashMap::new();
        let mut by_shape: HashMap<GroundRule, u32> = HashMap::new();
        for (index, e) in entries.iter().enumerate() {
            let raw = (e.data.as_str(), e.purpose.as_str(), e.authorized.as_str());
            let id = match by_raw.get(&raw) {
                Some(&id) => id,
                None => {
                    let id = match e.to_ground_rule() {
                        Ok(g) => match by_shape.get(&g) {
                            Some(&id) => id,
                            None => {
                                let id = u32::try_from(trail.shapes.len())
                                    .ok()
                                    .filter(|&id| id != NO_SHAPE)
                                    .expect("a trail holds fewer than u32::MAX distinct shapes");
                                by_shape.insert(g.clone(), id);
                                trail.shapes.push(g);
                                trail.counts.push(0);
                                id
                            }
                        },
                        Err(_) => {
                            // `blank_attribute` names exactly the entries
                            // `to_ground_rule` refuses.
                            let attribute = e.blank_attribute().unwrap_or(crate::schema::COL_DATA);
                            first_blank.get_or_insert(TrailError { index, attribute });
                            NO_SHAPE
                        }
                    };
                    by_raw.insert(raw, id);
                    id
                }
            };
            if let Some(count) = trail.counts.get_mut(id as usize) {
                *count += 1;
            }
            trail.shape_ids.push(id);
        }
        (trail, first_blank)
    }

    /// The distinct shapes, in order of first appearance.
    pub fn shapes(&self) -> &[GroundRule] {
        &self.shapes
    }

    /// The shape id of every entry, in trail order.
    pub fn shape_ids(&self) -> &[u32] {
        &self.shape_ids
    }

    /// Number of entries interned.
    pub fn len(&self) -> usize {
        self.shape_ids.len()
    }

    /// True iff the trail has no entries.
    pub fn is_empty(&self) -> bool {
        self.shape_ids.is_empty()
    }

    /// Entries covered under per-shape `verdicts` (indexed like
    /// [`Self::shapes`]): the sum of the counts of the covered shapes.
    pub fn covered_entries(&self, verdicts: &[bool]) -> usize {
        self.counts
            .iter()
            .zip(verdicts)
            .filter(|(_, &covered)| covered)
            .map(|(&count, _)| count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::EntryCoverageReport;

    fn entry(data: &str, purpose: &str, authorized: &str) -> AuditEntry {
        AuditEntry::regular(0, "u", data, purpose, authorized)
    }

    #[test]
    fn variants_merge_into_one_shape() {
        let trail = ShapeTrail::of(&[
            entry("Referral", "Registration", "Nurse"),
            entry(" referral ", "registration", "NURSE"),
            entry("address", "billing", "clerk"),
            entry("Referral", "Registration", "Nurse"),
        ])
        .unwrap();
        assert_eq!(trail.len(), 4);
        assert_eq!(trail.shapes().len(), 2);
        assert_eq!(trail.shape_ids(), &[0, 0, 1, 0]);
        assert_eq!(
            trail.shapes()[0].compact(&["data", "purpose", "authorized"]),
            "referral:registration:nurse"
        );
        assert_eq!(trail.covered_entries(&[true, false]), 3);
        assert_eq!(trail.covered_entries(&[false, true]), 1);
    }

    #[test]
    fn blank_attribute_fails_closed_or_has_no_shape() {
        let entries = [
            entry("address", "billing", "clerk"),
            entry("address", "  ", "clerk"),
            entry("address", "billing", "clerk"),
        ];
        let err = ShapeTrail::of(&entries).unwrap_err();
        assert_eq!(
            err,
            TrailError {
                index: 1,
                attribute: "purpose"
            }
        );
        assert!(err.to_string().contains("entry 1 has a blank purpose"));

        let trail = ShapeTrail::lossy(&entries);
        assert_eq!(trail.shape_ids(), &[0, NO_SHAPE, 0]);
        assert_eq!(trail.covered_entries(&[true]), 2);
        let report = EntryCoverageReport::weigh(&[true], trail.shape_ids());
        assert_eq!(report.covered_entries, 2);
        assert_eq!(report.total_entries, 3);
        assert_eq!(report.uncovered_indices, vec![1]);
    }

    #[test]
    fn empty_trail_has_no_shapes() {
        let trail = ShapeTrail::of(&[]).unwrap();
        assert!(trail.is_empty());
        assert!(trail.shapes().is_empty());
        assert_eq!(trail.covered_entries(&[]), 0);
    }
}
