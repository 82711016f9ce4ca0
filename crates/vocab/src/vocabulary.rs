//! The [`Vocabulary`]: per-attribute taxonomies plus the queries the formal
//! model needs, and a fluent [`VocabularyBuilder`].

use crate::concept::ConceptId;
use crate::error::VocabError;
use crate::normalize;
use crate::taxonomy::Taxonomy;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A privacy policy vocabulary: for each rule attribute (e.g. `data`,
/// `purpose`, `authorized`) a concept [`Taxonomy`].
///
/// Attributes are kept in a `BTreeMap` so iteration order (and therefore
/// serialized output and range-expansion order downstream) is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Vocabulary {
    attributes: BTreeMap<String, Taxonomy>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a [`VocabularyBuilder`].
    pub fn builder() -> VocabularyBuilder {
        VocabularyBuilder::default()
    }

    /// Registers an (empty) taxonomy for `attr`, returning a mutable
    /// reference to it. If the attribute already exists its taxonomy is
    /// returned unchanged.
    pub fn attribute_mut(&mut self, attr: &str) -> Result<&mut Taxonomy, VocabError> {
        let attr = normalize(attr);
        if attr.is_empty() {
            return Err(VocabError::EmptyAttribute);
        }
        Ok(self.attributes.entry(attr).or_default())
    }

    /// The taxonomy for `attr`, if registered.
    pub fn attribute(&self, attr: &str) -> Option<&Taxonomy> {
        self.attributes.get(&normalize(attr))
    }

    /// Registered attribute names, in canonical (sorted) order.
    pub fn attribute_names(&self) -> impl Iterator<Item = &str> {
        self.attributes.keys().map(String::as_str)
    }

    /// Number of registered attributes.
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// Total concepts across all attributes.
    pub fn concept_count(&self) -> usize {
        self.attributes.values().map(Taxonomy::len).sum()
    }

    /// True iff `value` is **ground** for `attr` (Definition 2).
    ///
    /// Values under unknown attributes, or values absent from a known
    /// attribute's taxonomy, are ground atoms: the vocabulary cannot
    /// subdivide them.
    pub fn is_ground(&self, attr: &str, value: &str) -> bool {
        match self.attribute(attr) {
            Some(t) => t.is_ground_value(value),
            None => true,
        }
    }

    /// Resolves `(attr, value)` to the value's concept id, if both exist.
    pub fn resolve(&self, attr: &str, value: &str) -> Option<ConceptId> {
        self.attribute(attr)?.resolve(value)
    }

    /// The `RT'` ground-value names derivable from `(attr, value)`
    /// (Definition 3). For a ground or unknown value this is the singleton
    /// of its normalized name.
    pub fn ground_values(&self, attr: &str, value: &str) -> Vec<String> {
        match self.resolve(attr, value) {
            Some(id) => {
                let t = self.attribute(attr).expect("resolved via same attribute");
                t.leaves_under(id)
                    .into_iter()
                    .map(|l| t.name(l).to_string())
                    .collect()
            }
            None => vec![normalize(value)],
        }
    }

    /// Number of ground values derivable from `(attr, value)` without
    /// materializing them.
    pub fn ground_value_count(&self, attr: &str, value: &str) -> usize {
        match self.resolve(attr, value) {
            Some(id) => self
                .attribute(attr)
                .expect("resolved via same attribute")
                .leaf_count_under(id),
            None => 1,
        }
    }

    /// Term equivalence on values (Definition 4): do the `RT'` sets of
    /// `(attr, a)` and `(attr, b)` intersect?
    ///
    /// Two in-vocabulary values are equivalent iff one subsumes the other;
    /// an out-of-vocabulary value is equivalent only to itself (after
    /// normalization).
    pub fn values_equivalent(&self, attr: &str, a: &str, b: &str) -> bool {
        match (self.resolve(attr, a), self.resolve(attr, b)) {
            (Some(ia), Some(ib)) => self
                .attribute(attr)
                .expect("resolved via same attribute")
                .related(ia, ib),
            _ => normalize(a) == normalize(b),
        }
    }

    /// True iff every ground value of `(attr, narrow)` is derivable from
    /// `(attr, broad)` — the subsumption direction needed by the lazy
    /// coverage engine.
    pub fn value_subsumes(&self, attr: &str, broad: &str, narrow: &str) -> bool {
        match (self.resolve(attr, broad), self.resolve(attr, narrow)) {
            (Some(ib), Some(inn)) => self
                .attribute(attr)
                .expect("resolved via same attribute")
                .subsumes(ib, inn),
            _ => normalize(broad) == normalize(narrow),
        }
    }

    /// Rebuilds all name indexes after deserialization and validates
    /// structure. Must be called on any vocabulary obtained through serde.
    pub fn rebuild_indexes(&mut self) -> Result<(), VocabError> {
        for (attr, t) in self.attributes.iter_mut() {
            t.rebuild_index().map_err(|e| match e {
                VocabError::DuplicateConcept { concept, .. } => VocabError::DuplicateConcept {
                    attr: attr.clone(),
                    concept,
                },
                VocabError::Cycle { .. } => VocabError::Cycle { attr: attr.clone() },
                other => other,
            })?;
        }
        Ok(())
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("vocabulary serialization cannot fail")
    }

    /// Deserializes from JSON produced by [`Vocabulary::to_json`], rebuilding
    /// and validating indexes.
    pub fn from_json(json: &str) -> Result<Self, VocabError> {
        let mut v: Vocabulary = serde_json::from_str(json).map_err(|e| VocabError::Parse {
            line: e.line(),
            message: e.to_string(),
        })?;
        v.rebuild_indexes()?;
        Ok(v)
    }
}

/// Fluent builder for [`Vocabulary`].
///
/// ```
/// use prima_vocab::Vocabulary;
/// let v = Vocabulary::builder()
///     .attribute("data")
///     .root("demographic")
///     .child("demographic", "address")
///     .child("demographic", "gender")
///     .build()
///     .unwrap();
/// assert!(v.is_ground("data", "gender"));
/// assert!(!v.is_ground("data", "demographic"));
/// ```
#[derive(Debug, Default)]
pub struct VocabularyBuilder {
    vocab: Vocabulary,
    current: Option<String>,
    error: Option<VocabError>,
}

impl VocabularyBuilder {
    /// Selects (creating if needed) the attribute subsequent `root`/`child`
    /// calls apply to.
    pub fn attribute(mut self, attr: &str) -> Self {
        if self.error.is_some() {
            return self;
        }
        let norm = normalize(attr);
        if norm.is_empty() {
            self.error = Some(VocabError::EmptyAttribute);
            return self;
        }
        self.vocab.attributes.entry(norm.clone()).or_default();
        self.current = Some(norm);
        self
    }

    /// Adds a root concept to the current attribute.
    pub fn root(mut self, name: &str) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.current_taxonomy() {
            Ok((attr, t)) => {
                if let Err(e) = t.add_root(name) {
                    self.error = Some(attach_attr(e, &attr));
                }
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Adds a child concept under `parent` in the current attribute.
    pub fn child(mut self, parent: &str, name: &str) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.current_taxonomy() {
            Ok((attr, t)) => {
                if let Err(e) = t.add_child_of(parent, name) {
                    self.error = Some(attach_attr(e, &attr));
                }
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Adds a root and a flat list of ground children under it in one call.
    pub fn category(mut self, root: &str, leaves: &[&str]) -> Self {
        self = self.root(root);
        for leaf in leaves {
            self = self.child(root, leaf);
        }
        self
    }

    fn current_taxonomy(&mut self) -> Result<(String, &mut Taxonomy), VocabError> {
        let attr = self.current.clone().ok_or(VocabError::EmptyAttribute)?;
        let t = self
            .vocab
            .attributes
            .get_mut(&attr)
            .expect("current attribute always registered");
        Ok((attr, t))
    }

    /// Finishes the builder, returning the vocabulary or the first error
    /// encountered.
    pub fn build(self) -> Result<Vocabulary, VocabError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.vocab),
        }
    }
}

fn attach_attr(e: VocabError, attr: &str) -> VocabError {
    match e {
        VocabError::DuplicateConcept { concept, .. } => VocabError::DuplicateConcept {
            attr: attr.to_string(),
            concept,
        },
        VocabError::UnknownParent { parent, .. } => VocabError::UnknownParent {
            attr: attr.to_string(),
            parent,
        },
        VocabError::EmptyName { .. } => VocabError::EmptyName {
            attr: attr.to_string(),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vocabulary {
        Vocabulary::builder()
            .attribute("data")
            .category(
                "demographic",
                &["name", "address", "gender", "date-of-birth"],
            )
            .category("medical", &["prescription", "referral", "psychiatry"])
            .attribute("purpose")
            .category("administering-healthcare", &["treatment", "billing"])
            .attribute("authorized")
            .category("medical-staff", &["physician", "nurse"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_constructs_multi_attribute_vocabulary() {
        let v = sample();
        assert_eq!(v.attribute_count(), 3);
        assert_eq!(
            v.attribute_names().collect::<Vec<_>>(),
            vec!["authorized", "data", "purpose"]
        );
        assert_eq!(v.concept_count(), 5 + 4 + 3 + 3);
    }

    #[test]
    fn ground_classification_matches_definition_2() {
        let v = sample();
        assert!(!v.is_ground("data", "demographic"), "RT1 is composite");
        assert!(v.is_ground("data", "gender"), "RT3 is ground");
        assert!(v.is_ground("data", "Address"), "case-insensitive");
        // Unknown attribute or value: ground atom.
        assert!(v.is_ground("condition", "anything"));
        assert!(v.is_ground("data", "doctor-notes"));
    }

    #[test]
    fn ground_values_are_rt_prime() {
        let v = sample();
        let g = v.ground_values("data", "demographic");
        assert_eq!(g, vec!["name", "address", "gender", "date-of-birth"]);
        assert_eq!(v.ground_value_count("data", "demographic"), 4);
        assert_eq!(v.ground_values("data", "gender"), vec!["gender"]);
        assert_eq!(v.ground_values("data", "unknown-cat"), vec!["unknown-cat"]);
        assert_eq!(v.ground_value_count("data", "unknown-cat"), 1);
    }

    #[test]
    fn equivalence_matches_definition_4() {
        let v = sample();
        // RT2 = (data,address) ≈ RT1 = (data,demographic); same for RT3.
        assert!(v.values_equivalent("data", "address", "demographic"));
        assert!(v.values_equivalent("data", "demographic", "gender"));
        // ...but address !≈ gender: no shared ground term.
        assert!(!v.values_equivalent("data", "address", "gender"));
        // Reflexive on out-of-vocabulary atoms.
        assert!(v.values_equivalent("authorized", "Doctor", "doctor"));
        assert!(!v.values_equivalent("authorized", "doctor", "physician"));
    }

    #[test]
    fn subsumption_direction() {
        let v = sample();
        assert!(v.value_subsumes("data", "demographic", "address"));
        assert!(!v.value_subsumes("data", "address", "demographic"));
        assert!(v.value_subsumes("data", "address", "address"));
        assert!(v.value_subsumes("authorized", "clerk", "clerk")); // unknown
        assert!(!v.value_subsumes("authorized", "medical-staff", "clerk"));
    }

    #[test]
    fn json_roundtrip() {
        let v = sample();
        let json = v.to_json();
        let back = Vocabulary::from_json(&json).unwrap();
        assert_eq!(back.attribute_count(), v.attribute_count());
        assert!(back.values_equivalent("data", "address", "demographic"));
        assert_eq!(
            back.ground_values("data", "demographic"),
            v.ground_values("data", "demographic")
        );
    }

    #[test]
    fn builder_error_propagates() {
        let err = Vocabulary::builder()
            .attribute("data")
            .root("a")
            .root("a")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            VocabError::DuplicateConcept {
                attr: "data".into(),
                concept: "a".into()
            }
        );
    }

    #[test]
    fn builder_requires_attribute_selection() {
        let err = Vocabulary::builder().root("x").build().unwrap_err();
        assert_eq!(err, VocabError::EmptyAttribute);
    }

    #[test]
    fn builder_unknown_parent_names_attribute() {
        let err = Vocabulary::builder()
            .attribute("data")
            .child("missing", "x")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            VocabError::UnknownParent {
                attr: "data".into(),
                parent: "missing".into()
            }
        );
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Vocabulary::from_json("{ not json").is_err());
    }
}
