//! The tree-world control center: documents + enforcement + auditing in
//! one facade, mirroring the relational `prima-hdb::ControlCenter` so the
//! two middlewares are drop-in peers from PRIMA's point of view.

use crate::category::PathCategoryMap;
use crate::doc::Document;
use crate::enforce::{RedactionOutcome, TreeAccessMode, TreeEnforcement};
use crate::path::PathError;
use prima_audit::AuditStore;
use prima_model::{Policy, Rule, RuleTerm};
use prima_vocab::Vocabulary;
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised by the tree control center.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeControlError {
    /// No document registered under that id.
    UnknownDocument {
        /// The requested id.
        id: String,
    },
    /// A document id was registered twice.
    DuplicateDocument {
        /// The conflicting id.
        id: String,
    },
    /// Path-pattern problem while registering category mappings.
    Path(String),
    /// Invalid rule definition.
    Rule(String),
    /// Audit-store failure.
    Audit(String),
}

impl fmt::Display for TreeControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeControlError::UnknownDocument { id } => write!(f, "unknown document '{id}'"),
            TreeControlError::DuplicateDocument { id } => {
                write!(f, "document '{id}' already registered")
            }
            TreeControlError::Path(m) => write!(f, "path mapping: {m}"),
            TreeControlError::Rule(m) => write!(f, "rule: {m}"),
            TreeControlError::Audit(m) => write!(f, "audit: {m}"),
        }
    }
}

impl std::error::Error for TreeControlError {}

impl From<PathError> for TreeControlError {
    fn from(e: PathError) -> Self {
        TreeControlError::Path(e.to_string())
    }
}

/// A registry of legacy documents behind tree-aware enforcement with
/// compliance auditing.
pub struct TreeControlCenter {
    documents: BTreeMap<String, Document>,
    enforcement: TreeEnforcement,
    audit: AuditStore,
}

impl TreeControlCenter {
    /// Creates a control center with an empty policy and a fresh audit
    /// store named `legacy-audit`.
    pub fn new(vocab: Vocabulary) -> Self {
        let enforcement = TreeEnforcement::new(
            Policy::new(prima_model::StoreTag::PolicyStore),
            vocab,
            PathCategoryMap::new(),
        );
        Self {
            documents: BTreeMap::new(),
            enforcement,
            audit: AuditStore::new("legacy-audit"),
        }
    }

    /// Registers a document under `id`.
    pub fn register_document(&mut self, id: &str, doc: Document) -> Result<(), TreeControlError> {
        if self.documents.contains_key(id) {
            return Err(TreeControlError::DuplicateDocument { id: id.to_string() });
        }
        self.documents.insert(id.to_string(), doc);
        Ok(())
    }

    /// Registered document ids, sorted.
    pub fn document_ids(&self) -> Vec<&str> {
        self.documents.keys().map(String::as_str).collect()
    }

    /// Maps a path pattern to a data category.
    pub fn map_category(&mut self, pattern: &str, category: &str) -> Result<(), TreeControlError> {
        self.enforcement.categories_mut().map(pattern, category)?;
        Ok(())
    }

    /// Defines a `(data, purpose, authorized)` rule; duplicates ignored.
    pub fn define_rule(
        &mut self,
        data: &str,
        purpose: &str,
        authorized: &str,
    ) -> Result<bool, TreeControlError> {
        let rule = Rule::new(vec![
            RuleTerm::new("data", data).map_err(|e| TreeControlError::Rule(e.to_string()))?,
            RuleTerm::new("purpose", purpose).map_err(|e| TreeControlError::Rule(e.to_string()))?,
            RuleTerm::new("authorized", authorized)
                .map_err(|e| TreeControlError::Rule(e.to_string()))?,
        ])
        .map_err(|e| TreeControlError::Rule(e.to_string()))?;
        let mut p = self.enforcement.policy().clone();
        let added = p.push_unique(rule);
        self.enforcement.set_policy(p);
        Ok(added)
    }

    /// Replaces the whole policy (refinement loop).
    pub fn set_policy(&mut self, policy: Policy) {
        self.enforcement.set_policy(policy);
    }

    /// The current policy.
    pub fn policy(&self) -> &Policy {
        self.enforcement.policy()
    }

    /// The audit store the middleware writes to (attach it to a
    /// `PrimaSystem`).
    pub fn audit_store(&self) -> &AuditStore {
        &self.audit
    }

    /// Fetches an enforced view of a document, auditing every category
    /// decision.
    pub fn fetch(
        &self,
        doc_id: &str,
        time: i64,
        user: &str,
        role: &str,
        purpose: &str,
        mode: TreeAccessMode,
    ) -> Result<RedactionOutcome, TreeControlError> {
        let doc = self
            .documents
            .get(doc_id)
            .ok_or_else(|| TreeControlError::UnknownDocument {
                id: doc_id.to_string(),
            })?;
        let outcome = self
            .enforcement
            .enforce(doc, time, user, role, purpose, mode);
        self.audit
            .append_all(&outcome.audit_entries)
            .map_err(|e| TreeControlError::Audit(e.to_string()))?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_vocab::samples::figure_1;

    fn record() -> Document {
        Document::parse_xml(
            "<patient><record><referral>cardio</referral>\
             <mental-health><psychiatry>notes</psychiatry></mental-health>\
             </record></patient>",
        )
        .unwrap()
    }

    fn center() -> TreeControlCenter {
        let mut cc = TreeControlCenter::new(figure_1());
        cc.register_document("p1", record()).unwrap();
        cc.map_category("/patient/record/referral", "referral")
            .unwrap();
        cc.map_category("/patient/record/mental-health/**", "psychiatry")
            .unwrap();
        cc.define_rule("general-care", "treatment", "nurse")
            .unwrap();
        cc
    }

    #[test]
    fn fetch_enforces_and_audits() {
        let cc = center();
        let out = cc
            .fetch("p1", 1, "tim", "nurse", "treatment", TreeAccessMode::Chosen)
            .unwrap();
        assert_eq!(out.served_categories, vec!["referral"]);
        assert_eq!(cc.audit_store().len(), out.audit_entries.len());
    }

    #[test]
    fn break_the_glass_audits_exceptions() {
        let cc = center();
        let out = cc
            .fetch(
                "p1",
                2,
                "mark",
                "nurse",
                "registration",
                TreeAccessMode::BreakTheGlass,
            )
            .unwrap();
        assert!(out.redacted_categories.is_empty());
        assert!(cc.audit_store().entries().iter().all(|e| e.is_exception()));
    }

    #[test]
    fn unknown_and_duplicate_documents() {
        let mut cc = center();
        assert!(matches!(
            cc.fetch(
                "ghost",
                1,
                "u",
                "nurse",
                "treatment",
                TreeAccessMode::Chosen
            ),
            Err(TreeControlError::UnknownDocument { .. })
        ));
        assert!(matches!(
            cc.register_document("p1", record()),
            Err(TreeControlError::DuplicateDocument { .. })
        ));
        assert_eq!(cc.document_ids(), vec!["p1"]);
    }

    #[test]
    fn rule_definition_dedups_and_changes_decisions() {
        let mut cc = center();
        assert!(!cc
            .define_rule("general-care", "treatment", "nurse")
            .unwrap());
        assert!(cc
            .define_rule("mental-health", "treatment", "physician")
            .unwrap());
        let out = cc
            .fetch(
                "p1",
                3,
                "dr-a",
                "physician",
                "treatment",
                TreeAccessMode::Chosen,
            )
            .unwrap();
        assert_eq!(out.served_categories, vec!["psychiatry"]);
    }

    #[test]
    fn mapping_after_rules_still_applies() {
        let mut cc = TreeControlCenter::new(figure_1());
        cc.register_document("p1", record()).unwrap();
        cc.define_rule("general-care", "treatment", "nurse")
            .unwrap();
        // Map after defining rules: rebuild must keep the policy.
        cc.map_category("/patient/record/referral", "referral")
            .unwrap();
        let out = cc
            .fetch("p1", 4, "tim", "nurse", "treatment", TreeAccessMode::Chosen)
            .unwrap();
        assert_eq!(out.served_categories, vec!["referral"]);
    }

    #[test]
    fn bad_pattern_is_reported() {
        let mut cc = TreeControlCenter::new(figure_1());
        assert!(matches!(
            cc.map_category("not-absolute", "x"),
            Err(TreeControlError::Path(_))
        ));
    }
}
