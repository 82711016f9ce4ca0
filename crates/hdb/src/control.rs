//! The HDB Control Center facade.
//!
//! "Our user would use the HDB Control Center to enter fine-grained rules,
//! patient consent information and specify what needs to be auditable."
//! The control center wires the clinical catalog, Active Enforcement, and
//! Compliance Auditing together and is the single entry point examples and
//! the PRIMA system use.

use crate::auditing::ComplianceAuditing;
use crate::enforcement::{ActiveEnforcement, ColumnMap, EnforcedResult};
use crate::error::HdbError;
use crate::request::AccessRequest;
use crate::ConsentRegistry;
use prima_audit::AuditStore;
use prima_model::{Policy, Rule, RuleTerm, StoreTag};
use prima_store::{Catalog, StoreError, Table};
use prima_vocab::Vocabulary;

/// The stakeholder-facing configuration surface of the HDB middleware.
pub struct ControlCenter {
    catalog: Catalog,
    enforcement: ActiveEnforcement,
    auditing: ComplianceAuditing,
}

impl ControlCenter {
    /// Creates a control center over `vocab` with an empty policy, no
    /// consent restrictions, and a fresh audit store named `audit`.
    pub fn new(vocab: Vocabulary, patient_column: &str) -> Self {
        let enforcement = ActiveEnforcement::new(
            Policy::new(StoreTag::PolicyStore),
            vocab,
            ColumnMap::new(),
            ConsentRegistry::new(),
            patient_column,
        );
        Self {
            catalog: Catalog::new(),
            enforcement,
            auditing: ComplianceAuditing::new(AuditStore::new("audit")),
        }
    }

    /// Registers a clinical table and its column→category mappings.
    pub fn register_table(
        &mut self,
        table: Table,
        mappings: &[(&str, &str)],
    ) -> Result<(), StoreError> {
        let name = table.name().to_string();
        self.catalog.register(table)?;
        let columns = self.enforcement.columns_mut();
        for (column, category) in mappings {
            columns.map(&name, column, category);
        }
        Ok(())
    }

    /// Enters a fine-grained policy rule
    /// `(data, purpose, authorized)`; duplicate rules are ignored.
    pub fn define_rule(
        &mut self,
        data: &str,
        purpose: &str,
        authorized: &str,
    ) -> Result<bool, prima_model::ModelError> {
        let rule = Rule::new(vec![
            RuleTerm::new("data", data)?,
            RuleTerm::new("purpose", purpose)?,
            RuleTerm::new("authorized", authorized)?,
        ])?;
        let mut p = self.enforcement.policy().clone();
        let added = p.push_unique(rule);
        self.enforcement.set_policy(p);
        Ok(added)
    }

    /// Replaces the whole policy store (used by the refinement loop).
    pub fn set_policy(&mut self, policy: Policy) {
        self.enforcement.set_policy(policy);
    }

    /// The current policy store.
    pub fn policy(&self) -> &Policy {
        self.enforcement.policy()
    }

    /// Records a patient opt-out.
    pub fn opt_out(&mut self, patient: &str, purpose: &str, data: Option<&str>) {
        self.enforcement
            .consent_mut()
            .opt_out(patient, purpose, data);
    }

    /// The audit store the middleware writes to.
    pub fn audit_store(&self) -> &AuditStore {
        self.auditing.store()
    }

    /// Executes an enforced, audited query. A fully-denied request returns
    /// [`HdbError::PolicyDenied`] *after* the denial has been audited.
    pub fn query(&self, request: &AccessRequest) -> Result<EnforcedResult, HdbError> {
        let shared = self.catalog.get(&request.table).map_err(HdbError::from)?;
        let guard = shared.read();
        let result = self.enforcement.execute(&guard, request)?;
        drop(guard);
        self.auditing.log(&result.audit_entries)?;
        if result.denied {
            return Err(HdbError::PolicyDenied {
                role: request.role.clone(),
                purpose: request.purpose.clone(),
            });
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clinical;
    use crate::request::AccessRequest;
    use prima_audit::{AccessStatus, Op};
    use prima_vocab::samples::figure_1;

    fn center() -> ControlCenter {
        let mut cc = ControlCenter::new(figure_1(), "patient");
        let (table, mappings) = clinical::encounters_table();
        let maps: Vec<(&str, &str)> = mappings
            .iter()
            .map(|(c, k)| (c.as_str(), k.as_str()))
            .collect();
        cc.register_table(table, &maps).unwrap();
        cc.define_rule("general-care", "treatment", "nurse")
            .unwrap();
        cc
    }

    #[test]
    fn define_rule_dedups() {
        let mut cc = center();
        assert!(!cc
            .define_rule("general-care", "treatment", "nurse")
            .unwrap());
        assert!(cc.define_rule("demographic", "billing", "clerk").unwrap());
        assert_eq!(cc.policy().cardinality(), 2);
    }

    #[test]
    fn query_serves_and_audits() {
        let cc = center();
        let req =
            AccessRequest::chosen(1, "tim", "nurse", "treatment", "encounters", &["referral"]);
        let res = cc.query(&req).unwrap();
        assert!(!res.rows.is_empty());
        assert_eq!(cc.audit_store().len(), 1);
        let logged = &cc.audit_store().entries()[0];
        assert_eq!(logged.op, Op::Allow);
        assert_eq!(logged.status, AccessStatus::Regular);
    }

    #[test]
    fn denied_query_is_audited_then_errors() {
        let cc = center();
        let req = AccessRequest::chosen(2, "bill", "clerk", "billing", "encounters", &["referral"]);
        let err = cc.query(&req).unwrap_err();
        assert!(matches!(err, HdbError::PolicyDenied { .. }));
        assert_eq!(cc.audit_store().len(), 1);
        assert_eq!(cc.audit_store().entries()[0].op, Op::Disallow);
    }

    #[test]
    fn break_the_glass_is_audited_as_exception() {
        let cc = center();
        let req = AccessRequest::break_the_glass(
            3,
            "mark",
            "nurse",
            "registration",
            "encounters",
            &["referral"],
        );
        let res = cc.query(&req).unwrap();
        assert!(!res.denied);
        let logged = cc.audit_store().entries();
        assert_eq!(logged.len(), 1);
        assert!(logged[0].is_exception());
    }

    #[test]
    fn consent_applies_through_facade() {
        let mut cc = center();
        cc.opt_out("p2", "treatment", None);
        let req =
            AccessRequest::chosen(4, "tim", "nurse", "treatment", "encounters", &["referral"]);
        let res = cc.query(&req).unwrap();
        assert!(res.consent_suppressed_cells > 0);
    }

    #[test]
    fn unknown_table_propagates() {
        let cc = center();
        let req = AccessRequest::chosen(5, "u", "nurse", "treatment", "ghost", &["x"]);
        assert!(matches!(cc.query(&req), Err(HdbError::Store(_))));
    }
}
