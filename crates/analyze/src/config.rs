//! Analyzer configuration: which passes run and at what thresholds.

use prima_vocab::{ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};

/// Tunables for [`crate::Analyzer`]. [`AnalyzeConfig::default`] matches
/// the CLI defaults: all passes on, the paper's three-attribute audit
/// schema, and a 100k ground-rule expansion budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// Maximum ground-expansion size (Cartesian product of per-term `RT'`
    /// sizes) a rule may have before the blowup lint (`PA004`) fires.
    pub expansion_budget: u128,
    /// The attribute set audit entries carry, **sorted**. A rule whose
    /// attribute set differs can never match an audit entry and is flagged
    /// vacuous (`PA003`). `None` disables the schema check — appropriate
    /// for policies written in the extended `rule k=v` DSL form, where
    /// arbitrary attribute schemas are legitimate.
    pub audit_schema: Option<Vec<String>>,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        Self {
            expansion_budget: 100_000,
            audit_schema: Some(default_audit_schema()),
        }
    }
}

impl AnalyzeConfig {
    /// Overrides the expansion budget.
    pub fn with_budget(mut self, budget: u128) -> Self {
        self.expansion_budget = budget;
        self
    }

    /// Disables the audit-schema vacuity check.
    pub fn without_schema_check(mut self) -> Self {
        self.audit_schema = None;
        self
    }
}

/// The paper's audit schema — every [`prima_audit::AuditEntry`] grounds
/// exactly these attributes — in canonical (sorted) order.
pub fn default_audit_schema() -> Vec<String> {
    let mut schema = vec![
        ATTR_AUTHORIZED.to_string(),
        ATTR_DATA.to_string(),
        ATTR_PURPOSE.to_string(),
    ];
    schema.sort();
    schema
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schema_is_sorted() {
        let s = default_audit_schema();
        let mut sorted = s.clone();
        sorted.sort();
        assert_eq!(s, sorted);
        assert_eq!(s, vec!["authorized", "data", "purpose"]);
    }

    #[test]
    fn builders_compose() {
        let c = AnalyzeConfig::default()
            .with_budget(10)
            .without_schema_check();
        assert_eq!(c.expansion_budget, 10);
        assert!(c.audit_schema.is_none());
    }
}
