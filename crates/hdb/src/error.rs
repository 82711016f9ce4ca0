//! Error type for the HDB middleware.

use std::fmt;

/// Errors raised by Active Enforcement / Compliance Auditing.
#[derive(Debug, Clone, PartialEq)]
pub enum HdbError {
    /// Every requested column was denied by policy and the request did not
    /// break the glass; nothing can be returned.
    PolicyDenied {
        /// The requester's role.
        role: String,
        /// The declared purpose.
        purpose: String,
    },
    /// A requested column is not present in the table.
    UnknownColumn {
        /// The missing column.
        column: String,
    },
    /// A column is missing from the column→data-category map; enforcement
    /// refuses to guess (fail closed).
    UnmappedColumn {
        /// The unmapped column.
        column: String,
    },
    /// The clinical table lacks the configured patient-id column needed for
    /// consent enforcement.
    MissingPatientColumn {
        /// The configured patient column name.
        column: String,
    },
    /// Storage-layer failure (propagated), including an audit entry the
    /// audit store refused for a blank attribute.
    Store(String),
}

impl fmt::Display for HdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdbError::PolicyDenied { role, purpose } => {
                write!(f, "policy denies role '{role}' for purpose '{purpose}'")
            }
            HdbError::UnknownColumn { column } => write!(f, "unknown column '{column}'"),
            HdbError::UnmappedColumn { column } => {
                write!(f, "column '{column}' has no data-category mapping")
            }
            HdbError::MissingPatientColumn { column } => {
                write!(f, "table lacks patient column '{column}'")
            }
            HdbError::Store(msg) => write!(f, "storage error: {msg}"),
        }
    }
}

impl std::error::Error for HdbError {}

impl From<prima_store::StoreError> for HdbError {
    fn from(e: prima_store::StoreError) -> Self {
        HdbError::Store(e.to_string())
    }
}

impl From<prima_audit::AppendError> for HdbError {
    fn from(e: prima_audit::AppendError) -> Self {
        HdbError::Store(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = HdbError::PolicyDenied {
            role: "clerk".into(),
            purpose: "treatment".into(),
        };
        assert!(e.to_string().contains("clerk"));
        assert!(HdbError::UnmappedColumn { column: "x".into() }
            .to_string()
            .contains("x"));
    }

    #[test]
    fn store_error_converts() {
        let s = prima_store::StoreError::UnknownTable { name: "t".into() };
        let e: HdbError = s.into();
        assert!(matches!(e, HdbError::Store(_)));
    }
}
