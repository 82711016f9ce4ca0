//! Error type for the mining layer.

use std::fmt;

/// Errors raised during pattern extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum MiningError {
    /// The underlying analysis query failed.
    Query(String),
    /// The practice table lacks a required attribute column.
    MissingAttribute {
        /// The missing column.
        attribute: String,
    },
    /// A mined row could not be converted into a ground rule.
    Malformed {
        /// Description.
        message: String,
    },
    /// Invalid miner configuration.
    Config {
        /// Description.
        message: String,
    },
}

impl fmt::Display for MiningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiningError::Query(m) => write!(f, "analysis query failed: {m}"),
            MiningError::MissingAttribute { attribute } => {
                write!(f, "practice table lacks attribute column '{attribute}'")
            }
            MiningError::Malformed { message } => write!(f, "malformed pattern: {message}"),
            MiningError::Config { message } => write!(f, "miner configuration: {message}"),
        }
    }
}

impl std::error::Error for MiningError {}

impl From<prima_query::QueryError> for MiningError {
    fn from(e: prima_query::QueryError) -> Self {
        MiningError::Query(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MiningError::Query("boom".into())
            .to_string()
            .contains("boom"));
        assert!(MiningError::MissingAttribute {
            attribute: "user".into()
        }
        .to_string()
        .contains("user"));
    }
}
