//! Error type for the query engine.

use std::fmt;

/// Errors raised while lexing, parsing, planning, or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Lexical error (bad character, unterminated string, …).
    Lex {
        /// Byte offset in the input.
        offset: usize,
        /// Description.
        message: String,
    },
    /// Syntax error.
    Parse {
        /// Description, including what was found.
        message: String,
    },
    /// The query references a table the engine was not given.
    UnknownTable {
        /// The referenced table name.
        name: String,
    },
    /// The query references a column the schema does not have.
    UnknownColumn {
        /// The referenced column name.
        column: String,
    },
    /// Semantic error (non-grouped column, `SELECT *` in a grouped
    /// query, …).
    Semantic {
        /// Description.
        message: String,
    },
    /// A call of a function other than `COUNT`, the one aggregate the
    /// engine runs.
    UnsupportedAggregate {
        /// The called name, as written.
        name: String,
    },
    /// A `COUNT` where SQL allows no aggregate.
    MisplacedAggregate {
        /// The clause that holds it.
        clause: &'static str,
    },
}

impl QueryError {
    /// Shorthand for a semantic error.
    pub fn semantic(message: impl Into<String>) -> Self {
        QueryError::Semantic {
            message: message.into(),
        }
    }

    /// Shorthand for a parse error.
    pub fn parse(message: impl Into<String>) -> Self {
        QueryError::Parse {
            message: message.into(),
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Lex { offset, message } => {
                write!(f, "lex error at byte {offset}: {message}")
            }
            QueryError::Parse { message } => write!(f, "parse error: {message}"),
            QueryError::UnknownTable { name } => write!(f, "unknown table '{name}'"),
            QueryError::UnknownColumn { column } => write!(f, "unknown column '{column}'"),
            QueryError::Semantic { message } => write!(f, "semantic error: {message}"),
            QueryError::UnsupportedAggregate { name } => {
                write!(f, "unsupported aggregate '{name}': only COUNT is supported")
            }
            QueryError::MisplacedAggregate { clause } => {
                write!(f, "aggregate functions are not allowed in {clause}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(QueryError::parse("x").to_string().contains("parse"));
        assert!(QueryError::semantic("y").to_string().contains("semantic"));
        assert!(QueryError::UnknownColumn { column: "c".into() }
            .to_string()
            .contains("'c'"));
    }
}
