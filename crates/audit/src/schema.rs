//! The relational layout of the audit trail.

use prima_store::{Column, DataType, Schema};

/// Column name: entry timestamp.
pub const COL_TIME: &str = "time";
/// Column name: allow/disallow bit.
pub const COL_OP: &str = "op";
/// Column name: requesting entity.
pub const COL_USER: &str = "user";
/// Column name: data category.
pub const COL_DATA: &str = "data";
/// Column name: purpose of access.
pub const COL_PURPOSE: &str = "purpose";
/// Column name: authorization category (role).
pub const COL_AUTHORIZED: &str = "authorized";
/// Column name: regular/exception bit.
pub const COL_STATUS: &str = "status";

/// The paper's audit schema as a `prima-store` [`Schema`]:
/// `{time, op, user, data, purpose, authorized, status}`.
pub fn audit_schema() -> Schema {
    Schema::new(vec![
        Column::required(COL_TIME, DataType::Timestamp),
        Column::required(COL_OP, DataType::Int),
        Column::required(COL_USER, DataType::Str),
        Column::required(COL_DATA, DataType::Str),
        Column::required(COL_PURPOSE, DataType::Str),
        Column::required(COL_AUTHORIZED, DataType::Str),
        Column::required(COL_STATUS, DataType::Int),
    ])
    .expect("static audit schema is well-formed")
}

/// The `(data, purpose, authorized)` attribute subset Algorithm 4 feeds to
/// the data-analysis routine by default.
pub const PATTERN_ATTRIBUTES: [&str; 3] = [COL_DATA, COL_PURPOSE, COL_AUTHORIZED];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_paper_layout() {
        let s = audit_schema();
        assert_eq!(s.arity(), 7);
        assert_eq!(
            s.names().collect::<Vec<_>>(),
            vec![
                "time",
                "op",
                "user",
                "data",
                "purpose",
                "authorized",
                "status"
            ]
        );
    }

    #[test]
    fn pattern_attributes_exist_in_schema() {
        let s = audit_schema();
        for a in PATTERN_ATTRIBUTES {
            assert!(s.index_of(a).is_some(), "{a} must be an audit column");
        }
    }
}
