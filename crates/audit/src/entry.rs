//! The audit entry type (the paper's Section 4.2 schema).

use crate::schema;
use prima_model::{GroundRule, ModelError, RuleTerm};
use prima_store::{Row, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The `op` attribute: whether the access was allowed by the system.
///
/// Break-the-glass environments typically *allow* the access (possibly after
/// an override) and record `status = exception`; `op = Disallow` entries are
/// requests the system refused outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// `X = 0` — the request was refused.
    Disallow,
    /// `X = 1` — the request was served.
    Allow,
}

impl Op {
    /// The paper's 0/1 encoding.
    pub fn as_int(self) -> i64 {
        match self {
            Op::Disallow => 0,
            Op::Allow => 1,
        }
    }

    /// Decodes the paper's 0/1 encoding.
    pub fn from_int(i: i64) -> Option<Self> {
        match i {
            0 => Some(Op::Disallow),
            1 => Some(Op::Allow),
            _ => None,
        }
    }
}

/// The `status` attribute: how the purpose of access was established.
///
/// "The status of access would in practice be recorded at the time the user
/// either chooses or manually enters the purpose of access, where former
/// corresponds to a regular access and latter to an exception-based access."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessStatus {
    /// `s = 0` — exception-based ("break the glass") access.
    Exception,
    /// `s = 1` — regular, policy-sanctioned access.
    Regular,
}

impl AccessStatus {
    /// The paper's 0/1 encoding.
    pub fn as_int(self) -> i64 {
        match self {
            AccessStatus::Exception => 0,
            AccessStatus::Regular => 1,
        }
    }

    /// Decodes the paper's 0/1 encoding.
    pub fn from_int(i: i64) -> Option<Self> {
        match i {
            0 => Some(AccessStatus::Exception),
            1 => Some(AccessStatus::Regular),
            _ => None,
        }
    }
}

/// One audit-trail entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Timestamp (seconds since the workload epoch).
    pub time: i64,
    /// Whether the access was served.
    pub op: Op,
    /// The entity that requested access.
    pub user: String,
    /// The data category accessed.
    pub data: String,
    /// The purpose of access.
    pub purpose: String,
    /// The authorization category (role) of the requester.
    pub authorized: String,
    /// Regular vs exception-based access.
    pub status: AccessStatus,
}

impl AuditEntry {
    /// A served, regular access.
    pub fn regular(time: i64, user: &str, data: &str, purpose: &str, authorized: &str) -> Self {
        Self {
            time,
            op: Op::Allow,
            user: user.into(),
            data: data.into(),
            purpose: purpose.into(),
            authorized: authorized.into(),
            status: AccessStatus::Regular,
        }
    }

    /// A served, exception-based (break-the-glass) access.
    pub fn exception(time: i64, user: &str, data: &str, purpose: &str, authorized: &str) -> Self {
        Self {
            status: AccessStatus::Exception,
            ..Self::regular(time, user, data, purpose, authorized)
        }
    }

    /// True iff this entry is an exception-based access (what Algorithm 3's
    /// `Filter` keeps).
    pub fn is_exception(&self) -> bool {
        self.status == AccessStatus::Exception
    }

    /// Projects the entry onto the `(data, purpose, authorized)` ground rule
    /// the formal model compares against the policy store. Values are
    /// normalized by `RuleTerm` construction, so `Referral` in a log matches
    /// `referral` in a policy.
    pub fn to_ground_rule(&self) -> Result<GroundRule, ModelError> {
        GroundRule::new(vec![
            RuleTerm::new("data", &self.data)?,
            RuleTerm::new("purpose", &self.purpose)?,
            RuleTerm::new("authorized", &self.authorized)?,
        ])
    }

    /// The first of `data`, `purpose` and `authorized` whose value
    /// normalizes to empty (`""`, `"   "`, `"_"`, `"-"`), if any — exactly
    /// the entries [`Self::to_ground_rule`] refuses, decided without
    /// allocating.
    pub fn blank_attribute(&self) -> Option<&'static str> {
        [
            (schema::COL_DATA, &self.data),
            (schema::COL_PURPOSE, &self.purpose),
            (schema::COL_AUTHORIZED, &self.authorized),
        ]
        .into_iter()
        .find(|(_, value)| prima_vocab::normalizes_to_empty(value))
        .map(|(attribute, _)| attribute)
    }

    /// Converts to the relational row form (column order of
    /// [`schema::audit_schema`]).
    pub fn to_row(&self) -> Row {
        Row::new(vec![
            Value::Timestamp(self.time),
            Value::Int(self.op.as_int()),
            Value::str(&self.user),
            Value::str(&self.data),
            Value::str(&self.purpose),
            Value::str(&self.authorized),
            Value::Int(self.status.as_int()),
        ])
    }
}

impl fmt::Display for AuditEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{} op={} {} {}:{}:{} status={}",
            self.time,
            self.op.as_int(),
            self.user,
            self.data,
            self.purpose,
            self.authorized,
            self.status.as_int()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> AuditEntry {
        AuditEntry::exception(3, "Mark", "Referral", "Registration", "Nurse")
    }

    #[test]
    fn encodings_match_paper() {
        assert_eq!(Op::Allow.as_int(), 1);
        assert_eq!(Op::Disallow.as_int(), 0);
        assert_eq!(AccessStatus::Regular.as_int(), 1);
        assert_eq!(AccessStatus::Exception.as_int(), 0);
        assert_eq!(Op::from_int(1), Some(Op::Allow));
        assert_eq!(AccessStatus::from_int(0), Some(AccessStatus::Exception));
        assert_eq!(Op::from_int(7), None);
        assert_eq!(AccessStatus::from_int(-1), None);
    }

    #[test]
    fn constructors_and_exception_flag() {
        let e = entry();
        assert!(e.is_exception());
        assert_eq!(e.op, Op::Allow, "break-the-glass accesses are served");
        let r = AuditEntry::regular(1, "Tim", "Referral", "Treatment", "Nurse");
        assert!(!r.is_exception());
    }

    #[test]
    fn ground_rule_projection_normalizes() {
        let g = entry().to_ground_rule().unwrap();
        assert_eq!(
            g.compact(&["data", "purpose", "authorized"]),
            "referral:registration:nurse"
        );
    }

    #[test]
    fn row_follows_the_audit_schema() {
        let row = entry().to_row();
        let schema = schema::audit_schema();
        let col = |name: &str| row.get(schema.index_of(name).unwrap()).clone();
        assert_eq!(row.len(), schema.arity());
        assert_eq!(col(schema::COL_TIME), Value::Timestamp(3));
        assert_eq!(col(schema::COL_PURPOSE), Value::str("Registration"));
        assert_eq!(col(schema::COL_STATUS), Value::Int(0));
    }

    #[test]
    fn display_is_compact() {
        let text = entry().to_string();
        assert!(text.contains("Referral:Registration:Nurse"));
        assert!(text.contains("status=0"));
    }

    #[test]
    fn serde_roundtrip() {
        let e = entry();
        let s = serde_json::to_string(&e).unwrap();
        assert_eq!(serde_json::from_str::<AuditEntry>(&s).unwrap(), e);
    }
}
