//! Quarantine for malformed audit records.
//!
//! A corrupt entry from one site must not abort consolidation of the
//! whole federation: it is parked here with a reason code, excluded from
//! every coverage denominator, and counted against the source's
//! completeness instead (each quarantined record is an audit event that
//! happened but cannot be classified).

use std::fmt;

/// Why a record was quarantined instead of consolidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineReason {
    /// The record's bytes/fields did not parse as an audit entry at all.
    MalformedRecord,
    /// The entry parsed but an attribute needed for the ground-rule
    /// projection is empty (no `(data, purpose, authorized)` triple).
    EmptyAttribute,
    /// A field carried an out-of-range encoding (e.g. `op = 7`).
    BadEncoding,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QuarantineReason::MalformedRecord => "malformed-record",
            QuarantineReason::EmptyAttribute => "empty-attribute",
            QuarantineReason::BadEncoding => "bad-encoding",
        };
        write!(f, "{s}")
    }
}

/// One quarantined record: where it came from, what it looked like, why
/// it was parked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// Name of the log source that produced the record.
    pub source: String,
    /// Consolidation round in which it was quarantined.
    pub round: u64,
    /// Best-effort rendering of the raw record (for operator triage).
    pub raw: String,
    /// Reason code.
    pub reason: QuarantineReason,
}

/// The federation-wide quarantine table.
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    records: Vec<QuarantinedRecord>,
}

impl Quarantine {
    /// An empty quarantine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks one record.
    pub fn park(&mut self, source: &str, round: u64, raw: String, reason: QuarantineReason) {
        self.records.push(QuarantinedRecord {
            source: source.to_string(),
            round,
            raw,
            reason,
        });
    }

    /// All quarantined records, in park order.
    pub fn records(&self) -> &[QuarantinedRecord] {
        &self.records
    }

    /// Total quarantined records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records parked for a given source.
    pub fn for_source(&self, source: &str) -> usize {
        self.records.iter().filter(|r| r.source == source).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_and_inspect() {
        let mut q = Quarantine::new();
        assert!(q.is_empty());
        q.park(
            "icu",
            1,
            "garbage".into(),
            QuarantineReason::MalformedRecord,
        );
        q.park(
            "icu",
            1,
            "t=3,,nurse".into(),
            QuarantineReason::EmptyAttribute,
        );
        q.park("lab", 2, "op=7".into(), QuarantineReason::BadEncoding);
        assert_eq!(q.len(), 3);
        assert_eq!(q.for_source("icu"), 2);
        assert_eq!(q.for_source("lab"), 1);
    }

    #[test]
    fn reason_codes_render_stably() {
        assert_eq!(
            QuarantineReason::MalformedRecord.to_string(),
            "malformed-record"
        );
        assert_eq!(
            QuarantineReason::EmptyAttribute.to_string(),
            "empty-attribute"
        );
        assert_eq!(QuarantineReason::BadEncoding.to_string(), "bad-encoding");
    }
}
