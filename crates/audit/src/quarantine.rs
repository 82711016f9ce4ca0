//! Quarantine for malformed audit records.
//!
//! A corrupt entry from one site must not abort consolidation of the
//! whole federation: it is parked here with a reason code, excluded from
//! every coverage denominator, and counted against the source's
//! completeness instead (each quarantined record is an audit event that
//! happened but cannot be classified).
//!
//! A source's trail is re-fetched whole, so the table holds, per source,
//! the corrupt records of its latest successful fetch: a re-fetch of the
//! same records parks nothing new.

use std::collections::HashMap;
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
    /// Consolidation round of the first fetch that held it.
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

    /// Replaces `source`'s records with `fetched`, the `(raw, reason)`
    /// records its latest successful fetch (in `round`) quarantined. A
    /// record the previous fetch held too keeps its first round. Returns
    /// the reasons of the records that are new, one per record.
    pub fn replace(
        &mut self,
        source: &str,
        round: u64,
        fetched: Vec<(String, QuarantineReason)>,
    ) -> Vec<QuarantineReason> {
        let (previous, others): (Vec<_>, Vec<_>) = std::mem::take(&mut self.records)
            .into_iter()
            .partition(|r| r.source == source);
        self.records = others;
        // The first rounds of the records held, by (raw, reason).
        let mut held: HashMap<(String, QuarantineReason), Vec<u64>> = HashMap::new();
        for r in previous {
            held.entry((r.raw, r.reason)).or_default().push(r.round);
        }
        let mut parked = Vec::new();
        for (raw, reason) in fetched {
            let first = held.get_mut(&(raw.clone(), reason)).and_then(Vec::pop);
            if first.is_none() {
                parked.push(reason);
            }
            let (source, round) = (source.to_string(), first.unwrap_or(round));
            self.records.push(QuarantinedRecord {
                source,
                round,
                raw,
                reason,
            });
        }
        parked
    }

    /// All quarantined records, grouped by source, the most recently
    /// synced source last; within a source, in fetch order.
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
    fn each_source_holds_its_latest_fetch() {
        let mut q = Quarantine::new();
        assert!(q.is_empty());
        let garbage = || ("garbage".to_string(), QuarantineReason::MalformedRecord);
        let blank = || ("t=3,,nurse".to_string(), QuarantineReason::EmptyAttribute);
        assert_eq!(q.replace("icu", 1, vec![garbage(), blank()]).len(), 2);
        let encoding = ("op=7".to_string(), QuarantineReason::BadEncoding);
        assert_eq!(q.replace("lab", 1, vec![encoding]).len(), 1);
        assert_eq!((q.for_source("icu"), q.for_source("lab")), (2, 1));
        // The same fetch again parks nothing; one more record parks one.
        assert!(q.replace("icu", 2, vec![garbage(), blank()]).is_empty());
        let parked = q.replace("icu", 3, vec![garbage(), garbage(), blank()]);
        assert_eq!(parked, [QuarantineReason::MalformedRecord]);
        assert_eq!((q.len(), q.for_source("icu")), (4, 3));
        let rounds: Vec<u64> = q.records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, [1, 1, 3, 1], "a held record keeps its first round");
        // A clean fetch empties the source's share.
        assert!(q.replace("icu", 4, Vec::new()).is_empty());
        assert_eq!(q.len(), 1);
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
