//! Algorithm 3: `Filter(P)` — select the informal-practice entries.
//!
//! Two things are removed from the trail before mining:
//!
//! 1. **Prohibitions** (`op = disallow`): Algorithm 2's preamble says
//!    "`P_AL` is filtered to remove prohibitions" — a request the system
//!    refused tells us what users *wanted*, not what practice *is*;
//! 2. **Regular accesses** (`status = 1`): Algorithm 3 keeps only
//!    exception-based entries, the undocumented part of the workflow.
//!
//! Optionally, a classifier then splits the exceptions into informal
//! practice and suspected violations (Section 4.2's requirement); only the
//! former proceeds to mining.

use prima_audit::{AccessClassifier, AuditEntry, Op};

/// The result of filtering: what proceeds to mining and what goes to the
/// security team instead.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutcome {
    /// Exception-based, served, non-violation entries (the paper's
    /// `Practice` array).
    pub practice: Vec<AuditEntry>,
    /// Exception entries the classifier flagged for investigation.
    pub suspected_violations: Vec<AuditEntry>,
    /// How many entries were dropped as regular accesses or prohibitions.
    pub dropped: usize,
}

/// Algorithm 3 with the paper's Section 5 assumption (no violations).
pub fn filter(entries: &[AuditEntry]) -> Vec<AuditEntry> {
    filter_with(entries, &prima_audit::NoViolations).practice
}

/// Algorithm 3 plus violation separation.
pub fn filter_with<C: AccessClassifier + ?Sized>(
    entries: &[AuditEntry],
    classifier: &C,
) -> FilterOutcome {
    let mut practice = Vec::new();
    let mut suspected_violations = Vec::new();
    let mut dropped = 0usize;
    for e in entries {
        if e.op != Op::Allow || !e.is_exception() {
            dropped += 1;
            continue;
        }
        if classifier.is_violation(e) {
            suspected_violations.push(e.clone());
        } else {
            practice.push(e.clone());
        }
    }
    FilterOutcome {
        practice,
        suspected_violations,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_audit::{AccessStatus, DenyPairClassifier};

    fn entries() -> Vec<AuditEntry> {
        vec![
            AuditEntry::regular(1, "tim", "referral", "treatment", "nurse"),
            AuditEntry::exception(2, "mark", "referral", "registration", "nurse"),
            AuditEntry {
                time: 3,
                op: Op::Disallow,
                user: "eve".into(),
                data: "psychiatry".into(),
                purpose: "billing".into(),
                authorized: "clerk".into(),
                status: AccessStatus::Exception,
            },
            AuditEntry::exception(4, "eve", "psychiatry", "billing", "clerk"),
        ]
    }

    #[test]
    fn keeps_only_served_exceptions() {
        let practice = filter(&entries());
        assert_eq!(practice.len(), 2);
        assert!(practice
            .iter()
            .all(|e| e.is_exception() && e.op == Op::Allow));
    }

    #[test]
    fn prohibitions_are_dropped_even_if_marked_exception() {
        let out = filter_with(&entries(), &prima_audit::NoViolations);
        assert_eq!(out.dropped, 2, "one regular + one disallow");
        assert!(out.suspected_violations.is_empty());
    }

    #[test]
    fn classifier_diverts_violations() {
        let mut c = DenyPairClassifier::new();
        c.deny("psychiatry", "clerk");
        let out = filter_with(&entries(), &c);
        assert_eq!(out.practice.len(), 1);
        assert_eq!(out.practice[0].user, "mark");
        assert_eq!(out.suspected_violations.len(), 1);
        assert_eq!(out.suspected_violations[0].user, "eve");
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out = filter_with(&[], &prima_audit::NoViolations);
        assert!(out.practice.is_empty());
        assert_eq!(out.dropped, 0);
    }
}
