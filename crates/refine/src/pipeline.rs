//! Algorithm 2: the composed `Refinement(P_PS, P_AL, V)` function.

use crate::extract::extract_patterns;
use crate::filter::{filter_with, FilterOutcome};
use crate::prune::{prune, PruneOutcome};
use prima_analyze::SafetyGate;
use prima_audit::{AccessClassifier, AuditEntry, NoViolations};
use prima_mining::{Miner, MiningError, Pattern, SqlMiner};
use prima_model::{Diagnostic, Policy, Rule};
use prima_vocab::Vocabulary;

/// Configuration of one refinement run.
pub struct RefinementConfig<'a> {
    /// The miner implementing Algorithm 4's data analysis (defaults to the
    /// paper's SQL group-by miner with `f = 5`,
    /// `c = COUNT(DISTINCT user) > 1`).
    pub miner: &'a dyn Miner,
    /// Violation/practice separation (defaults to the Section 5 assumption
    /// that no exceptions are violations).
    pub classifier: &'a dyn AccessClassifier,
    /// The refinement-safety gate. When set, every pattern surviving
    /// Prune is additionally checked against the gate's umbrella
    /// envelope; widening patterns are diverted out of `useful_patterns`
    /// into [`RefinementReport::gate_rejected`] with a `PA005`
    /// diagnostic instead of being proposed.
    pub gate: Option<&'a SafetyGate>,
}

impl<'a> RefinementConfig<'a> {
    /// A config with the given miner and classifier and no safety gate —
    /// the paper-faithful Algorithm 2.
    pub fn new(miner: &'a dyn Miner, classifier: &'a dyn AccessClassifier) -> Self {
        Self {
            miner,
            classifier,
            gate: None,
        }
    }

    /// Attaches the refinement-safety gate.
    pub fn with_gate(mut self, gate: &'a SafetyGate) -> Self {
        self.gate = Some(gate);
        self
    }
}

/// What one refinement run produced, with full provenance for the review
/// stage and the experiment harness.
#[derive(Debug, Clone)]
pub struct RefinementReport {
    /// Size of the input trail.
    pub input_entries: usize,
    /// Outcome of the Filter stage.
    pub practice_entries: usize,
    /// Entries diverted as suspected violations.
    pub suspected_violations: Vec<AuditEntry>,
    /// Entries dropped as regular accesses or prohibitions.
    pub dropped_entries: usize,
    /// Every pattern the miner surfaced (before pruning).
    pub raw_patterns: Vec<Pattern>,
    /// Patterns already covered by the policy store.
    pub already_covered: Vec<Pattern>,
    /// Algorithm 2's return value: the `usefulPatterns`.
    pub useful_patterns: Vec<Pattern>,
    /// Patterns the refinement-safety gate rejected as privilege-widening
    /// (empty when no gate is configured), with the `PA005` diagnostic
    /// explaining each rejection.
    pub gate_rejected: Vec<(Pattern, Diagnostic)>,
    /// The miner description, for the audit trail of the refinement itself.
    pub miner_description: String,
    /// Wall-clock duration of the Filter stage (line 1).
    pub filter_duration: std::time::Duration,
    /// Wall-clock duration of the mining stage (line 2).
    pub mine_duration: std::time::Duration,
    /// Wall-clock duration of the Prune stage (line 3).
    pub prune_duration: std::time::Duration,
}

/// Runs Algorithm 2 with default configuration (SQL miner, no violations).
pub fn refinement(
    policy_store: &Policy,
    audit_entries: &[AuditEntry],
    vocab: &Vocabulary,
) -> Result<RefinementReport, MiningError> {
    let miner = SqlMiner::default();
    let classifier = NoViolations;
    refinement_with(
        policy_store,
        audit_entries,
        vocab,
        &RefinementConfig::new(&miner, &classifier),
    )
}

/// Runs Algorithm 2 with a custom miner and the default (no-violations)
/// classifier.
pub fn refinement_with_miner(
    policy_store: &Policy,
    audit_entries: &[AuditEntry],
    vocab: &Vocabulary,
    miner: &dyn Miner,
) -> Result<RefinementReport, MiningError> {
    let classifier = NoViolations;
    refinement_with(
        policy_store,
        audit_entries,
        vocab,
        &RefinementConfig::new(miner, &classifier),
    )
}

/// Runs Algorithm 2 with explicit configuration.
pub fn refinement_with(
    policy_store: &Policy,
    audit_entries: &[AuditEntry],
    vocab: &Vocabulary,
    config: &RefinementConfig<'_>,
) -> Result<RefinementReport, MiningError> {
    // Stage durations ride along in the report so callers (prima-core's
    // observability layer) can record them without this crate growing a
    // metrics dependency.
    let stage_start = std::time::Instant::now();

    // Line 1: Practice ← Filter(P_AL).
    let FilterOutcome {
        practice,
        suspected_violations,
        dropped,
    } = filter_with(audit_entries, config.classifier);
    let filter_duration = stage_start.elapsed();

    // Line 2: Patterns ← extractPatterns(Practice, V).
    let mine_start = std::time::Instant::now();
    let raw_patterns = extract_patterns(&practice, config.miner)?;
    let mine_duration = mine_start.elapsed();

    // Line 3: usefulPatterns ← Prune(Patterns, P_PS, V).
    let prune_start = std::time::Instant::now();
    let PruneOutcome {
        useful,
        already_covered,
    } = prune(raw_patterns.clone(), policy_store, vocab);
    let prune_duration = prune_start.elapsed();

    // Safety gate: divert privilege-widening patterns before proposal.
    let (useful, gate_rejected) = match config.gate {
        Some(gate) => {
            let mut admitted = Vec::new();
            let mut rejected = Vec::new();
            for (i, p) in useful.into_iter().enumerate() {
                let rule = Rule::from_ground(&p.rule);
                match gate.check(i, &rule, vocab) {
                    Ok(()) => admitted.push(p),
                    Err(diag) => rejected.push((p, diag)),
                }
            }
            (admitted, rejected)
        }
        None => (useful, Vec::new()),
    };

    Ok(RefinementReport {
        input_entries: audit_entries.len(),
        practice_entries: practice.len(),
        suspected_violations,
        dropped_entries: dropped,
        raw_patterns,
        already_covered,
        useful_patterns: useful,
        gate_rejected,
        miner_description: config.miner.describe(),
        filter_duration,
        mine_duration,
        prune_duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_audit::DenyPairClassifier;
    use prima_model::samples::figure_3_policy_store;
    use prima_vocab::samples::figure_1;

    /// Table 1 of the paper, verbatim.
    fn table_1() -> Vec<AuditEntry> {
        vec![
            AuditEntry::regular(1, "John", "Prescription", "Treatment", "Nurse"),
            AuditEntry::regular(2, "Tim", "Referral", "Treatment", "Nurse"),
            AuditEntry::exception(3, "Mark", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(4, "Sarah", "Psychiatry", "Treatment", "Doctor"),
            AuditEntry::regular(5, "Bill", "Address", "Billing", "Clerk"),
            AuditEntry::exception(6, "Jason", "Prescription", "Billing", "Clerk"),
            AuditEntry::exception(7, "Mark", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(8, "Tim", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(9, "Bob", "Referral", "Registration", "Nurse"),
            AuditEntry::exception(10, "Mark", "Referral", "Registration", "Nurse"),
        ]
    }

    #[test]
    fn section_5_use_case_end_to_end() {
        let v = figure_1();
        let report = refinement(&figure_3_policy_store(), &table_1(), &v).unwrap();
        // Filter keeps t3, t4, t6, t7-t10 — seven entries.
        assert_eq!(report.input_entries, 10);
        assert_eq!(report.practice_entries, 7);
        assert_eq!(report.dropped_entries, 3);
        // Mining with f=5, c=COUNT(DISTINCT user)>1 yields exactly one
        // pattern: Referral:Registration:Nurse.
        assert_eq!(report.raw_patterns.len(), 1);
        // Prune keeps it: it is not in P_PS's range.
        assert_eq!(report.useful_patterns.len(), 1);
        assert_eq!(
            report.useful_patterns[0].compact(&["data", "purpose", "authorized"]),
            "referral:registration:nurse"
        );
        assert_eq!(report.useful_patterns[0].support, 5);
        assert!(report.miner_description.contains("f=5"));
    }

    #[test]
    fn violations_are_diverted_not_mined() {
        let v = figure_1();
        let mut classifier = DenyPairClassifier::new();
        // Flag the whole nurse/referral pattern as a suspected violation.
        classifier.deny("referral", "nurse");
        let miner = SqlMiner::default();
        let report = refinement_with(
            &figure_3_policy_store(),
            &table_1(),
            &v,
            &RefinementConfig::new(&miner, &classifier),
        )
        .unwrap();
        assert_eq!(report.suspected_violations.len(), 5);
        assert!(report.useful_patterns.is_empty());
    }

    #[test]
    fn already_covered_patterns_reported_separately() {
        let v = figure_1();
        // Add the mined rule to the policy first; rerunning refinement must
        // prune it.
        let mut ps = figure_3_policy_store();
        ps.push(Rule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]));
        let report = refinement(&ps, &table_1(), &v).unwrap();
        assert!(report.useful_patterns.is_empty());
        assert_eq!(report.already_covered.len(), 1);
    }

    #[test]
    fn gate_diverts_widening_patterns_with_pa005() {
        let v = figure_1();
        // Envelope: mined practice may only specialize medical-staff access
        // to medical data for administering healthcare. The Table 1 mined
        // pattern referral:registration:nurse fits inside it.
        let inside = SafetyGate::new(Policy::with_rules(
            prima_model::StoreTag::Named("envelope".into()),
            vec![Rule::of(&[
                ("data", "medical"),
                ("purpose", "administering-healthcare"),
                ("authorized", "medical-staff"),
            ])],
        ));
        let miner = SqlMiner::default();
        let classifier = NoViolations;
        let config = RefinementConfig::new(&miner, &classifier).with_gate(&inside);
        let report = refinement_with(&figure_3_policy_store(), &table_1(), &v, &config).unwrap();
        assert_eq!(report.useful_patterns.len(), 1);
        assert!(report.gate_rejected.is_empty());

        // Shrink the envelope so the same pattern becomes a widening.
        let outside = SafetyGate::new(Policy::with_rules(
            prima_model::StoreTag::Named("envelope".into()),
            vec![Rule::of(&[
                ("data", "demographic"),
                ("purpose", "billing"),
                ("authorized", "administrative-staff"),
            ])],
        ));
        let config = RefinementConfig::new(&miner, &classifier).with_gate(&outside);
        let report = refinement_with(&figure_3_policy_store(), &table_1(), &v, &config).unwrap();
        assert!(report.useful_patterns.is_empty());
        assert_eq!(report.gate_rejected.len(), 1);
        let (pattern, diag) = &report.gate_rejected[0];
        assert_eq!(
            pattern.compact(&["data", "purpose", "authorized"]),
            "referral:registration:nurse"
        );
        assert_eq!(diag.code.as_str(), "PA005");
        assert!(diag.is_error());
    }

    #[test]
    fn empty_trail_produces_empty_report() {
        let v = figure_1();
        let report = refinement(&figure_3_policy_store(), &[], &v).unwrap();
        assert_eq!(report.practice_entries, 0);
        assert!(report.useful_patterns.is_empty());
    }
}
