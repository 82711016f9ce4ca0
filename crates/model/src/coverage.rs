//! Policy coverage — Definition 9, Algorithm 1 (`ComputeCoverage`), and
//! Definition 10 (complete coverage).
//!
//! `Coverage_{P_y}^{P_x} = #(Range_{P_x} ∩ Range_{P_y}) ÷ #Range_{P_y}`,
//! with the intersection computed under rule equivalence (Definition 6).
//! Informally: how much of the *real* workflow (`P_y = P_AL`) is sanctioned
//! by the *ideal* workflow (`P_x = P_PS`).

use crate::compiled::CompiledPolicy;
use crate::error::ModelError;
use crate::ground::GroundRule;
use crate::policy::Policy;
use crate::range::{RangeSet, DEFAULT_RANGE_BUDGET};
use crate::rule::Rule;
use prima_vocab::Vocabulary;
use std::collections::HashMap;
use std::fmt;

/// How the coverage engine evaluates Definition 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Algorithm 1 verbatim: materialize both ranges, hash-intersect.
    #[default]
    MaterializeHash,
    /// Materialize both ranges, intersect by sort-merge (ablation partner).
    MaterializeSortMerge,
    /// Never materialize `Range(P_x)`: decide each ground rule of
    /// `Range(P_y)` against `P_x` compiled into a [`CompiledPolicy`]
    /// bitset table. Immune to policy-store range explosion.
    Lazy,
}

/// The result of a coverage computation.
///
/// Beyond the paper's scalar ratio, the report retains which ground rules of
/// the target range were and were not covered — the uncovered ones are
/// exactly the "exception scenarios" Figure 3 calls out.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// `#(Range_{P_x} ∩ Range_{P_y})` — the overlap cardinality (`m_o`).
    pub overlap: usize,
    /// `#Range_{P_y}` — the target range cardinality (`m_y`).
    pub target_cardinality: usize,
    /// Ground rules of `Range(P_y)` that are covered, canonically sorted.
    pub covered: Vec<GroundRule>,
    /// Ground rules of `Range(P_y)` that are not covered, canonically
    /// sorted.
    pub uncovered: Vec<GroundRule>,
}

impl CoverageReport {
    /// The coverage ratio `m_o ÷ m_y` in `[0, 1]`.
    ///
    /// For an empty target range the ratio is defined as 1: Definition 10's
    /// completeness condition `Range_x ∩ Range_y = Range_y` holds vacuously.
    pub fn ratio(&self) -> f64 {
        if self.target_cardinality == 0 {
            1.0
        } else {
            self.overlap as f64 / self.target_cardinality as f64
        }
    }

    /// The ratio as a percentage, the way the paper reports it ("50 %").
    pub fn percent(&self) -> f64 {
        self.ratio() * 100.0
    }

    /// Definition 10: `P_x` completely covers `P_y` iff the intersection
    /// equals `Range_{P_y}`.
    pub fn is_complete(&self) -> bool {
        self.overlap == self.target_cardinality
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "coverage = {}/{} = {:.1}%",
            self.overlap,
            self.target_cardinality,
            self.percent()
        )?;
        if !self.uncovered.is_empty() {
            writeln!(f, "uncovered (exception scenarios):")?;
            for g in &self.uncovered {
                writeln!(f, "  {g}")?;
            }
        }
        Ok(())
    }
}

/// Algorithm 1, `ComputeCoverage(P_x, P_y, V)`, with the default strategy
/// and range budget.
pub fn compute_coverage(
    px: &Policy,
    py: &Policy,
    vocab: &Vocabulary,
) -> Result<CoverageReport, ModelError> {
    CoverageEngine::default().coverage(px, py, vocab)
}

/// A configurable coverage evaluator (strategy + range budget).
#[derive(Debug, Clone, Copy)]
pub struct CoverageEngine {
    strategy: Strategy,
    budget: usize,
}

impl Default for CoverageEngine {
    fn default() -> Self {
        Self {
            strategy: Strategy::default(),
            budget: DEFAULT_RANGE_BUDGET,
        }
    }
}

impl CoverageEngine {
    /// Creates an engine with the given strategy and the default budget.
    pub fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            budget: DEFAULT_RANGE_BUDGET,
        }
    }

    /// Overrides the materialization budget (ground rules per range).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Computes `Coverage_{P_y}^{P_x}` (Definition 9).
    ///
    /// Note the asymmetry, which follows the paper: the *target* `P_y`
    /// (typically the audit-log policy) supplies the denominator; `P_x`
    /// (typically the policy store) supplies the sanctioning range.
    pub fn coverage(
        &self,
        px: &Policy,
        py: &Policy,
        vocab: &Vocabulary,
    ) -> Result<CoverageReport, ModelError> {
        let range_y = RangeSet::of_policy_bounded(py, vocab, self.budget)?;
        match self.strategy {
            Strategy::MaterializeHash | Strategy::MaterializeSortMerge => {
                let range_x = RangeSet::of_policy_bounded(px, vocab, self.budget)?;
                let overlap_set = match self.strategy {
                    Strategy::MaterializeHash => range_x.intersect(&range_y),
                    _ => range_x.intersect_sorted(&range_y),
                };
                Ok(split_report(&range_y, |g| overlap_set.contains(g)))
            }
            Strategy::Lazy => {
                let compiled = CompiledPolicy::new(px, vocab);
                Ok(split_report(&range_y, |g| compiled.covers(g)))
            }
        }
    }

    /// Convenience: just the ratio.
    pub fn coverage_ratio(
        &self,
        px: &Policy,
        py: &Policy,
        vocab: &Vocabulary,
    ) -> Result<f64, ModelError> {
        Ok(self.coverage(px, py, vocab)?.ratio())
    }
}

fn split_report<F: FnMut(&GroundRule) -> bool>(
    range_y: &RangeSet,
    mut is_covered: F,
) -> CoverageReport {
    let mut covered = Vec::new();
    let mut uncovered = Vec::new();
    for g in range_y.iter() {
        if is_covered(g) {
            covered.push(g.clone());
        } else {
            uncovered.push(g.clone());
        }
    }
    covered.sort();
    uncovered.sort();
    CoverageReport {
        overlap: covered.len(),
        target_cardinality: range_y.cardinality(),
        covered,
        uncovered,
    }
}

/// Entry-weighted coverage: the fraction of audit-log *entries* (a multiset
/// of ground rules) sanctioned by `px`.
///
/// Definition 9 computes coverage over range *sets*, under which repeated
/// accesses collapse to one ground rule. But the paper's own Section 5 use
/// case reports 30 % for Table 1 — 3 covered entries out of 10 — which is a
/// per-entry computation: the trail's five `referral:registration:nurse`
/// rows count five times. Both semantics matter operationally (the set view
/// measures *policy* completeness, the entry view measures how much of the
/// day-to-day *workload* runs on exceptions), so this crate exposes both;
/// `EXPERIMENTS.md` §E3 documents the discrepancy in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryCoverageReport {
    /// Number of entries sanctioned by the policy.
    pub covered_entries: usize,
    /// Total entries examined.
    pub total_entries: usize,
    /// Indices (into the input slice) of uncovered entries.
    pub uncovered_indices: Vec<usize>,
}

impl EntryCoverageReport {
    /// Weighs per-shape verdicts by a trail interned by shape: entry `i`
    /// carries shape `shape_ids[i]` and is covered iff `verdicts` holds
    /// `true` for it. An id without a verdict (an entry that projects to
    /// no shape) counts as uncovered.
    pub fn weigh(verdicts: &[bool], shape_ids: &[u32]) -> Self {
        let uncovered_indices: Vec<usize> = shape_ids
            .iter()
            .enumerate()
            .filter(|&(_, &id)| !verdicts.get(id as usize).copied().unwrap_or(false))
            .map(|(i, _)| i)
            .collect();
        Self {
            covered_entries: shape_ids.len() - uncovered_indices.len(),
            total_entries: shape_ids.len(),
            uncovered_indices,
        }
    }

    /// `covered ÷ total`, defined as 1 for an empty trail.
    pub fn ratio(&self) -> f64 {
        entry_ratio(self.covered_entries, self.total_entries)
    }

    /// The ratio as a percentage.
    pub fn percent(&self) -> f64 {
        self.ratio() * 100.0
    }
}

/// Entry-weighted coverage `covered ÷ total`, defined as 1 for an empty
/// trail (Definition 10 holds vacuously).
pub fn entry_ratio(covered: usize, total: usize) -> f64 {
    if total == 0 {
        1.0
    } else {
        covered as f64 / total as f64
    }
}

impl CoverageEngine {
    /// Computes entry-weighted coverage of `entries` by `px` (always via
    /// the compiled table — no range materialization needed).
    ///
    /// Audit trails are highly repetitive (the same few access shapes
    /// repeated thousands of times), so the entries are interned by shape,
    /// each distinct shape is decided once, and the verdicts are weighed
    /// back onto the entries ([`EntryCoverageReport::weigh`]).
    pub fn entry_coverage(
        &self,
        px: &Policy,
        entries: &[GroundRule],
        vocab: &Vocabulary,
    ) -> EntryCoverageReport {
        let mut ids: HashMap<&GroundRule, u32> = HashMap::new();
        let mut shapes: Vec<&GroundRule> = Vec::new();
        let shape_ids: Vec<u32> = entries
            .iter()
            .map(|g| {
                *ids.entry(g).or_insert_with(|| {
                    shapes.push(g);
                    u32::try_from(shapes.len() - 1).expect("fewer than 2^32 distinct shapes")
                })
            })
            .collect();
        let verdicts = CompiledPolicy::new(px, vocab).verdicts(&shapes);
        EntryCoverageReport::weigh(&verdicts, &shape_ids)
    }
}

/// The membership test of [`PolicyMatcher`]: some rule of the signature's
/// bucket holds `g` in its expansion.
fn rules_cover<R: std::borrow::Borrow<Rule>>(
    rules: Option<&Vec<R>>,
    g: &GroundRule,
    vocab: &Vocabulary,
) -> bool {
    match rules {
        Some(rules) => rules
            .iter()
            .any(|r| r.borrow().expansion_contains(g, vocab)),
        None => false,
    }
}

/// An owned, thread-shareable version of the lazy membership test: the
/// policy's rules indexed by attribute signature, bundled with the
/// vocabulary the subsumption check runs under.
///
/// This is the unit the streaming pipeline and the decision service
/// distribute to their workers. It answers exactly the same question as
/// the batch engine's [`CompiledPolicy`] (both reduce to
/// [`Rule::expansion_contains`]; `tests/differential.rs` checks the two
/// against each other), so online verdicts match batch verdicts rule for
/// rule.
#[derive(Debug, Clone)]
pub struct PolicyMatcher {
    by_signature: HashMap<Vec<String>, Vec<Rule>>,
    vocab: std::sync::Arc<Vocabulary>,
    rule_count: usize,
}

impl PolicyMatcher {
    /// Builds a matcher for `policy` under `vocab`.
    pub fn new(policy: &Policy, vocab: &Vocabulary) -> Self {
        Self::with_shared_vocab(policy, std::sync::Arc::new(vocab.clone()))
    }

    /// Builds a matcher reusing an already-shared vocabulary (cheap when
    /// re-indexing after a policy refinement).
    pub fn with_shared_vocab(policy: &Policy, vocab: std::sync::Arc<Vocabulary>) -> Self {
        let mut by_signature: HashMap<Vec<String>, Vec<Rule>> = HashMap::new();
        let mut rule_count = 0usize;
        for rule in policy.rules() {
            let sig: Vec<String> = rule.terms().iter().map(|t| t.attr.clone()).collect();
            by_signature.entry(sig).or_default().push(rule.clone());
            rule_count += 1;
        }
        Self {
            by_signature,
            vocab,
            rule_count,
        }
    }

    /// True iff some rule of the indexed policy sanctions `g`
    /// (Definition 6 equivalence, same probe as the batch engine).
    pub fn covers(&self, g: &GroundRule) -> bool {
        let sig: Vec<String> = g.attrs().map(str::to_string).collect();
        rules_cover(self.by_signature.get(&sig), g, &self.vocab)
    }

    /// The vocabulary the matcher evaluates under.
    pub fn vocab(&self) -> &std::sync::Arc<Vocabulary> {
        &self.vocab
    }

    /// Number of rules indexed.
    pub fn rule_count(&self) -> usize {
        self.rule_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StoreTag;
    use prima_vocab::samples::figure_1;

    fn ps() -> Policy {
        Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                Rule::of(&[
                    ("data", "general-care"),
                    ("purpose", "treatment"),
                    ("authorized", "nurse"),
                ]),
                Rule::of(&[
                    ("data", "mental-health"),
                    ("purpose", "treatment"),
                    ("authorized", "physician"),
                ]),
                Rule::of(&[
                    ("data", "demographic"),
                    ("purpose", "billing"),
                    ("authorized", "clerk"),
                ]),
            ],
        )
    }

    fn al() -> Policy {
        let attrs =
            |d: &str, p: &str, a: &str| Rule::of(&[("data", d), ("purpose", p), ("authorized", a)]);
        Policy::with_rules(
            StoreTag::AuditLog,
            vec![
                attrs("prescription", "treatment", "nurse"),
                attrs("referral", "treatment", "nurse"),
                attrs("referral", "registration", "nurse"),
                attrs("psychiatry", "treatment", "nurse"),
                attrs("address", "billing", "clerk"),
                attrs("prescription", "billing", "clerk"),
            ],
        )
    }

    #[test]
    fn figure_3_coverage_is_fifty_percent() {
        let v = figure_1();
        let report = compute_coverage(&ps(), &al(), &v).unwrap();
        assert_eq!(report.overlap, 3);
        assert_eq!(report.target_cardinality, 6);
        assert!((report.ratio() - 0.5).abs() < f64::EPSILON);
        assert!((report.percent() - 50.0).abs() < f64::EPSILON);
        assert!(!report.is_complete());
    }

    #[test]
    fn figure_3_uncovered_rules_are_the_exception_scenarios() {
        let v = figure_1();
        let report = compute_coverage(&ps(), &al(), &v).unwrap();
        let uncovered: Vec<String> = report
            .uncovered
            .iter()
            .map(|g| g.compact(&["data", "purpose", "authorized"]))
            .collect();
        assert_eq!(
            uncovered,
            vec![
                "prescription:billing:clerk",
                "psychiatry:treatment:nurse",
                "referral:registration:nurse",
            ]
        );
    }

    #[test]
    fn all_strategies_agree_on_figure_3() {
        let v = figure_1();
        let base = compute_coverage(&ps(), &al(), &v).unwrap();
        for strategy in [
            Strategy::MaterializeHash,
            Strategy::MaterializeSortMerge,
            Strategy::Lazy,
        ] {
            let report = CoverageEngine::new(strategy)
                .coverage(&ps(), &al(), &v)
                .unwrap();
            assert_eq!(report, base, "strategy {strategy:?} must agree");
        }
    }

    #[test]
    fn lazy_strategy_survives_materialization_budget() {
        let v = figure_1();
        // Budget too small to materialize PS's range (3+2+4 = 9 ground
        // rules) but AL (6 ground rules) still fits.
        let engine = CoverageEngine::new(Strategy::Lazy).with_budget(6);
        let report = engine.coverage(&ps(), &al(), &v).unwrap();
        assert_eq!(report.overlap, 3);
        // The materializing engine trips on the same budget.
        let err = CoverageEngine::new(Strategy::MaterializeHash)
            .with_budget(6)
            .coverage(&ps(), &al(), &v)
            .unwrap_err();
        assert!(matches!(err, ModelError::RangeExplosion { .. }));
    }

    #[test]
    fn self_coverage_of_ground_policy_is_complete() {
        let v = figure_1();
        let report = compute_coverage(&al(), &al(), &v).unwrap();
        assert!(report.is_complete());
        assert!((report.ratio() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_target_is_vacuously_complete() {
        let v = figure_1();
        let empty = Policy::new(StoreTag::AuditLog);
        let report = compute_coverage(&ps(), &empty, &v).unwrap();
        assert_eq!(report.target_cardinality, 0);
        assert!((report.ratio() - 1.0).abs() < f64::EPSILON);
        assert!(report.is_complete());
    }

    #[test]
    fn empty_source_covers_nothing() {
        let v = figure_1();
        let empty = Policy::new(StoreTag::PolicyStore);
        let report = compute_coverage(&empty, &al(), &v).unwrap();
        assert_eq!(report.overlap, 0);
        assert!((report.ratio() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn coverage_is_directional() {
        let v = figure_1();
        // Coverage of AL with respect to PS: how much of the ideal workflow
        // is actually exercised. Different denominator, different number.
        let forward = compute_coverage(&ps(), &al(), &v).unwrap();
        let backward = compute_coverage(&al(), &ps(), &v).unwrap();
        assert_eq!(forward.target_cardinality, 6);
        assert_eq!(backward.target_cardinality, 9); // 3 + 2 + 4 ground rules
        assert_ne!(forward.ratio(), backward.ratio());
    }

    #[test]
    fn entry_coverage_weights_duplicates() {
        let v = figure_1();
        let covered = GroundRule::of(&[
            ("data", "referral"),
            ("purpose", "treatment"),
            ("authorized", "nurse"),
        ]);
        let uncovered = GroundRule::of(&[
            ("data", "referral"),
            ("purpose", "registration"),
            ("authorized", "nurse"),
        ]);
        // 2 covered entries + 3 repeats of an uncovered one.
        let entries = vec![
            covered.clone(),
            covered,
            uncovered.clone(),
            uncovered.clone(),
            uncovered,
        ];
        let r = CoverageEngine::default().entry_coverage(&ps(), &entries, &v);
        assert_eq!(r.covered_entries, 2);
        assert_eq!(r.total_entries, 5);
        assert_eq!(r.uncovered_indices, vec![2, 3, 4]);
        assert!((r.ratio() - 0.4).abs() < f64::EPSILON);
        // Set-based coverage over the same trail would be 1/2 instead.
    }

    #[test]
    fn entry_coverage_of_empty_trail_is_one() {
        let v = figure_1();
        let r = CoverageEngine::default().entry_coverage(&ps(), &[], &v);
        assert!((r.ratio() - 1.0).abs() < f64::EPSILON);
        assert_eq!(r.percent(), 100.0);
    }

    #[test]
    fn report_display_mentions_ratio_and_exceptions() {
        let v = figure_1();
        let report = compute_coverage(&ps(), &al(), &v).unwrap();
        let text = report.to_string();
        assert!(text.contains("3/6"));
        assert!(text.contains("50.0%"));
        assert!(text.contains("exception scenarios"));
    }
}
