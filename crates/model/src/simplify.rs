//! Policy compaction: removing rules another rule already subsumes.
//!
//! Refinement appends *ground* rules; generalization (in `prima-refine`)
//! later proposes composite rules that cover them. Once a composite rule is
//! accepted, the ground ones are dead weight — the paper explicitly ties
//! broad rules to "reduc\[ing\] the size of the rule base". Compaction
//! removes any rule whose ground expansion is contained in another rule's
//! expansion, leaving a minimal equivalent policy.

use crate::compiled::CompiledPolicy;
use crate::policy::Policy;
use crate::rule::Rule;
use prima_vocab::Vocabulary;

/// The result of compaction.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplifyOutcome {
    /// The compacted policy (same tag, same semantics).
    pub policy: Policy,
    /// Rules removed, each with the index (in the compacted policy) of the
    /// rule that subsumes it.
    pub removed: Vec<(Rule, usize)>,
}

/// True iff `broad` subsumes `narrow`: same attribute set and every value
/// of `broad` subsumes the corresponding value of `narrow` — i.e.
/// `expansion(narrow) ⊆ expansion(broad)`.
///
/// This is the pairwise reference; [`CompiledPolicy::subsumers`] answers
/// the same question against a whole policy at once.
pub fn rule_subsumes(broad: &Rule, narrow: &Rule, vocab: &Vocabulary) -> bool {
    if broad.cardinality() != narrow.cardinality() {
        return false;
    }
    broad
        .terms()
        .iter()
        .zip(narrow.terms())
        .all(|(b, n)| b.subsumes(n, vocab))
}

/// Removes every rule subsumed by another rule of the policy. Exact
/// duplicates keep their first occurrence. Order of surviving rules is
/// preserved.
///
/// A rule goes exactly when the analyzer's `PA001` flags it
/// ([`CompiledPolicy::shadowed_by`]), and it is reported against its
/// lowest-index surviving subsumer. Some maximal subsumer of a dropped
/// rule always survives, so no rule is left without one.
pub fn simplify_policy(policy: &Policy, vocab: &Vocabulary) -> SimplifyOutcome {
    let rules = policy.rules();
    let table = CompiledPolicy::new(policy, vocab);
    let keep: Vec<bool> = (0..rules.len())
        .map(|i| table.shadowed_by(rules, i).is_none())
        .collect();
    let survivor: Vec<Option<usize>> = rules
        .iter()
        .zip(&keep)
        .map(|(rule, &kept)| {
            if kept {
                None
            } else {
                table.subsumers(rule.terms()).iter().find(|&i| keep[i])
            }
        })
        .collect();
    let mut compacted = Policy::new(policy.tag().clone());
    let mut position = Vec::with_capacity(rules.len());
    for (rule, by) in rules.iter().zip(&survivor) {
        position.push(compacted.cardinality());
        if by.is_none() {
            compacted.push(rule.clone());
        }
    }
    let removed = rules
        .iter()
        .zip(&survivor)
        .filter_map(|(rule, by)| Some((rule.clone(), position[(*by)?])))
        .collect();
    SimplifyOutcome {
        policy: compacted,
        removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StoreTag;
    use crate::samples::dpa_rule;
    use crate::{compute_coverage, RangeSet};
    use prima_vocab::samples::figure_1;

    #[test]
    fn rule_subsumption_is_directional() {
        let v = figure_1();
        let broad = dpa_rule("general-care", "treatment", "nurse");
        let narrow = dpa_rule("referral", "treatment", "nurse");
        assert!(rule_subsumes(&broad, &narrow, &v));
        assert!(!rule_subsumes(&narrow, &broad, &v));
        assert!(rule_subsumes(&broad, &broad, &v), "reflexive");
        let other = dpa_rule("address", "billing", "clerk");
        assert!(!rule_subsumes(&broad, &other, &v));
    }

    #[test]
    fn ground_rules_collapse_into_composite() {
        let v = figure_1();
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                dpa_rule("referral", "treatment", "nurse"),
                dpa_rule("general-care", "treatment", "nurse"),
                dpa_rule("prescription", "treatment", "nurse"),
                dpa_rule("address", "billing", "clerk"), // unrelated, kept
            ],
        );
        let out = simplify_policy(&policy, &v);
        assert_eq!(out.policy.cardinality(), 2);
        assert_eq!(out.removed.len(), 2);
        // Removed rules point at the composite survivor.
        for (_, by) in &out.removed {
            assert_eq!(
                out.policy.rules()[*by],
                dpa_rule("general-care", "treatment", "nurse")
            );
        }
    }

    #[test]
    fn simplification_preserves_semantics() {
        let v = figure_1();
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                dpa_rule("referral", "treatment", "nurse"),
                dpa_rule("general-care", "treatment", "nurse"),
                dpa_rule("demographic", "billing", "clerk"),
                dpa_rule("gender", "billing", "clerk"),
            ],
        );
        let out = simplify_policy(&policy, &v);
        let before = RangeSet::of_policy(&policy, &v).unwrap();
        let after = RangeSet::of_policy(&out.policy, &v).unwrap();
        assert_eq!(before, after, "compaction must not change the range");
        // And coverage of anything is unchanged.
        let probe = Policy::with_rules(
            StoreTag::AuditLog,
            vec![
                dpa_rule("referral", "treatment", "nurse"),
                dpa_rule("psychiatry", "treatment", "nurse"),
            ],
        );
        assert_eq!(
            compute_coverage(&policy, &probe, &v).unwrap().ratio(),
            compute_coverage(&out.policy, &probe, &v).unwrap().ratio(),
        );
    }

    #[test]
    fn exact_duplicates_keep_first() {
        let v = figure_1();
        let r = dpa_rule("referral", "treatment", "nurse");
        let policy = Policy::with_rules(StoreTag::PolicyStore, vec![r.clone(), r.clone()]);
        let out = simplify_policy(&policy, &v);
        assert_eq!(out.policy.cardinality(), 1);
        assert_eq!(out.removed.len(), 1);
        assert_eq!(out.removed[0].1, 0);
    }

    #[test]
    fn incomparable_rules_all_survive() {
        let v = figure_1();
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                dpa_rule("referral", "treatment", "nurse"),
                dpa_rule("referral", "registration", "nurse"),
                dpa_rule("psychiatry", "treatment", "physician"),
            ],
        );
        let out = simplify_policy(&policy, &v);
        assert_eq!(out.policy.cardinality(), 3);
        assert!(out.removed.is_empty());
    }

    #[test]
    fn empty_policy_is_noop() {
        let v = figure_1();
        let out = simplify_policy(&Policy::new(StoreTag::PolicyStore), &v);
        assert!(out.policy.is_empty());
        assert!(out.removed.is_empty());
    }
}
