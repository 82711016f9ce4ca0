//! `PA001` — shadowing/redundancy: a rule fully subsumed by another rule
//! of the same policy.
//!
//! The naive check is `O(n²)` calls of `prima_model::rule_subsumes`.
//! Instead the policy is compiled once into a [`CompiledPolicy`], whose
//! term rows are closed over the taxonomy's ancestors, and each rule asks
//! it for its subsumers: one AND of its own term rows. The flagged rule
//! points at its lowest other subsumer; an identical rule counts only when
//! it comes earlier. `prima_model::simplify_policy` removes exactly the
//! rules this pass flags.

use prima_model::diag::{DiagCode, DiagLocation, Diagnostic};
use prima_model::{CompiledPolicy, Policy, Rule};
use prima_vocab::Vocabulary;

/// Runs the shadowing pass over one policy.
pub fn shadowing_pass(policy: &Policy, vocab: &Vocabulary) -> Vec<Diagnostic> {
    let rules = policy.rules();
    let table = CompiledPolicy::new(policy, vocab);
    (0..rules.len())
        .filter_map(|i| {
            let by = table.shadowed_by(rules, i)?;
            Some(shadow_diagnostic(policy, rules, i, by))
        })
        .collect()
}

/// Builds the `PA001` diagnostic with a hierarchy-aware witness: per
/// differing attribute, the `narrow ⊑ broad` step that proves the
/// subsumption.
fn shadow_diagnostic(policy: &Policy, rules: &[Rule], shadowed: usize, by: usize) -> Diagnostic {
    let narrow = &rules[shadowed];
    let broad = &rules[by];
    let steps: Vec<String> = narrow
        .terms()
        .iter()
        .zip(broad.terms())
        .filter(|(n, b)| n.value != b.value)
        .map(|(n, b)| format!("{}: {} ⊑ {}", n.attr, n.value, b.value))
        .collect();
    let witness = if steps.is_empty() {
        format!("identical to rule {}: {broad}", by + 1)
    } else {
        format!("rule {}: {broad}; {}", by + 1, steps.join("; "))
    };
    Diagnostic::new(
        DiagCode::ShadowedRule,
        DiagLocation::rule(shadowed).in_policy(policy.tag()),
        format!(
            "rule is fully subsumed by rule {} — every access it grants is \
             already granted; it can be removed without changing the range",
            by + 1
        ),
    )
    .with_witness(witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_model::StoreTag;
    use prima_vocab::samples::figure_1;

    fn ps(rules: Vec<Rule>) -> Policy {
        Policy::with_rules(StoreTag::PolicyStore, rules)
    }

    #[test]
    fn clean_policy_has_no_shadowing() {
        let v = figure_1();
        let p = ps(vec![
            Rule::of(&[("data", "referral"), ("authorized", "nurse")]),
            Rule::of(&[("data", "psychiatry"), ("authorized", "physician")]),
        ]);
        assert!(shadowing_pass(&p, &v).is_empty());
    }

    #[test]
    fn narrow_rule_shadowed_by_umbrella() {
        let v = figure_1();
        let p = ps(vec![
            Rule::of(&[("data", "medical"), ("authorized", "medical-staff")]),
            Rule::of(&[("data", "referral"), ("authorized", "nurse")]),
        ]);
        let diags = shadowing_pass(&p, &v);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::ShadowedRule);
        assert_eq!(diags[0].location.rule_index, Some(1));
        let witness = diags[0].witness.as_deref().unwrap();
        assert!(witness.contains("referral ⊑ medical"), "{witness}");
        assert!(witness.contains("nurse ⊑ medical-staff"), "{witness}");
    }

    #[test]
    fn exact_duplicate_flags_the_later_rule() {
        let v = figure_1();
        let r = Rule::of(&[("data", "referral"), ("authorized", "nurse")]);
        let p = Policy::with_rules(StoreTag::PolicyStore, vec![r.clone(), r]);
        let diags = shadowing_pass(&p, &v);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].location.rule_index, Some(1));
        assert!(diags[0].witness.as_deref().unwrap().contains("identical"));
    }

    #[test]
    fn different_attribute_sets_never_shadow() {
        let v = figure_1();
        let p = ps(vec![
            Rule::of(&[("data", "medical")]),
            Rule::of(&[("data", "referral"), ("authorized", "nurse")]),
        ]);
        assert!(shadowing_pass(&p, &v).is_empty());
    }

    #[test]
    fn out_of_vocabulary_values_only_shadow_exact_copies() {
        let v = figure_1();
        let p = ps(vec![
            Rule::of(&[("data", "free-text-blob")]),
            Rule::of(&[("data", "free-text-blob")]),
            Rule::of(&[("data", "other-blob")]),
        ]);
        let diags = shadowing_pass(&p, &v);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].location.rule_index, Some(1));
    }
}
