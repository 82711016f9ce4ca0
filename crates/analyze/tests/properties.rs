//! Property-based checks that the analyzer's indexed verdicts agree with
//! brute-force ground-expansion comparison and with policy compaction,
//! that the safety gate agrees with pairwise subsumption, plus the perf
//! smoke test the indexed shadowing pass exists for.

use prima_analyze::{AnalyzeConfig, Analyzer, SafetyGate};
use prima_model::diag::DiagCode;
use prima_model::simplify::{rule_subsumes, simplify_policy};
use prima_model::{Policy, Rule, RuleTerm, StoreTag};
use prima_vocab::samples::figure_1;
use prima_vocab::synthetic::{synthetic_vocabulary, SyntheticSpec};
use prima_vocab::Vocabulary;
use proptest::prelude::*;
use std::collections::HashSet;

/// All concept names of an attribute (composite and ground).
fn concept_names(v: &Vocabulary, attr: &str) -> Vec<String> {
    let t = v.attribute(attr).expect("attribute exists");
    t.iter().map(|(_, c)| c.name.clone()).collect()
}

/// Random rule over the vocabulary: one term per attribute, values drawn
/// from anywhere in the taxonomy (ground and composite alike).
fn arb_rule(v: &Vocabulary) -> impl Strategy<Value = Rule> {
    let per_attr: Vec<(String, Vec<String>)> = v
        .attribute_names()
        .map(|a| (a.to_string(), concept_names(v, a)))
        .collect();
    (
        collection::vec(any::<sample::Index>(), per_attr.len()),
        Just(per_attr),
    )
        .prop_map(|(indices, per_attr)| {
            let terms: Vec<RuleTerm> = per_attr
                .iter()
                .zip(indices)
                .map(|((attr, names), idx)| RuleTerm::of(attr, &names[idx.index(names.len())]))
                .collect();
            Rule::new(terms).expect("one term per attribute")
        })
}

fn arb_policy(v: &Vocabulary, max_rules: usize) -> impl Strategy<Value = Policy> {
    collection::vec(arb_rule(v), 1..=max_rules)
        .prop_map(|rules| Policy::with_rules(StoreTag::PolicyStore, rules))
}

/// The rule's ground expansion as a comparable set.
fn expansion_set(rule: &Rule, v: &Vocabulary) -> HashSet<String> {
    rule.ground_expansion(v).map(|g| g.to_string()).collect()
}

/// Brute-force shadowing verdict for rule `i`, mirroring the documented
/// pass semantics: some other rule's expansion contains `i`'s, and either
/// the containment is strict or the subsumer comes earlier (so exactly
/// one of two equivalent rules — the later — is flagged).
fn brute_force_shadowed(policy: &Policy, i: usize, v: &Vocabulary) -> bool {
    let rules = policy.rules();
    let mine = expansion_set(&rules[i], v);
    rules.iter().enumerate().any(|(j, other)| {
        if j == i {
            return false;
        }
        let theirs = expansion_set(other, v);
        mine.is_subset(&theirs) && (theirs != mine || j < i)
    })
}

/// Indices of the rules `PA001` flags.
fn shadowed_indices(diags: &[prima_model::Diagnostic]) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.code == DiagCode::ShadowedRule)
        .filter_map(|d| d.location.rule_index)
        .collect()
}

/// Indices of the rules `simplify_policy` removes. Survivors keep their
/// order and the first of identical copies survives, so the leftmost
/// embedding of the compacted policy in the original is the right one.
fn compacted_away(policy: &Policy, v: &Vocabulary) -> Vec<usize> {
    let out = simplify_policy(policy, v);
    let mut kept = out.policy.rules().iter().peekable();
    let removed: Vec<usize> = (0..policy.rules().len())
        .filter(|&i| kept.next_if(|&k| *k == policy.rules()[i]).is_none())
        .collect();
    assert!(kept.next().is_none(), "survivors are a subsequence");
    assert_eq!(removed.len(), out.removed.len());
    removed
}

/// A vocabulary with single-leaf composites (`lab` over `lab-result`,
/// `billing-data` over `invoice`, `nurse` over `ward-nurse`): a rule
/// naming one has the same expansion as the rule naming its leaf.
fn gate_vocab() -> Vocabulary {
    Vocabulary::builder()
        .attribute("data")
        .category("clinical", &["referral", "lab"])
        .child("lab", "lab-result")
        .category("billing-data", &["invoice"])
        .attribute("purpose")
        .category("care", &["treatment", "triage"])
        .attribute("authorized")
        .category("staff", &["nurse", "clerk"])
        .child("nurse", "ward-nurse")
        .build()
        .expect("gate vocabulary")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The compiled gate admits exactly what the pairwise reference does:
    /// lax, some envelope rule subsumes the candidate; strict, one of
    /// those has a strictly larger expansion. A strict rejection says
    /// "restates" exactly when some envelope rule subsumes the candidate.
    #[test]
    fn gate_matches_pairwise_subsumption(
        envelope in arb_policy(&gate_vocab(), 4),
        candidates in collection::vec(arb_rule(&gate_vocab()), 1..8),
    ) {
        let v = gate_vocab();
        let lax = SafetyGate::new(envelope.clone(), &v);
        let strict = lax.clone().strict();
        for (i, c) in candidates.iter().enumerate() {
            let subsumers: Vec<&Rule> = envelope
                .rules()
                .iter()
                .filter(|u| rule_subsumes(u, c, &v))
                .collect();
            let narrowed = subsumers
                .iter()
                .any(|u| c.expansion_size(&v) < u.expansion_size(&v));
            prop_assert_eq!(lax.admits(c, &v), !subsumers.is_empty(), "lax on {}", c);
            prop_assert_eq!(lax.check(i, c, &v).is_ok(), !subsumers.is_empty());
            prop_assert_eq!(strict.admits(c, &v), narrowed, "strict on {}", c);
            match strict.check(i, c, &v) {
                Ok(()) => prop_assert!(narrowed),
                Err(diag) => {
                    prop_assert!(!narrowed);
                    prop_assert_eq!(diag.message.contains("restates"), !subsumers.is_empty());
                }
            }
        }
    }

    /// `rule_subsumes` (the analyzer's containment primitive) is exactly
    /// ground-expansion inclusion.
    #[test]
    fn subsumption_is_expansion_inclusion(
        a in arb_rule(&figure_1()),
        b in arb_rule(&figure_1()),
    ) {
        let v = figure_1();
        let claimed = rule_subsumes(&b, &a, &v);
        let truth = expansion_set(&a, &v).is_subset(&expansion_set(&b, &v));
        prop_assert_eq!(claimed, truth);
    }

    /// `ranges_intersect` (the conflict pass's primitive) is exactly
    /// non-empty ground-expansion intersection.
    #[test]
    fn overlap_is_expansion_intersection(
        a in arb_rule(&figure_1()),
        b in arb_rule(&figure_1()),
    ) {
        let v = figure_1();
        let claimed = a.ranges_intersect(&b, &v);
        let truth = !expansion_set(&a, &v).is_disjoint(&expansion_set(&b, &v));
        prop_assert_eq!(claimed, truth);
    }

    /// The indexed shadowing pass flags exactly the rules brute-force
    /// expansion comparison says are shadowed — no misses, no false
    /// positives — on the paper's vocabulary.
    #[test]
    fn shadow_verdicts_match_brute_force(p in arb_policy(&figure_1(), 6)) {
        let v = figure_1();
        let diags = Analyzer::new(&v).analyze(&p);
        let flagged: HashSet<usize> = diags
            .iter()
            .filter(|d| d.code == DiagCode::ShadowedRule)
            .filter_map(|d| d.location.rule_index)
            .collect();
        for i in 0..p.rules().len() {
            prop_assert_eq!(
                flagged.contains(&i),
                brute_force_shadowed(&p, i, &v),
                "rule {} of {:?}", i, p
            );
        }
    }

    /// Same agreement on a deeper synthetic taxonomy (longer ancestor
    /// chains exercise the rows' closure over ancestors).
    #[test]
    fn shadow_verdicts_match_brute_force_on_synthetic(
        p in arb_policy(
            &synthetic_vocabulary(SyntheticSpec { attributes: 2, fan_out: 2, depth: 3, roots: 1 }),
            5,
        ),
    ) {
        let v = synthetic_vocabulary(SyntheticSpec { attributes: 2, fan_out: 2, depth: 3, roots: 1 });
        // Disable the audit-schema check: synthetic attributes are not
        // data/purpose/authorized, and vacuity is not under test here.
        let diags = Analyzer::new(&v)
            .with_config(AnalyzeConfig::default().without_schema_check())
            .analyze(&p);
        let flagged: HashSet<usize> = diags
            .iter()
            .filter(|d| d.code == DiagCode::ShadowedRule)
            .filter_map(|d| d.location.rule_index)
            .collect();
        for i in 0..p.rules().len() {
            prop_assert_eq!(
                flagged.contains(&i),
                brute_force_shadowed(&p, i, &v),
                "rule {} of {:?}", i, p
            );
        }
    }

    /// `PA001` and compaction give one answer: the rules the pass flags
    /// are exactly the rules `simplify_policy` removes.
    #[test]
    fn shadow_verdicts_are_the_rules_compaction_removes(p in arb_policy(&figure_1(), 8)) {
        let v = figure_1();
        let diags = Analyzer::new(&v).analyze(&p);
        prop_assert_eq!(shadowed_indices(&diags), compacted_away(&p, &v), "{:?}", p);
    }

    /// Vacuity agrees with the ground truth: over the standard audit
    /// schema a full-schema rule always has a reachable expansion, and a
    /// rule over any other attribute set can never match an entry.
    #[test]
    fn vacuity_verdicts_match_schema_reachability(
        p in arb_policy(&figure_1(), 5),
        drop_attr in 0usize..3,
    ) {
        let v = figure_1();
        // Full-schema rules: never vacuous.
        let diags = Analyzer::new(&v).analyze(&p);
        prop_assert!(diags.iter().all(|d| d.code != DiagCode::VacuousRule));

        // Drop one attribute from every rule: all vacuous.
        let maimed: Vec<Rule> = p
            .rules()
            .iter()
            .map(|r| {
                let terms: Vec<RuleTerm> = r
                    .terms()
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != drop_attr)
                    .map(|(_, t)| t.clone())
                    .collect();
                Rule::new(terms).expect("two terms left")
            })
            .collect();
        let n = maimed.len();
        let maimed = Policy::with_rules(StoreTag::PolicyStore, maimed);
        let diags = Analyzer::new(&v).analyze(&maimed);
        let vacuous = diags
            .iter()
            .filter(|d| d.code == DiagCode::VacuousRule)
            .count();
        prop_assert_eq!(vacuous, n);
    }
}

/// Perf smoke: a 10k-rule synthetic policy runs the full intra-policy
/// pass stack in under a second. The compiled subsumer table is what
/// makes this hold — a pairwise scan is quadratic in the rule count.
#[test]
fn ten_thousand_rules_analyze_in_under_a_second() {
    let spec = SyntheticSpec {
        attributes: 3,
        fan_out: 4,
        depth: 3,
        roots: 2,
    };
    let v = synthetic_vocabulary(spec);
    let names: Vec<Vec<String>> = v.attribute_names().map(|a| concept_names(&v, a)).collect();
    let attrs: Vec<String> = v.attribute_names().map(str::to_string).collect();
    // Deterministic spread over the taxonomy via coprime strides.
    let rules: Vec<Rule> = (0..10_000)
        .map(|i| {
            let terms: Vec<RuleTerm> = attrs
                .iter()
                .zip(&names)
                .enumerate()
                .map(|(k, (attr, pool))| {
                    RuleTerm::of(attr, &pool[(i * (7 + 3 * k) + k) % pool.len()])
                })
                .collect();
            Rule::new(terms).expect("one term per attribute")
        })
        .collect();
    let policy = Policy::with_rules(StoreTag::PolicyStore, rules);

    let analyzer = Analyzer::new(&v).with_config(AnalyzeConfig::default().without_schema_check());
    let start = std::time::Instant::now();
    let diags = analyzer.analyze(&policy);
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "10k-rule analysis took {elapsed:?}"
    );
    // Sanity: the stride pattern repeats well inside 10k rules, so the
    // pass must find plenty of duplicates/shadows.
    assert!(
        diags.iter().any(|d| d.code == DiagCode::ShadowedRule),
        "expected shadowing among 10k strided rules"
    );
    assert_eq!(shadowed_indices(&diags), compacted_away(&policy, &v));
}
