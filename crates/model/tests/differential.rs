//! Differential tests for every path that asks "is this access
//! covered?": the compiled bitset table ([`CompiledPolicy`]), both Active
//! Enforcement middlewares built on it, the signature-bucket
//! [`PolicyMatcher`] the live paths use, and brute-force ground expansion
//! must answer identically. The table's rule-vs-rule answer (its subsumer
//! sets, and the compaction built on them) must equal pairwise
//! [`rule_subsumes`].
//!
//! Each case draws a random small vocabulary (a forest per attribute) and
//! a random policy whose rules mix cardinalities and use internal-node,
//! out-of-vocabulary and case/whitespace-variant values; the probed
//! shapes draw from the same values, and enforcement probes add blank
//! fields.

use prima_hdb::{ActiveEnforcement, ColumnMap, ConsentRegistry};
use prima_hier::enforce::TreeAccessMode;
use prima_hier::{Document, PathCategoryMap, TreeEnforcement};
use prima_model::{
    rule_subsumes, simplify_policy, CompiledPolicy, CoverageEngine, GroundRule, Policy,
    PolicyMatcher, Rule, RuleTerm, StoreTag,
};
use prima_vocab::{normalize, Vocabulary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const ATTRS: [&str; 3] = ["data", "purpose", "authorized"];

/// A random world: the vocabulary and, per attribute, how many concepts
/// it holds (named `{attr}-0` … `{attr}-{n-1}`).
struct World {
    vocab: Vocabulary,
    sizes: [usize; 3],
}

fn world(rng: &mut StdRng) -> World {
    let mut builder = Vocabulary::builder();
    let mut sizes = [0; 3];
    for (a, attr) in ATTRS.iter().enumerate() {
        builder = builder.attribute(attr);
        sizes[a] = rng.gen_range(1..=7);
        for i in 0..sizes[a] {
            let name = format!("{attr}-{i}");
            builder = if i == 0 || rng.gen_bool(0.25) {
                builder.root(&name)
            } else {
                let parent = format!("{attr}-{}", rng.gen_range(0..i));
                builder.child(&parent, &name)
            };
        }
    }
    World {
        vocab: builder.build().expect("generated forests are well-formed"),
        sizes,
    }
}

/// A value for attribute `a`: usually a concept (leaf or internal), else
/// an out-of-vocabulary name or a case/whitespace variant of a concept.
fn value(rng: &mut StdRng, world: &World, a: usize) -> String {
    let attr = ATTRS[a];
    let concept = rng.gen_range(0..world.sizes[a]);
    match rng.gen_range(0..10) {
        0 => format!("{attr}-oov-{}", rng.gen_range(0..2)),
        1 => format!(" {}_{concept} ", attr.to_uppercase()),
        _ => format!("{attr}-{concept}"),
    }
}

/// Terms over a random subset of one to three attributes.
fn terms(rng: &mut StdRng, world: &World) -> Vec<RuleTerm> {
    let mut attrs = [0, 1, 2];
    attrs.shuffle(rng);
    let k = rng.gen_range(1..=3);
    attrs[..k]
        .iter()
        .map(|&a| RuleTerm::new(ATTRS[a], &value(rng, world, a)).expect("non-empty"))
        .collect()
}

fn policy(rng: &mut StdRng, world: &World) -> Policy {
    let n = rng.gen_range(0..=12);
    let rules = (0..n)
        .map(|_| Rule::new(terms(rng, world)).expect("one term per attribute"))
        .collect();
    Policy::with_rules(StoreTag::PolicyStore, rules)
}

fn shape(rng: &mut StdRng, world: &World) -> GroundRule {
    GroundRule::new(terms(rng, world)).expect("one term per attribute")
}

/// An Active Enforcement access `(data, purpose, authorized)`: each field
/// a [`value`], or now and then one that is blank after normalization.
fn access(rng: &mut StdRng, world: &World) -> [String; 3] {
    let mut field = |a: usize| match rng.gen_range(0..8) {
        0 => ["", "  ", " _-"][rng.gen_range(0..3)].to_string(),
        _ => value(rng, world, a),
    };
    [field(0), field(1), field(2)]
}

/// The oracle for an access: no blank field, and some rule's expansion
/// holds the three-term shape.
fn sanctioned(policy: &Policy, v: &Vocabulary, access: &[String; 3]) -> bool {
    if access.iter().any(|x| normalize(x).is_empty()) {
        return false;
    }
    let terms = ATTRS
        .iter()
        .zip(access)
        .map(|(attr, x)| RuleTerm::of(attr, x))
        .collect();
    let g = GroundRule::new(terms).expect("one term per attribute");
    policy.rules().iter().any(|r| r.expansion_contains(&g, v))
}

// One compiled revision can be published to any thread.
const _: fn() = || {
    fn shareable<T: Send + Sync + 'static>() {}
    shareable::<CompiledPolicy>();
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_matcher_and_expansion_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let world = world(&mut rng);
        let policy = policy(&mut rng, &world);
        let v = &world.vocab;
        let compiled = CompiledPolicy::new(&policy, v);
        let matcher = PolicyMatcher::new(&policy, v);
        for _ in 0..40 {
            let g = shape(&mut rng, &world);
            let hit = compiled.covers(&g);
            prop_assert_eq!(hit, matcher.covers(&g), "matcher on {} under {}", g, seed);
            let contained = policy.rules().iter().any(|r| r.expansion_contains(&g, v));
            prop_assert_eq!(hit, contained, "expansion_contains on {} under {}", g, seed);
            // Ground expansions only ever hold ground rules, so membership
            // is the oracle for shapes whose every value is ground.
            if Rule::from_ground(&g).is_ground(v) {
                let expanded = policy
                    .rules()
                    .iter()
                    .any(|r| r.ground_expansion(v).any(|x| x == g));
                prop_assert_eq!(hit, expanded, "expansion on {} under {}", g, seed);
            }
        }
    }

    #[test]
    fn allows_and_both_enforcements_agree_with_expansion(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let world = world(&mut rng);
        let policy = policy(&mut rng, &world);
        let v = &world.vocab;
        let compiled = CompiledPolicy::new(&policy, v);
        let accesses: Vec<[String; 3]> = (0..20).map(|_| access(&mut rng, &world)).collect();
        let hdb = ActiveEnforcement::new(
            policy.clone(),
            v.clone(),
            ColumnMap::new(),
            ConsentRegistry::new(),
            "patient",
        );
        // One region per access, each mapped to the access's data field.
        let mut doc = Document::new("patient");
        let mut regions = PathCategoryMap::new();
        for (i, [data, _, _]) in accesses.iter().enumerate() {
            doc.add_text_child(doc.root(), &format!("r{i}"), "payload");
            regions.map(&format!("/patient/r{i}"), data).expect("literal pattern");
        }
        let tree = TreeEnforcement::new(policy.clone(), v.clone(), regions);
        for access in &accesses {
            let [data, purpose, role] = access;
            let expected = sanctioned(&policy, v, access);
            prop_assert_eq!(compiled.allows(data, purpose, role), expected, "allows {:?} under {}", access, seed);
            prop_assert_eq!(hdb.policy_allows(data, purpose, role), expected, "HDB {:?} under {}", access, seed);
            let out = tree.enforce(&doc, 0, "u", role, purpose, TreeAccessMode::Chosen);
            let category = normalize(data);
            prop_assert_eq!(
                out.served_categories.contains(&category),
                expected,
                "tree {:?} under {}", access, seed
            );
            prop_assert_eq!(out.redacted_categories.contains(&category), !expected);
        }
    }

    #[test]
    fn entry_coverage_matches_per_entry_matcher(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let world = world(&mut rng);
        let policy = policy(&mut rng, &world);
        let pool: Vec<GroundRule> = (0..rng.gen_range(1..=8))
            .map(|_| shape(&mut rng, &world))
            .collect();
        let trail: Vec<GroundRule> = (0..rng.gen_range(0..=60))
            .map(|_| pool.choose(&mut rng).expect("non-empty pool").clone())
            .collect();

        let report = CoverageEngine::default().entry_coverage(&policy, &trail, &world.vocab);
        let matcher = PolicyMatcher::new(&policy, &world.vocab);
        let uncovered: Vec<usize> = (0..trail.len())
            .filter(|&i| !matcher.covers(&trail[i]))
            .collect();
        prop_assert_eq!(report.total_entries, trail.len());
        prop_assert_eq!(report.covered_entries, trail.len() - uncovered.len());
        prop_assert_eq!(report.uncovered_indices, uncovered);
    }

    #[test]
    fn subsumers_and_compaction_match_pairwise_subsumption(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let world = world(&mut rng);
        let policy = policy(&mut rng, &world);
        let v = &world.vocab;
        let rules = policy.rules();
        let compiled = CompiledPolicy::new(&policy, v);
        for (i, rule) in rules.iter().enumerate() {
            let table: Vec<usize> = compiled
                .subsumers(rule.terms())
                .iter()
                .filter(|&j| j != i)
                .collect();
            let pairwise: Vec<usize> = (0..rules.len())
                .filter(|&j| j != i && rule_subsumes(&rules[j], rule, v))
                .collect();
            prop_assert_eq!(table, pairwise, "subsumers of rule {} under {}", i, seed);
        }

        // Brute force: a rule goes iff another rule subsumes it strictly,
        // or is an identical earlier copy; it is reported against the
        // lowest-index survivor that subsumes it.
        let dropped: Vec<bool> = (0..rules.len())
            .map(|i| {
                (0..rules.len()).any(|j| {
                    j != i
                        && rule_subsumes(&rules[j], &rules[i], v)
                        && (!rule_subsumes(&rules[i], &rules[j], v) || j < i)
                })
            })
            .collect();
        let survivors: Vec<usize> = (0..rules.len()).filter(|&i| !dropped[i]).collect();
        let expected_removed: Vec<(Rule, usize)> = (0..rules.len())
            .filter(|&i| dropped[i])
            .map(|i| {
                let by = survivors
                    .iter()
                    .position(|&j| rule_subsumes(&rules[j], &rules[i], v))
                    .expect("some survivor subsumes a dropped rule");
                (rules[i].clone(), by)
            })
            .collect();
        let out = simplify_policy(&policy, v);
        let kept: Vec<Rule> = survivors.iter().map(|&i| rules[i].clone()).collect();
        prop_assert_eq!(out.policy.rules(), &kept[..], "survivors under {}", seed);
        prop_assert_eq!(out.removed, expected_removed, "removed under {}", seed);
    }
}
