//! [`CompiledPolicy`] — one policy revision compiled into bit-vector rows,
//! so asking which rules subsume a rule or an access shape (Definition 6's
//! question) costs a few word ANDs instead of a scan of string-resolving
//! subsumption tests.
//!
//! This is the bit-vector classifier of Lakshman & Stiliadis (SIGCOMM
//! 1998) over the paper's rule terms. Each rule term is resolved once, at
//! compile time: a value the vocabulary knows sets the rule's bit in the
//! exact row of `(attr, ConceptId)`, and an out-of-vocabulary value gets an
//! exact-name row only. The row of a queried term is the OR of the exact
//! rows along its concept's ancestor chain (self → root), built on first
//! ask: bit `r` is set iff rule `r`'s value on that attribute is the term's
//! value or one of its ancestors, which is [`Vocabulary::value_subsumes`].
//! An unknown value's row is its exact-name row, so only the identical
//! name subsumes it.
//!
//! [`CompiledPolicy::subsumers`] ANDs a rule's term rows with the mask of
//! rules of its cardinality: the rows force every attribute of the rule
//! into a subsumer's signature, and equal cardinality makes the two
//! signatures equal, which is exactly [`crate::rule_subsumes`] (and, for a
//! ground rule, [`Rule::expansion_contains`]). Batch coverage, Prune,
//! compaction and the analyzer's shadowing pass all ask this one query.

use crate::ground::GroundRule;
use crate::policy::Policy;
use crate::rule::Rule;
use crate::term::RuleTerm;
use prima_vocab::{ConceptId, Taxonomy, Vocabulary};
use std::borrow::Borrow;
use std::collections::HashMap;

/// A bit per rule of the compiled revision.
type Bits = Box<[u64]>;

/// One attribute's exact rows: the rules whose term names each value.
#[derive(Debug)]
struct ExactRows<'a> {
    taxonomy: Option<&'a Taxonomy>,
    by_concept: HashMap<ConceptId, Bits>,
    by_name: HashMap<&'a str, Bits>,
}

/// One policy revision compiled for subsumption queries: each distinct
/// access shape is decided, and each rule's subsumers are found, by bitset
/// intersection.
#[derive(Debug)]
pub struct CompiledPolicy<'a> {
    rules: &'a [Rule],
    /// `by_cardinality[c]` has bit `r` set iff rule `r` has `c` terms.
    by_cardinality: Vec<Bits>,
    /// Per attribute, the exact rows of the values the rules name.
    exact: HashMap<&'a str, ExactRows<'a>>,
    /// Per queried term: bit `r` set iff rule `r`'s term on the same
    /// attribute subsumes the term's value. Filled on first ask.
    rows: HashMap<RuleTerm, Bits>,
}

impl<'a> CompiledPolicy<'a> {
    /// Compiles `policy` under `vocab`: every rule term is resolved once
    /// into its exact row, and the cardinality masks are built. Subsumer
    /// rows follow on demand.
    pub fn new(policy: &'a Policy, vocab: &'a Vocabulary) -> Self {
        let rules = policy.rules();
        let zeroed = || vec![0u64; rules.len().div_ceil(64)].into_boxed_slice();
        let max_cardinality = rules.iter().map(Rule::cardinality).max().unwrap_or(0);
        let mut by_cardinality = vec![zeroed(); max_cardinality + 1];
        let mut exact: HashMap<&str, ExactRows> = HashMap::new();
        for (r, rule) in rules.iter().enumerate() {
            by_cardinality[rule.cardinality()][r / 64] |= 1 << (r % 64);
            for term in rule.terms() {
                let rows = exact.entry(&term.attr).or_insert_with(|| ExactRows {
                    taxonomy: vocab.attribute(&term.attr),
                    by_concept: HashMap::new(),
                    by_name: HashMap::new(),
                });
                let row = match rows.taxonomy.and_then(|t| t.resolve(&term.value)) {
                    Some(id) => rows.by_concept.entry(id).or_insert_with(zeroed),
                    None => rows.by_name.entry(&term.value).or_insert_with(zeroed),
                };
                row[r / 64] |= 1 << (r % 64);
            }
        }
        Self {
            rules,
            by_cardinality,
            exact,
            rows: HashMap::new(),
        }
    }

    /// The rules of the revision that subsume a rule or ground rule with
    /// these (attribute-sorted, one per attribute) terms: bit `r` is set
    /// iff `rule_subsumes(rules[r], terms)`. A rule of the revision is
    /// among its own subsumers.
    pub fn subsumers(&mut self, terms: &[RuleTerm]) -> Subsumers {
        let Some(mask) = self.by_cardinality.get(terms.len()) else {
            return Subsumers(Box::default());
        };
        let mut bits = mask.clone();
        for term in terms {
            if !self.rows.contains_key(term) {
                let row = self.row(term);
                self.rows.insert(term.clone(), row);
            }
            for (b, r) in bits.iter_mut().zip(&*self.rows[term]) {
                *b &= r;
            }
        }
        Subsumers(bits)
    }

    /// True iff some rule of the revision sanctions `g` — the same answer
    /// as `any(|r| r.expansion_contains(g, vocab))` over the policy.
    pub fn covers(&mut self, g: &GroundRule) -> bool {
        !self.subsumers(g.terms()).is_empty()
    }

    /// One verdict per distinct shape, in order: each shape is decided
    /// once per revision, however many entries carry it.
    pub fn verdicts<G: Borrow<GroundRule>>(&mut self, shapes: &[G]) -> Vec<bool> {
        shapes.iter().map(|g| self.covers(g.borrow())).collect()
    }

    /// The lowest rule other than rule `i` that subsumes it, if any. An
    /// identical rule counts only when it comes earlier, so of two copies
    /// only the later one is shadowed. The analyzer's `PA001` and
    /// [`crate::simplify_policy`] both decide with this.
    pub fn shadowed_by(&mut self, i: usize) -> Option<usize> {
        let rules = self.rules;
        self.subsumers(rules[i].terms())
            .iter()
            .find(|&j| j < i || (j > i && rules[j] != rules[i]))
    }

    /// The OR of the exact rows along `term`'s ancestor chain; an unknown
    /// value has its exact-name row only.
    fn row(&self, term: &RuleTerm) -> Bits {
        let mut row = vec![0u64; self.rules.len().div_ceil(64)].into_boxed_slice();
        let Some(exact) = self.exact.get(term.attr.as_str()) else {
            return row;
        };
        let resolved = exact
            .taxonomy
            .and_then(|t| Some((t, t.resolve(&term.value)?)));
        let chain: Vec<&Bits> = match resolved {
            Some((t, id)) => t
                .ancestors(id)
                .iter()
                .filter_map(|a| exact.by_concept.get(a))
                .collect(),
            None => exact.by_name.get(term.value.as_str()).into_iter().collect(),
        };
        for bits in chain {
            for (w, b) in row.iter_mut().zip(bits.iter()) {
                *w |= b;
            }
        }
        row
    }
}

/// A set of rule indices of one compiled revision, as answered by
/// [`CompiledPolicy::subsumers`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subsumers(Bits);

impl Subsumers {
    /// True iff no rule is in the set.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The rule indices in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest.wrapping_sub(1);
                (bit < 64).then_some(w * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StoreTag;
    use prima_vocab::samples::figure_1;

    fn ground(d: &str, p: &str, a: &str) -> GroundRule {
        GroundRule::of(&[("data", d), ("purpose", p), ("authorized", a)])
    }

    #[test]
    fn figure_3_verdicts_match_the_worked_example() {
        let v = figure_1();
        let ps = crate::samples::figure_3_policy_store();
        let mut compiled = CompiledPolicy::new(&ps, &v);
        assert!(compiled.covers(&ground("referral", "treatment", "nurse")));
        assert!(compiled.covers(&ground("address", "billing", "clerk")));
        assert!(!compiled.covers(&ground("referral", "registration", "nurse")));
        assert!(!compiled.covers(&ground("psychiatry", "treatment", "nurse")));
    }

    #[test]
    fn cardinality_mask_keeps_signatures_apart() {
        let v = figure_1();
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[("data", "demographic"), ("purpose", "billing")])],
        );
        let mut compiled = CompiledPolicy::new(&policy, &v);
        assert!(compiled.covers(&GroundRule::of(&[
            ("data", "address"),
            ("purpose", "billing")
        ])));
        // A wider shape passes both rows but not the two-term mask, and a
        // narrower one has no mask row at all.
        assert!(!compiled.covers(&ground("address", "billing", "clerk")));
        assert!(!compiled.covers(&GroundRule::of(&[("data", "address")])));
        let empty = Policy::new(StoreTag::PolicyStore);
        let mut none = CompiledPolicy::new(&empty, &v);
        assert!(!none.covers(&ground("address", "billing", "clerk")));
    }

    #[test]
    fn out_of_vocabulary_values_match_by_exact_name_only() {
        let v = figure_1();
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[
                ("data", "Genome Panel"),
                ("purpose", "treatment"),
                ("authorized", "nurse"),
            ])],
        );
        let mut compiled = CompiledPolicy::new(&policy, &v);
        assert!(compiled.covers(&ground("genome-panel", "treatment", "nurse")));
        assert!(!compiled.covers(&ground("genome", "treatment", "nurse")));
        assert!(!compiled.covers(&ground("genome-panel", "billing", "nurse")));
    }

    #[test]
    fn rows_span_word_boundaries() {
        let v = figure_1();
        // 130 rules over three words: rule 64 covers its own
        // out-of-vocabulary value, rule 129 the clinical shapes.
        let mut rules: Vec<Rule> = (0..129)
            .map(|i| {
                Rule::of(&[
                    ("data", &format!("unknown-{i}")),
                    ("purpose", "billing"),
                    ("authorized", "clerk"),
                ])
            })
            .collect();
        rules.push(Rule::of(&[
            ("data", "medical"),
            ("purpose", "treatment"),
            ("authorized", "nurse"),
        ]));
        let policy = Policy::with_rules(StoreTag::PolicyStore, rules);
        let mut compiled = CompiledPolicy::new(&policy, &v);
        let shapes = [
            ground("referral", "treatment", "nurse"),
            ground("referral", "billing", "clerk"),
            ground("unknown-64", "billing", "clerk"),
        ];
        assert_eq!(compiled.verdicts(&shapes), vec![true, false, true]);
    }

    #[test]
    fn subsumers_close_over_ancestors_and_include_the_rule_itself() {
        let v = figure_1();
        let policy = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![
                Rule::of(&[("data", "medical"), ("authorized", "medical-staff")]),
                Rule::of(&[("data", "referral"), ("authorized", "nurse")]),
                Rule::of(&[("data", "referral"), ("authorized", "nurse")]),
                Rule::of(&[("data", "demographic"), ("authorized", "nurse")]),
            ],
        );
        let mut compiled = CompiledPolicy::new(&policy, &v);
        let of = |compiled: &mut CompiledPolicy, i: usize| -> Vec<usize> {
            compiled
                .subsumers(policy.rules()[i].terms())
                .iter()
                .collect()
        };
        assert_eq!(of(&mut compiled, 0), vec![0]);
        assert_eq!(of(&mut compiled, 1), vec![0, 1, 2]);
        assert_eq!(of(&mut compiled, 3), vec![3]);
        // The umbrella shadows the narrow rule; of two copies the later is
        // shadowed, and by the umbrella, the lowest other subsumer.
        assert_eq!(compiled.shadowed_by(0), None);
        assert_eq!(compiled.shadowed_by(1), Some(0));
        assert_eq!(compiled.shadowed_by(2), Some(0));
        assert_eq!(compiled.shadowed_by(3), None);
    }

    #[test]
    fn an_identical_rule_shadows_only_a_later_copy() {
        let v = figure_1();
        let r = Rule::of(&[("data", "free-text-blob"), ("authorized", "nurse")]);
        let policy = Policy::with_rules(StoreTag::PolicyStore, vec![r.clone(), r]);
        let mut compiled = CompiledPolicy::new(&policy, &v);
        assert_eq!(compiled.shadowed_by(0), None);
        assert_eq!(compiled.shadowed_by(1), Some(0));
        assert!(compiled.subsumers(&[]).is_empty());
    }
}
