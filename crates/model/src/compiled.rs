//! [`CompiledPolicy`] — one policy revision compiled into bit-vector rows,
//! so deciding an access shape costs a few word ANDs instead of a scan of
//! string-resolving subsumption tests.
//!
//! This is the bit-vector classifier of Lakshman & Stiliadis (SIGCOMM
//! 1998) over the paper's rule terms. For each ground term `(attr, value)`
//! the table keeps a row with bit `r` set iff rule `r`'s term on `attr`
//! subsumes `value` under the vocabulary. A ground rule `g` is then
//! covered (Definition 9's lazy membership test) iff the AND of its terms'
//! rows and the mask of rules with `g`'s cardinality is non-zero: the rows
//! force every attribute of `g` into the rule's signature, and equal
//! cardinality makes the two signatures equal, which is exactly
//! [`Rule::expansion_contains`].
//!
//! Rows are built on first ask, one [`Vocabulary::value_subsumes`] probe
//! per rule, so out-of-vocabulary values keep their exact-name semantics
//! and a revision only pays for the values its trail actually uses.

use crate::ground::GroundRule;
use crate::policy::Policy;
use crate::rule::Rule;
use crate::term::RuleTerm;
use prima_vocab::Vocabulary;
use std::borrow::Borrow;
use std::collections::HashMap;

/// A bit per rule of the compiled revision.
type Bits = Box<[u64]>;

/// One policy revision compiled for batch coverage: decide each distinct
/// access shape once, by bitset intersection.
#[derive(Debug)]
pub struct CompiledPolicy<'a> {
    rules: &'a [Rule],
    vocab: &'a Vocabulary,
    /// `by_cardinality[c]` has bit `r` set iff rule `r` has `c` terms.
    by_cardinality: Vec<Bits>,
    /// Per ground term: bit `r` set iff rule `r`'s term on the same
    /// attribute subsumes the term's value. Filled on first ask.
    rows: HashMap<RuleTerm, Bits>,
}

impl<'a> CompiledPolicy<'a> {
    /// Compiles `policy` under `vocab`. Only the cardinality masks are
    /// built here; term rows follow on demand.
    pub fn new(policy: &'a Policy, vocab: &'a Vocabulary) -> Self {
        let rules = policy.rules();
        let words = rules.len().div_ceil(64);
        let max_cardinality = rules.iter().map(Rule::cardinality).max().unwrap_or(0);
        let mut by_cardinality = vec![vec![0u64; words].into_boxed_slice(); max_cardinality + 1];
        for (r, rule) in rules.iter().enumerate() {
            by_cardinality[rule.cardinality()][r / 64] |= 1 << (r % 64);
        }
        Self {
            rules,
            vocab,
            by_cardinality,
            rows: HashMap::new(),
        }
    }

    /// True iff some rule of the revision sanctions `g` — the same answer
    /// as `any(|r| r.expansion_contains(g, vocab))` over the policy.
    pub fn covers(&mut self, g: &GroundRule) -> bool {
        for term in g.terms() {
            if !self.rows.contains_key(term) {
                let row = self.row(term);
                self.rows.insert(term.clone(), row);
            }
        }
        let Some(mask) = self.by_cardinality.get(g.cardinality()) else {
            return false;
        };
        let rows: Vec<&[u64]> = g.terms().iter().map(|t| &*self.rows[t]).collect();
        mask.iter()
            .enumerate()
            .any(|(w, &m)| rows.iter().fold(m, |acc, row| acc & row[w]) != 0)
    }

    /// One verdict per distinct shape, in order: each shape is decided
    /// once per revision, however many entries carry it.
    pub fn verdicts<G: Borrow<GroundRule>>(&mut self, shapes: &[G]) -> Vec<bool> {
        shapes.iter().map(|g| self.covers(g.borrow())).collect()
    }

    fn row(&self, term: &RuleTerm) -> Bits {
        let mut bits = vec![0u64; self.rules.len().div_ceil(64)].into_boxed_slice();
        for (r, rule) in self.rules.iter().enumerate() {
            let subsumes = rule
                .terms()
                .iter()
                .find(|rt| rt.attr == term.attr)
                .is_some_and(|rt| rt.subsumes(term, self.vocab));
            if subsumes {
                bits[r / 64] |= 1 << (r % 64);
            }
        }
        bits
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
}
