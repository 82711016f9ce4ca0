//! [`CompiledPolicy`] — one policy revision compiled into bit-vector rows,
//! so asking which rules subsume a rule or an access shape (Definition 6's
//! question) costs a few word ANDs instead of a scan of string-resolving
//! subsumption tests.
//!
//! This is the bit-vector classifier of Lakshman & Stiliadis (SIGCOMM
//! 1998) over the paper's rule terms, built whole at compile. Each rule
//! term sets the rule's bit in the exact row of the concept it names (or,
//! for a value the vocabulary does not know, of its name), and one
//! parent-first pass closes the rows, `closed[c] = closed[parent] |
//! exact[c]`: bit `r` of a concept's row is set iff rule `r`'s value on
//! that attribute is the concept or an ancestor, which is
//! [`Vocabulary::value_subsumes`]. Rows are keyed by canonical name, and a
//! name with no row reads as empty; taxonomies have no aliases, so the
//! table keeps neither the vocabulary nor the rules.
//!
//! [`CompiledPolicy::subsumers`] ANDs a rule's term rows with the mask of
//! rules of its cardinality: the rows force every attribute of the rule
//! into a subsumer's signature, and equal cardinality makes the two
//! signatures equal, which is exactly [`crate::rule_subsumes`] (and, for a
//! ground rule, [`Rule::expansion_contains`]). Batch coverage, Prune,
//! compaction, the analyzer and both Active Enforcement middlewares ask
//! this one query, through `&self`, so a compiled revision can be shared
//! across threads. [`CompiledPolicy::covers`] asks it without allocating,
//! word by word with an early exit; a caller that decides many shapes
//! over a few terms resolves each term's row once
//! ([`CompiledPolicy::term_row`]) and decides each shape from its rows
//! ([`CompiledPolicy::covers_rows`]), hashing nothing per shape.

use crate::ground::GroundRule;
use crate::policy::Policy;
use crate::rule::Rule;
use crate::term::RuleTerm;
use prima_vocab::{normalize, ConceptId, Vocabulary, ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

/// A bit per rule of the compiled revision.
type Bits = Box<[u64]>;

/// Terms a [`CompiledPolicy::covers`] query resolves on the stack; a
/// ground rule with more terms (a vocabulary of more attributes) is
/// decided through [`CompiledPolicy::subsumers`].
const INLINE_TERMS: usize = 8;

/// One policy revision compiled for subsumption queries: each distinct
/// access shape is decided, and each rule's subsumers are found, by bitset
/// intersection.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    /// Words per row: one bit per rule.
    words: usize,
    /// `by_cardinality[c]` has bit `r` set iff rule `r` has `c` terms.
    by_cardinality: Vec<Bits>,
    /// The rows, `words` apiece, numbered in a fixed order: row 0 is
    /// empty, then the rows of out-of-vocabulary values in first-seen rule
    /// order, then the closed concept rows by attribute and parent-first.
    rows: Vec<u64>,
    /// Per `(attribute, value name)`: the row with bit `r` set iff rule
    /// `r`'s term on that attribute subsumes the value.
    row_of: HashMap<RuleTerm, u32>,
}

/// A row of one [`CompiledPolicy`], resolved once by
/// [`CompiledPolicy::term_row`] and then ANDed by
/// [`CompiledPolicy::covers_rows`] without hashing. It names a row of the
/// table that resolved it only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermRow(u32);

impl TermRow {
    /// The empty row: no rule's term subsumes the value.
    const EMPTY: Self = Self(0);
}

impl CompiledPolicy {
    /// Compiles `policy` under `vocab`: every rule term is resolved once,
    /// and every closed row and cardinality mask is built.
    pub fn new(policy: &Policy, vocab: &Vocabulary) -> Self {
        let rules = policy.rules();
        let words = rules.len().div_ceil(64);
        let zeroed = || vec![0u64; words].into_boxed_slice();
        let max_cardinality = rules.iter().map(Rule::cardinality).max().unwrap_or(0);
        let mut table = Self {
            words,
            by_cardinality: vec![zeroed(); max_cardinality + 1],
            rows: vec![0; words],
            row_of: HashMap::new(),
        };
        // Per attribute, the exact rows of the concepts the rules name.
        let mut named: BTreeMap<&str, HashMap<ConceptId, Bits>> = BTreeMap::new();
        for (r, rule) in rules.iter().enumerate() {
            let (word, bit) = (r / 64, 1 << (r % 64));
            table.by_cardinality[rule.cardinality()][word] |= bit;
            for term in rule.terms() {
                match vocab.resolve(&term.attr, &term.value) {
                    Some(id) => {
                        named
                            .entry(&term.attr)
                            .or_default()
                            .entry(id)
                            .or_insert_with(zeroed)[word] |= bit;
                    }
                    None => {
                        let (attr, value) = (term.attr.clone(), normalize(&term.value));
                        let row = table.row_for(RuleTerm { attr, value });
                        table.rows[row * words + word] |= bit;
                    }
                }
            }
        }
        for (attr, exact) in named {
            let Some(taxonomy) = vocab.attribute(attr) else {
                continue;
            };
            // closed[c] = closed[parent] | exact[c], parent-first from the
            // roots; a concept with no named ancestor-or-self gets no row.
            let mut stack: Vec<(ConceptId, Option<Bits>)> = taxonomy
                .roots()
                .iter()
                .rev()
                .map(|&root| (root, None))
                .collect();
            while let Some((id, inherited)) = stack.pop() {
                let row = match (inherited, exact.get(&id)) {
                    (Some(mut row), Some(own)) => {
                        row.iter_mut().zip(own.iter()).for_each(|(w, b)| *w |= b);
                        Some(row)
                    }
                    (row, own) => row.or_else(|| own.cloned()),
                };
                let concept = taxonomy.concept(id);
                stack.extend(concept.children.iter().rev().map(|&c| (c, row.clone())));
                if let Some(row) = row {
                    let at = table.row_for(RuleTerm {
                        attr: attr.to_string(),
                        value: concept.name.clone(),
                    });
                    table.rows[at * words..(at + 1) * words].copy_from_slice(&row);
                }
            }
        }
        table
    }

    /// The number of `term`'s row, added empty if it has none yet.
    fn row_for(&mut self, term: RuleTerm) -> usize {
        let next =
            u32::try_from(self.rows.len() / self.words).expect("fewer than 2^32 rows are compiled");
        let row = *self.row_of.entry(term).or_insert(next);
        if row == next {
            self.rows.resize(self.rows.len() + self.words, 0);
        }
        row as usize
    }

    fn row(&self, row: TermRow) -> &[u64] {
        let start = row.0 as usize * self.words;
        &self.rows[start..start + self.words]
    }

    /// The row of `term`: bit `r` set iff rule `r`'s term on `term`'s
    /// attribute subsumes `term`'s value. A term no rule's term subsumes
    /// has the empty row.
    pub fn term_row(&self, term: &RuleTerm) -> TermRow {
        self.row_of
            .get(term)
            .map_or(TermRow::EMPTY, |&row| TermRow(row))
    }

    /// True iff some rule of the revision subsumes a ground rule whose
    /// terms have these rows, one per term: the AND of the rows and the
    /// mask of rules with as many terms, word by word, stopping at the
    /// first word with a rule left.
    pub fn covers_rows(&self, rows: &[TermRow]) -> bool {
        let Some(mask) = self.by_cardinality.get(rows.len()) else {
            return false;
        };
        mask.iter().enumerate().any(|(w, &word)| {
            rows.iter().fold(word, |bits, &row| {
                bits & self.rows[row.0 as usize * self.words + w]
            }) != 0
        })
    }

    /// The rules of the revision that subsume a rule or ground rule with
    /// these (attribute-sorted, one per attribute) terms: bit `r` is set
    /// iff `rule_subsumes(rules[r], terms)`. A rule of the revision is
    /// among its own subsumers.
    pub fn subsumers(&self, terms: &[RuleTerm]) -> Subsumers {
        let Some(mask) = self.by_cardinality.get(terms.len()) else {
            return Subsumers(Box::default());
        };
        let mut bits = mask.clone();
        for term in terms {
            let row = self.row(self.term_row(term));
            bits.iter_mut().zip(row).for_each(|(b, r)| *b &= r);
        }
        Subsumers(bits)
    }

    /// True iff some rule of the revision sanctions `g` — the same answer
    /// as `any(|r| r.expansion_contains(g, vocab))` over the policy. Each
    /// term's row is looked up once, and nothing is allocated.
    pub fn covers(&self, g: &GroundRule) -> bool {
        let terms = g.terms();
        if terms.len() > INLINE_TERMS {
            return !self.subsumers(terms).is_empty();
        }
        let mut rows = [TermRow::EMPTY; INLINE_TERMS];
        for (row, term) in rows.iter_mut().zip(terms) {
            *row = self.term_row(term);
            if *row == TermRow::EMPTY {
                return false;
            }
        }
        self.covers_rows(&rows[..terms.len()])
    }

    /// Active Enforcement's question: does the revision sanction the
    /// access `(data, purpose, authorized)`? The fields are normalized as
    /// [`RuleTerm::new`] does, and a field that is blank after that fails
    /// closed: no rule can sanction it.
    pub fn allows(&self, data: &str, purpose: &str, authorized: &str) -> bool {
        [
            (ATTR_DATA, data),
            (ATTR_PURPOSE, purpose),
            (ATTR_AUTHORIZED, authorized),
        ]
        .into_iter()
        .map(|(attr, value)| RuleTerm::new(attr, value))
        .collect::<Result<Vec<_>, _>>()
        .and_then(GroundRule::new)
        .is_ok_and(|probe| self.covers(&probe))
    }

    /// One verdict per distinct shape, in order: each shape is decided
    /// once per revision, however many entries carry it.
    pub fn verdicts<G: Borrow<GroundRule>>(&self, shapes: &[G]) -> Vec<bool> {
        shapes.iter().map(|g| self.covers(g.borrow())).collect()
    }

    /// The lowest rule other than rule `i` of `rules`, the rules the table
    /// was compiled from, that subsumes it, if any. An identical rule
    /// counts only when it comes earlier, so of two copies only the later
    /// one is shadowed. The analyzer's `PA001` and
    /// [`crate::simplify_policy`] both decide with this.
    pub fn shadowed_by(&self, rules: &[Rule], i: usize) -> Option<usize> {
        self.subsumers(rules[i].terms())
            .iter()
            .find(|&j| j < i || (j > i && rules[j] != rules[i]))
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
        let compiled = CompiledPolicy::new(&ps, &v);
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
        let compiled = CompiledPolicy::new(&policy, &v);
        assert!(compiled.covers(&GroundRule::of(&[
            ("data", "address"),
            ("purpose", "billing")
        ])));
        // A wider shape passes both rows but not the two-term mask, and a
        // narrower one has no mask row at all.
        assert!(!compiled.covers(&ground("address", "billing", "clerk")));
        assert!(!compiled.covers(&GroundRule::of(&[("data", "address")])));
        let empty = Policy::new(StoreTag::PolicyStore);
        let none = CompiledPolicy::new(&empty, &v);
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
        let compiled = CompiledPolicy::new(&policy, &v);
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
        let compiled = CompiledPolicy::new(&policy, &v);
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
        let compiled = CompiledPolicy::new(&policy, &v);
        let rules = policy.rules();
        let of = |i: usize| -> Vec<usize> { compiled.subsumers(rules[i].terms()).iter().collect() };
        assert_eq!(of(0), vec![0]);
        assert_eq!(of(1), vec![0, 1, 2]);
        assert_eq!(of(3), vec![3]);
        // The umbrella shadows the narrow rule; of two copies the later is
        // shadowed, and by the umbrella, the lowest other subsumer.
        assert_eq!(compiled.shadowed_by(rules, 0), None);
        assert_eq!(compiled.shadowed_by(rules, 1), Some(0));
        assert_eq!(compiled.shadowed_by(rules, 2), Some(0));
        assert_eq!(compiled.shadowed_by(rules, 3), None);
    }

    #[test]
    fn an_identical_rule_shadows_only_a_later_copy() {
        let v = figure_1();
        let r = Rule::of(&[("data", "free-text-blob"), ("authorized", "nurse")]);
        let policy = Policy::with_rules(StoreTag::PolicyStore, vec![r.clone(), r]);
        let compiled = CompiledPolicy::new(&policy, &v);
        let rules = policy.rules();
        assert_eq!(compiled.shadowed_by(rules, 0), None);
        assert_eq!(compiled.shadowed_by(rules, 1), Some(0));
        assert!(compiled.subsumers(&[]).is_empty());
    }
}
