//! [`RangeSet`] — Definition 8: the set of all ground rules derivable from a
//! policy (`P_x'`), with the set operations the paper's algorithms use.
//!
//! Algorithm 1 intersects ranges; Algorithm 6 (`Prune`) takes the "set
//! complement" of ranges. Two intersection implementations are provided —
//! hash-probe and sort-merge — as the ablation called out in `DESIGN.md` §6.

use crate::error::ModelError;
use crate::ground::GroundRule;
use crate::policy::Policy;
use prima_vocab::Vocabulary;
use std::collections::HashSet;

/// Default ceiling on materialized range size. Generous enough for every
/// workload in the experiment suite; tripped only by deliberately explosive
/// synthetic policies (E9), which should use the lazy engine instead.
pub const DEFAULT_RANGE_BUDGET: usize = 10_000_000;

/// A materialized range: the deduplicated set of ground rules derivable from
/// a policy under a vocabulary (Definition 8).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    rules: HashSet<GroundRule>,
}

impl RangeSet {
    /// The paper's `getRange(P, V)`: materializes the range of `policy`
    /// under `vocab` with the [`DEFAULT_RANGE_BUDGET`].
    pub fn of_policy(policy: &Policy, vocab: &Vocabulary) -> Result<Self, ModelError> {
        Self::of_policy_bounded(policy, vocab, DEFAULT_RANGE_BUDGET)
    }

    /// As [`RangeSet::of_policy`] with an explicit budget on the number of
    /// ground rules. The pre-expansion estimate is checked first so an
    /// explosive policy fails fast instead of allocating for minutes.
    pub fn of_policy_bounded(
        policy: &Policy,
        vocab: &Vocabulary,
        budget: usize,
    ) -> Result<Self, ModelError> {
        let estimated = policy.expansion_size(vocab);
        if estimated > budget as u128 {
            return Err(ModelError::RangeExplosion {
                limit: budget,
                estimated,
            });
        }
        let mut rules = HashSet::with_capacity(estimated.min(1 << 20) as usize);
        for rule in policy.rules() {
            for g in rule.ground_expansion(vocab) {
                rules.insert(g);
            }
        }
        Ok(Self { rules })
    }

    /// Builds a range directly from ground rules (used for pattern sets in
    /// `Prune`, which are already ground).
    pub fn from_ground_rules<I: IntoIterator<Item = GroundRule>>(rules: I) -> Self {
        Self {
            rules: rules.into_iter().collect(),
        }
    }

    /// `#Range_{P_x}` — the cardinality of the range.
    pub fn cardinality(&self) -> usize {
        self.rules.len()
    }

    /// True iff the range holds no ground rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Membership test (rule equivalence on ground rules is canonical
    /// equality; see [`GroundRule`]).
    pub fn contains(&self, g: &GroundRule) -> bool {
        self.rules.contains(g)
    }

    /// Iterates the ground rules in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &GroundRule> {
        self.rules.iter()
    }

    /// Iterates the ground rules in canonical sorted order (deterministic
    /// output for reports and experiments).
    pub fn iter_sorted(&self) -> impl Iterator<Item = &GroundRule> {
        let mut v: Vec<&GroundRule> = self.rules.iter().collect();
        v.sort();
        v.into_iter()
    }

    /// Hash-probe intersection: probes the smaller set against the larger.
    pub fn intersect(&self, other: &RangeSet) -> RangeSet {
        let (small, large) = if self.cardinality() <= other.cardinality() {
            (self, other)
        } else {
            (other, self)
        };
        RangeSet {
            rules: small
                .rules
                .iter()
                .filter(|g| large.rules.contains(*g))
                .cloned()
                .collect(),
        }
    }

    /// Sort-merge intersection (ablation partner of [`RangeSet::intersect`];
    /// identical result, different cost profile — see `exp_range_explosion`).
    pub fn intersect_sorted(&self, other: &RangeSet) -> RangeSet {
        let mut a: Vec<&GroundRule> = self.rules.iter().collect();
        let mut b: Vec<&GroundRule> = other.rules.iter().collect();
        a.sort();
        b.sort();
        let mut out = HashSet::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.insert(a[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        RangeSet { rules: out }
    }

    /// Set difference `self \ other` — the pseudocode's `getComplement`
    /// in Algorithm 6, which keeps the patterns *not* covered by the policy
    /// store's range.
    pub fn difference(&self, other: &RangeSet) -> RangeSet {
        RangeSet {
            rules: self
                .rules
                .iter()
                .filter(|g| !other.rules.contains(*g))
                .cloned()
                .collect(),
        }
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(&self, other: &RangeSet) -> bool {
        self.rules.is_subset(&other.rules)
    }
}

impl FromIterator<GroundRule> for RangeSet {
    fn from_iter<T: IntoIterator<Item = GroundRule>>(iter: T) -> Self {
        Self::from_ground_rules(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StoreTag;
    use crate::rule::Rule;
    use prima_vocab::samples::figure_1;

    fn range_of(rules: Vec<Rule>) -> RangeSet {
        let v = figure_1();
        let p = Policy::with_rules(StoreTag::PolicyStore, rules);
        RangeSet::of_policy(&p, &v).unwrap()
    }

    #[test]
    fn range_of_composite_rule_expands() {
        let r = range_of(vec![Rule::of(&[
            ("data", "demographic"),
            ("purpose", "billing"),
            ("authorized", "clerk"),
        ])]);
        assert_eq!(r.cardinality(), 4);
        assert!(r.contains(&GroundRule::of(&[
            ("data", "address"),
            ("purpose", "billing"),
            ("authorized", "clerk"),
        ])));
    }

    #[test]
    fn overlapping_rules_dedup_in_range() {
        // demographic ⊇ address, so the second rule adds nothing.
        let r = range_of(vec![
            Rule::of(&[("data", "demographic")]),
            Rule::of(&[("data", "address")]),
        ]);
        assert_eq!(r.cardinality(), 4);
    }

    #[test]
    fn budget_trips_on_explosion() {
        let v = figure_1();
        let p = Policy::with_rules(
            StoreTag::PolicyStore,
            vec![Rule::of(&[("data", "demographic")])],
        );
        let err = RangeSet::of_policy_bounded(&p, &v, 3).unwrap_err();
        assert_eq!(
            err,
            ModelError::RangeExplosion {
                limit: 3,
                estimated: 4
            }
        );
    }

    #[test]
    fn intersections_agree() {
        let a = range_of(vec![Rule::of(&[("data", "demographic")])]);
        let b = range_of(vec![
            Rule::of(&[("data", "address")]),
            Rule::of(&[("data", "insurance")]),
        ]);
        let h = a.intersect(&b);
        let s = a.intersect_sorted(&b);
        assert_eq!(h, s);
        assert_eq!(h.cardinality(), 1);
        assert!(h.contains(&GroundRule::of(&[("data", "address")])));
    }

    #[test]
    fn difference_is_prunes_complement() {
        let patterns = RangeSet::from_ground_rules(vec![
            GroundRule::of(&[("data", "address")]),
            GroundRule::of(&[("data", "psychiatry")]),
        ]);
        let ps_range = range_of(vec![Rule::of(&[("data", "demographic")])]);
        let useful = patterns.difference(&ps_range);
        assert_eq!(useful.cardinality(), 1);
        assert!(useful.contains(&GroundRule::of(&[("data", "psychiatry")])));
    }

    #[test]
    fn subset() {
        let a = RangeSet::from_ground_rules(vec![GroundRule::of(&[("data", "gender")])]);
        let u = RangeSet::from_ground_rules(vec![
            GroundRule::of(&[("data", "gender")]),
            GroundRule::of(&[("data", "address")]),
        ]);
        assert!(a.is_subset(&u));
        assert!(!u.is_subset(&a));
    }

    #[test]
    fn iter_sorted_is_deterministic() {
        let r = range_of(vec![Rule::of(&[("data", "demographic")])]);
        let a: Vec<String> = r.iter_sorted().map(|g| g.to_string()).collect();
        let b: Vec<String> = r.iter_sorted().map(|g| g.to_string()).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
    }

    #[test]
    fn empty_policy_has_empty_range() {
        let v = figure_1();
        let p = Policy::new(StoreTag::PolicyStore);
        let r = RangeSet::of_policy(&p, &v).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.cardinality(), 0);
    }
}
