//! Property-based tests for the miners.

use prima_audit::{audit_schema, AuditEntry};
use prima_mining::{AprioriConfig, AprioriMiner, Miner, MinerConfig, SqlMiner};
use prima_store::Table;
use proptest::prelude::*;
use std::collections::HashMap;

/// Random practice tables (exception entries over small domains).
fn arb_practice() -> impl Strategy<Value = Table> {
    let entry = (0..5usize, 0..4usize, 0..3usize, 0..3usize);
    collection::vec(entry, 0..80).prop_map(|rows| {
        let mut t = Table::new("practice", audit_schema());
        for (i, (u, d, p, a)) in rows.into_iter().enumerate() {
            let e = AuditEntry::exception(
                i as i64,
                &format!("u{u}"),
                &format!("d{d}"),
                &format!("p{p}"),
                &format!("a{a}"),
            );
            t.insert(e.to_row()).expect("audit entry conforms");
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two miners agree on full-width patterns for any table and
    /// matching thresholds.
    #[test]
    fn sql_and_apriori_agree(t in arb_practice(), f in 1usize..8) {
        let sql = SqlMiner::new(MinerConfig {
            min_frequency: f,
            ..MinerConfig::default()
        })
        .mine(&t)
        .unwrap();
        let apriori = AprioriMiner::new(AprioriConfig {
            min_support: f,
            ..AprioriConfig::default()
        })
        .mine(&t)
        .unwrap();
        prop_assert_eq!(sql, apriori);
    }

    /// Raising the threshold can only shrink the pattern set (anti-
    /// monotonicity of support).
    #[test]
    fn higher_threshold_mines_subset(t in arb_practice(), f in 1usize..6) {
        let low = SqlMiner::new(MinerConfig {
            min_frequency: f,
            ..MinerConfig::default()
        })
        .mine(&t)
        .unwrap();
        let high = SqlMiner::new(MinerConfig {
            min_frequency: f + 2,
            ..MinerConfig::default()
        })
        .mine(&t)
        .unwrap();
        prop_assert!(high.len() <= low.len());
        for p in &high {
            prop_assert!(low.iter().any(|q| q.rule == p.rule));
        }
    }

    /// Mined supports are ground truth: recounting entries matches.
    #[test]
    fn supports_are_exact(t in arb_practice()) {
        let patterns = SqlMiner::new(MinerConfig {
            min_frequency: 1,
            min_distinct_users: 0,
            ..MinerConfig::default()
        })
        .mine(&t)
        .unwrap();
        // Recount by hand.
        let mut counts: HashMap<(String, String, String), usize> = HashMap::new();
        let col = |row: &prima_store::Row, name: &str| -> String {
            let i = t.schema().index_of(name).unwrap();
            row.get(i).as_str().unwrap().to_string()
        };
        for row in t.scan() {
            *counts
                .entry((col(row, "data"), col(row, "purpose"), col(row, "authorized")))
                .or_default() += 1;
        }
        prop_assert_eq!(patterns.len(), counts.len());
        for p in &patterns {
            let key = (
                p.rule.value_of("data").unwrap().to_string(),
                p.rule.value_of("purpose").unwrap().to_string(),
                p.rule.value_of("authorized").unwrap().to_string(),
            );
            prop_assert_eq!(p.support, counts[&key]);
        }
        // And they sum to the table size.
        let total: usize = patterns.iter().map(|p| p.support).sum();
        prop_assert_eq!(total, t.len());
    }

    /// Downward closure: every subset of a frequent itemset is frequent
    /// with at least the superset's support.
    #[test]
    fn apriori_downward_closure(t in arb_practice(), f in 1usize..6) {
        let miner = AprioriMiner::new(AprioriConfig {
            min_support: f,
            ..AprioriConfig::default()
        });
        let itemsets = miner.frequent_itemsets(&t).unwrap();
        let support: HashMap<&[(String, String)], usize> = itemsets
            .iter()
            .map(|fi| (fi.items.as_slice(), fi.support))
            .collect();
        for fi in itemsets.iter().filter(|fi| fi.len() >= 2) {
            for drop in 0..fi.len() {
                let mut sub = fi.items.clone();
                sub.remove(drop);
                let sub_support = support.get(sub.as_slice());
                prop_assert!(
                    sub_support.is_some(),
                    "subset {sub:?} of frequent {fi:?} missing"
                );
                prop_assert!(*sub_support.unwrap() >= fi.support);
            }
        }
    }

    /// Association rules have confidence in (0, 1] and support ≥ the
    /// threshold; confidence 1 rules are exact implications.
    #[test]
    fn association_rule_bounds(t in arb_practice(), f in 1usize..5) {
        let miner = AprioriMiner::new(AprioriConfig {
            min_support: f,
            ..AprioriConfig::default()
        });
        let itemsets = miner.frequent_itemsets(&t).unwrap();
        let rules = miner.association_rules(&itemsets, 0.0);
        for r in &rules {
            prop_assert!(r.confidence > 0.0 && r.confidence <= 1.0);
            prop_assert!(r.support >= f);
            prop_assert!(!r.antecedent.is_empty() && !r.consequent.is_empty());
        }
        // Raising min_confidence filters monotonically.
        let strict = miner.association_rules(&itemsets, 0.9);
        prop_assert!(strict.len() <= rules.len());
    }
}
