//! E8 — the Section 5 future-work comparison: the simple SQL group-by
//! miner vs the frequent-pattern miner of reference \[18\] (Apriori).
//!
//! Expected shape:
//!
//! * on full-width patterns the two miners agree exactly, and a round's
//!   hash group-by over a store's tally (`SqlMiner::mine_tally`) returns
//!   what the SQL returns;
//! * Apriori additionally surfaces partial (pair-level) correlations the
//!   fixed GROUP BY cannot see — "correlations between attribute pairs
//!   that are not discovered by simple SQL queries";
//! * Apriori pays for that with higher runtime, growing with the lattice.

use prima_audit::{AuditStore, Tally};
use prima_bench::{banner, render_table, timed};
use prima_mining::{AprioriConfig, AprioriMiner, Miner, MinerConfig, SqlMiner};
use prima_refine::extract::practice_table;
use prima_refine::filter::filter;
use prima_workload::sim::{entries, PracticeCluster, SimConfig, Simulator};
use prima_workload::Scenario;

fn main() {
    let mut scenario = Scenario::community_hospital();
    // Add a *scattered* informal family: nurses touch x-ray data for many
    // different purposes. No single (data, purpose, authorized) triple is
    // frequent, but the (data=x-ray, authorized=nurse) pair is — exactly
    // the correlation the paper says simple SQL misses.
    for purpose in ["scheduling", "discharge", "billing", "audit-review"] {
        scenario
            .clusters
            .push(PracticeCluster::new("x-ray", purpose, "nurse").with_weight(0.4));
    }
    let sim = Simulator::new(
        scenario.vocab.clone(),
        scenario.policy.clone(),
        scenario.clusters.clone(),
    );

    banner("E8: SQL group-by miner vs Apriori (reference [18])");
    let mut rows = Vec::new();
    for n in [2_000usize, 10_000, 50_000] {
        let config = SimConfig {
            seed: 31,
            n_entries: n,
            ..SimConfig::default()
        };
        let trail = entries(&sim.generate(&config));
        let practice = filter(&trail);
        let table = practice_table(&practice);

        let f = (practice.len() / 100).max(5);
        let sql = SqlMiner::new(MinerConfig {
            min_frequency: f,
            ..MinerConfig::default()
        });
        let apriori = AprioriMiner::new(AprioriConfig {
            min_support: f,
            ..AprioriConfig::default()
        });

        let (sql_patterns, t_sql) = timed(|| sql.mine(&table).expect("columns exist"));
        let store = AuditStore::new("e8");
        store
            .append_all(&trail)
            .expect("simulated entries are projectable");
        let (tally_patterns, t_tally) = timed(|| {
            sql.mine_tally(&Tally::merge([store.tally(None)]))
                .expect("default attributes")
        });
        let (ap_patterns, t_ap) = timed(|| apriori.mine(&table).expect("columns exist"));
        let (itemsets, t_lattice) =
            timed(|| apriori.frequent_itemsets(&table).expect("columns exist"));
        let partial = itemsets.iter().filter(|fi| fi.len() < 3).count();

        assert_eq!(
            sql_patterns, ap_patterns,
            "miners must agree on full-width patterns"
        );
        assert_eq!(
            sql_patterns, tally_patterns,
            "the round's group-by must return what the SQL returns"
        );

        rows.push(vec![
            n.to_string(),
            f.to_string(),
            sql_patterns.len().to_string(),
            ap_patterns.len().to_string(),
            partial.to_string(),
            format!("{t_sql:.1}"),
            format!("{t_tally:.2}"),
            format!("{t_ap:.1}"),
            format!("{t_lattice:.1}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "entries",
                "f",
                "sql full-width",
                "apriori full-width",
                "apriori partial itemsets",
                "sql (ms)",
                "scan + group-by (ms)",
                "apriori full (ms)",
                "apriori lattice (ms)"
            ],
            &rows
        )
    );

    banner("The pair the SQL miner cannot see");
    let config = SimConfig {
        seed: 31,
        n_entries: 50_000,
        ..SimConfig::default()
    };
    let trail = entries(&sim.generate(&config));
    let practice = filter(&trail);
    let table = practice_table(&practice);
    let f = practice.len() / 100;
    let apriori = AprioriMiner::new(AprioriConfig {
        min_support: f,
        ..AprioriConfig::default()
    });
    let itemsets = apriori.frequent_itemsets(&table).expect("columns exist");
    let xray_nurse = itemsets.iter().find(|fi| {
        fi.items
            == vec![
                ("authorized".to_string(), "nurse".to_string()),
                ("data".to_string(), "x-ray".to_string()),
            ]
    });
    match xray_nurse {
        Some(fi) => println!(
            "  (data=x-ray, authorized=nurse) support {} — frequent as a pair, scattered over purposes",
            fi.support
        ),
        None => println!("  pair not found at f={f} (raise the scattered-cluster weights)"),
    }
    let rules = apriori.association_rules(&itemsets, 0.8);
    println!("  association rules at confidence >= 0.8: {}", rules.len());
    for r in rules.iter().take(5) {
        println!(
            "    {:?} => {:?} (support {}, confidence {:.2})",
            r.antecedent, r.consequent, r.support, r.confidence
        );
    }
    println!(
        "\nshape: Apriori ⊇ SQL on full width, surfaces pair-level correlations, costs more time."
    );
}
