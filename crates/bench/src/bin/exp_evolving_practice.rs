//! E10 — refinement as an *ongoing* process: practice drift.
//!
//! The paper stresses that refinement runs "at regular intervals or at the
//! request of the stakeholders" — a feedback loop, not a one-shot
//! migration. This experiment makes the case quantitatively: after the
//! initial gap is closed, a **new** informal workflow emerges mid-stream
//! (a ward starts a new triage procedure in round 5). Coverage dips the
//! moment practice drifts, the next refinement round absorbs it, and
//! coverage recovers — the sawtooth a one-shot policy cleanup could never
//! produce.

use prima_audit::AuditStore;
use prima_bench::{banner, render_table};
use prima_core::{PrimaSystem, ReviewMode};
use prima_mining::{MinerConfig, SqlMiner};
use prima_workload::sim::{entries, SimConfig, Simulator};
use prima_workload::{PracticeCluster, Scenario};

fn main() {
    let scenario = Scenario::community_hospital();
    let emerging = PracticeCluster::new("vitals", "scheduling", "midwife").with_weight(4.0);
    let rounds = 9usize;
    let entries_per_round = 20_000usize;
    let informal_rate_per_cluster = 0.03; // share of trail per open cluster

    banner("E10: coverage under practice drift (new workflow at round 5)");
    let mut policy = scenario.policy.clone();
    let mut rows = Vec::new();

    for round in 1..=rounds {
        // Open clusters: base ones not yet absorbed, plus the emerging one
        // from round 5.
        let mut open: Vec<PracticeCluster> = scenario
            .clusters
            .iter()
            .filter(|c| {
                !policy
                    .rules()
                    .iter()
                    .any(|r| r.expansion_contains(&c.to_ground_rule(), &scenario.vocab))
            })
            .cloned()
            .collect();
        if round >= 5 {
            let g = emerging.to_ground_rule();
            if !policy
                .rules()
                .iter()
                .any(|r| r.expansion_contains(&g, &scenario.vocab))
            {
                open.push(emerging.clone());
            }
        }
        let informal_share = informal_rate_per_cluster * open.len() as f64;

        let sim = Simulator::new(scenario.vocab.clone(), policy.clone(), open.clone());
        let trail = entries(&sim.generate(&SimConfig {
            seed: 60 + round as u64,
            n_entries: entries_per_round,
            informal_share,
            violation_share: 0.01,
            ..SimConfig::default()
        }));

        let f = ((informal_share + 0.01) * entries_per_round as f64 * 0.05) as usize;
        let miner = SqlMiner::new(MinerConfig {
            min_frequency: f.max(5),
            ..MinerConfig::default()
        });
        let mut system = PrimaSystem::new(scenario.vocab.clone(), policy.clone()).with_miner(miner);
        let store = AuditStore::new(&format!("round-{round}"));
        store.append_all(&trail).expect("simulated entries conform");
        system.attach_store(store).expect("unique source name");

        let coverage = system.entry_coverage().ratio();
        let record = system
            .run_round(ReviewMode::AutoAccept)
            .expect("round mines cleanly");
        policy = system.policy().clone();

        rows.push(vec![
            round.to_string(),
            format!("{:.1}%", coverage * 100.0),
            open.len().to_string(),
            record.rules_added.to_string(),
            if round == 5 {
                "<- new workflow emerges"
            } else {
                ""
            }
            .to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["round", "coverage", "open workflows", "rules added", ""],
            &rows
        )
    );
    println!(
        "shape: gap closes, practice drifts (dip at round 5), the loop re-closes it — \
         refinement must be continuous, exactly as the paper argues."
    );
}
