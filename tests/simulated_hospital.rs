//! Integration tests on simulated hospital workloads: federation, the
//! refinement trajectory, miner agreement, and violation containment.

use prima::mining::{AprioriConfig, AprioriMiner, Miner, MinerConfig, SqlMiner};
use prima::refine::extract::practice_table;
use prima::refine::filter::filter;
use prima::system::{PrimaSystem, ReviewMode};
use prima::workload::scenario::score_patterns;
use prima::workload::sim::{entries, split_sites, SimConfig};
use prima::workload::Scenario;

fn trail(n: usize, seed: u64) -> Vec<prima::audit::AuditEntry> {
    let scenario = Scenario::community_hospital();
    entries(&scenario.simulator().generate(&SimConfig {
        seed,
        n_entries: n,
        ..SimConfig::default()
    }))
}

/// The default miner recovers every injected cluster, and nothing else, on
/// a realistic trail.
#[test]
fn miner_recovers_ground_truth_exactly() {
    let scenario = Scenario::community_hospital();
    let t = trail(20_000, 3);
    let practice = filter(&t);
    let table = practice_table(&practice);
    let patterns = SqlMiner::default().mine(&table).unwrap();
    let truth = scenario.ground_truth();
    let score = score_patterns(&patterns, &truth);
    assert_eq!(score.false_negatives, 0, "all clusters found: {patterns:?}");
    // f=5 on a 20k trail can admit a handful of violation coincidences;
    // precision must still be high.
    assert!(score.precision() > 0.4, "score {score:?}");
}

/// Apriori and the SQL miner agree on full-width patterns for real trails.
#[test]
fn miners_agree_on_simulated_trails() {
    let t = trail(10_000, 5);
    let practice = filter(&t);
    let table = practice_table(&practice);
    let f = practice.len() / 100;
    let sql = SqlMiner::new(MinerConfig {
        min_frequency: f,
        ..MinerConfig::default()
    })
    .mine(&table)
    .unwrap();
    let apriori = AprioriMiner::new(AprioriConfig {
        min_support: f,
        ..AprioriConfig::default()
    })
    .mine(&table)
    .unwrap();
    assert_eq!(sql, apriori);
    assert!(!sql.is_empty());
}

/// Splitting the trail over sites and federating is equivalent to one big
/// store, for both coverage and refinement.
#[test]
fn federation_is_transparent() {
    let scenario = Scenario::community_hospital();
    let sim = scenario.simulator();
    let labeled = sim.generate(&SimConfig {
        seed: 9,
        n_entries: 5_000,
        ..SimConfig::default()
    });

    // One store.
    let mut single = PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone());
    single
        .attach_store(prima::workload::sim::to_store(&labeled, "single"))
        .expect("unique source name");

    // Five federated sites.
    let mut federated = PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone());
    for s in split_sites(&labeled, 5) {
        federated.attach_store(s).expect("unique source name");
    }

    assert!((single.entry_coverage().ratio() - federated.entry_coverage().ratio()).abs() < 1e-12);
    let r1 = single.run_round(ReviewMode::AutoAccept).unwrap();
    let r2 = federated.run_round(ReviewMode::AutoAccept).unwrap();
    assert_eq!(r1.patterns_found, r2.patterns_found);
    assert_eq!(r1.rules_added, r2.rules_added);
    assert_eq!(single.policy(), federated.policy());
}

/// Violations raise the exception count but (at sane thresholds) do not
/// become policy — the floor of Figure 2.
#[test]
fn violations_are_not_absorbed() {
    let scenario = Scenario::community_hospital();
    let sim = scenario.simulator();
    let labeled = sim.generate(&SimConfig {
        seed: 21,
        n_entries: 20_000,
        violation_share: 0.03,
        ..SimConfig::default()
    });
    // Threshold scaled to the trail so violation scatter stays below it.
    let miner = SqlMiner::new(MinerConfig {
        min_frequency: 100,
        ..MinerConfig::default()
    });
    let mut system =
        PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone()).with_miner(miner);
    system
        .attach_store(prima::workload::sim::to_store(&labeled, "main"))
        .expect("unique source name");
    let record = system.run_round(ReviewMode::AutoAccept).unwrap();
    assert!(record.rules_added >= 3, "clusters absorbed");

    // Every accepted rule matches a ground-truth cluster.
    let truth = scenario.ground_truth();
    for c in system.review().candidates() {
        assert!(
            truth.contains(&c.pattern.rule),
            "accepted a non-cluster rule: {}",
            c.pattern.rule
        );
    }

    // Coverage after refinement stays below 1: violations remain exposed.
    let after = system.entry_coverage();
    assert!(after.ratio() < 1.0);
    assert!(after.ratio() > 0.9);
}
