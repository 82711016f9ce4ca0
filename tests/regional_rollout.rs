//! Integration test: a staged regional rollout — windowed refinement over
//! a federated network, one training period after another (the
//! operational shape a real deployment would take).

use prima::audit::TrainingWindow;
use prima::mining::{MinerConfig, SqlMiner};
use prima::system::{PrimaSystem, ReviewMode};
use prima::workload::sim::{split_sites, SimConfig};
use prima::workload::Scenario;

#[test]
fn staged_rollout_with_windows_and_snapshots() {
    let scenario = Scenario::regional_network();
    let sim = scenario.simulator();

    // One quarter of operation, spread over four sites. Period length is
    // driven by the simulator's mean gap (default 30 s → ~60k seconds for
    // 20k entries).
    let labeled = sim.generate(&SimConfig {
        seed: 44,
        n_entries: 20_000,
        ..SimConfig::default()
    });
    let last_time = labeled.last().expect("non-empty trail").entry.time;

    let miner = SqlMiner::new(MinerConfig {
        min_frequency: 30,
        ..MinerConfig::default()
    });
    let mut system =
        PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone()).with_miner(miner);
    for store in split_sites(&labeled, 4) {
        system.attach_store(store).expect("unique source name");
    }

    // Period 1: refine over the first half only.
    let half = TrainingWindow::new(0, last_time / 2);
    let first = system
        .run_round_windowed(half, ReviewMode::AutoAccept)
        .expect("first period mines cleanly");
    assert!(
        first.rules_added >= 3,
        "dominant clusters absorbed: {first:?}"
    );
    assert!(
        first.audit_entries < 20_000,
        "window must truncate the trail"
    );

    // Period 2: refine over the second half.
    let rest = TrainingWindow::new(last_time / 2, last_time + 1);
    let second = system
        .run_round_windowed(rest, ReviewMode::AutoAccept)
        .expect("second period mines cleanly");

    // Rules accepted in period 1 are already policy: period 2 must not
    // re-add them, and coverage over the second period reflects the
    // period-1 refinement.
    assert!(second.entry_coverage_before > first.entry_coverage_before);
    let final_policy = system.policy().cardinality();
    assert!(final_policy >= scenario.policy.cardinality() + first.rules_added);

    // History spans both periods.
    assert_eq!(system.history().len(), 2);
    assert_eq!(system.history()[0].round, 1);
    assert_eq!(system.history()[1].round, 2);
}
