//! The `pipeline` suite: one fully instrumented refinement round over a
//! four-site federated trail, with its per-stage latency profile and
//! round throughput (the `BENCH_pipeline.json` shape). The suite has no
//! smoke preset: its one round takes milliseconds. E5
//! (`exp_fig4_pipeline`) runs the same round at several trail lengths.

use crate::report::{stage_profiles, Gate, Measured};
use prima_core::{PrimaSystem, ReviewMode, SystemObs};
use prima_obs::PipelineReport;
use prima_workload::sim::{split_sites, SimConfig};
use prima_workload::Scenario;
use serde::{Serialize, Value};
use std::time::Instant;

/// Trail length of the suite's round, in entries.
pub const TRAIL_ENTRIES: usize = 10_000;
/// Simulator seed of the round's trail.
const SEED: u64 = 19;
/// Sites the trail is split across (one audit store each).
const SITES: usize = 4;

/// What one instrumented round measured.
#[derive(Debug, Clone, Serialize)]
pub struct RoundReport {
    /// Simulated trail length in entries.
    #[serde(skip)]
    pub trail_entries: usize,
    /// Wall-clock seconds of the round.
    pub round_seconds: f64,
    /// Trail entries over round seconds.
    pub entries_per_sec: f64,
    /// Entry coverage after the round's auto-accepted rules.
    pub coverage_after: f64,
    /// Every round stage recorded at least one observation.
    pub all_stages_observed: bool,
    /// The round's per-stage latency profile.
    #[serde(skip)]
    pub stages: PipelineReport,
}

impl Measured for RoundReport {
    const BENCH: &'static str = "pipeline-round-summary";

    fn config(&self) -> Value {
        Value::Map(vec![(
            "trail_entries".into(),
            Value::U64(self.trail_entries as u64),
        )])
    }

    fn derived(&self) -> Vec<(&'static str, Value)> {
        vec![("stages", stage_profiles(&self.stages))]
    }

    fn gates(&self) -> Vec<Gate> {
        Vec::new()
    }
}

impl RoundReport {
    /// Seconds the profile holds for `stage` (0 when it has none).
    pub fn stage_seconds(&self, stage: &str) -> f64 {
        self.stages.stage(stage).map_or(0.0, |s| s.total_seconds)
    }

    /// The share of the round's wall time its stages account for.
    pub fn staged_share(&self) -> f64 {
        let staged: f64 = self.stages.stages.iter().map(|s| s.total_seconds).sum();
        staged / self.round_seconds
    }
}

/// Runs one instrumented auto-accept round over a trail of
/// `trail_entries` entries and returns its report.
pub fn run_pipeline(trail_entries: usize) -> RoundReport {
    let scenario = Scenario::community_hospital();
    let trail = scenario.simulator().generate(&SimConfig {
        seed: SEED,
        n_entries: trail_entries,
        ..SimConfig::default()
    });
    let mut system = PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone())
        .with_observability(SystemObs::enabled());
    for store in split_sites(&trail, SITES) {
        system.attach_store(store).expect("unique source name");
    }
    let start = Instant::now();
    let record = system
        .run_round(ReviewMode::AutoAccept)
        .expect("round runs");
    let round_seconds = start.elapsed().as_secs_f64();
    let stages = system.pipeline_report();
    RoundReport {
        trail_entries,
        round_seconds,
        entries_per_sec: (trail_entries as f64 / round_seconds).round(),
        coverage_after: record.entry_coverage_after,
        all_stages_observed: stages.all_stages_observed(),
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stage_is_observed_and_the_stages_fit_in_the_round() {
        for trail_entries in [500, 2_000] {
            let round = run_pipeline(trail_entries);
            assert_eq!(round.stages.stages.len(), prima_core::observe::STAGES.len());
            assert!(round.all_stages_observed, "at {trail_entries}");
            let share = round.staged_share();
            assert!(share > 0.0 && share <= 1.0, "{share} at {trail_entries}");
        }
    }
}
