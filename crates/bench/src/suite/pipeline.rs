//! The `pipeline` suite: one fully instrumented refinement round over a
//! four-site federated trail, with its per-stage latency profile and
//! round throughput (the `BENCH_pipeline.json` shape), then a second
//! round over the unchanged trail, which reads what the first one left in
//! the federation's key space, and a third after the trail grew by 1 %.
//! The suite has no smoke preset: its rounds take milliseconds. E5 (`exp_fig4_pipeline`) runs the same rounds at
//! several trail lengths.

use crate::report::{stage_profiles, Gate, Measured};
use prima_core::observe::STAGES;
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
    /// The second round, over the unchanged trail.
    #[serde(skip)]
    pub second: LaterRound,
    /// Entries appended across the sites after the second round.
    #[serde(skip)]
    pub grown_entries: usize,
    /// The third round, over the trail grown by `grown_entries`.
    #[serde(skip)]
    pub grown: LaterRound,
}

/// What a round after the first did. Its key space already holds the ids
/// of the trail the previous round read and the verdicts of the policy
/// revision it left, so it reads the stores' books, joins only the ids
/// appended since, and decides only their new shapes (or every shape, if
/// the previous round moved the policy's revision).
#[derive(Debug, Clone, Default)]
pub struct LaterRound {
    /// Wall-clock seconds of the round.
    pub round_seconds: f64,
    /// Rows the round's tallies scanned (`prima_round_rows_scanned_total`).
    pub rows_scanned: u64,
    /// Store-local ids the round hashed into the key space
    /// (`prima_round_keys_joined_total`).
    pub keys_joined: u64,
    /// Seconds per stage of this round alone, in [`STAGES`] order.
    pub stage_seconds: Vec<f64>,
}

impl LaterRound {
    /// Runs one auto-accept round on `system` and measures it alone: the
    /// counters and the stage totals are read before and after.
    fn run(system: &mut PrimaSystem) -> Self {
        let total = |report: &PipelineReport, stage: &str| {
            report.stage(stage).map_or(0.0, |s| s.total_seconds)
        };
        let before = system.pipeline_report();
        let (rows, keys) = (system.obs().rows_scanned(), system.obs().keys_joined());
        let start = Instant::now();
        system
            .run_round(ReviewMode::AutoAccept)
            .expect("later round runs");
        let round_seconds = start.elapsed().as_secs_f64();
        let after = system.pipeline_report();
        Self {
            round_seconds,
            rows_scanned: system.obs().rows_scanned() - rows,
            keys_joined: system.obs().keys_joined() - keys,
            stage_seconds: STAGES
                .iter()
                .map(|stage| total(&after, stage) - total(&before, stage))
                .collect(),
        }
    }

    /// The share of the round's wall time its stages account for.
    pub fn staged_share(&self) -> f64 {
        self.stage_seconds.iter().sum::<f64>() / self.round_seconds
    }

    fn to_value(&self) -> Value {
        let stages = STAGES
            .iter()
            .zip(&self.stage_seconds)
            .map(|(stage, &seconds)| ((*stage).into(), Value::F64(seconds)))
            .collect();
        Value::Map(vec![
            ("round_seconds".into(), Value::F64(self.round_seconds)),
            ("rows_scanned".into(), Value::U64(self.rows_scanned)),
            ("keys_joined".into(), Value::U64(self.keys_joined)),
            ("stage_seconds".into(), Value::Map(stages)),
        ])
    }
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
        vec![
            ("stages", stage_profiles(&self.stages)),
            ("second_round", self.second.to_value()),
            (
                "grown_round",
                Value::Map(vec![
                    (
                        "appended_entries".into(),
                        Value::U64(self.grown_entries as u64),
                    ),
                    ("round".into(), self.grown.to_value()),
                ]),
            ),
        ]
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
/// `trail_entries` entries, a second one over the unchanged trail, and a
/// third after 1 % more entries (at least 10) were appended across the
/// sites, and returns their report.
pub fn run_pipeline(trail_entries: usize) -> RoundReport {
    let scenario = Scenario::community_hospital();
    let simulate = |seed, n_entries| {
        scenario.simulator().generate(&SimConfig {
            seed,
            n_entries,
            ..SimConfig::default()
        })
    };
    let trail = simulate(SEED, trail_entries);
    let mut system = PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone())
        .with_observability(SystemObs::enabled());
    let stores = split_sites(&trail, SITES);
    for store in &stores {
        system
            .attach_store(store.clone())
            .expect("unique source name");
    }
    let start = Instant::now();
    let record = system
        .run_round(ReviewMode::AutoAccept)
        .expect("round runs");
    let round_seconds = start.elapsed().as_secs_f64();
    let stages = system.pipeline_report();

    let second = LaterRound::run(&mut system);

    let grown_entries = (trail_entries / 100).max(10);
    for (i, labeled) in simulate(SEED + 1, grown_entries).iter().enumerate() {
        stores[i % SITES]
            .append(&labeled.entry)
            .expect("simulated entries conform to the audit schema");
    }
    let grown = LaterRound::run(&mut system);
    RoundReport {
        trail_entries,
        round_seconds,
        entries_per_sec: (trail_entries as f64 / round_seconds).round(),
        coverage_after: record.entry_coverage_after,
        all_stages_observed: stages.all_stages_observed(),
        stages,
        second,
        grown_entries,
        grown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stage_is_observed_and_the_stages_fit_in_the_round() {
        for trail_entries in [500, 2_000] {
            let round = run_pipeline(trail_entries);
            assert_eq!(round.stages.stages.len(), STAGES.len());
            assert!(round.all_stages_observed, "at {trail_entries}");
            let share = round.staged_share();
            assert!(share > 0.0 && share <= 1.0, "{share} at {trail_entries}");
            let second = &round.second;
            assert_eq!((second.rows_scanned, second.keys_joined), (0, 0));
            assert!(second.staged_share() <= 1.0, "at {trail_entries}");
            // Each appended entry brings at most a triple, a shape and a
            // user to hash.
            let grown = &round.grown;
            assert_eq!(grown.rows_scanned, 0, "at {trail_entries}");
            assert!(grown.keys_joined <= 3 * round.grown_entries as u64);
            assert!(grown.staged_share() <= 1.0, "at {trail_entries}");
        }
    }
}
