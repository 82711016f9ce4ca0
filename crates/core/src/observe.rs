//! Observability for the refinement loop: metrics and spans around
//! [`crate::PrimaSystem`] rounds.
//!
//! [`SystemObs`] bundles a [`MetricsRegistry`] and a [`Tracer`] with the
//! pre-registered handles a round touches, so the hot path never takes
//! the registry mutex. The default is [`SystemObs::disabled`]: every
//! handle is a no-op and a round pays one branch per would-be update.
//!
//! Metric catalog (all under the `prima_round_*` / `prima_coverage_*`
//! prefix; see DESIGN.md for the full table):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `prima_round_stage_seconds{stage}` | histogram | per-stage wall time (`federate`, `ground`, `filter`, `mine`, `prune`, `propose`, `coverage`) |
//! | `prima_rounds_total` | counter | refinement rounds run |
//! | `prima_round_deferred_total` | counter | rounds that refused to mine below the completeness floor |
//! | `prima_round_patterns_useful_total` | counter | patterns surviving Prune |
//! | `prima_round_rules_added_total` | counter | rules folded into the policy |
//! | `prima_round_rows_scanned_total` | counter | rows the rounds scanned (windowed rounds only) |
//! | `prima_round_keys_joined_total` | counter | store-local ids newly joined into the federation key space |
//! | `prima_coverage_entry_ratio` | gauge | latest entry-weighted coverage |
//! | `prima_coverage_completeness_lower` | gauge | lower bound on true coverage |
//! | `prima_coverage_completeness_upper` | gauge | upper bound on true coverage |

use prima_obs::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, PipelineReport, SloEngine, SloSpec,
    Tracer,
};

/// The histogram family holding per-stage round timings.
pub const STAGE_METRIC: &str = "prima_round_stage_seconds";

/// Pipeline stages recorded into [`STAGE_METRIC`], in execution order.
/// A round reads the trail as tallies (`prima_audit::Tally`), never as
/// entries:
///
/// * `federate` — the book read: each store's counts, kept at append, or
///   for a training window one scan of the store's rows inside it; and
///   each resilient source's last good fetch, tallied;
/// * `ground` — the join into the federation's key space
///   (`prima_audit::KeySpace`): ids a source interned since the last read
///   are hashed, everything else goes through integer remaps (grounding
///   itself happened once per distinct triple, at append);
/// * `filter` — Algorithm 3 ran inside the scan, so this only sums the
///   practice counts;
/// * `mine` — Algorithm 5's `(A, f, c)` as a hash group-by over the tally;
/// * `prune` — Prune and the safety gate over the mined patterns;
/// * `propose` — enqueueing, and in auto-accept mode applying, the
///   candidates;
/// * `coverage` — both coverage passes: the key space's verdicts, kept
///   per policy revision, are extended for new shapes or recomputed when
///   the revision moved, and the covered groups' entry counts are summed.
pub const STAGES: [&str; 7] = [
    "federate", "ground", "filter", "mine", "prune", "propose", "coverage",
];

/// A round stage, indexing [`STAGES`] and the stage histograms.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    Federate,
    Ground,
    Filter,
    Mine,
    Prune,
    Propose,
    Coverage,
}

/// The refinement loop's service-level objective: at most this fraction
/// of rounds may run (or defer) with the trail's completeness lower
/// bound under the system's floor — sustained federation blindness is an
/// incident, not noise.
const COMPLETENESS_SLO_OBJECTIVE: f64 = 0.05;

/// Metrics and tracing for one [`crate::PrimaSystem`].
///
/// Cloning shares the underlying registry and tracer, so a clone handed
/// to an exporter reads the same cells the system writes.
#[derive(Debug, Clone)]
pub struct SystemObs {
    registry: MetricsRegistry,
    tracer: Tracer,
    /// Black-box ring the round incidents (gate rejections, deferred
    /// rounds) dump — the tracer's own recorder, so dumps replay the
    /// spans leading up to the incident.
    flight: FlightRecorder,
    /// Multi-window burn rates over the refinement loop's objectives
    /// (`prima_slo_*` gauges; see [`SloEngine`]).
    slo: SloEngine,
    pub(crate) rounds_total: Counter,
    pub(crate) deferred_total: Counter,
    pub(crate) patterns_useful_total: Counter,
    pub(crate) rules_added_total: Counter,
    pub(crate) rows_scanned_total: Counter,
    pub(crate) keys_joined_total: Counter,
    pub(crate) coverage_ratio: Gauge,
    pub(crate) completeness_lower: Gauge,
    pub(crate) completeness_upper: Gauge,
    /// Stage histograms, indexed like [`STAGES`].
    stages: [Histogram; 7],
}

impl SystemObs {
    /// Live observability over a fresh registry and tracer.
    pub fn enabled() -> Self {
        Self::over(MetricsRegistry::new(), Tracer::new())
    }

    /// Live observability whose tracer feeds `flight` — the round
    /// incidents (gate rejections, deferred rounds) then dump a replay
    /// of the spans leading up to them.
    pub fn flight_enabled(flight: FlightRecorder) -> Self {
        Self::over(MetricsRegistry::new(), Tracer::configured(None, flight))
    }

    /// No-op observability — the default wired into every system.
    pub fn disabled() -> Self {
        Self::over(MetricsRegistry::disabled(), Tracer::disabled())
    }

    /// Observability over an existing registry and tracer, so several
    /// subsystems (stream engine, federation, rounds) can share one set
    /// of books and a single span timeline.
    pub fn over(registry: MetricsRegistry, tracer: Tracer) -> Self {
        let stage = |name: &str| {
            registry.histogram_with(
                STAGE_METRIC,
                "Wall-clock seconds per refinement-round stage.",
                &[("stage", name)],
                &prima_obs::DEFAULT_LATENCY_BUCKETS,
            )
        };
        Self {
            rounds_total: registry.counter("prima_rounds_total", "Refinement rounds run."),
            deferred_total: registry.counter(
                "prima_round_deferred_total",
                "Rounds that refused to mine below the completeness floor.",
            ),
            patterns_useful_total: registry.counter(
                "prima_round_patterns_useful_total",
                "Patterns surviving Prune across all rounds.",
            ),
            rules_added_total: registry.counter(
                "prima_round_rules_added_total",
                "Rules folded into the policy across all rounds.",
            ),
            rows_scanned_total: registry.counter(
                "prima_round_rows_scanned_total",
                "Rows the rounds scanned: only a training window scans the stores.",
            ),
            keys_joined_total: registry.counter(
                "prima_round_keys_joined_total",
                "Store-local ids newly joined into the federation key space.",
            ),
            coverage_ratio: registry.gauge(
                "prima_coverage_entry_ratio",
                "Latest entry-weighted coverage of the policy over the trail.",
            ),
            completeness_lower: registry.gauge(
                "prima_coverage_completeness_lower",
                "Lower bound on the true coverage given unreachable entries.",
            ),
            completeness_upper: registry.gauge(
                "prima_coverage_completeness_upper",
                "Upper bound on the true coverage given unreachable entries.",
            ),
            stages: STAGES.map(stage),
            flight: tracer.flight(),
            slo: {
                let slo = if registry.is_enabled() {
                    SloEngine::new(&registry)
                } else {
                    SloEngine::disabled()
                };
                slo.track(SloSpec::new(
                    "coverage_completeness",
                    COMPLETENESS_SLO_OBJECTIVE,
                ));
                slo
            },
            registry,
            tracer,
        }
    }

    /// True when metrics are recorded.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// The shared metrics registry (for exporters and further handles).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The shared tracer (drain it for the JSONL span log).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The flight recorder the round incidents dump (disabled unless the
    /// tracer was built over one, e.g. via [`SystemObs::flight_enabled`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The refinement loop's SLO engine (burn rates over the
    /// completeness objective).
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// Records one incident: a black-box dump named `trigger`, marking
    /// `trace_id`'s spans in the replay (0 when no single trace is to
    /// blame).
    pub(crate) fn incident(&self, trigger: &str, trace_id: u64) {
        self.flight.dump(trigger, trace_id);
    }

    /// The histogram of one round stage.
    pub(crate) fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Rows the rounds have scanned so far
    /// (`prima_round_rows_scanned_total`): an unwindowed round reads the
    /// stores' books, resilient sources' last fetches included, and scans
    /// none.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned_total.get()
    }

    /// Store-local ids hashed into the federation key space so far
    /// (`prima_round_keys_joined_total`), by any read: a round, or a
    /// coverage read.
    pub fn keys_joined(&self) -> u64 {
        self.keys_joined_total.get()
    }

    /// Per-stage latency profile of every round so far.
    pub fn pipeline_report(&self) -> PipelineReport {
        PipelineReport::gather(&self.registry, STAGE_METRIC)
    }
}

impl Default for SystemObs {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = SystemObs::disabled();
        assert!(!obs.is_enabled());
        obs.rounds_total.inc();
        obs.stages[0].observe(0.5);
        assert!(obs.registry().gather().is_empty());
        assert!(obs.pipeline_report().stages.is_empty());
    }

    #[test]
    fn enabled_obs_gathers_stage_profiles() {
        let obs = SystemObs::enabled();
        for (i, _) in STAGES.iter().enumerate() {
            obs.stages[i].observe(0.001 * (i + 1) as f64);
        }
        let report = obs.pipeline_report();
        assert_eq!(report.stages.len(), STAGES.len());
        assert!(report.all_stages_observed());
    }

    #[test]
    fn stage_variants_index_their_names() {
        let stages = [
            Stage::Federate,
            Stage::Ground,
            Stage::Filter,
            Stage::Mine,
            Stage::Prune,
            Stage::Propose,
            Stage::Coverage,
        ];
        for stage in stages {
            assert_eq!(STAGES[stage as usize], format!("{stage:?}").to_lowercase());
        }
    }

    #[test]
    fn clones_share_the_books() {
        let obs = SystemObs::enabled();
        let clone = obs.clone();
        obs.rounds_total.inc();
        clone.rounds_total.inc();
        assert_eq!(obs.rounds_total.get(), 2);
    }
}
