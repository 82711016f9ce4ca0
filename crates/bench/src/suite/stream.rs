//! The `stream` suite: shard-scaling throughput of the block-based
//! ingestion pipeline (the `BENCH_stream.json` shape).
//!
//! Replays a seeded community-hospital trail through `prima-stream` at
//! a ladder of shard widths and measures sustained entries/second, the
//! verdict hit rate, the metrics-enabled overhead, and
//! checkpoint-barrier latencies.
//!
//! The headline gate is *scaling*, not an absolute shard-count figure:
//! the widest width's throughput over the narrowest width's, floored by
//! what the host can physically deliver. A many-core box must show real
//! parallel speedup; a box with fewer cores than shards cannot, so the
//! floor degrades to "adding shards must not collapse throughput" — the
//! regression this gate exists to catch (the row-at-a-time pipeline
//! *lost* ~24% going 1→8 shards; block shipping must never reintroduce
//! that cliff).

use crate::report::{cores, stage_profiles, Gate, Measured};
use crate::standard_trail;
use prima_audit::AuditEntry;
use prima_model::PolicyMatcher;
use prima_obs::{MetricsRegistry, PipelineReport, Tracer};
use prima_stream::{StreamConfig, StreamEngine};
use prima_workload::Scenario;
use serde::{Serialize, Value};
use std::time::Instant;

/// Entry count of the standard trail the committed baseline
/// (`BENCH_stream.json`) was measured with.
pub const STANDARD_TRAIL_LEN: usize = 50_000;
/// Simulator seed of every trail the suite replays.
pub const STANDARD_SEED: u64 = 23;
/// Verdict hit rate of the standard trail (a property of the
/// trail's shape mix, not of machine speed — the run must land within
/// half a percentage point of it).
pub const STANDARD_HIT_RATE: f64 = 0.98144;

/// Parameters of one benchmark run. Block size and channel capacity are
/// [`StreamConfig`]'s defaults.
#[derive(Debug, Clone, Serialize)]
pub struct StreamBenchConfig {
    /// Simulated trail length in entries.
    pub trail_len: usize,
    /// Shard widths to ladder through (must be non-empty and sorted).
    pub widths: Vec<usize>,
    /// Measured passes per width; the best is reported (best-of damps
    /// scheduler noise, which single passes at these durations sit
    /// well inside).
    pub passes: usize,
    /// Checkpoint interval of the checkpoint-latency pass.
    pub checkpoint_every: u64,
    /// Smoke mode: correctness and scaling gates only — absolute
    /// throughput, hit-rate, and overhead gates are relaxed (shared CI
    /// runners measure neither reliably).
    pub smoke: bool,
}

impl Default for StreamBenchConfig {
    fn default() -> Self {
        Self {
            trail_len: STANDARD_TRAIL_LEN,
            widths: vec![1, 2, 4, 8],
            passes: 3,
            checkpoint_every: 5_000,
            smoke: false,
        }
    }
}

impl StreamBenchConfig {
    /// A reduced preset for CI smoke runs: the full ladder and gate
    /// machinery over a trail that finishes in seconds on a shared
    /// runner.
    pub fn smoke() -> Self {
        Self {
            trail_len: 12_000,
            passes: 2,
            smoke: true,
            ..Self::default()
        }
    }
}

/// One width's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct WidthResult {
    /// Shard count.
    pub shards: usize,
    /// Best sustained ingest rate over the configured passes.
    pub entries_per_sec: f64,
    /// Verdict hit rate of the final snapshot.
    pub cache_hit_rate: f64,
}

/// What a benchmark run measured.
#[derive(Debug, Clone, Serialize)]
pub struct StreamBenchReport {
    /// The configuration that produced this report.
    #[serde(skip)]
    pub config: StreamBenchConfig,
    /// Per-width results, in `config.widths` order.
    pub widths: Vec<WidthResult>,
    /// Cores the host offered, which tiers the scaling floor (the
    /// envelope reports it).
    #[serde(skip)]
    pub cores: usize,
    /// Uninstrumented entries/sec at the widest width.
    pub baseline_eps: f64,
    /// Entries/sec at the widest width with live metrics + tracer.
    pub instrumented_eps: f64,
    /// Checkpoint-barrier latency profile from the checkpointing pass.
    #[serde(skip)]
    pub checkpoint: PipelineReport,
}

/// The scaling floor the host's core count earns: real parallel speedup
/// where cores exist, no-collapse where they don't.
pub fn scaling_floor(cores: usize) -> f64 {
    match cores {
        0..=1 => 0.85,
        2..=7 => 1.1,
        _ => 2.0,
    }
}

impl StreamBenchReport {
    /// Widest-over-narrowest throughput ratio (the scaling headline).
    pub fn scaling_ratio(&self) -> f64 {
        let narrow = self.widths.first().map_or(0.0, |w| w.entries_per_sec);
        let wide = self.widths.last().map_or(0.0, |w| w.entries_per_sec);
        if narrow <= 0.0 {
            0.0
        } else {
            wide / narrow
        }
    }

    /// Slowdown of the instrumented run relative to baseline, percent.
    pub fn overhead_pct(&self) -> f64 {
        if self.baseline_eps <= 0.0 {
            0.0
        } else {
            (1.0 - self.instrumented_eps / self.baseline_eps) * 100.0
        }
    }

    /// Cache hit rate at the widest width.
    pub fn hit_rate(&self) -> f64 {
        self.widths.last().map_or(0.0, |w| w.cache_hit_rate)
    }
}

impl Measured for StreamBenchReport {
    const BENCH: &'static str = "stream-throughput-summary";

    fn config(&self) -> Value {
        self.config.serialize()
    }

    fn derived(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("ratio_wide_over_narrow", Value::F64(self.scaling_ratio())),
            ("scaling_floor", Value::F64(scaling_floor(self.cores))),
            ("overhead_pct", Value::F64(self.overhead_pct())),
            ("checkpoint_latency", stage_profiles(&self.checkpoint)),
        ]
    }

    /// `scaling_vs_cores` always applies: the wide/narrow ratio must
    /// clear [`scaling_floor`] for this host. The absolute gates —
    /// ≥1M entries/sec at the widest width, hit rate within half a
    /// point of [`STANDARD_HIT_RATE`], metrics overhead within 5% —
    /// apply to full runs only (smoke runs use a reduced trail on
    /// shared hardware, which measures neither absolute speed nor the
    /// standard trail's shape mix).
    fn gates(&self) -> Vec<Gate> {
        let mut gates = vec![(
            "scaling_vs_cores",
            self.scaling_ratio() >= scaling_floor(self.cores),
        )];
        if !self.config.smoke {
            gates.push((
                "meets_1m_at_widest",
                self.widths
                    .last()
                    .is_some_and(|w| w.entries_per_sec >= 1.0e6),
            ));
            gates.push((
                "hit_rate_within_half_point",
                (self.hit_rate() - STANDARD_HIT_RATE).abs() <= 0.005,
            ));
            gates.push(("metrics_overhead_within_5pct", self.overhead_pct() <= 5.0));
        }
        gates
    }
}

/// One measured pass: ingest the whole trail, drain, and read the final
/// snapshot. Returns `(entries_per_sec, cache_hit_rate)`.
fn measured_pass(config: StreamConfig, scenario: &Scenario, trail: &[AuditEntry]) -> (f64, f64) {
    let mut engine = StreamEngine::start(
        config,
        PolicyMatcher::new(&scenario.policy, &scenario.vocab),
    );
    let start = Instant::now();
    engine.ingest_all(trail.iter());
    engine.drain();
    let secs = start.elapsed().as_secs_f64();
    let snap = engine.shutdown();
    (trail.len() as f64 / secs.max(1e-9), snap.cache.hit_rate())
}

/// Best entries/sec over `n` passes at `shards`.
fn best_eps(n: usize, scenario: &Scenario, trail: &[AuditEntry], shards: usize) -> (f64, f64) {
    (0..n.max(1))
        .map(|_| measured_pass(StreamConfig::with_shards(shards), scenario, trail))
        .fold(
            (0.0, 0.0),
            |best, pass| {
                if pass.0 > best.0 {
                    pass
                } else {
                    best
                }
            },
        )
}

/// Runs the benchmark ladder and returns the measured report.
pub fn run_stream_bench(config: StreamBenchConfig) -> StreamBenchReport {
    let scenario = Scenario::community_hospital();
    let trail = standard_trail(config.trail_len, STANDARD_SEED);

    let mut widths = Vec::new();
    for &shards in &config.widths {
        // Warm pass (thread spawn, allocator), then the measured ones.
        measured_pass(
            StreamConfig::with_shards(shards),
            &scenario,
            &trail[..trail.len() / 10],
        );
        let (eps, hit_rate) = best_eps(config.passes, &scenario, &trail, shards);
        widths.push(WidthResult {
            shards,
            entries_per_sec: eps,
            cache_hit_rate: hit_rate,
        });
    }

    // Metrics-enabled overhead at the widest width: identical configs
    // except for the live registry/tracer. The pairs run interleaved
    // (baseline, instrumented, baseline, …) so slow machine drift hits
    // both sides alike, and with extra passes — at block-amortized
    // throughput one pass is tens of milliseconds, so best-of needs
    // more draws here than the width ladder does.
    let widest = StreamConfig::with_shards(config.widths.last().copied().unwrap_or(1));
    let mut baseline_eps: f64 = 0.0;
    let mut instrumented_eps: f64 = 0.0;
    for _ in 0..config.passes.max(5) {
        baseline_eps = baseline_eps.max(measured_pass(widest.clone(), &scenario, &trail).0);
        instrumented_eps = instrumented_eps.max(
            measured_pass(
                widest
                    .clone()
                    .observability(MetricsRegistry::new(), Tracer::new()),
                &scenario,
                &trail,
            )
            .0,
        );
    }

    // One checkpointing + instrumented pass so the checkpoint-latency
    // histogram in the report is non-empty.
    let registry = MetricsRegistry::new();
    measured_pass(
        widest
            .checkpoint_every(config.checkpoint_every)
            .observability(registry.clone(), Tracer::disabled()),
        &scenario,
        &trail,
    );
    let checkpoint = PipelineReport::gather(&registry, "prima_stream_checkpoint_seconds");

    StreamBenchReport {
        widths,
        cores: cores(),
        baseline_eps,
        instrumented_eps,
        checkpoint,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_floor_tiers_by_core_count() {
        assert_eq!(scaling_floor(1), 0.85);
        assert_eq!(scaling_floor(4), 1.1);
        assert_eq!(scaling_floor(8), 2.0);
        assert_eq!(scaling_floor(64), 2.0);
    }

    #[test]
    fn old_committed_regression_fails_the_scaling_gate_everywhere() {
        // The row-at-a-time pipeline measured 375441 eps at 1 shard and
        // 286147 at 8 — a 0.762 ratio that must fail even the 1-core
        // floor, or the gate is not catching the bug it was built for.
        assert!(286_147.0 / 375_441.0 < scaling_floor(1));
    }

    #[test]
    fn tiny_run_reports_and_gates() {
        let config = StreamBenchConfig {
            trail_len: 3_000,
            widths: vec![1, 2],
            passes: 1,
            checkpoint_every: 500,
            smoke: true,
        };
        let report = run_stream_bench(config);
        assert_eq!(report.widths.len(), 2);
        assert!(report.widths.iter().all(|w| w.entries_per_sec > 0.0));
        assert!(report.widths.iter().all(|w| w.cache_hit_rate > 0.5));
        assert!(report.checkpoint.all_stages_observed());
        let json = serde_json::to_string_pretty(&report.report().to_json()).unwrap();
        assert!(json.contains("\"bench\": \"stream-throughput-summary\""));
        assert!(json.contains("scaling_vs_cores"));
        assert!(json.contains("ratio_wide_over_narrow"));
        // Smoke mode carries no absolute-throughput gate.
        assert!(!json.contains("meets_1m_at_widest"));
    }
}
