//! The shard-scaling throughput benchmark behind `prima stream-bench`.
//!
//! Replays a seeded community-hospital trail through the block-based
//! ingestion pipeline at a ladder of shard widths and measures sustained
//! entries/second, the verdict hit rate, the metrics-enabled
//! overhead, and checkpoint-barrier latencies. The report carries
//! machine-checkable acceptance gates (the `BENCH_stream.json` shape CI
//! re-emits and enforces).
//!
//! The headline gate is *scaling*, not an absolute shard-count figure:
//! the widest width's throughput over the narrowest width's, floored by
//! what the host can physically deliver. A many-core box must show real
//! parallel speedup; a box with fewer cores than shards cannot, so the
//! floor degrades to "adding shards must not collapse throughput" — the
//! regression this gate exists to catch (the row-at-a-time pipeline
//! *lost* ~24% going 1→8 shards; block shipping must never reintroduce
//! that cliff).

use crate::config::{DEFAULT_BLOCK_SIZE, DEFAULT_CHANNEL_CAPACITY};
use crate::{StreamConfig, StreamEngine};
use prima_audit::AuditEntry;
use prima_model::PolicyMatcher;
use prima_obs::{MetricsRegistry, PipelineReport, Tracer};
use prima_workload::sim::entries;
use prima_workload::{Scenario, SimConfig};
use serde_json::Value;
use std::time::Instant;

/// The standard trail: entry count and simulator seed the committed
/// baseline (`BENCH_stream.json`) was measured with.
pub const STANDARD_TRAIL_LEN: usize = 50_000;
/// Simulator seed of the standard trail.
pub const STANDARD_SEED: u64 = 23;
/// Verdict hit rate of the standard trail (a property of the
/// trail's shape mix, not of machine speed — the run must land within
/// half a percentage point of it).
pub const STANDARD_HIT_RATE: f64 = 0.98144;

/// Parameters of one benchmark run.
#[derive(Debug, Clone)]
pub struct StreamBenchConfig {
    /// Simulated trail length in entries.
    pub trail_len: usize,
    /// Simulator seed (trails are deterministic given the seed).
    pub seed: u64,
    /// Shard widths to ladder through (must be non-empty and sorted).
    pub widths: Vec<usize>,
    /// Entries accumulated per block before a flush.
    pub block_size: usize,
    /// Per-shard channel capacity in entries.
    pub channel_capacity: usize,
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
            seed: STANDARD_SEED,
            widths: vec![1, 2, 4, 8],
            block_size: DEFAULT_BLOCK_SIZE,
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
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
#[derive(Debug, Clone)]
pub struct WidthResult {
    /// Shard count.
    pub shards: usize,
    /// Best sustained ingest rate over the configured passes.
    pub entries_per_sec: f64,
    /// Verdict hit rate of the final snapshot.
    pub cache_hit_rate: f64,
}

/// What a benchmark run measured, plus its acceptance gates.
#[derive(Debug, Clone)]
pub struct StreamBenchReport {
    /// The configuration that produced this report.
    pub config: StreamBenchConfig,
    /// Per-width results, in `config.widths` order.
    pub widths: Vec<WidthResult>,
    /// Cores the host offered (`available_parallelism`), which tiers
    /// the scaling floor.
    pub cores: usize,
    /// Uninstrumented entries/sec at the widest width.
    pub baseline_eps: f64,
    /// Entries/sec at the widest width with live metrics + tracer.
    pub instrumented_eps: f64,
    /// Checkpoint-barrier latency profile from the checkpointing pass.
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
    /// Entries/sec measured at `shards`, if that width was run.
    pub fn eps_at(&self, shards: usize) -> Option<f64> {
        self.widths
            .iter()
            .find(|w| w.shards == shards)
            .map(|w| w.entries_per_sec)
    }

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

    /// The acceptance gates.
    ///
    /// `scaling_vs_cores` always applies: the wide/narrow ratio must
    /// clear [`scaling_floor`] for this host. The absolute gates —
    /// ≥1M entries/sec at the widest width, hit rate within half a
    /// point of [`STANDARD_HIT_RATE`], metrics overhead within 5% —
    /// apply to full runs only (smoke runs use a reduced trail on
    /// shared hardware, which measures neither absolute speed nor the
    /// standard trail's shape mix).
    pub fn gates(&self) -> Vec<(&'static str, bool)> {
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

    /// True iff every gate passes.
    pub fn passed(&self) -> bool {
        self.gates().iter().all(|(_, ok)| *ok)
    }

    /// The report as a JSON value tree (the `BENCH_stream.json` shape).
    pub fn to_json(&self) -> Value {
        let widths = self
            .widths
            .iter()
            .map(|w| {
                Value::Map(vec![
                    ("shards".into(), Value::U64(w.shards as u64)),
                    (
                        "entries_per_sec".into(),
                        Value::F64(w.entries_per_sec.round()),
                    ),
                    ("cache_hit_rate".into(), Value::F64(w.cache_hit_rate)),
                ])
            })
            .collect();
        let gates = self
            .gates()
            .into_iter()
            .map(|(name, ok)| (name.to_string(), Value::Bool(ok)))
            .collect();
        let checkpoints = self
            .checkpoint
            .stages
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("stage".into(), Value::Str(s.stage.clone())),
                    ("count".into(), Value::U64(s.count)),
                    ("total_seconds".into(), Value::F64(s.total_seconds)),
                    ("p50_seconds".into(), Value::F64(s.p50_seconds)),
                    ("p95_seconds".into(), Value::F64(s.p95_seconds)),
                    ("max_seconds".into(), Value::F64(s.max_seconds)),
                ])
            })
            .collect();
        Value::Map(vec![
            (
                "bench".into(),
                Value::Str("stream-throughput-summary".into()),
            ),
            (
                "config".into(),
                Value::Map(vec![
                    (
                        "trail_entries".into(),
                        Value::U64(self.config.trail_len as u64),
                    ),
                    ("seed".into(), Value::U64(self.config.seed)),
                    (
                        "block_size".into(),
                        Value::U64(self.config.block_size as u64),
                    ),
                    (
                        "channel_capacity".into(),
                        Value::U64(self.config.channel_capacity as u64),
                    ),
                    ("passes".into(), Value::U64(self.config.passes as u64)),
                    ("smoke".into(), Value::Bool(self.config.smoke)),
                ]),
            ),
            ("widths".into(), Value::Seq(widths)),
            (
                "scaling".into(),
                Value::Map(vec![
                    ("cores".into(), Value::U64(self.cores as u64)),
                    (
                        "ratio_wide_over_narrow".into(),
                        Value::F64(self.scaling_ratio()),
                    ),
                    ("floor".into(), Value::F64(scaling_floor(self.cores))),
                ]),
            ),
            (
                "metrics_overhead".into(),
                Value::Map(vec![
                    ("baseline_eps".into(), Value::F64(self.baseline_eps.round())),
                    (
                        "instrumented_eps".into(),
                        Value::F64(self.instrumented_eps.round()),
                    ),
                    ("overhead_pct".into(), Value::F64(self.overhead_pct())),
                ]),
            ),
            ("checkpoint_latency".into(), Value::Seq(checkpoints)),
            ("gates".into(), Value::Map(gates)),
        ])
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

/// Best entries/sec over `n` passes under `make_config`.
fn best_eps(
    n: usize,
    scenario: &Scenario,
    trail: &[AuditEntry],
    make_config: impl Fn() -> StreamConfig,
) -> (f64, f64) {
    (0..n.max(1))
        .map(|_| measured_pass(make_config(), scenario, trail))
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
    let trail = entries(&scenario.simulator().generate(&SimConfig {
        seed: config.seed,
        n_entries: config.trail_len,
        ..SimConfig::default()
    }));
    let stream_config = |shards: usize| {
        StreamConfig::with_shards(shards)
            .block_size(config.block_size)
            .channel_capacity(config.channel_capacity)
    };

    let mut widths = Vec::new();
    for &shards in &config.widths {
        // Warm pass (thread spawn, allocator), then the measured ones.
        measured_pass(stream_config(shards), &scenario, &trail[..trail.len() / 10]);
        let (eps, hit_rate) = best_eps(config.passes, &scenario, &trail, || stream_config(shards));
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
    let widest = config.widths.last().copied().unwrap_or(1);
    let mut baseline_eps: f64 = 0.0;
    let mut instrumented_eps: f64 = 0.0;
    for _ in 0..config.passes.max(5) {
        baseline_eps = baseline_eps.max(measured_pass(stream_config(widest), &scenario, &trail).0);
        instrumented_eps = instrumented_eps.max(
            measured_pass(
                stream_config(widest).observability(MetricsRegistry::new(), Tracer::new()),
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
        stream_config(widest)
            .checkpoint_every(config.checkpoint_every)
            .observability(registry.clone(), Tracer::disabled()),
        &scenario,
        &trail,
    );
    let checkpoint = PipelineReport::gather(&registry, "prima_stream_checkpoint_seconds");

    StreamBenchReport {
        widths,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
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
            ..StreamBenchConfig::smoke()
        };
        let report = run_stream_bench(config);
        assert_eq!(report.widths.len(), 2);
        assert!(report.widths.iter().all(|w| w.entries_per_sec > 0.0));
        assert!(report.widths.iter().all(|w| w.cache_hit_rate > 0.5));
        assert!(report.checkpoint.all_stages_observed());
        let json = serde_json::to_string_pretty(&report.to_json()).unwrap();
        assert!(json.contains("\"bench\": \"stream-throughput-summary\""));
        assert!(json.contains("scaling_vs_cores"));
        assert!(json.contains("ratio_wide_over_narrow"));
        // Smoke mode carries no absolute-throughput gate.
        assert!(!json.contains("meets_1m_at_widest"));
    }
}
