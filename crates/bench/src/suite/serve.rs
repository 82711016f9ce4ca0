//! The `serve` suite: the Zipf-driven load benchmark of the
//! policy-decision service (the `BENCH_serve.json` shape).
//!
//! Simulates a hospital-scale request stream against a running
//! [`PolicyService`]: a Zipf-ranked population of ≥1M principals (a few
//! workhorse clinicians dominate, per the access-log literature), each
//! bound to a ground role of the scenario vocabulary, issuing decision
//! requests with a realistic consent mix — including a trickle of
//! malformed tokens the service must deny structurally, never panic on.
//!
//! While clients hammer the service, a *promoter* thread replays the
//! refinement loop: every `promote_every` decisions it pushes one more
//! mined rule into the policy and installs it, bumping the revision and
//! invalidating the decision cache — so the measured hit rate includes
//! realistic invalidation churn, not an idealized warm cache.
//!
//! Clients also audit coherence online: every `coherence_sample`-th
//! reply is re-derived through the uncached oracle path and compared.
//! Replies that raced a concurrent install (revisions differ) are
//! skipped-and-counted rather than compared — the verdict legitimately
//! changed under the request.

use crate::report::{Gate, Measured};
use prima_model::Rule;
use prima_obs::{FlightRecorder, MetricsRegistry, SamplePolicy, Tracer};
use prima_serve::{DecisionRequest, PolicyService, ServeConfig, Transport};
use prima_vocab::{ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use prima_workload::{Scenario, ZipfPopulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tail-sampling policy of the instrumented bench: every interesting
/// trace (denials, shed, deadline-expired, emergency) is kept, plus
/// 1-in-this-many of the boring ones.
const BENCH_KEEP_EVERY: u64 = 1_024;

/// Traces containing a span at least this slow (µs) are always kept.
const BENCH_SLOW_TRACE_US: u64 = 1_000;

/// The tracer the instrumented bench (and its calibration passes) runs
/// under: tail sampling plus a live flight recorder.
fn bench_tracer() -> Tracer {
    Tracer::configured(
        Some(
            SamplePolicy::keep_1_in(BENCH_KEEP_EVERY)
                .with_latency_threshold_us(BENCH_SLOW_TRACE_US),
        ),
        FlightRecorder::new(256),
    )
}

/// Requests per batched transport call.
const BATCH: usize = 64;
/// Zipf exponent of the principal population.
const ZIPF: f64 = 1.05;
/// RNG seed (request streams are deterministic given the seed).
const SEED: u64 = 42;
/// Interleaved calibration passes per side (baseline vs instrumented)
/// for the instrumentation-overhead measurement.
const OVERHEAD_PASSES: usize = 3;

/// Load-run parameters. The pool runs `ServeConfig`'s default worker
/// count, one per core.
#[derive(Debug, Clone, Serialize)]
pub struct LoadConfig {
    /// Simulated principal population (the acceptance floor is 1M).
    pub principals: usize,
    /// Total decision requests across all clients.
    pub requests: usize,
    /// Client threads driving the service.
    pub clients: usize,
    /// Install one promoted rule every this many decisions (0 = never).
    pub promote_every: usize,
    /// Audit one of every this many replies against the uncached oracle
    /// (0 = no auditing).
    pub coherence_sample: usize,
    /// Smoke mode: relaxes the throughput gate (CI machines vary); the
    /// correctness and hit-rate gates still apply.
    pub smoke: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            principals: 1_000_000,
            requests: 2_000_000,
            clients: 4,
            promote_every: 250_000,
            coherence_sample: 1_000,
            smoke: false,
        }
    }
}

impl LoadConfig {
    /// A small preset for CI smoke runs: the full machinery (promotions,
    /// coherence auditing, gates) over a population and request count
    /// that finish in seconds on a shared runner.
    pub fn smoke() -> Self {
        Self {
            principals: 10_000,
            requests: 150_000,
            clients: 2,
            promote_every: 40_000,
            coherence_sample: 500,
            smoke: true,
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// The configuration that produced this report.
    #[serde(skip)]
    pub config: LoadConfig,
    /// Wall-clock seconds over the request phase.
    pub elapsed_secs: f64,
    /// Sustained decisions per second.
    pub decisions_per_sec: f64,
    /// Decisions served (must equal `config.requests`).
    pub decisions: u64,
    /// Allow verdicts.
    pub allows: u64,
    /// Deny verdicts.
    pub denials: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Whole-cache invalidations observed.
    pub invalidations: u64,
    /// Rules promoted (policy installs that took effect).
    pub promotions: u64,
    /// Final policy revision.
    pub policy_revision: u64,
    /// Median decision latency in microseconds (histogram estimate).
    pub p50_us: f64,
    /// 99th-percentile decision latency in microseconds.
    pub p99_us: f64,
    /// Replies audited against the uncached oracle.
    pub coherence_checked: u64,
    /// Audits skipped because an install raced the reply.
    pub coherence_skipped: u64,
    /// Audited replies that disagreed with the oracle (must be 0).
    pub coherence_mismatches: u64,
    /// Best uninstrumented calibration throughput (no metrics, no
    /// tracer) over the interleaved overhead passes.
    pub baseline_qps: f64,
    /// Best fully-instrumented calibration throughput (metrics + tail
    /// sampling + flight recorder) over the same passes.
    pub instrumented_qps: f64,
    /// Traces the tail sampler kept during the measured run.
    pub traces_kept: u64,
    /// Traces the tail sampler dropped whole during the measured run.
    pub traces_dropped: u64,
}

impl LoadReport {
    /// Cache hit fraction in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// No audited reply disagreed with the uncached oracle.
    pub fn coherent(&self) -> bool {
        self.coherence_mismatches == 0 && self.coherence_checked > 0
    }

    /// Every decision was counted and timed by the serve metrics.
    pub fn instrumented(&self) -> bool {
        self.decisions == self.config.requests as u64
            && self.allows + self.denials == self.decisions
            && self.p99_us > 0.0
    }

    /// Slowdown of the instrumented calibration run relative to the
    /// uninstrumented baseline, in percent (negative = noise in the
    /// instrumented side's favour).
    pub fn overhead_pct(&self) -> f64 {
        if self.baseline_qps <= 0.0 {
            0.0
        } else {
            (1.0 - self.instrumented_qps / self.baseline_qps) * 100.0
        }
    }
}

impl Measured for LoadReport {
    const BENCH: &'static str = "serve_load";

    fn config(&self) -> Value {
        self.config.serialize()
    }

    fn derived(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("hit_rate", Value::F64(self.hit_rate())),
            ("overhead_pct", Value::F64(self.overhead_pct())),
        ]
    }

    /// The acceptance gates. Throughput and instrumentation overhead are
    /// only gated in full mode — smoke runs on shared CI hardware
    /// measure correctness, not speed.
    fn gates(&self) -> Vec<Gate> {
        let mut gates = vec![
            ("coherent", self.coherent()),
            ("hit_rate_ge_90", self.hit_rate() >= 0.90),
            ("instrumented", self.instrumented()),
            ("invalidations_observed", self.invalidations > 0),
        ];
        if !self.config.smoke {
            gates.push(("throughput_ge_100k", self.decisions_per_sec >= 100_000.0));
            gates.push(("population_ge_1m", self.config.principals >= 1_000_000));
            gates.push((
                "instrumentation_overhead_lt_5pct",
                self.overhead_pct() < 5.0,
            ));
        }
        gates
    }
}

/// One client's share of the request stream plus its audit tallies.
struct ClientTally {
    checked: u64,
    skipped: u64,
    mismatches: u64,
}

/// Builds the pool of promotable rules: ground cluster rules the
/// scenario's policy is missing (the very rules the refinement loop
/// would mine), cycled if the run promotes more than exist.
fn promotion_pool(scenario: &Scenario) -> Vec<Rule> {
    scenario
        .ground_truth()
        .iter()
        .map(Rule::from_ground)
        .collect()
}

/// The Zipf-shaped request generator, shared by the measured run and
/// the overhead-calibration passes so both sides do identical work.
struct Workload {
    population: ZipfPopulation,
    roles: Vec<String>,
    ops: Vec<String>,
    purposes: Vec<String>,
    op_skew: ZipfPopulation,
    purpose_skew: ZipfPopulation,
}

impl Workload {
    fn of(scenario: &Scenario, config: &LoadConfig) -> Arc<Self> {
        // Ground leaves of each decision dimension, by name.
        let leaves = |attr: &str| -> Vec<String> {
            let t = scenario.vocab.attribute(attr).expect("scenario attribute");
            t.all_leaves()
                .iter()
                .map(|&id| t.name(id).to_string())
                .collect()
        };
        let roles = leaves(ATTR_AUTHORIZED);
        let ops = leaves(ATTR_DATA);
        let purposes = leaves(ATTR_PURPOSE);
        // Access categories and purposes are heavily skewed too (a
        // ward's day is referrals and vitals, not one-off audit pulls);
        // the skew is what concentrates the decision-key working set and
        // lets the cache earn its hit rate against invalidation churn.
        let op_skew = ZipfPopulation::new(ops.len(), 1.8);
        let purpose_skew = ZipfPopulation::new(purposes.len(), 1.8);
        Arc::new(Self {
            population: ZipfPopulation::new(config.principals, ZIPF),
            roles,
            ops,
            purposes,
            op_skew,
            purpose_skew,
        })
    }

    fn request(&self, rng: &mut StdRng) -> DecisionRequest {
        let rank = self.population.sample(rng);
        // Role is a stable property of the principal.
        let role = &self.roles[rank % self.roles.len()];
        let op = &self.ops[self.op_skew.sample(rng)];
        let purpose = &self.purposes[self.purpose_skew.sample(rng)];
        // Realistic consent mix, including malformed tokens the service
        // must absorb structurally.
        let p: f64 = rng.gen();
        let consent = if p < 0.90 {
            "granted"
        } else if p < 0.95 {
            "opted-out"
        } else if p < 0.99 {
            "unspecified"
        } else {
            "malformed-⚠"
        };
        DecisionRequest::new(
            &ZipfPopulation::principal_name(rank),
            role,
            op,
            purpose,
            consent,
        )
    }
}

/// One overhead-calibration pass: a fresh service (no promoter, no
/// coherence auditing) absorbs `requests` workload decisions; returns
/// the sustained QPS. The instrumented side runs the full observability
/// stack — live metrics, tail-sampled tracer, flight recorder — the
/// baseline runs none of it; everything else is identical.
fn calibration_pass(
    config: &LoadConfig,
    scenario: &Scenario,
    workload: &Arc<Workload>,
    requests: usize,
    instrumented: bool,
) -> f64 {
    let mut serve = ServeConfig::new().queue_capacity(config.clients * 4);
    if instrumented {
        serve = serve.metrics(MetricsRegistry::new()).tracer(bench_tracer());
    }
    let service = PolicyService::start(serve, &scenario.policy, &scenario.vocab);
    let clients_n = config.clients.max(1);
    let per_client = requests / clients_n;
    let start = Instant::now();
    let clients: Vec<_> = (0..clients_n)
        .map(|c| {
            let transport = service.handle();
            let workload = Arc::clone(workload);
            let seed = SEED ^ (0xCA11_B8A7 + c as u64);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut sent = 0usize;
                while sent < per_client {
                    let n = BATCH.min(per_client - sent);
                    let reqs = (0..n).map(|_| workload.request(&mut rng)).collect();
                    transport.decide_batch(reqs).expect("service up");
                    sent += n;
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("calibration client");
    }
    let elapsed = start.elapsed().as_secs_f64();
    service.shutdown();
    (per_client * clients_n) as f64 / elapsed.max(1e-9)
}

/// Runs the load benchmark and returns the measured report.
pub fn run_load(config: LoadConfig) -> LoadReport {
    let scenario = Scenario::community_hospital();
    let registry = MetricsRegistry::new();
    // The measured run is the *instrumented* configuration: the report's
    // throughput includes live metrics and the tail-sampled tracer, and
    // the overhead gate proves that costs <5% against a bare baseline.
    let tracer = bench_tracer();
    let service = PolicyService::start(
        ServeConfig::new()
            .queue_capacity(config.clients * 4)
            .metrics(registry.clone())
            .tracer(tracer.clone()),
        &scenario.policy,
        &scenario.vocab,
    );

    let workload = Workload::of(&scenario, &config);
    let engine = Arc::clone(service.engine());

    // The promoter replays the refinement loop while clients run: one
    // mined rule installed every `promote_every` decisions.
    let stop = Arc::new(AtomicBool::new(false));
    let promotions = Arc::new(AtomicU64::new(0));
    let promoter = if config.promote_every > 0 {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let promotions = Arc::clone(&promotions);
        let decisions = engine.obs().decisions.clone();
        let pool = promotion_pool(&scenario);
        let mut policy = scenario.policy.clone();
        let every = config.promote_every as u64;
        Some(std::thread::spawn(move || {
            let mut next = every;
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                if decisions.get() >= next {
                    policy.push(pool[i % pool.len()].clone());
                    if engine.install_policy(&policy) {
                        promotions.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                    next += every;
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        }))
    } else {
        None
    };

    let per_client = config.requests / config.clients.max(1);
    let remainder = config.requests - per_client * config.clients.max(1);
    let start = Instant::now();
    let clients: Vec<_> = (0..config.clients.max(1))
        .map(|c| {
            let transport = service.handle();
            let engine = Arc::clone(&engine);
            let workload = Arc::clone(&workload);
            let quota = per_client + if c == 0 { remainder } else { 0 };
            let sample_every = config.coherence_sample;
            let seed = SEED.wrapping_add(c as u64);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut tally = ClientTally {
                    checked: 0,
                    skipped: 0,
                    mismatches: 0,
                };
                let mut sent = 0usize;
                while sent < quota {
                    let n = BATCH.min(quota - sent);
                    let reqs: Vec<DecisionRequest> =
                        (0..n).map(|_| workload.request(&mut rng)).collect();
                    let replies = transport
                        .decide_batch(reqs.clone())
                        .expect("service up for the whole run");
                    sent += n;
                    if sample_every > 0 {
                        for (i, reply) in replies.iter().enumerate() {
                            if !(sent + i).is_multiple_of(sample_every) {
                                continue;
                            }
                            // Oracle probe: recompute uncached and compare.
                            let fresh = engine.decide_uncached(&reqs[i]);
                            if fresh.policy_revision != reply.policy_revision {
                                tally.skipped += 1; // raced an install
                            } else {
                                tally.checked += 1;
                                if fresh.verdict != reply.verdict {
                                    tally.mismatches += 1;
                                }
                            }
                        }
                    }
                }
                tally
            })
        })
        .collect();

    let mut checked = 0u64;
    let mut skipped = 0u64;
    let mut mismatches = 0u64;
    for c in clients {
        let t = c.join().expect("client thread");
        checked += t.checked;
        skipped += t.skipped;
        mismatches += t.mismatches;
    }
    let elapsed = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    if let Some(p) = promoter {
        let _ = p.join();
    }

    let obs = engine.obs().clone();
    let qps = obs.decisions.get() as f64 / elapsed.max(1e-9);
    obs.qps.set(qps);
    let latency = obs.decision_latency.snapshot();
    let snapshot = service.shutdown();
    let samples = tracer.sample_stats();

    // Interleaved A/B calibration for the overhead gate: alternate bare
    // and instrumented passes (best-of-N each) so thermal / scheduler
    // drift hits both sides equally rather than biasing whichever ran
    // last.
    let calib_requests = (config.requests / 10).clamp(20_000, 500_000);
    let mut baseline_qps = 0.0f64;
    let mut instrumented_qps = 0.0f64;
    for _ in 0..OVERHEAD_PASSES {
        baseline_qps = baseline_qps.max(calibration_pass(
            &config,
            &scenario,
            &workload,
            calib_requests,
            false,
        ));
        instrumented_qps = instrumented_qps.max(calibration_pass(
            &config,
            &scenario,
            &workload,
            calib_requests,
            true,
        ));
    }

    LoadReport {
        elapsed_secs: elapsed,
        decisions_per_sec: qps,
        decisions: snapshot.decisions,
        allows: obs.allows.get(),
        denials: obs.denials.get(),
        cache_hits: snapshot.cache.hits,
        cache_misses: snapshot.cache.misses,
        invalidations: snapshot.cache.invalidations,
        promotions: promotions.load(Ordering::Relaxed),
        policy_revision: snapshot.policy_revision,
        p50_us: latency.quantile(0.50).unwrap_or(0.0) * 1e6,
        p99_us: latency.quantile(0.99).unwrap_or(0.0) * 1e6,
        coherence_checked: checked,
        coherence_skipped: skipped,
        coherence_mismatches: mismatches,
        baseline_qps,
        instrumented_qps,
        traces_kept: samples.kept_traces,
        traces_dropped: samples.dropped_traces,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_load_run_passes_every_gate() {
        let mut config = LoadConfig::smoke();
        config.requests = 60_000;
        config.promote_every = 20_000;
        config.coherence_sample = 200;
        let report = run_load(config);
        assert_eq!(report.decisions, 60_000);
        assert!(report.invalidations > 0, "promoter must have fired");
        assert!(report.coherence_checked > 0);
        assert_eq!(report.coherence_mismatches, 0);
        assert!(report.passed(), "gates: {:?}", report.gates());
    }
}
