//! The `surge` suite: the overload benchmark of the policy-decision
//! service.
//!
//! Where the `serve` suite measures the happy path (sustained throughput
//! against a cooperative client fleet), this bench measures *graceful
//! degradation*: a mass-casualty burst ([`SurgeProfile::mass_casualty`])
//! offers 10–100× the pool's capacity with an elevated break-the-glass
//! rate, and the report scores the overload contract rather than raw
//! QPS:
//!
//! * **Emergency certainty** — every [`prima_serve::Priority::Emergency`]
//!   request is decided within its deadline: the emergency lane bypasses
//!   the shedder, workers drain it first, and its bounded capacity
//!   clamps queue wait far below the deadline budget.
//! * **Honest shedding** — bulk requests the service cannot serve are
//!   rejected *early* with `SRV-011` (or expired with `SRV-012`), never
//!   silently queued into collapse, never answered with anything else.
//! * **Coherence under pressure** — sampled decided replies still agree
//!   with the uncached oracle; overload must not surface stale verdicts.
//!
//! Capacity is made deliberately scarce: each decision carries a fixed
//! simulated downstream latency ([`ServeConfig::decision_delay`] — a
//! sleep, so it costs no CPU), which fixes `capacity = workers / delay`
//! exactly and lets a single host offer a genuine 10–100× overload.
//!
//! Traffic is two-population, mirroring a real incident: a fleet of
//! *bulk* clients blasts open-throttle (the reporting storm / mass
//! influx), while dedicated *emergency* clients fire break-the-glass
//! requests **paced** at [`SurgeProfile::emergency_share`] of capacity —
//! the elevated exception rate of an incident is driven by clinicians,
//! not by the runaway batch job, so it scales with the hospital, not
//! with the storm.

use crate::report::{Gate, Measured};
use prima_obs::{MetricsRegistry, Tracer};
use prima_serve::{DecisionRequest, DenyReason, PolicyService, ServeConfig, Transport, Verdict};
use prima_vocab::{ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use prima_workload::{Scenario, SurgeProfile, ZipfPopulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bulk client threads blasting the service open-throttle. Enough to
/// saturate admission control, few enough that a small host isn't
/// scheduler-thrashed: the blast rate is CPU-bound, so extra spinning
/// threads only add latency jitter that lands on the emergency
/// deadline. Clients are synchronous (one request in flight each), so
/// the bulk lane can only reach this deep — it must comfortably exceed
/// `shed_threshold + workers` for admission control to engage.
const BULK_CLIENTS: usize = 12;
/// Dedicated emergency client threads (paced, never blasting).
const EMERGENCY_CLIENTS: usize = 4;
/// Emergency-lane capacity (bounds emergency queue wait at
/// `EMERGENCY_CAPACITY × delay / workers`).
const EMERGENCY_CAPACITY: usize = 16;
/// Zipf exponent of the principal population.
const ZIPF: f64 = 1.05;
/// RNG seed.
const SEED: u64 = 42;

/// Surge-run parameters. The burst's shape is the mass-casualty
/// profile: its `emergency_share` is read as the fraction of service
/// *capacity* the paced break-the-glass population consumes.
#[derive(Debug, Clone, Serialize)]
pub struct SurgeConfig {
    /// Deadline budget carried by bulk requests, in microseconds.
    pub bulk_deadline_us: u64,
    /// Deadline budget carried by emergency requests, in microseconds.
    pub emergency_deadline_us: u64,
    /// Simulated principal population.
    pub principals: usize,
    /// Wall-clock length of the burst. Every client — bulk and emergency
    /// — stops offering at the same instant, so the measured offered
    /// rate reflects the storm itself, not a straggler tail of blocked
    /// closed-loop clients draining through the scarce worker.
    pub duration_ms: u64,
    /// Worker threads serving the pool.
    pub workers: usize,
    /// Simulated downstream latency per decision, in microseconds;
    /// fixes capacity at `workers / delay`.
    pub decision_delay_us: u64,
    /// Bulk-lane shed threshold (admission control).
    pub shed_threshold: usize,
    /// Audit one of every this many decided replies against the
    /// uncached oracle (0 = no auditing).
    pub coherence_sample: usize,
    /// Smoke preset marker (smaller volumes; same gates).
    pub smoke: bool,
}

impl Default for SurgeConfig {
    fn default() -> Self {
        let profile = SurgeProfile::mass_casualty();
        Self {
            bulk_deadline_us: profile.bulk_deadline_us,
            emergency_deadline_us: profile.emergency_deadline_us,
            principals: 100_000,
            duration_ms: 10_000,
            workers: 4,
            decision_delay_us: 1_000,
            shed_threshold: 8,
            coherence_sample: 64,
            smoke: false,
        }
    }
}

impl SurgeConfig {
    /// A small preset for CI smoke runs. Capacity is made very scarce
    /// (one worker, 5 ms/decision → 200/s) so even a debug-mode,
    /// single-core client fleet offers a genuine ≥10× surge, and the
    /// deadlines are widened to sit far above OS scheduling jitter.
    pub fn smoke() -> Self {
        Self {
            bulk_deadline_us: 20_000,
            emergency_deadline_us: 250_000,
            principals: 10_000,
            duration_ms: 4_000,
            workers: 1,
            decision_delay_us: 5_000,
            shed_threshold: 4,
            coherence_sample: 8,
            smoke: true,
        }
    }

    /// Known service capacity, decisions per second.
    pub fn capacity_per_sec(&self) -> f64 {
        self.workers as f64 / (self.decision_delay_us as f64 * 1e-6)
    }

    /// Pacing interval per emergency client so the population together
    /// offers `emergency_share × capacity`.
    fn emergency_interval(&self) -> Duration {
        let share = SurgeProfile::mass_casualty().emergency_share;
        let rate = (share * self.capacity_per_sec()).max(1.0);
        Duration::from_secs_f64(EMERGENCY_CLIENTS as f64 / rate)
    }
}

/// Per-lane outcome tallies.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LaneOutcomes {
    /// Requests offered to the lane.
    pub offered: u64,
    /// Requests decided (a real Allow/Deny verdict, within deadline).
    pub decided: u64,
    /// Requests shed with `SRV-011`.
    pub shed: u64,
    /// Requests expired with `SRV-012`.
    pub expired: u64,
    /// Replies with any other shape (worker-crash denials, transport
    /// errors) — must be 0 in a clean surge.
    pub unexpected: u64,
}

impl LaneOutcomes {
    fn absorb(&mut self, other: LaneOutcomes) {
        self.offered += other.offered;
        self.decided += other.decided;
        self.shed += other.shed;
        self.expired += other.expired;
        self.unexpected += other.unexpected;
    }
}

/// What a surge run measured.
#[derive(Debug, Clone, Serialize)]
pub struct SurgeReport {
    /// The configuration that produced this report.
    #[serde(skip)]
    pub config: SurgeConfig,
    /// Wall-clock seconds until the last client finished.
    pub elapsed_secs: f64,
    /// Known service capacity (`workers / decision_delay`).
    pub capacity_per_sec: f64,
    /// Measured offered load: bulk blast rate over the bulk phase plus
    /// the paced emergency rate over the emergency phase.
    pub offered_per_sec: f64,
    /// `offered / capacity` — must be ≥ 10 for the run to count as a
    /// surge.
    pub surge_factor: f64,
    /// Bulk-lane outcomes.
    pub bulk: LaneOutcomes,
    /// Emergency-lane outcomes.
    pub emergency: LaneOutcomes,
    /// Decided replies audited against the uncached oracle.
    pub coherence_checked: u64,
    /// Audited replies that disagreed (must be 0).
    pub coherence_mismatches: u64,
}

impl Measured for SurgeReport {
    const BENCH: &'static str = "serve_surge";

    fn config(&self) -> Value {
        self.config.serialize()
    }

    /// The overload-contract gates.
    fn gates(&self) -> Vec<Gate> {
        vec![
            ("surge_factor_ge_10", self.surge_factor >= 10.0),
            (
                "emergency_all_decided_within_deadline",
                self.emergency.offered > 0 && self.emergency.decided == self.emergency.offered,
            ),
            (
                "bulk_overflow_all_srv011_or_srv012",
                self.bulk.shed > 0 && self.bulk.unexpected == 0 && self.emergency.unexpected == 0,
            ),
            (
                "coherent_under_overload",
                self.coherence_checked > 0 && self.coherence_mismatches == 0,
            ),
        ]
    }
}

struct ClientTally {
    lane: LaneOutcomes,
    elapsed: Duration,
    checked: u64,
    mismatches: u64,
}

/// The request dimensions every client samples from.
struct RequestSpace {
    population: ZipfPopulation,
    roles: Vec<String>,
    ops: Vec<String>,
    purposes: Vec<String>,
}

impl RequestSpace {
    fn sample(&self, rng: &mut StdRng) -> DecisionRequest {
        let rank = self.population.sample(rng);
        DecisionRequest::new(
            &ZipfPopulation::principal_name(rank),
            &self.roles[rank % self.roles.len()],
            &self.ops[rank % self.ops.len()],
            &self.purposes[rank % self.purposes.len()],
            "granted",
        )
    }
}

fn tally_reply(lane: &mut LaneOutcomes, verdict: &Verdict) -> bool {
    match verdict {
        Verdict::Deny(DenyReason::Overloaded) => {
            lane.shed += 1;
            false
        }
        Verdict::Deny(DenyReason::DeadlineExceeded) => {
            lane.expired += 1;
            false
        }
        Verdict::Deny(DenyReason::Internal) => {
            lane.unexpected += 1;
            false
        }
        _ => {
            lane.decided += 1;
            true
        }
    }
}

/// Runs the surge benchmark and returns the measured report.
pub fn run_surge(config: SurgeConfig) -> SurgeReport {
    let scenario = Scenario::community_hospital();
    let service = PolicyService::start(
        ServeConfig::new()
            .workers(config.workers)
            .queue_capacity(config.shed_threshold.max(1) * 2)
            .emergency_capacity(EMERGENCY_CAPACITY)
            .shed_threshold(config.shed_threshold)
            .max_queue_age(Duration::from_micros(config.bulk_deadline_us))
            .decision_delay(Duration::from_micros(config.decision_delay_us))
            .metrics(MetricsRegistry::new())
            .tracer(Tracer::disabled()),
        &scenario.policy,
        &scenario.vocab,
    );

    let leaves = |attr: &str| -> Vec<String> {
        let t = scenario.vocab.attribute(attr).expect("scenario attribute");
        t.all_leaves()
            .iter()
            .map(|&id| t.name(id).to_string())
            .collect()
    };
    let space = Arc::new(RequestSpace {
        population: ZipfPopulation::new(config.principals, ZIPF),
        roles: leaves(ATTR_AUTHORIZED),
        ops: leaves(ATTR_DATA),
        purposes: leaves(ATTR_PURPOSE),
    });
    let engine = Arc::clone(service.engine());

    let start = Instant::now();
    let until = start + Duration::from_millis(config.duration_ms);
    // The storm: bulk clients blast with no pacing; admission control is
    // the only thing standing between them and queueing collapse.
    let bulk_clients: Vec<_> = (0..BULK_CLIENTS)
        .map(|c| {
            let transport = service.handle();
            let engine = Arc::clone(&engine);
            let space = Arc::clone(&space);
            let deadline_us = config.bulk_deadline_us;
            let sample_every = config.coherence_sample;
            let seed = SEED.wrapping_add(c as u64);
            std::thread::spawn(move || {
                let began = Instant::now();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut tally = ClientTally {
                    lane: LaneOutcomes::default(),
                    elapsed: Duration::ZERO,
                    checked: 0,
                    mismatches: 0,
                };
                let mut i = 0usize;
                while Instant::now() < until {
                    let req = space.sample(&mut rng).with_deadline_us(deadline_us);
                    tally.lane.offered += 1;
                    match transport.decide(req.clone()) {
                        Ok(reply) => {
                            let decided = tally_reply(&mut tally.lane, &reply.verdict);
                            if decided && sample_every > 0 && i.is_multiple_of(sample_every) {
                                let fresh = engine.decide_uncached(&req);
                                // The policy is fixed for the burst, so
                                // every sample is comparable.
                                if fresh.policy_revision == reply.policy_revision {
                                    tally.checked += 1;
                                    if fresh.verdict != reply.verdict {
                                        tally.mismatches += 1;
                                    }
                                }
                            }
                        }
                        Err(_) => tally.lane.unexpected += 1,
                    }
                    i += 1;
                }
                tally.elapsed = began.elapsed();
                tally
            })
        })
        .collect();

    // The clinicians: emergency clients paced so the break-the-glass
    // population offers `emergency_share × capacity`, independent of how
    // hard the storm blows.
    let interval = config.emergency_interval();
    let emergency_clients: Vec<_> = (0..EMERGENCY_CLIENTS)
        .map(|c| {
            let transport = service.handle();
            let space = Arc::clone(&space);
            let deadline_us = config.emergency_deadline_us;
            let seed = SEED.wrapping_add(1_000_003 + c as u64);
            std::thread::spawn(move || {
                let began = Instant::now();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut tally = ClientTally {
                    lane: LaneOutcomes::default(),
                    elapsed: Duration::ZERO,
                    checked: 0,
                    mismatches: 0,
                };
                while Instant::now() < until {
                    let req = space
                        .sample(&mut rng)
                        .emergency()
                        .with_deadline_us(deadline_us);
                    tally.lane.offered += 1;
                    match transport.decide(req) {
                        Ok(reply) => {
                            tally_reply(&mut tally.lane, &reply.verdict);
                        }
                        Err(_) => tally.lane.unexpected += 1,
                    }
                    std::thread::sleep(interval);
                }
                tally.elapsed = began.elapsed();
                tally
            })
        })
        .collect();

    let mut bulk = LaneOutcomes::default();
    let mut emergency = LaneOutcomes::default();
    let mut checked = 0u64;
    let mut mismatches = 0u64;
    let mut bulk_phase = Duration::ZERO;
    let mut emergency_phase = Duration::ZERO;
    for client in bulk_clients {
        let t = client.join().expect("surge bulk client");
        bulk.absorb(t.lane);
        bulk_phase = bulk_phase.max(t.elapsed);
        checked += t.checked;
        mismatches += t.mismatches;
    }
    for client in emergency_clients {
        let t = client.join().expect("surge emergency client");
        emergency.absorb(t.lane);
        emergency_phase = emergency_phase.max(t.elapsed);
    }
    let elapsed = start.elapsed().as_secs_f64();
    service.shutdown();

    let capacity = config.capacity_per_sec();
    // Each population's rate over its own phase: the storm's blast rate
    // plus the paced emergency rate (the phases overlap; summing the
    // rates describes the pressure the service was under while both ran).
    let offered = bulk.offered as f64 / bulk_phase.as_secs_f64().max(1e-9)
        + emergency.offered as f64 / emergency_phase.as_secs_f64().max(1e-9);
    SurgeReport {
        elapsed_secs: elapsed,
        capacity_per_sec: capacity,
        offered_per_sec: offered,
        surge_factor: offered / capacity.max(1e-9),
        bulk,
        emergency,
        coherence_checked: checked,
        coherence_mismatches: mismatches,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_surge_run_passes_every_gate() {
        let report = run_surge(SurgeConfig::smoke());
        assert!(
            report.passed(),
            "gates: {:?}\nreport: bulk {:?} emergency {:?} surge_factor {:.1}",
            report.gates(),
            report.bulk,
            report.emergency,
            report.surge_factor,
        );
        // The burst genuinely exceeded capacity and bulk work was shed.
        assert!(report.bulk.shed > 0);
        assert_eq!(report.emergency.decided, report.emergency.offered);
    }
}
