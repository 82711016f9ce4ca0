//! Seeded chaos suite: drives a small [`PolicyService`] through
//! composable transport-fault scripts ([`FaultyTransport`]) concurrently
//! with policy installs — including invalid ones — and asserts the
//! overload/supervision contract end to end:
//!
//! * the service never deadlocks (each seed completes under a watchdog);
//! * it never answers a stale or fabricated `Allow`: every sampled
//!   `Allow` reply agrees with the uncached oracle at the same revision;
//! * injected worker panics are contained (the client gets a fail-closed
//!   `SRV-010`, the supervisor respawns the worker);
//! * after faults cease the service recovers to full health and installs
//!   flow again.
//!
//! Run via the `chaos-serve` CI job: one seed per matrix entry,
//! `cargo test -p prima-serve --features chaos -- seed_<n>`.

#![cfg(feature = "chaos")]

use prima_audit::{BreakerConfig, BreakerState};
use prima_model::Rule;
use prima_obs::{FlightRecorder, MetricsRegistry, SamplePolicy, Tracer};
use prima_serve::{
    DecisionRequest, DenyReason, FaultyTransport, PolicyService, ServeConfig, ServeError,
    Transport, TransportFaults, Verdict,
};
use prima_vocab::{ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use prima_workload::{Scenario, ZipfPopulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

const PANIC_TOKEN: &str = "☠-chaos";

/// Silences the injected-panic backtraces (they are expected by the
/// hundreds here) while leaving every other panic loud.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected worker panic"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected worker panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

struct RequestSpace {
    population: ZipfPopulation,
    roles: Vec<String>,
    ops: Vec<String>,
    purposes: Vec<String>,
}

impl RequestSpace {
    fn of(scenario: &Scenario) -> Self {
        let leaves = |attr: &str| -> Vec<String> {
            let t = scenario.vocab.attribute(attr).expect("scenario attribute");
            t.all_leaves()
                .iter()
                .map(|&id| t.name(id).to_string())
                .collect()
        };
        Self {
            population: ZipfPopulation::new(5_000, 1.05),
            roles: leaves(ATTR_AUTHORIZED),
            ops: leaves(ATTR_DATA),
            purposes: leaves(ATTR_PURPOSE),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> DecisionRequest {
        let rank = self.population.sample(rng);
        let req = DecisionRequest::new(
            &ZipfPopulation::principal_name(rank),
            &self.roles[rank % self.roles.len()],
            &self.ops[rank % self.ops.len()],
            &self.purposes[rank % self.purposes.len()],
            if rng.gen::<f64>() < 0.9 {
                "granted"
            } else {
                "opted-out"
            },
        );
        // A mix of lanes and budgets, like real traffic under incident.
        match rng.gen_range(0..10) {
            0 => req.emergency().with_deadline_us(50_000),
            1..=2 => req.with_deadline_us(10_000),
            _ => req,
        }
    }
}

/// One full chaos round for a seed. The closure body is itself run under
/// a watchdog by the caller, so a deadlock fails the test rather than
/// wedging it.
fn chaos_round(seed: u64) {
    let scenario = Scenario::community_hospital();
    // The black box rides along: a tail-sampled tracer whose flight
    // recorder the incident paths (worker panic, breaker open, degraded
    // entry) dump automatically.
    let flight = FlightRecorder::new(512);
    let tracer = Tracer::configured(Some(SamplePolicy::keep_1_in(64)), flight.clone());
    let service = PolicyService::start(
        ServeConfig::new()
            .workers(3)
            .shed_threshold(64)
            .max_queue_age(Duration::from_millis(50))
            .panic_token(PANIC_TOKEN)
            .supervision_interval(Duration::from_millis(1))
            .breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown_rounds: 5,
            })
            .metrics(MetricsRegistry::new())
            .tracer(tracer),
        &scenario.policy,
        &scenario.vocab,
    );
    let engine = Arc::clone(service.engine());
    let space = Arc::new(RequestSpace::of(&scenario));

    // The promoter races installs — valid ones (mined ground rules) and
    // invalid ones (unknown concepts) — against the fault storm, so the
    // degraded/pinned transitions happen *while* workers crash.
    let stop = Arc::new(AtomicBool::new(false));
    let promoter = {
        let service_engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let pool: Vec<Rule> = scenario
            .ground_truth()
            .iter()
            .map(Rule::from_ground)
            .collect();
        let mut policy = scenario.policy.clone();
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                if i % 3 == 2 {
                    // Poisoned install: must reject and pin, not corrupt.
                    let mut bad = policy.clone();
                    bad.push(Rule::of(&[
                        (ATTR_DATA, "chaos-unknown-⚠"),
                        (ATTR_PURPOSE, "treatment"),
                        (ATTR_AUTHORIZED, "nurse"),
                    ]));
                    let _ = service_engine.try_install_policy(&bad);
                } else {
                    policy.push(pool[i % pool.len()].clone());
                    let _ = service_engine.try_install_policy(&policy);
                }
                i += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let transport = FaultyTransport::new(
                service.handle(),
                TransportFaults::none()
                    .drop_every(5 + seed % 7)
                    .delay_every(7 + seed % 5, Duration::from_micros(200))
                    .duplicate_every(11 + seed % 5)
                    .panic_every(59 + seed % 13, PANIC_TOKEN)
                    .phase(seed.wrapping_mul(c + 1) % 17),
            );
            let engine = Arc::clone(&engine);
            let space = Arc::clone(&space);
            let seed = seed.wrapping_add(c);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut allow_mismatches = 0u64;
                for _ in 0..1_500 {
                    let req = space.sample(&mut rng);
                    match transport.decide(req.clone()) {
                        // Fail-closed audit: an Allow must agree with the
                        // uncached oracle at the same revision — chaos
                        // must never fabricate permission.
                        Ok(reply) if reply.verdict == Verdict::Allow => {
                            let fresh = engine.decide_uncached(&req);
                            if fresh.policy_revision == reply.policy_revision
                                && fresh.verdict != Verdict::Allow
                            {
                                allow_mismatches += 1;
                            }
                        }
                        // Denials (including SRV-010/011/012) and
                        // injected drops are all legitimate under chaos.
                        Ok(_) => {}
                        Err(ServeError::Dropped) => {}
                        Err(ServeError::Closed) => panic!("service closed mid-chaos"),
                    }
                }
                allow_mismatches
            })
        })
        .collect();

    let mut allow_mismatches = 0u64;
    for client in clients {
        allow_mismatches += client.join().expect("chaos client finished");
    }
    assert_eq!(
        allow_mismatches, 0,
        "an Allow disagreed with the uncached oracle (seed {seed})"
    );
    stop.store(true, Ordering::Release);
    promoter.join().expect("promoter finished");

    // The fault scripts guarantee panics actually fired …
    let mid = service.health();
    assert!(
        mid.worker_panics > 0,
        "panic injection never fired (seed {seed})"
    );
    assert!(
        mid.worker_restarts > 0,
        "supervisor never respawned a worker (seed {seed})"
    );
    // … and the incidents dumped the flight recorder as they happened
    // (worker panics, breaker openings, degraded entries all trigger).
    assert!(
        mid.flight_dumps > 0,
        "incidents never dumped the flight recorder (seed {seed})"
    );

    // … and once faults cease, the service must recover to full health.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let health = service.health();
        if health.breaker == BreakerState::Closed
            && health.workers_alive == health.workers_configured
            && !health.installs_held
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "service never recovered after faults ceased (seed {seed}): {health:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // A clean install and a clean decision both flow again.
    let mut restored = scenario.policy.clone();
    restored.push(Rule::from_ground(&scenario.ground_truth()[0]));
    service
        .try_install_policy(&restored)
        .expect("install flows after recovery");
    let probe = space.sample(&mut StdRng::seed_from_u64(seed));
    let reply = service.handle().decide(probe.clone()).expect("service up");
    assert!(
        !matches!(
            reply.verdict,
            Verdict::Deny(DenyReason::Internal | DenyReason::Overloaded)
        ),
        "recovered service still failing (seed {seed}): {reply:?}"
    );
    // Black-box postmortem: one last seeded panic on the quiet service,
    // then read the dump it must have produced. It carries the panicking
    // request's own worker span (the triggering trace, marked in JSONL).
    // The supervisor may dump an incident of its own after it: a
    // `breaker_open` when this crash completes the breaker's failure
    // streak. So the panic's dump is looked up among the dumps made since
    // the boom, not taken as the latest.
    let boom = DecisionRequest {
        principal: PANIC_TOKEN.into(),
        ..space.sample(&mut StdRng::seed_from_u64(seed))
    };
    let dumps_before = flight.dump_count();
    let reply = service.handle().decide(boom).expect("service up");
    assert_eq!(
        reply.verdict,
        Verdict::Deny(DenyReason::Internal),
        "seeded panic answers fail-closed (seed {seed})"
    );
    let made = (flight.dump_count() - dumps_before) as usize;
    let dumps = flight.dumps();
    let dump = dumps[dumps.len().saturating_sub(made)..]
        .iter()
        .find(|d| d.trigger == "worker_panic")
        .unwrap_or_else(|| panic!("the panic dumped no black box (seed {seed})"));
    assert_ne!(dump.trace_id, 0, "panicking request was traced");
    assert!(
        dump.records.iter().any(|r| {
            r.trace_id == dump.trace_id
                && r.name == "serve.worker"
                && r.fields.iter().any(|(k, v)| k == "outcome" && v == "panic")
        }),
        "dump lacks the panicking worker span (seed {seed})"
    );
    assert!(
        dump.to_jsonl().contains("\"marked\":true"),
        "triggering trace is marked in the JSONL replay (seed {seed})"
    );
    service.shutdown();
}

/// Runs a chaos round under a deadlock watchdog.
fn chaos_seed(seed: u64) {
    quiet_injected_panics();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let round = std::thread::spawn(move || {
        chaos_round(seed);
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => round.join().expect("chaos round"),
        // Disconnected: the round panicked — join to surface the real
        // assertion. Timeout: a genuine deadlock.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            round.join().expect("chaos round failed");
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("chaos round deadlocked (seed {seed})")
        }
    }
}

#[test]
fn seed_11() {
    chaos_seed(11);
}

#[test]
fn seed_23() {
    chaos_seed(23);
}

#[test]
fn seed_47() {
    chaos_seed(47);
}

#[test]
fn seed_101() {
    chaos_seed(101);
}

#[test]
fn seed_977() {
    chaos_seed(977);
}

#[test]
fn seed_6151() {
    chaos_seed(6151);
}

#[test]
fn seed_52361() {
    chaos_seed(52361);
}

#[test]
fn seed_999983() {
    chaos_seed(999983);
}
