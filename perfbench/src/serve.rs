//! The decision-service workloads: `serve-zipf` (cache-friendly batched
//! traffic) and `serve-republish` (uncached decisions against a large,
//! frequently republished policy).

use std::time::{Duration, Instant};

use prima_model::{Policy, Rule, StoreTag};
use prima_serve::{
    DecisionReply, DecisionRequest, DenyReason, PolicyService, ServeConfig, Transport, Verdict,
};
use prima_vocab::{Vocabulary, ATTR_AUTHORIZED, ATTR_DATA, ATTR_PURPOSE};
use prima_workload::{Scenario, ZipfPopulation};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::report::{Metric, Report, Samples};
use crate::{EndToEnd, Run};

const WORKERS: usize = 1;
const MALFORMED_CONSENT: &str = "malformed-⚠";
/// Set-ups timed per run (start the service with its first policy, then
/// stop it) before the passes; one start takes well under a millisecond,
/// so one sample alone would be mostly scheduler noise.
const SETUPS: usize = 101;
/// Counter reads per snapshot sample: one read takes a fraction of a
/// microsecond, too little to time alone.
const SNAPSHOT_BURST: u32 = 64;

fn leaves(vocab: &Vocabulary, attr: &str) -> Vec<String> {
    let t = vocab.attribute(attr).expect("scenario attribute");
    t.all_leaves()
        .iter()
        .map(|&id| t.name(id).to_string())
        .collect()
}

fn start(policy: &Policy, vocab: &Vocabulary) -> PolicyService {
    PolicyService::start(ServeConfig::new().workers(WORKERS), policy, vocab)
}

fn time_setups(e2e: &mut EndToEnd, policy: &Policy, vocab: &Vocabulary) {
    for _ in 0..SETUPS {
        let t = Instant::now();
        let service = start(policy, vocab);
        e2e.setup.push_s(t.elapsed());
        service.shutdown();
    }
}

/// Milliseconds per read of the service's counters, as a dashboard
/// polls them.
fn snapshot_ms(service: &PolicyService) -> f64 {
    let t = Instant::now();
    for _ in 0..SNAPSHOT_BURST {
        std::hint::black_box(service.snapshot());
    }
    t.elapsed().as_secs_f64() * 1e3 / f64::from(SNAPSHOT_BURST)
}

/// Checks replies against the uncached oracle under the policy the
/// service holds now. A reply stamped with another revision raced an
/// install: it is counted and skipped, not compared.
fn audit_replies(
    service: &PolicyService,
    sampled: &[(DecisionRequest, DecisionReply)],
    report: &mut Report,
) {
    let engine = service.engine();
    let mut skipped = 0u64;
    let mut wrong = 0u64;
    for (req, reply) in sampled {
        if reply.policy_revision != engine.policy_revision() {
            skipped += 1;
            continue;
        }
        if engine.decide_uncached(req).verdict != reply.verdict {
            wrong += 1;
        }
    }
    report.checks.record(
        "serve.sampled_replies_match_uncached",
        sampled.len() as u64 - skipped,
        wrong,
    );
    report
        .checks
        .record("serve.sampled_replies_raced_install", skipped, 0);
}

/// A malformed consent token gets a structural deny, never an error.
fn malformed_ok(reply: &DecisionReply) -> bool {
    reply.verdict == Verdict::Deny(DenyReason::MalformedConsent)
}

// ---------------------------------------------------------------- zipf

const PRINCIPALS: usize = 1_000_000;
const ZIPF: f64 = 1.05;
const BATCH: usize = 64;
/// Batches between promotions (≈250k decisions).
const SEGMENT_BATCHES: usize = 3_906;
const SEGMENTS: usize = 8;
/// One reply in this many is checked against the uncached oracle.
const AUDIT_EVERY: usize = 1_000;
/// Batches between two reads of the service's counters.
const SNAPSHOT_EVERY: usize = 64;

struct ZipfInputs {
    scenario: Scenario,
    population: ZipfPopulation,
    roles: Vec<String>,
    ops: Vec<String>,
    purposes: Vec<String>,
    op_skew: ZipfPopulation,
    purpose_skew: ZipfPopulation,
    promotions: Vec<Rule>,
}

impl ZipfInputs {
    fn new() -> Self {
        let scenario = Scenario::community_hospital();
        let roles = leaves(&scenario.vocab, ATTR_AUTHORIZED);
        let ops = leaves(&scenario.vocab, ATTR_DATA);
        let purposes = leaves(&scenario.vocab, ATTR_PURPOSE);
        // Ward traffic is skewed in what it touches as well as who
        // touches it, which is what concentrates the decision keys.
        let op_skew = ZipfPopulation::new(ops.len(), 1.8);
        let purpose_skew = ZipfPopulation::new(purposes.len(), 1.8);
        let promotions = scenario
            .ground_truth()
            .iter()
            .map(Rule::from_ground)
            .collect();
        Self {
            population: ZipfPopulation::new(PRINCIPALS, ZIPF),
            scenario,
            roles,
            ops,
            purposes,
            op_skew,
            purpose_skew,
            promotions,
        }
    }

    fn request(&self, rng: &mut StdRng) -> DecisionRequest {
        let rank = self.population.sample(rng);
        // A principal keeps one role.
        let role = &self.roles[rank % self.roles.len()];
        let op = &self.ops[self.op_skew.sample(rng)];
        let purpose = &self.purposes[self.purpose_skew.sample(rng)];
        let p: f64 = rng.gen();
        let consent = if p < 0.90 {
            "granted"
        } else if p < 0.95 {
            "opted-out"
        } else if p < 0.99 {
            "unspecified"
        } else {
            MALFORMED_CONSENT
        };
        DecisionRequest::new(
            &ZipfPopulation::principal_name(rank),
            role,
            op,
            purpose,
            consent,
        )
    }

    /// The batches of one segment; the same `(seed, pass, segment)`
    /// always yields the same requests.
    fn segment(&self, seed: u64, pass: u64, segment: usize) -> Vec<Vec<DecisionRequest>> {
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (pass << 16) ^ segment as u64,
        );
        (0..SEGMENT_BATCHES)
            .map(|_| (0..BATCH).map(|_| self.request(&mut rng)).collect())
            .collect()
    }
}

/// Per-batch timings of one zipf pass.
struct ZipfPass {
    decide_s: f64,
    decisions: usize,
    call_us: Vec<f64>,
    /// Engine time of each batch on the twin (traced passes only).
    engine_us: Vec<f64>,
    policy_rules: usize,
}

/// One closed-loop pass: a single client thread sends every segment's
/// batches through the worker pool and installs one promoted rule
/// between segments. A `traced` pass times each call inside a span and
/// replays the same batches and installs through a twin service's
/// `DirectTransport`, timing the engine alone on an identical cache
/// history.
fn zipf_pass(
    run: &mut Run,
    inputs: &ZipfInputs,
    pass: u64,
    e2e: &mut EndToEnd,
    report: &mut Report,
    traced: bool,
) -> (ZipfPass, prima_serve::ServeSnapshot) {
    let service = start(&inputs.scenario.policy, &inputs.scenario.vocab);
    let client = service.handle();
    let twin = traced.then(|| start(&inputs.scenario.policy, &inputs.scenario.vocab));
    let mut policy = inputs.scenario.policy.clone();
    let mut out = ZipfPass {
        decide_s: 0.0,
        decisions: 0,
        call_us: Vec::with_capacity(SEGMENTS * SEGMENT_BATCHES),
        engine_us: Vec::new(),
        policy_rules: 0,
    };
    let mut sampled = Vec::new();
    for segment in 0..SEGMENTS {
        let batches = inputs.segment(run.seed, pass, segment);
        let replay = twin.as_ref().map(|_| batches.clone());
        if segment > 0 {
            policy.push(inputs.promotions[(segment - 1) % inputs.promotions.len()].clone());
            let t = Instant::now();
            let installed = service.install_policy(&policy);
            let install_time = t.elapsed();
            if !traced {
                e2e.install_ms.push_ms(install_time);
            }
            report.checks.expect("serve.install", installed);
            if let Some(twin) = twin.as_ref() {
                report
                    .checks
                    .expect("serve.install", twin.install_policy(&policy));
            }
        }
        let mut failed = 0u64;
        let mut malformed = 0u64;
        let mut malformed_bad = 0u64;
        let start_segment = Instant::now();
        for (b, batch) in batches.into_iter().enumerate() {
            let trace = (pass << 32) | (segment * SEGMENT_BATCHES + b) as u64;
            let probe = (b * BATCH % AUDIT_EVERY < BATCH).then(|| batch[0].clone());
            let flags: u64 = batch
                .iter()
                .enumerate()
                .filter(|(_, r)| r.consent == MALFORMED_CONSENT)
                .fold(0, |acc, (i, _)| acc | 1 << i);
            let t = Instant::now();
            let replies = if traced {
                run.tracer
                    .span("serve.decide_batch", trace, || client.decide_batch(batch))
            } else {
                client.decide_batch(batch)
            };
            let call_us = t.elapsed().as_secs_f64() * 1e6;
            out.call_us.push(call_us);
            if !traced {
                e2e.call_us.push(call_us);
            }
            match replies {
                Ok(replies) if replies.len() == BATCH => {
                    for (i, reply) in replies.iter().enumerate() {
                        if flags >> i & 1 == 1 {
                            malformed += 1;
                            malformed_bad += u64::from(!malformed_ok(reply));
                        }
                    }
                    if let Some(req) = probe {
                        sampled.push((req, replies[0].clone()));
                    }
                }
                _ => failed += BATCH as u64,
            }
            if b % SNAPSHOT_EVERY == 0 {
                let ms = snapshot_ms(&service);
                if !traced {
                    e2e.snapshot_ms.push(ms);
                }
            }
        }
        let segment_time = start_segment.elapsed();
        out.decide_s += segment_time.as_secs_f64();
        out.decisions += SEGMENT_BATCHES * BATCH;
        if !traced {
            e2e.add_work(SEGMENT_BATCHES * BATCH, segment_time);
        }
        report
            .checks
            .record("serve.decide", (SEGMENT_BATCHES * BATCH) as u64, failed);
        report
            .checks
            .record("serve.malformed_consent_denied", malformed, malformed_bad);
        audit_replies(&service, &sampled, report);
        sampled.clear();

        if let (Some(twin), Some(replay)) = (twin.as_ref(), replay) {
            let direct = twin.direct();
            for (b, batch) in replay.into_iter().enumerate() {
                let trace = (pass << 32) | (segment * SEGMENT_BATCHES + b) as u64;
                let t = Instant::now();
                let replies = run
                    .tracer
                    .span("serve.engine_decide", trace, || direct.decide_batch(batch));
                out.engine_us.push(t.elapsed().as_secs_f64() * 1e6);
                report.checks.expect("serve.direct_decide", replies.is_ok());
            }
        }
    }
    drop(client);
    let snap = service.shutdown();
    if let Some(twin) = twin {
        twin.shutdown();
    }
    out.policy_rules = policy.cardinality();
    (out, snap)
}

pub fn run_zipf(run: &mut Run, report: &mut Report) -> Result<EndToEnd, String> {
    report.config("principals", PRINCIPALS);
    report.config("zipf_exponent", ZIPF);
    report.config("batch", BATCH);
    report.config("clients", 1);
    report.config("workers", WORKERS);
    report.config("promote_every_decisions", SEGMENT_BATCHES * BATCH);
    report.config("segments_per_pass", SEGMENTS);
    report.config("loop", "closed");
    let inputs = ZipfInputs::new();
    run.start_measuring();

    let mut e2e = EndToEnd::default();
    time_setups(&mut e2e, &inputs.scenario.policy, &inputs.scenario.vocab);
    let mut untraced_rate = Samples::default();
    let mut traced_rate = Samples::default();
    let mut traced = None;
    let mut pass = 0u64;
    while pass == 0 || run.time_left() {
        let (out, _) = zipf_pass(run, &inputs, pass, &mut e2e, report, false);
        untraced_rate.push(out.decisions as f64 / out.decide_s);
        if run.trace {
            let (out, snap) = zipf_pass(run, &inputs, pass, &mut e2e, report, true);
            traced_rate.push(out.decisions as f64 / out.decide_s);
            traced = Some((out, snap));
        }
        pass += 1;
    }
    report.config("passes", pass);

    if let Some((out, snap)) = traced {
        let mut engine = Samples::default();
        let mut transport = Samples::default();
        for (call, eng) in out.call_us.iter().zip(&out.engine_us) {
            engine.push(*eng);
            transport.push(call - eng);
        }
        let lookups = (snap.cache.hits + snap.cache.misses) as usize;
        report.layers.extend([
            Metric::new(
                "serve.engine_decide_us_p50",
                "us",
                engine.median(),
                engine.len(),
            ),
            Metric::new(
                "serve.engine_decide_us_p99",
                "us",
                engine.quantile(0.99),
                engine.len(),
            ),
            Metric::new(
                "serve.transport_us_p50",
                "us",
                transport.median(),
                transport.len(),
            ),
            Metric::new(
                "serve.cache_hit_ratio",
                "ratio",
                snap.cache.hit_rate(),
                lookups,
            ),
            Metric::new(
                "serve.invalidations",
                "count",
                snap.cache.invalidations as f64,
                1,
            ),
            Metric::new("model.policy_rules", "count", out.policy_rules as f64, 1),
            Metric::new(
                "bench.trace_overhead_pct",
                "%",
                (untraced_rate.mean() / traced_rate.mean() - 1.0) * 100.0,
                traced_rate.len(),
            ),
        ]);
    }
    Ok(e2e)
}

// ----------------------------------------------------------- republish

const POLICY_RULES: usize = 1_000;
const CYCLE_DECISIONS: usize = 600;
const MIN_CYCLES: usize = 20;
/// One decision in this many is checked against the uncached oracle in
/// untraced cycles (traced cycles check every one).
const REPUBLISH_AUDIT_EVERY: usize = 25;
/// Decisions between two reads of the service's counters.
const REPUBLISH_SNAPSHOT_EVERY: usize = 50;
/// Consecutive decides per `call_us` sample, reported per decide. A
/// single decide is a cache hit (a few µs), a covered key that stops at
/// its rule, or a full scan of the policy; the p50 of single calls lies
/// near the edge between those groups and jumps with their mix, while
/// the mean of a burst moves only with the host's speed.
const REPUBLISH_CALL_BURST: usize = 10;

struct RepublishInputs {
    vocab: Vocabulary,
    /// Every `(data, purpose, authorized)` leaf triple, shuffled: the
    /// first `POLICY_RULES` form the initial policy, the next ones are
    /// added one per cycle.
    triples: Vec<(String, String, String)>,
}

impl RepublishInputs {
    fn new(seed: u64) -> Self {
        let vocab = prima_vocab::samples::hospital();
        let mut triples = Vec::new();
        for d in leaves(&vocab, ATTR_DATA) {
            for p in leaves(&vocab, ATTR_PURPOSE) {
                for a in leaves(&vocab, ATTR_AUTHORIZED) {
                    triples.push((d.clone(), p.clone(), a.clone()));
                }
            }
        }
        triples.shuffle(&mut StdRng::seed_from_u64(seed));
        Self { vocab, triples }
    }

    fn rule(&self, i: usize) -> Rule {
        let (d, p, a) = &self.triples[i % self.triples.len()];
        Rule::of(&[(ATTR_DATA, d), (ATTR_PURPOSE, p), (ATTR_AUTHORIZED, a)])
    }

    fn policy(&self) -> Policy {
        Policy::with_rules(
            StoreTag::PolicyStore,
            (0..POLICY_RULES).map(|i| self.rule(i)).collect(),
        )
    }

    /// The requests of one cycle: keys uniform over every leaf triple,
    /// one in a hundred with a malformed consent token.
    fn cycle(&self, seed: u64, cycle: usize) -> Vec<DecisionRequest> {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ cycle as u64);
        (0..CYCLE_DECISIONS)
            .map(|i| {
                let (d, p, a) = &self.triples[rng.gen_range(0..self.triples.len())];
                let consent = if rng.gen::<f64>() < 0.01 {
                    MALFORMED_CONSENT
                } else {
                    "granted"
                };
                DecisionRequest::new(&format!("user-{cycle}-{i}"), a, d, p, consent)
            })
            .collect()
    }
}

/// One pass of "install a revised policy, then decide" cycles until the
/// pass's time is up (at least `MIN_CYCLES`). Traced passes also replay
/// every request through `decide_uncached`.
fn republish_pass(
    run: &mut Run,
    inputs: &RepublishInputs,
    traced: bool,
    until: Instant,
    e2e: &mut EndToEnd,
    report: &mut Report,
    uncached_us: &mut Samples,
) -> (f64, usize, prima_serve::ServeSnapshot, usize) {
    let mut policy = inputs.policy();
    let service = start(&policy, &inputs.vocab);
    let client = service.handle();
    let mut decide_s = 0.0;
    let mut decisions = 0usize;
    let mut cycle = 0usize;
    while cycle < MIN_CYCLES || Instant::now() < until {
        policy.push(inputs.rule(POLICY_RULES + cycle));
        let t = Instant::now();
        let installed = if traced {
            run.tracer.span("serve.install", cycle as u64, || {
                service.install_policy(&policy)
            })
        } else {
            service.install_policy(&policy)
        };
        let install_time = t.elapsed();
        report.checks.expect("serve.install", installed);
        if !traced {
            e2e.install_ms.push_ms(install_time);
        }

        let requests = inputs.cycle(run.seed, cycle);
        let replay = traced.then(|| requests.clone());
        let mut sampled = Vec::new();
        let mut failed = 0u64;
        let mut malformed = 0u64;
        let mut malformed_bad = 0u64;
        let mut burst_us = 0.0;
        let start_cycle = Instant::now();
        for (i, req) in requests.into_iter().enumerate() {
            let trace = ((cycle as u64) << 32) | i as u64;
            let is_malformed = req.consent == MALFORMED_CONSENT;
            let probe = (traced || i % REPUBLISH_AUDIT_EVERY == 0).then(|| req.clone());
            let t = Instant::now();
            let reply = if traced {
                run.tracer
                    .span("serve.decide", trace, || client.decide(req))
            } else {
                client.decide(req)
            };
            let call = t.elapsed();
            match reply {
                Ok(reply) => {
                    if is_malformed {
                        malformed += 1;
                        malformed_bad += u64::from(!malformed_ok(&reply));
                    }
                    if let Some(req) = probe {
                        sampled.push((req, reply));
                    }
                }
                Err(_) => failed += 1,
            }
            if !traced {
                burst_us += call.as_secs_f64() * 1e6;
                if (i + 1) % REPUBLISH_CALL_BURST == 0 {
                    e2e.call_us.push(burst_us / REPUBLISH_CALL_BURST as f64);
                    burst_us = 0.0;
                }
                if i % REPUBLISH_SNAPSHOT_EVERY == 0 {
                    e2e.snapshot_ms.push(snapshot_ms(&service));
                }
            }
        }
        let cycle_time = start_cycle.elapsed();
        decide_s += cycle_time.as_secs_f64();
        decisions += CYCLE_DECISIONS;
        if !traced {
            e2e.add_work(CYCLE_DECISIONS, cycle_time);
        }
        report
            .checks
            .record("serve.decide", CYCLE_DECISIONS as u64, failed);
        report
            .checks
            .record("serve.malformed_consent_denied", malformed, malformed_bad);
        audit_replies(&service, &sampled, report);

        if let Some(replay) = replay {
            let engine = service.engine();
            for (i, req) in replay.iter().enumerate() {
                let trace = ((cycle as u64) << 32) | i as u64;
                let t = Instant::now();
                run.tracer.span("serve.decide_uncached", trace, || {
                    engine.decide_uncached(req)
                });
                uncached_us.push_us(t.elapsed());
            }
        }
        cycle += 1;
    }
    drop(client);
    let snap = service.shutdown();
    (decide_s, decisions, snap, policy.cardinality())
}

pub fn run_republish(run: &mut Run, report: &mut Report) -> Result<EndToEnd, String> {
    let inputs = RepublishInputs::new(run.seed);
    report.config("leaf_triples", inputs.triples.len());
    report.config("policy_rules", POLICY_RULES);
    report.config("decisions_per_cycle", CYCLE_DECISIONS);
    report.config("min_cycles", MIN_CYCLES);
    report.config("clients", 1);
    report.config("workers", WORKERS);
    report.config("loop", "closed");
    let mut e2e = EndToEnd::default();
    run.start_measuring();
    time_setups(&mut e2e, &inputs.policy(), &inputs.vocab);

    // Untraced and traced passes split the run's time.
    let budget = run.remaining();
    let share = if run.trace { budget / 2 } else { budget };
    let mut unused = Samples::default();
    let (decide_s, decisions, _, _) = republish_pass(
        run,
        &inputs,
        false,
        Instant::now() + share,
        &mut e2e,
        report,
        &mut unused,
    );
    let untraced_rate = decisions as f64 / decide_s;
    report.config("cycles", decisions / CYCLE_DECISIONS);

    if run.trace {
        let mut uncached = Samples::default();
        let until = Instant::now() + run.remaining().max(Duration::from_millis(1));
        let (decide_s, decisions, snap, rules) =
            republish_pass(run, &inputs, true, until, &mut e2e, report, &mut uncached);

        let installs: Vec<f64> = run
            .tracer
            .durations("serve.install")
            .iter()
            .map(|&ns| ns as f64 * 1e-6)
            .collect();
        let mut install_ms = Samples::default();
        for v in installs {
            install_ms.push(v);
        }
        let lookups = (snap.cache.hits + snap.cache.misses) as usize;
        report.layers.extend([
            Metric::new(
                "serve.uncached_decide_us_p50",
                "us",
                uncached.median(),
                uncached.len(),
            ),
            Metric::new(
                "serve.uncached_decide_us_p99",
                "us",
                uncached.quantile(0.99),
                uncached.len(),
            ),
            Metric::new(
                "serve.install_ms",
                "ms",
                install_ms.median(),
                install_ms.len(),
            ),
            Metric::new(
                "serve.cache_hit_ratio",
                "ratio",
                snap.cache.hit_rate(),
                lookups,
            ),
            Metric::new("model.policy_rules", "count", rules as f64, 1),
            Metric::new(
                "bench.trace_overhead_pct",
                "%",
                (untraced_rate / (decisions as f64 / decide_s) - 1.0) * 100.0,
                1,
            ),
        ]);
    }
    Ok(e2e)
}
