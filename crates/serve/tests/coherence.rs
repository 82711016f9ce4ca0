//! Cache-coherence property test (the serving layer's core contract).
//!
//! Oracle: for ANY interleaving of decisions, refinement promotions, and
//! gated overturns, a decision served through the sharded cache must be
//! identical — verdict and policy revision — to a fresh decision
//! computed with the cache bypassed. Equivalently: after a revision
//! bump, no stale verdict survives; the very next decision reflects the
//! installed policy.
//!
//! The promotion path is the real one, not a mock: candidates flow
//! through `ReviewQueue::propose` → accept → `apply_accepted_gated`
//! against a `SafetyGate`, so both revision-bump sites (rule promotion
//! and PA005 overturn) feed the engine exactly as `PrimaSystem` does.

use prima_analyze::SafetyGate;
use prima_mining::Pattern;
use prima_model::{GroundRule, Policy, Rule, StoreTag};
use prima_refine::{CandidateState, ReviewQueue};
use prima_serve::{DecisionEngine, DecisionRequest, ServeObs};
use prima_vocab::samples::figure_1;
use proptest::prelude::*;
use std::sync::Arc;

/// Decision-dimension values the interleaving draws from: ground leaves
/// plus a few hostile tokens (unknown concepts, empty, junk consent).
const ROLES: &[&str] = &["physician", "nurse", "clerk", "registrar", "janitor", ""];
const OPS: &[&str] = &[
    "prescription",
    "referral",
    "lab-result",
    "psychiatry",
    "claim",
    "badge-scan",
];
const PURPOSES: &[&str] = &[
    "treatment",
    "registration",
    "billing",
    "telemarketing",
    "research",
    "surfing",
];
const CONSENTS: &[&str] = &["granted", "opted-out", "unspecified", "on-file?"];

/// Ground rules the safety gate ADMITS (inside the medical envelope):
/// promoting one adds a rule and bumps the revision.
const PROMOTABLE: &[(&str, &str, &str)] = &[
    ("referral", "treatment", "nurse"),
    ("lab-result", "treatment", "physician"),
    ("psychiatry", "treatment", "physician"),
    ("prescription", "registration", "nurse"),
];

/// Ground rules the gate REFUSES (outside the envelope): accepting one
/// is overturned by `apply_accepted_gated` — no rule text changes, but
/// the revision still bumps (the promotion was briefly "accepted").
const OVERTURNED: &[(&str, &str, &str)] = &[
    ("claim", "telemarketing", "clerk"),
    ("address", "research", "registrar"),
    ("insurance", "billing", "nurse"),
];

fn base_policy() -> Policy {
    Policy::with_rules(
        StoreTag::PolicyStore,
        vec![
            Rule::of(&[
                ("data", "general-care"),
                ("purpose", "treatment"),
                ("authorized", "nurse"),
            ]),
            Rule::of(&[
                ("data", "demographic"),
                ("purpose", "registration"),
                ("authorized", "registrar"),
            ]),
        ],
    )
}

/// The refinement-safety envelope: anything medical for healthcare
/// administration by medical staff, plus the registrar's registration
/// lane. `PROMOTABLE` rules are inside; `OVERTURNED` rules are not.
fn gate() -> SafetyGate {
    let envelope = Policy::with_rules(
        StoreTag::PolicyStore,
        vec![
            Rule::of(&[
                ("data", "medical"),
                ("purpose", "administering-healthcare"),
                ("authorized", "medical-staff"),
            ]),
            Rule::of(&[
                ("data", "demographic"),
                ("purpose", "registration"),
                ("authorized", "registrar"),
            ]),
        ],
    );
    SafetyGate::new(envelope, &figure_1())
}

fn ground(spec: (&str, &str, &str)) -> GroundRule {
    GroundRule::of(&[
        ("data", spec.0),
        ("purpose", spec.1),
        ("authorized", spec.2),
    ])
}

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Decide `(role, op, purpose, consent)` (indices into the pools).
    Decide(usize, usize, usize, usize),
    /// Run a full review round promoting `PROMOTABLE[i]`.
    Promote(usize),
    /// Run a full review round whose accepted candidate `OVERTURNED[i]`
    /// is overturned by the gate.
    Overturn(usize),
}

/// Decides ~2/3 of the time; the rest splits between promotion and
/// overturn rounds. (The vendored proptest has no `prop_oneof`, so the
/// variant choice rides along as the first tuple element.)
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0..6usize,
        0..ROLES.len(),
        0..OPS.len(),
        (0..PURPOSES.len(), 0..CONSENTS.len()),
    )
        .prop_map(|(kind, r, o, (p, c))| match kind {
            0..=3 => Op::Decide(r, o, p, c),
            4 => Op::Promote(r % PROMOTABLE.len()),
            _ => Op::Overturn(r % OVERTURNED.len()),
        })
}

/// Runs one review round through the real refine machinery and installs
/// the result into the engine. Returns whether the install took effect.
fn review_round(
    queue: &mut ReviewQueue,
    policy: &mut Policy,
    gate: &SafetyGate,
    engine: &DecisionEngine,
    rule: GroundRule,
    round: usize,
) -> bool {
    queue.propose(vec![Pattern::new(rule, 40, 4)], round);
    queue.accept_all_pending();
    let vocab = figure_1();
    queue.apply_accepted_gated(policy, gate, &vocab);
    engine.install_policy(policy)
}

/// Strips the cache-provenance flag so replies from the cached and
/// uncached paths compare on the decision alone.
fn normal(mut reply: prima_serve::DecisionReply) -> prima_serve::DecisionReply {
    reply.cached = false;
    reply
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The coherence oracle under arbitrary interleavings.
    #[test]
    fn cached_decision_always_equals_fresh_decision(
        ops in collection::vec(op_strategy(), 1..80),
    ) {
        let vocab = Arc::new(figure_1());
        let mut policy = base_policy();
        let engine = DecisionEngine::new(&policy, Arc::clone(&vocab), None, ServeObs::disabled());
        let gate = gate();
        let mut queue = ReviewQueue::new();
        let mut round = 0usize;

        for op in &ops {
            match *op {
                Op::Decide(r, o, p, c) => {
                    let req = DecisionRequest::new(
                        "prop-principal", ROLES[r], OPS[o], PURPOSES[p], CONSENTS[c],
                    );
                    // Decide twice through the cache (miss then hit) and
                    // once uncached; all three must agree exactly on the
                    // decision. The `cached` provenance flag is *meant*
                    // to differ between the paths, so the oracle
                    // normalises it away before comparing.
                    let first = normal(engine.decide(&req));
                    let second = normal(engine.decide(&req));
                    let fresh = normal(engine.decide_uncached(&req));
                    prop_assert_eq!(&first, &fresh, "cold path diverged for {:?}", req);
                    prop_assert_eq!(&second, &fresh, "warm path diverged for {:?}", req);
                    prop_assert_eq!(fresh.policy_revision, policy.revision());
                }
                Op::Promote(i) => {
                    round += 1;
                    review_round(&mut queue, &mut policy, &gate, &engine,
                                 ground(PROMOTABLE[i]), round);
                    prop_assert_eq!(engine.policy_revision(), policy.revision());
                }
                Op::Overturn(i) => {
                    round += 1;
                    review_round(&mut queue, &mut policy, &gate, &engine,
                                 ground(OVERTURNED[i]), round);
                    prop_assert_eq!(engine.policy_revision(), policy.revision());
                }
            }
        }

        // Exhaustive sweep at the end: every key in the decision space
        // agrees between the (now well-populated) cache and the oracle.
        for role in ROLES {
            for data in OPS {
                for purpose in PURPOSES {
                    for consent in CONSENTS {
                        let req = DecisionRequest::new("sweep", role, data, purpose, consent);
                        let cached = normal(engine.decide(&req));
                        let fresh = normal(engine.decide_uncached(&req));
                        prop_assert_eq!(&cached, &fresh, "sweep diverged for {:?}", req);
                    }
                }
            }
        }
    }

    /// After a promotion round that admits a rule, the next cached
    /// decision on that exact triple MUST be Allow — no stale denial may
    /// survive the revision bump (and conversely the overturned rule
    /// must stay denied).
    #[test]
    fn promoted_rule_is_visible_to_the_very_next_decision(
        warmup in collection::vec(
            (0..ROLES.len(), 0..OPS.len(), 0..PURPOSES.len()),
            0..40,
        ),
        promote_idx in 0..PROMOTABLE.len(),
        overturn_idx in 0..OVERTURNED.len(),
    ) {
        let vocab = Arc::new(figure_1());
        let mut policy = base_policy();
        let engine = DecisionEngine::new(&policy, Arc::clone(&vocab), None, ServeObs::disabled());
        let gate = gate();
        let mut queue = ReviewQueue::new();

        // Warm the cache with arbitrary traffic (all consent granted so
        // cache slots fill with policy verdicts).
        for &(r, o, p) in &warmup {
            let req = DecisionRequest::new("w", ROLES[r], OPS[o], PURPOSES[p], "granted");
            engine.decide(&req);
        }

        let spec = PROMOTABLE[promote_idx];
        let target = DecisionRequest::new("t", spec.2, spec.0, spec.1, "granted");
        let before = engine.decide(&target);

        review_round(&mut queue, &mut policy, &gate, &engine, ground(spec), 1);
        let after = engine.decide(&target);
        prop_assert!(after.verdict.is_allow(),
            "promoted {:?} must allow immediately (before: {:?})", spec, before.verdict);
        prop_assert_eq!(after.policy_revision, policy.revision());

        // And an overturned candidate must NOT become visible.
        let ospec = OVERTURNED[overturn_idx];
        let otarget = DecisionRequest::new("t", ospec.2, ospec.0, ospec.1, "granted");
        review_round(&mut queue, &mut policy, &gate, &engine, ground(ospec), 2);
        let overturned = engine.decide(&otarget);
        prop_assert!(!overturned.verdict.is_allow(),
            "overturned {:?} must stay denied", ospec);
        prop_assert_eq!(overturned.policy_revision, policy.revision());
        // The overturn decided the candidate: it is Rejected, not pending.
        prop_assert!(queue.candidates().iter().any(|c|
            c.state == CandidateState::Rejected));
    }
}

/// A cache hit racing a policy install must reply with the revision that
/// computed its verdict. The installer alternates two policies whose
/// verdicts on one request differ by revision parity (the physician's
/// psychiatry read is allowed at odd revisions only), so any reply whose
/// verdict and revision disagree on parity carries a verdict stamped
/// with a revision that did not compute it.
#[test]
fn concurrent_hits_reply_with_the_revision_that_computed_them() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const INSTALLS: u64 = 20_000;
    let target = ("psychiatry", "treatment", "physician");
    // Indexed by revision parity; each advances by two per install.
    let mut policies = [base_policy(), base_policy()];
    policies[1].push(Rule::from_ground(&ground(target)));
    let engine = DecisionEngine::new(
        &policies[0],
        Arc::new(figure_1()),
        None,
        ServeObs::disabled(),
    );
    let done = AtomicBool::new(false);

    let (wrong, replies, hits) = std::thread::scope(|s| {
        let deciders: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let req = DecisionRequest::new("p", target.2, target.0, target.1, "granted");
                    let (mut wrong, mut replies, mut hits) = (0u64, 0u64, 0u64);
                    while !done.load(Ordering::Acquire) {
                        let reply = engine.decide(&req);
                        replies += 1;
                        hits += u64::from(reply.cached);
                        wrong +=
                            u64::from(reply.verdict.is_allow() != (reply.policy_revision % 2 == 1));
                    }
                    (wrong, replies, hits)
                })
            })
            .collect();
        for revision in 1..=INSTALLS {
            let next = &mut policies[(revision % 2) as usize];
            while next.revision() < revision {
                next.touch();
            }
            assert!(engine.install_policy(next), "revision {revision} installs");
        }
        done.store(true, Ordering::Release);
        deciders
            .into_iter()
            .map(|d| d.join().unwrap())
            .fold((0, 0, 0), |acc, r| (acc.0 + r.0, acc.1 + r.1, acc.2 + r.2))
    });
    assert!(hits > 0, "the race needs cache hits ({replies} replies)");
    assert_eq!(
        wrong, 0,
        "{wrong} of {replies} replies paired a verdict with the wrong revision"
    );
}
