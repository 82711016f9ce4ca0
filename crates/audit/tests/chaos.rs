//! Chaos suite for the resilience layer, on the same fixed seed matrix
//! as the stream chaos suite (CI's `chaos` job).
//!
//! Each seed synthesizes a multi-site trail, wraps the sites in
//! fault-scripted sources (outages, intermittency, truncated tails,
//! corruption — composed), and drives consolidation rounds. Invariants:
//! the completeness interval derived from [`FederationHealth`] always
//! contains the true coverage computed over the full (fault-free)
//! trail, transient outages converge back to full observation, and the
//! whole run is deterministic — replaying a seed reproduces every
//! health report verbatim. Gated behind the `chaos` feature:
//! `cargo test -p prima-audit --features chaos`.
#![cfg(feature = "chaos")]

use prima_audit::{
    AuditEntry, AuditStore, FaultySource, FederationHealth, ResilientFederation, SourceFaults,
};
use prima_model::samples::figure_3_policy_store;
use prima_model::{CompletenessBound, CoverageEngine, GroundRule};
use prima_vocab::samples::figure_1;

const SEEDS: [u64; 8] = [11, 23, 47, 101, 977, 6151, 52_361, 999_983];

const DATA: &[&str] = &["referral", "prescription", "psychiatry", "address", "claim"];
const PURPOSE: &[&str] = &["treatment", "registration", "billing", "research"];
const AUTH: &[&str] = &["physician", "nurse", "clerk"];

/// Tiny deterministic generator (LCG) so the suite needs no RNG crate
/// features and every seed replays exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn synth_store(name: &str, n: usize, rng: &mut Lcg) -> AuditStore {
    let store = AuditStore::new(name);
    for i in 0..n {
        let d = DATA[(rng.next() as usize) % DATA.len()];
        let p = PURPOSE[(rng.next() as usize) % PURPOSE.len()];
        let a = AUTH[(rng.next() as usize) % AUTH.len()];
        let user = format!("u{}", rng.next() % 6);
        store
            .append(&AuditEntry::regular(i as i64 * 3, &user, d, p, a))
            .unwrap();
    }
    store
}

/// One ground rule per entry of the degraded view: every source's last
/// good fetch.
fn kept_rules(fed: &ResilientFederation) -> Vec<GroundRule> {
    fed.stores().flat_map(AuditStore::ground_rules).collect()
}

/// One consolidation round's outcome: the health report plus the
/// completeness bound for the degraded view's coverage at that moment.
struct RoundOutcome {
    health: FederationHealth,
    bound: CompletenessBound,
}

/// Builds the federation for `seed` and runs `rounds` consolidation
/// rounds. Returns the per-round outcomes and the true entry coverage
/// over the complete fault-free trail.
fn run_seed(seed: u64, rounds: usize) -> (Vec<RoundOutcome>, f64) {
    let mut rng = Lcg(seed);
    let site_a = synth_store("site-a", 20 + (seed % 20) as usize, &mut rng);
    let site_b = synth_store("site-b", 15 + (seed % 10) as usize, &mut rng);
    let site_c = synth_store("site-c", 10 + (seed % 5) as usize, &mut rng);

    let vocab = figure_1();
    let policy = figure_3_policy_store();
    let grounds: Vec<GroundRule> = [&site_a, &site_b, &site_c]
        .iter()
        .flat_map(|s| s.ground_rules())
        .collect();
    let truth = CoverageEngine::default()
        .entry_coverage(&policy, &grounds, &vocab)
        .ratio();

    // Composed fault scripts, placed by seed. site-a stays healthy so
    // some slice of the trail is always observable.
    let b_faults = SourceFaults::none()
        .fail_first_attempts(seed % 9)
        .truncate_to(site_b.len().saturating_sub((seed % 4) as usize));
    let c_faults = if seed % 10 < 3 {
        SourceFaults::none().permanently_down()
    } else {
        SourceFaults::none()
            .fail_first_attempts(seed % 5)
            .corrupt_every(2 + (seed % 5) as usize)
    };

    let mut fed = ResilientFederation::default();
    fed.attach(Box::new(FaultySource::new(
        site_a.clone(),
        SourceFaults::none(),
    )))
    .unwrap();
    fed.attach(Box::new(FaultySource::new(site_b.clone(), b_faults)))
        .unwrap();
    fed.attach(Box::new(FaultySource::new(site_c.clone(), c_faults)))
        .unwrap();

    let mut outcomes = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let health = fed.sync();
        let observed = CoverageEngine::default().entry_coverage(&policy, &kept_rules(&fed), &vocab);
        let bound = health.bound_for(observed.covered_entries, observed.total_entries);
        outcomes.push(RoundOutcome { health, bound });
    }
    (outcomes, truth)
}

#[test]
fn completeness_interval_always_contains_the_truth() {
    for seed in SEEDS {
        let (outcomes, truth) = run_seed(seed, 10);
        for o in &outcomes {
            assert!(
                o.bound.contains(truth),
                "seed {seed} round {}: truth {truth} outside [{}, {}]",
                o.health.round,
                o.bound.lower,
                o.bound.upper
            );
        }
    }
}

#[test]
fn transient_outages_converge_and_gaps_stay_accounted() {
    for seed in SEEDS {
        let (outcomes, truth) = run_seed(seed, 12);
        let last = outcomes.last().unwrap();
        assert!(last.bound.contains(truth), "seed {seed}: converged bound");
        // Quarantined records are a labeled subset of the missing gap,
        // never double-counted on top of it.
        assert!(
            last.health.missing_entries() >= last.health.quarantined_entries(),
            "seed {seed}: quarantine exceeded the accounted gap"
        );
        // Observation is monotone once retries clear: the last round
        // sees at least as much as the first.
        assert!(
            last.health.observed_entries() >= outcomes[0].health.observed_entries(),
            "seed {seed}: observation regressed"
        );
    }
}

#[test]
fn purely_transient_faults_recover_to_exact_coverage() {
    // A dedicated scenario with only an intermittent source: once its
    // retries clear, the federation must report all-healthy and the
    // bound must collapse to a point.
    let mut rng = Lcg(7);
    let site = synth_store("site-solo", 25, &mut rng);
    let mut fed = ResilientFederation::default();
    fed.attach(Box::new(FaultySource::new(
        site,
        SourceFaults::none().fail_first_attempts(6),
    )))
    .unwrap();
    let mut health = fed.sync();
    let mut rounds = 1;
    while !health.all_healthy() {
        assert!(rounds < 32, "never converged: {health}");
        health = fed.sync();
        rounds += 1;
    }
    let policy = figure_3_policy_store();
    let vocab = figure_1();
    let observed = CoverageEngine::default().entry_coverage(&policy, &kept_rules(&fed), &vocab);
    let bound = health.bound_for(observed.covered_entries, observed.total_entries);
    assert!(bound.is_exact());
    assert_eq!(kept_rules(&fed).len(), 25);
}

#[test]
fn replaying_a_seed_reproduces_every_health_report() {
    for seed in SEEDS {
        let (first, truth_a) = run_seed(seed, 8);
        let (second, truth_b) = run_seed(seed, 8);
        assert_eq!(truth_a, truth_b, "seed {seed}: trail synthesis diverged");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.health, b.health, "seed {seed}: health diverged on replay");
            assert_eq!(a.bound, b.bound, "seed {seed}: bound diverged on replay");
        }
    }
}
