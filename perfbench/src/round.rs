//! `round-300k`: three auto-accept refinement rounds (Figure 4,
//! Algorithms 1–2) over a federated community-hospital trail.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use prima_audit::{AuditEntry, AuditStore, NoViolations};
use prima_core::{PrimaSystem, ReviewMode, RoundRecord};
use prima_mining::{Miner, SqlMiner};
use prima_model::{CoverageEngine, GroundRule, PolicyMatcher};
use prima_refine::extract::practice_table;
use prima_refine::filter::filter_with;
use prima_refine::prune::prune;
use prima_refine::ReviewQueue;
use prima_workload::{Scenario, SimConfig};

use crate::report::{Metric, Report, Samples};
use crate::{EndToEnd, Run};

const ENTRIES: usize = 300_000;
const SITES: usize = 4;
const ROUNDS: usize = 3;
/// Matcher compilations per install sample (one compile takes about
/// 0.1 ms, too little to time alone).
const INSTALL_BURST: u32 = 200;

/// The layer spans of one traced round, in the order `run_round` calls
/// them. Their self times are the per-layer figures.
const LAYERS: [&str; 8] = [
    "audit.consolidate",
    "model.ground",
    "model.coverage",
    "refine.filter",
    "store.practice_table",
    "mining.mine",
    "refine.prune",
    "refine.review",
];

struct Inputs {
    scenario: Scenario,
    sites: Vec<Vec<AuditEntry>>,
}

fn generate(seed: u64) -> Inputs {
    let scenario = Scenario::community_hospital();
    let labeled = scenario.simulator().generate(&SimConfig {
        seed,
        n_entries: ENTRIES,
        ..SimConfig::default()
    });
    let mut sites = vec![Vec::new(); SITES];
    for (i, l) in labeled.into_iter().enumerate() {
        sites[i % SITES].push(l.entry);
    }
    Inputs { scenario, sites }
}

/// Fills one store per site and registers it with a fresh system that
/// holds the scenario's stated policy.
fn setup(inputs: &Inputs) -> Result<PrimaSystem, String> {
    let mut sys = PrimaSystem::new(
        inputs.scenario.vocab.clone(),
        inputs.scenario.policy.clone(),
    );
    for (i, site) in inputs.sites.iter().enumerate() {
        let store = AuditStore::new(&format!("site-{i}"));
        store
            .append_all(site)
            .map_err(|e| format!("site-{i}: {e}"))?;
        sys.attach_store(store).map_err(|e| e.to_string())?;
    }
    Ok(sys)
}

/// One untraced pass: set up, then `run_round` three times. Returns the
/// round records and the time of each `run_round` call. With `e2e`, each
/// round is followed by the install and snapshot measurements; without,
/// the rounds run back to back as in a traced pass. A pass yields one
/// sample of each latency, its mean over the three rounds: the first
/// round after set-up costs differently from the other two, and a
/// quantile over single rounds would jump between those costs.
fn untraced_pass(
    inputs: &Inputs,
    mut e2e: Option<&mut EndToEnd>,
    report: &mut Report,
    verify: bool,
) -> Result<(Vec<RoundRecord>, Vec<f64>), String> {
    let t = Instant::now();
    let mut sys = setup(inputs)?;
    let setup_time = t.elapsed();

    let vocab = Arc::new(sys.vocab().clone());
    let mut records = Vec::with_capacity(ROUNDS);
    let mut round_s = Vec::with_capacity(ROUNDS);
    let (mut install_ms, mut snapshot_ms) = (0.0, 0.0);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let record = sys.run_round(ReviewMode::AutoAccept);
        let elapsed = t.elapsed();
        report.checks.expect("round.run", record.is_ok());
        let record = record.map_err(|e| e.to_string())?;
        round_s.push(elapsed.as_secs_f64());
        let Some(e2e) = e2e.as_deref_mut() else {
            records.push(record);
            continue;
        };
        // Every entry gets one coverage verdict per round.
        e2e.add_work(ENTRIES, elapsed);

        // The refined policy goes live by compiling it into the matcher
        // every live path (stream shards, serve engine) decides with,
        // over the vocabulary they already share. An installer thread
        // does that, as in a running service, rather than the thread
        // whose heap the round has just churned.
        let policy = sys.policy();
        let (rule_count, burst_ms) = std::thread::scope(|s| {
            s.spawn(|| {
                let compile = || PolicyMatcher::with_shared_vocab(policy, Arc::clone(&vocab));
                let t = Instant::now();
                for _ in 1..INSTALL_BURST {
                    std::hint::black_box(compile());
                }
                let rule_count = compile().rule_count();
                (rule_count, t.elapsed().as_secs_f64() * 1e3)
            })
            .join()
            .expect("installer thread")
        });
        install_ms += burst_ms / f64::from(INSTALL_BURST);
        report
            .checks
            .expect("round.install", rule_count == record.policy_cardinality);

        // The coverage dashboard's read over the federated trail.
        let t = Instant::now();
        let coverage = sys.entry_coverage();
        snapshot_ms += t.elapsed().as_secs_f64() * 1e3;
        report.checks.expect(
            "round.snapshot_matches_record",
            coverage.ratio() == record.entry_coverage_after
                && coverage.total_entries == record.audit_entries,
        );
        records.push(record);
    }
    if let Some(e2e) = e2e {
        let rounds = ROUNDS as f64;
        e2e.setup.push_s(setup_time);
        e2e.call_us.push(round_s.iter().sum::<f64>() * 1e6 / rounds);
        e2e.install_ms.push(install_ms / rounds);
        e2e.snapshot_ms.push(snapshot_ms / rounds);
    }

    if verify {
        // The last round's coverage equals what a matcher over the final
        // policy gives on the same trail.
        let matcher = PolicyMatcher::new(sys.policy(), sys.vocab());
        let mut covered = 0usize;
        let mut total = 0usize;
        let mut bad = 0u64;
        for e in inputs.sites.iter().flatten() {
            match e.to_ground_rule() {
                Ok(g) => {
                    total += 1;
                    covered += usize::from(matcher.covers(&g));
                }
                Err(_) => bad += 1,
            }
        }
        let last = records.last().expect("three rounds ran");
        report.checks.record("round.ground", total as u64, bad);
        report.checks.expect(
            "round.final_coverage_matches_matcher",
            covered as f64 / total as f64 == last.entry_coverage_after,
        );
        report.checks.expect(
            "round.trail_complete",
            last.audit_entries == ENTRIES && total == ENTRIES,
        );
    }
    Ok((records, round_s))
}

/// Per-round figures of the traced recomposition.
#[derive(Default)]
struct Traced {
    rounds: usize,
    round_ns: Vec<u64>,
    patterns_found: usize,
    patterns_useful: usize,
    policy_rules: usize,
    distinct_shapes: usize,
}

/// One traced pass: the same public calls `run_round` makes, in the same
/// order, each inside a span. Returns the records it composes.
fn traced_pass(
    run: &mut Run,
    inputs: &Inputs,
    pass: u64,
    traced: &mut Traced,
) -> Result<Vec<RoundRecord>, String> {
    let sys = setup(inputs)?;
    let vocab = sys.vocab().clone();
    let mut policy = sys.policy().clone();
    let mut review = ReviewQueue::new();
    let miner = SqlMiner::default();
    let tracer = &mut run.tracer;
    let mut records = Vec::with_capacity(ROUNDS);
    for round in 1..=ROUNDS {
        let trace = pass * 100 + round as u64;
        tracer.enter("core.round", trace);
        let entries = tracer.span("audit.consolidate", trace, || {
            sys.federation().consolidated_entries()
        });
        let rules = tracer.span("model.ground", trace, || {
            entries
                .iter()
                .map(AuditEntry::to_ground_rule)
                .collect::<Result<Vec<GroundRule>, _>>()
        });
        let rules = rules.map_err(|e| e.to_string())?;
        let before = tracer.span("model.coverage", trace, || {
            CoverageEngine::default().entry_coverage(&policy, &rules, &vocab)
        });
        let health = sys.federation_health();
        let filtered = tracer.span("refine.filter", trace, || {
            filter_with(&entries, &NoViolations)
        });
        let table = tracer.span("store.practice_table", trace, || {
            practice_table(&filtered.practice)
        });
        let raw = tracer
            .span("mining.mine", trace, || miner.mine(&table))
            .map_err(|e| e.to_string())?;
        let pruned = tracer.span("refine.prune", trace, || {
            prune(raw.clone(), &policy, &vocab)
        });
        let (enqueued, added) = tracer.span("refine.review", trace, || {
            let enqueued = review.propose(pruned.useful.clone(), round);
            review.accept_all_pending();
            (enqueued, review.apply_accepted(&mut policy))
        });
        let after = tracer.span("model.coverage", trace, || {
            CoverageEngine::default().entry_coverage(&policy, &rules, &vocab)
        });
        traced.round_ns.push(tracer.exit());

        let bound = health.bound_for(after.covered_entries, after.total_entries);
        traced.rounds += 1;
        traced.patterns_found += raw.len();
        traced.patterns_useful += pruned.useful.len();
        traced.policy_rules = policy.cardinality();
        traced.distinct_shapes = rules.iter().collect::<HashSet<_>>().len();
        records.push(RoundRecord {
            round,
            audit_entries: entries.len(),
            practice_entries: filtered.practice.len(),
            patterns_found: raw.len(),
            patterns_useful: pruned.useful.len(),
            candidates_enqueued: enqueued,
            rules_added: added,
            entry_coverage_before: before.ratio(),
            entry_coverage_after: after.ratio(),
            policy_cardinality: policy.cardinality(),
            completeness_lower: bound.lower,
            completeness_upper: bound.upper,
            refinement_deferred: false,
        });
    }
    Ok(records)
}

pub fn run(run: &mut Run, report: &mut Report) -> Result<EndToEnd, String> {
    report.config("entries", ENTRIES);
    report.config("sites", SITES);
    report.config("rounds_per_pass", ROUNDS);
    report.config("scenario", "community-hospital");
    report.config("review_mode", "auto-accept");
    let inputs = generate(run.seed);
    run.start_measuring();

    let mut e2e = EndToEnd::default();
    let mut untraced_round_s = Samples::default();
    let mut traced = Traced::default();
    let mut pass = 0u64;
    while pass == 0 || run.time_left() {
        let measured = (!run.trace).then_some(&mut e2e);
        let (records, round_s) = untraced_pass(&inputs, measured, report, pass == 0)?;
        for s in round_s {
            untraced_round_s.push(s);
        }
        if run.trace {
            let composed = traced_pass(run, &inputs, pass, &mut traced)?;
            report.checks.expect(
                "round.traced_records_match_run_round",
                format!("{composed:?}") == format!("{records:?}"),
            );
        }
        pass += 1;
    }
    report.config("passes", pass);

    if run.trace {
        let selfs = run.tracer.self_times();
        let per_round =
            |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 * 1e-9 / traced.rounds as f64;
        let n = traced.rounds;
        let mut layer_sum = 0.0;
        for name in LAYERS {
            layer_sum += per_round(name);
        }
        let traced_round = traced.round_ns.iter().sum::<u64>() as f64 * 1e-9 / n as f64;
        let untraced_round = untraced_round_s.mean();
        report.layers.extend([
            Metric::new(
                "audit.consolidate_s",
                "s",
                per_round("audit.consolidate"),
                n,
            ),
            Metric::new("model.ground_s", "s", per_round("model.ground"), n),
            Metric::new("model.coverage_s", "s", per_round("model.coverage"), n),
            Metric::new("model.policy_rules", "count", traced.policy_rules as f64, 1),
            Metric::new(
                "model.distinct_shapes",
                "count",
                traced.distinct_shapes as f64,
                1,
            ),
            Metric::new("refine.filter_s", "s", per_round("refine.filter"), n),
            Metric::new(
                "store.practice_table_s",
                "s",
                per_round("store.practice_table"),
                n,
            ),
            Metric::new("mining.mine_s", "s", per_round("mining.mine"), n),
            Metric::new(
                "mining.patterns",
                "count",
                traced.patterns_found as f64 / n as f64,
                n,
            ),
            Metric::new("refine.prune_s", "s", per_round("refine.prune"), n),
            Metric::new(
                "refine.useful_ratio",
                "ratio",
                traced.patterns_useful as f64 / traced.patterns_found.max(1) as f64,
                traced.patterns_found,
            ),
            Metric::new("refine.review_s", "s", per_round("refine.review"), n),
            Metric::new(
                "core.unattributed_s",
                "s",
                untraced_round - layer_sum,
                untraced_round_s.len(),
            ),
            Metric::new("core.round_s", "s", untraced_round, untraced_round_s.len()),
            Metric::new(
                "bench.trace_overhead_pct",
                "%",
                (traced_round / untraced_round - 1.0) * 100.0,
                n,
            ),
        ]);
    }
    Ok(e2e)
}
