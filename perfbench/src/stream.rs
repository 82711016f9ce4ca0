//! `stream-2m`: live audit ingestion through a one-shard
//! `StreamEngine` with a federated sink store, with coverage snapshots
//! and policy refreshes riding along.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use prima_audit::{AccessStatus, AuditEntry, Op};
use prima_core::PrimaSystem;
use prima_model::{CoverageEngine, GroundRule, Policy, PolicyMatcher, Rule};
use prima_stream::{StreamConfig, StreamEngine, StreamSnapshot};
use prima_workload::{Scenario, SimConfig};

use crate::report::{Metric, Report, Samples};
use crate::{EndToEnd, Run};

const ENTRIES: usize = 2_000_000;
const SHARDS: usize = 1;
const SNAPSHOT_EVERY: usize = 20_000;
/// Entries per `ingest_all` call: the producer hands over one engine
/// block's worth at a time, as a live feed delivers them.
const INGEST_BATCH: usize = 512;
const REFRESH_EVERY: usize = 500_000;
/// Set-ups timed per run, each an idle start-stop cycle before the
/// passes (starting an engine takes well under a millisecond, so one
/// sample alone would be mostly scheduler noise).
const SETUPS: usize = 101;
/// Repetitions of the after-run matcher probe over the distinct shapes.
const COVERS_REPEATS: usize = 200;

/// One generated entry, its strings interned so that two million of
/// them stay small until a chunk is handed to the engine.
#[derive(Clone, Copy)]
struct Packed {
    time: i64,
    user: u32,
    data: u32,
    purpose: u32,
    authorized: u32,
    op: Op,
    status: AccessStatus,
}

struct Inputs {
    scenario: Scenario,
    strings: Vec<String>,
    entries: Vec<Packed>,
    /// Promoted cluster rules, one per refresh.
    promotions: Vec<Rule>,
}

fn generate(seed: u64) -> Inputs {
    let scenario = Scenario::community_hospital();
    let mut index: HashMap<String, u32> = HashMap::new();
    let mut strings = Vec::new();
    let mut intern = |s: String| -> u32 {
        *index.entry(s).or_insert_with_key(|s| {
            strings.push(s.clone());
            strings.len() as u32 - 1
        })
    };
    let entries = scenario
        .simulator()
        .events(&SimConfig {
            seed,
            ..SimConfig::default()
        })
        .take(ENTRIES)
        .map(|l| {
            let e = l.entry;
            Packed {
                time: e.time,
                op: e.op,
                status: e.status,
                user: intern(e.user),
                data: intern(e.data),
                purpose: intern(e.purpose),
                authorized: intern(e.authorized),
            }
        })
        .collect();
    let promotions = scenario
        .ground_truth()
        .iter()
        .map(Rule::from_ground)
        .collect();
    Inputs {
        scenario,
        strings,
        entries,
        promotions,
    }
}

impl Inputs {
    /// The audit entries of chunk `i`, built fresh for the engine.
    fn chunk(&self, i: usize) -> Vec<AuditEntry> {
        let s = |k: u32| self.strings[k as usize].clone();
        self.entries[i * SNAPSHOT_EVERY..((i + 1) * SNAPSHOT_EVERY).min(ENTRIES)]
            .iter()
            .map(|p| AuditEntry {
                time: p.time,
                op: p.op,
                user: s(p.user),
                data: s(p.data),
                purpose: s(p.purpose),
                authorized: s(p.authorized),
                status: p.status,
            })
            .collect()
    }

    fn chunks(&self) -> usize {
        ENTRIES.div_ceil(SNAPSHOT_EVERY)
    }
}

/// A fresh system holding the stated policy, with a stream engine
/// attached whose sink is registered with the system's federation.
fn setup(inputs: &Inputs) -> (PrimaSystem, StreamEngine) {
    let mut sys = PrimaSystem::new(
        inputs.scenario.vocab.clone(),
        inputs.scenario.policy.clone(),
    );
    let engine = sys.attach_stream(StreamConfig::with_shards(SHARDS));
    (sys, engine)
}

/// What one pass left behind.
struct PassStats {
    /// Time spent in engine calls, ingestion through the final drain.
    wall_s: f64,
    final_snapshot: StreamSnapshot,
    policy: Policy,
}

/// Runs `f`, inside a span when `traced`, and returns its result and
/// duration.
fn timed<T>(
    run: &mut Run,
    traced: bool,
    name: &'static str,
    trace: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let t = Instant::now();
    let out = if traced {
        run.tracer.span(name, trace, f)
    } else {
        f()
    };
    (out, t.elapsed())
}

/// One pass: ingest every entry in chunks, snapshot after each chunk,
/// refresh the policy with one more promoted rule every 500k entries,
/// and drain. A chunk's entries are built after the previous snapshot
/// barrier has emptied the shard's queue, so building them overlaps no
/// engine work and is left out of the wall time.
fn pass(
    run: &mut Run,
    inputs: &Inputs,
    e2e: &mut EndToEnd,
    report: &mut Report,
    traced: bool,
) -> PassStats {
    let (sys, mut engine) = setup(inputs);
    let mut policy = inputs.scenario.policy.clone();
    let mut promoted = 0usize;
    let mut wall = Duration::ZERO;
    let mut ingested = 0usize;
    for i in 0..inputs.chunks() {
        let trace = i as u64 + 1;
        let chunk = inputs.chunk(i);
        for batch in chunk.chunks(INGEST_BATCH) {
            let (accepted, ingest_time) = timed(run, traced, "stream.ingest", trace, || {
                engine.ingest_all(batch)
            });
            wall += ingest_time;
            if !traced {
                e2e.call_us.push_us(ingest_time);
            }
            report.checks.record(
                "stream.ingest",
                batch.len() as u64,
                (batch.len() - accepted) as u64,
            );
        }
        ingested += chunk.len();

        let (snap, snapshot_time) =
            timed(run, traced, "stream.snapshot", trace, || engine.snapshot());
        report.checks.expect(
            "stream.snapshot_sees_every_entry",
            snap.totals.total_entries == ingested as u64,
        );
        wall += snapshot_time;
        if !traced {
            e2e.snapshot_ms.push_ms(snapshot_time);
        }

        if ingested.is_multiple_of(REFRESH_EVERY) && ingested < ENTRIES {
            policy.push(inputs.promotions[promoted % inputs.promotions.len()].clone());
            promoted += 1;
            // The refined policy is live once every shard has applied it
            // (re-labelled its counters), which the drain barrier waits for.
            let (_, refresh_time) = timed(run, traced, "stream.refresh", trace, || {
                engine.refresh_policy(&policy);
                engine.drain()
            });
            wall += refresh_time;
            if !traced {
                e2e.install_ms.push_ms(refresh_time);
            }
        }
    }
    let (_, drain_time) = timed(run, traced, "stream.drain", 0, || engine.drain());
    wall += drain_time;
    if !traced {
        // Every ingested entry gets exactly one policy verdict.
        e2e.add_work(ENTRIES, wall);
    }
    let final_snapshot = engine.shutdown();
    report.checks.expect(
        "stream.sink_holds_every_entry",
        sys.federation().total_len() == ENTRIES,
    );
    PassStats {
        wall_s: wall.as_secs_f64(),
        final_snapshot,
        policy,
    }
}

/// The final snapshot's totals equal batch entry coverage of the same
/// entries under the same final policy (summed chunk by chunk, which
/// entry-weighted coverage allows). Returns the distinct shapes seen.
fn verify(inputs: &Inputs, stats: &PassStats, report: &mut Report) -> HashSet<GroundRule> {
    let snap = &stats.final_snapshot;
    let mut covered = 0usize;
    let mut total = 0usize;
    let mut bad = 0u64;
    let mut shapes = HashSet::new();
    for i in 0..inputs.chunks() {
        let grounds: Vec<GroundRule> = inputs
            .chunk(i)
            .iter()
            .filter_map(|e| e.to_ground_rule().map_err(|_| bad += 1).ok())
            .collect();
        let batch = CoverageEngine::default().entry_coverage(
            &stats.policy,
            &grounds,
            &inputs.scenario.vocab,
        );
        covered += batch.covered_entries;
        total += batch.total_entries;
        shapes.extend(grounds);
    }
    report
        .checks
        .record("stream.inputs_ground", ENTRIES as u64, bad);
    report.checks.expect(
        "stream.final_totals_match_batch",
        snap.totals.covered_entries == covered as u64 && snap.totals.total_entries == total as u64,
    );
    report.checks.expect(
        "stream.nothing_lost_or_poisoned",
        snap.lost == 0 && snap.poisoned == 0 && snap.ingested == ENTRIES as u64,
    );
    report.checks.expect(
        "stream.every_entry_processed",
        snap.processed == ENTRIES as u64,
    );
    shapes
}

/// Time per `PolicyMatcher::covers` call (µs) over the trail's distinct
/// shapes under the final policy.
fn matcher_covers_us(
    inputs: &Inputs,
    policy: &Policy,
    shapes: &HashSet<GroundRule>,
) -> (f64, usize) {
    let matcher = PolicyMatcher::new(policy, &inputs.scenario.vocab);
    let mut covered = 0usize;
    let t = Instant::now();
    for _ in 0..COVERS_REPEATS {
        for g in shapes {
            covered += usize::from(matcher.covers(g));
        }
    }
    let calls = COVERS_REPEATS * shapes.len();
    std::hint::black_box(covered);
    (t.elapsed().as_secs_f64() * 1e6 / calls as f64, calls)
}

pub fn run(run: &mut Run, report: &mut Report) -> Result<EndToEnd, String> {
    report.config("entries", ENTRIES);
    report.config("shards", SHARDS);
    report.config("snapshot_every", SNAPSHOT_EVERY);
    report.config("refresh_every", REFRESH_EVERY);
    report.config("scenario", "community-hospital");
    let inputs = generate(run.seed);
    run.start_measuring();

    let mut e2e = EndToEnd::default();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (sys, engine) = setup(&inputs);
        e2e.setup.push_s(t.elapsed());
        engine.shutdown();
        drop(sys);
    }
    // One unrecorded pass first: the first pass in a process also pays
    // for the allocator growing its heap, which later passes reuse.
    pass(run, &inputs, &mut EndToEnd::default(), report, false);

    let mut untraced_wall = Samples::default();
    let mut traced_wall = Samples::default();
    let mut last = None;
    let mut passes = 0usize;
    while passes == 0 || run.time_left() {
        let stats = pass(run, &inputs, &mut e2e, report, false);
        untraced_wall.push(stats.wall_s);
        if last.is_none() {
            last = Some(stats);
        }
        if run.trace {
            let stats = pass(run, &inputs, &mut e2e, report, true);
            traced_wall.push(stats.wall_s);
            last = Some(stats);
        }
        passes += 1;
    }
    report.config("passes", passes);

    let last = last.expect("one pass ran");
    let shapes = verify(&inputs, &last, report);
    if run.trace {
        let snap = &last.final_snapshot;
        let (covers_us, calls) = matcher_covers_us(&inputs, &last.policy, &shapes);
        let ms = |name: &str| {
            let mut s = Samples::default();
            for ns in run.tracer.durations(name) {
                s.push(ns as f64 * 1e-6);
            }
            s
        };
        let snapshots = ms("stream.snapshot");
        let refreshes = ms("stream.refresh");
        let ingest = ms("stream.ingest");
        let traced_passes = traced_wall.len();
        report.layers.extend([
            Metric::new(
                "stream.ingest_s",
                "s",
                ingest.sum() * 1e-3 / traced_passes as f64,
                ingest.len(),
            ),
            Metric::new(
                "stream.snapshot_ms",
                "ms",
                snapshots.median(),
                snapshots.len(),
            ),
            Metric::new(
                "stream.refresh_ms",
                "ms",
                refreshes.median(),
                refreshes.len(),
            ),
            Metric::new(
                "stream.cache_hit_ratio",
                "ratio",
                snap.cache.hit_rate(),
                (snap.cache.hits + snap.cache.misses) as usize,
            ),
            Metric::new("stream.cache_misses", "count", snap.cache.misses as f64, 1),
            Metric::new("model.matcher_covers_us", "us", covers_us, calls),
            Metric::new(
                "model.policy_rules",
                "count",
                last.policy.cardinality() as f64,
                1,
            ),
            Metric::new("model.distinct_shapes", "count", shapes.len() as f64, 1),
            Metric::new("stream.lost", "count", snap.lost as f64, 1),
            Metric::new("stream.poisoned", "count", snap.poisoned as f64, 1),
            Metric::new(
                "bench.trace_overhead_pct",
                "%",
                (traced_wall.mean() / untraced_wall.mean() - 1.0) * 100.0,
                traced_passes,
            ),
        ]);
    }
    Ok(e2e)
}
