//! End-to-end observability: one registry, one tracer, every subsystem.
//!
//! ```sh
//! cargo run --example observability
//! ```
//!
//! Wires a shared `prima-obs` registry and tracer through all four
//! instrumented layers — refinement rounds (`SystemObs`), the streaming
//! engine (`StreamConfig::observability`), the resilient audit
//! federation (rewired automatically by
//! `PrimaSystem::with_observability`), and the query engine
//! (`QueryObs`) — then scrapes the books once and drains the span
//! timeline once. The example **asserts** that every expected metric
//! family and span name is present, so CI can run it as a live check
//! that the instrumentation stays connected. It also asserts, off the
//! same registry, that a round over a re-synced, unchanged remote site
//! scans no row and joins no key: the site's last fetch is kept as a
//! store, and its book is read.

use prima::audit::{AuditStore, FaultySource, SourceFaults};
use prima::obs::{MetricsRegistry, Tracer};
use prima::query::QueryObs;
use prima::stream::StreamConfig;
use prima::system::{PrimaSystem, ReviewMode, SystemObs};
use prima::workload::{Scenario, SimConfig};

fn main() {
    // 1. One set of books for everything: a live registry (metrics) and
    //    tracer (spans), shared by clone — clones read and write the
    //    same cells.
    let registry = MetricsRegistry::new();
    let tracer = Tracer::new();

    let scenario = Scenario::community_hospital();
    let mut prima = PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone())
        .with_observability(SystemObs::over(registry.clone(), tracer.clone()));

    // 2. A flaky remote site behind the resilience layer: the first two
    //    fetch attempts fail (exercising retries), and every 40th record
    //    is corrupted (exercising quarantine). Its metrics land in the
    //    same registry because `with_observability` rewired the
    //    federation too.
    let sim = scenario.simulator();
    let remote = AuditStore::new("remote-clinic");
    let remote_trail = sim.generate(&SimConfig {
        seed: 41,
        n_entries: 200,
        ..SimConfig::default()
    });
    remote
        .append_all(&prima::workload::sim::entries(&remote_trail))
        .expect("simulated entries conform to the schema");
    prima
        .attach_source(Box::new(FaultySource::new(
            remote,
            SourceFaults::none()
                .fail_first_attempts(2)
                .corrupt_every(40),
        )))
        .expect("unique source name");
    let health = prima.sync_sources();
    let quarantined = health.quarantined_entries();
    println!(
        "federation sync: completeness {:.1}%, {} record(s) quarantined",
        health.completeness() * 100.0,
        quarantined
    );

    // 3. A streaming engine on the same books: per-shard ingest/cache
    //    metrics plus `stream.checkpoint` spans from the checkpointing
    //    config.
    let mut live = prima.attach_stream(
        StreamConfig::default()
            .window_secs(3600)
            .checkpoint_every(1_000)
            .observability(registry.clone(), tracer.clone()),
    );
    let mut events = sim.events(&SimConfig {
        seed: 77,
        ..SimConfig::default()
    });
    for _ in 0..4_000 {
        let labeled = events.next().expect("event source is unbounded");
        live.ingest(&labeled.entry);
    }

    // 4. One streamed refinement round — this is what fills the
    //    per-stage histograms behind the PipelineReport.
    let round = prima
        .run_streamed_round(&mut live, ReviewMode::AutoAccept)
        .expect("refinement round succeeds")
        .expect("window has entries to mine");
    println!(
        "refinement round: {} pattern(s) found, {} rule(s) accepted",
        round.patterns_found, round.rules_added
    );
    live.shutdown();

    // 4b. Re-sync the unchanged remote before each of two unwindowed
    //     rounds. Each fetch holds the same corrupt records, which the
    //     quarantine already holds, so it parks none again; the
    //     well-formed rest repeats the kept fetch, so the second round
    //     reads the books: no row scanned, no key joined.
    let rows_scanned = registry.counter("prima_round_rows_scanned_total", "");
    let keys_joined = registry.counter("prima_round_keys_joined_total", "");
    let mut counted = (0, 0);
    for _ in 0..2 {
        let health = prima.sync_sources();
        assert_eq!(
            health.quarantined_entries(),
            quarantined,
            "each fetch holds the same corrupt records"
        );
        counted = (rows_scanned.get(), keys_joined.get());
        prima
            .run_round(ReviewMode::AutoAccept)
            .expect("refinement round succeeds");
    }
    assert_eq!(
        (rows_scanned.get(), keys_joined.get()),
        counted,
        "a round over a re-synced, unchanged remote scans and joins nothing"
    );
    println!(
        "re-synced round: 0 row(s) scanned, 0 key(s) joined ({} and {} in total)",
        counted.0, counted.1
    );

    // 5. A query over the consolidated trail, timed per plan node.
    let table = prima
        .federation()
        .consolidated_table()
        .expect("consolidated trail conforms to the audit schema");
    let query_obs = QueryObs::over(&registry, tracer.clone());
    let result = prima::query::execute_observed(
        &table,
        "SELECT user, COUNT(*) FROM audit_consolidated \
         GROUP BY user ORDER BY COUNT(*) DESC",
        &query_obs,
    )
    .expect("query over the audit schema");
    println!(
        "query: {} user group(s) in the consolidated trail",
        result.rows.len()
    );

    // 6. The per-stage latency profile of the round(s) run so far.
    let report = prima.pipeline_report();
    println!("\n{report}");
    assert!(
        report.all_stages_observed(),
        "every refinement stage must record at least one timing"
    );

    // 7. Scrape: one Prometheus exposition covering every subsystem.
    let scrape = prima::obs::export::prometheus(&registry);
    for family in [
        "prima_rounds_total",
        "prima_round_stage_seconds",
        "prima_coverage_entry_ratio",
        "prima_stream_ingested_total",
        "prima_stream_cache_hits_total",
        "prima_stream_checkpoint_seconds",
        "prima_audit_sync_rounds_total",
        "prima_audit_retry_attempts_total",
        "prima_audit_quarantined_total",
        "prima_query_statements_total",
        "prima_query_node_seconds",
    ] {
        assert!(
            scrape.contains(&format!("# TYPE {family} ")),
            "scrape is missing the {family} family"
        );
    }
    println!(
        "prometheus scrape: {} lines across all subsystems",
        scrape.lines().count()
    );

    // 8. Drain the span timeline once and check the cross-subsystem
    //    trace actually happened.
    let spans = tracer.drain();
    for name in [
        "round.run",
        "federation.sync",
        "federation.fetch",
        "stream.checkpoint",
        "query.run",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "trace is missing a `{name}` span"
        );
    }
    let jsonl = prima::obs::export::spans_jsonl(&spans);
    println!(
        "trace: {} span(s) drained, {} JSONL bytes",
        spans.len(),
        jsonl.len()
    );

    // 9. Cross-thread trace parenting: a root span opened here hands its
    //    `TraceContext` across a thread hop, and the child span opened on
    //    the far side via `span_in` must land in the same trace, parented
    //    to the root — the exact mechanism serve workers and stream
    //    shards use to keep one request one trace.
    let root = tracer.root_span("example.handoff");
    let ctx = root.context();
    let far_tracer = tracer.clone();
    std::thread::spawn(move || {
        let mut child = far_tracer.span_in("example.far_side", ctx);
        child.field("hop", 1u64);
    })
    .join()
    .expect("far-side thread joins cleanly");
    drop(root);
    let handoff = tracer.drain();
    let root_span = handoff
        .iter()
        .find(|s| s.name == "example.handoff")
        .expect("root span was recorded");
    let far_span = handoff
        .iter()
        .find(|s| s.name == "example.far_side")
        .expect("far-side span was recorded");
    assert_eq!(
        far_span.trace_id, root_span.trace_id,
        "thread hop must stay inside the root's trace"
    );
    assert_eq!(
        far_span.parent, root_span.id,
        "far-side span must be parented to the root across the hop"
    );
    println!(
        "cross-thread handoff: trace {} connects {} -> {}",
        root_span.trace_id, root_span.name, far_span.name
    );
    println!("\nall observability assertions passed");
}
