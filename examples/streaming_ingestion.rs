//! Streaming ingestion: keep coverage live while audit entries arrive.
//!
//! ```sh
//! cargo run --example streaming_ingestion
//! ```
//!
//! Attaches a `prima-stream` engine to a `PrimaSystem`, feeds it a live
//! clinical event source, reads consistent snapshots mid-stream, runs a
//! windowed refinement round off the snapshot's training window, and
//! shows the refreshed engine re-judging history under the grown policy.

use prima::stream::StreamConfig;
use prima::system::{PrimaSystem, ReviewMode};
use prima::workload::{Scenario, SimConfig};

fn main() {
    // 1. The community-hospital scenario: a ten-rule stated policy over
    //    the hospital vocabulary, plus informal practices the policy
    //    misses (what streaming refinement should discover).
    let scenario = Scenario::community_hospital();
    let mut prima = PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone());

    // 2. Attach a streaming engine: 4 hash-partitioned shard workers,
    //    a one-hour training window feeding windowed refinement.
    let mut live = prima.attach_stream(StreamConfig::default().window_secs(3600));

    // 3. A live event source (never exhausts) standing in for the wire.
    let sim = scenario.simulator();
    let config = SimConfig {
        seed: 77,
        ..SimConfig::default()
    };
    let mut events = sim.events(&config);

    // 4. Ingest continuously; snapshot whenever someone asks. Snapshots
    //    are epoch barriers: each one is a consistent cut of the stream.
    for burst in 1..=3 {
        for _ in 0..2_000 {
            let labeled = events.next().expect("event source is unbounded");
            live.ingest(&labeled.entry);
        }
        let snap = live.snapshot();
        println!(
            "burst {burst}: {} entries live-classified, coverage {:.1}%, \
             {} distinct patterns, cache hit rate {:.1}%",
            snap.processed,
            snap.totals.ratio() * 100.0,
            snap.coverage.target_cardinality,
            snap.cache.hit_rate() * 100.0
        );
    }

    // 5. One streamed refinement round: mine the snapshot's training
    //    window, auto-accept the candidates, refresh the engine so its
    //    counters are re-labeled under the grown policy.
    let before = live.snapshot().totals.ratio();
    let round = prima
        .run_streamed_round(&mut live, ReviewMode::AutoAccept)
        .expect("refinement round succeeds")
        .expect("window has entries to mine");
    let after = live.snapshot();
    println!(
        "refinement round: {} rule(s) accepted, live coverage {:.1}% -> {:.1}% (epoch {})",
        round.rules_added,
        before * 100.0,
        after.totals.ratio() * 100.0,
        after.epoch
    );

    // 6. Drain and shut down; the final snapshot accounts for every
    //    accepted entry (processed + lost == ingested).
    let last = live.shutdown();
    assert_eq!(last.processed + last.lost, last.ingested);
    println!(
        "shutdown: {} ingested, {} processed, {} lost",
        last.ingested, last.processed, last.lost
    );
}
