//! E10 — streaming ingestion: sustained entries/sec through the
//! block-based prima-stream pipeline at 1, 2, 4 and 8 shards over the
//! community hospital trail, plus the verdict hit rate at each
//! width.
//!
//! Besides the Criterion timings, the bench runs the shared
//! `prima_stream::loadbench` ladder (the same harness behind
//! `prima stream-bench` and the CI `stream-bench` job), prints its
//! one-object JSON summary, and writes `BENCH_stream.json` at the repo
//! root. Acceptance travels with the report as machine-checkable gates:
//! wide-over-narrow scaling floored by the host's core count, ≥1M
//! entries/sec at the widest width, cache hit rate within half a point
//! of the standard trail's 98.144%, and metrics-enabled overhead within
//! 5% of the uninstrumented baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prima_bench::{standard_trail, write_bench_json};
use prima_model::PolicyMatcher;
use prima_stream::loadbench::{STANDARD_SEED, STANDARD_TRAIL_LEN};
use prima_stream::{run_stream_bench, StreamBenchConfig, StreamConfig, StreamEngine};
use prima_workload::Scenario;

const SHARD_WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn bench_ingest(c: &mut Criterion) {
    let scenario = Scenario::community_hospital();
    let trail = standard_trail(STANDARD_TRAIL_LEN, STANDARD_SEED);
    let mut group = c.benchmark_group("stream/ingest-50k");
    group.sample_size(10);
    for shards in SHARD_WIDTHS {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &trail, |b, trail| {
            b.iter(|| {
                let mut engine = StreamEngine::start(
                    StreamConfig::with_shards(shards),
                    PolicyMatcher::new(&scenario.policy, &scenario.vocab),
                );
                engine.ingest_all(trail.iter());
                engine.drain()
            });
        });
    }
    group.finish();
}

fn emit_summary(_c: &mut Criterion) {
    let report = run_stream_bench(StreamBenchConfig::default());
    let summary = report.to_json();
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).expect("summary is a plain value tree")
    );
    let path = write_bench_json("BENCH_stream.json", &summary).expect("repo root is writable");
    println!("wrote {}", path.display());
    for (gate, ok) in report.gates() {
        println!("gate {gate}: {}", if ok { "pass" } else { "FAIL" });
    }
}

criterion_group!(benches, bench_ingest, emit_summary);
criterion_main!(benches);
