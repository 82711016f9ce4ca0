//! E5 — a full PRIMA round (Figure 4, end to end): federate → measure
//! coverage → filter → mine → prune → accept, at increasing trail sizes.
//!
//! The per-stage profile of one instrumented round (`BENCH_pipeline.json`)
//! comes from `prima-bench --suite pipeline`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prima_core::{PrimaSystem, ReviewMode};
use prima_workload::sim::{split_sites, SimConfig};
use prima_workload::Scenario;

fn bench_full_round(c: &mut Criterion) {
    let scenario = Scenario::community_hospital();
    let sim = scenario.simulator();
    let mut group = c.benchmark_group("pipeline/full-round");
    group.sample_size(10);
    for n in [1_000usize, 10_000, 50_000] {
        let trail = sim.generate(&SimConfig {
            seed: 19,
            n_entries: n,
            ..SimConfig::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(n), &trail, |b, trail| {
            b.iter(|| {
                let mut system = PrimaSystem::new(scenario.vocab.clone(), scenario.policy.clone());
                for store in split_sites(trail, 4) {
                    system.attach_store(store).expect("unique source name");
                }
                system.run_round(ReviewMode::AutoAccept).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_round);
criterion_main!(benches);
