//! Throughput scaling of the concurrent sharded runtime.
//!
//! Runs the same fixed-seed memory workload (8 tiles at d = 5) at shard
//! counts 1, 2 and 4. Every tile is simulated in a tableau of its own
//! (tiles only share one after a transversal CNOT joins them, and this
//! workload has none), so a tile-cycle costs the same on any shard and
//! the total work is the same at every shard count: shards buy
//! parallelism only, and throughput can rise by at most the number of
//! cores the shards actually get.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quest_runtime::{Runtime, WorkloadSpec};

fn bench_runtime_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_scaling");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                let spec = WorkloadSpec::memory(5, 8, shards, 1e-3, 11, 30);
                let runtime = Runtime::new();
                b.iter(|| runtime.run(&spec));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_scaling);
criterion_main!(benches);
