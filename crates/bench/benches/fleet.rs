//! The sharded fleet scheduler: wall-clock cost of serving one session
//! per query from N delivering shards, per shard count, placement policy
//! and replication factor.
//!
//! Every cell computes answers bit-identical to the solo scheduler (see
//! the serve crate's fleet tests), so this bench isolates the fleet
//! orchestration overhead on top of `scheduler_throughput`: shard
//! routing, per-shard clocks, the lookahead window and the rank-ordered
//! consume of buffered deliveries. `solo` is the single-device scheduler
//! on the same trace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eff2_bench::fixtures;
use eff2_core::search::{SearchParams, StopRule};
use eff2_serve::{FleetConfig, FleetScheduler, Policy, Scheduler, SchedulerConfig};
use eff2_shard::Placement;
use eff2_storage::diskmodel::VirtualDuration;
use std::hint::black_box;

fn fleet_scatter_gather(c: &mut Criterion) {
    let snap = fixtures::sr_index().clone();
    let queries = fixtures::queries(32);
    let params = SearchParams {
        k: 30,
        stop: StopRule::Chunks(8),
        prefetch_depth: 2,
        log_snapshots: false,
    };
    // The whole fleet arrives at once: maximum contention for the shards.
    let trace: Vec<_> = queries
        .iter()
        .map(|q| (*q, VirtualDuration::ZERO))
        .collect();

    let mut g = c.benchmark_group("fleet_scatter_gather");
    g.sample_size(10);
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("solo", |b| {
        b.iter(|| {
            let mut config = SchedulerConfig::new(Policy::MostWantedChunk, 8);
            config.max_queued = trace.len();
            black_box(
                Scheduler::new(snap.clone(), config)
                    .serve_trace(&trace, &params)
                    .expect("solo"),
            )
        })
    });
    for placement in Placement::ALL {
        for shards in [1usize, 4, 16] {
            let label = format!("{}/{shards}", placement.name());
            g.bench_with_input(BenchmarkId::new("shards", label), &shards, |b, &s| {
                b.iter(|| {
                    let mut config = FleetConfig::new(Policy::MostWantedChunk, s, 8);
                    config.placement = placement;
                    config.max_queued = trace.len();
                    black_box(
                        FleetScheduler::new(snap.clone(), config)
                            .serve_trace(&trace, &params)
                            .expect("fleet"),
                    )
                })
            });
        }
    }
    for replication in [1usize, 2, 3] {
        g.bench_with_input(
            BenchmarkId::new("replication", replication),
            &replication,
            |b, &r| {
                b.iter(|| {
                    let mut config = FleetConfig::new(Policy::MostWantedChunk, 4, 8);
                    config.replication = r;
                    config.max_queued = trace.len();
                    black_box(
                        FleetScheduler::new(snap.clone(), config)
                            .serve_trace(&trace, &params)
                            .expect("fleet"),
                    )
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, fleet_scatter_gather);
criterion_main!(benches);
