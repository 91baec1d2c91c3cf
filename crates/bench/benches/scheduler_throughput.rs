//! The serving layer's scheduler: wall-clock cost of interleaving a fleet
//! of sessions, per policy and concurrency level.
//!
//! Every run computes bit-identical per-query answers (see the serve
//! crate's determinism tests), so this bench isolates the orchestration
//! overhead: admission, per-tick chunk picks, single-flight fetches and
//! fan-out feeds. `serial` is the one-query-at-a-time reference on the
//! same snapshot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eff2_bench::fixtures;
use eff2_core::search::{SearchParams, StopRule};
use eff2_serve::{Policy, Scheduler, SchedulerConfig};
use eff2_storage::diskmodel::VirtualDuration;
use std::hint::black_box;

fn scheduler_throughput(c: &mut Criterion) {
    let snap = fixtures::sr_index().clone();
    let queries = fixtures::queries(32);
    let params = SearchParams {
        k: 30,
        stop: StopRule::Chunks(8),
        prefetch_depth: 2,
        log_snapshots: false,
    };
    // The whole fleet arrives at once: maximum contention for the device.
    let trace: Vec<_> = queries
        .iter()
        .map(|q| (*q, VirtualDuration::ZERO))
        .collect();

    let mut g = c.benchmark_group("scheduler_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("serial", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(snap.search(q, &params).expect("serial"));
            }
        })
    });
    for policy in Policy::ALL {
        for active in [1usize, 4, 16] {
            let label = format!("{}/{active}", policy.name());
            g.bench_with_input(BenchmarkId::new("policy", label), &active, |b, &a| {
                b.iter(|| {
                    let mut config = SchedulerConfig::new(policy, a);
                    config.max_queued = trace.len();
                    black_box(
                        Scheduler::new(snap.clone(), config)
                            .serve_trace(&trace, &params)
                            .expect("serve"),
                    )
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, scheduler_throughput);
criterion_main!(benches);
