//! Storage benches: chunk reads (direct vs prefetch-pipelined — the
//! I/O/CPU overlap ablation that motivates uniform chunk sizes) and the
//! chunk-index ranking step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eff2_bench::fixtures;
use eff2_core::{ChunkRanking, CoarseQuantizer};
use eff2_storage::diskmodel::{PipelineClock, VirtualDuration};
use eff2_storage::prefetch::prefetch_chunks;
use eff2_storage::{ChunkData, SingleFlight};
use std::hint::black_box;

/// Overlap ablation on *real* I/O: stream every chunk of the SR index and
/// scan it, either through the prefetch pipeline (reader thread overlaps
/// the scan) or with direct sequential reads.
fn overlap_ablation_real_io(c: &mut Criterion) {
    let store = fixtures::sr_index().store();
    let q = fixtures::collection().vector_owned(0);
    let order: Vec<usize> = (0..store.n_chunks()).collect();

    let scan = |payload: &ChunkData| -> f32 {
        let mut acc = 0.0f32;
        for row in eff2_descriptor::as_rows(&payload.packed) {
            acc += eff2_descriptor::l2_sq(q.as_array(), row);
        }
        acc
    };

    let mut g = c.benchmark_group("overlap_ablation_real_io");
    g.sample_size(10);
    g.throughput(Throughput::Elements(store.total_descriptors()));
    g.bench_function("prefetch_pipelined", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            let alone = SingleFlight::new();
            for item in prefetch_chunks(store, order.clone(), 4, alone, 0).expect("prefetch") {
                acc += scan(&item.expect("chunk").payload);
            }
            black_box(acc)
        })
    });
    g.bench_function("direct_sequential", |b| {
        b.iter(|| {
            let mut reader = store.reader().expect("reader");
            let mut payload = ChunkData::default();
            let mut acc = 0.0f32;
            for &id in &order {
                reader.read_chunk(id, &mut payload).expect("read");
                acc += scan(&payload);
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// Overlap ablation on the virtual clock: the deterministic cost-model
/// counterpart (what the paper's elapsed-time figures are built from).
fn overlap_ablation_cost_model(c: &mut Criterion) {
    let model = fixtures::model();
    let chunks: Vec<(u64, usize)> = (0..2_000)
        .map(|i| (8_192 + (i % 7) * 4_096, 1_000 + (i % 13) * 100))
        .map(|(b, n)| (b as u64, n))
        .collect();
    let mut g = c.benchmark_group("overlap_ablation_cost_model");
    for mode in ["overlapped", "serial"] {
        g.bench_with_input(BenchmarkId::new("mode", mode), &mode, |b, &mode| {
            b.iter(|| {
                let mut clock = PipelineClock::start_at(VirtualDuration::ZERO);
                for &(bytes, n) in &chunks {
                    let io = model.io_time(bytes);
                    let cpu = model.scan_time(n);
                    if mode == "overlapped" {
                        clock.chunk_overlapped(io, cpu);
                    } else {
                        clock.chunk_serial(io, cpu);
                    }
                }
                black_box(clock.now())
            })
        });
    }
    g.finish();
}

/// The §4.3 step-1 cost: ranking every chunk centroid against the query.
fn chunk_ranking(c: &mut Criterion) {
    let store = fixtures::sr_index().store();
    let q = fixtures::collection().vector_owned(3);
    let mut g = c.benchmark_group("chunk_ranking");
    g.throughput(Throughput::Elements(store.n_chunks() as u64));
    g.bench_function("rank_all_centroids", |b| {
        b.iter(|| {
            let mut ranked: Vec<(f32, u32)> = store
                .metas()
                .iter()
                .enumerate()
                .map(|(i, m)| (m.centroid.dist(&q), i as u32))
                .collect();
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
            black_box(ranked.len())
        })
    });
    g.finish();
}

/// Flat vs two-level chunk ranking: the same step-1 cost when coarse
/// cells defer most centroid distances until a cell is actually expanded.
/// `rank_two_level` alone prices the lazy variant; the `first_wave` bench
/// adds the expansion a query pays before its first chunk read.
fn two_level_ranking(c: &mut Criterion) {
    let store = fixtures::sr_index().store();
    let model = fixtures::model();
    let q = fixtures::collection().vector_owned(3);
    let coarse = CoarseQuantizer::for_store(store);

    let mut g = c.benchmark_group("two_level_ranking");
    g.throughput(Throughput::Elements(store.n_chunks() as u64));
    g.bench_function("rank_flat", |b| {
        b.iter(|| {
            let mut r = ChunkRanking::default();
            r.rank_into(store, &model, &q);
            black_box(r.centroid_evals())
        })
    });
    g.bench_function("rank_two_level", |b| {
        b.iter(|| {
            black_box(ChunkRanking::rank_two_level(store, &model, &q, &coarse).centroid_evals())
        })
    });
    g.bench_function("rank_two_level_first_wave", |b| {
        b.iter(|| {
            let mut r = ChunkRanking::rank_two_level(store, &model, &q, &coarse);
            r.expand_wave(&q);
            black_box(r.centroid_evals())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    overlap_ablation_real_io,
    overlap_ablation_cost_model,
    chunk_ranking,
    two_level_ranking
);
criterion_main!(benches);
