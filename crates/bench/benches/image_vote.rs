//! Image-level vote aggregation: the pure fold cost and the end-to-end
//! serving cost of multi-descriptor image queries.
//!
//! `absorb_rank` isolates the [`ImageVoteAccumulator`]: fold N
//! per-descriptor neighbour lists into the tally and produce the sorted
//! image ranking — the per-completion CPU the image scheduler adds on
//! top of ordinary descriptor search. `serve` runs whole image queries
//! through the [`ImageScheduler`] with the run-everything rule vs an
//! early-terminating stable-top rule: their gap is the work the stop
//! rule saves (see eval exp9 for the matching quality figures).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eff2_bench::fixtures;
use eff2_core::image::ImageStopRule;
use eff2_core::image::ImageVoteAccumulator;
use eff2_core::search::{SearchParams, StopRule};
use eff2_descriptor::Neighbor;
use eff2_serve::{ImageConfig, ImageQuerySpec, ImageScheduler, Policy};
use eff2_storage::diskmodel::VirtualDuration;
use eff2_workload::{image_of_map, image_queries};
use std::hint::black_box;
use std::sync::Arc;

const K: usize = 30;
const N_IMAGES: usize = 64;
const PER_QUERY: usize = 16;
const N_QUERIES: usize = 8;

/// Synthetic per-descriptor neighbour lists: ids sweep the collection so
/// votes spread across many images, distances descend so every absorb
/// updates some best-distance slots.
fn neighbor_lists(n_lists: usize, n_descriptors: usize) -> Vec<Vec<Neighbor>> {
    (0..n_lists)
        .map(|l| {
            (0..K)
                .map(|j| Neighbor {
                    id: ((l * 7919 + j * 131) % n_descriptors) as u32,
                    dist: 100.0 - (l * K + j) as f32 * 1e-3,
                })
                .collect()
        })
        .collect()
}

fn absorb_rank(c: &mut Criterion) {
    let n_descriptors = fixtures::collection().len();
    let image_of = Arc::new(image_of_map(n_descriptors, N_IMAGES, 0.8, 11));

    let mut g = c.benchmark_group("image_vote");
    for n_lists in [64usize, 512] {
        let lists = neighbor_lists(n_lists, n_descriptors);
        g.throughput(Throughput::Elements((n_lists * K) as u64));
        g.bench_with_input(
            BenchmarkId::new("absorb_rank", n_lists),
            &lists,
            |b, lists| {
                b.iter(|| {
                    let mut acc = ImageVoteAccumulator::new(Arc::clone(&image_of), K);
                    for list in lists {
                        acc.absorb(list);
                    }
                    black_box(acc.ranking())
                })
            },
        );
    }
    g.finish();
}

fn serve(c: &mut Criterion) {
    let snapshot = fixtures::sr_index().clone();
    let set = fixtures::collection();
    let image_of = Arc::new(image_of_map(set.len(), N_IMAGES, 0.8, 11));
    let queries = image_queries(set, &image_of, N_QUERIES, PER_QUERY, 23);
    let trace: Vec<(ImageQuerySpec, VirtualDuration)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            (
                ImageQuerySpec {
                    label: q.image,
                    descriptors: q.descriptors.clone(),
                },
                VirtualDuration::from_ms(i as f64),
            )
        })
        .collect();
    let params = SearchParams {
        k: K,
        stop: StopRule::ToCompletionEps(0.5),
        prefetch_depth: 2,
        log_snapshots: false,
    };

    let mut g = c.benchmark_group("image_vote");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N_QUERIES as u64));
    for (tag, stop) in [
        ("run-all", ImageStopRule::RunAll),
        (
            "stable-top3-w2",
            ImageStopRule::StableTop { m: 3, window: 2 },
        ),
    ] {
        g.bench_with_input(BenchmarkId::new("serve", tag), &stop, |b, &stop| {
            b.iter(|| {
                let mut config = ImageConfig::new(Policy::MostWantedChunk, 4, stop);
                config.scheduler.max_queued = trace.len();
                black_box(
                    ImageScheduler::new(snapshot.clone(), config, Arc::clone(&image_of))
                        .serve_trace(&trace, &params)
                        .expect("serve"),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, absorb_rank, serve);
criterion_main!(benches);
