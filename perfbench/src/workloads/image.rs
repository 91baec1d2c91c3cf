//! `image_stop`: image-level queries over the BAG-chunked 10 k index. An
//! op is one fresh [`ImageScheduler`] serving four image queries of 16
//! descriptors each, abandoning a query's remaining descriptor sessions
//! once its top-3 image ranking has been stable for two completions.
//!
//! BAG's chunks are the paper's uneven ones, so this is the workload
//! where chunk-size variance reaches the vote fold, sibling fan-out and
//! early teardown; its `setup_s` is BAG formation.

use super::{Facts, SpanStats, Workload};
use crate::fixtures::{
    collection, disk_bytes_per_user_byte, mean, params, reopen, timed, Ctx, Measured, Res,
    COLLECTION_SEED, OVERLOAD, PAGE,
};
use crate::stats::median_secs;
use crate::trace::{span_if, Recorder};
use eff2_bag::BagConfig;
use eff2_core::chunkers::{BagChunker, ChunkFormer};
use eff2_core::image::{ImageStopRule, ImageVoteAccumulator};
use eff2_core::search::{SearchParams, SearchResult};
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::DescriptorSet;
use eff2_metrics::image_precision_at;
use eff2_serve::{ImageConfig, ImageQuerySpec, ImageScheduler, ImageServeReport, Policy};
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::ChunkStore;
use eff2_workload::{image_of_map, poisson_arrivals, ImageQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

/// Images the collection is partitioned into (Zipf 0.8 sizes).
const N_IMAGES: usize = 200;
const IMAGE_ZIPF: f64 = 0.8;
/// Seed of the descriptor → image map: part of the collection, not of the
/// query stream.
const IMAGE_MAP_SEED: u64 = 11;
/// Image queries per op and descriptors per image query.
const QUERIES_PER_OP: usize = 4;
const DESCRIPTORS_PER_QUERY: usize = 16;
/// Image queries interleaved at once.
const ACTIVE: usize = 4;
/// The early-termination rule, and the ranking prefix it watches.
const TOP: usize = 3;
const STOP: ImageStopRule = ImageStopRule::StableTop { m: TOP, window: 2 };

/// The built image workload.
pub struct ImageStop {
    ops: usize,
    snapshot: Snapshot,
    params: SearchParams,
    image_of: Arc<Vec<u32>>,
    /// Per op: four `(image query, arrival)` pairs.
    traces: Vec<Vec<(ImageQuerySpec, VirtualDuration)>>,
    /// Solo descriptor answers the capacity estimate and the vote-fold
    /// probe reuse.
    sample: Vec<SearchResult>,
    times: Measured,
    feeds_per_op: f64,
}

impl ImageStop {
    /// Builds the fixture: collection, BAG chunks, store, image map,
    /// image queries and their traces.
    pub fn build(ctx: &Ctx) -> Res<ImageStop> {
        let mut times = Measured::new();
        let set = collection(ctx.scale.small, &mut times);
        let formation = timed(&mut times, "bag.form_s", 1.0, || {
            let mpi = BagConfig::estimate_mpi(&set, 1_000, COLLECTION_SEED);
            BagChunker {
                config: BagConfig {
                    mpi,
                    max_passes: 300,
                    ..BagConfig::default()
                },
                target_clusters: (set.len() / 150).max(4),
            }
            .form(&set)
        });
        times.insert("bag.distance_ops", formation.cost.distance_ops as f64);
        let written = timed(&mut times, "storage.store.create_s", 1.0, || {
            ChunkStore::create(&ctx.dir, "bag", &set, &formation.chunks, PAGE)
        })?;
        let store = reopen(&written, &mut times)?;
        let snapshot = Snapshot::new(store, DiskModel::ata_2005());
        let params = params();

        // Twice the other serving workloads' 200: an op is short, and 800
        // modelled latencies left `modelled_p95` moving 10 % between seeds.
        let ops = ctx.scale.ops(400);
        let image_of = Arc::new(image_of_map(
            set.len(),
            N_IMAGES,
            IMAGE_ZIPF,
            IMAGE_MAP_SEED,
        ));
        let queries = timed(&mut times, "workload.gen_ms", 1e3, || {
            stratified_image_queries(&set, &image_of, ops * QUERIES_PER_OP, ctx.seed)
        });
        // Solo modelled capacity in image queries per second, from the
        // first queries' descriptors searched alone.
        let sample = queries
            .iter()
            .take(QUERIES_PER_OP)
            .flat_map(|q| q.descriptors.iter())
            .map(|d| snapshot.search(d, &params))
            .collect::<Result<Vec<_>, _>>()?;
        let image_secs = DESCRIPTORS_PER_QUERY as f64
            * mean(sample.iter().map(|r| r.log.total_virtual.as_secs()));
        let rate = OVERLOAD / image_secs.max(1e-9);
        let traces = queries
            .chunks(QUERIES_PER_OP)
            .enumerate()
            .map(|(op, group)| {
                let seed = ctx.seed.wrapping_mul(1_000_003).wrapping_add(op as u64);
                group
                    .iter()
                    .zip(poisson_arrivals(group.len(), rate, seed).arrivals)
                    .map(|(q, t)| {
                        let spec = ImageQuerySpec {
                            label: q.image,
                            descriptors: q.descriptors.clone(),
                        };
                        (spec, VirtualDuration::from_secs(t))
                    })
                    .collect()
            })
            .collect();
        Ok(ImageStop {
            ops,
            snapshot,
            params,
            image_of,
            traces,
            sample,
            times,
            feeds_per_op: 0.0,
        })
    }

    fn serve(&self, i: usize, rec: Option<&mut Recorder>) -> Res<ImageServeReport> {
        self.serve_under(STOP, i, rec)
    }

    fn serve_under(
        &self,
        stop: ImageStopRule,
        i: usize,
        mut rec: Option<&mut Recorder>,
    ) -> Res<ImageServeReport> {
        let trace = &self.traces[i % self.traces.len()];
        let scheduler = span_if(&mut rec, "serve.image.new", || {
            ImageScheduler::new(
                self.snapshot.clone(),
                ImageConfig::new(Policy::MostWantedChunk, ACTIVE, stop),
                Arc::clone(&self.image_of),
            )
        });
        Ok(span_if(&mut rec, "serve.image.serve_trace", || {
            scheduler.serve_trace(trace, &self.params)
        })?)
    }

    fn complete(report: &ImageServeReport) -> bool {
        report.completions.len() == QUERIES_PER_OP && report.stats.rejected == 0
    }
}

/// `n` image queries of [`DESCRIPTORS_PER_QUERY`] descriptors each, query
/// `i` drawn from image `i mod N_IMAGES` — every image is asked equally
/// often, so `--seed` only decides which of an image's descriptors a query
/// carries. (`eff2_workload::image_queries` also draws the image from the
/// seed; over a pass's queries that alone moved the modelled latencies by
/// 10 % between seeds.)
fn stratified_image_queries(
    set: &DescriptorSet,
    image_of: &[u32],
    n: usize,
    seed: u64,
) -> Vec<ImageQuery> {
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); N_IMAGES];
    for (pos, &image) in image_of.iter().enumerate().take(set.len()) {
        members[image as usize].push(pos as u32);
    }
    members.retain(|m| !m.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let pool = &members[i % members.len()];
            let source_positions: Vec<u32> = (0..DESCRIPTORS_PER_QUERY)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            ImageQuery {
                image: image_of[pool[0] as usize],
                descriptors: source_positions
                    .iter()
                    .map(|&pos| set.vector_owned(pos as usize))
                    .collect(),
                source_positions,
            }
        })
        .collect()
}

impl Workload for ImageStop {
    fn ops(&self) -> usize {
        self.ops
    }

    fn op(&mut self, i: usize) -> bool {
        black_box(self.serve(i, None)).is_ok_and(|r| Self::complete(&r))
    }

    fn traced_op(&mut self, i: usize, rec: &mut Recorder) -> bool {
        rec.enter("op");
        let report = self.serve(i, Some(rec));
        rec.exit();
        report.is_ok_and(|r| Self::complete(&r))
    }

    fn verify(&mut self) -> Res<Facts> {
        let mut facts = Facts::default();
        let mut kept = Vec::new();
        let (mut spent, mut total, mut chunks) = (0u64, 0u64, 0u64);
        let (mut feeds, mut fetches, mut hits, mut misses, mut evictions) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for op in 0..self.ops {
            facts.attempted += 1;
            // The same trace with no early termination: the ranking every
            // descriptor's votes would have produced.
            let (Ok(report), Ok(full)) = (
                self.serve(op, None),
                self.serve_under(ImageStopRule::RunAll, op, None),
            ) else {
                facts.failed += 1;
                continue;
            };
            // Accounting must be exact: every descriptor either spent or
            // abandoned, per query and in the scheduler's totals.
            let mut ok = Self::complete(&report) && report.stats.images_degraded == 0;
            let (mut op_spent, mut op_abandoned) = (0u64, 0u64);
            for (c, f) in report.completions.iter().zip(&full.completions) {
                let o = &c.outcome;
                kept.push(image_precision_at(
                    &o.top_images(TOP),
                    &f.outcome.top_images(TOP),
                    TOP,
                ));
                ok &= o.descriptors_total == DESCRIPTORS_PER_QUERY
                    && o.descriptors_spent + o.descriptors_abandoned == o.descriptors_total;
                op_spent += o.descriptors_spent as u64;
                op_abandoned += o.descriptors_abandoned as u64;
                chunks += o.chunks_read;
                facts.modelled_ms.push(c.latency().as_ms());
            }
            ok &= report.stats.descriptors_spent == op_spent
                && report.stats.descriptors_abandoned == op_abandoned;
            facts.failed += u64::from(!ok);
            spent += op_spent;
            total += op_spent + op_abandoned;
            feeds += report.stats.feeds;
            fetches += report.stats.fetches;
            hits += report.stats.cache.hits;
            misses += report.stats.cache.misses;
            evictions += report.stats.cache.evictions;
        }
        // The quality figure here: how much of the full run's top-3 image
        // ranking the early-stopped answer kept — what stopping early costs.
        facts.precision = mean(kept.into_iter());
        facts.disk_bytes_per_user_byte = disk_bytes_per_user_byte(self.snapshot.store())?;
        let ops = self.ops.max(1) as f64;
        self.feeds_per_op = feeds as f64 / ops;
        let c = &mut facts.counts;
        c.insert(
            "serve.image.spent_fraction",
            spent as f64 / total.max(1) as f64,
        );
        c.insert(
            "serve.image.feeds_per_fetch",
            feeds as f64 / fetches.max(1) as f64,
        );
        c.insert(
            "core.search.chunks_read_per_query",
            chunks as f64 / spent.max(1) as f64,
        );
        c.insert(
            "storage.source.resident_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        c.insert(
            "storage.source.resident_evictions_per_op",
            evictions as f64 / ops,
        );
        Ok(facts)
    }

    fn setup(&self) -> &Measured {
        &self.times
    }

    fn layers(&mut self, spans: &SpanStats, out: &mut Measured) -> Res<()> {
        out.insert(
            "serve.image.us_per_feed",
            spans.us("serve.image.serve_trace") / self.feeds_per_op.max(1.0),
        );
        // The vote fold alone: absorb one descriptor's neighbours, then
        // read the top-3 the stop rule looks at.
        let lists: Vec<_> = self.sample.iter().map(|r| r.neighbors.clone()).collect();
        let secs = median_secs(|| {
            let mut acc = ImageVoteAccumulator::new(Arc::clone(&self.image_of), self.params.k);
            for list in &lists {
                acc.absorb(list);
                black_box(acc.top_m(3));
            }
        });
        out.insert(
            "core.image.absorb_rank_us",
            secs * 1e6 / lists.len().max(1) as f64,
        );
        Ok(())
    }
}
