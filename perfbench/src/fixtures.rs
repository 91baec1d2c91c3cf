//! Fixture building shared by the workloads: the per-run temp directory,
//! the synthetic collection, the SR-tree chunk store, the query pool with
//! its exact ground truth, and the bit-identity check every workload's
//! correctness pass uses.
//!
//! Every build step is timed; the timings are the set-up layer metrics.

use crate::proc::dir_bytes;
use eff2_core::chunkers::{ChunkFormation, ChunkFormer, SrTreeChunker};
use eff2_core::search::{search, SearchParams, SearchResult, StopRule};
use eff2_descriptor::{l2_sq, DescriptorSet, SyntheticCollection, Vector};
use eff2_metrics::{precision_at, GroundTruth};
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::ChunkStore;
use eff2_workload::{dq_workload, poisson_arrivals, sq_workload, Workload as QuerySet};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's error type: set-up and verification abort loudly.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Seed of every collection. `--seed` drives queries, traces and
/// mutations only, so all runs index the same data.
pub const COLLECTION_SEED: u64 = 42;
/// Neighbours per query (the paper's k).
pub const K: usize = 30;
/// SR-tree leaf size = chunk size of the uniform-chunk stores.
pub const LEAF: usize = 200;
/// Page size of every store written.
pub const PAGE: u32 = 8192;
/// How far past solo modelled capacity the serving traces arrive.
pub const OVERLOAD: f64 = 4.0;

/// The search parameters used throughout: k = 30, the 8 nearest chunks,
/// prefetch depth 2, no per-chunk snapshots.
pub fn params() -> SearchParams {
    SearchParams {
        k: K,
        stop: StopRule::Chunks(8),
        prefetch_depth: 2,
        log_snapshots: false,
    }
}

/// A directory removed (with everything under it) when dropped — on the
/// normal path, on `?` and while unwinding from a panic.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<cwd>/.perfbench/tmp/run-<pid>-<seed>`, inside the
    /// checkout the benchmark was started from.
    pub fn for_run(seed: u64) -> Res<TempDir> {
        let dir = std::env::current_dir()?
            .join(".perfbench")
            .join("tmp")
            .join(format!("run-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Drop must not panic; a leftover directory is under an ignored path.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Collection sizes and op counts of a run. The full scale is frozen in
/// `BENCHMARK.json`; the smoke scale exists for the in-process test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Descriptors behind the five SR-tree serving workloads.
    pub big: usize,
    /// Descriptors behind `image_stop` (BAG) and `live_mixed`.
    pub small: usize,
    /// Whether op counts are cut to the smoke minimum.
    pub smoke: bool,
}

impl Scale {
    /// 100 k / 10 k descriptors, full op counts.
    pub const FULL: Scale = Scale {
        big: 100_000,
        small: 10_000,
        smoke: false,
    };
    /// 2 500 descriptors everywhere, at least 20 ops per pass.
    pub const SMOKE: Scale = Scale {
        big: 2_500,
        small: 2_500,
        smoke: true,
    };

    /// A pass's op count at this scale.
    pub fn ops(&self, full: usize) -> usize {
        if self.smoke {
            (full / 50).clamp(20, 40)
        } else {
            full
        }
    }
}

/// What building one workload needs to know.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// Collection sizes and op counts.
    pub scale: Scale,
    /// This workload's own directory under the run's temp directory.
    pub dir: PathBuf,
}

/// Set-up layer timings and counts, keyed by per-layer metric name.
pub type Measured = BTreeMap<&'static str, f64>;

/// Runs `f`, adding its wall time to `into[name]` in `unit_per_sec` units
/// per second (1 for s, 1e3 for ms).
pub fn timed<T>(
    into: &mut Measured,
    name: &'static str,
    unit_per_sec: f64,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    *into.entry(name).or_insert(0.0) += start.elapsed().as_secs_f64() * unit_per_sec;
    out
}

/// The synthetic collection of about `n` descriptors.
pub fn collection(n: usize, times: &mut Measured) -> DescriptorSet {
    timed(times, "descriptor.gen.collection_s", 1.0, || {
        SyntheticCollection::with_size(n, COLLECTION_SEED).set
    })
}

/// Whether two of `r`'s neighbours sit at the same distance.
///
/// `core::merge` orders a fleet's merged answer by `(dist_sq, id)` and
/// takes square roots afterwards, while a solo search orders by
/// `(sqrt(dist_sq), id)`: two neighbours whose squared distances differ by
/// an ulp but whose roots round to the same `f32` come back in opposite
/// orders, and the fleet's answer is no longer bit-identical to the solo
/// one (seed 9 drew such a query). The benchmark does not change the
/// program, so it asks no query whose answer holds such a pair.
fn has_tied_distances(r: &SearchResult) -> bool {
    r.neighbors
        .windows(2)
        .any(|w| w[0].dist.to_bits() == w[1].dist.to_bits())
}

/// The first `want` of `candidates` whose one-call answer over `store`
/// holds no tied distances, with those answers.
fn tie_free(
    candidates: Vec<Vector>,
    want: usize,
    store: &ChunkStore,
    model: &DiskModel,
    params: &SearchParams,
) -> Res<(Vec<Vector>, Vec<SearchResult>)> {
    let (mut queries, mut answers) = (Vec::with_capacity(want), Vec::with_capacity(want));
    for q in candidates {
        if queries.len() == want {
            break;
        }
        let answer = search(store, model, &q, params)?;
        if !has_tied_distances(&answer) {
            queries.push(q);
            answers.push(answer);
        }
    }
    if queries.len() < want {
        return Err(format!("only {} of {want} queries are free of ties", queries.len()).into());
    }
    Ok((queries, answers))
}

/// Exact top-k of every pool query over the whole in-memory collection.
pub fn ground_truth(set: &DescriptorSet, pool: &[Vector], times: &mut Measured) -> GroundTruth {
    let queries = QuerySet {
        name: "pool".into(),
        queries: pool.to_vec(),
        source_positions: Vec::new(),
    };
    timed(times, "parallel.truth_s", 1.0, || {
        GroundTruth::compute_in_memory(set, &queries, K)
    })
}

/// Forms SR-tree leaf-[`LEAF`] chunks over `set`.
pub fn sr_chunks(set: &DescriptorSet, times: &mut Measured) -> ChunkFormation {
    timed(times, "srtree.form_s", 1.0, || {
        SrTreeChunker { leaf_size: LEAF }.form(set)
    })
}

/// Re-opens a freshly written store from its files, timing the open — the
/// handle every workload serves from is one a restarted program would get.
pub fn reopen(store: &ChunkStore, times: &mut Measured) -> Res<ChunkStore> {
    Ok(timed(times, "storage.store.open_ms", 1e3, || {
        ChunkStore::open(store.chunk_path(), store.index_path())
    })?)
}

/// The fixture behind the five 100 k workloads: collection, SR-tree raw
/// store (written, then re-opened), query pool with its one-call answers,
/// ground truth.
pub struct Base {
    /// The collection.
    pub set: DescriptorSet,
    /// The chunk formation the store was written from.
    pub formation: ChunkFormation,
    /// The raw SR-tree store.
    pub store: ChunkStore,
    /// The cost model of the virtual clock.
    pub model: DiskModel,
    /// Search parameters.
    pub params: SearchParams,
    /// Query pool: half dataset queries, half space queries, drawn from
    /// `--seed`.
    pub pool: Vec<Vector>,
    /// `search()` of every pool query over the raw store, from files.
    pub reference: Vec<SearchResult>,
    /// Exact answers for the pool.
    pub truth: GroundTruth,
    /// Set-up timings so far.
    pub times: Measured,
}

impl Base {
    /// Builds the fixture with `n` descriptors and `pool` queries.
    pub fn build(ctx: &Ctx, n: usize, pool: usize) -> Res<Base> {
        let mut times = Measured::new();
        let set = collection(n, &mut times);
        let formation = sr_chunks(&set, &mut times);
        let written = timed(&mut times, "storage.store.create_s", 1.0, || {
            ChunkStore::create(&ctx.dir, "sr", &set, &formation.chunks, PAGE)
        })?;
        let store = reopen(&written, &mut times)?;
        let (model, params) = (DiskModel::ata_2005(), params());
        // A few spare candidates of each kind stand in for dropped ones.
        let (n_dq, n_sq) = (pool - pool / 2, pool / 2);
        let spare = |n: usize| n + n / 16 + 2;
        let (dq, sq) = timed(&mut times, "workload.gen_ms", 1e3, || {
            (
                dq_workload(&set, spare(n_dq), ctx.seed).queries,
                sq_workload(&set, spare(n_sq), 0.05, ctx.seed ^ 0x5157).queries,
            )
        });
        let (mut pool, mut reference) = tie_free(dq, n_dq, &store, &model, &params)?;
        let (sq, sq_reference) = tie_free(sq, n_sq, &store, &model, &params)?;
        pool.extend(sq);
        reference.extend(sq_reference);
        let truth = ground_truth(&set, &pool, &mut times);
        Ok(Base {
            set,
            formation,
            store,
            model,
            params,
            pool,
            reference,
            truth,
            times,
        })
    }

    /// Mean precision@k of `results[i]` against pool query `picks[i]`.
    pub fn precision<'a>(&self, results: impl Iterator<Item = (usize, &'a SearchResult)>) -> f64 {
        mean(results.map(|(qi, r)| {
            let ids: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
            precision_at(&ids, &self.truth.ids[qi])
        }))
    }
}

/// Mean of an iterator of values (0 when empty), summed in order.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Whether two results are the same answer bit for bit: ids, distance
/// bits, and the modelled accounting (chunks, descriptors, bytes, virtual
/// time).
pub fn same_result(a: &SearchResult, b: &SearchResult) -> bool {
    a.neighbors.len() == b.neighbors.len()
        && a.neighbors
            .iter()
            .zip(&b.neighbors)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
        && a.log.chunks_read == b.log.chunks_read
        && a.log.descriptors_scanned == b.log.descriptors_scanned
        && a.log.bytes_read == b.log.bytes_read
        && a.log.total_virtual.as_secs().to_bits() == b.log.total_virtual.as_secs().to_bits()
}

/// Whether `r`'s distances are ascending and each equals a recomputed
/// `l2_sq` of the query against the collection row with that id.
pub fn distances_check_out(set: &DescriptorSet, query: &Vector, r: &SearchResult) -> bool {
    let ascending = r.neighbors.windows(2).all(|w| w[0].dist <= w[1].dist);
    ascending
        && r.neighbors.iter().all(|n| {
            // Collection ids are positions (the generator numbers them 0..n).
            let pos = n.id as usize;
            pos < set.len()
                && set.id(pos).0 == n.id
                && l2_sq(query.as_array(), set.vector(pos)).sqrt().to_bits() == n.dist.to_bits()
        })
}

/// Bytes in `store`'s directory per 100-byte descriptor it holds — the
/// `disk_bytes_per_user_byte` of a read-only workload.
pub fn disk_bytes_per_user_byte(store: &ChunkStore) -> Res<f64> {
    let dir = store
        .chunk_path()
        .parent()
        .ok_or("store path has no directory")?;
    Ok(dir_bytes(dir)? as f64 / (100.0 * store.total_descriptors().max(1) as f64))
}

/// A Poisson trace over `queries` at [`OVERLOAD`]× the solo modelled
/// capacity `1 / mean_solo_secs`.
pub fn overload_trace(
    queries: impl Iterator<Item = Vector>,
    n: usize,
    mean_solo_secs: f64,
    seed: u64,
) -> Vec<(Vector, VirtualDuration)> {
    let rate = OVERLOAD / mean_solo_secs.max(1e-9);
    queries
        .zip(poisson_arrivals(n, rate, seed).arrivals)
        .map(|(q, t)| (q, VirtualDuration::from_secs(t)))
        .collect()
}
