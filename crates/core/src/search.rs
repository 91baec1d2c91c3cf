//! The approximate search algorithm of §4.3.
//!
//! For a query descriptor the search (1) computes the distance from the
//! query to every chunk centroid and ranks chunks by increasing distance,
//! (2) fetches and scans chunks in ranked order, updating the current
//! neighbour set, and (3) stops according to the [`StopRule`]:
//!
//! * [`StopRule::Chunks`] — "the search might simply stop once *n* chunks
//!   have been processed";
//! * [`StopRule::VirtualTime`] — "or when a time threshold has been
//!   passed" (checked at chunk granularity: a chunk's results only exist
//!   once the whole chunk is processed — the effect that makes BAG's giant
//!   chunks hurt);
//! * [`StopRule::ToCompletion`] — "it stops when k neighbors have been
//!   found and when the minimum distance to the next chunk is greater than
//!   the current distance to the kth neighbor", where the minimum distance
//!   to a chunk is `d(q, centroid) − radius`. Because ranking is by
//!   centroid distance while the bound subtracts the radius, the bound is
//!   not monotone along the ranked order; the implementation uses a
//!   suffix-minimum over the remaining chunks so completion is *exact*
//!   (property-tested against a sequential scan).
//!
//! Every processed chunk appends a [`ChunkEvent`] carrying the virtual
//! completion time and a snapshot of the current top-k — the raw material
//! for all of the paper's quality-vs-time figures.

use crate::neighbors::Neighbor;
use crate::session::SearchSession;
use eff2_descriptor::Vector;
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::source::{ChunkSource, PrefetchSource};
use eff2_storage::{ChunkStore, Result};
use std::sync::Arc;

/// When to abandon the chunk scan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopRule {
    /// Stop after this many chunks have been processed.
    Chunks(usize),
    /// Stop at the first chunk boundary at or after this much virtual time
    /// (measured from query start, including the index read).
    VirtualTime(VirtualDuration),
    /// Run until the result is provably exact.
    ToCompletion,
    /// Run until the result is provably a (1+ε)-approximation: stop when
    /// `(1+ε) · min_remaining_bound > kth distance`. This is the
    /// contraction trick of the paper's related work (Weber & Böhm's
    /// VA-BND, Ciaccia & Patella's AC-NN): ε "makes chunks somehow
    /// smaller". `ToCompletionEps(0.0)` ≡ [`StopRule::ToCompletion`].
    ToCompletionEps(f32),
}

/// Search parameters.
#[derive(Clone, Copy, Debug)]
pub struct SearchParams {
    /// Number of neighbours to return (the paper uses k = 30).
    pub k: usize,
    /// Stop rule.
    pub stop: StopRule,
    /// How many chunks the pipelined reader may fetch ahead.
    pub prefetch_depth: usize,
    /// Record a top-k identifier snapshot in every [`ChunkEvent`] (needed
    /// for precision-of-intermediate-results curves; costs k words per
    /// chunk).
    pub log_snapshots: bool,
}

impl SearchParams {
    /// `k` neighbours, run to completion, with snapshots on.
    pub fn exact(k: usize) -> Self {
        SearchParams {
            k,
            stop: StopRule::ToCompletion,
            prefetch_depth: 2,
            log_snapshots: true,
        }
    }

    /// `k` neighbours from the `n` nearest chunks.
    pub fn approximate(k: usize, n_chunks: usize) -> Self {
        SearchParams {
            k,
            stop: StopRule::Chunks(n_chunks),
            prefetch_depth: 2,
            log_snapshots: true,
        }
    }
}

/// Log entry for one processed chunk.
#[derive(Clone, Debug)]
pub struct ChunkEvent {
    /// 0-based position in the ranked order.
    pub rank: usize,
    /// Chunk id within the store.
    pub chunk_id: usize,
    /// Descriptors scanned in this chunk.
    pub count: u32,
    /// Bytes transferred for this chunk (padded page span).
    pub bytes_read: u64,
    /// Virtual time at which this chunk's results became available
    /// (measured from query start).
    pub completed_at: VirtualDuration,
    /// Current kth-best distance after this chunk (∞ until k are held).
    pub kth_dist: f32,
    /// Snapshot of the current top-k ids (increasing distance), if
    /// requested.
    pub topk_ids: Vec<u32>,
}

/// What a search lost to unreadable chunks.
///
/// Stays all-zero unless a [`SkipPolicy`](crate::session::SkipPolicy)
/// allowed the session to continue past a permanently failed chunk — an
/// honest record of everything the answer was *not* computed over.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Ranked chunks that could not be read and were skipped.
    pub chunks_lost: usize,
    /// Descriptors those chunks would have contributed to the scan.
    pub descriptors_lost: u64,
    /// Ids of the skipped chunks, in ranked (skip) order.
    pub lost_chunks: Vec<usize>,
}

impl Degradation {
    /// Whether anything was lost.
    pub fn is_degraded(&self) -> bool {
        self.chunks_lost > 0
    }
}

/// How much the result can be trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResultFidelity {
    /// Completion was proved over every ranked chunk: the answer is exact.
    Exact,
    /// The stop rule ended the scan early; the answer is the paper's
    /// approximate result.
    Approximate,
    /// Chunks were lost to faults: the answer omits data it should have
    /// seen, beyond what the stop rule alone would discard.
    Degraded,
}

/// Everything observed while executing one query.
#[derive(Clone, Debug, Default)]
pub struct SearchLog {
    /// Virtual cost of reading and ranking the chunk index.
    pub index_read_time: VirtualDuration,
    /// Per-chunk events in processing order.
    pub events: Vec<ChunkEvent>,
    /// Chunks processed.
    pub chunks_read: usize,
    /// Descriptors scanned.
    pub descriptors_scanned: u64,
    /// Bytes transferred (chunk file only; includes any rerank-tail
    /// reads).
    pub bytes_read: u64,
    /// Bytes of `bytes_read` spent by the exact rerank tail of a
    /// quantized search (zero for uncompressed searches).
    pub rerank_bytes: u64,
    /// Chunks re-read by the exact rerank tail (zero for uncompressed
    /// searches).
    pub rerank_chunks: usize,
    /// Centroid distance evaluations the ranking spent: `n_chunks` for
    /// flat ranking, `n_cells` plus expanded members for two-level.
    pub centroid_evals: u64,
    /// Total virtual time of the query.
    pub total_virtual: VirtualDuration,
    /// Real wall-clock time of the query.
    pub wall: std::time::Duration,
    /// Whether the search proved its result exact (completion reached).
    pub completed: bool,
    /// What was lost to unreadable chunks (all-zero in fault-free runs).
    pub degradation: Degradation,
}

impl SearchLog {
    /// Classifies the result: [`ResultFidelity::Degraded`] if any chunk
    /// was lost, otherwise exact/approximate per the completion proof.
    pub fn fidelity(&self) -> ResultFidelity {
        if self.degradation.is_degraded() {
            ResultFidelity::Degraded
        } else if self.completed {
            ResultFidelity::Exact
        } else {
            ResultFidelity::Approximate
        }
    }
}

/// A query's answer plus its log.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The neighbours found, in increasing distance order.
    pub neighbors: Vec<Neighbor>,
    /// The observation log.
    pub log: SearchLog,
}

impl SearchResult {
    /// What "bit-identical" means for two results: `None` when every
    /// figure a search *determines* agrees bit for bit, otherwise the first
    /// one that does not, named, with both values — neighbour ids and
    /// distance bits, then the log's counters, modelled times, completion
    /// flag and degradation report, then each [`ChunkEvent`] field by
    /// field. `log.wall` is measured, not determined, and never compared.
    pub fn first_difference(&self, other: &SearchResult) -> Option<String> {
        macro_rules! same {
            ($of:expr, $a:expr, $b:expr, $($field:tt)+) => {
                if $a.$($field)+ != $b.$($field)+ {
                    let (a, b) = (&$a.$($field)+, &$b.$($field)+);
                    return Some(format!("{}.{}: {a:?} vs {b:?}", $of, stringify!($($field)+)));
                }
            };
        }
        let answer = |r: &SearchResult| -> Vec<(u32, u32)> {
            r.neighbors
                .iter()
                .map(|n| (n.id, n.dist.to_bits()))
                .collect()
        };
        let (a, b) = (answer(self), answer(other));
        if a != b {
            return Some(format!("neighbors (id, dist bits): {a:?} vs {b:?}"));
        }
        let (a, b) = (&self.log, &other.log);
        same!("log", a, b, index_read_time.as_secs().to_bits());
        same!("log", a, b, chunks_read);
        same!("log", a, b, descriptors_scanned);
        same!("log", a, b, bytes_read);
        same!("log", a, b, rerank_bytes);
        same!("log", a, b, rerank_chunks);
        same!("log", a, b, centroid_evals);
        same!("log", a, b, total_virtual.as_secs().to_bits());
        same!("log", a, b, completed);
        same!("log", a, b, degradation);
        same!("log", a, b, events.len());
        for (i, (x, y)) in a.events.iter().zip(&b.events).enumerate() {
            let of = format_args!("log.events[{i}]");
            same!(of, x, y, rank);
            same!(of, x, y, chunk_id);
            same!(of, x, y, count);
            same!(of, x, y, bytes_read);
            same!(of, x, y, completed_at.as_secs().to_bits());
            same!(of, x, y, kth_dist.to_bits());
            same!(of, x, y, topk_ids);
        }
        None
    }
}

/// Executes one query against a chunk store under the given cost model.
///
/// This is ranking + drive-to-stop over a [`SearchSession`] with the
/// default prefetching source — see [`crate::session`] for the resumable
/// form and for answering many stop rules from one scan.
pub fn search(
    store: &ChunkStore,
    model: &DiskModel,
    query: &Vector,
    params: &SearchParams,
) -> Result<SearchResult> {
    SearchSession::open(store, model, query, params).run()
}

/// [`search`] drawing chunks from an explicit [`ChunkSource`] (e.g. a
/// shared [`eff2_storage::source::ResidentSource`] for hot serving).
pub fn search_with_source(
    store: &ChunkStore,
    model: &DiskModel,
    query: &Vector,
    params: &SearchParams,
    source: Arc<dyn ChunkSource>,
) -> Result<SearchResult> {
    SearchSession::with_source(store, model, query, params, source).run()
}

/// Executes a batch of queries in parallel over a shared read-only store,
/// on up to `threads` workers (the batch probe sweeps this;
/// [`eff2_parallel::max_threads`] is the default count).
///
/// Parallelism stops at the query boundary: each query runs the full
/// sequential [`search`] with its own chunk stream and its own
/// `PipelineClock`, so the per-query virtual-time accounting — and with
/// it every [`ChunkEvent`] field (rank, chunk id, count, bytes,
/// `completed_at`, kth distance, top-k snapshot) — is bit-identical to a
/// one-query-at-a-time run. The determinism test asserts exactly that.
/// Results come back in query order.
///
/// All workers share one [`PrefetchSource`] — a store handle and a depth;
/// every query's stream reads its own chunks.
pub fn search_batch_threads(
    store: &ChunkStore,
    model: &DiskModel,
    queries: &[Vector],
    params: &SearchParams,
    threads: usize,
) -> Result<Vec<SearchResult>> {
    let source: Arc<dyn ChunkSource> = Arc::new(PrefetchSource::new(store, params.prefetch_depth));
    eff2_parallel::try_par_map_threads(threads, queries, |_, q| {
        SearchSession::with_source(store, model, q, params, Arc::clone(&source)).run()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkers::{ChunkFormer, RoundRobinChunker, SrTreeChunker};
    use crate::scan::scan_knn;
    use eff2_descriptor::{Descriptor, DescriptorSet};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eff2_search_{tag}_{}_{unique}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn lumpy_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let blob = (i % 5) as f32 * 20.0;
                let mut v = Vector::splat(blob);
                v[0] += ((i * 31) % 23) as f32 * 0.3;
                v[3] -= ((i * 17) % 19) as f32 * 0.2;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    fn build_store(tag: &str, set: &DescriptorSet, former: &dyn ChunkFormer) -> ChunkStore {
        let formation = former.form(set);
        ChunkStore::create(&tmp_dir(tag), "ix", set, &formation.chunks, 512).expect("create")
    }

    #[test]
    fn to_completion_matches_sequential_scan() {
        let set = lumpy_set(500);
        for (tag, former) in [
            ("sr", &SrTreeChunker { leaf_size: 40 } as &dyn ChunkFormer),
            (
                "rr",
                &RoundRobinChunker { n_chunks: 12 } as &dyn ChunkFormer,
            ),
        ] {
            let store = build_store(&format!("complete_{tag}"), &set, former);
            let model = DiskModel::ata_2005();
            for qpos in [0usize, 123, 444] {
                let q = set.vector_owned(qpos);
                let got = search(&store, &model, &q, &SearchParams::exact(10)).expect("search");
                assert!(got.log.completed, "{tag}: must prove completion");
                let want = scan_knn(&set, &q, 10);
                assert_eq!(got.neighbors.len(), want.len());
                for (g, w) in got.neighbors.iter().zip(want.iter()) {
                    assert!(
                        (g.dist - w.dist).abs() < 1e-4,
                        "{tag}: {g:?} vs {w:?} at q{qpos}"
                    );
                }
            }
        }
    }

    #[test]
    fn completion_stops_early_for_dataset_queries() {
        // A query that *is* a dataset point inside a tight blob should not
        // need every chunk.
        let set = lumpy_set(1_000);
        let store = build_store("early", &set, &SrTreeChunker { leaf_size: 50 });
        let q = set.vector_owned(7);
        let got =
            search(&store, &DiskModel::ata_2005(), &q, &SearchParams::exact(5)).expect("search");
        assert!(got.log.completed);
        assert!(
            got.log.chunks_read < store.n_chunks(),
            "read {} of {}",
            got.log.chunks_read,
            store.n_chunks()
        );
    }

    #[test]
    fn chunk_stop_rule_reads_exactly_n() {
        let set = lumpy_set(400);
        let store = build_store("kchunks", &set, &SrTreeChunker { leaf_size: 25 });
        let q = Vector::splat(10.0);
        let got = search(
            &store,
            &DiskModel::ata_2005(),
            &q,
            &SearchParams::approximate(10, 3),
        )
        .expect("search");
        assert_eq!(got.log.chunks_read, 3);
        assert_eq!(got.log.events.len(), 3);
        assert!(!got.log.completed);
    }

    #[test]
    fn chunk_stop_rule_clamped_to_store() {
        let set = lumpy_set(100);
        let store = build_store("clamp", &set, &SrTreeChunker { leaf_size: 50 });
        let got = search(
            &store,
            &DiskModel::ata_2005(),
            &Vector::ZERO,
            &SearchParams::approximate(5, 99),
        )
        .expect("search");
        assert_eq!(got.log.chunks_read, store.n_chunks());
        assert!(got.log.completed, "exhausting all chunks is completion");
    }

    #[test]
    fn virtual_time_stop_rule() {
        let set = lumpy_set(600);
        let store = build_store("vtime", &set, &SrTreeChunker { leaf_size: 20 });
        let model = DiskModel::ata_2005();
        // Budget: index read + ~3 chunks' worth of time.
        let per_chunk = model.io_time(20 * 100 + 512).max(model.scan_time(20));
        let budget = model.index_read_time(store.n_chunks(), store.index_bytes())
            + VirtualDuration::from_secs(per_chunk.as_secs() * 3.5);
        let got = search(
            &store,
            &model,
            &Vector::ZERO,
            &SearchParams {
                k: 10,
                stop: StopRule::VirtualTime(budget),
                prefetch_depth: 2,
                log_snapshots: false,
            },
        )
        .expect("search");
        assert!(got.log.chunks_read >= 1 && got.log.chunks_read <= 6);
        // The stop fires at the first chunk boundary past the budget.
        let last = got.log.events.last().expect("at least one event");
        assert!(last.completed_at >= budget || got.log.chunks_read == store.n_chunks());
    }

    #[test]
    fn events_have_monotone_virtual_times_and_shrinking_kth() {
        let set = lumpy_set(500);
        let store = build_store("mono", &set, &SrTreeChunker { leaf_size: 30 });
        let got = search(
            &store,
            &DiskModel::ata_2005(),
            &Vector::splat(5.0),
            &SearchParams::exact(10),
        )
        .expect("search");
        let mut last_t = got.log.index_read_time;
        let mut last_k = f32::INFINITY;
        for e in &got.log.events {
            assert!(e.completed_at > last_t);
            assert!(e.kth_dist <= last_k);
            last_t = e.completed_at;
            last_k = e.kth_dist;
        }
        assert_eq!(got.log.total_virtual, last_t);
    }

    #[test]
    fn ranked_order_is_by_centroid_distance() {
        let set = lumpy_set(300);
        let store = build_store("rank", &set, &SrTreeChunker { leaf_size: 30 });
        let q = Vector::splat(40.0);
        let got =
            search(&store, &DiskModel::ata_2005(), &q, &SearchParams::exact(5)).expect("search");
        let mut last = f32::NEG_INFINITY;
        for e in &got.log.events {
            let d = store.metas()[e.chunk_id].centroid.dist(&q);
            assert!(d >= last - 1e-5, "chunks must arrive in centroid order");
            last = d;
        }
    }

    #[test]
    fn k_zero_reads_nothing() {
        let set = lumpy_set(100);
        let store = build_store("kzero", &set, &SrTreeChunker { leaf_size: 25 });
        let got = search(
            &store,
            &DiskModel::ata_2005(),
            &Vector::ZERO,
            &SearchParams {
                k: 0,
                stop: StopRule::ToCompletion,
                prefetch_depth: 1,
                log_snapshots: false,
            },
        )
        .expect("search");
        assert!(got.neighbors.is_empty());
        assert_eq!(got.log.chunks_read, 0);
        assert!(
            got.log.completed,
            "an empty answer is trivially exact: no descriptor can enter the top-0"
        );
    }

    /// A zero prefetch window is a typed error at the first step, not a
    /// panic — and a `k = 0` query, which opens no stream, tolerates it.
    #[test]
    fn zero_prefetch_depth_is_refused_without_panicking() {
        let set = lumpy_set(100);
        let store = build_store("depth0", &set, &SrTreeChunker { leaf_size: 25 });
        let model = DiskModel::ata_2005();
        let params = SearchParams {
            prefetch_depth: 0,
            ..SearchParams::exact(3)
        };
        let refused = search(&store, &model, &Vector::ZERO, &params);
        assert!(matches!(refused, Err(eff2_storage::Error::Inconsistent(_))));
        let empty = search(
            &store,
            &model,
            &Vector::ZERO,
            &SearchParams { k: 0, ..params },
        );
        assert_eq!(empty.expect("no stream is opened").log.chunks_read, 0);
    }

    #[test]
    fn k_zero_is_completed_under_every_stop_rule() {
        let set = lumpy_set(100);
        let store = build_store("kzerorules", &set, &SrTreeChunker { leaf_size: 25 });
        let model = DiskModel::ata_2005();
        for stop in [
            StopRule::Chunks(2),
            StopRule::VirtualTime(VirtualDuration::from_ms(30.0)),
            StopRule::ToCompletion,
            StopRule::ToCompletionEps(0.5),
        ] {
            let got = search(
                &store,
                &model,
                &Vector::ZERO,
                &SearchParams {
                    k: 0,
                    stop,
                    prefetch_depth: 1,
                    log_snapshots: false,
                },
            )
            .expect("search");
            assert!(got.neighbors.is_empty());
            assert_eq!(got.log.chunks_read, 0, "{stop:?} must read nothing");
            assert!(got.log.completed, "{stop:?} must report completion");
        }
    }

    #[test]
    fn k_larger_than_collection_returns_all() {
        let set = lumpy_set(40);
        let store = build_store("kbig", &set, &SrTreeChunker { leaf_size: 10 });
        let got = search(
            &store,
            &DiskModel::ata_2005(),
            &Vector::ZERO,
            &SearchParams::exact(100),
        )
        .expect("search");
        assert_eq!(got.neighbors.len(), 40);
        assert!(got.log.completed);
    }

    #[test]
    fn snapshots_track_topk() {
        let set = lumpy_set(200);
        let store = build_store("snap", &set, &SrTreeChunker { leaf_size: 20 });
        let q = set.vector_owned(3);
        let got =
            search(&store, &DiskModel::ata_2005(), &q, &SearchParams::exact(5)).expect("search");
        let final_ids: Vec<u32> = got.neighbors.iter().map(|n| n.id).collect();
        let last = got.log.events.last().expect("events");
        assert_eq!(last.topk_ids, final_ids);
        for e in &got.log.events {
            assert!(e.topk_ids.len() <= 5);
        }
    }

    #[test]
    fn eps_zero_equals_to_completion() {
        let set = lumpy_set(500);
        let store = build_store("epszero", &set, &SrTreeChunker { leaf_size: 30 });
        let model = DiskModel::ata_2005();
        let q = set.vector_owned(99);
        let exact = search(&store, &model, &q, &SearchParams::exact(10)).expect("exact");
        let eps0 = search(
            &store,
            &model,
            &q,
            &SearchParams {
                k: 10,
                stop: StopRule::ToCompletionEps(0.0),
                prefetch_depth: 2,
                log_snapshots: false,
            },
        )
        .expect("eps0");
        assert!(eps0.log.completed);
        assert_eq!(
            exact.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            eps0.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        assert_eq!(exact.log.chunks_read, eps0.log.chunks_read);
    }

    #[test]
    fn eps_relaxation_reads_fewer_chunks_and_bounds_error() {
        let set = lumpy_set(800);
        let store = build_store("epsrelax", &set, &SrTreeChunker { leaf_size: 25 });
        let model = DiskModel::ata_2005();
        let mut fewer_somewhere = false;
        // Off-dataset queries: the kth distance is large relative to the
        // chunk bounds, so the (1+ε) contraction has room to bite.
        let queries: Vec<Vector> = (0..6)
            .map(|i| {
                let mut v = Vector::splat(6.0 + i as f32 * 7.0);
                v[1] -= 9.0;
                v[4] += 5.0;
                v
            })
            .collect();
        for q in queries {
            let exact = search(&store, &model, &q, &SearchParams::exact(8)).expect("exact");
            let eps = 1.0f32;
            let relaxed = search(
                &store,
                &model,
                &q,
                &SearchParams {
                    k: 8,
                    stop: StopRule::ToCompletionEps(eps),
                    prefetch_depth: 2,
                    log_snapshots: false,
                },
            )
            .expect("relaxed");
            assert!(relaxed.log.chunks_read <= exact.log.chunks_read);
            if relaxed.log.chunks_read < exact.log.chunks_read {
                fewer_somewhere = true;
            }
            // The certified bound: every returned distance is within
            // (1+ε) of the true kth distance.
            let true_kth = exact.neighbors.last().expect("k results").dist;
            for n in &relaxed.neighbors {
                assert!(n.dist <= true_kth * (1.0 + eps) + 1e-4);
            }
        }
        assert!(fewer_somewhere, "ε = 1.0 should save chunks on some query");
    }

    #[test]
    fn virtual_time_includes_index_read() {
        let set = lumpy_set(100);
        let store = build_store("idx", &set, &SrTreeChunker { leaf_size: 25 });
        let model = DiskModel::ata_2005();
        let got = search(&store, &model, &Vector::ZERO, &SearchParams::exact(5)).expect("search");
        assert!(got.log.total_virtual > got.log.index_read_time);
        assert!(got.log.index_read_time.as_ms() > 0.0);
    }
}
