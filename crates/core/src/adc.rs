//! One-shot drivers for quantized (asymmetric-distance) and two-level
//! ranked search.
//!
//! [`crate::search::search`] scans raw `f32` records under a flat chunk
//! ranking. This module provides the compressed/coarse variants the
//! quality-vs-time study sweeps:
//!
//! * [`search_two_level`] — exact `f32` scan, but the ranking is
//!   two-level (`ChunkRanking::rank_two_level`): coarse cells first, a
//!   cell's chunks scored when the scan reaches them. Under the
//!   to-completion rule the answer is provably identical to the flat
//!   search — only the centroid-evaluation count changes;
//! * [`search_quantized`] — scan a quantized store's compact code region
//!   with the ADC kernels, retain `rerank_mult · k` candidates, then
//!   re-score them against the raw records (the **exact rerank tail**) so
//!   the returned top-`k` carries exact distances. Modelled bytes shrink by
//!   roughly the codec's compression ratio; quality is recovered by
//!   deepening the rerank pool. Its two-level form is
//!   [`SearchSession::open_quantized`] with a coarse quantizer.

use crate::coarse::CoarseQuantizer;
use crate::search::{SearchParams, SearchResult};
use crate::session::{ChunkRanking, SearchSession};
use eff2_descriptor::Vector;
use eff2_storage::diskmodel::DiskModel;
use eff2_storage::source::FileSource;
use eff2_storage::{ChunkStore, Result};
use std::sync::Arc;

/// Executes one query with a **two-level** chunk ranking: rank `coarse`'s
/// cells, score only the cells the scan actually reaches. Exact-scan
/// twin of [`crate::search::search`]; under `StopRule::ToCompletion` the
/// neighbour ids (and distances, bit for bit) match the flat search,
/// while `log.centroid_evals` records how many centroid distances the
/// ranking really spent.
pub fn search_two_level(
    store: &ChunkStore,
    model: &DiskModel,
    query: &Vector,
    params: &SearchParams,
    coarse: &CoarseQuantizer,
) -> Result<SearchResult> {
    let ranking = ChunkRanking::rank_two_level(store, model, query, coarse);
    let source = Arc::new(FileSource::new(store));
    SearchSession::from_parts(ranking, model, params, Some(source)).run()
}

/// Executes one query over a quantized store with a flat ranking:
/// ADC scan of the code region, then the exact rerank tail (see
/// [`SearchSession::open_quantized`], which also takes a coarse quantizer
/// for a two-level ranking).
pub fn search_quantized(
    store: &ChunkStore,
    model: &DiskModel,
    query: &Vector,
    params: &SearchParams,
    rerank_mult: usize,
) -> Result<SearchResult> {
    SearchSession::open_quantized(store, model, query, params, rerank_mult, None)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkers::{ChunkFormer, SrTreeChunker};
    use crate::search::{search, StopRule};
    use eff2_descriptor::quant::{Codec, PqCodec, Sq8Codec};
    use eff2_descriptor::{Descriptor, DescriptorSet};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eff2_adc_{tag}_{}_{unique}", std::process::id()));
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
                v[7] += ((i * 13) % 11) as f32 * 0.15;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    fn build_raw(tag: &str, set: &DescriptorSet, leaf: usize) -> ChunkStore {
        let formation = SrTreeChunker { leaf_size: leaf }.form(set);
        ChunkStore::create(&tmp_dir(tag), "ix", set, &formation.chunks, 512).expect("create")
    }

    fn build_quant(tag: &str, set: &DescriptorSet, leaf: usize, codec: &Codec) -> ChunkStore {
        let formation = SrTreeChunker { leaf_size: leaf }.form(set);
        ChunkStore::create_quantized(&tmp_dir(tag), "ix", set, &formation.chunks, 512, codec)
            .expect("create quantized")
    }

    #[test]
    fn two_level_to_completion_matches_flat_bitwise() {
        let set = lumpy_set(800);
        let store = build_raw("twolevel", &set, 25);
        let coarse = CoarseQuantizer::for_store(&store);
        let model = DiskModel::ata_2005();
        for qpos in [0usize, 113, 404, 777] {
            let q = set.vector_owned(qpos);
            let flat = search(&store, &model, &q, &SearchParams::exact(10)).expect("flat");
            let two = search_two_level(&store, &model, &q, &SearchParams::exact(10), &coarse)
                .expect("two-level");
            assert!(flat.log.completed && two.log.completed);
            assert_eq!(flat.neighbors.len(), two.neighbors.len());
            for (f, t) in flat.neighbors.iter().zip(two.neighbors.iter()) {
                assert_eq!(f.id, t.id, "neighbor ids must be unchanged at q{qpos}");
                assert_eq!(f.dist.to_bits(), t.dist.to_bits());
            }
        }
    }

    #[test]
    fn two_level_spends_fewer_centroid_evals_when_it_stops_early() {
        let set = lumpy_set(1_200);
        let store = build_raw("evals", &set, 20);
        let coarse = CoarseQuantizer::for_store(&store);
        let model = DiskModel::ata_2005();
        // A dataset point inside a tight blob completes after few chunks,
        // so only a few cells expand.
        let q = set.vector_owned(7);
        let flat = search(&store, &model, &q, &SearchParams::exact(5)).expect("flat");
        let two = search_two_level(&store, &model, &q, &SearchParams::exact(5), &coarse)
            .expect("two-level");
        assert_eq!(flat.log.centroid_evals, store.n_chunks() as u64);
        assert!(
            two.log.centroid_evals < flat.log.centroid_evals,
            "two-level must rank fewer centroids ({} vs {})",
            two.log.centroid_evals,
            flat.log.centroid_evals
        );
    }

    #[test]
    fn two_level_full_exhaustion_sees_every_chunk_once() {
        let set = lumpy_set(600);
        let store = build_raw("exhaust", &set, 30);
        let coarse = CoarseQuantizer::for_store(&store);
        let model = DiskModel::ata_2005();
        // An off-dataset query with a huge k forces full exhaustion.
        let q = Vector::splat(500.0);
        let two = search_two_level(&store, &model, &q, &SearchParams::exact(600), &coarse)
            .expect("two-level");
        assert_eq!(two.log.chunks_read, store.n_chunks());
        let mut seen = vec![false; store.n_chunks()];
        for e in &two.log.events {
            assert!(!seen[e.chunk_id], "chunk {} scanned twice", e.chunk_id);
            seen[e.chunk_id] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(
            two.log.centroid_evals,
            (coarse.n_cells() + store.n_chunks()) as u64
        );
    }

    #[test]
    fn full_budget_rerank_matches_uncompressed_ids_bitwise() {
        let set = lumpy_set(500);
        let raw = build_raw("fullbudget_raw", &set, 25);
        for (tag, codec) in [
            ("sq8", Codec::Sq8(Sq8Codec::from_set(&set))),
            ("pq", Codec::Pq(PqCodec::from_set(&set))),
        ] {
            let quant = build_quant(&format!("fullbudget_{tag}"), &set, 25, &codec);
            let model = DiskModel::ata_2005();
            let params = SearchParams {
                k: 5,
                stop: StopRule::Chunks(usize::MAX),
                prefetch_depth: 2,
                log_snapshots: false,
            };
            for qpos in [3usize, 250, 499] {
                let q = set.vector_owned(qpos);
                let exact = search(&raw, &model, &q, &params).expect("exact");
                // Rerank pool of R·k >= n guarantees the candidate pool is
                // a superset of the true top-k.
                let reranked =
                    search_quantized(&quant, &model, &q, &params, set.len()).expect("quantized");
                assert_eq!(
                    exact.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
                    reranked.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
                    "{tag}: q{qpos} ids must match the uncompressed search"
                );
                for (e, r) in exact.neighbors.iter().zip(reranked.neighbors.iter()) {
                    assert_eq!(
                        e.dist.to_bits(),
                        r.dist.to_bits(),
                        "{tag}: reranked distances must be exact"
                    );
                }
            }
        }
    }

    #[test]
    fn precision_is_monotone_in_rerank_depth() {
        let set = lumpy_set(900);
        let raw = build_raw("monodepth_raw", &set, 25);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let quant = build_quant("monodepth", &set, 25, &codec);
        let model = DiskModel::ata_2005();
        let budget = (raw.n_chunks() * 3 / 5).max(1);
        let params = SearchParams {
            k: 10,
            stop: StopRule::Chunks(budget),
            prefetch_depth: 2,
            log_snapshots: false,
        };
        for qpos in [11usize, 222, 555, 888] {
            let q = set.vector_owned(qpos);
            let truth: Vec<u32> = search(&raw, &model, &q, &params)
                .expect("truth")
                .neighbors
                .iter()
                .map(|n| n.id)
                .collect();
            let mut last = -1i64;
            for r in [1usize, 2, 4, 8] {
                let got = search_quantized(&quant, &model, &q, &params, r).expect("quantized");
                let hits = got
                    .neighbors
                    .iter()
                    .filter(|n| truth.contains(&n.id))
                    .count() as i64;
                assert!(
                    hits >= last,
                    "q{qpos}: precision dropped from {last} to {hits} at R={r}"
                );
                last = hits;
            }
        }
    }

    #[test]
    fn quantized_scan_reads_fewer_bytes() {
        let set = lumpy_set(600);
        let raw = build_raw("bytes_raw", &set, 25);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let quant = build_quant("bytes", &set, 25, &codec);
        let model = DiskModel::ata_2005();
        let budget = raw.n_chunks();
        let params = SearchParams {
            k: 5,
            stop: StopRule::Chunks(budget),
            prefetch_depth: 2,
            log_snapshots: false,
        };
        let q = set.vector_owned(42);
        let exact = search(&raw, &model, &q, &params).expect("exact");
        let quantized = search_quantized(&quant, &model, &q, &params, 4).expect("quantized");
        let scan_bytes = quantized.log.bytes_read - quantized.log.rerank_bytes;
        assert!(
            scan_bytes < exact.log.bytes_read,
            "quantized scan must read fewer bytes ({scan_bytes} vs {})",
            exact.log.bytes_read
        );
        assert!(quantized.log.rerank_chunks > 0, "tail must have reranked");
    }

    #[test]
    fn quantized_two_level_stacks_both_reductions() {
        let set = lumpy_set(800);
        let raw = build_raw("stack_raw", &set, 20);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let quant = build_quant("stack", &set, 20, &codec);
        let coarse = CoarseQuantizer::for_store(&quant);
        let model = DiskModel::ata_2005();
        let params = SearchParams::exact(5);
        let q = set.vector_owned(13);
        let flat_exact = search(&raw, &model, &q, &params).expect("flat exact");
        let got = SearchSession::open_quantized(&quant, &model, &q, &params, 8, Some(&coarse))
            .and_then(SearchSession::run)
            .expect("quantized two-level");
        assert!(got.log.centroid_evals <= flat_exact.log.centroid_evals);
        assert!(got.neighbors.len() == params.k.min(set.len()));
    }

    #[test]
    fn quantized_search_rejects_a_raw_store() {
        let set = lumpy_set(200);
        let raw = build_raw("rejectraw", &set, 25);
        let model = DiskModel::ata_2005();
        let q = Vector::ZERO;
        assert!(
            search_quantized(&raw, &model, &q, &SearchParams::exact(5), 2).is_err(),
            "a raw-only store has no quantized payloads to scan"
        );
    }

    #[test]
    fn k_zero_quantized_search_is_empty_and_reads_nothing() {
        let set = lumpy_set(200);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let quant = build_quant("kzero", &set, 25, &codec);
        let model = DiskModel::ata_2005();
        let params = SearchParams {
            k: 0,
            stop: StopRule::ToCompletion,
            prefetch_depth: 1,
            log_snapshots: false,
        };
        let got = search_quantized(&quant, &model, &Vector::ZERO, &params, 4).expect("search");
        assert!(got.neighbors.is_empty());
        assert_eq!(got.log.chunks_read, 0);
        assert_eq!(got.log.rerank_chunks, 0);
    }
}
