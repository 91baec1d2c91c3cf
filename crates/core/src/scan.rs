//! Sequential-scan baselines.
//!
//! The paper measures precision by first running "a sequential scan of the
//! collection" and storing the identifiers of the true nearest neighbours
//! (§5.4). [`scan_knn`] is that ground-truth scan over an in-memory
//! collection; [`scan_store_knn`] streams an on-disk chunk store end to end
//! (the curse-of-dimensionality fallback every index degrades to).

use eff2_descriptor::{scan_block_into, DescriptorSet, Neighbor, NeighborSet, Vector};
use eff2_storage::{ChunkStore, Result};

/// Exact k-nearest neighbours of `query` by scanning `set` with the
/// fused block kernel.
pub fn scan_knn(set: &DescriptorSet, query: &Vector, k: usize) -> Vec<Neighbor> {
    let mut best = NeighborSet::new(k);
    scan_block_into(query.as_array(), set.packed(), set.raw_ids(), &mut best);
    best.sorted()
}

/// Exact k-nearest neighbours of `query` by streaming every chunk of
/// `store` in file order.
pub fn scan_store_knn(store: &ChunkStore, query: &Vector, k: usize) -> Result<Vec<Neighbor>> {
    let mut best = NeighborSet::new(k);
    let mut reader = store.reader()?;
    let mut payload = eff2_storage::chunkfile::ChunkPayload::default();
    for id in 0..store.n_chunks() {
        reader.read_chunk(id, &mut payload)?;
        scan_block_into(query.as_array(), &payload.packed, &payload.ids, &mut best);
    }
    Ok(best.sorted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkers::{ChunkFormer, SrTreeChunker};
    use eff2_descriptor::Descriptor;

    fn set_of(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let mut v = Vector::splat((i % 7) as f32);
                v[2] += i as f32 * 0.01;
                Descriptor::new(i as u32 + 100, v)
            })
            .collect()
    }

    #[test]
    fn scan_finds_self_first() {
        let set = set_of(50);
        let q = set.vector_owned(13);
        let nn = scan_knn(&set, &q, 3);
        assert_eq!(nn[0].id, set.id(13).0);
        assert_eq!(nn[0].dist, 0.0);
    }

    #[test]
    fn scan_orders_by_distance() {
        let set = set_of(100);
        let nn = scan_knn(&set, &Vector::splat(3.0), 10);
        assert!(nn.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert_eq!(nn.len(), 10);
    }

    #[test]
    fn scan_k_exceeds_n() {
        let set = set_of(5);
        let nn = scan_knn(&set, &Vector::ZERO, 50);
        assert_eq!(nn.len(), 5);
    }

    #[test]
    fn scan_empty_set() {
        let set = DescriptorSet::new();
        assert!(scan_knn(&set, &Vector::ZERO, 5).is_empty());
    }

    #[test]
    fn store_scan_matches_memory_scan() {
        let set = set_of(200);
        let formation = SrTreeChunker { leaf_size: 32 }.form(&set);
        let dir = std::env::temp_dir().join(format!("eff2_scan_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store = eff2_storage::ChunkStore::create(&dir, "scan", &set, &formation.chunks, 512)
            .expect("create");
        let q = Vector::splat(2.5);
        let want = scan_knn(&set, &q, 7);
        let got = scan_store_knn(&store, &q, 7).expect("scan");
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.id, w.id);
            assert!((g.dist - w.dist).abs() < 1e-5);
        }
    }
}
