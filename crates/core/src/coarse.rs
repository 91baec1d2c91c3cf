//! Coarse quantizer over chunk centroids: the top level of two-level
//! chunk ranking.
//!
//! Flat ranking ([`ChunkRanking::rank`]) evaluates the query against
//! *every* chunk centroid before the first chunk is read. At 100k+
//! descriptors the centroid table itself becomes a scan. This module
//! clusters the chunk centroids into a few k-means **cells** so ranking
//! becomes two-level: rank the cells (a handful of distance evaluations),
//! then score a cell's chunks only when the scan first reads one of them
//! (`ChunkRanking::rank_two_level`).
//!
//! Exactness is preserved by a conservative cell radius: for every member
//! chunk `m` of cell `c`,
//!
//! ```text
//! cell_radius(c) >= d(center(c), centroid(m)) + radius(m)
//! ```
//!
//! so by the triangle inequality `d(q, center(c)) − cell_radius(c)` lower
//! bounds the distance from the query to **any descriptor** stored in any
//! chunk of the cell — the same shape of bound the flat ranking uses per
//! chunk, lifted one level. The to-completion stop rule stays exact.
//!
//! Training is deterministic: stride initialisation, a fixed iteration
//! count, `f64` accumulation in member order, and lowest-index
//! tie-breaking — the same discipline as the product-quantizer training in
//! `eff2-descriptor`.
//!
//! [`ChunkRanking::rank`]: crate::session::ChunkRanking::rank

use eff2_descriptor::{Vector, DIM};
use eff2_storage::indexfile::ChunkMeta;
use eff2_storage::ChunkStore;

/// Lloyd iterations for the coarse k-means. Fixed (not convergence-tested)
/// so training cost and results are deterministic functions of the input.
pub(crate) const COARSE_TRAIN_ITERS: usize = 8;

/// A k-means clustering of chunk centroids with conservative cell radii.
///
/// Built once per store by [`CoarseQuantizer::for_store`] and shared by
/// every query's `rank_two_level`.
#[derive(Clone, Debug)]
pub struct CoarseQuantizer {
    /// Cell centers (k-means centroids of the chunk centroids).
    centers: Vec<Vector>,
    /// Conservative radius per cell (see module docs).
    radii: Vec<f32>,
    /// Member chunk ids per cell, ascending. Every chunk id appears in
    /// exactly one cell.
    members: Vec<Vec<u32>>,
}

impl CoarseQuantizer {
    /// The default cell count: `ceil(sqrt(n_chunks))`, the classic
    /// balance point where ranking cost `n_cells + scored_members` is
    /// minimised when the scan stops after a few cells.
    pub(crate) fn default_cells(n_chunks: usize) -> usize {
        (n_chunks as f64).sqrt().ceil() as usize
    }

    /// Trains a coarse quantizer over `store`'s chunk centroids with
    /// `default_cells`.
    pub fn for_store(store: &ChunkStore) -> CoarseQuantizer {
        CoarseQuantizer::train(
            store.metas(),
            CoarseQuantizer::default_cells(store.n_chunks()),
        )
    }

    /// Trains `n_cells` k-means cells over the chunk centroids in `metas`
    /// (capped at the chunk count; at least one cell when any chunk
    /// exists). Deterministic: same metas and cell count, same quantizer.
    pub(crate) fn train(metas: &[ChunkMeta], n_cells: usize) -> CoarseQuantizer {
        let n = metas.len();
        if n == 0 {
            return CoarseQuantizer {
                centers: Vec::new(),
                radii: Vec::new(),
                members: Vec::new(),
            };
        }
        let k = n_cells.clamp(1, n);

        // Stride initialisation over the chunk order: centroid formation is
        // spatially clustered (SR-tree leaves, BAG cells), so strided picks
        // spread across the collection without any randomness.
        let mut centers: Vec<Vector> = (0..k)
            .map(|j| metas.get(j * n / k).map_or(Vector::ZERO, |m| m.centroid))
            .collect();

        let mut assign = vec![0u32; n];
        for _ in 0..COARSE_TRAIN_ITERS {
            // Assignment: nearest center, ties to the lowest cell index
            // (strict `<` keeps the first best).
            for (slot, m) in assign.iter_mut().zip(metas.iter()) {
                let mut best = f32::INFINITY;
                let mut best_c = 0u32;
                for (c, center) in centers.iter().enumerate() {
                    let d = center.dist_sq(&m.centroid);
                    if d < best {
                        best = d;
                        best_c = c as u32;
                    }
                }
                *slot = best_c;
            }
            // Update: f64 accumulation in chunk order; an empty cell keeps
            // its previous center (no reseeding, no randomness).
            let mut sums = vec![[0.0f64; DIM]; k];
            let mut counts = vec![0u64; k];
            for (&c, m) in assign.iter().zip(metas.iter()) {
                if let Some(sum) = sums.get_mut(c as usize) {
                    for (a, x) in sum.iter_mut().zip(m.centroid.as_array().iter()) {
                        *a += f64::from(*x);
                    }
                }
                if let Some(cnt) = counts.get_mut(c as usize) {
                    *cnt += 1;
                }
            }
            for ((center, sum), &cnt) in centers.iter_mut().zip(sums.iter()).zip(counts.iter()) {
                if cnt > 0 {
                    let inv = 1.0 / cnt as f64;
                    let mut out = [0.0f32; DIM];
                    for (o, a) in out.iter_mut().zip(sum.iter()) {
                        *o = (a * inv) as f32;
                    }
                    *center = Vector::from(out);
                }
            }
        }

        // Final membership + conservative radii from the last assignment.
        let mut members: Vec<Vec<u32>> = (0..k).map(|_| Vec::new()).collect();
        let mut radii = vec![0.0f32; k];
        for (i, (&c, m)) in assign.iter().zip(metas.iter()).enumerate() {
            if let Some(list) = members.get_mut(c as usize) {
                list.push(i as u32);
            }
            let reach = centers
                .get(c as usize)
                .map_or(f32::INFINITY, |center| center.dist(&m.centroid) + m.radius);
            if let Some(r) = radii.get_mut(c as usize) {
                *r = r.max(reach);
            }
        }
        CoarseQuantizer {
            centers,
            radii,
            members,
        }
    }

    /// Number of cells (including empty ones).
    pub(crate) fn n_cells(&self) -> usize {
        self.centers.len()
    }

    /// Whether the quantizer holds no cells (empty store).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Iterates `(cell, center, radius, members)` over all cells.
    pub fn cells(&self) -> impl Iterator<Item = (usize, &Vector, f32, &[u32])> {
        self.centers
            .iter()
            .zip(self.radii.iter())
            .zip(self.members.iter())
            .enumerate()
            .map(|(c, ((center, &radius), members))| (c, center, radius, members.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkers::{ChunkFormer, SrTreeChunker};
    use eff2_descriptor::{Descriptor, DescriptorSet};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eff2_coarse_{tag}_{}_{unique}", std::process::id()));
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

    fn build_store(tag: &str, n: usize, leaf: usize) -> ChunkStore {
        let set = lumpy_set(n);
        let formation = SrTreeChunker { leaf_size: leaf }.form(&set);
        ChunkStore::create(&tmp_dir(tag), "ix", &set, &formation.chunks, 512).expect("create")
    }

    #[test]
    fn every_chunk_lands_in_exactly_one_cell() {
        let store = build_store("partition", 600, 20);
        let coarse = CoarseQuantizer::for_store(&store);
        assert!(coarse.n_cells() >= 1);
        let mut seen = vec![false; store.n_chunks()];
        for (_, _, _, members) in coarse.cells() {
            for &m in members {
                let slot = seen.get_mut(m as usize).expect("member in range");
                assert!(!*slot, "chunk {m} assigned to two cells");
                *slot = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every chunk must be covered");
    }

    #[test]
    fn cell_radius_dominates_every_member_bound() {
        // For any query q and member chunk m of cell c:
        //   d(q, center_c) − cell_radius_c  <=  d(q, centroid_m) − radius_m
        // i.e. the cell bound never over-claims.
        let store = build_store("radius", 500, 25);
        let coarse = CoarseQuantizer::for_store(&store);
        let metas = store.metas();
        let queries = [Vector::ZERO, Vector::splat(40.0), Vector::splat(-13.5), {
            let mut v = Vector::splat(7.0);
            v[5] = 90.0;
            v
        }];
        for q in &queries {
            for (_, center, radius, members) in coarse.cells() {
                let cell_bound = (center.dist(q) - radius).max(0.0);
                for &m in members {
                    let meta = &metas[m as usize];
                    let chunk_bound = (meta.centroid.dist(q) - meta.radius).max(0.0);
                    assert!(
                        cell_bound <= chunk_bound + 1e-4,
                        "cell bound {cell_bound} exceeds member chunk bound {chunk_bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let store = build_store("determ", 400, 20);
        let a = CoarseQuantizer::for_store(&store);
        let b = CoarseQuantizer::for_store(&store);
        assert_eq!(a.n_cells(), b.n_cells());
        for c in 0..a.n_cells() {
            assert_eq!(a.members[c], b.members[c]);
            assert_eq!(a.radii[c].to_bits(), b.radii[c].to_bits());
            let (ca, cb) = (&a.centers[c], &b.centers[c]);
            for i in 0..DIM {
                assert_eq!(ca[i].to_bits(), cb[i].to_bits());
            }
        }
    }

    #[test]
    fn cell_count_defaults_to_sqrt() {
        assert_eq!(CoarseQuantizer::default_cells(0), 0);
        assert_eq!(CoarseQuantizer::default_cells(1), 1);
        assert_eq!(CoarseQuantizer::default_cells(16), 4);
        assert_eq!(CoarseQuantizer::default_cells(100), 10);
        assert_eq!(CoarseQuantizer::default_cells(101), 11);
    }

    #[test]
    fn empty_metas_give_empty_quantizer() {
        let coarse = CoarseQuantizer::train(&[], 4);
        assert!(coarse.is_empty());
        assert_eq!(coarse.n_cells(), 0);
    }

    #[test]
    fn more_cells_than_chunks_is_clamped() {
        let store = build_store("clamp", 100, 30);
        let coarse = CoarseQuantizer::train(store.metas(), 1_000);
        assert!(coarse.n_cells() <= store.n_chunks());
    }
}
