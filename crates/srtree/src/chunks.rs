//! Chunk extraction — the paper's adaptation of the SR-tree.
//!
//! §2: *"we added a method to generate chunks from the leaves, thus throwing
//! away the upper levels of the tree"*. A chunk is the set of descriptors of
//! one leaf, summarised by its centroid and minimum bounding radius —
//! exactly the pair the chunk-index file of §4.2 stores per chunk. The
//! paper also notes that most of the chunk-index construction time went to
//! *"calculating the centroid and radius of each chunk"*; that computation
//! lives in [`crate::bulk::centroid_and_radius`].

use crate::bulk::{build_leaf_partitions, centroid_and_radius};
use eff2_descriptor::{DescriptorSet, Vector};

/// One chunk produced from an SR-tree leaf: member positions plus the
/// centroid/radius summary the chunk index stores.
#[derive(Clone, Debug)]
pub struct LeafChunk {
    /// Positions of the member descriptors in the backing collection.
    pub positions: Vec<u32>,
    /// Centroid of the members.
    pub centroid: Vector,
    /// Minimum bounding radius around the centroid.
    pub radius: f32,
}

impl LeafChunk {
    /// Number of member descriptors.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// The experiments' fast path: partition `set` into uniform leaves of
/// `leaf_size` and summarise each, without materialising the tree's upper
/// levels (which would be thrown away anyway).
///
/// Leaf summaries are independent of one another, so the
/// centroid-and-radius phase runs one task per leaf in parallel; the
/// output order (and therefore every downstream chunk id) is identical to
/// the sequential path.
pub fn chunks_from_collection(set: &DescriptorSet, leaf_size: usize) -> Vec<LeafChunk> {
    let partitions = build_leaf_partitions(set, leaf_size);
    eff2_parallel::par_map(&partitions, |_, positions| {
        let (centroid, radius) = centroid_and_radius(set, positions);
        LeafChunk {
            positions: positions.clone(),
            centroid,
            radius,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::{Descriptor, DIM};

    fn spread_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let mut v = Vector::ZERO;
                for d in 0..DIM {
                    v[d] = (((i * 57 + d * 41) % 173) as f32) * 0.19 - 16.0;
                }
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    #[test]
    fn extract_covers_collection() {
        let set = spread_set(500);
        let chunks = chunks_from_collection(&set, 32);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 500);
        let mut seen = vec![false; 500];
        for c in &chunks {
            for &p in &c.positions {
                assert!(!seen[p as usize]);
                seen[p as usize] = true;
            }
        }
    }

    #[test]
    fn chunk_summaries_cover_members() {
        let set = spread_set(400);
        for c in &chunks_from_collection(&set, 50) {
            assert!(!c.is_empty());
            for &p in &c.positions {
                let d = c.centroid.dist(&set.vector_owned(p as usize));
                assert!(d <= c.radius * (1.0 + 1e-5) + 1e-4);
            }
        }
    }

    #[test]
    fn uniform_sizes_from_fast_path() {
        let set = spread_set(1_001);
        let chunks = chunks_from_collection(&set, 100);
        assert_eq!(chunks.len(), 11);
        for c in &chunks {
            assert!(c.len() == 91 || c.len() == 92, "size {}", c.len());
        }
    }

    #[test]
    fn empty_collection_yields_no_chunks() {
        assert!(chunks_from_collection(&DescriptorSet::new(), 10).is_empty());
    }
}
