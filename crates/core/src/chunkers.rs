//! Chunk-forming strategies.
//!
//! The paper's study compares two extremes: the SR-tree's uniform-size
//! leaves (response-time first, §2) and BAG's minimal-volume clusters
//! (quality first, §3). Its introduction also names the degenerate
//! time-extreme — round-robin distribution — and its conclusion calls for
//! "a clustering algorithm which keeps uniform chunk size as the first
//! priority, but attempts to achieve the smallest possible intra-chunk
//! dissimilarity"; [`HybridChunker`] implements that.

#![expect(
    clippy::indexing_slicing,
    reason = "chunk-formation bookkeeping (membership tables, centroid arrays, partition maps) indexes dense position tables this module builds and keeps in bounds by construction"
)]

use eff2_bag::{Bag, BagConfig};
use eff2_descriptor::{DescriptorSet, Vector, DIM};
use eff2_srtree::chunks_from_collection;
use eff2_storage::ChunkDef;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A measure of how much work chunk formation performed, so formation cost
/// can be compared across strategies (the paper: BAG took ~12 days, the
/// SR-tree under 3 hours, on the same collection).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FormationCost {
    /// Distance-evaluation-equivalent operations performed (or, for BAG,
    /// that the paper's exhaustive implementation would have performed).
    pub distance_ops: u64,
    /// Number of passes/iterations the strategy ran.
    pub rounds: u64,
}

/// The output of a chunk former: the chunks, the positions it excluded as
/// outliers, and what the formation cost.
#[derive(Clone, Debug)]
pub struct ChunkFormation {
    /// The formed chunks (member positions + centroid/radius summaries).
    pub chunks: Vec<ChunkDef>,
    /// Positions excluded from every chunk (outliers). Empty for formers
    /// without an outlier mechanism.
    pub outliers: Vec<u32>,
    /// Formation cost.
    pub cost: FormationCost,
}

impl ChunkFormation {
    /// Number of descriptors placed into chunks.
    pub fn retained(&self) -> usize {
        self.chunks.iter().map(|c| c.positions.len()).sum::<usize>()
    }

    /// Mean chunk population.
    pub fn mean_chunk_size(&self) -> f64 {
        if self.chunks.is_empty() {
            0.0
        } else {
            self.retained() as f64 / self.chunks.len() as f64
        }
    }

    /// Chunk sizes sorted descending — Fig. 1's "size of the largest
    /// chunks" series.
    pub fn sizes_descending(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.chunks.iter().map(|c| c.positions.len()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }
}

/// A strategy that divides a collection into chunks.
pub trait ChunkFormer {
    /// Short human-readable strategy name (used in reports).
    fn name(&self) -> String;

    /// Forms chunks over `set`.
    fn form(&self, set: &DescriptorSet) -> ChunkFormation;
}

fn summarise(set: &DescriptorSet, positions: Vec<u32>) -> ChunkDef {
    let (centroid, radius) = eff2_srtree::bulk::centroid_and_radius(set, &positions);
    ChunkDef {
        positions,
        centroid,
        radius,
    }
}

// ---------------------------------------------------------------------------
// SR-tree (uniform size first)
// ---------------------------------------------------------------------------

/// Uniform-size chunks from SR-tree leaves (§2).
#[derive(Clone, Copy, Debug)]
pub struct SrTreeChunker {
    /// Target descriptors per leaf/chunk.
    pub leaf_size: usize,
}

impl ChunkFormer for SrTreeChunker {
    fn name(&self) -> String {
        format!("sr-tree(leaf={})", self.leaf_size)
    }

    fn form(&self, set: &DescriptorSet) -> ChunkFormation {
        let chunks: Vec<ChunkDef> = chunks_from_collection(set, self.leaf_size)
            .into_iter()
            .map(|c| ChunkDef {
                positions: c.positions,
                centroid: c.centroid,
                radius: c.radius,
            })
            .collect();
        let n = set.len() as u64;
        let levels = (chunks.len().max(1) as f64).log2().ceil() as u64;
        ChunkFormation {
            cost: FormationCost {
                // Partitioning touches every point once per level; the
                // centroid/radius summaries touch every point twice (the
                // part the paper observed dominating SR-tree index build).
                distance_ops: n * levels + 2 * n,
                rounds: levels,
            },
            chunks,
            outliers: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// BAG (quality first)
// ---------------------------------------------------------------------------

/// Minimal-volume chunks from the BAG clustering algorithm (§3).
#[derive(Clone, Copy, Debug)]
pub struct BagChunker {
    /// BAG parameters.
    pub config: BagConfig,
    /// Terminate when the cluster count falls below this.
    pub target_clusters: usize,
}

impl ChunkFormer for BagChunker {
    fn name(&self) -> String {
        format!("bag(target={})", self.target_clusters)
    }

    fn form(&self, set: &DescriptorSet) -> ChunkFormation {
        let mut bag = Bag::new(set, self.config);
        let snap = bag.run_to(self.target_clusters);
        let chunks = snap
            .clusters
            .iter()
            .map(|c| ChunkDef {
                positions: c.members.clone(),
                centroid: c.centroid,
                // The index stores the minimum bounding radius; the
                // MPI-inflated maintained radius is a clustering artefact.
                radius: c.tight_radius,
            })
            .collect();
        ChunkFormation {
            chunks,
            outliers: snap.outliers,
            cost: FormationCost {
                distance_ops: snap.exhaustive_equivalent_tests,
                rounds: snap.passes as u64,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Round-robin / random baselines
// ---------------------------------------------------------------------------

/// The introduction's time-extreme baseline: descriptors dealt to chunks in
/// round-robin order. Perfectly uniform sizes, no locality whatsoever.
#[derive(Clone, Copy, Debug)]
pub struct RoundRobinChunker {
    /// Number of chunks to deal into.
    pub n_chunks: usize,
}

impl ChunkFormer for RoundRobinChunker {
    fn name(&self) -> String {
        format!("round-robin(n={})", self.n_chunks)
    }

    fn form(&self, set: &DescriptorSet) -> ChunkFormation {
        assert!(self.n_chunks > 0, "need at least one chunk");
        let n_buckets = self.n_chunks.min(set.len().max(1));
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_buckets];
        for p in 0..set.len() as u32 {
            buckets[p as usize % n_buckets].push(p);
        }
        buckets.retain(|b| !b.is_empty());
        let chunks = buckets
            .into_iter()
            .map(|b| summarise(set, b))
            .collect::<Vec<_>>();
        ChunkFormation {
            cost: FormationCost {
                distance_ops: 2 * set.len() as u64,
                rounds: 1,
            },
            chunks,
            outliers: Vec::new(),
        }
    }
}

/// Uniform chunks of shuffled descriptors — like round-robin but with a
/// seeded permutation, so repeated builds differ.
#[derive(Clone, Copy, Debug)]
pub struct RandomChunker {
    /// Number of chunks.
    pub n_chunks: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl ChunkFormer for RandomChunker {
    fn name(&self) -> String {
        format!("random(n={})", self.n_chunks)
    }

    fn form(&self, set: &DescriptorSet) -> ChunkFormation {
        assert!(self.n_chunks > 0, "need at least one chunk");
        let mut positions: Vec<u32> = (0..set.len() as u32).collect();
        positions.shuffle(&mut StdRng::seed_from_u64(self.seed));
        let n_chunks = self.n_chunks.min(set.len().max(1));
        let per = set.len().div_ceil(n_chunks).max(1);
        let chunks: Vec<ChunkDef> = positions
            .chunks(per)
            .map(|slice| summarise(set, slice.to_vec()))
            .collect();
        ChunkFormation {
            cost: FormationCost {
                distance_ops: 2 * set.len() as u64,
                rounds: 1,
            },
            chunks,
            outliers: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Hybrid (the conclusion's recommendation)
// ---------------------------------------------------------------------------

/// Size-first chunking with best-effort intra-chunk similarity — the
/// algorithm the paper's conclusion recommends building.
///
/// Starts from the SR-tree's uniform partition, then runs bounded local
/// refinement sweeps: each descriptor may move to one of its chunk's
/// nearest neighbouring chunks when that chunk's centroid is strictly
/// closer, but only while both chunks stay within `[min_fill, max_fill] ×`
/// the target size. Sizes therefore stay near-uniform while intra-chunk
/// dissimilarity decreases monotonically.
#[derive(Clone, Copy, Debug)]
pub struct HybridChunker {
    /// Target descriptors per chunk.
    pub chunk_size: usize,
    /// Refinement sweeps over the collection.
    pub sweeps: usize,
    /// Neighbouring chunks considered as move targets.
    pub neighbor_chunks: usize,
    /// Minimum chunk fill as a fraction of `chunk_size`.
    pub min_fill: f32,
    /// Maximum chunk fill as a fraction of `chunk_size`.
    pub max_fill: f32,
}

impl Default for HybridChunker {
    fn default() -> Self {
        HybridChunker {
            chunk_size: 1_000,
            sweeps: 3,
            neighbor_chunks: 4,
            min_fill: 0.6,
            max_fill: 1.5,
        }
    }
}

impl ChunkFormer for HybridChunker {
    fn name(&self) -> String {
        format!("hybrid(size={},sweeps={})", self.chunk_size, self.sweeps)
    }

    fn form(&self, set: &DescriptorSet) -> ChunkFormation {
        assert!(self.chunk_size > 0, "chunk size must be positive");
        assert!(
            self.min_fill > 0.0 && self.min_fill < 1.0 && self.max_fill > 1.0,
            "fill bounds must bracket 1.0"
        );
        let seed = chunks_from_collection(set, self.chunk_size);
        if seed.is_empty() {
            return ChunkFormation {
                chunks: Vec::new(),
                outliers: Vec::new(),
                cost: FormationCost::default(),
            };
        }
        let mut membership: Vec<Vec<u32>> = seed.iter().map(|c| c.positions.clone()).collect();
        let mut centroids: Vec<Vector> = seed.iter().map(|c| c.centroid).collect();
        let l = membership.len();
        let lo = ((self.chunk_size as f32) * self.min_fill) as usize;
        let hi = ((self.chunk_size as f32) * self.max_fill).ceil() as usize;
        let mut ops: u64 = set.len() as u64 * 2;

        // chunk_of[p] = current chunk of position p.
        let mut chunk_of = vec![0u32; set.len()];
        for (ci, members) in membership.iter().enumerate() {
            for &p in members {
                chunk_of[p as usize] = ci as u32;
            }
        }

        for _ in 0..self.sweeps {
            // Nearest chunks of each chunk (by centroid).
            let neighbors: Vec<Vec<u32>> = (0..l)
                .map(|i| {
                    let mut d: Vec<(f32, u32)> = (0..l)
                        .filter(|&j| j != i)
                        .map(|j| (centroids[i].dist_sq(&centroids[j]), j as u32))
                        .collect();
                    d.sort_by(|a, b| a.0.total_cmp(&b.0));
                    d.truncate(self.neighbor_chunks);
                    d.into_iter().map(|(_, j)| j).collect()
                })
                .collect();
            ops += (l * l) as u64;

            let mut moved = 0usize;
            #[expect(
                clippy::needless_range_loop,
                reason = "the body reassigns `chunk_of[p]` on a move"
            )]
            for p in 0..set.len() {
                let from = chunk_of[p] as usize;
                if membership[from].len() <= lo {
                    continue; // source must stay above the floor
                }
                let v = set.vector_owned(p);
                let own_d = v.dist_sq(&centroids[from]);
                let mut best: Option<(usize, f32)> = None;
                for &j in &neighbors[from] {
                    let j = j as usize;
                    if membership[j].len() >= hi {
                        continue;
                    }
                    let d = v.dist_sq(&centroids[j]);
                    if d < own_d && best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((j, d));
                    }
                }
                ops += self.neighbor_chunks as u64 + 1;
                if let Some((to, _)) = best {
                    let idx = membership[from].iter().position(|&m| m as usize == p);
                    debug_assert!(idx.is_some(), "chunk_of must agree with membership");
                    if let Some(idx) = idx {
                        membership[from].swap_remove(idx);
                        membership[to].push(p as u32);
                        chunk_of[p] = to as u32;
                        moved += 1;
                    }
                }
            }
            // Recompute centroids after the sweep.
            for (ci, members) in membership.iter().enumerate() {
                let (c, _) = centroid_only(set, members);
                centroids[ci] = c;
            }
            ops += set.len() as u64;
            if moved == 0 {
                break;
            }
        }

        let chunks: Vec<ChunkDef> = membership
            .into_iter()
            .filter(|m| !m.is_empty())
            .map(|m| summarise(set, m))
            .collect();
        ChunkFormation {
            chunks,
            outliers: Vec::new(),
            cost: FormationCost {
                distance_ops: ops,
                rounds: self.sweeps as u64,
            },
        }
    }
}

fn centroid_only(set: &DescriptorSet, positions: &[u32]) -> (Vector, usize) {
    let mut sum = [0.0f64; DIM];
    for &p in positions {
        let v = set.vector(p as usize);
        for d in 0..DIM {
            sum[d] += f64::from(v[d]);
        }
    }
    let n = positions.len().max(1);
    let mut c = Vector::ZERO;
    for d in 0..DIM {
        c[d] = (sum[d] / n as f64) as f32;
    }
    (c, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::Descriptor;

    fn blobby_set(n: usize) -> DescriptorSet {
        // Four blobs along a line, equal population.
        (0..n)
            .map(|i| {
                let blob = (i % 4) as f32 * 40.0;
                let mut v = Vector::splat(blob);
                v[0] += ((i * 37) % 17) as f32 * 0.2;
                v[1] += ((i * 53) % 13) as f32 * 0.2;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    fn check_partition(set: &DescriptorSet, f: &ChunkFormation) {
        let mut seen = vec![false; set.len()];
        for c in &f.chunks {
            for &p in &c.positions {
                assert!(!seen[p as usize], "position {p} duplicated");
                seen[p as usize] = true;
            }
        }
        for &p in &f.outliers {
            assert!(!seen[p as usize], "outlier {p} also in a chunk");
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "positions lost");
        // Summaries must cover members.
        for c in &f.chunks {
            for &p in &c.positions {
                let d = c.centroid.dist(&set.vector_owned(p as usize));
                assert!(d <= c.radius * (1.0 + 1e-4) + 1e-3);
            }
        }
    }

    #[test]
    fn srtree_former_is_uniform_partition() {
        let set = blobby_set(400);
        let f = SrTreeChunker { leaf_size: 50 }.form(&set);
        check_partition(&set, &f);
        assert_eq!(f.chunks.len(), 8);
        for c in &f.chunks {
            assert_eq!(c.positions.len(), 50);
        }
        assert!(f.outliers.is_empty());
        assert!(f.cost.distance_ops > 0);
    }

    #[test]
    fn bag_former_produces_quality_chunks() {
        let set = blobby_set(200);
        let f = BagChunker {
            config: BagConfig {
                mpi: 1.0,
                ..BagConfig::default()
            },
            target_clusters: 8,
        }
        .form(&set);
        check_partition(&set, &f);
        assert!(!f.chunks.is_empty());
        assert!(f.cost.distance_ops > 0);
    }

    #[test]
    fn round_robin_is_perfectly_uniform() {
        let set = blobby_set(100);
        let f = RoundRobinChunker { n_chunks: 10 }.form(&set);
        check_partition(&set, &f);
        assert_eq!(f.chunks.len(), 10);
        for c in &f.chunks {
            assert_eq!(c.positions.len(), 10);
        }
    }

    #[test]
    fn round_robin_more_chunks_than_points() {
        let set = blobby_set(3);
        let f = RoundRobinChunker { n_chunks: 10 }.form(&set);
        check_partition(&set, &f);
        assert_eq!(f.chunks.len(), 3);
    }

    #[test]
    fn random_chunker_is_seeded() {
        let set = blobby_set(100);
        let a = RandomChunker {
            n_chunks: 5,
            seed: 1,
        }
        .form(&set);
        let b = RandomChunker {
            n_chunks: 5,
            seed: 1,
        }
        .form(&set);
        let c = RandomChunker {
            n_chunks: 5,
            seed: 2,
        }
        .form(&set);
        check_partition(&set, &a);
        let ids = |f: &ChunkFormation| {
            f.chunks
                .iter()
                .map(|c| c.positions.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b));
        assert_ne!(ids(&a), ids(&c));
    }

    #[test]
    fn hybrid_improves_dissimilarity_with_bounded_sizes() {
        let set = blobby_set(400);
        let sr = SrTreeChunker { leaf_size: 100 }.form(&set);
        let hy = HybridChunker {
            chunk_size: 100,
            sweeps: 4,
            neighbor_chunks: 3,
            min_fill: 0.6,
            max_fill: 1.5,
        }
        .form(&set);
        check_partition(&set, &hy);
        // Sizes bounded.
        for c in &hy.chunks {
            assert!(c.positions.len() >= 60 && c.positions.len() <= 150);
        }
        // Mean within-chunk scatter must not degrade.
        let scatter = |f: &ChunkFormation| -> f64 {
            let mut total = 0.0f64;
            let mut n = 0usize;
            for c in &f.chunks {
                for &p in &c.positions {
                    total += f64::from(c.centroid.dist_sq(&set.vector_owned(p as usize)));
                    n += 1;
                }
            }
            total / n as f64
        };
        assert!(scatter(&hy) <= scatter(&sr) * 1.0001);
    }

    #[test]
    fn formation_stats_helpers() {
        let set = blobby_set(100);
        let f = SrTreeChunker { leaf_size: 30 }.form(&set);
        assert_eq!(f.retained(), 100);
        assert!((f.mean_chunk_size() - 25.0).abs() < 1e-9); // 4 chunks of 25
        let sizes = f.sizes_descending();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn names_are_descriptive() {
        assert!(SrTreeChunker { leaf_size: 7 }.name().contains('7'));
        assert!(RoundRobinChunker { n_chunks: 3 }.name().contains("round"));
        assert!(HybridChunker::default().name().contains("hybrid"));
    }

    #[test]
    fn empty_collection_everywhere() {
        let set = DescriptorSet::new();
        assert!(SrTreeChunker { leaf_size: 10 }.form(&set).chunks.is_empty());
        assert!(RoundRobinChunker { n_chunks: 3 }
            .form(&set)
            .chunks
            .is_empty());
        assert!(RandomChunker {
            n_chunks: 3,
            seed: 0
        }
        .form(&set)
        .chunks
        .is_empty());
        assert!(HybridChunker::default().form(&set).chunks.is_empty());
    }
}
