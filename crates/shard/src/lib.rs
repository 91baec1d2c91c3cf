//! Chunk-to-shard placement for fleet serving.
//!
//! The serving fleet partitions the chunk index across N shard nodes, each
//! with its own disk/CPU pipeline. A [`ShardMap`] records, for every chunk,
//! the **ordered** list of shards holding a copy — primary first, then
//! R − 1 replicas — so reads go to the primary and fail over replica by
//! replica in a deterministic order.
//!
//! Two placement policies are compared head-to-head:
//!
//! * [`Placement::ChunkHash`] — the primary shard is a hash of the chunk
//!   id. Placement is oblivious to geometry, so chunks that rank adjacently
//!   for a query scatter across the fleet, but the chunk *count* per shard
//!   is near-uniform.
//! * [`Placement::CentroidLocality`] — whole coarse-quantizer cells
//!   (clusters of chunks whose centroids are close — see
//!   `eff2_core::CoarseQuantizer`) are assigned greedily, largest cell
//!   first, to the least-loaded shard. Chunks a query ranks together tend
//!   to share a cell and therefore a shard, which cuts cross-shard fetches
//!   at the price of coarser-grained (and therefore lumpier) balance.
//!
//! That balance price is reported with the **imbalance factor** of
//! Tavenard, Amsaleg and Jégou (*Balancing clusters to reduce response
//! time variability*): the most-loaded shard's primary chunk count divided
//! by the mean — 1.0 is perfect balance, and the factor directly bounds
//! how much slower the slowest scatter leg is than the average one.
//!
//! Everything here is a pure function of its inputs — no clocks, no
//! ambient randomness, no hash-map iteration — so a `ShardMap` built twice
//! from the same store is identical, and fleet results stay reproducible.

/// How primary copies are assigned to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Primary shard = hash(chunk id) mod n_shards.
    ChunkHash,
    /// Whole coarse cells assigned greedily (largest first) to the
    /// least-loaded shard.
    CentroidLocality,
}

impl Placement {
    /// Both policies, for sweeps.
    pub const ALL: [Placement; 2] = [Placement::ChunkHash, Placement::CentroidLocality];

    /// A short stable name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::ChunkHash => "chunk-hash",
            Placement::CentroidLocality => "centroid-locality",
        }
    }
}

/// SplitMix64 finaliser — the same mixing discipline `eff2-chaos` uses for
/// fault draws, reproduced here so the shard crate stays dependency-free.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The placement table: for every chunk, the ordered shard copies
/// (primary first). Built once per fleet configuration and shared by every
/// query.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// `owners[chunk]` = shards holding a copy, primary first. Length is
    /// `min(replication, n_shards)` for every chunk — replicating onto the
    /// same shard twice would be a lie.
    owners: Vec<Vec<u32>>,
    n_shards: usize,
    replication: usize,
}

impl ShardMap {
    /// Hash placement: chunk `c`'s primary is `mix(c) mod n_shards`;
    /// replicas are the next shards round-robin.
    pub fn chunk_hash(n_chunks: usize, n_shards: usize, replication: usize) -> ShardMap {
        let n_shards = n_shards.max(1);
        let copies = replication.clamp(1, n_shards);
        let owners = (0..n_chunks)
            .map(|c| {
                let primary = (mix(c as u64) % n_shards as u64) as u32;
                (0..copies)
                    .map(|r| (primary + r as u32) % n_shards as u32)
                    .collect()
            })
            .collect();
        ShardMap {
            owners,
            n_shards,
            replication: copies,
        }
    }

    /// Centroid-locality placement over coarse cells: `cells[i]` lists the
    /// member chunk ids of cell `i` (what `CoarseQuantizer::cells` yields).
    /// Cells are assigned whole, largest first (ties by lower cell id), to
    /// the shard with the fewest primary chunks so far (ties by lower shard
    /// id) — the classic greedy bin-packing that keeps the imbalance factor
    /// bounded while preserving cell locality. Chunks not named by any cell
    /// (there should be none) fall back to hash placement.
    pub fn from_cells(
        cells: &[Vec<u32>],
        n_chunks: usize,
        n_shards: usize,
        replication: usize,
    ) -> ShardMap {
        let n_shards = n_shards.max(1);
        let copies = replication.clamp(1, n_shards);
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_by(|&a, &b| {
            let (la, lb) = (
                cells.get(a).map_or(0, Vec::len),
                cells.get(b).map_or(0, Vec::len),
            );
            lb.cmp(&la).then(a.cmp(&b))
        });
        let mut primary_of: Vec<Option<u32>> = vec![None; n_chunks];
        let mut load = vec![0usize; n_shards];
        for cell in order {
            let members = cells.get(cell).map_or(&[][..], Vec::as_slice);
            if members.is_empty() {
                continue;
            }
            let target = load
                .iter()
                .enumerate()
                .min_by_key(|&(s, &l)| (l, s))
                .map_or(0, |(s, _)| s);
            if let Some(l) = load.get_mut(target) {
                *l += members.len();
            }
            for &m in members {
                if let Some(slot) = primary_of.get_mut(m as usize) {
                    *slot = Some(target as u32);
                }
            }
        }
        let owners = primary_of
            .iter()
            .enumerate()
            .map(|(c, p)| {
                let primary = p.unwrap_or((mix(c as u64) % n_shards as u64) as u32);
                (0..copies)
                    .map(|r| (primary + r as u32) % n_shards as u32)
                    .collect()
            })
            .collect();
        ShardMap {
            owners,
            n_shards,
            replication: copies,
        }
    }

    /// Number of shard nodes.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Copies per chunk (after clamping to the shard count).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Number of chunks placed.
    pub fn n_chunks(&self) -> usize {
        self.owners.len()
    }

    /// The ordered copy list of `chunk` (primary first); empty for
    /// out-of-range chunks.
    pub fn owners(&self, chunk: usize) -> &[u32] {
        self.owners.get(chunk).map_or(&[], Vec::as_slice)
    }

    /// The primary shard of `chunk`, or `None` out of range.
    pub fn primary(&self, chunk: usize) -> Option<u32> {
        self.owners(chunk).first().copied()
    }

    /// Primary chunk count per shard.
    pub fn primary_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_shards];
        for copies in &self.owners {
            if let Some(slot) = copies.first().and_then(|&p| counts.get_mut(p as usize)) {
                *slot += 1;
            }
        }
        counts
    }

    /// The Tavenard/Amsaleg/Jégou imbalance factor of the primary
    /// placement: max primary load over mean primary load, via the shared
    /// [`eff2_metrics::imbalance_factor`] definition. 1.0 is perfect
    /// balance; an empty map (or a single shard) is trivially balanced.
    pub fn imbalance_factor(&self) -> f64 {
        if self.owners.is_empty() || self.n_shards == 0 {
            return 1.0;
        }
        eff2_metrics::imbalance_factor(&self.primary_counts())
    }

    /// The shard a read of `chunk` is routed to when the shards flagged in
    /// `down` are unavailable: the first copy, in owner order, whose shard
    /// is up. `None` when every copy is down (the chunk is unreachable).
    pub fn route(&self, chunk: usize, down: &[bool]) -> Option<u32> {
        self.owners(chunk)
            .iter()
            .copied()
            .find(|&s| !down.get(s as usize).copied().unwrap_or(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_placement_is_deterministic_and_in_range() {
        let a = ShardMap::chunk_hash(200, 7, 3);
        let b = ShardMap::chunk_hash(200, 7, 3);
        for c in 0..200 {
            assert_eq!(a.owners(c), b.owners(c));
            assert_eq!(a.owners(c).len(), 3);
            for &s in a.owners(c) {
                assert!((s as usize) < 7);
            }
        }
    }

    #[test]
    fn replication_clamps_to_shard_count() {
        let map = ShardMap::chunk_hash(10, 2, 5);
        assert_eq!(map.replication(), 2);
        for c in 0..10 {
            let copies = map.owners(c);
            assert_eq!(copies.len(), 2);
            assert_ne!(copies[0], copies[1], "copies must land on distinct shards");
        }
    }

    #[test]
    fn copies_are_distinct_shards() {
        let map = ShardMap::chunk_hash(64, 5, 3);
        for c in 0..64 {
            let mut copies = map.owners(c).to_vec();
            copies.sort_unstable();
            copies.dedup();
            assert_eq!(copies.len(), 3);
        }
    }

    #[test]
    fn cell_placement_keeps_cells_whole() {
        let cells = vec![
            vec![0, 1, 2, 3],
            vec![4, 5],
            vec![6, 7, 8],
            vec![9],
            vec![10, 11],
        ];
        let map = ShardMap::from_cells(&cells, 12, 3, 2);
        for members in &cells {
            let primaries: Vec<_> = members
                .iter()
                .map(|&m| map.primary(m as usize).expect("placed"))
                .collect();
            assert!(
                primaries.windows(2).all(|w| w[0] == w[1]),
                "cell split across shards: {primaries:?}"
            );
        }
    }

    #[test]
    fn cell_placement_balances_greedily() {
        // Four equal cells over two shards: two cells each.
        let cells: Vec<Vec<u32>> = (0..4).map(|c| (c * 5..c * 5 + 5).collect()).collect();
        let map = ShardMap::from_cells(&cells, 20, 2, 1);
        assert_eq!(map.primary_counts(), vec![10, 10]);
        assert!((map.imbalance_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_factor_flags_skew() {
        // One giant cell and three tiny ones onto two shards.
        let mut cells = vec![(0u32..9).collect::<Vec<_>>()];
        cells.extend((0..3).map(|i| vec![9 + i as u32]));
        let map = ShardMap::from_cells(&cells, 12, 2, 1);
        // 9 vs 3 primaries; mean is 6 → factor 1.5.
        assert!((map.imbalance_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_shard_is_trivially_balanced() {
        let map = ShardMap::chunk_hash(50, 1, 3);
        assert_eq!(map.replication(), 1);
        assert!((map.imbalance_factor() - 1.0).abs() < 1e-12);
        assert_eq!(map.primary_counts(), vec![50]);
    }

    #[test]
    fn routing_fails_over_in_owner_order() {
        let map = ShardMap::chunk_hash(20, 4, 3);
        for c in 0..20 {
            let owners = map.owners(c).to_vec();
            // Nothing down: primary.
            assert_eq!(map.route(c, &[false; 4]), Some(owners[0]));
            // Primary down: first replica.
            let mut down = [false; 4];
            down[owners[0] as usize] = true;
            assert_eq!(map.route(c, &down), Some(owners[1]));
            // Everything down: unreachable.
            assert_eq!(map.route(c, &[true; 4]), None);
        }
    }

    #[test]
    fn hash_spreads_chunks_reasonably() {
        let map = ShardMap::chunk_hash(4_000, 8, 1);
        let counts = map.primary_counts();
        assert_eq!(counts.iter().sum::<usize>(), 4_000);
        // A 64-bit mix over 4k chunks lands within 25% of uniform.
        for &c in &counts {
            assert!((c as f64 - 500.0).abs() < 125.0, "skewed counts {counts:?}");
        }
    }
}
