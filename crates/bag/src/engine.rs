//! Merge-candidate enumeration engines.
//!
//! The paper's BAG "does not use any indexing scheme to facilitate the
//! merge process. Instead, it examines all existing clusters every time a
//! cluster is checked for potential merges" — which is why clustering the
//! 5M-descriptor collection took almost 12 days.
//! [`EngineKind::Exhaustive`] keeps that faithful behaviour.
//!
//! [`EngineKind::Pruned`] accelerates candidate enumeration *without
//! changing the result*. A pair (i, j) can only satisfy the merge rule if
//! the merged minimum bounding radius — which is at least half the
//! centroid distance, because the merged centroid is a convex combination
//! of the two centroids and the farther original centroid is itself a
//! lower bound on the merged radius — stays below `max(rᵢ, rⱼ) + MPI`, so
//! every viable pair satisfies
//!
//! ```text
//! d(cᵢ, cⱼ) < 2 · (max(rᵢ, rⱼ) + MPI)
//! ```
//!
//! Radii are wildly bimodal during a run (tens of thousands of radius-zero
//! reborn singletons next to inflated survivors), so the engine splits the
//! clusters at a radius pivot:
//!
//! * clusters with radius ≤ pivot go into a **ball tree** over their
//!   centroids; a query from cluster `i` range-searches it with radius
//!   `2·(max(rᵢ, pivot) + MPI)` — an *exact* full-space range query, which
//!   keeps pruning even in low-contrast collections where
//!   coordinate-projection grids degenerate (distance concentration);
//! * the few clusters with radius > pivot form an explicit **big list**
//!   that every query also receives (their own radius may make any pair
//!   viable regardless of distance).
//!
//! The union is a superset of the viable candidates, and both engines feed
//! the same exact merge test, so clusterings are identical (see the
//! cross-engine property tests).

#![expect(
    clippy::indexing_slicing,
    reason = "slots index the pass's own cluster table, and the pivot index is clamped into the non-empty radius list"
)]

use crate::balltree::BallTree;
use crate::cluster::Cluster;

/// Which candidate engine a BAG run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's behaviour: every cluster is checked against every other.
    Exhaustive,
    /// Ball-tree-pruned candidates; identical output, far fewer tests.
    Pruned,
}

/// A per-pass candidate enumerator over the alive clusters.
///
/// `slots` indexes into the pass's cluster table; `None` entries are
/// consumed/destroyed clusters and never returned.
pub(crate) enum CandidateEngine {
    /// See [`EngineKind::Exhaustive`].
    Exhaustive {
        /// Number of slots in the pass table.
        n_slots: usize,
    },
    /// See [`EngineKind::Pruned`].
    Pruned(PrunedIndex),
}

impl CandidateEngine {
    /// Builds the engine for one pass over `clusters`. `mpi` is the merge
    /// increment (fixes the viability bound above).
    pub fn build(kind: EngineKind, clusters: &[Option<Cluster>], mpi: f32) -> CandidateEngine {
        match kind {
            EngineKind::Exhaustive => CandidateEngine::Exhaustive {
                n_slots: clusters.len(),
            },
            EngineKind::Pruned => CandidateEngine::Pruned(PrunedIndex::build(clusters, mpi)),
        }
    }

    /// Appends to `out` a superset of the slots whose cluster could satisfy
    /// the merge rule with cluster `i` (may include `i` itself; the caller
    /// filters).
    pub fn candidates(&self, i: usize, clusters: &[Option<Cluster>], out: &mut Vec<usize>) {
        match self {
            CandidateEngine::Exhaustive { n_slots } => {
                out.extend(0..*n_slots);
            }
            CandidateEngine::Pruned(index) => {
                let Some(c) = clusters[i].as_ref() else {
                    return;
                };
                index.neighbors(c, out);
            }
        }
    }
}

/// Fraction of clusters kept below the radius pivot (the rest go to the
/// big list).
const PIVOT_PERCENTILE: f64 = 0.90;

/// The two-level candidate index: a ball tree of small-radius clusters plus
/// an explicit list of large-radius ones.
pub(crate) struct PrunedIndex {
    tree: BallTree,
    /// Every slot with radius above the pivot.
    big: Vec<u32>,
    pivot: f32,
    mpi: f32,
}

impl PrunedIndex {
    /// Builds the two-level index for one pass.
    pub fn build(clusters: &[Option<Cluster>], mpi: f32) -> PrunedIndex {
        // Radius pivot: the PIVOT_PERCENTILE-quantile of alive radii.
        let mut radii: Vec<f32> = clusters.iter().flatten().map(|c| c.radius).collect();
        radii.sort_by(f32::total_cmp);
        let pivot = if radii.is_empty() {
            0.0
        } else {
            radii[((radii.len() as f64 * PIVOT_PERCENTILE) as usize).min(radii.len() - 1)]
        };

        let mut big = Vec::new();
        let mut small = Vec::new();
        for (i, c) in clusters.iter().enumerate() {
            let Some(c) = c else { continue };
            if c.radius > pivot {
                big.push(i as u32);
            } else {
                small.push((c.centroid, i as u32));
            }
        }
        PrunedIndex {
            tree: BallTree::build(small),
            big,
            pivot,
            mpi,
        }
    }

    /// Appends a superset of the viable partners of `query`: the big list
    /// plus every small cluster within `2·(max(r_query, pivot) + MPI)` of
    /// the query centroid.
    pub fn neighbors(&self, query: &Cluster, out: &mut Vec<usize>) {
        out.extend(self.big.iter().map(|&s| s as usize));
        let reach = 2.0 * (query.radius.max(self.pivot) + self.mpi);
        self.tree.range(&query.centroid, reach, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::{Descriptor, DescriptorSet, Vector};

    fn clusters_at(xs: &[f32]) -> (DescriptorSet, Vec<Option<Cluster>>) {
        let set: DescriptorSet = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| Descriptor::new(i as u32, Vector::splat(x)))
            .collect();
        let clusters = (0..xs.len())
            .map(|i| Some(Cluster::singleton(i as u32, &set)))
            .collect();
        (set, clusters)
    }

    /// Brute-force viability bound for the superset check.
    fn must_return(a: &Cluster, b: &Cluster, mpi: f32) -> bool {
        a.centroid.dist(&b.centroid) < 2.0 * (a.radius.max(b.radius) + mpi)
    }

    #[test]
    fn exhaustive_returns_every_slot() {
        let (_, clusters) = clusters_at(&[0.0, 5.0, 10.0]);
        let e = CandidateEngine::build(EngineKind::Exhaustive, &clusters, 1.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn pruned_covers_everything_viable() {
        let xs: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let (_, clusters) = clusters_at(&xs);
        let mpi = 2.5;
        let e = CandidateEngine::build(EngineKind::Pruned, &clusters, mpi);
        for i in 0..clusters.len() {
            let mut out = Vec::new();
            e.candidates(i, &clusters, &mut out);
            let ci = clusters[i].as_ref().unwrap();
            for (j, c) in clusters.iter().enumerate() {
                if j == i {
                    continue;
                }
                let cj = c.as_ref().unwrap();
                if must_return(ci, cj, mpi) {
                    assert!(
                        out.contains(&j),
                        "viable slot {j} missing from candidates of {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_covers_viable_pairs_with_mixed_radii() {
        // One inflated survivor among many singletons: the big list must
        // carry it to every query, and wide queries from it must reach the
        // distant singletons.
        let xs: Vec<f32> = (0..60).map(|i| i as f32 * 2.0).collect();
        let (_, mut clusters) = clusters_at(&xs);
        if let Some(c) = clusters[0].as_mut() {
            c.radius = 200.0;
        }
        let mpi = 1.0;
        let e = CandidateEngine::build(EngineKind::Pruned, &clusters, mpi);
        for i in 0..clusters.len() {
            let mut out = Vec::new();
            e.candidates(i, &clusters, &mut out);
            let ci = clusters[i].as_ref().unwrap();
            for (j, c) in clusters.iter().enumerate() {
                if j == i {
                    continue;
                }
                let cj = c.as_ref().unwrap();
                if must_return(ci, cj, mpi) {
                    assert!(
                        out.contains(&j),
                        "mixed radii: viable slot {j} missing from candidates of {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_prunes_distant_slots() {
        // Two tight groups 1000 apart (per axis): singleton queries must
        // not see the far group.
        let xs = [0.0, 0.1, 0.2, 1000.0, 1000.1];
        let (_, clusters) = clusters_at(&xs);
        let e = CandidateEngine::build(EngineKind::Pruned, &clusters, 1.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        assert!(out.contains(&1) && out.contains(&2));
        assert!(!out.contains(&3) && !out.contains(&4));
    }

    #[test]
    fn pruned_skips_consumed_slots() {
        let (_, mut clusters) = clusters_at(&[0.0, 0.1, 0.2]);
        clusters[1] = None;
        let e = CandidateEngine::build(EngineKind::Pruned, &clusters, 1.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        assert!(!out.contains(&1), "consumed slots must not be indexed");
    }

    #[test]
    fn pruned_handles_zero_mpi_degenerate() {
        let (_, clusters) = clusters_at(&[0.0, 0.0]);
        let e = CandidateEngine::build(EngineKind::Pruned, &clusters, 0.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        assert!(out.contains(&1), "coincident centroids are always in range");
    }

    #[test]
    fn wide_queries_reach_everything() {
        // A query whose radius dwarfs the pivot gets everything.
        let xs: Vec<f32> = (0..30).map(|i| i as f32 * 10.0).collect();
        let (_, mut clusters) = clusters_at(&xs);
        if let Some(c) = clusters[0].as_mut() {
            c.radius = 1e6;
        }
        let e = CandidateEngine::build(EngineKind::Pruned, &clusters, 1.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        for j in 1..clusters.len() {
            assert!(out.contains(&j), "slot {j} missing from wide query");
        }
    }
}
