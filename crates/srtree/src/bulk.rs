//! Static (bulk) build of the SR-tree.
//!
//! The paper: *"We used the static build method, as it was much faster and
//! guaranteed uniform leaf size. Unfortunately, it requires the collection
//! to fit in memory"* (§2). This module implements that build as a
//! recursive variance-split partitioning:
//!
//! 1. compute the number of leaves `L = ceil(n / leaf_size)`;
//! 2. split the point set along its maximum-variance dimension into two
//!    parts whose sizes are proportional to the leaf counts assigned to
//!    each side (`select_nth_unstable` — no full sort needed);
//! 3. recurse until a single leaf's worth of points remains.
//!
//! Every leaf ends up with either `⌊n/L⌋` or `⌈n/L⌉` points — the uniform
//! size the paper relies on — and leaves are *roundish* because splits
//! always cut the widest spread. The upper levels of the tree are never
//! built: the paper throws them away, so the leaves are the whole result.

#![expect(
    clippy::indexing_slicing,
    reason = "partition boundaries are derived from the lengths of the slices they cut"
)]

use eff2_descriptor::{DescriptorSet, Vector, DIM};

/// Partitions the positions `0..set.len()` into leaves of uniform size
/// (every leaf holds `⌊n/L⌋` or `⌈n/L⌉` points, `L = ceil(n/leaf_size)`).
///
/// This is the work-horse the experiments call directly through
/// [`crate::chunks::chunks_from_collection`]: building chunks does not
/// require materialising the upper tree levels at all.
pub fn build_leaf_partitions(set: &DescriptorSet, leaf_size: usize) -> Vec<Vec<u32>> {
    assert!(leaf_size > 0, "leaf size must be positive");
    let n = set.len();
    if n == 0 {
        return Vec::new();
    }
    let mut positions: Vec<u32> = (0..n as u32).collect();
    let n_leaves = n.div_ceil(leaf_size);
    let mut out = Vec::with_capacity(n_leaves);
    partition_rec(set, &mut positions, n_leaves, &mut out);
    out
}

fn partition_rec(
    set: &DescriptorSet,
    positions: &mut [u32],
    n_leaves: usize,
    out: &mut Vec<Vec<u32>>,
) {
    if n_leaves <= 1 {
        out.push(positions.to_vec());
        return;
    }
    let axis = max_variance_axis(set, positions);
    let left_leaves = n_leaves / 2;
    // Sizes proportional to leaf counts keep every leaf within ±1 of n/L.
    let split_at = positions.len() * left_leaves / n_leaves;
    let key = |p: &u32| set.vector(*p as usize)[axis];
    positions.select_nth_unstable_by(split_at, |a, b| key(a).total_cmp(&key(b)));
    let (left, right) = positions.split_at_mut(split_at);
    partition_rec(set, left, left_leaves, out);
    partition_rec(set, right, n_leaves - left_leaves, out);
}

fn max_variance_axis(set: &DescriptorSet, positions: &[u32]) -> usize {
    let mut sum = [0.0f64; DIM];
    let mut sum_sq = [0.0f64; DIM];
    for &p in positions {
        let v = set.vector(p as usize);
        for d in 0..DIM {
            let x = f64::from(v[d]);
            sum[d] += x;
            sum_sq[d] += x * x;
        }
    }
    let inv = 1.0 / positions.len().max(1) as f64;
    let mut best = 0;
    let mut best_var = f64::NEG_INFINITY;
    for d in 0..DIM {
        let mean = sum[d] * inv;
        let var = sum_sq[d] * inv - mean * mean;
        if var > best_var {
            best_var = var;
            best = d;
        }
    }
    best
}

/// Centroid and minimum bounding radius of the points at `positions`.
pub fn centroid_and_radius(set: &DescriptorSet, positions: &[u32]) -> (Vector, f32) {
    let mut sum = [0.0f64; DIM];
    for &p in positions {
        let v = set.vector(p as usize);
        for d in 0..DIM {
            sum[d] += f64::from(v[d]);
        }
    }
    let inv = 1.0 / positions.len().max(1) as f64;
    let mut centroid = Vector::ZERO;
    for d in 0..DIM {
        centroid[d] = (sum[d] * inv) as f32;
    }
    // The paper observes that most chunk-index construction time is spent
    // here; the radius scan is the blocked gather kernel.
    let radius = eff2_descriptor::kernels::max_dist_sq_gather(
        centroid.as_array(),
        eff2_descriptor::as_rows(set.packed()),
        positions,
    )
    .sqrt();
    (centroid, radius)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::Descriptor;

    fn spread_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let mut v = Vector::ZERO;
                for d in 0..DIM {
                    v[d] = (((i * 131 + d * 29) % 211) as f32) * 0.11 - 11.0;
                }
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    #[test]
    fn partitions_cover_everything_exactly_once() {
        let set = spread_set(1_000);
        let leaves = build_leaf_partitions(&set, 64);
        let mut seen = vec![false; set.len()];
        for leaf in &leaves {
            for &p in leaf {
                assert!(!seen[p as usize], "position {p} appears twice");
                seen[p as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every position must be covered");
    }

    #[test]
    fn leaf_sizes_are_uniform_within_one() {
        for (n, leaf_size) in [
            (1_000usize, 64usize),
            (997, 100),
            (5_000, 7),
            (64, 64),
            (65, 64),
        ] {
            let set = spread_set(n);
            let leaves = build_leaf_partitions(&set, leaf_size);
            let l = n.div_ceil(leaf_size);
            assert_eq!(leaves.len(), l, "n={n} leaf_size={leaf_size}");
            let lo = n / l;
            let hi = n.div_ceil(l);
            for leaf in &leaves {
                assert!(
                    leaf.len() == lo || leaf.len() == hi,
                    "n={n} leaf_size={leaf_size}: leaf of {} not in [{lo},{hi}]",
                    leaf.len()
                );
            }
        }
    }

    #[test]
    fn single_leaf_when_collection_fits() {
        let set = spread_set(10);
        let leaves = build_leaf_partitions(&set, 64);
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].len(), 10);
    }

    #[test]
    fn empty_collection_yields_no_leaves() {
        let set = DescriptorSet::new();
        assert!(build_leaf_partitions(&set, 10).is_empty());
    }

    #[test]
    fn splits_partition_space_not_just_counts() {
        // With two well-separated blobs and leaf_size = half, the two
        // leaves should separate the blobs.
        let mut set = DescriptorSet::new();
        for i in 0..50u32 {
            set.push(Descriptor::new(i, Vector::splat(0.0 + (i as f32) * 1e-3)));
        }
        for i in 50..100u32 {
            set.push(Descriptor::new(i, Vector::splat(100.0 + (i as f32) * 1e-3)));
        }
        let leaves = build_leaf_partitions(&set, 50);
        assert_eq!(leaves.len(), 2);
        for leaf in &leaves {
            let first_group = set.vector(leaf[0] as usize)[0] < 50.0;
            for &p in leaf {
                assert_eq!(set.vector(p as usize)[0] < 50.0, first_group);
            }
        }
    }

    #[test]
    fn centroid_and_radius_cover_members() {
        let set = spread_set(200);
        let positions: Vec<u32> = (0..200).collect();
        let (c, r) = centroid_and_radius(&set, &positions);
        for &p in &positions {
            let d = c.dist(&set.vector_owned(p as usize));
            assert!(
                d <= r * (1.0 + 1e-5) + 1e-4,
                "point {p} at {d} > radius {r}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "leaf size")]
    fn rejects_zero_leaf_size() {
        build_leaf_partitions(&spread_set(5), 0);
    }
}
