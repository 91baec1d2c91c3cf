//! The dynamic SR-tree: insertion with forced reinsertion, node splitting,
//! and exact k-nearest-neighbour search.
//!
//! The eff2 paper's experiments use the *static* build (see [`crate::bulk`])
//! because it is faster and guarantees uniform leaf size; the dynamic path
//! here completes the index structure as published — descent by nearest
//! centroid, R\*-style forced reinsertion on first leaf overflow, and
//! margin-minimising topological splits.
// lint:allow-file(panic.index): chunks_exact(4) blocks are indexed 0..4 by the blocked leaf scan

use crate::geometry::{region_min_dist_sq, Rect};
use crate::node::{ChildRef, LeafEntry, Node};
use eff2_descriptor::{l2_sq_x4, Vector, DIM};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Tuning parameters of the dynamic SR-tree.
#[derive(Clone, Copy, Debug)]
pub struct SRTreeConfig {
    /// Maximum number of points in a leaf.
    pub leaf_capacity: usize,
    /// Maximum number of children of an internal node.
    pub internal_capacity: usize,
    /// Fraction of a leaf forcibly reinserted on its first overflow
    /// (the R\*-tree recommends ≈30 %).
    pub reinsert_fraction: f32,
    /// Minimum fill fraction of each side of a split (R\*: 40 %).
    pub min_fill: f32,
}

impl Default for SRTreeConfig {
    fn default() -> Self {
        SRTreeConfig {
            leaf_capacity: 64,
            internal_capacity: 32,
            reinsert_fraction: 0.3,
            min_fill: 0.4,
        }
    }
}

impl SRTreeConfig {
    /// Validates the parameters, panicking on nonsense values; called once
    /// at tree construction.
    fn validate(&self) {
        assert!(self.leaf_capacity >= 2, "leaf capacity must be at least 2");
        assert!(
            self.internal_capacity >= 2,
            "internal fan-out must be at least 2"
        );
        assert!(
            (0.0..1.0).contains(&self.reinsert_fraction),
            "reinsert fraction must be in [0,1)"
        );
        assert!(
            (0.0..=0.5).contains(&self.min_fill),
            "min fill must be in [0,0.5]"
        );
    }
}

/// A dynamic SR-tree over 24-dimensional descriptors.
///
/// Points are identified by their position (`u32`) in a backing
/// [`eff2_descriptor::DescriptorSet`]; the tree stores vector copies in its
/// leaves for scan locality.
#[derive(Debug)]
pub struct SRTree {
    root: ChildRef,
    config: SRTreeConfig,
    len: usize,
}

/// One k-NN result: squared distance and the point's collection position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance to the query.
    pub dist_sq: f32,
    /// Position in the backing collection.
    pub pos: u32,
}

impl SRTree {
    /// Creates an empty tree.
    pub fn new(config: SRTreeConfig) -> Self {
        config.validate();
        SRTree {
            root: ChildRef::summarise(Box::new(Node::empty_leaf())),
            config,
            len: 0,
        }
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tree's configuration.
    pub fn config(&self) -> &SRTreeConfig {
        &self.config
    }

    /// Assembles a tree from a pre-built root (the static build path).
    pub(crate) fn from_parts(root: ChildRef, config: SRTreeConfig, len: usize) -> Self {
        config.validate();
        SRTree { root, config, len }
    }

    /// Inserts a point.
    pub fn insert(&mut self, pos: u32, vector: Vector) {
        let mut pending = vec![LeafEntry { pos, vector }];
        let mut reinserted = false;
        while let Some(entry) = pending.pop() {
            if let Some(sibling) = insert_rec(
                &mut self.root,
                entry,
                &self.config,
                &mut pending,
                &mut reinserted,
            ) {
                // Root split: grow the tree by one level.
                let old_root = std::mem::replace(
                    &mut self.root,
                    ChildRef::summarise(Box::new(Node::empty_leaf())),
                );
                self.root = ChildRef::summarise(Box::new(Node::Internal {
                    children: vec![old_root, sibling],
                }));
            }
        }
        self.len += 1;
    }

    /// Exact k-nearest-neighbour search, returning up to `k` results in
    /// increasing distance order.
    pub fn knn(&self, query: &Vector, k: usize) -> Vec<Neighbor> {
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        // Max-heap of current best k (by distance), so peek() is the worst.
        let mut best: BinaryHeap<HeapNeighbor> = BinaryHeap::with_capacity(k + 1);
        // Min-heap of frontier nodes by region mindist.
        let mut frontier: BinaryHeap<Frontier<'_>> = BinaryHeap::new();
        frontier.push(Frontier {
            dist_sq: region_min_dist_sq(&self.root.rect, &self.root.sphere, query),
            node: &self.root.node,
        });
        while let Some(Frontier { dist_sq, node }) = frontier.pop() {
            if best.len() == k && best.peek().is_some_and(|b| dist_sq > b.0.dist_sq) {
                break; // every remaining region is farther than the kth best
            }
            match node {
                Node::Leaf { entries } => {
                    // Blocked leaf scan: four distances per step, one
                    // accumulator chain per entry (see
                    // `eff2_descriptor::kernels`); same visit order as the
                    // row-at-a-time loop it replaces.
                    let mut blocks = entries.chunks_exact(4);
                    for blk in &mut blocks {
                        let d = l2_sq_x4(
                            query.as_array(),
                            blk[0].vector.as_array(),
                            blk[1].vector.as_array(),
                            blk[2].vector.as_array(),
                            blk[3].vector.as_array(),
                        );
                        for (e, &dj) in blk.iter().zip(d.iter()) {
                            offer_leaf(&mut best, k, e.pos, dj);
                        }
                    }
                    for e in blocks.remainder() {
                        offer_leaf(&mut best, k, e.pos, query.dist_sq(&e.vector));
                    }
                }
                Node::Internal { children } => {
                    for c in children {
                        let d = region_min_dist_sq(&c.rect, &c.sphere, query);
                        if best.len() < k || best.peek().is_some_and(|b| d <= b.0.dist_sq) {
                            frontier.push(Frontier {
                                dist_sq: d,
                                node: &c.node,
                            });
                        }
                    }
                }
            }
        }
        let mut out: Vec<Neighbor> = best.into_iter().map(|h| h.0).collect();
        out.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.pos.cmp(&b.pos)));
        out
    }

    /// Checks every structural invariant, panicking with a description on
    /// the first violation. Test/diagnostic helper — O(n log n).
    pub fn validate(&self) {
        let counted = validate_rec(&self.root, &self.config, true);
        assert_eq!(
            counted, self.len,
            "stored count {} != len {}",
            counted, self.len
        );
    }
}

fn insert_rec(
    child: &mut ChildRef,
    entry: LeafEntry,
    cfg: &SRTreeConfig,
    pending: &mut Vec<LeafEntry>,
    reinserted: &mut bool,
) -> Option<ChildRef> {
    let result = match child.node.as_mut() {
        Node::Leaf { entries } => {
            entries.push(entry);
            if entries.len() <= cfg.leaf_capacity {
                None
            } else if !*reinserted && cfg.reinsert_fraction > 0.0 {
                *reinserted = true;
                force_reinsert(entries, cfg.reinsert_fraction, pending);
                None
            } else {
                let sibling_entries = split_leaf(entries, cfg);
                Some(ChildRef::summarise(Box::new(Node::Leaf {
                    entries: sibling_entries,
                })))
            }
        }
        Node::Internal { children } => {
            // SR-tree choose-subtree: descend into the child whose centroid
            // is nearest to the new point.
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (i, c) in children.iter().enumerate() {
                let d = entry.vector.dist_sq(&c.sphere.center);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            let split = insert_rec(&mut children[best], entry, cfg, pending, reinserted);
            if let Some(sibling) = split {
                children.push(sibling);
            }
            if children.len() > cfg.internal_capacity {
                let sibling_children = split_internal(children, cfg);
                Some(ChildRef::summarise(Box::new(Node::Internal {
                    children: sibling_children,
                })))
            } else {
                None
            }
        }
    };
    child.refresh();
    result
}

/// Removes the `fraction` of `entries` farthest from their centroid and
/// queues them for reinsertion (R\*-tree forced reinsert).
fn force_reinsert(entries: &mut Vec<LeafEntry>, fraction: f32, pending: &mut Vec<LeafEntry>) {
    let centroid = Vector::mean(entries.iter().map(|e| &e.vector).collect::<Vec<_>>());
    let p = (((entries.len() as f32) * fraction).ceil() as usize)
        .max(1)
        .min(entries.len() - 1);
    // Sort ascending by distance; the farthest p entries sit at the tail.
    entries.sort_by(|a, b| {
        centroid
            .dist_sq(&a.vector)
            .total_cmp(&centroid.dist_sq(&b.vector))
    });
    let tail = entries.split_off(entries.len() - p);
    pending.extend(tail);
}

/// Splits an over-full leaf in place, returning the entries of the new
/// sibling. Axis: maximum variance; split point: minimum total margin among
/// balanced candidates.
fn split_leaf(entries: &mut Vec<LeafEntry>, cfg: &SRTreeConfig) -> Vec<LeafEntry> {
    let axis = max_variance_axis(entries.iter().map(|e| &e.vector));
    entries.sort_by(|a, b| a.vector[axis].total_cmp(&b.vector[axis]));
    let k = best_split_point(entries.len(), cfg, |i| entries[i].vector);
    entries.split_off(k)
}

/// Splits an over-full internal node in place (on child centroids),
/// returning the children of the new sibling.
fn split_internal(children: &mut Vec<ChildRef>, cfg: &SRTreeConfig) -> Vec<ChildRef> {
    let axis = max_variance_axis(children.iter().map(|c| &c.sphere.center));
    children.sort_by(|a, b| a.sphere.center[axis].total_cmp(&b.sphere.center[axis]));
    let k = best_split_point(children.len(), cfg, |i| children[i].sphere.center);
    children.split_off(k)
}

/// Chooses the split index `k` (left gets `0..k`) minimising the sum of the
/// two groups' rectangle margins, over candidates satisfying the minimum
/// fill. `point_at` yields the representative point of element `i` in the
/// already-sorted order.
fn best_split_point(n: usize, cfg: &SRTreeConfig, point_at: impl Fn(usize) -> Vector) -> usize {
    let m = (((n as f32) * cfg.min_fill).floor() as usize).max(1);
    let lo = m;
    let hi = n - m;
    if lo >= hi {
        return n / 2;
    }
    // Prefix/suffix rectangles let each candidate be evaluated in O(1).
    let mut prefix = Vec::with_capacity(n);
    let mut rect = Rect::empty();
    for i in 0..n {
        rect.expand_point(&point_at(i));
        prefix.push(rect);
    }
    let mut suffix = vec![Rect::empty(); n + 1];
    let mut rect = Rect::empty();
    for i in (0..n).rev() {
        rect.expand_point(&point_at(i));
        suffix[i] = rect;
    }
    let mut best_k = n / 2;
    let mut best_margin = f32::INFINITY;
    for k in lo..=hi {
        let margin = prefix[k - 1].margin() + suffix[k].margin();
        if margin < best_margin {
            best_margin = margin;
            best_k = k;
        }
    }
    best_k
}

fn max_variance_axis<'a, I>(points: I) -> usize
where
    I: Iterator<Item = &'a Vector> + Clone,
{
    let mut sum = [0.0f64; DIM];
    let mut sum_sq = [0.0f64; DIM];
    let mut n = 0usize;
    for p in points {
        for d in 0..DIM {
            let x = f64::from(p[d]);
            sum[d] += x;
            sum_sq[d] += x * x;
        }
        n += 1;
    }
    if n == 0 {
        return 0;
    }
    let inv = 1.0 / n as f64;
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

fn validate_rec(child: &ChildRef, cfg: &SRTreeConfig, is_root: bool) -> usize {
    match child.node.as_ref() {
        Node::Leaf { entries } => {
            assert!(
                entries.len() <= cfg.leaf_capacity,
                "leaf overflow: {} > {}",
                entries.len(),
                cfg.leaf_capacity
            );
            for e in entries {
                assert!(
                    child.rect.contains(&e.vector),
                    "rect must contain leaf point"
                );
                assert!(
                    child.sphere.contains(&e.vector),
                    "sphere must contain leaf point"
                );
            }
            assert_eq!(child.count, entries.len(), "leaf count mismatch");
            entries.len()
        }
        Node::Internal { children } => {
            assert!(children.len() <= cfg.internal_capacity, "internal overflow");
            // A 1-child internal is legal (an internal at capacity 2
            // overflowing with 3 children can only split 1+2); it must
            // simply be non-empty. Later inserts fill such nodes back up.
            assert!(
                is_root || !children.is_empty(),
                "non-root internal node must not be empty"
            );
            let mut total = 0;
            for c in children {
                assert!(
                    child.rect.contains_rect(&c.rect),
                    "parent rect must contain child rect"
                );
                total += validate_rec(c, cfg, false);
            }
            assert_eq!(child.count, total, "internal count mismatch");
            total
        }
    }
}

/// Max-heap adapter ordering neighbours by distance.
/// The bounded top-k offer of the leaf scan (shared by the blocked and
/// remainder paths of [`SRTree::knn`]).
#[inline]
fn offer_leaf(best: &mut BinaryHeap<HeapNeighbor>, k: usize, pos: u32, d: f32) {
    if best.len() < k {
        best.push(HeapNeighbor(Neighbor { dist_sq: d, pos }));
    } else if best.peek().is_some_and(|b| d < b.0.dist_sq) {
        best.pop();
        best.push(HeapNeighbor(Neighbor { dist_sq: d, pos }));
    }
}

struct HeapNeighbor(Neighbor);

impl PartialEq for HeapNeighbor {
    fn eq(&self, other: &Self) -> bool {
        self.0.dist_sq == other.0.dist_sq && self.0.pos == other.0.pos
    }
}
impl Eq for HeapNeighbor {}
impl PartialOrd for HeapNeighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNeighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .dist_sq
            .total_cmp(&other.0.dist_sq)
            .then(self.0.pos.cmp(&other.0.pos))
    }
}

/// Min-heap adapter ordering frontier nodes by region mindist.
struct Frontier<'a> {
    dist_sq: f32,
    node: &'a Node,
}

impl PartialEq for Frontier<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq
    }
}
impl Eq for Frontier<'_> {}
impl PartialOrd for Frontier<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the nearest region first.
        other.dist_sq.total_cmp(&self.dist_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<Vector> {
        // Deterministic, well-spread points.
        (0..n)
            .map(|i| {
                let mut v = Vector::ZERO;
                for d in 0..DIM {
                    v[d] = (((i * 31 + d * 17) % 97) as f32) * 0.37 - 18.0;
                }
                v
            })
            .collect()
    }

    fn build(n: usize, cfg: SRTreeConfig) -> (SRTree, Vec<Vector>) {
        let pts = grid_points(n);
        let mut tree = SRTree::new(cfg);
        for (i, p) in pts.iter().enumerate() {
            tree.insert(i as u32, *p);
        }
        (tree, pts)
    }

    fn brute_knn(pts: &[Vector], q: &Vector, k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| Neighbor {
                dist_sq: q.dist_sq(p),
                pos: i as u32,
            })
            .collect();
        all.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.pos.cmp(&b.pos)));
        all.truncate(k);
        all
    }

    #[test]
    fn empty_tree() {
        let tree = SRTree::new(SRTreeConfig::default());
        assert!(tree.is_empty());
        assert!(matches!(*tree.root.node, Node::Leaf { .. }));
        assert!(tree.knn(&Vector::ZERO, 5).is_empty());
        tree.validate();
    }

    #[test]
    fn insert_below_capacity_stays_single_leaf() {
        let (tree, _) = build(10, SRTreeConfig::default());
        assert_eq!(tree.len(), 10);
        assert!(matches!(*tree.root.node, Node::Leaf { .. }));
        tree.validate();
    }

    #[test]
    fn overflow_splits_and_grows() {
        let cfg = SRTreeConfig {
            leaf_capacity: 8,
            internal_capacity: 4,
            ..SRTreeConfig::default()
        };
        let (tree, _) = build(200, cfg);
        assert_eq!(tree.len(), 200);
        // The tree is balanced, so one internal child means three levels.
        let Node::Internal { children } = &*tree.root.node else {
            panic!("200 points overflow one leaf");
        };
        assert!(matches!(*children[0].node, Node::Internal { .. }));
        tree.validate();
    }

    #[test]
    fn knn_matches_brute_force() {
        let cfg = SRTreeConfig {
            leaf_capacity: 10,
            internal_capacity: 5,
            ..SRTreeConfig::default()
        };
        let (tree, pts) = build(500, cfg);
        for qi in [0usize, 123, 456] {
            let q = pts[qi];
            let got = tree.knn(&q, 10);
            let want = brute_knn(&pts, &q, 10);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.dist_sq - w.dist_sq).abs() < 1e-4, "{g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn knn_from_off_dataset_query() {
        let (tree, pts) = build(300, SRTreeConfig::default());
        let q = Vector::splat(50.0);
        let got = tree.knn(&q, 7);
        let want = brute_knn(&pts, &q, 7);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist_sq - w.dist_sq).abs() < 1e-3);
        }
    }

    #[test]
    fn knn_k_larger_than_n_returns_all() {
        let (tree, pts) = build(20, SRTreeConfig::default());
        let got = tree.knn(&Vector::ZERO, 100);
        assert_eq!(got.len(), pts.len());
    }

    #[test]
    fn knn_k_zero() {
        let (tree, _) = build(20, SRTreeConfig::default());
        assert!(tree.knn(&Vector::ZERO, 0).is_empty());
    }

    #[test]
    fn duplicate_points_are_retained() {
        let mut tree = SRTree::new(SRTreeConfig {
            leaf_capacity: 4,
            internal_capacity: 3,
            ..SRTreeConfig::default()
        });
        for i in 0..50u32 {
            tree.insert(i, Vector::splat(1.0));
        }
        assert_eq!(tree.len(), 50);
        tree.validate();
        let got = tree.knn(&Vector::splat(1.0), 50);
        assert_eq!(got.len(), 50);
        assert!(got.iter().all(|n| n.dist_sq == 0.0));
    }

    #[test]
    fn validate_after_heavy_inserts() {
        let cfg = SRTreeConfig {
            leaf_capacity: 6,
            internal_capacity: 4,
            reinsert_fraction: 0.3,
            min_fill: 0.4,
        };
        let (tree, _) = build(1_000, cfg);
        tree.validate();
        assert_eq!(tree.len(), 1_000);
    }

    #[test]
    fn no_reinsertion_path_also_valid() {
        let cfg = SRTreeConfig {
            leaf_capacity: 6,
            internal_capacity: 4,
            reinsert_fraction: 0.0,
            min_fill: 0.4,
        };
        let (tree, pts) = build(400, cfg);
        tree.validate();
        let got = tree.knn(&pts[7], 5);
        let want = brute_knn(&pts, &pts[7], 5);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g.dist_sq - w.dist_sq).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn config_rejects_tiny_leaf() {
        SRTree::new(SRTreeConfig {
            leaf_capacity: 1,
            ..SRTreeConfig::default()
        });
    }
}
