//! A small ball tree over cluster centroids, used by the grid-free
//! candidate engine for exact range queries in the full 24-dimensional
//! space.
//!
//! Coordinate-projection grids cannot prune merge candidates in
//! low-contrast descriptor collections: the viability bound
//! `d < 2·(r + MPI)` quickly exceeds the per-dimension data extent even
//! while full-space distances still discriminate (distance concentration —
//! most of the distance lives in the other 21 coordinates). A ball tree
//! prunes with the true metric: a subtree is visited only if
//! `d(q, center) ≤ R + radius`.

#![expect(
    clippy::indexing_slicing,
    reason = "tree arrays are indexed by node ids the builder allocates contiguously"
)]

use eff2_descriptor::{l2_sq_x4, Vector, DIM};

/// Maximum points per leaf.
const LEAF: usize = 24;

struct Node {
    center: Vector,
    radius: f32,
    /// Range into `order`.
    start: u32,
    len: u32,
    /// Child node indices, `u32::MAX` for leaves.
    left: u32,
    right: u32,
}

/// A static ball tree over `(point, payload)` pairs.
pub(crate) struct BallTree {
    nodes: Vec<Node>,
    /// Points and payloads, reordered so every node owns a contiguous range.
    points: Vec<Vector>,
    payloads: Vec<u32>,
}

impl BallTree {
    /// Builds a tree over the given points (payloads are caller-defined
    /// identifiers, typically slot indices).
    pub fn build(mut entries: Vec<(Vector, u32)>) -> BallTree {
        let mut tree = BallTree {
            nodes: Vec::new(),
            points: Vec::with_capacity(entries.len()),
            payloads: Vec::with_capacity(entries.len()),
        };
        if entries.is_empty() {
            return tree;
        }
        tree.build_rec(&mut entries);
        // `build_rec` fills `points`/`payloads` in final order.
        tree
    }

    fn build_rec(&mut self, entries: &mut [(Vector, u32)]) -> u32 {
        let (center, radius) = bounding_ball(entries);
        let node_id = self.nodes.len() as u32;
        let start = self.points.len() as u32;
        self.nodes.push(Node {
            center,
            radius,
            start,
            len: entries.len() as u32,
            left: u32::MAX,
            right: u32::MAX,
        });
        if entries.len() <= LEAF {
            for (p, payload) in entries.iter() {
                self.points.push(*p);
                self.payloads.push(*payload);
            }
            // Leaf ranges are physical; `start` recorded above is correct.
            return node_id;
        }
        // Split at the median of the maximum-variance dimension.
        let axis = max_variance_axis(entries);
        let mid = entries.len() / 2;
        entries.select_nth_unstable_by(mid, |a, b| a.0[axis].total_cmp(&b.0[axis]));
        let (lo, hi) = entries.split_at_mut(mid);
        let left = self.build_rec(lo);
        let right = self.build_rec(hi);
        // Internal nodes don't own a physical range of their own; their
        // `start` is where their subtree's points begin.
        let left_start = self.nodes[left as usize].start;
        let node = &mut self.nodes[node_id as usize];
        node.left = left;
        node.right = right;
        node.start = left_start;
        node_id
    }

    /// Appends the payloads of every point within distance `r` of `q`
    /// (inclusive, plus an f32 epsilon) to `out`.
    pub(crate) fn range(&self, q: &Vector, r: f32, out: &mut Vec<usize>) {
        if self.nodes.is_empty() {
            return;
        }
        let mut stack = vec![0u32];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            let d = q.dist(&node.center);
            if d > r + node.radius + 1e-5 {
                continue; // the whole ball is out of range
            }
            if node.left == u32::MAX {
                let start = node.start as usize;
                let end = start + node.len as usize;
                let r_sq = r * r * (1.0 + 1e-5) + 1e-6;
                // Blocked leaf filter: four distances per step.
                let leaf = &self.points[start..end];
                let mut blocks = leaf.chunks_exact(4);
                let mut i = start;
                for blk in &mut blocks {
                    let d = l2_sq_x4(
                        q.as_array(),
                        blk[0].as_array(),
                        blk[1].as_array(),
                        blk[2].as_array(),
                        blk[3].as_array(),
                    );
                    for &dj in &d {
                        if dj <= r_sq {
                            out.push(self.payloads[i] as usize);
                        }
                        i += 1;
                    }
                }
                for p in blocks.remainder() {
                    if q.dist_sq(p) <= r_sq {
                        out.push(self.payloads[i] as usize);
                    }
                    i += 1;
                }
            } else {
                stack.push(node.left);
                stack.push(node.right);
            }
        }
    }
}

fn bounding_ball(entries: &[(Vector, u32)]) -> (Vector, f32) {
    let center = Vector::mean(entries.iter().map(|(p, _)| p).collect::<Vec<_>>());
    let radius = entries
        .iter()
        .map(|(p, _)| center.dist(p))
        .fold(0.0f32, f32::max);
    (center, radius)
}

fn max_variance_axis(entries: &[(Vector, u32)]) -> usize {
    let mut sum = [0.0f64; DIM];
    let mut sum_sq = [0.0f64; DIM];
    for (p, _) in entries {
        for d in 0..DIM {
            let x = f64::from(p[d]);
            sum[d] += x;
            sum_sq[d] += x * x;
        }
    }
    let inv = 1.0 / entries.len().max(1) as f64;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn points(n: usize) -> Vec<(Vector, u32)> {
        (0..n)
            .map(|i| {
                let mut v = Vector::ZERO;
                for d in 0..DIM {
                    v[d] = (((i * 37 + d * 13) % 101) as f32) * 0.4 - 20.0;
                }
                (v, i as u32)
            })
            .collect()
    }

    fn brute_range(pts: &[(Vector, u32)], q: &Vector, r: f32) -> Vec<usize> {
        let mut out: Vec<usize> = pts
            .iter()
            .filter(|(p, _)| q.dist(p) <= r)
            .map(|(_, id)| *id as usize)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn range_matches_brute_force() {
        let pts = points(500);
        let tree = BallTree::build(pts.clone());
        assert_eq!(tree.points.len(), 500);
        for (qi, r) in [(0usize, 5.0f32), (123, 15.0), (456, 40.0), (77, 0.5)] {
            let q = pts[qi].0;
            let mut got = Vec::new();
            tree.range(&q, r, &mut got);
            got.sort_unstable();
            let want = brute_range(&pts, &q, r);
            // The tree may include boundary points the brute filter just
            // excluded (f32 slack) — require superset + tight bound.
            for w in &want {
                assert!(got.contains(w), "missing {w} at r={r}");
            }
            for g in &got {
                let d = q.dist(&pts[*g].0);
                assert!(d <= r * 1.001 + 1e-3, "{g} at {d} > {r}");
            }
        }
    }

    #[test]
    fn zero_radius_finds_the_point_itself() {
        let pts = points(100);
        let tree = BallTree::build(pts.clone());
        let mut out = Vec::new();
        tree.range(&pts[42].0, 0.0, &mut out);
        assert!(out.contains(&42));
    }

    #[test]
    fn empty_tree() {
        let tree = BallTree::build(Vec::new());
        assert!(tree.points.is_empty());
        let mut out = Vec::new();
        tree.range(&Vector::ZERO, 100.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn huge_radius_returns_everything() {
        let pts = points(200);
        let tree = BallTree::build(pts.clone());
        let mut out = Vec::new();
        tree.range(&Vector::ZERO, 1e6, &mut out);
        assert_eq!(out.len(), 200);
    }

    #[test]
    fn duplicate_points_all_returned() {
        let pts: Vec<(Vector, u32)> = (0..50).map(|i| (Vector::splat(1.0), i)).collect();
        let tree = BallTree::build(pts);
        let mut out = Vec::new();
        tree.range(&Vector::splat(1.0), 0.1, &mut out);
        assert_eq!(out.len(), 50);
    }
}
