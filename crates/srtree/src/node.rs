//! Node types of the dynamic SR-tree and their summary maintenance.
//!
//! Every subtree is described to its parent by a [`ChildRef`]: the owned
//! node plus the SR-tree region summary — bounding rectangle, bounding
//! sphere and subtree point count. The sphere centre is the *centroid of
//! all points in the subtree* (this is the SR-tree's departure from the
//! SS-tree: centroids weighted by subtree cardinality), and its radius is
//! the smaller of the two available upper bounds: the farthest child sphere
//! and the farthest rectangle corner.
// lint:allow-file(panic.index): entry arrays are bounded by the node capacity checks around them

use crate::geometry::{Rect, Sphere};
use eff2_descriptor::Vector;

/// One point stored in a leaf: its position in the backing collection plus
/// a copy of the vector for scan locality.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct LeafEntry {
    /// Position of the descriptor in the backing [`eff2_descriptor::DescriptorSet`].
    pub pos: u32,
    /// The descriptor vector.
    pub vector: Vector,
}

/// An SR-tree node.
#[derive(Debug)]
pub(crate) enum Node {
    /// A leaf holding points.
    Leaf {
        /// The stored points.
        entries: Vec<LeafEntry>,
    },
    /// An internal node holding summarised subtrees.
    Internal {
        /// The child subtrees.
        children: Vec<ChildRef>,
    },
}

impl Node {
    /// Creates an empty leaf.
    pub(crate) fn empty_leaf() -> Node {
        Node::Leaf {
            entries: Vec::new(),
        }
    }
}

/// An owned subtree plus its region summary.
#[derive(Debug)]
pub(crate) struct ChildRef {
    /// The owned subtree.
    pub node: Box<Node>,
    /// Minimum bounding rectangle of all points below.
    pub rect: Rect,
    /// Bounding sphere centred on the subtree centroid.
    pub sphere: Sphere,
    /// Number of points below.
    pub count: usize,
}

impl ChildRef {
    /// Builds a reference around `node`, computing its summary.
    pub fn summarise(node: Box<Node>) -> ChildRef {
        let (rect, sphere, count) = summary_of(&node);
        ChildRef {
            node,
            rect,
            sphere,
            count,
        }
    }

    /// Recomputes this reference's summary from its node's current
    /// immediate entries (children summaries are trusted, not recursed
    /// into — maintenance is O(fan-out) per level).
    pub(crate) fn refresh(&mut self) {
        let (rect, sphere, count) = summary_of(&self.node);
        self.rect = rect;
        self.sphere = sphere;
        self.count = count;
    }
}

/// Computes (rect, sphere, count) for a node from its immediate entries.
pub(crate) fn summary_of(node: &Node) -> (Rect, Sphere, usize) {
    match node {
        Node::Leaf { entries } => {
            let mut rect = Rect::empty();
            let mut sum = [0.0f64; eff2_descriptor::DIM];
            for e in entries {
                rect.expand_point(&e.vector);
                for (a, &x) in sum.iter_mut().zip(e.vector.as_slice()) {
                    *a += f64::from(x);
                }
            }
            let count = entries.len();
            if count == 0 {
                return (rect, Sphere::point(&Vector::ZERO), 0);
            }
            let mut center = Vector::ZERO;
            for d in 0..eff2_descriptor::DIM {
                center[d] = (sum[d] / count as f64) as f32;
            }
            let max_point = entries
                .iter()
                .map(|e| center.dist(&e.vector))
                .fold(0.0f32, f32::max);
            // The rectangle-corner bound can only be looser for a leaf, but
            // take the min anyway for symmetry with internal nodes.
            let radius = max_point.min(rect.max_dist_from(&center));
            (rect, Sphere { center, radius }, count)
        }
        Node::Internal { children } => {
            let mut rect = Rect::empty();
            let mut sum = [0.0f64; eff2_descriptor::DIM];
            let mut count = 0usize;
            for c in children {
                rect.expand_rect(&c.rect);
                count += c.count;
                for (a, &x) in sum.iter_mut().zip(c.sphere.center.as_slice()) {
                    *a += f64::from(x) * c.count as f64;
                }
            }
            if count == 0 {
                return (rect, Sphere::point(&Vector::ZERO), 0);
            }
            let mut center = Vector::ZERO;
            for d in 0..eff2_descriptor::DIM {
                center[d] = (sum[d] / count as f64) as f32;
            }
            // SR-tree radius: min of the two available upper bounds.
            let by_spheres = children
                .iter()
                .map(|c| center.dist(&c.sphere.center) + c.sphere.radius)
                .fold(0.0f32, f32::max);
            let by_rect = rect.max_dist_from(&center);
            (
                rect,
                Sphere {
                    center,
                    radius: by_spheres.min(by_rect),
                },
                count,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::DIM;

    fn entry(pos: u32, fill: f32) -> LeafEntry {
        LeafEntry {
            pos,
            vector: Vector::splat(fill),
        }
    }

    #[test]
    fn leaf_summary_covers_entries() {
        let node = Node::Leaf {
            entries: vec![entry(0, 0.0), entry(1, 2.0), entry(2, 4.0)],
        };
        let (rect, sphere, count) = summary_of(&node);
        assert_eq!(count, 3);
        assert_eq!(rect.min, Vector::splat(0.0));
        assert_eq!(rect.max, Vector::splat(4.0));
        // Centroid is splat(2); farthest point splat(0)/splat(4) at
        // distance sqrt(24 * 4).
        assert_eq!(sphere.center, Vector::splat(2.0));
        let expect = (DIM as f32 * 4.0).sqrt();
        assert!((sphere.radius - expect).abs() < 1e-4);
        for e in [entry(0, 0.0), entry(1, 2.0), entry(2, 4.0)] {
            assert!(sphere.contains(&e.vector));
            assert!(rect.contains(&e.vector));
        }
    }

    #[test]
    fn empty_leaf_summary() {
        let (rect, sphere, count) = summary_of(&Node::empty_leaf());
        assert_eq!(count, 0);
        assert_eq!(rect, Rect::empty());
        assert_eq!(sphere.radius, 0.0);
    }

    #[test]
    fn internal_summary_weights_centroids() {
        // Child A: 3 points at splat(0); child B: 1 point at splat(4).
        let a = ChildRef::summarise(Box::new(Node::Leaf {
            entries: vec![entry(0, 0.0), entry(1, 0.0), entry(2, 0.0)],
        }));
        let b = ChildRef::summarise(Box::new(Node::Leaf {
            entries: vec![entry(3, 4.0)],
        }));
        let parent = Node::Internal {
            children: vec![a, b],
        };
        let (rect, sphere, count) = summary_of(&parent);
        assert_eq!(count, 4);
        // Weighted centroid: (3*0 + 1*4)/4 = 1 per dimension.
        assert_eq!(sphere.center, Vector::splat(1.0));
        assert_eq!(rect.max, Vector::splat(4.0));
        // The sphere must cover both child spheres.
        let far = Vector::splat(4.0);
        assert!(sphere.contains(&far));
    }

    #[test]
    fn internal_radius_takes_tighter_bound() {
        // One point per child: the sphere-derived bound equals the true
        // farthest distance; the rect-corner bound coincides here, so the
        // radius must exactly cover the farthest point, not exceed it much.
        let a = ChildRef::summarise(Box::new(Node::Leaf {
            entries: vec![entry(0, 0.0)],
        }));
        let b = ChildRef::summarise(Box::new(Node::Leaf {
            entries: vec![entry(1, 2.0)],
        }));
        let parent = Node::Internal {
            children: vec![a, b],
        };
        let (_, sphere, _) = summary_of(&parent);
        let true_far = sphere.center.dist(&Vector::splat(2.0));
        assert!(sphere.radius >= true_far - 1e-5);
        assert!(sphere.radius <= true_far + 1e-4);
    }

    #[test]
    fn refresh_tracks_mutation() {
        let mut c = ChildRef::summarise(Box::new(Node::Leaf {
            entries: vec![entry(0, 0.0)],
        }));
        match c.node.as_mut() {
            Node::Leaf { entries } => entries.push(entry(1, 10.0)),
            _ => unreachable!(),
        }
        c.refresh();
        assert_eq!(c.count, 2);
        assert!(c.rect.contains(&Vector::splat(10.0)));
        assert!(c.sphere.contains(&Vector::splat(10.0)));
    }
}
