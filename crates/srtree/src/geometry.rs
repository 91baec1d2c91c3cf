//! Bounding regions of the SR-tree: rectangles, spheres, and their
//! intersection semantics.
//!
//! The defining idea of the SR-tree is that every node region is the
//! *intersection* of a minimum bounding rectangle and a bounding sphere:
//! rectangles have small volume in high dimensions, spheres have small
//! diameter, and intersecting the two tightens both. The distance from a
//! query to a node region is therefore
//! `max(mindist(q, rect), mindist(q, sphere))`.
// lint:allow-file(panic.index): DIM-bounded rect/sphere loops over [f32; DIM] arrays

use eff2_descriptor::{Vector, DIM};

/// A minimum bounding rectangle in descriptor space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Rect {
    /// Lower corner.
    pub min: Vector,
    /// Upper corner.
    pub max: Vector,
}

impl Rect {
    /// The "empty" rectangle: any union with it yields the other operand.
    pub fn empty() -> Self {
        Rect {
            min: Vector::splat(f32::INFINITY),
            max: Vector::splat(f32::NEG_INFINITY),
        }
    }

    /// Grows `self` to cover `point`.
    pub(crate) fn expand_point(&mut self, point: &Vector) {
        for d in 0..DIM {
            if point[d] < self.min[d] {
                self.min[d] = point[d];
            }
            if point[d] > self.max[d] {
                self.max[d] = point[d];
            }
        }
    }

    /// Grows `self` to cover `other`.
    pub(crate) fn expand_rect(&mut self, other: &Rect) {
        for d in 0..DIM {
            if other.min[d] < self.min[d] {
                self.min[d] = other.min[d];
            }
            if other.max[d] > self.max[d] {
                self.max[d] = other.max[d];
            }
        }
    }

    /// Whether `point` lies inside (inclusive).
    pub fn contains(&self, point: &Vector) -> bool {
        (0..DIM).all(|d| self.min[d] <= point[d] && point[d] <= self.max[d])
    }

    /// Whether `other` lies entirely inside `self` (inclusive).
    pub(crate) fn contains_rect(&self, other: &Rect) -> bool {
        (0..DIM).all(|d| self.min[d] <= other.min[d] && other.max[d] <= self.max[d])
    }

    /// Sum of edge lengths — the R\*-tree "margin" used as a split goodness
    /// measure (24-dimensional volumes under/overflow `f32`, margins don't).
    /// Accumulated serially in dimension order so the value is bit-identical
    /// everywhere this is computed (it feeds split decisions, hence tree
    /// shape, hence every trace).
    pub(crate) fn margin(&self) -> f32 {
        let mut acc = 0.0f32;
        for d in 0..DIM {
            acc += (self.max[d] - self.min[d]).max(0.0);
        }
        acc
    }

    /// Squared minimum distance from `q` to any point of the rectangle
    /// (zero when `q` is inside).
    #[inline]
    pub(crate) fn min_dist_sq(&self, q: &Vector) -> f32 {
        let mut acc = 0.0f32;
        for d in 0..DIM {
            let x = q[d];
            let lo = self.min[d];
            let hi = self.max[d];
            let delta = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            acc += delta * delta;
        }
        acc
    }

    /// The farthest distance from `center` to any corner of the rectangle —
    /// the SR-tree's rectangle-derived bound on a node's sphere radius.
    pub(crate) fn max_dist_from(&self, center: &Vector) -> f32 {
        let mut acc = 0.0f32;
        for d in 0..DIM {
            let lo = (center[d] - self.min[d]).abs();
            let hi = (center[d] - self.max[d]).abs();
            let m = lo.max(hi);
            acc += m * m;
        }
        acc.sqrt()
    }
}

/// A bounding sphere.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Sphere {
    /// Centre of the sphere.
    pub center: Vector,
    /// Radius of the sphere.
    pub radius: f32,
}

impl Sphere {
    /// The degenerate sphere covering exactly `point`.
    pub fn point(point: &Vector) -> Self {
        Sphere {
            center: *point,
            radius: 0.0,
        }
    }

    /// Whether `point` lies inside (inclusive, with an f32 slack
    /// proportional to the radius).
    pub fn contains(&self, point: &Vector) -> bool {
        self.center.dist(point) <= self.radius * (1.0 + 1e-5) + 1e-5
    }

    /// Squared minimum distance from `q` to the sphere surface/interior
    /// (zero inside).
    #[inline]
    pub(crate) fn min_dist_sq(&self, q: &Vector) -> f32 {
        let d = self.center.dist(q) - self.radius;
        if d <= 0.0 {
            0.0
        } else {
            d * d
        }
    }
}

/// Squared minimum distance from `q` to the *intersection region*
/// `rect ∩ sphere` — the SR-tree node distance bound.
///
/// The true mindist to an intersection is at least the max of the two
/// individual mindists, which is the (safe, and standard) bound the SR-tree
/// uses for pruning.
#[inline]
pub(crate) fn region_min_dist_sq(rect: &Rect, sphere: &Sphere, q: &Vector) -> f32 {
    rect.min_dist_sq(q).max(sphere.min_dist_sq(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32) -> Vector {
        Vector::splat(x)
    }

    #[test]
    fn empty_rect_union_is_identity() {
        let r = Rect {
            min: v(3.0),
            max: v(3.0),
        };
        let mut u = Rect::empty();
        u.expand_rect(&r);
        assert_eq!(u, r);
    }

    #[test]
    fn expand_point_grows_bounds() {
        let mut r = Rect {
            min: v(0.0),
            max: v(0.0),
        };
        r.expand_point(&v(2.0));
        assert_eq!(r.min, v(0.0));
        assert_eq!(r.max, v(2.0));
        assert!(r.contains(&v(1.0)));
        assert!(!r.contains(&v(2.5)));
    }

    #[test]
    fn contains_rect_semantics() {
        let outer = Rect {
            min: v(0.0),
            max: v(10.0),
        };
        let inner = Rect {
            min: v(2.0),
            max: v(8.0),
        };
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
    }

    #[test]
    fn rect_min_dist_zero_inside() {
        let r = Rect {
            min: v(0.0),
            max: v(4.0),
        };
        assert_eq!(r.min_dist_sq(&v(2.0)), 0.0);
    }

    #[test]
    fn rect_min_dist_outside() {
        let r = Rect {
            min: v(0.0),
            max: v(1.0),
        };
        // Query at splat(2): each dim contributes (2-1)^2 = 1 → 24.
        assert_eq!(r.min_dist_sq(&v(2.0)), DIM as f32);
    }

    #[test]
    fn rect_center_and_margin() {
        let r = Rect {
            min: v(0.0),
            max: v(2.0),
        };
        assert_eq!(r.margin(), 2.0 * DIM as f32);
    }

    #[test]
    fn rect_max_dist_reaches_far_corner() {
        let r = Rect {
            min: v(0.0),
            max: v(2.0),
        };
        // From the min corner, the far corner is at distance sqrt(24*4).
        let d = r.max_dist_from(&v(0.0));
        assert!((d - (DIM as f32 * 4.0).sqrt()).abs() < 1e-4);
    }

    #[test]
    fn sphere_contains_and_min_dist() {
        let s = Sphere {
            center: v(0.0),
            radius: 2.0,
        };
        assert!(s.contains(&v(0.0)));
        assert_eq!(s.min_dist_sq(&v(0.0)), 0.0);
        // splat(1.0) is at distance sqrt(24) ≈ 4.9 > 2 → outside.
        let q = v(1.0);
        assert!(!s.contains(&q));
        let expect = (DIM as f32).sqrt() - 2.0;
        assert!((s.min_dist_sq(&q) - expect * expect).abs() < 1e-4);
    }

    #[test]
    fn region_min_dist_takes_max() {
        // Tight rect, loose sphere: the rect bound dominates.
        let rect = Rect {
            min: v(0.0),
            max: v(1.0),
        };
        let sphere = Sphere {
            center: v(0.5),
            radius: 100.0,
        };
        let q = v(3.0);
        assert_eq!(region_min_dist_sq(&rect, &sphere, &q), rect.min_dist_sq(&q));

        // Loose rect, tight sphere: the sphere bound dominates.
        let rect2 = Rect {
            min: v(-100.0),
            max: v(100.0),
        };
        let sphere2 = Sphere {
            center: v(0.0),
            radius: 0.5,
        };
        assert_eq!(
            region_min_dist_sq(&rect2, &sphere2, &q),
            sphere2.min_dist_sq(&q)
        );
    }
}
