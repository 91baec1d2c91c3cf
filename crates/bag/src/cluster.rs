//! Cluster state and merge arithmetic.
//!
//! A BAG cluster tracks its members, an exactly-maintained centroid (via an
//! `f64` component sum), its **minimum bounding radius** (`tight_radius`)
//! and its **maintained radius** (`radius`). The two radii differ because
//! the paper's rule 3 inflates the radius of non-merging clusters by MPI
//! each pass, "making their radius non-minimal"; merge decisions compare
//! against the maintained radius, while the merged cluster's new radius is
//! recomputed exactly.

#![expect(
    clippy::indexing_slicing,
    reason = "member lists and DIM-bounded component loops stay inside lengths computed in this module"
)]

use eff2_descriptor::kernels::{as_rows, max_dist_sq_gather};
use eff2_descriptor::{DescriptorSet, Vector, DIM};

/// One BAG cluster.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Member positions in the backing collection.
    pub members: Vec<u32>,
    /// Component sum of the members (exact centroid bookkeeping).
    sum: [f64; DIM],
    /// The current centroid (sum / |members|).
    pub centroid: Vector,
    /// Minimum bounding radius: max distance from centroid to any member.
    pub tight_radius: f32,
    /// Maintained radius: starts equal to `tight_radius` after a merge and
    /// grows by MPI on passes where the cluster does not merge.
    pub radius: f32,
}

impl Cluster {
    /// A singleton cluster of radius zero.
    pub(crate) fn singleton(pos: u32, set: &DescriptorSet) -> Cluster {
        let v = set.vector_owned(pos as usize);
        let mut sum = [0.0f64; DIM];
        for (s, &x) in sum.iter_mut().zip(v.as_slice()) {
            *s = f64::from(x);
        }
        Cluster {
            members: vec![pos],
            sum,
            centroid: v,
            tight_radius: 0.0,
            radius: 0.0,
        }
    }

    /// Number of member descriptors.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The centroid the union of `a` and `b` would have (exact).
    pub(crate) fn merged_centroid(a: &Cluster, b: &Cluster) -> Vector {
        let n = (a.len() + b.len()) as f64;
        let mut c = Vector::ZERO;
        for d in 0..DIM {
            c[d] = ((a.sum[d] + b.sum[d]) / n) as f32;
        }
        c
    }

    /// Cheap *upper* bound on the merged minimum bounding radius: every
    /// member of `x` lies within `tight_radius` of `x.centroid`, so it lies
    /// within `d(c_new, c_x) + x.tight_radius` of the new centroid.
    pub(crate) fn merged_radius_upper(a: &Cluster, b: &Cluster, c_new: &Vector) -> f32 {
        let ra = c_new.dist(&a.centroid) + a.tight_radius;
        let rb = c_new.dist(&b.centroid) + b.tight_radius;
        ra.max(rb)
    }

    /// Cheap *lower* bound on the merged minimum bounding radius.
    ///
    /// The merged radius cannot shrink below either tight radius minus the
    /// centroid shift (triangle inequality), and the farther original
    /// centroid keeps at least its own displacement as a floor because some
    /// member sits on the far side of it in expectation of the bound
    /// `max_m d(c_new, m) ≥ d(c_new, c_x)` (the centroid of x is a convex
    /// combination of x's members, so the farthest member is at least as
    /// far from `c_new` as `c_x` is).
    pub(crate) fn merged_radius_lower(a: &Cluster, b: &Cluster, c_new: &Vector) -> f32 {
        let da = c_new.dist(&a.centroid);
        let db = c_new.dist(&b.centroid);
        (a.tight_radius - da)
            .max(b.tight_radius - db)
            .max(da)
            .max(db)
            .max(0.0)
    }

    /// Exact merged minimum bounding radius — O(|a| + |b|) member scan,
    /// blocked gather over the collection's packed storage.
    pub(crate) fn merged_radius_exact(
        a: &Cluster,
        b: &Cluster,
        c_new: &Vector,
        set: &DescriptorSet,
    ) -> f32 {
        let rows = as_rows(set.packed());
        let q = c_new.as_array();
        max_dist_sq_gather(q, rows, &a.members)
            .max(max_dist_sq_gather(q, rows, &b.members))
            .sqrt()
    }

    /// Merges `b` into `a`, consuming both, with the exact new centroid and
    /// minimum bounding radius. The maintained radius resets to the tight
    /// radius (the merged radius is minimal by construction).
    pub fn merge(mut a: Cluster, mut b: Cluster, set: &DescriptorSet) -> Cluster {
        let c_new = Cluster::merged_centroid(&a, &b);
        let tight = Cluster::merged_radius_exact(&a, &b, &c_new, set);
        for d in 0..DIM {
            a.sum[d] += b.sum[d];
        }
        a.members.append(&mut b.members);
        a.centroid = c_new;
        a.tight_radius = tight;
        a.radius = tight;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::Descriptor;

    fn set_of(points: &[f32]) -> DescriptorSet {
        points
            .iter()
            .enumerate()
            .map(|(i, &x)| Descriptor::new(i as u32, Vector::splat(x)))
            .collect()
    }

    #[test]
    fn singleton_has_zero_radius() {
        let set = set_of(&[1.0, 2.0]);
        let c = Cluster::singleton(1, &set);
        assert_eq!(c.len(), 1);
        assert_eq!(c.tight_radius, 0.0);
        assert_eq!(c.radius, 0.0);
        assert_eq!(c.centroid, Vector::splat(2.0));
    }

    #[test]
    fn merge_of_two_singletons() {
        let set = set_of(&[0.0, 2.0]);
        let a = Cluster::singleton(0, &set);
        let b = Cluster::singleton(1, &set);
        let m = Cluster::merge(a, b, &set);
        assert_eq!(m.len(), 2);
        assert_eq!(m.centroid, Vector::splat(1.0));
        // Each point is at distance sqrt(24) from the midpoint.
        let expect = (DIM as f32).sqrt();
        assert!((m.tight_radius - expect).abs() < 1e-5);
        assert_eq!(m.radius, m.tight_radius);
    }

    #[test]
    fn merged_centroid_is_weighted() {
        let set = set_of(&[0.0, 0.0, 0.0, 4.0]);
        let mut a = Cluster::singleton(0, &set);
        a = Cluster::merge(a, Cluster::singleton(1, &set), &set);
        a = Cluster::merge(a, Cluster::singleton(2, &set), &set);
        let b = Cluster::singleton(3, &set);
        let c = Cluster::merged_centroid(&a, &b);
        assert_eq!(c, Vector::splat(1.0)); // (3·0 + 1·4)/4
    }

    #[test]
    fn bounds_bracket_exact_radius() {
        let set = set_of(&[0.0, 1.0, 5.0, 9.0, 10.0]);
        let mut a = Cluster::singleton(0, &set);
        a = Cluster::merge(a, Cluster::singleton(1, &set), &set);
        let mut b = Cluster::singleton(3, &set);
        b = Cluster::merge(b, Cluster::singleton(4, &set), &set);
        let c_new = Cluster::merged_centroid(&a, &b);
        let lower = Cluster::merged_radius_lower(&a, &b, &c_new);
        let exact = Cluster::merged_radius_exact(&a, &b, &c_new, &set);
        let upper = Cluster::merged_radius_upper(&a, &b, &c_new);
        assert!(lower <= exact + 1e-4, "lower {lower} > exact {exact}");
        assert!(exact <= upper + 1e-4, "exact {exact} > upper {upper}");
    }

    #[test]
    fn merge_preserves_membership() {
        let set = set_of(&[0.0, 1.0, 2.0]);
        let a = Cluster::singleton(0, &set);
        let b = Cluster::singleton(2, &set);
        let m = Cluster::merge(a, b, &set);
        let mut members = m.members.clone();
        members.sort_unstable();
        assert_eq!(members, vec![0, 2]);
    }

    #[test]
    fn recompute_matches_incremental() {
        let set = set_of(&[0.0, 3.0, 7.0]);
        let mut m = Cluster::singleton(0, &set);
        m = Cluster::merge(m, Cluster::singleton(1, &set), &set);
        m = Cluster::merge(m, Cluster::singleton(2, &set), &set);
        let from_scratch =
            max_dist_sq_gather(m.centroid.as_array(), as_rows(set.packed()), &m.members).sqrt();
        assert!((m.tight_radius - from_scratch).abs() < 1e-5);
    }

    #[test]
    fn radius_covers_all_members_after_chain_of_merges() {
        let set = set_of(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut m = Cluster::singleton(0, &set);
        for i in 1..7 {
            m = Cluster::merge(m, Cluster::singleton(i, &set), &set);
        }
        for &p in &m.members {
            let d = m.centroid.dist(&set.vector_owned(p as usize));
            assert!(d <= m.tight_radius * (1.0 + 1e-5) + 1e-5);
        }
    }
}
