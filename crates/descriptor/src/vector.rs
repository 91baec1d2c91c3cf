//! The fixed 24-dimensional vector type and its Euclidean distance kernels.
//!
//! All of the paper's machinery — the SR-tree, the BAG clustering algorithm,
//! the chunk ranking and the in-chunk scans — boils down to squared-Euclidean
//! distance evaluations over 24-dimensional `f32` points, so these kernels
//! are the hottest code in the workspace. They operate on fixed-size arrays
//! (`[f32; 24]`) so the compiler can fully unroll and vectorise them, and
//! they stay in the *squared* domain; callers take the square root only at
//! API boundaries where a true metric is required.

#![expect(
    clippy::indexing_slicing,
    reason = "DIM-bounded component arithmetic over [f32; DIM] arrays"
)]

/// Dimensionality of the local image descriptors used throughout the paper.
pub const DIM: usize = 24;

/// A point in the 24-dimensional descriptor space.
///
/// `Vector` is a thin wrapper over `[f32; 24]` that carries the arithmetic
/// needed by the index structures: component-wise accumulation for centroid
/// maintenance, scaling, and distance kernels.
#[derive(Clone, Copy, PartialEq)]
pub struct Vector(pub [f32; DIM]);

impl std::fmt::Debug for Vector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print only the first few components; full 24-component dumps drown
        // test failure output.
        write!(
            f,
            "Vector[{:.3}, {:.3}, {:.3}, …; dim={}]",
            self.0[0], self.0[1], self.0[2], DIM
        )
    }
}

impl Default for Vector {
    fn default() -> Self {
        Vector([0.0; DIM])
    }
}

impl Vector {
    /// The origin.
    pub const ZERO: Vector = Vector([0.0; DIM]);

    /// Builds a vector whose components are all `value`.
    pub fn splat(value: f32) -> Self {
        Vector([value; DIM])
    }

    /// Borrows the raw components.
    #[inline]
    pub fn as_array(&self) -> &[f32; DIM] {
        &self.0
    }

    /// Borrows the raw components as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Builds a vector from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `slice.len() != DIM`; this is an internal invariant
    /// violation everywhere it is used.
    #[inline]
    pub fn from_slice(slice: &[f32]) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented panic contract; every call site passes a DIM-length slice"
        )]
        let arr: [f32; DIM] = slice
            .try_into()
            .expect("descriptor slice must have 24 dims");
        Vector(arr)
    }

    /// Component-wise addition into `self` (centroid accumulation).
    #[inline]
    pub fn add_assign(&mut self, other: &Vector) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += *b;
        }
    }

    /// Component-wise subtraction, returning a new vector.
    #[inline]
    pub fn sub(&self, other: &Vector) -> Vector {
        let mut out = [0.0f32; DIM];
        for ((o, a), b) in out.iter_mut().zip(self.0.iter()).zip(other.0.iter()) {
            *o = a - b;
        }
        Vector(out)
    }

    /// Scales every component by `k`, returning a new vector.
    #[inline]
    pub fn scale(&self, k: f32) -> Vector {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o *= k;
        }
        Vector(out)
    }

    /// Squared Euclidean norm. Serial accumulation in component order —
    /// the same fixed order every run, like the kernels.
    #[inline]
    pub fn norm_sq(&self) -> f32 {
        let mut acc = 0.0f32;
        for x in &self.0 {
            acc += x * x;
        }
        acc
    }

    /// Euclidean norm (the "total length" the paper's alternative outlier
    /// filter thresholds on).
    #[inline]
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist_sq(&self, other: &Vector) -> f32 {
        l2_sq(&self.0, &other.0)
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Vector) -> f32 {
        self.dist_sq(other).sqrt()
    }

    /// The component-wise mean of `vectors`.
    ///
    /// Accumulates in `f64` so that centroids of very large clusters (the
    /// paper's biggest BAG cluster holds over a million descriptors) do not
    /// drift from `f32` rounding.
    ///
    /// Returns [`Vector::ZERO`] for an empty input.
    pub fn mean<'a, I>(vectors: I) -> Vector
    where
        I: IntoIterator<Item = &'a Vector>,
    {
        let mut acc = [0.0f64; DIM];
        let mut n = 0usize;
        for v in vectors {
            for (a, x) in acc.iter_mut().zip(v.0.iter()) {
                *a += f64::from(*x);
            }
            n += 1;
        }
        if n == 0 {
            return Vector::ZERO;
        }
        let inv = 1.0 / n as f64;
        let mut out = [0.0f32; DIM];
        for (o, a) in out.iter_mut().zip(acc.iter()) {
            *o = (a * inv) as f32;
        }
        Vector(out)
    }
}

impl From<[f32; DIM]> for Vector {
    fn from(arr: [f32; DIM]) -> Self {
        Vector(arr)
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f32;
    #[inline]
    fn index(&self, i: usize) -> &f32 {
        &self.0[i]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.0[i]
    }
}

/// Accumulator lanes of the canonical distance kernel. [`DIM`] (24) is an
/// exact multiple, so the lane loop has no remainder and LLVM maps the
/// accumulator array straight onto one 8-wide SIMD register.
pub(crate) const LANES: usize = 8;
const _: () = assert!(DIM.is_multiple_of(LANES), "DIM must be a multiple of LANES");

/// Squared Euclidean distance between two 24-dimensional points.
///
/// This is *the* hot kernel: every chunk scan evaluates it once per stored
/// descriptor. It accumulates into `LANES` independent partial sums
/// (component `i` goes to lane `i % LANES`) and combines them in the fixed
/// pairwise order of `sum_lanes`. The lane split is what lets the
/// autovectorizer emit wide SIMD — a single running sum is a serial
/// dependency chain LLVM must not reassociate (see [`l2_sq_serial`]). The
/// lane order is part of the kernel's defined semantics: every distance
/// path (single-row, blocked, fused, gathered) accumulates in this exact
/// order, so equal inputs give bit-identical distances everywhere.
#[inline]
pub fn l2_sq(a: &[f32; DIM], b: &[f32; DIM]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut i = 0;
    while i < DIM {
        for (l, s) in acc.iter_mut().enumerate() {
            let d = a[i + l] - b[i + l];
            *s += d * d;
        }
        i += LANES;
    }
    sum_lanes(&acc)
}

/// Fixed pairwise combine of the lane accumulators.
///
/// Crate-visible so the ADC kernels in [`crate::kernels`] combine their
/// lanes in exactly the same order as [`l2_sq`].
#[inline]
pub(crate) fn sum_lanes(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// The one-accumulator kernel the lane kernel replaced, kept as the
/// reference baseline for the kernel microbench and the property tests.
/// Equal to [`l2_sq`] up to f32 rounding (the lane kernel reassociates
/// the sum); not used on any hot path.
#[inline]
pub fn l2_sq_serial(a: &[f32; DIM], b: &[f32; DIM]) -> f32 {
    let mut acc = 0.0f32;
    for i in 0..DIM {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(fill: impl Fn(usize) -> f32) -> Vector {
        let mut arr = [0.0f32; DIM];
        for (i, a) in arr.iter_mut().enumerate() {
            *a = fill(i);
        }
        Vector(arr)
    }

    #[test]
    fn zero_distance_to_self() {
        let a = v(|i| i as f32 * 0.5);
        assert_eq!(a.dist_sq(&a), 0.0);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn unit_axis_distance() {
        let a = Vector::ZERO;
        let mut b = Vector::ZERO;
        b[3] = 1.0;
        assert_eq!(a.dist_sq(&b), 1.0);
        assert_eq!(a.dist(&b), 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = v(|i| (i as f32).sin());
        let b = v(|i| (i as f32).cos());
        assert_eq!(a.dist_sq(&b), b.dist_sq(&a));
    }

    #[test]
    fn known_distance() {
        // 24 components each differing by 2 → squared distance 24 * 4 = 96.
        let a = Vector::splat(1.0);
        let b = Vector::splat(3.0);
        assert_eq!(a.dist_sq(&b), 96.0);
        assert!((a.dist(&b) - 96.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn mean_of_two_points_is_midpoint() {
        let a = Vector::splat(0.0);
        let b = Vector::splat(2.0);
        let m = Vector::mean([&a, &b]);
        assert_eq!(m, Vector::splat(1.0));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Vector::mean(std::iter::empty()), Vector::ZERO);
    }

    #[test]
    fn mean_is_stable_for_many_points() {
        // 100k copies of the same point must average back to exactly that
        // point (f64 accumulation).
        let p = v(|i| 1.0 + i as f32 * 0.125);
        let points: Vec<Vector> = vec![p; 100_000];
        let m = Vector::mean(points.iter());
        for i in 0..DIM {
            assert!((m[i] - p[i]).abs() < 1e-5, "dim {i}: {} vs {}", m[i], p[i]);
        }
    }

    #[test]
    fn batch_matches_scalar_kernel() {
        let q = v(|i| i as f32 * 0.1);
        let rows: Vec<Vector> = (0..17).map(|r| v(|i| (r * 31 + i) as f32 * 0.01)).collect();
        let mut packed = Vec::new();
        for r in &rows {
            packed.extend_from_slice(r.as_slice());
        }
        let mut out = Vec::new();
        crate::kernels::l2_sq_batch(q.as_array(), &packed, &mut out);
        assert_eq!(out.len(), rows.len());
        for (r, o) in rows.iter().zip(out.iter()) {
            assert_eq!(*o, q.dist_sq(r));
        }
    }

    #[test]
    #[should_panic(expected = "multiple of DIM")]
    fn batch_rejects_ragged_input() {
        let q = [0.0f32; DIM];
        let packed = vec![0.0f32; DIM + 1];
        crate::kernels::l2_sq_batch(&q, &packed, &mut Vec::new());
    }

    #[test]
    fn sub_and_scale() {
        let a = Vector::splat(4.0);
        let b = Vector::splat(1.0);
        assert_eq!(a.sub(&b), Vector::splat(3.0));
        assert_eq!(a.scale(0.25), Vector::splat(1.0));
    }

    #[test]
    fn norm_of_axis_vectors() {
        let mut a = Vector::ZERO;
        a[0] = 3.0;
        a[1] = 4.0;
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut acc = Vector::ZERO;
        acc.add_assign(&Vector::splat(1.5));
        acc.add_assign(&Vector::splat(0.5));
        assert_eq!(acc, Vector::splat(2.0));
    }

    #[test]
    fn from_slice_roundtrip() {
        let a = v(|i| i as f32);
        let b = Vector::from_slice(a.as_slice());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "24 dims")]
    fn from_slice_rejects_wrong_len() {
        Vector::from_slice(&[1.0, 2.0]);
    }
}
