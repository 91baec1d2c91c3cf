//! Per-dimension statistics over a descriptor collection.
//!
//! The paper's "space query" (SQ) workload is generated by analysing "the
//! range of values in the descriptor collection" per dimension, "discarding
//! the top and bottom 5 %", and drawing uniformly from the remaining range
//! (§5.3). [`TrimmedRanges`] computes exactly that. [`DimensionStats`]
//! additionally exposes means and variances, which the SR-tree's static
//! build uses to pick split dimensions.

#![expect(
    clippy::indexing_slicing,
    reason = "histogram buckets are clamped into their fixed range before indexing"
)]

use crate::descriptor::DescriptorSet;
use crate::vector::DIM;

/// Mean, variance and extrema of every dimension of a collection.
#[derive(Clone, Debug)]
pub struct DimensionStats {
    /// Per-dimension mean.
    pub mean: [f32; DIM],
    /// Per-dimension population variance.
    pub variance: [f32; DIM],
    /// Per-dimension minimum.
    pub min: [f32; DIM],
    /// Per-dimension maximum.
    pub max: [f32; DIM],
    /// Number of descriptors analysed.
    pub count: usize,
}

impl DimensionStats {
    /// Computes statistics over `set`.
    ///
    /// Returns an all-zero statistics block for an empty set.
    pub fn compute(set: &DescriptorSet) -> Self {
        let n = set.len();
        if n == 0 {
            return DimensionStats {
                mean: [0.0; DIM],
                variance: [0.0; DIM],
                min: [0.0; DIM],
                max: [0.0; DIM],
                count: 0,
            };
        }
        let mut sum = [0.0f64; DIM];
        let mut sum_sq = [0.0f64; DIM];
        let mut min = [f32::INFINITY; DIM];
        let mut max = [f32::NEG_INFINITY; DIM];
        for row in crate::kernels::as_rows(set.packed()) {
            for d in 0..DIM {
                let x = row[d];
                sum[d] += f64::from(x);
                sum_sq[d] += f64::from(x) * f64::from(x);
                if x < min[d] {
                    min[d] = x;
                }
                if x > max[d] {
                    max[d] = x;
                }
            }
        }
        let inv = 1.0 / n as f64;
        let mut mean = [0.0f32; DIM];
        let mut variance = [0.0f32; DIM];
        for d in 0..DIM {
            let m = sum[d] * inv;
            mean[d] = m as f32;
            variance[d] = ((sum_sq[d] * inv - m * m).max(0.0)) as f32;
        }
        DimensionStats {
            mean,
            variance,
            min,
            max,
            count: n,
        }
    }
}

/// Per-dimension value ranges with a fraction trimmed from each tail.
///
/// This is the §5.3 preprocessing step for the SQ workload: with
/// `trim = 0.05`, the lowest and highest 5 % of the values *in each
/// dimension independently* are discarded and `[low, high]` brackets what
/// remains.
#[derive(Clone, Debug)]
pub struct TrimmedRanges {
    /// Lower bound of the retained range, per dimension.
    pub low: [f32; DIM],
    /// Upper bound of the retained range, per dimension.
    pub high: [f32; DIM],
    /// The tail fraction that was trimmed from each end.
    pub trim: f32,
}

impl TrimmedRanges {
    /// Computes trimmed ranges over `set`, discarding the `trim` fraction
    /// (e.g. `0.05`) from both tails of every dimension.
    ///
    /// # Panics
    ///
    /// Panics if `trim` is not within `[0, 0.5)` or if `set` is empty —
    /// workload generation over an empty collection is a caller bug.
    pub fn compute(set: &DescriptorSet, trim: f32) -> Self {
        assert!(
            (0.0..0.5).contains(&trim),
            "trim fraction must be in [0, 0.5)"
        );
        assert!(
            !set.is_empty(),
            "cannot derive query ranges from an empty collection"
        );
        let n = set.len();
        // Index of the first retained value and one past the last, after
        // sorting a dimension's values ascending.
        let lo_idx = ((n as f64) * f64::from(trim)).floor() as usize;
        let hi_idx = (n - 1).min(n - 1 - lo_idx);

        let mut low = [0.0f32; DIM];
        let mut high = [0.0f32; DIM];
        let mut column = vec![0.0f32; n];
        let packed = set.packed();
        for d in 0..DIM {
            for (i, slot) in column.iter_mut().enumerate() {
                *slot = packed[i * DIM + d];
            }
            column.sort_by(f32::total_cmp);
            low[d] = column[lo_idx];
            high[d] = column[hi_idx];
        }
        TrimmedRanges { low, high, trim }
    }

    /// The width of the retained range in dimension `d`.
    pub fn width(&self, d: usize) -> f32 {
        self.high[d] - self.low[d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;
    use crate::vector::Vector;

    fn line_set(n: usize) -> DescriptorSet {
        // Descriptor i = splat(i): every dimension ranges over 0..n-1.
        (0..n)
            .map(|i| Descriptor::new(i as u32, Vector::splat(i as f32)))
            .collect()
    }

    #[test]
    fn stats_of_empty_set() {
        let s = DimensionStats::compute(&DescriptorSet::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, [0.0; DIM]);
    }

    #[test]
    fn stats_mean_and_extrema() {
        let s = DimensionStats::compute(&line_set(5)); // values 0..4
        for d in 0..DIM {
            assert!((s.mean[d] - 2.0).abs() < 1e-6);
            assert_eq!(s.min[d], 0.0);
            assert_eq!(s.max[d], 4.0);
        }
        assert_eq!(s.count, 5);
    }

    #[test]
    fn stats_variance() {
        let s = DimensionStats::compute(&line_set(5));
        // Population variance of {0,1,2,3,4} is 2.
        for d in 0..DIM {
            assert!((s.variance[d] - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn trimmed_ranges_discard_tails() {
        // 100 values 0..99; 5% trim drops indices [0,5) and keeps through 94.
        let r = TrimmedRanges::compute(&line_set(100), 0.05);
        for d in 0..DIM {
            assert_eq!(r.low[d], 5.0);
            assert_eq!(r.high[d], 94.0);
            assert_eq!(r.width(d), 89.0);
        }
    }

    #[test]
    fn zero_trim_keeps_full_range() {
        let r = TrimmedRanges::compute(&line_set(10), 0.0);
        for d in 0..DIM {
            assert_eq!(r.low[d], 0.0);
            assert_eq!(r.high[d], 9.0);
        }
    }

    #[test]
    fn single_point_ranges_collapse() {
        let r = TrimmedRanges::compute(&line_set(1), 0.05);
        assert_eq!(r.low[0], 0.0);
        assert_eq!(r.high[0], 0.0);
        assert_eq!(r.width(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn trimmed_ranges_reject_empty() {
        TrimmedRanges::compute(&DescriptorSet::new(), 0.05);
    }

    #[test]
    #[should_panic(expected = "trim fraction")]
    fn trimmed_ranges_reject_bad_trim() {
        TrimmedRanges::compute(&line_set(3), 0.5);
    }

    #[test]
    fn trim_is_per_dimension() {
        // Dimension 0 spread widely, dimension 1 constant.
        let mut set = DescriptorSet::new();
        for i in 0..20u32 {
            let mut v = Vector::ZERO;
            v[0] = i as f32;
            v[1] = 42.0;
            set.push(Descriptor::new(i, v));
        }
        let r = TrimmedRanges::compute(&set, 0.05);
        assert_eq!(r.low[0], 1.0);
        assert_eq!(r.high[0], 18.0);
        assert_eq!(r.low[1], 42.0);
        assert_eq!(r.high[1], 42.0);
    }
}
