//! Order statistics for the benchmark: medians, the tail percentile a
//! sample count can support, inter-quartile spread, span self time, and
//! the median-of-repetitions timer the layer probes use.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice; 0 for
/// an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the percentiles 99.9 / 99 / 95 / 90 / 75 that leaves at
/// least ten samples beyond it — a tail figure resting on fewer samples is
/// one outlier, not a percentile. Falls back to the median.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Per-mille and integer arithmetic: 10 000 × (1 − 0.999) is not 10 in
    // floating point.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n - (n * pm).div_ceil(1000) >= 10)
        .map_or(50.0, |pm| pm as f64 / 10.0)
}

/// First and third quartile of `values`, by the same exclusive method as
/// Python's `statistics.quantiles(values, n=4)` (the acceptance check's
/// definition). Needs at least two values; otherwise both are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let m = median(values);
        return (m, m);
    }
    let at = |q: usize| {
        // Position q·(n+1)/4, 1-based, linearly interpolated and clamped.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile range of `values` as a share of their median (0 when
/// the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Repetitions a probe takes its median over.
const PROBE_REPS: usize = 7;

/// Median wall seconds of [`PROBE_REPS`] runs of `f`, after one warm-up run
/// — how the layer probes time a call that is too short to time once.
pub fn median_secs(mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Self time of a span: its duration minus the part of `[start, end)` its
/// child intervals cover. Children may overlap each other and may stick
/// out of the parent; covered time is counted once and clipped.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(cs, ce) in children.iter() {
        let cs = cs.max(cursor);
        let ce = ce.min(end);
        if ce > cs {
            covered += ce - cs;
            cursor = ce;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 95.0), 95.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 95.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(39), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([2, 4, 4, 9], n=4) == [2.5, 4.0, 7.75]
        assert_eq!(quartiles(&[9.0, 4.0, 2.0, 4.0]), (2.5, 7.75));
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // Disjoint children.
        assert_eq!(self_time(0, 100, &mut [(10, 20), (50, 70)]), 70);
        // Overlapping children count their union, in any order.
        assert_eq!(self_time(0, 100, &mut [(30, 60), (10, 40)]), 50);
        // A nested child adds nothing beyond its sibling.
        assert_eq!(self_time(0, 100, &mut [(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time(50, 100, &mut [(0, 60), (90, 200)]), 30);
        assert_eq!(self_time(0, 100, &mut []), 100);
    }
}
