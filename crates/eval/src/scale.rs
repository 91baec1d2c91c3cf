//! Scaling the paper's experimental setup to a configurable collection
//! size.
//!
//! The paper's regime (5,017,298 descriptors): BAG produced 4,720 / 2,685 /
//! 1,871 clusters averaging 947 / 1,711 / 2,486 descriptors for its SMALL /
//! MEDIUM / LARGE indexes. Scaling the collection down by a factor `s`
//! divides chunk *size* and chunk *count* by √s each, keeping both in a
//! regime where (a) a chunk holds far more than k = 30 descriptors and
//! (b) there are enough chunks for ranking to matter.

/// The paper's collection size.
pub(crate) const PAPER_N: usize = 5_017_298;
/// The paper's mean BAG chunk sizes for SMALL / MEDIUM / LARGE (Table 1).
pub(crate) const PAPER_CHUNK_SIZES: [f64; 3] = [947.0, 1_711.0, 2_486.0];
/// The paper's k (precision within the top 30).
pub(crate) const PAPER_K: usize = 30;
/// The paper's Figure 6/7 chunk-size sweep bounds.
pub(crate) const PAPER_SWEEP: (f64, f64) = (100.0, 100_000.0);
/// Disk page size chunks are padded to.
pub(crate) const PAGE_SIZE: u32 = 8_192;

/// Experiment scale parameters.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Target collection size.
    pub n_descriptors: usize,
    /// Queries per workload (the paper uses 1,000).
    pub n_queries: usize,
    /// Result size (the paper uses 30).
    pub k: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// A scale targeting roughly `n` descriptors with paper-default query
    /// count and k.
    pub fn new(n: usize) -> Self {
        Scale {
            n_descriptors: n,
            n_queries: 1_000,
            k: PAPER_K,
            seed: 42,
        }
    }

    /// The linear shrink factor relative to the paper.
    pub(crate) fn shrink(&self) -> f64 {
        self.n_descriptors as f64 / PAPER_N as f64
    }

    /// Target mean chunk sizes for the SMALL / MEDIUM / LARGE indexes:
    /// the paper's sizes scaled by √shrink, floored at 4·k so a single
    /// chunk still dwarfs the answer set. When the floor binds, the paper's
    /// 1 : 1.81 : 2.63 size ratios are re-applied on top of it so the three
    /// classes stay distinct at any scale.
    pub(crate) fn chunk_sizes(&self) -> [usize; 3] {
        let f = self.shrink().sqrt();
        let base = ((PAPER_CHUNK_SIZES[0] * f) as usize).max(4 * self.k) as f64;
        [
            base as usize,
            (base * PAPER_CHUNK_SIZES[1] / PAPER_CHUNK_SIZES[0]).round() as usize,
            (base * PAPER_CHUNK_SIZES[2] / PAPER_CHUNK_SIZES[0]).round() as usize,
        ]
    }

    /// BAG termination targets (cluster counts) that should realise
    /// [`Scale::chunk_sizes`] assuming ≈10 % outliers.
    pub(crate) fn bag_targets(&self) -> [usize; 3] {
        let retained = self.n_descriptors as f64 * 0.9;
        self.chunk_sizes()
            .map(|size| ((retained / size as f64) as usize).max(2))
    }

    /// The 16 log-spaced chunk sizes of the Figure 6/7 sweep, scaled by
    /// √shrink (paper: 100 … 100,000).
    pub fn sweep_sizes(&self) -> Vec<usize> {
        let f = self.shrink().sqrt();
        let lo = (PAPER_SWEEP.0 * f).max(2.0 * self.k as f64);
        let hi = ((PAPER_SWEEP.1 * f).min(self.n_descriptors as f64 / 2.0)).max(lo * 2.0);
        let steps = 16;
        (0..steps)
            .map(|i| {
                let t = i as f64 / (steps - 1) as f64;
                (lo * (hi / lo).powf(t)).round() as usize
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_reproduces_paper_numbers() {
        let s = Scale::new(PAPER_N);
        assert!((s.shrink() - 1.0).abs() < 1e-9);
        let sizes = s.chunk_sizes();
        assert_eq!(sizes, [947, 1_711, 2_486]);
        let targets = s.bag_targets();
        // ≈ 4768 / 2639 / 1816 — the paper's 4720 / 2685 / 1871 regime.
        assert!((4_200..5_200).contains(&targets[0]), "{targets:?}");
        assert!((2_300..3_000).contains(&targets[1]), "{targets:?}");
        assert!((1_600..2_100).contains(&targets[2]), "{targets:?}");
    }

    #[test]
    fn default_scale_is_sane() {
        let s = Scale::new(200_000);
        let sizes = s.chunk_sizes();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
        assert!(sizes[0] >= 4 * s.k);
        let targets = s.bag_targets();
        assert!(targets[0] > targets[1] && targets[1] > targets[2]);
        assert!(targets[2] >= 2);
    }

    #[test]
    fn sweep_is_log_spaced_and_monotone() {
        let s = Scale::new(200_000);
        let sweep = s.sweep_sizes();
        assert_eq!(sweep.len(), 16);
        assert!(sweep.windows(2).all(|w| w[1] > w[0]), "{sweep:?}");
        assert!(sweep[0] >= 2 * s.k);
        assert!(*sweep.last().unwrap() <= s.n_descriptors / 2 + 1);
        // Roughly geometric: ratios between consecutive sizes similar.
        let r0 = sweep[1] as f64 / sweep[0] as f64;
        let r1 = sweep[15] as f64 / sweep[14] as f64;
        assert!((r0 / r1 - 1.0).abs() < 0.3, "r0={r0} r1={r1}");
    }

    #[test]
    fn tiny_scale_stays_usable() {
        let s = Scale::new(5_000);
        let sizes = s.chunk_sizes();
        assert!(sizes.iter().all(|&x| x >= 4 * s.k));
        let sweep = s.sweep_sizes();
        assert!(sweep.windows(2).all(|w| w[1] > w[0]), "{sweep:?}");
    }
}
