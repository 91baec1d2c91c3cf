//! Seeded, deterministic query-arrival traces for the serving layer.
//!
//! The paper's experiments replay a fixed query set; the serving
//! scheduler additionally needs *when* each query arrives. Two standard
//! shapes cover the interesting regimes:
//!
//! * [`poisson_arrivals`] — independent arrivals at a constant average
//!   rate (exponential inter-arrival gaps), the classic open-loop load
//!   model;
//! * [`burst_arrivals`] — queries land in simultaneous groups separated by
//!   idle gaps, the adversarial case for chunk sharing: everyone wants the
//!   same hot chunks at the same instant.
//!
//! Both are pure functions of their seed: the same call yields the same
//! trace on every machine, keeping scheduler runs replayable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, non-decreasing list of arrival offsets in virtual seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalTrace {
    /// Trace name ("poisson", "burst", …).
    pub name: String,
    /// Arrival times measured from the start of the run, non-decreasing.
    pub arrivals: Vec<f64>,
}

impl ArrivalTrace {
    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// `n` Poisson arrivals at an average of `rate_qps` queries per second:
/// inter-arrival gaps are exponentially distributed with mean
/// `1 / rate_qps`. Deterministic per seed.
///
/// # Panics
///
/// Panics if `rate_qps` is not finite and positive.
pub fn poisson_arrivals(n: usize, rate_qps: f64, seed: u64) -> ArrivalTrace {
    assert!(
        rate_qps.is_finite() && rate_qps > 0.0,
        "arrival rate must be finite and positive, got {rate_qps}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let arrivals = (0..n)
        .map(|_| {
            // Inverse-CDF sampling; u is in [0, 1) so 1 - u is in (0, 1]
            // and the log is finite.
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_qps;
            t
        })
        .collect();
    ArrivalTrace {
        name: "poisson".into(),
        arrivals,
    }
}

/// `n` arrivals in bursts of `burst` simultaneous queries, bursts spaced
/// `gap_secs` apart (the last burst may be partial). `burst` is clamped to
/// a minimum of 1. Deterministic (and seed-free: there is no randomness to
/// seed).
///
/// # Panics
///
/// Panics if `gap_secs` is negative or not finite.
pub fn burst_arrivals(n: usize, burst: usize, gap_secs: f64) -> ArrivalTrace {
    assert!(
        gap_secs.is_finite() && gap_secs >= 0.0,
        "burst gap must be finite and non-negative, got {gap_secs}"
    );
    let burst = burst.max(1);
    let arrivals = (0..n).map(|i| (i / burst) as f64 * gap_secs).collect();
    ArrivalTrace {
        name: "burst".into(),
        arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = poisson_arrivals(200, 50.0, 9);
        let b = poisson_arrivals(200, 50.0, 9);
        assert_eq!(a, b);
        let c = poisson_arrivals(200, 50.0, 10);
        assert_ne!(a.arrivals, c.arrivals);
    }

    #[test]
    fn poisson_arrivals_are_increasing_at_roughly_the_asked_rate() {
        let t = poisson_arrivals(2_000, 100.0, 3);
        assert_eq!(t.len(), 2_000);
        let mut last = 0.0f64;
        for &a in &t.arrivals {
            assert!(a > last, "strictly increasing (gaps are positive)");
            last = a;
        }
        let qps = (t.len() - 1) as f64 / (last - t.arrivals[0]);
        assert!(
            (qps - 100.0).abs() < 10.0,
            "offered rate {qps} should be ≈100"
        );
    }

    #[test]
    fn bursts_land_together_and_gap_apart() {
        let t = burst_arrivals(10, 4, 2.0);
        assert_eq!(
            t.arrivals,
            vec![0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 4.0, 4.0]
        );
        assert_eq!(t.name, "burst");
    }

    #[test]
    fn burst_traces_are_deterministic_and_non_decreasing() {
        // No hidden state: the same parameters always yield the same
        // trace, and offsets never go backwards (even with a partial
        // final burst).
        let a = burst_arrivals(23, 5, 0.25);
        let b = burst_arrivals(23, 5, 0.25);
        assert_eq!(a, b);
        for w in a.arrivals.windows(2) {
            assert!(w[1] >= w[0], "non-decreasing offsets");
        }
        // 23 arrivals over 4 full gaps (bursts at 0, 0.25, 0.5, 0.75, 1.0).
        assert_eq!(a.arrivals.last().copied(), Some(1.0));
    }

    #[test]
    fn zero_gap_bursts_land_at_the_same_instant() {
        let t = burst_arrivals(6, 2, 0.0);
        assert_eq!(t.arrivals, vec![0.0; 6]);
    }

    #[test]
    fn zero_gap_is_independent_of_burst_size_and_stays_admissible() {
        // With a zero gap the burst width is irrelevant — every shape
        // collapses to one instant — and the trace is still a valid
        // (non-decreasing) submission order for the schedulers, which
        // refuse non-monotone arrivals but accept ties.
        for burst in [1usize, 3, 100] {
            let t = burst_arrivals(7, burst, 0.0);
            assert_eq!(t.arrivals, vec![0.0; 7], "burst = {burst}");
            for w in t.arrivals.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
        // A partial final burst changes nothing at zero gap either.
        assert_eq!(burst_arrivals(5, 4, 0.0).arrivals, vec![0.0; 5]);
    }

    #[test]
    fn tiny_positive_gap_still_separates_bursts() {
        // The zero-gap collapse is exact, not a rounding artefact: any
        // positive gap, however small, keeps bursts at distinct instants.
        let t = burst_arrivals(4, 2, 1e-9);
        assert_eq!(t.arrivals, vec![0.0, 0.0, 1e-9, 1e-9]);
    }

    #[test]
    #[should_panic(expected = "burst gap")]
    fn negative_gaps_are_rejected() {
        burst_arrivals(5, 2, -1.0);
    }

    #[test]
    #[should_panic(expected = "burst gap")]
    fn non_finite_gaps_are_rejected() {
        burst_arrivals(5, 2, f64::NAN);
    }

    #[test]
    fn burst_of_zero_is_clamped() {
        let t = burst_arrivals(3, 0, 1.0);
        assert_eq!(t.arrivals, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn empty_traces_are_fine() {
        assert!(poisson_arrivals(0, 10.0, 0).is_empty());
        assert!(burst_arrivals(0, 4, 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn poisson_rejects_zero_rate() {
        poisson_arrivals(5, 0.0, 0);
    }
}
