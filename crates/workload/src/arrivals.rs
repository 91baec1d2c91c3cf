//! Seeded, deterministic query-arrival traces for the serving layer.
//!
//! The paper's experiments replay a fixed query set; the serving
//! scheduler additionally needs *when* each query arrives.
//! [`poisson_arrivals`] models independent arrivals at a constant average
//! rate (exponential inter-arrival gaps), the classic open-loop load
//! model.
//!
//! It is a pure function of its seed: the same call yields the same
//! trace on every machine, keeping scheduler runs replayable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, non-decreasing list of arrival offsets in virtual seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalTrace {
    /// Trace name ("poisson").
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
    fn empty_traces_are_fine() {
        assert!(poisson_arrivals(0, 10.0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn poisson_rejects_zero_rate() {
        poisson_arrivals(5, 0.0, 0);
    }
}
