//! The seeded fault schedule: a pure function of `(seed, chunk, attempt)`.
//!
//! Nothing here depends on arrival order, thread timing or wall clock —
//! two runs over the same plan observe the same faults at the same
//! chunks, which is what makes chaos runs replayable and lets tests
//! assert the injected schedule *exactly*.

use eff2_storage::VirtualDuration;

/// Salt for the per-chunk permanent-loss draw.
const PERM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
/// Salt for the per-attempt error draw.
const FAULT_SALT: u64 = 0xbf58_476d_1ce4_e5b9;
/// Salt for the per-attempt latency-spike draw.
const SPIKE_SALT: u64 = 0x94d0_49bb_1331_11eb;

/// Transient faults clear after this many consecutive failed attempts on
/// one chunk: attempt indices `0..TRANSIENT_CLEAR` may draw a per-attempt
/// fault, later attempts read clean (unless the chunk is permanently
/// lost). A retry budget of `TRANSIENT_CLEAR + 1` attempts therefore
/// always recovers a purely transient schedule.
pub const TRANSIENT_CLEAR: u32 = 4;

/// Fault rates and the seed that fixes the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed fixing the entire schedule.
    pub seed: u64,
    /// Probability an attempt fails with a transient I/O error.
    pub transient_rate: f64,
    /// Probability an attempt fails with a short read.
    pub short_read_rate: f64,
    /// Probability an attempt delivers corrupt bytes (detected by the
    /// chunk checksum).
    pub corruption_rate: f64,
    /// Probability a chunk is permanently unreadable (drawn once per
    /// chunk; no retry ever succeeds).
    pub permanent_rate: f64,
    /// Probability a successful attempt suffers a latency spike.
    pub spike_rate: f64,
    /// Modelled extra latency of one spike, in milliseconds.
    pub spike_ms: f64,
}

impl FaultConfig {
    /// Every rate zero: the plan never fires.
    pub fn quiet(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_rate: 0.0,
            short_read_rate: 0.0,
            corruption_rate: 0.0,
            permanent_rate: 0.0,
            spike_rate: 0.0,
            spike_ms: 0.0,
        }
    }

    /// Permanent loss only, at `rate` per chunk.
    pub fn lossy(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            permanent_rate: rate,
            ..FaultConfig::quiet(seed)
        }
    }

    /// Transient errors only, at `rate` per attempt.
    pub fn flaky(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            transient_rate: rate,
            ..FaultConfig::quiet(seed)
        }
    }
}

/// What the plan decrees for one read attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The attempt succeeds; deliver the chunk after `delay` of modelled
    /// extra latency (zero when no spike fired).
    Deliver {
        /// Injected latency beyond the plain page transfer.
        delay: VirtualDuration,
    },
    /// The attempt fails with a transient I/O error.
    Transient,
    /// The attempt fails with a short read.
    ShortRead,
    /// The attempt delivers bytes that fail checksum verification.
    Corrupt,
    /// The chunk is permanently unreadable.
    Permanent,
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of the inputs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the mixed inputs.
fn unit(seed: u64, chunk: u64, salt: u64, attempt: u64) -> f64 {
    let h = mix(seed ^ mix(chunk ^ salt) ^ mix(attempt.wrapping_mul(salt)));
    // 53 high bits -> exactly representable dyadic rational in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A fixed fault schedule: [`FaultConfig`] rates keyed by seed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    /// The schedule fixed by `config`.
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan { config }
    }

    /// The configuration this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Whether every rate is zero (the plan can never fire).
    pub fn is_quiet(&self) -> bool {
        let c = &self.config;
        c.transient_rate == 0.0
            && c.short_read_rate == 0.0
            && c.corruption_rate == 0.0
            && c.permanent_rate == 0.0
            && c.spike_rate == 0.0
    }

    /// Whether `chunk` is permanently unreadable under this plan.
    ///
    /// Drawn once per chunk (attempt-independent) from a fixed unit draw,
    /// so the lost sets of two plans differing only in `permanent_rate`
    /// are *nested*: raising the rate only ever loses more chunks.
    pub(crate) fn is_permanently_lost(&self, chunk: usize) -> bool {
        self.config.permanent_rate > 0.0
            && unit(self.config.seed, chunk as u64, PERM_SALT, 0) < self.config.permanent_rate
    }

    /// Every permanently lost chunk id below `n_chunks` — the exact
    /// injected loss schedule, for tests that compare a degradation
    /// report against it.
    pub fn permanent_losses(&self, n_chunks: usize) -> Vec<usize> {
        (0..n_chunks)
            .filter(|&c| self.is_permanently_lost(c))
            .collect()
    }

    /// What happens on read attempt `attempt` (0-based) of `chunk`.
    pub fn fault_for(&self, chunk: usize, attempt: u32) -> Fault {
        if self.is_permanently_lost(chunk) {
            return Fault::Permanent;
        }
        self.attempt_fault(chunk, attempt)
    }

    /// [`fault_for`](Self::fault_for) **without** the permanent-loss check:
    /// the per-attempt transient/short-read/corruption/spike draw alone.
    /// [`attempt`](Self::attempt) draws this for a copy the permanent draw
    /// does not apply to — a replica, when the draw models loss of the
    /// *primary medium only*: replicas share the chunk's per-attempt
    /// weather but not its permanent fate.
    pub(crate) fn attempt_fault(&self, chunk: usize, attempt: u32) -> Fault {
        let c = &self.config;
        if attempt < TRANSIENT_CLEAR {
            let u = unit(c.seed, chunk as u64, FAULT_SALT, u64::from(attempt));
            if u < c.transient_rate {
                return Fault::Transient;
            }
            if u < c.transient_rate + c.short_read_rate {
                return Fault::ShortRead;
            }
            if u < c.transient_rate + c.short_read_rate + c.corruption_rate {
                return Fault::Corrupt;
            }
        }
        let spike = c.spike_rate > 0.0
            && unit(c.seed, chunk as u64, SPIKE_SALT, u64::from(attempt)) < c.spike_rate;
        Fault::Deliver {
            delay: if spike {
                VirtualDuration::from_ms(c.spike_ms)
            } else {
                VirtualDuration::ZERO
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_always_delivers_immediately() {
        let plan = FaultPlan::new(FaultConfig::quiet(7));
        assert!(plan.is_quiet());
        for chunk in 0..200 {
            for attempt in 0..6 {
                assert_eq!(
                    plan.fault_for(chunk, attempt),
                    Fault::Deliver {
                        delay: VirtualDuration::ZERO
                    }
                );
            }
        }
        assert!(plan.permanent_losses(200).is_empty());
    }

    #[test]
    fn schedule_is_a_pure_function_of_its_inputs() {
        let a = FaultPlan::new(FaultConfig::lossy(42, 0.3));
        let b = FaultPlan::new(FaultConfig::lossy(42, 0.3));
        for chunk in 0..100 {
            for attempt in 0..4 {
                assert_eq!(a.fault_for(chunk, attempt), b.fault_for(chunk, attempt));
            }
        }
    }

    #[test]
    fn different_seeds_draw_different_schedules() {
        let a = FaultPlan::new(FaultConfig::lossy(1, 0.5));
        let b = FaultPlan::new(FaultConfig::lossy(2, 0.5));
        assert_ne!(a.permanent_losses(256), b.permanent_losses(256));
    }

    #[test]
    fn lost_sets_are_nested_across_rates() {
        for rate_pair in [(0.05, 0.1), (0.1, 0.3), (0.3, 0.7)] {
            let lo = FaultPlan::new(FaultConfig::lossy(9, rate_pair.0));
            let hi = FaultPlan::new(FaultConfig::lossy(9, rate_pair.1));
            let lo_set = lo.permanent_losses(500);
            let hi_set = hi.permanent_losses(500);
            assert!(lo_set.len() <= hi_set.len());
            for c in &lo_set {
                assert!(
                    hi_set.contains(c),
                    "chunk {c} lost at low rate but not high"
                );
            }
        }
    }

    #[test]
    fn transient_faults_clear_within_the_documented_budget() {
        let plan = FaultPlan::new(FaultConfig::flaky(11, 1.0));
        for chunk in 0..50 {
            for attempt in 0..TRANSIENT_CLEAR {
                assert_eq!(plan.fault_for(chunk, attempt), Fault::Transient);
            }
            assert!(matches!(
                plan.fault_for(chunk, TRANSIENT_CLEAR),
                Fault::Deliver { .. }
            ));
        }
    }

    #[test]
    fn rates_actually_fire_near_their_nominal_frequency() {
        let plan = FaultPlan::new(FaultConfig::lossy(3, 0.25));
        let lost = plan.permanent_losses(4000).len();
        assert!(
            (700..1300).contains(&lost),
            "0.25 loss over 4000 chunks fired {lost} times"
        );
    }

    #[test]
    fn spikes_carry_the_configured_delay() {
        let config = FaultConfig {
            spike_rate: 1.0,
            spike_ms: 12.5,
            ..FaultConfig::quiet(5)
        };
        let plan = FaultPlan::new(config);
        match plan.fault_for(0, 0) {
            Fault::Deliver { delay } => {
                assert_eq!(delay.as_secs().to_bits(), 0.0125f64.to_bits());
            }
            other => panic!("expected spike delivery, got {other:?}"),
        }
    }
}
