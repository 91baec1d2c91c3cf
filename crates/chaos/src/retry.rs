//! [`RetryPolicy::run`], the one retry loop, and [`RetrySource`].
//!
//! `run` decides every retry in the workspace: transient and corrupt reads
//! are retried up to the budget (a literal 0 behaves as one attempt), a
//! permanent error is not, and failed attempt `n` of a chunk costs a
//! timeout plus exponential backoff on the *modelled* clock, never the
//! wall clock, so chaos runs stay deterministic. A chunk it gives up on is
//! [`Error::ChunkLost`] with that cost attached.
//!
//! The charging rule: [`RetrySource`] adds what a recovered chunk's failed
//! attempts cost to its [`injected_delay`](SourcedChunk::injected_delay),
//! the query's own clock; the serving engine, which runs `run` once per
//! copy, charges it to its fleet clocks. A lost chunk's cost is booked to
//! the query's own clock by both.

use eff2_storage::source::{walk, ChunkSource, ChunkStream, ReadState, SourcedChunk};
use eff2_storage::{Error, ErrorClass, Result, VirtualDuration};
use std::sync::Arc;

/// How hard a chunk read is tried before the chunk is declared lost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total read attempts per copy of a chunk (1 = no retries).
    pub max_attempts: u32,
    /// Modelled time charged per failed attempt (the read timeout).
    pub timeout: VirtualDuration,
    /// Modelled backoff before retry `n` is `backoff_base * 2^n`.
    pub backoff_base: VirtualDuration,
}

impl RetryPolicy {
    /// One attempt, nothing charged: a passthrough policy.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            timeout: VirtualDuration::ZERO,
            backoff_base: VirtualDuration::ZERO,
        }
    }

    /// `max_attempts` attempts (clamped to a minimum of 1 — a read is
    /// always tried once) with `timeout` per failure and exponential
    /// backoff from `backoff_base`.
    pub fn new(
        max_attempts: u32,
        timeout: VirtualDuration,
        backoff_base: VirtualDuration,
    ) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            timeout,
            backoff_base,
        }
    }

    /// Modelled cost of failed attempt `attempt` (0-based): the timeout
    /// plus this attempt's backoff.
    pub(crate) fn attempt_cost(&self, attempt: u32) -> VirtualDuration {
        let scale = f64::from(2u32.checked_pow(attempt).unwrap_or(u32::MAX));
        self.timeout + VirtualDuration::from_secs(self.backoff_base.as_secs() * scale)
    }

    /// Modelled cost of a chunk's first `probes` failed attempts.
    pub fn probe_cost(&self, probes: u32) -> VirtualDuration {
        (0..probes).fold(VirtualDuration::ZERO, |cost, n| cost + self.attempt_cost(n))
    }

    /// Runs one copy's attempts at `chunk`, the first being the chunk's
    /// attempt `from` (earlier ones failed on other copies). Returns what
    /// `read` delivered, the cost of every failed attempt at the chunk so
    /// far, and how many attempts here were retried; or, on a permanent
    /// error or a spent budget, `ChunkLost` with this copy's attempts.
    pub fn run<T>(
        &self,
        chunk: usize,
        from: u32,
        mut read: impl FnMut() -> Result<T>,
    ) -> Result<(T, VirtualDuration, u32)> {
        let mut failed = 0u32;
        loop {
            let e = match read() {
                Ok(value) => return Ok((value, self.probe_cost(from + failed), failed)),
                Err(e) => e,
            };
            failed += 1;
            if e.class() == ErrorClass::Permanent || failed >= self.max_attempts {
                let spent = self.probe_cost(from + failed);
                return Err(Error::ChunkLost {
                    chunk,
                    attempts: failed,
                    spent,
                });
            }
        }
    }
}

/// A [`ChunkSource`] decorator retrying failed reads per [`RetryPolicy`].
#[derive(Clone)]
pub struct RetrySource {
    inner: Arc<dyn ChunkSource>,
    policy: RetryPolicy,
}

impl RetrySource {
    /// Decorates `inner` with `policy`.
    pub fn new(inner: Arc<dyn ChunkSource>, policy: RetryPolicy) -> RetrySource {
        RetrySource { inner, policy }
    }
}

impl ChunkSource for RetrySource {
    fn fetch(&self, id: usize, state: &mut ReadState) -> Result<SourcedChunk> {
        let (mut chunk, spent, _) = self.policy.run(id, 0, || self.inner.fetch(id, state))?;
        // The failed attempts that preceded this success are part of what
        // the delivery cost.
        chunk.injected_delay += spent;
        Ok(chunk)
    }

    fn open_stream(&self, order: Vec<usize>) -> Result<Box<dyn ChunkStream>> {
        Ok(walk(self.clone(), order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSource;
    use crate::plan::{FaultConfig, FaultPlan, TRANSIENT_CLEAR};
    use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
    use eff2_storage::source::FileSource;
    use eff2_storage::{ChunkDef, ChunkStore};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn store_with_chunks(tag: &str, sizes: &[usize]) -> ChunkStore {
        let unique = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "eff2_chaos_retry_{tag}_{}_{unique}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let total: usize = sizes.iter().sum();
        let set: DescriptorSet = (0..total)
            .map(|i| Descriptor::new(i as u32, Vector::splat(i as f32)))
            .collect();
        let mut next = 0u32;
        let chunks: Vec<ChunkDef> = sizes
            .iter()
            .map(|&n| {
                let positions: Vec<u32> = (next..next + n as u32).collect();
                next += n as u32;
                ChunkDef {
                    positions,
                    centroid: Vector::ZERO,
                    radius: 1e9,
                }
            })
            .collect();
        ChunkStore::create(&dir, "ix", &set, &chunks, 512).expect("create")
    }

    fn recovering_policy() -> RetryPolicy {
        RetryPolicy::new(
            TRANSIENT_CLEAR + 1,
            VirtualDuration::from_ms(5.0),
            VirtualDuration::from_ms(1.0),
        )
    }

    #[test]
    fn zero_attempts_is_clamped_to_one() {
        let ms = VirtualDuration::from_ms(5.0);
        let policy = RetryPolicy::new(0, ms, VirtualDuration::ZERO);
        assert_eq!(policy, RetryPolicy::new(1, ms, VirtualDuration::ZERO));
        // The fields are public: a literal zero behaves as one attempt too.
        let store = store_with_chunks("zero", &[1]);
        let plan = FaultPlan::new(FaultConfig::flaky(31, 1.0));
        let source = RetrySource::new(
            Arc::new(FaultSource::new(Arc::new(FileSource::new(&store)), plan)),
            RetryPolicy {
                max_attempts: 0,
                ..policy
            },
        );
        let mut stream = source.open_stream(vec![0]).expect("open");
        match stream.next_chunk().expect("item") {
            Err(Error::ChunkLost {
                attempts, spent, ..
            }) => {
                assert_eq!(attempts, 1);
                assert_eq!(spent, ms);
            }
            other => panic!("expected ChunkLost, got {other:?}"),
        }
    }

    #[test]
    fn passthrough_policy_is_transparent() {
        let store = store_with_chunks("pass", &[2, 3, 1]);
        let source = RetrySource::new(Arc::new(FileSource::new(&store)), RetryPolicy::none());
        let mut stream = source.open_stream(vec![1, 2, 0]).expect("open");
        let mut ids = Vec::new();
        while let Some(item) = stream.next_chunk() {
            let chunk = item.expect("chunk");
            assert_eq!(chunk.injected_delay, VirtualDuration::ZERO);
            ids.push(chunk.id);
        }
        assert_eq!(ids, vec![1, 2, 0]);
    }

    #[test]
    fn transient_faults_recover_with_the_time_charged() {
        let store = store_with_chunks("recover", &[2, 2]);
        let plan = FaultPlan::new(FaultConfig::flaky(23, 1.0));
        let source = RetrySource::new(
            Arc::new(FaultSource::new(Arc::new(FileSource::new(&store)), plan)),
            recovering_policy(),
        );
        let mut stream = source.open_stream(vec![0, 1]).expect("open");
        let policy = recovering_policy();
        for want in [0usize, 1] {
            let chunk = stream.next_chunk().expect("item").expect("recovered");
            assert_eq!(chunk.id, want);
            // All TRANSIENT_CLEAR failed attempts were charged.
            let want_spent: VirtualDuration = (0..TRANSIENT_CLEAR)
                .map(|a| policy.attempt_cost(a))
                .fold(VirtualDuration::ZERO, |acc, c| acc + c);
            assert_eq!(
                chunk.injected_delay.as_secs().to_bits(),
                want_spent.as_secs().to_bits()
            );
        }
        assert!(stream.next_chunk().is_none());
    }

    #[test]
    fn exhausted_budget_becomes_chunk_lost_and_the_stream_continues() {
        let store = store_with_chunks("exhaust", &[1, 1, 1]);
        let plan = FaultPlan::new(FaultConfig::flaky(29, 1.0));
        // Budget below TRANSIENT_CLEAR: chunk reads never recover.
        let policy = RetryPolicy::new(2, VirtualDuration::from_ms(5.0), VirtualDuration::ZERO);
        let source = RetrySource::new(
            Arc::new(FaultSource::new(Arc::new(FileSource::new(&store)), plan)),
            policy,
        );
        let mut stream = source.open_stream(vec![0, 1, 2]).expect("open");
        for want in 0..3usize {
            match stream.next_chunk().expect("item") {
                Err(Error::ChunkLost {
                    chunk,
                    attempts,
                    spent,
                }) => {
                    assert_eq!(chunk, want);
                    assert_eq!(attempts, 2);
                    assert_eq!(spent.as_ms().to_bits(), 10.0f64.to_bits());
                }
                other => panic!("expected ChunkLost, got {other:?}"),
            }
        }
        assert!(stream.next_chunk().is_none());
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let store = store_with_chunks("perm", &[1, 1]);
        let plan = (0..10_000u64)
            .map(|seed| FaultPlan::new(FaultConfig::lossy(seed, 0.4)))
            .find(|p| p.permanent_losses(2) == vec![0])
            .expect("a seed losing only chunk 0 exists");
        let fault = Arc::new(FaultSource::new(Arc::new(FileSource::new(&store)), plan));
        let source = RetrySource::new(
            Arc::clone(&fault) as Arc<dyn ChunkSource>,
            RetryPolicy::new(5, VirtualDuration::from_ms(5.0), VirtualDuration::ZERO),
        );
        let mut stream = source.open_stream(vec![0, 1]).expect("open");
        match stream.next_chunk().expect("item") {
            Err(Error::ChunkLost {
                chunk, attempts, ..
            }) => {
                assert_eq!(chunk, 0);
                assert_eq!(attempts, 1, "permanent loss must not burn the retry budget");
            }
            other => panic!("expected ChunkLost, got {other:?}"),
        }
        assert_eq!(stream.next_chunk().expect("item").expect("chunk").id, 1);
        assert_eq!(fault.attempts_for(0), 1);
    }
}
