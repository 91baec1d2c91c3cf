//! [`FaultPlan::attempt`], the one faulted read attempt, and
//! [`FaultSource`], the chunk-source decorator that runs it for each fetch.
//!
//! An attempt consults the plan *before* it reads: a delivery performs the
//! real read (a latency spike rides along as extra delay), every other
//! verdict is the error it models, and nothing is read only to be thrown
//! away. Attempt counters are kept per chunk: the next attempt at a chunk
//! that just failed — a retry — observes attempt `n + 1`, which is what
//! lets transient faults clear.

use crate::plan::{Fault, FaultPlan};
use eff2_storage::source::{walk, ChunkSource, ChunkStream, ReadState, SourcedChunk};
use eff2_storage::{Error, Result, VirtualDuration};
use std::collections::BTreeMap;
use std::ops::DerefMut;
use std::sync::{Arc, Mutex, PoisonError};

impl FaultPlan {
    /// One read attempt at `chunk`: bumps its counter in `attempts` (let
    /// go of before the read, so a shared counter's lock is never held
    /// across I/O), draws the verdict — with the permanent-loss draw only
    /// when `permanent` — and calls `read` only on a delivery. Returns the
    /// read plus the spike delay, or the error the verdict models.
    pub fn attempt<T>(
        &self,
        mut attempts: impl DerefMut<Target = BTreeMap<usize, u32>>,
        chunk: usize,
        permanent: bool,
        read: impl FnOnce() -> Result<T>,
    ) -> Result<(T, VirtualDuration)> {
        let slot = attempts.entry(chunk).or_insert(0);
        let attempt = *slot;
        *slot += 1;
        drop(attempts);
        let verdict = if permanent {
            self.fault_for(chunk, attempt)
        } else {
            self.attempt_fault(chunk, attempt)
        };
        // Corruption is modelled as *detected by the chunk checksum*.
        let sum = chunk as u32 ^ 0xdead_beef;
        Err(match verdict {
            Fault::Deliver { delay } => return Ok((read()?, delay)),
            Fault::Transient => Error::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("injected transient fault on chunk {chunk}"),
            )),
            Fault::ShortRead => Error::Truncated("chunk body"),
            Fault::Corrupt => Error::Corrupt {
                what: "chunk body (injected fault)",
                offset: chunk as u64,
                expected: sum,
                found: !sum,
            },
            Fault::Permanent => Error::ChunkLost {
                chunk,
                attempts: attempt + 1,
                spent: VirtualDuration::ZERO,
            },
        })
    }
}

/// A [`ChunkSource`] decorator injecting the faults of a [`FaultPlan`].
#[derive(Clone)]
pub struct FaultSource {
    inner: Arc<dyn ChunkSource>,
    plan: FaultPlan,
    /// Read attempts per chunk, shared by every consumer (and clone) of
    /// this source. The map is only ever incremented, so a poisoned lock
    /// is recovered.
    attempts: Arc<Mutex<BTreeMap<usize, u32>>>,
}

impl FaultSource {
    /// Decorates `inner` with the faults of `plan`.
    pub fn new(inner: Arc<dyn ChunkSource>, plan: FaultPlan) -> FaultSource {
        FaultSource {
            inner,
            plan,
            attempts: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Read attempts observed so far for `chunk`.
    pub fn attempts_for(&self, chunk: usize) -> u32 {
        let counters = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
        counters.get(&chunk).copied().unwrap_or(0)
    }
}

impl ChunkSource for FaultSource {
    fn fetch(&self, id: usize, state: &mut ReadState) -> Result<SourcedChunk> {
        let counters = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
        let read = || self.inner.fetch(id, state);
        let (mut chunk, delay) = self.plan.attempt(counters, id, true, read)?;
        chunk.injected_delay += delay;
        Ok(chunk)
    }

    fn open_stream(&self, order: Vec<usize>) -> Result<Box<dyn ChunkStream>> {
        Ok(walk(self.clone(), order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultConfig;
    use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
    use eff2_storage::source::FileSource;
    use eff2_storage::{ChunkDef, ChunkStore};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn store_with_chunks(tag: &str, sizes: &[usize]) -> ChunkStore {
        let unique = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "eff2_chaos_fault_{tag}_{}_{unique}",
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

    fn drain(stream: &mut dyn ChunkStream) -> Vec<std::result::Result<usize, String>> {
        let mut out = Vec::new();
        while let Some(item) = stream.next_chunk() {
            out.push(item.map(|c| c.id).map_err(|e| e.to_string()));
        }
        out
    }

    #[test]
    fn quiet_plan_is_a_passthrough() {
        let store = store_with_chunks("quiet", &[3, 4, 2]);
        let source = FaultSource::new(
            Arc::new(FileSource::new(&store)),
            FaultPlan::new(FaultConfig::quiet(1)),
        );
        let mut stream = source.open_stream(vec![2, 0, 1]).expect("open");
        let mut ids = Vec::new();
        while let Some(item) = stream.next_chunk() {
            let chunk = item.expect("rate-0 delivers every chunk");
            assert_eq!(chunk.injected_delay, VirtualDuration::ZERO);
            ids.push(chunk.id);
        }
        assert_eq!(ids, vec![2, 0, 1], "in order");
    }

    #[test]
    fn permanent_loss_surfaces_chunk_lost_without_fusing() {
        let store = store_with_chunks("perm", &[2, 2, 2, 2]);
        // Find a seed losing exactly chunk 1 among ids 0..4 at rate 0.3.
        let plan = (0..10_000u64)
            .map(|seed| FaultPlan::new(FaultConfig::lossy(seed, 0.3)))
            .find(|p| p.permanent_losses(4) == vec![1])
            .expect("a seed losing only chunk 1 exists");
        let source = FaultSource::new(Arc::new(FileSource::new(&store)), plan);
        let mut stream = source.open_stream(vec![0, 1, 2, 3]).expect("open");
        let got = drain(stream.as_mut());
        assert_eq!(got.len(), 4, "faulted chunk is consumed, stream continues");
        assert_eq!(got[0], Ok(0));
        assert!(got[1].as_ref().is_err_and(|m| m.contains("chunk 1 lost")));
        assert_eq!(got[2], Ok(2));
        assert_eq!(got[3], Ok(3));
    }

    #[test]
    fn transient_faults_clear_on_a_fresh_stream() {
        let store = store_with_chunks("transient", &[2]);
        let source = FaultSource::new(
            Arc::new(FileSource::new(&store)),
            FaultPlan::new(FaultConfig::flaky(17, 1.0)),
        );
        // Attempts 0..TRANSIENT_CLEAR fail; the next fresh stream reads clean.
        for _ in 0..crate::plan::TRANSIENT_CLEAR {
            let mut stream = source.open_stream(vec![0]).expect("open");
            assert!(stream.next_chunk().expect("item").is_err());
        }
        let mut stream = source.open_stream(vec![0]).expect("open");
        assert!(stream.next_chunk().expect("item").is_ok());
        assert_eq!(source.attempts_for(0), crate::plan::TRANSIENT_CLEAR + 1);
    }

    #[test]
    fn spikes_accumulate_into_the_injected_delay() {
        let store = store_with_chunks("spike", &[1, 1]);
        let config = FaultConfig {
            spike_rate: 1.0,
            spike_ms: 4.0,
            ..FaultConfig::quiet(3)
        };
        let source = FaultSource::new(
            Arc::new(FileSource::new(&store)),
            FaultPlan::new(FaultConfig { ..config }),
        );
        let mut stream = source.open_stream(vec![0, 1]).expect("open");
        // Each delivery carries its own spike, nothing accumulates across.
        for _ in 0..2 {
            let chunk = stream.next_chunk().expect("item").expect("chunk");
            assert_eq!(chunk.injected_delay.as_secs().to_bits(), 0.004f64.to_bits());
        }
    }
}
