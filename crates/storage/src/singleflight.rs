//! Single-flight read coalescing: concurrent requests for the same chunk
//! share one underlying read.
//!
//! Under a multi-query serving load many sessions rank the same hot chunks
//! near the front, so several threads ask for one chunk at almost the same
//! moment. Without coalescing each caller pays the read (and, for a cache,
//! each charges a miss). `SingleFlight` keeps a table of in-flight chunk
//! ids: the first requester becomes the *leader* and performs the read;
//! everyone else blocks on the leader's slot and receives the same decoded
//! payload when it lands. The table holds no payloads of its own — a slot
//! lives only while its read is in flight — so this is dedup, not a cache.
//!
//! Virtual-time figures are unaffected: a coalesced delivery reports the
//! same `bytes_read` the leader observed, and sources built on top (the
//! resident cache, the prefetcher) keep charging the modelled I/O exactly
//! as before.

use crate::chunkfile::ChunkPayload;
use crate::error::{Error, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Counters describing a [`SingleFlight`] table's behaviour: what the
/// coalescing tests synchronise on and assert.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FlightStats {
    /// Underlying reads performed (one per leader).
    pub reads: u64,
    /// Requests that joined an in-flight read instead of issuing their own.
    pub coalesced: u64,
}

/// What one request received: the shared payload plus who produced it.
#[derive(Clone, Debug)]
pub(crate) struct FlightOutcome {
    /// Decoded payload, shared with every coalesced requester.
    pub payload: Arc<ChunkPayload>,
    /// On-disk (padded page span) bytes of the chunk, as the leader read it.
    pub bytes_read: u64,
    /// Whether this request performed the read itself.
    pub led: bool,
    /// Requester tag of the leader that produced the payload (== the
    /// caller's own tag when `led`).
    pub leader: u64,
}

/// What a landed read left in its slot: the shared payload and byte count,
/// or the leader's error message. Errors travel as strings because
/// [`Error`] is not `Clone` (each follower mints its own wrapper).
// lint:allow(err.string_error): Error is not Clone, so followers share the leader's message and re-wrap it into their own typed Error
type Landed = std::result::Result<(Arc<ChunkPayload>, u64), String>;

/// One in-flight read. Followers hold an `Arc` to the slot, so the table
/// entry can be removed as soon as the read lands without racing them.
#[derive(Debug)]
struct Slot {
    /// `None` while the read is in flight.
    state: Mutex<Option<Landed>>,
    landed: Condvar,
    leader: u64,
}

#[derive(Debug, Default)]
struct Table {
    in_flight: BTreeMap<usize, Arc<Slot>>,
    reads: u64,
    coalesced: u64,
}

/// A shared in-flight read table; clones coalesce against each other.
#[derive(Clone, Debug, Default)]
pub(crate) struct SingleFlight {
    table: Arc<Mutex<Table>>,
}

/// Recovers a guard past a poisoned lock: every critical section leaves the
/// table/slot consistent, so continuing is sound (same policy as the
/// resident cache).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SingleFlight {
    /// A fresh, empty flight table.
    pub fn new() -> SingleFlight {
        SingleFlight::default()
    }

    /// A snapshot of the coalescing counters.
    #[cfg(test)]
    pub fn stats(&self) -> FlightStats {
        let table = lock(&self.table);
        FlightStats {
            reads: table.reads,
            coalesced: table.coalesced,
        }
    }

    /// Delivers chunk `id`, coalescing with any read already in flight.
    ///
    /// If no read of `id` is in flight the caller becomes the leader:
    /// `read` runs (outside every lock) and its payload is handed to all
    /// followers that arrived meanwhile. Otherwise the caller blocks until
    /// the leader's read lands and shares its payload. A leader's error is
    /// propagated verbatim to the leader and as [`Error::Inconsistent`]
    /// (message-wrapped) to followers; the slot is always cleared, so a
    /// later request retries the read fresh.
    pub fn read(
        &self,
        id: usize,
        requester: u64,
        read: impl FnOnce() -> Result<(Arc<ChunkPayload>, u64)>,
    ) -> Result<FlightOutcome> {
        let slot = {
            let mut table = lock(&self.table);
            match table.in_flight.get(&id) {
                Some(slot) => {
                    let slot = Arc::clone(slot);
                    table.coalesced += 1;
                    drop(table);
                    return Self::follow(id, &slot);
                }
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(None),
                        landed: Condvar::new(),
                        leader: requester,
                    });
                    table.in_flight.insert(id, Arc::clone(&slot));
                    table.reads += 1;
                    slot
                }
            }
        };

        // Leader: perform the read with no lock held.
        let result = read();
        // Clear the table entry first so late arrivals start a fresh read
        // instead of waiting on a slot that already landed.
        lock(&self.table).in_flight.remove(&id);
        {
            let mut state = lock(&slot.state);
            *state = Some(match &result {
                Ok((payload, bytes_read)) => Ok((Arc::clone(payload), *bytes_read)),
                Err(e) => Err(e.to_string()),
            });
        }
        slot.landed.notify_all();
        result.map(|(payload, bytes_read)| FlightOutcome {
            payload,
            bytes_read,
            led: true,
            leader: requester,
        })
    }

    /// Blocks on `slot` until the leader's read lands, then shares it.
    fn follow(id: usize, slot: &Slot) -> Result<FlightOutcome> {
        let mut state = lock(&slot.state);
        loop {
            if let Some(outcome) = state.as_ref() {
                return match outcome {
                    Ok((payload, bytes_read)) => Ok(FlightOutcome {
                        payload: Arc::clone(payload),
                        bytes_read: *bytes_read,
                        led: false,
                        leader: slot.leader,
                    }),
                    Err(msg) => Err(Error::Inconsistent(format!(
                        "coalesced read of chunk {id} failed: {msg}"
                    ))),
                };
            }
            state = slot
                .landed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Arc<ChunkPayload> {
        Arc::new(ChunkPayload {
            ids: (0..n as u32).collect(),
            packed: vec![0.0; n],
            codes: Vec::new(),
        })
    }

    #[test]
    fn sequential_reads_never_coalesce() {
        let flight = SingleFlight::new();
        for pass in 0..3 {
            let got = flight
                .read(7, pass, || Ok((payload(4), 512)))
                .expect("read");
            assert!(got.led);
            assert_eq!(got.leader, pass);
        }
        assert_eq!(
            flight.stats(),
            FlightStats {
                reads: 3,
                coalesced: 0
            }
        );
    }

    #[test]
    fn concurrent_requests_share_one_read() {
        let flight = SingleFlight::new();
        let n = 6u64;
        let performed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for tag in 1..n {
                let flight = flight.clone();
                handles.push(scope.spawn(move || {
                    // Join only after the leader has registered its slot
                    // (the slot stays in flight until we all arrive).
                    while flight.stats().reads == 0 {
                        std::thread::yield_now();
                    }
                    flight.read(3, tag, || unreachable!("the slot is already in flight"))
                }));
            }
            // The leader's read completes only once every follower has
            // registered against the slot, so coalescing is deterministic.
            let lead = flight.read(3, 0, || {
                while flight.stats().coalesced < n - 1 {
                    std::thread::yield_now();
                }
                performed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok((payload(9), 1024))
            });
            let lead = lead.expect("leader read");
            assert!(lead.led);
            for h in handles {
                let got = h.join().expect("join").expect("follower read");
                assert!(!got.led);
                assert_eq!(got.leader, 0);
                assert_eq!(got.bytes_read, 1024);
                assert_eq!(got.payload, lead.payload);
            }
        });
        assert_eq!(performed.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(
            flight.stats(),
            FlightStats {
                reads: 1,
                coalesced: n - 1
            }
        );
    }

    #[test]
    fn leader_error_reaches_followers_and_clears_the_slot() {
        let flight = SingleFlight::new();
        let n = 4u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for tag in 1..n {
                let flight = flight.clone();
                handles.push(scope.spawn(move || {
                    while flight.stats().reads == 0 {
                        std::thread::yield_now();
                    }
                    flight.read(5, tag, || unreachable!("the slot is already in flight"))
                }));
            }
            let lead = flight.read(5, 0, || {
                while flight.stats().coalesced < n - 1 {
                    std::thread::yield_now();
                }
                Err(Error::Truncated("chunk file"))
            });
            assert!(lead.is_err());
            for h in handles {
                let got = h.join().expect("join");
                assert!(matches!(got, Err(Error::Inconsistent(_))));
            }
        });
        // The failed slot is gone: the next request leads a fresh read.
        let retry = flight.read(5, 9, || Ok((payload(2), 256))).expect("retry");
        assert!(retry.led);
        assert_eq!(flight.stats().reads, 2);
    }

    /// Stress: many rounds of coalesced reads where the leader fails on
    /// every even round. Followers must observe the wrapped error, the
    /// failed slot must always clear, and an immediate retry must lead a
    /// fresh read that succeeds — no wedged slots, no stale payloads.
    #[test]
    fn failing_leaders_never_wedge_the_table_under_threaded_stress() {
        let flight = SingleFlight::new();
        const ROUNDS: usize = 24;
        const FOLLOWERS: u64 = 3;
        let mut want_reads = 0u64;
        let mut want_coalesced = 0u64;
        for round in 0..ROUNDS {
            let id = round % 5;
            let fail = round % 2 == 0;
            let reads_before = flight.stats().reads;
            let coalesced_before = flight.stats().coalesced;
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for tag in 1..=FOLLOWERS {
                    let flight = flight.clone();
                    handles.push(scope.spawn(move || {
                        // Join only after this round's leader registered.
                        while flight.stats().reads == reads_before {
                            std::thread::yield_now();
                        }
                        flight.read(id, tag, || unreachable!("the slot is already in flight"))
                    }));
                }
                // The leader holds the slot open until every follower has
                // coalesced, then fails (even rounds) or lands (odd).
                let lead = flight.read(id, 0, || {
                    while flight.stats().coalesced < coalesced_before + FOLLOWERS {
                        std::thread::yield_now();
                    }
                    if fail {
                        Err(Error::Io(std::io::Error::new(
                            std::io::ErrorKind::Interrupted,
                            format!("injected fault in round {round}"),
                        )))
                    } else {
                        Ok((payload(id + 1), 512))
                    }
                });
                assert_eq!(lead.is_err(), fail, "round {round} leader outcome");
                for h in handles {
                    match (fail, h.join().expect("join")) {
                        (true, Err(Error::Inconsistent(msg))) => {
                            assert!(
                                msg.contains(&format!("coalesced read of chunk {id} failed")),
                                "round {round}: {msg}"
                            );
                            assert!(msg.contains("injected fault"), "round {round}: {msg}");
                        }
                        (false, Ok(got)) => {
                            assert!(!got.led);
                            assert_eq!(got.leader, 0);
                            assert_eq!(got.payload.ids.len(), id + 1);
                        }
                        (_, other) => panic!("round {round}: follower got {other:?}"),
                    }
                }
            });
            // The slot always cleared: a retry leads a fresh read and sees
            // current data, not a cached copy of an old round's payload.
            let retry = flight
                .read(id, 99, || Ok((payload(id + 2), 640)))
                .expect("retry after round");
            assert!(retry.led, "round {round} retry must lead");
            assert_eq!(retry.payload.ids.len(), id + 2);
            want_reads += 2;
            want_coalesced += FOLLOWERS;
        }
        assert_eq!(
            flight.stats(),
            FlightStats {
                reads: want_reads,
                coalesced: want_coalesced
            }
        );
    }
}
