//! Serving under live mutation: queries, inserts and deletes on one
//! merged arrival timeline, with online compaction interleaved tick-for-
//! tick with the search work.
//!
//! A [`LiveServer`] is the crate's one serving engine (`engine.rs`) on a
//! single device under the plain fold, holding a [`MutableIndex`]:
//!
//! * a **query** arrival is a job — the plain fold's one session per
//!   query — pinned at admission to the index's current epoch
//!   ([`MutableIndex::pin`]): it sees exactly that [`Snapshot`] for its
//!   whole life, no matter what later events do;
//! * a **mutation** arrival appends to the delta chunk (and is charged
//!   its manifest append on the fleet clock);
//! * when the [`CompactionPolicy`] fires, the compactor's fold is planned
//!   immediately ([`MutableIndex::begin_compaction`] — the fold is a pure
//!   function of the pinned state, so planning eagerly is deterministic)
//!   but its modelled cost is paid as the engine's background work, one
//!   slice after each session-feeding tick; the new generation installs
//!   only once its last slice is paid. Sessions admitted in the interim
//!   still pin the old generation — there are no torn epochs by
//!   construction.
//!
//! Three things are constants here, not options: fair-share turns,
//! unbounded admission, and a zero-byte chunk cache (every feed pays its
//! modelled I/O).
//!
//! The headline property (proptested in `tests/live_mutation.rs`): every
//! completion's [`SearchResult`] is bit-identical to a solo run of the
//! same query against the completion's own pinned snapshot.

use crate::engine::{inconsistent, Devices, Engine};
use crate::error::Result;
use crate::scheduler::{Plain, Policy, SchedulerConfig};
use eff2_core::search::{SearchParams, SearchResult};
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::Vector;
use eff2_epoch::{CompactionPlan, CompactionStats, MutableIndex};
use eff2_storage::diskmodel::VirtualDuration;
use std::collections::VecDeque;

/// When the background compactor folds the delta chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionPolicy {
    /// Never compact: the delta grows without bound (the baseline exp8
    /// measures imbalance against).
    Never,
    /// Fold once every `n` applied mutations (clamped to ≥ 1).
    EveryOps(usize),
}

impl CompactionPolicy {
    /// Stable name for tables and CSV.
    pub fn name(&self) -> String {
        match self {
            CompactionPolicy::Never => "never".to_string(),
            CompactionPolicy::EveryOps(n) => format!("every-{n}-ops"),
        }
    }
}

/// One event on the live timeline, in arrival order.
#[derive(Clone, Debug)]
pub enum LiveEvent {
    /// A search arriving at this instant.
    Query(Vector),
    /// An insert (or update) arriving at this instant.
    Insert {
        /// Descriptor id (a base id to supersede, or a fresh one).
        id: u32,
        /// The new descriptor.
        vector: Vector,
    },
    /// A delete arriving at this instant.
    Delete {
        /// Descriptor id to tombstone.
        id: u32,
    },
}

/// One finished query with everything needed to replay it solo.
#[derive(Clone, Debug)]
pub struct LiveCompletion {
    /// Submission order among queries (0-based).
    pub id: u64,
    /// The query vector.
    pub query: Vector,
    /// Virtual arrival time.
    pub arrival: VirtualDuration,
    /// Fleet-clock time of the last chunk scan.
    pub finish: VirtualDuration,
    /// The epoch snapshot this session pinned at admission — a solo
    /// [`Snapshot::search`] against it must reproduce `result`
    /// bit-for-bit.
    pub snapshot: Snapshot,
    /// The per-query answer and log.
    pub result: SearchResult,
}

impl LiveCompletion {
    /// Arrival-to-finish latency on the fleet clock.
    pub fn latency(&self) -> VirtualDuration {
        self.finish - self.arrival
    }
}

/// Fleet-level counters for a live run.
#[derive(Clone, Debug, Default)]
pub struct LiveStats {
    /// Queries served to completion.
    pub queries: u64,
    /// Mutations applied (inserts + deletes).
    pub mutations: u64,
    /// Compactions installed.
    pub compactions: u64,
    /// Ticks spent paying compaction cost (interleaved with serving).
    pub compaction_ticks: u64,
    /// Chunks fed to sessions.
    pub chunks_fed: u64,
    /// Total modelled compaction I/O + CPU charged to the fleet clock, in
    /// virtual seconds.
    pub compaction_cost_secs: f64,
    /// Largest chunk (descriptors) ever installed by a compaction; 0 when
    /// none ran.
    pub max_installed_chunk: usize,
    /// Stats of every installed compaction, in order.
    pub compaction_log: Vec<CompactionStats>,
}

/// Everything a finished live run produced.
#[derive(Clone, Debug)]
pub struct LiveReport {
    /// Per-query completions, sorted by submission id.
    pub completions: Vec<LiveCompletion>,
    /// Fleet counters.
    pub stats: LiveStats,
    /// Per-chunk descriptor counts of the final generation (the exp8
    /// imbalance-factor input).
    pub final_chunk_loads: Vec<usize>,
    /// Fleet-clock time at which the last event's work finished.
    pub makespan: VirtualDuration,
}

/// A compaction whose fold is written but whose modelled cost is still
/// being paid tick by tick.
struct InFlightCompaction {
    plan: CompactionPlan,
    ticks_left: u64,
    io_per_tick: VirtualDuration,
    cpu_per_tick: VirtualDuration,
}

/// What the engine holds of a mutable index: the epoch each admitted
/// query is pinned to, and the compactor's fold as background work.
pub(crate) struct Live {
    index: MutableIndex,
    policy: CompactionPolicy,
    ops_since_compaction: usize,
    compaction: Option<InFlightCompaction>,
    stats: LiveStats,
}

impl Live {
    /// The epoch the index stands at — what a query admitted now sees.
    pub(crate) fn pin(&self) -> Snapshot {
        self.index.pin()
    }

    /// One `(io, cpu)` slice of the in-flight compaction, if there is one;
    /// installs the new generation when the last slice is paid.
    pub(crate) fn background(&mut self) -> Result<Option<(VirtualDuration, VirtualDuration)>> {
        let Some(c) = self.compaction.as_mut() else {
            return Ok(None);
        };
        let slice = (c.io_per_tick, c.cpu_per_tick);
        self.stats.compaction_ticks += 1;
        c.ticks_left -= 1;
        if c.ticks_left == 0 {
            if let Some(c) = self.compaction.take() {
                let stats = self.index.install_compaction(c.plan)?;
                self.stats.compactions += 1;
                self.stats.max_installed_chunk =
                    self.stats.max_installed_chunk.max(stats.max_chunk_after);
                self.stats.compaction_log.push(stats);
            }
        }
        Ok(Some(slice))
    }

    /// Counts one applied mutation and starts a compaction when the
    /// policy says so: the fold is planned now (deterministically, from
    /// the pinned state) and its cost scheduled over one slice per folded
    /// chunk.
    fn mutation_applied(&mut self) -> Result<()> {
        self.stats.mutations += 1;
        self.ops_since_compaction += 1;
        let CompactionPolicy::EveryOps(n) = self.policy else {
            return Ok(());
        };
        if self.compaction.is_some() || self.ops_since_compaction < n.max(1) {
            return Ok(());
        }
        let plan = self.index.begin_compaction()?;
        self.ops_since_compaction = 0;
        let model = *self.index.model();
        let stats = plan.stats();
        let ticks = (stats.chunks_before as u64).max(1);
        let io = stats.io_cost(&model);
        let cpu = stats.cpu_cost(&model);
        self.stats.compaction_cost_secs += io.as_secs() + cpu.as_secs();
        self.compaction = Some(InFlightCompaction {
            plan,
            ticks_left: ticks,
            io_per_tick: VirtualDuration::from_secs(io.as_secs() / ticks as f64),
            cpu_per_tick: VirtualDuration::from_secs(cpu.as_secs() / ticks as f64),
        });
        Ok(())
    }
}

/// The live-mutation server. See the [module docs](self).
pub struct LiveServer {
    engine: Engine<Plain>,
    params: SearchParams,
    /// Every query offered so far, by the id the engine gave it.
    queries: Vec<Vector>,
}

impl LiveServer {
    /// A server over `index`, answering every query with `params` and
    /// compacting per `policy`.
    pub fn new(index: MutableIndex, params: SearchParams, policy: CompactionPolicy) -> LiveServer {
        let config = SchedulerConfig {
            cache_budget_bytes: 0,
            ..SchedulerConfig::new(Policy::FairShare, usize::MAX)
        };
        let mut engine = Engine::new(index.pin(), config, Devices::new(None), Plain);
        engine.live = Some(Live {
            policy,
            ops_since_compaction: 0,
            compaction: None,
            stats: LiveStats::default(),
            index,
        });
        LiveServer {
            engine,
            params,
            queries: Vec::new(),
        }
    }

    /// The index the engine holds for this server.
    fn live(&mut self) -> Result<&mut Live> {
        let live = self.engine.live.as_mut();
        live.ok_or_else(|| inconsistent("live server without its index"))
    }

    /// Feeds one event arriving at `at`; events — queries and mutations
    /// alike — must arrive in non-decreasing time order
    /// ([`ServeError::NonMonotoneArrival`](crate::ServeError::NonMonotoneArrival)
    /// otherwise, and the event is not applied). Backlog is processed up to
    /// the arrival instant first, so the event sees the fleet as it stands
    /// *at* `at`.
    pub fn offer(&mut self, at: VirtualDuration, event: &LiveEvent) -> Result<()> {
        match event {
            LiveEvent::Query(query) => {
                // Admission is unbounded, so ids count the queries offered.
                self.engine.submit(query, &self.params, at)?;
                self.queries.push(*query);
                Ok(())
            }
            LiveEvent::Insert { id, vector } => {
                self.engine.advance_to(at)?;
                self.live()?.index.insert(*id, *vector)?;
                self.book_mutation()
            }
            LiveEvent::Delete { id } => {
                self.engine.advance_to(at)?;
                self.live()?.index.delete(*id)?;
                self.book_mutation()
            }
        }
    }

    /// Feeds a whole `(arrival, event)` trace (already time-ordered) and
    /// drains; convenience over [`offer`](Self::offer) + [`finish`](Self::finish).
    pub fn serve_trace(
        mut self,
        trace: &[(VirtualDuration, LiveEvent)],
    ) -> Result<(LiveReport, MutableIndex)> {
        for (at, event) in trace {
            self.offer(*at, event)?;
        }
        self.finish()
    }

    /// Drains every in-flight session and in-flight compaction, then
    /// returns the report and the index (with every delta op and
    /// installed generation intact) for further serving.
    pub fn finish(self) -> Result<(LiveReport, MutableIndex)> {
        let drained = self.engine.finish()?;
        let Some(Live {
            index, mut stats, ..
        }) = drained.live
        else {
            return Err(inconsistent("live server without its index"));
        };
        stats.queries = drained.stats.completed;
        stats.chunks_fed = drained.stats.feeds;
        let final_chunk_loads = index
            .base()
            .metas()
            .iter()
            .map(|m| m.count as usize)
            .collect();
        let completions = drained.outputs.into_iter().zip(self.queries);
        let report = LiveReport {
            completions: completions
                .map(|(done, query)| LiveCompletion {
                    id: done.id,
                    query,
                    arrival: done.arrival,
                    finish: done.finish,
                    snapshot: done.snapshot,
                    result: done.result,
                })
                .collect(),
            stats,
            final_chunk_loads,
            makespan: drained.makespan.max(drained.now),
        };
        Ok((report, index))
    }

    /// Books one applied mutation: its manifest append is charged as
    /// fleet I/O, and the compaction policy is consulted.
    fn book_mutation(&mut self) -> Result<()> {
        let model = self.live()?.index.model();
        let append = model.io_time(eff2_storage::chunkfile::RECORD_BYTES as u64);
        self.engine.charge(append, VirtualDuration::ZERO);
        self.live()?.mutation_applied()
    }
}

impl std::fmt::Debug for LiveServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("LiveServer");
        if let Some(live) = &self.engine.live {
            out.field("policy", &live.policy)
                .field("generation", &live.index.generation())
                .field("epoch", &live.index.epoch());
        }
        out.field("active", &self.engine.active())
            .field("now", &self.engine.now())
            .finish()
    }
}

/// Builds a time-ordered live trace by merging query arrivals with
/// mutation arrivals (each `(at, event)`); ties go to the earlier list
/// position, queries before mutations at the exact same instant.
pub fn merge_timelines(
    queries: &[(Vector, VirtualDuration)],
    mutations: &[(VirtualDuration, LiveEvent)],
) -> Vec<(VirtualDuration, LiveEvent)> {
    let mut q: VecDeque<(VirtualDuration, LiveEvent)> = queries
        .iter()
        .map(|(v, at)| (*at, LiveEvent::Query(*v)))
        .collect();
    let mut m: VecDeque<(VirtualDuration, LiveEvent)> = mutations.iter().cloned().collect();
    let mut out = Vec::with_capacity(q.len() + m.len());
    while !q.is_empty() || !m.is_empty() {
        let take_q = match (q.front(), m.front()) {
            (Some((qa, _)), Some((ma, _))) => qa.as_secs() <= ma.as_secs(),
            (Some(_), None) => true,
            _ => false,
        };
        if take_q {
            if let Some(e) = q.pop_front() {
                out.push(e);
            }
        } else if let Some(e) = m.pop_front() {
            out.push(e);
        }
    }
    out
}
