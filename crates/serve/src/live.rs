//! Serving under live mutation: queries, inserts and deletes on one
//! merged arrival timeline, with online compaction interleaved tick-for-
//! tick with the search work.
//!
//! A [`LiveServer`] owns a [`MutableIndex`] and drives everything on one
//! fleet [`PipelineClock`]:
//!
//! * a **query** arrival pins the index's current epoch
//!   ([`MutableIndex::pin`]) into an immutable
//!   [`EpochSnapshot`] — that session sees exactly that epoch for its
//!   whole life, no matter what later events do;
//! * a **mutation** arrival appends to the delta chunk (and is charged
//!   its manifest append on the fleet clock);
//! * when the [`CompactionPolicy`] fires, the compactor's fold is planned
//!   immediately ([`MutableIndex::begin_compaction`] — the fold is a pure
//!   function of the pinned state, so planning eagerly is deterministic)
//!   but its modelled cost is paid as a series of **compaction ticks**
//!   interleaved 1:1 with session-feeding ticks; the new generation
//!   installs only once its last tick is paid. Sessions admitted in the
//!   interim still pin the old generation — there are no torn epochs by
//!   construction.
//!
//! The headline property (proptested in `tests/live_mutation.rs`): every
//! completion's [`SearchResult`] is bit-identical to a solo run of the
//! same query against the completion's own pinned snapshot.

use crate::error::Result;
use eff2_core::search::{SearchParams, SearchResult};
use eff2_core::session::{ChunkRanking, SearchSession};
use eff2_core::EpochSnapshot;
use eff2_descriptor::Vector;
use eff2_epoch::{CompactionPlan, CompactionStats, MutableIndex};
use eff2_storage::chunkfile::ChunkPayload;
use eff2_storage::diskmodel::{PipelineClock, VirtualDuration};
use eff2_storage::source::SourcedChunk;
use eff2_storage::store::ChunkReader;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

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
    /// [`EpochSnapshot::search`] against it must reproduce `result`
    /// bit-for-bit.
    pub snapshot: EpochSnapshot,
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

/// A query in flight, pinned to its admission-time epoch.
struct LiveActive {
    session: SearchSession,
    snapshot: EpochSnapshot,
    query: Vector,
    arrival: VirtualDuration,
}

/// A compaction whose fold is written but whose modelled cost is still
/// being paid tick by tick.
struct InFlightCompaction {
    plan: CompactionPlan,
    ticks_left: u64,
    io_per_tick: VirtualDuration,
    cpu_per_tick: VirtualDuration,
}

/// The live-mutation server. See the [module docs](self).
pub struct LiveServer {
    index: MutableIndex,
    params: SearchParams,
    policy: CompactionPolicy,
    clock: PipelineClock,
    next_query_id: u64,
    ops_since_compaction: usize,
    active: BTreeMap<u64, LiveActive>,
    fair_cursor: u64,
    /// One reader per generation still serving a session (old generation
    /// files outlive their swap exactly as long as a pin needs them).
    readers: BTreeMap<u64, ChunkReader>,
    compaction: Option<InFlightCompaction>,
    payload_buf: ChunkPayload,
    completions: Vec<LiveCompletion>,
    stats: LiveStats,
}

impl LiveServer {
    /// A server over `index`, answering every query with `params` and
    /// compacting per `policy`.
    pub fn new(index: MutableIndex, params: SearchParams, policy: CompactionPolicy) -> LiveServer {
        LiveServer {
            index,
            params,
            policy,
            clock: PipelineClock::start_at(VirtualDuration::ZERO),
            next_query_id: 0,
            ops_since_compaction: 0,
            active: BTreeMap::new(),
            fair_cursor: u64::MAX,
            readers: BTreeMap::new(),
            compaction: None,
            payload_buf: ChunkPayload::default(),
            completions: Vec::new(),
            stats: LiveStats::default(),
        }
    }

    /// The fleet clock.
    pub fn now(&self) -> VirtualDuration {
        self.clock.now()
    }

    /// The index being served (e.g. to inspect generation or epoch).
    pub fn index(&self) -> &MutableIndex {
        &self.index
    }

    /// Feeds one event arriving at `at`; events must arrive in
    /// non-decreasing time order. Backlog is processed up to the arrival
    /// instant first, so the event sees the fleet as it stands *at* `at`.
    pub fn offer(&mut self, at: VirtualDuration, event: &LiveEvent) -> Result<()> {
        self.advance_to(at)?;
        match event {
            LiveEvent::Query(query) => self.admit(*query, at),
            LiveEvent::Insert { id, vector } => {
                self.index.insert(*id, *vector)?;
                self.book_mutation()
            }
            LiveEvent::Delete { id } => {
                self.index.delete(*id)?;
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
    pub fn finish(mut self) -> Result<(LiveReport, MutableIndex)> {
        while !self.active.is_empty() || self.compaction.is_some() {
            self.tick()?;
        }
        let makespan = self
            .completions
            .iter()
            .map(|c| c.finish)
            .fold(self.clock.now(), VirtualDuration::max);
        let mut completions = std::mem::take(&mut self.completions);
        completions.sort_by_key(|c| c.id);
        let final_chunk_loads = self
            .index
            .base()
            .metas()
            .iter()
            .map(|m| m.count as usize)
            .collect();
        let report = LiveReport {
            completions,
            stats: self.stats,
            final_chunk_loads,
            makespan,
        };
        Ok((report, self.index))
    }

    /// Admits one query: pin the current epoch, rank its chunks (charged
    /// on the fleet clock), seed the session with the pinned delta.
    fn admit(&mut self, query: Vector, arrival: VirtualDuration) -> Result<()> {
        let snapshot = self.index.pin();
        let mut ranking = ChunkRanking::default();
        snapshot.base().rank_into(&mut ranking, &query);
        let rank_cpu = snapshot
            .base()
            .model()
            .rank_time(snapshot.base().n_chunks());
        let ranked_at = self.clock.chunk_overlapped(VirtualDuration::ZERO, rank_cpu);
        let session = snapshot.session_from_ranking(ranking, &query, &self.params);
        let id = self.next_query_id;
        self.next_query_id += 1;
        let active = LiveActive {
            session,
            snapshot,
            query,
            arrival,
        };
        if active.session.stop_satisfied() || active.session.next_wanted().is_none() {
            self.retire(id, active, ranked_at);
        } else {
            if let Entry::Vacant(slot) = self.readers.entry(active.snapshot.generation()) {
                slot.insert(active.snapshot.base().store().reader()?);
            }
            self.active.insert(id, active);
        }
        Ok(())
    }

    /// Books one applied mutation: its manifest append is charged as
    /// fleet I/O, and the compaction policy is consulted.
    fn book_mutation(&mut self) -> Result<()> {
        self.stats.mutations += 1;
        self.ops_since_compaction += 1;
        let append = self
            .index
            .model()
            .io_time(eff2_storage::chunkfile::RECORD_BYTES as u64);
        let _ = self.clock.chunk_overlapped(append, VirtualDuration::ZERO);
        if let CompactionPolicy::EveryOps(n) = self.policy {
            if self.compaction.is_none() && self.ops_since_compaction >= n.max(1) {
                self.begin_compaction()?;
            }
        }
        Ok(())
    }

    /// Plans the fold now (deterministically, from the pinned state) and
    /// schedules its cost over one tick per folded chunk.
    fn begin_compaction(&mut self) -> Result<()> {
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

    /// Processes backlog until the fleet clock reaches `t`; an idle fleet
    /// jumps straight there.
    fn advance_to(&mut self, t: VirtualDuration) -> Result<()> {
        while (!self.active.is_empty() || self.compaction.is_some())
            && self.clock.now().as_secs() < t.as_secs()
        {
            self.tick()?;
        }
        if self.clock.now().as_secs() < t.as_secs() {
            self.clock = PipelineClock::start_at(t);
        }
        Ok(())
    }

    /// One fleet tick: feed one session its next chunk (round-robin),
    /// then pay one compaction tick — the 1:1 interleave that keeps the
    /// fold from starving the serve path (and vice versa).
    fn tick(&mut self) -> Result<()> {
        self.feed_one()?;
        self.compaction_tick()?;
        Ok(())
    }

    /// Round-robin: feed the next active session one chunk from its
    /// pinned generation.
    fn feed_one(&mut self) -> Result<()> {
        let Some(id) = self
            .active
            .range(self.fair_cursor.saturating_add(1)..)
            .map(|(id, _)| *id)
            .next()
            .or_else(|| self.active.keys().next().copied())
        else {
            return Ok(());
        };
        self.fair_cursor = id;
        let (chunk_id, generation) = {
            let Some(a) = self.active.get(&id) else {
                return Ok(());
            };
            let Some(chunk_id) = a.session.next_wanted() else {
                return Ok(());
            };
            (chunk_id, a.snapshot.generation())
        };
        let Some(reader) = self.readers.get_mut(&generation) else {
            return Ok(());
        };
        let bytes_read = reader.read_chunk(chunk_id, &mut self.payload_buf)?;
        let payload = Arc::new(std::mem::take(&mut self.payload_buf));
        let chunk = SourcedChunk {
            id: chunk_id,
            payload,
            bytes_read,
        };
        let io = self.index.model().io_time(bytes_read);
        let cpu = self.index.model().scan_time(chunk.payload.len());
        let done = self.clock.chunk_overlapped(io, cpu);
        self.stats.chunks_fed += 1;
        let Some(a) = self.active.get_mut(&id) else {
            return Ok(());
        };
        a.session.step_with(&chunk)?;
        if a.session.stop_satisfied() || a.session.next_wanted().is_none() {
            if let Some(a) = self.active.remove(&id) {
                self.retire(id, a, done);
            }
        }
        Ok(())
    }

    /// Pays one slice of the in-flight compaction; installs the new
    /// generation when the last slice is paid.
    fn compaction_tick(&mut self) -> Result<()> {
        let Some(c) = self.compaction.as_mut() else {
            return Ok(());
        };
        let _ = self.clock.chunk_overlapped(c.io_per_tick, c.cpu_per_tick);
        self.stats.compaction_ticks += 1;
        c.ticks_left -= 1;
        if c.ticks_left == 0 {
            let Some(c) = self.compaction.take() else {
                return Ok(());
            };
            let stats = self.index.install_compaction(c.plan)?;
            self.stats.compactions += 1;
            self.stats.max_installed_chunk =
                self.stats.max_installed_chunk.max(stats.max_chunk_after);
            // Readers for generations no session pins any more are let go;
            // the files stay on disk for pins held outside the server.
            let live_gens: Vec<u64> = self
                .active
                .values()
                .map(|a| a.snapshot.generation())
                .collect();
            self.readers.retain(|g, _| live_gens.contains(g));
            self.stats.compaction_log.push(stats);
        }
        Ok(())
    }

    /// Books a finished session.
    fn retire(&mut self, id: u64, active: LiveActive, finish: VirtualDuration) {
        self.stats.queries += 1;
        self.completions.push(LiveCompletion {
            id,
            query: active.query,
            arrival: active.arrival,
            finish,
            snapshot: active.snapshot,
            result: active.session.into_result(),
        });
    }
}

impl std::fmt::Debug for LiveServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveServer")
            .field("policy", &self.policy)
            .field("active", &self.active.len())
            .field("generation", &self.index.generation())
            .field("epoch", &self.index.epoch())
            .field("now", &self.clock.now())
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
