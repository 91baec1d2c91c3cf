//! The one serving loop behind [`Scheduler`](crate::Scheduler),
//! [`ImageScheduler`](crate::ImageScheduler),
//! [`FleetScheduler`](crate::FleetScheduler) and
//! [`LiveServer`](crate::LiveServer).
//!
//! The unit of work is a descriptor [`SearchSession`] keyed `(job id,
//! member)`: in every configuration a query is **one** session over its
//! global chunk ranking, and the **device set** of 1..N nodes — each its own
//! [`PipelineClock`] plus, per compaction generation it serves, a
//! [`ResidentSource`] cache, chunk reader and fault-plan attempt counters —
//! only *delivers* chunks to it. The engine owns, exactly once: admission
//! (monotone arrivals, the [`Overloaded`](ServeError::Overloaded) gate, the
//! pending queue, id assignment, the [`Snapshot`] each job is pinned to),
//! ranking and its charge on the session's home device, the drive loop, the
//! choice of the next device (the earliest clock with something to
//! deliver), the [`Policy`] pick, the routing of a fetch across copies
//! (owners, down flags, [`LossScope`], failover), fleet-clock charging and
//! retire bookkeeping. Each copy is tried by [`RetryPolicy::run`], the
//! retry loop a solo `RetrySource` runs; a recovered chunk's retries are
//! charged to the fleet clock, a lost chunk's to every waiting session.
//!
//! **Devices deliver, one session consumes in rank order.** What a session
//! wants from device `d` is the first not-yet-delivered rank within
//! [`LOOKAHEAD`] of its cursor whose reads are routed to `d`. A delivery — a
//! payload, or "lost after `spent`" — ahead of the cursor waits in a
//! rank-keyed buffer; after each delivery the session consumes whatever its
//! cursor now stands on (see `Member::advance`) until its own stop rule
//! fires. On one device the wanted chunk *is* the cursor rank, so nothing
//! ever waits. The engine walks each member's window once into a want
//! table — every device's wanted `(rank, chunk)` per member, in key order —
//! which the choice of device, the admission frontier and the pick all
//! read; a tick or an admission marks it stale, and the next reader
//! rebuilds it. Charging and counting happen at delivery: a speculative
//! delivery the session never consumes was still fetched, charged and
//! counted — the device did that work — and only its scan is skipped.
//!
//! What differs between the servers is how a job's member sessions fold
//! into one output — a [`Group`], chosen by the constructor's type: `Plain`
//! (`scheduler.rs`; also the fleet's and the live server's) or `ImageVotes`
//! (`image.rs`). Grouping and device set are independent.
//!
//! A job sees one snapshot for its whole life: the one the engine was
//! built over, or — when the engine holds a mutable index ([`Live`]) — the
//! epoch that index stands at when the job is admitted. Chunk
//! ids of different generations name different bytes, so everything keyed
//! by chunk — the device caches, the most-wanted-chunk tally — is keyed by
//! `(generation, chunk)`, and a superseded generation's device state is let
//! go when the last job pinned to it retires.
//!
//! Two clocks run here. Each session keeps its *private* clock — per-query
//! cost as if the query ran alone, which is why every per-query figure is
//! bit-identical to a solo run under any feeding order. The *fleet* clocks
//! (one per device) say when each chunk's I/O and the fanned-out scans
//! actually complete: a delivery charges its I/O on the delivering device
//! ([`PipelineClock::io_done_after`]) and the scans on the ticking device
//! ([`PipelineClock::cpu_after`]) — the pair `chunk_overlapped` decomposes
//! into, so on one device the two are the same charge. Cache hits cost the
//! fleet no I/O; every fed session costs its scan CPU.
//!
//! A tick that cannot make progress while jobs are active is a scheduler
//! bug, not a workload property (an open session's cursor rank is always
//! wanted from some device): it surfaces as a typed
//! `Inconsistent("… stalled …")` error in every configuration.

#![expect(
    clippy::indexing_slicing,
    reason = "device vectors are sized by the device count at construction and indexed by device ids the engine or the ShardMap produced"
)]

use crate::error::{Result, ServeError};
use crate::fleet::LossScope;
use crate::live::Live;
use crate::scheduler::{Policy, SchedulerConfig, ServeStats, DEADLINE};
use eff2_chaos::RetryPolicy;
use eff2_core::search::{SearchParams, SearchResult};
use eff2_core::session::SearchSession;
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::Vector;
use eff2_shard::ShardMap;
use eff2_storage::diskmodel::{PipelineClock, VirtualDuration};
use eff2_storage::source::{ResidentSource, ResidentStats, SourcedChunk};
use eff2_storage::store::ChunkReader;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// `(job id, member)` — key order is admission order, then member order,
/// which every policy tie-break inherits.
pub(crate) type Key = (u64, u32);

/// One entry of the engine's want table: session `key` (of a job pinned to
/// `generation`) wants `chunk`, at `rank` of its ranking, from `device`.
#[derive(Clone, Copy, Debug)]
struct Want {
    device: usize,
    key: Key,
    generation: u64,
    rank: usize,
    chunk: usize,
}

/// A most-wanted-chunk tally entry: the bytes wanted, then who wants them
/// at which rank.
type Tallied = ((u64, usize), (Key, usize));

/// The most-wanted pick over `tally`, one entry per session wanting
/// something from the ticking device, filled in key order: the
/// `(generation, chunk)` the most sessions want, ties to the smallest, with
/// those sessions appended to `fed` in key order. `tally` is left sorted.
fn most_wanted(tally: &mut [Tallied], fed: &mut Vec<(Key, usize)>) -> Option<usize> {
    // Keys are unique in the tally, so the whole-tuple order is the stable
    // order by `(generation, chunk)` — and an unstable sort never allocates.
    tally.sort_unstable();
    // `min_by_key` keeps the first of equal keys: the first longest run.
    let run = (tally.chunk_by(|a, b| a.0 == b.0)).min_by_key(|run| Reverse(run.len()))?;
    fed.extend(run.iter().map(|&(_, fed)| fed));
    run.first().map(|&((_, chunk), _)| chunk)
}

/// A broken scheduling invariant, as the typed error the storage layer
/// already uses for "this cannot happen on consistent state".
pub(crate) fn inconsistent(what: &str) -> ServeError {
    ServeError::Storage(eff2_storage::Error::Inconsistent(what.to_string()))
}

/// How far past its cursor a session takes deliveries, in ranks. Bounds
/// the out-of-order deliveries buffered per session; the cursor rank is
/// always wanted (or skipped), so any value ≥ 0 makes progress.
const LOOKAHEAD: usize = 8;

/// How a job's member sessions fold into one output.
pub(crate) trait Group {
    /// What a caller submits.
    type Spec: Clone;
    /// Per-job fold state.
    type Job;
    /// What a finished job yields.
    type Output;

    /// Opens a job: one [`Admission::open`] per member.
    fn admit(
        &mut self,
        cx: &mut Admission<'_>,
        spec: &Self::Spec,
        params: &SearchParams,
    ) -> Result<Self::Job>;

    /// A member finished with `result` at fleet time `at`.
    fn on_done(
        &mut self,
        job: &mut Self::Job,
        member: u32,
        result: SearchResult,
        at: VirtualDuration,
    );

    /// Whether the job is complete. Members still open then are torn
    /// down with it.
    fn finished(&self, job: &Self::Job) -> bool;

    /// Folds a finished job into its output.
    fn output(&mut self, retired: Retired, job: Self::Job) -> Result<Folded<Self::Output>>;
}

/// The engine-side facts of a job handed to [`Group::output`].
#[derive(Clone, Debug)]
pub(crate) struct Retired {
    pub(crate) id: u64,
    pub(crate) arrival: VirtualDuration,
    /// The snapshot the job was pinned to at admission.
    pub(crate) snapshot: Snapshot,
}

/// A finished job's output plus what retire bookkeeping needs of it.
pub(crate) struct Folded<O> {
    pub(crate) output: O,
    /// Fleet-clock time the job finished.
    pub(crate) finish: VirtualDuration,
    /// Whether the output lost at least one chunk.
    pub(crate) degraded: bool,
}

/// One simulated device: its own clock, and what it holds of each
/// generation it is serving.
struct Node {
    clock: PipelineClock,
    /// By compaction generation, opened by the first fetch here on behalf
    /// of a job pinned to it.
    shelves: BTreeMap<u64, Shelf>,
}

/// One device's view of one generation's chunk files.
struct Shelf {
    source: ResidentSource,
    /// One lazily-opened chunk reader reused across every cache miss.
    reader: Option<ChunkReader>,
    /// This copy's attempt counters under the injected fault plan, kept
    /// by [`FaultPlan::attempt`](eff2_chaos::FaultPlan::attempt) as a
    /// `FaultSource` keeps its own: transient faults clear after the same
    /// number of probes as in a serial run against this node.
    chaos_attempts: BTreeMap<usize, u32>,
}

impl Node {
    /// This device's shelf for `snapshot`'s generation.
    fn shelf(&mut self, snapshot: &Snapshot, cache_budget_bytes: u64) -> &mut Shelf {
        self.shelves
            .entry(snapshot.generation())
            .or_insert_with(|| Shelf {
                source: snapshot.resident_source(cache_budget_bytes),
                reader: None,
                chaos_attempts: BTreeMap::new(),
            })
    }
}

/// Adds `s`'s event counters to `total`. The resident figures are a
/// point-in-time reading and stay with whoever still holds the cache.
fn add_counters(total: &mut ResidentStats, s: &ResidentStats) {
    total.hits += s.hits;
    total.cross_query_hits += s.cross_query_hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
}

/// The device set: 1..N nodes plus which of them hold each chunk.
pub(crate) struct Devices {
    nodes: Vec<Node>,
    /// Chunk → owning devices, primary first; `None` is the one-device
    /// set, where device 0 owns everything.
    map: Option<Arc<ShardMap>>,
    /// Static down flags per device, fixed for the run.
    down: Vec<bool>,
    loss_scope: LossScope,
}

impl Devices {
    /// One node per shard of `placed` (the placement table, the static
    /// down flags and the loss scope) — or, with `None`, the single device
    /// that owns every chunk.
    pub(crate) fn new(placed: Option<(Arc<ShardMap>, Vec<bool>, LossScope)>) -> Devices {
        let (map, down, loss_scope) = match placed {
            Some((map, down, loss_scope)) => (Some(map), down, loss_scope),
            None => (None, vec![false], LossScope::Primary),
        };
        let nodes = (down.iter())
            .map(|_| Node {
                clock: PipelineClock::start_at(VirtualDuration::ZERO),
                shelves: BTreeMap::new(),
            })
            .collect();
        Devices {
            nodes,
            map,
            down,
            loss_scope,
        }
    }

    /// The device reads of `chunk` are routed to — its first live owner —
    /// or `None` when every copy is on a downed device.
    fn route(&self, chunk: usize) -> Option<usize> {
        match &self.map {
            None => Some(0),
            Some(map) => map.route(chunk, &self.down).map(|d| d as usize),
        }
    }

    /// Every `(device, rank, chunk)` `member` wants, one per device at
    /// most: from each device, the first not-yet-delivered rank within
    /// [`LOOKAHEAD`] of its cursor whose reads are routed there. The cursor
    /// rank is never delivered yet, so it is wanted from wherever it is
    /// routed — on one device, it is the only want.
    fn wants_of(&self, member: &Member, want: impl FnMut(usize, usize, usize)) {
        let session = &member.session;
        if session.next_wanted().is_none() {
            return;
        }
        let cursor = session.cursor();
        let ranking = session.ranking();
        let end = ranking.len().min(cursor.saturating_add(LOOKAHEAD + 1));
        let delivered = delivered_mask(cursor, &member.ahead);
        self.window_wants(cursor, end, delivered, |rank| ranking.chunk_at(rank), want);
    }

    /// One walk of the window `cursor..end` (`chunk_at` names each rank's
    /// chunk; bit `i` of `delivered` says rank `cursor + i` is already
    /// delivered): each rank is routed once, and the first rank routed to
    /// a device not yet served yields `(device, rank, chunk)`. The cursor
    /// rank is taken as undelivered. Stops once every device is served.
    fn window_wants(
        &self,
        cursor: usize,
        end: usize,
        delivered: u32,
        chunk_at: impl Fn(usize) -> usize,
        mut want: impl FnMut(usize, usize, usize),
    ) {
        let mut served = [usize::MAX; LOOKAHEAD + 1];
        let mut n_served = 0;
        for (offset, rank) in (cursor..end).enumerate() {
            if offset > 0 && delivered >> offset & 1 == 1 {
                continue;
            }
            let chunk = chunk_at(rank);
            let Some(device) = self.route(chunk) else {
                continue;
            };
            if served[..n_served].contains(&device) {
                continue;
            }
            served[n_served] = device;
            n_served += 1;
            want(device, rank, chunk);
            if n_served == self.nodes.len() {
                return;
            }
        }
    }

    /// Modelled cost of discovering that every owner of a chunk is down:
    /// one failed probe per (downed) copy under `retry`.
    fn down_probe_cost(&self, retry: &RetryPolicy) -> VirtualDuration {
        let copies = self.map.as_deref().map_or(1, ShardMap::replication);
        retry.probe_cost(copies as u32)
    }
}

/// The ranks of `ahead` as bits relative to `cursor`: bit `i` set when
/// rank `cursor + i` is waiting there. Every waiting rank lies within
/// [`LOOKAHEAD`] past the cursor.
fn delivered_mask(cursor: usize, ahead: &[(usize, Delivery, VirtualDuration)]) -> u32 {
    ahead
        .iter()
        .filter_map(|(rank, ..)| rank.checked_sub(cursor))
        .filter(|&offset| offset <= LOOKAHEAD)
        .fold(0, |mask, offset| mask | 1 << offset)
}

/// What a device handed a session for one ranked chunk.
enum Delivery {
    /// A copy delivered the payload.
    Chunk(SourcedChunk),
    /// Every live copy failed, after `spent` of modelled probing.
    Lost { spent: VirtualDuration },
}

/// One member session in flight.
struct Member {
    session: SearchSession,
    /// The routed owner of the first-ranked chunk: ranking CPU is charged
    /// there, deliveries from elsewhere count as cross-device fetches.
    home: usize,
    /// Deliveries not yet consumed — at most [`LOOKAHEAD`] + 1 — each with
    /// its rank and the fleet time its scan was charged to complete at.
    ahead: Vec<(usize, Delivery, VirtualDuration)>,
    /// Latest of the ranking charge and the consumed deliveries' times.
    finish: VirtualDuration,
}

impl Member {
    /// Takes `delivered` (nothing at admission), then consumes in rank
    /// order for as long as the cursor rank is available: a delivered rank
    /// is scanned or skipped, a rank no live device owns is skipped at the
    /// down-probe cost (charged to the private clock only — no device did
    /// work). Ends when the session's stop rule fires; deliveries still
    /// waiting then were already charged to the device clocks. Returns the
    /// unreachable ranks skipped.
    fn advance(
        &mut self,
        delivered: Option<(usize, Delivery, VirtualDuration)>,
        devices: &Devices,
        retry: &RetryPolicy,
    ) -> Result<u64> {
        self.ahead.extend(delivered);
        let mut unreachable = 0;
        while !self.session.stop_satisfied() {
            let cursor = self.session.cursor();
            if let Some(pos) = self.ahead.iter().position(|(rank, ..)| *rank == cursor) {
                let (_, delivery, at) = self.ahead.swap_remove(pos);
                match delivery {
                    Delivery::Chunk(chunk) => {
                        self.session.step_with(&chunk)?;
                    }
                    Delivery::Lost { spent } => {
                        self.session.skip_unavailable(spent)?;
                    }
                }
                self.finish = self.finish.max(at);
            } else if devices
                .route(self.session.ranking().chunk_at(cursor))
                .is_none()
            {
                self.session
                    .skip_unavailable(devices.down_probe_cost(retry))?;
                unreachable += 1;
            } else {
                break;
            }
        }
        Ok(unreachable)
    }
}

/// An admitted job: the engine-side facts plus the group's fold state.
struct Job<S> {
    arrival: VirtualDuration,
    /// What the job sees, fixed at admission.
    snapshot: Snapshot,
    /// Open members, ascending by member index.
    members: Vec<(u32, Member)>,
    state: S,
}

/// A job waiting for an execution slot.
struct Pending<Q> {
    id: u64,
    spec: Q,
    params: SearchParams,
    arrival: VirtualDuration,
}

/// What [`Group::admit`] works through: the snapshot, the device set, and
/// the member list of the job being opened.
pub(crate) struct Admission<'a> {
    /// The snapshot the job is pinned to.
    snapshot: &'a Snapshot,
    devices: &'a mut Devices,
    config: &'a SchedulerConfig,
    stats: &'a mut ServeStats,
    members: Vec<(u32, Member)>,
}

impl Admission<'_> {
    /// Device 0's fleet clock.
    pub(crate) fn now(&self) -> VirtualDuration {
        self.devices.nodes[0].clock.now()
    }

    /// Opens the session of `member` for `query`: ranks every chunk,
    /// charges the ranking as CPU on the session's home device (the index itself is memory-resident in the serving
    /// layer), and skips any unreachable ranks the cursor starts on.
    /// Returns when the ranking is done, plus — for a session that needs
    /// no delivery at all (`k = 0`, an empty index, a zero-chunk stop
    /// rule, nothing reachable) — its result instead of an open member.
    pub(crate) fn open(
        &mut self,
        member: u32,
        query: &Vector,
        params: &SearchParams,
    ) -> Result<(VirtualDuration, Option<SearchResult>)> {
        let session = self.snapshot.session(query, params);
        let ranking = session.ranking();
        let first = (!ranking.is_empty()).then(|| ranking.chunk_at(0));
        let home = first.and_then(|c| self.devices.route(c)).unwrap_or(0);
        let rank_cpu = self.snapshot.model().rank_time(self.snapshot.n_chunks());
        let ranked_at = self.devices.nodes[home]
            .clock
            .chunk_overlapped(VirtualDuration::ZERO, rank_cpu);
        let mut opened = Member {
            session,
            home,
            ahead: Vec::new(),
            finish: ranked_at,
        };
        self.stats.chunks_abandoned += opened.advance(None, self.devices, &self.config.retry)?;
        if opened.session.stop_satisfied() {
            return Ok((ranked_at, Some(opened.session.into_result())));
        }
        self.members.push((member, opened));
        Ok((ranked_at, None))
    }
}

/// What one fault-aware fetch produced.
enum Acquired {
    /// A copy on device `from` delivered `chunk`; `injected` is the fleet's
    /// extra latency (spikes plus the cost of failed attempts), which the
    /// chunk does not carry — a session's private clock runs as if alone.
    Delivered {
        chunk: SourcedChunk,
        injected: VirtualDuration,
        from: usize,
    },
    /// Every live copy failed (or the retry budget ran out); `spent`
    /// modelled time was burned finding that out.
    Lost { spent: VirtualDuration },
}

/// Everything a drained engine hands back to its wrapper.
pub(crate) struct Drained<G: Group> {
    /// Outputs sorted by job id.
    pub(crate) outputs: Vec<G::Output>,
    pub(crate) stats: ServeStats,
    /// Fleet-clock time at which the last job finished.
    pub(crate) makespan: VirtualDuration,
    /// Device 0's fleet clock once everything was drained.
    pub(crate) now: VirtualDuration,
    /// Deliveries whose device differed from the fed job's home.
    pub(crate) cross_device_fetches: u64,
    /// Deliveries served by a non-primary copy.
    pub(crate) failovers: u64,
    /// The mutable index the engine held, if any.
    pub(crate) live: Option<Live>,
}

/// The serving engine. See the [module docs](self).
pub(crate) struct Engine<G: Group> {
    /// What the next admitted job sees.
    snapshot: Snapshot,
    config: SchedulerConfig,
    devices: Devices,
    group: G,
    /// A mutable index: each job is pinned to its current epoch at
    /// admission, and its compactor is the engine's background work.
    pub(crate) live: Option<Live>,
    last_arrival: VirtualDuration,
    next_id: u64,
    pending: VecDeque<Pending<G::Spec>>,
    jobs: BTreeMap<u64, Job<G::Job>>,
    /// Last turn served by [`Policy::FairShare`].
    fair_cursor: Key,
    /// What every open member wants from every device, in key order: the
    /// one want pass that [`next_device`](Self::next_device), the
    /// admission frontier and [`pick`](Self::pick) all read.
    wants: Vec<Want>,
    /// Whether `wants` is current: a tick or an admission clears it, and
    /// the next reader rebuilds the table.
    wants_fresh: bool,
    /// Scratch for the most-wanted-chunk tally, reused every tick.
    tally: Vec<Tallied>,
    /// The sessions the current pick feeds, each with the rank the chunk
    /// holds in its ranking, in key order; reused every tick.
    fed: Vec<(Key, usize)>,
    /// Finished jobs' outputs by job id.
    outputs: BTreeMap<u64, G::Output>,
    makespan: VirtualDuration,
    stats: ServeStats,
    cross_device_fetches: u64,
    failovers: u64,
}

impl<G: Group> Engine<G> {
    /// An engine over `snapshot` running `group` jobs on `devices`.
    pub(crate) fn new(
        snapshot: Snapshot,
        config: SchedulerConfig,
        devices: Devices,
        group: G,
    ) -> Engine<G> {
        let stats = ServeStats {
            disk_reads_by_shard: vec![0; devices.nodes.len()],
            ..ServeStats::default()
        };
        Engine {
            snapshot,
            config: SchedulerConfig {
                max_active: config.max_active.max(1),
                ..config
            },
            devices,
            group,
            live: None,
            last_arrival: VirtualDuration::ZERO,
            next_id: 0,
            pending: VecDeque::new(),
            jobs: BTreeMap::new(),
            fair_cursor: (u64::MAX, u32::MAX),
            wants: Vec::new(),
            wants_fresh: false,
            tally: Vec::new(),
            fed: Vec::new(),
            outputs: BTreeMap::new(),
            makespan: VirtualDuration::ZERO,
            stats,
            cross_device_fetches: 0,
            failovers: 0,
        }
    }

    /// Jobs currently in flight.
    pub(crate) fn active(&self) -> usize {
        self.jobs.len()
    }

    /// Device 0's fleet clock.
    pub(crate) fn now(&self) -> VirtualDuration {
        self.devices.nodes[0].clock.now()
    }

    /// Offers one job arriving at virtual time `arrival`. The engine first
    /// catches up — processing backlog until the fleet clock reaches the
    /// arrival — so admission control sees the queue as it stands *at* the
    /// arrival instant. Returns the job's id, or
    /// [`ServeError::Overloaded`] if the wait queue is full (the job is
    /// counted as rejected and the run continues).
    pub(crate) fn submit(
        &mut self,
        spec: &G::Spec,
        params: &SearchParams,
        arrival: VirtualDuration,
    ) -> Result<u64> {
        self.arrive(arrival)?;
        self.stats.submitted += 1;
        self.drain(Some(arrival))?;
        if self.jobs.len() >= self.config.max_active && self.pending.len() >= self.config.max_queued
        {
            self.stats.rejected += 1;
            return Err(ServeError::Overloaded {
                queued: self.pending.len(),
                capacity: self.config.max_queued,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back(Pending {
            id,
            spec: spec.clone(),
            params: *params,
            arrival,
        });
        self.catch_up()?;
        Ok(id)
    }

    /// Submits a whole trace of `(spec, arrival)` pairs (already in
    /// arrival order) and drains. Overload rejections are recorded in
    /// [`ServeStats::rejected`] rather than aborting the run.
    pub(crate) fn serve_trace(
        mut self,
        trace: &[(G::Spec, VirtualDuration)],
        params: &SearchParams,
    ) -> Result<Drained<G>> {
        for (spec, arrival) in trace {
            match self.submit(spec, params, *arrival) {
                Ok(_) | Err(ServeError::Overloaded { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        self.finish()
    }

    /// Drains every admitted job and hands everything back.
    pub(crate) fn finish(mut self) -> Result<Drained<G>> {
        self.drain(None)?;
        let cache = &mut self.stats.cache;
        for shelf in self.devices.nodes.iter().flat_map(|n| n.shelves.values()) {
            let s = shelf.source.stats();
            add_counters(cache, &s);
            cache.resident_bytes += s.resident_bytes;
            cache.resident_chunks += s.resident_chunks;
        }
        Ok(Drained {
            now: self.now(),
            outputs: self.outputs.into_values().collect(),
            stats: self.stats,
            makespan: self.makespan,
            cross_device_fetches: self.cross_device_fetches,
            failovers: self.failovers,
            live: self.live,
        })
    }

    /// Moves the arrival frontier to `arrival`, refusing one that lies
    /// behind it: every arrival, job or not, is on one timeline.
    fn arrive(&mut self, arrival: VirtualDuration) -> Result<()> {
        if arrival.as_secs() < self.last_arrival.as_secs() {
            return Err(ServeError::NonMonotoneArrival {
                prev_secs: self.last_arrival.as_secs(),
                next_secs: arrival.as_secs(),
            });
        }
        self.last_arrival = arrival;
        Ok(())
    }

    /// An arrival at `t` that is not a job (a mutation): processes backlog
    /// until the fleet clock reaches `t`; devices idle behind `t` then jump
    /// to it — what the arrival sees before it [charges](Self::charge) its
    /// own cost.
    pub(crate) fn advance_to(&mut self, t: VirtualDuration) -> Result<()> {
        self.arrive(t)?;
        self.drain(Some(t))?;
        self.jump_to(t);
        Ok(())
    }

    /// Charges work that belongs to no job on device 0's fleet clock.
    pub(crate) fn charge(&mut self, io: VirtualDuration, cpu: VirtualDuration) {
        let _ = self.devices.nodes[0].clock.chunk_overlapped(io, cpu);
    }

    /// The drive loop: processes backlog until the next tick's device
    /// clock reaches `until` (or, with `None`, until nothing is left).
    /// Every tick is followed by one `(io, cpu)` slice of the index's
    /// [background work](Live::background), charged on device 0; with no
    /// job left, device 0 pays the slices on their own.
    fn drain(&mut self, until: Option<VirtualDuration>) -> Result<()> {
        loop {
            self.catch_up()?;
            let device = if !self.jobs.is_empty() {
                Some(self.next_device().ok_or_else(|| {
                    inconsistent("engine stalled: active jobs but no runnable device")
                })?)
            } else if self.pending.is_empty() {
                None
            } else {
                continue; // instant completions drained a wave; re-admit
            };
            let now = self.devices.nodes[device.unwrap_or(0)].clock.now();
            if until.is_some_and(|t| now.as_secs() >= t.as_secs()) {
                return Ok(());
            }
            if let Some(device) = device {
                self.tick(device)?;
            }
            let slice = match &mut self.live {
                Some(live) => live.background()?,
                None => None,
            };
            match slice {
                Some((io, cpu)) => self.charge(io, cpu),
                None if device.is_none() => return Ok(()),
                None => {}
            }
        }
    }

    /// Admits eligible pending jobs; when idle, jumps lagging device
    /// clocks forward to the next arrival first.
    fn catch_up(&mut self) -> Result<()> {
        self.admit_eligible()?;
        if self.jobs.is_empty() {
            if let Some(front) = self.pending.front() {
                self.jump_to(front.arrival);
            }
            self.admit_eligible()?;
        }
        Ok(())
    }

    /// Devices idle behind `t` jump to it.
    fn jump_to(&mut self, t: VirtualDuration) {
        for node in &mut self.devices.nodes {
            if t.as_secs() > node.clock.now().as_secs() {
                node.clock = PipelineClock::start_at(t);
            }
        }
    }

    /// The device the next tick runs on: the earliest clock among devices
    /// some member wants a chunk from (ties on the lower device id).
    fn next_device(&mut self) -> Option<usize> {
        self.refresh_wants();
        let mut best: Option<(f64, usize)> = None;
        for (device, node) in self.devices.nodes.iter().enumerate() {
            let now = node.clock.now().as_secs();
            let earlier = best.is_none_or(|(t, _)| now.total_cmp(&t) == Ordering::Less);
            if earlier && self.wants.iter().any(|w| w.device == device) {
                best = Some((now, device));
            }
        }
        best.map(|(_, device)| device)
    }

    /// Moves pending jobs whose arrival the admission frontier has passed
    /// into active slots; a job the group reports finished straight away
    /// retires without ever being scheduled. The frontier is the next
    /// tick's device clock (the latest clock when nothing is runnable,
    /// e.g. the engine is idle).
    fn admit_eligible(&mut self) -> Result<()> {
        while self.jobs.len() < self.config.max_active {
            let next = self.next_device();
            let nodes = &self.devices.nodes;
            let frontier = match next {
                Some(device) => nodes[device].clock.now(),
                None => nodes
                    .iter()
                    .map(|n| n.clock.now())
                    .fold(VirtualDuration::ZERO, VirtualDuration::max),
            };
            let arrived = |p: &mut Pending<G::Spec>| p.arrival.as_secs() <= frontier.as_secs();
            let Some(p) = self.pending.pop_front_if(arrived) else {
                break;
            };
            // The job's work cannot be charged before the job exists, and
            // a device lagging behind the frontier had nothing it was
            // allowed to run.
            self.jump_to(p.arrival);
            if let Some(live) = &self.live {
                let superseded = std::mem::replace(&mut self.snapshot, live.pin());
                self.release(superseded.generation());
            }
            let snapshot = self.snapshot.clone();
            let mut cx = Admission {
                snapshot: &snapshot,
                devices: &mut self.devices,
                config: &self.config,
                stats: &mut self.stats,
                members: Vec::new(),
            };
            let state = self.group.admit(&mut cx, &p.spec, &p.params)?;
            let members = cx.members;
            self.wants_fresh = false;
            let job = Job {
                arrival: p.arrival,
                snapshot,
                members,
                state,
            };
            if self.group.finished(&job.state) {
                self.retire(p.id, job)?;
            } else {
                self.jobs.insert(p.id, job);
            }
        }
        Ok(())
    }

    /// Rebuilds the want table if a tick or an admission has changed it:
    /// one walk of every open member's window, in key order.
    fn refresh_wants(&mut self) {
        if self.wants_fresh {
            return;
        }
        self.wants.clear();
        for (&id, job) in &self.jobs {
            let generation = job.snapshot.generation();
            for (m, member) in &job.members {
                self.devices.wants_of(member, |device, rank, chunk| {
                    self.wants.push(Want {
                        device,
                        key: (id, *m),
                        generation,
                        rank,
                        chunk,
                    });
                });
            }
        }
        self.wants_fresh = true;
    }

    /// Which chunk to serve on `device` this tick; the sessions it feeds
    /// (each with the rank the chunk holds in its ranking) replace
    /// [`fed`](Self::fed), in key order.
    fn pick(&mut self, device: usize) -> Option<usize> {
        self.refresh_wants();
        self.fed.clear();
        let mut wants = self.wants.iter().filter(|w| w.device == device);
        match self.config.policy {
            Policy::FairShare => {
                let cursor = self.fair_cursor;
                let w = (wants.clone().find(|w| w.key > cursor)).or_else(|| wants.next())?;
                self.fed.push((w.key, w.rank));
                Some(w.chunk)
            }
            Policy::EarliestDeadline => {
                // Key: (deadline, remaining-work estimate, key). A pure
                // deadline key degenerates to FIFO whenever a burst shares
                // one arrival instant (every deadline ties, and ties on key
                // replay admission order); breaking ties by how little work
                // a session has left lets short queries slip past
                // equal-deadline long ones.
                let mut best: Option<(&Want, f64, usize)> = None;
                for w in wants {
                    let job = self.jobs.get(&w.key.0)?;
                    let at = (job.members.binary_search_by_key(&w.key.1, |(m, _)| *m)).ok()?;
                    let d = (job.arrival + DEADLINE).as_secs();
                    let work = job.members[at].1.session.remaining_work_estimate();
                    let better = best.is_none_or(|(_, bd, bw)| match d.total_cmp(&bd) {
                        Ordering::Less => true,
                        Ordering::Equal => work < bw,
                        Ordering::Greater => false,
                    });
                    if better {
                        best = Some((w, d, work));
                    }
                }
                let (w, ..) = best?;
                self.fed.push((w.key, w.rank));
                Some(w.chunk)
            }
            Policy::MostWantedChunk => {
                // Tallied by (generation, chunk): the same chunk id under
                // two generations names different bytes.
                self.tally.clear();
                self.tally
                    .extend(wants.map(|w| ((w.generation, w.chunk), (w.key, w.rank))));
                most_wanted(&mut self.tally, &mut self.fed)
            }
        }
    }

    /// One scheduling step on `device`: pick a chunk by policy, fetch it
    /// once, feed every selected session, settle the jobs that finish.
    fn tick(&mut self, device: usize) -> Result<()> {
        let chunk_id = self
            .pick(device)
            .ok_or_else(|| inconsistent("engine stalled: the ticking device has nothing to run"))?;
        // Feeding moves cursors and may retire jobs.
        self.wants_fresh = false;
        let fed = std::mem::take(&mut self.fed);
        let Some(&(first, _)) = fed.first() else {
            return Err(inconsistent("engine stalled: a pick fed no session"));
        };
        if self.config.policy == Policy::FairShare {
            self.fair_cursor = first;
        }
        let acquired = self.acquire(first, chunk_id)?;
        self.stats.ticks += 1;
        let model = *self.snapshot.model();
        let nodes = &mut self.devices.nodes;
        let (at, from) = match &acquired {
            Acquired::Delivered {
                chunk,
                injected,
                from,
            } => {
                self.stats.fetches += 1;
                if chunk.from_disk {
                    self.stats.disk_reads += 1;
                    self.stats.disk_reads_by_shard[*from] += 1;
                }
                // The chunk's I/O (nothing on a cache hit) plus injected
                // latency runs on the *delivering* device; the fanned-out
                // scans are CPU on the *ticking* device, one per fed
                // session summed in key order, ready no earlier than the
                // delivery.
                let io = if chunk.from_disk {
                    model.io_time(chunk.bytes_read) + *injected
                } else {
                    *injected
                };
                let io_done = nodes[*from].clock.io_done_after(io);
                let scan = model.scan_time(chunk.payload.len());
                let mut cpu = VirtualDuration::ZERO;
                for _ in &fed {
                    cpu += scan;
                }
                (nodes[device].clock.cpu_after(io_done, cpu), Some(*from))
            }
            Acquired::Lost { spent } => {
                // The wasted retry time is charged to the ticking device;
                // every session waiting on the chunk skips it.
                self.stats.chunks_abandoned += 1;
                let at = nodes[device]
                    .clock
                    .chunk_overlapped(*spent, VirtualDuration::ZERO);
                (at, None)
            }
        };
        for &(key, rank) in &fed {
            // A job finished earlier in this tick took its members with
            // it (an image stop rule tearing down siblings).
            let Some(job) = self.jobs.get_mut(&key.0) else {
                continue;
            };
            let Job { members, state, .. } = job;
            let Some(pos) = members.iter().position(|(m, _)| *m == key.1) else {
                continue;
            };
            let member = &mut members[pos].1;
            if from.is_some_and(|from| member.home != from) {
                self.cross_device_fetches += 1;
            }
            // Delivered — charged and counted — on this tick; scanned when
            // the session's cursor gets there: for the cursor rank, now.
            let delivery = match &acquired {
                Acquired::Delivered { chunk, .. } => {
                    self.stats.feeds += 1;
                    Delivery::Chunk(chunk.clone())
                }
                Acquired::Lost { spent } => Delivery::Lost { spent: *spent },
            };
            let delivered = Some((rank, delivery, at));
            self.stats.chunks_abandoned +=
                member.advance(delivered, &self.devices, &self.config.retry)?;
            if member.session.stop_satisfied() {
                let (m, member) = members.remove(pos);
                let result = member.session.into_result();
                self.group.on_done(state, m, result, member.finish);
            }
            if self.group.finished(state) {
                if let Some(job) = self.jobs.remove(&key.0) {
                    self.retire(key.0, job)?;
                }
            }
        }
        self.fed = fed;
        Ok(())
    }

    /// Fetches `chunk_id` for the session `first`: probe the owners in
    /// placement order (skipping statically-down devices — routing knows
    /// they are down, no probe is spent), running each live copy through
    /// [`RetryPolicy::run`] with the plan's faults drawn under the device
    /// set's [`LossScope`], before failing over to the next. The attempts
    /// are numbered across copies; what the failed ones cost rides the
    /// delivery's injected latency. Without a plan this is one plain fetch
    /// from the first live owner, whose error is returned.
    fn acquire(&mut self, first: Key, chunk_id: usize) -> Result<Acquired> {
        let Devices {
            nodes,
            map,
            down,
            loss_scope,
        } = &mut self.devices;
        let owners: &[u32] = map.as_deref().map_or(&[0], |m| m.owners(chunk_id));
        let primary = owners.first().copied().unwrap_or(0);
        let job = (self.jobs.get(&first.0))
            .ok_or_else(|| inconsistent("engine stalled: the picked session is gone"))?;
        // The cache-attribution tag: the session's key, the same on every
        // device, so a hit is a cross-query hit exactly when a different
        // session brought the chunk in.
        let requester = (first.0 << 32) | u64::from(first.1);
        let (mut probes, mut spent) = (0, VirtualDuration::ZERO);
        for &owner in owners.iter().filter(|&&o| !down[o as usize]) {
            let shelf = nodes[owner as usize].shelf(&job.snapshot, self.config.cache_budget_bytes);
            let mut read = || {
                shelf
                    .source
                    .fetch_through(requester, chunk_id, &mut shelf.reader)
            };
            let (chunk, injected) = match &self.config.fault_plan {
                None => (read()?, VirtualDuration::ZERO),
                Some(plan) => {
                    // Whether the permanent draw applies to this copy.
                    let permanent = *loss_scope == LossScope::AllCopies || owner == primary;
                    let attempt =
                        || plan.attempt(&mut shelf.chaos_attempts, chunk_id, permanent, &mut read);
                    match self.config.retry.run(chunk_id, probes, attempt) {
                        Ok(((chunk, delay), cost, retried)) => {
                            self.stats.fetch_retries += u64::from(retried);
                            (chunk, cost + delay)
                        }
                        // This copy is spent; fail over to the next.
                        Err(eff2_storage::Error::ChunkLost {
                            attempts,
                            spent: cost,
                            ..
                        }) => {
                            self.stats.fetch_retries += u64::from(attempts - 1);
                            (probes, spent) = (probes + attempts, cost);
                            continue;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            };
            self.failovers += u64::from(owner != primary);
            let from = owner as usize;
            return Ok(Acquired::Delivered {
                chunk,
                injected,
                from,
            });
        }
        Ok(Acquired::Lost { spent })
    }

    /// Lets go of every device's shelf for `generation` unless the next
    /// admission or a job in flight is pinned to it. The generation's
    /// files stay on disk for pins held outside the engine.
    fn release(&mut self, generation: u64) {
        let pinned = |s: &Snapshot| s.generation() == generation;
        if pinned(&self.snapshot) || self.jobs.values().any(|j| pinned(&j.snapshot)) {
            return;
        }
        for node in &mut self.devices.nodes {
            if let Some(shelf) = node.shelves.remove(&generation) {
                add_counters(&mut self.stats.cache, &shelf.source.stats());
            }
        }
    }

    /// Books a finished job (already out of the job table): members still
    /// open are torn down with it, the group folds its output, the
    /// counters move, a generation nobody is pinned to any more is
    /// released.
    fn retire(&mut self, id: u64, job: Job<G::Job>) -> Result<()> {
        let generation = job.snapshot.generation();
        let retired = Retired {
            id,
            arrival: job.arrival,
            snapshot: job.snapshot,
        };
        let folded = self.group.output(retired, job.state)?;
        self.release(generation);
        self.stats.completed += 1;
        if folded.degraded {
            self.stats.sessions_degraded += 1;
        }
        if folded.finish.as_secs() > (job.arrival + DEADLINE).as_secs() {
            self.stats.deadline_misses += 1;
        }
        self.makespan = self.makespan.max(folded.finish);
        self.outputs.insert(id, folded.output);
        Ok(())
    }
}

impl<G: Group> std::fmt::Debug for Engine<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("policy", &self.config.policy)
            .field("devices", &self.devices.nodes.len())
            .field("active", &self.jobs.len())
            .field("queued", &self.pending.len())
            .field("completed", &self.stats.completed)
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The most-wanted pick as a per-tick `BTreeMap` tally: wants grouped
    /// by `(generation, chunk)` in key order, the first group with the
    /// strictly largest count wins.
    fn tally_reference(wants: &[Tallied]) -> Option<(usize, Vec<(Key, usize)>)> {
        let mut wanted: BTreeMap<(u64, usize), Vec<(Key, usize)>> = BTreeMap::new();
        for &(bytes, fed) in wants {
            wanted.entry(bytes).or_default().push(fed);
        }
        let mut best: Option<((u64, usize), usize)> = None;
        for (c, keys) in &wanted {
            if best.is_none_or(|(_, n)| keys.len() > n) {
                best = Some((*c, keys.len()));
            }
        }
        let (bytes, _) = best?;
        Some((bytes.1, wanted.remove(&bytes)?))
    }

    /// What `member` wants from `device`, as a walk of its window per
    /// device: the cursor rank if it is routed there, else the first
    /// rank past it not in `ahead` that is.
    fn wanted_reference(
        devices: &Devices,
        ranking: &[usize],
        cursor: usize,
        ahead: &[usize],
        device: usize,
    ) -> Option<(usize, usize)> {
        let next = ranking[cursor];
        if devices.route(next) == Some(device) {
            return Some((cursor, next));
        }
        let end = ranking.len().min(cursor.saturating_add(LOOKAHEAD + 1));
        (cursor + 1..end)
            .filter(|rank| !ahead.contains(rank))
            .map(|rank| (rank, ranking[rank]))
            .find(|&(_, chunk)| devices.route(chunk) == Some(device))
    }

    /// Each device's want from one [`Devices::window_wants`] walk, checking
    /// it yields at most one per device.
    fn one_pass(
        devices: &Devices,
        ranking: &[usize],
        cursor: usize,
        ahead: &[usize],
    ) -> Vec<Option<(usize, usize)>> {
        let waiting: Vec<_> = (ahead.iter())
            .map(|&rank| {
                let lost = Delivery::Lost {
                    spent: VirtualDuration::ZERO,
                };
                (rank, lost, VirtualDuration::ZERO)
            })
            .collect();
        let end = ranking.len().min(cursor + LOOKAHEAD + 1);
        let mut table = vec![None; devices.nodes.len()];
        let delivered = delivered_mask(cursor, &waiting);
        devices.window_wants(
            cursor,
            end,
            delivered,
            |rank| ranking[rank],
            |d, rank, chunk| {
                assert_eq!(table[d], None, "device {d} wanted twice");
                table[d] = Some((rank, chunk));
            },
        );
        table
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The sorted-scratch pick equals the tally it replaced: the same
        /// chunk, the same sessions fed in the same order.
        #[test]
        fn most_wanted_pick_matches_the_tally_reference(
            picks in proptest::collection::vec((0u64..2, 0usize..6, 0usize..40), 1..65),
            key_steps in proptest::collection::vec((0u64..3, 0u32..3), 64),
            tied in 0usize..2,
        ) {
            // Keys ascend (the table is filled in key order) and repeat
            // never.
            let mut key = (0u64, 0u32);
            let keys: Vec<Key> = (key_steps.iter())
                .map(|&(jump, member)| {
                    key = if jump == 0 { (key.0, key.1 + 1 + member) } else { (key.0 + jump, member) };
                    key
                })
                .collect();
            let mut wants: Vec<Tallied> = (picks.iter().zip(&keys))
                .map(|(&(generation, chunk, rank), &key)| ((generation, chunk), (key, rank)))
                .collect();
            if tied == 1 {
                // Every distinct chunk wanted equally often, handed out
                // round-robin in first-seen order.
                let mut distinct: Vec<(u64, usize)> = Vec::new();
                for (bytes, _) in &wants {
                    if !distinct.contains(bytes) {
                        distinct.push(*bytes);
                    }
                }
                wants.truncate(wants.len() / distinct.len() * distinct.len());
                for (i, want) in wants.iter_mut().enumerate() {
                    want.0 = distinct[i % distinct.len()];
                }
            }
            let want = tally_reference(&wants);
            let mut fed = Vec::new();
            let chunk = most_wanted(&mut wants.clone(), &mut fed);
            prop_assert_eq!(chunk.zip(Some(fed)), want);
        }

        /// One walk of a member's window yields, for every device, what a
        /// walk per device found — on a 4-device fleet under any down
        /// flags, and on one device (where it is the cursor chunk).
        #[test]
        fn one_pass_wants_match_the_per_device_walk(
            ranking in proptest::collection::vec(0usize..48, 1..40),
            cursor_at in 0usize..40,
            waiting in 0u32..1 << LOOKAHEAD,
            down in proptest::collection::vec(0u32..4, 4),
            replication in 1usize..4,
        ) {
            let cursor = cursor_at % ranking.len();
            let ahead: Vec<usize> = (1..=LOOKAHEAD)
                .filter(|i| waiting >> (i - 1) & 1 == 1)
                .map(|i| cursor + i)
                .collect();
            let down: Vec<bool> = down.iter().map(|&d| d == 0).collect();
            let map = Arc::new(ShardMap::chunk_hash(48, 4, replication));
            let fleet = Devices::new(Some((map, down, LossScope::Primary)));
            let table = one_pass(&fleet, &ranking, cursor, &ahead);
            for (device, got) in table.into_iter().enumerate() {
                let want = wanted_reference(&fleet, &ranking, cursor, &ahead, device);
                prop_assert_eq!(got, want, "device {}", device);
            }
            let solo = Devices::new(None);
            prop_assert_eq!(one_pass(&solo, &ranking, cursor, &ahead), vec![Some((cursor, ranking[cursor]))]);
        }
    }
}
