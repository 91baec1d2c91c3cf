// lint:allow-file(panic.index): device vectors are sized by the device count at construction and indexed by device ids the engine or the ShardMap produced
//! The one serving loop behind [`Scheduler`](crate::Scheduler),
//! [`ImageScheduler`](crate::ImageScheduler),
//! [`FleetScheduler`](crate::FleetScheduler) and
//! [`LiveServer`](crate::LiveServer).
//!
//! The unit of work is a descriptor [`SearchSession`] keyed `(job id,
//! member)`: in every configuration a query is **one** session over its
//! global chunk ranking, and the **device set** of 1..N nodes — each its own
//! [`PipelineClock`] plus, per compaction generation it serves, a
//! [`ResidentSource`] cache, chunk reader and chaos attempt counters — only
//! *delivers* chunks to it. The engine owns, exactly once: admission
//! (monotone arrivals, the [`Overloaded`](ServeError::Overloaded) gate, the
//! pending queue, id assignment, the [`Snapshot`] each job is pinned to),
//! ranking and its charge on the session's home device, the drive loop, the
//! choice of the next device (the earliest clock with something to
//! deliver), the [`Policy`] pick, the fault-aware fetch with per-copy retry
//! and failover, fleet-clock charging and retire bookkeeping.
//!
//! **Devices deliver, one session consumes in rank order.** What a session
//! wants from device `d` is the first not-yet-delivered rank within
//! [`LOOKAHEAD`] of its cursor whose reads are routed to `d`. A delivery — a
//! payload, or "lost after `spent`" — ahead of the cursor waits in a
//! rank-keyed buffer; after each delivery the session consumes whatever its
//! cursor now stands on (see `Member::advance`) until its own stop rule
//! fires. On one device the wanted chunk *is* the cursor rank, so nothing
//! ever waits. Charging and counting happen at delivery: a speculative
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

use crate::error::{Result, ServeError};
use crate::fleet::LossScope;
use crate::live::Live;
use crate::scheduler::{Policy, SchedulerConfig, ServeStats};
use eff2_chaos::{Fault, RetryPolicy};
use eff2_core::search::{SearchParams, SearchResult};
use eff2_core::session::SearchSession;
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::Vector;
use eff2_shard::ShardMap;
use eff2_storage::diskmodel::{PipelineClock, VirtualDuration};
use eff2_storage::source::{ResidentSource, ResidentStats, SourcedChunk};
use eff2_storage::store::ChunkReader;
use eff2_storage::ErrorClass;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// `(job id, member)` — key order is admission order, then member order,
/// which every policy tie-break inherits.
pub(crate) type Key = (u64, u32);

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
    pub(crate) deadline: VirtualDuration,
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
    /// Fetch attempts per chunk under the injected fault plan — mirrors
    /// the counters a `FaultSource` keeps, so transient faults clear after
    /// the same number of probes as in a serial run against this node.
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

    /// The `(rank, chunk)` `member` wants from `device`: the first
    /// not-yet-delivered rank within [`LOOKAHEAD`] of its cursor whose
    /// reads are routed there. The cursor rank is never delivered yet, so
    /// it is the answer wherever it is routed — on one device, always.
    fn wanted(&self, member: &Member, device: usize) -> Option<(usize, usize)> {
        let cursor = member.session.cursor();
        let next = member.session.next_wanted()?;
        if self.route(next) == Some(device) {
            return Some((cursor, next));
        }
        let ranking = member.session.ranking();
        let end = ranking
            .expanded_len()
            .min(cursor.saturating_add(LOOKAHEAD + 1));
        (cursor + 1..end)
            .filter(|rank| !member.ahead.iter().any(|(ahead, ..)| ahead == rank))
            .map(|rank| (rank, ranking.chunk_at(rank)))
            .find(|&(_, chunk)| self.route(chunk) == Some(device))
    }

    /// Modelled cost of discovering that every owner of a chunk is down:
    /// one probe per (downed) copy under `retry`.
    fn down_probe_cost(&self, retry: &RetryPolicy) -> VirtualDuration {
        let copies = self.map.as_deref().map_or(1, ShardMap::replication);
        (0..copies as u32).fold(VirtualDuration::ZERO, |cost, probe| {
            cost + retry.attempt_cost(probe)
        })
    }
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
    deadline: VirtualDuration,
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
    fn next_device(&self) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (device, node) in self.devices.nodes.iter().enumerate() {
            let now = node.clock.now().as_secs();
            let earlier = best.is_none_or(|(t, _)| now.total_cmp(&t) == Ordering::Less);
            if earlier && self.runnable(self.jobs.iter(), device).next().is_some() {
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
            let nodes = &self.devices.nodes;
            let frontier = match self.next_device() {
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
            let job = Job {
                arrival: p.arrival,
                deadline: p.arrival + self.config.deadline,
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

    /// The members of `jobs` that want a chunk from `device`, in key order,
    /// each with the `(rank, chunk)` it wants.
    fn runnable<'a>(
        &'a self,
        jobs: impl Iterator<Item = (&'a u64, &'a Job<G::Job>)> + 'a,
        device: usize,
    ) -> impl Iterator<Item = (Key, &'a Job<G::Job>, &'a Member, (usize, usize))> + 'a {
        jobs.flat_map(move |(id, job)| {
            job.members.iter().filter_map(move |(m, member)| {
                Some(((*id, *m), job, member, self.devices.wanted(member, device)?))
            })
        })
    }

    /// Which chunk to serve on `device` this tick, and to which sessions
    /// (each with the rank the chunk holds in its ranking).
    fn pick(&self, device: usize) -> Option<(usize, Vec<(Key, usize)>)> {
        match self.config.policy {
            Policy::FairShare => {
                let cursor = self.fair_cursor;
                let (key, _, _, (rank, chunk)) = self
                    .runnable(self.jobs.range(cursor.0..), device)
                    .find(|(key, ..)| *key > cursor)
                    .or_else(|| self.runnable(self.jobs.iter(), device).next())?;
                Some((chunk, vec![(key, rank)]))
            }
            Policy::EarliestDeadline => {
                // Key: (deadline, remaining-work estimate, key). A pure
                // deadline key degenerates to FIFO whenever a burst shares
                // one arrival instant (every deadline ties, and ties on key
                // replay admission order); breaking ties by how little work
                // a session has left lets short queries slip past
                // equal-deadline long ones.
                let mut best: Option<((Key, usize), usize, f64, usize)> = None;
                for (key, job, member, (rank, chunk)) in self.runnable(self.jobs.iter(), device) {
                    let d = job.deadline.as_secs();
                    let w = member.session.remaining_work_estimate();
                    let better = best.is_none_or(|(_, _, bd, bw)| match d.total_cmp(&bd) {
                        Ordering::Less => true,
                        Ordering::Equal => w < bw,
                        Ordering::Greater => false,
                    });
                    if better {
                        best = Some(((key, rank), chunk, d, w));
                    }
                }
                best.map(|(fed, chunk, _, _)| (chunk, vec![fed]))
            }
            Policy::MostWantedChunk => {
                // Tallied by (generation, chunk): the same chunk id under
                // two generations names different bytes.
                let mut wanted: BTreeMap<(u64, usize), Vec<(Key, usize)>> = BTreeMap::new();
                for (key, job, _, (rank, chunk)) in self.runnable(self.jobs.iter(), device) {
                    let bytes = (job.snapshot.generation(), chunk);
                    wanted.entry(bytes).or_default().push((key, rank));
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
        }
    }

    /// One scheduling step on `device`: pick a chunk by policy, fetch it
    /// once, feed every selected session, settle the jobs that finish.
    fn tick(&mut self, device: usize) -> Result<()> {
        let (chunk_id, fed) = self
            .pick(device)
            .ok_or_else(|| inconsistent("engine stalled: the ticking device has nothing to run"))?;
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
        for (key, rank) in fed {
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
        Ok(())
    }

    /// Fetches `chunk_id` for the session `first`: probe the owners in
    /// placement order (skipping statically-down devices — routing knows
    /// they are down, no probe is spent), retrying each live copy per
    /// [`SchedulerConfig::retry`] before failing over to the next.
    /// Injected faults come from the plan under the device set's
    /// [`LossScope`]; real read errors retry through the same budget; each
    /// failed attempt is charged its timeout plus backoff, and the
    /// accumulated cost rides the delivery's injected latency. Without a
    /// plan this is one plain fetch from the first live owner.
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
        let plan = self.config.fault_plan;
        let retry = self.config.retry;
        let lost = plan.is_some_and(|p| p.is_permanently_lost(chunk_id));
        let mut probes = 0u32;
        let mut spent = VirtualDuration::ZERO;
        for &owner in owners {
            let o = owner as usize;
            if down[o] {
                continue;
            }
            let shelf = nodes[o].shelf(&job.snapshot, self.config.cache_budget_bytes);
            // Whether the permanent draw kills this copy.
            let lost_here = lost && (*loss_scope == LossScope::AllCopies || owner == primary);
            let mut copy_attempts = 0u32;
            loop {
                // The injected verdict first; a delivery then performs the
                // real read, whose own errors retry through the same budget.
                let verdict = match plan {
                    None => Fault::Deliver {
                        delay: VirtualDuration::ZERO,
                    },
                    Some(plan) => {
                        let slot = shelf.chaos_attempts.entry(chunk_id).or_insert(0);
                        let attempt = *slot;
                        *slot += 1;
                        if lost_here {
                            Fault::Permanent
                        } else {
                            plan.attempt_fault(chunk_id, attempt)
                        }
                    }
                };
                let class = match verdict {
                    Fault::Deliver { delay } => {
                        match shelf
                            .source
                            .fetch_through(requester, chunk_id, &mut shelf.reader)
                        {
                            Ok(chunk) => {
                                if owner != primary {
                                    self.failovers += 1;
                                }
                                return Ok(Acquired::Delivered {
                                    chunk,
                                    injected: spent + delay,
                                    from: o,
                                });
                            }
                            Err(e) if plan.is_none() => return Err(e.into()),
                            Err(e) => e.class(),
                        }
                    }
                    Fault::Permanent => ErrorClass::Permanent,
                    Fault::Transient | Fault::ShortRead => ErrorClass::Transient,
                    Fault::Corrupt => ErrorClass::Corrupt,
                };
                spent += retry.attempt_cost(probes);
                probes += 1;
                copy_attempts += 1;
                if class == ErrorClass::Permanent || copy_attempts >= retry.max_attempts {
                    break; // this copy is spent; fail over to the next
                }
                self.stats.fetch_retries += 1;
            }
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
            deadline: job.deadline,
            snapshot: job.snapshot,
        };
        let folded = self.group.output(retired, job.state)?;
        self.release(generation);
        self.stats.completed += 1;
        if folded.degraded {
            self.stats.sessions_degraded += 1;
        }
        if folded.finish.as_secs() > job.deadline.as_secs() {
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
