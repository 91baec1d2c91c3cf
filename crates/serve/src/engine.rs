// lint:allow-file(panic.index): device vectors are sized by the device count at construction and indexed by device ids the engine or the ShardMap produced
//! The one serving loop behind [`Scheduler`](crate::Scheduler),
//! [`ImageScheduler`](crate::ImageScheduler),
//! [`FleetScheduler`](crate::FleetScheduler) and
//! [`LiveServer`](crate::LiveServer).
//!
//! The unit of work is a descriptor [`SearchSession`] keyed `(job id,
//! member)`. Sessions run on a **device set** of 1..N nodes — each its own
//! [`PipelineClock`] plus, per compaction generation it serves, a
//! [`ResidentSource`] cache, chunk reader and chaos attempt counters — and
//! the engine owns, exactly once: admission (monotone arrivals, the
//! [`Overloaded`](ServeError::Overloaded) gate, the pending queue, id
//! assignment, the [`Snapshot`] each job is pinned to), the drive loop, the
//! choice of the next device (the earliest clock with runnable work), the
//! [`Policy`] pick, the fault-aware fetch with per-copy retry and failover,
//! fleet-clock charging and retire bookkeeping.
//!
//! What differs between the four is how a job's member sessions fold into
//! one output — a [`Group`], chosen by the constructor's type: `Plain`
//! (`scheduler.rs`), `ImageVotes` (`image.rs`), `Scatter` (`fleet.rs`) or
//! `Live` (`live.rs`).
//!
//! A job sees one snapshot for its whole life: the one the engine was
//! built over, or whatever its fold [pins](Group::pin) at admission. Chunk
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
//! bug, not a workload property (every active job always has a runnable
//! member): it surfaces as a typed `Inconsistent("… stalled …")` error in
//! every configuration.

use crate::error::{Result, ServeError};
use crate::fleet::LossScope;
use crate::scheduler::{Policy, SchedulerConfig, ServeStats};
use eff2_chaos::Fault;
use eff2_core::search::{SearchParams, SearchResult};
use eff2_core::session::{ChunkRanking, SearchSession};
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::Vector;
use eff2_shard::ShardMap;
use eff2_storage::diskmodel::{PipelineClock, VirtualDuration};
use eff2_storage::source::{Fetched, ResidentSource, ResidentStats, SourcedChunk};
use eff2_storage::store::ChunkReader;
use eff2_storage::ErrorClass;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// `(job id, member)` — key order is admission order, then member order,
/// which every policy tie-break inherits.
pub(crate) type Key = (u64, u32);

/// Whether a session needs no further chunk: its own stop rule fired or
/// its ranking is exhausted.
fn stopped(session: &SearchSession) -> bool {
    session.stop_satisfied() || session.next_wanted().is_none()
}

/// A broken scheduling invariant, as the typed error the storage layer
/// already uses for "this cannot happen on consistent state".
pub(crate) fn inconsistent(what: &str) -> ServeError {
    ServeError::Storage(eff2_storage::Error::Inconsistent(what.to_string()))
}

/// How a job's member sessions fold into one output. The scheduling hooks
/// ([`wanted`](Self::wanted), [`work`](Self::work), [`on_fed`](Self::on_fed),
/// [`on_lost`](Self::on_lost)) default to the plain single-session
/// behaviour.
pub(crate) trait Group {
    /// What a caller submits.
    type Spec: Clone;
    /// Per-job fold state.
    type Job;
    /// What a finished job yields.
    type Output;

    /// Whether a fair-share turn belongs to the whole job (whichever
    /// device serves it) rather than to one member session.
    const TURN_PER_JOB: bool = false;

    /// The snapshot jobs admitted from now on see — a fold over a mutable
    /// index returns its current epoch. `None` keeps serving the snapshot
    /// the engine already holds.
    fn pin(&mut self) -> Option<Snapshot> {
        None
    }

    /// One `(io, cpu)` slice of background work, if any is outstanding.
    /// The engine charges it on device 0 after every tick — and on its own
    /// while nothing else is left to run.
    fn background(&mut self) -> Result<Option<(VirtualDuration, VirtualDuration)>> {
        Ok(None)
    }

    /// Opens a job: ranks (charging the ranking CPU through `cx`) and
    /// opens one session per member on its device.
    fn admit(
        &mut self,
        cx: &mut Admission<'_>,
        spec: &Self::Spec,
        params: &SearchParams,
    ) -> Result<Self::Job>;

    /// The chunk `session` may be fed next, if any.
    fn wanted(&self, _job: &Self::Job, session: &SearchSession) -> Option<usize> {
        session.next_wanted()
    }

    /// The earliest-deadline tie-break: chunks still to consume.
    fn work(&self, _job: &Self::Job, session: &SearchSession) -> usize {
        session.remaining_work_estimate()
    }

    /// `session` was just fed `chunk`, its scan completing at fleet time
    /// `at`. Returns whether the member is finished — the engine then
    /// closes its session and hands the result to
    /// [`on_done`](Self::on_done).
    fn on_fed(
        &mut self,
        _job: &mut Self::Job,
        session: &SearchSession,
        _chunk: &SourcedChunk,
        _at: VirtualDuration,
    ) -> Result<bool> {
        Ok(stopped(session))
    }

    /// `session` just skipped `chunk_id`, lost after `spent` of failed
    /// attempts. Same contract as [`on_fed`](Self::on_fed).
    fn on_lost(
        &mut self,
        _job: &mut Self::Job,
        session: &SearchSession,
        _chunk_id: usize,
        _spent: VirtualDuration,
        _at: VirtualDuration,
    ) -> Result<bool> {
        Ok(stopped(session))
    }

    /// A member finished with `result` at fleet time `at`.
    fn on_done(
        &mut self,
        _job: &mut Self::Job,
        _member: u32,
        _result: SearchResult,
        _at: VirtualDuration,
    ) {
    }

    /// Whether the job is complete. Members still open then are torn
    /// down with it.
    fn finished(&self, job: &Self::Job) -> bool;

    /// Folds a finished job into its output; a ranking it no longer needs
    /// goes back to `spare`.
    fn output(
        &mut self,
        spare: &mut Vec<ChunkRanking>,
        retired: Retired,
        job: Self::Job,
    ) -> Result<Folded<Self::Output>>;
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
    /// By compaction generation, opened when the first job pinned to it
    /// lands here.
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
        let nodes = down
            .iter()
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
}

/// One member session in flight.
struct Member {
    session: SearchSession,
    device: usize,
    /// Cache-attribution tag with the device's [`ResidentSource`] for the
    /// job's generation.
    requester: u64,
}

/// An admitted job: the engine-side facts plus the group's fold state.
struct Job<S> {
    arrival: VirtualDuration,
    deadline: VirtualDuration,
    /// What the job sees, fixed at admission.
    snapshot: Snapshot,
    /// Device the ranking CPU was charged on; deliveries from any other
    /// device count as cross-device fetches.
    home: usize,
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

/// What [`Group::admit`] works through: ranking buffers, the device
/// clocks, and the member list of the job being opened.
pub(crate) struct Admission<'a> {
    /// The snapshot the job is pinned to.
    pub(crate) snapshot: &'a Snapshot,
    nodes: &'a mut [Node],
    cache_budget_bytes: u64,
    spare: &'a mut Vec<ChunkRanking>,
    home: usize,
    members: Vec<(u32, Member)>,
}

impl Admission<'_> {
    /// `device`'s fleet clock.
    pub(crate) fn now(&self, device: usize) -> VirtualDuration {
        self.nodes[device].clock.now()
    }

    /// Ranks every chunk for `query` into a recycled buffer.
    pub(crate) fn rank(&mut self, query: &Vector) -> ChunkRanking {
        let mut ranking = self.spare.pop().unwrap_or_default();
        self.snapshot.rank_into(&mut ranking, query);
        ranking
    }

    /// Charges one chunk-index ranking as CPU on `device` (the index
    /// itself is memory-resident in the serving layer), makes it the
    /// job's home, and returns when the ranking is done.
    pub(crate) fn charge_rank(&mut self, device: usize) -> VirtualDuration {
        self.home = device;
        let rank_cpu = self.snapshot.model().rank_time(self.snapshot.n_chunks());
        self.nodes[device]
            .clock
            .chunk_overlapped(VirtualDuration::ZERO, rank_cpu)
    }

    /// Opens `session` as `member` on `device`. A session that needs no
    /// chunk at all (`k = 0`, an empty index, a zero-chunk stop rule)
    /// comes straight back as its result instead.
    pub(crate) fn open(
        &mut self,
        member: u32,
        device: usize,
        session: SearchSession,
    ) -> Option<SearchResult> {
        let requester = self.nodes[device]
            .shelf(self.snapshot, self.cache_budget_bytes)
            .source
            .new_requester();
        if stopped(&session) {
            let (result, ranking) = session.into_result_and_ranking();
            self.spare.push(ranking);
            return Some(result);
        }
        self.members.push((
            member,
            Member {
                session,
                device,
                requester,
            },
        ));
        None
    }
}

/// What one fault-aware fetch produced.
enum Acquired {
    /// A copy on device `from` delivered the chunk; `injected` is modelled
    /// extra latency (spikes plus the cost of failed attempts).
    Delivered {
        fetched: Fetched,
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
    pub(crate) group: G,
}

/// The serving engine. See the [module docs](self).
pub(crate) struct Engine<G: Group> {
    /// What the next admitted job sees.
    snapshot: Snapshot,
    config: SchedulerConfig,
    devices: Devices,
    pub(crate) group: G,
    last_arrival: VirtualDuration,
    next_id: u64,
    pending: VecDeque<Pending<G::Spec>>,
    jobs: BTreeMap<u64, Job<G::Job>>,
    /// Last turn served by [`Policy::FairShare`].
    fair_cursor: Key,
    /// Ranking buffers recycled from finished sessions
    /// ([`ChunkRanking::rank_into`]).
    spare: Vec<ChunkRanking>,
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
            last_arrival: VirtualDuration::ZERO,
            next_id: 0,
            pending: VecDeque::new(),
            jobs: BTreeMap::new(),
            fair_cursor: (u64::MAX, u32::MAX),
            spare: Vec::new(),
            outputs: BTreeMap::new(),
            makespan: VirtualDuration::ZERO,
            stats,
            cross_device_fetches: 0,
            failovers: 0,
        }
    }

    /// Jobs waiting for a slot.
    pub(crate) fn queued(&self) -> usize {
        self.pending.len()
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
        if arrival.as_secs() < self.last_arrival.as_secs() {
            return Err(ServeError::NonMonotoneArrival {
                prev_secs: self.last_arrival.as_secs(),
                next_secs: arrival.as_secs(),
            });
        }
        self.last_arrival = arrival;
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
            group: self.group,
        })
    }

    /// Processes backlog until the fleet clock reaches `t`; devices idle
    /// behind `t` then jump to it — what an arrival that is not a job (a
    /// mutation) sees before it [charges](Self::charge) its own cost.
    pub(crate) fn advance_to(&mut self, t: VirtualDuration) -> Result<()> {
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
    /// Every tick is followed by one slice of the fold's
    /// [background work](Group::background); with no job left, device 0
    /// pays the slices on their own.
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
            match self.group.background()? {
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
    /// with a runnable member (ties on the lower device id). One device
    /// needs no search.
    fn next_device(&self) -> Option<usize> {
        if self.devices.nodes.len() == 1 {
            return Some(0);
        }
        let mut best: Option<(f64, usize)> = None;
        for job in self.jobs.values() {
            for (_, m) in &job.members {
                let now = self.devices.nodes[m.device].clock.now().as_secs();
                let better = best.is_none_or(|(t, d)| {
                    now.total_cmp(&t).then(m.device.cmp(&d)) == Ordering::Less
                });
                if better && self.group.wanted(&job.state, &m.session).is_some() {
                    best = Some((now, m.device));
                }
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
            if let Some(pinned) = self.group.pin() {
                let superseded = std::mem::replace(&mut self.snapshot, pinned);
                self.release(superseded.generation());
            }
            let snapshot = self.snapshot.clone();
            let mut cx = Admission {
                snapshot: &snapshot,
                nodes: &mut self.devices.nodes,
                cache_budget_bytes: self.config.cache_budget_bytes,
                spare: &mut self.spare,
                home: 0,
                members: Vec::new(),
            };
            let state = self.group.admit(&mut cx, &p.spec, &p.params)?;
            let (home, members) = (cx.home, cx.members);
            let job = Job {
                arrival: p.arrival,
                deadline: p.arrival + self.config.deadline,
                snapshot,
                home,
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

    /// The runnable `(key, member, chunk)` triples of `jobs` on `device`,
    /// in key order.
    fn runnable<'a>(
        &'a self,
        jobs: impl Iterator<Item = (&'a u64, &'a Job<G::Job>)> + 'a,
        device: usize,
    ) -> impl Iterator<Item = (Key, &'a Job<G::Job>, &'a Member, usize)> + 'a {
        jobs.flat_map(move |(id, job)| {
            job.members.iter().filter_map(move |(m, member)| {
                if member.device != device {
                    return None;
                }
                let chunk = self.group.wanted(&job.state, &member.session)?;
                Some(((*id, *m), job, member, chunk))
            })
        })
    }

    /// Which chunk to serve on `device` this tick, and to which sessions.
    fn pick(&self, device: usize) -> Option<(usize, Vec<Key>)> {
        match self.config.policy {
            Policy::FairShare => {
                let cursor = self.fair_cursor;
                let (key, _, _, chunk) = self
                    .runnable(self.jobs.range(cursor.0..), device)
                    .find(|(key, ..)| *key > cursor)
                    .or_else(|| self.runnable(self.jobs.iter(), device).next())?;
                Some((chunk, vec![key]))
            }
            Policy::EarliestDeadline => {
                // Key: (deadline, remaining-work estimate, key). A pure
                // deadline key degenerates to FIFO whenever a burst shares
                // one arrival instant (every deadline ties, and ties on key
                // replay admission order); breaking ties by how little work
                // a session has left lets short queries slip past
                // equal-deadline long ones.
                let mut best: Option<(Key, usize, f64, usize)> = None;
                for (key, job, member, chunk) in self.runnable(self.jobs.iter(), device) {
                    let d = job.deadline.as_secs();
                    let w = self.group.work(&job.state, &member.session);
                    let better = best.is_none_or(|(_, _, bd, bw)| match d.total_cmp(&bd) {
                        Ordering::Less => true,
                        Ordering::Equal => w < bw,
                        Ordering::Greater => false,
                    });
                    if better {
                        best = Some((key, chunk, d, w));
                    }
                }
                best.map(|(key, chunk, _, _)| (chunk, vec![key]))
            }
            Policy::MostWantedChunk => {
                // Tallied by (generation, chunk): the same chunk id under
                // two generations names different bytes.
                let mut wanted: BTreeMap<(u64, usize), Vec<Key>> = BTreeMap::new();
                for (key, job, _, chunk) in self.runnable(self.jobs.iter(), device) {
                    let bytes = (job.snapshot.generation(), chunk);
                    wanted.entry(bytes).or_default().push(key);
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
        let Some(&first) = fed.first() else {
            return Err(inconsistent("engine stalled: a pick fed no session"));
        };
        if self.config.policy == Policy::FairShare {
            self.fair_cursor = if G::TURN_PER_JOB {
                (first.0, u32::MAX)
            } else {
                first
            };
        }
        let acquired = self.acquire(device, first, chunk_id)?;
        self.stats.ticks += 1;
        let model = *self.snapshot.model();
        let nodes = &mut self.devices.nodes;
        let (at, from) = match &acquired {
            Acquired::Delivered {
                fetched,
                injected,
                from,
            } => {
                self.stats.fetches += 1;
                if fetched.from_disk {
                    self.stats.disk_reads += 1;
                    self.stats.disk_reads_by_shard[*from] += 1;
                }
                // The chunk's I/O (nothing on a cache hit) plus injected
                // latency runs on the *delivering* device; the fanned-out
                // scans are CPU on the *ticking* device, one per fed
                // session summed in key order, ready no earlier than the
                // delivery.
                let io = if fetched.from_disk {
                    model.io_time(fetched.chunk.bytes_read) + *injected
                } else {
                    *injected
                };
                let io_done = nodes[*from].clock.io_done_after(io);
                let scan = model.scan_time(fetched.chunk.payload.len());
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
        for key in fed {
            // A job finished earlier in this tick took its members with
            // it (an image stop rule tearing down siblings).
            let Some(job) = self.jobs.get_mut(&key.0) else {
                continue;
            };
            if from.is_some_and(|from| job.home != from) {
                self.cross_device_fetches += 1;
            }
            let Job { members, state, .. } = job;
            let Some(pos) = members.iter().position(|(m, member)| {
                *m == key.1 && member.session.next_wanted() == Some(chunk_id)
            }) else {
                continue;
            };
            let session = &mut members[pos].1.session;
            let member_done = match &acquired {
                Acquired::Delivered { fetched, .. } => {
                    session.step_with(&fetched.chunk)?;
                    self.stats.feeds += 1;
                    self.group.on_fed(state, session, &fetched.chunk, at)?
                }
                Acquired::Lost { spent } => {
                    session.skip_unavailable(*spent)?;
                    self.group.on_lost(state, session, chunk_id, *spent, at)?
                }
            };
            if member_done {
                let (m, member) = members.remove(pos);
                let (result, ranking) = member.session.into_result_and_ranking();
                self.spare.push(ranking);
                self.group.on_done(state, m, result, at);
            }
            if self.group.finished(state) {
                if let Some(job) = self.jobs.remove(&key.0) {
                    self.retire(key.0, job)?;
                }
            }
        }
        Ok(())
    }

    /// Fetches `chunk_id` for the session `first` ticking on `device`:
    /// probe the owners in placement order (skipping statically-down
    /// devices — routing knows they are down, no probe is spent), retrying
    /// each live copy per [`SchedulerConfig::retry`] before failing over to
    /// the next. Injected faults come from the plan under the device set's
    /// [`LossScope`]; real read errors retry through the same budget; each
    /// failed attempt is charged its timeout plus backoff, and the
    /// accumulated cost rides the delivery's injected latency. Without a
    /// plan this is one plain fetch from the first live owner.
    fn acquire(&mut self, device: usize, first: Key, chunk_id: usize) -> Result<Acquired> {
        let Devices {
            nodes,
            map,
            down,
            loss_scope,
        } = &mut self.devices;
        let owners: &[u32] = map.as_deref().map_or(&[0], |m| m.owners(chunk_id));
        let primary = owners.first().copied().unwrap_or(0);
        let job = self
            .jobs
            .get(&first.0)
            .ok_or_else(|| inconsistent("engine stalled: the picked job is gone"))?;
        let members = job.members.as_slice();
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
            // The ticking session's own tag on its device; on a failover
            // device the job's member there, or 0 when it has none.
            let requester = members
                .iter()
                .find(|(m, member)| {
                    if o == device {
                        *m == first.1
                    } else {
                        member.device == o
                    }
                })
                .map_or(0, |(_, member)| member.requester);
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
                            Ok(fetched) => {
                                if owner != primary {
                                    self.failovers += 1;
                                }
                                return Ok(Acquired::Delivered {
                                    fetched,
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
        let folded = self.group.output(&mut self.spare, retired, job.state)?;
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
