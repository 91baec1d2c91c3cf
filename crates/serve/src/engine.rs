// lint:allow-file(panic.index): device vectors are sized by the device count at construction and indexed by device ids the engine or the ShardMap produced
//! The one serving loop behind [`Scheduler`](crate::Scheduler),
//! [`ImageScheduler`](crate::ImageScheduler) and
//! [`FleetScheduler`](crate::FleetScheduler).
//!
//! The unit of work is a descriptor [`SearchSession`] keyed `(job id,
//! member)`. Sessions run on a **device set** of 1..N nodes — each its own
//! [`PipelineClock`], [`ResidentSource`] cache, chunk reader and chaos
//! attempt counters — and the engine owns, exactly once: admission
//! (monotone arrivals, the [`Overloaded`](ServeError::Overloaded) gate, the
//! pending queue, id assignment), the drive loop, the choice of the next
//! device (the earliest clock with runnable work), the [`Policy`] pick, the
//! fault-aware fetch with per-copy retry and failover, fleet-clock charging
//! and retire bookkeeping.
//!
//! What differs between the three schedulers is how a job's member
//! sessions fold into one output — a [`Group`], chosen by the
//! constructor's type: `Plain` (`scheduler.rs`), `ImageVotes`
//! (`image.rs`) or `Scatter` (`fleet.rs`).
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
#[derive(Clone, Copy, Debug)]
pub(crate) struct Retired {
    pub(crate) id: u64,
    pub(crate) arrival: VirtualDuration,
    pub(crate) deadline: VirtualDuration,
}

/// A finished job's output plus what retire bookkeeping needs of it.
pub(crate) struct Folded<O> {
    pub(crate) output: O,
    /// Fleet-clock time the job finished.
    pub(crate) finish: VirtualDuration,
    /// Whether the output lost at least one chunk.
    pub(crate) degraded: bool,
}

/// One simulated device: its own clock, cache, reader and fault counters.
struct Node {
    clock: PipelineClock,
    source: ResidentSource,
    /// One lazily-opened chunk reader reused across every cache miss.
    reader: Option<ChunkReader>,
    /// Fetch attempts per chunk under the injected fault plan — mirrors
    /// the counters a `FaultSource` keeps, so transient faults clear after
    /// the same number of probes as in a serial run against this node.
    chaos_attempts: BTreeMap<usize, u32>,
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
    /// that owns every chunk — each with its own `cache_budget_bytes`
    /// resident cache over `snapshot`.
    pub(crate) fn new(
        snapshot: &Snapshot,
        cache_budget_bytes: u64,
        placed: Option<(Arc<ShardMap>, Vec<bool>, LossScope)>,
    ) -> Devices {
        let (map, down, loss_scope) = match placed {
            Some((map, down, loss_scope)) => (Some(map), down, loss_scope),
            None => (None, vec![false], LossScope::Primary),
        };
        let nodes = down
            .iter()
            .map(|_| Node {
                clock: PipelineClock::start_at(VirtualDuration::ZERO),
                source: snapshot.resident_source(cache_budget_bytes),
                reader: None,
                chaos_attempts: BTreeMap::new(),
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
    /// Cache-attribution tag with the device's [`ResidentSource`].
    requester: u64,
}

/// An admitted job: the engine-side facts plus the group's fold state.
struct Job<S> {
    arrival: VirtualDuration,
    deadline: VirtualDuration,
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
    /// The snapshot being served.
    pub(crate) snapshot: &'a Snapshot,
    nodes: &'a mut [Node],
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
        let requester = self.nodes[device].source.new_requester();
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
    /// Deliveries whose device differed from the fed job's home.
    pub(crate) cross_device_fetches: u64,
    /// Deliveries served by a non-primary copy.
    pub(crate) failovers: u64,
    pub(crate) group: G,
}

/// The serving engine. See the [module docs](self).
pub(crate) struct Engine<G: Group> {
    snapshot: Snapshot,
    config: SchedulerConfig,
    devices: Devices,
    group: G,
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
        let mut cache = ResidentStats::default();
        for node in &self.devices.nodes {
            let s = node.source.stats();
            cache.hits += s.hits;
            cache.cross_query_hits += s.cross_query_hits;
            cache.misses += s.misses;
            cache.evictions += s.evictions;
            cache.resident_bytes += s.resident_bytes;
            cache.resident_chunks += s.resident_chunks;
        }
        self.stats.cache = cache;
        Ok(Drained {
            outputs: self.outputs.into_values().collect(),
            stats: self.stats,
            makespan: self.makespan,
            cross_device_fetches: self.cross_device_fetches,
            failovers: self.failovers,
            group: self.group,
        })
    }

    /// The drive loop: processes backlog until the next tick's device
    /// clock reaches `until` (or, with `None`, until nothing is left).
    fn drain(&mut self, until: Option<VirtualDuration>) -> Result<()> {
        loop {
            self.catch_up()?;
            if self.jobs.is_empty() {
                if self.pending.is_empty() {
                    return Ok(());
                }
                continue; // instant completions drained a wave; re-admit
            }
            let device = self.next_device().ok_or_else(|| {
                inconsistent("engine stalled: active jobs but no runnable device")
            })?;
            if until
                .is_some_and(|t| self.devices.nodes[device].clock.now().as_secs() >= t.as_secs())
            {
                return Ok(());
            }
            self.tick(device)?;
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
            let mut cx = Admission {
                snapshot: &self.snapshot,
                nodes: &mut self.devices.nodes,
                spare: &mut self.spare,
                home: 0,
                members: Vec::new(),
            };
            let state = self.group.admit(&mut cx, &p.spec, &p.params)?;
            let job = Job {
                arrival: p.arrival,
                deadline: p.arrival + self.config.deadline,
                home: cx.home,
                members: cx.members,
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
                let mut wanted: BTreeMap<usize, Vec<Key>> = BTreeMap::new();
                for (key, _, _, chunk) in self.runnable(self.jobs.iter(), device) {
                    wanted.entry(chunk).or_default().push(key);
                }
                let mut best: Option<(usize, usize)> = None;
                for (c, keys) in &wanted {
                    if best.is_none_or(|(_, n)| keys.len() > n) {
                        best = Some((*c, keys.len()));
                    }
                }
                let (chunk, _) = best?;
                Some((chunk, wanted.remove(&chunk)?))
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
        let members: &[(u32, Member)] = self
            .jobs
            .get(&first.0)
            .map_or(&[], |job| job.members.as_slice());
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
            let node = &mut nodes[o];
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
                        let slot = node.chaos_attempts.entry(chunk_id).or_insert(0);
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
                        match node
                            .source
                            .fetch_through(requester, chunk_id, &mut node.reader)
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

    /// Books a finished job: members still open are torn down with it,
    /// the group folds its output, the counters move.
    fn retire(&mut self, id: u64, job: Job<G::Job>) -> Result<()> {
        let retired = Retired {
            id,
            arrival: job.arrival,
            deadline: job.deadline,
        };
        let folded = self.group.output(&mut self.spare, retired, job.state)?;
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
