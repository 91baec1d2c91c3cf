//! The interleaved session scheduler.
//!
//! One scheduler owns a fleet of concurrent [`SearchSession`]s over one
//! [`Snapshot`] and advances them *chunk by chunk*: each tick it picks one
//! chunk by [`Policy`], fetches it once through a shared `ResidentSource`
//! (a byte-budgeted cache), and feeds it to the session(s)
//! that want it via [`SearchSession::step_with`]. Because a session's own
//! virtual-clock accounting is identical whether it pulls chunks
//! ([`SearchSession::step`]) or is fed them, every per-query
//! [`SearchResult`] is bit-identical to running that query alone — the
//! scheduler only changes *fleet* timing (latency under load), never
//! per-query figures. The determinism proptest asserts exactly that.
//!
//! The loop itself — admission, tick, pick, fault-aware fetch, the two
//! clocks — is the crate's one serving engine (`engine.rs`); a
//! [`Scheduler`] is that engine on a single device under the plain fold:
//! one session per query, whose own stop rule decides when it is done.

use crate::engine::{inconsistent, Admission, Devices, Drained, Engine, Folded, Group, Retired};
use crate::error::Result;
use eff2_chaos::{FaultPlan, RetryPolicy};
use eff2_core::search::{SearchParams, SearchResult};
#[cfg(doc)]
use eff2_core::session::SearchSession;
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::Vector;
use eff2_storage::diskmodel::VirtualDuration;
use eff2_storage::source::ResidentStats;

/// How each tick picks the next chunk to read and feed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Round-robin over active sessions: each tick serves the next
    /// session's wanted chunk. Fair, oblivious to sharing.
    FairShare,
    /// Serve the session with the earliest virtual deadline
    /// (arrival + the fixed 2 s deadline); ties break on the smallest
    /// remaining-work estimate (so a one-chunk query is not starved behind
    /// an equal-deadline scan-everything query), then on session id.
    EarliestDeadline,
    /// Serve the chunk wanted by the *most* active sessions, feeding all
    /// of them from one read: the chunk is fetched and decoded once and
    /// fanned out — each waiting session scans the shared payload through
    /// the lane kernels' block path. Wants are counted per `(generation,
    /// chunk)` — one chunk id names different bytes in two compaction
    /// generations — and ties break on the smallest `(generation, chunk)`;
    /// the sessions fed are fed in `(job id, member)` order.
    MostWantedChunk,
}

impl Policy {
    /// Every policy, in reporting order.
    pub const ALL: [Policy; 3] = [
        Policy::FairShare,
        Policy::EarliestDeadline,
        Policy::MostWantedChunk,
    ];

    /// Stable name for tables and CSV.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::FairShare => "fair-share",
            Policy::EarliestDeadline => "earliest-deadline",
            Policy::MostWantedChunk => "most-wanted-chunk",
        }
    }
}

/// Per-query virtual deadline, measured from arrival — the
/// [`Policy::EarliestDeadline`] key and the
/// [`ServeStats::deadline_misses`] threshold. Every query is held to the
/// same one, so EDF orders by arrival; separating EDF from FIFO would take
/// deadlines that differ per query.
pub(crate) const DEADLINE: VirtualDuration = VirtualDuration::from_secs(2.0);

/// Scheduler knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// The chunk-pick policy.
    pub policy: Policy,
    /// Sessions interleaved at once (the concurrency level). Clamped to a
    /// minimum of 1.
    pub max_active: usize,
    /// Admitted-but-waiting queries beyond which an arriving query is
    /// refused with [`ServeError::Overloaded`](crate::ServeError::Overloaded).
    pub max_queued: usize,
    /// Byte budget of the shared decoded-chunk cache.
    pub cache_budget_bytes: u64,
    /// Injected fault schedule applied to every fetch. `None` (the
    /// default) is the fault-free scheduler, bit-identical to a config
    /// that never mentions chaos.
    pub fault_plan: Option<FaultPlan>,
    /// How hard a failed fetch is retried before the chunk is abandoned
    /// and the waiting sessions skip it. Failed attempts are charged to
    /// the *fleet* clock per the policy's timeout/backoff.
    pub retry: RetryPolicy,
}

impl SchedulerConfig {
    /// A config for `policy` at concurrency `max_active`, with a generous
    /// queue (4× the active slots) and an 8 MiB chunk cache.
    pub fn new(policy: Policy, max_active: usize) -> SchedulerConfig {
        let active = max_active.max(1);
        SchedulerConfig {
            policy,
            max_active: active,
            max_queued: active.saturating_mul(4),
            cache_budget_bytes: 8 << 20,
            fault_plan: None,
            retry: RetryPolicy::none(),
        }
    }
}

/// One finished query.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Submission order (0-based).
    pub id: u64,
    /// Virtual arrival time.
    pub arrival: VirtualDuration,
    /// Fleet-clock time at which the query's last chunk scan completed.
    pub finish: VirtualDuration,
    /// The epoch that answered it: the snapshot the query was pinned to at
    /// admission. A solo [`Snapshot::search`] against it reproduces
    /// `result` bit-for-bit.
    pub snapshot: Snapshot,
    /// The per-query answer and log — bit-identical to a serial run.
    pub result: SearchResult,
}

impl Completion {
    /// Arrival-to-finish latency on the fleet clock.
    pub fn latency(&self) -> VirtualDuration {
        self.finish - self.arrival
    }

    /// The completion of the job `retired`, finished at `finish` with
    /// `result`, as the engine's retire bookkeeping wants it.
    pub(crate) fn folded(
        retired: Retired,
        finish: VirtualDuration,
        result: SearchResult,
    ) -> Folded<Completion> {
        Folded {
            finish,
            degraded: result.log.degradation.is_degraded(),
            output: Completion {
                id: retired.id,
                arrival: retired.arrival,
                finish,
                snapshot: retired.snapshot,
                result,
            },
        }
    }
}

/// Fleet-level counters.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Queries offered to the scheduler.
    pub submitted: u64,
    /// Queries refused by admission control.
    pub rejected: u64,
    /// Queries finished.
    pub completed: u64,
    /// Scheduling ticks (= chunk fetches issued).
    pub ticks: u64,
    /// Chunk deliveries from the shared source (one per tick).
    pub fetches: u64,
    /// Fetches that went to the disk (the rest were cache hits).
    pub disk_reads: u64,
    /// [`disk_reads`](Self::disk_reads) split by the shard node whose disk
    /// served the read, indexed by shard id. The single-device scheduler is
    /// a one-shard fleet: `vec![disk_reads]`.
    pub disk_reads_by_shard: Vec<u64>,
    /// Chunk deliveries to sessions, one per session a tick's chunk was
    /// handed to. Equal across policies for one workload on one device;
    /// `fetches` is what sharing shrinks.
    pub feeds: u64,
    /// Completions whose finish exceeded their deadline.
    pub deadline_misses: u64,
    /// Failed fetch attempts (injected or real) that were retried.
    pub fetch_retries: u64,
    /// Chunks declared lost after the retry budget ran out; every session
    /// waiting on one skipped it and continued degraded.
    pub chunks_abandoned: u64,
    /// Completions whose result lost at least one chunk.
    pub sessions_degraded: u64,
    /// Shared chunk-cache counters (hits, cross-query hits, evictions …).
    pub cache: ResidentStats,
}

/// Everything a finished scheduler run produced.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-query completions, sorted by submission id.
    pub completions: Vec<Completion>,
    /// Fleet counters.
    pub stats: ServeStats,
    /// Fleet-clock time at which the last query finished.
    pub makespan: VirtualDuration,
}

impl ServeReport {
    /// Completed queries per virtual second (0 for an empty run).
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.makespan.as_secs();
        if secs > 0.0 {
            self.stats.completed as f64 / secs
        } else {
            0.0
        }
    }
}

/// The plain fold: a job is one session, finished when that session's own
/// stop rule fires; the output is its result.
pub(crate) struct Plain;

impl Group for Plain {
    type Spec = Vector;
    /// The answer and its fleet finish time, once the session has finished.
    type Job = Option<(SearchResult, VirtualDuration)>;
    type Output = Completion;

    fn admit(
        &mut self,
        cx: &mut Admission<'_>,
        query: &Vector,
        params: &SearchParams,
    ) -> Result<Self::Job> {
        let (ranked_at, done) = cx.open(0, query, params)?;
        Ok(done.map(|result| (result, ranked_at)))
    }

    fn on_done(&mut self, job: &mut Self::Job, _: u32, result: SearchResult, at: VirtualDuration) {
        *job = Some((result, at));
    }

    fn finished(&self, job: &Self::Job) -> bool {
        job.is_some()
    }

    fn output(&mut self, retired: Retired, job: Self::Job) -> Result<Folded<Completion>> {
        let (result, finish) =
            job.ok_or_else(|| inconsistent("plain job retired before its session finished"))?;
        Ok(Completion::folded(retired, finish, result))
    }
}

/// The interleaved multi-query scheduler. See the [module docs](self).
///
/// Hand it a whole trace, in arrival order, via
/// [`serve_trace`](Self::serve_trace).
#[derive(Debug)]
pub struct Scheduler(Engine<Plain>);

impl Scheduler {
    /// A scheduler over `snapshot` with `config`.
    pub fn new(snapshot: Snapshot, config: SchedulerConfig) -> Scheduler {
        Scheduler(Engine::new(snapshot, config, Devices::new(None), Plain))
    }

    /// Submits a whole trace of `(query, arrival)` pairs (already in
    /// arrival order) and drains. Overload rejections are recorded in
    /// [`ServeStats::rejected`] rather than aborting the run.
    pub fn serve_trace(
        self,
        trace: &[(Vector, VirtualDuration)],
        params: &SearchParams,
    ) -> Result<ServeReport> {
        self.0.serve_trace(trace, params).map(ServeReport::from)
    }
}

impl<G: Group<Output = Completion>> From<Drained<G>> for ServeReport {
    fn from(drained: Drained<G>) -> ServeReport {
        ServeReport {
            completions: drained.outputs,
            stats: drained.stats,
            makespan: drained.makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_bit_identical, retry, scan_all, snapshot, trace};
    use crate::ServeError;
    use eff2_chaos::FaultConfig;
    use eff2_core::search::StopRule;

    #[test]
    fn per_query_results_bit_identical_to_serial_under_every_policy() {
        let (snap, set) = snapshot("bitident", 600, 30);
        let params = SearchParams::exact(8);
        let queries = trace(&set, 12, 3.0);
        let serial: Vec<SearchResult> = queries
            .iter()
            .map(|(q, _)| snap.search(q, &params).expect("serial"))
            .collect();
        for policy in Policy::ALL {
            for max_active in [1usize, 4, 12] {
                let mut config = SchedulerConfig::new(policy, max_active);
                config.max_queued = queries.len();
                let report = Scheduler::new(snap.clone(), config)
                    .serve_trace(&queries, &params)
                    .expect("serve");
                assert_eq!(report.stats.rejected, 0);
                assert_eq!(report.completions.len(), queries.len());
                for (c, want) in report.completions.iter().zip(serial.iter()) {
                    assert_bit_identical(
                        want,
                        &c.result,
                        &format!("{}/act{max_active}/q{}", policy.name(), c.id),
                    );
                }
            }
        }
    }

    #[test]
    fn most_wanted_chunk_fetches_strictly_fewer_than_fair_share() {
        let (snap, set) = snapshot("mwc", 800, 30);
        let params = SearchParams::exact(10);
        // A burst of near-identical interests: everyone wants the same
        // leading chunks at the same time.
        let queries = trace(&set, 16, 0.5);
        let run = |policy: Policy| {
            let mut config = SchedulerConfig::new(policy, 8);
            config.max_queued = queries.len();
            Scheduler::new(snap.clone(), config)
                .serve_trace(&queries, &params)
                .expect("serve")
        };
        let fair = run(Policy::FairShare);
        let mwc = run(Policy::MostWantedChunk);
        assert_eq!(
            fair.stats.feeds, mwc.stats.feeds,
            "per-query work is policy-independent"
        );
        assert!(
            mwc.stats.fetches < fair.stats.fetches,
            "co-scheduling must fetch strictly fewer chunks: mwc {} vs fair {}",
            mwc.stats.fetches,
            fair.stats.fetches
        );
        assert!(mwc.stats.feeds > mwc.stats.fetches, "some tick fanned out");
    }

    #[test]
    fn overloaded_rejects_when_queue_is_full_and_run_continues() {
        let (snap, set) = snapshot("overload", 300, 25);
        let params = SearchParams::exact(5);
        let mut config = SchedulerConfig::new(Policy::FairShare, 1);
        config.max_queued = 1;
        let mut sched = Scheduler::new(snap.clone(), config);
        let q = set.vector_owned(0);
        // All arrive before the first chunk of work can complete.
        let t0 = VirtualDuration::ZERO;
        sched.0.submit(&q, &params, t0).expect("first admitted");
        sched.0.submit(&q, &params, t0).expect("second queued");
        let third = sched.0.submit(&q, &params, t0);
        assert!(
            matches!(
                third,
                Err(ServeError::Overloaded {
                    queued: 1,
                    capacity: 1
                })
            ),
            "third must be rejected, got {third:?}"
        );
        let report = sched.0.finish().map(ServeReport::from).expect("finish");
        assert_eq!(report.stats.submitted, 3);
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.stats.completed, 2);
        assert_eq!(report.completions.len(), 2);
    }

    #[test]
    fn late_arrival_is_not_admitted_early_and_idle_clock_jumps() {
        let (snap, set) = snapshot("late", 300, 25);
        let params = SearchParams::exact(5);
        let config = SchedulerConfig::new(Policy::EarliestDeadline, 4);
        let mut sched = Scheduler::new(snap.clone(), config);
        let far = VirtualDuration::from_secs(100.0);
        sched
            .0
            .submit(&set.vector_owned(3), &params, far)
            .expect("submit");
        let report = sched.0.finish().map(ServeReport::from).expect("finish");
        let Some(c) = report.completions.first() else {
            panic!("one completion expected");
        };
        assert!(
            c.finish.as_secs() > 100.0,
            "work cannot finish before it arrives"
        );
        assert!(
            c.latency().as_secs() < 1.0,
            "an idle fleet serves a lone query promptly, got {}",
            c.latency()
        );
    }

    #[test]
    fn non_monotone_arrivals_are_refused() {
        let (snap, set) = snapshot("monotone", 200, 25);
        let params = SearchParams::exact(3);
        let mut sched = Scheduler::new(snap, SchedulerConfig::new(Policy::FairShare, 2));
        sched
            .0
            .submit(
                &set.vector_owned(0),
                &params,
                VirtualDuration::from_secs(1.0),
            )
            .expect("submit");
        let out = sched.0.submit(
            &set.vector_owned(1),
            &params,
            VirtualDuration::from_secs(0.5),
        );
        assert!(matches!(out, Err(ServeError::NonMonotoneArrival { .. })));
    }

    #[test]
    fn k_zero_completes_without_touching_the_disk() {
        let (snap, set) = snapshot("kzero", 200, 25);
        let params = SearchParams {
            k: 0,
            ..SearchParams::exact(0)
        };
        let report = Scheduler::new(snap, SchedulerConfig::new(Policy::MostWantedChunk, 2))
            .serve_trace(&trace(&set, 3, 1.0), &params)
            .expect("serve");
        assert_eq!(report.stats.completed, 3);
        assert_eq!(report.stats.fetches, 0);
        assert_eq!(report.stats.disk_reads, 0);
        for c in &report.completions {
            assert!(c.result.log.completed);
            assert_eq!(c.result.log.chunks_read, 0);
        }
    }

    #[test]
    fn tight_deadlines_are_counted_as_misses() {
        // One slot, no cache and a burst of scan-everything queries: the
        // queue pushes the later ones past their deadline.
        let (snap, set) = snapshot("deadline", 400, 25);
        let mut config = SchedulerConfig::new(Policy::EarliestDeadline, 1);
        config.cache_budget_bytes = 0;
        config.max_queued = 32;
        let report = Scheduler::new(snap, config)
            .serve_trace(&trace(&set, 32, 0.0), &scan_all(8))
            .expect("serve");
        assert_eq!(report.stats.completed, 32);
        let mut late = 0;
        for c in &report.completions {
            let held_to = c.arrival + DEADLINE;
            late += u64::from(c.finish.as_secs() > held_to.as_secs());
        }
        assert!(
            late > 0 && late < 32,
            "the burst straddles the deadline: {late} of 32 late"
        );
        assert_eq!(report.stats.deadline_misses, late);
    }

    #[test]
    fn edf_breaks_deadline_ties_by_remaining_work() {
        let (snap, set) = snapshot("edftie", 500, 25);
        let long = SearchParams {
            stop: StopRule::Chunks(8),
            ..SearchParams::exact(4)
        };
        let short = SearchParams {
            stop: StopRule::Chunks(1),
            ..SearchParams::exact(4)
        };
        let mut config = SchedulerConfig::new(Policy::EarliestDeadline, 4);
        config.max_queued = 4;
        let mut sched = Scheduler::new(snap, config);
        let t0 = VirtualDuration::ZERO;
        // Same arrival, same deadline: the long query is admitted first,
        // so a FIFO tie-break would serve all 8 of its chunks before the
        // one-chunk query gets a turn.
        let a = sched
            .0
            .submit(&set.vector_owned(0), &long, t0)
            .expect("long");
        let b = sched
            .0
            .submit(&set.vector_owned(7), &short, t0)
            .expect("short");
        let report = sched.0.finish().map(ServeReport::from).expect("finish");
        assert_eq!(report.stats.completed, 2);
        let finish_of = |id: u64| {
            report
                .completions
                .iter()
                .find(|c| c.id == id)
                .map(|c| c.finish.as_secs())
                .expect("completed")
        };
        assert!(
            finish_of(b) < finish_of(a),
            "the one-chunk query must finish first under an equal deadline: \
             short {} vs long {}",
            finish_of(b),
            finish_of(a)
        );
    }

    #[test]
    fn cross_query_cache_hits_are_visible_in_the_report() {
        let (snap, set) = snapshot("cache", 500, 25);
        let params = SearchParams::exact(8);
        // The same query repeated: later sessions ride the cache the first
        // one warmed (arrivals spaced so runs do not fully overlap).
        let q = set.vector_owned(11);
        let queries: Vec<(Vector, VirtualDuration)> = (0..4)
            .map(|i| (q, VirtualDuration::from_secs(i as f64)))
            .collect();
        let mut config = SchedulerConfig::new(Policy::FairShare, 2);
        config.cache_budget_bytes = u64::MAX;
        let report = Scheduler::new(snap, config)
            .serve_trace(&queries, &params)
            .expect("serve");
        assert_eq!(report.stats.completed, 4);
        assert!(
            report.stats.cache.cross_query_hits > 0,
            "repeat queries must hit chunks their predecessors pinned: {:?}",
            report.stats.cache
        );
        assert!(report.stats.disk_reads < report.stats.fetches);
        assert_eq!(
            report.stats.disk_reads_by_shard,
            vec![report.stats.disk_reads],
            "the solo scheduler is a one-shard fleet"
        );
    }

    #[test]
    fn single_slot_policies_degenerate_to_the_same_schedule() {
        let (snap, set) = snapshot("degenerate", 400, 30);
        let params = SearchParams::exact(6);
        let queries = trace(&set, 5, 2.0);
        let mut reports = Vec::new();
        for policy in Policy::ALL {
            let mut config = SchedulerConfig::new(policy, 1);
            config.max_queued = queries.len();
            reports.push(
                Scheduler::new(snap.clone(), config)
                    .serve_trace(&queries, &params)
                    .expect("serve"),
            );
        }
        let Some(first) = reports.first() else {
            return;
        };
        for r in &reports {
            assert_eq!(r.stats.fetches, first.stats.fetches);
            assert_eq!(r.stats.feeds, first.stats.feeds);
            assert_eq!(
                r.makespan.as_secs().to_bits(),
                first.makespan.as_secs().to_bits(),
                "one active slot leaves no scheduling freedom"
            );
        }
    }

    fn chaos_run(
        snap: &Snapshot,
        queries: &[(Vector, VirtualDuration)],
        params: &SearchParams,
        plan: Option<FaultPlan>,
        retry: RetryPolicy,
    ) -> ServeReport {
        let mut config = SchedulerConfig::new(Policy::MostWantedChunk, 4);
        config.max_queued = queries.len();
        config.fault_plan = plan;
        config.retry = retry;
        Scheduler::new(snap.clone(), config)
            .serve_trace(queries, params)
            .expect("serve")
    }

    #[test]
    fn rate_zero_chaos_is_bit_identical_to_the_fault_free_scheduler() {
        let (snap, set) = snapshot("chaosq", 500, 30);
        let params = SearchParams::exact(6);
        let queries = trace(&set, 8, 2.0);
        let retry = retry(3, 5.0);
        let plain = chaos_run(&snap, &queries, &params, None, retry);
        let quiet = chaos_run(
            &snap,
            &queries,
            &params,
            Some(FaultPlan::new(FaultConfig::quiet(77))),
            retry,
        );
        assert_eq!(plain.stats.fetches, quiet.stats.fetches);
        assert_eq!(quiet.stats.fetch_retries, 0);
        assert_eq!(quiet.stats.chunks_abandoned, 0);
        assert_eq!(quiet.stats.sessions_degraded, 0);
        assert_eq!(
            plain.makespan.as_secs().to_bits(),
            quiet.makespan.as_secs().to_bits(),
            "a quiet plan must not perturb the fleet clock"
        );
        for (a, b) in plain.completions.iter().zip(quiet.completions.iter()) {
            assert_bit_identical(&a.result, &b.result, &format!("quiet q{}", a.id));
        }
    }

    #[test]
    fn recovered_transients_keep_results_bit_identical_and_cost_fleet_time() {
        let (snap, set) = snapshot("chaosflaky", 400, 30);
        let params = SearchParams::exact(6);
        let queries = trace(&set, 6, 2.0);
        let budget = eff2_chaos::plan::TRANSIENT_CLEAR + 1;
        let retry = retry(budget, 5.0);
        let plain = chaos_run(&snap, &queries, &params, None, retry);
        let flaky = chaos_run(
            &snap,
            &queries,
            &params,
            Some(FaultPlan::new(FaultConfig::flaky(31, 1.0))),
            retry,
        );
        assert!(flaky.stats.fetch_retries > 0, "transients must retry");
        assert_eq!(flaky.stats.chunks_abandoned, 0);
        assert_eq!(flaky.stats.sessions_degraded, 0);
        assert_eq!(plain.completions.len(), flaky.completions.len());
        for (a, b) in plain.completions.iter().zip(flaky.completions.iter()) {
            assert_bit_identical(&a.result, &b.result, &format!("flaky q{}", a.id));
        }
        assert!(
            flaky.makespan.as_secs() > plain.makespan.as_secs(),
            "retries are charged to the fleet clock: {} vs {}",
            flaky.makespan,
            plain.makespan
        );
    }

    #[test]
    fn lost_chunks_degrade_sessions_but_every_query_completes() {
        let (snap, set) = snapshot("chaosloss", 600, 25);
        let params = scan_all(8);
        let queries = trace(&set, 10, 1.0);
        let plan = FaultPlan::new(FaultConfig::lossy(13, 0.2));
        let lost = plan.permanent_losses(snap.n_chunks());
        assert!(!lost.is_empty(), "seed 13 must lose at least one chunk");
        let retry = retry(2, 5.0);
        let report = chaos_run(&snap, &queries, &params, Some(plan), retry);
        assert_eq!(report.stats.completed, queries.len() as u64);
        assert!(report.stats.chunks_abandoned > 0);
        assert_eq!(report.stats.sessions_degraded, queries.len() as u64);
        for c in &report.completions {
            let d = &c.result.log.degradation;
            // Skips happen in each query's ranked order; compare as sets.
            let mut skipped = d.lost_chunks.clone();
            skipped.sort_unstable();
            assert_eq!(
                skipped, lost,
                "q{}: every session skips exactly the injected losses",
                c.id
            );
            assert!(d.descriptors_lost > 0);
        }
    }

    /// DESIGN §12's claim that the engine and the solo chaos stack run one
    /// retry loop: one query on the one-device engine, at budgets 1 to 4,
    /// loses the same chunks, reads the rest in the same order and finds
    /// the same neighbours as a skipping session pulling through
    /// `RetrySource(FaultSource(FileSource))` under the same plan.
    ///
    /// The charging rule is kept: what a lost chunk's attempts cost is
    /// booked to the waiting session's own clock on both sides, while the
    /// failed attempts behind a recovered chunk land on the engine's fleet
    /// clock but in the solo chunk's injected delay, that is on the solo
    /// query's own clock. So at budget 1, where nothing is recovered after
    /// a failure, the two results are bit-identical; above it the served
    /// query's `total_virtual` never exceeds the solo one.
    #[test]
    fn a_lone_query_loses_exactly_what_the_solo_chaos_stack_loses() {
        use eff2_chaos::{FaultSource, RetrySource};
        use eff2_core::session::{SearchSession, SkipPolicy};
        use eff2_storage::source::FileSource;
        use std::sync::Arc;

        let (snap, set) = snapshot("chaossolo", 500, 25);
        for budget in 1..=4 {
            let retry = retry(budget, 5.0);
            let mut degraded = 0;
            for seed in 0..14u64 {
                let config = FaultConfig {
                    permanent_rate: 0.15,
                    transient_rate: 0.2,
                    short_read_rate: 0.05,
                    corruption_rate: 0.05,
                    ..FaultConfig::quiet(seed)
                };
                let q = set.vector_owned((seed as usize * 37) % set.len());
                for params in [scan_all(6), SearchParams::exact(6)] {
                    let plan = FaultPlan::new(config);
                    let served = chaos_run(
                        &snap,
                        &[(q, VirtualDuration::ZERO)],
                        &params,
                        Some(plan),
                        retry,
                    );
                    let stack = RetrySource::new(
                        Arc::new(FaultSource::new(
                            Arc::new(FileSource::new(snap.store())),
                            plan,
                        )),
                        retry,
                    );
                    let mut solo = SearchSession::with_source(
                        snap.store(),
                        snap.model(),
                        &q,
                        &params,
                        Arc::new(stack),
                    );
                    solo.set_skip_policy(SkipPolicy::SkipUnavailable);
                    solo.run_to_stop().expect("degraded run completes");
                    let want = solo.into_result();
                    degraded += usize::from(want.log.degradation.is_degraded());
                    assert_eq!(served.completions.len(), 1);
                    let got = &served.completions[0].result;
                    let tag = format!("budget {budget}, seed {seed}, {:?}", params.stop);
                    if budget == 1 {
                        assert_eq!(want.first_difference(got), None, "{tag}");
                        continue;
                    }
                    let neighbors = |r: &SearchResult| -> Vec<(u32, u32)> {
                        r.neighbors
                            .iter()
                            .map(|n| (n.id, n.dist.to_bits()))
                            .collect()
                    };
                    let read = |r: &SearchResult| -> Vec<usize> {
                        r.log.events.iter().map(|e| e.chunk_id).collect()
                    };
                    assert_eq!(neighbors(&want), neighbors(got), "{tag}");
                    assert_eq!(want.log.degradation, got.log.degradation, "{tag}");
                    assert_eq!(read(&want), read(got), "{tag}");
                    assert!(
                        got.log.total_virtual.as_secs() <= want.log.total_virtual.as_secs(),
                        "{tag}: served {} > solo {}",
                        got.log.total_virtual,
                        want.log.total_virtual
                    );
                }
            }
            assert!(
                degraded > 14,
                "budget {budget}: most runs lose a chunk ({degraded} of 28)"
            );
        }
    }
}
