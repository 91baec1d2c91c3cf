//! Sharded fleet serving: one query session, N devices delivering chunks.
//!
//! The solo [`Scheduler`](crate::Scheduler) interleaves many queries over
//! *one* simulated device. A [`FleetScheduler`] runs the same engine
//! (`engine.rs`) under the same plain fold on N shard nodes — each with its
//! own disk/CPU clock and byte-budgeted resident cache — with chunks placed
//! by a [`Placement`] policy (chunk-hash or centroid-locality, R-way
//! replicated). A fleet changes *where* a chunk is read, not what is
//! scanned: every query is still one [`SearchSession`] over its global
//! ranking, each shard delivers the ranked chunks routed to it (at most 8
//! ranks ahead of the session's cursor), and the session consumes them
//! strictly in rank order — so the answer is **bit-identical** to the solo
//! run by construction. Ranking CPU is charged on the query's *home* shard,
//! the routed owner of its first-ranked chunk.
//!
//! Replication turns permanent loss into **failover**: a read goes to the
//! routed owner and falls back copy by copy, each copy tried through the
//! one retry loop of eff2-chaos with its attempts numbered on from the
//! copies before it, so every probe costs what the same attempt would cost
//! a solo retrying source; that cost is charged to the fleet clocks. Only
//! when every copy fails is the chunk delivered as lost, degrading the
//! result exactly like the solo scheduler's abandoned chunks. Whole-shard-down faults ([`ShardFaultPlan`]) are static for the
//! run: routing skips downed owners, and a chunk with no live owner is
//! skipped, at its modelled probe cost, when the cursor reaches it.
//!
//! A fleet of one shard with replication 1 and no faults reproduces the
//! solo scheduler bit-for-bit. The device set is independent of the fold:
//! [`ImageScheduler::on_fleet`](crate::ImageScheduler::on_fleet) runs image
//! queries on the same shard nodes.

use crate::engine::{Devices, Drained, Engine};
use crate::error::Result;
use crate::scheduler::{Plain, Policy, SchedulerConfig, ServeReport};
use eff2_chaos::{FaultPlan, RetryPolicy, ShardFaultPlan};
use eff2_core::search::SearchParams;
#[cfg(doc)]
use eff2_core::session::SearchSession;
use eff2_core::snapshot::Snapshot;
use eff2_core::CoarseQuantizer;
use eff2_descriptor::Vector;
use eff2_shard::{Placement, ShardMap};
use eff2_storage::diskmodel::VirtualDuration;
use std::sync::Arc;

/// Which copies a [`FaultPlan`]'s permanent-loss draw applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossScope {
    /// The permanent draw models loss of the primary copy's medium only:
    /// replicas share the chunk's per-attempt weather (their
    /// [`FaultPlan::attempt`] skips the permanent draw) but not its
    /// permanent fate, so replication ≥ 2 turns a permanent loss into a
    /// failover and the result stays exact.
    Primary,
    /// The permanent draw kills every copy — replication cannot help, and
    /// the fleet degrades exactly like the single-device scheduler.
    AllCopies,
}

/// Fleet scheduler knobs. The solo [`SchedulerConfig`] fields keep their meaning; the additions configure the shard layer.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The per-shard chunk-pick policy.
    pub policy: Policy,
    /// Shard nodes in the fleet. Clamped to a minimum of 1.
    pub n_shards: usize,
    /// Copies per chunk (clamped to `n_shards` by the [`ShardMap`]).
    pub replication: usize,
    /// How primary copies are assigned to shards.
    pub placement: Placement,
    /// Queries interleaved at once across the whole fleet.
    pub max_active: usize,
    /// Admitted-but-waiting queries beyond which submission is refused.
    pub max_queued: usize,
    /// Byte budget of **each** shard's decoded-chunk cache.
    pub cache_budget_bytes: u64,
    /// Injected chunk-fault schedule (applied per copy — see
    /// [`LossScope`]).
    pub fault_plan: Option<FaultPlan>,
    /// Which copies the plan's permanent-loss draw kills.
    pub loss_scope: LossScope,
    /// Whole-shard-down schedule, static for the run.
    pub shard_faults: ShardFaultPlan,
    /// Retry/backoff budget per copy; failed probes are charged to the
    /// modelled clock exactly like the solo scheduler's.
    pub retry: RetryPolicy,
}

impl FleetConfig {
    /// A fleet of `n_shards` nodes under `policy` at concurrency
    /// `max_active`, replication 1, hash placement and no faults, with
    /// [`SchedulerConfig::new`]'s queue and per-shard cache.
    pub fn new(policy: Policy, n_shards: usize, max_active: usize) -> FleetConfig {
        let solo = SchedulerConfig::new(policy, max_active);
        FleetConfig {
            policy,
            n_shards: n_shards.max(1),
            replication: 1,
            placement: Placement::ChunkHash,
            max_active: solo.max_active,
            max_queued: solo.max_queued,
            cache_budget_bytes: solo.cache_budget_bytes,
            fault_plan: solo.fault_plan,
            loss_scope: LossScope::Primary,
            shard_faults: ShardFaultPlan::none(),
            retry: solo.retry,
        }
    }

    /// The knobs shared with the solo scheduler.
    pub(crate) fn scheduler(&self) -> SchedulerConfig {
        SchedulerConfig {
            policy: self.policy,
            max_active: self.max_active,
            max_queued: self.max_queued,
            cache_budget_bytes: self.cache_budget_bytes,
            fault_plan: self.fault_plan,
            retry: self.retry,
        }
    }
}

/// Everything a finished fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Completions, fleet counters (`ServeStats::disk_reads_by_shard`
    /// is per shard node) and makespan — the same shape the solo
    /// scheduler reports, so eval code handles both.
    pub report: ServeReport,
    /// Chunk deliveries that crossed shards: the delivering shard differed
    /// from the fed query's home shard (counted once per fed query).
    /// Centroid-locality placement exists to shrink this.
    pub cross_shard_fetches: u64,
    /// Deliveries served by a non-primary copy (a downed or faulted
    /// earlier copy was skipped or probed first).
    pub failovers: u64,
    /// Max-over-mean primary chunk count of the placement actually used —
    /// the Tavenard/Amsaleg/Jégou imbalance factor.
    pub imbalance_factor: f64,
    /// Primary chunk count per shard.
    pub per_shard_primary_chunks: Vec<usize>,
}

/// The shard nodes of `config` over `snapshot`'s chunks: builds the
/// [`ShardMap`] (training the coarse quantizer for centroid-locality
/// placement) and applies the static shard-down mask.
pub(crate) fn devices(snapshot: &Snapshot, config: &FleetConfig) -> (Devices, Arc<ShardMap>) {
    let n_shards = config.n_shards.max(1);
    let n_chunks = snapshot.n_chunks();
    let map = Arc::new(match config.placement {
        Placement::ChunkHash => ShardMap::chunk_hash(n_chunks, n_shards, config.replication),
        Placement::CentroidLocality => {
            let quantizer = CoarseQuantizer::for_store(snapshot.store());
            let cells: Vec<Vec<u32>> = quantizer
                .cells()
                .map(|(_, _, _, members)| members.to_vec())
                .collect();
            ShardMap::from_cells(&cells, n_chunks, n_shards, config.replication)
        }
    });
    let down = config.shard_faults.down_mask(n_shards);
    let placed = (Arc::clone(&map), down, config.loss_scope);
    (Devices::new(Some(placed)), map)
}

/// The sharded scheduler. See the [module docs](self).
#[derive(Debug)]
pub struct FleetScheduler {
    engine: Engine<Plain>,
    map: Arc<ShardMap>,
}

impl FleetScheduler {
    /// A fleet over `snapshot` with `config`; the placement table is built
    /// up front.
    pub fn new(snapshot: Snapshot, config: FleetConfig) -> FleetScheduler {
        let (devices, map) = devices(&snapshot, &config);
        FleetScheduler {
            engine: Engine::new(snapshot, config.scheduler(), devices, Plain),
            map,
        }
    }

    /// Submits a whole trace (already in arrival order) and drains;
    /// overload rejections are counted, not fatal.
    pub fn serve_trace(
        self,
        trace: &[(Vector, VirtualDuration)],
        params: &SearchParams,
    ) -> Result<FleetReport> {
        let drained = self.engine.serve_trace(trace, params)?;
        Ok(Self::report(drained, &self.map))
    }

    fn report(drained: Drained<Plain>, map: &ShardMap) -> FleetReport {
        FleetReport {
            cross_shard_fetches: drained.cross_device_fetches,
            failovers: drained.failovers,
            imbalance_factor: map.imbalance_factor(),
            per_shard_primary_chunks: map.primary_counts(),
            report: ServeReport::from(drained),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_bit_identical, retry, scan_all, snapshot, trace};
    use crate::scheduler::Scheduler;
    use eff2_chaos::FaultConfig;
    use eff2_core::search::{ResultFidelity, SearchResult};

    #[test]
    fn one_shard_quiet_fleet_reproduces_the_solo_scheduler_bit_for_bit() {
        let (snap, set) = snapshot("onesolo", 600, 30);
        let params = SearchParams::exact(8);
        let queries = trace(&set, 12, 3.0);
        for policy in Policy::ALL {
            let mut solo_config = SchedulerConfig::new(policy, 4);
            solo_config.max_queued = queries.len();
            let solo = Scheduler::new(snap.clone(), solo_config)
                .serve_trace(&queries, &params)
                .expect("solo");
            let mut fleet_config = FleetConfig::new(policy, 1, 4);
            fleet_config.max_queued = queries.len();
            let fleet = FleetScheduler::new(snap.clone(), fleet_config)
                .serve_trace(&queries, &params)
                .expect("fleet");
            assert_eq!(fleet.cross_shard_fetches, 0);
            assert_eq!(fleet.failovers, 0);
            let (a, b) = (&solo, &fleet.report);
            assert_eq!(a.completions.len(), b.completions.len());
            assert_eq!(a.stats.fetches, b.stats.fetches, "{}", policy.name());
            assert_eq!(a.stats.disk_reads, b.stats.disk_reads);
            assert_eq!(a.stats.disk_reads_by_shard, b.stats.disk_reads_by_shard);
            assert_eq!(a.stats.feeds, b.stats.feeds);
            assert_eq!(
                a.makespan.as_secs().to_bits(),
                b.makespan.as_secs().to_bits(),
                "{}: a one-shard fleet is the solo device",
                policy.name()
            );
            for (x, y) in a.completions.iter().zip(b.completions.iter()) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.finish.as_secs().to_bits(), y.finish.as_secs().to_bits());
                assert_bit_identical(
                    &x.result,
                    &y.result,
                    &format!("{} q{}", policy.name(), x.id),
                );
            }
        }
    }

    #[test]
    fn merged_answers_bit_identical_to_serial_across_shards_and_placements() {
        let (snap, set) = snapshot("scatter", 600, 30);
        let params = SearchParams::exact(8);
        let queries = trace(&set, 10, 1.0);
        let serial: Vec<SearchResult> = queries
            .iter()
            .map(|(q, _)| snap.search(q, &params).expect("serial"))
            .collect();
        for placement in Placement::ALL {
            for n_shards in [1usize, 3, 5] {
                for policy in Policy::ALL {
                    let mut config = FleetConfig::new(policy, n_shards, 4);
                    config.placement = placement;
                    config.replication = 2;
                    config.max_queued = queries.len();
                    let report = FleetScheduler::new(snap.clone(), config)
                        .serve_trace(&queries, &params)
                        .expect("fleet");
                    assert_eq!(report.report.completions.len(), queries.len());
                    for (c, want) in report.report.completions.iter().zip(serial.iter()) {
                        assert_bit_identical(
                            want,
                            &c.result,
                            &format!(
                                "{}/{}x/{} q{}",
                                placement.name(),
                                n_shards,
                                policy.name(),
                                c.id
                            ),
                        );
                    }
                    let by_shard: u64 = report.report.stats.disk_reads_by_shard.iter().sum();
                    assert_eq!(by_shard, report.report.stats.disk_reads);
                    assert_eq!(report.report.stats.disk_reads_by_shard.len(), n_shards);
                }
            }
        }
    }

    fn chaos_fleet(
        snap: &Snapshot,
        queries: &[(Vector, VirtualDuration)],
        params: &SearchParams,
        replication: usize,
        scope: LossScope,
        plan: FaultPlan,
    ) -> FleetReport {
        let mut config = FleetConfig::new(Policy::MostWantedChunk, 4, 4);
        config.replication = replication;
        config.max_queued = queries.len();
        config.fault_plan = Some(plan);
        config.loss_scope = scope;
        config.retry = retry(2, 5.0);
        FleetScheduler::new(snap.clone(), config)
            .serve_trace(queries, params)
            .expect("fleet")
    }

    #[test]
    fn replication_turns_permanent_loss_into_failover() {
        let (snap, set) = snapshot("failover", 600, 25);
        let params = scan_all(8);
        let queries = trace(&set, 6, 1.0);
        let plan = FaultPlan::new(FaultConfig::lossy(13, 0.2));
        assert!(!plan.permanent_losses(snap.n_chunks()).is_empty());
        let serial: Vec<SearchResult> = queries
            .iter()
            .map(|(q, _)| snap.search(q, &params).expect("serial"))
            .collect();

        let solo = chaos_fleet(&snap, &queries, &params, 1, LossScope::Primary, plan);
        assert_eq!(
            solo.report.stats.sessions_degraded,
            queries.len() as u64,
            "replication 1 cannot mask a permanent loss"
        );
        for c in &solo.report.completions {
            assert_eq!(c.result.log.fidelity(), ResultFidelity::Degraded);
        }

        let replicated = chaos_fleet(&snap, &queries, &params, 2, LossScope::Primary, plan);
        assert_eq!(
            replicated.report.stats.sessions_degraded, 0,
            "a replica must serve every permanently-lost primary"
        );
        assert!(replicated.failovers > 0, "failovers must be accounted");
        for (c, want) in replicated.report.completions.iter().zip(serial.iter()) {
            assert_eq!(c.result.log.fidelity(), ResultFidelity::Exact);
            assert_eq!(c.result.neighbors.len(), want.neighbors.len());
            for (w, g) in want.neighbors.iter().zip(c.result.neighbors.iter()) {
                assert_eq!(w.id, g.id, "failover must not change the answer");
                assert_eq!(w.dist.to_bits(), g.dist.to_bits());
            }
        }
    }

    #[test]
    fn a_failover_hit_on_a_replica_only_shard_is_cross_query_iff_another_session_read_it() {
        // Fewer chunks than shards: some shard holds replicas but is no
        // chunk's primary, so routing sends it nothing and only a failover
        // ever lands there.
        let (snap, set) = snapshot("replicaonly", 90, 30);
        let (n_chunks, n_shards) = (snap.n_chunks(), 16);
        assert!(n_chunks < n_shards);
        let map = ShardMap::chunk_hash(n_chunks, n_shards, 2);
        let primaries = map.primary_counts();
        assert!(
            (0..n_chunks).any(|c| primaries[map.owners(c)[1] as usize] == 0),
            "the scenario needs a replica-only shard"
        );
        // Every primary is lost for good, so every read fails over. The
        // sessions run one after the other: the first reads each replica
        // from disk, every later one finds it in the replica shard's cache.
        let run = |n_sessions: usize| {
            let mut config = FleetConfig::new(Policy::FairShare, n_shards, 1);
            config.replication = 2;
            config.max_queued = n_sessions;
            config.fault_plan = Some(FaultPlan::new(FaultConfig::lossy(7, 1.0)));
            config.retry = retry(2, 5.0);
            let fleet = FleetScheduler::new(snap.clone(), config)
                .serve_trace(&trace(&set, n_sessions, 60_000.0), &scan_all(8))
                .expect("fleet");
            assert_eq!(fleet.report.stats.sessions_degraded, 0);
            assert_eq!(fleet.failovers, (n_sessions * n_chunks) as u64);
            fleet.report.stats.cache
        };
        let alone = run(1);
        assert_eq!((alone.hits, alone.cross_query_hits), (0, 0));
        let three = run(3);
        assert_eq!(three.misses, n_chunks as u64);
        assert_eq!(three.hits, 2 * n_chunks as u64);
        assert_eq!(
            three.cross_query_hits, three.hits,
            "every hit found a chunk that a different session brought in"
        );
    }

    #[test]
    fn all_copies_lost_degrades_exactly_like_the_solo_scheduler() {
        let (snap, set) = snapshot("allcopies", 600, 25);
        let params = scan_all(8);
        let queries = trace(&set, 6, 1.0);
        let plan = FaultPlan::new(FaultConfig::lossy(13, 0.2));
        let lost = plan.permanent_losses(snap.n_chunks());
        assert!(!lost.is_empty());
        let fleet = chaos_fleet(&snap, &queries, &params, 3, LossScope::AllCopies, plan);
        assert_eq!(
            fleet.report.stats.sessions_degraded,
            queries.len() as u64,
            "killing every copy must degrade exactly like single-device loss"
        );
        let mut solo_config = SchedulerConfig::new(Policy::MostWantedChunk, 4);
        solo_config.max_queued = queries.len();
        solo_config.fault_plan = Some(plan);
        solo_config.retry = retry(2, 5.0);
        let solo = Scheduler::new(snap.clone(), solo_config)
            .serve_trace(&queries, &params)
            .expect("solo");
        for (f, s) in fleet.report.completions.iter().zip(solo.completions.iter()) {
            let mut f_lost = f.result.log.degradation.lost_chunks.clone();
            let mut s_lost = s.result.log.degradation.lost_chunks.clone();
            f_lost.sort_unstable();
            s_lost.sort_unstable();
            assert_eq!(f_lost, s_lost, "q{}: same lost set as the solo run", f.id);
            assert_eq!(f.result.log.fidelity(), s.result.log.fidelity());
            for (w, g) in s.result.neighbors.iter().zip(f.result.neighbors.iter()) {
                assert_eq!(w.id, g.id);
                assert_eq!(w.dist.to_bits(), g.dist.to_bits());
            }
        }
    }

    #[test]
    fn whole_shard_down_fails_over_with_replication_and_degrades_without() {
        let (snap, set) = snapshot("sharddown", 600, 25);
        let params = scan_all(8);
        let queries = trace(&set, 5, 1.0);
        let run = |replication: usize| {
            let mut config = FleetConfig::new(Policy::FairShare, 4, 4);
            config.replication = replication;
            config.max_queued = queries.len();
            config.shard_faults = ShardFaultPlan::fixed(&[1]);
            FleetScheduler::new(snap.clone(), config)
                .serve_trace(&queries, &params)
                .expect("fleet")
        };
        let bare = run(1);
        assert_eq!(
            bare.report.stats.sessions_degraded,
            queries.len() as u64,
            "without replication a downed shard's chunks are unreachable"
        );
        for c in &bare.report.completions {
            assert!(c.result.log.degradation.chunks_lost > 0);
        }
        let replicated = run(2);
        assert_eq!(replicated.report.stats.sessions_degraded, 0);
        assert!(
            replicated.failovers > 0,
            "reads on the downed shard must fail over to replicas"
        );
        assert_eq!(
            replicated.report.stats.disk_reads_by_shard[1], 0,
            "a downed shard serves nothing"
        );
        for c in &replicated.report.completions {
            assert_eq!(c.result.log.fidelity(), ResultFidelity::Exact);
        }
    }

    #[test]
    fn centroid_locality_reports_placement_metrics() {
        let (snap, set) = snapshot("placement", 800, 25);
        let params = SearchParams::exact(8);
        let queries = trace(&set, 8, 1.0);
        let run = |placement: Placement| {
            let mut config = FleetConfig::new(Policy::FairShare, 4, 4);
            config.placement = placement;
            config.max_queued = queries.len();
            FleetScheduler::new(snap.clone(), config)
                .serve_trace(&queries, &params)
                .expect("fleet")
        };
        for placement in Placement::ALL {
            let report = run(placement);
            assert!(report.imbalance_factor >= 1.0);
            assert_eq!(report.per_shard_primary_chunks.len(), 4);
            assert_eq!(
                report.per_shard_primary_chunks.iter().sum::<usize>(),
                snap.n_chunks()
            );
        }
    }
}
