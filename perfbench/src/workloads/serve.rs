//! The two descriptor-serving workloads over the 100 k SR-tree index. An
//! op is one fresh scheduler serving a 64-query open-loop Poisson trace on
//! the virtual clock, at 4× the solo modelled capacity, whose queries are
//! drawn Zipf(1.1) from the pool so hot queries share chunks.
//!
//! `serve_mwc` is the single-device [`Scheduler`] under most-wanted-chunk
//! with a cache smaller than the decoded index: tick loop, fan-out feeds,
//! single-flight and eviction dominate. `fleet_failover` is the 4-shard,
//! replication-2 [`FleetScheduler`] under 5 % permanent primary loss:
//! scatter–gather legs, rank-ordered merge, routing and failover — and
//! every answer must stay exact.

use super::{Facts, SpanStats, Workload};
use crate::fixtures::{
    disk_bytes_per_user_byte, distances_check_out, mean, overload_trace, same_result, timed, Base,
    Ctx, Measured, Res,
};
use crate::stats::median_secs;
use crate::trace::{span_if, Recorder};
use eff2_chaos::{FaultConfig, FaultPlan, FaultSource, RetryPolicy, RetrySource};
use eff2_core::merge::{LegOutcome, ScatterGather};
use eff2_core::session::{ChunkRanking, SearchSession};
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::Vector;
use eff2_serve::{
    Completion, FleetConfig, FleetScheduler, LossScope, Policy, Scheduler, SchedulerConfig,
    ServeStats,
};
use eff2_shard::ShardMap;
use eff2_storage::diskmodel::VirtualDuration;
use eff2_storage::source::{ChunkSource, FileSource, SourcedChunk};
use eff2_workload::zipf_assignments;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Single device, most-wanted-chunk.
    Mwc,
    /// Four shards, replication 2, lossy primaries.
    Fleet,
}

/// Queries in the pool the Zipf draw picks from.
const POOL: usize = 1_000;
/// Queries per trace (one op).
const TRACE_LEN: usize = 64;
/// Zipf exponent of query popularity.
const ZIPF: f64 = 1.1;
/// Sessions interleaved at once.
const ACTIVE: usize = 16;
/// Fleet shape.
const SHARDS: usize = 4;
const REPLICATION: usize = 2;
/// Share of chunks whose primary copy is permanently lost, and the seed
/// that decides which: the damaged cluster is part of the fixture, like the
/// collection, so every run serves around the same lost chunks.
const LOSS_RATE: f64 = 0.05;
const FAULT_SEED: u64 = 42;
/// Pool queries the unit-cost probes cover.
const PROBE_QUERIES: usize = 64;

/// What either scheduler hands back, in one shape.
struct Served {
    completions: Vec<Completion>,
    stats: ServeStats,
    failovers: u64,
    cross_shard_fetches: u64,
    imbalance_factor: f64,
}

/// A built serving workload.
pub struct Serve {
    kind: Kind,
    ops: usize,
    base: Base,
    snapshot: Snapshot,
    fault_plan: FaultPlan,
    /// Per op: the pool index of every trace entry.
    picks: Vec<Vec<u32>>,
    /// Per op: the `(query, arrival)` trace.
    traces: Vec<Vec<(Vector, VirtualDuration)>>,
    /// Per-op counts the timing-derived layer metrics divide by; filled
    /// by [`verify`](Workload::verify).
    feeds_per_op: f64,
    disk_reads_per_op: f64,
}

impl Serve {
    /// Builds the fixture for `kind`.
    pub fn build(ctx: &Ctx, kind: Kind) -> Res<Serve> {
        let mut base = Base::build(ctx, ctx.scale.big, ctx.scale.ops(POOL).max(TRACE_LEN))?;
        let ops = ctx.scale.ops(200);
        let snapshot = Snapshot::new(base.store.clone(), base.model);
        let mean_solo = mean(base.reference.iter().map(|r| r.log.total_virtual.as_secs()));
        let (mut picks, mut traces) = (Vec::with_capacity(ops), Vec::with_capacity(ops));
        timed(&mut base.times, "workload.gen_ms", 1e3, || {
            for op in 0..ops as u64 {
                let seed = ctx.seed.wrapping_mul(1_000_003).wrapping_add(op);
                // Every trace has its own hot set: the Zipf ranks start at
                // a different pool position per op, so a pass covers the
                // whole pool while each trace stays skewed.
                let n = base.pool.len() as u64;
                let first = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) % n;
                let pick: Vec<u32> = zipf_assignments(TRACE_LEN, base.pool.len(), ZIPF, seed)
                    .into_iter()
                    .map(|rank| ((u64::from(rank) + first) % n) as u32)
                    .collect();
                traces.push(overload_trace(
                    pick.iter().map(|&p| base.pool[p as usize]),
                    TRACE_LEN,
                    mean_solo,
                    seed,
                ));
                picks.push(pick);
            }
        });
        Ok(Serve {
            kind,
            ops,
            base,
            snapshot,
            fault_plan: FaultPlan::new(FaultConfig::lossy(FAULT_SEED, LOSS_RATE)),
            picks,
            traces,
            feeds_per_op: 0.0,
            disk_reads_per_op: 0.0,
        })
    }

    fn scheduler(&self) -> Scheduler {
        Scheduler::new(
            self.snapshot.clone(),
            SchedulerConfig::new(Policy::MostWantedChunk, ACTIVE),
        )
    }

    fn fleet(&self, shards: usize, lossy: bool) -> FleetScheduler {
        let mut config = FleetConfig::new(Policy::MostWantedChunk, shards, ACTIVE);
        if lossy {
            config.replication = REPLICATION;
            config.fault_plan = Some(self.fault_plan);
            config.loss_scope = LossScope::Primary;
        }
        FleetScheduler::new(self.snapshot.clone(), config)
    }

    fn serve(&self, i: usize, mut rec: Option<&mut Recorder>) -> Res<Served> {
        let trace = &self.traces[i % self.traces.len()];
        let params = &self.base.params;
        Ok(match self.kind {
            Kind::Mwc => {
                let scheduler = span_if(&mut rec, "serve.scheduler.new", || self.scheduler());
                let report = span_if(&mut rec, "serve.scheduler.serve_trace", || {
                    scheduler.serve_trace(trace, params)
                })?;
                Served {
                    completions: report.completions,
                    stats: report.stats,
                    failovers: 0,
                    cross_shard_fetches: 0,
                    imbalance_factor: 0.0,
                }
            }
            Kind::Fleet => {
                let fleet = span_if(&mut rec, "serve.fleet.new", || self.fleet(SHARDS, true));
                let report = span_if(&mut rec, "serve.fleet.serve_trace", || {
                    fleet.serve_trace(trace, params)
                })?;
                Served {
                    completions: report.report.completions,
                    stats: report.report.stats,
                    failovers: report.failovers,
                    cross_shard_fetches: report.cross_shard_fetches,
                    imbalance_factor: report.imbalance_factor,
                }
            }
        })
    }

    /// Every query answered, none rejected, none degraded.
    fn complete(&self, served: &Served) -> bool {
        served.completions.len() == TRACE_LEN
            && served.stats.rejected == 0
            && served.stats.sessions_degraded == 0
    }

    /// Unit costs of the steps a scheduler strings together, measured on
    /// this snapshot: ranking one query, one synchronous file fetch, one
    /// fed step (kernel included).
    fn unit_costs(&self) -> Res<(f64, f64, f64)> {
        let b = &self.base;
        let queries = &b.pool[..b.pool.len().min(PROBE_QUERIES)];
        let rank_us = median_secs(|| {
            for q in queries {
                black_box(ChunkRanking::rank(&b.store, &b.model, q));
            }
        }) * 1e6
            / queries.len() as f64;
        let files = FileSource::new(&b.store);
        let (mut fetch_ns, mut step_ns, mut chunks) = (0u64, 0u64, 0u64);
        for q in queries {
            let mut session = SearchSession::detached(&b.store, &b.model, q, &b.params);
            let mut stream = files.open_stream(session.ranking().order_from(0))?;
            while !session.stop_satisfied() {
                let start = Instant::now();
                let Some(chunk) = stream.next_chunk() else {
                    break;
                };
                fetch_ns += start.elapsed().as_nanos() as u64;
                let chunk = chunk?;
                let start = Instant::now();
                session.step_with(&chunk)?;
                step_ns += start.elapsed().as_nanos() as u64;
                chunks += 1;
            }
        }
        let per_chunk = |ns: u64| ns as f64 / 1e3 / chunks.max(1) as f64;
        Ok((rank_us, per_chunk(fetch_ns), per_chunk(step_ns)))
    }

    /// The fleet-only probes: placement, chaos decorators, the gather
    /// merge, and the fleet's fixed overhead over the solo scheduler.
    fn fleet_probes(&self, out: &mut Measured) -> Res<()> {
        let b = &self.base;
        let n_chunks = b.store.n_chunks();
        out.insert(
            "shard.map_build_us",
            median_secs(|| {
                black_box(ShardMap::chunk_hash(n_chunks, SHARDS, REPLICATION));
            }) * 1e6,
        );
        let plan = self.fault_plan;
        out.insert(
            "chaos.fault_draw_ns",
            median_secs(|| {
                for chunk in 0..n_chunks {
                    black_box(plan.fault_for(chunk, 0));
                }
            }) * 1e9
                / n_chunks.max(1) as f64,
        );

        // A quiet retry + fault stack against the bare file source, over
        // the chunks the probe queries read.
        let orders: Vec<Vec<usize>> = b
            .reference
            .iter()
            .take(PROBE_QUERIES)
            .map(|r| r.log.events.iter().map(|e| e.chunk_id).collect())
            .collect();
        let chunks: usize = orders.iter().map(Vec::len).sum();
        let bare: Arc<dyn ChunkSource> = Arc::new(FileSource::new(&b.store));
        let quiet = FaultPlan::new(FaultConfig::quiet(plan.config().seed));
        let wrapped: Arc<dyn ChunkSource> = Arc::new(RetrySource::new(
            Arc::new(FaultSource::new(Arc::clone(&bare), quiet)),
            RetryPolicy::none(),
        ));
        let mut failed = false;
        let mut drain = |source: &Arc<dyn ChunkSource>| {
            median_secs(|| {
                for order in &orders {
                    match source.open_stream(order.clone()) {
                        Ok(mut stream) => {
                            while let Some(chunk) = stream.next_chunk() {
                                failed |= black_box(chunk).is_err();
                            }
                        }
                        Err(_) => failed = true,
                    }
                }
            })
        };
        let (bare_s, wrapped_s) = (drain(&bare), drain(&wrapped));
        if failed {
            return Err("chaos probe hit a read error".into());
        }
        out.insert(
            "chaos.retry_overhead_us_per_chunk",
            (wrapped_s - bare_s) * 1e6 / chunks.max(1) as f64,
        );

        // The gather side alone: replay each probe query's leg outcomes
        // into a fresh ScatterGather.
        let files = FileSource::new(&b.store);
        let (mut merge_ns, mut merges) = (0u64, 0u64);
        for q in b.pool.iter().take(PROBE_QUERIES) {
            let mut leg = SearchSession::detached(&b.store, &b.model, q, &b.params);
            let mut stream = files.open_stream(leg.ranking().order_from(0))?;
            let mut outcomes: Vec<(usize, LegOutcome)> = Vec::new();
            while !leg.stop_satisfied() {
                let Some(chunk) = stream.next_chunk() else {
                    break;
                };
                let chunk: SourcedChunk = chunk?;
                leg.step_with(&chunk)?;
                outcomes.push((
                    chunk.id,
                    LegOutcome::Scanned {
                        bytes_read: chunk.bytes_read,
                        count: chunk.payload.len() as u32,
                        entries: leg.neighbor_entries(),
                    },
                ));
            }
            let mut gather = ScatterGather::new(leg.ranking().clone(), &b.model, &b.params);
            let start = Instant::now();
            for (id, outcome) in &outcomes {
                gather.incorporate(*id, outcome)?;
            }
            merge_ns += start.elapsed().as_nanos() as u64;
            merges += outcomes.len() as u64;
            black_box(gather);
        }
        out.insert(
            "core.merge.incorporate_us",
            merge_ns as f64 / 1e3 / merges.max(1) as f64,
        );

        // One quiet shard against the solo scheduler on the same traces:
        // the two compute bit-identical answers, so the ratio is the
        // fleet machinery's fixed cost.
        let traces = &self.traces[..self.traces.len().min(20)];
        let mut failed = false;
        let fleet_s = median_secs(|| {
            for t in traces {
                failed |= black_box(self.fleet(1, false).serve_trace(t, &b.params)).is_err();
            }
        });
        let solo_s = median_secs(|| {
            for t in traces {
                failed |= black_box(self.scheduler().serve_trace(t, &b.params)).is_err();
            }
        });
        if failed {
            return Err("fleet overhead probe hit a serve error".into());
        }
        out.insert(
            "serve.fleet.overhead_vs_scheduler",
            fleet_s / solo_s.max(1e-12),
        );
        Ok(())
    }
}

impl Workload for Serve {
    fn ops(&self) -> usize {
        self.ops
    }

    fn op(&mut self, i: usize) -> bool {
        black_box(self.serve(i, None)).is_ok_and(|s| self.complete(&s))
    }

    fn traced_op(&mut self, i: usize, rec: &mut Recorder) -> bool {
        rec.enter("op");
        let served = self.serve(i, Some(rec));
        rec.exit();
        served.is_ok_and(|s| self.complete(&s))
    }

    fn verify(&mut self) -> Res<Facts> {
        let mut facts = Facts::default();
        let mut precision = Vec::new();
        let (mut feeds, mut fetches, mut disk_reads, mut misses_deadline, mut completed) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let (mut failovers, mut cross, mut imbalance) = (0u64, 0u64, 0.0f64);
        let (mut bytes, mut chunks, mut scanned) = (0u64, 0u64, 0u64);
        for op in 0..self.ops {
            facts.attempted += 1;
            let Ok(served) = self.serve(op, None) else {
                facts.failed += 1;
                continue;
            };
            let mut ok = self.complete(&served);
            for c in &served.completions {
                let qi = self.picks[op][c.id as usize] as usize;
                // Exact despite the lost primaries: bit-identical to the
                // solo search of the same query.
                ok &= same_result(&c.result, &self.base.reference[qi])
                    && distances_check_out(&self.base.set, &self.base.pool[qi], &c.result);
                facts.modelled_ms.push(c.latency().as_ms());
                precision.push(self.base.precision(std::iter::once((qi, &c.result))));
                bytes += c.result.log.bytes_read;
                chunks += c.result.log.chunks_read as u64;
                scanned += c.result.log.descriptors_scanned;
            }
            facts.failed += u64::from(!ok);
            let s = &served.stats;
            feeds += s.feeds;
            fetches += s.fetches;
            disk_reads += s.disk_reads;
            misses_deadline += s.deadline_misses;
            completed += s.completed;
            hits += s.cache.hits;
            misses += s.cache.misses;
            evictions += s.cache.evictions;
            failovers += served.failovers;
            cross += served.cross_shard_fetches;
            imbalance = served.imbalance_factor;
        }
        facts.precision = mean(precision.into_iter());
        facts.disk_bytes_per_user_byte = disk_bytes_per_user_byte(&self.base.store)?;
        let (ops, queries) = (self.ops.max(1) as f64, completed.max(1) as f64);
        self.feeds_per_op = feeds as f64 / ops;
        self.disk_reads_per_op = disk_reads as f64 / ops;
        let c = &mut facts.counts;
        c.insert("storage.store.bytes_read_per_op", bytes as f64 / ops);
        c.insert("core.search.chunks_read_per_query", chunks as f64 / queries);
        c.insert(
            "core.search.descriptors_scanned_per_query",
            scanned as f64 / queries,
        );
        c.insert(
            "storage.source.resident_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        c.insert(
            "storage.source.resident_evictions_per_op",
            evictions as f64 / ops,
        );
        match self.kind {
            Kind::Mwc => {
                c.insert(
                    "serve.scheduler.feeds_per_fetch",
                    feeds as f64 / fetches.max(1) as f64,
                );
                c.insert(
                    "serve.scheduler.disk_reads_per_query",
                    disk_reads as f64 / queries,
                );
                c.insert(
                    "serve.scheduler.deadline_miss_ratio",
                    misses_deadline as f64 / queries,
                );
            }
            Kind::Fleet => {
                c.insert("serve.fleet.failovers_per_op", failovers as f64 / ops);
                c.insert(
                    "serve.fleet.cross_shard_fetches_per_query",
                    cross as f64 / queries,
                );
                c.insert("shard.imbalance_factor", imbalance);
            }
        }
        Ok(facts)
    }

    fn setup(&self) -> &Measured {
        &self.base.times
    }

    fn layers(&mut self, spans: &SpanStats, out: &mut Measured) -> Res<()> {
        let (rank_us, fetch_us, step_us) = self.unit_costs()?;
        out.insert("core.session.rank_us", rank_us);
        out.insert("storage.source.file_fetch_us_per_chunk", fetch_us);
        let feeds = self.feeds_per_op.max(1.0);
        match self.kind {
            Kind::Mwc => {
                let serve_us = spans.us("serve.scheduler.serve_trace");
                out.insert("serve.scheduler.us_per_feed", serve_us / feeds);
                // Derived: what is left of a served trace after the steps,
                // disk reads and rankings it had to do anyway.
                let rest = serve_us
                    - self.feeds_per_op * step_us
                    - self.disk_reads_per_op * fetch_us
                    - TRACE_LEN as f64 * rank_us;
                out.insert("serve.scheduler.self_us_per_query", rest / TRACE_LEN as f64);
            }
            Kind::Fleet => {
                out.insert(
                    "serve.fleet.us_per_feed",
                    spans.us("serve.fleet.serve_trace") / feeds,
                );
                self.fleet_probes(out)?;
            }
        }
        Ok(())
    }
}
