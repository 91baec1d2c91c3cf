//! `live_mixed`: reads beside writes. An op is one window — 8 queries
//! merged with 64 skewed mutations (half inserts, Zipf 1.1) — through a
//! [`LiveServer`] that compacts every 64 mutations, chained through the
//! returned [`MutableIndex`]. Every pass starts from a fresh SR-tree
//! leaf-200 index over the 10 k collection and deletes it afterwards, so a
//! pass is ~200 compaction cycles.
//!
//! A durability barrier, a manifest checksum or generation GC moves this
//! workload and must leave the six read-only ones alone.

use super::{Facts, SpanStats, Workload};
use crate::fixtures::{
    collection, mean, overload_trace, params, same_result, sr_chunks, timed, Ctx, Measured, Res, K,
    LEAF, OVERLOAD, PAGE,
};
use crate::proc::dir_bytes;
use crate::stats::{median, median_secs};
use crate::trace::{span_if, Recorder};
use eff2_core::chunkers::ChunkFormation;
use eff2_core::search::{SearchParams, StopRule};
use eff2_descriptor::DescriptorSet;
use eff2_epoch::MutableIndex;
use eff2_metrics::precision_at;
use eff2_serve::{merge_timelines, CompactionPolicy, LiveEvent, LiveReport, LiveServer};
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_workload::{dq_workload, skewed_mutation_trace, MutationOp};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Queries and mutations per window (one op).
const QUERIES_PER_OP: usize = 8;
const MUTATIONS_PER_OP: usize = 64;
/// Share of mutations that insert, and the skew of where they land.
const INSERT_FRAC: f64 = 0.5;
const ZIPF: f64 = 1.1;
/// Fold the delta once per window's worth of mutations.
const POLICY: CompactionPolicy = CompactionPolicy::EveryOps(MUTATIONS_PER_OP);
/// Windows the epoch-layer probes repeat over.
const PROBE_WINDOWS: usize = 5;

/// The built live workload.
pub struct LiveMixed {
    ops: usize,
    dir: PathBuf,
    set: DescriptorSet,
    formation: ChunkFormation,
    params: SearchParams,
    /// Per op: the merged `(arrival, event)` window.
    windows: Vec<Vec<(VirtualDuration, LiveEvent)>>,
    /// The index the current pass chains through.
    index: Option<MutableIndex>,
    times: Measured,
}

impl LiveMixed {
    /// Builds the fixture: collection, chunk formation, one index written
    /// (to time the write and size the traces), queries and mutations.
    pub fn build(ctx: &Ctx) -> Res<LiveMixed> {
        let mut times = Measured::new();
        let set = collection(ctx.scale.small, &mut times);
        let formation = sr_chunks(&set, &mut times);
        let params = params();
        let ops = ctx.scale.ops(200);
        let queries = timed(&mut times, "workload.gen_ms", 1e3, || {
            dq_workload(&set, ops * QUERIES_PER_OP, ctx.seed).queries
        });

        // Solo modelled capacity on a freshly written index.
        let setup_dir = ctx.dir.join("setup");
        let index = timed(&mut times, "storage.store.create_s", 1.0, || {
            create_index(&setup_dir, &set, &formation)
        })?;
        let pinned = index.pin();
        let solo_secs = queries
            .iter()
            .take(32)
            .map(|q| {
                pinned
                    .search(q, &params)
                    .map(|r| r.log.total_virtual.as_secs())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mean_solo = mean(solo_secs.into_iter());
        drop((pinned, index));
        std::fs::remove_dir_all(&setup_dir)?;

        // Mutations arrive 8× as often as queries, so a window's 64
        // mutations span the same virtual interval as its 8 queries.
        let mutation_rate =
            OVERLOAD / mean_solo.max(1e-9) * (MUTATIONS_PER_OP / QUERIES_PER_OP) as f64;
        let windows = timed(&mut times, "workload.gen_ms", 1e3, || {
            let mutations = skewed_mutation_trace(
                &set,
                ops * MUTATIONS_PER_OP,
                INSERT_FRAC,
                mutation_rate,
                ZIPF,
                ctx.seed,
            );
            let mut window_start = 0.0;
            queries
                .chunks(QUERIES_PER_OP)
                .zip(mutations.events.chunks(MUTATIONS_PER_OP))
                .enumerate()
                .map(|(w, (qs, ms))| {
                    let seed = ctx.seed.wrapping_mul(1_000_003).wrapping_add(w as u64);
                    let arrivals = overload_trace(qs.iter().copied(), qs.len(), mean_solo, seed);
                    // Each window runs on a fresh server clock: rebase the
                    // mutation times to the window's start.
                    let events: Vec<(VirtualDuration, LiveEvent)> = ms
                        .iter()
                        .map(|e| {
                            let event = match &e.op {
                                MutationOp::Insert { id, vector } => LiveEvent::Insert {
                                    id: *id,
                                    vector: *vector,
                                },
                                MutationOp::Delete { id } => LiveEvent::Delete { id: *id },
                            };
                            (VirtualDuration::from_secs(e.at_secs - window_start), event)
                        })
                        .collect();
                    window_start = ms.last().map_or(window_start, |e| e.at_secs);
                    merge_timelines(&arrivals, &events)
                })
                .collect()
        });
        Ok(LiveMixed {
            ops,
            dir: ctx.dir.clone(),
            set,
            formation,
            params,
            windows,
            index: None,
            times,
        })
    }

    /// Writes generation zero under `<dir>/<tag>`.
    fn create(&self, tag: &str) -> Res<MutableIndex> {
        create_index(&self.dir.join(tag), &self.set, &self.formation)
    }

    /// Deletes `<dir>/<tag>` and every generation under it.
    fn remove(&self, tag: &str) -> Res<()> {
        let dir = self.dir.join(tag);
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        Ok(())
    }

    /// Serves window `i` on the pass's index and chains the index on. An
    /// error loses the index, so the rest of the pass fails too.
    fn serve(&mut self, i: usize, mut rec: Option<&mut Recorder>) -> Res<LiveReport> {
        let index = self
            .index
            .take()
            .ok_or("no live index: an earlier op failed")?;
        let (params, window) = (self.params, &self.windows[i % self.windows.len()]);
        let server = span_if(&mut rec, "serve.live.new", || {
            LiveServer::new(index, params, POLICY)
        });
        let (report, index) = span_if(&mut rec, "serve.live.serve_trace", || {
            server.serve_trace(window)
        })?;
        self.index = Some(index);
        Ok(report)
    }

    fn complete(report: &LiveReport) -> bool {
        report.completions.len() == QUERIES_PER_OP
            && report.stats.mutations == MUTATIONS_PER_OP as u64
    }

    /// The mutations of window `w`, without its queries.
    fn mutations(&self, w: usize) -> impl Iterator<Item = &LiveEvent> {
        self.windows[w % self.windows.len()]
            .iter()
            .map(|(_, e)| e)
            .filter(|e| !matches!(e, LiveEvent::Query(_)))
    }
}

/// Writes generation zero of a live index under `dir`.
fn create_index(dir: &Path, set: &DescriptorSet, formation: &ChunkFormation) -> Res<MutableIndex> {
    Ok(MutableIndex::create(
        dir,
        "live",
        set,
        &formation.chunks,
        PAGE,
        None,
        DiskModel::ata_2005(),
        LEAF,
    )?)
}

impl Workload for LiveMixed {
    fn ops(&self) -> usize {
        self.ops
    }

    fn begin_pass(&mut self) -> Res<()> {
        self.index = None;
        self.remove("pass")?;
        self.index = Some(self.create("pass")?);
        Ok(())
    }

    fn op(&mut self, i: usize) -> bool {
        black_box(self.serve(i, None)).is_ok_and(|r| Self::complete(&r))
    }

    fn traced_op(&mut self, i: usize, rec: &mut Recorder) -> bool {
        rec.enter("op");
        let report = self.serve(i, Some(rec));
        rec.exit();
        report.is_ok_and(|r| Self::complete(&r))
    }

    fn end_pass(&mut self) -> Res<()> {
        self.index = None;
        self.remove("pass")
    }

    fn verify(&mut self) -> Res<Facts> {
        let mut facts = Facts::default();
        let exact = SearchParams {
            stop: StopRule::ToCompletion,
            ..self.params
        };
        let mut precision = Vec::new();
        let (mut compactions, mut cost_secs, mut written, mut mutations) = (0u64, 0.0, 0u64, 0u64);
        let (mut bytes, mut chunks, mut scanned, mut queries) = (0u64, 0u64, 0u64, 0u64);
        self.begin_pass()?;
        for op in 0..self.ops {
            facts.attempted += 1;
            let Ok(report) = self.serve(op, None) else {
                facts.failed += 1;
                continue;
            };
            let mut ok = Self::complete(&report);
            for (j, c) in report.completions.iter().enumerate() {
                // Bit-identical to a solo search of the epoch it pinned.
                ok &= c
                    .snapshot
                    .search(&c.query, &self.params)
                    .is_ok_and(|solo| same_result(&c.result, &solo));
                facts.modelled_ms.push(c.latency().as_ms());
                bytes += c.result.log.bytes_read;
                chunks += c.result.log.chunks_read as u64;
                scanned += c.result.log.descriptors_scanned;
                queries += 1;
                if j == 0 {
                    // Quality against the exact answer on the same epoch,
                    // sampled once per window.
                    let truth: Vec<u32> = c
                        .snapshot
                        .search(&c.query, &exact)?
                        .neighbors
                        .iter()
                        .take(K)
                        .map(|n| n.id)
                        .collect();
                    let got: Vec<u32> = c.result.neighbors.iter().map(|n| n.id).collect();
                    precision.push(precision_at(&got, &truth));
                }
            }
            facts.failed += u64::from(!ok);
            compactions += report.stats.compactions;
            cost_secs += report.stats.compaction_cost_secs;
            mutations += report.stats.mutations;
            written += report
                .stats
                .compaction_log
                .iter()
                .map(|s| s.bytes_written)
                .sum::<u64>();
        }
        facts.precision = mean(precision.into_iter());
        if let Some(index) = self.index.as_ref() {
            // Space is reported beside read and write cost: every
            // generation a pass leaves behind is on disk here.
            facts.disk_bytes_per_user_byte = dir_bytes(&self.dir.join("pass"))? as f64
                / (100.0 * index.base().total_descriptors().max(1) as f64);
        }
        self.end_pass()?;
        let (ops, q) = (self.ops.max(1) as f64, queries.max(1) as f64);
        let c = &mut facts.counts;
        c.insert("serve.live.compactions_per_op", compactions as f64 / ops);
        c.insert("serve.live.compaction_cost_modelled_s", cost_secs / ops);
        c.insert(
            "epoch.bytes_written_per_mutation",
            written as f64 / mutations.max(1) as f64,
        );
        c.insert("storage.store.bytes_read_per_op", bytes as f64 / ops);
        c.insert("core.search.chunks_read_per_query", chunks as f64 / q);
        c.insert(
            "core.search.descriptors_scanned_per_query",
            scanned as f64 / q,
        );
        Ok(facts)
    }

    fn setup(&self) -> &Measured {
        &self.times
    }

    fn layers(&mut self, spans: &SpanStats, out: &mut Measured) -> Res<()> {
        // The spike a median hides: how far a window's tail sits above it.
        out.insert(
            "serve.live.stall_us",
            (spans.untraced_p95_us - spans.untraced_p50_us).max(0.0),
        );
        // The epoch layer alone, on its own index: append a window's
        // mutations, pin, fold, install — no serving in between.
        let mut index = self.create("probe")?;
        let (mut append, mut pin, mut begin, mut install) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for w in 0..PROBE_WINDOWS.min(self.windows.len()) {
            let events: Vec<LiveEvent> = self.mutations(w).cloned().collect();
            let start = Instant::now();
            for event in &events {
                match event {
                    LiveEvent::Insert { id, vector } => index.insert(*id, *vector)?,
                    LiveEvent::Delete { id } => index.delete(*id)?,
                    LiveEvent::Query(_) => {}
                }
            }
            append.push(start.elapsed().as_secs_f64() * 1e6 / events.len().max(1) as f64);
            pin.push(
                median_secs(|| {
                    black_box(index.pin());
                }) * 1e6,
            );
            let start = Instant::now();
            let plan = index.begin_compaction()?;
            begin.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            index.install_compaction(plan)?;
            install.push(start.elapsed().as_secs_f64() * 1e3);
        }
        drop(index);
        self.remove("probe")?;
        out.insert("storage.epoch.append_us_per_mutation", median(&append));
        out.insert("epoch.pin_us", median(&pin));
        out.insert("epoch.begin_compaction_ms", median(&begin));
        out.insert("epoch.install_compaction_ms", median(&install));
        Ok(())
    }
}
