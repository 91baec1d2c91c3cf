//! Golden traces: five small fixed scenarios, one per public server plus
//! the solo chaos stack the servers' retry accounting is held to, each
//! dumped as text — one line per completion (id, arrival/finish bits and
//! every field `SearchResult::first_difference` covers) and one line per
//! stats/report field, floats as hex bits — and compared with the dump
//! checked in under `tests/golden/`. The equivalence suites pin *answers*;
//! this pins finish times and counters too, so "bit-identical to the parent
//! commit" is something `cargo test` checks, and a change that moves a tick
//! shows up as a readable one-line diff.
//!
//! On a mismatch the test prints the first differing line and leaves the
//! actual dump under `CARGO_TARGET_TMPDIR/golden/`; if the change is
//! intended, copy that file over the checked-in one.

#![cfg(test)]

mod common;

use common::{lumpy_set, retry, rr_map, scan_all, snapshot, spec, tmp_dir, trace};
use eff2_chaos::plan::TRANSIENT_CLEAR;
use eff2_chaos::{FaultConfig, FaultPlan, FaultSource, RetrySource, ShardFaultPlan};
use eff2_core::chunkers::{ChunkFormer, SrTreeChunker};
use eff2_core::image::{ImageOutcome, ImageStopRule};
use eff2_core::search::{SearchParams, SearchResult};
use eff2_core::session::{SearchSession, SkipPolicy};
use eff2_epoch::MutableIndex;
use eff2_serve::{
    merge_timelines, CompactionPolicy, FleetConfig, FleetScheduler, ImageConfig, ImageScheduler,
    LiveEvent, LiveServer, LossScope, Policy, Scheduler, SchedulerConfig, ServeReport, ServeStats,
};
use eff2_shard::Placement;
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::source::{FileSource, ResidentStats};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

fn bits(t: VirtualDuration) -> String {
    format!("{:016x}", t.as_secs().to_bits())
}

/// Everything `SearchResult::first_difference` compares, on one line.
fn result(r: &SearchResult) -> String {
    let log = &r.log;
    let neighbors: Vec<String> = r
        .neighbors
        .iter()
        .map(|n| format!("{}:{:08x}", n.id, n.dist.to_bits()))
        .collect();
    let events: Vec<String> = log
        .events
        .iter()
        .map(|e| {
            format!(
                "{}/{}/{}/{}/{}/{:08x}/{:?}",
                e.rank,
                e.chunk_id,
                e.count,
                e.bytes_read,
                bits(e.completed_at),
                e.kth_dist.to_bits(),
                e.topk_ids
            )
        })
        .collect();
    format!(
        "neighbors=[{}] index_read={} chunks_read={} scanned={} bytes={} rerank={}/{} \
         centroid_evals={} total={} completed={} lost={}/{}/{:?} events=[{}]",
        neighbors.join(" "),
        bits(log.index_read_time),
        log.chunks_read,
        log.descriptors_scanned,
        log.bytes_read,
        log.rerank_bytes,
        log.rerank_chunks,
        log.centroid_evals,
        bits(log.total_virtual),
        log.completed,
        log.degradation.chunks_lost,
        log.degradation.descriptors_lost,
        log.degradation.lost_chunks,
        events.join(" ")
    )
}

fn cache(out: &mut String, c: &ResidentStats) {
    let _ = writeln!(out, "cache.hits={}", c.hits);
    let _ = writeln!(out, "cache.cross_query_hits={}", c.cross_query_hits);
    let _ = writeln!(out, "cache.misses={}", c.misses);
    let _ = writeln!(out, "cache.evictions={}", c.evictions);
    let _ = writeln!(out, "cache.resident_bytes={}", c.resident_bytes);
    let _ = writeln!(out, "cache.resident_chunks={}", c.resident_chunks);
}

fn serve_stats(out: &mut String, s: &ServeStats) {
    let _ = writeln!(out, "submitted={}", s.submitted);
    let _ = writeln!(out, "rejected={}", s.rejected);
    let _ = writeln!(out, "completed={}", s.completed);
    let _ = writeln!(out, "ticks={}", s.ticks);
    let _ = writeln!(out, "fetches={}", s.fetches);
    let _ = writeln!(out, "disk_reads={}", s.disk_reads);
    let _ = writeln!(out, "disk_reads_by_shard={:?}", s.disk_reads_by_shard);
    let _ = writeln!(out, "feeds={}", s.feeds);
    let _ = writeln!(out, "deadline_misses={}", s.deadline_misses);
    let _ = writeln!(out, "fetch_retries={}", s.fetch_retries);
    let _ = writeln!(out, "chunks_abandoned={}", s.chunks_abandoned);
    let _ = writeln!(out, "sessions_degraded={}", s.sessions_degraded);
    cache(out, &s.cache);
}

fn serve_report(out: &mut String, report: &ServeReport) {
    for c in &report.completions {
        let _ = writeln!(
            out,
            "completion id={} arrival={} deadline={} finish={} {}",
            c.id,
            bits(c.arrival),
            bits(c.arrival + VirtualDuration::from_secs(2.0)),
            bits(c.finish),
            result(&c.result)
        );
    }
    serve_stats(out, &report.stats);
    let _ = writeln!(out, "makespan={}", bits(report.makespan));
}

fn outcome(o: &ImageOutcome) -> String {
    let ranking: Vec<String> = o
        .ranking
        .iter()
        .map(|v| format!("{}:{}:{:08x}", v.image, v.votes, v.best_dist.to_bits()))
        .collect();
    let events: Vec<String> = o
        .events
        .iter()
        .map(|e| format!("{}/{:?}", e.completions, e.top))
        .collect();
    format!(
        "label={} ranking=[{}] total={} spent={} abandoned={} certificate={} fidelity={:?} \
         chunks_read={} descriptors_lost={} unmapped={} events=[{}]",
        o.label,
        ranking.join(" "),
        o.descriptors_total,
        o.descriptors_spent,
        o.descriptors_abandoned,
        o.certificate,
        o.fidelity,
        o.chunks_read,
        o.descriptors_lost,
        o.unmapped_votes,
        events.join(" ")
    )
}

/// Compares `actual` with `tests/golden/<name>.txt` line by line.
fn check(name: &str, actual: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if want == actual {
        return;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let got = dir.join(format!("{name}.txt"));
    std::fs::write(&got, actual).expect("write the actual dump");
    let (mut w, mut a) = (want.lines(), actual.lines());
    let mut line = 1;
    let (w, a) = loop {
        let pair = (w.next(), a.next());
        if pair.0 != pair.1 || pair == (None, None) {
            break pair;
        }
        line += 1;
    };
    panic!(
        "{name}: first difference at line {line}\n  golden: {}\n  actual: {}\n\
         actual dump left at {}; if the change is intended, copy it over {}",
        w.unwrap_or("<end of file>"),
        a.unwrap_or("<end of file>"),
        got.display(),
        golden.display()
    );
}

/// `Scheduler`, most-wanted-chunk, a 16 KiB cache under an index several
/// times that, transient faults with a retry budget that sometimes runs out.
#[test]
fn scheduler_mwc_small_cache_flaky() {
    let (snap, set) = snapshot("golden_sched", 500, 25);
    let params = SearchParams {
        log_snapshots: true,
        ..SearchParams::exact(6)
    };
    let mut config = SchedulerConfig::new(Policy::MostWantedChunk, 3);
    config.max_queued = 4;
    config.cache_budget_bytes = 16 << 10;
    config.fault_plan = Some(FaultPlan::new(FaultConfig::flaky(31, 0.4)));
    config.retry = retry(2, 5.0);
    let report = Scheduler::new(snap, config)
        .serve_trace(&trace(&set, 10, 2.0), &params)
        .expect("serve");
    let mut out = String::new();
    serve_report(&mut out, &report);
    check("scheduler_mwc_small_cache_flaky", &out);
}

/// `FleetScheduler`, 4 shards × replication 2 × both placements × every
/// policy, 20 % of primaries permanently lost and shard 1 down.
#[test]
fn fleet_lossy_primaries_one_shard_down() {
    let (snap, set) = snapshot("golden_fleet", 500, 25);
    // A 12-chunk budget over ~20 chunks: most losses are met, and the
    // lookahead still delivers chunks the stopped query never consumes.
    let params = SearchParams::approximate(6, 12);
    let queries = trace(&set, 5, 1.0);
    let mut out = String::new();
    for placement in Placement::ALL {
        for policy in Policy::ALL {
            let mut config = FleetConfig::new(policy, 4, 3);
            config.placement = placement;
            config.replication = 2;
            config.cache_budget_bytes = 16 << 10;
            config.fault_plan = Some(FaultPlan::new(FaultConfig::lossy(13, 0.2)));
            config.loss_scope = LossScope::Primary;
            config.shard_faults = ShardFaultPlan::fixed(&[1]);
            config.retry = retry(2, 5.0);
            let fleet = FleetScheduler::new(snap.clone(), config)
                .serve_trace(&queries, &params)
                .expect("fleet");
            let _ = writeln!(out, "# {} / {}", placement.name(), policy.name());
            serve_report(&mut out, &fleet.report);
            let _ = writeln!(out, "cross_shard_fetches={}", fleet.cross_shard_fetches);
            let _ = writeln!(out, "failovers={}", fleet.failovers);
            let _ = writeln!(
                out,
                "imbalance_factor={:016x}",
                fleet.imbalance_factor.to_bits()
            );
            let _ = writeln!(
                out,
                "per_shard_primary_chunks={:?}",
                fleet.per_shard_primary_chunks
            );
        }
    }
    check("fleet_lossy_primaries_one_shard_down", &out);
}

/// `ImageScheduler` under `StableTop`: siblings are torn down mid-flight.
#[test]
fn image_stable_top() {
    let (snap, set) = snapshot("golden_image", 600, 30);
    let image_of = rr_map(set.len(), 24);
    let params = SearchParams::exact(6);
    let queries: Vec<_> = (0..4u32)
        .map(|i| {
            let positions = [0, 24, 48, 72, 96, 120].map(|p| p + i as usize * 7);
            let arrival = VirtualDuration::from_ms(1.5 * f64::from(i));
            (spec(&set, i, &positions), arrival)
        })
        .collect();
    let stop = ImageStopRule::StableTop { m: 2, window: 2 };
    let mut config = ImageConfig::new(Policy::MostWantedChunk, 2, stop);
    config.scheduler.cache_budget_bytes = 32 << 10;
    let report = ImageScheduler::new(snap, config, image_of)
        .serve_trace(&queries, &params)
        .expect("image");
    let mut out = String::new();
    for c in &report.completions {
        let _ = writeln!(
            out,
            "completion id={} arrival={} deadline={} finish={} {}",
            c.id,
            bits(c.arrival),
            bits(c.arrival + VirtualDuration::from_secs(2.0)),
            bits(c.finish),
            outcome(&c.outcome)
        );
        for (d, r) in c.descriptor_results.iter().enumerate() {
            let r = r.as_ref().map_or("abandoned".to_string(), result);
            let _ = writeln!(out, "  descriptor id={} d={d} {r}", c.id);
        }
    }
    let s = &report.stats;
    let _ = writeln!(out, "submitted={}", s.submitted);
    let _ = writeln!(out, "rejected={}", s.rejected);
    let _ = writeln!(out, "completed={}", s.completed);
    let _ = writeln!(out, "ticks={}", s.ticks);
    let _ = writeln!(out, "fetches={}", s.fetches);
    let _ = writeln!(out, "disk_reads={}", s.disk_reads);
    let _ = writeln!(out, "feeds={}", s.feeds);
    let _ = writeln!(out, "descriptors_spent={}", s.descriptors_spent);
    let _ = writeln!(out, "descriptors_abandoned={}", s.descriptors_abandoned);
    let _ = writeln!(out, "deadline_misses={}", s.deadline_misses);
    let _ = writeln!(out, "images_degraded={}", s.images_degraded);
    let _ = writeln!(out, "fetch_retries={}", s.fetch_retries);
    let _ = writeln!(out, "chunks_abandoned={}", s.chunks_abandoned);
    cache(&mut out, &s.cache);
    let _ = writeln!(out, "makespan={}", bits(report.makespan));
    check("image_stable_top", &out);
}

/// The solo chaos stack: skipping sessions pulling through
/// `RetrySource(FaultSource(FileSource))` under every fault kind, at a
/// budget of one attempt and at one that outlasts every transient. One
/// stack per budget serves every session in turn, so its attempt counters
/// carry over from one query to the next.
#[test]
fn solo_chaos_stack() {
    let (snap, set) = snapshot("golden_solo", 500, 25);
    let plan = FaultPlan::new(FaultConfig {
        transient_rate: 0.15,
        short_read_rate: 0.1,
        corruption_rate: 0.1,
        permanent_rate: 0.1,
        spike_rate: 0.3,
        spike_ms: 4.0,
        ..FaultConfig::quiet(41)
    });
    let mut out = String::new();
    for budget in [1, TRANSIENT_CLEAR + 1] {
        let faults = Arc::new(FaultSource::new(
            Arc::new(FileSource::new(snap.store())),
            plan,
        ));
        let stack = Arc::new(RetrySource::new(faults.clone(), retry(budget, 5.0)));
        let _ = writeln!(out, "# budget {budget}");
        for (i, (q, _)) in trace(&set, 3, 0.0).iter().enumerate() {
            for params in [scan_all(6), SearchParams::approximate(6, 8)] {
                let mut session = SearchSession::with_source(
                    snap.store(),
                    snap.model(),
                    q,
                    &params,
                    stack.clone(),
                );
                session.set_skip_policy(SkipPolicy::SkipUnavailable);
                session.run_to_stop().expect("a skipping session completes");
                let r = session.into_result();
                let _ = writeln!(out, "query={i} stop={:?} {}", params.stop, result(&r));
            }
        }
        let attempts: Vec<u32> = (0..snap.n_chunks())
            .map(|c| faults.attempts_for(c))
            .collect();
        let _ = writeln!(out, "attempts={attempts:?}");
    }
    check("solo_chaos_stack", &out);
}

/// `LiveServer` compacting every 10 mutations while queries arrive.
#[test]
fn live_every_ops() {
    let set = lumpy_set(400);
    let formation = SrTreeChunker { leaf_size: 30 }.form(&set);
    let index = MutableIndex::create(
        &tmp_dir("golden_live"),
        "live",
        &set,
        &formation.chunks,
        512,
        None,
        DiskModel::ata_2005(),
        30,
    )
    .expect("create");
    let queries: Vec<_> = (0..8)
        .map(|i| {
            let q = set.vector_owned((i * 41) % set.len());
            (q, VirtualDuration::from_ms(4.0 * i as f64))
        })
        .collect();
    let mutations: Vec<_> = (0..30)
        .map(|j| {
            let event = if j % 3 == 0 {
                LiveEvent::Delete {
                    id: (j * 7 % 400) as u32,
                }
            } else {
                LiveEvent::Insert {
                    id: 50_000 + j as u32,
                    vector: set.vector_owned((j * 13) % set.len()),
                }
            };
            (VirtualDuration::from_ms(1.5 * j as f64), event)
        })
        .collect();
    let (report, index) = LiveServer::new(
        index,
        SearchParams::exact(6),
        CompactionPolicy::EveryOps(10),
    )
    .serve_trace(&merge_timelines(&queries, &mutations))
    .expect("live");
    let mut out = String::new();
    for c in &report.completions {
        let _ = writeln!(
            out,
            "completion id={} arrival={} finish={} generation={} epoch={} {}",
            c.id,
            bits(c.arrival),
            bits(c.finish),
            c.snapshot.generation(),
            c.snapshot.epoch(),
            result(&c.result)
        );
    }
    let s = &report.stats;
    let _ = writeln!(out, "queries={}", s.queries);
    let _ = writeln!(out, "mutations={}", s.mutations);
    let _ = writeln!(out, "compactions={}", s.compactions);
    let _ = writeln!(out, "compaction_ticks={}", s.compaction_ticks);
    let _ = writeln!(out, "chunks_fed={}", s.chunks_fed);
    let _ = writeln!(
        out,
        "compaction_cost_secs={:016x}",
        s.compaction_cost_secs.to_bits()
    );
    let _ = writeln!(out, "max_installed_chunk={}", s.max_installed_chunk);
    for (i, c) in s.compaction_log.iter().enumerate() {
        let _ = writeln!(out, "compaction_log[{i}]={c:?}");
    }
    let _ = writeln!(out, "final_chunk_loads={:?}", report.final_chunk_loads);
    let _ = writeln!(out, "makespan={}", bits(report.makespan));
    let _ = writeln!(out, "final_generation={}", index.generation());
    let _ = writeln!(out, "final_epoch={}", index.epoch());
    check("live_every_ops", &out);
}
