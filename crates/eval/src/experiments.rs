//! The experiments: each function regenerates one or more of the paper's
//! tables/figures, prints aligned tables and writes CSV series next to
//! them.
// lint:allow-file(panic.index): result tables are sized by the experiment grid that indexes them

use crate::lab::{IndexHandle, Lab};
use crate::EvalResult;
use eff2_chaos::plan::TRANSIENT_CLEAR;
use eff2_chaos::{Fault, FaultConfig, FaultPlan, FaultSource, RetryPolicy, RetrySource};
use eff2_core::chunkers::{ChunkFormer, RoundRobinChunker, SrTreeChunker};
use eff2_core::coarse::CoarseQuantizer;
use eff2_core::image::{solo_image_search, ImageStopRule};
use eff2_core::search::{search, SearchParams, SearchResult, StopRule};
use eff2_core::session::{evaluate_stop_rules, SearchSession, SkipPolicy};
use eff2_core::snapshot::Snapshot;
use eff2_core::{search_quantized_with, search_two_level};
use eff2_descriptor::Vector;
use eff2_epoch::MutableIndex;
use eff2_metrics::{
    avg_spent_fraction, descriptors_spent_curve, fleet_quality_curve, image_precision_at,
    imbalance_factor, precision_at, GroundTruth, LatencySummary, QualityCurve, Table,
};
use eff2_serve::{
    merge_timelines, CompactionPolicy, FleetConfig, FleetScheduler, ImageConfig, ImageQuerySpec,
    ImageScheduler, LiveEvent, LiveServer, Policy, Scheduler, SchedulerConfig,
};
use eff2_shard::Placement;
use eff2_storage::diskmodel::VirtualDuration;
use eff2_storage::source::{ChunkSource, FileSource};
use eff2_workload::{
    image_of_map, image_queries, poisson_arrivals, skewed_mutation_trace, zipf_assignments,
    MutationOp,
};
use std::sync::Arc;

/// The neighbour counts Figures 6/7 trace (scaled to the configured k).
pub fn sweep_neighbor_marks(k: usize) -> Vec<usize> {
    [1usize, 10, 20, 25, 28, 30]
        .into_iter()
        .map(|m| m.min(k))
        .filter(|&m| m >= 1)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

fn fmt_f(x: f64, digits: usize) -> String {
    if x.is_nan() {
        "—".to_string()
    } else {
        format!("{x:.digits$}")
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Regenerates **Table 1**: properties of the BAG and SR-tree chunk
/// indexes (retained/discarded descriptors, chunk counts, mean sizes).
pub fn table1(lab: &Lab) -> EvalResult<String> {
    let six = lab.six_indexes()?;
    let mut t = Table::new(
        "Table 1. Properties of the BAG and SR-tree chunk indexes",
        &[
            "Chunk sizes",
            "Retained",
            "Discarded",
            "Outliers %",
            "BAG chunks",
            "BAG desc/chunk",
            "SR chunks",
            "SR desc/chunk",
        ],
    );
    for pair in six.chunks(2) {
        let (bag, sr) = (&pair[0].meta, &pair[1].meta);
        let class = bag.label.split('/').nth(1).unwrap_or("?").trim();
        t.row(vec![
            class.to_string(),
            bag.retained.to_string(),
            bag.discarded.to_string(),
            format!(
                "{:.1}%",
                100.0 * bag.discarded as f64 / bag.total_input.max(1) as f64
            ),
            bag.n_chunks.to_string(),
            fmt_f(bag.mean_chunk_size, 0),
            sr.n_chunks.to_string(),
            fmt_f(sr.mean_chunk_size, 0),
        ]);
    }
    let rendered = t.render();
    let dir = lab.results_dir()?;
    t.save_csv(&dir.join("table1.csv"))?;

    // Formation-cost side table (the §5.2 "12 days vs 3 hours" discussion).
    let mut cost = Table::new(
        "Chunk formation cost",
        &[
            "Index",
            "Distance-op equivalents",
            "Rounds",
            "Wall secs (this run)",
        ],
    );
    for h in &six {
        cost.row(vec![
            h.meta.label.clone(),
            h.meta.distance_ops.to_string(),
            h.meta.rounds.to_string(),
            fmt_f(h.meta.build_wall_secs, 2),
        ]);
    }
    cost.save_csv(&dir.join("table1_formation_cost.csv"))?;
    Ok(format!("{rendered}\n{}", cost.render()))
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// Regenerates **Figure 1**: sizes of the 30 largest chunks of each of the
/// six indexes (the paper plots these on a log scale — BAG's head chunks
/// are orders of magnitude above its mean).
pub fn fig1(lab: &Lab) -> EvalResult<String> {
    let six = lab.six_indexes()?;
    let headers: Vec<String> = std::iter::once("Rank".to_string())
        .chain(six.iter().map(|h| h.meta.label.clone()))
        .collect();
    let mut t = Table::new(
        "Figure 1. Size of the largest chunks (descriptors)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for rank in 0..30 {
        let mut row = vec![(rank + 1).to_string()];
        for h in &six {
            row.push(
                h.meta
                    .largest_sizes
                    .get(rank)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "—".into()),
            );
        }
        t.row(row);
    }
    let rendered = t.render();
    t.save_csv(&lab.results_dir()?.join("fig1.csv"))?;
    Ok(rendered)
}

// ---------------------------------------------------------------------------
// Experiment 1: Figures 2–5 + Table 2
// ---------------------------------------------------------------------------

/// All curves of experiment 1: the six indexes × the two workloads.
pub struct Exp1Curves {
    /// (index label, DQ curve, SQ curve) in index order.
    pub per_index: Vec<(String, QualityCurve, QualityCurve)>,
    /// k used.
    pub k: usize,
}

/// Runs (or loads from cache) every experiment-1 curve.
pub fn exp1_curves(lab: &Lab) -> EvalResult<Exp1Curves> {
    let six = lab.six_indexes()?;
    let dq = lab.dq()?;
    let sq = lab.sq()?;
    let mut per_index = Vec::with_capacity(6);
    for h in &six {
        eprintln!("[exp1] evaluating {} …", h.meta.label);
        let cd = lab.curve(h, &dq)?;
        let cs = lab.curve(h, &sq)?;
        per_index.push((h.meta.label.clone(), cd, cs));
    }
    Ok(Exp1Curves {
        per_index,
        k: lab.scale.k,
    })
}

fn curve_figure(
    lab: &Lab,
    curves: &Exp1Curves,
    title: &str,
    file: &str,
    pick: impl Fn(&(String, QualityCurve, QualityCurve)) -> &QualityCurve,
    value: impl Fn(&QualityCurve, usize) -> f64,
    digits: usize,
) -> EvalResult<String> {
    let headers: Vec<String> = std::iter::once("Neighbors".to_string())
        .chain(curves.per_index.iter().map(|(l, _, _)| l.clone()))
        .collect();
    let mut t = Table::new(
        title,
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for m in 1..=curves.k {
        let mut row = vec![m.to_string()];
        for entry in &curves.per_index {
            row.push(fmt_f(value(pick(entry), m), digits));
        }
        t.row(row);
    }
    let rendered = t.render();
    t.save_csv(&lab.results_dir()?.join(file))?;
    Ok(rendered)
}

/// Regenerates **Figure 2** (chunks read vs neighbours found, DQ).
pub fn fig2(lab: &Lab, curves: &Exp1Curves) -> EvalResult<String> {
    curve_figure(
        lab,
        curves,
        "Figure 2. Chunks read to find nearest neighbors (DQ)",
        "fig2.csv",
        |e| &e.1,
        |c, m| c.chunks_for(m),
        1,
    )
}

/// Regenerates **Figure 3** (chunks read vs neighbours found, SQ).
pub fn fig3(lab: &Lab, curves: &Exp1Curves) -> EvalResult<String> {
    curve_figure(
        lab,
        curves,
        "Figure 3. Chunks read to find nearest neighbors (SQ)",
        "fig3.csv",
        |e| &e.2,
        |c, m| c.chunks_for(m),
        1,
    )
}

/// Regenerates **Figure 4** (virtual elapsed time vs neighbours found, DQ).
pub fn fig4(lab: &Lab, curves: &Exp1Curves) -> EvalResult<String> {
    curve_figure(
        lab,
        curves,
        "Figure 4. Elapsed virtual time (s) to find nearest neighbors (DQ)",
        "fig4.csv",
        |e| &e.1,
        |c, m| c.time_for(m),
        3,
    )
}

/// Regenerates **Figure 5** (virtual elapsed time vs neighbours found, SQ).
pub fn fig5(lab: &Lab, curves: &Exp1Curves) -> EvalResult<String> {
    curve_figure(
        lab,
        curves,
        "Figure 5. Elapsed virtual time (s) to find nearest neighbors (SQ)",
        "fig5.csv",
        |e| &e.2,
        |c, m| c.time_for(m),
        3,
    )
}

/// Regenerates **Table 2**: average virtual time to run queries to
/// completion, per index and workload.
pub fn table2(lab: &Lab, curves: &Exp1Curves) -> EvalResult<String> {
    let mut t = Table::new(
        "Table 2. Time to completion (virtual seconds)",
        &["Chunk sizes", "BAG DQ", "BAG SQ", "SR DQ", "SR SQ"],
    );
    for pair in curves.per_index.chunks(2) {
        let class = pair[0].0.split('/').nth(1).unwrap_or("?").trim();
        t.row(vec![
            class.to_string(),
            fmt_f(pair[0].1.avg_completion_secs, 2),
            fmt_f(pair[0].2.avg_completion_secs, 2),
            fmt_f(pair[1].1.avg_completion_secs, 2),
            fmt_f(pair[1].2.avg_completion_secs, 2),
        ]);
    }
    let rendered = t.render();
    t.save_csv(&lab.results_dir()?.join("table2.csv"))?;
    Ok(rendered)
}

/// Runs the whole of Experiment 1, returning the concatenated report
/// (Figures 2–5 and Table 2).
pub fn exp1(lab: &Lab) -> EvalResult<String> {
    let curves = exp1_curves(lab)?;
    let mut out = String::new();
    for part in [
        fig2(lab, &curves)?,
        fig3(lab, &curves)?,
        fig4(lab, &curves)?,
        fig5(lab, &curves)?,
        table2(lab, &curves)?,
    ] {
        out.push_str(&part);
        out.push('\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Experiment 2: Figures 6–7
// ---------------------------------------------------------------------------

/// Regenerates **Figures 6 and 7**: time to find 1/10/20/25/28/30
/// neighbours as a function of the (SR-tree) chunk size, over 16 chunk
/// indexes on the outlier-free collection.
pub fn exp2(lab: &Lab) -> EvalResult<String> {
    let six = lab.six_indexes()?;
    let subset = lab.small_retained_subset(&six)?;
    let marks = sweep_neighbor_marks(lab.scale.k);
    let dq = lab.dq()?;
    let sq = lab.sq()?;

    let mut out = String::new();
    for (fig_no, workload) in [(6, &dq), (7, &sq)] {
        let headers: Vec<String> = std::iter::once("Chunk size".to_string())
            .chain(marks.iter().map(|m| format!("{m} nbr")))
            .chain(std::iter::once("completion".to_string()))
            .collect();
        let mut t = Table::new(
            &format!(
                "Figure {fig_no}. Virtual time (s) to find neighbors vs chunk size ({})",
                workload.name
            ),
            &headers.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        for &size in &lab.scale.sweep_sizes() {
            let handle = lab.sweep_index(&subset, size)?;
            eprintln!("[exp2] {} chunk size {size} …", workload.name);
            let curve = lab.curve(&handle, workload)?;
            let mut row = vec![size.to_string()];
            for &m in &marks {
                row.push(fmt_f(curve.time_for(m), 3));
            }
            row.push(fmt_f(curve.avg_completion_secs, 2));
            t.row(row);
        }
        let rendered = t.render();
        t.save_csv(&lab.results_dir()?.join(format!("fig{fig_no}.csv")))?;
        out.push_str(&rendered);
        out.push('\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Experiment 3: the stop-rule sweep (one scan per query)
// ---------------------------------------------------------------------------

/// The ladder of stop rules experiment 3 sweeps: chunk budgets, virtual
/// time budgets, relaxed-completion factors and exact completion — the
/// quality/time trade-off knobs of §4.3, all answered from a single scan
/// per query.
pub fn exp3_rules() -> Vec<StopRule> {
    vec![
        StopRule::Chunks(1),
        StopRule::Chunks(2),
        StopRule::Chunks(4),
        StopRule::Chunks(8),
        StopRule::VirtualTime(VirtualDuration::from_ms(60.0)),
        StopRule::VirtualTime(VirtualDuration::from_ms(250.0)),
        StopRule::ToCompletionEps(0.5),
        StopRule::ToCompletionEps(0.1),
        StopRule::ToCompletion,
    ]
}

fn rule_label(rule: &StopRule) -> String {
    match rule {
        StopRule::Chunks(n) => format!("{n} chunks"),
        StopRule::VirtualTime(t) => format!("{:.0} ms", t.as_secs() * 1e3),
        StopRule::ToCompletionEps(eps) => format!("completion ×{:.1}", 1.0 + eps),
        StopRule::ToCompletion => "completion".to_string(),
    }
}

/// Regenerates **Experiment 3**: the quality/time trade-off across the
/// whole stop-rule ladder, for every index of Table 1, on the DQ workload.
///
/// Where experiments 1 and 2 re-ran queries per setting, this sweep
/// answers *all* rules from one scan per query
/// ([`evaluate_stop_rules`]) — each row is still bit-identical to an
/// individual run with that rule, but the collection is read once.
pub fn exp3(lab: &Lab) -> EvalResult<String> {
    let six = lab.six_indexes()?;
    let dq = lab.dq()?;
    let rules = exp3_rules();
    let params = SearchParams {
        k: lab.scale.k,
        stop: StopRule::ToCompletion, // ignored: the ladder drives the scan
        prefetch_depth: 2,
        log_snapshots: false,
    };

    let mut t = Table::new(
        "Experiment 3. Stop-rule sweep (DQ, one scan per query)",
        &[
            "Index",
            "Stop rule",
            "Avg precision",
            "Avg chunks",
            "Avg virtual s",
            "Exact %",
        ],
    );
    let (mut shared_reads, mut per_rule_reads) = (0usize, 0usize);
    for h in &six {
        eprintln!("[exp3] sweeping {} …", h.meta.label);
        let truth = lab.truth(h, &dq)?;
        // Accumulators over the workload, one slot per rule.
        let mut precision = vec![0.0f64; rules.len()];
        let mut chunks = vec![0.0f64; rules.len()];
        let mut secs = vec![0.0f64; rules.len()];
        let mut exact = vec![0usize; rules.len()];
        for (qi, query) in dq.queries.iter().enumerate() {
            let results = evaluate_stop_rules(&h.store, &lab.model, query, &params, &rules)?;
            shared_reads += results.iter().map(|r| r.log.chunks_read).max().unwrap_or(0);
            for (ri, result) in results.iter().enumerate() {
                let ids: Vec<u32> = result.neighbors.iter().map(|n| n.id).collect();
                precision[ri] += precision_at(&ids, &truth.ids[qi]);
                chunks[ri] += result.log.chunks_read as f64;
                secs[ri] += result.log.total_virtual.as_secs();
                exact[ri] += result.log.completed as usize;
                per_rule_reads += result.log.chunks_read;
            }
        }
        let nq = dq.len() as f64;
        for (ri, rule) in rules.iter().enumerate() {
            t.row(vec![
                h.meta.label.clone(),
                rule_label(rule),
                fmt_f(precision[ri] / nq, 3),
                fmt_f(chunks[ri] / nq, 1),
                fmt_f(secs[ri] / nq, 3),
                format!("{:.0}%", 100.0 * exact[ri] as f64 / nq),
            ]);
        }
    }
    let rendered = t.render();
    t.save_csv(&lab.results_dir()?.join("exp3.csv"))?;
    Ok(format!(
        "{rendered}\nOne scan per query answered all {} rules: {} chunk reads \
         (individual runs would have read {}).\n",
        rules.len(),
        shared_reads,
        per_rule_reads
    ))
}

// ---------------------------------------------------------------------------
// Experiment 4: the serving layer (policies × concurrency)
// ---------------------------------------------------------------------------

/// The concurrency levels (active-session slots) experiment 4 sweeps.
pub fn exp4_concurrency() -> Vec<usize> {
    vec![2, 8, 32]
}

/// Whether two results are bit-identical in the one sense the workspace
/// has: [`SearchResult::first_difference`] finds nothing.
fn results_bit_identical(a: &SearchResult, b: &SearchResult) -> bool {
    a.first_difference(b).is_none()
}

/// Regenerates **Experiment 4**: the multi-query serving sweep. A Poisson
/// arrival trace of the DQ workload is offered at twice the serial service
/// rate to the interleaved [`Scheduler`], for every policy at every
/// concurrency level. Each run reports fleet throughput, latency
/// percentiles, answer quality and chunk traffic — and every per-query
/// result is bit-compared against the serial one-query-at-a-time
/// reference, which scheduling must never change.
pub fn exp4(lab: &Lab) -> EvalResult<String> {
    let handle = lab.serving_index()?;
    let handle = &handle;
    let dq = lab.dq()?;
    if dq.is_empty() {
        return Err("exp4 needs a non-empty DQ workload".into());
    }
    let truth = lab.truth(handle, &dq)?;
    let params = SearchParams {
        k: lab.scale.k,
        stop: StopRule::ToCompletionEps(0.5),
        prefetch_depth: 2,
        log_snapshots: false,
    };
    let snap = Snapshot::new(handle.store.clone(), lab.model);

    // Serial reference: one query at a time, each over its own private
    // source — the answers every scheduled run must reproduce bit for bit.
    eprintln!("[exp4] serial reference over {} queries …", dq.len());
    let mut serial = Vec::with_capacity(dq.len());
    let mut serial_secs = 0.0f64;
    let mut serial_precision = 0.0f64;
    for (qi, query) in dq.queries.iter().enumerate() {
        let r = snap.search(query, &params)?;
        serial_secs += r.log.total_virtual.as_secs();
        let ids: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        serial_precision += precision_at(&ids, &truth.ids[qi]);
        serial.push(r);
    }
    serial_precision /= dq.len() as f64;

    // Offer four times the serial service rate: the device saturates, a
    // backlog of concurrent sessions builds up, and the policies genuinely
    // contend for the next chunk.
    let rate_qps = 4.0 * dq.len() as f64 / serial_secs.max(1e-9);
    let arrivals = poisson_arrivals(dq.len(), rate_qps, lab.scale.seed ^ 0xA4);
    let trace: Vec<(Vector, VirtualDuration)> = dq
        .queries
        .iter()
        .zip(arrivals.arrivals.iter())
        .map(|(q, &t)| (*q, VirtualDuration::from_secs(t)))
        .collect();

    let mut t = Table::new(
        &format!(
            "Experiment 4. Serving under load (DQ, Poisson at {rate_qps:.1} q/s, \
             {} — 4× serial capacity)",
            handle.meta.label
        ),
        &[
            "Policy",
            "Active",
            "Thru q/s",
            "p50 s",
            "p99 s",
            "Precision",
            "Fetches",
            "Disk reads",
            "Shared hits",
            "Serial-identical",
        ],
    );
    let mut quality = Table::new(
        "Experiment 4 fleet quality curves",
        &["Policy", "Active", "t_secs", "completed", "mean_precision"],
    );
    // (concurrency, policy) → chunk fetches, for the sharing summary.
    let mut fetch_counts: Vec<(usize, Policy, u64)> = Vec::new();
    let mut all_identical = true;

    for &active in &exp4_concurrency() {
        for policy in Policy::ALL {
            eprintln!("[exp4] {} × {active} active …", policy.name());
            let mut config = SchedulerConfig::new(policy, active);
            config.max_queued = dq.len(); // admit everything: compare full runs
            let report = Scheduler::new(snap.clone(), config).serve_trace(&trace, &params)?;

            let mut identical =
                report.stats.rejected == 0 && report.completions.len() == serial.len();
            let mut precision = 0.0f64;
            let mut quality_points = Vec::with_capacity(report.completions.len());
            for c in &report.completions {
                let qi = c.id as usize;
                identical = identical && results_bit_identical(&serial[qi], &c.result);
                let ids: Vec<u32> = c.result.neighbors.iter().map(|n| n.id).collect();
                let p = precision_at(&ids, &truth.ids[qi]);
                precision += p;
                quality_points.push((c.finish.as_secs(), p));
            }
            precision /= report.completions.len().max(1) as f64;
            all_identical = all_identical && identical;
            for point in fleet_quality_curve(&quality_points) {
                quality.row(vec![
                    policy.name().to_string(),
                    active.to_string(),
                    fmt_f(point.at_secs, 4),
                    point.completed.to_string(),
                    fmt_f(point.mean_precision, 4),
                ]);
            }

            let lat = LatencySummary::from_secs(&report.latencies_secs());
            t.row(vec![
                policy.name().to_string(),
                active.to_string(),
                fmt_f(report.throughput_qps(), 1),
                fmt_f(lat.p50_secs, 3),
                fmt_f(lat.p99_secs, 3),
                fmt_f(precision, 3),
                report.stats.fetches.to_string(),
                report.stats.disk_reads.to_string(),
                report.stats.cache.cross_query_hits.to_string(),
                if identical { "yes" } else { "NO" }.to_string(),
            ]);
            fetch_counts.push((active, policy, report.stats.fetches));
        }
    }

    let rendered = t.render();
    let dir = lab.results_dir()?;
    t.save_csv(&dir.join("exp4.csv"))?;
    quality.save_csv(&dir.join("exp4_quality.csv"))?;

    let fetches_of = |active: usize, policy: Policy| {
        fetch_counts
            .iter()
            .find(|(a, p, _)| *a == active && *p == policy)
            .map(|(_, _, f)| *f)
            .unwrap_or(0)
    };
    let mut out = format!("{rendered}\nSerial mean precision: {serial_precision:.3}.\n");
    for &active in &exp4_concurrency() {
        let fair = fetches_of(active, Policy::FairShare);
        let mwc = fetches_of(active, Policy::MostWantedChunk);
        let saved = if fair > 0 {
            100.0 * (fair.saturating_sub(mwc)) as f64 / fair as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "At {active} concurrent sessions: most-wanted-chunk fetched {mwc} chunks \
             vs fair-share {fair} ({saved:.0}% fewer).\n"
        ));
    }
    out.push_str(&format!(
        "All per-query results bit-identical to serial under every policy: {}.\n",
        if all_identical { "yes" } else { "NO" }
    ));
    Ok(out)
}

// ---------------------------------------------------------------------------
// Experiment 5: search under chunk loss (the chaos sweep)
// ---------------------------------------------------------------------------

/// The fault rates experiment 5 sweeps (permanent loss at the rate,
/// transient faults at half of it).
pub fn exp5_rates() -> Vec<f64> {
    vec![0.0, 0.05, 0.1, 0.2, 0.4]
}

/// The retry policies experiment 5 compares: give up on the first failure
/// vs a budget that always clears transient faults
/// ([`TRANSIENT_CLEAR`]` + 1` attempts).
pub fn exp5_policies() -> Vec<(&'static str, RetryPolicy)> {
    vec![
        ("none", RetryPolicy::none()),
        (
            "retry",
            RetryPolicy::new(
                TRANSIENT_CLEAR + 1,
                VirtualDuration::from_ms(5.0),
                VirtualDuration::from_ms(1.0),
            ),
        ),
    ]
}

/// The fault schedule for one exp5 cell: permanent loss at `rate`,
/// transient faults at half the rate, keyed by the lab seed so every run
/// of the experiment observes the same schedule.
fn exp5_plan(lab: &Lab, rate: f64) -> FaultPlan {
    FaultPlan::new(FaultConfig {
        permanent_rate: rate,
        transient_rate: rate * 0.5,
        ..FaultConfig::quiet(lab.scale.seed ^ 0xC5)
    })
}

/// Runs every query of `queries` against `handle`, either undecorated
/// (`plan: None`, the baseline) or through the
/// `RetrySource(FaultSource(FileSource))` chaos stack with a skipping
/// session.
fn exp5_run(
    lab: &Lab,
    handle: &IndexHandle,
    queries: &[Vector],
    params: &SearchParams,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
) -> EvalResult<Vec<SearchResult>> {
    let mut out = Vec::with_capacity(queries.len());
    for query in queries {
        // A fresh fault source per query: attempt counters reset, so each
        // query observes the plan's schedule from attempt zero.
        let source: Arc<dyn ChunkSource> = match plan {
            None => Arc::new(FileSource::new(&handle.store)),
            Some(plan) => Arc::new(RetrySource::new(
                Arc::new(FaultSource::new(
                    Arc::new(FileSource::new(&handle.store)),
                    plan,
                )),
                retry,
            )),
        };
        let mut session =
            SearchSession::with_source(&handle.store, &lab.model, query, params, source);
        session.set_skip_policy(SkipPolicy::SkipUnavailable);
        session.run_to_stop()?;
        out.push(session.into_result());
    }
    Ok(out)
}

/// Whether the plan dooms `chunk` under `policy`: every attempt the
/// budget allows draws a fault, so the chunk must be reported lost.
fn exp5_doomed(plan: &FaultPlan, policy: &RetryPolicy, chunk: usize) -> bool {
    (0..policy.max_attempts).all(|a| !matches!(plan.fault_for(chunk, a), Fault::Deliver { .. }))
}

/// Regenerates **Experiment 5**: the quality-degradation curve under
/// injected chunk loss. For two chunk granularities the DQ workload runs
/// under a fixed chunk-budget stop rule while the fault rate sweeps
/// upward, once per retry policy. Every faulted search must complete with
/// an honest [`Degradation`](eff2_core::search::Degradation) report; the
/// rate-0 stack must be bit-identical to the undecorated search; and
/// because the injected loss sets are nested across rates, precision must
/// be monotonically non-increasing in the fault rate.
pub fn exp5(lab: &Lab) -> EvalResult<String> {
    let handles = [lab.serving_index()?, lab.chaos_index()?];
    let dq = lab.dq()?;
    if dq.is_empty() {
        return Err("exp5 needs a non-empty DQ workload".into());
    }
    let rates = exp5_rates();
    let policies = exp5_policies();

    let mut t = Table::new(
        "Experiment 5. Quality degradation under chunk loss (DQ, fixed chunk budget)",
        &[
            "Index",
            "Retry",
            "Fault rate",
            "Precision",
            "Chunks lost",
            "Desc lost",
            "Avg virtual s",
            "Degraded %",
        ],
    );
    let mut bit_identical = true;
    let mut all_reported = true;
    let mut monotone = true;

    for handle in &handles {
        let n_chunks = handle.store.n_chunks();
        // A fixed budget strictly inside the collection: lost chunks
        // consume it, so quality honestly pays for every loss.
        let budget = (n_chunks * 3 / 5).max(1);
        let params = SearchParams {
            k: lab.scale.k,
            stop: StopRule::Chunks(budget),
            prefetch_depth: 2,
            log_snapshots: false,
        };
        let truth = lab.truth(handle, &dq)?;
        eprintln!(
            "[exp5] {} baseline ({} chunks, budget {budget}) …",
            handle.meta.label, n_chunks
        );
        let baseline = exp5_run(lab, handle, &dq.queries, &params, None, RetryPolicy::none())?;

        for (policy_name, policy) in &policies {
            let mut prev_precision = f64::INFINITY;
            for &rate in &rates {
                eprintln!("[exp5] {} {policy_name} rate {rate} …", handle.meta.label);
                let plan = exp5_plan(lab, rate);
                let results = exp5_run(lab, handle, &dq.queries, &params, Some(plan), *policy)?;

                if rate == 0.0 {
                    for (b, r) in baseline.iter().zip(results.iter()) {
                        bit_identical = bit_identical && results_bit_identical(b, r);
                    }
                }
                let mut precision = 0.0f64;
                let mut lost_chunks = 0usize;
                let mut lost_descriptors = 0u64;
                let mut secs = 0.0f64;
                let mut degraded = 0usize;
                for (qi, r) in results.iter().enumerate() {
                    let ids: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
                    precision += precision_at(&ids, &truth.ids[qi]);
                    let d = &r.log.degradation;
                    lost_chunks += d.chunks_lost;
                    lost_descriptors += d.descriptors_lost;
                    secs += r.log.total_virtual.as_secs();
                    degraded += usize::from(d.is_degraded());
                    // An honest report: the consumed budget is exactly
                    // scanned + lost, and each lost chunk is one the plan
                    // doomed under this retry budget.
                    let consumed = r.log.chunks_read + d.chunks_lost;
                    all_reported = all_reported
                        && consumed == budget.min(n_chunks)
                        && d.lost_chunks.iter().all(|&c| exp5_doomed(&plan, policy, c));
                }
                let nq = dq.len() as f64;
                precision /= nq;
                monotone = monotone && precision <= prev_precision;
                prev_precision = precision;
                t.row(vec![
                    handle.meta.label.clone(),
                    (*policy_name).to_string(),
                    fmt_f(rate, 2),
                    fmt_f(precision, 3),
                    fmt_f(lost_chunks as f64 / nq, 1),
                    fmt_f(lost_descriptors as f64 / nq, 0),
                    fmt_f(secs / nq, 3),
                    format!("{:.0}%", 100.0 * degraded as f64 / nq),
                ]);
            }
        }
    }

    let rendered = t.render();
    t.save_csv(&lab.results_dir()?.join("exp5.csv"))?;
    Ok(format!(
        "{rendered}\nRate-0 chaos stack bit-identical to the undecorated search: {}.\n\
         All faulted searches completed with degradation reports: {}.\n\
         Precision monotonically non-increasing in fault rate: {}.\n",
        if bit_identical { "yes" } else { "NO" },
        if all_reported { "yes" } else { "NO" },
        if monotone { "yes" } else { "NO" },
    ))
}

// ---------------------------------------------------------------------------
// Experiment 6 — quantized descriptors, ADC scans, two-level ranking
// ---------------------------------------------------------------------------

/// The rerank depths experiment 6 sweeps: the ADC scan keeps an `R·k`
/// candidate pool and the exact tail rescores it down to `k`.
pub fn exp6_rerank_mults() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// The codecs experiment 6 compares (the names
/// [`Lab::quantized_index`](crate::lab::Lab::quantized_index) accepts).
pub fn exp6_codecs() -> Vec<&'static str> {
    vec!["sq8", "pq"]
}

/// Neighbour lists bitwise equal: same ids, same distance bits.
fn neighbors_bit_identical(a: &SearchResult, b: &SearchResult) -> bool {
    a.neighbors.len() == b.neighbors.len()
        && a.neighbors
            .iter()
            .zip(b.neighbors.iter())
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

/// Per-query averages of one exp6 grid cell.
struct Exp6Cell {
    precision: f64,
    bytes: f64,
    rerank_bytes: f64,
    secs: f64,
    evals: f64,
}

fn exp6_cell(results: &[SearchResult], truth: &GroundTruth) -> Exp6Cell {
    let nq = results.len().max(1) as f64;
    let mut c = Exp6Cell {
        precision: 0.0,
        bytes: 0.0,
        rerank_bytes: 0.0,
        secs: 0.0,
        evals: 0.0,
    };
    for (qi, r) in results.iter().enumerate() {
        let ids: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        c.precision += precision_at(&ids, &truth.ids[qi]);
        c.bytes += r.log.bytes_read as f64;
        c.rerank_bytes += r.log.rerank_bytes as f64;
        c.secs += r.log.total_virtual.as_secs();
        c.evals += r.log.centroid_evals as f64;
    }
    c.precision /= nq;
    c.bytes /= nq;
    c.rerank_bytes /= nq;
    c.secs /= nq;
    c.evals /= nq;
    c
}

/// Every chunk of the v2 `base` store read back through the v3 `quant`
/// store's raw view: ids equal and packed floats bitwise equal. The two
/// stores hold the same SR-tree formation, so this is the format-migration
/// check — the v3 raw region must be byte-compatible with v2 readers.
fn exp6_v2_v3_compatible(base: &IndexHandle, quant: &IndexHandle) -> EvalResult<bool> {
    let raw3 = quant.store.raw_view();
    if base.store.n_chunks() != raw3.n_chunks() {
        return Ok(false);
    }
    let mut r2 = base.store.reader()?;
    let mut r3 = raw3.reader()?;
    let mut p2 = eff2_storage::ChunkData::default();
    let mut p3 = eff2_storage::ChunkData::default();
    for i in 0..base.store.n_chunks() {
        r2.read_chunk(i, &mut p2)?;
        r3.read_chunk(i, &mut p3)?;
        let same = p2.ids == p3.ids
            && p2.packed.len() == p3.packed.len()
            && p2
                .packed
                .iter()
                .zip(p3.packed.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Regenerates **Experiment 6**: the quantized-descriptor sweep. On the
/// serving index (and its format-v3 quantized twins) the DQ workload runs
/// uncompressed baselines — flat and two-level ranking, at a full budget,
/// a partial budget and to completion — then sweeps codec (SQ8, PQ) ×
/// ranking level × rerank depth `R` under the partial budget, where the
/// ADC scan keeps `R·k` candidates and an exact rerank tail re-reads only
/// their chunks raw. Invariants checked: the rerank tail at a full budget
/// and full-depth pool is bit-identical to the uncompressed search;
/// precision is monotonically non-decreasing in `R` (nested pools);
/// two-level ranking leaves to-completion answers bit-identical while
/// spending fewer centroid evaluations; and the v3 raw region read back
/// equals the v2 store byte for byte.
pub fn exp6(lab: &Lab) -> EvalResult<String> {
    let base = lab.serving_index()?;
    let dq = lab.dq()?;
    if dq.is_empty() {
        return Err("exp6 needs a non-empty DQ workload".into());
    }
    let truth = lab.truth(&base, &dq)?;
    let k = lab.scale.k;
    let n_chunks = base.store.n_chunks();
    let budget = (n_chunks * 3 / 5).max(1);
    let retained = base.store.total_descriptors() as usize;
    // A pool multiplier that makes the rerank tail rescore everything the
    // scan saw: R·k ≥ n, the exact-recovery regime.
    let full_mult = retained.div_ceil(k.max(1)).max(1);

    let full = SearchParams {
        k,
        stop: StopRule::Chunks(n_chunks),
        prefetch_depth: 2,
        log_snapshots: false,
    };
    let partial = SearchParams {
        stop: StopRule::Chunks(budget),
        ..full
    };
    let complete = SearchParams {
        stop: StopRule::ToCompletion,
        ..full
    };

    let mut t = Table::new(
        "Experiment 6. Quantized descriptors: ADC scan + exact rerank tail vs raw scan (DQ)",
        &[
            "Scan",
            "Ranking",
            "R",
            "Stop",
            "Precision",
            "Bytes/q",
            "Rerank B/q",
            "Avg virtual s",
            "Centroid evals/q",
        ],
    );

    // --- Uncompressed baselines ------------------------------------------
    eprintln!(
        "[exp6] raw baselines on {} ({} chunks, budget {budget}) …",
        base.meta.label, n_chunks
    );
    let coarse_raw = CoarseQuantizer::for_store(&base.store);
    let run_raw = |params: &SearchParams, two_level: bool| -> EvalResult<Vec<SearchResult>> {
        let mut out = Vec::with_capacity(dq.len());
        for q in &dq.queries {
            out.push(if two_level {
                search_two_level(&base.store, &lab.model, q, params, &coarse_raw)?
            } else {
                search(&base.store, &lab.model, q, params)?
            });
        }
        Ok(out)
    };
    let raw_full = run_raw(&full, false)?;
    let raw_part = run_raw(&partial, false)?;
    let raw_done = run_raw(&complete, false)?;
    let two_done = run_raw(&complete, true)?;
    let two_part = run_raw(&partial, true)?;

    let two_level_exact = raw_done
        .iter()
        .zip(two_done.iter())
        .all(|(a, b)| neighbors_bit_identical(a, b));
    let raw_part_cell = exp6_cell(&raw_part, &truth);
    let raw_done_cell = exp6_cell(&raw_done, &truth);
    let two_done_cell = exp6_cell(&two_done, &truth);
    let evals_factor = raw_done_cell.evals / two_done_cell.evals.max(1.0);

    let mut push_row = |scan: &str, ranking: &str, r: &str, stop: &str, cell: &Exp6Cell| {
        t.row(vec![
            scan.to_string(),
            ranking.to_string(),
            r.to_string(),
            stop.to_string(),
            fmt_f(cell.precision, 3),
            fmt_f(cell.bytes, 0),
            fmt_f(cell.rerank_bytes, 0),
            fmt_f(cell.secs, 3),
            fmt_f(cell.evals, 1),
        ]);
    };
    push_row("raw", "flat", "—", "full", &exp6_cell(&raw_full, &truth));
    push_row("raw", "flat", "—", "3/5", &raw_part_cell);
    push_row("raw", "flat", "—", "compl", &raw_done_cell);
    push_row("raw", "2-level", "—", "compl", &two_done_cell);
    push_row("raw", "2-level", "—", "3/5", &exp6_cell(&two_part, &truth));

    // --- Quantized sweep --------------------------------------------------
    let mut quants = Vec::new();
    for name in exp6_codecs() {
        quants.push((name, lab.quantized_index(name)?));
    }
    let mut monotone = true;
    let mut tail_exact = true;
    // The best quantized partial-budget cell that stays within 0.01 of the
    // raw same-budget baseline while reading strictly fewer bytes.
    let mut best: Option<(String, usize, f64, f64)> = None;
    for (name, qh) in &quants {
        let coarse_q = CoarseQuantizer::for_store(&qh.store);
        for two_level in [false, true] {
            let ranking = if two_level { "2-level" } else { "flat" };
            let mut prev = -1.0f64;
            for &r_mult in &exp6_rerank_mults() {
                eprintln!("[exp6] {} {ranking} R={r_mult} …", qh.meta.label);
                let mut results = Vec::with_capacity(dq.len());
                for q in &dq.queries {
                    results.push(search_quantized_with(
                        &qh.store,
                        &lab.model,
                        q,
                        &partial,
                        r_mult,
                        two_level.then_some(&coarse_q),
                    )?);
                }
                let cell = exp6_cell(&results, &truth);
                monotone = monotone && cell.precision >= prev;
                prev = cell.precision;
                if cell.precision >= raw_part_cell.precision - 0.01
                    && cell.bytes < raw_part_cell.bytes
                    && best.as_ref().is_none_or(|b| cell.bytes < b.3)
                {
                    best = Some((
                        format!("{name}/{ranking}"),
                        r_mult,
                        cell.precision,
                        cell.bytes,
                    ));
                }
                push_row(name, ranking, &r_mult.to_string(), "3/5", &cell);
            }
        }
        // The exact-recovery cell: full budget, full-depth pool — the tail
        // must reproduce the uncompressed answer bit for bit.
        eprintln!(
            "[exp6] {} flat R={full_mult} (full budget) …",
            qh.meta.label
        );
        let mut results = Vec::with_capacity(dq.len());
        for q in &dq.queries {
            results.push(search_quantized_with(
                &qh.store, &lab.model, q, &full, full_mult, None,
            )?);
        }
        tail_exact = tail_exact
            && raw_full
                .iter()
                .zip(results.iter())
                .all(|(a, b)| neighbors_bit_identical(a, b));
        push_row(
            name,
            "flat",
            &full_mult.to_string(),
            "full",
            &exp6_cell(&results, &truth),
        );
    }

    let compat = exp6_v2_v3_compatible(&base, &quants[0].1)?;

    let rendered = t.render();
    t.save_csv(&lab.results_dir()?.join("exp6.csv"))?;
    let best_line = match &best {
        Some((codec, r, p, b)) => format!(
            "yes ({codec}, R = {r}: precision {} vs {}, bytes {} vs {})",
            fmt_f(*p, 3),
            fmt_f(raw_part_cell.precision, 3),
            fmt_f(*b, 0),
            fmt_f(raw_part_cell.bytes, 0),
        ),
        None => "NO".to_string(),
    };
    Ok(format!(
        "{rendered}\nRerank tail bit-identical to the uncompressed baseline at full budget: {}.\n\
         Precision monotonically non-decreasing in rerank depth: {}.\n\
         Neighbor ids unchanged under two-level ranking: {} ({} vs {} centroid evals per query to completion, {}x fewer).\n\
         v2 and v3 chunk files read-compatible: {}.\n\
         Quantized scan within 0.01 of the raw same-budget baseline with fewer bytes: {best_line}.\n",
        if tail_exact { "yes" } else { "NO" },
        if monotone { "yes" } else { "NO" },
        if two_level_exact { "yes" } else { "NO" },
        fmt_f(raw_done_cell.evals, 1),
        fmt_f(two_done_cell.evals, 1),
        fmt_f(evals_factor, 1),
        if compat { "yes" } else { "NO" },
    ))
}

// ---------------------------------------------------------------------------
// Experiment 7 — the sharded fleet: N delivering shards, placement, failover
// ---------------------------------------------------------------------------

/// The shard counts experiment 7 sweeps.
pub fn exp7_shards() -> Vec<usize> {
    vec![1, 4, 16]
}

/// The replication factors experiment 7 sweeps.
pub fn exp7_replication() -> Vec<usize> {
    vec![1, 2, 3]
}

/// Finds a fault seed whose plan permanently loses at least one (and at
/// most a handful of) chunks of an `n_chunks`-chunk store — the canonical
/// "a disk died under one chunk" scenario. Deterministic: the scan starts
/// at `base_seed` and takes the first seed that qualifies.
fn exp7_lossy_plan(base_seed: u64, n_chunks: usize) -> FaultPlan {
    let rate = (2.0 / n_chunks.max(1) as f64).min(0.5);
    for offset in 0..1_000u64 {
        let plan = FaultPlan::new(FaultConfig::lossy(base_seed.wrapping_add(offset), rate));
        let lost = plan.permanent_losses(n_chunks).len();
        if (1..=3).contains(&lost) {
            return plan;
        }
    }
    // Pathologically tiny stores: lose chunk coverage guarantees and fall
    // back to a denser plan that certainly hits something.
    FaultPlan::new(FaultConfig::lossy(base_seed, 0.5))
}

/// Regenerates **Experiment 7**: the sharded-fleet sweep. The DQ workload,
/// skewed by a Zipf draw so a few hot queries repeat, is offered at 16×
/// the serial service rate to a [`FleetScheduler`] for every shard count ×
/// replication factor × placement policy. Every cell's merged answers are
/// bit-compared against the serial single-device reference (sharding must
/// never change an answer), the placement policies are compared on
/// cross-shard chunk traffic and primary-placement imbalance, and a
/// permanent-chunk-loss scenario shows replication turning today's
/// `Degraded` results into failover events.
pub fn exp7(lab: &Lab) -> EvalResult<String> {
    let handle = lab.serving_index()?;
    let handle = &handle;
    let dq = lab.dq()?;
    if dq.is_empty() {
        return Err("exp7 needs a non-empty DQ workload".into());
    }
    let params = SearchParams {
        k: lab.scale.k,
        stop: StopRule::ToCompletionEps(0.5),
        prefetch_depth: 2,
        log_snapshots: false,
    };
    let snap = Snapshot::new(handle.store.clone(), lab.model);

    // Zipf-skew the query stream: a few hot queries dominate, so shards
    // holding their chunks genuinely contend and placement matters.
    let picks = zipf_assignments(dq.len(), dq.len(), 0.8, lab.scale.seed ^ 0xA7);
    let queries: Vec<Vector> = picks.iter().map(|&p| dq.queries[p as usize]).collect();

    // Serial reference: the answers every fleet cell must reproduce.
    eprintln!("[exp7] serial reference over {} queries …", queries.len());
    let mut serial = Vec::with_capacity(queries.len());
    let mut serial_secs = 0.0f64;
    for query in &queries {
        let r = snap.search(query, &params)?;
        serial_secs += r.log.total_virtual.as_secs();
        serial.push(r);
    }

    // 16× the serial service rate: far past single-device saturation — the
    // regime where a fleet is the only way to keep latency bounded.
    let rate_qps = 16.0 * queries.len() as f64 / serial_secs.max(1e-9);
    let arrivals = poisson_arrivals(queries.len(), rate_qps, lab.scale.seed ^ 0xA7);
    let trace: Vec<(Vector, VirtualDuration)> = queries
        .iter()
        .zip(arrivals.arrivals.iter())
        .map(|(q, &t)| (*q, VirtualDuration::from_secs(t)))
        .collect();

    let mut t = Table::new(
        &format!(
            "Experiment 7. Sharded fleet serving (DQ Zipf-skewed, Poisson at {rate_qps:.1} q/s, \
             {} — 16× serial capacity)",
            handle.meta.label
        ),
        &[
            "Shards",
            "Repl",
            "Placement",
            "Thru q/s",
            "p50 s",
            "p99 s",
            "Disk reads",
            "Max shard reads",
            "Cross-shard",
            "Imbalance",
            "Serial-identical",
        ],
    );
    let mut all_identical = true;
    let mut imbalance_populated = true;
    // (shards, repl) → cross-shard fetches per placement, for the
    // locality-vs-hash comparison.
    let mut cross_of: Vec<(usize, usize, Placement, u64)> = Vec::new();

    for &n_shards in &exp7_shards() {
        for &replication in &exp7_replication() {
            for placement in Placement::ALL {
                eprintln!(
                    "[exp7] {n_shards} shard(s) × R{replication} × {} …",
                    placement.name()
                );
                let mut config = FleetConfig::new(Policy::MostWantedChunk, n_shards, 8);
                config.placement = placement;
                config.replication = replication;
                config.max_queued = trace.len(); // admit everything: compare full runs
                let fleet =
                    FleetScheduler::new(snap.clone(), config).serve_trace(&trace, &params)?;
                let report = &fleet.report;

                let mut identical =
                    report.stats.rejected == 0 && report.completions.len() == serial.len();
                for c in &report.completions {
                    identical =
                        identical && results_bit_identical(&serial[c.id as usize], &c.result);
                }
                all_identical = all_identical && identical;
                imbalance_populated = imbalance_populated
                    && fleet.imbalance_factor.is_finite()
                    && fleet.imbalance_factor >= 1.0;
                cross_of.push((n_shards, replication, placement, fleet.cross_shard_fetches));

                let lat = LatencySummary::from_secs(&report.latencies_secs());
                let max_shard_reads = report
                    .stats
                    .disk_reads_by_shard
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0);
                t.row(vec![
                    n_shards.to_string(),
                    replication.to_string(),
                    placement.name().to_string(),
                    fmt_f(report.throughput_qps(), 1),
                    fmt_f(lat.p50_secs, 3),
                    fmt_f(lat.p99_secs, 3),
                    report.stats.disk_reads.to_string(),
                    max_shard_reads.to_string(),
                    fleet.cross_shard_fetches.to_string(),
                    fmt_f(fleet.imbalance_factor, 2),
                    if identical { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
    }

    // Does centroid-locality placement actually keep chunk traffic on the
    // query's home shard? Compare the placements cell by cell.
    let locality_wins = cross_of.iter().any(|&(s, r, p, cross)| {
        s > 1
            && p == Placement::CentroidLocality
            && cross_of.iter().any(|&(s2, r2, p2, hash_cross)| {
                s2 == s && r2 == r && p2 == Placement::ChunkHash && cross < hash_cross
            })
    });

    // The failover scenario: a fault plan permanently loses a chunk or
    // two. Without replication every full scan that wants a lost chunk
    // degrades — exactly today's behaviour. With R ≥ 2 the read fails over
    // to a replica and the answer stays exact.
    let full_scan = SearchParams {
        stop: StopRule::Chunks(usize::MAX),
        ..params
    };
    let n_failover_queries = queries.len().min(8);
    let failover_trace: Vec<(Vector, VirtualDuration)> =
        trace.iter().take(n_failover_queries).cloned().collect();
    let plan = exp7_lossy_plan(lab.scale.seed ^ 0xA7, handle.store.n_chunks());
    let retry = RetryPolicy::new(
        TRANSIENT_CLEAR + 1,
        VirtualDuration::from_ms(5.0),
        VirtualDuration::from_ms(1.0),
    );
    let mut f = Table::new(
        "Experiment 7 failover: permanent chunk loss under replication (full scans)",
        &["Repl", "Degraded", "Exact", "Failovers", "Chunks abandoned"],
    );
    let mut r1_degraded = 0usize;
    let mut higher_r_all_exact = true;
    let mut higher_r_failed_over = true;
    for &replication in &exp7_replication() {
        let mut config = FleetConfig::new(Policy::MostWantedChunk, 4, 4);
        config.replication = replication;
        config.max_queued = failover_trace.len();
        config.fault_plan = Some(plan);
        config.retry = retry;
        let fleet =
            FleetScheduler::new(snap.clone(), config).serve_trace(&failover_trace, &full_scan)?;
        let degraded = fleet
            .report
            .completions
            .iter()
            .filter(|c| c.result.log.degradation.is_degraded())
            .count();
        let exact = fleet.report.completions.len() - degraded;
        if replication == 1 {
            r1_degraded = degraded;
        } else {
            higher_r_all_exact = higher_r_all_exact && degraded == 0;
            higher_r_failed_over = higher_r_failed_over && fleet.failovers > 0;
        }
        f.row(vec![
            replication.to_string(),
            degraded.to_string(),
            exact.to_string(),
            fleet.failovers.to_string(),
            fleet.report.stats.chunks_abandoned.to_string(),
        ]);
    }
    let failover_masks = r1_degraded > 0 && higher_r_all_exact && higher_r_failed_over;

    let rendered = t.render();
    let dir = lab.results_dir()?;
    t.save_csv(&dir.join("exp7.csv"))?;
    f.save_csv(&dir.join("exp7_failover.csv"))?;
    Ok(format!(
        "{rendered}\n{}\n\
         All merged fleet answers bit-identical to solo under every cell: {}.\n\
         Imbalance factor populated for both placements in every cell: {}.\n\
         Centroid-locality fetched fewer cross-shard chunks than chunk-hash in at least one cell: {}.\n\
         Replication masked permanent chunk loss as failover: {} \
         (R=1 degraded {} of {} full scans; R>=2 all exact with failovers).\n",
        f.render(),
        if all_identical { "yes" } else { "NO" },
        if imbalance_populated { "yes" } else { "NO" },
        if locality_wins { "yes" } else { "NO" },
        if failover_masks { "yes" } else { "NO" },
        r1_degraded,
        n_failover_queries,
    ))
}

// ---------------------------------------------------------------------------
// Experiment 8: live mutability — serving under skewed ingest
// ---------------------------------------------------------------------------

/// The ingest-rate multipliers experiment 8 sweeps: mutation arrivals at
/// this multiple of the query arrival rate.
pub fn exp8_ingest_multipliers() -> Vec<f64> {
    vec![0.5, 4.0]
}

/// Experiment 8's target chunk size. Fixed rather than scale-derived:
/// rebalancing operates at chunk granularity, so the sweep needs enough
/// chunks that a skewed ingest stream can actually concentrate load — at
/// the scale-derived MEDIUM leaf a tiny lab has ~10 chunks and the whole
/// mutation stream fits inside one average chunk's worth of delta.
pub fn exp8_target_chunk() -> usize {
    32
}

/// The effective per-bucket scan loads of a live index: the physical
/// descriptor count of every final-generation chunk, plus — when delta
/// inserts are still unfolded — one extra bucket for the delta chunk,
/// which *every* query scans in full. Under `Never` the skewed inserts
/// pile up there, which is exactly the hot spot online compaction folds
/// away.
fn exp8_effective_loads(report_loads: &[usize], pending_inserts: usize) -> Vec<usize> {
    let mut loads = report_loads.to_vec();
    if pending_inserts > 0 {
        loads.push(pending_inserts);
    }
    loads
}

/// Regenerates **Experiment 8**: the live-mutation sweep. A skewed
/// (Zipf-anchored) stream of inserts and deletes is merged with the
/// Poisson DQ query timeline and offered to a [`LiveServer`] for every
/// chunker × ingest rate × compaction policy. Every completed query is
/// bit-compared against a solo run on the epoch snapshot it pinned at
/// admission (mutation may change *which* epoch a query sees, never what
/// a pinned epoch computes), the background compactor's chunk-size bound
/// is checked on every installed generation, and the final imbalance
/// factor shows online compaction absorbing the skewed ingest that a
/// never-compacting index accumulates in its delta chunk.
pub fn exp8(lab: &Lab) -> EvalResult<String> {
    let dq = lab.dq()?;
    if dq.is_empty() {
        return Err("exp8 needs a non-empty DQ workload".into());
    }
    let params = SearchParams {
        k: lab.scale.k,
        stop: StopRule::ToCompletionEps(0.5),
        prefetch_depth: 2,
        log_snapshots: false,
    };
    let leaf = exp8_target_chunk();
    let n_ops = (lab.set.len() / 10).clamp(120, 1_500);
    let trigger = (n_ops / 3).max(8);
    let policies = vec![CompactionPolicy::Never, CompactionPolicy::EveryOps(trigger)];
    let chunkers: Vec<(&str, Box<dyn ChunkFormer>)> = vec![
        ("sr-tree", Box::new(SrTreeChunker { leaf_size: leaf })),
        (
            "round-robin",
            Box::new(RoundRobinChunker {
                n_chunks: (lab.set.len() / leaf.max(1)).max(2),
            }),
        ),
    ];

    let cells_dir = lab.results_dir()?.join("exp8-cells");
    let mut t = Table::new(
        &format!(
            "Experiment 8. Serving under live mutation (DQ + {n_ops} skewed ops, \
             target chunk = {leaf}, compaction trigger = {trigger} ops)"
        ),
        &[
            "Chunker",
            "Ingest x",
            "Policy",
            "Queries",
            "Mutations",
            "Compactions",
            "Gen",
            "Epoch",
            "Max chunk",
            "Pending delta",
            "Imbalance",
            "p50 s",
            "p99 s",
            "Compaction s",
            "Pinned-identical",
        ],
    );

    let mut all_identical = true;
    let mut bound_ok = true;
    let mut compaction_ran_everywhere = true;
    // (chunker, multiplier) → final imbalance factor per policy name.
    let mut imbalances: Vec<(String, f64, String, f64)> = Vec::new();

    for (cname, former) in &chunkers {
        let formation = former.form(&lab.set);

        // Serial reference over the pristine generation-0 index: sets the
        // query arrival rate (2× serial capacity) the whole chunker row
        // shares.
        let ref_dir = cells_dir.join(format!("{cname}-ref"));
        std::fs::remove_dir_all(&ref_dir).ok();
        std::fs::create_dir_all(&ref_dir)?;
        let reference = MutableIndex::create(
            &ref_dir,
            "live",
            &lab.set,
            &formation.chunks,
            lab.scale.page_size,
            None,
            lab.model,
            leaf,
        )?;
        let pristine = reference.pin();
        let mut serial_secs = 0.0f64;
        for query in &dq.queries {
            serial_secs += pristine.search(query, &params)?.log.total_virtual.as_secs();
        }
        let query_rate = 2.0 * dq.len() as f64 / serial_secs.max(1e-9);
        let arrivals = poisson_arrivals(dq.len(), query_rate, lab.scale.seed ^ 0xA8);
        let queries: Vec<(Vector, VirtualDuration)> = dq
            .queries
            .iter()
            .zip(arrivals.arrivals.iter())
            .map(|(q, &at)| (*q, VirtualDuration::from_secs(at)))
            .collect();

        for &mult in &exp8_ingest_multipliers() {
            let mtrace = skewed_mutation_trace(
                &lab.set,
                n_ops,
                0.9,
                mult * query_rate,
                1.1,
                lab.scale.seed ^ 0xE8,
            );
            let mutations: Vec<(VirtualDuration, LiveEvent)> = mtrace
                .events
                .iter()
                .map(|e| {
                    let event = match &e.op {
                        MutationOp::Insert { id, vector } => LiveEvent::Insert {
                            id: *id,
                            vector: *vector,
                        },
                        MutationOp::Delete { id } => LiveEvent::Delete { id: *id },
                    };
                    (VirtualDuration::from_secs(e.at_secs), event)
                })
                .collect();
            let trace = merge_timelines(&queries, &mutations);

            for policy in &policies {
                eprintln!("[exp8] {cname} × {mult}× ingest × {} …", policy.name());
                let cell_dir = cells_dir.join(format!("{cname}-x{mult}-{}", policy.name()));
                std::fs::remove_dir_all(&cell_dir).ok();
                std::fs::create_dir_all(&cell_dir)?;
                let index = MutableIndex::create(
                    &cell_dir,
                    "live",
                    &lab.set,
                    &formation.chunks,
                    lab.scale.page_size,
                    None,
                    lab.model,
                    leaf,
                )?;
                let server = LiveServer::new(index, params, *policy);
                let (report, final_index) = server.serve_trace(&trace)?;

                // Every completion must be bit-identical to a solo run on
                // the epoch snapshot it pinned at admission.
                let mut identical = report.completions.len() == dq.len();
                for c in &report.completions {
                    let solo = c.snapshot.search(&c.query, &params)?;
                    identical = identical && results_bit_identical(&solo, &c.result);
                }
                all_identical = all_identical && identical;

                if report.stats.compactions > 0 {
                    bound_ok = bound_ok && report.stats.max_installed_chunk <= 2 * leaf;
                } else if matches!(policy, CompactionPolicy::EveryOps(_)) {
                    compaction_ran_everywhere = false;
                }

                let pending = final_index.pin().delta().inserts.len();
                let loads = exp8_effective_loads(&report.final_chunk_loads, pending);
                let imbalance = imbalance_factor(&loads);
                imbalances.push((format!("{cname}-x{mult}"), mult, policy.name(), imbalance));

                let latencies: Vec<f64> = report
                    .completions
                    .iter()
                    .map(|c| c.latency().as_secs())
                    .collect();
                let lat = LatencySummary::from_secs(&latencies);
                t.row(vec![
                    (*cname).to_string(),
                    fmt_f(mult, 1),
                    policy.name(),
                    report.stats.queries.to_string(),
                    report.stats.mutations.to_string(),
                    report.stats.compactions.to_string(),
                    final_index.generation().to_string(),
                    final_index.epoch().to_string(),
                    report
                        .final_chunk_loads
                        .iter()
                        .max()
                        .copied()
                        .unwrap_or(0)
                        .to_string(),
                    pending.to_string(),
                    fmt_f(imbalance, 3),
                    fmt_f(lat.p50_secs, 3),
                    fmt_f(lat.p99_secs, 3),
                    fmt_f(report.stats.compaction_cost_secs, 3),
                    if identical { "yes" } else { "NO" }.to_string(),
                ]);
            }
        }
    }

    // Per (chunker × rate) pair: the compacting cell must end better
    // balanced than the never-compacting one.
    let mut compaction_reduces = true;
    let pairs: std::collections::BTreeSet<String> =
        imbalances.iter().map(|(k, _, _, _)| k.clone()).collect();
    for pair in &pairs {
        let of = |policy_prefix: &str| {
            imbalances
                .iter()
                .find(|(k, _, p, _)| k == pair && p.starts_with(policy_prefix))
                .map(|(_, _, _, f)| *f)
        };
        if let (Some(never), Some(compacting)) = (of("never"), of("every-")) {
            compaction_reduces = compaction_reduces && compacting < never;
        } else {
            compaction_reduces = false;
        }
    }

    let rendered = t.render();
    let dir = lab.results_dir()?;
    t.save_csv(&dir.join("exp8.csv"))?;
    Ok(format!(
        "{rendered}\n\
         Every served result bit-identical to a solo run on its pinned epoch snapshot: {}.\n\
         Compactor kept every installed chunk within 2x the target size: {}.\n\
         Online compaction ran in every compacting cell and reduced the final imbalance \
         factor vs never-compacting under skewed ingest: {}.\n",
        if all_identical { "yes" } else { "NO" },
        if bound_ok { "yes" } else { "NO" },
        if compaction_ran_everywhere && compaction_reduces {
            "yes"
        } else {
            "NO"
        },
    ))
}

// ---------------------------------------------------------------------------
// Experiment 9 — image-level queries: vote aggregation + early termination
// ---------------------------------------------------------------------------

/// Experiment 9's stability windows for the `StableTop` stop rule.
pub fn exp9_stability_windows() -> Vec<usize> {
    vec![1, 2, 3]
}

/// Experiment 9's image-concurrency levels.
pub fn exp9_concurrency() -> Vec<usize> {
    vec![1, 4]
}

/// Descriptors per image query. Large enough that an early-terminating
/// stop rule has real room to save work (the gate wants ≤ 0.5× the
/// sessions of a full run).
pub fn exp9_per_query() -> usize {
    24
}

/// Regenerates **Experiment 9**: the image-query quality-vs-time sweep.
/// The collection's descriptors are partitioned into images by a
/// Zipf-skewed map; each query is a set of [`exp9_per_query`] descriptors
/// drawn from one source image and served through the
/// [`ImageScheduler`] — one search session per descriptor, most-wanted-
/// chunk fan-out shared across siblings — under every image stop rule ×
/// stability window × concurrency cell. Ground truth is the exact
/// (run-to-completion, every-descriptor) image ranking; the sweep
/// reproduces the paper's "a fraction of the query points suffices"
/// claim at image granularity: an early-terminating cell must reach
/// ≥ 0.95 of the full run's precision@10 while completing ≤ 0.5× the
/// descriptor sessions.
pub fn exp9(lab: &Lab) -> EvalResult<String> {
    let handle = lab.serving_index()?;
    let snap = Snapshot::new(handle.store.clone(), lab.model);
    let m = 10usize;
    // Wide neighbour lists spread each completion's votes across several
    // images, so the tail of the top-10 separates (and stabilises) after
    // a fraction of the descriptor set rather than at the very end.
    let k = lab.scale.k.max(10);
    let n_images = (lab.set.len() / 250).clamp(10, 40);
    let image_of = Arc::new(image_of_map(
        lab.set.len(),
        n_images,
        0.8,
        lab.scale.seed ^ 0xA9,
    ));
    let n_queries = lab.scale.n_queries.max(1);
    let queries = image_queries(
        &lab.set,
        &image_of,
        n_queries,
        exp9_per_query(),
        lab.scale.seed ^ 0x1A9,
    );

    // Ground truth: exact per-descriptor searches, every descriptor spent.
    eprintln!(
        "[exp9] exact image truth over {n_queries} queries × {} descriptors …",
        exp9_per_query()
    );
    let exact = SearchParams::exact(k);
    let mut truths: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
    for q in &queries {
        let (outcome, _) = solo_image_search(&snap, q.image, &q.descriptors, &exact, &image_of)?;
        truths.push(outcome.top_images(m));
    }

    // The serving sweep runs each descriptor under the approximate stop
    // the quality-vs-time experiments use.
    let params = SearchParams {
        k,
        stop: StopRule::ToCompletionEps(0.5),
        prefetch_depth: 2,
        log_snapshots: false,
    };
    // Solo reference under the same per-descriptor params: the answer the
    // run-to-completion cells must reproduce bit for bit.
    let mut solo = Vec::with_capacity(queries.len());
    for q in &queries {
        solo.push(solo_image_search(&snap, q.image, &q.descriptors, &params, &image_of)?.0);
    }

    // The stop rules watch a *head* prefix (top-3): the tail of a vote
    // ranking churns until almost every descriptor is spent, but the head
    // settles after a fraction of them — exactly the paper's trade-off.
    // Quality is still measured over the full top-10.
    let stop_m = 3usize;
    let mut stops = vec![ImageStopRule::RunAll];
    for window in exp9_stability_windows() {
        stops.push(ImageStopRule::StableTop { m: stop_m, window });
    }
    stops.push(ImageStopRule::CertifiedTop { m: stop_m });

    let trace: Vec<(ImageQuerySpec, VirtualDuration)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            (
                ImageQuerySpec {
                    label: q.image,
                    descriptors: q.descriptors.clone(),
                },
                VirtualDuration::from_ms(i as f64),
            )
        })
        .collect();

    let mut t = Table::new(
        &format!(
            "Experiment 9. Image-level queries ({n_queries} queries × {} descriptors, \
             {n_images} images, k = {k}, precision@{m} vs the exact image ranking)",
            exp9_per_query(),
        ),
        &[
            "Stop rule",
            "Active",
            "Spent",
            "Abandoned",
            "Spent frac",
            "Precision",
            "Rel precision",
            "Cert rate",
            "Thru q/s",
            "p50 s",
            "Fetches",
            "Accounting",
        ],
    );
    let mut spent_curve = Table::new(
        "Experiment 9 descriptors-spent curves",
        &[
            "Stop rule",
            "Active",
            "completions",
            "mean_precision",
            "queries_live",
        ],
    );

    let mut all_identical = true;
    let mut accounting_exact = true;
    // (stop label, active, spent, precision) per cell, for the gate.
    let mut cells: Vec<(String, usize, u64, f64)> = Vec::new();

    for &active in &exp9_concurrency() {
        for &stop in &stops {
            eprintln!("[exp9] {} × {active} active …", stop.label());
            let mut config = ImageConfig::new(Policy::MostWantedChunk, active, stop);
            config.scheduler.max_queued = queries.len();
            let report = ImageScheduler::new(snap.clone(), config, Arc::clone(&image_of))
                .serve_trace(&trace, &params)?;

            let outcomes: Vec<&eff2_core::image::ImageOutcome> =
                report.completions.iter().map(|c| &c.outcome).collect();
            let mut precision = 0.0f64;
            let mut certified = 0usize;
            for c in &report.completions {
                let o = &c.outcome;
                accounting_exact = accounting_exact
                    && o.descriptors_spent + o.descriptors_abandoned == o.descriptors_total;
                let truth = &truths[c.id as usize];
                precision += image_precision_at(&o.top_images(m), truth, m);
                if o.certificate {
                    certified += 1;
                }
                if matches!(stop, ImageStopRule::RunAll) {
                    let want = &solo[c.id as usize];
                    let same = want.ranking.len() == o.ranking.len()
                        && want.ranking.iter().zip(o.ranking.iter()).all(|(w, g)| {
                            w.image == g.image
                                && w.votes == g.votes
                                && w.best_dist.to_bits() == g.best_dist.to_bits()
                        });
                    all_identical = all_identical && same;
                }
            }
            let nq = report.completions.len().max(1);
            precision /= nq as f64;
            let cert_rate = certified as f64 / nq as f64;
            let spent_frac = avg_spent_fraction(&outcomes);
            cells.push((
                stop.label(),
                active,
                report.stats.descriptors_spent,
                precision,
            ));
            // The RunAll cell leads each concurrency level, so the full-run
            // reference is always in `cells` by the time any cell needs it
            // (for RunAll itself this is a self-comparison: rel = 1).
            let rel = cells
                .iter()
                .find(|(label, a, _, _)| label == "run-all" && *a == active)
                .map_or(
                    1.0,
                    |(_, _, _, full)| {
                        if *full > 0.0 {
                            precision / full
                        } else {
                            1.0
                        }
                    },
                );

            for point in descriptors_spent_curve(&outcomes, &truths, m) {
                spent_curve.row(vec![
                    stop.label(),
                    active.to_string(),
                    point.completions.to_string(),
                    fmt_f(point.avg_precision, 4),
                    point.queries_live.to_string(),
                ]);
            }

            let latencies: Vec<f64> = report
                .completions
                .iter()
                .map(|c| c.latency().as_secs())
                .collect();
            let lat = LatencySummary::from_secs(&latencies);
            t.row(vec![
                stop.label(),
                active.to_string(),
                report.stats.descriptors_spent.to_string(),
                report.stats.descriptors_abandoned.to_string(),
                fmt_f(spent_frac, 3),
                fmt_f(precision, 3),
                fmt_f(rel, 3),
                fmt_f(cert_rate, 2),
                fmt_f(report.throughput_qps(), 1),
                fmt_f(lat.p50_secs, 3),
                report.stats.fetches.to_string(),
                if accounting_exact { "exact" } else { "BROKEN" }.to_string(),
            ]);
        }
    }

    // The quality-vs-time gate: some early-terminating cell must hold
    // ≥ 95 % of its concurrency level's full-run precision while
    // completing at most half the descriptor sessions.
    let full_of = |active: usize| {
        cells
            .iter()
            .find(|(label, a, _, _)| label == "run-all" && *a == active)
            .map(|(_, _, spent, precision)| (*spent, *precision))
    };
    let mut gate_hit: Option<(String, usize, f64, f64)> = None;
    for (label, active, spent, precision) in &cells {
        let Some((full_spent, full_precision)) = full_of(*active) else {
            continue;
        };
        let rel = if full_precision > 0.0 {
            precision / full_precision
        } else {
            1.0
        };
        let ratio = *spent as f64 / full_spent.max(1) as f64;
        if label != "run-all" && rel >= 0.95 && ratio <= 0.5 {
            let better = gate_hit
                .as_ref()
                .is_none_or(|(_, _, _, best_ratio)| ratio < *best_ratio);
            if better {
                gate_hit = Some((label.clone(), *active, rel, ratio));
            }
        }
    }

    let rendered = t.render();
    let dir = lab.results_dir()?;
    t.save_csv(&dir.join("exp9.csv"))?;
    spent_curve.save_csv(&dir.join("exp9_spent.csv"))?;

    let mut out = format!(
        "{rendered}\nRun-to-completion cells bit-identical to the solo image reference: {}.\n\
         Descriptor accounting exact in every cell: {}.\n",
        if all_identical { "yes" } else { "NO" },
        if accounting_exact { "yes" } else { "NO" },
    );
    match &gate_hit {
        Some((label, active, rel, ratio)) => out.push_str(&format!(
            "Best early-stop cell: {label} at {active} active — {rel:.3} of full-run \
             precision@{m} using {ratio:.2}x the descriptor sessions.\n\
             An early-terminating cell reached >=0.95 of full-run precision@{m} at <=0.5x \
             the descriptor sessions: yes.\n"
        )),
        None => out.push_str(&format!(
            "An early-terminating cell reached >=0.95 of full-run precision@{m} at <=0.5x \
             the descriptor sessions: NO.\n"
        )),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    fn tiny_lab(tag: &str) -> Lab {
        let mut scale = Scale::new(2_500);
        scale.n_queries = 6;
        scale.k = 5;
        let dir = std::env::temp_dir().join(format!("eff2_exp_{tag}"));
        Lab::prepare(scale, &dir).expect("prepare")
    }

    #[test]
    fn sweep_marks_respect_k() {
        assert_eq!(sweep_neighbor_marks(30), vec![1, 10, 20, 25, 28, 30]);
        assert_eq!(sweep_neighbor_marks(5), vec![1, 5]);
        assert_eq!(sweep_neighbor_marks(1), vec![1]);
    }

    #[test]
    fn table1_and_fig1_render() {
        let lab = tiny_lab("t1");
        let t1 = table1(&lab).expect("table1");
        assert!(t1.contains("SMALL") && t1.contains("LARGE"));
        assert!(t1.contains("BAG"));
        let f1 = fig1(&lab).expect("fig1");
        assert!(f1.lines().count() > 30);
        assert!(lab.results_dir().unwrap().join("table1.csv").exists());
        assert!(lab.results_dir().unwrap().join("fig1.csv").exists());
    }

    #[test]
    fn exp3_smoke() {
        let lab = tiny_lab("e3");
        let report = exp3(&lab).expect("exp3");
        assert!(report.contains("Experiment 3"));
        assert!(report.contains("completion"), "missing the exact rule row");
        assert!(
            report.contains("One scan per query answered all 9 rules"),
            "missing the shared-scan summary"
        );
        assert!(lab.results_dir().unwrap().join("exp3.csv").exists());
        // The single scan must be strictly cheaper than per-rule re-runs:
        // the ladder contains rules of different depths.
        let summary = report
            .lines()
            .rev()
            .find(|l| l.contains("One scan"))
            .expect("summary line");
        let nums: Vec<usize> = summary
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        // nums = [9, shared, individual] from the summary sentence.
        assert_eq!(nums[0], 9);
        assert!(nums[1] < nums[2], "shared scan should read fewer chunks");
    }

    #[test]
    fn exp4_smoke() {
        let lab = tiny_lab("e4");
        let report = exp4(&lab).expect("exp4");
        assert!(report.contains("Experiment 4"));
        assert!(
            report.contains("bit-identical to serial under every policy: yes"),
            "scheduling changed an answer:\n{report}"
        );
        assert!(lab.results_dir().unwrap().join("exp4.csv").exists());
        assert!(lab.results_dir().unwrap().join("exp4_quality.csv").exists());
        // At the highest concurrency level, co-scheduling sessions that
        // want the same chunk must read strictly fewer chunks than
        // round-robin.
        let top = *exp4_concurrency().last().unwrap();
        let summary = report
            .lines()
            .find(|l| l.starts_with(&format!("At {top} concurrent sessions")))
            .expect("sharing summary line");
        let nums: Vec<u64> = summary
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        // nums = [top, mwc_fetches, fair_fetches, percent_saved].
        assert_eq!(nums[0] as usize, top);
        assert!(
            nums[1] < nums[2],
            "most-wanted-chunk should fetch strictly fewer chunks: {summary}"
        );
    }

    #[test]
    fn exp5_smoke() {
        let lab = tiny_lab("e5");
        let report = exp5(&lab).expect("exp5");
        assert!(report.contains("Experiment 5"));
        assert!(
            report.contains("Rate-0 chaos stack bit-identical to the undecorated search: yes"),
            "rate-0 decoration changed an answer:\n{report}"
        );
        assert!(
            report.contains("All faulted searches completed with degradation reports: yes"),
            "a faulted search aborted or lied about its losses:\n{report}"
        );
        assert!(
            report.contains("Precision monotonically non-increasing in fault rate: yes"),
            "quality rose with the fault rate:\n{report}"
        );
        assert!(lab.results_dir().unwrap().join("exp5.csv").exists());
    }

    #[test]
    fn exp6_smoke() {
        let lab = tiny_lab("e6");
        let report = exp6(&lab).expect("exp6");
        assert!(report.contains("Experiment 6"));
        assert!(
            report.contains(
                "Rerank tail bit-identical to the uncompressed baseline at full budget: yes"
            ),
            "full-budget rerank tail changed an answer:\n{report}"
        );
        assert!(
            report.contains("Precision monotonically non-decreasing in rerank depth: yes"),
            "deeper rerank pools lost quality:\n{report}"
        );
        assert!(
            report.contains("Neighbor ids unchanged under two-level ranking: yes"),
            "two-level ranking changed an answer:\n{report}"
        );
        assert!(
            report.contains("v2 and v3 chunk files read-compatible: yes"),
            "the v3 raw region diverged from the v2 layout:\n{report}"
        );
        assert!(lab.results_dir().unwrap().join("exp6.csv").exists());
    }

    #[test]
    fn exp7_smoke() {
        let lab = tiny_lab("e7");
        let report = exp7(&lab).expect("exp7");
        assert!(report.contains("Experiment 7"));
        assert!(
            report.contains("All merged fleet answers bit-identical to solo under every cell: yes"),
            "sharding changed an answer:\n{report}"
        );
        assert!(
            report.contains("Imbalance factor populated for both placements in every cell: yes"),
            "a placement cell reported no imbalance factor:\n{report}"
        );
        assert!(
            report.contains("Replication masked permanent chunk loss as failover: yes"),
            "replication failed to mask a permanent chunk loss:\n{report}"
        );
        assert!(lab.results_dir().unwrap().join("exp7.csv").exists());
        assert!(lab
            .results_dir()
            .unwrap()
            .join("exp7_failover.csv")
            .exists());
    }

    #[test]
    fn exp8_smoke() {
        let lab = tiny_lab("e8");
        let report = exp8(&lab).expect("exp8");
        assert!(report.contains("Experiment 8"));
        assert!(
            report.contains(
                "Every served result bit-identical to a solo run on its pinned epoch snapshot: yes"
            ),
            "mutation changed a pinned answer:\n{report}"
        );
        assert!(
            report.contains("Compactor kept every installed chunk within 2x the target size: yes"),
            "a compaction installed an oversized chunk:\n{report}"
        );
        assert!(
            report.contains(
                "Online compaction ran in every compacting cell and reduced the final \
                 imbalance factor vs never-compacting under skewed ingest: yes"
            ),
            "compaction failed to rebalance the skewed ingest:\n{report}"
        );
        assert!(lab.results_dir().unwrap().join("exp8.csv").exists());
    }

    #[test]
    fn exp9_smoke() {
        let lab = tiny_lab("e9");
        let report = exp9(&lab).expect("exp9");
        assert!(report.contains("Experiment 9"));
        assert!(
            report
                .contains("Run-to-completion cells bit-identical to the solo image reference: yes"),
            "interleaving changed an image ranking:\n{report}"
        );
        assert!(
            report.contains("Descriptor accounting exact in every cell: yes"),
            "a descriptor session went unaccounted:\n{report}"
        );
        assert!(
            report.contains(
                "An early-terminating cell reached >=0.95 of full-run precision@10 at <=0.5x \
                 the descriptor sessions: yes"
            ),
            "no early-stop cell met the quality-vs-time gate:\n{report}"
        );
        assert!(lab.results_dir().unwrap().join("exp9.csv").exists());
        assert!(lab.results_dir().unwrap().join("exp9_spent.csv").exists());
    }

    #[test]
    fn exp1_smoke() {
        let lab = tiny_lab("e1");
        let report = exp1(&lab).expect("exp1");
        for fig in ["Figure 2", "Figure 3", "Figure 4", "Figure 5", "Table 2"] {
            assert!(report.contains(fig), "missing {fig}");
        }
        for f in ["fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "table2.csv"] {
            assert!(lab.results_dir().unwrap().join(f).exists(), "missing {f}");
        }
    }
}
