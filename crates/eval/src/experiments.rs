//! The experiments: each function regenerates one or more of the paper's
//! tables/figures as a [`Report`]. `EXPERIMENTS` is the one list of them
//! — usage text, dispatch and `all` are read off it — and [`run`] the one
//! place a report is printed and its CSV series saved.

#![expect(
    clippy::indexing_slicing,
    reason = "result tables are sized by the experiment grid that indexes them"
)]

use crate::lab::{IndexHandle, Lab};
use crate::report::{yes_no, Report};
use crate::scale::PAGE_SIZE;
use crate::EvalResult;
use eff2_chaos::plan::TRANSIENT_CLEAR;
use eff2_chaos::{Fault, FaultConfig, FaultPlan, FaultSource, RetryPolicy, RetrySource};
use eff2_core::chunkers::{ChunkFormer, RoundRobinChunker, SrTreeChunker};
use eff2_core::coarse::CoarseQuantizer;
use eff2_core::image::{solo_image_search, ImageOutcome, ImageStopRule};
use eff2_core::search::{search, SearchParams, SearchResult, StopRule};
use eff2_core::search_two_level;
use eff2_core::session::{SearchSession, SkipPolicy};
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::{DimensionStats, Vector};
use eff2_epoch::MutableIndex;
use eff2_metrics::{
    avg_spent_fraction, descriptors_spent_curve, fleet_quality_curve, image_precision_at,
    imbalance_factor, precision_at, GroundTruth, LatencySummary, QualityCurve, Table,
};
use eff2_serve::{
    merge_timelines, CompactionPolicy, Completion, FleetConfig, FleetScheduler, ImageConfig,
    ImageQuerySpec, ImageScheduler, LiveEvent, LiveServer, Policy, Scheduler, SchedulerConfig,
    ServeReport,
};
use eff2_shard::Placement;
use eff2_storage::diskmodel::VirtualDuration;
use eff2_storage::source::{ChunkSource, FileSource};
use eff2_workload::{
    image_of_map, image_queries, poisson_arrivals, skewed_mutation_trace, zipf_assignments,
    MutationOp, Workload,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The registry and its runner
// ---------------------------------------------------------------------------

/// One `eff2-eval` command: its name, a one-line summary for the usage
/// text, and the function that runs it.
pub(crate) type Experiment = (&'static str, &'static str, fn(&Lab) -> EvalResult<Report>);

/// Every command, in the order `all` runs them. Adding an experiment is
/// one entry here plus its function.
#[rustfmt::skip]
pub(crate) const EXPERIMENTS: &[Experiment] = &[
    ("gen", "generate (or load) the synthetic collection and print stats", collection),
    ("indexes", "build the six chunk indexes (BAG + SR at three sizes)", indexes),
    ("table1", "Table 1  — chunk index properties", table1),
    ("fig1", "Figure 1 — sizes of the 30 largest chunks", fig1),
    ("exp1", "Figures 2–5 and Table 2 — quality vs time, six indexes", exp1),
    ("table2", "Table 2 only (runs/loads exp1 curves)", table2),
    ("exp2", "Figures 6–7 — the chunk-size sweep", exp2),
    ("exp3", "the stop-rule sweep — every rule answered from one scan", exp3),
    ("exp4", "the serving sweep — scheduler policies × concurrency levels", exp4),
    ("exp5", "the chaos sweep — quality degradation under injected chunk loss", exp5),
    ("exp6", "the quantization sweep — ADC scans, rerank depths, two-level ranking", exp6),
    ("exp7", "the sharded-fleet sweep — shards × replication × placement, with failover", exp7),
    ("exp8", "the live-mutation sweep — ingest rate × compaction policy × chunker", exp8),
    ("exp9", "the image-query sweep — vote aggregation, stop rules × windows × concurrency", exp9),
];

/// The registry entries `command` names — all of them for `all` — or
/// `None` for a command nobody registered.
pub fn resolve(command: &str) -> Option<&'static [Experiment]> {
    if command == "all" {
        return Some(EXPERIMENTS);
    }
    let at = EXPERIMENTS.iter().position(|(name, ..)| *name == command)?;
    EXPERIMENTS.get(at..=at)
}

/// The CLI usage text; its command list is the registry.
pub fn usage() -> String {
    let mut text = String::from(
        "usage: eff2-eval <command> [--scale N] [--queries N] [--seed S] [--out DIR]\n\ncommands:\n",
    );
    for (name, summary, _) in EXPERIMENTS {
        text += &format!("  {name:<8} {summary}\n");
    }
    text + "  all      everything above, in order\n"
}

/// Runs `selected` in order on `lab`: prints each report and saves its CSV
/// series under `Lab::results_dir`; once everything is printed, names
/// every failed gate on stderr. Returns the process exit status: 1 if any
/// gate failed, 0 otherwise.
pub fn run(selected: &[Experiment], lab: &Lab) -> EvalResult<i32> {
    let dir = lab.results_dir()?;
    let mut failed = Vec::new();
    for (name, _, experiment) in selected {
        let report = experiment(lab)?;
        print!("{}", report.text);
        report.save_csvs(&dir)?;
        failed.extend(report.failed().iter().map(|gate| format!("{name}: {gate}")));
    }
    for gate in &failed {
        eprintln!("gate failed — {gate}");
    }
    Ok(i32::from(!failed.is_empty()))
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

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

/// A table whose columns are `first` followed by `rest`.
fn table_with(title: &str, first: &str, rest: impl Iterator<Item = String>) -> Table {
    let headers: Vec<String> = std::iter::once(first.to_string()).chain(rest).collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    Table::new(title, &headers)
}

/// The DQ workload, which experiment `who` cannot run without.
fn dq_of(lab: &Lab, who: &str) -> EvalResult<Workload> {
    let dq = lab.dq()?;
    if dq.is_empty() {
        return Err(format!("{who} needs a non-empty DQ workload").into());
    }
    Ok(dq)
}

/// Search parameters as every experiment runs them: prefetch depth 2, no
/// per-chunk snapshots.
fn search_params(k: usize, stop: StopRule) -> SearchParams {
    SearchParams {
        k,
        stop,
        prefetch_depth: 2,
        log_snapshots: false,
    }
}

/// A retry budget that always clears transient faults
/// ([`TRANSIENT_CLEAR`]` + 1` attempts).
fn clearing_retry() -> RetryPolicy {
    RetryPolicy::new(
        TRANSIENT_CLEAR + 1,
        VirtualDuration::from_ms(5.0),
        VirtualDuration::from_ms(1.0),
    )
}

/// Precision of `result` against query `qi`'s ground truth.
fn precision_of(result: &SearchResult, truth: &GroundTruth, qi: usize) -> f64 {
    let ids: Vec<u32> = result.neighbors.iter().map(|n| n.id).collect();
    precision_at(&ids, &truth.ids[qi])
}

// ---------------------------------------------------------------------------
// The serving-sweep scaffold (experiments 4, 7, 8 and 9)
// ---------------------------------------------------------------------------

/// The per-descriptor stop rule the serving sweeps run under.
const SERVING_STOP: StopRule = StopRule::ToCompletionEps(0.5);

/// What a serving sweep offers its schedulers.
struct Offered {
    /// Each query answered alone, one at a time — the answers every
    /// scheduled run must reproduce bit for bit.
    serial: Vec<SearchResult>,
    /// The arrival rate of `trace`.
    rate_qps: f64,
    /// The queries as a Poisson arrival trace.
    trace: Vec<(Vector, VirtualDuration)>,
}

/// Answers `queries` serially on `snap`, then offers them as a Poisson
/// trace at `load`× the serial service rate: past 1× the device saturates,
/// a backlog of concurrent sessions builds up, and the policies genuinely
/// contend for the next chunk.
fn offer(
    snap: &Snapshot,
    queries: &[Vector],
    params: &SearchParams,
    load: f64,
    seed: u64,
) -> EvalResult<Offered> {
    let mut serial = Vec::with_capacity(queries.len());
    let mut serial_secs = 0.0f64;
    for query in queries {
        let r = snap.search(query, params)?;
        serial_secs += r.log.total_virtual.as_secs();
        serial.push(r);
    }
    let rate_qps = load * queries.len() as f64 / serial_secs.max(1e-9);
    let arrivals = poisson_arrivals(queries.len(), rate_qps, seed).arrivals;
    let timed = queries.iter().zip(&arrivals);
    let trace = timed.map(|(q, &t)| (*q, VirtualDuration::from_secs(t)));
    Ok(Offered {
        serial,
        rate_qps,
        trace: trace.collect(),
    })
}

/// Whether `report` completed every query of `serial`, each bit-identical
/// to its serial answer in the one sense the workspace has:
/// [`SearchResult::first_difference`] finds nothing.
fn reproduces(report: &ServeReport, serial: &[SearchResult]) -> bool {
    let same = |c: &Completion| serial[c.id as usize].first_difference(&c.result).is_none();
    report.stats.rejected == 0
        && report.completions.len() == serial.len()
        && report.completions.iter().all(same)
}

/// The summary (p50, p99, …) of a run's arrival-to-finish latencies.
fn latency_summary(latencies: impl Iterator<Item = VirtualDuration>) -> LatencySummary {
    LatencySummary::from_secs(&latencies.map(|l| l.as_secs()).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------------
// The collection and its indexes
// ---------------------------------------------------------------------------

/// `gen`: generates (or loads) the collection and prints its size and
/// first-dimension statistics.
pub fn collection(lab: &Lab) -> EvalResult<Report> {
    let stats = DimensionStats::compute(&lab.set);
    let mut report = Report::default();
    report.line(&format!(
        "collection: {} descriptors, dim mean[0] = {:.3}, var[0] = {:.3}",
        stats.count, stats.mean[0], stats.variance[0]
    ));
    Ok(report)
}

/// `indexes`: builds (or opens) the six chunk indexes and lists them.
pub(crate) fn indexes(lab: &Lab) -> EvalResult<Report> {
    let mut report = Report::default();
    for h in lab.six_indexes()? {
        report.line(&format!(
            "{:<14} chunks = {:>6}  mean size = {:>8.1}  outliers = {:>7} ({:.1}%)",
            h.meta.label,
            h.meta.n_chunks,
            h.meta.mean_chunk_size,
            h.meta.discarded,
            100.0 * h.meta.discarded as f64 / h.meta.total_input.max(1) as f64,
        ));
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Regenerates **Table 1**: properties of the BAG and SR-tree chunk
/// indexes (retained/discarded descriptors, chunk counts, mean sizes).
pub(crate) fn table1(lab: &Lab) -> EvalResult<Report> {
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
    let mut report = Report::default();
    report.table("table1.csv", t).line("");
    report.table("table1_formation_cost.csv", cost);
    Ok(report)
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// Regenerates **Figure 1**: sizes of the 30 largest chunks of each of the
/// six indexes (the paper plots these on a log scale — BAG's head chunks
/// are orders of magnitude above its mean).
pub(crate) fn fig1(lab: &Lab) -> EvalResult<Report> {
    let six = lab.six_indexes()?;
    let mut t = table_with(
        "Figure 1. Size of the largest chunks (descriptors)",
        "Rank",
        six.iter().map(|h| h.meta.label.clone()),
    );
    for rank in 0..30 {
        let mut row = vec![(rank + 1).to_string()];
        for h in &six {
            let size = h.meta.largest_sizes.get(rank);
            row.push(size.map_or_else(|| "—".into(), |s| s.to_string()));
        }
        t.row(row);
    }
    let mut report = Report::default();
    report.table("fig1.csv", t);
    Ok(report)
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
        per_index.push((h.meta.label.clone(), lab.curve(h, &dq)?, lab.curve(h, &sq)?));
    }
    Ok(Exp1Curves {
        per_index,
        k: lab.scale.k,
    })
}

/// **Table 2**: average virtual time to run queries to completion, per
/// index and workload.
fn table2_of(curves: &Exp1Curves) -> Table {
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
    t
}

/// Regenerates **Table 2** alone (running or loading the exp1 curves).
pub(crate) fn table2(lab: &Lab) -> EvalResult<Report> {
    let mut report = Report::default();
    report.table("table2.csv", table2_of(&exp1_curves(lab)?));
    Ok(report)
}

/// Runs the whole of Experiment 1: **Figures 2–3** (chunks read vs
/// neighbours found), **Figures 4–5** (virtual elapsed time vs neighbours
/// found) — each over DQ, then SQ — and **Table 2**.
pub(crate) fn exp1(lab: &Lab) -> EvalResult<Report> {
    let curves = exp1_curves(lab)?;
    let chunks: fn(&QualityCurve, usize) -> f64 = QualityCurve::chunks_for;
    let mut report = Report::default();
    for (no, what, value, digits) in [
        (2, "Chunks read", chunks, 1),
        (4, "Elapsed virtual time (s)", QualityCurve::time_for, 3),
    ] {
        for (no, workload, over_sq) in [(no, "DQ", false), (no + 1, "SQ", true)] {
            let mut t = table_with(
                &format!("Figure {no}. {what} to find nearest neighbors ({workload})"),
                "Neighbors",
                curves.per_index.iter().map(|(label, ..)| label.clone()),
            );
            for m in 1..=curves.k {
                let mut row = vec![m.to_string()];
                for (_, dq, sq) in &curves.per_index {
                    row.push(fmt_f(value(if over_sq { sq } else { dq }, m), digits));
                }
                t.row(row);
            }
            report.table(&format!("fig{no}.csv"), t).line("");
        }
    }
    report.table("table2.csv", table2_of(&curves)).line("");
    Ok(report)
}

// ---------------------------------------------------------------------------
// Experiment 2: Figures 6–7
// ---------------------------------------------------------------------------

/// Regenerates **Figures 6 and 7**: time to find 1/10/20/25/28/30
/// neighbours as a function of the (SR-tree) chunk size, over 16 chunk
/// indexes on the outlier-free collection.
pub(crate) fn exp2(lab: &Lab) -> EvalResult<Report> {
    let six = lab.six_indexes()?;
    let subset = lab.small_retained_subset(&six)?;
    let marks = sweep_neighbor_marks(lab.scale.k);
    let dq = lab.dq()?;
    let sq = lab.sq()?;

    let mut report = Report::default();
    for (fig_no, workload) in [(6, &dq), (7, &sq)] {
        let found = marks.iter().map(|m| format!("{m} nbr"));
        let mut t = table_with(
            &format!(
                "Figure {fig_no}. Virtual time (s) to find neighbors vs chunk size ({})",
                workload.name
            ),
            "Chunk size",
            found.chain(std::iter::once("completion".to_string())),
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
        report.table(&format!("fig{fig_no}.csv"), t).line("");
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Experiment 3: the stop-rule sweep (one scan per query)
// ---------------------------------------------------------------------------

/// The ladder of stop rules experiment 3 sweeps: chunk budgets, virtual
/// time budgets, relaxed-completion factors and exact completion — the
/// quality/time trade-off knobs of §4.3, all answered from a single scan
/// per query.
pub(crate) fn exp3_rules() -> Vec<StopRule> {
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
/// ([`SearchSession::evaluate_rules`]) — each row is still bit-identical to
/// an individual run with that rule, but the collection is read once.
pub(crate) fn exp3(lab: &Lab) -> EvalResult<Report> {
    let six = lab.six_indexes()?;
    let dq = lab.dq()?;
    let rules = exp3_rules();
    // The stop rule here is ignored: the ladder drives the scan.
    let params = search_params(lab.scale.k, StopRule::ToCompletion);

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
            let results =
                SearchSession::open(&h.store, &lab.model, query, &params).evaluate_rules(&rules)?;
            shared_reads += results.iter().map(|r| r.log.chunks_read).max().unwrap_or(0);
            for (ri, result) in results.iter().enumerate() {
                precision[ri] += precision_of(result, &truth, qi);
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
    let mut report = Report::default();
    report.table("exp3.csv", t).line("").line(&format!(
        "One scan per query answered all {} rules: {shared_reads} chunk reads \
         (individual runs would have read {per_rule_reads}).",
        rules.len(),
    ));
    report.values = vec![
        ("shared chunk reads", shared_reads as u64),
        ("per-rule chunk reads", per_rule_reads as u64),
    ];
    Ok(report)
}

// ---------------------------------------------------------------------------
// Experiment 4: the serving layer (policies × concurrency)
// ---------------------------------------------------------------------------

/// The concurrency levels (active-session slots) experiment 4 sweeps.
const EXP4_CONCURRENCY: [usize; 3] = [2, 8, 32];

/// Regenerates **Experiment 4**: the multi-query serving sweep. A Poisson
/// arrival trace of the DQ workload is offered at four times the serial
/// service rate to the interleaved [`Scheduler`], for every policy at every
/// concurrency level. Each run reports fleet throughput, latency
/// percentiles, answer quality and chunk traffic — and every per-query
/// result is bit-compared against the serial one-query-at-a-time
/// reference, which scheduling must never change.
pub(crate) fn exp4(lab: &Lab) -> EvalResult<Report> {
    let handle = &lab.serving_index()?;
    let dq = dq_of(lab, "exp4")?;
    let truth = lab.truth(handle, &dq)?;
    let params = search_params(lab.scale.k, SERVING_STOP);
    let snap = Snapshot::new(handle.store.clone(), lab.model);

    eprintln!("[exp4] serial reference over {} queries …", dq.len());
    let offered = offer(&snap, &dq.queries, &params, 4.0, lab.scale.seed ^ 0xA4)?;
    let mut serial_precision = 0.0f64;
    for (qi, r) in offered.serial.iter().enumerate() {
        serial_precision += precision_of(r, &truth, qi);
    }
    serial_precision /= dq.len() as f64;

    let mut t = Table::new(
        &format!(
            "Experiment 4. Serving under load (DQ, Poisson at {:.1} q/s, \
             {} — 4× serial capacity)",
            offered.rate_qps, handle.meta.label
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
    let mut sharing = Vec::new();
    let mut all_identical = true;

    for active in EXP4_CONCURRENCY {
        // Chunk fetches of the two policies the sharing summary compares.
        let (mut fair, mut mwc) = (0u64, 0u64);
        for policy in Policy::ALL {
            eprintln!("[exp4] {} × {active} active …", policy.name());
            let mut config = SchedulerConfig::new(policy, active);
            config.max_queued = dq.len(); // admit everything: compare full runs
            let report =
                Scheduler::new(snap.clone(), config).serve_trace(&offered.trace, &params)?;

            let identical = reproduces(&report, &offered.serial);
            all_identical = all_identical && identical;
            let mut precision = 0.0f64;
            let mut quality_points = Vec::with_capacity(report.completions.len());
            for c in &report.completions {
                let p = precision_of(&c.result, &truth, c.id as usize);
                precision += p;
                quality_points.push((c.finish.as_secs(), p));
            }
            precision /= report.completions.len().max(1) as f64;
            for point in fleet_quality_curve(&quality_points) {
                quality.row(vec![
                    policy.name().to_string(),
                    active.to_string(),
                    fmt_f(point.at_secs, 4),
                    point.completed.to_string(),
                    fmt_f(point.mean_precision, 4),
                ]);
            }

            let lat = latency_summary(report.completions.iter().map(|c| c.latency()));
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
                yes_no(identical).to_string(),
            ]);
            match policy {
                Policy::FairShare => fair = report.stats.fetches,
                Policy::MostWantedChunk => mwc = report.stats.fetches,
                Policy::EarliestDeadline => {}
            }
        }
        let saved = 100.0 * fair.saturating_sub(mwc) as f64 / fair.max(1) as f64;
        sharing.push(format!(
            "At {active} concurrent sessions: most-wanted-chunk fetched {mwc} chunks \
             vs fair-share {fair} ({saved:.0}% fewer)."
        ));
    }

    let mut out = Report::default();
    out.table("exp4.csv", t).line("");
    out.csv_only("exp4_quality.csv", quality);
    out.line(&format!("Serial mean precision: {serial_precision:.3}."));
    for line in &sharing {
        out.line(line);
    }
    out.gate(
        "All per-query results bit-identical to serial under every policy",
        all_identical,
    );
    Ok(out)
}

// ---------------------------------------------------------------------------
// Experiment 5: search under chunk loss (the chaos sweep)
// ---------------------------------------------------------------------------

/// The fault rates experiment 5 sweeps (permanent loss at the rate,
/// transient faults at half of it).
const EXP5_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

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
        let file: Arc<dyn ChunkSource> = Arc::new(FileSource::new(&handle.store));
        let source = match plan {
            None => file,
            Some(plan) => Arc::new(RetrySource::new(
                Arc::new(FaultSource::new(file, plan)),
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
/// upward, once per retry policy — give up on the first failure vs
/// [`clearing_retry`]. Every faulted search must complete with
/// an honest [`Degradation`](eff2_core::search::Degradation) report; the
/// rate-0 stack must be bit-identical to the undecorated search; and
/// because the injected loss sets are nested across rates, precision must
/// be monotonically non-increasing in the fault rate.
pub(crate) fn exp5(lab: &Lab) -> EvalResult<Report> {
    let handles = [lab.serving_index()?, lab.chaos_index()?];
    let dq = dq_of(lab, "exp5")?;
    let policies = [("none", RetryPolicy::none()), ("retry", clearing_retry())];

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
        let params = search_params(lab.scale.k, StopRule::Chunks(budget));
        let truth = lab.truth(handle, &dq)?;
        eprintln!(
            "[exp5] {} baseline ({} chunks, budget {budget}) …",
            handle.meta.label, n_chunks
        );
        let baseline = exp5_run(lab, handle, &dq.queries, &params, None, RetryPolicy::none())?;

        for (policy_name, policy) in &policies {
            let mut prev_precision = f64::INFINITY;
            for rate in EXP5_RATES {
                eprintln!("[exp5] {} {policy_name} rate {rate} …", handle.meta.label);
                let plan = exp5_plan(lab, rate);
                let results = exp5_run(lab, handle, &dq.queries, &params, Some(plan), *policy)?;

                if rate == 0.0 {
                    for (b, r) in baseline.iter().zip(results.iter()) {
                        bit_identical = bit_identical && b.first_difference(r).is_none();
                    }
                }
                let mut precision = 0.0f64;
                let mut lost_chunks = 0usize;
                let mut lost_descriptors = 0u64;
                let mut secs = 0.0f64;
                let mut degraded = 0usize;
                for (qi, r) in results.iter().enumerate() {
                    precision += precision_of(r, &truth, qi);
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

    let mut report = Report::default();
    report.table("exp5.csv", t).line("");
    report.gate(
        "Rate-0 chaos stack bit-identical to the undecorated search",
        bit_identical,
    );
    report.gate(
        "All faulted searches completed with degradation reports",
        all_reported,
    );
    report.gate(
        "Precision monotonically non-increasing in fault rate",
        monotone,
    );
    Ok(report)
}

// ---------------------------------------------------------------------------
// Experiment 6 — quantized descriptors, ADC scans, two-level ranking
// ---------------------------------------------------------------------------

/// The rerank depths experiment 6 sweeps: the ADC scan keeps an `R·k`
/// candidate pool and the exact tail rescores it down to `k`.
const EXP6_RERANK_MULTS: [usize; 4] = [1, 2, 4, 8];

/// The codecs experiment 6 compares (the names
/// [`Lab::quantized_index`](crate::lab::Lab::quantized_index) accepts).
const EXP6_CODECS: [&str; 2] = ["sq8", "pq"];

/// Neighbour lists of every query bitwise equal: same ids, same distance
/// bits.
fn neighbors_bit_identical(a: &[SearchResult], b: &[SearchResult]) -> bool {
    fn bits(r: &SearchResult) -> impl Iterator<Item = (u32, u32)> + '_ {
        r.neighbors.iter().map(|n| (n.id, n.dist.to_bits()))
    }
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| bits(a).eq(bits(b)))
}

/// Per-query averages of one exp6 grid cell.
#[derive(Default)]
struct Exp6Cell {
    precision: f64,
    bytes: f64,
    rerank_bytes: f64,
    secs: f64,
    evals: f64,
}

fn exp6_cell(results: &[SearchResult], truth: &GroundTruth) -> Exp6Cell {
    let nq = results.len().max(1) as f64;
    let mut c = Exp6Cell::default();
    for (qi, r) in results.iter().enumerate() {
        c.precision += precision_of(r, truth, qi);
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

/// Every chunk of the raw-only `base` store read back through the
/// quantized `quant` store's raw view: ids equal and packed floats bitwise
/// equal. The two stores hold the same SR-tree formation, so this is the
/// format check — the raw region of a file with a quant region must be
/// byte-compatible with raw readers.
fn exp6_raw_regions_agree(base: &IndexHandle, quant: &IndexHandle) -> EvalResult<bool> {
    let raw3 = quant.store.raw_view();
    if base.store.n_chunks() != raw3.n_chunks() {
        return Ok(false);
    }
    let mut r2 = base.store.reader()?;
    let mut r3 = raw3.reader()?;
    let mut p2 = eff2_storage::chunkfile::ChunkPayload::default();
    let mut p3 = eff2_storage::chunkfile::ChunkPayload::default();
    for i in 0..base.store.n_chunks() {
        r2.read_chunk(i, &mut p2)?;
        r3.read_chunk(i, &mut p3)?;
        let bits3 = p3.packed.iter().map(|f| f.to_bits());
        if p2.ids != p3.ids || !p2.packed.iter().map(|f| f.to_bits()).eq(bits3) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Regenerates **Experiment 6**: the quantized-descriptor sweep. On the
/// serving index (and its quantized twins) the DQ workload runs
/// uncompressed baselines — flat and two-level ranking, at a full budget,
/// a partial budget and to completion — then sweeps codec (SQ8, PQ) ×
/// ranking level × rerank depth `R` under the partial budget, where the
/// ADC scan keeps `R·k` candidates and an exact rerank tail re-reads only
/// their chunks raw. Invariants checked: the rerank tail at a full budget
/// and full-depth pool is bit-identical to the uncompressed search;
/// precision is monotonically non-decreasing in `R` (nested pools);
/// two-level ranking leaves to-completion answers bit-identical while
/// spending fewer centroid evaluations; and the quantized twin's raw
/// region read back equals the raw-only store byte for byte.
pub(crate) fn exp6(lab: &Lab) -> EvalResult<Report> {
    let base = lab.serving_index()?;
    let dq = dq_of(lab, "exp6")?;
    let truth = lab.truth(&base, &dq)?;
    let k = lab.scale.k;
    let n_chunks = base.store.n_chunks();
    let budget = (n_chunks * 3 / 5).max(1);
    let retained = base.store.total_descriptors() as usize;
    // A pool multiplier that makes the rerank tail rescore everything the
    // scan saw: R·k ≥ n, the exact-recovery regime.
    let full_mult = retained.div_ceil(k.max(1)).max(1);

    let full = search_params(k, StopRule::Chunks(n_chunks));
    let partial = search_params(k, StopRule::Chunks(budget));
    let complete = search_params(k, StopRule::ToCompletion);

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
        let one = |q| {
            if two_level {
                search_two_level(&base.store, &lab.model, q, params, &coarse_raw)
            } else {
                search(&base.store, &lab.model, q, params)
            }
        };
        dq.queries.iter().map(|q| Ok(one(q)?)).collect()
    };
    let raw_full = run_raw(&full, false)?;
    let raw_part = run_raw(&partial, false)?;
    let raw_done = run_raw(&complete, false)?;
    let two_done = run_raw(&complete, true)?;
    let two_part = run_raw(&partial, true)?;

    let two_level_exact = neighbors_bit_identical(&raw_done, &two_done);
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
    let run_quant = |qh: &IndexHandle,
                     params: &SearchParams,
                     r_mult: usize,
                     coarse: Option<&CoarseQuantizer>|
     -> EvalResult<Vec<SearchResult>> {
        let one = |q| {
            SearchSession::open_quantized(&qh.store, &lab.model, q, params, r_mult, coarse)?.run()
        };
        dq.queries.iter().map(|q| Ok(one(q)?)).collect()
    };
    let mut quants = Vec::new();
    for name in EXP6_CODECS {
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
            for r_mult in EXP6_RERANK_MULTS {
                eprintln!("[exp6] {} {ranking} R={r_mult} …", qh.meta.label);
                let results = run_quant(qh, &partial, r_mult, two_level.then_some(&coarse_q))?;
                let cell = exp6_cell(&results, &truth);
                monotone = monotone && cell.precision >= prev;
                prev = cell.precision;
                if cell.precision >= raw_part_cell.precision - 0.01
                    && cell.bytes < raw_part_cell.bytes
                    && best.as_ref().is_none_or(|b| cell.bytes < b.3)
                {
                    let codec = format!("{name}/{ranking}");
                    best = Some((codec, r_mult, cell.precision, cell.bytes));
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
        let results = run_quant(qh, &full, full_mult, None)?;
        tail_exact = tail_exact && neighbors_bit_identical(&raw_full, &results);
        let cell = exp6_cell(&results, &truth);
        push_row(name, "flat", &full_mult.to_string(), "full", &cell);
    }
    let compat = exp6_raw_regions_agree(&base, &quants[0].1)?;

    let mut report = Report::default();
    report.table("exp6.csv", t).line("");
    report.gate(
        "Rerank tail bit-identical to the uncompressed baseline at full budget",
        tail_exact,
    );
    report.gate(
        "Precision monotonically non-decreasing in rerank depth",
        monotone,
    );
    report.gate_with(
        "Neighbor ids unchanged under two-level ranking",
        two_level_exact,
        &format!(
            " ({} vs {} centroid evals per query to completion, {}x fewer)",
            fmt_f(raw_done_cell.evals, 1),
            fmt_f(two_done_cell.evals, 1),
            fmt_f(evals_factor, 1),
        ),
    );
    report.gate("raw-only and quantized chunk files read-compatible", compat);
    // An observation, not a gate: whether any cell qualifies depends on the
    // scale (none does at the 2,500-descriptor smoke).
    let best_figures = best.as_ref().map_or(String::new(), |(codec, r, p, b)| {
        format!(
            " ({codec}, R = {r}: precision {} vs {}, bytes {} vs {})",
            fmt_f(*p, 3),
            fmt_f(raw_part_cell.precision, 3),
            fmt_f(*b, 0),
            fmt_f(raw_part_cell.bytes, 0),
        )
    });
    report.line(&format!(
        "Quantized scan within 0.01 of the raw same-budget baseline with fewer bytes: \
         {}{best_figures}.",
        yes_no(best.is_some()),
    ));
    Ok(report)
}

// ---------------------------------------------------------------------------
// Experiment 7 — the sharded fleet: N delivering shards, placement, failover
// ---------------------------------------------------------------------------

/// The shard counts experiment 7 sweeps.
const EXP7_SHARDS: [usize; 3] = [1, 4, 16];

/// The replication factors experiment 7 sweeps.
const EXP7_REPLICATION: [usize; 3] = [1, 2, 3];

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
pub(crate) fn exp7(lab: &Lab) -> EvalResult<Report> {
    let handle = &lab.serving_index()?;
    let dq = dq_of(lab, "exp7")?;
    let params = search_params(lab.scale.k, SERVING_STOP);
    let snap = Snapshot::new(handle.store.clone(), lab.model);

    // Zipf-skew the query stream: a few hot queries dominate, so shards
    // holding their chunks genuinely contend and placement matters.
    let picks = zipf_assignments(dq.len(), dq.len(), 0.8, lab.scale.seed ^ 0xA7);
    let queries: Vec<Vector> = picks.iter().map(|&p| dq.queries[p as usize]).collect();

    // 16× the serial service rate: far past single-device saturation — the
    // regime where a fleet is the only way to keep latency bounded.
    eprintln!("[exp7] serial reference over {} queries …", queries.len());
    let offered = offer(&snap, &queries, &params, 16.0, lab.scale.seed ^ 0xA7)?;
    let trace = &offered.trace;

    let mut t = Table::new(
        &format!(
            "Experiment 7. Sharded fleet serving (DQ Zipf-skewed, Poisson at {:.1} q/s, \
             {} — 16× serial capacity)",
            offered.rate_qps, handle.meta.label
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
    // Does centroid-locality placement actually keep chunk traffic on the
    // query's home shard? Compared with chunk-hash cell by cell.
    let mut locality_wins = false;

    for n_shards in EXP7_SHARDS {
        for replication in EXP7_REPLICATION {
            let (mut hash_cross, mut locality_cross) = (0u64, 0u64);
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
                    FleetScheduler::new(snap.clone(), config).serve_trace(trace, &params)?;
                let report = &fleet.report;

                let identical = reproduces(report, &offered.serial);
                all_identical = all_identical && identical;
                imbalance_populated = imbalance_populated
                    && fleet.imbalance_factor.is_finite()
                    && fleet.imbalance_factor >= 1.0;
                match placement {
                    Placement::ChunkHash => hash_cross = fleet.cross_shard_fetches,
                    Placement::CentroidLocality => locality_cross = fleet.cross_shard_fetches,
                }

                let lat = latency_summary(report.completions.iter().map(|c| c.latency()));
                let shard_reads = report.stats.disk_reads_by_shard.iter();
                t.row(vec![
                    n_shards.to_string(),
                    replication.to_string(),
                    placement.name().to_string(),
                    fmt_f(report.throughput_qps(), 1),
                    fmt_f(lat.p50_secs, 3),
                    fmt_f(lat.p99_secs, 3),
                    report.stats.disk_reads.to_string(),
                    shard_reads.copied().max().unwrap_or(0).to_string(),
                    fleet.cross_shard_fetches.to_string(),
                    fmt_f(fleet.imbalance_factor, 2),
                    yes_no(identical).to_string(),
                ]);
            }
            locality_wins = locality_wins || (n_shards > 1 && locality_cross < hash_cross);
        }
    }

    // The failover scenario: a fault plan permanently loses a chunk or
    // two. Without replication every full scan that wants a lost chunk
    // degrades — exactly today's behaviour. With R ≥ 2 the read fails over
    // to a replica and the answer stays exact.
    let full_scan = search_params(lab.scale.k, StopRule::Chunks(usize::MAX));
    let failover_trace = &trace[..trace.len().min(8)];
    let plan = exp7_lossy_plan(lab.scale.seed ^ 0xA7, handle.store.n_chunks());
    let mut f = Table::new(
        "Experiment 7 failover: permanent chunk loss under replication (full scans)",
        &["Repl", "Degraded", "Exact", "Failovers", "Chunks abandoned"],
    );
    let mut r1_degraded = 0usize;
    let mut higher_r_all_exact = true;
    let mut higher_r_failed_over = true;
    for replication in EXP7_REPLICATION {
        let mut config = FleetConfig::new(Policy::MostWantedChunk, 4, 4);
        config.replication = replication;
        config.max_queued = failover_trace.len();
        config.fault_plan = Some(plan);
        config.retry = clearing_retry();
        let fleet =
            FleetScheduler::new(snap.clone(), config).serve_trace(failover_trace, &full_scan)?;
        let completions = &fleet.report.completions;
        let degraded = (completions.iter())
            .filter(|c| c.result.log.degradation.is_degraded())
            .count();
        if replication == 1 {
            r1_degraded = degraded;
        } else {
            higher_r_all_exact = higher_r_all_exact && degraded == 0;
            higher_r_failed_over = higher_r_failed_over && fleet.failovers > 0;
        }
        f.row(vec![
            replication.to_string(),
            degraded.to_string(),
            (completions.len() - degraded).to_string(),
            fleet.failovers.to_string(),
            fleet.report.stats.chunks_abandoned.to_string(),
        ]);
    }
    let failover_masks = r1_degraded > 0 && higher_r_all_exact && higher_r_failed_over;

    let mut out = Report::default();
    out.table("exp7.csv", t).line("");
    out.table("exp7_failover.csv", f).line("");
    out.gate(
        "All merged fleet answers bit-identical to solo under every cell",
        all_identical,
    );
    out.gate(
        "Imbalance factor populated for both placements in every cell",
        imbalance_populated,
    );
    // An observation, not a gate: locality is a property of the workload's
    // skew, not an invariant of the fleet.
    out.line(&format!(
        "Centroid-locality fetched fewer cross-shard chunks than chunk-hash in at least \
         one cell: {}.",
        yes_no(locality_wins),
    ));
    out.gate_with(
        "Replication masked permanent chunk loss as failover",
        failover_masks,
        &format!(
            " (R=1 degraded {r1_degraded} of {} full scans; R>=2 all exact with failovers)",
            failover_trace.len(),
        ),
    );
    Ok(out)
}

// ---------------------------------------------------------------------------
// Experiment 8: live mutability — serving under skewed ingest
// ---------------------------------------------------------------------------

/// The ingest-rate multipliers experiment 8 sweeps: mutation arrivals at
/// this multiple of the query arrival rate.
const EXP8_INGEST_MULTIPLIERS: [f64; 2] = [0.5, 4.0];

/// Experiment 8's target chunk size. Fixed rather than scale-derived:
/// rebalancing operates at chunk granularity, so the sweep needs enough
/// chunks that a skewed ingest stream can actually concentrate load — at
/// the scale-derived MEDIUM leaf a tiny lab has ~10 chunks and the whole
/// mutation stream fits inside one average chunk's worth of delta.
const EXP8_TARGET_CHUNK: usize = 32;

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
pub(crate) fn exp8(lab: &Lab) -> EvalResult<Report> {
    let dq = dq_of(lab, "exp8")?;
    let params = search_params(lab.scale.k, SERVING_STOP);
    let leaf = EXP8_TARGET_CHUNK;
    let n_ops = (lab.set.len() / 10).clamp(120, 1_500);
    let trigger = (n_ops / 3).max(8);
    let policies = [CompactionPolicy::Never, CompactionPolicy::EveryOps(trigger)];
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
    // Per (chunker × rate) pair: compaction ran in the compacting cell,
    // which ended better balanced than the never-compacting one.
    let mut compaction_helps = true;

    for (cname, former) in &chunkers {
        let formation = former.form(&lab.set);
        // A pristine generation-0 index of this chunker in a fresh `cell`
        // directory.
        let fresh_index = |cell: String| -> EvalResult<MutableIndex> {
            let dir = cells_dir.join(cell);
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir)?;
            Ok(MutableIndex::create(
                &dir,
                "live",
                &lab.set,
                &formation.chunks,
                PAGE_SIZE,
                None,
                lab.model,
                leaf,
            )?)
        };

        // Serial reference over the pristine index: sets the query arrival
        // rate (2× serial capacity) the whole chunker row shares.
        let reference = fresh_index(format!("{cname}-ref"))?;
        let seed = lab.scale.seed ^ 0xA8;
        let offered = offer(&reference.pin(), &dq.queries, &params, 2.0, seed)?;

        for mult in EXP8_INGEST_MULTIPLIERS {
            let mtrace = skewed_mutation_trace(
                &lab.set,
                n_ops,
                0.9,
                mult * offered.rate_qps,
                1.1,
                lab.scale.seed ^ 0xE8,
            );
            let as_event = |op: &MutationOp| match op {
                MutationOp::Insert { id, vector } => LiveEvent::Insert {
                    id: *id,
                    vector: *vector,
                },
                MutationOp::Delete { id } => LiveEvent::Delete { id: *id },
            };
            let mutations: Vec<(VirtualDuration, LiveEvent)> = (mtrace.events.iter())
                .map(|e| (VirtualDuration::from_secs(e.at_secs), as_event(&e.op)))
                .collect();
            let trace = merge_timelines(&offered.trace, &mutations);

            let mut never_imbalance = f64::NAN;
            for policy in &policies {
                eprintln!("[exp8] {cname} × {mult}× ingest × {} …", policy.name());
                let index = fresh_index(format!("{cname}-x{mult}-{}", policy.name()))?;
                let server = LiveServer::new(index, params, *policy);
                let (report, final_index) = server.serve_trace(&trace)?;

                // Every completion must be bit-identical to a solo run on
                // the epoch snapshot it pinned at admission.
                let mut identical = report.completions.len() == dq.len();
                for c in &report.completions {
                    let solo = c.snapshot.search(&c.query, &params)?;
                    identical = identical && solo.first_difference(&c.result).is_none();
                }
                all_identical = all_identical && identical;
                if report.stats.compactions > 0 {
                    bound_ok = bound_ok && report.stats.max_installed_chunk <= 2 * leaf;
                }

                // The effective per-bucket scan loads: every chunk of the
                // final generation, plus — when delta inserts are still
                // unfolded — one bucket for the delta chunk, which *every*
                // query scans in full. Under `Never` the skewed inserts
                // pile up there: the hot spot online compaction folds away.
                let pending = final_index.pin().delta().inserts.len();
                let mut loads = report.final_chunk_loads.clone();
                loads.extend((pending > 0).then_some(pending));
                let imbalance = imbalance_factor(&loads);
                match policy {
                    CompactionPolicy::Never => never_imbalance = imbalance,
                    _ => {
                        compaction_helps = compaction_helps
                            && report.stats.compactions > 0
                            && imbalance < never_imbalance;
                    }
                }

                let lat = latency_summary(report.completions.iter().map(|c| c.latency()));
                let max_chunk = report.final_chunk_loads.iter().max();
                t.row(vec![
                    (*cname).to_string(),
                    fmt_f(mult, 1),
                    policy.name(),
                    report.stats.queries.to_string(),
                    report.stats.mutations.to_string(),
                    report.stats.compactions.to_string(),
                    final_index.generation().to_string(),
                    final_index.epoch().to_string(),
                    max_chunk.copied().unwrap_or(0).to_string(),
                    pending.to_string(),
                    fmt_f(imbalance, 3),
                    fmt_f(lat.p50_secs, 3),
                    fmt_f(lat.p99_secs, 3),
                    fmt_f(report.stats.compaction_cost_secs, 3),
                    yes_no(identical).to_string(),
                ]);
            }
        }
    }

    let mut out = Report::default();
    out.table("exp8.csv", t).line("");
    out.gate(
        "Every served result bit-identical to a solo run on its pinned epoch snapshot",
        all_identical,
    );
    out.gate(
        "Compactor kept every installed chunk within 2x the target size",
        bound_ok,
    );
    out.gate(
        "Online compaction ran in every compacting cell and reduced the final imbalance \
         factor vs never-compacting under skewed ingest",
        compaction_helps,
    );
    Ok(out)
}

// ---------------------------------------------------------------------------
// Experiment 9 — image-level queries: vote aggregation + early termination
// ---------------------------------------------------------------------------

/// Experiment 9's stability windows for the `StableTop` stop rule.
const EXP9_STABILITY_WINDOWS: [usize; 3] = [1, 2, 3];

/// Experiment 9's image-concurrency levels.
const EXP9_CONCURRENCY: [usize; 2] = [1, 4];

/// Descriptors per image query. Large enough that an early-terminating
/// stop rule has real room to save work (the gate wants ≤ 0.5× the
/// sessions of a full run).
const EXP9_PER_QUERY: usize = 24;

/// An image ranking as comparable bits: images, votes, best-distance bits.
fn ranking_bits(outcome: &ImageOutcome) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
    let votes = outcome.ranking.iter();
    votes.map(|v| (v.image, v.votes, v.best_dist.to_bits()))
}

/// Regenerates **Experiment 9**: the image-query quality-vs-time sweep.
/// The collection's descriptors are partitioned into images by a
/// Zipf-skewed map; each query is a set of [`EXP9_PER_QUERY`] descriptors
/// drawn from one source image and served through the
/// [`ImageScheduler`] — one search session per descriptor, most-wanted-
/// chunk fan-out shared across siblings — under every image stop rule ×
/// stability window × concurrency cell. Ground truth is the exact
/// (run-to-completion, every-descriptor) image ranking; the sweep
/// reproduces the paper's "a fraction of the query points suffices"
/// claim at image granularity: an early-terminating cell must reach
/// ≥ 0.95 of the full run's precision@10 while completing ≤ 0.5× the
/// descriptor sessions.
pub(crate) fn exp9(lab: &Lab) -> EvalResult<Report> {
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
        EXP9_PER_QUERY,
        lab.scale.seed ^ 0x1A9,
    );

    // Ground truth: exact per-descriptor searches, every descriptor spent.
    eprintln!("[exp9] exact image truth over {n_queries} queries × {EXP9_PER_QUERY} descriptors …");
    let exact = SearchParams::exact(k);
    let mut truths: Vec<Vec<u32>> = Vec::with_capacity(queries.len());
    for q in &queries {
        let (outcome, _) = solo_image_search(&snap, q.image, &q.descriptors, &exact, &image_of)?;
        truths.push(outcome.top_images(m));
    }

    // The serving sweep runs each descriptor under the approximate stop
    // the quality-vs-time experiments use.
    let params = search_params(k, SERVING_STOP);
    // Solo reference under the same per-descriptor params: the answer the
    // run-to-completion cells must reproduce bit for bit.
    let mut solo = Vec::with_capacity(queries.len());
    for q in &queries {
        solo.push(solo_image_search(&snap, q.image, &q.descriptors, &params, &image_of)?.0);
    }

    // The stop rules watch a *head* prefix (top-3): the tail of a vote
    // ranking churns until almost every descriptor is spent, but the head
    // settles after a fraction of them — exactly the paper's trade-off.
    // Quality is still measured over the full top-10. `RunAll` leads, so
    // each concurrency level measures its full-run reference first.
    let stop_m = 3usize;
    let mut stops = vec![ImageStopRule::RunAll];
    for window in EXP9_STABILITY_WINDOWS {
        stops.push(ImageStopRule::StableTop { m: stop_m, window });
    }
    stops.push(ImageStopRule::CertifiedTop { m: stop_m });

    let trace: Vec<(ImageQuerySpec, VirtualDuration)> = (queries.iter().enumerate())
        .map(|(i, q)| {
            let spec = ImageQuerySpec {
                label: q.image,
                descriptors: q.descriptors.clone(),
            };
            (spec, VirtualDuration::from_ms(i as f64))
        })
        .collect();

    let mut t = Table::new(
        &format!(
            "Experiment 9. Image-level queries ({n_queries} queries × {EXP9_PER_QUERY} \
             descriptors, {n_images} images, k = {k}, precision@{m} vs the exact image ranking)",
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
    // The quality-vs-time gate: some early-terminating cell must hold
    // ≥ 95 % of its concurrency level's full-run precision while completing
    // at most half the descriptor sessions. The hit with the fewest
    // sessions: (stop label, active, relative precision, session ratio).
    let mut gate_hit: Option<(String, usize, f64, f64)> = None;

    for active in EXP9_CONCURRENCY {
        // This level's full run: (descriptor sessions spent, precision).
        let mut full = (0u64, 0.0f64);
        for &stop in &stops {
            eprintln!("[exp9] {} × {active} active …", stop.label());
            let mut config = ImageConfig::new(Policy::MostWantedChunk, active, stop);
            config.scheduler.max_queued = queries.len();
            let report = ImageScheduler::new(snap.clone(), config, Arc::clone(&image_of))
                .serve_trace(&trace, &params)?;

            let outcomes: Vec<&ImageOutcome> =
                report.completions.iter().map(|c| &c.outcome).collect();
            let mut precision = 0.0f64;
            let mut certified = 0usize;
            for c in &report.completions {
                let o = &c.outcome;
                accounting_exact = accounting_exact
                    && o.descriptors_spent + o.descriptors_abandoned == o.descriptors_total;
                let truth = &truths[c.id as usize];
                precision += image_precision_at(&o.top_images(m), truth, m);
                certified += usize::from(o.certificate);
                if matches!(stop, ImageStopRule::RunAll) {
                    let want = &solo[c.id as usize];
                    all_identical = all_identical && ranking_bits(want).eq(ranking_bits(o));
                }
            }
            let nq = report.completions.len().max(1);
            precision /= nq as f64;
            let cert_rate = certified as f64 / nq as f64;
            let spent = report.stats.descriptors_spent;
            let early = !matches!(stop, ImageStopRule::RunAll);
            if !early {
                full = (spent, precision);
            }
            let rel = if full.1 > 0.0 {
                precision / full.1
            } else {
                1.0
            };
            let ratio = spent as f64 / full.0.max(1) as f64;
            let fewest = gate_hit.as_ref().is_none_or(|(.., best)| ratio < *best);
            if early && rel >= 0.95 && ratio <= 0.5 && fewest {
                gate_hit = Some((stop.label(), active, rel, ratio));
            }

            for point in descriptors_spent_curve(&outcomes, &truths, m) {
                spent_curve.row(vec![
                    stop.label(),
                    active.to_string(),
                    point.completions.to_string(),
                    fmt_f(point.avg_precision, 4),
                    point.queries_live.to_string(),
                ]);
            }

            let lat = latency_summary(report.completions.iter().map(|c| c.latency()));
            t.row(vec![
                stop.label(),
                active.to_string(),
                spent.to_string(),
                report.stats.descriptors_abandoned.to_string(),
                fmt_f(avg_spent_fraction(&outcomes), 3),
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

    let mut out = Report::default();
    out.table("exp9.csv", t).line("");
    out.csv_only("exp9_spent.csv", spent_curve);
    out.gate(
        "Run-to-completion cells bit-identical to the solo image reference",
        all_identical,
    );
    out.gate(
        "Descriptor accounting exact in every cell",
        accounting_exact,
    );
    if let Some((label, active, rel, ratio)) = &gate_hit {
        out.line(&format!(
            "Best early-stop cell: {label} at {active} active — {rel:.3} of full-run \
             precision@{m} using {ratio:.2}x the descriptor sessions."
        ));
    }
    let reached = format!(
        "An early-terminating cell reached >=0.95 of full-run precision@{m} at <=0.5x \
         the descriptor sessions"
    );
    out.gate(&reached, gate_hit.is_some());
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

    /// Runs `experiment` the way [`run`] does — CSV series saved under the
    /// lab's results directory — and hands back its report, which must
    /// have written exactly the `csvs` files and hold all of its `gates`
    /// gates.
    fn smoke(
        tag: &str,
        experiment: fn(&Lab) -> EvalResult<Report>,
        csvs: &[&str],
        gates: usize,
    ) -> Report {
        let lab = tiny_lab(tag);
        let report = experiment(&lab).expect("experiment");
        let dir = lab.results_dir().expect("results dir");
        report.save_csvs(&dir).expect("save csvs");
        let saved: Vec<&str> = report.tables.iter().map(|(csv, _)| csv.as_str()).collect();
        assert_eq!(saved, csvs);
        for csv in csvs {
            assert!(dir.join(csv).exists(), "missing {csv}");
        }
        assert_eq!(report.gates.len(), gates, "{}", report.text);
        assert_eq!(report.failed(), Vec::<&str>::new(), "{}", report.text);
        report
    }

    /// The integer in `report`'s table `csv`, row `key`, column `column`.
    fn count(report: &Report, csv: &str, key: &[&str], column: &str) -> u64 {
        let (_, table) = report
            .tables
            .iter()
            .find(|(name, _)| name == csv)
            .expect("table");
        let cell = table.cell(key, column).expect("cell");
        cell.parse().expect("an integer cell")
    }

    #[test]
    fn sweep_marks_respect_k() {
        assert_eq!(sweep_neighbor_marks(30), vec![1, 10, 20, 25, 28, 30]);
        assert_eq!(sweep_neighbor_marks(5), vec![1, 5]);
        assert_eq!(sweep_neighbor_marks(1), vec![1]);
    }

    #[test]
    fn registry_names_are_unique_and_all_in_the_usage_text() {
        let usage = usage();
        for (i, (name, summary, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|(earlier, ..)| earlier != name),
                "{name} is registered twice"
            );
            assert!(
                usage.contains(&format!("  {name:<8} {summary}\n")),
                "{name} is missing from the usage text"
            );
            let one = resolve(name).expect("a registered name resolves");
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].0, *name);
        }
        assert!(resolve("exp0").is_none() && resolve("").is_none());
    }

    #[test]
    fn all_runs_in_registry_order() {
        let all: Vec<&str> = resolve("all").expect("all").iter().map(|e| e.0).collect();
        let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(all, registry);
        assert!(all.ends_with(&["exp7", "exp8", "exp9"]));
    }

    #[test]
    fn a_failed_gate_turns_the_exit_status_to_one() {
        fn holds(_: &Lab) -> EvalResult<Report> {
            let mut report = Report::default();
            report.gate("Holds", true);
            Ok(report)
        }
        fn breaks(_: &Lab) -> EvalResult<Report> {
            let mut report = Report::default();
            report.gate("Breaks", false);
            Ok(report)
        }
        let lab = tiny_lab("status");
        let (holds, breaks): (Experiment, Experiment) =
            (("holds", "", holds), ("breaks", "", breaks));
        assert_eq!(run(&[holds], &lab).expect("run"), 0);
        // Every report is still printed; one NO anywhere fails the run.
        assert_eq!(run(&[holds, breaks, holds], &lab).expect("run"), 1);
    }

    #[test]
    fn table1_and_fig1_render() {
        let t1 = smoke(
            "t1",
            table1,
            &["table1.csv", "table1_formation_cost.csv"],
            0,
        )
        .text;
        assert!(t1.contains("SMALL") && t1.contains("LARGE"));
        assert!(t1.contains("BAG"));
        let f1 = smoke("t1", fig1, &["fig1.csv"], 0).text;
        assert!(f1.lines().count() > 30);
    }

    #[test]
    fn exp1_smoke() {
        let csvs = ["fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "table2.csv"];
        let report = smoke("e1", exp1, &csvs, 0).text;
        for fig in ["Figure 2", "Figure 3", "Figure 4", "Figure 5", "Table 2"] {
            assert!(report.contains(fig), "missing {fig}");
        }
    }

    #[test]
    fn exp3_smoke() {
        let report = smoke("e3", exp3, &["exp3.csv"], 0);
        assert!(report.text.contains("Experiment 3"));
        assert!(
            report.text.contains("completion"),
            "missing the exact rule row"
        );
        assert!(
            report
                .text
                .contains("One scan per query answered all 9 rules"),
            "missing the shared-scan summary"
        );
        // The single scan must be strictly cheaper than per-rule re-runs:
        // the ladder contains rules of different depths.
        let [(_, shared), (_, per_rule)] = report.values[..] else {
            panic!("exp3 records its two read counts: {:?}", report.values);
        };
        assert!(shared < per_rule, "shared scan should read fewer chunks");
    }

    #[test]
    fn exp4_smoke() {
        let report = smoke("e4", exp4, &["exp4.csv", "exp4_quality.csv"], 1);
        // At the highest concurrency level, co-scheduling sessions that
        // want the same chunk must read strictly fewer chunks than
        // round-robin.
        let top = EXP4_CONCURRENCY[2].to_string();
        let fetches =
            |policy: Policy| count(&report, "exp4.csv", &[policy.name(), &top], "Fetches");
        assert!(
            fetches(Policy::MostWantedChunk) < fetches(Policy::FairShare),
            "most-wanted-chunk should fetch strictly fewer chunks:\n{}",
            report.text
        );
    }

    #[test]
    fn exp5_smoke() {
        smoke("e5", exp5, &["exp5.csv"], 3);
    }

    #[test]
    fn exp6_smoke() {
        smoke("e6", exp6, &["exp6.csv"], 4);
    }

    #[test]
    fn exp7_smoke() {
        smoke("e7", exp7, &["exp7.csv", "exp7_failover.csv"], 3);
    }

    #[test]
    fn exp8_smoke() {
        smoke("e8", exp8, &["exp8.csv"], 3);
    }

    #[test]
    fn exp9_smoke() {
        let report = smoke("e9", exp9, &["exp9.csv", "exp9_spent.csv"], 3);
        // Descriptor sessions spent by the full run vs the tightest
        // early-stop rule at 4-way concurrency: early stopping must spend
        // strictly fewer sessions.
        let spent = |rule: &str| count(&report, "exp9.csv", &[rule, "4"], "Spent");
        assert!(spent("stable-top3-w1") < spent("run-all"));
    }
}
