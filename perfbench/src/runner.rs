//! The measurement method, the same on every commit: one client thread in
//! a closed loop; fixed-size passes; one untimed warm-up pass; rounds of
//! one pass per workload in a fixed order until the time budget is spent;
//! every wall-clock figure the median over rounds of the per-pass
//! statistic; one untimed verification pass for correctness and for the
//! metrics that live on the virtual clock; and, in a traced run, a traced
//! pass beside every untraced one.

use crate::fixtures::{Ctx, Measured, Res, Scale, TempDir};
use crate::proc::{peak_rss_mb, process_cpu_ns};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile_sorted, relative_iqr};
use crate::trace::Recorder;
use crate::workloads::{self, Facts, SpanStats, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops whose spans `trace.jsonl` keeps.
const TRACE_FILE_OPS: u32 = 256;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload names, run in this order within a round.
    pub workloads: Vec<String>,
    /// Seed of queries, traces and mutations.
    pub seed: u64,
    /// Measurement time per workload, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Collection sizes and op counts.
    pub scale: Scale,
}

/// Everything one workload's run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Ops attempted in the timed and verification passes.
    pub attempted: u64,
    /// Ops that failed, in either kind of pass.
    pub failed: u64,
    /// Untraced passes measured.
    pub rounds: usize,
    /// Ops per pass.
    pub ops_per_pass: usize,
    /// Every end-to-end metric.
    pub end_to_end: Measured,
    /// The wall-clock tail of an op: per-pass p95, median over rounds.
    /// Measured in every run, declared per-layer (it carries no bound).
    pub op_p95_us: f64,
    /// Inter-quartile range over rounds, as a share of the median, of the
    /// wall-clock end-to-end metrics and of `op_p95_us`.
    pub spread: Measured,
    /// Every per-layer metric (traced runs only; empty otherwise).
    pub per_layer: Measured,
}

impl Outcome {
    /// Whether every op succeeded and every answer checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Per-pass statistics of the untraced passes of one workload.
#[derive(Default)]
struct Timed {
    p50_us: Vec<f64>,
    tail_us: Vec<f64>,
    ops_per_s: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    wall_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Per-pass statistics of the traced passes of one workload.
#[derive(Default)]
struct Traced {
    self_us_per_op: BTreeMap<&'static str, Vec<f64>>,
    spans_per_op: BTreeMap<&'static str, Vec<f64>>,
    root_p50_us: Vec<f64>,
    wall_s: Vec<f64>,
    failed: u64,
}

struct Slot {
    name: String,
    workload: Box<dyn Workload>,
    setup_s: Vec<f64>,
    timed: Timed,
    traced: Traced,
}

/// Runs the benchmark and returns one outcome per workload, in order.
pub fn run(opts: &Options) -> Res<Vec<Outcome>> {
    let tmp = TempDir::for_run(opts.seed)?;
    let setups = if opts.trace || opts.scale.smoke {
        1
    } else {
        SETUPS
    };
    let mut slots = Vec::with_capacity(opts.workloads.len());
    for name in &opts.workloads {
        let ctx = Ctx {
            seed: opts.seed,
            scale: opts.scale,
            dir: tmp.path().join(name),
        };
        // Set up several times and report the median; the last build is
        // the one measured.
        let mut setup_s = Vec::with_capacity(setups);
        let mut built = None;
        for _ in 0..setups {
            drop(built.take());
            if ctx.dir.exists() {
                std::fs::remove_dir_all(&ctx.dir)?;
            }
            let start = Instant::now();
            built = Some(workloads::build(name, &ctx)?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
        slots.push(Slot {
            name: name.clone(),
            workload: built.ok_or("no set-up ran")?,
            setup_s,
            timed: Timed::default(),
            traced: Traced::default(),
        });
    }

    // Warm-up: OS page cache and lazy set-up filled, nothing recorded.
    for slot in &mut slots {
        untraced_pass(slot.workload.as_mut(), &mut Timed::default())?;
    }

    let mut rec = Recorder::new();
    let budget = opts.seconds * slots.len() as f64;
    let started = Instant::now();
    loop {
        for slot in &mut slots {
            untraced_pass(slot.workload.as_mut(), &mut slot.timed)?;
            if opts.trace {
                traced_pass(slot.workload.as_mut(), &mut rec, &mut slot.traced)?;
            }
        }
        if opts.scale.smoke || started.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    if opts.trace {
        // The last traced pass's spans, for reading by hand.
        rec.write_jsonl(&trace_path()?, TRACE_FILE_OPS)?;
    }

    slots.into_iter().map(|slot| finish(slot, opts)).collect()
}

/// Where the traced run leaves its spans.
fn trace_path() -> Res<PathBuf> {
    let dir = std::env::current_dir()?.join(".perfbench");
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join("trace.jsonl"))
}

fn untraced_pass(w: &mut dyn Workload, into: &mut Timed) -> Res<()> {
    let ops = w.ops();
    let mut latencies = Vec::with_capacity(ops);
    w.begin_pass()?;
    let cpu_start = process_cpu_ns();
    let start = Instant::now();
    for i in 0..ops {
        let op_start = Instant::now();
        let ok = w.op(i);
        latencies.push(op_start.elapsed().as_nanos() as f64 / 1e3);
        into.failed += u64::from(!ok);
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns() - cpu_start;
    w.end_pass()?;
    latencies.sort_by(f64::total_cmp);
    into.attempted += ops as u64;
    into.p50_us.push(percentile_sorted(&latencies, 50.0));
    into.tail_us
        .push(percentile_sorted(&latencies, tail_percentile(ops)));
    into.ops_per_s.push(ops as f64 / wall.max(1e-12));
    into.cpu_us_per_op
        .push(cpu_ns as f64 / 1e3 / ops.max(1) as f64);
    into.wall_s.push(wall);
    Ok(())
}

fn traced_pass(w: &mut dyn Workload, rec: &mut Recorder, into: &mut Traced) -> Res<()> {
    let ops = w.ops();
    rec.clear();
    w.begin_pass()?;
    let start = Instant::now();
    for i in 0..ops {
        into.failed += u64::from(!w.traced_op(i, rec));
    }
    into.wall_s.push(start.elapsed().as_secs_f64());
    w.end_pass()?;
    let totals = rec.totals();
    let per_op = |v: u64, scale: f64| v as f64 / scale / ops.max(1) as f64;
    for (name, ns) in &totals.self_ns {
        into.self_us_per_op
            .entry(name)
            .or_default()
            .push(per_op(*ns, 1e3));
    }
    for (name, n) in &totals.spans {
        into.spans_per_op
            .entry(name)
            .or_default()
            .push(per_op(*n, 1.0));
    }
    let mut roots: Vec<f64> = totals.root_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    roots.sort_by(f64::total_cmp);
    into.root_p50_us.push(percentile_sorted(&roots, 50.0));
    Ok(())
}

/// The tail percentile a pass of `ops` samples supports, capped at 95:
/// what `op_p95_us` is when a pass is too short for a p95.
pub fn tail_percentile(ops: usize) -> f64 {
    highest_supported_percentile(ops).min(95.0)
}

fn finish(mut slot: Slot, opts: &Options) -> Res<Outcome> {
    let facts: Facts = slot.workload.verify()?;
    let timed = &slot.timed;
    let mut modelled = facts.modelled_ms.clone();
    modelled.sort_by(f64::total_cmp);

    let mut end_to_end = Measured::new();
    let mut spread = Measured::new();
    for (name, samples) in [
        ("setup_s", &slot.setup_s),
        ("op_p50_us", &timed.p50_us),
        ("throughput_ops_s", &timed.ops_per_s),
        ("cpu_us_per_op", &timed.cpu_us_per_op),
    ] {
        end_to_end.insert(name, median(samples));
        spread.insert(name, relative_iqr(samples));
    }
    let op_p95_us = median(&timed.tail_us);
    spread.insert("op_p95_us", relative_iqr(&timed.tail_us));
    end_to_end.insert("modelled_p50", percentile_sorted(&modelled, 50.0));
    end_to_end.insert(
        "modelled_p95",
        percentile_sorted(&modelled, tail_percentile(modelled.len())),
    );
    end_to_end.insert("precision", facts.precision);
    end_to_end.insert("disk_bytes_per_user_byte", facts.disk_bytes_per_user_byte);
    debug_assert!(END_TO_END.iter().all(|m| end_to_end.contains_key(m.name)));

    let mut per_layer = Measured::new();
    if opts.trace {
        let traced = &slot.traced;
        let medians = |m: &BTreeMap<&'static str, Vec<f64>>| {
            m.iter()
                .map(|(k, v)| (*k, median(v)))
                .collect::<BTreeMap<_, _>>()
        };
        let spans = SpanStats {
            self_us_per_op: medians(&traced.self_us_per_op),
            spans_per_op: medians(&traced.spans_per_op),
            untraced_p50_us: end_to_end["op_p50_us"],
            untraced_p95_us: op_p95_us,
        };
        let mut measured = slot.workload.setup().clone();
        measured.extend(facts.counts.iter().map(|(k, v)| (*k, *v)));
        slot.workload.layers(&spans, &mut measured)?;
        measured.insert("op_p95_us", op_p95_us);
        measured.insert("process.peak_rss_mb", peak_rss_mb());
        measured.insert(
            "trace.overhead_ratio",
            median(&traced.wall_s) / median(&timed.wall_s).max(1e-12),
        );
        // Within one op the self times of all spans add up to the root's
        // duration, so the median root is the per-layer self-time sum.
        measured.insert(
            "trace.self_sum_vs_p50",
            median(&traced.root_p50_us) / spans.untraced_p50_us.max(1e-12),
        );
        measured.insert("trace.spans_per_op", spans.spans_per_op.values().sum());
        for (name, _) in PER_LAYER {
            per_layer.insert(name, measured.remove(name).unwrap_or(0.0));
        }
        if let Some(stray) = measured.keys().next() {
            return Err(format!("{}: measured undeclared metric {stray}", slot.name).into());
        }
    }

    Ok(Outcome {
        workload: slot.name,
        attempted: timed.attempted + facts.attempted,
        failed: timed.failed + slot.traced.failed + facts.failed,
        rounds: timed.p50_us.len(),
        ops_per_pass: slot.workload.ops(),
        end_to_end,
        op_p95_us,
        spread,
        per_layer,
    })
}
