//! The seven workloads. Each is built from a [`Ctx`] (its set-up is what
//! `setup_s` times), runs fixed-size passes of ops for the runner to time,
//! verifies its own outputs, and — in a traced run — maps recorded spans
//! and its own probes onto the per-layer metrics.

use crate::fixtures::{Ctx, Measured, Res};
use crate::trace::Recorder;
use std::collections::BTreeMap;

pub mod image;
pub mod live;
pub mod serve;
pub mod solo;

/// What one untimed verification pass established.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were rejected, lost a completion, or returned an
    /// answer that failed the correctness check.
    pub failed: u64,
    /// Per-query latency on the virtual clock, ms.
    pub modelled_ms: Vec<f64>,
    /// The quality figure (see `precision` in the README).
    pub precision: f64,
    /// Index bytes on disk per 100-byte live descriptor.
    pub disk_bytes_per_user_byte: f64,
    /// Deterministic per-layer counts, keyed by per-layer metric name.
    pub counts: Measured,
}

/// Medians over the traced passes of what the recorder saw per op.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    /// Self time per op, µs, per span name.
    pub self_us_per_op: BTreeMap<&'static str, f64>,
    /// Spans per op, per span name.
    pub spans_per_op: BTreeMap<&'static str, f64>,
    /// `op_p50_us` of the untraced passes of the same run.
    pub untraced_p50_us: f64,
    /// `op_p95_us` of the untraced passes of the same run.
    pub untraced_p95_us: f64,
}

impl SpanStats {
    /// Self µs per op of `name` (0 when never recorded).
    pub fn us(&self, name: &str) -> f64 {
        self.self_us_per_op.get(name).copied().unwrap_or(0.0)
    }

    /// Spans of `name` per op (0 when never recorded).
    pub fn per_op(&self, name: &str) -> f64 {
        self.spans_per_op.get(name).copied().unwrap_or(0.0)
    }

    /// Self µs of `name` per span of `name` (0 when never recorded).
    pub fn us_each(&self, name: &str) -> f64 {
        let n = self.per_op(name);
        if n == 0.0 {
            0.0
        } else {
            self.us(name) / n
        }
    }
}

/// One benchmark workload, built and ready to run.
pub trait Workload {
    /// Ops in one pass.
    fn ops(&self) -> usize;

    /// Untimed preparation of a pass.
    fn begin_pass(&mut self) -> Res<()> {
        Ok(())
    }

    /// Runs op `i` of the pass; `false` counts it failed. Only the checks
    /// that cost nothing run here — answers are verified in
    /// [`verify`](Self::verify).
    fn op(&mut self, i: usize) -> bool;

    /// Op `i` with spans around the calls into each layer. For the solo
    /// workloads this is the decomposed form of the same search.
    fn traced_op(&mut self, i: usize, rec: &mut Recorder) -> bool;

    /// Untimed clean-up of a pass.
    fn end_pass(&mut self) -> Res<()> {
        Ok(())
    }

    /// The untimed verification pass: every op once more, every answer
    /// checked, the deterministic metrics collected.
    fn verify(&mut self) -> Res<Facts>;

    /// Set-up layer timings.
    fn setup(&self) -> &Measured;

    /// Per-layer metrics of a traced run: span medians mapped to metric
    /// names, plus this workload's own probes.
    fn layers(&mut self, spans: &SpanStats, out: &mut Measured) -> Res<()>;
}

/// The workload names, in the fixed order a multi-workload round runs them.
pub const NAMES: [&str; 7] = [
    "solo_cold",
    "solo_hot",
    "pq_rerank",
    "serve_mwc",
    "fleet_failover",
    "image_stop",
    "live_mixed",
];

/// Builds workload `name`; its wall time is that workload's `setup_s`.
pub fn build(name: &str, ctx: &Ctx) -> Res<Box<dyn Workload>> {
    Ok(match name {
        "solo_cold" => Box::new(solo::Solo::build(ctx, solo::Kind::Cold)?),
        "solo_hot" => Box::new(solo::Solo::build(ctx, solo::Kind::Hot)?),
        "pq_rerank" => Box::new(solo::Solo::build(ctx, solo::Kind::Pq)?),
        "serve_mwc" => Box::new(serve::Serve::build(ctx, serve::Kind::Mwc)?),
        "fleet_failover" => Box::new(serve::Serve::build(ctx, serve::Kind::Fleet)?),
        "image_stop" => Box::new(image::ImageStop::build(ctx)?),
        "live_mixed" => Box::new(live::LiveMixed::build(ctx)?),
        other => return Err(format!("unknown workload {other:?}").into()),
    })
}
