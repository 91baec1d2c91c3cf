//! `--compare <a.jsonl> <b.jsonl>`: the regression rule, applied.
//!
//! Both files hold records appended by `--out`, `a` from the parent commit
//! and `b` from the change (or two sets of runs of one commit). For every
//! workload × end-to-end metric (and the unbounded `op_p95_us`, judged as if
//! it had the wall-clock bound) the tool prints both medians, the relative
//! change, and a verdict: `worse` when `b`'s median is worse than `a`'s by
//! more than the metric's bound; `unresolved` when the run-to-run spread of
//! either side is wider than the bound — unless every run of `b` reads
//! better than every run of `a`; otherwise `within bound`.

use crate::fixtures::Res;
use crate::spec::{EndToEnd, END_TO_END, OP_P95_US};
use crate::stats::{median, relative_iqr};
use crate::workloads::NAMES;
use eff2_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Values per `(workload, metric)`, one per untraced record.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// What the rule says about one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// Neither side's spread exceeds the bound and `b` is not worse by
    /// more than it.
    WithinBound,
    /// The spread is wider than the bound: the runs cannot tell.
    Unresolved,
    /// The spread is wider than the bound, yet every run of `b` reads
    /// better than every run of `a`.
    BetterEveryRun,
}

impl Verdict {
    /// The word printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::BetterEveryRun => "better in every run",
        }
    }
}

fn load(path: &Path) -> Res<Runs> {
    let mut runs = Runs::new();
    for line in std::fs::read_to_string(path)?.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line)?;
        if matches!(record.get("trace"), Some(Json::Bool(true))) {
            continue;
        }
        let workload = record.field("workload")?.as_str()?.to_string();
        let Json::Obj(metrics) = record.field("metrics")? else {
            return Err(format!("{}: metrics is not an object", path.display()).into());
        };
        if let Some(tail) = record.get(OP_P95_US.name) {
            runs.entry((workload.clone(), OP_P95_US.name.to_string()))
                .or_default()
                .push(tail.as_f64()?);
        }
        for (name, metric) in metrics {
            runs.entry((workload.clone(), name.clone()))
                .or_default()
                .push(metric.field("value")?.as_f64()?);
        }
    }
    Ok(runs)
}

/// Applies the rule to parent runs `a` and change runs `b` of one metric.
/// Returns the relative change of the median (positive = `b` larger).
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = if metric.higher_is_better {
        -change
    } else {
        change
    };
    let better = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let spread = relative_iqr(a).max(relative_iqr(b));
    let verdict = if spread > metric.bound {
        if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            Verdict::BetterEveryRun
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (change, verdict)
}

/// Prints the comparison table; returns how many rows read `worse`.
pub fn compare(a: &Path, b: &Path) -> Res<usize> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let mut worse = 0;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "change", "spread", "bound"
    );
    for workload in NAMES {
        for metric in END_TO_END.iter().chain([&OP_P95_US]) {
            let key = (workload.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (runs_a.get(&key), runs_b.get(&key)) else {
                continue;
            };
            let (change, verdict) = judge(metric, va, vb);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<16} {:<26} {:>14.4} {:>14.4} {:>+7.2}% {:>6.2}% {:>5.0}%  {} (n={}/{})",
                workload,
                metric.name,
                median(va),
                median(vb),
                change * 100.0,
                relative_iqr(va).max(relative_iqr(vb)) * 100.0,
                metric.bound * 100.0,
                verdict.label(),
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        higher_is_better: true,
        ..LOWER
    };

    #[test]
    fn the_rule_on_known_runs() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Same code: within bound.
        assert_eq!(
            judge(&LOWER, &a, &[100.2, 99.5, 101.0, 100.0, 100.1]).1,
            Verdict::WithinBound
        );
        // 20 % slower with tight runs: worse; for throughput, 20 % less.
        let slow = [120.0, 121.0, 119.0, 120.0, 120.5];
        assert_eq!(judge(&LOWER, &a, &slow).1, Verdict::Worse);
        assert_eq!(judge(&HIGHER, &slow, &a).1, Verdict::Worse);
        assert_eq!(judge(&HIGHER, &a, &slow).1, Verdict::WithinBound);
        // Spread wider than the bound: unresolved …
        let noisy = [80.0, 130.0, 95.0, 140.0, 100.0];
        assert_eq!(judge(&LOWER, &a, &noisy).1, Verdict::Unresolved);
        // … unless every run of b beats every run of a.
        let fast_noisy = [40.0, 70.0, 50.0, 90.0, 60.0];
        assert_eq!(judge(&LOWER, &a, &fast_noisy).1, Verdict::BetterEveryRun);
        let (change, _) = judge(&LOWER, &a, &slow);
        assert!((change - 0.2).abs() < 1e-9);
    }
}
