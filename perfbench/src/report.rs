//! How a run is reported: the result line the driver reads, the record
//! `--out` appends for `--compare`, and the table a person reads.

use crate::fixtures::{Measured, Res};
use crate::runner::{tail_percentile, Options, Outcome};
use crate::spec::{EndToEnd, Metric, END_TO_END, PER_LAYER};
use eff2_json::Json;
use std::io::Write;
use std::path::Path;

/// The declared metrics a run of this kind reports, with their values.
fn reported(outcome: &Outcome, trace: bool) -> (Vec<Metric>, &Measured) {
    if trace {
        (PER_LAYER.to_vec(), &outcome.per_layer)
    } else {
        (
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            &outcome.end_to_end,
        )
    }
}

fn metrics_json(outcome: &Outcome, trace: bool) -> Res<Json> {
    let (names, values) = reported(outcome, trace);
    let mut pairs = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("{}: metric {name} was not measured", outcome.workload))?;
        if !value.is_finite() {
            return Err(format!("{}: metric {name} is {value}", outcome.workload).into());
        }
        pairs.push((
            name,
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
    }
    Ok(Json::obj(pairs))
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> Res<String> {
    Ok(Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome, trace)?),
    ])
    .to_string())
}

/// Appends one record per outcome to the JSON-lines file `path`: the
/// result object plus workload, seed, trace flag, round count and — being
/// measured in every run — `op_p95_us`, for `--compare`.
pub fn append_records(path: &Path, opts: &Options, outcomes: &[Outcome]) -> Res<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for o in outcomes {
        let record = Json::obj(vec![
            ("workload", Json::Str(o.workload.clone())),
            ("seed", Json::Num(opts.seed as f64)),
            ("trace", Json::Bool(opts.trace)),
            ("rounds", Json::from_usize(o.rounds)),
            ("ops_per_pass", Json::from_usize(o.ops_per_pass)),
            ("correct", Json::Bool(o.correct())),
            ("attempted", Json::Num(o.attempted as f64)),
            ("failed", Json::Num(o.failed as f64)),
            ("op_p95_us", Json::Num(o.op_p95_us)),
            ("metrics", metrics_json(o, opts.trace)?),
        ]);
        writeln!(file, "{record}")?;
    }
    Ok(())
}

/// Prints every metric of every outcome by name, with its unit.
pub fn print_table(opts: &Options, outcomes: &[Outcome]) {
    for o in outcomes {
        println!(
            "== {}  seed {}  {} rounds x {} ops  attempted {}  failed {}  fail_ratio {}  {}",
            o.workload,
            opts.seed,
            o.rounds,
            o.ops_per_pass,
            o.attempted,
            o.failed,
            o.failed as f64 / o.attempted.max(1) as f64,
            if o.correct() { "correct" } else { "INCORRECT" },
        );
        let spread = |name: &str| {
            o.spread.get(name).map_or(String::new(), |iqr| {
                format!("  iqr {:.1}% of median, n={}", iqr * 100.0, o.rounds)
            })
        };
        for EndToEnd { name, unit, .. } in END_TO_END {
            let value = o.end_to_end.get(name).copied().unwrap_or(f64::NAN);
            println!("  {name:<44} {value:>16.4} {unit}{}", spread(name));
        }
        // The tail is measured in every run, so the table always has it.
        let tail = tail_percentile(o.ops_per_pass);
        let mut note = spread("op_p95_us");
        if tail != 95.0 {
            note.push_str(&format!("  (p{tail} at this pass size)"));
        }
        println!("  {:<44} {:>16.4} us{note}", "op_p95_us", o.op_p95_us);
        for (name, unit) in PER_LAYER {
            // Zero means the workload bypasses that layer; the result
            // line carries it, the table leaves it out.
            if let Some(value) = o
                .per_layer
                .get(name)
                .filter(|v| **v != 0.0 && name != "op_p95_us")
            {
                println!("  {name:<44} {value:>16.4} {unit}");
            }
        }
    }
}
