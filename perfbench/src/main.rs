//! Command line of the eff2 benchmark.
//!
//! ```text
//! eff2-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!                [--smoke] [--out <runs.jsonl>]
//! eff2-perfbench --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (one such line per workload for
//! `--workload all`). The exit code is non-zero on a usage error, a failed
//! set-up, or any op that failed or returned a wrong answer.

use eff2_perfbench::fixtures::{Res, Scale};
use eff2_perfbench::runner::{run, Options};
use eff2_perfbench::workloads::NAMES;
use eff2_perfbench::{compare, report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: eff2-perfbench --workload <name|all> --seed <n> --seconds <s> \
--trace <0|1> [--smoke] [--out <runs.jsonl>]\n       eff2-perfbench --compare <a.jsonl> <b.jsonl>";

enum Command {
    Run { opts: Options, out: Option<PathBuf> },
    Compare { a: PathBuf, b: PathBuf },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let (mut smoke, mut out) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let (a, b) = (PathBuf::from(value()?), PathBuf::from(value()?));
                return Ok(Command::Compare { a, b });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads: Vec<String> = if workload == "all" {
        NAMES.iter().map(|n| n.to_string()).collect()
    } else if NAMES.contains(&workload.as_str()) {
        vec![workload]
    } else {
        return Err(format!(
            "unknown workload {workload}; one of {NAMES:?} or all"
        ));
    };
    let opts = Options {
        workloads,
        seed,
        seconds,
        trace,
        scale: if smoke { Scale::SMOKE } else { Scale::FULL },
    };
    Ok(Command::Run { opts, out })
}

fn execute(command: Command) -> Res<bool> {
    match command {
        Command::Compare { a, b } => Ok(compare::compare(&a, &b)? == 0),
        Command::Run { opts, out } => {
            let outcomes = run(&opts)?;
            report::print_table(&opts, &outcomes);
            if let Some(path) = out {
                report::append_records(&path, &opts, &outcomes)?;
            }
            for outcome in &outcomes {
                println!("{}", report::result_line(outcome, opts.trace)?);
            }
            Ok(outcomes.iter().all(|o| o.correct()))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match execute(command) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("eff2-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
