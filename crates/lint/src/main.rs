//! CLI for the workspace invariant auditor.
//!
//! ```text
//! eff2-lint [--deny] [--rules] [--root <path>]
//! ```
//!
//! * `--deny`  — exit non-zero if any finding remains (CI gate mode).
//! * `--rules` — list the known rule ids and exit.
//! * `--root`  — workspace root (default: walk up from the current
//!   directory to the first `Cargo.toml` containing `[workspace]`).
//!
//! Findings print as `file:line: [rule] message`. Every run ends with a
//! timing line on stderr — `lint: N files, K ms` — so lint cost is tracked
//! as the workspace grows (check.sh asserts its presence).

use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage() {
    eprintln!("usage: eff2-lint [--deny] [--rules] [--root <path>]");
}

fn main() -> ExitCode {
    let mut deny = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--rules" => {
                for rule in eff2_lint::RULES {
                    println!("{:<20} {}", rule.id, rule.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--root" => root = args.next().map(PathBuf::from),
            other => {
                eprintln!("eff2-lint: unknown argument `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("eff2-lint: no workspace root found (try --root <path>)");
        return ExitCode::from(2);
    };

    // lint:allow(det.wall_clock): measuring the linter's own cost, not producing trace output
    let started = std::time::Instant::now();
    let report = match eff2_lint::lint_workspace_report(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "eff2-lint: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis();
    let findings = report.findings;

    for f in &findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    if findings.is_empty() {
        println!("eff2-lint: workspace clean");
    } else {
        println!("eff2-lint: {} finding(s)", findings.len());
    }
    eprintln!("lint: {} files, {} ms", report.files, elapsed_ms);
    if deny && !findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
