//! `eff2-eval` — regenerate the paper's tables and figures.
//!
//! ```text
//! eff2-eval <command> [--scale N] [--queries N] [--seed S] [--out DIR]
//! ```
//!
//! The commands are the entries of
//! [`EXPERIMENTS`](eff2_eval::experiments::EXPERIMENTS) plus `all`; run
//! the binary without arguments to have them listed. Exit status: 0 when
//! every gate of every report held, 1 when one printed `NO` (or the run
//! hit an error), 2 for a command or flag nobody knows — refused before
//! anything is generated or written.

#![expect(
    clippy::print_stderr,
    reason = "a command-line binary: usage, progress and errors go to stderr"
)]

use eff2_eval::experiments;
use eff2_eval::{Lab, Scale};
use std::path::PathBuf;

fn usage() -> ! {
    eprint!("{}", experiments::usage());
    std::process::exit(2);
}

fn parsed<T: std::str::FromStr>(value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = args.split_first() else {
        usage();
    };
    let Some(selected) = experiments::resolve(command) else {
        eprintln!("unknown command {command}");
        usage();
    };
    let mut scale = Scale::new(100_000);
    let mut out = PathBuf::from("results");
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let value = flags.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scale" => scale.n_descriptors = parsed(value),
            "--queries" => scale.n_queries = parsed(value),
            "--seed" => scale.seed = parsed(value),
            "--out" => out = PathBuf::from(value),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "CLI progress reporting only; results carry virtual times"
    )]
    let started = std::time::Instant::now();
    let status = Lab::prepare(scale, &out).and_then(|lab| {
        eprintln!(
            "[lab] collection: {} descriptors (target {}), cache {}",
            lab.set.len(),
            scale.n_descriptors,
            lab.cache_dir.display()
        );
        experiments::run(selected, &lab)
    });
    match status {
        Ok(status) => {
            let secs = started.elapsed().as_secs_f64();
            eprintln!("[done] {command} in {secs:.1}s");
            std::process::exit(status)
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
