//! The `eff2-eval` binary's exit-status contract, driven end to end.

#![cfg(test)]

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh (non-existent) `--out` directory for `tag`.
fn fresh_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eff2_cli_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn eval(args: &[&str], out: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eff2-eval"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run eff2-eval")
}

#[test]
fn an_unknown_command_is_refused_before_anything_is_written() {
    let out = fresh_out("bogus");
    let run = eval(&["exp0", "--scale", "2500", "--queries", "6"], &out);
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    // Refused before `Lab::prepare`: no cache, no collection, no directory.
    assert!(!out.exists(), "{} was created", out.display());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown command exp0"), "{stderr}");
    assert!(
        stderr.contains("  exp9 "),
        "usage lists the registry: {stderr}"
    );
}

#[test]
fn a_registered_command_exits_zero_and_writes_under_out() {
    let out = fresh_out("gen");
    let run = eval(&["gen", "--scale", "2500", "--queries", "6"], &out);
    assert_eq!(run.status.code(), Some(0), "{run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.starts_with("collection: "), "{stdout}");
    assert!(out.join("cache").is_dir());
    std::fs::remove_dir_all(&out).ok();
}
