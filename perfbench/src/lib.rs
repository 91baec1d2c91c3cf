#![warn(missing_docs)]

//! # eff2-perfbench
//!
//! The repository's benchmark: seven workloads over the eff2 search and
//! serving stack, wall-clock and virtual-clock end-to-end metrics, and a
//! per-layer traced run. `README.md` in this directory says what each
//! workload stresses and which layer should move which metric;
//! `BENCHMARK.json` at the repository root declares the names.
//!
//! Everything is measured from outside, by timing calls into the public
//! functions of the `eff2-*` crates; the benchmark changes none of them.

pub mod compare;
pub mod fixtures;
pub mod proc;
pub mod report;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
