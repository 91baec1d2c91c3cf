#![warn(missing_docs)]

//! # eff2-eval
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures at a configurable scale.
//!
//! Every artefact — the paper's tables and figures, and the sweeps beyond
//! it — is one entry of `experiments::EXPERIMENTS`: a function from the
//! [`Lab`] to a [`Report`] whose gates fail the run when they print `NO`.
//!
//! The default scale is 100,000 descriptors (the paper used 5,017,298 — see
//! DESIGN.md §5 for the substitution rationale); chunk-size targets scale
//! with √(N/N_paper) so both the per-chunk population and the chunk count
//! stay in the paper's operating regime. Timings are reported on the
//! simulated 2005 testbed ([`eff2_storage::DiskModel::ata_2005`]).

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the experiment harness reports to the terminal: tables on stdout, progress on stderr"
)]

pub mod experiments;
pub mod lab;
pub mod report;
pub mod scale;

pub use lab::{IndexHandle, IndexMeta, Lab};
pub use report::Report;
pub use scale::Scale;

/// Harness-level result type (errors cross crate boundaries).
pub(crate) type EvalResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;
