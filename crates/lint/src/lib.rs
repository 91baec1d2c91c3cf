#![warn(missing_docs)]

//! # eff2-lint
//!
//! The workspace's token rules: the checks clippy has no lint for. The
//! ROADMAP's north star is a production server that must not panic, must
//! stay deterministic (bit-identical traces are what make the paper's
//! figures reproducible), and must surface every failure through the
//! workspace error taxonomy. The panic, determinism and hygiene rules are
//! clippy lints, denied in the workspace manifest and configured in
//! `clippy.toml`; this crate adds float accumulation order
//! (`det.float_accum`) and the error taxonomy (`err.box_error`,
//! `err.string_error`).
//!
//! It is a minimal Rust lexer ([`lexer`]), a region classifier that
//! understands `#[cfg(test)]` modules, attributes and `macro_rules!`
//! bodies ([`regions`]), and the token-pattern rules ([`rules`], driven by
//! [`engine`]). Every rule is a line rule: it fires at the offending site,
//! in every crate, and findings carry `file:line` spans and stable rule
//! ids. The `workspace_lints_clean` test runs them over the workspace;
//! see `DESIGN.md` §10 for the rule table.

pub mod engine;
pub mod lexer;
pub mod regions;
pub mod rules;

pub use engine::{lint_files, lint_source, lint_workspace};
pub use rules::{Finding, RuleInfo, RULES};
