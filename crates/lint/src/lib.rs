#![warn(missing_docs)]

//! # eff2-lint
//!
//! A from-scratch static-analysis pass over the eff2 workspace. The
//! ROADMAP's north star is a production server that must not panic, must
//! stay deterministic (bit-identical traces are what make the paper's
//! figures reproducible), and must surface every failure through the
//! workspace error taxonomy. Until now those guarantees were enforced
//! only by runtime trace tests; this crate checks them *mechanically*,
//! against the source itself.
//!
//! crates.io is unreachable in the build environment, so everything is
//! self-contained: a minimal Rust lexer ([`lexer`]), a region classifier
//! that understands `#[cfg(test)]` modules, attributes and `macro_rules!`
//! bodies ([`regions`]), and a token-pattern rule engine ([`rules`],
//! driven by [`engine`]). Every rule is a line rule: it fires at the
//! offending site, in every crate, and findings carry `file:line` spans
//! and stable rule ids.
//!
//! Run it with `cargo run --release -p eff2-lint -- --deny`; see
//! `DESIGN.md` §10 for the rule table and waiver grammar.

pub mod engine;
pub mod lexer;
pub mod regions;
pub mod rules;

pub use engine::{lint_files, lint_source, lint_workspace, lint_workspace_report, LintReport};
pub use rules::{Finding, RuleInfo, RULES};
