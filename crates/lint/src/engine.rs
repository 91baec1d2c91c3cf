//! The lint driver: file walking, waiver handling, finding suppression.
//!
//! Every rule is a line rule ([`crate::rules`]): a finding points at the
//! offending token, so it is waived (or fixed) where it lives.
//!
//! ## Waiver grammar
//!
//! ```text
//! // lint:allow(<rule.id>): <non-empty reason>
//! // lint:allow-file(<rule.id>): <non-empty reason>
//! ```
//!
//! A line waiver suppresses findings of `<rule.id>` on its own line and on
//! the line directly below (so it works both as a trailing comment and as
//! a comment above the offending line). A file waiver suppresses the rule
//! for the whole file. Both forms **require** a reason after the colon;
//! a missing reason, an unknown rule id, or a waiver that suppresses
//! nothing are themselves findings (`hyg.waiver`) — waivers must stay
//! load-bearing and auditable.

use crate::lexer::{lex, Token, TokenKind};
use crate::regions::{classify, code_indices};
use crate::rules::{apply, is_rule, Finding};
use std::path::{Path, PathBuf};

#[derive(Debug)]
struct Waiver {
    rule: String,
    line: u32,
    file_scope: bool,
    used: bool,
}

impl Waiver {
    /// Whether this waiver covers a finding of `rule` at `line`.
    fn covers(&self, rule: &str, line: u32) -> bool {
        self.rule == rule && (self.file_scope || line == self.line || line == self.line + 1)
    }
}

/// The outcome of linting a set of files, plus the file count for the
/// timing line.
pub struct LintReport {
    /// All unsuppressed findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files: usize,
}

/// Parses every waiver out of the comment tokens; malformed waivers are
/// returned as `hyg.waiver` findings instead.
fn parse_waivers(rel_path: &str, tokens: &[Token]) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    // Only plain comments can carry waivers: doc comments are rendered API
    // documentation (and this crate's own docs quote the grammar).
    for t in tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
    {
        let mut rest = t.text.as_str();
        // A comment may hold several waivers (rare but legal).
        while let Some(at) = rest.find("lint:allow") {
            let Some(tail) = rest.get(at + "lint:allow".len()..) else {
                break;
            };
            rest = tail;
            let file_scope = rest.starts_with("-file");
            let body = rest.strip_prefix("-file").unwrap_or(rest);
            let mut bad = |message: String| {
                findings.push(Finding::new("hyg.waiver", rel_path, t.line, message));
            };
            let Some(args) = body.strip_prefix('(') else {
                bad("malformed waiver: expected `lint:allow(<rule>): <reason>`".to_string());
                continue;
            };
            let Some(close) = args.find(')') else {
                bad("malformed waiver: unclosed `(`".to_string());
                continue;
            };
            let rule = args.get(..close).unwrap_or("").trim().to_string();
            if !is_rule(&rule) {
                bad(format!("waiver cites unknown rule `{rule}`"));
                continue;
            }
            let after = args.get(close + 1..).unwrap_or("");
            let reason = match after.trim_start().strip_prefix(':') {
                Some(r) => r.trim().trim_end_matches("*/").trim(),
                None => {
                    bad(format!("waiver for `{rule}` is missing its `: <reason>`"));
                    continue;
                }
            };
            if reason.is_empty() {
                bad(format!("waiver for `{rule}` has an empty reason"));
                continue;
            }
            waivers.push(Waiver {
                rule,
                line: t.line,
                file_scope,
                used: false,
            });
        }
    }
    (waivers, findings)
}

/// Lints one file: every line rule, then suppression by the file's own
/// waivers. An unused waiver is a `hyg.waiver` finding.
fn lint_file(crate_name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
    let tokens = lex(source);
    let regions = classify(&tokens);
    let code = code_indices(&tokens);
    let (mut waivers, mut findings) = parse_waivers(rel_path, &tokens);
    for f in apply(crate_name, rel_path, &tokens, &regions, &code) {
        match waivers.iter_mut().find(|w| w.covers(f.rule, f.line)) {
            Some(w) => w.used = true,
            None => findings.push(f),
        }
    }
    for w in waivers.iter().filter(|w| !w.used) {
        findings.push(Finding::new(
            "hyg.waiver",
            rel_path,
            w.line,
            format!(
                "waiver for `{}` suppresses nothing — remove it or fix its placement",
                w.rule
            ),
        ));
    }
    findings
}

/// Lints a set of files. Each input is `(crate_name, rel_path, source)`.
///
/// Findings are sorted by `(file, line, rule, message)` so output is
/// bit-stable across runs and platforms. No dedup: two identical sites on
/// one line (`v[v[1]]`) are two findings.
pub fn lint_files(files: &[(String, String, String)]) -> LintReport {
    let mut findings: Vec<Finding> = files
        .iter()
        .flat_map(|(crate_name, rel_path, source)| lint_file(crate_name, rel_path, source))
        .collect();
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    LintReport {
        findings,
        files: files.len(),
    }
}

/// Lints a single file's source text.
///
/// `crate_name` selects the crate-scoped exemptions (thread spawns in
/// `parallel`, prints in the CLI crates); `rel_path` is used verbatim in
/// findings.
pub fn lint_source(crate_name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
    lint_files(&[(
        crate_name.to_string(),
        rel_path.to_string(),
        source.to_string(),
    )])
    .findings
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**/*.rs` file under the workspace `root`,
/// returning findings plus the file count for the timing line.
pub fn lint_workspace_report(root: &Path) -> std::io::Result<LintReport> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<_>>()?;
    crate_dirs.sort();

    let mut inputs: Vec<(String, String, String)> = Vec::new();
    for crate_dir in crate_dirs.iter().filter(|p| p.is_dir()) {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let source = std::fs::read_to_string(&path)?;
            inputs.push((crate_name.clone(), rel, source));
        }
    }
    Ok(lint_files(&inputs))
}

/// Lints every `crates/*/src/**/*.rs` file under the workspace `root`.
///
/// Findings are sorted by `(file, line, rule)` so output is bit-stable
/// across runs and platforms.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(lint_workspace_report(root)?.findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_suppresses_same_and_next_line() {
        let src = "fn f(v: &[u8]) -> u8 {\n    // lint:allow(panic.index): bounds checked by caller\n    v[0]\n}\n";
        assert!(lint_source("descriptor", "x.rs", src).is_empty());
        let trailing = "fn f(v: &[u8]) -> u8 {\n    v[0] // lint:allow(panic.index): bounds checked by caller\n}\n";
        assert!(lint_source("descriptor", "x.rs", trailing).is_empty());
    }

    #[test]
    fn file_waiver_covers_the_whole_file() {
        let src = "// lint:allow-file(panic.index): fixed-lane kernels, bounds proven\nfn f(v: &[u8]) -> u8 { v[0] }\nfn g(v: &[u8]) -> u8 { v[1] }\n";
        assert!(lint_source("descriptor", "x.rs", src).is_empty());
    }

    #[test]
    fn unused_waiver_is_a_finding() {
        let src = "// lint:allow(panic.unwrap): nothing here needs it\nfn f() {}\n";
        let got = lint_source("descriptor", "x.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got.first().map(|f| f.rule), Some("hyg.waiver"));
    }
}
