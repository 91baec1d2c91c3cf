//! The lint driver: file walking and finding order.
//!
//! Every rule is a line rule ([`crate::rules`]): a finding points at the
//! offending token, so it is fixed where it lives. The token rules take
//! no waivers; the clippy lints take `#[expect(<lint>, reason = "…")]`.

use crate::lexer::lex;
use crate::regions::{classify, code_indices};
use crate::rules::{apply, Finding};
use std::path::{Path, PathBuf};

/// Lints one file with every token rule.
fn lint_file(crate_name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
    let tokens = lex(source);
    let regions = classify(&tokens);
    let code = code_indices(&tokens);
    apply(crate_name, rel_path, &tokens, &regions, &code)
}

/// Lints a set of files. Each input is `(crate_name, rel_path, source)`.
///
/// Findings are sorted by `(file, line, rule, message)` so output is
/// bit-stable across runs and platforms. No dedup: two identical sites on
/// one line (`a.sum() + b.sum()`) are two findings.
pub fn lint_files(files: &[(String, String, String)]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = files
        .iter()
        .flat_map(|(crate_name, rel_path, source)| lint_file(crate_name, rel_path, source))
        .collect();
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings
}

/// Lints a single file's source text.
///
/// `crate_name` selects the crate-scoped exemption (boxed errors in
/// `eval`); `rel_path` is used verbatim in findings.
pub fn lint_source(crate_name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
    lint_files(&[(
        crate_name.to_string(),
        rel_path.to_string(),
        source.to_string(),
    )])
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

/// Lints every `crates/*/src/**/*.rs` file under the workspace `root`.
///
/// Findings are sorted by `(file, line, rule)` so output is bit-stable
/// across runs and platforms.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
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
