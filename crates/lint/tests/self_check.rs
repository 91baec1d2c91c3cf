//! The auditor's own acceptance test: the real workspace must lint clean.
//!
//! This is what keeps the invariants *enforced* rather than aspirational —
//! any new `.unwrap()` in a library path, `HashMap` in any crate, or
//! waiver without a reason fails the test suite, not just the optional
//! CLI run.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use eff2_lint::{lexer, regions};

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = eff2_lint::lint_workspace(&root).expect("walk the workspace tree");
    let rendered: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "eff2-lint found {} issue(s):\n{}",
        findings.len(),
        rendered.join("\n")
    );
}

#[test]
fn workspace_has_one_benchmark_harness() {
    // Every number a claim may cite comes from `perfbench/` (its own
    // workspace, declared in BENCHMARK.json). A `[[bench]]` target or a
    // criterion dependency in this workspace would be a second harness
    // that no claim may cite — keep it from growing back.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(member_dirs(&root).iter().map(|m| m.join("Cargo.toml")));
    assert!(manifests.len() > 3, "member manifests were found");
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        for needle in ["[[bench]]", "[profile.bench]", "criterion"] {
            assert!(
                !text.contains(needle),
                "{} mentions `{needle}`: benchmarks live in perfbench/",
                manifest.display()
            );
        }
    }
}

/// The directories of the workspace members (`members` in the root
/// manifest), sorted.
fn member_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("examples"), root.join("tests")];
    for members in ["crates", "shims"] {
        let dir = std::fs::read_dir(root.join(members)).expect("list workspace members");
        dirs.extend(dir.map(|e| e.expect("dir entry").path()));
    }
    dirs.sort();
    dirs
}

/// The `[dependencies]` and `[dev-dependencies]` keys of a manifest, in
/// both the inline (`name = …`) and the table (`[dependencies.name]`) form.
fn dependency_keys(manifest: &str) -> Vec<String> {
    const SECTIONS: [&str; 2] = ["dependencies", "dev-dependencies"];
    let mut keys = Vec::new();
    let mut in_section = false;
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            in_section = SECTIONS.contains(&header);
            let table = SECTIONS
                .iter()
                .find_map(|s| header.strip_prefix(s)?.strip_prefix('.'));
            keys.extend(table.map(str::to_string));
        } else if in_section && !line.starts_with('#') {
            keys.extend(line.split_once('=').map(|(key, _)| key.trim().to_string()));
        }
    }
    keys
}

#[test]
fn every_manifest_dependency_is_named_by_its_package() {
    // A dependency no source file names still compiles, links and couples
    // the crate graph. Every key in a member's `[dependencies]` and
    // `[dev-dependencies]`, with `-` read as `_`, must occur as an
    // identifier in some `.rs` file of that package.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    let mut unnamed = Vec::new();
    for package in member_dirs(&root) {
        let manifest = package.join("Cargo.toml");
        let mut files = Vec::new();
        rust_files(&package, &mut files);
        let mut idents = BTreeSet::new();
        for file in &files {
            let tokens = lexer::lex(&std::fs::read_to_string(file).expect("read source"));
            let code = regions::code_indices(&tokens);
            idents.extend(
                (code.iter().map(|&i| &tokens[i]))
                    .filter(|t| t.kind == lexer::TokenKind::Ident)
                    .map(|t| t.text.clone()),
            );
        }
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        for key in dependency_keys(&text) {
            checked += 1;
            if !idents.contains(&key.replace('-', "_")) {
                let rel = manifest.strip_prefix(&root).expect("under the root");
                unnamed.push(format!("{}: {key}", rel.display()));
            }
        }
    }
    assert!(checked > 50, "the walk found the member manifests");
    assert!(
        unnamed.is_empty(),
        "{} dependenc(ies) are named by no source file of their package — delete them:\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );
}

#[test]
fn findings_come_out_sorted_and_deterministic() {
    // Output is diffable only if ordering is pinned: findings sort by
    // (file, line, rule, message) and repeat runs agree exactly.
    let inputs = vec![
        (
            "core".to_string(),
            "b.rs".to_string(),
            "pub fn f(v: &[u8]) -> u8 {\n    let m = std::collections::HashMap::new();\n    v[0]\n}\n".to_string(),
        ),
        (
            "core".to_string(),
            "a.rs".to_string(),
            "pub fn g(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n".to_string(),
        ),
    ];
    let first = eff2_lint::lint_files(&inputs);
    let second = eff2_lint::lint_files(&inputs);
    assert_eq!(first.findings, second.findings);
    assert!(!first.findings.is_empty());
    let keys: Vec<(String, u32, String, String)> = first
        .findings
        .iter()
        .map(|f| {
            (
                f.file.clone(),
                f.line,
                f.rule.to_string(),
                f.message.clone(),
            )
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must come out pre-sorted");
}

/// Collects every `.rs` file under `dir` (sorted), if it exists.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Types no other crate names but that must stay `pub` because a public
/// signature or field mentions them. Nothing else belongs here: a function,
/// constant or unmentioned type that trips the guard becomes `pub(crate)`.
const PUBLIC_BY_SIGNATURE: &[(&str, &str)] = &[
    ("ArrivalTrace", "returned by workload::poisson_arrivals"),
    ("BuiltIndex", "returned by core Snapshot::build"),
    ("ChunkEvent", "returned by core SearchSession::step"),
    ("Cluster", "element of the field bag BagSnapshot::clusters"),
    (
        "Degradation",
        "type of the field core SearchLog::degradation",
    ),
    (
        "DescriptorId",
        "type of the field descriptor Descriptor::id",
    ),
    ("Exp1Curves", "returned by eval experiments::exp1_curves"),
    ("Finding", "returned by lint::lint_source"),
    (
        "FleetQualityPoint",
        "returned by metrics::fleet_quality_curve",
    ),
    (
        "FleetReport",
        "returned by serve FleetScheduler::serve_trace",
    ),
    (
        "FormationCost",
        "type of the field core ChunkFormation::cost",
    ),
    (
        "ImageCompletion",
        "element of the field serve ImageServeReport::completions",
    ),
    ("ImageId", "returned by descriptor DescriptorSet::image"),
    (
        "ImageQualityPoint",
        "returned by metrics::descriptors_spent_curve",
    ),
    (
        "ImageServeStats",
        "type of the field serve ImageServeReport::stats",
    ),
    ("IndexHandle", "returned by eval Lab::six_indexes"),
    ("IndexMeta", "type of the field eval IndexHandle::meta"),
    ("LeafChunk", "returned by srtree::chunks_from_collection"),
    ("LintReport", "returned by lint::lint_files"),
    (
        "LiveCompletion",
        "element of the field serve LiveReport::completions",
    ),
    ("LiveStats", "type of the field serve LiveReport::stats"),
    ("MedrankResult", "returned by medrank MedrankIndex::knn"),
    (
        "MutationEvent",
        "element of the field workload MutationTrace::events",
    ),
    (
        "MutationTrace",
        "returned by workload::skewed_mutation_trace",
    ),
    ("Region", "returned by lint regions::classify"),
    (
        "Report",
        "returned by the experiment functions eval experiments::resolve hands out",
    ),
    ("RuleInfo", "element of the constant lint::RULES"),
    ("SearchLog", "type of the field core SearchResult::log"),
    ("Token", "returned by lint lexer::lex"),
];

#[test]
fn every_public_item_is_named_outside_its_crate() {
    // `pub` is a claim that another crate needs the item. rustc cannot
    // check the claim (and so cannot report the item dead), so this does:
    // every item a library crate declares `pub` must occur as an
    // identifier in some file outside that crate's `src/` — another crate,
    // an integration test, an example or perfbench. Names the check cannot
    // see through (`new`, `len`) pass by coincidence; what it does catch
    // is handed to rustc, whose `dead_code` is denied workspace-wide.
    const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in [
        "crates",
        "examples",
        "tests",
        "perfbench/src",
        "perfbench/tests",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    // Per file: the library `src/` it belongs to (if any) and the
    // identifiers it names; per library: the items it declares `pub`
    // outside test regions.
    let mut named: Vec<(Option<PathBuf>, BTreeSet<String>)> = Vec::new();
    let mut declared: BTreeSet<(PathBuf, String)> = BTreeSet::new();
    for file in &files {
        let rel = file.strip_prefix(&root).expect("under the root");
        let parts: Vec<_> = rel.iter().collect();
        let src = match parts.as_slice() {
            // `src/main.rs` is the binary: a crate of its own that reaches
            // the library only through what is `pub`.
            [c, name, s, rest @ ..] if *c == "crates" && *s == "src" && *rest != ["main.rs"] => {
                Some(Path::new(c).join(name).join(s))
            }
            _ => None,
        };
        let tokens = lexer::lex(&std::fs::read_to_string(file).expect("read source"));
        let regions = regions::classify(&tokens);
        let code = regions::code_indices(&tokens);
        for (at, &i) in code.iter().enumerate() {
            let Some(src) = &src else { break };
            if regions[i].test || !tokens[i].is_ident("pub") {
                continue;
            }
            // `pub(crate)` has a `(` here and matches neither arm.
            let after: Vec<&str> = (code[at + 1..].iter().take(3))
                .map(|&j| tokens[j].text.as_str())
                .collect();
            let name = match after[..] {
                ["const", "fn", name] => name,
                [kind, name, ..] if ITEM_KINDS.contains(&kind) => name,
                _ => continue,
            };
            declared.insert((src.clone(), name.to_string()));
        }
        let idents = (code.iter().map(|&i| &tokens[i]))
            .filter(|t| t.kind == lexer::TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        named.push((src, idents));
    }
    assert!(declared.len() > 300, "the walk found the library crates");

    let unnamed: Vec<&(PathBuf, String)> = (declared.iter())
        .filter(|(src, name)| {
            !(named.iter()).any(|(of, idents)| of.as_ref() != Some(src) && idents.contains(name))
        })
        .collect();
    assert!(PUBLIC_BY_SIGNATURE.len() <= 30);
    let allowed = |name: &str| {
        PUBLIC_BY_SIGNATURE
            .iter()
            .any(|(n, why)| *n == name && !why.is_empty())
    };
    let offenders: Vec<String> = (unnamed.iter())
        .filter(|(_, name)| !allowed(name))
        .map(|(src, name)| format!("{}: {name}", src.display()))
        .collect();
    assert!(
        offenders.is_empty(),
        "{} public item(s) are named by no file outside their crate's src/ — make them \
         pub(crate) and delete what rustc then reports dead:\n{}",
        offenders.len(),
        offenders.join("\n")
    );
    let stale: Vec<&str> = (PUBLIC_BY_SIGNATURE.iter().map(|(n, _)| *n))
        .filter(|n| !unnamed.iter().any(|(_, name)| name == n))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlisted but named elsewhere (or gone): {stale:?}"
    );
}
