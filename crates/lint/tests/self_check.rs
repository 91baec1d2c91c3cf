//! The workspace's own acceptance tests: the real workspace must pass
//! the token rules, and the clippy configuration must carry the rest.
//!
//! This is what keeps the invariants *enforced* rather than aspirational —
//! a new float `.sum()` or `Result<_, String>` in a library path, or a
//! lint dropped from the clippy table, fails the test suite, not just the
//! optional `scripts/check.sh` run.

#![cfg(test)]

use std::collections::{BTreeMap, BTreeSet};
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

/// The `key = value` lines of one `[table]` of a TOML manifest, trimmed,
/// comments skipped.
fn table_entries(manifest: &str, table: &str) -> Vec<(String, String)> {
    let mut entries = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == format!("[{table}]");
        } else if inside && !line.starts_with('#') {
            entries.extend(
                (line.split_once('=')).map(|(k, v)| (k.trim().to_string(), v.trim().to_string())),
            );
        }
    }
    entries
}

#[test]
fn clippy_carries_the_panic_and_determinism_rules() {
    // The panic-freedom, determinism and hygiene rules are clippy lints.
    // `scripts/check.sh` runs clippy; this pins its configuration in the
    // test suite, so dropping a lint or exempting a crate fails here too.
    const DENIED: &[&str] = &[
        "unwrap_used",
        "expect_used",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "indexing_slicing",
        "disallowed_types",
        "disallowed_methods",
        "print_stdout",
        "print_stderr",
        "dbg_macro",
        "allow_attributes",
        "allow_attributes_without_reason",
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read root manifest");
    let levels = table_entries(&manifest, "workspace.lints.clippy");
    for lint in DENIED {
        assert!(
            levels.iter().any(|(k, v)| k == lint && v == "\"deny\""),
            "`{lint}` is not \"deny\" in [workspace.lints.clippy]: {levels:?}"
        );
    }

    // The disallowed paths, and test code exempt from exactly the rules
    // it was exempt from before: never from determinism or `dbg!`.
    let config = std::fs::read_to_string(root.join("clippy.toml")).expect("read clippy.toml");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::SystemTime",
        "std::time::Instant::now",
        "std::thread::spawn",
    ] {
        assert!(
            config.contains(&format!("path = \"{path}\"")),
            "clippy.toml does not disallow `{path}`"
        );
    }
    for key in ["unwrap", "expect", "panic", "indexing-slicing", "print"] {
        assert!(
            config.contains(&format!("allow-{key}-in-tests = true")),
            "clippy.toml lacks allow-{key}-in-tests"
        );
    }
    assert!(
        !config.contains("allow-dbg-in-tests"),
        "dbg! stays denied in tests"
    );

    // No member opts out of the workspace table.
    for member in member_dirs(&root) {
        let text = std::fs::read_to_string(member.join("Cargo.toml")).expect("read manifest");
        assert!(
            table_entries(&text, "lints").contains(&("workspace".into(), "true".into())),
            "{} lacks `[lints] workspace = true`",
            member.display()
        );
    }

    // `allow_attributes` sees only outer attributes: an inner
    // `#![allow(clippy::…)]` would still silence a lint without an
    // expectation that must be fulfilled.
    let mut files = Vec::new();
    for dir in ["crates", "examples", "tests", "shims"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut allows = Vec::new();
    for file in &files {
        let tokens = lexer::lex(&std::fs::read_to_string(file).expect("read source"));
        let regions = regions::classify(&tokens);
        let code = regions::code_indices(&tokens);
        for (at, &i) in code.iter().enumerate() {
            if !regions[i].attr || !tokens[i].is_ident("allow") {
                continue;
            }
            let args = code[at + 1..].iter().map(|&j| &tokens[j]);
            let mut depth = 0;
            for t in args {
                match (t.kind, t.text.as_str()) {
                    (lexer::TokenKind::Punct, "(") => depth += 1,
                    (lexer::TokenKind::Punct, ")") => depth -= 1,
                    _ if t.is_ident("clippy") => {
                        let rel = file.strip_prefix(&root).expect("under the root");
                        allows.push(format!("{}:{}", rel.display(), t.line));
                    }
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
            }
        }
    }
    assert!(files.len() > 100, "the walk found the sources");
    assert!(
        allows.is_empty(),
        "allow(clippy::…) hides a lint; use #[expect(…, reason = \"…\")]: {allows:?}"
    );
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
            "pub fn f(v: &[f32]) -> Result<f32, String> {\n    let w: f32 = v.iter().product();\n    Ok(w + v.iter().sum::<f32>())\n}\n".to_string(),
        ),
        (
            "core".to_string(),
            "a.rs".to_string(),
            "pub fn g(v: &[f32]) -> f32 {\n    v.iter().sum()\n}\n".to_string(),
        ),
    ];
    let first = eff2_lint::lint_files(&inputs);
    let second = eff2_lint::lint_files(&inputs);
    assert_eq!(first, second);
    assert!(!first.is_empty());
    let keys: Vec<(String, u32, String, String)> = first
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

/// Where `source`'s non-test code names `open_stream` other than to
/// define it, or implements `ChunkStream`, as `line: what` entries.
fn chunk_stream_uses(source: &str) -> Vec<String> {
    let tokens = lexer::lex(source);
    let regions = regions::classify(&tokens);
    let code: Vec<_> = (regions::code_indices(&tokens).into_iter())
        .filter(|&i| !regions[i].test)
        .map(|i| &tokens[i])
        .collect();
    let mut uses = Vec::new();
    for w in code.windows(3) {
        let [before, t, after] = w else { continue };
        if t.is_ident("open_stream") && !before.is_ident("fn") {
            uses.push(format!("{}: calls open_stream", t.line));
        }
        if t.is_ident("ChunkStream") && after.is_ident("for") {
            uses.push(format!("{}: implements ChunkStream", t.line));
        }
    }
    uses
}

#[test]
fn chunk_streams_stay_inside_eff2_storage() {
    // A session fetches the chunk its cursor names; the ordered stream is
    // left to perfbench and `PrefetchSource`. Outside eff2-storage, product
    // code may define `open_stream` for a `ChunkSource` but never call it
    // nor implement a stream of its own.
    let probe = "fn f(s: &S) { s.open_stream(v); }\n\
                 impl eff2_storage::ChunkStream for W {}\n\
                 fn open_stream(&self) { walk(self.clone(), v) }\n\
                 #[cfg(test)]\nmod tests { fn t() { s.open_stream(v); } }";
    assert_eq!(
        chunk_stream_uses(probe),
        ["1: calls open_stream", "2: implements ChunkStream"]
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut crates: Vec<PathBuf> = (std::fs::read_dir(root.join("crates")).expect("list crates"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| !p.ends_with("storage"))
        .collect();
    crates.sort();
    let mut files = Vec::new();
    for dir in &crates {
        rust_files(&dir.join("src"), &mut files);
    }
    assert!(files.len() > 50, "the walk found the crates");
    let offenders: Vec<String> = (files.iter())
        .flat_map(|file| {
            let rel = file.strip_prefix(&root).expect("under the root").to_owned();
            let text = std::fs::read_to_string(file).expect("read source");
            (chunk_stream_uses(&text).into_iter()).map(move |u| format!("{}:{u}", rel.display()))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "chunk streams outside eff2-storage (fetch by id instead):\n{}",
        offenders.join("\n")
    );
}

/// The re-exports in `source` (the file at `rel`, relative to the root)
/// that break the one-path rule, as `file:line: what` entries: a `pub use`
/// anywhere but a library root `crates/<name>/src/lib.rs`, and a `pub use`
/// that renames with `as` anywhere.
fn pub_use_offenders(rel: &Path, source: &str) -> Vec<String> {
    let parts: Vec<_> = rel.iter().filter_map(|p| p.to_str()).collect();
    let at_root = matches!(parts[..], ["crates", _, "src", "lib.rs"]);
    let tokens = lexer::lex(source);
    let code: Vec<_> = (regions::code_indices(&tokens).into_iter())
        .map(|i| &tokens[i])
        .collect();
    let mut offenders = Vec::new();
    for (at, pair) in code.windows(2).enumerate() {
        if !(pair[0].is_ident("pub") && pair[1].is_ident("use")) {
            continue;
        }
        let line = pair[0].line;
        if !at_root {
            offenders.push(format!(
                "{}:{line}: pub use outside a crate root",
                rel.display()
            ));
        }
        let mut tree = code[at..].iter().take_while(|t| !punct(t, ";"));
        if tree.any(|t| t.is_ident("as")) {
            offenders.push(format!(
                "{}:{line}: pub use renames with `as`",
                rel.display()
            ));
        }
    }
    offenders
}

#[test]
fn pub_use_lives_only_at_crate_roots() {
    // An item has one name and one path: a crate root may re-export its
    // own modules' items, but a module that re-exports another's (a shim)
    // or an alias (`pub use X as Y`) gives one item two spellings.
    let probe = "pub use a::b;\npub use a::{c as d, e};\npub(crate) use f::g;\n\
                 use h::i as j;\n// pub use k as l;\n";
    assert_eq!(
        pub_use_offenders(Path::new("crates/x/src/lib.rs"), probe),
        ["crates/x/src/lib.rs:2: pub use renames with `as`"]
    );
    assert_eq!(
        pub_use_offenders(Path::new("crates/x/src/m.rs"), probe),
        [
            "crates/x/src/m.rs:1: pub use outside a crate root",
            "crates/x/src/m.rs:2: pub use outside a crate root",
            "crates/x/src/m.rs:2: pub use renames with `as`",
        ]
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "examples", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 100, "the walk found the sources");
    let offenders: Vec<String> = (files.iter())
        .flat_map(|file| {
            let rel = file.strip_prefix(&root).expect("under the root");
            let text = std::fs::read_to_string(file).expect("read source");
            pub_use_offenders(rel, &text)
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "re-exports outside the one-path rule (name the item where it lives):\n{}",
        offenders.join("\n")
    );
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
];

/// A package of the walk: its directory relative to the root, its name
/// and the names of its dependencies and dev-dependencies.
struct Package {
    dir: PathBuf,
    name: String,
    deps: Vec<String>,
}

impl Package {
    /// Reads the package rooted at `dir` (relative to `root`) from its
    /// manifest.
    fn read(root: &Path, dir: &Path) -> Package {
        let manifest =
            std::fs::read_to_string(root.join(dir).join("Cargo.toml")).expect("read manifest");
        let name = (table_entries(&manifest, "package").into_iter())
            .find_map(|(k, v)| (k == "name").then(|| v.trim_matches('"').to_string()))
            .expect("a [package] name");
        Package {
            dir: dir.to_path_buf(),
            name,
            deps: dependency_keys(&manifest),
        }
    }
}

/// The items the library crates (`crates/<name>/src/`, `main.rs` aside)
/// declare `pub` outside test regions that no file able to name them
/// names, as `(library src, item)`, sorted. `files` are `(path relative to
/// the root, source)`. A file can name a library's items if its package
/// lists the library's package as a dependency or dev-dependency, or if
/// it is that package's own `tests/` or `src/main.rs` — a binary is a
/// crate of its own that reaches the library only through what is `pub`.
/// A same-named identifier anywhere else is a coincidence, not a use.
fn unnamed_pub_items(packages: &[Package], files: &[(PathBuf, String)]) -> Vec<(PathBuf, String)> {
    const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];
    let package_of = |rel: &Path| {
        (packages.iter())
            .filter(|p| rel.starts_with(&p.dir))
            .max_by_key(|p| p.dir.components().count())
    };
    // Per file: its package, the library `src/` it belongs to (if any) and
    // the identifiers it names; per library: the items it declares `pub`.
    let mut named: Vec<(&Package, Option<PathBuf>, BTreeSet<String>)> = Vec::new();
    let mut declared: BTreeSet<(PathBuf, String)> = BTreeSet::new();
    for (rel, text) in files {
        let Some(package) = package_of(rel) else {
            continue;
        };
        let parts: Vec<_> = rel.iter().collect();
        let src = match parts.as_slice() {
            [c, name, s, rest @ ..] if *c == "crates" && *s == "src" && *rest != ["main.rs"] => {
                Some(Path::new(c).join(name).join(s))
            }
            _ => None,
        };
        let tokens = lexer::lex(text);
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
        named.push((package, src, idents));
    }
    (declared.into_iter())
        .filter(|(src, name)| {
            let owner = package_of(src).expect("a library belongs to a package");
            !(named.iter()).any(|(package, of, idents)| {
                let can_name = if package.dir == owner.dir {
                    of.is_none()
                } else {
                    package.deps.contains(&owner.name)
                };
                can_name && idents.contains(name)
            })
        })
        .collect()
}

#[test]
fn every_public_item_is_named_outside_its_crate() {
    // `pub` is a claim that another crate needs the item. rustc cannot
    // check the claim (and so cannot report the item dead), so this does:
    // every item a library crate declares `pub` must occur as an
    // identifier in a file that can name it — a crate depending on it, its
    // own integration tests or binary, an example or perfbench. Names the
    // check cannot see through (`new`, `len`) pass by coincidence; what it
    // does catch is handed to rustc, whose `dead_code` is denied
    // workspace-wide.
    let probe_package = |dir: &str, name: &str, deps: &[&str]| Package {
        dir: PathBuf::from(dir),
        name: name.to_string(),
        deps: deps.iter().map(|d| d.to_string()).collect(),
    };
    let probe_file = |rel: &str, text: &str| (PathBuf::from(rel), text.to_string());
    assert_eq!(
        unnamed_pub_items(
            &[
                probe_package("crates/bag", "eff2-bag", &[]),
                probe_package("crates/serve", "eff2-serve", &[]),
                probe_package("crates/eval", "eff2-eval", &["eff2-bag"]),
            ],
            &[
                probe_file(
                    "crates/bag/src/lib.rs",
                    "pub fn range() {}\npub fn knn() {}\npub fn own() {}\npub fn bin() {}"
                ),
                probe_file("crates/bag/tests/t.rs", "fn t() { own(); }"),
                probe_file("crates/bag/src/main.rs", "fn main() { bin(); }"),
                probe_file(
                    "crates/serve/src/lib.rs",
                    "fn f(m: &M) { m.range(..); m.knn(); }"
                ),
                probe_file("crates/eval/src/lib.rs", "fn g() { eff2_bag::knn(); }"),
            ],
        ),
        [(PathBuf::from("crates/bag/src"), "range".to_string())],
        "a same-named call in a crate that does not depend on the declaring one does not count"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut dirs = member_dirs(&root);
    dirs.push(root.join("perfbench"));
    let packages: Vec<Package> = (dirs.iter())
        .map(|dir| Package::read(&root, dir.strip_prefix(&root).expect("under the root")))
        .collect();
    let mut paths = Vec::new();
    for dir in [
        "crates",
        "examples",
        "tests",
        "perfbench/src",
        "perfbench/tests",
    ] {
        rust_files(&root.join(dir), &mut paths);
    }
    let files: Vec<(PathBuf, String)> = (paths.iter())
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the root");
            let text = std::fs::read_to_string(path).expect("read source");
            (rel.to_path_buf(), text)
        })
        .collect();
    assert!(files.len() > 100, "the walk found the sources");
    let unnamed = unnamed_pub_items(&packages, &files);
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
        "{} public item(s) are named by no file that depends on their crate — make them \
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

/// The config types whose every `pub` field must be set somewhere.
const CONFIG_TYPES: &[&str] = &[
    "SchedulerConfig",
    "FleetConfig",
    "ImageConfig",
    "BagConfig",
    "Scale",
];

/// Whether `t` is the punctuation character `c`.
fn punct(t: &lexer::Token, c: &str) -> bool {
    t.kind == lexer::TokenKind::Punct && t.text == c
}

/// One past the token that closes the bracket opened at `code[open]`.
fn close_of(code: &[&lexer::Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if ["{", "(", "["].iter().any(|c| punct(t, c)) {
            depth += 1;
        } else if ["}", ")", "]"].iter().any(|c| punct(t, c)) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    code.len()
}

/// The entries at the top level of the bracketed list opened at
/// `code[open]` that name a field or parameter, as `(name, value)`: a name
/// after the opening bracket, a `,` or `pub`, then either a single `:` and
/// the tokens up to the next top-level `,` (the value, or the type), or
/// nothing (struct-literal shorthand, whose value is the name itself).
fn list_entries(code: &[&lexer::Token], open: usize) -> Vec<(String, Vec<String>)> {
    let close = close_of(code, open);
    let mut entries = Vec::new();
    let mut at = open + 1;
    while at + 1 < close {
        let (before, t, after) = (code[at - 1], code[at], code[at + 1]);
        let leads = at == open + 1 || punct(before, ",") || before.is_ident("pub");
        let shorthand = punct(after, ",") || (punct(after, "}") && at + 2 == close);
        let colon = punct(after, ":") && !code.get(at + 2).is_some_and(|t| punct(t, ":"));
        if leads && t.kind == lexer::TokenKind::Ident && (shorthand || colon) {
            let mut value = Vec::new();
            let mut end = at + 1;
            if colon {
                end += 1;
                while end + 1 < close && !punct(code[end], ",") {
                    let next = match ["{", "(", "["].iter().any(|c| punct(code[end], c)) {
                        true => close_of(code, end),
                        false => end + 1,
                    };
                    value.extend(code[end..next].iter().map(|t| t.text.clone()));
                    end = next;
                }
            } else {
                value.push(t.text.clone());
            }
            entries.push((t.text.clone(), value));
            at = end;
            continue;
        }
        at = match ["{", "(", "["].iter().any(|c| punct(t, c)) {
            true => close_of(code, at),
            false => at + 1,
        };
    }
    entries
}

/// What the sources say about the config types' fields, keyed by
/// `(type, field)`.
#[derive(Default)]
struct ConfigFacts {
    /// `pub` fields declared in `crates/`, with the text of their type.
    declared: BTreeMap<(String, String), String>,
    /// Each field's value in its type's own `Default` impl or `new` body.
    defaults: BTreeMap<(String, String), Vec<String>>,
    /// Parameters of each type's `new`.
    params: BTreeSet<(String, String)>,
    /// Struct-literal fields outside those bodies, with their values.
    literals: Vec<(String, String, Vec<String>)>,
    /// Assignment chains (`x.f = …`, `x.f.g = …`) with the type of `x`
    /// where the file binds it (`let [mut] x = Ty…` or `x: Ty`).
    assigned: Vec<(Option<String>, Vec<String>)>,
}

impl ConfigFacts {
    /// Adds what `source` says; only a file under `crates/` (`declares`)
    /// declares the config types.
    fn read(&mut self, source: &str, declares: bool) {
        let tokens = lexer::lex(source);
        let code: Vec<&lexer::Token> = (regions::code_indices(&tokens).into_iter())
            .map(|i| &tokens[i])
            .collect();
        let config_type = |t: &lexer::Token| CONFIG_TYPES.iter().find(|ty| t.is_ident(ty));
        // Token spans of each type's own `Default` impl and `new` body.
        let mut own: Vec<(&str, std::ops::Range<usize>)> = Vec::new();
        for at in 1..code.len().saturating_sub(1) {
            let Some(&ty) = config_type(code[at]) else {
                continue;
            };
            let (before, after) = (code[at - 1], code[at + 1]);
            let key = |field: String| (ty.to_string(), field);
            if !punct(after, "{") {
                continue;
            } else if before.is_ident("struct") {
                if declares {
                    for (field, of) in list_entries(&code, at + 1) {
                        let public = (at + 2..close_of(&code, at + 1))
                            .any(|i| code[i - 1].is_ident("pub") && code[i].text == field);
                        if public {
                            self.declared.insert(key(field), of.concat());
                        }
                    }
                }
            } else if before.is_ident("for") && code[at - 2].is_ident("Default") {
                own.push((ty, at + 1..close_of(&code, at + 1)));
            } else if before.is_ident("impl") {
                let end = close_of(&code, at + 1);
                let new =
                    (at + 2..end).find(|&i| code[i - 1].is_ident("fn") && code[i].is_ident("new"));
                if let Some(new) = new {
                    for (param, _) in list_entries(&code, new + 1) {
                        self.params.insert(key(param));
                    }
                    let body = (new + 1..end).find(|&i| punct(code[i], "{")).unwrap_or(end);
                    own.push((ty, body..close_of(&code, body)));
                }
            } else if !punct(before, ">") {
                // A struct literal (`-> Ty {` opens a function body instead).
                let in_own = own.iter().any(|(of, span)| *of == ty && span.contains(&at));
                for (field, value) in list_entries(&code, at + 1) {
                    if in_own {
                        self.defaults.insert(key(field), value);
                    } else {
                        self.literals.push((ty.to_string(), field, value));
                    }
                }
            }
        }
        // Assignments: an `=` that is not part of `==`, `=>` or a compound
        // operator, after a `.f` chain.
        let compound = ["=", "!", "<", ">", "+", "-", "*", "/", "%", "&", "|", "^"];
        for at in 1..code.len().saturating_sub(1) {
            if !punct(code[at], "=")
                || compound.iter().any(|c| punct(code[at - 1], c))
                || punct(code[at + 1], "=")
                || punct(code[at + 1], ">")
            {
                continue;
            }
            let mut chain = Vec::new();
            let mut i = at - 1;
            while i >= 2 && code[i].kind == lexer::TokenKind::Ident && punct(code[i - 1], ".") {
                chain.insert(0, code[i].text.clone());
                i -= 2;
            }
            if chain.is_empty() {
                continue;
            }
            // The receiver's nearest earlier binding: `x: Ty` gives its
            // type, as does `let [mut] x = Ty…`. A chain on a receiver
            // annotated with another type sets nothing; one on a receiver
            // of unknown type sets the field on any type that has it.
            let receiver = &code[i].text;
            let named = |t: &&lexer::Token| config_type(t).map(|ty| ty.to_string());
            let binding = (1..i).rev().find(|&j| {
                let annotated = punct(code[j + 1], ":") && !punct(code[j + 2], ":");
                let bound = punct(code[j + 1], "=")
                    && (code[j - 1].is_ident("let") || code[j - 1].is_ident("mut"));
                code[j].text == *receiver && (annotated || bound)
            });
            let ty = match binding {
                Some(j) if punct(code[j + 1], ":") => {
                    match code[j + 2..].iter().take(3).find_map(named) {
                        Some(ty) => Some(ty),
                        None => continue,
                    }
                }
                Some(j) => code.get(j + 2).and_then(named),
                None => None,
            };
            self.assigned.push((ty, chain));
        }
    }

    /// The declared fields nothing sets, as `Type::field`, sorted. A field
    /// is set by a parameter of its type's `new`, by a struct-literal
    /// field other than one restating its default or copying a same-named
    /// field (`f: other.f`), or by an assignment — to that type when the
    /// receiver's binding names it, else to any type with such a field.
    fn unset(&self) -> Vec<String> {
        let mut set = self.params.clone();
        for (ty, field, value) in &self.literals {
            let key = (ty.clone(), field.clone());
            let copied = value.len() >= 3 && value.ends_with(&[".".to_string(), field.clone()]);
            if !copied && self.defaults.get(&key) != Some(value) {
                set.insert(key);
            }
        }
        for (receiver, chain) in &self.assigned {
            let Some((first, rest)) = chain.split_first() else {
                continue;
            };
            // Walk the chain through the declared field types: in
            // `x.f.g = …`, `g` is set on the type of `f`.
            let mut keys: Vec<(String, String)> = (self.declared.keys())
                .filter(|(ty, f)| f == first && receiver.as_ref().is_none_or(|r| r == ty))
                .cloned()
                .collect();
            for field in rest {
                keys = (keys.into_iter())
                    .filter_map(|key| {
                        let of = self.declared.get(&key)?.clone();
                        set.insert(key);
                        Some((of, field.clone()))
                    })
                    .collect();
            }
            set.extend(keys.into_iter().filter(|k| self.declared.contains_key(k)));
        }
        (self.declared.keys())
            .filter(|key| !set.contains(*key))
            .map(|(ty, field)| format!("{ty}::{field}"))
            .collect()
    }
}

#[test]
fn every_config_field_is_set_outside_its_defaults() {
    // A config field nobody sets is a constant with a setter: every value
    // it could take doubles what tests and benchmarks must cover. Each
    // `pub` field of the config types must be set somewhere other than its
    // type's own `Default` impl or `new` body (see `ConfigFacts::unset`).
    // Test code counts: a setting only tests use is still a setting.
    let probe = "pub struct Scale { pub n: usize, pub page: u32, pub seed: u64, pub k: usize, pub t: u8, pub g: Scale }\n\
                 impl Scale { pub fn new(n: usize) -> Scale { Scale { n, page: 8, seed: 1, k: 3, t: 0 } } }\n\
                 impl Default for Scale { fn default() -> Self { Scale { t: 1, ..Scale::new(1) } } }\n\
                 fn f(s: &mut Scale, o: Other) -> Scale { s.g.seed = 2; s.page == 8; o.k = 1; Scale { page: 8, t: o.t, ..*s } }\n\
                 fn h(mut x: Other) { x.g = 0; }";
    let mut facts = ConfigFacts::default();
    facts.read(probe, true);
    facts.read("pub struct Scale { pub x: u8 }", false);
    assert_eq!(
        facts.unset(),
        ["Scale::k", "Scale::page", "Scale::t"],
        "a comparison, another type's field, a restated default and a copy are no settings"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths = Vec::new();
    for dir in [
        "crates",
        "examples",
        "tests",
        "perfbench/src",
        "perfbench/tests",
    ] {
        rust_files(&root.join(dir), &mut paths);
    }
    let mut facts = ConfigFacts::default();
    for path in &paths {
        let rel = path.strip_prefix(&root).expect("under the root");
        let text = std::fs::read_to_string(path).expect("read source");
        facts.read(&text, rel.starts_with("crates"));
    }
    let types: BTreeSet<&str> = facts.declared.keys().map(|(ty, _)| ty.as_str()).collect();
    assert_eq!(
        types.len(),
        CONFIG_TYPES.len(),
        "every config type was found"
    );
    let unset = facts.unset();
    assert!(
        unset.is_empty(),
        "config fields that only ever hold their default — make them constants:\n{}",
        unset.join("\n")
    );
}
