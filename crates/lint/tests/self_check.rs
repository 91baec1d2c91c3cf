//! The auditor's own acceptance test: the real workspace must lint clean.
//!
//! This is what keeps the invariants *enforced* rather than aspirational —
//! any new `.unwrap()` in a library path, `HashMap` in a deterministic
//! crate, or waiver without a reason fails the test suite, not just the
//! optional CLI run.

use std::path::Path;

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
fn workspace_has_no_unwaived_interprocedural_findings() {
    // The interprocedural families get their own named gate: a taint
    // chain, a panic-reachable public API, or a clock-discipline breach
    // anywhere in the real workspace must be fixed or explicitly waived.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = eff2_lint::lint_workspace(&root).expect("walk the workspace tree");
    let interprocedural: Vec<String> = findings
        .iter()
        .filter(|f| matches!(f.rule, "det.taint" | "panic.reach" | "clock.discipline"))
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        interprocedural.is_empty(),
        "unwaived interprocedural finding(s):\n{}",
        interprocedural.join("\n")
    );
}

#[test]
fn workspace_has_one_benchmark_harness() {
    // Every number a claim may cite comes from `perfbench/` (its own
    // workspace, declared in BENCHMARK.json). A `[[bench]]` target or a
    // criterion dependency in this workspace would be a second harness
    // that no claim may cite — keep it from growing back.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut manifests = vec![
        root.join("Cargo.toml"),
        root.join("examples/Cargo.toml"),
        root.join("tests/Cargo.toml"),
    ];
    for members in ["crates", "shims"] {
        let dir = std::fs::read_dir(root.join(members)).expect("list workspace members");
        manifests.extend(dir.map(|e| e.expect("dir entry").path().join("Cargo.toml")));
    }
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

#[test]
fn workspace_findings_render_as_json() {
    // The JSON mode must stay parseable by eff2-json itself (round-trip on
    // the clean-workspace empty array, plus a synthetic finding).
    let json = eff2_lint::findings_to_json(&[]);
    assert_eq!(json.trim(), "[]");
}

#[test]
fn json_schema_snapshot_includes_chain_evidence() {
    // Serialized-schema snapshot: downstream tooling keys on these exact
    // field names (`rule`/`file`/`line`/`message`/`chain[].fn`), so a
    // rename must fail a test, not a consumer.
    let finding = eff2_lint::Finding {
        rule: "det.taint",
        file: "crates/core/src/lib.rs".to_string(),
        line: 7,
        message: "public API `core::api` can reach a nondeterminism source".to_string(),
        chain: vec![
            eff2_lint::Hop {
                name: "core::api".to_string(),
                file: "crates/core/src/lib.rs".to_string(),
                line: 7,
            },
            eff2_lint::Hop {
                name: "srtree::leaf".to_string(),
                file: "crates/srtree/src/lib.rs".to_string(),
                line: 3,
            },
        ],
    };
    let expected = concat!(
        "[{\"rule\":\"det.taint\",\"file\":\"crates/core/src/lib.rs\",\"line\":7,",
        "\"message\":\"public API `core::api` can reach a nondeterminism source\",",
        "\"chain\":[",
        "{\"fn\":\"core::api\",\"file\":\"crates/core/src/lib.rs\",\"line\":7},",
        "{\"fn\":\"srtree::leaf\",\"file\":\"crates/srtree/src/lib.rs\",\"line\":3}",
        "]}]"
    );
    assert_eq!(eff2_lint::findings_to_json(&[finding]), expected);
    // The round trip through the workspace's own parser must also hold.
    let parsed = eff2_json::Json::parse(expected).expect("snapshot is valid JSON");
    let arr = parsed.as_arr().expect("top level is an array");
    assert_eq!(arr.len(), 1);
}

#[test]
fn findings_come_out_sorted_and_deterministic() {
    // `--json` output is diffable only if ordering is pinned: findings
    // sort by (file, line, rule, message) and repeat runs agree exactly.
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
