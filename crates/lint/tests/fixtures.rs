//! Fixture corpus pinning each rule's positives and negatives.
//!
//! Every fixture under `tests/fixtures/` marks its expected findings with
//! trailing `//~ <rule>` markers (one rule id per expected finding on that
//! line). The harness lints each fixture through the public
//! [`eff2_lint::lint_source`] API and asserts the `(line, rule)` multiset
//! matches the markers exactly — so a rule that over- or under-fires by a
//! single line fails loudly, with the fixture documenting the intent.

use eff2_lint::lint_source;

/// Parses `//~ rule [rule…]` markers into a sorted `(line, rule)` list.
fn expected_markers(source: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        if let Some(at) = line.find("//~") {
            let rest = line.get(at + 3..).unwrap_or("");
            for rule in rest.split_whitespace() {
                out.push((i as u32 + 1, rule.to_string()));
            }
        }
    }
    out.sort();
    out
}

/// Lints `source` and reduces findings to a sorted `(line, rule)` list.
fn findings_of(crate_name: &str, name: &str, source: &str) -> Vec<(u32, String)> {
    let mut got: Vec<(u32, String)> = lint_source(crate_name, name, source)
        .into_iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    got.sort();
    got
}

macro_rules! fixture_test {
    ($test:ident, $crate_name:literal, $file:literal) => {
        #[test]
        fn $test() {
            let source = include_str!(concat!("fixtures/", $file));
            assert_eq!(
                findings_of($crate_name, $file, source),
                expected_markers(source),
                "fixture {} linted as crate `{}`",
                $file,
                $crate_name
            );
        }
    };
}

/// Lints several fixtures as one mini-workspace (so the call graph
/// crosses crate boundaries) and asserts the `(file, line, rule)`
/// multiset across all files matches the markers exactly.
fn group_check(files: &[(&str, &str, &str)]) {
    let inputs: Vec<(String, String, String)> = files
        .iter()
        .map(|(c, f, s)| ((*c).to_string(), (*f).to_string(), (*s).to_string()))
        .collect();
    let mut expected: Vec<(String, u32, String)> = Vec::new();
    for (_, file, source) in files {
        for (line, rule) in expected_markers(source) {
            expected.push(((*file).to_string(), line, rule));
        }
    }
    expected.sort();
    let mut got: Vec<(String, u32, String)> = eff2_lint::lint_files(&inputs)
        .findings
        .into_iter()
        .map(|f| (f.file, f.line, f.rule.to_string()))
        .collect();
    got.sort();
    let names: Vec<&str> = files.iter().map(|(_, f, _)| *f).collect();
    assert_eq!(got, expected, "fixture group {names:?}");
}

fixture_test!(panic_unwrap, "core", "panic_unwrap.rs");
fixture_test!(panic_macro, "core", "panic_macro.rs");
fixture_test!(panic_index, "core", "panic_index.rs");
fixture_test!(det_hash_container, "storage", "det_hash_container.rs");
fixture_test!(det_wall_clock, "core", "det_wall_clock.rs");
fixture_test!(det_float_accum, "core", "det_float_accum.rs");
fixture_test!(
    det_float_accum_training,
    "descriptor",
    "det_float_accum_training.rs"
);
fixture_test!(det_thread_spawn, "serve", "det_thread_spawn.rs");
fixture_test!(det_shard_iteration, "shard", "det_shard_iteration.rs");
fixture_test!(err_box_error, "descriptor", "err_box_error.rs");
fixture_test!(err_string_error, "descriptor", "err_string_error.rs");
fixture_test!(hyg_print, "descriptor", "hyg_print.rs");
fixture_test!(hyg_waiver, "core", "hyg_waiver.rs");
fixture_test!(waivers_ok, "core", "waivers_ok.rs");
fixture_test!(tricky_lexing, "core", "tricky_lexing.rs");
fixture_test!(clock_consume, "serve", "clock_consume_serve.rs");

#[test]
fn det_taint_crosses_crates_and_respects_waivers() {
    // Positive: depth-2 chain core::api -> srtree::middle -> srtree::leaf
    // -> HashMap, where the source crate is outside the determinism scope
    // (no line rule fires there). Negatives: waived-at-entry, integer sum.
    group_check(&[
        (
            "core",
            "taint_entry_core.rs",
            include_str!("fixtures/taint_entry_core.rs"),
        ),
        (
            "srtree",
            "taint_helper_srtree.rs",
            include_str!("fixtures/taint_helper_srtree.rs"),
        ),
    ]);
}

#[test]
fn panic_reach_crosses_crates_and_respects_waivers() {
    // Positive: storage::load_all reaches the unwaived unwrap in
    // json::parse_or_die. Negatives: waived at the entry, and waived at
    // the source site (which cuts every chain through it).
    group_check(&[
        (
            "storage",
            "reach_entry_storage.rs",
            include_str!("fixtures/reach_entry_storage.rs"),
        ),
        (
            "json",
            "reach_helper_json.rs",
            include_str!("fixtures/reach_helper_json.rs"),
        ),
    ]);
}

#[test]
fn taint_chain_reports_every_hop_with_file_and_line() {
    let inputs = vec![
        (
            "core".to_string(),
            "taint_entry_core.rs".to_string(),
            include_str!("fixtures/taint_entry_core.rs").to_string(),
        ),
        (
            "srtree".to_string(),
            "taint_helper_srtree.rs".to_string(),
            include_str!("fixtures/taint_helper_srtree.rs").to_string(),
        ),
    ];
    let report = eff2_lint::lint_files(&inputs);
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "det.taint")
        .expect("the transitive positive must survive");
    // api -> middle -> leaf: three hops, each carrying file:line.
    assert_eq!(finding.chain.len(), 3, "chain: {:?}", finding.chain);
    assert!(finding
        .chain
        .iter()
        .all(|h| h.line > 0 && !h.file.is_empty()));
    assert!(
        finding
            .message
            .contains("-> HashMap @ taint_helper_srtree.rs:"),
        "evidence must name the source site: {}",
        finding.message
    );
}

#[test]
fn taint_propagation_terminates_on_call_cycles() {
    // ping <-> pong is a cycle; the BFS visited-set terminates it and the
    // source behind the cycle is still reported exactly once at the entry.
    let src = "pub fn entry() { ping(); }\n\
               fn ping() { pong(); }\n\
               fn pong() { ping(); sink(); }\n\
               fn sink() { let m = std::collections::HashMap::new(); m.clear(); }\n";
    assert_eq!(
        findings_of("core", "cycle.rs", src),
        vec![
            (1, "det.taint".to_string()),
            (4, "det.hash_container".to_string()),
        ]
    );
}

#[test]
fn det_rules_scope_to_deterministic_crates() {
    // The same sources linted as a non-deterministic crate must be silent.
    for source in [
        include_str!("fixtures/det_hash_container.rs"),
        include_str!("fixtures/det_float_accum.rs"),
        include_str!("fixtures/det_float_accum_training.rs"),
    ] {
        assert_eq!(findings_of("bag", "fixture.rs", source), Vec::new());
    }
}

#[test]
fn det_rules_cover_the_descriptor_crate() {
    // Codec and codebook training live in `descriptor` and their outputs
    // are persisted into chunk files: the crate is inside the determinism
    // scope, so training-shaped float accumulation fires there.
    for (name, source) in [
        (
            "det_float_accum_training.rs",
            include_str!("fixtures/det_float_accum_training.rs"),
        ),
        (
            "det_hash_container.rs",
            include_str!("fixtures/det_hash_container.rs"),
        ),
    ] {
        assert_eq!(
            findings_of("descriptor", name, source),
            expected_markers(source),
            "fixture {name} linted as crate `descriptor`"
        );
    }
}

#[test]
fn det_rules_cover_the_chaos_crate() {
    // Fault schedules feed reported figures: the chaos crate is inside the
    // determinism scope, so the same fixtures fire there exactly as they
    // do in core/storage.
    for (name, source) in [
        (
            "det_hash_container.rs",
            include_str!("fixtures/det_hash_container.rs"),
        ),
        (
            "det_float_accum.rs",
            include_str!("fixtures/det_float_accum.rs"),
        ),
        (
            "det_wall_clock.rs",
            include_str!("fixtures/det_wall_clock.rs"),
        ),
    ] {
        assert_eq!(
            findings_of("chaos", name, source),
            expected_markers(source),
            "fixture {name} linted as crate `chaos`"
        );
    }
}

#[test]
fn det_rules_cover_the_epoch_crate() {
    // Compaction folds and generation files feed every served result: the
    // epoch crate is inside the determinism scope, so hash-iteration,
    // float-accumulation and wall-clock fixtures fire there exactly as
    // they do in core/storage.
    for (name, source) in [
        (
            "det_hash_container.rs",
            include_str!("fixtures/det_hash_container.rs"),
        ),
        (
            "det_float_accum.rs",
            include_str!("fixtures/det_float_accum.rs"),
        ),
        (
            "det_wall_clock.rs",
            include_str!("fixtures/det_wall_clock.rs"),
        ),
    ] {
        assert_eq!(
            findings_of("epoch", name, source),
            expected_markers(source),
            "fixture {name} linted as crate `epoch`"
        );
    }
}

#[test]
fn hyg_print_exempts_cli_crates() {
    let source = include_str!("fixtures/hyg_print.rs");
    assert_eq!(findings_of("eval", "fixture.rs", source), Vec::new());
    assert_eq!(findings_of("lint", "fixture.rs", source), Vec::new());
}

#[test]
fn wall_clock_exempts_the_disk_model() {
    let source = include_str!("fixtures/det_wall_clock.rs");
    assert_eq!(
        findings_of("storage", "crates/storage/src/diskmodel.rs", source),
        Vec::new()
    );
}

#[test]
fn thread_spawn_exempts_the_parallel_crate() {
    let source = include_str!("fixtures/det_thread_spawn.rs");
    assert_eq!(findings_of("parallel", "fixture.rs", source), Vec::new());
}

#[test]
fn every_rule_has_fixture_coverage() {
    // ≥1 positive marker per rule across the corpus, so adding a rule
    // without a fixture fails here.
    let corpus = [
        include_str!("fixtures/panic_unwrap.rs"),
        include_str!("fixtures/panic_macro.rs"),
        include_str!("fixtures/panic_index.rs"),
        include_str!("fixtures/det_hash_container.rs"),
        include_str!("fixtures/det_wall_clock.rs"),
        include_str!("fixtures/det_float_accum.rs"),
        include_str!("fixtures/det_float_accum_training.rs"),
        include_str!("fixtures/det_thread_spawn.rs"),
        include_str!("fixtures/err_box_error.rs"),
        include_str!("fixtures/err_string_error.rs"),
        include_str!("fixtures/hyg_print.rs"),
        include_str!("fixtures/hyg_waiver.rs"),
        include_str!("fixtures/taint_entry_core.rs"),
        include_str!("fixtures/reach_entry_storage.rs"),
        include_str!("fixtures/clock_consume_serve.rs"),
    ];
    for rule in eff2_lint::RULES {
        let covered = corpus
            .iter()
            .any(|s| expected_markers(s).iter().any(|(_, r)| r == rule.id));
        assert!(covered, "rule `{}` has no fixture positive", rule.id);
    }
}
