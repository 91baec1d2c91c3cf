//! Fixture corpus pinning each rule's positives and negatives.
//!
//! Every fixture under `tests/fixtures/` marks its expected findings with
//! trailing `//~ <rule>` markers (one rule id per expected finding on that
//! line). The harness lints each fixture through the public
//! [`eff2_lint::lint_source`] API and asserts the `(line, rule)` multiset
//! matches the markers exactly — so a rule that over- or under-fires by a
//! single line fails loudly, with the fixture documenting the intent.

#![cfg(test)]

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

fixture_test!(det_float_accum, "core", "det_float_accum.rs");
fixture_test!(
    det_float_accum_training,
    "descriptor",
    "det_float_accum_training.rs"
);
fixture_test!(err_box_error, "descriptor", "err_box_error.rs");
fixture_test!(err_string_error, "descriptor", "err_string_error.rs");
fixture_test!(tricky_lexing, "core", "tricky_lexing.rs");

/// Asserts every determinism fixture, linted as a file of `crate_name`,
/// yields exactly the findings its markers name.
fn assert_det_fixtures_fire_in(crate_name: &str) {
    let fixtures = [
        (
            "det_float_accum.rs",
            include_str!("fixtures/det_float_accum.rs"),
        ),
        (
            "det_float_accum_training.rs",
            include_str!("fixtures/det_float_accum_training.rs"),
        ),
    ];
    for (name, source) in fixtures {
        let path = format!("crates/{crate_name}/src/{name}");
        assert_eq!(
            findings_of(crate_name, &path, source),
            expected_markers(source),
            "fixture {name} linted as crate `{crate_name}`"
        );
    }
}

#[test]
fn det_rules_apply_in_every_crate() {
    // Every crate — read from the filesystem, so a new one is covered
    // without editing a list — gets exactly the determinism findings the
    // markers name: no crate is exempt from them.
    let crates_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut crates: Vec<String> = std::fs::read_dir(&crates_dir)
        .expect("list crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
        .collect();
    crates.sort();
    assert!(crates.len() > 10, "the walk found the crates: {crates:?}");
    for crate_name in &crates {
        assert_det_fixtures_fire_in(crate_name);
    }
}

#[test]
fn det_rules_cover_the_descriptor_crate() {
    // Codec and codebook training outputs are persisted into chunk files.
    assert_det_fixtures_fire_in("descriptor");
}

#[test]
fn det_rules_cover_the_chaos_crate() {
    // Fault schedules feed reported figures.
    assert_det_fixtures_fire_in("chaos");
}

#[test]
fn det_rules_cover_the_epoch_crate() {
    // Compaction folds and generation files feed every served result.
    assert_det_fixtures_fire_in("epoch");
}

#[test]
fn every_rule_has_fixture_coverage() {
    // ≥1 positive marker per rule across the corpus, so adding a rule
    // without a fixture fails here.
    let corpus = [
        include_str!("fixtures/det_float_accum.rs"),
        include_str!("fixtures/det_float_accum_training.rs"),
        include_str!("fixtures/err_box_error.rs"),
        include_str!("fixtures/err_string_error.rs"),
    ];
    for rule in eff2_lint::RULES {
        let covered = corpus
            .iter()
            .any(|s| expected_markers(s).iter().any(|(_, r)| r == rule.id));
        assert!(covered, "rule `{}` has no fixture positive", rule.id);
    }
}
