//! `BENCHMARK.json` and `spec.rs` declare the same benchmark.

use eff2_json::Json;
use eff2_perfbench::spec::{END_TO_END, PER_LAYER};
use eff2_perfbench::workloads::NAMES;

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("array")
        .iter()
        .map(|m| {
            m.field("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let Json::Obj(pairs) = declared() else {
        panic!("BENCHMARK.json is not an object");
    };
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}

#[test]
fn workloads_and_paths_match() {
    let json = declared();
    // `live_mixed` is built and runnable but not handed to the driver: its
    // wall clock follows the sandbox's disk, not the program (see README).
    let driven: Vec<&str> = NAMES.into_iter().filter(|n| *n != "live_mixed").collect();
    assert_eq!(names(json.field("workloads").expect("workloads")), driven);
    for w in json
        .field("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
    {
        let why = w.field("why").and_then(Json::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let paths = json.field("paths").and_then(Json::as_arr).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str().expect("path"), "perfbench");
}

#[test]
fn end_to_end_metrics_match_in_name_unit_direction_and_bound() {
    let json = declared();
    let list = json
        .field("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(list.len(), END_TO_END.len());
    for (got, want) in list.iter().zip(&END_TO_END) {
        assert_eq!(
            got.field("name").and_then(Json::as_str).expect("name"),
            want.name
        );
        assert_eq!(
            got.field("unit").and_then(Json::as_str).expect("unit"),
            want.unit
        );
        let better = if want.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(
            got.field("better").and_then(Json::as_str).expect("better"),
            better
        );
        let bound = got.field("bound").and_then(Json::as_f64).expect("bound");
        assert_eq!(bound, want.bound, "{}", want.name);
        assert!((0.0..=0.25).contains(&bound));
    }
    assert_eq!(END_TO_END[0].name, "setup_s");
}

#[test]
fn per_layer_metrics_match_in_name_and_unit() {
    let json = declared();
    let list = json
        .field("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert_eq!(list.len(), PER_LAYER.len());
    assert!(list.len() <= 128);
    for (got, (name, unit)) in list.iter().zip(PER_LAYER) {
        assert_eq!(
            got.field("name").and_then(Json::as_str).expect("name"),
            name
        );
        assert_eq!(
            got.field("unit").and_then(Json::as_str).expect("unit"),
            unit
        );
        assert!(matches!(
            got.field("better").and_then(Json::as_str).expect("better"),
            "higher" | "lower"
        ));
    }
}
