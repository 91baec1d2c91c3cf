//! Shape tests: the qualitative results the paper reports must hold on the
//! synthetic collection at test scale. These are the automated versions of
//! EXPERIMENTS.md's "shape expectations".

#![cfg(test)]

use eff2_eval::experiments::{exp1_curves, sweep_neighbor_marks};
use eff2_eval::{Lab, Scale};
use std::sync::OnceLock;

/// One shared lab at shape-test scale, built once (BAG clustering is the
/// expensive step).
fn lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| {
        let mut scale = Scale::new(12_000);
        scale.n_queries = 40;
        scale.k = 10;
        let dir = std::env::temp_dir().join("eff2_shape_lab");
        Lab::prepare(scale, &dir).expect("prepare lab")
    })
}

#[test]
fn table1_shapes() {
    let six = lab().six_indexes().expect("indexes");
    // BAG discards a noticeable but minority share as outliers, and the
    // share shrinks as chunks grow (SMALL discards most) — Table 1.
    let outlier_pct: Vec<f64> = six
        .iter()
        .step_by(2)
        .map(|h| h.meta.discarded as f64 / h.meta.total_input as f64)
        .collect();
    for &p in &outlier_pct {
        assert!(
            p > 0.01 && p < 0.30,
            "outlier share {p} out of the paper's regime"
        );
    }
    assert!(
        outlier_pct[0] >= outlier_pct[1] && outlier_pct[1] >= outlier_pct[2],
        "outlier share must shrink with chunk size: {outlier_pct:?}"
    );
    // Paired BAG/SR indexes have near-identical chunk counts (the SR leaf
    // size is set to BAG's average).
    for pair in six.chunks(2) {
        let (b, s) = (pair[0].meta.n_chunks as f64, pair[1].meta.n_chunks as f64);
        assert!(
            (s / b - 1.0).abs() < 0.15,
            "chunk counts diverge: {b} vs {s}"
        );
    }
}

#[test]
fn fig1_shapes() {
    let six = lab().six_indexes().expect("indexes");
    for pair in six.chunks(2) {
        let bag = &pair[0].meta;
        let sr = &pair[1].meta;
        // BAG's largest chunk dwarfs its mean (the paper's largest holds
        // >20 % of the collection); SR's largest is its mean.
        let bag_head = bag.largest_sizes[0] as f64;
        assert!(
            bag_head > 3.0 * bag.mean_chunk_size,
            "{}: head {bag_head} vs mean {}",
            bag.label,
            bag.mean_chunk_size
        );
        let sr_head = sr.largest_sizes[0] as f64;
        assert!(
            sr_head < 1.2 * sr.mean_chunk_size + 2.0,
            "{}: SR chunks must be uniform (head {sr_head}, mean {})",
            sr.label,
            sr.mean_chunk_size
        );
    }
}

#[test]
fn exp1_shapes() {
    let lab = lab();
    let curves = exp1_curves(lab).expect("curves");
    let k = curves.k;
    let get = |label: &str| {
        curves
            .per_index
            .iter()
            .find(|(l, _, _)| l == label)
            .unwrap_or_else(|| panic!("missing {label}"))
    };

    // Figure 2: on DQ, BAG needs no more chunks than SR to reach most of
    // the answer (compare at m = k/2 and m = k across size classes).
    for class in ["SMALL", "MEDIUM", "LARGE"] {
        let bag = &get(&format!("BAG / {class}")).1;
        let sr = &get(&format!("SR / {class}")).1;
        let m = k / 2;
        assert!(
            bag.chunks_for(m) <= sr.chunks_for(m) * 1.2,
            "{class}: BAG should need ≤ chunks on DQ (m={m}): {} vs {}",
            bag.chunks_for(m),
            sr.chunks_for(m)
        );
    }

    // Figure 4: on DQ, the *first* neighbours arrive no later with SR than
    // with BAG (BAG stalls on its giant chunks) — paper: "finding the
    // first neighbors takes a much longer time with the BAG chunk
    // indexes".
    let mut sr_first_wins = 0;
    for class in ["SMALL", "MEDIUM", "LARGE"] {
        let bag = &get(&format!("BAG / {class}")).1;
        let sr = &get(&format!("SR / {class}")).1;
        if sr.time_for(1) <= bag.time_for(1) {
            sr_first_wins += 1;
        }
    }
    assert!(
        sr_first_wins >= 2,
        "SR should deliver the first neighbour sooner in most size classes"
    );

    // Table 2: completion is faster with larger chunks, for both
    // strategies and both workloads; and BAG completes no later than SR.
    for prefix in ["BAG", "SR"] {
        for pick in [0usize, 1] {
            let t: Vec<f64> = ["SMALL", "MEDIUM", "LARGE"]
                .iter()
                .map(|c| {
                    let e = get(&format!("{prefix} / {c}"));
                    if pick == 0 {
                        e.1.avg_completion_secs
                    } else {
                        e.2.avg_completion_secs
                    }
                })
                .collect();
            assert!(
                t[0] >= t[1] * 0.8 && t[1] >= t[2] * 0.8,
                "{prefix} completion should shrink with chunk size: {t:?}"
            );
        }
    }
    for class in ["SMALL", "MEDIUM", "LARGE"] {
        let bag = &get(&format!("BAG / {class}")).1;
        let sr = &get(&format!("SR / {class}")).1;
        assert!(
            bag.avg_completion_secs <= sr.avg_completion_secs * 1.15,
            "{class}: BAG completes no later than SR (DQ): {} vs {}",
            bag.avg_completion_secs,
            sr.avg_completion_secs
        );
    }
}

#[test]
fn exp2_shapes() {
    // Figures 6/7: a wide flat valley — mid-range chunk sizes are all
    // near-optimal, the extremes are worse.
    let lab = lab();
    let six = lab.six_indexes().expect("indexes");
    let subset = lab.small_retained_subset(&six).expect("subset");
    let dq = lab.dq().expect("dq");
    let marks = sweep_neighbor_marks(lab.scale.k);
    let m = *marks.last().expect("marks");

    let sizes = lab.scale.sweep_sizes();
    let mut times = Vec::new();
    for &size in &sizes {
        let h = lab.sweep_index(&subset, size).expect("sweep index");
        let curve = lab.curve(&h, &dq).expect("curve");
        times.push(curve.time_for(m));
    }
    let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
    // At least half the sweep points sit within 3× of the optimum (the
    // flat valley), and at least one extreme sits outside 1.5× of it.
    let near = times.iter().filter(|&&t| t <= best * 3.0).count();
    assert!(near >= sizes.len() / 2, "valley too narrow: {times:?}");
    let worst = times.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        worst > best * 1.5,
        "sweep should show a penalty at the extremes: {times:?}"
    );
}
