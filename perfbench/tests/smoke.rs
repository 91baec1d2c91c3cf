//! The smoke run: every workload at 2 500 descriptors, one round, traced,
//! twice in one process. The correctness check must pass, every declared
//! metric must be present and finite for every workload, and everything
//! computed on the virtual clock or as a count must repeat exactly.

use eff2_perfbench::fixtures::Scale;
use eff2_perfbench::runner::{run, Options, Outcome};
use eff2_perfbench::spec::{is_count, DETERMINISTIC, END_TO_END, PER_LAYER};
use eff2_perfbench::workloads::NAMES;

fn smoke() -> Vec<Outcome> {
    let opts = Options {
        workloads: NAMES.iter().map(|n| n.to_string()).collect(),
        seed: 7,
        seconds: 0.0,
        trace: true,
        scale: Scale::SMOKE,
    };
    run(&opts).expect("smoke run")
}

#[test]
fn smoke_run_is_correct_complete_and_deterministic() {
    let (first, second) = (smoke(), smoke());
    assert_eq!(first.len(), NAMES.len());
    for (a, b) in first.iter().zip(&second) {
        let w = &a.workload;
        assert_eq!(a.workload, b.workload);
        assert!(
            a.correct() && b.correct(),
            "{w}: {} / {} ops failed",
            a.failed,
            b.failed
        );
        assert!(
            a.attempted >= 40,
            "{w}: a pass and a verification of >= 20 ops each"
        );
        assert_eq!(a.attempted, b.attempted, "{w}: attempted");
        for m in &END_TO_END {
            let v = a
                .end_to_end
                .get(m.name)
                .unwrap_or_else(|| panic!("{w}: {} missing", m.name));
            assert!(v.is_finite() && *v > 0.0, "{w}: {} = {v}", m.name);
        }
        for name in DETERMINISTIC {
            assert_eq!(
                a.end_to_end[name].to_bits(),
                b.end_to_end[name].to_bits(),
                "{w}: {name} must repeat exactly"
            );
        }
        for (name, _) in PER_LAYER {
            let v = a
                .per_layer
                .get(name)
                .unwrap_or_else(|| panic!("{w}: {name} missing"));
            assert!(v.is_finite(), "{w}: {name} = {v}");
            if is_count(name) {
                assert_eq!(
                    v.to_bits(),
                    b.per_layer[name].to_bits(),
                    "{w}: count {name} must repeat exactly"
                );
            }
        }
    }
    // The traced solo drivers returned the one-call answers (checked op by
    // op inside `traced_op`, counted in `failed`), and recorded spans.
    for o in &first[..3] {
        assert!(o.per_layer["trace.spans_per_op"] >= 10.0, "{}", o.workload);
        assert!(o.per_layer["trace.overhead_ratio"] > 0.0, "{}", o.workload);
    }
}
