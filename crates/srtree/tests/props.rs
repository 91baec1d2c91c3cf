//! Property-based tests for the SR-tree's static build: the uniform-leaf
//! guarantee over arbitrary point sets.

#![cfg(test)]

use eff2_descriptor::{Descriptor, DescriptorSet, Vector, DIM};
use eff2_srtree::bulk::build_leaf_partitions;
use proptest::prelude::*;

fn arb_vector() -> impl Strategy<Value = Vector> {
    proptest::collection::vec(-100.0f32..100.0, DIM).prop_map(|v| Vector::from_slice(&v))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Vector>> {
    proptest::collection::vec(arb_vector(), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn static_build_leaves_are_uniform(points in arb_points(400), leaf in 2usize..50) {
        let set: DescriptorSet = points
            .iter()
            .enumerate()
            .map(|(i, p)| Descriptor::new(i as u32, *p))
            .collect();
        let leaves = build_leaf_partitions(&set, leaf);
        let n = set.len();
        let l = n.div_ceil(leaf);
        prop_assert_eq!(leaves.len(), l);
        let (lo, hi) = (n / l, n.div_ceil(l));
        let mut seen = vec![false; n];
        for leaf in &leaves {
            prop_assert!(leaf.len() == lo || leaf.len() == hi, "leaf {} not in [{lo},{hi}]", leaf.len());
            for &p in leaf {
                prop_assert!(!seen[p as usize]);
                seen[p as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
