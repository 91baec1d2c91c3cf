//! Shard placement feeds routed-owner tables and imbalance figures:
//! iterating chunk → shard assignments in hash order would scramble
//! primary election and the per-shard counts the experiments report.

use std::collections::BTreeMap;
use std::collections::HashMap; //~ det.hash_container

pub fn primary_counts_unordered(owners: &HashMap<usize, u32>) -> Vec<usize> { //~ det.hash_container
    let mut counts = vec![0usize; 4];
    for (_chunk, &shard) in owners.iter() {
        counts[shard as usize] += 1; //~ panic.index
    }
    counts
}

/// The deterministic shape: chunk ids iterate in sorted order, so shard
/// election ties always break the same way.
pub fn primary_counts_ordered(owners: &BTreeMap<usize, u32>) -> Vec<usize> {
    let mut counts = vec![0usize; 4];
    for (_chunk, &shard) in owners.iter() {
        counts[shard as usize] += 1; //~ panic.index
    }
    counts
}
