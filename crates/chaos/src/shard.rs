//! Whole-shard-down faults for fleet serving.
//!
//! A [`ShardFaultPlan`] decrees which shard *nodes* are unavailable for
//! the duration of a run — the coarse-grained failure mode replication
//! exists for. Like every other schedule in this crate it is a pure
//! function of its inputs, so fleet chaos runs are replayable and tests
//! can assert the routing consequences exactly.
//!
//! Shard-down is modelled as a *static* property of the run (the node is
//! down before the first query arrives and stays down). That keeps routing
//! deterministic per query — a chunk's live owner is a function of the
//! placement map and the down flags alone, whenever the serving engine
//! asks — and matches the recovery story: a node that dies mid-epoch is
//! drained and the epoch replayed, exactly as the deterministic-replay
//! design (DESIGN.md) prescribes.

/// An explicit schedule of downed shard nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardFaultPlan {
    /// Downed shard ids (sorted, deduplicated).
    fixed: Vec<u32>,
}

impl ShardFaultPlan {
    /// No shard is ever down.
    pub fn none() -> ShardFaultPlan {
        ShardFaultPlan { fixed: Vec::new() }
    }

    /// Exactly the listed shards are down.
    pub fn fixed(shards: &[u32]) -> ShardFaultPlan {
        let mut fixed = shards.to_vec();
        fixed.sort_unstable();
        fixed.dedup();
        ShardFaultPlan { fixed }
    }

    /// Whether anything can ever be down under this plan.
    pub fn is_quiet(&self) -> bool {
        self.fixed.is_empty()
    }

    /// The down flags for a fleet of `n_shards` nodes — the routing table
    /// input (`ShardMap::route` takes exactly this shape).
    pub fn down_mask(&self, n_shards: usize) -> Vec<bool> {
        (0..n_shards)
            .map(|s| self.fixed.binary_search(&(s as u32)).is_ok())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_downs_nothing() {
        let plan = ShardFaultPlan::none();
        assert!(plan.is_quiet());
        assert!(plan.down_mask(16).iter().all(|&d| !d));
    }

    #[test]
    fn fixed_downs_exactly_the_listed_shards() {
        let plan = ShardFaultPlan::fixed(&[3, 1, 3]);
        assert!(!plan.is_quiet());
        assert_eq!(plan.down_mask(5), vec![false, true, false, true, false]);
    }
}
