//! Seeded insert/delete mutation traces for live-serving experiments.
//!
//! The exp8 sweep serves queries while a write stream mutates the index.
//! [`skewed_mutation_trace`] builds that stream: inserts land *near a
//! Zipf-chosen anchor descriptor* — a few hot regions take most of the
//! new rows, which is exactly the skew that bloats one chunk and makes
//! online rebalancing worth measuring — while deletes tombstone uniform
//! base rows. Like every other workload generator the trace is pure in
//! its seed.
//!
//! The trace is serve-agnostic (plain ids, vectors and arrival seconds);
//! the serving layer converts it into its own event type.

use crate::arrivals::poisson_arrivals;
use crate::skew::zipf_assignments;
use eff2_descriptor::{DescriptorSet, Vector, DIM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One mutation, serve-agnostic.
#[derive(Clone, Debug, PartialEq)]
pub enum MutationOp {
    /// Insert (or supersede) descriptor `id` with `vector`.
    Insert {
        /// Fresh descriptor id (above every base id).
        id: u32,
        /// The new descriptor.
        vector: Vector,
    },
    /// Tombstone descriptor `id`.
    Delete {
        /// A base descriptor id.
        id: u32,
    },
}

/// A mutation arriving at a virtual instant.
#[derive(Clone, Debug, PartialEq)]
pub struct MutationEvent {
    /// Arrival time in virtual seconds (non-decreasing along the trace).
    pub at_secs: f64,
    /// The mutation.
    pub op: MutationOp,
}

/// A named, time-ordered mutation stream.
#[derive(Clone, Debug, PartialEq)]
pub struct MutationTrace {
    /// Trace name for tables and CSV (records rate and skew).
    pub name: String,
    /// Events in arrival order.
    pub events: Vec<MutationEvent>,
}

impl MutationTrace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Number of hot anchor descriptors the Zipf law ranks.
const N_ANCHORS: usize = 32;

/// Builds a mutation stream of `n_ops` events arriving Poisson at
/// `rate_ops_per_sec`: a fraction `insert_frac` are inserts whose vectors
/// sit within a small jitter of a Zipf(`zipf_exponent`)-chosen anchor
/// descriptor of `set` (hot clusters under skew); the rest delete
/// uniformly-chosen base ids. Insert ids start one above the largest base
/// id, so they never collide with the collection. Deterministic per seed.
///
/// # Panics
///
/// Panics if `set` is empty, `insert_frac` is outside `[0, 1]`, or the
/// rate is not positive (same contract as [`poisson_arrivals`]).
pub fn skewed_mutation_trace(
    set: &DescriptorSet,
    n_ops: usize,
    insert_frac: f64,
    rate_ops_per_sec: f64,
    zipf_exponent: f64,
    seed: u64,
) -> MutationTrace {
    assert!(!set.is_empty(), "cannot mutate an empty collection");
    assert!(
        (0.0..=1.0).contains(&insert_frac),
        "insert_frac must be in [0, 1], got {insert_frac}"
    );
    let arrivals = poisson_arrivals(n_ops, rate_ops_per_sec, seed);
    let anchors = zipf_assignments(
        n_ops,
        N_ANCHORS.min(set.len()),
        zipf_exponent,
        seed ^ 0x5eed,
    );
    let max_base_id = (0..set.len()).map(|i| set.id(i).0).max().unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let mut next_id = max_base_id + 1;
    let events = arrivals
        .arrivals
        .iter()
        .zip(anchors.iter())
        .map(|(&at_secs, &anchor)| {
            let op = if rng.gen::<f64>() < insert_frac {
                // Anchor buckets spread across the collection so "hot"
                // means a hot *region*, not just low positions.
                let pos = (anchor as usize * 97) % set.len();
                let mut vector = set.vector_owned(pos);
                for d in 0..DIM {
                    vector[d] += rng.gen_range(-0.25f32..0.25);
                }
                let id = next_id;
                next_id += 1;
                MutationOp::Insert { id, vector }
            } else {
                MutationOp::Delete {
                    id: set.id(rng.gen_range(0..set.len())).0,
                }
            };
            MutationEvent { at_secs, op }
        })
        .collect();
    MutationTrace {
        name: format!("zipf{zipf_exponent}/ins{insert_frac}/{rate_ops_per_sec}ops"),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::Descriptor;

    fn clustered_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let mut v = Vector::splat((i % 7) as f32 * 10.0);
                v[2] += (i / 7) as f32 * 0.1;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let set = clustered_set(200);
        let a = skewed_mutation_trace(&set, 100, 0.8, 50.0, 1.0, 7);
        let b = skewed_mutation_trace(&set, 100, 0.8, 50.0, 1.0, 7);
        assert_eq!(a, b);
        let c = skewed_mutation_trace(&set, 100, 0.8, 50.0, 1.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_sorted_and_frac_is_respected() {
        let set = clustered_set(200);
        let t = skewed_mutation_trace(&set, 400, 0.75, 100.0, 1.0, 3);
        assert_eq!(t.len(), 400);
        for w in t.events.windows(2) {
            assert!(w[0].at_secs <= w[1].at_secs, "arrivals must not go back");
        }
        let inserts = t
            .events
            .iter()
            .filter(|e| matches!(e.op, MutationOp::Insert { .. }))
            .count();
        assert!(
            (220..=380).contains(&inserts),
            "~75% of 400 ops should be inserts, got {inserts}"
        );
    }

    #[test]
    fn insert_ids_are_fresh_and_deletes_are_base_ids() {
        let set = clustered_set(150);
        let t = skewed_mutation_trace(&set, 200, 0.5, 50.0, 1.0, 11);
        for e in &t.events {
            match &e.op {
                MutationOp::Insert { id, .. } => assert!(*id >= 150, "fresh id, got {id}"),
                MutationOp::Delete { id } => assert!(*id < 150, "base id, got {id}"),
            }
        }
    }

    #[test]
    fn skewed_inserts_concentrate_on_hot_anchors() {
        let set = clustered_set(200);
        let hot = skewed_mutation_trace(&set, 300, 1.0, 100.0, 1.5, 5);
        // Bucket inserts by their nearest anchor position; under a strong
        // Zipf law the hottest anchor takes far more than a uniform share.
        let mut by_anchor = std::collections::BTreeMap::new();
        for e in &hot.events {
            if let MutationOp::Insert { vector, .. } = &e.op {
                let nearest = (0..set.len())
                    .map(|i| (i, set.vector(i)))
                    .min_by(|a, b| {
                        eff2_descriptor::l2_sq(&vector.0, a.1)
                            .total_cmp(&eff2_descriptor::l2_sq(&vector.0, b.1))
                            .then(a.0.cmp(&b.0))
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                *by_anchor.entry(nearest).or_insert(0usize) += 1;
            }
        }
        let top = by_anchor.values().copied().max().unwrap_or(0);
        assert!(
            top > 300 / N_ANCHORS * 3,
            "the hottest anchor must take several uniform shares, got {top}"
        );
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn empty_collection_is_refused() {
        skewed_mutation_trace(&DescriptorSet::new(), 5, 0.5, 10.0, 1.0, 0);
    }
}
