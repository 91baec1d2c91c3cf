//! The current-neighbour set maintained during a chunk scan.
//!
//! This lives in the descriptor crate (rather than `eff2-core`, which
//! re-exports it) so the fused scan kernel in [`crate::kernels`] can fold
//! the top-k offer loop directly into the blocked distance computation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One search answer: a descriptor identifier and its distance to the
/// query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Descriptor identifier.
    pub id: u32,
    /// Euclidean distance to the query.
    pub dist: f32,
}

/// A bounded max-heap holding the best `k` neighbours seen so far.
///
/// "This might in turn update the current set of neighbors" (§4.3): every
/// scanned descriptor is offered; only improvements are retained.
///
/// Candidates are totally ordered by `(dist_sq, id)`, so the retained set
/// is the exact k smallest under that order **regardless of offer order**.
/// That determinism is what lets the batched scan kernels and the parallel
/// batch driver produce bit-identical results to a sequential scan even
/// when distance ties cross the kth boundary.
#[derive(Debug)]
pub struct NeighborSet {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

#[derive(Debug)]
struct HeapEntry {
    dist_sq: f32,
    id: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq && self.id == other.id
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq
            .total_cmp(&other.dist_sq)
            .then(self.id.cmp(&other.id))
    }
}

impl NeighborSet {
    /// Creates a set that retains the best `k` offers. `k == 0` is a valid
    /// degenerate set that accepts nothing (used by the k = 0 search path).
    pub fn new(k: usize) -> Self {
        NeighborSet {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbours currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no neighbour has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `k` neighbours are held.
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// Offers a candidate with **squared** distance; returns whether it was
    /// accepted. Ties at the kth boundary break towards the smaller id, so
    /// the retained set does not depend on offer order.
    #[inline]
    pub fn offer(&mut self, id: u32, dist_sq: f32) -> bool {
        if self.k == 0 {
            return false;
        }
        let accepted = if self.heap.len() < self.k {
            self.heap.push(HeapEntry { dist_sq, id });
            true
        } else if self.heap.peek().is_some_and(|worst| {
            dist_sq < worst.dist_sq || (dist_sq == worst.dist_sq && id < worst.id)
        }) {
            self.heap.pop();
            self.heap.push(HeapEntry { dist_sq, id });
            true
        } else {
            false
        };
        debug_assert!(
            self.heap.len() <= self.k,
            "neighbour set must never exceed k entries"
        );
        self.check_strict();
        accepted
    }

    /// [`offer`](Self::offer) for a stream that may repeat itself: a
    /// candidate whose id the set already holds is refused and the set is
    /// left unchanged. A scan offers every descriptor once and wants plain
    /// `offer`; a scatter–gather merge is re-told each leg's retained set
    /// after every chunk and wants this, which makes the re-telling
    /// idempotent — a held id is refused here, an evicted id no longer
    /// passes the acceptance test. That test runs first, so the linear id
    /// check (≤ k entries) is paid only by candidates that would get in.
    pub fn offer_distinct(&mut self, id: u32, dist_sq: f32) -> bool {
        let could_enter = !self.is_full()
            || self
                .heap
                .peek()
                .is_some_and(|worst| HeapEntry { dist_sq, id } < *worst);
        could_enter && !self.heap.iter().any(|e| e.id == id) && self.offer(id, dist_sq)
    }

    /// Expensive O(k·log k) structural checks behind the `strict-invariants`
    /// feature: the heap top really is the maximum under `(dist_sq, id)` and
    /// [`Self::sorted`] is monotone. Debug builds without the feature pay
    /// only the O(1) size assertion above.
    #[cfg(feature = "strict-invariants")]
    fn check_strict(&self) {
        if let Some(top) = self.heap.peek() {
            debug_assert!(
                self.heap.iter().all(|e| e <= top),
                "heap top must dominate every retained entry"
            );
        }
        let sorted = self.sorted();
        debug_assert!(
            sorted
                .windows(2)
                .all(|w| w.first().map(|n| n.dist) <= w.get(1).map(|n| n.dist)),
            "sorted() must be non-decreasing in distance"
        );
    }

    #[cfg(not(feature = "strict-invariants"))]
    #[inline(always)]
    fn check_strict(&self) {}

    /// The current kth-best (i.e. worst retained) squared distance, or
    /// `f32::INFINITY` while fewer than `k` neighbours are held (any
    /// candidate would still be accepted).
    pub(crate) fn kth_dist_sq(&self) -> f32 {
        if self.is_full() {
            self.heap.peek().map_or(f32::INFINITY, |e| e.dist_sq)
        } else {
            f32::INFINITY
        }
    }

    /// The current kth-best distance (non-squared), `f32::INFINITY` while
    /// not full.
    pub fn kth_dist(&self) -> f32 {
        let d = self.kth_dist_sq();
        if d.is_finite() {
            d.sqrt()
        } else {
            f32::INFINITY
        }
    }

    /// The current contents, sorted by increasing distance (ties by id).
    pub fn sorted(&self) -> Vec<Neighbor> {
        let mut out: Vec<Neighbor> = self
            .heap
            .iter()
            .map(|e| Neighbor {
                id: e.id,
                dist: e.dist_sq.sqrt(),
            })
            .collect();
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        out
    }

    /// The current neighbour identifiers, in increasing-distance order.
    pub fn sorted_ids(&self) -> Vec<u32> {
        self.sorted().into_iter().map(|n| n.id).collect()
    }

    /// The current contents as raw `(id, dist_sq)` pairs sorted by
    /// `(dist_sq, id)` — the heap's own total order, **without** the sqrt
    /// applied by [`sorted`](Self::sorted). Re-offering these entries into
    /// another `NeighborSet` reproduces the retained set bit-for-bit, which
    /// is what the scatter–gather merge needs: round-tripping through the
    /// sqrt'd [`Neighbor`] values would perturb tie-breaking at the kth
    /// boundary.
    pub fn entries(&self) -> Vec<(u32, f32)> {
        let mut out: Vec<(u32, f32)> = self.heap.iter().map(|e| (e.id, e.dist_sq)).collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut set = NeighborSet::new(3);
        for (id, d) in [(0u32, 9.0f32), (1, 4.0), (2, 1.0), (3, 16.0), (4, 0.25)] {
            set.offer(id, d);
        }
        let ids = set.sorted_ids();
        assert_eq!(ids, vec![4, 2, 1]);
        assert!((set.kth_dist() - 2.0).abs() < 1e-6); // sqrt(4.0)
    }

    #[test]
    fn rejects_worse_candidates_when_full() {
        let mut set = NeighborSet::new(2);
        assert!(set.offer(0, 1.0));
        assert!(set.offer(1, 2.0));
        assert!(!set.offer(2, 3.0));
        assert!(set.offer(3, 0.5));
        assert_eq!(set.sorted_ids(), vec![3, 0]);
    }

    #[test]
    fn kth_dist_is_infinite_until_full() {
        let mut set = NeighborSet::new(3);
        set.offer(0, 1.0);
        set.offer(1, 2.0);
        assert_eq!(set.kth_dist_sq(), f32::INFINITY);
        set.offer(2, 3.0);
        assert_eq!(set.kth_dist_sq(), 3.0);
    }

    #[test]
    fn k_zero_accepts_nothing() {
        let mut set = NeighborSet::new(0);
        assert!(!set.offer(0, 1.0));
        assert!(set.is_empty());
        assert!(set.is_full());
        assert!(set.sorted().is_empty());
        assert_eq!(set.kth_dist_sq(), f32::INFINITY);
    }

    #[test]
    fn sorted_distances_are_sqrted() {
        let mut set = NeighborSet::new(1);
        set.offer(7, 9.0);
        let n = set.sorted();
        assert_eq!(n[0].id, 7);
        assert_eq!(n[0].dist, 3.0);
    }

    #[test]
    fn ties_break_by_id() {
        let mut set = NeighborSet::new(2);
        set.offer(5, 1.0);
        set.offer(3, 1.0);
        assert_eq!(set.sorted_ids(), vec![3, 5]);
    }

    #[test]
    fn boundary_ties_prefer_smaller_id_in_any_order() {
        // Three candidates at the same distance competing for k = 2 slots:
        // whatever the offer order, the two smallest ids must win.
        use_all_orders(&[(8, 4.0), (2, 4.0), (5, 4.0)], &[2, 5]);
        // A boundary tie against a worse incumbent.
        use_all_orders(&[(9, 4.0), (1, 1.0), (4, 4.0)], &[1, 4]);
    }

    fn use_all_orders(cands: &[(u32, f32)], expect: &[u32]) {
        let mut order: Vec<usize> = (0..cands.len()).collect();
        // Heap's algorithm, iterative, over the small candidate count.
        let n = order.len();
        let mut c = vec![0usize; n];
        let check = |order: &[usize]| {
            let mut set = NeighborSet::new(2);
            for &i in order {
                set.offer(cands[i].0, cands[i].1);
            }
            assert_eq!(set.sorted_ids(), expect, "order {order:?}");
        };
        check(&order);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    order.swap(0, i);
                } else {
                    order.swap(c[i], i);
                }
                check(&order);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn entries_round_trip_bit_identically() {
        let mut set = NeighborSet::new(4);
        for (id, d) in [(9u32, 2.5f32), (1, 2.5), (4, 0.1), (7, 8.0), (2, 2.5)] {
            set.offer(id, d);
        }
        let entries = set.entries();
        // Raw squared distances, ordered by (dist_sq, id).
        assert_eq!(entries, vec![(4, 0.1), (1, 2.5), (2, 2.5), (9, 2.5)]);
        let mut merged = NeighborSet::new(4);
        for (id, d) in entries {
            merged.offer(id, d);
        }
        assert_eq!(merged.sorted_ids(), set.sorted_ids());
        assert_eq!(merged.kth_dist_sq().to_bits(), set.kth_dist_sq().to_bits());
    }

    #[test]
    fn len_tracks_offers() {
        let mut set = NeighborSet::new(5);
        assert_eq!(set.len(), 0);
        set.offer(0, 1.0);
        set.offer(1, 2.0);
        assert_eq!(set.len(), 2);
        assert!(!set.is_full());
    }

    #[test]
    fn offer_distinct_refuses_held_and_evicted_ids() {
        let mut set = NeighborSet::new(2);
        assert!(set.offer_distinct(5, 4.0));
        assert!(set.offer_distinct(8, 9.0));
        // Held: refused at any distance, set unchanged.
        assert!(!set.offer_distinct(5, 4.0));
        assert!(!set.offer_distinct(8, 1.0));
        assert_eq!(set.entries(), vec![(5, 4.0), (8, 9.0)]);
        // Evict 8, then re-offer it where it was: it no longer gets in.
        assert!(set.offer_distinct(2, 1.0));
        assert!(!set.offer_distinct(8, 9.0));
        assert_eq!(set.entries(), vec![(2, 1.0), (5, 4.0)]);
        assert!(!NeighborSet::new(0).offer_distinct(1, 0.0));
    }

    #[test]
    fn offer_distinct_matches_offer_on_duplicate_free_input() {
        // 40 candidates with plenty of distance ties, in three offer orders.
        let cands: Vec<(u32, f32)> = (0..40u32).map(|i| (i, ((i * 7) % 11) as f32)).collect();
        for stride in [1usize, 3, 7] {
            let (mut plain, mut distinct) = (NeighborSet::new(6), NeighborSet::new(6));
            for j in 0..cands.len() {
                let (id, d) = cands[(j * stride) % cands.len()];
                assert_eq!(plain.offer(id, d), distinct.offer_distinct(id, d));
            }
            assert_eq!(plain.entries(), distinct.entries(), "stride {stride}");
        }
    }

    #[test]
    fn re_offering_a_sets_own_entries_is_idempotent() {
        let mut set = NeighborSet::new(4);
        for (id, d) in [(9u32, 2.5f32), (1, 2.5), (4, 0.1), (7, 8.0), (2, 2.5)] {
            set.offer_distinct(id, d);
        }
        let before = set.entries();
        for _ in 0..3 {
            for (id, d) in set.entries() {
                assert!(!set.offer_distinct(id, d));
            }
            assert_eq!(set.entries(), before);
        }
    }
}
