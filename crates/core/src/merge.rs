//! Deterministic scatter–gather merge for sharded search — a **reference
//! model**, not on any serving path (`eff2-serve`'s fleet runs a query as
//! one session that shards merely deliver chunks to): the candidate-merge
//! form of the same search, held bit-identical to a solo scan by its own
//! tests and the benchmark's frozen `core.merge.incorporate_us` probe.
//!
//! Here a query's flat [`ChunkRanking`] is split into per-shard *legs*
//! (`ChunkRanking::split_by_owner`); each leg is a detached
//! [`SearchSession`] scanning only its shard's chunks. The [`ScatterGather`]
//! is the **gather side**, and it holds a detached [`SearchSession`] over
//! the global ranking too — advanced by the same code as every other
//! session — except that it is *told* each chunk's candidates instead of
//! computing them: [`ScatterGather::incorporate`] takes, strictly in global
//! rank order, what the owning leg reported for the chunk.
//!
//! ## Why the merged answer is bit-identical to a solo scan
//!
//! Each leg preserves the global order restricted to its shard, so once the
//! gather has taken every outcome up to global rank `g`, any member of the
//! solo top-k over that prefix is among the k best of its own leg's prefix
//! and was reported in that leg's retained set. A leg re-reports its whole
//! retained set — raw `(id, dist_sq)` pairs, see
//! [`NeighborSet::entries`](eff2_descriptor::NeighborSet::entries) — after
//! every chunk, and
//! [`offer_distinct`](eff2_descriptor::NeighborSet::offer_distinct) makes
//! that idempotent: an id the set holds is refused, an id it has evicted no
//! longer beats the kth entry. So the gather's neighbour set after rank `g`
//! holds exactly what a solo scan's holds, and everything derived from it —
//! kth distance, stop decision, event log, clock charges (a lost chunk is
//! booked as a solo skip), final ordering — is computed by the session
//! code a solo scan runs.

use crate::search::{SearchParams, SearchResult};
use crate::session::{ChunkRanking, SearchSession};
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::Result;

/// One leg-reported outcome for a single ranked chunk, buffered by the
/// fleet driver until the gather cursor reaches the chunk's global rank.
#[derive(Clone, Debug)]
pub enum LegOutcome {
    /// The chunk was scanned on its shard: the modelled bytes, descriptor
    /// count, and the leg's retained neighbour snapshot *after* this chunk
    /// (raw `(id, dist_sq)` entries).
    Scanned {
        /// Bytes the delivery transferred (padded page span).
        bytes_read: u64,
        /// Descriptors the chunk holds.
        count: u32,
        /// The leg's neighbour snapshot after scanning this chunk.
        entries: Vec<(u32, f32)>,
    },
    /// No copy of the chunk could be delivered; `spent` is the modelled
    /// retry/backoff cost of finding that out.
    Lost {
        /// Modelled time the failed delivery attempts cost.
        spent: VirtualDuration,
    },
}

/// The gather side of a scatter–gather query: a detached session over the
/// global ranking that is told each chunk's candidates. See the module
/// docs for the determinism argument.
#[derive(Debug)]
pub struct ScatterGather {
    session: SearchSession,
}

impl ScatterGather {
    /// A gather over a pre-computed **flat** global ranking. The private
    /// clock starts at the index-read time, exactly like a solo session.
    pub fn new(ranking: ChunkRanking, model: &DiskModel, params: &SearchParams) -> ScatterGather {
        ScatterGather {
            session: SearchSession::from_parts(ranking, model, params, None),
        }
    }

    /// The global ranking this gather merges over.
    pub fn ranking(&self) -> &ChunkRanking {
        self.session.ranking()
    }

    /// Global ranks incorporated so far (scanned + lost) — the next
    /// outcome must be for the chunk at this rank.
    pub fn cursor(&self) -> usize {
        self.session.cursor()
    }

    /// Upper estimate of ranks still to incorporate before the stop rule
    /// can fire (see [`SearchSession::remaining_work_estimate`]).
    pub fn remaining_work_estimate(&self) -> usize {
        self.session.remaining_work_estimate()
    }

    /// Incorporates the outcome for the chunk at the current cursor rank.
    /// `chunk_id` must be the ranking's chunk at that rank (the same
    /// in-order discipline as [`SearchSession::step_with`]); outcomes
    /// arrive here only after the fleet driver has drained every earlier
    /// rank.
    pub fn incorporate(&mut self, chunk_id: usize, outcome: &LegOutcome) -> Result<()> {
        self.session.check_next(chunk_id)?;
        match outcome {
            LegOutcome::Scanned {
                bytes_read,
                count,
                entries,
            } => {
                for &(id, dist_sq) in entries {
                    self.session.neighbors.offer_distinct(id, dist_sq);
                }
                self.session
                    .chunk_consumed(chunk_id, *count, *bytes_read, VirtualDuration::ZERO);
            }
            LegOutcome::Lost { spent } => {
                self.session.skip_unavailable(*spent)?;
            }
        }
        Ok(())
    }

    /// Whether the query's own stop rule says to stop — the same predicate
    /// a solo session evaluates, over the merged state.
    pub fn stop_satisfied(&self) -> bool {
        self.session.stop_satisfied()
    }

    /// Finalises the merged answer under the query's own stop rule.
    pub fn into_result(self) -> SearchResult {
        self.session.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkers::{ChunkFormer, SrTreeChunker};
    use crate::search::StopRule;
    use eff2_descriptor::{Descriptor, DescriptorSet, NeighborSet, Vector};
    use eff2_storage::epoch::FoldedDelta;
    use eff2_storage::source::{ChunkSource, FileSource, ReadState};
    use eff2_storage::ChunkStore;
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eff2_merge_{tag}_{}_{unique}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn lumpy_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let blob = (i % 7) as f32 * 15.0;
                let mut v = Vector::splat(blob);
                v[0] += ((i * 31) % 23) as f32 * 0.4;
                v[2] -= ((i * 13) % 17) as f32 * 0.3;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    fn build_store(tag: &str, n: usize) -> ChunkStore {
        let set = lumpy_set(n);
        let formation = SrTreeChunker { leaf_size: 24 }.form(&set);
        ChunkStore::create(&tmp_dir(tag), "ix", &set, &formation.chunks, 512).expect("create")
    }

    fn query() -> Vector {
        Vector::splat(21.0)
    }

    fn assert_merge_matches_solo(store: &ChunkStore, params: &SearchParams, n_shards: usize) {
        assert_merge_matches_solo_at(store, params, n_shards, &Arc::default());
    }

    /// Splits a query across hand-rolled shards, feeds each leg fully,
    /// then drains outcomes in global order — the merged result must be
    /// bit-identical to a solo session under the same stop rule, all of
    /// them pinned to `delta`.
    fn assert_merge_matches_solo_at(
        store: &ChunkStore,
        params: &SearchParams,
        n_shards: usize,
        delta: &Arc<FoldedDelta>,
    ) {
        let model = eff2_storage::diskmodel::DiskModel::ata_2005();
        let query = query();

        let mut solo = SearchSession::open(store, &model, &query, params);
        solo.apply_delta(delta);
        solo.run_to_stop().expect("solo run");
        let want = solo.into_result();

        let ranking = ChunkRanking::rank(store, &model, &query);
        let owner_of: Vec<u32> = (0..store.n_chunks())
            .map(|c| (c % n_shards) as u32)
            .collect();
        let legs_rankings = ranking.split_by_owner(&owner_of, n_shards);
        let mut gather = ScatterGather::new(ranking, &model, params);
        gather.session.apply_delta(delta);

        // Drive every leg to exhaustion, buffering outcomes by global rank.
        let leg_params = SearchParams {
            stop: StopRule::Chunks(usize::MAX),
            ..*params
        };
        let (files, mut read) = (FileSource::new(store), ReadState::default());
        let mut buffered: BTreeMap<usize, (usize, LegOutcome)> = BTreeMap::new();
        let rank_of: BTreeMap<usize, usize> = (0..gather.ranking().len())
            .map(|r| (gather.ranking().chunk_at(r), r))
            .collect();
        for leg_ranking in legs_rankings {
            let mut leg =
                SearchSession::detached_from_ranking(leg_ranking, &model, &query, &leg_params);
            leg.apply_delta(delta);
            while let Some(chunk) = leg.next_wanted() {
                let sourced = files.fetch(chunk, &mut read).expect("read");
                leg.step_with(&sourced).expect("leg step");
                let count = gather.ranking().count_of(chunk);
                buffered.insert(
                    rank_of[&chunk],
                    (
                        chunk,
                        LegOutcome::Scanned {
                            bytes_read: sourced.bytes_read,
                            count,
                            entries: leg.neighbor_entries(),
                        },
                    ),
                );
            }
        }
        // Drain in global order under the real stop rule; leftovers are
        // exactly the work a lookahead-bounded fleet would not have done.
        while !gather.stop_satisfied() {
            let cursor = gather.cursor();
            let (chunk, outcome) = buffered.get(&cursor).expect("outcome for rank");
            gather.incorporate(*chunk, outcome).expect("incorporate");
        }
        let got = gather.into_result();

        assert_eq!(want.first_difference(&got), None);
    }

    #[test]
    fn merge_matches_solo_to_completion() {
        let store = build_store("complete", 600);
        assert_merge_matches_solo(&store, &SearchParams::exact(10), 4);
    }

    #[test]
    fn merge_matches_solo_chunk_budget() {
        let store = build_store("budget", 600);
        assert_merge_matches_solo(&store, &SearchParams::approximate(8, 7), 3);
    }

    #[test]
    fn merge_matches_solo_eps() {
        let store = build_store("eps", 500);
        let params = SearchParams {
            stop: StopRule::ToCompletionEps(0.4),
            ..SearchParams::exact(12)
        };
        assert_merge_matches_solo(&store, &params, 5);
    }

    #[test]
    fn merge_matches_solo_single_shard() {
        let store = build_store("single", 400);
        assert_merge_matches_solo(&store, &SearchParams::exact(6), 1);
    }

    /// A pinned epoch splits like any other: the delta tombstones the
    /// solo winner (a base row inside some leg) and inserts a row at
    /// distance zero, which the gather — not a leg — must contribute.
    #[test]
    fn merge_matches_solo_on_a_pinned_delta() {
        use eff2_storage::epoch::DeltaOp;
        let store = build_store("delta", 600);
        let model = eff2_storage::diskmodel::DiskModel::ata_2005();
        let params = SearchParams::exact(10);
        let q = query();
        let base = crate::search::search(&store, &model, &q, &params).expect("base");
        let winner = base.neighbors[0].id;
        let delta = Arc::new(FoldedDelta::from_ops(&[
            DeltaOp::Delete { id: winner },
            DeltaOp::Insert {
                id: 9_000,
                vector: q,
            },
        ]));
        let mut solo = SearchSession::open(&store, &model, &q, &params);
        solo.apply_delta(&delta);
        let ids: Vec<u32> = solo
            .run()
            .expect("solo")
            .neighbors
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(ids[0], 9_000, "the delta row is in the top-k");
        assert!(!ids.contains(&winner), "the tombstoned row is not");
        assert_merge_matches_solo_at(&store, &params, 4, &delta);
        let budget = SearchParams::approximate(8, 5);
        assert_merge_matches_solo_at(&store, &budget, 3, &delta);
    }

    #[test]
    fn gather_refuses_out_of_order_chunks() {
        let store = build_store("order", 300);
        let model = eff2_storage::diskmodel::DiskModel::ata_2005();
        let query = Vector::splat(5.0);
        let ranking = ChunkRanking::rank(&store, &model, &query);
        let wrong = ranking.chunk_at(1);
        let mut gather = ScatterGather::new(ranking, &model, &SearchParams::exact(4));
        let outcome = LegOutcome::Scanned {
            bytes_read: 512,
            count: 10,
            entries: vec![(0, 1.0)],
        };
        assert!(gather.incorporate(wrong, &outcome).is_err());
    }

    #[test]
    fn lost_ranks_merge_like_solo_skips() {
        let store = build_store("loss", 300);
        let model = eff2_storage::diskmodel::DiskModel::ata_2005();
        let query = Vector::splat(30.0);
        let params = SearchParams::approximate(5, 4);
        let ranking = ChunkRanking::rank(&store, &model, &query);
        let first = ranking.chunk_at(0);
        let mut gather = ScatterGather::new(ranking, &model, &params);
        let spent = VirtualDuration::from_ms(40.0);
        gather
            .incorporate(first, &LegOutcome::Lost { spent })
            .expect("loss");
        assert_eq!(gather.cursor(), 1);
        let result = gather.into_result();
        assert_eq!(result.log.degradation.chunks_lost, 1);
        assert_eq!(result.log.degradation.lost_chunks, vec![first]);
        assert!(result.log.degradation.descriptors_lost > 0);
    }

    /// Two squared distances an ulp apart whose roots round to the same
    /// `f32` are a tie in the reported distance, so the id decides — in
    /// the gather exactly as in the `NeighborSet` a solo scan reports from.
    #[test]
    fn tied_roots_are_ordered_as_a_neighbor_set_orders_them() {
        let next = |v: f32| f32::from_bits(v.to_bits() + 1);
        let mut x = 2.0f32;
        while x.sqrt() != next(x).sqrt() {
            x = next(x);
        }
        let y = next(x);
        let store = build_store("tie", 300);
        let model = eff2_storage::diskmodel::DiskModel::ata_2005();
        let ranking = ChunkRanking::rank(&store, &model, &Vector::splat(5.0));
        let first = ranking.chunk_at(0);
        let mut gather = ScatterGather::new(ranking, &model, &SearchParams::exact(2));
        let outcome = LegOutcome::Scanned {
            bytes_read: 512,
            count: 2,
            entries: vec![(7, x), (3, y)],
        };
        gather.incorporate(first, &outcome).expect("incorporate");
        let mut want = NeighborSet::new(2);
        want.offer(7, x);
        want.offer(3, y);
        assert_eq!(want.sorted_ids(), vec![3, 7]);
        let got = gather.into_result();
        assert_eq!(got.neighbors, want.sorted());
        assert_eq!(got.log.events[0].topk_ids, want.sorted_ids());
    }

    #[test]
    fn gather_stops_on_k_zero_and_refuses_ranks_past_the_last() {
        let store = build_store("edges", 300);
        let model = eff2_storage::diskmodel::DiskModel::ata_2005();
        let query = Vector::splat(5.0);
        let k_zero = SearchParams {
            k: 0,
            ..SearchParams::exact(1)
        };
        let ranking = ChunkRanking::rank(&store, &model, &query);
        assert!(ScatterGather::new(ranking, &model, &k_zero).stop_satisfied());
        let no_chunks = ChunkStore::create(&tmp_dir("nochunks"), "ix", &lumpy_set(0), &[], 512)
            .expect("create");
        let empty = ScatterGather::new(
            ChunkRanking::rank(&no_chunks, &model, &query),
            &model,
            &SearchParams::exact(3),
        );
        assert!(
            empty.stop_satisfied(),
            "nothing ranked, nothing to wait for"
        );

        let ranking = ChunkRanking::rank(&store, &model, &query);
        let order = ranking.order();
        let mut gather = ScatterGather::new(ranking, &model, &SearchParams::exact(3));
        let lost = LegOutcome::Lost {
            spent: VirtualDuration::ZERO,
        };
        for &chunk in &order {
            gather.incorporate(chunk, &lost).expect("in order");
        }
        assert!(gather.incorporate(order[0], &lost).is_err());
    }
}
