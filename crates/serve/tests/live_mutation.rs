//! The live-mutation headline property: under ANY randomized interleaving
//! of inserts, deletes, compactions and searches — for every chunker and
//! every stop rule — each served query's `SearchResult` is bit-for-bit
//! identical to a solo run of that query against the epoch snapshot it
//! pinned at admission. Mutation changes *which* epoch a query sees,
//! never what a pinned epoch computes.

#![cfg(test)]

mod common;

use common::{arb_former, arb_stop, assert_bit_identical, lumpy_set, tmp_dir};
use eff2_core::chunkers::{ChunkFormer, SrTreeChunker};
use eff2_core::search::SearchParams;
use eff2_descriptor::{DescriptorSet, Vector};
use eff2_epoch::MutableIndex;
use eff2_serve::{merge_timelines, CompactionPolicy, LiveEvent, LiveServer, ServeError};
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use proptest::prelude::*;

fn build_index(
    tag: &str,
    set: &DescriptorSet,
    former: &dyn ChunkFormer,
    target: usize,
) -> MutableIndex {
    let formation = former.form(set);
    MutableIndex::create(
        &tmp_dir(tag),
        "live",
        set,
        &formation.chunks,
        512,
        None,
        DiskModel::ata_2005(),
        target,
    )
    .expect("create")
}

fn arb_policy() -> impl Strategy<Value = CompactionPolicy> {
    prop_oneof![
        Just(CompactionPolicy::Never),
        (3usize..20).prop_map(CompactionPolicy::EveryOps),
    ]
}

/// One drawn mutation: `insert` decides the op, `pick` selects the target
/// (a base id to delete, or which base vector a fresh insert lands near).
#[derive(Clone, Debug)]
struct OpDraw {
    insert: bool,
    pick: usize,
    jitter: f32,
}

fn arb_ops(max: usize) -> impl Strategy<Value = Vec<OpDraw>> {
    proptest::collection::vec(
        (0usize..2, 0usize..10_000, -0.5f32..0.5).prop_map(|(coin, pick, jitter)| OpDraw {
            insert: coin == 0,
            pick,
            jitter,
        }),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Searches under concurrent mutation and online compaction ≡ solo
    /// runs on their pinned epoch snapshots, for every chunker × stop
    /// rule × compaction policy the strategy draws.
    #[test]
    fn served_under_mutation_equals_solo_on_pinned_epoch(
        (former, stop, policy) in (arb_former(), arb_stop(), arb_policy()),
        (n, n_queries, k) in (120usize..320, 2usize..8, 1usize..10),
        ops in arb_ops(36),
        (gap_q_ms, gap_m_ms) in (0.5f64..20.0, 0.2f64..8.0),
    ) {
        let set = lumpy_set(n);
        let index = build_index("prop", &set, former.as_ref(), 30);
        let params = SearchParams { k, stop, prefetch_depth: 2, log_snapshots: false };

        let queries: Vec<(Vector, VirtualDuration)> = (0..n_queries)
            .map(|i| (
                set.vector_owned((i * 53) % set.len()),
                VirtualDuration::from_ms(gap_q_ms * i as f64),
            ))
            .collect();
        let mutations: Vec<(VirtualDuration, LiveEvent)> = ops
            .iter()
            .enumerate()
            .map(|(j, op)| {
                let at = VirtualDuration::from_ms(gap_m_ms * j as f64);
                let event = if op.insert {
                    let mut v = set.vector_owned(op.pick % set.len());
                    v[1] += op.jitter;
                    LiveEvent::Insert { id: 50_000 + j as u32, vector: v }
                } else {
                    LiveEvent::Delete { id: (op.pick % set.len()) as u32 }
                };
                (at, event)
            })
            .collect();
        let trace = merge_timelines(&queries, &mutations);

        let server = LiveServer::new(index, params, policy);
        let (report, index) = server.serve_trace(&trace).expect("serve");
        prop_assert_eq!(report.completions.len(), n_queries);
        prop_assert_eq!(report.stats.mutations, ops.len() as u64);
        prop_assert_eq!(index.epoch(), ops.len() as u64);

        for c in &report.completions {
            let solo = c.snapshot.search(&c.query, &params).expect("solo");
            assert_bit_identical(
                &solo,
                &c.result,
                &format!("{}/gen{}/epoch{}/q{}",
                    policy.name(), c.snapshot.generation(), c.snapshot.epoch(), c.id),
            );
        }

        // Compactions that ran stayed within the rebalancing bound.
        if report.stats.compactions > 0 {
            prop_assert!(report.stats.max_installed_chunk <= 2 * index.target_chunk_size());
        }
    }
}

/// The live server is a pure function of (index files, trace): two runs
/// over identical inputs produce identical completions, fleet figures and
/// final generations.
#[test]
fn live_replays_are_bit_identical() {
    let set = lumpy_set(400);
    let params = SearchParams::exact(6);
    let run = |tag: &str| {
        let index = build_index(tag, &set, &SrTreeChunker { leaf_size: 30 }, 30);
        let queries: Vec<(Vector, VirtualDuration)> = (0..8)
            .map(|i| {
                (
                    set.vector_owned((i * 41) % set.len()),
                    VirtualDuration::from_ms(4.0 * i as f64),
                )
            })
            .collect();
        let mutations: Vec<(VirtualDuration, LiveEvent)> = (0..30)
            .map(|j| {
                let at = VirtualDuration::from_ms(1.5 * j as f64);
                let event = if j % 3 == 0 {
                    LiveEvent::Delete {
                        id: (j * 7 % 400) as u32,
                    }
                } else {
                    LiveEvent::Insert {
                        id: 50_000 + j as u32,
                        vector: set.vector_owned((j * 13) % set.len()),
                    }
                };
                (at, event)
            })
            .collect();
        let trace = merge_timelines(&queries, &mutations);
        LiveServer::new(index, params, CompactionPolicy::EveryOps(10))
            .serve_trace(&trace)
            .expect("serve")
    };
    let (a, index_a) = run("replay_a");
    let (b, index_b) = run("replay_b");
    assert!(a.stats.compactions >= 1, "the policy must have fired");
    assert_eq!(a.stats.compactions, b.stats.compactions);
    assert_eq!(a.stats.chunks_fed, b.stats.chunks_fed);
    assert_eq!(index_a.generation(), index_b.generation());
    assert_eq!(index_a.epoch(), index_b.epoch());
    assert_eq!(a.final_chunk_loads, b.final_chunk_loads);
    assert_eq!(
        a.makespan.as_secs().to_bits(),
        b.makespan.as_secs().to_bits()
    );
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(b.completions.iter()) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.snapshot.generation(), y.snapshot.generation());
        assert_eq!(x.snapshot.epoch(), y.snapshot.epoch());
        assert_bit_identical(&x.result, &y.result, &format!("replay q{}", x.id));
    }
}

/// Queries and mutations share one timeline: an event behind the latest
/// arrival of either kind is refused, so a query can never be pinned to an
/// epoch holding a mutation from its own future.
#[test]
fn arrivals_behind_the_frontier_are_refused_whatever_their_kind() {
    let set = lumpy_set(200);
    let at = VirtualDuration::from_secs;
    let insert = LiveEvent::Insert {
        id: 50_000,
        vector: set.vector_owned(3),
    };
    let query = LiveEvent::Query(set.vector_owned(7));
    for (first, second) in [(&insert, &query), (&query, &insert)] {
        let index = build_index("frontier", &set, &SrTreeChunker { leaf_size: 30 }, 30);
        let mut server = LiveServer::new(index, SearchParams::exact(4), CompactionPolicy::Never);
        server.offer(at(10.0), first).expect("first arrival");
        let late = server.offer(at(5.0), second);
        assert!(
            matches!(late, Err(ServeError::NonMonotoneArrival { .. })),
            "an arrival at 5 s after one at 10 s must be refused, got {late:?}"
        );
        server
            .offer(at(10.0), second)
            .expect("an equal instant is in order");
        let (report, index) = server.finish().expect("finish");
        assert_eq!(report.completions.len(), 1);
        assert_eq!(index.epoch(), 1, "the refused event was not applied");
    }
}
