//! Shared fixtures for the chaos integration tests: a lumpy collection,
//! stores over arbitrary chunkers, and the bit-identity assertion the
//! equivalence suites use.

#![cfg(test)]
#![allow(
    dead_code,
    reason = "each test binary uses its own subset of the shared fixtures"
)]

use eff2_core::chunkers::{
    ChunkFormer, HybridChunker, RandomChunker, RoundRobinChunker, SrTreeChunker,
};
use eff2_core::session::SearchSession;
use eff2_core::{SearchResult, StopRule};
use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
use eff2_storage::diskmodel::VirtualDuration;
use eff2_storage::ChunkStore;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

pub fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let unique = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "eff2_chaos_it_{tag}_{}_{unique}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

pub fn lumpy_set(n: usize) -> DescriptorSet {
    (0..n)
        .map(|i| {
            let blob = (i % 5) as f32 * 20.0;
            let mut v = Vector::splat(blob);
            v[0] += ((i * 31) % 23) as f32 * 0.3;
            v[3] -= ((i * 17) % 19) as f32 * 0.2;
            Descriptor::new(i as u32, v)
        })
        .collect()
}

pub fn build_store(tag: &str, set: &DescriptorSet, former: &dyn ChunkFormer) -> ChunkStore {
    let formation = former.form(set);
    ChunkStore::create(&tmp_dir(tag), "ix", set, &formation.chunks, 512).expect("create")
}

/// Bit-identity over everything the paper's figures are computed from,
/// including the degradation report.
pub fn assert_bit_identical(want: &SearchResult, got: &SearchResult, tag: &str) {
    if let Some(diff) = want.first_difference(got) {
        panic!("{tag}: {diff}");
    }
}

/// Drives a session one explicit `step()` at a time (checking the stop
/// predicate between steps, exactly what `run_to_stop` does internally)
/// and finalises it.
pub fn drive_stepwise(mut session: SearchSession) -> SearchResult {
    let mut steps = 0usize;
    while !session.stop_satisfied() {
        match session.step().expect("step") {
            Some(event) => assert_eq!(event.rank, steps, "events arrive in rank order"),
            None => break,
        }
        steps += 1;
    }
    session.into_result()
}

pub fn arb_former() -> impl Strategy<Value = Box<dyn ChunkFormer>> {
    prop_oneof![
        (8usize..60)
            .prop_map(|leaf| Box::new(SrTreeChunker { leaf_size: leaf }) as Box<dyn ChunkFormer>),
        (1usize..16)
            .prop_map(|n| Box::new(RoundRobinChunker { n_chunks: n }) as Box<dyn ChunkFormer>),
        (1usize..16, 0u64..4).prop_map(|(n, seed)| {
            Box::new(RandomChunker { n_chunks: n, seed }) as Box<dyn ChunkFormer>
        }),
        (10usize..50).prop_map(|size| {
            Box::new(HybridChunker {
                chunk_size: size,
                sweeps: 1,
                neighbor_chunks: 2,
                min_fill: 0.5,
                max_fill: 1.5,
            }) as Box<dyn ChunkFormer>
        }),
    ]
}

pub fn arb_stop() -> impl Strategy<Value = StopRule> {
    prop_oneof![
        (0usize..10).prop_map(StopRule::Chunks),
        (0.0f64..0.2).prop_map(|s| StopRule::VirtualTime(VirtualDuration::from_secs(s))),
        Just(StopRule::ToCompletion),
        (0.0f32..1.5).prop_map(StopRule::ToCompletionEps),
    ]
}
