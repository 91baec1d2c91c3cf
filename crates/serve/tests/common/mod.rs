//! The one copy of the serve test scaffolding: a lumpy collection,
//! snapshots over arbitrary chunkers, traces, proptest strategies and the
//! bit-identity assertions every equivalence suite uses. Shared by the
//! integration files here and (through `#[path]` in `src/lib.rs`) by the
//! unit-test modules inside the crate.

#![cfg(test)]
#![allow(
    dead_code,
    reason = "each test binary uses its own subset of the shared fixtures"
)]

use eff2_chaos::RetryPolicy;
use eff2_core::chunkers::{ChunkFormer, RoundRobinChunker, SrTreeChunker};
use eff2_core::image::ImageVote;
use eff2_core::search::{SearchParams, SearchResult, StopRule};
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
use eff2_serve::{ImageQuerySpec, Policy};
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::ChunkStore;
use eff2_workload::ImageQuery;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

pub fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let unique = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("eff2_serve_{tag}_{}_{unique}", std::process::id()));
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

pub fn build_snapshot(tag: &str, set: &DescriptorSet, former: &dyn ChunkFormer) -> Snapshot {
    let formation = former.form(set);
    let store =
        ChunkStore::create(&tmp_dir(tag), "ix", set, &formation.chunks, 512).expect("create");
    Snapshot::new(store, DiskModel::ata_2005())
}

/// A lumpy set of `n` descriptors under SR-tree chunks of `leaf`.
pub fn snapshot(tag: &str, n: usize, leaf: usize) -> (Snapshot, DescriptorSet) {
    let set = lumpy_set(n);
    let snap = build_snapshot(tag, &set, &SrTreeChunker { leaf_size: leaf });
    (snap, set)
}

/// A trace of in-set queries with arrivals `gap_ms` apart.
pub fn trace(set: &DescriptorSet, n: usize, gap_ms: f64) -> Vec<(Vector, VirtualDuration)> {
    (0..n)
        .map(|i| {
            let q = set.vector_owned((i * 37) % set.len());
            (q, VirtualDuration::from_ms(gap_ms * i as f64))
        })
        .collect()
}

/// Image queries as a trace with arrivals `gap_ms` apart.
pub fn image_trace(queries: &[ImageQuery], gap_ms: f64) -> Vec<(ImageQuerySpec, VirtualDuration)> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let spec = ImageQuerySpec {
                label: q.image,
                descriptors: q.descriptors.clone(),
            };
            (spec, VirtualDuration::from_ms(gap_ms * i as f64))
        })
        .collect()
}

/// Round-robin image map: descriptor i belongs to image i % n_images.
pub fn rr_map(n: usize, n_images: u32) -> Arc<Vec<u32>> {
    Arc::new((0..n).map(|i| (i as u32) % n_images).collect())
}

/// An image query made of the descriptors at `positions` of `set`.
pub fn spec(set: &DescriptorSet, label: u32, positions: &[usize]) -> ImageQuerySpec {
    ImageQuerySpec {
        label,
        descriptors: positions.iter().map(|&p| set.vector_owned(p)).collect(),
    }
}

/// A retry budget of `max_attempts` with a `timeout_ms` timeout and 1 ms
/// backoff per failed attempt.
pub fn retry(max_attempts: u32, timeout_ms: f64) -> RetryPolicy {
    RetryPolicy::new(
        max_attempts,
        VirtualDuration::from_ms(timeout_ms),
        VirtualDuration::from_ms(1.0),
    )
}

/// Exact `k`-NN under a scan-everything stop rule: every session must
/// visit (or skip) every chunk, so every session observes a whole loss
/// schedule.
pub fn scan_all(k: usize) -> SearchParams {
    SearchParams {
        stop: StopRule::Chunks(usize::MAX),
        ..SearchParams::exact(k)
    }
}

/// Bit-identity over everything the paper's figures are computed from:
/// neighbours, log figures, per-chunk events and the degradation report.
pub fn assert_bit_identical(want: &SearchResult, got: &SearchResult, tag: &str) {
    if let Some(diff) = want.first_difference(got) {
        panic!("{tag}: {diff}");
    }
}

pub fn assert_same_ranking(want: &[ImageVote], got: &[ImageVote], tag: &str) {
    assert_eq!(want.len(), got.len(), "{tag}: ranking length");
    for (w, g) in want.iter().zip(got.iter()) {
        assert_eq!(w.image, g.image, "{tag}: image");
        assert_eq!(w.votes, g.votes, "{tag}: votes");
        assert_eq!(
            w.best_dist.to_bits(),
            g.best_dist.to_bits(),
            "{tag}: best_dist"
        );
    }
}

pub fn arb_former() -> impl Strategy<Value = Box<dyn ChunkFormer>> {
    prop_oneof![
        (15usize..50)
            .prop_map(|leaf| Box::new(SrTreeChunker { leaf_size: leaf }) as Box<dyn ChunkFormer>),
        (2usize..12)
            .prop_map(|n| Box::new(RoundRobinChunker { n_chunks: n }) as Box<dyn ChunkFormer>),
    ]
}

pub fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::FairShare),
        Just(Policy::EarliestDeadline),
        Just(Policy::MostWantedChunk),
    ]
}

pub fn arb_stop() -> impl Strategy<Value = StopRule> {
    prop_oneof![
        (1usize..8).prop_map(StopRule::Chunks),
        (0.01f64..0.15).prop_map(|s| StopRule::VirtualTime(VirtualDuration::from_secs(s))),
        Just(StopRule::ToCompletion),
        (0.0f32..1.0).prop_map(StopRule::ToCompletionEps),
    ]
}
