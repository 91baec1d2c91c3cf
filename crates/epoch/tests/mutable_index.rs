//! The epoch/MVCC contract of [`MutableIndex`]: pins are immutable,
//! mutations are durable, compaction preserves the live set, bounds chunk
//! sizes, and is deterministic.

#![cfg(test)]

use eff2_core::chunkers::{ChunkFormer, SrTreeChunker};
use eff2_core::{SearchParams, SearchResult};
use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
use eff2_epoch::MutableIndex;
use eff2_storage::DiskModel;
use std::path::PathBuf;

const TARGET: usize = 25;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eff2_epoch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn sample_set(n: usize) -> DescriptorSet {
    (0..n)
        .map(|i| {
            let mut v = Vector::splat((i % 9) as f32 * 3.0);
            v[1] += (i / 9) as f32 * 0.125;
            v[5] -= (i % 4) as f32;
            Descriptor::new(i as u32, v)
        })
        .collect()
}

fn build(tag: &str, n: usize) -> (PathBuf, MutableIndex) {
    let dir = tmp_dir(tag);
    let set = sample_set(n);
    let formation = SrTreeChunker { leaf_size: TARGET }.form(&set);
    let index = MutableIndex::create(
        &dir,
        "live",
        &set,
        &formation.chunks,
        512,
        None,
        DiskModel::ata_2005(),
        TARGET,
    )
    .expect("create");
    (dir, index)
}

fn assert_bit_identical(a: &SearchResult, b: &SearchResult) {
    assert_eq!(a.first_difference(b), None);
}

#[test]
fn mutations_visible_through_pin_and_durable_across_reopen() {
    let (dir, mut index) = build("durable", 300);
    let q = Vector::splat(1.5);
    index.insert(7_000, q).expect("insert");
    index.delete(3).expect("delete");
    assert_eq!(index.epoch(), 2);

    let params = SearchParams::exact(4);
    let live = index.pin().search(&q, &params).expect("live");
    assert_eq!(live.neighbors[0].id, 7_000);
    assert!(live.neighbors.iter().all(|n| n.id != 3));

    drop(index);
    let reopened = MutableIndex::open(&dir, "live", DiskModel::ata_2005(), TARGET).expect("reopen");
    assert_eq!(reopened.epoch(), 2);
    assert_eq!(reopened.generation(), 0);
    let replay = reopened.pin().search(&q, &params).expect("replay");
    assert_bit_identical(&live, &replay);
}

#[test]
fn pins_are_immune_to_later_mutations_and_compaction() {
    let (_dir, mut index) = build("immune", 300);
    let q = Vector::splat(4.0);
    let params = SearchParams::exact(5);
    index.insert(8_000, Vector::splat(4.25)).expect("insert");

    let pinned = index.pin();
    let before = pinned.search(&q, &params).expect("before");

    // Everything after the pin: more writes, a delete of the pinned
    // epoch's winner, and a full compaction (generation swap).
    index.delete(before.neighbors[0].id).expect("delete");
    for i in 0..40 {
        index.insert(9_000 + i, Vector::splat(4.0)).expect("insert");
    }
    let stats = index.compact().expect("compact");
    assert_eq!(index.generation(), 1);
    assert_eq!(stats.ops_folded, 42);
    assert_eq!(index.delta_len(), 0);

    let after = pinned.search(&q, &params).expect("after");
    assert_bit_identical(&before, &after);
}

#[test]
fn compaction_preserves_the_live_set_and_epoch_counter() {
    let (_dir, mut index) = build("fold", 300);
    let q = Vector::splat(2.0);
    let params = SearchParams::exact(6);
    for i in 0..30 {
        index
            .insert(5_000 + i, Vector::splat(2.0 + i as f32 * 0.01))
            .expect("insert");
    }
    index.delete(0).expect("delete");
    index.delete(9).expect("delete");
    let epoch_before = index.epoch();
    let pre = index.pin().search(&q, &params).expect("pre");

    index.compact().expect("compact");
    assert_eq!(
        index.epoch(),
        epoch_before,
        "compaction folds, never mutates"
    );
    let post = index.pin().search(&q, &params).expect("post");

    // Same live set, same scalar distances (the fused kernel is
    // bit-identical to the explicit loop); virtual time may differ — the
    // layout changed.
    assert_eq!(
        pre.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
        post.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
    );
    for (x, y) in pre.neighbors.iter().zip(post.neighbors.iter()) {
        assert_eq!(x.dist.to_bits(), y.dist.to_bits());
    }
}

#[test]
fn compactor_bounds_chunks_under_skewed_inserts() {
    let (_dir, mut index) = build("skew", 300);
    // Hammer one region: every insert lands nearest the same centroid.
    for i in 0..(6 * TARGET as u32) {
        let mut v = Vector::splat(0.0);
        v[1] += i as f32 * 0.001;
        index.insert(10_000 + i, v).expect("insert");
    }
    let stats = index.compact().expect("compact");
    assert!(
        stats.max_chunk_before > 2 * TARGET,
        "the skewed chunk must have outgrown the split threshold \
         (got {})",
        stats.max_chunk_before
    );
    assert!(stats.splits >= 1);
    assert!(
        stats.max_chunk_after <= 2 * TARGET,
        "compactor must keep every chunk within 2x target: {} > {}",
        stats.max_chunk_after,
        2 * TARGET
    );
    // The rebalanced generation still serves the full live set: the
    // zero-distance inserts are in the result (base id 0 ties them).
    let q = Vector::splat(0.0);
    let got = index
        .pin()
        .search(&q, &SearchParams::exact(3))
        .expect("search");
    assert_eq!(got.neighbors[0].dist.to_bits(), 0.0f32.to_bits());
    assert!(
        got.neighbors.iter().any(|n| n.id >= 10_000),
        "the skewed inserts must be served from the new generation"
    );
}

#[test]
fn compactor_merges_starved_chunks() {
    let (_dir, mut index) = build("merge", 300);
    // Starve one chunk: delete all but two of the rows actually stored in
    // chunk 0 (SR-tree membership is by proximity, not id range).
    let mut payload = eff2_storage::chunkfile::ChunkPayload::default();
    index
        .base()
        .reader()
        .expect("reader")
        .read_chunk(0, &mut payload)
        .expect("read");
    let victims: Vec<u32> = payload.ids.iter().skip(2).copied().collect();
    assert!(victims.len() + 2 >= TARGET / 2, "chunk 0 is non-trivial");
    for id in victims {
        index.delete(id).expect("delete");
    }
    let stats = index.compact().expect("compact");
    assert!(stats.merges >= 1, "a starved chunk must merge away");
    assert!(stats.chunks_after < stats.chunks_before);
}

#[test]
fn compaction_is_deterministic() {
    let mutate = |tag: &str| {
        let (dir, mut index) = build(tag, 300);
        for i in 0..50 {
            index
                .insert(6_000 + i, Vector::splat((i % 5) as f32))
                .expect("insert");
        }
        for id in [2, 4, 8, 16] {
            index.delete(id).expect("delete");
        }
        index.compact().expect("compact");
        dir
    };
    let a = mutate("det_a");
    let b = mutate("det_b");
    for file in ["live.g1.chunks", "live.g1.index"] {
        let x = std::fs::read(a.join(file)).expect("read a");
        let y = std::fs::read(b.join(file)).expect("read b");
        assert_eq!(x, y, "{file} must be byte-identical across reruns");
    }
}

/// A plan folds the ops pending when it was begun. Installing it into a
/// handle holding fewer — one opened before the writes — is refused, and
/// the refused handle is unchanged.
#[test]
fn install_refuses_a_plan_that_folds_more_ops_than_are_pending() {
    let (dir, mut index) = build("overfold", 300);
    let mut stale = MutableIndex::open(&dir, "live", DiskModel::ata_2005(), TARGET).expect("open");
    for i in 0..3 {
        index.insert(7_600 + i, Vector::splat(1.0)).expect("insert");
    }
    let plan = index.begin_compaction().expect("begin");
    let got = stale.install_compaction(plan);
    assert!(
        matches!(got, Err(eff2_storage::Error::Inconsistent(_))),
        "{got:?}"
    );
    assert_eq!((stale.generation(), stale.epoch()), (0, 0));
}

#[test]
fn writes_during_compaction_survive_as_the_delta_tail() {
    let (_dir, mut index) = build("tail", 300);
    index.insert(7_500, Vector::splat(6.0)).expect("insert");
    let plan = index.begin_compaction().expect("begin");
    // A write that lands while the fold is "running".
    index.insert(7_501, Vector::splat(6.5)).expect("insert");
    let epoch_before = index.epoch();
    index.install_compaction(plan).expect("install");
    assert_eq!(index.epoch(), epoch_before);
    assert_eq!(index.delta_len(), 1, "the in-flight write stays pending");
    let got = index
        .pin()
        .search(&Vector::splat(6.5), &SearchParams::exact(2))
        .expect("search");
    assert_eq!(got.neighbors[0].id, 7_501);
}
