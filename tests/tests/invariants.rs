//! Cross-crate property tests: the system-level invariants that hold for
//! any collection and any chunk-forming strategy.

#![cfg(test)]

use eff2_bag::{Bag, BagConfig, EngineKind};
use eff2_core::chunkers::{ChunkFormer, RoundRobinChunker, SrTreeChunker};
use eff2_core::{scan_knn, SearchParams, Snapshot};
use eff2_descriptor::{Descriptor, DescriptorSet, Vector, DIM};
use eff2_storage::diskmodel::DiskModel;
use proptest::prelude::*;

fn arb_set(max: usize) -> impl Strategy<Value = DescriptorSet> {
    proptest::collection::vec(proptest::collection::vec(-50.0f32..50.0, DIM), 8..max).prop_map(
        |rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, row)| Descriptor::new(i as u32, Vector::from_slice(&row)))
                .collect()
        },
    )
}

/// Clustered sets (a few Gaussian-ish lumps) exercise the interesting
/// paths better than uniform noise.
fn arb_lumpy_set() -> impl Strategy<Value = DescriptorSet> {
    (
        proptest::collection::vec(-40.0f32..40.0, 2..5),
        proptest::collection::vec(
            (0usize..4, proptest::collection::vec(-2.0f32..2.0, DIM)),
            10..80,
        ),
    )
        .prop_map(|(centers, points)| {
            points
                .into_iter()
                .enumerate()
                .map(|(i, (c, offs))| {
                    let base = centers[c % centers.len()];
                    let mut v = Vector::splat(base);
                    for (d, o) in offs.iter().enumerate() {
                        v[d] += o;
                    }
                    Descriptor::new(i as u32, v)
                })
                .collect()
        })
}

fn tmp(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("eff2_prop_{tag}_{case}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Searching any chunk index to completion equals a sequential scan of
    /// the collection it stores — for any collection, chunker and k.
    #[test]
    fn completion_equals_scan(set in arb_set(120), k in 1usize..12, leaf in 3usize..40, case in 0u64..u64::MAX) {
        let dir = tmp("complete", case);
        let built = Snapshot::build(
            &dir, "p", &set, &SrTreeChunker { leaf_size: leaf }, 256, DiskModel::ata_2005(),
        ).expect("build");
        let q = set.vector_owned(set.len() / 2);
        let got = built.index.search(&q, &SearchParams::exact(k)).expect("search");
        let want = scan_knn(&set, &q, k);
        prop_assert_eq!(got.neighbors.len(), want.len());
        for (g, w) in got.neighbors.iter().zip(want.iter()) {
            prop_assert!((g.dist - w.dist).abs() < 1e-3, "{:?} vs {:?}", g, w);
        }
    }

    /// More chunk budget never lowers precision against the exact result.
    #[test]
    fn precision_monotone_in_budget(set in arb_set(150), case in 0u64..u64::MAX) {
        let dir = tmp("budget", case);
        let built = Snapshot::build(
            &dir, "p", &set, &RoundRobinChunker { n_chunks: 8 }, 256, DiskModel::ata_2005(),
        ).expect("build");
        let q = set.vector_owned(0);
        let truth: Vec<u32> = scan_knn(&set, &q, 8).into_iter().map(|n| n.id).collect();
        let mut last = -1.0f64;
        for budget in 1..=8usize {
            let r = built.index.search(&q, &SearchParams::approximate(8, budget)).expect("search");
            let ids: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
            let p = eff2_metrics::precision_at(&ids, &truth);
            prop_assert!(p >= last - 1e-9, "precision dropped: {} -> {}", last, p);
            last = p;
        }
        prop_assert!((last - 1.0).abs() < 1e-9, "full budget must be exact");
    }

    /// The BAG engines produce identical clusterings on arbitrary lumpy
    /// collections.
    #[test]
    fn bag_engines_equivalent(set in arb_lumpy_set(), mpi in 0.5f32..4.0, target in 2usize..8) {
        let cfg = |engine| BagConfig { mpi, engine, max_passes: 60, ..BagConfig::default() };
        let a = Bag::new(&set, cfg(EngineKind::Exhaustive)).run_to(target);
        let b = Bag::new(&set, cfg(EngineKind::Pruned)).run_to(target);
        let norm = |snap: &eff2_bag::BagSnapshot| {
            let mut cs: Vec<Vec<u32>> = snap.clusters.iter().map(|c| {
                let mut m = c.members.clone();
                m.sort_unstable();
                m
            }).collect();
            cs.sort();
            (cs, snap.outliers.clone(), snap.passes)
        };
        prop_assert_eq!(norm(&a), norm(&b));
    }

    /// BAG conserves descriptors and its radii cover every member, for any
    /// input and MPI.
    #[test]
    fn bag_conservation_and_coverage(set in arb_lumpy_set(), mpi in 0.3f32..5.0) {
        let cfg = BagConfig { mpi, max_passes: 60, ..BagConfig::default() };
        let snap = Bag::new(&set, cfg).run_to(3);
        prop_assert_eq!(snap.total_descriptors(), set.len());
        for c in &snap.clusters {
            for &m in &c.members {
                let d = c.centroid.dist(&set.vector_owned(m as usize));
                prop_assert!(d <= c.tight_radius * (1.0 + 1e-4) + 1e-3);
            }
        }
    }

    /// Store round-trip: whatever chunks a former produces, the store
    /// returns byte-identical descriptors.
    #[test]
    fn store_roundtrip_any_former(set in arb_set(100), leaf in 2usize..30, case in 0u64..u64::MAX) {
        let dir = tmp("roundtrip", case);
        let formation = SrTreeChunker { leaf_size: leaf }.form(&set);
        let store = eff2_storage::ChunkStore::create(&dir, "p", &set, &formation.chunks, 128)
            .expect("create");
        let mut reader = store.reader().expect("reader");
        let mut payload = eff2_storage::chunkfile::ChunkPayload::default();
        for (ci, chunk) in formation.chunks.iter().enumerate() {
            reader.read_chunk(ci, &mut payload).expect("read");
            prop_assert_eq!(payload.len(), chunk.positions.len());
            for (j, &pos) in chunk.positions.iter().enumerate() {
                prop_assert_eq!(payload.ids[j], set.id(pos as usize).0);
                prop_assert_eq!(&payload.packed[j * DIM..(j + 1) * DIM], set.vector(pos as usize));
            }
        }
    }
}
