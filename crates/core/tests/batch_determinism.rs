//! `search_batch_threads` must be observationally identical to running `search`
//! once per query: parallelism stops at the query boundary, so every
//! per-query `ChunkEvent` trace — rank, chunk id, count, bytes read,
//! virtual completion time, kth distance, top-k snapshot — is required to
//! be *bit-identical* to the sequential run, under every stop rule and
//! regardless of worker-thread count.

use eff2_core::chunkers::{ChunkFormer, RoundRobinChunker, SrTreeChunker};
use eff2_core::search::search;
use eff2_core::{search_batch_threads, SearchParams, SearchResult, StopRule};
use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
use eff2_parallel::max_threads;
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::ChunkStore;

fn lumpy_set(n: usize) -> DescriptorSet {
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

fn build_store(tag: &str, set: &DescriptorSet, former: &dyn ChunkFormer) -> ChunkStore {
    let dir = std::env::temp_dir().join(format!("eff2_batch_det_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let formation = former.form(set);
    ChunkStore::create(&dir, "ix", set, &formation.chunks, 512).expect("create")
}

fn queries(set: &DescriptorSet) -> Vec<Vector> {
    let mut qs: Vec<Vector> = [0usize, 17, 123, 250, 444]
        .iter()
        .filter(|&&i| i < set.len())
        .map(|&i| set.vector_owned(i))
        .collect();
    qs.push(Vector::splat(9.5)); // off-dataset
    qs.push(Vector::ZERO);
    qs
}

fn assert_bit_identical(seq: &SearchResult, par: &SearchResult, tag: &str) {
    if let Some(diff) = seq.first_difference(par) {
        panic!("{tag}: {diff}");
    }
}

#[test]
fn batch_traces_bit_identical_to_sequential_under_every_stop_rule() {
    let set = lumpy_set(600);
    let model = DiskModel::ata_2005();
    let qs = queries(&set);
    let budget = VirtualDuration::from_secs(0.05);
    let rules: Vec<(&str, StopRule)> = vec![
        ("completion", StopRule::ToCompletion),
        ("chunks", StopRule::Chunks(4)),
        ("vtime", StopRule::VirtualTime(budget)),
        ("eps", StopRule::ToCompletionEps(0.5)),
    ];
    for (ftag, former) in [
        ("sr", &SrTreeChunker { leaf_size: 40 } as &dyn ChunkFormer),
        (
            "rr",
            &RoundRobinChunker { n_chunks: 11 } as &dyn ChunkFormer,
        ),
    ] {
        let store = build_store(ftag, &set, former);
        for (rtag, stop) in &rules {
            let params = SearchParams {
                k: 10,
                stop: *stop,
                prefetch_depth: 2,
                log_snapshots: true,
            };
            let seq: Vec<SearchResult> = qs
                .iter()
                .map(|q| search(&store, &model, q, &params).expect("sequential"))
                .collect();
            // More workers than cores and more queries than workers: the
            // interleaving is maximally different from sequential.
            let par = search_batch_threads(&store, &model, &qs, &params, 4).expect("batch");
            assert_eq!(seq.len(), par.len());
            for (i, (s, p)) in seq.iter().zip(par.iter()).enumerate() {
                assert_bit_identical(s, p, &format!("{ftag}/{rtag}/q{i}"));
            }
        }
    }
}

#[test]
fn default_batch_matches_sequential() {
    let set = lumpy_set(400);
    let store = build_store("default", &set, &SrTreeChunker { leaf_size: 30 });
    let model = DiskModel::ata_2005();
    let qs = queries(&set);
    let params = SearchParams::exact(7);
    let seq: Vec<SearchResult> = qs
        .iter()
        .map(|q| search(&store, &model, q, &params).expect("sequential"))
        .collect();
    let par = search_batch_threads(&store, &model, &qs, &params, max_threads()).expect("batch");
    for (i, (s, p)) in seq.iter().zip(par.iter()).enumerate() {
        assert_bit_identical(s, p, &format!("default/q{i}"));
    }
}

#[test]
fn batch_of_one_and_empty_batch() {
    let set = lumpy_set(100);
    let store = build_store("edge", &set, &SrTreeChunker { leaf_size: 25 });
    let model = DiskModel::ata_2005();
    let params = SearchParams::exact(5);
    let empty: Vec<Vector> = Vec::new();
    assert!(
        search_batch_threads(&store, &model, &empty, &params, max_threads())
            .expect("empty batch")
            .is_empty()
    );
    let one = vec![set.vector_owned(3)];
    let got = search_batch_threads(&store, &model, &one, &params, max_threads()).expect("one");
    assert_eq!(got.len(), 1);
    let want = search(&store, &model, &one[0], &params).expect("seq");
    assert_bit_identical(&want, &got[0], "single");
}
