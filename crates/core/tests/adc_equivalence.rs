//! Property: at full budget the quantized search is a lossless detour.
//!
//! When the rerank pool covers every retained candidate (`R · k ≥ n`) and
//! the scan runs to completion, the ADC-scan-plus-exact-rerank pipeline
//! over a quantized (v3) store must return **the same neighbour ids, with
//! bit-identical exact distances**, as the uncompressed flat search —
//! for either codec, with or without the two-level ranking. The same
//! property pins the two-level exact scan: only `centroid_evals` may
//! differ from the flat search, never the answer.

#![cfg(test)]

use eff2_core::chunkers::{ChunkFormer, SrTreeChunker};
use eff2_core::search::search;
use eff2_core::{
    search_two_level, CoarseQuantizer, SearchParams, SearchResult, SearchSession, StopRule,
};
use eff2_descriptor::{Codec, Descriptor, DescriptorSet, PqCodec, Sq8Codec, Vector};
use eff2_storage::diskmodel::DiskModel;
use eff2_storage::ChunkStore;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let unique = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("eff2_adc_eq_{tag}_{}_{unique}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn lumpy_set(n: usize) -> DescriptorSet {
    (0..n)
        .map(|i| {
            let blob = (i % 5) as f32 * 20.0;
            let mut v = Vector::splat(blob);
            v[0] += ((i * 31) % 23) as f32 * 0.3;
            v[3] -= ((i * 17) % 19) as f32 * 0.2;
            v[7] += ((i * 13) % 11) as f32 * 0.15;
            Descriptor::new(i as u32, v)
        })
        .collect()
}

fn assert_same_answer(want: &SearchResult, got: &SearchResult, tag: &str) {
    assert_eq!(want.neighbors.len(), got.neighbors.len(), "{tag}: k");
    for (w, g) in want.neighbors.iter().zip(got.neighbors.iter()) {
        assert_eq!(w.id, g.id, "{tag}: neighbor id");
        assert_eq!(w.dist.to_bits(), g.dist.to_bits(), "{tag}: neighbor dist");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn full_budget_quantized_search_matches_uncompressed(
        n in 40usize..140,
        leaf in 10usize..40,
        k in 1usize..10,
        qsel in 0usize..3,
    ) {
        let set = lumpy_set(n);
        let formation = SrTreeChunker { leaf_size: leaf }.form(&set);
        let dir = tmp_dir("prop");
        let raw = ChunkStore::create(&dir, "raw", &set, &formation.chunks, 512)
            .expect("raw store");
        let model = DiskModel::ata_2005();
        let query = match qsel {
            0 => Vector::ZERO,
            1 => set.vector_owned(n / 2),
            _ => Vector::splat(55.0),
        };
        let params = SearchParams { k, stop: StopRule::ToCompletion, ..SearchParams::exact(k) };
        let want = search(&raw, &model, &query, &params).expect("uncompressed search");

        // Full recovery: the rerank pool covers every descriptor.
        let full_mult = n.div_ceil(k).max(1);

        // Two-level exact scan: same answer, different ranking cost.
        let coarse_raw = CoarseQuantizer::for_store(&raw);
        let two = search_two_level(&raw, &model, &query, &params, &coarse_raw)
            .expect("two-level search");
        assert_same_answer(&want, &two, "two-level exact");

        for codec in [
            Codec::Sq8(Sq8Codec::from_set(&set)),
            Codec::Pq(PqCodec::from_set(&set)),
        ] {
            let name = eff2_descriptor::DescriptorCodec::name(&codec);
            let quant = ChunkStore::create_quantized(
                &dir, &format!("q_{name}"), &set, &formation.chunks, 512, &codec,
            ).expect("quantized store");
            let coarse = CoarseQuantizer::for_store(&quant);
            for (rtag, two_level) in [("flat", false), ("two-level", true)] {
                let got = SearchSession::open_quantized(
                    &quant, &model, &query, &params, full_mult,
                    two_level.then_some(&coarse),
                ).and_then(SearchSession::run).expect("quantized search");
                assert_same_answer(&want, &got, &format!("{name}/{rtag}"));
            }
        }
    }
}
