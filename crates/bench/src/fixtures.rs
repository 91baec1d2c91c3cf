//! Shared fixtures for the Criterion benches: a bench-scale collection and
//! prebuilt chunk stores, constructed once per process.
//!
//! The benches run at a reduced scale (10k descriptors by default,
//! `EFF2_BENCH_SCALE` overrides) so `cargo bench` finishes in minutes; the
//! `eff2-eval` binary is the full-scale harness.
// lint:allow-file(panic.unwrap): bench fixture setup; aborting loudly on a broken fixture beats benchmarking garbage
// lint:allow-file(panic.index): fixture slices are bounded by n.min(set.len()) before indexing

use eff2_bag::BagConfig;
use eff2_core::chunkers::{BagChunker, SrTreeChunker};
use eff2_core::Snapshot;
use eff2_descriptor::{
    as_rows, Codec, DescriptorCodec, DescriptorSet, PqCodec, Sq8Codec, SyntheticCollection, Vector,
    DIM,
};
use eff2_storage::diskmodel::DiskModel;
use eff2_workload::{dq_workload, sq_workload, Workload};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Bench collection size.
pub fn bench_scale() -> usize {
    std::env::var("EFF2_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

/// The bench collection (built once).
pub fn collection() -> &'static DescriptorSet {
    static SET: OnceLock<DescriptorSet> = OnceLock::new();
    SET.get_or_init(|| SyntheticCollection::with_size(bench_scale(), 42).set)
}

/// Scratch directory for bench artefacts.
pub fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("eff2_bench_fixtures");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// A BAG termination target giving paper-like chunk counts at bench scale.
pub fn bag_target() -> usize {
    (collection().len() / 150).max(4)
}

/// An estimated MPI for the bench collection.
pub fn mpi() -> f32 {
    static MPI: OnceLock<f32> = OnceLock::new();
    *MPI.get_or_init(|| BagConfig::estimate_mpi(collection(), 1_000, 42))
}

/// The BAG chunk index over the bench collection (built once).
pub fn bag_index() -> &'static Snapshot {
    static IX: OnceLock<Snapshot> = OnceLock::new();
    IX.get_or_init(|| {
        let built = Snapshot::build(
            &bench_dir(),
            "bench_bag",
            collection(),
            &BagChunker {
                config: BagConfig {
                    mpi: mpi(),
                    max_passes: 300,
                    ..BagConfig::default()
                },
                target_clusters: bag_target(),
            },
            8192,
            DiskModel::ata_2005(),
        )
        .expect("build bag index");
        built.index
    })
}

/// The SR-tree chunk index over the bench collection (built once), with
/// leaf size matching the BAG index's mean chunk size.
pub fn sr_index() -> &'static Snapshot {
    static IX: OnceLock<Snapshot> = OnceLock::new();
    IX.get_or_init(|| {
        let bag = bag_index();
        let leaf = (bag.store().total_descriptors() as f64 / bag.store().n_chunks().max(1) as f64)
            .round()
            .max(2.0) as usize;
        let built = Snapshot::build(
            &bench_dir(),
            "bench_sr",
            collection(),
            &SrTreeChunker { leaf_size: leaf },
            8192,
            DiskModel::ata_2005(),
        )
        .expect("build sr index");
        built.index
    })
}

/// An SR-tree index with an explicit leaf size (for the Fig 6/7 sweep).
pub fn sr_index_with_leaf(leaf_size: usize) -> Snapshot {
    Snapshot::build(
        &bench_dir(),
        &format!("bench_sr_{leaf_size}"),
        collection(),
        &SrTreeChunker { leaf_size },
        8192,
        DiskModel::ata_2005(),
    )
    .expect("build sweep index")
    .index
}

/// The cost model every bench prices virtual time under.
pub fn model() -> DiskModel {
    DiskModel::ata_2005()
}

/// The SQ8 codec trained on the bench collection (trained once).
pub fn sq8_codec() -> &'static Codec {
    static C: OnceLock<Codec> = OnceLock::new();
    C.get_or_init(|| Codec::Sq8(Sq8Codec::from_set(collection())))
}

/// The PQ codec trained on the bench collection (trained once).
pub fn pq_codec() -> &'static Codec {
    static C: OnceLock<Codec> = OnceLock::new();
    C.get_or_init(|| Codec::Pq(PqCodec::from_set(collection())))
}

/// The first `n` bench-collection rows encoded under `codec`, row-major.
pub fn encode_rows(codec: &Codec, n: usize) -> Vec<u8> {
    let set = collection();
    let n = n.min(set.len());
    let cb = codec.code_bytes();
    let mut codes = vec![0u8; n * cb];
    for (row, code) in as_rows(&set.packed()[..n * DIM])
        .iter()
        .zip(codes.chunks_exact_mut(cb))
    {
        codec.encode_into(row, code);
    }
    codes
}

/// A small DQ workload over the bench collection.
pub fn dq(n: usize) -> Workload {
    dq_workload(collection(), n, 7)
}

/// A small SQ workload over the bench collection.
pub fn sq(n: usize) -> Workload {
    sq_workload(collection(), n, 0.05, 7)
}

/// Deterministic dataset query points.
pub fn queries(n: usize) -> Vec<Vector> {
    dq(n).queries
}
