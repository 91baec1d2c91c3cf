//! Approximate vs exact: the quality/time trade-off itself.
//!
//! The paper's headline observation (§5.7): "most of the 30 nearest
//! neighbors were found in the first 1–2 seconds, while guaranteeing a
//! correct result took between 16 and 45 seconds". This example compares
//! the two chunk-forming philosophies — BAG clusters vs uniform SR-tree
//! leaves — under the three stop rules, on one collection.
//!
//! ```sh
//! cargo run --release -p eff2-examples --bin approximate_vs_exact
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use eff2_bag::BagConfig;
use eff2_core::{BagChunker, SearchParams, SearchSession, Snapshot, SrTreeChunker, StopRule};
use eff2_descriptor::SyntheticCollection;
use eff2_metrics::precision_at;
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};

#[expect(
    clippy::indexing_slicing,
    reason = "the per-rule tables have one entry per stop rule, and evaluate_rules returns one result per rule"
)]
fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let set = SyntheticCollection::with_size(15_000, 11).set;
    let dir = std::env::temp_dir().join("eff2_approx_vs_exact");
    let model = DiskModel::ata_2005();
    let k = 30;

    // Two indexes over the same collection: quality-first and size-first.
    let mpi = BagConfig::estimate_mpi(&set, 1_000, 11);
    let bag = Snapshot::build(
        &dir,
        "bag",
        &set,
        &BagChunker {
            config: BagConfig {
                mpi,
                max_passes: 300,
                ..BagConfig::default()
            },
            target_clusters: 40,
        },
        8192,
        model,
    )?;
    let sr_leaf = bag.formation.mean_chunk_size().round().max(2.0) as usize;
    let sr = Snapshot::build(
        &dir,
        "sr",
        &set,
        &SrTreeChunker { leaf_size: sr_leaf },
        8192,
        model,
    )?;
    println!(
        "BAG: {} chunks (mean {:.0}, largest {}), {} outliers | SR: {} chunks of {}",
        bag.formation.chunks.len(),
        bag.formation.mean_chunk_size(),
        bag.formation
            .sizes_descending()
            .first()
            .copied()
            .unwrap_or(0),
        bag.formation.outliers.len(),
        sr.formation.chunks.len(),
        sr_leaf,
    );
    println!(
        "(formation cost: BAG {} distance-op equivalents vs SR {})\n",
        bag.formation.cost.distance_ops, sr.formation.cost.distance_ops,
    );

    let queries: Vec<_> = (0..8).map(|i| set.vector_owned(i * 1_873)).collect();

    let labels = ["1 chunk", "5 chunks", "250 ms", "1 s", "completion"];
    let rules = [
        StopRule::Chunks(1),
        StopRule::Chunks(5),
        StopRule::VirtualTime(VirtualDuration::from_ms(250.0)),
        StopRule::VirtualTime(VirtualDuration::from_secs(1.0)),
        StopRule::ToCompletion,
    ];
    let params = SearchParams {
        k,
        stop: StopRule::ToCompletion,
        prefetch_depth: 2,
        log_snapshots: false,
    };

    for (name, index) in [("BAG", &bag.index), ("SR ", &sr.index)] {
        println!("{name} index:");
        // One scan per query answers the whole rule ladder: each entry is
        // identical to a separate search with that rule, but the chunks
        // are only read to the deepest rule's stopping point. The
        // completion entry doubles as the quality reference.
        let mut time = [0.0f64; 5];
        let mut chunks = [0usize; 5];
        let mut precision = [0.0f64; 5];
        for q in &queries {
            let results = SearchSession::open(index.store(), index.model(), q, &params)
                .evaluate_rules(&rules)?;
            let truth: Vec<u32> = results[4].neighbors.iter().map(|n| n.id).collect();
            for (ri, r) in results.iter().enumerate() {
                time[ri] += r.log.total_virtual.as_secs();
                chunks[ri] += r.log.chunks_read;
                let ids: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
                precision[ri] += precision_at(&ids, &truth);
            }
        }
        let nq = queries.len() as f64;
        for (ri, label) in labels.iter().enumerate() {
            println!(
                "  stop = {label:<11} avg {:>6.2}s  {:>5.1} chunks  precision@{k} = {:>5.1}%",
                time[ri] / nq,
                chunks[ri] as f64 / nq,
                100.0 * precision[ri] / nq
            );
        }
        println!();
    }
    println!(
        "the trade-off: a handful of chunks buys most of the quality at a fraction of the time."
    );
    Ok(())
}
