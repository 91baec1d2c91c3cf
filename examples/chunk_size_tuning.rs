//! Chunk-size tuning — a miniature of the paper's Experiment 2 (Figures
//! 6–7): how does the chunk size affect the time to reach a given result
//! quality?
//!
//! The paper's lesson: performance is flat across a wide range of chunk
//! sizes (≈1k–10k descriptors at 5M scale); only the extremes hurt — tiny
//! chunks pay per-chunk seek overhead and index-ranking cost, giant chunks
//! stall the chunk-granular search loop.
//!
//! ```sh
//! cargo run --release -p eff2-examples --bin chunk_size_tuning
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use eff2_core::StopRule;
use eff2_core::{SearchParams, Snapshot, SrTreeChunker};
use eff2_descriptor::SyntheticCollection;
use eff2_metrics::precision_at;
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let set = SyntheticCollection::with_size(40_000, 3).set;
    let dir = std::env::temp_dir().join("eff2_tuning");
    let model = DiskModel::ata_2005();
    let k = 20;

    // Ten dataset queries with known exact answers.
    let queries: Vec<_> = (0..10).map(|i| set.vector_owned(i * 3_777)).collect();
    let truths: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            eff2_core::scan_knn(&set, q, k)
                .into_iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();

    println!(
        "{:>10} {:>8} {:>14} {:>16} {:>18}",
        "chunk size", "chunks", "index read", "t(precision=1)", "precision@200ms"
    );
    for chunk_size in [50usize, 150, 400, 1_000, 2_500, 6_000, 15_000] {
        let built = Snapshot::build(
            &dir,
            &format!("tune{chunk_size}"),
            &set,
            &SrTreeChunker {
                leaf_size: chunk_size,
            },
            8192,
            model,
        )?;

        let mut t_exact = 0.0;
        let mut p_budget = 0.0;
        let mut index_read_ms = 0.0;
        for (q, truth) in queries.iter().zip(&truths) {
            // Time until the exact answer is in hand (run to completion).
            let exact = built.index.search(q, &SearchParams::exact(k))?;
            t_exact += exact.log.total_virtual.as_secs();
            index_read_ms += exact.log.index_read_time.as_ms();

            // Quality within a 200 ms virtual budget.
            let budget = built.index.search(
                q,
                &SearchParams {
                    k,
                    stop: StopRule::VirtualTime(VirtualDuration::from_ms(200.0)),
                    prefetch_depth: 2,
                    log_snapshots: false,
                },
            )?;
            let ids: Vec<u32> = budget.neighbors.iter().map(|n| n.id).collect();
            p_budget += precision_at(&ids, truth);
        }
        let nq = queries.len() as f64;
        println!(
            "{:>10} {:>8} {:>12.1}ms {:>15.2}s {:>17.0}%",
            chunk_size,
            built.index.store().n_chunks(),
            index_read_ms / nq,
            t_exact / nq,
            100.0 * p_budget / nq
        );
    }
    println!("\nnote the flat valley in the middle: chunk size barely matters until the extremes.");
    Ok(())
}
