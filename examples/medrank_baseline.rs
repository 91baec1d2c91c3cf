//! Medrank vs chunk-index search — the rank-aggregation alternative the
//! paper's related work highlights (§6: "I/O bound, and I/O optimal,
//! because the algorithm is based on the aggregation of ranking rather
//! than distance calculations").
//!
//! This example compares three ways to answer the same approximate top-k
//! query: a chunk index searched to completion (exact), the chunk index
//! under the paper's aggressive chunks-stop rule, and Medrank's median-rank
//! walk (which never evaluates a 24-dimensional distance at query time).
//!
//! ```sh
//! cargo run --release -p eff2-examples --bin medrank_baseline
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use eff2_core::{SearchParams, Snapshot, SrTreeChunker};
use eff2_descriptor::SyntheticCollection;
use eff2_medrank::{MedrankIndex, MedrankParams};
use eff2_metrics::precision_at;
use eff2_storage::DiskModel;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let set = SyntheticCollection::with_size(25_000, 5).set;
    let model = DiskModel::ata_2005();
    let dir = std::env::temp_dir().join("eff2_medrank_example");

    let chunked = Snapshot::build(
        &dir,
        "mr",
        &set,
        &SrTreeChunker { leaf_size: 500 },
        8192,
        model,
    )?;
    let medrank = MedrankIndex::build(
        &set,
        MedrankParams {
            lines: 11,
            ..MedrankParams::default()
        },
    );
    println!(
        "collection: {} descriptors | chunk index: {} chunks | medrank: {} sorted runs\n",
        set.len(),
        chunked.index.store().n_chunks(),
        medrank.params().lines
    );

    let k = 10;
    let queries: Vec<_> = (0..12).map(|i| set.vector_owned(i * 2_003)).collect();

    let mut stats: Vec<(&str, f64, f64)> = Vec::new(); // (name, precision, virtual secs)
    let mut exact_truths = Vec::new();
    {
        let mut time = 0.0;
        for q in &queries {
            let r = chunked.index.search(q, &SearchParams::exact(k))?;
            time += r.log.total_virtual.as_secs();
            exact_truths.push(r.neighbors.iter().map(|n| n.id).collect::<Vec<u32>>());
        }
        stats.push((
            "chunk index (to completion)",
            1.0,
            time / queries.len() as f64,
        ));
    }
    {
        let mut time = 0.0;
        let mut prec = 0.0;
        for (q, truth) in queries.iter().zip(&exact_truths) {
            let r = chunked.index.search(q, &SearchParams::approximate(k, 3))?;
            time += r.log.total_virtual.as_secs();
            let ids: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
            prec += precision_at(&ids, truth);
        }
        let n = queries.len() as f64;
        stats.push(("chunk index (3 chunks)", prec / n, time / n));
    }
    {
        let mut time = 0.0;
        let mut prec = 0.0;
        for (q, truth) in queries.iter().zip(&exact_truths) {
            let (res, steps) = medrank.knn(q, k);
            time += medrank.query_cost(&model, steps).as_secs();
            let ids: Vec<u32> = res.iter().map(|r| r.id).collect();
            prec += precision_at(&ids, truth);
        }
        let n = queries.len() as f64;
        stats.push(("medrank (11 lines)", prec / n, time / n));
    }

    println!(
        "{:<30} {:>12} {:>14}",
        "method", "precision@10", "virtual time"
    );
    for (name, prec, time) in stats {
        println!("{name:<30} {:>11.0}% {:>13.3}s", prec * 100.0, time);
    }
    println!("\nmedrank trades distance computations for sorted-run walking — a different point\non the same quality/time frontier the paper studies.");
    Ok(())
}
