//! Quickstart: build a chunk index over a synthetic descriptor collection
//! and run a resumable anytime search session plus an approximate query.
//!
//! ```sh
//! cargo run --release -p eff2-examples --bin quickstart
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use eff2_core::{SearchParams, SearchSession, Snapshot, SrTreeChunker};
use eff2_descriptor::SyntheticCollection;
use eff2_storage::DiskModel;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    // 1. A collection of ~20k local image descriptors (24-dimensional),
    //    simulating a few hundred images' worth of TV footage.
    let set = SyntheticCollection::with_size(20_000, 7).set;
    // Image ids are dense and non-decreasing, so the last one counts them.
    let images = (set.len().checked_sub(1))
        .and_then(|i| set.image(i))
        .map_or(0, |im| im.0 + 1);
    println!(
        "collection: {} descriptors from ~{} images",
        set.len(),
        images
    );

    // 2. Build a chunk index: uniform 500-descriptor chunks from SR-tree
    //    leaves, stored as a page-padded chunk file + centroid/radius index.
    let dir = std::env::temp_dir().join("eff2_quickstart");
    let built = Snapshot::build(
        &dir,
        "quickstart",
        &set,
        &SrTreeChunker { leaf_size: 500 },
        8192,
        DiskModel::ata_2005(),
    )?;
    println!(
        "index: {} chunks of ~{:.0} descriptors each",
        built.formation.chunks.len(),
        built.formation.mean_chunk_size()
    );

    // 3. Query with a descriptor from the collection (a "dataset query").
    let query = set.vector_owned(1234);

    // Exact search as a resumable session: chunks arrive one step() at a
    // time in centroid-distance order, and the current answer is
    // inspectable between steps — the anytime behaviour the paper studies.
    let mut session = SearchSession::open(
        built.index.store(),
        built.index.model(),
        &query,
        &SearchParams::exact(10),
    );
    println!(
        "\nstepping the session ({} chunks ranked):",
        session.ranking().len()
    );
    while !session.stop_satisfied() {
        let Some(event) = session.step()? else { break };
        println!(
            "  chunk #{:<2} (id {:>2}): kth dist {:.4} at virtual {}",
            event.rank, event.chunk_id, event.kth_dist, event.completed_at,
        );
    }
    let exact = session.into_result();
    println!(
        "exact top-10: read {} of {} chunks, virtual time {}, proven exact: {}",
        exact.log.chunks_read,
        built.index.store().n_chunks(),
        exact.log.total_virtual,
        exact.log.completed,
    );
    for n in exact.neighbors.iter().take(3) {
        println!("  id {:>6}  dist {:.4}", n.id, n.dist);
    }

    // Approximate search: stop after the 3 nearest chunks — the paper's
    // aggressive stop rule. (One-shot `search` drives the same session
    // machinery to its stop rule.)
    let approx = built
        .index
        .search(&query, &SearchParams::approximate(10, 3))?;
    let exact_ids: Vec<u32> = exact.neighbors.iter().map(|n| n.id).collect();
    let approx_ids: Vec<u32> = approx.neighbors.iter().map(|n| n.id).collect();
    let precision = eff2_metrics::precision_at(&approx_ids, &exact_ids);
    println!(
        "\napprox (3 chunks): virtual time {} ({:.1}x faster), precision@10 = {:.0}%",
        approx.log.total_virtual,
        exact.log.total_virtual.as_secs() / approx.log.total_virtual.as_secs(),
        100.0 * precision
    );
    Ok(())
}
