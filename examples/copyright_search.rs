//! Copyright-protection search — the application the paper's descriptor
//! scheme was designed for ("particularly well suited to enforce robust
//! content-based image searches for copyright protection", §4.1).
//!
//! A *suspect* image is described by a few hundred local descriptors; each
//! descriptor votes for the collection images its nearest neighbours come
//! from. An image that accumulates many votes is a likely (possibly
//! transformed) copy. This example plants a perturbed copy of one image in
//! the collection and shows that approximate multi-descriptor search
//! recovers it in a fraction of the exact search's time.
//!
//! ```sh
//! cargo run --release -p eff2-examples --bin copyright_search
//! ```

#![expect(
    clippy::print_stdout,
    reason = "an example shows its results on stdout"
)]

use eff2_core::{SearchParams, Snapshot, SrTreeChunker};
use eff2_descriptor::{SyntheticCollection, Vector};
use eff2_storage::DiskModel;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let set = SyntheticCollection::with_size(30_000, 21).set;
    // Image ids are dense and non-decreasing, so the last one counts them.
    let images = (set.len().checked_sub(1))
        .and_then(|i| set.image(i))
        .map_or(0, |im| im.0 + 1);
    println!(
        "collection: {} descriptors from ~{} broadcast images",
        set.len(),
        images
    );

    let dir = std::env::temp_dir().join("eff2_copyright");
    let built = Snapshot::build(
        &dir,
        "copyright",
        &set,
        &SrTreeChunker { leaf_size: 600 },
        8192,
        DiskModel::ata_2005(),
    )?;

    // The "suspect": every descriptor of one collection image, slightly
    // perturbed (simulating re-encoding / mild editing of a pirated copy).
    let pirated_image = 17u32;
    let suspect: Vec<Vector> = (0..set.len())
        .filter(|&i| set.image(i).map(|im| im.0) == Some(pirated_image))
        .map(|i| {
            let mut v = set.vector_owned(i);
            for d in 0..eff2_descriptor::DIM {
                v[d] += ((d as f32 * 0.37).sin()) * 0.05; // deterministic jitter
            }
            v
        })
        .collect();
    println!(
        "suspect image: {} local descriptors (perturbed copy of img{pirated_image})\n",
        suspect.len()
    );

    for (label, params) in [
        ("exact (to completion)", SearchParams::exact(5)),
        (
            "approximate (2 chunks/descriptor)",
            SearchParams::approximate(5, 2),
        ),
    ] {
        let mut votes: BTreeMap<u32, usize> = BTreeMap::new();
        let mut virtual_total = 0.0;
        for q in &suspect {
            let r = built.index.search(q, &params)?;
            virtual_total += r.log.total_virtual.as_secs();
            for n in &r.neighbors {
                // Descriptor ids are collection positions in this synthetic
                // collection, so the image map resolves the vote.
                if let Some(img) = set.image(n.id as usize) {
                    *votes.entry(img.0).or_default() += 1;
                }
            }
        }
        let mut ranked: Vec<(u32, usize)> = votes.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        println!("{label}: total virtual time {virtual_total:.1}s");
        for (img, v) in ranked.iter().take(3) {
            let marker = if *img == pirated_image {
                "  <-- the pirated source"
            } else {
                ""
            };
            println!("  img{img:<6} {v:>5} votes{marker}");
        }
        assert_eq!(
            ranked.first().map(|&(img, _)| img),
            Some(pirated_image),
            "the pirated source must win the vote"
        );
        println!();
    }
    println!("both searches identify the source; the approximate one does so far sooner.");
    Ok(())
}
