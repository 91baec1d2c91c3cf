//! Image-query workloads: descriptor sets voting for a ground-truth image.
//!
//! A real image query is not one descriptor but a *set* of local
//! descriptors extracted from one image. This module builds that workload
//! on top of the collection:
//!
//! 1. [`image_of_map`] partitions the collection's descriptors into
//!    images — a Zipf-skewed assignment (via [`zipf_assignments`]), so some
//!    images own many descriptors and some few, like real photo
//!    collections;
//! 2. [`image_queries`] samples query images and, for each, draws a set
//!    of that image's own descriptors as the query set — the image-level
//!    analogue of the DQ workload, where every query *has* a right
//!    answer (its source image should win the vote).
//!
//! Both are pure functions of their seeds: the same call yields the same
//! workload on every machine.

use crate::skew::zipf_assignments;
use eff2_descriptor::{DescriptorSet, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One image query: a set of descriptors sampled from a single source
/// image, labelled with that image so precision has a ground truth.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageQuery {
    /// The source image every descriptor was drawn from — the label the
    /// vote aggregation is supposed to rank first.
    pub image: u32,
    /// The query descriptors.
    pub descriptors: Vec<Vector>,
    /// Collection position each descriptor was sampled from (parallel to
    /// `descriptors`).
    pub source_positions: Vec<u32>,
}

impl ImageQuery {
    /// Number of descriptors in the query set.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Whether the query carries no descriptors.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }
}

/// Assigns every descriptor of an `n_descriptors`-sized collection to one
/// of `n_images` images, image popularity following a Zipf law with
/// `exponent` (0 = uniform sizes). Deterministic per seed; the returned
/// vector is indexed by descriptor id.
pub fn image_of_map(n_descriptors: usize, n_images: usize, exponent: f64, seed: u64) -> Vec<u32> {
    zipf_assignments(n_descriptors, n_images, exponent, seed)
}

/// Builds `n_queries` image queries over `set`: each query picks a source
/// image (by drawing a random collection descriptor and taking its image
/// under `image_of`) and samples `per_query` of that image's member
/// descriptors with replacement. Deterministic per seed.
///
/// Images with no members can never be drawn (selection goes through a
/// member descriptor), so every query holds at least one valid
/// descriptor as long as `per_query > 0`.
///
/// # Panics
///
/// Panics if `set` is empty or `image_of` is shorter than `set`.
pub fn image_queries(
    set: &DescriptorSet,
    image_of: &[u32],
    n_queries: usize,
    per_query: usize,
    seed: u64,
) -> Vec<ImageQuery> {
    assert!(
        !set.is_empty(),
        "cannot sample image queries from an empty collection"
    );
    assert!(
        image_of.len() >= set.len(),
        "image_of covers {} descriptors, collection holds {}",
        image_of.len(),
        set.len()
    );
    // Members per image, in ascending descriptor order.
    let n_images = image_of.iter().take(set.len()).map(|&i| i + 1).max();
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_images.unwrap_or(0) as usize];
    for (pos, &image) in image_of.iter().take(set.len()).enumerate() {
        // lint:allow(panic.index): members was sized to max(image) + 1 above
        members[image as usize].push(pos as u32);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_queries)
        .map(|_| {
            let anchor = rng.gen_range(0..set.len());
            // lint:allow(panic.index): anchor < set.len() <= image_of.len(), asserted above
            let image = image_of[anchor];
            // lint:allow(panic.index): members was sized to max(image) + 1 above
            let pool = &members[image as usize];
            let source_positions: Vec<u32> = (0..per_query)
                // lint:allow(panic.index): pool holds at least the anchor descriptor
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let descriptors = source_positions
                .iter()
                .map(|&pos| set.vector_owned(pos as usize))
                .collect();
            ImageQuery {
                image,
                descriptors,
                source_positions,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::Descriptor;

    fn line_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| Descriptor::new(i as u32, Vector::splat(i as f32)))
            .collect()
    }

    #[test]
    fn queries_sample_descriptors_of_their_own_image() {
        let set = line_set(200);
        let image_of = image_of_map(set.len(), 12, 0.8, 5);
        let queries = image_queries(&set, &image_of, 30, 8, 9);
        assert_eq!(queries.len(), 30);
        for q in &queries {
            assert_eq!(q.len(), 8);
            for (&pos, vector) in q.source_positions.iter().zip(q.descriptors.iter()) {
                assert_eq!(
                    image_of[pos as usize], q.image,
                    "descriptor {pos} belongs to another image"
                );
                assert_eq!(*vector, set.vector_owned(pos as usize));
            }
        }
    }

    #[test]
    fn image_queries_are_deterministic_per_seed() {
        let set = line_set(150);
        let image_of = image_of_map(set.len(), 10, 1.0, 2);
        let a = image_queries(&set, &image_of, 20, 6, 3);
        let b = image_queries(&set, &image_of, 20, 6, 3);
        assert_eq!(a, b);
        let c = image_queries(&set, &image_of, 20, 6, 4);
        assert_ne!(a, c, "a different seed draws different queries");
    }

    #[test]
    fn skewed_map_makes_popular_images_likelier_anchors() {
        let set = line_set(2_000);
        let image_of = image_of_map(set.len(), 16, 1.2, 7);
        let queries = image_queries(&set, &image_of, 200, 4, 11);
        // Anchors are drawn via member descriptors, so the hot image
        // (which owns the most descriptors) should anchor the most
        // queries.
        let mut counts = [0usize; 16];
        for q in &queries {
            counts[q.image as usize] += 1;
        }
        let hot = counts[0];
        let tail = counts[12..].iter().sum::<usize>() / 4;
        assert!(
            hot > tail,
            "hot image anchors {hot} queries, mean tail image {tail}"
        );
    }

    #[test]
    fn zero_queries_or_zero_descriptors_are_fine() {
        let set = line_set(50);
        let image_of = image_of_map(set.len(), 4, 0.5, 1);
        assert!(image_queries(&set, &image_of, 0, 8, 0).is_empty());
        let empties = image_queries(&set, &image_of, 3, 0, 0);
        assert_eq!(empties.len(), 3);
        for q in &empties {
            assert!(q.is_empty(), "per_query = 0 yields empty descriptor sets");
        }
    }

    #[test]
    fn single_image_map_sends_every_query_to_it() {
        let set = line_set(40);
        let image_of = image_of_map(set.len(), 1, 2.0, 0);
        for q in image_queries(&set, &image_of, 10, 3, 5) {
            assert_eq!(q.image, 0);
        }
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn empty_collection_is_rejected() {
        image_queries(&DescriptorSet::new(), &[], 1, 1, 0);
    }
}
