//! Synthetic descriptor collection generator.
//!
//! The paper evaluates on 5,017,298 real 24-dimensional local descriptors
//! from 52,273 images (610 INRIA stills plus television broadcasts). That
//! collection is not available, so this module synthesises one with the
//! three properties the experiments actually depend on:
//!
//! 1. **Density skew.** Real local-descriptor collections are extremely
//!    unevenly distributed: the paper's largest BAG cluster holds more than
//!    a *million* of the five million descriptors (Fig. 1). We model this
//!    with a Zipf-popular vocabulary of "visual elements": a handful of
//!    ubiquitous elements (think station logos, studio backgrounds in TV
//!    footage) attract enormous descriptor populations.
//! 2. **Per-image bursts.** A few hundred descriptors per image, each drawn
//!    near one of the image's elements, with a small per-image offset so
//!    that repeated footage produces tight near-duplicate groups — this is
//!    why the paper's DQ queries "search their own chunk first and find
//!    there a high number of nearest neighbors" (§5.5).
//! 3. **Background noise.** A fraction of descriptors is drawn uniformly
//!    from the bounding box of the space; these become the 8–12 % outliers
//!    that BAG discards (Table 1).
//!
//! Determinism: the generator is fully reproducible from `seed`.

#![expect(
    clippy::indexing_slicing,
    reason = "DIM-bounded component loops of the synthetic generator"
)]

use crate::descriptor::{Descriptor, DescriptorSet, ImageId};
use crate::vector::{Vector, DIM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's ratio of descriptors per image (5,017,298 / 52,273 ≈ 96,
/// "a few hundreds" in the paper's words); scaling `n` scales the image
/// count. Actual per-image counts are uniform in `[mean/2, 3*mean/2]`.
const MEAN_DESCRIPTORS_PER_IMAGE: usize = 96;
/// Zipf exponent of element popularity; larger ⇒ more skew ⇒ bigger
/// natural clusters. The paper's Fig. 1 skew corresponds to ≈1.1.
const ZIPF_EXPONENT: f64 = 1.1;
/// Mean number of distinct elements appearing in one image.
const ELEMENTS_PER_IMAGE: usize = 6;
/// Half-extent of the cube element centres are drawn from.
const SPACE_HALF_EXTENT: f32 = 20.0;
/// Standard deviation of descriptors around their element centre.
///
/// Its ratio to [`SPACE_HALF_EXTENT`] controls the distance *contrast* of
/// the collection, and with it how well the centroid−radius bound prunes.
/// Real 24-d local-descriptor clouds have low contrast (distance
/// concentration): the paper's completion times (16–45 s ≈ a full scan
/// for both strategies) show pruning only bites at the very end. With
/// σ = 8 against a ±20 cube, cluster diameters (≈ 2·8·√24 ≈ 78) are
/// commensurate with inter-element distances (≈ 80), so bounding spheres
/// overlap heavily and the search degrades towards a guided scan — while
/// the density modes BAG needs are still present.
const ELEMENT_SIGMA: f32 = 8.0;
/// Standard deviation of the per-image offset applied to an element.
const IMAGE_JITTER_SIGMA: f32 = 1.5;
/// Fraction of descriptors drawn uniformly from the (enlarged) space
/// (outliers).
const NOISE_FRACTION: f64 = 0.10;
/// Noise points are drawn from a cube this many times larger than the
/// element cube, so they sit in the sparse periphery like real rare
/// descriptors (inside the cloud they would simply be absorbed).
const NOISE_EXTENT_FACTOR: f32 = 2.5;

/// Number of images simulated for a collection of roughly `n` descriptors.
fn n_images(n: usize) -> usize {
    (n / MEAN_DESCRIPTORS_PER_IMAGE).max(1)
}

/// Size of the visual-element vocabulary for roughly `n` descriptors. It
/// grows sub-linearly with the collection: new footage mostly re-observes
/// known elements.
fn n_elements(n: usize) -> usize {
    ((n as f64).sqrt() as usize * 2).clamp(64, 50_000)
}

/// Expected number of descriptors generated for roughly `n` (approximate;
/// the realised count varies with per-image draws).
fn expected_len(n: usize) -> usize {
    n_images(n) * MEAN_DESCRIPTORS_PER_IMAGE
}

/// A generated collection.
#[derive(Clone, Debug)]
pub struct SyntheticCollection {
    /// The descriptors (with image attribution, image ids dense from 0 and
    /// non-decreasing in storage order).
    pub set: DescriptorSet,
}

impl SyntheticCollection {
    /// Generates roughly `n` descriptors in the paper-like shape, fully
    /// determined by `seed`.
    pub fn with_size(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);

        // Element centres: uniform in the cube. Popularity: Zipf over rank.
        let n_elements = n_elements(n);
        let centres: Vec<Vector> = (0..n_elements)
            .map(|_| uniform_vector(&mut rng, SPACE_HALF_EXTENT))
            .collect();
        let popularity = ZipfSampler::new(n_elements, ZIPF_EXPONENT);

        let mut set = DescriptorSet::with_capacity(expected_len(n));
        let mut next_id: u32 = 0;
        for image in 0..n_images(n) {
            // Which elements appear in this image, and where (jittered).
            let mut image_elements = Vec::with_capacity(ELEMENTS_PER_IMAGE);
            for _ in 0..ELEMENTS_PER_IMAGE {
                let el = popularity.sample(&mut rng);
                let mut centre = centres[el];
                for d in 0..DIM {
                    centre[d] += gaussian(&mut rng) * IMAGE_JITTER_SIGMA;
                }
                image_elements.push(centre);
            }

            let lo = MEAN_DESCRIPTORS_PER_IMAGE / 2;
            let hi = MEAN_DESCRIPTORS_PER_IMAGE * 3 / 2;
            let n_desc = rng.gen_range(lo..=hi);
            for _ in 0..n_desc {
                let v = if rng.gen_bool(NOISE_FRACTION) {
                    uniform_vector(&mut rng, SPACE_HALF_EXTENT * NOISE_EXTENT_FACTOR)
                } else {
                    let centre = &image_elements[rng.gen_range(0..image_elements.len())];
                    let mut v = *centre;
                    for d in 0..DIM {
                        v[d] += gaussian(&mut rng) * ELEMENT_SIGMA;
                    }
                    v
                };
                set.push_with_image(Descriptor::new(next_id, v), ImageId(image as u32));
                next_id += 1;
            }
        }
        SyntheticCollection { set }
    }
}

/// Samples ranks with probability ∝ 1/(rank+1)^s via inverse-CDF lookup.
struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf sampler needs a non-empty support");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        // Normalise so the last entry is exactly 1.
        for c in cumulative.iter_mut() {
            *c /= total;
        }
        ZipfSampler { cumulative }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// One standard-normal draw (Box–Muller; we deliberately discard the paired
/// second variate to keep the sampler stateless).
fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

fn uniform_vector<R: Rng>(rng: &mut R, half_extent: f32) -> Vector {
    let mut v = Vector::ZERO;
    for d in 0..DIM {
        v[d] = rng.gen_range(-half_extent..half_extent);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticCollection::with_size(2_000, 7);
        let b = SyntheticCollection::with_size(2_000, 7);
        assert_eq!(a.set.len(), b.set.len());
        for i in (0..a.set.len()).step_by(97) {
            assert_eq!(a.set.get(i), b.set.get(i));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticCollection::with_size(1_000, 1);
        let b = SyntheticCollection::with_size(1_000, 2);
        // Same spec shape, but the actual points must differ.
        let differs = (0..a.set.len().min(b.set.len()))
            .any(|i| a.set.vector_owned(i) != b.set.vector_owned(i));
        assert!(differs);
    }

    #[test]
    fn size_is_close_to_requested() {
        let c = SyntheticCollection::with_size(10_000, 3);
        let n = c.set.len();
        assert!(n > 7_000 && n < 13_000, "got {n}");
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let c = SyntheticCollection::with_size(3_000, 5);
        for i in 0..c.set.len() {
            assert_eq!(c.set.id(i).0 as usize, i);
        }
    }

    #[test]
    fn images_are_attributed_and_monotone() {
        let c = SyntheticCollection::with_size(2_000, 5);
        assert!(c.set.has_images());
        let mut last = 0u32;
        for i in 0..c.set.len() {
            let img = c
                .set
                .image(i)
                .expect("generator attributes every descriptor")
                .0;
            assert!(
                img >= last,
                "image ids must be non-decreasing in storage order"
            );
            last = img;
        }
        assert_eq!(
            last as usize,
            n_images(2_000) - 1,
            "every image is populated"
        );
    }

    #[test]
    fn points_stay_in_plausible_box() {
        let c = SyntheticCollection::with_size(5_000, 11);
        let ext = SPACE_HALF_EXTENT * NOISE_EXTENT_FACTOR + 8.0 * ELEMENT_SIGMA;
        for i in 0..c.set.len() {
            for &x in c.set.vector(i) {
                assert!(x.abs() <= ext, "component {x} escapes the space box");
                assert!(x.is_finite());
            }
        }
    }

    #[test]
    fn popular_elements_dominate() {
        // Density skew check: the most crowded small ball should hold far
        // more descriptors than an average one. We proxy this by counting
        // duplicates of the nearest element for a sample of points.
        let c = SyntheticCollection::with_size(20_000, 13);
        // Coarse grid occupancy: bucket by sign pattern of first 8 dims.
        let mut buckets = std::collections::BTreeMap::new();
        for i in 0..c.set.len() {
            let v = c.set.vector(i);
            let mut key = 0u32;
            for (d, &x) in v.iter().take(8).enumerate() {
                if x > 0.0 {
                    key |= 1 << d;
                }
            }
            *buckets.entry(key).or_insert(0usize) += 1;
        }
        let max = *buckets.values().max().expect("non-empty");
        let mean = c.set.len() / buckets.len().max(1);
        assert!(
            max > mean * 3,
            "expected a heavily skewed occupancy, max {max} vs mean {mean}"
        );
    }

    #[test]
    fn zipf_sampler_prefers_low_ranks() {
        let z = ZipfSampler::new(100, 1.1);
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = vec![0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[0] > counts[50]);
        assert!(counts[0] > 500, "rank 0 should dominate, got {}", counts[0]);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let g = f64::from(gaussian(&mut rng));
            sum += g;
            sum_sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn expected_len_matches_shape() {
        assert_eq!(expected_len(50_000), 520 * MEAN_DESCRIPTORS_PER_IMAGE);
        let c = SyntheticCollection::with_size(50_000, 0);
        let (lo, hi) = (expected_len(50_000) / 2, expected_len(50_000) * 3 / 2);
        assert!((lo..=hi).contains(&c.set.len()), "got {}", c.set.len());
    }
}
