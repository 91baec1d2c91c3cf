#![warn(missing_docs)]

//! # eff2-workload
//!
//! The two query workloads of §5.3:
//!
//! * **DQ** ("dataset queries") — descriptors selected at random from the
//!   collection itself, simulating queries that *have* a good match;
//! * **SQ** ("space queries") — points drawn uniformly from the
//!   per-dimension value ranges of the collection after discarding the top
//!   and bottom 5 % of each dimension, simulating queries with *no* match.
//!
//! The paper uses 1,000 queries of each kind, runs each to every chunk
//! index round-robin, and averages the metrics; [`Workload`] is the query
//! container those experiments iterate over.

#![expect(
    clippy::indexing_slicing,
    reason = "query tables are sized by the workload spec that indexes them"
)]

pub mod arrivals;
pub mod image;
pub mod mutations;
pub mod skew;

pub use arrivals::{poisson_arrivals, ArrivalTrace};
pub use image::{image_of_map, image_queries, ImageQuery};
pub use mutations::{skewed_mutation_trace, MutationEvent, MutationOp, MutationTrace};
pub use skew::zipf_assignments;

use eff2_descriptor::{DescriptorSet, TrimmedRanges, Vector, DIM};
use eff2_json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// A named list of query descriptors.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Workload name ("DQ", "SQ", …).
    pub name: String,
    /// The queries.
    pub queries: Vec<Vector>,
    /// For DQ workloads: the collection position each query was sampled
    /// from (parallel to `queries`); empty for synthetic workloads.
    pub source_positions: Vec<u32>,
}

impl Workload {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Serialises to JSON at `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            (
                "queries",
                Json::Arr(self.queries.iter().map(|q| Json::f32_array(&q.0)).collect()),
            ),
            ("source_positions", Json::u32_array(&self.source_positions)),
        ]);
        std::fs::write(path, json.to_string())
    }

    /// Loads a workload saved with [`Workload::save`].
    pub fn load(path: &Path) -> std::io::Result<Workload> {
        let json = Json::parse(&std::fs::read_to_string(path)?)?;
        let queries = json
            .field("queries")?
            .as_arr()?
            .iter()
            .map(|q| {
                let comps = q.to_f32_vec()?;
                let arr: [f32; DIM] =
                    comps
                        .try_into()
                        .map_err(|v: Vec<f32>| eff2_json::JsonError {
                            message: format!("query has {} components, expected {DIM}", v.len()),
                            offset: 0,
                        })?;
                Ok(Vector(arr))
            })
            .collect::<eff2_json::Result<Vec<Vector>>>()?;
        Ok(Workload {
            name: json.field("name")?.as_str()?.to_string(),
            queries,
            source_positions: json.field("source_positions")?.to_u32_vec()?,
        })
    }
}

/// Builds the DQ workload: `n_queries` descriptors sampled uniformly (with
/// replacement) from `set`.
///
/// # Panics
///
/// Panics if `set` is empty.
pub fn dq_workload(set: &DescriptorSet, n_queries: usize, seed: u64) -> Workload {
    assert!(
        !set.is_empty(),
        "cannot sample dataset queries from an empty collection"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(n_queries);
    let mut source_positions = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        let pos = rng.gen_range(0..set.len());
        queries.push(set.vector_owned(pos));
        source_positions.push(pos as u32);
    }
    Workload {
        name: "DQ".into(),
        queries,
        source_positions,
    }
}

/// Builds the SQ workload: `n_queries` points drawn uniformly from the
/// `trim`-trimmed per-dimension ranges of `set` (the paper trims 5 %).
///
/// # Panics
///
/// Panics if `set` is empty or `trim` is outside `[0, 0.5)`.
pub fn sq_workload(set: &DescriptorSet, n_queries: usize, trim: f32, seed: u64) -> Workload {
    let ranges = TrimmedRanges::compute(set, trim);
    sq_workload_from_ranges(&ranges, n_queries, seed)
}

/// Builds an SQ workload from precomputed ranges (lets several workloads
/// share one range analysis).
pub(crate) fn sq_workload_from_ranges(
    ranges: &TrimmedRanges,
    n_queries: usize,
    seed: u64,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = (0..n_queries)
        .map(|_| {
            let mut v = Vector::ZERO;
            for d in 0..DIM {
                v[d] = if ranges.width(d) > 0.0 {
                    rng.gen_range(ranges.low[d]..=ranges.high[d])
                } else {
                    ranges.low[d]
                };
            }
            v
        })
        .collect();
    Workload {
        name: "SQ".into(),
        queries,
        source_positions: Vec::new(),
    }
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
    fn dq_queries_are_dataset_points() {
        let set = line_set(100);
        let w = dq_workload(&set, 50, 7);
        assert_eq!(w.len(), 50);
        assert_eq!(w.name, "DQ");
        for (q, &pos) in w.queries.iter().zip(w.source_positions.iter()) {
            assert_eq!(*q, set.vector_owned(pos as usize));
        }
    }

    #[test]
    fn dq_is_deterministic_per_seed() {
        let set = line_set(100);
        assert_eq!(dq_workload(&set, 20, 1), dq_workload(&set, 20, 1));
        assert_ne!(
            dq_workload(&set, 20, 1).queries,
            dq_workload(&set, 20, 2).queries
        );
    }

    #[test]
    fn sq_queries_stay_in_trimmed_ranges() {
        let set = line_set(100); // values 0..99, 5% trim keeps [5, 94]
        let w = sq_workload(&set, 200, 0.05, 3);
        assert_eq!(w.name, "SQ");
        assert!(w.source_positions.is_empty());
        for q in &w.queries {
            for d in 0..DIM {
                assert!(q[d] >= 5.0 && q[d] <= 94.0, "dim {d} = {}", q[d]);
            }
        }
    }

    #[test]
    fn sq_dimensions_vary_independently() {
        let set = line_set(100);
        let w = sq_workload(&set, 50, 0.05, 3);
        // Unlike the dataset (where all dims are equal), SQ points should
        // have differing components.
        let distinct = w
            .queries
            .iter()
            .filter(|q| (q[0] - q[1]).abs() > 1e-3)
            .count();
        assert!(distinct > 25, "only {distinct} queries vary across dims");
    }

    #[test]
    fn sq_handles_degenerate_dimension() {
        // A collection constant in every dimension.
        let set: DescriptorSet = (0..10)
            .map(|i| Descriptor::new(i, Vector::splat(4.0)))
            .collect();
        let w = sq_workload(&set, 5, 0.05, 0);
        for q in &w.queries {
            assert_eq!(*q, Vector::splat(4.0));
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let set = line_set(50);
        let w = dq_workload(&set, 10, 9);
        let path = std::env::temp_dir().join("eff2_workload_test.json");
        w.save(&path).expect("save");
        let back = Workload::load(&path).expect("load");
        assert_eq!(back, w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn dq_rejects_empty_collection() {
        dq_workload(&DescriptorSet::new(), 5, 0);
    }

    #[test]
    fn zero_queries_is_fine() {
        let set = line_set(10);
        assert!(dq_workload(&set, 0, 0).is_empty());
        assert!(sq_workload(&set, 0, 0.05, 0).is_empty());
    }
}
