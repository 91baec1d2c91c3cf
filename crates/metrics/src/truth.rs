//! Ground truth by sequential scan.
//!
//! Precision of an approximate result is measured against the exact top-k
//! of a sequential scan (§5.4). Ground truth is computed per *chunk index*
//! (over the descriptors it retains) because an index can only ever return
//! what its chunk file holds — BAG indexes exclude their outliers, so
//! measuring them against a scan of the full collection would conflate
//! outlier-removal loss with the chunk-ordering quality the paper studies.

use eff2_core::scan::scan_store_knn;
use eff2_json::Json;
use eff2_storage::{ChunkStore, Result};
use eff2_workload::Workload;
use std::path::Path;

/// Exact top-k identifiers for every query of a workload against one chunk
/// store.
#[derive(Clone, Debug, PartialEq)]
pub struct GroundTruth {
    /// The k the truth was computed for.
    pub k: usize,
    /// Per query: the exact top-k identifiers in increasing-distance order
    /// (shorter if the store holds fewer than k descriptors).
    pub ids: Vec<Vec<u32>>,
}

impl GroundTruth {
    /// Computes ground truth for `workload` against `store` by sequential
    /// scan, one query per parallel task.
    pub fn compute(store: &ChunkStore, workload: &Workload, k: usize) -> Result<GroundTruth> {
        let ids = eff2_parallel::try_par_map(&workload.queries, |_, q| {
            scan_store_knn(store, q, k).map(|nn| nn.into_iter().map(|n| n.id).collect())
        })?;
        Ok(GroundTruth { k, ids })
    }

    /// Computes ground truth against an in-memory collection instead of a
    /// store (useful in tests and for the full-collection reference).
    pub fn compute_in_memory(
        set: &eff2_descriptor::DescriptorSet,
        workload: &Workload,
        k: usize,
    ) -> GroundTruth {
        let ids = eff2_parallel::par_map(&workload.queries, |_, q| {
            eff2_core::scan::scan_knn(set, q, k)
                .into_iter()
                .map(|n| n.id)
                .collect()
        });
        GroundTruth { k, ids }
    }

    /// The truth set of query `qi` as a sorted vector (for fast
    /// intersection tests).
    pub(crate) fn sorted_set(&self, qi: usize) -> Vec<u32> {
        let mut s = self.ids.get(qi).cloned().unwrap_or_default();
        s.sort_unstable();
        s
    }

    /// Serialises to JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = Json::obj(vec![
            ("k", Json::from_usize(self.k)),
            (
                "ids",
                Json::Arr(self.ids.iter().map(|v| Json::u32_array(v)).collect()),
            ),
        ]);
        std::fs::write(path, json.to_string())
    }

    /// Loads a saved ground truth.
    pub fn load(path: &Path) -> std::io::Result<GroundTruth> {
        let json = Json::parse(&std::fs::read_to_string(path)?)?;
        let k = json.field("k")?.as_usize()?;
        let ids = json
            .field("ids")?
            .as_arr()?
            .iter()
            .map(Json::to_u32_vec)
            .collect::<eff2_json::Result<Vec<Vec<u32>>>>()?;
        Ok(GroundTruth { k, ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_core::chunkers::{ChunkFormer, SrTreeChunker};
    use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
    use eff2_workload::dq_workload;

    fn setup(n: usize, tag: &str) -> (DescriptorSet, ChunkStore) {
        let set: DescriptorSet = (0..n)
            .map(|i| {
                let mut v = Vector::splat((i % 11) as f32);
                v[1] += i as f32 * 0.01;
                Descriptor::new(i as u32, v)
            })
            .collect();
        let f = SrTreeChunker { leaf_size: 32 }.form(&set);
        let dir = std::env::temp_dir().join(format!("eff2_truth_{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store = ChunkStore::create(&dir, "t", &set, &f.chunks, 512).expect("create");
        (set, store)
    }

    #[test]
    fn store_truth_matches_memory_truth_when_nothing_excluded() {
        let (set, store) = setup(300, "match");
        let w = dq_workload(&set, 20, 5);
        let a = GroundTruth::compute(&store, &w, 10).expect("truth");
        let b = GroundTruth::compute_in_memory(&set, &w, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn dq_truth_contains_the_query_itself() {
        let (set, store) = setup(200, "self");
        let w = dq_workload(&set, 10, 3);
        let t = GroundTruth::compute(&store, &w, 5).expect("truth");
        for (qi, &pos) in w.source_positions.iter().enumerate() {
            let qid = set.id(pos as usize).0;
            assert_eq!(
                t.ids[qi][0], qid,
                "nearest neighbour of a dataset point is itself"
            );
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let (set, store) = setup(100, "save");
        let w = dq_workload(&set, 5, 1);
        let t = GroundTruth::compute(&store, &w, 8).expect("truth");
        let path = std::env::temp_dir().join("eff2_truth_roundtrip.json");
        t.save(&path).expect("save");
        assert_eq!(GroundTruth::load(&path).expect("load"), t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sorted_set_is_sorted() {
        let t = GroundTruth {
            k: 3,
            ids: vec![vec![9, 2, 5]],
        };
        assert_eq!(t.sorted_set(0), vec![2, 5, 9]);
    }
}
