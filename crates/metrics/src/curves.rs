//! Quality-vs-time curves over intermediate results.
//!
//! The paper logs, after every processed chunk, how many of the eventual
//! top-30 have already been found, and reports workload averages of
//!
//! * the number of chunks read to find *m* neighbours (Figs. 2–3),
//! * the elapsed time to find *m* neighbours (Figs. 4–7), and
//! * the time to completion (Table 2).
//!
//! [`quality_curve`] runs every query of a workload to completion against
//! one chunk store and produces exactly those series.

#![expect(
    clippy::indexing_slicing,
    reason = "aligned series share one length established at construction"
)]

use crate::truth::GroundTruth;
use eff2_core::search::{SearchParams, StopRule};
use eff2_core::session::SearchSession;
use eff2_json::Json;
use eff2_storage::diskmodel::DiskModel;
use eff2_storage::{ChunkStore, Result};
use eff2_workload::Workload;

/// Precision@k: the fraction of `truth` present in `result` (the paper
/// notes that with a fixed answer size, precision and recall coincide).
pub fn precision_at(result: &[u32], truth: &[u32]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let mut sorted = truth.to_vec();
    sorted.sort_unstable();
    let hits = result
        .iter()
        .filter(|id| sorted.binary_search(id).is_ok())
        .count();
    hits as f64 / truth.len() as f64
}

/// Workload-averaged quality-vs-time series for one chunk index.
#[derive(Clone, Debug)]
pub struct QualityCurve {
    /// Index label (e.g. "BAG / SMALL").
    pub label: String,
    /// Workload name ("DQ" / "SQ").
    pub workload: String,
    /// Result size k.
    pub k: usize,
    /// Queries evaluated.
    pub n_queries: usize,
    /// `avg_chunks_for_m[m-1]` = average chunks read until `m` true
    /// neighbours were found, over the queries that reached `m`.
    pub avg_chunks_for_m: Vec<f64>,
    /// `avg_time_for_m[m-1]` = average virtual seconds until `m` true
    /// neighbours were found.
    pub avg_time_for_m: Vec<f64>,
    /// How many queries ever found `m` true neighbours (an index that
    /// dropped outliers may top out below k for some queries).
    pub reach_count: Vec<usize>,
    /// Average virtual seconds to run a query to completion (Table 2).
    pub avg_completion_secs: f64,
    /// Average chunks read to completion.
    pub avg_completion_chunks: f64,
    /// Average virtual milliseconds spent reading/ranking the chunk index.
    pub avg_index_read_ms: f64,
}

struct PerQuery {
    chunks_for_m: Vec<Option<u32>>,
    time_for_m: Vec<Option<f64>>,
    completion_secs: f64,
    completion_chunks: usize,
    index_read_ms: f64,
}

fn reduce_query(
    store: &ChunkStore,
    model: &DiskModel,
    query: &eff2_descriptor::Vector,
    truth_sorted: &[u32],
    k: usize,
) -> Result<PerQuery> {
    let params = SearchParams {
        k,
        stop: StopRule::ToCompletion,
        prefetch_depth: 2,
        log_snapshots: true,
    };
    // Step the session chunk by chunk and fold each event as it appears —
    // the anytime consumption pattern, rather than post-processing a
    // finished log. The figures are identical either way.
    let mut session = SearchSession::open(store, model, query, &params);
    let mut chunks_for_m = vec![None; k];
    let mut time_for_m = vec![None; k];
    while !session.stop_satisfied() {
        let Some(event) = session.step()? else { break };
        let found = event
            .topk_ids
            .iter()
            .filter(|id| truth_sorted.binary_search(id).is_ok())
            .count();
        // `found` is monotone across events: a true top-k member can only
        // be evicted by a strictly closer descriptor, which must itself be
        // a true top-k member.
        for m in 1..=found.min(k) {
            if chunks_for_m[m - 1].is_none() {
                chunks_for_m[m - 1] = Some(event.rank as u32 + 1);
                time_for_m[m - 1] = Some(event.completed_at.as_secs());
            }
        }
    }
    let result = session.into_result();
    Ok(PerQuery {
        chunks_for_m,
        time_for_m,
        completion_secs: result.log.total_virtual.as_secs(),
        completion_chunks: result.log.chunks_read,
        index_read_ms: result.log.index_read_time.as_ms(),
    })
}

/// Runs every query of `workload` to completion against `store` and
/// averages the quality-vs-time metrics. `truth` must have been computed
/// for the same store and `k`.
///
/// # Panics
///
/// Panics if `truth` does not cover the workload or was computed for a
/// different k.
pub fn quality_curve(
    store: &ChunkStore,
    model: &DiskModel,
    workload: &Workload,
    truth: &GroundTruth,
    k: usize,
    label: &str,
) -> Result<QualityCurve> {
    assert_eq!(
        truth.ids.len(),
        workload.len(),
        "truth does not cover the workload"
    );
    assert_eq!(truth.k, k, "truth was computed for k = {}", truth.k);

    let per_query: Vec<PerQuery> = eff2_parallel::try_par_map(&workload.queries, |qi, q| {
        let truth_sorted = truth.sorted_set(qi);
        reduce_query(store, model, q, &truth_sorted, k)
    })?;

    let nq = per_query.len();
    let mut curve = QualityCurve {
        label: label.to_string(),
        workload: workload.name.clone(),
        k,
        n_queries: nq,
        avg_chunks_for_m: vec![0.0; k],
        avg_time_for_m: vec![0.0; k],
        reach_count: vec![0; k],
        avg_completion_secs: 0.0,
        avg_completion_chunks: 0.0,
        avg_index_read_ms: 0.0,
    };
    for pq in &per_query {
        curve.avg_completion_secs += pq.completion_secs;
        curve.avg_completion_chunks += pq.completion_chunks as f64;
        curve.avg_index_read_ms += pq.index_read_ms;
        for m in 0..k {
            if let (Some(c), Some(t)) = (pq.chunks_for_m[m], pq.time_for_m[m]) {
                curve.avg_chunks_for_m[m] += f64::from(c);
                curve.avg_time_for_m[m] += t;
                curve.reach_count[m] += 1;
            }
        }
    }
    if nq > 0 {
        curve.avg_completion_secs /= nq as f64;
        curve.avg_completion_chunks /= nq as f64;
        curve.avg_index_read_ms /= nq as f64;
    }
    for m in 0..k {
        if curve.reach_count[m] > 0 {
            curve.avg_chunks_for_m[m] /= curve.reach_count[m] as f64;
            curve.avg_time_for_m[m] /= curve.reach_count[m] as f64;
        } else {
            curve.avg_chunks_for_m[m] = f64::NAN;
            curve.avg_time_for_m[m] = f64::NAN;
        }
    }
    Ok(curve)
}

impl QualityCurve {
    /// Average chunks read until `m` neighbours were found.
    pub fn chunks_for(&self, m: usize) -> f64 {
        self.avg_chunks_for_m[m - 1]
    }

    /// Average virtual seconds until `m` neighbours were found.
    pub fn time_for(&self, m: usize) -> f64 {
        self.avg_time_for_m[m - 1]
    }

    /// Converts to JSON. Unreached `m` slots are NaN and serialise as
    /// `null`; [`QualityCurve::from_json`] restores them to NaN.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::Str(self.label.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("k", Json::from_usize(self.k)),
            ("n_queries", Json::from_usize(self.n_queries)),
            ("avg_chunks_for_m", Json::f64_array(&self.avg_chunks_for_m)),
            ("avg_time_for_m", Json::f64_array(&self.avg_time_for_m)),
            (
                "reach_count",
                Json::Arr(
                    self.reach_count
                        .iter()
                        .map(|&c| Json::from_usize(c))
                        .collect(),
                ),
            ),
            ("avg_completion_secs", Json::num(self.avg_completion_secs)),
            (
                "avg_completion_chunks",
                Json::num(self.avg_completion_chunks),
            ),
            ("avg_index_read_ms", Json::num(self.avg_index_read_ms)),
        ])
    }

    /// Parses a curve previously written by [`QualityCurve::to_json`].
    pub fn from_json(json: &Json) -> eff2_json::Result<QualityCurve> {
        Ok(QualityCurve {
            label: json.field("label")?.as_str()?.to_string(),
            workload: json.field("workload")?.as_str()?.to_string(),
            k: json.field("k")?.as_usize()?,
            n_queries: json.field("n_queries")?.as_usize()?,
            avg_chunks_for_m: json.field("avg_chunks_for_m")?.to_f64_vec()?,
            avg_time_for_m: json.field("avg_time_for_m")?.to_f64_vec()?,
            reach_count: json.field("reach_count")?.to_usize_vec()?,
            avg_completion_secs: json.field("avg_completion_secs")?.as_f64()?,
            avg_completion_chunks: json.field("avg_completion_chunks")?.as_f64()?,
            avg_index_read_ms: json.field("avg_index_read_ms")?.as_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_core::chunkers::{ChunkFormer, SrTreeChunker};
    use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
    use eff2_workload::dq_workload;

    fn setup(tag: &str) -> (DescriptorSet, ChunkStore) {
        let set: DescriptorSet = (0..400)
            .map(|i| {
                let mut v = Vector::splat((i % 8) as f32 * 12.0);
                v[0] += ((i * 13) % 29) as f32 * 0.1;
                Descriptor::new(i as u32, v)
            })
            .collect();
        let f = SrTreeChunker { leaf_size: 40 }.form(&set);
        let dir = std::env::temp_dir().join(format!("eff2_curves_{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store = ChunkStore::create(&dir, "c", &set, &f.chunks, 512).expect("create");
        (set, store)
    }

    #[test]
    fn precision_basics() {
        assert_eq!(precision_at(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(precision_at(&[1, 9, 8], &[1, 2, 3]), 1.0 / 3.0);
        assert_eq!(precision_at(&[], &[1, 2]), 0.0);
        assert_eq!(precision_at(&[5], &[]), 1.0);
    }

    #[test]
    fn curve_is_complete_and_monotone() {
        let (set, store) = setup("mono");
        let w = dq_workload(&set, 15, 3);
        let k = 10;
        let truth = GroundTruth::compute(&store, &w, k).expect("truth");
        let curve =
            quality_curve(&store, &DiskModel::ata_2005(), &w, &truth, k, "SR").expect("curve");
        assert_eq!(curve.n_queries, 15);
        // Every query ran to completion, so every m must be reached.
        for m in 0..k {
            assert_eq!(curve.reach_count[m], 15, "m = {}", m + 1);
        }
        // Chunks- and time-to-m are non-decreasing in m.
        for m in 1..k {
            assert!(curve.avg_chunks_for_m[m] >= curve.avg_chunks_for_m[m - 1]);
            assert!(curve.avg_time_for_m[m] >= curve.avg_time_for_m[m - 1]);
        }
        // Completion dominates everything.
        assert!(curve.avg_completion_secs >= curve.avg_time_for_m[k - 1]);
        assert!(curve.avg_completion_chunks >= curve.avg_chunks_for_m[k - 1]);
        assert!(curve.avg_index_read_ms > 0.0);
    }

    #[test]
    fn dataset_queries_find_first_neighbors_in_first_chunk() {
        let (set, store) = setup("first");
        let w = dq_workload(&set, 10, 7);
        let k = 5;
        let truth = GroundTruth::compute(&store, &w, k).expect("truth");
        let curve =
            quality_curve(&store, &DiskModel::ata_2005(), &w, &truth, k, "SR").expect("curve");
        // A dataset query's own chunk is ranked first and contains it.
        assert!(
            curve.chunks_for(1) < 1.5,
            "first neighbour should come from the first chunk, got {}",
            curve.chunks_for(1)
        );
    }

    #[test]
    #[should_panic(expected = "truth was computed for k")]
    fn k_mismatch_panics() {
        let (set, store) = setup("kmis");
        let w = dq_workload(&set, 3, 0);
        let truth = GroundTruth::compute(&store, &w, 5).expect("truth");
        let _ = quality_curve(&store, &DiskModel::ata_2005(), &w, &truth, 7, "x");
    }

    #[test]
    fn empty_workload_curve() {
        let (set, store) = setup("empty");
        let w = eff2_workload::Workload {
            name: "DQ".into(),
            queries: vec![],
            source_positions: vec![],
        };
        let _ = set;
        let truth = GroundTruth { k: 3, ids: vec![] };
        let curve =
            quality_curve(&store, &DiskModel::ata_2005(), &w, &truth, 3, "e").expect("curve");
        assert_eq!(curve.n_queries, 0);
        assert!(curve.avg_chunks_for_m[0].is_nan());
    }
}
