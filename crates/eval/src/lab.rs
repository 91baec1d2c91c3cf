//! The experiment laboratory: builds (and caches on disk) the collection,
//! the six chunk indexes, the workloads, the ground truths and the quality
//! curves that the individual experiments consume.
//!
//! Everything is keyed by `(scale, seed)` under `<out>/cache/…`, so
//! re-running an experiment binary reuses all prior artefacts — in
//! particular the BAG clustering, which is by far the most expensive step
//! (the paper needed 12 days for its 5 M collection; at the default
//! 100 k scale the pruned-engine run takes minutes).

use crate::scale::{Scale, PAGE_SIZE};
use crate::EvalResult;
use eff2_bag::{Bag, BagConfig, BagSnapshot};
use eff2_core::chunkers::{ChunkFormer, SrTreeChunker};
use eff2_descriptor::{codec, Codec, DescriptorSet, PqCodec, Sq8Codec, SyntheticCollection};
use eff2_json::Json;
use eff2_metrics::{quality_curve, GroundTruth, QualityCurve};
use eff2_storage::diskmodel::DiskModel;
use eff2_storage::{ChunkDef, ChunkStore};
use eff2_workload::{dq_workload, sq_workload, Workload};
use std::path::{Path, PathBuf};

/// The three chunk-size classes of the paper's Table 1.
pub(crate) const SIZE_CLASSES: [&str; 3] = ["SMALL", "MEDIUM", "LARGE"];

/// Cache format version: bump whenever the generator, the chunk formers or
/// the cost model change in a way that invalidates cached artefacts.
/// v3: chunk files grew per-chunk checksums (format v2), so older cached
/// stores no longer open. Chunk-file format v4 (XXH32 block sums) needs no
/// bump: v2 and v3 files in a cache still open, and new ones are v4.
pub(crate) const CACHE_VERSION: u32 = 3;

/// Metadata recorded for every built index (Table 1's raw material).
#[derive(Clone, Debug)]
pub struct IndexMeta {
    /// Display label, e.g. "BAG / SMALL".
    pub label: String,
    /// Strategy description.
    pub strategy: String,
    /// Descriptors offered to the former.
    pub total_input: usize,
    /// Descriptors placed in chunks.
    pub retained: usize,
    /// Descriptors discarded as outliers.
    pub discarded: usize,
    /// Number of chunks.
    pub n_chunks: usize,
    /// Mean descriptors per chunk.
    pub mean_chunk_size: f64,
    /// The 30 largest chunk sizes, descending (Fig. 1).
    pub largest_sizes: Vec<usize>,
    /// Formation cost in distance-op equivalents.
    pub distance_ops: u64,
    /// Formation passes / rounds.
    pub rounds: u64,
    /// Real wall-clock seconds spent forming chunks and writing files.
    pub build_wall_secs: f64,
}

impl IndexMeta {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::Str(self.label.clone())),
            ("strategy", Json::Str(self.strategy.clone())),
            ("total_input", Json::from_usize(self.total_input)),
            ("retained", Json::from_usize(self.retained)),
            ("discarded", Json::from_usize(self.discarded)),
            ("n_chunks", Json::from_usize(self.n_chunks)),
            ("mean_chunk_size", Json::num(self.mean_chunk_size)),
            (
                "largest_sizes",
                Json::Arr(
                    self.largest_sizes
                        .iter()
                        .map(|&s| Json::from_usize(s))
                        .collect(),
                ),
            ),
            ("distance_ops", Json::num(self.distance_ops as f64)),
            ("rounds", Json::num(self.rounds as f64)),
            ("build_wall_secs", Json::num(self.build_wall_secs)),
        ])
    }

    fn from_json(json: &Json) -> eff2_json::Result<IndexMeta> {
        Ok(IndexMeta {
            label: json.field("label")?.as_str()?.to_string(),
            strategy: json.field("strategy")?.as_str()?.to_string(),
            total_input: json.field("total_input")?.as_usize()?,
            retained: json.field("retained")?.as_usize()?,
            discarded: json.field("discarded")?.as_usize()?,
            n_chunks: json.field("n_chunks")?.as_usize()?,
            mean_chunk_size: json.field("mean_chunk_size")?.as_f64()?,
            largest_sizes: json.field("largest_sizes")?.to_usize_vec()?,
            distance_ops: json.field("distance_ops")?.as_u64()?,
            rounds: json.field("rounds")?.as_u64()?,
            build_wall_secs: json.field("build_wall_secs")?.as_f64()?,
        })
    }
}

/// A built index: its store plus metadata.
#[derive(Debug)]
pub struct IndexHandle {
    /// Metadata.
    pub meta: IndexMeta,
    /// The opened store.
    pub store: ChunkStore,
}

impl IndexHandle {
    /// Filesystem-safe name derived from the label.
    pub(crate) fn file_name(&self) -> String {
        file_name_of(&self.meta.label)
    }
}

fn file_name_of(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// The experiment context.
pub struct Lab {
    /// Scale parameters.
    pub scale: Scale,
    /// Root output directory.
    pub out_dir: PathBuf,
    /// Cache directory (scale-keyed).
    pub cache_dir: PathBuf,
    /// The synthetic collection.
    pub set: DescriptorSet,
    /// The cost model timings are reported under.
    pub model: DiskModel,
}

impl Lab {
    /// Prepares the lab: loads the cached collection for this scale or
    /// generates and persists it.
    pub fn prepare(scale: Scale, out_dir: &Path) -> EvalResult<Lab> {
        let cache_dir = out_dir.join(format!(
            "cache/v{}-n{}-seed{}",
            CACHE_VERSION, scale.n_descriptors, scale.seed
        ));
        std::fs::create_dir_all(&cache_dir)?;
        let coll_path = cache_dir.join("collection.eff2");
        let set = if coll_path.exists() {
            codec::load_collection(&coll_path)?
        } else {
            let c = SyntheticCollection::with_size(scale.n_descriptors, scale.seed);
            codec::save_collection(&c.set, &coll_path)?;
            c.set
        };
        Ok(Lab {
            scale,
            out_dir: out_dir.to_path_buf(),
            cache_dir,
            set,
            model: DiskModel::ata_2005(),
        })
    }

    fn index_paths(&self, label: &str) -> (PathBuf, PathBuf, PathBuf) {
        let base = file_name_of(label);
        (
            self.cache_dir.join(format!("{base}.chunks")),
            self.cache_dir.join(format!("{base}.index")),
            self.cache_dir.join(format!("{base}.meta.json")),
        )
    }

    fn try_open(&self, label: &str) -> Option<IndexHandle> {
        let (chunks, index, meta) = self.index_paths(label);
        if chunks.exists() && index.exists() && meta.exists() {
            let meta =
                IndexMeta::from_json(&Json::parse(&std::fs::read_to_string(meta).ok()?).ok()?)
                    .ok()?;
            let store = ChunkStore::open(&chunks, &index).ok()?;
            Some(IndexHandle { meta, store })
        } else {
            None
        }
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one cached index: its label, description, inputs and build measurements"
    )]
    fn persist(
        &self,
        label: &str,
        strategy: &str,
        set: &DescriptorSet,
        chunks: &[ChunkDef],
        outliers: usize,
        distance_ops: u64,
        rounds: u64,
        build_wall_secs: f64,
        quant: Option<&Codec>,
    ) -> EvalResult<IndexHandle> {
        let store = ChunkStore::build_checked(
            &self.cache_dir,
            &file_name_of(label),
            set,
            chunks,
            PAGE_SIZE,
            quant,
        )?;
        let retained = chunks.iter().map(|c| c.positions.len()).sum::<usize>();
        let mut sizes: Vec<usize> = chunks.iter().map(|c| c.positions.len()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes.truncate(30);
        let meta = IndexMeta {
            label: label.to_string(),
            strategy: strategy.to_string(),
            total_input: retained + outliers,
            retained,
            discarded: outliers,
            n_chunks: chunks.len(),
            mean_chunk_size: if chunks.is_empty() {
                0.0
            } else {
                retained as f64 / chunks.len() as f64
            },
            largest_sizes: sizes,
            distance_ops,
            rounds,
            build_wall_secs,
        };
        let (_, _, meta_path) = self.index_paths(label);
        std::fs::write(&meta_path, meta.to_json().to_string())?;
        Ok(IndexHandle { meta, store })
    }

    /// Builds (or opens from cache) the paper's six chunk indexes:
    /// BAG SMALL/MEDIUM/LARGE from one clustering run with checkpoints, and
    /// SR SMALL/MEDIUM/LARGE over each BAG index's retained descriptors
    /// with leaf size equal to that BAG index's mean chunk size — exactly
    /// the Table 1 construction.
    pub fn six_indexes(&self) -> EvalResult<Vec<IndexHandle>> {
        let labels: Vec<String> = SIZE_CLASSES
            .iter()
            .flat_map(|c| [format!("BAG / {c}"), format!("SR / {c}")])
            .collect();
        if let Some(handles) = labels
            .iter()
            .map(|l| self.try_open(l))
            .collect::<Option<Vec<_>>>()
        {
            return Ok(handles);
        }

        // One BAG run, checkpointed at the three targets (descending:
        // SMALL has the most clusters).
        let targets = self.scale.bag_targets();
        // A deliberately small MPI (an eighth of the median NN distance):
        // dense regions coalesce over many passes before sparse ones, which
        // is what gives BAG its giant head clusters at every checkpoint and
        // leaves the sparse tail as outliers — at the price of formation
        // time, exactly the paper's trade-off.
        let mpi = BagConfig::estimate_mpi(&self.set, 2_000, self.scale.seed) * 0.25;
        let cfg = BagConfig {
            mpi,
            max_passes: 500,
            ..BagConfig::default()
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "measures real formation cost, reported as wall seconds next to the virtual figures"
        )]
        let wall = std::time::Instant::now();
        let mut bag = Bag::new(&self.set, cfg);
        let snaps = bag.run_with_checkpoints(&[targets[0], targets[1], targets[2]]);
        let bag_wall = wall.elapsed().as_secs_f64();

        let mut handles = Vec::with_capacity(6);
        for (class, snap) in SIZE_CLASSES.iter().zip(snaps.iter()) {
            handles.push(self.build_bag_index(class, snap, bag_wall / 3.0)?);
            handles.push(self.build_sr_index(class, snap)?);
        }
        // Order: BAG/S, SR/S, BAG/M, SR/M, BAG/L, SR/L — matches `labels`.
        Ok(handles)
    }

    fn build_bag_index(
        &self,
        class: &str,
        snap: &BagSnapshot,
        wall: f64,
    ) -> EvalResult<IndexHandle> {
        let label = format!("BAG / {class}");
        let chunks: Vec<ChunkDef> = snap
            .clusters
            .iter()
            .map(|c| ChunkDef {
                positions: c.members.clone(),
                centroid: c.centroid,
                radius: c.tight_radius,
            })
            .collect();
        self.persist(
            &label,
            "BAG clustering",
            &self.set,
            &chunks,
            snap.outliers.len(),
            snap.exhaustive_equivalent_tests,
            snap.passes as u64,
            wall,
            None,
        )
    }

    /// Opens the SR-tree index cached as `label`, or builds it: `leaf`-sized
    /// leaves over `set`, timed, and persisted — with `codec`-compressed
    /// codes next to the raw descriptors when a codec (`sq8` or `pq`,
    /// trained on `set`) is named.
    fn sr_index(
        &self,
        label: &str,
        set: &DescriptorSet,
        leaf: usize,
        outliers: usize,
        codec: Option<&str>,
    ) -> EvalResult<IndexHandle> {
        if let Some(h) = self.try_open(label) {
            return Ok(h);
        }
        let codes = codec.map_or(String::new(), |name| format!(" + {name} codes"));
        let codec = match codec {
            None => None,
            Some("sq8") => Some(Codec::Sq8(Sq8Codec::from_set(set))),
            Some("pq") => Some(Codec::Pq(PqCodec::from_set(set))),
            Some(other) => return Err(format!("unknown codec {other:?} (want sq8 or pq)").into()),
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "measures real formation cost, reported as wall seconds next to the virtual figures"
        )]
        let wall = std::time::Instant::now();
        let formation = SrTreeChunker { leaf_size: leaf }.form(set);
        self.persist(
            label,
            &format!("SR-tree static build (leaf = {leaf}){codes}"),
            set,
            &formation.chunks,
            outliers,
            formation.cost.distance_ops,
            formation.cost.rounds,
            wall.elapsed().as_secs_f64(),
            codec.as_ref(),
        )
    }

    fn build_sr_index(&self, class: &str, snap: &BagSnapshot) -> EvalResult<IndexHandle> {
        // The paper builds the SR-tree over the outlier-free collection of
        // the matching BAG index, with leaves sized to BAG's average.
        let members = snap.clusters.iter().flat_map(|c| c.members.iter());
        let mut retained: Vec<usize> = members.map(|&p| p as usize).collect();
        retained.sort_unstable();
        let subset = self.set.subset(&retained);
        let leaf = snap.mean_cluster_size().round().max(2.0) as usize;
        // The same outliers were removed up front.
        self.sr_index(
            &format!("SR / {class}"),
            &subset,
            leaf,
            snap.outliers.len(),
            None,
        )
    }

    /// Builds (or opens) the SR-tree index of the Figure 6/7 sweep with the
    /// given leaf size, over the SMALL-class outlier-free collection.
    pub fn sweep_index(&self, subset: &DescriptorSet, leaf_size: usize) -> EvalResult<IndexHandle> {
        self.sr_index(&format!("SWEEP / {leaf_size}"), subset, leaf_size, 0, None)
    }

    /// Builds (or opens) the serving-experiment index: an SR-tree over the
    /// full collection with the MEDIUM-class leaf size. Experiment 4 runs
    /// on this rather than the Table 1 indexes so the serving sweep does
    /// not pay for (or depend on the degeneracies of) a BAG clustering
    /// run.
    pub(crate) fn serving_index(&self) -> EvalResult<IndexHandle> {
        let leaf = self.scale.chunk_sizes()[1];
        self.sr_index(&format!("SERVE / {leaf}"), &self.set, leaf, 0, None)
    }

    /// Builds (or opens) the quantized twin of the serving index: the same
    /// SR-tree formation (MEDIUM-class leaves over the full collection),
    /// persisted as a chunk file carrying `codec_name`-compressed
    /// codes next to the raw descriptors. Experiment 6 runs ADC scans over
    /// these and compares against the uncompressed
    /// [`serving_index`](Self::serving_index).
    pub(crate) fn quantized_index(&self, codec_name: &str) -> EvalResult<IndexHandle> {
        let leaf = self.scale.chunk_sizes()[1];
        let label = format!("QUANT {} / {leaf}", codec_name.to_ascii_uppercase());
        self.sr_index(&label, &self.set, leaf, 0, Some(codec_name))
    }

    /// Builds (or opens) the second chaos-experiment index: an SR-tree
    /// over the full collection with the SMALL-class leaf size, so
    /// experiment 5 sweeps fault rates over two chunk granularities
    /// (losing one small chunk costs fewer descriptors than losing one
    /// medium chunk — the loss curve depends on the chunker).
    pub(crate) fn chaos_index(&self) -> EvalResult<IndexHandle> {
        let leaf = self.scale.chunk_sizes()[0];
        self.sr_index(&format!("CHAOS / {leaf}"), &self.set, leaf, 0, None)
    }

    /// The outlier-free collection of the SMALL class (what the paper's
    /// Experiment 2 sweeps over: "the collection of 4,471,532
    /// descriptors").
    pub fn small_retained_subset(&self, six: &[IndexHandle]) -> EvalResult<DescriptorSet> {
        // Recover the retained set from the BAG/SMALL store (ids are dense
        // positions in the synthetic collection).
        let bag_small = six
            .iter()
            .find(|h| h.meta.label == "BAG / SMALL")
            .ok_or("BAG / SMALL index missing")?;
        let mut reader = bag_small.store.reader()?;
        let mut payload = eff2_storage::chunkfile::ChunkPayload::default();
        let mut positions = Vec::with_capacity(bag_small.meta.retained);
        for i in 0..bag_small.store.n_chunks() {
            reader.read_chunk(i, &mut payload)?;
            positions.extend(payload.ids.iter().map(|&id| id as usize));
        }
        positions.sort_unstable();
        Ok(self.set.subset(&positions))
    }

    /// The workload cached as `name`, or the one `make` draws for the
    /// scale's query count, saved.
    fn workload(&self, name: &str, make: impl FnOnce(usize) -> Workload) -> EvalResult<Workload> {
        let n = self.scale.n_queries;
        let path = self.cache_dir.join(format!("{name}-{n}.json"));
        if path.exists() {
            return Ok(Workload::load(&path)?);
        }
        let w = make(n);
        w.save(&path)?;
        Ok(w)
    }

    /// The DQ workload (cached).
    pub fn dq(&self) -> EvalResult<Workload> {
        self.workload("dq", |n| dq_workload(&self.set, n, self.scale.seed ^ 0xD0))
    }

    /// The SQ workload (cached).
    pub(crate) fn sq(&self) -> EvalResult<Workload> {
        self.workload("sq", |n| {
            sq_workload(&self.set, n, 0.05, self.scale.seed ^ 0x50)
        })
    }

    /// Ground truth of `workload` against `handle` (cached).
    pub fn truth(&self, handle: &IndexHandle, workload: &Workload) -> EvalResult<GroundTruth> {
        let path = self.cache_dir.join(format!(
            "truth-{}-{}-k{}-q{}.json",
            handle.file_name(),
            workload.name.to_lowercase(),
            self.scale.k,
            workload.len()
        ));
        if path.exists() {
            return Ok(GroundTruth::load(&path)?);
        }
        let t = GroundTruth::compute(&handle.store, workload, self.scale.k)?;
        t.save(&path)?;
        Ok(t)
    }

    /// The quality-vs-time curve of `workload` against `handle` (cached).
    pub fn curve(&self, handle: &IndexHandle, workload: &Workload) -> EvalResult<QualityCurve> {
        let path = self.cache_dir.join(format!(
            "curve-{}-{}-k{}-q{}.json",
            handle.file_name(),
            workload.name.to_lowercase(),
            self.scale.k,
            workload.len()
        ));
        if path.exists() {
            let json = Json::parse(&std::fs::read_to_string(&path)?)?;
            return Ok(QualityCurve::from_json(&json)?);
        }
        let truth = self.truth(handle, workload)?;
        let curve = quality_curve(
            &handle.store,
            &self.model,
            workload,
            &truth,
            self.scale.k,
            &handle.meta.label,
        )?;
        std::fs::write(&path, curve.to_json().to_string())?;
        Ok(curve)
    }

    /// Directory where experiment outputs (tables, CSVs) are written.
    pub(crate) fn results_dir(&self) -> EvalResult<PathBuf> {
        let dir = self.out_dir.join(format!(
            "n{}-seed{}",
            self.scale.n_descriptors, self.scale.seed
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_lab(tag: &str) -> Lab {
        let mut scale = Scale::new(3_000);
        scale.n_queries = 8;
        scale.k = 5;
        let dir = std::env::temp_dir().join(format!("eff2_lab_{tag}"));
        Lab::prepare(scale, &dir).expect("prepare")
    }

    #[test]
    fn collection_is_cached() {
        let lab = tiny_lab("cache");
        let n1 = lab.set.len();
        let lab2 = Lab::prepare(lab.scale, &lab.out_dir).expect("prepare again");
        assert_eq!(lab2.set.len(), n1);
        assert_eq!(lab2.set.get(0), lab.set.get(0));
    }

    #[test]
    fn workloads_are_cached_and_sized() {
        let lab = tiny_lab("wl");
        let dq = lab.dq().expect("dq");
        assert_eq!(dq.len(), 8);
        let dq2 = lab.dq().expect("dq cached");
        assert_eq!(dq, dq2);
        let sq = lab.sq().expect("sq");
        assert_eq!(sq.len(), 8);
        assert_eq!(sq.name, "SQ");
    }

    #[test]
    fn six_indexes_build_and_reopen() {
        let lab = tiny_lab("six");
        let six = lab.six_indexes().expect("build");
        assert_eq!(six.len(), 6);
        let labels: Vec<&str> = six.iter().map(|h| h.meta.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "BAG / SMALL",
                "SR / SMALL",
                "BAG / MEDIUM",
                "SR / MEDIUM",
                "BAG / LARGE",
                "SR / LARGE"
            ]
        );
        // Paired BAG/SR indexes hold the same retained descriptors.
        for pair in six.chunks(2) {
            assert_eq!(pair[0].meta.retained, pair[1].meta.retained);
            assert_eq!(pair[0].meta.discarded, pair[1].meta.discarded);
        }
        // Second call must come from cache (fast) and agree.
        let again = lab.six_indexes().expect("reopen");
        for (a, b) in six.iter().zip(again.iter()) {
            assert_eq!(a.meta.label, b.meta.label);
            assert_eq!(a.meta.n_chunks, b.meta.n_chunks);
            assert_eq!(a.store.total_descriptors(), b.store.total_descriptors());
        }
    }

    #[test]
    fn quantized_index_builds_and_reopens() {
        let lab = tiny_lab("quant");
        let h = lab.quantized_index("sq8").expect("build");
        assert!(h.meta.label.starts_with("QUANT SQ8"));
        let q = h.store.quantized_view().expect("quantized store");
        assert!(q.codec().is_some());
        let again = lab.quantized_index("sq8").expect("reopen");
        assert_eq!(again.meta.n_chunks, h.meta.n_chunks);
        assert!(again.store.quantized_view().is_ok());
        assert!(lab.quantized_index("nope").is_err());
    }

    #[test]
    fn truth_and_curves_are_cached() {
        let lab = tiny_lab("curves");
        let six = lab.six_indexes().expect("build");
        let dq = lab.dq().expect("dq");
        let sr_small = &six[1];
        let t1 = lab.truth(sr_small, &dq).expect("truth");
        let t2 = lab.truth(sr_small, &dq).expect("truth cached");
        assert_eq!(t1, t2);
        let c1 = lab.curve(sr_small, &dq).expect("curve");
        assert_eq!(c1.n_queries, 8);
        let c2 = lab.curve(sr_small, &dq).expect("curve cached");
        assert_eq!(c1.avg_completion_secs, c2.avg_completion_secs);
    }
}
