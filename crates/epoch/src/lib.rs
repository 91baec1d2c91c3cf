// lint:allow-file(panic.index): compaction bookkeeping (groups, centroids, starvation flags) is sized one-entry-per-base-chunk at fold time and indexed by destinations computed over those same tables
#![warn(missing_docs)]

//! # eff2-epoch
//!
//! Live mutability over the write-once chunk-index files: a
//! [`MutableIndex`] accepts inserts and deletes while searches keep
//! running, by layering an append-only delta op log (persisted in the
//! epoch manifest, see [`eff2_storage::epoch`]) over an immutable base
//! generation of chunk/index files.
//!
//! The MVCC contract:
//!
//! * **Writers never block readers.** Mutations append to the manifest's
//!   op log and persist it; the base files are never touched.
//! * **Readers pin epochs.** [`MutableIndex::pin`] folds the pending ops
//!   into a [`Snapshot`] — an `Arc`-backed view that
//!   stays bit-for-bit stable no matter what writers append or the
//!   compactor folds afterwards. Every in-flight search sees exactly one
//!   epoch.
//! * **Compaction is a new generation, not an overwrite.** The
//!   [compactor](MutableIndex::begin_compaction) folds the pinned delta
//!   into the base rows, rebalances (splits chunks over 2× the target,
//!   merges starved ones) and writes a *fresh* `name.g<N>` file pair via
//!   the same checked builder as every other writer. Old generation files
//!   are retained, so pins taken before the swap keep reading them.
//!
//! All tie-breaks in the compactor (nearest-centroid assignment, merge
//! destinations, split dimension and row order) are total orders over
//! `(value, id)` — two compactions of the same logical state produce
//! byte-identical files.

use eff2_core::Snapshot;
use eff2_descriptor::quant::Codec;
use eff2_descriptor::{Descriptor, DescriptorSet, Vector, DIM};
use eff2_storage::chunkfile::ChunkPayload;
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::epoch::{epoch_path, DeltaOp, EpochManifest, FoldedDelta};
use eff2_storage::{ChunkDef, ChunkStore, Error, Result};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Base file name of compaction generation `g`: generation zero keeps the
/// plain index name (read-compat with stores created before the epoch
/// layer), later generations append `.g<N>`.
pub(crate) fn generation_name(name: &str, generation: u64) -> String {
    if generation == 0 {
        name.to_string()
    } else {
        format!("{name}.g{generation}")
    }
}

/// What one compaction did, plus the modelled cost of doing it — the
/// serving layer charges these on the fleet's pipeline clock while the
/// scheduler keeps feeding sessions.
#[derive(Clone, Debug)]
pub struct CompactionStats {
    /// Chunks in the generation that was folded.
    pub chunks_before: usize,
    /// Chunks in the freshly written generation.
    pub chunks_after: usize,
    /// Largest chunk (descriptors) before folding.
    pub max_chunk_before: usize,
    /// Largest chunk (descriptors) after rebalancing.
    pub max_chunk_after: usize,
    /// Oversized chunks that were split.
    pub splits: usize,
    /// Starved chunks that were merged away.
    pub merges: usize,
    /// Delta ops folded into the new generation.
    pub ops_folded: usize,
    /// Bytes read from the old generation.
    pub bytes_read: u64,
    /// Bytes written for the new generation (chunk + index file).
    pub bytes_written: u64,
    /// Descriptors carried through the fold.
    pub descriptors: u64,
}

impl CompactionStats {
    /// Modelled I/O time of the fold: the old generation streamed in plus
    /// the new one streamed out.
    pub fn io_cost(&self, model: &DiskModel) -> VirtualDuration {
        model.io_time(self.bytes_read + self.bytes_written)
    }

    /// Modelled CPU time of the fold: every carried descriptor touched
    /// once.
    pub fn cpu_cost(&self, model: &DiskModel) -> VirtualDuration {
        model.scan_time(self.descriptors as usize)
    }
}

/// A fully written but not yet installed compaction: the next
/// generation's files are on disk and opened, the delta prefix they fold
/// is recorded. [`MutableIndex::install_compaction`] swaps it in;
/// mutations appended in between survive as the delta tail.
#[derive(Debug)]
pub struct CompactionPlan {
    generation: u64,
    ops_folded: usize,
    store: ChunkStore,
    stats: CompactionStats,
}

impl CompactionPlan {
    /// The generation this plan will install.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// What the fold did and what it cost.
    pub fn stats(&self) -> &CompactionStats {
        &self.stats
    }
}

/// A chunk index that accepts inserts and deletes while serving
/// epoch-pinned searches. See the [module docs](self) for the contract.
#[derive(Debug)]
pub struct MutableIndex {
    dir: PathBuf,
    name: String,
    model: DiskModel,
    page_size: u32,
    /// Rebalancing target (descriptors per chunk): the compactor splits
    /// chunks over `2 * target` and merges chunks under `target / 4`.
    target_chunk_size: usize,
    base: ChunkStore,
    /// The mutation state, held once and saved as is: the base
    /// generation, the ops past compactions folded, and the pending log.
    manifest: EpochManifest,
}

impl MutableIndex {
    /// Creates generation zero from `set`/`chunks` (the same inputs as
    /// [`ChunkStore::build_checked`]) and an empty manifest.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        dir: &Path,
        name: &str,
        set: &DescriptorSet,
        chunks: &[ChunkDef],
        page_size: u32,
        codec: Option<&Codec>,
        model: DiskModel,
        target_chunk_size: usize,
    ) -> Result<MutableIndex> {
        let base = ChunkStore::build_checked(dir, name, set, chunks, page_size, codec)?;
        let index = MutableIndex {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            model,
            page_size,
            target_chunk_size: target_chunk_size.max(1),
            base,
            manifest: EpochManifest::empty(),
        };
        index.save_manifest()?;
        Ok(index)
    }

    /// Opens an existing index under `dir/name`, epoch-capable. A store
    /// written before the epoch layer existed (no manifest file) opens at
    /// generation zero with an empty delta and serves bit-identically to
    /// the plain reader — the read-compat contract.
    pub fn open(
        dir: &Path,
        name: &str,
        model: DiskModel,
        target_chunk_size: usize,
    ) -> Result<MutableIndex> {
        let manifest = EpochManifest::load_or_empty(dir, name)?;
        let base_name = generation_name(name, manifest.generation);
        let base = ChunkStore::open(
            &dir.join(format!("{base_name}.chunks")),
            &dir.join(format!("{base_name}.index")),
        )?;
        Ok(MutableIndex {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            model,
            page_size: base.page_size(),
            target_chunk_size: target_chunk_size.max(1),
            base,
            manifest,
        })
    }

    /// The current base generation's store.
    pub fn base(&self) -> &ChunkStore {
        &self.base
    }

    /// The cost model searches and compactions are charged under.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Current compaction generation.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// The epoch counter: total mutations ever applied (folded into past
    /// generations plus still pending in the delta). Monotone across
    /// mutations and invariant under compaction.
    pub fn epoch(&self) -> u64 {
        self.manifest.folded_ops + self.manifest.ops.len() as u64
    }

    /// Ops pending in the delta (not yet folded).
    pub fn delta_len(&self) -> usize {
        self.manifest.ops.len()
    }

    /// The rebalancing target (descriptors per chunk).
    pub fn target_chunk_size(&self) -> usize {
        self.target_chunk_size
    }

    /// Appends an insert (or, for an id already in the base, an update —
    /// the delta row supersedes the base copy) and persists the manifest.
    pub fn insert(&mut self, id: u32, vector: Vector) -> Result<()> {
        self.manifest.ops.push(DeltaOp::Insert { id, vector });
        self.save_manifest()
    }

    /// Appends a delete and persists the manifest. Deleting an id that
    /// was never inserted is a no-op at read time (the tombstone matches
    /// nothing).
    pub fn delete(&mut self, id: u32) -> Result<()> {
        self.manifest.ops.push(DeltaOp::Delete { id });
        self.save_manifest()
    }

    /// Pins the current epoch: folds the pending ops as of now into an
    /// immutable [`Snapshot`]. The fold is a value of its own, so later
    /// mutations, compactions and generation swaps never change what this
    /// snapshot serves.
    pub fn pin(&self) -> Snapshot {
        Snapshot::new(self.base.clone(), self.model).at_epoch(
            self.manifest.generation,
            self.epoch(),
            Arc::new(FoldedDelta::from_ops(&self.manifest.ops)),
        )
    }

    /// Folds the pending ops and the base generation into a freshly
    /// written, rebalanced next generation — without installing it. The
    /// returned plan is installed with
    /// [`install_compaction`](Self::install_compaction); mutations
    /// appended in between survive as the delta tail. Old generation
    /// files are left on disk so outstanding pins stay valid.
    ///
    /// Rebalancing, in order, all tie-breaks total:
    ///
    /// 1. tombstoned base rows are dropped; delta inserts join the chunk
    ///    with the nearest centroid (ties to the lower chunk id);
    /// 2. starved chunks (fewer than `target / 4` rows) merge into the
    ///    nearest non-starved chunk;
    /// 3. chunks over `2 * target` rows are split along their
    ///    widest-spread dimension into runs of at most `target`.
    pub fn begin_compaction(&self) -> Result<CompactionPlan> {
        let ops_folded = self.manifest.ops.len();
        let folded = FoldedDelta::from_ops(&self.manifest.ops);
        let target = self.target_chunk_size;

        // Stream the old generation through the raw reader, dropping
        // tombstoned rows.
        let raw = self.base.raw_view();
        let mut reader = raw.reader()?;
        let mut payload = ChunkPayload::default();
        let mut bytes_read = 0u64;
        let metas = self.base.metas();
        let mut groups: Vec<Vec<(u32, Vector)>> = Vec::with_capacity(metas.len());
        let mut max_before = 0usize;
        for chunk_id in 0..self.base.n_chunks() {
            bytes_read += reader.read_chunk(chunk_id, &mut payload)?;
            max_before = max_before.max(payload.len());
            let rows = eff2_descriptor::as_rows(&payload.packed);
            let mut members = Vec::with_capacity(payload.len());
            for (&id, row) in payload.ids.iter().zip(rows.iter()) {
                if !folded.tombstones.contains(&id) {
                    members.push((id, Vector::from(*row)));
                }
            }
            groups.push(members);
        }

        // Delta inserts join the nearest original centroid.
        if groups.is_empty() && !folded.inserts.is_empty() {
            groups.push(Vec::new());
        }
        for (id, vector) in &folded.inserts {
            let dest = nearest_centroid(vector, metas.iter().map(|m| &m.centroid)).unwrap_or(0);
            groups[dest].push((*id, *vector));
        }
        max_before = max_before.max(groups.iter().map(Vec::len).max().unwrap_or(0));

        let merges = merge_starved(
            &mut groups,
            metas.iter().map(|m| m.centroid).collect(),
            target,
        );
        let splits = split_oversized(&mut groups, target);
        groups.retain(|g| !g.is_empty());

        // Write the next generation through the one checked builder, with
        // the base generation's codec so a quantized store stays quantized.
        let mut set = DescriptorSet::with_capacity(groups.iter().map(Vec::len).sum::<usize>());
        let mut defs = Vec::with_capacity(groups.len());
        let mut next = 0u32;
        for members in &groups {
            let positions: Vec<u32> = (next..next + members.len() as u32).collect();
            next += members.len() as u32;
            let centroid = Vector::mean(members.iter().map(|(_, v)| v));
            let radius = members
                .iter()
                .map(|(_, v)| centroid.dist(v))
                .fold(0.0f32, f32::max);
            for (id, vector) in members {
                set.push(Descriptor::new(*id, *vector));
            }
            defs.push(ChunkDef {
                positions,
                centroid,
                radius,
            });
        }
        if defs.is_empty() {
            // A generation must stay openable even if every row died.
            defs.push(ChunkDef {
                positions: Vec::new(),
                centroid: Vector::ZERO,
                radius: 0.0,
            });
        }

        let generation = self.manifest.generation + 1;
        let gen_name = generation_name(&self.name, generation);
        let store = ChunkStore::build_checked(
            &self.dir,
            &gen_name,
            &set,
            &defs,
            self.page_size,
            self.base.codec(),
        )?;
        let bytes_written = std::fs::metadata(store.chunk_path())?.len() + store.index_bytes();
        let max_after = store
            .metas()
            .iter()
            .map(|m| m.count as usize)
            .max()
            .unwrap_or(0);
        let stats = CompactionStats {
            chunks_before: self.base.n_chunks(),
            chunks_after: store.n_chunks(),
            max_chunk_before: max_before,
            max_chunk_after: max_after,
            splits,
            merges,
            ops_folded,
            bytes_read,
            bytes_written,
            descriptors: set.len() as u64,
        };
        Ok(CompactionPlan {
            generation,
            ops_folded,
            store,
            stats,
        })
    }

    /// Swaps a finished plan in: the plan's generation becomes the base,
    /// the folded prefix of the op log is dropped (ops appended since
    /// [`begin_compaction`](Self::begin_compaction) remain pending) and
    /// the manifest is persisted. Pins taken against the old generation
    /// keep serving it — its files are not deleted.
    ///
    /// A plan for another generation, or one folding more ops than are
    /// pending (planned through another handle on the same files, say), is
    /// refused with [`Error::Inconsistent`] and changes nothing.
    pub fn install_compaction(&mut self, plan: CompactionPlan) -> Result<CompactionStats> {
        if plan.generation != self.manifest.generation + 1 {
            return Err(Error::Inconsistent(format!(
                "compaction plan targets generation {} but the index is at {}",
                plan.generation, self.manifest.generation
            )));
        }
        if plan.ops_folded > self.manifest.ops.len() {
            return Err(Error::Inconsistent(format!(
                "compaction plan folds {} ops but the index has {} pending",
                plan.ops_folded,
                self.manifest.ops.len()
            )));
        }
        self.manifest.ops.drain(..plan.ops_folded);
        self.manifest.generation = plan.generation;
        self.manifest.folded_ops += plan.ops_folded as u64;
        self.base = plan.store;
        self.save_manifest()?;
        Ok(plan.stats)
    }

    /// [`begin_compaction`](Self::begin_compaction) +
    /// [`install_compaction`](Self::install_compaction) in one step — the
    /// synchronous form used outside a serving loop.
    pub fn compact(&mut self) -> Result<CompactionStats> {
        let plan = self.begin_compaction()?;
        self.install_compaction(plan)
    }

    fn save_manifest(&self) -> Result<()> {
        self.manifest.save(&epoch_path(&self.dir, &self.name))
    }
}

/// Index of the nearest centroid (ties to the lower index); `None` when
/// there are no centroids.
fn nearest_centroid<'a, I>(v: &Vector, centroids: I) -> Option<usize>
where
    I: Iterator<Item = &'a Vector>,
{
    centroids
        .enumerate()
        .map(|(i, c)| (i, c.dist(v)))
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|(i, _)| i)
}

/// Merges every starved group (fewer than `target / 4` members) into the
/// nearest non-starved group, measured between the groups' *original*
/// centroids so destinations don't depend on processing order. When every
/// group is starved they all collapse into the lowest-indexed one.
/// Returns the number of groups merged away.
fn merge_starved(
    groups: &mut [Vec<(u32, Vector)>],
    centroids: Vec<Vector>,
    target: usize,
) -> usize {
    let threshold = (target / 4).max(1);
    let starved: Vec<bool> = groups
        .iter()
        .map(|g| !g.is_empty() && g.len() < threshold)
        .collect();
    let mut moves: Vec<(usize, usize)> = Vec::new();
    for (i, is_starved) in starved.iter().enumerate() {
        if !is_starved {
            continue;
        }
        let dest = centroids
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i && !starved[j] && !groups[j].is_empty())
            .map(|(j, c)| (j, c.dist(&centroids[i])))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(j, _)| j)
            .or_else(|| starved.iter().position(|&s| s).filter(|&first| first != i));
        if let Some(dest) = dest {
            moves.push((i, dest));
        }
    }
    let merges = moves.len();
    for (from, to) in moves {
        let members = std::mem::take(&mut groups[from]);
        groups[to].extend(members);
    }
    merges
}

/// Splits every group over `2 * target` members along its widest-spread
/// dimension (ties to the lower dimension) into runs of at most `target`,
/// rows ordered by `(component, id)`. Returns the number of groups split.
fn split_oversized(groups: &mut Vec<Vec<(u32, Vector)>>, target: usize) -> usize {
    let mut out: Vec<Vec<(u32, Vector)>> = Vec::with_capacity(groups.len());
    let mut splits = 0usize;
    for mut members in groups.drain(..) {
        if members.len() <= 2 * target {
            out.push(members);
            continue;
        }
        splits += 1;
        let mut spread_dim = 0usize;
        let mut best_spread = f32::NEG_INFINITY;
        for dim in 0..DIM {
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for (_, v) in &members {
                lo = lo.min(v[dim]);
                hi = hi.max(v[dim]);
            }
            if hi - lo > best_spread {
                best_spread = hi - lo;
                spread_dim = dim;
            }
        }
        members.sort_by(|a, b| {
            a.1[spread_dim]
                .total_cmp(&b.1[spread_dim])
                .then(a.0.cmp(&b.0))
        });
        for run in members.chunks(target) {
            out.push(run.to_vec());
        }
    }
    *groups = out;
    splits
}
