//! An immutable, cheaply shareable view of one epoch of a chunk index.
//!
//! A [`Snapshot`] is what a *serving* layer holds: a [`ChunkStore`] (itself
//! an `Arc`-backed handle over one compaction generation's write-once
//! files), the [`DiskModel`] its timings are reported under, and the
//! folded prefix of the delta op log that was pinned when the epoch was
//! taken. It is `Clone` in O(1) and safe to hand to any number of
//! concurrent schedulers, workers or sessions. Nothing behind a snapshot
//! ever mutates — the chunk-index files are write-once, the delta is
//! folded — so two clones always rank, bound and search bit-identically,
//! no matter what writers append or the compactor folds afterwards.
//!
//! Every session opened through a snapshot sees exactly its epoch: inserts
//! folded into the delta are offered up front, base rows the delta
//! tombstones are filtered from every scan. A never-mutated index is epoch
//! zero — generation 0, an empty delta — and an empty delta is a strict
//! no-op, so its sessions are bit-identical to ones that never heard of
//! epochs (the read-compat contract for v2/v3 stores).
//!
//! [`Snapshot::build`] and [`Snapshot::open`] (in [`crate::index`]) are the
//! entry points that create one from descriptors or from files on disk;
//! `eff2_epoch::MutableIndex::pin` is the one that pins a mutated epoch.

use crate::search::{SearchParams, SearchResult};
use crate::session::SearchSession;
use eff2_descriptor::Vector;
use eff2_storage::diskmodel::DiskModel;
use eff2_storage::epoch::FoldedDelta;
use eff2_storage::source::ResidentSource;
use eff2_storage::{ChunkStore, Result};
use std::sync::Arc;

/// An immutable view of one epoch of a chunk index plus its cost model.
///
/// See the [module docs](self) for the sharing contract.
#[derive(Clone, Debug)]
pub struct Snapshot {
    store: ChunkStore,
    model: DiskModel,
    generation: u64,
    epoch: u64,
    delta: Arc<FoldedDelta>,
}

impl Snapshot {
    /// Pairs an open store with a cost model, at epoch zero: generation 0,
    /// an empty delta.
    pub fn new(store: ChunkStore, model: DiskModel) -> Snapshot {
        Snapshot {
            store,
            model,
            generation: 0,
            epoch: 0,
            delta: Arc::default(),
        }
    }

    /// This store (compaction generation `generation`) pinned together
    /// with the folded delta prefix that defines epoch `epoch`.
    pub fn at_epoch(self, generation: u64, epoch: u64, delta: Arc<FoldedDelta>) -> Snapshot {
        Snapshot {
            generation,
            epoch,
            delta,
            ..self
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }

    /// The cost model.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// The compaction generation this epoch's chunk files belong to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The epoch counter: total delta ops (folded + pinned) applied to the
    /// index when this snapshot was taken.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The folded delta pinned by this epoch.
    pub fn delta(&self) -> &Arc<FoldedDelta> {
        &self.delta
    }

    /// Number of chunks in the index.
    pub fn n_chunks(&self) -> usize {
        self.store.n_chunks()
    }

    /// A detached session for `query`, ranked over this snapshot's store
    /// and pinned to this epoch: the delta is applied before the first
    /// step, so the caller only feeds base chunks through
    /// [`SearchSession::step_with`] — the scheduler's mode.
    pub fn session(&self, query: &Vector, params: &SearchParams) -> SearchSession {
        let mut session = SearchSession::detached(&self.store, &self.model, query, params);
        session.apply_delta(&self.delta);
        session
    }

    /// Executes one query serially over a private prefetching source — the
    /// solo reference run that interleaved schedules (under mutation or
    /// not) are bit-compared against.
    pub fn search(&self, query: &Vector, params: &SearchParams) -> Result<SearchResult> {
        let mut session = SearchSession::open(&self.store, &self.model, query, params);
        session.apply_delta(&self.delta);
        session.run()
    }

    /// A [`ResidentSource`] over this snapshot's store pinning at most
    /// `budget_bytes` of decoded chunks.
    pub fn resident_source(&self, budget_bytes: u64) -> ResidentSource {
        ResidentSource::new(&self.store, budget_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkers::{ChunkFormer, SrTreeChunker};
    use crate::search::search;
    use eff2_descriptor::{Descriptor, DescriptorSet};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "eff2_snapshot_{tag}_{}_{unique}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let mut v = Vector::splat((i % 7) as f32 * 4.0);
                v[2] += i as f32 * 0.05;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    fn build_index(tag: &str, n: usize) -> Snapshot {
        let set = sample_set(n);
        let formation = SrTreeChunker { leaf_size: 25 }.form(&set);
        let store =
            ChunkStore::create(&tmp_dir(tag), "s", &set, &formation.chunks, 512).expect("create");
        Snapshot::new(store, DiskModel::ata_2005())
    }

    #[test]
    fn clones_search_bit_identically() {
        let snap = build_index("clones", 400);
        let twin = snap.clone();
        let q = Vector::splat(9.0);
        let params = SearchParams::exact(6);
        let a = snap.search(&q, &params).expect("a");
        let b = twin.search(&q, &params).expect("b");
        let c = search(snap.store(), snap.model(), &q, &params).expect("c");
        for other in [&b, &c] {
            assert_eq!(a.neighbors.len(), other.neighbors.len());
            for (x, y) in a.neighbors.iter().zip(other.neighbors.iter()) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
            }
            assert_eq!(
                a.log.total_virtual.as_secs().to_bits(),
                other.log.total_virtual.as_secs().to_bits()
            );
        }
    }

    #[test]
    fn detached_session_from_snapshot_can_be_fed() {
        let snap = build_index("feed", 200);
        let q = Vector::splat(3.0);
        let params = SearchParams::exact(4);
        let mut session = snap.session(&q, &params);
        let mut reader = snap.store().reader().expect("reader");
        while let Some(id) = session.next_wanted() {
            if session.stop_satisfied() {
                break;
            }
            let mut payload = eff2_storage::chunkfile::ChunkPayload::default();
            let bytes_read = reader.read_chunk(id, &mut payload).expect("read");
            session
                .step_with(&eff2_storage::source::SourcedChunk {
                    id,
                    payload: Arc::new(payload),
                    bytes_read,
                    injected_delay: eff2_storage::VirtualDuration::ZERO,
                    from_disk: true,
                })
                .expect("step_with");
        }
        let fed = session.into_result();
        let want = snap.search(&q, &params).expect("reference");
        assert_eq!(
            fed.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            want.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        assert_eq!(
            fed.log.total_virtual.as_secs().to_bits(),
            want.log.total_virtual.as_secs().to_bits()
        );
    }

    /// Epoch zero carries an empty delta, and an empty delta is no delta
    /// at all: the snapshot's search equals the free `search`, which never
    /// hears of epochs.
    #[test]
    fn epoch_zero_is_bit_identical_to_base_snapshot() {
        let snap = build_index("epoch_zero", 300);
        assert_eq!((snap.generation(), snap.epoch()), (0, 0));
        assert!(snap.delta().is_empty());
        let q = Vector::splat(11.0);
        let params = SearchParams::exact(5);
        let base = search(snap.store(), snap.model(), &q, &params).expect("base");
        let pinned = snap.search(&q, &params).expect("pinned");
        assert_eq!(base.first_difference(&pinned), None);
        assert_eq!(
            base.log.bytes_read, pinned.log.bytes_read,
            "empty delta must not charge any extra I/O"
        );
    }

    #[test]
    fn epoch_snapshot_serves_inserts_and_hides_tombstones() {
        use eff2_storage::epoch::{DeltaOp, FoldedDelta};

        let snap = build_index("epoch_mut", 300);
        let q = Vector::splat(0.0);
        let params = SearchParams::exact(3);
        let base = snap.search(&q, &params).expect("base");
        let best = base.neighbors[0].id;

        // Delete the base winner and insert a new exact-match row.
        let delta = Arc::new(FoldedDelta::from_ops(&[
            DeltaOp::Delete { id: best },
            DeltaOp::Insert {
                id: 9_000,
                vector: q,
            },
        ]));
        let epoch = snap.clone().at_epoch(0, 2, Arc::clone(&delta));
        assert_eq!(epoch.epoch(), 2);
        assert_eq!(epoch.generation(), 0);
        let got = epoch.search(&q, &params).expect("pinned");
        let ids: Vec<u32> = got.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ids[0], 9_000, "delta insert at distance zero must win");
        assert!(
            !ids.contains(&best),
            "tombstoned base row {best} must never be served"
        );
        // Clones of the pinned epoch stay bit-identical.
        let twin = epoch.clone().search(&q, &params).expect("twin");
        for (x, y) in got.neighbors.iter().zip(twin.neighbors.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }
        assert_eq!(
            got.log.total_virtual.as_secs().to_bits(),
            twin.log.total_virtual.as_secs().to_bits()
        );
    }
}
