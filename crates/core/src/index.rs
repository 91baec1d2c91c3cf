//! Building and opening chunk indexes — the top-level user API.

use crate::chunkers::{ChunkFormation, ChunkFormer};
use crate::snapshot::Snapshot;
use eff2_descriptor::DescriptorSet;
use eff2_storage::diskmodel::DiskModel;
use eff2_storage::{ChunkStore, Result};
use std::path::Path;

/// A freshly built index together with how its chunks were formed.
#[derive(Debug)]
pub struct BuiltIndex {
    /// The searchable index.
    pub index: Snapshot,
    /// Formation output (chunks summary, outliers, cost) — Table 1's raw
    /// material.
    pub formation: ChunkFormation,
}

impl Snapshot {
    /// Forms chunks over `set` with `former` and writes the chunk + index
    /// files under `dir/name.{chunks,index}`.
    ///
    /// Outliers identified by the former are excluded from the files, as in
    /// the paper ("outliers were then removed").
    pub fn build(
        dir: &Path,
        name: &str,
        set: &DescriptorSet,
        former: &dyn ChunkFormer,
        page_size: u32,
        model: DiskModel,
    ) -> Result<BuiltIndex> {
        let formation = former.form(set);
        let store = ChunkStore::create(dir, name, set, &formation.chunks, page_size)?;
        Ok(BuiltIndex {
            index: Snapshot::new(store, model),
            formation,
        })
    }

    /// Opens an existing index.
    pub fn open(chunk_path: &Path, index_path: &Path, model: DiskModel) -> Result<Snapshot> {
        Ok(Snapshot::new(
            ChunkStore::open(chunk_path, index_path)?,
            model,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkers::SrTreeChunker;
    use crate::scan::scan_knn;
    use crate::search::SearchParams;
    use eff2_descriptor::{Descriptor, Vector};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eff2_index_{tag}_{}_{unique}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let mut v = Vector::splat((i % 9) as f32 * 3.0);
                v[5] += i as f32 * 0.02;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    #[test]
    fn build_search_open_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let set = sample_set(300);
        let built = Snapshot::build(
            &dir,
            "t",
            &set,
            &SrTreeChunker { leaf_size: 32 },
            512,
            DiskModel::ata_2005(),
        )
        .expect("build");
        assert_eq!(built.formation.retained(), 300);
        assert_eq!(
            built.index.store().total_descriptors(),
            300,
            "no outliers for SR-tree"
        );

        let q = set.vector_owned(42);
        let got = built
            .index
            .search(&q, &SearchParams::exact(5))
            .expect("search");
        let want = scan_knn(&set, &q, 5);
        for (g, w) in got.neighbors.iter().zip(want.iter()) {
            assert_eq!(g.id, w.id);
        }

        // Reopen from disk and search again.
        let reopened = Snapshot::open(
            built.index.store().chunk_path(),
            built.index.store().index_path(),
            DiskModel::ata_2005(),
        )
        .expect("open");
        let again = reopened
            .search(&q, &SearchParams::exact(5))
            .expect("search");
        assert_eq!(
            again.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
            got.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn outliers_are_excluded_from_files() {
        // A former with a synthetic outlier: wrap SR-tree but drop the
        // first position.
        struct DropFirst;
        impl ChunkFormer for DropFirst {
            fn name(&self) -> String {
                "drop-first".into()
            }
            fn form(&self, set: &DescriptorSet) -> ChunkFormation {
                let mut f = SrTreeChunker { leaf_size: 10 }.form(set);
                for c in &mut f.chunks {
                    c.positions.retain(|&p| p != 0);
                }
                f.outliers.push(0);
                f
            }
        }
        let dir = tmp_dir("outliers");
        let set = sample_set(50);
        let built =
            Snapshot::build(&dir, "o", &set, &DropFirst, 256, DiskModel::instant()).expect("build");
        assert_eq!(built.index.store().total_descriptors(), 49);
        assert_eq!(built.formation.outliers, vec![0]);
    }
}
