//! Read-compat regression suite: chunk files written by the *pre-epoch*
//! writer — raw format v2 and quantized format v3, checked in as bytes
//! under `crates/storage/tests/fixtures/` — must open through the
//! epoch-capable reader with no manifest on disk, search bit-for-bit
//! identically to the plain [`Snapshot`] path and to a format-v4 store
//! written from the same collection today, and stay byte-identical on
//! disk throughout. Mutations after adoption land in the manifest only:
//! the original generation-0 file pair never changes.

#![cfg(test)]

use eff2_core::chunkers::{ChunkFormer, SrTreeChunker};
use eff2_core::search::{SearchParams, SearchResult, StopRule};
use eff2_core::{search_quantized, Snapshot};
use eff2_descriptor::quant::{Codec, Sq8Codec};
use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
use eff2_epoch::MutableIndex;
use eff2_storage::epoch::epoch_path;
use eff2_storage::{ChunkStore, DiskModel};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let unique = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("eff2_compat_{tag}_{}_{unique}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn sample_set(n: usize) -> DescriptorSet {
    (0..n)
        .map(|i| {
            let blob = (i % 7) as f32 * 12.0;
            let mut v = Vector::splat(blob);
            v[0] += ((i * 13) % 29) as f32 * 0.4;
            v[5] -= ((i * 7) % 11) as f32 * 0.6;
            Descriptor::new(i as u32, v)
        })
        .collect()
}

/// Copies the checked-in format-`version` fixture pair into `dir` as
/// `legacy.*` and opens it. The fixtures were written from
/// [`sample_set`]`(300)` by [`write_current_store`]'s calls at the last
/// commit that wrote versions 2 and 3 (see the fixtures' README).
fn copy_pre_epoch_store(dir: &Path, version: u32) -> (DescriptorSet, ChunkStore) {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../storage/tests/fixtures");
    for ext in ["chunks", "index"] {
        std::fs::copy(
            fixtures.join(format!("v{version}.{ext}")),
            dir.join(format!("legacy.{ext}")),
        )
        .expect("copy fixture");
    }
    let store = ChunkStore::open(&dir.join("legacy.chunks"), &dir.join("legacy.index"))
        .expect("open fixture");
    (sample_set(300), store)
}

/// Writes the fixtures' collection and chunks with today's writer.
fn write_current_store(dir: &Path, codec: Option<&Codec>) -> ChunkStore {
    let set = sample_set(300);
    let formation = SrTreeChunker { leaf_size: 24 }.form(&set);
    ChunkStore::build_checked(dir, "current", &set, &formation.chunks, 512, codec).expect("build")
}

fn queries(set: &DescriptorSet) -> Vec<Vector> {
    (0..8)
        .map(|i| set.vector_owned(i * 37 % set.len()))
        .collect()
}

fn params(stop: StopRule) -> SearchParams {
    SearchParams {
        k: 5,
        stop,
        prefetch_depth: 2,
        log_snapshots: false,
    }
}

fn assert_bit_identical(want: &SearchResult, got: &SearchResult, tag: &str) {
    if let Some(diff) = want.first_difference(got) {
        panic!("{tag}: {diff}");
    }
}

fn file_bytes(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(dir.join("legacy.chunks")).expect("chunks"),
        std::fs::read(dir.join("legacy.index")).expect("index"),
    )
}

/// The compat property both formats must satisfy.
fn check_compat(tag: &str, version: u32, codec: Option<&Codec>) {
    let dir = tmp_dir(tag);
    let (set, store) = copy_pre_epoch_store(&dir, version);
    assert_eq!(store.codec(), codec, "{tag}: fixture codec");
    assert!(
        !epoch_path(&dir, "legacy").exists(),
        "a pre-epoch writer must not leave a manifest"
    );
    let before = file_bytes(&dir);
    let model = DiskModel::ata_2005();

    let current_store = write_current_store(&tmp_dir(tag), codec);
    let current = Snapshot::new(current_store.clone(), model);
    let plain = Snapshot::new(store.clone(), model);
    let index = MutableIndex::open(&dir, "legacy", model, 24).expect("epoch open");
    assert_eq!(index.generation(), 0, "{tag}: legacy store is generation 0");
    assert_eq!(index.epoch(), 0, "{tag}: no manifest means epoch 0");
    assert_eq!(index.delta_len(), 0, "{tag}: no manifest means empty delta");
    let pinned = index.pin();

    for stop in [
        StopRule::ToCompletion,
        StopRule::Chunks(3),
        StopRule::ToCompletionEps(0.5),
    ] {
        let p = params(stop);
        for (qi, q) in queries(&set).iter().enumerate() {
            let want = plain.search(q, &p).expect("plain search");
            let got = pinned.search(q, &p).expect("epoch search");
            assert_bit_identical(&want, &got, &format!("{tag} q{qi} {stop:?}"));
            let v4 = current.search(q, &p).expect("v4 search");
            assert_bit_identical(&want, &v4, &format!("{tag} v4 q{qi} {stop:?}"));
        }
    }

    // A quantized fixture also answers ADC searches (codes, then the raw
    // rerank tail) exactly as its v4 twin does.
    if codec.is_some() {
        let p = params(StopRule::Chunks(3));
        for (qi, q) in queries(&set).iter().enumerate() {
            let want = search_quantized(&current_store, &model, q, &p, 4).expect("v4 adc");
            let got = search_quantized(&store, &model, q, &p, 4).expect("fixture adc");
            assert_bit_identical(&want, &got, &format!("{tag} adc q{qi}"));
        }
    }

    let after = file_bytes(&dir);
    assert_eq!(before, after, "{tag}: opening/searching must not write");
}

#[test]
fn v2_raw_store_is_bit_identical_under_the_epoch_reader() {
    check_compat("v2", 2, None);
}

#[test]
fn v3_quantized_store_is_bit_identical_under_the_epoch_reader() {
    let codec = Codec::Sq8(Sq8Codec::from_set(&sample_set(300)));
    check_compat("v3", 3, Some(&codec));
}

#[test]
fn mutations_after_adoption_never_touch_the_legacy_files() {
    let dir = tmp_dir("adopt");
    let (set, _) = copy_pre_epoch_store(&dir, 2);
    let before = file_bytes(&dir);
    let model = DiskModel::ata_2005();

    let mut index = MutableIndex::open(&dir, "legacy", model, 24).expect("open");
    index.insert(9_000, Vector::splat(3.25)).expect("insert");
    index.delete(0).expect("delete");
    assert!(
        epoch_path(&dir, "legacy").exists(),
        "mutations must persist a manifest"
    );
    assert_eq!(
        before,
        file_bytes(&dir),
        "the generation-0 file pair is immutable"
    );

    // A pre-epoch reader that knows nothing of manifests still opens the
    // files and sees the original, unmutated index — bit for bit.
    let legacy = ChunkStore::open(&dir.join("legacy.chunks"), &dir.join("legacy.index"))
        .expect("legacy reopen");
    let plain = Snapshot::new(legacy, model);
    let p = params(StopRule::ToCompletion);
    let q = set.vector_owned(11);
    let reference = write_current_store(&tmp_dir("adopt-ref"), None);
    let want = Snapshot::new(reference, model).search(&q, &p).expect("ref");
    let got = plain.search(&q, &p).expect("legacy");
    assert_bit_identical(&want, &got, "legacy after adoption");
}
