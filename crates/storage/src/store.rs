//! Creating and opening chunk indexes (the chunk file + index file pair).

use crate::chunkfile::{self, BlockSum, ChunkPayload};
use crate::error::{Error, Result};
use crate::indexfile::{self, ChunkMeta};
use eff2_descriptor::quant::{Codec, DescriptorCodec};
use eff2_descriptor::{DescriptorSet, Vector};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Input to [`ChunkStore::create`]: one chunk as its member positions plus
/// the centroid/radius summary the index file records.
#[derive(Clone, Debug)]
pub struct ChunkDef {
    /// Member positions into the backing collection.
    pub positions: Vec<u32>,
    /// Centroid of the members.
    pub centroid: Vector,
    /// Minimum bounding radius around the centroid.
    pub radius: f32,
}

/// An opened (or freshly created) chunk index.
///
/// The store is a cheap `Arc`-backed handle: cloning it shares the parsed
/// index (metas, paths, page size) without touching disk, which is what
/// lets readers, prefetchers and [chunk sources](crate::source) own their
/// handle instead of borrowing one — a search session can therefore outlive
/// the scope that opened the store.
#[derive(Clone, Debug)]
pub struct ChunkStore {
    inner: Arc<StoreInner>,
    /// Read mode of *this handle*: readers opened from a quantized view
    /// deliver codes from the quant region instead of raw rows. The
    /// mode lives outside the `Arc` so raw and quantized views share the
    /// parsed index.
    quantized: bool,
}

#[derive(Debug)]
struct StoreInner {
    chunk_path: PathBuf,
    index_path: PathBuf,
    metas: Vec<ChunkMeta>,
    page_size: u32,
    total_descriptors: u64,
    /// The block checksum of the file's format version.
    sum: BlockSum,
    /// Codec of a file with a quant region; `None` for raw-only stores.
    codec: Option<Codec>,
    /// Per-chunk offsets into the quant region; empty for raw-only stores.
    quant_offsets: Vec<u64>,
}

impl ChunkStore {
    /// Writes the chunk file and index file for `chunks` under
    /// `dir/name.chunks` and `dir/name.index`, then returns the opened
    /// store.
    ///
    /// Returns [`Error::Inconsistent`] if a chunk references a position
    /// outside `set` — chunk formers produce positions from the same
    /// collection by construction, so such a definition cannot be written
    /// as a coherent pair of files. A page size too small for the 40-byte
    /// chunk-file header is refused the same way, before anything is
    /// written.
    pub fn create(
        dir: &Path,
        name: &str,
        set: &DescriptorSet,
        chunks: &[ChunkDef],
        page_size: u32,
    ) -> Result<ChunkStore> {
        Self::build_checked(dir, name, set, chunks, page_size, None)
    }

    /// [`create`](Self::create), additionally writing a quantized copy of
    /// every chunk after the raw region. The raw region stays byte-identical
    /// to what [`create`](Self::create) writes, so every raw reader works
    /// unchanged; [`quantized_view`](Self::quantized_view) opens the
    /// compressed side.
    pub fn create_quantized(
        dir: &Path,
        name: &str,
        set: &DescriptorSet,
        chunks: &[ChunkDef],
        page_size: u32,
        codec: &Codec,
    ) -> Result<ChunkStore> {
        Self::build_checked(dir, name, set, chunks, page_size, Some(codec))
    }

    /// The one checked builder behind [`create`](Self::create) and
    /// [`create_quantized`](Self::create_quantized): validates every chunk
    /// position against `set`, writes the chunk + index file pair (format
    /// version 4, with a quant region when `codec` is given) and opens the
    /// result. New writers — epoch compaction generations in particular —
    /// call this directly so any future format version inherits the same
    /// validation and the byte-identical raw region for free.
    pub fn build_checked(
        dir: &Path,
        name: &str,
        set: &DescriptorSet,
        chunks: &[ChunkDef],
        page_size: u32,
        codec: Option<&Codec>,
    ) -> Result<ChunkStore> {
        page_holds_header(page_size, chunkfile::HEADER_BYTES)?;
        for (ci, c) in chunks.iter().enumerate() {
            for &p in &c.positions {
                if p as usize >= set.len() {
                    return Err(Error::Inconsistent(format!(
                        "chunk {ci} references position {p} outside the collection of {} descriptors",
                        set.len()
                    )));
                }
            }
        }
        std::fs::create_dir_all(dir)?;
        let chunk_path = dir.join(format!("{name}.chunks"));
        let index_path = dir.join(format!("{name}.index"));

        let membership: Vec<Vec<u32>> = chunks.iter().map(|c| c.positions.clone()).collect();
        let chunk_file = File::create(&chunk_path)?;
        let (locations, quant_start) =
            chunkfile::write_chunks(set, &membership, page_size, codec, chunk_file)?;

        let metas: Vec<ChunkMeta> = chunks
            .iter()
            .zip(locations.iter())
            .map(|(c, &(offset, byte_len, count))| ChunkMeta {
                centroid: c.centroid,
                radius: c.radius,
                offset,
                byte_len,
                count,
            })
            .collect();
        let index_file = File::create(&index_path)?;
        indexfile::write_index(&metas, page_size, index_file)?;

        let quant_offsets = match codec {
            None => Vec::new(),
            Some(c) => quant_offsets_from(quant_start, &metas, c.code_bytes(), page_size)?.0,
        };
        let total_descriptors = metas.iter().map(|m| u64::from(m.count)).sum::<u64>();
        Ok(ChunkStore {
            inner: Arc::new(StoreInner {
                chunk_path,
                index_path,
                metas,
                page_size,
                total_descriptors,
                sum: BlockSum::of_version(chunkfile::VERSION),
                codec: codec.cloned(),
                quant_offsets,
            }),
            quantized: false,
        })
    }

    /// Opens an existing chunk index (format version 2, 3 or 4),
    /// cross-validating the two files. The index's offsets must lay the
    /// raw region out contiguously from the first page after the header
    /// and the codec blob, and a quant region must start where the raw
    /// region ends; anything else is [`Error::Inconsistent`]. Reads verify
    /// each block with the checksum of the file's version.
    pub fn open(chunk_path: &Path, index_path: &Path) -> Result<ChunkStore> {
        let (metas, page_size) = indexfile::read_index(File::open(index_path)?)?;
        let mut chunk_reader = BufReader::new(File::open(chunk_path)?);
        let header = chunkfile::read_header(&mut chunk_reader)?;
        if header.page_size != page_size {
            return Err(Error::Inconsistent(format!(
                "page size: chunk file {} vs index file {}",
                header.page_size, page_size
            )));
        }
        page_holds_header(page_size, header.header_bytes())?;
        if header.n_chunks as usize != metas.len() {
            return Err(Error::Inconsistent(format!(
                "chunk count: chunk file {} vs index file {}",
                header.n_chunks,
                metas.len()
            )));
        }
        let total_descriptors = metas.iter().map(|m| u64::from(m.count)).sum::<u64>();
        if header.total_descriptors != total_descriptors {
            return Err(Error::Inconsistent(format!(
                "descriptor count: chunk file {} vs index file {total_descriptors}",
                header.total_descriptors
            )));
        }
        let file_len = std::fs::metadata(chunk_path)?.len();
        let page = u64::from(page_size);
        // The codec blob sits right after the header page; bound its
        // declared length by the file before allocating for it.
        let blob_len = u64::from(header.codec_blob_len);
        if blob_len > file_len.saturating_sub(page) {
            return Err(Error::Inconsistent(format!(
                "codec parameter blob of {blob_len} bytes extends beyond file of {file_len} bytes"
            )));
        }
        // The raw region starts on the first page after the blob, and its
        // chunks follow one another in index order with no gap.
        let mut raw_end = page + chunkfile::pad_to_page(blob_len, page);
        for (i, m) in metas.iter().enumerate() {
            // A forged `byte_len` would be charged by the disk model and
            // fail every read of the chunk: refuse it here instead.
            if u64::from(m.byte_len) != u64::from(m.count) * chunkfile::RECORD_BYTES as u64 {
                return Err(Error::Inconsistent(format!(
                    "chunk {i} records {} bytes for {} descriptors of {} bytes each",
                    m.byte_len,
                    m.count,
                    chunkfile::RECORD_BYTES
                )));
            }
            if m.offset != raw_end {
                return Err(Error::Inconsistent(format!(
                    "chunk {i} at offset {} where the raw region places it at {raw_end}",
                    m.offset
                )));
            }
            let span = chunkfile::chunk_span(u64::from(m.byte_len), page);
            raw_end = raw_end.checked_add(span).ok_or_else(|| {
                Error::Inconsistent(format!(
                    "chunk {i} at offset {} overflows the file address space",
                    m.offset
                ))
            })?;
        }
        if raw_end > file_len {
            return Err(Error::Inconsistent(format!(
                "raw region extends to byte {raw_end} beyond file of {file_len} bytes"
            )));
        }
        let (codec, quant_offsets) = if header.codec_kind == 0 {
            (None, Vec::new())
        } else {
            if header.quant_start != raw_end {
                return Err(Error::Inconsistent(format!(
                    "quant region starts at byte {} but the raw region ends at byte {raw_end}",
                    header.quant_start
                )));
            }
            chunk_reader.seek(SeekFrom::Start(page))?;
            let mut blob = vec![0u8; header.codec_blob_len as usize];
            chunk_reader
                .read_exact(&mut blob)
                .map_err(|_| Error::Truncated("codec parameter blob"))?;
            let codec = Codec::from_bytes(header.codec_kind, &blob).ok_or_else(|| {
                Error::Inconsistent(format!(
                    "unreadable codec parameters (kind {}, {} bytes)",
                    header.codec_kind, header.codec_blob_len
                ))
            })?;
            let (offsets, end) =
                quant_offsets_from(header.quant_start, &metas, codec.code_bytes(), page_size)?;
            if end > file_len {
                return Err(Error::Inconsistent(format!(
                    "quant region extends to byte {end} beyond file of {file_len} bytes"
                )));
            }
            (Some(codec), offsets)
        };
        Ok(ChunkStore {
            inner: Arc::new(StoreInner {
                chunk_path: chunk_path.to_path_buf(),
                index_path: index_path.to_path_buf(),
                total_descriptors,
                metas,
                page_size,
                sum: BlockSum::of_version(header.version),
                codec,
                quant_offsets,
            }),
            quantized: false,
        })
    }

    /// The index entries (chunk order).
    pub fn metas(&self) -> &[ChunkMeta] {
        &self.inner.metas
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.inner.metas.len()
    }

    /// Total descriptors across chunks.
    pub fn total_descriptors(&self) -> u64 {
        self.inner.total_descriptors
    }

    /// The page size chunks are padded to.
    pub fn page_size(&self) -> u32 {
        self.inner.page_size
    }

    /// Size of the index file in bytes (charged when the search reads and
    /// ranks the index).
    pub fn index_bytes(&self) -> u64 {
        indexfile::index_file_bytes(self.inner.metas.len())
    }

    /// Path of the chunk file.
    pub fn chunk_path(&self) -> &Path {
        &self.inner.chunk_path
    }

    /// Path of the index file.
    pub fn index_path(&self) -> &Path {
        &self.inner.index_path
    }

    /// The codec of a store with a quant region; `None` for raw-only files.
    pub fn codec(&self) -> Option<&Codec> {
        self.inner.codec.as_ref()
    }

    /// A handle whose readers deliver quantized codes from the quant
    /// region. Every other aspect (metas, paths, page size) is shared
    /// with this handle, so chunk ids and rankings carry over unchanged.
    ///
    /// Returns [`Error::Inconsistent`] for a raw-only store.
    pub fn quantized_view(&self) -> Result<ChunkStore> {
        if self.inner.codec.is_none() {
            return Err(Error::Inconsistent("store has no quantized region".into()));
        }
        Ok(ChunkStore {
            inner: Arc::clone(&self.inner),
            quantized: true,
        })
    }

    /// A handle whose readers deliver raw `f32` rows (the default mode).
    pub fn raw_view(&self) -> ChunkStore {
        ChunkStore {
            inner: Arc::clone(&self.inner),
            quantized: false,
        }
    }

    /// Opens an independent reader over the chunk file. Each concurrent
    /// query should hold its own reader (separate file handle and buffer).
    /// The reader owns a store handle, so it may outlive the
    /// `ChunkStore` value it was created from.
    pub fn reader(&self) -> Result<ChunkReader> {
        Ok(ChunkReader {
            file: File::open(&self.inner.chunk_path)?,
            buf: Vec::new(),
            store: self.clone(),
        })
    }
}

/// Refuses a page size smaller than the chunk-file header it must hold
/// (`header_bytes`: 24 for a version-2 file, 40 otherwise).
fn page_holds_header(page_size: u32, header_bytes: usize) -> Result<()> {
    if (page_size as usize) < header_bytes {
        return Err(Error::Inconsistent(format!(
            "page size {page_size} cannot hold the {header_bytes}-byte chunk file header"
        )));
    }
    Ok(())
}

/// Per-chunk offsets into the quant region, derived from the chunk counts
/// (the quant region stores chunks in id order, each page-padded), plus the
/// byte the region ends at. A `quant_start` from which the region would
/// run past the end of the file address space is [`Error::Inconsistent`].
fn quant_offsets_from(
    quant_start: u64,
    metas: &[ChunkMeta],
    code_bytes: usize,
    page_size: u32,
) -> Result<(Vec<u64>, u64)> {
    let mut offsets = Vec::with_capacity(metas.len());
    let mut at = quant_start;
    for (i, m) in metas.iter().enumerate() {
        offsets.push(at);
        let span = chunkfile::chunk_span(
            chunkfile::quant_byte_len(m.count, code_bytes),
            u64::from(page_size),
        );
        at = at.checked_add(span).ok_or_else(|| {
            Error::Inconsistent(format!(
                "quant chunk {i} at offset {at} overflows the file address space"
            ))
        })?;
    }
    Ok((offsets, at))
}

/// A reader over a store's chunk file: one file handle and one byte buffer,
/// both reused for every chunk it reads.
#[derive(Debug)]
pub struct ChunkReader {
    store: ChunkStore,
    file: File,
    /// The body and checksum of the chunk read last. Its capacity grows to
    /// the largest chunk read, so a warm reader allocates nothing per read.
    buf: Vec<u8>,
}

impl ChunkReader {
    /// Reads chunk `id` into `payload` (buffers reused); returns the number
    /// of bytes the disk model charges (the padded page span). Only the
    /// body and its checksum are read, not the padding, in one positioned
    /// read; a version-4 raw body is then verified and decoded in one pass
    /// (see [`chunkfile`]). A reader opened
    /// from a [quantized view](ChunkStore::quantized_view) fills
    /// `payload.codes` from the quant region — a strictly smaller span
    /// for a compressing codec — instead of `payload.packed`.
    pub fn read_chunk(&mut self, id: usize, payload: &mut ChunkPayload) -> Result<u64> {
        let inner = &self.store.inner;
        let meta = inner.metas.get(id).ok_or(Error::NoSuchChunk {
            id,
            n_chunks: inner.metas.len(),
        })?;
        let page = u64::from(inner.page_size);
        if self.store.quantized {
            let codec = inner.codec.as_ref().ok_or_else(|| {
                Error::Inconsistent("quantized read on a store without a codec".into())
            })?;
            let quant_offset = inner.quant_offsets.get(id).copied().ok_or_else(|| {
                Error::Inconsistent(format!("no quant offset recorded for chunk {id}"))
            })?;
            let code_bytes = codec.code_bytes();
            chunkfile::read_quant_chunk_at(
                &self.file,
                &mut self.buf,
                quant_offset,
                meta.count,
                code_bytes,
                inner.sum,
                payload,
            )?;
            let byte_len = chunkfile::quant_byte_len(meta.count, code_bytes);
            Ok(chunkfile::chunk_span(byte_len, page))
        } else {
            chunkfile::read_chunk_at(&self.file, &mut self.buf, meta, inner.sum, payload)?;
            Ok(chunkfile::chunk_span(u64::from(meta.byte_len), page))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::{Descriptor, DIM};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| Descriptor::new(i as u32, Vector::splat(i as f32)))
            .collect()
    }

    fn defs(groups: &[&[u32]], set: &DescriptorSet) -> Vec<ChunkDef> {
        groups
            .iter()
            .map(|g| {
                let vecs: Vec<Vector> = g.iter().map(|&p| set.vector_owned(p as usize)).collect();
                let centroid = Vector::mean(vecs.iter());
                let radius = vecs.iter().map(|v| centroid.dist(v)).fold(0.0f32, f32::max);
                ChunkDef {
                    positions: g.to_vec(),
                    centroid,
                    radius,
                }
            })
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eff2_store_{tag}_{}_{unique}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn create_open_read_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let set = sample_set(12);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5], &[6, 7, 8, 9, 10, 11]], &set);
        let store = ChunkStore::create(&dir, "t", &set, &chunks, 512).expect("create");
        assert_eq!(store.n_chunks(), 3);
        assert_eq!(store.total_descriptors(), 12);

        let reopened = ChunkStore::open(store.chunk_path(), store.index_path()).expect("open");
        assert_eq!(reopened.metas(), store.metas());

        let mut reader = reopened.reader().expect("reader");
        let mut payload = ChunkPayload::default();
        let bytes = reader.read_chunk(2, &mut payload).expect("read");
        assert_eq!(bytes % 512, 0);
        assert_eq!(payload.len(), 6);
        assert_eq!(payload.ids, vec![6, 7, 8, 9, 10, 11]);
        assert_eq!(&payload.packed[0..DIM], set.vector(6));
    }

    #[test]
    fn metas_carry_summaries() {
        let dir = tmp_dir("summaries");
        let set = sample_set(6);
        let chunks = defs(&[&[0, 1, 2], &[3, 4, 5]], &set);
        let store = ChunkStore::create(&dir, "s", &set, &chunks, 256).expect("create");
        for (m, c) in store.metas().iter().zip(chunks.iter()) {
            assert_eq!(m.centroid, c.centroid);
            assert_eq!(m.radius, c.radius);
            assert_eq!(m.count as usize, c.positions.len());
        }
    }

    #[test]
    fn read_out_of_range_chunk() {
        let dir = tmp_dir("range");
        let set = sample_set(4);
        let chunks = defs(&[&[0, 1, 2, 3]], &set);
        let store = ChunkStore::create(&dir, "r", &set, &chunks, 256).expect("create");
        let mut reader = store.reader().expect("reader");
        let mut payload = ChunkPayload::default();
        assert!(matches!(
            reader.read_chunk(5, &mut payload),
            Err(Error::NoSuchChunk { id: 5, n_chunks: 1 })
        ));
    }

    #[test]
    fn open_detects_page_size_mismatch() {
        let dir = tmp_dir("pagemismatch");
        let set = sample_set(4);
        let chunks = defs(&[&[0, 1, 2, 3]], &set);
        let a = ChunkStore::create(&dir, "a", &set, &chunks, 256).expect("create");
        let b = ChunkStore::create(&dir, "b", &set, &chunks, 512).expect("create");
        // Pair a's chunk file with b's index file.
        assert!(matches!(
            ChunkStore::open(a.chunk_path(), b.index_path()),
            Err(Error::Inconsistent(_))
        ));
    }

    #[test]
    fn open_detects_truncated_chunk_file() {
        let dir = tmp_dir("trunc");
        let set = sample_set(20);
        let chunks = defs(
            &[
                &[0, 1, 2, 3, 4],
                &[5, 6, 7, 8, 9],
                &[10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
            ],
            &set,
        );
        let store = ChunkStore::create(&dir, "t", &set, &chunks, 256).expect("create");
        // Chop the tail off the chunk file.
        let data = std::fs::read(store.chunk_path()).expect("read file");
        std::fs::write(store.chunk_path(), &data[..data.len() - 300]).expect("rewrite");
        assert!(matches!(
            ChunkStore::open(store.chunk_path(), store.index_path()),
            Err(Error::Inconsistent(_))
        ));
    }

    /// Creates a three-chunk store, lets `forge` patch the bytes of its
    /// chunk file and index file, and reopens it.
    fn open_forged(tag: &str, forge: impl FnOnce(&mut [u8], &mut [u8])) -> Result<ChunkStore> {
        let dir = tmp_dir(tag);
        let set = sample_set(12);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5], &[6, 7, 8, 9, 10, 11]], &set);
        let store = ChunkStore::create(&dir, "f", &set, &chunks, 256).expect("create");
        reopen_forged(&store, forge)
    }

    /// [`open_forged`] for a quantized store: only the chunk file, whose
    /// header carries the codec blob length and the quant-region start, is
    /// patched.
    fn open_forged_quantized(tag: &str, forge: impl FnOnce(&mut [u8])) -> Result<ChunkStore> {
        use eff2_descriptor::Sq8Codec;
        let dir = tmp_dir(tag);
        let set = sample_set(12);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5], &[6, 7, 8, 9, 10, 11]], &set);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let store =
            ChunkStore::create_quantized(&dir, "f", &set, &chunks, 512, &codec).expect("create");
        reopen_forged(&store, |chunk, _| forge(chunk))
    }

    /// Patches `store`'s chunk file and index file in place with `forge`,
    /// then opens them again.
    fn reopen_forged(
        store: &ChunkStore,
        forge: impl FnOnce(&mut [u8], &mut [u8]),
    ) -> Result<ChunkStore> {
        let mut chunk = std::fs::read(store.chunk_path()).expect("read chunk file");
        let mut index = std::fs::read(store.index_path()).expect("read index file");
        forge(&mut chunk, &mut index);
        std::fs::write(store.chunk_path(), &chunk).expect("rewrite chunk file");
        std::fs::write(store.index_path(), &index).expect("rewrite index file");
        ChunkStore::open(store.chunk_path(), store.index_path())
    }

    #[test]
    fn open_refuses_a_forged_chunk_count_without_allocating_for_it() {
        // Bit 31 of the index's `n_chunks`: reserving that many entries up
        // front aborts the process on allocation failure.
        let got = open_forged("forgedcount", |_, index| index[11] ^= 0x80);
        assert!(matches!(got, Err(Error::Truncated(_))), "{got:?}");
    }

    #[test]
    fn open_refuses_a_page_size_too_small_for_the_header() {
        // Page size 0 in both files passes the cross-check and would reach
        // `pad_to_page`'s assertion.
        let got = open_forged("forgedpage", |chunk, index| {
            chunk[8..12].copy_from_slice(&0u32.to_le_bytes());
            index[12..16].copy_from_slice(&0u32.to_le_bytes());
        });
        assert!(matches!(got, Err(Error::Inconsistent(_))), "{got:?}");
    }

    /// Format versions with a checked-in chunk + index file pair under
    /// `tests/fixtures/` (see the README there): every readable version
    /// but the one the writers produce.
    const FIXTURE_VERSIONS: [u32; 2] = [chunkfile::VERSION_V2, chunkfile::VERSION_V3];

    fn fixture_path(version: u32, ext: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(format!("v{version}.{ext}"))
    }

    /// Opens a private copy of the version-`version` fixture pair, so a
    /// test may damage it.
    fn fixture_copy(version: u32, tag: &str) -> ChunkStore {
        let dir = tmp_dir(tag);
        for ext in ["chunks", "index"] {
            std::fs::copy(
                fixture_path(version, ext),
                dir.join(format!("legacy.{ext}")),
            )
            .expect("copy fixture");
        }
        ChunkStore::open(&dir.join("legacy.chunks"), &dir.join("legacy.index"))
            .expect("open fixture")
    }

    /// The collection the fixtures were written from: descriptor `i` has
    /// id `i`.
    fn fixture_set() -> DescriptorSet {
        (0..300)
            .map(|i| {
                let blob = (i % 7) as f32 * 12.0;
                let mut v = Vector::splat(blob);
                v[0] += ((i * 13) % 29) as f32 * 0.4;
                v[5] -= ((i * 7) % 11) as f32 * 0.6;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    /// The format version in `store`'s chunk-file header.
    fn file_version(store: &ChunkStore) -> u32 {
        let mut file = File::open(store.chunk_path()).expect("open chunk file");
        chunkfile::read_header(&mut file).expect("header").version
    }

    /// A payload as bit patterns, so NaNs and signed zeros compare exactly.
    fn bits(payload: &ChunkPayload) -> (Vec<u32>, Vec<u32>, Vec<u8>) {
        let packed = payload.packed.iter().map(|f| f.to_bits()).collect();
        (payload.ids.clone(), packed, payload.codes.clone())
    }

    /// Block `id` of `view` as `(offset, body length)`: a raw chunk, or its
    /// quantized copy for a quantized view.
    fn block_of(view: &ChunkStore, id: usize) -> (u64, u64) {
        let meta = &view.metas()[id];
        match view.codec().filter(|_| view.quantized) {
            Some(codec) => (
                view.inner.quant_offsets[id],
                chunkfile::quant_byte_len(meta.count, codec.code_bytes()),
            ),
            None => (meta.offset, u64::from(meta.byte_len)),
        }
    }

    /// Rewrites the stored checksum of block `id` of `view` as `sum` of
    /// its body, on disk.
    fn restamp(view: &ChunkStore, id: usize, sum: BlockSum) {
        let (offset, len) = block_of(view, id);
        let (start, end) = (offset as usize, (offset + len) as usize);
        let mut data = std::fs::read(view.chunk_path()).expect("read chunk file");
        let stamp = sum.of(&data[start..end]).to_le_bytes();
        data[end..end + 4].copy_from_slice(&stamp);
        std::fs::write(view.chunk_path(), &data).expect("rewrite chunk file");
    }

    /// Reads block `id` of `view` through a fresh reader.
    fn read_one(view: &ChunkStore, id: usize) -> Result<u64> {
        let mut payload = ChunkPayload::default();
        view.reader().expect("reader").read_chunk(id, &mut payload)
    }

    #[test]
    fn every_bit_flip_in_the_chunk_file_header_is_refused() {
        use eff2_descriptor::Sq8Codec;
        let set = sample_set(12);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5], &[6, 7, 8, 9, 10, 11]], &set);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let raw =
            ChunkStore::create(&tmp_dir("headerflips"), "h", &set, &chunks, 256).expect("create");
        let quant =
            ChunkStore::create_quantized(&tmp_dir("headerflips"), "q", &set, &chunks, 512, &codec)
                .expect("create quantized");
        let mut stores = vec![raw, quant];
        stores.extend(FIXTURE_VERSIONS.map(|v| fixture_copy(v, "headerflips")));
        for store in stores {
            let clean = std::fs::read(store.chunk_path()).expect("read chunk file");
            let header = chunkfile::read_header(&mut clean.as_slice()).expect("header");
            let codec_kind = header.codec_kind;
            for bit in 0..header.header_bytes() * 8 {
                let mut flipped = clean.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                std::fs::write(store.chunk_path(), &flipped).expect("rewrite chunk file");
                let got = ChunkStore::open(store.chunk_path(), store.index_path());
                assert!(
                    got.is_err(),
                    "version {} (codec kind {codec_kind}) header bit {bit} flipped, opened: {got:?}",
                    header.version
                );
            }
            std::fs::write(store.chunk_path(), &clean).expect("restore chunk file");
            ChunkStore::open(store.chunk_path(), store.index_path()).expect("clean file opens");
        }
    }

    #[test]
    fn every_readable_chunk_format_has_a_fixture() {
        use eff2_descriptor::Sq8Codec;
        let readable: Vec<u32> = (0..=1024u32)
            .filter(|&version| {
                let mut header = [0u8; chunkfile::HEADER_BYTES];
                header[..4].copy_from_slice(&chunkfile::MAGIC);
                header[4..8].copy_from_slice(&version.to_le_bytes());
                !matches!(
                    chunkfile::read_header(&mut header.as_slice()),
                    Err(Error::UnsupportedVersion(_))
                )
            })
            .collect();
        let newest = *readable.last().expect("some version is readable");
        assert_eq!(newest, chunkfile::VERSION);

        // The writers produce the newest version and nothing else.
        let set = sample_set(12);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5]], &set);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let dir = tmp_dir("newest");
        let raw = ChunkStore::create(&dir, "r", &set, &chunks, 256).expect("create");
        let quant =
            ChunkStore::create_quantized(&dir, "q", &set, &chunks, 256, &codec).expect("create");
        assert_eq!(file_version(&raw), newest);
        assert_eq!(file_version(&quant), newest);

        // Every older readable version has a fixture pair of that version.
        let older: Vec<u32> = readable.iter().copied().filter(|&v| v != newest).collect();
        assert_eq!(
            older, FIXTURE_VERSIONS,
            "readable versions without a fixture"
        );
        for version in older {
            for ext in ["chunks", "index"] {
                let path = fixture_path(version, ext);
                assert!(path.exists(), "no fixture {}", path.display());
            }
            assert_eq!(file_version(&fixture_copy(version, "guard")), version);
        }
    }

    #[test]
    fn legacy_fixtures_decode_bit_identically_to_a_v4_store() {
        use eff2_descriptor::Sq8Codec;
        let set = fixture_set();
        for version in FIXTURE_VERSIONS {
            let legacy = fixture_copy(version, "twin");
            let raw_reads = fresh_reads(&legacy.raw_view());
            // Ids are positions into `set`, so the fixture's own raw reads
            // give the chunk membership it was written from.
            let chunks: Vec<ChunkDef> = legacy
                .metas()
                .iter()
                .zip(&raw_reads)
                .map(|(m, (payload, _))| ChunkDef {
                    positions: payload.ids.clone(),
                    centroid: m.centroid,
                    radius: m.radius,
                })
                .collect();
            for (payload, _) in &raw_reads {
                for (row, &id) in payload.packed.chunks_exact(DIM).zip(&payload.ids) {
                    let want: Vec<u32> = set
                        .vector(id as usize)
                        .iter()
                        .map(|c| c.to_bits())
                        .collect();
                    let got: Vec<u32> = row.iter().map(|c| c.to_bits()).collect();
                    assert_eq!(got, want, "v{version} descriptor {id}");
                }
            }
            let dir = tmp_dir("twin");
            let page = legacy.page_size();
            let twin = match legacy.codec() {
                None => ChunkStore::create(&dir, "v4", &set, &chunks, page),
                Some(codec) => {
                    assert_eq!(codec, &Codec::Sq8(Sq8Codec::from_set(&set)));
                    ChunkStore::create_quantized(&dir, "v4", &set, &chunks, page, codec)
                }
            }
            .expect("create twin");
            assert_eq!(file_version(&twin), chunkfile::VERSION);
            // Same offsets, spans and file sizes: only the sums differ.
            assert_eq!(twin.metas(), legacy.metas(), "v{version}");
            let len = |s: &ChunkStore| std::fs::metadata(s.chunk_path()).expect("len").len();
            assert_eq!(len(&twin), len(&legacy), "v{version}");
            assert_eq!(twin.inner.quant_offsets, legacy.inner.quant_offsets);

            let mut views = vec![(legacy.raw_view(), twin.raw_view())];
            if legacy.codec().is_some() {
                let quantized = |s: &ChunkStore| s.quantized_view().expect("view");
                views.push((quantized(&legacy), quantized(&twin)));
            }
            for (old, new) in views {
                let (old_reads, new_reads) = (fresh_reads(&old), fresh_reads(&new));
                assert_eq!(old_reads.len(), new_reads.len());
                for (id, ((a, a_bytes), (b, b_bytes))) in
                    old_reads.iter().zip(&new_reads).enumerate()
                {
                    assert_eq!(a_bytes, b_bytes, "v{version} chunk {id} bytes_read");
                    assert_eq!(bits(a), bits(b), "v{version} chunk {id}");
                }
            }
        }
    }

    #[test]
    fn legacy_fixtures_detect_a_flipped_body_byte() {
        for version in FIXTURE_VERSIONS {
            let legacy = fixture_copy(version, "flip");
            let mut views = vec![(legacy.raw_view(), "chunk body")];
            if legacy.codec().is_some() {
                views.push((
                    legacy.quantized_view().expect("view"),
                    "quantized chunk body",
                ));
            }
            for (view, what) in views {
                let (offset, _) = block_of(&view, 1);
                let mut data = std::fs::read(view.chunk_path()).expect("read chunk file");
                data[offset as usize + 10] ^= 0x01;
                std::fs::write(view.chunk_path(), &data).expect("rewrite chunk file");
                read_one(&view, 0).expect("chunk 0 is clean");
                match read_one(&view, 1) {
                    Err(Error::Corrupt {
                        what: got,
                        offset: at,
                        ..
                    }) => assert_eq!((got, at), (what, offset), "v{version}"),
                    other => panic!("v{version} {what}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn the_block_checksum_follows_the_format_version() {
        use eff2_descriptor::Sq8Codec;
        let set = sample_set(12);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5], &[6, 7, 8, 9, 10, 11]], &set);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let v4 =
            ChunkStore::create_quantized(&tmp_dir("sumfollows"), "s", &set, &chunks, 256, &codec)
                .expect("create");
        let mut cases = vec![(v4, BlockSum::Xxh32, BlockSum::Fnv1a)];
        cases.extend(FIXTURE_VERSIONS.map(|v| {
            (
                fixture_copy(v, "sumfollows"),
                BlockSum::Fnv1a,
                BlockSum::Xxh32,
            )
        }));
        for (store, own, other) in cases {
            let version = file_version(&store);
            let mut views = vec![store.raw_view()];
            if store.codec().is_some() {
                views.push(store.quantized_view().expect("view"));
            }
            for view in views {
                // Restamped with the file's own algorithm, block 0 still
                // reads; with the other one it is corrupt.
                restamp(&view, 0, own);
                read_one(&view, 0).expect("own checksum");
                restamp(&view, 0, other);
                let got = read_one(&view, 0);
                assert!(
                    matches!(got, Err(Error::Corrupt { .. })),
                    "v{version}: {got:?}"
                );
                read_one(&view, 1).expect("block 1 untouched");
            }
        }
    }

    #[test]
    fn create_refuses_a_page_size_too_small_for_the_header_before_writing() {
        use eff2_descriptor::Sq8Codec;
        let set = sample_set(12);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5]], &set);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        for page_size in [0u32, 16] {
            let dir = tmp_dir("tinypage");
            let raw = ChunkStore::create(&dir, "r", &set, &chunks, page_size);
            assert!(matches!(raw, Err(Error::Inconsistent(_))), "{raw:?}");
            let quant = ChunkStore::create_quantized(&dir, "q", &set, &chunks, page_size, &codec);
            assert!(matches!(quant, Err(Error::Inconsistent(_))), "{quant:?}");
            assert!(!dir.join("r.chunks").exists(), "page size {page_size}");
            assert!(!dir.join("q.chunks").exists(), "page size {page_size}");
        }
    }

    #[test]
    fn open_refuses_a_chunk_offset_whose_span_overflows() {
        // Entry 0's `offset` sits after the header, centroid and radius.
        let at = indexfile::HEADER_BYTES + DIM * 4 + 4;
        let got = open_forged("forgedoffset", |_, index| {
            index[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        assert!(matches!(got, Err(Error::Inconsistent(_))), "{got:?}");
    }

    #[test]
    fn open_refuses_an_index_entry_whose_byte_len_disagrees_with_its_count() {
        // Entry 1's `byte_len` sits after entry 0, then the centroid,
        // radius and offset. One record short still fits the file, so
        // only the count cross-check can refuse it.
        let at = indexfile::HEADER_BYTES + indexfile::ENTRY_BYTES + DIM * 4 + 4 + 8;
        let got = open_forged("forgedbytelen", |_, index| {
            index[at..at + 4].copy_from_slice(&(chunkfile::RECORD_BYTES as u32).to_le_bytes());
        });
        match got {
            Err(Error::Inconsistent(why)) => assert!(why.contains("chunk 1 "), "{why}"),
            other => panic!("expected Error::Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn open_refuses_a_quant_start_whose_region_overflows() {
        // `quant_start` is header bytes 32..40. Adding chunk 0's span to
        // this one overflows; wrapped, the offsets point into the header.
        let got = open_forged_quantized("forgedquant", |chunk| {
            chunk[32..40].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        });
        assert!(matches!(got, Err(Error::Inconsistent(_))), "{got:?}");
    }

    #[test]
    fn open_refuses_a_codec_blob_longer_than_the_file() {
        // `codec_blob_len` is header bytes 28..32; sizing the blob buffer
        // from it reserves 4 GiB before any read can fail.
        let got = open_forged_quantized("forgedblob", |chunk| {
            chunk[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        match got {
            Err(Error::Inconsistent(why)) => {
                assert!(why.contains(&u32::MAX.to_string()), "{why}");
            }
            other => panic!("expected Error::Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn reader_detects_on_disk_corruption() {
        let dir = tmp_dir("corrupt");
        let set = sample_set(8);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5, 6, 7]], &set);
        let store = ChunkStore::create(&dir, "c", &set, &chunks, 256).expect("create");
        // Flip a byte inside chunk 1's record block, on disk.
        let mut data = std::fs::read(store.chunk_path()).expect("read file");
        let hit = store.metas()[1].offset as usize + 10;
        data[hit] ^= 0x01;
        std::fs::write(store.chunk_path(), &data).expect("rewrite");
        let mut reader = store.reader().expect("reader");
        let mut payload = ChunkPayload::default();
        reader
            .read_chunk(0, &mut payload)
            .expect("chunk 0 is clean");
        assert!(matches!(
            reader.read_chunk(1, &mut payload),
            Err(Error::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_store() {
        let dir = tmp_dir("empty");
        let set = sample_set(0);
        let store = ChunkStore::create(&dir, "e", &set, &[], 256).expect("create");
        assert_eq!(store.n_chunks(), 0);
        assert_eq!(store.total_descriptors(), 0);
        let reopened = ChunkStore::open(store.chunk_path(), store.index_path()).expect("open");
        assert_eq!(reopened.n_chunks(), 0);
    }

    #[test]
    fn create_rejects_bad_positions() {
        let dir = tmp_dir("badpos");
        let _ = std::fs::remove_file(dir.join("x.chunks"));
        let _ = std::fs::remove_file(dir.join("x.index"));
        let set = sample_set(2);
        let chunks = vec![ChunkDef {
            positions: vec![0, 7],
            centroid: Vector::ZERO,
            radius: 0.0,
        }];
        let err = ChunkStore::create(&dir, "x", &set, &chunks, 256)
            .expect_err("out-of-range position must be rejected");
        match err {
            Error::Inconsistent(why) => {
                assert!(why.contains('7'), "message should name the position: {why}");
            }
            other => panic!("expected Error::Inconsistent, got {other:?}"),
        }
        // Nothing was written: the files must not exist.
        assert!(!dir.join("x.chunks").exists());
        assert!(!dir.join("x.index").exists());
    }

    #[test]
    fn quantized_store_roundtrip_and_views() {
        use eff2_descriptor::{Codec, DescriptorCodec, Sq8Codec};
        let dir = tmp_dir("quant");
        let set = sample_set(12);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5], &[6, 7, 8, 9, 10, 11]], &set);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let store =
            ChunkStore::create_quantized(&dir, "q", &set, &chunks, 512, &codec).expect("create");
        assert_eq!(store.codec(), Some(&codec));
        assert!(!store.quantized);

        // Raw reads work exactly as on a raw-only store.
        let mut raw_payload = ChunkPayload::default();
        let raw_bytes = store
            .reader()
            .expect("reader")
            .read_chunk(2, &mut raw_payload)
            .expect("raw read");
        assert_eq!(raw_payload.ids, vec![6, 7, 8, 9, 10, 11]);
        assert_eq!(&raw_payload.packed[0..DIM], set.vector(6));
        assert!(raw_payload.codes.is_empty());

        // The quantized view delivers codes for the same ids, charging
        // strictly fewer modelled bytes.
        let qview = store.quantized_view().expect("view");
        assert!(qview.quantized);
        let mut q_payload = ChunkPayload::default();
        let q_bytes = qview
            .reader()
            .expect("reader")
            .read_chunk(2, &mut q_payload)
            .expect("quant read");
        assert_eq!(q_payload.ids, raw_payload.ids);
        assert!(q_payload.packed.is_empty());
        assert_eq!(q_payload.codes.len(), 6 * codec.code_bytes());
        assert!(q_bytes < raw_bytes, "{q_bytes} !< {raw_bytes}");
        assert!(!qview.raw_view().quantized);

        // Reopening parses the codec back from the file.
        let reopened = ChunkStore::open(store.chunk_path(), store.index_path()).expect("open");
        assert_eq!(reopened.codec(), Some(&codec));
        assert_eq!(reopened.metas(), store.metas());
        let mut again = ChunkPayload::default();
        reopened
            .quantized_view()
            .expect("view")
            .reader()
            .expect("reader")
            .read_chunk(2, &mut again)
            .expect("read");
        assert_eq!(again, q_payload);
    }

    #[test]
    fn raw_store_has_no_quantized_view() {
        let dir = tmp_dir("noquant");
        let set = sample_set(4);
        let chunks = defs(&[&[0, 1, 2, 3]], &set);
        let store = ChunkStore::create(&dir, "p", &set, &chunks, 256).expect("create");
        assert!(store.codec().is_none());
        assert!(matches!(
            store.quantized_view(),
            Err(Error::Inconsistent(_))
        ));
    }

    #[test]
    fn open_detects_truncated_quant_region() {
        use eff2_descriptor::{Codec, Sq8Codec};
        let dir = tmp_dir("quanttrunc");
        let set = sample_set(20);
        let chunks = defs(&[&[0, 1, 2, 3, 4], &[5, 6, 7, 8, 9]], &set);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let store =
            ChunkStore::create_quantized(&dir, "t", &set, &chunks, 256, &codec).expect("create");
        let data = std::fs::read(store.chunk_path()).expect("read file");
        std::fs::write(store.chunk_path(), &data[..data.len() - 256]).expect("rewrite");
        assert!(matches!(
            ChunkStore::open(store.chunk_path(), store.index_path()),
            Err(Error::Inconsistent(_))
        ));
    }

    /// Every chunk of `view`, each read through a reader of its own.
    fn fresh_reads(view: &ChunkStore) -> Vec<(ChunkPayload, u64)> {
        (0..view.n_chunks())
            .map(|id| {
                let mut payload = ChunkPayload::default();
                let bytes = view
                    .reader()
                    .expect("reader")
                    .read_chunk(id, &mut payload)
                    .expect("fresh read");
                (payload, bytes)
            })
            .collect()
    }

    #[test]
    fn one_reader_reuses_its_buffer_without_leaking_bytes_between_chunks() {
        use eff2_descriptor::Sq8Codec;
        let dir = tmp_dir("reuse");
        let set: DescriptorSet = (0..40)
            .map(|i| Descriptor::new(1000 + i, Vector::splat(i as f32 * 0.5 - 7.0)))
            .collect();
        // Counts 12, 1, 9, 3, 15: chunk 4 (last in the file) is the biggest.
        let groups: [&[u32]; 5] = [
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            &[12],
            &[13, 14, 15, 16, 17, 18, 19, 20, 21],
            &[22, 23, 24],
            &[25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39],
        ];
        let chunks = defs(&groups, &set);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let store =
            ChunkStore::create_quantized(&dir, "u", &set, &chunks, 256, &codec).expect("create");
        let quant = store.quantized_view().expect("view");
        // Big before small, so every later read is shorter than the buffer.
        let order = [4usize, 0, 2, 3, 1, 4, 1, 0];
        for view in [store.raw_view(), quant.clone()] {
            let want = fresh_reads(&view);
            let mut reader = view.reader().expect("reader");
            let mut payload = ChunkPayload::default();
            for &id in &order {
                let bytes = reader.read_chunk(id, &mut payload).expect("read");
                assert_eq!((&payload, bytes), (&want[id].0, want[id].1), "chunk {id}");
            }
        }

        // Cut the file inside the last quant chunk's body, after open.
        let want = fresh_reads(&quant);
        let mut reader = quant.reader().expect("reader");
        let mut payload = ChunkPayload::default();
        reader.read_chunk(4, &mut payload).expect("whole");
        let end = store.inner.quant_offsets[4] + 10;
        File::options()
            .write(true)
            .open(store.chunk_path())
            .expect("open for truncation")
            .set_len(end)
            .expect("truncate");
        assert!(matches!(
            reader.read_chunk(4, &mut payload),
            Err(Error::Truncated(_))
        ));
        for id in [0usize, 3, 1] {
            let bytes = reader.read_chunk(id, &mut payload).expect("earlier chunk");
            assert_eq!((&payload, bytes), (&want[id].0, want[id].1), "chunk {id}");
        }

        // The same for the raw region: cut inside chunk 4's body.
        let raw = store.raw_view();
        let mut reader = raw.reader().expect("reader");
        let want: Vec<_> = (0..4)
            .map(|id| {
                let mut payload = ChunkPayload::default();
                let bytes = reader.read_chunk(id, &mut payload).expect("before the cut");
                (payload, bytes)
            })
            .collect();
        reader.read_chunk(4, &mut payload).expect("whole");
        let end = store.metas()[4].offset + 700;
        File::options()
            .write(true)
            .open(store.chunk_path())
            .expect("open for truncation")
            .set_len(end)
            .expect("truncate");
        assert!(matches!(
            reader.read_chunk(4, &mut payload),
            Err(Error::Truncated(_))
        ));
        for id in [2usize, 0, 3, 1] {
            let bytes = reader.read_chunk(id, &mut payload).expect("earlier chunk");
            assert_eq!((&payload, bytes), (&want[id].0, want[id].1), "chunk {id}");
        }
    }

    #[test]
    fn clones_share_the_parsed_index() {
        let dir = tmp_dir("clone");
        let set = sample_set(8);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5, 6, 7]], &set);
        let store = ChunkStore::create(&dir, "c", &set, &chunks, 256).expect("create");
        let clone = store.clone();
        assert_eq!(clone.metas(), store.metas());
        assert_eq!(clone.chunk_path(), store.chunk_path());
        // A clone's reader works independently of the original handle.
        drop(store);
        let mut reader = clone.reader().expect("reader");
        let mut payload = ChunkPayload::default();
        reader.read_chunk(1, &mut payload).expect("read");
        assert_eq!(payload.ids, vec![4, 5, 6, 7]);
    }
}
