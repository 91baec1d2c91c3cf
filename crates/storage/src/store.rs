//! Creating and opening chunk indexes (the chunk file + index file pair).

use crate::chunkfile::{self, ChunkPayload};
use crate::error::{Error, Result};
use crate::indexfile::{self, ChunkMeta};
use eff2_descriptor::quant::{Codec, DescriptorCodec};
use eff2_descriptor::{DescriptorSet, Vector};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Re-export: the decoded contents of one chunk.
pub use crate::chunkfile::ChunkPayload as ChunkData;

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
    /// deliver codes from the v3 quant region instead of raw rows. The
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
    /// Codec of a version-3 file; `None` for raw-only (v2) stores.
    codec: Option<Codec>,
    /// Per-chunk offsets into the quant region; empty for v2 stores.
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
    /// as a coherent pair of files. A page size too small for the
    /// chunk-file header (24 bytes; 40 for
    /// [`create_quantized`](Self::create_quantized)) is refused the same
    /// way, before anything is written.
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
    /// every chunk (format version 3). The raw region stays byte-identical
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
    /// position against `set`, writes the chunk + index file pair (raw v2,
    /// or format v3 when `codec` is given) and opens the result. New
    /// writers — epoch compaction generations in particular — call this
    /// directly so any future format version inherits the same validation
    /// and the byte-identical raw region for free.
    pub fn build_checked(
        dir: &Path,
        name: &str,
        set: &DescriptorSet,
        chunks: &[ChunkDef],
        page_size: u32,
        codec: Option<&Codec>,
    ) -> Result<ChunkStore> {
        let header_bytes = match codec {
            None => chunkfile::HEADER_BYTES,
            Some(_) => chunkfile::HEADER_BYTES_QUANT,
        };
        page_holds_header(page_size, header_bytes)?;
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
        let (locations, quant_start) = match codec {
            None => (
                chunkfile::write_chunks(set, &membership, page_size, chunk_file)?,
                0,
            ),
            Some(codec) => {
                chunkfile::write_chunks_quantized(set, &membership, page_size, codec, chunk_file)?
            }
        };

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
                codec: codec.cloned(),
                quant_offsets,
            }),
            quantized: false,
        })
    }

    /// Opens an existing chunk index, cross-validating the two files.
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
        let header_bytes = if header.version == chunkfile::VERSION_QUANT {
            chunkfile::HEADER_BYTES_QUANT
        } else {
            chunkfile::HEADER_BYTES
        };
        page_holds_header(page_size, header_bytes)?;
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
        for (i, m) in metas.iter().enumerate() {
            let span = chunkfile::chunk_span(u64::from(m.byte_len), u64::from(page_size));
            let end = m.offset.checked_add(span).ok_or_else(|| {
                Error::Inconsistent(format!(
                    "chunk {i} at offset {} overflows the file address space",
                    m.offset
                ))
            })?;
            if end > file_len {
                return Err(Error::Inconsistent(format!(
                    "chunk {i} extends to byte {end} beyond file of {file_len} bytes"
                )));
            }
        }
        let (codec, quant_offsets) = if header.version == chunkfile::VERSION_QUANT {
            // The codec blob sits right after the header page; bound its
            // declared length by the file before allocating for it.
            let blob_len = u64::from(header.codec_blob_len);
            if blob_len > file_len.saturating_sub(u64::from(page_size)) {
                return Err(Error::Inconsistent(format!(
                    "codec parameter blob of {blob_len} bytes extends beyond file of {file_len} bytes"
                )));
            }
            chunk_reader.seek(SeekFrom::Start(u64::from(page_size)))?;
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
        } else {
            (None, Vec::new())
        };
        Ok(ChunkStore {
            inner: Arc::new(StoreInner {
                chunk_path: chunk_path.to_path_buf(),
                index_path: index_path.to_path_buf(),
                total_descriptors,
                metas,
                page_size,
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

    /// The codec of a version-3 store; `None` for raw-only files.
    pub fn codec(&self) -> Option<&Codec> {
        self.inner.codec.as_ref()
    }

    /// A handle whose readers deliver quantized codes from the v3 quant
    /// region. Every other aspect (metas, paths, page size) is shared
    /// with this handle, so chunk ids and rankings carry over unchanged.
    ///
    /// Returns [`Error::Inconsistent`] for a raw-only (v2) store.
    pub fn quantized_view(&self) -> Result<ChunkStore> {
        if self.inner.codec.is_none() {
            return Err(Error::Inconsistent(
                "store has no quantized region (format version 2)".into(),
            ));
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
    /// query should hold its own reader (separate file handle and seek
    /// position). The reader owns a store handle, so it may outlive the
    /// `ChunkStore` value it was created from.
    pub fn reader(&self) -> Result<ChunkReader> {
        Ok(ChunkReader {
            file: BufReader::new(File::open(&self.inner.chunk_path)?),
            store: self.clone(),
        })
    }
}

/// Refuses a page size smaller than the chunk-file header it must hold
/// (`header_bytes`: 24 for a v2 file, 40 for v3).
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

/// A sequential reader over a store's chunk file.
#[derive(Debug)]
pub struct ChunkReader {
    store: ChunkStore,
    file: BufReader<File>,
}

impl ChunkReader {
    /// Reads chunk `id` into `payload` (buffers reused); returns the number
    /// of bytes transferred from disk (the padded page span). A reader
    /// opened from a [quantized view](ChunkStore::quantized_view) fills
    /// `payload.codes` from the quant region — a strictly smaller span
    /// for a compressing codec — instead of `payload.packed`.
    pub fn read_chunk(&mut self, id: usize, payload: &mut ChunkPayload) -> Result<u64> {
        let inner = &self.store.inner;
        let meta = inner.metas.get(id).ok_or(Error::NoSuchChunk {
            id,
            n_chunks: inner.metas.len(),
        })?;
        if self.store.quantized {
            let codec = inner.codec.as_ref().ok_or_else(|| {
                Error::Inconsistent("quantized read on a store without a codec".into())
            })?;
            let quant_offset = inner.quant_offsets.get(id).copied().ok_or_else(|| {
                Error::Inconsistent(format!("no quant offset recorded for chunk {id}"))
            })?;
            chunkfile::read_quant_chunk_at(
                &mut self.file,
                quant_offset,
                meta.count,
                codec.code_bytes(),
                inner.page_size,
                payload,
            )
        } else {
            chunkfile::read_chunk_at(&mut self.file, meta, inner.page_size, payload)
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

    /// [`open_forged`] for a format-v3 store: only the chunk file, whose
    /// header carries the codec blob length and the quant-region start, is
    /// patched.
    fn open_forged_v3(tag: &str, forge: impl FnOnce(&mut [u8])) -> Result<ChunkStore> {
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

    #[test]
    fn every_bit_flip_in_the_chunk_file_header_is_refused() {
        let dir = tmp_dir("headerflips");
        let set = sample_set(12);
        let chunks = defs(&[&[0, 1, 2, 3], &[4, 5], &[6, 7, 8, 9, 10, 11]], &set);
        let store = ChunkStore::create(&dir, "h", &set, &chunks, 256).expect("create");
        let clean = std::fs::read(store.chunk_path()).expect("read chunk file");
        for bit in 0..chunkfile::HEADER_BYTES * 8 {
            let mut flipped = clean.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(store.chunk_path(), &flipped).expect("rewrite chunk file");
            let got = ChunkStore::open(store.chunk_path(), store.index_path());
            assert!(got.is_err(), "header bit {bit} flipped, opened: {got:?}");
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
    fn open_refuses_a_quant_start_whose_region_overflows() {
        // `quant_start` is header bytes 32..40. Adding chunk 0's span to
        // this one overflows; wrapped, the offsets point into the header.
        let got = open_forged_v3("forgedquant", |chunk| {
            chunk[32..40].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
        });
        assert!(matches!(got, Err(Error::Inconsistent(_))), "{got:?}");
    }

    #[test]
    fn open_refuses_a_codec_blob_longer_than_the_file() {
        // `codec_blob_len` is header bytes 28..32; sizing the blob buffer
        // from it reserves 4 GiB before any read can fail.
        let got = open_forged_v3("forgedblob", |chunk| {
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

        // Raw reads work exactly as on a v2 store.
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
