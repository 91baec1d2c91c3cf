//! The chunk file: descriptors grouped by chunk, page-padded.
//!
//! §4.2: descriptors of a chunk are stored together, chunks sequentially,
//! each padded to occupy full disk pages. Records use the collection's
//! 100-byte layout (id + 24 components).
//!
//! Every block — a chunk's records, or its quantized copy — is followed by
//! a 4-byte checksum inside its padded page span, so corruption is
//! detected at read time instead of being silently scanned. Every writer
//! produces format **version 4**:
//!
//! ```text
//! page 0              header (magic, version=4, page size, n_chunks,
//!                     total descriptors, codec kind, codec blob length,
//!                     quant region start); codec kind 0 means no quant
//!                     region, and then blob length and start are 0
//! pages 1..           codec parameter blob, page-padded (none if kind 0)
//! raw region          per chunk: records (count × 100 bytes) + XXH32
//!                     checksum, padded; index-file offsets point here
//! quant region        per chunk: ids (count × u32) + codes
//!                     (count × code_bytes) + XXH32 checksum, padded
//! ```
//!
//! The quant region's per-chunk offsets are derived arithmetically from
//! the chunk counts and the codec's `code_bytes`, so the index file needs
//! no fields for it. Both regions are contiguous: the raw region starts
//! right after the blob pages and the quant region right after the raw
//! region, which is what [`ChunkStore::open`](crate::ChunkStore::open)
//! checks the index and header against.
//!
//! A chunk read is one positioned read (`pread`, no seek) of the block's
//! body and checksum into the reader's reused buffer, then one check. For
//! a version-4 raw block the check *is* the decode: one pass over 400-byte
//! blocks (4 records, exactly 25 XXH32 stripes) feeds each block's stripes
//! to the hash lanes and then writes its ids and rows in place, so the
//! decode's stores run in the shadow of XXH32's multiply chains instead of
//! in a second pass over the body. A block that does not verify leaves no
//! decoded record behind. Quant-region blocks and version 2/3 blocks
//! (FNV-1a, one serial multiply per byte, nothing to overlap) are summed,
//! then decoded.
//!
//! Older files still open. Version 2 is a raw file with a 24-byte header
//! (no codec fields); version 3 is a quantized file with the 40-byte
//! header above. Both checksum their blocks with FNV-1a; otherwise their
//! layout is version 4's byte for byte, so offsets, padded spans and file
//! sizes are the same for the same chunks. Nothing writes them any more.

use crate::bytes::{array_at, u32_at, u64_at};
use crate::error::{Error, Result};
use crate::indexfile::ChunkMeta;
use eff2_descriptor::quant::{Codec, DescriptorCodec};
use eff2_descriptor::{DescriptorSet, DIM};
use std::fs::File;
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;

/// Magic bytes of a chunk file.
pub(crate) const MAGIC: [u8; 4] = *b"EFCH";
/// Format version every writer produces.
pub(crate) const VERSION: u32 = 4;
/// Legacy raw-only format, read but no longer written.
pub(crate) const VERSION_V2: u32 = 2;
/// Legacy quantized format, read but no longer written.
pub(crate) const VERSION_V3: u32 = 3;
/// Logical header size of a version 3 or 4 file (one full page is
/// reserved so the blob, or chunk 0, starts page-aligned).
pub(crate) const HEADER_BYTES: usize = 40;
/// Logical header size of a version-2 file: no codec fields.
pub(crate) const HEADER_BYTES_V2: usize = 24;
/// Bytes per descriptor record.
pub const RECORD_BYTES: usize = 4 + DIM * 4;
/// Bytes of the per-chunk checksum stored after the body.
pub(crate) const CHECKSUM_BYTES: u64 = 4;

/// Rounds `len` up to a multiple of `page_size`.
pub(crate) fn pad_to_page(len: u64, page_size: u64) -> u64 {
    assert!(page_size > 0, "page size must be positive");
    len.div_ceil(page_size) * page_size
}

/// On-disk page span of a chunk with `byte_len` bytes of records: body plus
/// trailing checksum, padded to full pages.
pub(crate) fn chunk_span(byte_len: u64, page_size: u64) -> u64 {
    pad_to_page(byte_len + CHECKSUM_BYTES, page_size)
}

/// FNV-1a: the block checksum of format versions 2 and 3, and the epoch
/// manifest's checksum. One serial multiply per byte.
pub(crate) fn checksum(body: &[u8]) -> u32 {
    let mut hash = 0x811c_9dc5u32;
    for &b in body {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

const XXH_PRIME_1: u32 = 0x9e37_79b1;
const XXH_PRIME_2: u32 = 0x85eb_ca77;
const XXH_PRIME_3: u32 = 0xc2b2_ae3d;
const XXH_PRIME_4: u32 = 0x27d4_eb2f;
const XXH_PRIME_5: u32 = 0x1656_67b1;

/// XXH32 with seed 0: the block checksum of format version 4. Four
/// independent lanes consume 16-byte stripes, so the multiplies overlap
/// instead of forming one chain. Every lane round and the finaliser are
/// bijections, so a change confined to one aligned 4-byte word — hence
/// every single-byte change — changes the sum.
pub(crate) fn xxh32(body: &[u8]) -> u32 {
    let (stripes, tail) = body.as_chunks::<16>();
    let mut state = Xxh32::SEEDED;
    for stripe in stripes {
        state.stripe(stripe);
    }
    state.finish(body.len(), tail)
}

/// XXH32's state over a body's whole 16-byte stripes: one accumulator per
/// 4-byte lane. [`xxh32`] and [`verify_decode_xxh32`] both drive it.
struct Xxh32 {
    acc: [u32; 4],
}

impl Xxh32 {
    /// The lanes as seed 0 starts them.
    const SEEDED: Xxh32 = Xxh32 {
        acc: [
            XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
            XXH_PRIME_2,
            0,
            XXH_PRIME_1.wrapping_neg(),
        ],
    };

    /// Folds the next stripe into the lanes.
    #[inline(always)]
    fn stripe(&mut self, stripe: &[u8; 16]) {
        let (lanes, _) = stripe.as_chunks::<4>();
        for (acc, lane) in self.acc.iter_mut().zip(lanes) {
            *acc = acc
                .wrapping_add(u32::from_le_bytes(*lane).wrapping_mul(XXH_PRIME_2))
                .rotate_left(13)
                .wrapping_mul(XXH_PRIME_1);
        }
    }

    /// The sum of a `len`-byte body whose whole stripes went through
    /// [`stripe`](Self::stripe); `tail` is its last `len % 16` bytes.
    fn finish(&self, len: usize, tail: &[u8]) -> u32 {
        let mut hash = if len < 16 {
            XXH_PRIME_5
        } else {
            let [a, b, c, d] = self.acc;
            a.rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18))
        };
        // The length enters modulo 2^32, as the reference defines it.
        hash = hash.wrapping_add(len as u32);
        let (words, bytes) = tail.as_chunks::<4>();
        for word in words {
            hash = hash
                .wrapping_add(u32::from_le_bytes(*word).wrapping_mul(XXH_PRIME_3))
                .rotate_left(17)
                .wrapping_mul(XXH_PRIME_4);
        }
        for &byte in bytes {
            hash = hash
                .wrapping_add(u32::from(byte).wrapping_mul(XXH_PRIME_5))
                .rotate_left(11)
                .wrapping_mul(XXH_PRIME_1);
        }
        hash ^= hash >> 15;
        hash = hash.wrapping_mul(XXH_PRIME_2);
        hash ^= hash >> 13;
        hash = hash.wrapping_mul(XXH_PRIME_3);
        hash ^ (hash >> 16)
    }
}

/// The per-block checksum algorithm, fixed by a file's format version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockSum {
    /// FNV-1a ([`checksum`]): versions 2 and 3.
    Fnv1a,
    /// XXH32, seed 0 ([`xxh32`]): version 4.
    Xxh32,
}

impl BlockSum {
    /// The algorithm of format `version`, which [`read_header`] accepted.
    pub(crate) fn of_version(version: u32) -> BlockSum {
        if version == VERSION {
            BlockSum::Xxh32
        } else {
            BlockSum::Fnv1a
        }
    }

    /// The checksum of `body`.
    pub(crate) fn of(self, body: &[u8]) -> u32 {
        match self {
            BlockSum::Fnv1a => checksum(body),
            BlockSum::Xxh32 => xxh32(body),
        }
    }
}

/// Writes one checksummed block: `body`, its XXH32 checksum, then zero
/// fill up to the next page boundary. Returns the padded span written —
/// always `chunk_span(body.len(), page_size)`.
fn write_padded_block<W: Write>(w: &mut W, body: &[u8], page_size: u32) -> Result<u64> {
    w.write_all(body)?;
    w.write_all(&xxh32(body).to_le_bytes())?;
    let padded = chunk_span(body.len() as u64, u64::from(page_size));
    let padding = padded - body.len() as u64 - CHECKSUM_BYTES;
    w.write_all(&vec![0u8; padding as usize])?;
    Ok(padded)
}

/// Per-chunk raw-region locations as `(offset, byte_len, count)` triples.
pub(crate) type ChunkLocations = Vec<(u64, u32, u32)>;

/// On-disk byte length of one chunk's quantized record block (ids plus
/// codes, before checksum and padding).
pub(crate) fn quant_byte_len(count: u32, code_bytes: usize) -> u64 {
    u64::from(count) * (4 + code_bytes as u64)
}

/// Writes a version-4 chunk file: header page, the codec blob (if any),
/// the raw region, then the quant region (if any). `chunks` gives each
/// chunk's member positions into `set`. Returns the raw
/// `(offset, byte_len, count)` triples the index file records plus the
/// quant-region start offset, 0 without a codec (the per-chunk quant
/// offsets follow arithmetically from the counts).
pub(crate) fn write_chunks<W: Write>(
    set: &DescriptorSet,
    chunks: &[Vec<u32>],
    page_size: u32,
    codec: Option<&Codec>,
    writer: W,
) -> Result<(ChunkLocations, u64)> {
    assert!(
        page_size as usize >= HEADER_BYTES,
        "page size must hold the header"
    );
    let page = u64::from(page_size);
    let blob = codec.map(Codec::to_bytes).unwrap_or_default();
    let mut w = std::io::BufWriter::new(writer);
    let total = chunks.iter().map(|c| c.len() as u64).sum::<u64>();

    // The whole layout is computable up front, so the file is written in
    // one forward pass with the quant-region start already in the header.
    let blob_pages = pad_to_page(blob.len() as u64, page);
    let raw_start = page + blob_pages;
    let raw_span = chunks
        .iter()
        .map(|c| chunk_span((c.len() * RECORD_BYTES) as u64, page))
        .sum::<u64>();
    let quant_start = codec.map_or(0, |_| raw_start + raw_span);

    let mut header = Vec::with_capacity(page_size as usize);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&page_size.to_le_bytes());
    header.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    header.extend_from_slice(&total.to_le_bytes());
    header.extend_from_slice(&codec.map_or(0, Codec::kind).to_le_bytes());
    header.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    header.extend_from_slice(&quant_start.to_le_bytes());
    header.resize(page_size as usize, 0);
    w.write_all(&header)?;
    w.write_all(&blob)?;
    w.write_all(&vec![0u8; (blob_pages - blob.len() as u64) as usize])?;

    // Raw region: every chunk's records, checksummed and padded.
    let mut locations = Vec::with_capacity(chunks.len());
    let mut offset = raw_start;
    let mut body = Vec::new();
    for members in chunks {
        body.clear();
        for &pos in members {
            let pos = pos as usize;
            body.extend_from_slice(&set.id(pos).0.to_le_bytes());
            for &c in set.vector(pos) {
                body.extend_from_slice(&c.to_le_bytes());
            }
        }
        let padded = write_padded_block(&mut w, &body, page_size)?;
        locations.push((offset, body.len() as u32, members.len() as u32));
        offset += padded;
    }

    // Quant region: ids then codes, checksummed and padded like raw chunks.
    if let Some(codec) = codec {
        let cb = codec.code_bytes();
        let mut code = vec![0u8; cb];
        for members in chunks {
            body.clear();
            for &pos in members {
                body.extend_from_slice(&set.id(pos as usize).0.to_le_bytes());
            }
            for &pos in members {
                codec.encode_into(set.vector(pos as usize), &mut code);
                body.extend_from_slice(&code);
            }
            debug_assert_eq!(body.len() as u64, quant_byte_len(members.len() as u32, cb));
            write_padded_block(&mut w, &body, page_size)?;
        }
    }
    w.flush()?;
    Ok((locations, quant_start))
}

/// Parsed header of a chunk file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChunkFileHeader {
    /// Format version ([`VERSION`], [`VERSION_V3`] or [`VERSION_V2`]).
    pub version: u32,
    /// Page size the file was written with.
    pub page_size: u32,
    /// Number of chunks.
    pub n_chunks: u32,
    /// Total descriptors across all chunks.
    pub total_descriptors: u64,
    /// Codec kind tag; 0 if and only if the file has no quant region.
    pub codec_kind: u32,
    /// Codec parameter blob length in bytes; 0 without a quant region.
    pub codec_blob_len: u32,
    /// File offset of the quantized region; 0 without a quant region.
    pub quant_start: u64,
}

impl ChunkFileHeader {
    /// Logical header size of this file's version.
    pub(crate) fn header_bytes(&self) -> usize {
        if self.version == VERSION_V2 {
            HEADER_BYTES_V2
        } else {
            HEADER_BYTES
        }
    }
}

/// Reads and validates the chunk-file header (version 2, 3 or 4). A
/// version-3 header without a codec, or a version-4 header whose codec
/// kind 0 comes with a blob length or quant start, is
/// [`Error::Inconsistent`].
pub(crate) fn read_header<R: Read>(reader: &mut R) -> Result<ChunkFileHeader> {
    let what = "chunk file header";
    let mut buf = [0u8; HEADER_BYTES_V2];
    reader
        .read_exact(&mut buf)
        .map_err(|_| Error::Truncated(what))?;
    let magic: [u8; 4] = array_at(&buf, 0, what)?;
    if magic != MAGIC {
        return Err(Error::BadMagic {
            file: "chunk file",
            found: magic,
        });
    }
    let version = u32_at(&buf, 4, what)?;
    if ![VERSION_V2, VERSION_V3, VERSION].contains(&version) {
        return Err(Error::UnsupportedVersion(version));
    }
    let mut header = ChunkFileHeader {
        version,
        page_size: u32_at(&buf, 8, what)?,
        n_chunks: u32_at(&buf, 12, what)?,
        total_descriptors: u64_at(&buf, 16, what)?,
        codec_kind: 0,
        codec_blob_len: 0,
        quant_start: 0,
    };
    if version == VERSION_V2 {
        return Ok(header);
    }
    let mut ext = [0u8; HEADER_BYTES - HEADER_BYTES_V2];
    reader
        .read_exact(&mut ext)
        .map_err(|_| Error::Truncated(what))?;
    header.codec_kind = u32_at(&ext, 0, what)?;
    header.codec_blob_len = u32_at(&ext, 4, what)?;
    header.quant_start = u64_at(&ext, 8, what)?;
    if header.codec_kind == 0 && version == VERSION_V3 {
        return Err(Error::Inconsistent(
            "format version 3 without a codec".into(),
        ));
    }
    if header.codec_kind == 0 && (header.codec_blob_len != 0 || header.quant_start != 0) {
        return Err(Error::Inconsistent(format!(
            "no codec, but a codec blob of {} bytes and a quant region at byte {}",
            header.codec_blob_len, header.quant_start
        )));
    }
    Ok(header)
}

/// Decoded contents of one chunk.
///
/// A payload carries either raw rows (`packed`, from the raw region) or
/// quantized rows (`codes`, from a v3 file's quant region), never both —
/// which one is filled depends on the read mode of the store the chunk
/// came through.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChunkPayload {
    /// Descriptor identifiers, in storage order.
    pub ids: Vec<u32>,
    /// Packed vector components (`ids.len() * DIM` floats, row-major);
    /// empty for quantized reads.
    pub packed: Vec<f32>,
    /// Packed codec codes (`ids.len() * code_bytes` bytes, row-major);
    /// empty for raw reads.
    pub codes: Vec<u8>,
}

impl ChunkPayload {
    /// Number of descriptors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Clears without releasing capacity (buffer reuse across chunks).
    pub fn clear(&mut self) {
        self.ids.clear();
        self.packed.clear();
        self.codes.clear();
    }
}

/// A file read at an absolute offset, leaving no seek position behind: the
/// chunk file's `pread`, so one read is one system call.
pub(crate) trait ReadAt {
    /// Fills `buf` from the bytes at `offset`, or fails.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()>;
}

impl ReadAt for File {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        FileExt::read_exact_at(self, buf, offset)
    }
}

/// Reads the checksummed block at `offset` — `byte_len` body bytes and the
/// checksum after them, not the page padding — into `buf`, which the
/// caller reuses across reads, in one positioned read. A short read is
/// [`Error::Truncated`] as `what`.
fn read_block<R: ReadAt>(
    reader: &R,
    buf: &mut Vec<u8>,
    offset: u64,
    byte_len: u64,
    what: &'static str,
) -> Result<()> {
    // Every byte of the resized buffer is overwritten by the read, or the
    // read fails: nothing of an earlier chunk survives into this one.
    buf.resize((byte_len + CHECKSUM_BYTES) as usize, 0);
    reader
        .read_exact_at(buf, offset)
        .map_err(|_| Error::Truncated(what))
}

/// Splits a block into its body and the checksum stored after it.
fn split_block<'a>(block: &'a [u8], what: &'static str) -> Result<(&'a [u8], u32)> {
    let (body, stored) = block
        .split_last_chunk::<4>()
        .ok_or(Error::Truncated(what))?;
    Ok((body, u32::from_le_bytes(*stored)))
}

/// The error a block at `offset` whose stored sum is `expected` gets when
/// its body sums to `found`, if they differ.
fn verify(what: &'static str, offset: u64, expected: u32, found: u32) -> Result<()> {
    if expected != found {
        return Err(Error::Corrupt {
            what,
            offset,
            expected,
            found,
        });
    }
    Ok(())
}

/// Reads one chunk (located by its index entry) from a chunk file into
/// `payload`, reusing its buffers and `buf` and verifying the stored
/// checksum with `sum`, the algorithm of the file's version.
pub(crate) fn read_chunk_at<R: ReadAt>(
    reader: &R,
    buf: &mut Vec<u8>,
    meta: &ChunkMeta,
    sum: BlockSum,
    payload: &mut ChunkPayload,
) -> Result<()> {
    payload.clear();
    let byte_len = u64::from(meta.byte_len);
    read_block(reader, buf, meta.offset, byte_len, "chunk body")?;
    verify_decode_records(buf, meta.offset, meta.count, sum, payload)
}

/// Verifies a raw-region block read at `offset` — `count` records, then
/// the stored checksum — with `sum` and decodes the records into `payload`
/// (cleared first). A checksum mismatch is [`Error::Corrupt`] and leaves
/// `payload` empty; a body of the wrong length for `count` is
/// [`Error::Inconsistent`] once its sum verifies. A version-4 body is
/// summed and decoded in one pass ([`verify_decode_xxh32`]).
pub(crate) fn verify_decode_records(
    block: &[u8],
    offset: u64,
    count: u32,
    sum: BlockSum,
    payload: &mut ChunkPayload,
) -> Result<()> {
    const WHAT: &str = "chunk body";
    payload.clear();
    let (body, expected) = split_block(block, WHAT)?;
    if sum == BlockSum::Xxh32 && body.len() == count as usize * RECORD_BYTES {
        let found = verify_decode_xxh32(body, payload);
        if expected != found {
            payload.clear();
        }
        return verify(WHAT, offset, expected, found);
    }
    verify(WHAT, offset, expected, sum.of(body))?;
    decode_records(body, count, payload)
}

/// Records per block of the one-pass check: 4 × 100 bytes is 25 whole
/// XXH32 stripes, so every block starts on a stripe.
const RECORDS_PER_BLOCK: usize = 4;
const BLOCK_BYTES: usize = RECORDS_PER_BLOCK * RECORD_BYTES;
const _: () = assert!(BLOCK_BYTES.is_multiple_of(16));

/// XXH32 of `body`, a whole number of records, and the records decoded into
/// `payload` (cleared) in the same pass: each 400-byte block feeds its 25
/// stripes to the lanes and then writes its 4 ids and rows in place, so the
/// decode's loads and stores run alongside the lanes' multiply chains
/// instead of in a second pass over the body. Returns the sum; the caller
/// discards the payload if it does not verify.
fn verify_decode_xxh32(body: &[u8], payload: &mut ChunkPayload) -> u32 {
    let n = body.len() / RECORD_BYTES;
    payload.ids.resize(n, 0);
    payload.packed.resize(n * DIM, 0.0);
    let (rows, _) = payload.packed.as_chunks_mut::<DIM>();
    let (blocks, rest) = body.as_chunks::<BLOCK_BYTES>();
    let (id_blocks, id_rest) = payload.ids.as_chunks_mut::<RECORDS_PER_BLOCK>();
    let (row_blocks, row_rest) = rows.as_chunks_mut::<RECORDS_PER_BLOCK>();
    let mut state = Xxh32::SEEDED;
    for ((block, ids), rows) in blocks.iter().zip(id_blocks).zip(row_blocks) {
        let (stripes, _) = block.as_chunks::<16>();
        for stripe in stripes {
            state.stripe(stripe);
        }
        decode_into(block, ids, rows);
    }
    let (stripes, tail) = rest.as_chunks::<16>();
    for stripe in stripes {
        state.stripe(stripe);
    }
    decode_into(rest, id_rest, row_rest);
    state.finish(body.len(), tail)
}

/// Decodes the whole records of `raw` into `ids` and `rows`, one each per
/// record: the record decoder of every raw-region read. A record is `1 +
/// DIM` little-endian words: the id, then the components.
#[inline(always)]
fn decode_into(raw: &[u8], ids: &mut [u32], rows: &mut [[f32; DIM]]) {
    let (words, _) = raw.as_chunks::<4>();
    let (records, _) = words.as_chunks::<{ 1 + DIM }>();
    for (([id, components @ ..], out_id), row) in records.iter().zip(ids).zip(rows) {
        *out_id = u32::from_le_bytes(*id);
        // A whole row built, then stored: the compiler cannot prove a
        // component store misses the record it reads from, so a store per
        // component would stay scalar.
        *row = components.map(f32::from_le_bytes);
    }
}

/// Reads one chunk's quantized records from the quant region into
/// `payload` (ids + codes; `packed` stays empty), reusing `buf` and
/// verifying the stored checksum with `sum`.
pub(crate) fn read_quant_chunk_at<R: ReadAt>(
    reader: &R,
    buf: &mut Vec<u8>,
    quant_offset: u64,
    count: u32,
    code_bytes: usize,
    sum: BlockSum,
    payload: &mut ChunkPayload,
) -> Result<()> {
    payload.clear();
    let byte_len = quant_byte_len(count, code_bytes);
    let what = "quantized chunk body";
    read_block(reader, buf, quant_offset, byte_len, what)?;
    let (body, expected) = split_block(buf, what)?;
    verify(what, quant_offset, expected, sum.of(body))?;
    decode_quant_records(body, count, code_bytes, payload)
}

/// Decodes `count` records from `raw` into `payload`, after what it holds:
/// one length check, then one pass over fixed-size records.
pub fn decode_records(raw: &[u8], count: u32, payload: &mut ChunkPayload) -> Result<()> {
    if raw.len() != count as usize * RECORD_BYTES {
        return Err(Error::Inconsistent(format!(
            "chunk body of {} bytes cannot hold {} records",
            raw.len(),
            count
        )));
    }
    let (ids_at, packed_at) = (payload.ids.len(), payload.packed.len());
    payload.ids.resize(ids_at + count as usize, 0);
    payload.packed.resize(packed_at + count as usize * DIM, 0.0);
    let (_, ids) = payload.ids.split_at_mut(ids_at);
    let (_, packed) = payload.packed.split_at_mut(packed_at);
    decode_into(raw, ids, packed.as_chunks_mut::<DIM>().0);
    Ok(())
}

/// Decodes a quant-region body of `count` records — `count` ids, then
/// `count × code_bytes` code bytes — into `payload`: one length check, then
/// one pass over the ids and one copy of the codes.
pub(crate) fn decode_quant_records(
    body: &[u8],
    count: u32,
    code_bytes: usize,
    payload: &mut ChunkPayload,
) -> Result<()> {
    let ids_bytes = count as usize * 4;
    let (ids, codes) = body
        .split_at_checked(ids_bytes)
        .filter(|(_, codes)| codes.len() == count as usize * code_bytes)
        .ok_or_else(|| {
            Error::Inconsistent(format!(
                "quantized chunk body of {} bytes cannot hold {count} records of {code_bytes} code bytes",
                body.len()
            ))
        })?;
    let (ids, _) = ids.as_chunks::<4>();
    payload
        .ids
        .extend(ids.iter().map(|id| u32::from_le_bytes(*id)));
    payload.codes.extend_from_slice(codes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::{Descriptor, Vector};
    use std::io::Cursor;

    /// In-memory bytes as a positioned-read source: a read past the end is
    /// short, as on a truncated file.
    impl<T: AsRef<[u8]>> ReadAt for Cursor<T> {
        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
            let bytes = self.get_ref().as_ref();
            let src = usize::try_from(offset)
                .ok()
                .and_then(|at| bytes.get(at..at.checked_add(buf.len())?))
                .ok_or(std::io::ErrorKind::UnexpectedEof)?;
            buf.copy_from_slice(src);
            Ok(())
        }
    }

    fn sample_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| Descriptor::new(i as u32 * 3, Vector::splat(i as f32 * 0.25)))
            .collect()
    }

    #[test]
    fn pad_rounds_up() {
        assert_eq!(pad_to_page(0, 4096), 0);
        assert_eq!(pad_to_page(1, 4096), 4096);
        assert_eq!(pad_to_page(4096, 4096), 4096);
        assert_eq!(pad_to_page(4097, 4096), 8192);
    }

    /// The index entry of a `(offset, byte_len, count)` location.
    fn meta_at(&(offset, byte_len, count): &(u64, u32, u32)) -> ChunkMeta {
        ChunkMeta {
            centroid: Vector::ZERO,
            radius: 0.0,
            offset,
            byte_len,
            count,
        }
    }

    /// Writes a raw (no codec) file into memory.
    fn write_raw(set: &DescriptorSet, chunks: &[Vec<u32>], page: u32) -> (Vec<u8>, ChunkLocations) {
        let mut buf = Vec::new();
        let (locs, quant_start) = write_chunks(set, chunks, page, None, &mut buf).expect("write");
        assert_eq!(quant_start, 0, "a raw file has no quant region");
        (buf, locs)
    }

    #[test]
    fn chunks_are_page_aligned_and_roundtrip() {
        let set = sample_set(10);
        let chunks = vec![vec![0u32, 1, 2], vec![3, 4, 5, 6], vec![7, 8, 9]];
        let page = 512u32;
        let (buf, locs) = write_raw(&set, &chunks, page);
        assert_eq!(locs.len(), 3);
        for (off, _, _) in &locs {
            assert_eq!(off % u64::from(page), 0, "chunk must start on a page");
        }
        // Read back each chunk and compare ids/vectors.
        let mut cursor = Cursor::new(&buf);
        let header = read_header(&mut cursor).expect("header");
        assert_eq!(header.version, VERSION);
        assert_eq!(header.n_chunks, 3);
        assert_eq!(header.total_descriptors, 10);
        assert_eq!(header.page_size, page);
        assert_eq!(header.codec_kind, 0);
        let mut payload = ChunkPayload::default();
        for (ci, loc) in locs.iter().enumerate() {
            read_chunk_at(
                &cursor,
                &mut Vec::new(),
                &meta_at(loc),
                BlockSum::Xxh32,
                &mut payload,
            )
            .expect("read");
            assert_eq!(payload.len(), chunks[ci].len());
            for (k, &pos) in chunks[ci].iter().enumerate() {
                assert_eq!(payload.ids[k], set.id(pos as usize).0);
                assert_eq!(
                    &payload.packed[k * DIM..(k + 1) * DIM],
                    set.vector(pos as usize)
                );
            }
        }
    }

    #[test]
    fn empty_chunk_list() {
        let set = sample_set(1);
        let (buf, locs) = write_raw(&set, &[], 256);
        assert!(locs.is_empty());
        let mut cursor = Cursor::new(&buf);
        let header = read_header(&mut cursor).expect("header");
        assert_eq!(header.n_chunks, 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = vec![0u8; 64];
        buf[0..4].copy_from_slice(b"XXXX");
        assert!(matches!(
            read_header(&mut Cursor::new(&buf)),
            Err(Error::BadMagic {
                file: "chunk file",
                ..
            })
        ));
    }

    #[test]
    fn truncated_chunk_detected() {
        let set = sample_set(4);
        let chunks = vec![vec![0u32, 1, 2, 3]];
        let (buf, locs) = write_raw(&set, &chunks, 256);
        let meta = meta_at(&locs[0]);
        // The reader reads the body and the checksum, not the padding
        // (a store refuses a file too short for its padded spans at open):
        // cutting only padding leaves a whole, checksummed chunk.
        let checksum_end = (meta.offset + u64::from(meta.byte_len) + CHECKSUM_BYTES) as usize;
        let mut payload = ChunkPayload::default();
        let padding_cut = &buf[..checksum_end];
        read_chunk_at(
            &Cursor::new(padding_cut),
            &mut Vec::new(),
            &meta,
            BlockSum::Xxh32,
            &mut payload,
        )
        .expect("body and checksum are intact");
        // One byte of the checksum or the body missing is a short read.
        for end in [checksum_end - 1, checksum_end - 100] {
            assert!(matches!(
                read_chunk_at(
                    &Cursor::new(&buf[..end]),
                    &mut Vec::new(),
                    &meta,
                    BlockSum::Xxh32,
                    &mut payload
                ),
                Err(Error::Truncated(_))
            ));
        }
    }

    #[test]
    fn corrupted_chunk_detected_not_scanned() {
        let set = sample_set(6);
        let chunks = vec![vec![0u32, 1, 2], vec![3, 4, 5]];
        let (mut buf, locs) = write_raw(&set, &chunks, 256);
        // Flip one byte in the middle of chunk 1's record block.
        let hit = locs[1].0 as usize + locs[1].1 as usize / 2;
        buf[hit] ^= 0x40;
        let mut payload = ChunkPayload::default();
        let mut read = |loc| {
            read_chunk_at(
                &Cursor::new(&buf),
                &mut Vec::new(),
                &meta_at(loc),
                BlockSum::Xxh32,
                &mut payload,
            )
        };
        // Chunk 0 still reads clean.
        read(&locs[0]).expect("clean chunk");
        // Chunk 1 is detected as corrupt, with the damage located and named.
        match read(&locs[1]) {
            Err(Error::Corrupt {
                what,
                offset,
                expected,
                found,
            }) => {
                assert_eq!(what, "chunk body");
                assert_eq!(offset, locs[1].0);
                assert_ne!(expected, found);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn checksum_is_fnv1a() {
        assert_eq!(checksum(&[]), 0x811c_9dc5);
        // Single-byte sensitivity: any flipped byte changes the sum.
        let base = checksum(b"chunk body bytes");
        assert_ne!(base, checksum(b"chunk bodY bytes"));
    }

    #[test]
    fn body_checksum_is_xxh32() {
        // The published XXH32 seed-0 vectors. The last input is 39 bytes:
        // two 16-byte stripes, then a tail of one word and three bytes.
        assert_eq!(xxh32(b""), 0x02cc_5d05);
        assert_eq!(xxh32(b"a"), 0x550d_7456);
        assert_eq!(xxh32(b"abc"), 0x32d1_53ff);
        assert_eq!(
            xxh32(b"Nobody inspects the spammish repetition"),
            0xe229_3b2f
        );
        // Version 4 sums blocks with XXH32, versions 2 and 3 with FNV-1a.
        let body = b"chunk body bytes";
        assert_eq!(BlockSum::of_version(VERSION).of(body), xxh32(body));
        for legacy in [VERSION_V2, VERSION_V3] {
            assert_eq!(BlockSum::of_version(legacy).of(body), checksum(body));
        }
    }

    #[test]
    fn chunk_span_reserves_checksum_room() {
        // An exactly page-filling body needs one more page for its checksum.
        assert_eq!(chunk_span(512, 512), 1024);
        assert_eq!(chunk_span(500, 512), 512);
        assert_eq!(chunk_span(0, 512), 512);
    }

    /// The raw region of a quantized file (the version-3 layout) is the
    /// raw file's (the version-2 layout), shifted by the codec pages.
    #[test]
    fn v3_raw_region_is_bit_identical_to_v2() {
        use eff2_descriptor::Sq8Codec;
        let set = sample_set(12);
        let chunks = vec![vec![0u32, 1, 2, 3], vec![4, 5], vec![6, 7, 8, 9, 10, 11]];
        let page = 512u32;
        let (raw, raw_locs) = write_raw(&set, &chunks, page);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let mut quant = Vec::new();
        let (quant_locs, quant_start) =
            write_chunks(&set, &chunks, page, Some(&codec), &mut quant).expect("quantized");
        assert_eq!(raw_locs.len(), quant_locs.len());
        // Same byte_len/count per chunk; offsets shifted by the codec pages.
        let shift = quant_locs[0].0 - raw_locs[0].0;
        assert_eq!(
            shift,
            pad_to_page(codec.to_bytes().len() as u64, u64::from(page))
        );
        for (a, b) in raw_locs.iter().zip(quant_locs.iter()) {
            assert_eq!(a.0 + shift, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2, b.2);
        }
        // The raw regions are byte-for-byte identical.
        let raw_region = &raw[raw_locs[0].0 as usize..];
        let quant_raw_region = &quant[quant_locs[0].0 as usize..quant_start as usize];
        assert_eq!(raw_region, quant_raw_region);
        // And each raw chunk reads back through the ordinary raw path.
        let mut cursor = Cursor::new(&quant);
        let header = read_header(&mut cursor).expect("header");
        assert_eq!(header.version, VERSION);
        assert_eq!(header.n_chunks, 3);
        assert_eq!(header.quant_start, quant_start);
        let mut payload = ChunkPayload::default();
        for (ci, loc) in quant_locs.iter().enumerate() {
            read_chunk_at(
                &cursor,
                &mut Vec::new(),
                &meta_at(loc),
                BlockSum::Xxh32,
                &mut payload,
            )
            .expect("raw read");
            assert_eq!(payload.len(), chunks[ci].len());
            assert!(payload.codes.is_empty());
        }
    }

    #[test]
    fn v3_quant_region_roundtrips_codes() {
        use eff2_descriptor::{DescriptorCodec, Sq8Codec};
        let set = sample_set(10);
        let chunks = vec![vec![0u32, 1, 2], vec![3, 4, 5, 6], vec![7, 8, 9]];
        let page = 512u32;
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let cb = codec.code_bytes();
        let mut buf = Vec::new();
        let (_locs, quant_start) =
            write_chunks(&set, &chunks, page, Some(&codec), &mut buf).expect("write");
        let cursor = Cursor::new(&buf);
        let mut payload = ChunkPayload::default();
        let mut offset = quant_start;
        let mut expect_code = vec![0u8; cb];
        for members in &chunks {
            let count = members.len() as u32;
            read_quant_chunk_at(
                &cursor,
                &mut Vec::new(),
                offset,
                count,
                cb,
                BlockSum::Xxh32,
                &mut payload,
            )
            .expect("quant read");
            assert!(payload.packed.is_empty());
            assert_eq!(payload.ids.len(), members.len());
            assert_eq!(payload.codes.len(), members.len() * cb);
            for (k, &pos) in members.iter().enumerate() {
                assert_eq!(payload.ids[k], set.id(pos as usize).0);
                codec.encode_into(set.vector(pos as usize), &mut expect_code);
                assert_eq!(&payload.codes[k * cb..(k + 1) * cb], &expect_code[..]);
            }
            offset += chunk_span(quant_byte_len(count, cb), u64::from(page));
        }
        assert_eq!(offset, buf.len() as u64, "the quant region ends the file");
    }

    #[test]
    fn quant_corruption_detected() {
        use eff2_descriptor::{DescriptorCodec, Sq8Codec};
        let set = sample_set(8);
        let chunks = vec![vec![0u32, 1, 2, 3, 4, 5, 6, 7]];
        let page = 256u32;
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let mut buf = Vec::new();
        let (_, quant_start) =
            write_chunks(&set, &chunks, page, Some(&codec), &mut buf).expect("write");
        buf[quant_start as usize + 10] ^= 0x80;
        let mut payload = ChunkPayload::default();
        assert!(matches!(
            read_quant_chunk_at(
                &Cursor::new(&buf),
                &mut Vec::new(),
                quant_start,
                8,
                codec.code_bytes(),
                BlockSum::Xxh32,
                &mut payload
            ),
            Err(Error::Corrupt {
                what: "quantized chunk body",
                ..
            })
        ));
    }

    #[test]
    fn unknown_version_rejected() {
        let set = sample_set(2);
        let (mut buf, _) = write_raw(&set, &[vec![0, 1]], 256);
        buf[4] = 9; // stamp a bogus version
        assert!(matches!(
            read_header(&mut Cursor::new(&buf)),
            Err(Error::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn decode_rejects_wrong_count() {
        let raw = vec![0u8; RECORD_BYTES * 2];
        let mut payload = ChunkPayload::default();
        assert!(matches!(
            decode_records(&raw, 3, &mut payload),
            Err(Error::Inconsistent(_))
        ));
    }

    /// The per-field decoder [`decode_records`] replaced, kept as the
    /// reference the bulk pass must match bit for bit.
    fn decode_records_scalar(raw: &[u8], count: u32, payload: &mut ChunkPayload) -> Result<()> {
        use crate::bytes::f32_at;
        if raw.len() != count as usize * RECORD_BYTES {
            return Err(Error::Inconsistent(format!(
                "chunk body of {} bytes cannot hold {} records",
                raw.len(),
                count
            )));
        }
        for rec in raw.chunks_exact(RECORD_BYTES) {
            payload.ids.push(u32_at(rec, 0, "chunk record")?);
            for d in 0..DIM {
                payload.packed.push(f32_at(rec, 4 + d * 4, "chunk record")?);
            }
        }
        Ok(())
    }

    /// The per-field quant-region decoder [`decode_quant_records`]
    /// replaced, kept as its reference.
    fn decode_quant_records_scalar(
        body: &[u8],
        count: u32,
        code_bytes: usize,
        payload: &mut ChunkPayload,
    ) -> Result<()> {
        if body.len() as u64 != quant_byte_len(count, code_bytes) {
            return Err(Error::Inconsistent(format!(
                "quantized chunk body of {} bytes cannot hold {count} records of {code_bytes} code bytes",
                body.len()
            )));
        }
        let (id_region, code_region) = body.split_at(count as usize * 4);
        for rec in id_region.chunks_exact(4) {
            payload.ids.push(u32_at(rec, 0, "quantized chunk record")?);
        }
        payload.codes.extend_from_slice(code_region);
        Ok(())
    }

    /// Bit patterns a decoder must carry through unchanged: quiet and
    /// signalling NaNs of both signs, ±0.0, ±inf, and the smallest and
    /// largest subnormals of both signs.
    const SPECIAL_BITS: [u32; 12] = [
        0x7fc0_0000,
        0x7f80_0001,
        0xffc0_0001,
        0xff80_0001,
        0x0000_0000,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x0000_0001,
        0x8000_0001,
        0x007f_ffff,
        0x807f_ffff,
    ];

    /// A little-endian word: a special pattern about a third of the time,
    /// otherwise random bits.
    fn arb_word() -> impl proptest::prelude::Strategy<Value = u32> {
        use proptest::prelude::*;
        (0usize..36, 0u32..u32::MAX)
            .prop_map(|(pick, random)| SPECIAL_BITS.get(pick).copied().unwrap_or(random))
    }

    fn le_bytes(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn bits(payload: &ChunkPayload) -> (Vec<u32>, Vec<u32>, Vec<u8>) {
        let packed = payload.packed.iter().map(|f| f.to_bits()).collect();
        (payload.ids.clone(), packed, payload.codes.clone())
    }

    /// The `Inconsistent` message, or `None` for success or another error.
    fn inconsistent(got: Result<()>) -> Option<String> {
        match got {
            Err(Error::Inconsistent(why)) => Some(why),
            _ => None,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn bulk_record_decode_matches_the_scalar_reference(
            count in 0u32..40,
            words in proptest::collection::vec(arb_word(), 42 * (1 + DIM)),
            skew in 1usize..2 * RECORD_BYTES,
        ) {
            let raw = le_bytes(&words[..count as usize * (1 + DIM)]);
            let (mut bulk, mut scalar) = (ChunkPayload::default(), ChunkPayload::default());
            proptest::prop_assert!(decode_records(&raw, count, &mut bulk).is_ok());
            proptest::prop_assert!(decode_records_scalar(&raw, count, &mut scalar).is_ok());
            proptest::prop_assert_eq!(bits(&bulk), bits(&scalar));
            proptest::prop_assert_eq!(bulk.len(), count as usize);

            // Every wrong body length is the same `Inconsistent`.
            let longer = le_bytes(&words[..(count as usize + 2) * (1 + DIM)]);
            let mut wrong: Vec<(&[u8], u32)> =
                vec![(&raw, count + 1), (&longer[..raw.len() + skew], count)];
            if let Some(shorter) = raw.len().checked_sub(skew) {
                wrong.push((&raw[..shorter], count));
            }
            for (body, claimed) in wrong {
                let a = inconsistent(decode_records(body, claimed, &mut ChunkPayload::default()));
                let b = inconsistent(decode_records_scalar(body, claimed, &mut ChunkPayload::default()));
                proptest::prop_assert!(a.is_some(), "{} bytes as {claimed} records decoded", body.len());
                proptest::prop_assert_eq!(a, b);
            }
        }

        #[test]
        fn bulk_quant_decode_matches_the_scalar_reference(
            count in 0u32..40,
            code_bytes in 1usize..40,
            words in proptest::collection::vec(arb_word(), 40 * 11),
            skew in 1usize..80,
        ) {
            let bytes = le_bytes(&words);
            let len = quant_byte_len(count, code_bytes) as usize;
            let body = &bytes[..len];
            let (mut bulk, mut scalar) = (ChunkPayload::default(), ChunkPayload::default());
            proptest::prop_assert!(decode_quant_records(body, count, code_bytes, &mut bulk).is_ok());
            proptest::prop_assert!(
                decode_quant_records_scalar(body, count, code_bytes, &mut scalar).is_ok()
            );
            proptest::prop_assert_eq!(bits(&bulk), bits(&scalar));
            proptest::prop_assert_eq!(bulk.len(), count as usize);

            let mut wrong: Vec<(&[u8], u32)> = vec![(body, count + 1), (&bytes[..len + skew], count)];
            if let Some(shorter) = len.checked_sub(skew) {
                wrong.push((&bytes[..shorter], count));
            }
            for (body, claimed) in wrong {
                let mut sink = ChunkPayload::default();
                let a = inconsistent(decode_quant_records(body, claimed, code_bytes, &mut sink));
                let b = inconsistent(decode_quant_records_scalar(body, claimed, code_bytes, &mut sink));
                proptest::prop_assert!(a.is_some(), "{} bytes as {claimed} records decoded", body.len());
                proptest::prop_assert_eq!(a, b);
            }
        }

        #[test]
        fn every_single_byte_change_changes_the_v4_sum(
            len in 1usize..20_001,
            words in proptest::collection::vec(0u32..u32::MAX, 5_000),
            at in 0usize..20_000,
            delta in 1u32..256,
        ) {
            let mut body = le_bytes(&words);
            body.resize(len, 0xa5);
            let at = at % len;
            let sum = BlockSum::Xxh32.of(&body);
            body[at] ^= delta as u8;
            proptest::prop_assert!(sum != BlockSum::Xxh32.of(&body), "byte {at} of {len} ^= {delta}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The one-pass check of a version-4 raw block is XXH32 followed by
        /// [`decode_records`]: the same sum, the same payload bit for bit,
        /// and for every single-byte flip of the block the same
        /// `Corrupt` error with nothing decoded left behind.
        #[test]
        fn one_pass_verify_decode_equals_sum_then_decode(
            count in 0u32..42,
            words in proptest::collection::vec(arb_word(), 41 * (1 + DIM)),
            offset in 0u64..1 << 40,
            delta in 1u32..256,
        ) {
            let body = le_bytes(&words[..count as usize * (1 + DIM)]);
            let mut want = ChunkPayload::default();
            proptest::prop_assert!(decode_records(&body, count, &mut want).is_ok());
            let mut fused = ChunkPayload::default();
            proptest::prop_assert_eq!(verify_decode_xxh32(&body, &mut fused), xxh32(&body));
            proptest::prop_assert_eq!(bits(&fused), bits(&want));

            for sum in [BlockSum::Xxh32, BlockSum::Fnv1a] {
                let mut block = body.clone();
                block.extend_from_slice(&sum.of(&body).to_le_bytes());
                let mut payload = ChunkPayload::default();
                proptest::prop_assert!(verify_decode_records(&block, offset, count, sum, &mut payload).is_ok());
                proptest::prop_assert_eq!(bits(&payload), bits(&want));
                for at in 0..block.len() {
                    block[at] ^= delta as u8;
                    let (flipped, stored) = block.split_last_chunk::<4>().expect("a sum");
                    let (expected, found) = (u32::from_le_bytes(*stored), sum.of(flipped));
                    match verify_decode_records(&block, offset, count, sum, &mut payload) {
                        Err(Error::Corrupt { what: "chunk body", offset: o, expected: e, found: f }) => {
                            proptest::prop_assert_eq!((o, e, f), (offset, expected, found), "byte {}", at);
                        }
                        other => proptest::prop_assert!(false, "byte {at}: {other:?}"),
                    }
                    proptest::prop_assert_eq!(&payload, &ChunkPayload::default(), "byte {}", at);
                    block[at] ^= delta as u8;
                }
            }
        }
    }

    #[test]
    fn payload_clear_keeps_capacity() {
        let mut p = ChunkPayload {
            ids: Vec::with_capacity(100),
            packed: Vec::with_capacity(100 * DIM),
            codes: Vec::new(),
        };
        p.ids.push(1);
        p.packed.extend(std::iter::repeat_n(0.0, DIM));
        let cap = p.ids.capacity();
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.ids.capacity(), cap);
    }
}
