//! The index file: one fixed-width entry per chunk.
//!
//! §4.2: *"Each entry of the index stores the coordinates of the centroid
//! of each chunk and the radius of the chunk, as well as its location in
//! the chunk file. The order of the entries in the index is identical to
//! the order of the chunks in the chunk file."* The radius is stored
//! because the to-completion stop rule needs the lower bound
//! `d(q, centroid) − radius` ("computing this minimum distance is the
//! rationale for storing the radii of chunks together with their
//! centroids", §4.3).
//!
//! Layout:
//!
//! ```text
//! [0..4)   magic  b"EFIX"
//! [4..8)   version u32 le
//! [8..12)  n_chunks u32 le
//! [12..16) page_size u32 le
//! [16..)   n_chunks × entry
//! entry: centroid 24 × f32 le | radius f32 le | offset u64 le
//!        | byte_len u32 le | count u32 le          (116 bytes)
//! ```

use crate::bytes::{array_at, f32_at, u32_at, u64_at};
use crate::error::{Error, Result};
use eff2_descriptor::{Vector, DIM};
use std::io::{BufReader, BufWriter, Read, Write};

/// Magic bytes of an index file.
pub(crate) const MAGIC: [u8; 4] = *b"EFIX";
/// Current format version.
pub(crate) const VERSION: u32 = 1;
/// Bytes per index entry.
pub(crate) const ENTRY_BYTES: usize = DIM * 4 + 4 + 8 + 4 + 4;
/// Header size in bytes.
pub(crate) const HEADER_BYTES: usize = 16;

/// The index-file entry for one chunk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkMeta {
    /// Centroid of the chunk's descriptors.
    pub centroid: Vector,
    /// Minimum bounding radius of the chunk around its centroid.
    pub radius: f32,
    /// Byte offset of the chunk in the chunk file (page aligned).
    pub offset: u64,
    /// Length in bytes of the chunk's record area (before padding).
    pub byte_len: u32,
    /// Number of descriptors in the chunk.
    pub count: u32,
}

/// Writes the index file for `metas` (ordered as the chunk file).
pub fn write_index<W: Write>(metas: &[ChunkMeta], page_size: u32, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(metas.len() as u32).to_le_bytes())?;
    w.write_all(&page_size.to_le_bytes())?;
    for m in metas {
        for &c in m.centroid.as_slice() {
            w.write_all(&c.to_le_bytes())?;
        }
        w.write_all(&m.radius.to_le_bytes())?;
        w.write_all(&m.offset.to_le_bytes())?;
        w.write_all(&m.byte_len.to_le_bytes())?;
        w.write_all(&m.count.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads an index file, returning the entries and the page size.
pub fn read_index<R: Read>(reader: R) -> Result<(Vec<ChunkMeta>, u32)> {
    let mut r = BufReader::new(reader);
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)
        .map_err(|_| Error::Truncated("index header"))?;
    let what = "index header";
    let magic: [u8; 4] = array_at(&header, 0, what)?;
    if magic != MAGIC {
        return Err(Error::BadMagic {
            file: "index file",
            found: magic,
        });
    }
    let version = u32_at(&header, 4, what)?;
    if version != VERSION {
        return Err(Error::UnsupportedVersion(version));
    }
    let n = u32_at(&header, 8, what)? as usize;
    let page_size = u32_at(&header, 12, what)?;

    // `n` comes from the file: the vector grows as entries actually arrive,
    // so a forged count ends in `Truncated`, never in a huge allocation.
    let mut metas = Vec::new();
    let mut buf = vec![0u8; ENTRY_BYTES];
    for _ in 0..n {
        r.read_exact(&mut buf)
            .map_err(|_| Error::Truncated("index entries"))?;
        let what = "index entry";
        let mut components = [0f32; DIM];
        for (d, slot) in components.iter_mut().enumerate() {
            *slot = f32_at(&buf, d * 4, what)?;
        }
        let centroid = Vector::from_slice(&components);
        let at = DIM * 4;
        let radius = f32_at(&buf, at, what)?;
        let offset = u64_at(&buf, at + 4, what)?;
        let byte_len = u32_at(&buf, at + 12, what)?;
        let count = u32_at(&buf, at + 16, what)?;
        metas.push(ChunkMeta {
            centroid,
            radius,
            offset,
            byte_len,
            count,
        });
    }
    Ok((metas, page_size))
}

/// Total size in bytes of an index file holding `n` entries — the quantity
/// the cost model charges when the search "reads the chunk index"
/// (≈50 ms in the paper's measurements).
pub(crate) fn index_file_bytes(n: usize) -> u64 {
    HEADER_BYTES as u64 + (n as u64) * ENTRY_BYTES as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(i: u32) -> ChunkMeta {
        ChunkMeta {
            centroid: Vector::splat(i as f32),
            radius: i as f32 * 0.5,
            offset: u64::from(i) * 8192,
            byte_len: 100 * (i + 1),
            count: i + 1,
        }
    }

    #[test]
    fn roundtrip() {
        let metas: Vec<ChunkMeta> = (0..5).map(meta).collect();
        let mut buf = Vec::new();
        write_index(&metas, 8192, &mut buf).expect("write");
        assert_eq!(buf.len() as u64, index_file_bytes(5));
        let (back, page) = read_index(&buf[..]).expect("read");
        assert_eq!(page, 8192);
        assert_eq!(back, metas);
    }

    #[test]
    fn empty_index_roundtrip() {
        let mut buf = Vec::new();
        write_index(&[], 4096, &mut buf).expect("write");
        let (back, page) = read_index(&buf[..]).expect("read");
        assert!(back.is_empty());
        assert_eq!(page, 4096);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_index(&[meta(0)], 4096, &mut buf).expect("write");
        buf[0] = b'Z';
        assert!(matches!(
            read_index(&buf[..]),
            Err(Error::BadMagic {
                file: "index file",
                ..
            })
        ));
    }

    #[test]
    fn rejects_truncation() {
        let mut buf = Vec::new();
        write_index(&[meta(0), meta(1)], 4096, &mut buf).expect("write");
        buf.truncate(buf.len() - 10);
        assert!(matches!(read_index(&buf[..]), Err(Error::Truncated(_))));
    }
}
