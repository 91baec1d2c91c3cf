//! Binary on-disk format for descriptor collections.
//!
//! The paper stores the whole collection "sequentially in a single file"
//! where "each descriptor consumes 100 bytes" — 24 little-endian `f32`
//! components (96 bytes) plus a 4-byte identifier (§4.1, §5.2). This module
//! reproduces that record layout behind a small self-describing header, and
//! appends an optional image-attribution table after the records (the paper
//! keeps the descriptor→image association out of band).
//!
//! Layout:
//!
//! ```text
//! [0..4)   magic  b"EFF2"
//! [4..8)   version u32 le      (currently 1)
//! [8..12)  dim     u32 le      (must be 24)
//! [12..20) count   u64 le
//! [20..24) flags   u32 le      (bit 0: image table present)
//! [24..)   count × { id u32 le, components 24 × f32 le }   -- 100 B each
//! [...]    count × { image u32 le }                         -- if flag set
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "record slicing uses constant offsets inside fixed-size header/record buffers"
)]

use crate::descriptor::DescriptorSet;
use crate::error::{Error, Result};
use crate::vector::DIM;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying a collection file.
pub const MAGIC: [u8; 4] = *b"EFF2";
/// Current format version.
pub const VERSION: u32 = 1;
/// Bytes per descriptor record: 4-byte id + 24 × 4-byte components.
pub const RECORD_BYTES: usize = 4 + DIM * 4;
/// Header size in bytes.
pub const HEADER_BYTES: usize = 24;

const FLAG_IMAGES: u32 = 1;

/// Writes `set` to `writer` in the collection format.
pub fn write_collection<W: Write>(set: &DescriptorSet, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(DIM as u32).to_le_bytes())?;
    w.write_all(&(set.len() as u64).to_le_bytes())?;
    let flags = if set.has_images() { FLAG_IMAGES } else { 0 };
    w.write_all(&flags.to_le_bytes())?;

    let packed = set.packed();
    for i in 0..set.len() {
        w.write_all(&set.id(i).0.to_le_bytes())?;
        for &c in &packed[i * DIM..(i + 1) * DIM] {
            w.write_all(&c.to_le_bytes())?;
        }
    }
    if set.has_images() {
        for i in 0..set.len() {
            let img = set.image(i).map(|im| im.0).unwrap_or(u32::MAX);
            w.write_all(&img.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes `set` to the file at `path`.
pub fn save_collection<P: AsRef<Path>>(set: &DescriptorSet, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_collection(set, file)
}

/// Little-endian field at a fixed offset of a header or record buffer; a
/// short buffer reports as truncation instead of panicking.
fn field<const N: usize>(buf: &[u8], at: usize, count: u64, rec: u64) -> Result<[u8; N]> {
    at.checked_add(N)
        .and_then(|end| buf.get(at..end))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(Error::Truncated {
            expected_records: count,
            found_records: rec,
        })
}

/// Reads a collection from `reader`, validating the header and every record.
pub fn read_collection<R: Read>(reader: R) -> Result<DescriptorSet> {
    let mut r = BufReader::new(reader);
    let mut header = [0u8; HEADER_BYTES];
    read_exact_or_truncated(&mut r, &mut header, 0, 0)?;

    let magic: [u8; 4] = field(&header, 0, 0, 0)?;
    if magic != MAGIC {
        return Err(Error::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(field(&header, 4, 0, 0)?);
    if version != VERSION {
        return Err(Error::UnsupportedVersion(version));
    }
    let dim = u32::from_le_bytes(field(&header, 8, 0, 0)?);
    if dim as usize != DIM {
        return Err(Error::DimensionMismatch { found: dim });
    }
    let count = u64::from_le_bytes(field(&header, 12, 0, 0)?);
    let flags = u32::from_le_bytes(field(&header, 20, 0, 0)?);

    // The vectors grow as records arrive: the header's count is untrusted
    // input, and a forged one must end as truncation, not as an allocation
    // the size of the count.
    let mut data = Vec::new();
    let mut ids = Vec::new();
    let mut record = vec![0u8; RECORD_BYTES];
    for rec in 0..count {
        read_exact_or_truncated(&mut r, &mut record, count, rec)?;
        ids.push(u32::from_le_bytes(field(&record, 0, count, rec)?));
        for d in 0..DIM {
            let off = 4 + d * 4;
            let c = f32::from_le_bytes(field(&record, off, count, rec)?);
            if !c.is_finite() {
                return Err(Error::NonFiniteComponent { record: rec });
            }
            data.push(c);
        }
    }

    let image_of = if flags & FLAG_IMAGES != 0 {
        let mut map = Vec::new();
        let mut buf = [0u8; 4];
        for rec in 0..count {
            read_exact_or_truncated(&mut r, &mut buf, count, rec)?;
            map.push(u32::from_le_bytes(buf));
        }
        Some(map)
    } else {
        None
    };

    Ok(DescriptorSet::from_parts(data, ids, image_of))
}

/// Reads a collection from the file at `path`.
pub fn load_collection<P: AsRef<Path>>(path: P) -> Result<DescriptorSet> {
    let file = std::fs::File::open(path)?;
    read_collection(file)
}

fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    expected_records: u64,
    found_records: u64,
) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Error::Truncated {
                expected_records,
                found_records,
            }
        } else {
            Error::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{Descriptor, ImageId};
    use crate::vector::Vector;

    fn sample(n: usize, with_images: bool) -> DescriptorSet {
        let mut set = DescriptorSet::new();
        for i in 0..n as u32 {
            let mut v = Vector::splat(i as f32 * 0.5);
            v[0] = -(i as f32);
            if with_images {
                set.push_with_image(Descriptor::new(i, v), ImageId(i / 3));
            } else {
                set.push(Descriptor::new(i, v));
            }
        }
        set
    }

    fn roundtrip(set: &DescriptorSet) -> DescriptorSet {
        let mut buf = Vec::new();
        write_collection(set, &mut buf).expect("write");
        read_collection(&buf[..]).expect("read")
    }

    #[test]
    fn roundtrip_without_images() {
        let set = sample(10, false);
        let back = roundtrip(&set);
        assert_eq!(back.len(), 10);
        for i in 0..10 {
            assert_eq!(back.get(i), set.get(i));
            assert_eq!(back.image(i), None);
        }
    }

    #[test]
    fn roundtrip_with_images() {
        let set = sample(7, true);
        let back = roundtrip(&set);
        for i in 0..7 {
            assert_eq!(back.get(i), set.get(i));
            assert_eq!(back.image(i), set.image(i));
        }
    }

    #[test]
    fn roundtrip_empty() {
        let back = roundtrip(&DescriptorSet::new());
        assert!(back.is_empty());
    }

    #[test]
    fn record_is_100_bytes() {
        // The paper: "each descriptor consumes 100 bytes".
        assert_eq!(RECORD_BYTES, 100);
        let set = sample(3, false);
        let mut buf = Vec::new();
        write_collection(&set, &mut buf).expect("write");
        assert_eq!(buf.len(), HEADER_BYTES + 3 * 100);
    }

    #[test]
    fn rejects_bad_magic() {
        let set = sample(1, false);
        let mut buf = Vec::new();
        write_collection(&set, &mut buf).expect("write");
        buf[0] = b'X';
        match read_collection(&buf[..]) {
            Err(Error::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unsupported_version() {
        let set = sample(1, false);
        let mut buf = Vec::new();
        write_collection(&set, &mut buf).expect("write");
        buf[4] = 99;
        match read_collection(&buf[..]) {
            Err(Error::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let set = sample(1, false);
        let mut buf = Vec::new();
        write_collection(&set, &mut buf).expect("write");
        buf[8] = 12;
        match read_collection(&buf[..]) {
            Err(Error::DimensionMismatch { found: 12 }) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_body() {
        let set = sample(5, false);
        let mut buf = Vec::new();
        write_collection(&set, &mut buf).expect("write");
        buf.truncate(HEADER_BYTES + 2 * RECORD_BYTES + 10);
        match read_collection(&buf[..]) {
            Err(Error::Truncated {
                expected_records: 5,
                found_records: 2,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_header() {
        let buf = [0u8; 10];
        assert!(matches!(
            read_collection(&buf[..]),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn forged_record_count_is_truncation() {
        // A bare header claiming more records than memory can hold must
        // fail on the first missing record, before allocating for them.
        for count in [1u64 << 40, u64::MAX / 2] {
            let mut buf = Vec::new();
            write_collection(&DescriptorSet::new(), &mut buf).expect("write");
            buf[12..20].copy_from_slice(&count.to_le_bytes());
            match read_collection(&buf[..]) {
                Err(Error::Truncated {
                    expected_records,
                    found_records: 0,
                }) if expected_records == count => {}
                other => panic!("expected Truncated for count {count}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_non_finite_component() {
        let set = sample(2, false);
        let mut buf = Vec::new();
        write_collection(&set, &mut buf).expect("write");
        // Poison the second component of record 1 with NaN.
        let off = HEADER_BYTES + RECORD_BYTES + 4 + 4;
        buf[off..off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        match read_collection(&buf[..]) {
            Err(Error::NonFiniteComponent { record: 1 }) => {}
            other => panic!("expected NonFiniteComponent, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("eff2_codec_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("collection.eff2");
        let set = sample(20, true);
        save_collection(&set, &path).expect("save");
        let back = load_collection(&path).expect("load");
        assert_eq!(back.len(), set.len());
        assert_eq!(back.get(19), set.get(19));
        std::fs::remove_file(&path).ok();
    }
}
