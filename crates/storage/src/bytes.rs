//! Panic-free little-endian field readers.
//!
//! The on-disk decoders used to pull fixed-width fields out of byte
//! buffers with `buf[a..b].try_into().expect("fixed slice")` — provably
//! fine on the happy path, but a panic pattern clippy's `expect_used`
//! rightly flags: a server decoding untrusted or corrupted files must
//! surface short buffers as [`Error::Truncated`], never abort. These
//! helpers make the bounds check part of the return type.

use crate::error::{Error, Result};

/// Reads `N` bytes at `at`, or reports `what` as truncated.
pub(crate) fn array_at<const N: usize>(
    buf: &[u8],
    at: usize,
    what: &'static str,
) -> Result<[u8; N]> {
    at.checked_add(N)
        .and_then(|end| buf.get(at..end))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(Error::Truncated(what))
}

/// Little-endian `u32` at byte offset `at`.
pub(crate) fn u32_at(buf: &[u8], at: usize, what: &'static str) -> Result<u32> {
    Ok(u32::from_le_bytes(array_at(buf, at, what)?))
}

/// Little-endian `u64` at byte offset `at`.
pub(crate) fn u64_at(buf: &[u8], at: usize, what: &'static str) -> Result<u64> {
    Ok(u64::from_le_bytes(array_at(buf, at, what)?))
}

/// Little-endian `f32` at byte offset `at`.
pub(crate) fn f32_at(buf: &[u8], at: usize, what: &'static str) -> Result<f32> {
    Ok(f32::from_le_bytes(array_at(buf, at, what)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_at_offsets() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&9u64.to_le_bytes());
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        assert_eq!(u32_at(&buf, 0, "t").ok(), Some(7));
        assert_eq!(u64_at(&buf, 4, "t").ok(), Some(9));
        assert_eq!(f32_at(&buf, 12, "t").ok(), Some(1.5));
    }

    #[test]
    fn short_buffer_is_truncated_not_panic() {
        let buf = [0u8; 3];
        assert!(matches!(
            u32_at(&buf, 0, "short"),
            Err(Error::Truncated("short"))
        ));
        assert!(matches!(
            u32_at(&buf, 2, "short"),
            Err(Error::Truncated("short"))
        ));
    }

    #[test]
    fn offset_overflow_is_truncated_not_panic() {
        let buf = [0u8; 8];
        assert!(matches!(
            u64_at(&buf, usize::MAX - 2, "wrap"),
            Err(Error::Truncated("wrap"))
        ));
    }
}
