//! Error type for chunk-index storage, with a transient/corrupt/permanent
//! taxonomy that retry layers use to decide whether another attempt can
//! possibly help.

use crate::diskmodel::VirtualDuration;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// How a retry layer should treat an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// The read might succeed if repeated (I/O hiccup, short read).
    Transient,
    /// The bytes arrived but failed verification; a re-read may deliver
    /// the true contents (or prove the damage permanent).
    Corrupt,
    /// No number of retries will ever deliver this data.
    Permanent,
}

/// Errors raised by chunk-index file operations.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A file is not of the expected kind (bad magic bytes).
    BadMagic {
        /// Which file was being read.
        file: &'static str,
        /// The magic actually found.
        found: [u8; 4],
    },
    /// Unsupported format version.
    UnsupportedVersion(u32),
    /// The chunk and index files disagree (different chunk counts,
    /// mismatched page size, out-of-range offsets…).
    Inconsistent(String),
    /// A requested chunk id does not exist.
    NoSuchChunk {
        /// The requested chunk id.
        id: usize,
        /// Number of chunks in the store.
        n_chunks: usize,
    },
    /// A file ended before its declared contents.
    Truncated(&'static str),
    /// A checksummed block failed its checksum: the bytes read do not
    /// match what was written.
    Corrupt {
        /// What failed: `"chunk body"`, `"quantized chunk body"`,
        /// `"epoch manifest"`, or an injected fault's description.
        what: &'static str,
        /// File offset of the block.
        offset: u64,
        /// Checksum recorded at write time.
        expected: u32,
        /// Checksum of the bytes actually read.
        found: u32,
    },
    /// A chunk is not deliverable: every allowed attempt failed. Raised by
    /// retry layers after exhausting their budget; callers holding a skip
    /// policy may continue without the chunk.
    ChunkLost {
        /// The chunk that could not be read.
        chunk: usize,
        /// Read attempts performed before giving up.
        attempts: u32,
        /// Modelled time spent on the failed attempts (timeouts and
        /// backoff), to be charged to the disk clock by the caller.
        spent: VirtualDuration,
    },
}

impl Error {
    /// Classifies the error for retry purposes.
    pub fn class(&self) -> ErrorClass {
        match self {
            // I/O hiccups and short reads may clear on a repeat attempt.
            Error::Io(_) | Error::Truncated(_) => ErrorClass::Transient,
            Error::Corrupt { .. } => ErrorClass::Corrupt,
            Error::BadMagic { .. }
            | Error::UnsupportedVersion(_)
            | Error::Inconsistent(_)
            | Error::NoSuchChunk { .. }
            | Error::ChunkLost { .. } => ErrorClass::Permanent,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::BadMagic { file, found } => {
                write!(f, "{file} is not a chunk-index file (magic {found:?})")
            }
            Error::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            Error::Inconsistent(why) => write!(f, "chunk index inconsistent: {why}"),
            Error::NoSuchChunk { id, n_chunks } => {
                write!(f, "chunk {id} out of range (store has {n_chunks} chunks)")
            }
            Error::Truncated(which) => write!(f, "{which} truncated"),
            Error::Corrupt {
                what,
                offset,
                expected,
                found,
            } => write!(
                f,
                "{what} at offset {offset} corrupt \
                 (checksum {found:#010x}, expected {expected:#010x})"
            ),
            Error::ChunkLost {
                chunk, attempts, ..
            } => write!(f, "chunk {chunk} lost after {attempts} attempts"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Error::NoSuchChunk { id: 9, n_chunks: 3 }
            .to_string()
            .contains('9'));
        assert!(Error::Inconsistent("page size".into())
            .to_string()
            .contains("page size"));
        assert!(Error::Truncated("index file")
            .to_string()
            .contains("index file"));
        let corrupt = Error::Corrupt {
            what: "quantized chunk body",
            offset: 512,
            expected: 1,
            found: 2,
        }
        .to_string();
        assert!(
            corrupt.starts_with("quantized chunk body at offset 512 "),
            "{corrupt}"
        );
        assert!(Error::ChunkLost {
            chunk: 4,
            attempts: 3,
            spent: VirtualDuration::ZERO
        }
        .to_string()
        .contains("3 attempts"));
    }

    #[test]
    fn classification_covers_every_variant() {
        let io = std::io::Error::other("disk");
        assert_eq!(Error::Io(io).class(), ErrorClass::Transient);
        assert_eq!(
            Error::Truncated("chunk body").class(),
            ErrorClass::Transient
        );
        assert_eq!(
            Error::Corrupt {
                what: "chunk body",
                offset: 0,
                expected: 0,
                found: 1
            }
            .class(),
            ErrorClass::Corrupt
        );
        for permanent in [
            Error::BadMagic {
                file: "chunk file",
                found: [0; 4],
            },
            Error::UnsupportedVersion(9),
            Error::Inconsistent("counts".into()),
            Error::NoSuchChunk { id: 1, n_chunks: 1 },
            Error::ChunkLost {
                chunk: 0,
                attempts: 1,
                spent: VirtualDuration::ZERO,
            },
        ] {
            assert_eq!(permanent.class(), ErrorClass::Permanent, "{permanent}");
        }
    }
}
