#![warn(missing_docs)]

//! # eff2-storage
//!
//! The on-disk chunk-index architecture of the eff2 paper (§4.2) plus the
//! hardware cost model needed to reproduce its timing results on modern
//! machines.
//!
//! > *"The chunk index consists of two files, a chunk file and an index
//! > file. The chunk file holds the descriptors … grouped according to the
//! > specific chunk-forming strategy. All the descriptors belonging to one
//! > chunk are stored together on disk and the chunks are stored
//! > sequentially. The chunks are padded to occupy full disk pages. The
//! > second file stores a simple index built over the chunk file. Each
//! > entry of the index stores the coordinates of the centroid of each
//! > chunk and the radius of the chunk, as well as its location in the
//! > chunk file."*
//!
//! * [`chunkfile`] / [`indexfile`] — binary codecs for the two files;
//! * [`store::ChunkStore`] — create/open a chunk index, read chunks (a
//!   [`store::ChunkReader`] reuses one buffer and reads no page padding);
//! * [`epoch`] — the additive mutability layer: an append-only delta op
//!   log with pinnable prefixes plus the epoch manifest that persists it
//!   next to the (still write-once) chunk/index files;
//! * [`prefetch`] — a reader thread that fetches chunks ahead of the
//!   consumer; no product driver opens one, because on a warm page cache
//!   the hand-off costs more than the overlap saves (the modelled overlap
//!   lives in [`PipelineClock`]);
//! * [`source`] — the [`ChunkSource`] abstraction over chunk delivery by
//!   id: plain file reads on the consumer's thread (the default), a
//!   byte-budgeted resident cache shared across queries, or a prefetching
//!   [`ChunkStream`] — all charging identical modelled I/O;
//! * [`diskmodel`] — the simulated 2005 testbed (Dell 2.8 GHz P4, 40 GB ATA
//!   disk): a deterministic virtual clock calibrated so that reading and
//!   processing an SR-tree chunk of ≈2.5 k descriptors costs ≈10 ms,
//!   BAG's 1 M-descriptor monster chunk costs ≈1.8 s of CPU, and scanning a
//!   ≈2.7 k-entry chunk index costs ≈50 ms — the constants §5.5 reports.

pub mod bytes;
pub mod chunkfile;
pub mod diskmodel;
pub mod epoch;
pub mod error;
pub mod indexfile;
pub mod prefetch;
pub mod source;
pub mod store;

pub use diskmodel::{DiskModel, PipelineClock, VirtualDuration};
pub use epoch::{DeltaOp, EpochManifest, FoldedDelta};
pub use error::{Error, ErrorClass, Result};
pub use indexfile::ChunkMeta;
pub use source::{
    ChunkSource, ChunkStream, FileSource, PrefetchSource, ReadState, ResidentSource, ResidentStats,
    SourcedChunk,
};
pub use store::{ChunkDef, ChunkStore};
