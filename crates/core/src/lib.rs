#![warn(missing_docs)]

//! # eff2-core
//!
//! The primary contribution surface of the eff2 reproduction: approximate
//! nearest-neighbour search over **chunk indexes**, in the
//! clustering-for-indexing paradigm the paper studies.
//!
//! The search (§4.3) works in three steps:
//!
//! 1. **rank** all chunks by the distance from the query descriptor to
//!    their centroids (the index file read — ≈50 ms on the paper's
//!    hardware);
//! 2. **scan** chunks in ranked order, fetching each chunk's descriptors
//!    and updating the current k-nearest-neighbour set — the query's own
//!    thread reads each chunk, and the modelled clock overlaps each
//!    chunk's I/O with CPU;
//! 3. **stop** according to a [`StopRule`]: after a fixed number of chunks,
//!    after a time threshold, or *to completion* — when `k` neighbours are
//!    known and no remaining chunk's lower bound
//!    `d(q, centroid) − radius` can beat the current kth distance (this is
//!    why the index stores radii).
//!
//! What distinguishes chunk indexes is **how the chunks were formed**; the
//! [`chunkers`] module provides the paper's two contestants — uniform-size
//! SR-tree leaves (§2) and quality-first BAG clusters (§3) — plus the
//! round-robin and random baselines from the paper's introduction and the
//! *hybrid* size-bounded refinement its conclusion calls for.
//!
//! Every search logs its per-chunk intermediate results ([`SearchLog`]),
//! which is what the paper's quality-vs-time figures are computed from.
//!
//! Start at [`Snapshot::build`] (form chunks, write the files) or
//! [`Snapshot::open`]; [`Snapshot::search`] runs one query.

pub mod adc;
pub mod chunkers;
pub mod coarse;
pub mod image;
pub mod index;
pub mod merge;
pub mod scan;
pub mod search;
pub mod session;
pub mod snapshot;

pub use adc::{search_quantized, search_two_level};
pub use chunkers::{
    BagChunker, ChunkFormation, ChunkFormer, FormationCost, HybridChunker, RandomChunker,
    RoundRobinChunker, SrTreeChunker,
};
pub use coarse::CoarseQuantizer;
pub use image::{
    solo_image_search, ImageAggregator, ImageOutcome, ImageStopRule, ImageVote,
    ImageVoteAccumulator, ImageVoteEvent,
};
pub use index::BuiltIndex;
pub use merge::{LegOutcome, ScatterGather};
pub use scan::{scan_knn, scan_store_knn};
pub use search::{
    search_batch_threads, search_with_source, ChunkEvent, Degradation, ResultFidelity, SearchLog,
    SearchParams, SearchResult, StopRule,
};
pub use session::{ChunkRanking, SearchSession, SkipPolicy};
pub use snapshot::Snapshot;
