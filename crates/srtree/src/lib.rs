#![warn(missing_docs)]

//! # eff2-srtree
//!
//! The static build of the SR-tree (Katayama & Satoh, *"The SR-tree: An
//! Index Structure for High-Dimensional Nearest Neighbor Queries"*, SIGMOD
//! 1997) over 24-dimensional image descriptors, reduced to what the
//! chunk-formation study of the eff2 paper (§2) keeps of it:
//!
//! > *"we adapted the SR-tree to yield chunks, by making two minor changes
//! > to the code. First, we added a parameter to control the size of the
//! > leaves, and second, we added a method to generate chunks from the
//! > leaves, thus throwing away the upper levels of the tree. We used the
//! > static build method, as it was much faster and guaranteed uniform leaf
//! > size."*
//!
//! Two public surfaces:
//!
//! * [`bulk::build_leaf_partitions`] — the static build's leaf level: a
//!   variance-split recursive partitioning that guarantees every leaf holds
//!   the requested number of descriptors (±1) and is *roundish* because
//!   splits follow the widest dimension.
//! * [`chunks::chunks_from_collection`] — the paper's adaptation: take the
//!   leaves as chunks (with centroid and minimum bounding radius) and
//!   discard the upper levels, which are therefore never built.

pub mod bulk;
pub mod chunks;

pub use chunks::{chunks_from_collection, LeafChunk};
