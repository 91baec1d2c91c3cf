#![warn(missing_docs)]

//! # eff2-srtree
//!
//! An SR-tree (Katayama & Satoh, *"The SR-tree: An Index Structure for
//! High-Dimensional Nearest Neighbor Queries"*, SIGMOD 1997) over
//! 24-dimensional image descriptors, built for the chunk-formation study of
//! the eff2 paper (§2):
//!
//! > *"we adapted the SR-tree to yield chunks, by making two minor changes
//! > to the code. First, we added a parameter to control the size of the
//! > leaves, and second, we added a method to generate chunks from the
//! > leaves, thus throwing away the upper levels of the tree. We used the
//! > static build method, as it was much faster and guaranteed uniform leaf
//! > size."*
//!
//! Three public surfaces:
//!
//! * [`SRTree`] — the dynamic index: insert with R\*-style forced
//!   reinsertion, bounding *sphere ∩ rectangle* regions, exact k-NN search.
//! * [`bulk::bulk_build`] — the static build: a variance-split recursive
//!   partitioning that guarantees every leaf holds the requested number of
//!   descriptors (±1) and is *roundish* because splits follow the widest
//!   dimension. This is what the paper's experiments use.
//! * [`chunks::chunks_from_collection`] — the paper's adaptation: take the
//!   leaves as chunks (with centroid and minimum bounding radius) and
//!   discard the upper levels.

pub mod bulk;
pub mod chunks;
mod geometry;
mod node;
pub mod tree;

pub use bulk::{bulk_build, BulkConfig};
pub use chunks::{chunks_from_collection, LeafChunk};
pub use tree::{SRTree, SRTreeConfig};
