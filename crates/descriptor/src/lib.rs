#![warn(missing_docs)]

//! # eff2-descriptor
//!
//! The data substrate for the `eff2` reproduction of *"The Quality vs. Time
//! Trade-off for Approximate Image Descriptor Search"* (ICDE Workshops 2005).
//!
//! The paper describes images with **24-dimensional local descriptors** — a
//! few hundred per image — derived from the grey-level differential
//! invariants of Florack et al., as extended to colour by Amsaleg & Gros.
//! Similarity between images is a nearest-neighbour search in Euclidean
//! space over those descriptors. Each descriptor occupies 100 bytes on disk
//! (24 × 4-byte floats plus a 4-byte identifier).
//!
//! This crate provides:
//!
//! * [`Vector`] — the fixed 24-dimensional point type and its distance
//!   kernel ([`l2_sq`]);
//! * [`Descriptor`] / [`DescriptorSet`] — identified descriptors and a
//!   structure-of-arrays collection container;
//! * [`codec`] — the 100-byte-per-descriptor binary collection format;
//! * [`gen`] — a synthetic collection generator that simulates the density
//!   skew of real local-descriptor collections (the paper's collection has a
//!   few *enormous* natural clusters — its largest BAG chunk holds more than
//!   a million of the five million descriptors);
//! * [`stats`] — per-dimension statistics, including the 5 %-trimmed value
//!   ranges the paper uses to create its "space query" (SQ) workload;
//! * [`quant`] — database-side compression codecs (a scalar 8-bit
//!   quantizer and a product quantizer) whose asymmetric-distance kernels
//!   in [`kernels`] scan `u8` codes against `f32` queries, bit-identical
//!   to decoding and running the exact kernel.

pub mod codec;
pub mod descriptor;
pub mod error;
pub mod gen;
pub mod kernels;
pub mod neighbors;
pub mod quant;
pub mod stats;
pub mod vector;

pub use descriptor::{Descriptor, DescriptorId, DescriptorSet, ImageId};
pub use error::{Error, Result};
pub use gen::SyntheticCollection;
pub use kernels::{adc_l2_sq, adc_l2_sq_batch, as_rows, l2_sq_x4, scan_block_into};
pub use neighbors::{Neighbor, NeighborSet};
pub use quant::{Codec, DescriptorCodec, PqCodec, PreparedQuery, Sq8Codec};
pub use stats::{DimensionStats, TrimmedRanges};
pub use vector::{l2_sq, l2_sq_serial, Vector, DIM};
