#![warn(missing_docs)]

//! # eff2-bag
//!
//! The **BAG** clustering algorithm, as described in §3 of the eff2 paper.
//! BAG (named after Berrani, Amsaleg and Gros, whose CIKM'03 paper
//! introduced it without a name) is derived from the first phase of BIRCH
//! and produces hyper-spherical clusters of minimal volume, each identified
//! by its centroid and minimum bounding radius — the quality-first extreme
//! of the chunk-formation spectrum.
//!
//! The algorithm, faithfully to the paper:
//!
//! 1. every descriptor starts as a singleton cluster of radius zero;
//! 2. each pass scans the current clusters; two clusters may merge **iff**
//!    the minimum bounding radius of the merged cluster is smaller than the
//!    radius of the larger cluster plus **MPI** (the *Maximum Possible
//!    Increment* for radii);
//! 3. a cluster that merges gets an exactly recomputed centroid and minimum
//!    bounding radius; a cluster that does not merge has its radius
//!    incremented by MPI (making it non-minimal);
//! 4. at the end of each pass, clusters holding fewer than 20 % of the
//!    average population are destroyed and their descriptors become
//!    singletons again;
//! 5. when the number of clusters falls below a user-defined threshold the
//!    algorithm terminates; clusters that are still too small are destroyed
//!    and their descriptors are declared **outliers**.
//!
//! The paper stresses that BAG "does not use any indexing scheme to
//! facilitate the merge process" and that clustering 5M descriptors took
//! almost **12 days**. This crate provides both that faithful
//! [`EngineKind::Exhaustive`] and an [`EngineKind::Pruned`] engine that
//! prunes merge candidates with a ball tree over centroids; the two produce
//! identical clusterings (property-tested), the pruned engine merely skips
//! candidate pairs that provably cannot satisfy the merge rule. Both count
//! the merge tests the *exhaustive* scan would have performed, so formation
//! cost can be reported faithfully.

pub mod algorithm;
pub mod balltree;
pub mod cluster;
pub mod engine;

pub use algorithm::{Bag, BagConfig, BagSnapshot};
pub use cluster::Cluster;
pub use engine::EngineKind;
