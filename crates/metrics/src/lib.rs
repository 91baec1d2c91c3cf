#![warn(missing_docs)]

//! # eff2-metrics
//!
//! Measurement machinery for the paper's experiments (§5.4):
//!
//! * [`truth`] — ground truth by sequential scan: "we first ran a
//!   sequential scan of the collection, and stored the identifiers of the
//!   returned descriptors";
//! * [`curves`] — quality-vs-time curves over intermediate results:
//!   metrics "were logged after the processing of every chunk. As we
//!   always ran queries to conclusion, we were able to measure the quality
//!   of intermediate results";
//! * [`table`] — aligned text tables and CSV output for the experiment
//!   harness;
//! * [`image`] — image-granularity precision@m and the
//!   descriptors-spent curve: quality as a function of how much of an
//!   image query's descriptor set was consumed.

pub mod balance;
pub mod curves;
pub mod image;
pub mod latency;
pub mod table;
pub mod truth;

pub use balance::imbalance_factor;
pub use curves::{precision_at, quality_curve, QualityCurve};
pub use image::{
    avg_spent_fraction, descriptors_spent_curve, image_precision_at, ImageQualityPoint,
};
pub use latency::{fleet_quality_curve, FleetQualityPoint, LatencySummary};
pub use table::Table;
pub use truth::GroundTruth;
