#![warn(missing_docs)]

//! # eff2-serve
//!
//! The multi-query serving layer: many concurrent searches over one chunk
//! index, interleaved *chunk by chunk* by one deterministic engine.
//!
//! The paper argues that the chunk is the natural granule of the search —
//! uniform chunks give predictable per-step cost. That is precisely what a
//! serving scheduler needs: with every query decomposed into same-sized
//! steps, the engine can admit jobs (bounded queue, an
//! [`Overloaded`](ServeError::Overloaded) error under pressure), track
//! virtual deadlines, and pick each next chunk by [`Policy`] — round-robin
//! fairness, earliest-deadline-first, or *most-wanted-chunk*, which serves
//! the chunk the largest number of in-flight sessions want next so one
//! read (and one decoded payload) feeds them all. Fetches go through an
//! optional fault plan with per-copy retry, failover and abandonment.
//!
//! In every configuration a query is one session over its global chunk
//! ranking; a device only *delivers* chunks to it, and the session consumes
//! them in rank order. Two independent choices make the three public
//! schedulers — how a job's sessions fold into one output, and how many
//! devices deliver:
//!
//! * [`Scheduler`] — one session per query, one device;
//! * [`FleetScheduler`] ([`fleet`]) — the same fold with the index
//!   partitioned across N shard nodes by an [`eff2_shard::ShardMap`] (R-way
//!   replication), replicated copies turning permanent chunk loss into
//!   failover;
//! * [`ImageScheduler`] ([`image`]) — one session per query descriptor,
//!   folded into a per-image vote ranking that can abandon the remaining
//!   siblings once the top-`m` images are stable or provably final; on one
//!   device or ([`ImageScheduler::on_fleet`]) on a fleet's shard nodes.
//!
//! The load-bearing property, proptested in `tests/`: no matter the
//! policy, the concurrency level, the shard count or the interleaving,
//! every per-query [`SearchResult`](eff2_core::SearchResult) is
//! bit-identical to running that query alone. Scheduling changes *when*
//! work happens on the shared devices (latency, throughput), never what
//! each query computes.
//!
//! Serving under *live mutation* lives in [`live`]: a [`LiveServer`] is
//! the same engine under the [`Scheduler`]'s fold, holding a mutable
//! index: it merges query and insert/delete arrivals on one fleet clock,
//! pins each session to the index's current epoch snapshot at admission,
//! and pays the online compactor's fold as background work, one slice
//! after each serving tick — every completion stays bit-identical to a
//! solo run against its pinned epoch. A pinned epoch is an ordinary
//! [`Snapshot`](eff2_core::Snapshot), so the three schedulers above serve
//! one just as well (`tests/pinned_epochs.rs`).

#[cfg(test)]
extern crate self as eff2_serve;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
mod engine;
pub mod error;
pub mod fleet;
pub mod image;
pub mod live;
pub mod scheduler;

pub use error::{Result, ServeError};
pub use fleet::{FleetConfig, FleetReport, FleetScheduler, LossScope};
pub use image::{
    ImageCompletion, ImageConfig, ImageQuerySpec, ImageScheduler, ImageServeReport, ImageServeStats,
};
pub use live::{
    merge_timelines, CompactionPolicy, LiveCompletion, LiveEvent, LiveReport, LiveServer, LiveStats,
};
pub use scheduler::{Completion, Policy, Scheduler, SchedulerConfig, ServeReport, ServeStats};
