#![warn(missing_docs)]

//! # eff2-chaos
//!
//! Deterministic fault injection for the chunk-storage stack.
//!
//! A production-scale serving fleet only "guarantees response time" if it
//! survives the faults a real disk produces: transient read errors, short
//! reads, latency spikes, silent corruption, and chunks that are simply
//! gone. This crate makes those faults *reproducible*: every injected
//! fault is a pure function of a seed, the chunk id and the attempt
//! number, so a failing run can be replayed bit-for-bit.
//!
//! * [`plan`] — [`FaultConfig`]/[`FaultPlan`]: the seeded fault schedule;
//! * [`fault`] — [`FaultSource`]: a [`ChunkSource`](eff2_storage::ChunkSource)
//!   decorator that injects the planned faults into each fetch through any
//!   source stack;
//! * [`retry`] — [`RetrySource`]: typed retry/backoff with modelled-time
//!   charging, a loop of attempts around the inner fetch of one chunk
//!   that turns repeated failures into a permanent
//!   [`ChunkLost`](eff2_storage::Error::ChunkLost) the search core can
//!   skip under a `SkipPolicy`;
//! * [`shard`] — [`ShardFaultPlan`]: whole-shard-down schedules for the
//!   replicated serving fleet (eff2-serve's copy-by-copy failover).
//!
//! With every fault rate at zero the decorators are bit-identical
//! passthroughs: same `ChunkEvent` traces, same neighbours, same virtual
//! clock (pinned by this crate's proptest suites).

pub mod fault;
pub mod plan;
pub mod retry;
pub mod shard;

pub use fault::FaultSource;
pub use plan::{Fault, FaultConfig, FaultPlan};
pub use retry::{RetryPolicy, RetrySource};
pub use shard::ShardFaultPlan;
