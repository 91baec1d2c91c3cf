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
//! * [`fault`] — [`FaultPlan::attempt`], the one faulted read attempt, and
//!   [`FaultSource`], the [`ChunkSource`](eff2_storage::ChunkSource)
//!   decorator that runs it for each fetch through any source stack;
//! * [`retry`] — [`RetryPolicy::run`], the one retry loop, and
//!   [`RetrySource`], the decorator that runs it around each fetch; a
//!   chunk it gives up on is a permanent
//!   [`ChunkLost`](eff2_storage::Error::ChunkLost) the search core can
//!   skip under a `SkipPolicy`. eff2-serve's engine runs the same attempt
//!   in the same loop for each copy of a chunk ([`retry`] says where each
//!   side charges the cost);
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
