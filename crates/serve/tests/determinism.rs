//! The serving layer's load-bearing property: interleaving N sessions
//! under ANY policy, ANY concurrency level and ANY worker-thread count
//! yields per-query `SearchResult`s and `ChunkEvent` traces bit-identical
//! to running the same queries serially, one at a time. Scheduling is
//! allowed to change fleet timing — never what a query computes.

#![cfg(test)]

mod common;

use common::{arb_former, arb_policy, arb_stop, assert_bit_identical, build_snapshot, lumpy_set};
use eff2_core::chunkers::SrTreeChunker;
use eff2_core::search::{search_batch_threads, SearchParams, SearchResult};
use eff2_descriptor::Vector;
use eff2_serve::{Policy, Scheduler, SchedulerConfig};
use eff2_storage::diskmodel::VirtualDuration;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N interleaved sessions ≡ serial, for every (policy, concurrency,
    /// worker-thread) combination the strategy draws. The serial reference
    /// itself is computed twice — single-threaded and with the drawn
    /// thread count through `search_batch_threads` (the `EFF2_THREADS`
    /// path) — pinning the whole stack to one answer.
    #[test]
    fn interleaved_equals_serial(
        (former, policy, stop) in (arb_former(), arb_policy(), arb_stop()),
        (n, n_queries, max_active) in (120usize..400, 2usize..10, 1usize..9),
        (threads, gap_ms, k) in (1usize..5, 0.0f64..20.0, 1usize..10),
    ) {
        let set = lumpy_set(n);
        let snap = build_snapshot("prop", &set, former.as_ref());
        let params = SearchParams { k, stop, prefetch_depth: 2, log_snapshots: true };

        let queries: Vec<Vector> = (0..n_queries)
            .map(|i| set.vector_owned((i * 53) % set.len()))
            .collect();
        let trace: Vec<(Vector, VirtualDuration)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (*q, VirtualDuration::from_ms(gap_ms * i as f64)))
            .collect();

        // Serial reference: one query at a time over its own source.
        let serial: Vec<SearchResult> = queries
            .iter()
            .map(|q| snap.search(q, &params).expect("serial"))
            .collect();

        // The parallel batch path must agree at any worker-thread count.
        let batch = search_batch_threads(snap.store(), snap.model(), &queries, &params, threads)
            .expect("batch");
        for (i, (want, got)) in serial.iter().zip(batch.iter()).enumerate() {
            assert_bit_identical(want, got, &format!("batch/t{threads}/q{i}"));
        }

        // The interleaved scheduler must agree under any policy at any
        // concurrency level.
        let mut config = SchedulerConfig::new(policy, max_active);
        config.max_queued = queries.len();
        let report = Scheduler::new(snap.clone(), config)
            .serve_trace(&trace, &params)
            .expect("serve");
        prop_assert_eq!(report.stats.rejected, 0u64);
        prop_assert_eq!(report.completions.len(), queries.len());
        for c in &report.completions {
            let want = serial.get(c.id as usize).expect("id in range");
            assert_bit_identical(
                want,
                &c.result,
                &format!("sched/{}/act{max_active}/q{}", policy.name(), c.id),
            );
        }
    }
}

/// The scheduler itself must be a pure function of (snapshot, config,
/// trace): two runs give identical fleet figures, tick for tick.
#[test]
fn scheduler_replays_are_bit_identical() {
    let set = lumpy_set(500);
    let snap = build_snapshot("replay", &set, &SrTreeChunker { leaf_size: 30 });
    let params = SearchParams::exact(8);
    let trace: Vec<(Vector, VirtualDuration)> = (0..10)
        .map(|i| {
            (
                set.vector_owned((i * 41) % set.len()),
                VirtualDuration::from_ms(2.5 * i as f64),
            )
        })
        .collect();
    for policy in Policy::ALL {
        let run = || {
            let mut config = SchedulerConfig::new(policy, 4);
            config.max_queued = trace.len();
            Scheduler::new(snap.clone(), config)
                .serve_trace(&trace, &params)
                .expect("serve")
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats.fetches, b.stats.fetches);
        assert_eq!(a.stats.disk_reads, b.stats.disk_reads);
        assert_eq!(a.stats.feeds, b.stats.feeds);
        assert_eq!(
            a.makespan.as_secs().to_bits(),
            b.makespan.as_secs().to_bits()
        );
        for (x, y) in a.completions.iter().zip(b.completions.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish.as_secs().to_bits(), y.finish.as_secs().to_bits());
            assert_bit_identical(&x.result, &y.result, &format!("replay/{}", policy.name()));
        }
    }
}
