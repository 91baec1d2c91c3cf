//! Chaos is only useful if it replays: the same seed must reproduce the
//! same faults, the same degradation report and the same neighbours,
//! bit for bit, whether the session pulls its chunks or is fed them — and
//! the acceptance properties of the fault model hold:
//! an all-transient schedule under a sufficient retry budget recovers a
//! bit-identical answer (paying for the retries in modelled time), and a
//! lossy schedule's degradation report matches the injected losses
//! exactly, chunk by chunk and descriptor by descriptor.

#![cfg(test)]

mod common;

use common::{arb_former, assert_bit_identical, build_store, drive_stepwise, lumpy_set};
use eff2_chaos::plan::TRANSIENT_CLEAR;
use eff2_chaos::{FaultConfig, FaultPlan, FaultSource, RetryPolicy, RetrySource};
use eff2_core::search::search;
use eff2_core::session::{SearchSession, SkipPolicy};
use eff2_core::{SearchParams, SearchResult, StopRule};
use eff2_descriptor::Vector;
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::source::{ChunkSource, FileSource};
use eff2_storage::{ChunkStore, Error};
use proptest::prelude::*;
use std::sync::Arc;

/// A fresh full chaos stack (`RetrySource(FaultSource(FileSource))`, its
/// attempt counters at zero), plus the fault layer for attempt inspection.
fn chaos_stack(
    store: &ChunkStore,
    config: FaultConfig,
    policy: RetryPolicy,
) -> (Arc<dyn ChunkSource>, Arc<FaultSource>) {
    let fault = Arc::new(FaultSource::new(
        Arc::new(FileSource::new(store)),
        FaultPlan::new(config),
    ));
    let source = RetrySource::new(Arc::clone(&fault) as Arc<dyn ChunkSource>, policy);
    (Arc::new(source), fault)
}

/// Runs one search pulling through a fresh chaos stack with skipping
/// enabled, returning the result and the fault layer.
fn chaos_run(
    store: &ChunkStore,
    model: &DiskModel,
    query: &Vector,
    params: &SearchParams,
    config: FaultConfig,
    policy: RetryPolicy,
) -> (SearchResult, Arc<FaultSource>) {
    let (source, fault) = chaos_stack(store, config, policy);
    let mut session = SearchSession::with_source(store, model, query, params, source);
    session.set_skip_policy(SkipPolicy::SkipUnavailable);
    session.run_to_stop().expect("degraded run completes");
    (session.into_result(), fault)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ same neighbours AND same degradation report, bit for
    /// bit; a different seed draws a different loss schedule.
    #[test]
    fn same_seed_replays_the_same_degraded_search(
        former in arb_former(),
        n in 60usize..200,
        seed in 0u64..1000,
        k in 1usize..10,
    ) {
        let set = lumpy_set(n);
        let store = build_store("replay", &set, former.as_ref());
        let model = DiskModel::ata_2005();
        let query = set.vector_owned(n / 2);
        // Scan the whole ranked order so every planned loss is observed.
        let params = SearchParams {
            k,
            stop: StopRule::Chunks(usize::MAX),
            prefetch_depth: 2,
            log_snapshots: true,
        };
        let config = FaultConfig::lossy(seed, 0.3);
        let policy = RetryPolicy::new(
            2,
            VirtualDuration::from_ms(5.0),
            VirtualDuration::from_ms(1.0),
        );

        let (a, _) = chaos_run(&store, &model, &query, &params, config, policy);
        let (b, _) = chaos_run(&store, &model, &query, &params, config, policy);
        assert_bit_identical(&a, &b, "same seed");

        // Every search completes even when chunks are lost.
        prop_assert!(a.log.completed, "degraded search still completes");

        // The report names exactly the planned losses (recorded in
        // ranked-visit order; compare as sets via a sort).
        let plan = FaultPlan::new(config);
        let want_lost = plan.permanent_losses(store.n_chunks());
        let mut got_lost = a.log.degradation.lost_chunks.clone();
        got_lost.sort_unstable();
        prop_assert_eq!(&got_lost, &want_lost);
        prop_assert_eq!(a.log.degradation.chunks_lost, want_lost.len());
        let want_desc: u64 = want_lost
            .iter()
            .map(|&c| u64::from(store.metas()[c].count))
            .sum();
        prop_assert_eq!(a.log.degradation.descriptors_lost, want_desc);

        // A different seed draws a different schedule (checked over a
        // domain wide enough that collision is impossible in practice).
        let other = FaultPlan::new(FaultConfig::lossy(seed ^ 0x9E37_79B9, 0.3));
        prop_assert_ne!(other.permanent_losses(4096), plan.permanent_losses(4096));
    }

    /// Pushed ≡ pulled under faults: a detached session *fed* the
    /// deliveries of a chaos stack books the same retry, backoff and spike
    /// charges as one *pulling* from a fresh copy of that stack — a
    /// delivery's injected delay is part of the chunk, so it cannot be
    /// left behind.
    #[test]
    fn a_fed_session_is_bit_identical_to_a_pulling_one_under_faults(
        former in arb_former(),
        n in 60usize..200,
        seed in 0u64..1000,
        k in 1usize..10,
        transient_rate in 0.2f64..0.9,
    ) {
        let set = lumpy_set(n);
        let store = build_store("fed", &set, former.as_ref());
        let model = DiskModel::ata_2005();
        let query = set.vector_owned(n / 3);
        let params = SearchParams {
            k,
            stop: StopRule::ToCompletion,
            prefetch_depth: 2,
            log_snapshots: true,
        };
        // Flaky and spiky, with a few chunks gone for good: recoveries,
        // delays and losses all occur.
        let config = FaultConfig {
            spike_rate: 0.5,
            spike_ms: 3.0,
            permanent_rate: 0.1,
            ..FaultConfig::flaky(seed, transient_rate)
        };
        let policy = RetryPolicy::new(
            TRANSIENT_CLEAR + 1,
            VirtualDuration::from_ms(5.0),
            VirtualDuration::from_ms(1.0),
        );

        let (source, _) = chaos_stack(&store, config, policy);
        let mut pulling = SearchSession::with_source(&store, &model, &query, &params, source);
        pulling.set_skip_policy(SkipPolicy::SkipUnavailable);
        let pulled = drive_stepwise(pulling);

        let (source, _) = chaos_stack(&store, config, policy);
        let mut fed = SearchSession::detached(&store, &model, &query, &params);
        let mut stream = source
            .open_stream(fed.ranking().order_from(0))
            .expect("open");
        while !fed.stop_satisfied() {
            match stream.next_chunk() {
                None => break,
                Some(Ok(chunk)) => {
                    fed.step_with(&chunk).expect("step_with");
                }
                Some(Err(Error::ChunkLost { spent, .. })) => {
                    fed.skip_unavailable(spent).expect("skip");
                }
                Some(Err(e)) => panic!("unexpected error: {e}"),
            }
        }
        let fed = fed.into_result();

        prop_assert_eq!(pulled.first_difference(&fed), None);
    }
}

/// Acceptance: a schedule of 100% transient faults under a retry budget of
/// `TRANSIENT_CLEAR + 1` recovers every chunk — neighbours and scan
/// counters bit-identical to the fault-free search, no degradation, and
/// the retries are charged to the modelled clock.
#[test]
fn all_transient_schedule_recovers_bit_identical_under_sufficient_budget() {
    let set = lumpy_set(160);
    let former = eff2_core::chunkers::SrTreeChunker { leaf_size: 16 };
    let store = build_store("transient", &set, &former);
    let model = DiskModel::ata_2005();
    let query = set.vector_owned(80);
    let params = SearchParams {
        k: 8,
        stop: StopRule::ToCompletion,
        prefetch_depth: 2,
        log_snapshots: true,
    };

    let want = search(&store, &model, &query, &params).expect("fault-free");

    let config = FaultConfig::flaky(41, 1.0);
    let policy = RetryPolicy::new(
        TRANSIENT_CLEAR + 1,
        VirtualDuration::from_ms(5.0),
        VirtualDuration::from_ms(1.0),
    );
    let (got, fault) = chaos_run(&store, &model, &query, &params, config, policy);

    // The answer is exact: same neighbours, same scan counters.
    assert_eq!(want.neighbors.len(), got.neighbors.len());
    for (w, g) in want.neighbors.iter().zip(got.neighbors.iter()) {
        assert_eq!(w.id, g.id, "neighbor id");
        assert_eq!(w.dist.to_bits(), g.dist.to_bits(), "neighbor dist");
    }
    assert_eq!(want.log.chunks_read, got.log.chunks_read);
    assert_eq!(want.log.descriptors_scanned, got.log.descriptors_scanned);
    assert_eq!(want.log.bytes_read, got.log.bytes_read);
    assert!(!got.log.degradation.is_degraded(), "nothing was lost");
    assert!(got.log.completed);

    // Every chunk the search visited needed TRANSIENT_CLEAR failing
    // attempts plus the delivering one (chunks pruned by the completion
    // bound are never requested), and that recovery time landed on the
    // virtual clock.
    let mut recovered = 0usize;
    for chunk in 0..store.n_chunks() {
        match fault.attempts_for(chunk) {
            0 => {}
            n => {
                assert_eq!(n, TRANSIENT_CLEAR + 1, "chunk {chunk} attempts");
                recovered += 1;
            }
        }
    }
    assert_eq!(
        recovered, got.log.chunks_read,
        "every read chunk was retried"
    );
    assert!(recovered > 0, "the search read at least one chunk");
    assert!(
        got.log.total_virtual > want.log.total_virtual,
        "retries must cost modelled time: {:?} vs fault-free {:?}",
        got.log.total_virtual,
        want.log.total_virtual
    );
}

/// An insufficient retry budget against the same all-transient schedule
/// loses every chunk — and reports every one of them.
#[test]
fn insufficient_budget_against_transients_reports_every_chunk_lost() {
    let set = lumpy_set(120);
    let former = eff2_core::chunkers::SrTreeChunker { leaf_size: 16 };
    let store = build_store("starved", &set, &former);
    let model = DiskModel::ata_2005();
    let query = set.vector_owned(60);
    let params = SearchParams {
        k: 6,
        stop: StopRule::Chunks(usize::MAX),
        prefetch_depth: 2,
        log_snapshots: false,
    };

    let config = FaultConfig::flaky(7, 1.0);
    let policy = RetryPolicy::new(
        TRANSIENT_CLEAR, // one attempt short of clearing
        VirtualDuration::from_ms(5.0),
        VirtualDuration::from_ms(1.0),
    );
    let (got, _) = chaos_run(&store, &model, &query, &params, config, policy);

    assert!(got.log.completed, "the search still runs to completion");
    assert_eq!(got.log.chunks_read, 0);
    assert_eq!(got.log.degradation.chunks_lost, store.n_chunks());
    assert_eq!(
        got.log.degradation.lost_chunks,
        (0..store.n_chunks()).collect::<Vec<_>>()
    );
    assert_eq!(
        got.log.degradation.descriptors_lost,
        store
            .metas()
            .iter()
            .map(|m| u64::from(m.count))
            .sum::<u64>()
    );
    assert!(
        got.neighbors.is_empty(),
        "nothing scanned, nothing returned"
    );
}
