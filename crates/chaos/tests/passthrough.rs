//! At every fault rate of zero the chaos decorators must vanish: a
//! [`FaultSource`] over a quiet plan, and a [`RetrySource`] stacked on top
//! of it, produce `ChunkEvent` traces, neighbour sets, virtual clocks and
//! (empty) degradation reports bit-identical to the undecorated search —
//! through every source kind, chunker and stop rule, even with the
//! skip-unavailable policy armed.

#![cfg(test)]

mod common;

use common::{arb_former, arb_stop, assert_bit_identical, build_store, drive_stepwise, lumpy_set};
use eff2_chaos::{FaultConfig, FaultPlan, FaultSource, RetryPolicy, RetrySource};
use eff2_core::search::search;
use eff2_core::session::{SearchSession, SkipPolicy};
use eff2_core::SearchParams;
use eff2_descriptor::Vector;
use eff2_storage::diskmodel::DiskModel;
use eff2_storage::source::{ChunkSource, FileSource, PrefetchSource, ResidentSource};
use eff2_storage::ChunkStore;
use proptest::prelude::*;
use std::sync::Arc;

/// The three source kinds the equivalence suite pins, as fresh factories so
/// each decorated stack gets its own base.
fn base_sources(store: &ChunkStore) -> Vec<(&'static str, Arc<dyn ChunkSource>)> {
    vec![
        (
            "file",
            Arc::new(FileSource::new(store)) as Arc<dyn ChunkSource>,
        ),
        (
            "prefetch",
            Arc::new(PrefetchSource::new(store, 2)) as Arc<dyn ChunkSource>,
        ),
        (
            "resident",
            Arc::new(ResidentSource::new(store, u64::MAX)) as Arc<dyn ChunkSource>,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn quiet_chaos_stack_is_a_bit_identical_passthrough(
        former in arb_former(),
        stop in arb_stop(),
        n in 40usize..200,
        k in 0usize..10,
        seed in 0u64..1000,
        qsel in 0usize..4,
    ) {
        let set = lumpy_set(n);
        let store = build_store("quiet", &set, former.as_ref());
        let model = DiskModel::ata_2005();
        let query = match qsel {
            0 => Vector::ZERO,
            1 => Vector::splat(9.5),
            2 => set.vector_owned(n / 2),
            _ => set.vector_owned(n - 1),
        };
        let params = SearchParams { k, stop, prefetch_depth: 2, log_snapshots: true };
        let tag = format!("{}/{stop:?}/k{k}", former.name());
        let plan = FaultPlan::new(FaultConfig::quiet(seed));
        prop_assert!(plan.is_quiet());

        let want = search(&store, &model, &query, &params).expect("one-shot");
        prop_assert!(!want.log.degradation.is_degraded());

        for (src_tag, base) in base_sources(&store) {
            // FaultSource alone over the quiet plan.
            let faulted = Arc::new(FaultSource::new(Arc::clone(&base), plan));
            let mut session = SearchSession::with_source(
                &store, &model, &query, &params,
                Arc::clone(&faulted) as Arc<dyn ChunkSource>,
            );
            session.set_skip_policy(SkipPolicy::SkipUnavailable);
            let got = drive_stepwise(session);
            assert_bit_identical(&want, &got, &format!("{tag}/{src_tag}/fault"));

            // The full retry stack, with both a passthrough policy and a
            // generous budget: with nothing to retry neither may disturb
            // the trace.
            for (pol_tag, policy) in [
                ("none", RetryPolicy::none()),
                (
                    "retry",
                    RetryPolicy::new(
                        4,
                        eff2_storage::diskmodel::VirtualDuration::from_ms(5.0),
                        eff2_storage::diskmodel::VirtualDuration::from_ms(1.0),
                    ),
                ),
            ] {
                let stacked = Arc::new(RetrySource::new(
                    Arc::new(FaultSource::new(Arc::clone(&base), plan)),
                    policy,
                ));
                let mut session = SearchSession::with_source(
                    &store, &model, &query, &params,
                    stacked as Arc<dyn ChunkSource>,
                );
                session.set_skip_policy(SkipPolicy::SkipUnavailable);
                let got = drive_stepwise(session);
                assert_bit_identical(&want, &got, &format!("{tag}/{src_tag}/stack-{pol_tag}"));
            }
        }
    }
}
