//! The fleet's load-bearing property: serving over ANY shard count, ANY
//! replication factor, ANY placement policy and ANY stop rule gives
//! every query a result bit-identical to the single-device run
//! (faults quiet) — and when a fault plan kills every copy, the fleet
//! degrades exactly like the solo scheduler's permanent loss.

#![cfg(test)]

mod common;

use common::{assert_bit_identical, retry, scan_all, snapshot, trace};
use eff2_chaos::{FaultConfig, FaultPlan};
use eff2_core::search::{SearchParams, SearchResult, StopRule};
use eff2_serve::{FleetConfig, FleetScheduler, LossScope, Policy, Scheduler, SchedulerConfig};
use eff2_shard::Placement;
use eff2_storage::diskmodel::VirtualDuration;
use proptest::prelude::*;

fn stop_rule(which: usize) -> StopRule {
    match which % 5 {
        0 => StopRule::Chunks(3),
        1 => StopRule::Chunks(usize::MAX),
        2 => StopRule::VirtualTime(VirtualDuration::from_ms(40.0)),
        3 => StopRule::ToCompletion,
        _ => StopRule::ToCompletionEps(0.4),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Quiet fleet, any shape: every merged answer (and its whole log,
    /// including the empty degradation report) is bit-identical to the
    /// serial single-device run of the same query.
    #[test]
    fn fleet_merges_bit_identical_to_single_device(
        n_shards in 1usize..=6,
        replication in 1usize..=3,
        placement_ix in 0usize..2,
        policy_ix in 0usize..3,
        which_stop in 0usize..5,
        n_queries in 3usize..=8,
    ) {
        let placement = Placement::ALL[placement_ix];
        let policy = Policy::ALL[policy_ix];
        let (snap, set) = snapshot("quiet", 500, 28);
        let params = SearchParams {
            stop: stop_rule(which_stop),
            ..SearchParams::exact(6)
        };
        let queries = trace(&set, n_queries, 1.5);
        let serial: Vec<SearchResult> = queries
            .iter()
            .map(|(q, _)| snap.search(q, &params).expect("serial"))
            .collect();
        let mut config = FleetConfig::new(policy, n_shards, 4);
        config.placement = placement;
        config.replication = replication;
        config.max_queued = queries.len();
        let report = FleetScheduler::new(snap.clone(), config)
            .serve_trace(&queries, &params)
            .expect("fleet");
        prop_assert_eq!(report.report.stats.rejected, 0u64);
        prop_assert_eq!(report.report.completions.len(), queries.len());
        for (c, want) in report.report.completions.iter().zip(serial.iter()) {
            assert_bit_identical(
                want,
                &c.result,
                &format!(
                    "{}x{} {} {} q{}",
                    n_shards,
                    replication,
                    placement.name(),
                    policy.name(),
                    c.id
                ),
            );
        }
    }

    /// A fault plan whose permanent draw kills EVERY copy degrades the
    /// fleet exactly like the solo scheduler degrades today: same
    /// neighbours, same lost-chunk sets, same fidelity — replication
    /// cannot help when the loss is in the data, not the medium.
    #[test]
    fn all_replicas_lost_degrades_like_solo_permanent_loss(
        n_shards in 1usize..=5,
        replication in 1usize..=3,
        placement_ix in 0usize..2,
        seed in 1u64..200,
    ) {
        let placement = Placement::ALL[placement_ix];
        let (snap, set) = snapshot("lossy", 500, 28);
        let params = scan_all(6);
        let queries = trace(&set, 5, 1.5);
        let plan = FaultPlan::new(FaultConfig::lossy(seed, 0.15));
        let retry = retry(2, 5.0);
        let mut solo_config = SchedulerConfig::new(Policy::MostWantedChunk, 4);
        solo_config.max_queued = queries.len();
        solo_config.fault_plan = Some(plan);
        solo_config.retry = retry;
        let solo = Scheduler::new(snap.clone(), solo_config)
            .serve_trace(&queries, &params)
            .expect("solo");
        let mut config = FleetConfig::new(Policy::MostWantedChunk, n_shards, 4);
        config.placement = placement;
        config.replication = replication;
        config.max_queued = queries.len();
        config.fault_plan = Some(plan);
        config.loss_scope = LossScope::AllCopies;
        config.retry = retry;
        let fleet = FleetScheduler::new(snap.clone(), config)
            .serve_trace(&queries, &params)
            .expect("fleet");
        prop_assert_eq!(
            fleet.report.stats.sessions_degraded,
            solo.stats.sessions_degraded
        );
        for (f, s) in fleet.report.completions.iter().zip(solo.completions.iter()) {
            prop_assert_eq!(f.id, s.id);
            prop_assert_eq!(
                f.result.log.fidelity(),
                s.result.log.fidelity(),
                "q{}: fidelity must match the solo run",
                f.id
            );
            let mut f_lost = f.result.log.degradation.lost_chunks.clone();
            let mut s_lost = s.result.log.degradation.lost_chunks.clone();
            f_lost.sort_unstable();
            s_lost.sort_unstable();
            prop_assert_eq!(f_lost, s_lost, "q{}: lost sets must match", f.id);
            for (w, g) in s.result.neighbors.iter().zip(f.result.neighbors.iter()) {
                prop_assert_eq!(w.id, g.id);
                prop_assert_eq!(w.dist.to_bits(), g.dist.to_bits());
            }
        }
    }
}

/// A flat ranking orders its first 32 ranks up front and the rest on
/// first demand. With `Chunks(40)` the fleet's lookahead walks across
/// that seam on every shard, and every answer must still be the serial
/// one, bit for bit.
#[test]
fn fleet_lookahead_across_the_ranked_head_is_exact() {
    let (snap, set) = snapshot("past_head", 1200, 10);
    assert!(snap.store().n_chunks() >= 100);
    let params = SearchParams {
        stop: StopRule::Chunks(40),
        ..SearchParams::exact(6)
    };
    let queries = trace(&set, 6, 1.5);
    let serial: Vec<SearchResult> = queries
        .iter()
        .map(|(q, _)| snap.search(q, &params).expect("serial"))
        .collect();
    for policy in Policy::ALL {
        let mut config = FleetConfig::new(policy, 4, 4);
        config.max_queued = queries.len();
        let report = FleetScheduler::new(snap.clone(), config)
            .serve_trace(&queries, &params)
            .expect("fleet");
        assert_eq!(report.report.completions.len(), queries.len());
        for (c, want) in report.report.completions.iter().zip(serial.iter()) {
            assert_eq!(c.result.log.chunks_read, 40);
            assert_bit_identical(want, &c.result, &format!("{} q{}", policy.name(), c.id));
        }
    }
}
