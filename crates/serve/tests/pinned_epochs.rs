//! Pinned epochs compose with every fold. A pin taken from a mutated
//! index — inserts, deletes and supersedes folded through at least one
//! installed compaction, plus a non-empty pending delta — is an ordinary
//! [`Snapshot`], so [`Scheduler`], [`FleetScheduler`] and
//! [`ImageScheduler`] — on one device and on a fleet — serve it like any
//! other, and every answer is bit-identical to the solo run on the same
//! pin.

#![cfg(test)]

mod common;

use common::{
    arb_former, arb_stop, assert_bit_identical, assert_same_ranking, lumpy_set, rr_map, spec,
    tmp_dir, trace,
};
use eff2_chaos::{FaultConfig, FaultPlan};
use eff2_core::chunkers::ChunkFormer;
use eff2_core::image::{solo_image_search, ImageStopRule};
use eff2_core::search::{SearchParams, SearchResult};
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::DescriptorSet;
use eff2_epoch::MutableIndex;
use eff2_serve::{
    FleetConfig, FleetScheduler, ImageConfig, ImageScheduler, LossScope, Policy, Scheduler,
    SchedulerConfig,
};
use eff2_shard::Placement;
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use proptest::prelude::*;

/// Applies `ops` mutations cycling insert / delete / supersede, with the
/// `j`-th touching base row `picks[j]`; fresh inserts get ids from
/// `set.len()` up.
fn mutate(index: &mut MutableIndex, set: &DescriptorSet, picks: &[usize], first_fresh: usize) {
    for (j, pick) in picks.iter().enumerate() {
        let at = pick % set.len();
        let mut vector = set.vector_owned(at);
        vector[1] += 0.25 + j as f32 * 0.01;
        match j % 3 {
            0 => index.insert((first_fresh + j) as u32, vector),
            1 => index.delete(at as u32),
            _ => index.insert(at as u32, vector),
        }
        .expect("mutation");
    }
}

/// A pin at generation ≥ 1 whose pending delta both inserts and
/// tombstones.
fn mutated_pin(
    set: &DescriptorSet,
    former: &dyn ChunkFormer,
    folded: &[usize],
    pending: &[usize],
) -> Snapshot {
    let formation = former.form(set);
    let mut index = MutableIndex::create(
        &tmp_dir("pinned"),
        "live",
        set,
        &formation.chunks,
        512,
        None,
        DiskModel::ata_2005(),
        30,
    )
    .expect("create");
    mutate(&mut index, set, folded, set.len());
    let plan = index.begin_compaction().expect("fold");
    index.install_compaction(plan).expect("install");
    mutate(&mut index, set, pending, set.len() + folded.len());
    let pin = index.pin();
    assert!(pin.generation() >= 1, "a compaction was installed");
    assert!(!pin.delta().inserts.is_empty(), "pending inserts");
    assert!(!pin.delta().tombstones.is_empty(), "pending tombstones");
    pin
}

fn picks(max: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..10_000, 3..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pinned_epoch_through_every_fold_equals_solo_on_the_pin(
        (former, stop) in (arb_former(), arb_stop()),
        (n, n_queries, k) in (150usize..320, 3usize..8, 1usize..9),
        (folded, pending) in (picks(24), picks(16)),
        (gap_ms, max_active, seed) in (0.0f64..6.0, 1usize..5, 1u64..200),
    ) {
        let set = lumpy_set(n);
        let pin = mutated_pin(&set, former.as_ref(), &folded, &pending);
        let params = SearchParams { k, stop, prefetch_depth: 2, log_snapshots: false };
        let queries = trace(&set, n_queries, gap_ms);
        let solo: Vec<SearchResult> = queries
            .iter()
            .map(|(q, _)| pin.search(q, &params).expect("solo"))
            .collect();

        for policy in Policy::ALL {
            let mut config = SchedulerConfig::new(policy, max_active);
            config.max_queued = queries.len();
            let report = Scheduler::new(pin.clone(), config)
                .serve_trace(&queries, &params)
                .expect("scheduler");
            prop_assert_eq!(report.completions.len(), queries.len());
            for (c, want) in report.completions.iter().zip(&solo) {
                assert_bit_identical(want, &c.result, &format!("{}/q{}", policy.name(), c.id));
            }
        }

        // Permanent loss of primaries only (the first seed that loses a
        // chunk of this generation): with two copies every lost read
        // fails over, and the answer stays the solo one.
        let lossy = (seed..)
            .map(|s| FaultPlan::new(FaultConfig::lossy(s, 0.2)))
            .find(|plan| !plan.permanent_losses(pin.n_chunks()).is_empty())
            .expect("some seed loses a chunk");
        let cells: Vec<_> = Placement::ALL
            .map(|p| (p, None))
            .into_iter()
            .chain([(Placement::ChunkHash, Some(lossy))])
            .map(|(placement, fault_plan)| {
                let mut config = FleetConfig::new(Policy::MostWantedChunk, 4, max_active);
                config.placement = placement;
                config.replication = 2;
                config.max_queued = queries.len();
                config.fault_plan = fault_plan;
                config.loss_scope = LossScope::Primary;
                (placement, fault_plan, config)
            })
            .collect();
        for (placement, fault_plan, config) in &cells {
            let fleet = FleetScheduler::new(pin.clone(), config.clone())
                .serve_trace(&queries, &params)
                .expect("fleet");
            prop_assert_eq!(fleet.report.completions.len(), queries.len());
            prop_assert_eq!(fleet.report.stats.sessions_degraded, 0);
            for (c, want) in fleet.report.completions.iter().zip(&solo) {
                let tag = format!("{}/lossy={}/q{}", placement.name(), fault_plan.is_some(), c.id);
                assert_bit_identical(want, &c.result, &tag);
            }
        }

        // One image query of three neighbouring descriptors per plain query.
        let image_of = rr_map(set.len() + folded.len() + pending.len(), 9);
        let specs: Vec<_> = (0..n_queries)
            .map(|i| spec(&set, i as u32, &[(i * 37) % n, (i * 37 + 1) % n, (i * 37 + 2) % n]))
            .collect();
        let image_trace: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), VirtualDuration::from_ms(gap_ms * i as f64)))
            .collect();
        let mut config = ImageConfig::new(Policy::MostWantedChunk, max_active, ImageStopRule::RunAll);
        config.scheduler.max_queued = image_trace.len();
        let report = ImageScheduler::new(pin.clone(), config, image_of.clone())
            .serve_trace(&image_trace, &params)
            .expect("image");
        prop_assert_eq!(report.completions.len(), specs.len());
        for (c, s) in report.completions.iter().zip(&specs) {
            let (want, want_results) =
                solo_image_search(&pin, s.label, &s.descriptors, &params, &image_of).expect("solo");
            let tag = format!("img{}", c.id);
            assert_same_ranking(&want.ranking, &c.outcome.ranking, &tag);
            prop_assert_eq!(c.outcome.descriptors_spent, want.descriptors_spent);
            for (d, (got, want)) in c.descriptor_results.iter().zip(&want_results).enumerate() {
                let got = got.as_ref().expect("run-all abandons nothing");
                assert_bit_identical(want, got, &format!("{tag}/d{d}"));
            }
        }

        // Grouping × device set: the same image queries on the 4-shard
        // fleet cells above. Which shard delivers a chunk changes nothing
        // a descriptor session computes, so every outcome is the solo one.
        for (placement, fault_plan, config) in &cells {
            // Run-all must equal solo; an early-stop rule tears sessions
            // (and their buffered deliveries) down and must still account
            // for every descriptor.
            let early = ImageStopRule::StableTop { m: 1, window: 1 };
            for stop in [ImageStopRule::RunAll, early] {
                let report = ImageScheduler::on_fleet(pin.clone(), config, stop, image_of.clone())
                    .serve_trace(&image_trace, &params)
                    .expect("image on fleet");
                prop_assert_eq!(report.completions.len(), specs.len());
                prop_assert_eq!(report.stats.images_degraded, 0);
                for (c, s) in report.completions.iter().zip(&specs) {
                    let o = &c.outcome;
                    prop_assert_eq!(o.descriptors_spent + o.descriptors_abandoned, o.descriptors_total);
                    if stop != ImageStopRule::RunAll {
                        continue;
                    }
                    let (want, want_results) =
                        solo_image_search(&pin, s.label, &s.descriptors, &params, &image_of)
                            .expect("solo");
                    let tag = format!("{}/lossy={}/img{}", placement.name(), fault_plan.is_some(), c.id);
                    assert_same_ranking(&want.ranking, &o.ranking, &tag);
                    prop_assert_eq!(o.descriptors_spent, want.descriptors_spent);
                    prop_assert_eq!(o.chunks_read, want.chunks_read);
                    prop_assert_eq!(o.fidelity, want.fidelity);
                    prop_assert_eq!(c.descriptor_results.len(), want_results.len());
                    for (d, (got, want)) in c.descriptor_results.iter().zip(&want_results).enumerate() {
                        let got = got.as_ref().expect("run-all abandons nothing");
                        assert_bit_identical(want, got, &format!("{tag}/d{d}"));
                    }
                }
            }
        }
    }
}
