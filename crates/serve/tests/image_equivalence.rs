//! The image layer's load-bearing properties:
//!
//! 1. a run-to-completion image query through the interleaved
//!    [`ImageScheduler`] is bit-identical — per-descriptor results *and*
//!    image vote ranking — to [`solo_image_search`], under ANY policy,
//!    ANY chunker, ANY per-descriptor stop rule and ANY concurrency;
//! 2. whenever an early-terminated run's stability certificate holds,
//!    its top-`m` image prefix agrees with the full run's;
//! 3. `descriptors_spent + descriptors_abandoned == descriptors_total`,
//!    always, per query and in the fleet totals.

#![cfg(test)]

mod common;

use common::{
    arb_former, arb_policy, arb_stop, assert_bit_identical, assert_same_ranking, build_snapshot,
    image_trace, lumpy_set, retry, scan_all,
};
use eff2_chaos::plan::TRANSIENT_CLEAR;
use eff2_chaos::{FaultConfig, FaultPlan, RetryPolicy};
use eff2_core::chunkers::{ChunkFormer, SrTreeChunker};
use eff2_core::image::{solo_image_search, ImageStopRule};
use eff2_core::search::{ResultFidelity, SearchParams};
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::Vector;
use eff2_serve::{
    ImageConfig, ImageQuerySpec, ImageScheduler, ImageServeReport, Policy, Scheduler,
    SchedulerConfig,
};
use eff2_storage::diskmodel::VirtualDuration;
use eff2_workload::{image_of_map, image_queries};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_image_stop() -> impl Strategy<Value = ImageStopRule> {
    prop_oneof![
        ((1usize..6), (1usize..4)).prop_map(|(m, window)| ImageStopRule::StableTop { m, window }),
        (1usize..6).prop_map(|m| ImageStopRule::CertifiedTop { m }),
    ]
}

/// Any image stop rule, the run-everything one included.
fn arb_any_image_stop() -> impl Strategy<Value = ImageStopRule> {
    prop_oneof![Just(ImageStopRule::RunAll), arb_image_stop()]
}

/// One image-scheduler run of `trace` with every admitted query kept and
/// per-descriptor results retained, under an optional fault plan.
fn run_images(
    snap: &Snapshot,
    image_of: &Arc<Vec<u32>>,
    mut config: ImageConfig,
    fault: Option<(FaultPlan, RetryPolicy)>,
    trace: &[(ImageQuerySpec, VirtualDuration)],
    params: &SearchParams,
) -> ImageServeReport {
    config.scheduler.max_queued = trace.len();
    if let Some((plan, retry)) = fault {
        config.scheduler.fault_plan = Some(plan);
        config.scheduler.retry = retry;
    }
    ImageScheduler::new(snap.clone(), config, Arc::clone(image_of))
        .serve_trace(trace, params)
        .expect("serve")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Property 1: run-to-completion interleaved image queries are
    /// bit-identical to the solo reference — per descriptor and in the
    /// aggregated vote ranking — across policies × chunkers ×
    /// per-descriptor stop rules × concurrency levels.
    #[test]
    fn interleaved_image_queries_equal_solo(
        (former, policy, stop) in (arb_former(), arb_policy(), arb_stop()),
        (n, n_images, n_queries) in (150usize..400, 6usize..20, 1usize..5),
        (per_query, max_active, k) in (1usize..7, 1usize..4, 1usize..8),
        (gap_ms, seed) in (0.0f64..10.0, 0u64..1000),
    ) {
        let set = lumpy_set(n);
        let snap = build_snapshot("solo", &set, former.as_ref());
        let image_of = Arc::new(image_of_map(set.len(), n_images, 0.8, seed));
        let queries = image_queries(&set, &image_of, n_queries, per_query, seed ^ 0x5eed);
        let params = SearchParams { k, stop, prefetch_depth: 2, log_snapshots: false };

        let solo: Vec<_> = queries
            .iter()
            .map(|q| {
                solo_image_search(&snap, q.image, &q.descriptors, &params, &image_of)
                    .expect("solo")
            })
            .collect();

        let config = ImageConfig::new(policy, max_active, ImageStopRule::RunAll);
        let trace = image_trace(&queries, gap_ms);
        let report = run_images(&snap, &image_of, config, None, &trace, &params);
        prop_assert_eq!(report.stats.rejected, 0u64);
        prop_assert_eq!(report.completions.len(), queries.len());

        for c in &report.completions {
            let (want_outcome, want_results) = solo.get(c.id as usize).expect("id");
            let tag = format!("{}/act{max_active}/img{}", policy.name(), c.id);
            assert_same_ranking(&want_outcome.ranking, &c.outcome.ranking, &tag);
            prop_assert_eq!(c.outcome.descriptors_abandoned, 0);
            prop_assert_eq!(c.outcome.descriptors_spent, want_outcome.descriptors_spent);
            prop_assert!(c.outcome.certificate, "no-abandonment runs self-certify");
            prop_assert_eq!(c.outcome.fidelity, want_outcome.fidelity);
            let results = &c.descriptor_results;
            prop_assert_eq!(results.len(), want_results.len());
            for (d, (got, want)) in results.iter().zip(want_results.iter()).enumerate() {
                let got = got.as_ref().expect("no descriptor was abandoned");
                assert_bit_identical(want, got, &format!("{tag}/d{d}"));
            }
        }
    }

    /// Properties 2 + 3: under an early-termination rule, accounting is
    /// exact (spent + abandoned == total, per query and in the fleet
    /// totals), and whenever the stability certificate holds the top-`m`
    /// prefix agrees with the full (solo) run's.
    #[test]
    fn early_termination_certificate_and_accounting(
        (former, policy, image_stop) in (arb_former(), arb_policy(), arb_image_stop()),
        (n, n_images, n_queries) in (150usize..400, 4usize..16, 1usize..5),
        (per_query, max_active, k) in (2usize..10, 1usize..4, 1usize..8),
        seed in 0u64..1000,
    ) {
        let set = lumpy_set(n);
        let snap = build_snapshot("early", &set, former.as_ref());
        let image_of = Arc::new(image_of_map(set.len(), n_images, 0.8, seed));
        let queries = image_queries(&set, &image_of, n_queries, per_query, seed ^ 0xabcd);
        let params = SearchParams::exact(k);

        let solo: Vec<_> = queries
            .iter()
            .map(|q| {
                solo_image_search(&snap, q.image, &q.descriptors, &params, &image_of)
                    .expect("solo")
            })
            .collect();

        let mut config = ImageConfig::new(policy, max_active, image_stop);
        config.scheduler.max_queued = queries.len();
        let trace = image_trace(&queries, 1.0);
        let report = ImageScheduler::new(snap.clone(), config, Arc::clone(&image_of))
            .serve_trace(&trace, &params)
            .expect("serve");
        prop_assert_eq!(report.completions.len(), queries.len());

        let m = match image_stop {
            ImageStopRule::StableTop { m, .. } | ImageStopRule::CertifiedTop { m } => m,
            ImageStopRule::RunAll => panic!("strategy never draws RunAll"),
        };
        let mut fleet_spent = 0u64;
        let mut fleet_abandoned = 0u64;
        for c in &report.completions {
            // Property 3: exact accounting.
            prop_assert_eq!(
                c.outcome.descriptors_spent + c.outcome.descriptors_abandoned,
                c.outcome.descriptors_total
            );
            prop_assert_eq!(c.outcome.descriptors_total, per_query);
            fleet_spent += c.outcome.descriptors_spent as u64;
            fleet_abandoned += c.outcome.descriptors_abandoned as u64;

            // Property 2: a held certificate pins the ordered prefix.
            let (want, _) = solo.get(c.id as usize).expect("id");
            if c.outcome.certificate {
                prop_assert_eq!(
                    c.outcome.top_images(m),
                    want.top_images(m),
                    "certified prefix diverged: {} img{}",
                    image_stop.label(),
                    c.id
                );
            }
            // A CertifiedTop stop only ever fires on a proof.
            if matches!(image_stop, ImageStopRule::CertifiedTop { .. })
                && c.outcome.descriptors_abandoned > 0
            {
                prop_assert!(c.outcome.certificate);
            }
        }
        prop_assert_eq!(fleet_spent, report.stats.descriptors_spent);
        prop_assert_eq!(fleet_abandoned, report.stats.descriptors_abandoned);
    }
}

/// A small image workload over `former`'s chunks: the snapshot, the
/// descriptor→image map and `n_queries` queries of `per_query` descriptors.
fn image_workload(
    tag: &str,
    former: &dyn ChunkFormer,
    n: usize,
    n_queries: usize,
    per_query: usize,
    seed: u64,
) -> (
    Snapshot,
    Arc<Vec<u32>>,
    Vec<(ImageQuerySpec, VirtualDuration)>,
) {
    let set = lumpy_set(n);
    let snap = build_snapshot(tag, &set, former);
    let image_of = Arc::new(image_of_map(set.len(), 12, 0.8, seed));
    let queries = image_queries(&set, &image_of, n_queries, per_query, seed ^ 0xc4a05);
    (snap, image_of, image_trace(&queries, 1.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Image × chaos (a): a fault plan whose every rate is zero changes
    /// nothing — outcomes, per-descriptor results, finish times and
    /// counters are those of the fault-free run, bit for bit.
    #[test]
    fn rate_zero_plan_is_bit_identical_to_the_fault_free_image_run(
        (former, policy, image_stop) in (arb_former(), arb_policy(), arb_any_image_stop()),
        (n, n_queries, per_query) in (150usize..400, 1usize..5, 1usize..8),
        (max_active, k, seed) in (1usize..4, 1usize..8, 0u64..1000),
    ) {
        let (snap, image_of, trace) =
            image_workload("quiet", former.as_ref(), n, n_queries, per_query, seed);
        let params = SearchParams::exact(k);
        let config = ImageConfig::new(policy, max_active, image_stop);
        let plain = run_images(&snap, &image_of, config, None, &trace, &params);
        let quiet_plan = (FaultPlan::new(FaultConfig::quiet(seed)), retry(3, 5.0));
        let quiet = run_images(&snap, &image_of, config, Some(quiet_plan), &trace, &params);
        prop_assert_eq!(format!("{:?}", plain.stats), format!("{:?}", quiet.stats));
        prop_assert_eq!(plain.makespan.as_secs().to_bits(), quiet.makespan.as_secs().to_bits());
        prop_assert_eq!(plain.completions.len(), quiet.completions.len());
        for (a, b) in plain.completions.iter().zip(quiet.completions.iter()) {
            prop_assert_eq!(a.finish.as_secs().to_bits(), b.finish.as_secs().to_bits());
            prop_assert_eq!(format!("{:?}", a.outcome), format!("{:?}", b.outcome));
            let (ra, rb) = (&a.descriptor_results, &b.descriptor_results);
            for (d, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
                match (x, y) {
                    (Some(x), Some(y)) => assert_bit_identical(x, y, &format!("img{}/d{d}", a.id)),
                    (None, None) => {}
                    _ => prop_assert!(false, "img{} d{d}: abandoned on one side only", a.id),
                }
            }
        }
    }

    /// Image × chaos (b): purely transient faults under a retry budget that
    /// outlasts them cost retries and fleet time, and nothing else — every
    /// outcome (and every per-descriptor result) still equals the solo
    /// reference.
    #[test]
    fn recovered_transients_leave_every_image_outcome_equal_to_solo(
        (former, policy, stop) in (arb_former(), arb_policy(), arb_stop()),
        (n, n_queries, per_query) in (150usize..400, 1usize..5, 1usize..7),
        (max_active, k, seed) in (1usize..4, 1usize..8, 0u64..1000),
    ) {
        let (snap, image_of, trace) =
            image_workload("flaky", former.as_ref(), n, n_queries, per_query, seed);
        let params = SearchParams { k, stop, prefetch_depth: 2, log_snapshots: false };
        let config = ImageConfig::new(policy, max_active, ImageStopRule::RunAll);
        let plain = run_images(&snap, &image_of, config, None, &trace, &params);
        // Every first attempt fails; half a second per failed attempt
        // dwarfs the fault-free makespan, so "later" is unambiguous.
        let flaky_plan = (
            FaultPlan::new(FaultConfig::flaky(seed, 1.0)),
            retry(TRANSIENT_CLEAR + 1, 500.0),
        );
        let flaky = run_images(&snap, &image_of, config, Some(flaky_plan), &trace, &params);
        prop_assert!(flaky.stats.fetch_retries > 0, "transients must retry");
        prop_assert_eq!(flaky.stats.chunks_abandoned, 0u64);
        prop_assert_eq!(flaky.stats.images_degraded, 0u64);
        prop_assert_eq!(flaky.completions.len(), trace.len());
        for (c, p) in flaky.completions.iter().zip(plain.completions.iter()) {
            let (spec, _) = trace.get(c.id as usize).expect("id");
            let (want, want_results) =
                solo_image_search(&snap, spec.label, &spec.descriptors, &params, &image_of)
                    .expect("solo");
            assert_same_ranking(&want.ranking, &c.outcome.ranking, &format!("flaky img{}", c.id));
            prop_assert_eq!(c.outcome.descriptors_spent, want.descriptors_spent);
            prop_assert_eq!(c.outcome.descriptors_abandoned, 0);
            prop_assert_eq!(c.outcome.fidelity, want.fidelity);
            prop_assert_eq!(c.outcome.chunks_read, want.chunks_read);
            prop_assert_eq!(c.outcome.descriptors_lost, 0u64);
            let results = &c.descriptor_results;
            for (d, (got, want)) in results.iter().zip(want_results.iter()).enumerate() {
                let got = got.as_ref().expect("run-all abandons nothing");
                assert_bit_identical(want, got, &format!("flaky img{}/d{d}", c.id));
            }
            prop_assert!(
                c.finish.as_secs() > p.finish.as_secs(),
                "retries are charged to the fleet clock: {} vs {}", c.finish, p.finish
            );
        }
    }

    /// Image × chaos (c): permanent loss with no retry budget still
    /// completes every image; the degraded ones are counted, and the
    /// descriptor accounting stays exact.
    #[test]
    fn permanent_loss_degrades_images_and_keeps_the_accounting_exact(
        (former, policy, image_stop) in (arb_former(), arb_policy(), arb_any_image_stop()),
        (n, n_queries, per_query) in (150usize..400, 1usize..5, 1usize..8),
        (max_active, k, seed) in (1usize..4, 1usize..8, 0u64..1000),
    ) {
        let (snap, image_of, trace) =
            image_workload("lossy", former.as_ref(), n, n_queries, per_query, seed);
        let params = scan_all(k);
        let plan = FaultPlan::new(FaultConfig::lossy(seed, 0.25));
        let lost = plan.permanent_losses(snap.n_chunks());
        let config = ImageConfig::new(policy, max_active, image_stop);
        let lossy_plan = (plan, RetryPolicy::none());
        let report = run_images(&snap, &image_of, config, Some(lossy_plan), &trace, &params);
        prop_assert_eq!(report.completions.len(), trace.len());
        prop_assert_eq!(report.stats.fetch_retries, 0u64, "no retry budget");
        prop_assert_eq!(report.stats.chunks_abandoned > 0, !lost.is_empty());
        let mut degraded = 0u64;
        let (mut spent, mut abandoned) = (0u64, 0u64);
        for c in &report.completions {
            prop_assert_eq!(
                c.outcome.descriptors_spent + c.outcome.descriptors_abandoned,
                c.outcome.descriptors_total
            );
            prop_assert_eq!(c.outcome.descriptors_total, per_query);
            spent += c.outcome.descriptors_spent as u64;
            abandoned += c.outcome.descriptors_abandoned as u64;
            let is_degraded = c.outcome.fidelity == ResultFidelity::Degraded;
            prop_assert_eq!(is_degraded, !lost.is_empty(), "img{}", c.id);
            degraded += u64::from(is_degraded);
            for r in c.descriptor_results.iter().flatten() {
                let mut skipped = r.log.degradation.lost_chunks.clone();
                skipped.sort_unstable();
                prop_assert_eq!(&skipped, &lost, "every session skips exactly the losses");
            }
        }
        prop_assert_eq!(report.stats.images_degraded, degraded);
        prop_assert_eq!(report.stats.descriptors_spent, spent);
        prop_assert_eq!(report.stats.descriptors_abandoned, abandoned);
    }

    /// Image × chaos (d): a one-descriptor image is a plain query — under
    /// the same lossy, flaky plan the image scheduler and the descriptor
    /// scheduler agree on result bits, degradation report, finish-time
    /// bits and fault counters.
    #[test]
    fn one_descriptor_images_equal_the_scheduler_under_the_same_plan(
        (former, policy, image_stop) in (arb_former(), arb_policy(), arb_any_image_stop()),
        (n, n_queries, max_active) in (150usize..400, 1usize..8, 1usize..4),
        (k, seed, attempts) in (1usize..8, 0u64..1000, 1u32..4),
    ) {
        let (snap, image_of, trace) =
            image_workload("single", former.as_ref(), n, n_queries, 1, seed);
        let params = SearchParams::exact(k);
        let plan = FaultPlan::new(FaultConfig {
            transient_rate: 0.3,
            ..FaultConfig::lossy(seed, 0.2)
        });
        let image_config = ImageConfig::new(policy, max_active, image_stop);
        let fault = (plan, retry(attempts, 5.0));
        let images = run_images(&snap, &image_of, image_config, Some(fault), &trace, &params);

        let queries: Vec<(Vector, VirtualDuration)> = trace
            .iter()
            .map(|(spec, at)| (*spec.descriptors.first().expect("one descriptor"), *at))
            .collect();
        let mut config = SchedulerConfig::new(policy, max_active);
        config.max_queued = queries.len();
        config.fault_plan = Some(plan);
        config.retry = retry(attempts, 5.0);
        let plain = Scheduler::new(snap.clone(), config)
            .serve_trace(&queries, &params)
            .expect("serve");

        prop_assert_eq!(images.stats.fetches, plain.stats.fetches);
        prop_assert_eq!(images.stats.feeds, plain.stats.feeds);
        prop_assert_eq!(images.stats.fetch_retries, plain.stats.fetch_retries);
        prop_assert_eq!(images.stats.chunks_abandoned, plain.stats.chunks_abandoned);
        prop_assert_eq!(images.stats.images_degraded, plain.stats.sessions_degraded);
        prop_assert_eq!(images.makespan.as_secs().to_bits(), plain.makespan.as_secs().to_bits());
        prop_assert_eq!(images.completions.len(), plain.completions.len());
        for (i, p) in images.completions.iter().zip(plain.completions.iter()) {
            prop_assert_eq!(i.finish.as_secs().to_bits(), p.finish.as_secs().to_bits());
            let got = i.descriptor_results.first().and_then(Option::as_ref).expect("absorbed");
            assert_bit_identical(&p.result, got, &format!("{} q{}", policy.name(), p.id));
            prop_assert_eq!(i.outcome.descriptors_lost, p.result.log.degradation.descriptors_lost);
        }
    }
}

/// The image scheduler is a pure function of (snapshot, config, trace):
/// replays agree tick for tick, including early-termination decisions.
#[test]
fn image_scheduler_replays_are_bit_identical() {
    let set = lumpy_set(500);
    let snap = build_snapshot("replay", &set, &SrTreeChunker { leaf_size: 30 });
    let image_of = Arc::new(image_of_map(set.len(), 12, 1.0, 3));
    let queries = image_queries(&set, &image_of, 6, 5, 17);
    let params = SearchParams::exact(6);
    let trace = image_trace(&queries, 2.0);
    for policy in Policy::ALL {
        let run = || {
            let config = ImageConfig::new(policy, 3, ImageStopRule::StableTop { m: 3, window: 2 });
            ImageScheduler::new(snap.clone(), config, Arc::clone(&image_of))
                .serve_trace(&trace, &params)
                .expect("serve")
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats.fetches, b.stats.fetches);
        assert_eq!(a.stats.feeds, b.stats.feeds);
        assert_eq!(a.stats.descriptors_spent, b.stats.descriptors_spent);
        assert_eq!(a.stats.descriptors_abandoned, b.stats.descriptors_abandoned);
        assert_eq!(
            a.makespan.as_secs().to_bits(),
            b.makespan.as_secs().to_bits()
        );
        for (x, y) in a.completions.iter().zip(b.completions.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish.as_secs().to_bits(), y.finish.as_secs().to_bits());
            assert_same_ranking(
                &x.outcome.ranking,
                &y.outcome.ranking,
                &format!("replay/{}", policy.name()),
            );
            assert_eq!(x.outcome.descriptors_spent, y.outcome.descriptors_spent);
            assert_eq!(x.outcome.events, y.outcome.events);
        }
    }
}
