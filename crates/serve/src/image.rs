//! Image-query serving: one [`SearchSession`] per query descriptor,
//! interleaved chunk-by-chunk across sibling descriptors *and* across
//! concurrent image queries, with a cross-descriptor early-termination
//! rule.
//!
//! The [`ImageScheduler`] is the crate's one serving engine (`engine.rs`)
//! under the *image-votes* fold — on a single device
//! ([`ImageScheduler::new`]) or on a fleet's shard nodes
//! ([`ImageScheduler::on_fleet`]) — so it shares the per-descriptor
//! [`Scheduler`](crate::Scheduler)'s policies, cache, fleet clock and
//! fault handling. The unit of admission is the image
//! query; the unit of scheduling stays the (descriptor session, chunk)
//! pair, so [`Policy::MostWantedChunk`] fans one chunk read out across
//! *sibling descriptors of the same image* as readily as across unrelated
//! queries — descriptors cropped from one image are near-duplicates,
//! which is exactly the co-scheduling opportunity.
//!
//! When a descriptor session completes, its retained neighbours are
//! folded into the image's [`ImageAggregator`]. If the image's
//! [`ImageStopRule`] then fires — the top-`m` image ranking has been
//! stable for `S` consecutive completions, or the vote margins prove the
//! prefix final — every sibling session still in flight is torn down and
//! booked as abandoned: the "fraction of the query points suffices"
//! trade-off, with `descriptors_spent + descriptors_abandoned ==`
//! set size always.
//!
//! Determinism carries over from the descriptor layer: per-descriptor
//! results are bit-identical to solo runs under any feeding order, and
//! the vote fold is commutative, so a run-to-completion image query is
//! bit-identical to
//! [`solo_image_search`](eff2_core::image::solo_image_search) under every
//! policy — the `image_equivalence` proptests pin this down.

use crate::engine::{Admission, Devices, Drained, Engine, Folded, Group, Retired};
use crate::error::Result;
use crate::fleet::FleetConfig;
use crate::scheduler::{Policy, SchedulerConfig};
use eff2_core::image::{ImageAggregator, ImageOutcome, ImageStopRule};
use eff2_core::search::{ResultFidelity, SearchParams, SearchResult};
#[cfg(doc)]
use eff2_core::session::SearchSession;
use eff2_core::snapshot::Snapshot;
use eff2_descriptor::Vector;
use eff2_storage::diskmodel::VirtualDuration;
use eff2_storage::source::ResidentStats;
use std::sync::Arc;

/// One image query offered to the scheduler: a ground-truth label and
/// the descriptor set voting on its behalf.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageQuerySpec {
    /// The query's source image (carried through to the outcome).
    pub label: u32,
    /// The query descriptors; one [`SearchSession`] is run per entry.
    pub descriptors: Vec<Vector>,
}

/// Image-scheduler knobs.
#[derive(Clone, Copy, Debug)]
pub struct ImageConfig {
    /// Policy, concurrency (counted in image queries, each of which may
    /// hold many descriptor sessions), queue, cache, fault plan and retry
    /// budget — shared with the descriptor scheduler.
    pub scheduler: SchedulerConfig,
    /// The cross-descriptor early-termination rule.
    pub stop: ImageStopRule,
}

impl ImageConfig {
    /// A config for `policy` at image concurrency `max_active` under
    /// `stop`, with [`SchedulerConfig::new`]'s queue and cache.
    pub fn new(policy: Policy, max_active: usize, stop: ImageStopRule) -> ImageConfig {
        ImageConfig {
            scheduler: SchedulerConfig::new(policy, max_active),
            stop,
        }
    }
}

/// One finished image query.
#[derive(Clone, Debug)]
pub struct ImageCompletion {
    /// Submission order (0-based).
    pub id: u64,
    /// Virtual arrival time.
    pub arrival: VirtualDuration,
    /// Fleet-clock time of the last absorbed descriptor completion.
    pub finish: VirtualDuration,
    /// The aggregated vote outcome.
    pub outcome: ImageOutcome,
    /// Per-descriptor results, indexed by descriptor position (`None` for
    /// an abandoned descriptor).
    pub descriptor_results: Vec<Option<SearchResult>>,
}

impl ImageCompletion {
    /// Arrival-to-finish latency on the fleet clock.
    pub fn latency(&self) -> VirtualDuration {
        self.finish - self.arrival
    }
}

/// Fleet-level counters for an image-scheduler run.
#[derive(Clone, Debug, Default)]
pub struct ImageServeStats {
    /// Image queries offered to the scheduler.
    pub submitted: u64,
    /// Image queries refused by admission control.
    pub rejected: u64,
    /// Image queries finished.
    pub completed: u64,
    /// Scheduling ticks (= chunk fetches issued).
    pub ticks: u64,
    /// Chunk deliveries from the shared source.
    pub fetches: u64,
    /// Fetches that went to the disk (the rest were cache hits).
    pub disk_reads: u64,
    /// Descriptor-session feeds (total `step_with` calls).
    pub feeds: u64,
    /// Descriptor sessions run to completion and absorbed.
    pub descriptors_spent: u64,
    /// Descriptor sessions torn down by a fired image stop rule.
    pub descriptors_abandoned: u64,
    /// Completions whose finish exceeded their deadline.
    pub deadline_misses: u64,
    /// Completions whose aggregate fidelity was `Degraded`.
    pub images_degraded: u64,
    /// Failed fetch attempts (injected or real) that were retried.
    pub fetch_retries: u64,
    /// Chunks declared lost after the retry budget ran out; every
    /// descriptor session waiting on one skipped it and continued degraded.
    pub chunks_abandoned: u64,
    /// Shared chunk-cache counters.
    pub cache: ResidentStats,
}

/// Everything a finished image-scheduler run produced.
#[derive(Clone, Debug)]
pub struct ImageServeReport {
    /// Per-image completions, sorted by submission id.
    pub completions: Vec<ImageCompletion>,
    /// Fleet counters.
    pub stats: ImageServeStats,
    /// Fleet-clock time at which the last image finished.
    pub makespan: VirtualDuration,
}

impl ImageServeReport {
    /// Completed image queries per virtual second (0 for an empty run).
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.makespan.as_secs();
        if secs > 0.0 {
            self.stats.completed as f64 / secs
        } else {
            0.0
        }
    }
}

/// The image-votes fold: one member per query descriptor, absorbed into
/// an [`ImageAggregator`] whose stop rule may abandon the siblings.
pub(crate) struct ImageVotes {
    /// Descriptor id → image id, shared by every query's vote fold.
    image_of: Arc<Vec<u32>>,
    stop: ImageStopRule,
}

/// An image job's state: the votes collected so far.
pub(crate) struct ImageJob {
    label: u32,
    agg: ImageAggregator,
    /// Absorbed per-descriptor results, indexed by descriptor position
    /// (`None` for abandoned descriptors).
    results: Vec<Option<SearchResult>>,
    /// Fleet-clock time of the latest ranking charge or absorbed
    /// completion.
    finish: VirtualDuration,
}

impl Group for ImageVotes {
    type Spec = ImageQuerySpec;
    type Job = ImageJob;
    type Output = ImageCompletion;

    /// Ranks each descriptor (charging its chunk-index ranking CPU on the
    /// fleet clock) and opens its session. A session that completes
    /// without reading a chunk (`k = 0`, an empty index) is absorbed here
    /// and runs the stop rule exactly like a mid-flight one, so a rule
    /// that fires during admission abandons the not-yet-ranked
    /// descriptors too.
    fn admit(
        &mut self,
        cx: &mut Admission<'_>,
        spec: &ImageQuerySpec,
        params: &SearchParams,
    ) -> Result<ImageJob> {
        let n = spec.descriptors.len();
        let mut job = ImageJob {
            label: spec.label,
            agg: ImageAggregator::new(Arc::clone(&self.image_of), params.k, n, self.stop),
            results: vec![None; n],
            finish: cx.now(),
        };
        for (d, q) in spec.descriptors.iter().enumerate() {
            if job.agg.is_done() {
                break;
            }
            let (ranked_at, done) = cx.open(d as u32, q, params)?;
            if let Some(result) = done {
                self.on_done(&mut job, d as u32, result, ranked_at);
            }
            job.finish = job.finish.max(ranked_at);
        }
        Ok(job)
    }

    /// Absorbs one completed descriptor search and runs the stop rule; a
    /// fired rule books every remaining descriptor as abandoned, which
    /// finishes the job and tears its sibling sessions down.
    fn on_done(&mut self, job: &mut ImageJob, d: u32, result: SearchResult, at: VirtualDuration) {
        job.finish = job.finish.max(at);
        if job.agg.absorb(&result) {
            job.agg.abandon_rest();
        }
        if let Some(slot) = job.results.get_mut(d as usize) {
            *slot = Some(result);
        }
    }

    fn finished(&self, job: &ImageJob) -> bool {
        job.agg.is_done()
    }

    fn output(&mut self, retired: Retired, job: ImageJob) -> Result<Folded<ImageCompletion>> {
        let outcome = job.agg.into_outcome(job.label);
        Ok(Folded {
            finish: job.finish,
            degraded: outcome.fidelity == ResultFidelity::Degraded,
            output: ImageCompletion {
                id: retired.id,
                arrival: retired.arrival,
                finish: job.finish,
                outcome,
                descriptor_results: job.results,
            },
        })
    }
}

/// The interleaved image-query scheduler. See the [module docs](self).
#[derive(Debug)]
pub struct ImageScheduler(Engine<ImageVotes>);

impl ImageScheduler {
    /// A scheduler over `snapshot` with `config`, voting through the
    /// `image_of` descriptor→image map.
    pub fn new(snapshot: Snapshot, config: ImageConfig, image_of: Arc<Vec<u32>>) -> ImageScheduler {
        let votes = ImageVotes {
            image_of,
            stop: config.stop,
        };
        let devices = Devices::new(None);
        ImageScheduler(Engine::new(snapshot, config.scheduler, devices, votes))
    }

    /// The same scheduler over the shard nodes of `fleet` instead of one
    /// device: placement, replication, failover and shard faults as in a
    /// [`FleetScheduler`](crate::FleetScheduler), with `fleet`'s policy,
    /// concurrency (counted in image queries), queue, cache, fault plan
    /// and retry budget. Each descriptor session is ranked on its own home
    /// shard. Completions keep their per-descriptor results, as on one
    /// device.
    pub fn on_fleet(
        snapshot: Snapshot,
        fleet: &FleetConfig,
        stop: ImageStopRule,
        image_of: Arc<Vec<u32>>,
    ) -> ImageScheduler {
        let votes = ImageVotes { image_of, stop };
        let (devices, _) = crate::fleet::devices(&snapshot, fleet);
        ImageScheduler(Engine::new(snapshot, fleet.scheduler(), devices, votes))
    }

    /// Submits a whole trace of `(spec, arrival)` pairs (already in
    /// arrival order) and drains. Overload rejections are recorded
    /// rather than aborting the run.
    pub fn serve_trace(
        self,
        trace: &[(ImageQuerySpec, VirtualDuration)],
        params: &SearchParams,
    ) -> Result<ImageServeReport> {
        self.0
            .serve_trace(trace, params)
            .map(ImageServeReport::from)
    }
}

impl From<Drained<ImageVotes>> for ImageServeReport {
    fn from(drained: Drained<ImageVotes>) -> ImageServeReport {
        let s = drained.stats;
        let sum = |f: fn(&ImageOutcome) -> usize| -> u64 {
            drained
                .outputs
                .iter()
                .map(|c| f(&c.outcome) as u64)
                .sum::<u64>()
        };
        ImageServeReport {
            stats: ImageServeStats {
                submitted: s.submitted,
                rejected: s.rejected,
                completed: s.completed,
                ticks: s.ticks,
                fetches: s.fetches,
                disk_reads: s.disk_reads,
                feeds: s.feeds,
                descriptors_spent: sum(|o| o.descriptors_spent),
                descriptors_abandoned: sum(|o| o.descriptors_abandoned),
                deadline_misses: s.deadline_misses,
                images_degraded: s.sessions_degraded,
                fetch_retries: s.fetch_retries,
                chunks_abandoned: s.chunks_abandoned,
                cache: s.cache,
            },
            completions: drained.outputs,
            makespan: drained.makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_same_ranking, rr_map, snapshot, spec};
    use crate::ServeError;
    use eff2_core::image::solo_image_search;

    #[test]
    fn run_all_matches_solo_under_every_policy() {
        let (snap, set) = snapshot("runall", 600, 30);
        let image_of = rr_map(set.len(), 24);
        let params = SearchParams::exact(6);
        let specs: Vec<ImageQuerySpec> = (0..4)
            .map(|i| {
                spec(
                    &set,
                    i,
                    &[i as usize * 7, i as usize * 7 + 24, i as usize * 7 + 48],
                )
            })
            .collect();
        let solo: Vec<_> = specs
            .iter()
            .map(|s| {
                solo_image_search(&snap, s.label, &s.descriptors, &params, &image_of).expect("solo")
            })
            .collect();
        for policy in Policy::ALL {
            let config = ImageConfig::new(policy, 2, ImageStopRule::RunAll);
            let trace: Vec<(ImageQuerySpec, VirtualDuration)> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| (s.clone(), VirtualDuration::from_ms(i as f64)))
                .collect();
            let report = ImageScheduler::new(snap.clone(), config, Arc::clone(&image_of))
                .serve_trace(&trace, &params)
                .expect("serve");
            assert_eq!(report.completions.len(), specs.len());
            for (c, (want, _)) in report.completions.iter().zip(solo.iter()) {
                assert_same_ranking(
                    &want.ranking,
                    &c.outcome.ranking,
                    &format!("{}/img{}", policy.name(), c.id),
                );
                assert_eq!(c.outcome.descriptors_abandoned, 0);
                assert!(c.outcome.certificate);
            }
        }
    }

    #[test]
    fn empty_descriptor_set_completes_exact_and_empty() {
        let (snap, set) = snapshot("empty", 200, 25);
        let image_of = rr_map(set.len(), 8);
        let params = SearchParams::exact(4);
        let config = ImageConfig::new(
            Policy::MostWantedChunk,
            2,
            ImageStopRule::StableTop { m: 5, window: 1 },
        );
        let trace = vec![(
            ImageQuerySpec {
                label: 3,
                descriptors: Vec::new(),
            },
            VirtualDuration::ZERO,
        )];
        let report = ImageScheduler::new(snap, config, image_of)
            .serve_trace(&trace, &params)
            .expect("serve");
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.fetches, 0);
        let Some(c) = report.completions.first() else {
            panic!("one completion expected");
        };
        assert!(c.outcome.ranking.is_empty());
        assert_eq!(c.outcome.descriptors_total, 0);
        assert_eq!(c.outcome.descriptors_spent, 0);
        assert_eq!(c.outcome.descriptors_abandoned, 0);
        assert_eq!(c.outcome.fidelity, eff2_core::search::ResultFidelity::Exact);
        assert!(c.outcome.certificate);
    }

    #[test]
    fn k_zero_completes_without_reading_and_accounting_holds() {
        let (snap, set) = snapshot("kzero", 200, 25);
        let image_of = rr_map(set.len(), 8);
        let params = SearchParams {
            k: 0,
            ..SearchParams::exact(0)
        };
        // A stable-empty ranking fires the stop rule after the window;
        // everything still sums.
        let config = ImageConfig::new(
            Policy::FairShare,
            2,
            ImageStopRule::StableTop { m: 5, window: 1 },
        );
        let trace = vec![(spec(&set, 1, &[0, 8, 16, 24, 32]), VirtualDuration::ZERO)];
        let report = ImageScheduler::new(snap, config, image_of)
            .serve_trace(&trace, &params)
            .expect("serve");
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.fetches, 0, "k = 0 reads nothing");
        let Some(c) = report.completions.first() else {
            panic!("one completion expected");
        };
        assert!(c.outcome.ranking.is_empty());
        assert_eq!(
            c.outcome.descriptors_spent + c.outcome.descriptors_abandoned,
            c.outcome.descriptors_total
        );
        assert!(
            c.outcome.descriptors_abandoned > 0,
            "the stable-empty prefix must fire during admission"
        );
    }

    #[test]
    fn single_descriptor_image_is_bit_identical_to_plain_search() {
        let (snap, set) = snapshot("single", 400, 30);
        let image_of = rr_map(set.len(), 16);
        let params = SearchParams::exact(5);
        let q = set.vector_owned(33);
        let want = snap.search(&q, &params).expect("plain search");
        for stop in [
            ImageStopRule::RunAll,
            ImageStopRule::StableTop { m: 3, window: 1 },
            ImageStopRule::CertifiedTop { m: 3 },
        ] {
            let config = ImageConfig::new(Policy::EarliestDeadline, 2, stop);
            let trace = vec![(spec(&set, 9, &[33]), VirtualDuration::ZERO)];
            let report = ImageScheduler::new(snap.clone(), config, Arc::clone(&image_of))
                .serve_trace(&trace, &params)
                .expect("serve");
            let Some(c) = report.completions.first() else {
                panic!("one completion expected");
            };
            assert_eq!(c.outcome.descriptors_spent, 1);
            assert_eq!(c.outcome.descriptors_abandoned, 0, "{}", stop.label());
            let Some(Some(got)) = c.descriptor_results.first() else {
                panic!("descriptor 0 was absorbed");
            };
            assert_eq!(want.neighbors.len(), got.neighbors.len());
            for (w, g) in want.neighbors.iter().zip(got.neighbors.iter()) {
                assert_eq!(w.id, g.id, "{}", stop.label());
                assert_eq!(w.dist.to_bits(), g.dist.to_bits(), "{}", stop.label());
            }
            assert_eq!(
                want.log.total_virtual.as_secs().to_bits(),
                got.log.total_virtual.as_secs().to_bits(),
                "{}: per-descriptor virtual clock",
                stop.label()
            );
        }
    }

    #[test]
    fn all_duplicate_descriptors_early_stop_agrees_with_full_run() {
        let (snap, set) = snapshot("dups", 400, 30);
        let image_of = rr_map(set.len(), 16);
        let params = SearchParams::exact(5);
        // Eight copies of one descriptor: the ranking is fixed after the
        // first completion, so StableTop fires as early as it can.
        let positions = [11usize; 8];
        let full_trace = vec![(spec(&set, 2, &positions), VirtualDuration::ZERO)];
        let full = ImageScheduler::new(
            snap.clone(),
            ImageConfig::new(Policy::MostWantedChunk, 1, ImageStopRule::RunAll),
            Arc::clone(&image_of),
        )
        .serve_trace(&full_trace, &params)
        .expect("full");
        let early = ImageScheduler::new(
            snap.clone(),
            ImageConfig::new(
                Policy::MostWantedChunk,
                1,
                ImageStopRule::StableTop { m: 4, window: 1 },
            ),
            Arc::clone(&image_of),
        )
        .serve_trace(&full_trace, &params)
        .expect("early");
        let (Some(f), Some(e)) = (full.completions.first(), early.completions.first()) else {
            panic!("both runs complete");
        };
        assert!(e.outcome.descriptors_abandoned > 0, "early stop must fire");
        assert!(
            e.outcome.descriptors_spent < f.outcome.descriptors_spent,
            "early stop spends fewer descriptors"
        );
        // Duplicates scale every tally uniformly: the top-m prefix (and
        // here the whole membership order) is unchanged.
        assert_eq!(e.outcome.top_images(4), f.outcome.top_images(4));
        assert_eq!(
            e.outcome.fidelity,
            eff2_core::search::ResultFidelity::Approximate
        );
    }

    #[test]
    fn certified_stop_prefix_always_agrees_with_the_full_run() {
        let (snap, set) = snapshot("certified", 500, 30);
        let image_of = rr_map(set.len(), 10);
        let params = SearchParams::exact(4);
        let positions: Vec<usize> = (0..10).map(|i| (i * 10) % set.len()).collect();
        let make_trace = || vec![(spec(&set, 5, &positions), VirtualDuration::ZERO)];
        let full = ImageScheduler::new(
            snap.clone(),
            ImageConfig::new(Policy::FairShare, 1, ImageStopRule::RunAll),
            Arc::clone(&image_of),
        )
        .serve_trace(&make_trace(), &params)
        .expect("full");
        let m = 2usize;
        let early = ImageScheduler::new(
            snap.clone(),
            ImageConfig::new(Policy::FairShare, 1, ImageStopRule::CertifiedTop { m }),
            Arc::clone(&image_of),
        )
        .serve_trace(&make_trace(), &params)
        .expect("early");
        let (Some(f), Some(e)) = (full.completions.first(), early.completions.first()) else {
            panic!("both runs complete");
        };
        if e.outcome.descriptors_abandoned > 0 {
            assert!(e.outcome.certificate, "a certified stop records its proof");
            assert_eq!(e.outcome.top_images(m), f.outcome.top_images(m));
        }
    }

    #[test]
    fn overloaded_rejects_and_the_run_continues() {
        let (snap, set) = snapshot("overload", 300, 25);
        let image_of = rr_map(set.len(), 8);
        let params = SearchParams::exact(4);
        let mut config = ImageConfig::new(Policy::FairShare, 1, ImageStopRule::RunAll);
        config.scheduler.max_queued = 1;
        let mut sched = ImageScheduler::new(snap, config, image_of);
        let s = spec(&set, 0, &[0, 5]);
        let t0 = VirtualDuration::ZERO;
        sched.0.submit(&s, &params, t0).expect("first admitted");
        sched.0.submit(&s, &params, t0).expect("second queued");
        let third = sched.0.submit(&s, &params, t0);
        assert!(matches!(third, Err(ServeError::Overloaded { .. })));
        let report = sched
            .0
            .finish()
            .map(ImageServeReport::from)
            .expect("finish");
        assert_eq!(report.stats.submitted, 3);
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.stats.completed, 2);
    }

    #[test]
    fn non_monotone_arrivals_are_refused() {
        let (snap, set) = snapshot("monotone", 200, 25);
        let image_of = rr_map(set.len(), 8);
        let params = SearchParams::exact(3);
        let mut sched = ImageScheduler::new(
            snap,
            ImageConfig::new(Policy::FairShare, 2, ImageStopRule::RunAll),
            image_of,
        );
        sched
            .0
            .submit(
                &spec(&set, 0, &[0]),
                &params,
                VirtualDuration::from_secs(1.0),
            )
            .expect("submit");
        let out = sched.0.submit(
            &spec(&set, 1, &[1]),
            &params,
            VirtualDuration::from_secs(0.5),
        );
        assert!(matches!(out, Err(ServeError::NonMonotoneArrival { .. })));
    }

    #[test]
    fn sibling_fanout_shares_fetches_under_most_wanted_chunk() {
        let (snap, set) = snapshot("fanout", 800, 30);
        let image_of = rr_map(set.len(), 4);
        let params = SearchParams::exact(8);
        // Sibling descriptors from one blob: nearly identical interests.
        let positions: Vec<usize> = (0..8).map(|i| i * 5).collect();
        let trace = vec![(spec(&set, 1, &positions), VirtualDuration::ZERO)];
        let run = |policy: Policy| {
            ImageScheduler::new(
                snap.clone(),
                ImageConfig::new(policy, 1, ImageStopRule::RunAll),
                Arc::clone(&image_of),
            )
            .serve_trace(&trace, &params)
            .expect("serve")
        };
        let fair = run(Policy::FairShare);
        let mwc = run(Policy::MostWantedChunk);
        assert_eq!(fair.stats.feeds, mwc.stats.feeds, "same per-session work");
        assert!(
            mwc.stats.fetches < fair.stats.fetches,
            "sibling co-scheduling must share reads: mwc {} vs fair {}",
            mwc.stats.fetches,
            fair.stats.fetches
        );
        assert!(mwc.stats.feeds > mwc.stats.fetches, "some tick fanned out");
    }

    #[test]
    fn stats_sums_match_per_image_accounting() {
        let (snap, set) = snapshot("sums", 500, 30);
        let image_of = rr_map(set.len(), 12);
        let params = SearchParams::exact(5);
        let trace: Vec<(ImageQuerySpec, VirtualDuration)> = (0..5u32)
            .map(|i| {
                (
                    spec(
                        &set,
                        i,
                        &[
                            (i as usize * 13) % 500,
                            (i as usize * 29) % 500,
                            (i as usize * 7) % 500,
                        ],
                    ),
                    VirtualDuration::from_ms(i as f64 * 2.0),
                )
            })
            .collect();
        let report = ImageScheduler::new(
            snap,
            ImageConfig::new(
                Policy::MostWantedChunk,
                3,
                ImageStopRule::StableTop { m: 3, window: 1 },
            ),
            image_of,
        )
        .serve_trace(&trace, &params)
        .expect("serve");
        let mut spent = 0u64;
        let mut abandoned = 0u64;
        for c in &report.completions {
            assert_eq!(
                c.outcome.descriptors_spent + c.outcome.descriptors_abandoned,
                c.outcome.descriptors_total,
                "img{}",
                c.id
            );
            spent += c.outcome.descriptors_spent as u64;
            abandoned += c.outcome.descriptors_abandoned as u64;
        }
        assert_eq!(spent, report.stats.descriptors_spent);
        assert_eq!(abandoned, report.stats.descriptors_abandoned);
    }
}
