//! Image-level queries: multi-descriptor vote aggregation.
//!
//! The paper searches one descriptor at a time, but a real image query is
//! a *set* of local descriptors, each voting for the images its nearest
//! neighbours came from. This module is the aggregation layer on top of
//! the per-descriptor machinery:
//!
//! * [`ImageVoteAccumulator`] folds per-descriptor neighbour lists into a
//!   deterministic image ranking — one vote per retained neighbour,
//!   ranked by `(votes desc, best distance asc, image id asc)`. The fold
//!   is commutative (votes sum, distances take a running minimum), so the
//!   ranking is independent of the order descriptor results arrive in —
//!   which is what makes interleaved serving bit-identical to solo runs.
//! * [`ImageStopRule`] / `ImageStopTracker` are the cross-descriptor
//!   early-termination rules: stop absorbing descriptor results once the
//!   top-`m` image ranking has been stable for `S` consecutive
//!   completions (the heuristic from *Minimizing the Number of Matching
//!   Queries for Object Retrieval*), or once the vote margins *prove*
//!   the prefix can no longer change ([`certified`]).
//! * [`ImageAggregator`] packages accumulator + tracker + the
//!   spent/abandoned accounting and fidelity fold every driver needs, so
//!   the serving scheduler and the solo reference cannot drift.
//! * [`solo_image_search`] is the serial reference: every descriptor
//!   searched alone through [`Snapshot::search`], results absorbed in
//!   descriptor order — the baseline the equivalence proptests compare
//!   the interleaved scheduler against.
//!
//! ## The stability certificate
//!
//! With `R` descriptor searches still outstanding and at most `k`
//! neighbours retained per search, any single image can gain at most
//! `R·k` further votes. If at every prefix boundary `i ∈ 1..=m` the
//! currently ranked images satisfy `votes[i-1] > votes[i] + R·k` (with
//! `votes[i] = 0` past the end of the ranking, standing in for any image
//! not seen yet), then no image at or beyond position `i` — nor any
//! unseen image — can catch the image at position `i-1`. By induction the
//! ordered top-`m` prefix of the final, run-to-completion ranking equals
//! the current one. That is the certificate the headline proptest keys
//! on: whenever an early-terminated run reports `certificate = true`, its
//! top-`m` prefix must agree with the completed run's, bit for bit.
//!
//! [`certified`]: ImageStopRule::CertifiedTop

use crate::search::{ResultFidelity, SearchParams, SearchResult};
use crate::snapshot::Snapshot;
use eff2_descriptor::{Neighbor, Vector};
use eff2_storage::Result;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One image's standing in the vote tally.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImageVote {
    /// The image id (the bucket descriptor ids map to).
    pub image: u32,
    /// Retained neighbours that belong to this image, across every
    /// absorbed descriptor result.
    pub votes: u32,
    /// Smallest squared distance any of those neighbours achieved — the
    /// first tie-break of the ranking.
    pub best_dist: f32,
}

/// Folds per-descriptor neighbour lists into a deterministic image
/// ranking. See the [module docs](self) for the vote semantics and why
/// the fold is order-independent.
#[derive(Clone, Debug)]
pub struct ImageVoteAccumulator {
    /// Descriptor id → owning image id (collection-sized, shared across
    /// queries).
    image_of: Arc<Vec<u32>>,
    /// Per-descriptor neighbour budget `k` — the certificate's bound on
    /// how many votes one outstanding search can add to any one image.
    k: usize,
    /// Image id → (votes, best distance). A BTreeMap so iteration (and
    /// with it the ranking's tie-break on equal keys) is deterministic.
    tallies: BTreeMap<u32, (u32, f32)>,
    /// Neighbours whose descriptor id had no image mapping — counted
    /// honestly rather than silently dropped.
    unmapped: u64,
}

impl ImageVoteAccumulator {
    /// An empty accumulator over the `image_of` descriptor→image map,
    /// for searches retaining at most `k` neighbours each.
    pub fn new(image_of: Arc<Vec<u32>>, k: usize) -> ImageVoteAccumulator {
        ImageVoteAccumulator {
            image_of,
            k,
            tallies: BTreeMap::new(),
            unmapped: 0,
        }
    }

    /// Folds one descriptor's retained neighbours into the tally: each
    /// neighbour casts one vote for its image and offers its distance as
    /// the image's best. Commutative across calls.
    pub fn absorb(&mut self, neighbors: &[Neighbor]) {
        for n in neighbors {
            let Some(&image) = self.image_of.get(n.id as usize) else {
                self.unmapped += 1;
                continue;
            };
            let slot = self.tallies.entry(image).or_insert((0, f32::INFINITY));
            slot.0 += 1;
            if n.dist.total_cmp(&slot.1).is_lt() {
                slot.1 = n.dist;
            }
        }
    }

    /// Neighbours that mapped to no image (out-of-range descriptor ids).
    pub(crate) fn unmapped(&self) -> u64 {
        self.unmapped
    }

    /// Distinct images holding at least one vote.
    pub fn n_images(&self) -> usize {
        self.tallies.len()
    }

    /// The full image ranking: `(votes desc, best_dist asc, image asc)`.
    /// Deterministic, and independent of absorption order.
    pub fn ranking(&self) -> Vec<ImageVote> {
        let mut out: Vec<ImageVote> = self
            .tallies
            .iter()
            .map(|(&image, &(votes, best_dist))| ImageVote {
                image,
                votes,
                best_dist,
            })
            .collect();
        out.sort_by(|a, b| {
            b.votes
                .cmp(&a.votes)
                .then(a.best_dist.total_cmp(&b.best_dist))
                .then(a.image.cmp(&b.image))
        });
        out
    }

    /// The ordered ids of the top `m` images (shorter if fewer images
    /// hold votes).
    pub fn top_m(&self, m: usize) -> Vec<u32> {
        let mut out = self.ranking();
        out.truncate(m);
        out.iter().map(|v| v.image).collect()
    }

    /// Whether the current ordered top-`m` prefix is *provably* the final
    /// one, with `remaining` descriptor searches still outstanding — the
    /// `R·k` vote-margin argument from the [module docs](self). Trivially
    /// true when nothing is outstanding.
    pub(crate) fn certified_top_m(&self, m: usize, remaining: usize) -> bool {
        if remaining == 0 || m == 0 {
            return true;
        }
        let slack = (remaining as u64).saturating_mul(self.k as u64);
        let ranked = self.ranking();
        for i in 1..=m {
            let lead = ranked.get(i - 1).map_or(0, |v| u64::from(v.votes));
            let chase = ranked.get(i).map_or(0, |v| u64::from(v.votes));
            if lead <= chase + slack {
                return false;
            }
        }
        true
    }
}

/// When to abandon the remaining descriptor searches of an image query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImageStopRule {
    /// Never: run every descriptor to its own stop rule (the full-run
    /// baseline every early-stop cell is measured against).
    RunAll,
    /// Stop once the ordered top-`m` image prefix has survived `window`
    /// consecutive descriptor completions unchanged — the paper-shaped
    /// heuristic ("a fraction of the query points suffices").
    StableTop {
        /// Prefix length watched for stability.
        m: usize,
        /// Consecutive completions the prefix must survive unchanged.
        window: usize,
    },
    /// Stop as soon as the vote margins *prove* the top-`m` prefix final
    /// (`ImageVoteAccumulator::certified_top_m`) — never wrong, usually
    /// later than [`StableTop`](Self::StableTop).
    CertifiedTop {
        /// Prefix length the certificate covers.
        m: usize,
    },
}

impl ImageStopRule {
    /// The watched prefix length, if the rule has one.
    pub fn top_m(&self) -> Option<usize> {
        match self {
            ImageStopRule::RunAll => None,
            ImageStopRule::StableTop { m, .. } | ImageStopRule::CertifiedTop { m } => Some(*m),
        }
    }

    /// Stable label for tables and CSV.
    pub fn label(&self) -> String {
        match self {
            ImageStopRule::RunAll => "run-all".to_string(),
            ImageStopRule::StableTop { m, window } => format!("stable-top{m}-w{window}"),
            ImageStopRule::CertifiedTop { m } => format!("certified-top{m}"),
        }
    }
}

/// Evaluates an [`ImageStopRule`] across a stream of descriptor
/// completions. Feed it [`observe`](Self::observe) after every absorbed
/// result; it answers whether the remaining searches should be abandoned.
#[derive(Clone, Debug)]
pub(crate) struct ImageStopTracker {
    rule: ImageStopRule,
    /// Last observed top-`m` prefix (`StableTop` only).
    last_top: Option<Vec<u32>>,
    /// Consecutive completions the prefix has survived unchanged.
    streak: usize,
}

impl ImageStopTracker {
    /// A fresh tracker for `rule`.
    pub fn new(rule: ImageStopRule) -> ImageStopTracker {
        ImageStopTracker {
            rule,
            last_top: None,
            streak: 0,
        }
    }

    /// Observes the accumulator state after a descriptor completion, with
    /// `remaining` searches still outstanding. Returns `true` when the
    /// rule says to abandon them. Never fires with nothing left to
    /// abandon — a fired stop would then be indistinguishable from (and
    /// is) a completed run.
    pub(crate) fn observe(&mut self, acc: &ImageVoteAccumulator, remaining: usize) -> bool {
        if remaining == 0 {
            return false;
        }
        match self.rule {
            ImageStopRule::RunAll => false,
            ImageStopRule::StableTop { m, window } => {
                let top = acc.top_m(m);
                if self.last_top.as_ref() == Some(&top) {
                    self.streak += 1;
                } else {
                    self.streak = 0;
                    self.last_top = Some(top);
                }
                self.streak >= window.max(1)
            }
            ImageStopRule::CertifiedTop { m } => acc.certified_top_m(m, remaining),
        }
    }
}

/// The top-`m` snapshot taken after each absorbed descriptor result —
/// what the descriptors-spent quality curves are computed from, the image
/// analogue of the per-chunk [`ChunkEvent`](crate::search::ChunkEvent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageVoteEvent {
    /// Descriptor results absorbed when the snapshot was taken (1-based).
    pub completions: usize,
    /// Ordered top-`m` image ids at that point.
    pub top: Vec<u32>,
}

/// Everything one finished image query produced.
#[derive(Clone, Debug)]
pub struct ImageOutcome {
    /// The query's ground-truth image label (carried through verbatim).
    pub label: u32,
    /// The final image ranking.
    pub ranking: Vec<ImageVote>,
    /// Descriptors the query arrived with.
    pub descriptors_total: usize,
    /// Descriptor searches run to their own stop rule and absorbed.
    pub descriptors_spent: usize,
    /// Descriptor searches abandoned by the image stop rule. Always
    /// `descriptors_spent + descriptors_abandoned == descriptors_total`.
    pub descriptors_abandoned: usize,
    /// Whether the vote margins at stop time *proved* the top-`m` prefix
    /// final (trivially true for a run with no abandonment). When set,
    /// the prefix agrees with the full run's — the proptested contract.
    pub certificate: bool,
    /// Aggregate fidelity: `Degraded` if any absorbed search lost chunks,
    /// else `Approximate` if any search stopped early or was abandoned,
    /// else `Exact`.
    pub fidelity: ResultFidelity,
    /// Chunks read across every absorbed descriptor search.
    pub chunks_read: u64,
    /// Collection descriptors lost to faults across absorbed searches.
    pub descriptors_lost: u64,
    /// Neighbour votes that mapped to no image.
    pub unmapped_votes: u64,
    /// Top-`m` snapshot after each absorbed result, in absorption order.
    pub events: Vec<ImageVoteEvent>,
}

impl ImageOutcome {
    /// The ordered ids of the first `m` ranked images (shorter if the
    /// ranking is).
    pub fn top_images(&self, m: usize) -> Vec<u32> {
        self.ranking.iter().take(m).map(|v| v.image).collect()
    }
}

/// Accumulator + stop tracker + accounting for one image query — the
/// shared core of the serving driver and the solo reference, so their
/// vote semantics, fidelity fold and certificate logic cannot drift.
#[derive(Clone, Debug)]
pub struct ImageAggregator {
    acc: ImageVoteAccumulator,
    tracker: ImageStopTracker,
    /// Prefix length of the per-completion event snapshots (the stop
    /// rule's `m` when it has one, else [`DEFAULT_EVENT_TOP`]).
    event_top: usize,
    total: usize,
    spent: usize,
    abandoned: usize,
    degraded: bool,
    incomplete: bool,
    chunks_read: u64,
    descriptors_lost: u64,
    certificate: Option<bool>,
    events: Vec<ImageVoteEvent>,
}

impl ImageAggregator {
    /// An aggregator for a query of `total` descriptors under `rule`,
    /// with per-descriptor neighbour budget `k` and event snapshots of
    /// the rule's own `m`, or 10 (the experiments' precision@10) if it has
    /// none.
    pub fn new(
        image_of: Arc<Vec<u32>>,
        k: usize,
        total: usize,
        rule: ImageStopRule,
    ) -> ImageAggregator {
        ImageAggregator {
            acc: ImageVoteAccumulator::new(image_of, k),
            event_top: rule.top_m().unwrap_or(DEFAULT_EVENT_TOP),
            tracker: ImageStopTracker::new(rule),
            total,
            spent: 0,
            abandoned: 0,
            degraded: false,
            incomplete: false,
            chunks_read: 0,
            descriptors_lost: 0,
            certificate: None,
            events: Vec::new(),
        }
    }

    /// Descriptor searches not yet absorbed or abandoned.
    pub(crate) fn remaining(&self) -> usize {
        self.total - self.spent - self.abandoned
    }

    /// Whether every descriptor is accounted for (absorbed + abandoned).
    pub fn is_done(&self) -> bool {
        self.spent + self.abandoned == self.total
    }

    /// Absorbs one completed descriptor search: votes, counters, fidelity
    /// inputs, event snapshot, then the stop rule. Returns `true` when
    /// the rule says to abandon the remaining searches — the caller then
    /// tears down its sibling sessions and calls
    /// [`abandon_rest`](Self::abandon_rest).
    pub fn absorb(&mut self, result: &SearchResult) -> bool {
        self.acc.absorb(&result.neighbors);
        self.spent += 1;
        self.chunks_read += result.log.chunks_read as u64;
        self.descriptors_lost += result.log.degradation.descriptors_lost;
        self.degraded |= result.log.degradation.is_degraded();
        self.incomplete |= !result.log.completed;
        self.events.push(ImageVoteEvent {
            completions: self.spent,
            top: self.acc.top_m(self.event_top),
        });
        self.tracker.observe(&self.acc, self.remaining())
    }

    /// Books the remaining searches as abandoned, records whether the
    /// stability certificate held at stop time, and returns how many were
    /// dropped.
    pub fn abandon_rest(&mut self) -> usize {
        let dropped = self.remaining();
        self.abandoned += dropped;
        if dropped > 0 {
            self.certificate = Some(self.acc.certified_top_m(self.event_top, dropped));
        }
        dropped
    }

    /// Finalises into an [`ImageOutcome`] for the query labelled `label`.
    pub fn into_outcome(self, label: u32) -> ImageOutcome {
        let fidelity = if self.degraded {
            ResultFidelity::Degraded
        } else if self.abandoned > 0 || self.incomplete {
            ResultFidelity::Approximate
        } else {
            ResultFidelity::Exact
        };
        ImageOutcome {
            label,
            ranking: self.acc.ranking(),
            descriptors_total: self.total,
            descriptors_spent: self.spent,
            descriptors_abandoned: self.abandoned,
            // No abandonment means the full run: the prefix trivially
            // agrees with itself.
            certificate: self.certificate.unwrap_or(self.abandoned == 0),
            fidelity,
            chunks_read: self.chunks_read,
            descriptors_lost: self.descriptors_lost,
            unmapped_votes: self.acc.unmapped(),
            events: self.events,
        }
    }
}

/// The serial reference for an image query: every descriptor searched
/// alone through [`Snapshot::search`] (the same per-descriptor params),
/// absorbed in descriptor order with no early termination. The
/// equivalence proptests compare the interleaved scheduler's rankings —
/// and, descriptor by descriptor, its retained results — against this.
///
/// Returns the outcome plus the per-descriptor results it absorbed.
pub fn solo_image_search(
    snapshot: &Snapshot,
    label: u32,
    descriptors: &[Vector],
    params: &SearchParams,
    image_of: &Arc<Vec<u32>>,
) -> Result<(ImageOutcome, Vec<SearchResult>)> {
    let mut agg = ImageAggregator::new(
        Arc::clone(image_of),
        params.k,
        descriptors.len(),
        ImageStopRule::RunAll,
    );
    let mut results = Vec::with_capacity(descriptors.len());
    for q in descriptors {
        let result = snapshot.search(q, params)?;
        agg.absorb(&result);
        results.push(result);
    }
    Ok((agg.into_outcome(label), results))
}

/// Event-snapshot prefix length when the stop rule does not name one
/// (matches the experiments' precision@10 reporting).
const DEFAULT_EVENT_TOP: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    fn map(of: &[u32]) -> Arc<Vec<u32>> {
        Arc::new(of.to_vec())
    }

    fn nb(id: u32, dist: f32) -> Neighbor {
        Neighbor { id, dist }
    }

    #[test]
    fn ranking_orders_by_votes_then_distance_then_id() {
        // Descriptors 0,1 → image 0; 2,3 → image 1; 4 → image 2.
        let mut acc = ImageVoteAccumulator::new(map(&[0, 0, 1, 1, 2]), 4);
        acc.absorb(&[nb(0, 2.0), nb(2, 1.0), nb(4, 1.0)]);
        acc.absorb(&[nb(1, 3.0), nb(3, 0.5)]);
        let ranking = acc.ranking();
        // image 1: 2 votes best 0.5; image 0: 2 votes best 2.0; image 2: 1 vote.
        assert_eq!(
            ranking
                .iter()
                .map(|v| (v.image, v.votes))
                .collect::<Vec<_>>(),
            vec![(1, 2), (0, 2), (2, 1)]
        );
        let Some(first) = ranking.first() else {
            panic!("ranking is non-empty");
        };
        assert_eq!(first.best_dist, 0.5);
    }

    #[test]
    fn equal_votes_and_distance_tie_break_on_image_id() {
        let mut acc = ImageVoteAccumulator::new(map(&[5, 3]), 2);
        acc.absorb(&[nb(0, 1.0), nb(1, 1.0)]);
        assert_eq!(acc.top_m(2), vec![3, 5]);
    }

    #[test]
    fn absorption_order_does_not_change_the_ranking() {
        let of = map(&[0, 1, 2, 0, 1]);
        let a = [nb(0, 2.0), nb(3, 1.5)];
        let b = [nb(1, 0.7), nb(4, 2.5)];
        let c = [nb(2, 9.0)];
        let mut fwd = ImageVoteAccumulator::new(Arc::clone(&of), 2);
        fwd.absorb(&a);
        fwd.absorb(&b);
        fwd.absorb(&c);
        let mut rev = ImageVoteAccumulator::new(of, 2);
        rev.absorb(&c);
        rev.absorb(&b);
        rev.absorb(&a);
        assert_eq!(fwd.ranking(), rev.ranking());
    }

    #[test]
    fn out_of_range_descriptor_ids_are_counted_not_dropped_silently() {
        let mut acc = ImageVoteAccumulator::new(map(&[0]), 2);
        acc.absorb(&[nb(0, 1.0), nb(99, 1.0)]);
        assert_eq!(acc.unmapped(), 1);
        assert_eq!(acc.n_images(), 1);
    }

    #[test]
    fn certificate_requires_margin_above_remaining_times_k() {
        let of = map(&[0, 0, 0, 1]);
        let mut acc = ImageVoteAccumulator::new(Arc::clone(&of), 1);
        // Image 0 has 3 votes, image 1 has 1: margin 2.
        acc.absorb(&[nb(0, 1.0)]);
        acc.absorb(&[nb(1, 1.0)]);
        acc.absorb(&[nb(2, 1.0)]);
        acc.absorb(&[nb(3, 2.0)]);
        // One remaining search (k = 1) cannot close a margin of 2 …
        assert!(acc.certified_top_m(1, 1));
        // … but two could tie it, and a tie is not a certified win.
        assert!(!acc.certified_top_m(1, 2));
        // Boundary m..m+1 (1 vote vs nothing) is never certified while
        // searches remain.
        assert!(!acc.certified_top_m(2, 1));
        // Nothing remaining certifies any prefix.
        assert!(acc.certified_top_m(2, 0));
    }

    #[test]
    fn certificate_is_sound_under_adversarial_remaining_votes() {
        // Exhaustive adversary on a small universe: whenever the
        // certificate fires, no completion of the remaining searches can
        // change the certified prefix.
        let of = map(&[0, 0, 0, 0, 1, 1, 2]);
        let k = 2;
        let absorbed: [&[Neighbor]; 3] = [
            &[nb(0, 1.0), nb(4, 2.0)],
            &[nb(1, 1.0), nb(2, 3.0)],
            &[nb(3, 1.0), nb(6, 1.0)],
        ];
        let mut acc = ImageVoteAccumulator::new(Arc::clone(&of), k);
        for r in absorbed {
            acc.absorb(r);
        }
        let remaining = 1usize;
        for m in 1..=3usize {
            if !acc.certified_top_m(m, remaining) {
                continue;
            }
            let prefix: Vec<u32> = acc.top_m(m);
            // Adversary: the remaining search throws both votes at any
            // single descriptor (the worst case for one image's tally).
            for target in 0..of.len() {
                let mut done = acc.clone();
                let votes: Vec<Neighbor> = (0..k).map(|_| nb(target as u32, 0.0)).collect();
                done.absorb(&votes);
                assert_eq!(
                    done.top_m(m),
                    prefix,
                    "certified top-{m} changed when the last search hit {target}"
                );
            }
        }
    }

    #[test]
    fn stable_top_fires_after_window_unchanged_completions() {
        let of = map(&[0, 0, 0, 1]);
        let rule = ImageStopRule::StableTop { m: 1, window: 2 };
        let mut acc = ImageVoteAccumulator::new(Arc::clone(&of), 1);
        let mut tracker = ImageStopTracker::new(rule);
        acc.absorb(&[nb(0, 1.0)]);
        assert!(
            !tracker.observe(&acc, 3),
            "first observation seeds the prefix"
        );
        acc.absorb(&[nb(1, 1.0)]);
        assert!(!tracker.observe(&acc, 2), "one stable completion < window");
        acc.absorb(&[nb(2, 1.0)]);
        assert!(tracker.observe(&acc, 1), "two stable completions = window");
    }

    #[test]
    fn stable_top_streak_resets_when_the_prefix_changes() {
        let of = map(&[0, 1]);
        let rule = ImageStopRule::StableTop { m: 1, window: 1 };
        let mut acc = ImageVoteAccumulator::new(Arc::clone(&of), 2);
        let mut tracker = ImageStopTracker::new(rule);
        acc.absorb(&[nb(0, 1.0)]);
        assert!(!tracker.observe(&acc, 3));
        // Image 1 takes the lead: the streak restarts.
        acc.absorb(&[nb(1, 0.5), nb(1, 0.6)]);
        assert!(!tracker.observe(&acc, 2));
        acc.absorb(&[]);
        assert!(tracker.observe(&acc, 1), "unchanged again: fires");
    }

    #[test]
    fn tracker_never_fires_with_nothing_left_to_abandon() {
        let rule = ImageStopRule::StableTop { m: 1, window: 1 };
        let mut acc = ImageVoteAccumulator::new(map(&[0]), 1);
        let mut tracker = ImageStopTracker::new(rule);
        acc.absorb(&[nb(0, 1.0)]);
        tracker.observe(&acc, 1);
        acc.absorb(&[nb(0, 1.0)]);
        assert!(!tracker.observe(&acc, 0));
    }

    #[test]
    fn aggregator_accounting_always_sums_to_total() {
        let of = map(&[0, 0, 1]);
        let rule = ImageStopRule::StableTop { m: 1, window: 1 };
        let mut agg = ImageAggregator::new(Arc::clone(&of), 1, 5, rule);
        let result = SearchResult {
            neighbors: vec![nb(0, 1.0)],
            log: crate::search::SearchLog {
                completed: true,
                ..Default::default()
            },
        };
        assert!(!agg.absorb(&result), "first completion seeds");
        assert!(agg.absorb(&result), "second identical completion fires");
        let dropped = agg.abandon_rest();
        assert_eq!(dropped, 3);
        assert!(agg.is_done());
        let outcome = agg.into_outcome(7);
        assert_eq!(outcome.label, 7);
        assert_eq!(
            outcome.descriptors_spent + outcome.descriptors_abandoned,
            outcome.descriptors_total
        );
        assert_eq!(outcome.fidelity, ResultFidelity::Approximate);
        assert_eq!(outcome.events.len(), 2);
    }

    #[test]
    fn full_run_of_exact_searches_reports_exact_fidelity() {
        let of = map(&[0]);
        let mut agg = ImageAggregator::new(Arc::clone(&of), 1, 1, ImageStopRule::RunAll);
        let result = SearchResult {
            neighbors: vec![nb(0, 1.0)],
            log: crate::search::SearchLog {
                completed: true,
                ..Default::default()
            },
        };
        agg.absorb(&result);
        let outcome = agg.into_outcome(0);
        assert_eq!(outcome.fidelity, ResultFidelity::Exact);
        assert!(
            outcome.certificate,
            "a full run trivially agrees with itself"
        );
        assert_eq!(outcome.descriptors_abandoned, 0);
    }

    #[test]
    fn empty_descriptor_set_is_a_trivially_exact_outcome() {
        let agg = ImageAggregator::new(map(&[]), 4, 0, ImageStopRule::RunAll);
        assert!(agg.is_done());
        let outcome = agg.into_outcome(3);
        assert_eq!(outcome.descriptors_total, 0);
        assert!(outcome.ranking.is_empty());
        assert_eq!(outcome.fidelity, ResultFidelity::Exact);
        assert!(outcome.certificate);
    }

    #[test]
    fn stop_rule_labels_are_stable() {
        assert_eq!(ImageStopRule::RunAll.label(), "run-all");
        assert_eq!(
            ImageStopRule::StableTop { m: 10, window: 2 }.label(),
            "stable-top10-w2"
        );
        assert_eq!(
            ImageStopRule::CertifiedTop { m: 5 }.label(),
            "certified-top5"
        );
    }
}
