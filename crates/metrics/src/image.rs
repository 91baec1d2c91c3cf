//! Image-granularity quality metrics.
//!
//! The descriptor-level curves ([`crate::curves`]) measure quality per
//! chunk read; image queries add one more axis — quality per *descriptor
//! search spent*. An [`ImageOutcome`] records its top-`m` snapshot after every absorbed descriptor
//! completion, so a workload of image queries yields a
//! descriptors-spent curve: how image precision@m grows as a fraction of
//! the query set is consumed — the paper's "a fraction of the query
//! points suffices" claim measured directly.

use crate::curves::precision_at;
use eff2_core::image::ImageOutcome;

/// Image precision@m: the fraction of `truth_top` (the full-information
/// top-`m` image ids) present anywhere in `ranked_top`. Order-insensitive,
/// like the descriptor-level [`precision_at`]; with both sides cut at the
/// same `m` it coincides with recall.
pub fn image_precision_at(ranked_top: &[u32], truth_top: &[u32], m: usize) -> f64 {
    let ranked: Vec<u32> = ranked_top.iter().take(m).copied().collect();
    let truth: Vec<u32> = truth_top.iter().take(m).copied().collect();
    precision_at(&ranked, &truth)
}

/// One point of a descriptors-spent curve.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageQualityPoint {
    /// Descriptor completions absorbed (1-based).
    pub completions: usize,
    /// Mean image precision@m at that spend, over all queries
    /// (carry-forward: a query that stopped earlier contributes its final
    /// ranking).
    pub avg_precision: f64,
    /// Queries that had actually absorbed this many completions (the rest
    /// are carried forward).
    pub queries_live: usize,
}

/// The workload-averaged quality-per-descriptor-spent curve.
///
/// `outcomes[i]` is compared against `truths[i]` — the full-information
/// top image ids for the same query (e.g. from a run-to-completion solo
/// pass). The curve extends to the longest query's completion count;
/// queries that stopped earlier (early termination, smaller sets) carry
/// their final snapshot forward, which is exactly how a fleet would serve
/// them. Queries with no events (empty descriptor sets) contribute their
/// final — empty — ranking at every point.
///
/// # Panics
///
/// Panics if `outcomes` and `truths` differ in length.
pub fn descriptors_spent_curve(
    outcomes: &[&ImageOutcome],
    truths: &[Vec<u32>],
    m: usize,
) -> Vec<ImageQualityPoint> {
    assert_eq!(
        outcomes.len(),
        truths.len(),
        "every outcome needs a ground-truth ranking"
    );
    let longest = outcomes
        .iter()
        .map(|o| o.events.last().map_or(0, |e| e.completions))
        .max()
        .unwrap_or(0);
    let mut curve = Vec::with_capacity(longest);
    for c in 1..=longest {
        let mut sum = 0.0f64;
        let mut live = 0usize;
        for (o, truth) in outcomes.iter().zip(truths.iter()) {
            // The latest snapshot at or before `c` completions; events are
            // absorbed in order, so this is a reverse scan.
            let snap = o.events.iter().rev().find(|e| e.completions <= c);
            if o.events.iter().any(|e| e.completions == c) {
                live += 1;
            }
            let top: &[u32] = snap.map_or(&[], |e| &e.top);
            sum += image_precision_at(top, truth, m);
        }
        let avg = if outcomes.is_empty() {
            0.0
        } else {
            sum / outcomes.len() as f64
        };
        curve.push(ImageQualityPoint {
            completions: c,
            avg_precision: avg,
            queries_live: live,
        });
    }
    curve
}

/// Mean fraction of each query's descriptor set actually spent
/// (`descriptors_spent / descriptors_total`; empty sets count as 1.0 —
/// nothing was left unspent). 0 for an empty slice.
pub fn avg_spent_fraction(outcomes: &[&ImageOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    // Serial loop: float accumulation order is the slice order, which is
    // itself deterministic.
    let mut sum = 0.0f64;
    for o in outcomes {
        sum += if o.descriptors_total == 0 {
            1.0
        } else {
            o.descriptors_spent as f64 / o.descriptors_total as f64
        };
    }
    sum / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_core::image::ImageVoteEvent;
    use eff2_core::search::ResultFidelity;

    fn outcome(events: Vec<(usize, Vec<u32>)>, total: usize, spent: usize) -> ImageOutcome {
        ImageOutcome {
            label: 0,
            ranking: Vec::new(),
            descriptors_total: total,
            descriptors_spent: spent,
            descriptors_abandoned: total - spent,
            certificate: true,
            fidelity: ResultFidelity::Exact,
            chunks_read: 0,
            descriptors_lost: 0,
            unmapped_votes: 0,
            events: events
                .into_iter()
                .map(|(completions, top)| ImageVoteEvent { completions, top })
                .collect(),
        }
    }

    #[test]
    fn precision_cuts_both_sides_at_m() {
        assert_eq!(image_precision_at(&[1, 2, 3], &[1, 2, 9], 2), 1.0);
        assert_eq!(image_precision_at(&[1, 2], &[3, 4], 2), 0.0);
        assert_eq!(image_precision_at(&[2, 1], &[1, 2], 2), 1.0, "unordered");
        assert_eq!(image_precision_at(&[], &[], 5), 1.0, "empty truth is met");
    }

    #[test]
    fn curve_carries_short_queries_forward() {
        // Query A improves over 3 completions; query B stops after 1.
        let a = outcome(vec![(1, vec![7]), (2, vec![7, 1]), (3, vec![1, 2])], 3, 3);
        let b = outcome(vec![(1, vec![5])], 4, 1);
        let truths = vec![vec![1, 2], vec![5, 6]];
        let curve = descriptors_spent_curve(&[&a, &b], &truths, 2);
        assert_eq!(curve.len(), 3, "extends to the longest query");
        // c=1: A has {7} → 0 hits of {1,2}; B has {5} → 1 of {5,6}.
        assert!((curve[0].avg_precision - 0.25).abs() < 1e-12);
        assert_eq!(curve[0].queries_live, 2);
        // c=2: A has {7,1} → 1/2; B carries {5} forward → 1/2.
        assert!((curve[1].avg_precision - 0.5).abs() < 1e-12);
        assert_eq!(curve[1].queries_live, 1, "only A absorbed a 2nd result");
        // c=3: A has {1,2} → 2/2; B still 1/2.
        assert!((curve[2].avg_precision - 0.75).abs() < 1e-12);
    }

    #[test]
    fn eventless_outcomes_contribute_empty_rankings() {
        let a = outcome(vec![(1, vec![3])], 1, 1);
        let empty = outcome(vec![], 0, 0);
        let truths = vec![vec![3], vec![9]];
        let curve = descriptors_spent_curve(&[&a, &empty], &truths, 1);
        assert_eq!(curve.len(), 1);
        // A scores 1, the empty query scores 0 against a non-empty truth.
        assert!((curve[0].avg_precision - 0.5).abs() < 1e-12);
        assert_eq!(curve[0].queries_live, 1);
    }

    #[test]
    fn empty_inputs_yield_an_empty_curve() {
        assert!(descriptors_spent_curve(&[], &[], 3).is_empty());
        assert_eq!(avg_spent_fraction(&[]), 0.0);
    }

    #[test]
    fn spent_fraction_averages_per_query() {
        let a = outcome(vec![], 4, 2); // 0.5
        let b = outcome(vec![], 4, 4); // 1.0
        let c = outcome(vec![], 0, 0); // empty set counts as fully spent
        assert!((avg_spent_fraction(&[&a, &b, &c]) - (0.5 + 1.0 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ground-truth")]
    fn mismatched_truths_are_rejected() {
        let a = outcome(vec![], 1, 1);
        let _ = descriptors_spent_curve(&[&a], &[], 1);
    }
}
