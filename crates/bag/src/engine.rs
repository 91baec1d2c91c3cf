//! Merge-candidate enumeration engines.
//!
//! The paper's BAG "does not use any indexing scheme to facilitate the
//! merge process. Instead, it examines all existing clusters every time a
//! cluster is checked for potential merges" — which is why clustering the
//! 5M-descriptor collection took almost 12 days.
//! [`EngineKind::Exhaustive`] keeps that faithful behaviour: it hands the
//! merge walk every slot, and the walk computes every distance itself.
//!
//! [`EngineKind::Pruned`] hands the walk, for each cluster, exactly the
//! partners that pass the walk's own distance predicate
//!
//! ```text
//! d(cᵢ, cⱼ) · 0.5 < max(rᵢ, rⱼ) + MPI
//! ```
//!
//! (the merged radius is at least half the centroid distance, so no other
//! pair can merge). One flat pair scan finds them: each window of upcoming
//! pass-start centroids is scanned in parallel against all of them with the
//! blocked distance kernel, and only pairs that pass a squared-distance
//! gate pay for the square root. (A ball tree does not prune in 24-d.)
//! Centroids and radii only change when a pass ends, so a window's lists
//! stay valid, the walk skips partners consumed meanwhile, and clusterings
//! are bit-identical to the exhaustive engine's (see the tests).

#![expect(
    clippy::indexing_slicing,
    reason = "slots index the pass's own cluster table, and window rows stay inside the window the engine just filled"
)]

use crate::cluster::Cluster;
use eff2_descriptor::{l2_sq, l2_sq_x4, DIM};

/// Which candidate engine a BAG run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's behaviour: every cluster is checked against every other.
    Exhaustive,
    /// A gated parallel pair scan; identical output, far fewer tests.
    Pruned,
}

/// A per-pass candidate enumerator over the alive clusters.
///
/// `slots` indexes into the pass's cluster table; `None` entries are
/// consumed/destroyed clusters and never returned.
pub(crate) enum CandidateEngine {
    /// See [`EngineKind::Exhaustive`].
    Exhaustive {
        /// Number of slots in the pass table.
        n_slots: usize,
    },
    /// See [`EngineKind::Pruned`].
    Pruned(PairScan),
}

impl CandidateEngine {
    /// Builds the engine for one pass over `clusters`. `mpi` is the merge
    /// increment (fixes the viability bound above).
    pub fn build(kind: EngineKind, clusters: &[Option<Cluster>], mpi: f32) -> CandidateEngine {
        match kind {
            EngineKind::Exhaustive => CandidateEngine::Exhaustive {
                n_slots: clusters.len(),
            },
            EngineKind::Pruned => CandidateEngine::Pruned(PairScan::build(clusters, mpi)),
        }
    }

    /// Appends to `out` a superset of the slots whose cluster could satisfy
    /// the merge rule with cluster `i` (may include `i` itself; the caller
    /// filters). Calls must come in increasing `i` within one pass.
    pub fn candidates(&mut self, i: usize, clusters: &[Option<Cluster>], out: &mut Vec<usize>) {
        match self {
            CandidateEngine::Exhaustive { n_slots } => {
                out.extend(0..*n_slots);
            }
            CandidateEngine::Pruned(scan) => scan.partners(i, clusters, out),
        }
    }
}

/// Rows whose partner lists one parallel step computes.
const WINDOW: usize = 256;
/// Rows one worker scans per claim, into one buffer instead of one per row.
const TASK: usize = 32;
/// Relative widening of the squared-distance gate (see [`gate`]).
const GATE_SLACK: f32 = 1.0 + 1e-5;

/// One cluster of the pass-start table.
struct Row {
    centroid: [f32; DIM],
    radius: f32,
    /// `gate(radius)`.
    gate: f32,
    /// The cluster's slot in the pass table.
    slot: usize,
}

/// The pass-start centroid table and the current window's partner lists.
pub(crate) struct PairScan {
    /// The clusters still alive when the current window started.
    rows: Vec<Row>,
    mpi: f32,
    /// First slot of the current window.
    start: usize,
    /// Per claim of the window: its rows' partner slots back to back, and
    /// the bounds of each row's run.
    runs: Vec<(Vec<usize>, Vec<usize>)>,
}

impl PairScan {
    /// Copies the alive clusters' centroids and radii into the row table.
    fn build(clusters: &[Option<Cluster>], mpi: f32) -> PairScan {
        let rows = clusters.iter().enumerate().filter_map(|(s, c)| {
            c.as_ref().map(|c| Row {
                centroid: *c.centroid.as_array(),
                radius: c.radius,
                gate: gate(c.radius, mpi),
                slot: s,
            })
        });
        PairScan {
            rows: rows.collect(),
            mpi,
            start: 0,
            runs: Vec::new(),
        }
    }

    /// Appends the partners of slot `i`, first scanning the slots
    /// `i..i + WINDOW` in parallel when `i` lies past the current window.
    /// Clusters consumed before a window starts are neither scanned nor
    /// scanned against: the walk never visits them, nor picks them.
    fn partners(&mut self, i: usize, clusters: &[Option<Cluster>], out: &mut Vec<usize>) {
        if self.runs.is_empty() || i >= self.start + WINDOW {
            self.rows.retain(|r| clusters[r.slot].is_some());
            let end = (i + WINDOW).min(clusters.len());
            let claims: Vec<&[Option<Cluster>]> = clusters[i..end].chunks(TASK).collect();
            self.runs = eff2_parallel::par_map(&claims, |_, rows| {
                let (mut list, mut bounds) = (Vec::new(), vec![0; rows.len() + 1]);
                for (k, c) in rows.iter().enumerate() {
                    if let Some(c) = c {
                        self.row_partners(c, &mut list);
                    }
                    bounds[k + 1] = list.len();
                }
                (list, bounds)
            });
            self.start = i;
        }
        let (list, bounds) = &self.runs[(i - self.start) / TASK];
        let row = (i - self.start) % TASK;
        out.extend_from_slice(&list[bounds[row]..bounds[row + 1]]);
    }

    /// Appends the slots of the rows that pass the walk's predicate with
    /// `c`. Only rows inside the [`gate`] get `d = d2.sqrt()`, which is
    /// [`eff2_descriptor::Vector::dist`] bit for bit; the predicate decides.
    fn row_partners(&self, c: &Cluster, out: &mut Vec<usize>) {
        let q = c.centroid.as_array();
        let own_gate = gate(c.radius, self.mpi);
        let mut keep = |row: &Row, d2: f32| {
            if d2 > own_gate.max(row.gate) {
                return;
            }
            if d2.sqrt() * 0.5 >= c.radius.max(row.radius) + self.mpi {
                return;
            }
            out.push(row.slot);
        };
        let mut blocks = self.rows.chunks_exact(4);
        for blk in &mut blocks {
            let d = l2_sq_x4(
                q,
                &blk[0].centroid,
                &blk[1].centroid,
                &blk[2].centroid,
                &blk[3].centroid,
            );
            for (row, d2) in blk.iter().zip(d) {
                keep(row, d2);
            }
        }
        for row in blocks.remainder() {
            keep(row, l2_sq(q, &row.centroid));
        }
    }
}

/// The squared-distance gate of radius `r`: `fl(g·g·(1 + 10⁻⁵) +
/// MIN_POSITIVE)` with `g = 2·(r + MPI)`. Every step rounds monotonically,
/// so `max(gate(rᵢ), gate(rⱼ))` is the gate of `max(rᵢ, rⱼ)`.
///
/// It never drops a pair the predicate keeps. With `t = max(rᵢ, rⱼ) + MPI`,
/// `g = 2t` exactly, and `d·0.5` is exactly half of `d = fl(√d2)` (a
/// subnormal `d` has `d2 < MIN_POSITIVE`, inside the gate), so the
/// predicate keeps the pair iff `d < g`. As the square root rounds to
/// nearest, the real `√d2 < g`, so `d2 < g²`. For a normal `g²`,
/// `fl(g·g) ≥ g²·(1 − 2⁻²⁴)`, and the slack (≥ `1 + 2⁻¹⁷` in `f32`) lifts
/// it, rounded, above `g²`; for a subnormal one the rounding errors are
/// below `2⁻¹⁴⁹` each and `MIN_POSITIVE` (`2⁻¹²⁶`) covers them. A NaN `d2`
/// or an infinite gate passes, as the predicate keeps a NaN distance too.
fn gate(r: f32, mpi: f32) -> f32 {
    let reach = 2.0 * (r + mpi);
    reach * reach * GATE_SLACK + f32::MIN_POSITIVE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Bag, BagConfig, BagSnapshot};
    use eff2_descriptor::{Descriptor, DescriptorSet, SyntheticCollection, Vector};

    fn clusters_at(xs: &[f32]) -> (DescriptorSet, Vec<Option<Cluster>>) {
        let set: DescriptorSet = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| Descriptor::new(i as u32, Vector::splat(x)))
            .collect();
        let clusters = (0..xs.len())
            .map(|i| Some(Cluster::singleton(i as u32, &set)))
            .collect();
        (set, clusters)
    }

    /// Brute-force viability bound for the superset check.
    fn must_return(a: &Cluster, b: &Cluster, mpi: f32) -> bool {
        a.centroid.dist(&b.centroid) < 2.0 * (a.radius.max(b.radius) + mpi)
    }

    #[test]
    fn exhaustive_returns_every_slot() {
        let (_, clusters) = clusters_at(&[0.0, 5.0, 10.0]);
        let mut e = CandidateEngine::build(EngineKind::Exhaustive, &clusters, 1.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn pruned_covers_everything_viable() {
        let xs: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let (_, clusters) = clusters_at(&xs);
        let mpi = 2.5;
        let mut e = CandidateEngine::build(EngineKind::Pruned, &clusters, mpi);
        for i in 0..clusters.len() {
            let mut out = Vec::new();
            e.candidates(i, &clusters, &mut out);
            let ci = clusters[i].as_ref().unwrap();
            for (j, c) in clusters.iter().enumerate() {
                if j == i {
                    continue;
                }
                let cj = c.as_ref().unwrap();
                if must_return(ci, cj, mpi) {
                    assert!(
                        out.contains(&j),
                        "viable slot {j} missing from candidates of {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_covers_viable_pairs_with_mixed_radii() {
        // One inflated survivor among many singletons: its own radius makes
        // it a partner of every query, and wide queries from it must reach
        // the distant singletons.
        let xs: Vec<f32> = (0..60).map(|i| i as f32 * 2.0).collect();
        let (_, mut clusters) = clusters_at(&xs);
        if let Some(c) = clusters[0].as_mut() {
            c.radius = 200.0;
        }
        let mpi = 1.0;
        let mut e = CandidateEngine::build(EngineKind::Pruned, &clusters, mpi);
        for i in 0..clusters.len() {
            let mut out = Vec::new();
            e.candidates(i, &clusters, &mut out);
            let ci = clusters[i].as_ref().unwrap();
            for (j, c) in clusters.iter().enumerate() {
                if j == i {
                    continue;
                }
                let cj = c.as_ref().unwrap();
                if must_return(ci, cj, mpi) {
                    assert!(
                        out.contains(&j),
                        "mixed radii: viable slot {j} missing from candidates of {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_prunes_distant_slots() {
        // Two tight groups 1000 apart (per axis): singleton queries must
        // not see the far group.
        let xs = [0.0, 0.1, 0.2, 1000.0, 1000.1];
        let (_, clusters) = clusters_at(&xs);
        let mut e = CandidateEngine::build(EngineKind::Pruned, &clusters, 1.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        assert!(out.contains(&1) && out.contains(&2));
        assert!(!out.contains(&3) && !out.contains(&4));
    }

    #[test]
    fn pruned_skips_consumed_slots() {
        let (_, mut clusters) = clusters_at(&[0.0, 0.1, 0.2]);
        clusters[1] = None;
        let mut e = CandidateEngine::build(EngineKind::Pruned, &clusters, 1.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        assert!(!out.contains(&1), "consumed slots must not be indexed");
    }

    #[test]
    fn pruned_handles_zero_mpi_degenerate() {
        // With MPI 0 the walk's strict `d·0.5 < max(r) + MPI` rejects two
        // coincident radius-zero centroids and accepts them once either
        // radius is positive; the scan must agree on both sides.
        let (_, mut clusters) = clusters_at(&[0.0, 0.0]);
        let mut e = CandidateEngine::build(EngineKind::Pruned, &clusters, 0.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        assert!(!out.contains(&1), "0 < 0 is false: not viable");
        if let Some(c) = clusters[1].as_mut() {
            c.radius = 1e-30;
        }
        let mut e = CandidateEngine::build(EngineKind::Pruned, &clusters, 0.0);
        out.clear();
        e.candidates(0, &clusters, &mut out);
        assert!(
            out.contains(&1),
            "coincident centroids with a radius are viable"
        );
    }

    #[test]
    fn wide_queries_reach_everything() {
        // A query whose radius dwarfs the pivot gets everything.
        let xs: Vec<f32> = (0..30).map(|i| i as f32 * 10.0).collect();
        let (_, mut clusters) = clusters_at(&xs);
        if let Some(c) = clusters[0].as_mut() {
            c.radius = 1e6;
        }
        let mut e = CandidateEngine::build(EngineKind::Pruned, &clusters, 1.0);
        let mut out = Vec::new();
        e.candidates(0, &clusters, &mut out);
        for j in 1..clusters.len() {
            assert!(out.contains(&j), "slot {j} missing from wide query");
        }
    }

    #[test]
    fn pruned_is_bit_identical_to_exhaustive_across_windows() {
        // Pass 1 walks every descriptor, so it spans more than three scan
        // windows; both checkpoints compare every field bit for bit.
        let set = SyntheticCollection::with_size(900, 5).set;
        assert!(set.len() > 3 * WINDOW, "{} rows", set.len());
        let mpi = BagConfig::estimate_mpi(&set, 300, 5);
        let run = |engine| {
            let cfg = BagConfig {
                mpi,
                max_passes: 100,
                engine,
                fast_forward: true,
            };
            Bag::new(&set, cfg).run_with_checkpoints(&[24, 8])
        };
        let fields = |s: &BagSnapshot| {
            let clusters: Vec<_> = s
                .clusters
                .iter()
                .map(|c| {
                    (
                        c.members.clone(),
                        c.centroid.as_array().map(f32::to_bits),
                        c.radius.to_bits(),
                        c.tight_radius.to_bits(),
                    )
                })
                .collect();
            let counters = (s.passes, s.converged, s.exact_tests);
            (
                clusters,
                s.outliers.clone(),
                counters,
                s.exhaustive_equivalent_tests,
            )
        };
        let exhaustive = run(EngineKind::Exhaustive);
        let pruned = run(EngineKind::Pruned);
        for (a, b) in exhaustive.iter().zip(&pruned) {
            assert!(a.exact_tests > 0 && a.passes > 1, "the run must merge");
            assert_eq!(fields(a), fields(b), "target {}", a.target);
        }
    }
}
