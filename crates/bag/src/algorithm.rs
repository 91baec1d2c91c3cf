//! The BAG pass loop: merging, radius inflation, per-pass destruction,
//! termination and outlier extraction.

#![expect(
    clippy::indexing_slicing,
    reason = "slot and partition tables are indexed by ids the pass itself allocates and keeps dense"
)]

use crate::cluster::Cluster;
use crate::engine::{CandidateEngine, EngineKind};
use eff2_descriptor::DescriptorSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Destruction threshold: clusters holding fewer than this fraction of the
/// average population are destroyed. Per pass their members become
/// singletons again; at termination they are declared outliers. The paper
/// uses 20 % for both rules (§3).
const DESTROY_FRACTION: f32 = 0.2;
/// The stall skip (see `Bag::stall_skip`) is only attempted while at most
/// this many clusters are alive. It scans all Θ(n²) pairs; early idle
/// passes (huge n, tiny radii) resolve far cheaper through ordinary
/// grid-pruned passes, whereas late stalls (n small, radii large) are where
/// whole streaks of idle passes get jumped.
const FAST_FORWARD_MAX_CLUSTERS: usize = 25_000;

/// Parameters of a BAG run.
#[derive(Clone, Copy, Debug)]
pub struct BagConfig {
    /// The Maximum Possible Increment for radii (the paper's "one key
    /// value, called MPI"). Governs both the merge rule threshold and the
    /// per-pass inflation of non-merging clusters.
    pub mpi: f32,
    /// Safety bound on the number of passes.
    pub max_passes: usize,
    /// Candidate engine (see [`EngineKind`]).
    pub engine: EngineKind,
    /// Skip runs of provably idle passes in one step (see
    /// `Bag::stall_skip`). Exactness-preserving: the skipped passes could
    /// not have merged or destroyed anything, only inflated radii, which
    /// the skip applies directly. Disabling it gives the paper's
    /// pass-by-pass execution, which the `fast_forward_is_exact` test
    /// uses as the reference the skip must match.
    pub fast_forward: bool,
}

impl Default for BagConfig {
    fn default() -> Self {
        BagConfig {
            mpi: 1.0,
            max_passes: 200,
            engine: EngineKind::Pruned,
            fast_forward: true,
        }
    }
}

impl BagConfig {
    /// Estimates a workable MPI for `set`: half the *median*
    /// nearest-neighbour distance within a random sample. MPI sets the
    /// granularity at which clusters coalesce per pass; the paper treats it
    /// as a given. The median (not the mean) is essential: descriptor
    /// collections carry ~10 % outliers whose nearest-neighbour distances
    /// are an order of magnitude larger and would blow the estimate up.
    pub fn estimate_mpi(set: &DescriptorSet, sample_size: usize, seed: u64) -> f32 {
        let n = set.len();
        if n < 2 {
            return 1.0;
        }
        let m = sample_size.clamp(2, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let sample: Vec<usize> = (0..m).map(|_| rng.gen_range(0..n)).collect();
        // Gather the sample into a dense row block once, then run the
        // blocked distance kernel per sample point — each point's
        // nearest-in-sample search is independent, so the m×m phase
        // parallelises across sample points.
        let rows = eff2_descriptor::as_rows(set.packed());
        let sample_rows: Vec<[f32; eff2_descriptor::DIM]> =
            sample.iter().map(|&i| rows[i]).collect();
        let mut nn_dists: Vec<f32> = eff2_parallel::par_map(&sample_rows, |a, q| {
            let mut dists = vec![0.0f32; m];
            eff2_descriptor::kernels::l2_sq_rows(q, &sample_rows, &mut dists);
            let mut best = f32::INFINITY;
            for (b, &d) in dists.iter().enumerate() {
                if b != a && d < best {
                    best = d;
                }
            }
            best.sqrt()
        });
        nn_dists.sort_by(f32::total_cmp);
        (nn_dists[m / 2] * 0.5).max(1e-6)
    }
}

/// Statistics of one pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PassStats {
    /// Merges performed.
    pub merges: usize,
    /// Clusters that *survived* destruction this pass. Termination compares
    /// this against the user target: the reborn singletons are raw material
    /// for the next pass, not clusters in their own right — otherwise the
    /// count could never fall below the outlier population and the paper's
    /// 8–12 % unabsorbed outliers at termination would be impossible.
    pub survivors: usize,
}

/// The outcome of running BAG down to a target cluster count.
#[derive(Clone, Debug)]
pub struct BagSnapshot {
    /// The requested target cluster count.
    pub target: usize,
    /// Retained clusters (after outlier destruction).
    pub clusters: Vec<Cluster>,
    /// Positions of the descriptors declared outliers.
    pub outliers: Vec<u32>,
    /// Passes executed so far.
    pub passes: usize,
    /// Whether the run actually reached the target (`false` means the
    /// `max_passes` safety bound fired first).
    pub converged: bool,
    /// Cumulative exact merged-radius evaluations.
    pub exact_tests: u64,
    /// Cumulative exhaustive-equivalent merge tests (formation cost model).
    pub exhaustive_equivalent_tests: u64,
}

impl BagSnapshot {
    /// Total descriptors accounted for (cluster members + outliers).
    pub fn total_descriptors(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum::<usize>() + self.outliers.len()
    }

    /// Mean population of the retained clusters.
    pub fn mean_cluster_size(&self) -> f64 {
        if self.clusters.is_empty() {
            0.0
        } else {
            self.clusters.iter().map(Cluster::len).sum::<usize>() as f64
                / self.clusters.len() as f64
        }
    }
}

/// `DESTROY_FRACTION` × the average population of `clusters` (0 when
/// there are none).
fn destruction_limit(clusters: &[Cluster]) -> f64 {
    if clusters.is_empty() {
        return 0.0;
    }
    let avg = clusters.iter().map(Cluster::len).sum::<usize>() as f64 / clusters.len() as f64;
    avg * f64::from(DESTROY_FRACTION)
}

/// A BAG clustering run over a borrowed collection.
#[derive(Debug)]
pub struct Bag<'a> {
    set: &'a DescriptorSet,
    cfg: BagConfig,
    clusters: Vec<Cluster>,
    passes: usize,
    history: Vec<PassStats>,
    exact_tests: u64,
    exhaustive_tests: u64,
}

impl<'a> Bag<'a> {
    /// Initialises the run: one singleton cluster per descriptor.
    pub fn new(set: &'a DescriptorSet, cfg: BagConfig) -> Self {
        assert!(cfg.mpi > 0.0, "MPI must be positive");
        let clusters = (0..set.len() as u32)
            .map(|p| Cluster::singleton(p, set))
            .collect();
        Bag {
            set,
            cfg,
            clusters,
            passes: 0,
            history: Vec::new(),
            exact_tests: 0,
            exhaustive_tests: 0,
        }
    }

    /// Executes one pass: scan, merge, inflate, destroy.
    pub(crate) fn run_pass(&mut self) -> PassStats {
        self.passes += 1;
        let n = self.clusters.len();
        let mut slots: Vec<Option<Cluster>> = std::mem::take(&mut self.clusters)
            .into_iter()
            .map(Some)
            .collect();
        let engine = CandidateEngine::build(self.cfg.engine, &slots, self.cfg.mpi);

        let mut merged: Vec<Cluster> = Vec::new();
        let mut candidates: Vec<usize> = Vec::new();
        let mut viable: Vec<(f32, usize)> = Vec::new();
        let mut alive = n as u64;
        let mut merges = 0usize;
        let mut exact_tests = 0u64;
        let mut exhaustive_tests = 0u64;

        for i in 0..n {
            if slots[i].is_none() {
                continue;
            }
            // The paper's exhaustive scan would examine every other
            // existing cluster here.
            exhaustive_tests += alive.saturating_sub(1);

            candidates.clear();
            engine.candidates(i, &slots, &mut candidates);

            // Rank viable candidates by centroid distance so the chosen
            // partner is the nearest cluster satisfying the merge rule
            // (deterministic: ties broken by slot id).
            viable.clear();
            {
                let Some(ci) = slots[i].as_ref() else {
                    continue;
                };
                for &j in &candidates {
                    if j == i {
                        continue;
                    }
                    let Some(cj) = slots[j].as_ref() else {
                        continue;
                    };
                    let d = ci.centroid.dist(&cj.centroid);
                    let threshold = ci.radius.max(cj.radius) + self.cfg.mpi;
                    // Lower bound: merged radius ≥ d/2.
                    if d * 0.5 >= threshold {
                        continue;
                    }
                    viable.push((d, j));
                }
            }
            // Examine viable candidates in increasing centroid distance,
            // but only *select* them in batches of the nearest 64: the
            // partner is almost always among the closest few, and fully
            // sorting tens of thousands of low-contrast candidates would
            // dominate the pass. Batched selection with a total (d, id)
            // comparator visits exactly the full-sort order.
            let cmp = |a: &(f32, usize), b: &(f32, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
            let mut partner: Option<usize> = None;
            let mut start = 0usize;
            while start < viable.len() && partner.is_none() {
                let batch_end = (start + 64).min(viable.len());
                if batch_end < viable.len() {
                    viable[start..].select_nth_unstable_by(batch_end - start - 1, cmp);
                }
                viable[start..batch_end].sort_by(cmp);
                let Some(ci) = slots[i].as_ref() else {
                    break;
                };
                for &(_, j) in &viable[start..batch_end] {
                    let Some(cj) = slots[j].as_ref() else {
                        continue;
                    };
                    let threshold = ci.radius.max(cj.radius) + self.cfg.mpi;
                    let c_new = Cluster::merged_centroid(ci, cj);
                    if Cluster::merged_radius_upper(ci, cj, &c_new) < threshold {
                        partner = Some(j);
                        break;
                    }
                    if Cluster::merged_radius_lower(ci, cj, &c_new) >= threshold {
                        continue;
                    }
                    exact_tests += 1;
                    if Cluster::merged_radius_exact(ci, cj, &c_new, self.set) < threshold {
                        partner = Some(j);
                        break;
                    }
                }
                start = batch_end;
            }

            if let Some(j) = partner {
                if let (Some(a), Some(b)) = (slots[i].take(), slots[j].take()) {
                    merged.push(Cluster::merge(a, b, self.set));
                    merges += 1;
                    alive -= 2; // both endpoints leave the candidate pool
                }
            }
        }

        // Rebuild: merged clusters keep their fresh minimal radius;
        // survivors that did not merge get their radius inflated by MPI.
        let mut next = merged;
        for slot in slots.into_iter().flatten() {
            let mut c = slot;
            c.radius += self.cfg.mpi;
            next.push(c);
        }

        // End-of-pass destruction: clusters below DESTROY_FRACTION × the
        // average population dissolve back into singletons.
        let pre_destruction = next.len();
        let destroyed = self.destroy_small(&mut next, None);

        let stats = PassStats {
            merges,
            survivors: pre_destruction - destroyed,
        };
        self.clusters = next;
        self.exact_tests += exact_tests;
        self.exhaustive_tests += exhaustive_tests;
        self.history.push(stats);
        stats
    }

    /// Destroys clusters below [`destruction_limit`] from `clusters`. With
    /// `outliers == None`, members are re-appended as singletons (the
    /// per-pass rule); with `Some`, members are recorded as outliers (the
    /// termination rule). Returns the number destroyed.
    fn destroy_small(
        &self,
        clusters: &mut Vec<Cluster>,
        mut outliers: Option<&mut Vec<u32>>,
    ) -> usize {
        let limit = destruction_limit(clusters);
        let mut destroyed = 0usize;
        let mut reborn: Vec<Cluster> = Vec::new();
        clusters.retain(|c| {
            if (c.len() as f64) < limit {
                destroyed += 1;
                match &mut outliers {
                    Some(out) => out.extend(&c.members),
                    None => {
                        reborn.extend(c.members.iter().map(|&p| Cluster::singleton(p, self.set)))
                    }
                }
                false
            } else {
                true
            }
        });
        clusters.append(&mut reborn);
        destroyed
    }

    /// A snapshot of the current state *as if* the run terminated now:
    /// applies the final outlier rule to a copy of the clusters without
    /// disturbing the ongoing run (the paper generates its SMALL, MEDIUM
    /// and LARGE clusterings "from the other in succession").
    pub fn snapshot(&self, target: usize, converged: bool) -> BagSnapshot {
        let mut clusters = self.clusters.clone();
        let mut outliers = Vec::new();
        self.destroy_small(&mut clusters, Some(&mut outliers));
        outliers.sort_unstable();
        BagSnapshot {
            target,
            clusters,
            outliers,
            passes: self.passes,
            converged,
            exact_tests: self.exact_tests,
            exhaustive_equivalent_tests: self.exhaustive_tests,
        }
    }

    /// Runs passes until the number of clusters *surviving destruction*
    /// falls below `target` (clamped to at least 1) or `max_passes` is
    /// exhausted, then snapshots.
    pub fn run_to(&mut self, target: usize) -> BagSnapshot {
        let target = target.max(1);
        if self.history.last().is_some_and(|s| s.survivors < target) {
            // A previous checkpoint already drove the run past this target.
            return self.snapshot(target, true);
        }
        loop {
            if self.clusters.is_empty() {
                return self.snapshot(target, true);
            }
            let stats = self.run_pass();
            if stats.survivors < target {
                return self.snapshot(target, true);
            }
            if self.passes >= self.cfg.max_passes {
                return self.snapshot(target, false);
            }
            if self.cfg.fast_forward
                && stats.merges == 0
                && self.clusters.len() <= FAST_FORWARD_MAX_CLUSTERS
            {
                self.apply_stall_skip();
                if self.passes >= self.cfg.max_passes {
                    return self.snapshot(target, false);
                }
            }
        }
    }

    /// Computes how many further passes would provably merge nothing.
    ///
    /// During an idle pass the state is a fixed point except for radii:
    /// clusters that survive destruction inflate by MPI, destroyed
    /// clusters are reborn as radius-zero singletons (so they present
    /// radius 0 at every scan). A pair (i, j) can only merge once its
    /// merged minimum-bounding-radius *lower bound* drops below
    /// `max(rᵢ(k), rⱼ(k)) + MPI`, where `r(k)` grows by `k·MPI` for
    /// surviving clusters and stays fixed for perpetually-reborn ones.
    /// The lower bound itself is k-independent:
    /// `max(tᵢ − dᵢ, tⱼ − dⱼ, dᵢ, dⱼ)` with `dᵢ = d·nⱼ/(nᵢ+nⱼ)` the exact
    /// centroid displacement. The minimum viable k over all pairs is the
    /// number of passes that can be skipped wholesale.
    ///
    /// Returns `None` when no pair can ever become viable (only
    /// non-growing clusters remain).
    pub(crate) fn stall_skip(&self) -> Option<usize> {
        let n = self.clusters.len();
        if n < 2 {
            return None;
        }
        let limit = destruction_limit(&self.clusters);
        let mpi = f64::from(self.cfg.mpi);
        let grows: Vec<bool> = self
            .clusters
            .iter()
            .map(|c| (c.len() as f64) >= limit)
            .collect();
        // The pair scan is a pure min-reduction: every (i, j) contributes a
        // k-value independently, so the outer rows parallelise and the
        // global minimum is order-independent (identical to the sequential
        // scan, including its early exit at 0 — zero is the global minimum).
        let row_min = eff2_parallel::par_map(&self.clusters, |i, a| {
            let mut best = usize::MAX;
            for (dj, b) in self.clusters[(i + 1)..].iter().enumerate() {
                let j = i + 1 + dj;
                let d = f64::from(a.centroid.dist(&b.centroid));
                let (na, nb) = (a.len() as f64, b.len() as f64);
                let da = d * nb / (na + nb);
                let db = d * na / (na + nb);
                let lower = (f64::from(a.tight_radius) - da)
                    .max(f64::from(b.tight_radius) - db)
                    .max(da)
                    .max(db)
                    .max(0.0);
                // Radius each member would present at scan time after k
                // skipped passes.
                let ra = f64::from(a.radius);
                let rb = f64::from(b.radius);
                let k_pair = if lower < ra.max(rb) + mpi {
                    0 // already bound-viable; a real pass must decide
                } else {
                    let mut k = usize::MAX;
                    if grows[i] {
                        k = k.min(((lower - mpi - ra) / mpi).ceil().max(1.0) as usize);
                    }
                    if grows[j] {
                        k = k.min(((lower - mpi - rb) / mpi).ceil().max(1.0) as usize);
                    }
                    k
                };
                best = best.min(k_pair);
                if best == 0 {
                    break;
                }
            }
            best
        });
        row_min.into_iter().min().filter(|&k| k != usize::MAX)
    }

    /// Applies the stall skip: jumps over the provably idle passes in one
    /// step, inflating surviving clusters and accounting the skipped
    /// passes' exhaustive-equivalent cost.
    fn apply_stall_skip(&mut self) {
        let Some(k) = self.stall_skip() else {
            // Nothing can ever merge again; burn the remaining pass budget
            // so run_to terminates instead of spinning.
            self.passes = self.cfg.max_passes;
            return;
        };
        let k = k.min(self.cfg.max_passes.saturating_sub(self.passes));
        if k == 0 {
            return;
        }
        let limit = destruction_limit(&self.clusters);
        let bump = self.cfg.mpi * k as f32;
        for c in &mut self.clusters {
            if (c.len() as f64) >= limit {
                c.radius += bump;
            }
        }
        self.passes += k;
        // Each skipped pass would have examined every pair exhaustively.
        let n = self.clusters.len() as u64;
        self.exhaustive_tests += k as u64 * n.saturating_mul(n.saturating_sub(1));
    }

    /// Runs through a descending sequence of targets, snapshotting at each
    /// — the paper's SMALL → MEDIUM → LARGE pipeline ("each clustering was
    /// generated from the other in succession").
    ///
    /// # Panics
    ///
    /// Panics if `targets` is not strictly descending.
    pub fn run_with_checkpoints(&mut self, targets: &[usize]) -> Vec<BagSnapshot> {
        assert!(
            targets.windows(2).all(|w| w[0] > w[1]),
            "checkpoint targets must be strictly descending"
        );
        targets.iter().map(|&t| self.run_to(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::{Descriptor, Vector};

    /// Three well-separated groups of 10, plus 2 far-flung stragglers.
    fn grouped_set() -> DescriptorSet {
        let mut set = DescriptorSet::new();
        let mut id = 0u32;
        for (center, n) in [(0.0f32, 10usize), (50.0, 10), (100.0, 10)] {
            for i in 0..n {
                let mut v = Vector::splat(center);
                v[0] += i as f32 * 0.1;
                v[1] -= i as f32 * 0.05;
                set.push(Descriptor::new(id, v));
                id += 1;
            }
        }
        set.push(Descriptor::new(id, Vector::splat(400.0)));
        set.push(Descriptor::new(id + 1, Vector::splat(-400.0)));
        set
    }

    fn cfg(engine: EngineKind) -> BagConfig {
        BagConfig {
            mpi: 0.5,
            max_passes: 100,
            engine,
            fast_forward: true,
        }
    }

    #[test]
    fn converges_to_natural_clusters() {
        // Steady state is 3 group clusters + 2 straggler singletons; the
        // stragglers are destroyed each pass and reborn, so the count
        // settles at 5 — a target of 6 terminates there, and the final
        // outlier rule strips the stragglers.
        let set = grouped_set();
        let mut bag = Bag::new(&set, cfg(EngineKind::Pruned));
        let snap = bag.run_to(6);
        assert!(snap.converged);
        assert_eq!(snap.clusters.len(), 3, "got {}", snap.clusters.len());
        // The three natural groups must each live in a single cluster.
        for group_start in [0u32, 10, 20] {
            let holder: Vec<usize> = snap
                .clusters
                .iter()
                .enumerate()
                .filter(|(_, c)| c.members.contains(&group_start))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(holder.len(), 1);
            let c = &snap.clusters[holder[0]];
            for m in group_start..group_start + 10 {
                assert!(c.members.contains(&m), "member {m} strayed");
            }
        }
    }

    #[test]
    fn stragglers_become_outliers() {
        let set = grouped_set();
        let mut bag = Bag::new(&set, cfg(EngineKind::Pruned));
        let snap = bag.run_to(6);
        assert!(snap.outliers.contains(&30));
        assert!(snap.outliers.contains(&31));
    }

    #[test]
    fn descriptor_conservation() {
        let set = grouped_set();
        let mut bag = Bag::new(&set, cfg(EngineKind::Pruned));
        let snap = bag.run_to(6);
        assert_eq!(snap.total_descriptors(), set.len());
        // No duplicates anywhere.
        let mut seen = vec![false; set.len()];
        for c in &snap.clusters {
            for &m in &c.members {
                assert!(!seen[m as usize]);
                seen[m as usize] = true;
            }
        }
        for &o in &snap.outliers {
            assert!(!seen[o as usize]);
            seen[o as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn radii_cover_members() {
        let set = grouped_set();
        let mut bag = Bag::new(&set, cfg(EngineKind::Pruned));
        let snap = bag.run_to(6);
        for c in &snap.clusters {
            for &m in &c.members {
                let d = c.centroid.dist(&set.vector_owned(m as usize));
                assert!(d <= c.tight_radius * (1.0 + 1e-5) + 1e-4);
                assert!(c.tight_radius <= c.radius * (1.0 + 1e-5) + 1e-4);
            }
        }
    }

    #[test]
    fn engines_produce_identical_clusterings() {
        let set = grouped_set();
        let a = Bag::new(&set, cfg(EngineKind::Exhaustive)).run_to(6);
        let b = Bag::new(&set, cfg(EngineKind::Pruned)).run_to(6);
        let norm = |snap: &BagSnapshot| {
            let mut cs: Vec<Vec<u32>> = snap
                .clusters
                .iter()
                .map(|c| {
                    let mut m = c.members.clone();
                    m.sort_unstable();
                    m
                })
                .collect();
            cs.sort();
            (cs, snap.outliers.clone())
        };
        assert_eq!(norm(&a), norm(&b));
        assert_eq!(a.passes, b.passes);
    }

    #[test]
    fn grid_engine_does_far_fewer_exact_tests_worth_of_work() {
        // Both engines report the same exhaustive-equivalent cost model.
        let set = grouped_set();
        let a = Bag::new(&set, cfg(EngineKind::Exhaustive)).run_to(6);
        let b = Bag::new(&set, cfg(EngineKind::Pruned)).run_to(6);
        assert_eq!(a.exhaustive_equivalent_tests, b.exhaustive_equivalent_tests);
        assert!(a.exhaustive_equivalent_tests > 0);
    }

    #[test]
    fn checkpoints_are_monotone() {
        let set = grouped_set();
        let mut bag = Bag::new(&set, cfg(EngineKind::Pruned));
        let snaps = bag.run_with_checkpoints(&[10, 6]);
        assert_eq!(snaps.len(), 2);
        assert!(snaps[0].clusters.len() >= snaps[1].clusters.len());
        assert!(snaps[0].passes <= snaps[1].passes);
    }

    #[test]
    #[should_panic(expected = "strictly descending")]
    fn checkpoints_must_descend() {
        let set = grouped_set();
        Bag::new(&set, cfg(EngineKind::Pruned)).run_with_checkpoints(&[6, 10]);
    }

    #[test]
    fn empty_collection() {
        let set = DescriptorSet::new();
        let mut bag = Bag::new(&set, cfg(EngineKind::Pruned));
        let snap = bag.run_to(5);
        assert!(snap.converged);
        assert!(snap.clusters.is_empty());
        assert!(snap.outliers.is_empty());
    }

    #[test]
    fn single_descriptor() {
        let set: DescriptorSet = [Descriptor::new(0, Vector::splat(1.0))]
            .into_iter()
            .collect();
        let snap = Bag::new(&set, cfg(EngineKind::Pruned)).run_to(1);
        // Count (1) is not below target (1) until… it can never go below 1,
        // so the pass bound fires.
        assert!(!snap.converged);
        assert_eq!(snap.total_descriptors(), 1);
    }

    #[test]
    fn max_passes_bounds_runtime() {
        let set = grouped_set();
        let mut c = cfg(EngineKind::Pruned);
        c.max_passes = 1;
        let snap = Bag::new(&set, c).run_to(1);
        assert_eq!(snap.passes, 1);
        assert!(!snap.converged);
    }

    #[test]
    fn identical_points_collapse_to_one_cluster() {
        let set: DescriptorSet = (0..20)
            .map(|i| Descriptor::new(i, Vector::splat(3.0)))
            .collect();
        let snap = Bag::new(&set, cfg(EngineKind::Pruned)).run_to(5);
        assert!(snap.converged);
        // Identical points merge freely (merged radius stays 0); the run
        // stops as soon as the count drops below the target.
        assert!(snap.clusters.len() < 5);
        assert_eq!(snap.total_descriptors(), 20);
        for c in &snap.clusters {
            assert_eq!(c.tight_radius, 0.0);
        }
    }

    #[test]
    fn estimate_mpi_positive_and_deterministic() {
        let set = grouped_set();
        let a = BagConfig::estimate_mpi(&set, 16, 7);
        let b = BagConfig::estimate_mpi(&set, 16, 7);
        assert!(a > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn fast_forward_is_exact() {
        // With and without the stall skip, the clustering, outliers and
        // (virtual) pass count must be identical — the skip only jumps
        // over passes that provably change nothing but radii.
        let set = grouped_set();
        let mut slow_cfg = cfg(EngineKind::Pruned);
        slow_cfg.fast_forward = false;
        slow_cfg.max_passes = 2_000;
        let mut fast_cfg = slow_cfg;
        fast_cfg.fast_forward = true;
        // Target 4 forces straggler absorption: the 2 stragglers at
        // splat(±400) must be swallowed via radius inflation, which takes
        // thousands of idle passes at MPI 0.5 — the skip jumps them.
        let slow = Bag::new(&set, slow_cfg).run_to(3);
        let fast = Bag::new(&set, fast_cfg).run_to(3);
        let norm = |snap: &BagSnapshot| {
            let mut cs: Vec<Vec<u32>> = snap
                .clusters
                .iter()
                .map(|c| {
                    let mut m = c.members.clone();
                    m.sort_unstable();
                    m
                })
                .collect();
            cs.sort();
            (cs, snap.outliers.clone())
        };
        assert_eq!(norm(&slow), norm(&fast));
        assert_eq!(slow.converged, fast.converged);
        assert_eq!(slow.passes, fast.passes, "virtual pass counts must agree");
    }

    #[test]
    fn fast_forward_skips_idle_grind() {
        // The fast path must reach the same terminal state in far fewer
        // *executed* passes (history length) than virtual passes.
        let set = grouped_set();
        let mut c = cfg(EngineKind::Pruned);
        c.fast_forward = true;
        c.max_passes = 5_000;
        let mut bag = Bag::new(&set, c);
        let snap = bag.run_to(3);
        assert!(snap.converged, "absorption must eventually converge");
        assert!(
            bag.history.len() * 4 < snap.passes,
            "executed {} passes for {} virtual ones — skip not engaging",
            bag.history.len(),
            snap.passes
        );
    }

    #[test]
    fn stall_skip_none_when_nothing_can_grow() {
        // Two lone descriptors: both become perpetually-reborn singletons
        // (each is below 20% of the average? avg=1, limit 0.2, len 1 ≥ 0.2
        // so they DO grow) — use an explicit empty-ish case instead: a
        // single cluster can never merge.
        let set: DescriptorSet = [Descriptor::new(0, Vector::splat(1.0))]
            .into_iter()
            .collect();
        let bag = Bag::new(&set, cfg(EngineKind::Pruned));
        assert_eq!(bag.stall_skip(), None);
    }

    #[test]
    fn history_records_every_pass() {
        let set = grouped_set();
        let mut bag = Bag::new(&set, cfg(EngineKind::Pruned));
        let snap = bag.run_to(6);
        assert_eq!(bag.history.len(), snap.passes);
    }
}
