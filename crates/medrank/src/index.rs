//! The Medrank index: random-line projections and the median-rank cursor
//! walk.

#![expect(
    clippy::indexing_slicing,
    reason = "rank arrays are sized to the collection by the builder that indexes them"
)]

use eff2_descriptor::{DescriptorSet, Vector, DIM};
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build/query parameters.
#[derive(Clone, Copy, Debug)]
pub struct MedrankParams {
    /// Number of random projection lines (`L`). Fagin et al. use a handful;
    /// more lines sharpen the median vote at higher scan cost.
    pub lines: usize,
    /// RNG seed for the line directions.
    pub seed: u64,
    /// A candidate is emitted once seen on strictly more than
    /// `vote_fraction · L` lines (the MEDRANK rule is 1/2).
    pub vote_fraction: f64,
}

impl Default for MedrankParams {
    fn default() -> Self {
        MedrankParams {
            lines: 9,
            seed: 42,
            vote_fraction: 0.5,
        }
    }
}

/// One answer of a Medrank query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MedrankResult {
    /// Descriptor identifier.
    pub id: u32,
    /// Number of lines on which the element had been seen when emitted.
    pub votes: u32,
}

/// One sorted projection run.
struct Line {
    /// Unit direction.
    direction: [f32; DIM],
    /// `(projection, position)` sorted ascending by projection.
    run: Vec<(f32, u32)>,
}

/// The Medrank index over a collection.
pub struct MedrankIndex {
    lines: Vec<Line>,
    params: MedrankParams,
    ids: Vec<u32>,
    n: usize,
}

/// Per-line outward cursor state.
struct Cursor<'a> {
    run: &'a [(f32, u32)],
    /// Next candidate below the query projection (walks down).
    lo: isize,
    /// Next candidate at/above the query projection (walks up).
    hi: usize,
    q_proj: f32,
}

impl Cursor<'_> {
    /// The next element in order of |projection − q|, or `None` when the
    /// run is exhausted.
    fn next(&mut self) -> Option<u32> {
        let take_lo = match (self.lo >= 0, self.hi < self.run.len()) {
            (true, true) => {
                let d_lo = self.q_proj - self.run[self.lo as usize].0;
                let d_hi = self.run[self.hi].0 - self.q_proj;
                d_lo <= d_hi
            }
            (true, false) => true,
            (false, true) => false,
            (false, false) => return None,
        };
        if take_lo {
            let pos = self.run[self.lo as usize].1;
            self.lo -= 1;
            Some(pos)
        } else {
            let pos = self.run[self.hi].1;
            self.hi += 1;
            Some(pos)
        }
    }
}

impl MedrankIndex {
    /// Builds the index: projects every descriptor of `set` onto
    /// `params.lines` random unit directions and sorts each run.
    pub fn build(set: &DescriptorSet, params: MedrankParams) -> MedrankIndex {
        assert!(params.lines >= 1, "need at least one projection line");
        assert!(
            (0.0..1.0).contains(&params.vote_fraction),
            "vote fraction must be in [0,1)"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = set.len();
        let lines = (0..params.lines)
            .map(|_| {
                let direction = random_unit(&mut rng);
                let mut run: Vec<(f32, u32)> = (0..n)
                    .map(|i| (dot(set.vector(i), &direction), i as u32))
                    .collect();
                run.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                Line { direction, run }
            })
            .collect();
        MedrankIndex {
            lines,
            params,
            ids: set.raw_ids().to_vec(),
            n,
        }
    }

    /// The build parameters.
    pub fn params(&self) -> &MedrankParams {
        &self.params
    }

    /// Approximate k-nearest neighbours of `query` by median-rank
    /// aggregation. Returns up to `k` results in emission (median-rank)
    /// order, plus the number of cursor steps performed — the algorithm's
    /// cost unit (it never computes a 24-dimensional distance).
    pub fn knn(&self, query: &Vector, k: usize) -> (Vec<MedrankResult>, u64) {
        if k == 0 || self.n == 0 {
            return (Vec::new(), 0);
        }
        let needed_votes =
            ((self.lines.len() as f64) * self.params.vote_fraction).floor() as u32 + 1;
        let mut cursors: Vec<Cursor<'_>> = self
            .lines
            .iter()
            .map(|line| {
                let q_proj = dot(query.as_array(), &line.direction);
                let hi = line.run.partition_point(|&(p, _)| p < q_proj);
                Cursor {
                    run: &line.run,
                    lo: hi as isize - 1,
                    hi,
                    q_proj,
                }
            })
            .collect();

        let mut votes: Vec<u32> = vec![0; self.n];
        let mut out = Vec::with_capacity(k);
        let mut steps: u64 = 0;
        // Round-robin lockstep over the lines: each round advances every
        // cursor by one element ("sorted access" in the aggregation
        // literature).
        'walk: loop {
            let mut any = false;
            for cursor in cursors.iter_mut() {
                if let Some(pos) = cursor.next() {
                    any = true;
                    steps += 1;
                    let v = &mut votes[pos as usize];
                    *v += 1;
                    if *v == needed_votes {
                        out.push(MedrankResult {
                            id: self.ids[pos as usize],
                            votes: *v,
                        });
                        if out.len() == k {
                            break 'walk;
                        }
                    }
                }
            }
            if !any {
                break;
            }
        }
        (out, steps)
    }

    /// Virtual cost of a query under `model`: the cursor walk reads
    /// `steps` run entries sequentially (8 bytes each) after one seek per
    /// line — the "I/O bound and I/O optimal" profile the paper quotes.
    pub fn query_cost(&self, model: &DiskModel, steps: u64) -> VirtualDuration {
        let mut t = VirtualDuration::ZERO;
        for _ in 0..self.lines.len() {
            t += model.io_time(0); // positioning for each run
        }
        t + model.io_time(steps * 8) - model.io_time(0) // transfer, one seek counted above
    }
}

fn dot(a: &[f32; DIM], b: &[f32; DIM]) -> f32 {
    let mut acc = 0.0;
    for i in 0..DIM {
        acc += a[i] * b[i];
    }
    acc
}

fn random_unit<R: Rng>(rng: &mut R) -> [f32; DIM] {
    // Gaussian components normalised — uniform on the sphere.
    loop {
        let mut v = [0.0f32; DIM];
        let mut norm_sq = 0.0f32;
        for x in v.iter_mut() {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen();
            *x = ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
            norm_sq += *x * *x;
        }
        if norm_sq > 1e-12 {
            let inv = norm_sq.sqrt().recip();
            for x in v.iter_mut() {
                *x *= inv;
            }
            return v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eff2_descriptor::Descriptor;

    fn lumpy_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let mut v = Vector::splat((i % 6) as f32 * 25.0);
                v[0] += ((i * 37) % 11) as f32 * 0.05;
                v[5] -= ((i * 13) % 7) as f32 * 0.04;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    #[test]
    fn self_query_is_emitted_first() {
        let set = lumpy_set(300);
        let ix = MedrankIndex::build(&set, MedrankParams::default());
        for qi in [0usize, 100, 250] {
            let (res, _) = ix.knn(&set.vector_owned(qi), 5);
            assert!(!res.is_empty());
            assert_eq!(
                res[0].id,
                set.id(qi).0,
                "a dataset point projects exactly onto itself on every line"
            );
        }
    }

    #[test]
    fn returns_k_results_with_enough_walking() {
        let set = lumpy_set(200);
        let ix = MedrankIndex::build(&set, MedrankParams::default());
        let (res, steps) = ix.knn(&Vector::splat(10.0), 10);
        assert_eq!(res.len(), 10);
        assert!(steps > 0);
        // Each emitted element carries at least the required vote count.
        let needed = (9f64 * 0.5).floor() as u32 + 1;
        for r in &res {
            assert!(r.votes >= needed);
        }
    }

    #[test]
    fn results_come_from_the_right_lump() {
        // Query at lump 2 (splat(50)); all emitted ids should belong to
        // that lump (i % 6 == 2) — median-rank aggregation is a real ANN.
        let set = lumpy_set(600);
        let ix = MedrankIndex::build(
            &set,
            MedrankParams {
                lines: 15,
                ..Default::default()
            },
        );
        let (res, _) = ix.knn(&Vector::splat(50.0), 10);
        assert_eq!(res.len(), 10);
        let correct = res.iter().filter(|r| r.id % 6 == 2).count();
        assert!(correct >= 8, "only {correct}/10 from the query's lump");
    }

    #[test]
    fn deterministic_per_seed() {
        let set = lumpy_set(150);
        let a = MedrankIndex::build(&set, MedrankParams::default());
        let b = MedrankIndex::build(&set, MedrankParams::default());
        let q = Vector::splat(3.0);
        assert_eq!(a.knn(&q, 7).0, b.knn(&q, 7).0);
    }

    #[test]
    fn k_zero_and_empty_index() {
        let set = lumpy_set(50);
        let ix = MedrankIndex::build(&set, MedrankParams::default());
        assert!(ix.knn(&Vector::ZERO, 0).0.is_empty());
        let empty = MedrankIndex::build(&DescriptorSet::new(), MedrankParams::default());
        assert_eq!(empty.n, 0);
        assert!(empty.knn(&Vector::ZERO, 5).0.is_empty());
    }

    #[test]
    fn k_exceeding_collection_exhausts_runs() {
        let set = lumpy_set(20);
        let ix = MedrankIndex::build(&set, MedrankParams::default());
        let (res, _) = ix.knn(&Vector::ZERO, 100);
        // Every element eventually crosses the vote threshold.
        assert_eq!(res.len(), 20);
    }

    #[test]
    fn single_line_emits_in_projection_order() {
        let set = lumpy_set(40);
        let ix = MedrankIndex::build(
            &set,
            MedrankParams {
                lines: 1,
                ..Default::default()
            },
        );
        // With one line, needed_votes = 1: emission order is the outward
        // walk order on that line.
        let (res, steps) = ix.knn(&set.vector_owned(7), 5);
        assert_eq!(res.len(), 5);
        assert_eq!(steps, 5);
        assert_eq!(res[0].id, 7);
    }

    #[test]
    fn query_cost_scales_with_steps() {
        let set = lumpy_set(100);
        let ix = MedrankIndex::build(&set, MedrankParams::default());
        let model = DiskModel::ata_2005();
        assert!(ix.query_cost(&model, 10_000) > ix.query_cost(&model, 100));
    }

    #[test]
    fn random_units_are_normalised() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let u = random_unit(&mut rng);
            let n: f32 = u.iter().map(|x| x * x).sum();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }
}
