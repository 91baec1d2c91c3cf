//! det.float_accum in codebook-training-shaped code: the k-means update
//! and distortion loops must accumulate serially (or via the kernels),
//! never through a hidden float `.sum()`.

/// A training pass that averages one component of the assigned
/// sub-vectors the lazy way.
pub fn positive_center_update(members: &[[f32; 4]], t: usize) -> f32 {
    let total: f32 = members.iter().filter_map(|m| m.get(t)).sum(); //~ det.float_accum
    total / members.len().max(1) as f32
}

/// Mean quantisation distortion via a float turbofish — same problem.
pub fn positive_distortion(errors: &[f32]) -> f32 {
    errors.iter().copied().sum::<f32>() / errors.len().max(1) as f32 //~ det.float_accum
}

/// The sanctioned form: a serial accumulator in a fixed storage order
/// (what `PqCodec::train` does with `f64` sums).
pub fn negative_serial_update(members: &[[f32; 4]]) -> [f32; 4] {
    let mut sums = [0.0f64; 4];
    for m in members {
        for (s, &x) in sums.iter_mut().zip(m.iter()) {
            *s += f64::from(x);
        }
    }
    let inv = 1.0 / members.len().max(1) as f64;
    let mut center = [0.0f32; 4];
    for (c, &s) in center.iter_mut().zip(sums.iter()) {
        *c = (s * inv) as f32;
    }
    center
}

/// Counting assignments is integer summation — always fine.
pub fn negative_assignment_counts(counts: &[usize]) -> usize {
    counts.iter().copied().sum::<usize>()
}
