//! Descriptor compression codecs for asymmetric-distance search.
//!
//! The raw collection spends 100 bytes per descriptor and the exact scan
//! streams all of it through [`crate::vector::l2_sq`]. Following the
//! IVF/ADC recipe (Baranchuk et al., *Revisiting the Inverted Indices for
//! Billion-Scale ANN*), this module compresses the database side to `u8`
//! codes while queries stay `f32`:
//!
//! * [`Sq8Codec`] — a per-dimension affine scalar quantizer (24 bytes per
//!   descriptor, trained from the collection's [`DimensionStats`] extrema);
//! * [`PqCodec`] — a product quantizer over `M` sub-vectors with a small
//!   per-subspace codebook trained by a deterministic k-means (6 bytes per
//!   descriptor at the default geometry).
//!
//! Both implement [`DescriptorCodec`] and both admit an *asymmetric*
//! distance kernel (query `f32` vs database codes) that reproduces
//! `l2_sq(query, decode(code))` **bit for bit**: the per-component terms
//! are computed by exactly the float operations `decode_into` would
//! perform, accumulated in the canonical LANES=8 order of `l2_sq`. A
//! query is lowered once into a [`PreparedQuery`] (for PQ, a table of
//! per-component squared differences to every codeword) and the kernels
//! in [`crate::kernels`] then scan codes without touching `f32` rows.
//!
//! Everything here is deterministic: codebook training uses fixed stride
//! initialisation, a fixed iteration count, and `f64` accumulation in
//! storage order, so the same collection always yields the same codec.

#![expect(
    clippy::indexing_slicing,
    reason = "DIM/M-bounded component arithmetic over fixed-size code and codebook tables"
)]

use crate::descriptor::DescriptorSet;
use crate::stats::DimensionStats;
use crate::vector::DIM;

/// Number of PQ subspaces in the default geometry (4 dims each).
pub(crate) const PQ_M: usize = 6;
/// Codewords per PQ subspace in the default geometry.
pub(crate) const PQ_K: usize = 16;
/// K-means refinement rounds used by [`PqCodec::train`].
const PQ_TRAIN_ITERS: usize = 8;
/// Training-sample cap: collections larger than this are strided down so
/// codebook training stays cheap and deterministic at any scale.
const PQ_TRAIN_CAP: usize = 4096;

/// A database-side descriptor compressor.
///
/// Implementations encode a 24-d `f32` descriptor into `code_bytes()`
/// bytes and decode it back into a (lossy) reconstruction. `prepare`
/// lowers a query into whatever table the asymmetric kernels need so the
/// hot loop never re-derives per-query state.
pub trait DescriptorCodec {
    /// Bytes per encoded descriptor.
    fn code_bytes(&self) -> usize;
    /// Encodes `vector` into `code` (exactly `code_bytes()` long).
    fn encode_into(&self, vector: &[f32; DIM], code: &mut [u8]);
    /// Decodes `code` into the reconstruction the ADC kernels score
    /// against.
    fn decode_into(&self, code: &[u8], out: &mut [f32; DIM]);
    /// Lowers `query` into the state the ADC kernels consume.
    fn prepare(&self, query: &[f32; DIM]) -> PreparedQuery;
    /// Short stable name for tables and file labels.
    fn name(&self) -> &'static str;
}

/// Per-query state for the asymmetric kernels in [`crate::kernels`].
///
/// Variants mirror the codecs; dispatch happens once per block, not per
/// component, and the hot loops below stay monomorphic.
#[expect(
    clippy::large_enum_variant,
    reason = "built once per query and passed by reference into the kernels; boxing the Sq8 \
              tables would put every hot-loop load behind a pointer to save 264 bytes"
)]
#[derive(Clone, Debug)]
pub enum PreparedQuery {
    /// Scalar-quantizer query: the raw query plus the affine table, so the
    /// kernel can fuse decode (`lo + code·step`) into the distance.
    Sq8 {
        /// The query vector.
        q: [f32; DIM],
        /// Per-dimension reconstruction offset.
        lo: [f32; DIM],
        /// Per-dimension reconstruction step.
        step: [f32; DIM],
    },
    /// Product-quantizer query: `lut[(s·K + j)·SUB + t]` holds the squared
    /// difference between query component `s·SUB + t` and codeword `j` of
    /// subspace `s` — per-component partials, so accumulation replays the
    /// exact `l2_sq` lane order.
    Pq {
        /// Per-component squared-difference table, `m · k · sub` entries.
        lut: Vec<f32>,
        /// Subspace count.
        m: usize,
        /// Codewords per subspace.
        k: usize,
    },
}

impl PreparedQuery {
    /// Bytes per encoded descriptor this prepared query scores.
    #[inline]
    pub fn code_bytes(&self) -> usize {
        match self {
            PreparedQuery::Sq8 { .. } => DIM,
            PreparedQuery::Pq { m, .. } => *m,
        }
    }
}

/// Per-dimension affine 8-bit scalar quantizer.
///
/// Dimension `d` maps `x` to `round((x − lo_d) / step_d)` clamped to
/// `[0, 255]`, with `lo_d = min_d` and `step_d = (max_d − min_d) / 255`
/// from the training collection. Reconstruction is `lo_d + code·step_d`,
/// so in-range values round-trip within `step_d / 2`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sq8Codec {
    lo: [f32; DIM],
    step: [f32; DIM],
}

impl Sq8Codec {
    /// Trains the quantizer from per-dimension collection extrema.
    pub fn train(stats: &DimensionStats) -> Self {
        let mut step = [0.0f32; DIM];
        for ((slot, &hi), &lo) in step.iter_mut().zip(&stats.max).zip(&stats.min) {
            let span = hi - lo;
            if span > 0.0 {
                *slot = span / 255.0;
            }
        }
        Sq8Codec {
            lo: stats.min,
            step,
        }
    }

    /// Trains from a collection (stats are computed internally).
    pub fn from_set(set: &DescriptorSet) -> Self {
        Self::train(&DimensionStats::compute(set))
    }

    /// Per-dimension reconstruction step (the round-trip error bound is
    /// half of this, per dimension).
    pub fn step(&self) -> &[f32; DIM] {
        &self.step
    }
}

impl DescriptorCodec for Sq8Codec {
    fn code_bytes(&self) -> usize {
        DIM
    }

    fn encode_into(&self, vector: &[f32; DIM], code: &mut [u8]) {
        assert_eq!(code.len(), DIM, "SQ8 code is one byte per dimension");
        for d in 0..DIM {
            code[d] = if self.step[d] > 0.0 {
                ((vector[d] - self.lo[d]) / self.step[d])
                    .round()
                    .clamp(0.0, 255.0) as u8
            } else {
                // Degenerate dimension: every training value was identical,
                // the code carries no information.
                0
            };
        }
    }

    fn decode_into(&self, code: &[u8], out: &mut [f32; DIM]) {
        assert_eq!(code.len(), DIM, "SQ8 code is one byte per dimension");
        for d in 0..DIM {
            out[d] = self.lo[d] + f32::from(code[d]) * self.step[d];
        }
    }

    fn prepare(&self, query: &[f32; DIM]) -> PreparedQuery {
        PreparedQuery::Sq8 {
            q: *query,
            lo: self.lo,
            step: self.step,
        }
    }

    fn name(&self) -> &'static str {
        "sq8"
    }
}

/// Product quantizer: `m` subspaces of `DIM / m` dimensions, each with a
/// `k`-codeword codebook, one byte of code per subspace.
///
/// Training is a deterministic k-means per subspace: centers initialise
/// by fixed stride over the (strided, order-preserving) training sample,
/// assignment ties resolve to the lowest codeword index, and center
/// updates accumulate in `f64` in storage order — the same collection
/// always produces the same codebook, bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct PqCodec {
    m: usize,
    k: usize,
    /// Codebook, `m · k · sub` floats: codeword `j` of subspace `s` spans
    /// `centroids[(s·k + j)·sub ..][..sub]`.
    centroids: Vec<f32>,
}

impl PqCodec {
    /// Trains a codebook over `set` with the default geometry
    /// (`PQ_M` × `PQ_K`).
    pub fn from_set(set: &DescriptorSet) -> Self {
        Self::train(set, PQ_M, PQ_K)
    }

    /// Trains a codebook with `m` subspaces of `k` codewords each.
    ///
    /// # Panics
    ///
    /// Panics if `m` does not divide [`DIM`], or `k` is 0 or above 256
    /// (codes are single bytes).
    pub fn train(set: &DescriptorSet, m: usize, k: usize) -> Self {
        assert!(m > 0 && DIM.is_multiple_of(m), "m must divide DIM");
        assert!((1..=256).contains(&k), "k must fit a one-byte code");
        let sub = DIM / m;
        let rows = crate::kernels::as_rows(set.packed());
        // Deterministic training sample: a fixed stride preserving storage
        // order, capped so training cost is flat in collection size.
        let stride = (rows.len() / PQ_TRAIN_CAP).max(1);
        let sample: Vec<&[f32; DIM]> = rows.iter().step_by(stride).collect();

        let mut centroids = vec![0.0f32; m * k * sub];
        if sample.is_empty() {
            return PqCodec { m, k, centroids };
        }
        for s in 0..m {
            // Stride initialisation over the sample.
            for j in 0..k {
                let row = sample[(j * sample.len() / k).min(sample.len() - 1)];
                for t in 0..sub {
                    centroids[(s * k + j) * sub + t] = row[s * sub + t];
                }
            }
            let mut sums = vec![0.0f64; k * sub];
            let mut counts = vec![0usize; k];
            for _ in 0..PQ_TRAIN_ITERS {
                sums.fill(0.0);
                counts.fill(0);
                for row in &sample {
                    let j = nearest_codeword(&centroids, s, k, sub, row);
                    counts[j] += 1;
                    for t in 0..sub {
                        sums[j * sub + t] += f64::from(row[s * sub + t]);
                    }
                }
                for j in 0..k {
                    // An empty cluster keeps its previous center.
                    if counts[j] > 0 {
                        let inv = 1.0 / counts[j] as f64;
                        for t in 0..sub {
                            centroids[(s * k + j) * sub + t] = (sums[j * sub + t] * inv) as f32;
                        }
                    }
                }
            }
        }
        PqCodec { m, k, centroids }
    }

    /// Subspace count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codewords per subspace.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Nearest codeword of subspace `s` to `row`'s subvector; ties to the
/// lowest index. Serial per-component accumulation in a fixed order.
#[inline]
fn nearest_codeword(centroids: &[f32], s: usize, k: usize, sub: usize, row: &[f32; DIM]) -> usize {
    let mut best_j = 0usize;
    let mut best_d = f32::INFINITY;
    for j in 0..k {
        let base = (s * k + j) * sub;
        let mut d = 0.0f32;
        for t in 0..sub {
            let diff = row[s * sub + t] - centroids[base + t];
            d += diff * diff;
        }
        if d < best_d {
            best_d = d;
            best_j = j;
        }
    }
    best_j
}

impl DescriptorCodec for PqCodec {
    fn code_bytes(&self) -> usize {
        self.m
    }

    fn encode_into(&self, vector: &[f32; DIM], code: &mut [u8]) {
        assert_eq!(code.len(), self.m, "PQ code is one byte per subspace");
        let sub = DIM / self.m;
        for (s, c) in code.iter_mut().enumerate() {
            *c = nearest_codeword(&self.centroids, s, self.k, sub, vector) as u8;
        }
    }

    fn decode_into(&self, code: &[u8], out: &mut [f32; DIM]) {
        assert_eq!(code.len(), self.m, "PQ code is one byte per subspace");
        let sub = DIM / self.m;
        for (s, &c) in code.iter().enumerate() {
            let j = usize::from(c).min(self.k - 1);
            let base = (s * self.k + j) * sub;
            for t in 0..sub {
                out[s * sub + t] = self.centroids[base + t];
            }
        }
    }

    fn prepare(&self, query: &[f32; DIM]) -> PreparedQuery {
        let sub = DIM / self.m;
        let mut lut = vec![0.0f32; self.m * self.k * sub];
        for s in 0..self.m {
            for j in 0..self.k {
                let base = (s * self.k + j) * sub;
                for t in 0..sub {
                    // Exactly the float ops decode + l2_sq would perform
                    // for this component, precomputed per codeword.
                    let d = query[s * sub + t] - self.centroids[base + t];
                    lut[base + t] = d * d;
                }
            }
        }
        PreparedQuery::Pq {
            lut,
            m: self.m,
            k: self.k,
        }
    }

    fn name(&self) -> &'static str {
        "pq"
    }
}

/// A concrete codec choice, closed over the two implementations so
/// storage can persist and reopen it without trait objects.
#[derive(Clone, Debug, PartialEq)]
pub enum Codec {
    /// Scalar 8-bit quantizer.
    Sq8(Sq8Codec),
    /// Product quantizer.
    Pq(PqCodec),
}

/// On-disk kind tag for [`Codec::Sq8`].
pub(crate) const CODEC_KIND_SQ8: u32 = 1;
/// On-disk kind tag for [`Codec::Pq`].
pub(crate) const CODEC_KIND_PQ: u32 = 2;

impl Codec {
    /// The on-disk kind tag (`CODEC_KIND_SQ8` / `CODEC_KIND_PQ`).
    pub fn kind(&self) -> u32 {
        match self {
            Codec::Sq8(_) => CODEC_KIND_SQ8,
            Codec::Pq(_) => CODEC_KIND_PQ,
        }
    }

    /// Serialises the codec parameters (little-endian, no framing — the
    /// chunk file header records kind and length).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Codec::Sq8(c) => {
                for x in c.lo.iter().chain(c.step.iter()) {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Codec::Pq(c) => {
                out.extend_from_slice(&(c.m as u32).to_le_bytes());
                out.extend_from_slice(&(c.k as u32).to_le_bytes());
                for x in &c.centroids {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        out
    }

    /// Reconstructs a codec from its kind tag and parameter blob; `None`
    /// if the tag is unknown or the blob has the wrong shape.
    pub fn from_bytes(kind: u32, blob: &[u8]) -> Option<Codec> {
        fn f32_at(blob: &[u8], i: usize) -> Option<f32> {
            let b: [u8; 4] = blob.get(i * 4..i * 4 + 4)?.try_into().ok()?;
            Some(f32::from_le_bytes(b))
        }
        match kind {
            CODEC_KIND_SQ8 => {
                if blob.len() != 2 * DIM * 4 {
                    return None;
                }
                let mut lo = [0.0f32; DIM];
                let mut step = [0.0f32; DIM];
                for d in 0..DIM {
                    lo[d] = f32_at(blob, d)?;
                    step[d] = f32_at(blob, DIM + d)?;
                }
                Some(Codec::Sq8(Sq8Codec { lo, step }))
            }
            CODEC_KIND_PQ => {
                let m = u32::from_le_bytes(blob.get(0..4)?.try_into().ok()?) as usize;
                let k = u32::from_le_bytes(blob.get(4..8)?.try_into().ok()?) as usize;
                if m == 0 || !DIM.is_multiple_of(m) || !(1..=256).contains(&k) {
                    return None;
                }
                let sub = DIM / m;
                let n = m * k * sub;
                if blob.len() != 8 + n * 4 {
                    return None;
                }
                let mut centroids = vec![0.0f32; n];
                for (i, c) in centroids.iter_mut().enumerate() {
                    *c = f32_at(&blob[8..], i)?;
                }
                Some(Codec::Pq(PqCodec { m, k, centroids }))
            }
            _ => None,
        }
    }
}

impl DescriptorCodec for Codec {
    fn code_bytes(&self) -> usize {
        match self {
            Codec::Sq8(c) => c.code_bytes(),
            Codec::Pq(c) => c.code_bytes(),
        }
    }

    fn encode_into(&self, vector: &[f32; DIM], code: &mut [u8]) {
        match self {
            Codec::Sq8(c) => c.encode_into(vector, code),
            Codec::Pq(c) => c.encode_into(vector, code),
        }
    }

    fn decode_into(&self, code: &[u8], out: &mut [f32; DIM]) {
        match self {
            Codec::Sq8(c) => c.decode_into(code, out),
            Codec::Pq(c) => c.decode_into(code, out),
        }
    }

    fn prepare(&self, query: &[f32; DIM]) -> PreparedQuery {
        match self {
            Codec::Sq8(c) => c.prepare(query),
            Codec::Pq(c) => c.prepare(query),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Codec::Sq8(c) => c.name(),
            Codec::Pq(c) => c.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;
    use crate::vector::{l2_sq, Vector};

    fn test_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let mut v = [0.0f32; DIM];
                for (d, x) in v.iter_mut().enumerate() {
                    *x = ((i * 31 + d * 7) % 97) as f32 * 0.37 - 12.0;
                }
                Descriptor::new(i as u32, Vector(v))
            })
            .collect()
    }

    #[test]
    fn sq8_roundtrip_within_half_step() {
        let set = test_set(200);
        let codec = Sq8Codec::from_set(&set);
        let mut code = [0u8; DIM];
        let mut back = [0.0f32; DIM];
        for row in crate::kernels::as_rows(set.packed()) {
            codec.encode_into(row, &mut code);
            codec.decode_into(&code, &mut back);
            for d in 0..DIM {
                let bound = codec.step()[d] * 0.5 + 1e-4;
                assert!(
                    (back[d] - row[d]).abs() <= bound,
                    "dim {d}: {} vs {}",
                    back[d],
                    row[d]
                );
            }
        }
    }

    #[test]
    fn sq8_clamps_out_of_range_values() {
        let set = test_set(50);
        let codec = Sq8Codec::from_set(&set);
        let mut code = [0u8; DIM];
        codec.encode_into(&[1e9; DIM], &mut code);
        assert!(code.iter().all(|&c| c == 255));
        codec.encode_into(&[-1e9; DIM], &mut code);
        assert!(code.iter().all(|&c| c == 0));
    }

    #[test]
    fn sq8_degenerate_dimension_encodes_zero() {
        let set: DescriptorSet = (0..10)
            .map(|i| Descriptor::new(i, Vector::splat(4.25)))
            .collect();
        let codec = Sq8Codec::from_set(&set);
        let mut code = [7u8; DIM];
        codec.encode_into(&[4.25; DIM], &mut code);
        assert!(code.iter().all(|&c| c == 0));
        let mut back = [0.0f32; DIM];
        codec.decode_into(&code, &mut back);
        assert_eq!(back, [4.25; DIM]);
    }

    #[test]
    fn pq_geometry_and_determinism() {
        let set = test_set(300);
        let a = PqCodec::from_set(&set);
        let b = PqCodec::from_set(&set);
        assert_eq!(a, b, "training must be deterministic");
        assert_eq!(a.code_bytes(), PQ_M);
        assert_eq!(a.m(), PQ_M);
        assert_eq!(a.k(), PQ_K);
    }

    #[test]
    fn pq_decode_reconstructs_near_codewords() {
        let set = test_set(300);
        let codec = PqCodec::from_set(&set);
        let rows = crate::kernels::as_rows(set.packed());
        let mut code = vec![0u8; codec.code_bytes()];
        let mut back = [0.0f32; DIM];
        // A trained codebook must reconstruct better than collapsing
        // every descriptor to the collection mean would.
        let mut total_err = 0.0f64;
        for row in rows {
            codec.encode_into(row, &mut code);
            codec.decode_into(&code, &mut back);
            total_err += f64::from(l2_sq(row, &back));
        }
        let mean_err = total_err / rows.len() as f64;
        let mut var = 0.0f64;
        let stats = DimensionStats::compute(&set);
        for d in 0..DIM {
            var += f64::from(stats.variance[d]);
        }
        assert!(
            mean_err < var,
            "PQ reconstruction ({mean_err}) should beat collection variance ({var})"
        );
    }

    #[test]
    fn codec_blob_roundtrip() {
        let set = test_set(120);
        for codec in [
            Codec::Sq8(Sq8Codec::from_set(&set)),
            Codec::Pq(PqCodec::from_set(&set)),
        ] {
            let blob = codec.to_bytes();
            let back = Codec::from_bytes(codec.kind(), &blob).expect("valid blob");
            assert_eq!(codec, back);
        }
    }

    #[test]
    fn codec_from_bytes_rejects_garbage() {
        assert!(Codec::from_bytes(99, &[]).is_none());
        assert!(Codec::from_bytes(CODEC_KIND_SQ8, &[0u8; 7]).is_none());
        assert!(Codec::from_bytes(CODEC_KIND_PQ, &[0u8; 8]).is_none());
    }

    #[test]
    fn empty_set_trains_trivial_codecs() {
        let set = DescriptorSet::new();
        let sq = Sq8Codec::from_set(&set);
        let pq = PqCodec::from_set(&set);
        let mut code = vec![0u8; sq.code_bytes()];
        sq.encode_into(&[3.0; DIM], &mut code);
        assert!(code.iter().all(|&c| c == 0));
        let mut code = vec![0u8; pq.code_bytes()];
        pq.encode_into(&[3.0; DIM], &mut code);
        let mut back = [9.0f32; DIM];
        pq.decode_into(&code, &mut back);
        assert_eq!(back, [0.0; DIM]);
    }
}
