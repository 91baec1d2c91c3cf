//! Blocked and fused distance kernels over packed row-major buffers.
//!
//! Chunk scans dominate query cost: every descriptor in every fetched
//! chunk is one squared-distance evaluation against the query (§4.3). The
//! canonical [`l2_sq`] kernel accumulates into lanes so LLVM vectorises
//! *within* one row; the kernels here additionally process rows in blocks
//! of `BLOCK`, which
//!
//! * shares the query loads across the block and gives the CPU `BLOCK`
//!   independent reductions to overlap, and
//! * keeps each row's accumulation order identical to [`l2_sq`] (the same
//!   lane scheme), so every distance is **bit-identical** to the
//!   single-row kernel (property-tested in `tests/props.rs`) — the
//!   blocked path is a pure speed-up, never a semantic change.
//!
//! [`scan_block_into`] additionally fuses the top-k offer loop into the
//! block scan: distances stay in registers (no per-chunk distance buffer)
//! and a whole block is skipped against the current kth distance before
//! any heap traffic happens.

#![expect(
    clippy::indexing_slicing,
    reason = "blocked distance kernels index fixed-size lane arrays at compile-time-constant offsets"
)]

use crate::neighbors::NeighborSet;
use crate::quant::PreparedQuery;
use crate::vector::{l2_sq, sum_lanes, DIM, LANES};

/// Rows per block. Four rows keeps all accumulators in registers on
/// every x86-64/aarch64 target while already saturating the gain; eight
/// measured no better (see `EXPERIMENTS.md`).
pub(crate) const BLOCK: usize = 4;

/// Reinterprets a packed row-major buffer as `DIM`-sized rows.
///
/// This is the one safe choke point replacing the
/// `try_into().expect(...)` pattern every `chunks_exact(DIM)` consumer
/// used to carry.
///
/// # Panics
///
/// Panics if `packed.len()` is not a multiple of [`DIM`]; everywhere this
/// is used that is an internal invariant violation.
#[inline]
pub fn as_rows(packed: &[f32]) -> &[[f32; DIM]] {
    let (rows, rest) = packed.as_chunks::<DIM>();
    assert!(
        rest.is_empty(),
        "packed vector data must be a multiple of DIM"
    );
    rows
}

/// Squared distances from `q` to four rows.
///
/// Each row runs the canonical lane kernel, so
/// `l2_sq_x4(q, a, b, c, d)[0] == l2_sq(q, a)` exactly, bit for bit; the
/// four inlined reductions are independent and overlap in the pipeline.
#[inline]
pub fn l2_sq_x4(
    q: &[f32; DIM],
    r0: &[f32; DIM],
    r1: &[f32; DIM],
    r2: &[f32; DIM],
    r3: &[f32; DIM],
) -> [f32; 4] {
    [l2_sq(q, r0), l2_sq(q, r1), l2_sq(q, r2), l2_sq(q, r3)]
}

/// Blocked squared distances from `q` to every row, written to `out`.
///
/// # Panics
///
/// Panics if `out.len() != rows.len()`.
pub fn l2_sq_rows(q: &[f32; DIM], rows: &[[f32; DIM]], out: &mut [f32]) {
    assert_eq!(out.len(), rows.len(), "output length mismatch");
    let mut i = 0;
    while i + BLOCK <= rows.len() {
        let d = l2_sq_x4(q, &rows[i], &rows[i + 1], &rows[i + 2], &rows[i + 3]);
        out[i..i + BLOCK].copy_from_slice(&d);
        i += BLOCK;
    }
    for j in i..rows.len() {
        out[j] = l2_sq(q, &rows[j]);
    }
}

/// Blocked squared distances from `q` to a packed buffer, reusing `out`'s
/// capacity (`out` is cleared first).
///
/// # Panics
///
/// Panics if `packed.len()` is not a multiple of [`DIM`].
pub fn l2_sq_batch(q: &[f32; DIM], packed: &[f32], out: &mut Vec<f32>) {
    let rows = as_rows(packed);
    out.clear();
    out.resize(rows.len(), 0.0);
    l2_sq_rows(q, rows, out);
}

/// Fused block scan: computes blocked distances to `packed` and offers
/// each `(id, dist_sq)` to `best`, skipping candidates the current kth
/// distance already prunes. Distances never touch memory.
///
/// Equivalent to offering `l2_sq(q, row)` row by row — the [`NeighborSet`]
/// total order `(dist_sq, id)` makes the outcome independent of both the
/// pruning and the offer order.
///
/// # Panics
///
/// Panics if `packed.len()` is not a multiple of [`DIM`] or if there is
/// not exactly one id per row.
pub fn scan_block_into(q: &[f32; DIM], packed: &[f32], ids: &[u32], best: &mut NeighborSet) {
    let rows = as_rows(packed);
    assert_eq!(rows.len(), ids.len(), "one id per packed row");
    if best.k() == 0 {
        return;
    }
    let mut i = 0;
    while i + BLOCK <= rows.len() {
        let d = l2_sq_x4(q, &rows[i], &rows[i + 1], &rows[i + 2], &rows[i + 3]);
        // The kth distance only shrinks inside the block, so the value at
        // block entry is a conservative prune: a skipped candidate could
        // never be accepted, an admitted one is re-checked by `offer`.
        let kth = best.kth_dist_sq();
        for (j, &dj) in d.iter().enumerate() {
            if dj <= kth {
                best.offer(ids[i + j], dj);
            }
        }
        i += BLOCK;
    }
    for j in i..rows.len() {
        best.offer(ids[j], l2_sq(q, &rows[j]));
    }
}

/// Max squared distance from `q` to the rows at `positions` (a scattered
/// gather over a packed buffer); `0.0` for no positions.
///
/// This is the radius-recomputation kernel: BAG's exact merged radius is
/// the max distance from a candidate centroid to every member of both
/// clusters, gathered by position from the collection's packed storage.
///
/// # Panics
///
/// Panics if any position is out of range.
pub fn max_dist_sq_gather(q: &[f32; DIM], rows: &[[f32; DIM]], positions: &[u32]) -> f32 {
    let mut m0 = 0.0f32;
    let mut m1 = 0.0f32;
    let mut m2 = 0.0f32;
    let mut m3 = 0.0f32;
    let mut chunks = positions.chunks_exact(BLOCK);
    for p in &mut chunks {
        let d = l2_sq_x4(
            q,
            &rows[p[0] as usize],
            &rows[p[1] as usize],
            &rows[p[2] as usize],
            &rows[p[3] as usize],
        );
        m0 = m0.max(d[0]);
        m1 = m1.max(d[1]);
        m2 = m2.max(d[2]);
        m3 = m3.max(d[3]);
    }
    for &p in chunks.remainder() {
        m0 = m0.max(l2_sq(q, &rows[p as usize]));
    }
    m0.max(m1).max(m2).max(m3)
}

/// The SQ8 arm of [`adc_l2_sq`]: decode (`lo + code·step`) fused into the
/// lane-accumulated distance, on a fixed-size code so the loop vectorises
/// like `l2_sq` does.
#[inline(always)]
fn adc_sq8_one(q: &[f32; DIM], lo: &[f32; DIM], step: &[f32; DIM], code: &[u8]) -> f32 {
    assert_eq!(code.len(), DIM, "SQ8 code is one byte per dimension");
    #[expect(
        clippy::unreachable,
        reason = "the conversion cannot fail — length asserted above"
    )]
    let code: &[u8; DIM] = match code.try_into() {
        Ok(a) => a,
        Err(_) => unreachable!("length asserted above"),
    };
    let mut acc = [0.0f32; LANES];
    let mut i = 0;
    while i < DIM {
        for (l, s) in acc.iter_mut().enumerate() {
            let r = lo[i + l] + f32::from(code[i + l]) * step[i + l];
            let d = q[i + l] - r;
            *s += d * d;
        }
        i += LANES;
    }
    sum_lanes(&acc)
}

/// The PQ arm of [`adc_l2_sq`]: per-subspace LUT rows added into the lane
/// scheme. Component `j·sub + t` lands in lane `(j·sub + t) % LANES`; the
/// indices are consecutive, so the lane is a wrapping counter — no
/// per-element div/mod on the hot path.
#[inline(always)]
fn adc_pq_one(lut: &[f32], m: usize, k: usize, code: &[u8]) -> f32 {
    assert_eq!(code.len(), m, "PQ code is one byte per subspace");
    let sub = DIM / m;
    // Lane-aligned fast paths: when a whole number of subspaces covers
    // exactly LANES components, every accumulator index is a compile-time
    // constant and the adds stay in registers. Same terms into the same
    // lanes in the same order as the generic walk below.
    match sub {
        4 => return adc_pq_lanes::<4, 2>(lut, k, code),
        8 => return adc_pq_lanes::<8, 1>(lut, k, code),
        _ => {}
    }
    let mut acc = [0.0f32; LANES];
    let mut lane = 0;
    for (j, &c) in code.iter().enumerate() {
        // Same out-of-range clamp as `decode_into`, so the kernel stays
        // bit-identical to decode-then-scan on any input.
        let base = (j * k + usize::from(c).min(k - 1)) * sub;
        for &term in &lut[base..base + sub] {
            acc[lane] += term;
            lane += 1;
            if lane == LANES {
                lane = 0;
            }
        }
    }
    sum_lanes(&acc)
}

/// Lane-aligned PQ accumulation: `PER` subspaces of `SUB` components fill
/// the [`LANES`] accumulators exactly once per group (`SUB · PER ==
/// LANES`), so component `j·SUB + t` lands in lane `(j·SUB + t) % LANES`
/// at a compile-time constant index. Bit-identical to the wrapping-lane
/// walk in [`adc_pq_one`]: per lane, the same terms are added in the same
/// order.
#[inline(always)]
fn adc_pq_lanes<const SUB: usize, const PER: usize>(lut: &[f32], k: usize, code: &[u8]) -> f32 {
    const { assert!(SUB * PER == LANES) }
    let mut acc = [0.0f32; LANES];
    let mut groups = code.chunks_exact(PER);
    let mut j = 0usize;
    for group in &mut groups {
        for (p, &c) in group.iter().enumerate() {
            let base = ((j + p) * k + usize::from(c).min(k - 1)) * SUB;
            #[expect(
                clippy::unreachable,
                reason = "the conversion cannot fail — slice is SUB long by construction"
            )]
            let terms: &[f32; SUB] = match lut[base..base + SUB].try_into() {
                Ok(a) => a,
                Err(_) => unreachable!("slice is SUB long by construction"),
            };
            for (t, &term) in terms.iter().enumerate() {
                acc[p * SUB + t] += term;
            }
        }
        j += PER;
    }
    // Remainder subspaces when `m` is not a multiple of `PER`: full groups
    // consumed a multiple of LANES components, so the wrap restarts at
    // lane 0 — the generic walk continues from exactly this state.
    let mut lane = 0;
    for (r, &c) in groups.remainder().iter().enumerate() {
        let base = ((j + r) * k + usize::from(c).min(k - 1)) * SUB;
        for &term in &lut[base..base + SUB] {
            acc[lane] += term;
            lane += 1;
            if lane == LANES {
                lane = 0;
            }
        }
    }
    sum_lanes(&acc)
}

/// Asymmetric squared distance from a prepared query to one encoded
/// descriptor.
///
/// Reproduces `l2_sq(q, decode(code))` **bit for bit**: each per-component
/// term is computed by exactly the float operations the codec's
/// `decode_into` would perform, accumulated into the same `LANES`
/// scheme (component `i` → lane `i % LANES`, combined by the fixed
/// pairwise rule) as [`l2_sq`]. For SQ8 the decode (`lo + code·step`)
/// fuses into the distance; for PQ each component's squared difference is
/// a table lookup prepared once per query.
///
/// # Panics
///
/// Panics if `code.len()` is not the prepared query's `code_bytes()`.
#[inline]
pub fn adc_l2_sq(prep: &PreparedQuery, code: &[u8]) -> f32 {
    match prep {
        PreparedQuery::Sq8 { q, lo, step } => adc_sq8_one(q, lo, step, code),
        PreparedQuery::Pq { lut, m, k } => adc_pq_one(lut, *m, *k, code),
    }
}

/// Blocked asymmetric distances from a prepared query to a packed code
/// buffer, reusing `out`'s capacity (`out` is cleared first). Every
/// output is bit-identical to [`adc_l2_sq`] of that code row.
///
/// # Panics
///
/// Panics if `codes.len()` is not a multiple of the prepared query's
/// `code_bytes()`.
pub fn adc_l2_sq_batch(prep: &PreparedQuery, codes: &[u8], out: &mut Vec<f32>) {
    let cb = prep.code_bytes();
    assert!(
        codes.len().is_multiple_of(cb),
        "code data must be a multiple of code_bytes"
    );
    let n = codes.len() / cb;
    out.clear();
    out.resize(n, 0.0);
    // One variant dispatch for the whole buffer: the specialised row
    // kernel inlines into the blocked loop of its arm.
    match prep {
        PreparedQuery::Sq8 { q, lo, step } => {
            // Row at a time: the SQ8 reduction already carries LANES
            // independent chains plus the u8→f32 conversion temporaries;
            // a 4-row block spills registers and measures slower.
            for (code, slot) in codes.chunks_exact(cb).zip(out.iter_mut()) {
                *slot = adc_sq8_one(q, lo, step, code);
            }
        }
        PreparedQuery::Pq { lut, m, k } => {
            adc_rows_into(codes, cb, out, |code| adc_pq_one(lut, *m, *k, code));
        }
    }
}

/// Blocked row driver shared by the [`adc_l2_sq_batch`] arms: [`BLOCK`]
/// independent reductions per step, remainder row by row.
#[inline(always)]
fn adc_rows_into(codes: &[u8], cb: usize, out: &mut [f32], one: impl Fn(&[u8]) -> f32) {
    let row = |r: usize| &codes[r * cb..(r + 1) * cb];
    let n = out.len();
    let mut i = 0;
    while i + BLOCK <= n {
        let d = [
            one(row(i)),
            one(row(i + 1)),
            one(row(i + 2)),
            one(row(i + 3)),
        ];
        out[i..i + BLOCK].copy_from_slice(&d);
        i += BLOCK;
    }
    for (j, slot) in out.iter_mut().enumerate().skip(i) {
        *slot = one(row(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;

    fn rows_of(n: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        let mut packed = Vec::with_capacity(n * DIM);
        for r in 0..n {
            for i in 0..DIM {
                packed.push(f(r, i));
            }
        }
        packed
    }

    #[test]
    fn as_rows_splits_exactly() {
        let packed = rows_of(5, |r, i| (r * DIM + i) as f32);
        let rows = as_rows(&packed);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[2][0], (2 * DIM) as f32);
    }

    #[test]
    #[should_panic(expected = "multiple of DIM")]
    fn as_rows_rejects_ragged() {
        as_rows(&[0.0f32; DIM + 3]);
    }

    #[test]
    fn x4_matches_scalar_bitwise() {
        let q: [f32; DIM] = std::array::from_fn(|i| (i as f32).sin() * 3.7);
        let packed = rows_of(4, |r, i| ((r * 31 + i * 7) as f32).cos() * 11.1);
        let rows = as_rows(&packed);
        let d = l2_sq_x4(&q, &rows[0], &rows[1], &rows[2], &rows[3]);
        for (j, &dj) in d.iter().enumerate() {
            assert_eq!(dj.to_bits(), l2_sq(&q, &rows[j]).to_bits(), "row {j}");
        }
    }

    #[test]
    fn batch_handles_non_block_multiples() {
        let q: [f32; DIM] = std::array::from_fn(|i| i as f32 * 0.25);
        for n in [0usize, 1, 3, 4, 5, 7, 8, 13] {
            let packed = rows_of(n, |r, i| (r + i) as f32 * 0.5);
            let mut out = Vec::new();
            l2_sq_batch(&q, &packed, &mut out);
            assert_eq!(out.len(), n);
            for (j, row) in as_rows(&packed).iter().enumerate() {
                assert_eq!(out[j].to_bits(), l2_sq(&q, row).to_bits(), "n={n} row {j}");
            }
        }
    }

    #[test]
    fn fused_scan_equals_rowwise_offers() {
        let q: [f32; DIM] = std::array::from_fn(|i| ((i * i) % 13) as f32);
        for n in [0usize, 1, 4, 6, 50] {
            let packed = rows_of(n, |r, i| ((r * 17 + i * 3) % 23) as f32);
            let ids: Vec<u32> = (0..n as u32).map(|x| x * 10 + 1).collect();
            let mut fused = NeighborSet::new(5);
            scan_block_into(&q, &packed, &ids, &mut fused);
            let mut rowwise = NeighborSet::new(5);
            for (row, &id) in as_rows(&packed).iter().zip(ids.iter()) {
                rowwise.offer(id, l2_sq(&q, row));
            }
            assert_eq!(fused.sorted(), rowwise.sorted(), "n={n}");
        }
    }

    #[test]
    fn fused_scan_k_zero_is_noop() {
        let packed = rows_of(8, |r, i| (r + i) as f32);
        let ids: Vec<u32> = (0..8).collect();
        let mut set = NeighborSet::new(0);
        scan_block_into(&[0.0; DIM], &packed, &ids, &mut set);
        assert!(set.is_empty());
    }

    #[test]
    fn gather_max_matches_scatter_loop() {
        let q: [f32; DIM] = std::array::from_fn(|i| i as f32);
        let packed = rows_of(20, |r, i| ((r * 7 + i) % 11) as f32);
        let rows = as_rows(&packed);
        for positions in [
            vec![],
            vec![3u32],
            vec![19, 0, 7],
            (0..20u32).rev().collect(),
        ] {
            let want = positions
                .iter()
                .map(|&p| l2_sq(&q, &rows[p as usize]))
                .fold(0.0f32, f32::max);
            assert_eq!(max_dist_sq_gather(&q, rows, &positions), want);
        }
    }

    #[test]
    fn adc_matches_decode_then_exact_bitwise() {
        use crate::descriptor::{Descriptor, DescriptorSet};
        use crate::quant::{Codec, DescriptorCodec, PqCodec, Sq8Codec};

        let set: DescriptorSet = (0..160)
            .map(|i| {
                let mut v = [0.0f32; DIM];
                for (d, x) in v.iter_mut().enumerate() {
                    *x = ((i * 13 + d * 5) % 89) as f32 * 0.21 - 7.0;
                }
                Descriptor::new(i as u32, Vector(v))
            })
            .collect();
        let q: [f32; DIM] = std::array::from_fn(|i| (i as f32).sin() * 4.0);
        for codec in [
            Codec::Sq8(Sq8Codec::from_set(&set)),
            Codec::Pq(PqCodec::from_set(&set)),
        ] {
            let cb = codec.code_bytes();
            let mut codes = vec![0u8; set.len() * cb];
            for (r, row) in as_rows(set.packed()).iter().enumerate() {
                codec.encode_into(row, &mut codes[r * cb..(r + 1) * cb]);
            }
            let prep = codec.prepare(&q);
            assert_eq!(prep.code_bytes(), cb);
            let mut decoded = [0.0f32; DIM];
            for r in 0..set.len() {
                let code = &codes[r * cb..(r + 1) * cb];
                codec.decode_into(code, &mut decoded);
                assert_eq!(
                    adc_l2_sq(&prep, code).to_bits(),
                    l2_sq(&q, &decoded).to_bits(),
                    "codec {} row {r}",
                    codec.name()
                );
            }
            // Blocked + batch paths are bit-identical to the single-code
            // kernel.
            let mut out = Vec::new();
            adc_l2_sq_batch(&prep, &codes, &mut out);
            assert_eq!(out.len(), set.len());
            for (r, d) in out.iter().enumerate() {
                let code = &codes[r * cb..(r + 1) * cb];
                assert_eq!(d.to_bits(), adc_l2_sq(&prep, code).to_bits(), "row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of code_bytes")]
    fn adc_batch_rejects_ragged_codes() {
        use crate::descriptor::DescriptorSet;
        use crate::quant::{DescriptorCodec, Sq8Codec};
        let codec = Sq8Codec::from_set(&DescriptorSet::new());
        let prep = codec.prepare(&[0.0; DIM]);
        adc_l2_sq_batch(&prep, &[0u8; DIM + 1], &mut Vec::new());
    }
}
