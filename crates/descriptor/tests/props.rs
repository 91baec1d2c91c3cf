//! Property-based tests for the descriptor substrate: metric axioms,
//! codec round-trips, statistics invariants, and the blocked/fused
//! distance kernels against the single-row kernel.

#![cfg(test)]

use eff2_descriptor::kernels::max_dist_sq_gather;
use eff2_descriptor::{
    adc_l2_sq, adc_l2_sq_batch, as_rows, codec, l2_sq, l2_sq_serial, scan_block_into, Codec,
    Descriptor, DescriptorCodec, DescriptorSet, DimensionStats, NeighborSet, PqCodec, Sq8Codec,
    TrimmedRanges, Vector, DIM,
};
use proptest::prelude::*;

fn arb_vector() -> impl Strategy<Value = Vector> {
    proptest::collection::vec(-1000.0f32..1000.0, DIM).prop_map(|v| Vector::from_slice(&v))
}

/// One adversarial component: mixes huge and tiny magnitudes (stressing
/// rounding and cancellation in the lane reduction) with ordinary values.
/// NaN-free by construction.
fn arb_component() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1000.0f32..1000.0,
        -1.0e18f32..1.0e18,
        -1.0e-18f32..1.0e-18,
        Just(0.0f32),
        Just(-0.0f32),
    ]
}

/// A packed row-major buffer of `0..=37` rows — deliberately covering
/// row counts that are not multiples of the 4-row block.
fn arb_packed() -> impl Strategy<Value = Vec<f32>> {
    (0usize..=37).prop_flat_map(|n| proptest::collection::vec(arb_component(), n * DIM))
}

fn arb_query() -> impl Strategy<Value = [f32; DIM]> {
    proptest::collection::vec(arb_component(), DIM).prop_map(|v| {
        let mut q = [0.0f32; DIM];
        q.copy_from_slice(&v);
        q
    })
}

fn arb_set(max: usize) -> impl Strategy<Value = DescriptorSet> {
    proptest::collection::vec(arb_vector(), 1..max).prop_map(|vs| {
        vs.into_iter()
            .enumerate()
            .map(|(i, v)| Descriptor::new(i as u32, v))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distance_non_negative(a in arb_vector(), b in arb_vector()) {
        prop_assert!(a.dist_sq(&b) >= 0.0);
    }

    #[test]
    fn distance_symmetric(a in arb_vector(), b in arb_vector()) {
        prop_assert_eq!(a.dist_sq(&b), b.dist_sq(&a));
    }

    #[test]
    fn distance_identity(a in arb_vector()) {
        prop_assert_eq!(a.dist_sq(&a), 0.0);
    }

    #[test]
    fn triangle_inequality(a in arb_vector(), b in arb_vector(), c in arb_vector()) {
        let ab = a.dist(&b);
        let bc = b.dist(&c);
        let ac = a.dist(&c);
        // Allow relative f32 slack.
        prop_assert!(ac <= ab + bc + 1e-3 * (1.0 + ab + bc));
    }

    #[test]
    fn mean_lies_in_bounding_box(vs in proptest::collection::vec(arb_vector(), 1..50)) {
        let m = Vector::mean(vs.iter());
        for d in 0..DIM {
            let lo = vs.iter().map(|v| v[d]).fold(f32::INFINITY, f32::min);
            let hi = vs.iter().map(|v| v[d]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(m[d] >= lo - 1e-3 && m[d] <= hi + 1e-3);
        }
    }

    #[test]
    fn codec_roundtrip(set in arb_set(100)) {
        let mut buf = Vec::new();
        codec::write_collection(&set, &mut buf).unwrap();
        let back = codec::read_collection(&buf[..]).unwrap();
        prop_assert_eq!(back.len(), set.len());
        for i in 0..set.len() {
            prop_assert_eq!(back.get(i), set.get(i));
        }
    }

    #[test]
    fn codec_size_is_exact(set in arb_set(50)) {
        let mut buf = Vec::new();
        codec::write_collection(&set, &mut buf).unwrap();
        prop_assert_eq!(buf.len(), codec::HEADER_BYTES + set.len() * codec::RECORD_BYTES);
    }

    #[test]
    fn trimmed_range_within_extrema(set in arb_set(200), trim in 0.0f32..0.3) {
        let stats = DimensionStats::compute(&set);
        let ranges = TrimmedRanges::compute(&set, trim);
        for d in 0..DIM {
            prop_assert!(ranges.low[d] >= stats.min[d]);
            prop_assert!(ranges.high[d] <= stats.max[d]);
            prop_assert!(ranges.low[d] <= ranges.high[d]);
        }
    }

    #[test]
    fn stats_mean_within_extrema(set in arb_set(200)) {
        let stats = DimensionStats::compute(&set);
        for d in 0..DIM {
            prop_assert!(stats.mean[d] >= stats.min[d] - 1e-3);
            prop_assert!(stats.mean[d] <= stats.max[d] + 1e-3);
            prop_assert!(stats.variance[d] >= 0.0);
        }
    }

    #[test]
    fn subset_of_everything_is_identity(set in arb_set(60)) {
        let all: Vec<usize> = (0..set.len()).collect();
        let sub = set.subset(&all);
        prop_assert_eq!(sub.len(), set.len());
        for i in 0..set.len() {
            prop_assert_eq!(sub.get(i), set.get(i));
        }
    }

    #[test]
    fn blocked_batch_is_bitwise_scalar(q in arb_query(), packed in arb_packed()) {
        // The blocked kernel must be a pure speed-up: every output is
        // bit-identical to the single-row kernel on that row, for any row
        // count (block remainders included) and adversarial values.
        let mut out = Vec::new();
        eff2_descriptor::kernels::l2_sq_batch(&q, &packed, &mut out);
        let rows = as_rows(&packed);
        prop_assert_eq!(out.len(), rows.len());
        for (j, row) in rows.iter().enumerate() {
            prop_assert_eq!(out[j].to_bits(), l2_sq(&q, row).to_bits(), "row {}", j);
        }
    }

    #[test]
    fn lane_kernel_tracks_serial_reference(q in arb_query(), packed in arb_packed()) {
        // The lane kernel reassociates the serial sum; on finite results
        // the two must agree to f32 rounding (relative).
        for row in as_rows(&packed) {
            let lane = l2_sq(&q, row);
            let serial = l2_sq_serial(&q, row);
            if lane.is_finite() && serial.is_finite() {
                let tol = 1e-4f32 * serial.max(lane).max(1e-12);
                prop_assert!((lane - serial).abs() <= tol, "{} vs {}", lane, serial);
            }
        }
    }

    #[test]
    fn fused_scan_is_rowwise_offers(
        q in arb_query(),
        packed in arb_packed(),
        k in 0usize..12,
    ) {
        let n = packed.len() / DIM;
        let ids: Vec<u32> = (0..n as u32).map(|x| x.wrapping_mul(7919)).collect();
        let mut fused = NeighborSet::new(k);
        scan_block_into(&q, &packed, &ids, &mut fused);
        let mut rowwise = NeighborSet::new(k);
        for (row, &id) in as_rows(&packed).iter().zip(ids.iter()) {
            rowwise.offer(id, l2_sq(&q, row));
        }
        prop_assert_eq!(fused.sorted(), rowwise.sorted());
    }

    #[test]
    fn gather_max_is_scatter_max(
        q in arb_query(),
        packed in arb_packed(),
        picks in proptest::collection::vec(0usize..1000, 0..40),
    ) {
        let rows = as_rows(&packed);
        if rows.is_empty() {
            return Ok(());
        }
        let positions: Vec<u32> = picks.iter().map(|&p| (p % rows.len()) as u32).collect();
        let want = positions
            .iter()
            .map(|&p| l2_sq(&q, &rows[p as usize]))
            .fold(0.0f32, f32::max);
        prop_assert_eq!(
            max_dist_sq_gather(&q, rows, &positions).to_bits(),
            want.to_bits()
        );
    }

    #[test]
    fn sq8_roundtrip_error_within_half_step(set in arb_set(120)) {
        // Values inside the training range reconstruct within half a
        // quantisation step per dimension (plus f32 rounding slack from
        // the scale/unscale round-trip).
        let quant = Sq8Codec::from_set(&set);
        let mut code = [0u8; DIM];
        let mut back = [0.0f32; DIM];
        for row in as_rows(set.packed()) {
            quant.encode_into(row, &mut code);
            quant.decode_into(&code, &mut back);
            for d in 0..DIM {
                let bound = quant.step()[d] * 0.5 * (1.0 + 1e-4) + 1e-3;
                prop_assert!(
                    (back[d] - row[d]).abs() <= bound,
                    "dim {}: {} decoded as {} (step {})",
                    d, row[d], back[d], quant.step()[d]
                );
            }
        }
    }

    #[test]
    fn adc_distance_is_decode_then_exact_bitwise(set in arb_set(80), q in arb_query()) {
        // The asymmetric kernel's contract: for any code and any query —
        // adversarial magnitudes included — `adc_l2_sq(prep, code)` is
        // bit-for-bit `l2_sq(q, decode(code))`, and the blocked batch path
        // reproduces the single-code kernel exactly.
        for quant in [
            Codec::Sq8(Sq8Codec::from_set(&set)),
            Codec::Pq(PqCodec::from_set(&set)),
        ] {
            let cb = quant.code_bytes();
            let mut codes = vec![0u8; set.len() * cb];
            for (row, code) in as_rows(set.packed()).iter().zip(codes.chunks_exact_mut(cb)) {
                quant.encode_into(row, code);
            }
            let prep = quant.prepare(&q);
            let mut decoded = [0.0f32; DIM];
            let mut dists = Vec::new();
            adc_l2_sq_batch(&prep, &codes, &mut dists);
            prop_assert_eq!(dists.len(), set.len());
            for (r, code) in codes.chunks_exact(cb).enumerate() {
                quant.decode_into(code, &mut decoded);
                let one = adc_l2_sq(&prep, code);
                prop_assert_eq!(
                    one.to_bits(),
                    l2_sq(&q, &decoded).to_bits(),
                    "codec {} row {}", quant.name(), r
                );
                prop_assert_eq!(dists[r].to_bits(), one.to_bits(), "batch row {}", r);
            }
        }
    }

    #[test]
    fn zero_capacity_set_never_accepts(q in arb_query(), packed in arb_packed()) {
        let n = packed.len() / DIM;
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut set = NeighborSet::new(0);
        scan_block_into(&q, &packed, &ids, &mut set);
        prop_assert!(set.is_empty());
        prop_assert_eq!(set.kth_dist(), f32::INFINITY);
    }
}
