//! Property-based tests for the storage layer: codec round-trips with
//! arbitrary chunk layouts and page sizes, and cost-model monotonicity.

#![cfg(test)]

use eff2_descriptor::{Descriptor, DescriptorSet, Vector, DIM};
use eff2_storage::chunkfile::ChunkPayload;
use eff2_storage::diskmodel::{DiskModel, PipelineClock, VirtualDuration};
use eff2_storage::indexfile::{read_index, write_index, ChunkMeta};
use eff2_storage::{ChunkDef, ChunkStore};
use proptest::prelude::*;

fn arb_meta() -> impl Strategy<Value = ChunkMeta> {
    (
        proptest::collection::vec(-1e4f32..1e4, DIM),
        0.0f32..1e4,
        0u64..1 << 40,
        0u32..1 << 20,
        0u32..1 << 16,
    )
        .prop_map(|(c, radius, offset, byte_len, count)| ChunkMeta {
            centroid: Vector::from_slice(&c),
            radius,
            offset,
            byte_len,
            count,
        })
}

/// A random partition of `n` positions into chunks.
fn arb_partition(n: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(0usize..4, n).prop_map(move |assign| {
        let mut chunks: Vec<Vec<u32>> = vec![Vec::new(); 4];
        for (p, &c) in assign.iter().enumerate() {
            chunks[c].push(p as u32);
        }
        chunks.retain(|c| !c.is_empty());
        chunks
    })
}

fn arb_set(n: usize) -> impl Strategy<Value = DescriptorSet> {
    proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, DIM), n..n + 1).prop_map(
        |rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, r)| Descriptor::new(i as u32 * 2 + 1, Vector::from_slice(&r)))
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_file_roundtrip(metas in proptest::collection::vec(arb_meta(), 0..40), page in 64u32..65536) {
        let mut buf = Vec::new();
        write_index(&metas, page, &mut buf).unwrap();
        let (back, back_page) = read_index(&buf[..]).unwrap();
        prop_assert_eq!(back_page, page);
        prop_assert_eq!(back, metas);
    }

    #[test]
    fn store_roundtrip_arbitrary_partition(
        set in arb_set(40),
        partition in arb_partition(40),
        page_exp in 6u32..13,
        case in 0u64..u64::MAX,
    ) {
        let page = 1u32 << page_exp;
        let dir = std::env::temp_dir().join(format!("eff2_storeprop_{case}"));
        std::fs::create_dir_all(&dir).unwrap();
        let chunks: Vec<ChunkDef> = partition
            .iter()
            .map(|positions| {
                let (centroid, radius) =
                    eff2_srtree_free_centroid(&set, positions);
                ChunkDef { positions: positions.clone(), centroid, radius }
            })
            .collect();
        let store = ChunkStore::create(&dir, "p", &set, &chunks, page).unwrap();
        let reopened = ChunkStore::open(store.chunk_path(), store.index_path()).unwrap();
        prop_assert_eq!(reopened.n_chunks(), chunks.len());
        let mut reader = reopened.reader().unwrap();
        let mut payload = ChunkPayload::default();
        for (ci, chunk) in chunks.iter().enumerate() {
            let bytes = reader.read_chunk(ci, &mut payload).unwrap();
            prop_assert_eq!(bytes % u64::from(page), 0, "padded span must be whole pages");
            prop_assert_eq!(payload.len(), chunk.positions.len());
            for (k, &pos) in chunk.positions.iter().enumerate() {
                prop_assert_eq!(payload.ids[k], set.id(pos as usize).0);
                prop_assert_eq!(&payload.packed[k * DIM..(k + 1) * DIM], set.vector(pos as usize));
            }
        }
    }

    #[test]
    fn io_time_is_monotone_in_bytes(a in 0u64..1 << 32, b in 0u64..1 << 32) {
        let m = DiskModel::ata_2005();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.io_time(lo) <= m.io_time(hi));
    }

    #[test]
    fn overlap_never_slower_than_serial(
        chunks in proptest::collection::vec((0u64..1 << 24, 0usize..100_000), 1..100)
    ) {
        let m = DiskModel::ata_2005();
        let mut over = PipelineClock::start_at(VirtualDuration::ZERO);
        let mut serial = PipelineClock::start_at(VirtualDuration::ZERO);
        for &(bytes, n) in &chunks {
            over.chunk_overlapped(m.io_time(bytes), m.scan_time(n));
            serial.chunk_serial(m.io_time(bytes), m.scan_time(n));
        }
        prop_assert!(over.now() <= serial.now());
        // And overlap can never beat the pure CPU or pure IO lower bound.
        let cpu_total: f64 = chunks.iter().map(|&(_, n)| m.scan_time(n).as_secs()).sum();
        let io_total: f64 = chunks.iter().map(|&(b, _)| m.io_time(b).as_secs()).sum();
        prop_assert!(over.now().as_secs() >= cpu_total - 1e-9);
        prop_assert!(over.now().as_secs() >= io_total - 1e-9);
    }
}

/// Centroid/radius helper without depending on eff2-srtree (dev-dep hygiene
/// for this crate): plain mean + max distance.
fn eff2_srtree_free_centroid(set: &DescriptorSet, positions: &[u32]) -> (Vector, f32) {
    let vectors: Vec<Vector> = positions
        .iter()
        .map(|&p| set.vector_owned(p as usize))
        .collect();
    let centroid = Vector::mean(vectors.iter());
    let radius = vectors
        .iter()
        .map(|v| centroid.dist(v))
        .fold(0.0f32, f32::max);
    (centroid, radius)
}
