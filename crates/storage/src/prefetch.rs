//! A pipelined chunk reader: I/O overlapped with processing.
//!
//! The paper's premise is that the CPU cost of scanning a chunk "can
//! potentially be overlapped with I/O cost. As a result, the way to
//! guarantee minimal query processing cost is to produce uniformly sized
//! chunks, to balance the I/O and CPU cost of the search" (§1.1). This
//! module implements that overlap for real file I/O: a reader thread
//! fetches chunks in ranked order ahead of the consumer, through a bounded
//! channel whose depth is the prefetch window. What comes out of the
//! channel is the same [`SourcedChunk`] every source delivers, so the
//! iterator is itself the prefetch source's [`ChunkStream`].
//!
//! No product driver opens one. On a warm page cache a chunk's scan is a
//! few microseconds, so the thread start and the per-chunk hand-off cost
//! more than the overlap saves; the one-call drivers read on the query's
//! own thread through a [`FileSource`](crate::source::FileSource). The
//! overlap the paper's figures rest on is modelled by
//! [`PipelineClock`](crate::PipelineClock), whatever the source.

use crate::error::Result;
use crate::source::{read_through, ChunkStream, SourcedChunk};
use crate::store::ChunkStore;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

/// The chunks fetched by a background reader thread, in the requested
/// order — an iterator, and the [`ChunkStream`] of a
/// [`PrefetchSource`](crate::source::PrefetchSource). The reader stops
/// after the first error it sends, so the stream is fused by construction.
#[derive(Debug)]
pub(crate) struct PrefetchIter {
    rx: Receiver<Result<SourcedChunk>>,
    handle: Option<JoinHandle<()>>,
}

/// Checks that `depth` is a usable prefetch window: a zero depth is
/// refused with [`Error::Inconsistent`](crate::Error::Inconsistent).
pub(crate) fn positive_depth(depth: usize) -> Result<()> {
    if depth == 0 {
        return Err(crate::Error::Inconsistent(
            "prefetch depth must be positive".to_string(),
        ));
    }
    Ok(())
}

/// Starts prefetching `order` (chunk ids) from `store` with a reader thread
/// that stays at most `depth` chunks ahead of the consumer. A zero `depth`
/// is refused with [`Error::Inconsistent`](crate::Error::Inconsistent).
pub(crate) fn prefetch_chunks(
    store: &ChunkStore,
    order: Vec<usize>,
    depth: usize,
) -> Result<PrefetchIter> {
    positive_depth(depth)?;
    // The reader thread needs its own handle; the store is a cheap
    // `Arc`-backed clone, and the file itself is opened lazily on the
    // first read (an empty order never opens it).
    let owned = store.clone();
    let (tx, rx) = sync_channel(depth);
    let handle = eff2_parallel::spawn(move || {
        let mut reader = None;
        for id in order {
            let item = read_through(&owned, &mut reader, id);
            let failed = item.is_err();
            if tx.send(item).is_err() {
                return; // consumer dropped the iterator — stop quietly
            }
            if failed {
                return;
            }
        }
    });
    Ok(PrefetchIter {
        rx,
        handle: Some(handle),
    })
}

impl Iterator for PrefetchIter {
    type Item = Result<SourcedChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        self.rx.recv().ok()
    }
}

impl ChunkStream for PrefetchIter {
    fn next_chunk(&mut self) -> Option<Result<SourcedChunk>> {
        self.next()
    }
}

impl Drop for PrefetchIter {
    fn drop(&mut self) {
        // Drain so the reader unblocks, then join it.
        while self.rx.try_recv().is_ok() {}
        drop(std::mem::replace(&mut self.rx, sync_channel(1).1));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkfile::ChunkPayload;
    use crate::store::ChunkDef;
    use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "eff2_prefetch_{tag}_{}_{unique}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn store_with_chunks(tag: &str, sizes: &[usize]) -> (ChunkStore, DescriptorSet) {
        let n: usize = sizes.iter().sum();
        let set: DescriptorSet = (0..n)
            .map(|i| Descriptor::new(i as u32, Vector::splat(i as f32)))
            .collect();
        let mut chunks = Vec::new();
        let mut next = 0u32;
        for &s in sizes {
            let positions: Vec<u32> = (next..next + s as u32).collect();
            next += s as u32;
            chunks.push(ChunkDef {
                positions,
                centroid: Vector::ZERO,
                radius: 1e9,
            });
        }
        let store = ChunkStore::create(&tmp_dir(tag), "p", &set, &chunks, 512).expect("create");
        (store, set)
    }

    #[test]
    fn zero_depth_is_a_typed_error_not_a_panic() {
        let (store, _) = store_with_chunks("zero", &[3, 2]);
        let refused = prefetch_chunks(&store, vec![0, 1], 0);
        assert!(matches!(refused, Err(crate::Error::Inconsistent(_))));
    }

    #[test]
    fn delivers_in_requested_order() {
        let (store, _) = store_with_chunks("order", &[3, 5, 2, 4]);
        let order = vec![2usize, 0, 3, 1];
        let got: Vec<usize> = prefetch_chunks(&store, order.clone(), 2)
            .expect("prefetch")
            .map(|r| r.expect("chunk").id)
            .collect();
        assert_eq!(got, order);
    }

    #[test]
    fn payloads_match_direct_reads() {
        let (store, _) = store_with_chunks("payload", &[4, 4, 4]);
        let mut reader = store.reader().expect("reader");
        for item in prefetch_chunks(&store, vec![0, 1, 2], 1).expect("prefetch") {
            let chunk = item.expect("chunk");
            let mut direct = ChunkPayload::default();
            let bytes = reader.read_chunk(chunk.id, &mut direct).expect("direct");
            assert_eq!(*chunk.payload, direct);
            assert_eq!(chunk.bytes_read, bytes);
        }
    }

    #[test]
    fn early_drop_joins_cleanly() {
        let (store, _) = store_with_chunks("drop", &[2; 20]);
        let mut iter = prefetch_chunks(&store, (0..20).collect(), 2).expect("prefetch");
        let first = iter.next().expect("one item").expect("chunk");
        assert_eq!(first.id, 0);
        drop(iter); // must not hang or leak the thread
    }

    #[test]
    fn bad_chunk_id_surfaces_error() {
        let (store, _) = store_with_chunks("bad", &[2, 2]);
        let results: Vec<_> = prefetch_chunks(&store, vec![0, 9], 2)
            .expect("prefetch")
            .collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn empty_order_yields_nothing() {
        let (store, _) = store_with_chunks("empty", &[2]);
        let mut iter = prefetch_chunks(&store, vec![], 1).expect("prefetch");
        assert!(iter.next().is_none());
    }
}
