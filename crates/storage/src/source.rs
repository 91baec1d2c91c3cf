//! Pluggable chunk delivery: [`ChunkSource::fetch`] hands over one chunk
//! by id.
//!
//! A search session asks its [`ChunkSource`] for the chunk its cursor
//! names and consumes one [`SourcedChunk`] per step. The source decides
//! **how** the bytes arrive — a plain file reader ([`FileSource`]), a
//! shared in-memory cache ([`ResidentSource`]), or the pipelined
//! background reader of a [`PrefetchSource`] stream — while the search
//! core stays oblivious. [`FileSource`] is the default of every one-call
//! search driver: the consumer's own thread reads each chunk. Crucially,
//! every source reports the same `bytes_read` for a given chunk (the
//! padded on-disk page span), so the virtual disk model charges identical
//! I/O no matter which backend served the payload: the paper's reported
//! figures do not depend on the source.
//!
//! What a consumer keeps between fetches — its [`ChunkReader`] and its
//! cache requester tag — is one [`ReadState`] it passes to every fetch.
//! [`ChunkSource::open_stream`] delivers a whole ranked order instead;
//! every source but [`PrefetchSource`] streams through [`walk`], one
//! fetch per chunk.
//!
//! **A delivery is one value.** Everything a consumer learns about one
//! chunk's arrival — the payload, the bytes the model charges, whether it
//! went to the disk, the modelled delay that fault-injection and retry
//! decorators added on the way — is a field of its [`SourcedChunk`], so
//! handing the chunk on *is* forwarding all of it.

use crate::chunkfile::ChunkPayload;
use crate::diskmodel::VirtualDuration;
use crate::error::{Error, Result};
use crate::prefetch::{positive_depth, prefetch_chunks};
use crate::store::{ChunkReader, ChunkStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Recovers the cache guard even if another reader panicked mid-update.
/// Every critical section leaves the cache consistent (counters and `used`
/// are adjusted together), so continuing past a poisoned lock is sound.
fn lock_cache(cache: &Mutex<ResidentCache>) -> std::sync::MutexGuard<'_, ResidentCache> {
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One delivered chunk — everything known about the delivery.
///
/// The payload is behind an `Arc` so cache-backed sources can hand the same
/// decoded chunk to many concurrent queries without copying.
#[derive(Clone, Debug)]
pub struct SourcedChunk {
    /// Chunk id within the store.
    pub id: usize,
    /// Decoded payload (ids + packed vectors).
    pub payload: Arc<ChunkPayload>,
    /// Bytes the disk model charges for this chunk (padded page span) —
    /// identical across sources, including cache hits.
    pub bytes_read: u64,
    /// Modelled time this delivery took beyond the plain page transfer —
    /// latency spikes, the timeouts and backoff of failed attempts. Zero
    /// from every plain source; each decorator adds its own share, and the
    /// consumer charges the sum to the virtual disk clock.
    pub injected_delay: VirtualDuration,
    /// Whether this delivery performed the disk read itself, as opposed to
    /// being served from a pinned cache entry.
    pub from_disk: bool,
}

/// What one consumer keeps between fetches: its [`ChunkReader`], opened
/// on the first read, and its [`ResidentSource`] requester tag, drawn on
/// the first fetch through one. A session holds one for its whole scan,
/// so a retry re-reads through the same open file; a fresh state is a
/// fresh consumer.
#[derive(Debug, Default)]
pub struct ReadState {
    reader: Option<ChunkReader>,
    requester: Option<u64>,
}

/// A stream of chunks in the order requested from [`ChunkSource::open_stream`].
///
/// Streams own all their state (`'static`), so a holder can outlive the
/// scope that opened the store. A lost chunk ([`Error::ChunkLost`]) is
/// consumed and the stream goes on; after any other `Err` it is
/// exhausted, and later calls return `None`.
pub trait ChunkStream: Send {
    /// Delivers the next chunk of the requested order, `None` when done.
    fn next_chunk(&mut self) -> Option<Result<SourcedChunk>>;
}

/// A backend that delivers chunk payloads by id.
pub trait ChunkSource: Send + Sync {
    /// Delivers chunk `id` to the consumer whose `state` this is. A
    /// missing or truncated chunk file surfaces here as a clean `Err`.
    fn fetch(&self, id: usize, state: &mut ReadState) -> Result<SourcedChunk>;

    /// A stream that yields the chunks in `order`, in order: a [`walk`]
    /// for every source but [`PrefetchSource`].
    fn open_stream(&self, order: Vec<usize>) -> Result<Box<dyn ChunkStream>>;
}

/// The stream of every source that reads on demand: one
/// [`fetch`](ChunkSource::fetch) per id of `order`, through one
/// [`ReadState`], under the [`ChunkStream`] error contract.
pub fn walk<S: ChunkSource + 'static>(source: S, order: Vec<usize>) -> Box<dyn ChunkStream> {
    Box::new(Walk {
        source,
        order: order.into_iter(),
        state: ReadState::default(),
        fused: false,
    })
}

struct Walk<S> {
    source: S,
    order: std::vec::IntoIter<usize>,
    state: ReadState,
    fused: bool,
}

impl<S: ChunkSource> ChunkStream for Walk<S> {
    fn next_chunk(&mut self) -> Option<Result<SourcedChunk>> {
        if self.fused {
            return None;
        }
        let item = self.source.fetch(self.order.next()?, &mut self.state);
        self.fused = matches!(&item, Err(e) if !matches!(e, Error::ChunkLost { .. }));
        Some(item)
    }
}

/// One disk read of chunk `id` through `reader`, which is opened on first
/// use: the decoded payload, ready to share, as a delivery.
pub(crate) fn read_through(
    store: &ChunkStore,
    reader: &mut Option<ChunkReader>,
    id: usize,
) -> Result<SourcedChunk> {
    let r = match reader.as_mut() {
        Some(r) => r,
        None => reader.insert(store.reader()?),
    };
    let mut payload = ChunkPayload::default();
    let bytes_read = r.read_chunk(id, &mut payload)?;
    Ok(SourcedChunk {
        id,
        payload: Arc::new(payload),
        bytes_read,
        injected_delay: VirtualDuration::ZERO,
        from_disk: true,
    })
}

// ---------------------------------------------------------------------------
// FileSource — a synchronous read on the consumer's thread.
// ---------------------------------------------------------------------------

/// Reads chunks synchronously through the consumer's [`ChunkReader`] on
/// the consumer's thread: every delivery is a disk read. The default
/// source of the one-call search drivers.
#[derive(Clone, Debug)]
pub struct FileSource {
    store: ChunkStore,
}

impl FileSource {
    /// A file-backed source over `store`.
    pub fn new(store: &ChunkStore) -> FileSource {
        FileSource {
            store: store.clone(),
        }
    }
}

impl ChunkSource for FileSource {
    fn fetch(&self, id: usize, state: &mut ReadState) -> Result<SourcedChunk> {
        read_through(&self.store, &mut state.reader, id)
    }

    fn open_stream(&self, order: Vec<usize>) -> Result<Box<dyn ChunkStream>> {
        Ok(walk(self.clone(), order))
    }
}

// ---------------------------------------------------------------------------
// PrefetchSource — background reader thread per stream.
// ---------------------------------------------------------------------------

/// Streams chunks through `prefetch_chunks`: a reader thread stays up to
/// `depth` chunks ahead of the consumer, overlapping real file I/O with
/// processing (the overlap §1.1 of the paper argues for). Only its stream
/// reads ahead: [`fetch`](ChunkSource::fetch) is a plain read on the
/// caller's thread, so a session over it reads like one over a
/// [`FileSource`]. No product driver opens one: see [`crate::prefetch`]
/// for why.
#[derive(Clone, Debug)]
pub struct PrefetchSource {
    store: ChunkStore,
    depth: usize,
}

impl PrefetchSource {
    /// A prefetching source over `store` with the given window depth.
    ///
    /// A zero depth is refused with [`Error::Inconsistent`] at the first
    /// fetch or stream (a search that reads nothing — `k = 0`, an empty
    /// budget — tolerates it).
    pub fn new(store: &ChunkStore, depth: usize) -> PrefetchSource {
        PrefetchSource {
            store: store.clone(),
            depth,
        }
    }
}

impl ChunkSource for PrefetchSource {
    fn fetch(&self, id: usize, state: &mut ReadState) -> Result<SourcedChunk> {
        positive_depth(self.depth)?;
        read_through(&self.store, &mut state.reader, id)
    }

    fn open_stream(&self, order: Vec<usize>) -> Result<Box<dyn ChunkStream>> {
        Ok(Box::new(prefetch_chunks(&self.store, order, self.depth)?))
    }
}

// ---------------------------------------------------------------------------
// ResidentSource — byte-budgeted LRU cache shared across queries.
// ---------------------------------------------------------------------------

/// Counters describing a [`ResidentSource`]'s cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Chunk requests served from a pinned entry.
    pub hits: u64,
    /// Of those hits, how many were served by a chunk a *different*
    /// requester brought in — the cross-query sharing a serving scheduler
    /// exists to maximise.
    pub cross_query_hits: u64,
    /// Chunk requests that went to disk.
    pub misses: u64,
    /// Chunks evicted to respect the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently pinned.
    pub resident_bytes: u64,
    /// Chunks currently pinned.
    pub resident_chunks: usize,
}

#[derive(Debug)]
struct ResidentEntry {
    payload: Arc<ChunkPayload>,
    bytes_read: u64,
    cost: u64,
    last_used: u64,
    /// Requester tag of whoever paid the miss — hit attribution.
    inserted_by: u64,
}

/// The shared LRU state. Entries live in a `BTreeMap` so every traversal
/// (eviction scans, stats, debug dumps) visits chunks in the same order on
/// every run — clippy's `disallowed_types` bans randomized iteration from
/// crates feeding the deterministic search pipeline. The
/// LRU victim itself is already unambiguous (ticks are unique), so the
/// swap changes no observable behaviour, only removes the nondeterminism
/// hazard.
#[derive(Debug, Default)]
struct ResidentCache {
    entries: BTreeMap<usize, ResidentEntry>,
    budget: u64,
    used: u64,
    tick: u64,
    hits: u64,
    cross_query_hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResidentCache {
    /// A pinned-entry hit, counted and attributed; on `None` the caller
    /// reads the chunk and charges the miss.
    fn lookup(&mut self, id: usize, requester: u64) -> Option<(Arc<ChunkPayload>, u64)> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(&id)?;
        e.last_used = tick;
        self.hits += 1;
        if e.inserted_by != requester {
            self.cross_query_hits += 1;
        }
        Some((Arc::clone(&e.payload), e.bytes_read))
    }

    /// Charges one disk read.
    fn note_miss(&mut self) {
        self.misses += 1;
    }

    fn insert(&mut self, id: usize, payload: Arc<ChunkPayload>, bytes_read: u64, inserted_by: u64) {
        let cost = payload_bytes(&payload);
        if cost > self.budget {
            return; // a chunk larger than the whole budget stays uncached
        }
        if let Some(old) = self.entries.remove(&id) {
            self.used -= old.cost; // racing readers: replace, don't double-count
        }
        while self.used + cost > self.budget {
            // `used > 0` implies a resident entry; if bookkeeping ever
            // drifted, stop evicting rather than spin or panic.
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&vid, _)| vid)
            else {
                break;
            };
            let Some(evicted) = self.entries.remove(&victim) else {
                break;
            };
            self.used -= evicted.cost;
            self.evictions += 1;
        }
        self.tick += 1;
        self.used += cost;
        self.entries.insert(
            id,
            ResidentEntry {
                payload,
                bytes_read,
                cost,
                last_used: self.tick,
                inserted_by,
            },
        );
    }
}

/// Decoded in-memory footprint of a payload (ids + packed floats + codes).
fn payload_bytes(p: &ChunkPayload) -> u64 {
    (p.ids.len() * std::mem::size_of::<u32>()
        + p.packed.len() * std::mem::size_of::<f32>()
        + p.codes.len()) as u64
}

/// Pins decoded chunks in a byte-budgeted LRU shared across queries — the
/// hot-serving backend.
///
/// Cache hits skip the disk but still report the chunk's on-disk
/// `bytes_read`, so the virtual clock charges exactly the modelled I/O a
/// [`FileSource`] would: reported quality-vs-time figures are unchanged.
/// The budget bounds the *decoded* footprint (ids + packed floats); a
/// single chunk larger than the whole budget is served but never pinned.
#[derive(Clone, Debug)]
pub struct ResidentSource {
    store: ChunkStore,
    cache: Arc<Mutex<ResidentCache>>,
    next_requester: Arc<AtomicU64>,
}

impl ResidentSource {
    /// A resident source over `store` pinning at most `budget_bytes` of
    /// decoded chunk data. Clones share the same cache.
    pub fn new(store: &ChunkStore, budget_bytes: u64) -> ResidentSource {
        ResidentSource {
            store: store.clone(),
            cache: Arc::new(Mutex::new(ResidentCache {
                budget: budget_bytes,
                ..ResidentCache::default()
            })),
            next_requester: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> ResidentStats {
        let cache = lock_cache(&self.cache);
        ResidentStats {
            hits: cache.hits,
            cross_query_hits: cache.cross_query_hits,
            misses: cache.misses,
            evictions: cache.evictions,
            resident_bytes: cache.used,
            resident_chunks: cache.entries.len(),
        }
    }

    /// A fresh requester tag for hit attribution. A [`ReadState`] draws
    /// one at its first fetch through this source; the serving engine
    /// tags each query session itself.
    pub(crate) fn new_requester(&self) -> u64 {
        self.next_requester.fetch_add(1, Ordering::Relaxed)
    }

    /// Random-access delivery of chunk `id` on behalf of `requester`:
    /// cache lookup, then a disk read on a miss. This is the entry point
    /// the serving engine uses, with a requester tag of its own. `reader`
    /// is the caller's to keep across calls: it is opened on the first
    /// miss, so an all-hit caller never touches the disk. Two threads that
    /// miss one chunk at once each read it and each book a miss.
    pub fn fetch_through(
        &self,
        requester: u64,
        id: usize,
        reader: &mut Option<ChunkReader>,
    ) -> Result<SourcedChunk> {
        if let Some((payload, bytes_read)) = lock_cache(&self.cache).lookup(id, requester) {
            return Ok(SourcedChunk {
                id,
                payload,
                bytes_read,
                injected_delay: VirtualDuration::ZERO,
                from_disk: false,
            });
        }
        // Miss: read outside the lock, then publish.
        let chunk = read_through(&self.store, reader, id)?;
        let mut cache = lock_cache(&self.cache);
        cache.note_miss();
        cache.insert(id, Arc::clone(&chunk.payload), chunk.bytes_read, requester);
        Ok(chunk)
    }
}

impl ChunkSource for ResidentSource {
    fn fetch(&self, id: usize, state: &mut ReadState) -> Result<SourcedChunk> {
        let requester = *state.requester.get_or_insert_with(|| self.new_requester());
        self.fetch_through(requester, id, &mut state.reader)
    }

    fn open_stream(&self, order: Vec<usize>) -> Result<Box<dyn ChunkStream>> {
        Ok(walk(self.clone(), order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ChunkDef;
    use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("eff2_source_{tag}_{}_{unique}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn store_with_chunks(tag: &str, sizes: &[usize]) -> ChunkStore {
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
        ChunkStore::create(&tmp_dir(tag), "s", &set, &chunks, 512).expect("create")
    }

    fn drain(source: &dyn ChunkSource, order: Vec<usize>) -> Vec<SourcedChunk> {
        let mut stream = source.open_stream(order).expect("open stream");
        let mut out = Vec::new();
        while let Some(item) = stream.next_chunk() {
            out.push(item.expect("chunk"));
        }
        out
    }

    #[test]
    fn file_source_matches_direct_reads() {
        let store = store_with_chunks("file", &[3, 5, 2, 4]);
        let order = vec![2usize, 0, 3, 1];
        let got = drain(&FileSource::new(&store), order.clone());
        let mut reader = store.reader().expect("reader");
        assert_eq!(got.len(), order.len());
        for (chunk, &id) in got.iter().zip(order.iter()) {
            let mut direct = ChunkPayload::default();
            let bytes = reader.read_chunk(id, &mut direct).expect("direct");
            assert_eq!(chunk.id, id);
            assert_eq!(*chunk.payload, direct);
            assert_eq!(chunk.bytes_read, bytes);
            assert!(chunk.from_disk, "every file delivery is a disk read");
            assert_eq!(chunk.injected_delay, VirtualDuration::ZERO);
        }
    }

    #[test]
    fn prefetch_source_matches_file_source() {
        let store = store_with_chunks("prefetch", &[4, 1, 6, 3, 2]);
        let order = vec![4usize, 1, 3, 0, 2];
        let from_file = drain(&FileSource::new(&store), order.clone());
        let from_prefetch = drain(&PrefetchSource::new(&store, 2), order);
        assert_eq!(from_file.len(), from_prefetch.len());
        for (a, b) in from_file.iter().zip(from_prefetch.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.payload, b.payload);
            assert_eq!(a.bytes_read, b.bytes_read);
            assert!(b.from_disk, "every prefetch delivery is a disk read");
        }
    }

    #[test]
    fn resident_source_is_byte_identical_to_file_source() {
        let store = store_with_chunks("resident_eq", &[3, 5, 2, 4]);
        let order: Vec<usize> = vec![1, 3, 0, 2];
        let resident = ResidentSource::new(&store, u64::MAX);
        let from_file = drain(&FileSource::new(&store), order.clone());
        // Two passes: the second is served entirely from memory and must
        // still be byte-identical, including the modelled bytes_read.
        for pass in 0..2 {
            let from_cache = drain(&resident, order.clone());
            for (a, b) in from_file.iter().zip(from_cache.iter()) {
                assert_eq!(a.id, b.id, "pass {pass}");
                assert_eq!(a.payload, b.payload, "pass {pass}");
                assert_eq!(a.bytes_read, b.bytes_read, "pass {pass}");
                assert_eq!(b.from_disk, pass == 0, "only the first delivery reads");
                assert_eq!(b.injected_delay, VirtualDuration::ZERO);
            }
        }
        let stats = resident.stats();
        assert_eq!(stats.misses, order.len() as u64);
        assert_eq!(stats.hits, order.len() as u64);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident_chunks, order.len());
    }

    #[test]
    fn resident_lru_respects_byte_budget() {
        let store = store_with_chunks("resident_lru", &[4, 4, 4, 4]);
        let per_chunk = {
            let probe = ResidentSource::new(&store, u64::MAX);
            drain(&probe, vec![0]);
            probe.stats().resident_bytes
        };
        // Room for exactly two chunks.
        let budget = 2 * per_chunk;
        let resident = ResidentSource::new(&store, budget);
        let mut stream = resident.open_stream(vec![0, 1, 2, 3, 0]).expect("open");
        while let Some(item) = stream.next_chunk() {
            item.expect("chunk");
            let stats = resident.stats();
            assert!(
                stats.resident_bytes <= budget,
                "resident {} exceeds budget {budget}",
                stats.resident_bytes
            );
        }
        let stats = resident.stats();
        // 0,1 cached; 2 evicts 0; 3 evicts 1; re-reading 0 evicts 2.
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, 3);
        assert_eq!(stats.resident_chunks, 2);
        assert_eq!(stats.resident_bytes, budget);
        // LRU order: 3 and 0 are resident now, so they hit.
        drain(&resident, vec![3, 0]);
        let stats = resident.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 5);
    }

    #[test]
    fn resident_oversized_chunk_is_served_uncached() {
        let store = store_with_chunks("resident_big", &[8, 2]);
        let resident = ResidentSource::new(&store, 64); // smaller than chunk 0
        let got = drain(&resident, vec![0, 0]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].payload, got[1].payload);
        let stats = resident.stats();
        assert_eq!(stats.misses, 2, "oversized chunk never hits");
        assert_eq!(stats.resident_chunks, 0);
        assert_eq!(stats.resident_bytes, 0);
    }

    #[test]
    fn cross_query_hits_are_attributed() {
        let store = store_with_chunks("xquery", &[3]);
        let resident = ResidentSource::new(&store, u64::MAX);
        let mut reader = None;
        let mut fetch = |tag| resident.fetch_through(tag, 0, &mut reader).expect("fetch");
        let tag_a = resident.new_requester();
        let first = fetch(tag_a);
        assert!(first.from_disk);
        let again = fetch(tag_a);
        assert!(!again.from_disk);
        let tag_b = resident.new_requester();
        let other = fetch(tag_b);
        assert!(!other.from_disk);
        assert_eq!(first.payload, other.payload);
        let stats = resident.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(
            stats.cross_query_hits, 1,
            "only the hit from requester b crossed queries"
        );
    }

    #[test]
    fn threads_sharing_one_cache_deliver_file_bytes_and_count_every_request() {
        let store = store_with_chunks("threads", &[3, 5, 2, 4]);
        // Chunk 1 comes twice, so every thread's second request for it is a
        // hit, whoever inserted it: nothing is evicted, and a racing insert
        // replaces the entry rather than dropping it.
        let order = vec![1usize, 3, 0, 1, 2];
        let from_file = drain(&FileSource::new(&store), order.clone());
        let costs: BTreeMap<usize, u64> = from_file
            .iter()
            .map(|c| (c.id, payload_bytes(&c.payload)))
            .collect();
        let distinct = costs.len();
        let n = 4usize;
        // Every assertion holds under any interleaving; the rounds only
        // make the racing paths likely to run.
        for round in 0..20 {
            let resident = ResidentSource::new(&store, u64::MAX);
            let barrier = std::sync::Barrier::new(n);
            std::thread::scope(|scope| {
                for _ in 0..n {
                    let (resident, order) = (resident.clone(), order.clone());
                    let (barrier, from_file) = (&barrier, &from_file);
                    scope.spawn(move || {
                        barrier.wait();
                        let got = drain(&resident, order);
                        assert_eq!(got.len(), from_file.len(), "round {round}");
                        for (a, b) in from_file.iter().zip(&got) {
                            assert_eq!(a.id, b.id, "round {round}");
                            assert_eq!(a.payload, b.payload, "round {round}");
                            assert_eq!(a.bytes_read, b.bytes_read, "round {round}");
                        }
                    });
                }
            });
            let stats = resident.stats();
            assert_eq!(
                stats.hits + stats.misses,
                (n * order.len()) as u64,
                "round {round}: every request is a hit or a miss"
            );
            assert!(stats.misses >= distinct as u64, "round {round}");
            assert!(
                stats.misses <= (n * distinct) as u64,
                "round {round}: a thread misses each chunk at most once"
            );
            assert_eq!(stats.evictions, 0, "round {round}");
            assert_eq!(stats.resident_chunks, distinct, "round {round}");
            assert_eq!(
                stats.resident_bytes,
                costs.values().sum::<u64>(),
                "round {round}: one copy of each chunk"
            );
        }
    }

    #[test]
    fn inserting_a_resident_chunk_replaces_it() {
        let payload = |n: usize| {
            Arc::new(ChunkPayload {
                ids: (0..n as u32).collect(),
                packed: vec![0.0; n],
                codes: Vec::new(),
            })
        };
        let (a, b) = (payload(2), payload(3));
        let (cost_a, cost_b) = (payload_bytes(&a), payload_bytes(&b));

        let mut roomy = ResidentCache {
            budget: u64::MAX,
            ..ResidentCache::default()
        };
        roomy.insert(0, Arc::clone(&a), 512, 0);
        roomy.insert(0, Arc::clone(&a), 512, 1);
        assert_eq!(roomy.entries.len(), 1);
        assert_eq!(roomy.used, cost_a, "one copy's cost");
        assert_eq!(roomy.evictions, 0);

        // Exactly full: replacing chunk 1 must not evict chunk 0.
        let mut full = ResidentCache {
            budget: cost_a + cost_b,
            ..ResidentCache::default()
        };
        full.insert(0, Arc::clone(&a), 512, 0);
        full.insert(1, Arc::clone(&b), 512, 0);
        full.insert(1, Arc::clone(&b), 512, 1);
        assert_eq!(full.entries.keys().copied().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(full.used, full.budget);
        assert_eq!(full.evictions, 0);
        assert_eq!(full.entries.get(&1).map(|e| e.inserted_by), Some(1));
    }

    #[test]
    fn streams_fuse_after_an_error() {
        let store = store_with_chunks("fuse", &[2, 2]);
        for source in [
            Box::new(FileSource::new(&store)) as Box<dyn ChunkSource>,
            Box::new(PrefetchSource::new(&store, 2)),
            Box::new(ResidentSource::new(&store, u64::MAX)),
        ] {
            let mut stream = source.open_stream(vec![0, 9, 1]).expect("open");
            assert!(stream.next_chunk().expect("first").is_ok());
            assert!(stream.next_chunk().expect("second").is_err());
            assert!(stream.next_chunk().is_none(), "stream must fuse");
        }
    }

    #[test]
    fn clones_share_the_cache() {
        let store = store_with_chunks("share", &[3, 3]);
        let a = ResidentSource::new(&store, u64::MAX);
        let b = a.clone();
        drain(&a, vec![0, 1]);
        drain(&b, vec![0, 1]);
        let stats = a.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(b.stats(), stats);
    }
}
