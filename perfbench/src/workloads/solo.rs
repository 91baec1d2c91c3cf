//! The three one-query-at-a-time workloads over the 100 k SR-tree index:
//! `solo_cold` (files through the default prefetching source), `solo_hot`
//! (one shared, warmed resident source) and `pq_rerank` (ADC scan of the
//! v3 PQ store plus the exact rerank tail).
//!
//! The pair cold/hot returns the same answers bit for bit; fetch + decode
//! dominate the first and rank + scan + fold the second, which is what
//! separates a storage gain from a compute gain.

use super::{Facts, SpanStats, Workload};
use crate::fixtures::{
    disk_bytes_per_user_byte, distances_check_out, reopen, same_result, timed, Base, Ctx, Measured,
    Res, PAGE,
};
use crate::stats::median_secs;
use crate::trace::Recorder;
use eff2_core::search::{search, search_batch_threads, search_with_source, SearchResult};
use eff2_core::search_quantized;
use eff2_core::session::{ChunkRanking, SearchSession};
use eff2_descriptor::kernels::l2_sq_batch;
use eff2_descriptor::{
    adc_l2_sq_batch, scan_block_into, Codec, DescriptorCodec, NeighborSet, PqCodec,
};
use eff2_storage::chunkfile::{decode_records, ChunkPayload};
use eff2_storage::source::{ChunkSource, FileSource, PrefetchSource, ResidentSource};
use eff2_storage::ChunkStore;
use std::hint::black_box;
use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;

/// Which of the three solo workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `search()` from files.
    Cold,
    /// `search_with_source` over a warm `ResidentSource`.
    Hot,
    /// `search_quantized(.., rerank_mult = 4)`.
    Pq,
}

/// Queries in the pool; ops cycle through it.
const POOL: usize = 1_000;
/// Rerank depth of `pq_rerank`.
const RERANK_MULT: usize = 4;
/// Budget of the resident source: the whole decoded index fits.
const RESIDENT_BUDGET: u64 = 1 << 30;
/// Pool queries the kernel replays cover.
const REPLAY_QUERIES: usize = 200;

/// A built solo workload.
pub struct Solo {
    kind: Kind,
    ops: usize,
    base: Base,
    /// The store ops search: the raw store, or the v3 store for `Pq`.
    store: ChunkStore,
    /// The source the decomposed form draws chunks from.
    source: Arc<dyn ChunkSource>,
    /// `Hot` only: the same source, for its counters.
    resident: Option<Arc<ResidentSource>>,
    /// One-call answers of every pool query, computed in set-up.
    reference: Vec<SearchResult>,
}

impl Solo {
    /// Builds the fixture for `kind`.
    pub fn build(ctx: &Ctx, kind: Kind) -> Res<Solo> {
        let mut base = Base::build(ctx, ctx.scale.big, ctx.scale.ops(POOL))?;
        let ops = ctx.scale.ops(match kind {
            Kind::Cold => 1_000,
            Kind::Hot => 10_000,
            Kind::Pq => 800,
        });
        let store = match kind {
            Kind::Cold | Kind::Hot => base.store.clone(),
            Kind::Pq => {
                let codec = timed(&mut base.times, "descriptor.quant.train_s", 1.0, || {
                    Codec::Pq(PqCodec::from_set(&base.set))
                });
                let chunks = &base.formation.chunks;
                let written = timed(&mut base.times, "storage.store.create_s", 1.0, || {
                    ChunkStore::create_quantized(&ctx.dir, "pq", &base.set, chunks, PAGE, &codec)
                })?;
                reopen(&written, &mut base.times)?
            }
        };
        let mut resident = None;
        let source: Arc<dyn ChunkSource> = match kind {
            Kind::Cold => Arc::new(PrefetchSource::new(&store, base.params.prefetch_depth)),
            Kind::Hot => {
                let r = Arc::new(ResidentSource::new(&store, RESIDENT_BUDGET));
                resident = Some(Arc::clone(&r));
                r
            }
            Kind::Pq => Arc::new(PrefetchSource::new(
                &store.quantized_view()?,
                base.params.prefetch_depth,
            )),
        };
        // Reference answers come from the one-call form over files, for
        // `Hot` too: its answers must equal `solo_cold`'s.
        let reference = match kind {
            Kind::Cold | Kind::Hot => std::mem::take(&mut base.reference),
            Kind::Pq => base
                .pool
                .iter()
                .map(|q| search_quantized(&store, &base.model, q, &base.params, RERANK_MULT))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let solo = Solo {
            kind,
            ops,
            base,
            store,
            source,
            resident,
            reference,
        };
        if kind == Kind::Hot {
            // Warm the cache: every chunk any pool query reads is resident.
            for i in 0..solo.base.pool.len() {
                solo.one_call(i)?;
            }
        }
        Ok(solo)
    }

    fn one_call(&self, i: usize) -> Res<SearchResult> {
        let (b, q) = (&self.base, &self.base.pool[i % self.base.pool.len()]);
        Ok(match self.kind {
            Kind::Cold => search(&self.store, &b.model, q, &b.params)?,
            Kind::Hot => search_with_source(
                &self.store,
                &b.model,
                q,
                &b.params,
                Arc::clone(&self.source),
            )?,
            Kind::Pq => search_quantized(&self.store, &b.model, q, &b.params, RERANK_MULT)?,
        })
    }

    /// The decomposed form of [`one_call`](Self::one_call): the same calls
    /// the one-call drivers make, each inside its own span.
    fn decomposed(&self, i: usize, rec: &mut Recorder) -> Res<SearchResult> {
        let (b, q) = (&self.base, &self.base.pool[i % self.base.pool.len()]);
        let mut session = match self.kind {
            Kind::Cold | Kind::Hot => {
                let ranking = rec.span("core.session.rank", || {
                    ChunkRanking::rank(&self.store, &b.model, q)
                });
                rec.span("core.session.open", || {
                    SearchSession::detached_from_ranking(ranking, &b.model, q, &b.params)
                })
            }
            Kind::Pq => rec.span("core.session.open_quantized", || {
                SearchSession::open_quantized(
                    &self.store,
                    &b.model,
                    q,
                    &b.params,
                    RERANK_MULT,
                    None,
                )
            })?,
        };
        let mut stream = rec.span("storage.source.open_stream", || {
            self.source.open_stream(session.ranking().order_from(0))
        })?;
        while !session.stop_satisfied() {
            let Some(chunk) = rec.span("storage.source.next_chunk", || stream.next_chunk()) else {
                break;
            };
            let chunk = chunk?;
            rec.span("core.session.step_with", || {
                session.step_with(&chunk).map(|_| ())
            })?;
        }
        rec.span("storage.source.close_stream", || drop(stream));
        if self.kind == Kind::Pq {
            rec.span("core.adc.rerank_tail", || session.rerank_tail())?;
        }
        Ok(rec.span("core.session.into_result", || session.into_result()))
    }

    /// `(pool index, chunk ids)` of the first [`REPLAY_QUERIES`] reference
    /// answers — the traced (query, chunk) pairs the kernel probes replay.
    fn replay_pairs(&self) -> Vec<(usize, Vec<usize>)> {
        self.reference
            .iter()
            .take(REPLAY_QUERIES)
            .enumerate()
            .map(|(qi, r)| (qi, r.log.events.iter().map(|e| e.chunk_id).collect()))
            .collect()
    }

    /// Kernel and storage probes over the replayed pairs. Returns the mean
    /// descriptors per replayed chunk.
    fn replay_probes(&self, out: &mut Measured) -> Res<f64> {
        let pairs = self.replay_pairs();
        let view = match self.kind {
            Kind::Pq => self.store.quantized_view()?,
            _ => self.store.clone(),
        };
        // Payloads of every replayed pair, read once, outside any timing.
        let mut reader = view.reader()?;
        let mut payloads: Vec<Vec<ChunkPayload>> = Vec::with_capacity(pairs.len());
        for (_, chunks) in &pairs {
            let mut row = Vec::with_capacity(chunks.len());
            for &id in chunks {
                let mut payload = ChunkPayload::default();
                reader.read_chunk(id, &mut payload)?;
                row.push(payload);
            }
            payloads.push(row);
        }
        let descriptors: usize = payloads.iter().flatten().map(ChunkPayload::len).sum();
        let n_chunks: usize = payloads.iter().map(Vec::len).sum();
        let per_desc_ns = |secs: f64| secs * 1e9 / descriptors.max(1) as f64;
        let per_chunk = descriptors as f64 / n_chunks.max(1) as f64;

        if self.kind == Kind::Pq {
            let codec = self
                .store
                .codec()
                .ok_or("pq store carries no codec")?
                .clone();
            out.insert(
                "descriptor.quant.prepare_us",
                median_secs(|| {
                    for (qi, _) in &pairs {
                        black_box(codec.prepare(self.base.pool[*qi].as_array()));
                    }
                }) * 1e6
                    / pairs.len().max(1) as f64,
            );
            let preps: Vec<_> = pairs
                .iter()
                .map(|(qi, _)| codec.prepare(self.base.pool[*qi].as_array()))
                .collect();
            let mut dists = Vec::new();
            out.insert(
                "descriptor.kernels.adc_scan_ns_per_desc",
                per_desc_ns(median_secs(|| {
                    for (prep, row) in preps.iter().zip(&payloads) {
                        for p in row {
                            adc_l2_sq_batch(prep, &p.codes, &mut dists);
                            black_box(&dists);
                        }
                    }
                })),
            );
            return Ok(per_chunk);
        }

        out.insert(
            "descriptor.kernels.scan_ns_per_desc",
            per_desc_ns(median_secs(|| {
                for ((qi, _), row) in pairs.iter().zip(&payloads) {
                    let mut best = NeighborSet::new(self.base.params.k);
                    for p in row {
                        scan_block_into(
                            self.base.pool[*qi].as_array(),
                            &p.packed,
                            &p.ids,
                            &mut best,
                        );
                    }
                    black_box(&best);
                }
            })),
        );
        // The top-k fold alone: the same offers, distances precomputed.
        let mut offers: Vec<(Vec<u32>, Vec<f32>)> = Vec::with_capacity(pairs.len());
        for ((qi, _), row) in pairs.iter().zip(&payloads) {
            let (mut ids, mut all, mut dists) = (Vec::new(), Vec::new(), Vec::new());
            for p in row {
                l2_sq_batch(self.base.pool[*qi].as_array(), &p.packed, &mut dists);
                ids.extend_from_slice(&p.ids);
                all.extend_from_slice(&dists);
            }
            offers.push((ids, all));
        }
        out.insert(
            "descriptor.neighbors.offer_ns",
            per_desc_ns(median_secs(|| {
                for (ids, dists) in &offers {
                    let mut best = NeighborSet::new(self.base.params.k);
                    for (&id, &d) in ids.iter().zip(dists) {
                        best.offer(id, d);
                    }
                    black_box(&best);
                }
            })),
        );
        if self.kind == Kind::Hot {
            return Ok(per_chunk);
        }
        // Record decode alone: the raw record bytes of every replayed
        // chunk, read once, decoded repeatedly.
        let mut file = std::fs::File::open(self.store.chunk_path())?;
        let mut raw: Vec<(Vec<u8>, u32)> = Vec::with_capacity(n_chunks);
        for (_, chunks) in &pairs {
            for &id in chunks {
                let meta = &self.store.metas()[id];
                let mut bytes = vec![0u8; meta.byte_len as usize];
                file.seek(SeekFrom::Start(meta.offset))?;
                file.read_exact(&mut bytes)?;
                raw.push((bytes, meta.count));
            }
        }
        let mut payload = ChunkPayload::default();
        out.insert(
            "storage.chunkfile.decode_ns_per_desc",
            per_desc_ns(median_secs(|| {
                for (bytes, count) in &raw {
                    payload.clear();
                    // The bytes came from this store's own index entries.
                    let _ = black_box(decode_records(bytes, *count, &mut payload));
                }
            })),
        );
        // A bare synchronous file fetch (read + checksum + decode), no
        // prefetch thread: what one chunk costs the storage layer.
        let files = FileSource::new(&self.store);
        let mut failed = false;
        let secs = median_secs(|| {
            for (_, chunks) in &pairs {
                match files.open_stream(chunks.clone()) {
                    Ok(mut stream) => {
                        while let Some(chunk) = stream.next_chunk() {
                            failed |= black_box(chunk).is_err();
                        }
                    }
                    Err(_) => failed = true,
                }
            }
        });
        if failed {
            return Err("file fetch probe hit a read error".into());
        }
        out.insert(
            "storage.source.file_fetch_us_per_chunk",
            secs * 1e6 / n_chunks.max(1) as f64,
        );
        Ok(per_chunk)
    }
}

impl Workload for Solo {
    fn ops(&self) -> usize {
        self.ops
    }

    fn op(&mut self, i: usize) -> bool {
        black_box(self.one_call(i)).is_ok()
    }

    fn traced_op(&mut self, i: usize, rec: &mut Recorder) -> bool {
        rec.enter("op");
        let result = self.decomposed(i, rec);
        rec.exit();
        let reference = &self.reference[i % self.reference.len()];
        result.is_ok_and(|r| same_result(&r, reference))
    }

    fn verify(&mut self) -> Res<Facts> {
        let before = self.resident.as_ref().map(|r| r.stats());
        let mut facts = Facts::default();
        let mut results = Vec::with_capacity(self.base.pool.len());
        for i in 0..self.base.pool.len() {
            facts.attempted += 1;
            let ok = match self.one_call(i) {
                Ok(r) => {
                    let ok = same_result(&r, &self.reference[i])
                        && distances_check_out(&self.base.set, &self.base.pool[i], &r);
                    results.push(r);
                    ok
                }
                Err(_) => false,
            };
            facts.failed += u64::from(!ok);
        }
        let n = results.len().max(1) as f64;
        let sum = |f: &dyn Fn(&SearchResult) -> f64| results.iter().map(f).sum::<f64>() / n;
        facts.modelled_ms = results
            .iter()
            .map(|r| r.log.total_virtual.as_ms())
            .collect();
        facts.precision = self.base.precision(results.iter().enumerate());
        facts.disk_bytes_per_user_byte = disk_bytes_per_user_byte(&self.store)?;
        let c = &mut facts.counts;
        c.insert(
            "core.search.chunks_read_per_query",
            sum(&|r| r.log.chunks_read as f64),
        );
        c.insert(
            "core.search.descriptors_scanned_per_query",
            sum(&|r| r.log.descriptors_scanned as f64),
        );
        c.insert(
            "storage.store.bytes_read_per_op",
            sum(&|r| r.log.bytes_read as f64),
        );
        c.insert(
            "core.adc.rerank_bytes_per_query",
            sum(&|r| r.log.rerank_bytes as f64),
        );
        if let (Some(before), Some(r)) = (before, self.resident.as_ref()) {
            let after = r.stats();
            let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
            c.insert(
                "storage.source.resident_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            c.insert(
                "storage.source.resident_evictions_per_op",
                (after.evictions - before.evictions) as f64 / n,
            );
        }
        Ok(facts)
    }

    fn setup(&self) -> &Measured {
        &self.base.times
    }

    fn layers(&mut self, spans: &SpanStats, out: &mut Measured) -> Res<()> {
        let per_chunk = self.replay_probes(out)?;
        // The kernel runs inside `step_with`; what is left is the
        // session's own bookkeeping (clock, log, stop rule).
        let kernel_ns = match self.kind {
            Kind::Pq => out.get("descriptor.kernels.adc_scan_ns_per_desc"),
            _ => out.get("descriptor.kernels.scan_ns_per_desc"),
        }
        .copied()
        .unwrap_or(0.0);
        out.insert(
            "core.session.step_us_per_chunk",
            (spans.us_each("core.session.step_with") - kernel_ns * per_chunk / 1e3).max(0.0),
        );
        out.insert("core.session.rank_us", spans.us("core.session.rank"));
        out.insert(
            "core.session.open_us",
            spans.us("core.session.open") + spans.us("core.session.open_quantized"),
        );
        out.insert(
            "core.session.result_us",
            spans.us("core.session.into_result"),
        );
        out.insert("core.adc.rerank_tail_us", spans.us("core.adc.rerank_tail"));
        let stream_us =
            spans.us("storage.source.open_stream") + spans.us("storage.source.close_stream");
        let next_us = spans.us_each("storage.source.next_chunk");
        if self.kind == Kind::Hot {
            out.insert("storage.source.resident_open_us", stream_us);
            out.insert("storage.source.resident_hit_us", next_us);
        } else {
            out.insert("storage.source.prefetch_open_us", stream_us);
            out.insert("storage.source.prefetch_wait_us_per_chunk", next_us);
        }
        if self.kind == Kind::Cold {
            // Informational: does a second worker thread buy anything?
            let b = &self.base;
            let queries = &b.pool[..b.pool.len().min(512)];
            let mut failed = false;
            let mut batch = |threads| {
                median_secs(|| {
                    failed |= black_box(search_batch_threads(
                        &self.store,
                        &b.model,
                        queries,
                        &b.params,
                        threads,
                    ))
                    .is_err();
                })
            };
            let (t1, t2) = (batch(1), batch(2));
            if failed {
                return Err("batch probe hit a search error".into());
            }
            out.insert("parallel.batch_speedup_t2", t1 / t2.max(1e-12));
        }
        Ok(())
    }
}
