//! The resumable search engine: [`ChunkRanking`] + [`SearchSession`].
//!
//! The §4.3 search in separable parts:
//!
//! * [`ChunkRanking`] is step 1 of §4.3 in isolation — centroid ranking
//!   plus the suffix-minimum of chunk lower bounds — reusable across any
//!   number of stop rules. It is a sequence of waves, each scored and
//!   ordered by the first read that lands in it: a flat ranking's first
//!   32 ranks and the rest, or one wave per coarse cell of a two-level
//!   ranking. A query that stops early never pays for ordering ranks it
//!   does not read;
//! * [`SearchSession`] is the resumable scan: [`SearchSession::step`]
//!   advances exactly one chunk and returns its [`ChunkEvent`], so a
//!   caller can pause, inspect intermediate quality, and resume — the
//!   paper's *anytime* contribution surfaced as an API;
//! * stop rules are **predicates on session state**
//!   (`SearchSession::evaluate_rule`), not control flow baked into the
//!   loop. `search()` is ranking + drive-to-stop, and
//!   [`SearchSession::evaluate_rules`] answers every `Chunks(n)` /
//!   `VirtualTime(t)` / `ToCompletionEps` variant from ONE scan of the
//!   collection instead of re-searching per rule.
//!
//! Chunks arrive through a pluggable [`ChunkSource`] (file reads on the
//! calling thread, or a shared resident cache): `step` fetches the chunk at
//! the session's cursor rank, and `step_with` takes it fed from outside.
//! Either way a delivery is one [`SourcedChunk`], and the session charges
//! its [`PipelineClock`] from that value alone — the `bytes_read` every
//! source reports identically, plus the `injected_delay` fault and retry
//! layers added — so every reported figure is bit-identical regardless of
//! backend and of who drives (pinned by the `batch_determinism` and
//! `session_equivalence` tests, and under faults by `eff2-chaos`'s
//! determinism suite).

use crate::coarse::CoarseQuantizer;
use crate::search::{ChunkEvent, SearchLog, SearchParams, SearchResult, StopRule};
use eff2_descriptor::{
    adc_l2_sq_batch, as_rows, l2_sq, scan_block_into, DescriptorCodec, NeighborSet, PreparedQuery,
    Vector,
};
use eff2_storage::chunkfile::ChunkPayload;
use eff2_storage::diskmodel::{DiskModel, PipelineClock, VirtualDuration};
use eff2_storage::epoch::FoldedDelta;
use eff2_storage::source::{ChunkSource, FileSource, ReadState, SourcedChunk};
use eff2_storage::{ChunkMeta, ChunkStore, ErrorClass, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// What a session does when its source reports a chunk permanently
/// unreadable (an error whose [`ErrorClass`] is `Permanent`, e.g.
/// [`ChunkLost`](eff2_storage::Error::ChunkLost) from a retry layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SkipPolicy {
    /// Propagate the error; the search fails (the historical behaviour).
    #[default]
    Abort,
    /// Record the chunk in the log's [`Degradation`] report and continue
    /// with the next ranked chunk. Transient-class errors still propagate
    /// — only a *permanent* loss is skippable.
    ///
    /// [`Degradation`]: crate::search::Degradation
    SkipUnavailable,
}

/// Ranks a flat ranking puts in order up front. A query reads ranks from
/// the front and most stop within a few (the engine also looks at most
/// eight past its cursor), so ordering every chunk would mostly order
/// ranks no one reads; the rest are ordered on first demand.
const HEAD: usize = 32;

/// The scan order: ascending centroid distance, ties by chunk id. Ids are
/// unique within a ranking, so this is a total order: a selection followed
/// by an unstable sort yields exactly the order of a stable full sort.
fn by_rank(a: &(f32, u32), b: &(f32, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Chunk `id`'s lower bound `max(dist − radius, 0)` on every descriptor it
/// holds, `dist` being the query's distance to its centroid.
fn lower_bound(metas: &[ChunkMeta], dist: f32, id: u32) -> f32 {
    let radius = metas.get(id as usize).map_or(0.0, |m| m.radius);
    (dist - radius).max(0.0)
}

/// A wave in scan order: `ranked` sorted by [`by_rank`], and `suffix[i]`
/// the best lower bound among `ranked[i..]` and the floor it was built
/// with. Every bound is a non-negative, non-NaN `max(…, +0.0)`, on which
/// `f32::min` is exact and order-independent — so a minimum taken over an
/// unordered set, or over several waves, equals the one taken along the
/// whole sorted order, bit for bit.
#[derive(Clone, Debug)]
struct Ordered {
    ranked: Vec<(f32, u32)>,
    suffix: Vec<f32>,
}

impl Ordered {
    fn new(mut ranked: Vec<(f32, u32)>, metas: &[ChunkMeta], floor: f32) -> Ordered {
        ranked.sort_unstable_by(by_rank);
        let mut suffix = vec![floor; ranked.len()];
        let mut best = floor;
        for (slot, &(dist, id)) in suffix.iter_mut().zip(&ranked).rev() {
            best = best.min(lower_bound(metas, dist, id));
            *slot = best;
        }
        Ordered { ranked, suffix }
    }
}

/// What a wave holds before it is ordered.
#[derive(Clone, Debug)]
enum Members {
    /// `(centroid distance, chunk id)`, scored when the ranking was built.
    Scored(Vec<(f32, u32)>),
    /// One coarse cell's chunk ids, scored by the wave's first read.
    Cell(Vec<u32>),
}

/// A run of consecutive ranks that is scored (if it is not yet) and
/// ordered as one, by the first read that lands in it.
#[derive(Clone, Debug)]
struct Wave {
    /// The wave's first rank.
    start: usize,
    members: Members,
    /// Lower bound on every member's descriptors while the wave is
    /// unordered: its coarse cell's bound, or for scored members the best
    /// of their bounds.
    floor: f32,
    ordered: OnceLock<Ordered>,
}

impl Wave {
    /// Best bound among the wave's members: the cell bound until a coarse
    /// cell is scored, the members' own best bound after.
    fn floor(&self) -> f32 {
        self.ordered
            .get()
            .and_then(|o| o.suffix.first().copied())
            .unwrap_or(self.floor)
    }
}

/// Step 1 of the search (§4.3): the distance from the query to every
/// chunk's centroid, the chunks in ascending order of it, and the
/// suffix-minimum of the chunk lower bounds `max(d(q, centroid) − radius, 0)`
/// along that order.
///
/// The suffix minimum is what makes completion *exact*: ranking is by
/// centroid distance while the bound subtracts the radius, so the bound is
/// not monotone along the ranked order — the test must consider the best
/// bound among **all** remaining chunks, not just the next one.
///
/// A ranking is a sequence of **waves**, and a wave is scored and ordered
/// by the first read that lands in it (`chunk_at`, `remaining_bound` inside
/// it, `order`), never before. A **flat** ranking ([`rank`](Self::rank))
/// scores every chunk up front and has two waves: the first `HEAD` = 32
/// ranks, which `rank` orders too, and the rest. A **two-level** ranking
/// (`rank_two_level`) ranks coarse cells up front and has one wave per
/// non-empty cell, nearest cell first. Either way every rank below
/// [`len`](Self::len) is addressable and the ranks are those of a full sort
/// wave by wave: laziness only decides *when* a wave is ordered. An
/// unordered wave answers bounds from its floor, so `remaining_bound`
/// stays a true lower bound on every unscanned descriptor and the
/// to-completion stop rule stays exact.
#[derive(Clone, Debug)]
pub struct ChunkRanking {
    /// The wave ordered up front: ranks `0..head.ranked.len()`, a flat
    /// ranking's first `HEAD` (empty for a two-level ranking). It is held
    /// here rather than in `waves` because most reads land in it — the
    /// serving engine names the ranks up to 8 past every open session's
    /// cursor on each want pass, and checks each session's stop rule —
    /// and a read here is one bounds check. Its suffix is floored by the
    /// later waves' floors, which never change: a ranking with a head
    /// scores its other waves up front.
    head: Ordered,
    /// The waves after the head in scan order; wave `w` covers ranks from
    /// its `start` to the next wave's.
    waves: Vec<Wave>,
    /// The query, for scoring a coarse cell's members.
    pub(crate) query: Vector,
    /// The ranked store, held by handle (an `Arc` clone): scoring, the
    /// suffix bounds and the degradation report read each chunk's
    /// centroid, radius and count from its metas, never from a copy.
    store: ChunkStore,
    /// Centroid distance evaluations spent up front: one per chunk (flat)
    /// or one per coarse cell (two-level).
    evals: u64,
    /// Total chunks this ranking covers.
    len: usize,
    /// Modelled cost of reading and ranking the chunk index.
    index_read_time: VirtualDuration,
}

impl ChunkRanking {
    /// Ranks every chunk of `store` for `query` and charges the index read
    /// under `model`. Pure computation over the in-memory index — no I/O.
    /// Every centroid distance is computed here; only the first `HEAD`
    /// ranks are put in order, the rest when a reader first asks for one.
    pub fn rank(store: &ChunkStore, model: &DiskModel, query: &Vector) -> ChunkRanking {
        let metas = store.metas();
        let mut ranked: Vec<(f32, u32)> = metas
            .iter()
            .enumerate()
            .map(|(i, m)| (m.centroid.dist(query), i as u32))
            .collect();
        let rest = if ranked.len() > HEAD {
            ranked.select_nth_unstable_by(HEAD, by_rank);
            ranked.split_off(HEAD)
        } else {
            Vec::new()
        };
        let floor = rest.iter().fold(f32::INFINITY, |m, &(dist, id)| {
            m.min(lower_bound(metas, dist, id))
        });
        let waves = if rest.is_empty() {
            Vec::new()
        } else {
            vec![Wave {
                start: HEAD,
                floor,
                members: Members::Scored(rest),
                ordered: OnceLock::new(),
            }]
        };
        ChunkRanking {
            head: Ordered::new(ranked, metas, floor),
            waves,
            query: *query,
            store: store.clone(),
            evals: metas.len() as u64,
            len: metas.len(),
            index_read_time: model.index_read_time(metas.len(), store.index_bytes()),
        }
    }

    /// Ranks `store`'s chunks **two-level**: the coarse cells of `coarse`
    /// are ranked by center distance now, and each cell's member chunks
    /// are scored and ordered only when a read first lands in its wave.
    /// Costs `n_cells` centroid evaluations up front instead of
    /// `n_chunks`; [`centroid_evals`](Self::centroid_evals) tracks the
    /// running total as waves are scored.
    pub(crate) fn rank_two_level(
        store: &ChunkStore,
        model: &DiskModel,
        query: &Vector,
        coarse: &CoarseQuantizer,
    ) -> ChunkRanking {
        let mut cells: Vec<(f32, usize, f32, &[u32])> = coarse
            .cells()
            .filter(|(_, _, _, members)| !members.is_empty())
            .map(|(cell, center, radius, members)| {
                let dist = center.dist(query);
                (dist, cell, (dist - radius).max(0.0), members)
            })
            .collect();
        cells.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut len = 0;
        let waves = cells
            .into_iter()
            .map(|(_, _, bound, members)| {
                let start = len;
                len += members.len();
                Wave {
                    start,
                    members: Members::Cell(members.to_vec()),
                    floor: bound,
                    ordered: OnceLock::new(),
                }
            })
            .collect();
        ChunkRanking {
            head: Ordered::new(Vec::new(), store.metas(), f32::INFINITY),
            waves,
            query: *query,
            store: store.clone(),
            evals: coarse.n_cells() as u64,
            len,
            index_read_time: model.index_read_time(store.n_chunks(), store.index_bytes()),
        }
    }

    /// The index of the wave holding `rank`, a rank past the head.
    fn wave_of(&self, rank: usize) -> usize {
        self.waves
            .partition_point(|w| w.start <= rank)
            .saturating_sub(1)
    }

    /// `wave` in scan order: scored (a coarse cell's members) and sorted by
    /// the first call, and that same order after.
    fn ordered<'a>(&self, wave: &'a Wave) -> &'a Ordered {
        wave.ordered.get_or_init(|| {
            let metas = self.store.metas();
            let ranked = match &wave.members {
                Members::Scored(ranked) => ranked.clone(),
                Members::Cell(ids) => ids
                    .iter()
                    .map(|&id| {
                        let dist = metas
                            .get(id as usize)
                            .map_or(f32::INFINITY, |m| m.centroid.dist(&self.query));
                        (dist, id)
                    })
                    .collect(),
            };
            Ordered::new(ranked, metas, f32::INFINITY)
        })
    }

    /// Every rank's `(centroid distance, chunk id)` in scan order (ordering
    /// each wave that is not yet).
    fn entries(&self) -> impl Iterator<Item = &(f32, u32)> {
        (self.head.ranked.iter()).chain(self.waves.iter().flat_map(|w| &self.ordered(w).ranked))
    }

    /// Total chunks this ranking covers. A session is exhausted only when
    /// its cursor reaches this.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store has no chunks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Centroid distance evaluations spent so far: `n_chunks` for a flat
    /// ranking; `n_cells` plus the members of every scored wave for a
    /// two-level ranking — the quantity two-level ranking exists to
    /// shrink.
    pub(crate) fn centroid_evals(&self) -> u64 {
        self.waves.iter().fold(self.evals, |n, w| match &w.members {
            Members::Cell(ids) if w.ordered.get().is_some() => n + ids.len() as u64,
            _ => n,
        })
    }

    /// Chunk ids in ranked (scan) order (ordering every wave).
    #[cfg(test)]
    pub(crate) fn order(&self) -> Vec<usize> {
        self.order_from(0)
    }

    /// The tail of the scan order from rank `from` on.
    pub fn order_from(&self, from: usize) -> Vec<usize> {
        self.entries()
            .skip(from)
            .map(|&(_, i)| i as usize)
            .collect()
    }

    /// The chunk id at `rank`, ordering its wave first if it is not yet.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()`; ranks come from iterating the
    /// ranking itself, so an out-of-range rank is a caller bug.
    #[expect(
        clippy::indexing_slicing,
        reason = "rank < len is a documented precondition"
    )]
    pub fn chunk_at(&self, rank: usize) -> usize {
        let id = match self.head.ranked.get(rank) {
            Some(&(_, id)) => id,
            None => {
                let wave = &self.waves[self.wave_of(rank)];
                self.ordered(wave).ranked[rank - wave.start].1
            }
        };
        id as usize
    }

    /// Descriptors held by chunk `chunk_id` (0 for out-of-range ids).
    pub(crate) fn count_of(&self, chunk_id: usize) -> u32 {
        self.store.metas().get(chunk_id).map_or(0, |m| m.count)
    }

    /// Best lower bound on any descriptor in the chunks still unread after
    /// `processed` chunks (`+∞` once every chunk has been read): the
    /// suffix of the wave holding rank `processed`, floored by every later
    /// wave's floor (the head's suffix is floored already). At a wave's
    /// first rank the wave's own floor stands in for its suffix, so the
    /// wave is not ordered; inside it, it is.
    #[expect(
        clippy::indexing_slicing,
        reason = "processed < len, so past the head it lies in wave wave_of(processed)"
    )]
    pub(crate) fn remaining_bound(&self, processed: usize) -> f32 {
        if processed >= self.len {
            return f32::INFINITY;
        }
        if let Some(&bound) = self.head.suffix.get(processed) {
            return bound;
        }
        let w = self.wave_of(processed);
        let wave = &self.waves[w];
        let here = match processed - wave.start {
            0 => wave.floor(),
            offset => self.ordered(wave).suffix[offset],
        };
        self.waves[w + 1..]
            .iter()
            .fold(here, |m, later| m.min(later.floor()))
    }

    /// Modelled cost of reading and ranking the chunk index.
    pub(crate) fn index_read_time(&self) -> VirtualDuration {
        self.index_read_time
    }

    /// Test support for the reference merge model (`crate::merge`'s tests
    /// are its only caller). Splits a **flat** ranking into one per-shard
    /// leg ranking: leg `s` holds exactly the ranked entries whose chunk
    /// `owner_of` maps to `s`, in the same relative order as the global
    /// ranking. Chunks whose owner is out of range appear in no leg.
    ///
    /// Legs carry no index-read charge and no centroid evaluations: those
    /// are global, paid once by the gather side. Each leg's suffix bounds
    /// are rebuilt over its own entries, which keeps them valid (a subset's
    /// suffix minimum only over-approximates the global one, and legs are
    /// never asked to prove completion — the gather merge is).
    #[cfg(test)]
    pub(crate) fn split_by_owner(&self, owner_of: &[u32], n_shards: usize) -> Vec<ChunkRanking> {
        let mut legs: Vec<Vec<(f32, u32)>> = vec![Vec::new(); n_shards];
        for &(dist, chunk) in self.entries() {
            let owner = owner_of.get(chunk as usize).copied().unwrap_or(u32::MAX);
            if let Some(leg) = legs.get_mut(owner as usize) {
                leg.push((dist, chunk));
            }
        }
        legs.into_iter()
            .map(|ranked| ChunkRanking {
                len: ranked.len(),
                head: Ordered::new(ranked, self.store.metas(), f32::INFINITY),
                waves: Vec::new(),
                query: self.query,
                store: self.store.clone(),
                evals: 0,
                index_read_time: VirtualDuration::ZERO,
            })
            .collect()
    }
}

/// The stop-rule predicate: `Some(proves)` when `rule` is satisfied by the
/// given state (`proves` = the stop certifies exactness), `None` to keep
/// scanning.
fn rule_fires(
    rule: StopRule,
    cursor: usize,
    last_completed: Option<VirtualDuration>,
    neighbors_full: bool,
    kth_dist: f32,
    remaining_bound: f32,
) -> Option<bool> {
    match rule {
        StopRule::Chunks(n) => (cursor >= n).then_some(false),
        StopRule::VirtualTime(t) => last_completed.and_then(|c| (c >= t).then_some(false)),
        StopRule::ToCompletion => (neighbors_full && remaining_bound > kth_dist).then_some(true),
        StopRule::ToCompletionEps(eps) => {
            (neighbors_full && remaining_bound * (1.0 + eps) > kth_dist).then_some(eps <= 0.0)
        }
    }
}

/// Debug-build bookkeeping for the session invariants (§4.3's correctness
/// argument, mechanised): no chunk is ever scanned twice, the kth-best
/// distance never increases, modelled completion times never decrease, and
/// a fired stop rule stays fired. Compiled out of release builds entirely —
/// the struct and every check vanish under `cfg(debug_assertions)`.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct StepInvariants {
    /// One flag per chunk id: set when the chunk is scanned.
    seen: Vec<bool>,
    /// kth-best distance after the previous step (∞ before any step).
    last_kth: f32,
    /// Virtual completion time of the previous step.
    last_completed_at: Option<VirtualDuration>,
}

#[cfg(debug_assertions)]
impl StepInvariants {
    fn new(n_chunks: usize) -> StepInvariants {
        StepInvariants {
            seen: vec![false; n_chunks],
            last_kth: f32::INFINITY,
            last_completed_at: None,
        }
    }

    fn mark_seen(&mut self, chunk_id: usize) {
        match self.seen.get_mut(chunk_id) {
            Some(flag) => {
                debug_assert!(!*flag, "chunk {chunk_id} scanned twice in one session");
                *flag = true;
            }
            None => debug_assert!(false, "chunk id {chunk_id} out of ranked range"),
        }
    }

    fn on_step(&mut self, chunk_id: usize, kth: f32, completed_at: VirtualDuration) {
        self.mark_seen(chunk_id);
        debug_assert!(
            kth <= self.last_kth,
            "kth-best distance increased across a step ({} -> {kth})",
            self.last_kth
        );
        self.last_kth = kth;
        if let Some(prev) = self.last_completed_at {
            debug_assert!(
                completed_at >= prev,
                "virtual completion time went backwards"
            );
        }
        self.last_completed_at = Some(completed_at);
    }
}

/// A resumable query execution: step 2 of §4.3, one chunk at a time. It
/// is the one per-query scan state: how far down the ranked order the
/// query is, what that has cost on its private clock, what it has found
/// and logged, and whether a stop rule is met.
///
/// A session owns everything it needs — ranking, neighbour set, virtual
/// clock, log, and a handle to its [`ChunkSource`] — so it can be driven
/// incrementally ([`step`](Self::step)), to its own stop rule
/// ([`run_to_stop`](Self::run_to_stop)), or past rule after rule
/// ([`evaluate_rules`](Self::evaluate_rules)). Each `step` fetches the
/// chunk at the cursor rank, and the chunk file is opened at the first
/// one, so a store whose files vanish between session construction and
/// stepping surfaces a clean `Err`. The fleet's
/// [`ScatterGather`](crate::merge::ScatterGather) holds a detached session
/// that is *told* each chunk's candidates instead of computing them; every
/// session advances only through `chunk_consumed` and
/// [`skip_unavailable`](Self::skip_unavailable), so every figure comes out
/// of the same code.
pub struct SearchSession {
    /// `None` for a *detached* session — one driven by an external
    /// scheduler through [`step_with`](Self::step_with) instead of pulling
    /// chunks itself.
    source: Option<Arc<dyn ChunkSource>>,
    /// What this session keeps between fetches from `source`.
    read: ReadState,
    ranking: ChunkRanking,
    model: DiskModel,
    params: SearchParams,
    /// The private clock; it starts at the index-read time.
    clock: PipelineClock,
    pub(crate) neighbors: NeighborSet,
    log: SearchLog,
    wall_start: std::time::Instant,
    /// `Some` for a quantized (ADC) session — see
    /// [`open_quantized`](Self::open_quantized).
    adc: Option<AdcScan>,
    /// `Some` for a session pinned to a mutated epoch — see
    /// [`apply_delta`](Self::apply_delta). Base rows whose ids are
    /// tombstoned here are filtered out of every scan.
    delta: Option<Arc<FoldedDelta>>,
    exhausted: bool,
    skip: SkipPolicy,
    #[cfg(debug_assertions)]
    invariants: StepInvariants,
}

/// State of an asymmetric-distance (quantized) scan: the prepared query,
/// the raw store handle the rerank tail reads exact vectors from, and the
/// chunk each retained candidate was scanned in.
struct AdcScan {
    /// The query pre-transformed for the store's codec (affine params for
    /// SQ8, a per-subspace lookup table for PQ).
    prep: PreparedQuery,
    /// Raw (f32) view of the store, for the exact rerank tail.
    raw: ChunkStore,
    /// Chunk id each currently-or-once retained candidate came from. Only
    /// accepted offers are recorded, so this stays small (acceptance decays
    /// as the kth distance tightens).
    id_chunk: BTreeMap<u32, u32>,
    /// Scratch distance buffer for the blocked ADC kernel.
    dists: Vec<f32>,
}

impl SearchSession {
    /// A session over the default source — a [`FileSource`]: the session's
    /// own thread reads each chunk when it steps to it. The modelled
    /// I/O–CPU overlap is the [`PipelineClock`]'s and does not depend on
    /// the source.
    pub fn open(
        store: &ChunkStore,
        model: &DiskModel,
        query: &Vector,
        params: &SearchParams,
    ) -> SearchSession {
        let source = Arc::new(FileSource::new(store));
        SearchSession::with_source(store, model, query, params, source)
    }

    /// A session that scans **quantized** chunk payloads with the
    /// asymmetric-distance kernels instead of raw `f32` records.
    ///
    /// `store` must be a quantized store. The session reads the
    /// compact code region (modelled bytes shrink accordingly), retains
    /// the best `rerank_mult · k` ADC candidates, and — after the scan —
    /// [`rerank_tail`](Self::rerank_tail) re-scores them against the raw
    /// `f32` records so the final top-`k` uses exact distances. With
    /// `coarse` the ranking is two-level (`ChunkRanking::rank_two_level`),
    /// stacking both reductions — fewer centroid evaluations *and* fewer
    /// bytes per chunk.
    ///
    /// `rerank_mult` is the rerank depth `R`: `R = 1` reranks only the ADC
    /// top-`k`; larger `R` recovers precision monotonically (the candidate
    /// pools are nested in `R`).
    ///
    /// Completion proofs from this session are with respect to the ADC
    /// distances (the scanned representation); treat `completed` as "the
    /// scan provably saw every chunk that could matter", not as exactness
    /// of the approximate distances themselves.
    pub fn open_quantized(
        store: &ChunkStore,
        model: &DiskModel,
        query: &Vector,
        params: &SearchParams,
        rerank_mult: usize,
        coarse: Option<&CoarseQuantizer>,
    ) -> Result<SearchSession> {
        let quant = store.quantized_view()?;
        let codec = quant.codec().cloned().ok_or_else(|| {
            eff2_storage::Error::Inconsistent("quantized view carries no codec".to_string())
        })?;
        let ranking = match coarse {
            Some(c) => ChunkRanking::rank_two_level(&quant, model, query, c),
            None => ChunkRanking::rank(&quant, model, query),
        };
        let source = Arc::new(FileSource::new(&quant));
        let mut session = SearchSession::from_parts(ranking, model, params, Some(source));
        session.neighbors = NeighborSet::new(params.k.saturating_mul(rerank_mult.max(1)));
        session.adc = Some(AdcScan {
            prep: codec.prepare(query.as_array()),
            raw: store.raw_view(),
            id_chunk: BTreeMap::new(),
            dists: Vec::new(),
        });
        Ok(session)
    }

    /// A session drawing chunks from an explicit source (shared resident
    /// cache, plain file reader, …). Ranking happens here; no chunk I/O
    /// until the first [`step`](Self::step).
    pub fn with_source(
        store: &ChunkStore,
        model: &DiskModel,
        query: &Vector,
        params: &SearchParams,
        source: Arc<dyn ChunkSource>,
    ) -> SearchSession {
        let ranking = ChunkRanking::rank(store, model, query);
        SearchSession::from_parts(ranking, model, params, Some(source))
    }

    /// A *detached* session: no chunk source of its own. An external
    /// driver asks [`next_wanted`](Self::next_wanted) which chunk to
    /// deliver and feeds it through [`step_with`](Self::step_with) — the
    /// serving scheduler's mode, where one fetched chunk may feed many
    /// sessions. Calling [`step`](Self::step) on a detached session is an
    /// error.
    pub fn detached(
        store: &ChunkStore,
        model: &DiskModel,
        query: &Vector,
        params: &SearchParams,
    ) -> SearchSession {
        let ranking = ChunkRanking::rank(store, model, query);
        SearchSession::from_parts(ranking, model, params, None)
    }

    /// [`detached`](Self::detached) over a pre-computed ranking. The
    /// session scans for the query the ranking was made for; `query` must
    /// be bitwise that query (checked in debug builds), so distances and
    /// the completion bound always refer to one query.
    pub fn detached_from_ranking(
        ranking: ChunkRanking,
        model: &DiskModel,
        query: &Vector,
        params: &SearchParams,
    ) -> SearchSession {
        debug_assert!(
            (query.as_array().iter().zip(ranking.query.as_array()))
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "detached_from_ranking: the query is not the one the ranking was made for"
        );
        SearchSession::from_parts(ranking, model, params, None)
    }

    /// The one constructor: a session at rank 0 for the ranking's query,
    /// whose private clock starts at the ranking's index-read time.
    pub(crate) fn from_parts(
        ranking: ChunkRanking,
        model: &DiskModel,
        params: &SearchParams,
        source: Option<Arc<dyn ChunkSource>>,
    ) -> SearchSession {
        SearchSession {
            source,
            read: ReadState::default(),
            model: *model,
            params: *params,
            clock: PipelineClock::start_at(ranking.index_read_time()),
            neighbors: NeighborSet::new(params.k),
            log: SearchLog {
                index_read_time: ranking.index_read_time(),
                ..SearchLog::default()
            },
            #[expect(
                clippy::disallowed_methods,
                reason = "log.wall is informational; it never feeds the virtual clock or modelled figures"
            )]
            wall_start: std::time::Instant::now(),
            adc: None,
            delta: None,
            exhausted: false,
            skip: SkipPolicy::Abort,
            // The seen-set is indexed by chunk *id*, which for a per-shard
            // leg ranking (split_by_owner) spans the whole store even
            // though the leg ranks only a subset — size it by the id space,
            // not the rank count.
            #[cfg(debug_assertions)]
            invariants: StepInvariants::new(ranking.store.n_chunks()),
            ranking,
        }
    }

    /// Pins this session to a mutated epoch by applying the epoch's folded
    /// delta, **before the first step**:
    ///
    /// * the live delta rows are scanned right now, as one delta-chunk
    ///   read: distances offered into the neighbour set in delta order, the
    ///   read charged to the private clock like any chunk (I/O of the
    ///   record-layout bytes overlapped with the scan CPU);
    /// * every later chunk scan filters out base rows whose ids the delta
    ///   tombstones (deleted or superseded descriptors).
    ///
    /// An empty delta is a strict no-op: the session stays on the fused
    /// unfiltered kernel and remains bit-identical to a pre-epoch session
    /// — that is the read-compat contract for pre-epoch stores opened through
    /// the epoch layer. Quantized (ADC) sessions also honour tombstones;
    /// their rerank tail re-reads raw rows of *accepted* candidates only,
    /// which by construction are never tombstoned.
    ///
    /// Completion stays exact over the epoch's live set: the remaining
    /// bound is a lower bound over a superset of the live base rows, and
    /// the delta rows are all consumed up front.
    pub(crate) fn apply_delta(&mut self, delta: &Arc<FoldedDelta>) {
        debug_assert_eq!(self.cursor(), 0, "apply_delta must run before the scan");
        if !delta.inserts.is_empty() {
            for (id, vector) in &delta.inserts {
                self.neighbors
                    .offer(*id, l2_sq(self.ranking.query.as_array(), vector.as_array()));
            }
            let io = self.model.io_time(delta.scan_bytes());
            let cpu = self.model.scan_time(delta.inserts.len());
            let _ = self.clock.chunk_overlapped(io, cpu);
            self.log.bytes_read += delta.scan_bytes();
            self.log.descriptors_scanned += delta.inserts.len() as u64;
        }
        if !delta.tombstones.is_empty() {
            self.delta = Some(Arc::clone(delta));
        }
    }

    /// Sets how the session reacts to permanently unreadable chunks (the
    /// default is [`SkipPolicy::Abort`], the historical fail-fast).
    pub fn set_skip_policy(&mut self, policy: SkipPolicy) {
        self.skip = policy;
    }

    /// The ranking this session scans in.
    pub fn ranking(&self) -> &ChunkRanking {
        &self.ranking
    }

    /// Chunks processed so far.
    pub fn chunks_read(&self) -> usize {
        self.log.chunks_read
    }

    /// Ranks consumed so far: chunks scanned plus chunks lost to faults —
    /// the rank the next fed chunk must hold. With zero faults this is
    /// exactly [`chunks_read`](Self::chunks_read).
    pub fn cursor(&self) -> usize {
        self.log.chunks_read + self.log.degradation.chunks_lost
    }

    /// The current neighbour set as raw `(id, dist_sq)` entries (see
    /// [`NeighborSet::entries`]) — what a scatter–gather merge re-offers
    /// into the global set to stay bit-identical to a solo scan.
    pub fn neighbor_entries(&self) -> Vec<(u32, f32)> {
        self.neighbors.entries()
    }

    /// A cheap upper estimate of the chunks this session still has to
    /// consume before its stop rule can fire: the explicit budget remainder
    /// for `Chunks(n)`, the whole unread tail otherwise. Schedulers use it
    /// to break deadline ties toward the query that can finish soonest
    /// (shortest-remaining-work) instead of falling back to admission
    /// order.
    pub fn remaining_work_estimate(&self) -> usize {
        let cursor = self.cursor();
        match self.params.stop {
            StopRule::Chunks(n) => n.min(self.ranking.len()).saturating_sub(cursor),
            _ => self.ranking.len().saturating_sub(cursor),
        }
    }

    /// Whether the scan is over: every ranked chunk processed (scanned or
    /// skipped), or a delivery error ended it.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.exhausted || self.cursor() == self.ranking.len()
    }

    /// The chunk id this session wants next (the next unread chunk in its
    /// ranked order), or `None` once the ranking is exhausted.
    ///
    /// Like [`step`](Self::step) this is mechanical — it does not consult
    /// the stop rule. An external driver deciding whether to keep feeding
    /// the session should check [`stop_satisfied`](Self::stop_satisfied)
    /// first; `next_wanted` only says *which* chunk a continued scan
    /// consumes.
    pub fn next_wanted(&self) -> Option<usize> {
        (!self.is_exhausted()).then(|| self.ranking.chunk_at(self.cursor()))
    }

    /// The in-order discipline: `chunk_id` must be the chunk at the cursor
    /// rank (payloads and outcomes arrive in ranked order no matter who
    /// produced them).
    pub(crate) fn check_next(&self, chunk_id: usize) -> Result<()> {
        match self.next_wanted() {
            Some(wanted) if wanted == chunk_id => Ok(()),
            Some(wanted) => Err(eff2_storage::Error::Inconsistent(format!(
                "rank {} wants chunk {wanted}, was given chunk {chunk_id}",
                self.cursor()
            ))),
            None => Err(eff2_storage::Error::Inconsistent(
                "every ranked chunk is already consumed".to_string(),
            )),
        }
    }

    /// Consumes the next ranked chunk *without scanning it*: the chunk is
    /// recorded in the log's degradation report and the scan continues
    /// with the following chunk. `charge` is the modelled time the failed
    /// delivery cost (retry timeouts, backoff), charged to the pipeline
    /// clock as I/O with no overlapping CPU. Returns the skipped chunk id.
    ///
    /// This is the primitive behind [`SkipPolicy::SkipUnavailable`]; an
    /// external driver (the serving scheduler, the scatter–gather merge)
    /// calls it directly when it abandons a fetch.
    pub fn skip_unavailable(&mut self, charge: VirtualDuration) -> Result<usize> {
        let Some(id) = self.next_wanted() else {
            return Err(eff2_storage::Error::Inconsistent(
                "no ranked chunk left to skip".to_string(),
            ));
        };
        #[cfg(debug_assertions)]
        self.invariants.mark_seen(id);
        let _ = self.clock.chunk_overlapped(charge, VirtualDuration::ZERO);
        self.log.degradation.chunks_lost += 1;
        self.log.degradation.descriptors_lost += u64::from(self.ranking.count_of(id));
        self.log.degradation.lost_chunks.push(id);
        Ok(id)
    }

    /// Advances the scan by exactly one chunk and returns its event, or
    /// `None` once every ranked chunk has been processed.
    ///
    /// Stepping is mechanical: it does **not** consult the stop rule, so
    /// callers can read past a satisfied rule (that is what
    /// [`evaluate_rules`](Self::evaluate_rules) does). Use
    /// [`stop_satisfied`](Self::stop_satisfied) to drive a rule-respecting
    /// loop, or [`run_to_stop`](Self::run_to_stop) to do both at once.
    ///
    /// A delivery error the [`SkipPolicy`] does not skip is returned once
    /// and ends the scan: later calls return `Ok(None)` without reading.
    /// The failed chunk stays unscanned at the cursor, so the result is
    /// exact only if the completion proof already covered it.
    pub fn step(&mut self) -> Result<Option<&ChunkEvent>> {
        loop {
            if self.is_exhausted() {
                self.exhausted = true;
                return Ok(None);
            }
            let Some(source) = self.source.as_ref() else {
                return Err(eff2_storage::Error::Inconsistent(
                    "detached session has no chunk source: drive it with step_with".to_string(),
                ));
            };
            let id = self.ranking.chunk_at(self.cursor());
            match source.fetch(id, &mut self.read) {
                Ok(chunk) => {
                    self.ingest(&chunk);
                    return Ok(self.log.events.last());
                }
                Err(e)
                    if self.skip == SkipPolicy::SkipUnavailable
                        && e.class() == ErrorClass::Permanent =>
                {
                    // The failed delivery's modelled cost travels on the
                    // error when a retry layer produced it.
                    let spent = match &e {
                        eff2_storage::Error::ChunkLost { spent, .. } => *spent,
                        _ => VirtualDuration::ZERO,
                    };
                    self.skip_unavailable(spent)?;
                    // A lost chunk yields no event but does consume the
                    // ranked order (and any chunk budget): re-check the
                    // stop rule before scanning the next chunk.
                    if self.stop_satisfied() {
                        return Ok(None);
                    }
                }
                Err(e) => {
                    self.exhausted = true;
                    return Err(e);
                }
            }
        }
    }

    /// Advances the scan by feeding `chunk` in from outside — the
    /// scheduler-driven twin of [`step`](Self::step). The chunk must be
    /// exactly the one [`next_wanted`](Self::next_wanted) names (payloads
    /// arrive in ranked order no matter who fetches them), otherwise the
    /// session refuses with [`Error::Inconsistent`].
    ///
    /// All accounting — fused-kernel scan, per-query pipeline clock (the
    /// chunk's injected delay included), log, invariants — is identical to
    /// [`step`](Self::step), so a fed session produces bit-identical
    /// results to one pulling from its own source, under faults too,
    /// regardless of how many other sessions shared the fetch.
    ///
    /// [`Error::Inconsistent`]: eff2_storage::Error::Inconsistent
    pub fn step_with(&mut self, chunk: &SourcedChunk) -> Result<Option<&ChunkEvent>> {
        if self.is_exhausted() {
            self.exhausted = true;
            return Ok(None);
        }
        self.check_next(chunk.id)?;
        self.ingest(chunk);
        Ok(self.log.events.last())
    }

    /// The shared advance: scan `chunk` into the neighbour set, then book
    /// it consumed, its [`injected_delay`](SourcedChunk::injected_delay)
    /// included.
    fn ingest(&mut self, chunk: &SourcedChunk) {
        #[cfg(debug_assertions)]
        let stop_was_fired = self.stop_satisfied();
        if let Some(adc) = self.adc.as_mut() {
            // Quantized scan: blocked ADC distances over the chunk's code
            // region. Offers go through the explicit loop (not the fused
            // kernel) so accepted candidates can be mapped back to their
            // chunk for the exact rerank tail; the retained set is
            // bit-identical to the fused kernel's (same distances, same
            // total order).
            adc_l2_sq_batch(&adc.prep, &chunk.payload.codes, &mut adc.dists);
            debug_assert_eq!(adc.dists.len(), chunk.payload.ids.len());
            let delta = self.delta.as_deref();
            for (&id, &d) in chunk.payload.ids.iter().zip(adc.dists.iter()) {
                if delta.is_some_and(|d| d.tombstones.contains(&id)) {
                    continue;
                }
                if self.neighbors.offer(id, d) {
                    adc.id_chunk.insert(id, chunk.id as u32);
                }
            }
        } else if let Some(delta) = self.delta.as_deref() {
            // Epoch-pinned scan: same distances as the fused kernel, but
            // rows the delta tombstones (deleted or superseded in this
            // epoch) never reach the neighbour set. The explicit loop is
            // bit-identical to the fused kernel on the surviving rows —
            // the same precedent as the ADC offer loop above.
            for (row, &id) in as_rows(&chunk.payload.packed)
                .iter()
                .zip(chunk.payload.ids.iter())
            {
                if delta.tombstones.contains(&id) {
                    continue;
                }
                self.neighbors
                    .offer(id, l2_sq(self.ranking.query.as_array(), row));
            }
        } else {
            // Scan the chunk against the query (fused block kernel:
            // blocked distances offered straight into the set).
            scan_block_into(
                self.ranking.query.as_array(),
                &chunk.payload.packed,
                &chunk.payload.ids,
                &mut self.neighbors,
            );
        }

        self.chunk_consumed(
            chunk.id,
            chunk.payload.len() as u32,
            chunk.bytes_read,
            chunk.injected_delay,
        );
        #[cfg(debug_assertions)]
        debug_assert!(
            !stop_was_fired || self.stop_satisfied(),
            "stop rules must be monotone: a fired rule stays fired"
        );
    }

    /// Books the chunk at the cursor as scanned — its candidates are
    /// already in `neighbors`: charges the clock, bumps the counters, logs
    /// the event. `injected_delay` is extra modelled I/O latency the
    /// delivery suffered (fault-injection spikes, retry costs); it is zero
    /// on every fault-free path, and `x + 0.0` is bit-identical to `x`, so
    /// the fault-free accounting is untouched.
    pub(crate) fn chunk_consumed(
        &mut self,
        chunk_id: usize,
        count: u32,
        bytes_read: u64,
        injected_delay: VirtualDuration,
    ) {
        let io = self.model.io_time(bytes_read) + injected_delay;
        let cpu = self.model.scan_time(count as usize);
        let completed_at = self.clock.chunk_overlapped(io, cpu);

        #[cfg(debug_assertions)]
        self.invariants
            .on_step(chunk_id, self.neighbors.kth_dist(), completed_at);

        let rank = self.log.chunks_read;
        self.log.chunks_read += 1;
        self.log.descriptors_scanned += u64::from(count);
        self.log.bytes_read += bytes_read;
        self.log.events.push(ChunkEvent {
            rank,
            chunk_id,
            count,
            bytes_read,
            completed_at,
            kth_dist: self.neighbors.kth_dist(),
            topk_ids: if self.params.log_snapshots {
                self.neighbors.sorted_ids()
            } else {
                Vec::new()
            },
        });
    }

    /// Evaluates `rule` against the current session state: `Some(proves)`
    /// if the rule is satisfied (where `proves` says whether satisfying it
    /// certifies the result — only the completion rules ever do), `None`
    /// if the scan should continue.
    ///
    /// The predicates are monotone: once a rule fires it stays fired as
    /// further chunks are processed (the remaining bound never decreases,
    /// the kth distance never increases), which is what lets
    /// [`evaluate_rules`](Self::evaluate_rules) serve many rules from one
    /// scan.
    pub(crate) fn evaluate_rule(&self, rule: StopRule) -> Option<bool> {
        // Lost chunks consume the scan budget exactly like scanned ones:
        // `Chunks(n)` counts them toward n, and the remaining bound is
        // taken past them (an honest account — their descriptors are
        // reported lost, not silently still pending).
        let read = self.cursor();
        rule_fires(
            rule,
            read,
            self.log.events.last().map(|e| e.completed_at),
            self.neighbors.is_full(),
            self.neighbors.kth_dist(),
            self.ranking.remaining_bound(read),
        )
    }

    /// Whether this session's own stop rule says to stop scanning. A
    /// `k = 0` query stops before consuming anything — its empty answer is
    /// trivially exact — and so does one with no ranked chunk left.
    pub fn stop_satisfied(&self) -> bool {
        self.exhausted
            || self.params.k == 0
            || self.cursor() >= self.ranking.len()
            || self.evaluate_rule(self.params.stop).is_some()
    }

    /// Drives [`step`](Self::step) until
    /// [`stop_satisfied`](Self::stop_satisfied) or exhaustion.
    pub fn run_to_stop(&mut self) -> Result<()> {
        while !self.stop_satisfied() {
            if self.step()?.is_none() {
                break;
            }
        }
        Ok(())
    }

    /// The whole one-shot search: [`run_to_stop`](Self::run_to_stop), the
    /// exact [`rerank_tail`](Self::rerank_tail) (a no-op unless the session
    /// is quantized), [`into_result`](Self::into_result).
    pub fn run(mut self) -> Result<SearchResult> {
        self.run_to_stop()?;
        self.rerank_tail()?;
        Ok(self.into_result())
    }

    /// Re-scores the retained ADC candidates against the raw `f32`
    /// records and shrinks the neighbour set to the final `k` — the
    /// **exact rerank tail** of a quantized search. A no-op for
    /// non-quantized sessions.
    ///
    /// Each chunk holding a surviving candidate is read once from the raw
    /// region (charged to the virtual clock and `bytes_read` like any
    /// other chunk; also tallied separately in the log's `rerank_bytes` /
    /// `rerank_chunks`), and every candidate is re-scored with the exact
    /// lane kernel — bit-identical to the distance an uncompressed scan
    /// would have computed. When the candidate pool provably contains the
    /// true top-`k` (full budget with `rerank_mult · k ≥` collection
    /// size, or simply a deep enough pool in practice), the reranked
    /// answer equals the uncompressed search's answer, id for id.
    ///
    /// Terminal: the session's ADC state is consumed; call it once, after
    /// the scan.
    pub fn rerank_tail(&mut self) -> Result<()> {
        let Some(adc) = self.adc.take() else {
            return Ok(());
        };
        // Group the surviving candidates by source chunk. BTreeMap gives a
        // deterministic (ascending chunk id) read order.
        let mut by_chunk: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for id in self.neighbors.sorted_ids() {
            if let Some(&chunk) = adc.id_chunk.get(&id) {
                by_chunk.entry(chunk).or_default().push(id);
            }
        }
        let mut exact = NeighborSet::new(self.params.k);
        let mut reader = adc.raw.reader()?;
        let mut payload = ChunkPayload::default();
        for (&chunk, ids) in by_chunk.iter_mut() {
            ids.sort_unstable();
            let bytes = reader.read_chunk(chunk as usize, &mut payload)?;
            let io = self.model.io_time(bytes);
            let cpu = self.model.scan_time(ids.len());
            let _ = self.clock.chunk_overlapped(io, cpu);
            self.log.bytes_read += bytes;
            self.log.rerank_bytes += bytes;
            self.log.rerank_chunks += 1;
            let rows = as_rows(&payload.packed);
            for (row, &id) in rows.iter().zip(payload.ids.iter()) {
                if ids.binary_search(&id).is_ok() {
                    exact.offer(id, l2_sq(self.ranking.query.as_array(), row));
                }
            }
        }
        self.neighbors = exact;
        Ok(())
    }

    /// The `completed` flag the log should carry if the search stopped
    /// *now* under `rule`: a `k = 0` answer is trivially exact, exhausting
    /// every chunk is completion, and the completion rules certify their
    /// own stop.
    fn completed_for(&self, rule: StopRule) -> bool {
        self.params.k == 0
            || self.cursor() == self.ranking.len()
            || self.evaluate_rule(rule) == Some(true)
    }

    /// The one finaliser: stamps `log` — this session's own, or a copy of
    /// it — with the figures only known at the end. `completed` is passed
    /// in because it is judged from the log while that is still in place.
    fn finish(&self, mut log: SearchLog, completed: bool) -> SearchResult {
        log.completed = completed;
        log.total_virtual = self.clock.now().max(self.ranking.index_read_time());
        log.centroid_evals = self.ranking.centroid_evals();
        log.wall = self.wall_start.elapsed();
        SearchResult {
            neighbors: self.neighbors.sorted(),
            log,
        }
    }

    /// A [`SearchResult`] snapshot of the current state, finalised as if
    /// the search had stopped here under `rule`. Cheap relative to the
    /// scan (clones the log); the session remains usable.
    pub(crate) fn result_for_rule(&self, rule: StopRule) -> SearchResult {
        self.finish(self.log.clone(), self.completed_for(rule))
    }

    /// Consumes the session into its final result under its own stop rule.
    pub fn into_result(mut self) -> SearchResult {
        let completed = self.completed_for(self.params.stop);
        let log = std::mem::take(&mut self.log);
        self.finish(log, completed)
    }

    /// Answers every rule in `rules` from this one session — the
    /// collection is scanned **once**, and each rule's result is
    /// snapshotted the moment its predicate first fires, so every entry is
    /// identical to an individual [`crate::search::search`] run with that
    /// rule (the session's own `params.stop` is not consulted).
    ///
    /// Rules the scan exhausts without firing (e.g. `Chunks(n)` beyond the
    /// store, an unreachable `VirtualTime`) receive the full-scan result,
    /// exactly as their individual searches would.
    pub fn evaluate_rules(mut self, rules: &[StopRule]) -> Result<Vec<SearchResult>> {
        let mut results: Vec<Option<SearchResult>> = (0..rules.len()).map(|_| None).collect();
        loop {
            for (slot, &rule) in results.iter_mut().zip(rules) {
                if slot.is_none() && (self.params.k == 0 || self.evaluate_rule(rule).is_some()) {
                    *slot = Some(self.result_for_rule(rule));
                }
            }
            if results.iter().all(Option::is_some) {
                break;
            }
            if self.step()?.is_none() {
                break;
            }
        }
        Ok(results
            .into_iter()
            .zip(rules)
            .map(|(slot, &rule)| slot.unwrap_or_else(|| self.result_for_rule(rule)))
            .collect())
    }
}

impl std::fmt::Debug for SearchSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchSession")
            .field("chunks_read", &self.log.chunks_read)
            .field("n_chunks", &self.ranking.len())
            .field("kth_dist", &self.neighbors.kth_dist())
            .field("exhausted", &self.exhausted)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkers::{ChunkFormer, SrTreeChunker};
    use eff2_descriptor::{Descriptor, DescriptorSet};
    use eff2_storage::source::FileSource;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let unique = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "eff2_session_{tag}_{}_{unique}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn lumpy_set(n: usize) -> DescriptorSet {
        (0..n)
            .map(|i| {
                let blob = (i % 5) as f32 * 20.0;
                let mut v = Vector::splat(blob);
                v[0] += ((i * 31) % 23) as f32 * 0.3;
                v[3] -= ((i * 17) % 19) as f32 * 0.2;
                Descriptor::new(i as u32, v)
            })
            .collect()
    }

    fn build_store(tag: &str, set: &DescriptorSet, leaf: usize) -> ChunkStore {
        let formation = SrTreeChunker { leaf_size: leaf }.form(set);
        ChunkStore::create(&tmp_dir(tag), "ix", set, &formation.chunks, 512).expect("create")
    }

    #[test]
    fn ranking_matches_event_order() {
        let set = lumpy_set(600);
        let store = build_store("rankorder", &set, 10);
        let model = DiskModel::ata_2005();
        let q = Vector::splat(40.0);
        let ranking = ChunkRanking::rank(&store, &model, &q);
        assert_eq!(ranking.len(), store.n_chunks());
        assert!(ranking.len() > HEAD, "the order must reach past the head");
        // The whole order, head and tail, ascends by centroid distance.
        let ranked: Vec<(f32, u32)> = ranking.entries().copied().collect();
        assert_eq!(ranked.len(), ranking.len());
        for pair in ranked.windows(2) {
            assert!(pair[1].0 >= pair[0].0);
        }
        // The remaining bound is non-decreasing as chunks are consumed.
        for processed in 1..=ranking.len() {
            assert!(ranking.remaining_bound(processed) >= ranking.remaining_bound(processed - 1));
        }
        assert_eq!(ranking.remaining_bound(ranking.len()), f32::INFINITY);
        let order = ranking.order();
        for (rank, &id) in order.iter().enumerate() {
            assert_eq!(id, ranking.chunk_at(rank));
            assert_eq!(id, ranked[rank].1 as usize);
        }
    }

    #[test]
    fn step_yields_one_event_per_chunk_then_none() {
        let set = lumpy_set(200);
        let store = build_store("steps", &set, 25);
        let model = DiskModel::ata_2005();
        let q = set.vector_owned(11);
        let params = SearchParams::exact(5);
        let mut session = SearchSession::with_source(
            &store,
            &model,
            &q,
            &params,
            Arc::new(FileSource::new(&store)),
        );
        let n = store.n_chunks();
        for i in 0..n {
            let event = session.step().expect("step").expect("event").clone();
            assert_eq!(event.rank, i);
            assert_eq!(session.chunks_read(), i + 1);
        }
        assert!(session.step().expect("step").is_none());
        assert!(session.is_exhausted());
        let result = session.into_result();
        assert_eq!(result.log.events.len(), n);
        assert!(result.log.completed, "full scan is completion");
    }

    #[test]
    fn session_survives_reading_past_its_stop_rule() {
        let set = lumpy_set(400);
        let store = build_store("past", &set, 25);
        let model = DiskModel::ata_2005();
        let q = set.vector_owned(3);
        let params = SearchParams {
            k: 5,
            stop: StopRule::Chunks(2),
            prefetch_depth: 2,
            log_snapshots: true,
        };
        let mut session = SearchSession::open(&store, &model, &q, &params);
        session.run_to_stop().expect("run");
        assert_eq!(session.chunks_read(), 2);
        let at_stop = session.result_for_rule(StopRule::Chunks(2));
        assert_eq!(at_stop.log.chunks_read, 2);
        // Keep stepping past the satisfied rule: the snapshot taken above
        // must be unaffected, and the session keeps producing events.
        session.step().expect("step").expect("event");
        assert_eq!(session.chunks_read(), 3);
        assert_eq!(at_stop.log.chunks_read, 2);
    }

    #[test]
    fn fed_session_is_bit_identical_to_pulling_session() {
        let set = lumpy_set(400);
        let store = build_store("fed", &set, 25);
        let model = DiskModel::ata_2005();
        let q = set.vector_owned(42);
        let params = SearchParams::exact(8);

        let mut pulling = SearchSession::with_source(
            &store,
            &model,
            &q,
            &params,
            Arc::new(FileSource::new(&store)),
        );
        pulling.run_to_stop().expect("run");
        let want = pulling.into_result();

        // Drive a detached twin by hand: fetch whatever it asks for.
        let mut fed = SearchSession::detached(&store, &model, &q, &params);
        let (files, mut read) = (FileSource::new(&store), ReadState::default());
        while !fed.stop_satisfied() {
            let Some(id) = fed.next_wanted() else { break };
            let chunk = files.fetch(id, &mut read).expect("read");
            fed.step_with(&chunk).expect("step_with").expect("event");
        }
        let got = fed.into_result();

        assert_eq!(got.neighbors.len(), want.neighbors.len());
        for (g, w) in got.neighbors.iter().zip(want.neighbors.iter()) {
            assert_eq!(g.id, w.id);
            assert_eq!(g.dist.to_bits(), w.dist.to_bits());
        }
        assert_eq!(got.log.chunks_read, want.log.chunks_read);
        assert_eq!(got.log.bytes_read, want.log.bytes_read);
        assert_eq!(got.log.completed, want.log.completed);
        assert_eq!(
            got.log.total_virtual.as_secs().to_bits(),
            want.log.total_virtual.as_secs().to_bits()
        );
        for (g, w) in got.log.events.iter().zip(want.log.events.iter()) {
            assert_eq!(g.chunk_id, w.chunk_id);
            assert_eq!(
                g.completed_at.as_secs().to_bits(),
                w.completed_at.as_secs().to_bits()
            );
            assert_eq!(g.kth_dist.to_bits(), w.kth_dist.to_bits());
        }
    }

    #[test]
    fn step_with_rejects_the_wrong_chunk() {
        let set = lumpy_set(200);
        let store = build_store("wrongchunk", &set, 20);
        let model = DiskModel::ata_2005();
        let q = set.vector_owned(7);
        let mut session = SearchSession::detached(&store, &model, &q, &SearchParams::exact(5));
        let wanted = session.next_wanted().expect("wants a chunk");
        let wrong = (wanted + 1) % store.n_chunks();
        let chunk = FileSource::new(&store)
            .fetch(wrong, &mut ReadState::default())
            .expect("read");
        assert!(
            session.step_with(&chunk).is_err(),
            "wrong chunk must be refused"
        );
        assert_eq!(session.chunks_read(), 0, "a refused feed changes nothing");
        assert_eq!(session.next_wanted(), Some(wanted));
    }

    #[test]
    fn detached_session_refuses_to_pull() {
        let set = lumpy_set(100);
        let store = build_store("detached", &set, 20);
        let model = DiskModel::ata_2005();
        let mut session =
            SearchSession::detached(&store, &model, &Vector::ZERO, &SearchParams::exact(3));
        assert!(session.step().is_err(), "no source to pull from");
    }

    /// Delivers through an inner source but answers the listed chunk ids
    /// with a permanent [`Error::ChunkLost`] — the shape eff2-chaos's
    /// retry layer produces.
    ///
    /// [`Error::ChunkLost`]: eff2_storage::Error::ChunkLost
    #[derive(Clone)]
    struct LosingSource {
        inner: Arc<dyn ChunkSource>,
        lost: Vec<usize>,
        spent: VirtualDuration,
    }

    impl ChunkSource for LosingSource {
        fn fetch(&self, id: usize, state: &mut ReadState) -> Result<SourcedChunk> {
            if self.lost.contains(&id) {
                return Err(eff2_storage::Error::ChunkLost {
                    chunk: id,
                    attempts: 3,
                    spent: self.spent,
                });
            }
            self.inner.fetch(id, state)
        }

        fn open_stream(
            &self,
            order: Vec<usize>,
        ) -> Result<Box<dyn eff2_storage::source::ChunkStream>> {
            Ok(eff2_storage::source::walk(self.clone(), order))
        }
    }

    #[test]
    fn default_policy_aborts_on_a_lost_chunk() {
        let set = lumpy_set(200);
        let store = build_store("abort", &set, 20);
        let model = DiskModel::ata_2005();
        let q = Vector::splat(40.0);
        let ranking = ChunkRanking::rank(&store, &model, &q);
        let source = Arc::new(LosingSource {
            inner: Arc::new(FileSource::new(&store)),
            lost: vec![ranking.chunk_at(0)],
            spent: VirtualDuration::ZERO,
        });
        let mut session =
            SearchSession::with_source(&store, &model, &q, &SearchParams::exact(5), source);
        assert_eq!(session.skip, SkipPolicy::Abort);
        assert!(matches!(
            session.step(),
            Err(eff2_storage::Error::ChunkLost { .. })
        ));
    }

    /// Under the default [`SkipPolicy::Abort`] a lost delivery ends the
    /// scan: stepping on must not scan the next chunk at the lost chunk's
    /// rank, and the answer must not claim to be exact.
    #[test]
    fn a_step_after_an_aborted_delivery_never_scans_past_the_lost_chunk() {
        let set = lumpy_set(300);
        let store = build_store("abortstep", &set, 20);
        let model = DiskModel::ata_2005();
        let q = Vector::splat(40.0);
        let params = SearchParams::exact(5);
        let lost = ChunkRanking::rank(&store, &model, &q).chunk_at(0);
        let source = Arc::new(LosingSource {
            inner: Arc::new(FileSource::new(&store)),
            lost: vec![lost],
            spent: VirtualDuration::ZERO,
        });
        let mut session = SearchSession::with_source(&store, &model, &q, &params, source);
        assert!(matches!(
            session.step(),
            Err(eff2_storage::Error::ChunkLost { chunk, .. }) if chunk == lost
        ));
        for _ in 0..store.n_chunks() {
            let wanted = session.ranking().chunk_at(session.cursor());
            match session.step() {
                Ok(Some(event)) => assert_eq!(
                    event.chunk_id, wanted,
                    "a step scans the chunk at the cursor rank"
                ),
                Ok(None) => break,
                Err(e) => panic!("the error was already reported: {e}"),
            }
        }
        let result = session.into_result();
        assert!(result.log.events.iter().all(|e| e.chunk_id != lost));
        assert_ne!(result.log.fidelity(), crate::search::ResultFidelity::Exact);
        assert!(
            !result.log.completed,
            "the unscanned chunk {lost} is not proven irrelevant"
        );
    }

    #[test]
    fn skip_policy_completes_with_an_exact_degradation_report() {
        let set = lumpy_set(300);
        let store = build_store("skip", &set, 20);
        let model = DiskModel::ata_2005();
        let q = Vector::splat(40.0);
        let ranking = ChunkRanking::rank(&store, &model, &q);
        // Lose the first two ranked chunks: they are consumed before any
        // completion proof can fire, whatever the data looks like.
        let lost = vec![ranking.chunk_at(0), ranking.chunk_at(1)];
        let source = Arc::new(LosingSource {
            inner: Arc::new(FileSource::new(&store)),
            lost: lost.clone(),
            spent: VirtualDuration::from_ms(15.0),
        });
        let params = SearchParams {
            k: 5,
            stop: StopRule::ToCompletion,
            prefetch_depth: 1,
            log_snapshots: false,
        };
        let mut session = SearchSession::with_source(&store, &model, &q, &params, source);
        session.set_skip_policy(SkipPolicy::SkipUnavailable);
        session
            .run_to_stop()
            .expect("degraded search must not error");
        let result = session.into_result();
        let d = &result.log.degradation;
        assert_eq!(d.chunks_lost, 2);
        assert_eq!(d.lost_chunks, lost);
        let want_lost: u64 = lost
            .iter()
            .map(|&c| u64::from(store.metas()[c].count))
            .sum();
        assert_eq!(d.descriptors_lost, want_lost);
        assert_eq!(
            result.log.fidelity(),
            crate::search::ResultFidelity::Degraded
        );
        // Scanned + lost covers the consumed prefix of the ranked order.
        assert!(result.log.chunks_read + d.chunks_lost <= store.n_chunks());
        // No lost chunk appears among the scanned events.
        for e in &result.log.events {
            assert!(!lost.contains(&e.chunk_id));
        }
    }

    #[test]
    fn lost_chunks_consume_the_chunks_stop_budget() {
        let set = lumpy_set(300);
        let store = build_store("skipbudget", &set, 20);
        let model = DiskModel::ata_2005();
        let q = Vector::splat(40.0);
        let ranking = ChunkRanking::rank(&store, &model, &q);
        let lost = vec![ranking.chunk_at(0), ranking.chunk_at(2)];
        let source = Arc::new(LosingSource {
            inner: Arc::new(FileSource::new(&store)),
            lost: lost.clone(),
            spent: VirtualDuration::ZERO,
        });
        let params = SearchParams {
            k: 5,
            stop: StopRule::Chunks(4),
            prefetch_depth: 1,
            log_snapshots: false,
        };
        let mut session = SearchSession::with_source(&store, &model, &q, &params, source);
        session.set_skip_policy(SkipPolicy::SkipUnavailable);
        session.run_to_stop().expect("run");
        let result = session.into_result();
        // Budget of 4 ranked chunks: 2 lost + 2 scanned, honestly.
        assert_eq!(result.log.degradation.chunks_lost, 2);
        assert_eq!(result.log.chunks_read, 2);
        assert!(!result.log.completed);
    }

    #[test]
    fn skip_charge_advances_the_virtual_clock() {
        let set = lumpy_set(200);
        let store = build_store("skipcharge", &set, 20);
        let model = DiskModel::ata_2005();
        let q = Vector::splat(40.0);
        let ranking = ChunkRanking::rank(&store, &model, &q);
        let lost = vec![ranking.chunk_at(0)];
        let params = SearchParams {
            k: 5,
            stop: StopRule::Chunks(3),
            prefetch_depth: 1,
            log_snapshots: false,
        };
        let run = |spent: VirtualDuration| {
            let source = Arc::new(LosingSource {
                inner: Arc::new(FileSource::new(&store)),
                lost: lost.clone(),
                spent,
            });
            let mut session = SearchSession::with_source(&store, &model, &q, &params, source);
            session.set_skip_policy(SkipPolicy::SkipUnavailable);
            session.run_to_stop().expect("run");
            session.into_result().log.total_virtual
        };
        let free = run(VirtualDuration::ZERO);
        let charged = run(VirtualDuration::from_ms(25.0));
        assert!(
            charged.as_secs() >= free.as_secs() + 0.024,
            "retry time must be charged to the modelled clock ({free} vs {charged})"
        );
    }

    /// A detached two-level session, fed chunk by chunk and skipped past
    /// lost chunks on both sides of a wave boundary, reports exactly what
    /// a session pulling from its own source does — centroid evaluations
    /// included.
    #[test]
    fn a_fed_two_level_session_is_bit_identical_to_a_pulled_one() {
        let set = lumpy_set(1_200);
        let store = build_store("fedtwolevel", &set, 20);
        let coarse = CoarseQuantizer::for_store(&store);
        let model = DiskModel::ata_2005();
        let files = FileSource::new(&store);
        let spent = VirtualDuration::from_ms(7.0);
        for qpos in [7usize, 400, 911] {
            let q = set.vector_owned(qpos);
            let ranking = ChunkRanking::rank_two_level(&store, &model, &q, &coarse);
            // Probe a clone, so both sessions start with no wave ordered.
            let probe = ranking.clone();
            assert!(probe.waves.len() > 3, "the walk must cross waves");
            let (second, third) = (probe.waves[1].start, probe.waves[2].start);
            let lost: Vec<usize> = [second - 1, second, third]
                .iter()
                .map(|&r| probe.chunk_at(r))
                .collect();
            for stop in [StopRule::Chunks(third + 4), StopRule::ToCompletion] {
                let params = SearchParams {
                    k: 20,
                    stop,
                    prefetch_depth: 1,
                    log_snapshots: true,
                };
                let source = Arc::new(LosingSource {
                    inner: Arc::new(FileSource::new(&store)),
                    lost: lost.clone(),
                    spent,
                });
                let mut pulled =
                    SearchSession::from_parts(ranking.clone(), &model, &params, Some(source));
                pulled.set_skip_policy(SkipPolicy::SkipUnavailable);
                let want = pulled.run().expect("pulled");

                let mut fed =
                    SearchSession::detached_from_ranking(ranking.clone(), &model, &q, &params);
                let mut read = ReadState::default();
                while !fed.stop_satisfied() {
                    let Some(id) = fed.next_wanted() else { break };
                    if lost.contains(&id) {
                        assert_eq!(fed.skip_unavailable(spent).expect("skip"), id);
                    } else {
                        let chunk = files.fetch(id, &mut read).expect("read");
                        fed.step_with(&chunk).expect("feed").expect("event");
                    }
                }
                let got = fed.into_result();
                assert_eq!(got.first_difference(&want), None, "q{qpos} {stop:?}");
                if let StopRule::Chunks(_) = stop {
                    assert_eq!(got.log.degradation.lost_chunks, lost, "q{qpos}");
                }
            }
        }
    }

    #[test]
    fn missing_chunk_file_errors_cleanly_at_first_step() {
        let set = lumpy_set(120);
        let store = build_store("missing", &set, 20);
        let model = DiskModel::ata_2005();
        let q = Vector::ZERO;
        let params = SearchParams::exact(4);
        let mut session = SearchSession::open(&store, &model, &q, &params);
        std::fs::remove_file(store.chunk_path()).expect("delete chunk file");
        let got = session.step();
        assert!(got.is_err(), "deleted file must surface as Err, not panic");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not the one the ranking was made for")]
    fn a_detached_session_refuses_a_foreign_query() {
        let set = lumpy_set(120);
        let store = build_store("foreign", &set, 20);
        let model = DiskModel::ata_2005();
        let ranking = ChunkRanking::rank(&store, &model, &Vector::ZERO);
        let foreign = Vector::splat(1.0);
        let _ = SearchSession::detached_from_ranking(
            ranking,
            &model,
            &foreign,
            &SearchParams::exact(4),
        );
    }

    /// The parent algorithm, kept as the reference: a stable sort of every
    /// chunk and a suffix minimum over every bound. Returns the ids in
    /// scan order and `remaining_bound(p)` for `p ∈ 0..=n`.
    fn full_sort_reference(store: &ChunkStore, q: &Vector) -> (Vec<usize>, Vec<f32>) {
        let metas = store.metas();
        let mut ranked: Vec<(f32, usize)> = metas
            .iter()
            .enumerate()
            .map(|(i, m)| (m.centroid.dist(q), i))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut suffix = vec![f32::INFINITY; ranked.len() + 1];
        let mut best = f32::INFINITY;
        for (slot, &(dist, id)) in suffix.iter_mut().zip(&ranked).rev() {
            best = best.min((dist - metas[id].radius).max(0.0));
            *slot = best;
        }
        (ranked.iter().map(|&(_, id)| id).collect(), suffix)
    }

    /// Everything a reader can observe of a ranking's order and bounds:
    /// `chunk_at` per rank, `remaining_bound` bits per position, `order()`
    /// and `order_from(HEAD − 1)`.
    type Observed = (Vec<usize>, Vec<u32>, Vec<usize>, Vec<usize>);

    fn observe(ranking: &ChunkRanking) -> Observed {
        (
            (0..ranking.len()).map(|r| ranking.chunk_at(r)).collect(),
            (0..=ranking.len())
                .map(|p| ranking.remaining_bound(p).to_bits())
                .collect(),
            ranking.order(),
            ranking.order_from(HEAD - 1),
        )
    }

    /// A store of `n` one-descriptor chunks whose centroids sit on a small
    /// integer grid (so distinct chunks tie on distance) with the given
    /// radii; with `dup > 0`, chunk `j` copies chunk `j % dup`'s centroid.
    fn grid_store(tag: &str, cells: &[(u32, u32, u32)], n: usize, dup: usize) -> ChunkStore {
        let centroid = |j: usize| {
            let (a, b, _) = cells[if dup > 0 { j % dup } else { j }];
            let mut v = Vector::splat(a as f32);
            v[1] = b as f32;
            v
        };
        let set: DescriptorSet = (0..n)
            .map(|j| Descriptor::new(j as u32, centroid(j)))
            .collect();
        let chunks: Vec<eff2_storage::ChunkDef> = (0..n)
            .map(|j| eff2_storage::ChunkDef {
                positions: vec![j as u32],
                centroid: centroid(j),
                radius: cells[j].2 as f32 * 0.5,
            })
            .collect();
        ChunkStore::create(&tmp_dir(tag), "ix", &set, &chunks, 512).expect("create")
    }

    /// The two-level ranking as it was before waves were ordered on first
    /// read, kept as the reference: coarse cells popped nearest first, each
    /// popped cell's members scored, stably sorted and appended, and the
    /// bound at a position the minimum over the expanded ranks from there
    /// and the bounds of the cells still pending.
    struct EagerTwoLevel {
        ranked: Vec<(f32, u32)>,
        /// `(dist, cell, bound, members)`, descending, so `pop()` yields the
        /// nearest cell.
        pending: Vec<(f32, usize, f32, Vec<u32>)>,
        evals: u64,
    }

    impl EagerTwoLevel {
        fn new(coarse: &CoarseQuantizer, q: &Vector) -> EagerTwoLevel {
            let mut pending: Vec<_> = coarse
                .cells()
                .filter(|(_, _, _, members)| !members.is_empty())
                .map(|(cell, center, radius, members)| {
                    let dist = center.dist(q);
                    (dist, cell, (dist - radius).max(0.0), members.to_vec())
                })
                .collect();
            pending.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
            EagerTwoLevel {
                ranked: Vec::new(),
                pending,
                evals: coarse.n_cells() as u64,
            }
        }

        /// Expands the nearest pending cell; returns its bound.
        fn expand_nearest_cell(&mut self, metas: &[ChunkMeta], q: &Vector) -> Option<f32> {
            let (_, _, bound, members) = self.pending.pop()?;
            let start = self.ranked.len();
            self.ranked.extend(
                members
                    .iter()
                    .map(|&c| (metas[c as usize].centroid.dist(q), c)),
            );
            self.evals += members.len() as u64;
            self.ranked[start..].sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            Some(bound)
        }

        fn bound_of(metas: &[ChunkMeta], &(dist, id): &(f32, u32)) -> f32 {
            (dist - metas[id as usize].radius).max(0.0)
        }

        fn remaining_bound(&self, metas: &[ChunkMeta], p: usize) -> f32 {
            let floor = self
                .pending
                .iter()
                .fold(f32::INFINITY, |m, cell| m.min(cell.2));
            self.ranked[p..]
                .iter()
                .fold(floor, |m, e| m.min(Self::bound_of(metas, e)))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn a_lazily_ordered_ranking_equals_a_full_sort(
            size_sel in 0usize..5,
            extra in 0usize..40,
            dup in 0usize..3,
            cells in proptest::collection::vec((0u32..6, 0u32..6, 0u32..40), 3 * HEAD + 40),
            (qa, qb) in (0u32..24, 0u32..24),
        ) {
            let n = [1, HEAD - 1, HEAD, HEAD + 1, 3 * HEAD + extra][size_sel];
            // dup = 0: distinct grid cells (ties still occur); otherwise
            // whole runs of chunks share one centroid, so ties fall to id.
            let store = grid_store("lazy", &cells, n, [0, 1, 7][dup]);
            let model = DiskModel::ata_2005();
            let mut q = Vector::splat(qa as f32 * 0.25);
            q[1] = qb as f32 * 0.25;
            let ranking = ChunkRanking::rank(&store, &model, &q);
            let before = ranking.clone();

            // Reads within the head never order the rest.
            let head = n.min(HEAD);
            for r in 0..head {
                let _ = ranking.chunk_at(r);
            }
            for p in 0..=head {
                let _ = ranking.remaining_bound(p);
            }
            prop_assert!(
                ranking.waves.iter().all(|w| w.ordered.get().is_none()),
                "a head read ordered the rest"
            );

            let (ids, bounds) = full_sort_reference(&store, &q);
            let want: Observed = (
                ids.clone(),
                bounds.iter().map(|b| b.to_bits()).collect(),
                ids.clone(),
                ids.get(HEAD - 1..).unwrap_or(&[]).to_vec(),
            );
            prop_assert_eq!(&observe(&ranking), &want);
            prop_assert_eq!(ranking.len(), n);
            prop_assert_eq!(ranking.centroid_evals(), n as u64);
            prop_assert_eq!(
                ranking.index_read_time().as_secs().to_bits(),
                model.index_read_time(n, store.index_bytes()).as_secs().to_bits()
            );

            // A clone taken before the tail was ordered and one taken after
            // observe the same ranking.
            let after = ranking.clone();
            prop_assert_eq!(&observe(&before), &want);
            prop_assert_eq!(&observe(&after), &want);
        }

        #[test]
        fn a_two_level_ranking_orders_each_wave_on_first_read(
            size_sel in 0usize..5,
            extra in 0usize..40,
            dup in 0usize..3,
            cells in proptest::collection::vec((0u32..6, 0u32..6, 0u32..40), 3 * HEAD + 40),
            (qa, qb) in (0u32..24, 0u32..24),
            reads in proptest::collection::vec((0usize..1_000, 0usize..2), 0..60),
        ) {
            let n = [1, HEAD - 1, HEAD, HEAD + 1, 3 * HEAD + extra][size_sel];
            let store = grid_store("twolevel", &cells, n, [0, 1, 7][dup]);
            let metas = store.metas();
            let coarse = CoarseQuantizer::for_store(&store);
            let n_cells = coarse.n_cells() as u64;
            let model = DiskModel::ata_2005();
            let mut q = Vector::splat(qa as f32 * 0.25);
            q[1] = qb as f32 * 0.25;
            let rank = || ChunkRanking::rank_two_level(&store, &model, &q, &coarse);

            // A pulled session's walk: at each cursor rank it reads the
            // bound, then the chunk. The reference expands a wave when the
            // cursor reaches it; the ranking orders it on that first read.
            let mut eager = EagerTwoLevel::new(&coarse, &q);
            let walked = rank();
            let (mut starts, mut cell_bounds) = (Vec::new(), Vec::new());
            for p in 0..n {
                prop_assert_eq!(
                    walked.remaining_bound(p).to_bits(),
                    eager.remaining_bound(metas, p).to_bits()
                );
                prop_assert_eq!(walked.centroid_evals(), eager.evals, "a bound read orders nothing");
                if p == eager.ranked.len() {
                    starts.push(p);
                    cell_bounds.push(eager.expand_nearest_cell(metas, &q).expect("a pending cell"));
                }
                prop_assert_eq!(walked.chunk_at(p), eager.ranked[p].1 as usize);
                prop_assert_eq!(walked.centroid_evals(), eager.evals);
                prop_assert_eq!(
                    walked.remaining_bound(p).to_bits(),
                    eager.remaining_bound(metas, p).to_bits()
                );
            }
            prop_assert!(eager.expand_nearest_cell(metas, &q).is_none());
            prop_assert_eq!(walked.remaining_bound(n), f32::INFINITY);
            prop_assert_eq!(walked.waves.len(), starts.len());

            // Reads in any order, past any cursor: each one scores and
            // orders exactly the wave it lands in, except a bound read at a
            // wave's first rank, which answers from the floors.
            starts.push(n);
            let bounds: Vec<f32> = eager.ranked.iter().map(|e| EagerTwoLevel::bound_of(metas, e)).collect();
            let best = |from: usize, to: usize| bounds[from..to].iter().fold(f32::INFINITY, |m, &b| m.min(b));
            let ids: Vec<usize> = eager.ranked.iter().map(|&(_, id)| id as usize).collect();
            let lazy = rank();
            let before = lazy.clone();
            let mut mid = None;
            let mut scored = vec![false; cell_bounds.len()];
            for (i, &(r, kind)) in reads.iter().enumerate() {
                if i == reads.len() / 2 {
                    mid = Some(lazy.clone());
                }
                let r = r % n;
                let w = starts.partition_point(|&s| s <= r) - 1;
                if kind == 0 {
                    prop_assert_eq!(lazy.chunk_at(r), ids[r]);
                    scored[w] = true;
                } else {
                    scored[w] |= r != starts[w];
                    let here = if scored[w] { best(r, starts[w + 1]) } else { cell_bounds[w] };
                    let want = (w + 1..cell_bounds.len()).fold(here, |m, v| {
                        m.min(if scored[v] { best(starts[v], starts[v + 1]) } else { cell_bounds[v] })
                    });
                    prop_assert_eq!(lazy.remaining_bound(r).to_bits(), want.to_bits());
                }
                let read: usize = (0..scored.len()).filter(|&v| scored[v]).map(|v| starts[v + 1] - starts[v]).sum();
                prop_assert_eq!(lazy.centroid_evals(), n_cells + read as u64);
            }

            // Fully read, every ranking — cloned before any wave was
            // ordered, midway, or after — is the fully expanded reference.
            let want: Observed = (
                ids.clone(),
                (0..=n).map(|p| eager.remaining_bound(metas, p).to_bits()).collect(),
                ids.clone(),
                ids.get(HEAD - 1..).unwrap_or(&[]).to_vec(),
            );
            for ranking in [&before, mid.as_ref().unwrap_or(&before), &lazy] {
                prop_assert_eq!(&observe(ranking), &want);
                prop_assert_eq!(ranking.centroid_evals(), n_cells + n as u64);
            }
        }
    }
}
