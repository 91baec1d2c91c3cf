//! The resumable search engine: [`ChunkRanking`] + [`SearchSession`].
//!
//! The §4.3 search in separable parts:
//!
//! * [`ChunkRanking`] is step 1 of §4.3 in isolation — centroid ranking
//!   plus the suffix-minimum of chunk lower bounds — computed once and
//!   reusable across any number of stop rules;
//! * [`SearchSession`] is the resumable scan: [`SearchSession::step`]
//!   advances exactly one chunk and returns its [`ChunkEvent`], so a
//!   caller can pause, inspect intermediate quality, and resume — the
//!   paper's *anytime* contribution surfaced as an API;
//! * stop rules are **predicates on session state**
//!   (`SearchSession::evaluate_rule`), not control flow baked into the
//!   loop. `search()` is ranking + drive-to-stop, and
//!   [`evaluate_stop_rules`] answers every `Chunks(n)` / `VirtualTime(t)` /
//!   `ToCompletionEps` variant from ONE scan of the collection instead of
//!   re-searching per rule.
//!
//! Chunks arrive through a pluggable [`ChunkSource`] (file reads,
//! prefetching, or a shared resident cache), pulled by `step` or fed from
//! outside through `step_with`. Either way a delivery is one
//! [`SourcedChunk`], and the session charges its [`PipelineClock`] from
//! that value alone — the `bytes_read` every source reports identically,
//! plus the `injected_delay` fault and retry layers added — so every
//! reported figure is bit-identical regardless of backend and of who
//! drives (pinned by the `batch_determinism` and `session_equivalence`
//! tests, and under faults by `eff2-chaos`'s determinism suite).

use crate::coarse::CoarseQuantizer;
use crate::neighbors::NeighborSet;
use crate::search::{ChunkEvent, SearchLog, SearchParams, SearchResult, StopRule};
use eff2_descriptor::{
    adc_l2_sq_batch, as_rows, l2_sq, scan_block_into, DescriptorCodec, PreparedQuery, Vector,
};
use eff2_storage::chunkfile::ChunkPayload;
use eff2_storage::diskmodel::{DiskModel, PipelineClock, VirtualDuration};
use eff2_storage::epoch::FoldedDelta;
use eff2_storage::source::{ChunkSource, ChunkStream, PrefetchSource, SourcedChunk};
use eff2_storage::{ChunkStore, ErrorClass, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a session does when its stream reports a chunk permanently
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

/// A coarse cell whose member chunks have not been expanded into the
/// ranked order yet (two-level ranking only).
#[derive(Clone, Debug)]
struct PendingCell {
    /// Distance from the query to the cell center.
    dist: f32,
    /// Conservative lower bound `max(dist − cell_radius, 0)` on any
    /// descriptor stored in any member chunk.
    bound: f32,
    /// Cell index (the expansion tie-breaker).
    cell: u32,
    /// Member chunk ids, ascending.
    members: Vec<u32>,
}

/// Step 1 of the search (§4.3): every chunk ranked by the distance from
/// the query to its centroid, plus the suffix-minimum of the chunk lower
/// bounds `max(d(q, centroid) − radius, 0)` along that order.
///
/// The suffix minimum is what makes completion *exact*: ranking is by
/// centroid distance while the bound subtracts the radius, so the bound is
/// not monotone along the ranked order — the test must consider the best
/// bound among **all** remaining chunks, not just the next one.
///
/// A ranking is either **flat** ([`rank`](Self::rank): every chunk ranked
/// up front) or **two-level** (`rank_two_level`:
/// coarse cells ranked up front, member chunks expanded lazily wave by
/// wave as the scan consumes them). In the two-level form the suffix
/// minimum is floored by the best bound among the still-pending cells, so
/// `remaining_bound` stays a true lower bound on
/// every unscanned descriptor and the to-completion stop rule stays exact.
#[derive(Clone, Debug)]
pub struct ChunkRanking {
    /// `(centroid distance, chunk id)` of the *expanded* chunks. Flat
    /// rankings hold every chunk sorted ascending (ties by id); two-level
    /// rankings append one sorted wave per expanded cell.
    ranked: Vec<(f32, u32)>,
    /// `suffix_min_bound[i]` = best lower bound among expanded ranks `i..`
    /// **and** every pending cell; the final entry is the pending floor
    /// (`+∞` when nothing is pending).
    suffix_min_bound: Vec<f32>,
    /// The ranked store, held by handle (an `Arc` clone): wave expansion,
    /// the suffix rebuild and the degradation report read each chunk's
    /// centroid, radius and count from its metas, never from a copy.
    store: ChunkStore,
    /// Coarse cells not yet expanded, sorted by `(dist, cell)` descending
    /// so `pop()` yields the nearest. Empty for flat rankings.
    pending: Vec<PendingCell>,
    /// Centroid distance evaluations spent so far (flat: one per chunk;
    /// two-level: one per cell plus one per expanded member chunk).
    evals: u64,
    /// Total chunks this ranking covers (expanded + pending members).
    total: usize,
    /// Modelled cost of reading and ranking the chunk index.
    index_read_time: VirtualDuration,
}

impl ChunkRanking {
    /// Ranks every chunk of `store` for `query` and charges the index read
    /// under `model`. Pure computation over the in-memory index — no I/O.
    pub fn rank(store: &ChunkStore, model: &DiskModel, query: &Vector) -> ChunkRanking {
        let metas = store.metas();
        let mut ranked: Vec<(f32, u32)> = metas
            .iter()
            .enumerate()
            .map(|(i, m)| (m.centroid.dist(query), i as u32))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut ranking = ChunkRanking {
            ranked,
            suffix_min_bound: Vec::new(),
            store: store.clone(),
            pending: Vec::new(),
            evals: metas.len() as u64,
            total: metas.len(),
            index_read_time: model.index_read_time(metas.len(), store.index_bytes()),
        };
        ranking.rebuild_suffix();
        ranking
    }

    /// Ranks `store`'s chunks **two-level**: the coarse cells of `coarse`
    /// are ranked by center distance now, and each cell's member chunks
    /// are expanded into the scan order lazily
    /// ([`expand_wave`](Self::expand_wave)) only when the scan reaches
    /// them. Costs `n_cells` centroid evaluations up front instead of
    /// `n_chunks`; [`centroid_evals`](Self::centroid_evals) tracks the
    /// running total as cells expand.
    pub(crate) fn rank_two_level(
        store: &ChunkStore,
        model: &DiskModel,
        query: &Vector,
        coarse: &CoarseQuantizer,
    ) -> ChunkRanking {
        let mut ranking = ChunkRanking {
            ranked: Vec::new(),
            suffix_min_bound: Vec::new(),
            store: store.clone(),
            pending: Vec::new(),
            evals: coarse.n_cells() as u64,
            total: 0,
            index_read_time: model.index_read_time(store.n_chunks(), store.index_bytes()),
        };
        ranking.pending.extend(
            coarse
                .cells()
                .filter(|(_, _, _, members)| !members.is_empty())
                .map(|(cell, center, radius, members)| {
                    let dist = center.dist(query);
                    PendingCell {
                        dist,
                        bound: (dist - radius).max(0.0),
                        cell: cell as u32,
                        members: members.to_vec(),
                    }
                }),
        );
        // Descending, so `pop()` hands back the nearest cell first.
        ranking
            .pending
            .sort_by(|a, b| b.dist.total_cmp(&a.dist).then(b.cell.cmp(&a.cell)));
        ranking.total = ranking
            .pending
            .iter()
            .map(|c| c.members.len())
            .sum::<usize>();
        ranking.rebuild_suffix();
        ranking
    }

    /// Recomputes the suffix-minimum of the chunk lower bounds along the
    /// expanded order, floored by the best pending-cell bound. Every slot
    /// is a true lower bound on all descriptors not yet consumed at that
    /// position — expanded chunks ahead *and* every pending cell.
    fn rebuild_suffix(&mut self) {
        let floor = self
            .pending
            .iter()
            .fold(f32::INFINITY, |m, c| m.min(c.bound));
        self.suffix_min_bound.clear();
        self.suffix_min_bound.resize(self.ranked.len() + 1, floor);
        let metas = self.store.metas();
        let mut best = floor;
        for (slot, &(dist, id)) in self
            .suffix_min_bound
            .iter_mut()
            .zip(self.ranked.iter())
            .rev()
        {
            let radius = metas.get(id as usize).map_or(0.0, |m| m.radius);
            best = best.min((dist - radius).max(0.0));
            *slot = best;
        }
        debug_assert!(
            self.suffix_min_bound
                .windows(2)
                .all(|w| w.first() <= w.get(1)),
            "suffix-min bound must be non-decreasing along the ranked order"
        );
    }

    /// Total chunks this ranking covers — expanded chunks plus the member
    /// chunks of every still-pending cell. A session is exhausted only
    /// when its cursor reaches this.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the store has no chunks.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Chunks already expanded into the scan order (equal to
    /// [`len`](Self::len) for flat rankings).
    pub fn expanded_len(&self) -> usize {
        self.ranked.len()
    }

    /// Whether any coarse cell is still awaiting expansion.
    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Centroid distance evaluations spent so far: `n_chunks` for a flat
    /// ranking; `n_cells` plus one per expanded member chunk for a
    /// two-level ranking — the quantity two-level ranking exists to
    /// shrink.
    pub fn centroid_evals(&self) -> u64 {
        self.evals
    }

    /// Expands the nearest pending cell: ranks its member chunks by
    /// centroid distance, appends them to the scan order, and rebuilds the
    /// suffix bounds. Returns `false` when nothing is pending.
    ///
    /// Exactness survives expansion: every new chunk's bound dominates its
    /// cell's bound, and the remaining pending floor can only rise, so
    /// [`remaining_bound`](Self::remaining_bound) never decreases at any
    /// consumed position — a fired to-completion proof stays fired.
    pub(crate) fn expand_wave(&mut self, query: &Vector) -> bool {
        let Some(cell) = self.pending.pop() else {
            return false;
        };
        let start = self.ranked.len();
        let metas = self.store.metas();
        self.ranked.extend(cell.members.iter().map(|&chunk| {
            let dist = metas
                .get(chunk as usize)
                .map_or(f32::INFINITY, |m| m.centroid.dist(query));
            (dist, chunk)
        }));
        self.evals += cell.members.len() as u64;
        if let Some(wave) = self.ranked.get_mut(start..) {
            wave.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        self.rebuild_suffix();
        true
    }

    /// Chunk ids in ranked (scan) order — the expanded chunks only; a
    /// two-level ranking grows this wave by wave.
    pub fn order(&self) -> Vec<usize> {
        self.ranked.iter().map(|&(_, i)| i as usize).collect()
    }

    /// The tail of the scan order from rank `from` on — what a session
    /// streams after (re)opening its source mid-scan or after a wave
    /// expansion.
    pub fn order_from(&self, from: usize) -> Vec<usize> {
        self.ranked
            .get(from..)
            .unwrap_or(&[])
            .iter()
            .map(|&(_, i)| i as usize)
            .collect()
    }

    /// The chunk id at `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()`; ranks come from iterating the
    /// ranking itself, so an out-of-range rank is a caller bug.
    pub fn chunk_at(&self, rank: usize) -> usize {
        // lint:allow(panic.index): rank < len is a documented precondition
        self.ranked[rank].1 as usize
    }

    /// Descriptors held by chunk `chunk_id` (0 for out-of-range ids).
    pub(crate) fn count_of(&self, chunk_id: usize) -> u32 {
        self.store.metas().get(chunk_id).map_or(0, |m| m.count)
    }

    /// Best lower bound on any descriptor in the chunks still unread after
    /// `processed` chunks (`+∞` once every chunk has been read).
    pub(crate) fn remaining_bound(&self, processed: usize) -> f32 {
        self.suffix_min_bound
            .get(processed)
            .copied()
            .unwrap_or(f32::INFINITY)
    }

    /// Modelled cost of reading and ranking the chunk index.
    pub fn index_read_time(&self) -> VirtualDuration {
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
        debug_assert!(
            !self.has_pending(),
            "split_by_owner requires a flat (fully expanded) ranking"
        );
        let mut legs: Vec<ChunkRanking> = (0..n_shards)
            .map(|_| ChunkRanking {
                ranked: Vec::new(),
                suffix_min_bound: Vec::new(),
                store: self.store.clone(),
                pending: Vec::new(),
                evals: 0,
                total: 0,
                index_read_time: VirtualDuration::ZERO,
            })
            .collect();
        for &(dist, chunk) in &self.ranked {
            let owner = owner_of.get(chunk as usize).copied().unwrap_or(u32::MAX);
            if let Some(leg) = legs.get_mut(owner as usize) {
                leg.ranked.push((dist, chunk));
            }
        }
        for leg in &mut legs {
            leg.total = leg.ranked.len();
            leg.rebuild_suffix();
        }
        legs
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

/// One query's standing in §4.3's scan, however its chunks get scanned:
/// how far down the ranked order it is, what that has cost on its private
/// clock, what it has found and logged, and whether a stop rule is met.
///
/// A [`SearchSession`] is this plus the machinery that *computes* each
/// chunk's candidates; the fleet's
/// [`ScatterGather`](crate::merge::ScatterGather) is this plus being *told*
/// them. Both advance only through [`chunk_consumed`](Self::chunk_consumed)
/// and [`chunk_lost`](Self::chunk_lost), so every figure they report comes
/// out of the same code.
pub(crate) struct SessionCore {
    ranking: ChunkRanking,
    model: DiskModel,
    params: SearchParams,
    clock: PipelineClock,
    pub(crate) neighbors: NeighborSet,
    log: SearchLog,
    wall_start: std::time::Instant,
    #[cfg(debug_assertions)]
    invariants: StepInvariants,
}

impl SessionCore {
    /// The private clock starts at the index-read time.
    pub(crate) fn new(ranking: ChunkRanking, model: &DiskModel, params: &SearchParams) -> Self {
        SessionCore {
            model: *model,
            params: *params,
            clock: PipelineClock::start_at(ranking.index_read_time()),
            neighbors: NeighborSet::new(params.k),
            log: SearchLog {
                index_read_time: ranking.index_read_time(),
                ..SearchLog::default()
            },
            // lint:allow(det.wall_clock): log.wall is informational; it never feeds the virtual clock or modelled figures
            wall_start: std::time::Instant::now(),
            // The seen-set is indexed by chunk *id*, which for a per-shard
            // leg ranking (split_by_owner) spans the whole store even
            // though the leg ranks only a subset — size it by the id space,
            // not the rank count.
            #[cfg(debug_assertions)]
            invariants: StepInvariants::new(ranking.store.n_chunks()),
            ranking,
        }
    }

    pub(crate) fn ranking(&self) -> &ChunkRanking {
        &self.ranking
    }

    /// Position in the ranked order consumed so far: chunks scanned plus
    /// chunks lost to faults. With zero faults this is exactly
    /// `chunks_read` — the fault-free path is untouched.
    pub(crate) fn cursor(&self) -> usize {
        self.log.chunks_read + self.log.degradation.chunks_lost
    }

    /// The in-order discipline: `chunk_id` must be the chunk at the cursor
    /// rank (payloads and outcomes arrive in ranked order no matter who
    /// produced them).
    pub(crate) fn check_next(&self, chunk_id: usize) -> Result<()> {
        let wanted = self.chunk_at_cursor()?;
        if chunk_id != wanted {
            return Err(eff2_storage::Error::Inconsistent(format!(
                "rank {} wants chunk {wanted}, was given chunk {chunk_id}",
                self.cursor()
            )));
        }
        Ok(())
    }

    /// The chunk at the cursor rank. There is none past the last rank, and
    /// none *yet* past a two-level ranking's expanded waves: only
    /// [`SearchSession::step`] expands the next wave.
    fn chunk_at_cursor(&self) -> Result<usize> {
        let cursor = self.cursor();
        if cursor >= self.ranking.len() {
            return Err(eff2_storage::Error::Inconsistent(
                "every ranked chunk is already consumed".to_string(),
            ));
        }
        if cursor >= self.ranking.expanded_len() {
            return Err(eff2_storage::Error::Inconsistent(format!(
                "rank {cursor} is in a coarse cell not yet expanded: only step() expands waves"
            )));
        }
        Ok(self.ranking.chunk_at(cursor))
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

    /// Scans `delta`'s live rows as one delta-chunk read, **before the
    /// first chunk**: distances offered into the neighbour set in delta
    /// order, the read charged to the private clock like any chunk (I/O of
    /// the record-layout bytes overlapped with the scan CPU). No live rows,
    /// no charge — an empty delta is a strict no-op.
    pub(crate) fn apply_delta(&mut self, query: &Vector, delta: &FoldedDelta) {
        debug_assert_eq!(self.cursor(), 0, "apply_delta must run before the scan");
        if delta.inserts.is_empty() {
            return;
        }
        for (id, vector) in &delta.inserts {
            self.neighbors
                .offer(*id, l2_sq(query.as_array(), vector.as_array()));
        }
        let io = self.model.io_time(delta.scan_bytes());
        let cpu = self.model.scan_time(delta.inserts.len());
        let _ = self.clock.chunk_overlapped(io, cpu);
        self.log.bytes_read += delta.scan_bytes();
        self.log.descriptors_scanned += delta.inserts.len() as u64;
    }

    /// Consumes the chunk at the cursor *without* its candidates: the
    /// chunk goes into the degradation report and `charge` — what the
    /// failed delivery cost — onto the clock as I/O with no overlapping
    /// CPU. Returns the lost chunk id, or `Error::Inconsistent` when the
    /// cursor names no chunk (see `chunk_at_cursor`).
    pub(crate) fn chunk_lost(&mut self, charge: VirtualDuration) -> Result<usize> {
        let id = self.chunk_at_cursor()?;
        #[cfg(debug_assertions)]
        self.invariants.mark_seen(id);
        let _ = self.clock.chunk_overlapped(charge, VirtualDuration::ZERO);
        self.log.degradation.chunks_lost += 1;
        self.log.degradation.descriptors_lost += u64::from(self.ranking.count_of(id));
        self.log.degradation.lost_chunks.push(id);
        Ok(id)
    }

    /// See [`SearchSession::evaluate_rule`].
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

    /// Whether the query's own stop rule says to stop. A `k = 0` query
    /// stops before consuming anything — its empty answer is trivially
    /// exact — and so does one with no ranked chunk left.
    pub(crate) fn stop_satisfied(&self) -> bool {
        self.params.k == 0
            || self.cursor() >= self.ranking.len()
            || self.evaluate_rule(self.params.stop).is_some()
    }

    /// See [`SearchSession::remaining_work_estimate`].
    pub(crate) fn remaining_work_estimate(&self) -> usize {
        let cursor = self.cursor();
        match self.params.stop {
            StopRule::Chunks(n) => n.min(self.ranking.len()).saturating_sub(cursor),
            _ => self.ranking.len().saturating_sub(cursor),
        }
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

    /// The one finaliser: stamps `log` — this core's own, or a copy of it —
    /// with the figures only known at the end. `completed` is passed in
    /// because it is judged from the log while that is still in place.
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

    /// See [`SearchSession::result_for_rule`].
    pub(crate) fn result_for_rule(&self, rule: StopRule) -> SearchResult {
        self.finish(self.log.clone(), self.completed_for(rule))
    }

    /// The final result under the query's own stop rule.
    pub(crate) fn into_result(mut self) -> SearchResult {
        let completed = self.completed_for(self.params.stop);
        let log = std::mem::take(&mut self.log);
        self.finish(log, completed)
    }
}

/// A resumable query execution: step 2 of §4.3, one chunk at a time.
///
/// A session owns everything it needs — ranking, neighbour set, virtual
/// clock, log, and a handle to its [`ChunkSource`] — so it can be driven
/// incrementally ([`step`](Self::step)), to its own stop rule
/// ([`run_to_stop`](Self::run_to_stop)), or past rule after rule
/// ([`evaluate_rules`](Self::evaluate_rules)). The underlying stream is
/// opened lazily at the first `step`, so a store whose files vanish
/// between session construction and stepping surfaces a clean `Err`.
pub struct SearchSession {
    /// `None` for a *detached* session — one driven by an external
    /// scheduler through [`step_with`](Self::step_with) instead of pulling
    /// chunks itself.
    source: Option<Arc<dyn ChunkSource>>,
    /// Opened at the first [`step`](Self::step); re-opened per wave for
    /// two-level rankings.
    stream: Option<Box<dyn ChunkStream>>,
    core: SessionCore,
    query: Vector,
    /// `Some` for a quantized (ADC) session — see
    /// [`open_quantized`](Self::open_quantized).
    adc: Option<AdcScan>,
    /// `Some` for a session pinned to a mutated epoch — see
    /// [`apply_delta`](Self::apply_delta). Base rows whose ids are
    /// tombstoned here are filtered out of every scan.
    delta: Option<Arc<FoldedDelta>>,
    exhausted: bool,
    skip: SkipPolicy,
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
    /// A session over the default source — a [`PrefetchSource`] with the
    /// window depth from `params`, the same pipelined reader the one-shot
    /// search always used.
    pub fn open(
        store: &ChunkStore,
        model: &DiskModel,
        query: &Vector,
        params: &SearchParams,
    ) -> SearchSession {
        let source = Arc::new(PrefetchSource::new(store, params.prefetch_depth));
        SearchSession::with_source(store, model, query, params, source)
    }

    /// A session that scans **quantized** chunk payloads with the
    /// asymmetric-distance kernels instead of raw `f32` records.
    ///
    /// `store` must be a v3 (quantized) store. The session streams the
    /// compact code region (modelled bytes shrink accordingly), retains
    /// the best `rerank_mult · k` ADC candidates, and — after the scan —
    /// [`rerank_tail`](Self::rerank_tail) re-scores them against the raw
    /// `f32` records so the final top-`k` uses exact distances. With
    /// `coarse` the ranking is two-level (`ChunkRanking::rank_two_level`).
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
        let source = Arc::new(PrefetchSource::new(&quant, params.prefetch_depth));
        let mut session = SearchSession::from_parts(ranking, model, query, params, Some(source));
        session.core.neighbors = NeighborSet::new(params.k.saturating_mul(rerank_mult.max(1)));
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
        SearchSession::from_parts(ranking, model, query, params, Some(source))
    }

    /// [`with_source`](Self::with_source) over a pre-computed ranking (a
    /// two-level one, say).
    pub(crate) fn from_ranking(
        ranking: ChunkRanking,
        model: &DiskModel,
        query: &Vector,
        params: &SearchParams,
        source: Arc<dyn ChunkSource>,
    ) -> SearchSession {
        SearchSession::from_parts(ranking, model, query, params, Some(source))
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
        SearchSession::from_parts(ranking, model, query, params, None)
    }

    /// [`detached`](Self::detached) over a pre-computed ranking.
    pub fn detached_from_ranking(
        ranking: ChunkRanking,
        model: &DiskModel,
        query: &Vector,
        params: &SearchParams,
    ) -> SearchSession {
        SearchSession::from_parts(ranking, model, query, params, None)
    }

    fn from_parts(
        ranking: ChunkRanking,
        model: &DiskModel,
        query: &Vector,
        params: &SearchParams,
        source: Option<Arc<dyn ChunkSource>>,
    ) -> SearchSession {
        SearchSession {
            source,
            stream: None,
            core: SessionCore::new(ranking, model, params),
            query: *query,
            adc: None,
            delta: None,
            exhausted: false,
            skip: SkipPolicy::Abort,
        }
    }

    /// Pins this session to a mutated epoch by applying the epoch's folded
    /// delta, **before the first step**:
    ///
    /// * the live delta rows are scanned right now, as one delta-chunk
    ///   read ([`SessionCore::apply_delta`]);
    /// * every later chunk scan filters out base rows whose ids the delta
    ///   tombstones (deleted or superseded descriptors).
    ///
    /// An empty delta is a strict no-op: the session stays on the fused
    /// unfiltered kernel and remains bit-identical to a pre-epoch session
    /// — that is the read-compat contract for v2/v3 stores opened through
    /// the epoch layer. Quantized (ADC) sessions also honour tombstones;
    /// their rerank tail re-reads raw rows of *accepted* candidates only,
    /// which by construction are never tombstoned.
    ///
    /// Completion stays exact over the epoch's live set: the remaining
    /// bound is a lower bound over a superset of the live base rows, and
    /// the delta rows are all consumed up front.
    pub(crate) fn apply_delta(&mut self, delta: &Arc<FoldedDelta>) {
        self.core.apply_delta(&self.query, delta);
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
        &self.core.ranking
    }

    /// The parameters the session was opened with.
    pub fn params(&self) -> &SearchParams {
        &self.core.params
    }

    /// Chunks processed so far.
    pub fn chunks_read(&self) -> usize {
        self.core.log.chunks_read
    }

    /// Ranks consumed so far (scanned + skipped) — the rank the next fed
    /// chunk must hold.
    pub fn cursor(&self) -> usize {
        self.core.cursor()
    }

    /// Current kth-best distance (∞ until `k` neighbours are held).
    pub fn kth_dist(&self) -> f32 {
        self.core.neighbors.kth_dist()
    }

    /// The current neighbour set as raw `(id, dist_sq)` entries (see
    /// [`NeighborSet::entries`]) — what a scatter–gather merge re-offers
    /// into the global set to stay bit-identical to a solo scan.
    pub fn neighbor_entries(&self) -> Vec<(u32, f32)> {
        self.core.neighbors.entries()
    }

    /// A cheap upper estimate of the chunks this session still has to
    /// consume before its stop rule can fire: the explicit budget remainder
    /// for `Chunks(n)`, the whole unread tail otherwise. Schedulers use it
    /// to break deadline ties toward the query that can finish soonest
    /// (shortest-remaining-work) instead of falling back to admission
    /// order.
    pub fn remaining_work_estimate(&self) -> usize {
        self.core.remaining_work_estimate()
    }

    /// Whether every ranked chunk has been processed (scanned or skipped).
    pub(crate) fn is_exhausted(&self) -> bool {
        self.exhausted || self.core.cursor() == self.core.ranking.len()
    }

    /// The chunk id this session wants next (the next unread chunk in its
    /// ranked order), or `None` once the ranking is exhausted.
    ///
    /// Like [`step`](Self::step) this is mechanical — it does not consult
    /// the stop rule. An external driver deciding whether to keep feeding
    /// the session should check [`stop_satisfied`](Self::stop_satisfied)
    /// first; `next_wanted` only says *which* chunk a continued scan
    /// consumes.
    ///
    /// For a two-level ranking whose expanded waves are all consumed this
    /// returns `None` until the driver expands the next wave itself
    /// (`session.ranking` is read-only here); detached drivers use flat
    /// rankings, where this never arises.
    pub fn next_wanted(&self) -> Option<usize> {
        let cursor = self.core.cursor();
        if self.is_exhausted() || cursor >= self.core.ranking.expanded_len() {
            None
        } else {
            Some(self.core.ranking.chunk_at(cursor))
        }
    }

    /// Consumes the next ranked chunk *without scanning it*: the chunk is
    /// recorded in the log's degradation report and the scan continues
    /// with the following chunk. `charge` is the modelled time the failed
    /// delivery cost (retry timeouts, backoff), charged to the pipeline
    /// clock as I/O with no overlapping CPU. Returns the skipped chunk id.
    ///
    /// This is the primitive behind [`SkipPolicy::SkipUnavailable`]; an
    /// external driver (the serving scheduler) calls it directly when it
    /// abandons a fetch.
    pub fn skip_unavailable(&mut self, charge: VirtualDuration) -> Result<usize> {
        if self.is_exhausted() {
            return Err(eff2_storage::Error::Inconsistent(
                "no ranked chunk left to skip".to_string(),
            ));
        }
        self.core.chunk_lost(charge)
    }

    /// Advances the scan by exactly one chunk and returns its event, or
    /// `None` once every ranked chunk has been processed.
    ///
    /// Stepping is mechanical: it does **not** consult the stop rule, so
    /// callers can read past a satisfied rule (that is what
    /// [`evaluate_rules`](Self::evaluate_rules) does). Use
    /// [`stop_satisfied`](Self::stop_satisfied) to drive a rule-respecting
    /// loop, or [`run_to_stop`](Self::run_to_stop) to do both at once.
    pub fn step(&mut self) -> Result<Option<&ChunkEvent>> {
        loop {
            if self.is_exhausted() {
                self.exhausted = true;
                return Ok(None);
            }
            // Two-level ranking: once the scan has consumed every expanded
            // chunk, expand the next-nearest cell and stream its member
            // chunks as a fresh wave. Flat rankings never take this branch
            // (expanded == total, and is_exhausted fired above).
            if self.core.cursor() >= self.core.ranking.expanded_len() {
                if !self.core.ranking.expand_wave(&self.query) {
                    self.exhausted = true;
                    return Ok(None);
                }
                self.stream = None;
            }
            let Some(source) = self.source.as_ref() else {
                return Err(eff2_storage::Error::Inconsistent(
                    "detached session has no chunk source: drive it with step_with".to_string(),
                ));
            };
            let stream = match self.stream.as_mut() {
                Some(s) => s,
                None => self
                    .stream
                    .insert(source.open_stream(self.core.ranking.order_from(self.core.cursor()))?),
            };
            let Some(item) = stream.next_chunk() else {
                // This wave's stream is done. If a pending cell remains
                // (and the wave really was consumed), loop back to expand
                // it; otherwise the historical semantics hold: a drained
                // stream exhausts the session.
                self.stream = None;
                if self.core.ranking.has_pending()
                    && self.core.cursor() >= self.core.ranking.expanded_len()
                {
                    continue;
                }
                self.exhausted = true;
                return Ok(None);
            };
            match item {
                Ok(chunk) => {
                    self.ingest(&chunk);
                    return Ok(self.core.log.events.last());
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
                Err(e) => return Err(e),
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
        self.core.check_next(chunk.id)?;
        self.ingest(chunk);
        Ok(self.core.log.events.last())
    }

    /// The shared advance: scan `chunk` into the neighbour set, then book
    /// it consumed, its [`injected_delay`](SourcedChunk::injected_delay)
    /// included (see [`SessionCore::chunk_consumed`]).
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
                if self.core.neighbors.offer(id, d) {
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
                self.core
                    .neighbors
                    .offer(id, l2_sq(self.query.as_array(), row));
            }
        } else {
            // Scan the chunk against the query (fused block kernel:
            // blocked distances offered straight into the set).
            scan_block_into(
                self.query.as_array(),
                &chunk.payload.packed,
                &chunk.payload.ids,
                &mut self.core.neighbors,
            );
        }

        self.core.chunk_consumed(
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
        self.core.evaluate_rule(rule)
    }

    /// Whether this session's own stop rule says to stop scanning. A
    /// `k = 0` query stops before reading anything — its empty answer is
    /// trivially exact.
    pub fn stop_satisfied(&self) -> bool {
        self.exhausted || self.core.stop_satisfied()
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
        for id in self.core.neighbors.sorted_ids() {
            if let Some(&chunk) = adc.id_chunk.get(&id) {
                by_chunk.entry(chunk).or_default().push(id);
            }
        }
        let mut exact = NeighborSet::new(self.core.params.k);
        let mut reader = adc.raw.reader()?;
        let mut payload = ChunkPayload::default();
        for (&chunk, ids) in by_chunk.iter_mut() {
            ids.sort_unstable();
            let bytes = reader.read_chunk(chunk as usize, &mut payload)?;
            let io = self.core.model.io_time(bytes);
            let cpu = self.core.model.scan_time(ids.len());
            let _ = self.core.clock.chunk_overlapped(io, cpu);
            self.core.log.bytes_read += bytes;
            self.core.log.rerank_bytes += bytes;
            self.core.log.rerank_chunks += 1;
            let rows = as_rows(&payload.packed);
            for (row, &id) in rows.iter().zip(payload.ids.iter()) {
                if ids.binary_search(&id).is_ok() {
                    exact.offer(id, l2_sq(self.query.as_array(), row));
                }
            }
        }
        self.core.neighbors = exact;
        Ok(())
    }

    /// A [`SearchResult`] snapshot of the current state, finalised as if
    /// the search had stopped here under `rule`. Cheap relative to the
    /// scan (clones the log); the session remains usable.
    pub(crate) fn result_for_rule(&self, rule: StopRule) -> SearchResult {
        self.core.result_for_rule(rule)
    }

    /// Consumes the session into its final result under its own stop rule.
    pub fn into_result(self) -> SearchResult {
        self.core.into_result()
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
                if slot.is_none() && (self.core.params.k == 0 || self.evaluate_rule(rule).is_some())
                {
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
            .field("chunks_read", &self.core.log.chunks_read)
            .field("n_chunks", &self.core.ranking.len())
            .field("kth_dist", &self.core.neighbors.kth_dist())
            .field("exhausted", &self.exhausted)
            .finish_non_exhaustive()
    }
}

/// Evaluates many stop rules for one query in a single scan of the
/// collection (see [`SearchSession::evaluate_rules`]). `params.stop` is
/// ignored — `rules` says what to answer.
pub fn evaluate_stop_rules(
    store: &ChunkStore,
    model: &DiskModel,
    query: &Vector,
    params: &SearchParams,
    rules: &[StopRule],
) -> Result<Vec<SearchResult>> {
    SearchSession::open(store, model, query, params).evaluate_rules(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkers::{ChunkFormer, SrTreeChunker};
    use eff2_descriptor::{Descriptor, DescriptorSet};
    use eff2_storage::source::FileSource;
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
        let set = lumpy_set(300);
        let store = build_store("rankorder", &set, 30);
        let model = DiskModel::ata_2005();
        let q = Vector::splat(40.0);
        let ranking = ChunkRanking::rank(&store, &model, &q);
        assert_eq!(ranking.len(), store.n_chunks());
        for rank in 1..ranking.len() {
            assert!(ranking.ranked[rank].0 >= ranking.ranked[rank - 1].0);
        }
        // The remaining bound is non-decreasing as chunks are consumed.
        for processed in 1..=ranking.len() {
            assert!(ranking.remaining_bound(processed) >= ranking.remaining_bound(processed - 1));
        }
        assert_eq!(ranking.remaining_bound(ranking.len()), f32::INFINITY);
        let order = ranking.order();
        assert_eq!(order[0], ranking.chunk_at(0));
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

    /// A detached driver cannot expand waves: feeding or skipping a
    /// two-level session at a rank past its expanded waves is refused with
    /// a typed error instead of indexing past the expanded order.
    #[test]
    fn two_level_session_refuses_feeds_and_skips_past_its_expanded_waves() {
        use eff2_descriptor::{Codec, Sq8Codec};
        let set = lumpy_set(800);
        let formation = SrTreeChunker { leaf_size: 25 }.form(&set);
        let codec = Codec::Sq8(Sq8Codec::from_set(&set));
        let store = ChunkStore::create_quantized(
            &tmp_dir("twolevel"),
            "ix",
            &set,
            &formation.chunks,
            512,
            &codec,
        )
        .expect("create");
        let coarse = CoarseQuantizer::for_store(&store);
        let model = DiskModel::ata_2005();
        let q = set.vector_owned(5);
        let params = SearchParams::exact(5);
        let mut session =
            SearchSession::open_quantized(&store, &model, &q, &params, 2, Some(&coarse))
                .expect("open");
        session.step().expect("step").expect("event");
        while session.cursor() < session.ranking().expanded_len() {
            session.step().expect("step").expect("event");
        }
        assert!(
            session.cursor() < session.ranking().len(),
            "cells are still pending"
        );
        assert!(matches!(
            session.skip_unavailable(VirtualDuration::ZERO),
            Err(eff2_storage::Error::Inconsistent(_))
        ));
        let chunk = SourcedChunk {
            id: 0,
            payload: Arc::new(ChunkPayload::default()),
            bytes_read: 0,
            injected_delay: VirtualDuration::ZERO,
            from_disk: true,
        };
        assert!(matches!(
            session.step_with(&chunk),
            Err(eff2_storage::Error::Inconsistent(_))
        ));
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
        let mut reader = store.reader().expect("reader");
        while !fed.stop_satisfied() {
            let Some(id) = fed.next_wanted() else { break };
            let mut payload = eff2_storage::chunkfile::ChunkPayload::default();
            let bytes_read = reader.read_chunk(id, &mut payload).expect("read");
            let chunk = SourcedChunk {
                id,
                payload: Arc::new(payload),
                bytes_read,
                injected_delay: VirtualDuration::ZERO,
                from_disk: true,
            };
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
        let mut reader = store.reader().expect("reader");
        let mut payload = eff2_storage::chunkfile::ChunkPayload::default();
        let bytes_read = reader.read_chunk(wrong, &mut payload).expect("read");
        let chunk = SourcedChunk {
            id: wrong,
            payload: Arc::new(payload),
            bytes_read,
            injected_delay: VirtualDuration::ZERO,
            from_disk: true,
        };
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

    /// Delivers through an inner source but replaces the listed chunk ids
    /// with a permanent [`Error::ChunkLost`], consuming their position —
    /// the shape eff2-chaos's retry layer produces.
    ///
    /// [`Error::ChunkLost`]: eff2_storage::Error::ChunkLost
    struct LosingSource {
        inner: Arc<dyn ChunkSource>,
        lost: Vec<usize>,
        spent: VirtualDuration,
    }

    struct LosingStream {
        inner: Box<dyn ChunkStream>,
        lost: Vec<usize>,
        spent: VirtualDuration,
    }

    impl ChunkSource for LosingSource {
        fn open_stream(&self, order: Vec<usize>) -> Result<Box<dyn ChunkStream>> {
            Ok(Box::new(LosingStream {
                inner: self.inner.open_stream(order)?,
                lost: self.lost.clone(),
                spent: self.spent,
            }))
        }
    }

    impl ChunkStream for LosingStream {
        fn next_chunk(&mut self) -> Option<Result<SourcedChunk>> {
            match self.inner.next_chunk()? {
                Ok(chunk) if self.lost.contains(&chunk.id) => {
                    Some(Err(eff2_storage::Error::ChunkLost {
                        chunk: chunk.id,
                        attempts: 3,
                        spent: self.spent,
                    }))
                }
                item => Some(item),
            }
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
}
