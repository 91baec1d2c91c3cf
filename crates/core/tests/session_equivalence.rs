//! The resumable engine must be observationally identical to the search it
//! replaced: driving a [`SearchSession`] step by step — through any
//! [`ChunkSource`] — yields `ChunkEvent` traces and neighbour sets
//! bit-identical to one-shot `search()`, under every stop rule and
//! chunker; `SearchSession::evaluate_rules()` answers every rule from ONE
//! scan with results identical to the individual per-rule searches; and a
//! store whose chunk file vanishes or truncates between session
//! construction and the first `step()` surfaces a clean `Err`, never a
//! panic.

#![cfg(test)]

use eff2_bag::BagConfig;
use eff2_core::chunkers::{
    BagChunker, ChunkFormer, HybridChunker, RandomChunker, RoundRobinChunker, SrTreeChunker,
};
use eff2_core::search::search;
use eff2_core::session::SearchSession;
use eff2_core::{SearchParams, SearchResult, StopRule};
use eff2_descriptor::{Descriptor, DescriptorSet, Vector};
use eff2_storage::diskmodel::{DiskModel, VirtualDuration};
use eff2_storage::source::{
    walk, ChunkSource, ChunkStream, FileSource, PrefetchSource, ReadState, ResidentSource,
    SourcedChunk,
};
use eff2_storage::{ChunkStore, Result as StorageResult};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let unique = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "eff2_session_eq_{tag}_{}_{unique}",
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

fn build_store(tag: &str, set: &DescriptorSet, former: &dyn ChunkFormer) -> ChunkStore {
    let formation = former.form(set);
    ChunkStore::create(&tmp_dir(tag), "ix", set, &formation.chunks, 512).expect("create")
}

/// Bit-identity over everything the paper's figures are computed from
/// (wall-clock time is the one legitimately nondeterministic field).
fn assert_bit_identical(want: &SearchResult, got: &SearchResult, tag: &str) {
    if let Some(diff) = want.first_difference(got) {
        panic!("{tag}: {diff}");
    }
}

/// Drives a session one explicit `step()` at a time (checking the stop
/// predicate between steps, exactly what `run_to_stop` does internally)
/// and finalises it.
fn drive_stepwise(mut session: SearchSession) -> SearchResult {
    let mut steps = 0usize;
    while !session.stop_satisfied() {
        match session.step().expect("step") {
            Some(event) => assert_eq!(event.rank, steps, "events arrive in rank order"),
            None => break,
        }
        steps += 1;
    }
    assert_eq!(session.chunks_read(), steps);
    session.into_result()
}

// ---------------------------------------------------------------------------
// Property: stepwise session ≡ one-shot search, every rule × chunker ×
// source.
// ---------------------------------------------------------------------------

fn arb_former() -> impl Strategy<Value = Box<dyn ChunkFormer>> {
    prop_oneof![
        (8usize..60)
            .prop_map(|leaf| Box::new(SrTreeChunker { leaf_size: leaf }) as Box<dyn ChunkFormer>),
        (1usize..16)
            .prop_map(|n| Box::new(RoundRobinChunker { n_chunks: n }) as Box<dyn ChunkFormer>),
        (1usize..16, 0u64..4).prop_map(|(n, seed)| {
            Box::new(RandomChunker { n_chunks: n, seed }) as Box<dyn ChunkFormer>
        }),
        (10usize..50).prop_map(|size| {
            Box::new(HybridChunker {
                chunk_size: size,
                sweeps: 1,
                neighbor_chunks: 2,
                min_fill: 0.5,
                max_fill: 1.5,
            }) as Box<dyn ChunkFormer>
        }),
    ]
}

fn arb_stop() -> impl Strategy<Value = StopRule> {
    prop_oneof![
        (0usize..10).prop_map(StopRule::Chunks),
        (0.0f64..0.2).prop_map(|s| StopRule::VirtualTime(VirtualDuration::from_secs(s))),
        Just(StopRule::ToCompletion),
        (0.0f32..1.5).prop_map(StopRule::ToCompletionEps),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stepwise_session_bit_identical_to_one_shot(
        former in arb_former(),
        stop in arb_stop(),
        n in 40usize..240,
        k in 0usize..12,
        qsel in 0usize..4,
    ) {
        let set = lumpy_set(n);
        let store = build_store("prop", &set, former.as_ref());
        let model = DiskModel::ata_2005();
        let query = match qsel {
            0 => Vector::ZERO,
            1 => Vector::splat(9.5),
            2 => set.vector_owned(n / 2),
            _ => set.vector_owned(n - 1),
        };
        let params = SearchParams { k, stop, prefetch_depth: 2, log_snapshots: true };
        let tag = format!("{}/{stop:?}/k{k}", former.name());

        let want = search(&store, &model, &query, &params).expect("one-shot");

        // Stepwise through `open`'s own file source.
        let got = drive_stepwise(SearchSession::open(&store, &model, &query, &params));
        assert_bit_identical(&want, &got, &format!("{tag}/open"));

        // Twice through a resident cache whose budget pins only the largest
        // chunk: a scan that reads more than that evicts mid-scan, and its
        // second run reads the evicted chunks again.
        let (largest, largest_count) = store
            .metas()
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| m.count)
            .map(|(id, m)| (id, u64::from(m.count)))
            .expect("at least one chunk");
        let probe = ResidentSource::new(&store, u64::MAX);
        probe.fetch(largest, &mut ReadState::default()).expect("probe");
        let small = Arc::new(ResidentSource::new(&store, probe.stats().resident_bytes));
        for pass in 0..2 {
            let evicting = drive_stepwise(SearchSession::with_source(
                &store, &model, &query, &params, Arc::clone(&small) as Arc<_>,
            ));
            assert_bit_identical(&want, &evicting, &format!("{tag}/evicting{pass}"));
        }
        let stats = small.stats();
        let reads = want.log.chunks_read as u64;
        prop_assert_eq!(stats.hits + stats.misses, 2 * reads);
        if want.log.descriptors_scanned > largest_count {
            prop_assert!(stats.evictions > 0, "{}: nothing evicted", tag);
            prop_assert!(stats.misses > reads, "{}: nothing read again", tag);
        }

        // Twice through a shared resident cache: the second run is served
        // from memory and must still be bit-identical.
        let resident = Arc::new(ResidentSource::new(&store, u64::MAX));
        for pass in 0..2 {
            let cached = drive_stepwise(SearchSession::with_source(
                &store, &model, &query, &params, Arc::clone(&resident) as Arc<_>,
            ));
            assert_bit_identical(&want, &cached, &format!("{tag}/resident{pass}"));
        }
    }
}

/// BAG's uneven chunks (too slow to form inside the property loop) get a
/// deterministic pass over every stop rule.
#[test]
fn bag_chunker_session_equivalence() {
    let set = lumpy_set(150);
    let former = BagChunker {
        config: BagConfig {
            mpi: 5.0,
            ..BagConfig::default()
        },
        target_clusters: 6,
    };
    let store = build_store("bag", &set, &former);
    let model = DiskModel::ata_2005();
    let query = set.vector_owned(75);
    for stop in [
        StopRule::Chunks(2),
        StopRule::VirtualTime(VirtualDuration::from_ms(40.0)),
        StopRule::ToCompletion,
        StopRule::ToCompletionEps(0.5),
    ] {
        let params = SearchParams {
            k: 8,
            stop,
            prefetch_depth: 2,
            log_snapshots: true,
        };
        let want = search(&store, &model, &query, &params).expect("one-shot");
        let got = drive_stepwise(SearchSession::open(&store, &model, &query, &params));
        assert_bit_identical(&want, &got, &format!("bag/{stop:?}"));
    }
}

/// A flat ranking orders its first 32 ranks up front and the rest on first
/// demand. Sessions that read well past those 32 — pulled, fed by hand,
/// and every rule answered from one scan — must still agree bit for bit.
#[test]
fn sessions_that_read_past_the_ranked_head_are_bit_identical() {
    const RANKED_HEAD: usize = 32;
    let set = lumpy_set(1500);
    let store = build_store("past_head", &set, &SrTreeChunker { leaf_size: 10 });
    assert!(store.n_chunks() >= 100, "{} chunks", store.n_chunks());
    let model = DiskModel::ata_2005();
    let rules = [
        StopRule::ToCompletion,
        StopRule::Chunks(40),
        StopRule::ToCompletionEps(0.3),
    ];
    for (qtag, query) in [
        ("offset", Vector::splat(9.5)),
        ("inset", set.vector_owned(777)),
    ] {
        // Chunks hold at most 10 descriptors, so 400 neighbours fill only
        // after 40 chunks: every rule reads past the head.
        let params = SearchParams {
            k: 400,
            stop: StopRule::ToCompletion,
            prefetch_depth: 2,
            log_snapshots: true,
        };
        let all = SearchSession::open(&store, &model, &query, &params)
            .evaluate_rules(&rules)
            .expect("evaluate_rules");
        for (&stop, from_one_scan) in rules.iter().zip(&all) {
            let tag = format!("{qtag}/{stop:?}");
            let params = SearchParams { stop, ..params };
            let pulled = search(&store, &model, &query, &params).expect("pulled");
            assert!(
                pulled.log.chunks_read > RANKED_HEAD,
                "{tag}: read only {} chunks",
                pulled.log.chunks_read
            );

            let mut fed = SearchSession::detached(&store, &model, &query, &params);
            let (files, mut read) = (FileSource::new(&store), ReadState::default());
            while !fed.stop_satisfied() {
                let Some(id) = fed.next_wanted() else { break };
                let chunk = files.fetch(id, &mut read).expect("read");
                fed.step_with(&chunk).expect("step_with").expect("event");
            }
            let fed = fed.into_result();

            assert_bit_identical(&pulled, &fed, &format!("{tag}/fed"));
            assert_bit_identical(&pulled, from_one_scan, &format!("{tag}/one-scan"));
        }
    }
}

// ---------------------------------------------------------------------------
// evaluate_rules: identical to per-rule searches, one read pass.
// ---------------------------------------------------------------------------

/// Wraps a source and counts every chunk it delivers.
#[derive(Clone)]
struct CountingSource {
    inner: Arc<dyn ChunkSource>,
    delivered: Arc<AtomicUsize>,
}

impl ChunkSource for CountingSource {
    fn fetch(&self, id: usize, state: &mut ReadState) -> StorageResult<SourcedChunk> {
        let chunk = self.inner.fetch(id, state)?;
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(chunk)
    }

    fn open_stream(&self, order: Vec<usize>) -> StorageResult<Box<dyn ChunkStream>> {
        Ok(walk(self.clone(), order))
    }
}

#[test]
fn evaluate_stop_rules_matches_per_rule_searches_in_one_pass() {
    let set = lumpy_set(500);
    let model = DiskModel::ata_2005();
    let rules = [
        StopRule::Chunks(0),
        StopRule::Chunks(1),
        StopRule::Chunks(4),
        StopRule::Chunks(999),
        StopRule::VirtualTime(VirtualDuration::from_ms(20.0)),
        StopRule::VirtualTime(VirtualDuration::from_secs(0.08)),
        StopRule::VirtualTime(VirtualDuration::from_secs(1e6)),
        StopRule::ToCompletion,
        StopRule::ToCompletionEps(0.0),
        StopRule::ToCompletionEps(0.5),
        StopRule::ToCompletionEps(1.0),
    ];
    for (ftag, former) in [
        ("sr", &SrTreeChunker { leaf_size: 40 } as &dyn ChunkFormer),
        (
            "rr",
            &RoundRobinChunker { n_chunks: 11 } as &dyn ChunkFormer,
        ),
    ] {
        let store = build_store(&format!("rules_{ftag}"), &set, former);
        for (qtag, query) in [
            ("inset", set.vector_owned(123)),
            ("offset", Vector::splat(9.5)),
        ] {
            let params = SearchParams {
                k: 10,
                stop: StopRule::ToCompletion, // ignored by evaluate_rules
                prefetch_depth: 2,
                log_snapshots: true,
            };

            // The expensive way: one full search per rule.
            let mut individual = Vec::new();
            let mut individual_reads = 0usize;
            for &stop in &rules {
                let got = search(&store, &model, &query, &SearchParams { stop, ..params })
                    .expect("per-rule search");
                individual_reads += got.log.chunks_read;
                individual.push(got);
            }

            // The session way: every rule from one counted scan.
            let delivered = Arc::new(AtomicUsize::new(0));
            let source = Arc::new(CountingSource {
                inner: Arc::new(FileSource::new(&store)),
                delivered: Arc::clone(&delivered),
            });
            let all = SearchSession::with_source(&store, &model, &query, &params, source)
                .evaluate_rules(&rules)
                .expect("evaluate_rules");

            assert_eq!(all.len(), rules.len());
            for ((want, got), &rule) in individual.iter().zip(all.iter()).zip(rules.iter()) {
                assert_bit_identical(want, got, &format!("{ftag}/{qtag}/{rule:?}"));
            }

            // One read pass: the collection is never re-read per rule.
            let reads = delivered.load(Ordering::Relaxed);
            let deepest = individual
                .iter()
                .map(|r| r.log.chunks_read)
                .max()
                .expect("rules");
            assert_eq!(
                reads, deepest,
                "{ftag}/{qtag}: must read exactly as deep as the longest rule"
            );
            assert!(
                reads <= store.n_chunks(),
                "{ftag}/{qtag}: one pass over {} chunks, read {reads}",
                store.n_chunks()
            );
            assert!(
                individual_reads > reads,
                "{ftag}/{qtag}: per-rule searches re-read ({individual_reads} vs {reads})"
            );
        }
    }
}

#[test]
fn evaluate_stop_rules_with_k_zero_reads_nothing() {
    let set = lumpy_set(100);
    let store = build_store("rules_k0", &set, &SrTreeChunker { leaf_size: 25 });
    let model = DiskModel::ata_2005();
    let params = SearchParams {
        k: 0,
        stop: StopRule::ToCompletion,
        prefetch_depth: 1,
        log_snapshots: false,
    };
    let rules = [StopRule::Chunks(3), StopRule::ToCompletion];
    let all = SearchSession::open(&store, &model, &Vector::ZERO, &params)
        .evaluate_rules(&rules)
        .expect("evaluate");
    for got in &all {
        assert!(got.neighbors.is_empty());
        assert_eq!(got.log.chunks_read, 0);
        assert!(got.log.completed, "empty answers are trivially exact");
    }
}

// ---------------------------------------------------------------------------
// Failure injection: files vanishing between open and the first step.
// ---------------------------------------------------------------------------

fn sources_for(store: &ChunkStore) -> Vec<(&'static str, Arc<dyn ChunkSource>)> {
    vec![
        ("file", Arc::new(FileSource::new(store))),
        ("prefetch", Arc::new(PrefetchSource::new(store, 2))),
        ("resident", Arc::new(ResidentSource::new(store, u64::MAX))),
    ]
}

#[test]
fn chunk_file_deleted_between_open_and_first_step() {
    let set = lumpy_set(200);
    let model = DiskModel::ata_2005();
    let params = SearchParams::exact(5);
    let query = set.vector_owned(7);
    for i in 0..3 {
        // Fresh store per source: the file is destroyed each round.
        let store = build_store("deleted", &set, &SrTreeChunker { leaf_size: 20 });
        let (tag, source) = sources_for(&store).swap_remove(i);
        let mut session = SearchSession::with_source(&store, &model, &query, &params, source);
        std::fs::remove_file(store.chunk_path()).expect("delete chunk file");
        let got = session.step();
        assert!(
            got.is_err(),
            "{tag}: deleted chunk file must be a clean Err"
        );
    }
}

#[test]
fn chunk_file_truncated_between_open_and_first_step() {
    let set = lumpy_set(300);
    let model = DiskModel::ata_2005();
    let params = SearchParams::exact(5);
    let query = Vector::splat(40.0); // rank order reaches far chunks
    for i in 0..3 {
        let store = build_store("truncated", &set, &SrTreeChunker { leaf_size: 20 });
        let (tag, source) = sources_for(&store).swap_remove(i);
        let mut session = SearchSession::with_source(&store, &model, &query, &params, source);
        let data = std::fs::read(store.chunk_path()).expect("read file");
        std::fs::write(store.chunk_path(), &data[..data.len() / 2]).expect("truncate");
        // Some prefix of chunks may still be readable; the scan must end
        // in a clean Err, never a panic and never silent success.
        let mut saw_err = false;
        loop {
            match session.step() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => {
                    saw_err = true;
                    break;
                }
            }
        }
        assert!(saw_err, "{tag}: truncated chunk file must surface an Err");
    }
}
