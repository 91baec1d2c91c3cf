//! The metric names of the benchmark, as `BENCHMARK.json` declares them
//! (`tests/contract.rs` holds the two in step). Every performance claim in
//! this repository is made in these names.

/// One declared metric: `(name, unit)`.
pub type Metric = (&'static str, &'static str);

/// One end-to-end metric with the direction that is better and the share
/// of the parent's median it may worsen by before that is a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Regression bound, as a share of the parent's median.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a user of the system sees, per workload.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("op_p50_us", "us", false, 0.25),
    e2e("throughput_ops_s", "ops/s", true, 0.25),
    e2e("cpu_us_per_op", "us", false, 0.25),
    e2e("modelled_p50", "virtual_ms", false, 0.25),
    e2e("modelled_p95", "virtual_ms", false, 0.25),
    e2e("precision", "ratio", true, 0.10),
    e2e("disk_bytes_per_user_byte", "ratio", false, 0.05),
];

/// The wall-clock tail of an op as `--compare` judges it. It is declared
/// per-layer and carries no bound (a shared host moves it further than any
/// bound the contract allows; see the README), so the bound here only tells
/// `--compare` when to say `unresolved`.
pub const OP_P95_US: EndToEnd = e2e("op_p95_us", "us", false, 0.25);

/// End-to-end metrics that are counts or virtual-clock times: equal on
/// every run of the same commit with the same seed.
pub const DETERMINISTIC: [&str; 4] = [
    "modelled_p50",
    "modelled_p95",
    "precision",
    "disk_bytes_per_user_byte",
];

/// Single-layer metrics, layer = `crate.module`. A workload that bypasses
/// a layer reports 0 for it.
pub const PER_LAYER: [Metric; 62] = [
    // the whole op: the wall-clock tail, which on a shared host is too
    // unsteady to carry a bound (see the README)
    ("op_p95_us", "us"),
    // descriptor
    ("descriptor.kernels.scan_ns_per_desc", "ns"),
    ("descriptor.kernels.adc_scan_ns_per_desc", "ns"),
    ("descriptor.quant.prepare_us", "us"),
    ("descriptor.quant.train_s", "s"),
    ("descriptor.neighbors.offer_ns", "ns"),
    ("descriptor.gen.collection_s", "s"),
    // storage
    ("storage.chunkfile.decode_ns_per_desc", "ns"),
    ("storage.source.file_fetch_us_per_chunk", "us"),
    ("storage.source.prefetch_wait_us_per_chunk", "us"),
    ("storage.source.prefetch_open_us", "us"),
    ("storage.source.resident_hit_us", "us"),
    ("storage.source.resident_open_us", "us"),
    ("storage.source.resident_hit_ratio", "ratio"),
    ("storage.source.resident_evictions_per_op", "count"),
    ("storage.store.bytes_read_per_op", "bytes"),
    ("storage.store.open_ms", "ms"),
    ("storage.store.create_s", "s"),
    ("storage.epoch.append_us_per_mutation", "us"),
    // core
    ("core.session.rank_us", "us"),
    ("core.session.open_us", "us"),
    ("core.session.step_us_per_chunk", "us"),
    ("core.session.result_us", "us"),
    ("core.search.chunks_read_per_query", "count"),
    ("core.search.descriptors_scanned_per_query", "count"),
    ("core.adc.rerank_tail_us", "us"),
    ("core.adc.rerank_bytes_per_query", "bytes"),
    ("core.merge.incorporate_us", "us"),
    ("core.image.absorb_rank_us", "us"),
    // srtree / bag
    ("srtree.form_s", "s"),
    ("bag.form_s", "s"),
    ("bag.distance_ops", "count"),
    // parallel
    ("parallel.truth_s", "s"),
    ("parallel.batch_speedup_t2", "ratio"),
    // serve
    ("serve.scheduler.us_per_feed", "us"),
    ("serve.scheduler.self_us_per_query", "us"),
    ("serve.scheduler.feeds_per_fetch", "count"),
    ("serve.scheduler.disk_reads_per_query", "count"),
    ("serve.scheduler.deadline_miss_ratio", "ratio"),
    ("serve.fleet.us_per_feed", "us"),
    ("serve.fleet.failovers_per_op", "count"),
    ("serve.fleet.cross_shard_fetches_per_query", "count"),
    ("serve.fleet.overhead_vs_scheduler", "ratio"),
    ("serve.image.us_per_feed", "us"),
    ("serve.image.spent_fraction", "ratio"),
    ("serve.image.feeds_per_fetch", "count"),
    ("serve.live.compactions_per_op", "count"),
    ("serve.live.compaction_cost_modelled_s", "s"),
    ("serve.live.stall_us", "us"),
    // epoch
    ("epoch.begin_compaction_ms", "ms"),
    ("epoch.install_compaction_ms", "ms"),
    ("epoch.pin_us", "us"),
    ("epoch.bytes_written_per_mutation", "bytes"),
    // shard / chaos / workload
    ("shard.map_build_us", "us"),
    ("shard.imbalance_factor", "ratio"),
    ("chaos.retry_overhead_us_per_chunk", "us"),
    ("chaos.fault_draw_ns", "ns"),
    ("workload.gen_ms", "ms"),
    // process / trace
    ("process.peak_rss_mb", "mb"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_sum_vs_p50", "ratio"),
    ("trace.spans_per_op", "count"),
];

/// Per-layer metrics that are counts: equal on every run of the same
/// commit with the same seed.
pub fn is_count(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|(n, unit)| *n == name && matches!(*unit, "count" | "bytes"))
        || matches!(
            name,
            "storage.source.resident_hit_ratio"
                | "serve.scheduler.deadline_miss_ratio"
                | "serve.image.spent_fraction"
                | "serve.live.compaction_cost_modelled_s"
                | "shard.imbalance_factor"
        )
}
