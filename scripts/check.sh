#!/usr/bin/env bash
# Full local gate: formatting, release build (incl. examples), tests, and
# clippy with warnings denied.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release -p eff2-examples (all example binaries)"
cargo build --release -p eff2-examples

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test eff2-core --features strict-invariants (the session-core invariant layer)"
cargo test -q -p eff2-core --features strict-invariants

echo "==> cargo test perfbench (the benchmark's smoke + contract tests, against this tree)"
# perfbench/ is its own workspace: this is the only gate that compiles it
# against eff2-serve's public surface before the benchmark itself runs.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> eff2-lint --deny (workspace invariant audit, incl. interprocedural rules)"
LINT_ERR="$(mktemp)"
cargo run --release -p eff2-lint -- --deny 2>"$LINT_ERR"
cat "$LINT_ERR" >&2
# The timing line ("lint: N files, M symbols, K ms") tracks analysis cost
# as the workspace grows; its absence means the audit did not really run.
grep -q "^lint: " "$LINT_ERR"
rm -f "$LINT_ERR"

echo "==> eval exp4 smoke (tiny-scale serving sweep)"
EXP4_OUT="$(mktemp -d)"
EFF2_SCALE=2500 EFF2_QUERIES=6 cargo run --release -p eff2-eval -- exp4 \
  --out "$EXP4_OUT" | tee "$EXP4_OUT/exp4.txt"
grep -q "bit-identical to serial under every policy: yes" "$EXP4_OUT/exp4.txt"
rm -rf "$EXP4_OUT"

echo "==> eval exp5 smoke (tiny-scale chaos sweep)"
EXP5_OUT="$(mktemp -d)"
EFF2_SCALE=2500 EFF2_QUERIES=6 cargo run --release -p eff2-eval -- exp5 \
  --out "$EXP5_OUT" | tee "$EXP5_OUT/exp5.txt"
grep -q "Rate-0 chaos stack bit-identical to the undecorated search: yes" "$EXP5_OUT/exp5.txt"
grep -q "All faulted searches completed with degradation reports: yes" "$EXP5_OUT/exp5.txt"
rm -rf "$EXP5_OUT"

echo "==> eval exp6 smoke (quantized descriptors + two-level ranking)"
EXP6_OUT="$(mktemp -d)"
EFF2_SCALE=2500 EFF2_QUERIES=6 cargo run --release -p eff2-eval -- exp6 \
  --out "$EXP6_OUT" | tee "$EXP6_OUT/exp6.txt"
grep -q "Rerank tail bit-identical to the uncompressed baseline at full budget: yes" "$EXP6_OUT/exp6.txt"
grep -q "Precision monotonically non-decreasing in rerank depth: yes" "$EXP6_OUT/exp6.txt"
grep -q "v2 and v3 chunk files read-compatible: yes" "$EXP6_OUT/exp6.txt"
rm -rf "$EXP6_OUT"

echo "==> eval exp7 smoke (tiny-scale sharded-fleet sweep)"
EXP7_OUT="$(mktemp -d)"
EFF2_SCALE=2500 EFF2_QUERIES=6 cargo run --release -p eff2-eval -- exp7 \
  --out "$EXP7_OUT" | tee "$EXP7_OUT/exp7.txt"
grep -q "All merged fleet answers bit-identical to solo under every cell: yes" "$EXP7_OUT/exp7.txt"
grep -q "Replication masked permanent chunk loss as failover: yes" "$EXP7_OUT/exp7.txt"
rm -rf "$EXP7_OUT"

echo "==> eval exp8 smoke (tiny-scale live-mutation sweep)"
EXP8_OUT="$(mktemp -d)"
EFF2_SCALE=2500 EFF2_QUERIES=6 cargo run --release -p eff2-eval -- exp8 \
  --out "$EXP8_OUT" | tee "$EXP8_OUT/exp8.txt"
grep -q "Every served result bit-identical to a solo run on its pinned epoch snapshot: yes" "$EXP8_OUT/exp8.txt"
grep -q "Compactor kept every installed chunk within 2x the target size: yes" "$EXP8_OUT/exp8.txt"
grep -q "reduced the final imbalance factor vs never-compacting under skewed ingest: yes" "$EXP8_OUT/exp8.txt"
rm -rf "$EXP8_OUT"

echo "==> eval exp9 smoke (tiny-scale image-query sweep)"
EXP9_OUT="$(mktemp -d)"
EFF2_SCALE=2500 EFF2_QUERIES=6 cargo run --release -p eff2-eval -- exp9 \
  --out "$EXP9_OUT" | tee "$EXP9_OUT/exp9.txt"
grep -q "Run-to-completion cells bit-identical to the solo image reference: yes" "$EXP9_OUT/exp9.txt"
grep -q "Descriptor accounting exact in every cell: yes" "$EXP9_OUT/exp9.txt"
grep -q "at <=0.5x the descriptor sessions: yes" "$EXP9_OUT/exp9.txt"
# Descriptor sessions spent by the full run vs the tightest early-stop rule
# at 4-way concurrency: early stopping must spend strictly fewer sessions.
RUNALL_SPENT="$(awk '$1=="run-all" && $2=="4" {print $3}' "$EXP9_OUT/exp9.txt")"
W1_SPENT="$(awk '$1=="stable-top3-w1" && $2=="4" {print $3}' "$EXP9_OUT/exp9.txt")"
test "$W1_SPENT" -lt "$RUNALL_SPENT"
rm -rf "$EXP9_OUT"

# A compile-and-run smoke of the bench targets, nothing more: figures for
# claims come from `perfbench --out` / `--compare` (see BENCHMARK.json).
# Every bench target is compiled; only the six named below are run.
echo "==> cargo bench --no-run (all twelve bench targets compile)"
cargo bench -p eff2-bench --no-run

echo "==> criterion benches (reduced sampling: kernels, batch_search, scheduler, fleet, compaction, image_vote)"
EFF2_BENCH_SCALE=4000 cargo bench -p eff2-bench \
  --bench kernels --bench batch_search --bench scheduler_throughput --bench fleet \
  --bench compaction --bench image_vote -- \
  --sample-size 10 --warm-up-time 0.5 --measurement-time 1

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> all checks passed"
