#!/usr/bin/env bash
# Full local gate: formatting, release build (incl. examples), tests, and
# clippy with warnings denied.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

# The gate must leave the working tree exactly as it found it.
TREE_BEFORE="$(git status --porcelain)"

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

echo "==> eval smokes (tiny-scale exp4..exp9; a gate that prints NO is a non-zero exit)"
EVAL_OUT="$(mktemp -d)"
for exp in exp4 exp5 exp6 exp7 exp8 exp9; do
  cargo run --release -p eff2-eval -- "$exp" --scale 2500 --queries 6 --out "$EVAL_OUT"
done
rm -rf "$EVAL_OUT"

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

echo "==> git status --porcelain unchanged by the run"
test "$(git status --porcelain)" = "$TREE_BEFORE"

echo "==> all checks passed"
