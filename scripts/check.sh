#!/usr/bin/env bash
# Full local gate: formatting, clippy with warnings denied (the panic,
# determinism and hygiene rules), release build, tests, eval and example
# smokes, rustdoc. It measures no wall time: figures for claims come from
# `perfbench`. Run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

# The gate must leave the working tree exactly as it found it.
TREE_BEFORE="$(git status --porcelain)"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test eff2-core --features strict-invariants (the session-core invariant layer)"
cargo test -q -p eff2-core --features strict-invariants

echo "==> cargo test perfbench (the benchmark's smoke + contract tests, against this tree)"
# perfbench/ is its own workspace: this is the only gate that compiles it
# against eff2-serve's public surface before the benchmark itself runs.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> eval smokes (tiny-scale exp4..exp9; a gate that prints NO is a non-zero exit)"
EVAL_OUT="$(mktemp -d)"
for exp in exp4 exp5 exp6 exp7 exp8 exp9; do
  cargo run --release -p eff2-eval -- "$exp" --scale 2500 --queries 6 --out "$EVAL_OUT"
done
rm -rf "$EVAL_OUT"

echo "==> example binaries run (the public API end to end; temp dirs only)"
for example in quickstart copyright_search chunk_size_tuning approximate_vs_exact medrank_baseline; do
  cargo run --release -q -p eff2-examples --bin "$example" >/dev/null
done

echo "==> thread-count determinism (approximate_vs_exact forms a 15k BAG index; its stdout holds no wall time)"
ONE_WORKER="$(EFF2_THREADS=1 cargo run --release -q -p eff2-examples --bin approximate_vs_exact)"
ALL_WORKERS="$(env -u EFF2_THREADS cargo run --release -q -p eff2-examples --bin approximate_vs_exact)"
if [ "$ONE_WORKER" != "$ALL_WORKERS" ]; then
  diff <(echo "$ONE_WORKER") <(echo "$ALL_WORKERS") || true
  echo "approximate_vs_exact prints differently with EFF2_THREADS=1 and the default worker count" >&2
  exit 1
fi

echo "==> cargo doc --workspace --no-deps (rustdoc warnings denied: no dangling doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> git status --porcelain unchanged by the run"
test "$(git status --porcelain)" = "$TREE_BEFORE"

echo "==> all checks passed"
