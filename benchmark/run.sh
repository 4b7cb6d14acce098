#!/usr/bin/env bash
# The repo benchmark: builds the standalone benchmark crate (offline, release)
# and runs it. See benchmark/README.md and BENCHMARK.json.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S]
#       the whole suite: each workload plain, then traced with the replay
#       probes; one line per metric `workload metric value unit`, plus
#       benchmark/out/result.json and benchmark/out/trace-<workload>.jsonl
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the JSON result
#   benchmark/run.sh --check | --selfcheck
set -euo pipefail
cd "$(dirname "$0")/.."

# The driver sets CARGO_TARGET_DIR; by hand the crate builds into its own
# (untracked) target directory.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

COLOCK_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export COLOCK_BENCH_RUSTC
exec "$target/release/colock-benchmark" "$@"
