#!/usr/bin/env bash
# The repository's benchmark: builds benchmark/ (a cargo package of its own,
# offline, release) and runs it. Start it from the root of a checkout:
#
#   benchmark/run.sh                       every workload, end-to-end metrics
#   benchmark/run.sh --trace               ... plus the traced run (per-layer metrics, span files)
#   benchmark/run.sh --workload storm_wb   one workload; last line is the result JSON
#   benchmark/run.sh --selfcheck           virtual clock vs results/ci_baseline, tracing, tiling
#   benchmark/run.sh --compare A.json B.json
#
# Options: --seed N (default 1), --seconds S (default 8), --out DIR (default
# benchmark/out). See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo's target directory: where the caller points CARGO_TARGET_DIR (relative
# to the checkout root it starts us from), else benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Keep the kernel out of the timed phases. Every iteration allocates and frees
# a device of up to 400 MB and the product allocates its read buffers inside
# the timed phase; with glibc's defaults that memory goes back to the kernel
# and is faulted in again each time, and on a virtual machine the price of a
# page fault depends on what the host is doing (domain_read's host_s read
# 0.096 s one hour and 0.17-0.26 s, bimodal, the next). So: one arena (ranks
# run one at a time, per-thread arenas buy nothing and made storm_wb's peak RSS
# read 140-236 MB from run to run), no mmap for large blocks, never trim the
# heap. Freed memory stays mapped and the next iteration reuses it.
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-1}"
export MALLOC_MMAP_MAX_="${MALLOC_MMAP_MAX_:-0}"
export MALLOC_TRIM_THRESHOLD_="${MALLOC_TRIM_THRESHOLD_:-17179869184}"

# Build output goes to stderr: standard output carries only the report.
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/pmemcpy-benchmark" "$@"
