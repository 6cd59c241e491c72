#!/usr/bin/env bash
# The repo benchmark, one command. From the root of a checkout:
#
#   benchmark/run.sh [--seed S]              every workload, the layer walk, the
#                                            diagnostics and the checks; prints every
#                                            metric, writes benchmark/out/results.json
#   benchmark/run.sh [--seed S] --selfcheck  two interleaved sets of the same code;
#                                            fails if they differ by more than a bound
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                            one workload, one JSON line (BENCHMARK.json)
#
# See benchmark/README.md.
set -euo pipefail

here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
GPF_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export GPF_BENCH_COMMIT
exec "${CARGO_TARGET_DIR:-$here/target}/release/gpf-benchmark" run --out "$here/out" "$@"
