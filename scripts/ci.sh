#!/usr/bin/env bash
# CI entry point: the full hermetic verification pipeline.
#
# Everything runs with --offline — the workspace has zero crates-io
# dependencies (see crates/gpf-support), so a registry fetch here is a
# regression, not a hiccup.
#
# One step's verdict depends on a timer, with a 1.3-2.9x margin and the
# better of two runs (the index-build ceiling below); no test's does: the
# engine makes no decision from a clock, so the chaos battery
# (crates/gpf-engine/tests/chaos.rs) injects no delay and sleeps nowhere.
# Otherwise speed is defended by the repo
# benchmark against the parent commit (benchmark/README.md), measured on a
# quiet host, not here; recovery, the memory budget and the skew split are
# defended by plain tests (crates/gpf-bench/tests/pipeline_gates.rs) that
# run with the workspace's, as do the differential batteries (the shuffle,
# MarkDuplicate, codec, kernel and BQSR oracles under crates/*/tests/).
#
# Usage:
#   scripts/ci.sh          # quick + gpf-check model check + the kernel
#                          # differential and the record entry-point
#                          # mutation battery at 4096 cases + clippy +
#                          # experiments smoke + the Summary of
#                          # `experiments all --scale 0.15` diffed against
#                          # EXPERIMENTS.md's + trace export/schema check
#                          # + the trace tour's export, which must carry
#                          # its application span
#   scripts/ci.sh quick    # -D warnings build + gpf-lint + rustdoc with
#                          # -D warnings + tests (workspace and
#                          # benchmark/), plus one short benchmark run
#                          # for its checks, four children for the pinned
#                          # VCF digests, shuffle bytes, stages and peak-RSS
#                          # ceilings, one unfused child for the same digest
#                          # and its own stages and shuffle bytes, one
#                          # clean-call child on a SAM with two @SQ lines
#                          # swapped, which must exit 2 with "invalid
#                          # pipeline", and one traced child for the
#                          # aligner's DP-cell ceiling and the pair-HMM's
#                          # exact cell count; the two wgs-full
#                          # children also bound the index build
set -euo pipefail
cd "$(dirname "$0")/.."

# One setting for every step below, so cargo artifacts share a fingerprint
# (per-step RUSTFLAGS would rebuild the workspace once per step).
export RUSTFLAGS="${RUSTFLAGS:-} -D warnings"

echo "== build (release, offline, -D warnings) =="
cargo build --release --offline

echo "== gpf-lint (repo invariants) =="
if ! cargo run --release --offline -q -p gpf-lint -- --root .; then
    echo "gpf-lint found violations. Replay locally with:" >&2
    echo "    cargo run --release --offline -p gpf-lint -- --root ." >&2
    echo "(annotate intentional sites with '// gpf-lint: allow(<rule>): <reason>')" >&2
    exit 1
fi

echo "== rustdoc (every crate, warnings are errors) =="
# A public doc that links a private item, or an item that no longer exists,
# is a warning rustdoc prints and nothing else reads; here it fails.
RUSTDOCFLAGS="${RUSTDOCFLAGS:-} -D warnings" cargo doc --offline --no-deps --workspace

echo "== test (workspace, offline) =="
cargo test -q --offline --workspace

echo "== repo benchmark (its own workspace: build + unit tests, offline) =="
# benchmark/ compiles against the crates' public API from outside the
# workspace, so nothing above notices when a signature change breaks it.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== repo benchmark (one short wgs-full child: digests, floors, budgets) =="
# Every output digest and accuracy floor of the FASTQ-to-VCF run, checked
# here rather than at measurement time: an aligner, cleaner or caller change
# that moves a record fails CI. The timings of a 3-second run mean nothing.
bench_line="$(benchmark/run.sh --workload wgs-full --seed 2018 --seconds 3 --trace 0 | tail -n 1)"
if [[ "$bench_line" != *'"correct": true'* || "$bench_line" != *'"failed": 0,'* ]]; then
    echo "benchmark wgs-full did not come back correct with no failures:" >&2
    echo "${bench_line:0:400}" >&2
    exit 1
fi

echo "== repo benchmark (genome 6054: VCF digests, shuffle bytes, stage count, a peak-RSS ceiling, the aligner's and the pair-HMM's DP cells and the index build, pinned across commits) =="
# The run above only compares a commit with itself. This pins pipeline
# output across commits: a kernel change that alters one VCF byte fails here
# instead of at measurement time, and a change that means to move calls
# updates the pin on purpose. The same generated genome goes through four
# children: wgs-full from its FASTQ must call what clean-call calls from its
# SAM, the fine geometry has its own pin (partition-dependent calls are
# ROADMAP item 2), and a memory budget must not change a byte of clean-call
# — nor a shuffled byte nor a stage of it. The dataflow is pinned beside
# the answer: `engine.shuffle_mb` and `engine.stages` repeat exactly, so a
# change that shuffles more (or adds a stage) says so here by moving them.
# And the footprint beside the dataflow: each child's `peak_rss_mb` has a
# ceiling 15-20% over what it measures (37.8 / 40.7 / 44.4 / 40.9 MiB for
# wgs-full / clean-call / -fine / -tight-mem; it repeats within 1% on two
# threads), so one more resident copy of the reads (12 MiB or more) fails
# here and allocator noise does not. -tight-mem's ceiling was 60 MiB while
# its consuming stages restored and cloned each partition they dropped
# (48.6 MiB); they take their partitions out of the budget store now.
# Its budget's work is pinned too: the consuming stages admit nothing, so
# `engine.spill_count`, `engine.spill_mb` and `engine.restore_count`
# repeat exactly, run after run and at 1, 2 and 3 threads (470 spills of
# 12.42 MB, 470 read back; the second loop below checks 1 and 3); a change
# that spills more, or brings back the restore-evict thrash, fails here.
# wgs-full runs the aligner on the same genome, so its digest also pins
# aligner output end to end.
# And the index build: wgs-full's `setup_s` is the FASTA parse plus the
# FM-index build (~0.015 s with the linear-time suffix array; 0.063-0.13 s
# with the O(n log^2 n) prefix doubling it replaced). The smaller of the
# two wgs-full children's readings (this loop's and the traced one below)
# must be at most 0.04 s: the better of two keeps a noisy host from failing
# CI, and a suffix sort that drifts back to O(n log^2 n) fails it.
bench_exe="${CARGO_TARGET_DIR:-benchmark/target}/release/gpf-benchmark"
bench_inputs="$(mktemp -d -t gpf_bench_inputs_XXXX)"
"$bench_exe" gen --dir "$bench_inputs" --seed 6054
for pin in wgs-full:242c4063708960b1:4.5209150314331055:44 \
    clean-call:242c4063708960b1:4.520932197570801:48 \
    clean-call-fine:b3cdabcc53910815:6.020244598388672:52 \
    clean-call-tight-mem:242c4063708960b1:4.520932197570801:48; do
    IFS=: read -r workload digest shuffle_mb rss_ceiling <<<"$pin"
    bench_line="$("$bench_exe" child --workload "$workload" --dir "$bench_inputs" | tail -n 1)"
    wants=("\"digest\": \"$digest\"" "\"engine.shuffle_mb\": $shuffle_mb," "\"engine.stages\": 9,")
    if [[ "$workload" == clean-call-tight-mem ]]; then
        wants+=('"engine.spill_count": 470,' '"engine.spill_mb": 12.422523498535156,' \
            '"engine.restore_count": 470,')
    fi
    for want in "${wants[@]}"; do
        if [[ "$bench_line" != *"$want"* ]]; then
            rm -rf "$bench_inputs"
            echo "$workload on genome 6054 did not print $want:" >&2
            echo "$bench_line" | tr ',' '\n' | grep -E 'digest|engine\.(shuffle_mb|stages|spill|restore)' >&2
            exit 1
        fi
    done
    if [[ "$workload" == wgs-full ]]; then
        setup_s_pin="$(sed -E 's/.*"setup_s": ([0-9.e-]+).*/\1/' <<<"$bench_line")"
    fi
    peak_rss_mb="$(sed -E 's/.*"peak_rss_mb": ([0-9.]+).*/\1/' <<<"$bench_line")"
    if ! awk -v got="$peak_rss_mb" -v max="$rss_ceiling" 'BEGIN { exit !(got > 0 && got <= max) }'; then
        rm -rf "$bench_inputs"
        echo "$workload on genome 6054: peak_rss_mb $peak_rss_mb is over its ceiling of $rss_ceiling MiB" >&2
        exit 1
    fi
done
# -tight-mem's budget work again at 1 and 3 worker threads (the loop above
# runs at the host's count): the same digest, dataflow and 470 / 12.42 MB /
# 470, because eviction walks victims in partition order and no read
# returns a slot to resident, so how the wave interleaves does not show.
for threads in 1 3; do
    bench_line="$(GPF_PAR_THREADS=$threads "$bench_exe" child --workload clean-call-tight-mem \
        --dir "$bench_inputs" | tail -n 1)"
    for want in '"digest": "242c4063708960b1"' '"engine.shuffle_mb": 4.520932197570801,' \
        '"engine.stages": 9,' '"engine.spill_count": 470,' '"engine.spill_mb": 12.422523498535156,' \
        '"engine.restore_count": 470,'; do
        if [[ "$bench_line" != *"$want"* ]]; then
            rm -rf "$bench_inputs"
            echo "clean-call-tight-mem on genome 6054 at $threads threads did not print $want:" >&2
            echo "$bench_line" | tr ',' '\n' | grep -E 'digest|engine\.(shuffle_mb|stages|spill|restore)' >&2
            exit 1
        fi
    done
done
# The unfused path (`--no-optimize`, Table 4's "Original" column): each
# bundle stage builds its own bundles, through the same chain executor the
# fused chain runs, so it must call exactly what the fused children call.
# Its dataflow is Table 4's unfused row — 15 stages against 9, 10.83 MiB
# shuffled against 4.52 — and repeats exactly, so a change to what a lone
# stage builds or shuffles shows here.
bench_line="$("$bench_exe" child --workload clean-call --dir "$bench_inputs" --no-optimize | tail -n 1)"
for want in '"digest": "242c4063708960b1"' '"engine.shuffle_mb": 10.828070640563965,' \
    '"engine.stages": 15,'; do
    if [[ "$bench_line" != *"$want"* ]]; then
        rm -rf "$bench_inputs"
        echo "clean-call --no-optimize on genome 6054 did not print $want:" >&2
        echo "$bench_line" | tr ',' '\n' | grep -E 'digest|engine\.(shuffle_mb|stages)' >&2
        exit 1
    fi
done
# A SAM whose contig dictionary is not the reference's: genome 6054's
# inputs with the first two `@SQ` lines of `aligned.sam` swapped are valid
# SAM, but their contig ids would index the wrong reference contigs. The
# pipeline validator refuses them before any dataset work, so the
# clean-call child must exit 2 with "invalid pipeline" (it used to crash
# inside the Cleaner with exit 101).
swapped_inputs="$(mktemp -d -t gpf_bench_swapped_XXXX)"
cp -r "$bench_inputs"/. "$swapped_inputs"
awk '/^@SQ/ && ++sq <= 2 { held[sq] = $0; if (sq == 2) { print held[2]; print held[1] } next } { print }' \
    "$bench_inputs/aligned.sam" >"$swapped_inputs/aligned.sam"
if swapped_err="$("$bench_exe" child --workload clean-call --dir "$swapped_inputs" 2>&1 >/dev/null)"; then
    swapped_exit=0
else
    swapped_exit=$?
fi
rm -rf "$swapped_inputs"
if [[ "$swapped_exit" != 2 || "$swapped_err" != *"invalid pipeline"* ]]; then
    rm -rf "$bench_inputs"
    echo "clean-call on genome 6054 with two @SQ lines swapped exited $swapped_exit, not 2 with \"invalid pipeline\":" >&2
    echo "${swapped_err:0:400}" >&2
    exit 1
fi
# The kernels' DP work: one traced wgs-full child counts the banded-SW
# cells evaluated (`align.sw_cells`, exactly 17,307,941 and repeatable on
# this genome at 1, 2 and 3 threads; 35,495,891 before verification decided
# exact and one-mismatch placements without the DP) and the pair-HMM's
# (`caller.pairhmm_cells`, exactly 62,066,800 and repeatable). Certified
# placements drifting back to the DP fail here, and so does a change to the
# aligner's seeding or verification, or to the Caller's grouping, windowing
# or job dedup, hiding inside a faster kernel.
bench_line="$("$bench_exe" child --workload wgs-full --dir "$bench_inputs" --trace-kernels | tail -n 1)"
rm -rf "$bench_inputs"
sw_cells="$(sed -E 's/.*"align.sw_cells": ([0-9.]+).*/\1/' <<<"$bench_line")"
if [[ "$sw_cells" != 17307941 ]]; then
    echo "wgs-full on genome 6054: align.sw_cells $sw_cells is not 17,307,941" >&2
    exit 1
fi
pairhmm_cells="$(sed -E 's/.*"caller.pairhmm_cells": ([0-9.]+).*/\1/' <<<"$bench_line")"
if [[ "$pairhmm_cells" != 62066800 ]]; then
    echo "wgs-full on genome 6054: caller.pairhmm_cells $pairhmm_cells is not 62,066,800" >&2
    exit 1
fi
setup_s_traced="$(sed -E 's/.*"setup_s": ([0-9.e-]+).*/\1/' <<<"$bench_line")"
if ! awk -v a="$setup_s_pin" -v b="$setup_s_traced" \
    'BEGIN { m = (a < b) ? a : b; exit !(m > 0 && m <= 0.04) }'; then
    echo "wgs-full on genome 6054: setup_s $setup_s_pin / $setup_s_traced, the better over its ceiling of 0.04 s" >&2
    exit 1
fi

if [[ "${1:-}" == "quick" ]]; then
    exit 0
fi

echo "== model check (gpf-check: schedule explorer + deadlock/ordering checks) =="
# Separate target dir: --cfg gpf_check changes every crate's fingerprint,
# and sharing ./target would force a full rebuild of the normal artifacts
# on the next plain cargo invocation. Serial (--test-threads=1) so the
# schedule budget below is the only knob governing wall-clock.
# The battery tests assert the checker still FLAGS every seeded bug; the
# model tests assert the real pool/locks/ring/counters — and, in
# gpf-engine's own `models` module, the consuming operators' move cells and
# `map_fold`'s group accumulators — pass every explored schedule.
# GPF_CHECK_SCHEDULES pins the per-model budget (CI time box); a failure
# prints a GPF_CHECK_REPLAY token that reruns the exact schedule.
CARGO_TARGET_DIR=target/gpf-check \
RUSTFLAGS="${RUSTFLAGS:-} --cfg gpf_check" \
GPF_CHECK_SCHEDULES="${GPF_CHECK_SCHEDULES:-10000}" \
    cargo test -q --offline -p gpf-check -- --test-threads=1
CARGO_TARGET_DIR=target/gpf-check \
RUSTFLAGS="${RUSTFLAGS:-} --cfg gpf_check" \
GPF_CHECK_SCHEDULES="${GPF_CHECK_SCHEDULES:-10000}" \
    cargo test -q --offline -p gpf-engine --lib models:: -- --test-threads=1

echo "== DP sweep differential, deep (4096 cases per property) =="
# The workspace tests run every property of the alignment-kernel battery at
# the default 128 cases; this reruns it at 4096, which holds every banded-DP
# sweep body this host builds to the reference over far more production
# shapes, wild bytes and band-0 inputs (about 4 s).
GPF_PROPTEST_CASES=4096 cargo test -q --offline -p gpf-align --test kernel_differential

echo "== record entry-point mutation battery, deep (4096 cases per property) =="
# The workspace tests run the battery at the default 128 cases; this reruns
# it at 4096 truncated, bit-flipped, spliced and oversized mutants per
# entry point — each text parser, Cigar::parse and the SamRecord, VcfRecord
# and FastqRecord decoders under all three serializer kinds — every one
# answering Ok or Err within its heap bound, every Ok record keeping the
# record invariant (about 1.5 s).
GPF_PROPTEST_CASES=4096 cargo test -q --offline -p gpf-compress --test mutation_battery

echo "== clippy (blocking when installed) =="
# A missing clippy component must not fail CI on minimal toolchains; an
# installed one must come back clean on every crate and every target —
# tests, examples and benches included.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping" >&2
fi

echo "== experiments smoke (every paper table/figure code path, tiny scale) =="
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke >/dev/null

echo "== experiments all (computed verdicts equal EXPERIMENTS.md's Summary) =="
# Each report's verdict rolls up the paper's claims held against the numbers
# it prints, and EXPERIMENTS.md's Summary is this command's last table. A
# claim that breaks, or one that starts to hold, fails here until the
# Summary is regenerated.
summary_table() { awk '/^\| artifact \| verdict /{p=1} p&&/^\|/{print; next} p{exit}'; }
if ! diff <(cargo run --release --offline -q -p gpf-bench --bin experiments -- all --scale 0.15 | summary_table) \
        <(summary_table < EXPERIMENTS.md); then
    echo "experiments all --scale 0.15: its Summary (<) differs from EXPERIMENTS.md's (>)" >&2
    exit 1
fi

echo "== trace smoke (chrome export + schema check) =="
trace_out="$(mktemp -t gpf_trace_XXXX.json)"
cargo run --release --offline -p gpf-bench --bin experiments -- --smoke --trace "$trace_out" >/dev/null
cargo run --release --offline -p gpf-bench --bin experiments -- --validate-trace "$trace_out"
rm -f "$trace_out"

echo "== trace tour (an application span lands in the exported trace) =="
# The example writes gpf_trace.json into the temp dir; its own TMPDIR keeps
# the file apart from anything else there. `setup:graph` is the span the
# example opens on the context's log around pipeline setup.
tour_dir="$(mktemp -d -t gpf_trace_tour_XXXX)"
TMPDIR="$tour_dir" cargo run --release --offline -q --example trace_tour >/dev/null
cargo run --release --offline -p gpf-bench --bin experiments -- --validate-trace "$tour_dir/gpf_trace.json"
if ! grep -q '"setup:graph"' "$tour_dir/gpf_trace.json"; then
    echo "trace_tour: its setup:graph span is missing from the exported gpf_trace.json" >&2
    exit 1
fi
rm -rf "$tour_dir"

echo "CI OK"
