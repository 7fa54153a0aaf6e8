#!/usr/bin/env bash
# check_bench_counts — the benchmark's exact work counts as a gate.
#
# Runs each workload named in tools/bench_counts.txt through
# BENCHMARK.json's command (cargo run --release --offline
# --manifest-path dynbench/Cargo.toml --) for one second, untraced, at
# the recorded seed, and compares its "exact counts (per pass)" line
# with the recorded one. Counts are exact functions of the graphs, the
# configuration and the query streams, so any difference means the
# program does different work: commit the new counts with a CHANGES.md
# note if that was the point, fix the program otherwise.
#
# Usage: tools/check_bench_counts.sh   (or: make bench-counts)
# Exits 0 when every workload matches, 1 on a difference, 2 when a run
# fails or prints no counts.

set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

counts='tools/bench_counts.txt'
seed=3397
cargo="${CARGO:-cargo}"
prefix='exact counts (per pass): '
status=0

while read -r workload want; do
    case "$workload" in '' | '#'*) continue ;; esac
    if ! out="$("$cargo" run --quiet --release --offline --manifest-path dynbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0 < /dev/null)"; then
        echo "bench-counts: $workload: the benchmark run failed" >&2
        printf '%s\n' "$out" | tail -n 5 >&2
        exit 2
    fi
    got="$(printf '%s\n' "$out" | grep -F "$prefix" | head -n 1)"
    got="${got#"$prefix"}"
    if [ -z "$got" ]; then
        echo "bench-counts: $workload: no exact-counts line in the output" >&2
        exit 2
    fi
    if [ "$got" = "$want" ]; then
        echo "bench-counts: $workload: ok"
    else
        echo "bench-counts: $workload: exact counts differ from $counts" >&2
        echo "  recorded: $want" >&2
        echo "  this run: $got" >&2
        status=1
    fi
done < "$counts"
exit "$status"
