#!/usr/bin/env bash
# The one command.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds crackbench and runs one workload; the last line of its
#       standard output is the result as one JSON object.
#
#   benchmark/run.sh [--runs N] [--seed S] [--seconds T]
#       with no --workload: N untraced runs (seeds S, S+1, ...) of each of
#       the four workloads, then one traced run of each; prints every
#       metric as `workload metric unit value n` and writes
#       benchmark/out/results.json. Exits non-zero if any op failed or
#       any answer differed from the oracle.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The heap is part of the measured environment. Engines are built and
# dropped every round; with glibc's defaults each round's columns and
# maps are mapped from and returned to the kernel, and the page faults
# of that churn were the largest source of run-to-run noise (per-round
# times +-12%; +-4% with a heap that keeps its pages). Serve every
# allocation from the heap and never trim it; crackbench then grows the
# heap once, in a discarded warm-up round. One arena: the process runs on
# one CPU (see README, "One CPU"), and with one arena the shard workers'
# maps come from the same warm heap and the peak resident set repeats.
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TRIM_THRESHOLD_=68719476736
export MALLOC_ARENA_MAX=1

cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/crackbench"

for arg in "$@"; do
    case "$arg" in
    --workload | --workload=* | --compare | --list | --header) exec "$bin" "$@" ;;
    esac
done

runs=3 seed=42 seconds=26
while [ $# -gt 0 ]; do
    case "$1" in
    --runs) runs=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    *)
        echo "run.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift 2
done

out=benchmark/out
mkdir -p "$out"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
lines="$out/runs.jsonl"
: >"$lines"
status=0
run() { # workload seed trace
    "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
        --commit "$commit" --append "$lines" | grep -v '^{' || status=1
}
for r in $(seq 0 $((runs - 1))); do
    for w in $("$bin" --list); do
        run "$w" $((seed + r)) 0
    done
done
for w in $("$bin" --list); do
    run "$w" "$seed" 1
done

{
    printf '{"header": %s,\n"runs": [\n' "$("$bin" --header --commit "$commit" --seed "$seed")"
    paste -sd, "$lines" | sed 's/},{"workload"/},\n{"workload"/g'
    printf ']}\n'
} >"$out/results.json"
rm -f "$lines"
echo "# wrote $out/results.json"
exit $status
