#!/bin/sh
# Runs the benchmark BENCHMARK.json declares once and appends one entry to
# the perf ledger, BENCH_perfbench.json at the repository root.
#
# usage: scripts/bench_ledger.sh --pr N --side parent|change|head
#            --workload live-suite|replay-adversarial|serve-ingest
#            [--seed S] [--seconds T] [--trace 0|1] [--checkout DIR]
#            [--commit HASH]
#
# The benchmark runs in --checkout (default: this repository), so a parent
# commit can be measured from a `git archive` copy. `commit` is the
# checkout's HEAD (pass --commit when the checkout is not a git work
# tree). A `change` entry measures that commit with the change under
# review applied to the work tree; `parent` and `head` entries measure the
# commit as it stands. The machine note names the OS, architecture, CPU
# count and CPU model. The entry keeps the benchmark's last-line `metrics`
# object verbatim.
#
# The ledger is one JSON array with one entry per line; `tests/bench_ledger.rs`
# checks it.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
ledger=$root/BENCH_perfbench.json
pr= side= workload= seed=1 seconds=20 trace=0 checkout=$root commit=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "bench_ledger: $1 needs a value" >&2; exit 2; }
    case $1 in
        --pr) pr=$2 ;;
        --side) side=$2 ;;
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        --checkout) checkout=$(cd "$2" && pwd) ;;
        --commit) commit=$2 ;;
        *) echo "bench_ledger: unknown flag $1" >&2; exit 2 ;;
    esac
    shift 2
done
case $side in
    parent|change|head) ;;
    *) echo "bench_ledger: --side parent|change|head" >&2; exit 2 ;;
esac
case $pr in ''|*[!0-9]*) echo "bench_ledger: --pr N" >&2; exit 2 ;; esac
[ -n "$workload" ] || { echo "bench_ledger: --workload W" >&2; exit 2; }
[ -n "$commit" ] || commit=$(git -C "$checkout" rev-parse --short HEAD)

cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
machine="$(uname -sm), $(nproc) cpus${cpu:+, $cpu}"

# The command array of BENCHMARK.json, one word per quoted string.
command=$(sed -n '/"command"/,/]/p' "$root/BENCHMARK.json" | sed 1d | grep -o '"[^"]*"' | tr -d '"')
out=$(mktemp)
trap 'rm -f "$out"' EXIT
# shellcheck disable=SC2086 # the command is a list of plain words
(cd "$checkout" && $command --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "$trace") > "$out"

last=$(tail -n 1 "$out")
cpus=$(sed -n 's/^workload .* cpus \([0-9][0-9]*\)$/\1/p' "$out")
scale=$(sed -n 's/.* calibration scale \([0-9.eE+-][0-9.eE+-]*\)$/\1/p' "$out")
summary=${last%%, \"metrics\": *}
metrics=${last#*\"metrics\": }
metrics=${metrics%\}}
case $summary in
    '{"correct": '*) ;;
    *) echo "bench_ledger: no summary line: $last" >&2; exit 1 ;;
esac
machine=$(printf '%s' "$machine" | sed 's/\\/\\\\/g; s/"/\\"/g')

entry="{\"commit\": \"$commit\", \"pr\": $pr, \"side\": \"$side\", \"workload\": \"$workload\", \
\"seed\": $seed, \"seconds\": $seconds, \"trace\": $trace, \"calibration_scale\": $scale, \
\"cpus\": $cpus, ${summary#\{}, \"machine\": \"$machine\", \"source\": \"run\", \
\"metrics\": $metrics}"

if [ ! -s "$ledger" ] || [ "$(cat "$ledger")" = "[]" ]; then
    printf '[\n%s\n]\n' "$entry" > "$ledger"
else
    # Drop the closing bracket, end the last entry with a comma, append.
    sed -i '$d' "$ledger"
    sed -i '$s/$/,/' "$ledger"
    printf '%s\n]\n' "$entry" >> "$ledger"
fi
printf '%s\n' "$entry"
