#!/usr/bin/env bash
# Holds one benchmark run's allocations to the newest wall-clock record.
#
#   scripts/alloc-ceiling.sh -nproc        # the record's nproc, for GOMAXPROCS
#   scripts/alloc-ceiling.sh <run output>  # check a benchmark/run.sh output
#
# The record is the highest-numbered bench/wall/PR<n>.json. For the run's
# workload and seed (from its header line) it takes the record's untraced
# set, and for alloc_mb_per_op and allocs_per_op the ceiling is that set's
# change median plus the metric's bound in BENCHMARK.json. The run must have
# been made with GOMAXPROCS equal to the record's nproc, since the pooled
# buffers of the real-engine workloads allocate per processor. Prints each
# metric against its ceiling; exits non-zero when one reaches it, when the
# GOMAXPROCS differs, or when the record has no such set.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
record=$(ls "$root"/bench/wall/PR*.json | sort -V | tail -n 1)

if [ "${1:-}" = "-nproc" ]; then
    jq -r .nproc "$record"
    exit 0
fi
[ $# -eq 1 ] && [ -f "$1" ] || { echo "usage: $0 -nproc | $0 <run output>" >&2; exit 2; }

# The header line: "workload <w>  seed <s>  ...  GOMAXPROCS <p>  nproc <n>  ...".
read -r workload seed procs < <(awk '$1 == "workload" {
    for (i = 1; i < NF; i++) { if ($i == "seed") s = $(i+1); if ($i == "GOMAXPROCS") p = $(i+1) }
    print $2, s, p; exit }' "$1")
want=$(jq -r .nproc "$record")
if [ "$procs" != "$want" ]; then
    echo "FAIL: $workload ran at GOMAXPROCS $procs; $(basename "$record") was recorded at nproc $want" >&2
    exit 1
fi

tail -n 1 "$1" | jq -er --slurpfile rec "$record" --slurpfile bench "$root/BENCHMARK.json" \
    --arg w "$workload" --argjson seed "$seed" --arg name "$(basename "$record")" '
  . as $run
  | ([$rec[0].sets[] | select(.workload == $w and .seed == $seed and (.traced | not))] | first) as $set
  | if $set == null then error("\($name) has no untraced \($w) set at seed \($seed)") else . end
  | ("alloc_mb_per_op", "allocs_per_op")
  | . as $m
  | ($bench[0].end_to_end[] | select(.name == $m) | .bound) as $bound
  | ($set.metrics[$m].change_q[1] * (1 + $bound)) as $ceiling
  | if $run.metrics[$m].value < $ceiling
    then "\($w) \($m) \($run.metrics[$m].value) < \($ceiling) (\($name) change median + \($bound * 100)%)"
    else error("\($w) \($m) \($run.metrics[$m].value) reaches its ceiling \($ceiling) (\($name) change median + \($bound * 100)%)") end'
