#!/usr/bin/env bash
# Paired alternating wall-clock runs of the benchmark — a parent revision
# against this checkout — written to one JSON record (EXPERIMENTS.md,
# "Wall-clock claims: paired alternating runs").
#
#   scripts/pair.sh <parent-rev> <workload>... [-pairs n] [-seed s] [-trace k] -out <file>
#   scripts/pair.sh -render <file>       # the record as markdown tables
#   scripts/pair.sh -index <file>... >bench/wall/index.json
#
# The parent's tree is exported with `git archive` under .bench_build/ and
# removed at exit. Each side builds its own binary with its own
# benchmark/run.sh; pair i runs the parent first when i is odd, this checkout
# first when it is even. Each run lasts the benchmark's default length, which
# the record takes from the run's header line. Then scripts/text-parity.sh
# runs on both binaries.
#
# -trace k adds, per workload, k alternating pairs of traced runs
# (`run.sh --trace 1`) in a set of their own, marked "traced": per metric of
# BENCHMARK.json's per_layer list that the traced runs print, each side's
# runs, their quartiles, the pairs the change wins and the median ratio (> 1:
# the change is better; null unless both medians are positive). k pairs are
# too few for a verdict, and -index ignores traced sets; -render leaves out
# the metrics that read 0 in every run.
#
# Per workload and end-to-end metric of BENCHMARK.json the record holds each
# side's runs, their first quartile, median and third quartile (linear
# interpolation), the pairs the change wins, the median ratio (> 1: the
# change is better) and a verdict against the metric's bound:
#   better      the change wins at least 9 pairs in 10 and the medians are
#               further apart than the parent's quartiles;
#   worse       the change's median is worse than the parent's by more than
#               the bound;
#   unresolved  neither, and the parent's quartiles are further apart than
#               the bound allows;
#   flat        neither, inside the bound.
# A set in which any run was not correct, or failed an op, says so. The
# record also holds the text-parity tables, the Go version, nproc and both
# commits. Running again with the same -out adds a set of runs (another seed,
# another workload) to the file, if both commits are the same.
#
# -index chains records, given oldest first, into one trajectory: per
# workload and end-to-end metric, each record's median ratio (from the
# workload's first set, the default seed) and their running product, so the
# last index says how much better the metric is than before the first record.
# A record without the workload leaves its chain alone.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"

# summary($d): the statistics of {parent: [runs], change: [runs]} for the
# end-to-end metric $d of BENCHMARK.json; pairs are the runs in order.
stats='
def quart($q): sort as $x | ((($x | length) - 1) * $q) as $h | ($h | floor) as $i
  | if $i + 1 < ($x | length) then $x[$i] + ($h - $i) * ($x[$i + 1] - $x[$i]) else $x[$i] end;
def quartiles: [quart(0.25), quart(0.5), quart(0.75)];
def summary($d):
  .parent as $pv | .change as $cv | ($pv | quartiles) as $pq | ($cv | quartiles) as $cq
  | (if $d.better == "lower" then 1 else -1 end) as $sign
  | ([$pv, $cv] | transpose | map(select($sign * (.[1] - .[0]) < 0)) | length) as $wins
  | ($sign * ($cq[1] - $pq[1]) / $pq[1]) as $worse
  | {parent: $pv, change: $cv, parent_q: $pq, change_q: $cq, wins: $wins,
     ratio: (if $d.better == "lower" then $pq[1] / $cq[1] else $cq[1] / $pq[1] end),
     better: $d.better, bound: $d.bound,
     verdict: (if $wins >= 0.9 * ($pv | length) and ($cq[1] - $pq[1] | fabs) > ($pq[2] - $pq[0]) and $worse < 0 then "better"
       elif $worse > $d.bound then "worse"
       elif ($pq[2] - $pq[0]) / $pq[1] > $d.bound then "unresolved"
       else "flat" end)};
def layer($d):
  .parent as $pv | .change as $cv | ($pv | quartiles) as $pq | ($cv | quartiles) as $cq
  | (if $d.better == "lower" then 1 else -1 end) as $sign
  | {parent: $pv, change: $cv, parent_q: $pq, change_q: $cq,
     wins: ([$pv, $cv] | transpose | map(select($sign * (.[1] - .[0]) < 0)) | length),
     ratio: (if $pq[1] <= 0 or $cq[1] <= 0 then null
       elif $d.better == "lower" then $pq[1] / $cq[1] else $cq[1] / $pq[1] end),
     better: $d.better, unit: $d.unit};
'

if [ "${1:-}" = "-render" ]; then
    [ $# -eq 2 ] && [ -f "$2" ] || { echo "usage: $0 -render <record.json>" >&2; exit 2; }
    jq -r '
def num: if . == null then "—" elif (. | fabs) >= 100 then (. * 10 | round / 10 | tostring)
  elif (. | fabs) >= 1 then (. * 10000 | round / 10000 | tostring)
  else (. * 1000000 | round / 1000000 | tostring) end;
def q: map(num) | join(" / ");
"Parent \(.parent.rev) at `\(.parent.commit[0:7])`, change `\(.change.commit[0:7])`\(if .change.dirty then " plus uncommitted edits" else "" end); \(.go), nproc \(.nproc).",
(.sets[] | select(.traced | not) |
  "",
  "`\(.workload)`, seed \(.seed), \(.pairs) pairs of \(.seconds) s runs\(if .correct then ", every run correct with 0 failed ops" else ", NOT every run correct" end):",
  "",
  "| metric | parent q1 / median / q3 | change q1 / median / q3 | wins | median ratio | verdict (bound) |",
  "|---|---|---|---|---|---|",
  (.metrics | to_entries[] |
    "| `\(.key)` | \(.value.parent_q | q) | \(.value.change_q | q) | \(.value.wins)/\(.value.parent | length) | \(.value.ratio * 1000 | round / 1000)× | \(.value.verdict) (\(.value.bound * 100 | round)%) |"),
  "",
  (.metrics | to_entries[] | select(.value.verdict != "flat" or .key == "op_s_p05") |
    "`\(.key)` pairs, parent → change, in run order: \([.value.parent, .value.change] | transpose | map("\(.[0] | num)→\(.[1] | num)") | join(", "))."),
  ""),
(.sets[] | select(.traced) |
  "",
  "`\(.workload)`, seed \(.seed), \(.pairs) pairs of traced \(.seconds) s runs\(if .correct then ", every run correct with 0 failed ops" else ", NOT every run correct" end):",
  "",
  "| layer metric | unit | parent q1 / median / q3 | change q1 / median / q3 | wins | median ratio |",
  "|---|---|---|---|---|---|",
  (.layers | to_entries[] | select(.value.parent + .value.change | any(. != 0)) |
    "| `\(.key)` | \(.value.unit) | \(.value.parent_q | q) | \(.value.change_q | q) | \(.value.wins)/\(.value.parent | length) | \(if .value.ratio == null then "—" else "\(.value.ratio * 1000 | round / 1000)×" end) |"),
  ""),
"Text parity (`scripts/text-parity.sh`; address, size, address mod 64):",
"",
"| symbol | parent | change |",
"|---|---|---|",
([.text_parity.parent, .text_parity.change] | transpose[] |
  "| `\(.[0].symbol | sub("^senkf/internal/"; ""))` | \(.[0].address), \(.[0].size), \(.[0].mod64) | \(.[1].address), \(.[1].size), \(.[1].mod64) |")
' "$2"
    exit 0
fi

if [ "${1:-}" = "-index" ]; then
    shift
    [ $# -ge 1 ] || { echo "usage: $0 -index <record.json>..." >&2; exit 2; }
    jq -n '
def set($w): first(.sets[] | select(.workload == $w and (.traced | not)));
[inputs | {record: (input_filename | split("/") | last | rtrimstr(".json")),
           parent: .parent.commit, change: .change.commit, dirty: .change.dirty, sets}]
| . as $recs
| {records: map({record, parent, change, dirty}),
   workloads: ([.[].sets[] | select(.traced | not) | .workload] | unique | map(. as $w | {key: $w, value: (
     first($recs[] | set($w)) | .metrics | keys_unsorted | map(. as $k | {key: $k, value:
       [foreach ($recs[] | select(set($w) != null)) as $r (1; . * ($r | set($w).metrics[$k].ratio);
         {record: $r.record, ratio: ($r | set($w).metrics[$k].ratio), index: .})]}) | from_entries)})
     | from_entries)}' "$@"
    exit 0
fi

usage="usage: $0 <parent-rev> <workload>... [-pairs n] [-seed s] [-trace k] -out <file>"
[ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
rev=$1
shift
workloads=() pairs=10 seed=20190216 out= traced=0
while [ $# -gt 0 ]; do
    case $1 in
    -pairs) pairs=$2; shift 2 ;;
    -trace) traced=$2; shift 2 ;;
    -seed) seed=$2; shift 2 ;;
    -out) out=$2; shift 2 ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
    esac
done
[ -n "$out" ] && [ ${#workloads[@]} -gt 0 ] || { echo "$usage" >&2; exit 2; }
case $out in /*) ;; *) out="$PWD/$out" ;; esac

cd "$root"
parent_commit=$(git rev-parse --verify "$rev^{commit}")
change_commit=$(git rev-parse HEAD)
dirty=false
[ -z "$(git status --porcelain)" ] || dirty=true

tree="$root/.bench_build/pair-parent"
runs="$root/.bench_build/pair-runs"
rm -rf "$tree" && mkdir -p "$tree"
git archive "$parent_commit" | tar -x -C "$tree"
trap 'rm -rf "$tree"' EXIT
rm -rf "$runs" && mkdir -p "$runs"

# pairs <workload> <n> <trace> <name>: n alternating pairs of runs with
# --trace <trace>, written to $runs/<name>-<side>-<i>.{json,txt}.
pairs() {
    local w=$1 n=$2 tr=$3 name=$4 i side order dir
    for i in $(seq 1 "$n"); do
        if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            dir=$root
            [ $side = parent ] && dir=$tree
            echo "pair.sh: $name pair $i/$n, $side" >&2
            # A run that is not correct exits 1; its file still records it.
            (cd "$dir" && bash benchmark/run.sh --workload "$w" --seed "$seed" --trace "$tr" \
                --out "$runs/$name-$side-$i.json" >"$runs/$name-$side-$i.txt") || true
            [ -f "$runs/$name-$side-$i.json" ] || { echo "pair.sh: $name $side run $i wrote no result" >&2; exit 1; }
        done
    done
}
for w in "${workloads[@]}"; do
    pairs "$w" "$pairs" 0 "$w"
    if [ "$traced" -gt 0 ]; then pairs "$w" "$traced" 1 "$w-traced"; fi
done

parity() { "$root/scripts/text-parity.sh" "$1" | jq -R -s '
  [splits("\n") | select(length > 0) | capture("^(?<address>\\S+)\\s+(?<size>\\S+)\\s+(?<mod64>\\S+)\\s+(?<symbol>.*)$")] | .[1:]'; }

# set_of <workload> <name> <n>: the set of the n pairs $runs/<name>-<side>-<i>,
# traced if <name> is not the workload's.
set_of() {
    local w=$1 name=$2 n=$3 seconds
    # The header line: "workload <w>  seed <s>  seconds <t>  ...".
    seconds=$(sed -n '1s/.*  seconds \([^ ]*\) .*/\1/p' "$runs/$name-change-1.txt")
    jq -n --arg w "$w" --argjson traced "$([ "$name" = "$w" ] && echo false || echo true)" \
        --argjson seed "$seed" --argjson seconds "$seconds" --argjson pairs "$n" \
        --slurpfile bench "$root/BENCHMARK.json" \
        --slurpfile p <(for i in $(seq 1 "$n"); do cat "$runs/$name-parent-$i.json"; done) \
        --slurpfile c <(for i in $(seq 1 "$n"); do cat "$runs/$name-change-$i.json"; done) "$stats"'
      ($p | map(.[$w])) as $p | ($c | map(.[$w])) as $c |
      def runs($d): {parent: ($p | map(.metrics[$d.name].value)), change: ($c | map(.metrics[$d.name].value))};
      {workload: $w, seed: $seed, seconds: $seconds, pairs: $pairs}
      + (if $traced then {traced: true} else {} end)
      + {correct: (($p + $c) | all(.correct and .failed == 0))}
      + if $traced then
          {layers: ($bench[0].per_layer | map(. as $d | select(($p + $c) | all(.metrics[$d.name].value != null))
            | {key: $d.name, value: (runs($d) | layer($d))}) | from_entries)}
        else
          {metrics: ($bench[0].end_to_end | map(. as $d | {key: $d.name, value: (runs($d) | summary($d))}) | from_entries)}
        end'
}
# The sets and the record go through files: a traced set is larger than
# one command-line argument may be.
for w in "${workloads[@]}"; do
    set_of "$w" "$w" "$pairs"
    if [ "$traced" -gt 0 ]; then set_of "$w" "$w-traced" "$traced"; fi
done | jq -s . >"$runs/sets.json"

jq -n --arg rev "$rev" --arg pc "$parent_commit" --arg cc "$change_commit" --argjson dirty "$dirty" \
    --arg go "$(go version | awk '{print $3}')" --argjson nproc "$(nproc)" \
    --argjson tp "$(parity "$tree/.bench_build/senkf-benchmark")" --argjson tc "$(parity "$root/.bench_build/senkf-benchmark")" \
    --slurpfile sets "$runs/sets.json" \
    '{go: $go, nproc: $nproc, parent: {rev: $rev, commit: $pc}, change: {commit: $cc, dirty: $dirty},
      text_parity: {parent: $tp, change: $tc}, sets: $sets[0]}' >"$runs/record.json"
if [ -f "$out" ]; then
    if ! jq -e --slurpfile r "$runs/record.json" '.parent.commit == $r[0].parent.commit and .change == $r[0].change' "$out" >/dev/null; then
        echo "pair.sh: $out records other commits; give another -out" >&2
        exit 1
    fi
    jq --slurpfile r "$runs/record.json" '.sets += $r[0].sets | .text_parity = $r[0].text_parity' "$out" >"$runs/merged.json"
    mv "$runs/merged.json" "$runs/record.json"
fi
mkdir -p "$(dirname "$out")"
jq . "$runs/record.json" >"$out"
"$0" -render "$out"
