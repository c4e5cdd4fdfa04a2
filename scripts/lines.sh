#!/usr/bin/env bash
# Aim 2's line counts, as JSON: non-test, non-blank Go lines outside
# benchmark/ per package directory, the observability and system totals, and
# the gap between them (ROADMAP aim 2 and item 30).
#
#   scripts/lines.sh                            # print the record
#   scripts/lines.sh | cmp - bench/lines.json   # the committed record is current (CI)
#
# A group counts its packages' subpackages too: "report" is internal/report
# and any internal/report/<sub>. The files counted are those git tracks or would
# track, so build leftovers in ignored directories never count.
set -euo pipefail

cd "$(dirname "$0")/.."

observability='trace monitor runlog runtimeobs wire report metrics'
system='plan core enkf linalg schedule sim'

git ls-files --cached --others --exclude-standard -- '*.go' ':!:benchmark/' ':!:*_test.go' |
    while read -r f; do
        [ -f "$f" ] || continue
        printf '%s\t%s\n' "$(dirname "$f")" "$(grep -cv '^[[:space:]]*$' "$f" || true)"
    done |
    jq -R -s --arg obs "$observability" --arg sys "$system" '
      [split("\n")[] | select(. != "") | split("\t") | {dir: .[0], n: (.[1] | tonumber)}]
      | (group_by(.dir) | map({key: .[0].dir, value: (map(.n) | add)}) | from_entries) as $pkg
      | def group($names): [$names | split(" ")[] as $g
          | {key: $g, value: ([$pkg | to_entries[]
              | select(.key == "internal/\($g)" or (.key | startswith("internal/\($g)/"))) | .value] | add)}]
          | from_entries | . + {total: (map(.) | add)};
      group($obs) as $o | group($sys) as $s
      | {packages: $pkg, total: ($pkg | map(.) | add), observability: $o, system: $s,
         gap: ($o.total - $s.total)}'
