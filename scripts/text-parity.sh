#!/usr/bin/env bash
# Where the linker put the local solve's hot functions.
#
# The dense benchmark workload moves 5–17% with the 32-byte parity of the
# linalg/enkf text: the same loops, 32 bytes later, straddle 64-byte lines
# differently (EXPERIMENTS.md, "Record: PR 17", "PR 20", "PR 21"). Before
# crediting or blaming a change for a move of `dense`, print this table for the
# binary of each side and compare: a function whose size is unchanged but whose
# address mod 64 flipped has moved for no reason in its own code.
#
#   scripts/text-parity.sh .bench_build/senkf-benchmark
#
# Columns: address, size in bytes, address mod 64, symbol. A function the
# compiler inlined everywhere has no symbol and is listed as such.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -f "$1" ]; then
    echo "usage: $0 <go binary>" >&2
    exit 2
fi

symbols=(
    'senkf/internal/linalg.Dot'
    'senkf/internal/linalg.CholeskyInPlace'
    'senkf/internal/linalg.CholSolveInPlace'
    'senkf/internal/linalg.CholSolveVecInPlace'
    'senkf/internal/linalg.CholSolveMatrix'
    'senkf/internal/enkf.(*Workspace).point'
    'senkf/internal/enkf.(*Workspace).solveEnsembleSpace'
    'senkf/internal/enkf.(*Workspace).solveModifiedCholesky'
    'senkf/internal/enkf.(*Workspace).loadEnsemble'
)

table=$(go tool nm -n -size "$1")

printf '%-10s %6s %6s  %s\n' address size mod64 symbol
for sym in "${symbols[@]}"; do
    # Fields of `go tool nm -n -size`: address, size, type, name.
    line=$(awk -v s="$sym" '$4 == s && ($3 == "T" || $3 == "t")' <<<"$table")
    if [ -z "$line" ]; then
        printf '%-10s %6s %6s  %s\n' - - - "$sym (no symbol: inlined or not linked)"
        continue
    fi
    read -r addr size _ <<<"$line"
    printf '%-10s %6d %6d  %s\n' "$addr" "$size" $((16#$addr % 64)) "$sym"
done
