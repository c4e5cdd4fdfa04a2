#!/usr/bin/env bash
# Mutation record: how much the tests catch that is not a pinned bit pattern.
#
#   scripts/mutants.sh [-out <file>]    # default: bench/mutants.json
#
# Each scripts/mutants/*.patch plants one bug, applied consistently (the
# production code and any verbatim copy of it in the tests change alike), so
# only a test that knows the right answer independently can catch it. The
# script exports the HEAD commit's tree with `git archive` under
# .bench_build/mutants/ (removed at exit), checks that the unmutated tree
# passes, then applies each patch to a fresh export and runs `go test ./...`
# with the -skip list below: the digest pins and verbatim-oracle comparisons,
# which fail on any change of bits and so say nothing about whether the maths
# is right. A mutant is killed when some test still fails; the record names
# the first one (package paths in byte order, so the record is the same in
# every locale, then run order within the package). The script exits 1 when
# a mutant survives, and when the unmutated tree fails.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
skip='^(TestSerialReferenceGolden|TestWorkspaceMatchesOracle|TestWorkspaceMatchesOracleOnSparseNetworks|TestWorkspaceErrorsMatchOracle|TestRunFromStateDigests|TestMultiLevelGoldenSEnKF|TestMultiLevelGoldenPEnKF|TestGoldenDigests|TestQuickSuiteGolden|TestGoldenPrograms)$'

out="$root/bench/mutants.json"
while [ $# -gt 0 ]; do
    case "$1" in
        -out) out="$2"; shift 2 ;;
        *) echo "usage: $0 [-out <file>]" >&2; exit 2 ;;
    esac
done
commit="$(git -C "$root" rev-parse --verify "HEAD^{commit}")"
if [ -n "$(git -C "$root" status --porcelain --untracked-files=normal)" ]; then
    echo "mutants: testing $commit; uncommitted edits are not in the run" >&2
fi

work="$root/.bench_build/mutants"
rm -rf "$work"
mkdir -p "$work"
trap 'rm -rf "$work"' EXIT

# killer <tree>: "<package> <test>" of the first failing top-level test in
# <tree>, "<package> (package)" when a package fails with no test failing
# (it does not build), or nothing when every test passes. A package's test
# failures come before its own fail event.
killer() {
    (cd "$1" && go test -json -skip "$skip" ./... 2>/dev/null || true) |
        jq -r 'select(.Action == "fail" and ((.Test // "") | contains("/") | not))
          | "\(.Package) \(.Test // "(package)")"' |
        awk '!seen[$1]++' | LC_ALL=C sort | awk 'NR == 1'
}

export_tree() {
    mkdir -p "$1"
    git -C "$root" archive "$commit" | tar -x -C "$1"
}

export_tree "$work/base"
if base="$(killer "$work/base")" && [ -n "$base" ]; then
    echo "mutants: the unmutated tree fails: $base" >&2
    exit 1
fi
rm -rf "$work/base"

records=()
survived=0
for patch in "$root"/scripts/mutants/*.patch; do
    name="$(basename "$patch" .patch)"
    tree="$work/$name"
    export_tree "$tree"
    # The export sits inside this repository: stop git from finding it, so
    # the patch applies to the export as a plain directory.
    (cd "$tree" && GIT_CEILING_DIRECTORIES="$work" git apply "$patch")
    first="$(killer "$tree")"
    if [ -n "$first" ]; then
        verdict=killed
    else
        verdict=survived
        survived=$((survived + 1))
    fi
    echo "mutants: $name $verdict${first:+ by $first}" >&2
    records+=("$(jq -n --arg p "scripts/mutants/$name.patch" --arg v "$verdict" --arg k "$first" \
        '{patch: $p, verdict: $v, first_killer: (if $k == "" then null else $k end)}')")
    rm -rf "$tree"
done

printf '%s\n' "${records[@]}" | jq -s --arg skip "$skip" '{skip: $skip, mutants: .}' >"$out"
[ "$survived" -eq 0 ]
