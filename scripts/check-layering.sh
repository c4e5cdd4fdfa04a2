#!/usr/bin/env bash
# Enforce the plan-layer import boundary.
#
# internal/plan is the substrate-agnostic description of the algorithms:
# both the real engine (internal/core on mpi+ensio) and the simulated
# machine (internal/schedule on sim+parfs) interpret its compiled plans.
# If plan ever imports a substrate package the "one schedule, two
# substrates" invariant collapses into a dependency cycle, so CI pins it.
set -euo pipefail

cd "$(dirname "$0")/.."

forbidden='senkf/internal/(mpi|ensio|sim|parfs)$'

deps=$(go list -deps senkf/internal/plan)

if bad=$(grep -E "$forbidden" <<<"$deps"); then
    echo "FAIL: senkf/internal/plan must not depend on any substrate package:" >&2
    echo "$bad" >&2
    exit 1
fi

# internal/monitor is the live observability layer: it folds the trace
# stream against compiled plans and the Eq. 7-10 budgets that stream
# carries, so it must build on plan and trace — but it watches both
# substrates through the event stream alone, duck-typing their error
# shapes, so it must never import one (or it could only monitor that
# substrate).
deps=$(go list -deps senkf/internal/monitor)

if bad=$(grep -E "$forbidden" <<<"$deps"); then
    echo "FAIL: senkf/internal/monitor must not depend on any substrate package:" >&2
    echo "$bad" >&2
    exit 1
fi

for need in senkf/internal/plan senkf/internal/trace senkf/internal/runtimeobs; do
    if ! grep -qx "$need" <<<"$deps"; then
        echo "FAIL: senkf/internal/monitor no longer builds on $need" >&2
        exit 1
    fi
done

# The monitor serves nothing: the run's one HTTP server lives in runlog
# (-profile). The benchmark binary links the monitor for its overhead
# probe, so an HTTP handler here would link net/http into it as well.
if grep -qx 'net/http' <<<"$deps"; then
    echo "FAIL: senkf/internal/monitor must not depend on net/http (the run's server is runlog's)" >&2
    exit 1
fi

# What a conforming run looks like is decided in plan alone: the monitor
# streams events into a plan.Checker and reads plan.ExpectedEdges. Were it
# to derive the expected DAG or invert the comm plans itself, the live
# check and the post-hoc one could disagree again.
if bad=$(grep -n 'ExpectedDAG(\|Comm\.Dsts' internal/monitor/*.go | grep -v '_test\.go:'); then
    echo "FAIL: internal/monitor must take the plan contract from plan.Checker and plan.ExpectedEdges:" >&2
    echo "$bad" >&2
    exit 1
fi

# internal/runtimeobs sits below the plan layer: pprof labels, the
# runtime/metrics sampler and hot-stage attribution are pure
# stdlib + trace machinery that plan (Problem.Prof), both engines, the
# monitor and the ledger all consume. It must import nothing above
# trace — especially not plan or a substrate — or the label set could
# not ride inside plan.Problem without a cycle.
deps=$(go list -deps senkf/internal/runtimeobs)
if bad=$(grep -E 'senkf/internal/(mpi|ensio|sim|parfs|plan|monitor|runlog|report|core|schedule|cycle)$' <<<"$deps"); then
    echo "FAIL: senkf/internal/runtimeobs must sit below the plan layer (stdlib + trace only):" >&2
    echo "$bad" >&2
    exit 1
fi
if ! grep -qx 'senkf/internal/trace' <<<"$deps"; then
    echo "FAIL: senkf/internal/runtimeobs no longer publishes through senkf/internal/trace" >&2
    exit 1
fi

# internal/runlog is the persistent run ledger: it archives what every
# substrate produced (trace, counters, report, monitor state), so like the
# monitor it must build on plan, trace, costmodel and report — and must
# never import a substrate, or the ledger could only describe that
# substrate's runs. internal/report stays substrate-free for the same
# reason (the quick-suite record, which does need the simulator, is
# assembled in cmd/senkf-bench).
for pkg in senkf/internal/runlog senkf/internal/report; do
    deps=$(go list -deps "$pkg")
    if bad=$(grep -E "$forbidden" <<<"$deps"); then
        echo "FAIL: $pkg must not depend on any substrate package:" >&2
        echo "$bad" >&2
        exit 1
    fi
done

# The report is built from the trace alone: hot-stage
# attribution (runtimeobs) is senkf-report hotspots' business, over the
# archived profile and trace, not a section of the run report.
if go list -deps senkf/internal/report | grep -qx 'senkf/internal/runtimeobs'; then
    echo "FAIL: senkf/internal/report must not depend on senkf/internal/runtimeobs" >&2
    exit 1
fi

deps=$(go list -deps senkf/internal/runlog)
for need in senkf/internal/plan senkf/internal/trace senkf/internal/costmodel senkf/internal/report; do
    if ! grep -qx "$need" <<<"$deps"; then
        echo "FAIL: senkf/internal/runlog no longer builds on $need" >&2
        exit 1
    fi
done

# The registry is the run's one record of every count: a hot path adds to
# it once, and the -counters table, /metrics and counters.json each render
# it. Code that reads a value back out of it (CounterValue, GaugeMax) is
# how a second copy starts — a mirror gauge, a per-rank total beside the
# counter — so only tests may.
if bad=$(grep -rn '\.CounterValue(\|\.GaugeMax(' --include='*.go' internal cmd examples ./*.go 2>/dev/null \
        | grep -v '_test\.go:' | grep -v '^internal/trace/'); then
    echo "FAIL: registry values are read back outside the tests (render the registry instead of copying a count):" >&2
    echo "$bad" >&2
    exit 1
fi

# The plan events both engines emit have one owner: trace.Tracer.Phase and
# Tracer.Stage write them, trace.PhaseOf and ReadyOf read them. Code that
# spells their category or decodes their stage arg itself is a second
# encoding, free to drift from the one every consumer reads.
if bad=$(grep -rn -e 'trace\.CatPhase' -e 'trace\.CatStage' -e 'ArgValue(trace\.ArgStage)' \
        --include='*.go' internal cmd examples ./*.go 2>/dev/null \
        | grep -v '_test\.go:' | grep -v '^internal/trace/'); then
    echo "FAIL: phase spans or stage instants are encoded or decoded outside internal/trace (use Tracer.Phase/Stage and PhaseOf/ReadyOf):" >&2
    echo "$bad" >&2
    exit 1
fi

# Every count has one writer, at the layer that makes the fact. The
# monitor's own facts are its verdicts — runs, divergences, deadlocks,
# watchdog trips, incidents, flight dumps — so it writes monitor/* series
# only; a fault, a message or a runtime reading it sees is already counted
# by faults.*, the wire collector or the sampler.
if bad=$(grep -nE '\.(Inc|Add|SetGauge|Observe)\(' internal/monitor/*.go | grep -v '_test\.go:' \
        | grep -vE '\.(Inc|Add|SetGauge|Observe)\("monitor/'); then
    echo "FAIL: internal/monitor writes a registry series that is not its own (monitor/*):" >&2
    echo "$bad" >&2
    exit 1
fi

# The runtime sampler (internal/runtimeobs/sampler.go) is the run's one
# reader of the Go runtime: a second reader re-records what its runtime/*
# gauges hold, and runtime.ReadMemStats stops the world to do it. The
# benchmark module keeps its own readings.
if bad=$(grep -rn --include='*.go' -e 'runtime\.ReadMemStats(' -e '"runtime/metrics"' . \
        | grep -v '_test\.go:' | grep -v '^\./internal/runtimeobs/' | grep -v '^\./benchmark/'); then
    echo "FAIL: the Go runtime is read outside internal/runtimeobs (the sampler is its one reader):" >&2
    echo "$bad" >&2
    exit 1
fi

# internal/ckpt is the checkpoint store: it persists cycled state through
# ensio member files, so it must build on ensio — but it must never import
# mpi, sim or parfs (a checkpoint is pure data; reading one must not drag
# in an execution substrate), nor the cycle loop above it (cycle imports
# ckpt, not the reverse).
deps=$(go list -deps senkf/internal/ckpt)
if bad=$(grep -E 'senkf/internal/(mpi|sim|parfs|cycle)$' <<<"$deps"); then
    echo "FAIL: senkf/internal/ckpt must stay pure data (ensio + grid + workload only):" >&2
    echo "$bad" >&2
    exit 1
fi
if ! grep -qx 'senkf/internal/ensio' <<<"$deps"; then
    echo "FAIL: senkf/internal/ckpt no longer persists through senkf/internal/ensio" >&2
    exit 1
fi

# The engines must sit above the plan layer, not beside it: core and
# schedule each depend on plan, and plan on neither.
for eng in senkf/internal/core senkf/internal/schedule; do
    if ! go list -deps "$eng" | grep -qx 'senkf/internal/plan'; then
        echo "FAIL: $eng no longer builds on senkf/internal/plan" >&2
        exit 1
    fi
done

# The level dimension lives in the plan layer, not beside it: Spec.Levels
# and plan.Tag are the single source of level shape and message identity,
# so no engine may keep a private multilevel path. If any file outside
# internal/plan mentions "mlTag" or defines its own stage-tag arithmetic,
# a bespoke loop has crept back in.
if bad=$(grep -rn 'mlTag\|func observeML\|func runComputeML\|func runIOML' \
        --include='*.go' internal cmd examples 2>/dev/null | grep -v '_test.go'); then
    echo "FAIL: bespoke multilevel path re-introduced outside the plan layer:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "OK: plan, monitor, report and runlog layers are substrate-free; monitor serves no HTTP and derives no plan contract; report builds without runtimeobs; no count is copied out of the registry; only trace encodes and decodes phase spans and stage instants; the monitor writes monitor/* only; only runtimeobs reads the Go runtime; runtimeobs sits below plan; ckpt builds on ensio only; core and schedule build on plan; no bespoke multilevel paths"
