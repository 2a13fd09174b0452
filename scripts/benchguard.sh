#!/usr/bin/env sh
# benchguard: allocation-regression gate for the datagram hot path.
#
# Runs the hot-path benchmarks with -benchmem and compares allocs/op
# against the committed baseline (BENCH_baseline.txt). Any benchmark
# exceeding its baseline fails the gate. ns/op is deliberately not
# gated — wall-clock is too machine-dependent for CI — but allocs/op
# is exact and deterministic, so a regression from 0 is a real leak
# in the pooled path, not noise.
#
# After an intentional change to the baseline numbers, refresh with:
#   scripts/benchguard.sh --update
set -eu

cd "$(dirname "$0")/.."

BASELINE=BENCH_baseline.txt
PKGS="./internal/sim/ ./internal/phys/ ./internal/stack/ ./internal/fault/ ./internal/topo/ ./internal/workload/ ./internal/survive/ ./internal/names/"
PATTERN='BenchmarkEventThroughput|BenchmarkTimerChurn|BenchmarkManyPendingTimers|BenchmarkForwardHotPath|BenchmarkSingleHopSend|BenchmarkForwardHotPathIdleInjector|BenchmarkScaleForward|BenchmarkForwardHotPathActiveWorkload|BenchmarkForwardHotPathSurviveCensus|BenchmarkShardedForward|BenchmarkForwardHotPathWithResolverCache|BenchmarkHeapHold|BenchmarkQdiscStanding|BenchmarkRouteLookupSmall'

out=$(go test -run '^$' -bench "$PATTERN" -benchmem -benchtime 1000x $PKGS)
printf '%s\n' "$out"

# Normalize to "name allocs" pairs, stripping the -GOMAXPROCS suffix so
# baselines compare across machines.
current=$(printf '%s\n' "$out" | awk '$NF == "allocs/op" {
    name = $1; sub(/-[0-9]+$/, "", name); print name, $(NF-1)
}')

if [ "${1:-}" = "--update" ]; then
    printf '%s\n' "$current" > "$BASELINE"
    echo "benchguard: baseline updated ($BASELINE)"
    exit 0
fi

if [ ! -f "$BASELINE" ]; then
    echo "benchguard: missing $BASELINE — create it with scripts/benchguard.sh --update" >&2
    exit 1
fi

printf '%s\n' "$current" | awk -v baseline="$BASELINE" '
    BEGIN {
        while ((getline line < baseline) > 0) {
            n = split(line, f, " ")
            if (n >= 2) { want[f[1]] = f[2] + 0; seen[f[1]] = 0 }
        }
        close(baseline)
    }
    {
        if (!($1 in want)) {
            print "benchguard: " $1 " has no baseline — add it with scripts/benchguard.sh --update"
            bad = 1
            next
        }
        seen[$1] = 1
        if ($2 + 0 > want[$1]) {
            print "benchguard: FAIL " $1 " allocs/op regressed: " $2 " > baseline " want[$1]
            bad = 1
        } else {
            print "benchguard: ok   " $1 " (" $2 " <= " want[$1] " allocs/op)"
        }
    }
    END {
        for (n in seen) if (!seen[n]) {
            print "benchguard: FAIL " n " in baseline but missing from bench run"
            bad = 1
        }
        exit bad
    }
'

echo "benchguard: PASS"
