#!/usr/bin/env sh
# Full verification gate, in the same order as .github/workflows/ci.yml:
# build, vet, formatting, staticcheck (when reachable), the test suite
# under the race detector (the campaign harness in internal/harness is
# the one place real concurrency exists — keep it honest), the pooldebug
# poisoning build, the experiment smokes, and the allocation-regression
# gate over the datagram hot path.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
# staticcheck, pinned to the same version CI runs. `go run` needs the
# module proxy; on an offline machine skip with a notice rather than
# fail — CI remains the authority.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
elif go run honnef.co/go/tools/cmd/staticcheck@2024.1.1 -version >/dev/null 2>&1; then
    go run honnef.co/go/tools/cmd/staticcheck@2024.1.1 ./...
else
    echo "check.sh: staticcheck unavailable offline; skipping (CI runs it)" >&2
fi
go test -race ./...
go test -tags pooldebug ./...
# The benchmark's self-tests: its workloads pass their gates and repeat,
# and its metric names still match BENCHMARK.json.
go -C perfbench test -short ./...
# The crash/restart soak must pass with poisoned pooled buffers: a frame
# leaked (or double-released) by gateway teardown dies loudly here.
go test -tags pooldebug -count=1 -run 'TestCrashRestartSoak|TestPartitionHealTransferIntegrity' ./internal/fault/
# E11 smoke: the fault-injection recovery experiment end to end through
# the CLI, as a 2-replica campaign.
go run ./cmd/experiments -only E11 -runs 2 -faults mixed > /dev/null
# E12 smoke: a small generated internet through the CLI.
go run ./cmd/experiments -only E12 -topo 'waxman:gw=16' > /dev/null
# E13 smoke: the congestion-collapse sweep through the CLI as a
# 2-replica campaign, with the -workload flag exercised.
go run ./cmd/experiments -only E13 -runs 2 -workload 'naive=1,alpha=1.1,min=30000,max=2000000' > /dev/null
# Codec and checksum fuzzers, 10s each (go test takes one -fuzz target at a time).
go test -run '^$' -fuzz FuzzIPv4HeaderRoundTrip -fuzztime 10s ./internal/ipv4/
go test -run '^$' -fuzz FuzzTCPSegmentRoundTrip -fuzztime 10s ./internal/tcp/
go test -run '^$' -fuzz FuzzUDPDatagramRoundTrip -fuzztime 10s ./internal/udp/
go test -run '^$' -fuzz FuzzRIPMessageRoundTrip -fuzztime 10s ./internal/rip/
go test -run '^$' -fuzz FuzzNamesMessageRoundTrip -fuzztime 10s ./internal/names/
# The word-wide Internet checksum against the byte-pair reference.
go test -run '^$' -fuzz FuzzChecksumEquivalence -fuzztime 10s ./internal/packet/
# Determinism smokes through the CLI. Each case runs the experiments
# binary twice with the same arguments and one varying flag, and the
# named export must be byte-identical across the two: campaign.json is
# the -json export (which embeds the full per-layer counter registry as
# ctr/ metrics), any other file is written by -summary. The cases: E5
# at any -parallel; the E13-T 2x2 tournament grid (topology axis pinned)
# and the E14 survivability frontier on a small internet at any
# -parallel; the 2000-gateway E16 sharded kernel at any -shards (the
# conservative-sync acceptance check); and E15's naming summary at any
# -parallel and any -shards (directory traffic crosses the shard seams).
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/experiments" ./cmd/experiments
n=0
while IFS='|' read -r file args vary1 vary2; do
    n=$((n + 1))
    for v in 1 2; do
        out="$tmpdir/$n-$v"
        mkdir "$out"
        if [ "$file" = campaign.json ]; then dest="-json $out/$file"; else dest="-summary $out"; fi
        if [ "$v" = 1 ]; then vary="$vary1"; else vary="$vary2"; fi
        # Unquoted on purpose: each column is a list of arguments.
        "$tmpdir/experiments" $args $vary $dest < /dev/null > /dev/null
    done
    cmp "$tmpdir/$n-1/$file" "$tmpdir/$n-2/$file"
done <<CASES
campaign.json|-only E5 -runs 4|-parallel 1|-parallel $(nproc)
tournament.json|-only E13-T -ttopo transitstub -qdisc droptail+ecn -cc naive+newreno -runs 2 -seed 1988|-parallel 1|-parallel 3
survive.json|-only E14 -stopo transitstub:gw=3,stubs=2,hosts=1,mix=0 -sfracs 10,20 -runs 2 -seed 1988|-parallel 1|-parallel 3
campaign.json|-only E16 -seed 1988|-shards 1|-shards 4
names.json|-only E15 -runs 2 -seed 1988|-parallel 1|-parallel 3
names.json|-only E15 -runs 2 -seed 1988|-parallel 1|-parallel 1 -shards 2
CASES
scripts/benchguard.sh
